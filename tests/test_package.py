"""The package's star-import exports its public API and no submodule."""
import types

import horseshoe


def test_star_import_binds_no_module():
    namespace = {}
    exec("from horseshoe import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(horseshoe.__all__)
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]


def test_all_names_resolve_and_cover_the_public_api():
    for name in horseshoe.__all__:
        assert hasattr(horseshoe, name), name
    public = {
        name
        for name, value in vars(horseshoe).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(horseshoe.__all__)
    assert len(public) == 80
