"""The package's star-import exports its public API and no submodule, and
its caches are the ones listed here."""
import importlib
import pkgutil
import types

import horseshoe

# The package's public names, by the module that defines them.
PUBLIC = {
    # disks
    "DiskSpec", "disk_specs", "forcing_oracle", "in_disk", "intersection_counts",
    # entropy
    "H_poly", "Hbar_poly", "entropy_certificate", "entropy_lower_bound",
    "eval_poly", "f_poly", "g_poly", "largest_root", "root_bracket",
    # families
    "interwi_expected", "lone_catalog", "ones_decoration", "pa_test",
    "r_sequence", "star_decoration", "starforce_expected",
    # height
    "HALF", "cq_word", "finite_order_word", "height", "height_oracle", "scope",
    "starlem_check",
    # invariants
    "AT_THRESHOLD", "BACKWARD", "BOTH", "FORCED", "FORWARD", "NOT_FORCED",
    "STAR", "forces", "lam", "mu", "nu", "r_dir", "r_star", "r_w", "rhe_is_half",
    # orbits
    "DECORATED", "FINITE_ORDER", "FIXED_POINT", "NBT", "PERIOD_TWO", "REDUCIBLE",
    "Classification", "classify", "is_paired", "orbit_exists", "orbit_height",
    "q_in_Qw_sufficient", "reverse_orbit",
    # survey
    "DecInvTable", "TableRow", "decinv_table", "necklaces",
    "universality_sample", "universality_scan",
    # words
    "EQ", "GT", "LT", "DomainError", "Seq", "append_even", "canonical_code",
    "even_final_subwords", "even_initial_subwords", "flip_first", "flip_last",
    "is_even", "is_primitive", "prepend_even", "unimodal_cmp",
}


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
    missing, extra = PUBLIC - public, public - PUBLIC
    assert not missing and not extra, (missing, extra)


# Every lru_cache in the package with its bound.  A new cache is added here
# together with the traffic that justifies it.
CACHES = {
    "disks._specs": 4096,
    "entropy._certificate": 4096,
    "height._cq": 4096,
    "height.height": 1 << 17,
    "height.scope": 1024,
    "invariants._cap_keys": 256,
    "invariants._plan": 1024,
}


def test_cache_inventory():
    found = {}
    for info in pkgutil.iter_modules(horseshoe.__path__):
        module = importlib.import_module(f"horseshoe.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert found == CACHES
