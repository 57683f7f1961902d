"""The package's star-import exports its public API and no submodule, its
caches are the ones listed here, its records are named tuples, and importing
it loads none of the heavier standard modules."""
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from fractions import Fraction

import pytest

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


def test_records_are_named_tuples():
    """The four records keep their fields, defaults and repr, and are
    immutable, hashable values that equal the plain tuples of their fields."""
    spec = horseshoe.disk_specs("10", Fraction(1, 4))[0]
    info = horseshoe.classify("10010110")
    short = horseshoe.classify("10")
    table = horseshoe.decinv_table(5, ("", "1"))
    row = table.rows[0]
    assert horseshoe.DiskSpec._fields == ("name", "principal", "shifted")
    assert horseshoe.Classification._fields == (
        "code", "period", "height", "kind", "decoration", "x", "y"
    )
    assert horseshoe.TableRow._fields == ("label", "members", "values")
    assert horseshoe.DecInvTable._fields == ("period", "decorations", "scope_row", "rows")
    assert horseshoe.Classification("1", 1, Fraction(1, 2), "fixed-point")[4:] == (
        None, None, None
    )
    assert repr(spec) == (
        "DiskSpec(name='A', principal='100010010', shifted='100100011')"
    )
    assert repr(info) == (
        "Classification(code='10010110', period=8, height=Fraction(1, 3),"
        " kind='decorated', decoration='11', x='0', y='0')"
    )
    assert repr(short) == (
        "Classification(code='10', period=2, height=Fraction(1, 2),"
        " kind='period-two', decoration=None, x=None, y=None)"
    )
    assert repr(row) == (
        "TableRow(label='1011.', members=('10111', '10110'),"
        " values=(Fraction(1, 3), Fraction(1, 2)))"
    )
    assert repr(table).startswith(
        "DecInvTable(period=5, decorations=('', '1'),"
        " scope_row=(Fraction(1, 3), Fraction(1, 2)), rows=(TableRow("
    )
    for record in (spec, info, row, table):
        with pytest.raises(AttributeError):
            record.__setattr__(record._fields[0], None)
        assert hash(record) == hash(type(record)(*record))
        assert record == type(record)(*record) == tuple(record)


def test_import_loads_no_heavy_stdlib_modules():
    """A fresh import of the package and its CLI adds none of dataclasses,
    inspect or json to what the interpreter had loaded before it."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import horseshoe, horseshoe.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = os.path.dirname(os.path.dirname(horseshoe.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    added = set(out.split())
    assert "horseshoe.cli" in added
    assert not added & {"dataclasses", "inspect", "json"}, sorted(added)
