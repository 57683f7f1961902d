"""Exact combinatorics of horseshoe periodic orbits.

Heights of symbol sequences, classification of orbit codes by height and
decoration, the decoration invariants r^w that decide braid forcing, an
independent disk-intersection forcing oracle, and polynomial entropy
bounds -- all in exact rational arithmetic.
"""
from types import ModuleType as _ModuleType

from .disks import DiskSpec, disk_specs, forcing_oracle, in_disk, intersection_counts
from .entropy import (
    H_poly,
    Hbar_poly,
    entropy_certificate,
    entropy_lower_bound,
    eval_poly,
    f_poly,
    g_poly,
    largest_root,
    root_bracket,
)
from .families import (
    interwi_expected,
    lone_catalog,
    ones_decoration,
    pa_test,
    r_sequence,
    star_decoration,
    starforce_expected,
)
from .height import (
    HALF,
    cq_word,
    finite_order_word,
    height,
    height_oracle,
    scope,
    starlem_check,
)
from .invariants import (
    AT_THRESHOLD,
    BACKWARD,
    BOTH,
    FORCED,
    FORWARD,
    NOT_FORCED,
    STAR,
    forces,
    lam,
    mu,
    nu,
    r_dir,
    r_star,
    r_w,
)
from .orbits import (
    DECORATED,
    FINITE_ORDER,
    FIXED_POINT,
    NBT,
    PERIOD_TWO,
    REDUCIBLE,
    Classification,
    classify,
    is_paired,
    orbit_exists,
    orbit_height,
    q_in_Qw_sufficient,
)
from .survey import (
    DecInvTable,
    TableRow,
    decinv_table,
    necklaces,
    universality_sample,
    universality_scan,
)
from .words import (
    EQ,
    GT,
    LT,
    DomainError,
    Seq,
    canonical_code,
    flip_last,
    is_even,
    is_primitive,
    unimodal_cmp,
)

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
