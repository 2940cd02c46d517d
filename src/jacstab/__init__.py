"""Exact-arithmetic computations with stability conditions for
compactified universal Jacobians at the level of dual graphs."""

from .abel_jacobi import (
    AJDatum,
    ExtendsResult,
    VinePhiTable,
    aj_multidegree,
    classify_extension,
    construct_prop_phi,
    sigma_extends,
)
from .atlas import AtlasRecord, Chamber, WallSet, atlas, chambers, walls
from .errors import JacstabError
from .graph import (
    DualGraph,
    VineCurve,
    enumerate_vines,
    iter_vines,
    make_vine,
    spanning_tree_count,
    validate,
)
from .stability import (
    PhiVector,
    SheafDatum,
    equivalent_small_perturbation_check,
    is_nondegenerate,
    is_small_perturbation,
    is_stable,
    stable_sheaf_data,
    verify_support_lemma,
)

__version__ = "0.1.0"
