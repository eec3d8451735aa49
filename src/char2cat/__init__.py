"""Exact invariants of a chain of characteristic-2 symmetric tensor categories.

The package computes, in exact integer/cyclotomic arithmetic, the fusion
rings, dimension values, tilting-character calculus, Cartan and
first-extension data, and counting invariants attached to a doubling chain
of tensor categories, and cross-verifies every quantity along at least two
independent routes.
"""

import sys

from .chebyshev import cheb_q, eval_poly
from .cyclotomic import (
    RING_LEVEL_CAP,
    CycInt,
    IntPoly,
    conjugate_floats,
    d_basis_element,
    delta_float,
    embed,
    eval_min_poly_at_matrix,
    min_poly,
    to_d_basis,
)
from .errors import (
    Char2CatError,
    DimensionMismatch,
    LevelMismatch,
    LevelTooLarge,
    NotIntegral,
    NotTiltingCharacter,
    SubsetOutOfRange,
)
from .fusion import (
    STRUCTURE_LEVEL_CAP,
    FusionElt,
    fpdim,
    frobenius_twist,
    fusion_elt,
    generator_matrix,
    mult_matrix,
    product,
    simple_elt,
    structure_tensor,
    unit,
)
from .homology import (
    CATEGORY_INDEX_CAP,
    algebra_fpdim,
    block_components,
    cartan,
    category_fpdim,
    ext1_dim,
    ext1_matrix,
    proj_fpdims,
)
from .invariants import (
    INVARIANTS_LEVEL_CAP,
    SERIES_ORDER_CAP,
    closed_walks,
    paths_column,
    recursion_column,
    series_f,
    verlinde_product,
    verlinde_qdim,
)
from .tilting import (
    TILT_INDEX_CAP,
    TiltSum,
    WeightChar,
    decompose,
    digit_images,
    functor_images,
    functor_to_fusion,
    in_T1_polynomial,
    simple_char,
    tensor_power_decompose,
    tensor_v_rows,
    tilt_char,
    twist_char,
    weyl_char,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every cache in the package's loaded modules.

    Every cache is a bounded ``functools.lru_cache`` on values a command
    re-reads: ``cyclotomic.min_poly`` holds the whole tower
    (``RING_LEVEL_CAP + 1`` levels), ``homology.cartan`` and
    ``homology.ext1_matrix`` the last index asked for, ``tilting.tilt_char``
    up to 64 characters (the checks read 42) and ``cli.build_parser`` the
    one parser."""
    for name, mod in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
