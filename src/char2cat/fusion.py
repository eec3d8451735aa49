"""The fusion ring of the even categories in the chain.

Basis classes are indexed by subsets ``S`` of ``{1..n}`` through bitmasks
(bit ``j-1`` set iff ``j`` is in ``S``); the integer value of the mask is
also the printed ``V_m`` index used by the CLI.  Multiplication is driven
by the single-generator rule ``gen_mul`` and extended to arbitrary
products by iterating it.  The full structure-constant tensor comes by
three independent routes that the tests compare: generator iteration and
the exact cyclotomic-arithmetic oracle, which feed their generator
matrices to one subset-product builder, and a level recursion built on the
presentation ``x^2 = 2 + x'`` of each new generator ``x``.  The builder
does one exact ``float64`` gemm per generator and the recursion one per
level, both through ``cyclotomic.exact_matmul``: numpy has no BLAS for
``int64``, and the entries (at most ``2^n``) are far inside the range
where ``float64`` integer arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclotomic import (
    RING_LEVEL_CAP,
    CycInt,
    check_generator,
    check_level,
    check_subset,
    d_basis_element,
    d_basis_generator_matrix,
    exact_matmul,
)
from .errors import LevelMismatch

__all__ = [
    "STRUCTURE_LEVEL_CAP",
    "mask_subset",
    "FusionElt",
    "fusion_elt",
    "simple_elt",
    "unit",
    "gen_mul",
    "product",
    "generator_matrix",
    "structure_tensor",
    "mult_matrix",
    "fpdim",
    "frobenius_twist",
]

STRUCTURE_LEVEL_CAP = 8


def mask_subset(mask: int) -> list[int]:
    """The sorted subset of ``{1..n}`` encoded by a validated bitmask."""
    return [j + 1 for j in range(mask.bit_length()) if mask >> j & 1]


@dataclass(frozen=True)
class FusionElt:
    """Integer combination of basis classes at one level.

    ``coeffs`` is a sorted tuple of ``(mask, coefficient)`` pairs with all
    zero coefficients dropped.  Virtual (negative) coefficients are legal:
    they arise transiently in polynomial evaluation.
    """

    level: int
    coeffs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        check_level(self.level)
        for mask, c in self.coeffs:
            check_subset(mask, self.level)
            if c == 0:
                raise ValueError("zero coefficients must be dropped")

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _require_same_level(self, other: "FusionElt") -> None:
        if self.level != other.level:
            raise LevelMismatch(
                f"cannot combine fusion elements at levels {self.level} "
                f"and {other.level}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = fusion_elt(self.level, {0: other})
        self._require_same_level(other)
        out = self.as_dict()
        for mask, c in other.coeffs:
            out[mask] = out.get(mask, 0) + c
        return fusion_elt(self.level, out)

    __radd__ = __add__

    def __neg__(self):
        return FusionElt(self.level, tuple((m, -c) for m, c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = fusion_elt(self.level, {0: other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return FusionElt(self.level, ())
            return FusionElt(self.level, tuple((m, c * other) for m, c in self.coeffs))
        return product(self, other)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.coeffs:
            return f"FusionElt(level={self.level}, 0)"
        terms = " + ".join(f"{c}*X[{m}]" for m, c in self.coeffs)
        return f"FusionElt(level={self.level}, {terms})"


def fusion_elt(level: int, mapping: dict[int, int]) -> FusionElt:
    """Normalize a mask -> coefficient mapping into a ``FusionElt``."""
    items = tuple(sorted((m, c) for m, c in mapping.items() if c != 0))
    return FusionElt(level, items)


def simple_elt(level: int, mask: int) -> FusionElt:
    check_level(level)
    check_subset(mask, level)
    return FusionElt(level, ((mask, 1),))


def unit(level: int) -> FusionElt:
    return simple_elt(level, 0)


def _segment_mask(a: int, b: int) -> int:
    """Bitmask of the generators ``a..b`` (empty when ``a > b``)."""
    if a > b:
        return 0
    return (1 << b) - (1 << (a - 1))


def _gen_mul_terms(i: int, mask: int, n: int) -> list[tuple[int, int]]:
    """The single-generator rule as ``(mask, coefficient)`` pairs, distinct
    masks, unvalidated and uncached.

    Let ``k`` be the largest index ``<= i`` not in the subset.  The product
    is the class with ``k`` adjoined and ``[k+1, i]`` removed (dropped
    entirely when ``k = 0``), plus twice the classes with ``[k, i]``
    removed for each ``k`` in the gap.
    """
    k = i
    while k >= 1 and mask >> (k - 1) & 1:
        k -= 1
    out = []
    if k > 0:
        out.append(((mask & ~_segment_mask(k + 1, i)) | (1 << (k - 1)), 1))
    for kk in range(k + 1, i + 1):
        out.append((mask & ~_segment_mask(kk, i), 2))
    return out


@lru_cache(maxsize=None)
def gen_mul(i: int, mask: int, n: int) -> FusionElt:
    """Product of the ``i``-th generator class with the basis class ``mask``.

    The cache is unbounded but finite: a key has ``1 <= i <= n``, ``mask <
    2^n`` and ``n <= RING_LEVEL_CAP``, so it holds at most the sum over
    ``n <= 12`` of ``n * 2^n`` entries, 90114.  It is kept for ``verify``,
    whose Chebyshev annihilation, Frobenius and functor checks multiply
    through it: without it the ``verify`` jobs of the benchmark's
    ``small`` stream took 288-459 ms against 193-289 ms (six fresh
    interpreters each, 2-CPU shared host)."""
    check_level(n)
    check_generator(i, n)
    check_subset(mask, n)
    return fusion_elt(n, dict(_gen_mul_terms(i, mask, n)))


def product(a: FusionElt, b: FusionElt) -> FusionElt:
    """Ring product, computed by iterating the single-generator rule over
    the terms of the factor with fewer terms (the ring is commutative)."""
    a._require_same_level(b)
    if len(a.coeffs) > len(b.coeffs):
        a, b = b, a
    n = a.level
    out: dict[int, int] = {}
    for smask, sc in a.coeffs:
        cur = b.as_dict()
        j = smask
        while j:
            i = j.bit_length()  # apply the highest remaining generator
            j &= ~(1 << (i - 1))
            nxt: dict[int, int] = {}
            for mask, c in cur.items():
                for m2, c2 in gen_mul(i, mask, n).coeffs:
                    nxt[m2] = nxt.get(m2, 0) + c * c2
            cur = nxt
        for mask, c in cur.items():
            out[mask] = out.get(mask, 0) + sc * c
    return fusion_elt(n, out)


def generator_matrix(i: int, n: int) -> np.ndarray:
    """Matrix of multiplication by the ``i``-th generator; columns are
    ``gen_mul(i, mask, n)``, built afresh on each call from the cached
    columns."""
    size = 1 << n
    mat = np.zeros((size, size), dtype=np.int64)
    for mask in range(size):
        for m2, c in gen_mul(i, mask, n).coeffs:
            mat[m2, mask] = c
    return mat


def _structure_from_products(gmats: list[np.ndarray]) -> np.ndarray:
    """``N[S][T][U]`` from one route's generator matrices ``g_1 .. g_n``.

    ``N[S]`` (rows = right factor, columns = output class) is
    ``N[S - i] @ g_i.T`` for the largest ``i`` in ``S``.  Viewing the cube
    as one matrix with rows ``(S, T)``, the masks ``2^(i-1) .. 2^i - 1``
    are then a single exact ``float64`` gemm per generator.  numpy has no
    BLAS for ``int64``, and a stacked ``matmul`` over ``cube[:h]`` would
    make one BLAS call per slice, ``2^(i-1)`` calls for generator ``i``.
    """
    size = 1 << len(gmats)
    cube = np.empty((size, size, size), dtype=np.float64)
    cube[0] = np.identity(size)
    flat = cube.reshape(size * size, size)
    for i, g in enumerate(gmats):
        rows = (1 << i) * size
        exact_matmul(flat[:rows], g.T.astype(np.float64), out=flat[rows:2 * rows])
    return cube.astype(np.int64)


def _structure_from_generators(n: int) -> np.ndarray:
    return _structure_from_products([generator_matrix(i, n) for i in range(1, n + 1)])


def _structure_from_oracle(n: int) -> np.ndarray:
    """Structure constants from generator matrices computed by exact
    cyclotomic arithmetic in the ``d_S`` basis; independent of ``gen_mul``."""
    return _structure_from_products(
        [d_basis_generator_matrix(j, n) for j in range(1, n + 1)]
    )


def _structure_from_recursion(n: int) -> np.ndarray:
    """Level recursion from the presentation: level ``lev`` adjoins ``x``
    with ``x^2 = 2 + x'`` (``x'`` the previous top generator, zero at level
    1) and ``X_S x = X_(S + top)``.  For old subsets ``S,T,U``: old
    constants are inherited; moving ``x`` from one factor into the output
    copies them; ``x`` in both factors gives ``(2 + x') X_S X_T``; the rest
    vanish.  Only the previous tensor is read; the ``x'`` term is one
    exact ``float64`` gemm with the previous tensor viewed as rows ``(S, T)``.
    """
    tensor = np.ones((1, 1, 1), dtype=np.int64)
    for lev in range(1, n + 1):
        h = 1 << (lev - 1)
        new = np.zeros((2 * h, 2 * h, 2 * h), dtype=np.int64)
        new[:h, :h, :h] = tensor
        new[h:, :h, h:] = tensor
        new[:h, h:, h:] = tensor
        new[h:, h:, :h] = 2 * tensor
        if lev > 1:
            prev = tensor.astype(np.float64)
            times_x_prime = exact_matmul(prev.reshape(h * h, h), prev[h // 2])
            new[h:, h:, :h] += times_x_prime.astype(np.int64).reshape(h, h, h)
        tensor = new
    return tensor


def structure_tensor(n: int) -> np.ndarray:
    """Full structure-constant array ``N[S][T][U]`` at level ``n``, by
    generator iteration.  The level recursion and the cyclotomic oracle
    are the independent routes it is checked against."""
    check_level(n, STRUCTURE_LEVEL_CAP, "structure-tensor level",
                cap_name="STRUCTURE_LEVEL_CAP")
    return _structure_from_generators(n)


def mult_matrix(n: int) -> np.ndarray:
    """Matrix of multiplication by the top generator class, assembled by
    the block form ``[[0, 2I + B], [I, 0]]`` from the previous level's
    ``B``; it equals ``generator_matrix(n, n)`` for ``n >= 1``."""
    check_level(n)
    mat = np.zeros((1, 1), dtype=np.int64)
    for lev in range(1, n + 1):
        h = 1 << (lev - 1)
        new = np.zeros((2 * h, 2 * h), dtype=np.int64)
        new[:h, h:] = 2 * np.identity(h, dtype=np.int64) + mat
        new[h:, :h] = np.identity(h, dtype=np.int64)
        mat = new
    return mat


def fpdim(a: FusionElt) -> CycInt:
    """Image of ``a`` under the dimension isomorphism onto the real
    cyclotomic ring at the same level."""
    acc = CycInt.zero(a.level)
    for mask, c in a.coeffs:
        acc = acc + d_basis_element(mask, a.level) * c
    return acc


def frobenius_twist(a: FusionElt) -> FusionElt:
    """Linear extension of: kill classes whose subset contains 1, shift
    the rest down one step.  Result lives one level lower."""
    new_level = max(a.level - 1, 0)
    out: dict[int, int] = {}
    for mask, c in a.coeffs:
        if mask & 1:
            continue
        shifted = mask >> 1
        out[shifted] = out.get(shifted, 0) + c
    return fusion_elt(new_level, out)
