"""The fusion ring of the even categories in the chain.

Basis classes are indexed by subsets ``S`` of ``{1..n}`` through bitmasks
(bit ``j-1`` set iff ``j`` is in ``S``); the integer value of the mask is
also the printed ``V_m`` index used by the CLI.  Multiplication is driven
by the single-generator rule and extended to arbitrary products by
iterating it.  The structure constants come as sorted records ``(S, T, U,
c)`` by three independent routes that the tests compare: generator
iteration and the exact cyclotomic-arithmetic oracle, which feed their
generators to one subset-product builder, and a level recursion built on
the presentation ``x^2 = 2 + x'`` of each new generator ``x``.  Both build
through one step, records times an operator given as ``(out, in, coeff)``
terms, in ``int64`` index arrays; every coefficient is positive, so no
merged sum is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclotomic import (
    CycInt,
    _abs_max,
    _merge,
    _runs,
    check_generator,
    check_level,
    check_subset,
    d_basis_element,
    d_basis_generator_matrix,
)
from .errors import LevelMismatch, NotIntegral

__all__ = [
    "STRUCTURE_LEVEL_CAP",
    "mask_subset",
    "FusionElt",
    "fusion_elt",
    "simple_elt",
    "unit",
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
    they arise transiently in polynomial evaluation.  The constructor
    validates every mask; arithmetic results, whose masks are valid by
    construction, are built by ``_fusion_elt`` without that check.
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
        return _fusion_elt(self.level, out)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if isinstance(other, int):
            other = fusion_elt(self.level, {0: other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return _fusion_elt(self.level, {m: c * other for m, c in self.coeffs})
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


def _fusion_elt(level: int, mapping: dict[int, int]) -> FusionElt:
    """``fusion_elt`` for a mapping whose level and masks are already valid,
    without the constructor's checks."""
    self = object.__new__(FusionElt)
    object.__setattr__(self, "level", level)
    object.__setattr__(self, "coeffs",
                       tuple(sorted((m, c) for m, c in mapping.items() if c != 0)))
    return self


def simple_elt(level: int, mask: int) -> FusionElt:
    check_level(level)
    check_subset(mask, level)
    return FusionElt(level, ((mask, 1),))


def unit(level: int) -> FusionElt:
    return simple_elt(level, 0)


def _gen_mul_terms(i: int, mask: int, n: int) -> list[tuple[int, int]]:
    """The single-generator rule as ``(mask, coefficient)`` pairs, distinct
    masks, unvalidated.

    Let ``k`` be the largest index ``<= i`` not in the subset, so that
    ``k+1 .. i`` are in it.  The product is the class with ``k`` adjoined
    and ``[k+1, i]`` removed (dropped entirely when ``k = 0``), plus twice
    the classes with ``[kk, i]`` removed for each ``kk`` in the gap.
    """
    full = (1 << i) - 1
    k = (~mask & full).bit_length()
    # full >> j << j is the mask of the generators j+1 .. i
    out = [(mask - (full >> k << k) + (1 << (k - 1)), 1)] if k else []
    for j in range(k, i):
        out.append((mask - (full >> j << j), 2))
    return out


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
                for m2, c2 in _gen_mul_terms(i, mask, n):
                    nxt[m2] = nxt.get(m2, 0) + c * c2
            cur = nxt
        for mask, c in cur.items():
            out[mask] = out.get(mask, 0) + sc * c
    return _fusion_elt(n, out)


def _generator_terms(i: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multiplication by the ``i``-th generator as terms ``(out, in,
    coeff)``, ``int64`` arrays sorted by ``in``: column ``in`` holds
    ``_gen_mul_terms(i, in, n)``."""
    check_level(n)
    check_generator(i, n)
    return tuple(np.array([(m2, mask, c) for mask in range(1 << n)
                           for m2, c in _gen_mul_terms(i, mask, n)], dtype=np.int64).T)


def generator_matrix(i: int, n: int) -> np.ndarray:
    """Matrix of multiplication by the ``i``-th generator, built afresh
    on each call from its terms."""
    out, inp, coeff = _generator_terms(i, n)
    mat = np.zeros((1 << n, 1 << n), dtype=np.int64)
    mat[out, inp] = coeff
    return mat


def _records(keys: np.ndarray, coeffs: np.ndarray, n: int) -> np.ndarray:
    """Rows ``(S, T, U, c)``, ``c`` the coefficient of ``X_U`` in ``X_S X_T``,
    from the sorted keys ``(S * 2^n + T) * 2^n + U`` (``np.argwhere`` order)."""
    low = (1 << n) - 1
    return np.column_stack([keys >> 2 * n, keys >> n & low, keys & low, coeffs])


def _times(keys: np.ndarray, coeffs: np.ndarray, terms, n: int):
    """``x N`` unmerged: record ``(S, T, U, c)`` at level ``n`` gives ``(S, T,
    out, c * coeff)`` for each term of ``x`` with ``in = U``, the terms sorted
    by ``in``.  ``NotIntegral`` is raised first unless each sum, of at most
    the most terms into one class, each at most ``max|c| * max|coeff|``,
    stays in ``int64``."""
    out, inp, coeff = terms
    bound = _abs_max(coeffs) * _abs_max(coeff) * int(np.bincount(out).max())
    if bound >= 1 << 63:
        raise NotIntegral(f"structure-constant bound {bound} is not below 2**63")
    u = keys & ((1 << n) - 1)
    edges = np.searchsorted(inp, np.arange((1 << n) + 1))
    first, count = edges[u], edges[u + 1] - edges[u]
    pos = _runs(first, count)
    return np.repeat(keys - u, count) + out[pos], np.repeat(coeffs, count) * coeff[pos]


def _subset_products(gens, n: int) -> np.ndarray:
    """Records at level ``n`` from one route's generators ``x_1 .. x_n`` as
    terms: ``N[0]`` is the identity and ``N[S] = x_i N[S - i]``, ``i`` the
    largest in ``S``, so ``x_i`` adds the masks ``2^(i-1) .. 2^i - 1``."""
    size = 1 << n
    keys = np.arange(size, dtype=np.int64) * (size + 1)
    coeffs = np.ones(size, dtype=np.int64)
    for i, terms in enumerate(gens):
        new_keys, new_coeffs = _merge(*_times(keys, coeffs, terms, n))
        keys = np.concatenate([keys, new_keys + (size << i) * size])
        coeffs = np.concatenate([coeffs, new_coeffs])
    return _records(keys, coeffs, n)


def _structure_from_generators(n: int) -> np.ndarray:
    return _subset_products([_generator_terms(i, n) for i in range(1, n + 1)], n)


def _structure_from_oracle(n: int) -> np.ndarray:
    """Structure constants from generator matrices computed by exact
    cyclotomic arithmetic in the ``d_S`` basis; independent of the
    generator rule."""
    mats = [d_basis_generator_matrix(j, n) for j in range(1, n + 1)]
    nonzero = [np.nonzero(mat.T)[::-1] for mat in mats]  # (out, in), sorted by in
    return _subset_products([(*oi, mat[oi]) for mat, oi in zip(mats, nonzero)], n)


def _structure_from_recursion(n: int) -> np.ndarray:
    """Level recursion from the presentation: level ``lev`` adjoins ``x``
    with ``x^2 = 2 + x'`` (``x'`` the previous top generator, zero at level
    1) and ``X_S x = X_(S + top)``.  For old subsets ``S,T,U``: old
    constants are inherited; moving ``x`` from one factor into the output
    copies them; ``x`` in both factors gives ``(2 + x') X_S X_T``; the rest
    vanish.  Only the previous records are read: copies at offsets, and
    ``x'`` as the terms of the records with ``S = x'``."""
    keys = np.zeros(1, dtype=np.int64)
    coeffs = np.ones(1, dtype=np.int64)
    for lev in range(1, n + 1):
        p, h = lev - 1, 1 << (lev - 1)
        s, t, u = keys >> 2 * p, keys >> p & (h - 1), keys & (h - 1)
        base = s << 2 * lev | t << lev | u
        both = base + (h << 2 * lev) + (h << lev)
        parts = [(base, coeffs), (base + (h << lev) + h, coeffs),
                 (base + (h << 2 * lev) + h, coeffs), (both, 2 * coeffs)]
        if lev > 1:
            prime = s == h // 2
            parts.append(_times(both, coeffs, (u[prime], t[prime], coeffs[prime]), lev))
        keys, coeffs = _merge(*map(np.concatenate, zip(*parts)))
    return _records(keys, coeffs, n)


def structure_tensor(n: int) -> np.ndarray:
    """Structure constants at level ``n`` as records ``(S, T, U, c)``, by
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
