"""Character calculus for rank-one tilting modules in characteristic two.

Characters are finitely supported multiplicity functions on integer
weights, symmetric under negation; only the nonnegative half is stored,
so the symmetry is structural.  The indecomposable characters are
generated by a doubling recursion (the degree-1 and degree-2 characters
convolved with weight-doubled smaller ones); the test-suite validates the
recursion against independently tabulated composition-factor data, and a
mismatch there is treated as a build-stopping failure.

Every output route reads the binary digits of the index through Donkin's
tensor product theorem for p = 2 (S. Donkin, "On tilting modules for
algebraic groups", Math. Z. 1993): ``T(2k+1) = T(1) T(k)^[1]`` and
``T(2k+2) = T(2) T(k)^[1]``.

- ``tensor_v_rows``: from ``T(1)^2 = T(2)`` and ``T(2) T(1) = T(3) +
  2 T(1)``, the tensor-by-degree-1 row of ``2k+1`` is ``T(2k+2)`` and the
  row of ``2k+2`` is the row of ``k`` with each index ``j`` sent to
  ``2j+1``, plus ``2 T(2k+1)``.
- ``_tilting_from_weyl``: on Weyl characters, ``T(1) chi(k)^[1] =
  chi(2k+1)`` and ``T(2) chi(k)^[1] = chi(2k+2) + chi(2k)``, so the digits
  also turn Weyl multiplicities into tilting ones.  In ``sum_m x_m T(m)``,
  Weyl entry ``2k+1`` comes from the ``T(2j+1)`` alone: it is Weyl entry
  ``k`` of ``sum_j x_(2j+1) T(j)``.  Entry ``2s`` is ``z_s + z_(s+1)``,
  where ``z_0 = x_0`` and ``z_(k+1)`` is Weyl entry ``k`` of ``sum_j
  x_(2j+2) T(j)``, so ``z`` is the alternating suffix sums of the even
  entries.  One recursion on each half: ``O(n log n)`` additions.
  ``tensor_power_decompose`` reads it on the Weyl multiplicities of
  ``V^r``, the ballot numbers ``C(r, i) - C(r, i-1)`` at ``r - 2i``.
- ``TiltSum.dim``: ``dim T(2k+1) = 2 dim T(k)`` and ``dim T(2k+2) = 4 dim
  T(k)``.
- ``in_T1_polynomial``: in the split Grothendieck ring each class is an
  integer polynomial in the degree-1 class ``x``, with ``T(1) = x``,
  ``T(2) = x**2`` and the Frobenius twist ``x -> x**2 - 2``.
- ``digit_images``: the images in the level-``n`` fusion ring, ``T(2k+1)
  -> x_n img_(n-1)(T(k))`` and ``T(2k+2) -> (2 + x_(n-1)) img_(n-1)(T(k))``,
  with ``x_n`` the top generator (zero at level 0) and the level-``n-1``
  ring included in the level-``n`` one.  ``functor_to_fusion`` reads them.

Two routes are kept as checks on these.  The character route convolves
characters (``char_mul``) and peels them greedily from the highest weight
(``decompose``), which is well defined because each character has its
highest weight with multiplicity one; it checks the rows.  Tensoring with
the degree-1 module is unitriangular on indecomposables, so the row step
``img(T_(t+1)) = x img(T_t) - sum_s k_s img(T_s)`` over the rows builds
the images independently of the digits (``functor_images``); it checks
the digit images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import IntPoly, _compose_square_minus_two, check_level
from .errors import NotTiltingCharacter
from .fusion import FusionElt, _fusion_elt, _gen_mul_terms, fusion_elt, simple_elt, unit

__all__ = [
    "TILT_INDEX_CAP",
    "WeightChar",
    "TiltSum",
    "weyl_char",
    "char_mul",
    "twist_char",
    "tilt_char",
    "simple_char",
    "decompose",
    "tensor_v_rows",
    "tensor_power_decompose",
    "in_T1_polynomial",
    "functor_images",
    "digit_images",
    "functor_to_fusion",
]

#: Largest index, or tensor power, the tilting tables accept: ``2**11 - 1``.
#: It bounds the output; the functor level is bounded by the ring level cap.
#: ``digit_images`` takes any index, since ``tilt --functor N`` reads the
#: first index it kills, ``2**(N+1) - 1``.
TILT_INDEX_CAP = 2047


@dataclass(frozen=True)
class WeightChar:
    """Symmetric weight multiplicities; ``half`` holds weights >= 0 only.

    Multiplicities may be negative for virtual (non-module) values, which
    ``decompose`` rejects.
    """

    half: tuple[tuple[int, int], ...]  # sorted descending (weight, mult), mult != 0

    def __post_init__(self):
        prev = None
        for w, m in self.half:
            if w < 0:
                raise ValueError("stored weights must be nonnegative")
            if m == 0:
                raise ValueError("zero multiplicities must be dropped")
            if prev is not None and w >= prev:
                raise ValueError("weights must be strictly descending")
            prev = w

    @classmethod
    def from_half(cls, mapping: dict[int, int]) -> "WeightChar":
        items = tuple(sorted(((w, m) for w, m in mapping.items() if m != 0), reverse=True))
        return cls(items)

    def half_dict(self) -> dict[int, int]:
        return dict(self.half)

    def full_dict(self) -> dict[int, int]:
        out = {}
        for w, m in self.half:
            out[w] = m
            if w > 0:
                out[-w] = m
        return out

    @property
    def has_negative(self) -> bool:
        return any(m < 0 for _, m in self.half)

    def dim(self) -> int:
        """Total multiplicity over the full (two-sided) support."""
        return sum(m if w == 0 else 2 * m for w, m in self.half)


def weyl_char(m: int) -> WeightChar:
    """Multiplicity one on the weights ``m, m-2, ..., -m``."""
    if m < 0:
        raise ValueError(f"weight must be nonnegative, got {m}")
    return WeightChar.from_half({w: 1 for w in range(m, -1, -2)})


def char_mul(a: WeightChar, b: WeightChar) -> WeightChar:
    """Convolution of the full weight supports (tensor-product character)."""
    fa = a.full_dict()
    fb = b.full_dict()
    out: dict[int, int] = {}
    for wa, ma in fa.items():
        for wb, mb in fb.items():
            w = wa + wb
            if w >= 0:
                out[w] = out.get(w, 0) + ma * mb
    return WeightChar.from_half(out)


def twist_char(c: WeightChar) -> WeightChar:
    """Double every weight, keeping multiplicities."""
    return WeightChar.from_half({2 * w: m for w, m in c.half})


@lru_cache(maxsize=64)
def tilt_char(m: int) -> WeightChar:
    """Character of the ``m``-th indecomposable tilting module.

    Generation: the degree-0/1/2 characters are fixed directly; odd
    indices convolve the degree-1 character with the weight-doubled
    character at ``(m-1)/2``, even indices >= 4 convolve the degree-2
    character with the one at ``(m-2)/2``.  Only the checks fill the
    cache: ``verify --max-level 8`` reads indices ``0..41``.
    """
    if m < 0:
        raise ValueError(f"tilting index must be nonnegative, got {m}")
    if m == 0:
        return weyl_char(0)
    if m == 1:
        return weyl_char(1)
    if m == 2:
        return WeightChar.from_half({2: 1, 0: 2})
    if m % 2:
        return char_mul(weyl_char(1), twist_char(tilt_char((m - 1) // 2)))
    return char_mul(tilt_char(2), twist_char(tilt_char((m - 2) // 2)))


def simple_char(m: int) -> WeightChar:
    """Character of the simple with highest weight ``m``: the convolution
    of weight-doubled degree-1 characters over the binary digits of ``m``."""
    if m < 0:
        raise ValueError(f"weight must be nonnegative, got {m}")
    out = weyl_char(0)
    b = 0
    while m >> b:
        if m >> b & 1:
            out = char_mul(out, WeightChar.from_half({1 << b: 1}))
        b += 1
    return out


@dataclass(frozen=True)
class TiltSum:
    """Multiset of indecomposable indices with positive multiplicities."""

    entries: tuple[tuple[int, int], ...]  # sorted descending (index, mult)

    def __post_init__(self):
        prev = None
        for m, k in self.entries:
            if m < 0 or k <= 0:
                raise ValueError("indices must be >= 0 with positive multiplicity")
            if prev is not None and m >= prev:
                raise ValueError("indices must be strictly descending")
            prev = m

    @classmethod
    def from_dict(cls, mapping: dict[int, int]) -> "TiltSum":
        items = tuple(sorted(((m, k) for m, k in mapping.items() if k != 0), reverse=True))
        return cls(items)

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def dim(self) -> int:
        return sum(k * _tilt_dim(m) for m, k in self.entries)


def _tilt_dim(m: int) -> int:
    """``dim T(m)`` from the digits: ``dim T(2k+1) = 2 dim T(k)`` and
    ``dim T(2k+2) = 4 dim T(k)``."""
    d = 1
    while m:
        d <<= 1 if m % 2 else 2
        m = (m - 1) // 2
    return d


def decompose(c: WeightChar) -> TiltSum:
    """Greedy peeling of indecomposable characters from the top weight.

    Raises ``NotTiltingCharacter`` if any multiplicity would go negative,
    i.e. the input is not a nonnegative combination of indecomposables.
    """
    if c.has_negative:
        raise NotTiltingCharacter("input has a negative weight multiplicity")
    work = c.half_dict()
    out: dict[int, int] = {}
    while work:
        w = max(work)
        k = work[w]
        out[w] = k
        for wt, mt in tilt_char(w).half:
            work[wt] = work.get(wt, 0) - k * mt
            if work[wt] < 0:
                raise NotTiltingCharacter(
                    f"peeling the index-{w} character drives weight {wt} negative"
                )
            if work[wt] == 0:
                del work[wt]
    return TiltSum.from_dict(out)


def tensor_v_rows(m: int) -> list[dict[int, int]]:
    """Rows ``0..m`` of the tensor-by-degree-1 table, each an index ->
    multiplicity dict, by Donkin's digits: row ``0`` is ``{1: 1}``, row
    ``2k+1`` is ``{2k+2: 1}``, and row ``2k+2`` sends each ``(j, c)`` of
    row ``k`` to ``(2j+1, c)`` and adds ``2`` at ``2k+1``."""
    check_level(m, TILT_INDEX_CAP, "tilt index", "TILT_INDEX_CAP")
    rows = [{1: 1}]
    for t in range(1, m + 1):
        if t % 2:
            rows.append({t + 1: 1})
        else:
            row = {2 * j + 1: c for j, c in rows[t // 2 - 1].items()}
            row[t - 1] = 2
            rows.append(row)
    return rows


def _tilting_from_weyl(c: list[int]) -> list[int]:
    """Multiplicities of ``T(0), T(1), ...`` in a module whose Weyl
    characters ``chi(0), chi(1), ...`` have the multiplicities ``c``."""
    if len(c) < 3 or not any(c):  # T(0) = chi(0) and T(1) = chi(1)
        return c[:]
    out = [0] * len(c)
    out[1::2] = _tilting_from_weyl(c[1::2])
    suffix, acc = [], 0
    for k in reversed(c[0::2]):
        acc = k - acc
        suffix.append(acc)
    suffix.reverse()
    out[0] = suffix[0]
    out[2::2] = _tilting_from_weyl(suffix[1:])
    return out


def tensor_power_decompose(r: int) -> TiltSum:
    """Decomposition of the ``r``-th tensor power of the degree-1 module:
    its Weyl multiplicities, ``C(r, i) - C(r, i-1)`` at ``chi(r - 2i)``,
    changed into tilting ones by ``_tilting_from_weyl``."""
    check_level(r, TILT_INDEX_CAP, "tensor power", "TILT_INDEX_CAP")
    weyl = [0] * (r + 1)
    below, binom = 0, 1
    for i in range(r // 2 + 1):
        weyl[r - 2 * i] = binom - below
        below, binom = binom, binom * (r - i) // (i + 1)
    mults = _tilting_from_weyl(weyl)
    return TiltSum(tuple((m, k) for m, k in reversed(list(enumerate(mults))) if k))


def in_T1_polynomial(m: int) -> IntPoly:
    """The degree-``m`` integer polynomial expressing the ``m``-th
    indecomposable class in terms of the degree-1 class in the split
    Grothendieck ring, by Donkin's digits: ``g_0 = 1``,
    ``g_(2k+1) = x g_k(x**2 - 2)`` and ``g_(2k+2) = x**2 g_k(x**2 - 2)``."""
    check_level(m, TILT_INDEX_CAP, "tilt index", "TILT_INDEX_CAP")
    if m == 0:
        return IntPoly((1,))
    twisted = _compose_square_minus_two(in_T1_polynomial((m - 1) // 2).coeffs)
    return IntPoly((0,) * (2 - m % 2) + twisted)


def functor_images(m: int, n: int) -> list[FusionElt]:
    """Images of the indecomposables ``0..m`` in the level-``n`` fusion
    ring by the row step: index 0 goes to the unit, and each further index
    follows from a tensor-by-degree-1 row with ``x`` the top generator
    (zero at level 0).  The check route for ``digit_images``."""
    check_level(m, TILT_INDEX_CAP, "tilt index", "TILT_INDEX_CAP")
    zero = fusion_elt(n, {})
    x = simple_elt(n, 1 << (n - 1)) if n else zero
    imgs = [unit(n)]
    rows = tensor_v_rows(m)
    for t in range(m):
        # T_t V = T_(t+1) + sum_s k_s T_s, solved for its leading summand
        row = dict(rows[t])
        if row.pop(t + 1, 0) != 1:
            raise NotTiltingCharacter(
                f"tensor-by-degree-1 row at index {t} is not unitriangular"
            )
        nxt = x * imgs[t]
        for s, k in row.items():
            nxt = nxt - imgs[s] * k
        imgs.append(nxt)
    return imgs


def digit_images(indices, n: int) -> list[FusionElt]:
    """Images of the indecomposables ``indices`` in the level-``n`` fusion
    ring, by Donkin's digits: ``T(0)`` goes to the unit, every other index
    to zero at level 0, and at level ``n >= 1``

    - ``T(2k+1) -> x_n i(img_(n-1)(T(k)))``,
    - ``T(2k+2) -> (2 + x_(n-1)) i(img_(n-1)(T(k)))``,

    where ``x_j`` is generator ``j`` (``x_0 = 0``) and ``i`` keeps each mask
    and raises the level by one.  The masks of ``i(.)`` omit ``n``, so
    ``x_n`` adjoins it.  The images met on the way are kept for this call
    only."""
    check_level(n)
    memo: dict[tuple[int, int], FusionElt] = {}

    def image(lev: int, m: int) -> FusionElt:
        key = (lev, m)
        if key not in memo:
            if m < 0:
                raise ValueError(f"index must be nonnegative, got {m}")
            # the masks below are valid by construction, so the images skip
            # the constructor's checks
            if m == 0:
                memo[key] = unit(lev)
            elif lev == 0:
                memo[key] = _fusion_elt(0, {})
            else:
                inner = image(lev - 1, (m - 1) // 2).coeffs
                if m % 2:
                    top = 1 << (lev - 1)
                    memo[key] = _fusion_elt(lev, {s | top: c for s, c in inner})
                else:
                    # (2 + x_(lev-1)) inner by the generator rule, whose
                    # terms for x_0 are empty: faster than fusion.product
                    # here, by about 30 % on small indices and levels
                    out = {s: 2 * c for s, c in inner}
                    for s, c in inner:
                        for s2, c2 in _gen_mul_terms(lev - 1, s, lev):
                            out[s2] = out.get(s2, 0) + c * c2
                    memo[key] = _fusion_elt(lev, out)
        return memo[key]

    return [image(n, m) for m in indices]


def functor_to_fusion(ts: TiltSum, n: int) -> FusionElt:
    """Class-level image in the level-``n`` fusion ring: the
    multiplicity-weighted sum of the ``digit_images`` of the indices in
    ``ts``."""
    acc = fusion_elt(n, {})
    imgs = digit_images([m for m, _ in ts.entries], n)
    for (_, k), img in zip(ts.entries, imgs):
        acc = acc + img * k
    return acc
