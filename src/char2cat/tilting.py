"""Character calculus for rank-one tilting modules in characteristic two.

Characters are finitely supported multiplicity functions on integer
weights, symmetric under negation; only the nonnegative half is stored,
so the symmetry is structural.  The indecomposable characters are
generated by a doubling recursion (the degree-1 and degree-2 characters
convolved with weight-doubled smaller ones); the test-suite validates the
recursion against independently tabulated composition-factor data, and a
mismatch there is treated as a build-stopping failure.

Decomposition into indecomposables is greedy peeling from the highest
weight, which is well defined because each character has its highest
weight with multiplicity one.  The quotient operation drops indices at or
above a threshold.

In the split Grothendieck ring each indecomposable class is an integer
polynomial in the degree-1 class ``x``.  ``in_T1_polynomial`` reads it off
the binary digits of the index by the same tensor product theorem the
characters follow (S. Donkin, "On tilting modules for algebraic groups",
Math. Z. 1993): ``T(2k+1) = T(1) T(k)^[1]`` and ``T(2k+2) = T(2) T(k)^[1]``,
with ``T(1) = x``, ``T(2) = x**2`` and the Frobenius twist ``x -> x**2 - 2``.
Tensoring with the degree-1 module is unitriangular on indecomposables, so
one row step of that table, ``img(T_(t+1)) = x img(T_t) - sum_s k_s
img(T_s)``, builds the images in each level-``n`` fusion ring with ``x`` its
top generator (``functor_images``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import IntPoly, _compose_square_minus_two
from .errors import NotTiltingCharacter
from .fusion import FusionElt, fusion_elt, simple_elt, unit

__all__ = [
    "FUNCTOR_LEVEL_CAP",
    "TILT_INDEX_CAP",
    "WeightChar",
    "TiltSum",
    "weyl_char",
    "char_mul",
    "twist_char",
    "tilt_char",
    "simple_char",
    "decompose",
    "tilt_tensor_v",
    "tensor_power_decompose",
    "in_T1_polynomial",
    "quotient_reduce",
    "functor_images",
    "functor_to_fusion",
    "steinberg_dim",
]

#: Largest fusion level the functor images are taken at.  Level 10 needs
#: the images of indices 0..2047 and takes seconds; level 11 needs twice
#: as many and takes over twice as long.
FUNCTOR_LEVEL_CAP = 10
#: Largest index, or tensor power, the tilting tables accept: ``2**11 - 1``,
#: the index the level-10 functor check reads.
TILT_INDEX_CAP = 2047


@dataclass(frozen=True)
class WeightChar:
    """Symmetric weight multiplicities; ``half`` holds weights >= 0 only.

    Multiplicities may be negative for virtual (non-module) values, which
    are produced by intermediate arithmetic but rejected by ``decompose``.
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

    def multiplicity(self, w: int) -> int:
        return self.half_dict().get(abs(w), 0)

    @property
    def is_zero(self) -> bool:
        return not self.half

    @property
    def highest_weight(self) -> int:
        if not self.half:
            raise ValueError("the zero character has no highest weight")
        return self.half[0][0]

    @property
    def has_negative(self) -> bool:
        return any(m < 0 for _, m in self.half)

    def dim(self) -> int:
        """Total multiplicity over the full (two-sided) support."""
        return sum(m if w == 0 else 2 * m for w, m in self.half)

    def __add__(self, other: "WeightChar") -> "WeightChar":
        out = self.half_dict()
        for w, m in other.half:
            out[w] = out.get(w, 0) + m
        return WeightChar.from_half(out)

    def __sub__(self, other: "WeightChar") -> "WeightChar":
        out = self.half_dict()
        for w, m in other.half:
            out[w] = out.get(w, 0) - m
        return WeightChar.from_half(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return WeightChar(tuple((w, m * other) for w, m in self.half if m * other))
        return char_mul(self, other)

    __rmul__ = __mul__


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


@lru_cache(maxsize=None)
def tilt_char(m: int) -> WeightChar:
    """Character of the ``m``-th indecomposable tilting module.

    Generation: the degree-0/1/2 characters are fixed directly; odd
    indices convolve the degree-1 character with the weight-doubled
    character at ``(m-1)/2``, even indices >= 4 convolve the degree-2
    character with the one at ``(m-2)/2``.
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


def steinberg_dim(m: int) -> int:
    """Dimension of the simple with highest weight ``m``: two to the
    number of ones in the binary expansion."""
    if m < 0:
        raise ValueError(f"weight must be nonnegative, got {m}")
    return 1 << bin(m).count("1")


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

    def character(self) -> WeightChar:
        acc = WeightChar(())
        for m, k in self.entries:
            acc = acc + tilt_char(m) * k
        return acc

    def dim(self) -> int:
        return sum(k * tilt_char(m).dim() for m, k in self.entries)


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


def tilt_tensor_v(m: int) -> TiltSum:
    """Decomposition of (indecomposable ``m``) tensor (degree-1 module)."""
    return decompose(char_mul(tilt_char(m), weyl_char(1)))


def tensor_power_decompose(r: int) -> TiltSum:
    """Decomposition of the ``r``-th tensor power of the degree-1 module."""
    if r < 0:
        raise ValueError(f"tensor power must be nonnegative, got {r}")
    acc = weyl_char(0)
    v = weyl_char(1)
    for _ in range(r):
        acc = char_mul(acc, v)
    return decompose(acc)


def in_T1_polynomial(m: int) -> IntPoly:
    """The degree-``m`` integer polynomial expressing the ``m``-th
    indecomposable class in terms of the degree-1 class in the split
    Grothendieck ring, by Donkin's digits: ``g_0 = 1``,
    ``g_(2k+1) = x g_k(x**2 - 2)`` and ``g_(2k+2) = x**2 g_k(x**2 - 2)``."""
    if m < 0:
        raise ValueError(f"index must be nonnegative, got {m}")
    if m == 0:
        return IntPoly((1,))
    twisted = _compose_square_minus_two(in_T1_polynomial((m - 1) // 2).coeffs)
    return IntPoly((0,) * (2 - m % 2) + twisted)


def quotient_reduce(ts: TiltSum, n: int) -> TiltSum:
    """Image in the quotient killing all indices >= 2**n - 1."""
    if n < 0:
        raise ValueError(f"quotient index must be nonnegative, got {n}")
    cutoff = (1 << n) - 1
    return TiltSum.from_dict({m: k for m, k in ts.entries if m < cutoff})


def functor_images(m: int, n: int) -> list[FusionElt]:
    """Images of the indecomposables ``0..m`` in the level-``n`` fusion
    ring: index 0 goes to the unit, and each further index follows by the
    tensor-by-degree-1 row step with ``x`` the top generator (zero at
    level 0)."""
    if m < 0:
        raise ValueError(f"index must be nonnegative, got {m}")
    zero = fusion_elt(n, {})
    x = simple_elt(n, 1 << (n - 1)) if n else zero
    imgs = [unit(n)]
    for t in range(m):
        # T_t V = T_(t+1) + sum_s k_s T_s, solved for its leading summand
        row = tilt_tensor_v(t).as_dict()
        if row.pop(t + 1, 0) != 1:
            raise NotTiltingCharacter(
                f"tensor-by-degree-1 row at index {t} is not unitriangular"
            )
        nxt = x * imgs[t]
        for s, k in row.items():
            nxt = nxt - imgs[s] * k
        imgs.append(nxt)
    return imgs


def functor_to_fusion(ts: TiltSum, n: int) -> FusionElt:
    """Class-level image in the level-``n`` fusion ring: the
    multiplicity-weighted sum of ``functor_images`` up to the largest index
    in ``ts``."""
    acc = fusion_elt(n, {})
    if ts.entries:
        imgs = functor_images(ts.entries[0][0], n)
        for m, k in ts.entries:
            acc = acc + imgs[m] * k
    return acc
