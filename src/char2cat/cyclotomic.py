"""Exact arithmetic in the real cyclotomic rings O_n = Z[2cos(pi/2^(n+1))].

The generator delta_n = 2cos(pi/2^(n+1)) is an algebraic integer of degree
2^n; its minimal polynomial p_n is produced by iterating x -> x^2 - 2
(p_0 = x, p_n = p_{n-1}(x^2 - 2)), each step a Taylor shift of the
bit-scaled coefficients whose big-integer work is additions only.

An element of O_n is stored canonically in the "cosine basis"
{1, c_1, ..., c_{2^n - 1}} with c_r = 2cos(r*pi/2^(n+1)), a Z-basis in which
coefficients stay small.  The product rule is c_r*c_s = c_{r+s} + c_{|r-s|},
indices folding through c_{-u} = c_u and c_{2^(n+1)-u} = -c_u (and
c_{2^n} = 0), so a product is one integer convolution of the symmetric
Laurent coefficient vectors followed by a fold.  The inclusion O_m -> O_n
sends c_r to c_{r*2^(n-m)}, the automorphism delta_n -> -delta_n negates
the odd-index coordinates, and numerical evaluation is a cosine sum.
``_cos_mul`` is the only product rule in the module.

Both kernels, the product and the basis change to powers, work on the
live span only: the entries up to the top nonzero index.  That index is
small for the values the package builds (d_S has top index
sum_{j in S} 2^(n-j) and 2^|S| unit coordinates, delta_n + 2 has top
index 1), so the work follows the value, not the level.

The distinguished basis d_S = prod_{j in S} delta_j (S a subset of {1..n},
d_0 = 1) is the image of the simple objects.  One rule, ``_d_cos_indices``,
gives the cosine support of every d_S; ``to_d_basis`` is the only solve
into that basis, and the d-basis generator matrices of the fusion oracle
are that solve applied to ring products.

The power basis 1, delta_n, ..., delta_n^(2^n - 1) appears only at the
edges: the ``CycInt(level, power_coeffs)`` constructor, the ``coeffs``
accessor used for output, and the minimal polynomials.  Both basis changes
are triangular and exact over Z.

There is no division: every value the package computes is an algebraic
integer, and a quotient it predicts (the closed form of a total dimension)
is checked by multiplying it out, which is exact because O_n has no zero
divisors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

import numpy as np

from .errors import (
    DimensionMismatch,
    LevelMismatch,
    LevelTooLarge,
    NotIntegral,
    SubsetOutOfRange,
)

#: Largest level for which full 2^n-sized ring tables may be built.
RING_LEVEL_CAP = 12


def check_level(
    n: int,
    cap: int = RING_LEVEL_CAP,
    what: str = "level",
    cap_name: str = "RING_LEVEL_CAP",
) -> int:
    if not isinstance(n, int) or n < 0:
        raise LevelTooLarge(f"{what} must be a nonnegative integer, got {n!r}")
    if n > cap:
        raise LevelTooLarge(f"{what} {n} exceeds the cap {cap_name}={cap}")
    return n


def check_subset(mask: int, n: int) -> int:
    """Validate a subset of {1..n} given as a bitmask (bit j-1 <-> j)."""
    if not isinstance(mask, int) or mask < 0 or mask >= (1 << n):
        raise SubsetOutOfRange(
            f"bitmask {mask!r} does not describe a subset of {{1..{n}}}"
        )
    return mask


def check_generator(j: int, n: int) -> int:
    """Validate a generator index ``1 <= j <= n`` at level ``n``."""
    if not isinstance(j, int) or not 1 <= j <= n:
        raise SubsetOutOfRange(f"generator {j} outside 1..{n}")
    return j


# ----------------------------------------------------------------------
# integer polynomials


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; coeffs[k] multiplies x^k, trailing zeros cut."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = self.coeffs
        if c and c[-1] == 0:
            while c and c[-1] == 0:
                c = c[:-1]
            object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, v in enumerate(b):
            out[k] += v
        return IntPoly(tuple(out))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-v for v in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(v * other for v in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, av in enumerate(a):
            if av:
                for j, bv in enumerate(b):
                    out[i + j] += av * bv
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"


X = IntPoly((0, 1))


def _compose_square_minus_two(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of P(x^2 - 2) given those of P, by a scaled Taylor shift.

    P(x^2 - 2) = Q(x^2) with Q(y) = P(y - 2) = T(y/2), where T(t) = S(t - 1)
    and S(t) = P(2t).  So coefficient j is shifted left by j bits, S is
    shifted by -1 with a Horner loop (each step one object-vector
    subtraction on two swapping buffers, as in ``_cos_to_power``), and
    coefficient k of T is shifted right by k bits, which is exact because
    T_k = 2^k Q_k.  Only additions and shifts touch the big integers
    (von zur Gathen and Gerhard, ISSAC 1997).
    """
    if not coeffs:
        return ()
    size = len(coeffs)
    top = size - 1
    a = np.zeros(size + 1, dtype=object)  # T so far, coefficient of t^i at i
    b = np.zeros(size + 1, dtype=object)
    a[0] = coeffs[top] << top
    for j in range(top - 1, -1, -1):
        width = top - j  # the accumulator has this many coefficients
        # a*(t - 1) + S_j: entry i becomes a[i-1] - a[i]
        np.subtract(a[:width], a[1:width + 1], out=b[1:width + 1])
        b[0] = (coeffs[j] << j) - a[0]
        a, b = b, a
    out = [0] * (2 * top + 1)
    out[::2] = [t >> k for k, t in enumerate(a[:size].tolist())]
    return tuple(out)


@lru_cache(maxsize=RING_LEVEL_CAP + 1)
def min_poly(n: int) -> IntPoly:
    """Minimal polynomial p_n of delta_n: p_0 = x, p_n = p_{n-1}(x^2 - 2).

    Monic of degree 2^n, irreducible, with roots 2cos((2r+1)pi/2^(n+1)).
    Each step is the scaled Taylor shift of ``_compose_square_minus_two``;
    ``check_level`` admits only levels 0..RING_LEVEL_CAP, so the cache
    holds the whole tower and never evicts.
    """
    check_level(n)
    if n == 0:
        return X
    return IntPoly(_compose_square_minus_two(min_poly(n - 1).coeffs))


def delta_float(n: int) -> float:
    return 2.0 * math.cos(math.pi / (1 << (n + 1)))


# ----------------------------------------------------------------------
# cosine-basis internals


def _top(vec) -> int:
    """Index of the last nonzero entry of ``vec``, or 0 when there is none."""
    return next(compress(range(len(vec) - 1, 0, -1), reversed(vec)), 0)


def _cos_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product in cosine coordinates (index 0 = coefficient of 1).

    Only the live spans take part: with ``ta`` and ``tb`` the top nonzero
    indices, the symmetric Laurent vectors (a_ta, ..., a_1, a_0, a_1, ...,
    a_ta) and likewise for b are convolved, which gives the coefficient of
    z^u (c_u for u > 0) for u up to ta + tb, and only the indices u > N
    fold back, through c_u = -c_{2N-u} (c_N = 0).  A zero factor gives zero
    at once.  The convolution runs in int64 when every partial sum provably
    fits (each output is a difference of two sums of at most
    2*min(ta, tb) + 1 products, each at most max|a|*max|b|) and in exact
    object arithmetic otherwise.
    """
    size = len(a)
    ta, tb = _top(a), _top(b)
    if not (ta or a[0]) or not (tb or b[0]):
        return (0,) * size
    a, b = a[:ta + 1], b[:tb + 1]
    bound = max(map(abs, a)) * max(map(abs, b)) * 2 * (2 * min(ta, tb) + 1)
    dtype = np.int64 if bound < 1 << 63 else object
    top = ta + tb
    pos = np.convolve(
        np.array(a[:0:-1] + a, dtype=dtype), np.array(b[:0:-1] + b, dtype=dtype)
    )[top:]  # coefficients of z^0 .. z^top
    if top < size:
        return tuple(pos.tolist()) + (0,) * (size - 1 - top)
    out = pos[:size].copy()
    out[2 * size - top:] -= pos[top:size:-1]
    return tuple(out.tolist())


def _power_to_cos(coeffs, n: int) -> list[int]:
    """Expand powers of delta_n over the cosine basis (exact binomials)."""
    size = 1 << n
    vec = [0] * size
    for k, a in enumerate(coeffs):
        if not a:
            continue
        if k == 0:
            vec[0] += a
            continue
        # delta^k = sum_{j<k/2} C(k,j) c_{k-2j}  (+ C(k,k/2) if k even)
        for j in range((k - 1) // 2 + 1):
            vec[k - 2 * j] += a * math.comb(k, j)
        if k % 2 == 0:
            vec[0] += a * math.comb(k, k // 2)
    return vec


def _cos_to_power(vec, n: int) -> list[int]:
    """Inverse of _power_to_cos, by Clenshaw's recurrence on the live span.

    With c_{k+1} = delta*c_k - c_{k-1}, c_1 = delta and c_0 = 2, the
    polynomials b_k = vec[k] + delta*b_{k+1} - b_{k+2} (k = top .. 1, top
    the last nonzero index, above which every b_k is zero) give
    sum_k vec[k] c_k = vec[0] + delta*b_1 - 2*b_2.  b_k has degree top - k,
    so each step is one shifted subtraction over that prefix of the two
    swapping buffers, and the power coefficients (hundreds of bits wide at
    the top levels) are only ever added, never multiplied.
    """
    top = _top(vec)
    b1 = np.zeros(top + 1, dtype=object)  # b_{k+1}, coefficient of delta^i at i
    b2 = np.zeros(top + 1, dtype=object)  # b_{k+2}
    for k in range(top, 0, -1):
        width = top - k  # b_k has this many coefficients above the constant
        # b_k overwrites b_{k+2}: entry i becomes b_{k+1}[i-1] - b_{k+2}[i]
        np.subtract(b1[:width], b2[1:width + 1], out=b2[1:width + 1])
        b2[0] = vec[k] - b2[0]
        b1, b2 = b2, b1
    out = -2 * b2
    out[1:] += b1[:-1]
    out[0] += vec[0]
    return out.tolist() + [0] * ((1 << n) - 1 - top)


def _d_cos_indices(mask: int, n: int) -> tuple[int, ...]:
    """Cosine support of d_S = prod_{j in S} c_{2^(n-j)}, ascending.

    The empty product d_0 = 1 sits at index 0.  Otherwise, multiplying in
    the generators from the largest index down by c_r*c_a = c_{r+a} +
    c_{r-a} gives one c-term for every sign pattern on the smaller
    exponents; all indices are positive, distinct, and at most 2^n - 1,
    and every coefficient is 1.  The last index is sum_{j in S} 2^(n-j),
    which determines S.  This is the one rule for d_S supports: the
    element, the expansion matrix and the d-basis solve all read it.
    """
    vals = [0]
    for b in range(n):
        if (mask >> b) & 1:
            a = 1 << (n - 1 - b)  # generator j = b+1 contributes c_{2^(n-j)}
            # 1 * c_a is the single term c_a; afterwards every r exceeds a
            vals = [r + a for r in vals] + [r - a for r in vals if r]
    return tuple(sorted(vals))


def _leading_cos_index_to_mask(r: int, n: int) -> int:
    """Invert mask -> sum_{j in S} 2^(n-j) (a bit reversal in n bits)."""
    mask = 0
    b = 0
    while r:
        if r & 1:
            mask |= 1 << (n - 1 - b)
        r >>= 1
        b += 1
    return mask


# ----------------------------------------------------------------------
# ring elements


@dataclass(frozen=True, init=False)
class CycInt:
    """Element of O_n, stored by its cosine coordinates.

    ``cos[0]`` is the coefficient of 1 and ``cos[r]`` that of
    c_r = 2cos(r*pi/2^(n+1)).  ``CycInt(level, coeffs)`` takes power-basis
    coefficients (of 1, delta_n, ..., delta_n^(2^n - 1)) and ``coeffs``
    returns them; the ring operations never leave cosine coordinates.
    """

    level: int
    cos: tuple[int, ...]

    def __init__(self, level: int, coeffs) -> None:
        check_level(level)
        if len(coeffs) != (1 << level):
            raise DimensionMismatch(
                f"level {level} needs {1 << level} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "cos", tuple(_power_to_cos(coeffs, level)))

    @classmethod
    def from_cos(cls, level: int, cos) -> "CycInt":
        """The element with cosine coordinates ``cos`` (as Python integers,
        so fixed-width inputs cannot wrap in later arithmetic)."""
        if len(cos) != (1 << level):
            raise DimensionMismatch(
                f"level {level} needs {1 << level} coefficients, got {len(cos)}"
            )
        self = object.__new__(cls)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "cos", tuple(map(int, cos)))
        return self

    # -- constructors

    @classmethod
    def zero(cls, level: int) -> "CycInt":
        return cls.from_int(0, level)

    @classmethod
    def one(cls, level: int) -> "CycInt":
        return cls.from_int(1, level)

    @classmethod
    def from_int(cls, c: int, level: int) -> "CycInt":
        check_level(level)
        return cls.from_cos(level, (c,) + (0,) * ((1 << level) - 1))

    @classmethod
    def delta(cls, level: int) -> "CycInt":
        """The generator delta_level = c_1; at level 0 this is 2cos(pi/2) = 0."""
        check_level(level)
        if level == 0:
            return cls.zero(0)
        return cls.from_cos(level, (0, 1) + (0,) * ((1 << level) - 2))

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Power-basis coefficients of 1, delta_n, ..., delta_n^(2^n - 1)."""
        return tuple(_cos_to_power(self.cos, self.level))

    # -- ring structure

    def _require_same_level(self, other: "CycInt") -> None:
        if self.level != other.level:
            raise LevelMismatch(
                f"cannot combine levels {self.level} and {other.level}; "
                "embed into the larger ring first"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(other, self.level)
        self._require_same_level(other)
        return CycInt.from_cos(
            self.level, tuple(x + y for x, y in zip(self.cos, other.cos))
        )

    __radd__ = __add__

    def __neg__(self):
        return CycInt.from_cos(self.level, tuple(-x for x in self.cos))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(other, self.level)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt.from_cos(self.level, tuple(x * other for x in self.cos))
        self._require_same_level(other)
        return CycInt.from_cos(self.level, _cos_mul(self.cos, other.cos))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not integral")
        if e == 0:
            return CycInt.one(self.level)
        # start from the lowest power of two in e, so x ** 2 is one product
        base = self
        while not e & 1:
            base = base * base
            e >>= 1
        out = base
        e >>= 1
        while e:
            base = base * base
            if e & 1:
                out = out * base
            e >>= 1
        return out

    # -- numerics

    def to_float(self) -> float:
        """Evaluate at delta_n as sum_r cos[r] * 2cos(r*pi/2^(n+1)).

        Cosine coordinates are of the same order as the value itself, so
        the float sum does not suffer the catastrophic cancellation a
        power-basis Horner evaluation would.
        """
        size = 1 << self.level
        weights = 2.0 * np.cos(np.arange(size) * (math.pi / (2 * size)))
        weights[0] = 1.0
        return float(np.array(self.cos, dtype=np.float64) @ weights)

    def __repr__(self):
        return f"CycInt(level={self.level}, cos={list(self.cos)})"


def conjugate_floats(e: CycInt) -> list[float]:
    """All 2^n embeddings of e, entry r at delta -> 2cos((2r+1)pi/2^(n+1)).

    Entry 0 is the identity embedding, i.e. to_float.  With N = 2^n, entry
    r is cos[0] + sum_{s>0} cos[s] * 2cos(2pi*s*(2r+1)/4N), the odd entries
    of one real FFT of length 4N (whose phases are reduced mod 4N exactly).
    """
    size = 1 << e.level
    vec = np.zeros(4 * size)
    vec[:size] = e.cos
    spectrum = np.fft.rfft(vec).real
    return (2.0 * spectrum[1:2 * size:2] - vec[0]).tolist()


def embed(e: CycInt, n: int) -> CycInt:
    """The image of e in the larger ring O_n.

    delta_m = 2cos(pi/2^(m+1)) is c_(2^(n-m)) at level n, and likewise
    c_r at level m is c_(r * 2^(n-m)) at level n, so the inclusion spreads
    the cosine coordinates out with that stride; it is an exact ring
    embedding.
    """
    check_level(n)
    if n < e.level:
        raise LevelMismatch(f"cannot embed level {e.level} down into level {n}")
    out = [0] * (1 << n)
    out[:: 1 << (n - e.level)] = e.cos
    return CycInt.from_cos(n, out)


def d_basis_element(mask: int, n: int) -> CycInt:
    """The distinguished basis element d_S = prod_{j in S} delta_j inside O_n.

    Its cosine expansion is a sum of distinct c_r with unit coefficients;
    the equality with the literal product of embed(delta_j, n) is
    exercised by the test-suite.
    """
    check_level(n)
    check_subset(mask, n)
    vec = [0] * (1 << n)
    for r in _d_cos_indices(mask, n):
        vec[r] = 1
    return CycInt.from_cos(n, vec)


def to_d_basis(e: CycInt) -> list[int]:
    """Coordinates of e in the basis {d_S}, indexed by subset bitmask.

    The expansion matrix is unitriangular once d_S is ordered by its
    leading cosine index, so elimination from the top index down gives
    integer coordinates for every ring element; a failed re-expansion
    check raises NotIntegral.
    """
    n = e.level
    size = 1 << n
    vec = list(e.cos)
    work = list(vec)
    out = [0] * size
    for r in range(size - 1, -1, -1):
        a = work[r]
        if not a:
            continue
        mask = _leading_cos_index_to_mask(r, n)
        out[mask] = a
        for idx in _d_cos_indices(mask, n):
            work[idx] -= a
    # re-expand as a guard against internal inconsistency
    redo = [0] * size
    for mask, a in enumerate(out):
        if a:
            for idx in _d_cos_indices(mask, n):
                redo[idx] += a
    if redo != vec:
        raise NotIntegral(f"d-basis solve failed to reproduce the input at level {n}")
    return out


# ----------------------------------------------------------------------
# sparse int64 arithmetic, and matrix annihilation


def _abs_max(a: np.ndarray) -> int:
    # two reductions instead of np.abs(a).max(), which copies the array
    return int(max(a.max(), -a.min()))


def _runs(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The index runs ``first[i] .. first[i] + count[i] - 1``, concatenated."""
    ends = np.cumsum(count)
    return np.repeat(first - (ends - count), count) + np.arange(ends[-1] if ends.size else 0)


def _merge(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort by key and add up equal keys' coefficients (``keys`` not empty)."""
    order = np.argsort(keys)
    keys, coeffs = keys[order], coeffs[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[first], np.add.reduceat(coeffs, first)


def eval_min_poly_at_matrix(n: int, mat: np.ndarray) -> np.ndarray:
    """p_n evaluated at an integer matrix through its nested form.

    Iterating M -> M@M - 2I realizes p_n = p_0((..(x^2-2)..)^2-2) with n
    squarings, which is exact and avoids the enormous dense coefficients.
    Each squaring works on the nonzero entries alone, in int64: entry
    (i, k, a) meets every entry (k, j, b) of row k, and the products a*b
    are merged by (i, j).  At the fusion generators the squarings stay
    sparse, since x_n^2 - 2 = x_(n-1).  ``NotIntegral`` is raised before a
    squaring unless every sum, of at most the most entries in one row,
    each at most max|entry|^2, and the 2 taken off the diagonal, stays in
    int64.
    """
    check_level(n)
    mat = np.asarray(mat, dtype=np.int64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    dim = mat.shape[0]
    if not dim:
        return mat
    rows, cols = np.nonzero(mat)  # sorted by row
    vals = mat[rows, cols]
    diag = np.arange(dim, dtype=np.int64) * (dim + 1)
    for _ in range(n):
        edges = np.searchsorted(rows, np.arange(dim + 1))
        count = np.diff(edges)
        bound = _abs_max(vals) ** 2 * int(count.max()) + 2 if vals.size else 2
        if bound >= 1 << 63:
            raise NotIntegral(f"matrix square bound {bound} is not below 2**63")
        num = count[cols]
        pos = _runs(edges[cols], num)
        keys = np.repeat(rows * dim, num) + cols[pos]
        prods = np.repeat(vals, num) * vals[pos]
        keys, sums = _merge(np.concatenate([keys, diag]),
                            np.concatenate([prods, np.full(dim, -2, dtype=np.int64)]))
        live = sums != 0
        rows, cols = np.divmod(keys[live], dim)
        vals = sums[live]
    out = np.zeros((dim, dim), dtype=np.int64)
    out[rows, cols] = vals
    return out


# ----------------------------------------------------------------------
# d-basis operators (used by the fusion oracle and the Cartan route of the
# projective dimensions)


def d_cos_matrix(n: int) -> np.ndarray:
    """Columns = cosine coordinates of d_S, S running over bitmasks."""
    size = 1 << n
    mat = np.zeros((size, size), dtype=np.int64)
    for mask in range(size):
        mat[list(_d_cos_indices(mask, n)), mask] = 1
    return mat


def d_basis_generator_matrix(j: int, n: int) -> np.ndarray:
    """Matrix of multiplication by d_j = delta_j on the d-basis of O_n.

    Column S is to_d_basis(delta_j * d_S), computed with the ring product
    and the d-basis solve and no reference to fusion combinatorics; serves
    as the independent oracle for the fusion-ring structure constants.
    """
    check_level(n)
    check_generator(j, n)
    gen = embed(CycInt.delta(j), n)
    cols = [to_d_basis(gen * d_basis_element(mask, n)) for mask in range(1 << n)]
    return np.array(cols, dtype=np.int64).T
