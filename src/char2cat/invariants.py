"""Invariant-space dimensions by three independent routes.

``d(m, n)`` counts the invariants in the ``2m``-th tensor power of the
top simple at level ``n``.  The three routes are: a binomial recursion in
the level, closed walks on a path graph with ``2**(n+1) - 1`` nodes, and
the coefficients of a generating function solved from its functional
equation in integers, by a Horner composition in which multiplying by
``z^k/(1-2z)^j`` is a shift by ``k`` and ``j`` one-pass divisions by
``1-2z``.  A truncated Clebsch-Gordan fusion on a finite label set
provides the quantum-dimension bookkeeping used in the dimension totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import LabelOutOfRange, OrderTooLarge

__all__ = [
    "INVARIANTS_LEVEL_CAP",
    "SERIES_ORDER_CAP",
    "PowerSeries",
    "path_count",
    "d_recursive",
    "series_f",
    "hom_invariants_dim",
    "verlinde_product",
    "verlinde_qdim",
]

#: Largest order of the series, and largest ``invariants --max-m`` on
#: every route.
SERIES_ORDER_CAP = 256
#: Largest ``invariants --level``.  The paths route walks ``2**(n+1) - 1``
#: nodes: at order 256 with all three routes, level 8 takes about 2.6 s
#: cold and each further level about 1.7 times as long.
INVARIANTS_LEVEL_CAP = 8


@dataclass(frozen=True)
class PowerSeries:
    """Exact integer coefficients ``c_0 .. c_order`` with explicit
    truncation order."""

    coeffs: tuple[int, ...]
    order: int

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must equal order + 1")

    def coefficient(self, m: int) -> int:
        if not 0 <= m <= self.order:
            raise IndexError(f"coefficient {m} beyond truncation order {self.order}")
        return self.coeffs[m]


def path_count(nodes: int, length: int) -> int:
    """Closed walks of ``length`` steps from the left end of the path
    graph on ``nodes`` vertices, with arbitrary-precision integers.

    Walk-vector recurrence: after each step the count at a vertex is the
    sum of the counts at its neighbours."""
    if nodes < 1:
        raise ValueError(f"need at least one node, got {nodes}")
    if length < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    walks = [1] + [0] * (nodes - 1)  # walks ending at each vertex
    for _ in range(length):
        walks = [x + y for x, y in zip([0] + walks[:-1], walks[1:] + [0])]
    return walks[0]


@lru_cache(maxsize=None)
def d_recursive(m: int, n: int) -> int:
    """Binomial recursion in the level:
    ``d(m, n) = sum_s C(m-1, 2s) 2^(m-1-2s) d(s, n-1)``."""
    if m < 0 or n < 0:
        raise ValueError("arguments must be nonnegative")
    if m == 0:
        return 1
    if n == 0:
        return 0
    total = 0
    for s in range(0, (m - 1) // 2 + 1):
        total += math.comb(m - 1, 2 * s) * (1 << (m - 1 - 2 * s)) * d_recursive(s, n - 1)
    return total


def series_f(n: int, order: int) -> PowerSeries:
    """Generating function of ``d(., n)`` to the given order, via the
    functional equation ``f_n = 1 + z/(1-2z) * f_{n-1}(z^2/(1-2z)^2)``.
    Multiplying by ``z^k/(1-2z)^j`` is a shift by ``k``, then ``j`` passes
    ``c[i] += 2 c[i-1]``, each dividing by ``1-2z``; the composition is a
    Horner loop of such steps, exact in integers."""
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if order > SERIES_ORDER_CAP:
        raise OrderTooLarge(
            f"order {order} exceeds the cap SERIES_ORDER_CAP={SERIES_ORDER_CAP}"
        )
    coeffs = [1] + [0] * order
    for _ in range(n):
        # compose the previous series with w = z^2/(1-2z)^2 by Horner:
        # comp <- c + w * comp.  w has valuation 2, so coefficients beyond
        # order // 2 cannot contribute to the truncation
        comp = [0] * (order + 1)
        for c in reversed(coeffs[: order // 2 + 1]):
            comp = ([0, 0] + comp)[: order + 1]
            for _ in range(2):
                for i in range(1, order + 1):
                    comp[i] += 2 * comp[i - 1]
            comp[0] += c
        # 1 + z/(1-2z) * comp
        coeffs = ([0] + comp)[: order + 1]
        for i in range(1, order + 1):
            coeffs[i] += 2 * coeffs[i - 1]
        coeffs[0] += 1
    return PowerSeries(tuple(coeffs), order)


def hom_invariants_dim(r: int, n: int) -> int:
    """Invariants in the ``r``-th tensor power of the top simple: zero in
    odd powers, ``d(r/2, n)`` in even ones."""
    if r < 0 or n < 0:
        raise ValueError("arguments must be nonnegative")
    if r % 2:
        return 0
    return d_recursive(r // 2, n)


def _check_label(a: int, n: int) -> int:
    top = (1 << (n + 1)) - 2
    if not 0 <= a <= top:
        raise LabelOutOfRange(f"label {a} outside 0..{top} at level {n}")
    return top


def verlinde_product(a: int, b: int, n: int) -> tuple[int, ...]:
    """Truncated Clebsch-Gordan fusion on labels ``0 .. 2**(n+1) - 2``:
    the labels from ``|a-b|`` to ``min(a+b, 2*top - a - b)`` in steps of
    two, as a sorted multiset."""
    top = _check_label(a, n)
    _check_label(b, n)
    lo = abs(a - b)
    hi = min(a + b, 2 * top - a - b)
    return tuple(range(lo, hi + 1, 2))


def verlinde_qdim(a: int, n: int) -> float:
    """Quantum dimension of a label: ``sin((a+1) pi / 2^(n+1)) / sin(pi /
    2^(n+1))``."""
    _check_label(a, n)
    theta = math.pi / (1 << (n + 1))
    return math.sin((a + 1) * theta) / math.sin(theta)
