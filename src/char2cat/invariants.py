"""Invariant-space dimensions by three independent routes.

``d(m, n)`` counts the invariants in the ``2m``-th tensor power of the
top simple at level ``n``.  Each route returns the column ``d(0..top, n)``
in one pass (``ROUTES``): a binomial recursion in the level, built
bottom-up; closed walks on a path graph with ``2**(n+1) - 1`` nodes, from
one walk; and the coefficients of a generating function solved from its
functional equation in integers, by a Horner composition in which
multiplying by ``z^k/(1-2z)^j`` is a shift by ``k`` and ``j`` one-pass
divisions by ``1-2z``.  A truncated Clebsch-Gordan fusion on a finite
label set, the semisimplified companion ring, provides quantum
dimensions; only the ``invariants/verlinde-qdims`` check reads them.
"""

from __future__ import annotations

import math

from .cyclotomic import check_level

__all__ = [
    "INVARIANTS_LEVEL_CAP",
    "SERIES_ORDER_CAP",
    "ROUTES",
    "closed_walks",
    "recursion_column",
    "paths_column",
    "series_f",
    "verlinde_product",
    "verlinde_qdim",
]

#: Largest order of the series, and largest ``invariants --max-m`` on
#: every route.
SERIES_ORDER_CAP = 256
#: Largest level of every route, and of ``invariants --level``.  The paths
#: route walks ``2**(n+1) - 1`` nodes: at order 256 with all three routes,
#: level 8 takes about 0.1-0.15 s cold inside ``cli.run`` (0.5-0.6 s with
#: the interpreter's start-up), and each further level up to 1.5 times as
#: long as the walk's share grows.
INVARIANTS_LEVEL_CAP = 8


def closed_walks(nodes: int, length: int) -> list[int]:
    """Closed walks from the left end of the path graph on ``nodes``
    vertices, for every length ``0 .. length``, from one walk-vector
    recurrence: after each step the count at a vertex is the sum of the
    counts at its neighbours, and the count at the left end is recorded."""
    if nodes < 1:
        raise ValueError(f"need at least one node, got {nodes}")
    if length < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    walks = [1] + [0] * (nodes - 1)  # walks ending at each vertex
    out = [1]
    for _ in range(length):
        walks = [x + y for x, y in zip([0] + walks[:-1], walks[1:] + [0])]
        out.append(walks[0])
    return out


def recursion_column(n: int, top: int) -> list[int]:
    """``d(0..top, n)`` by the binomial recursion in the level:
    ``d(m, k) = sum_s C(m-1, 2s) 2^(m-1-2s) d(s, k-1)`` from ``d(0, k) = 1``
    and ``d(m, 0) = 0``.  Built bottom-up: level ``k`` needs only
    ``m <= top >> (n - k)``, since ``s <= (m-1)/2``."""
    check_level(n, INVARIANTS_LEVEL_CAP, "invariants level", "INVARIANTS_LEVEL_CAP")
    check_level(top, SERIES_ORDER_CAP, "order", "SERIES_ORDER_CAP")
    col = [1] + [0] * (top >> n)
    for k in range(1, n + 1):
        prev = col
        col = [1] + [
            sum(math.comb(m - 1, 2 * s) * prev[s] << (m - 1 - 2 * s)
                for s in range((m - 1) // 2 + 1))
            for m in range(1, (top >> (n - k)) + 1)
        ]
    return col


def paths_column(n: int, top: int) -> list[int]:
    """``d(0..top, n)`` as closed walks of even length ``0 .. 2 * top`` on
    the path graph with ``2**(n+1) - 1`` nodes (odd lengths vanish)."""
    check_level(n, INVARIANTS_LEVEL_CAP, "invariants level", "INVARIANTS_LEVEL_CAP")
    check_level(top, SERIES_ORDER_CAP, "order", "SERIES_ORDER_CAP")
    return closed_walks((1 << (n + 1)) - 1, 2 * top)[::2]


def series_f(n: int, order: int) -> list[int]:
    """Coefficients ``0 .. order`` of the generating function of
    ``d(., n)``, via the functional equation
    ``f_n = 1 + z/(1-2z) * f_{n-1}(z^2/(1-2z)^2)``.
    Multiplying by ``z^k/(1-2z)^j`` is a shift by ``k``, then ``j`` passes
    ``c[i] += 2 c[i-1]``, each dividing by ``1-2z``; the composition is a
    Horner loop of such steps, exact in integers."""
    check_level(n, INVARIANTS_LEVEL_CAP, "invariants level", "INVARIANTS_LEVEL_CAP")
    check_level(order, SERIES_ORDER_CAP, "order", "SERIES_ORDER_CAP")
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
    return coeffs


#: The routes by their ``invariants --route`` names; each maps
#: ``(n, top)`` to ``d(0..top, n)``.
ROUTES = {"recursion": recursion_column, "paths": paths_column, "series": series_f}


def verlinde_product(a: int, b: int, n: int) -> tuple[int, ...]:
    """Truncated Clebsch-Gordan fusion on labels ``0 .. 2**(n+1) - 2``:
    the labels from ``|a-b|`` to ``min(a+b, 2*top - a - b)`` in steps of
    two, as a sorted multiset."""
    top = (1 << (n + 1)) - 2
    check_level(a, top, "label", "2^(n+1)-2")
    check_level(b, top, "label", "2^(n+1)-2")
    lo = abs(a - b)
    hi = min(a + b, 2 * top - a - b)
    return tuple(range(lo, hi + 1, 2))


def verlinde_qdim(a: int, n: int) -> float:
    """Quantum dimension of a label: ``sin((a+1) pi / 2^(n+1)) / sin(pi /
    2^(n+1))``."""
    check_level(a, (1 << (n + 1)) - 2, "label", "2^(n+1)-2")
    theta = math.pi / (1 << (n + 1))
    return math.sin((a + 1) * theta) / math.sin(theta)
