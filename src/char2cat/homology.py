"""Cartan matrices, first-extension data, and dimension totals.

Category indices ``m`` run along the whole chain; level ``m`` has
``2**(m//2)`` simples indexed by subset bitmasks, and matrices use plain
bitmask order (subsets without the top generator first).  The Cartan and
first-extension matrices are read-only ``int64`` arrays built by one
doubling step: block diagonal at even indices, four blocks of the two
previous matrices at odd ones.  Each call walks the chain level by level
on the pair of the two previous matrices and keeps nothing below it, and
each cache holds the last index asked for.  Single extension
dimensions also follow a five-case recursion on membership of the top
generator, an independent per-entry route to the same values.
Projective dimensions come as whole columns, one per index: a
multiplicative recursion walked once over the chain, and the weighted
Cartan rows ``D @ C.T``, compared in ``homology/dimension-routes``.
Total dimensions are algebraic integers, computed without division along
three routes: the value walks the Cartan doubling block by block
(``category_fpdim``); the sum of ``d_S`` times the Cartan route's
projective dimensions ties the Cartan matrix itself to it in
``homology/dimension-routes``; and the paper's closed form
``2^k / (2 - delta)`` is multiplied out by
``checks.total_dimension_matches_closed_form`` in that check and in the
``fpdim --category`` report.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cyclotomic import (
    RING_LEVEL_CAP,
    CycInt,
    check_level,
    check_subset,
    d_basis_element,
    d_cos_matrix,
    embed,
)

__all__ = [
    "CATEGORY_INDEX_CAP",
    "cartan",
    "ext1_dim",
    "ext1_matrix",
    "proj_fpdims",
    "category_fpdim",
    "algebra_fpdim",
    "block_components",
]

CATEGORY_INDEX_CAP = 2 * RING_LEVEL_CAP + 1


def _check_index(m: int) -> int:
    """Validate a chain index and return the ring level ``m // 2``."""
    return check_level(m, CATEGORY_INDEX_CAP, "chain index", "CATEGORY_INDEX_CAP") // 2


def _doubling(m: int, base: tuple[int, int], odd_blocks) -> np.ndarray:
    """Read-only ``int64`` matrix at chain index ``m`` by the doubling step.

    ``base`` holds the 1x1 matrices at indices 0 and 1.  The step walks
    level by level on the pair ``A = M(2j-1)``, ``B = M(2j-2)``: then
    ``M(2j) = diag(A, B)`` and ``odd_blocks(A, B)`` returns the 2x2 block
    layout of ``M(2j+1)``.  The two halves are the subsets without and with
    the top generator.  Only the last level builds the index asked for, so
    no matrix below the pair is held.
    """
    _check_index(m)

    def diag(a, b):
        zero = np.zeros_like(a)
        return np.block([[a, zero], [zero, b]])

    if m < 2:
        out = np.array([[base[m]]], dtype=np.int64)
    else:
        a, b = (np.array([[v]], dtype=np.int64) for v in (base[1], base[0]))
        for _ in range(1, m // 2):
            a, b = np.block(odd_blocks(a, b)), diag(a, b)
        out = np.block(odd_blocks(a, b)) if m % 2 else diag(a, b)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=1)
def cartan(m: int) -> np.ndarray:
    """Cartan matrix at chain index ``m``, a read-only ``int64`` array.

    Base cases ``[1]`` and ``[2]``; even indices are the block diagonal of
    the two previous matrices; odd indices ``2n+1`` are
    ``[[2A, A], [A, 2B]]`` with ``A``, ``B`` the matrices at ``2n-1`` and
    ``2n-2``.  The cache holds the last index asked for: every re-read
    is of the same index, back to back.
    """
    return _doubling(m, (1, 2), lambda a, b: [[2 * a, a], [a, 2 * b]])


@lru_cache(maxsize=1)
def ext1_matrix(m: int) -> np.ndarray:
    """First-extension dimensions over all simple pairs at chain index
    ``m``, a read-only ``int64`` array of zeros and ones.

    Same doubling step as ``cartan``: base cases ``[0]`` and ``[1]``; even
    indices are block diagonal; odd indices ``2n+1`` are ``[[A, I], [I, B]]``
    with ``A``, ``B`` the matrices at ``2n-1`` and ``2n-2``.  ``ext1_dim``
    computes the same entries one at a time by an independent route.
    """
    def odd_blocks(a, b):
        eye = np.identity(a.shape[0], dtype=np.int64)
        return [[a, eye], [eye, b]]

    return _doubling(m, (0, 1), odd_blocks)


def ext1_dim(m: int, smask: int, tmask: int) -> int:
    """Dimension (0 or 1) of the first extension space between the simples
    ``smask`` and ``tmask`` at chain index ``m``.

    Recursion on the top generator ``n = m // 2``: present in both sets it
    strips down two even steps; present in exactly one it gives a Kronecker
    delta at odd indices and zero at even ones; absent it descends one
    index.  Bases: 0 at index 0 and 1 at index 1.  This is the per-entry
    route, one chain of at most ``m + 1`` steps, walked as a loop after one
    argument check; ``ext1_matrix`` builds all entries at once by the block
    recursion.
    """
    level = _check_index(m)
    check_subset(smask, level)
    check_subset(tmask, level)
    while m > 1:
        n = m // 2
        bit = 1 << (n - 1)
        in_s = bool(smask & bit)
        in_t = bool(tmask & bit)
        if in_s and in_t:
            m, smask, tmask = 2 * n - 2, smask & ~bit, tmask & ~bit
        elif in_s != in_t:
            # the delta: the sets differ in the top generator alone
            return int(m % 2 == 1 and (smask ^ tmask) == bit)
        else:
            m -= 1
    return m


def proj_fpdims(m: int) -> list[CycInt]:
    """Dimensions of the projective covers of all simples at chain index
    ``m``, in mask order, by the multiplicative recursion, walked once on
    the columns at the two previous indices from ``P(0) = [1]``: at odd
    ``k`` each entry is multiplied by ``2 + delta_n``, ``n = k // 2``; at
    ``k = 2n`` a simple without ``n`` takes its entry at ``k - 1``, one with
    ``n`` takes ``delta_n`` times the entry of ``S - {n}`` at ``k - 2``, both
    embedded into level ``n``."""
    _check_index(m)
    before, col = [], [CycInt.one(0)]
    for k in range(1, m + 1):
        n = k // 2
        delta = CycInt.delta(n)
        if k % 2:
            nxt = [(delta + 2) * p for p in col]
        else:
            nxt = [embed(p, n) for p in col] + [delta * embed(p, n) for p in before]
        before, col = col, nxt
    return col


def _proj_fpdims_cartan(m: int) -> list[CycInt]:
    """The same column as Cartan-row weighted sums of simple dimensions:
    the columns of ``P = D @ C.T`` are the cosine coordinates of the
    projective dimensions, where the columns of ``D`` are those of the
    simple dimensions ``d_S``."""
    level = _check_index(m)
    proj = d_cos_matrix(level) @ cartan(m).T
    return [CycInt.from_cos(level, p_col) for p_col in proj.T.tolist()]


def _category_fpdim_from_projectives(proj: list[CycInt]) -> CycInt:
    """Sum of simple dimension times projective-cover dimension over a
    column of projective dimensions.  Fed the Cartan route's column, this
    ties the Cartan matrix itself to the total dimension."""
    level = proj[0].level
    acc = CycInt.zero(level)
    for smask, p in enumerate(proj):
        acc = acc + d_basis_element(smask, level) * p
    return acc


def category_fpdim(m: int) -> CycInt:
    """Total dimension ``q(m) = d^T C(m) d`` of the chain member at index
    ``m``, an element of the level-``m // 2`` ring.

    The sum is taken block by block along the doubling rule of ``cartan``,
    with ``d`` split into the simples without and with the top generator
    ``delta_n``, ``n = m // 2``, and ``q`` embedded into level ``n``:
    ``diag(A, B)`` gives ``q(m) = q(m-1) + delta_n^2 q(m-2)`` at even ``m``,
    and ``[[2A, A], [A, 2B]]`` gives
    ``q(m) = 2(1 + delta_n) q(m-2) + 2 delta_n^2 q(m-3)`` at odd ``m``, from
    ``q(0) = 1`` and ``q(1) = 2``.  One walk per call reads neither the
    Cartan matrix nor the closed form.
    """
    _check_index(m)
    q = [CycInt.one(0), CycInt.from_int(2, 0)]
    for k in range(2, m + 1):
        n = k // 2
        delta = CycInt.delta(n)
        sq = delta * delta
        if k % 2 == 0:
            q.append(embed(q[k - 1], n) + sq * embed(q[k - 2], n))
        else:
            q.append(2 * (1 + delta) * embed(q[k - 2], n) + 2 * sq * embed(q[k - 3], n))
    return q[m]


def algebra_fpdim(n: int) -> CycInt:
    """Dimension of the level-raising algebra object: 2 plus the level-``n``
    ring generator (equivalently the embedded square of the next
    generator)."""
    check_level(n, RING_LEVEL_CAP - 1, "algebra level",
                cap_name="RING_LEVEL_CAP-1")
    return CycInt.delta(n) + 2


def block_components(m: int) -> tuple[tuple[int, ...], ...]:
    """Partition of the simples at chain index ``m`` into the connected
    components of the Ext quiver, the graph with an edge wherever the
    first-extension dimension is positive: the blocks.  A positive Cartan
    entry links two simples of one block, so it adds no edge across them,
    and the Cartan matrix is not read.

    The component count is reported as computed from this graph; it is not
    normalized to any closed-form prediction.
    """
    adj = ext1_matrix(m) > 0
    seen = np.zeros(adj.shape[0], dtype=bool)
    comps: list[tuple[int, ...]] = []
    for start in range(adj.shape[0]):
        if seen[start]:
            continue
        seen[start] = True
        comp, frontier = [start], [start]
        while frontier:
            frontier = np.flatnonzero(adj[frontier].any(axis=0) & ~seen).tolist()
            seen[frontier] = True
            comp += frontier
        comps.append(tuple(sorted(comp)))
    return tuple(comps)
