"""Dilated Chebyshev polynomials and exact polynomial evaluation.

The polynomials ``q_m`` are the monic integer solutions of
``q_m(2 cos t) = sin((m+1) t) / sin t``.  ``cheb_q`` builds each one per
call from its closed form, the coefficient ``(-1)**k C(m-k, k)`` at
``x**(m-2k)``; the three-term recurrence ``q_0 = 1``, ``q_1 = x``,
``q_{m+1} = x q_m - q_{m-1}`` is what the test-suite checks it against.  The
member of the family with degree ``2**n - 1`` annihilates the top fusion
generator at level ``n - 1`` and sends it to the largest simple at level
``n``; those identities are exercised by the test-suite.

``eval_poly`` evaluates any integer polynomial inside a target ring: a
cyclotomic integer, a fusion-ring element, a square integer matrix, or a
plain integer.  Matrix evaluation runs over Python integers (object
dtype), so it is exact for every input size this package produces.
"""

from __future__ import annotations

import math

import numpy as np

from .cyclotomic import IntPoly
from .errors import DimensionMismatch

__all__ = ["cheb_q", "split_signs", "eval_poly"]


def cheb_q(m: int) -> IntPoly:
    """The degree-``m`` polynomial with ``q_m(2 cos t) = sin((m+1)t)/sin t``:
    coefficient ``(-1)**k C(m-k, k)`` at ``x**(m-2k)``."""
    if m < 0:
        raise ValueError(f"cheb_q index must be nonnegative, got {m}")
    coeffs = [0] * (m + 1)
    for k in range(m // 2 + 1):
        coeffs[m - 2 * k] = (-1) ** k * math.comb(m - k, k)
    return IntPoly(tuple(coeffs))


def split_signs(p: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Split ``p`` as ``plus - minus`` with nonnegative, disjoint supports."""
    plus = tuple(c if c > 0 else 0 for c in p.coeffs)
    minus = tuple(-c if c < 0 else 0 for c in p.coeffs)
    return IntPoly(plus), IntPoly(minus)


def _eval_at_matrix(p: IntPoly, mat: np.ndarray) -> np.ndarray:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(
            f"polynomial evaluation needs a square matrix, got shape {mat.shape}"
        )
    size = mat.shape[0]
    work = mat.astype(object)
    ident = np.identity(size, dtype=object)
    acc = np.zeros((size, size), dtype=object)
    for c in reversed(p.coeffs):
        acc = acc @ work + int(c) * ident
    return acc


def eval_poly(p: IntPoly, target):
    """Horner evaluation of ``p`` at ``target``, exactly, in the target ring.

    ``target`` may be a square ``numpy`` integer matrix (evaluated against
    the identity matrix, result in object dtype), or any ring element
    supporting integer scaling and addition (cyclotomic integers,
    fusion-ring elements, plain integers).
    """
    if isinstance(target, np.ndarray):
        return _eval_at_matrix(p, target)
    acc = target * 0  # the zero of the target's ring, keeping the result typed
    for c in reversed(p.coeffs):
        acc = acc * target + int(c)
    return acc
