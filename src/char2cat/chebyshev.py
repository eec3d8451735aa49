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
cyclotomic integer, a fusion-ring element, or a plain integer.
"""

from __future__ import annotations

import math

from .cyclotomic import IntPoly

__all__ = ["cheb_q", "eval_poly"]


def cheb_q(m: int) -> IntPoly:
    """The degree-``m`` polynomial with ``q_m(2 cos t) = sin((m+1)t)/sin t``:
    coefficient ``(-1)**k C(m-k, k)`` at ``x**(m-2k)``."""
    if m < 0:
        raise ValueError(f"cheb_q index must be nonnegative, got {m}")
    coeffs = [0] * (m + 1)
    for k in range(m // 2 + 1):
        coeffs[m - 2 * k] = (-1) ** k * math.comb(m - k, k)
    return IntPoly(tuple(coeffs))


def eval_poly(p: IntPoly, target):
    """Horner evaluation of ``p`` at ``target``, exactly, in the target ring:
    any ring element supporting integer scaling and addition (cyclotomic
    integers, fusion-ring elements, plain integers)."""
    acc = target * 0  # the zero of the target's ring, keeping the result typed
    for c in reversed(p.coeffs):
        acc = acc * target + int(c)
    return acc
