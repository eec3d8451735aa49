"""Second-kind Chebyshev-style polynomial family q_m and the generic
polynomial evaluator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from char2cat.chebyshev import cheb_q, eval_poly
from char2cat.cyclotomic import CycInt, IntPoly


def test_first_polynomials_match_hand_recurrence():
    assert cheb_q(0).coeffs == (1,)
    assert cheb_q(1).coeffs == (0, 1)
    assert cheb_q(2).coeffs == (-1, 0, 1)
    assert cheb_q(3).coeffs == (0, -2, 0, 1)
    assert cheb_q(7).coeffs == golden.CHEB_Q7


def test_three_term_recurrence():
    # cheb_q is built from the closed form, so the recurrence checks it; 511
    # is the largest index chebyshev/annihilation reads
    x = IntPoly((0, 1))
    prev, cur = cheb_q(0), cheb_q(1)
    for m in range(1, 511):
        nxt = cheb_q(m + 1)
        assert nxt == x * cur - prev, m
        prev, cur = cur, nxt


def test_degree_and_leading_coefficient():
    for m in range(60):
        q = cheb_q(m)
        assert q.degree == m
        assert q.coeffs[-1] == 1


def test_sine_quotient_identity():
    # q_m(2cos t) = sin((m+1)t)/sin(t); evaluate the polynomial by the
    # recurrence in float (coefficient Horner cancels catastrophically)
    for t in (0.3, 0.7, 1.1, 2.0):
        x = 2.0 * math.cos(t)
        prev, cur = 1.0, x
        for m in range(1, 50):
            want = math.sin((m + 1) * t) / math.sin(t)
            assert cur == pytest.approx(want, rel=1e-9, abs=1e-9)
            prev, cur = cur, x * cur - prev


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=20),
    b=st.integers(min_value=0, max_value=20),
)
def test_product_to_sum_identity(a, b):
    # q_a q_b = sum_{k=0}^{min(a,b)} q_{a+b-2k}
    lhs = cheb_q(a) * cheb_q(b)
    rhs = IntPoly(())
    for k in range(min(a, b) + 1):
        rhs = rhs + cheb_q(a + b - 2 * k)
    assert lhs == rhs


def test_eval_poly_on_integers():
    # plain Horner oracle
    for m in range(12):
        q = cheb_q(m)
        for x in (-3, -1, 0, 1, 2, 5):
            want = sum(c * x**k for k, c in enumerate(q.coeffs))
            assert eval_poly(q, x) == want


def test_eval_poly_zero_polynomial_is_ring_zero():
    z = eval_poly(IntPoly(()), CycInt.delta(2))
    assert isinstance(z, CycInt) and z == CycInt.zero(2)


def test_eval_poly_on_ring_elements():
    # q_2(delta_1) = delta_1^2 - 1 = 1 + image of delta_0
    d = CycInt.delta(1)
    assert eval_poly(cheb_q(2), d) == d * d - 1
    # q_3(delta_2) exactly
    d2 = CycInt.delta(2)
    assert eval_poly(cheb_q(3), d2) == d2**3 - 2 * d2


def test_annihilation_on_fusion_generators():
    # q_{2^(n+1)-1} kills the level-n generator; q_{2^n-1} sends it to
    # the top basis class
    from char2cat.fusion import fusion_elt, simple_elt

    for n in range(6):
        xn = simple_elt(n, 1 << (n - 1)) if n else fusion_elt(0, {})
        assert eval_poly(cheb_q((1 << (n + 1)) - 1), xn).is_zero
        top = eval_poly(cheb_q((1 << n) - 1), xn)
        assert top.as_dict() == {(1 << n) - 1: 1}
