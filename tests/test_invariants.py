"""Invariant-dimension counting by three independent routes, plus the
semisimplified companion ring."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from char2cat.errors import LabelOutOfRange, OrderTooLarge
from char2cat.invariants import (
    SERIES_ORDER_CAP,
    d_recursive,
    hom_invariants_dim,
    path_count,
    series_f,
    verlinde_product,
    verlinde_qdim,
)

# ----------------------------------------------------------------------
# walk counting


def _walks_brute(nodes: int, length: int) -> int:
    """Independent oracle: depth-first enumeration of closed walks from
    vertex 0 on the path graph."""

    def go(pos, remaining):
        if remaining == 0:
            return 1 if pos == 0 else 0
        total = 0
        if pos > 0:
            total += go(pos - 1, remaining - 1)
        if pos < nodes - 1:
            total += go(pos + 1, remaining - 1)
        return total

    return go(0, length)


def test_path_count_matches_brute_force_enumeration():
    for nodes in range(1, 6):
        for length in range(9):
            assert path_count(nodes, length) == _walks_brute(nodes, length)


def test_path_count_odd_lengths_vanish():
    for nodes in range(1, 6):
        for length in range(1, 12, 2):
            assert path_count(nodes, length) == 0


def test_two_step_walks_on_three_nodes():
    # the two length-4 closed walks: 0-1-0-1-0 and 0-1-2-1-0
    assert path_count(3, 4) == 2
    assert _walks_brute(3, 4) == 2


# ----------------------------------------------------------------------
# recursion route


def test_d_recursive_base_cases():
    for n in range(6):
        assert d_recursive(0, n) == 1
    for m in range(1, 10):
        assert d_recursive(m, 0) == 0


def test_d_recursive_level1_closed_form():
    for m in range(15):
        assert d_recursive(m, 1) == golden.d_level1(m)


def test_d_recursive_monotone_in_level():
    for m in range(8):
        for n in range(1, 5):
            assert d_recursive(m, n + 1) >= d_recursive(m, n)


def test_triple_route_agreement_small():
    for n in range(4):
        sf = series_f(n, 10)
        for m in range(11):
            rec = d_recursive(m, n)
            pth = path_count((1 << (n + 1)) - 1, 2 * m)
            ser = sf.coefficient(m)
            assert rec == pth == ser, (m, n)


# ----------------------------------------------------------------------
# series route


def test_series_level0_is_constant_one():
    sf = series_f(0, 20)
    assert sf.coefficient(0) == 1
    assert all(sf.coefficient(m) == 0 for m in range(1, 21))


def test_series_level1_geometric():
    sf = series_f(1, 16)
    assert sf.coefficient(0) == 1
    for m in range(1, 17):
        assert sf.coefficient(m) == Fraction(1 << (m - 1))


def test_series_coefficients_are_integers():
    for n in range(4):
        sf = series_f(n, 24)
        assert all(sf.coefficient(m).denominator == 1 for m in range(25))


def test_series_truncation_keeps_low_coefficients():
    # at orders 0 and 1 the shift by z^2 falls off the end of the list
    for n in range(6):
        full = series_f(n, 40).coeffs
        for order in range(5):
            assert series_f(n, order).coeffs == full[: order + 1], (n, order)


def test_series_order_cap_named():
    with pytest.raises(OrderTooLarge, match="SERIES_ORDER_CAP"):
        series_f(2, SERIES_ORDER_CAP + 1)
    with pytest.raises(IndexError):
        series_f(2, 5).coefficient(6)


# ----------------------------------------------------------------------
# invariant spaces of tensor powers


def test_hom_invariants_odd_powers_vanish():
    for n in range(5):
        for r in range(1, 16, 2):
            assert hom_invariants_dim(r, n) == 0


def test_hom_invariants_even_powers():
    for n in range(5):
        for m in range(8):
            assert hom_invariants_dim(2 * m, n) == d_recursive(m, n)


# ----------------------------------------------------------------------
# semisimplified companion


def test_verlinde_golden_level1():
    for (a, b), want in golden.VERLINDE_LEVEL1.items():
        assert verlinde_product(a, b, 1) == want
        assert verlinde_product(b, a, 1) == want


def test_verlinde_unit_and_top_label():
    for n in range(1, 5):
        top = (1 << (n + 1)) - 2
        for a in range(top + 1):
            assert verlinde_product(0, a, n) == (a,)
            # tensoring with the top label is an involution on labels
            assert verlinde_product(top, a, n) == (top - a,)


def test_verlinde_associative_as_multisets():
    from collections import Counter

    n = 2
    top = (1 << (n + 1)) - 2
    for a in range(top + 1):
        for b in range(top + 1):
            for c in range(top + 1):
                left = Counter()
                for x in verlinde_product(a, b, n):
                    left.update(verlinde_product(x, c, n))
                right = Counter()
                for y in verlinde_product(b, c, n):
                    right.update(verlinde_product(a, y, n))
                assert left == right, (a, b, c)


def test_verlinde_label_range_checked():
    with pytest.raises(LabelOutOfRange):
        verlinde_product(7, 0, 1)  # labels stop at 2^(n+1) - 2 = 2
    with pytest.raises(LabelOutOfRange):
        verlinde_qdim(-1, 2)


def test_verlinde_qdim_values():
    # unit has dimension one; generator label 1 has the golden-chain value
    for n in range(1, 6):
        assert verlinde_qdim(0, n) == pytest.approx(1.0, rel=1e-12)
        assert verlinde_qdim(1, n) == pytest.approx(
            2.0 * math.cos(math.pi / (1 << (n + 1))), rel=1e-12
        )


def test_verlinde_qdim_multiplicative():
    for n in range(1, 5):
        top = (1 << (n + 1)) - 2
        for a in range(top + 1):
            for b in range(top + 1):
                lhs = verlinde_qdim(a, n) * verlinde_qdim(b, n)
                rhs = sum(
                    verlinde_qdim(c, n) for c in verlinde_product(a, b, n)
                )
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_verlinde_global_dimension():
    # sum of squared dimensions = 2^n / sin^2(pi / 2^(n+1))
    for n in range(1, 6):
        total = sum(
            verlinde_qdim(a, n) ** 2 for a in range((1 << (n + 1)) - 1)
        )
        want = (1 << n) / math.sin(math.pi / (1 << (n + 1))) ** 2
        assert total == pytest.approx(want, rel=1e-9)
