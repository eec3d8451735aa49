"""Invariant-dimension counting by three independent routes, plus the
semisimplified companion ring."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from char2cat.errors import LevelTooLarge
from char2cat.invariants import (
    ROUTES,
    SERIES_ORDER_CAP,
    closed_walks,
    recursion_column,
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
        walks = closed_walks(nodes, 8)
        assert walks == [_walks_brute(nodes, length) for length in range(9)]


def test_path_count_odd_lengths_vanish():
    for nodes in range(1, 6):
        assert closed_walks(nodes, 11)[1::2] == [0] * 6


def test_two_step_walks_on_three_nodes():
    # the two length-4 closed walks: 0-1-0-1-0 and 0-1-2-1-0
    assert closed_walks(3, 4)[4] == 2
    assert _walks_brute(3, 4) == 2


# ----------------------------------------------------------------------
# recursion route


def test_d_recursive_base_cases():
    for n in range(6):
        assert recursion_column(n, 0) == [1]
    assert recursion_column(0, 9) == [1] + [0] * 9


def test_d_recursive_level1_closed_form():
    assert recursion_column(1, 14) == [golden.d_level1(m) for m in range(15)]


def test_d_recursive_monotone_in_level():
    for n in range(1, 5):
        lower, upper = recursion_column(n, 7), recursion_column(n + 1, 7)
        assert all(b >= a for a, b in zip(lower, upper)), n


def test_triple_route_agreement_small():
    assert list(ROUTES) == ["recursion", "paths", "series"]
    for n in range(4):
        rec, pth, ser = (route(n, 10) for route in ROUTES.values())
        assert rec == pth == ser, n
        assert len(rec) == 11, n


def test_every_route_validates_its_arguments():
    for route in ROUTES.values():
        with pytest.raises(LevelTooLarge, match="invariants level must be a nonnegative"):
            route(-1, 3)
        with pytest.raises(LevelTooLarge, match="order must be a nonnegative"):
            route(2, -1)
        with pytest.raises(LevelTooLarge, match="SERIES_ORDER_CAP"):
            route(2, SERIES_ORDER_CAP + 1)


# ----------------------------------------------------------------------
# series route


def test_series_level0_is_constant_one():
    assert series_f(0, 20) == [1] + [0] * 20


def test_series_level1_geometric():
    sf = series_f(1, 16)
    assert sf[0] == 1
    for m in range(1, 17):
        assert sf[m] == Fraction(1 << (m - 1))


def test_series_coefficients_are_integers():
    for n in range(4):
        sf = series_f(n, 24)
        assert len(sf) == 25
        assert all(type(c) is int for c in sf)


def test_series_truncation_keeps_low_coefficients():
    # at orders 0 and 1 the shift by z^2 falls off the end of the list
    for n in range(6):
        full = series_f(n, 40)
        for order in range(5):
            assert series_f(n, order) == full[: order + 1], (n, order)


def test_series_order_cap_named():
    with pytest.raises(LevelTooLarge, match="SERIES_ORDER_CAP"):
        series_f(2, SERIES_ORDER_CAP + 1)


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
    with pytest.raises(LevelTooLarge, match=r"label 7 exceeds the cap 2\^\(n\+1\)-2=2"):
        verlinde_product(7, 0, 1)  # labels stop at 2^(n+1) - 2 = 2
    with pytest.raises(LevelTooLarge, match="label must be a nonnegative"):
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
