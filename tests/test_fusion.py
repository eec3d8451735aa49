"""Fusion ring: generator multiplication rule, structure constants by
independent routes, multiplication matrices, dimensions, and the twist
endofunctor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from char2cat.cyclotomic import (
    CycInt,
    d_basis_element,
    d_basis_generator_matrix,
    to_d_basis,
)
from char2cat.errors import (
    Char2CatError,
    LevelMismatch,
    LevelTooLarge,
    SubsetOutOfRange,
)
from char2cat.fusion import (
    STRUCTURE_LEVEL_CAP,
    FusionElt,
    fpdim,
    frobenius_twist,
    fusion_elt,
    generator_matrix,
    mask_subset,
    mult_matrix,
    product,
    simple_elt,
    structure_tensor,
    unit,
)

# ----------------------------------------------------------------------
# encoding and element arithmetic


def test_simple_index_subset_encoding():
    assert mask_subset(0) == []
    assert mask_subset(5) == [1, 3]
    assert mask_subset(12) == [3, 4]


def test_fusion_elt_normalization():
    e = fusion_elt(2, {3: 1, 1: 0, 0: 2})
    assert e.coeffs == ((0, 2), (3, 1))
    assert fusion_elt(2, {}).is_zero


def test_element_arithmetic_with_int_absorption():
    a = simple_elt(2, 3)
    assert (a + a).as_dict() == {3: 2}
    assert (2 * a - a) == a
    assert (a + 1).as_dict() == {0: 1, 3: 1}
    assert (a - a).is_zero
    assert (-a).as_dict() == {3: -1}


def test_only_public_constructors_validate_masks(monkeypatch):
    from char2cat import fusion

    with pytest.raises(SubsetOutOfRange):
        FusionElt(2, ((4, 1),))
    with pytest.raises(ValueError, match="zero coefficients"):
        FusionElt(2, ((1, 0),))
    a, b = simple_elt(5, 22), simple_elt(5, 13) + simple_elt(5, 31)
    want = fusion_elt(5, product(a, b).as_dict())
    calls = []
    monkeypatch.setattr(fusion, "check_subset", lambda *args: calls.append(args))
    assert product(a, b) == want and (a + b).level == 5
    assert (-a).as_dict() == {22: -1} and (a - b).as_dict() == {13: -1, 22: 1, 31: -1}
    assert (3 * a).as_dict() == {22: 3} and (a * 0).is_zero
    assert not calls
    fusion_elt(5, {3: 1})
    assert calls == [(3, 5)]


def test_level_mismatch_rejected():
    with pytest.raises(LevelMismatch):
        simple_elt(1, 1) + simple_elt(2, 1)
    with pytest.raises(LevelMismatch):
        product(simple_elt(1, 1), simple_elt(2, 1))


# ----------------------------------------------------------------------
# generator multiplication rule, hand-worked examples


def gen_mul(i, mask, n):
    """The ``i``-th generator times the class ``mask``, through ``product``."""
    return product(simple_elt(n, 1 << (i - 1)), simple_elt(n, mask))


def test_gen_mul_hand_examples():
    # level 1: X_1 * X_1 = 2 X_0  (largest admissible k is 0, so the
    # leading term drops and only the doubled sum survives)
    assert gen_mul(1, 1, 1).as_dict() == {0: 2}
    # level 2: X_2 * X_2 = X_1 + 2 X_0
    assert gen_mul(2, 2, 2).as_dict() == {1: 1, 0: 2}
    # level 2: X_1 * X_2 = X_3 (disjoint indices just merge)
    assert gen_mul(1, 2, 2).as_dict() == {3: 1}
    # level 2: X_2 * X_3 = 2 X_0 + 2 X_1
    assert gen_mul(2, 3, 2).as_dict() == {0: 2, 1: 2}
    # level 3: X_3 * X_7 = 2 X_0 + 2 X_1 + 2 X_3
    assert gen_mul(3, 7, 3).as_dict() == {0: 2, 1: 2, 3: 2}
    # level 3: X_2 * X_6 = X_5 + 2 X_4 (k = 1; one sum term at kk = 2
    # removes 2 from {2,3} leaving {3})
    assert gen_mul(2, 6, 3).as_dict() == {5: 1, 4: 2}


def test_gen_mul_merges_disjoint_generator():
    # i not in S and no larger obstruction: X_i * X_S = X_{S u {i}}
    for n in range(1, 7):
        for mask in range(1 << (n - 1)):
            # i = n is above every element of S
            assert gen_mul(n, mask, n).as_dict() == {mask | (1 << (n - 1)): 1}


def test_gen_mul_generator_range_checked():
    from char2cat.fusion import _generator_terms

    with pytest.raises(SubsetOutOfRange, match=r"generator 3 outside 1\.\.2"):
        _generator_terms(3, 2)
    with pytest.raises(SubsetOutOfRange, match=r"generator 0 outside 1\.\.2"):
        _generator_terms(0, 2)


# ----------------------------------------------------------------------
# product tables


def _prod_dict(n, a, b):
    return product(simple_elt(n, a), simple_elt(n, b)).as_dict()


def test_products_level2_golden_table():
    for (a, b), want in golden.PRODUCTS_LEVEL2.items():
        assert _prod_dict(2, a, b) == want
        assert _prod_dict(2, b, a) == want  # commutativity


def test_products_level3_golden_table():
    for (a, b), want in golden.PRODUCTS_LEVEL3.items():
        assert _prod_dict(3, a, b) == want
        assert _prod_dict(3, b, a) == want


def test_unit_is_neutral():
    for n in range(5):
        for mask in range(1 << n):
            assert product(unit(n), simple_elt(n, mask)) == simple_elt(n, mask)


def test_product_matches_dimension_ring_exhaustively():
    # independent oracle: expand d_S * d_T in the cyclotomic ring and
    # read the product off the d-basis coordinates
    for n in range(5):
        for a in range(1 << n):
            for b in range(a + 1):
                got = _prod_dict(n, a, b)
                coords = to_d_basis(
                    d_basis_element(a, n) * d_basis_element(b, n)
                )
                assert got == {
                    m: c for m, c in enumerate(coords) if c
                }, (n, a, b)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=6),
    data=st.data(),
)
def test_product_matches_dimension_ring_sampled(n, data):
    a = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    b = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    coords = to_d_basis(d_basis_element(a, n) * d_basis_element(b, n))
    assert _prod_dict(n, a, b) == {m: c for m, c in enumerate(coords) if c}


def test_fpdim_is_multiplicative():
    for n in range(4):
        for a in range(1 << n):
            for b in range(1 << n):
                x, y = simple_elt(n, a), simple_elt(n, b)
                assert fpdim(product(x, y)) == fpdim(x) * fpdim(y)


def test_fpdim_of_simple_is_d_basis_element():
    for n in range(5):
        for mask in range(1 << n):
            assert fpdim(simple_elt(n, mask)) == d_basis_element(mask, n)


# ----------------------------------------------------------------------
# structure constants


def dense_structure(records, n):
    """The cube ``N[S][T][U]`` of the records ``(S, T, U, c)``, for the
    tests that index it (levels <= 6)."""
    assert n <= 6
    cube = np.zeros((1 << n,) * 3, dtype=np.int64)
    cube[tuple(records[:, :3].T)] = records[:, 3]
    return cube


def test_structure_routes_agree_small():
    from char2cat.fusion import (
        _structure_from_generators,
        _structure_from_oracle,
        _structure_from_recursion,
    )

    for n in range(5):
        gen = _structure_from_generators(n)
        rec = _structure_from_recursion(n)
        ora = _structure_from_oracle(n)
        assert np.array_equal(gen, rec), n
        assert np.array_equal(gen, ora), n


def test_structure_step_adds_up_terms_into_one_class():
    # no route sends two terms of one (S, T) into one class at levels <= 8,
    # so the merge is checked with an operator that does: X_0 + X_1 on both
    # classes of level 1, applied to X_0 + X_1 as the records (0, 0, U, 1)
    from char2cat import fusion

    ones = tuple(np.array(v) for v in ([0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]))
    keys, coeffs = fusion._merge(*fusion._times(np.array([1, 0]), np.array([1, 1]), ones, 1))
    assert keys.tolist() == [0, 1] and coeffs.tolist() == [2, 2]


def test_oracle_route_uses_no_fusion_rule(monkeypatch):
    from char2cat import fusion

    def forbidden(*args):
        raise AssertionError("the oracle route reached the fusion rule")

    for name in ("_gen_mul_terms", "_generator_terms", "generator_matrix"):
        monkeypatch.setattr(fusion, name, forbidden)
    for n in range(6):
        assert np.array_equal(
            fusion._structure_from_oracle(n), fusion._structure_from_recursion(n)
        ), n
    for n in range(4):
        for j in (0, n + 1):
            with pytest.raises(SubsetOutOfRange):
                d_basis_generator_matrix(j, n)


def test_recursion_reads_only_its_previous_tensor(monkeypatch):
    from char2cat import fusion

    by_rule = [fusion._structure_from_generators(n) for n in range(7)]

    def forbidden(*args):
        raise AssertionError("the level recursion left its own tensors")

    for name in ("_gen_mul_terms", "_generator_terms", "generator_matrix",
                 "d_basis_generator_matrix"):
        monkeypatch.setattr(fusion, name, forbidden)
    for n, want in enumerate(by_rule):
        assert np.array_equal(fusion._structure_from_recursion(n), want), n


def test_recursion_follows_the_presentation():
    # the new top generator squares to 2 + the previous top generator
    from char2cat.fusion import _structure_from_recursion

    for n in range(2, 7):
        t = dense_structure(_structure_from_recursion(n), n)
        top, prev = 1 << (n - 1), 1 << (n - 2)
        want = np.zeros(1 << n, dtype=np.int64)
        want[0], want[prev] = 2, 1
        assert np.array_equal(t[top, top], want), n


def test_structure_tensor_entries_and_symmetry():
    for n in range(5):
        records = structure_tensor(n)
        t = dense_structure(records, n)
        # the records are the cube's nonzero entries, in argwhere order
        nz = np.argwhere(t != 0)
        assert np.array_equal(records, np.column_stack([nz, t[tuple(nz.T)]]))
        vals = t[t != 0]
        assert ((vals & (vals - 1)) == 0).all()  # powers of two
        assert (vals > 0).all()
        assert np.array_equal(t, t.transpose(1, 0, 2))  # commutativity
        # unit row: X_0 * X_T = X_T
        for b in range(1 << n):
            col = t[0, b]
            assert col[b] == 1 and col.sum() == 1


def test_structure_zero_patterns_from_level_recursion():
    # with the top generator on one side only, the output must contain
    # the top index; with it on both sides, the output must not
    for n in range(2, 5):
        t = dense_structure(structure_tensor(n), n)
        below = dense_structure(structure_tensor(n - 1), n - 1)
        top = 1 << (n - 1)
        for s in range(top):
            for tt in range(top):
                for u in range(top):
                    assert t[s | top, tt, u] == 0
                    assert t[s, tt | top, u] == 0
                    assert t[s | top, tt | top, u | top] == 0
                    # inherited block equals the lower level
                    if n - 1 < STRUCTURE_LEVEL_CAP:
                        assert t[s, tt, u] == below[s, tt, u]


def test_structure_level_cap_named():
    with pytest.raises(LevelTooLarge, match="STRUCTURE_LEVEL_CAP"):
        structure_tensor(STRUCTURE_LEVEL_CAP + 1)


def test_structure_tensor_totals_match_dimension_square():
    # sum_U N_{S,S}^U d_U = d_S^2 as exact ring elements
    n = 3
    t = dense_structure(structure_tensor(n), n)
    for s in range(1 << n):
        total = CycInt.zero(n)
        for u in range(1 << n):
            total = total + int(t[s, s, u]) * d_basis_element(u, n)
        assert total == d_basis_element(s, n) * d_basis_element(s, n)


# ----------------------------------------------------------------------
# multiplication matrices


def test_mult_matrix_hand_values():
    assert np.array_equal(mult_matrix(0), np.array([[0]]))
    assert np.array_equal(mult_matrix(1), np.array([[0, 2], [1, 0]]))
    want2 = np.array(
        [[0, 0, 2, 2], [0, 0, 1, 2], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    assert np.array_equal(mult_matrix(2), want2)


def test_mult_matrix_block_recursion_matches_direct():
    assert np.array_equal(mult_matrix(0), np.zeros((1, 1), dtype=np.int64))
    for n in range(1, 9):
        assert np.array_equal(generator_matrix(n, n), mult_matrix(n))


def test_mult_matrix_entries_bounded():
    for n in range(9):
        b = mult_matrix(n)
        assert set(np.unique(b)).issubset({0, 1, 2})


def test_mult_matrix_annihilated_by_min_poly():
    from char2cat.cyclotomic import eval_min_poly_at_matrix

    for n in range(7):
        assert not eval_min_poly_at_matrix(n, mult_matrix(n)).any()


def test_generator_matrix_columns_are_gen_mul():
    n = 4
    for i in range(1, n + 1):
        g = generator_matrix(i, n)
        for mask in range(1 << n):
            col = {m: int(v) for m, v in enumerate(g[:, mask]) if v}
            assert col == gen_mul(i, mask, n).as_dict()


# ----------------------------------------------------------------------
# twist endofunctor


def test_frobenius_twist_rule():
    # classes containing 1 die; otherwise every index shifts down by one
    assert frobenius_twist(simple_elt(3, 1)).is_zero
    assert frobenius_twist(simple_elt(3, 5)).is_zero  # {1,3}
    assert frobenius_twist(simple_elt(3, 6)).as_dict() == {3: 1}  # {2,3}->{1,2}
    assert frobenius_twist(simple_elt(3, 4)).as_dict() == {2: 1}  # {3}->{2}
    assert frobenius_twist(unit(3)) == unit(2)
    for n in range(2, 9):
        tw = frobenius_twist(simple_elt(n, 1 << (n - 1)))
        assert tw.level == n - 1
        assert tw.as_dict() == {1 << (n - 2): 1}


def test_frobenius_twist_is_additive():
    a = fusion_elt(3, {0: 2, 3: 1, 6: 4})
    b = fusion_elt(3, {1: 5, 6: 1})
    assert frobenius_twist(a + b) == frobenius_twist(a) + frobenius_twist(b)


def test_frobenius_twist_multiplicative_where_defined():
    # multiplicative on products of classes killed nowhere (no index 1)
    for n in range(1, 5):
        for s in range(0, 1 << n, 2):
            for t in range(0, 1 << n, 2):
                a, b = simple_elt(n, s), simple_elt(n, t)
                assert frobenius_twist(product(a, b)) == product(
                    frobenius_twist(a), frobenius_twist(b)
                ), (n, s, t)


def test_frobenius_twist_level0_fixed_point():
    assert frobenius_twist(unit(0)) == unit(0)
