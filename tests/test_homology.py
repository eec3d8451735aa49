"""Cartan matrices, first-extension data, projective and total
dimension values, and block decompositions along the chain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from char2cat import checks, writers
from char2cat.cyclotomic import CycInt, embed, to_d_basis
from char2cat.errors import LevelTooLarge, SubsetOutOfRange
from char2cat.homology import (
    CATEGORY_INDEX_CAP,
    algebra_fpdim,
    block_components,
    cartan,
    category_fpdim,
    ext1_dim,
    ext1_matrix,
    proj_fpdims,
)

# ----------------------------------------------------------------------
# Cartan matrices


def test_cartan_base_cases():
    assert cartan(0).tolist() == [[1]]
    assert cartan(1).tolist() == [[2]]
    assert cartan(2).tolist() == [[2, 0], [0, 1]]
    assert cartan(3).tolist() == [[4, 2], [2, 2]]


def test_cartan_index5_golden():
    assert cartan(5).tolist() == [list(r) for r in golden.CARTAN_INDEX5]


def test_cartan_even_index_is_block_diagonal():
    for n in range(1, 7):
        m = 2 * n
        car = cartan(m)
        a, b = cartan(m - 1), cartan(m - 2)
        ka = a.shape[0]
        assert np.array_equal(car[:ka, :ka], a)
        assert np.array_equal(car[ka:, ka:], b)
        assert not car[:ka, ka:].any()
        assert not car[ka:, :ka].any()


def test_cartan_odd_index_block_pattern():
    # odd index: [[2A, A], [A, 2B]] with A, B the two previous matrices
    for m in range(3, 14, 2):
        car = cartan(m)
        a, b = cartan(m - 2), cartan(m - 3)
        ka = a.shape[0]
        assert np.array_equal(car[:ka, :ka], 2 * a)
        assert np.array_equal(car[:ka, ka:], a)
        assert np.array_equal(car[ka:, :ka], a)
        assert np.array_equal(car[ka:, ka:], 2 * b)


def test_cartan_symmetric_power_of_two_entries():
    for m in range(14):
        car = cartan(m)
        assert car.dtype == np.int64
        assert (car == car.T).all()
        for v in car.flatten():
            iv = int(v)
            assert iv >= 0
            assert iv == 0 or iv & (iv - 1) == 0


def test_table_checks_see_a_fault_in_the_last_row_block():
    car = cartan(19)  # 512 x 512: four compared blocks
    assert len(writers.row_slices(car, writers.COMPARE_BLOCK)) == 4
    assert checks.symmetric(car) and checks.nonzero_powers_of_two(car)
    for entry, value, symmetric, powers in (
        ((511, 500), car[511, 500] + 2, False, True),  # one asymmetric entry
        ((511, 511), 3, True, False),  # one entry that is no power of two
        ((511, 511), -2, True, False),  # one negative entry
    ):
        bad = car.copy()
        bad[entry] = value
        assert checks.symmetric(bad) is symmetric, (entry, value)
        assert checks.nonzero_powers_of_two(bad) is powers, (entry, value)
    # the fusion tensor is cut along its first axis the same way
    ext = ext1_matrix(19)
    assert checks.zero_or_one(ext)
    for value in (2, -1):  # one entry that is neither zero nor one
        bad = ext.copy()
        bad[511, 500] = value
        assert not checks.zero_or_one(bad), value
    tensor = np.ones((256, 32, 32), dtype=np.int64)
    assert len(writers.row_slices(tensor, writers.COMPARE_BLOCK)) == 4
    assert checks.nonzero_powers_of_two(tensor)
    tensor[-1, -1, -1] = 6
    assert not checks.nonzero_powers_of_two(tensor)
    assert not checks.symmetric(np.zeros((2, 3), dtype=np.int64))


def test_cartan_is_read_only():
    with pytest.raises(ValueError):
        cartan(5)[0, 0] = 99


def test_ext1_matrix_is_read_only():
    with pytest.raises(ValueError):
        ext1_matrix(5)[0, 1] = 0


def test_cartan_index_cap_named():
    with pytest.raises(LevelTooLarge, match="CATEGORY_INDEX_CAP"):
        cartan(CATEGORY_INDEX_CAP + 1)


def test_negative_chain_index_has_the_shared_wording():
    for fn in (cartan, ext1_matrix, category_fpdim):
        with pytest.raises(LevelTooLarge, match="chain index must be a nonnegative integer"):
            fn(-1)


# ----------------------------------------------------------------------
# first-extension dimensions


def test_ext1_base_cases():
    assert ext1_dim(0, 0, 0) == 0
    assert ext1_dim(1, 0, 0) == 1


def test_ext1_small_matrices_hand_values():
    # worked out case by case from the recursion
    assert ext1_matrix(2).tolist() == [[1, 0], [0, 0]]
    assert ext1_matrix(3).tolist() == [[1, 1], [1, 0]]


def test_ext1_index5_golden():
    assert ext1_matrix(5).tolist() == [list(r) for r in golden.EXT1_INDEX5]


def test_ext1_symmetric_zero_one():
    for m in range(12):
        mat = ext1_matrix(m)
        assert mat.dtype == np.int64
        assert (mat == mat.T).all()
        assert set(np.unique(mat)).issubset({0, 1})
        # the block recursion against the independent per-entry recursion
        for s in range(mat.shape[0]):
            for t in range(mat.shape[0]):
                assert mat[s, t] == ext1_dim(m, s, t), (m, s, t)


def test_ext1_self_extensions_of_unit():
    # the unit class has a self-extension exactly from index 1 on
    assert ext1_dim(0, 0, 0) == 0
    for m in range(1, 12):
        assert ext1_dim(m, 0, 0) == 1


@settings(max_examples=80, deadline=None)
@given(
    s=st.integers(min_value=0, max_value=31),
    t=st.integers(min_value=0, max_value=31),
)
def test_ext1_stabilizes(s, t):
    top = max(s.bit_length(), t.bit_length())
    stable_from = 2 * top + 1
    vals = {ext1_dim(m, s, t) for m in range(stable_from, stable_from + 6)}
    assert len(vals) == 1


def test_ext1_mask_validation():
    with pytest.raises(SubsetOutOfRange):
        ext1_dim(4, 4, 0)  # mask 4 needs level >= 3, index 4 has level 2


# ----------------------------------------------------------------------
# dimension values


def test_proj_fpdim_matches_cartan_row_exactly():
    # the multiplicative recursion, read in the d-basis, is the Cartan row
    for m in (4, 5, 6, 7):
        lev = m // 2
        proj = proj_fpdims(m)
        assert len(proj) == 1 << lev
        for smask in range(1 << lev):
            coords = to_d_basis(proj[smask])
            row = cartan(m)[smask]
            assert coords == [int(v) for v in row]


def test_proj_fpdim_top_class_is_its_own_projective():
    # the top class at even index is projective (Cartan entry 1)
    for n in range(1, 5):
        m = 2 * n
        top = (1 << n) - 1
        p = proj_fpdims(m)[top]
        assert to_d_basis(p) == [
            1 if k == top else 0 for k in range(1 << n)
        ]


def test_category_fpdim_small_exact_values():
    assert category_fpdim(0) == CycInt.from_int(1, 0)
    assert category_fpdim(1) == CycInt.from_int(2, 0)
    assert category_fpdim(2) == CycInt.from_int(4, 1)
    # index 4: 16 / (2 - delta_1) rationalizes by hand to 8 (2 + delta_1),
    # which is 8 delta_2^2 by the defining relation
    assert category_fpdim(4) == 8 * CycInt.delta(2) ** 2
    assert category_fpdim(4).to_float() == pytest.approx(
        16 / (2 - math.sqrt(2)), rel=1e-12
    )


def test_category_fpdim_closed_form_floats():
    # even index 2n: 2^n / sin^2(pi / 2^(n+1))
    for n in range(1, 7):
        want = (1 << n) / math.sin(math.pi / (1 << (n + 1))) ** 2
        assert category_fpdim(2 * n).to_float() == pytest.approx(want, rel=1e-9)


def test_category_fpdim_doubling():
    # each even index doubles the preceding odd index
    for n in range(1, 7):
        even = category_fpdim(2 * n)
        odd = category_fpdim(2 * n - 1)
        assert even == 2 * embed(odd, even.level)


def test_category_fpdim_equals_sum_over_projectives():
    from char2cat.cyclotomic import d_basis_element

    for m in range(8):
        lev = m // 2
        total = CycInt.zero(lev)
        proj = proj_fpdims(m)
        for smask in range(1 << lev):
            total = total + d_basis_element(smask, lev) * proj[smask]
        assert category_fpdim(m) == total


def test_total_dimension_routes_agree_where_each_runs():
    # the recursion and the multiplied-out closed form up to the cap, the
    # sum over the Cartan route's projective column up to index 17
    # (2 * VERIFY_LEVEL_CAP + 1)
    from char2cat.homology import _category_fpdim_from_projectives, _proj_fpdims_cartan

    for m in range(CATEGORY_INDEX_CAP + 1):
        q = category_fpdim(m)
        assert q.level == m // 2, m
        assert checks.total_dimension_matches_closed_form(m, q), m
        if m <= 2 * checks.VERIFY_LEVEL_CAP + 1:
            assert _category_fpdim_from_projectives(_proj_fpdims_cartan(m)) == q, m


def test_closed_form_predicate_rejects_wrong_totals():
    for m in (0, 1, 2, 5, 8, 13):
        q = category_fpdim(m)
        assert not checks.total_dimension_matches_closed_form(m, q * 2), m
        assert not checks.total_dimension_matches_closed_form(m, q + 1), m


def test_algebra_fpdim_values_and_identity():
    assert algebra_fpdim(0) == CycInt.from_int(2, 0)
    assert algebra_fpdim(1) == 2 + CycInt.delta(1)
    for n in range(8):
        val = algebra_fpdim(n)
        assert embed(val, n + 1) == CycInt.delta(n + 1) ** 2
        assert val.to_float() == pytest.approx(
            (2 * math.cos(math.pi / (1 << (n + 2)))) ** 2, rel=1e-12
        )


def test_algebra_fpdim_cap_named():
    with pytest.raises(LevelTooLarge, match="RING_LEVEL_CAP-1"):
        algebra_fpdim(12)


# ----------------------------------------------------------------------
# blocks


def test_block_components_index4_golden():
    assert block_components(4) == golden.BLOCKS_INDEX4


def test_block_components_counts():
    assert block_components(0) == ((0,),)
    assert block_components(1) == ((0,),)
    # even index 2n splits into n + 1 linkage classes
    for n in range(1, 7):
        assert len(block_components(2 * n)) == n + 1
    # odd indices are connected
    for m in range(1, 14, 2):
        assert len(block_components(m)) == 1


def test_cartan_links_no_simples_across_ext_blocks():
    # so the Ext quiver alone gives the components of the Cartan/Ext graph
    for m in range(18):
        block = np.empty(1 << (m // 2), dtype=np.int64)
        for k, comp in enumerate(block_components(m)):
            block[list(comp)] = k
        rows, cols = np.nonzero(cartan(m))
        assert (block[rows] == block[cols]).all(), m


def test_block_components_partition_everything():
    for m in range(10):
        comps = block_components(m)
        seen = sorted(x for comp in comps for x in comp)
        assert seen == list(range(1 << (m // 2)))
