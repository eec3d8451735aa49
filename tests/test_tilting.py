"""Weight characters, indecomposable tilting characters, decomposition,
and the functor to the fusion rings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from char2cat import chebyshev, tilting
from char2cat.chebyshev import cheb_q, eval_poly
from char2cat.cli import parse_json, run
from char2cat.cyclotomic import IntPoly
from char2cat.errors import LevelTooLarge, NotTiltingCharacter
from char2cat.fusion import fusion_elt, product, simple_elt
from char2cat.tilting import (
    TiltSum,
    WeightChar,
    char_mul,
    decompose,
    digit_images,
    functor_images,
    functor_to_fusion,
    in_T1_polynomial,
    simple_char,
    tensor_power_decompose,
    tensor_v_rows,
    tilt_char,
    twist_char,
    weyl_char,
)

# ----------------------------------------------------------------------
# weight characters


def test_weight_char_storage_and_symmetry():
    c = WeightChar.from_half({3: 2, 1: 1, 0: 4})
    assert c.half == ((3, 2), (1, 1), (0, 4))
    assert c.full_dict() == {3: 2, 1: 1, 0: 4, -1: 1, -3: 2}
    assert c.dim() == 4 + 2 * (2 + 1)


def test_weyl_char_dimension_and_weights():
    for m in range(8):
        c = weyl_char(m)
        assert c.dim() == m + 1
        # weights m, m-2, ..., each multiplicity one
        assert c.full_dict() == {m - 2 * k: 1 for k in range(m + 1)}


def test_char_mul_matches_convolution_oracle():
    # oracle: convolve the full (two-sided) weight dictionaries
    import itertools

    for a in range(6):
        for b in range(6):
            got = char_mul(weyl_char(a), weyl_char(b)).full_dict()
            want: dict = {}
            for (w1, m1), (w2, m2) in itertools.product(
                weyl_char(a).full_dict().items(), weyl_char(b).full_dict().items()
            ):
                want[w1 + w2] = want.get(w1 + w2, 0) + m1 * m2
            assert got == {w: m for w, m in want.items() if m}


def test_twist_doubles_weights():
    c = WeightChar.from_half({2: 1, 0: 3})
    assert twist_char(c).full_dict() == {4: 1, 0: 3, -4: 1}


# ----------------------------------------------------------------------
# simple and tilting characters


def test_simple_char_digit_product():
    # binary-digit factorization: dim is 2^(number of set bits)
    for m in range(32):
        assert simple_char(m).dim() == 1 << bin(m).count("1")
    # 2-power highest weights give two-dimensional simples
    for k in range(5):
        assert simple_char(1 << k).full_dict() == {1 << k: 1, -(1 << k): 1}
    # m = 5 = 4 + 1: weights (+-4) + (+-1)
    assert simple_char(5).full_dict() == {5: 1, 3: 1, -3: 1, -5: 1}


def test_tilt_char_base_cases():
    assert tilt_char(0).full_dict() == {0: 1}
    assert tilt_char(1).full_dict() == {1: 1, -1: 1}
    assert tilt_char(2).full_dict() == {2: 1, 0: 2, -2: 1}


def test_tilt_char_factor_multisets_golden():
    # T_m decomposes in the split ring into the golden multiset of
    # simple factors; characters are additive on factors
    for m, factors in golden.INDECOMPOSABLE_FACTORS.items():
        total: dict = {}
        for f, mult in factors.items():
            for w, k in simple_char(f).half:
                total[w] = total.get(w, 0) + mult * k
        assert tilt_char(m) == WeightChar.from_half(total), m


def test_tilt_char_dims():
    want = {0: 1, 1: 2, 2: 4, 3: 4, 4: 8, 5: 8, 6: 16, 7: 8, 15: 16}
    for m, d in want.items():
        assert tilt_char(m).dim() == d
    # steinberg indices 2^k - 1 stay simple
    for k in range(6):
        m = (1 << k) - 1
        assert tilt_char(m) == simple_char(m)


# ----------------------------------------------------------------------
# decomposition into indecomposables


def test_decompose_recovers_single_tilts():
    for m in range(25):
        assert decompose(tilt_char(m)).as_dict() == {m: 1}


@settings(max_examples=50, deadline=None)
@given(
    entries=st.dictionaries(
        st.integers(min_value=0, max_value=18),
        st.integers(min_value=1, max_value=4),
        max_size=4,
    )
)
def test_decompose_roundtrip(entries):
    ts = TiltSum.from_dict(entries)
    character: dict = {}
    for m, k in ts.entries:
        for w, mult in tilt_char(m).half:
            character[w] = character.get(w, 0) + k * mult
    assert decompose(WeightChar.from_half(character)) == ts


def test_decompose_rejects_non_tilting():
    with pytest.raises(NotTiltingCharacter):
        decompose(simple_char(2))  # missing the interior weight 0


def test_tensor_by_v_golden_table():
    for m, want in golden.TENSOR_BY_V.items():
        assert tensor_v_rows(m)[m] == want, m


def test_digit_rows_equal_the_character_route():
    rows = tensor_v_rows(511)
    assert len(rows) == 512
    try:
        for t, row in enumerate(rows):
            assert row == decompose(char_mul(tilt_char(t), weyl_char(1))).as_dict(), t
    finally:
        tilt_char.cache_clear()


def test_tensor_powers_equal_the_character_route():
    acc, v = weyl_char(0), weyl_char(1)
    try:
        for r in range(257):
            assert tensor_power_decompose(r) == decompose(acc), r
            acc = char_mul(acc, v)
    finally:
        tilt_char.cache_clear()


def test_digit_dimensions_equal_the_characters():
    try:
        for m in range(1024):
            assert TiltSum.from_dict({m: 1}).dim() == tilt_char(m).dim(), m
    finally:
        tilt_char.cache_clear()


def test_tensor_power_dimensions():
    for r in range(13):
        ts = tensor_power_decompose(r)
        assert ts.dim() == 1 << r
        assert ts.as_dict().get(r) == 1  # leading summand


def test_tensor_power_parity():
    # V^r only contains indices of the same parity as r
    for r in range(10):
        assert all((m - r) % 2 == 0 for m in tensor_power_decompose(r).as_dict())


# ----------------------------------------------------------------------
# polynomial realization and the functor


def test_in_t1_polynomials_golden():
    for m, coeffs in golden.IN_T1_POLYS.items():
        assert in_T1_polynomial(m) == IntPoly(coeffs), m


def test_in_t1_polynomials_match_the_row_step():
    # reference: the tensor-by-degree-1 row step in Z[x],
    # g_(t+1) = x g_t - sum_s k_s g_s, on the tensor-by-degree-1 rows
    x = IntPoly((0, 1))
    ref = [IntPoly((1,))]
    rows = tensor_v_rows(254)
    for t in range(255):
        row = dict(rows[t])
        assert row.pop(t + 1) == 1, t
        nxt = x * ref[t]
        for s, k in row.items():
            nxt = nxt - ref[s] * k
        ref.append(nxt)
    for m, want in enumerate(ref):
        assert in_T1_polynomial(m) == want, m


def test_in_t1_polynomials_match_chebyshev_at_steinberg_indices():
    for k in range(8):
        m = (1 << k) - 1
        assert in_T1_polynomial(m) == cheb_q(m)


def test_functor_images_level2_golden():
    for m, want in golden.FUNCTOR_IMAGES_LEVEL2.items():
        img = functor_to_fusion(TiltSum.from_dict({m: 1}), 2)
        assert img.as_dict() == want, m


def test_functor_is_multiplicative_on_products():
    n = 3
    for a in range(10):
        for b in range(a + 1):
            ab = decompose(char_mul(tilt_char(a), tilt_char(b)))
            lhs = functor_to_fusion(ab, n)
            rhs = product(
                functor_to_fusion(TiltSum.from_dict({a: 1}), n),
                functor_to_fusion(TiltSum.from_dict({b: 1}), n),
            )
            assert lhs == rhs, (a, b)


def test_functor_sends_generator_to_generator():
    for n in range(1, 6):
        img = functor_to_fusion(TiltSum.from_dict({1: 1}), n)
        assert img == simple_elt(n, 1 << (n - 1))
    # at level 0 the degree-1 module maps to zero
    assert functor_to_fusion(TiltSum.from_dict({1: 1}), 0).is_zero
    assert functor_to_fusion(TiltSum.from_dict({0: 1}), 0) == fusion_elt(0, {0: 1})


def test_digit_images_equal_the_row_step():
    # every index up to the first one the level-n functor kills, n <= 8
    for n in range(9):
        top = (1 << (n + 1)) - 1
        assert digit_images(range(top + 1), n) == functor_images(top, n), n
    # and beyond it at small levels
    for n in range(4):
        assert digit_images(range(61), n) == functor_images(60, n), n


def test_digit_images_of_any_index_order():
    imgs = functor_images(40, 4)
    picks = [40, 0, 17, 17, 3]
    assert digit_images(picks, 4) == [imgs[m] for m in picks]
    assert digit_images([], 4) == []
    with pytest.raises(ValueError):
        digit_images([3, -1], 4)


def test_rows_reject_a_negative_index():
    with pytest.raises(LevelTooLarge, match="tilt index must be a nonnegative"):
        tensor_v_rows(-1)
    assert tensor_v_rows(0) == [{1: 1}]


def _top_generator(n):
    return simple_elt(n, 1 << (n - 1)) if n else fusion_elt(0, {})


def test_functor_images_match_polynomial_evaluation():
    # reference: each index's in-degree-1 polynomial evaluated at the top
    # generator; every image is an actual object, so its coefficients are
    # positive
    for n in range(7):
        x = _top_generator(n)
        imgs = functor_images(max(63, (1 << (n + 1)) - 1), n)
        for m, img in enumerate(imgs):
            assert img == eval_poly(in_T1_polynomial(m), x), (n, m)
            assert all(c > 0 for _, c in img.coeffs), (n, m)


def test_functor_route_uses_no_polynomials(monkeypatch, capsys):
    n, top = 4, 40
    want = [eval_poly(in_T1_polynomial(m), _top_generator(n)) for m in range(top + 1)]

    def forbidden(*args):
        raise AssertionError("the functor route reached the polynomial route")

    monkeypatch.setattr(chebyshev, "eval_poly", forbidden)
    monkeypatch.setattr(tilting, "in_T1_polynomial", forbidden)
    for m in range(top + 1):
        assert functor_to_fusion(TiltSum.from_dict({m: 1}), n) == want[m], m
    mixed = TiltSum.from_dict({3: 2, 17: 1, 40: 5})
    assert functor_to_fusion(mixed, n) == want[3] * 2 + want[17] + want[40] * 5
    assert run(["tilt", "--functor", str(n), "--max-m", str(top)]) == 0
    rows = parse_json(capsys.readouterr().out)["result"]["rows"]
    assert [{e["index"]: e["coeff"] for e in row["image"]} for row in rows] == [
        img.as_dict() for img in want
    ]
