"""Exact-arithmetic core: generator minimal polynomials, ring elements,
the product basis, embeddings, and conjugates."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import golden
from char2cat import fusion
from char2cat.cyclotomic import (
    RING_LEVEL_CAP,
    CycInt,
    conjugate_floats,
    d_basis_element,
    delta_float,
    embed,
    eval_min_poly_at_matrix,
    min_poly,
    to_d_basis,
)
from char2cat.errors import (
    LevelMismatch,
    LevelTooLarge,
    NotIntegral,
    SubsetOutOfRange,
)


# ----------------------------------------------------------------------
# minimal polynomials


def test_min_poly_small_coefficients_match_hand_expansion():
    for n, coeffs in golden.MIN_POLYS.items():
        assert min_poly(n).coeffs == coeffs


def test_min_poly_composition_tower():
    # the x^2 - 2 tower equals the Dickson closed form D_(2^n) up to the cap
    from char2cat.checks import dickson_coeffs

    for n in range(RING_LEVEL_CAP + 1):
        assert min_poly(n).coeffs == dickson_coeffs(1 << n), n


def test_min_poly_is_monic_of_degree_2_to_the_n():
    for n in range(RING_LEVEL_CAP + 1):
        p = min_poly(n)
        assert p.degree == 1 << n
        assert p.coeffs[-1] == 1


def test_min_poly_vanishes_at_generator_exactly():
    from char2cat.chebyshev import eval_poly

    for n in range(7):
        assert eval_poly(min_poly(n), CycInt.delta(n)) == CycInt.zero(n)


def _horner_float(coeffs, x):
    """Float Horner value plus an error bound covering both the Horner
    roundoff and the fact that x itself carries float error."""
    acc = 0.0
    mag = 0.0
    der = 0.0
    for c in reversed(coeffs):
        der = der * x + acc
        acc = acc * x + c
        mag = mag * abs(x) + abs(c)
    # roundoff: 2 deg eps sum |c_k||x|^k ; root error: |p'(x)| * ulp(x)
    bound = 2 * len(coeffs) * 2.3e-16 * mag + abs(der) * 1e-15 * (1 + abs(x))
    return acc, bound


def test_compose_square_minus_two_matches_binomial_oracle():
    # independent route: (x^2-2)^k expanded via binomial coefficients
    import math as _m
    import random

    from char2cat.cyclotomic import _compose_square_minus_two

    def binomial_compose(coeffs):
        if not coeffs:
            return ()
        out = [0] * (2 * (len(coeffs) - 1) + 1)
        for k, a in enumerate(coeffs):
            for j in range(k + 1):
                out[2 * j] += a * _m.comb(k, j) * (-2) ** (k - j)
        return tuple(out)

    rng = random.Random(1)
    for _ in range(200):
        co = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 12)))
        assert _compose_square_minus_two(co) == binomial_compose(co)


def _horner_compose(coeffs):
    """Reference P(x^2 - 2): Horner in x^2 - 2, one multiplication of the
    accumulator by x^2 - 2 (two shifted adds per coefficient) per step."""
    if not coeffs:
        return ()
    acc = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        out = [0] * (len(acc) + 2)
        for i, v in enumerate(acc):
            if v:
                out[i + 2] += v
                out[i] -= 2 * v
        out[0] += c
        acc = out
    return tuple(acc)


_WIDE = st.integers(min_value=-(1 << 200), max_value=1 << 200)


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(_WIDE, max_size=70),
    zero_first=st.booleans(),
    zero_last=st.booleans(),
)
@example(coeffs=[], zero_first=False, zero_last=False)
@example(coeffs=[-(1 << 200)], zero_first=False, zero_last=False)
@example(coeffs=[7], zero_first=True, zero_last=False)
@example(coeffs=[1 << 200] * 70, zero_first=True, zero_last=True)
def test_scaled_taylor_shift_matches_horner_composition(coeffs, zero_first, zero_last):
    from char2cat.cyclotomic import _compose_square_minus_two

    if coeffs and zero_first:
        coeffs[0] = 0
    if coeffs and zero_last:
        coeffs[-1] = 0
    got = _compose_square_minus_two(tuple(coeffs))
    assert got == _horner_compose(tuple(coeffs))
    assert all(type(v) is int for v in got)


def test_scaled_taylor_shift_matches_horner_on_each_tower_step():
    from char2cat.cyclotomic import _compose_square_minus_two

    for n in range(11):
        coeffs = min_poly(n).coeffs
        assert _compose_square_minus_two(coeffs) == _horner_compose(coeffs), n


def test_min_poly_float_root():
    # the generator is 2cos(pi / 2^(n+1))
    for n in range(8):
        acc, bound = _horner_float(min_poly(n).coeffs, delta_float(n))
        assert abs(acc) <= bound


def test_delta_float_matches_cosine():
    for n in range(RING_LEVEL_CAP + 1):
        assert delta_float(n) == pytest.approx(
            2.0 * math.cos(math.pi / (1 << (n + 1))), abs=1e-12
        )


def test_level_cap_enforced_and_named():
    with pytest.raises(LevelTooLarge, match="RING_LEVEL_CAP"):
        min_poly(RING_LEVEL_CAP + 1)
    with pytest.raises(LevelTooLarge):
        CycInt.delta(-1)


# ----------------------------------------------------------------------
# ring arithmetic

_COEFF = st.integers(min_value=-9, max_value=9)


def _elt(level, coeffs):
    vec = list(coeffs) + [0] * ((1 << level) - len(coeffs))
    return CycInt(level, tuple(vec[: 1 << level]))


@settings(max_examples=60, deadline=None)
@given(
    level=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_ring_axioms(level, data):
    size = 1 << level
    vec = st.lists(_COEFF, min_size=size, max_size=size)
    a = _elt(level, data.draw(vec))
    b = _elt(level, data.draw(vec))
    c = _elt(level, data.draw(vec))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == CycInt.zero(level)
    assert a * CycInt.one(level) == a
    assert 1 * a == a and a + 0 == a


def test_power_matches_repeated_product():
    rng = np.random.default_rng(11)
    for level in range(6):
        x = _elt(level, rng.integers(-3, 4, size=1 << level).tolist())
        want = CycInt.one(level)
        for e in range(10):
            assert x ** e == want, (level, e)
            want = want * x
    with pytest.raises(ValueError):
        CycInt.delta(2) ** -1


def test_square_is_one_product(monkeypatch):
    from char2cat import cyclotomic

    calls = []

    def counted(a, b, mul=cyclotomic._cos_mul):
        calls.append(len(a))
        return mul(a, b)

    monkeypatch.setattr(cyclotomic, "_cos_mul", counted)
    x = CycInt.delta(5)
    assert x ** 2 == 2 + embed(CycInt.delta(4), 5)
    assert len(calls) == 1
    assert x ** 0 == CycInt.one(5) and len(calls) == 1


def _power_basis_mul(a: CycInt, b: CycInt) -> CycInt:
    """Reference product: schoolbook multiplication of the power-basis
    coefficients, then reduction of degrees >= 2^n by the monic min_poly."""
    size = 1 << a.level
    prod = [0] * (2 * size - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    rows = [(k, v) for k, v in enumerate(min_poly(a.level).coeffs[:-1]) if v]
    for d in range(len(prod) - 1, size - 1, -1):
        q = prod[d]
        prod[d] = 0
        for k, v in rows:
            prod[d - size + k] -= q * v
    return CycInt(a.level, tuple(prod[:size]))


# small coefficients keep the cosine convolution in int64; coefficients of
# at least 2^40 in both factors push max|a| * max|b| * 4N past 2^63 and
# force the exact object path
_WIDE_COEFF = st.integers(min_value=1 << 40, max_value=1 << 45)


@settings(max_examples=80, deadline=None)
@given(
    level=st.integers(min_value=0, max_value=6),
    wide=st.booleans(),
    data=st.data(),
)
def test_cosine_product_matches_power_basis_reference(level, wide, data):
    size = 1 << level
    coeff = st.one_of(_COEFF, _WIDE_COEFF.map(lambda v: -v)) if wide else _COEFF
    vec = st.lists(coeff, min_size=size - 1, max_size=size - 1)
    a = _elt(level, [data.draw(_WIDE_COEFF) if wide else 1] + data.draw(vec))
    b = _elt(level, [data.draw(_WIDE_COEFF) if wide else -1] + data.draw(vec))
    if wide:
        assume(max(map(abs, a.cos)) * max(map(abs, b.cos)) >= 1 << 63)
    assert a * b == _power_basis_mul(a, b)
    assert (a * b).coeffs == _power_basis_mul(a, b).coeffs


def test_zero_factor_product_does_not_overflow():
    # Horner starts from target * 0; the zero factor used to give the int64
    # bound 0 and cast the other, wide factor to int64
    from char2cat.chebyshev import eval_poly
    from char2cat.cyclotomic import IntPoly

    wide = CycInt.from_cos(2, (1 << 70, 0, 0, 0))
    assert eval_poly(IntPoly((0, 1)), wide) == wide
    assert (CycInt.zero(2) * wide).cos == (0, 0, 0, 0)
    assert (wide * CycInt.zero(2)).cos == (0, 0, 0, 0)


def _full_cos_mul(a, b):
    """Reference product: the full symmetric vectors convolved in object
    arithmetic, then every index above N folded back."""
    size = len(a)
    full = np.convolve(
        np.array(a[:0:-1] + a, dtype=object), np.array(b[:0:-1] + b, dtype=object)
    )
    pos = full[2 * size - 2:]
    out = pos[:size].copy()
    out[2:] -= pos[2 * size - 2:size:-1]
    return tuple(out.tolist())


_SPAN_COEFF = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1 << 29, max_value=1 << 31),  # near the int64 bound
    st.integers(min_value=1 << 63, max_value=1 << 70),
    st.integers(min_value=-(1 << 70), max_value=-(1 << 63)),
)


@st.composite
def _spanned(draw, level):
    """A cosine vector at ``level`` with a drawn top nonzero index (0, 1,
    N - 1 or anywhere) and a few nonzero entries below it, or zero."""
    size = 1 << level
    if draw(st.integers(0, 7)) == 0:
        return (0,) * size
    top = draw(st.one_of(st.sampled_from([0, min(1, size - 1), size - 1]),
                         st.integers(0, size - 1)))
    vec = [0] * size
    for k, v in draw(st.dictionaries(st.integers(0, top), _SPAN_COEFF, max_size=6)).items():
        vec[k] = v
    vec[top] = draw(_SPAN_COEFF.filter(bool))
    return tuple(vec)


@settings(max_examples=120, deadline=None)
@given(level=st.integers(min_value=0, max_value=9), data=st.data())
def test_trimmed_cos_mul_matches_untrimmed_object_convolution(level, data):
    from char2cat.cyclotomic import _cos_mul

    a = data.draw(_spanned(level))
    b = data.draw(_spanned(level))
    got = _cos_mul(a, b)
    assert got == _full_cos_mul(a, b)
    assert all(type(v) is int for v in got)


@settings(max_examples=120, deadline=None)
@given(level=st.integers(min_value=0, max_value=9), data=st.data())
def test_live_span_clenshaw_round_trips_with_power_expansion(level, data):
    from char2cat.cyclotomic import _cos_to_power, _power_to_cos

    vec = data.draw(_spanned(level))
    power = _cos_to_power(vec, level)
    assert len(power) == 1 << level
    assert all(type(v) is int for v in power)
    assert tuple(_power_to_cos(power, level)) == vec
    # and the other way: a power vector with a drawn top comes back
    power = data.draw(_spanned(level))
    assert tuple(_cos_to_power(_power_to_cos(power, level), level)) == power


def test_d_basis_coeffs_unchanged_up_to_level_8():
    # sha256 of the power coefficients of every d_S, levels 0..8 in mask
    # order, as the full-length Clenshaw recurrence gave them
    sha = hashlib.sha256()
    for n in range(9):
        for mask in range(1 << n):
            sha.update(repr(d_basis_element(mask, n).coeffs).encode())
    assert sha.hexdigest() == (
        "c803ef43ccd75c2dff904774679a31357fc8a696f543d83663e0f00566689f30"
    )


def test_from_cos_takes_fixed_width_input_exactly():
    big = 1 << 40
    e = CycInt.from_cos(1, np.array([big, big], dtype=np.int64))
    # (B + B c_1)^2 = B^2 (1 + 2 c_1 + c_1^2) and c_1^2 = c_2 + 2 = 2 at level 1
    assert (e * e).cos == (3 * big * big, 2 * big * big)
    assert (e * e).coeffs == _power_basis_mul(e, e).coeffs


def test_min_poly_matches_sympy_minimal_polynomial():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(5):
        got = sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / 2 ** (n + 1)), x)
        want = sum(c * x**k for k, c in enumerate(min_poly(n).coeffs))
        assert sympy.expand(got - want) == 0, n


def test_integer_absorption():
    a = CycInt.delta(2)
    assert 2 + a == CycInt.from_int(2, 2) + a
    assert 3 * a == a + a + a
    assert (2 - a) == CycInt.from_int(2, 2) - a
    assert a**3 == a * a * a
    assert a**0 == CycInt.one(2)


def test_level_mismatch_rejected():
    with pytest.raises(LevelMismatch):
        CycInt.delta(1) + CycInt.delta(2)
    with pytest.raises(LevelMismatch):
        CycInt.delta(1) * CycInt.delta(3)


def test_generator_squares_down():
    # delta_{n}^2 = 2 + (image of delta_{n-1}); the defining relation
    for n in range(1, 7):
        lhs = CycInt.delta(n) ** 2
        rhs = 2 + embed(CycInt.delta(n - 1), n)
        assert lhs == rhs


def test_embed_is_ring_homomorphism():
    rng = np.random.default_rng(7)
    for n in range(1, 5):
        for _ in range(10):
            a = _elt(n - 1, rng.integers(-5, 6, size=1 << (n - 1)).tolist())
            b = _elt(n - 1, rng.integers(-5, 6, size=1 << (n - 1)).tolist())
            assert embed(a + b, n) == embed(a, n) + embed(b, n)
            assert embed(a * b, n) == embed(a, n) * embed(b, n)
    assert embed(CycInt.one(0), 3) == CycInt.one(3)


def test_embed_matches_power_basis_composition():
    # reference: delta_m = delta_{m+1}^2 - 2, i.e. compose with x^2 - 2 per step
    from char2cat.cyclotomic import _compose_square_minus_two

    rng = np.random.default_rng(5)
    for m in range(5):
        e = _elt(m, rng.integers(-9, 10, size=1 << m).tolist())
        coeffs = e.coeffs
        for n in range(m + 1, 7):
            comp = _compose_square_minus_two(coeffs)
            coeffs = comp + (0,) * ((1 << n) - len(comp))
            assert embed(e, n).coeffs == coeffs, (m, n)


def test_to_float_consistency():
    # float image respects ring operations approximately
    a = CycInt.delta(3)
    b = 2 + a * a
    assert b.to_float() == pytest.approx(2 + delta_float(3) ** 2, rel=1e-12)


# ----------------------------------------------------------------------
# conjugates


def test_conjugates_are_minpoly_roots():
    for n in range(6):
        p = min_poly(n)
        for x in conjugate_floats(CycInt.delta(n)):
            acc, bound = _horner_float(p.coeffs, x)
            assert abs(acc) <= bound


def test_conjugates_multiplicative():
    a = CycInt.delta(3)
    b = 1 + a
    ca = conjugate_floats(a)
    cb = conjugate_floats(b)
    cab = conjugate_floats(a * b)
    for x, y, z in zip(ca, cb, cab):
        assert x * y == pytest.approx(z, rel=1e-9, abs=1e-9)


def _conjugates_by_direct_sum(e):
    size = 1 << e.level
    out = []
    for r in range(size):
        acc = float(e.cos[0])
        for s in range(1, size):
            phase = s * (2 * r + 1) % (4 * size)
            acc += e.cos[s] * 2.0 * math.cos(phase * math.pi / (2 * size))
        out.append(acc)
    return out


def test_conjugate_floats_match_direct_cosine_sums():
    rng = np.random.default_rng(11)
    for n in range(9):
        e = CycInt.from_cos(n, rng.integers(-50, 51, size=1 << n).tolist())
        want = _conjugates_by_direct_sum(e)
        # float64 sums of 2^n terms of size <= 2 * sum|cos|
        tol = 1e-12 * (1 + 2 * sum(abs(v) for v in e.cos))
        for got, ref in zip(conjugate_floats(e), want, strict=True):
            assert abs(got - ref) <= tol, n
        assert abs(e.to_float() - want[0]) <= tol, n


def test_first_conjugate_is_identity_embedding():
    e = 3 + CycInt.delta(4) * 2
    assert conjugate_floats(e)[0] == pytest.approx(e.to_float(), rel=1e-12)


# ----------------------------------------------------------------------
# product basis


def test_d_basis_element_unit_and_generators():
    for n in range(5):
        assert d_basis_element(0, n) == CycInt.one(n)
        if n >= 1:
            # the singleton {n} corresponds to mask with top bit set
            assert d_basis_element(1 << (n - 1), n) == CycInt.delta(n)


def test_d_basis_element_is_product_of_embedded_generators():
    for n in range(6):
        for mask in range(1 << n):
            prod = CycInt.one(n)
            for j in range(1, n + 1):
                if mask >> (j - 1) & 1:
                    prod = prod * embed(CycInt.delta(j), n)
            assert d_basis_element(mask, n) == prod


def test_d_basis_multiplicativity_on_disjoint_masks():
    n = 4
    for mask in range(1 << n):
        rest = ((1 << n) - 1) ^ mask
        assert (
            d_basis_element(mask, n) * d_basis_element(rest, n)
            == d_basis_element((1 << n) - 1, n)
        )


def test_to_d_basis_roundtrip_on_basis_vectors():
    for n in range(6):
        for mask in range(1 << n):
            vec = to_d_basis(d_basis_element(mask, n))
            assert vec == [1 if k == mask else 0 for k in range(1 << n)]


@settings(max_examples=40, deadline=None)
@given(
    level=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_to_d_basis_roundtrip_on_random_combinations(level, data):
    size = 1 << level
    coeffs = data.draw(st.lists(_COEFF, min_size=size, max_size=size))
    e = CycInt.zero(level)
    for mask, c in enumerate(coeffs):
        e = e + c * d_basis_element(mask, level)
    assert to_d_basis(e) == coeffs


def test_subset_validation():
    with pytest.raises(SubsetOutOfRange):
        d_basis_element(1 << 3, 3)  # mask 8 needs level >= 4
    with pytest.raises(SubsetOutOfRange):
        d_basis_element(-1, 2)


# ----------------------------------------------------------------------
# matrix annihilation helper


def test_eval_min_poly_at_matrix_matches_direct_evaluation():
    # oracle: plain object-dtype Horner of the expanded polynomial
    rng = np.random.default_rng(3)
    for n in range(4):
        dim = 1 << n
        mat = rng.integers(-2, 3, size=(dim, dim))
        p = min_poly(n)
        acc = np.zeros((dim, dim), dtype=object)
        ident = np.eye(dim, dtype=object)
        for c in reversed(p.coeffs):
            acc = acc @ mat + int(c) * ident
        got = eval_min_poly_at_matrix(n, mat)
        assert np.array_equal(got.astype(object), acc)


def test_eval_min_poly_at_matrix_guards_overflow():
    with pytest.raises(NotIntegral):
        eval_min_poly_at_matrix(4, np.array([[1 << 21]], dtype=np.int64))


def test_eval_min_poly_at_matrix_guards_the_int64_bound_exactly():
    # one squaring of [[x]] is x^2 - 2, whose bound x^2 + 2 must stay below
    # 2**63: 3037000499 is the largest such x, and its square is no float64
    root = 3037000499
    assert eval_min_poly_at_matrix(1, np.array([[root]]))[0, 0] == root * root - 2
    assert eval_min_poly_at_matrix(1, np.array([[(1 << 27) + 1]]))[0, 0] == (
        ((1 << 27) + 1) ** 2 - 2
    )
    with pytest.raises(NotIntegral, match=r"is not below 2\*\*63"):
        eval_min_poly_at_matrix(1, np.array([[root + 1]]))
    assert eval_min_poly_at_matrix(3, np.zeros((0, 0), dtype=np.int64)).shape == (0, 0)
    # p_2(0) = (0^2 - 2)^2 - 2: a zero matrix has no entries to square
    assert np.array_equal(eval_min_poly_at_matrix(2, np.zeros((2, 2))), 2 * np.eye(2))


def test_structure_builder_refuses_an_inexact_generator():
    # at level 2 the records reach 2 before generator 2 is applied, and at
    # most two of its terms go into one class: with its coefficient of
    # X_2 X_0 raised to 2**60 the bound is 2**62 and the records exact in
    # int64, raised to 2**61 the bound reaches 2**63 and nothing is multiplied
    for big in (1 << 60, 1 << 61):
        gens = [fusion._generator_terms(i, 2) for i in (1, 2)]
        gens[1][2][0] = big
        if big < 1 << 61:
            assert fusion._subset_products(gens, 2)[:, 3].max() == 2 * big
        else:
            with pytest.raises(NotIntegral, match=r"is not below 2\*\*63"):
                fusion._subset_products(gens, 2)
