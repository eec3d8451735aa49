"""The ``verify`` cross-check suite and the predicates it shares with the
command checks.

Each suite check is a function of ``max_level`` returning ``(passed,
detail)``; ``CHECKS`` maps the printed check names to them, and ``run``
runs them all.  A predicate used both by a command's report and by a
suite check lives here once, so the two always test the same property.
"""

from __future__ import annotations

import numpy as np

from . import chebyshev, cyclotomic, fusion, homology, invariants, tilting
from .writers import COMPARE_BLOCK, row_slices

__all__ = ["CHECKS", "VERIFY_LEVEL_CAP", "run", "symmetric", "zero_or_one",
           "nonzero_powers_of_two", "dickson_coeffs", "min_poly_matches_dickson",
           "total_dimension_matches_closed_form", "expected_component_count"]

#: Largest ``max_level`` the suite accepts.  The suite passes at it in
#: seconds; level 9 takes about four times as long, and from level 13 on
#: some checks exceed the ring and chain-index caps.
VERIFY_LEVEL_CAP = 8


# ----------------------------------------------------------------------
# predicates shared with the command checks; they compare row blocks of
# ``COMPARE_BLOCK`` entries


def symmetric(mat: np.ndarray) -> bool:
    return mat.shape == mat.T.shape and all(
        np.array_equal(mat[rows], mat[:, rows].T)
        for rows in row_slices(mat, COMPARE_BLOCK)
    )


def zero_or_one(mat: np.ndarray) -> bool:
    return all(((mat[rows] == 0) | (mat[rows] == 1)).all()
               for rows in row_slices(mat, COMPARE_BLOCK))


def nonzero_powers_of_two(arr: np.ndarray) -> bool:
    """Every nonzero entry is a positive power of two."""
    for rows in row_slices(arr, COMPARE_BLOCK):
        vals = arr[rows]
        vals = vals[vals != 0]
        if not ((vals > 0) & ((vals & (vals - 1)) == 0)).all():
            return False
    return True


def dickson_coeffs(m: int) -> tuple[int, ...]:
    """Coefficients of the Dickson polynomial D_m, with D_m(z + 1/z) = z^m + z^-m.

    Closed form: D_m(x) = sum_k (-1)^k m/(m-k) C(m-k, k) x^(m-2k).  The
    terms are generated by their ratio, t_(k+1)/t_k =
    -(m-2k)(m-2k-1) / ((k+1)(m-k-1)), each step an exact division.
    """
    out = [0] * (m + 1)
    term = 1  # k = 0
    for k in range(m // 2 + 1):
        out[m - 2 * k] = term
        if m - k - 1:
            term = -term * (m - 2 * k) * (m - 2 * k - 1) // ((k + 1) * (m - k - 1))
    return tuple(out)


def min_poly_matches_dickson(n: int) -> bool:
    """The level-``n`` minimal polynomial, built by the ``x^2 - 2``
    composition tower, equals the closed form D_(2^n): delta_n = z + 1/z
    with z^(2^n) = i, so D_(2^n)(delta_n) = i + 1/i = 0."""
    return cyclotomic.min_poly(n).coeffs == dickson_coeffs(1 << n)


def total_dimension_matches_closed_form(m: int, q: cyclotomic.CycInt) -> bool:
    """``q`` is the paper's closed form 2^k / (2 - delta_(n-1)) for the
    total dimension at chain index ``m``, tested without dividing:
    ``q * (2 - delta_(n-1)) == 2^k`` at level ``m // 2``.

    At even ``m``, n = m/2 and k = n + 2; at odd ``m``, n = (m+1)/2 and
    k = n + 1; the generator at level -1 counts as -2, so at ``m = 0`` the
    denominator is 4.  The ring has no zero divisors, so one product pins
    ``q`` down exactly.
    """
    level = m // 2
    n = (m + 1) // 2
    if n == 0:
        den = cyclotomic.CycInt.from_int(4, level)
    else:
        den = 2 - cyclotomic.embed(cyclotomic.CycInt.delta(n - 1), level)
    power = cyclotomic.CycInt.from_int(1 << (n + 2 - m % 2), level)
    return q.level == level and q * den == power


def expected_component_count(m: int) -> int:
    """Blocks at chain index ``m``: one at odd indices, ``m // 2 + 1`` at
    even ones."""
    return 1 if m % 2 else m // 2 + 1


# ----------------------------------------------------------------------
# the suite


def cyclotomic_composition(max_level):
    ok = all(min_poly_matches_dickson(k) for k in range(1, max_level + 1))
    return ok, f"composition tower equals D_(2^n), levels 1..{max_level}"


def d_basis_roundtrip(max_level):
    small = min(max_level, 5)
    for n in range(small + 1):
        for mask in range(1 << n):
            e = cyclotomic.d_basis_element(mask, n)
            vec = cyclotomic.to_d_basis(e)
            if vec != [1 if k == mask else 0 for k in range(1 << n)]:
                return False, f"level {n} mask {mask}"
    return True, f"levels 0..{small}"


def d_basis_vs_embedded_product(max_level):
    small = min(max_level, 5)
    for n in range(small + 1):
        for mask in range(1 << n):
            prod = cyclotomic.CycInt.one(n)
            for j in range(1, n + 1):
                if mask >> (j - 1) & 1:
                    prod = prod * cyclotomic.embed(cyclotomic.CycInt.delta(j), n)
            if prod != cyclotomic.d_basis_element(mask, n):
                return False, f"level {n} mask {mask}"
    return True, f"levels 0..{small}"


def structure_routes(max_level):
    small = min(max_level, 5)
    for n in range(small + 1):
        gen = fusion._structure_from_generators(n)
        rec = fusion._structure_from_recursion(n)
        ora = fusion._structure_from_oracle(n)
        if not (np.array_equal(gen, rec) and np.array_equal(gen, ora)):
            return False, f"level {n}"
    return True, f"three routes, levels 0..{small}"


def structure_powers_of_two(max_level):
    small = min(max_level, 5)
    for n in range(small + 1):
        if not nonzero_powers_of_two(fusion._structure_from_generators(n)[:, 3]):
            return False, f"level {n}"
    return True, f"levels 0..{small}"


def structure_self_dual(max_level):
    for n in range(min(max_level, 5) + 1):
        rec = fusion._structure_from_generators(n)
        paired = np.zeros(1 << n, dtype=bool)
        paired[rec[(rec[:, 0] == rec[:, 1]) & (rec[:, 2] == 0) & (rec[:, 3] >= 1), 0]] = True
        if not paired.all():
            return False, f"level {n} mask {np.argmin(paired)}"
    return True, "every class pairs with itself into the unit"


def mult_matrix_routes(max_level):
    lev = min(max_level + 2, 10)
    for n in range(lev + 1):
        gen = fusion.generator_matrix(n, n) if n else np.zeros((1, 1), dtype=np.int64)
        block = fusion.mult_matrix(n)
        if not np.array_equal(gen, block):
            return False, f"level {n}"
        if cyclotomic.eval_min_poly_at_matrix(n, block).any():
            return False, f"annihilation fails at level {n}"
    return True, f"generator matrix = block recursion and annihilation, levels 0..{lev}"


def frobenius_rule(max_level):
    lev = min(max_level + 2, 8)
    for n in range(2, lev + 1):
        tw = fusion.frobenius_twist(fusion.simple_elt(n, 1 << (n - 1)))
        if tw.as_dict() != {1 << (n - 2): 1}:
            return False, f"level {n}"
    return True, f"top generator shifts down, levels 2..{lev}"


def frobenius_multiplicative(max_level):
    lev = min(max_level, 4)
    for n in range(lev + 1):
        for s in range(0, 1 << n, 2):
            for t in range(0, 1 << n, 2):
                a, b = fusion.simple_elt(n, s), fusion.simple_elt(n, t)
                lhs = fusion.frobenius_twist(fusion.product(a, b))
                rhs = fusion.product(
                    fusion.frobenius_twist(a), fusion.frobenius_twist(b)
                )
                if lhs != rhs:
                    return False, f"level {n}, masks {s},{t}"
    return True, f"on twist-nonzero classes, levels 0..{lev}"


def chebyshev_clebsch_gordan(max_level):
    for a in range(0, 25, 3):
        for b in range(0, 25, 4):
            lhs = chebyshev.cheb_q(a) * chebyshev.cheb_q(b)
            rhs = cyclotomic.IntPoly(())
            for k in range(min(a, b) + 1):
                rhs = rhs + chebyshev.cheb_q(a + b - 2 * k)
            if lhs != rhs:
                return False, f"degrees {a},{b}"
    return True, "product-to-sum identity on sampled degree pairs"


def chebyshev_annihilation(max_level):
    lev = min(max_level + 2, 8)
    for n in range(lev + 1):
        xn = fusion.simple_elt(n, 1 << (n - 1)) if n else fusion.fusion_elt(0, {})
        if not chebyshev.eval_poly(chebyshev.cheb_q((1 << (n + 1)) - 1), xn).is_zero:
            return False, f"level {n}"
        top = chebyshev.eval_poly(chebyshev.cheb_q((1 << n) - 1), xn)
        if top.as_dict() != {(1 << n) - 1: 1}:
            return False, f"top image at level {n}"
    return True, f"levels 0..{lev}"


def tilting_triangular(max_level):
    for m, row in enumerate(tilting.tensor_v_rows(40)):
        by_chars = tilting.decompose(
            tilting.char_mul(tilting.tilt_char(m), tilting.weyl_char(1))
        )
        if row != by_chars.as_dict() or row.get(m + 1) != 1:
            return False, f"index {m}"
    return True, "digit rows equal the character route and are unitriangular, indices 0..40"


def tilting_g_polys(max_level):
    for k in range(min(max_level + 2, 7) + 1):
        if tilting.in_T1_polynomial((1 << k) - 1) != chebyshev.cheb_q((1 << k) - 1):
            return False, f"k={k}"
    return True, "degree-(2^k - 1) polynomials match the Chebyshev family"


def tilting_functor_multiplicative(max_level):
    n = min(max_level, 4)
    for lev in range(n + 1):
        if tilting.digit_images(range(41), lev) != tilting.functor_images(40, lev):
            return False, f"digit images differ from the row step at level {lev}"
    for a in range(0, 15, 2):
        for b in range(1, 15, 3):
            prod = tilting.decompose(
                tilting.char_mul(tilting.tilt_char(a), tilting.tilt_char(b))
            )
            lhs = tilting.functor_to_fusion(prod, n)
            rhs = fusion.product(
                tilting.functor_to_fusion(tilting.TiltSum.from_dict({a: 1}), n),
                tilting.functor_to_fusion(tilting.TiltSum.from_dict({b: 1}), n),
            )
            if lhs != rhs:
                return False, f"indices {a},{b} at level {n}"
    return True, (f"digit images equal the row step at indices 0..40, levels 0..{n}; "
                  f"multiplicative on sampled index pairs at level {n}")


def invariants_triple(max_level):
    n_max = min(max_level, 4)
    for n in range(n_max + 1):
        columns = [route(n, 12) for route in invariants.ROUTES.values()]
        for m, values in enumerate(zip(*columns)):
            if len(set(values)) != 1:
                return False, f"(m, n) = ({m}, {n})"
    return True, f"three routes, levels 0..{n_max}, orders 0..12"


def verlinde_qdims(max_level):
    for n in range(1, min(max_level + 1, 6)):
        topl = (1 << (n + 1)) - 2
        for a in range(0, topl + 1, max(1, topl // 4)):
            for b in range(0, topl + 1, max(1, topl // 4)):
                lhs = invariants.verlinde_qdim(a, n) * invariants.verlinde_qdim(b, n)
                rhs = sum(
                    invariants.verlinde_qdim(c, n)
                    for c in invariants.verlinde_product(a, b, n)
                )
                if abs(lhs - rhs) > 1e-9:
                    return False, f"labels {a},{b} at level {n}"
    return True, "quantum dimensions multiplicative within 1e-9"


def homology_cartan(max_level):
    for m in range(2 * max_level + 2):
        car = homology.cartan(m)
        if not (symmetric(car) and nonzero_powers_of_two(car)):
            return False, f"index {m}"
    return True, f"symmetric with power-of-two entries, indices 0..{2 * max_level + 1}"


def homology_ext_stabilizes(max_level):
    for s in range(16):
        for t in range(16):
            stab = 2 * max(s.bit_length(), t.bit_length(), 0) + 1
            vals = {homology.ext1_dim(m, s, t) for m in range(stab, stab + 8)}
            if len(vals) != 1:
                return False, f"masks {s},{t}"
    return True, "values constant beyond the stabilization index"


def homology_dim_routes(max_level):
    for m in range(2 * max_level + 2):
        by_cartan = homology._proj_fpdims_cartan(m)
        for smask, (a, b) in enumerate(zip(homology.proj_fpdims(m), by_cartan)):
            if a != b:
                return False, f"projective dimension at index {m}, mask {smask}"
        total = homology.category_fpdim(m)
        if total != homology._category_fpdim_from_projectives(by_cartan):
            return False, f"total dimension at index {m}: recursion and projective sum differ"
        if not total_dimension_matches_closed_form(m, total):
            return False, f"total dimension at index {m}: closed form fails"
    return True, f"projective and total dimensions, indices 0..{2 * max_level + 1}"


def homology_doubling(max_level):
    for n in range(1, max_level + 1):
        even = homology.category_fpdim(2 * n)
        odd = homology.category_fpdim(2 * n - 1)
        if even != 2 * cyclotomic.embed(odd, even.level):
            return False, f"index pair {2 * n - 1},{2 * n}"
    return True, "each even index doubles the preceding odd one"


def homology_blocks(max_level):
    for m in range(1, 2 * max_level + 2, 2):
        if len(homology.block_components(m)) != expected_component_count(m):
            return False, f"odd index {m} disconnected"
    return True, "odd indices are single blocks"


CHECKS = {
    "chebyshev/annihilation": chebyshev_annihilation,
    "chebyshev/clebsch-gordan": chebyshev_clebsch_gordan,
    "cyclotomic/composition-tower": cyclotomic_composition,
    "cyclotomic/d-basis-roundtrip": d_basis_roundtrip,
    "cyclotomic/d-basis-vs-embedded-product": d_basis_vs_embedded_product,
    "fusion/frobenius-multiplicative": frobenius_multiplicative,
    "fusion/frobenius-rule": frobenius_rule,
    "fusion/mult-matrix-routes": mult_matrix_routes,
    "fusion/self-dual": structure_self_dual,
    "fusion/structure-powers-of-two": structure_powers_of_two,
    "fusion/structure-routes": structure_routes,
    "homology/blocks-odd-connected": homology_blocks,
    "homology/cartan-shape": homology_cartan,
    "homology/category-doubling": homology_doubling,
    "homology/dimension-routes": homology_dim_routes,
    "homology/ext-stabilization": homology_ext_stabilizes,
    "invariants/triple-agreement": invariants_triple,
    "invariants/verlinde-qdims": verlinde_qdims,
    "tilting/functor-multiplicative": tilting_functor_multiplicative,
    "tilting/g-vs-chebyshev": tilting_g_polys,
    "tilting/tensor-triangular": tilting_triangular,
}


def run(max_level: int) -> list[tuple[str, bool, str]]:
    """``(name, passed, detail)`` for every suite check, sorted by name,
    after refusing a ``max_level`` outside ``0..VERIFY_LEVEL_CAP``.  A
    check that raises counts as failed."""
    cyclotomic.check_level(max_level, VERIFY_LEVEL_CAP, "verify level", "VERIFY_LEVEL_CAP")
    out = []
    for name, check in sorted(CHECKS.items()):
        try:
            passed, detail = check(max_level)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append((name, passed, detail))
    return out
