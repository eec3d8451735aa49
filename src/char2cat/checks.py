"""The ``verify`` cross-check suite and the predicates it shares with the
command checks.

Each suite check is a function of ``max_level`` returning ``(passed,
detail)``; ``CHECKS`` maps the printed check names to them.  A predicate
used both by a command's report and by a suite check lives here once, so
the two always test the same property.
"""

from __future__ import annotations

import numpy as np

from . import chebyshev, cyclotomic, fusion, homology, invariants, tilting

__all__ = ["CHECKS", "symmetric", "nonzero_powers_of_two", "composition_step",
           "expected_component_count"]


# ----------------------------------------------------------------------
# predicates shared with the command checks


def symmetric(mat: np.ndarray) -> bool:
    return bool((mat == mat.T).all())


def nonzero_powers_of_two(arr: np.ndarray) -> bool:
    """Every nonzero entry is a positive power of two."""
    vals = arr[arr != 0]
    return bool(((vals > 0) & ((vals & (vals - 1)) == 0)).all())


def composition_step(n: int) -> bool:
    """The level-``n`` minimal polynomial is the level ``n - 1`` one
    composed with ``x^2 - 2``."""
    prev = cyclotomic.min_poly(n - 1)
    return cyclotomic.min_poly(n) == cyclotomic.IntPoly(
        cyclotomic._compose_square_minus_two(prev.coeffs)
    )


def expected_component_count(m: int) -> int:
    """Blocks at chain index ``m``: one at odd indices, ``m // 2 + 1`` at
    even ones."""
    return 1 if m % 2 else m // 2 + 1


# ----------------------------------------------------------------------
# the suite


def cyclotomic_composition(max_level):
    ok = all(composition_step(k) for k in range(1, max_level + 1))
    return ok, f"levels 1..{max_level}"


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
        if not nonzero_powers_of_two(fusion._structure_from_generators(n)):
            return False, f"level {n}"
    return True, f"levels 0..{small}"


def structure_self_dual(max_level):
    for n in range(min(max_level, 5) + 1):
        t = fusion._structure_from_generators(n)
        for s in range(1 << n):
            if t[s, s, 0] < 1:
                return False, f"level {n} mask {s}"
    return True, "every class pairs with itself into the unit"


def mult_matrix_routes(max_level):
    lev = min(max_level + 2, 10)
    for n in range(lev + 1):
        gen = fusion.generator_matrix(n, n) if n else np.zeros((1, 1), dtype=np.int64)
        if not np.array_equal(gen, fusion.mult_matrix(n)):
            return False, f"level {n}"
        if cyclotomic.eval_min_poly_at_matrix(n, fusion.mult_matrix(n)).any():
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
    for m in range(41):
        if tilting.tilt_tensor_v(m).as_dict().get(m + 1) != 1:
            return False, f"index {m}"
    return True, "tensor-by-degree-1 is unitriangular, indices 0..40"


def tilting_g_polys(max_level):
    for k in range(min(max_level + 2, 7) + 1):
        if tilting.in_T1_polynomial((1 << k) - 1) != chebyshev.cheb_q((1 << k) - 1):
            return False, f"k={k}"
    return True, "degree-(2^k - 1) polynomials match the Chebyshev family"


def tilting_functor_multiplicative(max_level):
    n = min(max_level, 4)
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
    return True, f"sampled index pairs at level {n}"


def invariants_triple(max_level):
    n_max = min(max_level, 4)
    for n in range(n_max + 1):
        sf = invariants.series_f(n, 12)
        for m in range(13):
            a = invariants.d_recursive(m, n)
            b = invariants.path_count((1 << (n + 1)) - 1, 2 * m)
            if not (a == b == sf.coefficient(m)):
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
        if (homology._category_fpdim_from_projectives(m)
                != homology._category_fpdim_closed_form(m)):
            return False, f"total dimension at index {m}"
        for smask in range(1 << (m // 2)):
            if (homology._proj_fpdim_cartan(m, smask)
                    != homology._proj_fpdim_recursive(m, smask)):
                return False, f"projective dimension at index {m}, mask {smask}"
    return True, f"projective and total dimensions, indices 0..{2 * max_level + 1}"


def homology_doubling(max_level):
    for n in range(1, max_level + 1):
        even = homology.category_fpdim(2 * n)
        odd = homology.category_fpdim(2 * n - 1)
        lhs = even.num * odd.den
        rhs = cyclotomic.embed(odd.num, even.level) * (2 * even.den)
        if lhs != rhs:
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
