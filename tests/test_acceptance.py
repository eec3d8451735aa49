"""Acceptance gate: every shipped claim, each checked at its stated
tolerance and time budget.

Each criterion is one test.  A decorator records a PASS/FAIL line that
the conftest hook replays at the end of the pytest run; running this
file directly (``python tests/test_acceptance.py``) prints the same
lines immediately.
"""

import functools
import json
import math
import random
import sys
import time

import numpy as np

import char2cat
import conftest
import golden
from char2cat.chebyshev import cheb_q, eval_poly
from char2cat.cyclotomic import (
    CycInt,
    d_basis_element,
    delta_float,
    embed,
    eval_min_poly_at_matrix,
    to_d_basis,
)
from char2cat.fusion import (
    frobenius_twist,
    fusion_elt,
    generator_matrix,
    mult_matrix,
    product,
    simple_elt,
)
from char2cat.homology import (
    CATEGORY_INDEX_CAP,
    algebra_fpdim,
    block_components,
    cartan,
    category_fpdim,
    ext1_dim,
    ext1_matrix,
)
from char2cat.invariants import ROUTES, recursion_column
from char2cat.tilting import (
    TiltSum,
    char_mul,
    decompose,
    in_T1_polynomial,
    tilt_char,
    weyl_char,
)

_CRITERIA = []


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.perf_counter()
            try:
                fn()
            except BaseException as exc:
                conftest.record_criterion(
                    name, False, f"{type(exc).__name__}: {exc}"
                )
                raise
            conftest.record_criterion(
                name, True, f"{time.perf_counter() - t0:.2f}s"
            )

        _CRITERIA.append(wrapper)
        return wrapper

    return deco


# ----------------------------------------------------------------------
# 1. tilting tensor table, exact, under one second


@criterion("1 tilting tensor-by-V table m<=30, exact, <1s")
def test_criterion_1_tilting_table():
    t0 = time.perf_counter()
    for m in range(31):
        got = decompose(char_mul(tilt_char(m), weyl_char(1))).as_dict()
        assert got == golden.TENSOR_BY_V[m], m
    assert time.perf_counter() - t0 < 1.0


# ----------------------------------------------------------------------
# 2. structure constants vs the dimension-ring oracle and the level
# recursion, all levels <= 8


@criterion("2 structure constants = dimension-ring oracle = level recursion n<=8, n=8 <10s")
def test_criterion_2_structure_constants():
    from char2cat.fusion import (
        _structure_from_generators,
        _structure_from_oracle,
        _structure_from_recursion,
    )

    rng = random.Random(0)
    for n in range(9):
        t0 = time.perf_counter()
        by_rule = _structure_from_generators(n)
        by_ring = _structure_from_oracle(n)
        assert np.array_equal(by_rule, by_ring), n
        assert np.array_equal(by_rule, _structure_from_recursion(n)), n
        vals = by_rule[:, 3]
        assert ((vals > 0) & ((vals & (vals - 1)) == 0)).all(), n
        elapsed = time.perf_counter() - t0
        if n == 8:
            assert elapsed < 10.0, f"level 8 took {elapsed:.1f}s"
        # literal spot checks straight through to_d_basis
        size = 1 << n
        pairs = (
            [(a, b) for a in range(size) for b in range(size)]
            if n <= 4
            else [(rng.randrange(size), rng.randrange(size)) for _ in range(60)]
        )
        for a, b in pairs:
            coords = to_d_basis(d_basis_element(a, n) * d_basis_element(b, n))
            rows = by_rule[(by_rule[:, 0] == a) & (by_rule[:, 1] == b)]
            got = np.zeros(size, dtype=np.int64)
            got[rows[:, 2]] = rows[:, 3]
            assert list(got) == coords, (n, a, b)


# ----------------------------------------------------------------------
# 3. golden tables


@criterion("3 golden tables: Cartan, Ext1, level-2/3 products, exact")
def test_criterion_3_golden_tables():
    assert cartan(5).tolist() == [list(r) for r in golden.CARTAN_INDEX5]
    assert ext1_matrix(5).tolist() == [list(r) for r in golden.EXT1_INDEX5]
    for table, n in ((golden.PRODUCTS_LEVEL2, 2), (golden.PRODUCTS_LEVEL3, 3)):
        for (a, b), want in table.items():
            got = product(simple_elt(n, a), simple_elt(n, b)).as_dict()
            assert got == want, (n, a, b)


# ----------------------------------------------------------------------
# 4. dimension values: closed forms, identities, floats


@criterion("4 dimension closed forms m<=13 exact, floats 1e-9 / 1e-12")
def test_criterion_4_dimensions():
    from char2cat.checks import total_dimension_matches_closed_form

    for m in range(14):
        val = category_fpdim(m)
        assert total_dimension_matches_closed_form(m, val), m
        if m % 2 == 0 and m > 0:
            n = m // 2
            want = (1 << n) / math.sin(math.pi / (1 << (n + 1))) ** 2
            assert abs(val.to_float() - want) <= 1e-9 * want, m
    for n in range(11):
        assert embed(algebra_fpdim(n), n + 1) == CycInt.delta(n + 1) ** 2, n
    for mask in range(8):
        got = d_basis_element(mask, 3).to_float()
        assert abs(got - golden.FPDIM_FLOATS_LEVEL3[mask]) <= 1e-12, mask


# ----------------------------------------------------------------------
# 5. annihilation identities, exact


@criterion("5 annihilation and top-class identities n,k<=8, exact")
def test_criterion_5_annihilation():
    for n in range(9):
        xn = simple_elt(n, 1 << (n - 1)) if n else fusion_elt(0, {})
        assert eval_poly(cheb_q((1 << (n + 1)) - 1), xn).is_zero, n
        top = eval_poly(cheb_q((1 << n) - 1), xn)
        assert top.as_dict() == {(1 << n) - 1: 1}, n
        assert not eval_min_poly_at_matrix(n, mult_matrix(n)).any(), n
    for k in range(9):
        m = (1 << k) - 1
        assert in_T1_polynomial(m) == cheb_q(m), k


# ----------------------------------------------------------------------
# 6. invariant dimensions by three routes


@criterion("6 invariant dims: three routes n<=5 m<=20 exact, <5s")
def test_criterion_6_invariants():
    t0 = time.perf_counter()
    for n in range(6):
        rec, pth, ser = (route(n, 20) for route in ROUTES.values())
        assert rec == pth == ser, n
    assert time.perf_counter() - t0 < 5.0
    # explicit enumeration: the two closed 4-step walks behind d(2,1)
    walks = []

    def wander(pos, path):
        if len(path) == 5:
            if pos == 0:
                walks.append(tuple(path))
            return
        for nxt in (pos - 1, pos + 1):
            if 0 <= nxt <= 2:
                wander(nxt, path + [nxt])

    wander(0, [0])
    assert len(walks) == 2 == recursion_column(1, 2)[2]
    assert set(walks) == {(0, 1, 0, 1, 0), (0, 1, 2, 1, 0)}


# ----------------------------------------------------------------------
# 7. internal route agreement and stabilization


@criterion("7 matrix routes n<=10, Cartan shape m<=13, Ext1 stabilization")
def test_criterion_7_routes_and_stabilization():
    assert np.array_equal(mult_matrix(0), np.zeros((1, 1), dtype=np.int64))
    for n in range(1, 11):
        assert np.array_equal(generator_matrix(n, n), mult_matrix(n)), n
    for m in range(14):
        car = cartan(m)
        assert (car == car.T).all(), m
        for v in car.flatten():
            iv = int(v)
            assert iv >= 0 and (iv == 0 or iv & (iv - 1) == 0), m
    # exhaustive over subsets of {1..5}
    for s in range(32):
        for t in range(32):
            stab = 2 * max(s.bit_length(), t.bit_length(), 0) + 1
            base = ext1_dim(stab, s, t)
            for m in range(stab, min(stab + 12, 26)):
                assert ext1_dim(m, s, t) == base, (s, t, m)


# ----------------------------------------------------------------------
# 8. twist endofunctor


@criterion("8 twist rule on generators n<=8, multiplicative n<=5")
def test_criterion_8_twist():
    assert frobenius_twist(simple_elt(1, 1)).is_zero
    for n in range(2, 9):
        tw = frobenius_twist(simple_elt(n, 1 << (n - 1)))
        assert tw.as_dict() == {1 << (n - 2): 1}, n
    for n in range(6):
        for s in range(1 << n):
            for t in range(1 << n):
                if (s | t) & 1:
                    continue  # twist kills classes containing index 1
                a, b = simple_elt(n, s), simple_elt(n, t)
                assert frobenius_twist(product(a, b)) == product(
                    frobenius_twist(a), frobenius_twist(b)
                ), (n, s, t)


# ----------------------------------------------------------------------
# 9. the ring at its cap


@criterion("9 fpdim --level 12 --simple 4095 (RING_LEVEL_CAP) cold via cli.run, <5s")
def test_criterion_9_ring_cap():
    import tempfile
    from pathlib import Path

    from char2cat import cli

    char2cat.clear_caches()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "cap.json"
        t0 = time.perf_counter()
        code = cli.run(["fpdim", "--level", "12", "--simple", "4095", "--out", str(out)])
        elapsed = time.perf_counter() - t0
        payload = cli.parse_json(out.read_text())
    assert code == 0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    assert len(payload["result"]["power_coeffs"]) == 4096
    want = math.prod(delta_float(j) for j in range(1, 13))
    assert abs(payload["result"]["float"] - want) <= 1e-9 * want


# ----------------------------------------------------------------------
# 10. homology at its cap


@criterion("10 Cartan, Ext1 and blocks at CATEGORY_INDEX_CAP=25 cold, <8s")
def test_criterion_10_homology_cap():
    m = CATEGORY_INDEX_CAP
    char2cat.clear_caches()
    try:
        t0 = time.perf_counter()
        car, ext = cartan(m), ext1_matrix(m)
        assert (car == car.T).all() and (ext == ext.T).all()
        vals = car[car != 0]
        assert ((vals > 0) & ((vals & (vals - 1)) == 0)).all()
        assert ((ext == 0) | (ext == 1)).all()
        rng = random.Random(0)
        for _ in range(200):
            s, t = rng.randrange(len(ext)), rng.randrange(len(ext))
            assert ext[s, t] == ext1_dim(m, s, t), (s, t)
        assert len(block_components(m)) == 1
        assert len(block_components(m - 1)) == 13
        elapsed = time.perf_counter() - t0
    finally:
        char2cat.clear_caches()
    assert elapsed < 8.0, f"took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 11. invariant dimensions at the series order cap


@criterion("11 series_f(5, 256) = recursion = paths at every order m<=256, <1s")
def test_criterion_11_series_cap():
    t0 = time.perf_counter()
    rec, pth, ser = (route(5, 256) for route in ROUTES.values())
    assert len(ser) == 257 and rec == pth == ser
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


# ----------------------------------------------------------------------
# 12. the verify suite at its cap


@criterion("12 verify --max-level 8 (VERIFY_LEVEL_CAP) cold via cli.run, <35s")
def test_criterion_12_verify_cap():
    import tempfile
    from pathlib import Path

    from char2cat import checks, cli

    char2cat.clear_caches()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "verify.json"
            t0 = time.perf_counter()
            code = cli.run(["verify", "--max-level", str(checks.VERIFY_LEVEL_CAP),
                            "--out", str(out)])
            elapsed = time.perf_counter() - t0
            payload = cli.parse_json(out.read_text())
    finally:
        char2cat.clear_caches()
    assert code == 0
    assert len(payload["checks"]) == len(checks.CHECKS)
    assert all(c["pass"] for c in payload["checks"])
    assert elapsed < 35.0, f"took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 13. the table commands at their caps, printed through the CLI

# The child reports its own VmHWM: on Linux ``ru_maxrss`` keeps, across
# exec, the peak of the process that started the child, here the test run.
# The child hashes its ``--out`` file after the timed run.
_CAP_CHILD = """
import hashlib, sys, time
from char2cat import cli, tilting
t0 = time.perf_counter()
code = cli.run(sys.argv[2:] + ["--out", sys.argv[1]])
elapsed = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    peak_kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
sha = hashlib.sha256()
with open(sys.argv[1], "rb") as fh:
    for chunk in iter(lambda: fh.read(1 << 20), b""):
        sha.update(chunk)
print(code, elapsed, peak_kb, tilting.tilt_char.cache_info().currsize, sha.hexdigest())
"""

# The sha256 of each cap output, recorded before the table writers streamed
# their rows (the ext1 json and text ones since their component-count detail
# names the Ext1 graph): the bytes are part of the contract.
_CAP_DIGESTS = {
    "cartan --index 25":
        "4c691acb9769a872aac66671257ee5671d61f80a99cf827a2d1bdc1367dcbf3e",
    "cartan --index 25 --format csv":
        "62214ad15edc1f71c597ada48ded7085fa8c5a65e7f41da798970f2519489d08",
    "cartan --index 25 --format text":
        "49d544a391eb5a0d88ed1656dd95e104b34fd06f0ca469ba570bae6dd652d5bb",
    "fusion --level 8":
        "fda88e3b6d07250b76dc738adc6722e8a780bdb6892e56104bc9757e97b7105b",
    "tilt --functor 12 --max-m 2047":
        "dc6fd8f4732fd40218d168d0e190f92ee0d696bf8c952caa0f6a415a93a54855",
    "tilt --table --max-m 2047":
        "82ca81b0ffe42bf28fb03a6fc2b5a420ca59441688552c21e660a907f951d8ee",
    "tilt --decompose 2047":
        "03e3e58ba18800e11df7189914bdc64c25eb787b0f4fceb490588c711d02082f",
    "ext1 --index 25 --format json":
        "99bc7056da44d3d28321514624137156a27acf8a3d0ba9d4defbfec6672dcd8e",
    "ext1 --index 25 --format csv":
        "d80bb6c7add9fa00c79f62e5683d640cb1c72e2a176b0e20a9836e962ff7042c",
    "ext1 --index 25 --format text":
        "7e2b48ec4281f5fdec6133fe053ad37aaf1f22a2d685af7759d4469fa345f91b",
    "invariants --level 8 --max-m 256 --route all":
        "8a195aa99f369c5701876bd6a3352a85192b884a6fb34906b277be2141fa69b4",
    "fpdim --category --level 25 --format json":
        "86248ea8c90ca6badb3b9ef4d62387c60fe9ac3880fa1dee183a9ddae8c6bd55",
    "fpdim --category --level 25 --format text":
        "2a017db2b5662342d1729f1e8da518ffb931f02c5951d00e48da2b0f49f36b87",
    "minpoly --level 12 --format json":
        "bc4d757c02e81b4fd3172baae5469da4deb20d330ca4c63dea7d75b7df1ee525",
    "minpoly --level 12 --format text":
        "7438f1e9e308cc8f387d3b2990e3626a4373e03163a9fab0bbdb94426d2a4e7c",
    "fusion --level 12 --left 4095 --right 4095":
        "586784ec6df0675d64c2846467a547cd1ce645a45350de7514af592bc94c1b6c",
    "fpdim --algebra --level 11":
        "f81a3886b3f8e69e940627b19e801916594b9499cc0f7eaa67ffa8edda36b832",
}


def _report_checks(path):
    """The checks of a JSON report, read from its head alone: sorted keys
    put the ``checks`` block first."""
    head = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith('  "command": '):
                break
            head.append(line)
    return json.loads("".join(head).rstrip().rstrip(",") + "\n}")["checks"]


def _cli_in_child(argv):
    """Run ``argv`` through ``cli.run`` in a fresh interpreter, so every
    cache starts cold and the peak RSS is the command's own.  Returns the
    exit code, the seconds inside ``cli.run``, the peak RSS in MB, the
    report's checks (``None`` unless the output is JSON) and the number of
    entries left in the ``tilt_char`` cache.  The sha256 of the output must
    be the one recorded in ``_CAP_DIGESTS``."""
    import os
    import subprocess
    import tempfile
    from pathlib import Path

    import char2cat

    env = dict(os.environ, PYTHONPATH=str(Path(char2cat.__file__).parents[1]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "cap.json"
        proc = subprocess.run(
            [sys.executable, "-c", _CAP_CHILD, str(out), *argv],
            capture_output=True, text=True, env=env, check=True,
        )
        code, elapsed, peak_kb, cached, digest = proc.stdout.split()
        assert digest == _CAP_DIGESTS[" ".join(argv)], argv
        is_json = "--format" not in argv or argv[argv.index("--format") + 1] == "json"
        report_checks = _report_checks(out) if is_json else None
        return int(code), float(elapsed), int(peak_kb) / 1024, report_checks, int(cached)


@criterion("13 cartan --index 25 json, csv and text <8s, <600MB and fusion --level 8 "
           "json <7s, <250MB cold via cli.run, bytes as recorded")
def test_criterion_13_tables_at_caps():
    from char2cat.fusion import STRUCTURE_LEVEL_CAP

    cartan_checks = ["symmetric", "nonzero-entries-are-powers-of-two"]
    index = str(CATEGORY_INDEX_CAP)
    for argv, names, budget_s, budget_mb in (
        (["cartan", "--index", index], cartan_checks, 8.0, 600),
        (["cartan", "--index", index, "--format", "csv"], None, 8.0, 600),
        (["cartan", "--index", index, "--format", "text"], None, 8.0, 600),
        (["fusion", "--level", str(STRUCTURE_LEVEL_CAP)],
         ["nonzero-coefficients-are-powers-of-two", "iteration-matches-level-recursion"],
         7.0, 250),
    ):
        code, elapsed, rss_mb, report_checks, _ = _cli_in_child(argv)
        # csv and text carry no checks: exit code 0 means every check passed
        assert code == 0, argv
        if names:
            assert [c["name"] for c in report_checks] == names, argv
            assert all(c["pass"] for c in report_checks), argv
        assert elapsed < budget_s, f"{argv}: took {elapsed:.1f}s"
        assert rss_mb < budget_mb, f"{argv}: peak RSS {rss_mb:.0f} MB"


# ----------------------------------------------------------------------
# 14. the tilt commands at their caps, printed through the CLI


@criterion("14 tilt --functor 12 --max-m 2047 <3.5s, <200MB, --table --max-m 2047 <0.25s, "
           "<170MB, --decompose 2047 <5s, <160MB (json) cold via cli.run, "
           "no tilt_char cached, bytes as recorded")
def test_criterion_14_tilt_at_caps():
    from char2cat.cyclotomic import RING_LEVEL_CAP
    from char2cat.tilting import TILT_INDEX_CAP

    index = str(TILT_INDEX_CAP)
    for argv, names, budget_s, budget_mb in (
        (["tilt", "--functor", str(RING_LEVEL_CAP), "--max-m", index],
         ["kills-first-index-above-quotient"], 3.5, 200),
        (["tilt", "--table", "--max-m", index], ["top-summand-multiplicity-one"], 0.25, 170),
        (["tilt", "--decompose", index], ["total-dimension-is-2^r"], 5.0, 160),
    ):
        code, elapsed, rss_mb, report_checks, cached = _cli_in_child(argv)
        assert code == 0, argv
        assert [c["name"] for c in report_checks] == names, argv
        assert all(c["pass"] for c in report_checks), argv
        assert elapsed < budget_s, f"{argv}: took {elapsed:.1f}s"
        assert rss_mb < budget_mb, f"{argv}: peak RSS {rss_mb:.0f} MB"
        # the output routes read Donkin's digits, not the characters
        assert cached == 0, argv


# ----------------------------------------------------------------------
# 15. the Ext1 table at its cap, printed through the CLI in every format


@criterion("15 ext1 --index 25 json, csv and text <7s, <850MB cold via cli.run, "
           "bytes as recorded")
def test_criterion_15_ext1_at_cap():
    for fmt, budget_s, budget_mb in (
        ("json", 7.0, 850), ("csv", 7.0, 850), ("text", 7.0, 850),
    ):
        argv = ["ext1", "--index", str(CATEGORY_INDEX_CAP), "--format", fmt]
        code, elapsed, rss_mb, report_checks, _ = _cli_in_child(argv)
        # csv and text carry no checks: exit code 0 means every check passed
        assert code == 0, fmt
        if fmt == "json":
            assert [c["name"] for c in report_checks] == [
                "symmetric", "entries-are-zero-or-one", "component-count",
            ]
            assert all(c["pass"] for c in report_checks)
        assert elapsed < budget_s, f"{fmt}: took {elapsed:.1f}s"
        assert rss_mb < budget_mb, f"{fmt}: peak RSS {rss_mb:.0f} MB"


# ----------------------------------------------------------------------
# 16. the invariant counts at their caps, every route


@criterion("16 invariants --level 8 (INVARIANTS_LEVEL_CAP) --max-m 256 (SERIES_ORDER_CAP) "
           "--route all cold via cli.run, <1s, <150MB, bytes as recorded")
def test_criterion_16_invariants_at_caps():
    from char2cat.invariants import INVARIANTS_LEVEL_CAP, SERIES_ORDER_CAP

    argv = ["invariants", "--level", str(INVARIANTS_LEVEL_CAP),
            "--max-m", str(SERIES_ORDER_CAP), "--route", "all"]
    code, elapsed, rss_mb, report_checks, _ = _cli_in_child(argv)
    assert code == 0
    assert [c["name"] for c in report_checks] == ["routes-agree"]
    assert all(c["pass"] for c in report_checks)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert rss_mb < 150, f"peak RSS {rss_mb:.0f} MB"


# ----------------------------------------------------------------------
# 17. the total dimension at its cap, printed through the CLI


@criterion("17 fpdim --category --level 25 (CATEGORY_INDEX_CAP) json and text "
           "cold via cli.run, <8s, <250MB, bytes as recorded")
def test_criterion_17_total_dimension_at_cap():
    for fmt in ("json", "text"):
        argv = ["fpdim", "--category", "--level", str(CATEGORY_INDEX_CAP), "--format", fmt]
        code, elapsed, rss_mb, report_checks, _ = _cli_in_child(argv)
        # text carries no checks: exit code 0 means every check passed
        assert code == 0, fmt
        if fmt == "json":
            assert [c["name"] for c in report_checks] == ["projective-sum-matches-closed-form"]
            assert all(c["pass"] for c in report_checks)
        assert elapsed < 8.0, f"{fmt}: took {elapsed:.1f}s"
        assert rss_mb < 250, f"{fmt}: peak RSS {rss_mb:.0f} MB"


# ----------------------------------------------------------------------
# 18. the minimal polynomial, a product of simples and the algebra
# dimension at the ring cap, printed through the CLI


@criterion("18 minpoly --level 12 (RING_LEVEL_CAP) json and text <2.5s, <175MB, "
           "fusion --level 12 --left 4095 --right 4095 <1s, <175MB and fpdim --algebra "
           "--level 11 <1s, <175MB cold via cli.run, bytes as recorded")
def test_criterion_18_min_poly_at_cap():
    from char2cat.cyclotomic import RING_LEVEL_CAP

    cap, top = str(RING_LEVEL_CAP), str((1 << RING_LEVEL_CAP) - 1)
    for argv, names, budget_s, budget_mb in (
        (["minpoly", "--level", cap, "--format", "json"], ["composition-step"], 2.5, 175),
        (["minpoly", "--level", cap, "--format", "text"], None, 2.5, 175),
        (["fusion", "--level", cap, "--left", top, "--right", top],
         ["product-matches-dimension-oracle", "coefficients-nonnegative"], 1.0, 175),
        (["fpdim", "--algebra", "--level", str(RING_LEVEL_CAP - 1)],
         ["equals-square-of-next-generator"], 1.0, 175),
    ):
        code, elapsed, rss_mb, report_checks, _ = _cli_in_child(argv)
        # text carries no checks: exit code 0 means every check passed
        assert code == 0, argv
        if names:
            assert [c["name"] for c in report_checks] == names, argv
            assert all(c["pass"] for c in report_checks), argv
        assert elapsed < budget_s, f"{argv}: took {elapsed:.2f}s"
        assert rss_mb < budget_mb, f"{argv}: peak RSS {rss_mb:.0f} MB"


def main() -> int:
    failures = 0
    for fn in _CRITERIA:
        try:
            fn()
        except BaseException:
            failures += 1
    for name, ok, detail in conftest.ACCEPTANCE_LINES:
        print(f"[{'PASS' if ok else 'FAIL'}] {name} ({detail})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
