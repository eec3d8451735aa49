"""Command-line front end.

Every subcommand handler returns a ``Report`` (the echoed command, its
parameters, a JSON-ready result payload, and a list of named pass/fail
checks) together with the text writer and the CSV writer of its payload;
the CSV writer is ``None`` where CSV is not defined.  Exit status is 0 on
success, 1 when any check fails or a computation meets an internal
inconsistency (``NotIntegral``, ``NotTiltingCharacter``), and 2 on usage
errors (including cap violations, whose messages name the cap, and an
``--out`` file that cannot be written).  ``run`` builds the report and its
checks before it opens ``--out`` or writes to stdout, so a usage error
writes nothing.

JSON is written by ``emit_json``, whose bytes are those of
``json.dumps(..., indent=2, sort_keys=True)``: indent 2, sorted keys, and
every integer a decimal string, so that arbitrary-precision results
survive any consumer.  Payloads hand their tables to it as ``int64``
matrices, ``writers.Records`` and ``FusionElt`` images, and the CSV and
text writers read the same tables.  Every format goes out a block at a
time through a ``writers.Out`` (see ``writers``); no string holds the
whole output.  Subsets appear both as sorted integer arrays and as their
printed ``V_m`` index.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import checks, cyclotomic, fusion, homology, invariants, tilting, writers
from .errors import Char2CatError, NotIntegral, NotTiltingCharacter

__all__ = ["Report", "run", "main"]


@dataclass
class Report:
    command: str
    params: dict
    result: object
    checks: list = field(default_factory=list)

    def add_check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "pass": bool(passed), "detail": detail})

    @property
    def failed(self) -> bool:
        return any(not c["pass"] for c in self.checks)


def _unjsonify(obj):
    """ASCII decimal strings back to integers: the inverse of writing
    integers as decimal strings."""
    if isinstance(obj, str):
        stripped = obj[1:] if obj.startswith("-") else obj
        if stripped.isascii() and stripped.isdigit():
            return int(obj)
        return obj
    if isinstance(obj, dict):
        return {k: _unjsonify(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_unjsonify(v) for v in obj]
    return obj


def emit_json(report: Report, write) -> None:
    """Hand ``report`` to ``write`` as the bytes of ``json.dumps(...,
    indent=2, sort_keys=True)`` and a newline, every integer written as a
    decimal string."""
    out = writers.Out(write)
    writers.write_json({"command": report.command, "params": report.params,
                        "result": report.result, "checks": report.checks}, 0, out)
    out.append("\n")
    out.flush()


def parse_json(text: str) -> dict:
    """Parse emitted JSON, restoring integer values."""
    return _unjsonify(json.loads(text))


# ----------------------------------------------------------------------
# payload builders


def _v_label(mask: int) -> str:
    return f"V_{mask}"


# the masks reaching this payload builder were validated by a FusionElt
def _subset_payload(mask: int) -> dict:
    return {"index": mask, "subset": fusion.mask_subset(mask)}


def _cyc_payload(e: cyclotomic.CycInt) -> dict:
    return {"level": e.level, "power_coeffs": list(e.coeffs), "float": e.to_float()}


def _matrix_payload(m: int, mat: np.ndarray) -> dict:
    size = mat.shape[0]
    return {
        "index": m,
        "labels": [_v_label(s) for s in range(size)],
        "matrix": mat,
    }


# ----------------------------------------------------------------------
# writers: a text writer appends the lines above the check lines to a
# ``writers.Out``, a CSV writer the lines of the table; each line ends in "\n"


def _terms(pairs) -> str:
    """``k*label + ...`` over ``(label, k)`` pairs, bare where ``k`` is 1,
    ``0`` when there are no terms."""
    return " + ".join(lbl if k == 1 else f"{k}*{lbl}" for lbl, k in pairs) or "0"


def _elt_terms(coeffs) -> str:
    return _terms((_v_label(mask), c) for mask, c in coeffs)


def _tilt_terms(summands) -> str:
    return _terms((f"T{s['index']}", s["mult"]) for s in summands)


def _text_fields(res, out: writers.Out) -> None:
    out.extend(f"{key}: {val}\n" for key, val in res.items())


def _csv_line(cells) -> str:
    return ",".join(map(str, cells))


def _matrix_lines(heads, mat: np.ndarray, template: str, out: writers.Out) -> None:
    """One line per row of ``mat``: its head, then its entries formatted by
    the ``%d`` template."""
    out.blocks([head + "".join(r) + "\n" for head, r in zip(heads[rows], cells)]
               for rows, cells in writers.matrix_blocks(mat, template))


def _text_matrix(res, out: writers.Out) -> None:
    labels, mat = res["labels"], res["matrix"]
    width = max(len(lbl) for lbl in labels) + 1
    colw = max(len(c) for c in labels + [str(mat.max()), str(mat.min())]) + 1
    out.append(" " * width + "".join(lbl.rjust(colw + 1) for lbl in labels) + "\n")
    _matrix_lines([lbl.ljust(width) for lbl in labels], mat, f"%{colw + 1}d", out)


def _text_ext1(res, out: writers.Out) -> None:
    _text_matrix(res, out)
    out.append(
        "components: "
        + "; ".join("{" + ", ".join(map(str, c)) + "}" for c in res["components"]) + "\n"
    )


def _csv_matrix(res, out: writers.Out) -> None:
    labels = res["labels"]
    out.append(_csv_line([""] + labels) + "\n")
    _matrix_lines(labels, res["matrix"], ",%d", out)


def _text_product(res, out: writers.Out) -> None:
    out.append(
        f"{_v_label(res['left']['index'])} * {_v_label(res['right']['index'])}"
        f" = {_elt_terms(res['product'].coeffs)}\n"
    )


def _record_lines(rec: writers.Records, templates, out: writers.Out) -> None:
    out.blocks(writers.record_blocks(rec.rows, list(enumerate(templates))))


def _text_structure(res, out: writers.Out) -> None:
    rec = res["nonzero"]
    out.append(f"level {res['level']}: {len(rec)} nonzero constants\n")
    _record_lines(rec, ("N[%d]", "[%d]", "[%d]", " = %d\n"), out)


def _csv_structure(res, out: writers.Out) -> None:
    rec = res["nonzero"]
    out.append(_csv_line(rec.keys) + "\n")
    _record_lines(rec, ["%d"] + [",%d"] * (len(rec.keys) - 2) + [",%d\n"], out)


def _text_tilt_table(res, out: writers.Out) -> None:
    out.extend(f"T{row['m']} x V = {_tilt_terms(row['summands'])}\n" for row in res["rows"])


def _csv_tilt_table(res, out: writers.Out) -> None:
    out.append("m,index,mult\n")
    out.extend(
        f"{row['m']},{s['index']},{s['mult']}\n" for row in res["rows"] for s in row["summands"]
    )


def _text_decompose(res, out: writers.Out) -> None:
    out.append(f"V^{res['power']} = {_tilt_terms(res['summands'])}\n")


def _text_functor(res, out: writers.Out) -> None:
    for row in res["rows"]:
        out.append(f"T{row['m']} -> {_elt_terms(row['image'].coeffs)}\n")
        out.spill()


def _csv_invariants(res, out: writers.Out) -> None:
    out.extend(_csv_line(row) + "\n" for row in [res["columns"]] + res["rows"])


def _text_invariants(res, out: writers.Out) -> None:
    out.extend(" ".join(map(str, row)) + "\n" for row in [res["columns"]] + res["rows"])


def _text_verify(res, out: writers.Out) -> None:
    out.append(
        f"ran {res['checks_run']} checks at max level {res['max_level']}; "
        f"{res['failures']} failure(s)\n"
    )


# ----------------------------------------------------------------------
# handlers: each returns (report, text writer, CSV writer or None)


def _cmd_fusion(args) -> tuple:
    n = args.level
    if (args.left is None) != (args.right is None):
        raise ValueError("--left and --right must be given together")
    if args.left is not None:
        a = fusion.simple_elt(n, args.left)
        b = fusion.simple_elt(n, args.right)
        prod = fusion.product(a, b)
        rep = Report(
            "fusion",
            {"level": n, "left": args.left, "right": args.right},
            {
                "level": n,
                "left": _subset_payload(args.left),
                "right": _subset_payload(args.right),
                "product": prod,
            },
        )
        oracle = cyclotomic.to_d_basis(fusion.fpdim(a) * fusion.fpdim(b))
        rep.add_check(
            "product-matches-dimension-oracle",
            prod.as_dict() == {m: v for m, v in enumerate(oracle) if v},
            "coefficients equal the exact dimension-ring expansion",
        )
        rep.add_check(
            "coefficients-nonnegative",
            all(c >= 0 for _, c in prod.coeffs),
            "a product of basis classes has nonnegative coefficients",
        )
        return rep, _text_product, None
    tensor = fusion.structure_tensor(n)
    recursion = fusion._structure_from_recursion(n)
    nz = np.argwhere(tensor != 0)
    rep = Report(
        "fusion",
        {"level": n},
        {
            "level": n,
            "simples": [_subset_payload(m) for m in range(1 << n)],
            "nonzero": writers.Records(("left", "right", "out", "coeff"),
                               np.column_stack([nz, tensor[tuple(nz.T)]])),
        },
    )
    rep.add_check(
        "nonzero-coefficients-are-powers-of-two",
        checks.nonzero_powers_of_two(tensor),
        f"{len(nz)} nonzero entries",
    )
    rep.add_check(
        "iteration-matches-level-recursion", np.array_equal(tensor, recursion),
        "generator iteration and level recursion compared entrywise",
    )
    return rep, _text_structure, _csv_structure


def _cmd_cartan(args) -> tuple:
    mat = homology.cartan(args.index)
    rep = Report("cartan", {"index": args.index}, _matrix_payload(args.index, mat))
    rep.add_check("symmetric", checks.symmetric(mat), "Cartan matrices are symmetric")
    rep.add_check(
        "nonzero-entries-are-powers-of-two",
        checks.nonzero_powers_of_two(mat),
        f"{np.count_nonzero(mat)} nonzero entries",
    )
    return rep, _text_matrix, _csv_matrix


def _cmd_ext1(args) -> tuple:
    m = args.index
    mat = homology.ext1_matrix(m)
    comps = homology.block_components(m)
    payload = _matrix_payload(m, mat)
    payload["components"] = [list(c) for c in comps]
    rep = Report("ext1", {"index": m}, payload)
    rep.add_check("symmetric", checks.symmetric(mat), "")
    rep.add_check("entries-are-zero-or-one", bool(((mat == 0) | (mat == 1)).all()), "")
    rep.add_check(
        "component-count", len(comps) == checks.expected_component_count(m),
        f"{len(comps)} connected component(s) in the Ext/Cartan graph",
    )
    return rep, _text_ext1, _csv_matrix


def _cmd_fpdim(args) -> tuple:
    modes = [args.simple is not None, args.category, args.algebra]
    if sum(modes) != 1:
        raise ValueError("choose exactly one of --simple, --category, --algebra")
    if args.simple is not None:
        n = args.level
        val = fusion.fpdim(fusion.simple_elt(n, args.simple))
        rep = Report(
            "fpdim",
            {"level": n, "simple": args.simple},
            {"level": n, "simple": _subset_payload(args.simple),
             **_cyc_payload(val)},
        )
        conj = cyclotomic.conjugate_floats(val)
        rep.add_check(
            "float-is-largest-conjugate",
            abs(conj[0]) >= max(abs(c) for c in conj) - 1e-9 and conj[0] > 0,
            "the dimension dominates its conjugates in absolute value",
        )
        return rep, _text_fields, None
    if args.category:
        m = args.level  # with --category the value is the chain index
        val = homology.category_fpdim(m)
        rep = Report(
            "fpdim",
            {"level": m, "category": True},
            {
                "index": m,
                "ring_level": val.level,
                "numerator_power_coeffs": list(val.coeffs),
                "denominator": 1,  # total dimensions are algebraic integers
                "float": val.to_float(),
            },
        )
        rep.add_check(
            "projective-sum-matches-closed-form",
            checks.total_dimension_matches_closed_form(m, val),
            "the projective sum and the closed form compared exactly",
        )
        return rep, _text_fields, None
    n = args.level
    val = homology.algebra_fpdim(n)
    rep = Report(
        "fpdim",
        {"level": n, "algebra": True},
        {"level": n, **_cyc_payload(val)},
    )
    sq = cyclotomic.CycInt.delta(n + 1) ** 2
    rep.add_check(
        "equals-square-of-next-generator",
        cyclotomic.embed(val, n + 1) == sq,
        "embedded value equals the squared generator one level up",
    )
    return rep, _text_fields, None


def _cmd_tilt(args) -> tuple:
    modes = [args.table, args.decompose is not None, args.functor is not None]
    if sum(modes) != 1:
        raise ValueError("choose exactly one of --table, --decompose, --functor")
    if args.decompose is not None:
        cyclotomic.check_level(args.decompose, tilting.TILT_INDEX_CAP, "tensor power",
                               cap_name="TILT_INDEX_CAP")
    else:
        cyclotomic.check_level(args.max_m, tilting.TILT_INDEX_CAP, "tilt index",
                               cap_name="TILT_INDEX_CAP")
    if args.functor is not None:
        cyclotomic.check_level(args.functor, what="functor level")
    if args.table:
        rows = []
        lead_ok = True
        for m, row in enumerate(tilting.tensor_v_rows(args.max_m)):
            rows.append({
                "m": m,
                "summands": [{"index": i, "mult": row[i]} for i in sorted(row, reverse=True)],
            })
            lead_ok = lead_ok and row.get(m + 1) == 1
        rep = Report("tilt", {"max_m": args.max_m, "table": True},
                     {"max_m": args.max_m, "rows": rows})
        rep.add_check(
            "top-summand-multiplicity-one", lead_ok,
            "each tensor-by-degree-1 row contains the next index exactly once",
        )
        return rep, _text_tilt_table, _csv_tilt_table
    if args.decompose is not None:
        r = args.decompose
        ts = tilting.tensor_power_decompose(r)
        rep = Report(
            "tilt", {"decompose": r},
            {"power": r,
             "summands": [{"index": i, "mult": k} for i, k in ts.entries]},
        )
        rep.add_check(
            "total-dimension-is-2^r", ts.dim() == 1 << r,
            f"dimension {ts.dim()}",
        )
        return rep, _text_decompose, None
    n = args.functor
    top = (1 << (n + 1)) - 1
    imgs = tilting.digit_images([*range(args.max_m + 1), top], n)
    rows = [{"m": m, "image": imgs[m]} for m in range(args.max_m + 1)]
    rep = Report("tilt", {"max_m": args.max_m, "functor": n},
                 {"level": n, "max_m": args.max_m, "rows": rows})
    rep.add_check(
        "kills-first-index-above-quotient", imgs[-1].is_zero,
        f"index {top} maps to zero at level {n}",
    )
    return rep, _text_functor, None


def _cmd_invariants(args) -> tuple:
    n, top = args.level, args.max_m
    if n < 0:
        raise ValueError(f"--level must be nonnegative, got {n}")
    if top < 0:
        raise ValueError(f"--max-m must be nonnegative, got {top}")
    cyclotomic.check_level(n, invariants.INVARIANTS_LEVEL_CAP, "invariants level",
                           cap_name="INVARIANTS_LEVEL_CAP")
    cyclotomic.check_level(top, invariants.SERIES_ORDER_CAP, "--max-m",
                           cap_name="SERIES_ORDER_CAP")
    routes = list(invariants.ROUTES) if args.route == "all" else [args.route]
    columns = [invariants.ROUTES[r](n, top) for r in routes]
    rows = [[m, *values] for m, values in enumerate(zip(*columns))]
    rep = Report(
        "invariants",
        {"level": n, "max_m": top, "route": args.route},
        {"level": n, "max_m": top, "columns": ["m"] + routes, "rows": rows},
    )
    if len(routes) > 1:
        agree = all(len(set(row[1:])) == 1 for row in rows)
        rep.add_check("routes-agree", agree, f"{len(routes)} routes over m <= {top}")
    return rep, _text_invariants, _csv_invariants


def _cmd_minpoly(args) -> tuple:
    n = args.level
    poly = cyclotomic.min_poly(n)
    rep = Report(
        "minpoly", {"level": n},
        {"level": n, "degree": poly.degree, "coeffs": list(poly.coeffs),
         "root_float": cyclotomic.delta_float(n)},
    )
    if n >= 1:
        rep.add_check(
            "composition-step", checks.min_poly_matches_dickson(n),
            "the x^2 - 2 composition tower equals the Dickson polynomial D_(2^n)",
        )
    return rep, _text_fields, None


def _cmd_verify(args) -> tuple:
    cyclotomic.check_level(args.max_level, checks.VERIFY_LEVEL_CAP, "verify level",
                           cap_name="VERIFY_LEVEL_CAP")
    rep = Report("verify", {"max_level": args.max_level}, {"max_level": args.max_level})
    for name, check in sorted(checks.CHECKS.items()):
        try:
            passed, detail = check(args.max_level)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        rep.add_check(name, passed, detail)
    rep.result["checks_run"] = len(rep.checks)
    rep.result["failures"] = sum(not c["pass"] for c in rep.checks)
    return rep, _text_verify, None


def _render(report: Report, fmt: str, text, csv, write) -> None:
    if fmt == "json":
        emit_json(report, write)
        return
    out = writers.Out(write)
    if fmt == "csv":
        csv(report.result, out)
    else:
        text(report.result, out)
        out.extend(
            f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']}"
            + (f" - {c['detail']}" if c["detail"] else "") + "\n"
            for c in report.checks
        )
    out.flush()


# ----------------------------------------------------------------------
# argument parsing and dispatch


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="output format (default json)",
    )
    common.add_argument("--out", metavar="FILE", help="write the report to FILE")

    parser = argparse.ArgumentParser(
        prog="char2cat",
        description=(
            "Exact invariants of a chain of characteristic-2 symmetric tensor "
            "categories: fusion rules, cyclotomic dimension arithmetic, tilting "
            "characters, Cartan/Ext data, and cross-verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fusion", parents=[common],
                       help="products and structure constants of the fusion ring")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--left", type=int, help="left class as its printed index")
    p.add_argument("--right", type=int, help="right class as its printed index")

    p = sub.add_parser("cartan", parents=[common], help="Cartan matrix of a chain member")
    p.add_argument("--index", type=int, required=True)

    p = sub.add_parser("ext1", parents=[common],
                       help="first-extension matrix and block components")
    p.add_argument("--index", type=int, required=True)

    p = sub.add_parser("fpdim", parents=[common], help="exact dimension values")
    p.add_argument("--level", type=int, required=True,
                   help="ring level; with --category, the chain index")
    p.add_argument("--simple", type=int, help="dimension of one basis class")
    p.add_argument("--category", action="store_true",
                   help="total dimension of the chain member")
    p.add_argument("--algebra", action="store_true",
                   help="dimension of the level-raising algebra object")

    p = sub.add_parser("tilt", parents=[common], help="tilting character calculus")
    p.add_argument("--max-m", type=int, default=30)
    p.add_argument("--table", action="store_true",
                   help="tensor-by-degree-1 decomposition table")
    p.add_argument("--decompose", type=int, metavar="R",
                   help="decompose the R-th tensor power of the degree-1 module")
    p.add_argument("--functor", type=int, metavar="N",
                   help="images of the indecomposables in the level-N fusion ring")

    p = sub.add_parser("invariants", parents=[common],
                       help="invariant dimensions by multiple routes")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--route", choices=(*invariants.ROUTES, "all"),
                   default="all")

    p = sub.add_parser("minpoly", parents=[common],
                       help="minimal polynomial of the ring generator")
    p.add_argument("--level", type=int, required=True)

    p = sub.add_parser("verify", parents=[common], help="run the cross-check suite")
    p.add_argument("--max-level", type=int, default=4)

    return parser


_DISPATCH = {
    "fusion": _cmd_fusion,
    "cartan": _cmd_cartan,
    "ext1": _cmd_ext1,
    "fpdim": _cmd_fpdim,
    "tilt": _cmd_tilt,
    "invariants": _cmd_invariants,
    "minpoly": _cmd_minpoly,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        report, to_text, to_csv = _DISPATCH[args.command](args)
        if args.format == "csv" and to_csv is None:
            raise ValueError(f"--format csv is not defined for this {report.command} mode")
    except (NotIntegral, NotTiltingCharacter) as exc:  # an internal inconsistency
        print(f"char2cat: internal error: {exc}", file=sys.stderr)
        return 1
    except (Char2CatError, ValueError) as exc:
        print(f"char2cat: error: {exc}", file=sys.stderr)
        return 2
    render = functools.partial(_render, report, args.format, to_text, to_csv)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                render(fh.write)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"char2cat: error: cannot write --out {args.out}: {reason}", file=sys.stderr)
            return 2
    else:
        render(sys.stdout.write)
    return 1 if report.failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
