"""Command-line front end.

One table, ``COMMANDS``, declares every subcommand: its help text, its
arguments and its ``Mode``s.  The parser, the mode choice, the CSV
refusal and the dispatch are all read from it.  ``run`` picks the mode,
refuses an undefined CSV, and only then calls the handler, which fills
the ``Report``: the echoed command and parameters, the payload, and
named pass/fail checks.  A cap is checked only by the module that
declares it, in the first library call of each handler, so every usage
error still comes before any work; ``tilt --functor`` checks its two
bounds itself, since ``digit_images`` takes any index.  Nothing is
written before the report is complete.  Exit status is 0 on success, 1
when any check fails or a handler meets an internal inconsistency (any
``Char2CatError`` or ``ValueError`` it raises other than
``LevelTooLarge`` and ``SubsetOutOfRange``), and 2 on usage errors: a
flag combination, an undefined CSV, a capped or range-checked argument,
or an unwritable ``--out``.

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
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import checks, cyclotomic, fusion, homology, invariants, tilting, writers
from .errors import Char2CatError, LevelTooLarge, SubsetOutOfRange

__all__ = ["Report", "run", "main"]


@dataclass
class Report:
    command: str
    params: dict
    result: object = None
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
    return {"index": m, "labels": [_v_label(s) for s in range(len(mat))], "matrix": mat}


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


def _text_matrix(res, out: writers.Out) -> None:
    labels, mat = res["labels"], res["matrix"]
    width = max(len(lbl) for lbl in labels) + 1
    colw = max(len(c) for c in labels + [str(mat.max()), str(mat.min())]) + 1
    out.append(" " * width + "".join(lbl.rjust(colw + 1) for lbl in labels) + "\n")
    out.blocks(writers.matrix_blocks(mat, [lbl.ljust(width) for lbl in labels],
                                     f"%{colw + 1}d", "", "\n"))


def _text_ext1(res, out: writers.Out) -> None:
    _text_matrix(res, out)
    out.append(
        "components: "
        + "; ".join("{" + ", ".join(map(str, c)) + "}" for c in res["components"]) + "\n"
    )


def _csv_matrix(res, out: writers.Out) -> None:
    labels = res["labels"]
    out.append(_csv_line([""] + labels) + "\n")
    out.blocks(writers.matrix_blocks(res["matrix"], labels, ",%d", "", "\n"))


def _text_product(res, out: writers.Out) -> None:
    out.append(
        f"{_v_label(res['left']['index'])} * {_v_label(res['right']['index'])}"
        f" = {_elt_terms(res['product'].coeffs)}\n"
    )


def _text_structure(res, out: writers.Out) -> None:
    rec = res["nonzero"]
    out.append(f"level {res['level']}: {len(rec)} nonzero constants\n")
    out.blocks(writers.record_blocks(rec.rows, enumerate(("N[%d]", "[%d]", "[%d]", " = %d\n"))))


def _csv_structure(res, out: writers.Out) -> None:
    rec = res["nonzero"]
    out.append(_csv_line(rec.keys) + "\n")
    templates = ["%d"] + [",%d"] * (len(rec.keys) - 2) + [",%d\n"]
    out.blocks(writers.record_blocks(rec.rows, enumerate(templates)))


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
# handlers: each adds its checks to the report and returns its payload


def _product(args, rep: Report) -> dict:
    n = args.level
    a = fusion.simple_elt(n, args.left)
    b = fusion.simple_elt(n, args.right)
    prod = fusion.product(a, b)
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
    return {"level": n, "left": _subset_payload(args.left),
            "right": _subset_payload(args.right), "product": prod}


def _structure(args, rep: Report) -> dict:
    n = args.level
    records = fusion.structure_tensor(n)
    rep.add_check(
        "nonzero-coefficients-are-powers-of-two",
        checks.nonzero_powers_of_two(records[:, 3]),
        f"{len(records)} nonzero entries",
    )
    rep.add_check(
        "iteration-matches-level-recursion",
        np.array_equal(records, fusion._structure_from_recursion(n)),
        "generator iteration and level recursion compared entrywise",
    )
    return {"level": n, "simples": [_subset_payload(m) for m in range(1 << n)],
            "nonzero": writers.Records(("left", "right", "out", "coeff"), records)}


def _cartan(args, rep: Report) -> dict:
    mat = homology.cartan(args.index)
    rep.add_check("symmetric", checks.symmetric(mat), "Cartan matrices are symmetric")
    rep.add_check(
        "nonzero-entries-are-powers-of-two",
        checks.nonzero_powers_of_two(mat),
        f"{np.count_nonzero(mat)} nonzero entries",
    )
    return _matrix_payload(args.index, mat)


def _ext1(args, rep: Report) -> dict:
    m = args.index
    mat = homology.ext1_matrix(m)
    comps = homology.block_components(m)
    rep.add_check("symmetric", checks.symmetric(mat), "")
    rep.add_check("entries-are-zero-or-one", checks.zero_or_one(mat), "")
    rep.add_check(
        "component-count", len(comps) == checks.expected_component_count(m),
        f"{len(comps)} connected component(s) in the Ext1 graph",
    )
    return {**_matrix_payload(m, mat), "components": [list(c) for c in comps]}


def _simple_fpdim(args, rep: Report) -> dict:
    n = args.level
    val = fusion.fpdim(fusion.simple_elt(n, args.simple))
    conj = cyclotomic.conjugate_floats(val)
    rep.add_check(
        "float-is-largest-conjugate",
        abs(conj[0]) >= max(abs(c) for c in conj) - 1e-9 and conj[0] > 0,
        "the dimension dominates its conjugates in absolute value",
    )
    return {"level": n, "simple": _subset_payload(args.simple), **_cyc_payload(val)}


def _category_fpdim(args, rep: Report) -> dict:
    m = args.level  # with --category the value is the chain index
    val = homology.category_fpdim(m)
    rep.add_check(
        "projective-sum-matches-closed-form",
        checks.total_dimension_matches_closed_form(m, val),
        "the projective sum and the closed form compared exactly",
    )
    return {"index": m, "ring_level": val.level, "numerator_power_coeffs": list(val.coeffs),
            "denominator": 1,  # total dimensions are algebraic integers
            "float": val.to_float()}


def _algebra_fpdim(args, rep: Report) -> dict:
    n = args.level
    val = homology.algebra_fpdim(n)
    sq = cyclotomic.CycInt.delta(n + 1) ** 2
    rep.add_check(
        "equals-square-of-next-generator",
        cyclotomic.embed(val, n + 1) == sq,
        "embedded value equals the squared generator one level up",
    )
    return {"level": n, **_cyc_payload(val)}


def _tilt_table(args, rep: Report) -> dict:
    table = tilting.tensor_v_rows(args.max_m)
    rep.add_check(
        "top-summand-multiplicity-one", all(row.get(m + 1) == 1 for m, row in enumerate(table)),
        "each tensor-by-degree-1 row contains the next index exactly once",
    )
    return {"max_m": args.max_m, "rows": [
        {"m": m, "summands": [{"index": i, "mult": row[i]} for i in sorted(row, reverse=True)]}
        for m, row in enumerate(table)]}


def _decompose(args, rep: Report) -> dict:
    r = args.decompose
    ts = tilting.tensor_power_decompose(r)
    rep.add_check("total-dimension-is-2^r", ts.dim() == 1 << r, f"dimension {ts.dim()}")
    return {"power": r, "summands": [{"index": i, "mult": k} for i, k in ts.entries]}


def _functor(args, rep: Report) -> dict:
    # both bounds before 1 << (n + 1): digit_images takes any index
    cyclotomic.check_level(args.max_m, tilting.TILT_INDEX_CAP, "tilt index", "TILT_INDEX_CAP")
    n = cyclotomic.check_level(args.functor, what="functor level")
    top = (1 << (n + 1)) - 1
    imgs = tilting.digit_images([*range(args.max_m + 1), top], n)
    rep.add_check(
        "kills-first-index-above-quotient", imgs[-1].is_zero,
        f"index {top} maps to zero at level {n}",
    )
    return {"level": n, "max_m": args.max_m,
            "rows": [{"m": m, "image": imgs[m]} for m in range(args.max_m + 1)]}


def _invariants(args, rep: Report) -> dict:
    n, top = args.level, args.max_m
    routes = list(invariants.ROUTES) if args.route == "all" else [args.route]
    columns = [invariants.ROUTES[r](n, top) for r in routes]
    rows = [[m, *values] for m, values in enumerate(zip(*columns))]
    if len(routes) > 1:
        agree = all(len(set(row[1:])) == 1 for row in rows)
        rep.add_check("routes-agree", agree, f"{len(routes)} routes over m <= {top}")
    return {"level": n, "max_m": top, "columns": ["m"] + routes, "rows": rows}


def _minpoly(args, rep: Report) -> dict:
    n = args.level
    poly = cyclotomic.min_poly(n)
    if n >= 1:
        rep.add_check(
            "composition-step", checks.min_poly_matches_dickson(n),
            "the x^2 - 2 composition tower equals the Dickson polynomial D_(2^n)",
        )
    return {"level": n, "degree": poly.degree, "coeffs": list(poly.coeffs),
            "root_float": cyclotomic.delta_float(n)}


def _verify(args, rep: Report) -> dict:
    for name, passed, detail in checks.run(args.max_level):
        rep.add_check(name, passed, detail)
    return {"max_level": args.max_level, "checks_run": len(rep.checks),
            "failures": sum(not c["pass"] for c in rep.checks)}


def _render(report: Report, fmt: str, mode: Mode, write) -> None:
    if fmt == "json":
        emit_json(report, write)
        return
    out = writers.Out(write)
    if fmt == "csv":
        mode.csv(report.result, out)
    else:
        mode.text(report.result, out)
        out.extend(
            f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']}"
            + (f" - {c['detail']}" if c["detail"] else "") + "\n"
            for c in report.checks
        )
    out.flush()


# ----------------------------------------------------------------------
# the command table: argument parsing, mode choice and dispatch


@dataclass(frozen=True)
class Mode:
    """One mode of a subcommand.  ``flags`` are the arguments that select
    it (none for the default mode); ``handler(args, report)`` adds the
    checks and returns the payload, which ``text`` and ``csv`` write
    (``csv`` is ``None`` where CSV is not defined).  The report echoes the
    flags and ``echo``."""

    handler: Callable
    text: Callable
    csv: Callable | None = None
    flags: tuple = ()
    echo: tuple = ()

    def params(self, args) -> dict:
        return {name: getattr(args, name) for name in self.flags + self.echo}


@dataclass(frozen=True)
class Command:
    help: str
    args: dict  # option -> add_argument keywords
    modes: tuple


COMMANDS = {
    "fusion": Command(
        "products and structure constants of the fusion ring",
        {"--level": dict(type=int, required=True),
         "--left": dict(type=int, help="left class as its printed index"),
         "--right": dict(type=int, help="right class as its printed index")},
        (Mode(_product, _text_product, flags=("left", "right"), echo=("level",)),
         Mode(_structure, _text_structure, _csv_structure, echo=("level",))),
    ),
    "cartan": Command(
        "Cartan matrix of a chain member",
        {"--index": dict(type=int, required=True)},
        (Mode(_cartan, _text_matrix, _csv_matrix, echo=("index",)),),
    ),
    "ext1": Command(
        "first-extension matrix and block components",
        {"--index": dict(type=int, required=True)},
        (Mode(_ext1, _text_ext1, _csv_matrix, echo=("index",)),),
    ),
    "fpdim": Command(
        "exact dimension values",
        {"--level": dict(type=int, required=True,
                         help="ring level; with --category, the chain index"),
         "--simple": dict(type=int, help="dimension of one basis class"),
         "--category": dict(action="store_true", help="total dimension of the chain member"),
         "--algebra": dict(action="store_true",
                           help="dimension of the level-raising algebra object")},
        (Mode(_simple_fpdim, _text_fields, flags=("simple",), echo=("level",)),
         Mode(_category_fpdim, _text_fields, flags=("category",), echo=("level",)),
         Mode(_algebra_fpdim, _text_fields, flags=("algebra",), echo=("level",))),
    ),
    "tilt": Command(
        "tilting character calculus",
        {"--max-m": dict(type=int, default=30),
         "--table": dict(action="store_true", help="tensor-by-degree-1 decomposition table"),
         "--decompose": dict(type=int, metavar="R",
                             help="decompose the R-th tensor power of the degree-1 module"),
         "--functor": dict(type=int, metavar="N",
                           help="images of the indecomposables in the level-N fusion ring")},
        (Mode(_tilt_table, _text_tilt_table, _csv_tilt_table, flags=("table",),
              echo=("max_m",)),
         Mode(_decompose, _text_decompose, flags=("decompose",)),
         Mode(_functor, _text_functor, flags=("functor",), echo=("max_m",))),
    ),
    "invariants": Command(
        "invariant dimensions by multiple routes",
        {"--level": dict(type=int, required=True),
         "--max-m": dict(type=int, required=True),
         "--route": dict(choices=(*invariants.ROUTES, "all"), default="all")},
        (Mode(_invariants, _text_invariants, _csv_invariants,
              echo=("level", "max_m", "route")),),
    ),
    "minpoly": Command(
        "minimal polynomial of the ring generator",
        {"--level": dict(type=int, required=True)},
        (Mode(_minpoly, _text_fields, echo=("level",)),),
    ),
    "verify": Command(
        "run the cross-check suite",
        {"--max-level": dict(type=int, default=4)},
        (Mode(_verify, _text_verify, echo=("max_level",)),),
    ),
}


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
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=cmd.help)
        for option, kwargs in cmd.args.items():
            p.add_argument(option, **kwargs)
    return parser


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


def _pick_mode(args) -> Mode:
    """The mode of ``args.command`` whose flags are given, else its default
    mode; a flag given as 0 counts as given."""
    modes = COMMANDS[args.command].modes
    picked = []
    for mode in modes:
        given = sum(getattr(args, f) is not None and getattr(args, f) is not False
                    for f in mode.flags)
        if 0 < given < len(mode.flags):
            raise ValueError(" and ".join(map(_option, mode.flags)) + " must be given together")
        if given:
            picked.append(mode)
    picked = picked or [mode for mode in modes if not mode.flags]
    if len(picked) != 1:
        flags = ", ".join(_option(f) for mode in modes for f in mode.flags)
        raise ValueError(f"choose exactly one of {flags}")
    return picked[0]


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        mode = _pick_mode(args)
        if args.format == "csv" and mode.csv is None:
            raise ValueError(f"--format csv is not defined for this {args.command} mode")
    except ValueError as exc:
        print(f"char2cat: error: {exc}", file=sys.stderr)
        return 2
    report = Report(args.command, mode.params(args))
    try:
        report.result = mode.handler(args, report)
    except (LevelTooLarge, SubsetOutOfRange) as exc:  # a capped or range-checked argument
        print(f"char2cat: error: {exc}", file=sys.stderr)
        return 2
    except (Char2CatError, ValueError) as exc:  # a route broke inside the handler
        print(f"char2cat: internal error: {exc}", file=sys.stderr)
        return 1
    render = functools.partial(_render, report, args.format, mode)
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
