"""The byte corpus: every command at small sizes, in every format it
defines, and every usage-error and cap-violation path.

``tests/corpus.json`` maps each argv (joined with ``shlex.join``) to the
sha256 of its stdout, its exit code and the sha256 of its stderr, each argv
run in-process through ``cli.run``.  ``tests/test_corpus.py`` reruns the
grid and compares.  Regenerate the corpus only with a change that alters
output on purpose, and list each changed argv in CHANGES.md; the script
prints, on stderr, every argv it added, removed or changed, with the
fields that changed:

    PYTHONPATH=src python tests/make_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

from char2cat import cli

CORPUS = Path(__file__).with_name("corpus.json")

# argparse wraps usage and help text to the terminal width; pin it
COLUMNS = "80"

# an --out path whose directory does not exist, relative to the run's cwd
MISSING_OUT = "no-such-dir/report.json"

ALL_FORMATS = ("json", "csv", "text")
NO_CSV = ("json", "text")


def _strs(xs) -> list[str]:
    return [str(x) for x in xs]


def _formats(argvs, formats):
    return [[*argv, "--format", fmt] for argv in argvs for fmt in formats]


def _products():
    pairs = [(n, a, b) for n in range(4) for a in range(1 << n) for b in range(1 << n)]
    for n in (4, 5):
        picks = (0, 1, 3, 5, (1 << n) - 2, (1 << n) - 1)
        pairs += [(n, a, b) for a in picks for b in picks]
    return [["fusion", "--level", str(n), "--left", str(a), "--right", str(b)]
            for n, a, b in pairs]


def _simples():
    picks = [(n, s) for n in range(4) for s in range(1 << n)]
    picks += [(n, s) for n in (4, 5, 8, 12) for s in (0, 1, (1 << n) - 1)]
    return [["fpdim", "--level", str(n), "--simple", str(s)] for n, s in picks]


def grid() -> list[list[str]]:
    """Every argv of the corpus, in a fixed order."""
    argvs: list[list[str]] = []
    # indices 14, 15 and levels 6, 7 write rows wider than one 64-column chunk
    for cmd in ("cartan", "ext1"):
        argvs += _formats([[cmd, "--index", m] for m in _strs(range(16))], ALL_FORMATS)
    argvs += _formats([["fusion", "--level", n] for n in _strs(range(8))], ALL_FORMATS)
    argvs += _formats(_products(), NO_CSV)
    argvs += _formats(_simples(), NO_CSV)
    argvs += _formats([["fpdim", "--level", m, "--category"] for m in _strs(range(14))],
                      NO_CSV)
    argvs += _formats([["fpdim", "--level", n, "--algebra"] for n in _strs(range(12))],
                      NO_CSV)
    tops = _strs((0, 1, 2, 3, 4, 5, 8, 13, 30, 31, 32, 63, 64))
    argvs += _formats([["tilt", "--table", "--max-m", t] for t in tops], ALL_FORMATS)
    argvs += [["tilt", "--table"]]  # the default --max-m
    argvs += _formats([["tilt", "--decompose", r] for r in _strs(range(65))], NO_CSV)
    argvs += _formats([["tilt", "--functor", n, "--max-m", t]
                       for n in _strs(range(7)) for t in _strs((0, 1, 7, 30, 64))], NO_CSV)
    argvs += [["tilt", "--functor", "3"]]
    for route in ("recursion", "paths", "series", "all"):
        argvs += _formats([["invariants", "--level", n, "--max-m", t, "--route", route]
                           for n in _strs(range(5)) for t in _strs((0, 1, 2, 5, 12, 30))],
                          ALL_FORMATS)
    argvs += [["invariants", "--level", "2", "--max-m", "6"]]  # the default route
    argvs += _formats([["minpoly", "--level", n] for n in _strs(range(9))], NO_CSV)
    argvs += _formats([["verify", "--max-level", n] for n in _strs(range(4))], NO_CSV)
    argvs += [["verify"]]  # the default --max-level
    argvs += _usage_errors()
    return argvs


def _usage_errors() -> list[list[str]]:
    """Exit-2 paths, plus help, which exits 0."""
    argvs = [
        [], ["--help"], ["nosuch"],
        *[[cmd, "--help"] for cmd in ("fusion", "cartan", "ext1", "fpdim", "tilt",
                                      "invariants", "minpoly", "verify")],
        ["fusion"], ["cartan"], ["ext1"], ["fpdim"], ["invariants", "--level", "1"],
        ["invariants", "--max-m", "1"], ["minpoly"],
        ["cartan", "--index", "x"], ["cartan", "--index", "3", "--format", "xml"],
        ["cartan", "--index", "3", "--bogus"],
        ["cartan", "--index", "3", "--out", MISSING_OUT],
        ["fusion", "--level", "3", "--left", "2"], ["fusion", "--level", "3", "--right", "2"],
        ["fusion", "--level", "2", "--left", "4", "--right", "0"],
        ["fusion", "--level", "2", "--left", "0", "--right", "-1"],
        ["fpdim", "--level", "2"], ["fpdim", "--level", "2", "--simple", "1", "--category"],
        ["fpdim", "--level", "2", "--category", "--algebra"],
        ["fpdim", "--level", "2", "--simple", "4"], ["fpdim", "--level", "2", "--simple", "-1"],
        ["tilt"], ["tilt", "--table", "--decompose", "2"],
        ["tilt", "--decompose", "2", "--functor", "2"],
        ["tilt", "--decompose", "3", "--max-m", "5000"],  # --max-m is not read, so not capped
        ["invariants", "--level", "1", "--max-m", "2", "--route", "x"],
        ["verify", "--max-level", "x"],
    ]
    # CSV where it is not defined
    argvs += [[*argv, "--format", "csv"] for argv in (
        ["fusion", "--level", "2", "--left", "1", "--right", "3"],
        ["fpdim", "--level", "2", "--simple", "3"], ["fpdim", "--level", "3", "--category"],
        ["fpdim", "--level", "2", "--algebra"], ["tilt", "--decompose", "3"],
        ["tilt", "--functor", "2", "--max-m", "4"], ["minpoly", "--level", "2"],
        ["verify", "--max-level", "1"],
        # which usage error wins: a bad bitmask, a cap, a CSV-less mode at a valid pair
        ["fpdim", "--level", "2", "--simple", "4"], ["verify", "--max-level", "9"],
        ["fusion", "--level", "3", "--left", "0", "--right", "0"],
    )]
    # caps and negative values
    argvs += [
        ["cartan", "--index", "26"], ["cartan", "--index", "99"], ["cartan", "--index", "-1"],
        ["ext1", "--index", "26"], ["ext1", "--index", "-1"],
        ["fusion", "--level", "9"], ["fusion", "--level", "-1"],
        ["fusion", "--level", "13", "--left", "0", "--right", "0"],
        ["fusion", "--level", "-1", "--left", "0", "--right", "0"],
        ["fpdim", "--level", "13", "--simple", "0"], ["fpdim", "--level", "-1", "--simple", "0"],
        ["fpdim", "--level", "26", "--category"], ["fpdim", "--level", "-1", "--category"],
        ["fpdim", "--level", "12", "--algebra"], ["fpdim", "--level", "-1", "--algebra"],
        ["minpoly", "--level", "13"], ["minpoly", "--level", "40"], ["minpoly", "--level", "-1"],
        ["verify", "--max-level", "9"], ["verify", "--max-level", "-1"],
        ["tilt", "--table", "--max-m", "2048"], ["tilt", "--table", "--max-m", "-3"],
        ["tilt", "--decompose", "2048"], ["tilt", "--decompose", "-1"],
        ["tilt", "--functor", "2", "--max-m", "2048"], ["tilt", "--functor", "13", "--max-m", "1"],
        ["tilt", "--functor", "3", "--max-m", "-1"], ["tilt", "--functor", "-1", "--max-m", "1"],
    ]
    for route in ("recursion", "paths", "series", "all"):
        argvs += [["invariants", *argv, "--route", route] for argv in (
            ["--level", "1", "--max-m", "257"], ["--level", "9", "--max-m", "1"],
            ["--level", "1", "--max-m", "-1"], ["--level", "-2", "--max-m", "3"],
        )]
    return argvs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_argv(argv: list[str]) -> dict:
    """Run ``argv`` through ``cli.run`` in this process: the sha256 of its
    stdout and stderr, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return {"stdout": _sha(out.getvalue()), "exit": code, "stderr": _sha(err.getvalue())}


@contextlib.contextmanager
def corpus_env():
    """The terminal width argparse reads, and a scratch working directory
    for the ``--out`` error path."""
    saved_cols, saved_cwd = os.environ.get("COLUMNS"), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["COLUMNS"] = COLUMNS
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(saved_cwd)
            if saved_cols is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = saved_cols


def compute(argvs) -> dict:
    with corpus_env():
        return {shlex.join(argv): run_argv(argv) for argv in argvs}


def main() -> None:
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    corpus = compute(grid())
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    for key in sorted(old.keys() | corpus.keys()):
        if key not in corpus:
            print(f"removed: {key}", file=sys.stderr)
        elif key not in old:
            print(f"added: {key}", file=sys.stderr)
        elif old[key] != corpus[key]:
            fields = ", ".join(f for f in corpus[key] if old[key][f] != corpus[key][f])
            print(f"changed ({fields}): {key}", file=sys.stderr)
    print(f"wrote {len(corpus)} entries to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
