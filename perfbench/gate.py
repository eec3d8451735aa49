"""Correctness gate: reduce a job's output to a reference and compare.

A reference is a digest, or ``[digest, floats]`` when the output holds
floats.  The digest covers the exact parts of
the output; floats are kept apart and compared at ``REL_TOL`` so that a
more accurate float evaluation is not counted as a failure.

- JSON output is parsed first, so indentation and key order do not matter,
  and integers written as decimal strings equal integers written as
  numbers.  ``command``, ``result`` and the sorted check names enter the
  digest: ``params`` echoes the input and check details are prose.  Every
  check must pass, and a check that is no longer made is a mismatch.
- Text output keeps only the name of each check line (none may read
  ``[FAIL]``) and replaces each float literal by a placeholder.
- CSV output, which carries no checks, is digested as it is, floats apart.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

REL_TOL = 1e-9

_FLOAT = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|inf|nan)(?![\w.])")
_INT = re.compile(r"-?\d+")
_CHECK_LINE = re.compile(r"\[(PASS|FAIL)\] (\S+)")
_FLOAT_MARK = "\x00f"


class OutputError(Exception):
    """The output is malformed or reports a failed check."""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _exact(obj, floats: list):
    """Copy with integer strings made integers and floats moved to ``floats``."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        floats.append(obj)
        return _FLOAT_MARK
    if isinstance(obj, str):
        return int(obj) if _INT.fullmatch(obj) else obj
    if isinstance(obj, dict):
        return {k: _exact(obj[k], floats) for k in sorted(obj)}
    if isinstance(obj, list):
        return [_exact(v, floats) for v in obj]
    return obj


def reduce_output(text: str, fmt: str):
    """The reference of one job's output; raises OutputError."""
    floats: list[float] = []
    if fmt == "json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise OutputError(f"output is not JSON: {exc}") from None
        failed = [c.get("name") for c in payload.get("checks", []) if not c.get("pass")]
        if failed:
            raise OutputError(f"failed checks: {failed}")
        exact = _exact({"command": payload.get("command"),
                        "result": payload.get("result"),
                        "checks": sorted(c.get("name") for c in payload.get("checks", []))},
                       floats)
        return _reference(json.dumps(exact, sort_keys=True), floats)
    lines = text.splitlines()
    if fmt == "text":
        if any(line.startswith("[FAIL]") for line in lines):
            raise OutputError("a check line reads [FAIL]")
        lines = [m.group() if (m := _CHECK_LINE.match(line)) else line for line in lines]

    def take(match):
        floats.append(float(match.group()))
        return _FLOAT_MARK

    body = "\n".join(_FLOAT.sub(take, line.rstrip()) for line in lines)
    return _reference(body, floats)


def _reference(exact_text: str, floats: list[float]):
    digest = _digest(exact_text)
    return [digest, floats] if floats else digest


def same(got, ref) -> bool:
    """Exact digests equal and floats equal within ``REL_TOL``."""
    if isinstance(got, str) or isinstance(ref, str):
        return got == ref
    if got[0] != ref[0] or len(got[1]) != len(ref[1]):
        return False
    return all(
        a == b or math.isclose(a, b, rel_tol=REL_TOL)
        for a, b in zip(got[1], ref[1])
    )


def job_key(argv: list[str]) -> str:
    """Reference key of a job: its argument vector, space separated."""
    return " ".join(argv)


def output_format(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "json"
