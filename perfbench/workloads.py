"""Seeded job streams for the four workloads.

A workload is a list of strata.  A stratum is a fixed list of candidate
jobs, all of one kind, size range and output format, and the number of
them a stream draws.  A seed draws each stratum's jobs without replacement
and then shuffles the whole stream, so every seed carries the same kinds
of job in the same size ranges, formats and counts; only the picks and the
order change.  A candidate can be a unit of jobs that stay together, and
a few jobs are pinned to the end of the stream.
The candidates of all strata form the workload's pool, and ``refs.json``
holds a reference for every job in every pool, so a stream from any seed
is checked in full.

Where the cost of a job swings widely with its parameters (products and
dimensions at ring levels 8 and 9), the candidates are fixed lists of
parameters whose jobs cost about the same, picked once from a random
sample by timing each job at the code the benchmark was written against.
"""

from __future__ import annotations

import hashlib
import json
import random

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

Job = list[str]


def _f(argv: Job, fmt: str) -> Job:
    """``argv`` in format ``fmt``; json is the default and is not spelled out."""
    return argv if fmt == "json" else argv + ["--format", fmt]


# A stratum is (count, units, last): draw ``count`` of ``units``, where a
# unit is a list of jobs that run back to back; ``last`` pins the units to
# the end of the stream instead.


def _grid(argvs, fmts, copies: int = 1):
    """A stratum that runs every candidate, ``copies`` times."""
    units = [[_f(a, f)] for a in argvs for f in fmts] * copies
    return len(units), units, False


def _draw(count: int, argvs, fmt: str):
    """A stratum that draws ``count`` of ``argvs``, all in format ``fmt``."""
    return count, [[_f(a, fmt)] for a in argvs], False


def _together(argvs, fmts):
    """A stratum that runs every candidate once in each format, the formats
    back to back in this order."""
    units = [[_f(a, f) for f in fmts] for a in argvs]
    return len(units), units, False


def _last(argvs):
    """Jobs that end every stream, in this order."""
    return 1, [list(argvs)], True


def _args(*words) -> Job:
    return [str(w) for w in words]


def _pairs(level: int, count: int) -> list[tuple[int, int]]:
    """``count`` distinct ordered pairs of level-``level`` classes, fixed."""
    rng = random.Random(f"pairs:{level}")
    every = [(a, b) for a in range(1 << level) for b in range(1 << level)]
    return every if count >= len(every) else rng.sample(every, count)


def _fusion_pairs(level, pairs):
    return [_args("fusion", "--level", level, "--left", a, "--right", b) for a, b in pairs]


def _simple(level, masks):
    return [_args("fpdim", "--level", level, "--simple", s) for s in masks]


def _bands(lo: int, hi: int, parts: int) -> list[range]:
    """``lo..hi`` split into ``parts`` contiguous inclusive ranges."""
    edges = [lo + (hi + 1 - lo) * k // parts for k in range(parts + 1)]
    return [range(edges[k], edges[k + 1]) for k in range(parts)]


# cost-matched candidates, see the module docstring (each job 10-20 ms,
# 110-170 ms, 5-10 ms and 40-80 ms respectively; the level-9 products
# set job_p90_ms on ``ring``, so their band is the narrowest)
_FUSION_8 = [
    (183, 184), (48, 55), (187, 241), (117, 72), (192, 15), (99, 89), (217, 59),
    (89, 123), (66, 201), (73, 36), (213, 133), (43, 241), (19, 184), (238, 35),
    (144, 171), (59, 229), (103, 154), (139, 74), (7, 37), (43, 149), (93, 135),
    (221, 203), (109, 207), (178, 255), (50, 207), (209, 207), (42, 233),
    (121, 134), (45, 94), (47, 130),
]
_FUSION_9 = [
    (374, 494), (120, 163), (291, 349), (446, 99), (265, 170), (450, 155),
    (156, 5), (38, 421), (402, 113), (67, 505), (498, 353),
]
_SIMPLE_8 = [58, 216, 42, 26, 66, 170, 240, 2, 130, 116, 120, 128, 33, 84,
             225, 196, 102, 166, 220, 98]
_SIMPLE_9 = [297, 190, 209, 89, 9, 25, 462, 118, 478, 449, 385, 353]

JT = ("json", "text")
JCT = ("json", "csv", "text")


def _ring():
    for fmt in JT:
        yield _draw(10, _fusion_pairs(7, _pairs(7, 40)), fmt)
        yield _draw(10, _fusion_pairs(8, _FUSION_8), fmt)
        yield _draw(5, _fusion_pairs(9, _FUSION_9), fmt)
        yield _draw(5, _simple(8, _SIMPLE_8), fmt)
        yield _draw(3, _simple(9, _SIMPLE_9), fmt)
    for m in range(6, 15):
        yield _grid([_args("fpdim", "--level", m, "--category")], (JT[m % 2],))
    for n in range(1, 11):
        yield _grid([_args("fpdim", "--level", n, "--algebra")], (JT[n % 2],))
    yield _grid([_args("minpoly", "--level", n) for n in range(4, 12)], JT)


def _tables():
    # one table in every format in a row: the first pays for the computation
    # and the rest hit the caches, whatever the order of the tables
    yield _together([_args("fusion", "--level", n) for n in range(2, 7)], JCT)
    yield _together([_args("cartan", "--index", m) for m in range(5, 20)], JCT)
    yield _together([_args("ext1", "--index", m) for m in range(5, 19)], JCT)
    # last, so the peak memory it sets does not depend on the order
    yield _last([_args("fusion", "--level", 7)])


def _counting():
    routes = ("recursion", "paths", "series", "all")
    bands = (range(8, 12), range(20, 24), range(32, 36), range(45, 49))
    for n in range(1, 5):
        for r, route in enumerate(routes):
            for b, band in enumerate(bands):
                yield _draw(1, [_args("invariants", "--level", n, "--max-m", m,
                                      "--route", route) for m in band], JCT[(n + r + b) % 3])
    for k, band in enumerate(_bands(20, 255, 10)):
        yield _draw(1, [_args("tilt", "--table", "--max-m", m) for m in band], JCT[k % 3])
    for k, band in enumerate(_bands(10, 256, 10)):
        yield _draw(1, [_args("tilt", "--decompose", r) for r in band], JT[k % 2])
    for n in range(2, 6):
        for b, band in enumerate(_bands(15, 63, 4)):
            yield _draw(1, [_args("tilt", "--functor", n, "--max-m", m) for m in band],
                        JT[(n + b) % 2])


def _small():
    for level, count in ((1, 2), (2, 8), (3, 20), (4, 40), (5, 70)):
        pool = _pairs(level, 256 if level < 5 else 200)
        for fmt in JT:
            yield _draw(count, _fusion_pairs(level, pool), fmt)
    yield _grid([_args("fusion", "--level", n) for n in range(1, 5)], JCT, copies=2)
    yield _grid([_args("cartan", "--index", m) for m in range(10)], JCT, copies=2)
    yield _grid([_args("ext1", "--index", m) for m in range(10)], JCT, copies=2)
    for level, count in ((3, 6), (4, 10), (5, 14)):
        for fmt in JT:
            yield _draw(count, _simple(level, range(1 << level)), fmt)
    yield _grid([_args("fpdim", "--level", m, "--category") for m in range(10)], JT, copies=2)
    yield _grid([_args("fpdim", "--level", n, "--algebra") for n in range(6)], JT, copies=2)
    for band in _bands(0, 30, 10):
        for fmt in JCT:
            yield _draw(1, [_args("tilt", "--table", "--max-m", m) for m in band], fmt)
    for n in range(6):
        for band in _bands(0, 30, 3):
            for fmt in JT:
                yield _draw(1, [_args("tilt", "--functor", n, "--max-m", m) for m in band], fmt)
    for fmt in JT:
        yield _draw(15, [_args("tilt", "--decompose", r) for r in range(1, 31)], fmt)
    for n in range(4):
        for r, route in enumerate(("recursion", "paths", "series", "all")):
            for b, band in enumerate(_bands(0, 12, 4)):
                yield _draw(1, [_args("invariants", "--level", n, "--max-m", m,
                                      "--route", route) for m in band], JCT[(n + r + b) % 3])
    yield _grid([_args("minpoly", "--level", n) for n in range(6)], JT, copies=2)
    for level in range(2, 6):
        yield _grid([_args("verify", "--max-level", level)], (JT[level % 2],))


WORKLOADS = {
    "ring": _ring,
    "tables": _tables,
    "counting": _counting,
    "small": _small,
}


def stream(workload: str, seed: int) -> list[Job]:
    """The job stream of ``workload`` for ``seed``; same seed, same stream."""
    rng = random.Random(f"{workload}:{seed}")
    units: list[list[Job]] = []
    tail: list[Job] = []
    for count, cands, last in WORKLOADS[workload]():
        if last:
            tail.extend(job for unit in cands for job in unit)
        else:
            units.extend(rng.sample(cands, count))
    rng.shuffle(units)
    return [job for unit in units for job in unit] + tail


def pool(workload: str) -> list[Job]:
    """Every job any seed can draw for ``workload``, without repeats."""
    seen: dict[str, Job] = {}
    for _, cands, _ in WORKLOADS[workload]():
        for unit in cands:
            for job in unit:
                seen.setdefault(" ".join(job), job)
    return list(seen.values())


def fingerprint(jobs: list[Job]) -> str:
    """sha256 of the stream, to show two runs ran identical jobs."""
    return hashlib.sha256(json.dumps(jobs).encode()).hexdigest()
