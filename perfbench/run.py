"""char2cat CLI-session benchmark.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each measured unit is a session: a fresh
interpreter (``session.py``) that imports ``char2cat.cli`` and runs the
workload's seeded job stream back to back, closed loop, one client.
Sessions repeat until ``--seconds`` is spent (at least ``MIN_SESSIONS``).
Each job's time is its median over the sessions, and every other metric
is a median over sessions too.  Every job's output is checked against
``refs.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced sessions and reports the
per-layer metrics; the traced sessions' outputs are checked too.
``--workload all`` interleaves sessions of every workload and reports
each workload's metrics under ``<workload>.<metric>``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

MIN_SESSIONS = 2  # of each kind the run makes (untraced; traced with --trace 1)
SETUP_PROBES = 3  # set-up-only interpreters after each untraced session
JOB_TIMEOUT_S = 30
RUN_LIMIT_S = 150  # per workload; sessions still running then are killed
EXT = {"json": "json", "csv": "csv", "text": "txt"}


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel: a host-speed diagnostic only."""
    t0 = time.perf_counter()
    xs = sorted((i * 7919) % 100_003 for i in range(100_000))
    sum(x * x for x in xs)
    return time.perf_counter() - t0


def quantile(xs: list[float], q: float) -> float:
    """Linear-interpolation quantile, ``q`` in [0, 1]."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Workload:
    """One workload's stream, its sessions and their checked results."""

    def __init__(self, name: str, seed: int, traced: bool, refs: dict, memo: dict):
        self.name = name
        self.traced = traced
        self.refs = refs
        self.memo = memo  # sha256 of raw output -> reference, shared
        self.jobs = workloads.stream(name, seed)
        self.fingerprint = workloads.fingerprint(self.jobs)
        self.dir = WORK / name
        self.outdir = self.dir / "out"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.outs = [
            str(self.outdir / f"job-{i:04d}.{EXT[gate.output_format(job)]}")
            for i, job in enumerate(self.jobs)
        ]
        self.stream_file = self.dir / "stream.json"
        self.stream_file.write_text(json.dumps(
            {"jobs": self.jobs, "outs": self.outs, "timeout_s": JOB_TIMEOUT_S}))
        self.sessions: list[dict] = []  # untraced
        self.setup_s: list[float] = []  # of every untraced session and probe
        self.traced_sessions: list[dict] = []
        self.calib: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.numpy = "unknown"
        self.last_s = 0.0

    def wants_more(self, elapsed: float, budget: float) -> bool:
        if len(self.sessions) < MIN_SESSIONS:
            return True
        if self.traced and len(self.traced_sessions) < MIN_SESSIONS:
            return True
        return elapsed + self.last_s <= budget

    def run_session(self, time_left: float) -> None:
        traced = self.traced and len(self.traced_sessions) < len(self.sessions)
        for old in self.outdir.iterdir():
            old.unlink()
        self.calib.append(calibrate())
        result_file = self.dir / "result.json"
        result_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "session.py"), str(self.stream_file),
               str(result_file)]
        if traced:
            cmd += ["--trace", str(self.dir / "spans.npz")]
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT)
        try:
            proc.wait(timeout=max(time_left, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self.last_s = time.monotonic() - t0
        result = json.loads(result_file.read_text()) if result_file.exists() else None
        self.attempted += len(self.jobs)
        if result is None:
            self.failed += len(self.jobs)
            self.failures.append(f"session exited with code {proc.returncode} and no result")
            return
        self.numpy = result["numpy"]
        times, out_bytes = self._check(result["jobs"])
        session = {
            "times": times,
            "peak_rss_mb": result["rss_mb"],
            "output_mb": out_bytes / 1e6,
            "setup_s": result["ready_monotonic"] - t0,
        }
        if len(times) != len(self.jobs):
            return
        if traced:
            session["trace"] = result["trace"]
            self.traced_sessions.append(session)
        else:
            self.sessions.append(session)
            self.setup_s.append(session["setup_s"])
            for _ in range(SETUP_PROBES):
                self._probe_setup(result_file)
            self.last_s = time.monotonic() - t0

    def _probe_setup(self, result_file: Path) -> None:
        """One more set-up sample: an interpreter that stops once it is ready."""
        result_file.unlink(missing_ok=True)
        t0 = time.monotonic()
        try:
            subprocess.run([sys.executable, str(HERE / "session.py"), str(self.stream_file),
                            str(result_file), "--setup-only"], cwd=ROOT, timeout=60)
        except subprocess.TimeoutExpired:
            return
        if result_file.exists():
            self.setup_s.append(json.loads(result_file.read_text())["ready_monotonic"] - t0)

    def _check(self, results: list[dict]) -> tuple[list[float], int]:
        """Gate every job of a session; return job times and output bytes."""
        times, out_bytes = [], 0
        for job, out, res in zip(self.jobs, self.outs, results):
            times.append(res["s"])
            key = gate.job_key(job)
            problem = None
            if res["rc"] != 0:
                problem = res["err"] or f"exit code {res['rc']}"
            elif not os.path.exists(out):
                problem = "no output file"
            else:
                raw = Path(out).read_bytes()
                out_bytes += len(raw)
                sha = hashlib.sha256(raw).hexdigest()
                try:
                    if sha not in self.memo:
                        self.memo[sha] = gate.reduce_output(
                            raw.decode(), gate.output_format(job))
                    if key not in self.refs:
                        problem = "no stored reference"
                    elif not gate.same(self.memo[sha], self.refs[key]):
                        problem = "result differs from the stored reference"
                except (gate.OutputError, UnicodeDecodeError) as exc:
                    problem = str(exc)
            if problem:
                self.failed += 1
                self.failures.append(f"{key}: {problem}")
        missing = len(self.jobs) - len(results)
        if missing:
            self.failed += missing
            self.failures.append(f"{missing} job(s) never ran")
        return times, out_bytes

    def end_to_end(self) -> dict:
        times = job_times(self.sessions)
        return {
            "wall_s": sum(times),
            "job_p50_ms": quantile(times, 0.5) * 1e3,
            "job_p90_ms": quantile(times, 0.9) * 1e3,
            **{m: statistics.median(s[m] for s in self.sessions)
               for m in ("peak_rss_mb", "output_mb")},
            "setup_s": statistics.median(self.setup_s),
        }

    def per_layer(self, names: list[str]) -> dict:
        traced = self.traced_sessions[0]["trace"]
        for name in names:
            target = name.rsplit(".", 1)[0]
            if "." in target and target != "trace" and target not in traced:
                print(f"warning: {target} was not traced; its metrics read 0", file=sys.stderr)
        out = {}
        for name in names:
            if name == "trace.overhead_s":
                out[name] = sum(job_times(self.traced_sessions)) - sum(job_times(self.sessions))
            else:
                out[name] = statistics.median_low(
                    layer_stat(s["trace"], name) for s in self.traced_sessions)
        return out


def job_times(sessions: list[dict]) -> list[float]:
    """Each job's median time over the sessions; job j of every session does
    the same work from the same cold start."""
    return [statistics.median(col) for col in zip(*(s["times"] for s in sessions))]


def layer_stat(stats: dict, metric: str) -> float:
    """``<module>[.<Class>].<function>.<stat>`` or ``<module>.self_s``."""
    target, stat = metric.rsplit(".", 1)
    if "." not in target:  # a whole module
        return sum(r["self_s"] for n, r in stats.items() if n.startswith(target + "."))
    row = stats.get(target, {})
    if stat == "cache_hit_ratio":
        hits = row.get("cache_hits", 0)
        base = hits + row.get("cache_misses", 0)
        return hits / base if base else 0.0
    return row.get(stat, 0)


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "commit": commit}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "char2cat" / "cli.py").is_file():
        print(f"error: no char2cat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "refs.json").read_text())
    selected = names if args.workload == "all" else [args.workload]
    memo: dict = {}
    runs = [Workload(n, args.seed, bool(args.trace), refs, memo) for n in selected]
    meta = machine()
    for run in runs:
        print(f"# {run.name}: seed {args.seed}, {len(run.jobs)} jobs, "
              f"stream sha256 {run.fingerprint}")

    budget = args.seconds * len(runs)
    limit = RUN_LIMIT_S * len(runs)
    start = time.monotonic()
    while True:
        pending = [r for r in runs if r.wants_more(time.monotonic() - start, budget)]
        if not pending or time.monotonic() - start > limit:
            break
        for run in pending:  # interleaved, so host drift hits every workload alike
            run.run_session(limit - (time.monotonic() - start))

    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics: dict = {}
    failed = sum(r.failed for r in runs)
    attempted = sum(r.attempted for r in runs)
    for run in runs:
        prefix = f"{run.name}." if args.workload == "all" else ""
        complete = run.sessions and (run.traced_sessions or not args.trace)
        values, units = {}, {}
        if complete:
            values, units = (run.per_layer(list(layer)), layer) if args.trace \
                else (run.end_to_end(), e2e)
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
        if args.workload == "all":
            metrics[prefix + "fail_ratio"] = {
                "value": run.failed / max(run.attempted, 1), "unit": "failed/attempted"}
        calib_ms = [c * 1e3 for c in run.calib]
        run_meta = dict(meta, numpy=run.numpy, seed=args.seed, workload=run.name,
                        stream_sha256=run.fingerprint,
                        calib_ms_median=statistics.median(calib_ms),
                        calib_ms_range=[min(calib_ms), max(calib_ms)])
        print(f"# {run.name}: {len(run.sessions)} untraced + {len(run.traced_sessions)} "
              f"traced sessions; fail_ratio {run.failed}/{run.attempted} failed/attempted")
        for name, unit in units.items():
            print(f"  {name:<40} {values[name]:>14.6g} {unit}")
        print(f"# meta {json.dumps(run_meta)}")
        for line in run.failures[:10]:
            print(f"FAIL {run.name}: {line}", file=sys.stderr)
        (run.dir / "last-run.json").write_text(json.dumps({
            "meta": run_meta, "trace": args.trace, "calib_s": run.calib,
            "sessions": run.sessions, "setup_s": run.setup_s,
            "traced_sessions": run.traced_sessions,
            "failures": run.failures,
        }))
    correct = failed == 0 and all(r.sessions for r in runs)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
