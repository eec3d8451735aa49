"""Tests of the benchmark itself: streams, tracer, gate, and refusing to run
without the program.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

REFS = json.loads((BENCH / "refs.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_stream(name):
    a = workloads.stream(name, workloads.DEFAULT_SEED)
    assert a == workloads.stream(name, workloads.DEFAULT_SEED)
    assert workloads.fingerprint(a) == workloads.fingerprint(list(a))
    assert len(a) >= 100


@pytest.mark.parametrize("name", ["ring", "counting", "small"])
def test_seeds_draw_different_jobs(name):
    a = workloads.stream(name, workloads.DEFAULT_SEED)
    b = workloads.stream(name, workloads.HELD_OUT_SEED)
    assert sorted(map(gate.job_key, a)) != sorted(map(gate.job_key, b))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_load_shape_is_fixed(name):
    def shape(jobs):  # command and flags, without values or format
        return sorted(" ".join(w for w in job if w.startswith("--") and w != "--format")
                      + " " + job[0] for job in jobs)

    base = shape(workloads.stream(name, workloads.DEFAULT_SEED))
    for seed in (workloads.HELD_OUT_SEED, 7, 1234):
        assert shape(workloads.stream(name, seed)) == base


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_no_jobs_flag_and_every_job_has_a_reference(name):
    for job in workloads.pool(name):
        assert "--jobs" not in job
        assert gate.job_key(job) in REFS


def _run_session(jobs, outdir: Path, traced: bool) -> dict:
    outdir.mkdir()
    outs = [str(outdir / f"job-{i}.out") for i in range(len(jobs))]
    stream = outdir / "stream.json"
    stream.write_text(json.dumps({"jobs": jobs, "outs": outs, "timeout_s": 30}))
    result = outdir / "result.json"
    cmd = [sys.executable, str(BENCH / "session.py"), str(stream), str(result)]
    if traced:
        cmd += ["--trace", str(outdir / "spans.npz")]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
    return json.loads(result.read_text())


def test_traced_outputs_are_byte_identical(tmp_path):
    jobs = []
    for name in workloads.WORKLOADS:
        stream = workloads.stream(name, workloads.DEFAULT_SEED)
        jobs += [job for job in stream if job[:3] != ["fusion", "--level", "7"]][:15]
    plain = _run_session(jobs, tmp_path / "plain", traced=False)
    traced = _run_session(jobs, tmp_path / "traced", traced=True)
    assert [j["rc"] for j in plain["jobs"]] == [0] * len(jobs)
    assert [j["rc"] for j in traced["jobs"]] == [0] * len(jobs)
    for i in range(len(jobs)):
        a = (tmp_path / "plain" / f"job-{i}.out").read_bytes()
        b = (tmp_path / "traced" / f"job-{i}.out").read_bytes()
        assert a == b, jobs[i]
    assert traced["trace"]["cli.run"]["calls"] == len(jobs)
    assert (tmp_path / "traced" / "spans.npz").exists()


def test_alias_rebinding_reaches_imported_names():
    import char2cat
    from char2cat import chebyshev, cyclotomic, fusion, homology, tilting

    original = cyclotomic.d_basis_element
    mul = cyclotomic.CycInt.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = cyclotomic.d_basis_element
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert fusion.d_basis_element is wrapped
        assert homology.d_basis_element is wrapped
        assert char2cat.d_basis_element is wrapped
        assert tilting.eval_poly is chebyshev.eval_poly
        assert cyclotomic.CycInt.__rmul__ is cyclotomic.CycInt.__mul__
        assert cyclotomic.CycInt.__mul__ is not mul
        fusion.fpdim(fusion.simple_elt(3, 5))
        _ = 2 * cyclotomic.CycInt.delta(2)  # goes through __rmul__
        stats = tracer.stats()
        assert stats["cyclotomic.d_basis_element"]["calls"] == 1
        assert stats["fusion.fpdim"]["calls"] == 1
        assert stats["cyclotomic.CycInt.mul"]["calls"] >= 2
        assert "cache_entries" in stats["fusion.gen_mul"]
    finally:
        tracer.uninstall()
    assert cyclotomic.d_basis_element is original
    assert fusion.d_basis_element is original
    assert cyclotomic.CycInt.__mul__ is mul and cyclotomic.CycInt.__rmul__ is mul


def _output(argv, tmp_path) -> str:
    from char2cat import cli

    out = tmp_path / "out"
    assert cli.run(argv + ["--out", str(out)]) == 0
    return out.read_text()


def test_gate_accepts_the_reference_and_flags_a_perturbed_result(tmp_path):
    argv = ["fpdim", "--level", "5", "--simple", "13"]
    text = _output(argv, tmp_path)
    ref = REFS[gate.job_key(argv)]
    assert gate.same(gate.reduce_output(text, "json"), ref)

    payload = json.loads(text)
    compact = json.dumps(payload, separators=(",", ":"))
    assert gate.same(gate.reduce_output(compact, "json"), ref)

    coeffs = payload["result"]["power_coeffs"]
    coeffs[1] = str(int(coeffs[1]) + 1)
    assert not gate.same(gate.reduce_output(json.dumps(payload), "json"), ref)

    payload = json.loads(text)
    payload["result"]["float"] *= 1 + 1e-12  # within tolerance
    assert gate.same(gate.reduce_output(json.dumps(payload), "json"), ref)
    payload["result"]["float"] *= 1 + 1e-6
    assert not gate.same(gate.reduce_output(json.dumps(payload), "json"), ref)

    payload = json.loads(text)
    payload["checks"][0]["pass"] = False
    with pytest.raises(gate.OutputError):
        gate.reduce_output(json.dumps(payload), "json")

    payload = json.loads(text)
    for check in payload["checks"]:
        check["detail"] = "reworded"  # prose does not count
    assert gate.same(gate.reduce_output(json.dumps(payload), "json"), ref)
    del payload["checks"][0]  # a check that is no longer made does
    assert not gate.same(gate.reduce_output(json.dumps(payload), "json"), ref)


def test_gate_on_text_and_csv(tmp_path):
    argv = ["minpoly", "--level", "4", "--format", "text"]
    text = _output(argv, tmp_path)
    ref = REFS[gate.job_key(argv)]
    assert gate.same(gate.reduce_output(text, "text"), ref)
    assert not gate.same(gate.reduce_output(text.replace("degree: 16", "degree: 17"), "text"), ref)
    with pytest.raises(gate.OutputError):
        gate.reduce_output(text.replace("[PASS]", "[FAIL]"), "text")
    dropped = "".join(line for line in text.splitlines(keepends=True)
                      if not line.startswith("[PASS]"))
    assert not gate.same(gate.reduce_output(dropped, "text"), ref)

    argv = ["cartan", "--index", "5", "--format", "csv"]
    text = _output(argv, tmp_path)
    ref = REFS[gate.job_key(argv)]
    assert gate.same(gate.reduce_output(text, "csv"), ref)
    assert not gate.same(gate.reduce_output(text.replace(",2", ",3", 1), "csv"), ref)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
