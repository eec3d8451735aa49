"""Record the reference of every job any seed can draw, into refs.json.

Run ``python3 perfbench/record.py`` from the root of a checkout whose
outputs are trusted.  Every job of every workload's pool is run once
through ``char2cat.cli.run``; a job that fails or reports a failed check
stops the recording.  A later code change must keep matching these
references; re-record only when an output changes on purpose.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from char2cat import cli

    import gate
    import workloads

    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    out = work / "record.out"
    refs: dict[str, object] = {}
    for name in workloads.WORKLOADS:
        t0 = time.perf_counter()
        jobs = workloads.pool(name)
        for job in jobs:
            key = gate.job_key(job)
            if key in refs:
                continue
            rc = cli.run(job + ["--out", str(out)])
            if rc != 0:
                raise SystemExit(f"{key}: exit code {rc}")
            refs[key] = gate.reduce_output(out.read_text(), gate.output_format(job))
        print(f"{name}: {len(jobs)} jobs in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    out.unlink()
    REFS.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {len(refs)} references to {REFS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
