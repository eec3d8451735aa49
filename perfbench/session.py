"""One cold CLI session: run a stream of argument vectors back to back.

Run as ``python3 perfbench/session.py STREAM RESULT [--trace SPANS |
--setup-only]`` from the root of a checkout.  STREAM is a JSON file holding the jobs (argument
vectors), their output files and the per-job timeout.  Each job calls
``char2cat.cli.run(argv + ["--out", FILE])`` in this interpreter, so the
package's caches carry over from job to job as they would for a user who
scripts the library.  RESULT receives the timings; the outputs are left
in their files for the caller to check.

``time.monotonic()`` is read once the package is imported and the stream
is loaded; the caller subtracts its spawn time to get the set-up time.
``--setup-only`` stops there, so the caller can sample set-up time cheaply.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so no ``except Exception`` in
    the program swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def main(argv: list[str]) -> int:
    stream_path, result_path = argv[0], argv[1]
    spans_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    sys.path.insert(0, str(ROOT / "src"))
    from char2cat import cli

    stream = json.loads(Path(stream_path).read_text())
    ready = time.monotonic()
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"char2cat imported from {cli.__file__}, not from this checkout")
    if argv[2:] == ["--setup-only"]:
        Path(result_path).write_text(json.dumps({"ready_monotonic": ready}))
        return 0

    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    signal.signal(signal.SIGALRM, _on_alarm)
    jobs = []
    for job_id, (job, out) in enumerate(zip(stream["jobs"], stream["outs"])):
        if tracer:
            tracer.job = job_id
        err = ""
        signal.setitimer(signal.ITIMER_REAL, stream["timeout_s"])
        t0 = time.perf_counter()
        try:
            rc = cli.run(job + ["--out", out])
        except JobTimeout:
            rc, err = -1, f"timed out after {stream['timeout_s']} s"
        except Exception as exc:  # a raising job is a failed job; keep going
            rc, err = -1, f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
        jobs.append({"rc": rc, "s": elapsed, "err": err})

    result = {
        "ready_monotonic": ready,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": sys.modules["numpy"].__version__,
        "jobs": jobs,
    }
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.stats()
        tracer.write_spans(spans_path)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
