"""One job of a workload in a fresh process, as one CLI invocation would run.

Protocol on stdin/stdout with ``run.py``: the worker imports the package
from the checkout's ``src/``, loads the job list, prints ``ready`` and
waits for ``go``.  After the job it prints one JSON line with the job's
time, outcome, peak memory and, when traced, the per-layer totals.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --job I --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import answers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


def import_package():
    sys.path.insert(0, str(SRC))
    import cayley_spectra
    from cayley_spectra import cli

    if not Path(cayley_spectra.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cayley_spectra imported from outside {SRC}")
    return cli


def run_job(cli, argv: tuple[str, ...]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(list(argv))
        except Exception:  # a crash is a failed job, reported like the CLI would
            traceback.print_exc()
            rc = 1
    seconds = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), seconds


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--job", type=int, required=True, help="index into the seeded job order")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    cli = import_package()
    argv = workloads.job_order(args.workload, args.seed)[args.job]
    jid = workloads.job_id(argv)
    expected = answers.load_expected().get(jid)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.current_job = args.job
        spans.install(tracer)

    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        print("worker: expected 'go' on stdin", file=sys.stderr)
        return 2

    rc, out, err, seconds = run_job(cli, argv)
    output_bytes = len(out.encode())
    report = {
        "job": jid,
        "seconds": seconds,
        "failure": answers.check_job(argv, rc, out, err, expected),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = spans.layer_totals(tracer, output_bytes)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-job{args.job}.npz", jid)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
