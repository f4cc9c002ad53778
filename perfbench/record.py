"""Record the exact-answer digests that the benchmark checks against.

Runs every job of every workload once and writes ``expected.json``.  Run
it only on code whose answers are known to be right, and only in a change
that changes the benchmark itself:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json

import answers
import workloads
from worker import import_package, run_job


def main() -> None:
    cli = import_package()
    digests = {}
    for jobs in workloads.WORKLOADS.values():
        for argv in jobs:
            rc, out, err, _ = run_job(cli, argv)
            if rc != 0 or "Traceback" in err:
                raise SystemExit(f"job failed: {workloads.job_id(argv)}\n{err}")
            digests[workloads.job_id(argv)] = answers.answer_digest(argv, out)
    answers.EXPECTED_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
