"""Exact-answer digests and the per-job output check.

A job is correct only when it exits 0, prints no traceback, and the
digest of its exact answer equals the one recorded in ``expected.json``.
The digest leaves out fields that say how an answer was computed (the
Dixon prime, the float ``approx`` values), so a faster algorithm that
finds the same exact answer still passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

EXPECTED_PATH = Path(__file__).with_name("expected.json")

SWEEP_VERDICTS = {
    "check-integrality": ("integral", "power_closed", "agree"),
    "check-membership": ("in_subfield", "class_closed", "agree"),
}


class WrongAnswer(Exception):
    """The output parsed but does not hold a valid exact answer."""


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def answer_digest(argv: tuple[str, ...], stdout: str) -> str:
    """Digest of the exact answer a job printed on stdout."""
    command = argv[0]
    if command == "verify-all":
        # verify-all JSON is byte-identical by contract: digest all of it.
        return hashlib.sha256(stdout.encode()).hexdigest()
    try:
        doc = json.loads(stdout)
        if command == "character-table":
            return _sha256(
                {
                    "order": doc["group"]["order"],
                    "conductor": doc["conductor"],
                    "degrees": doc["degrees"],
                    "class_sizes": [c["size"] for c in doc["classes"]],
                    "rows": [[[v["m"], v["coeffs"]] for v in row] for row in doc["rows"]],
                }
            )
        if command in SWEEP_VERDICTS:
            if doc["disagreements"] != 0:
                raise WrongAnswer(f"{doc['disagreements']} sweep disagreements")
            keys = SWEEP_VERDICTS[command]
            return _sha256(
                {
                    "subsets": doc["subsets"],
                    "gamma": doc.get("gamma"),
                    "verdicts": [[r["classes"]] + [r[k] for k in keys] for r in doc["sweep"]],
                }
            )
    except (ValueError, KeyError, TypeError) as exc:
        raise WrongAnswer(f"unreadable output: {exc!r}") from exc
    raise WrongAnswer(f"no digest rule for command {command!r}")


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


def check_job(
    argv: tuple[str, ...], rc: int, stdout: str, stderr: str, expected: Optional[str]
) -> Optional[str]:
    """Why the job failed, or None when its answer is correct."""
    if rc != 0:
        return f"exit code {rc}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    if expected is None:
        return "no recorded digest"
    try:
        digest = answer_digest(argv, stdout)
    except WrongAnswer as exc:
        return str(exc)
    if digest != expected:
        return "answer digest mismatch"
    return None
