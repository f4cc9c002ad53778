"""Fixed job lists of the benchmark workloads.

Each job is one ``cayley-spectra`` command line.  The workload seed only
permutes the order in which a pass runs the jobs; the jobs themselves are
fixed, named inputs, so the recorded answer digests in ``expected.json``
stay valid for every seed.
"""

from __future__ import annotations

import random

LADDER_GROUPS = (
    "symmetric(7)",
    "product(cyclic(6),cyclic(6))",
    "cyclic(40)",
    "elementary-abelian(2,6)",
    "cyclic(60)",
)

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # The shipped full battery on the bundled 28-group corpus: sweeps and
    # oracles, while character tables take under 5% of the time.
    "corpus-verify": (("verify-all",),),
    # A ladder in class count k (15..64), phi(exponent) (1..96) and order
    # (up to 5040): table builds only, no sweeps and no oracles.
    "table-ladder": tuple(("character-table", "--group", g) for g in LADDER_GROUPS),
    # One table each, read thousands of times by a sweep, with no oracle.
    "class-sweep": (
        ("check-integrality", "--group", "symmetric(6)", "--connection", "sweep"),
        ("check-membership", "--group", "alternating(7)", "--connection", "sweep",
         "--gamma", "rational"),
        ("check-integrality", "--group", "dihedral(22)", "--connection", "sweep"),
    ),
    # Seconds-long list for the benchmark's own self-tests; not a benchmark
    # workload.
    "smoke": (
        ("character-table", "--group", "cyclic(4)"),
        ("check-integrality", "--group", "dihedral(4)", "--connection", "sweep"),
        ("check-membership", "--group", "cyclic(5)", "--connection", "sweep",
         "--gamma", "rational"),
    ),
}


def job_id(argv: tuple[str, ...]) -> str:
    """Stable name of a job, used as the key of its recorded digest."""
    return " ".join(argv)


def job_order(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The workload's jobs in the order that ``seed`` selects."""
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    return jobs
