"""Acceptance checks for the shipped guarantees, one test per guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass or fail line
per guarantee.  Exact assertions use integer arithmetic throughout; the only
tolerance is TOLERANCE below, applied when the exact spectrum is compared
with a floating-point eigensolver.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest
from conftest import CORPUS, nonidentity_subsets

from cayley_spectra import (
    adjacency_matrix,
    all_eigenvalues_in_subfield,
    check_coefficient_symmetry,
    check_integrality,
    check_power_closure_consistency,
    compare_spectra,
    cyclic_subgroups,
    eigenvalues_via_characters,
    galois_apply,
    galois_conjugacy_classes,
    get_context,
    induced_character_from_cyclic,
    is_fixed_by,
    is_power_closed,
    is_union_of_galois_classes,
    make_connection_set,
    oracle_power_closed,
    oracle_spectrum,
    power_conjugation_counts,
    subgroup_closure,
    unit_group,
    verify_galois_character_identity,
    verify_orthogonality,
    verify_spectrum_exact,
)
from cayley_spectra.cli import NAIVE_ORACLE_CAP, run

TOLERANCE = 1e-8
SWEEP_BUDGET_SECONDS = 300.0
FLOAT_ORACLE_CAP = 120
EXACT_BACKEND_CAP = 60


def _gamma_lattice(m):
    """Every cyclic subgroup of the units mod m, plus the full and trivial ones."""
    gammas = {g.elements: g for g in cyclic_subgroups(m)}
    for g in (unit_group(m), subgroup_closure(m, ())):
        gammas.setdefault(g.elements, g)
    return sorted(gammas.values(), key=lambda g: (g.order, g.elements))


def test_integrality_matches_power_closure_across_full_sweep(corpus):
    start = time.monotonic()
    checked = 0
    for spec in CORPUS:
        group, cd, table = corpus[spec]
        for subset in nonidentity_subsets(cd):
            conn = make_connection_set({"classes": list(subset)}, group, cd)
            report = check_integrality(group, cd, conn, table)
            assert report.agree, (spec, subset)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == sum(2 ** (corpus[s][1].k - 1) for s in CORPUS)
    assert elapsed < SWEEP_BUDGET_SECONDS


def test_subfield_membership_matches_galois_class_closure_across_full_sweep(corpus):
    for spec in CORPUS:
        group, cd, table = corpus[spec]
        gammas = _gamma_lattice(group.exponent)
        merged = [galois_conjugacy_classes(group, cd, g) for g in gammas]
        for subset in nonidentity_subsets(cd):
            conn = make_connection_set({"classes": list(subset)}, group, cd)
            sp = eigenvalues_via_characters(conn, table, cd)
            for gamma, mg in zip(gammas, merged):
                in_field = all_eigenvalues_in_subfield(sp, gamma)
                closed, _ = is_union_of_galois_classes(subset, cd, mg)
                assert in_field == closed, (spec, subset, gamma.elements)


def test_power_closure_routes_and_naive_oracle_agree(corpus):
    for spec in CORPUS:
        group, cd, _ = corpus[spec]
        for subset in nonidentity_subsets(cd):
            assert check_power_closure_consistency(group, cd, subset), (spec, subset)
            if group.n <= NAIVE_ORACLE_CAP:
                elements = [x for j in subset for x in cd.classes[j]]
                assert is_power_closed(elements, group) == oracle_power_closed(
                    elements, group
                ), (spec, subset)


def test_spectra_match_float_oracle_and_exact_backend(corpus):
    ctx_cache = {}
    for spec in CORPUS:
        group, cd, table = corpus[spec]
        if group.n > FLOAT_ORACLE_CAP:
            continue
        ctx = ctx_cache.setdefault(group.exponent, get_context(group.exponent))
        for subset in nonidentity_subsets(cd):
            conn = make_connection_set({"classes": list(subset)}, group, cd)
            sp = eigenvalues_via_characters(conn, table, cd)
            adj = adjacency_matrix(group, conn.elements)
            cmp = compare_spectra(sp, oracle_spectrum(adj), TOLERANCE)
            assert cmp.passed, (spec, subset, cmp.max_distance)
            if group.n > EXACT_BACKEND_CAP:
                continue
            exact = verify_spectrum_exact(sp, adj)
            assert exact.passed, (spec, subset)
            assert sum(e.multiplicity for e in sp.entries) == group.n
            first = ctx.zero
            second = ctx.zero
            for e in sp.entries:
                first = first + e.value.numerator * e.degree
                second = second + e.value.numerator * e.value.numerator
            assert first == ctx.from_int(int(np.trace(adj)))
            assert second == ctx.from_int(int(np.trace(adj @ adj)))


def test_character_tables_are_orthogonal_and_galois_consistent(corpus):
    for spec in CORPUS:
        group, cd, table = corpus[spec]
        assert verify_orthogonality(table, cd, group.n), spec
        assert sum(d * d for d in table.degrees) == group.n, spec
        assert verify_galois_character_identity(
            table, cd, unit_group(group.exponent)
        ), spec


def test_conjugation_counts_are_positive_exact_and_symmetric(corpus):
    for spec in CORPUS:
        group, cd, _ = corpus[spec]
        m = group.exponent
        ctx = get_context(m)
        gammas = _gamma_lattice(m)
        merged = [galois_conjugacy_classes(group, cd, g) for g in gammas]
        induced = {
            j: induced_character_from_cyclic(cd.representatives[j], group, cd)
            for j in range(1, cd.k)
        }
        for subset in nonidentity_subsets(cd):
            if not subset:
                continue
            conn = make_connection_set({"classes": list(subset)}, group, cd)
            closed = [
                gamma
                for gamma, mg in zip(gammas, merged)
                if is_union_of_galois_classes(subset, cd, mg)[0]
            ]
            for j in subset:
                x = cd.representatives[j]
                counts = power_conjugation_counts(x, conn, group, cd, induced[j])
                assert counts.counts[1] > 0, (spec, subset, x)
                acc = ctx.zero
                for i in subset:
                    acc = acc + induced[j].values[i] * cd.sizes[i]
                assert counts.weighted_sum == acc * int(group.orders[x])
                for gamma in closed:
                    assert check_coefficient_symmetry(counts, gamma), (
                        spec,
                        subset,
                        x,
                        gamma.elements,
                    )


def test_negative_controls_are_rejected(corpus):
    group, cd, table = corpus["cyclic(5)"]
    conn = make_connection_set({"classes": [1, 4]}, group, cd)
    report = check_integrality(group, cd, conn, table)
    assert report.integral is False
    assert report.power_closed is False
    assert report.agree is True

    sp = eigenvalues_via_characters(conn, table, cd)
    irrational = [e for e in sp.entries if not e.value.is_rational]
    assert irrational
    sigma2 = subgroup_closure(5, (2,))
    for e in irrational:
        assert galois_apply(2, e.value.numerator) != e.value.numerator
        assert not is_fixed_by(e.value.numerator, sigma2)
    golden = (math.sqrt(5) - 1) / 2
    approx = sorted(e.value.to_complex().real for e in irrational)
    assert approx == pytest.approx([-golden - 1, -golden - 1, golden, golden])

    adj = adjacency_matrix(group, conn.elements)
    numeric = list(oracle_spectrum(adj))
    numeric[0] += 1e-4
    cmp = compare_spectra(sp, numeric, TOLERANCE)
    assert not cmp.passed
    assert cmp.max_distance > TOLERANCE
    assert cmp.worst_index is not None


# sha256 of verify-all's stdout on the bundled corpus, JSON and --output table
VERIFY_ALL_JSON_SHA256 = "04c799118dd0366ff83d1ba1c54a04804219fffe5e6e13e9394a309a7b721b19"
VERIFY_ALL_TABLE_SHA256 = "ebb782d1da0e4405a6b6eeb998e8c93da58f63bc8ddc7dc1debb6b9ee81bfa2a"


# sha256 of the benchmark jobs' stdout (perfbench/workloads.py), JSON and --output table
JOB_STDOUT_SHA256 = {
    "character-table --group symmetric(7)": (
        "c2af4509e61d2d38dfd4beb6a9f93ec649d88507c478abce03f5959a4189e334",
        "07e71a80a960615b496d52f44a4e8f314107cad9bdd245a15801e76c91189b4a",
    ),
    "character-table --group product(cyclic(6),cyclic(6))": (
        "9b10d0979dba85c1b96e974e8ec138ecb88871ffd0ca1f7b9044bf6946df9d1a",
        "ed3c63a85000c8fc5524bb612ea8dcd40c445212f77237f836be18f9f0a1ee5f",
    ),
    "character-table --group cyclic(40)": (
        "072f1452eb048905b7df05eda64d3faaba6479a8e939986b7e157f7c47a2a771",
        "79644344b92ea83dd80264c6487a08e9b47235fdd0f83bc8c893c04dfa5e2e59",
    ),
    "character-table --group elementary-abelian(2,6)": (
        "b5bc763931a466c71017d9579c318701ff6ba4732c3af3df05e0223cc0c6a30a",
        "10c1625778d3866ddfa733bb6b3e3833ec5edd06b4fc1bb8403d2c0bb90153d1",
    ),
    "character-table --group cyclic(60)": (
        "f6514d4aef853a1b14b8afd8a56d802efa6aba86f23a2d190fc81396475d5abd",
        "ab7f2268c364a126794d64312f7ca15ad15d4f8c415fc259c59f614279611e72",
    ),
    "check-integrality --group symmetric(6) --connection sweep": (
        "ee65f773ecd47fc4aca27372944defca84d6dd1e432b8b0b8bbdddc58691c2df",
        "7f195e3823f9c7588be4b1fafba1709f03eadfa8a2ed6f491d02b5d45de3b796",
    ),
    "check-membership --group alternating(7) --connection sweep --gamma rational": (
        "40931834dadce7147c5a0cc28652441a41eb566680c46bbd1a93c1b9049038d1",
        "b553a9ac629591cd49aa180538cafec6d40bc4b959eed2afd2fdc52906453cd0",
    ),
    "check-integrality --group dihedral(22) --connection sweep": (
        "c3b49a374dab8804762c4bf567c1abbeb3001e5994639b8a4808cb38c67bbf32",
        "6f0b04952637c6dddaa57c67face37a72f4416869b62e47c6e466d935545d147",
    ),
}

# a table of 14,400 entries with 120 distinct values, recorded when each entry was written on its own
LARGE_TABLE_STDOUT_SHA256 = (
    "0f5f2e6792bf2bcda033a31dd34317e4fe98acc36afcb726393e239b98cafe31",
    "8bea127abd6cc1f1668965ec560457da854c7208012626a52f3659122c7a7935",
)


def _stdout_sha256(argv, capsys):
    digests = []
    for output in ("json", "table"):
        assert run([*argv, "--output", output]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    return tuple(digests)


@pytest.mark.parametrize("job", JOB_STDOUT_SHA256)
def test_benchmark_job_output_is_byte_identical(job, capsys):
    assert _stdout_sha256(job.split(), capsys) == JOB_STDOUT_SHA256[job]


def test_large_table_output_is_byte_identical(capsys):
    assert _stdout_sha256(["character-table", "--group", "cyclic(120)"], capsys) == LARGE_TABLE_STDOUT_SHA256


def test_verify_all_output_is_byte_identical(capsys):
    first_code = run(["verify-all"])
    first = capsys.readouterr().out
    second_code = run(["verify-all"])
    second = capsys.readouterr().out
    assert first_code == second_code == 0
    assert first == second
    doc = json.loads(first)
    assert doc["totals"]["fail"] == 0
    assert hashlib.sha256(first.encode()).hexdigest() == VERIFY_ALL_JSON_SHA256
    assert run(["verify-all", "--output", "table"]) == 0
    table = capsys.readouterr().out
    assert hashlib.sha256(table.encode()).hexdigest() == VERIFY_ALL_TABLE_SHA256
