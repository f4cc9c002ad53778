"""Self-tests of the benchmark itself (not of the package).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import answers
import spans
import workloads
from worker import import_package, run_job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_reports_every_metric(trace, section):
    res = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_job_order_is_a_seeded_permutation():
    jobs = workloads.WORKLOADS["table-ladder"]
    a = workloads.job_order("table-ladder", 7)
    assert a == workloads.job_order("table-ladder", 7)
    assert sorted(a) == sorted(jobs)
    assert any(workloads.job_order("table-ladder", s) != a for s in range(8))


@pytest.fixture(scope="module")
def smoke_outputs():
    cli = import_package()
    expected = answers.load_expected()
    out = {}
    for argv in workloads.WORKLOADS["smoke"]:
        rc, stdout, stderr, _ = run_job(cli, argv)
        out[argv[0]] = (argv, rc, stdout, stderr, expected[workloads.job_id(argv)])
    return out


def test_recorded_answers_pass(smoke_outputs):
    for argv, rc, stdout, stderr, digest in smoke_outputs.values():
        assert answers.check_job(argv, rc, stdout, stderr, digest) is None


def _check(entry, stdout):
    argv, rc, _, stderr, digest = entry
    return answers.check_job(argv, rc, stdout, stderr, digest)


def test_tampered_table_value_fails(smoke_outputs):
    entry = smoke_outputs["character-table"]
    doc = json.loads(entry[2])
    doc["rows"][1][1]["coeffs"][0] += 1
    assert _check(entry, json.dumps(doc)) == "answer digest mismatch"


def test_how_computed_fields_are_not_digested(smoke_outputs):
    entry = smoke_outputs["character-table"]
    doc = json.loads(entry[2])
    doc["prime"] += 2
    doc["rows"][1][1]["approx"]["re"] += 0.5
    assert _check(entry, json.dumps(doc)) is None


def test_tampered_sweep_verdict_fails(smoke_outputs):
    entry = smoke_outputs["check-integrality"]
    doc = json.loads(entry[2])
    row = doc["sweep"][3]
    row["integral"] = not row["integral"]
    assert _check(entry, json.dumps(doc)) == "answer digest mismatch"
    doc["disagreements"] = 1
    assert "disagreements" in _check(entry, json.dumps(doc))


def test_verify_all_digest_covers_every_byte():
    argv = ("verify-all",)
    text = '{"passed": true}\n'
    digest = answers.answer_digest(argv, text)
    assert answers.check_job(argv, 0, text, "", digest) is None
    assert answers.check_job(argv, 0, text.replace("true", "True"), "", digest) is not None


def test_exit_code_and_traceback_fail_the_job(smoke_outputs):
    argv, rc, stdout, stderr, digest = smoke_outputs["character-table"]
    assert answers.check_job(argv, 1, stdout, stderr, digest) == "exit code 1"
    assert answers.check_job(argv, 0, stdout, "Traceback (most recent", digest) is not None


def test_self_times_on_synthetic_spans():
    # root [0,10] has children a [1,4] and b [5,9]; b has child c [6,7];
    # a second root [10,12] has no children.
    parent = np.array([-1, 0, 0, 2, -1])
    start = np.array([0.0, 1.0, 5.0, 6.0, 10.0])
    end = np.array([10.0, 4.0, 9.0, 7.0, 12.0])
    # aggregate calls took 0.5 inside b and 0.25 inside the second root
    covered = np.array([0.0, 0.0, 0.5, 0.0, 0.25])
    own = spans.self_times(parent, start, end, covered)
    np.testing.assert_allclose(own, [3.0, 3.0, 2.5, 1.0, 1.75])
    # self times and aggregate time partition the root intervals
    assert own.sum() + covered.sum() == pytest.approx(12.0)


def test_tracer_records_nesting_counts_and_jobs():
    tracer = spans.Tracer()
    leaf = tracer.wrap("cyclotomic.leaf", lambda: None)
    hot = tracer.wrap("group_core.power_of", lambda: None)

    def body():
        leaf()
        hot()
        leaf()

    outer = tracer.wrap("characters.outer", body)
    tracer.current_job = 4
    outer()
    a = tracer.arrays()
    assert [tracer.names[i] for i in a["name"]] == [
        "characters.outer", "cyclotomic.leaf", "cyclotomic.leaf"
    ]
    assert list(a["parent"]) == [-1, 0, 0]
    assert list(a["job"]) == [4, 4, 4]
    assert tracer.counts["group_core.power_of"] == 1
    # the aggregate call's time is taken off the enclosing span only
    assert a["covered"][0] == tracer.seconds["group_core.power_of"] > 0
    assert list(a["covered"][1:]) == [0.0, 0.0]
    totals = spans.layer_totals(tracer, output_bytes=10)
    assert totals["group_core.power_of_calls"] == 1
    assert totals["group_core.self_s"] == tracer.seconds["group_core.power_of"]
    assert totals["trace.spans"] == 3
    assert totals["cli.output_bytes"] == 10


def test_ratios_of_summed_totals():
    totals = {
        "galois.merge_calls": 12,
        "galois.distinct_gammas": 4,
        "spectra.spectrum_calls": 0,
        "spectra.subsets_decided": 0,
    }
    out = spans.add_ratios(totals)
    assert out["galois.merges_per_gamma"] == 3.0
    assert out["spectra.spectra_per_subset"] == 0.0


def test_install_rebinds_every_namespace():
    code = (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import spans\n"
        "from cayley_spectra import cli, spectra, cyclotomic\n"
        "t = spans.Tracer(); spans.install(t)\n"
        "assert cli.dixon_character_table.__wrapped__ is not None\n"
        "assert spectra.is_fixed_by is cyclotomic.is_fixed_by\n"
        "assert all(hasattr(f, '__wrapped__') for f in cli._COMMANDS.values())\n"
        "import io, contextlib\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.run(['character-table', '--group', 'cyclic(4)'])\n"
        "names = {t.names[i] for i in t.name}\n"
        "assert {'cli.run', 'cli.cmd_character_table', 'characters.dixon_character_table',\n"
        "        'group_core.build_group', 'cyclotomic.reduce_raw', 'modp.charpoly'} <= names, names\n"
        "assert t.counts['cyclotomic.CycInt.__mul__'] > 0 < t.seconds['cyclotomic.CycInt.__add__']\n"
    )
    res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
