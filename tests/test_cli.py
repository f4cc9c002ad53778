import contextlib
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cayley_spectra
from cayley_spectra import TABLE_BYTE_BUDGET, cli, group_core, spectra
from cayley_spectra.cli import COMMANDS, run
from conftest import CORPUS


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_spectrum_command(capsys):
    code, doc = _run_json(
        capsys, ["spectrum", "--group", "perm[(1 2),(1 2 3)]", "--classes", "1"]
    )
    assert code == 0
    assert doc["schema"] == "v1"
    assert doc["all_integral"] is True
    values = sorted(
        (e["value"]["rational"], e["multiplicity"]) for e in doc["entries"]
    )
    assert values == [("-3", 1), ("0", 4), ("3", 1)]
    assert doc["oracle"]["passed"] is True


def test_spectrum_irrational_value_serialization(capsys):
    code, doc = _run_json(
        capsys, ["spectrum", "--group", "cyclic(5)", "--classes", "1,4", "--oracle", "off"]
    )
    assert code == 0
    assert doc["all_integral"] is False
    irrational = [e for e in doc["entries"] if "cyclotomic" in e["value"]]
    assert irrational
    golden = irrational[0]["value"]
    assert golden["cyclotomic"]["m"] == 5
    assert golden["degree_divisor"] == 1
    assert len(golden["cyclotomic"]["coeffs"]) == 4
    assert "oracle" not in doc


def test_classes_command(capsys):
    code, doc = _run_json(capsys, ["classes", "--group", "symmetric(4)"])
    assert code == 0
    sizes = sorted(c["size"] for c in doc["classes"])
    assert sizes == [1, 3, 6, 6, 8]
    assert doc["classes"][0]["representative"] == "()"
    assert doc["classes"][0]["members"] == [0]


def test_check_integrality_command(capsys):
    code, doc = _run_json(
        capsys, ["check-integrality", "--group", "cyclic(5)", "--classes", "1,4"]
    )
    assert code == 0
    assert doc["integral"] is False
    assert doc["power_closed"] is False
    assert doc["agree"] is True


def test_check_integrality_sweep(capsys):
    code, doc = _run_json(
        capsys,
        ["check-integrality", "--group", "cyclic(4)", "--connection", "sweep"],
    )
    assert code == 0
    assert doc["subsets"] == 8
    assert doc["disagreements"] == 0
    integral = {tuple(r["classes"]): r["integral"] for r in doc["sweep"]}
    assert integral[(1, 3)] is True
    assert integral[(1,)] is False


_SMALL_SWEEP_HEAD = "classes                   integral      power_closed  agree\n"


@pytest.mark.parametrize(
    "group, exponent, order, subsets, table",
    [
        ("cyclic(1)", 1, 1, [[]], "[]                        True          True          True\n"),
        ("dihedral(1)", 2, 2, [[], [1]],
         "[]                        True          True          True\n"
         "[1]                       True          True          True\n"),
        ("dihedral(2)", 2, 4, [[], [1], [2], [1, 2], [3], [1, 3], [2, 3], [1, 2, 3]],
         "[]                        True          True          True\n"
         "[1]                       True          True          True\n"
         "[2]                       True          True          True\n"
         "[1, 2]                    True          True          True\n"
         "[3]                       True          True          True\n"
         "[1, 3]                    True          True          True\n"
         "[2, 3]                    True          True          True\n"
         "[1, 2, 3]                 True          True          True\n"),
    ],
    ids=("k=1", "k=2", "k=4"),
)
def test_smallest_sweeps_print_pinned_json_and_table(capsys, group, exponent, order, subsets, table):
    """k = 1 (one subset, no doubling step), k = 2 (one step) and dihedral(2)'s k = 4.

    Every union of classes of these groups is power-closed and has integral
    eigenvalues.
    """
    argv = ["check-integrality", "--group", group, "--connection", "sweep"]
    rows = [{"agree": True, "classes": c, "integral": True, "power_closed": True} for c in subsets]
    expected = {
        "command": "check-integrality",
        "disagreements": 0,
        "group": {"exponent": exponent, "order": order, "spec": group},
        "schema": "v1",
        "subsets": len(subsets),
        "sweep": rows,
    }
    assert run(argv) == 0
    assert capsys.readouterr().out == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    assert run([*argv, "--output", "table"]) == 0
    head = f"group {group}  order {order}  exponent {exponent}\n" + _SMALL_SWEEP_HEAD
    assert capsys.readouterr().out == head + table + f"{len(subsets)} subsets, 0 disagreements\n"


def test_check_membership_command(capsys):
    code, doc = _run_json(
        capsys,
        ["check-membership", "--group", "cyclic(5)", "--classes", "1,4",
         "--gamma", "4"],
    )
    assert code == 0
    assert doc["in_subfield"] is True and doc["class_closed"] is True
    code, doc = _run_json(
        capsys,
        ["check-membership", "--group", "cyclic(5)", "--classes", "1,4",
         "--gamma", "rational"],
    )
    assert code == 0
    assert doc["in_subfield"] is False and doc["class_closed"] is False
    assert doc["agree"] is True


def test_character_table_command(capsys):
    code, doc = _run_json(capsys, ["character-table", "--group", "dihedral(4)"])
    assert code == 0
    assert sorted(doc["degrees"]) == [1, 1, 1, 1, 2]
    assert doc["conductor"] == 4
    assert len(doc["rows"]) == 5
    trivial = doc["rows"][0]
    assert all(cell["coeffs"] == trivial[0]["coeffs"] for cell in trivial)
    assert trivial[0]["coeffs"][0] == 1
    assert all(c == 0 for c in trivial[0]["coeffs"][1:])


_LONG_CONNECTION = "[[" + ",".join(["1"] * 100000) + "]]"
_LONG_CLASSES = ",".join(["1"] * 75000)


def test_input_errors_name_the_field(monkeypatch, capsys):
    """Exit 2 naming the field, with under 1 KB of stderr however large the offending value is."""
    for argv, document, field in [
        (["spectrum", "--group", "widget(3)", "--classes", "1"], None, "group"),
        (["spectrum", "--group", "cyclic(4)", "--classes", "11"], None, "connection"),
        (["spectrum", "--group", "cyclic(4)"], None, "connection"),
        (["check-membership", "--group", "cyclic(5)", "--classes", "1",
          "--gamma", "5"], None, "gamma"),
        (["classes"], None, "group"),
        ([], None, "command"),
        # digits that str.isdigit accepts but int() does not parse
        (["spectrum", "--group", "cyclic(4)", "--connection", "\u00b2"], None, "connection"),
        (["check-membership", "--group", "cyclic(5)", "--classes", "1",
          "--gamma", "\u00b3"], None, "gamma"),
        (["check-membership", "--group", "cyclic(5)", "--classes", "1",
          "--gamma", "[2,"], None, "gamma"),
        # oversized values are shown cut, never echoed whole
        (["spectrum", "--group", "cyclic(3)", "--connection", _LONG_CONNECTION,
          "--classes", _LONG_CLASSES], None, "connection"),
        (["spectrum", "--group", "cyclic(3)", "--classes", _LONG_CLASSES + ",x"], None, "classes"),
        (["spectrum", "--group", "cyclic(3)", "--connection",
          json.dumps({"elements": ["z" * 100000]})], None, "connection"),
        (["classes", "--group", "x" * 150000], None, "group"),
        (["classes", "--group", "w" * 100000 + "(3)"], None, "group"),
        (["classes", "--group", "cyclic(" + "7" * 100000 + "x)"], None, "group"),
        (["classes", "--group", "perm[(1,2" + ",3" * 50000 + "]"], None, "group"),
        (["classes", "--group", "perm[(1,2)(3," + "4 " * 50000 + ")]"], None, "group"),
        (["check-membership", "--group", "cyclic(5)", "--classes", "1",
          "--gamma", json.dumps({"generators": "y" * 100000})], None, "gamma"),
        (["--input", "-"], {"command": "c" * 100000}, "command"),
        (["spectrum", "--input", "-"], {"oracle": "o" * 100000}, "oracle"),
        (["spectrum", "--input", "-"], {"output": ["t"] * 100000}, "output"),
        (["spectrum", "--input", "-"], {"tolerance": "1" * 100000}, "tolerance"),
        (["spectrum", "--input", "-"], {"sweep_limit": [[[[[1] * 100000]]]]}, "sweep_limit"),
        (["check-membership", "--input", "-"],
         {"group": "cyclic(5)", "connection": [1], "gamma": {"generators": {"g": "y" * 100000}}}, "gamma"),
        # flag values are checked with the job, not by the argument parser
        (["spectrum", "--group", "cyclic(3)", "--classes", "1", "--oracle", "o" * 100000], None, "oracle"),
        (["spectrum", "--group", "cyclic(3)", "--classes", "1", "--output", "t" * 100000], None, "output"),
        (["spectrum", "--group", "cyclic(3)", "--classes", "1", "--tol", "1" * 100000 + "x"], None, "tolerance"),
        (["spectrum", "--group", "cyclic(3)", "--classes", "1", "--sweep-limit", "9" * 100000], None, "sweep_limit"),
        (["c" * 100000, "--group", "cyclic(3)"], None, "command"),
        # the parser's own errors name the flag, or the arguments as a whole
        (["spectrum", "--group", "cyclic(3)", "--tol"], None, "tolerance"),
        (["spectrum", "--group", "cyclic(3)", "--classes", "1", "x" * 100000], None, "arguments"),
        (["spectrum", "--group", "cyclic(3)", "--o=" + "x" * 100000], None, "arguments"),
        # integers are shown cut as well
        (["spectrum", "--group", "cyclic(3)", "--classes", "9" * 4000], None, "connection"),
        (["spectrum", "--group", "cyclic(3)", "--elements", "9" * 4000], None, "connection"),
        (["spectrum", "--group", "cyclic(3)", "--connection", json.dumps({"representatives": [-(10**4000)]})],
         None, "connection"),
        (["check-membership", "--group", "cyclic(5)", "--classes", "1", "--gamma", "5" * 4000], None, "gamma"),
        (["classes", "--group", "cyclic(-" + "9" * 4000 + ")"], None, "group"),
        (["classes", "--group", "dihedral(" + "9" * 4000 + ")"], None, "group"),
        (["classes", "--group", "generalized-quaternion(" + "4" * 4000 + ")"], None, "group"),
        (["classes", "--group", "symmetric(" + "8" * 4000 + ")"], None, "group"),
    ]:
        if document is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document)))
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"input error: {field}:"), (argv[:3], err[:200])
        assert len(err.encode()) < 1024, (argv[:3], len(err))


# each would overflow int64, allocate without bound, or trial-divide for minutes
_OVER_CAP = (
    "cyclic(9223372036854775808)",
    "dihedral(9223372036854775808)",
    "product(cyclic(2),cyclic(18446744073709551616))",
    "generalized-quaternion(36893488147419103232)",
    "elementary-abelian(2,1000000000000000000000000000000)",
    "elementary-abelian(1000000007,1)",
    "elementary-abelian(2,13)",
)


def _classes_in_a_bounded_child(specs):
    """(exit code, stderr, seconds) of the classes job of each spec, run in one child process held to 1 GiB of address space and 60 s."""
    script = (
        "import contextlib, io, json, resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from cayley_spectra.cli import run\n"
        "out = []\n"
        "for text in sys.argv[1:]:\n"
        "    err = io.StringIO()\n"
        "    start = time.perf_counter()\n"
        "    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = run(['classes', '--group', text])\n"
        "    out.append((code, err.getvalue(), time.perf_counter() - start))\n"
        "print(json.dumps(out))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, *specs], env=_module_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


def test_named_families_over_the_cap_are_refused_before_any_element_is_built():
    """In a bounded child process, each spec exits 2 naming the group and the cap."""
    for text, (code, err, _) in zip(_OVER_CAP, _classes_in_a_bounded_child(_OVER_CAP)):
        assert code == 2, text
        assert err.startswith("input error: group: group size cap 5040 exceeded by "), (text, err)
        assert len(err.encode()) < 1024, text


def test_permutation_points_past_the_row_budget_are_refused_at_once():
    """A point whose element rows at the size cap would pass TABLE_BYTE_BUDGET exits 2 naming the group, within a second.

    5040 rows of 26,631 or more uint16 images pass 256 MiB.  Neither the
    key space d^(d - 1) nor a list of every point is formed first, so the
    order-2 group on 10^5 points and the one on 10^8 points, which would
    not fit in the child's address space, are refused alike.  A spec on
    300 points, and one just inside the budget, still build.
    """
    wide = ("perm[(1 100000)]", "perm[(1 99999999)]", "perm[(1 26631)]")
    narrow = ("perm[(1 2 3)(4 5),(1 300)]", "perm[(1 26630)]")
    results = _classes_in_a_bounded_child(wide + narrow)
    for text, (code, err, seconds) in zip(wide, results):
        assert code == 2, (text, err)
        assert err.startswith("input error: group: point "), (text, err)
        assert "256 MiB budget" in err and seconds < 1, (text, err, seconds)
    for text, (code, err, seconds) in zip(narrow, results[len(wide) :]):
        assert code == 0 and seconds < 5, (text, err, seconds)


def _module_env():
    """os.environ with this checkout's package first on PYTHONPATH and one BLAS thread."""
    src = str(Path(cayley_spectra.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def test_python_dash_m_runs_the_cli(capsys):
    """python -m cayley_spectra prints what cli.run prints, and a bad group exits 2 with no traceback."""

    def module_run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "cayley_spectra", *argv],
            env=_module_env(), capture_output=True, text=True, timeout=120,
        )

    argv = ["character-table", "--group", "cyclic(4)"]
    assert run(argv) == 0
    done = module_run(*argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")
    done = module_run("classes", "--group", "no-such-family(3)")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "input error: group: unknown family name 'no-such-family'\n"


def test_a_reader_that_closes_early_gets_no_traceback():
    """A reader that closes stdout after one line leaves the job's own exit code, 0 here, and nothing on stderr.

    dihedral(22)'s sweep writes 1.5 MB, far past a pipe's buffer, so the
    writer meets the closed pipe while it prints.
    """
    argv = [sys.executable, "-m", "cayley_spectra", "check-integrality", "--group", "dihedral(22)", "--connection", "sweep"]
    with subprocess.Popen(argv, env=_module_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (0, b"")


def test_a_closed_pipe_keeps_a_failed_check_exit_code(monkeypatch):
    """A check that fails still exits 1 when its stdout pipe is closed, and stdout is then os.devnull."""
    monkeypatch.setitem(cli._COMMANDS, "classes", lambda job: ({"rows": list(range(50000))}, False))
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert run(["classes", "--group", "cyclic(2)"]) == 1
        assert os.path.samestat(os.fstat(write), os.stat(os.devnull))
        print("more", file=stdout, flush=True)  # no BrokenPipeError: the pipe is gone


_DEEP_JSON = "[" * 200000
_DEEP_SPEC = "product(" * 1200 + "cyclic(2)" + ",cyclic(2))" * 1200


@pytest.mark.parametrize(
    "argv, document, field",
    [
        (["classes"], b'{"group": "cyclic(\xe9)"}', "input"),
        (["classes"], _DEEP_JSON.encode(), "input"),
        (["spectrum", "--group", "cyclic(4)", "--connection", _DEEP_JSON], None, "connection"),
        (["check-membership", "--group", "cyclic(5)", "--classes", "1", "--gamma", _DEEP_JSON], None, "gamma"),
        (["classes", "--group", _DEEP_SPEC], None, "group"),
        (["verify-all"], json.dumps({"groups": [_DEEP_SPEC]}).encode(), "groups"),
    ],
    ids=("non-utf8-input", "deep-input", "deep-connection", "deep-gamma", "deep-group", "deep-groups"),
)
def test_undecodable_or_deeply_nested_input_names_the_field(tmp_path, capsys, argv, document, field):
    """Text that cannot be decoded, or is nested past the recursion limit, is bad input, not a traceback."""
    if document is not None:
        path = tmp_path / "job.json"
        path.write_bytes(document)
        argv = [*argv, "--input", str(path)]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"input error: {field}:")
    assert captured.out == ""


def test_sweep_limit(capsys):
    code = run(
        ["check-integrality", "--group", "cyclic(12)", "--connection", "sweep",
         "--sweep-limit", "3"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "sweep" in err


def test_exit_one_when_a_check_fails(capsys):
    # zero tolerance makes the floating comparison fail on irrational values
    code, doc = _run_json(
        capsys,
        ["spectrum", "--group", "cyclic(5)", "--classes", "1", "--tol", "0"],
    )
    assert code == 1
    assert doc["oracle"]["passed"] is False


def test_job_document_with_flag_override(tmp_path, capsys):
    job = {
        "group": "cyclic(6)",
        "connection": "all-nonidentity",
        "command": "spectrum",
        "oracle": "off",
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, doc = _run_json(capsys, ["--input", str(path)])
    assert code == 0
    assert doc["command"] == "spectrum"
    assert "oracle" not in doc
    # flags win over document fields
    code, doc = _run_json(capsys, ["--input", str(path), "--oracle", "on"])
    assert code == 0
    assert doc["oracle"]["passed"] is True


def test_job_document_from_stdin(monkeypatch, capsys):
    job = json.dumps(
        {"group": "cyclic(3)", "connection": {"classes": [1, 2]}, "command": "spectrum"}
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(job))
    code, doc = _run_json(capsys, ["--input", "-"])
    assert code == 0
    assert doc["connection"]["classes"] == [1, 2]


def test_table_output(capsys):
    code = run(
        ["spectrum", "--group", "perm[(1 2),(1 2 3)]", "--classes", "1",
         "--output", "table"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "eigenvalue" in out
    assert "all eigenvalues integral: True" in out


def test_readme_python_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 1 12"
    assert lines[-1] == "True True True"


def test_verify_all_small_corpus(tmp_path, capsys):
    job = {"groups": ["cyclic(4)", "symmetric(3)", "quaternion(8)"]}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(job))
    code, doc = _run_json(capsys, ["verify-all", "--input", str(path)])
    assert code == 0
    assert doc["passed"] is True
    assert doc["totals"]["fail"] == 0
    names = [g["group"] for g in doc["groups"]]
    assert names == ["cyclic(4)", "symmetric(3)", "quaternion(8)"]
    for g in doc["groups"]:
        assert g["checks"]["integrality-equivalence"] == "pass"
        assert g["checks"]["membership-equivalence"] == "pass"


def test_verify_all_is_deterministic(tmp_path, capsys):
    job = {"groups": ["dihedral(4)", "cyclic(6)"]}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(job))
    first = run(["verify-all", "--input", str(path)])
    out1 = capsys.readouterr().out
    second = run(["verify-all", "--input", str(path)])
    out2 = capsys.readouterr().out
    assert first == second == 0
    assert out1 == out2


def test_one_item_per_chunk_prints_the_same_output(monkeypatch, capsys):
    """With group_core.CHUNK_BYTES at 1 every chunked loop takes one class, row or matrix at a time, and stdout is unchanged.

    The budget records the functions that size their chunks by it, so a
    loop that kept a budget of its own fails the test.
    """
    readers = set()

    class Budget(int):
        def __floordiv__(self, other):
            readers.add(sys._getframe(2).f_code.co_name)  # _chunks' caller
            return int(self) // other

    jobs = (
        (["verify-all", "--input", "-"], json.dumps({"groups": ["cyclic(12)", "alternating(5)", "symmetric(4)"]})),
        (["character-table", "--group", "cyclic(40)"], ""),
    )
    group = cayley_spectra.build_group(cayley_spectra.GroupSpec.from_json("cyclic(12)"))
    cd = cayley_spectra.conjugacy_classes(group)
    connection = cayley_spectra.make_connection_set({"classes": [1, 5, 7, 11]}, group, cd)
    outputs = []
    for budget in (group_core.CHUNK_BYTES, Budget(1)):
        monkeypatch.setattr(group_core, "CHUNK_BYTES", budget)
        for argv, stdin in jobs:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            assert run(argv) == 0
            outputs.append(capsys.readouterr().out)
        counts = spectra.power_conjugation_counts(1, connection, group, cd)
        outputs.append((counts.counts, counts.weighted_sum.coeffs))
    assert outputs[:3] == outputs[3:]
    assert readers == {
        "_lift_table",
        "_validate_table",
        "_galois_identity_holds",
        "_block_bits",
        "power_conjugation_counts",
        "_sweep_closed",
        "batch_verify_spectrum_exact",
        "batch_compare_spectra",
        "_certified_rows",
    }


def test_verify_all_bundled_corpus_loads(capsys):
    # restrict to a fast subset via sweep limit; full bundled corpus is
    # exercised by the acceptance suite
    code, doc = _run_json(capsys, ["verify-all", "--sweep-limit", "4"])
    assert code == 0
    assert len(doc["groups"]) == 28
    skipped = [g for g in doc["groups"] if g["checks"]["integrality-equivalence"] == "skip"]
    assert skipped


def test_oracle_mode_means_the_same_for_spectrum_and_verify_all(monkeypatch, capsys):
    """off never runs the float oracle, on always runs it, and auto runs it up to oracle_cap."""
    for mode, ran in (("on", True), ("auto", False), ("off", False)):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"groups": ["cyclic(4)"], "oracle_cap": 0})))
        code, doc = _run_json(capsys, ["verify-all", "--input", "-", "--oracle", mode])
        assert code == 0
        assert doc["groups"][0]["checks"]["spectrum-oracle-float"] == ("pass" if ran else "skip"), mode
        job = {"command": "spectrum", "group": "cyclic(4)", "connection": [1], "oracle_cap": 0}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        code, doc = _run_json(capsys, ["--input", "-", "--oracle", mode])
        assert code == 0
        assert ("oracle" in doc) == ran, mode


@pytest.mark.parametrize(
    "doc, flags, field",
    [
        ({"tolerance": "abc"}, [], "tolerance"),
        ({}, ["--tol", "nan"], "tolerance"),
        ({"tolerance": -1e-8}, [], "tolerance"),
        ({"tolerance": True}, [], "tolerance"),
        ({"oracle_cap": "x"}, [], "oracle_cap"),
        ({"oracle_cap": -1}, [], "oracle_cap"),
        ({"sweep_limit": 2.5}, [], "sweep_limit"),
        ({}, ["--sweep-limit", "-1"], "sweep_limit"),
        ({"group_cap": 10**9}, [], "group_cap"),
        ({"group_cap": 0}, [], "group_cap"),
        ({"group_cap": True}, [], "group_cap"),
        ({"group": {"family": "cyclic", "params": [True]}}, [], "group"),
    ],
)
def test_bad_job_values_name_the_field(monkeypatch, capsys, doc, flags, field):
    job = dict({"command": "spectrum", "group": "cyclic(3)", "connection": [1]}, **doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))

    def refuse(*args, **kwargs):
        raise AssertionError("a bad job must be refused before any group is built")

    monkeypatch.setattr("cayley_spectra.cli.build_group", refuse)
    code = run(["--input", "-", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"input error: {field}:")
    assert captured.out == ""


# Each of these would name a valid index if it were truncated by int().
@pytest.mark.parametrize(
    "doc, field",
    [
        ({"connection": [1.9]}, "connection"),
        ({"connection": [True]}, "connection"),
        ({"connection": ["1"]}, "connection"),
        ({"connection": [math.inf]}, "connection"),
        ({"connection": {"elements": [1.0, 3]}}, "connection"),
        ({"connection": {"representatives": [True]}}, "connection"),
        ({"command": "check-membership", "gamma": [2.7]}, "gamma"),
        ({"command": "check-membership", "gamma": {"generators": [True]}}, "gamma"),
    ],
)
def test_non_integer_indices_are_refused_not_truncated(monkeypatch, capsys, doc, field):
    job = dict({"command": "spectrum", "group": "cyclic(5)", "connection": [1]}, **doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    code = run(["--input", "-"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"input error: {field}:")
    assert "is not an integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "connection",
    [{"classes": "12"}, {"elements": None}, {"representatives": 1}, {"classes": {"1": 2}}],
)
def test_connection_fields_must_be_lists(monkeypatch, capsys, connection):
    """A connection field that is not a JSON list is refused as such, never read member by member."""
    for argv, stdin in (
        (["spectrum", "--group", "cyclic(5)", "--connection", json.dumps(connection)], None),
        (["--input", "-"], {"command": "check-integrality", "group": "cyclic(5)", "connection": connection}),
    ):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin)))
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("input error: connection:")
        assert "expected a list of integers" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "connection",
    [
        {"classes": [1], "representatives": [3]},
        {"classes": [1], "elements": [1, 4]},
        {"representatives": [3], "elements": [3]},
        {"classes": [1], "representatives": [3], "elements": [3]},
    ],
)
def test_a_connection_with_two_forms_is_refused(monkeypatch, capsys, connection):
    """A connection dict that gives more than one of classes, representatives and elements exits 2 naming connection."""
    for argv, stdin in (
        (["spectrum", "--group", "symmetric(3)", "--connection", json.dumps(connection)], None),
        (["--input", "-"], {"command": "spectrum", "group": "symmetric(3)", "connection": connection}),
    ):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin)))
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("input error: connection: connection spec gives 'classes' and ") or (
            captured.err.startswith("input error: connection: connection spec gives 'representatives' and ")
        ), captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--classes", "1", "--elements", "1,2"],
        ["--elements", "1,2", "--classes", "1"],
        ["--classes", "1", "--connection", "all-nonidentity"],
        ["--elements", "1,2", "--connection", "sweep"],
        ["--classes", "1", "--elements", "1,2", "--connection", '{"classes": [1]}'],
    ],
)
def test_two_connection_flags_are_refused(capsys, flags):
    """--classes, --elements and --connection each set the connection: two of them exit 2 naming connection, whichever comes last."""
    code = run(["check-integrality", "--group", "symmetric(3)", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: connection: give one of --classes, --elements and --connection, not ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "text",
    ["product()", "product(cyclic(2),)", "product(,cyclic(2))", "product(cyclic(2), ,cyclic(3))", "product(cyclic(2),product(cyclic(3),))"],
)
def test_an_empty_product_factor_names_the_whole_spec(capsys, text):
    code = run(["classes", "--group", text])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"input error: group: group spec {text!r} has an empty product factor\n"
    assert captured.out == ""


def test_oversize_table_is_refused_before_allocation(capsys):
    tracemalloc.start()
    try:
        code = run(["spectrum", "--group", "cyclic(3000)", "--classes", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: group:")
    assert peak < TABLE_BYTE_BUDGET


@pytest.mark.parametrize(
    "command, code, bound",
    [("classes", 0, 24 << 20), ("character-table", 2, 8 << 20)],
)
def test_cyclic_5040_jobs_allocate_no_order_by_exponent_array(capsys, command, code, bound):
    """A (k, exponent) power map of cyclic(5040) alone would be 5040^2 int32 entries, 97 MiB."""
    tracemalloc.start()
    try:
        got = run([command, "--group", "cyclic(5040)"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert got == code
    if code == 2:
        assert captured.err.startswith("input error: group:")
    else:
        assert len(json.loads(captured.out)["classes"]) == 5040
    assert peak < bound, peak


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["check-integrality", "--group", "cyclic(40)", "--connection", "sweep"], None),
        (["verify-all", "--input", "-"], {"groups": ["cyclic(40)"]}),
    ],
)
def test_oversize_sweep_is_refused_before_allocation(monkeypatch, capsys, argv, stdin):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin)))
    tracemalloc.start()
    try:
        code = run([*argv, "--sweep-limit", "40"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: sweep_limit:")
    assert captured.out == ""
    assert peak < TABLE_BYTE_BUDGET


def test_sweep_int64_bound_exits_two_naming_group(monkeypatch, capsys):
    real = spectra._basis_norm
    monkeypatch.setattr(spectra, "_basis_norm", lambda m: real(m) << 61)
    argv = ["check-membership", "--group", "cyclic(5)", "--gamma", "rational"]
    code = run([*argv, "--connection", "sweep"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: group:")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--group", "cyclic(5)", "--classes", "1"],
        ["check-integrality", "--group", "cyclic(5)", "--classes", "1"],
        ["check-membership", "--group", "cyclic(5)", "--classes", "1,4", "--gamma", "rational"],
    ],
)
def test_single_connection_int64_bound_exits_two_naming_group(monkeypatch, capsys, argv):
    real = spectra._basis_norm
    monkeypatch.setattr(spectra, "_basis_norm", lambda m: real(m) << 61)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: group:")
    assert "Galois defect" in captured.err
    assert captured.out == ""


# A valid job document has a command, small groups (order at most 24, at
# most 9 classes) and some of the optional fields.  The fuzz test then
# replaces at most one field with an odd value: a wrong type, an
# out-of-range, non-integer or non-finite number, or a container of the
# wrong shape.
_SMALL_GROUPS = st.sampled_from(
    [
        "cyclic(1)",
        "cyclic(6)",
        "dihedral(4)",
        "dihedral(12)",
        "symmetric(3)",
        "symmetric(4)",
        "alternating(4)",
        "quaternion(8)",
        "product(cyclic(2),cyclic(4))",
        "perm[(1 2),(1 2 3)]",
        {"family": "dihedral", "params": [5]},
        {"product": ["cyclic(2)", "cyclic(3)"]},
    ]
)
_CLASS_INDICES = st.lists(st.integers(0, 4), max_size=4)
_VALID_JOBS = st.fixed_dictionaries(
    {
        "command": st.sampled_from(COMMANDS),
        "group": _SMALL_GROUPS,
        # a missing list would run the whole bundled corpus
        "groups": st.lists(_SMALL_GROUPS, min_size=1, max_size=2),
    },
    optional={
        "connection": st.one_of(
            st.sampled_from(["all-nonidentity", "sweep"]),
            _CLASS_INDICES,
            st.fixed_dictionaries({"classes": _CLASS_INDICES}),
            st.fixed_dictionaries({"elements": st.lists(st.integers(0, 23), max_size=8)}),
            st.fixed_dictionaries({"representatives": st.lists(st.integers(0, 23), max_size=3)}),
        ),
        "gamma": st.one_of(
            st.sampled_from(["rational", "splitting"]),
            st.lists(st.integers(1, 23), max_size=3),
            st.fixed_dictionaries({"generators": st.lists(st.integers(1, 23), max_size=3)}),
        ),
        "oracle": st.sampled_from(["auto", "on", "off"]),
        "tolerance": st.sampled_from([0, 1e-8, 0.5]),
        "output": st.sampled_from(["json", "table"]),
        "sweep_limit": st.integers(0, 9),
        "oracle_cap": st.integers(0, 400),
    },
)
_SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, 2.5, -1, 10**30, True, None, "1", "", [], {}])
_ODD = st.one_of(
    _SPECIAL,
    st.integers(-3, 30),
    st.text(max_size=5),
    st.lists(st.one_of(_SPECIAL, st.integers(-3, 30)), min_size=1, max_size=3),
    st.dictionaries(
        st.sampled_from(["classes", "elements", "representatives", "generators", "family", "params", "product"]),
        st.one_of(_SPECIAL, st.lists(st.one_of(_SPECIAL, st.integers(-3, 30)), max_size=2)),
        min_size=1,
        max_size=2,
    ),
    st.sampled_from(["cyclic(0)", "cyclic(-4)", "symmetric(8)", "widget(3)", "dihedral(", "perm[(1 2]"]),
)
_FIELDS = ("command", "group", "groups", "connection", "gamma", "oracle", "tolerance", "output", "sweep_limit", "oracle_cap")
_JOBS = _VALID_JOBS.flatmap(
    lambda job: st.one_of(
        st.just(job),
        st.tuples(st.sampled_from(_FIELDS), _ODD).map(lambda kv: {**job, kv[0]: kv[1]}),
    )
)


@settings(max_examples=60, deadline=None)
@given(job=_JOBS)
@example(job={"command": "spectrum", "group": "cyclic(4)", "connection": [math.inf]})
@example(job={"command": "spectrum", "group": "cyclic(4)", "connection": {"elements": [-math.inf]}})
@example(job={"command": "check-membership", "group": "cyclic(4)", "connection": [1], "gamma": [math.inf]})
@example(job={"command": "spectrum", "group": "cyclic(4)", "connection": [2.5]})
@example(job={"command": "check-membership", "group": "cyclic(5)", "connection": [1], "gamma": [True]})
def test_exit_contract_holds_for_any_job_document(job):
    stdin = io.StringIO(json.dumps(job))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["--input", "-"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("input error: ")
        assert out.getvalue() == ""
    # a non-integer index in a field the command reads is refused
    gamma = job.get("gamma")
    if isinstance(gamma, dict):
        gamma = gamma.get("generators")
    if job["command"] in ("spectrum", "check-integrality", "check-membership") and _has_non_integer(
        job.get("connection")
    ):
        assert code == 2
    if job["command"] == "check-membership" and _has_non_integer(gamma):
        assert code == 2


def _has_non_integer(values) -> bool:
    return isinstance(values, list) and any(isinstance(v, bool) or not isinstance(v, int) for v in values)


# argv pieces for the fuzz test: commands, flags (abbreviated, unknown or
# bare as well), group specs whose groups have order at most 24 or are
# refused, and connection, gamma and number texts, odd, huge or nested deep
_ARGV_COMMANDS = st.sampled_from([*COMMANDS, "spectra", "", "-", "verify_all"])
_ARGV_FLAGS = st.sampled_from(
    [flag for flag in cli._FLAGS if flag != "--input"]
    + ["--o", "--g", "--tol=0", "--bogus", "-x", "-h", "--help"]
)
_ARGV_GROUPS = st.sampled_from(
    [
        "cyclic(1)",
        "cyclic(6)",
        "dihedral(4)",
        "symmetric(3)",
        "alternating(4)",
        "quaternion(8)",
        "product(cyclic(2),cyclic(3))",
        "perm[(1 2),(1 2 3)]",
        "perm[(1,2,3,4)]",
        "cyclic(0)",
        "cyclic(-3)",
        "widget(3)",
        "dihedral(",
        "perm[(1,2]",
        "perm[(1,1)]",
        "symmetric(8)",
        "elementary-abelian(2,13)",
        '{"family": "cyclic", "params": [4]}',
        "cyclic(" + "9" * 4000 + ")",
        _DEEP_SPEC,
    ]
)
_ARGV_VALUES = st.sampled_from(
    [
        "1", "1,2", "0,1,2", "-1", "", " ", "1.5", "nan", "1e999", "\u00b2", "9" * 4000,
        "all-nonidentity", "sweep", "rational", "splitting", "3,5", "auto", "on", "off", "json", "table",
        "[1]", "[1.5]", "[true]", '{"classes": [1]}', '{"classes": "12"}', '{"elements": null}',
        '{"elements": [1, 2]}', '{"representatives": [0, 1]}', '{"generators": [5]}', '{"generators": "y"}',
        '"x"', "{", "[2,", "[" * 5000, "[" * 40 + "1" + "]" * 40, "[" + ",".join(["1"] * 5000) + "]",
    ]
)
# an argv is a command, a group, a connection or gamma and up to two more
# pieces, each part present or not, so that many of the jobs run
_ARGV = st.tuples(
    st.one_of(st.just([]), _ARGV_COMMANDS.map(lambda c: [c])),
    st.one_of(st.just([]), _ARGV_GROUPS.map(lambda g: ["--group", g])),
    st.one_of(st.just([]), st.tuples(st.sampled_from(["--classes", "--connection", "--gamma"]), _ARGV_VALUES)),
    st.lists(
        st.one_of(
            st.tuples(_ARGV_FLAGS, st.one_of(_ARGV_VALUES, _ARGV_GROUPS, st.text(max_size=6))),
            _ARGV_FLAGS.map(lambda f: [f]),
            _ARGV_COMMANDS.map(lambda c: [c]),
        ),
        max_size=2,
    ),
).map(lambda parts: [*parts[0], *parts[1], *parts[2], *(arg for piece in parts[3] for arg in piece)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_ARGV)
@example(argv=["verify-all", "--oracle", "on"])
@example(argv=["spectrum", "--group", "cyclic(4)", "--connection", '{"elements": null}'])
@example(argv=["-h"])
def test_exit_contract_holds_for_any_argv(argv):
    """Every argv exits 0, 1 or 2 with no traceback, and an exit 2 writes under 1 KB to stderr.

    A verify-all job reads its groups, two of order at most 6, from stdin.
    """
    stdin = io.StringIO(json.dumps({"groups": ["cyclic(4)", "symmetric(3)"]}))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run([*argv, "--input", "-"])
        except SystemExit as exc:  # argparse's help, printed for -h
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("input error: ")
        assert len(err.getvalue().encode()) < 1024


# ---------------------------------------------------------------------------
# the JSON writer

_WRITER_JOBS = [
    *(["character-table", "--group", g] for g in (
        "symmetric(7)",
        "product(cyclic(6),cyclic(6))",
        "cyclic(40)",
        "elementary-abelian(2,6)",
        "cyclic(60)",
        "cyclic(1)",
    )),
    ["check-integrality", "--group", "symmetric(6)", "--connection", "sweep"],
    ["check-membership", "--group", "alternating(7)", "--connection", "sweep", "--gamma", "rational"],
    ["check-integrality", "--group", "dihedral(22)", "--connection", "sweep"],
    ["verify-all"],
    ["verify-all", "--oracle", "off"],
    ["classes", "--group", "cyclic(12)"],
    ["spectrum", "--group", "symmetric(5)", "--classes", "1,2"],
    ["check-integrality", "--group", "dihedral(4)", "--classes", "1"],
    ["check-membership", "--group", "cyclic(5)", "--classes", "1", "--gamma", "rational"],
]


def _plain(value):
    """The payload with every column block expanded into its list of dicts, and every Indexed into its list."""
    if isinstance(value, cli.Columns):
        keys = list(value.columns)
        return [dict(zip(keys, row)) for row in zip(*(_plain(value[key]) for key in keys))]
    if isinstance(value, cli.Indexed):
        objects = _plain(value.block)
        return [objects[i] for i in value.index]
    if isinstance(value, cli.Subsets):
        return [list(subset) for subset in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _job_payload(argv):
    job = cli._assemble_job(cli._arg_parser().parse_args(argv))
    return cli._COMMANDS[job["command"]](job)[0]


@pytest.mark.parametrize("argv", _WRITER_JOBS, ids=" ".join)
def test_json_writer_matches_indented_json_dumps(argv):
    payload = _job_payload(argv)
    assert cli._json_text(payload) == json.dumps(_plain(payload), sort_keys=True, indent=2)


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.text(alphabet='a"\\\x00\n]%\u00e9\u20ac', max_size=6)
)
_keys = st.text(max_size=4) | st.text(alphabet='ab"\\\x00%\u00e9', max_size=3)


def _column_blocks(n: int, depth: int = 2):
    """Column blocks of n objects: scalar, flat-list, mixed, nested-block and, for n = 2^(k-1), Subsets columns."""
    column = (
        st.lists(_json_scalars, min_size=n, max_size=n)
        | st.lists(st.lists(_json_scalars, max_size=3) | st.tuples(_json_scalars), min_size=n, max_size=n)
        | st.lists(_json_scalars | st.dictionaries(_keys, _json_scalars, max_size=2), min_size=n, max_size=n)
    )
    if n and not n & (n - 1):
        column |= st.just(cli.Subsets(n.bit_length()))
    if depth:
        column |= _column_blocks(n, depth - 1)
    return st.dictionaries(_keys, column, min_size=1, max_size=3).map(cli.Columns)


def _rows(block, start, stop):
    """Objects start..stop of a column block, as a column block; a Subsets column cut short becomes its list."""

    def cut(column):
        if isinstance(column, cli.Columns):
            return _rows(column, start, stop)
        if isinstance(column, cli.Subsets) and (start, stop) == (0, len(column)):
            return column
        return list(column)[start:stop]

    return cli.Columns({key: cut(column) for key, column in block.columns.items()})


def _with_subsets(k, key, depth, others):
    """A block of 2^(k-1) objects: a Subsets column of k classes under key, as many
    nested one-column blocks down as depth, beside columns that repeat a few drawn values."""
    n = 1 << (k - 1)
    column = cli.Subsets(k)
    for _ in range(depth):
        column = cli.Columns({key: column})
    return cli.Columns({**{name: (values * n)[:n] for name, values in others.items()}, key: column})


def _cut_block(block, sizes):
    """The block cut into consecutive blocks of one shape, the last taking what is left."""
    out, start = [], 0
    for size in sizes:
        out.append(_rows(block, start, min(start + size, len(block))))
        start = min(start + size, len(block))
    return out + [_rows(block, start, len(block))]


def _dict_lists(inner):
    """Lists of dicts with one key set (empty dicts too), some followed by dicts with other keys."""
    same = st.lists(_keys, max_size=3, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, inner)), max_size=4)
    )
    return same | st.builds(operator.add, same, st.lists(st.dictionaries(_keys, inner, max_size=2), min_size=1, max_size=2))


def _indexed_lists(blocks):
    """Indexed lists over these blocks of one shape, some sharing a block, with repeated or no indices."""
    indexed = st.sampled_from(blocks).flatmap(
        lambda block: st.lists(st.integers(0, max(len(block) - 1, 0)), max_size=4 if len(block) else 0).map(
            lambda index: cli.Indexed(block, index)
        )
    )
    return st.lists(indexed, min_size=1, max_size=4)


_blocks = st.integers(0, 4).flatmap(_column_blocks)
_subset_blocks = st.builds(
    _with_subsets,
    st.integers(1, 8),
    _keys,
    st.integers(0, 2),
    st.dictionaries(_keys, st.lists(_json_scalars | st.lists(_json_scalars, max_size=2), min_size=1, max_size=3), max_size=2),
)
_block_lists = st.builds(_cut_block, st.integers(0, 6).flatmap(_column_blocks), st.lists(st.integers(0, 3), max_size=3))
_json_payloads = st.recursive(
    _json_scalars
    | _blocks
    | _block_lists
    | _block_lists.flatmap(_indexed_lists)
    | _subset_blocks
    | st.integers(1, 8).map(cli.Subsets),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | _dict_lists(inner),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_json_payloads)
@example(cli.Columns({}))
@example([cli.Columns({"a": []}), cli.Columns({"a": []})])
@example(cli.Columns({"%s": [[], ["\x00"], ("]",)], "b": cli.Columns({"c": [1.5, None, "\u00e9"]})}))
@example(cli.Columns({"a": [[[1], []], [{"b": 2}]]}))
@example([cli.Columns({"a": [1]}), cli.Columns({"b": [2]}), cli.Columns({"a": cli.Columns({"b": [3]})})])
@example({})
@example([{}])
@example((None, {}))
@example(cli.Columns({"classes": cli.Subsets(4), "agree": [True, False] * 4}))
@example([cli.Subsets(1), cli.Subsets(3), [cli.Subsets(2)], {"s": cli.Subsets(2)}, (1,)])
@example([cli.Columns({"a": cli.Subsets(2)}), cli.Columns({"a": [[1], []]}), cli.Columns({"a": cli.Subsets(1)})])
def test_json_writer_matches_json_dumps_on_nested_payloads(payload):
    assert cli._json_text(payload) == json.dumps(_plain(payload), sort_keys=True, indent=2)


_ENTRIES = cli.Columns(
    {"m": [3, 3, 3], "coeffs": [[1, 0], [0, 1], [-1, -1]], "approx": cli.Columns({"re": [1.0, -0.5, -0.5], "im": [0.0, 0.866, -0.866]})}
)
_OTHER_ENTRIES = cli.Columns({"m": [4, 4], "coeffs": [[1, 0], [0, -1]], "approx": cli.Columns({"re": [1.0, 0.0], "im": [0.0, -1.0]})})
_OTHER_SHAPE = cli.Columns({"a": [None, "\x00]"], "b": [[1, [2]], ()]})


@pytest.mark.parametrize(
    "payload",
    [
        cli.Indexed(_ENTRIES, [2, 0, 1]),
        {"rows": cli.Indexed(_ENTRIES, [1]), "x": 1},
        cli.Columns({"row": [cli.Indexed(_ENTRIES, [0, 0]), cli.Indexed(_ENTRIES, [])], "n": [1, 2]}),
        [cli.Indexed(_ENTRIES, [1, 2]), 5, "s", [1, [2]], _OTHER_SHAPE, cli.Indexed(_ENTRIES, [0]), None, {"a": 1}],
        [cli.Indexed(_ENTRIES, [2, 1]), cli.Indexed(_OTHER_ENTRIES, [1, 1, 0]), cli.Indexed(_ENTRIES, [0])],
        [cli.Indexed(_ENTRIES, [0]), cli.Indexed(_OTHER_SHAPE, [1, 0]), cli.Indexed(_OTHER_ENTRIES, [1])],
        [cli.Indexed(_ENTRIES, [1, 1, 1, 1]), cli.Indexed(_ENTRIES, []), cli.Indexed(cli.Columns({}), [])],
        [[cli.Indexed(_ENTRIES, [0])], {"r": [cli.Indexed(_OTHER_ENTRIES, [1])]}, _ENTRIES],
    ],
    ids=("top", "in-dict", "in-columns", "mixed", "two-blocks", "two-shapes", "repeated-and-empty", "nested"),
)
def test_json_writer_writes_an_indexed_list_as_the_list_it_means(payload):
    assert cli._json_text(payload) == json.dumps(_plain(payload), sort_keys=True, indent=2)


def _per_entry(node):
    """The Columns of the objects an Indexed lists, one object per entry."""
    return cli.Columns(
        {key: _per_entry(node[key]) if isinstance(node[key], cli.Indexed) else node[key] for key in node.block.columns}
    )


def test_table_rows_read_as_distinct_values_write_as_one_value_per_entry():
    """A table's rows are its distinct values and an index; written either way, the text is the same."""
    for text in CORPUS:
        payload = _job_payload(["character-table", "--group", text])
        per_entry = dict(payload, rows=[_per_entry(row) for row in payload["rows"]])
        assert all(len(row) == len(payload["degrees"]) for row in per_entry["rows"])
        assert cli._render_table(payload) == cli._render_table(per_entry), text
        assert cli._json_text(payload) == cli._json_text(per_entry), text


def test_column_block_refuses_columns_of_unequal_lengths():
    with pytest.raises(ValueError, match="unequal lengths"):
        cli.Columns({"a": [1, 2], "b": [3]})


def _writer_calls(payload):
    """Calls of _texts and of C encoders while writing payload."""
    counts = {"texts": 0, "encoder": 0}
    texts, make_encoder = cli._texts, cli.c_make_encoder

    def counted_texts(*args):
        counts["texts"] += 1
        return texts(*args)

    def counted_make_encoder(*args):
        encoder = make_encoder(*args)

        def encode(*call):
            counts["encoder"] += 1
            return encoder(*call)

        return encode

    cli._flat_encoder.cache_clear()
    try:
        with mock.patch.object(cli, "_texts", counted_texts), mock.patch.object(
            cli, "c_make_encoder", counted_make_encoder
        ):
            cli._json_text(payload)
    finally:
        cli._flat_encoder.cache_clear()
    return counts


@pytest.mark.parametrize(
    "small, large",
    [
        (["check-integrality", "--group", "dihedral(10)", "--connection", "sweep"],
         ["check-integrality", "--group", "dihedral(22)", "--connection", "sweep"]),
        (["check-integrality", "--group", "cyclic(1)", "--connection", "sweep"],
         ["check-integrality", "--group", "symmetric(6)", "--connection", "sweep"]),
        (["check-membership", "--group", "dihedral(1)", "--connection", "sweep", "--gamma", "rational"],
         ["check-membership", "--group", "alternating(7)", "--connection", "sweep", "--gamma", "rational"]),
        (["character-table", "--group", "cyclic(12)"], ["character-table", "--group", "cyclic(60)"]),
        (["classes", "--group", "cyclic(12)"], ["classes", "--group", "cyclic(5040)"]),
        (["spectrum", "--group", "cyclic(4)", "--classes", "1", "--oracle", "off"],
         ["spectrum", "--group", "cyclic(60)", "--classes", "1", "--oracle", "off"]),
    ],
    ids=("sweep", "sweep-k1", "membership-sweep-k2", "table", "classes", "spectrum"),
)
def test_json_writer_calls_do_not_grow_with_rows(small, large):
    """A sweep of 128 or 8,192 rows (or of 1 or 1,024, 2 or 256), a table of 12 x 12 or 60 x 60 cells,
    12 or 5,040 classes, a spectrum of 4 or 60 entries: the same writer calls.

    Each column of a bulk block, and each key of a list of dicts with the
    same keys, is encoded in one call, and the rows of a table share those
    calls.  A spectrum's values are rational or cyclotomic dicts, with two
    key sets, and each key set takes its own batch.
    """
    few, many = _job_payload(small), _job_payload(large)
    assert len(cli._json_text(many)) > 10 * len(cli._json_text(few))
    assert _writer_calls(many) == _writer_calls(few)


def test_cli_jobs_do_not_import_numpy_ma():
    """np.unique imports numpy.ma on its first call, 12-16 ms of a job's start-up.

    numpy.random is kept out as well: importing it adds about 2 MiB to a
    character-table job's peak memory.
    """
    script = (
        "import contextlib, io, sys\n"
        "from cayley_spectra.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['verify-all']) == 0\n"
        "    assert run(['character-table', '--group', 'cyclic(12)']) == 0\n"
        "    assert run(['character-table', '--group', 'cyclic(40)']) == 0\n"
        "print('numpy.ma' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    src = str(Path(cayley_spectra.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"
