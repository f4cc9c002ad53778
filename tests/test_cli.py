import contextlib
import io
import json
import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayley_spectra import TABLE_BYTE_BUDGET, cli, spectra
from cayley_spectra.cli import COMMANDS, run


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


def test_input_errors_name_the_field(capsys):
    for argv, field in [
        (["spectrum", "--group", "widget(3)", "--classes", "1"], "group"),
        (["spectrum", "--group", "cyclic(4)", "--classes", "11"], "connection"),
        (["spectrum", "--group", "cyclic(4)"], "connection"),
        (["check-membership", "--group", "cyclic(5)", "--classes", "1",
          "--gamma", "5"], "gamma"),
        (["classes"], "group"),
        ([], "command"),
        # digits that str.isdigit accepts but int() does not parse
        (["spectrum", "--group", "cyclic(4)", "--connection", "\u00b2"], "connection"),
        (["check-membership", "--group", "cyclic(5)", "--classes", "1",
          "--gamma", "\u00b3"], "gamma"),
        (["check-membership", "--group", "cyclic(5)", "--classes", "1",
          "--gamma", "[2,"], "gamma"),
    ]:
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"input error: {field}:"), (argv, err)


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


def test_verify_all_bundled_corpus_loads(capsys):
    # restrict to a fast subset via sweep limit; full bundled corpus is
    # exercised by the acceptance suite
    code, doc = _run_json(capsys, ["verify-all", "--sweep-limit", "4"])
    assert code == 0
    assert len(doc["groups"]) == 28
    skipped = [g for g in doc["groups"] if g["checks"]["integrality-equivalence"] == "skip"]
    assert skipped


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
    real = spectra._power_basis
    monkeypatch.setattr(spectra, "_power_basis", lambda m: real(m) << 61)
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
    real = spectra._power_basis
    monkeypatch.setattr(spectra, "_power_basis", lambda m: real(m) << 61)
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


# ---------------------------------------------------------------------------
# the JSON writer

_WRITER_JOBS = [
    *(["character-table", "--group", g] for g in (
        "symmetric(7)",
        "product(cyclic(6),cyclic(6))",
        "cyclic(40)",
        "elementary-abelian(2,6)",
        "cyclic(60)",
    )),
    ["check-integrality", "--group", "symmetric(6)", "--connection", "sweep"],
    ["check-membership", "--group", "alternating(7)", "--connection", "sweep", "--gamma", "rational"],
    ["check-integrality", "--group", "dihedral(22)", "--connection", "sweep"],
    ["verify-all"],
    ["verify-all", "--oracle", "off"],
]


@pytest.mark.parametrize("argv", _WRITER_JOBS, ids=" ".join)
def test_json_writer_matches_indented_json_dumps(argv):
    job = cli._assemble_job(cli._arg_parser().parse_args(argv))
    payload, _ = cli._COMMANDS[job["command"]](job)
    assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_json_payloads = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_json_payloads)
def test_json_writer_matches_json_dumps_on_nested_payloads(payload):
    assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)
