"""Command-line interface.

One JSON job document (file or stdin) plus flag overrides drives every
command.  Output is deterministic: byte-identical JSON for identical jobs,
or a human-readable table.  Exit codes: 0 all checks passed, 1 a check
failed, 2 bad input (the message names the offending field).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from importlib import resources
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional

from .characters import CharacterTable, dixon_character_table, table_coefficients
from .cyclotomic import CycInt, _complex_parts, _poly_str, totient
from .errors import InternalConsistencyError, ResourceLimitError
from .galois import (
    GaloisSubgroup,
    all_subgroups,
    cyclic_subgroups,
    galois_conjugacy_classes,
    subgroup_closure,
    unit_group,
)
from .group_core import (
    DEFAULT_GROUP_CAP,
    ClassData,
    Group,
    GroupSpec,
    build_group,
    conjugacy_classes,
)
from .oracle import (
    DEFAULT_ORACLE_CAP,
    DEFAULT_TOLERANCE,
    adjacency_matrix,
    batch_compare_spectra,
    batch_power_closed,
    batch_verify_spectrum_exact,
    compare_spectra,
    oracle_spectrum,
)
from .spectra import (
    ClassSweep,
    ConnectionSet,
    Spectrum,
    _index,
    all_eigenvalues_integral,
    check_integrality,
    check_membership,
    check_sweep_size,
    class_sweep,
    eigenvalues_via_characters,
    make_connection_set,
    sweep_class_closed,
    sweep_in_subfield,
    sweep_power_closed,
)

SCHEMA = "v1"
DEFAULT_SWEEP_LIMIT = 14
NAIVE_ORACLE_CAP = 60
EXACT_VERIFY_ORDER = 24
EXACT_VERIFY_CLASSES = 8
COMMANDS = (
    "spectrum",
    "classes",
    "check-integrality",
    "check-membership",
    "character-table",
    "verify-all",
)


class InputError(Exception):
    """Bad job input; the first argument names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# ---------------------------------------------------------------------------
# job assembly


def _arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cayley-spectra",
        description="Exact spectra of normal Cayley digraphs and related checks.",
    )
    p.add_argument("command", nargs="?", choices=COMMANDS)
    p.add_argument("--input", help="job JSON file, or - for stdin")
    p.add_argument("--group", help="group spec string, e.g. dihedral(4)")
    p.add_argument("--classes", help="comma-separated conjugacy class indices")
    p.add_argument("--elements", help="comma-separated element indices")
    p.add_argument("--connection", help='connection spec: JSON, "all-nonidentity" or "sweep"')
    p.add_argument("--gamma", help='unit subgroup: generators "3,5", "rational" or "splitting"')
    p.add_argument("--oracle", choices=("auto", "on", "off"))
    p.add_argument("--tol", type=float, help="oracle comparison tolerance")
    p.add_argument("--output", choices=("json", "table"))
    p.add_argument("--sweep-limit", type=int, dest="sweep_limit")
    return p


def _load_document(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        text = sys.stdin.read() if path == "-" else open(path).read()
    except OSError as exc:
        raise InputError("input", str(exc))
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise InputError("input", f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise InputError("input", "job document must be a JSON object")
    return doc


def _assemble_job(args: argparse.Namespace) -> dict:
    job = dict(_load_document(args.input))
    if args.group is not None:
        job["group"] = args.group
    if args.classes is not None:
        job["connection"] = {"classes": _int_list(args.classes, "classes")}
    if args.elements is not None:
        job["connection"] = {"elements": _int_list(args.elements, "elements")}
    if args.connection is not None:
        job["connection"] = _maybe_json(args.connection, "connection")
    if args.gamma is not None:
        job["gamma"] = _maybe_json(args.gamma, "gamma")
    if args.oracle is not None:
        job["oracle"] = args.oracle
    if args.tol is not None:
        job["tolerance"] = args.tol
    if args.output is not None:
        job["output"] = args.output
    if args.sweep_limit is not None:
        job["sweep_limit"] = args.sweep_limit
    if args.command is not None:
        job["command"] = args.command
    job.setdefault("oracle", "auto")
    job.setdefault("tolerance", DEFAULT_TOLERANCE)
    job.setdefault("output", "json")
    job.setdefault("sweep_limit", DEFAULT_SWEEP_LIMIT)
    job.setdefault("oracle_cap", DEFAULT_ORACLE_CAP)
    if "command" not in job:
        raise InputError("command", f"missing; expected one of {', '.join(COMMANDS)}")
    if job["command"] not in COMMANDS:
        raise InputError("command", f"unknown command {job['command']!r}")
    if job["oracle"] not in ("auto", "on", "off"):
        raise InputError("oracle", f"expected auto, on or off, got {job['oracle']!r}")
    if job["output"] not in ("json", "table"):
        raise InputError("output", f"expected json or table, got {job['output']!r}")
    tol = job["tolerance"]
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not math.isfinite(tol) or tol < 0:
        raise InputError("tolerance", f"expected a finite number >= 0, got {tol!r}")
    for field in ("oracle_cap", "sweep_limit"):
        value = job[field]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise InputError(field, f"expected an integer >= 0, got {value!r}")
    if "group_cap" in job:
        raise InputError("group_cap", f"not a job field; groups are capped at order {DEFAULT_GROUP_CAP}")
    return job


def _int_list(text: str, field: str) -> list[int]:
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise InputError(field, f"expected integers, got {text!r}")


def _maybe_json(text: str, field: str):
    text = text.strip()
    if text.startswith("{") or text.startswith("["):
        try:
            return json.loads(text)
        except ValueError as exc:
            raise InputError(field, f"invalid JSON: {exc}")
    if text and all(c.isdigit() or c in ", " for c in text):
        return _int_list(text, field)
    return text


def _group_from_job(job: dict) -> tuple[GroupSpec, Group, ClassData]:
    if "group" not in job:
        raise InputError("group", "missing group spec")
    try:
        spec = GroupSpec.from_json(job["group"])
        group = build_group(spec)
    except ValueError as exc:
        raise InputError("group", str(exc))
    return spec, group, conjugacy_classes(group)


def _group_limited(fn, *args):
    """fn(*args); a table or int64 bound too small for the group is bad input naming it."""
    try:
        return fn(*args)
    except ResourceLimitError as exc:
        raise InputError("group", str(exc))


def _connection_from_job(job: dict, group: Group, cd: ClassData) -> ConnectionSet:
    conn = job.get("connection")
    if conn is None:
        raise InputError("connection", "missing connection set")
    if isinstance(conn, list):
        conn = {"classes": conn}
    try:
        return make_connection_set(conn, group, cd)
    except (ValueError, TypeError) as exc:
        raise InputError("connection", str(exc))


def _gamma_from_job(job: dict, m: int) -> GaloisSubgroup:
    spec = job.get("gamma")
    if spec is None:
        raise InputError("gamma", "missing unit subgroup spec")
    if isinstance(spec, dict):
        spec = spec.get("generators", spec)
    try:
        if spec == "rational":
            return unit_group(m)
        if spec == "splitting":
            return subgroup_closure(m, ())
        if isinstance(spec, list):
            return subgroup_closure(m, tuple(_index(t, "generator") for t in spec))
    except (ValueError, TypeError) as exc:
        raise InputError("gamma", str(exc))
    raise InputError("gamma", f"cannot parse {spec!r}")


def _wants_sweep(job: dict) -> bool:
    return job.get("connection") == "sweep"


def _refuse_oversize_sweep(job: dict, group: Group, cd: ClassData) -> None:
    """Refuse a sweep past sweep_limit classes or over the byte budget, before any table is built."""
    limit = job["sweep_limit"]
    if cd.k > limit:
        raise InputError("connection", f"sweep over {cd.k} classes exceeds the limit of {limit}")
    try:
        check_sweep_size(cd.k, totient(group.exponent))
    except ResourceLimitError as exc:
        raise InputError("sweep_limit", str(exc))


def _sweep_payload(base: dict, sweep: ClassSweep, left: tuple, right: tuple):
    """Add one row per subset comparing the two named decisions; ok when all agree."""
    (left_name, left_values), (right_name, right_values) = left, right
    rows = [
        {"classes": list(c), left_name: a, right_name: b, "agree": a == b}
        for c, a, b in zip(sweep.subsets, left_values.tolist(), right_values.tolist())
    ]
    disagreements = sum(not row["agree"] for row in rows)
    base.update({"sweep": rows, "subsets": len(rows), "disagreements": disagreements})
    return base, disagreements == 0


# ---------------------------------------------------------------------------
# serialization


def _json_text(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) for plain dicts with str keys, lists, tuples and scalars.

    indent makes json use its pure-Python encoder.  Here every container
    whose members are all scalars, and every scalar, is written by the C
    encoder in one call, with ",\n" and the members' indent as its item
    separator; only the containers above those are joined in Python.
    """
    if c_make_encoder is None:
        return json.dumps(payload, sort_keys=True, indent=2)
    chunks: list[str] = []
    _write_json(payload, 0, chunks)
    return "".join(chunks)


_CONTAINERS = frozenset({dict, list, tuple})


def _write_json(value, depth: int, chunks: list[str]) -> None:
    kind = type(value)
    if kind not in _CONTAINERS:
        chunks += _flat_encoder(0)(value, 0)
        return
    if not value:
        chunks.append("{}" if kind is dict else "[]")
        return
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    members = value.values() if kind is dict else value
    if _CONTAINERS.isdisjoint(map(type, members)):
        text = "".join(_flat_encoder(depth + 1)(value, 0))
        chunks += (text[0], inner, text[1:-1], outer, text[-1])
        return
    scalar = _flat_encoder(0)
    if kind is dict:
        chunks.append("{")
        for i, (k, v) in enumerate(sorted(value.items())):
            chunks += ("," + inner if i else inner, encode_basestring_ascii(k), ": ")
            if type(v) in _CONTAINERS:
                _write_json(v, depth + 1, chunks)
            else:
                chunks += scalar(v, 0)
        chunks += (outer, "}")
    else:
        chunks.append("[")
        for i, v in enumerate(value):
            chunks.append("," + inner if i else inner)
            if type(v) in _CONTAINERS:
                _write_json(v, depth + 1, chunks)
            else:
                chunks += scalar(v, 0)
        chunks += (outer, "]")


@lru_cache(maxsize=None)
def _flat_encoder(depth: int):
    """The C encoder for one container of scalars whose members sit at this indent depth."""
    return c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        ": ", ",\n" + "  " * depth, True, False, True,
    )


def _approx(value: complex) -> dict:
    re = round(value.real, 12) + 0.0
    im = round(value.imag, 12) + 0.0
    return {"re": re, "im": im}


def _cyc_json(v: CycInt) -> dict:
    return {"m": v.ctx.m, "coeffs": list(v.coeffs)}


def _value_json(entry) -> dict:
    v = entry.value
    rat = v.as_fraction()
    if rat is not None:
        out = {"rational": str(rat)}
    else:
        out = {"cyclotomic": _cyc_json(v.numerator), "degree_divisor": v.denominator}
    out["approx"] = _approx(v.to_complex())
    return out


def _group_json(spec: GroupSpec, group: Group) -> dict:
    return {"spec": spec.describe(), "order": group.n, "exponent": group.exponent}


def _connection_json(conn: ConnectionSet) -> dict:
    return {
        "classes": list(conn.class_indices),
        "size": conn.size,
        "contains_identity": conn.contains_identity,
    }


def _gamma_json(gamma: GaloisSubgroup) -> dict:
    return {"modulus": gamma.m, "elements": list(gamma.elements)}


def _spectrum_json(sp: Spectrum) -> list[dict]:
    return [
        {
            "character": e.character,
            "degree": e.degree,
            "multiplicity": e.multiplicity,
            "value": _value_json(e),
        }
        for e in sp.entries
    ]


# ---------------------------------------------------------------------------
# commands


def _run_float_oracle(sp: Spectrum, group: Group, conn: ConnectionSet, job: dict):
    """Returns an oracle report dict, or None when switched off or too big."""
    mode = job["oracle"]
    cap = int(job["oracle_cap"])
    if mode == "off" or (mode == "auto" and group.n > cap):
        return None
    adjacency = adjacency_matrix(group, conn.elements, cap=max(cap, group.n))
    res = compare_spectra(sp, oracle_spectrum(adjacency), tolerance=float(job["tolerance"]))
    return {
        "kind": "dense-eigensolver",
        "passed": res.passed,
        "max_distance": round(res.max_distance, 14),
        "tolerance": res.tolerance,
    }


def cmd_spectrum(job: dict):
    spec, group, cd = _group_from_job(job)
    conn = _connection_from_job(job, group, cd)
    table = _group_limited(dixon_character_table, group, cd)
    sp = _group_limited(eigenvalues_via_characters, conn, table, cd)
    payload = {
        "schema": SCHEMA,
        "command": "spectrum",
        "group": _group_json(spec, group),
        "connection": _connection_json(conn),
        "entries": _spectrum_json(sp),
        "all_integral": all_eigenvalues_integral(sp),
    }
    ok = True
    oracle = _run_float_oracle(sp, group, conn, job)
    if oracle is not None:
        payload["oracle"] = oracle
        ok = oracle["passed"]
    return payload, ok


def cmd_classes(job: dict):
    spec, group, cd = _group_from_job(job)
    payload = {
        "schema": SCHEMA,
        "command": "classes",
        "group": _group_json(spec, group),
        "classes": [
            {
                "index": j,
                "size": cd.sizes[j],
                "order": int(group.orders[cd.representatives[j]]),
                "representative": group.labels[cd.representatives[j]],
                "members": list(cd.classes[j]),
                "inverse_class": cd.inverse_class[j],
            }
            for j in range(cd.k)
        ],
    }
    return payload, True


def cmd_check_integrality(job: dict):
    spec, group, cd = _group_from_job(job)
    if _wants_sweep(job):
        _refuse_oversize_sweep(job, group, cd)
    table = _group_limited(dixon_character_table, group, cd)
    base = {
        "schema": SCHEMA,
        "command": "check-integrality",
        "group": _group_json(spec, group),
    }
    if _wants_sweep(job):
        sweep = _group_limited(class_sweep, group, cd, table)
        return _sweep_payload(
            base,
            sweep,
            ("integral", sweep.integral),
            ("power_closed", sweep_power_closed(sweep)),
        )
    conn = _connection_from_job(job, group, cd)
    rep = _group_limited(check_integrality, group, cd, conn, table)
    base.update(
        {
            "connection": _connection_json(conn),
            "integral": rep.integral,
            "power_closed": rep.power_closed,
            "agree": rep.agree,
            "offending_character": rep.offending_character,
            "offending_power": list(rep.offending_power) if rep.offending_power else None,
        }
    )
    return base, rep.agree


def cmd_check_membership(job: dict):
    spec, group, cd = _group_from_job(job)
    gamma = _gamma_from_job(job, group.exponent)
    if _wants_sweep(job):
        _refuse_oversize_sweep(job, group, cd)
    table = _group_limited(dixon_character_table, group, cd)
    merged = galois_conjugacy_classes(group, cd, gamma)
    base = {
        "schema": SCHEMA,
        "command": "check-membership",
        "group": _group_json(spec, group),
        "gamma": _gamma_json(gamma),
    }
    if _wants_sweep(job):
        sweep = _group_limited(class_sweep, group, cd, table)
        return _sweep_payload(
            base,
            sweep,
            ("in_subfield", sweep_in_subfield(sweep, gamma)),
            ("class_closed", sweep_class_closed(sweep, merged)),
        )
    conn = _connection_from_job(job, group, cd)
    rep = _group_limited(check_membership, group, cd, conn, table, gamma, merged)
    base.update(
        {
            "connection": _connection_json(conn),
            "in_subfield": rep.in_subfield,
            "class_closed": rep.class_closed,
            "agree": rep.agree,
            "offending_character": rep.offending_character,
            "offending_class": rep.offending_class,
        }
    )
    return base, rep.agree


def cmd_character_table(job: dict):
    spec, group, cd = _group_from_job(job)
    table = _group_limited(dixon_character_table, group, cd)
    re, im = _complex_parts(table_coefficients(table), table.m)
    rows = [
        [dict(_cyc_json(v), approx=_approx(complex(a, b))) for v, a, b in zip(values, re_row, im_row)]
        for values, re_row, im_row in zip(table.values, re.tolist(), im.tolist())
    ]
    payload = {
        "schema": SCHEMA,
        "command": "character-table",
        "group": _group_json(spec, group),
        "conductor": table.m,
        "prime": table.prime,
        "degrees": list(table.degrees),
        "classes": [
            {
                "index": j,
                "size": cd.sizes[j],
                "representative": group.labels[cd.representatives[j]],
            }
            for j in range(cd.k)
        ],
        "rows": rows,
    }
    return payload, True


# ---------------------------------------------------------------------------
# verify-all


def _default_corpus() -> list[str]:
    text = resources.files("cayley_spectra").joinpath("data/corpus.json").read_text()
    return json.loads(text)["groups"]


def _gamma_lattice(m: int) -> list[GaloisSubgroup]:
    """Subgroups of the units mod m used for the membership sweep."""
    if totient(m) <= 24:
        return all_subgroups(m)
    seen = {}
    for g in [subgroup_closure(m, ())] + cyclic_subgroups(m) + [unit_group(m)]:
        seen[g.elements] = g
    return [seen[k] for k in sorted(seen)]


_SWEEP_CHECKS = (
    "integrality-equivalence",
    "membership-equivalence",
    "power-closure-consistency",
    "spectrum-oracle-float",
    "spectrum-oracle-exact",
)


def _verify_group(entry, job: dict) -> dict:
    spec = GroupSpec.from_json(entry)
    group = build_group(spec)
    cd = conjugacy_classes(group)
    checks: dict[str, str] = {}
    report = {"group": spec.describe(), "order": group.n, "class_count": cd.k, "checks": checks}
    sweeps = cd.k <= job["sweep_limit"]
    if sweeps:
        _refuse_oversize_sweep(job, group, cd)

    try:
        table = dixon_character_table(group, cd)
    except InternalConsistencyError:
        checks["character-table"] = "fail"
        return report
    # dixon_character_table returns only tables that passed the certificate,
    # which checks orthogonality and the Galois identity on the unit group
    checks["character-orthogonality"] = "pass"
    checks["galois-character-identity"] = "pass"
    units = unit_group(group.exponent)
    if sweeps:
        checks.update(_sweep_checks(job, group, cd, table, units))
    else:
        checks.update(dict.fromkeys(_SWEEP_CHECKS, "skip"))
    return report


def _sweep_checks(
    job: dict, group: Group, cd: ClassData, table: CharacterTable, units: GaloisSubgroup
) -> dict[str, str]:
    """The outcomes of the five sweep checks.

    The equivalences are decided for all subsets at once, and so are the
    oracles: they read the subsets' element sets, the group and the claimed
    eigenvalues (the sweep's numerators over the degrees), never the class
    algebra.  Power-closure consistency compares, as
    check_power_closure_consistency does per subset, the powers of every
    element with the unit group's class merge.
    """
    sweep = _group_limited(class_sweep, group, cd, table)
    closed = sweep_power_closed(sweep)
    integrality_ok = bool((sweep.integral == closed).all())
    membership_ok = all(
        (
            sweep_in_subfield(sweep, gamma)
            == sweep_class_closed(sweep, galois_conjugacy_classes(group, cd, gamma))
        ).all()
        for gamma in _gamma_lattice(group.exponent)
    )
    unit_closed = sweep_class_closed(sweep, galois_conjugacy_classes(group, cd, units))
    closure_ok = bool((sweep_power_closed(sweep, every_element=True) == unit_closed).all())

    run_float = job["oracle"] != "off" and group.n <= job["oracle_cap"]
    run_exact = group.n <= EXACT_VERIFY_ORDER and cd.k <= EXACT_VERIFY_CLASSES
    run_naive = group.n <= NAIVE_ORACLE_CAP
    float_ok = True
    exact_ok = True
    if run_float or run_exact or run_naive:
        members = sweep.masks.astype(bool)[:, cd.class_of]  # (S, n) element indicators
        claims = (sweep.numerators, table.degrees, table.m)
        if run_naive and (batch_power_closed(group, members) != closed).any():
            closure_ok = False
        if run_float:
            tol = float(job["tolerance"])
            float_ok = bool(batch_compare_spectra(group, members, *claims, tol).all())
        if run_exact:
            exact_ok = bool(batch_verify_spectrum_exact(group, members, *claims).all())

    def outcome(ok: bool, ran: bool = True) -> str:
        return ("pass" if ok else "fail") if ran else "skip"

    return {
        "integrality-equivalence": outcome(integrality_ok),
        "membership-equivalence": outcome(membership_ok),
        "power-closure-consistency": outcome(closure_ok),
        "spectrum-oracle-float": outcome(float_ok, run_float),
        "spectrum-oracle-exact": outcome(exact_ok, run_exact),
    }


def cmd_verify_all(job: dict):
    entries = job.get("groups")
    if entries is None:
        entries = _default_corpus()
    if not isinstance(entries, list) or not entries:
        raise InputError("groups", "expected a non-empty list of group specs")
    reports = []
    totals = {"pass": 0, "fail": 0, "skip": 0}
    for entry in entries:
        try:
            report = _verify_group(entry, job)
        except ValueError as exc:
            raise InputError("groups", str(exc))
        for outcome in report["checks"].values():
            totals[outcome] += 1
        reports.append(report)
    payload = {
        "schema": SCHEMA,
        "command": "verify-all",
        "oracle": job["oracle"],
        "tolerance": job["tolerance"],
        "groups": reports,
        "totals": totals,
        "passed": totals["fail"] == 0,
    }
    return payload, totals["fail"] == 0


# ---------------------------------------------------------------------------
# rendering


def _render_table(payload: dict) -> str:
    cmd = payload["command"]
    lines = []
    if cmd == "spectrum":
        g = payload["group"]
        lines.append(f"group {g['spec']}  order {g['order']}  exponent {g['exponent']}")
        c = payload["connection"]
        lines.append(
            f"connection classes {c['classes']}  size {c['size']}"
            f"  identity {'in' if c['contains_identity'] else 'out'}"
        )
        lines.append("character  degree  multiplicity  eigenvalue")
        for e in payload["entries"]:
            val = e["value"]
            if "rational" in val:
                exact = val["rational"]
            else:
                poly = _poly_str(val["cyclotomic"]["coeffs"], "eta")
                if val["degree_divisor"] != 1:
                    poly = f"({poly})/{val['degree_divisor']}"
                exact = f"{poly} (conductor {val['cyclotomic']['m']})"
            a = val["approx"]
            lines.append(
                f"{e['character']:9d}  {e['degree']:6d}  {e['multiplicity']:12d}"
                f"  {exact}  ~ {a['re']:.6f}{a['im']:+.6f}i"
            )
        lines.append(f"all eigenvalues integral: {payload['all_integral']}")
        if "oracle" in payload:
            o = payload["oracle"]
            lines.append(
                f"oracle {o['kind']}: {'pass' if o['passed'] else 'FAIL'}"
                f" (max distance {o['max_distance']:.3g}, tolerance {o['tolerance']:.3g})"
            )
    elif cmd == "classes":
        g = payload["group"]
        lines.append(f"group {g['spec']}  order {g['order']}  exponent {g['exponent']}")
        lines.append("index  size  order  inverse  representative")
        for c in payload["classes"]:
            lines.append(
                f"{c['index']:5d}  {c['size']:4d}  {c['order']:5d}"
                f"  {c['inverse_class']:7d}  {c['representative']}"
            )
    elif cmd in ("check-integrality", "check-membership"):
        g = payload["group"]
        lines.append(f"group {g['spec']}  order {g['order']}  exponent {g['exponent']}")
        if cmd == "check-membership":
            lines.append(f"gamma: units {payload['gamma']['elements']} mod {payload['gamma']['modulus']}")
        sides = (
            ("integral", "power_closed")
            if cmd == "check-integrality"
            else ("in_subfield", "class_closed")
        )
        if "sweep" in payload:
            lines.append(f"{'classes':24}  {sides[0]:12}  {sides[1]:12}  agree")
            for r in payload["sweep"]:
                lines.append(
                    f"{str(r['classes']):24}  {str(r[sides[0]]):12}"
                    f"  {str(r[sides[1]]):12}  {r['agree']}"
                )
            lines.append(
                f"{payload['subsets']} subsets, {payload['disagreements']} disagreements"
            )
        else:
            for key in (*sides, "agree"):
                lines.append(f"{key}: {payload[key]}")
    elif cmd == "character-table":
        g = payload["group"]
        lines.append(
            f"group {g['spec']}  order {g['order']}  conductor {payload['conductor']}"
            f"  prime {payload['prime']}"
        )
        heads = [c["representative"] for c in payload["classes"]]
        lines.append("degree | " + "  ".join(heads))
        for deg, row in zip(payload["degrees"], payload["rows"]):
            cells = []
            for v in row:
                a = v["approx"]
                cells.append(f"{a['re']:.6f}{a['im']:+.6f}i")
            lines.append(f"{deg:6d} | " + "  ".join(cells))
    elif cmd == "verify-all":
        for r in payload["groups"]:
            checks = "  ".join(f"{k}={v}" for k, v in sorted(r["checks"].items()))
            lines.append(
                f"{r['group']} [order {r['order']}, classes {r['class_count']}]: {checks}"
            )
        t = payload["totals"]
        lines.append(
            f"totals: {t['pass']} pass, {t['fail']} fail, {t['skip']} skip"
            f" -> {'PASS' if payload['passed'] else 'FAIL'}"
        )
    return "\n".join(lines)


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "classes": cmd_classes,
    "check-integrality": cmd_check_integrality,
    "check-membership": cmd_check_membership,
    "character-table": cmd_character_table,
    "verify-all": cmd_verify_all,
}


def run(argv: Optional[list[str]] = None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        job = _assemble_job(args)
        payload, ok = _COMMANDS[job["command"]](job)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if job["output"] == "json":
        print(_json_text(payload))
    else:
        print(_render_table(payload))
    return 0 if ok else 1


def console_entry() -> None:
    sys.exit(run())
