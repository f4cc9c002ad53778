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
import re
import sys
from functools import lru_cache
from importlib import resources
from itertools import chain, islice, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Optional

import numpy as np

from .characters import CharacterTable, dixon_character_table
from .cyclotomic import CycInt, _complex_parts, _poly_str, totient
from .errors import InternalConsistencyError, ResourceLimitError, cut, shown
from .galois import (
    GaloisSubgroup,
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
    _subset_tuples,
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


class InputError(Exception):
    """Bad job input; the first argument names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# ---------------------------------------------------------------------------
# job assembly


# flag -> (job field, help); every value is read as text and checked with the job
_FLAGS = {
    "--input": ("input", "job JSON file, or - for stdin"),
    "--group": ("group", "group spec string, e.g. dihedral(4)"),
    "--classes": ("classes", "comma-separated conjugacy class indices"),
    "--elements": ("elements", "comma-separated element indices"),
    "--connection": ("connection", 'connection spec: JSON, "all-nonidentity" or "sweep"'),
    "--gamma": ("gamma", 'unit subgroup: generators "3,5", "rational" or "splitting"'),
    "--oracle": ("oracle", "auto, on or off"),
    "--tol": ("tolerance", "oracle comparison tolerance"),
    "--output": ("output", "json or table"),
    "--sweep-limit": ("sweep_limit", "most classes a sweep may take"),
}


class _ArgParser(argparse.ArgumentParser):
    """An argument parser whose errors are bad input, naming the flag's job field."""

    def error(self, message):
        flag = re.match(r"argument (\S+): ", message)
        field = _FLAGS[flag.group(1)][0] if flag and flag.group(1) in _FLAGS else "arguments"
        raise InputError(field, cut(message))


def _arg_parser() -> argparse.ArgumentParser:
    p = _ArgParser(
        prog="cayley-spectra",
        description="Exact spectra of normal Cayley digraphs and related checks.",
    )
    p.add_argument("command", nargs="?", help=f"one of {', '.join(COMMANDS)}")
    for flag, (field, text) in _FLAGS.items():
        p.add_argument(flag, dest=field, help=text)
    return p


def _load_document(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("input", str(exc))
    doc = _json_input(text, "input")
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
    if args.tolerance is not None:
        job["tolerance"] = _parsed(float, args.tolerance, "tolerance", "a finite number >= 0")
    if args.output is not None:
        job["output"] = args.output
    if args.sweep_limit is not None:
        job["sweep_limit"] = _parsed(int, args.sweep_limit, "sweep_limit", "an integer >= 0")
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
        raise InputError("command", f"unknown command {shown(job['command'])}")
    if job["oracle"] not in ("auto", "on", "off"):
        raise InputError("oracle", f"expected auto, on or off, got {shown(job['oracle'])}")
    if job["output"] not in ("json", "table"):
        raise InputError("output", f"expected json or table, got {shown(job['output'])}")
    tol = job["tolerance"]
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not math.isfinite(tol) or tol < 0:
        raise InputError("tolerance", f"expected a finite number >= 0, got {shown(tol)}")
    for field in ("oracle_cap", "sweep_limit"):
        value = job[field]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise InputError(field, f"expected an integer >= 0, got {shown(value)}")
    if "group_cap" in job:
        raise InputError("group_cap", f"not a job field; groups are capped at order {DEFAULT_GROUP_CAP}")
    return job


def _parsed(kind, text: str, field: str, expected: str):
    """kind(text); text kind cannot read is bad input."""
    try:
        return kind(text)
    except ValueError:
        raise InputError(field, f"expected {expected}, got {shown(text)}")


def _int_list(text: str, field: str) -> list[int]:
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise InputError(field, f"expected integers, got {shown(text)}")


def _maybe_json(text: str, field: str):
    text = text.strip()
    if text.startswith("{") or text.startswith("["):
        return _json_input(text, field)
    if text and all(c.isdigit() or c in ", " for c in text):
        return _int_list(text, field)
    return text


def _json_input(text: str, field: str):
    """The decoded JSON text of this field; text that is invalid or nested too deeply to decode is bad input."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(field, f"invalid JSON: {exc}")


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
    if isinstance(conn, dict):  # the key make_connection_set reads must hold a list
        key = next((key for key in ("classes", "representatives", "elements") if key in conn), None)
        if key and not isinstance(conn[key], list):
            raise InputError("connection", f"{key}: expected a list of integers, got {shown(conn[key])}")
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
    raise InputError("gamma", f"cannot parse {shown(spec)}")


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
    agree = left_values == right_values
    rows = Columns(
        {
            "classes": Subsets(sweep.cd.k),
            left_name: left_values.tolist(),
            right_name: right_values.tolist(),
            "agree": agree.tolist(),
        }
    )
    disagreements = len(rows) - int(agree.sum())
    base.update({"sweep": rows, "subsets": len(rows), "disagreements": disagreements})
    return base, disagreements == 0


# ---------------------------------------------------------------------------
# serialization


class Columns:
    """A JSON list of objects that all have the same keys, held as one column per key.

    Each column holds the objects' values in order: a list of JSON values,
    or another Columns.  The writer encodes a whole column at once, so a
    bulk block costs no dict per object.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: dict):
        lengths = {len(c) for c in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
        self.columns = columns
        self.length = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, key: str):
        return self.columns[key]


class Indexed:
    """The JSON list [block's object i for i in index], for a Columns block.

    A character table holds few distinct values, so its rows are one block
    of the distinct values and an index per row: the writer writes each of
    the block's objects once, and each row joins their texts.  As on a
    Columns, a key gives that column of the listed objects.
    """

    __slots__ = ("block", "index")

    def __init__(self, block: Columns, index: list[int]):
        self.block = block
        self.index = index

    def __getitem__(self, key: str):
        column = self.block[key]
        if type(column) is Columns:
            return Indexed(column, self.index)
        return [column[i] for i in self.index]


class Subsets:
    """The JSON list of every subset of classes 1..k-1 in bitmask order, each the list of its classes.

    Subset s holds class j + 1 when bit j of s is set, as in a ClassSweep,
    and reading it as a sequence, as the table output does, yields the
    sweep's subsets tuples.  The writer builds its texts by doubling from k
    alone (_subset_texts), with no tuple, type scan or encoder call.
    """

    __slots__ = ("k",)

    def __init__(self, k: int):
        self.k = k

    def __len__(self) -> int:
        return 1 << (self.k - 1)

    def __iter__(self):
        return iter(_subset_tuples(self.k))


def _json_text(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) for plain dicts with str keys, lists, tuples and scalars.

    A Columns is written as the list of its objects, an Indexed as the list
    of the objects it lists, a Subsets as the list of its subsets.  indent
    makes json use its pure-Python encoder; _texts writes the same text in
    as few C-encoder calls as the kinds of the values allow.
    """
    return _texts([payload], 0)[0]


_CONTAINERS = frozenset({dict, list, tuple, Columns, Indexed, Subsets})
_BOOL_TEXTS = {False: "false", True: "true"}
_LISTS = frozenset({list, tuple})


def _texts(values: list, depth: int) -> list[str]:
    """The text of each value, each written at this depth.

    Values of one kind share their encoder calls:
    - booleans take none: a dict gives each text, in a quarter of the time
      of the call, join and split of other scalars;
    - scalars take one call.  The encoder never writes NUL or a newline
      inside a scalar: with ensure_ascii it escapes every control character
      in a string.  So the scalars are parted by a NUL separator;
    - flat lists of scalars take one call with the members' separator sep,
      which starts with a newline, and are parted by "]" + sep + "[";
    - other lists write the members of all of them as one batch;
    - Columns of one shape write each column of all of them as one batch;
    - Indexed lists over blocks of one shape write each distinct block's
      objects once, in one batch, and join each list from their texts;
    - Subsets lists build their members' texts by doubling (_subset_texts);
    - dicts with the same keys are written as one Columns block.
    Values of mixed kinds are written as one batch per kind (_kind).
    """
    kinds = set(map(type, values))
    if kinds == {bool}:
        return list(map(_BOOL_TEXTS.__getitem__, values))
    if _CONTAINERS.isdisjoint(kinds):
        return "".join(_flat_encoder("\x00")(values, 0))[1:-1].split("\x00") if values else []
    if kinds <= _LISTS:
        if _CONTAINERS.isdisjoint(map(type, chain.from_iterable(values))):
            sep = ",\n" + "  " * (depth + 1)
            text = "".join(_flat_encoder(sep)(values, 0))
            head, tail = "[" + sep[1:], "\n" + "  " * depth + "]"
            return [head + row + tail if row else "[]" for row in text[2:-2].split("]" + sep + "[")]
        return _cut(_texts(list(chain.from_iterable(values)), depth + 1), values, depth)
    if kinds == {Columns} and len(set(map(_kind, values))) == 1:
        return _cut(_object_texts(values, depth + 1), values, depth)
    if kinds == {Subsets}:
        return [_list_text(_subset_texts(v.k, depth + 1), depth) for v in values]
    if kinds == {Indexed} and len(set(map(_kind, values))) == 1:
        blocks = {id(v.block): v.block for v in values}
        texts = iter(_object_texts(list(blocks.values()), depth + 1))
        objects = {key: list(islice(texts, len(block))) for key, block in blocks.items()}
        return [_list_text([objects[id(v.block)][i] for i in v.index], depth) for v in values]
    if kinds == {dict} and len(set(map(frozenset, values))) == 1:
        if not values[0]:
            return ["{}"] * len(values)
        return _object_texts([Columns({key: [v[key] for v in values] for key in values[0]})], depth)
    batches: dict = {}
    for i, value in enumerate(values):
        batches.setdefault(_kind(value), []).append(i)
    texts = [""] * len(values)
    for members in batches.values():
        for i, text in zip(members, _texts([values[i] for i in members], depth)):
            texts[i] = text
    return texts


def _kind(value):
    """What values must share to be written in one batch.

    That is the keys of a dict, the shape of a Columns (its keys, with the
    kind of each column), and the shape of an Indexed list's block.
    """
    kind = type(value)
    if kind is dict:
        return frozenset(value)
    if kind is Columns:
        return tuple((key, _kind(column)) for key, column in sorted(value.columns.items()))
    if kind is Indexed:
        return Indexed, _kind(value.block)
    if kind is Subsets:
        return Subsets
    return "list" if kind in _LISTS else "scalar"


def _cut(texts: list[str], lists: list, depth: int) -> list[str]:
    """The member texts, in order, cut back into lists of these lengths, each written at this depth."""
    members = iter(texts)
    return [_list_text(list(islice(members, len(v))), depth) for v in lists]


@lru_cache(maxsize=None)
def _flat_encoder(item_separator: str):
    """The C encoder for one container of scalars, with this separator between its members."""
    return c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        ": ", item_separator, True, False, True,
    )


def _list_text(items: list[str], depth: int) -> str:
    """The list of these member texts, written at this depth."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _subset_texts(k: int, depth: int) -> list[str]:
    """The text of every subset of classes 1..k-1 in bitmask order, each the list of its classes written at this depth.

    The subsets with bit j - 1 set follow those without, each with class j
    appended, so each text up to its closing bracket is an earlier one plus
    one member: one concatenation per subset, and one more to close it.
    """
    inner = "\n" + "  " * (depth + 1)
    heads = [""]  # each subset's text without its closing bracket
    for j in range(1, k):
        member = "," + inner + str(j)
        heads += [head + member for head in heads]
        heads[1 << (j - 1)] = "[" + inner + str(j)  # the subset {j} has no comma before its member
    close = "\n" + "  " * depth + "]"
    texts = [head + close for head in heads]
    texts[0] = "[]"
    return texts


def _object_texts(blocks: list[Columns], depth: int) -> list[str]:
    """The text of every object of blocks (one shape), in order, each written at this depth.

    An object's text is one join of its fixed texts (brace, separators and
    keys) with its values' texts, which is faster than a % template.
    """
    keys = sorted(blocks[0].columns)
    if not keys:  # a block with no columns holds no objects
        return []
    inner = "\n" + "  " * (depth + 1)
    pieces = []
    for key in keys:
        pieces.append(repeat(("," if pieces else "{") + inner + encode_basestring_ascii(key) + ": "))
        parts = [block.columns[key] for block in blocks]
        if type(parts[0]) is Columns:
            pieces.append(_object_texts(parts, depth + 1))
        elif type(parts[0]) is Subsets:
            pieces.append([text for part in parts for text in _subset_texts(part.k, depth + 1)])
        else:
            pieces.append(_texts(list(chain.from_iterable(parts)), depth + 1))
    pieces.append(repeat("\n" + "  " * depth + "}"))
    return list(map("".join, zip(*pieces)))


def _rounded(values: list[float]) -> list[float]:
    """values rounded to 12 decimals, with -0.0 written as 0.0."""
    return [round(x, 12) + 0.0 for x in values]


def _approx(value: complex) -> dict:
    re, im = _rounded([value.real, value.imag])
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


def _runs_float_oracle(job: dict, group: Group) -> bool:
    """Whether the float oracle runs on this group: off never, on always, auto up to oracle_cap."""
    return job["oracle"] == "on" or (job["oracle"] == "auto" and group.n <= job["oracle_cap"])


def _run_float_oracle(sp: Spectrum, group: Group, conn: ConnectionSet, job: dict):
    """Returns an oracle report dict, or None when the job's oracle mode skips it."""
    if not _runs_float_oracle(job, group):
        return None
    adjacency = adjacency_matrix(group, conn.elements, cap=group.n)
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
                "representative": group.label(cd.representatives[j]),
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
    k = cd.k
    entries = np.ascontiguousarray(table.coefficients).reshape(k * k, -1)
    key = np.dtype((np.void, entries.shape[1] * entries.itemsize))
    distinct: dict = {}  # each distinct coefficient row's bytes -> its number, in order of first entry
    index = [distinct.setdefault(row, len(distinct)) for row in entries.view(key).ravel().tolist()]
    values = np.frombuffer(b"".join(distinct), dtype=entries.dtype).reshape(len(distinct), -1)
    re, im = _complex_parts(values, table.m)
    block = Columns(
        {
            "m": [table.m] * len(values),
            "coeffs": values.tolist(),
            "approx": Columns({"re": _rounded(re.tolist()), "im": _rounded(im.tolist())}),
        }
    )
    payload = {
        "schema": SCHEMA,
        "command": "character-table",
        "group": _group_json(spec, group),
        "conductor": table.m,
        "prime": table.prime,
        "degrees": list(table.degrees),
        "classes": Columns(
            {
                "index": list(range(cd.k)),
                "size": list(cd.sizes),
                "representative": [group.label(r) for r in cd.representatives],
            }
        ),
        "rows": [Indexed(block, index[r * k : (r + 1) * k]) for r in range(k)],
    }
    return payload, True


# ---------------------------------------------------------------------------
# verify-all


def _default_corpus() -> list[str]:
    text = resources.files("cayley_spectra").joinpath("data/corpus.json").read_text()
    return json.loads(text)["groups"]


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
    if sweeps:
        checks.update(_sweep_checks(job, group, cd, table))
    else:
        checks.update(dict.fromkeys(_SWEEP_CHECKS, "skip"))
    return report


def _sweep_checks(job: dict, group: Group, cd: ClassData, table: CharacterTable) -> dict[str, str]:
    """The outcomes of the five sweep checks.

    The equivalences are decided for all subsets at once, and so are the
    oracles: they read the subsets' element sets, the group and the claimed
    eigenvalues (the sweep's numerators over the degrees), never the class
    algebra.  Power-closure consistency compares, as
    check_power_closure_consistency does per subset, the powers of every
    element with the unit group's class merge.

    Membership equivalence on the cyclic subgroups <t> of the units gives
    it on every gamma: each side for gamma is the AND over t in gamma of
    that side for <t> (an eigenvalue is fixed by gamma iff by each sigma_t,
    and C is gamma-closed iff closed under each pi_t).  <1> is the trivial
    group, so it is in the list; the full unit group, and every non-cyclic
    gamma, follow from their cyclic subgroups.
    """
    run_float = _runs_float_oracle(job, group)
    run_exact = group.n <= EXACT_VERIFY_ORDER and cd.k <= EXACT_VERIFY_CLASSES
    run_naive = group.n <= NAIVE_ORACLE_CAP
    sweep = _group_limited(class_sweep, group, cd, table)
    closed = sweep_power_closed(sweep)
    integrality_ok = bool((sweep.integral == closed).all())
    membership_ok = all(
        (
            sweep_in_subfield(sweep, gamma)
            == sweep_class_closed(sweep, galois_conjugacy_classes(group, cd, gamma))
        ).all()
        for gamma in cyclic_subgroups(group.exponent)
    )
    unit_merge = galois_conjugacy_classes(group, cd, unit_group(group.exponent))
    unit_closed = sweep_class_closed(sweep, unit_merge)
    closure_ok = bool((sweep_power_closed(sweep, every_element=True) == unit_closed).all())

    float_ok = True
    exact_ok = True
    if run_float or run_exact or run_naive:
        members = sweep.masks.astype(bool)[:, cd.class_of]  # (S, n) element indicators
        if run_naive and (batch_power_closed(group, members) != closed).any():
            closure_ok = False
        if run_float or run_exact:  # only these two read the numerators
            claims = (sweep.numerators, table.degrees, table.m)
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
            sweep = payload["sweep"]
            for c, a, b, agree in zip(sweep["classes"], sweep[sides[0]], sweep[sides[1]], sweep["agree"]):
                lines.append(f"{str(list(c)):24}  {str(a):12}  {str(b):12}  {agree}")
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
        lines.append("degree | " + "  ".join(payload["classes"]["representative"]))
        for deg, row in zip(payload["degrees"], payload["rows"]):
            a = row["approx"]
            cells = [f"{re:.6f}{im:+.6f}i" for re, im in zip(a["re"], a["im"])]
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
COMMANDS = tuple(_COMMANDS)


def run(argv: Optional[list[str]] = None) -> int:
    try:
        job = _assemble_job(_arg_parser().parse_args(argv))
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
