"""Tracing of the package's layers from outside the package.

``install`` wraps every public function of each layer module, in every
namespace of the package that holds it (``cli`` does ``from .x import f``,
so rebinding a name only in its home module would miss those calls).  A
wrapped call records a span: name, start, end, parent span and job id.
Spans are kept in flat in-memory arrays and written out once, at the end.

Functions in ``AGGREGATE`` and the ``CycInt`` arithmetic operators are
called millions of times, so a span per call would cost more than the
run-to-run spread.  Each of their calls only adds its count and duration to
per-name totals, and its duration to the enclosing span's ``covered`` time,
so that the self times of all layers still partition the traced time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from functools import wraps
from math import nan

import numpy as np

PACKAGE = "cayley_spectra"
# module name -> layer name (metric names may not start with "_")
LAYERS = {
    "group_core": "group_core",
    "cyclotomic": "cyclotomic",
    "_modp": "modp",
    "characters": "characters",
    "galois": "galois",
    "spectra": "spectra",
    "oracle": "oracle",
    "cli": "cli",
}
AGGREGATE = frozenset({"group_core.power_of"})
# CycInt operators, traced as aggregates under the cyclotomic layer
CYCINT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__")


class Tracer:
    """In-memory spans, aggregate totals and distinct-key probes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.covered = array("d")  # time of aggregate calls made inside each span
        self.stack = [-1]
        self.in_aggregate = False
        self.current_job = -1
        self.counts: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.builds = 0  # groups built so far: tells groups apart in probe keys
        self.keys: dict[str, set] = {"subsets": set(), "gammas": set()}

    def wrap(self, name: str, fn):
        if name in AGGREGATE:
            return self.wrap_aggregate(name, fn)
        idx = self.name_index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, covered, stack = self.start, self.end, self.covered, self.stack
        clock = time.perf_counter
        probe = _PROBES.get(name)
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(tracer, args, kwargs)
            i = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            jobs.append(tracer.current_job)
            ends.append(nan)
            covered.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def wrap_aggregate(self, name: str, fn):
        """Count and time every call, without a span.

        The wrapped function must not call a span-wrapped function (the
        operators and ``power_of`` call none); calls nested in another
        aggregate call only count, so no time is taken off twice.
        """
        counts, seconds, covered, stack = self.counts, self.seconds, self.covered, self.stack
        clock = time.perf_counter
        tracer = self

        @wraps(fn)
        def aggregated(*args, **kwargs):
            counts[name] += 1
            if tracer.in_aggregate:
                return fn(*args, **kwargs)
            tracer.in_aggregate = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer.in_aggregate = False
                seconds[name] += dt
                if stack[-1] >= 0:
                    covered[stack[-1]] += dt

        return aggregated

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "covered": np.frombuffer(self.covered, dtype=np.float64),
        }

    def save(self, path, job_name: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), job_name=np.array(job_name), **self.arrays()
        )


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_build(tracer: Tracer, args, kwargs) -> None:
    tracer.builds += 1


def _probe_subset(tracer: Tracer, args, kwargs) -> None:
    conn = _arg(args, kwargs, 0, "connection")
    tracer.keys["subsets"].add((tracer.current_job, tracer.builds, conn.class_indices))


def _probe_gamma(tracer: Tracer, args, kwargs) -> None:
    gamma = _arg(args, kwargs, 2, "gamma")
    tracer.keys["gammas"].add((tracer.current_job, tracer.builds, gamma.elements))


_PROBES = {
    "group_core.build_group": _count_build,
    "spectra.eigenvalues_via_characters": _probe_subset,
    "galois.galois_conjugacy_classes": _probe_gamma,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer in every package namespace."""
    modules = [
        m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")
    ]
    wrapped: dict[int, tuple[object, object]] = {}
    for modname, layer in LAYERS.items():
        mod = sys.modules[f"{PACKAGE}.{modname}"]
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__
            ):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
            elif isinstance(obj, dict):
                # dispatch tables such as cli._COMMANDS
                for key, value in list(obj.items()):
                    hit = wrapped.get(id(value))
                    if hit is not None and hit[0] is value:
                        obj[key] = hit[1]
    cycint = sys.modules[f"{PACKAGE}.cyclotomic"].CycInt
    for op in CYCINT_OPS:
        setattr(cycint, op, tracer.wrap_aggregate(f"cyclotomic.CycInt.{op}", vars(cycint)[op]))


def self_times(
    parent: np.ndarray, start: np.ndarray, end: np.ndarray, covered: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the part that its child spans and its
    aggregate calls (``covered``) take.

    The traced code is synchronous and single-threaded, so the children of a
    span never overlap and the part they cover is the sum of their durations.
    """
    duration = end - start
    own = duration - covered
    has_parent = parent >= 0
    np.subtract.at(own, parent[has_parent], duration[has_parent])
    return own


def layer_totals(tracer: Tracer, output_bytes: int) -> dict[str, float]:
    """The additive per-layer figures of one traced job."""
    a = tracer.arrays()
    if np.isnan(a["end"]).any():
        raise RuntimeError("a traced span never ended")
    own = self_times(a["parent"], a["start"], a["end"], a["covered"])
    n = len(tracer.names)
    self_by_name = np.bincount(a["name"], weights=own, minlength=n)
    calls_by_name = np.bincount(a["name"], minlength=n)
    self_s = {name: float(self_by_name[i]) for i, name in enumerate(tracer.names)}
    calls = {name: int(calls_by_name[i]) for i, name in enumerate(tracer.names)}
    self_s.update(tracer.seconds)
    calls.update(tracer.counts)

    def fn_s(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    def layer_s(layer: str) -> float:
        return sum(v for name, v in self_s.items() if name.startswith(layer + "."))

    def layer_calls(layer: str) -> int:
        return sum(v for name, v in calls.items() if name.startswith(layer + "."))

    return {
        "group_core.build_s": fn_s("group_core.build_group"),
        "group_core.classes_s": fn_s("group_core.conjugacy_classes"),
        "group_core.power_of_calls": calls.get("group_core.power_of", 0),
        "group_core.self_s": layer_s("group_core"),
        "cyclotomic.self_s": layer_s("cyclotomic"),
        "cyclotomic.arith_s": layer_s("cyclotomic.CycInt"),
        "cyclotomic.mul_calls": calls.get("cyclotomic.CycInt.__mul__", 0)
        + calls.get("cyclotomic.CycInt.__rmul__", 0),
        "cyclotomic.galois_apply_calls": calls.get("cyclotomic.galois_apply", 0),
        "cyclotomic.reduce_raw_calls": calls.get("cyclotomic.reduce_raw", 0),
        "modp.self_s": layer_s("modp"),
        "modp.calls": layer_calls("modp"),
        "characters.class_matrices_s": fn_s("characters.class_matrices"),
        "characters.table_self_s": fn_s("characters.dixon_character_table"),
        "characters.verify_orthogonality_s": fn_s("characters.verify_orthogonality"),
        "characters.galois_identity_s": fn_s("characters.verify_galois_character_identity"),
        "characters.tables_built": calls.get("characters.dixon_character_table", 0),
        "characters.self_s": layer_s("characters"),
        "galois.self_s": layer_s("galois"),
        "galois.merge_calls": calls.get("galois.galois_conjugacy_classes", 0),
        "galois.distinct_gammas": len(tracer.keys["gammas"]),
        "spectra.spectrum_s": fn_s("spectra.eigenvalues_via_characters"),
        "spectra.spectrum_calls": calls.get("spectra.eigenvalues_via_characters", 0),
        "spectra.subsets_decided": len(tracer.keys["subsets"]),
        "spectra.check_self_s": fn_s("spectra.check_integrality", "spectra.check_membership"),
        "spectra.self_s": layer_s("spectra"),
        "oracle.charpoly_s": fn_s("oracle.integer_charpoly"),
        "oracle.exact_verify_s": fn_s("oracle.verify_spectrum_exact"),
        "oracle.float_s": fn_s("oracle.oracle_spectrum", "oracle.compare_spectra"),
        "oracle.naive_s": fn_s("oracle.oracle_power_closed"),
        "oracle.charpoly_calls": calls.get("oracle.integer_charpoly", 0),
        "oracle.self_s": layer_s("oracle"),
        "cli.self_s": layer_s("cli"),
        "cli.output_bytes": output_bytes,
        "trace.spans": len(a["start"]),
    }


def add_ratios(totals: dict[str, float]) -> dict[str, float]:
    """Totals summed over a pass's jobs, plus the wasted-work ratios.

    A ratio is 0 where its layer did not run.
    """

    def ratio(num: str, den: str) -> float:
        return totals[num] / totals[den] if totals[den] else 0.0

    return dict(
        totals,
        **{
            "galois.merges_per_gamma": ratio("galois.merge_calls", "galois.distinct_gammas"),
            "spectra.spectra_per_subset": ratio(
                "spectra.spectrum_calls", "spectra.subsets_decided"
            ),
        },
    )
