"""Unit groups mod m, their subgroups, and Galois conjugacy of group elements.

A subgroup of (Z/mZ)* acts on a finite group of exponent m through the power
maps x -> x^t.  Two elements are Galois-conjugate when one is conjugate to a
power of the other with the exponent drawn from the subgroup; the resulting
partition coarsens the ordinary conjugacy classes and is computed here by
union-find over class indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .group_core import ClassData, Group, power_of

__all__ = [
    "GaloisConjugacyClasses",
    "GaloisSubgroup",
    "all_subgroups",
    "check_power_closure_consistency",
    "cyclic_subgroups",
    "galois_conjugacy_classes",
    "is_power_closed",
    "is_union_of_galois_classes",
    "power_closure",
    "subgroup_closure",
    "unit_group",
]


def _canon(t: int, m: int) -> int:
    """Residue of t in 1..m (so the trivial modulus m=1 is represented by 1)."""
    return (t - 1) % m + 1


@dataclass(frozen=True)
class GaloisSubgroup:
    """A subgroup of the unit group (Z/mZ)*, elements sorted ascending."""

    m: int
    generators: tuple[int, ...]
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, t: int) -> bool:
        return _canon(t, self.m) in set(self.elements)


def unit_group(m: int) -> GaloisSubgroup:
    """The full unit group mod m; for m = 1 the trivial group {1}."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    elements = tuple(t for t in range(1, m + 1) if gcd(t, m) == 1)
    return GaloisSubgroup(m=m, generators=_greedy_generators(m, elements), elements=elements)


def subgroup_closure(m: int, generators: Iterable[int]) -> GaloisSubgroup:
    """Close a generator list under multiplication mod m."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    gens = []
    for g in generators:
        c = _canon(g, m)
        if gcd(c, m) != 1:
            raise ValueError(f"generator {g} not coprime to modulus {m}")
        gens.append(c)
    seen = {1}
    queue = [1]
    while queue:
        x = queue.pop()
        for g in gens:
            y = _canon(x * g, m)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return GaloisSubgroup(m=m, generators=tuple(gens), elements=tuple(sorted(seen)))


def _closure_of_set(m: int, elems: frozenset[int]) -> frozenset[int]:
    seen = set(elems) | {1}
    queue = list(seen)
    while queue:
        x = queue.pop()
        for g in elems:
            y = _canon(x * g, m)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def _generating_set(gamma: GaloisSubgroup) -> tuple[int, ...]:
    """Generators of gamma, taken greedily in ascending order.

    Each one at least doubles the subgroup generated so far, so there are
    at most log2 |gamma| of them; the trivial group has none.
    """
    return _greedy_generators(gamma.m, gamma.elements)


def _greedy_generators(m: int, elements: Sequence[int]) -> tuple[int, ...]:
    """_generating_set of the subgroup with these sorted elements."""
    gens: list[int] = []
    span = frozenset({1})
    for t in elements:
        if t not in span:
            gens.append(t)
            span = _closure_of_set(m, frozenset(gens))
    return tuple(gens)


def cyclic_subgroups(m: int) -> list[GaloisSubgroup]:
    """The distinct subgroups <t> for units t mod m, sorted by (order, elements)."""
    out: dict[tuple[int, ...], GaloisSubgroup] = {}
    for t in unit_group(m).elements:
        sub = subgroup_closure(m, [t])
        out.setdefault(sub.elements, sub)
    return sorted(out.values(), key=lambda s: (s.order, s.elements))


def all_subgroups(m: int) -> list[GaloisSubgroup]:
    """Every subgroup of (Z/mZ)*, enumerated by closing generator sets."""
    units = unit_group(m).elements
    found: dict[frozenset[int], frozenset[int]] = {}
    trivial = frozenset({1})
    frontier = [trivial]
    found[trivial] = trivial
    while frontier:
        nxt = []
        for sub in frontier:
            for u in units:
                if u in sub:
                    continue
                closed = _closure_of_set(m, sub | {u})
                if closed not in found:
                    found[closed] = closed
                    nxt.append(closed)
        frontier = nxt
    subs = []
    for elems in found:
        ordered = tuple(sorted(elems))
        subs.append(GaloisSubgroup(m=m, generators=_greedy_generators(m, ordered), elements=ordered))
    return sorted(subs, key=lambda s: (s.order, s.elements))


# ---------------------------------------------------------------------------
# Galois conjugacy of group elements


@dataclass(eq=False)
class GaloisConjugacyClasses:
    """Join of the conjugacy partition under the power action of a unit subgroup."""

    gamma: GaloisSubgroup
    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray
    merged_class_of: tuple[int, ...]  # conjugacy-class index -> merged-class index


def galois_conjugacy_classes(
    group: Group, cd: ClassData, gamma: GaloisSubgroup
) -> GaloisConjugacyClasses:
    """Merge conjugacy classes j and (class of rep_j^t) for every t in gamma."""
    if gamma.m != group.exponent:
        raise ValueError(
            f"subgroup modulus {gamma.m} does not match group exponent {group.exponent}"
        )
    k = cd.k
    m = gamma.m
    parent = list(range(k))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j in range(k):
        for t in gamma.elements:
            ra, rb = find(j), find(int(cd.power_class[j, t % m]))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    buckets: dict[int, list[int]] = {}
    for j in range(k):
        buckets.setdefault(find(j), []).append(j)
    groups = sorted(buckets.values(), key=lambda js: min(cd.representatives[j] for j in js))
    merged_class_of = [0] * k
    classes = []
    for gi, js in enumerate(groups):
        members: list[int] = []
        for j in js:
            merged_class_of[j] = gi
            members.extend(cd.classes[j])
        classes.append(tuple(sorted(members)))
    class_of = np.empty(group.n, dtype=np.int32)
    for gi, members in enumerate(classes):
        for x in members:
            class_of[x] = gi
    return GaloisConjugacyClasses(
        gamma=gamma,
        classes=tuple(classes),
        class_of=class_of,
        merged_class_of=tuple(merged_class_of),
    )


# ---------------------------------------------------------------------------
# power closure


def is_power_closed(elements: Iterable[int], group: Group) -> bool:
    """Whether the set contains x^t for every member x and t coprime to |x|."""
    return _power_closure_witness(elements, group) is None


def _power_closure_witness(
    elements: Iterable[int], group: Group
) -> Optional[tuple[int, int]]:
    """First (x, t) with x in the set, gcd(t,|x|)=1 but x^t outside; None if closed."""
    elems = set(int(x) for x in elements)
    for x in sorted(elems):
        for t, y in _unit_powers(x, group):
            if y not in elems:
                return (x, t)
    return None


def _unit_powers(x: int, group: Group) -> Iterator[tuple[int, int]]:
    """(t, x^t) for every t in 1..|x| coprime to |x|, in ascending t."""
    o = int(group.orders[x])
    for t in range(1, o + 1):
        if gcd(t, o) == 1:
            yield t, power_of(x, t, group)


def power_closure(elements: Iterable[int], group: Group) -> tuple[int, ...]:
    """Smallest power-closed superset of the given element set."""
    out = set(int(x) for x in elements)
    for x in sorted(out.copy()):
        out.update(y for _, y in _unit_powers(x, group))
    return tuple(sorted(out))


def is_union_of_galois_classes(
    class_indices: Sequence[int], cd: ClassData, merged: GaloisConjugacyClasses
) -> tuple[bool, Optional[int]]:
    """Test class-index subset closure under merging; returns (ok, offending class)."""
    chosen = set(int(j) for j in class_indices)
    touched = {merged.merged_class_of[j] for j in chosen}
    for j in range(cd.k):
        if merged.merged_class_of[j] in touched and j not in chosen:
            return False, j
    return True, None


def check_power_closure_consistency(
    group: Group, cd: ClassData, class_indices: Sequence[int]
) -> bool:
    """Compare the gcd-power test with the full unit-group orbit test.

    The two characterizations of power closure are computed independently
    (element-level exponent loops vs class-level orbit merging) and the
    return value says whether they agree.
    """
    elements = [x for j in class_indices for x in cd.classes[j]]
    direct = is_power_closed(elements, group)
    merged = galois_conjugacy_classes(group, cd, unit_group(group.exponent))
    via_classes, _ = is_union_of_galois_classes(class_indices, cd, merged)
    return direct == via_classes
