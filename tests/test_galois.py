import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_spectra import (
    GroupSpec,
    all_subgroups,
    build_group,
    check_power_closure_consistency,
    conjugacy_classes,
    cyclic_subgroups,
    galois_conjugacy_classes,
    get_context,
    is_fixed_by,
    is_power_closed,
    is_union_of_galois_classes,
    power_closure,
    subgroup_closure,
    unit_group,
)
from cayley_spectra import cyclotomic
from cayley_spectra.galois import _generating_set
from cayley_spectra.oracle import oracle_power_closed

from conftest import nonidentity_subsets


def test_unit_group_values():
    assert unit_group(12).elements == (1, 5, 7, 11)
    assert unit_group(1).elements == (1,)
    assert unit_group(2).elements == (1,)
    assert unit_group(7).elements == (1, 2, 3, 4, 5, 6)


def test_fixed_field_test_applies_one_automorphism_per_generator(monkeypatch):
    gamma = unit_group(420)  # order 96: C2 x C2 x C4 x C6 needs four generators
    assert gamma.generators == _generating_set(gamma)
    assert subgroup_closure(420, gamma.generators).elements == gamma.elements
    calls = []
    real = cyclotomic.galois_apply

    def spy(t, a):
        calls.append(t)
        return real(t, a)

    monkeypatch.setattr(cyclotomic, "galois_apply", spy)
    ctx = get_context(420)
    for value, fixed in ((ctx.from_int(7), True), (ctx.eta, False), (ctx.eta + ctx.eta_power(-1), False)):
        calls.clear()
        assert is_fixed_by(value, gamma) is fixed
        assert 1 <= len(calls) <= 4


def test_subgroup_closure():
    assert subgroup_closure(8, (3, 5)).elements == (1, 3, 5, 7)
    assert subgroup_closure(7, (3,)).elements == (1, 2, 3, 4, 5, 6)
    assert subgroup_closure(5, ()).elements == (1,)
    assert subgroup_closure(12, (13,)).elements == (1,)  # reduced mod 12
    with pytest.raises(ValueError):
        subgroup_closure(12, (4,))


def test_subgroup_lattices_mod_twelve():
    assert [s.elements for s in cyclic_subgroups(12)] == [
        (1,), (1, 5), (1, 7), (1, 11)]
    assert [s.elements for s in all_subgroups(12)] == [
        (1,), (1, 5), (1, 7), (1, 11), (1, 5, 7, 11)]


def test_all_subgroups_mod_eight():
    # the unit group mod 8 is elementary abelian of order 4
    subs = [s.elements for s in all_subgroups(8)]
    assert subs == [(1,), (1, 3), (1, 5), (1, 7), (1, 3, 5, 7)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_all_subgroups_are_closed_and_bounded(m):
    units = unit_group(m)
    seen = set()
    for sub in all_subgroups(m):
        elems = set(sub.elements)
        assert elems <= set(units.elements)
        assert 1 in elems
        for a in elems:
            for b in elems:
                assert (a * b - 1) % m + 1 in elems
        assert len(units.elements) % len(elems) == 0
        gens = _generating_set(sub)
        assert subgroup_closure(m, gens).elements == sub.elements
        assert 2 ** len(gens) <= sub.order
        assert sub.generators == gens
        seen.add(sub.elements)
    assert (1,) in seen
    assert units.elements in seen
    assert len(seen) == len(all_subgroups(m))


def test_galois_classes_cyclic_five():
    g = build_group(GroupSpec.named("cyclic", 5))
    cd = conjugacy_classes(g)
    half = galois_conjugacy_classes(g, cd, subgroup_closure(5, (4,)))
    assert half.classes == ((0,), (1, 4), (2, 3))
    full = galois_conjugacy_classes(g, cd, unit_group(5))
    assert full.classes == ((0,), (1, 2, 3, 4))
    trivial = galois_conjugacy_classes(g, cd, subgroup_closure(5, ()))
    assert trivial.classes == ((0,), (1,), (2,), (3,), (4,))


def test_galois_classes_modulus_mismatch():
    g = build_group(GroupSpec.named("cyclic", 5))
    cd = conjugacy_classes(g)
    with pytest.raises(ValueError):
        galois_conjugacy_classes(g, cd, unit_group(7))


def test_galois_classes_of_rational_group_are_singletons():
    # every character of the symmetric group is rational, so full-unit-group
    # merging must not join any classes
    g = build_group(GroupSpec.named("symmetric", 4))
    cd = conjugacy_classes(g)
    merged = galois_conjugacy_classes(g, cd, unit_group(g.exponent))
    assert merged.merged_class_of == tuple(range(cd.k))
    assert merged.classes == cd.classes


def test_power_closure_examples():
    g6 = build_group(GroupSpec.named("cyclic", 6))
    assert not is_power_closed({1}, g6)
    assert sorted(power_closure({1}, g6)) == [1, 5]
    g12 = build_group(GroupSpec.named("cyclic", 12))
    assert sorted(power_closure({2}, g12)) == [2, 10]
    assert is_power_closed(power_closure({2}, g12), g12)
    assert is_power_closed(set(), g6)
    assert is_power_closed({0}, g6)


def test_power_closure_is_idempotent_and_minimal():
    g = build_group(GroupSpec.named("dihedral", 6))
    for x in range(g.n):
        closed = power_closure({x}, g)
        assert x in closed
        assert is_power_closed(closed, g)
        assert set(power_closure(closed, g)) == set(closed)
        # dropping any element other than x breaks closure or removes x's orbit
        for y in closed:
            if y != x:
                assert not is_power_closed(set(closed) - {y}, g)


def test_union_of_galois_classes():
    g = build_group(GroupSpec.named("cyclic", 5))
    cd = conjugacy_classes(g)
    merged = galois_conjugacy_classes(g, cd, subgroup_closure(5, (4,)))
    ok, bad = is_union_of_galois_classes([1, 4], cd, merged)
    assert ok and bad is None
    ok, bad = is_union_of_galois_classes([1], cd, merged)
    assert not ok and bad == 4
    ok, bad = is_union_of_galois_classes([], cd, merged)
    assert ok


def test_consistency_of_the_two_power_closure_routes(corpus):
    for text, (group, cd, _) in corpus.items():
        if cd.k > 9:
            continue
        for subset in nonidentity_subsets(cd):
            assert check_power_closure_consistency(group, cd, subset), (text, subset)


def test_power_closure_matches_naive_oracle(corpus):
    for text, (group, cd, _) in corpus.items():
        if cd.k > 9 or group.n > 60:
            continue
        for subset in nonidentity_subsets(cd):
            elements = [x for j in subset for x in cd.classes[j]]
            assert is_power_closed(elements, group) == oracle_power_closed(
                elements, group
            ), (text, subset)


def test_gamma_symmetry_of_merged_classes(corpus):
    # merging with gamma then asking membership of x^t for t in gamma lands in
    # the same merged class
    for text, (group, cd, _) in corpus.items():
        if group.n > 24:
            continue
        m = group.exponent
        for gamma in all_subgroups(m) if len(unit_group(m).elements) <= 16 else [unit_group(m)]:
            merged = galois_conjugacy_classes(group, cd, gamma)
            for j in range(cd.k):
                for t in gamma.elements:
                    image = cd.power_class[j, t % m]
                    assert merged.merged_class_of[image] == merged.merged_class_of[j]


def _merged_by_union_find(group, cd, gamma):
    """Reference: union-find merges j with the class of rep_j^t for every t in gamma."""
    k, m = cd.k, gamma.m
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j in range(k):
        for t in gamma.elements:
            ra, rb = find(j), find(int(cd.power_class[j, t % m]))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    buckets = {}
    for j in range(k):
        buckets.setdefault(find(j), []).append(j)
    groups = sorted(buckets.values(), key=lambda js: min(cd.representatives[j] for j in js))
    merged_class_of = [0] * k
    classes = []
    for gi, js in enumerate(groups):
        for j in js:
            merged_class_of[j] = gi
        classes.append(tuple(sorted(x for j in js for x in cd.classes[j])))
    class_of = np.empty(group.n, dtype=np.int32)
    for gi, members in enumerate(classes):
        class_of[list(members)] = gi
    return tuple(classes), class_of, tuple(merged_class_of)


def test_power_map_orbits_match_union_find(corpus):
    groups = [(group, cd) for group, cd, _ in corpus.values()]
    for text in ("symmetric(5)", "symmetric(6)", "alternating(7)", "dihedral(22)",
                 "product(cyclic(6),cyclic(6))", "cyclic(40)"):
        group = build_group(GroupSpec.from_json(text))
        groups.append((group, conjugacy_classes(group)))
    pairs = 0
    for group, cd in groups:
        m = group.exponent
        # every subgroup up to exponent 60; past it (A7's 420, whose 236 subgroups take seconds
        # to enumerate) the cyclic ones and the whole group
        for gamma in all_subgroups(m) if m <= 60 else cyclic_subgroups(m) + [unit_group(m)]:
            merged = galois_conjugacy_classes(group, cd, gamma)
            classes, class_of, merged_class_of = _merged_by_union_find(group, cd, gamma)
            assert merged.gamma is gamma
            assert merged.classes == classes, (group.n, gamma.elements)
            assert merged.class_of.dtype == class_of.dtype
            assert np.array_equal(merged.class_of, class_of), (group.n, gamma.elements)
            assert merged.merged_class_of == merged_class_of, (group.n, gamma.elements)
            assert all(type(x) is int for x in merged.merged_class_of + merged.classes[-1])
            pairs += 1
    assert pairs == 221
