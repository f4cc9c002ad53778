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
