import itertools

import numpy as np
import pytest

from cayley_spectra import (
    GroupSpec,
    build_group,
    conjugacy_classes,
    element_order,
    exponent,
    parse_permutation,
    power_of,
)
from cayley_spectra import group_core
from conftest import CORPUS


# independent oracle: conjugacy classes of a permutation group computed from
# raw tuples, no multiplication table involved


def _compose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def _invert(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def _oracle_classes(perms):
    left = set(perms)
    sizes = []
    while left:
        g = left.pop()
        orbit = {_compose(_compose(_invert(y), g), y) for y in perms}
        left -= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


def test_symmetric_four_class_sizes_match_oracle():
    perms = list(itertools.permutations(range(4)))
    assert _oracle_classes(perms) == [1, 3, 6, 6, 8]
    g = build_group(GroupSpec.named("symmetric", 4))
    cd = conjugacy_classes(g)
    assert sorted(cd.sizes) == [1, 3, 6, 6, 8]


def test_alternating_five_class_sizes_match_oracle():
    def is_even(p):
        inv = sum(
            1
            for i in range(len(p))
            for j in range(i + 1, len(p))
            if p[i] > p[j]
        )
        return inv % 2 == 0

    perms = [p for p in itertools.permutations(range(5)) if is_even(p)]
    assert _oracle_classes(perms) == [1, 12, 12, 15, 20]
    g = build_group(GroupSpec.named("alternating", 5))
    cd = conjugacy_classes(g)
    assert g.n == 60
    assert sorted(cd.sizes) == [1, 12, 12, 15, 20]


def test_permutation_generators_close_to_symmetric_three():
    g = build_group(GroupSpec.permutation(["(1 2)", "(1 2 3)"]))
    assert g.n == 6
    assert g.exponent == 6
    assert sorted(g.orders.tolist()) == [1, 2, 2, 2, 3, 3]


def test_group_axioms_hold_on_small_tables():
    for text in ["cyclic(7)", "dihedral(4)", "quaternion(8)", "symmetric(4)",
                 "product(cyclic(2),cyclic(4))"]:
        g = build_group(GroupSpec.from_json(text))
        n, mul, inv, e = g.n, g.mul, g.inv, g.identity
        idx = np.arange(n)
        assert np.array_equal(mul[e, idx], idx)
        assert np.array_equal(mul[idx, e], idx)
        assert np.array_equal(mul[idx, inv[idx]], np.full(n, e))
        # full associativity check
        ab_c = mul[mul[:, :, None], idx[None, None, :]]
        a_bc = mul[idx[:, None, None], mul[None, :, :]]
        assert np.array_equal(ab_c, a_bc)
        # latin square
        for row in mul:
            assert len(set(row.tolist())) == n


def test_cyclic_family():
    g = build_group(GroupSpec.named("cyclic", 6))
    assert g.n == 6
    assert g.exponent == 6
    assert element_order(1, g) == 6
    assert power_of(1, 4, g) == 4
    cd = conjugacy_classes(g)
    assert cd.k == 6
    assert all(s == 1 for s in cd.sizes)


def test_trivial_group():
    g = build_group(GroupSpec.named("cyclic", 1))
    assert g.n == 1
    assert g.exponent == 1
    assert conjugacy_classes(g).k == 1


def test_quaternion_orders():
    g = build_group(GroupSpec.named("quaternion", 8))
    assert sorted(g.orders.tolist()) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert g.exponent == 4
    cd = conjugacy_classes(g)
    assert sorted(cd.sizes) == [1, 1, 2, 2, 2]


def test_generalized_quaternion_sixteen():
    g = build_group(GroupSpec.named("generalized-quaternion", 16))
    assert g.n == 16
    # cyclic part contributes 4 elements of order 8; all 8 outside elements
    # square to the central involution, hence have order 4
    assert sorted(g.orders.tolist()) == [1, 2] + [4] * 10 + [8] * 4
    cd = conjugacy_classes(g)
    assert cd.k == 7
    # exactly one central involution
    assert sum(1 for s, r in zip(cd.sizes, cd.representatives)
               if s == 1 and int(g.orders[r]) == 2) == 1


def test_dihedral_families():
    for n, classes in [(2, 4), (3, 3), (4, 5), (5, 4), (6, 6), (7, 5), (8, 7)]:
        g = build_group(GroupSpec.named("dihedral", n))
        assert g.n == 2 * n
        assert conjugacy_classes(g).k == classes


def test_elementary_abelian():
    g = build_group(GroupSpec.named("elementary-abelian", 3, 2))
    assert g.n == 9
    assert g.exponent == 3
    assert sorted(g.orders.tolist()) == [1] + [3] * 8
    with pytest.raises(ValueError):
        build_group(GroupSpec.named("elementary-abelian", 4, 2))


def test_direct_product_structure():
    spec = GroupSpec.product(GroupSpec.named("cyclic", 2), GroupSpec.named("cyclic", 4))
    g = build_group(spec)
    assert g.n == 8
    assert g.exponent == 4
    assert sorted(g.orders.tolist()) == [1, 2, 2, 2, 4, 4, 4, 4]
    s3z2 = build_group(GroupSpec.from_json("product(symmetric(3),cyclic(2))"))
    assert s3z2.n == 12
    assert exponent(s3z2) == 6


def test_build_is_deterministic():
    a = build_group(GroupSpec.from_json("dihedral(6)"))
    b = build_group(GroupSpec.from_json("dihedral(6)"))
    assert np.array_equal(a.mul, b.mul)
    assert a.labels == b.labels


def test_group_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        build_group(GroupSpec.named("symmetric", 7), cap=1000)


def test_parse_permutation():
    assert parse_permutation("(1 2 3)") == (1, 2, 0)
    assert parse_permutation("(1 2)(3 4)") == (1, 0, 3, 2)
    assert parse_permutation("(1,2) (3,4)") == (1, 0, 3, 2)
    assert parse_permutation("()") == ()
    assert parse_permutation("(2 3)", domain=4) == (0, 2, 1, 3)
    with pytest.raises(ValueError):
        parse_permutation("(1 2 1)")
    with pytest.raises(ValueError):
        parse_permutation("(0 1)")
    with pytest.raises(ValueError):
        parse_permutation("1 2 3")


def test_spec_parsing_round_trip():
    for text in ["cyclic(9)", "dihedral(5)", "perm[(1 2),(1 2 3)]",
                 "product(symmetric(3),cyclic(2))", "elementary-abelian(3,2)"]:
        spec = GroupSpec.from_json(text)
        again = GroupSpec.from_json(spec.describe())
        assert build_group(spec).n == build_group(again).n


def test_spec_parsing_errors():
    with pytest.raises(ValueError):
        GroupSpec.from_json("widget(4)")
    with pytest.raises(ValueError):
        GroupSpec.from_json("cyclic(4")
    with pytest.raises(ValueError):
        GroupSpec.from_json(42)
    with pytest.raises(ValueError):
        build_group(GroupSpec.named("symmetric", 9))


def test_classes_identity_first_and_reps_minimal():
    for text in ["symmetric(4)", "dihedral(6)", "quaternion(8)"]:
        g = build_group(GroupSpec.from_json(text))
        cd = conjugacy_classes(g)
        assert cd.classes[0] == (g.identity,)
        for j, cls in enumerate(cd.classes):
            assert cd.representatives[j] == min(cls)
            assert cd.sizes[j] == len(cls)
            for x in cls:
                assert cd.class_of[x] == j
        assert sum(cd.sizes) == g.n


def test_inverse_and_power_class_tables():
    g = build_group(GroupSpec.named("symmetric", 4))
    cd = conjugacy_classes(g)
    for j, rep in enumerate(cd.representatives):
        assert cd.inverse_class[j] == cd.class_of[g.inv[rep]]
        for t in range(g.exponent):
            assert cd.power_class[j, t] == cd.class_of[power_of(rep, t, g)]


def test_power_of_agrees_with_iterated_multiplication():
    g = build_group(GroupSpec.named("dihedral", 7))
    for x in range(g.n):
        acc = g.identity
        for t in range(15):
            assert power_of(x, t, g) == acc
            acc = int(g.mul[acc, x])


# ---------------------------------------------------------------------------
# the row-wise multiplication table fill against the column fill it replaced


def _bfs_table_by_columns(identity, gens, mul_fn, label_fn, description, cap):
    """Breadth-first closure with the table filled one column at a time.

    Column b is column pb permuted by right multiplication with the generator
    that discovered b.  Permutations are composed by the reference _compose.
    """
    if mul_fn is group_core._compose:
        mul_fn = _compose
    elems = [identity]
    index = {identity: 0}
    parents = [(-1, -1)]
    qi = 0
    while qi < len(elems):
        for gi, g in enumerate(gens):
            y = mul_fn(elems[qi], g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
                parents.append((qi, gi))
        qi += 1
    n = len(elems)
    rgen = [np.array([index[mul_fn(x, g)] for x in elems], dtype=np.int32) for g in gens]
    mul = np.empty((n, n), dtype=np.int32)
    mul[:, 0] = np.arange(n, dtype=np.int32)
    for b in range(1, n):
        pb, gi = parents[b]
        mul[:, b] = rgen[gi][mul[:, pb]]
    return group_core.Group(mul, description, tuple(label_fn(x) for x in elems))


@pytest.mark.parametrize(
    "text", CORPUS + ["symmetric(7)", "alternating(7)", "perm[(1 2 3 4 5 6),(1 2)(3 4)]"]
)
def test_row_fill_matches_column_fill(text, monkeypatch):
    spec = GroupSpec.from_json(text)
    rows = build_group(spec)
    monkeypatch.setattr(group_core, "_bfs_table", _bfs_table_by_columns)
    columns = build_group(spec)
    assert rows.mul.dtype == columns.mul.dtype == np.int32
    assert rows.mul.flags.c_contiguous
    assert np.array_equal(rows.mul, columns.mul)
    assert rows.labels == columns.labels
    assert rows.description == columns.description == spec.describe()


def test_product_descriptions_name_every_factor():
    for text in (
        "product(cyclic(2),cyclic(3))",
        "product(cyclic(2),symmetric(3),cyclic(2))",
        "product(cyclic(2),product(cyclic(3),cyclic(2)),perm[(1 2)])",
    ):
        assert build_group(GroupSpec.from_json(text)).description == text
