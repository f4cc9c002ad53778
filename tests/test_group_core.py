import itertools
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from cayley_spectra import (
    GroupSpec,
    build_group,
    conjugacy_classes,
    dixon_character_table,
    element_order,
    exponent,
    parse_permutation,
    power_of,
)
from cayley_spectra import group_core
from conftest import CORPUS, LADDER, multiplication_table


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
        n, mul, inv, e = g.n, multiplication_table(g), g.inv, g.identity
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
    for spec in (GroupSpec.permutation([]), GroupSpec.from_json("perm[(),()]")):
        g = build_group(spec)
        assert (g.n, g.labels, conjugacy_classes(g).k) == (1, ("()",), 1)


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
    assert np.array_equal(multiplication_table(a), multiplication_table(b))
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
    mul = multiplication_table(g)
    for x in range(g.n):
        acc = g.identity
        for t in range(15):
            assert power_of(x, t, g) == acc
            acc = int(mul[acc, x])


# ---------------------------------------------------------------------------
# the table-free group against the multiplication table it replaced
#
# The reference is the table builder the package used before: scalar
# element tuples closed breadth-first, the n x n table filled row by row,
# direct products folded into one table, and orders and inverses read from
# the table.  The column fill is a second, independent way to the same table.


def _reference_pieces(spec):
    """identity, generators, scalar multiplication and label of a non-product spec."""
    if spec.kind == "permutation-generators":
        domain = max((len(parse_permutation(g)) for g in spec.generators), default=0)
        gens = [parse_permutation(g, domain) for g in spec.generators]
        return tuple(range(domain)), gens, _compose, _perm_label
    family, params = spec.family, spec.params
    if family == "cyclic":
        (n,) = params
        return 0, [1 % n], lambda a, b: (a + b) % n, str
    if family == "dihedral":
        (n,) = params

        def dmul(x, y):
            (i, j), (k, l) = x, y
            return ((i + k) % n if j == 0 else (i - k) % n, j ^ l)

        return (0, 0), [(1 % n, 0), (0, 1)], dmul, lambda x: f"r{x[0]}" + (" s" if x[1] else "")
    if family in ("quaternion", "generalized-quaternion"):
        (order,) = params
        half, quarter = order // 2, order // 4

        def qmul(x, y):
            (i, j), (k, l) = x, y
            i2 = i + k if j == 0 else i - k
            if j and l:
                i2 += quarter
            return (i2 % half, j ^ l)

        return (0, 0), [(1, 0), (0, 1)], qmul, lambda x: f"a{x[0]}" + (" b" if x[1] else "")
    if family in ("symmetric", "alternating"):
        (n,) = params
        cycle = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
        if family == "symmetric":
            texts = ["(1 2)", cycle][: max(0, min(n - 1, 2))]
        else:
            pts = range(1, n + 1) if n % 2 == 1 else range(2, n + 1)
            texts = ["(1 2 3)", "(" + " ".join(str(i) for i in pts) + ")"][: max(0, min(n - 2, 2))]
        return tuple(range(n)), [parse_permutation(t, n) for t in texts], _compose, _perm_label
    assert family == "elementary-abelian"
    p, k = params
    gens = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    return (
        (0,) * k,
        gens,
        lambda a, b: tuple((x + y) % p for x, y in zip(a, b)),
        lambda x: "(" + ",".join(str(c) for c in x) + ")",
    )


def _perm_label(images):
    seen, out = set(), []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cyc, nxt = [start], images[start]
        seen.add(start)
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = images[nxt]
        out.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(out) if out else "()"


def _closure(identity, gens, mul_fn):
    """Elements in breadth-first order, their index, and (parent, generator) of each."""
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
    return elems, index, parents


def _fill_by_rows(identity, gens, mul_fn):
    """Row a is row pa read at lgen[gi], where elems[a] = elems[pa] * g and lgen[gi][c] = g * c."""
    elems, index, parents = _closure(identity, gens, mul_fn)
    n = len(elems)
    lgen = [np.array([index[mul_fn(g, x)] for x in elems], dtype=np.int32) for g in gens]
    mul = np.empty((n, n), dtype=np.int32)
    mul[0] = np.arange(n, dtype=np.int32)
    for a in range(1, n):
        pa, gi = parents[a]
        np.take(mul[pa], lgen[gi], out=mul[a])
    return mul, elems


def _fill_by_columns(identity, gens, mul_fn):
    """Column b is column pb permuted by right multiplication with the generator that found b."""
    elems, index, parents = _closure(identity, gens, mul_fn)
    n = len(elems)
    rgen = [np.array([index[mul_fn(x, g)] for x in elems], dtype=np.int32) for g in gens]
    mul = np.empty((n, n), dtype=np.int32)
    mul[:, 0] = np.arange(n, dtype=np.int32)
    for b in range(1, n):
        pb, gi = parents[b]
        mul[:, b] = rgen[gi][mul[:, pb]]
    return mul, elems


def _reference_table(spec, fill=_fill_by_rows):
    """The multiplication table and labels of spec; a direct product is folded factor by factor."""
    if spec.kind != "direct-product":
        identity, gens, mul_fn, label_fn = _reference_pieces(spec)
        mul, elems = fill(identity, gens, mul_fn)
        return mul, tuple(label_fn(x) for x in elems)
    mul, labels = _reference_table(spec.factors[0], fill)
    for factor in spec.factors[1:]:
        b_mul, b_labels = _reference_table(factor, fill)
        n = len(labels) * len(b_labels)
        mul = (mul[:, None, :, None].astype(np.int32) * len(b_labels) + b_mul[None, :, None, :]).reshape(n, n)
        labels = tuple(f"({la},{lb})" for la in labels for lb in b_labels)
    return mul, labels


def _reference_orders_and_inverses(mul):
    n = mul.shape[0]
    gens = np.arange(n)
    prev, cur = np.zeros(n, dtype=mul.dtype), gens.astype(mul.dtype)
    orders, inv = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int32)
    k = 1
    while (orders == 0).any():
        fresh = (cur == 0) & (orders == 0)
        orders[fresh] = k
        inv[fresh] = prev[fresh]
        prev, cur = cur, mul[cur, gens]
        k += 1
    return orders, inv


REFERENCE_GROUPS = list(
    dict.fromkeys(
        CORPUS
        + list(LADDER)
        + [
            "symmetric(6)",
            "alternating(7)",
            "perm[(1 2 3 4 5 6),(1 2)(3 4)]",
            # 8 points, and 300 points in uint16 rows: keys past the dense
            # lookup, found as bytes in the sorted keys
            "perm[(1 2 3 4 5 6 7 8),(1 8)(2 7)(3 6)(4 5)]",
            "perm[(1 2 3)(4 5),(1 300)]",
            "product(cyclic(2),product(symmetric(3),cyclic(3)),quaternion(8))",
        ]
    )
)


@pytest.mark.parametrize("text", REFERENCE_GROUPS)
def test_row_fill_matches_column_fill(text):
    """The products of every pair of elements equal the column-filled reference table."""
    spec = GroupSpec.from_json(text)
    group = build_group(spec)
    assert np.array_equal(multiplication_table(group), _reference_table(spec, _fill_by_columns)[0])


@pytest.mark.parametrize("text", REFERENCE_GROUPS)
def test_table_free_group_matches_reference_table(text):
    """Products, labels, orders and inverses equal those of the row-filled reference table."""
    spec = GroupSpec.from_json(text)
    group = build_group(spec)
    mul, labels = _reference_table(spec)
    n = group.n
    rng = np.random.default_rng(n)
    a, b = rng.integers(0, n, (5, 1, 40)), rng.integers(0, n, (3, 40))
    assert np.array_equal(group.product(a, b), mul[a, b])
    assert np.array_equal(group.product(a[0, 0, 0], b), mul[a[0, 0, 0], b])
    assert group.labels == labels
    assert [group.label(x) for x in b[0]] == [labels[x] for x in b[0]]
    orders, inv = _reference_orders_and_inverses(mul)
    assert group.orders.dtype == np.int64 and group.inv.dtype == np.int32
    assert np.array_equal(group.orders, orders)
    assert np.array_equal(group.inv, inv)
    assert group.description == spec.describe()


def _orders_and_inverses_by_steps(group):
    """One product per power, x^k = x^(k-1) * x, until every element has met the identity."""
    orders, inv = np.zeros(group.n, dtype=np.int64), np.zeros(group.n, dtype=np.int32)
    todo, prev, cur, k = np.arange(group.n), np.zeros(group.n, dtype=np.intp), np.arange(group.n), 1
    while todo.size:
        done = cur == 0
        orders[todo[done]], inv[todo[done]] = k, prev[done]
        todo, prev = todo[~done], cur[~done]
        cur, k = group.product(prev, todo), k + 1
    return orders, inv


@pytest.mark.parametrize(
    "text, blocks",
    [
        # 2,228 rotations have order above b = 71: 5 blocks of 455 baby walks
        ("dihedral(2520)", 5),
        # S5 x C7 on 12 points: orders up to 42, past b = ceil(sqrt(840)) = 29
        ("perm[(1 2 3 4 5),(1 2),(6 7 8 9 10 11 12)]", 1),
        ("cyclic(997)", 2),
    ],
)
def test_orders_by_giant_steps_equal_the_per_step_walk(text, blocks, monkeypatch):
    group = build_group(GroupSpec.from_json(text))
    assert group.n * (group.n + 1) > group_core._WALK_TABLE  # built by _orders_and_inverses
    b = isqrt(group.n - 1) + 1
    baby_walks = []
    real_powers = group_core.Group.powers

    def powers(self, x, length):
        baby_walks.append(length)
        return real_powers(self, x, length)

    monkeypatch.setattr(group_core.Group, "powers", powers)
    orders, inv = group_core._orders_and_inverses(group)
    assert baby_walks == [b + 1] * blocks
    ref_orders, ref_inv = _orders_and_inverses_by_steps(group)
    assert orders.dtype == np.int64 and inv.dtype == np.int32
    assert np.array_equal(orders, ref_orders)
    assert np.array_equal(inv, ref_inv)
    assert np.array_equal(group.orders, orders) and np.array_equal(group.inv, inv)
    assert int(orders.max()) > b  # some elements took giant steps


def test_blocked_products_match_single_products(monkeypatch):
    group = build_group(GroupSpec.from_json("alternating(5)"))
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, 60, (9, 1)), rng.integers(0, 60, (1, 11))
    whole = group.product(a, b)
    monkeypatch.setattr(group_core, "_PRODUCT_BLOCK", 4)
    assert np.array_equal(group.product(a, b), whole)
    assert np.array_equal(group.product(a[:, 0], b[0, :9]), multiplication_table(group)[a[:, 0], b[0, :9]])


@pytest.mark.parametrize("kept", [True, False])
@pytest.mark.parametrize("text", ["cyclic(12)", "dihedral(7)", "alternating(5)", "product(symmetric(3),cyclic(4))"])
def test_power_walks_are_iterated_products(text, kept, monkeypatch):
    if not kept:
        monkeypatch.setattr(group_core, "_WALK_TABLE", 0)
    group = build_group(GroupSpec.from_json(text))
    idx = np.arange(group.n)
    mul = multiplication_table(group)
    iterated = [np.zeros(group.n, dtype=np.int64)]
    for _ in range(group.exponent + 2):
        iterated.append(mul[iterated[-1], idx])
    iterated = np.stack(iterated, axis=1)
    for length in range(group.exponent + 3):
        assert np.array_equal(group.powers(idx, length), iterated[:, :length])
    monkeypatch.setattr(group_core, "_PRODUCT_BLOCK", 16)  # several batches of walks
    walks = list(group.walks(idx[::-1]))
    assert len(walks) == group.n
    for x, walk in zip(idx[::-1], walks):
        assert walk.tolist() == iterated[x, : group.orders[x]].tolist()
    assert list(group.walks([])) == []
    assert (group._walk_table is not None) == kept


def test_product_descriptions_name_every_factor():
    for text in (
        "product(cyclic(2),cyclic(3))",
        "product(cyclic(2),symmetric(3),cyclic(2))",
        "product(cyclic(2),product(cyclic(3),cyclic(2)),perm[(1 2)])",
    ):
        assert build_group(GroupSpec.from_json(text)).description == text


def test_symmetric_seven_table_builds_without_an_n_by_n_array():
    """S7's multiplication table alone would be 5040^2 int32 entries, 97 MiB."""
    tracemalloc.start()
    try:
        group = build_group(GroupSpec.named("symmetric", 7))
        cd = conjugacy_classes(group)
        table = dixon_character_table(group, cd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (group.n, cd.k, table.degrees[-1]) == (5040, 15, 35)
    assert peak < 16 << 20, peak


def test_power_class_is_built_on_first_access():
    group = build_group(GroupSpec.named("dihedral", 5))
    cd = conjugacy_classes(group)
    assert "power_class" not in vars(cd)
    assert cd.power_class.shape == (cd.k, group.exponent) and cd.power_class.dtype == np.int32
    assert cd.power_class is cd.power_class
