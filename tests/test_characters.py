import dataclasses
import itertools
import sys
import tracemalloc
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_spectra import (
    TABLE_BYTE_BUDGET,
    CycInt,
    GroupSpec,
    ResourceLimitError,
    all_subgroups,
    as_rational,
    build_group,
    character_multiplicities,
    check_table_size,
    class_matrices,
    conjugacy_classes,
    conjugate,
    dixon_character_table,
    galois_apply,
    get_context,
    induced_character_from_cyclic,
    subgroup_closure,
    table_coefficients,
    totient,
    unit_group,
    verify_galois_character_identity,
    verify_orthogonality,
)
from cayley_spectra import _modp, characters, cli
from cayley_spectra.cli import run
from cayley_spectra.cyclotomic import _galois_matrix, _power_basis
from cayley_spectra.errors import InternalConsistencyError
from conftest import CORPUS, LADDER, multiplication_table


def _class_matrix_by_triple_loop(group, cd, i):
    """[j, l] counts the pairs (a, b) in C_i x C_j with a b = g_l: a loop over j, with a and b as array axes.

    Each product is looked up as the index l of the representative it
    equals (k for none), and the indices are counted.
    """
    k = cd.k
    rep_index = np.full(group.n, k)
    rep_index[list(cd.representatives)] = np.arange(k)
    out = np.empty((k, k), dtype=np.int64)
    for j in range(k):
        products = group.product(np.array(cd.classes[i])[:, None], np.array(cd.classes[j]))  # [a, b] = a b
        out[j] = np.bincount(rep_index[products].ravel(), minlength=k + 1)[:k]
    return out


def test_class_matrices_against_triple_loop():
    g = build_group(GroupSpec.permutation(["(1 2)", "(1 2 3)"]))
    cd = conjugacy_classes(g)
    cm = class_matrices(g, cd)
    mul = multiplication_table(g)
    for i in range(cd.k):
        for j in range(cd.k):
            for l, rep in enumerate(cd.representatives):
                count = 0
                for a in cd.classes[i]:
                    for b in cd.classes[j]:
                        if mul[a, b] == rep:
                            count += 1
                assert cm.c[i, j, l] == count
        assert np.array_equal(cm.c[i], _class_matrix_by_triple_loop(g, cd, i))


def test_class_matrix_counting_identity(corpus):
    # products of a fixed pair of classes are counted once per element, and
    # the count is constant on each target class
    for text, (group, cd, _) in corpus.items():
        if group.n > 24:
            continue
        cm = class_matrices(group, cd)
        for i in range(cd.k):
            for j in range(cd.k):
                total = sum(
                    int(cm.c[i, j, l]) * cd.sizes[l] for l in range(cd.k)
                )
                assert total == cd.sizes[i] * cd.sizes[j], text


@pytest.mark.parametrize("text", tuple(CORPUS) + LADDER)
def test_class_matrix_is_the_stacked_slice_and_the_triple_loop(text):
    group = build_group(GroupSpec.from_json(text))
    cd = conjugacy_classes(group)
    stacked = class_matrices(group, cd).c
    for i in range(cd.k):
        mat = characters._class_matrix(group, cd, i)
        assert mat.dtype == np.int64
        assert np.array_equal(mat, stacked[i]), (text, i)
        assert np.array_equal(mat, _class_matrix_by_triple_loop(group, cd, i)), (text, i)


@pytest.mark.parametrize(
    "text, built",
    [("cyclic(60)", [1]), ("elementary-abelian(2,6)", [1, 2, 3, 4, 5, 6]), ("symmetric(7)", [1])],
)
def test_table_builds_only_the_class_matrices_the_split_draws(text, built, monkeypatch):
    """The class matrices are built one at a time, while the split has fewer than k rows.

    cyclic(60) and symmetric(7) split on class 1 alone (its minimal
    polynomial has degree k), and 2^6 on classes 1 to 6, a basis.  The
    (k, k, k) tensor of class_matrices is never built.
    """
    calls = []
    real = characters._class_matrix

    def spy(group, cd, i):
        calls.append(i)
        return real(group, cd, i)

    def refused(group, cd):
        raise AssertionError("the table path built the class structure-constant tensor")

    monkeypatch.setattr(characters, "_class_matrix", spy)
    monkeypatch.setattr(characters, "class_matrices", refused)
    group = build_group(GroupSpec.from_json(text))
    dixon_character_table(group, conjugacy_classes(group))
    assert calls == built
    # k > 322 is still refused up front, before any class matrix is built
    calls.clear()
    group = build_group(GroupSpec.named("cyclic", 323))
    with pytest.raises(ResourceLimitError, match="323 conjugacy classes"):
        dixon_character_table(group, conjugacy_classes(group))
    assert calls == []


def test_table_build_peak_stays_below_the_class_tensor():
    """C6^3 (k = 216): the (k, k, k) int64 tensor alone would take 8 k^3 = 80.6 MB."""
    group = build_group(GroupSpec.from_json("product(product(cyclic(6),cyclic(6)),cyclic(6))"))
    cd = conjugacy_classes(group)
    tracemalloc.start()
    try:
        dixon_character_table(group, cd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * cd.k**3


@pytest.mark.parametrize("text", ("cyclic(210)", "dihedral(310)"))
def test_lift_holds_a_bounded_amount_of_memory_beside_its_result(text, monkeypatch):
    """The lift's products run over chunks of classes, so beside its (k, k, phi) result it holds under 16 MiB.

    cyclic(210) has k = 210 and phi = 48, dihedral(310) k = 158 and
    phi = 120: results of 16.9 and 24.0 MB, beside which the lift holds
    about 11 MB, a few times _LIFT_BYTES (4 MiB).  One product over every
    non-least class held 48 and 84 MB beside them.
    """
    peaks = []
    real = characters._lift_table

    def lift(*args):
        tracemalloc.start()
        try:
            out = real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(characters, "_lift_table", lift)
    group = build_group(GroupSpec.from_json(text))
    dixon_character_table(group, conjugacy_classes(group))
    assert 0 < peaks[0] < 16 * 2**20


@pytest.mark.parametrize("text", ("cyclic(210)", "dihedral(310)"))
def test_galois_identity_holds_a_bounded_amount_of_memory_beside_the_table(text, monkeypatch):
    """The Galois identity runs over chunks of classes, so beside the table it holds under 16 MiB.

    Taking every class at once, with a (k, k, phi) gather, its product and
    their float64 copies per generator, it held 53 and 75 MB beside the
    16.9 and 24.0 MB tables of these groups.
    """
    peaks = []
    real = characters._galois_identity_holds

    def identity(*args):
        tracemalloc.start()
        try:
            holds = real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return holds

    monkeypatch.setattr(characters, "_galois_identity_holds", identity)
    group = build_group(GroupSpec.from_json(text))
    dixon_character_table(group, conjugacy_classes(group))
    assert 0 < peaks[0] < 16 * 2**20


@pytest.mark.parametrize("text", ("cyclic(210)", "dihedral(310)"))
def test_certificate_holds_a_bounded_amount_of_memory_beside_the_table(text, monkeypatch):
    """The certificate takes the L1 norm and each prime's embedding over chunks of classes, so beside the table it holds under 3 _LIFT_BYTES.

    Taking every class at once, with |T|, T mod q and its float64 copy, it
    held 50.8 and 71.9 MB beside the 16.9 and 24.0 MB tables of these
    groups; now the Galois identity's 10-11 MB is its peak.
    """
    peaks = []
    real = characters._validate_table

    def validate(*args):
        tracemalloc.start()
        try:
            real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(characters, "_validate_table", validate)
    group = build_group(GroupSpec.from_json(text))
    dixon_character_table(group, conjugacy_classes(group))
    assert 0 < peaks[0] < 3 * characters._LIFT_BYTES


def _exact_operands(rng, shape_a, shape_b, bound):
    """Random int64 operands with entries up to e in magnitude, inner size s, s e^2 <= bound.

    Row 0 of a and column 0 of b are e with the same random signs, so entry
    [0, 0] of each product is s e^2, the largest that bound allows.
    """
    s = shape_a[-1]
    e = isqrt(bound // s)
    a = rng.integers(-e, e + 1, size=shape_a, dtype=np.int64)
    b = rng.integers(-e, e + 1, size=shape_b, dtype=np.int64)
    signs = rng.choice([-1, 1], size=s)
    a[..., 0, :] = e * signs
    b[..., :, 0] = e * signs
    return a, b


@pytest.mark.parametrize(
    "shapes",
    [
        ((64, 32), (32, 16)),
        ((1, 256), (256, 128)),
        ((4, 16, 32), (4, 32, 16)),
        ((3, 40, 30), (30, 10)),
        ((600, 64), (64, 16)),  # three row blocks of at most BLAS_MAX_WORK
        ((3, 300, 40), (40, 30)),
    ],
)
def test_exact_matmul_in_float64_equals_int64_just_below_2_53(shapes):
    rng = np.random.default_rng(len(shapes[0]) * 100 + shapes[0][-1])
    a, b = _exact_operands(rng, *shapes, 2**53 - 1)
    bound = int((np.abs(a).astype(object) @ np.abs(b).astype(object)).max())
    exact = a.astype(object) @ b.astype(object)
    assert 2**53 - 2**40 < bound == exact[..., 0, 0].max() < 2**53
    assert _modp.exact_dtype(bound, a.size * b.shape[-1]) is np.float64  # the BLAS path
    got = _modp.exact_matmul(a, b, bound)
    assert got.dtype == np.int64
    assert got.tolist() == exact.tolist() == (a @ b).tolist()


@pytest.mark.parametrize("m", [1, 2, 12, 60, 420])
def test_ring_maps_read_the_cached_powers_of_one_root(m):
    """w's powers are found once per (m, q) and cannot be written; each map's row e holds w^(e u) mod q."""
    units = [u for u in range(m) if np.gcd(u, m) == 1]
    phi = len(units)
    for q in _modp._certificate_primes(m, 10**40, 64):
        w = _modp._element_of_order(m, q)
        powers = _modp._root_powers(m, q)
        assert _modp._root_powers(m, q) is powers and not powers.flags.writeable
        assert powers.tolist() == [pow(w, e, q) for e in range(m)]
        with pytest.raises(ValueError):
            powers[0] = 0
        maps = _modp._ring_maps(m, phi, q, units)
        assert maps.tolist() == [[pow(w, e * u, q) for u in units] for e in range(phi)]


def test_exact_matmul_keeps_int64_from_2_53():
    """A sum of 2^53 + 1, which float64 rounds, on a product large enough for the BLAS."""
    a = np.zeros((64, 512), dtype=np.int64)
    a[0, :3] = 2**52, 2**52, 1
    b = np.ones((512, 1), dtype=np.int64)
    assert a.size * b.shape[-1] >= _modp.BLAS_MIN_WORK
    assert int((a.astype(np.float64) @ b.astype(np.float64))[0, 0]) == 2**53  # float64 rounds it
    for bound in (2**53, 2**53 + 1):
        got = _modp.exact_matmul(a, b, bound)
        assert got.dtype == np.int64 and got[0, 0] == 2**53 + 1
    work = _modp.BLAS_MIN_WORK
    assert _modp.exact_dtype(2**53 - 1, work) is np.float64 and _modp.exact_dtype(2**53, work) is np.int64
    assert _modp.exact_dtype(0, work - 1) is np.int64  # small products stay in numpy's int64 loop


def test_cyclic_tables_match_abelian_duality():
    # for cyclic groups the irreducible characters are exactly j -> eta^(r j)
    for n in (1, 2, 3, 4, 6, 12):
        g = build_group(GroupSpec.named("cyclic", n))
        cd = conjugacy_classes(g)
        table = dixon_character_table(g, cd)
        assert table.m == n
        ctx = get_context(n)
        expected = {
            tuple(ctx.eta_power((r * j) % n).coeffs for j in range(n))
            for r in range(n)
        }
        got = {tuple(v.coeffs for v in row) for row in table.values}
        assert got == expected
        assert table.degrees == (1,) * n


def test_symmetric_three_table():
    g = build_group(GroupSpec.permutation(["(1 2)", "(1 2 3)"]))
    cd = conjugacy_classes(g)
    table = dixon_character_table(g, cd)
    assert table.degrees == (1, 1, 2)
    rows = [[as_rational(v) for v in row] for row in table.values]
    # classes: identity, transpositions, 3-cycles
    assert rows[0] == [1, 1, 1]
    assert rows[1] == [1, -1, 1]
    assert rows[2] == [2, 0, -1]


def test_quaternion_table_structure():
    g = build_group(GroupSpec.named("quaternion", 8))
    cd = conjugacy_classes(g)
    table = dixon_character_table(g, cd)
    assert sorted(table.degrees) == [1, 1, 1, 1, 2]
    two = table.degrees.index(2)
    central = next(
        j for j in range(1, cd.k)
        if cd.sizes[j] == 1 and int(g.orders[cd.representatives[j]]) == 2
    )
    for j in range(cd.k):
        value = as_rational(table.values[two][j])
        if j == 0:
            assert value == 2
        elif j == central:
            assert value == -2
        else:
            assert value == 0


def test_alternating_five_golden_ratio_values():
    g = build_group(GroupSpec.named("alternating", 5))
    cd = conjugacy_classes(g)
    table = dixon_character_table(g, cd)
    assert sorted(table.degrees) == [1, 3, 3, 4, 5]
    five_cycle_classes = [
        j for j in range(cd.k) if int(g.orders[cd.representatives[j]]) == 5
    ]
    assert len(five_cycle_classes) == 2
    golden = sorted(
        round(table.values[r][j].to_complex().real, 6)
        for r in range(table.k)
        if table.degrees[r] == 3
        for j in five_cycle_classes
    )
    assert golden == [-0.618034, -0.618034, 1.618034, 1.618034]


def _tuple_sort_characters(characters, trivial_row):
    """Reference row order: trivial character first, the rest by degree then value vectors."""
    trivial = None
    rest = []
    for degree, vals in characters:
        if degree == 1 and vals == trivial_row and trivial is None:
            trivial = (degree, vals)
        else:
            rest.append((degree, vals))
    if trivial is None:
        raise InternalConsistencyError("trivial character missing from table")
    rest.sort(key=lambda dv: (dv[0], tuple(v.coeffs for v in dv[1])))
    return [trivial] + rest


@pytest.mark.parametrize("reverse", [False, True])
def test_row_order_matches_the_tuple_sort_reference(monkeypatch, reverse):
    lifted = {}
    real_split, real_lift = characters._common_eigenrows, characters._lift_table

    def split(k, matrices, p):  # reversed, the sort gets its rows in the opposite order
        rows = real_split(k, matrices, p)
        return rows[::-1] if reverse else rows

    def lift(chi_p, degrees, *rest):
        lifted["degrees"], lifted["coeffs"] = degrees, real_lift(chi_p, degrees, *rest)
        return lifted["coeffs"]

    monkeypatch.setattr(characters, "_common_eigenrows", split)
    monkeypatch.setattr(characters, "_lift_table", lift)
    for text in [*CORPUS, *LADDER, "cyclic(120)", "product(product(cyclic(6),cyclic(6)),cyclic(6))"]:
        group = build_group(GroupSpec.from_json(text))
        table = dixon_character_table(group, conjugacy_classes(group))
        ctx = get_context(table.m)
        rows = [
            (d, tuple(CycInt(ctx, tuple(c)) for c in row))
            for d, row in zip(lifted["degrees"], lifted["coeffs"].tolist())
        ]
        expected = _tuple_sort_characters(rows, (ctx.one,) * table.k)
        assert table.degrees == tuple(d for d, _ in expected), text
        assert table.values == tuple(vals for _, vals in expected), text


def test_trivial_character_comes_first(corpus):
    for text, (group, cd, table) in corpus.items():
        assert table.degrees[0] == 1
        assert all(as_rational(v) == 1 for v in table.values[0])


def test_orthogonality_and_degree_sum(corpus):
    for text, (group, cd, table) in corpus.items():
        assert verify_orthogonality(table, cd, group.n), text
        assert sum(d * d for d in table.degrees) == group.n, text


def test_galois_character_identity(corpus):
    for text, (group, cd, table) in corpus.items():
        gamma = unit_group(group.exponent)
        assert verify_galois_character_identity(table, cd, gamma), text


def test_degrees_divide_group_order(corpus):
    for text, (group, cd, table) in corpus.items():
        assert all(group.n % d == 0 for d in table.degrees), text


def test_dixon_prime_properties(corpus):
    for text, (group, cd, table) in corpus.items():
        p = table.prime
        assert p > 2 * int(np.ceil(np.sqrt(group.n)))
        assert p % table.m == 1 if table.m > 1 else True
        assert group.n % p != 0


def test_table_is_deterministic():
    g = build_group(GroupSpec.named("dihedral", 5))
    cd = conjugacy_classes(g)
    t1 = dixon_character_table(g, cd)
    t2 = dixon_character_table(g, cd)
    assert t1.degrees == t2.degrees
    assert [[v.coeffs for v in row] for row in t1.values] == [
        [v.coeffs for v in row] for row in t2.values
    ]


def test_induced_character_from_three_cycle():
    g = build_group(GroupSpec.permutation(["(1 2)", "(1 2 3)"]))
    cd = conjugacy_classes(g)
    table = dixon_character_table(g, cd)
    three_cycle = cd.representatives[2]
    assert int(g.orders[three_cycle]) == 3
    theta = induced_character_from_cyclic(three_cycle, g, cd)
    assert theta.degree == 2
    assert [as_rational(v) for v in theta.values] == [2, 0, -1]
    assert character_multiplicities(theta.values, table, cd) == (0, 0, 1)


def test_induced_character_from_transposition():
    g = build_group(GroupSpec.permutation(["(1 2)", "(1 2 3)"]))
    cd = conjugacy_classes(g)
    table = dixon_character_table(g, cd)
    swap = cd.representatives[1]
    assert int(g.orders[swap]) == 2
    theta = induced_character_from_cyclic(swap, g, cd)
    assert theta.degree == 3
    assert [as_rational(v) for v in theta.values] == [3, -1, 0]
    # sign character plus the two-dimensional one
    assert character_multiplicities(theta.values, table, cd) == (0, 1, 1)


def test_induced_characters_decompose_nonnegatively(corpus):
    for text, (group, cd, table) in corpus.items():
        if group.n > 24:
            continue
        for j in range(1, cd.k):
            theta = induced_character_from_cyclic(cd.representatives[j], group, cd)
            order = int(group.orders[cd.representatives[j]])
            assert theta.degree == group.n // order
            mults = character_multiplicities(theta.values, table, cd)
            assert all(c >= 0 for c in mults)
            assert sum(c * d for c, d in zip(mults, table.degrees)) == theta.degree


def test_multiplicities_reject_non_characters():
    g = build_group(GroupSpec.permutation(["(1 2)", "(1 2 3)"]))
    cd = conjugacy_classes(g)
    table = dixon_character_table(g, cd)
    ctx = get_context(table.m)
    fake = (ctx.one, ctx.zero, ctx.zero)
    with pytest.raises(InternalConsistencyError):
        character_multiplicities(fake, table, cd)


def test_table_size_check_refuses_before_allocation():
    with pytest.raises(ResourceLimitError, match="3000 conjugacy classes"):
        check_table_size(3000)
    assert 8 * 322**3 <= TABLE_BYTE_BUDGET < 8 * 323**3
    check_table_size(322)
    with pytest.raises(ResourceLimitError):
        check_table_size(323)


# ---------------------------------------------------------------------------
# the modular orthogonality certificate


def _orthogonal_by_cycint_loops(table, cd, n):
    """Reference oracle: the row and column relations summed in Z[z]."""
    if sum(d * d for d in table.degrees) != n:
        return False
    k = table.k
    zero = get_context(table.m).zero
    conj = [[conjugate(v) for v in row] for row in table.values]
    for r in range(k):
        for s in range(k):
            acc = zero
            for j in range(k):
                acc = acc + table.values[r][j] * conj[s][j] * cd.sizes[j]
            if as_rational(acc) != (n if r == s else 0):
                return False
    for i in range(k):
        for j in range(k):
            acc = zero
            for r in range(k):
                acc = acc + table.values[r][i] * conj[r][j]
            if as_rational(acc) != (n // cd.sizes[i] if i == j else 0):
                return False
    return True


def _tampered(table, r, j, e, delta):
    """The table with coefficient e of value (r, j) moved by delta."""
    coeffs = table.coefficients.astype(object)
    coeffs[r, j, e] += delta
    return dataclasses.replace(table, coefficients=coeffs)


def test_cli_jobs_never_build_the_cycint_view(monkeypatch, capsys):
    tables = []

    def spy(group, cd):
        tables.append(dixon_character_table(group, cd))
        return tables[-1]

    monkeypatch.setattr(cli, "dixon_character_table", spy)
    jobs = [
        ["character-table", "--group", "cyclic(12)"],
        ["check-integrality", "--group", "symmetric(4)", "--connection", "sweep"],
        ["check-membership", "--group", "cyclic(5)", "--connection", "sweep", "--gamma", "rational"],
        ["verify-all"],
    ]
    for argv in jobs:
        tables.clear()
        assert run(argv) == 0, argv
        capsys.readouterr()
        assert tables, argv
        assert all("values" not in table.__dict__ for table in tables), argv
    table = tables[0]
    coeffs = table_coefficients(table)
    assert coeffs is table.coefficients
    assert coeffs.dtype == np.int64 and not coeffs.flags.writeable
    assert coeffs.tolist() == [[list(v.coeffs) for v in row] for row in table.values]


def test_coefficients_beyond_int64_are_refused(corpus):
    group, cd, table = corpus["cyclic(3)"]
    c = int(table.coefficients[1, 1, 0])
    for huge in (2**63, -(2**63)):
        with pytest.raises(ResourceLimitError):
            _tampered(table, 1, 1, 0, huge - c)
    assert _tampered(table, 1, 1, 0, 1 - 2**63 - c).coefficients[1, 1, 0] == 1 - 2**63


def test_constructor_copies_and_freezes_its_array(corpus):
    group, cd, table = corpus["cyclic(5)"]
    coeffs = table.coefficients.copy()
    copy = dataclasses.replace(table, coefficients=coeffs)
    coeffs[1, 1, 0] += 1
    assert np.array_equal(copy.coefficients, table.coefficients)
    assert not copy.coefficients.flags.writeable
    with pytest.raises(ValueError):
        copy.coefficients[1, 1, 0] = 0
    assert copy.values == table.values


def test_certificate_sums_in_python_integers_near_int64(corpus, monkeypatch):
    """Coefficients near 2^62 send the L1 norm and the Galois products to
    their Python-integer branches, whose verdicts match the CycInt loops."""
    widened = []
    real = characters._widened

    def spy(a, bound):
        out = real(a, bound)
        widened.append((sys._getframe(1).f_code.co_name, out.dtype == object))
        return out

    monkeypatch.setattr(characters, "_widened", spy)
    group, cd, table = corpus["cyclic(5)"]
    units = unit_group(group.exponent)
    scaled = table.coefficients.astype(object)
    scaled[1] *= 2**62 // int(np.abs(scaled[1]).max())  # the Galois identity is linear in a row
    changed = _tampered(table, 1, 1, 0, 2**62 - int(table.coefficients[1, 1, 0]))
    cases = [(dataclasses.replace(table, coefficients=scaled), True), (changed, False)]
    for candidate, galois_holds in cases:
        assert int(np.abs(candidate.coefficients).max()) >= 2**62
        widened.clear()
        assert verify_galois_character_identity(candidate, cd, units) == galois_holds
        assert galois_holds == _galois_identity_by_cycint_loop(candidate, cd, units)
        assert ("_galois_identity_holds", True) in widened
        widened.clear()
        assert not verify_orthogonality(candidate, cd, group.n)
        assert not _orthogonal_by_cycint_loops(candidate, cd, group.n)
        assert ("_validate_table", True) in widened


def test_certificate_agrees_with_cycint_loops(corpus):
    for text, (group, cd, table) in corpus.items():
        assert _orthogonal_by_cycint_loops(table, cd, group.n), text
        assert verify_orthogonality(table, cd, group.n), text


@pytest.mark.parametrize(
    "text", ["symmetric(3)", "cyclic(5)", "quaternion(8)", "product(cyclic(3),cyclic(3))"]
)
def test_certificate_rejects_every_unit_change(corpus, text):
    group, cd, table = corpus[text]
    phi = table.values[0][0].ctx.degree
    for r in range(table.k):
        for j in range(cd.k):
            for e in range(phi):
                for delta in (1, -1):
                    bad = _tampered(table, r, j, e, delta)
                    assert not _orthogonal_by_cycint_loops(bad, cd, group.n)
                    assert not verify_orthogonality(bad, cd, group.n), (r, j, e, delta)


def test_certificate_rejects_a_huge_change_on_several_primes(corpus, monkeypatch):
    chosen = []
    choose = characters._certificate_primes

    def spy(*args):
        chosen.append(choose(*args))
        return chosen[-1]

    monkeypatch.setattr(characters, "_certificate_primes", spy)
    for text in ("alternating(5)", "cyclic(12)"):
        group, cd, table = corpus[text]
        phi = table.values[0][0].ctx.degree
        for r, j, e in [(0, 0, 0), (table.k - 1, cd.k - 1, phi - 1), (1, 1, 0)]:
            for delta in (10**9, -(10**9) - 7):
                chosen.clear()
                bad = _tampered(table, r, j, e, delta)
                assert not verify_orthogonality(bad, cd, group.n), (text, r, j, e)
                assert len(chosen[0]) > 1, text
                assert not _orthogonal_by_cycint_loops(bad, cd, group.n)


def test_certificate_rejects_a_change_by_the_first_prime(corpus, monkeypatch):
    """Moving a degree by the first prime q keeps the Galois identity, and
    every entry of the row relation stays a multiple of q, so only the later
    primes can reject the table."""
    chosen = []
    choose = characters._certificate_primes

    def spy(*args):
        chosen.append(choose(*args))
        return chosen[-1]

    monkeypatch.setattr(characters, "_certificate_primes", spy)
    for text in ("cyclic(5)", "quaternion(8)", "alternating(5)"):
        group, cd, table = corpus[text]
        chosen.clear()
        assert verify_orthogonality(table, cd, group.n), text
        first = chosen[0][0]  # the same for any bound: the primes are taken downward from one ceiling
        bad = _tampered(table, table.k - 1, 0, 0, first)
        assert verify_galois_character_identity(bad, cd, unit_group(group.exponent)), text
        chosen.clear()
        assert not verify_orthogonality(bad, cd, group.n), text
        assert chosen[0][0] == first and len(chosen[0]) > 1, text
        assert not _orthogonal_by_cycint_loops(bad, cd, group.n)


def _with_columns_swapped(table, i, j):
    order = list(range(table.k))
    order[i], order[j] = j, i
    return dataclasses.replace(table, coefficients=table.coefficients[:, order])


def test_swapped_cyclic_classes_are_orthogonal_but_break_the_galois_identity(corpus):
    group, cd, table = corpus["cyclic(5)"]
    swapped = _with_columns_swapped(table, 2, 3)
    assert _orthogonal_by_cycint_loops(swapped, cd, group.n)
    assert not verify_orthogonality(swapped, cd, group.n)
    assert not verify_galois_character_identity(swapped, cd, unit_group(5))


@pytest.mark.parametrize("text", ["cyclic(8)", "cyclic(12)"])
def test_certificate_checks_every_generator(corpus, text):
    """Swapping the classes of g and g^t, t the first of two generators of
    the units with t^2 = 1, keeps the identity for t but not for the second."""
    group, cd, table = corpus[text]
    units = unit_group(group.exponent)
    t, u = units.generators
    j = int(np.flatnonzero(group.orders[list(cd.representatives)] == group.exponent)[0])
    swapped = _with_columns_swapped(table, j, int(cd.power_class[j, t]))
    assert _orthogonal_by_cycint_loops(swapped, cd, group.n)
    assert verify_galois_character_identity(swapped, cd, subgroup_closure(group.exponent, [t]))
    assert not verify_galois_character_identity(swapped, cd, subgroup_closure(group.exponent, [u]))
    assert not verify_galois_character_identity(swapped, cd, units)
    assert not verify_orthogonality(swapped, cd, group.n)


def _galois_identity_by_cycint_loop(table, cd, gamma):
    """Reference: sigma_t(chi(g_j)) == chi(g_j^t) by galois_apply, for every t in gamma."""
    m = table.m
    return all(
        galois_apply(t, row[j]) == row[int(cd.power_class[j, t % m])]
        for t in gamma.elements
        for row in table.values
        for j in range(cd.k)
    )


def test_galois_identity_agrees_with_cycint_loop(corpus):
    outcomes = set()
    for text, (group, cd, table) in corpus.items():
        k, phi = table.k, table.values[0][0].ctx.degree
        changes = [(k - 1, 0, 0, 1), (k - 1, k - 1, phi - 1, -1), (k // 2, k // 2, 0, 1), (0, k - 1, phi // 2, -1)]
        tables = [table] + [_tampered(table, *change) for change in changes]
        for gamma in all_subgroups(group.exponent):
            for i, candidate in enumerate(tables):
                expected = _galois_identity_by_cycint_loop(candidate, cd, gamma)
                assert verify_galois_character_identity(candidate, cd, gamma) == expected, (
                    text, gamma.elements, i
                )
                assert expected or i > 0, text
                outcomes.add((i > 0, expected))
    assert outcomes == {(False, True), (True, True), (True, False)}


def test_galois_products_on_nonzero_columns_equal_the_full_products(corpus):
    tables = [table for _, _, table in corpus.values()]
    for text in LADDER:
        group = build_group(GroupSpec.from_json(text))
        tables.append(dixon_character_table(group, conjugacy_classes(group)))
    for table in tables:
        coeffs = table_coefficients(table)
        nz = np.flatnonzero(coeffs.any(axis=(0, 1)))
        for t in unit_group(table.m).elements:
            sigma = _galois_matrix(table.m, t)
            assert np.array_equal(coeffs[..., nz] @ sigma[nz], coeffs @ sigma), (table.m, t)


def _is_prime_by_trial_division(q):
    return q > 1 and all(q % f for f in range(2, isqrt(q) + 1))


def test_miller_rabin_agrees_with_a_sieve_and_past_its_four_base_bound():
    """Below 3,215,031,751 the bases 2, 3, 5 and 7 decide; that number, the least strong pseudoprime to all four, is composite."""
    limit = 10**6
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    assert [x for x in range(limit) if _modp._is_prime(x)] == np.flatnonzero(sieve).tolist()
    pseudoprime = 3_215_031_751
    assert pseudoprime == 151 * 751 * 28351
    assert not _modp._is_prime(pseudoprime)
    assert _modp._is_prime(2**61 - 1) and not _modp._is_prime((2**31 - 1) * (2**61 - 1))


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 5040),
    n=st.integers(1, 5040),
    norm=st.integers(1, 10**12),
    k=st.integers(1, 400),
    limit=st.sampled_from((2**53, 2**63)),
)
def test_certificate_primes_cover_the_bound_without_int64_overflow(m, n, norm, k, limit):
    # limit 2^63 keeps width products of residues within int64, and 2^53,
    # the table certificate's, keeps them exact in float64
    bound = n * norm * norm + n
    width = max(totient(m), k)
    primes = characters._certificate_primes(m, bound, width, limit)
    assert prod(primes) > bound
    assert primes == sorted(set(primes), reverse=True)
    for q in primes:
        assert q % m == 1 % m
        assert width * q * q < limit
        assert _is_prime_by_trial_division(q)


# ---------------------------------------------------------------------------
# the common-eigenspace split mod the Dixon prime
#
# The list-of-lists routines below are the split as it was before it moved to
# int64 arrays, kept as the reference for the array version.


def _ref_mat_mul(a, b, p):
    out = [[0] * len(b[0]) for _ in range(len(a))]
    for i, ai in enumerate(a):
        for t, c in enumerate(ai):
            if c:
                out[i] = [(o + c * x) % p for o, x in zip(out[i], b[t])]
    return out


def _ref_transpose(a):
    return [list(col) for col in zip(*a)]


def _ref_rref(rows, p):
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    rows = [[x % p for x in r] for r in rows]
    if not rows:
        return [], []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _array_rref(a, p):
    """Reduced row echelon form mod p on int64 arrays: (nonzero rows, pivot columns).

    One outer-product update per pivot clears its column in every other row.
    Row r is zero left of its pivot column c, so only columns c onward change.
    The form is unique, so any nonzero entry may serve as the pivot.
    """
    a = np.ascontiguousarray(a % p)
    nrows, ncols = a.shape
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        i = r + int(a[r:, c].argmax())
        pivot = int(a[i, c])
        if not pivot:
            continue
        if i != r:
            a[[r, i]] = a[[i, r]]
        row = a[r, c:] * pow(pivot, p - 2, p) % p
        block = a[:, c:]
        block -= a[:, c, None] * row  # clears row r too, which row then refills
        block %= p
        block[r] = row
        pivots.append(c)
    return a[: len(pivots)], pivots


def _ref_nullspace(mat, p):
    """Canonical basis rows of {x : mat . x = 0} over F_p."""
    ncols = len(mat[0])
    red, pivots = _ref_rref(mat, p)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-red[i][free]) % p
        basis.append(v)
    return basis


def _ref_poly_roots(coeffs, p):
    def value(x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    return [x for x in range(p) if value(x) == 0]


def _ref_common_eigenrows(mats, p):
    k = len(mats[0])
    spaces = [([[1 if i == j else 0 for j in range(k)] for i in range(k)], list(range(k)))]
    for mat in mats:
        right = _ref_transpose(mat)
        nxt = []
        for basis, pivots in spaces:
            r = len(basis)
            if r == 1:
                nxt.append((basis, pivots))
                continue
            image = _ref_mat_mul(basis, right, p)
            restricted = [[image[i][c] for c in pivots] for i in range(r)]
            covered = 0
            for lam in _ref_poly_roots(_modp.charpoly(restricted, p), p):
                shifted = [
                    [(x - (lam if i == j else 0)) % p for j, x in enumerate(row)]
                    for i, row in enumerate(restricted)
                ]
                left_null = _ref_nullspace(_ref_transpose(shifted), p)
                if not left_null:
                    raise InternalConsistencyError("eigenvalue with empty eigenspace")
                sub_basis, sub_pivots = _ref_rref(_ref_mat_mul(left_null, basis, p), p)
                covered += len(sub_basis)
                nxt.append((sub_basis, sub_pivots))
            if covered != r:
                raise InternalConsistencyError("class algebra failed to split over F_p")
        spaces = nxt
        if all(len(b) == 1 for b, _ in spaces):
            break
    if len(spaces) != k or any(len(b) != 1 for b, _ in spaces):
        raise InternalConsistencyError("expected one common eigenvector per class")
    return [b[0] for b, _ in spaces]


def _class_tensor_mod(text, p=None):
    group = build_group(GroupSpec.from_json(text))
    cd = conjugacy_classes(group)
    if p is None:
        p = characters._least_dixon_prime(group.n, group.exponent)
    return class_matrices(group, cd).c % p, p


def _split(c, p):
    """The split of the class matrices stacked in c, class 0's first, drawn in class order."""
    return characters._common_eigenrows(len(c), c[1:], p)


SPLIT_EXTRA = ("cyclic(40)", "cyclic(60)", "elementary-abelian(2,6)", "product(cyclic(6),cyclic(6))")


@pytest.mark.parametrize("text", tuple(CORPUS) + SPLIT_EXTRA)
def test_split_matches_list_reference(text):
    c, p = _class_tensor_mod(text)
    rows = _split(c, p)
    assert len(rows) == c.shape[0]
    assert sorted(rows) == sorted(_ref_common_eigenrows(c.tolist(), p))


def _ref_minimal_polynomial(start, right, p):
    """The full-stack minimal polynomial: min(k, p) + 1 Krylov rows, one reduction, None if it does not split."""
    k = len(start)
    krylov = [[x % p for x in start]]
    for _ in range(min(k, p)):
        krylov.append(_ref_mat_mul([krylov[-1]], right, p)[0])
    red, pivots = _ref_rref(_ref_transpose(krylov), p)
    d = len(pivots)
    if d == len(krylov):
        return None
    return [(-row[d]) % p for row in red] + [1]


class _CountedRow(np.ndarray):
    """A row that counts its products v @ right."""

    products = 0

    def __matmul__(self, other):
        _CountedRow.products += 1
        return super().__matmul__(other)


@st.composite
def _krylov_cases(draw):
    """A start row and a matrix mod a small prime whose minimal polynomials have every degree from 0 to k."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    k = draw(st.integers(1, 8))
    rank = draw(st.integers(0, k))
    entries = st.integers(0, p - 1)
    left = np.array(draw(st.lists(entries, min_size=k * rank, max_size=k * rank)), dtype=np.int64).reshape(k, rank)
    right = np.array(draw(st.lists(entries, min_size=rank * k, max_size=rank * k)), dtype=np.int64).reshape(rank, k)
    shift = draw(entries) * np.eye(k, dtype=np.int64)
    start = np.array(draw(st.lists(entries, min_size=k, max_size=k)), dtype=np.int64)
    return start, (left @ right + shift) % p, p


@settings(max_examples=200, deadline=None)
@given(_krylov_cases())
def test_minimal_polynomial_stops_at_the_first_dependent_krylov_row(case):
    """It equals the full-stack reduction, and takes one product per row before the dependent one."""
    start, right, p = case
    expected = _ref_minimal_polynomial(start.tolist(), right.tolist(), p)
    _CountedRow.products = 0
    row = start.view(_CountedRow)
    if expected is None:
        with pytest.raises(InternalConsistencyError, match="failed to split"):
            characters._minimal_polynomial(row, right, p)
        assert _CountedRow.products == min(start.size, p) + 1
    else:
        assert characters._minimal_polynomial(row, right, p) == expected
        assert _CountedRow.products == len(expected) - 1


def test_minimal_polynomial_of_2_6_takes_two_krylov_products():
    """Every class matrix of 2^6 is an involution: deg f = 2, where the full stack took min(k, p) + 1 = 18 rows."""
    c, p = _class_tensor_mod("elementary-abelian(2,6)")
    start = np.zeros(len(c), dtype=np.int64)
    start[0] = 1
    for i in range(1, 7):
        _CountedRow.products = 0
        f = characters._minimal_polynomial(start.view(_CountedRow), c[i].T, p)
        assert f == [p - 1, 0, 1] and _CountedRow.products == 2


def _split_trace(monkeypatch):
    """Record, per splitting matrix, the degree of its minimal polynomial and the number of rows it projects."""
    trace = {"minimal": [], "projected": []}
    real_minimal, real_rows = characters._minimal_polynomial, characters._krylov_eigenrows

    def minimal(start, right, p):
        f = real_minimal(start, right, p)
        trace["minimal"].append(len(f) - 1)
        return f

    def rows(rows, right, minpoly, roots, p):
        trace["projected"].append(len(rows))
        return real_rows(rows, right, minpoly, roots, p)

    monkeypatch.setattr(characters, "_minimal_polynomial", minimal)
    monkeypatch.setattr(characters, "_krylov_eigenrows", rows)
    return trace


@pytest.mark.parametrize("text", ("cyclic(40)", "cyclic(60)", "cyclic(120)"))
def test_split_takes_simple_roots_from_the_krylov_stack(text, monkeypatch):
    """The generator's class matrix has k distinct eigenvalues: one Krylov stack of e_0 gives every row.

    Its minimal polynomial has degree k and only simple roots, and no other
    class matrix is used.
    """
    c, p = _class_tensor_mod(text)
    trace = _split_trace(monkeypatch)
    assert len(_split(c, p)) == c.shape[0]
    assert trace == {"minimal": [c.shape[0]], "projected": [1]}


def test_split_by_krylov_rows_equals_the_per_root_elimination():
    """On cyclic(120) the projections give the rows that eliminating M - lam I root by root gives.

    M is the generator's class matrix, with the 120 distinct eigenvalues
    lam, the roots of x^120 - 1 mod 241; each nullspace is one row.
    The list reference would take seconds at this size.
    """
    c, p = _class_tensor_mod("cyclic(120)")
    k = c.shape[0]
    eliminated = []
    for lam in characters._poly_roots([p - 1] + [0] * (k - 1) + [1], p).tolist():
        red, pivots = _array_rref(c[1] - lam * np.eye(k, dtype=np.int64), p)
        (free,) = sorted(set(range(k)) - set(pivots))
        row = np.zeros(k, dtype=np.int64)
        row[free] = 1
        row[pivots] = -red[:, free] % p
        eliminated.append((row * pow(int(row[row != 0][0]), p - 2, p) % p).tolist())
    assert sorted(_split(c, p)) == sorted(eliminated)


def test_split_of_2_6_takes_six_matrices_and_one_minimal_polynomial_each(monkeypatch):
    """On 2^6 (p = 17 < k = 64) every class matrix has the eigenvalues 1 and -1.

    So each splitting matrix halves every row, and six of them (the classes
    of a basis) give the 64 rows.  No characteristic polynomial is taken.
    """
    c, p = _class_tensor_mod("elementary-abelian(2,6)")
    expected = sorted(_ref_common_eigenrows(c.tolist(), p))
    trace = _split_trace(monkeypatch)

    def refused(a, q):
        raise AssertionError("the split took a characteristic polynomial")

    monkeypatch.setattr(characters._modp, "charpoly", refused)
    assert sorted(_split(c, p)) == expected
    assert trace == {"minimal": [2] * 6, "projected": [1, 2, 4, 8, 16, 32]}


def test_split_passes_over_class_matrices_that_split_nothing(monkeypatch):
    """On C6^3 (p = 31 < k = 216) classes 1, 6 and 36 split by 6 each, and 216 rows end the split.

    A class matrix for which every row is already an eigenrow takes no
    minimal polynomial, so the 33 others before class 36 cost one product
    each, and no matrix after class 36 is drawn.
    """
    c, p = _class_tensor_mod("product(product(cyclic(6),cyclic(6)),cyclic(6))")
    drawn, used = [], []
    real_minimal = characters._minimal_polynomial

    def matrices():
        for i in range(1, len(c)):
            drawn.append(i)
            yield c[i]

    def minimal(start, right, q):
        used.append(drawn[-1])
        return real_minimal(start, right, q)

    monkeypatch.setattr(characters, "_minimal_polynomial", minimal)
    trace = _split_trace(monkeypatch)
    assert len(characters._common_eigenrows(len(c), matrices(), p)) == 216
    assert used == [1, 6, 36]
    assert drawn == list(range(1, 37))
    assert trace == {"minimal": [6, 6, 6], "projected": [1, 6, 36]}


def _central_characters_mod(table, cd, p):
    """omega_chi(K_j) = |K_j| chi(g_j) / chi(1) mod p, the table read at the Dixon prime's root z -> w."""
    w = _modp._element_of_order(table.m, p)
    phi = table.coefficients.shape[2]
    at_w = table.coefficients % p @ np.array([pow(w, e, p) for e in range(phi)], dtype=np.int64) % p
    inv_degrees = np.array([pow(d, p - 2, p) for d in table.degrees], dtype=np.int64)
    return at_w * np.array(cd.sizes, dtype=np.int64) % p * inv_degrees[:, None] % p


@pytest.mark.parametrize("text", ("product(product(cyclic(6),cyclic(6)),cyclic(6))", "elementary-abelian(2,7)"))
def test_split_rows_are_the_central_characters_of_the_certified_table(text):
    group = build_group(GroupSpec.from_json(text))
    cd = conjugacy_classes(group)
    table = dixon_character_table(group, cd)
    p = table.prime
    rows = _split(class_matrices(group, cd).c % p, p)
    assert sorted(rows) == sorted(_central_characters_mod(table, cd, p).tolist())


@pytest.mark.parametrize("text", tuple(CORPUS) + ("product(cyclic(6),cyclic(6))", "elementary-abelian(2,6)"))
def test_split_start_row_has_a_component_on_every_character(text):
    """e_0 = sum_chi (chi(1)^2 / n) omega_chi, and chi(1)^2 / n is nonzero mod p, so no character is lost.

    This is column orthogonality against the trivial class: sum_chi chi(1)
    chi(g) = n [g = 1].
    """
    group = build_group(GroupSpec.from_json(text))
    cd = conjugacy_classes(group)
    table = dixon_character_table(group, cd)
    p = table.prime
    weights = np.array([d * d * pow(group.n, p - 2, p) % p for d in table.degrees], dtype=np.int64)
    assert weights.all()
    start = weights @ _central_characters_mod(table, cd, p) % p
    assert start.tolist() == [1] + [0] * (cd.k - 1)


def test_split_refuses_when_the_class_matrices_run_out():
    c, p = _class_tensor_mod("product(cyclic(6),cyclic(6))")
    c = c.copy()
    c[2:] = np.eye(c.shape[0], dtype=np.int64)  # only class 1 is left to split, into 6 rows
    with pytest.raises(InternalConsistencyError, match="one common eigenvector per class"):
        _split(c, p)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_split_refuses_a_prime_that_does_not_split(p):
    # p has order 4 mod 5 for p = 3, 7, so x^5 - 1 has the single root 1 over F_p;
    # p = 5 divides n, and x^5 - 1 = (x - 1)^5 there
    c, _ = _class_tensor_mod("cyclic(5)")
    with pytest.raises(InternalConsistencyError, match="failed to split"):
        _split(c % p, p)
    with pytest.raises(InternalConsistencyError, match="failed to split"):
        _ref_common_eigenrows((c % p).tolist(), p)


@st.composite
def _matrices_mod_p(draw):
    """Random matrices mod a small prime: wide, tall, zero or of a chosen rank."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rank = draw(st.integers(0, min(nrows, ncols)))
    entries = st.integers(0, p - 1)
    left = np.array(draw(st.lists(entries, min_size=nrows * rank, max_size=nrows * rank)))
    right = np.array(draw(st.lists(entries, min_size=rank * ncols, max_size=rank * ncols)))
    a = left.reshape(nrows, rank) @ right.reshape(rank, ncols) % p
    # an offset outside [0, p) checks that the reduction takes residues itself
    return a.astype(np.int64) + p * draw(st.integers(-2, 2)), p


@settings(max_examples=200, deadline=None)
@given(_matrices_mod_p())
def test_rref_matches_list_reference(case):
    # the array reduction is the per-root elimination of
    # test_split_by_krylov_rows_equals_the_per_root_elimination, where the
    # list reduction would be too slow
    a, p = case
    rows, pivots = _array_rref(a, p)
    ref_rows, ref_pivots = _ref_rref(a.tolist(), p)
    assert rows.tolist() == ref_rows
    assert pivots == ref_pivots


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 13, 61, 421)), st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8))
def test_poly_roots_match_exhaustive_scan(p, coeffs):
    assert characters._poly_roots(coeffs, p).tolist() == _ref_poly_roots(coeffs, p)


def _ref_degrees_and_values(rows, cd, n, p):
    """Degree recovery as one loop per eigenrow, the reference for the array version."""
    inv_sizes = [pow(s % p, p - 2, p) for s in cd.sizes]
    degrees, chi_p = [], []
    for v in rows:
        scale = pow(v[0] % p, p - 2, p)
        omega = [x * scale % p for x in v]
        denom = sum(omega[j] * omega[cd.inverse_class[j]] % p * inv_sizes[j] for j in range(cd.k)) % p
        d_sq = n % p * pow(denom, p - 2, p) % p
        degree = next(d for d in range(1, isqrt(n) + 1) if d * d % p == d_sq)
        degrees.append(degree)
        chi_p.append([degree * omega[j] % p * inv_sizes[j] % p for j in range(cd.k)])
    return degrees, chi_p


@pytest.mark.parametrize("text", tuple(CORPUS) + LADDER + ("cyclic(120)", "alternating(7)"))
def test_degree_recovery_matches_the_loop_reference(text):
    group = build_group(GroupSpec.from_json(text))
    cd = conjugacy_classes(group)
    p = characters._least_dixon_prime(group.n, group.exponent)
    rows = _split(class_matrices(group, cd).c % p, p)
    degrees, chi_p = characters._degrees_and_values(rows, cd, group.n, p)
    ref_degrees, ref_chi_p = _ref_degrees_and_values(rows, cd, group.n, p)
    assert degrees == ref_degrees
    assert chi_p.dtype == np.int64 and chi_p.tolist() == ref_chi_p


def test_degree_recovery_refuses_rows_that_are_no_central_characters():
    group = build_group(GroupSpec.from_json("symmetric(4)"))
    cd = conjugacy_classes(group)
    n, p = group.n, characters._least_dixon_prime(group.n, group.exponent)
    rows = _split(class_matrices(group, cd).c % p, p)

    def recover(row):
        return characters._degrees_and_values([*rows[:2], row, *rows[3:]], cd, n, p)

    with pytest.raises(InternalConsistencyError, match="vanishes on the identity class"):
        recover([0] + rows[2][1:])
    # a row that is 1 on the identity and x on class j has the norm 1 + x^2 / |C_j|,
    # as every class of S4 is its own inverse class
    assert cd.inverse_class == tuple(range(cd.k))
    squares = {d * d % p for d in range(1, isqrt(n) + 1)}
    seen = set()
    for j, x in itertools.product(range(1, cd.k), range(p)):
        denom = (1 + x * x * pow(cd.sizes[j], p - 2, p)) % p
        if denom == 0:
            message = "degenerate norm"
        elif n * pow(denom, p - 2, p) % p not in squares:
            message = "no admissible degree lift"
        else:
            continue
        row = [1] + [0] * (cd.k - 1)
        row[j] = x
        with pytest.raises(InternalConsistencyError, match=message):
            recover(row)
        seen.add(message)
    assert seen == {"degenerate norm", "no admissible degree lift"}


def test_split_int64_guard_at_its_boundary():
    # k (p - 1)^2 < 2^63 is the largest sum of k products of residues mod p;
    # at k = 2 the bound is met with equality by p - 1 = 2^31
    characters._check_split_exact(2, 2**31)
    with pytest.raises(ResourceLimitError, match="overflow"):
        characters._check_split_exact(2, 2**31 + 1)
    for k in (15, 322):
        p = isqrt((2**63 - 1) // k) + 1  # the largest p - 1 with k (p - 1)^2 < 2^63
        assert k * (p - 1) ** 2 < 2**63 <= k * p**2
        characters._check_split_exact(k, p)
        with pytest.raises(ResourceLimitError, match="overflow"):
            characters._check_split_exact(k, p + 1)
    # the split checks before any arithmetic, and before it draws a matrix
    def refused():
        raise AssertionError("the split drew a class matrix")
        yield

    with pytest.raises(ResourceLimitError):
        characters._common_eigenrows(2, refused(), 2**31 + 1)


def _ref_lift_table(chi_p, degrees, cd, group, m, p, z):
    """The lift with a Fourier inversion on every class, the reference for the one per unit orbit."""
    basis = _power_basis(m)
    out = np.empty((len(chi_p), cd.k, basis.shape[1]), dtype=np.int64)
    for j, rep in enumerate(cd.representatives):
        o = int(group.orders[rep])
        zeta_inv = pow(pow(z, m // o, p), p - 2, p)
        dft = np.array([[pow(zeta_inv, a * b, p) for b in range(o)] for a in range(o)], dtype=np.int64)
        mult = chi_p[:, cd.power_class[j, :o]] @ dft % p * pow(o, p - 2, p) % p
        assert (mult <= np.array(degrees)[:, None]).all()
        out[:, j] = mult @ basis[(m // o) * np.arange(o)]
    return out


@pytest.mark.parametrize("text", tuple(CORPUS) + LADDER + ("cyclic(120)", "product(cyclic(5),quaternion(8))"))
def test_lift_once_per_unit_orbit_matches_the_lift_of_every_class(text):
    group = build_group(GroupSpec.from_json(text))
    cd = conjugacy_classes(group)
    n, m = group.n, group.exponent
    p = characters._least_dixon_prime(n, m)
    z = _modp._element_of_order(m, p)
    rows = _split(class_matrices(group, cd).c % p, p)
    degrees, chi_p = characters._degrees_and_values(rows, cd, n, p)
    lifted = characters._lift_table(chi_p, degrees, cd, group, m, p, z)
    assert lifted.tolist() == _ref_lift_table(chi_p, degrees, cd, group, m, p, z).tolist()


def test_lift_refuses_a_multiplicity_above_the_degree():
    """S3's character of degree 2, given degree 1: on the identity class it has the eigenvalue 1 twice."""
    group = build_group(GroupSpec.from_json("symmetric(3)"))
    cd = conjugacy_classes(group)
    n, m = group.n, group.exponent
    p = characters._least_dixon_prime(n, m)
    rows = _split(class_matrices(group, cd).c % p, p)
    degrees, chi_p = characters._degrees_and_values(rows, cd, n, p)
    lowered = [1 if d == 2 else d for d in degrees]
    with pytest.raises(InternalConsistencyError, match="root-of-unity multiplicity 2 exceeds degree 1"):
        characters._lift_table(chi_p, lowered, cd, group, m, p, _modp._element_of_order(m, p))


def test_cyclic_120_table_matches_closed_form():
    n = 120
    g = build_group(GroupSpec.named("cyclic", n))
    cd = conjugacy_classes(g)
    assert cd.k == n
    table = dixon_character_table(g, cd)  # validated by the certificate
    assert verify_orthogonality(table, cd, n)
    ctx = get_context(n)
    # element b is g^b and class b is {g^b}, so chi_a(g^b) = z^(ab)
    assert cd.representatives == tuple(range(n))
    expected = {tuple(ctx.eta_power(a * b % n).coeffs for b in range(n)) for a in range(n)}
    got = {tuple(v.coeffs for v in row) for row in table.values}
    assert got == expected
    assert table.degrees == (1,) * n
