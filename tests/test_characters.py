import dataclasses
import itertools
import sys
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
from cayley_spectra.cyclotomic import _galois_matrix
from cayley_spectra.errors import InternalConsistencyError
from conftest import CORPUS, LADDER, multiplication_table


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

    def split(c, p):  # reversed, the sort gets its rows in the opposite order
        rows = real_split(c, p)
        return rows[::-1] if reverse else rows

    def lift(chi_p, degrees, *rest):
        lifted["degrees"], lifted["coeffs"] = degrees, real_lift(chi_p, degrees, *rest)
        return lifted["coeffs"]

    monkeypatch.setattr(characters, "_common_eigenrows", split)
    monkeypatch.setattr(characters, "_lift_table", lift)
    for text in [*CORPUS, *LADDER, "cyclic(120)"]:
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


def _lines_run(fn, *args):
    """fn(*args), and the numbers of the lines of characters.py that it ran."""
    ran = set()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != characters.__file__:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = fn(*args)
    finally:
        sys.settrace(old)
    return result, ran


def test_certificate_sums_in_python_integers_near_int64(corpus):
    """Coefficients near 2^62 send the L1 norm and the Galois products to
    their Python-integer branches, whose verdicts match the CycInt loops."""
    with open(characters.__file__) as f:
        source = list(enumerate(f, 1))
    (norm_branch,) = [i for i, line in source if "magnitudes = magnitudes.astype(object)" in line]
    (galois_branch,) = [i for i, line in source if "coeffs = coeffs.astype(object)" in line]
    group, cd, table = corpus["cyclic(5)"]
    units = unit_group(group.exponent)
    scaled = table.coefficients.astype(object)
    scaled[1] *= 2**62 // int(np.abs(scaled[1]).max())  # the Galois identity is linear in a row
    changed = _tampered(table, 1, 1, 0, 2**62 - int(table.coefficients[1, 1, 0]))
    cases = [(dataclasses.replace(table, coefficients=scaled), True), (changed, False)]
    for candidate, galois_holds in cases:
        assert int(np.abs(candidate.coefficients).max()) >= 2**62
        verdict, ran = _lines_run(verify_galois_character_identity, candidate, cd, units)
        assert verdict == galois_holds == _galois_identity_by_cycint_loop(candidate, cd, units)
        assert galois_branch in ran
        verdict, ran = _lines_run(verify_orthogonality, candidate, cd, group.n)
        assert not verdict and not _orthogonal_by_cycint_loops(candidate, cd, group.n)
        assert norm_branch in ran


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
        phi = table.values[0][0].ctx.degree
        first = choose(table.m, 1, max(phi, table.k))[0]
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


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 5040),
    n=st.integers(1, 5040),
    norm=st.integers(1, 10**12),
    k=st.integers(1, 400),
)
def test_certificate_primes_cover_the_bound_without_int64_overflow(m, n, norm, k):
    bound = n * norm * norm + n
    width = max(totient(m), k)
    primes = characters._certificate_primes(m, bound, width)
    assert prod(primes) > bound
    assert primes == sorted(set(primes), reverse=True)
    for q in primes:
        assert q % m == 1 % m
        assert width * q * q < 2**63
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


SPLIT_EXTRA = ("cyclic(40)", "cyclic(60)", "elementary-abelian(2,6)", "product(cyclic(6),cyclic(6))")


@pytest.mark.parametrize("text", tuple(CORPUS) + SPLIT_EXTRA)
def test_split_matches_list_reference(text):
    c, p = _class_tensor_mod(text)
    rows = characters._common_eigenrows(c, p)
    assert len(rows) == c.shape[0]
    assert sorted(rows) == sorted(_ref_common_eigenrows(c.tolist(), p))


def _counting_split(monkeypatch):
    """Count the roots the split meets and the per-root eliminations it runs."""
    counts = {"roots": 0, "eliminations": 0}
    real_roots, real_nullspace = characters._poly_roots, characters._left_nullspace

    def roots(coeffs, p):
        found = real_roots(coeffs, p)
        counts["roots"] += len(found)
        return found

    def nullspace(a, p):
        counts["eliminations"] += 1
        return real_nullspace(a, p)

    monkeypatch.setattr(characters, "_poly_roots", roots)
    monkeypatch.setattr(characters, "_left_nullspace", nullspace)
    return counts


@pytest.mark.parametrize("text", ("cyclic(40)", "cyclic(60)", "cyclic(120)"))
def test_split_takes_simple_roots_from_the_krylov_stack(text, monkeypatch):
    """Only the roots whose Krylov row is zero (about 1/p of them) fall back to elimination.

    Falling back on a whole space whenever one row is zero gives the same
    rows, so only this count shows it.
    """
    c, p = _class_tensor_mod(text)
    counts = _counting_split(monkeypatch)
    characters._common_eigenrows(c, p)
    assert counts["roots"] == c.shape[0]
    assert counts["eliminations"] < 0.1 * counts["roots"], counts


def test_split_by_krylov_rows_equals_the_per_root_elimination():
    """A zero start row leaves every root to elimination, the split before the Krylov stack."""
    c, p = _class_tensor_mod("cyclic(120)")
    fast = characters._common_eigenrows(c, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "_krylov_start", lambda r, p: np.zeros(r, dtype=np.int64))
        counts = _counting_split(mp)
        slow = characters._common_eigenrows(c, p)
    assert counts["eliminations"] == counts["roots"] == 120
    assert fast == slow


@pytest.mark.parametrize("text", ("cyclic(40)", "product(cyclic(6),cyclic(6))"))
def test_split_falls_back_per_root_when_krylov_rows_vanish(text, monkeypatch):
    """Started at an eigenvector, every other root's Krylov row is zero; each falls back alone.

    In an abelian group every class has size 1, so the all-ones row is a
    common eigenvector of the first space, the trivial character's.
    """
    c, p = _class_tensor_mod(text)
    expected = characters._common_eigenrows(c, p)
    monkeypatch.setattr(characters, "_krylov_start", lambda r, p: np.ones(r, dtype=np.int64))
    counts = _counting_split(monkeypatch)
    assert characters._common_eigenrows(c, p) == expected
    if text == "cyclic(40)":  # one space, 40 simple roots: only the trivial one is proved by its row
        assert counts["eliminations"] == counts["roots"] - 1 == 39


def test_split_sends_repeated_roots_straight_to_elimination(monkeypatch):
    """On 2^6 every space with r >= 4 has two roots of multiplicity r / 2, and no simple root.

    Those 31 spaces build no Krylov stack; the 32 spaces of two simple roots
    take both from theirs.  The 62 repeated roots are eliminated one by one.
    """
    c, p = _class_tensor_mod("elementary-abelian(2,6)")
    expected = characters._common_eigenrows(c, p)
    stacks = []
    krylov = characters._krylov_eigenrows

    def counted(restricted, charpoly, roots, q):
        stacks.append(len(roots))
        return krylov(restricted, charpoly, roots, q)

    monkeypatch.setattr(characters, "_krylov_eigenrows", counted)
    counts = _counting_split(monkeypatch)
    assert characters._common_eigenrows(c, p) == expected
    assert stacks == [2] * 32
    assert counts == {"roots": 126, "eliminations": 62}


def test_split_passes_spaces_where_a_class_matrix_is_scalar(monkeypatch):
    """On C6 x C6 (p = 13 < k = 36) a class matrix that acts as a scalar on a space splits nothing.

    Such a space is passed on without a characteristic polynomial: 7 spaces
    are visited for their roots, and 6 roots are eliminated (30 of each
    when every space is split by every class matrix it meets).
    """
    c, p = _class_tensor_mod("product(cyclic(6),cyclic(6))")
    expected = sorted(_ref_common_eigenrows(c.tolist(), p))
    visits = []
    charpoly = characters._modp.charpoly

    def counted(a, q):
        visits.append(len(a))
        return charpoly(a, q)

    monkeypatch.setattr(characters._modp, "charpoly", counted)
    counts = _counting_split(monkeypatch)
    assert sorted(characters._common_eigenrows(c, p)) == expected
    assert len(visits) == 7
    assert counts["eliminations"] == 6


def test_krylov_start_is_not_the_trivial_eigenvector():
    for r, p in ((2, 3), (36, 13), (120, 241)):
        u = characters._krylov_start(r, p)
        assert u.dtype == np.int64 and u.shape == (r,)
        assert ((0 <= u) & (u < p)).all()
        assert (u != 1).any()


@pytest.mark.parametrize("p", (3, 7))
def test_split_refuses_a_prime_that_does_not_split(p):
    # p has order 4 mod 5, so x^5 - 1 has the single root 1 over F_p
    c, _ = _class_tensor_mod("cyclic(5)")
    with pytest.raises(InternalConsistencyError, match="failed to split"):
        characters._common_eigenrows(c % p, p)
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
def test_rref_and_left_nullspace_match_list_reference(case):
    a, p = case
    rows, pivots = characters._rref(a, p)
    ref_rows, ref_pivots = _ref_rref(a.tolist(), p)
    assert rows.tolist() == ref_rows
    assert pivots == ref_pivots
    null = characters._left_nullspace(a, p)
    assert null.tolist() == _ref_nullspace(_ref_transpose(a.tolist()), p)
    assert not (null @ a % p).any()


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
    rows = characters._common_eigenrows(class_matrices(group, cd).c % p, p)
    degrees, chi_p = characters._degrees_and_values(rows, cd, group.n, p)
    ref_degrees, ref_chi_p = _ref_degrees_and_values(rows, cd, group.n, p)
    assert degrees == ref_degrees
    assert chi_p.dtype == np.int64 and chi_p.tolist() == ref_chi_p


def test_degree_recovery_refuses_rows_that_are_no_central_characters():
    group = build_group(GroupSpec.from_json("symmetric(4)"))
    cd = conjugacy_classes(group)
    n, p = group.n, characters._least_dixon_prime(group.n, group.exponent)
    rows = characters._common_eigenrows(class_matrices(group, cd).c % p, p)

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
    # the split checks before any arithmetic
    with pytest.raises(ResourceLimitError):
        characters._common_eigenrows(np.zeros((2, 2, 2), dtype=np.int64), 2**31 + 1)


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
