import copy
import dataclasses
import json
import tracemalloc
from fractions import Fraction
from math import comb, gcd

import numpy as np
import pytest
from conftest import CORPUS, LADDER, multiplication_table

from cayley_spectra import (
    GroupSpec,
    adjacency_matrix,
    batch_compare_spectra,
    batch_power_closed,
    batch_verify_spectrum_exact,
    build_group,
    class_sweep,
    compare_spectra,
    conjugacy_classes,
    dixon_character_table,
    eigenvalues_via_characters,
    integer_charpoly,
    make_connection_set,
    oracle_power_closed,
    oracle_spectrum,
    sweep_spectrum,
    verify_spectrum_exact,
)
from cayley_spectra import _modp, oracle
from cayley_spectra.cli import _approx, run
from cayley_spectra.cyclotomic import CycInt, _complex_parts, get_context, reduce_raw


def _bundle(text):
    g = build_group(GroupSpec.from_json(text))
    cd = conjugacy_classes(g)
    return g, cd, dixon_character_table(g, cd)


def test_adjacency_from_definition():
    g, cd, _ = _bundle("symmetric(3)")
    conn = make_connection_set({"classes": [1]}, g, cd)
    adj = adjacency_matrix(g, conn.elements)
    chosen = set(conn.elements)
    mul = multiplication_table(g)
    for a in range(g.n):
        for b in range(g.n):
            arc = int(mul[a, g.inv[b]]) in chosen
            assert adj[a, b] == (1 if arc else 0)


def test_adjacency_row_sums_equal_connection_size():
    g, cd, _ = _bundle("dihedral(5)")
    conn = make_connection_set("all-nonidentity", g, cd)
    adj = adjacency_matrix(g, conn.elements)
    assert (adj.sum(axis=0) == conn.size).all()
    assert (adj.sum(axis=1) == conn.size).all()


def test_adjacency_cap():
    g = build_group(GroupSpec.named("symmetric", 5))
    with pytest.raises(ValueError, match="cap"):
        adjacency_matrix(g, [1], cap=100)


def test_integer_charpoly_known_polynomials():
    # complete graph on 4 vertices: (x - 3)(x + 1)^3
    g, cd, _ = _bundle("cyclic(4)")
    conn = make_connection_set("all-nonidentity", g, cd)
    adj = adjacency_matrix(g, conn.elements)
    assert integer_charpoly(adj) == (-3, -8, -6, 0, 1)
    # directed 5-cycle: x^5 - 1
    g, cd, _ = _bundle("cyclic(5)")
    conn = make_connection_set({"classes": [1]}, g, cd)
    adj = adjacency_matrix(g, conn.elements)
    assert integer_charpoly(adj) == (-1, 0, 0, 0, 0, 1)
    # zero matrix: x^n
    assert integer_charpoly(np.zeros((3, 3), dtype=np.int64)) == (0, 0, 0, 1)


def test_integer_charpoly_against_numpy_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = int(rng.integers(1, 7))
        mat = rng.integers(-3, 4, size=(n, n))
        exact = integer_charpoly(mat)
        approx = np.poly(mat.astype(float))[::-1]
        assert np.allclose([float(c) for c in exact], approx, atol=1e-6)


def _bareiss_det(mat):
    """Determinant over Z by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _reference_charpoly(mat):
    """det(xI - A) sampled at x = 0..n by Bareiss, rebuilt by Newton interpolation."""
    n = len(mat)
    samples = [
        _bareiss_det([[(t if i == j else 0) - int(mat[i][j]) for j in range(n)] for i in range(n)])
        for t in range(n + 1)
    ]
    table = [[Fraction(s) for s in samples]]
    for level in range(1, n + 1):
        prev = table[-1]
        table.append([(prev[i + 1] - prev[i]) / level for i in range(len(prev) - 1)])
    poly = [table[n][0]]
    for level in range(n - 1, -1, -1):
        expanded = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            expanded[i + 1] += c
            expanded[i] -= c * level
        expanded[0] += table[level][0]
        poly = expanded
    assert all(c.denominator == 1 for c in poly)
    return tuple(int(c) for c in poly)


def _sequential_report(sp, charpoly):
    """The product identity built one linear factor (den*x - num) at a time."""
    ctx = get_context(sp.entries[0].value.numerator.ctx.m)
    poly = [ctx.one]
    scale = 1
    for e in sp.entries:
        num, den = e.value.numerator, e.value.denominator
        g = den
        for c in num.coeffs:
            g = gcd(g, c)
        num, den = CycInt(ctx, tuple(c // g for c in num.coeffs)), den // g
        for _ in range(e.multiplicity):
            out = [ctx.zero] * (len(poly) + 1)
            for i, c in enumerate(poly):
                out[i + 1] = out[i + 1] + c * den
                out[i] = out[i] - c * num
            poly = out
            scale *= den
    degree = len(poly) - 1
    if len(poly) != len(charpoly):
        return oracle.ExactSpectrumReport(passed=False, degree=degree)
    for i, c in enumerate(charpoly):
        if poly[i] != ctx.from_int(c * scale):
            return oracle.ExactSpectrumReport(passed=False, degree=degree, mismatch_power=i)
    return oracle.ExactSpectrumReport(passed=True, degree=degree)


def test_integer_charpoly_against_bareiss_reference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(0, 31))
        mat = rng.integers(-3, 4, size=(n, n))
        assert integer_charpoly(mat) == _reference_charpoly(mat.tolist())


def test_integer_charpoly_joins_several_primes(monkeypatch):
    primes = []
    real = _modp.charpoly

    def spy(mat, p):
        primes.append(p)
        return real(mat, p)

    monkeypatch.setattr(_modp, "charpoly", spy)
    rng = np.random.default_rng(13)
    for n in (1, 2, 5, 9):
        primes.clear()
        mat = rng.integers(-(10**6), 10**6 + 1, size=(n, n))
        assert integer_charpoly(mat) == _reference_charpoly(mat.tolist())
        assert len(primes) == len(set(primes))
        assert all(2**30 < p < 2**31 for p in primes)
        if n > 1:
            assert len(primes) > 1


def _spectra_of(text):
    g, cd, table = _bundle(text)
    for mask in range(1 << (cd.k - 1)):
        classes = [j for j in range(1, cd.k) if mask >> (j - 1) & 1]
        conn = make_connection_set({"classes": classes}, g, cd)
        yield eigenvalues_via_characters(conn, table, cd), adjacency_matrix(g, conn.elements)


def _tampered(sp):
    """Every +-1 change to one coefficient of one eigenvalue, and every move
    of one unit of multiplicity between two entries with different values."""
    entries = list(sp.entries)
    for r, e in enumerate(entries):
        num = e.value.numerator
        for t in range(len(num.coeffs)):
            for step in (1, -1):
                coeffs = list(num.coeffs)
                coeffs[t] += step
                value = dataclasses.replace(e.value, numerator=CycInt(num.ctx, tuple(coeffs)))
                yield entries[:r] + [dataclasses.replace(e, value=value)] + entries[r + 1 :]
    for a, source in enumerate(entries):
        for b, target in enumerate(entries):
            x, y = source.value, target.value
            if x.numerator * y.denominator == y.numerator * x.denominator:
                continue  # equal values: the multiset does not change
            moved = list(entries)
            moved[a] = dataclasses.replace(source, multiplicity=source.multiplicity - 1)
            moved[b] = dataclasses.replace(target, multiplicity=target.multiplicity + 1)
            yield moved


@pytest.mark.parametrize("text", ["symmetric(3)", "quaternion(8)", "dihedral(6)"])
def test_exact_verification_rejects_every_small_tampering(text):
    for sp, adj in _spectra_of(text):
        charpoly = integer_charpoly(adj)
        assert verify_spectrum_exact(sp, adj, charpoly) == _sequential_report(sp, charpoly)
        for entries in _tampered(sp):
            tampered = dataclasses.replace(sp, entries=tuple(entries))
            report = verify_spectrum_exact(tampered, adj, charpoly)
            assert not report.passed
            assert report.mismatch_power is not None
            assert report == _sequential_report(tampered, charpoly)


def test_exact_verification_accepts_true_spectra():
    for text in ("symmetric(4)", "quaternion(8)", "dihedral(6)"):
        g, cd, table = _bundle(text)
        conn = make_connection_set("all-nonidentity", g, cd)
        sp = eigenvalues_via_characters(conn, table, cd)
        adj = adjacency_matrix(g, conn.elements)
        report = verify_spectrum_exact(sp, adj)
        assert report.passed
        assert report.degree == g.n
        assert report.mismatch_power is None


def test_exact_verification_rejects_tampered_spectrum():
    g, cd, table = _bundle("symmetric(3)")
    conn = make_connection_set({"classes": [1]}, g, cd)
    sp = eigenvalues_via_characters(conn, table, cd)
    adj = adjacency_matrix(g, conn.elements)
    entries = list(sp.entries)
    swapped = dataclasses.replace(
        entries[2], value=entries[0].value, degree=entries[0].degree
    )
    tampered = dataclasses.replace(sp, entries=(entries[0], entries[1], swapped))
    report = verify_spectrum_exact(tampered, adj)
    assert not report.passed
    assert report.mismatch_power is not None
    # the degree still adds up, but a multiplicity is negative
    lent = (
        dataclasses.replace(entries[0], multiplicity=-1),
        dataclasses.replace(entries[1], multiplicity=entries[1].multiplicity + 2),
        entries[2],
    )
    report = verify_spectrum_exact(dataclasses.replace(sp, entries=lent), adj)
    assert report == oracle.ExactSpectrumReport(passed=False, degree=g.n)


def test_exact_verification_drops_a_prime_that_divides_a_denominator():
    """One value written as (q num) / (q d), q the first prime the per-set check takes: q divides the scale and has no inverse."""
    g, cd, table = _bundle("symmetric(3)")
    conn = make_connection_set({"classes": [2]}, g, cd)
    sp = eigenvalues_via_characters(conn, table, cd)
    adj = adjacency_matrix(g, conn.elements)
    charpoly = integer_charpoly(adj)
    ctx = sp.entries[0].value.numerator.ctx
    q = _modp._certificate_primes(ctx.m, 1, g.n + 1)[0]
    r = max(range(len(sp.entries)), key=lambda i: sp.entries[i].degree)
    value = sp.entries[r].value
    coeffs = [q * c for c in value.numerator.coeffs]

    def claim(coeffs):
        scaled = dataclasses.replace(value, numerator=CycInt(ctx, tuple(coeffs)), denominator=q * value.denominator)
        entries = list(sp.entries)
        entries[r] = dataclasses.replace(entries[r], value=scaled)
        return dataclasses.replace(sp, entries=tuple(entries))

    assert verify_spectrum_exact(claim(coeffs), adj, charpoly) == oracle.ExactSpectrumReport(passed=True, degree=g.n)
    for t in range(len(coeffs)):
        for step in (1, -1):
            tampered = claim(coeffs[:t] + [coeffs[t] + step] + coeffs[t + 1 :])
            report = verify_spectrum_exact(tampered, adj, charpoly)
            assert not report.passed
            assert report == _sequential_report(tampered, charpoly)


def test_compare_spectra_handles_conjugate_pairs():
    # the 5th roots of unity: conjugate pairs share a real part exactly,
    # which defeats naive lexicographic pairing of noisy floats
    g, cd, table = _bundle("cyclic(5)")
    conn = make_connection_set({"classes": [1]}, g, cd)
    sp = eigenvalues_via_characters(conn, table, cd)
    adj = adjacency_matrix(g, conn.elements)
    res = compare_spectra(sp, oracle_spectrum(adj))
    assert res.passed
    assert res.max_distance < 1e-10
    assert res.size == 5


def test_compare_spectra_flags_perturbation():
    g, cd, table = _bundle("symmetric(3)")
    conn = make_connection_set({"classes": [1]}, g, cd)
    sp = eigenvalues_via_characters(conn, table, cd)
    numeric = list(oracle_spectrum(adjacency_matrix(g, conn.elements)))
    numeric[0] += 1e-4
    res = compare_spectra(sp, numeric, tolerance=1e-8)
    assert not res.passed
    assert res.worst_index is not None
    assert res.max_distance > 1e-5


def test_compare_spectra_size_mismatch():
    g, cd, table = _bundle("symmetric(3)")
    conn = make_connection_set({"classes": [1]}, g, cd)
    sp = eigenvalues_via_characters(conn, table, cd)
    with pytest.raises(ValueError, match="size mismatch"):
        compare_spectra(sp, [0.0, 1.0])


def test_oracle_power_closed():
    g = build_group(GroupSpec.named("cyclic", 6))
    assert not oracle_power_closed({1}, g)
    assert oracle_power_closed({1, 5}, g)
    assert oracle_power_closed({0}, g)
    assert oracle_power_closed(set(), g)
    # every single conjugacy class of the quaternion group is power closed:
    # x and x^-1 are always conjugate there
    from cayley_spectra import is_power_closed

    q8 = build_group(GroupSpec.named("quaternion", 8))
    cd = conjugacy_classes(q8)
    for j in range(cd.k):
        members = set(cd.classes[j])
        assert oracle_power_closed(members, q8)
        assert is_power_closed(members, q8)


def test_float_oracle_matches_characters_on_sample(corpus):
    for text in ("dihedral(8)", "alternating(5)", "product(cyclic(3),cyclic(3))"):
        group, cd, table = corpus[text]
        conn = make_connection_set("all-nonidentity", group, cd)
        sp = eigenvalues_via_characters(conn, table, cd)
        adj = adjacency_matrix(group, conn.elements)
        assert compare_spectra(sp, oracle_spectrum(adj)).passed


# ---------------------------------------------------------------------------
# the batched oracles against the per-subset ones
#
# _parent_verify_spectrum_exact is the exact check as it was before the
# modular product: the claimed product expanded in CycInt arithmetic, one
# binomial factor per distinct value, compared with the integer charpoly.

TOLERANCE = 1e-8


def _canonical_value(num, den):
    g = den
    for c in num.coeffs:
        g = gcd(g, c)
        if g == 1:
            break
    g = max(g, 1)
    return CycInt(num.ctx, tuple(c // g for c in num.coeffs)), den // g


def _binomial_power(den, num, mult):
    """Coefficients of (den*x - num)^mult, low degree first."""
    powers = [num.ctx.one]  # (-num)^i
    for _ in range(mult):
        powers.append(powers[-1] * -num)
    return [powers[mult - j] * (comb(mult, j) * den**j) for j in range(mult + 1)]


def _poly_product(a, b):
    """Product of CycInt polynomials, summed unreduced and reduced once per coefficient."""
    ctx = a[0].ctx
    terms = [[(t, c) for t, c in enumerate(y.coeffs) if c] for y in b]
    raw = [[0] * (2 * ctx.degree - 1) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for s, c in enumerate(x.coeffs):
            if c:
                for j, ys in enumerate(terms):
                    acc = raw[i + j]
                    for t, d in ys:
                        acc[s + t] += c * d
    return [reduce_raw(r, ctx) for r in raw]


def _parent_verify_spectrum_exact(sp, charpoly):
    groups = {}
    ctx = get_context(sp.entries[0].value.numerator.ctx.m)
    for e in sp.entries:
        num, den = _canonical_value(e.value.numerator, e.value.denominator)
        key = (den, num.coeffs)
        groups[key] = groups.get(key, 0) + e.multiplicity
    poly = [ctx.one]
    scale = 1
    for (den, coeffs), mult in sorted(groups.items()):
        poly = _poly_product(poly, _binomial_power(den, CycInt(ctx, coeffs), mult))
        scale *= den**mult
    if len(poly) != len(charpoly):
        return oracle.ExactSpectrumReport(passed=False, degree=len(poly) - 1)
    for i, c in enumerate(charpoly):
        if poly[i] != ctx.from_int(int(c) * scale):
            return oracle.ExactSpectrumReport(passed=False, degree=len(poly) - 1, mismatch_power=i)
    return oracle.ExactSpectrumReport(passed=True, degree=len(poly) - 1)


def _sweep_of(corpus, text):
    group, cd, table = corpus[text]
    sweep = class_sweep(group, cd, table)
    return group, table, sweep, sweep.masks.astype(bool)[:, cd.class_of]


def _claims(sweep, numerators=None):
    """(numerators, degrees, m) as the batched oracles take them."""
    if numerators is None:
        numerators = sweep.numerators
    return numerators, sweep.table.degrees, sweep.table.m


def _with_numerators(sweep, numerators):
    given = copy.copy(sweep)
    given.numerators = numerators
    return given


def test_batched_oracles_match_per_subset_oracles_on_the_corpus(corpus):
    """Every subset of every corpus group: float, exact and naive verdicts equal the per-subset ones.

    The CycInt reference runs wherever a group's sweep costs it under about
    0.3 s (order <= 24, at most 2^8 subsets); cyclic(10), cyclic(11),
    cyclic(12) and alternating(5) would take it 12 s.  There every
    spectrum is true, and the per-subset check passes each of them (see
    test_spectra_match_float_oracle_and_exact_backend), so the batch must
    pass every subset.
    """
    for text in CORPUS:
        group, table, sweep, members = _sweep_of(corpus, text)
        floats = batch_compare_spectra(group, members, *_claims(sweep), TOLERANCE)
        exact = batch_verify_spectrum_exact(group, members, *_claims(sweep))
        naive = batch_power_closed(group, members)
        reference = group.n <= 24 and len(members) <= 256
        for s, subset in enumerate(sweep.subsets):
            elements = np.flatnonzero(members[s])
            sp = sweep_spectrum(sweep, s)
            adj = adjacency_matrix(group, elements)
            numeric = oracle_spectrum(adj)
            assert floats[s] == compare_spectra(sp, numeric, TOLERANCE).passed, (text, subset)
            assert naive[s] == oracle_power_closed(elements, group), (text, subset)
            if reference:
                charpoly = integer_charpoly(adj)
                assert exact[s] == _parent_verify_spectrum_exact(sp, charpoly).passed, (text, subset)
        assert exact.all(), text


def test_claimed_floats_are_the_floats_compare_spectra_matches(corpus, capsys):
    for text in CORPUS:
        group, table, sweep, members = _sweep_of(corpus, text)
        nums, degrees, m = _claims(sweep)
        re, im = _complex_parts(nums, m)
        re, im = re / np.array(degrees), im / np.array(degrees)  # as batch_compare_spectra forms them
        for s in range(len(nums)):
            for r, entry in enumerate(sweep_spectrum(sweep, s).entries):
                v = entry.value.to_complex()
                assert (re[s, r], im[s, r]) == (v.real, v.imag), (text, s, r)
    # character-table's floats come from the same array call
    for text in [*CORPUS, *LADDER, "cyclic(120)"]:
        assert run(["character-table", "--group", text]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        table = corpus[text][2] if text in corpus else _bundle(text)[2]
        expected = [[_approx(v.to_complex()) for v in row] for row in table.values]
        assert [[cell["approx"] for cell in row] for row in rows] == expected, text


@pytest.mark.parametrize(
    "text", ["symmetric(3)", "quaternion(8)", "dihedral(6)", "symmetric(4)", "cyclic(12)"]
)
def test_batched_exact_fails_exactly_the_subset_with_a_changed_coefficient(corpus, text):
    group, table, sweep, members = _sweep_of(corpus, text)
    rng = np.random.default_rng(len(text))
    count, k, phi = sweep.numerators.shape
    for _ in range(4):
        s, r, e = int(rng.integers(count)), int(rng.integers(k)), int(rng.integers(phi))
        for delta in (1, -1):
            nums = sweep.numerators.copy()
            nums[s, r, e] += delta
            verdicts = batch_verify_spectrum_exact(group, members, *_claims(sweep, nums))
            assert verdicts.tolist() == [t != s for t in range(count)], (s, r, e, delta)
            if group.n <= 24 and k <= 8:
                sp = sweep_spectrum(_with_numerators(sweep, nums), s)
                adj = adjacency_matrix(group, np.flatnonzero(members[s]))
                assert not _parent_verify_spectrum_exact(sp, integer_charpoly(adj)).passed


def test_exact_checks_reject_a_change_by_the_first_prime(corpus, monkeypatch):
    """A change by the first modulus is invisible to it; the later primes must see it."""
    primes = []
    choose = _modp._certificate_primes

    def spy(*args):
        primes.append(choose(*args))
        return primes[-1]

    monkeypatch.setattr(_modp, "_certificate_primes", spy)
    group, table, sweep, members = _sweep_of(corpus, "dihedral(6)")
    assert batch_verify_spectrum_exact(group, members, *_claims(sweep)).all()
    first = primes[0][0]
    assert len(primes[0]) > 1
    s = 5
    nums = sweep.numerators.copy()
    nums[s, 2, 0] += first
    verdicts = batch_verify_spectrum_exact(group, members, *_claims(sweep, nums))
    assert verdicts.tolist() == [t != s for t in range(len(members))]
    sp = sweep_spectrum(_with_numerators(sweep, nums), s)
    report = verify_spectrum_exact(sp, adjacency_matrix(group, np.flatnonzero(members[s])))
    assert not report.passed and report.mismatch_power is not None
    assert primes[-1][0] == first


def test_a_walk_from_the_identity_counts_the_closed_walks_of_every_vertex(corpus):
    """n (A^j)[e, e] = tr(A^j) in Python integers for every j <= n, and _closed_walks gives its residues.

    g -> g x maps arcs to arcs, so every vertex lies on as many closed
    walks of each length.  The rows are sampled from every sweep of order
    <= 24, with each one's inverse set.
    """
    pairs = 0
    for text in CORPUS:
        group, table, sweep, members = _sweep_of(corpus, text)
        n = group.n
        if n > 24:
            continue
        picked = range(0, len(members), max(1, len(members) // 3))
        sample = sorted({t for s in picked for t in (s, _partner(group, members, s))})
        pairs += sum(_partner(group, members, s) != s for s in sample)
        stack = oracle.adjacency_stack(group, members[sample])
        primes = _modp._certificate_primes(table.m, 10**20, n + 1)
        walks = oracle._closed_walks(stack, primes)
        for i, adjacency in enumerate(stack):
            matrix = adjacency.astype(object)
            power = np.identity(n, dtype=object)
            for j in range(1, n + 1):
                power = power @ matrix
                trace = sum(power[g, g] for g in range(n))
                assert n * power[0, 0] == trace, (text, sample[i], j)
                assert walks[j - 1, :, i].tolist() == [trace % q for q in primes], (text, sample[i], j)
    assert pairs


def test_batched_exact_fails_a_value_that_is_no_algebraic_integer(corpus):
    """A numerator that its degree does not divide fails the row, though num // d gives the true power sums.

    The degree-2 character of S3 has an even numerator; adding 1 leaves
    num // 2 as it was, so only the divisibility test can see the change.
    """
    group, table, sweep, members = _sweep_of(corpus, "symmetric(3)")
    r = table.degrees.index(2)
    s = len(members) - 1
    nums = sweep.numerators.copy()
    assert nums[s, r, 0] % 2 == 0
    nums[s, r, 0] += 1
    assert (nums // np.array(table.degrees)[:, None] == sweep.numerators // np.array(table.degrees)[:, None]).all()
    verdicts = batch_verify_spectrum_exact(group, members, *_claims(sweep, nums))
    assert verdicts.tolist() == [t != s for t in range(len(members))]
    sp = sweep_spectrum(_with_numerators(sweep, nums), s)
    assert not verify_spectrum_exact(sp, adjacency_matrix(group, np.flatnonzero(members[s]))).passed


def test_batched_exact_bound_carries_no_power_of_the_degrees(corpus, monkeypatch):
    """B = n max(1, max|C|)^n + n max(1, max |num / d|_1)^n: symmetric(4) takes 4 primes, not the 7 of L^n B."""
    bounds = []
    choose = _modp._certificate_primes

    def spy(m, bound, width):
        bounds.append((bound, len(choose(m, bound, width))))
        return choose(m, bound, width)

    monkeypatch.setattr(_modp, "_certificate_primes", spy)
    group, table, sweep, members = _sweep_of(corpus, "symmetric(4)")
    assert batch_verify_spectrum_exact(group, members, *_claims(sweep)).all()
    n = group.n
    degrees = np.array(table.degrees)
    nu = int((np.abs(sweep.numerators).sum(axis=2) // degrees).max())
    largest = int(members.sum(axis=1).max())
    assert bounds == [(n * max(1, largest) ** n + n * max(1, nu) ** n, 4)]


def test_a_claim_that_differs_only_in_the_last_power_sum_is_rejected(corpus):
    """Cay(C2, {1}) has eigenvalues 1 and -1.  The claim 0, 0 has their p_1 = 0 but p_2 = 0, not 2."""
    group, table, sweep, members = _sweep_of(corpus, "cyclic(2)")
    (s,) = np.flatnonzero((members == [False, True]).all(axis=1))
    rows = members[[s]]
    truth = sweep.numerators[[s]]
    assert truth[0, :, 0].tolist() == [1, -1] and table.degrees == (1, 1)
    assert batch_verify_spectrum_exact(group, rows, *_claims(sweep, truth)).tolist() == [True]
    assert batch_verify_spectrum_exact(group, rows, *_claims(sweep, np.zeros_like(truth))).tolist() == [False]


def _short_kernel_vector(w, q):
    """A short (a, b) != 0 with a + b w = 0 (mod q), by Lagrange-Gauss reduction of that lattice's basis."""

    def norm(x):
        return x[0] * x[0] + x[1] * x[1]

    u, v = sorted([(q, 0), (-w % q, 1)], key=norm, reverse=True)
    while True:
        t = round(Fraction(u[0] * v[0] + u[1] * v[1], norm(v)))
        u = (u[0] - t * v[0], u[1] - t * v[1])
        if norm(u) >= norm(v):
            return v
        u, v = v, u


def test_a_change_invisible_at_one_embedding_is_seen_at_another(corpus, monkeypatch):
    """At one prime q, the change delta = a + b z with a + b w = 0 (mod q) vanishes under z -> w, and z -> w^2 sees it."""
    primes = []
    choose = _modp._certificate_primes

    def first_only(*args):
        primes.append(choose(*args)[:1])
        return primes[-1]

    monkeypatch.setattr(_modp, "_certificate_primes", first_only)
    group, table, sweep, members = _sweep_of(corpus, "cyclic(3)")
    assert table.m == 3 and sweep.numerators.shape[2] == 2
    assert batch_verify_spectrum_exact(group, members, *_claims(sweep)).all()
    (q,) = primes[0]
    w = _modp._element_of_order(3, q)
    a, b = _short_kernel_vector(w, q)
    assert (a + b * w) % q == 0 and (a + b * w * w) % q != 0 and max(abs(a), abs(b)) < 2**20
    s = 1
    nums = sweep.numerators.copy()
    nums[s, 1] += (a, b)
    verdicts = batch_verify_spectrum_exact(group, members, *_claims(sweep, nums))
    assert primes[-1] == [q]
    assert verdicts.tolist() == [t != s for t in range(len(members))]


def _shift_one_eigenvalue(monkeypatch, target, shift):
    """Make eigvals move one eigenvalue of the stack's matrix equal to target by shift."""
    real = np.linalg.eigvals

    def shifted(a):
        out = real(a)
        for i in range(len(out)):
            if (a[i] == target).all():
                out[i, 0] += shift
        return out

    monkeypatch.setattr(np.linalg, "eigvals", shifted)


def _shift_one_joint_eigenvalue(monkeypatch, atom, shift):
    """Move the first joint eigenvalue of one atom by shift once the sweep's basis is certified; the list returned gets the column of rows that hold the atom."""
    real = oracle._joint_spectrum
    held = []

    def shifted(*args):
        atoms, values = real(*args)
        values = values.copy()
        values[atom, 0] += shift
        held.append(atoms[:, atom])
        return atoms, values

    monkeypatch.setattr(oracle, "_joint_spectrum", shifted)
    return held


def _colliding_weights(monkeypatch):
    """Give every atom the weight 1, so that the joint eigenbasis is not separated and the float check falls back to eigvals."""
    monkeypatch.setattr(oracle, "_weights", np.ones)


def _partner(group, members, s):
    """The row whose element set is the inverse of row s's."""
    return int(np.flatnonzero((members == members[s, group.inv]).all(axis=1))[0])


@pytest.mark.parametrize("text", ["cyclic(5)", "dihedral(6)", "alternating(4)"])
def test_batched_float_fails_a_numeric_eigenvalue_moved_by_ten_tolerances(corpus, monkeypatch, text):
    """A moved numeric eigenvalue fails exactly the rows whose values it enters.

    On the joint path, a joint eigenvalue of one atom enters every row that
    holds the atom, and an atom of a class sweep is one class: its column is
    the membership column of the class's elements.  On the per-pair path,
    an eigenvalue of the one matrix solved for a pair of inverse sets enters
    both rows of the pair.  Row 1 holds class 1 alone, which is its own
    inverse only in dihedral(6); the last row holds every class and is its
    own inverse.
    """
    group, table, sweep, members = _sweep_of(corpus, text)
    claims = _claims(sweep)
    atoms = oracle._joint_spectrum(group, members, TOLERANCE)[0]
    assert atoms.shape[1] == table.k - 1
    for atom in range(atoms.shape[1]):
        with monkeypatch.context() as patch:
            held = _shift_one_joint_eigenvalue(patch, atom, 10 * TOLERANCE)
            verdicts = batch_compare_spectra(group, members, *claims, TOLERANCE)
        (column,) = held
        assert any((members[:, g] == column).all() for g in range(group.n)), atom
        assert column.any() and not column.all()
        assert verdicts.tolist() == (~column).tolist(), atom
    pairs = 0
    for s in (1, len(members) - 1):
        partner = _partner(group, members, s)
        pairs += partner != s
        with monkeypatch.context() as patch:
            _colliding_weights(patch)
            target = oracle.adjacency_stack(group, members[min(s, partner) : min(s, partner) + 1])[0]
            _shift_one_eigenvalue(patch, target, 10 * TOLERANCE)
            verdicts = batch_compare_spectra(group, members, *claims, TOLERANCE)
        assert verdicts.tolist() == [t not in (s, partner) for t in range(len(members))], s
    assert pairs == (text != "dihedral(6)")


def _shapes_spy(monkeypatch, name):
    """Record the shape of the array passed to every call of np.linalg.<name>."""
    shapes = []
    real = getattr(np.linalg, name)

    def spy(a):
        shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, name, spy)
    return shapes


def _calls_spy(monkeypatch, module, name):
    """Count the calls of module.<name>."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_the_cyclic_12_sweep_solves_one_matrix_per_pair_of_inverse_sets(corpus, monkeypatch):
    """2,048 subsets: 64 are their own inverse and 1,984 form 992 pairs, so 1,056 matrices.

    The exact check walks each of those matrices for every prime, and the
    float check's per-pair path solves each with eigvals; the joint path
    makes one eigh of one 12 x 12 matrix and no eigvals call.
    """
    group, table, sweep, members = _sweep_of(corpus, "cyclic(12)")
    eighs = _shapes_spy(monkeypatch, "eigh")
    stacks = _shapes_spy(monkeypatch, "eigvals")
    assert batch_compare_spectra(group, members, *_claims(sweep), TOLERANCE).all()
    assert eighs == [(12, 12)] and stacks == []
    with monkeypatch.context() as patch:
        _colliding_weights(patch)
        assert batch_compare_spectra(group, members, *_claims(sweep), TOLERANCE).all()
    assert sum(shape[0] for shape in stacks) == 1056
    walks = []
    real = oracle._closed_walks

    def spy(stack, primes):
        out = real(stack, primes)
        walks.append((len(stack), tuple(primes), out.shape))
        return out

    monkeypatch.setattr(oracle, "_closed_walks", spy)
    assert batch_verify_spectrum_exact(group, members, *_claims(sweep)).all()
    (primes,) = {p for _, p, _ in walks}
    assert all(shape == (12, len(primes), size) for size, _, shape in walks)
    assert sum(size for size, _, _ in walks) == 1056


def _greedy_distance(exact, numeric):
    """The largest distance of compare_spectra's greedy matching of two numeric multisets."""
    pool = list(numeric)
    worst = 0.0
    for a in exact:
        j = min(range(len(pool)), key=lambda t: abs(pool[t] - a))
        worst = max(worst, abs(pool.pop(j) - a))
    return worst


def test_every_corpus_sweep_takes_the_joint_path(corpus, monkeypatch):
    """At the default tolerance the joint eigenbasis is certified on all 28 sweeps, no eigvals runs, and every row's values are within tolerance / 64 of eigvals'."""
    for text in CORPUS:
        group, table, sweep, members = _sweep_of(corpus, text)
        atoms, values = oracle._joint_spectrum(group, members, TOLERANCE)
        assert atoms.shape == (len(members), table.k - 1), text
        with monkeypatch.context() as patch:
            stacks = _shapes_spy(patch, "eigvals")
            assert batch_compare_spectra(group, members, *_claims(sweep), TOLERANCE).all(), text
        assert stacks == [], text
        for s in range(0, len(members), max(1, len(members) // 64)):
            numeric = oracle_spectrum(adjacency_matrix(group, np.flatnonzero(members[s])))
            assert _greedy_distance(atoms[s] @ values, numeric) <= TOLERANCE / 64, (text, s)


def _per_row_float(group, sweep, members, s, nums):
    """compare_spectra's verdict on row s's claim against eigvals of row s's matrix."""
    sp = sweep_spectrum(_with_numerators(sweep, nums), s)
    return compare_spectra(sp, oracle_spectrum(adjacency_matrix(group, np.flatnonzero(members[s]))), TOLERANCE).passed


@pytest.mark.parametrize("text", ["cyclic(5)", "dihedral(6)", "symmetric(4)", "alternating(5)"])
def test_colliding_weights_fall_back_to_the_per_pair_path(corpus, monkeypatch, text):
    """Equal weights give one eigenspace of H to every nontrivial character; the residual bound sees it, and the per-pair path gives the per-row verdicts."""
    group, table, sweep, members = _sweep_of(corpus, text)
    nums = sweep.numerators.copy()
    bad = [1, len(nums) - 1]
    nums[bad, -1, 0] += 1
    _colliding_weights(monkeypatch)
    assert oracle._joint_spectrum(group, members, TOLERANCE) is None
    verdicts = batch_compare_spectra(group, members, *_claims(sweep, nums), TOLERANCE)
    expected = [_per_row_float(group, sweep, members, s, nums) for s in range(len(members))]
    assert verdicts.tolist() == expected == [s not in bad for s in range(len(members))]


@pytest.mark.parametrize("text", ["symmetric(3)", "dihedral(4)", "alternating(4)", "symmetric(4)"])
def test_rows_that_are_not_unions_of_classes_fall_back_to_the_per_pair_path(corpus, text):
    """A row that holds part of a class makes an atom that is not closed under conjugation, so the sweep takes eigvals, and each row still gets its per-row verdict."""
    group, table, sweep, members = _sweep_of(corpus, text)
    members = members.copy()
    changed = 0
    for s in range(1, len(members), 2):
        # drop one element whose class has more than one element
        held = np.flatnonzero(members[s]).tolist()
        g = next((g for g in held if len(set(group.conjugates(g).tolist())) > 1), None)
        if g is not None:
            members[s, g] = False
            changed += 1
    assert changed
    assert oracle._joint_spectrum(group, members, TOLERANCE) is None
    verdicts = batch_compare_spectra(group, members, *_claims(sweep), TOLERANCE)
    expected = [_per_row_float(group, sweep, members, s, sweep.numerators) for s in range(len(members))]
    assert verdicts.tolist() == expected
    assert not all(expected)


def test_adjacency_stack_of_the_inverse_sets_is_the_transpose(corpus):
    """A(C^-1) = A(C)^T on every subset of every corpus group."""
    for text in CORPUS:
        group, table, sweep, members = _sweep_of(corpus, text)
        stack = oracle.adjacency_stack(group, members)
        assert (oracle.adjacency_stack(group, members[:, group.inv]) == stack.transpose(0, 2, 1)).all(), text


def _per_row_verdicts(group, sweep, members, s, nums):
    """The per-row compare_spectra and verify_spectrum_exact verdicts on row s's claim."""
    sp = sweep_spectrum(_with_numerators(sweep, nums), s)
    adj = adjacency_matrix(group, np.flatnonzero(members[s]))
    return compare_spectra(sp, oracle_spectrum(adj), TOLERANCE).passed, verify_spectrum_exact(sp, adj).passed


@pytest.mark.parametrize("text", ["cyclic(12)", "alternating(4)", "cyclic(8)"])
def test_a_claim_changed_on_the_row_that_is_not_solved_is_rejected(corpus, text):
    """Only the numeric work is shared by a pair of inverse sets: each row's own claim is still checked."""
    group, table, sweep, members = _sweep_of(corpus, text)
    rng = np.random.default_rng(len(text))
    count, k, phi = sweep.numerators.shape
    later = [s for s in range(count) if _partner(group, members, s) < s]
    assert later
    for s in rng.choice(later, size=min(3, len(later)), replace=False).tolist():
        r, e = int(rng.integers(k)), int(rng.integers(phi))
        nums = sweep.numerators.copy()
        nums[s, r, e] += 1
        expected = [t != s for t in range(count)]
        assert batch_verify_spectrum_exact(group, members, *_claims(sweep, nums)).tolist() == expected
        assert batch_compare_spectra(group, members, *_claims(sweep, nums), TOLERANCE).tolist() == expected
        assert _per_row_verdicts(group, sweep, members, s, nums) == (False, False)


def test_overlapping_balls_fall_back_to_compare_spectra(corpus, monkeypatch):
    wide = 0.6  # balls of values 1.2 apart or less overlap
    fallbacks = []
    real = oracle.compare_spectra

    def spy(sp, numeric, tolerance):
        fallbacks.append(sp)
        return real(sp, numeric, tolerance)

    monkeypatch.setattr(oracle, "compare_spectra", spy)
    for text in ("cyclic(5)", "cyclic(7)", "dihedral(8)"):
        group, table, sweep, members = _sweep_of(corpus, text)
        fallbacks.clear()
        verdicts = batch_compare_spectra(group, members, *_claims(sweep), wide)
        expected_fallbacks = []
        for s in range(len(members)):
            sp = sweep_spectrum(sweep, s)
            adj = adjacency_matrix(group, np.flatnonzero(members[s]))
            assert verdicts[s] == real(sp, oracle_spectrum(adj), wide).passed, (text, s)
            values = [e.value for e in sp.entries]
            if any(
                a.numerator * b.denominator != b.numerator * a.denominator
                and abs(a.to_complex() - b.to_complex()) <= 2 * wide
                for a in values
                for b in values
            ):
                expected_fallbacks.append(s)
        assert 0 < len(expected_fallbacks) < len(members), text
        assert len(fallbacks) == len(expected_fallbacks), text


def test_chunk_edges_that_split_a_sweep_give_the_same_verdicts(corpus, monkeypatch):
    """One chunk for the whole sweep, chunks of a few rows or matrices, and one row or matrix per chunk agree.

    The joint path's chunks are counted by its matching calls, and the
    per-pair path's, forced by colliding weights, by its eigvals calls.
    """
    for text in ("dihedral(6)", "cyclic(8)", "symmetric(4)"):
        group, table, sweep, members = _sweep_of(corpus, text)
        nums = sweep.numerators.copy()
        bad = [1, 3, 4, len(nums) - 1]
        nums[bad, -1, 0] += 1
        expected = [s not in bad for s in range(len(nums))]
        for s in bad:
            assert _per_row_verdicts(group, sweep, members, s, nums) == (False, False)
        n, k = group.n, table.k
        claims = _claims(sweep, nums)
        # a few rows, or a few matrices, per chunk
        for joint, middle in ((True, 100 * k * (n + k)), (False, 400 * n * n)):
            runs = []
            for budget in (1 << 30, middle, 1):
                monkeypatch.setattr(oracle, "_STACK_BYTES", budget)
                assert batch_verify_spectrum_exact(group, members, *claims).tolist() == expected
                with monkeypatch.context() as patch:
                    if not joint:
                        _colliding_weights(patch)
                    stacks = _shapes_spy(patch, "eigvals")
                    chunks = _calls_spy(patch, oracle, "_float_verdicts")
                    assert batch_compare_spectra(group, members, *claims, TOLERANCE).tolist() == expected
                assert len(stacks) == (0 if joint else len(chunks)), (text, joint)
                runs.append(len(chunks))
            last = len(members) if joint else sum(shape[0] for shape in stacks)
            assert runs[0] == 1 < runs[1] < runs[2] == last, (text, joint, runs)


def _float_rows_spy(monkeypatch):
    """Record the claims passed to every call of _float_verdicts, and the rows _certified_rows certifies."""
    seen = {"claims": [], "certified": []}
    verdicts, certified = oracle._float_verdicts, oracle._certified_rows

    def verdicts_spy(nums, *args):
        seen["claims"].append(nums.copy())
        return verdicts(nums, *args)

    def certified_spy(*args):
        seen["certified"].append(certified(*args))
        return seen["certified"][-1]

    monkeypatch.setattr(oracle, "_float_verdicts", verdicts_spy)
    monkeypatch.setattr(oracle, "_certified_rows", certified_spy)
    return seen


def _matched_rows(seen):
    """The claims _float_verdicts received, as one array."""
    return np.concatenate(seen["claims"]) if seen["claims"] else np.empty((0,))


def test_every_untampered_corpus_sweep_is_certified_without_a_per_row_match(corpus, monkeypatch):
    """Each sweep's correspondence certifies every row: _float_verdicts receives no row, and its own verdict on every row agrees."""
    for text in CORPUS:
        group, table, sweep, members = _sweep_of(corpus, text)
        claims = _claims(sweep)
        with monkeypatch.context() as patch:
            seen = _float_rows_spy(patch)
            assert batch_compare_spectra(group, members, *claims, TOLERANCE).all(), text
        assert seen["claims"] == [] and seen["certified"][0].all(), text
        atoms, values = oracle._joint_spectrum(group, members, TOLERANCE)
        numeric = atoms.astype(np.float64) @ values
        degrees = np.array(table.degrees)
        assert oracle._float_verdicts(sweep.numerators, degrees, table.m, numeric, TOLERANCE).all(), text


def test_swapped_characters_get_the_per_row_match_verdicts(corpus):
    """The values of two characters swapped in every row, or in the last row but one alone, give _float_verdicts' verdict on every row.

    Swapped in every row, each column keeps a claim within tolerance:
    characters of one degree keep every count and pass by the
    correspondence, and of two degrees break the counts of (3).  Swapped in
    one row, that row alone breaks (2).
    """
    kinds = set()
    for text in CORPUS:
        group, table, sweep, members = _sweep_of(corpus, text)
        k = table.k
        if k < 3:
            continue
        atoms, values = oracle._joint_spectrum(group, members, TOLERANCE)
        numeric = atoms.astype(np.float64) @ values
        degrees = np.array(table.degrees)
        for r, t in ((1, k - 1), (k - 2, k - 1)):
            for rows in (slice(None), slice(-2, -1)):
                nums = sweep.numerators.copy()
                values = nums[rows, [r, t]] // degrees[[r, t], None]  # algebraic integers
                nums[rows, [r, t]] = values[:, ::-1] * degrees[[r, t], None]
                expected = oracle._float_verdicts(nums, degrees, table.m, numeric, TOLERANCE)
                verdicts = batch_compare_spectra(group, members, *_claims(sweep, nums), TOLERANCE)
                assert verdicts.tolist() == expected.tolist(), (text, r, t, rows)
                kinds.add((rows == slice(None), bool(expected.all())))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("text", ["cyclic(5)", "dihedral(6)", "symmetric(4)", "alternating(5)"])
def test_a_tampered_single_class_row_refuses_the_correspondence(corpus, monkeypatch, text):
    """Its claim is c_b for every row that holds the class, so no row is certified and every row is matched on its own."""
    group, table, sweep, members = _sweep_of(corpus, text)
    nums = sweep.numerators.copy()
    nums[1, -1, 0] += 1  # row 1 is class 1 alone
    assert sweep.masks[1].tolist() == [0, 1] + [0] * (table.k - 2)
    seen = _float_rows_spy(monkeypatch)
    verdicts = batch_compare_spectra(group, members, *_claims(sweep, nums), TOLERANCE)
    assert not seen["certified"][0].any()
    assert np.array_equal(_matched_rows(seen), nums)
    expected = [_per_row_float(group, sweep, members, s, nums) for s in range(len(members))]
    assert verdicts.tolist() == expected == [s != 1 for s in range(len(members))]


@pytest.mark.parametrize("text", ["cyclic(5)", "dihedral(6)", "symmetric(4)", "alternating(5)"])
def test_a_tampered_multi_class_row_alone_is_matched_on_its_own(corpus, monkeypatch, text):
    """Row 3 holds classes 1 and 2; its claim is no longer the sum of theirs, so it alone fails (2) and goes to _float_verdicts."""
    group, table, sweep, members = _sweep_of(corpus, text)
    nums = sweep.numerators.copy()
    nums[3, -1, 0] += 1
    assert sweep.masks[3].tolist() == [0, 1, 1] + [0] * (table.k - 3)
    seen = _float_rows_spy(monkeypatch)
    verdicts = batch_compare_spectra(group, members, *_claims(sweep, nums), TOLERANCE)
    assert seen["certified"][0].tolist() == [s != 3 for s in range(len(members))]
    assert np.array_equal(_matched_rows(seen), nums[[3]])
    expected = [_per_row_float(group, sweep, members, s, nums) for s in range(len(members))]
    assert verdicts.tolist() == expected == [s != 3 for s in range(len(members))]


@pytest.mark.parametrize("text", ["cyclic(5)", "dihedral(6)", "alternating(4)"])
def test_a_joint_value_moved_by_two_tolerances_refuses_the_correspondence(corpus, monkeypatch, text):
    """Its column is 2 tol from every claim, so no row is certified: each row is matched on its own, and exactly the rows that hold the atom fail."""
    group, table, sweep, members = _sweep_of(corpus, text)
    seen = _float_rows_spy(monkeypatch)
    held = _shift_one_joint_eigenvalue(monkeypatch, 0, 2 * TOLERANCE)
    verdicts = batch_compare_spectra(group, members, *_claims(sweep), TOLERANCE)
    (column,) = held
    assert not seen["certified"][0].any()
    assert np.array_equal(_matched_rows(seen), sweep.numerators)
    assert column.any() and not column.all()
    assert verdicts.tolist() == (~column).tolist()
    for s in np.flatnonzero(~column).tolist():
        assert _per_row_float(group, sweep, members, s, sweep.numerators), s


@pytest.mark.parametrize("text", ["cyclic(5)", "dihedral(6)", "symmetric(4)", "alternating(4)"])
def test_a_sweep_without_its_single_class_rows_takes_the_per_row_match(corpus, monkeypatch, text):
    """With k - 1 >= 3 classes the atoms stay classes, but no row holds one alone: (1) fails and every row goes to _float_verdicts."""
    group, table, sweep, members = _sweep_of(corpus, text)
    assert table.k >= 4
    kept = np.flatnonzero(sweep.masks.sum(axis=1) != 1)
    full = sweep.numerators.copy()
    full[kept[-1], -1, 0] += 1
    nums = full[kept]
    seen = _float_rows_spy(monkeypatch)
    verdicts = batch_compare_spectra(group, members[kept], nums, table.degrees, table.m, TOLERANCE)
    assert oracle._joint_spectrum(group, members[kept], TOLERANCE)[0].shape[1] == table.k - 1
    assert not seen["certified"][0].any()
    assert np.array_equal(_matched_rows(seen), nums)
    expected = [_per_row_float(group, sweep, members, s, full) for s in kept.tolist()]
    assert verdicts.tolist() == expected == [s != kept[-1] for s in kept.tolist()]


def test_hadamard_bound_covers_every_coefficient():
    """|coefficient of x^(n-i)| <= C(n, i) ceil(rho)^i, summing to the bound, on 0/1 and integer matrices."""
    rng = np.random.default_rng(19)
    for entries in ((0, 2), (-4, 5)):
        for _ in range(30):
            n = int(rng.integers(0, 13))
            mat = rng.integers(*entries, size=(n, n))
            square_norm = int((mat * mat).sum(axis=1).max(initial=0))
            rho = oracle._charpoly_bound(square_norm, 1) - 1
            assert (rho - 1) ** 2 < square_norm <= rho**2 or square_norm == rho == 0
            coeffs = _reference_charpoly(mat.tolist())
            for i in range(n + 1):
                assert abs(coeffs[n - i]) <= comb(n, i) * rho**i, (mat, i)
            assert max(abs(c) for c in coeffs) <= oracle._charpoly_bound(square_norm, n)


@pytest.mark.parametrize("text", ["cyclic(12)", "alternating(5)", "symmetric(4)"])
def test_batched_oracles_allocate_within_the_stack_budget(corpus, text):
    """Stacks, stacked primes and matching temporaries all count in _STACK_BYTES."""
    group, table, sweep, members = _sweep_of(corpus, text)
    for check in (
        lambda: batch_compare_spectra(group, members, *_claims(sweep), TOLERANCE),
        lambda: batch_verify_spectrum_exact(group, members, *_claims(sweep)),
    ):
        assert check().all()  # warm the prime, ring map and Vandermonde caches
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * oracle._STACK_BYTES, (text, peak)


def test_batched_exact_check_finds_inverse_sets_within_the_stack_budget(corpus):
    """The cyclic(12) sweep's 2,048 rows: the inverse-set keys add little to the chunks' _STACK_BYTES."""
    group, table, sweep, members = _sweep_of(corpus, "cyclic(12)")
    assert batch_verify_spectrum_exact(group, members, *_claims(sweep)).all()  # warm the caches
    tracemalloc.start()
    try:
        batch_verify_spectrum_exact(group, members, *_claims(sweep))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * oracle._STACK_BYTES, peak / oracle._STACK_BYTES
