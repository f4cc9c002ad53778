import copy
import dataclasses
import io
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cayley_spectra import (
    CharacterTable,
    CycInt,
    EigenValue,
    GroupSpec,
    InternalConsistencyError,
    ResourceLimitError,
    Spectrum,
    SpectrumEntry,
    all_subgroups,
    as_rational,
    build_group,
    check_coefficient_symmetry,
    check_integrality,
    check_membership,
    check_power_closure_consistency,
    check_sweep_size,
    class_sweep,
    conjugacy_classes,
    cyclic_subgroups,
    dixon_character_table,
    eigenvalues_via_characters,
    galois_conjugacy_classes,
    get_context,
    is_fixed_by,
    is_power_closed,
    make_connection_set,
    power_conjugation_counts,
    power_of,
    subgroup_closure,
    sweep_class_closed,
    sweep_in_subfield,
    sweep_power_closed,
    sweep_spectrum,
    totient,
    unit_group,
)
from cayley_spectra import cli, spectra
from cayley_spectra.cli import _sweep_checks
from cayley_spectra.spectra import all_eigenvalues_in_subfield, all_eigenvalues_integral

from conftest import CORPUS, multiplication_table, nonidentity_subsets


def _bundle(text):
    g = build_group(GroupSpec.from_json(text))
    cd = conjugacy_classes(g)
    return g, cd, dixon_character_table(g, cd)


def _sorted_values(sp):
    out = []
    for e in sp.entries:
        out.extend([e.value.to_complex()] * e.multiplicity)
    return sorted(out, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def test_connection_set_forms():
    g, cd, _ = _bundle("symmetric(3)")
    by_class = make_connection_set({"classes": [1]}, g, cd)
    by_rep = make_connection_set({"representatives": [cd.representatives[1]]}, g, cd)
    by_elem = make_connection_set({"elements": list(cd.classes[1])}, g, cd)
    everything = make_connection_set("all-nonidentity", g, cd)
    assert by_class.elements == by_rep.elements == by_elem.elements
    assert by_class.class_indices == (1,)
    assert not by_class.contains_identity
    assert everything.class_indices == (1, 2)
    assert everything.size == 5
    with_identity = make_connection_set({"classes": [0, 2]}, g, cd)
    assert with_identity.contains_identity


def test_connection_set_rejects_partial_classes():
    g, cd, _ = _bundle("symmetric(3)")
    partial = list(cd.classes[1])[:2]
    with pytest.raises(ValueError, match="not closed under conjugation"):
        make_connection_set({"elements": partial}, g, cd)
    with pytest.raises(ValueError, match="out of range"):
        make_connection_set({"classes": [7]}, g, cd)
    with pytest.raises(ValueError):
        make_connection_set({"widgets": [1]}, g, cd)


def test_transposition_spectrum_of_symmetric_three():
    g, cd, table = _bundle("symmetric(3)")
    conn = make_connection_set({"classes": [1]}, g, cd)
    sp = eigenvalues_via_characters(conn, table, cd)
    values = _sorted_values(sp)
    assert [round(v.real) for v in values] == [-3, 0, 0, 0, 0, 3]
    assert all(abs(v.imag) < 1e-12 for v in values)
    assert all_eigenvalues_integral(sp)
    assert sp.entries[0].value.as_fraction() == Fraction(3)
    assert [e.multiplicity for e in sp.entries] == [1, 1, 4]
    assert [e.degree for e in sp.entries] == [1, 1, 2]


def test_two_generators_of_cyclic_four():
    g, cd, table = _bundle("cyclic(4)")
    conn = make_connection_set({"classes": [1, 3]}, g, cd)
    sp = eigenvalues_via_characters(conn, table, cd)
    assert sorted(round(e.value.to_complex().real) for e in sp.entries) == [-2, 0, 0, 2]
    assert all_eigenvalues_integral(sp)


def test_complete_digraph_spectrum():
    for text in ("cyclic(5)", "symmetric(4)"):
        g, cd, table = _bundle(text)
        conn = make_connection_set("all-nonidentity", g, cd)
        sp = eigenvalues_via_characters(conn, table, cd)
        values = _sorted_values(sp)
        n = g.n
        assert [round(v.real) for v in values] == [-1] * (n - 1) + [n - 1]


def test_multiplicities_are_degree_squares(corpus):
    for text, (group, cd, table) in corpus.items():
        conn = make_connection_set("all-nonidentity", group, cd)
        sp = eigenvalues_via_characters(conn, table, cd)
        assert all(e.multiplicity == e.degree**2 for e in sp.entries)
        assert sum(e.multiplicity for e in sp.entries) == group.n
        # the trivial character picks up the connection set size
        assert sp.entries[0].value.as_fraction() == conn.size


def test_directed_cycle_has_root_of_unity_spectrum():
    g, cd, table = _bundle("cyclic(6)")
    conn = make_connection_set({"classes": [1]}, g, cd)
    sp = eigenvalues_via_characters(conn, table, cd)
    got = _sorted_values(sp)
    import cmath

    want = sorted(
        (cmath.exp(2j * cmath.pi * j / 6) for j in range(6)),
        key=lambda z: (round(z.real, 9), round(z.imag, 9)),
    )
    assert all(abs(a - b) < 1e-9 for a, b in zip(got, want))
    assert not all_eigenvalues_integral(sp)


def test_integrality_check_on_cyclic_five():
    g, cd, table = _bundle("cyclic(5)")
    conn = make_connection_set({"classes": [1, 4]}, g, cd)
    rep = check_integrality(g, cd, conn, table)
    assert not rep.integral
    assert not rep.power_closed
    assert rep.agree
    assert rep.offending_character is not None
    x, t = rep.offending_power
    assert x in conn.elements
    assert power_of(x, t, g) not in conn.elements
    assert rep.offending_power == (1, 2)  # the least such x, then the least unit t

    full = make_connection_set({"classes": [1, 2, 3, 4]}, g, cd)
    rep = check_integrality(g, cd, full, table)
    assert rep.integral and rep.power_closed and rep.agree
    assert rep.offending_character is None


def test_membership_check_on_cyclic_five():
    g, cd, table = _bundle("cyclic(5)")
    conn = make_connection_set({"classes": [1, 4]}, g, cd)
    half = subgroup_closure(5, (4,))
    rep = check_membership(g, cd, conn, table, half)
    assert rep.in_subfield and rep.class_closed and rep.agree
    rep = check_membership(g, cd, conn, table, unit_group(5))
    assert not rep.in_subfield and not rep.class_closed and rep.agree
    assert rep.offending_class in (2, 3)


def test_membership_rejects_stale_merge():
    g, cd, table = _bundle("cyclic(5)")
    conn = make_connection_set({"classes": [1]}, g, cd)
    wrong = galois_conjugacy_classes(g, cd, subgroup_closure(5, (4,)))
    with pytest.raises(ValueError):
        check_membership(g, cd, conn, table, unit_group(5), wrong)


def test_subfield_membership_under_trivial_gamma_is_vacuous(corpus):
    for text, (group, cd, table) in corpus.items():
        if group.n > 16:
            continue
        trivial = subgroup_closure(group.exponent, ())
        for subset in nonidentity_subsets(cd):
            conn = make_connection_set({"classes": subset}, group, cd)
            sp = eigenvalues_via_characters(conn, table, cd)
            assert all_eigenvalues_in_subfield(sp, trivial)


def _oracle_counts(x, conn, group):
    """Triple-loop count of pairs (z, y) with y^-1 z y a given power of x."""
    order = int(group.orders[x])
    powers = [power_of(x, i, group) for i in range(order)]
    counts = [0] * order
    mul = multiplication_table(group)
    for z in conn.elements:
        for y in range(group.n):
            w = mul[mul[group.inv[y], z], y]
            if w in powers:
                counts[powers.index(int(w))] += 1
    return tuple(counts)


def test_power_conjugation_counts_match_triple_loop():
    for text in ("symmetric(3)", "dihedral(4)", "quaternion(8)"):
        g, cd, table = _bundle(text)
        conn = make_connection_set("all-nonidentity", g, cd)
        for j in range(1, cd.k):
            x = cd.representatives[j]
            counts = power_conjugation_counts(x, conn, g, cd)
            assert counts.counts == _oracle_counts(x, conn, g), (text, j)


def test_power_conjugation_counts_on_symmetric_three():
    g, cd, table = _bundle("symmetric(3)")
    three_cycle = cd.representatives[2]
    swaps = make_connection_set({"classes": [1]}, g, cd)
    rotations = make_connection_set({"classes": [2]}, g, cd)
    assert power_conjugation_counts(three_cycle, swaps, g, cd).counts == (0, 0, 0)
    counts = power_conjugation_counts(three_cycle, rotations, g, cd)
    assert counts.counts == (0, 6, 6)
    # 6 eta + 6 eta^2 at conductor 6 collapses to the rational -6
    assert counts.weighted_sum.ctx.m == g.exponent
    from cayley_spectra import as_rational

    assert as_rational(counts.weighted_sum) == -6


def test_first_power_count_positive_when_base_in_connection(corpus):
    for text, (group, cd, table) in corpus.items():
        if group.n > 16:
            continue
        for j in range(1, cd.k):
            x = cd.representatives[j]
            conn = make_connection_set({"classes": [j]}, group, cd)
            counts = power_conjugation_counts(x, conn, group, cd)
            assert counts.counts[1 % len(counts.counts)] > 0


def test_generator_count_in_cyclic_group():
    g, cd, table = _bundle("cyclic(7)")
    conn = make_connection_set({"classes": [1]}, g, cd)
    counts = power_conjugation_counts(1, conn, g, cd)
    assert counts.counts == (0, 7, 0, 0, 0, 0, 0)


def test_coefficient_symmetry_for_closed_sets():
    g, cd, table = _bundle("cyclic(12)")
    gamma = unit_group(12)
    closed = make_connection_set({"classes": [1, 5, 7, 11]}, g, cd)
    counts = power_conjugation_counts(1, closed, g, cd)
    assert check_coefficient_symmetry(counts, gamma)
    open_set = make_connection_set({"classes": [1]}, g, cd)
    counts = power_conjugation_counts(1, open_set, g, cd)
    assert not check_coefficient_symmetry(counts, gamma)
    assert is_power_closed(closed.elements, g)


# ---------------------------------------------------------------------------
# the int64 engine against the per-subset CycInt evaluation
#
# The reference below evaluates the character formula one connection set at
# a time with exact CycInt sums, independently of the int64 engine that
# serves class_sweep and the single-connection functions alike.


def _reference_spectrum(connection, table, cd):
    """The character formula as one CycInt class sum per character."""
    ctx = get_context(table.m)
    n = sum(cd.sizes)
    entries = []
    for r, row in enumerate(table.values):
        acc = ctx.zero
        for j in connection.class_indices:
            acc = acc + row[j] * cd.sizes[j]
        d = table.degrees[r]
        entries.append(
            SpectrumEntry(
                character=r,
                degree=d,
                multiplicity=d * d,
                value=EigenValue(numerator=acc, denominator=d),
            )
        )
    spectrum = Spectrum(
        entries=tuple(entries),
        group_order=n,
        connection_size=connection.size,
        contains_identity=connection.contains_identity,
    )
    _check_spectrum_identities(spectrum, ctx)
    return spectrum


def _check_spectrum_identities(sp, ctx):
    if sum(e.multiplicity for e in sp.entries) != sp.group_order:
        raise InternalConsistencyError("multiplicities do not sum to the group order")
    triv = sp.entries[0].value.as_fraction()
    if triv != Fraction(sp.connection_size):
        raise InternalConsistencyError("trivial eigenvalue differs from |C|")
    trace = ctx.zero
    for e in sp.entries:
        trace = trace + e.value.numerator * e.degree
    expected = sp.group_order if sp.contains_identity else 0
    if as_rational(trace) != expected:
        raise InternalConsistencyError("trace identity fails")


def _first_non_integral(sp):
    for e in sp.entries:
        f = e.value.as_fraction()
        if f is None:
            return e.character
        if f.denominator != 1:
            raise InternalConsistencyError(
                f"rational non-integer eigenvalue {f} for character {e.character}"
            )
    return None


def _first_outside_subfield(sp, gamma):
    for e in sp.entries:
        if not is_fixed_by(e.value.numerator, gamma):
            return e.character
    return None


def _assert_same_spectrum(got, want, where):
    assert got.entries == want.entries, where
    assert got.group_order == want.group_order, where
    assert got.connection_size == want.connection_size, where
    assert got.contains_identity == want.contains_identity, where


def test_a_rational_non_integer_eigenvalue_is_refused():
    """Moving 1 between the two degree-2 characters on dihedral(5)'s reflection class (size 5)
    keeps every identity the formula checks but makes the eigenvalue 5/2."""
    group, cd, table = _bundle("dihedral(5)")
    j = cd.sizes.index(5)
    r, s = [i for i, d in enumerate(table.degrees) if d == 2]
    coeffs = table.coefficients.copy()
    coeffs[r, j, 0] += 1
    coeffs[s, j, 0] -= 1
    tampered = dataclasses.replace(table, coefficients=coeffs)
    conn = make_connection_set({"classes": [j]}, group, cd)
    with pytest.raises(InternalConsistencyError, match=f"^rational non-integer eigenvalue 5/2 for character {r}$"):
        check_integrality(group, cd, conn, tampered)
    with pytest.raises(InternalConsistencyError, match="^rational non-integer eigenvalue"):
        class_sweep(group, cd, tampered)


def test_class_sweep_matches_per_subset_reference(corpus):
    for spec in CORPUS:
        group, cd, table = corpus[spec]
        sweep = class_sweep(group, cd, table)
        assert sweep.subsets == tuple(nonidentity_subsets(cd))
        closed = sweep_power_closed(sweep)
        assert (sweep_power_closed(sweep, every_element=True) == closed).all(), spec
        units = galois_conjugacy_classes(group, cd, unit_group(group.exponent))
        unit_closed = sweep_class_closed(sweep, units)
        gammas = all_subgroups(group.exponent)
        assert gammas[0].order == 1  # the splitting field's trivial gamma
        merged = [galois_conjugacy_classes(group, cd, g) for g in gammas]
        inside = [sweep_in_subfield(sweep, g) for g in gammas]
        union = [sweep_class_closed(sweep, mg) for mg in merged]
        for s, subset in enumerate(sweep.subsets):
            conn = make_connection_set({"classes": subset}, group, cd)
            ref = _reference_spectrum(conn, table, cd)
            bad_char = _first_non_integral(ref)
            rep = check_integrality(group, cd, conn, table)
            assert sweep.integral[s] == rep.integral == (bad_char is None), (spec, subset)
            assert rep.offending_character == bad_char, (spec, subset)
            assert closed[s] == rep.power_closed == is_power_closed(conn.elements, group)
            assert (closed[s] == unit_closed[s]) == check_power_closure_consistency(
                group, cd, subset
            ), (spec, subset)
            _assert_same_spectrum(sweep_spectrum(sweep, s), ref, (spec, subset))
            _assert_same_spectrum(eigenvalues_via_characters(conn, table, cd), ref, (spec, subset))
            for gamma, mg, ins, uni in zip(gammas, merged, inside, union):
                outside = _first_outside_subfield(ref, gamma)
                rep = check_membership(group, cd, conn, table, gamma, mg)
                where = (spec, subset, gamma.elements)
                assert ins[s] == rep.in_subfield == (outside is None), where
                assert rep.offending_character == outside, where
                assert uni[s] == rep.class_closed, where
            if group.n <= 16:
                # sweeps never hold class 0: this takes the trace identity's other
                # branch.  The reference sum over C plus class 0 adds chi_r(1) to
                # numerator r.
                with_identity = make_connection_set({"classes": (0, *subset)}, group, cd)
                got = eigenvalues_via_characters(with_identity, table, cd)
                want = [e.value.numerator + table.values[e.character][0] for e in ref.entries]
                assert [e.value.numerator for e in got.entries] == want, (spec, 0, subset)
                assert [e.value.denominator for e in got.entries] == list(table.degrees)
                assert got.connection_size == conn.size + 1 and got.contains_identity


def test_membership_on_every_subgroup_is_decided_by_its_cyclic_subgroups(corpus):
    """On every subgroup gamma of the units, both sides of membership equivalence are the AND over its <t>.

    So the equivalence on every cyclic subgroup, which is all that
    verify-all checks, gives it on the whole lattice.
    """
    non_cyclic = 0
    for spec in CORPUS:
        group, cd, table = corpus[spec]
        m = group.exponent
        sweep = class_sweep(group, cd, table)
        cyclic = {t: subgroup_closure(m, [t]) for t in unit_group(m).elements}
        inside = {t: sweep_in_subfield(sweep, g) for t, g in cyclic.items()}
        closed = {t: sweep_class_closed(sweep, galois_conjugacy_classes(group, cd, g)) for t, g in cyclic.items()}
        for gamma in all_subgroups(m):
            where = (spec, gamma.elements)
            gamma_inside = sweep_in_subfield(sweep, gamma)
            gamma_closed = sweep_class_closed(sweep, galois_conjugacy_classes(group, cd, gamma))
            assert np.array_equal(gamma_inside, np.logical_and.reduce([inside[t] for t in gamma.elements])), where
            assert np.array_equal(gamma_closed, np.logical_and.reduce([closed[t] for t in gamma.elements])), where
            assert np.array_equal(gamma_inside, gamma_closed), where
            non_cyclic += all(g.elements != gamma.elements for g in cyclic.values())
    assert non_cyclic


def test_single_connections_do_no_cyclotomic_arithmetic(monkeypatch, corpus, capsys):
    def refuse(*args):
        raise AssertionError("CycInt arithmetic on the spectrum engine's path")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(CycInt, name, refuse)
    with pytest.raises(AssertionError):
        get_context(5).one + 1
    for spec in ("cyclic(5)", "symmetric(4)", "alternating(5)", "generalized-quaternion(16)"):
        group, cd, table = corpus[spec]
        gamma = unit_group(group.exponent)
        for classes in ([1], [0, cd.k - 1], list(range(cd.k))):
            conn = make_connection_set({"classes": classes}, group, cd)
            sp = eigenvalues_via_characters(conn, table, cd)
            assert sp.entries[0].value.as_fraction() == conn.size
            check_integrality(group, cd, conn, table)
            check_membership(group, cd, conn, table, gamma)
        assert cli.run(["spectrum", "--group", spec, "--classes", "0,1"]) == 0
        assert '"all_integral"' in capsys.readouterr().out


def _tampered(table, r, j, p, delta):
    coeffs = table.coefficients.copy()
    coeffs[r, j, p] += delta
    return CharacterTable(m=table.m, degrees=table.degrees, coefficients=coeffs, prime=table.prime)


@pytest.mark.parametrize("spec", ["cyclic(5)", "symmetric(4)", "quaternion(8)"])
def test_class_sweep_rejects_every_single_coefficient_change(corpus, spec):
    group, cd, table = corpus[spec]
    # one connection set holding every class, identity included, meets
    # every table entry through its trace identity
    everything = make_connection_set({"classes": list(range(cd.k))}, group, cd)
    entry_points = (
        lambda t: class_sweep(group, cd, t),
        lambda t: eigenvalues_via_characters(everything, t, cd),
    )
    for r in range(table.k):
        for j in range(cd.k):
            for p in range(len(table.values[r][j].coeffs)):
                for delta in (1, -1):
                    for entry in entry_points:
                        with pytest.raises(InternalConsistencyError):
                            entry(_tampered(table, r, j, p, delta))


def test_sweep_size_budget_is_checked_without_allocating():
    # 2^15 subsets at 8192 bytes each fill TABLE_BYTE_BUDGET: phi = 25
    # estimates 128 * 51 + 1536 = 8064 bytes a subset, phi = 26 8320
    check_sweep_size(16, 25)
    with pytest.raises(ResourceLimitError):
        check_sweep_size(16, 26)
    with pytest.raises(ResourceLimitError, match="18 classes"):
        check_sweep_size(18, 2)  # masks and output rows push it over
    with pytest.raises(ResourceLimitError, match="40 classes"):
        check_sweep_size(40, 16)


def _bitmask_rows(k):
    """The (2^(k-1), k) 0/1 masks of the subsets of classes 1..k-1: subset s holds class j + 1 when bit j of s is set."""
    return np.array(
        [[0] + [s >> j & 1 for j in range(k - 1)] for s in range(1 << (k - 1))], dtype=np.int64
    ).reshape(-1, k)


def test_subset_sums_equal_the_mask_product():
    """_subset_sums(rows) is masks @ rows in bitmask order, never adding row 0 (the identity class)."""
    rng = np.random.default_rng(20)
    for k in range(1, 15):
        rows = rng.integers(-(10**6), 10**6, size=(k, 7))
        got = spectra._subset_sums(rows)
        assert got.dtype == np.int64 and got.shape == (1 << (k - 1), 7), k
        assert np.array_equal(got, _bitmask_rows(k) @ rows), k
    # k - 1 = 0: the single empty subset
    assert spectra._subset_sums(np.array([[7, -3]], dtype=np.int64)).tolist() == [[0, 0]]


def test_subset_sums_are_exact_where_they_reach_2_to_the_62():
    k = 14
    rows = np.zeros((k, 3), dtype=np.int64)
    share, rest = divmod(1 << 62, k - 1)
    rows[1:, 0] = share
    rows[1, 0] += rest  # the full subset sums to 2^62
    rows[1:, 1] = -rows[1:, 0]  # and to -2^62
    rows[0] = 1 << 62  # the identity class is never added
    rows[2, 2], rows[3, 2] = 1 << 62, -(1 << 62)
    want = _bitmask_rows(k).astype(object) @ rows.astype(object)  # Python integers
    got = spectra._subset_sums(rows)
    assert got.tolist() == want.tolist()
    assert got[-1].tolist() == [1 << 62, -(1 << 62), 0]
    assert int(got[:, 2].max()) == 1 << 62 and int(got[:, 2].min()) == -(1 << 62)


def test_sweep_masks_built_by_doubling_are_the_bitmask_rows():
    """class_sweep's masks equal (s >> j) & 1 on classes 1..k-1 for k = 1..14."""
    for k in range(1, 15):
        group, cd, table = _bundle(f"cyclic({k})")
        assert cd.k == k
        count = 1 << (k - 1)
        want = np.zeros((count, k), dtype=np.int64)
        want[:, 1:] = (np.arange(count)[:, None] >> np.arange(k - 1)) & 1
        masks = class_sweep(group, cd, table).masks
        assert masks.dtype == np.int64 and np.array_equal(masks, want), k


def _closed_under_by_full_loop(sweep, cover):
    """_closed_under with a test for every class, also those whose cover holds only themselves."""
    bits = np.arange(len(sweep.masks), dtype=np.int64) << 1
    ok = np.ones(len(bits), dtype=bool)
    for j, c in enumerate(cover):
        ok &= (((bits >> j) & 1) == 0) | ((c & ~bits) == 0)
    return ok


def test_closed_under_skips_only_covers_that_hold_their_own_class_alone(corpus, monkeypatch):
    """Power-closure, unit-merge and cyclic-subgroup covers on every corpus sweep give the full loop's flags."""
    covers = []
    real = spectra._closed_under

    def spy(sweep, cover):
        covers.append(list(cover))
        return real(sweep, cover)

    monkeypatch.setattr(spectra, "_closed_under", spy)
    own = total = 0
    for text in CORPUS:
        group, cd, table = corpus[text]
        sweep = class_sweep(group, cd, table)
        covers.clear()
        flags = [sweep_power_closed(sweep), sweep_power_closed(sweep, every_element=True)]
        for gamma in [unit_group(group.exponent), *cyclic_subgroups(group.exponent)]:
            flags.append(sweep_class_closed(sweep, galois_conjugacy_classes(group, cd, gamma)))
        assert len(covers) == len(flags), text
        for cover, got in zip(covers, flags):
            assert np.array_equal(got, _closed_under_by_full_loop(sweep, cover)), (text, cover)
            own += sum(c == 1 << j for j, c in enumerate(cover))
            total += len(cover)
    assert 0 < own < total


@pytest.mark.parametrize("spec", ["dihedral(22)", "alternating(7)", "symmetric(6)"])
def test_sweep_memory_stays_within_the_size_estimate(spec):
    """class_sweep, verify-all's membership sweeps and power closure peak within check_sweep_size's estimate.

    The membership sweeps are the unit group's and every cyclic subgroup's;
    the estimate counts the defect sums of one generator at a time.
    """
    group, cd, table = _bundle(spec)
    gammas = [unit_group(table.m), *cyclic_subgroups(table.m)]

    def run():
        sweep = class_sweep(group, cd, table)
        for gamma in gammas:
            sweep_in_subfield(sweep, gamma)
        sweep_power_closed(sweep)

    run()  # warm the power-basis and Galois caches
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = spectra._sweep_bytes(cd.k, totient(table.m))
    assert peak <= estimate, (spec, peak / estimate)


# the groups of the benchmark's class-sweep workload
SWEEP_GROUPS = ("symmetric(6)", "alternating(7)", "dihedral(22)")


@pytest.fixture(scope="module")
def swept(corpus):
    """spec -> (group, class data, table) for every corpus group and the class-sweep workload's groups."""
    return {**corpus, **{text: _bundle(text) for text in SWEEP_GROUPS}}


def _full_sweep(group, cd, table):
    """The whole-batch arrays the blocks stand for: weighted, numerators and masks by one doubling each, and the integral flags."""
    weighted, _ = spectra._formula(cd, table)
    numerators = spectra._subset_sums(weighted).reshape(1 << (cd.k - 1), cd.k, -1)
    masks = spectra._subset_sums(np.identity(cd.k, dtype=np.int64))
    return weighted, numerators, masks, ~(numerators[:, :, 1:] != 0).any(axis=(1, 2))


def _full_in_subfield(weighted, m, gamma):
    """Whether each subset's eigenvalues are fixed by every element of gamma, from the full doubling of each defect."""
    k = len(weighted)
    flat = weighted.reshape(k * k, -1)
    fixed = np.ones(1 << (k - 1), dtype=bool)
    for t in gamma.elements:
        defect = (flat @ spectra._galois_matrix(m, t) - flat).reshape(k, -1)
        fixed &= ~spectra._subset_sums(defect).any(axis=1)
    return fixed


def _block_rows(monkeypatch, cd, table, rows):
    """Set SWEEP_BLOCK_BYTES to blocks of rows subsets (None: the shipped budget); returns the rows per block."""
    width = cd.k * totient(table.m)
    if rows is not None:
        monkeypatch.setattr(spectra, "SWEEP_BLOCK_BYTES", 8 * width * rows)
    return 1 << spectra._block_bits(cd.k - 1, width)


@pytest.mark.parametrize("rows", [None, 1, 8])
def test_streamed_sweeps_equal_the_full_doubling_arrays(swept, monkeypatch, rows):
    """Flags block by block, numerators and masks derived on first read, and membership on every cyclic subgroup."""
    blocked = 0
    for text, (group, cd, table) in swept.items():
        if rows == 1 and text in SWEEP_GROUPS:
            continue  # 2^(k-1) one-row blocks: the corpus has every block boundary at k <= 12
        per_block = _block_rows(monkeypatch, cd, table, rows)
        if rows is not None:
            assert per_block == min(rows, 1 << (cd.k - 1)), text
        blocked += per_block < 1 << (cd.k - 1)
        weighted, numerators, masks, integral = _full_sweep(group, cd, table)
        sweep = class_sweep(group, cd, table)
        assert np.array_equal(sweep.weighted, weighted), text
        assert np.array_equal(sweep.integral, integral), text
        assert "numerators" not in sweep.__dict__ and "masks" not in sweep.__dict__, text
        assert sweep.numerators.dtype == np.int64 and np.array_equal(sweep.numerators, numerators), text
        assert sweep.masks.dtype == np.int64 and np.array_equal(sweep.masks, masks), text
        assert sweep.numerators is sweep.numerators and sweep.masks is sweep.masks  # derived once, then kept
        for gamma in [unit_group(table.m), *cyclic_subgroups(table.m)]:
            want = _full_in_subfield(weighted, table.m, gamma)
            assert np.array_equal(sweep_in_subfield(sweep, gamma), want), (text, gamma.elements)
    assert blocked >= (len(SWEEP_GROUPS) if rows is None else 20), blocked


def test_a_sweep_given_its_numerators_keeps_them(corpus):
    """Numerators assigned to a copy are the ones it reads; its masks are still derived on first read."""
    group, cd, table = corpus["symmetric(4)"]
    sweep = class_sweep(group, cd, table)
    nums = np.zeros((1 << (cd.k - 1), cd.k, totient(table.m)), dtype=np.int64)
    given = copy.copy(sweep)
    given.numerators = nums
    assert given.numerators is nums
    assert np.array_equal(given.masks, _full_sweep(group, cd, table)[2])
    assert given.numerators is nums
    assert "numerators" not in sweep.__dict__ and "masks" not in sweep.__dict__  # the original is untouched


def test_repr_of_a_sweep_derives_neither_array(corpus):
    group, cd, table = corpus["dihedral(6)"]
    sweep = class_sweep(group, cd, table)
    assert repr(sweep).startswith("ClassSweep(")
    assert "numerators" not in sweep.__dict__ and "masks" not in sweep.__dict__


def _shifted_block_sums(real, shifted):
    """real, a _block_sums, with block number shifted summed as low + high[shifted + 1] instead of low + high[shifted]."""

    def shifted_sums(rows):
        c = spectra._block_bits(len(rows) - 1, rows.shape[1])
        high = spectra._subset_sums(np.concatenate((rows[:1], rows[c + 1 :])))
        for start, block in real(rows):
            if start >> c == shifted:
                block = block + (high[shifted + 1] - high[shifted])
            yield start, block

    return shifted_sums


@pytest.mark.parametrize("text", ["cyclic(5)", "symmetric(4)", "dihedral(6)", "alternating(5)", "cyclic(12)"])
@pytest.mark.parametrize("through_cli", [False, True])
def test_a_block_offset_off_by_one_is_refused(corpus, monkeypatch, capsys, text, through_cli):
    """Each block that holds the next block's offset fails the trivial-eigenvalue check against its masks' bits.

    Block h is read as the subsets of block h + 1, whose |C| differs unless
    the two high parts have equal sizes; for even h they differ by class
    c + 1 alone, so every even block is caught.  The sweep is refused when
    class_sweep is called, and through the check-integrality sweep job,
    which then writes nothing to stdout.
    """
    group, cd, table = corpus[text]
    per_block = _block_rows(monkeypatch, cd, table, max(1, 1 << (cd.k - 4)))
    blocks = (1 << (cd.k - 1)) // per_block
    assert blocks == 8
    c = per_block.bit_length() - 1
    high_sizes = [sum(cd.sizes[c + 1 + j] for j in range(cd.k - 1 - c) if h >> j & 1) for h in range(blocks)]

    def sweep():
        if through_cli:
            return cli.run(["check-integrality", "--group", text, "--connection", "sweep"])
        return class_sweep(group, cd, table)

    real = spectra._block_sums
    caught = 0
    for h in range(blocks - 1):
        monkeypatch.setattr(spectra, "_block_sums", _shifted_block_sums(real, h))
        if high_sizes[h + 1] != high_sizes[h]:
            with pytest.raises(InternalConsistencyError, match="^trivial eigenvalue differs from"):
                sweep()
            assert capsys.readouterr().out == ""
            caught += 1
    assert caught >= blocks // 2
    monkeypatch.setattr(spectra, "_block_sums", _shifted_block_sums(real, blocks))  # no such block
    sweep()


def _spy_checked_pass(monkeypatch):
    """The k of every checked pass run: _formula runs once in each, and a derived array never calls it."""
    calls = []
    real = spectra._formula

    def spy(cd, table):
        calls.append(cd.k)
        return real(cd, table)

    monkeypatch.setattr(spectra, "_formula", spy)
    return calls


def _spy_numerators(monkeypatch):
    """The k of every sweep whose numerators are derived."""
    builds = []
    real = spectra.ClassSweep.numerators

    def spy(sweep):
        builds.append(sweep.cd.k)
        return real.func(sweep)

    monkeypatch.setattr(spectra.ClassSweep, "numerators", property(spy))
    return builds


def test_verify_all_runs_the_checked_pass_once_per_swept_group(monkeypatch, capsys):
    calls = _spy_checked_pass(monkeypatch)
    builds = _spy_numerators(monkeypatch)
    assert cli.run(["verify-all"]) == 0
    capsys.readouterr()
    assert len(calls) == len(CORPUS)
    assert builds  # the float oracle reads the numerators of every corpus group
    assert len(builds) <= 2 * len(CORPUS)  # at most one read by each of the float and exact oracles


@pytest.mark.parametrize(
    "argv",
    [
        ["check-integrality", "--group", "dihedral(22)", "--connection", "sweep"],
        ["check-membership", "--group", "alternating(7)", "--connection", "sweep", "--gamma", "rational"],
    ],
)
def test_sweep_jobs_run_one_unheld_pass(monkeypatch, capsys, argv):
    """One checked pass, and no numerators ever built."""
    calls = _spy_checked_pass(monkeypatch)
    builds = _spy_numerators(monkeypatch)
    assert cli.run(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1
    assert builds == []


def test_verify_all_without_the_float_and_exact_oracles_builds_no_numerators(monkeypatch, capsys):
    """dihedral(22) (n = 44) runs only the naive oracle, which reads the masks: no (S, k, phi) array is built."""
    group, cd, table = _bundle("dihedral(22)")
    numerator_bytes = 8 * (1 << (cd.k - 1)) * cd.k * totient(table.m)
    assert numerator_bytes > 9_000_000
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"groups": ["dihedral(22)"]})))
    builds = _spy_numerators(monkeypatch)
    tracemalloc.start()
    try:
        assert cli.run(["verify-all", "--input", "-", "--oracle", "off"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    checks = json.loads(capsys.readouterr().out)["groups"][0]["checks"]
    assert checks["spectrum-oracle-float"] == checks["spectrum-oracle-exact"] == "skip"
    assert checks["power-closure-consistency"] == "pass"
    assert builds == []
    assert peak < numerator_bytes, peak / numerator_bytes


def test_sweep_spectrum_reads_one_mask_row_and_no_subset_tuples(corpus, monkeypatch):
    """Subset s's |C| is masks[s] @ sizes; a negative s reads masks and numerators alike."""
    group, cd, table = corpus["symmetric(4)"]
    subsets = spectra._subset_tuples(cd.k)
    monkeypatch.setattr(spectra, "_subset_tuples", lambda k: pytest.fail("subset tuples built"))
    sweep = class_sweep(group, cd, table)
    count = len(subsets)
    for s in range(-count, count):
        sp = sweep_spectrum(sweep, s)
        want = eigenvalues_via_characters(make_connection_set({"classes": list(subsets[s])}, group, cd), table, cd)
        assert sp.connection_size == want.connection_size and type(sp.connection_size) is int, s
        assert [e.value for e in sp.entries] == [e.value for e in want.entries], s
    assert "subsets" not in sweep.__dict__


def test_integrality_sweep_holds_no_numerator_array(swept):
    """check-integrality's path (class_sweep, then sweep_power_closed) on dihedral(22) peaks below a quarter of the (S, k, phi) numerators."""
    group, cd, table = swept["dihedral(22)"]
    numerator_bytes = 8 * (1 << (cd.k - 1)) * cd.k * totient(table.m)
    assert numerator_bytes > 9_000_000

    def run():
        sweep_power_closed(class_sweep(group, cd, table))

    run()  # warm the power-basis cache
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < numerator_bytes / 4, peak / numerator_bytes


def test_sweep_in_subfield_rejects_a_foreign_modulus(corpus):
    group, cd, table = corpus["cyclic(5)"]
    with pytest.raises(ValueError, match="modulus"):
        sweep_in_subfield(class_sweep(group, cd, table), unit_group(10))


def test_galois_defect_bound_is_checked_when_the_sweep_is_built(monkeypatch, corpus):
    group, cd, table = corpus["cyclic(5)"]
    real = spectra._power_basis
    monkeypatch.setattr(spectra, "_power_basis", lambda m: real(m) << 61)
    with pytest.raises(ResourceLimitError, match="Galois defect"):
        class_sweep(group, cd, table)


def test_element_level_power_closure_sees_a_wrong_class_partition():
    # S5 (order 120) is above the naive oracle's cap, so the element-level
    # reach is verify-all's only check of the classes against the power map
    group = build_group(GroupSpec.named("symmetric", 5))
    cd = conjugacy_classes(group)
    table = dixon_character_table(group, cd)
    # swap two elements of different orders that no representative's powers reach
    powers = {power_of(r, t, group) for r in cd.representatives for t in range(group.exponent)}
    x, y = next(
        (x, y)
        for x in range(group.n)
        for y in range(x + 1, group.n)
        if group.orders[x] != group.orders[y] and not {x, y} & powers
    )
    a, b = int(cd.class_of[x]), int(cd.class_of[y])
    classes = list(cd.classes)
    classes[a] = tuple(sorted(set(classes[a]) - {x} | {y}))
    classes[b] = tuple(sorted(set(classes[b]) - {y} | {x}))
    class_of = cd.class_of.copy()
    class_of[x], class_of[y] = b, a
    wrong = dataclasses.replace(cd, classes=tuple(classes), class_of=class_of)
    sweep = class_sweep(group, wrong, table)
    units = sweep_class_closed(
        sweep, galois_conjugacy_classes(group, wrong, unit_group(group.exponent))
    )
    assert (sweep_power_closed(sweep) == units).all()  # blind to the swap
    assert not (sweep_power_closed(sweep, every_element=True) == units).all()
    job = {"oracle": "off", "oracle_cap": 0, "tolerance": 1e-8}
    checks = _sweep_checks(job, group, wrong, table)
    assert checks["power-closure-consistency"] == "fail"
