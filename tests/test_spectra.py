import copy
import dataclasses
import io
import itertools
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
    is_union_of_galois_classes,
    make_connection_set,
    power_conjugation_counts,
    power_of,
    subgroup_closure,
    sweep_class_closed,
    sweep_in_subfield,
    sweep_power_closed,
    sweep_spectrum,
    sweep_unit_closed,
    sweep_unit_fixed,
    totient,
    unit_group,
)
from cayley_spectra import cli, galois, group_core, spectra
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


def _stdout_gammas(m):
    """rational, splitting, the real subfield's <m - 1> and every cyclic subgroup <t> of the units mod m."""
    return [unit_group(m), subgroup_closure(m, ()), subgroup_closure(m, [m - 1]), *cyclic_subgroups(m)]


def _one_set_matches(group, cd, table, gammas):
    """Whether check_membership equals the merge-based reference under each gamma, on every single class and pair of classes.

    The reference's offending character is the first eigenvalue that some
    element of gamma moves (CycInt Galois action), and its offending class
    the smallest class outside C of a merged class that C touches.
    """
    sets = [[j] for j in range(cd.k)] + [list(pair) for pair in itertools.combinations(range(cd.k), 2)]
    for gamma in gammas:
        merged = galois_conjugacy_classes(group, cd, gamma)
        for classes in sets:
            conn = make_connection_set({"classes": classes}, group, cd)
            rep = check_membership(group, cd, conn, table, gamma)
            bad_char = _first_outside_subfield(eigenvalues_via_characters(conn, table, cd), gamma)
            closed, bad_class = is_union_of_galois_classes(classes, cd, merged)
            if (rep.in_subfield, rep.class_closed, rep.offending_character, rep.offending_class) != (
                bad_char is None, closed, bad_char, bad_class
            ):
                return False
    return True


def _sweep_matches(text, group, cd, table, capsys):
    """Whether the check-membership sweep under the unit group gives the references' two sides on every subset.

    The references are every element's Galois defect of every subset
    (_full_in_subfield) and the unit group's merged classes.
    """
    assert cli.run(["check-membership", "--group", text, "--connection", "sweep", "--gamma", "rational"]) in (0, 1)
    rows = json.loads(capsys.readouterr().out)["sweep"]
    gamma = unit_group(group.exponent)
    merged = galois_conjugacy_classes(group, cd, gamma)
    inside = _full_in_subfield(spectra._formula(cd, table), table.m, gamma).tolist()
    closed = [is_union_of_galois_classes(row["classes"], cd, merged)[0] for row in rows]
    return [row["in_subfield"] for row in rows] == inside and [row["class_closed"] for row in rows] == closed


def test_one_set_membership_witnesses_match_the_class_merge(corpus):
    """offending_class is the smallest class of C's gamma-closure outside C, and offending_character the first moved eigenvalue.

    On every corpus group, every single class and pair of classes, under
    rational, splitting, the real subfield and every cyclic subgroup.
    """
    for text, (group, cd, table) in corpus.items():
        assert _one_set_matches(group, cd, table, _stdout_gammas(group.exponent)), text


def test_a_dropped_generator_of_gamma_is_caught(corpus, monkeypatch, capsys):
    """Reading gamma through all its generators but the last fails the membership sweep and one-set checks on named corpus groups.

    The mutant's two sides still agree with each other, both for the
    smaller group, so only the references see it.  The unit groups mod 8
    and 12 need two generators, so one is left to read.
    """

    def misses():
        sweeps = [text for text, bundle in corpus.items() if not _sweep_matches(text, *bundle, capsys)]
        one_sets = [text for text, bundle in corpus.items() if not _one_set_matches(*bundle, [unit_group(bundle[0].exponent)])]
        return sweeps, one_sets

    assert misses() == ([], [])
    real = spectra._generating_set
    monkeypatch.setattr(spectra, "_generating_set", lambda gamma: real(gamma)[:-1])
    sweeps, one_sets = misses()
    for text in ("cyclic(8)", "cyclic(12)", "product(cyclic(2),cyclic(4))"):
        assert text in sweeps and text in one_sets, text


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


def test_a_central_character_value_off_the_integers_is_refused():
    """The same move at coefficient 1 makes s_j chi_r(g_j) / d_r = 5 z / 2: the trivial and trace identities still hold, and divisibility by d_r refuses it."""
    group, cd, table = _bundle("dihedral(5)")
    j = cd.sizes.index(5)
    r, s = [i for i, d in enumerate(table.degrees) if d == 2]
    coeffs = table.coefficients.copy()
    coeffs[r, j, 1] += 1
    coeffs[s, j, 1] -= 1
    tampered = dataclasses.replace(table, coefficients=coeffs)
    conn = make_connection_set({"classes": [j]}, group, cd)
    message = f"^central character value of character {r} on class {j} is not an algebraic integer$"
    for entry in (lambda: check_integrality(group, cd, conn, tampered), lambda: class_sweep(group, cd, tampered)):
        with pytest.raises(InternalConsistencyError, match=message):
            entry()


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
                rep = check_membership(group, cd, conn, table, gamma)
                where = (spec, subset, gamma.elements)
                assert ins[s] == rep.in_subfield == (outside is None), where
                assert rep.offending_character == outside, where
                is_union, bad_class = is_union_of_galois_classes(subset, cd, mg)  # the merge-based reference
                assert uni[s] == rep.class_closed == is_union, where
                assert rep.offending_class == bad_class, where
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


def _moved_reference(sweep, t):
    """(S, k) flags of the eigenvalues that sigma_t moves, from the whole numerator array."""
    nums = sweep.numerators
    return (nums @ spectra._galois_matrix(sweep.table.m, t) != nums).any(axis=2)


def _merge_closed(sweep, merged):
    """Whether each subset is a union of merged's classes: the reference, from the masks and the merged class of every class."""
    block = np.array(merged.merged_class_of)
    held = sweep.masks.astype(bool)
    return ~((held @ (block[:, None] == block)) & ~held).any(axis=1)


def test_unit_sweeps_equal_the_per_subgroup_sweeps(corpus):
    """Column t of sweep_unit_fixed and sweep_unit_closed is sweep_in_subfield and sweep_class_closed for <t>.

    On every corpus sweep and every unit t, 1 included, and the class
    columns equal closure under <t>'s merged classes.  The AND of the
    columns of one generator per nontrivial cyclic subgroup, as verify-all
    takes them, is the unit group's class closure.
    """
    for text in CORPUS:
        group, cd, table = corpus[text]
        m = group.exponent
        sweep = class_sweep(group, cd, table)
        units = unit_group(m).elements
        fixed = sweep_unit_fixed(sweep, units)
        closed = sweep_unit_closed(sweep, units)
        assert fixed.shape == closed.shape == (len(sweep.integral), len(units)), text
        for i, t in enumerate(units):
            gamma = subgroup_closure(m, [t])
            assert np.array_equal(fixed[:, i], sweep_in_subfield(sweep, gamma)), (text, t)
            assert np.array_equal(fixed[:, i], ~_moved_reference(sweep, t).any(axis=1)), (text, t)
            merged = galois_conjugacy_classes(group, cd, gamma)
            assert np.array_equal(closed[:, i], sweep_class_closed(sweep, merged)), (text, t)
            assert np.array_equal(closed[:, i], _merge_closed(sweep, merged)), (text, t)
        generators = [g.generators[0] for g in cyclic_subgroups(m) if g.order > 1]
        unit_merge = galois_conjugacy_classes(group, cd, unit_group(m))
        unit_closed = sweep_unit_closed(sweep, generators).all(axis=1)
        assert np.array_equal(unit_closed, sweep_class_closed(sweep, unit_merge)), text
        assert np.array_equal(unit_closed, _merge_closed(sweep, unit_merge)), text
        assert np.array_equal(unit_closed, closed.all(axis=1)), text


def test_stacked_generators_give_the_per_generator_flags(corpus, monkeypatch):
    """One stacked pass over the unit group's generators gives each generator's own flags, on every corpus sweep.

    sweep_in_subfield for the unit group is their OR.  A pass that drops a
    generator from the stack (a mutant of _generating_set) gives other
    flags on some corpus sweep, so this comparison catches it.
    """
    real = spectra._generating_set

    def mismatches():
        wrong = 0
        for text in CORPUS:
            group, cd, table = corpus[text]
            m = group.exponent
            sweep = class_sweep(group, cd, table)
            generators = real(unit_group(m))
            moved = spectra._moved(sweep.weighted, sweep.masks, m, generators)
            references = [_moved_reference(sweep, t) for t in generators]
            assert moved.shape == (len(sweep.integral), cd.k, len(generators)), text
            for i, reference in enumerate(references):
                assert np.array_equal(moved[:, :, i], reference), (text, generators[i])
            outside = np.zeros_like(sweep.integral)
            for reference in references:
                outside |= reference.any(axis=1)
            wrong += not np.array_equal(sweep_in_subfield(sweep, unit_group(m)), ~outside)
        return wrong

    assert mismatches() == 0
    assert any(len(real(unit_group(corpus[text][0].exponent))) > 1 for text in CORPUS)
    monkeypatch.setattr(spectra, "_generating_set", lambda gamma: real(gamma)[:-1])
    assert mismatches() > 0


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
    weighted = spectra._formula(cd, table)
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


def _block_rows(monkeypatch, cd, table, rows, units=1):
    """Set group_core.CHUNK_BYTES to guarded-pass blocks of rows subsets (None: the shipped budget); returns the rows per block.

    A guarded block holds 1 + units (k - 1) columns per subset: the own-bit
    column and the Gram columns of each unit (1 for integrality).
    """
    width = 1 + units * (cd.k - 1)
    if rows is not None:
        monkeypatch.setattr(group_core, "CHUNK_BYTES", 8 * width * rows)
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
    # at the shipped budget, dihedral(22)'s 8,192 checked rows of k = 14 columns take two blocks
    assert blocked >= (1 if rows is None else 20), blocked


def _unit_sets(m):
    """verify-all's stacked units, one generator of each nontrivial cyclic subgroup, and the generating set of each gamma of _stdout_gammas."""
    cyclic = tuple(sorted(g.generators[0] for g in cyclic_subgroups(m) if g.order > 1))
    return [cyclic, *(spectra._generating_set(gamma) for gamma in _stdout_gammas(m))]


def test_gram_sweeps_equal_the_per_subset_products(swept):
    """Each sweep flag is the direct test x @ M != 0 on subset x's mask row.

    M is the coefficients of weighted past each character's first for
    integrality, and for membership under unit t the defects
    weighted (sigma_t - I), built here one unit at a time.  On every corpus
    group and the class-sweep groups, for every unit set that verify-all and
    the stdout gammas stack.
    """
    for text, (group, cd, table) in swept.items():
        k, m = cd.k, table.m
        masks = _bitmask_rows(k)
        weighted = spectra._formula(cd, table)
        sweep = class_sweep(group, cd, table)
        irrational = weighted.reshape(k, k, -1)[:, :, 1:].reshape(k, -1)
        assert np.array_equal(sweep.integral, ~(masks @ irrational != 0).any(axis=1)), text
        flat = weighted.reshape(k * k, -1)
        for units in _unit_sets(m):
            fixed = sweep_unit_fixed(sweep, units)
            assert fixed.shape == (1 << (k - 1), len(units)), (text, units)
            for i, t in enumerate(units):
                defect = (flat @ spectra._galois_matrix(m, t) - flat).reshape(k, -1)
                assert np.array_equal(fixed[:, i], ~(masks @ defect != 0).any(axis=1)), (text, units, t)


def test_gram_rows_flag_sums_whose_columns_cancel_and_sums_past_2_to_the_63():
    """_gram's rows, summed by _block_sums, flag exactly the subsets x with x @ M != 0.

    Block 0 has x @ M = (1, -1, 0, 0) for x = {1}: nonzero, though its
    columns sum to 0.  Block 1's entries are 2^31, so its Gram entries reach
    2^64, which int64 wraps to 0; they are Python integers instead.
    """
    top = 1 << 31
    blocks = np.array(
        [
            [[5, 5, 5, 5], [1, -1, 0, 0], [2, -2, 1, -1], [-1, 1, 0, 0]],
            [[7, 7, 7, 7], [top, top, top, top], [top, -top, top, -top], [-top, -top, -top, -top]],
        ],
        dtype=np.int64,
    )
    assert (blocks @ blocks[:, 1:].transpose(0, 2, 1))[1, 1, 0] == 0  # |(2^31, 2^31, 2^31, 2^31)|^2 wraps in int64
    rows = spectra._gram(blocks)
    assert rows.dtype == object and rows.shape == (4, 6)
    flags = np.concatenate([(block.reshape(len(block), 2, 3) != 0).any(axis=2) for _, block in spectra._block_sums(rows)])
    masks = _bitmask_rows(4).astype(object)
    want = np.stack([(masks @ block.astype(object) != 0).any(axis=1) for block in blocks], axis=1)
    assert np.array_equal(flags, want)
    assert want[1].tolist() == [True, True]  # x = {1}
    assert want[5].tolist() == [False, False]  # x = {1, 3}


@pytest.mark.parametrize("text", ["dihedral(22)", "alternating(7)"])
@pytest.mark.parametrize("command", ["check-integrality", "check-membership"])
def test_sweep_passes_sum_at_most_t_gram_blocks_and_one_column(monkeypatch, capsys, text, command):
    """No check-* sweep pass sums blocks wider than T (k - 1) + 1 columns, T the units stacked (1 for integrality)."""
    group, cd, table = _bundle(text)
    units = spectra._generating_set(unit_group(group.exponent)) if command == "check-membership" else (1,)
    widths = []
    real = spectra._block_sums

    def spy(rows):
        widths.append(rows.shape[1])
        return real(rows)

    monkeypatch.setattr(spectra, "_block_sums", spy)
    argv = [command, "--group", text, "--connection", "sweep"]
    assert cli.run(argv + (["--gamma", "rational"] if command == "check-membership" else [])) == 0
    capsys.readouterr()
    assert widths and max(widths) <= len(units) * (cd.k - 1) + 1, (widths, units)


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


OFFSET_GROUPS = ["cyclic(5)", "symmetric(4)", "dihedral(6)", "alternating(5)", "cyclic(12)"]


@pytest.mark.parametrize("text", OFFSET_GROUPS)
@pytest.mark.parametrize("through_cli", [False, True])
def test_a_block_offset_off_by_one_is_refused(corpus, monkeypatch, capsys, text, through_cli):
    """Every block summed at the next block's offset fails the own-bit guard of the integrality pass.

    Block h is read as the subsets of block h + 1, whose own-bit column
    sums to their bitmasks, not to block h's.  The sweep is refused when
    class_sweep is called, and through the check-integrality sweep job,
    which then writes nothing to stdout.
    """
    group, cd, table = corpus[text]
    per_block = _block_rows(monkeypatch, cd, table, max(1, 1 << (cd.k - 4)))
    blocks = (1 << (cd.k - 1)) // per_block
    assert blocks == 8

    def sweep():
        if through_cli:
            return cli.run(["check-integrality", "--group", text, "--connection", "sweep"])
        return class_sweep(group, cd, table)

    real = spectra._block_sums
    for h in range(blocks - 1):
        monkeypatch.setattr(spectra, "_block_sums", _shifted_block_sums(real, h))
        with pytest.raises(InternalConsistencyError, match=f"^a block of sums does not hold the subsets from {h * per_block} on$"):
            sweep()
        assert capsys.readouterr().out == ""
    monkeypatch.setattr(spectra, "_block_sums", _shifted_block_sums(real, blocks))  # no such block
    sweep()


@pytest.mark.parametrize("text", OFFSET_GROUPS)
def test_a_galois_block_offset_off_by_one_is_refused(corpus, monkeypatch, capsys, text):
    """Every block summed at the next block's offset fails the own-bit guard of the Galois pass.

    The check-membership sweep job over the unit group stacks the units of
    its generating set; only the Galois pass is shifted, so the checked
    integrality pass before it runs as shipped.  The job raises and writes
    nothing to stdout.
    """
    group, cd, table = corpus[text]
    units = len(spectra._generating_set(unit_group(group.exponent)))
    per_block = _block_rows(monkeypatch, cd, table, max(1, 1 << (cd.k - 4)), units)
    blocks = (1 << (cd.k - 1)) // per_block
    assert blocks == 8
    argv = ["check-membership", "--group", text, "--connection", "sweep", "--gamma", "rational"]
    real = spectra._block_sums

    def galois_shifted(h):
        """_block_sums with block h shifted in every pass after the first, the integrality pass."""
        first, shifted = [real], _shifted_block_sums(real, h)
        return lambda rows: (first.pop() if first else shifted)(rows)

    for h in range(blocks - 1):
        monkeypatch.setattr(spectra, "_block_sums", galois_shifted(h))
        with pytest.raises(InternalConsistencyError, match=f"^a block of sums does not hold the subsets from {h * per_block} on$"):
            cli.run(argv)
        assert capsys.readouterr().out == ""
    monkeypatch.setattr(spectra, "_block_sums", galois_shifted(blocks))  # no such block
    assert cli.run(argv) == 0


def _reordered_block_sums(real):
    """real, a _block_sums that takes the low classes 1..c in reverse: each block's first row is right, its later rows other subsets' sums."""

    def sums(rows):
        c = spectra._block_bits(len(rows) - 1, rows.shape[1])
        return real(np.concatenate((rows[:1], rows[c:0:-1], rows[c + 1 :])))

    return sums


@pytest.mark.parametrize("text", OFFSET_GROUPS)
def test_a_block_in_the_wrong_row_order_is_refused_by_both_passes(corpus, monkeypatch, text):
    """The guard compares every row of a block with its subset, not only the first, in the integrality and Galois passes."""
    group, cd, table = corpus[text]
    sweep = class_sweep(group, cd, table)
    units = spectra._generating_set(unit_group(group.exponent))
    monkeypatch.setattr(spectra, "_block_sums", _reordered_block_sums(spectra._block_sums))
    for run in (lambda: class_sweep(group, cd, table), lambda: sweep_unit_fixed(sweep, units)):
        with pytest.raises(InternalConsistencyError, match="^a block of sums does not hold the subsets from 0 on$"):
            run()


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


def _spy_galois_passes(monkeypatch):
    """The units of every stacked Galois pass (_defects) and the count of every block pass (_block_sums)."""
    passes, blocks = [], []
    defects, block_sums = spectra._defects, spectra._block_sums

    def defects_spy(weighted, m, units):
        passes.append(tuple(int(t) for t in units))
        return defects(weighted, m, units)

    def block_spy(rows):
        blocks.append(len(rows))
        return block_sums(rows)

    monkeypatch.setattr(spectra, "_defects", defects_spy)
    monkeypatch.setattr(spectra, "_block_sums", block_spy)
    return passes, blocks


def test_verify_all_runs_one_galois_pass_per_swept_group(monkeypatch, capsys):
    """Each swept group takes one stacked pass over one generator of each nontrivial cyclic subgroup, and no class merge.

    The block passes are then the checked pass and that one Galois pass.
    """
    passes, blocks = _spy_galois_passes(monkeypatch)
    merges = []
    monkeypatch.setattr(galois, "galois_conjugacy_classes", lambda *args: merges.append(args))
    assert cli.run(["verify-all"]) == 0
    capsys.readouterr()
    expected = []
    for text in CORPUS:
        m = build_group(GroupSpec.from_json(text)).exponent
        expected.append(tuple(sorted(g.generators[0] for g in cyclic_subgroups(m) if g.order > 1)))
    assert passes == [units for units in expected if units]  # with no generators (m <= 2), there is no stacked pass
    assert len(blocks) == len(CORPUS) + len(passes)
    assert merges == []


def test_a_membership_sweep_with_four_generators_takes_one_galois_pass(monkeypatch, capsys):
    """alternating(7) with gamma the whole unit group mod 420: generators 11, 13, 17 and 19 in one pass."""
    passes, blocks = _spy_galois_passes(monkeypatch)
    argv = ["check-membership", "--group", "alternating(7)", "--connection", "sweep", "--gamma", "rational"]
    assert cli.run(argv) == 0
    capsys.readouterr()
    assert passes == [(11, 13, 17, 19)]
    assert len(blocks) == 2


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


def test_unit_sweeps_refuse_an_exponent_that_is_no_unit(corpus):
    group, cd, table = corpus["cyclic(12)"]
    sweep = class_sweep(group, cd, table)
    for decide in (sweep_unit_fixed, sweep_unit_closed):
        with pytest.raises(ValueError, match=r"^a Galois exponent in \[5, 3\] is not a unit mod 12$"):
            decide(sweep, [5, 3])
        assert decide(sweep, []).shape == (len(sweep.integral), 0)


def test_galois_defect_bound_is_checked_when_the_sweep_is_built(monkeypatch, corpus):
    group, cd, table = corpus["cyclic(5)"]
    real = spectra._basis_norm
    monkeypatch.setattr(spectra, "_basis_norm", lambda m: real(m) << 61)
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
