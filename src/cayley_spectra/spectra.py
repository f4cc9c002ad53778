"""Spectra of normal Cayley digraphs via the character formula.

For a connection set C that is a union of conjugacy classes, each irreducible
character chi contributes the eigenvalue (1/chi(1)) * sum of chi over C with
multiplicity chi(1)^2.  Eigenvalues are kept exact: a cyclotomic-integer
numerator paired with the degree divisor.  On top of the formula sit the two
equivalence checks: integrality against power closure of C, and membership in
a subfield against closure of C under the matching Galois power action.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
import numbers
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from ._modp import exact_matmul
from .characters import CharacterTable, InducedCharacter, induced_character_from_cyclic
from .cyclotomic import (
    CycInt,
    _galois_matrix,
    _power_basis,
    as_rational,
    get_context,
    is_fixed_by,
    reduce_raw,
    totient,
)
from .errors import InternalConsistencyError, ResourceLimitError, shown
from .galois import (
    GaloisConjugacyClasses,
    GaloisSubgroup,
    _generating_set,
    _power_closure_witness,
    _unit_powers,
    galois_conjugacy_classes,
    is_union_of_galois_classes,
)
from .group_core import TABLE_BYTE_BUDGET, ClassData, Group

__all__ = [
    "ClassSweep",
    "ConnectionSet",
    "EigenValue",
    "IntegralityReport",
    "MembershipReport",
    "PowerConjugationCounts",
    "Spectrum",
    "SpectrumEntry",
    "all_eigenvalues_in_subfield",
    "all_eigenvalues_integral",
    "check_coefficient_symmetry",
    "check_integrality",
    "check_membership",
    "check_sweep_size",
    "class_sweep",
    "eigenvalues_via_characters",
    "make_connection_set",
    "power_conjugation_counts",
    "sweep_class_closed",
    "sweep_in_subfield",
    "sweep_power_closed",
    "sweep_spectrum",
]


@dataclass(frozen=True)
class ConnectionSet:
    """A union of conjugacy classes, stored both as class indices and elements."""

    class_indices: tuple[int, ...]
    elements: tuple[int, ...]
    contains_identity: bool

    @property
    def size(self) -> int:
        return len(self.elements)


def make_connection_set(spec, group: Group, cd: ClassData) -> ConnectionSet:
    """Build a connection set from class indices, representatives or elements.

    Accepted forms: {"classes": [...]}, {"representatives": [...]},
    {"elements": [...]} or the string "all-nonidentity".  Explicit element
    lists must be unions of whole classes; the first broken class is named.
    """
    if spec == "all-nonidentity":
        return _from_classes(range(1, cd.k), cd)
    if isinstance(spec, dict):
        if "classes" in spec:
            idxs = [_index(j, "class index") for j in spec["classes"]]
            for j in idxs:
                if not 0 <= j < cd.k:
                    raise ValueError(f"class index {shown(j)} out of range 0..{cd.k - 1}")
            return _from_classes(idxs, cd)
        if "representatives" in spec:
            reps = [_index(g, "element") for g in spec["representatives"]]
            for g in reps:
                if not 0 <= g < group.n:
                    raise ValueError(f"element {shown(g)} out of range 0..{group.n - 1}")
            return _from_classes((int(cd.class_of[g]) for g in reps), cd)
        if "elements" in spec:
            elems = sorted({_index(g, "element") for g in spec["elements"]})
            for g in elems:
                if not 0 <= g < group.n:
                    raise ValueError(f"element {shown(g)} out of range 0..{group.n - 1}")
            chosen = set(elems)
            idxs = sorted({int(cd.class_of[g]) for g in elems})
            for j in idxs:
                missing = [x for x in cd.classes[j] if x not in chosen]
                if missing:
                    raise ValueError(
                        f"element list is not closed under conjugation: class {j} "
                        f"(representative {cd.representatives[j]}) is only partly included"
                    )
            return _from_classes(idxs, cd)
        raise ValueError("connection spec dict needs 'classes', 'representatives' or 'elements'")
    raise ValueError(f"cannot parse connection spec from {type(spec).__name__}")


def _index(x, what: str) -> int:
    """x as an int; a float, a bool or a string is refused, never truncated."""
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} {shown(x)} is not an integer")
    return int(x)


def _from_classes(indices, cd: ClassData) -> ConnectionSet:
    idxs = tuple(sorted(set(int(j) for j in indices)))
    elements = tuple(sorted(x for j in idxs for x in cd.classes[j]))
    return ConnectionSet(
        class_indices=idxs,
        elements=elements,
        contains_identity=0 in idxs,
    )


@dataclass(frozen=True)
class EigenValue:
    """Exact eigenvalue: cyclotomic numerator over the character degree."""

    numerator: CycInt
    denominator: int

    def as_fraction(self) -> Optional[Fraction]:
        r = as_rational(self.numerator)
        if r is None:
            return None
        return Fraction(r, self.denominator)

    @property
    def is_rational(self) -> bool:
        return self.as_fraction() is not None

    def to_complex(self) -> complex:
        return self.numerator.to_complex() / self.denominator


@dataclass(frozen=True)
class SpectrumEntry:
    character: int
    degree: int
    multiplicity: int
    value: EigenValue


@dataclass(eq=False)
class Spectrum:
    """All eigenvalues of one Cayley digraph, in character-table order."""

    entries: tuple[SpectrumEntry, ...]
    group_order: int
    connection_size: int
    contains_identity: bool


# ---------------------------------------------------------------------------
# the character formula on 0/1 class masks


def _check_int64(bound: int, what: str) -> None:
    if bound >= 2**63:
        raise ResourceLimitError(f"{what} may reach {bound}, beyond exact int64 arithmetic")


def _formula(
    cd: ClassData, table: CharacterTable
) -> tuple[np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """The character formula's summands and its per-row check.

    With T the table's coefficient array and s the class sizes, returns
    weighted = s * T, shaped (k, k * phi) with row j holding s_j * chi_r(g_j)
    for every r, and check(masks, numerators) (_check_rows).  masks is a
    (B, k) 0/1 int64 array, row b the indicator of a union of classes, and
    numerators its (B, k, phi) sums of the rows of weighted: N[b, r] is the
    numerator of character r's eigenvalue on row b over the divisor
    chi_r(1).  The sums are formed by the caller: masks @ weighted for a
    single connection set, the blocks of _block_sums for a sweep.  check
    tests the spectrum identities on every row, refuses a rational
    non-integer eigenvalue and returns the (B, k) flags of the irrational
    N[b, r].  The table's own identities, that the multiplicities d_r^2 sum
    to n and that the identity class carries the degrees, are checked here,
    once.

    Exactness: with L the largest |coefficient| in T, every partial sum of a
    numerator is at most n L in absolute value, and every partial sum of the
    trace identity sum_r d_r N[:, r] at most n^2 L, as sum_r d_r <= sum_r
    d_r^2 = n.  The Galois defects of _outside_subfield have partial sums at
    most n L |sigma_t - I|_1, |.|_1 the largest column L1 norm.  The rows of
    sigma_t are distinct rows of the power-basis table B, as e -> e t is
    injective mod m for a unit t, so |sigma_t - I|_1 <= |B|_1 + 1 for every
    unit t.  A product's partial sum and every value that _block_sums or
    _subset_sums forms are sums over a subset of the classes, so the bounds
    hold for all of them.  They are checked against 2^63 before any array
    is built.
    """
    n, k = sum(cd.sizes), cd.k
    coeffs = table.coefficients
    phi = coeffs.shape[2]
    entry_bound = n * int(np.abs(coeffs).max())
    _check_int64(n * entry_bound, "the trace identity")
    shift_norm = int(np.abs(_power_basis(table.m)).sum(axis=0).max()) + 1
    _check_int64(entry_bound * shift_norm, "a Galois defect")
    sizes = np.array(cd.sizes, dtype=np.int64)
    degrees = np.array(table.degrees, dtype=np.int64)
    if int(degrees @ degrees) != n:
        raise InternalConsistencyError("multiplicities do not sum to the group order")
    if (coeffs[:, 0, 0] != degrees).any() or coeffs[:, 0, 1:].any():
        raise InternalConsistencyError("identity class values differ from the degrees")
    weighted = (coeffs * sizes[None, :, None]).transpose(1, 0, 2).reshape(k, k * phi)
    return weighted, partial(_check_rows, sizes, degrees, n)


def _check_rows(
    sizes: np.ndarray, degrees: np.ndarray, n: int, masks: np.ndarray, numerators: np.ndarray
) -> np.ndarray:
    """The spectrum identities on every row of masks; returns the (B, k) flags of the irrational numerators.

    The trivial character's eigenvalue is |C| = masks @ sizes, and the trace
    sum_r d_r N_r is n when C holds the identity and 0 otherwise.  A
    numerator is irrational when it has a nonzero coefficient past the
    first (_nonzero_from).  A rational one must be divisible by the degree,
    which only a character of degree > 1 can fail.
    """
    if (numerators[:, 0, 0] != masks @ sizes).any() or numerators[:, 0, 1:].any():
        raise InternalConsistencyError("trivial eigenvalue differs from |C|")
    trace = degrees @ numerators
    trace[:, 0] -= n * masks[:, 0]
    if trace.any():
        raise InternalConsistencyError("trace identity fails")
    irrational = _nonzero_from(numerators, 1)
    wide = np.flatnonzero(degrees > 1)
    split = (numerators[:, wide, 0] % degrees[wide] != 0) & ~irrational[:, wide]
    if split.any():
        s, r = np.argwhere(split)[0]
        value = Fraction(int(numerators[s, wide[r], 0]), int(degrees[wide[r]]))
        raise InternalConsistencyError(f"rational non-integer eigenvalue {value} for character {wide[r]}")
    return irrational


def _nonzero_from(values: np.ndarray, first: int) -> np.ndarray:
    """(B, k) flags of the (B, k, phi) int64 values with a nonzero coefficient at index first or later.

    any() over the short, strided last axis runs one tiny loop per value.
    So the values are compared with 0, copied coefficient-major and reduced
    over their leading axis: one long OR per coefficient.  Every caller
    passes one block of _block_sums or one row, so the two bool temporaries
    are at most an eighth of SWEEP_BLOCK_BYTES (or of a row).
    """
    nonzero = np.ascontiguousarray((values != 0).transpose(2, 0, 1)[first:])
    return np.logical_or.reduce(nonzero, axis=0)


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """The (2^(k-1), X) sums of rows[1:], a (k, X) array, over every subset of classes 1..k-1, in bitmask order.

    Subset s holds class j + 1 when bit j of s is set, so the subsets with
    bit j set are those below 2^j with class j + 1 added: out[2^j : 2^(j+1)]
    = out[:2^j] + rows[j + 1].  That is one add per subset and entry, where
    masks @ rows takes k.  Every value formed is the sum of a subset.
    """
    out = np.empty((1 << (len(rows) - 1), rows.shape[1]), dtype=rows.dtype)
    out[0] = 0
    for j, row in enumerate(rows[1:]):
        np.add(out[: 1 << j], row, out=out[1 << j : 2 << j])
    return out


# Bytes of one block of a sweep's int64 sums.  A block and the temporaries of
# the checks made on it (an eighth of it for each bool array) stay in a
# core's cache, and below glibc's 128 KiB mmap threshold the temporaries are
# reused from the heap, not mapped afresh per block.  Cold sweeps of
# dihedral(22), alternating(7) and symmetric(6) together ran fastest at
# 512 KiB of the sizes 256 KiB to 2 MiB tried, on a 2-core x86-64 machine
# with 2 MiB of L2 cache per core.
SWEEP_BLOCK_BYTES = 1 << 19


def _block_bits(bits: int, width: int) -> int:
    """c <= bits, the largest with 2^c rows of width int64 entries within SWEEP_BLOCK_BYTES, and at least 0."""
    rows = max(1, SWEEP_BLOCK_BYTES // (8 * width))
    return min(bits, rows.bit_length() - 1)


def _block_sums(rows: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """The sums of rows[1:], a (k, X) array, over every subset of classes 1..k-1, as (start, block) in bitmask order.

    block holds the sums of subsets start, start + 1, ... in its rows.
    With c = _block_bits(k - 1, X), subset s splits into its low c bits and
    the rest: its sum is low[s mod 2^c] + high[s >> c], where low and high
    are the _subset_sums of classes 1..c and of classes c + 1..k - 1.  So
    block h is low + high[h], one add per entry, and every value formed is
    the sum of a subset.  Block 0 is low itself, as high[0] is the empty
    sum; the later blocks are written into one buffer that the next block
    overwrites.  A caller reads a block and never writes to it.
    """
    c = _block_bits(len(rows) - 1, rows.shape[1])
    low = _subset_sums(rows[: c + 1])
    yield 0, low
    high = _subset_sums(np.concatenate((rows[:1], rows[c + 1 :])))
    block = np.empty_like(low) if len(high) > 1 else None
    for h in range(1, len(high)):
        np.add(low, high[h], out=block)
        yield h << c, block


def _bit_masks(start: int, count: int, k: int) -> np.ndarray:
    """The (count, k) 0/1 int64 indicators of subsets start .. start + count - 1: class j + 1 when bit j is set, never class 0."""
    bits = np.arange(start, start + count, dtype=np.int64) << 1  # bit j for class j
    masks = bits[:, None] >> np.arange(k)
    masks &= 1
    return masks


def _outside_subfield(
    weighted: np.ndarray,
    sums: Callable[[np.ndarray], Iterable[tuple[int, np.ndarray]]],
    count: int,
    m: int,
    gamma: GaloisSubgroup,
) -> np.ndarray:
    """(count, k) flags: whether character r's eigenvalue on row s is moved by gamma.

    The map z -> z^t acts on coefficient rows as the phi x phi matrix sigma_t
    whose row e holds z^(e t).  A value is fixed by gamma exactly when it is
    fixed by each element of a generating set, since the fixed field of a
    group is the fixed field of any set generating it.  For each generator
    the per-class defect (s * T) @ (sigma_t - I) is formed once and summed
    by sums, which yields (start, block) pairs as _block_sums does: the
    blocks of _block_sums for a sweep, one product for a single connection
    set.  An eigenvalue is outside the fixed field when a coefficient of its
    defect sum is nonzero (_nonzero_from).  One block of defect sums is
    alive at a time.

    Exactness: _formula has checked that every partial sum fits in int64;
    those of (s * T) @ sigma_t are at most max|s * T| times the largest
    column L1 norm of sigma_t, at most n L |B|_1, below the defect bound.
    exact_matmul takes that bound and runs the product in float64 where it
    is below 2^53.
    """
    if gamma.m != m:
        raise ValueError(f"subgroup modulus {gamma.m} does not match conductor {m}")
    k = len(weighted)
    phi = weighted.shape[1] // k
    flat = weighted.reshape(k * k, phi)
    top = int(np.abs(flat).max(initial=0))
    outside = np.zeros((count, k), dtype=bool)
    for t in _generating_set(gamma):
        sigma = _galois_matrix(m, t)
        bound = top * int(np.abs(sigma).sum(axis=0).max())
        defect = (exact_matmul(flat, sigma, bound) - flat).reshape(k, k * phi)
        for start, block in sums(defect):
            outside[start : start + len(block)] |= _nonzero_from(block.reshape(len(block), k, phi), 0)
    return outside


def _read_spectrum(m: int, degrees, row: np.ndarray, n: int, size: int, identity: bool) -> Spectrum:
    """The Spectrum with eigenvalues row[r] / degrees[r], row holding (k, phi) numerators at conductor m."""
    ctx = get_context(m)
    entries = tuple(
        SpectrumEntry(r, d, d * d, EigenValue(CycInt(ctx, tuple(coeffs)), d))
        for r, (d, coeffs) in enumerate(zip(degrees, row.tolist()))
    )
    return Spectrum(entries, group_order=n, connection_size=size, contains_identity=identity)


def _mask(connection: ConnectionSet, cd: ClassData) -> np.ndarray:
    """The connection's indicator over the k classes, as one (1, k) mask row."""
    mask = np.zeros((1, cd.k), dtype=np.int64)
    mask[0, list(connection.class_indices)] = 1
    return mask


def _one_row(mask: np.ndarray, rows: np.ndarray) -> tuple[tuple[int, np.ndarray]]:
    """The sums of rows over the one mask row, as the single block (0, mask @ rows)."""
    return ((0, mask @ rows),)


def _single(connection: ConnectionSet, cd: ClassData, table: CharacterTable):
    """_formula on the connection's one mask row.

    Returns weighted, the sums that _outside_subfield takes for this row
    (_one_row), and the row's (1, k, phi) numerators and (1, k) irrational
    flags.
    """
    mask = _mask(connection, cd)
    weighted, check = _formula(cd, table)
    numerators = (mask @ weighted).reshape(1, cd.k, -1)
    return weighted, partial(_one_row, mask), numerators, check(mask, numerators)


def _first(flags: np.ndarray) -> Optional[int]:
    """Index of the first set flag, or None."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if len(hits) else None


# ---------------------------------------------------------------------------
# one connection set


def eigenvalues_via_characters(
    connection: ConnectionSet, table: CharacterTable, cd: ClassData
) -> Spectrum:
    """Evaluate the character formula for every irreducible character.

    The per-entry numerator is the plain character sum over C, the divisor is
    the degree.  _formula's check runs on the connection's one mask row and
    tests the exact spectrum identities, so a returned Spectrum is
    internally consistent.
    """
    _, _, numerators, _ = _single(connection, cd, table)
    return _read_spectrum(
        table.m, table.degrees, numerators[0], sum(cd.sizes), connection.size, connection.contains_identity
    )


def all_eigenvalues_integral(sp: Spectrum) -> bool:
    """Whether every eigenvalue is a rational integer (exact test)."""
    fractions = (e.value.as_fraction() for e in sp.entries)
    return all(f is not None and f.denominator == 1 for f in fractions)


def all_eigenvalues_in_subfield(sp: Spectrum, gamma: GaloisSubgroup) -> bool:
    """Whether every eigenvalue lies in the subfield fixed by gamma."""
    return all(is_fixed_by(e.value.numerator, gamma) for e in sp.entries)


@dataclass(frozen=True)
class IntegralityReport:
    """Both sides of the integrality equivalence plus disagreement witnesses."""

    integral: bool
    power_closed: bool
    agree: bool
    offending_character: Optional[int] = None
    offending_power: Optional[tuple[int, int]] = None


def check_integrality(
    group: Group, cd: ClassData, connection: ConnectionSet, table: CharacterTable
) -> IntegralityReport:
    """Evaluate eigenvalue integrality and power closure independently."""
    _, _, _, irrational = _single(connection, cd, table)
    bad_char = _first(irrational[0])
    witness = _power_closure_witness(connection.elements, group)
    integral = bad_char is None
    closed = witness is None
    return IntegralityReport(
        integral=integral,
        power_closed=closed,
        agree=integral == closed,
        offending_character=bad_char,
        offending_power=witness,
    )


@dataclass(frozen=True)
class MembershipReport:
    """Both sides of the subfield-membership equivalence with witnesses."""

    in_subfield: bool
    class_closed: bool
    agree: bool
    offending_character: Optional[int] = None
    offending_class: Optional[int] = None


def check_membership(
    group: Group,
    cd: ClassData,
    connection: ConnectionSet,
    table: CharacterTable,
    gamma: GaloisSubgroup,
    merged: Optional[GaloisConjugacyClasses] = None,
) -> MembershipReport:
    """Evaluate subfield membership against Galois-class closure of C."""
    weighted, sums, _, _ = _single(connection, cd, table)
    bad_char = _first(_outside_subfield(weighted, sums, 1, table.m, gamma)[0])
    if merged is None:
        merged = galois_conjugacy_classes(group, cd, gamma)
    elif merged.gamma.m != gamma.m or merged.gamma.elements != gamma.elements:
        raise ValueError("precomputed class merge does not belong to gamma")
    closed, bad_class = is_union_of_galois_classes(connection.class_indices, cd, merged)
    in_subfield = bad_char is None
    return MembershipReport(
        in_subfield=in_subfield,
        class_closed=closed,
        agree=in_subfield == closed,
        offending_character=bad_char,
        offending_class=bad_class,
    )


# ---------------------------------------------------------------------------
# batched sweeps over every union of non-identity classes

# Python and output bytes per subset besides the sweep arrays: its class
# tuple and its JSON row, measured at 1.1 to 1.4 KiB for k = 16 to 18.
SWEEP_ROW_BYTES = 1536


def _sweep_bytes(k: int, phi: int) -> int:
    """The estimated peak bytes of a sweep over k classes at phi = phi(m).

    Per subset it counts k * phi int64 numerators, k * phi more for the one
    generator's Galois defect sums alive at a time, k int64 mask entries and
    SWEEP_ROW_BYTES.
    """
    return (1 << (k - 1)) * (8 * k * (2 * phi + 1) + SWEEP_ROW_BYTES)


def check_sweep_size(k: int, phi: int) -> None:
    """Refuse a sweep over k classes at phi = phi(m) whose estimated peak (_sweep_bytes) exceeds TABLE_BYTE_BUDGET."""
    need = _sweep_bytes(k, phi)
    if need > TABLE_BYTE_BUDGET:
        raise ResourceLimitError(
            f"a sweep over {k} classes at phi = {phi} needs about {need / 2**30:.2f} GiB,"
            f" over the {TABLE_BYTE_BUDGET >> 20} MiB budget"
        )


def _subset_tuples(k: int) -> tuple[tuple[int, ...], ...]:
    """Every subset of classes 1..k-1 as the tuple of its classes, in bitmask order (bit i for class i + 1).

    The subsets with bit j - 1 set follow those without, in order, each
    with class j appended: one tuple per subset.
    """
    subsets = [()]
    for j in range(1, k):
        subsets += [s + (j,) for s in subsets]
    return tuple(subsets)


@dataclass(eq=False)
class ClassSweep:
    """The spectra of every union of non-identity classes of one group.

    Subset s is the bitmask s over classes 1..k-1 (bit i for class i + 1), so
    the subsets run in the order of ``range(2 ** (k - 1))``.  A sweep is
    what class_sweep's checked pass keeps: ``weighted``, what _formula
    returns, and the (S,) ``integral`` flags read from each block of
    numerators.  ``subsets``, ``masks`` and ``numerators`` are derived from
    these on first read and kept; no read runs the checked pass again.
    ``masks[s]``, subset s's 0/1 indicator over all k classes, and
    ``numerators[s]``, its (k, phi) numerators, are the rows that
    eigenvalues_via_characters reads for a single connection set.  The
    oracles and sweep_spectrum read them; the decisions never do.
    """

    group: Group
    cd: ClassData
    table: CharacterTable
    weighted: np.ndarray  # (k, k * phi) int64: row j is s_j * chi_r(g_j) for every r
    integral: np.ndarray  # (S,) bool: every eigenvalue a rational integer

    @cached_property
    def subsets(self) -> tuple[tuple[int, ...], ...]:
        """Subset s's classes for every s, in bitmask order (the JSON output writes them from k alone)."""
        return _subset_tuples(self.cd.k)

    @cached_property
    def masks(self) -> np.ndarray:
        """(S, k) int64: subset s's 0/1 indicator over all k classes, from the bits of s (_bit_masks)."""
        return _bit_masks(0, len(self.integral), self.cd.k)

    @cached_property
    def numerators(self) -> np.ndarray:
        """(S, k, phi) int64: character r's eigenvalue on subset s is numerators[s, r] over chi_r(1).

        They are the values the checked pass checked, without a second
        pass: each entry is the exact int64 sum over one subset of the rows
        of weighted (_subset_sums), as each entry of a checked block is, and
        _formula bounded every such partial sum below 2^63, so no addition
        wraps and every order of them gives the same integer.
        """
        return _subset_sums(self.weighted).reshape(len(self.integral), self.cd.k, -1)


def class_sweep(group: Group, cd: ClassData, table: CharacterTable) -> ClassSweep:
    """Evaluate the character formula on all 2^(k-1) subsets.

    The sweep is refused by check_sweep_size before any array is built.
    Then the one checked pass runs: _formula checks the exactness bounds
    once, and its check runs on every block of _block_sums, in bitmask
    order, against that block's masks, built from the subsets' bits
    (_bit_masks) and not by the sums it checks.  A block is dropped once its
    integrality flags are read, so the pass keeps only the (S,) flags; a
    reader of the masks or numerators derives them (ClassSweep).
    """
    check_sweep_size(cd.k, totient(table.m))
    weighted, check = _formula(cd, table)
    k = cd.k
    integral = np.empty(1 << (k - 1), dtype=bool)
    for start, block in _block_sums(weighted):
        count = len(block)
        flags = check(_bit_masks(start, count, k), block.reshape(count, k, -1))
        integral[start : start + count] = ~flags.any(axis=1)
    return ClassSweep(group=group, cd=cd, table=table, weighted=weighted, integral=integral)


def _closed_under(sweep: ClassSweep, cover) -> np.ndarray:
    """Per subset, whether it contains cover[j] (a class bitmask) for each class j it contains.

    A class whose cover holds no other class is skipped: a subset that
    contains class j contains bit j.
    """
    bits = np.arange(len(sweep.integral), dtype=np.int64) << 1  # bit j for class j
    ok = np.ones(len(bits), dtype=bool)
    for j, c in enumerate(cover):
        if c & ~(1 << j):
            ok &= (((bits >> j) & 1) == 0) | ((c & ~bits) == 0)
    return ok


def sweep_power_closed(sweep: ClassSweep, every_element: bool = False) -> np.ndarray:
    """Power closure of every subset of the sweep, as bitmask tests.

    The reach of class j is the set of classes of x^t for x in class j and t
    coprime to |x|.  A union of classes C is power-closed exactly when it
    contains the reach of each of its classes.  The representative alone
    gives the whole reach: each x in class j is g rep_j g^-1 for some g, and
    x^t = g rep_j^t g^-1 lies in the class of rep_j^t.  So by default the
    reach is read from the power walks of the representatives only (k
    walks); with every_element it is read from every member, the
    element-level test that does not lean on that argument (n walks).
    """
    group, cd = sweep.group, sweep.cd
    members = range(group.n) if every_element else cd.representatives
    class_of = cd.class_of.tolist()
    reach = [0] * cd.k
    for x, _, y in _unit_powers(members, group):
        reach[class_of[x]] |= 1 << class_of[y]
    return _closed_under(sweep, reach)


def sweep_class_closed(sweep: ClassSweep, merged: GaloisConjugacyClasses) -> np.ndarray:
    """Whether every subset of the sweep is a union of the merged classes."""
    if len(merged.merged_class_of) != sweep.cd.k:
        raise ValueError("class merge does not belong to the sweep's group")
    blocks: dict[int, int] = {}
    for j, b in enumerate(merged.merged_class_of):
        blocks[b] = blocks.get(b, 0) | 1 << j
    return _closed_under(sweep, [blocks[b] for b in merged.merged_class_of])


def sweep_in_subfield(sweep: ClassSweep, gamma: GaloisSubgroup) -> np.ndarray:
    """Whether every eigenvalue of each subset lies in the fixed field of gamma."""
    outside = _outside_subfield(sweep.weighted, _block_sums, len(sweep.integral), sweep.table.m, gamma)
    return ~outside.any(axis=1)


def sweep_spectrum(sweep: ClassSweep, s: int) -> Spectrum:
    """Subset s's Spectrum, read from the sweep's masks and numerators."""
    size = int(sweep.masks[s] @ np.array(sweep.cd.sizes))
    return _read_spectrum(sweep.table.m, sweep.table.degrees, sweep.numerators[s], sweep.group.n, size, False)


# ---------------------------------------------------------------------------
# conjugation counts into a cyclic subgroup


@dataclass(eq=False)
class PowerConjugationCounts:
    """Counts a_i of pairs (z, y) with z in C and y^-1 z y = x^i.

    weighted_sum is sum(a_i * eta^i) at conductor |x|, embedded at the group
    exponent; it equals |x| times the sum of the induced character over C.
    """

    base: int
    counts: tuple[int, ...]
    weighted_sum: CycInt


def power_conjugation_counts(
    x: int,
    connection: ConnectionSet,
    group: Group,
    cd: ClassData,
    induced: Optional[InducedCharacter] = None,
) -> PowerConjugationCounts:
    """Tally conjugations of C into <x> and verify the induced-sum identity.

    The pairs (z, y) with y^-1 z y = x^i are the y with y x^i y^-1 in C (and
    z that element), so a_i counts the y that conjugate x^i into C.
    """
    m = group.exponent
    (walk,) = group.walks([x])
    o = len(walk)
    in_set = np.zeros(group.n, dtype=bool)
    in_set[list(connection.elements)] = True
    rows = max(1, (1 << 16) // group.n)  # powers conjugated per step
    counts = np.concatenate(
        [in_set[group.conjugates(walk[i : i + rows])].sum(axis=1) for i in range(0, o, rows)]
    )
    raw = [0] * m
    step = m // o
    for i, a in enumerate(counts):
        raw[i * step] += int(a)
    weighted = reduce_raw(raw, get_context(m))

    if induced is None:
        induced = induced_character_from_cyclic(x, group, cd)
    elif induced.base != x:
        raise ValueError(f"induced character was built for {induced.base}, not {x}")
    acc = get_context(m).zero
    for j in connection.class_indices:
        acc = acc + induced.values[j] * cd.sizes[j]
    if weighted != acc * o:
        raise InternalConsistencyError("conjugation counts disagree with the induced sum")

    return PowerConjugationCounts(
        base=x,
        counts=tuple(int(a) for a in counts),
        weighted_sum=weighted,
    )


def check_coefficient_symmetry(counts: PowerConjugationCounts, gamma: GaloisSubgroup) -> bool:
    """Whether a_i = a_(i*t mod |x|) for all i and every t in gamma.

    Expected to hold whenever the owning connection set is a union of
    gamma classes.
    """
    o = len(counts.counts)
    for t in gamma.elements:
        for i in range(o):
            if counts.counts[i] != counts.counts[(i * t) % o]:
                return False
    return True
