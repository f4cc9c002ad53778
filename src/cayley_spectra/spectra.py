"""Spectra of normal Cayley digraphs via the character formula.

For a connection set C that is a union of conjugacy classes, each irreducible
character chi contributes the eigenvalue (1/chi(1)) * sum of chi over C with
multiplicity chi(1)^2.  Eigenvalues are kept exact: a cyclotomic-integer
numerator paired with the degree divisor.  On top of the formula sit the two
equivalence checks: integrality against power closure of C, and membership in
a subfield against closure of C under the matching Galois power action, each
side an AND over generators t of per-unit columns (_moved and _closed).  Each
spectral question is whether x @ M != 0 for a class mask x and an integer
block M; a sweep asks it of every subset in one guarded pass over the Gram
rows of M (_vanishing).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import numbers
from typing import Iterator, Optional, Sequence

import numpy as np

from ._modp import _widened, exact_matmul
from .characters import CharacterTable, InducedCharacter, induced_character_from_cyclic
from .cyclotomic import (
    CycInt,
    _basis_norm,
    _galois_matrix,
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
    unit_group,
)
from .group_core import TABLE_BYTE_BUDGET, ClassData, Group, _chunks

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
    "sweep_unit_closed",
    "sweep_unit_fixed",
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
    {"elements": [...]} or the string "all-nonidentity".  A dict that gives
    more than one of the three keys is refused.  Explicit element lists must
    be unions of whole classes; the first broken class is named.
    """
    if spec == "all-nonidentity":
        return _from_classes(range(1, cd.k), cd)
    if isinstance(spec, dict):
        given = [key for key in ("classes", "representatives", "elements") if key in spec]
        if len(given) > 1:
            raise ValueError(f"connection spec gives {' and '.join(map(repr, given))}; give exactly one")
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


def _formula(cd: ClassData, table: CharacterTable) -> np.ndarray:
    """The character formula's summands, with every spectrum identity checked on the k single-class rows.

    With T the table's coefficient array and s the class sizes, returns
    weighted = s * T, shaped (k, k * phi) with row j holding s_j * chi_r(g_j)
    for every r.  A union of classes with 0/1 indicator x has the
    numerators x @ weighted: N[r] over the divisor chi_r(1) is character
    r's eigenvalue.  The spectrum identities are linear in x, so they are
    checked once, on each row j, and then hold for every union of classes:
    - the trivial character gives s_j, so N[0] = x @ s = |C|;
    - the trace sum_r d_r s_j chi_r(g_j) is n when j is the identity class
      and 0 otherwise (column orthogonality), so sum_r d_r N[r] is n when C
      holds the identity and 0 otherwise;
    - d_r divides every coefficient of s_j chi_r(g_j): the central
      character value s_j chi_r(g_j) / d_r is an algebraic integer (Isaacs,
      Character Theory of Finite Groups, 1976, Thm 3.7), and the power
      basis is a Z-basis of Z[z].  So d_r divides N[r] coefficientwise, and
      a rational eigenvalue is an integer.  A row that breaks this is
      refused as a rational non-integer eigenvalue when it is rational.
    The table's own identities, that the multiplicities d_r^2 sum to n and
    that the identity class carries the degrees, are checked here too.

    Exactness: with L the largest |coefficient| in T, every partial sum of a
    numerator is at most n L in absolute value, and every partial sum of the
    trace identity at most n^2 L, as sum_r d_r <= sum_r d_r^2 = n.  The
    Galois defects of _defects have partial sums at most n L |sigma_t - I|_1,
    |.|_1 the largest column L1 norm.  The rows of sigma_t are distinct rows
    of the power-basis table B, as e -> e t is injective mod m for a unit t,
    so |sigma_t - I|_1 <= |B|_1 + 1 for every unit t.  A product's partial
    sum and every value that _subset_sums forms from weighted or a defect
    are sums over a subset of the classes, so the bounds hold for all of
    them.  They are checked against 2^63 before any array is built.  The
    Gram rows a sweep sums are bounded where they are made (_gram).
    """
    n, k = sum(cd.sizes), cd.k
    coeffs = table.coefficients
    phi = coeffs.shape[2]
    entry_bound = n * int(np.abs(coeffs).max())
    _check_int64(n * entry_bound, "the trace identity")
    shift_norm = _basis_norm(table.m) + 1
    _check_int64(entry_bound * shift_norm, "a Galois defect")
    sizes = np.array(cd.sizes, dtype=np.int64)
    degrees = np.array(table.degrees, dtype=np.int64)
    if int(degrees @ degrees) != n:
        raise InternalConsistencyError("multiplicities do not sum to the group order")
    if (coeffs[:, 0, 0] != degrees).any() or coeffs[:, 0, 1:].any():
        raise InternalConsistencyError("identity class values differ from the degrees")
    summands = coeffs.transpose(1, 0, 2) * sizes[:, None, None]  # (j, r, e)
    if (summands[:, 0, 0] != sizes).any() or summands[:, 0, 1:].any():
        raise InternalConsistencyError("trivial eigenvalue differs from |C|")
    trace = degrees @ summands
    trace[0, 0] -= n
    if trace.any():
        raise InternalConsistencyError("trace identity fails")
    split = (summands % degrees[:, None] != 0).any(axis=2)
    if split.any():
        j, r = np.argwhere(split)[0]
        if summands[j, r, 1:].any():
            raise InternalConsistencyError(
                f"central character value of character {r} on class {j} is not an algebraic integer"
            )
        value = Fraction(int(summands[j, r, 0]), int(degrees[r]))
        raise InternalConsistencyError(f"rational non-integer eigenvalue {value} for character {r}")
    return summands.reshape(k, k * phi)


def _nonzero_from(values: np.ndarray, first: int) -> np.ndarray:
    """(B, k) flags of the (B, k, phi) integer values with a nonzero coefficient at index first or later.

    any() over the short, strided last axis runs one tiny loop per value.
    So the values are compared with 0, copied coefficient-major and reduced
    over their leading axis: one long OR per coefficient.  Every caller
    passes the values of its mask rows, and the two bool temporaries are an
    eighth of them.  A sweep reads its blocks the same way (_vanishing).
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


def _block_bits(bits: int, width: int) -> int:
    """c <= bits, the largest with 2^c rows of width int64 entries within one chunk (_chunks), and at least 0."""
    rows = next(_chunks(1 << bits, 8 * width)).stop
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
    overwrites.  A caller reads a block and never writes to it.  Its one
    caller, _vanishing, checks each block's offset against a column of the
    rows.
    """
    c = _block_bits(len(rows) - 1, rows.shape[1])
    low = _subset_sums(rows[: c + 1])
    yield 0, low
    high = _subset_sums(np.concatenate((rows[:1], rows[c + 1 :])))
    block = np.empty_like(low) if len(high) > 1 else None
    for h in range(1, len(high)):
        np.add(low, high[h], out=block)
        yield h << c, block


def _defects(weighted: np.ndarray, m: int, units: np.ndarray) -> np.ndarray:
    """(T, k, k * phi): row j of block t holds class j's Galois defects (s_j * chi_r(g_j)) (sigma_t - I) for every r, in the order (r, e).

    The map z -> z^t acts on coefficient rows as the phi x phi matrix
    sigma_t whose row e holds z^(e t).  The sigma_t of the T units are
    stacked side by side, so one product forms every per-class defect: the
    stacked Galois pass that every gamma question reads.

    Exactness: _formula has checked that every partial sum of a defect fits
    in int64; those of (s * T) @ sigma_t are at most max|s * T| times the
    largest column L1 norm of the stack, at most n L |B|_1, below the defect
    bound.  exact_matmul takes that bound and runs the product in float64
    where it is below 2^53.
    """
    k = len(weighted)
    phi = weighted.shape[1] // k
    flat = weighted.reshape(k * k, phi)
    sigma = _galois_matrix(m, units).transpose(1, 0, 2).reshape(phi, -1)  # column (t, e) is column e of sigma_t
    bound = int(np.abs(flat).max(initial=0)) * int(np.abs(sigma).sum(axis=0).max())
    defect = exact_matmul(flat, sigma, bound).reshape(k * k, len(units), phi)
    defect -= flat[:, None]
    return defect.reshape(k, k, len(units), phi).transpose(2, 0, 1, 3).reshape(len(units), k, k * phi)


def _moved(weighted: np.ndarray, masks: np.ndarray, m: int, units: Sequence[int]) -> np.ndarray:
    """(B, k, T) flags: whether sigma_t moves character r's eigenvalue on mask row b of the (B, k) masks, for each of the T units t.

    The rows' defect sums x @ D, D the per-class defects of all the units
    (_defects) in columns (t, r, e), are taken in one product.  An
    eigenvalue is moved by sigma_t when a coefficient of its defect sum is
    nonzero (_nonzero_from).  A single connection set passes its one mask
    row, and the first moved character is its witness; a sweep, which needs
    no witness, tests the Gram rows of the defects instead
    (sweep_unit_fixed).  With no units there is no product.
    """
    k = len(weighted)
    units = _unit_array(units, m)
    if not len(units):
        return np.zeros((len(masks), k, 0), dtype=bool)
    defect = _defects(weighted, m, units).transpose(1, 0, 2).reshape(k, -1)
    flags = _nonzero_from((masks @ defect).reshape(len(masks), len(units) * k, -1), 0)
    return flags.reshape(len(masks), len(units), k).transpose(0, 2, 1)


def _gram(blocks: np.ndarray) -> np.ndarray:
    """(k, T (k - 1)): column (t, i - 1) of row j is the dot product of blocks[t, j] and blocks[t, i], for i = 1..k-1.

    blocks is a (T, k, W) integer array: block t holds one integer row per
    class.  A union of classes 1..k-1 with 0/1 indicator x has x @ blocks[t]
    = 0 exactly when its sum of these rows is 0 in the columns of t: with
    y = x @ blocks[t], the sum is y @ blocks[t, 1:]^T, whose dot product with
    x[1:] is |y|^2, and y = 0 gives sum 0.  So a sweep sums k - 1 columns
    per question instead of W.

    Exactness: with A = max |blocks|, each entry is at most W A^2 in
    absolute value, and every value _block_sums forms from the rows, a sum
    over a subset of classes 1..k-1, at most (k - 1) W A^2.  Where that
    reaches 2^63 the product and its sums are Python integers (_widened).
    """
    stacked, k, width = blocks.shape
    top = int(np.abs(blocks).max(initial=0))
    bound = (k - 1) * width * top * top
    blocks = _widened(blocks, bound)
    gram = exact_matmul(blocks, blocks[:, 1:].transpose(0, 2, 1), bound)
    return gram.transpose(1, 0, 2).reshape(k, stacked * (k - 1))


def _vanishing(blocks: np.ndarray) -> np.ndarray:
    """(S, T) bool: whether x @ blocks[t] = 0 for subset x, over every subset of classes 1..k-1, from one guarded pass.

    blocks is a (T, k, W) integer array, and x @ blocks[t] = 0 exactly when
    x's sums of the Gram columns of blocks[t] are 0 (_gram).  _block_sums
    sums those columns behind one more, class j's own bit 2^(j - 1).  Over
    subset s that column sums to s itself, as a sum of distinct powers of
    two is their OR.  So a block whose column is not start, start + 1, ...
    holds the sums of other subsets than its offset names, and is refused.
    """
    stacked, k = blocks.shape[:2]
    bits = (1 << np.arange(k, dtype=np.int64))[:, None] >> 1  # 0 for class 0, which no subset holds
    rows = np.concatenate((bits, _gram(blocks)), axis=1)
    del blocks  # the callers pass a temporary stack: free it before the pass
    vanish = np.empty((1 << (k - 1), stacked), dtype=bool)
    for start, block in _block_sums(rows):
        if (block[:, 0] != np.arange(start, start + len(block))).any():
            raise InternalConsistencyError(f"a block of sums does not hold the subsets from {start} on")
        # as _nonzero_from, one long OR per column; the whole block is compared, as a compare
        # over the strided view without the guard column runs buffered, at about twice the time
        vanish[start : start + len(block)] = ~np.logical_or.reduce(
            np.ascontiguousarray((block != 0).T[1:]).reshape(stacked, -1, len(block)), axis=1
        ).T
    return vanish


def _unit_array(units: Sequence[int], m: int) -> np.ndarray:
    """units as a 1-d int64 array; an exponent that is not a unit mod m is refused."""
    units = np.asarray(units, dtype=np.int64).reshape(-1)
    if (np.gcd(units, m) != 1).any():
        raise ValueError(f"a Galois exponent in {shown(units.tolist())} is not a unit mod {m}")
    return units


def _gamma_units(gamma: GaloisSubgroup, m: int) -> tuple[int, ...]:
    """The generating set of gamma (_generating_set) whose unit columns every gamma question ANDs; a foreign modulus is refused.

    The fixed field of gamma is that of its generators, and a union of
    classes closed under each generator's pi_t is closed under gamma, as
    pi_st = pi_s pi_t.
    """
    if gamma.m != m:
        raise ValueError(f"subgroup modulus {gamma.m} does not match conductor {m}")
    return _generating_set(gamma)


def _pi(cd: ClassData, units: Sequence[int], m: int) -> np.ndarray:
    """(k, T) int: pi_t(j), the class of rep_j^t, for each of the T units t mod m, read from the class power map."""
    return cd.power_class[:, _unit_array(units, m) % m]


def _closed(held: np.ndarray, images: np.ndarray) -> np.ndarray:
    """(T, B) bool: whether column b of held, (k, B) bool, holds images[j, t] for every class j it holds, for each column t of the (k, T) images.

    Class-major, the gather copies whole rows and the OR runs over the
    leading axis: under a tenth of the subset-major time on dihedral(22).
    """
    return ~np.logical_or.reduce(held[:, None] & ~held[images], axis=0)


def _orbit(held: np.ndarray, images: np.ndarray) -> np.ndarray:
    """(k,) bool: the classes reached from held, (k,) bool, by repeated images j -> images[j, t]; a pi_t of finite order reaches its whole orbit."""
    while True:
        grown = held.copy()
        grown[images[held]] = True
        if np.array_equal(grown, held):
            return held
        held = grown


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


def _single(connection: ConnectionSet, cd: ClassData, table: CharacterTable):
    """_formula on the connection's one mask row: weighted, the (1, k) mask and the row's (1, k, phi) numerators.

    _formula's checks on the single-class rows hold for this row by
    linearity.
    """
    mask = _mask(connection, cd)
    weighted = _formula(cd, table)
    return weighted, mask, (mask @ weighted).reshape(1, cd.k, -1)


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
    _, _, numerators = _single(connection, cd, table)
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
    """Evaluate eigenvalue integrality and power closure independently.

    An eigenvalue is irrational when its numerator has a nonzero
    coefficient past the first (_nonzero_from); the first such character
    is the witness.
    """
    _, _, numerators = _single(connection, cd, table)
    bad_char = _first(_nonzero_from(numerators, 1)[0])
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
) -> MembershipReport:
    """Evaluate subfield membership against closure of C under gamma, each side an AND over gamma's generators (_gamma_units).

    The spectral side is _moved on the connection's one row: the first
    character whose eigenvalue some sigma_t moves is the witness.  The
    class side is _closed on its mask under every pi_t; when it fails, the
    witness is the smallest class of C's gamma-closure (_orbit) outside C.
    """
    units = _gamma_units(gamma, table.m)
    weighted, mask, _ = _single(connection, cd, table)
    bad_char = _first(_moved(weighted, mask, table.m, units)[0].any(axis=1))
    held = mask[0].astype(bool)
    pi = _pi(cd, units, group.exponent)
    closed = bool(_closed(held[:, None], pi).all())
    bad_class = None if closed else _first(_orbit(held, pi) & ~held)
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

    Per subset it counts k * phi int64 numerators, k * phi more for Galois
    defect sums, k int64 mask entries and SWEEP_ROW_BYTES.  A sweep sums
    k or T (k - 1) + 1 columns per subset, one block of _block_sums at a
    time (_vanishing), so both phi terms are margins.
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
    returns, and the (S,) ``integral`` flags of its guarded pass
    (_vanishing).  ``subsets``, ``masks`` and ``numerators`` are derived from
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
        """(S, k) int64: subset s's 0/1 indicator over all k classes, the subset sums of the identity rows (_subset_sums)."""
        return _subset_sums(np.identity(self.cd.k, dtype=np.int64))

    @cached_property
    def numerators(self) -> np.ndarray:
        """(S, k, phi) int64: character r's eigenvalue on subset s is numerators[s, r] over chi_r(1).

        They need no second checked pass: each entry is the exact int64 sum
        over one subset of the rows of weighted (_subset_sums), _formula
        bounded every such partial sum below 2^63, so no addition wraps, and
        the identities _formula checked on the rows hold for each sum by
        linearity.
        """
        return _subset_sums(self.weighted).reshape(len(self.integral), self.cd.k, -1)


def class_sweep(group: Group, cd: ClassData, table: CharacterTable) -> ClassSweep:
    """Evaluate the character formula on all 2^(k-1) subsets.

    The sweep is refused by check_sweep_size before any array is built.
    Then the one checked pass runs.  _formula checks every spectrum
    identity on the single-class rows, which linearity carries to every
    subset.  A subset is integral when the irrational coefficients of its
    numerators, x @ M with M the columns of weighted past each character's
    first coefficient, are all 0, which the guarded pass over the Gram
    columns of M decides (_vanishing).  A block is dropped once its flags
    are read, so the pass keeps only the (S,) flags; a reader of the masks
    or numerators derives them (ClassSweep).
    """
    check_sweep_size(cd.k, totient(table.m))
    weighted = _formula(cd, table)
    k = cd.k
    integral = _vanishing(weighted.reshape(1, k, k, -1)[..., 1:].reshape(1, k, -1))[:, 0]
    return ClassSweep(group=group, cd=cd, table=table, weighted=weighted, integral=integral)


def sweep_power_closed(sweep: ClassSweep, every_element: bool = False) -> np.ndarray:
    """Power closure of every subset: by default the AND of sweep_unit_closed's columns over the unit group's generators.

    Each t coprime to |x| is, modulo |x|, a unit mod the exponent m, so
    power closure is closure under pi_t for every unit t mod m.  With
    every_element the reach of class j, the classes of x^t for x in class
    j, is read from the power walks of all n elements, not from the class
    power map, and tested by the same broadcast (_sweep_closed).
    """
    group, cd = sweep.group, sweep.cd
    if not every_element:
        return sweep_unit_closed(sweep, _gamma_units(unit_group(group.exponent), group.exponent)).all(axis=1)
    class_of = cd.class_of.tolist()
    reach = [{j} for j in range(cd.k)]
    for x, _, y in _unit_powers(range(group.n), group):
        reach[class_of[x]].add(class_of[y])
    width = max(map(len, reach))
    images = np.array([sorted(r) + [j] * (width - len(r)) for j, r in enumerate(reach)])  # padded with j itself
    return _sweep_closed(sweep, images).all(axis=1)


def sweep_class_closed(sweep: ClassSweep, merged: GaloisConjugacyClasses) -> np.ndarray:
    """Whether every subset of the sweep is a union of the merged classes: the AND of sweep_unit_closed's columns over the generators of merged.gamma."""
    return sweep_unit_closed(sweep, _gamma_units(merged.gamma, sweep.group.exponent)).all(axis=1)


def sweep_in_subfield(sweep: ClassSweep, gamma: GaloisSubgroup) -> np.ndarray:
    """Whether every eigenvalue of each subset lies in the fixed field of gamma: the AND of sweep_unit_fixed's columns over gamma's generators."""
    return sweep_unit_fixed(sweep, _gamma_units(gamma, sweep.table.m)).all(axis=1)


def sweep_unit_fixed(sweep: ClassSweep, units: Sequence[int]) -> np.ndarray:
    """(S, T) bool: whether sigma_t fixes every eigenvalue of subset s, for each of the T units t, from one pass.

    sigma_t fixes them when subset s's defect sum x @ D_t is 0, D_t the
    per-class defects of t (_defects).  The guarded pass decides that for
    all the units at once, over the T (k - 1) Gram columns of the D_t
    (_vanishing).  Column t is sweep_in_subfield for the cyclic group <t>:
    its fixed field is the fixed field of t alone.
    """
    units = _unit_array(units, sweep.table.m)
    if not len(units):
        return np.ones((len(sweep.integral), 0), dtype=bool)
    return _vanishing(_defects(sweep.weighted, sweep.table.m, units))


def sweep_unit_closed(sweep: ClassSweep, units: Sequence[int]) -> np.ndarray:
    """(S, T) bool: whether subset s is closed under pi_t, class j -> the class of rep_j^t, for each of the T units t (_pi).

    Column t is sweep_class_closed for the cyclic group <t>: pi_t permutes
    the classes, so a set closed under it is closed under its powers, that
    is a union of the orbits of <t>, which are <t>'s merged classes.
    """
    return _sweep_closed(sweep, _pi(sweep.cd, units, sweep.group.exponent))


def _sweep_closed(sweep: ClassSweep, images: np.ndarray) -> np.ndarray:
    """(S, T) bool: _closed on every subset's mask, built class-major from its bits, one chunk of subsets at a time."""
    count, k = len(sweep.integral), sweep.cd.k
    closed = np.empty((count, images.shape[1]), dtype=bool)
    # bytes per subset: its int64 and bool masks, and the (k, T) images and their test
    for part in _chunks(count, k * (9 + 2 * images.shape[1])):
        rows = range(count)[part]
        bits = np.arange(rows.start, rows.stop, dtype=np.int64) << 1  # bit j for class j
        closed[part] = _closed((bits >> np.arange(k)[:, None] & 1).astype(bool), images).T
    return closed


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
    counts = np.concatenate(
        [in_set[group.conjugates(walk[part])].sum(axis=1) for part in _chunks(o, 8 * group.n)]  # a power's conjugates
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
