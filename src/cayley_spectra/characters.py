"""Exact complex character tables of finite groups.

The table is computed modulo a split prime: class-sum structure constants
give a family of commuting matrices whose simultaneous eigenvectors are the
central characters mod p; degrees come out of the orthogonality relation and
the actual cyclotomic values are recovered through a discrete Fourier
inversion over the power classes of each representative.  Every table is
certified exactly before being returned: the degree-square sum, the row
orthogonality relation at one embedding per prime, and the Galois identity
sigma_t(chi(g)) = chi(g^t), which together imply both orthogonality relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import Sequence

import numpy as np

from . import _modp
from ._modp import _certificate_primes, _element_of_order, _ring_maps
from .cyclotomic import (
    CycInt,
    _galois_matrix,
    _power_basis,
    as_rational,
    conjugate,
    divide_exact,
    embed,
    get_context,
    reduce_raw,
)
from .errors import InternalConsistencyError, ResourceLimitError
from .galois import GaloisSubgroup, _generating_set, unit_group
from .group_core import TABLE_BYTE_BUDGET, ClassData, Group

__all__ = [
    "CharacterTable",
    "ClassMatrices",
    "InducedCharacter",
    "character_multiplicities",
    "check_table_size",
    "class_matrices",
    "dixon_character_table",
    "induced_character_from_cyclic",
    "table_coefficients",
    "verify_galois_character_identity",
    "verify_orthogonality",
]


@dataclass(eq=False)
class ClassMatrices:
    """Structure constants of the class sums.

    c[i, j, l] counts pairs (a, b) with a in class i, b in class j and
    a*b equal to the representative of class l.
    """

    k: int
    sizes: tuple[int, ...]
    c: np.ndarray  # shape (k, k, k), int64


def check_table_size(k: int) -> None:
    """Refuse k classes when the (k, k, k) int64 tensor would exceed TABLE_BYTE_BUDGET."""
    need = 8 * k ** 3
    if need > TABLE_BYTE_BUDGET:
        raise ResourceLimitError(
            f"{k} conjugacy classes need a {need / 2**30:.1f} GiB class structure-constant"
            f" tensor, over the {TABLE_BYTE_BUDGET >> 20} MiB budget"
        )


def class_matrices(group: Group, cd: ClassData) -> ClassMatrices:
    """Count products landing on each class representative, by direct enumeration."""
    n = group.n
    k = cd.k
    check_table_size(k)
    c = np.zeros((k, k, k), dtype=np.int64)
    a_cls = cd.class_of
    # b[l, a] = a^-1 * g_l, so a * b[l, a] = g_l
    b = group.product(group.inv, np.array(cd.representatives)[:, None])
    for l in range(k):
        np.add.at(c[:, :, l], (a_cls, a_cls[b[l]]), 1)
    return ClassMatrices(k=k, sizes=cd.sizes, c=c)


@dataclass(eq=False)
class CharacterTable:
    """Irreducible character values as cyclotomic integers at conductor m.

    Rows are sorted with the trivial character first, then by degree and
    lexicographically by reduced value vectors.  coefficients[r, j] is the
    power-basis coefficient vector of character r on the representative of
    class j: a read-only int64 array of shape (k, k, phi(m)), copied from
    the constructor's argument.  Every coefficient c has |c| < 2^63, or
    ResourceLimitError is raised; callers bound their sums and products
    before they form them.  values is the same table as CycInts, built on
    first access.
    """

    m: int
    degrees: tuple[int, ...]
    coefficients: np.ndarray
    prime: int

    def __post_init__(self) -> None:
        too_big = ResourceLimitError("a character value coefficient is beyond int64")
        try:
            coeffs = np.array(self.coefficients, dtype=np.int64)
        except OverflowError:
            raise too_big from None
        if (coeffs == np.iinfo(np.int64).min).any():  # its absolute value would wrap
            raise too_big
        coeffs.flags.writeable = False
        self.coefficients = coeffs

    @property
    def k(self) -> int:
        return len(self.degrees)

    @cached_property
    def values(self) -> tuple[tuple[CycInt, ...], ...]:
        """values[r][j] is the value of character r on the representative of class j."""
        ctx = get_context(self.m)
        return tuple(tuple(CycInt(ctx, tuple(c)) for c in row) for row in self.coefficients.tolist())


def _least_dixon_prime(n: int, m: int) -> int:
    lower = 2 * (isqrt(n - 1) + 1)  # 2 ceil(sqrt(n)) for n >= 1
    cand = m + 1
    while cand <= lower or not _modp._is_prime(cand):
        cand += m
    return cand


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p: (nonzero rows, pivot columns).

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


def _left_nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis rows of {x : x a = 0} over F_p, one per free column of rref(a^T)."""
    red, pivots = _rref(a.T, p)
    is_free = np.ones(a.shape[0], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, a.shape[0]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -red[:, free].T % p
    return basis


def _poly_values(coeffs: list[int], x: np.ndarray, p: int) -> np.ndarray:
    """The polynomial with these ascending coefficients at every residue of x, mod p (Horner)."""
    acc = np.zeros(x.size, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_roots(coeffs: list[int], p: int) -> np.ndarray:
    """All roots in F_p, ascending: one Horner scan over every residue at once."""
    return np.flatnonzero(_poly_values(coeffs, np.arange(p, dtype=np.int64), p) == 0)


def _check_split_exact(k: int, p: int) -> None:
    """Refuse a split whose int64 arithmetic mod p could wrap: require k (p - 1)^2 < 2^63.

    Every array of the split holds residues in [0, p).  A product of a space's
    basis (at most k rows) with a k x k class matrix, of nullspace rows with
    a basis, a Krylov step row @ R and the product Q @ K of the quotient
    coefficients with the Krylov stack each sum at most k products of two
    residues, so each entry is at most k (p - 1)^2.  The row reduction's
    outer-product update, a row's scaling by an inverse, a Horner step and a
    synthetic division step, lam q_j + f_j, stay at most p (p - 1) <= 2 (p - 1)^2,
    within the same bound for k >= 2; with k = 1 the split does no arithmetic.
    """
    if k * (p - 1) ** 2 >= 2**63:
        raise ResourceLimitError(
            f"eigenspace split of {k} classes mod {p} would overflow int64: k (p - 1)^2 >= 2^63"
        )


def _krylov_start(r: int, p: int) -> np.ndarray:
    """The fixed start row u of a space's Krylov stack: spread residues, not the all-ones row.

    The all-ones row is the trivial character's eigenvector in the first
    space of an abelian group, where every other Krylov row would vanish.
    """
    i = np.arange(r, dtype=np.int64)
    return (i * i * 7919 + i * 104729 + 1) % p


def _krylov_eigenrows(restricted: np.ndarray, charpoly: list[int], roots: np.ndarray, p: int) -> np.ndarray:
    """Row i is u q(R), q = f / (x - roots[i]): a left eigenrow of R for roots[i], or zero.

    R = restricted and f = charpoly, its characteristic polynomial.  For a
    root lam, x = u q(R) has x (R - lam I) = u f(R) = 0 (Cayley-Hamilton).
    The rows u R^j, j < r, are stacked once as K; one synthetic division over
    all roots gives the quotient coefficients Q, and X = Q K, in O(r^3).
    """
    r = restricted.shape[0]
    krylov = np.empty((r, r), dtype=np.int64)
    krylov[0] = _krylov_start(r, p)
    for j in range(1, r):
        krylov[j] = krylov[j - 1] @ restricted % p
    lam = roots.astype(np.int64)
    quotient = np.empty((lam.size, r), dtype=np.int64)  # column j: coefficient of x^j in q
    quotient[:, r - 1] = charpoly[r]
    for j in range(r - 1, 0, -1):
        quotient[:, j - 1] = (charpoly[j] + lam * quotient[:, j]) % p
    return quotient @ krylov % p


def _common_eigenrows(c: np.ndarray, p: int) -> list[list[int]]:
    """Split F_p^k into common one-dimensional eigenspaces of commuting matrices.

    c[i] is the i-th class matrix mod p, shape (k, k, k).  Each space is held
    as its reduced row echelon basis with the pivot columns; a vector of the
    space is fixed by its pivot entries, so the image of the basis read at
    the pivots is the restricted map R, r x r.  A space on which R = lam I
    lies in one eigenspace of the matrix and passes on unchanged, with no
    characteristic polynomial (24 of the 31 spaces the split meets on
    C6 x C6).  Otherwise one Krylov stack per space gives an eigenrow for
    every simple root of R's characteristic polynomial f at once
    (_krylov_eigenrows), O(r^3) for the whole space; a
    nonzero one is taken as its root's whole eigenspace.  A root whose row
    is zero, and every repeated root (f'(lam) = 0 mod p), cuts the space down
    to the left nullspace of R - lam I instead, one elimination for that
    root alone; a space with no simple root builds no Krylov stack.  A
    simple root's row is zero for about 1 in p start rows.  A repeated
    root's row would always be zero: the class algebra mod p is split
    semisimple (p does not divide n), so R is diagonalizable and
    f / (x - lam) is a multiple of its minimal polynomial.

    covered == r certifies the split.  A root adds at most the dimension g
    of its eigenspace to covered: 1 from its Krylov row, g from elimination.
    The g sum to at most r, so covered == r forces every eigenspace to be
    whole, and g = 1 for each root taken from its Krylov row.
    """
    k = c.shape[0]
    _check_split_exact(k, p)
    spaces: list[tuple[np.ndarray, list[int]]] = [(np.eye(k, dtype=np.int64), list(range(k)))]
    for mat in c[1:]:  # class 0's matrix is the identity, which splits nothing
        nxt: list[tuple[np.ndarray, list[int]]] = []
        for basis, pivots in spaces:
            r = len(pivots)
            if r == 1:
                nxt.append((basis, pivots))
                continue
            restricted = (basis @ mat.T % p)[:, pivots]  # row vectors act by v -> v . mat^T
            if (restricted == restricted[0, 0] * np.eye(r, dtype=np.int64)).all():
                nxt.append((basis, pivots))  # R = lam I splits nothing
                continue
            charpoly = _modp.charpoly(restricted.tolist(), p)
            roots = _poly_roots(charpoly, p)
            derivative = [j * charpoly[j] % p for j in range(1, r + 1)]
            simple = _poly_values(derivative, roots, p) != 0
            krylov_rows = iter(())
            if simple.any():
                found = _krylov_eigenrows(restricted, charpoly, roots[simple], p) @ basis % p
                lead_col = (found != 0).argmax(axis=1)
                lead = found[np.arange(len(found)), lead_col]
                found = found * _modp._power_stack(lead, p - 2, p)[:, None] % p  # rref of one row
                krylov_rows = zip(found, lead_col.tolist(), lead.tolist())
            diagonal = np.arange(r)
            covered = 0
            for lam, is_simple in zip(roots.tolist(), simple.tolist()):
                if is_simple:
                    row, col, nonzero = next(krylov_rows)
                    if nonzero:
                        covered += 1
                        nxt.append((row[None], [col]))
                        continue
                shifted = restricted.copy()
                shifted[diagonal, diagonal] -= lam
                left_null = _left_nullspace(shifted, p)
                if not len(left_null):
                    raise InternalConsistencyError("eigenvalue with empty eigenspace")
                sub_basis, sub_pivots = _rref(left_null @ basis % p, p)
                covered += len(sub_pivots)
                nxt.append((sub_basis, sub_pivots))
            if covered != r:
                raise InternalConsistencyError("class algebra failed to split over F_p")
        spaces = nxt
        if all(len(pivots) == 1 for _, pivots in spaces):
            break
    if len(spaces) != k or any(len(pivots) != 1 for _, pivots in spaces):
        raise InternalConsistencyError("expected one common eigenvector per class")
    return [basis[0].tolist() for basis, _ in spaces]


def dixon_character_table(group: Group, cd: ClassData) -> CharacterTable:
    """Compute the full character table exactly; hard error if validation fails."""
    cm = class_matrices(group, cd)
    n = group.n
    k = cd.k
    m = group.exponent
    p = _least_dixon_prime(n, m)
    z = _element_of_order(m, p)
    degrees, chi_p = _degrees_and_values(_common_eigenrows(cm.c % p, p), cd, n, p)
    coeffs = _lift_table(chi_p, degrees, cd, group, m, p, z)
    ones = (coeffs[:, :, 0] == 1).all(axis=1) & ~coeffs[:, :, 1:].any(axis=(1, 2))
    is_trivial = ones & (np.array(degrees) == 1)
    if not is_trivial.any():
        raise InternalConsistencyError("trivial character missing from table")
    trivial = int(is_trivial.argmax())
    lifted = coeffs.tolist()  # a row's lists of phi coefficients compare as its flattened coefficients
    order = [trivial] + sorted((r for r in range(k) if r != trivial), key=lambda r: (degrees[r], lifted[r]))
    table = CharacterTable(m=m, degrees=tuple(degrees[r] for r in order), coefficients=coeffs[order], prime=p)
    _validate_table(table, cd, n)
    return table


def _degrees_and_values(
    rows: list[list[int]], cd: ClassData, n: int, p: int
) -> tuple[list[int], np.ndarray]:
    """Degrees d and character values mod p from the common eigenrows of the class matrices.

    A row scaled to 1 on the identity class is the central character
    omega(C_j) = |C_j| chi(g_j) / d, and sum_j omega_j omega_j' / |C_j| =
    n / d^2, j' the class of the inverses.  The values are d omega_j / |C_j|.
    Residues stay below p throughout: the norm sums k products of two
    residues, within _check_split_exact's bound, and every other step takes
    one product.  d is the d <= isqrt(n) with d^2 = n / norm (mod p), found
    for all rows at once in a (k, isqrt(n)) table of d^2 mod p.  Only one d
    can match, as p > 2 sqrt(n) (_least_dixon_prime): d1^2 = d2^2 (mod p)
    would make p divide d1 - d2 or d1 + d2, which lie in (-p, p) and (0, p).
    """
    rows = np.array(rows, dtype=np.int64)
    if not rows[:, 0].all():
        raise InternalConsistencyError("eigenvector vanishes on the identity class")
    omega = rows * _modp._power_stack(rows[:, 0], p - 2, p)[:, None] % p
    inv_sizes = _modp._power_stack(np.array(cd.sizes, dtype=np.int64) % p, p - 2, p)
    denom = (omega * omega[:, cd.inverse_class] % p) @ inv_sizes % p
    if not denom.all():
        raise InternalConsistencyError("degenerate norm in degree recovery")
    d_sq = n % p * _modp._power_stack(denom, p - 2, p) % p
    cands = np.arange(1, isqrt(n) + 1, dtype=np.int64)
    hit = cands * cands % p == d_sq[:, None]
    if not hit.any(axis=1).all():
        raise InternalConsistencyError("no admissible degree lift")
    degrees = cands[hit.argmax(axis=1)]
    return degrees.tolist(), degrees[:, None] * omega % p * inv_sizes % p


def _lift_table(
    chi_p: np.ndarray,
    degrees: Sequence[int],
    cd: ClassData,
    group: Group,
    m: int,
    p: int,
    z: int,
) -> np.ndarray:
    """Exact values of all characters from their values mod p, by Fourier inversion.

    chi_p[r, j] is character r on class j mod p.  On a representative of
    order o a character's value is sum_l mult_l z_o^l with z_o = z^(m/o), and
    mult_l = (1/o) sum_i chi(rep^i) z_o^(-il) counts the eigenvalue z_o^l.
    One product chi_p[:, power classes] @ F_o gives every character's
    multiplicities on a class; since each is at most the degree, which is
    below p, they are exact.  The result holds power-basis coefficients,
    shape (k, k, phi(m)).

    The int64 products are exact while o (p-1)^2 < 2^63, which holds with
    room to spare for every group within DEFAULT_GROUP_CAP (at most 2^48);
    a wrapped sum could only make _validate_table reject the table.
    """
    k = chi_p.shape[0]
    basis = _power_basis(m)
    out = np.empty((k, cd.k, basis.shape[1]), dtype=np.int64)
    cap = np.array(degrees, dtype=np.int64)[:, None]
    dft: dict[int, np.ndarray] = {}
    for j, rep in enumerate(cd.representatives):
        o = int(group.orders[rep])
        if o not in dft:
            zeta_inv = pow(pow(z, m // o, p), p - 2, p)
            inv_o = pow(o % p, p - 2, p)
            steps = np.arange(o)
            powers = np.array([pow(zeta_inv, e, p) for e in range(o)], dtype=np.int64)
            dft[o] = powers[np.outer(steps, steps) % o] * inv_o % p
        mult = chi_p[:, cd.power_class[j, :o]] @ dft[o] % p
        if (mult > cap).any():
            r, l = np.argwhere(mult > cap)[0]
            raise InternalConsistencyError(
                f"root-of-unity multiplicity {mult[r, l]} exceeds degree {degrees[r]}"
            )
        out[:, j] = mult @ basis[(m // o) * np.arange(o)]
    return out


def table_coefficients(table: CharacterTable) -> np.ndarray:
    """The table's read-only int64 coefficient array, shape (k, k, phi(m))."""
    return table.coefficients


def _validate_table(table: CharacterTable, cd: ClassData, n: int) -> None:
    """Certify the degree-square sum, the row relation and the Galois identity exactly.

    With G the table, s the class sizes and alpha = G diag(s) G^H - n I, the
    row relation alpha = 0 is checked at one embedding z -> w of Z[z] into
    F_q (w of order m, conjugates taken at w^-1) for primes q = 1 (mod m),
    and sigma_t(chi(g_j)) = chi(g_j^t), sigma_t: z -> z^t, exactly for t in
    a generating set of the units mod m.  Together they prove:

    1. pi_t, class j -> class of g_j^t, permutes the classes and keeps their
       sizes: for t coprime to the exponent x -> x^t is a bijection (undone
       by x -> x^t', t t' = 1 mod m) that commutes with conjugation, as
       (g x g^-1)^t = g x^t g^-1.  As pi_u pi_t = pi_(tu), the identity on
       the generators gives it on the whole unit group.
    2. sigma_t commutes with complex conjugation sigma_-1 (both composites
       send z to z^-t), so sigma_t(alpha_rs) is alpha_rs summed over pi_t j
       instead of j, which is alpha_rs as s_(pi_t j) = s_j.  Fixed by every
       sigma_t, alpha_rs is in Q, hence in Z.
    3. z -> w is reduction mod q on Z, so the product Q of the primes
       divides alpha_rs.  With L the largest L1 norm of a value's
       coefficients, |alpha_rs| <= n L^2 + n = B < Q, so alpha_rs = 0.
    4. For a square table the row relation gives the column relation:
       G^-1 = diag(s) G^H / n, so G^H G = n diag(s)^-1.
    5. No int64 sum wraps: each prime has max(phi, k) q^2 < 2^63 for the
       sums of phi or k products of residues, and _galois_identity_holds
       bounds its products as _formula bounds its defects.
    """
    k, m = table.k, table.m
    if sum(d * d for d in table.degrees) != n:
        raise InternalConsistencyError("degree squares do not sum to the group order")
    coeffs = table.coefficients
    if coeffs.shape[:2] != (k, k) or cd.k != k:
        raise InternalConsistencyError("the table is not square")
    phi = coeffs.shape[2]
    magnitudes = np.abs(coeffs)
    if int(magnitudes.max(initial=0)) * phi >= 2**63:
        magnitudes = magnitudes.astype(object)  # the L1 sums could wrap in int64
    norm = int(magnitudes.sum(axis=2).max())
    sizes = np.array(cd.sizes, dtype=np.int64)
    flat = coeffs.reshape(k * k, phi)
    for q in _certificate_primes(m, n * norm * norm + n, max(phi, k)):
        at_w, at_conj = (flat % q @ _ring_maps(m, phi, q, (1, -1)) % q).T.reshape(2, k, k)
        gram = (at_w * (sizes % q) % q) @ at_conj.T % q
        bad = np.argwhere(gram != np.diag(np.full(k, n % q, dtype=np.int64)))
        if len(bad):
            raise InternalConsistencyError("row orthogonality fails at (%d,%d)" % tuple(bad[0]))
    if not _galois_identity_holds(coeffs, cd, m, _generating_set(unit_group(m))):
        raise InternalConsistencyError("Galois character identity fails")


def _galois_identity_holds(coeffs: np.ndarray, cd: ClassData, m: int, generators: Sequence[int]) -> bool:
    """Whether T sigma_t == T[:, pi_t], i.e. sigma_t(chi_r(g_j)) = chi_r(g_j^t), for each t in generators.

    T is the (k, k, phi) coefficient array and pi_t = cd.power_class[:, t % m].
    T sigma_t is formed as T[..., nz] sigma_t[nz], nz the coefficient columns
    where T is nonzero somewhere (only column 0 for a rational table).  As in
    _formula, the rows of sigma_t are distinct rows of the power-basis table
    B, so its partial sums are at most max|T| |B|_1, |.|_1 the largest column
    L1 norm; when that could reach 2^63 they are formed in Python integers.
    """
    basis_norm = int(np.abs(_power_basis(m)).sum(axis=0).max())
    if int(np.abs(coeffs).max(initial=0)) * basis_norm >= 2**63:
        coeffs = coeffs.astype(object)
    nz = np.flatnonzero(coeffs.any(axis=(0, 1)))
    restricted = coeffs[..., nz]
    return all(
        np.array_equal(restricted @ _galois_matrix(m, t)[nz], coeffs[:, cd.power_class[:, t % m]])
        for t in generators
    )


def verify_orthogonality(table: CharacterTable, cd: ClassData, group_order: int) -> bool:
    """Exact row and column orthogonality and the degree-square sum.

    The certificate (_validate_table) also requires the Galois identity on
    the unit group, so an orthogonal table that breaks it is rejected.
    """
    try:
        _validate_table(table, cd, group_order)
    except InternalConsistencyError:
        return False
    return True


def verify_galois_character_identity(
    table: CharacterTable, cd: ClassData, gamma: GaloisSubgroup
) -> bool:
    """Check that applying z -> z^t to values matches evaluating on t-th powers, for t in gamma.

    It is checked on gamma's generating set, which gives all of gamma
    (step 1 of _validate_table).
    """
    if gamma.m != table.m:
        raise ValueError(f"subgroup modulus {gamma.m} does not match conductor {table.m}")
    return _galois_identity_holds(table.coefficients, cd, table.m, _generating_set(gamma))


# ---------------------------------------------------------------------------
# induced characters from cyclic subgroups


@dataclass(eq=False)
class InducedCharacter:
    """Character induced from a faithful linear character of <x>."""

    base: int
    values: tuple[CycInt, ...]  # one per conjugacy class, conductor = group exponent

    @property
    def degree(self) -> int:
        d = as_rational(self.values[0])
        if d is None:
            raise InternalConsistencyError("induced degree is not rational")
        return d


def induced_character_from_cyclic(x: int, group: Group, cd: ClassData) -> InducedCharacter:
    """Induce z -> z^i on <x> up to the whole group, by direct enumeration."""
    (walk,) = group.walks([x])
    o = len(walk)
    power_index = np.full(group.n, o)  # i for x^i, o for an element outside <x>
    power_index[walk] = np.arange(o)
    octx = get_context(o)
    values = []
    for rep in cd.representatives:
        hits = power_index[group.conjugates(rep)]  # y^-1 * rep * y over all y
        counts = np.bincount(hits, minlength=o + 1)[:o].tolist()
        values.append(embed(divide_exact(reduce_raw(counts, octx), o), group.exponent))
    return InducedCharacter(base=x, values=tuple(values))


def character_multiplicities(
    values: Sequence[CycInt], table: CharacterTable, cd: ClassData
) -> tuple[int, ...]:
    """Inner products of a class function with each irreducible character.

    The function must decompose integrally; a fractional or irrational inner
    product is reported as a hard error.
    """
    n = sum(cd.sizes)
    out = []
    for row in table.values:
        acc = get_context(table.m).zero
        for j, v in enumerate(values):
            acc = acc + v * conjugate(row[j]) * cd.sizes[j]
        r = as_rational(acc)
        if r is None or r % n:
            raise InternalConsistencyError("class function does not decompose integrally")
        out.append(r // n)
    return tuple(out)
