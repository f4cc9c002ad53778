"""Exact complex character tables of finite groups.

The table is computed modulo a split prime: class-sum structure constants
give a family of commuting matrices whose simultaneous eigenvectors are the
central characters mod p.  They are found by projecting the indicator of the
identity class through the spectral projectors of the class matrices, one
minimal polynomial per matrix that splits anything.  Degrees come out of the
orthogonality relation, and the actual cyclotomic values are recovered
through a discrete Fourier inversion over the power classes of one
representative per orbit of the units mod the exponent; the Galois action
fills the rest of each orbit.  Every table is
certified exactly before being returned: the degree-square sum, the row
orthogonality relation at one embedding per prime, and the Galois identity
sigma_t(chi(g)) = chi(g^t), which together imply both orthogonality relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt
from typing import Iterable, Sequence

import numpy as np

from . import _modp
from ._modp import _certificate_primes, _element_of_order, _ring_maps, exact_matmul
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
    """Refuse k classes when the (k, k, k) int64 tensor would exceed TABLE_BYTE_BUDGET.

    class_matrices builds that tensor; dixon_character_table builds the
    class matrices one at a time instead, but refuses the same k up front.
    """
    need = 8 * k ** 3
    if need > TABLE_BYTE_BUDGET:
        raise ResourceLimitError(
            f"{k} conjugacy classes need a {need / 2**30:.1f} GiB class structure-constant"
            f" tensor, over the {TABLE_BYTE_BUDGET >> 20} MiB budget"
        )


def _class_matrix(group: Group, cd: ClassData, i: int) -> np.ndarray:
    """Class i's (k, k) int64 matrix: [j, l] counts the a in class i with a^-1 g_l in class j.

    That is the number of pairs (a, b), a in class i and b in class j, with
    a b = g_l, the representative of class l.  It takes |C_i| k group
    products and one bincount.
    """
    k = cd.k
    inverses = group.inv[np.array(cd.classes[i])]
    landed = cd.class_of[group.product(inverses[:, None], np.array(cd.representatives))]  # [a, l]
    return np.bincount((landed * k + np.arange(k)).ravel(), minlength=k * k).reshape(k, k)


def class_matrices(group: Group, cd: ClassData) -> ClassMatrices:
    """Count products landing on each class representative: the stack of every class matrix."""
    k = cd.k
    check_table_size(k)
    c = np.empty((k, k, k), dtype=np.int64)
    for i in range(k):
        c[i] = _class_matrix(group, cd, i)
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

    Every array of the split holds residues in [0, p).  A product of rows
    with a k x k class matrix, a Krylov row's reduction against at most k
    echelon rows and the product of the Lagrange coefficients with a Krylov
    stack of at most k vectors each sum at most k products of two residues,
    so each entry is at most k (p - 1)^2.  A scaling by an inverse, the
    eigenrow test's cross products, a Horner step and a synthetic division
    step, lam q_j + f_j, stay at most p (p - 1) <= 2 (p - 1)^2, within the
    same bound for k >= 2; with k = 1 the split does no arithmetic.  The
    arrays are int64; the row images under a class matrix, the Krylov
    stacks of _krylov_eigenrows and its Lagrange product go through
    exact_matmul with this bound, so they run in float64 BLAS where it is
    below 2^53 and the product is large enough to gain.
    """
    if k * (p - 1) ** 2 >= 2**63:
        raise ResourceLimitError(
            f"eigenspace split of {k} classes mod {p} would overflow int64: k (p - 1)^2 >= 2^63"
        )


def _minimal_polynomial(start: np.ndarray, right: np.ndarray, p: int) -> list[int]:
    """The monic minimal polynomial of the row start under v -> v right, mod p, low degree first.

    The Krylov rows v_j = start right^j are reduced one at a time against
    the echelon rows of those before them, each carrying its coefficients in
    the v_i, so it stops at the first v_d that reduces to zero, after
    deg f + 1 rows: the coefficients of that zero combination, 1 at v_d, are
    f.  k + 1 rows always have a dependency.  A minimal polynomial with
    deg f distinct roots in F_p has degree at most p, so when p < k and
    p + 1 rows are independent, f does not split over F_p, and it raises.

    Row r of the echelon is zero at the pivots of the rows before it, so the
    pivot block U, [r, s] = row r at the pivot of row s, is upper
    triangular, and its inverse W grows by one column per row.  A new row v
    is reduced by c = v[pivots] W, v - c E.  Each product sums at most k
    products of two residues, within _check_split_exact's bound.  Its
    products take one row each, too small to gain from exact_matmul.
    """
    k = start.size
    size = min(k, p) + 1
    echelon = np.zeros((size, k + size), dtype=np.int64)  # [row | its coefficients in the v_i]
    inverse = np.zeros((size, size), dtype=np.int64)  # W
    pivots = np.zeros(size, dtype=np.intp)
    v = start
    for r in range(size):
        row = echelon[r]
        row[:k] = v
        row[k + r] = 1
        if r:
            row[:] = (row - (row[pivots[:r]] @ inverse[:r, :r] % p) @ echelon[:r]) % p
        (lead,) = row[:k].nonzero()
        if not lead.size:
            return row[k : k + r].tolist() + [1]
        pivots[r] = lead[0]
        scale = pow(int(row[lead[0]]), p - 2, p)
        inverse[:r, r] = inverse[:r, :r] @ echelon[:r, lead[0]] % p * (p - scale) % p
        inverse[r, r] = scale
        v = v @ right % p
    raise InternalConsistencyError("class algebra failed to split over F_p")


def _krylov_eigenrows(
    rows: np.ndarray, right: np.ndarray, minpoly: list[int], roots: np.ndarray, p: int
) -> np.ndarray:
    """(len(roots), r, k) array: [i, s] = rows[s] L_i(M), the component of the row for roots[i].

    M acts on rows by v -> v right, f = minpoly annihilates every row and
    has the distinct roots roots, and L_i = f / ((x - roots[i]) f'(roots[i]))
    is the Lagrange polynomial of roots[i]: L_i(roots[j]) = [i == j], so the
    L_i(M) are the spectral projectors of M on the span of the rows, and
    rows[s] L_i(M) (M - roots[i]) = rows[s] f(M) / f'(roots[i]) = 0.  The
    Krylov rows rows right^j, j < d = deg f, are stacked once as K; one
    synthetic division over all roots gives the coefficients Q of the
    quotients f / (x - lam), which are scaled by 1 / f'(lam), and the
    components are Q K.
    """
    d = len(minpoly) - 1
    krylov = np.empty((d, *rows.shape), dtype=np.int64)
    krylov[0] = rows
    for j in range(1, d):
        krylov[j] = exact_matmul(krylov[j - 1], right, len(right) * (p - 1) ** 2) % p
    lam = roots.astype(np.int64)
    quotient = np.empty((lam.size, d), dtype=np.int64)  # column j: coefficient of x^j in q
    quotient[:, d - 1] = minpoly[d]
    for j in range(d - 1, 0, -1):
        quotient[:, j - 1] = (minpoly[j] + lam * quotient[:, j]) % p
    derivative = _poly_values([j * minpoly[j] % p for j in range(1, d + 1)], lam, p)
    lagrange = quotient * _modp._power_stack(derivative, p - 2, p)[:, None] % p
    return (exact_matmul(lagrange, krylov.reshape(d, -1), d * (p - 1) ** 2) % p).reshape(lam.size, *rows.shape)


def _common_eigenrows(k: int, matrices: Iterable[np.ndarray], p: int) -> list[list[int]]:
    """The k common eigenrows of commuting class matrices mod p, each scaled to lead with 1.

    matrices yields the (k, k) matrices of classes 1, 2, ... mod p, each
    acting on rows by v -> v M^T (class 0's is the identity, which splits
    nothing).  It is drawn from lazily: the next matrix is taken only while
    there are fewer than k rows.  One set of rows is refined, starting from
    e_0, the indicator of the identity class.  A class matrix M for which
    every row is already an eigenrow splits nothing and is passed over at
    the cost of one product.  Otherwise f, the minimal polynomial of e_0
    under M, comes from its Krylov rows (_minimal_polynomial) and its roots
    from one Horner scan over F_p; f must have deg f distinct roots there.  Each row
    that is no eigenrow is replaced by its nonzero components under the
    spectral projectors L_lam(M), all at once (_krylov_eigenrows).  It
    stops at k rows, and raises if the class matrices run out first.

    Why the k rows are the common eigenrows.  In the basis of the central
    characters omega_chi (the common eigenrows; omega_chi(K_i) is the
    eigenvalue of class i's matrix), e_0 = sum_chi a_chi omega_chi, where
    a_chi = chi(1)^2 / n is the identity coefficient of the idempotent of chi.  It
    is nonzero mod p, as p does not divide n and chi(1) < p.  Every row is
    e_0 P, P a product of polynomials in the commuting class matrices, so
    f(M) annihilates every row, and the L_lam(M) are spectral projectors on
    the span of the rows.  L_lam(M) scales omega_chi by L_lam(omega_chi(K_i)),
    which is 0 or 1, so each row's component on omega_chi is a_chi or 0: the
    rows split the characters among them, and none is lost.  A component is
    an eigenrow of M for its lam, and stays one under later projectors.  So
    two rows that came apart at some M differ in their eigenvalue there, and
    the rows lie in distinct joint eigenspaces of the matrices used.  k
    nonzero rows in k distinct joint eigenspaces of a module of dimension at
    most k make each of those eigenspaces one-dimensional.  Every class
    matrix commutes with the ones used and keeps each eigenspace, so each
    row is a common eigenrow of all of them.
    """
    _check_split_exact(k, p)
    start = np.zeros(k, dtype=np.int64)
    start[0] = 1
    rows = start[None]
    matrices = iter(matrices)
    while len(rows) < k:
        mat = next(matrices, None)
        if mat is None:
            break
        right = mat.T
        image = exact_matmul(rows, right, k * (p - 1) ** 2) % p
        at = np.arange(len(rows))
        lead = (rows != 0).argmax(axis=1)
        eigen = (image * rows[at, lead, None] % p == rows * image[at, lead, None] % p).all(axis=1)
        if eigen.all():
            continue
        minpoly = _minimal_polynomial(start, right, p)
        roots = _poly_roots(minpoly, p)
        if roots.size != len(minpoly) - 1:
            raise InternalConsistencyError("class algebra failed to split over F_p")
        parts = _krylov_eigenrows(rows[~eigen], right, minpoly, roots, p).swapaxes(0, 1).reshape(-1, k)
        rows = np.concatenate([rows[eigen], parts[parts.any(axis=1)]])
    if len(rows) != k:
        raise InternalConsistencyError("expected one common eigenvector per class")
    lead = rows[np.arange(k), (rows != 0).argmax(axis=1)]
    return (rows * _modp._power_stack(lead, p - 2, p)[:, None] % p).tolist()


def dixon_character_table(group: Group, cd: ClassData) -> CharacterTable:
    """Compute the full character table exactly; hard error if validation fails."""
    n = group.n
    k = cd.k
    check_table_size(k)
    m = group.exponent
    p = _least_dixon_prime(n, m)
    z = _element_of_order(m, p)
    matrices = (_class_matrix(group, cd, i) % p for i in range(1, k))
    degrees, chi_p = _degrees_and_values(_common_eigenrows(k, matrices, p), cd, n, p)
    coeffs = _lift_table(chi_p, degrees, cd, group, m, p, z)
    ones = (coeffs[:, :, 0] == 1).all(axis=1) & ~coeffs[:, :, 1:].any(axis=(1, 2))
    is_trivial = ones & (np.array(degrees) == 1)
    if not is_trivial.any():
        raise InternalConsistencyError("trivial character missing from table")
    trivial = int(is_trivial.argmax())
    flat = coeffs.reshape(k, -1)
    varies = flat[:, (flat != flat[0]).any(axis=0)]  # a column equal on every row orders nothing
    by_key = np.lexsort((*varies.T[::-1], degrees)).tolist()  # by degree, then flattened coefficients
    order = [trivial] + [r for r in by_key if r != trivial]
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


# Bytes of the int64 operands of one product in _lift_table, which it may
# hold again in float64: the products run over chunks of classes that fit.
_LIFT_BYTES = 1 << 22


def _chunks(n: int, item_bytes: int) -> list[slice]:
    """Consecutive slices covering range(n), each of as many items of item_bytes as fit in _LIFT_BYTES (at least one)."""
    step = max(1, _LIFT_BYTES // item_bytes)
    return [slice(s, s + step) for s in range(0, n, step)]


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
    multiplicities on many classes of order o at once; since each is at most
    the degree, which is below p, they are exact.  The result holds
    power-basis coefficients, shape (k, k, phi(m)).

    Only the least class of each orbit of the units t mod m, j -> class of
    rep_j^t, is lifted so.  chi(g^t) = sigma_t(chi(g)) fills the rest of
    every orbit by stacked products with sigma_t (_galois_matrix).  The
    certificate checks the whole array, however it was filled.  Each product
    takes as many classes as keep its int64 operands within _LIFT_BYTES, so
    the lift holds a bounded amount of memory beside its result.

    Each product goes through exact_matmul with the bound on its sums: o
    (p-1)^2 for the inversion, max degree |B|_1 for the power basis B, and
    max|value coefficient| |B|_1 for sigma_t, whose rows are distinct rows
    of B, as in _galois_identity_holds.  They run in float64 where that is
    exact and gains, and in int64 otherwise; a wrapped sum could only make
    _validate_table reject the table.
    """
    k = chi_p.shape[0]
    basis = _power_basis(m)
    basis_norm = _basis_norm(m)
    out = np.empty((k, cd.k, basis.shape[1]), dtype=np.int64)
    cap = np.array(degrees, dtype=np.int64)[:, None, None]
    units = np.array([t for t in range(m) if gcd(t, m) == 1])
    orbits = cd.power_class[:, units]  # [j, u]: the class of rep_j^units[u]
    lead = orbits.min(axis=1)
    leads = np.flatnonzero(lead == np.arange(cd.k))
    orders = group.orders[np.array(cd.representatives)[leads]]
    phi = basis.shape[1]
    for o in sorted(set(orders.tolist())):
        zeta_inv = pow(pow(z, m // o, p), p - 2, p)
        steps = np.arange(o)
        powers = np.array([pow(zeta_inv, e, p) for e in range(o)], dtype=np.int64)
        dft = powers[np.outer(steps, steps) % o] * pow(o % p, p - 2, p) % p
        of_order = leads[orders == o]
        for part in _chunks(of_order.size, 8 * k * o):  # a class's values on its powers
            js = of_order[part]
            chi = chi_p[:, cd.power_class[js, :o]]  # [r, i, e]: character r on rep_js[i]^e
            mult = exact_matmul(chi.reshape(-1, o), dft, o * (p - 1) ** 2).reshape(chi.shape) % p
            if (mult > cap).any():
                r, i, l = np.argwhere(mult > cap)[0]
                raise InternalConsistencyError(
                    f"root-of-unity multiplicity {mult[r, i, l]} exceeds degree {degrees[r]}"
                )
            lifted = exact_matmul(mult.reshape(-1, o), basis[(m // o) * steps], max(degrees) * basis_norm)
            out[:, js] = lifted.reshape(k, js.size, phi)
    rest = np.flatnonzero(lead != np.arange(cd.k))
    unit_from_lead = units[(orbits[lead[rest]] == rest[:, None]).argmax(axis=1)]
    bound = int(np.abs(out[:, leads]).max()) * basis_norm
    for part in _chunks(rest.size, 8 * phi * (k + phi)):  # a class's lead values and its sigma_t
        sigma = _galois_matrix(m, unit_from_lead[part])
        out[:, rest[part]] = exact_matmul(out[:, lead[rest[part]]].swapaxes(0, 1), sigma, bound).swapaxes(0, 1)
    return out


def _basis_norm(m: int) -> int:
    """|B|_1, the largest column L1 norm of the power-basis table B of conductor m."""
    return int(np.abs(_power_basis(m)).sum(axis=0).max())


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
    5. Every sum is exact: each prime has max(phi, k) q^2 < 2^53, so the
       sums of phi or k products of residues are exact in float64 as in
       int64 (exact_matmul), and _galois_identity_holds bounds its products
       as _formula bounds its defects.

    L and each prime's embedding are taken over chunks of classes
    (_chunks), as the Galois identity is, so the certificate holds a bounded
    amount of memory beside the table.
    """
    k, m = table.k, table.m
    if sum(d * d for d in table.degrees) != n:
        raise InternalConsistencyError("degree squares do not sum to the group order")
    coeffs = table.coefficients
    if coeffs.shape[:2] != (k, k) or cd.k != k:
        raise InternalConsistencyError("the table is not square")
    phi = coeffs.shape[2]
    chunks = _chunks(k, 8 * k * phi)  # a class's values
    norm = 0
    for part in chunks:
        magnitudes = np.abs(coeffs[:, part])
        magnitudes = _widened(magnitudes, int(magnitudes.max(initial=0)) * phi)  # bounds the L1 sums
        norm = max(norm, int(magnitudes.sum(axis=2).max()))
    del magnitudes  # a chunk of |T|, not to be held through the embeddings
    sizes = np.array(cd.sizes, dtype=np.int64)
    at_both = np.empty((k, k, 2), dtype=np.int64)  # [r, j]: chi_r(g_j) at w and at w^-1
    for q in _certificate_primes(m, n * norm * norm + n, max(phi, k), 2**53):
        maps = _ring_maps(m, phi, q, (1, -1))
        for part in chunks:
            embedded = exact_matmul((coeffs[:, part] % q).reshape(-1, phi), maps, phi * (q - 1) ** 2)
            np.remainder(embedded.reshape(k, -1, 2), q, out=at_both[:, part])
        at_w, at_conj = at_both[..., 0], at_both[..., 1]
        gram = exact_matmul(at_w * (sizes % q) % q, at_conj.T, k * (q - 1) ** 2) % q
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
    L1 norm.  Where exact_dtype picks float64 (bound < 2^53 and enough
    work) the products run there; when the bound could reach 2^63 they are
    formed in Python integers.  The classes j are taken in chunks whose
    restricted values and products fit in _LIFT_BYTES (_chunks), each
    converted once for every t, so the check holds a bounded amount of
    memory beside the table.
    """
    bound = max(int(coeffs.max(initial=0)), -int(coeffs.min(initial=0))) * _basis_norm(m)  # no |T| copy
    coeffs = _widened(coeffs, bound)
    k, classes, phi = coeffs.shape
    nz = np.flatnonzero(coeffs.any(axis=(0, 1)))
    for part in _chunks(classes, 8 * k * (nz.size + phi)):  # a class's restricted values and their images
        restricted = np.take(coeffs[:, part], nz, axis=2)  # np.take gathers faster than [..., nz]
        shape = (k, restricted.shape[1], phi)
        rows = restricted.reshape(k * shape[1], nz.size)
        if _modp.exact_dtype(bound, rows.size * phi) is np.float64:
            rows = rows.astype(np.float64)
        for t in generators:
            image = exact_matmul(rows, _galois_matrix(m, t)[nz], bound).reshape(shape)
            if not np.array_equal(image, coeffs[:, cd.power_class[part, t % m]]):
                return False
    return True


def _widened(a: np.ndarray, bound: int) -> np.ndarray:
    """a, or a copy in Python integers when bound, on the sums or products the caller forms from it, reaches 2^63, where int64 would wrap."""
    return a.astype(object) if bound >= 2**63 else a


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
