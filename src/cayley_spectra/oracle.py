"""Independent checks for spectra and power closure.

Nothing here touches the character machinery: the adjacency matrix is
built literally from the definition, the floating backend feeds it to a
dense eigensolver, and the exact backends compare a claimed spectrum with
the matrix exactly, modulo several primes at every embedding of the
cyclotomic integers, both from the claim's power sums
(_claimed_power_sums): per set turned into the coefficients of the
integer characteristic polynomial, batched against closed walks.  Shared
is the number format alone: _modp's primes and ring maps z -> w^u,
cyclotomic's power-basis floats, and spectra's Spectrum type and reader.

Each check comes twice: per connection set (compare_spectra,
verify_spectrum_exact, oracle_power_closed) and batched over the rows of an
(S, n) element-indicator array (batch_compare_spectra,
batch_verify_spectrum_exact, batch_power_closed).  The batched checks read
only the group, the stack of adjacency matrices and the claimed eigenvalues
numerators[s, r] / degrees[r] with multiplicity degrees[r]^2, and return
the per-set verdict of the per-set check for every row.

The float check diagonalizes a sweep once (_joint_spectrum).  When the
rows' element sets are unions of conjugation-closed atoms, every A(C) is a
sum of class-sum matrices, which lie in the centre of the group algebra, so
all of them commute, each is normal (A(C)^T = A(C^-1)), and they share one
unitary eigenbasis.  One eigh of a Hermitian combination finds it, each
row's eigenvalues are a product with the atoms' joint eigenvalues, and the
Hoffman-Wielandt inequality bounds their distance to the true spectrum.
A sweep that is not such a union, or whose bound fails, falls back to one
eigvals per pair of inverse sets.  On the joint path the rows' claims are
matched once per sweep (_certified_rows): each joint eigenvector is given
the character whose claims on the rows that hold one atom alone are
nearest, and a row whose claims are exactly the sums of those atom rows'
claims, with no two claimed values clashing, passes by that one
correspondence.  The rows it does not certify, and every row of a sweep
without a correspondence or without the joint path, are matched one by
one against their own numeric values (_float_verdicts).

The batched exact check compares the power sums tr(A^j), j = 1..n, from
one walk of n steps from the identity, with the claim's.  It walks one
matrix per pair of inverse sets: A(C^-1) = A(C)^T, so both sets have one
spectrum (_solved_runs).  Each row's own claim is still compared with the
shared result.  The per-set check turns the same claimed power sums into
coefficients by Newton's identities (_elementary) and compares them with
the integer characteristic polynomial, whose size Hadamard's inequality
bounds (_charpoly_bound).  One lemma, in _claimed_power_sums, proves for
both that their residues decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _modp
from .cyclotomic import _complex_parts, get_context
from .group_core import Group
from .spectra import Spectrum, _read_spectrum

DEFAULT_ORACLE_CAP = 400
# the float oracle's default distance bound, for the CLI and both comparisons
DEFAULT_TOLERANCE = 1e-8
# bytes of one chunk of a batched check: its adjacency stack, as the float
# eigensolver or the exact check's walks hold it, and the temporaries of
# matching its rows' claims (_solved_runs)
_STACK_BYTES = 512 << 10

__all__ = [
    "DEFAULT_ORACLE_CAP",
    "ExactSpectrumReport",
    "SpectrumComparison",
    "adjacency_matrix",
    "adjacency_stack",
    "batch_compare_spectra",
    "batch_power_closed",
    "batch_verify_spectrum_exact",
    "compare_spectra",
    "integer_charpoly",
    "oracle_power_closed",
    "oracle_spectrum",
    "verify_spectrum_exact",
]


def adjacency_matrix(group: Group, elements: Iterable[int], cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    """0/1 matrix with an arc g -> h exactly when g * h^-1 is in the set."""
    n = group.n
    if n > cap:
        raise ValueError(f"oracle cap {cap} exceeded by group of order {n}")
    targets = np.zeros(n, dtype=bool)
    for x in elements:
        targets[int(x)] = True
    return targets[_quotients(group)].astype(np.int8)


def adjacency_stack(group: Group, members: np.ndarray) -> np.ndarray:
    """The (S, n, n) 0/1 stack of adjacency_matrix for each row of members, an (S, n) bool array."""
    return members[:, _quotients(group)].astype(np.int8)


def _quotients(group: Group) -> np.ndarray:
    """The (n, n) index array [g, h] = g * h^-1."""
    return group.product(np.arange(group.n)[:, None], group.inv)


def _solved_runs(
    group: Group, members: np.ndarray, matrix_bytes: int, row_bytes: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(stack, rows, local): runs of the matrices to solve, as (R, n, n) 0/1 stacks, with the rows each run serves and each row's matrix in its run.

    g h^-1 lies in C^-1 exactly when h g^-1 lies in C, so A(C^-1) = A(C)^T,
    and the two have one characteristic polynomial and one eigenvalue
    multiset.  Row s is served by the first row whose set is its own or
    members[s, group.inv], found by one np.unique over the packed-bit keys
    of the sets and of their inverses: its first index of a key is the
    first row holding that set, or one at count or past it when no row
    does.  That row serves itself, so each pair of inverse sets (and each
    repeated set) costs one matrix.  A run holds as many matrices as fit
    in _STACK_BYTES at matrix_bytes each, plus row_bytes for each of the
    two rows a matrix serves apart from repeated sets (one matrix at
    least).
    """
    count = len(members)
    key = np.dtype((np.void, -(-group.n // 8)))
    keys = np.ascontiguousarray(np.packbits(np.concatenate([members, members[:, group.inv]]), axis=1))
    _, first, ids = np.unique(keys.view(key).ravel(), return_index=True, return_inverse=True)
    serve = first[ids].reshape(2, count).min(axis=0)
    solves = serve == np.arange(count)
    solved = np.flatnonzero(solves)
    slot = (np.cumsum(solves) - 1)[serve]
    quotients = _quotients(group)
    step = max(1, _STACK_BYTES // (matrix_bytes + 2 * row_bytes))
    for start in range(0, len(solved), step):
        rows = np.flatnonzero((slot >= start) & (slot < start + step))
        yield members[solved[start : start + step]][:, quotients], rows, slot[rows] - start


def _charpoly_bound(square_norm: int, n: int) -> int:
    """(1 + ceil(rho))^n, rho = sqrt(square_norm): a bound on every coefficient of det(xI - A) for an n x n matrix A whose rows have 2-norm at most rho.

    Why it holds: the coefficient of x^(n-i) is (-1)^i times the sum of the
    C(n, i) principal i x i minors of A.  The rows of such a minor are parts
    of rows of A, so each has 2-norm at most rho, and by Hadamard's
    inequality the minor is at most rho^i in absolute value.  So the
    coefficient is at most C(n, i) ceil(rho)^i, a term of the binomial
    expansion of (1 + ceil(rho))^n.
    """
    root = isqrt(square_norm)
    return (1 + root + (root * root < square_norm)) ** n


def oracle_spectrum(adjacency: np.ndarray) -> np.ndarray:
    """Eigenvalue multiset from a dense general eigensolver."""
    return np.linalg.eigvals(adjacency.astype(np.float64))


def integer_charpoly(adjacency: np.ndarray) -> tuple[int, ...]:
    """Exact characteristic polynomial of an integer matrix, low degree first.

    det(xI - A) is reduced to Hessenberg form mod distinct 31-bit primes
    (_modp.charpoly), and the residues are joined by the Chinese remainder
    theorem and read as symmetric residues.

    Why this is exact: let rho be the largest row 2-norm of A.  Each
    principal i x i minor has rows that are parts of rows of A, so by
    Hadamard's inequality it is at most rho^i in absolute value.  The
    coefficient of x^(n-i) is (-1)^i times the sum of the C(n, i) such
    minors, so it is at most C(n, i) ceil(rho)^i, and these bounds sum to
    (1 + ceil(rho))^n (_charpoly_bound).  Primes are added until their
    product M exceeds twice that, so each coefficient is the one integer in
    (-M/2, M/2] with its residues.
    """
    rows = [[int(x) for x in row] for row in adjacency]
    n = len(rows)
    bound = 2 * _charpoly_bound(max((sum(x * x for x in row) for row in rows), default=0), n)
    coeffs = [0] * (n + 1)
    modulus = 1
    for p in _modp._descending_primes(2**31 - 1, 2, bound):
        inv = pow(modulus, -1, p)
        residues = _modp.charpoly(rows, p)
        coeffs = [c + modulus * ((res - c) * inv % p) for c, res in zip(coeffs, residues)]
        modulus *= p
    return tuple(c - modulus if 2 * c > modulus else c for c in coeffs)


@dataclass(frozen=True)
class ExactSpectrumReport:
    """verify_spectrum_exact's verdict on a claim whose multiplicities sum to degree.

    mismatch_power is the lowest power of x whose coefficients differ
    between the claim's monic polynomial prod (x - value)^multiplicity and
    the characteristic polynomial.  It is None when the check passes, and
    when it fails before any coefficient is compared: the degrees differ or
    a multiplicity is negative.
    """

    passed: bool
    degree: int
    mismatch_power: Optional[int] = None


def verify_spectrum_exact(
    sp: Spectrum, adjacency: np.ndarray, charpoly: Optional[Sequence[int]] = None
) -> ExactSpectrumReport:
    """Verify a claimed exact spectrum against the characteristic polynomial.

    The claim's values num_r / den_r with multiplicities mu_r give the monic
    f = prod_r (x - num_r / den_r)^mu_r = sum_i (-1)^i e_i x^(n - i), which
    must equal g, the integer characteristic polynomial from
    integer_charpoly unless one is given.  The degrees must agree first, and
    a negative multiplicity fails with them.  Mod each prime q and at each
    unit embedding, _claimed_power_sums gives the claim's power sums
    p_1 .. p_n, Newton's identities turn them into e_0 .. e_n
    (_elementary), and (-1)^i e_i is compared with g's coefficient of
    x^(n - i).

    Why this is exact: let f_i and g_i be the coefficients of x^i, and
    scale = prod_r |den_r|^mu_r.  Then scale (f_i - g_i) is a coefficient
    of +-prod_r (den_r x - num_r)^mu_r - scale g, an element of Z[z].
    Under every complex embedding sigma, |sigma(num)| <= |num|_1, the L1
    norm of its coefficients, so that product's coefficients are at most
    prod_r (|den_r| + |num_r|_1)^mu_r, its value at x = 1 with every term
    made positive, and |sigma(scale (f_i - g_i))| <= B = scale max|g| +
    prod_r (|den_r| + |num_r|_1)^mu_r.  At a prime q that does not divide
    scale, the residues of f_i - g_i vanish exactly when those of
    scale (f_i - g_i) do.  The primes are taken for B scale, and those that
    divide scale are dropped: they are distinct prime factors of scale, so
    their product is at most scale, and the kept primes have a product
    above B.  So each coefficient is decided by the lemma of
    _claimed_power_sums.
    """
    if charpoly is None:
        charpoly = integer_charpoly(adjacency)
    charpoly = [int(c) for c in charpoly]
    degree = sum(e.multiplicity for e in sp.entries)
    if degree != len(charpoly) - 1 or any(e.multiplicity < 0 for e in sp.entries):
        return ExactSpectrumReport(passed=False, degree=degree)
    entries = [e for e in sp.entries if e.multiplicity]  # a value of multiplicity 0 claims nothing
    m = sp.entries[0].value.numerator.ctx.m if sp.entries else 1
    phi = get_context(m).degree
    nums = np.array([[e.value.numerator.coeffs for e in entries]], dtype=object).reshape(1, len(entries), phi)
    dens = [int(e.value.denominator) for e in entries]
    mults = [e.multiplicity for e in entries]
    scale = prod(abs(d) ** mu for d, mu in zip(dens, mults))
    if not scale:
        raise ValueError("a claimed value has denominator 0")
    claimed = prod((abs(d) + sum(map(abs, e.value.numerator.coeffs))) ** mu for d, e, mu in zip(dens, entries, mults))
    bound = scale * max(map(abs, charpoly)) + claimed
    primes = [q for q in _modp._certificate_primes(m, bound * scale, max(degree + 1, phi)) if scale % q]
    coeffs = _elementary(_claimed_power_sums(nums, dens, mults, m, primes)[:, :, 0], primes)
    target = np.array([[(-1) ** i * c % q for q in primes] for i, c in enumerate(reversed(charpoly))], dtype=np.int64)
    differ = np.flatnonzero((coeffs != target[:, :, None]).any(axis=(1, 2)))
    if len(differ):
        return ExactSpectrumReport(passed=False, degree=degree, mismatch_power=degree - int(differ[-1]))
    return ExactSpectrumReport(passed=True, degree=degree)


def batch_verify_spectrum_exact(
    group: Group, members: np.ndarray, numerators: np.ndarray, degrees: Sequence[int], m: int
) -> np.ndarray:
    """verify_spectrum_exact's verdict for every row of members, an (S, n) bool array.

    Row s claims the eigenvalue numerators[s, r] / degrees[r] (power-basis
    coefficients at conductor m, shape (S, K, phi)) with multiplicity
    mu_r = degrees[r]^2.  A's eigenvalues are algebraic integers, and the
    power basis is an integral basis of Z[z], so a row fails at once unless
    d_r = degrees[r] divides numerators[s, r] coefficientwise.  Otherwise
    nu_r = numerators[s, r] / d_r lies in Z[z].  Two multisets of n values
    with equal power sums p_1 .. p_n have one characteristic polynomial
    (Newton's identities), and A's eigenvalues have p_j = tr(A^j).  So the
    row passes exactly when c_j = tr(A^j) - sum_r mu_r nu_r^j is 0 in Z[z]
    for j = 1..n.  tr(A^j) comes from one walk per pair of inverse sets
    (_solved_runs, _closed_walks), the sums of nu_r^j from
    _claimed_power_sums, which divides by d_r mod q: d_r^2 <= n, far below
    the primes (pow raises if d_r is not a unit), and on a row that passed
    the divisibility check the quotient is nu_r's residue.

    Why the primes suffice: (A^j)[e, e] <= |C|^j, and every complex
    embedding sigma has |sigma(nu)| <= |nu|_1, the L1 norm of its
    coefficients, so |sigma(c_j)| <= B = n max(1, max|C|)^n +
    n max(1, max_r |nu_r|_1)^n.  The primes have product M > B, so c_j = 0
    by the lemma of _claimed_power_sums.  The divisibility check is what
    keeps d_r out of B: without it, B would carry prod_r d_r^mu_r, as the
    per-set check's bound does.
    """
    mults = [int(d) * int(d) for d in degrees]
    n = group.n
    out = np.zeros(len(members), dtype=bool)
    if sum(mults) != n:
        return out
    _, k, phi = numerators.shape
    divisors = np.array(degrees, dtype=np.int64)
    # d_r | numerators[s, r] and |numerators[s, r]|_1 by coefficient, so
    # that no (S, K, phi) temporary is made
    integral = np.ones(len(members), dtype=bool)
    for e in range(phi):
        integral &= ~(numerators[:, :, e] % divisors != 0).any(axis=1)
    l1 = sum(np.abs(numerators[:, :, e]) for e in range(phi)).max(axis=0, initial=0).tolist()
    nu = max((int(a) // int(d) for a, d in zip(l1, degrees)), default=0)
    bound = n * max(1, int(members.sum(axis=1).max(initial=0))) ** n + n * max(1, nu) ** n
    primes = _modp._certificate_primes(m, bound, max(n + 1, phi))
    # bytes: per matrix, its 0/1 and float64 copies, and per prime its walk,
    # the walk's product, its diagonal and three int64 temporaries of that,
    # (n,) each; per row, its numerators, and per row and prime, their
    # residues, embedded values, the reduction, the quotient by d and its
    # reduction, the powers and their product, (K, phi) each, and the power
    # sums and their comparison, (n, phi) each
    matrix_bytes = 9 * n * n + 48 * len(primes) * n
    row_bytes = 8 * phi * (k + len(primes) * (7 * k + 2 * n))
    for stack, rows, local in _solved_runs(group, members, matrix_bytes, row_bytes):
        walks = _closed_walks(stack, primes)[:, :, local, None]
        claims = _claimed_power_sums(numerators[rows], degrees, mults, m, primes)
        out[rows] = integral[rows] & ~(claims != walks).any(axis=(0, 1, 3))
    return out


def _closed_walks(stack: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """(n, P, R) residues tr(A^j) mod primes[i], for j = 1..n and each matrix A of the (R, n, n) 0/1 stack.

    g -> g x maps arcs to arcs, since (g x)(h x)^-1 = g h^-1, so every
    vertex lies on as many closed walks of each length, and tr(A^j) =
    n (A^j)[e, e] at the identity e = 0.  Each matrix and prime takes one
    walk, walk <- walk A mod q from the indicator of e, as one (R, P, n) @
    (R, n, n) float64 product per step.  It is exact: the walk holds
    residues below q and A is 0/1, so each sum is below n q, and n q < 2^53
    for n < 2^43 when (n + 1) q^2 < 2^63.
    """
    count, n = stack.shape[0], stack.shape[1]
    q = np.array(primes, dtype=np.int64)
    modulus = q.astype(np.float64)[:, None]
    matrices = stack.astype(np.float64)
    walk = np.zeros((count, len(primes), n))
    walk[:, :, 0] = 1
    product = np.empty_like(walk)
    diagonal = np.empty((n, count, len(primes)))
    for j in range(n):
        np.fmod(np.matmul(walk, matrices, out=product), modulus, out=walk)
        diagonal[j] = walk[:, :, 0]
    return (diagonal.astype(np.int64) * n % q).transpose(0, 2, 1)


def _claimed_power_sums(
    nums: np.ndarray, dens: Sequence[int], mults: Sequence[int], m: int, primes: Sequence[int]
) -> np.ndarray:
    """(n, P, S, phi) residues sum_r mults[r] sigma_u(nums[s, r] / dens[r])^j mod primes[i], for j = 1..n = sum(mults) and each unit u.

    sigma_u is the ring map z -> w^u into F_q (_modp._ring_maps), and
    dividing by dens[r] is multiplying by its inverse mod q, so every
    dens[r] must be a unit mod every prime.  The powers are running
    products.  int64: residues are below q, an embedding sums phi products
    of two residues, a power sum weighs residues by multiplicities that sum
    to n, and the primes satisfy max(n + 1, phi) q^2 < 2^63.

    Both exact checks decide by this lemma.  Let c lie in Z[z], with
    |sigma(c)| <= B under every complex embedding sigma, and let primes
    q = 1 (mod m) have product M > B.  If c maps to 0 under z -> w^u at
    every unit u and every prime, then c = 0.  Proof: q splits completely
    in Z[z], and the kernels of the phi maps are the primes above q, whose
    intersection is q Z[z].  So c lies in q Z[z] for each q, hence in
    M Z[z], and if c != 0 then |N(c)| >= M^phi; but |N(c)| is the product
    of the phi values |sigma(c)| < M.
    """
    units = [u for u in range(m) if gcd(u, m) == 1]
    q = np.array(primes, dtype=np.int64)[:, None, None, None]
    maps = np.stack([_modp._ring_maps(m, nums.shape[2], p, units) for p in primes])[:, None]
    inverses = np.array([[pow(int(d), -1, p) for d in dens] for p in primes], dtype=np.int64)[:, None, None]
    nu = ((nums % q).astype(np.int64, copy=False) @ maps % q).swapaxes(2, 3) * inverses % q
    weights = np.array(mults, dtype=np.int64)
    out = np.empty((sum(mults), len(primes), len(nums), len(units)), dtype=np.int64)
    power = nu
    for j in range(len(out)):
        if j:
            power = power * nu % q
        np.matmul(power, weights, out=out[j])
    out %= q[..., 0]
    return out


def _elementary(sums: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """(n + 1, P, ...) residues e_0 .. e_n of the multisets whose power sums p_1 .. p_n are sums[0 .. n - 1] mod primes[i], on axis 1.

    Newton's identities give i e_i = sum_(j = 1..i) (-1)^(j - 1) e_(i - j)
    p_j, one product over j for each i, and i <= n < q is a unit mod q.
    int64: each step sums i products of two residues, and the primes
    satisfy (n + 1) q^2 < 2^63.
    """
    n = len(sums)
    q = np.array(primes, dtype=np.int64).reshape(-1, *[1] * (sums.ndim - 2))
    signed = sums.copy()
    signed[1::2] = (q - signed[1::2]) % q  # (-1)^(j - 1) p_j at index j - 1
    inverses = np.array([[pow(i, -1, p) for p in primes] for i in range(1, n + 1)], dtype=np.int64)
    inverses = inverses.reshape(n, *q.shape)
    out = np.empty((n + 1, *sums.shape[1:]), dtype=np.int64)
    out[0] = 1
    for i in range(1, n + 1):
        out[i] = (signed[:i] * out[i - 1 :: -1]).sum(axis=0) % q * inverses[i - 1] % q
    return out


@dataclass(frozen=True)
class SpectrumComparison:
    size: int
    max_distance: float
    tolerance: float
    passed: bool
    worst_index: Optional[int]


def compare_spectra(sp: Spectrum, numeric: Sequence[complex], tolerance: float = DEFAULT_TOLERANCE) -> SpectrumComparison:
    """Match the exact eigenvalue multiset against a numeric one.

    Each exact value (taken in sorted order) is paired greedily with the
    nearest unused numeric value.  Plain lexicographic pairing would misalign
    conjugate pairs whose real parts are equal exactly but split by rounding
    noise in the numeric spectrum.  The reported maximum distance certifies
    an explicit one-to-one matching of the two multisets.
    """
    exact: list[complex] = []
    for e in sp.entries:
        v = e.value.to_complex()
        exact.extend([v] * e.multiplicity)
    pool = [complex(x) for x in numeric]
    if len(exact) != len(pool):
        raise ValueError(
            f"spectrum size mismatch: {len(exact)} exact vs {len(pool)} numeric values"
        )
    exact.sort(key=lambda z: (z.real, z.imag))
    worst = None
    worst_d = 0.0
    for i, a in enumerate(exact):
        j = min(range(len(pool)), key=lambda t: abs(pool[t] - a))
        d = abs(pool[j] - a)
        pool.pop(j)
        if d > worst_d:
            worst_d = d
            worst = i
    return SpectrumComparison(
        size=len(exact),
        max_distance=worst_d,
        tolerance=tolerance,
        passed=worst_d <= tolerance,
        worst_index=worst,
    )


def batch_compare_spectra(
    group: Group,
    members: np.ndarray,
    numerators: np.ndarray,
    degrees: Sequence[int],
    m: int,
    tolerance: float = DEFAULT_TOLERANCE,
) -> np.ndarray:
    """compare_spectra's verdict for every row of members, an (S, n) bool array.

    Row s claims the eigenvalue numerators[s, r] / degrees[r] (power-basis
    coefficients at conductor m, shape (S, K, phi)) with multiplicity
    degrees[r]^2.  Its numeric eigenvalues come from the sweep's joint
    eigenbasis (_joint_spectrum) when that is certified; otherwise each
    chunk takes one eigvals call, on one matrix of each pair of inverse sets
    (_solved_runs).  On the joint path one correspondence of eigenvectors
    to characters passes the rows it certifies (_certified_rows).  Every
    other row's own claim is matched against its numeric values
    (_float_verdicts), in chunks of _STACK_BYTES.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if int(degrees @ degrees) != group.n:
        raise ValueError(
            f"spectrum size mismatch: {int(degrees @ degrees)} exact vs {group.n} numeric values"
        )
    if int(np.abs(numerators).max(initial=0)) * int(degrees.max()) >= 2**63:
        raise ValueError("claimed numerators too large for exact int64 comparison")
    n, (count, k, phi) = group.n, numerators.shape
    out = np.empty(count, dtype=bool)
    # per row: about three 8-byte arrays of shape (K, n) and three of (K, K)
    row_bytes = 24 * k * (n + k)
    joint = _joint_spectrum(group, members, tolerance) if count else None
    if joint is None:
        # per matrix: the bool and float64 stacks and the eigensolver's copy
        for stack, rows, local in _solved_runs(group, members, 17 * n * n, row_bytes):
            numeric = np.linalg.eigvals(stack.astype(np.float64))
            out[rows] = _float_verdicts(numerators[rows], degrees, m, numeric[local], tolerance)
        return out
    atoms, values = joint
    passed = _certified_rows(atoms, values, numerators, degrees, m, tolerance)
    out[passed] = True
    rest = np.flatnonzero(~passed)
    # and each row's numeric values and gathered claims
    step = max(1, _STACK_BYTES // (16 * n + 8 * k * phi + row_bytes))
    for start in range(0, len(rest), step):
        rows = rest[start : start + step]
        numeric = atoms[rows].astype(np.float64) @ values
        out[rows] = _float_verdicts(numerators[rows], degrees, m, numeric, tolerance)
    return out


def _joint_spectrum(
    group: Group, members: np.ndarray, tolerance: float
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(atoms, values): row s's numeric eigenvalues are atoms[s] @ values, each within tolerance / 64 of a true eigenvalue of A(row s) under a one-to-one matching; None when that is not certified.

    An atom is a set of elements that lie in the same rows: atoms is the
    (S, a) bool array of the atoms each row holds, for the a atoms that some
    row holds, and values[b, i] is the i-th joint eigenvalue of A(atom b).
    A(C) is linear in C's indicator, so A(row s) = sum_b atoms[s, b] A_b.

    Why the values are eigenvalues.  When every atom is closed under
    conjugation (checked exactly, with Group.conjugates), each A_b is a sum
    of class-sum matrices, which lie in the centre of the group algebra.
    So the A_b and their transposes A_b^T = A(atom b^-1) all commute, each
    is normal, and they have one unitary eigenbasis.  On a common
    eigenvector where A_b takes the value w_b, A_b^T takes conj(w_b), so
    the Hermitian H = sum_b c_b ((1 + i) A_b + (1 - i) A_b^T) takes
    sum_b c_b (2 Re w_b - 2 Im w_b).  The weights c_b, the square roots of
    the first primes (_weights), are there to keep distinct joint
    eigenvalues apart in H.  eigh(H) = (., V) then gives values[b, i] =
    (V^H A_b V)[i, i], with the residual rho_b = |A_b V - V diag(values[b])|_F.
    Where H joins two joint eigenspaces, V mixes them and a residual shows it.

    The bound.  Let eps = |V^H V - I|_F <= 1/8 and P = (V^H V)^(1/2), so
    that Q = V P^-1 is unitary, |P^-1|_2 <= 1 + eps and |P^-1 - I|_F <=
    sqrt(2) eps.  Let D = diag(atoms[s] @ values); its entries are at most
    (1 + eps) n in size, since |v^H A_b v| <= |atom b| |v|^2.  The residual
    R = A(row s) V - V D is the sum of A_b V - V diag(values[b]) over the
    atoms the row holds, so |R|_F <= sum_b rho_b.  Then A(row s) Q - Q D = R P^-1 +
    V (D P^-1 - P^-1 D) is at most (1 + eps)(sum_b rho_b + 2 sqrt(2)
    (1 + eps) n eps) in Frobenius norm, below delta = (1 + eps)(sum_b rho_b
    + 4 n eps).  A(row s) and Q D Q^H are normal, so by the
    Hoffman-Wielandt inequality (Hoffman and Wielandt, Duke Math. J. 20,
    1953) a matching pairs their eigenvalues with squared distances summing
    to at most delta^2: each pair is within delta.  The sweep is certified
    when delta, computed in floating point as every float check is, is at
    most tolerance / 64, which leaves the matching of claims nearly all of
    its tolerance.
    """
    n = group.n
    key = np.dtype((np.void, -(-len(members) // 8)))
    columns = np.ascontiguousarray(np.packbits(members.T, axis=1)).view(key).ravel().tolist()
    atom_of: dict = {}
    label = np.array([atom_of.setdefault(c, len(atom_of)) for c in columns], dtype=np.intp)
    if (label[group.conjugates(np.arange(n))] != label[:, None]).any():
        return None
    element_of = np.empty(len(atom_of), dtype=np.intp)
    element_of[label] = np.arange(n)  # one element of each atom
    atoms = members[:, element_of]
    held = np.flatnonzero(atoms.any(axis=0))
    quotients = label[_quotients(group)]  # the atom of g h^-1
    weight = np.zeros(len(atom_of))
    weight[held] = _weights(len(held))
    weighted = weight[quotients]  # sum_b c_b A_b
    _, basis = np.linalg.eigh((weighted + weighted.T) + 1j * (weighted - weighted.T))
    # products of the real and imaginary parts, which BLAS runs in one thread
    # at sizes where it splits a complex product over threads
    re, im = basis.real.copy(), basis.imag.copy()
    values = np.empty((len(held), n), dtype=complex)
    residual = 0.0
    for b, atom in enumerate(held.tolist()):
        adjacency = (quotients == atom).astype(np.float64)
        image = adjacency @ re + 1j * (adjacency @ im)
        values[b] = np.einsum("ij,ij->j", basis.conj(), image)
        residual += np.linalg.norm(image - basis * values[b])
    eps = np.hypot(np.linalg.norm(re.T @ re + im.T @ im - np.eye(n)), np.linalg.norm(re.T @ im - im.T @ re))
    if not (eps <= 1 / 8 and (1 + eps) * (residual + 4 * n * eps) <= tolerance / 64):
        return None
    return atoms[:, held], values


def _weights(count: int) -> np.ndarray:
    """The square roots of the first count primes."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return np.sqrt(np.array(primes, dtype=np.float64))


def _certified_rows(
    atoms: np.ndarray, values: np.ndarray, nums: np.ndarray, degrees: np.ndarray, m: int, tolerance: float
) -> np.ndarray:
    """(S,) bool: the rows s whose _float_verdicts verdict on the numeric values atoms[s] @ values is proven True by one correspondence of joint eigenvectors to characters; no row when the sweep has none.

    Let c_b[r] = nums[s_b, r] / degrees[r], the claim for character r on a
    row s_b whose set is atom b alone.  The sweep has a correspondence when
    (1) every atom has such a row, and (3) giving each column i the
    character r(i) that minimises e_i(r) = sum_b |values[b, i] - c_b[r]|
    gives every r exactly degrees[r]^2 columns, with max_i e_i(r(i)) + mu
    <= tol for the margin mu below.  Row s is then certified when (2)
    nums[s] = sum_b atoms[s, b] nums[s_b] exactly, and (4) no pair of its
    claimed values clashes as _float_verdicts defines it (_clashes).

    Why a certified row passes.  By (2), its claimed value for r is
    lambda_r = sum_b atoms[s, b] c_b[r] exactly, and its numeric value i is
    the float of sum_b atoms[s, b] values[b, i]; their distance is at most
    the sum of |values[b, i] - c_b[r]| over the atoms the row holds, so at
    most e_i(r).  With r = r(i) and the margin for rounding, every numeric
    value lies in the ball of claimed value r(i), as _float_verdicts forms
    the floats and tests the distance.  With no clash, the claimed values
    that are the same as r(i) are its twins and have its ball, and the ball
    of every other value is disjoint from it.  So the ball of value r holds
    exactly the columns i whose r(i) is the same as r, and by (3) there are
    sum_(t same as r) degrees[t]^2 of them: every count of _float_verdicts'
    counting argument holds, and its verdict is True.

    The margin.  Let u = 2^-53, N = a + phi + 32 for a atoms and phi
    coefficients, g = N u / (1 - N u), and mu = 16 g (tol + W + L), with
    W = max_i sum_b |values[b, i]| and L = sum_b max_r |nums[s_b, r]|_1 /
    degrees[r].  A claimed float (_complex_parts, then / d) is within
    g |num|_1 / d of its value in each part: the angle 2 pi e / m is rounded
    by a few units in the last place, cos and sin are 1-Lipschitz, and the
    sum has phi terms; and |num|_1 / d <= L on a row that meets (2).  A
    numeric value is a sum of at most a floats, within g W of its exact sum
    in each part.  With the rounding of e_i, and of the difference and hypot
    in _within, which is relative and so below g tol, the float distance
    _float_verdicts tests exceeds e_i(r) by less than mu, and it must be at
    most tol.

    The pairs.  The difference of claimed values r and t of row s is formed
    as atoms[s] @ (c_b[r] - c_b[t]), from the floats of the c_b; in each
    part it is within 8 g L <= mu of the difference _float_verdicts forms.
    A pair whose formed difference is more than mu outside _within's box
    for 2 tol (1 + 2^-40), in either part, is then not near, and not the
    same either, since the same values differ by exactly 0.  The exact
    tests (_clashes) run on the other pairs alone.  (2) is one exact_matmul
    per chunk of rows, whose bound sum_b max|nums[s_b]| must stay below
    2^63.  Rows go in chunks that fit in _STACK_BYTES.
    """
    count, a = atoms.shape
    n, (k, phi) = values.shape[1], nums.shape[1:]
    passed = np.zeros(count, dtype=bool)
    single = np.flatnonzero(atoms.sum(axis=1) == 1)
    _, first = np.unique(np.nonzero(atoms[single])[1], return_index=True)
    if len(first) < a:
        return passed
    atom_rows = nums[single[first]]  # (a, K, phi): the claims of atom b alone, in the order of the atoms
    c_re, c_im = _complex_parts(atom_rows, m)
    c_re, c_im = c_re / degrees, c_im / degrees
    cost = np.zeros((n, k))
    for b in range(a):
        cost += np.hypot(values[b].real[:, None] - c_re[b], values[b].imag[:, None] - c_im[b])
    char = cost.argmin(axis=1)
    norms = np.abs(atom_rows).astype(np.float64).sum(axis=2) / degrees  # |nums[s_b, r]|_1 / d_r
    width = a + phi + 32
    g = width * 2.0**-53 / (1 - width * 2.0**-53)
    mu = 16 * g * (tolerance + np.abs(values).sum(axis=0).max(initial=0) + norms.max(axis=1, initial=0).sum())
    if not (
        (np.bincount(char, minlength=k) == degrees * degrees).all()
        and cost[np.arange(n), char].max(initial=0) + mu <= tolerance
    ):
        return passed
    flat = atom_rows.reshape(a, k * phi)
    bound = sum(int(x) for x in np.abs(flat).max(axis=1, initial=0))
    if bound >= 2**63:
        return passed
    r, t = _value_pairs(k)
    d_re, d_im = c_re[:, r] - c_re[:, t], c_im[:, r] - c_im[:, t]
    limit = 2 * tolerance * (1 + 2**-40) * (1 + 2**-40) + mu
    # bytes per row: the product and its float operand, the comparison, and
    # per pair a formed difference, its absolute value and their tests (the
    # pairs tested exactly are few)
    step = max(1, _STACK_BYTES // (16 * a + 9 * k * phi + 20 * len(r)))
    for start in range(0, count, step):
        block, claims = atoms[start : start + step], nums[start : start + step]
        exact = (_modp.exact_matmul(block, flat, bound) == claims.reshape(len(block), -1)).all(axis=1)
        weights = block.astype(np.float64)
        s, p = np.nonzero((np.abs(weights @ d_re) <= limit) & (np.abs(weights @ d_im) <= limit))
        hit = np.zeros(len(block), dtype=bool)
        hit[s] = True
        near = claims[hit]  # the rows with a pair to test exactly
        re, im = _complex_parts(near, m)
        clash, _ = _clashes(near, degrees, re / degrees, im / degrees, (np.cumsum(hit) - 1)[s], r[p], t[p], tolerance)
        exact[s[clash]] = False
        passed[start : start + step] = exact
    return passed


def _float_verdicts(
    nums: np.ndarray, degrees: np.ndarray, m: int, numeric: np.ndarray, tolerance: float
) -> np.ndarray:
    """compare_spectra's verdict for each row s: the claim nums[s] / degrees against the numeric values numeric[s].

    The claimed values are formed as CycInt.to_complex forms them, term by
    term in exponent order (_complex_parts) and then divided by the degree,
    and distances are the hypot of the component differences, as abs() of a
    complex difference computes them.  So the floats below are those
    compare_spectra compares.

    Values equal as numbers (num * d' == num' * d, exactly) are merged.
    Call the closed disc of radius tol around a merged value its ball.
    When the balls of distinct values are disjoint, the greedy matching
    passes exactly when every numeric value lies in some ball and each
    ball holds as many numeric values as its value's multiplicity:

    - If the counts hold: when greedy reaches a copy of value a, each
      earlier copy of a took one value from a's ball, and no copy of another
      value took one, since a point within tol of two values would put them
      within 2 tol of each other.  So a's ball still holds an unused value,
      the nearest unused value is within tol of a, and every pair is
      within tol.
    - If greedy passes: it is a one-to-one matching in which each numeric
      value lies within tol of its partner, so it lies in that ball and in
      no other; then a's ball holds exactly the partners of a's copies.

    On floats the triangle inequality holds up to a relative error of a
    few units in the last place, so balls count as disjoint only when
    distinct values are more than 2 tol (1 + 2^-40) apart.  A row where
    two balls come closer, or where two equal values differ as floats,
    falls back to compare_spectra itself.  Each test runs on the whole
    chunk at once: on the pairs r < t of claimed values (_value_pairs), and
    as [s, r, i] on claimed value r and numeric value i of row s.
    """
    re, im = _complex_parts(nums, m)
    re, im = re / degrees, im / degrees
    count, k = re.shape
    r, t = _value_pairs(k)
    clash, same = _clashes(nums, degrees, re, im, slice(None), r, t, tolerance)
    clash = clash.any(axis=1)
    inside = _within(numeric.real[:, None] - re[:, :, None], numeric.imag[:, None] - im[:, :, None], tolerance)
    equal = np.zeros((count, k, k), dtype=bool)
    equal[:, r, t] = equal[:, t, r] = same
    mults = degrees * degrees
    verdict = inside.any(axis=1).all(axis=1) & (inside.sum(axis=2) == mults + equal @ mults).all(axis=1)
    for s in np.flatnonzero(clash):
        claimed = _read_spectrum(m, degrees.tolist(), nums[s], numeric.shape[1], 0, False)
        verdict[s] = compare_spectra(claimed, numeric[s], tolerance).passed
    return verdict


def _clashes(
    nums: np.ndarray, degrees: np.ndarray, re: np.ndarray, im: np.ndarray, s, r, t, tolerance: float
) -> tuple[np.ndarray, np.ndarray]:
    """(clash, same) for claimed values r and t of row s, elementwise over the index arrays r and t and s, an index array or a slice.

    nums[s, r] / degrees[r] is a claimed value and re[s, r], im[s, r] its
    floats.  Two values are the same when num * d' == num' * d, exactly; the
    same values are twins when their floats are equal bit for bit, and
    distinct values are near when within 2 tol (1 + 2^-40).  A pair clashes
    when it is the same but no twins, or distinct but near.
    """
    same = nums[s, r, 0] * degrees[t] == nums[s, t, 0] * degrees[r]
    for e in range(1, nums.shape[2]):
        same &= nums[s, r, e] * degrees[t] == nums[s, t, e] * degrees[r]
    re_r, re_t, im_r, im_t = re[s, r], re[s, t], im[s, r], im[s, t]
    twin = (re_r == re_t) & (im_r == im_t)
    near = _within(re_r - re_t, im_r - im_t, 2 * tolerance * (1 + 2**-40))
    return np.where(same, ~twin, near), same


@lru_cache(maxsize=64)
def _value_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs r < t of k claimed values; a value and itself are always the same, bit for bit."""
    return np.triu_indices(k, 1)


def _within(dx: np.ndarray, dy: np.ndarray, bound: float) -> np.ndarray:
    """hypot(dx, dy) <= bound elementwise, with hypot taken only inside the box |dx|, |dy| <= bound (1 + 2^-40).

    Outside the box the answer is no: hypot is within a few units in the
    last place of sqrt(dx^2 + dy^2) >= max(|dx|, |dy|).
    """
    box = bound * (1 + 2**-40)
    out = (np.abs(dx) <= box) & (np.abs(dy) <= box)
    hits = np.flatnonzero(out)
    out.flat[hits] = np.hypot(dx.flat[hits], dy.flat[hits]) <= bound
    return out


def _cyclic_spans(xs: Iterable[int], group: Group) -> dict[int, frozenset[int]]:
    """x -> the elements of <x>, enumerated from the power walk of x."""
    xs = sorted(set(xs))
    return {x: frozenset(walk.tolist()) for x, walk in zip(xs, group.walks(xs))}


def oracle_power_closed(elements: Iterable[int], group: Group) -> bool:
    """Literal quantifier evaluation of power closure (deliberately naive).

    For every x in the set, every generator of <x> (found by comparing
    enumerated subgroups, not exponent arithmetic) must again be in the set.
    """
    chosen = set(int(x) for x in elements)
    spans = _cyclic_spans(chosen, group)
    inner = _cyclic_spans((y for span in spans.values() for y in span), group)
    for x in chosen:
        span = spans[x]
        for y in span:
            if inner[y] == span and y not in chosen:
                return False
    return True


def batch_power_closed(group: Group, members: np.ndarray) -> np.ndarray:
    """oracle_power_closed for every row of members, an (S, n) bool array.

    Each element's cyclic span is enumerated once, and G[x, y] is set when
    y generates <x>, found by comparing spans as oracle_power_closed does.
    Row T is closed exactly when it holds every generator of <x> for each
    x it holds, that is when (T @ G) & ~T is empty.  The float32 product
    counts at most n terms of 0 or 1, so it is exact.
    """
    n = group.n
    spans = _cyclic_spans(range(n), group)
    gens = np.zeros((n, n), dtype=np.float32)
    for x, span in spans.items():
        for y in span:
            if spans[y] == span:
                gens[x, y] = 1
    reach = members.astype(np.float32) @ gens
    return ~((reach > 0) & ~members).any(axis=1)
