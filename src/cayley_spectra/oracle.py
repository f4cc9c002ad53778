"""Independent checks for spectra and power closure.

Nothing here touches the character machinery: the adjacency matrix is
built literally from the definition, the floating backend feeds it to a
dense eigensolver, and the exact backend verifies a claimed spectrum against
the integer characteristic polynomial, compared modulo several primes at
every embedding of the cyclotomic integers.  Shared is the number format
alone: _modp's primes and ring maps z -> w^u, cyclotomic's power-basis
floats, and spectra's Spectrum type and reader.

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
eigvals per pair of inverse sets.  The exact check solves one matrix per
pair of inverse sets: A(C^-1) = A(C)^T, so both sets have one
characteristic polynomial (_solved_runs).  Each row's own claim is still
compared with the shared result.  The exact check reduces the stack for
all its primes in one charpoly_stack call, and both exact checks bound the
characteristic polynomial's coefficients by Hadamard's inequality
(_charpoly_bound).
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
# eigensolver or the stacked primes of the exact check hold it, and the
# temporaries of matching its rows' claims (_solved_runs)
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
    members[s, group.inv], found by packed-bit keys; that row serves
    itself, so each pair of inverse sets (and each repeated set) costs one
    matrix.  A run holds as many matrices as fit in _STACK_BYTES at
    matrix_bytes each, plus row_bytes for each of the two rows a matrix
    serves apart from repeated sets (one matrix at least).
    """
    count = len(members)
    key = np.dtype((np.void, -(-group.n // 8)))
    own = np.ascontiguousarray(np.packbits(members, axis=1)).view(key).ravel().tolist()
    inverse = np.ascontiguousarray(np.packbits(members[:, group.inv], axis=1)).view(key).ravel().tolist()
    first = dict(zip(reversed(own), range(count - 1, -1, -1)))
    serve = np.minimum(
        np.array([first[k] for k in own], dtype=np.int64),
        np.array([first.get(k, count) for k in inverse], dtype=np.int64),
    )
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
    passed: bool
    degree: int
    mismatch_power: Optional[int] = None


def verify_spectrum_exact(
    sp: Spectrum, adjacency: np.ndarray, charpoly: Optional[Sequence[int]] = None
) -> ExactSpectrumReport:
    """Verify a claimed exact spectrum against the characteristic polynomial.

    Writing each claimed eigenvalue as num/den with multiplicity mu, the
    product of the factors (den*x - num)^mu must equal the characteristic
    polynomial scaled by the product of the den^mu.  This is the one-matrix
    call of the batched check (see _exact_mismatch), on the integer
    characteristic polynomial from integer_charpoly unless one is given.
    The degrees must agree first, and a negative multiplicity fails with
    them; mismatch_power is the lowest power of x whose coefficients differ.
    """
    if charpoly is None:
        charpoly = integer_charpoly(adjacency)
    charpoly = [int(c) for c in charpoly]
    mults = [e.multiplicity for e in sp.entries]
    degree = sum(mults)
    if degree != len(charpoly) - 1 or min(mults, default=0) < 0:
        return ExactSpectrumReport(passed=False, degree=degree, mismatch_power=None)
    m = sp.entries[0].value.numerator.ctx.m if sp.entries else 1
    nums = np.array(
        [[e.value.numerator.coeffs for e in sp.entries]], dtype=object
    ).reshape(1, len(sp.entries), get_context(m).degree)
    dens = [e.value.denominator for e in sp.entries]
    primes = _exact_primes(nums, dens, mults, m, max(abs(c) for c in charpoly))
    residues = np.array([[[c % q for c in charpoly]] for q in primes], dtype=np.int64)
    miss = int(_exact_mismatch(nums, dens, mults, m, primes, residues)[0])
    if miss >= 0:
        return ExactSpectrumReport(passed=False, degree=degree, mismatch_power=miss)
    return ExactSpectrumReport(passed=True, degree=degree)


def batch_verify_spectrum_exact(
    group: Group, members: np.ndarray, numerators: np.ndarray, degrees: Sequence[int], m: int
) -> np.ndarray:
    """verify_spectrum_exact's verdict for every row of members, an (S, n) bool array.

    Row s claims the eigenvalue numerators[s, r] / degrees[r] (power-basis
    coefficients at conductor m, shape (S, K, phi)) with multiplicity
    degrees[r]^2.  The characteristic polynomials come from one
    _modp.charpoly_stack call per chunk, for every prime at once, on one
    matrix of each pair of inverse sets (_solved_runs); every row's own
    claim is compared with its matrix's polynomial.

    Why the primes suffice: a row of A(C) holds |C| ones, so its 2-norm is
    rho = sqrt(|C|).  The coefficient of x^(n-i) is (-1)^i times the sum of
    the C(n, i) principal i x i minors, each at most rho^i in absolute
    value by Hadamard's inequality, since its rows are parts of rows of
    A(C).  So every coefficient is at most (1 + ceil(rho))^n
    (_charpoly_bound), the bound _exact_primes is given, with the largest
    |C| of the sweep.
    """
    mults = [int(d) * int(d) for d in degrees]
    n = group.n
    out = np.zeros(len(members), dtype=bool)
    if sum(mults) != n:
        return out
    primes = _exact_primes(
        numerators, degrees, mults, m, _charpoly_bound(int(members.sum(axis=1).max(initial=0)), n)
    )
    # bytes for each prime: per matrix, the int64 Hessenberg matrix, its
    # update temporary and the leading blocks' polynomials; per row, the
    # claimed product's values, factors, powers and coefficients at every
    # unit, (units, n + 1) each
    matrix_bytes = 8 * len(primes) * (2 * n * n + (n + 1) ** 2)
    row_bytes = 8 * len(primes) * 5 * numerators.shape[2] * (n + 1)
    for stack, rows, local in _solved_runs(group, members, matrix_bytes, row_bytes):
        stacked = np.broadcast_to(stack, (len(primes), *stack.shape)).reshape(-1, n, n)
        residues = _modp.charpoly_stack(stacked, np.repeat(primes, len(stack)))
        residues = residues.reshape(len(primes), len(stack), n + 1)[:, local]
        out[rows] = _exact_mismatch(numerators[rows], degrees, mults, m, primes, residues) < 0
    return out


def _exact_primes(
    nums: np.ndarray, dens: Sequence[int], mults: Sequence[int], m: int, charpoly_bound: int
) -> list[int]:
    """The primes of _exact_mismatch for the claims nums when every characteristic polynomial coefficient is at most charpoly_bound.

    Their product exceeds B = scale * charpoly_bound + prod_r (dens[r] +
    max_s |nums[s, r]|_1)^mults[r], where scale = prod_r dens[r]^mults[r]
    and |.|_1 is the L1 norm of a coefficient vector; they satisfy
    max(n + 1, phi) q^2 < 2^63.
    """
    count, k, phi = nums.shape
    scale = prod(int(d) ** int(mu) for d, mu in zip(dens, mults))
    l1 = np.abs(nums).sum(axis=2).max(axis=0) if k and count else [0] * k
    claimed = prod((int(d) + int(a)) ** int(mu) for d, a, mu in zip(dens, l1, mults))
    return _modp._certificate_primes(m, scale * charpoly_bound + claimed, max(sum(mults) + 1, phi))


def _exact_mismatch(
    nums: np.ndarray,
    dens: Sequence[int],
    mults: Sequence[int],
    m: int,
    primes: Sequence[int],
    charpolys: np.ndarray,
) -> np.ndarray:
    """Per row s, the lowest power of x at which D_s = scale * f_s - prod_r (dens[r] x - nums[s, r])^mults[r] has a nonzero coefficient, or -1 when D_s = 0.

    nums is an (S, K, phi) array of power-basis coefficients at conductor m
    (int64 or Python ints), scale = prod_r dens[r]^mults[r], and f_s is
    the characteristic polynomial of degree n = sum(mults) whose residues
    mod primes[i] are charpolys[i, s], shape (len(primes), S, n + 1).  The
    primes come from _exact_primes, for a bound on f_s's coefficients.

    For a prime q = 1 (mod m) and w of order m mod q, each unit u mod m
    gives the ring map Z[z] -> F_q, z -> w^u.  Under it the claimed product
    is a polynomial over F_q of degree n < q, so it is evaluated at the
    n + 1 points x = 0..n and its coefficients are read back through the
    inverse Vandermonde matrix; D_s is then formed coefficient by
    coefficient.  Every multiplicity must be >= 0.

    Why this is exact: let c be a coefficient of D_s.  Every complex
    embedding sigma has |sigma(num)| <= |num|_1, the L1 norm of the
    coefficient vector, so each coefficient of the claimed product is
    bounded under sigma by prod_r (dens[r] + |nums[s, r]|_1)^mults[r],
    the product's value at x = 1 with every term made positive, and
    |sigma(c)| <= B, the bound of _exact_primes; the product M of the
    primes exceeds B.  If c maps to 0 under every
    unit at every prime, then c lies in q Z[z] for each q, because q splits
    completely in Z[z] and the kernels of the phi maps are the primes above
    q, whose intersection is q Z[z].  So c lies in M Z[z], and if c != 0
    then |N(c)| >= M^phi.  But |N(c)| is the product of the phi values
    |sigma(c)| < M, so c = 0.  Hence D_s = 0 exactly when all its residues
    vanish, and its lowest nonzero coefficient is the lowest with a nonzero
    residue.

    int64: values, residues and factors are below q and every sum has at
    most max(n + 1, phi) products of two residues; the primes satisfy
    max(n + 1, phi) q^2 < 2^63.
    """
    count, k, phi = nums.shape
    n = sum(mults)
    scale = prod(int(d) ** int(mu) for d, mu in zip(dens, mults))
    units = [u for u in range(m) if gcd(u, m) == 1]
    # axis 0 runs over the primes, and q broadcasts each one over its block
    q = np.array(primes, dtype=np.int64)[:, None, None, None]
    maps = np.stack([_modp._ring_maps(m, phi, p, units) for p in primes])[:, None]
    embedded = (nums % q).astype(np.int64) @ maps % q
    points = np.arange(n + 1, dtype=np.int64)
    values = np.ones((len(primes), count, len(units), n + 1), dtype=np.int64)
    for r in range(k):
        factor = (int(dens[r]) % q * points - embedded[:, :, r, :, None]) % q
        values = values * _modp._power_stack(factor, int(mults[r]), q) % q
    inverse = np.stack([_inverse_vandermonde(n, p).T for p in primes])[:, None]
    product = values @ inverse % q
    target = charpolys * np.array([scale % p for p in primes], dtype=np.int64)[:, None, None] % q[..., 0]
    miss = (product != target[:, :, None, :]).any(axis=(0, 2))
    return np.where(miss.any(axis=1), miss.argmax(axis=1), -1)


@lru_cache(maxsize=64)
def _inverse_vandermonde(n: int, q: int) -> np.ndarray:
    """V^-1 mod q for V[x, i] = x^i at the points x = 0..n: row i of V^-1 maps values to coefficient i.

    Column x holds the coefficients of the Lagrange polynomial
    L_x(t) = prod_(y != x) (t - y) / (x - y): the master polynomial
    prod_y (t - y) divided by (t - x), scaled by the inverse of
    prod_(y != x) (x - y) = (-1)^(n - x) x! (n - x)!.
    """
    master = [1]
    for y in range(n + 1):
        master = [(a - y * b) % q for a, b in zip([0] + master, master + [0])]
    out = np.zeros((n + 1, n + 1), dtype=np.int64)
    fact = [1]
    for i in range(1, n + 1):
        fact.append(fact[-1] * i % q)
    for x in range(n + 1):
        quotient = [0] * (n + 1)
        carry = 0
        for i in range(n + 1, 0, -1):  # synthetic division of master by (t - x)
            carry = (master[i] + carry * x) % q
            quotient[i - 1] = carry
        denom = (-1) ** (n - x) * fact[x] * fact[n - x]
        out[:, x] = np.array(quotient, dtype=np.int64) * pow(denom % q, -1, q) % q
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
    (_solved_runs).  Every row's own claim is matched against its numeric
    values (_float_verdicts), in chunks of _STACK_BYTES.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if int(degrees @ degrees) != group.n:
        raise ValueError(
            f"spectrum size mismatch: {int(degrees @ degrees)} exact vs {group.n} numeric values"
        )
    if int(np.abs(numerators).max(initial=0)) * int(degrees.max()) >= 2**63:
        raise ValueError("claimed numerators too large for exact int64 comparison")
    n, (count, k, _) = group.n, numerators.shape
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
    step = max(1, _STACK_BYTES // (16 * n + row_bytes))  # and each row's numeric values
    for start in range(0, count, step):
        rows = slice(start, start + step)
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
    same = np.ones((count, len(r)), dtype=bool)
    for e in range(nums.shape[2]):
        same &= nums[:, r, e] * degrees[t] == nums[:, t, e] * degrees[r]
    twin = (re[:, r] == re[:, t]) & (im[:, r] == im[:, t])
    near = _within(re[:, r] - re[:, t], im[:, r] - im[:, t], 2 * tolerance * (1 + 2**-40))
    clash = np.where(same, ~twin, near).any(axis=1)
    inside = _within(numeric.real[:, None] - re[:, :, None], numeric.imag[:, None] - im[:, :, None], tolerance)
    equal = np.zeros((count, k, k), dtype=bool)
    equal[:, r, t] = equal[:, t, r] = same
    mults = degrees * degrees
    verdict = inside.any(axis=1).all(axis=1) & (inside.sum(axis=2) == mults + equal @ mults).all(axis=1)
    for s in np.flatnonzero(clash):
        claimed = _read_spectrum(m, degrees.tolist(), nums[s], numeric.shape[1], 0, False)
        verdict[s] = compare_spectra(claimed, numeric[s], tolerance).passed
    return verdict


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
