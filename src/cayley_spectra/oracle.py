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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _modp
from .cyclotomic import _complex_parts, get_context
from .group_core import Group
from .spectra import Spectrum, _read_spectrum

DEFAULT_ORACLE_CAP = 400
# the float oracle's default distance bound, for the CLI and both comparisons
DEFAULT_TOLERANCE = 1e-8
# bytes of one chunk of the adjacency stack, held as float64 for the eigensolver
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
    quotients = group.mul[:, group.inv]  # [g, h] = g * h^-1
    return targets[quotients].astype(np.int8)


def adjacency_stack(group: Group, members: np.ndarray) -> np.ndarray:
    """The (S, n, n) 0/1 stack of adjacency_matrix for each row of members, an (S, n) bool array."""
    return members[:, group.mul[:, group.inv]].astype(np.int8)


def _chunks(count: int, n: int) -> Iterator[slice]:
    """Consecutive row ranges whose float64 adjacency stacks take at most _STACK_BYTES (one row at least)."""
    step = max(1, _STACK_BYTES // (8 * n * n))
    for start in range(0, count, step):
        yield slice(start, start + step)


def oracle_spectrum(adjacency: np.ndarray) -> np.ndarray:
    """Eigenvalue multiset from a dense general eigensolver."""
    return np.linalg.eigvals(adjacency.astype(np.float64))


def integer_charpoly(adjacency: np.ndarray) -> tuple[int, ...]:
    """Exact characteristic polynomial of an integer matrix, low degree first.

    det(xI - A) is reduced to Hessenberg form mod distinct 31-bit primes
    (_modp.charpoly), and the residues are joined by the Chinese remainder
    theorem and read as symmetric residues.

    Why this is exact: let r be the largest row L1 norm of A.  It is the
    norm induced by the max norm, so every eigenvalue has |lambda| <= r.
    The coefficient of x^(n-i) is (-1)^i e_i(lambda_1, ..., lambda_n), so
    |e_i| <= C(n, i) r^i, and these bounds sum to (1 + r)^n.  Primes are
    added until their product M exceeds 2 (1 + r)^n, so each coefficient is
    the one integer in (-M/2, M/2] with its residues.
    """
    rows = [[int(x) for x in row] for row in adjacency]
    n = len(rows)
    r = max((sum(abs(x) for x in row) for row in rows), default=0)
    bound = 2 * (1 + r) ** n
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
    bound = max(abs(c) for c in charpoly)
    miss = int(
        _exact_mismatch(nums, dens, mults, m, bound, lambda q: np.array([[c % q for c in charpoly]]))[0]
    )
    if miss >= 0:
        return ExactSpectrumReport(passed=False, degree=degree, mismatch_power=miss)
    return ExactSpectrumReport(passed=True, degree=degree)


def batch_verify_spectrum_exact(
    group: Group, members: np.ndarray, numerators: np.ndarray, degrees: Sequence[int], m: int
) -> np.ndarray:
    """verify_spectrum_exact's verdict for every row of members, an (S, n) bool array.

    Row s claims the eigenvalue numerators[s, r] / degrees[r] (power-basis
    coefficients at conductor m, shape (S, K, phi)) with multiplicity
    degrees[r]^2.  The characteristic polynomials of each chunk of the
    adjacency stack come from _modp.charpoly_stack, and the row L1 norm r of
    a 0/1 adjacency matrix is its set's size, so every coefficient is at
    most (1 + r)^n in absolute value (see integer_charpoly).
    """
    mults = [int(d) * int(d) for d in degrees]
    out = np.zeros(len(members), dtype=bool)
    if sum(mults) != group.n:
        return out
    for rows in _chunks(len(members), group.n):
        stack = adjacency_stack(group, members[rows])
        bound = (1 + int(members[rows].sum(axis=1).max())) ** group.n
        miss = _exact_mismatch(
            numerators[rows], degrees, mults, m, bound, lambda q: _modp.charpoly_stack(stack, q)
        )
        out[rows] = miss < 0
    return out


def _exact_mismatch(
    nums: np.ndarray,
    dens: Sequence[int],
    mults: Sequence[int],
    m: int,
    charpoly_bound: int,
    charpoly_mod: Callable[[int], np.ndarray],
) -> np.ndarray:
    """Per row s, the lowest power of x at which D_s = scale * f_s - prod_r (dens[r] x - nums[s, r])^mults[r] has a nonzero coefficient, or -1 when D_s = 0.

    nums is an (S, K, phi) array of power-basis coefficients at conductor m
    (int64 or Python ints), scale = prod_r dens[r]^mults[r], and f_s is
    the characteristic polynomial of degree n = sum(mults) whose residues
    mod q charpoly_mod(q) returns, shape (S, n + 1); each coefficient of
    f_s is at most charpoly_bound in absolute value.

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
    |sigma(c)| <= B = scale * charpoly_bound + that product.  The primes
    are added until their product M exceeds B.  If c maps to 0 under every
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
    l1 = np.abs(nums).sum(axis=2).max(axis=0) if k else []
    claimed = prod((int(d) + int(a)) ** int(mu) for d, a, mu in zip(dens, l1, mults))
    units = [u for u in range(m) if gcd(u, m) == 1]
    points = np.arange(n + 1, dtype=np.int64)
    miss = np.zeros((count, n + 1), dtype=bool)
    for q in _modp._certificate_primes(m, scale * charpoly_bound + claimed, max(n + 1, phi)):
        embedded = (nums % q).astype(np.int64) @ _modp._ring_maps(m, phi, q, units) % q
        values = np.ones((count, len(units), n + 1), dtype=np.int64)
        for r in range(k):
            factor = (int(dens[r]) % q * points - embedded[:, r, :, None]) % q
            values = values * _modp._power_stack(factor, int(mults[r]), q) % q
        product = values @ _inverse_vandermonde(n, q).T % q
        target = charpoly_mod(q) * (scale % q) % q
        miss |= (product != target[:, None, :]).any(axis=1)
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
    degrees[r]^2.  Each chunk of the adjacency stack takes one eigvals call.
    The claimed values are formed as CycInt.to_complex forms them, term by
    term in exponent order (_complex_parts) and then divided by the degree,
    and distances are the hypot of the component differences, as abs() of a
    complex difference computes them.  So the floats below are those compare_spectra
    compares.

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
    falls back to compare_spectra itself.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if int(degrees @ degrees) != group.n:
        raise ValueError(
            f"spectrum size mismatch: {int(degrees @ degrees)} exact vs {group.n} numeric values"
        )
    if int(np.abs(numerators).max(initial=0)) * int(degrees.max()) >= 2**63:
        raise ValueError("claimed numerators too large for exact int64 comparison")
    mults = degrees * degrees
    out = np.empty(len(members), dtype=bool)
    for rows in _chunks(len(members), group.n):
        nums = numerators[rows]
        numeric = np.linalg.eigvals(adjacency_stack(group, members[rows]).astype(np.float64))
        re, im = _complex_parts(nums, m)
        re, im = re / degrees, im / degrees
        clash = np.zeros(len(nums), dtype=bool)
        covered = np.zeros(numeric.shape, dtype=bool)
        verdict = np.ones(len(nums), dtype=bool)
        for r in range(len(degrees)):
            same = (nums[:, r, None, :] * degrees[:, None] == nums * degrees[r]).all(axis=2)
            twin = (re == re[:, r, None]) & (im == im[:, r, None])
            gap = np.hypot(re - re[:, r, None], im - im[:, r, None])
            clash |= np.where(same, ~twin, gap <= 2 * tolerance * (1 + 2**-40)).any(axis=1)
            inside = (
                np.hypot(numeric.real - re[:, r, None], numeric.imag - im[:, r, None]) <= tolerance
            )
            covered |= inside
            verdict &= inside.sum(axis=1) == same @ mults
        verdict &= covered.all(axis=1)
        for s in np.flatnonzero(clash):
            claimed = _read_spectrum(m, degrees.tolist(), nums[s], group.n, 0, False)
            verdict[s] = compare_spectra(claimed, numeric[s], tolerance).passed
        out[rows] = verdict
    return out


def _cyclic_span(g: int, group: Group) -> frozenset[int]:
    out = {0}
    cur = g
    while cur != 0:
        out.add(cur)
        cur = int(group.mul[cur, g])
    return frozenset(out)


def oracle_power_closed(elements: Iterable[int], group: Group) -> bool:
    """Literal quantifier evaluation of power closure (deliberately naive).

    For every x in the set, every generator of <x> (found by comparing
    enumerated subgroups, not exponent arithmetic) must again be in the set.
    """
    chosen = set(int(x) for x in elements)
    for x in chosen:
        span = _cyclic_span(x, group)
        for y in span:
            if _cyclic_span(y, group) == span and y not in chosen:
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
    spans = [_cyclic_span(x, group) for x in range(n)]
    gens = np.zeros((n, n), dtype=np.float32)
    for x, span in enumerate(spans):
        for y in span:
            if spans[y] == span:
                gens[x, y] = 1
    reach = members.astype(np.float32) @ gens
    return ~((reach > 0) & ~members).any(axis=1)
