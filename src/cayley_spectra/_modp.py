"""Prime choosers, roots of unity and characteristic polynomials over prime fields.

charpoly works on lists of lists of Python ints and serves
integer_charpoly alone (one matrix up to the oracle caps, mod 31-bit
primes).  The character table's eigenspace split takes minimal polynomials
of one row instead, by int64 array routines in characters; _power_stack
raises an int64 array to one power mod p, for the split's inverses.
exact_matmul multiplies integer matrices in float64 BLAS when the caller's
bound proves the result exact and the product is large enough to gain
(exact_dtype).
_certificate_primes and _ring_maps serve every check that evaluates
cyclotomic integers under the ring maps z -> w^u into F_q, q = 1 (mod m):
the table certificate, at u = 1 and -1, and both exact oracles, at every
unit u.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import isqrt

import numpy as np

from .errors import InternalConsistencyError


def _is_prime(x: int) -> bool:
    """Deterministic Miller-Rabin.

    The bases 2, 3, 5 and 7 are exact below 3,215,031,751 (Jaeschke, Math.
    Comp. 61, 1993), which holds every prime the package asks for: the
    certificate primes satisfy width q^2 < 2^63, so q < 3.04e9, and
    integer_charpoly's are below 2^31.  The first 13 primes as bases are
    exact below 3.3e24.
    """
    if x < 2:
        return False
    bases = (2, 3, 5, 7) if x < 3_215_031_751 else (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if x in bases:
        return True
    if any(x % b == 0 for b in bases):
        return False
    d, s = x - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        y = pow(b, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _nth_prime_down(ceiling: int, m: int, i: int) -> int:
    """The i-th prime q = 1 (mod m) at or below ceiling, counted downward from 0."""
    q = _nth_prime_down(ceiling, m, i - 1) - m if i else ceiling - (ceiling - 1) % m
    while not _is_prime(q):
        if q < 2:
            raise InternalConsistencyError(f"ran out of primes = 1 mod {m} below {ceiling}")
        q -= m
    return q


def _descending_primes(ceiling: int, m: int, bound: int) -> list[int]:
    """Distinct primes q = 1 (mod m), q <= ceiling, whose product exceeds bound.

    They are taken downward from ceiling, so the fewest primes serve any
    bound, and each one is found once per process.
    """
    primes: list[int] = []
    product = 1
    for i in count():
        if product > bound:
            return primes
        primes.append(_nth_prime_down(ceiling, m, i))
        product *= primes[-1]


def _certificate_primes(m: int, bound: int, width: int, limit: int = 2**63) -> list[int]:
    """Distinct primes q = 1 (mod m) with width * q^2 < limit, whose product exceeds bound.

    They are taken downward from the largest admissible q, so one prime
    serves any bound below about limit / width.  The default keeps sums of
    width products of residues within int64; limit = 2^53 keeps them exact
    in float64 (exact_matmul).
    """
    return _descending_primes(isqrt((limit - 1) // width), m, bound)


def _prime_factors(x: int) -> list[int]:
    out = []
    f = 2
    while f * f <= x:
        if x % f == 0:
            out.append(f)
            while x % f == 0:
                x //= f
        f += 1
    if x > 1:
        out.append(x)
    return out


@lru_cache(maxsize=None)
def _element_of_order(m: int, p: int) -> int:
    if m == 1:
        return 1
    facs = _prime_factors(m)
    for c in range(2, p):
        z = pow(c, (p - 1) // m, p)
        if all(pow(z, m // q, p) != 1 for q in facs):
            return z
    raise InternalConsistencyError(f"no element of order {m} in F_{p}")


@lru_cache(maxsize=None)
def _root_powers(m: int, q: int) -> np.ndarray:
    """The read-only (m,) int64 array of w^e mod q for e = 0..m-1, w = _element_of_order(m, q)."""
    w = _element_of_order(m, q)
    powers = [1] * m
    for e in range(1, m):
        powers[e] = powers[e - 1] * w % q
    out = np.array(powers, dtype=np.int64)
    out.flags.writeable = False
    return out


def _ring_maps(m: int, phi: int, q: int, units) -> np.ndarray:
    """(phi, len(units)) matrix taking coefficient rows into F_q by z -> w^u for each u in units.

    Row e holds w^(e u) mod q, w = _element_of_order(m, q), q = 1 (mod m),
    read from w's powers, which are found once per (m, q) (_root_powers).
    """
    return _root_powers(m, q)[np.outer(np.arange(phi), units) % m]


def charpoly(mat, p):
    """Characteristic polynomial mod p, low degree first, via Hessenberg form."""
    n = len(mat)
    h = [[x % p for x in row] for row in mat]
    for j in range(n - 2):
        pivot = next((i for i in range(j + 1, n) if h[i][j]), None)
        if pivot is None:
            continue
        if pivot != j + 1:
            h[pivot], h[j + 1] = h[j + 1], h[pivot]
            for row in h:
                row[pivot], row[j + 1] = row[j + 1], row[pivot]
        inv = pow(h[j + 1][j], p - 2, p)
        for i in range(j + 2, n):
            f = h[i][j] * inv % p
            if f:
                h[i] = [(x - f * y) % p for x, y in zip(h[i], h[j + 1])]
                for r in range(n):
                    h[r][j + 1] = (h[r][j + 1] + f * h[r][i]) % p
    # det(xI - H) for Hessenberg H by last-column expansion
    polys = [[1]]
    for mm in range(1, n + 1):
        d = h[mm - 1][mm - 1]
        prev = polys[mm - 1]
        cur = [0] + prev
        for i, c in enumerate(prev):
            cur[i] = (cur[i] - d * c) % p
        w = 1
        for i in range(mm - 2, -1, -1):
            w = w * h[i + 1][i] % p
            coef = h[i][mm - 1] * w % p
            if coef:
                pi = polys[i]
                for j, c in enumerate(pi):
                    cur[j] = (cur[j] - coef * c) % p
        polys.append([c % p for c in cur])
    return polys[n]


def _power_stack(a: np.ndarray, e: int, q: int) -> np.ndarray:
    """a^e mod q elementwise, by repeated squaring; a holds residues below q < 2^31.5."""
    out = np.ones_like(a)
    base = a
    while e:
        if e & 1:
            out = out * base % q
        e >>= 1
        if e:
            base = base * base % q
    return out


# Below this many multiply-adds numpy's own int64 loop beats converting to
# float64 and calling the BLAS (measured at the table engine's sizes), and a
# job whose products all stay below it never loads OpenBLAS's buffers
# (about 0.4 MiB of peak RSS).
BLAS_MIN_WORK = 2**15
# OpenBLAS runs a product of at most this many multiply-adds on the calling
# thread alone (its SMP threshold, 65536 x GEMM_MULTITHREAD_THRESHOLD 4).
# Larger ones wake its other threads, at about 12-15 ms a call on a
# two-core machine against 1-3 ms for a 300 x 300 product on one thread, so
# exact_matmul cuts its products into row blocks of at most this size.
BLAS_MAX_WORK = 2**18


def exact_dtype(bound: int, work: int) -> type:
    """np.float64 for integer products that are exact and worth doing there, else np.int64.

    bound is at least every product of two entries and every partial sum of
    such products, in magnitude; work is the number of multiply-adds.
    float64 holds every integer of magnitude up to 2^53, so a float64 matrix
    product with bound < 2^53 is exact, in whatever order or blocking the
    BLAS sums it, with or without fused multiply-adds.  It is chosen when
    work is at least BLAS_MIN_WORK.
    """
    return np.float64 if bound < 2**53 and work >= BLAS_MIN_WORK else np.int64


def exact_matmul(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """a @ b for integer arrays of two or more axes, as int64, exact under the caller's bound.

    bound is at least every sum_j |a[..., i, j]| |b[..., j, l]|.  Where
    exact_dtype picks float64 the product runs as float64 BLAS, in
    blocks of rows of a of at most BLAS_MAX_WORK multiply-adds each (at
    least one row), written straight into the int64 result; an operand
    already in float64 is not copied.  Otherwise it is a @ b in the
    operands' own dtype, as exact as the caller's bound makes it.
    """
    if exact_dtype(bound, a.size * b.shape[-1]) is np.int64:
        return a @ b
    a = a.astype(np.float64, copy=False)
    b = b.astype(np.float64, copy=False)
    out = np.empty((*np.broadcast_shapes(a.shape[:-2], b.shape[:-2]), a.shape[-2], b.shape[-1]), dtype=np.int64)
    step = max(1, BLAS_MAX_WORK // (a.shape[-1] * b.shape[-1]))
    for s in range(0, a.shape[-2], step):
        out[..., s : s + step, :] = a[..., s : s + step, :] @ b
    return out
