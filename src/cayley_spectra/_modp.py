"""Prime choosers, roots of unity and characteristic polynomials over prime fields.

charpoly works on lists of lists of Python ints: it serves both
integer_charpoly (one matrix up to the oracle caps, mod 31-bit primes) and
the character table's eigenspace split (restricted class matrices mod the
Dixon prime).  The split's other steps are int64 array routines in
characters.  charpoly_stack is the same Hessenberg reduction run on an
(S, n, n) int64 stack at once, one column step for all S matrices, each
mod its own prime; the batched exact oracle stacks a chunk of a sweep's
adjacency matrices once per certificate prime and reduces them in one
pass, so numpy's per-call cost is paid once per chunk, not once per prime.
_certificate_primes and _ring_maps serve every check that evaluates
cyclotomic integers under the ring maps z -> w^u into F_q, q = 1 (mod m):
the table certificate, at u = 1 and -1, and the batched exact oracle, at
every unit u.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import isqrt

import numpy as np

from .errors import InternalConsistencyError


def _is_prime(x: int) -> bool:
    """Deterministic Miller-Rabin; these bases are exact below 3.3e24."""
    if x < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
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


def _certificate_primes(m: int, bound: int, width: int) -> list[int]:
    """Distinct primes q = 1 (mod m) with width * q^2 < 2^63, whose product exceeds bound.

    They are taken downward from the largest admissible q, so one prime
    serves any bound below about 2^63 / width.
    """
    return _descending_primes(isqrt((2**63 - 1) // width), m, bound)


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


def _ring_maps(m: int, phi: int, q: int, units) -> np.ndarray:
    """(phi, len(units)) matrix taking coefficient rows into F_q by z -> w^u for each u in units.

    Row e holds w^(e u) mod q, w = _element_of_order(m, q), q = 1 (mod m).
    """
    w = _element_of_order(m, q)
    powers = np.array([pow(w, e, q) for e in range(m)], dtype=np.int64)
    return powers[np.outer(np.arange(phi), units) % m]


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


def charpoly_stack(mats: np.ndarray, q: int | np.ndarray) -> np.ndarray:
    """Characteristic polynomials of an (S, n, n) stack, low degree first, shape (S, n + 1).

    Matrix s is reduced mod q[s]: q is one prime for the whole stack or an
    (S,) array of primes, so the matrices of several primes share one pass.
    Column j of every matrix is cleared below its subdiagonal by one
    similarity step for the whole stack: a row and column swap brings the
    first nonzero entry to the pivot, the rows below lose multiples of the
    pivot row and the pivot column gains the matching multiples of their
    columns, which is L H L^-1 for a unit lower triangular L.  The pivots'
    inverses are Python's pow(x, -1, q), one per matrix and column.
    det(xI - H) of the Hessenberg result H is then expanded along the last
    column, for the leading blocks of every size, as charpoly does for one
    matrix.

    Every int64 value stays below (n + 1) q^2: residues are below q, a row
    update takes one product, and a column update or a term of the
    expansion sums at most n products of two residues.  The stack is
    refused unless (n + 1) (q - 1)^2 < 2^63 for its largest q.
    """
    batch, n = mats.shape[0], mats.shape[1]
    moduli = np.broadcast_to(np.asarray(q, dtype=np.int64), (batch,))
    if batch and (n + 1) * (int(moduli.max()) - 1) ** 2 >= 2**63:
        raise ValueError(f"charpoly of order {n} mod {int(moduli.max())} would overflow int64")
    q2, q1 = moduli[:, None, None], moduli[:, None]
    primes = moduli.tolist()
    h = np.array(mats, dtype=np.int64)
    h %= q2
    rows = np.arange(batch)
    for j in range(n - 2):
        below = h[:, j + 1 :, j] != 0
        pivot = j + 1 + below.argmax(axis=1)
        moved = rows[pivot != j + 1]
        if len(moved):
            p = pivot[moved]
            h[moved, j + 1], h[moved, p] = h[moved, p], h[moved, j + 1]
            h[moved, :, j + 1], h[moved, :, p] = h[moved, :, p], h[moved, :, j + 1]
        # a zero pivot gets the "inverse" 0, and its column is zero below anyway
        inverse = [pow(x, -1, p) if x else 0 for x, p in zip(h[:, j + 1, j].tolist(), primes)]
        f = h[:, j + 2 :, j] * np.array(inverse, dtype=np.int64)[:, None] % q1
        block = h[:, j + 2 :, j:]
        block -= f[:, :, None] * h[:, j + 1, None, j:]
        block %= q2
        h[:, :, j + 1] = (h[:, :, j + 1] + np.einsum("sri,si->sr", h[:, :, j + 2 :], f)) % q1
    # polys[:, i] is det(xI - H_i) of the leading i x i block; w[:, i] is
    # the product of the subdiagonal entries h[l, l - 1] for i < l < size
    polys = np.zeros((batch, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    w = np.zeros((batch, n), dtype=np.int64)
    for size in range(1, n + 1):
        prev = polys[:, size - 1]
        cur = np.zeros_like(prev)
        cur[:, 1:] = prev[:, :-1]
        cur -= h[:, size - 1, size - 1, None] * prev
        if size > 1:
            sub = h[:, size - 1, size - 2]
            w[:, : size - 2] = w[:, : size - 2] * sub[:, None] % q1
            w[:, size - 2] = sub
            coef = h[:, : size - 1, size - 1] * w[:, : size - 1] % q1
            cur -= np.einsum("si,sij->sj", coef, polys[:, : size - 1])
        polys[:, size] = cur % q1
    return polys[:, n]
