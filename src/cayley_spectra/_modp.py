"""Small dense linear algebra over a prime field, list-of-lists style."""

from __future__ import annotations

from functools import lru_cache
from itertools import count

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


def mat_mul(a, b, p):
    n, mid, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(mid):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] = (oi[j] + c * bt[j]) % p
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def rref(rows, p):
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    rows = [[x % p for x in r] for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace(mat, p):
    """Canonical basis rows of {x : mat . x = 0} over F_p."""
    ncols = len(mat[0])
    red, pivots = rref(mat, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-red[i][free]) % p
        basis.append(v)
    return basis


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


def poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def poly_roots(coeffs, p):
    """All roots in F_p by exhaustive scan, ascending."""
    return [x for x in range(p) if poly_eval(coeffs, x, p) == 0]
