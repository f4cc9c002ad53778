"""Independent checks for spectra and power closure.

Nothing here touches the character machinery, apart from the prime-field
Hessenberg routine in _modp: the adjacency matrix is built literally from the
definition, the floating backend feeds it to a dense eigensolver, and the
exact backend verifies a claimed spectrum against the integer characteristic
polynomial, computed mod several primes and joined by the Chinese remainder
theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from typing import Iterable, Optional, Sequence

import numpy as np

from . import _modp
from .cyclotomic import CycInt, get_context, reduce_raw
from .group_core import Group
from .spectra import Spectrum

DEFAULT_ORACLE_CAP = 400

__all__ = [
    "DEFAULT_ORACLE_CAP",
    "ExactSpectrumReport",
    "SpectrumComparison",
    "adjacency_matrix",
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

    Writing each claimed eigenvalue as num/den, the product of the linear
    factors (den*x - num), with claimed multiplicities, must equal the
    characteristic polynomial scaled by the product of the denominators.
    Equal eigenvalues are grouped, and each distinct one contributes the
    single factor (den*x - num)^mu, expanded by the binomial theorem.  Both
    sides live in the cyclotomic integers, so equality is exact and the
    check also pins total multiplicity and every trace identity at once.
    """
    if charpoly is None:
        charpoly = integer_charpoly(adjacency)
    groups: dict[tuple[int, tuple[int, ...]], int] = {}
    m = sp.entries[0].value.numerator.ctx.m if sp.entries else 1
    ctx = get_context(m)
    for e in sp.entries:
        num, den = _canonical_value(e.value.numerator, e.value.denominator)
        key = (den, num.coeffs)
        groups[key] = groups.get(key, 0) + e.multiplicity

    poly: list[CycInt] = [ctx.one]
    scale = 1
    for (den, coeffs), mult in sorted(groups.items()):
        poly = _poly_product(poly, _binomial_power(den, CycInt(ctx, coeffs), mult))
        scale *= den**mult
    if len(poly) != len(charpoly):
        return ExactSpectrumReport(passed=False, degree=len(poly) - 1, mismatch_power=None)
    for i, c in enumerate(charpoly):
        if poly[i] != ctx.from_int(int(c) * scale):
            return ExactSpectrumReport(passed=False, degree=len(poly) - 1, mismatch_power=i)
    return ExactSpectrumReport(passed=True, degree=len(poly) - 1)


def _canonical_value(num: CycInt, den: int) -> tuple[CycInt, int]:
    g = den
    for c in num.coeffs:
        g = gcd(g, c)
        if g == 1:
            break
    g = max(g, 1)
    return CycInt(num.ctx, tuple(c // g for c in num.coeffs)), den // g


def _binomial_power(den: int, num: CycInt, mult: int) -> list[CycInt]:
    """Coefficients of (den*x - num)^mult, low degree first."""
    powers = [num.ctx.one]  # (-num)^i
    for _ in range(mult):
        powers.append(powers[-1] * -num)
    return [powers[mult - j] * (comb(mult, j) * den**j) for j in range(mult + 1)]


def _poly_product(a: list[CycInt], b: list[CycInt]) -> list[CycInt]:
    """Product of CycInt polynomials, summed unreduced and reduced once per coefficient."""
    ctx = a[0].ctx
    terms = [[(t, c) for t, c in enumerate(y.coeffs) if c] for y in b]
    raw = [[0] * (2 * ctx.degree - 1) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for s, c in enumerate(x.coeffs):
            if c:
                for j, ys in enumerate(terms):
                    acc = raw[i + j]
                    for t, d in ys:
                        acc[s + t] += c * d
    return [reduce_raw(r, ctx) for r in raw]


@dataclass(frozen=True)
class SpectrumComparison:
    size: int
    max_distance: float
    tolerance: float
    passed: bool
    worst_index: Optional[int]


def compare_spectra(sp: Spectrum, numeric: Sequence[complex], tolerance: float = 1e-8) -> SpectrumComparison:
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
