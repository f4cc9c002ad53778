"""Independent checks for spectra and power closure.

Nothing here touches the character machinery: the adjacency matrix is built
literally from the definition, the floating backend feeds it to a dense
eigensolver, and the exact backend verifies a claimed spectrum against the
integer characteristic polynomial computed by fraction-free elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np

from .cyclotomic import CycInt, get_context
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


def _bareiss_det(mat: list[list[int]]) -> int:
    """Determinant over Z by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def integer_charpoly(adjacency: np.ndarray) -> tuple[int, ...]:
    """Exact characteristic polynomial of an integer matrix, low degree first.

    det(xI - A) is sampled at x = 0..n through Bareiss elimination and
    rebuilt by Newton interpolation; the result is monic with integer
    coefficients by construction.
    """
    n = int(adjacency.shape[0])
    base = [[int(x) for x in row] for row in adjacency]
    samples = []
    for t in range(n + 1):
        shifted = [
            [(t if i == j else 0) - base[i][j] for j in range(n)] for i in range(n)
        ]
        samples.append(_bareiss_det(shifted))
    # Newton form on nodes 0..n, then Horner-style expansion
    table = [[Fraction(s) for s in samples]]
    for level in range(1, n + 1):
        prev = table[-1]
        table.append([(prev[i + 1] - prev[i]) / level for i in range(len(prev) - 1)])
    poly = [table[n][0]]
    for level in range(n - 1, -1, -1):
        expanded = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            expanded[i + 1] += c
            expanded[i] -= c * level
        expanded[0] += table[level][0]
        poly = expanded
    out = []
    for c in poly:
        if c.denominator != 1:
            raise ValueError("interpolated characteristic polynomial is not integral")
        out.append(int(c))
    return tuple(out)


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
    Both sides live in the cyclotomic integers, so equality is exact and the
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
        num = CycInt(ctx, coeffs)
        for _ in range(mult):
            poly = _linear_mul(poly, den, num, ctx)
            scale *= den
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


def _linear_mul(poly: list[CycInt], den: int, num: CycInt, ctx) -> list[CycInt]:
    """Multiply a CycInt polynomial by (den*x - num)."""
    out = [ctx.zero] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] = out[i + 1] + c * den
        out[i] = out[i] - c * num
    return out


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
