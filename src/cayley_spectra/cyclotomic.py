"""Exact arithmetic with cyclotomic integers.

Elements of Z[z], z a primitive m-th root of unity, are stored on the power
basis {z^0, ..., z^(phi(m)-1)} after reduction modulo the m-th cyclotomic
polynomial.  Coefficients are arbitrary-precision Python integers, so
equality, zero tests and rationality tests are plain tuple comparisons.
Arrays of coefficient rows, the other modules' int64 form, are read through
_power_basis (z^e), _galois_matrix (z -> z^t) and _complex_parts (floats).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np

from ._modp import _prime_factors
from .errors import InternalConsistencyError

__all__ = [
    "CycContext",
    "CycInt",
    "as_rational",
    "conjugate",
    "cyclotomic_polynomial",
    "divide_exact",
    "embed",
    "galois_apply",
    "get_context",
    "is_fixed_by",
    "reduce_raw",
    "totient",
]


def totient(m: int) -> int:
    """Euler's totient of m >= 1."""
    return sum(1 for t in range(1, m + 1) if gcd(t, m) == 1)


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _times_binomial(poly: list[int], d: int) -> list[int]:
    """poly (x^d - 1)."""
    return [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]


def _over_binomial(poly: list[int], d: int) -> list[int]:
    """poly / (x^d - 1), which must divide it: poly = q (x^d - 1) gives q_j = q_(j-d) - poly_j."""
    q = [0] * (len(poly) - d)
    for j in range(len(q)):
        q[j] = (q[j - d] if j >= d else 0) - poly[j]
    if _times_binomial(q, d) != poly:
        raise InternalConsistencyError(f"x^{d}-1 does not divide a cyclotomic product")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first.

    With rad the product of the distinct primes of m, Phi_m(x) =
    Phi_rad(x^(m/rad)), and Phi_rad = prod_{d | rad} (x^d - 1)^mu(rad/d) by
    Moebius inversion of x^n - 1 = prod_{d | n} Phi_d.  The factors of
    exponent 1 are multiplied in first, so each division by a factor of
    exponent -1 is exact.  Always monic of degree phi(m).
    """
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    primes = _prime_factors(m)
    divisors = [(1, (-1) ** len(primes))]  # (d, mu(rad / d)) for each divisor d of rad
    for q in primes:
        divisors += [(d * q, -mu) for d, mu in divisors]
    poly = [1]
    for d, mu in divisors:
        if mu == 1:
            poly = _times_binomial(poly, d)
    for d, mu in divisors:
        if mu == -1:
            poly = _over_binomial(poly, d)
    stride = m // divisors[-1][0]
    spread = [0] * ((len(poly) - 1) * stride + 1)
    spread[::stride] = poly
    return tuple(spread)


@dataclass(frozen=True)
class CycContext:
    """Fixed conductor m together with the reduction polynomial."""

    m: int
    phi: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.phi) - 1

    @property
    def zero(self) -> "CycInt":
        return CycInt(self, (0,) * self.degree)

    @property
    def one(self) -> "CycInt":
        return self.from_int(1)

    @property
    def eta(self) -> "CycInt":
        """The chosen primitive m-th root of unity (exponent 1)."""
        return self.eta_power(1)

    def from_int(self, c: int) -> "CycInt":
        return CycInt(self, (c,) + (0,) * (self.degree - 1))

    def eta_power(self, j: int) -> "CycInt":
        raw = [0] * self.m
        raw[j % self.m] = 1
        return reduce_raw(raw, self)


@lru_cache(maxsize=None)
def get_context(m: int) -> CycContext:
    """Context for conductor m (cached; contexts compare by value)."""
    return CycContext(m, cyclotomic_polynomial(m))


def _reduce_list(coeffs: Iterable[int], ctx: CycContext) -> tuple[int, ...]:
    deg = ctx.degree
    r = list(coeffs)
    if len(r) < deg:
        r += [0] * (deg - len(r))
    phi = ctx.phi
    for i in range(len(r) - 1, deg - 1, -1):
        c = r[i]
        if c:
            r[i] = 0
            off = i - deg
            for j in range(deg):
                r[off + j] -= c * phi[j]
    return tuple(r[:deg])


def reduce_raw(raw: Sequence[int], ctx: CycContext) -> "CycInt":
    """Reduce an integer vector on exponents 0, 1, ... (any length) to canonical form."""
    return CycInt(ctx, _reduce_list(raw, ctx))


@dataclass(frozen=True)
class CycInt:
    """A cyclotomic integer in canonical reduced form."""

    ctx: CycContext
    coeffs: tuple[int, ...]

    def _same(self, other: "CycInt") -> None:
        if self.ctx.m != other.ctx.m:
            raise ValueError(
                f"context mismatch: conductor {self.ctx.m} vs {other.ctx.m}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        if not isinstance(other, CycInt):
            return NotImplemented
        self._same(other)
        return CycInt(self.ctx, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        if not isinstance(other, CycInt):
            return NotImplemented
        self._same(other)
        return CycInt(self.ctx, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        if isinstance(other, int):
            return self.ctx.from_int(other) - self
        return NotImplemented

    def __neg__(self):
        return CycInt(self.ctx, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.ctx, tuple(a * other for a in self.coeffs))
        if not isinstance(other, CycInt):
            return NotImplemented
        self._same(other)
        return CycInt(self.ctx, _reduce_list(_poly_mul(self.coeffs, other.coeffs), self.ctx))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def to_complex(self) -> complex:
        m = self.ctx.m
        return sum(
            c * cmath.exp(2j * cmath.pi * j / m) for j, c in enumerate(self.coeffs) if c
        ) + 0j

    def __str__(self) -> str:
        return _poly_str(self.coeffs, "z")


@lru_cache(maxsize=2)
def _power_basis(m: int) -> np.ndarray:
    """Row e holds the reduced power-basis coefficients of z^e, e < m (cached, read-only)."""
    ctx = get_context(m)
    tail = np.array(ctx.phi[:-1], dtype=np.int64)
    out = np.zeros((m, ctx.degree), dtype=np.int64)
    cur = np.zeros(ctx.degree, dtype=np.int64)
    cur[0] = 1
    for e in range(m):
        out[e] = cur
        top = cur[-1]
        cur = np.concatenate(([0], cur[:-1])) - top * tail  # z^deg = -(phi without its top)
    out.flags.writeable = False
    return out


def _galois_matrix(m: int, t) -> np.ndarray:
    """sigma_t, the phi x phi matrix of z -> z^t on coefficient rows: row e holds z^(e t).

    For an int array t it is the stack of sigma_t, shape (*t.shape, phi, phi).
    """
    basis = _power_basis(m)
    return basis[np.asarray(t)[..., None] * np.arange(basis.shape[1]) % m]


def _complex_parts(coeffs: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the values whose coefficient rows, at conductor m, are coeffs[..., :].

    The terms are summed in exponent order, as CycInt.to_complex sums them,
    so each value gets the same floats as to_complex gives it.
    """
    re = np.zeros(coeffs.shape[:-1])
    im = np.zeros(coeffs.shape[:-1])
    for e in range(coeffs.shape[-1]):
        z = cmath.exp(2j * cmath.pi * e / m)
        c = coeffs[..., e].astype(np.float64)
        re = re + c * z.real
        im = im + c * z.imag
    return re, im


def _poly_str(coeffs: Sequence[int], symbol: str) -> str:
    """Power-basis coefficients as a polynomial in symbol, e.g. "1 - 2*z^3"."""
    parts: list[str] = []
    for j, c in enumerate(coeffs):
        if not c:
            continue
        if j == 0:
            body = f"{abs(c)}"
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            body = mag + (symbol if j == 1 else f"{symbol}^{j}")
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def galois_apply(t: int, a: CycInt) -> CycInt:
    """Apply the field automorphism sending z to z^t (t coprime to m)."""
    m = a.ctx.m
    if gcd(t, m) != 1:
        raise ValueError(f"exponent {t} not coprime to conductor {m}")
    raw = [0] * m
    for j, c in enumerate(a.coeffs):
        if c:
            raw[(j * t) % m] += c
    return reduce_raw(raw, a.ctx)


def conjugate(a: CycInt) -> CycInt:
    """Complex conjugation, i.e. the automorphism z -> z^(-1)."""
    return galois_apply(-1, a)


def as_rational(a: CycInt) -> Optional[int]:
    """The integer a equals, or None if a is irrational.

    On the power basis an element is rational exactly when every
    coefficient above the constant one vanishes.
    """
    if any(a.coeffs[1:]):
        return None
    return a.coeffs[0]


def is_fixed_by(a: CycInt, gamma) -> bool:
    """Whether a is fixed by every generator of the unit subgroup gamma.

    Generators suffice since the fixed set of an automorphism group equals
    the fixed set of any generating set.
    """
    return all(galois_apply(t, a) == a for t in gamma.generators)


def embed(a: CycInt, m: int) -> CycInt:
    """Re-express a at a larger conductor m (the old conductor must divide m)."""
    o = a.ctx.m
    if m % o != 0:
        raise ValueError(f"conductor {o} does not divide target {m}")
    scale = m // o
    ctx = get_context(m)
    raw = [0] * m
    for j, c in enumerate(a.coeffs):
        if c:
            raw[j * scale] += c
    return reduce_raw(raw, ctx)


def divide_exact(a: CycInt, c: int) -> CycInt:
    """Divide every coefficient by c, which must divide all of them."""
    if c == 0:
        raise ValueError("division by zero")
    if any(x % c for x in a.coeffs):
        raise InternalConsistencyError(f"coefficients {a.coeffs} not divisible by {c}")
    return CycInt(a.ctx, tuple(x // c for x in a.coeffs))
