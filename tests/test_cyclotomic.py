import cmath
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_spectra import (
    as_rational,
    conjugate,
    cyclotomic_polynomial,
    divide_exact,
    embed,
    galois_apply,
    get_context,
    is_fixed_by,
    reduce_raw,
    totient,
)
from cayley_spectra.cyclotomic import CycInt, _complex_parts, _power_basis
from cayley_spectra.errors import InternalConsistencyError


# independent oracle: compute cyclotomic polynomials by the recursive
# definition, rational long division of x^m - 1 by the product of Phi_d over
# the proper divisors d of m


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div(num, den):
    num = [Fraction(x) for x in num]
    den = [Fraction(x) for x in den]
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        out[shift] = factor
        for i, d in enumerate(den):
            num[shift + i] -= factor * d
        while num and num[-1] == 0:
            num.pop()
    assert not any(num), "division was not exact"
    return out


@lru_cache(maxsize=None)
def _oracle_phi(m):
    if m == 1:
        return [Fraction(-1), Fraction(1)]
    num = [Fraction(0)] * (m + 1)
    num[0], num[m] = Fraction(-1), Fraction(1)
    den = [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, _oracle_phi(d))
    return _poly_div(num, den)


@pytest.mark.parametrize("m", range(1, 301))
def test_cyclotomic_polynomial_against_division_oracle(m):
    expected = [int(c) for c in _oracle_phi(m)]
    assert list(cyclotomic_polynomial(m)) == expected
    assert len(expected) == totient(m) + 1


def test_cyclotomic_polynomial_frozen_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_reduction_of_eta_power_four_mod_sixth():
    # eta^4 = eta * eta^3 = -eta once x^2 = x - 1 is applied repeatedly
    ctx = get_context(6)
    raw = [0] * 6
    raw[4] = 1
    v = reduce_raw(raw, ctx)
    assert v.coeffs == (0, -1)
    want = cmath.exp(2j * cmath.pi * 4 / 6)
    assert abs(v.to_complex() - want) < 1e-12


def test_fifth_root_product_reduces_to_minus_one():
    ctx = get_context(5)
    a = reduce_raw([0, 1, 0, 0, 1], ctx)
    b = reduce_raw([0, 0, 1, 1, 0], ctx)
    assert (a * b).coeffs == (-1, 0, 0, 0)


def test_eta_times_inverse_is_one():
    ctx = get_context(6)
    assert (ctx.eta_power(1) * ctx.eta_power(5)).coeffs == ctx.one.coeffs


def _cyc(ctx):
    deg = len(ctx.phi) - 1
    coeff = st.integers(min_value=-9, max_value=9)
    return st.lists(coeff, min_size=deg, max_size=deg).map(
        lambda cs: reduce_raw(cs + [0] * (ctx.m - len(cs)), ctx)
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=24))
def test_ring_laws(data, m):
    ctx = get_context(m)
    a = data.draw(_cyc(ctx))
    b = data.draw(_cyc(ctx))
    c = data.draw(_cyc(ctx))
    assert (a + b).coeffs == (b + a).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert ((a + b) * c).coeffs == (a * c + b * c).coeffs
    assert (a - a).is_zero()
    assert (a * ctx.one).coeffs == a.coeffs


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=20))
def test_arithmetic_tracks_complex_embedding(data, m):
    ctx = get_context(m)
    a = data.draw(_cyc(ctx))
    b = data.draw(_cyc(ctx))
    assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-6
    assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=20))
def test_galois_action_composes(data, m):
    ctx = get_context(m)
    a = data.draw(_cyc(ctx))
    units = [t for t in range(1, m + 1) if _coprime(t, m)]
    s = data.draw(st.sampled_from(units))
    t = data.draw(st.sampled_from(units))
    assert galois_apply(s, galois_apply(t, a)).coeffs == galois_apply(s * t, a).coeffs
    assert galois_apply(1, a).coeffs == a.coeffs
    assert conjugate(conjugate(a)).coeffs == a.coeffs


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1


def test_galois_apply_requires_coprime_exponent():
    ctx = get_context(6)
    with pytest.raises(ValueError):
        galois_apply(2, ctx.eta_power(1))


def test_galois_apply_matches_numeric_substitution():
    ctx = get_context(7)
    a = reduce_raw([3, -1, 0, 2, 0, 0, 1], ctx)
    for t in (2, 3, 5):
        got = galois_apply(t, a).to_complex()
        eta_t = cmath.exp(2j * cmath.pi * t / 7)
        want = 3 - eta_t + 2 * eta_t**3 + eta_t**6
        assert abs(got - want) < 1e-9


def test_conjugate_is_sigma_minus_one():
    ctx = get_context(5)
    v = 2 * ctx.eta_power(1)
    assert conjugate(v).coeffs == (-2, -2, -2, -2)
    assert abs(conjugate(v).to_complex() - v.to_complex().conjugate()) < 1e-12


def test_as_rational():
    ctx = get_context(5)
    assert as_rational(ctx.from_int(7)) == 7
    assert as_rational(ctx.from_int(0)) == 0
    assert as_rational(ctx.eta_power(1)) is None
    # eta + eta^4 + eta^2 + eta^3 = -1
    s = ctx.zero
    for j in range(1, 5):
        s = s + ctx.eta_power(j)
    assert as_rational(s) == -1


def test_is_fixed_by_golden_ratio_combination():
    from cayley_spectra import subgroup_closure

    ctx = get_context(5)
    v = ctx.eta_power(1) + ctx.eta_power(4)
    assert is_fixed_by(v, subgroup_closure(5, (4,)))
    assert not is_fixed_by(v, subgroup_closure(5, (2,)))


def test_embed_into_larger_conductor():
    eta3 = get_context(3).eta_power(1)
    lifted = embed(eta3, 6)
    assert lifted.ctx.m == 6
    assert lifted.coeffs == (-1, 1)
    assert abs(lifted.to_complex() - eta3.to_complex()) < 1e-12
    with pytest.raises(ValueError):
        embed(eta3, 7)


def test_embed_preserves_rationals():
    v = get_context(1).from_int(5)
    assert as_rational(embed(v, 12)) == 5


def test_divide_exact():
    ctx = get_context(8)
    a = reduce_raw([2, -4, 6, 0, 0, 0, 0, 0], ctx)
    assert divide_exact(a, 2).coeffs == (1, -2, 3, 0)
    with pytest.raises(InternalConsistencyError):
        divide_exact(a, 4)


def test_context_mismatch_rejected():
    with pytest.raises(ValueError):
        get_context(4).eta_power(1) + get_context(6).eta_power(1)


def test_totient_values():
    assert [totient(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_str_rendering():
    ctx = get_context(6)
    assert str(ctx.zero) == "0"
    assert str(ctx.from_int(-3)) == "-3"
    assert str(ctx.one - ctx.eta_power(1)) == "1 - z"
    assert str(2 * ctx.eta_power(1)) == "2*z"


def test_power_basis_matches_eta_powers():
    # 105 is the least conductor whose cyclotomic polynomial has a coefficient -2
    for m in (1, 2, 3, 4, 12, 30, 105):
        ctx = get_context(m)
        expected = [list(ctx.eta_power(e).coeffs) for e in range(m)]
        assert _power_basis(m).tolist() == expected, m


def _power_basis_by_rows(m):
    """The power-basis table one row at a time: z^(e+1) = z z^e, with z^phi = -(Phi without its top)."""
    ctx = get_context(m)
    tail = np.array(ctx.phi[:-1], dtype=np.int64)
    out = np.zeros((m, ctx.degree), dtype=np.int64)
    cur = np.zeros(ctx.degree, dtype=np.int64)
    cur[0] = 1
    for e in range(m):
        out[e] = cur
        cur = np.concatenate(([0], cur[:-1])) - cur[-1] * tail
    return out


def test_power_basis_matches_a_row_at_a_time_reference():
    """Every conductor up to 420 (squarefree or not, odd or even) and 2520 = 12 * 210."""
    for m in [*range(1, 421), 2520]:
        basis = _power_basis(m)
        assert basis.dtype == np.int64 and not basis.flags.writeable, m
        assert np.array_equal(basis, _power_basis_by_rows(m)), m
        assert _power_basis(m) is basis, m


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=120))
def test_complex_parts_are_the_floats_of_to_complex(data, m):
    ctx = get_context(m)
    coeff = st.just(0) | st.integers(min_value=-(2**62), max_value=2**62)
    row = st.lists(coeff, min_size=ctx.degree, max_size=ctx.degree)
    rows = data.draw(st.lists(row, min_size=1, max_size=3))
    re, im = _complex_parts(np.array(rows, dtype=np.int64), m)
    for i, r in enumerate(rows):
        v = CycInt(ctx, tuple(r)).to_complex()
        assert (re[i], im[i]) == (v.real, v.imag), (m, r)
