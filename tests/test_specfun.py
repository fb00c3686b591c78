"""Bessel J and associated Laguerre against independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from pdm_polar import BesselOrder, bessel_j, laguerre_assoc


# ---------------------------------------------------------------------------
# Bessel J


def _series_oracle_fraction(n, x_frac, terms=40):
    """J_n at a rational point via exact Fraction arithmetic."""
    half = x_frac / 2
    total = Fraction(0)
    for k in range(terms):
        num = (-1) ** k * half ** (2 * k + n)
        den = math.factorial(k) * math.factorial(k + n)
        total += Fraction(num, den)
    return float(total)


def test_bessel_order_type():
    assert BesselOrder.from_value(0.5).twice_order == 1
    assert BesselOrder.from_value(3).twice_order == 6
    assert BesselOrder(4).value == 2.0
    with pytest.raises(ValueError):
        BesselOrder.from_value(0.3)
    with pytest.raises(ValueError):
        BesselOrder(-1)


def test_bessel_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(0.5, 0.0) == 0.0


def test_bessel_rejects_negative_argument():
    with pytest.raises(ValueError):
        bessel_j(0, -1.0)


@pytest.mark.parametrize("nu, x", [(0, 2e4), (0.5, math.nan), (20000, 3.0)])
def test_bessel_rejects_arguments_past_the_cap(nu, x):
    # the recurrence's cost grows with max(nu, x), without bound for x = 1e300
    with pytest.raises(ValueError):
        bessel_j(nu, x)


def test_bessel_j1_at_2_vs_fraction_series():
    expected = _series_oracle_fraction(1, Fraction(2))
    assert abs(bessel_j(1, 2.0) - expected) < 1e-12


def test_bessel_j0_vs_fraction_series():
    expected = _series_oracle_fraction(0, Fraction(3, 2))
    assert abs(bessel_j(0, 1.5) - expected) < 1e-12


def test_bessel_integer_vs_fraction_series_after_cutoff():
    # exercises the downward-recurrence branch (x > series cutoff)
    for n, x in ((0, Fraction(12)), (3, Fraction(25, 2)), (5, Fraction(15))):
        expected = _series_oracle_fraction(n, x, terms=80)
        assert abs(bessel_j(n, float(x)) - expected) < 1e-11


def test_half_integer_closed_form():
    for x in np.linspace(0.1, 30.0, 431):
        expected = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert abs(bessel_j(0.5, x) - expected) <= 1e-12


def test_half_integer_3_2_closed_form():
    for x in np.linspace(0.3, 25.0, 149):
        expected = math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
        assert abs(bessel_j(1.5, x) - expected) <= 1e-11


@pytest.mark.parametrize("x", [1e3, 5e3, 1e4])
def test_half_integer_closed_forms_at_large_argument(x):
    # Miller's spherical chain starts above x here, so its normalization sum
    # runs over about x / 2 Legendre-at-zero coefficients
    scale = math.sqrt(2.0 / (math.pi * x))
    assert abs(bessel_j(0.5, x) - scale * math.sin(x)) <= 1e-12
    assert abs(bessel_j(1.5, x) - scale * (math.sin(x) / x - math.cos(x))) <= 1e-12


@pytest.mark.parametrize("nu", [170.5, 171, 200, 1000, 1e4])
@pytest.mark.parametrize("x", [1e-300, 0.5, 2.0])
def test_bessel_large_order_is_finite_on_the_series_branch(nu, x):
    # (x/2)^nu / gamma(nu + 1) underflows here, and gamma(nu + 1) alone
    # overflows past nu = 170
    mpmath = pytest.importorskip("mpmath")
    value = bessel_j(nu, x)
    assert math.isfinite(value)
    assert abs(value - float(mpmath.besselj(nu, x))) <= 1e-300


def test_bessel_series_is_accurate_to_a_few_ulp():
    mpmath = pytest.importorskip("mpmath")
    xs = [1e-300, 1e-20, 1e-3, *np.linspace(0.05, 2.0, 40)]
    with mpmath.workdps(30):
        for twice_order in range(41):
            for x in xs:
                ref = mpmath.besselj(mpmath.mpf(twice_order) / 2, x)
                if abs(ref) <= 1e-290:
                    continue
                rel = abs((bessel_j(twice_order / 2, x) - ref) / ref)
                assert rel <= 2e-15, (twice_order / 2, x, float(rel))


def test_j_half_at_pi_is_zero():
    assert abs(bessel_j(Fraction(1, 2), math.pi)) <= 1e-12


def test_bessel_recurrence_residual():
    for nu in range(6):
        for x in np.linspace(0.5, 30.0, 60):
            lhs = bessel_j(nu - 1, x) if nu >= 1 else -bessel_j(1, x)
            residual = lhs + bessel_j(nu + 1, x) - (2.0 * nu / x) * bessel_j(nu, x)
            assert abs(residual) <= 1e-9


def test_bessel_ode_residual():
    # normalized form J'' + J'/x + (1 - nu^2/x^2) J = 0 by central differences
    h = 1e-3
    for nu in (0, 1, 2, 0.5, 1.5):
        for x in np.linspace(1.0, 20.0, 25):
            jm, j0, jp = bessel_j(nu, x - h), bessel_j(nu, x), bessel_j(nu, x + h)
            d2 = (jp - 2.0 * j0 + jm) / h**2
            d1 = (jp - jm) / (2.0 * h)
            residual = d2 + d1 / x + (1.0 - nu**2 / x**2) * j0
            assert abs(residual) <= 1e-6


# ---------------------------------------------------------------------------
# associated Laguerre


def test_laguerre_degree_zero_and_one():
    assert laguerre_assoc(0, 0.7, 3.3) == 1.0
    assert laguerre_assoc(1, 0.7, 3.3) == 1.0 + 0.7 - 3.3


def test_laguerre_degree_three_hand_expansion():
    alpha, x = Fraction(1, 2), Fraction(6, 5)
    expected = (
        (alpha + 1) * (alpha + 2) * (alpha + 3) / 6
        - (alpha + 2) * (alpha + 3) / 2 * x
        + (alpha + 3) / 2 * x**2
        - x**3 / 6
    )
    assert abs(laguerre_assoc(3, 0.5, 1.2) - float(expected)) < 1e-13


def test_laguerre_validation():
    with pytest.raises(ValueError):
        laguerre_assoc(-1, 0.0, 1.0)
    with pytest.raises(ValueError):
        laguerre_assoc(2, -1.5, 1.0)


def test_laguerre_orthogonality_alpha_zero():
    # integral_0^inf e^-x L_n L_m dx = delta_nm, Gauss-Laguerre exact for polynomials
    nodes, weights = np.polynomial.laguerre.laggauss(30)
    for n in range(5):
        norm = math.gamma(n + 1.0) / math.factorial(n)
        for m in range(5):
            val = sum(
                w * laguerre_assoc(n, 0.0, t) * laguerre_assoc(m, 0.0, t)
                for t, w in zip(nodes, weights)
            )
            expected = norm if n == m else 0.0
            assert abs(val - expected) <= 1e-8 * max(1.0, norm)


def test_laguerre_orthogonality_alpha_half():
    # substitute x = t^2: integral becomes a full-line Gauss-Hermite form,
    # exact because the integrand is a polynomial times exp(-t^2)
    nodes, weights = np.polynomial.hermite.hermgauss(48)
    alpha = 0.5
    for n in range(5):
        norm = math.gamma(n + alpha + 1.0) / math.factorial(n)
        for m in range(5):
            val = sum(
                w * t * t * laguerre_assoc(n, alpha, t * t) * laguerre_assoc(m, alpha, t * t)
                for t, w in zip(nodes, weights)
            )
            expected = norm if n == m else 0.0
            assert abs(val - expected) <= 1e-8 * max(1.0, norm)
