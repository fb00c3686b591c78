"""Independent references for every value the benchmark checks.

Nothing here calls pdm_polar.  Closed forms are evaluated from the model
parameters with mpmath or exact rationals:

* radial levels: the oscillator's own ``d`` and the Coulomb operator's own
  ``-1/(n_rho + ell + 1/2)^2`` (Whittaker reduction of
  ``-U'' + [(ell^2 - 1/4)/rho^2 - 2/rho] U``), not the paper's ``n_rho+ell+1``;
* Bessel functions: ``mpmath.besselj``;
* the arclength map of an analytic profile: ``mpmath.quad`` of ``sqrt(f)``;
* the zero-potential angular line: ``E = m^2/2`` at ``lambda = -3/4`` under
  the gate ordering, where the lambda root for ``E = 1/2`` is ``-3/4``.

A value *passes* when its relative error is within the tolerance of its
kind.  A miss is attributed to a documented defect class when a physical
criterion computed here explains it; the benchmark counts such misses in
``ok_frac`` but not as failed operations.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 20

# Relative tolerances, one per kind of checked value.
TOL_LEVEL = 1e-5        # radial levels: converged to 1e-5 or better
TOL_LAMBDA = 1e-5       # scan root: lambda_tol 1e-6 of the bisection on |-3/4|
TOL_ANGULAR = 1e-5      # ring levels m^2/2 at n >= 2050: FD error <= 3.2e-6 for m <= 2
TOL_BESSEL_ABS = 1e-10  # documented absolute accuracy of bessel_j for x <= 50
TOL_PROFILE = 1e-4      # tabulated profiles: linear interpolation, >= 512 samples, k <= 3
TOL_EXACT = 1e-12       # closed-form arithmetic
TOL_RADIAL_WF = 1e-4    # numeric radial eigenvector against the exact one, per max |R|

# Documented defect classes a miss can be attributed to.
DEFECT_TRUNCATION = "coulomb-default-domain-truncation"
DEFECT_LOW_ELL = "low-ell-convergence"
LOW_ELL = 1.0
TAIL_MASS_FLOOR = 1e-10


def rel_err(value, ref, floor: float = 0.0) -> float:
    """|value - ref| / max(|ref|, floor); inf when the value is missing."""
    if value is None:
        return math.inf
    scale = max(abs(ref), floor)
    return abs(value - ref) / scale if scale > 0 else abs(value - ref)


# ---------------------------------------------------------------------------
# radial levels


def coulomb_level(ell: float, n_rho: int) -> float:
    return -1.0 / (n_rho + ell + 0.5) ** 2


def coulomb_tail_mass(ell: float, n_rho: int, rho_max: float) -> float:
    """Share of |U|^2 beyond rho_max for the exact Coulomb-like eigenfunction.

    U = rho^(ell+1/2) exp(-rho/nu) L_n^(2 ell)(2 rho/nu), nu = n_rho + ell + 1/2,
    with the Laguerre polynomial from its three-term recurrence and the
    integrals by the trapezoid rule on a mesh far finer than the decay length.
    """
    nu = n_rho + ell + 0.5
    r = np.linspace(0.0, rho_max + 80.0 * nu, 400001)
    x = 2.0 * r / nu
    alpha = 2.0 * ell
    prev, poly = np.ones_like(x), 1.0 + alpha - x
    if n_rho == 0:
        poly = prev
    for k in range(1, n_rho):
        prev, poly = poly, ((2 * k + 1 + alpha - x) * poly - (k + alpha) * prev) / (k + 1)
    density = (r ** (ell + 0.5) * np.exp(-r / nu) * poly) ** 2
    cells = 0.5 * (density[1:] + density[:-1])
    return float(np.sum(cells[r[:-1] >= rho_max]) / np.sum(cells))


def classify_radial_miss(family: str, ell: float, n_rho: int, numeric: float, ref: float,
                         rho_max: float) -> str | None:
    """The documented defect that explains a missed radial level, if any.

    * low ell: for ell < 1 the solution ~ rho^(ell+1/2) is not smooth enough
      at the origin for the h^2 Richardson step (errors 1e-5 to 1e-1);
    * Coulomb truncation: the wall at the default rho_max cuts off a
      measurable share of the exact eigenfunction, which raises the level.
    """
    if ell < LOW_ELL:
        return DEFECT_LOW_ELL
    if family == "coulomb" and numeric > ref and coulomb_tail_mass(ell, n_rho, rho_max) > TAIL_MASS_FLOOR:
        return DEFECT_TRUNCATION
    return None


def oscillator_u(a: float, ell: float, n_rho: int):
    """Normalized exact U(rho) of -U'' + [(ell^2-1/4)/rho^2 + a^2 rho^2/4] U = d U."""
    def raw(r):
        s = a * r * r / 2
        return r ** (ell + 0.5) * mpmath.exp(-s / 2) * mpmath.laguerre(n_rho, ell, s)

    norm = mpmath.sqrt(mpmath.quad(lambda r: raw(r) ** 2, [0, 1 / math.sqrt(a), 4 / math.sqrt(a), mpmath.inf]))
    return lambda r: float(raw(r) / norm)


# ---------------------------------------------------------------------------
# special functions and profiles


@functools.lru_cache(maxsize=None)
def bessel(nu: float, x: float) -> float:
    return float(mpmath.besselj(nu, x))


class CosineProfile:
    """Analytic f(phi) = 1 + eps cos(k phi), reflection symmetric about 0."""

    def __init__(self, eps: float, k: int):
        self.eps = eps
        self.k = k
        self._cache = {}

    def f(self, phi):
        return 1 + self.eps * mpmath.cos(self.k * phi)

    def q(self, phi: float) -> float:
        """Arclength q(phi) = integral_0^phi sqrt(f) by mpmath.quad."""
        if phi not in self._cache:
            period = 2 * mpmath.pi / self.k
            nodes = [0] + [period * j / 2 for j in range(1, int(2 * phi / float(period)) + 1)] + [phi]
            nodes = sorted(set(nodes))
            self._cache[phi] = float(mpmath.quad(lambda s: mpmath.sqrt(self.f(s)), nodes))
        return self._cache[phi]

    def circumference(self) -> float:
        return self.q(2 * math.pi)


def w_eff_cos2(alpha: float, beta: float, gamma: float, lam: float, q: float) -> float:
    """Expanded W_eff of f = cos^2 phi at phi = asin q, with analytic derivatives."""
    phi = mpmath.asin(q)
    f = mpmath.cos(phi) ** 2
    fp = -mpmath.sin(2 * phi)
    fpp = -2 * mpmath.cos(2 * phi)
    xi = alpha * (alpha - 1) + gamma * (gamma - 1) - beta * (beta + 1)
    s = alpha + gamma
    return float(fp ** 2 / (32 * f ** 3) * (7 - 8 * xi) - fpp / (8 * f ** 2) * (1 + 2 * s)
                 - (xi + s + lam / 2) / f)


# ---------------------------------------------------------------------------
# closed-form spectra in exact arithmetic


def exact_bracket(alpha: Fraction, beta: Fraction, gamma: Fraction) -> Fraction:
    return alpha * alpha + gamma * gamma - beta * (beta + 1)


def oscillator_energy(triple, a: float, d: float, n_rho: int, m: int) -> float:
    t = Fraction(d) / Fraction(a) - 2 * n_rho - 1
    return float(Fraction(1, 2) * (m * m - t * t + 1) - exact_bracket(*triple))


def flat_energy(triple, m: int, lam: float) -> float:
    return float(Fraction(1, 2) * (m * m - Fraction(lam)) - exact_bracket(*triple))


def radial_veff(kind: str, params: dict, lam: float, rho: float) -> float:
    """(3/4 + lambda)/rho^2 + 2 v(rho)/rho^2 for the schema's potentials."""
    r = mpmath.mpf(rho)
    if kind == "coulomb_like":
        v = params["omega"] ** 2 * r ** 2 / 2 - r
    elif kind == "oscillator_like":
        v = params["a"] ** 2 * r ** 4 / 8 - params["d"] * r ** 2 / 2
    else:
        v = -params["v0"] * r ** (2 * params["k"]) / 2
    return float((mpmath.mpf(0.75) + lam) / r ** 2 + 2 * v / r ** 2)
