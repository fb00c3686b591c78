"""Separable mass/potential models and the two reduced 1D problems.

The mass is M(rho, phi) = f(phi) / rho^2 and the interaction is
V(rho, phi) = v(rho) / f(phi); only this combination separates.  The radial
factor reduces, after R = rho^(-3/2) U, to

    -U'' + [ (3/4 + lambda)/rho^2 + 2 v(rho)/rho^2 ] U = 0,

and the angular factor, after the point canonical transformation
q'(phi) = sqrt(f) with Phi = f^(1/4) chi(q), to

    -(1/2) chi''(q) + W_eff(q) chi(q) = E chi(q).

The expanded form of W_eff implemented here is

    W_eff = (f')^2/(32 f^3) (7 - 8 xi) - f''/(8 f^2) (1 + 2(alpha+gamma))
            - (xi + alpha + gamma + lambda/2) / f.

For f = cos^2 phi this collapses to (z1 q^2 - z2)/(1 - q^2)^2 in q = sin phi
with z1 = 3/8 + lambda/2 and z2 = lambda/2 - 1/4 + c27(ordering), the two
coefficients returned by :func:`zeta_coefficients`.

The Coulomb-like and oscillator-like potential classes are each their
exactly solvable family's one declaration (:class:`ExactRadial`).

The closed potentials evaluate on a Python float and on a numpy array alike,
one expression serving both.  Squares are spelled as products, as numpy
computes an array's square, so a float gives its array element bit for bit;
a higher power goes through libm's pow on a float and numpy's on an array,
which may differ in the last bit.  numpy itself is imported on the first
array (:class:`._lazy.LazyNumpy`): a tabulated profile, a mesh, a recomposed
wavefunction.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

from ._lazy import LazyNumpy
from .ambiguity import (
    AmbiguitySet,
    bracket,
    check_constraint27,
    constraint27_expression,
    parse_ordering_token,
    xi,
)
from .errors import ConfigError, DomainError
from .specfun import laguerre_assoc

MASS_EPS = 1e-8

np = LazyNumpy(globals())


def _any(mask) -> bool:
    """One comparison's result on floats; whether any element holds on an array."""
    return mask if isinstance(mask, bool) else bool(mask.any())


# ---------------------------------------------------------------------------
# angular mass profiles: each declares f, f', f'' (value, d1, d2), its arclength
# map pct_map and its angular_problem; where it has them, its closed plane-wave
# chart (plane_wave: ordering -> phi -> (f^(1/4), q) or None) and levels (energy)


class FlatProfile:
    """f(phi) = 1."""

    kind = "flat"

    def value(self, phi: float) -> float:
        return 1.0

    def d1(self, phi: float) -> float:
        return 0.0

    def d2(self, phi: float) -> float:
        return 0.0

    def pct_map(self, phi: float) -> float:
        return phi

    def angular_problem(self, a: AmbiguitySet, lam: float) -> AngularProblem:
        const = -(bracket(a) + 0.5 * lam)

        def flat_potential(q):
            shape = getattr(q, "shape", ())
            return np.full(shape, const) if shape else const

        return AngularProblem(flat_potential, (0.0, 2.0 * math.pi))

    def plane_wave(self, a: AmbiguitySet) -> Callable:
        return lambda phi: (1.0, phi)

    @staticmethod
    def energy(a: AmbiguitySet, m: int, lam: float) -> float:
        """(m^2 - lambda)/2 - [alpha^2 + gamma^2 - beta(beta+1)]."""
        return 0.5 * (m * m - lam) - bracket(a)


class CosSquaredProfile:
    """f(phi) = cos^2 phi; vanishes at phi = pi/2 + k pi."""

    kind = "cos2"

    def value(self, phi: float) -> float:
        return math.cos(phi) ** 2

    def d1(self, phi: float) -> float:
        return -math.sin(2.0 * phi)

    def d2(self, phi: float) -> float:
        return -2.0 * math.cos(2.0 * phi)

    def pct_map(self, phi: float) -> float:
        if abs(phi) >= 0.5 * math.pi:
            raise DomainError(f"path from 0 to {phi} crosses the mass zero at phi = +/- pi/2")
        return math.sin(phi)

    def angular_problem(self, a: AmbiguitySet, lam: float) -> AngularProblem:
        z1, z2 = zeta_coefficients(a, lam)

        def cos2_potential(q):
            q2 = q * q
            fq = 1.0 - q2
            if _any(fq <= MASS_EPS):
                raise DomainError("effective potential diverges at q = +/- 1")
            return (z1 * q2 - z2) / (fq * fq)

        return AngularProblem(cos2_potential, (-1.0, 1.0))

    def plane_wave(self, a: AmbiguitySet) -> Callable:
        """(sqrt(cos phi), sin phi), None if cos phi <= sqrt(MASS_EPS); zero-potential gate only."""
        if not check_constraint27(a):
            raise DomainError("the closed angular form of the cos^2 model exists only for "
                              "orderings satisfying the zero-potential gate")
        floor = math.sqrt(MASS_EPS)

        def chart(phi):
            c = math.cos(phi)  # sqrt(cos phi) is not real for cos phi < 0: no guessed branch
            return None if c <= floor else (math.sqrt(c), math.sin(phi))

        return chart


class TabulatedProfile:
    """User-sampled f, f', f'' on a uniform phi grid covering (0, 2pi).

    Samples must be finite, and the supplied first and second derivatives
    must agree with centered differences of the samples to relative
    tolerance 1e-3, so inconsistent tables are rejected up front instead of
    polluting the effective potential.  The profile is periodic: unless the
    table ends at phi[0] + 2pi, a node there repeats its first sample; a phi
    outside the table is read one period in, and linearly between nodes.
    """

    kind = "tabulated"

    def __init__(self, phi, f, fp, fpp):
        phi, f, fp, fpp = (np.asarray(a, dtype=float) for a in (phi, f, fp, fpp))
        if phi.ndim != 1 or phi.size < 16:
            raise DomainError("need a 1-d grid with at least 16 samples")
        if not (f.shape == fp.shape == fpp.shape == phi.shape):
            raise DomainError("phi, f, fp, fpp must have matching shapes")
        if not all(np.all(np.isfinite(a)) for a in (phi, f, fp, fpp)):
            raise DomainError("phi, f, fp, fpp must hold finite numbers only")
        steps = np.diff(phi)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
            raise DomainError("phi grid must be uniform and increasing")
        if phi[0] > 1e-9 or phi[-1] < 2.0 * math.pi - steps[0] - 1e-9:
            raise DomainError("phi grid must cover (0, 2pi)")
        if np.any(f <= 0.0):
            raise DomainError("mass profile must be positive at every sample")
        h = steps[0]
        fd1 = (f[2:] - f[:-2]) / (2.0 * h)
        fd2 = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h**2
        scale1 = max(1e-30, float(np.max(np.abs(fp))))
        scale2 = max(1e-30, float(np.max(np.abs(fpp))))
        if np.max(np.abs(fp[1:-1] - fd1)) > 1e-3 * scale1:
            raise DomainError("supplied f' disagrees with centered differences")
        if np.max(np.abs(fpp[1:-1] - fd2)) > 1e-3 * scale2:
            raise DomainError("supplied f'' disagrees with centered differences")
        if phi[-1] < phi[0] + math.tau - 1e-9:
            phi = np.append(phi, phi[0] + math.tau)
            f, fp, fpp = (np.append(a, a[0]) for a in (f, fp, fpp))
        self.phi, self.f, self.fp, self.fpp = phi, f, fp, fpp
        self._span = (float(phi[0]), float(phi[-1]))

    def _wrapped(self, phi: float) -> float:
        phi, (lo, hi) = float(phi), self._span  # plain floats keep each read cheap
        return phi if lo <= phi <= hi else lo + (phi - lo) % math.tau

    def value(self, phi: float) -> float:
        return float(np.interp(self._wrapped(phi), self.phi, self.f))

    def d1(self, phi: float) -> float:
        return float(np.interp(self._wrapped(phi), self.phi, self.fp))

    def d2(self, phi: float) -> float:
        return float(np.interp(self._wrapped(phi), self.phi, self.fpp))

    def pct_map(self, phi: float) -> float:
        if phi == 0.0:
            return 0.0
        mesh = np.linspace(0.0, phi, 4097)
        fvals = np.array([self.value(p) for p in mesh])
        if np.any(fvals <= MASS_EPS):
            raise DomainError(f"mass factor vanishes on the path from 0 to {phi}")
        roots = np.sqrt(fvals)
        return float(np.sum(0.5 * (roots[1:] + roots[:-1]) * np.diff(mesh)))

    def angular_problem(self, a: AmbiguitySet, lam: float) -> AngularProblem:
        mesh = np.linspace(0.0, 2.0 * math.pi, 8193)
        fvals = np.array([self.value(p) for p in mesh])
        if np.any(fvals <= MASS_EPS):
            raise DomainError("tabulated profile vanishes inside (0, 2pi)")
        q_mesh = np.concatenate([[0.0], np.cumsum(0.5 * (np.sqrt(fvals[1:]) + np.sqrt(fvals[:-1])) * np.diff(mesh))])
        w_mesh = np.array([w_eff(self, a, lam, p) for p in mesh])

        def tabulated_potential(q):
            return np.interp(np.mod(q, q_mesh[-1]), q_mesh, w_mesh)

        return AngularProblem(tabulated_potential, (0.0, float(q_mesh[-1])))


# ---------------------------------------------------------------------------
# radial potentials


def _square(x: float) -> float:
    """x**2 of a float parameter, or inf where it passes the float range: a
    float power raises there, and the potential's inf is refused when printed."""
    try:
        return x**2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PowerWell:
    """v(rho) = -v0 rho^(2k) / 2, v0 > 0, integer k >= 1."""

    v0: float
    k: int
    kind = "power_well"

    def __post_init__(self):
        if not self.v0 > 0:
            raise DomainError(f"v0 must be > 0, got {self.v0}")
        if self.k < 1 or self.k != int(self.k):
            raise DomainError(f"k must be an integer >= 1, got {self.k}")

    def tilde_v(self, rho):
        # k = 1, the Bessel well, is a square: a product, as numpy squares an array
        return -0.5 * self.v0 * (rho * rho if self.k == 1 else rho ** (2 * self.k))


class ExactRadial:
    """An exactly solvable radial family; a subclass is its potential and defines:

    * ``tilde_v(rho)``, vectorized over rho, the v(rho) of :func:`radial_potential`;
    * ``lam(n_rho)``, the quantization lambda(n_rho), which fixes the closed
      energy through :meth:`FlatProfile.energy`;
    * ``closed``, the family's closed spectral value eps (the constant term of
      2 v/rho^2 moved to the eigenvalue side), by which the checks shift the
      radial equation at every lambda(n_rho);
    * ``state(n_rho, rho)``, the closed eigenfunction U of level n_rho, at the
      order :meth:`level` gives, at the points rho > 0: unit norm, sign
      (-1)^n_rho, so that the outermost and largest lobe is positive;
    * ``default_wall()``, ``header()`` (the parameters as reports print
      them) and ``note`` (the remark on every checked record).
    """

    def level(self, n_rho: int) -> tuple:
        """(lambda(n_rho), ell), ell = sqrt(1 + lambda) the radial order; a
        lambda past the float range, whose every closed state is 0, raises DomainError."""
        lam = self.lam(n_rho)
        if not math.isfinite(lam):
            raise DomainError(f"lambda({n_rho}) = {lam} passes the float range")
        return lam, math.sqrt(lam + 1.0)

    def levels(self, n_rho_max: int) -> list:
        """(n_rho, lambda, ell) of :meth:`level` for n_rho = 0..n_rho_max.

        A negative n_rho_max, which would give no level, raises DomainError,
        as does a level outside the quantization's domain.
        """
        if n_rho_max < 0:
            raise DomainError(f"n_rho_max must be >= 0, got {n_rho_max}")
        return [(n_rho, *self.level(n_rho)) for n_rho in range(n_rho_max + 1)]

    def wall(self, rho_max: float | None) -> float:
        return self.default_wall() if rho_max is None else rho_max


def coulomb_lambda(b: float, n_rho: int) -> float:
    """lambda = (b - n_rho - 1/2)^2 - 1, defined for b > n_rho + 1/2.

    This is the paper's b = n_rho + l + 1 with l(l+1) = 3/4 + lambda, i.e.
    lambda = l(l+1) - 3/4 with l = b - n_rho - 1; the radial order of the
    operator is ell = sqrt(1 + lambda) = l + 1/2 = b - n_rho - 1/2 > 0.
    """
    if n_rho < 0:
        raise DomainError(f"n_rho must be >= 0, got {n_rho}")
    if not b > n_rho + 0.5:
        raise DomainError(f"need b > n_rho + 1/2, got b = {b}, n_rho = {n_rho}")
    t = b - n_rho - 0.5
    return t * t - 1.0


def oscillator_lambda(a_param: float, d: float, n_rho: int) -> float:
    """lambda = (d/a - 2 n_rho - 1)^2 - 1, defined for d/a > 2 n_rho + 1."""
    if n_rho < 0:
        raise DomainError(f"n_rho must be >= 0, got {n_rho}")
    if not a_param > 0:
        raise DomainError(f"need a > 0, got {a_param}")
    ratio = d / a_param
    if not ratio > 2 * n_rho + 1:
        raise DomainError(f"need d/a > 2 n_rho + 1, got d/a = {ratio}, n_rho = {n_rho}")
    t = ratio - 2.0 * n_rho - 1.0
    return t * t - 1.0


def coulomb_rho_max(nu: float) -> float:
    """Default outer wall 2 nu^2 + 20 nu for Coulomb-like levels of index nu.

    A level eps = -1/nu^2, nu = n_rho + ell + 1/2, has its outer turning
    point at 2 nu^2 and decays like exp(-rho/nu) beyond it; 20 decay lengths
    past the turning point leave a tail far below the solver's accuracy.
    """
    return 2.0 * nu * nu + 20.0 * nu


def _laguerre_state(n_rho: int, alpha: float, ell: float, x_of, log_norm_sq: float, rho):
    """(-1)^n_rho rho^(ell+1/2) exp(-x/2) L_n_rho^(alpha)(x) / sqrt(norm) at x = x_of(rho).

    ``log_norm_sq`` is the log of the integral of the unsigned state squared.
    The weight is taken in logs, so a large ell does not overflow; where x
    overflows far out, the weight underflows and the sample is 0.0.
    """
    rho = np.asarray(rho, dtype=float)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        x = x_of(rho)
        weight = np.exp((ell + 0.5) * np.log(rho) - 0.5 * x - 0.5 * log_norm_sq)
        u = (-1.0) ** n_rho * weight * laguerre_assoc(n_rho, alpha, x)
    return np.where(weight > 0.0, u, 0.0)


@dataclass(frozen=True)
class CoulombLike(ExactRadial):
    """v(rho) = omega^2 rho^2 / 2 - rho, omega > 0; b = 1/omega quantizes it."""

    omega: float
    kind = "coulomb_like"
    note = "radial spectral value eps = -omega^2; independent of m"

    def __post_init__(self):
        if not self.omega > 0:
            raise DomainError(f"omega must be > 0, got {self.omega}")

    @property
    def b(self) -> float:
        return 1.0 / self.omega

    def tilde_v(self, rho):
        return 0.5 * _square(self.omega) * (rho * rho) - rho

    def lam(self, n_rho: int) -> float:
        return coulomb_lambda(self.b, n_rho)

    @property
    def closed(self) -> float:
        return -1.0 / (self.b * self.b)

    def state(self, n_rho: int, rho):
        """rho^(ell+1/2) exp(-rho/b) L_n^(2 ell)(2 rho/b), the 3D hydrogen state at
        l = ell - 1/2; its square integrates to
        (b/2)^(2 ell+2) Gamma(n+2 ell+1) (2n+2 ell+1)/n!."""
        b, (_, ell) = self.b, self.level(n_rho)
        log_norm_sq = ((2.0 * ell + 2.0) * math.log(0.5 * b) + math.lgamma(n_rho + 2.0 * ell + 1.0)
                       + math.log(2.0 * n_rho + 2.0 * ell + 1.0) - math.lgamma(n_rho + 1.0))
        return _laguerre_state(n_rho, 2.0 * ell, ell, lambda r: 2.0 * r / b, log_norm_sq, rho)

    def default_wall(self) -> float:
        return coulomb_rho_max(self.b)

    def header(self) -> dict:
        return {"model_kind": self.kind, "b": self.b}


@dataclass(frozen=True)
class OscillatorLike(ExactRadial):
    """v(rho) = a^2 rho^4 / 8 - d rho^2 / 2, a > 0."""

    a: float
    d: float
    kind = "oscillator_like"
    note = "radial spectral value d; independent of m"

    def __post_init__(self):
        if not self.a > 0:
            raise DomainError(f"a must be > 0, got {self.a}")

    def tilde_v(self, rho):
        return _square(self.a) * rho**4 / 8.0 - 0.5 * self.d * (rho * rho)

    def lam(self, n_rho: int) -> float:
        return oscillator_lambda(self.a, self.d, n_rho)

    @property
    def closed(self) -> float:
        return self.d

    def state(self, n_rho: int, rho):
        """rho^(ell+1/2) exp(-a rho^2/4) L_n^(ell)(a rho^2/2), the 3D oscillator
        state at l = ell - 1/2; its square integrates to
        (2/a)^(ell+1) Gamma(n+ell+1)/(2 n!) (Abramowitz & Stegun 22.2.12)."""
        _, ell = self.level(n_rho)
        log_norm_sq = ((ell + 1.0) * math.log(2.0 / self.a) + math.lgamma(n_rho + ell + 1.0)
                       - math.log(2.0) - math.lgamma(n_rho + 1.0))
        return _laguerre_state(n_rho, ell, ell, lambda r: 0.5 * self.a * r**2, log_norm_sq, rho)

    def default_wall(self) -> float:
        # five lengths 1/sqrt(a) past the outer turning point 2 sqrt(d)/a, at least 12/sqrt(a)
        return max(12.0, 2.0 * math.sqrt(self.d / self.a) + 5.0) / math.sqrt(self.a)

    def header(self) -> dict:
        return {"model_kind": self.kind, "a": self.a, "d": self.d}


@dataclass(frozen=True)
class SeparableModel:
    """Complete problem definition: angular profile, radial potential, ordering.

    The radial mass factor is fixed to rho^(-2); nothing else separates.
    ``v`` may be None for purely angular studies.  ``ordering_token`` is the
    ordering as written in the model file ("" for models built in code); it
    is reported back verbatim and takes no part in comparisons.
    """

    f: object
    v: object | None
    ordering: AmbiguitySet
    ordering_token: str = field(default="", compare=False)


@dataclass(frozen=True)
class RadialProblem:
    """1D Schrodinger-form radial problem -U'' + V_eff(rho) U = 0."""

    effective_potential: Callable
    lam: float
    domain: tuple[float, float]


@dataclass(frozen=True)
class AngularProblem:
    """Transformed angular problem -(1/2) chi'' + W_eff(q) chi = E chi."""

    effective_potential: Callable
    domain: tuple[float, float]


# ---------------------------------------------------------------------------
# operations


def _profile_at(f, phi: float) -> tuple[float, float, float]:
    fval = f.value(phi)
    if fval <= MASS_EPS:
        raise DomainError(f"mass factor f({phi}) = {fval} is below {MASS_EPS}")
    return fval, f.d1(phi), f.d2(phi)


def w_tilde(f, a: AmbiguitySet, phi: float) -> float:
    """Angular ordering weight for mass f(phi)/rho^2.

    (1/4) [ xi (4/f + f'^2/f^3) + (alpha+gamma) (4 + f''/f) / f ].
    For a flat profile this is exactly the ambiguity bracket.
    """
    if isinstance(f, FlatProfile):
        return bracket(a)
    fval, fp, fpp = _profile_at(f, phi)
    s = a.alpha + a.gamma
    return 0.25 * (xi(a) * (4.0 / fval + fp * fp / fval**3) + s * (4.0 + fpp / fval) / fval)


def zeta_coefficients(a: AmbiguitySet, lam: float) -> tuple[float, float]:
    """(z1, z2) of the cos^2-profile angular potential (z1 q^2 - z2)/(1-q^2)^2."""
    z1 = 0.375 + 0.5 * lam
    z2 = 0.5 * lam - 0.25 + constraint27_expression(a)
    return z1, z2


def w_eff(f, a: AmbiguitySet, lam: float, phi: float) -> float:
    """Effective angular potential at phi, expanded single-expression form.

    Refuses evaluation where f < 1e-8: the divergence at mass zeros is a
    confining boundary, not a number to hand back.
    """
    if isinstance(f, FlatProfile):
        return -(bracket(a) + 0.5 * lam)
    fval, fp, fpp = _profile_at(f, phi)
    s = a.alpha + a.gamma
    x = xi(a)
    return (
        fp * fp / (32.0 * fval**3) * (7.0 - 8.0 * x)
        - fpp / (8.0 * fval**2) * (1.0 + 2.0 * s)
        - (x + s + 0.5 * lam) / fval
    )


def radial_domain(domain: tuple[float, float]) -> tuple[float, float]:
    """(rho_min, rho_max) as floats; radial functions live on 0 < rho_min < rho_max,
    any other range raises DomainError."""
    rho_min, rho_max = float(domain[0]), float(domain[1])
    if not 0.0 < rho_min < rho_max:
        raise DomainError(f"need 0 < rho_min < rho_max, got ({rho_min}, {rho_max})")
    return rho_min, rho_max


def radial_potential(v, lam: float) -> Callable:
    """V_eff(rho) = (3/4 + lambda)/rho^2 + 2 v(rho)/rho^2, vectorized over rho."""

    def effective_potential(rho):
        rho2 = rho * rho
        return (0.75 + lam) / rho2 + 2.0 * v.tilde_v(rho) / rho2

    return effective_potential


def radial_problem(model: SeparableModel, lam: float, domain: tuple[float, float]) -> RadialProblem:
    """Package the reduced radial problem with its :func:`radial_potential`,
    valid on the :func:`radial_domain` 0 < rho_min < rho_max."""
    rho_min, rho_max = radial_domain(domain)
    if model.v is None:
        raise DomainError("model has no radial potential")
    return RadialProblem(radial_potential(model.v, lam), lam, (rho_min, rho_max))


def radial_to_R(rho, u):
    """Map samples of U back to the physical radial factor R = rho^(-3/2) U.

    Below rho of about 2.6e-206, where rho^(-3/2) passes the float range, R
    is formed as (U rho^(-3/4)) rho^(-3/4): finite wherever R is, and inf
    where R itself passes the float range, for the printer to refuse.
    """
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = rho**-1.5
        return np.where(np.isinf(scale), u * rho**-0.75 * rho**-0.75, u * scale)


def pct_map(f, phi: float) -> float:
    """Arclength coordinate q(phi) = integral_0^phi sqrt(f), as the profile maps it:
    exactly for flat (q = phi) and cos^2 (q = sin phi), by the trapezoid rule on a
    dense mesh if tabulated.  DomainError where the path from 0 to phi meets a zero of f."""
    return f.pct_map(float(phi))


def angular_problem(model: SeparableModel, lam: float) -> AngularProblem:
    """The transformed angular problem of the model's profile at separation constant lam.

    Flat profile: constant potential on (0, 2pi), periodic.  cos^2 profile:
    (z1 q^2 - z2)/(1-q^2)^2 on q in (-1, 1), which diverges at the mass zeros
    unless (z1, z2) = (0, 0), where it is identically zero.  Positive tabulated
    profiles map to a periodic ring of circumference Q = integral sqrt(f), whose
    potential is read at q mod Q; one that dips below the floor is rejected.
    """
    return model.f.angular_problem(model.ordering, lam)


def angular_wavefunction_recompose(f, chi, phi):
    """Reassemble the angular wavefunction Phi(phi) = f(phi)^(1/4) chi(q(phi)).

    ``chi`` is called with the mapped coordinate q(phi); complex values pass
    through.  Raises DomainError at zeros of f.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    out = np.empty(phi.shape, dtype=complex)
    for i, p in enumerate(phi):
        fval = f.value(p)
        if fval <= MASS_EPS:
            raise DomainError(f"mass factor vanishes at phi = {p}")
        out[i] = fval**0.25 * chi(pct_map(f, p))
    return out


# ---------------------------------------------------------------------------
# model description files

_PROFILE_TOKENS = {cls.kind: cls for cls in (FlatProfile, CosSquaredProfile)}
_POTENTIAL_KINDS = {cls.kind: cls for cls in (PowerWell, CoulombLike, OscillatorLike)}


def _finite_number(value) -> bool:
    """A JSON number in the float range: not a bool, a string, null, NaN or an infinity."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max)


def model_from_dict(data: dict) -> SeparableModel:
    """Build a SeparableModel from the JSON description schema.

    Keys: ``f`` ("flat" | "cos2" | {"tabulated": {...}}), ``potential``
    (optional; {"power_well": ...} | {"coulomb_like": ...} |
    {"oscillator_like": ...}), ``ordering`` (token).  Unknown keys are
    rejected.  A potential takes exactly the fields of its dataclass, each a
    finite JSON number (anything else, booleans, strings, NaN and Infinity
    included, raises ConfigError); the potential itself then checks its
    domain, so a power well's ``k`` must be an integer >= 1 (DomainError).
    So must every entry of a tabulated profile's ``phi``, ``f``, ``fp`` and ``fpp`` lists.
    """
    if not isinstance(data, dict):
        raise ConfigError("model description must be a JSON object")
    unknown = set(data) - {"f", "potential", "ordering"}
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    if "f" not in data or "ordering" not in data:
        raise ConfigError("model needs at least the keys 'f' and 'ordering'")

    fspec = data["f"]
    if isinstance(fspec, str):
        if fspec not in _PROFILE_TOKENS:
            raise ConfigError(f"unknown profile {fspec!r}; expected 'flat' or 'cos2'")
        profile = _PROFILE_TOKENS[fspec]()
    elif isinstance(fspec, dict) and set(fspec) == {"tabulated"}:
        tab = fspec["tabulated"]
        if not isinstance(tab, dict) or set(tab) != {"phi", "f", "fp", "fpp"}:
            raise ConfigError("tabulated profile needs exactly the keys phi, f, fp, fpp")
        for key, samples in tab.items():
            if not (isinstance(samples, list) and all(map(_finite_number, samples))):
                raise ConfigError(f"tabulated {key!r} must be a list of finite numbers")
        profile = TabulatedProfile(**tab)
    else:
        raise ConfigError(f"cannot parse profile description {fspec!r}")

    potential = None
    pspec = data.get("potential")
    if pspec is not None:
        if not isinstance(pspec, dict) or len(pspec) != 1:
            raise ConfigError("potential must be an object with exactly one kind key")
        kind, params = next(iter(pspec.items()))
        if not isinstance(params, dict):
            raise ConfigError(f"potential parameters for {kind!r} must be an object")
        if kind not in _POTENTIAL_KINDS:
            raise ConfigError(f"unknown potential kind {kind!r}")
        cls = _POTENTIAL_KINDS[kind]
        types = {fld.name: fld.type for fld in fields(cls)}
        if set(params) != set(types):
            raise ConfigError(f"potential {kind!r} needs exactly the keys {sorted(types)}")
        for name, value in params.items():
            if not _finite_number(value):
                raise ConfigError(f"potential {kind!r} parameter {name!r} must be a finite "
                                  f"number, got {value!r}")
        # an integer field (k) keeps the value as written, so the potential's
        # own check refuses a fraction instead of truncating it
        potential = cls(**{name: float(value) if types[name] == "float" else value
                           for name, value in params.items()})

    ordering_spec = data["ordering"]
    if not isinstance(ordering_spec, str):
        raise ConfigError("ordering must be a token string")
    ordering = parse_ordering_token(ordering_spec)
    return SeparableModel(profile, potential, ordering, ordering_spec)


def load_model(path) -> SeparableModel:
    """Read and validate a model description file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    # ValueError covers bad JSON, bad UTF-8 and an integer too long to convert
    except ValueError as exc:
        raise ConfigError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_dict(data)
