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
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .ambiguity import (
    AmbiguitySet,
    bracket,
    constraint27_expression,
    parse_ordering_token,
    xi,
)
from .eigensolve import PERIODIC
from .errors import ConfigError, DomainError, MassVanishes, UnsupportedProfile

MASS_EPS = 1e-8

CONFINED = "confined-by-divergence"


# ---------------------------------------------------------------------------
# angular mass profiles


class FlatProfile:
    """f(phi) = 1."""

    kind = "flat"

    def value(self, phi: float) -> float:
        return 1.0

    def d1(self, phi: float) -> float:
        return 0.0

    def d2(self, phi: float) -> float:
        return 0.0


class CosSquaredProfile:
    """f(phi) = cos^2 phi; vanishes at phi = pi/2 + k pi."""

    kind = "cos2"

    def value(self, phi: float) -> float:
        return math.cos(phi) ** 2

    def d1(self, phi: float) -> float:
        return -math.sin(2.0 * phi)

    def d2(self, phi: float) -> float:
        return -2.0 * math.cos(2.0 * phi)


class TabulatedProfile:
    """User-sampled f, f', f'' on a uniform phi grid covering (0, 2pi).

    The supplied first and second derivatives must agree with centered
    differences of the samples to relative tolerance 1e-3, so inconsistent
    tables are rejected up front instead of polluting the effective
    potential.  Evaluation between nodes is linear interpolation.
    """

    kind = "tabulated"

    def __init__(self, phi, f, fp, fpp):
        phi = np.asarray(phi, dtype=float)
        f = np.asarray(f, dtype=float)
        fp = np.asarray(fp, dtype=float)
        fpp = np.asarray(fpp, dtype=float)
        if phi.ndim != 1 or phi.size < 16:
            raise UnsupportedProfile("need a 1-d grid with at least 16 samples")
        if not (f.shape == fp.shape == fpp.shape == phi.shape):
            raise UnsupportedProfile("phi, f, fp, fpp must have matching shapes")
        steps = np.diff(phi)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
            raise UnsupportedProfile("phi grid must be uniform and increasing")
        if phi[0] > 1e-9 or phi[-1] < 2.0 * math.pi - steps[0] - 1e-9:
            raise UnsupportedProfile("phi grid must cover (0, 2pi)")
        if np.any(f <= 0.0):
            raise UnsupportedProfile("mass profile must be positive at every sample")
        h = steps[0]
        fd1 = (f[2:] - f[:-2]) / (2.0 * h)
        fd2 = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h**2
        scale1 = max(1e-30, float(np.max(np.abs(fp))))
        scale2 = max(1e-30, float(np.max(np.abs(fpp))))
        if np.max(np.abs(fp[1:-1] - fd1)) > 1e-3 * scale1:
            raise UnsupportedProfile("supplied f' disagrees with centered differences")
        if np.max(np.abs(fpp[1:-1] - fd2)) > 1e-3 * scale2:
            raise UnsupportedProfile("supplied f'' disagrees with centered differences")
        self.phi = phi
        self.f = f
        self.fp = fp
        self.fpp = fpp

    def value(self, phi: float) -> float:
        return float(np.interp(phi, self.phi, self.f))

    def d1(self, phi: float) -> float:
        return float(np.interp(phi, self.phi, self.fp))

    def d2(self, phi: float) -> float:
        return float(np.interp(phi, self.phi, self.fpp))


# ---------------------------------------------------------------------------
# radial potentials


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
        return -0.5 * self.v0 * np.asarray(rho, dtype=float) ** (2 * self.k)


@dataclass(frozen=True)
class CoulombLike:
    """v(rho) = omega^2 rho^2 / 2 - rho, omega > 0."""

    omega: float
    kind = "coulomb_like"

    def __post_init__(self):
        if not self.omega > 0:
            raise DomainError(f"omega must be > 0, got {self.omega}")

    @property
    def b(self) -> float:
        return 1.0 / self.omega

    def tilde_v(self, rho):
        rho = np.asarray(rho, dtype=float)
        return 0.5 * self.omega**2 * rho**2 - rho


@dataclass(frozen=True)
class OscillatorLike:
    """v(rho) = a^2 rho^4 / 8 - d rho^2 / 2, a > 0."""

    a: float
    d: float
    kind = "oscillator_like"

    def __post_init__(self):
        if not self.a > 0:
            raise DomainError(f"a must be > 0, got {self.a}")

    def tilde_v(self, rho):
        rho = np.asarray(rho, dtype=float)
        return self.a**2 * rho**4 / 8.0 - 0.5 * self.d * rho**2


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
    boundary: str


# ---------------------------------------------------------------------------
# operations


def _profile_at(f, phi: float) -> tuple[float, float, float]:
    fval = f.value(phi)
    if fval <= MASS_EPS:
        raise MassVanishes(f"mass factor f({phi}) = {fval} is below {MASS_EPS}")
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


def radial_problem(model: SeparableModel, lam: float, domain: tuple[float, float]) -> RadialProblem:
    """Package the reduced radial problem with its effective potential.

    V_eff(rho) = (3/4 + lambda)/rho^2 + 2 v(rho)/rho^2, valid on
    0 < rho_min < rho_max.
    """
    rho_min, rho_max = float(domain[0]), float(domain[1])
    if not 0.0 < rho_min < rho_max:
        raise DomainError(f"need 0 < rho_min < rho_max, got ({rho_min}, {rho_max})")
    if model.v is None:
        raise DomainError("model has no radial potential")
    v = model.v

    def effective_potential(rho):
        rho = np.asarray(rho, dtype=float)
        return (0.75 + lam) / rho**2 + 2.0 * v.tilde_v(rho) / rho**2

    return RadialProblem(effective_potential, lam, (rho_min, rho_max))


def radial_to_R(rho, u):
    """Map samples of U back to the physical radial factor R = rho^(-3/2) U."""
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u)
    return u * rho**-1.5


def pct_map(f, phi: float) -> float:
    """Arclength coordinate q(phi) = integral_0^phi sqrt(f).

    Exact for the flat (q = phi) and cos^2 (q = sin phi) profiles; tabulated
    profiles are integrated by the trapezoid rule on a dense mesh.  Raises
    MassVanishes when the integration path from 0 to phi meets a zero of f.
    """
    phi = float(phi)
    if isinstance(f, FlatProfile):
        return phi
    if isinstance(f, CosSquaredProfile):
        if abs(phi) >= 0.5 * math.pi:
            raise MassVanishes(
                f"path from 0 to {phi} crosses the mass zero at phi = +/- pi/2"
            )
        return math.sin(phi)
    if phi == 0.0:
        return 0.0
    mesh = np.linspace(0.0, phi, 4097)
    fvals = np.array([f.value(p) for p in mesh])
    if np.any(fvals <= MASS_EPS):
        raise MassVanishes(f"mass factor vanishes on the path from 0 to {phi}")
    roots = np.sqrt(fvals)
    return float(np.sum(0.5 * (roots[1:] + roots[:-1]) * np.diff(mesh)))


def angular_problem(model: SeparableModel, lam: float) -> AngularProblem:
    """The transformed angular problem for the model at separation constant lam.

    Flat profile: constant potential on (0, 2pi), periodic.  cos^2 profile:
    (z1 q^2 - z2)/(1-q^2)^2 on q in (-1, 1), confined by the divergence at
    the mass zeros unless (z1, z2) = (0, 0), in which case the potential is
    identically zero and the boundary is the periodic zero-potential line.
    Positive tabulated profiles map to a periodic ring of circumference
    integral sqrt(f); tabulated profiles that dip below the evaluation floor
    are rejected.
    """
    a = model.ordering
    f = model.f
    if isinstance(f, FlatProfile):
        const = -(bracket(a) + 0.5 * lam)

        def flat_potential(q):
            q = np.asarray(q, dtype=float)
            return np.full(q.shape, const) if q.shape else const

        return AngularProblem(flat_potential, (0.0, 2.0 * math.pi), PERIODIC)

    if isinstance(f, CosSquaredProfile):
        z1, z2 = zeta_coefficients(a, lam)

        def cos2_potential(q):
            q = np.asarray(q, dtype=float)
            fq = 1.0 - q**2
            if np.any(fq <= MASS_EPS):
                raise MassVanishes("effective potential diverges at q = +/- 1")
            return (z1 * q**2 - z2) / fq**2

        boundary = PERIODIC if z1 == 0.0 and z2 == 0.0 else CONFINED
        return AngularProblem(cos2_potential, (-1.0, 1.0), boundary)

    # tabulated: mass-positive ring, periodic in the arclength coordinate
    mesh = np.linspace(0.0, 2.0 * math.pi, 8193)
    fvals = np.array([f.value(p) for p in mesh])
    if np.any(fvals <= MASS_EPS):
        raise UnsupportedProfile("tabulated profile vanishes inside (0, 2pi)")
    q_mesh = np.concatenate([[0.0], np.cumsum(0.5 * (np.sqrt(fvals[1:]) + np.sqrt(fvals[:-1])) * np.diff(mesh))])
    w_mesh = np.array([w_eff(f, a, lam, p) for p in mesh])

    def tabulated_potential(q):
        return np.interp(q, q_mesh, w_mesh)

    return AngularProblem(tabulated_potential, (0.0, float(q_mesh[-1])), PERIODIC)


def angular_wavefunction_recompose(f, chi, phi):
    """Reassemble the angular wavefunction Phi(phi) = f(phi)^(1/4) chi(q(phi)).

    ``chi`` is called with the mapped coordinate q(phi); complex values pass
    through.  Raises MassVanishes at zeros of f.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    out = np.empty(phi.shape, dtype=complex)
    for i, p in enumerate(phi):
        fval = f.value(p)
        if fval <= MASS_EPS:
            raise MassVanishes(f"mass factor vanishes at phi = {p}")
        out[i] = fval**0.25 * chi(pct_map(f, p))
    return out


# ---------------------------------------------------------------------------
# model description files

_PROFILE_TOKENS = {"flat": FlatProfile, "cos2": CosSquaredProfile}
_POTENTIAL_KINDS = {cls.kind: cls for cls in (PowerWell, CoulombLike, OscillatorLike)}


def model_from_dict(data: dict) -> SeparableModel:
    """Build a SeparableModel from the JSON description schema.

    Keys: ``f`` ("flat" | "cos2" | {"tabulated": {...}}), ``potential``
    (optional; {"power_well": ...} | {"coulomb_like": ...} |
    {"oscillator_like": ...}), ``ordering`` (token).  Unknown keys are
    rejected.  A potential takes exactly the fields of its dataclass, each a
    finite JSON number (anything else, booleans, strings, NaN and Infinity
    included, raises ConfigError); the potential itself then checks its
    domain, so a power well's ``k`` must be an integer >= 1 (DomainError).
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
        profile = TabulatedProfile(tab["phi"], tab["f"], tab["fp"], tab["fpp"])
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
            # NaN, the infinities and integers past the float range fail the bound
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max):
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
