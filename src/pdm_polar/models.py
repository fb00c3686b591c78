"""The concrete solvable systems and their closed-form-versus-numeric checks.

Three families are covered, all with the rho^(-2) radial mass factor.  The
one closed energy is the flat-profile one, E = (m^2 - lambda)/2 - bracket
(:func:`flat_energy`); the radial families only fix lambda(n_rho):

* flat angular profile, no radial quantization: lambda is free;
* Coulomb-like radial potential omega^2 rho^2/2 - rho, quantized through
  lambda = (b - n_rho - 1/2)^2 - 1 with omega = 1/b: the paper's
  omega = 1/(n_rho + l + 1) with l(l+1) = 3/4 + lambda, that is
  l = ell - 1/2 for the radial order ell = sqrt(1 + lambda);
* oscillator-like radial potential a^2 rho^4/8 - d rho^2/2, quantized through
  lambda = (d/a - 2 n_rho - 1)^2 - 1.

The two radial families are declared once each, as :class:`RadialFamily`
entries of :data:`RADIAL_FAMILIES` (quantization, eigenvalue-form operator,
closed spectral value, default wall); the spectrum tables, the verify
sweeps and the numeric radial states all read them.

Every closed form is cross-checked against the finite-difference solver,
which plays the independent-oracle role.  The cos^2-profile system supplies
the Bessel radial solution and the zero-potential angular line E = m^2/2;
away from that line the (E, lambda) pairing is explored numerically by
:func:`heun_regime_scan` instead of through closed special functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ambiguity import AmbiguitySet, bracket
from .eigensolve import (
    DIRICHLET,
    PERIODIC,
    Grid,
    count_below,
    discretize,
    eigenvalue,
    refine_eigenvalue,
)
from .errors import DomainError, NoRoot
from .separation import (
    CosSquaredProfile,
    CoulombLike,
    OscillatorLike,
    SeparableModel,
    angular_problem,
)
from .serialize import to_csv
from .specfun import BesselOrder, bessel_j

# default grid sizes: the radial Dirichlet grid of the verify sweeps and the
# numeric radial states, and the scan ring (n_points % 4 == 2, see scan_level)
RADIAL_N_POINTS = 4000
SCAN_N_POINTS = 2050

ZERO_ZETA_NOTE = (
    "zero-potential angular line validated on a 2pi-periodic coordinate; "
    "the boundary treatment away from this line is a documented solver choice"
)


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial node count n_rho >= 0 and integer magnetic number m."""

    n_rho: int
    m: int

    def __post_init__(self):
        if self.n_rho < 0:
            raise DomainError(f"n_rho must be >= 0, got {self.n_rho}")


@dataclass(frozen=True)
class SpectrumRecord:
    """One spectrum entry, optionally carrying both provenances.

    ``provenance`` is "closed-form", "numeric", or "both"; ``delta`` is the
    absolute closed-versus-numeric difference when both sides exist.
    """

    qn: QuantumNumbers
    lam: float
    energy_closed: float | None = None
    energy_numeric: float | None = None
    delta: float | None = None
    provenance: str = "closed-form"
    convergence_estimate: float | None = None
    ordering: AmbiguitySet | None = None
    note: str = ""

    @property
    def energy(self) -> float:
        return self.energy_closed if self.energy_closed is not None else self.energy_numeric


@dataclass(frozen=True)
class DegeneracyGroup:
    energy: float
    records: tuple
    explanations: tuple


# ---------------------------------------------------------------------------
# closed forms


def flat_energy(a: AmbiguitySet, m: int, lam: float) -> float:
    """(m^2 - lambda)/2 - [alpha^2 + gamma^2 - beta(beta+1)]."""
    return 0.5 * (m * m - lam) - bracket(a)


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


def coulomb_energy(a: AmbiguitySet, b: float, qn: QuantumNumbers) -> float:
    """E = (1/2)[m^2 - (b - n_rho - 1/2)^2 + 1] - bracket, for b > n_rho + 1/2."""
    return flat_energy(a, qn.m, coulomb_lambda(b, qn.n_rho))


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


def oscillator_energy(a: AmbiguitySet, a_param: float, d: float, qn: QuantumNumbers) -> float:
    """E = (1/2)[m^2 - (d/a - 2 n_rho - 1)^2 + 1] - bracket, for d/a > 2 n_rho + 1."""
    return flat_energy(a, qn.m, oscillator_lambda(a_param, d, qn.n_rho))


# ---------------------------------------------------------------------------
# the radial families, each declared once


@dataclass(frozen=True)
class RadialFamily:
    """One exactly solvable radial family: operator, quantization, closed value.

    ``names`` lists the family's own parameters as the potential carries
    them (b for Coulomb-like, a and d for oscillator-like); every callable
    takes them unpacked, in that order, ahead of its own arguments:

    * ``lam(*params, n_rho)`` is the quantization lambda(n_rho), which fixes
      the closed energy through :func:`flat_energy`;
    * ``operator(*params, ell_sq)`` is the potential of the eigenvalue form
      -U'' + V U = eps U at squared radial order ell_sq = lambda + 1;
    * ``closed(*params, n_rho, ell)`` is the closed spectral value eps;
    * ``default_wall(*params)`` is the default outer Dirichlet wall.
    """

    kind: str
    names: tuple
    lam: Callable
    operator: Callable
    closed: Callable
    default_wall: Callable
    note: str

    def params(self, v) -> tuple:
        return tuple(getattr(v, name) for name in self.names)

    def levels(self, params, n_rho_max: int) -> list:
        """lambda(n_rho) for n_rho = 0..n_rho_max.

        A negative n_rho_max, which would give no level, raises DomainError,
        as does a level outside the quantization's domain.
        """
        if n_rho_max < 0:
            raise DomainError(f"n_rho_max must be >= 0, got {n_rho_max}")
        return [self.lam(*params, n_rho) for n_rho in range(n_rho_max + 1)]

    def header(self, params) -> dict:
        return {"model_kind": self.kind, **dict(zip(self.names, params))}

    def wall(self, params, rho_max: float | None) -> float:
        return self.default_wall(*params) if rho_max is None else rho_max


def coulomb_rho_max(nu: float) -> float:
    """Default outer wall 2 nu^2 + 20 nu for Coulomb-like levels of index nu.

    A level eps = -1/nu^2, nu = n_rho + ell + 1/2, has its outer turning
    point at 2 nu^2 and decays like exp(-rho/nu) beyond it; 20 decay lengths
    past the turning point leave a tail far below the solver's accuracy.
    """
    return 2.0 * nu * nu + 20.0 * nu


def _coulomb_operator(b: float, ell_sq: float):
    c = ell_sq - 0.25
    return lambda r: c / r**2 - 2.0 / r


def _oscillator_operator(a_param: float, d: float, ell_sq: float):
    c = ell_sq - 0.25
    return lambda r: c / r**2 + 0.25 * a_param**2 * r**2


COULOMB = RadialFamily(
    kind=CoulombLike.kind,
    names=("b",),
    lam=coulomb_lambda,
    operator=_coulomb_operator,
    closed=lambda b, n_rho, ell: -1.0 / (b * b),
    default_wall=coulomb_rho_max,
    note="radial spectral value eps = -omega^2; independent of m",
)

OSCILLATOR = RadialFamily(
    kind=OscillatorLike.kind,
    names=("a", "d"),
    lam=oscillator_lambda,
    operator=_oscillator_operator,
    closed=lambda a_param, d, n_rho, ell: a_param * (2.0 * n_rho + ell + 1.0),
    default_wall=lambda a_param, d: 12.0 / math.sqrt(a_param),
    note="radial spectral value d; independent of m",
)

RADIAL_FAMILIES = {CoulombLike: COULOMB, OscillatorLike: OSCILLATOR}


# ---------------------------------------------------------------------------
# numeric levels (the independent oracle)


def _numeric_level(family: RadialFamily, params: tuple, ell: float, n_rho: int,
                   n_points: int, rho_max: float | None) -> tuple[float, float]:
    """Index-n_rho eigenvalue of the family's operator at radial order ell.

    Dirichlet walls at rho = h and rho_max (default: the family's wall), one
    Richardson refinement.  Returns (eigenvalue, convergence_estimate).
    """
    potential = family.operator(*params, ell * ell)

    def factory(grid):
        return discretize(potential, grid, prefactor=1.0)

    grid = Grid(0.0, family.wall(params, rho_max), n_points, DIRICHLET)
    return refine_eigenvalue(factory, grid, n_rho)


def coulomb_numeric_level(ell: float, n_rho: int, *, n_points: int = RADIAL_N_POINTS,
                          rho_max: float | None = None) -> tuple[float, float]:
    """Index-n_rho eigenvalue of -U'' + [(ell^2 - 1/4)/rho^2 - 2/rho] U = eps U.

    The exact level is -1/nu^2 with nu = n_rho + ell + 1/2, the level's own
    b; the default wall is :func:`coulomb_rho_max` of nu.
    """
    return _numeric_level(COULOMB, (n_rho + ell + 0.5,), ell, n_rho, n_points, rho_max)


def oscillator_numeric_level(a_param: float, ell: float, n_rho: int, *,
                             n_points: int = RADIAL_N_POINTS,
                             rho_max: float | None = None) -> tuple[float, float]:
    """Index-n_rho eigenvalue of -U'' + [(l^2-1/4)/rho^2 + a^2 rho^2/4] U = d U.

    The exact level is the level's own d = a (2 n_rho + ell + 1).
    """
    if not a_param > 0:
        raise DomainError(f"need a > 0, got {a_param}")
    d = a_param * (2.0 * n_rho + ell + 1.0)
    return _numeric_level(OSCILLATOR, (a_param, d), ell, n_rho, n_points, rho_max)


def verify_family(family: RadialFamily, params: tuple, n_rho_max: int, *,
                  n_points: int = RADIAL_N_POINTS,
                  rho_max: float | None = None) -> list[SpectrumRecord]:
    """Closed-form-versus-numeric sweep over n_rho = 0..n_rho_max.

    For each n_rho the closed spectral value is set against the
    index-n_rho eigenvalue of the family's operator at the quantized radial
    order ell = sqrt(1 + lambda), all inside one wall (default: the
    family's).  Each record carries the absolute difference; use
    :func:`all_within` to gate on a tolerance.  A negative n_rho_max, which
    would sweep no level and pass vacuously, raises DomainError before any
    solve, as does a level outside the quantization's domain or at an index
    of n_points/4 or more, which the solver does not resolve.
    """
    lams = family.levels(params, n_rho_max)
    if n_rho_max >= n_points // 4:
        raise DomainError(f"{n_points} grid points resolve n_rho < {n_points // 4}, "
                          f"got n_rho_max = {n_rho_max}")
    records = []
    for n_rho, lam in enumerate(lams):
        ell = math.sqrt(lam + 1.0)
        numeric, conv = _numeric_level(family, params, ell, n_rho, n_points, rho_max)
        closed = family.closed(*params, n_rho, ell)
        records.append(SpectrumRecord(
            qn=QuantumNumbers(n_rho, 0),
            lam=lam,
            energy_closed=closed,
            energy_numeric=numeric,
            delta=abs(closed - numeric),
            provenance="both",
            convergence_estimate=conv,
            note=family.note,
        ))
    return records


def verify_coulomb(b: float, n_rho_max: int, tol: float, *,
                   n_points: int = RADIAL_N_POINTS,
                   rho_max: float | None = None) -> list[SpectrumRecord]:
    """Sweep of the Coulomb-like levels; closed value -omega^2 = -1/b^2.

    omega is read from the quantization omega = 1/(n_rho + l + 1) with
    l(l+1) = 3/4 + lambda, i.e. omega = 1/(n_rho + ell + 1/2).  Every level
    has nu = b, so the default wall is :func:`coulomb_rho_max` of b.  ``tol``
    is accepted for the caller's gate and not used here.
    """
    return verify_family(COULOMB, (b,), n_rho_max, n_points=n_points, rho_max=rho_max)


def verify_oscillator(a_param: float, d: float, n_rho_max: int, tol: float, *,
                      n_points: int = RADIAL_N_POINTS,
                      rho_max: float | None = None) -> list[SpectrumRecord]:
    """Sweep of the oscillator-like levels; closed value d = a (2 n_rho + ell + 1).

    ``tol`` is accepted for the caller's gate and not used here.
    """
    return verify_family(OSCILLATOR, (a_param, d), n_rho_max,
                         n_points=n_points, rho_max=rho_max)


def all_within(records, tol: float) -> bool:
    """True when every record with a delta satisfies |delta| <= tol."""
    return all(r.delta is None or r.delta <= tol for r in records)


# ---------------------------------------------------------------------------
# cos^2 toy system


def toy_radial_solution(n, rho: float) -> float:
    """Radial factor R_n(rho) = J_n(rho) / rho of the Bessel-solvable well."""
    rho = float(rho)
    if rho <= 0.0:
        raise DomainError(f"need rho > 0, got {rho}")
    order = n if isinstance(n, BesselOrder) else BesselOrder.from_value(n)
    return bessel_j(order, rho) / rho


def zero_zeta_levels(m_max: int, *, n_points: int = 2048):
    """Numeric spectrum of the zero-potential periodic angular problem.

    Solves -(1/2) chi'' = E chi on a 2pi ring; the exact levels are m^2/2
    with the +/-m pairs doubly degenerate.  Returns (values, estimates):
    the Richardson-refined lowest 2 m_max + 1 levels and their
    |extrapolated - fine| estimates.
    """
    grid = Grid(0.0, 2.0 * math.pi, n_points, PERIODIC)

    def factory(g):
        return discretize(lambda x: np.zeros_like(x), g, prefactor=0.5)

    refined = np.array([refine_eigenvalue(factory, grid, j) for j in range(2 * m_max + 1)])
    return refined[:, 0], refined[:, 1]


def toy_zero_zeta_spectrum(m_max: int, *, n_points: int = 2048) -> list[SpectrumRecord]:
    """Records {(n_rho=0, m): E = m^2/2, lambda = -3/4} for |m| <= m_max.

    Each record is cross-validated against :func:`zero_zeta_levels`.
    """
    if m_max < 0:
        raise DomainError(f"m_max must be >= 0, got {m_max}")
    values, estimates = zero_zeta_levels(m_max, n_points=n_points)
    records = []
    for m in range(-m_max, m_max + 1):
        closed = 0.5 * m * m
        index = 0 if m == 0 else 2 * abs(m) - 1
        numeric = float(values[index])
        records.append(
            SpectrumRecord(
                qn=QuantumNumbers(0, m),
                lam=-0.75,
                energy_closed=closed,
                energy_numeric=numeric,
                delta=abs(closed - numeric),
                provenance="both",
                convergence_estimate=float(estimates[index]),
                note=ZERO_ZETA_NOTE,
            )
        )
    return records


def _scan_potential(a: AmbiguitySet, lam: float):
    """cos^2-profile effective potential sampled along the periodic angle."""
    from .separation import zeta_coefficients

    z1, z2 = zeta_coefficients(a, lam)

    def potential(x):
        x = np.asarray(x, dtype=float)
        return (z1 * np.sin(x) ** 2 - z2) / np.cos(x) ** 4

    return potential


def _scan_operator(a: AmbiguitySet, lam: float, state_index: int, n_points: int):
    """The discretized ring of :func:`scan_level`, built after its guards."""
    if not 0 <= state_index < n_points // 4:
        raise DomainError(
            f"state_index must satisfy 0 <= state_index < n_points/4 = {n_points // 4}, "
            f"got {state_index}"
        )
    if n_points % 4 != 2:
        raise DomainError(
            f"scan rings need n_points % 4 == 2 to keep nodes off the mass zeros, got {n_points}"
        )
    grid = Grid(0.0, 2.0 * math.pi, n_points, PERIODIC)
    return discretize(_scan_potential(a, lam), grid, prefactor=0.5)


def scan_level(a: AmbiguitySet, lam: float, *, state_index: int = 1,
               n_points: int = SCAN_N_POINTS) -> float:
    """Eigenvalue of given index of the periodic angular problem at lambda.

    The ring (0, 2pi) keeps the zero-potential limit exact: at the point
    where both potential coefficients vanish the levels are m^2/2.  The
    default point count keeps grid nodes half a spacing away from the mass
    zeros at pi/2 and 3pi/2; that holds exactly when n_points % 4 == 2 (a
    multiple of 4 puts a node on a zero, an odd count breaks the parity
    split), so any other count raises DomainError, as does a state_index
    outside 0 <= state_index < n_points/4.
    """
    return eigenvalue(_scan_operator(a, lam, state_index, n_points), state_index)


def scan_curve(a: AmbiguitySet, lambda_range: tuple[float, float], samples: int, *,
               state_index: int = 1,
               n_points: int = SCAN_N_POINTS) -> list[tuple[float, float]]:
    """Sample the eigenvalue-versus-lambda curve over the range."""
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    lams = np.linspace(lo, hi, samples)
    return [(float(lam), float(scan_level(a, lam, state_index=state_index, n_points=n_points)))
            for lam in lams]


def heun_regime_scan(a: AmbiguitySet, energy_target: float,
                     lambda_range: tuple[float, float], *, state_index: int = 1,
                     n_points: int = SCAN_N_POINTS, lambda_tol: float = 1e-6,
                     curve_samples: int = 9) -> tuple[float, float]:
    """Find lambda* with E_index(lambda*) = energy_target by bisection.

    The tracked eigenvalue decreases monotonically in lambda (the potential
    decreases pointwise).  Each step only asks on which side of the target
    the level lies: E_index(lambda) > target exactly when at most
    state_index eigenvalues of the ring lie at or below the target, which
    LAPACK's Sturm count (:func:`eigensolve.count_below`) answers in O(n)
    per parity sector without solving for the level.  The same test at the range
    ends either brackets the root or proves there is none; NoRoot then
    carries the sampled curve for diagnosis.  The one eigenvalue solve is
    the residual at the end.  Returns (lambda*, |E(lambda*) - energy_target|).
    """
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if lo > hi:
        raise DomainError(f"lambda range is inverted: ({lo}, {hi})")
    if lo == hi:
        raise NoRoot(
            f"degenerate lambda range [{lo}, {hi}]",
            curve=[(lo, scan_level(a, lo, state_index=state_index, n_points=n_points))],
        )

    def level(lam: float) -> float:
        return scan_level(a, lam, state_index=state_index, n_points=n_points)

    def above_target(lam: float) -> bool:
        op = _scan_operator(a, lam, state_index, n_points)
        return count_below(op, energy_target) <= state_index

    if not above_target(lo) or above_target(hi):
        curve = scan_curve(a, (lo, hi), curve_samples,
                           state_index=state_index, n_points=n_points)
        # the curve holds both range ends unless it has fewer than two samples
        sampled = dict(curve)
        e_lo = sampled[lo] if lo in sampled else level(lo)
        e_hi = sampled[hi] if hi in sampled else level(hi)
        raise NoRoot(
            f"eigenvalue curve spans [{e_hi}, {e_lo}] over the range and does "
            f"not cross {energy_target}",
            curve=curve,
        )
    for _ in range(200):
        if hi - lo <= lambda_tol:
            break
        mid = 0.5 * (lo + hi)
        if above_target(mid):
            lo = mid
        else:
            hi = mid
    lam_star = 0.5 * (lo + hi)
    return lam_star, abs(level(lam_star) - energy_target)


def angular_confined_levels(a: AmbiguitySet, lam: float, k: int = 1, *,
                            delta: float = 1e-3, n_points: int = 2000):
    """Low angular levels of the wall-confined cos^2 problem, with delta sensitivity.

    The divergence of the effective potential at q = +/-1 confines the state;
    hard Dirichlet walls are placed at +/-(1 - delta) and the returned
    sensitivity is the per-level shift when delta is doubled, quantifying the
    wall placement error empirically.
    """
    problem = angular_problem(SeparableModel(CosSquaredProfile(), None, a), lam)

    def levels(dlt: float) -> np.ndarray:
        grid = Grid(-1.0 + dlt, 1.0 - dlt, n_points, DIRICHLET)
        op = discretize(problem.effective_potential, grid, prefactor=0.5)
        return np.array([eigenvalue(op, j) for j in range(k)])

    w = levels(delta)
    w2 = levels(2.0 * delta)
    return w, np.abs(w - w2)


# ---------------------------------------------------------------------------
# degeneracy analysis


def degeneracy_report(records, *, tol: float = 1e-9) -> list[DegeneracyGroup]:
    """Group records by energy (relative 1e-9) and explain each degeneracy.

    Recognized explanations: magnetic pairs m = +/-|m|, orderings related by
    an alpha-gamma swap, and distinct orderings sharing the ambiguity
    bracket.  Groups without a recognized relation are labeled unexplained.
    """
    records = list(records)
    if not records:
        raise DomainError("no records to analyze")
    order = sorted(range(len(records)), key=lambda i: (records[i].energy, i))
    groups = []
    current = [order[0]]
    for idx in order[1:]:
        e_ref = records[current[0]].energy
        e_new = records[idx].energy
        if abs(e_new - e_ref) <= tol * max(1.0, abs(e_new), abs(e_ref)):
            current.append(idx)
        else:
            groups.append(current)
            current = [idx]
    groups.append(current)

    out = []
    for group in groups:
        members = [records[i] for i in group]
        explanations = []
        for i, ri in enumerate(members):
            for rj in members[i + 1:]:
                if (
                    ri.qn.m == -rj.qn.m
                    and ri.qn.m != 0
                    and ri.qn.n_rho == rj.qn.n_rho
                    and abs(ri.lam - rj.lam) <= 1e-12 * max(1.0, abs(ri.lam))
                ):
                    label = f"magnetic pair m = +/-{abs(ri.qn.m)}"
                    if label not in explanations:
                        explanations.append(label)
                if ri.ordering is not None and rj.ordering is not None and ri.ordering != rj.ordering:
                    oi, oj = ri.ordering, rj.ordering
                    if oi.alpha == oj.gamma and oi.gamma == oj.alpha and oi.beta == oj.beta:
                        label = "alpha-gamma swap of the ordering"
                    elif abs(bracket(oi) - bracket(oj)) <= 1e-12:
                        label = "distinct orderings with equal ambiguity bracket"
                    else:
                        continue
                    if label not in explanations:
                        explanations.append(label)
        if len(members) > 1 and not explanations:
            explanations.append("unexplained within the tracked quantum numbers")
        out.append(
            DegeneracyGroup(
                energy=float(members[0].energy),
                records=tuple(members),
                explanations=tuple(explanations),
            )
        )
    return out


# ---------------------------------------------------------------------------
# serialization


def record_to_row(record: SpectrumRecord) -> dict:
    """Row projection with a fixed key order shared by JSON and CSV output."""
    row = {
        "n_rho": record.qn.n_rho,
        "m": record.qn.m,
        "lambda": record.lam,
        "energy_closed": record.energy_closed,
        "energy_numeric": record.energy_numeric,
        "delta": record.delta,
        "provenance": record.provenance,
    }
    if record.convergence_estimate is not None:
        row["convergence_estimate"] = record.convergence_estimate
    if record.note:
        row["note"] = record.note
    return row


CSV_COLUMNS = ("n_rho", "m", "lambda", "energy_closed", "energy_numeric", "delta", "provenance")


def records_to_csv(records) -> str:
    """CSV table with the documented column set."""
    return to_csv(CSV_COLUMNS, [[record_to_row(r).get(c) for c in CSV_COLUMNS] for r in records])
