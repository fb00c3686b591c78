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

The two radial families are declared once each, on their potential classes
(:class:`.separation.ExactRadial`); the spectrum tables, the verify sweeps
(of the radial equation that ``effpot`` prints) and the radial wavefunction
all read the potential object.  The closed states are the 3D hydrogen and
isotropic-oscillator states at l = ell - 1/2, Laguerre polynomials
normalized in closed form.

Every closed spectral value is cross-checked against the finite-difference
solver, which plays the independent-oracle role, and so is every closed
state, against its eigenvectors (:func:`verify_sweep` makes both checks in
one sweep).  The cos^2-profile system supplies the Bessel radial solution
and the zero-potential angular line E = m^2/2, the levels of the scan ring
(:func:`scan_level`) at the gate point lambda = -3/4; away from that line
the (E, lambda) pairing is explored numerically by :func:`heun_regime_scan`
instead of through closed special functions.

The closed forms run on Python floats; numpy is imported on the first
array, by a numeric path or a closed state (:class:`._lazy.LazyNumpy`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

from ._lazy import LazyNumpy
from .ambiguity import AmbiguitySet
from .eigensolve import (
    DIRICHLET,
    PERIODIC,
    DiscretizedOperator,
    Grid,
    count_below,
    discretize,
    eigen_lowest,
    eigenvalue,
    eigenvalue_slope,
    rayleigh_eigenpair,
    richardson,
)
from .errors import DomainError, NoRoot
from .separation import (
    CoulombLike,
    ExactRadial,
    FlatProfile,
    OscillatorLike,
    coulomb_lambda,
    coulomb_rho_max,
    oscillator_lambda,
    radial_potential,
    zeta_coefficients,
)
from .specfun import bessel_j

np = LazyNumpy(globals())

# default grid sizes: the radial Dirichlet grid of the verify sweeps, and the
# scan ring (n_points % 4 == 2, see scan_level)
RADIAL_N_POINTS = 4000
SCAN_N_POINTS = 2050
# heun_regime_scan's residual bisects the level at its root within
# COARSE_WINDOW * |energy_target| of the target
COARSE_WINDOW = 2e-2
# relative energy gap within which degeneracy_report groups two records
_DEGENERACY_RTOL = 1e-9


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
    """One spectrum entry, closed or checked: a checked one also carries the
    solver's ``energy_numeric`` and whether the solve from its closed state
    ``certified`` its index (None where nothing was solved); ``state_error``
    is None unless the level's state was checked (:func:`verify_sweep`).
    ``delta``, ``provenance`` and ``energy`` follow from the energies."""

    qn: QuantumNumbers
    lam: float
    energy_closed: float | None = None
    energy_numeric: float | None = None
    convergence_estimate: float | None = None
    note: str = ""
    state_error: float | None = None
    certified: bool | None = None

    @property
    def delta(self) -> float | None:
        """The absolute closed-versus-numeric difference, None unless both exist."""
        if self.energy_closed is None or self.energy_numeric is None:
            return None
        return abs(self.energy_closed - self.energy_numeric)

    @property
    def provenance(self) -> str:
        return "closed-form" if self.energy_numeric is None else "both"

    @property
    def energy(self) -> float:
        """What the solver found when it ran, else the closed value."""
        return self.energy_numeric if self.energy_numeric is not None else self.energy_closed


@dataclass(frozen=True)
class DegeneracyGroup:
    energy: float
    records: tuple
    explanations: tuple


# ---------------------------------------------------------------------------
# closed forms


flat_energy = FlatProfile.energy


def coulomb_energy(a: AmbiguitySet, b: float, qn: QuantumNumbers) -> float:
    """E = (1/2)[m^2 - (b - n_rho - 1/2)^2 + 1] - bracket, for b > n_rho + 1/2."""
    return flat_energy(a, qn.m, coulomb_lambda(b, qn.n_rho))


def oscillator_energy(a: AmbiguitySet, a_param: float, d: float, qn: QuantumNumbers) -> float:
    """E = (1/2)[m^2 - (d/a - 2 n_rho - 1)^2 + 1] - bracket, for d/a > 2 n_rho + 1."""
    return flat_energy(a, qn.m, oscillator_lambda(a_param, d, qn.n_rho))


# ---------------------------------------------------------------------------
# numeric levels (the independent oracle)


def _operator(v: ExactRadial, lam: float, grid: Grid) -> DiscretizedOperator:
    """The radial equation at lam on the grid plus the closed value eps, so that
    its level sits at eps, not 0, and is compared with eps directly."""
    effective, closed = radial_potential(v, lam), v.closed
    return discretize(lambda r: effective(r) + closed, grid)


def _check_index(n_points: int, top: int) -> None:
    # the index rule reads only n_points, so it is checked on a unit interval
    # before the wall, which a Coulomb b = n_rho + ell + 1/2 <= 0 would empty
    Grid(0.0, 1.0, n_points, DIRICHLET).check_index(top, "n_rho")


def _check_order(ell: float) -> None:
    if not ell > 0:
        raise DomainError(f"need a radial order ell > 0, got {ell}")


def _level(v: ExactRadial, n_rho: int, lam: float, ell: float, grid: Grid) -> tuple:
    """Level n_rho as (n_rho, lambda, operator, state) on the grid, the closed
    state sampled on its points, once the level's order ell is checked."""
    _check_order(ell)  # 0 when lambda = t^2 - 1 rounds to -1
    return n_rho, lam, _operator(v, lam, grid), v.state(n_rho, grid.points)


def _sweep(v: ExactRadial, n_rho_max: int, n_points: int, rho_max: float | None):
    """Each level of a sweep as :func:`_level`'s tuple on the sweep's one wall
    grid.  The top index is checked before any level is computed; an operator
    is built when its level is reached, so one level's is held at a time."""
    if n_rho_max >= 0:  # a negative one is refused by levels, in its own words
        _check_index(n_points, n_rho_max)
    levels = v.levels(n_rho_max)
    grid = Grid(0.0, v.wall(rho_max), n_points, DIRICHLET)
    for level in levels:
        yield _level(v, *level, grid)


def _lone_level(potential: Callable[[], ExactRadial], ell: float, n_rho: int, n_points: int,
                rho_max: float | None) -> tuple[float, float]:
    """(eigenvalue, convergence_estimate) of :func:`_level` n_rho of the potential
    whose level n_rho has radial order ell, on its own wall grid.  ell and n_rho
    are checked first, and only then is ``potential()`` built, since a bad ell
    or n_rho can empty the level's own b."""
    _check_order(ell)
    _check_index(n_points, n_rho)
    v = potential()
    grid = Grid(0.0, v.wall(rho_max), n_points, DIRICHLET)
    record = _record(v, *_level(v, n_rho, *v.level(n_rho), grid))
    return record.energy_numeric, record.convergence_estimate


def coulomb_numeric_level(ell: float, n_rho: int, *, n_points: int = RADIAL_N_POINTS,
                          rho_max: float | None = None) -> tuple[float, float]:
    """Index-n_rho eigenvalue of -U'' + [(ell^2 - 1/4)/rho^2 - 2/rho] U = eps U.

    The exact level is -1/nu^2 with nu = n_rho + ell + 1/2, the level's own
    b; the default wall is :func:`coulomb_rho_max` of nu.
    """
    return _lone_level(lambda: CoulombLike(1.0 / (n_rho + ell + 0.5)), ell, n_rho,
                       n_points, rho_max)


def oscillator_numeric_level(a_param: float, ell: float, n_rho: int, *,
                             n_points: int = RADIAL_N_POINTS,
                             rho_max: float | None = None) -> tuple[float, float]:
    """Index-n_rho eigenvalue of -U'' + [(l^2-1/4)/rho^2 + a^2 rho^2/4] U = d U.

    The exact level is the potential's d = a (2 n_rho + ell + 1).
    """
    return _lone_level(lambda: OscillatorLike(a_param, a_param * (2.0 * n_rho + ell + 1.0)),
                       ell, n_rho, n_points, rho_max)


def _record(v: ExactRadial, n_rho: int, lam: float, op: DiscretizedOperator,
            state: np.ndarray) -> SpectrumRecord:
    """The family's closed spectral value against level n_rho's numeric one,
    Richardson-refined from op's grid and its refined one.

    Each grid's level comes from :func:`rayleigh_eigenpair`: at h from the
    closed state sampled on op's grid, at h/2 from the eigenvector at h
    prolonged onto the refined grid.  A step that fails falls back to the
    index search on its grid.  A level whose step from its closed state does
    not certify index n_rho is not ``certified``, and its note says so."""
    closed = v.closed
    fine_op = _operator(v, lam, op.grid.refined())
    coarse = rayleigh_eigenpair(op, n_rho, state)
    certified = coarse is not None
    if certified:
        fine = rayleigh_eigenpair(fine_op, n_rho, op.grid.prolong(coarse[1]))
        levels = coarse[0], eigenvalue(fine_op, n_rho) if fine is None else fine[0]
    else:
        levels = eigenvalue(op, n_rho), eigenvalue(fine_op, n_rho)
    numeric, conv = richardson(*levels)
    return SpectrumRecord(
        qn=QuantumNumbers(n_rho, 0),
        lam=lam,
        energy_closed=closed,
        energy_numeric=numeric,
        convergence_estimate=conv,
        note=v.note if certified else (f"{v.note}; the solve from the closed state "
                                       f"did not certify index {n_rho}"),
        certified=certified,
    )


def _state_error(n_rho: int, op: DiscretizedOperator, state: np.ndarray) -> float:
    """h-weighted L2 distance of one sweep level's closed state, sampled on
    op's grid, and the index-n_rho eigenvector of op, signed to agree with it."""
    numeric = eigen_lowest(op, n_rho + 1).eigenvectors[:, n_rho]
    numeric = math.copysign(1.0, numeric @ state) * numeric
    return math.sqrt(op.grid.h * float(np.sum((numeric - state) ** 2)))


def verify_family(v: ExactRadial, n_rho_max: int, *, n_points: int = RADIAL_N_POINTS,
                  rho_max: float | None = None) -> list[SpectrumRecord]:
    """Closed-form-versus-numeric sweep over n_rho = 0..n_rho_max.

    For each n_rho the closed spectral value is set against the
    index-n_rho eigenvalue of :func:`_operator` at lambda(n_rho), all inside
    one wall (default: the family's).  Each record carries the absolute
    difference; use :func:`all_within` to gate on a tolerance.  A negative
    n_rho_max, which would sweep no level and pass vacuously, raises
    DomainError before any solve, as does everything else :func:`_sweep`
    refuses.
    """
    return [_record(v, *level) for level in _sweep(v, n_rho_max, n_points, rho_max)]


def verify_sweep(v: ExactRadial, n_rho_max: int, *, n_points: int = RADIAL_N_POINTS,
                 rho_max: float | None = None) -> list[SpectrumRecord]:
    """:func:`verify_family`'s records and refusals, bit for bit, each record
    with its ``state_error``: the h-weighted L2 distance of the level's
    unit-norm closed state and the index-n_rho eigenvector of its unrefined
    operator, signed to agree with it (near 1 or above where the grid or the
    wall does not hold the state).  One operator and one sampled closed state
    per level serve both: the state starts the level's solve and is checked."""
    return [replace(_record(v, n_rho, lam, op, state),
                    state_error=_state_error(n_rho, op, state))
            for n_rho, lam, op, state in _sweep(v, n_rho_max, n_points, rho_max)]


def verify_coulomb(b: float, n_rho_max: int, tol: float, *,
                   n_points: int = RADIAL_N_POINTS,
                   rho_max: float | None = None) -> list[SpectrumRecord]:
    """Sweep of the Coulomb-like levels of omega = 1/b; closed value -omega^2.

    omega is read from the quantization omega = 1/(n_rho + l + 1) with
    l(l+1) = 3/4 + lambda, i.e. omega = 1/(n_rho + ell + 1/2).  Every level
    has nu = b, so the default wall is :func:`coulomb_rho_max` of b.  A b
    that is not > 0 raises DomainError.  ``tol`` is accepted for the
    caller's gate and not used here.
    """
    if not b > 0:
        raise DomainError(f"need b > 0, got {b}")
    return verify_family(CoulombLike(1.0 / b), n_rho_max, n_points=n_points, rho_max=rho_max)


def verify_oscillator(a_param: float, d: float, n_rho_max: int, tol: float, *,
                      n_points: int = RADIAL_N_POINTS,
                      rho_max: float | None = None) -> list[SpectrumRecord]:
    """Sweep of the oscillator-like levels; closed value d, the same on every level.

    ``tol`` is accepted for the caller's gate and not used here.
    """
    return verify_family(OscillatorLike(a_param, d), n_rho_max,
                         n_points=n_points, rho_max=rho_max)


def all_within(records, tol: float) -> bool:
    """True when every delta present is <= tol, no solve failed to certify its
    index from the level's closed state, and every state error present is
    below 1/2, half the distance of the zero function from a unit
    eigenvector: a grid or wall that does not hold the closed state checked
    nothing, however small its delta (resolved grids measure <= 0.2)."""
    return all((r.delta is None or r.delta <= tol) and r.certified is not False
               and (r.state_error is None or r.state_error < 0.5) for r in records)


# ---------------------------------------------------------------------------
# cos^2 toy system


def toy_radial_solution(n, rho: float) -> float:
    """Radial factor R_n(rho) = J_n(rho) / rho of the Bessel-solvable well."""
    rho = float(rho)
    if rho <= 0.0:
        raise DomainError(f"need rho > 0, got {rho}")
    return bessel_j(n, rho) / rho


@functools.lru_cache(maxsize=1)
def _ring_factors(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sin^2 x, cos^4 x and cos x (:func:`heun_regime_scan`'s congruence) at
    the ring's points, read-only.

    lambda enters the scan potential only through its two zeta coefficients,
    so a scan samples the trig once per ring, not once per lambda.
    """
    x = grid.points
    c = np.cos(x)
    factors = np.sin(x) ** 2, c**4, c
    for factor in factors:
        factor.flags.writeable = False
    return factors


def _scan_operator(a: AmbiguitySet, lam: float, state_index: int, n_points: int):
    """The discretized ring of :func:`scan_level`, built after its guards.

    Its potential is the cos^2-profile (z1 sin^2 x - z2)/cos^4 x, formed from
    the ring's sampled factors (:func:`discretize` calls it on the points
    where they were sampled), the operations in the closed expression's order.
    """
    if n_points % 4 != 2:
        raise DomainError(
            f"scan rings need n_points % 4 == 2 to keep nodes off the mass zeros, got {n_points}"
        )
    grid = Grid(0.0, 2.0 * math.pi, n_points, PERIODIC)
    grid.check_index(state_index, "state_index")
    z1, z2 = zeta_coefficients(a, lam)
    s2, c4, _ = _ring_factors(grid)
    return discretize(lambda x: (z1 * s2 - z2) / c4, grid, prefactor=0.5)


def scan_level(a: AmbiguitySet, lam: float, *, state_index: int = 1,
               n_points: int = SCAN_N_POINTS,
               near: tuple[float, float] | None = None) -> float:
    """Eigenvalue of given index of the periodic angular problem at lambda.

    The ring (0, 2pi) keeps the zero-potential limit exact: at the point
    where both potential coefficients vanish the levels are m^2/2.  The
    default point count keeps grid nodes half a spacing away from the mass
    zeros at pi/2 and 3pi/2; that holds exactly when n_points % 4 == 2 (a
    multiple of 4 puts a node on a zero, an odd count breaks the parity
    split), so any other count raises DomainError, as do fewer than 16
    points and a state_index that :meth:`Grid.check_index` refuses.  At the
    gate a level m^2/2 reads the ring's (1 - cos mh)/h^2, low by
    1 - (sin(mh/2)/(mh/2))^2: 5.0% at the top admitted index.

    ``near=(guess, width)`` bisects the level by value in one window about
    the guess, certified by a Sturm count, before any search by index (see
    :func:`eigensolve.eigenvalue`): :func:`scan_curve` passes it for every
    point after the first, and :func:`heun_regime_scan` for the level at its
    root.  Without it, the level is searched by index.
    """
    return eigenvalue(_scan_operator(a, lam, state_index, n_points), state_index, near=near)


def _scan_level_slope(a: AmbiguitySet, lam: float, state_index: int,
                      n_points: int) -> tuple[float, float]:
    """:func:`scan_level`'s level at lambda, searched by index, and its slope
    dE/dlambda = -(1/2) <psi| C^-2 |psi>: the ring changes at the rate
    dT/dlambda = -(1/2) C^-2, C = diag(cos x) (see :func:`heun_regime_scan`)."""
    op = _scan_operator(a, lam, state_index, n_points)
    c = _ring_factors(op.grid)[2]
    return eigenvalue_slope(op, state_index, -0.5 / c**2)


def scan_curve(a: AmbiguitySet, lambda_range: tuple[float, float], samples: int, *,
               state_index: int = 1,
               n_points: int = SCAN_N_POINTS) -> list[tuple[float, float]]:
    """Sample the eigenvalue-versus-lambda curve over the range.

    The first point is searched by index, and the same search gives its
    slope dE/dlambda (:func:`_scan_level_slope`).  Each later point is first
    bisected by value in a window about the previous point moved by one
    step, ``E[i-1] + step``, of half-width ``|step|``: the step is the
    slope times the lambda spacing for the second point, ``E[i-1] - E[i-2]``
    for the others.  A window that does not hold the level falls back to
    the index search, so every point is the index search's level to within
    the bisection tolerance, 4 eps ||T||inf of the ring.  A range with equal
    ends, or a single sample, solves its one level once, by index.
    """
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    lams = [float(lam) for lam in np.linspace(lo, hi, samples)]
    if lo == hi and lams:
        return [(lo, scan_level(a, lo, state_index=state_index, n_points=n_points))] * samples
    if len(lams) < 2:
        return [(lam, scan_level(a, lam, state_index=state_index, n_points=n_points))
                for lam in lams]
    energy, slope = _scan_level_slope(a, lams[0], state_index, n_points)
    energies = [energy]
    step = slope * (lams[1] - lams[0])
    for lam in lams[1:]:
        energies.append(scan_level(a, lam, state_index=state_index, n_points=n_points,
                                   near=(energies[-1] + step, step)))
        step = energies[-1] - energies[-2]
    return list(zip(lams, energies))


def heun_regime_scan(a: AmbiguitySet, energy_target: float,
                     lambda_range: tuple[float, float], *, state_index: int = 1,
                     n_points: int = SCAN_N_POINTS, curve_samples: int = 9) -> tuple[float, float]:
    """Find lambda* in (lo, hi] with E_index(lambda*) = energy_target by one solve.

    lambda enters linearly: the ring at lambda is T(lo) - ((lambda - lo)/2) C^-2,
    C = diag(cos x).  By Sylvester's law of inertia T(lambda) - E and
    M - ((lambda - lo)/2) I, M = C (T(lo) - E) C, have as many negative
    eigenvalues, so E_index(lambda) > E exactly when lambda < lo + 2 mu_index,
    mu being the eigenvalues of the ring M (B. N. Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998).  So the level falls monotonically in
    lambda, and a root exists exactly when lo < lambda* = lo + 2 mu_index <= hi.

    That is decided by the Sturm counts of the ring at the two range ends
    (:func:`eigensolve.count_below`), with no solve: a root exists exactly
    when at most state_index levels lie at or below the target at lo, and
    more at hi; else NoRoot carries the sampled curve.  mu is then bisected
    by value in the window (0, (hi - lo)/2], and lambda* = lo + 2 mu is kept
    in (lo, hi], where the counts put it, should the bisection's tolerance
    put it just outside.  Returns (lambda*, |E(lambda*) - energy_target|),
    the residual being one level solve, bisected in a window of half-width
    ``COARSE_WINDOW * |energy_target|`` about the target, which holds the
    level unless the residual is larger.  A window that misses falls back
    to the search by index.  A target or a range end that is not finite
    raises DomainError before any solve.

    lambda* is resolved to about 8 eps ||M||inf, about 4e-10 at n_points =
    2050 for the gate ordering and bendaniel-duke alike.  The residual keeps
    the ring's bisection tolerance of about 4 eps ||T||inf (its ``floor``,
    the narrowest window, is 10 eps ||T||inf): about 1.9e-10 for the gate, but
    about 1e-4 for bendaniel-duke, whose ring has ||T||inf = 1.13e11; a
    smaller residual (6.3e-6 for an energy target 1.5 on (-2, 1)) is below
    what the ring resolves.
    """
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if not math.isfinite(energy_target):
        raise DomainError(f"the energy target must be finite, got {energy_target}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"the lambda range must be finite, got ({lo}, {hi})")
    if lo > hi:
        raise DomainError(f"lambda range is inverted: ({lo}, {hi})")

    def level(lam: float, near: tuple[float, float] | None = None) -> float:
        return scan_level(a, lam, state_index=state_index, n_points=n_points, near=near)

    def above(op: DiscretizedOperator) -> bool:
        """The level lies above the target on the ring: at most state_index at or below it."""
        return count_below(op, energy_target) <= state_index

    op = _scan_operator(a, lo, state_index, n_points)
    if not (above(op) and not above(_scan_operator(a, hi, state_index, n_points))):
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
    c = _ring_factors(op.grid)[2]
    congruent = DiscretizedOperator((op.diagonal - energy_target) * c**2,
                                    op.off_diagonal * c[:-1] * c[1:], op.grid)
    # mu in (0, (hi - lo)/2] is tried first; quartering first keeps hi - lo from overflowing
    quarter = 0.25 * hi - 0.25 * lo
    mu = eigenvalue(congruent, state_index, near=(quarter, quarter))
    # the counts put lambda* in (lo, hi]; lo + 2 mu may fall just outside at a range end
    lam_star = min(max(lo + 2.0 * mu, math.nextafter(lo, hi)), hi)
    e_star = level(lam_star, (energy_target, COARSE_WINDOW * abs(energy_target)))
    return lam_star, abs(e_star - energy_target)


# ---------------------------------------------------------------------------
# degeneracy analysis


def degeneracy_report(records) -> list[DegeneracyGroup]:
    """Group records by energy (relative 1e-9) and explain each degeneracy.

    The records are sorted by energy, ties kept in their given order, and each
    group holds the records within the tolerance of its first one.  The one
    recognized explanation is a magnetic pair m = +/-k at equal n_rho and
    lambda, lambda compared exactly: every record of one level carries the
    lambda of one ``lam(n_rho)`` call, bit for bit.  Pairs are labeled in
    ascending k; a group of several records without one is labeled
    unexplained.
    """
    records = sorted(records, key=lambda r: r.energy)
    if not records:
        raise DomainError("no records to analyze")
    groups = [[records[0]]]
    for record in records[1:]:
        e_ref, e_new = groups[-1][0].energy, record.energy
        if abs(e_new - e_ref) <= _DEGENERACY_RTOL * max(1.0, abs(e_new), abs(e_ref)):
            groups[-1].append(record)
        else:
            groups.append([record])

    out = []
    for members in groups:
        keys = {(r.qn.n_rho, r.lam, r.qn.m) for r in members}
        pairs = sorted({m for n_rho, lam, m in keys if m > 0 and (n_rho, lam, -m) in keys})
        explanations = [f"magnetic pair m = +/-{m}" for m in pairs]
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
    if record.state_error is not None:
        row["state_error"] = record.state_error
    return row


CSV_COLUMNS = ("n_rho", "m", "lambda", "energy_closed", "energy_numeric", "delta", "provenance")
