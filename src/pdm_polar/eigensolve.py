"""Finite-difference discretization and symmetric tridiagonal eigensolver.

Second-order central differences of -c d^2/dx^2 + V(x) on a uniform grid,
with two boundary treatments:

* dirichlet: endpoints excluded, x_i = x_min + (i+1) h, h = L / (n+1);
* periodic:  x_i = x_min + i h, h = L / n; the corner entries that close
  the ring equal the first off-diagonal entry.

Six requests reach LAPACK: the lowest k eigenpairs (:func:`eigen_lowest`,
and :func:`refine` over it), one eigenvalue by index (:func:`eigenvalue`),
the same with the eigenvalue's rate of change (:func:`eigenvalue_slope`,
which asks for one vector), the eigenvalues in a window certified by a
Sturm count (``_window``, which :func:`eigenvalue` tries once when given a
guess, as the lambda scan gives it), the Sturm count at or below a value
(:func:`count_below`) and one eigenpair by Rayleigh-quotient iteration from
a trial vector (:func:`rayleigh_eigenpair`).  The four that bisect go
through one call site, ``_lapack``, which calls LAPACK's Sturm-sequence
bisection (``?stebz``), plus inverse iteration (``?stein``) for vectors,
directly, with the arguments :func:`scipy.linalg.eigh_tridiagonal` would
pass, without its per-call checks (Barth, Martin & Wilkinson, Numer. Math.
9, 386 (1967); B. N. Parlett, The Symmetric Eigenvalue Problem (SIAM,
1998)).  A count goes through ``_count``, which counts the non-positive
pivots of one LDL^T factorization (``?pttrf``) by Sylvester's law of
inertia: one pass, where ``?stebz`` would make four to return the same
number.  The Rayleigh-quotient step solves one shifted tridiagonal system
(``?gtsv``) and certifies its level with two counts.  The four routines are
scipy's own ``dstebz``, ``dstein``, ``dpttrf`` and ``dgtsv``, read on the
first request from its compiled LAPACK extension ``scipy/linalg/_flapack``
(``_flapack``), which is loaded from its file without importing the
``scipy`` or ``scipy.linalg`` packages: those package imports cost a cold
process several times what the solves of one command do.  Code that never
solves does not load the extension either.

The operator owns what every request reads, made once and kept on it:
``inf_norm``, the bisection ``floor`` and the ``sectors``, where the
boundary is decided.  A Dirichlet operator is one symmetric tridiagonal on
every node; a ring splits into its even and odd reflection-parity sectors,
each a plain symmetric tridiagonal on its own nodes.  The split keeps the
kernel purely tridiagonal and makes the double degeneracy of travelling-wave
pairs explicit.  It requires the diagonal and the off-diagonal to be
reflection symmetric about x_min, which holds for every ring this package
builds.  The requests by value and by index run over the sectors and merge
what they return.  Eigenpairs are returned on Dirichlet grids only, so
:func:`eigen_lowest` refuses a ring; a ring's vector is computed only inside
:func:`eigenvalue_slope`, on the one sector that holds the level.

:func:`eigenvalue` searches the whole spectrum for its index, from the
Gershgorin interval, in every sector.  Given a guess and a width, it first
bisects by value in one window about the guess and searches by index only
if that window does not hold the level.  The lambda scan passes a level's
previous value moved by one step, and one step; its root residual passes the
energy target and a fixed fraction of it.  The window is certified by a
Sturm count, so a poor guess costs one index search, never a wrong level;
the value differs from the index search's only within the bisection
tolerance, about 4 eps ||T||inf.  The count and the bisection round
differently, so a window with a level within rounding of its lower end also
falls back to the index search (``_window``).  So the lambda scan searches by
index only for the first point of a curve, which has no neighbour (and whose
search also gives the slope that seeds the second point), and where a window
misses.

:func:`rayleigh_eigenpair` is the verify sweeps' solve, on Dirichlet
operators only, and bisects nothing.  From a trial near the level's
eigenvector (a closed state sampled on the grid, or the eigenvector of a
coarser grid prolonged onto it) one ``dgtsv`` solve, two when the residual
asks, gives the level's value and vector, and two pivot counts certify its
index.  The value is a Rayleigh quotient, so it is not held at the
bisection tolerance: where that tolerance is wider than the discretization
error (n of about 2e4 and up on the verify domains) it lies nearer the
closed value than the index search's.  A step that fails or does not
certify returns None, and the caller searches by index.

A caller that only needs to know on which side of a value a level lies
should use :func:`count_below`, as the lambda scan does to decide whether a
root exists: one LDL^T pass per sector, O(n), with no bisection towards any
eigenvalue.

``dgtsv`` and ``dpttrf`` overwrite their inputs, and are called with their
overwrite flags set on rows of one scratch block that each request
allocates for itself: six rows for a Rayleigh step, whose two counts reuse
its first three, and three for a lone count.  The operator's arrays are
only read, and the vector a step returns is a copy, so no buffer outlives
its request: the module and the operator keep no scratch, and threads may
share an operator.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

from ._lazy import LazyNumpy
from .errors import DomainError

np = LazyNumpy(globals())

DIRICHLET = "dirichlet"
PERIODIC = "periodic"

POTENTIAL_CAP = 1e12

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
# no window is narrower than the operator's floor, _WINDOW_FLOOR eps ||T||inf:
# wide enough that a window centred on its level keeps the level's value clear
# of the margin about its lower end (_window)
_WINDOW_FLOOR = 10.0


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on (x_min, x_max) with the boundary-dependent point layout."""

    x_min: float
    x_max: float
    n_points: int
    boundary: str = DIRICHLET

    def __post_init__(self):
        if self.boundary not in (DIRICHLET, PERIODIC):
            raise DomainError(f"unknown boundary {self.boundary!r}")
        if self.n_points < 16:
            raise DomainError(f"need at least 16 points, got {self.n_points}")
        if not self.x_max > self.x_min:
            raise DomainError(f"empty interval ({self.x_min}, {self.x_max})")
        if self.boundary == PERIODIC and self.n_points % 2 != 0:
            raise DomainError("periodic grids need an even point count (parity split)")

    @property
    def h(self) -> float:
        length = self.x_max - self.x_min
        if self.boundary == DIRICHLET:
            return length / (self.n_points + 1)
        return length / self.n_points

    @functools.cached_property
    def points(self) -> np.ndarray:
        """Made once and kept read-only, so every reader of a grid samples one array."""
        start = 1 if self.boundary == DIRICHLET else 0
        points = self.x_min + self.h * np.arange(start, start + self.n_points)
        points.flags.writeable = False
        return points

    def refined(self) -> "Grid":
        """The grid with spacing h/2 under the same boundary convention."""
        if self.boundary == DIRICHLET:
            return Grid(self.x_min, self.x_max, 2 * self.n_points + 1, self.boundary)
        return Grid(self.x_min, self.x_max, 2 * self.n_points, self.boundary)

    def prolong(self, values: np.ndarray) -> np.ndarray:
        """Values on a Dirichlet grid's points, linearly interpolated onto the
        points of :meth:`refined`, where point i is point 2i + 1 and the
        walls hold zero; a ring raises DomainError."""
        if self.boundary != DIRICHLET:
            raise DomainError(f"prolong interpolates Dirichlet grids only, got {self.boundary!r}")
        fine = np.zeros(2 * self.n_points + 1)
        fine[1::2] = values
        fine[2:-1:2] = 0.5 * (values[:-1] + values[1:])
        fine[0], fine[-1] = 0.5 * values[0], 0.5 * values[-1]
        return fine

    def check_index(self, index: int, name: str = "index") -> None:
        """The solver's resolution rule, checked by every request by index before
        any solve: it resolves 0 <= index < n_points/4; DomainError otherwise."""
        if not 0 <= index < self.n_points // 4:
            raise DomainError(f"{self.n_points} grid points resolve 0 <= {name} < "
                              f"{self.n_points // 4}, got {name} = {index}")


@dataclass(frozen=True)
class DiscretizedOperator:
    """Symmetric tridiagonal matrix for -c u'' + V u; on a ring the corner
    entries that close it equal ``off_diagonal[0]``, their mirror image under
    the reflection about node 0 that the parity split requires.  Its norm,
    floor and sectors are made on first use and kept, so the requests of one
    solve share them."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    grid: Grid

    @property
    def n(self) -> int:
        return self.diagonal.shape[0]

    @functools.cached_property
    def inf_norm(self) -> float:
        """||T||inf, the largest absolute row sum, ring corners included."""
        off, row = np.abs(self.off_diagonal), np.abs(self.diagonal)
        row[:-1] += off
        row[1:] += off
        if self.grid.boundary == PERIODIC:
            row[0] += abs(self.off_diagonal[0])
            row[-1] += abs(self.off_diagonal[0])
        return float(np.max(row))

    @functools.cached_property
    def floor(self) -> float:
        """Half-width of the narrowest window bisected by value, 10 eps
        ||T||inf (``_window`` says why), or the smallest normal float for a
        zero operator."""
        return max(_WINDOW_FLOOR * _EPS * self.inf_norm, _TINY)

    @functools.cached_property
    def sectors(self):
        """(diagonal, off-diagonal, nodes) of each symmetric tridiagonal whose
        spectra together are the operator's: one on every node of a Dirichlet
        operator, a ring's two parity sectors (:func:`_parity_sectors`)."""
        if self.grid.boundary == PERIODIC:
            return _parity_sectors(self)
        return ((self.diagonal, self.off_diagonal, slice(None)),)

    def rayleigh(self, z: np.ndarray) -> float:
        """The Rayleigh quotient (z . T z) / (z . z), ring corners included; not
        finite for a zero z or one with a non-finite entry."""
        d, e = self.diagonal, self.off_diagonal
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            num = d @ z**2 + 2.0 * (e @ (z[:-1] * z[1:]))
            if self.grid.boundary == PERIODIC:
                num += 2.0 * e[0] * z[0] * z[-1]
            return float(num / (z @ z))


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues with unit discrete-L2 eigenvectors on a Dirichlet grid.

    ``eigenvectors[:, j]`` belongs to ``eigenvalues[j]`` and satisfies
    h * sum(v**2) = 1.  ``convergence_estimate`` is filled by :func:`refine`
    (absolute extrapolation delta per eigenvalue, None otherwise).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    grid: Grid
    convergence_estimate: np.ndarray | None = None


def discretize(potential, grid: Grid, *, prefactor: float = 1.0) -> DiscretizedOperator:
    """Central-difference matrix of -prefactor * d^2/dx^2 + V on the grid.

    ``potential`` is called once, on the array of grid points, and must be
    vectorized; a scalar-only function such as ``math.cos`` raises TypeError.
    Raises DomainError when |V| exceeds POTENTIAL_CAP (1e12) at a grid point
    or is not finite there, and when the spacing puts prefactor/h^2 outside
    the float range.
    """
    x = grid.points
    # a non-finite sample is refused just below, so numpy need not warn about it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = np.broadcast_to(np.asarray(potential(x), dtype=float), x.shape)
    bad = ~np.isfinite(v) | (np.abs(v) > POTENTIAL_CAP)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DomainError(
            f"potential is {float(v[i])!r} at x = {float(x[i])!r}; the solver needs "
            f"a finite |V| <= {POTENTIAL_CAP:g} at every grid point"
        )
    h = grid.h
    try:
        kin = prefactor / h**2
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(
            f"grid spacing {h!r} puts 1/h^2 outside the float range; resize the domain"
        ) from exc
    diag = 2.0 * kin + v
    off = np.full(grid.n_points - 1, -kin)
    return DiscretizedOperator(diag, off, grid)


@functools.cache
def _flapack():
    """scipy's compiled LAPACK extension ``scipy.linalg._flapack``, loaded on
    the first request without importing ``scipy`` or ``scipy.linalg``.

    The extension is found in the ``linalg`` directory of the ``scipy``
    package and loaded from its file.  A single-phase extension enters
    itself in ``sys.modules`` as it loads; that entry is taken out again
    unless scipy.linalg had already made it, so a later ``import
    scipy.linalg`` sets its submodule up as usual, with these same routine
    objects.  An extension that cannot be found raises ImportError naming
    the directories searched.
    """
    name = "scipy.linalg._flapack"
    package = importlib.util.find_spec("scipy")
    dirs = [os.path.join(d, "linalg") for d in (package.submodule_search_locations if package else [])]
    spec = importlib.machinery.PathFinder.find_spec(name, dirs)
    if spec is None:
        raise ImportError(f"LAPACK extension {name} not found in {dirs} (is scipy installed?)")
    loaded = name in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not loaded:
        sys.modules.pop(name, None)
    return module


def _lapack(diag: np.ndarray, off: np.ndarray, select: str, select_range, *,
            vectors: bool = False):
    """The one eigenvalue call site: ascending eigenvalues of one symmetric
    tridiagonal, indices lo..hi (``select="i"``) or values in (lo, hi]
    (``"v"``), and the vectors too if asked.

    The arguments are those :func:`scipy.linalg.eigh_tridiagonal` passes for
    the same request (1-based indices; LAPACK's default tolerance; vectors by
    inverse iteration on the block-ordered values, then sorted), without its
    per-call validation.
    """
    lo, hi = select_range
    if select == "i":
        bounds = (2, 0.0, 1.0, lo + 1, hi + 1)
    else:
        bounds = (1, lo, hi, 1, 1)
    m, w, block, split, info = _flapack().dstebz(diag, off, *bounds, 0.0, "B" if vectors else "E")
    if info != 0:  # pragma: no cover - degenerate cluster
        raise DomainError(f"?stebz failed (LAPACK info = {info})")
    w = w[:m]
    if not vectors:
        return w
    v, info = _flapack().dstein(diag, off, w, block, split)
    if info != 0:  # pragma: no cover - degenerate cluster
        raise DomainError(f"?stein: {info} eigenvectors failed to converge")
    order = np.argsort(w)
    return w[order], v[:, order]


def _count(diag: np.ndarray, off: np.ndarray, x: float, scratch: np.ndarray | None = None) -> int:
    """Number of eigenvalues of one symmetric tridiagonal T at or below x.

    By Sylvester's law of inertia this is the number of non-positive pivots
    D of T - xI = L D L^T.  LAPACK's ``dpttrf`` factors while the pivots
    stay positive and stops at the first one that is not, so the pivots are
    taken in runs of one sign: T - xI is factored while they are positive,
    xI - T while they are negative.  Where a run stops at pivot p, the next
    pivot, d_i - x - e_(i-1)^2 / p, is formed here and starts the run of its
    own sign.  That is one O(n) pass in all, in one call per run: one per
    lone negative pivot.  A zero pivot counts as at or below x and goes on
    as the smallest negative float, as ``?stebz``'s ``-pivmin`` does.

    ``dpttrf`` factors in place, in ``scratch``: three rows of at least n
    floats, which hold T - xI, xI - T and a copy of the off-diagonal that it
    overwrites with the multipliers.  A count without one allocates its own
    block; ``diag`` and ``off`` are only read.

    The count is exact for a matrix T + E (W. Kahan, Stanford CS41 (1966);
    J. Demmel, I. Dhillon & H. Ren, ETNA 3, 116 (1995)): each pivot rounds
    d_i - x once and e_(i-1)^2 / p three times, so E moves a diagonal entry
    by at most eps/2 |d_i - x| and an off-diagonal one by 3/4 eps |e_i|, and
    by Weyl's theorem no eigenvalue of T + E is further than
    ||E||inf <= eps (3/4 ||T||inf + |x| / 2) from T's.
    """
    dpttrf = _flapack().dpttrf
    n = len(diag)
    if scratch is None:
        scratch = np.empty((3, n))
    # T - xI, and xI - T for the negative runs
    frames = (np.subtract(diag, x, out=scratch[0, :n]), np.subtract(x, diag, out=scratch[1, :n]))
    # a one-row matrix takes one unused off-diagonal slot
    work = scratch[2, :n]
    work[:-1] = off
    work[-1] = 0.0
    start, sign, count = 0, 0, 0
    while True:
        run = frames[sign][start:]
        # overwrite_d and overwrite_e, passed by position: the call is most of the cost
        info = dpttrf(run, work[start:max(n - 1, start + 1)], 1, 1)[2]
        if info == 0:
            return count + sign * (n - start)
        pivot = -float(run[info - 1]) if sign else float(run[info - 1])
        if pivot == 0.0:
            pivot = -_TINY
        count += sign * (info - 1) + (pivot < 0.0)
        start += info
        if start == n:
            return count
        following = float(frames[0][start]) - float(off[start - 1]) ** 2 / pivot
        sign = int(following < 0.0)
        frames[sign][start] = abs(following)


def _parity_sectors(op: DiscretizedOperator):
    """(diagonal, off-diagonal, nodes) of the even and the odd reflection-parity sector.

    The even sector holds nodes 0..m (m = n/2), the odd one nodes 1..m-1, so
    both have more than n/4 rows and any index below n/4 exists in each.
    Both read the first half of the off-diagonal, the even one with its ends
    scaled by sqrt(2).  The diagonal is symmetrized about node 0 first; a
    diagonal or off-diagonal that is not reflection symmetric there (node i
    mirrors node n - i) raises DomainError.

    A sector's unit eigenvector y is the ring's unit eigenvector u on the
    sector's nodes, with u_i = y_i / sqrt(2) off nodes 0 and m and u_(n-i) =
    +u_i (even) or -u_i (odd); so sum(r[nodes] * y**2) = <u| r |u> for a
    reflection-symmetric r.
    """
    m = op.n // 2
    tail, off = op.diagonal[1:], op.off_diagonal
    mismatch = float(np.max(np.abs(np.concatenate([tail - tail[::-1], off[1:] - off[:0:-1]]))))
    if mismatch > 1e-6 * max(1.0, float(np.max(np.abs(op.diagonal)))):
        raise DomainError(
            "periodic solves need a reflection-symmetric potential about x_min "
            f"(max asymmetry {mismatch:.3e})"
        )
    diag = op.diagonal.copy()
    # halved before the sum, so that entries near the float limit cannot overflow
    diag[1:] = 0.5 * tail + 0.5 * tail[::-1]
    e_even = off[:m].copy()
    e_even[[0, -1]] *= math.sqrt(2.0)
    even, odd = slice(0, m + 1), slice(1, m)
    return (diag[even], e_even, even), (diag[odd], off[1 : m - 1], odd)


def eigen_lowest(op: DiscretizedOperator, k: int) -> EigenResult:
    """The k smallest eigenpairs of a Dirichlet operator.

    Eigenvectors are normalized to unit discrete L2 norm (h-weighted).  A
    ring has no eigenpairs here: ask :func:`eigenvalue` or
    :func:`count_below` for its levels.
    """
    if op.grid.boundary != DIRICHLET:
        raise DomainError("eigen_lowest solves Dirichlet operators only, "
                          f"got {op.grid.boundary!r}; use eigenvalue or count_below")
    op.grid.check_index(k - 1, "k - 1")
    w, v = _lapack(op.diagonal, op.off_diagonal, "i", (0, k - 1), vectors=True)
    return EigenResult(w, v / math.sqrt(op.grid.h), op.grid)


def eigenvalue(op: DiscretizedOperator, index: int, *,
               near: tuple[float, float] | None = None) -> float:
    """The eigenvalue of the given 0-based index, without eigenvectors.

    On a Dirichlet grid it equals ``eigen_lowest(op, index + 1).eigenvalues[index]``
    up to the bisection tolerance (a few eps times the operator's norm); the
    guard is :meth:`Grid.check_index` on either boundary.

    ``near=(guess, width)`` first bisects by value in the one window of
    ``_window`` around the guess, certified by a Sturm count, and searches
    the spectrum by index only when that window does not hold the level;
    the value is the index search's within the bisection tolerance either
    way.  A non-finite guess or width raises DomainError.
    """
    op.grid.check_index(index)
    if near is not None:
        level = _window(op, index, *near)
        if level is not None:
            return level
    return _by_index(op, index)[0]


def _by_index(op: DiscretizedOperator, index: int) -> tuple[float, int]:
    """(eigenvalue, sector) of the given index: the search by index in every
    sector of ``op.sectors``, and the position of the sector that holds it."""
    sectors = op.sectors
    # a lone sector is asked for the index alone, several for their lowest index + 1
    first = index if len(sectors) == 1 else 0
    levels = [(float(w), s) for s, (diag, off, _) in enumerate(sectors)
              for w in _lapack(diag, off, "i", (first, index))]
    return sorted(levels)[index - first]


def eigenvalue_slope(op: DiscretizedOperator, index: int, rate: np.ndarray) -> tuple[float, float]:
    """The eigenvalue of the given index and its rate of change when the
    diagonal changes at the given rate.

    The eigenvalue is :func:`eigenvalue`'s search by index.  The rate is
    ``sum(rate * psi**2)`` over the unit eigenvector psi of the level in the
    sector that holds it: the Hellmann-Feynman theorem, dE/dt = <psi| dT/dt
    |psi> (R. P. Feynman, Phys. Rev. 56, 340 (1939)).  psi comes from one
    more request, by value, on that sector alone, in the window of
    half-width ``op.floor`` that holds the level at the bisection tolerance.
    ``rate`` has one entry per grid point and, on a ring, the reflection
    symmetry about node 0 that the potential has.
    """
    op.grid.check_index(index)
    value, sector = _by_index(op, index)
    diag, off, nodes = op.sectors[sector]
    w = op.floor
    values, vectors = _lapack(diag, off, "v", (value - w, value + w), vectors=True)
    psi = vectors[:, int(np.argmin(np.abs(values - value)))]
    return value, float(rate[nodes] @ psi**2)


def count_below(op: DiscretizedOperator, x: float, scratch: np.ndarray | None = None) -> int:
    """Number of eigenvalues of the operator at or below x, without solving.

    A ring counts in each reflection-parity sector and sums the two.  So the
    eigenvalue of a given index lies above x exactly when the count is at
    most that index.  Each sector's count is its LDL^T pivot count
    (``_count``), exact for a matrix within eps (3/4 ||T||inf + |x| / 2) of
    the sector's: a level nearer x than that may fall on either side.  The
    sectors are counted one after the other in one 3-row ``scratch`` block,
    the caller's or one of the request's own.
    """
    sectors = op.sectors
    if scratch is None:
        # the first sector is the longest: a ring's even one holds n/2 + 1 nodes
        scratch = np.empty((3, len(sectors[0][0])))
    return sum(_count(diag, off, x, scratch) for diag, off, _ in sectors)


def _window(op: DiscretizedOperator, index: int, guess: float, width: float):
    """The level of the given index if one Sturm-certified window holds it, else None.

    The window is (lo, hi] = (guess - w, guess + w], w = |width| floored by
    ``op.floor``; a guess outside [-||T||inf, ||T||inf] is moved to its
    nearer end.  ``below``, the count at lo (:func:`count_below`), comes
    from LDL^T pivots, and the values from one ``?stebz`` request over
    (lo - z, hi], which counts in its own arithmetic.  The window holds the
    level when at most ``index`` eigenvalues lie at or below lo, no value
    returned lies within z of lo, and the values returned reach ``index``
    counted from ``below``; a window that the count already rules out is
    not bisected.  A level within z of lo may be counted by one arithmetic
    and not the other, so its window is refused, and never answers with a
    neighbour.

    With N = ||T||inf, z = eps (19/4 N + |lo| / 2) is the sum of three
    bounds: the pivot count's backward error, eps (3/4 N + |lo| / 2)
    (:func:`_count`); ``?stebz``'s, 3 eps N, since its recurrence rounds
    each diagonal entry once and each e_i^2 four times (eps N) and it drops
    an off-diagonal entry below eps sqrt|d_i d_(i+1)| (2 eps N more); and
    half its bisection tolerance, eps N.  So a level that ``?stebz`` puts at
    or below lo - z is at or below lo in the pivot count, and a value
    returned above lo + z is a level above lo in it: ``below`` is the number
    of levels under the first value returned.  A value returned lies within
    4 eps N of its level, so a floor window, w = 10 eps N, centred on its
    level is never refused for a level near lo.
    """
    if not (math.isfinite(guess) and math.isfinite(width)):
        raise DomainError(f"need a finite guess and width, got {guess!r} and {width!r}")
    norm = op.inf_norm
    guess = min(max(guess, -norm), norm)
    w = max(abs(width), op.floor)
    lo, hi = guess - w, guess + w
    below = count_below(op, lo)
    if below > index:
        return None
    z = _EPS * (4.75 * norm + 0.5 * abs(lo))
    inside = np.sort(np.concatenate([_lapack(diag, off, "v", (lo - z, hi))
                                     for diag, off, _ in op.sectors]))
    if inside.size and inside[0] <= lo + z:
        return None
    return float(inside[index - below]) if index < below + len(inside) else None


def rayleigh_eigenpair(op: DiscretizedOperator, index: int, trial: np.ndarray):
    """(eigenvalue, unit eigenvector) of the given index of a Dirichlet
    operator by Rayleigh-quotient iteration from ``trial``, certified by two
    pivot counts; None when the step fails or its counts do not certify it.

    The step shifts by q = ``op.rayleigh(trial)`` and solves (T - qI) y = x,
    x = trial / ||trial||, once with LAPACK ``dgtsv``.  A trial within O(h^2)
    of the eigenvector, as a closed state sampled on the grid is, puts q
    within O(h^4) of its level and y much nearer its vector: the iteration
    converges cubically (B. N. Parlett, The Symmetric Eigenvalue Problem, SIAM
    1998, ch. 4).  A second step, from y, is taken only when the residual
    bound R below exceeds 500 s.  The vector is y, normalized as
    :class:`EigenResult`'s are; its sign is arbitrary.  A non-finite quotient,
    a singular solve (``info != 0``), an R still above 500 s after the second
    step, or counts that do not certify return None; the caller's fallback is
    the index search, :func:`eigenvalue`.

    Scratch.  The step allocates one block of six n-float rows: d - q, the
    rounding delta, dgtsv's dl and du, and the right-hand side of each solve.
    ``dgtsv`` overwrites only those rows, the right-hand side with y.  The
    two counts then reuse the block's first three rows, free once the solve
    is done, and the vector returned is a copy, so the block dies with the
    request.

    The quotient and the residual come from the solve, with no product by T.
    The shifted diagonal d - q rounds entry i by delta_i, so the solve is
    one of T - qI - diag(delta) and T y = q y + delta y + x.  So y's quotient
    is q' = q + (x.y + y.delta y) / ||y||^2, and its residual, the part of
    T y / ||y|| orthogonal to y, is at most r + max |delta|, where r^2 =
    1/||y||^2 - (x.y)^2 / ||y||^4.  The delta term matters: every entry of
    d - q in one binade rounds alike, which would move the value by up to
    eps ||T||inf / 2 (about 3e-9 at 2e5 rows on Coulomb b = 3's verify
    domain), where the corrected quotient is good to about 1e-12 there.

    Rounding.  With N = ||T||inf, |delta_i| <= eps (N + |q|) / 2.  Partial
    pivoting on a tridiagonal matrix grows no entry by more than twice (N. J.
    Higham, Accuracy and Stability of Numerical Algorithms, SIAM 2002,
    ch. 9), so the computed y solves the shifted system plus E, ||E|| about 2
    eps times |L||U|, whose rows sum to at most 12 (N + |q|); s = 24 eps
    (N + |q|) bounds max |delta| + ||E||.  The dot products and x's norm round
    r^2 by at most 3 n eps / ||y||^2.  So y / ||y|| has a residual at most R =
    sqrt(r^2 + 3 n eps / ||y||^2) + s about its own quotient, which lies
    within s of q'.

    Certificate.  The counts (:func:`count_below`) sit at q' -/+ g, g = 1e3 R,
    and certify the index when they are index and index + 1.  Each is exact
    for a matrix within z = eps (3/4 N + |q' -/+ g| / 2) of T at its own end,
    so no level of T but the one of the given index lies in (q' - g + z,
    q' + g - z).  Since g >= 1e3 s >= 2.4e4 eps N, z + s < g / 2, so that
    interval reaches more than g / 2 either side of y's quotient.  By the
    Kato-Temple inequality (T. Kato, J. Phys. Soc. Japan 4, 334 (1949)),
    R < g / 2 then puts the level in the interval, within R^2 / (g / 2) =
    R / 500 of y's quotient: the value returned is within R / 500 + s <= 2 s
    of the level.  A trial nearer another level converges to that one, whose
    counts are not index and index + 1.
    """
    if op.grid.boundary != DIRICHLET:
        raise DomainError("rayleigh_eigenpair solves Dirichlet operators only, "
                          f"got {op.grid.boundary!r}; use eigenvalue")
    op.grid.check_index(index)
    q = op.rayleigh(trial)
    if not math.isfinite(q):
        return None
    # the right-hand side x is the trial itself, not normalized: q' does not
    # depend on its scale, and r^2 and its rounding scale with xx = ||x||^2
    x, xx = trial, float(trial @ trial)
    norm, diag, off = op.inf_norm, op.diagonal, op.off_diagonal
    # each solve's right-hand side has a row of its own: x, the trial or the
    # previous solve's y, is read again after dgtsv overwrites it with y
    block = np.empty((6, op.n))
    shifted, delta, dl, du = block[0], block[1], block[2, :-1], block[3, :-1]
    for step in range(2):
        s = 24.0 * _EPS * (norm + abs(q))
        np.subtract(diag, q, out=shifted)
        np.subtract(diag, shifted, out=delta)
        delta -= q
        dl[:] = off
        du[:] = off
        rhs = block[4 + step]
        rhs[:] = x
        _, _, _, y, info = _flapack().dgtsv(dl, shifted, du, rhs, 1, 1, 1, 1)
        yy = float(y @ y)
        # a finite, non-zero ||y|| also keeps every entry of y finite
        if info != 0 or not 0.0 < yy < math.inf:
            return None
        xy = float(x @ y)
        delta *= y
        q += (xy + float(delta @ y)) / yy
        r2 = xx / yy - (xy / yy) ** 2
        bound = math.sqrt(max(r2, 0.0) + 3.0 * op.n * _EPS * xx / yy) + s
        y *= 1.0 / math.sqrt(yy)
        x, xx = y, 1.0
        if bound <= 500.0 * s:
            break
    else:
        return None
    g = 1e3 * bound
    # the counts take the block's first three rows, free once the solve is done
    counts = block[:3]
    if count_below(op, q - g, counts) != index or count_below(op, q + g, counts) != index + 1:
        return None
    # a new array, so that the vector returned does not keep the block alive
    return q, x * (1.0 / math.sqrt(op.grid.h))


def richardson(coarse, fine):
    """h^2 extrapolation of values at h and h/2, and |extrapolated - fine|."""
    extrapolated = (4.0 * fine - coarse) / 3.0
    return extrapolated, abs(extrapolated - fine)


def refine(op_factory, grid: Grid, k: int) -> EigenResult:
    """Solve at h and h/2 and Richardson-extrapolate the h^2 error away.

    ``op_factory`` maps a Dirichlet Grid to a DiscretizedOperator; a ring
    raises DomainError through :func:`eigen_lowest`.  The returned
    eigenvalues are the extrapolated ones; eigenvectors and grid are from the
    fine solve; ``convergence_estimate[j] = |extrapolated_j - fine_j|``.
    """
    coarse = eigen_lowest(op_factory(grid), k)
    fine_grid = grid.refined()
    fine = eigen_lowest(op_factory(fine_grid), k)
    extrapolated, estimate = richardson(coarse.eigenvalues, fine.eigenvalues)
    return EigenResult(extrapolated, fine.eigenvectors, fine_grid, estimate)


def observed_order(e_h: float, e_h2: float, e_h4: float) -> float:
    """Convergence order from eigenvalues at spacings h, h/2, h/4."""
    return math.log2(abs(e_h - e_h2) / abs(e_h2 - e_h4))

