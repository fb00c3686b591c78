"""Grid conventions, discretization, and the tridiagonal eigensolver."""

import concurrent.futures
import dataclasses
import functools
import importlib.machinery
import importlib.util
import json
import math
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_polar import eigensolve
from pdm_polar.eigensolve import (
    DIRICHLET,
    PERIODIC,
    DiscretizedOperator,
    Grid,
    _count,
    count_below,
    discretize,
    eigen_lowest,
    eigenvalue,
    observed_order,
    rayleigh_eigenpair,
    refine,
    richardson,
)
from pdm_polar.errors import DomainError
from pdm_polar.specfun import BesselOrder, bessel_j, laguerre_assoc

from conftest import matvec, sign_changes, sturm_count_below


def zero(x):
    return np.zeros_like(x)


def harmonic(x):
    return 0.5 * x**2


def coulombish(r):
    return 0.75 / r**2 - 2.0 / r


def radial_oscillator(r):
    return 3.75 / r**2 + 0.25 * r**2


EPS = np.finfo(float).eps

# (grid, potential, prefactor, levels checked); the free ring has the doubly
# degenerate +/-m pairs
SOLVE_CASES = {
    "box": (Grid(0.0, math.pi, 2000, DIRICHLET), zero, 1.0, 5),
    "harmonic": (Grid(-8.0, 8.0, 600, DIRICHLET), harmonic, 0.5, 6),
    "coulombish": (Grid(0.0, 60.0, 2000, DIRICHLET), coulombish, 1.0, 3),
    "radial oscillator": (Grid(0.0, 12.0, 1000, DIRICHLET), radial_oscillator, 1.0, 4),
    "free ring": (Grid(0.0, 2.0 * math.pi, 1024, PERIODIC), zero, 0.5, 7),
    "cos ring": (Grid(0.0, 2.0 * math.pi, 512, PERIODIC), np.cos, 0.5, 6),
}


def reference_lowest(op, k):
    """The k lowest eigenvalues by a path that shares nothing ring-specific.

    A Dirichlet operator is solved by :func:`eigen_lowest`; a ring by the dense
    ``eigvalsh`` of its full matrix, corner entries included, so the parity
    split of the production path is checked and not repeated.
    """
    if op.grid.boundary == DIRICHLET:
        return eigen_lowest(op, k).eigenvalues
    dense = np.diag(op.diagonal) + np.diag(op.off_diagonal, 1) + np.diag(op.off_diagonal, -1)
    dense[0, -1] = dense[-1, 0] = op.off_diagonal[0]
    return np.linalg.eigvalsh(dense)[:k]


# ---------------------------------------------------------------------------
# grids


def test_dirichlet_grid_layout():
    g = Grid(0.0, 1.0, 99, DIRICHLET)
    assert g.h == pytest.approx(0.01, rel=1e-14)
    pts = g.points
    assert pts.shape == (99,)
    assert pts[0] == pytest.approx(0.01, rel=1e-14)
    assert pts[-1] == pytest.approx(0.99, rel=1e-14)


def test_periodic_grid_layout():
    g = Grid(0.0, 2.0 * math.pi, 100, PERIODIC)
    assert g.h == pytest.approx(2.0 * math.pi / 100.0, rel=1e-15)
    pts = g.points
    assert pts[0] == 0.0
    assert pts[-1] == pytest.approx(2.0 * math.pi - g.h, rel=1e-14)


def test_grid_points_are_made_once_and_read_only():
    for boundary, first in ((DIRICHLET, 1), (PERIODIC, 0)):
        g = Grid(0.25, 3.0, 64, boundary)
        assert g.points is g.points
        assert not g.points.flags.writeable
        np.testing.assert_array_equal(g.points, 0.25 + g.h * np.arange(first, first + 64))
        # discretize samples the potential on the very array the grid keeps
        seen = []
        discretize(lambda x: seen.append(x) or 0.0 * x, g)
        assert seen[0] is g.points


def test_inf_norm_is_the_largest_absolute_row_sum():
    rng = np.random.default_rng(7)
    for boundary in (DIRICHLET, PERIODIC):
        grid = Grid(0.0, 1.0, 16, boundary)
        op = DiscretizedOperator(rng.normal(size=16), rng.normal(size=15), grid)
        dense = np.diag(op.diagonal) + np.diag(op.off_diagonal, 1) + np.diag(op.off_diagonal, -1)
        if boundary == PERIODIC:
            dense[0, -1] = dense[-1, 0] = op.off_diagonal[0]
        assert op.inf_norm == pytest.approx(float(np.max(np.sum(np.abs(dense), axis=1))), rel=4 * EPS)


def test_grid_refinement_halves_spacing():
    g = Grid(0.0, 1.0, 100, DIRICHLET)
    assert g.refined().h == pytest.approx(g.h / 2.0, rel=1e-14)
    gp = Grid(0.0, 1.0, 100, PERIODIC)
    assert gp.refined().h == pytest.approx(gp.h / 2.0, rel=1e-14)
    # prolong keeps each point's value at its own place on the refined grid and
    # interpolates exactly a function that is zero at the walls and linear
    # between grid points: here a tent with its peak on point 49, x = 50/101
    def tent(x):
        return np.minimum(51.0 * x, 50.0 * (1.0 - x))

    np.testing.assert_allclose(g.prolong(tent(g.points)), tent(g.refined().points),
                               rtol=0.0, atol=1e-13)
    np.testing.assert_array_equal(g.prolong(tent(g.points))[1::2], tent(g.points))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 8, DIRICHLET)
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 100, DIRICHLET)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 101, PERIODIC)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 100, "neumann")


# one bad call per refusal of the solver and of the special functions, with
# the message it carries
REFUSALS = {
    "grid-15-points": (lambda: Grid(0.0, 1.0, 15), "need at least 16 points, got 15"),
    "grid-empty": (lambda: Grid(1.0, 1.0, 16), "empty interval (1.0, 1.0)"),
    "grid-odd-ring": (lambda: Grid(0.0, 1.0, 17, PERIODIC),
                      "periodic grids need an even point count (parity split)"),
    "grid-boundary": (lambda: Grid(0.0, 1.0, 16, "neumann"), "unknown boundary 'neumann'"),
    "eigen-lowest-ring": (lambda: eigen_lowest(case_operator("free ring"), 1),
                          "eigen_lowest solves Dirichlet operators only, got 'periodic'; "
                          "use eigenvalue or count_below"),
    "eigen-lowest-k": (lambda: eigen_lowest(case_operator("box"), 501),
                       "2000 grid points resolve 0 <= k - 1 < 500, got k - 1 = 500"),
    "index": (lambda: eigenvalue(case_operator("box"), 500),
              "2000 grid points resolve 0 <= index < 500, got index = 500"),
    "rayleigh-index": (lambda: rayleigh_eigenpair(case_operator("box"), 500, np.ones(2000)),
                       "2000 grid points resolve 0 <= index < 500, got index = 500"),
    "rayleigh-ring": (lambda: rayleigh_eigenpair(case_operator("free ring"), 1, np.ones(1024)),
                      "rayleigh_eigenpair solves Dirichlet operators only, got 'periodic'; "
                      "use eigenvalue"),
    "prolong-ring": (lambda: Grid(0.0, 1.0, 16, PERIODIC).prolong(np.ones(16)),
                     "prolong interpolates Dirichlet grids only, got 'periodic'"),
    "window-nan-guess": (lambda: eigenvalue(case_operator("box"), 0, near=(math.nan, 1.0)),
                         "need a finite guess and width, got nan and 1.0"),
    "ring-asymmetric": (lambda: eigenvalue(discretize(np.sin, SOLVE_CASES["cos ring"][0]), 0),
                        "periodic solves need a reflection-symmetric potential about x_min "
                        "(max asymmetry 2.000e+00)"),
    "bessel-negative-order": (lambda: BesselOrder(-1), "order must be >= 0, got nu = -1/2"),
    "bessel-order-third": (lambda: bessel_j(Fraction(1, 3), 1.0),
                           "only integer and half-integer orders supported, got nu = 1/3"),
    "bessel-x-past-cap": (lambda: bessel_j(0, 2e4),
                          "need 0 <= x <= 10000 and nu <= 10000, got nu = 0.0, x = 20000.0"),
    "laguerre-degree": (lambda: laguerre_assoc(-1, 0.0, 1.0),
                        "degree must be a non-negative integer, got -1"),
    "laguerre-alpha": (lambda: laguerre_assoc(1, -1.0, 1.0), "alpha must be > -1, got -1.0"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_raise_domain_error(case):
    call, message = REFUSALS[case]
    with pytest.raises(DomainError) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# discretization


def test_discretize_entries():
    g = Grid(0.0, 1.0, 31, DIRICHLET)
    op = discretize(harmonic, g, prefactor=1.0)
    kin = 1.0 / g.h**2
    np.testing.assert_allclose(op.diagonal, 2.0 * kin + 0.5 * g.points**2, rtol=1e-14)
    np.testing.assert_array_equal(op.off_diagonal, -kin)
    # no corner: the last node does not reach the first row
    last = np.zeros(g.n_points)
    last[-1] = 1.0
    assert matvec(op, last)[0] == 0.0


def test_discretize_periodic_corner():
    g = Grid(0.0, 2.0 * math.pi, 32, PERIODIC)
    op = discretize(zero, g, prefactor=0.5)
    last = np.zeros(g.n_points)
    last[-1] = 1.0
    assert matvec(op, last)[0] == pytest.approx(-0.5 / g.h**2, rel=1e-14)


def test_discretize_rejects_singular_potential():
    g = Grid(0.0, 1.0, 31, DIRICHLET)
    with pytest.raises(DomainError, match=r"potential is 2000000000000\.0 at x = 0\.03125; "
                                          r"the solver needs a finite \|V\| <= 1e\+12"):
        discretize(lambda x: np.full_like(x, 2e12), g)
    with pytest.raises(DomainError, match="potential is inf at x = 0.53125;"):
        discretize(lambda x: np.where(x > 0.5, np.inf, 0.0), g)


def test_discretize_rejects_spacing_outside_float_range():
    # 1/h^2 overflows the float range before any potential sample is bad
    with pytest.raises(DomainError, match="outside the float range"):
        discretize(lambda x: np.zeros_like(x), Grid(0.0, 1e300, 64, DIRICHLET))


def test_discretize_needs_vectorized_potential():
    # the potential is evaluated once on the whole grid, never point by point
    with pytest.raises(TypeError):
        discretize(math.cos, Grid(0.0, 1.0, 31, DIRICHLET))


def test_box_ground_state():
    # particle in a box on (0, pi): E_n = n^2
    g = Grid(0.0, math.pi, 2000, DIRICHLET)
    result = eigen_lowest(discretize(zero, g), 1)
    assert abs(result.eigenvalues[0] - 1.0) < 1e-3


def test_periodic_free_levels():
    # -(1/2) chi'' on a 2 pi ring: levels m^2/2, twofold for m != 0
    g = Grid(0.0, 2.0 * math.pi, 2048, PERIODIC)
    op = discretize(zero, g, prefactor=0.5)
    expected = [0.0, 0.5, 0.5, 2.0, 2.0]
    np.testing.assert_allclose([eigenvalue(op, j) for j in range(5)], expected, atol=1e-4)


def test_harmonic_ground_state():
    g = Grid(-8.0, 8.0, 2000, DIRICHLET)
    result = eigen_lowest(discretize(harmonic, g, prefactor=0.5), 1)
    assert abs(result.eigenvalues[0] - 0.5) < 1e-4


# ---------------------------------------------------------------------------
# eigen_lowest contracts


def test_box_first_three_levels():
    g = Grid(0.0, math.pi, 2000, DIRICHLET)
    result = eigen_lowest(discretize(zero, g), 3)
    np.testing.assert_allclose(result.eigenvalues, [1.0, 4.0, 9.0], rtol=5e-3)


def test_k_bounds():
    g = Grid(0.0, 1.0, 64, DIRICHLET)
    op = discretize(zero, g)
    with pytest.raises(ValueError):
        eigen_lowest(op, 0)
    with pytest.raises(ValueError):
        eigen_lowest(op, 17)
    eigenvalue(op, 15)
    with pytest.raises(ValueError):
        eigenvalue(op, -1)
    with pytest.raises(ValueError):
        eigenvalue(op, 16)


def test_sturm_count_matches_returned_eigenvalues():
    g = Grid(-8.0, 8.0, 600, DIRICHLET)
    op = discretize(harmonic, g, prefactor=0.5)
    k = 5
    result = eigen_lowest(op, k)
    lo = result.eigenvalues[0] - 1e-6
    hi = result.eigenvalues[-1] + 1e-6
    count = sturm_count_below(op.diagonal, op.off_diagonal, hi) - sturm_count_below(
        op.diagonal, op.off_diagonal, lo
    )
    assert count == k


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_eigenvalue_matches_eigen_lowest(case):
    grid, potential, prefactor, k = SOLVE_CASES[case]
    op = discretize(potential, grid, prefactor=prefactor)
    lowest = reference_lowest(op, k)
    bound = 4.0 * EPS * op.inf_norm
    for j in range(k):
        value = eigenvalue(op, j)
        assert abs(value - lowest[j]) <= bound
        if grid.boundary == DIRICHLET:
            tol = 1e-9 * op.inf_norm
            assert sturm_count_below(op.diagonal, op.off_diagonal, value - tol) == j
            assert sturm_count_below(op.diagonal, op.off_diagonal, value + tol) == j + 1


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_eigenvalue_slope_is_the_derivative_of_the_level(monkeypatch, case):
    grid, potential, prefactor, k = SOLVE_CASES[case]
    op = discretize(potential, grid, prefactor=prefactor)
    # reflection symmetric about node 0, as a ring's diagonal must be
    rate = 1.0 + np.cos(grid.points) ** 2
    lowest = reference_lowest(op, k + 1)
    vectors = []
    lapack = eigensolve._lapack

    def spy(*args, **kwargs):
        vectors.append(kwargs.get("vectors", False))
        return lapack(*args, **kwargs)

    monkeypatch.setattr(eigensolve, "_lapack", spy)
    t = 1e-3
    # a degenerate level has one slope per vector; only simple levels have the derivative
    simple = [j for j in range(k) if (j == 0 or lowest[j] - lowest[j - 1] > 1e-3)
              and lowest[j + 1] - lowest[j] > 1e-3]
    assert simple
    for j in simple:
        vectors.clear()
        value, slope = eigensolve.eigenvalue_slope(op, j, rate)
        assert value == eigenvalue(op, j)
        # the index search asks for no vector; one request by value asks for the level's own
        assert vectors.count(True) == 1
        shifted = [eigenvalue(DiscretizedOperator(op.diagonal + s * rate, op.off_diagonal, grid), j)
                   for s in (t, -t)]
        assert slope == pytest.approx((shifted[0] - shifted[1]) / (2.0 * t), abs=1e-4)


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_count_below_matches_references(case):
    grid, potential, prefactor, k = SOLVE_CASES[case]
    op = discretize(potential, grid, prefactor=prefactor)
    lowest = reference_lowest(op, k)
    bound = 4.0 * EPS * op.inf_norm
    # below the spectrum, and midway in every gap between the lowest levels
    # that is wide enough to keep the target clear of both ends
    targets = [lowest[0] - 1.0] + [
        0.5 * (below + above) for below, above in zip(lowest, lowest[1:])
        if above - below > 8.0 * bound
    ]
    assert len(targets) >= 3
    sectors = op.sectors
    for x in targets:
        assert np.min(np.abs(lowest - x)) > bound
        expected = int(np.sum(lowest <= x))
        assert count_below(op, x) == expected
        for diag, off, _ in sectors:
            assert _count(diag, off, x) == sturm_count_below(diag, off, x)
    # a target above the Gershgorin interval counts every eigenvalue
    assert count_below(op, 2.0 * op.inf_norm) == op.n


def tridiagonal_norm(diag, off) -> float:
    """||T||inf of a symmetric tridiagonal without corners."""
    row = np.abs(diag).copy()
    row[:-1] += np.abs(off)
    row[1:] += np.abs(off)
    return float(np.max(row))


@functools.lru_cache(maxsize=None)
def _dense_spectrum(diag: bytes, off: bytes) -> np.ndarray:
    d, e = np.frombuffer(diag), np.frombuffer(off)
    return np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


def dense_eigenvalues(diag, off) -> np.ndarray:
    """The eigvalsh eigenvalues of the dense symmetric tridiagonal, once per matrix."""
    return _dense_spectrum(np.ascontiguousarray(diag).tobytes(), np.ascontiguousarray(off).tobytes())


def assert_dense_count(diag, off, x):
    """The pivot count at x is the dense count where no eigvalsh eigenvalue
    lies within z of x, and lies between the dense counts at x - z and x + z
    where one does.  z is the count's backward error, eps (3/4 ||T||inf +
    |x| / 2), plus n eps ||T||inf for eigvalsh's error: its eigenvalues of
    random tridiagonals lie up to 10 eps ||T||inf from ?stebz's at n = 77
    and 40 at n = 2000, and a 50-digit Sturm count sides with ?stebz."""
    dense = dense_eigenvalues(diag, off)
    norm = tridiagonal_norm(diag, off)
    z = EPS * ((0.75 + len(diag)) * norm + 0.5 * abs(x))
    count = _count(diag, off, x)
    if np.min(np.abs(dense - x)) > z:
        assert count == np.sum(dense <= x), x
    else:
        assert np.sum(dense <= x - z) <= count <= np.sum(dense <= x + z), x


def test_count_takes_a_zero_pivot_as_at_or_below():
    # at an exact level T - xI is singular and a pivot is exactly 0: the
    # level counts as at or below x, as ?stebz's -pivmin counts it.  A
    # diagonal matrix has its levels on the diagonal; in the coupled block
    # [[0, 1], [1, 0]], whose levels are -1 and 1, the pivot after the zero
    # one, d - x - e^2 / (-tiny), overflows to +inf
    levels = np.arange(16.0)
    for x in levels:
        assert _count(levels, np.zeros(15), x) == x + 1
    assert _count(np.zeros(3), np.array([1.0, 0.0]), 0.0) == 2


# every sector of every SOLVE_CASES operator, by case and position
CASE_SECTORS = [(case, s) for case in sorted(SOLVE_CASES)
                for s in range(2 if SOLVE_CASES[case][0].boundary == PERIODIC else 1)]
COUNT_POINTS = ("far below", "below", "inside", "level", "ulps from a level", "above", "far above")


@pytest.mark.parametrize("source", [f"{case}-{s}" for case, s in CASE_SECTORS] + ["random"])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), where=st.sampled_from(COUNT_POINTS))
def test_count_is_the_dense_count(source, data, where):
    # random tridiagonals hold zero off-diagonals, and so repeated levels,
    # at scales 1e-3 to 1e6
    if source == "random":
        op = data.draw(random_tridiagonals(), label="op")
        diag, off = op.diagonal, op.off_diagonal
    else:
        case, s = source.rsplit("-", 1)
        # a copy: the cached operator's split is left to the test that counts it
        diag, off, _ = dataclasses.replace(case_operator(case)).sectors[int(s)]
    dense = dense_eigenvalues(diag, off)
    norm = tridiagonal_norm(diag, off)
    level = float(dense[data.draw(st.integers(0, len(dense) - 1), label="level")])
    fraction = data.draw(st.floats(0.0, 1.0), label="fraction")
    x = {
        "far below": -2.0 * norm,
        "below": float(dense[0]) - fraction * norm,
        "inside": float(dense[0]) + fraction * float(dense[-1] - dense[0]),
        "level": level,
        "ulps from a level": level,
        "above": float(dense[-1]) + fraction * norm,
        "far above": 2.0 * norm,
    }[where]
    if where == "ulps from a level":
        for _ in range(data.draw(st.integers(1, 4), label="ulps")):
            x = float(np.nextafter(x, data.draw(st.sampled_from([-np.inf, np.inf]), label="way")))
    assert_dense_count(diag, off, x)


def test_ring_is_split_once_per_operator(monkeypatch):
    splits = []
    split = eigensolve._parity_sectors

    def counting_split(op):
        splits.append(op)
        return split(op)

    monkeypatch.setattr(eigensolve, "_parity_sectors", counting_split)
    op = case_operator("cos ring")
    level = eigenvalue(op, 2)
    # a window far from the level misses: count, window and index search in turn
    assert eigenvalue(op, 2, near=(-10.0 * op.inf_norm, 0.0)) == level
    assert count_below(op, 2.0 * op.inf_norm) == op.n
    assert len(splits) == 1 and splits[0] is op


def test_eigenvector_normalization_and_residual():
    g = Grid(-8.0, 8.0, 1500, DIRICHLET)
    op = discretize(harmonic, g, prefactor=0.5)
    result = eigen_lowest(op, 4)
    bound = 1e-8 * op.inf_norm
    for j in range(4):
        v = result.eigenvectors[:, j]
        assert g.h * np.sum(v**2) == pytest.approx(1.0, abs=1e-10)
        residual = np.linalg.norm(matvec(op, v) - result.eigenvalues[j] * v) * math.sqrt(g.h)
        assert residual <= bound


def test_ring_has_no_eigenpairs():
    # rings are value-only: eigenpairs exist on Dirichlet grids alone
    g = Grid(0.0, 2.0 * math.pi, 128, PERIODIC)

    def factory(gr):
        return discretize(zero, gr, prefactor=0.5)

    with pytest.raises(ValueError, match="eigenvalue or count_below"):
        eigen_lowest(factory(g), 2)
    with pytest.raises(ValueError, match="eigenvalue or count_below"):
        refine(factory, g, 2)


def test_periodic_requires_symmetric_potential():
    g = Grid(0.0, 2.0 * math.pi, 128, PERIODIC)
    op = discretize(lambda x: np.sin(x), g, prefactor=0.5)
    with pytest.raises(ValueError):
        eigenvalue(op, 1)
    with pytest.raises(ValueError):
        count_below(op, 0.0)


def _mirrored_ring(rng, n):
    """A ring operator with random entries, reflection symmetric about node 0:
    diagonal[i] = diagonal[n - i] and off_diagonal[j] = off_diagonal[n - 1 - j]."""
    half_diag = rng.uniform(-2.0, 2.0, n // 2)
    diag = np.concatenate([rng.uniform(-2.0, 2.0, 1), half_diag, half_diag[-2::-1]])
    half_off = -rng.uniform(0.5, 1.5, n // 2 - 1)
    off = np.concatenate([-rng.uniform(0.5, 1.5, 1), half_off, half_off[::-1]])
    return DiscretizedOperator(diag, off, Grid(0.0, 2.0 * math.pi, n, PERIODIC))


def test_ring_with_mirrored_couplings_matches_the_dense_matrix(rng):
    n = 64
    op = _mirrored_ring(rng, n)
    dense = np.diag(op.diagonal) + np.diag(op.off_diagonal, 1) + np.diag(op.off_diagonal, -1)
    dense[0, -1] = dense[-1, 0] = op.off_diagonal[0]
    reference = np.linalg.eigvalsh(dense)
    # the bisection's floor of 4 eps ||T||inf, and as much again for the dense solve
    bound = 8.0 * EPS * op.inf_norm
    for j in range(n // 4):
        assert abs(eigenvalue(op, j) - reference[j]) <= bound
    gaps = [0.5 * (below + above) for below, above in zip(reference, reference[1:])
            if above - below > 4.0 * bound]
    assert len(gaps) > n // 2
    for x in gaps:
        assert count_below(op, x) == int(np.sum(reference <= x))
    # the reference product closes the ring with the same corners
    assert np.array_equal(np.column_stack([matvec(op, e) for e in np.eye(n)]), dense)


@pytest.mark.parametrize("ring", ["free ring", "cos ring", "mirrored ring"])
def test_sector_vectors_on_their_nodes_are_eigenvectors_of_the_ring(rng, ring):
    op = _mirrored_ring(rng, 64) if ring == "mirrored ring" else case_operator(ring)
    m = op.n // 2
    # the floor of the vector's own solve, and as much again for the product
    bound = 8.0 * EPS * op.inf_norm
    for parity, (diag, off, nodes) in zip((1.0, -1.0), op.sectors):
        values, vectors = eigensolve._lapack(diag, off, "i", (0, 3), vectors=True)
        for value, psi in zip(values, vectors.T):
            u = np.zeros(op.n)
            u[nodes] = psi / math.sqrt(2.0)
            # nodes 0 and m are their own mirror images
            u[[0, m]] *= math.sqrt(2.0)
            u[m + 1:] = parity * u[m - 1:0:-1]
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(matvec(op, u) - value * u) <= bound


def test_ring_with_asymmetric_couplings_is_refused(rng):
    op = _mirrored_ring(rng, 64)
    off = op.off_diagonal.copy()
    off[5] *= 1.5
    broken = DiscretizedOperator(op.diagonal, off, op.grid)
    with pytest.raises(DomainError, match="reflection-symmetric"):
        eigenvalue(broken, 0)
    with pytest.raises(DomainError, match="reflection-symmetric"):
        count_below(broken, 0.0)


def test_sturm_oscillation_node_counts():
    # ground state nodeless, j-th excited state has j sign changes
    g = Grid(-8.0, 8.0, 1200, DIRICHLET)
    result = eigen_lowest(discretize(harmonic, g, prefactor=0.5), 4)
    for j in range(4):
        assert sign_changes(result.eigenvectors[:, j]) == j


def test_radial_ground_state_nodeless():
    ell = 1.0

    def coulombish(r):
        return (ell**2 - 0.25) / r**2 - 2.0 / r

    g = Grid(0.0, 60.0, 2000, DIRICHLET)
    result = eigen_lowest(discretize(coulombish, g), 3)
    for j in range(3):
        assert sign_changes(result.eigenvectors[:, j]) == j


# ---------------------------------------------------------------------------
# refinement


def test_refine_box_extrapolation():
    g = Grid(0.0, math.pi, 1000, DIRICHLET)
    result = refine(lambda gr: discretize(zero, gr), g, 1)
    assert abs(result.eigenvalues[0] - 1.0) < 1e-6
    assert result.convergence_estimate[0] < 1e-5
    assert result.grid.n_points == 2001


# the exact levels of SOLVE_CASES, by index: the box's (j + 1)^2, the
# harmonic j + 1/2, the l = 1/2 hydrogen levels -1/(j + 3/2)^2 (the 60-wide
# wall truncates the ones checked by far less than their spacing), the
# l = 3/2 radial oscillator's 2j + 3 and the free ring's m^2/2 with
# m = (j + 1) // 2
CLOSED_LEVELS = {
    "box": lambda j: (j + 1.0) ** 2,
    "harmonic": lambda j: j + 0.5,
    "coulombish": lambda j: -1.0 / (j + 1.5) ** 2,
    "radial oscillator": lambda j: 2.0 * j + 3.0,
    "free ring": lambda j: 0.5 * ((j + 1) // 2) ** 2,
}


def hermite_state(j, x):
    return np.polynomial.hermite.hermval(x, [0.0] * j + [1.0]) * np.exp(-0.5 * x**2)


# the unnormalized exact eigenfunctions of the Dirichlet SOLVE_CASES, as
# functions of the index and the points
CLOSED_STATES = {
    "box": lambda j, x: np.sin((j + 1.0) * x),
    "harmonic": hermite_state,
    "coulombish": lambda j, r: (r**1.5 * np.exp(-r / (j + 1.5))
                                * laguerre_assoc(j, 2.0, 2.0 * r / (j + 1.5))),
    "radial oscillator": lambda j, r: (r**2.5 * np.exp(-0.25 * r**2)
                                       * laguerre_assoc(j, 2.0, 0.5 * r**2)),
}

def factory_of(case):
    """The operator of a SOLVE_CASES case on any grid."""
    _, potential, prefactor, _ = SOLVE_CASES[case]
    return functools.partial(discretize, potential, prefactor=prefactor)


def verify_levels(factory, grid, index, trial):
    """The levels at h and h/2 as the verify sweep solves them: a Rayleigh
    step from the trial on the grid, and one from the vector at h prolonged
    onto the refined grid."""
    value, vector = rayleigh_eigenpair(factory(grid), index, trial)
    fine, _ = rayleigh_eigenpair(factory(grid.refined()), index, grid.prolong(vector))
    return value, fine


@pytest.mark.parametrize("case", sorted(CLOSED_LEVELS))
def test_refine_eigenvalue_matches_refine(case):
    # the verify sweep's refinement: the Richardson step of refine applied to
    # the Rayleigh steps at h and h/2 (verify_levels); a ring has no Rayleigh
    # step and is refined from the index search
    grid, _, _, k = SOLVE_CASES[case]
    factory = factory_of(case)
    coarse = reference_lowest(factory(grid), k)
    fine = reference_lowest(factory(grid.refined()), k)
    extrapolated = (4.0 * fine - coarse) / 3.0
    expected_estimate = np.abs(extrapolated - fine)
    if grid.boundary == DIRICHLET:
        full = refine(factory, grid, k)
        np.testing.assert_array_equal(full.eigenvalues, extrapolated)
        np.testing.assert_array_equal(full.convergence_estimate, expected_estimate)
    # (4 fine - coarse) / 3 carries at most 5/3 of the per-solve difference,
    # and |extrapolated - fine| one per-solve difference more
    per_solve = 4.0 * EPS * factory(grid.refined()).inf_norm
    for j in range(k):
        if grid.boundary == DIRICHLET:
            levels = verify_levels(factory, grid, j, CLOSED_STATES[case](j, grid.points))
        else:
            levels = eigenvalue(factory(grid), j), eigenvalue(factory(grid.refined()), j)
        value, estimate = richardson(*levels)
        assert abs(value - extrapolated[j]) <= 5.0 / 3.0 * per_solve, j
        assert abs(estimate - expected_estimate[j]) <= 8.0 / 3.0 * per_solve, j


def test_rayleigh_eigenpair_returns_the_unit_eigenvector():
    # the vector of eigen_lowest, normalized as its vectors are, up to its sign
    op = case_operator("coulombish")
    reference = eigen_lowest(op, 3)
    for j in range(3):
        value, vector = rayleigh_eigenpair(op, j, CLOSED_STATES["coulombish"](j, op.grid.points))
        assert op.grid.h * (vector @ vector) == pytest.approx(1.0, rel=1e-12)
        overlap = op.grid.h * (vector @ reference.eigenvectors[:, j])
        assert abs(overlap) == pytest.approx(1.0, rel=1e-9), j


def operator_bytes(op, *extra):
    """The bytes of the operator's diagonal, off-diagonal and every sector
    array, then of the extra arrays."""
    sectors = [a for diag, off, _ in op.sectors for a in (diag, off)]
    return [a.tobytes() for a in (op.diagonal, op.off_diagonal, *sectors, *extra)]


def test_rayleigh_eigenpair_leaves_its_operator_and_trial_as_they_were():
    # dgtsv overwrites its dl, d, du and b, and dpttrf its d and e, in the
    # request's own scratch; the operator's off-diagonal feeds dl, du and e,
    # and a ring's odd sector is a view of it, so an overwrite of the operator
    # would corrupt every later request.  Every request that reaches LAPACK,
    # on a Dirichlet operator and on a ring, leaves each array as it was
    op = case_operator("coulombish")
    trial = CLOSED_STATES["coulombish"](1, op.grid.points)
    before = operator_bytes(op, trial)
    for _ in range(2):
        value, _ = rayleigh_eigenpair(op, 1, trial)
        assert count_below(op, value + 1e-6) == 2
        assert eigenvalue(op, 1, near=(value, 1e-3)) == pytest.approx(value, rel=1e-9)
        eigensolve.eigenvalue_slope(op, 1, op.grid.points)
    assert operator_bytes(op, trial) == before
    ring = case_operator("cos ring")
    assert np.shares_memory(ring.sectors[1][1], ring.off_diagonal)
    before = operator_bytes(ring)
    for _ in range(2):
        value = eigenvalue(ring, 3)
        assert count_below(ring, value + 1e-6) == 4
        assert eigenvalue(ring, 3, near=(value, 1e-3)) == pytest.approx(value, rel=1e-9)
        eigensolve.eigenvalue_slope(ring, 3, np.cos(ring.grid.points))
    assert operator_bytes(ring) == before


def test_rayleigh_eigenpair_scratch_is_one_block():
    # one certified step at 1e5 rows traces at most 7 n floats: the step's
    # six-row block, which its two counts reuse, and the vector returned
    n = 100_000
    grid = Grid(-8.0, 8.0, n, DIRICHLET)
    op = discretize(harmonic, grid, prefactor=0.5)
    trial = hermite_state(0, grid.points)
    # the first step makes the operator's norm and loads LAPACK
    assert rayleigh_eigenpair(op, 0, trial) is not None
    tracemalloc.start()
    try:
        pair = rayleigh_eigenpair(op, 0, trial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair is not None and pair[1].base is None
    assert peak <= 7 * n * 8 + 64 * 1024, peak


def test_requests_on_one_operator_from_threads_are_the_serial_ones():
    # four threads, more than the cores of a small runner, alternate Rayleigh
    # steps and pivot counts on one shared operator, switching as often as the
    # interpreter allows; scratch that outlived its request would be shared
    # between them and mix their results
    grid = Grid(0.0, 60.0, 20000, DIRICHLET)
    op = factory_of("coulombish")(grid)
    trials = [CLOSED_STATES["coulombish"](j, grid.points) for j in range(3)]

    def requests(start):
        out = []
        for i in range(start, start + 18):
            j = i % 3
            value, vector = rayleigh_eigenpair(op, j, trials[j])
            out.append((value, vector.tobytes(), count_below(op, value + (-1) ** i * 1e-3)))
        return out

    starts = [0, 1, 2, 3]
    serial = [requests(start) for start in starts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(starts)) as pool:
            threaded = list(pool.map(requests, starts, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


# ---------------------------------------------------------------------------
# the Sturm-certified window of eigenvalue(near=), which the lambda scan uses


@functools.lru_cache(maxsize=None)
def case_operator(case):
    grid, potential, prefactor, _ = SOLVE_CASES[case]
    return discretize(potential, grid, prefactor=prefactor)


@st.composite
def random_tridiagonals(draw):
    """A Dirichlet-gridded symmetric tridiagonal with random entries.

    Some off-diagonal entries are zero, so the matrix splits into blocks and
    can have exactly repeated eigenvalues.
    """
    n = draw(st.integers(16, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 6))
    diag = scale * rng.standard_normal(n)
    off = scale * rng.standard_normal(n - 1)
    off[rng.random(n - 1) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    return DiscretizedOperator(diag, off, Grid(0.0, 1.0, n, DIRICHLET))


GUESSES = ("zero", "level", "other level", "above", "below", "random")


@settings(max_examples=40, deadline=None)
@given(
    op=st.sampled_from(sorted(SOLVE_CASES)).map(case_operator) | random_tridiagonals(),
    data=st.data(),
    guess_kind=st.sampled_from(GUESSES),
)
def test_window_matches_index_search(op, data, guess_kind):
    index = data.draw(st.integers(0, op.n // 4 - 1), label="index")
    norm = op.inf_norm
    width = data.draw(st.sampled_from([0.0, 1e300])
                      | st.floats(-16.0, 0.5).map(lambda k: norm * 10.0**k), label="width")
    level = eigenvalue(op, index)
    guess = {
        "zero": 0.0,
        "level": level,
        "other level": eigenvalue(op, data.draw(st.integers(0, op.n // 4 - 1), label="other")),
        "above": 3.0 * norm,  # outside the Gershgorin interval
        "below": -3.0 * norm,
        "random": data.draw(st.floats(-2.0 * norm, 2.0 * norm), label="guess"),
    }[guess_kind]
    # one window, and the index search when it misses
    assert abs(eigenvalue(op, index, near=(guess, width)) - level) <= 4.0 * EPS * norm


def test_window_splits_the_free_ring_pairs():
    # +/-m pairs are doubly degenerate: each index of a pair returns the pair's value
    op = case_operator("free ring")
    bound = 4.0 * EPS * op.inf_norm
    for index in range(7):
        level = eigenvalue(op, index)
        for guess in (0.0, level, eigenvalue(op, 6 - index)):
            for width in (0.0, 1e-3):
                assert abs(eigenvalue(op, index, near=(guess, width)) - level) <= bound
        assert abs(eigenvalue(op, index, near=(0.0, 1e300)) - level) <= bound


@pytest.mark.parametrize("guess, width", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                          (1.0, math.nan), (1.0, math.inf)])
def test_window_refuses_non_finite_input(guess, width):
    with pytest.raises(ValueError, match="finite"):
        eigenvalue(case_operator("box"), 0, near=(guess, width))


def test_window_on_the_zero_operator():
    # ||T||inf = 0 leaves no eps-scaled floor; the window must still open
    op = DiscretizedOperator(np.zeros(16), np.zeros(15), Grid(0.0, 1.0, 16, DIRICHLET))
    assert eigenvalue(op, 3, near=(0.0, 0.0)) == 0.0


def test_window_that_never_certifies_falls_back_to_the_index_search(monkeypatch):
    # a count that puts every level at or below any point never certifies a
    # window, so every level comes from the index search, nor a Rayleigh step
    grid, _, _, _ = SOLVE_CASES["coulombish"]
    op = case_operator("box")
    level = eigenvalue(op, 0)
    monkeypatch.setattr(eigensolve, "count_below", lambda op, x, *scratch: op.n)
    assert eigenvalue(op, 0, near=(1.0, 1e-3)) == level
    trial = CLOSED_STATES["coulombish"](0, grid.points)
    assert rayleigh_eigenpair(case_operator("coulombish"), 0, trial) is None


@pytest.mark.parametrize("shift", [1e4, 3e4])
@pytest.mark.parametrize("index", [0, 1, 3])
def test_window_with_a_level_at_its_lower_end_never_returns_a_neighbour(shift, index):
    # the harmonic levels moved up by 1e4 or 3e4, where one ulp, 1.8e-12 or
    # 3.6e-12, is about eps ||T||inf: a few ulps either side of a level lie
    # where the pivot count and ?stebz's own count may side differently (at
    # 3e4 they do, one ulp below level 2).  The window's lower end lo sits on
    # the level asked for (index 0) or on the one below it, and at 1 to 4
    # ulps either side; its width of 1 reaches the next level
    grid, potential, prefactor, _ = SOLVE_CASES["harmonic"]
    op = discretize(lambda x: potential(x) + shift, grid, prefactor=prefactor)
    levels = [eigenvalue(op, j) for j in range(index + 2)]
    bound = 4.0 * EPS * op.inf_norm
    width = 1.0
    for way in (-np.inf, np.inf):
        lo = levels[max(index - 1, 0)]
        for _ in range(5):
            guess = lo + width
            assert guess - width == lo  # the window's lower end is lo itself
            value = eigensolve._window(op, index, guess, width)
            assert value is None or abs(value - levels[index]) <= bound, (index, lo)
            lo = float(np.nextafter(lo, way))


def spy_on_requests(monkeypatch):
    """Record (rows, kind, range, result) of every request from here on: a
    LAPACK request of kind "i" or "v" with its select range and the number
    of values returned, and a pivot count ("count") with its point and the
    count."""
    requests = []
    lapack, count = eigensolve._lapack, eigensolve._count

    def lapack_spy(d, e, select, select_range, **kwargs):
        values = lapack(d, e, select, select_range, **kwargs)
        requests.append((len(d), select, select_range, len(values)))
        return values

    def count_spy(d, e, x, *scratch):
        below = count(d, e, x, *scratch)
        requests.append((len(d), "count", x, below))
        return below

    monkeypatch.setattr(eigensolve, "_lapack", lapack_spy)
    monkeypatch.setattr(eigensolve, "_count", count_spy)
    return requests


def window_z(norm, lo):
    """The margin of ``_window`` about its lower end lo, for an operator of
    norm ||T||inf: eps (19/4 ||T||inf + |lo| / 2)."""
    return EPS * (4.75 * norm + 0.5 * abs(lo))


# the 90-wide wall holds the n_rho = 2 hydrogen state, which the 60-wide one
# cuts at 1e-3 of its peak: its closed state is a poorer trial there
@pytest.mark.parametrize("case, grid", [
    pytest.param("coulombish", Grid(0.0, 60.0, 20000, DIRICHLET), id="coulombish-grid0"),
    pytest.param("free ring", Grid(0.0, 2.0 * math.pi, 2048, PERIODIC), id="free ring-grid1"),
    pytest.param("coulombish", Grid(0.0, 90.0, 20000, DIRICHLET), id="coulombish-seeded"),
    pytest.param("radial oscillator", Grid(0.0, 12.0, 4000, DIRICHLET),
                 id="radial oscillator-seeded"),
])
def test_refine_eigenvalue_makes_no_index_request(monkeypatch, case, grid):
    # the levels at h and h/2 of verify_levels make no request to LAPACK's
    # bisection: on each grid, two pivot counts at q' -/+ g about the value
    # returned, index and index + 1.  A ring is refused before any request
    factory = factory_of(case)
    requests = spy_on_requests(monkeypatch)
    if grid.boundary == PERIODIC:
        with pytest.raises(DomainError, match="Dirichlet operators only"):
            rayleigh_eigenpair(factory(grid), 1, np.ones(grid.n_points))
        assert requests == []
        return
    for index in range(3):
        requests.clear()
        levels = verify_levels(factory, grid, index, CLOSED_STATES[case](index, grid.points))
        for rows, value in zip((grid.n_points, grid.refined().n_points), levels):
            mine = [(kind, x, below) for n, kind, x, below in requests if n == rows]
            assert [(kind, below) for kind, _, below in mine] == [("count", index),
                                                                   ("count", index + 1)], index
            (_, lo, _), (_, hi, _) = mine
            assert lo < value < hi and (lo + hi) / 2 == pytest.approx(value, rel=1e-12), index


@pytest.mark.parametrize("rule", ["zero", "1.5x closed"])
def test_refine_eigenvalue_pays_one_index_search_for_a_poor_guess(monkeypatch, rule):
    # a poor trial (none at all, or the closed state stretched by 1.5) costs the
    # step at most two pivot counts and no bisection: it returns the level, or
    # None and the caller's one index search
    grid = Grid(0.0, 60.0, 20000, DIRICHLET)
    requests = spy_on_requests(monkeypatch)
    for index in range(3):
        op = factory_of("coulombish")(grid)
        trial = (np.zeros(grid.n_points) if rule == "zero"
                 else CLOSED_STATES["coulombish"](index, grid.points / 1.5))
        requests.clear()
        pair = rayleigh_eigenpair(op, index, trial)
        kinds = [kind for _, kind, _, _ in requests]
        assert kinds in ([], ["count", "count"]), (index, kinds)
        value = eigenvalue(op, index) if pair is None else pair[0]
        assert len([r for r in requests if r[1] == "i"]) <= 1, (index, requests)
        assert not [r for r in requests if r[1] == "v"], (index, requests)
        requests.clear()
        assert abs(value - eigenvalue(op, index)) <= 4.0 * EPS * op.inf_norm, index
    if rule == "zero":
        assert pair is None


DIRICHLET_CASES = sorted(c for c in SOLVE_CASES if SOLVE_CASES[c][0].boundary == DIRICHLET)
TRIALS = ("closed state", "random", "neighbour's closed state", "zero", "nan")


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(DIRICHLET_CASES), data=st.data(),
       trial_kind=st.sampled_from(TRIALS))
def test_trial_vector_sets_only_the_cost(case, data, trial_kind):
    # a step that certifies returns the index search's level within the
    # bisection tolerance, and one that does not leaves the caller the index
    # search: the trial sets only the cost.  A level's own closed state always
    # certifies; a neighbour's converges to the neighbour and never does
    grid, _, _, k = SOLVE_CASES[case]
    op = factory_of(case)(grid)
    index = data.draw(st.integers(0, k - 1), label="index")
    closed_state, points = CLOSED_STATES[case], grid.points
    if trial_kind == "random":
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        trial = np.random.default_rng(seed).standard_normal(grid.n_points)
    elif trial_kind == "neighbour's closed state":
        neighbour = data.draw(st.sampled_from([j for j in (index - 1, index + 1) if j >= 0]),
                              label="neighbour")
        trial = closed_state(neighbour, points)
    elif trial_kind == "zero":
        trial = np.zeros(grid.n_points)
    else:
        trial = closed_state(index, points)
        if trial_kind == "nan":
            trial[data.draw(st.integers(0, grid.n_points - 1), label="at")] = math.nan
    pair = rayleigh_eigenpair(op, index, trial)
    if trial_kind != "random":
        assert (pair is not None) == (trial_kind == "closed state")
    if pair is not None:
        assert abs(pair[0] - eigenvalue(op, index)) <= 4.0 * EPS * op.inf_norm


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_rayleigh_quotient_is_the_dense_matrix_one(case):
    op = case_operator(case)
    dense = np.diag(op.diagonal) + np.diag(op.off_diagonal, 1) + np.diag(op.off_diagonal, -1)
    if op.grid.boundary == PERIODIC:
        dense[0, -1] = dense[-1, 0] = op.off_diagonal[0]
    z = np.random.default_rng(7).standard_normal(op.n)
    assert op.rayleigh(z) == pytest.approx(z @ dense @ z / (z @ z), rel=1e-12)
    # not finite, and no RuntimeWarning (an error under this suite's settings)
    assert not math.isfinite(op.rayleigh(np.zeros(op.n)))
    for bad in (math.nan, math.inf):
        z[op.n // 2] = bad
        assert not math.isfinite(op.rayleigh(z)), bad


def test_refine_eigenvalue_raises_what_the_index_search_raises():
    # the index rule, checked before any solve; a ring has no Rayleigh step
    grid = Grid(0.0, 1.0, 64, DIRICHLET)
    with pytest.raises(ValueError, match="resolve 0 <= index < 16, got index = 16"):
        rayleigh_eigenpair(discretize(zero, grid), 16, np.ones(64))
    ring = Grid(0.0, 2.0 * math.pi, 128, PERIODIC)
    with pytest.raises(ValueError, match="Dirichlet operators only"):
        rayleigh_eigenpair(discretize(np.sin, ring, prefactor=0.5), 1, np.ones(128))


def test_observed_order_box():
    values = []
    for n in (250, 501, 1003):
        g = Grid(0.0, math.pi, n, DIRICHLET)
        values.append(eigen_lowest(discretize(zero, g), 1).eigenvalues[0])
    assert 1.9 <= observed_order(*values) <= 2.1


def test_observed_order_harmonic():
    values = []
    for n in (400, 801, 1603):
        g = Grid(-8.0, 8.0, n, DIRICHLET)
        values.append(eigen_lowest(discretize(harmonic, g, prefactor=0.5), 1).eigenvalues[0])
    assert 1.9 <= observed_order(*values) <= 2.1


def test_refine_coulombish_convergence_estimate():
    # self-consistency of the two-resolution solve for the rough 1/r problem
    def coulombish(r):
        return 0.75 / r**2 - 2.0 / r

    g = Grid(0.0, 60.0, 4000, DIRICHLET)
    result = refine(lambda gr: discretize(coulombish, gr), g, 2)
    assert np.all(result.convergence_estimate < 1e-5)


def test_operator_symmetry_is_structural():
    # one stored off-diagonal serves both triangles by construction
    g = Grid(0.0, 1.0, 64, DIRICHLET)
    op = discretize(harmonic, g)
    assert op.off_diagonal.shape == (63,)
    dense = np.diag(op.diagonal) + np.diag(op.off_diagonal, 1) + np.diag(op.off_diagonal, -1)
    np.testing.assert_array_equal(dense, dense.T)


# ---------------------------------------------------------------------------
# LAPACK from scipy's extension module, without the scipy packages

FRESH_SOLVES = """
import json, sys

from pdm_polar.eigensolve import (DIRICHLET, Grid, _flapack, count_below, discretize,
                                  eigen_lowest, eigenvalue)

op = discretize(lambda x: 0.5 * x**2, Grid(-8.0, 8.0, 600, DIRICHLET), prefactor=0.5)
lowest = eigen_lowest(op, 3)
solved = [count_below(op, 1.0), eigenvalue(op, 2), eigenvalue(op, 1, near=(1.5, 0.1)),
          lowest.eigenvalues.tolist(), float(lowest.eigenvectors[300, 1])]
unloaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

import scipy.linalg

shared = [_flapack().__file__ == scipy.linalg._flapack.__file__,
          _flapack().dstebz is scipy.linalg._flapack.dstebz,
          _flapack().dstein is scipy.linalg._flapack.dstein]
print(json.dumps([solved, unloaded, shared]))
"""


def test_solves_in_a_fresh_interpreter_load_no_scipy_package():
    # the test process has scipy loaded already; a fresh one solves first
    result = subprocess.run([sys.executable, "-c", FRESH_SOLVES], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    solved, unloaded, shared = json.loads(result.stdout)
    op = discretize(harmonic, Grid(-8.0, 8.0, 600, DIRICHLET), prefactor=0.5)
    lowest = eigen_lowest(op, 3)
    assert solved == [count_below(op, 1.0), eigenvalue(op, 2), eigenvalue(op, 1, near=(1.5, 0.1)),
                      lowest.eigenvalues.tolist(), float(lowest.eigenvectors[300, 1])]
    assert solved[0] == 1 and solved[1] == pytest.approx(2.5, rel=1e-3)
    # a later import of scipy.linalg finds the extension, and these routines, in place
    assert unloaded == []
    assert shared == [True, True, True]


def test_routines_are_scipys_own():
    from scipy.linalg import _flapack, get_lapack_funcs

    assert eigensolve._flapack().__file__ == _flapack.__file__
    stebz, stein, pttrf = get_lapack_funcs(("stebz", "stein", "pttrf"), dtype=np.float64)
    assert eigensolve._flapack().dstebz is stebz and eigensolve._flapack().dstein is stein
    assert eigensolve._flapack().dpttrf is pttrf


def test_missing_extension_names_the_directories_searched(monkeypatch, tmp_path):
    # a scipy package whose linalg directory holds no extension, and no scipy at all
    package = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    package.submodule_search_locations = [str(tmp_path)]
    for found, searched in ((package, re.escape(repr([str(tmp_path / "linalg")]))), (None, r"\[\]")):
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: found)
        eigensolve._flapack.cache_clear()
        try:
            with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack not found in " + searched):
                eigensolve._flapack()
        finally:
            monkeypatch.undo()
            eigensolve._flapack.cache_clear()
    # the cache cleared of the failures loads scipy's own routines again
    from scipy.linalg import _flapack

    assert eigensolve._flapack().dstebz is _flapack.dstebz


@settings(max_examples=40, deadline=None)
@given(
    op=st.sampled_from(sorted(SOLVE_CASES)).map(case_operator) | random_tridiagonals(),
    data=st.data(),
)
def test_lapack_requests_match_eigh_tridiagonal(op, data):
    # eigh_tridiagonal's stebz driver fetches its routines through get_lapack_funcs
    from scipy.linalg import eigh_tridiagonal

    for diag, off, _ in op.sectors:
        n = len(diag)
        lo = data.draw(st.integers(0, n - 1), label="lo")
        hi = data.draw(st.integers(lo, min(n - 1, lo + 8)), label="hi")
        reference = functools.partial(eigh_tridiagonal, diag, off, lapack_driver="stebz")
        by_index = reference(eigvals_only=True, select="i", select_range=(lo, hi))
        np.testing.assert_array_equal(eigensolve._lapack(diag, off, "i", (lo, hi)), by_index)
        w, v = eigensolve._lapack(diag, off, "i", (lo, hi), vectors=True)
        w_ref, v_ref = reference(select="i", select_range=(lo, hi))
        np.testing.assert_array_equal(w, w_ref)
        np.testing.assert_array_equal(v, v_ref)
        # a window between two of those levels, and the pivot count at its two
        # ends, the dense count away from ties (assert_dense_count)
        a, b = sorted(data.draw(st.sampled_from(by_index.tolist()), label=end) for end in "ab")
        window = (a - 1e-3 * abs(a), b)
        np.testing.assert_array_equal(
            eigensolve._lapack(diag, off, "v", window),
            reference(eigvals_only=True, select="v", select_range=window))
        for x in (b, window[0]):
            assert_dense_count(diag, off, x)
