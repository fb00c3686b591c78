"""Closed-form spectra, the numeric oracle sweeps, scans, and degeneracies."""

import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pdm_polar import (
    CosSquaredProfile,
    CoulombLike,
    FlatProfile,
    Ordering,
    OscillatorLike,
    QuantumNumbers,
    SeparableModel,
    SpectrumRecord,
    TabulatedProfile,
    all_within,
    check_constraint27,
    coulomb_energy,
    coulomb_lambda,
    coulomb_numeric_level,
    degeneracy_report,
    flat_energy,
    heun_regime_scan,
    make_ambiguity,
    oscillator_energy,
    oscillator_lambda,
    oscillator_numeric_level,
    parse_ordering_token,
    radial_problem,
    scan_curve,
    swap_alpha_gamma,
    toy_radial_solution,
    verify_coulomb,
    verify_oscillator,
    w_eff,
    xi,
)
from pdm_polar import cli, load_model
from pdm_polar.errors import DomainError, NoRoot
from pdm_polar.models import (
    scan_level,
    verify_family,
    verify_sweep,
)
from pdm_polar.eigensolve import DIRICHLET, Grid, discretize, eigen_lowest
from pdm_polar.specfun import bessel_j

from conftest import random_ordering, write_model, zero_zeta_records

MM = Ordering.MUSTAFA_MAZHARIMOUSAVI.ambiguity()
BDD = Ordering.BENDANIEL_DUKE.ambiguity()
GW = Ordering.GORA_WILLIAMS.ambiguity()
ZK = Ordering.ZHU_KROEMER.ambiguity()
LK = Ordering.LI_KUHN.ambiguity()
EPS = np.finfo(float).eps
GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# closed forms


def test_flat_energy_values():
    assert flat_energy(BDD, 0, 0.0) == 0.0
    assert flat_energy(BDD, 2, 3.0) == 0.5
    assert flat_energy(GW, 1, 0.0) == -0.5


def test_coulomb_lambda_values():
    assert coulomb_lambda(3.0, 0) == 5.25
    assert coulomb_lambda(2.0, 0) == 1.25
    assert coulomb_lambda(5.0, 2) == 5.25


def test_coulomb_lambda_domain():
    with pytest.raises(DomainError):
        coulomb_lambda(1.5, 1)
    with pytest.raises(DomainError):
        coulomb_lambda(2.0, -1)


def test_coulomb_energy_values():
    assert coulomb_energy(BDD, 3.0, QuantumNumbers(0, 0)) == -2.625
    assert coulomb_energy(BDD, 3.0, QuantumNumbers(0, 2)) == -0.625
    assert coulomb_energy(MM, 2.0, QuantumNumbers(0, 0)) == -1.0


def test_oscillator_lambda_values():
    assert oscillator_lambda(1.0, 2.0, 0) == 0.0
    assert oscillator_lambda(1.0, 4.0, 0) == 8.0
    assert oscillator_lambda(2.0, 10.0, 1) == 3.0


def test_oscillator_energy_values():
    assert oscillator_energy(BDD, 1.0, 2.0, QuantumNumbers(0, 0)) == 0.0
    assert oscillator_energy(BDD, 1.0, 4.0, QuantumNumbers(0, 3)) == 0.5
    assert oscillator_energy(GW, 1.0, 2.0, QuantumNumbers(0, 0)) == -1.0


def test_oscillator_domain_guards():
    with pytest.raises(DomainError):
        oscillator_lambda(0.0, 2.0, 0)
    with pytest.raises(DomainError):
        oscillator_lambda(1.0, 2.0, 1)
    with pytest.raises(DomainError):
        oscillator_energy(BDD, 1.0, 2.0, QuantumNumbers(1, 0))


def test_pipeline_identity_coulomb(rng):
    for _ in range(500):
        a = random_ordering(rng)
        n_rho = int(rng.integers(0, 4))
        b = float(rng.uniform(n_rho + 1.0 + 1e-6, 20.0))
        m = int(rng.integers(-10, 11))
        lhs = flat_energy(a, m, coulomb_lambda(b, n_rho))
        rhs = coulomb_energy(a, b, QuantumNumbers(n_rho, m))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_pipeline_identity_oscillator(rng):
    for _ in range(500):
        a = random_ordering(rng)
        n_rho = int(rng.integers(0, 4))
        a_param = float(rng.uniform(0.1, 4.0))
        d = a_param * float(rng.uniform(2 * n_rho + 1.0 + 1e-6, 25.0))
        m = int(rng.integers(-10, 11))
        lhs = flat_energy(a, m, oscillator_lambda(a_param, d, n_rho))
        rhs = oscillator_energy(a, a_param, d, QuantumNumbers(n_rho, m))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_every_closed_energy_is_flat_energy(rng, tmp_path, capsys):
    """The radial families only fix lambda: each closed energy, direct or in a
    spectrum table, is flat_energy at the family's lambda, bit for bit."""
    named = [o.token for o in Ordering]
    for trial in range(40):
        a = random_ordering(rng)
        token = (f"custom:{a.alpha!r},{a.beta!r},{a.gamma!r}" if trial % 2
                 else named[trial // 2 % len(named)])
        ordering = parse_ordering_token(token)
        n_rho = int(rng.integers(0, 4))
        m = int(rng.integers(-10, 11))
        b = float(rng.uniform(n_rho + 0.5 + 1e-6, 20.0))
        a_param = float(rng.uniform(0.1, 4.0))
        d = a_param * float(rng.uniform(2 * n_rho + 1.0 + 1e-6, 25.0))
        qn = QuantumNumbers(n_rho, m)
        assert coulomb_energy(ordering, b, qn) == flat_energy(ordering, m,
                                                              coulomb_lambda(b, n_rho))
        assert oscillator_energy(ordering, a_param, d, qn) == flat_energy(
            ordering, m, oscillator_lambda(a_param, d, n_rho))

        potential = ({"coulomb_like": {"omega": 1.0 / b}} if trial % 3 == 0
                     else {"oscillator_like": {"a": a_param, "d": d}} if trial % 3 == 1
                     else None)
        model = {"f": "flat", "ordering": token}
        if potential is not None:
            model["potential"] = potential
        path = write_model(tmp_path, f"model{trial}.json", model)
        argv = ["spectrum", "--model", str(path), f"--n-rho-max={n_rho}", "--m-max=4",
                f"--lambda={float(rng.uniform(-3.0, 6.0))!r}"]
        assert cli.main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["records"]
        assert len(rows) == 9 * (1 if potential is None else n_rho + 1)
        for row in rows:
            assert row["energy_closed"] == flat_energy(ordering, row["m"], row["lambda"])


def test_energy_invariances_exact(rng):
    for _ in range(300):
        a = random_ordering(rng)
        swapped = swap_alpha_gamma(a)
        n_rho = int(rng.integers(0, 3))
        b = float(rng.uniform(n_rho + 1.5, 12.0))
        m = int(rng.integers(-6, 7))
        qn = QuantumNumbers(n_rho, m)
        qn_neg = QuantumNumbers(n_rho, -m)
        assert coulomb_energy(a, b, qn) == coulomb_energy(swapped, b, qn)
        assert coulomb_energy(a, b, qn) == coulomb_energy(a, b, qn_neg)
        assert flat_energy(a, m, 1.3) == flat_energy(swapped, -m, 1.3)


# ---------------------------------------------------------------------------
# the unseparated 2D Hamiltonian (von Roos oracle)
#
# H psi = -(1/4) [M^a div(M^b grad(M^c psi)) + M^c div(M^b grad(M^a psi))]
#         + (v/f) psi,   M = f(phi)/rho^2,  (a, b, c) = (alpha, beta, gamma),
# in plane polar coordinates (O. von Roos, Phys. Rev. B 27, 7547 (1983)).  It
# is applied with mpmath.diff to a product state, so no package code takes
# part in it; the package supplies only the ordering triples and the energy.


def von_roos_ratio(triple, f, v, psi, rho, phi):
    """H psi / psi at (rho, phi), for the exact triple (alpha, beta, gamma)."""
    import mpmath

    a, b, c = (mpmath.mpf(t.numerator) / t.denominator for t in triple)

    def mass(r, p):
        return f(p) / r**2

    def div_flux(g, r, p):
        """div(M^b grad g) at (r, p): (1/r) d_r(r F_r) + (1/r) d_p F_p, F = M^b grad g."""

        def r_times_radial_flux(s):
            return s * mass(s, p) ** b * mpmath.diff(lambda u: g(u, p), s)

        def angular_flux(t):
            return mass(r, t) ** b * mpmath.diff(lambda u: g(r, u), t) / r

        return (mpmath.diff(r_times_radial_flux, r) + mpmath.diff(angular_flux, p)) / r

    def term(outer, inner):
        return mass(rho, phi) ** outer * div_flux(lambda r, p: mass(r, p) ** inner * psi(r, p),
                                                  rho, phi)

    h_psi = -(term(a, c) + term(c, a)) / 4 + v(rho) / f(phi) * psi(rho, phi)
    return h_psi / psi(rho, phi)


@pytest.mark.parametrize("ordering", list(Ordering), ids=lambda o: o.token)
@pytest.mark.parametrize("b, n_rho, m", [(3, 0, 0), (3, 1, 2), (4.5, 2, 1)])
def test_coulomb_energy_is_an_eigenvalue_of_the_von_roos_hamiltonian(ordering, b, n_rho, m):
    mpmath = pytest.importorskip("mpmath")
    expected = coulomb_energy(ordering.ambiguity(), b, QuantumNumbers(n_rho, m))
    with mpmath.workdps(40):
        b_mp = mpmath.mpf(b)
        ell = b_mp - n_rho - mpmath.mpf(1) / 2

        def psi(r, p):
            # rho^(-3/2) U e^(i m phi), U the hydrogen state at l = ell - 1/2
            u = (r ** (ell + 0.5) * mpmath.exp(-r / b_mp)
                 * mpmath.laguerre(n_rho, 2 * ell, 2 * r / b_mp))
            return r ** mpmath.mpf(-1.5) * u * mpmath.expj(m * p)

        def v(r):
            # the coulomb-like potential at omega = 1/b
            return r**2 / (2 * b_mp**2) - r

        for rho, phi in (("1.3", "0.4"), ("3.7", "2.1")):
            ratio = von_roos_ratio(ordering.triple, lambda p: mpmath.mpf(1), v, psi,
                                   mpmath.mpf(rho), mpmath.mpf(phi))
            assert abs(ratio.real - expected) <= 1e-12 * abs(expected), (rho, phi)
            assert abs(ratio.imag) <= 1e-12, (rho, phi)


def _closed_radial(potential, n_rho):
    """The oracle's own radial state U and potential v of a family, as mpmath
    functions: the unnormalized 3D hydrogen or oscillator state at
    l = ell - 1/2, with ell read from the potential's parameters."""
    import mpmath

    if isinstance(potential, CoulombLike):
        b = mpmath.mpf(potential.b)
        ell = b - n_rho - mpmath.mpf(1) / 2
        return (lambda r: r ** (ell + 0.5) * mpmath.exp(-r / b)
                * mpmath.laguerre(n_rho, 2 * ell, 2 * r / b),
                lambda r: r**2 / (2 * b**2) - r)
    a, d = mpmath.mpf(potential.a), mpmath.mpf(potential.d)
    ell = d / a - 2 * n_rho - 1
    return (lambda r: r ** (ell + 0.5) * mpmath.exp(-a * r**2 / 4)
            * mpmath.laguerre(n_rho, ell, a * r**2 / 2),
            lambda r: a**2 * r**4 / 8 - d * r**2 / 2)


@st.composite
def von_roos_cases(draw):
    """An ordering triple on the sum rule, a radial family at a level with
    ell >= 0.3, and a point (rho, phi) away from rho = 0 and the cos^2 mass zeros."""
    alpha = draw(st.floats(-2.0, 2.0), label="alpha")
    gamma = draw(st.floats(-2.0, 2.0), label="gamma")
    family = draw(st.sampled_from([CoulombLike, OscillatorLike]), label="family")
    n_rho = draw(st.integers(0, 2), label="n_rho")
    ell = draw(st.floats(0.3, 3.0), label="nominal ell")
    if family is CoulombLike:
        potential = CoulombLike(1.0 / (n_rho + 0.5 + ell))
    else:
        a_param = draw(st.floats(0.5, 2.0), label="a")
        potential = OscillatorLike(a_param, a_param * (2 * n_rho + 1 + ell))
    rho = draw(st.floats(0.5, 5.0), label="rho")
    return alpha, gamma, potential, n_rho, rho


# f = 2 + cos phi and its derivatives sampled on a uniform periodic table
_TABLE_STEP = 2.0 * math.pi / 2**14
_TABLE_PHI = _TABLE_STEP * np.arange(2**14)
_TABLE = TabulatedProfile(_TABLE_PHI, 2.0 + np.cos(_TABLE_PHI), -np.sin(_TABLE_PHI),
                          -np.cos(_TABLE_PHI))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=von_roos_cases(), profile=st.sampled_from(["flat", "cos2", "tabulated"]),
       data=st.data())
def test_printed_energy_and_w_eff_satisfy_the_von_roos_hamiltonian(case, profile, data):
    # flat: H psi / psi is the printed energy; cos^2: H[R f^(1/4) chi(q)] / (R f^(1/4))
    # is -(1/2) chi'' + W_eff chi, with the package's float w_eff; tabulated: chi = 1,
    # so H[R f^(1/4)] / (R f^(1/4)) is W_eff alone and needs no arclength q
    mpmath = pytest.importorskip("mpmath")
    alpha, gamma, potential, n_rho, rho = case
    triple = (Fraction(alpha), -1 - Fraction(alpha) - Fraction(gamma), Fraction(gamma))
    ordering = make_ambiguity(alpha, float(triple[1]), gamma)
    lam = potential.lam(n_rho)
    with mpmath.workdps(30):
        u, v = _closed_radial(potential, n_rho)
        if profile == "flat":
            m = data.draw(st.integers(-3, 3), label="m")
            phi = data.draw(st.floats(0.0, 2.0 * math.pi), label="phi")
            ratio = von_roos_ratio(triple, lambda p: mpmath.mpf(1),
                                   v, lambda r, p: r ** mpmath.mpf(-1.5) * u(r) * mpmath.expj(m * p),
                                   mpmath.mpf(rho), mpmath.mpf(phi))
            expected = flat_energy(ordering, m, lam)
            assert abs(ratio.real - expected) <= 1e-12 * max(1.0, abs(expected))
            assert abs(ratio.imag) <= 1e-12 * max(1.0, abs(expected))
            return
        if profile == "tabulated":
            phi = data.draw(st.floats(0.0, 2.0 * math.pi), label="phi")
            ratio = von_roos_ratio(triple, lambda p: 2 + mpmath.cos(p), v,
                                   lambda r, p: r ** mpmath.mpf(-1.5) * u(r) * (2 + mpmath.cos(p)) ** 0.25,
                                   mpmath.mpf(rho), mpmath.mpf(phi))
            expected = w_eff(_TABLE, ordering, lam, phi)
            # the table reads f, f' and f'' linearly, each within h^2/8 (h the spacing,
            # every second derivative at most 1); W_eff's partial derivatives in them,
            # on f >= 1 and |f'|, |f''| <= 1, carry that to the bound, doubled for the
            # terms of second order: O(h^2) in all
            x, s = xi(ordering), ordering.alpha + ordering.gamma
            slope = (abs(7 - 8 * x) * (3 / 32 + 1 / 16) + abs(1 + 2 * s) * (1 / 4 + 1 / 8)
                     + abs(x + s + lam / 2))
            bound = 2 * slope * _TABLE_STEP**2 / 8 + 1e-10 * max(1.0, abs(expected))
            assert abs(ratio - expected) <= bound
            return
        phi = data.draw(st.floats(-1.2, 1.2), label="phi")

        def chi(q):
            return mpmath.cos(1.3 * q) + 0.2 * q**3

        def psi(r, p):
            return r ** mpmath.mpf(-1.5) * u(r) * mpmath.sqrt(mpmath.cos(p)) * chi(mpmath.sin(p))

        q = mpmath.sin(mpmath.mpf(phi))
        lhs = von_roos_ratio(triple, lambda p: mpmath.cos(p) ** 2, v, psi,
                             mpmath.mpf(rho), mpmath.mpf(phi)) * chi(q)
        kinetic = -(-(1.3**2) * mpmath.cos(1.3 * q) + 1.2 * q) / 2
        potential = w_eff(CosSquaredProfile(), ordering, lam, phi) * chi(q)
        scale = max(1.0, abs(kinetic), abs(potential))
        assert abs(lhs.real - (kinetic + potential)) <= 1e-10 * scale
        assert abs(lhs.imag) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# numeric radial levels: true spectra of the assembled operators
#
# The assembled Coulomb-like operator -U'' + [(ell^2-1/4)/r^2 - 2/r] U is the
# 2D hydrogen problem, with levels -1/(n + ell + 1/2)^2 (Whittaker reduction).
# The paper's -1/(n + l + 1)^2 is the same spectrum once l is read through
# l(l+1) = 3/4 + lambda, i.e. l = ell - 1/2.  The solver itself is validated
# here against these values, independently of the quantization map.


def coulomb_true_level(ell: float, n_rho: int) -> float:
    return -1.0 / (n_rho + ell + 0.5) ** 2


def test_coulomb_numeric_matches_true_spectrum():
    for ell, n_rho, rho_max in ((1.0, 0, 60.0), (2.0, 0, 60.0), (1.0, 1, 60.0), (3.0, 2, 120.0)):
        value, conv = coulomb_numeric_level(ell, n_rho, n_points=3000, rho_max=rho_max)
        true = coulomb_true_level(ell, n_rho)
        assert value == pytest.approx(true, rel=1e-4)
        assert conv < 1e-4


def test_oscillator_numeric_matches_closed_form():
    for ell in (0.5, 1.0, 2.5):
        for n_rho in (0, 1):
            value, conv = oscillator_numeric_level(1.0, ell, n_rho, n_points=2000)
            assert value == pytest.approx(2.0 * n_rho + ell + 1.0, rel=1e-4)


def test_oscillator_numeric_spec_example():
    value, _ = oscillator_numeric_level(1.0, 1.0, 0, n_points=4000)
    assert value == pytest.approx(2.0, abs=1e-4)
    value, _ = oscillator_numeric_level(1.0, 2.0, 1, n_points=4000)
    assert value == pytest.approx(5.0, abs=1e-4)


def test_verify_oscillator_within_tolerance():
    records = verify_oscillator(1.0, 4.0, 1, 1e-4, n_points=2000)
    assert len(records) == 2
    assert all_within(records, 1e-4)
    for n_rho, record in enumerate(records):
        assert record.qn.n_rho == n_rho
        assert record.provenance == "both"
        assert record.energy_closed == pytest.approx(4.0, rel=1e-12)
        assert record.convergence_estimate is not None


@settings(max_examples=60, deadline=None)
# a (2 n_rho + ell + 1), rebuilt from the rounded order of level 5, is d - 1 ulp
@example(a_param=4.504731942405228, d_over_a=11.010539900664622, n_rho_max=5)
@given(a_param=st.floats(-3.0, 3.0).map(lambda e: 10.0**e), d_over_a=st.floats(1.01, 113.0),
       n_rho_max=st.integers(0, 6))
def test_every_checked_level_reports_the_family_closed_value(a_param, d_over_a, n_rho_max):
    assume(d_over_a > 2 * n_rho_max + 1)
    v = OscillatorLike(a_param, a_param * d_over_a)
    assert v.closed == v.d
    records = verify_family(v, n_rho_max, n_points=64)
    assert [r.energy_closed for r in records] == [v.d] * (n_rho_max + 1)


@pytest.mark.parametrize("a_param, d, n_rho_max", [(1.0, 60.0, 0), (0.5, 40.0, 1)])
def test_verify_oscillator_default_wall_holds_a_deep_well(a_param, d, n_rho_max):
    # the outer turning point 2 sqrt(d)/a lies past 12/sqrt(a) once d/a > 9
    records = verify_oscillator(a_param, d, n_rho_max, 1e-4)
    assert all_within(records, 1e-4), [r.delta for r in records]


@pytest.mark.parametrize("a_param", [0.5, 1.0, 2.0])
def test_oscillator_default_wall_keeps_its_floor(a_param):
    assert OscillatorLike(a_param, 12.0 * a_param).default_wall() == 12.0 / math.sqrt(a_param)


def test_verify_oscillator_domain_guard():
    with pytest.raises(DomainError):
        verify_oscillator(0.0, 4.0, 1, 1e-4)
    with pytest.raises(DomainError):
        verify_oscillator(1.0, 4.0, 2, 1e-4)
    with pytest.raises(DomainError):
        verify_oscillator(1.0, 4.0, -1, 1e-4)


def test_verify_coulomb_structure_and_honest_deltas():
    records = verify_coulomb(3.0, 1, 1e-4, n_points=2000)
    assert len(records) == 2
    for n_rho, record in enumerate(records):
        assert record.qn.n_rho == n_rho
        assert record.lam == coulomb_lambda(3.0, n_rho)
        assert record.energy_closed == pytest.approx(-1.0 / 9.0, rel=1e-12)
        # the numeric level sits at the true spectrum of the operator
        ell = 3.0 - n_rho - 0.5
        assert record.energy_numeric == pytest.approx(
            coulomb_true_level(ell, n_rho), rel=1e-4
        )
        assert record.delta == pytest.approx(
            abs(record.energy_closed - record.energy_numeric), rel=1e-12
        )
    # the closed form, quantized with l(l+1) = 3/4 + lambda, is that spectrum
    assert all_within(records, 1e-4)


def checked_record(delta, state_error):
    """A record whose energies lie delta apart; a delta of None gives no numeric energy."""
    record = SpectrumRecord(qn=QuantumNumbers(0, 0), lam=0.0, energy_closed=0.0,
                            energy_numeric=delta, state_error=state_error)
    assert record.delta == delta
    return record


def test_record_delta_and_provenance_follow_its_energies():
    closed = SpectrumRecord(qn=QuantumNumbers(0, 0), lam=0.0, energy_closed=-0.25)
    assert (closed.delta, closed.provenance) == (None, "closed-form")
    checked = dataclasses.replace(closed, energy_numeric=-0.5)
    assert (checked.delta, checked.provenance) == (0.25, "both")
    # neither can be set apart from the energies
    with pytest.raises(TypeError):
        SpectrumRecord(qn=QuantumNumbers(0, 0), lam=0.0, energy_closed=-0.25, delta=0.0)


@pytest.mark.parametrize("delta", [None, 0.0, 1e-5, 1.0])
@pytest.mark.parametrize("state_error", [0.5, 0.75, 1.0])
def test_all_within_fails_a_state_error_of_one_half_or_more(delta, state_error):
    assert not all_within([checked_record(delta, state_error)], 1e-4)


def test_all_within_passes_a_state_error_below_one_half_within_tol():
    record = checked_record(1e-5, 0.49)
    assert all_within([record], 1e-4)
    assert not all_within([record], 1e-6)


def test_all_within_reads_records_without_a_state_error_by_their_deltas():
    # a spectrum table's closed records carry no delta: they pass at any tol
    table = [_closed_record(BDD, 3.0, n_rho, m) for n_rho in range(2) for m in (-1, 0, 1)]
    assert all(r.delta is None and r.state_error is None for r in table)
    assert all_within(table, 0.0)
    # verify_family's records pass exactly up to their largest delta
    records = verify_family(OscillatorLike(1.0, 4.0), 1, n_points=1024)
    assert all(r.state_error is None for r in records)
    worst = max(r.delta for r in records)
    assert all_within(records, worst)
    assert not all_within(records, math.nextafter(worst, 0.0))
    assert all_within(table + records, worst)


def test_verify_coulomb_domain_guard():
    with pytest.raises(DomainError):
        verify_coulomb(1.5, 1, 1e-4)
    with pytest.raises(DomainError):
        verify_coulomb(3.0, -1, 1e-4)
    # omega = 1/b has no value at b = 0
    with pytest.raises(DomainError):
        verify_coulomb(0.0, 0, 1e-4)


@pytest.mark.parametrize("call", [
    lambda: coulomb_numeric_level(0.0, 0),
    lambda: coulomb_numeric_level(-0.5, 0),
    lambda: coulomb_numeric_level(math.nan, 0),
    lambda: oscillator_numeric_level(1.0, 1.0, -1),
    lambda: scan_level(MM, -0.75, state_index=-1),
    # index 512 reaches n_points/4
    lambda: scan_level(MM, -0.75, state_index=512, n_points=2050),
    # index 1000 reaches n_points/4
    lambda: coulomb_numeric_level(1.0, 1000, n_points=4000),
    # grids refused: fewer than 16 points, an odd scan ring
    lambda: oscillator_numeric_level(1.0, 1.0, 0, n_points=8),
    lambda: scan_level(MM, -0.75, n_points=63),
], ids=["coulomb-ell-zero", "coulomb-ell-negative", "coulomb-ell-nan", "oscillator-n-rho-negative",
        "zero-zeta-index-negative", "zero-zeta-index-past-grid", "coulomb-n-rho-past-grid",
        "oscillator-too-few-points", "zero-zeta-odd-ring"])
def test_numeric_level_guards_raise_domain_error(monkeypatch, call):
    import pdm_polar.models as md

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the input was checked")

    monkeypatch.setattr(md, "rayleigh_eigenpair", no_solve)
    monkeypatch.setattr(md, "eigenvalue", no_solve)
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", [
    # b = n_rho + ell + 1/2 = -0.2 would give the wall 2 b^2 + 20 b < 0
    lambda: coulomb_numeric_level(0.3, -1),
    lambda: oscillator_numeric_level(1.0, 1.5, -1),
], ids=["coulomb", "oscillator"])
def test_negative_n_rho_is_refused_by_the_index_rule(call):
    with pytest.raises(DomainError, match=r"^4000 grid points resolve 0 <= n_rho < 1000, "
                                          r"got n_rho = -1$"):
        call()


def test_zero_zeta_levels_resolve_the_last_index_below_a_quarter_of_the_ring():
    # 66 / 4 = 16.5: index 15, m = 8, is the last one resolved (511, m = 256,
    # at 2050 points); on the free ring of spacing h its level is
    # (1 - cos mh)/h^2 = (m^2/2) (sin(mh/2)/(mh/2))^2, about 5% below m^2/2
    import pdm_polar.models as md

    for n_points, index, m in ((66, 15, 8), (2050, 511, 256)):
        op = md._scan_operator(MM, -0.75, index, n_points)
        h = op.grid.h
        value = scan_level(MM, -0.75, state_index=index, n_points=n_points)
        bound = 4.0 * float(np.finfo(float).eps) * op.inf_norm
        assert abs(value - (1.0 - math.cos(m * h)) / h**2) <= bound, n_points
        bias = 1.0 - (math.sin(m * h / 2) / (m * h / 2)) ** 2
        assert 1.0 - value / (m * m / 2) == pytest.approx(bias, rel=1e-9)
        assert 0.047 < bias < 0.051


# ---------------------------------------------------------------------------
# closed radial states


def family_potential(family, n_rho, ell, a_param=0.7):
    """The family's potential whose level n_rho has radial order ell, and that ell."""
    if family is CoulombLike:
        v = CoulombLike(1.0 / (n_rho + ell + 0.5))
    else:
        v = OscillatorLike(a_param, a_param * (2 * n_rho + ell + 1))
    return v, math.sqrt(v.lam(n_rho) + 1.0)


@pytest.mark.parametrize("family", [CoulombLike, OscillatorLike], ids=["coulomb", "oscillator"])
def test_closed_state_matches_an_mpmath_laguerre_state(family):
    mpmath = pytest.importorskip("mpmath")
    for n_rho in range(4):
        for nominal_ell in (0.2, 0.6, 1.17, 2.5, 8.0):
            v, ell = family_potential(family, n_rho, nominal_ell)
            if family is CoulombLike:
                b = v.b

                def u(r):
                    return (r ** (ell + 0.5) * mpmath.exp(-r / b)
                            * mpmath.laguerre(n_rho, 2 * ell, 2 * r / b))
            else:
                a_param = v.a

                def u(r):
                    return (r ** (ell + 0.5) * mpmath.exp(-a_param * r * r / 4)
                            * mpmath.laguerre(n_rho, ell, a_param * r * r / 2))

            wall = v.default_wall()
            rho = np.linspace(wall / 400, wall, 30)
            with mpmath.workdps(20):
                norm = mpmath.sqrt(mpmath.quad(lambda r: u(r) ** 2,
                                               [0, wall / 4, wall, mpmath.inf]))
                ref = np.array([float(u(mpmath.mpf(r)) / norm) for r in rho])
            # an independent sign: the largest sample is positive
            ref *= np.sign(ref[np.argmax(np.abs(ref))])
            got = v.state(n_rho, rho)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale, (n_rho, nominal_ell)


@pytest.mark.parametrize("family", [CoulombLike, OscillatorLike], ids=["coulomb", "oscillator"])
def test_numeric_eigenvector_converges_to_the_closed_state_at_second_order(family):
    # 500, 1001 and 2003 points: each grid halves the spacing of the one before
    for n_rho in range(3):
        for nominal_ell in (1.0, 1.17, 2.5, 8.0):
            v, _ = family_potential(family, n_rho, nominal_ell, a_param=1.0)
            errors = [verify_sweep(v, n_rho, n_points=n)[n_rho].state_error
                      for n in (500, 1001, 2003)]
            for coarse, fine in zip(errors, errors[1:]):
                assert math.log2(coarse / fine) == pytest.approx(2.0, abs=0.3), (n_rho, nominal_ell)


@pytest.mark.parametrize("family", [CoulombLike, OscillatorLike], ids=["coulomb", "oscillator"])
def test_closed_state_largest_lobe_is_positive(family):
    for n_rho in range(12):
        for nominal_ell in (0.02, 0.1, 0.2, 0.5, 0.6, 1.0, 1.17, 2.5, 8.0, 20.0, 40.0):
            v, _ = family_potential(family, n_rho, nominal_ell)
            reach = (v.default_wall() if family is CoulombLike
                     else 4.0 * math.sqrt(v.d) / v.a + 10.0)
            u = v.state(n_rho, np.linspace(reach / 20000, reach, 20000))
            assert u[np.argmax(np.abs(u))] > 0.0, (n_rho, nominal_ell)


def reference_state_errors(v, n_rho_max, n_points):
    """Each level's closed state against the eigenvector of its operator on
    the default wall grid: the radial problem that effpot samples at the
    level's lambda, shifted by its closed value, built here from the
    solver's primitives."""
    grid = Grid(0.0, v.default_wall(), n_points, DIRICHLET)
    model = SeparableModel(FlatProfile(), v, BDD)
    errors = []
    for n_rho, lam, _ in v.levels(n_rho_max):
        domain = (float(grid.points[0]), grid.x_max)
        effective = radial_problem(model, lam, domain).effective_potential
        closed = v.closed
        op = discretize(lambda r: effective(r) + closed, grid)
        numeric = eigen_lowest(op, n_rho + 1).eigenvectors[:, n_rho]
        closed = v.state(n_rho, grid.points)
        numeric = math.copysign(1.0, numeric @ closed) * numeric
        errors.append(math.sqrt(grid.h * float(np.sum((numeric - closed) ** 2))))
    return errors


def test_state_errors_guard_their_own_sweep(monkeypatch):
    import pdm_polar.models as md

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the input was checked")

    monkeypatch.setattr(md, "eigen_lowest", no_solve)
    monkeypatch.setattr(md, "rayleigh_eigenpair", no_solve)
    # the sweep's guards hold before either check solves
    with pytest.raises(DomainError,
                       match="4000 grid points resolve 0 <= n_rho < 1000, got n_rho = 1000"):
        verify_sweep(OscillatorLike(1.0, 4001.0), 1000, n_points=4000)
    with pytest.raises(DomainError, match="n_rho_max must be >= 0"):
        verify_sweep(OscillatorLike(1.0, 4.0), -1)
    with pytest.raises(DomainError, match="at least 16 points"):
        verify_sweep(CoulombLike(1.0 / 3.0), 0, n_points=8)


@pytest.mark.parametrize("v", [
    CoulombLike(1.0 / 3.0), CoulombLike(1.0 / 5.3), OscillatorLike(1.0, 8.0), OscillatorLike(0.7, 9.0),
], ids=["coulomb-3", "coulomb-5.3", "oscillator-8", "oscillator-0.7-9"])
def test_verify_sweep_is_verify_family_and_state_errors(v):
    # the one sweep of the verify command gives both checks' values bit for bit
    records = verify_sweep(v, 2, n_points=1024)
    assert ([dataclasses.replace(r, state_error=None) for r in records]
            == verify_family(v, 2, n_points=1024))
    assert [r.state_error for r in records] == reference_state_errors(v, 2, 1024)


@pytest.mark.parametrize("sweep", [verify_family, verify_sweep], ids=["verify", "both"])
def test_sweep_refuses_an_unresolved_index_before_any_level(sweep, monkeypatch):
    # an index far past the grid is refused before a list of 3e6 levels is built
    calls = {"lam": 0}
    lam = CoulombLike.lam

    def counted(self, n_rho):
        calls["lam"] += 1
        return lam(self, n_rho)

    monkeypatch.setattr(CoulombLike, "lam", counted)
    with pytest.raises(DomainError,
                       match="4000 grid points resolve 0 <= n_rho < 1000, got n_rho = 3000000"):
        sweep(CoulombLike(1e-9), 3_000_000)
    assert calls["lam"] == 0


# each model has a level past the sweep's top one, n_rho = 2, for Shifted to read;
# at b = 5.3 the n_rho = 3 state lies 0.445 from the n_rho = 2 eigenvector, so
# the Coulomb case takes b = 8, where every wrong state lies 0.66 or more away
@pytest.mark.parametrize("v", [CoulombLike(1.0 / 8.0), OscillatorLike(1.0, 10.0)],
                         ids=["coulomb", "oscillator"])
def test_state_errors_flag_a_wrong_state(v):
    family = type(v)

    class Shifted(family):
        def state(self, n_rho, rho):
            return family.state(self, n_rho + 1, rho)

    class Flipped(family):
        def state(self, n_rho, rho):
            return -family.state(self, n_rho, rho)

    def state_errors(potential, **kwargs):
        return [r.state_error for r in verify_sweep(potential, 2, **kwargs)]

    params = dataclasses.astuple(v)
    assert max(state_errors(v)) < 1e-4
    # each eigenvector is far from the next level's closed state, at that level's own order
    assert min(state_errors(Shifted(*params), n_points=1000)) > 0.5
    # the eigenvector's sign is arbitrary, so the check aligns it
    assert state_errors(Flipped(*params), n_points=1000) == state_errors(v, n_points=1000)


# each level is given the next level's closed state: its solve converges to
# another index, so no level is certified and the sweep fails, whatever its
# delta and state error.  Three of these state errors pass the 1/2 rule: 0.445
# (b = 5.3, level 2), 0.457 and 0.169 (b = 3.6, levels 1 and 2)
@pytest.mark.parametrize("b, passing_state_errors", [(5.3, 1), (3.6, 2)])
def test_a_wrong_state_fails_every_level_by_its_certificate(b, passing_state_errors):
    class Shifted(CoulombLike):
        def state(self, n_rho, rho):
            return CoulombLike.state(self, n_rho + 1, rho)

    own = verify_sweep(CoulombLike(1.0 / b), 2, n_points=1000)
    wrong = verify_sweep(Shifted(1.0 / b), 2, n_points=1000)
    assert [r.certified for r in own] == [True] * 3
    assert all_within(own, 1e-4)
    assert [r.certified for r in wrong] == [False] * 3
    assert [r.note for r in wrong] == [f"{CoulombLike.note}; the solve from the closed state "
                                       f"did not certify index {n}" for n in range(3)]
    assert sum(r.state_error < 0.5 for r in wrong) == passing_state_errors
    assert not any(all_within([r], math.inf) for r in wrong)
    # the index search keeps the values: the same levels within the bisection tolerance
    for r, o in zip(wrong, own):
        assert r.energy_numeric == pytest.approx(o.energy_numeric, rel=0.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from([CoulombLike, OscillatorLike]), n_rho_max=st.integers(0, 3),
       ell=st.floats(1.0, 8.0), a_param=st.floats(0.5, 2.0),
       n_points=st.sampled_from([500, 1000, 4000, 20000]))
def test_rayleigh_step_is_the_index_search_or_nearer_the_closed_value(
        family, n_rho_max, ell, a_param, n_points):
    # each level of a sweep whose top level has radial order ell, at h from its
    # closed state and at h/2 from the vector at h prolonged, as verify solves
    # it: within the bisection tolerance of the index search, or nearer the
    # closed value where that tolerance is wider than the discretization error
    import pdm_polar.models as md
    from pdm_polar.eigensolve import eigenvalue, rayleigh_eigenpair

    v, _ = family_potential(family, n_rho_max, ell, a_param)
    closed = v.closed
    for n_rho, lam, op, state in md._sweep(v, n_rho_max, n_points, None):
        fine_op = md._operator(v, lam, op.grid.refined())
        coarse = rayleigh_eigenpair(op, n_rho, state)
        assert coarse is not None, n_rho
        fine = rayleigh_eigenpair(fine_op, n_rho, op.grid.prolong(coarse[1]))
        assert fine is not None, n_rho
        for operator, (value, _) in ((op, coarse), (fine_op, fine)):
            index_search = eigenvalue(operator, n_rho)
            assert (abs(value - index_search) <= 4.0 * EPS * operator.inf_norm
                    or abs(value - closed) < abs(index_search - closed)), (n_rho, operator.n)


def test_verify_values_are_not_held_at_the_bisection_tolerance():
    # b = 3 at 1e5 points: the fine grid's bisection tolerance is about 5e-8,
    # and a quotient not corrected for the rounding of the shifted diagonal
    # d - q sits at about 1e-9; the corrected one at a few 1e-12
    records = verify_family(CoulombLike(1.0 / 3.0), 2, n_points=100000)
    assert all(r.certified for r in records)
    assert max(r.delta for r in records) < 1e-10


@pytest.mark.parametrize("model", ["coulomb", "oscillator_raw_token"])
def test_certified_sweeps_make_no_bisection_request(model, monkeypatch):
    # a silent fallback to the index search would pass every value check
    from pdm_polar import eigensolve

    def no_request(*args, **kwargs):
        raise AssertionError("a ?stebz request ran")

    v = load_model(GOLDEN / f"{model}.json").v
    monkeypatch.setattr(eigensolve, "_lapack", no_request)
    for n_points in (1024, 4000, 20000):
        records = verify_family(v, 2, n_points=n_points)
        assert [r.certified for r in records] == [True] * 3, n_points


# ---------------------------------------------------------------------------
# toy system


def test_toy_radial_solution_values():
    assert abs(toy_radial_solution(0.5, math.pi)) <= 1e-12 / math.pi
    assert toy_radial_solution(1, 1e-4) == pytest.approx(0.5, abs=1e-8)
    with pytest.raises(DomainError):
        toy_radial_solution(0.5, 0.0)


def test_toy_radial_solution_solves_reduced_equation():
    # U = sqrt(rho) J_1/2(rho) obeys -U'' + [(3/4 + lam)/r^2 - 1] U = 0 at lam = -3/4
    h = 1e-3
    for rho in np.linspace(0.7, 18.0, 23):
        u = lambda r: math.sqrt(r) * bessel_j(0.5, r)
        d2 = (u(rho + h) - 2.0 * u(rho) + u(rho - h)) / h**2
        residual = -d2 + (0.0 / rho**2 - 1.0) * u(rho)
        assert abs(residual) < 1e-6


def test_zero_zeta_spectrum_records():
    records = zero_zeta_records(3, n_points=2050)
    assert sorted(record.qn.m for record in records) == list(range(-3, 4))
    for record in records:
        m = record.qn.m
        assert record.lam == -0.75
        assert record.energy_closed == 0.5 * m * m
        assert record.delta <= 1e-4


def test_zero_zeta_levels_degeneracy():
    values = np.array([scan_level(MM, -0.75, state_index=j) for j in range(5)])
    np.testing.assert_allclose(values, [0.0, 0.5, 0.5, 2.0, 2.0], atol=1e-5)
    # each +/-m pair agrees to relative 1e-9 and is set apart from its neighbours
    for lower, upper in ((1, 2), (3, 4)):
        assert abs(values[upper] - values[lower]) <= 1e-9 * max(1.0, abs(values[lower]))
    assert np.all(np.diff(values)[[0, 2]] > 0.4)


def test_ring_callers_never_ask_for_vectors(monkeypatch):
    from pdm_polar import eigensolve

    lapack = eigensolve._lapack
    flags = {}

    def recording_lapack(*args, vectors=False, **kwargs):
        flags.setdefault(caller, []).append(vectors)
        return lapack(*args, vectors=vectors, **kwargs)

    monkeypatch.setattr(eigensolve, "_lapack", recording_lapack)
    caller = "scan_level"
    for j in range(5):
        scan_level(MM, -0.75, state_index=j, n_points=258)
    caller = "heun_regime_scan"
    heun_regime_scan(MM, 0.5, (-1.0, 0.0), n_points=258)
    # every caller reaches the one LAPACK call site, and none asks for vectors
    assert set(flags) == {"scan_level", "heun_regime_scan"}
    assert not any(any(f) for f in flags.values())


# ---------------------------------------------------------------------------
# scan


def test_scan_recovers_zero_potential_point():
    lam_star, residual = heun_regime_scan(MM, 0.5, (-1.0, 0.0), state_index=1)
    assert lam_star == pytest.approx(-0.75, abs=1e-3)
    assert residual < 1e-2


def test_scan_zero_potential_point_other_gate_ordering():
    # another gate-satisfying triple: beta = -1, alpha = -gamma = sqrt(5/16)
    # gives alpha^2 + gamma^2 - (alpha+gamma)/2 - beta(beta+1) = 5/8
    from pdm_polar import check_constraint27, make_ambiguity

    t = math.sqrt(0.3125)
    a = make_ambiguity(t, -1.0, -t)
    assert check_constraint27(a)
    lam_star, _ = heun_regime_scan(a, 0.5, (-1.0, 0.0), state_index=1)
    assert lam_star == pytest.approx(-0.75, abs=1e-3)


def test_scan_curve_monotone_lowest_level():
    points = scan_curve(MM, (-0.75, 4.0), 12, state_index=0)
    energies = [e for _, e in points]
    assert all(e_next <= e_prev + 1e-9 for e_prev, e_next in zip(energies, energies[1:]))


def test_scan_no_root_carries_curve():
    # targets near the float limit put the congruent ring's diagonal near
    # 1.7e308, where the sum of two entries overflows: NoRoot, with no RuntimeWarning
    for energy, lambda_range in ((50.0, (-0.9, -0.5)), (1.7e308, (-1.0, 0.0)),
                                 (-1.7e308, (-1.0, 0.0))):
        with pytest.raises(NoRoot) as excinfo:
            heun_regime_scan(MM, energy, lambda_range, state_index=1, curve_samples=5)
        assert len(excinfo.value.curve) == 5


def test_scan_degenerate_range():
    with pytest.raises(NoRoot) as excinfo:
        heun_regime_scan(MM, 0.5, (-0.75, -0.75), curve_samples=4)
    # the one solved point fills every sample of the curve
    assert excinfo.value.curve == [(-0.75, scan_level(MM, -0.75))] * 4


def test_scan_inverted_range():
    with pytest.raises(DomainError):
        heun_regime_scan(MM, 0.5, (0.0, -1.0))


@pytest.mark.parametrize("energy, lambda_range, named", [
    (-math.inf, (-1.0, 0.0), "energy target"),
    (math.nan, (-1.0, 0.0), "energy target"),
    (0.5, (math.nan, 0.0), "lambda range"),
    (0.5, (-1.0, math.inf), "lambda range"),
])
def test_scan_refuses_non_finite_input_before_any_solve(monkeypatch, energy, lambda_range, named):
    import pdm_polar.models as md

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the input was checked")

    monkeypatch.setattr(md, "_scan_operator", no_solve)
    with pytest.raises(DomainError, match=named):
        heun_regime_scan(MM, energy, lambda_range)


def _count_solves(monkeypatch):
    """The lambdas at which the scan solves a level from here on, through
    :func:`scan_level` or a curve's first point with its slope."""
    import pdm_polar.models as md

    solved = []
    scan_level_slope = md._scan_level_slope

    def counting_scan_level(a, lam, **kwargs):
        solved.append(lam)
        return scan_level(a, lam, **kwargs)

    def counting_scan_level_slope(a, lam, *args):
        solved.append(lam)
        return scan_level_slope(a, lam, *args)

    monkeypatch.setattr(md, "scan_level", counting_scan_level)
    monkeypatch.setattr(md, "_scan_level_slope", counting_scan_level_slope)
    return solved


def test_scan_no_root_solves_each_range_end_once(monkeypatch):
    solved = _count_solves(monkeypatch)
    with pytest.raises(NoRoot) as excinfo:
        heun_regime_scan(MM, 50.0, (-0.9, -0.5), state_index=1, curve_samples=1)
    # the one curve point is the lower end; only the upper end is solved besides
    assert [lam for lam, _ in excinfo.value.curve] == [-0.9]
    assert solved == [-0.9, -0.5]
    e_hi = scan_level(MM, -0.5, state_index=1)
    assert f"spans [{e_hi}, {excinfo.value.curve[0][1]}]" in str(excinfo.value)


def _value_bisection(a, target, lo, hi, *, state_index, n_points, lambda_tol=1e-6):
    """A bisection on solved eigenvalues, sharing nothing with the scan's root
    solve; returns its final bracket (lo, hi), level(lo) >= target > level(hi)."""
    def level(lam):
        return scan_level(a, lam, state_index=state_index, n_points=n_points)

    assert level(hi) <= target <= level(lo)
    while hi - lo > lambda_tol:
        mid = 0.5 * (lo + hi)
        if level(mid) >= target:
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("n_points", [2050, 4098, 8194])
def test_bracketed_gate_scan_solves_once_and_matches_value_bisection(monkeypatch, n_points):
    import pdm_polar.models as md

    solved = _count_solves(monkeypatch)
    lam_star, residual = heun_regime_scan(MM, 0.5, (-1.0, 0.0), state_index=1,
                                          n_points=n_points)
    # the root is one eigenvalue of the congruent ring; the residual at lambda* is the one
    # solve, bisected about the target, and the index search's level within its tolerance
    assert solved == [lam_star]
    bound = 4.0 * float(np.finfo(float).eps) * md._scan_operator(MM, lam_star, 1, n_points).inf_norm
    index_residual = abs(scan_level(MM, lam_star, state_index=1, n_points=n_points) - 0.5)
    assert abs(residual - index_residual) <= bound
    lo, hi = _value_bisection(MM, 0.5, -1.0, 0.0, state_index=1, n_points=n_points)
    assert lo <= lam_star <= hi
    assert residual <= 1e-8


@st.composite
def scan_problems(draw):
    """(ordering, target, range, state_index, ring): named orderings and
    custom triples, off the gate or on it; only gate rings go finer than 2050."""
    kind = draw(st.sampled_from(["named", "custom", "custom gate"]))
    if kind == "named":
        a = draw(st.sampled_from([GW, BDD, ZK, LK, MM]))
    elif kind == "custom":
        alpha, gamma = draw(st.floats(-1.0, 0.5)), draw(st.floats(-1.0, 0.5))
        a = make_ambiguity(alpha, -1.0 - alpha - gamma, gamma)
    else:
        # alpha + gamma = sigma and (alpha - gamma)^2 = sigma^2 + 3 sigma + 5/4 put c27 at 5/8
        sigma = draw(st.floats(-0.5, 0.5))
        delta = math.sqrt(sigma * sigma + 3.0 * sigma + 1.25)
        a = make_ambiguity(0.5 * (sigma + delta), -1.0 - sigma, 0.5 * (sigma - delta))
    n_points = draw(st.sampled_from([2050, 4098])) if check_constraint27(a) else 2050
    lo = draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(0.05, 2.0))
    state_index = draw(st.integers(0, 3))
    # half the targets lie on the level's curve over the range, so that roots are common
    if draw(st.booleans()):
        energy = draw(st.floats(-3.0, 6.0))
    else:
        lam = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
        energy = scan_level(a, lam, state_index=state_index, n_points=n_points)
    return a, energy, (lo, hi), state_index, n_points


@settings(max_examples=60, deadline=None)
@given(scan_problems())
def test_scan_root_decision_is_the_sturm_count_rule(problem):
    import pdm_polar.models as md
    from pdm_polar.eigensolve import count_below

    a, energy, (lo, hi), state_index, n_points = problem

    def above(lam):
        """The level lies above the target at lambda: at most state_index at or below it."""
        return count_below(md._scan_operator(a, lam, state_index, n_points), energy) <= state_index

    # lambda* within 1e-5 of a range end may fall on either side of it
    assume(above(lo - 1e-5) == above(lo + 1e-5) and above(hi - 1e-5) == above(hi + 1e-5))
    try:
        lam_star, _ = heun_regime_scan(a, energy, (lo, hi), state_index=state_index,
                                       n_points=n_points, curve_samples=1)
    except NoRoot:
        assert not (above(lo) and not above(hi))
        return
    assert above(lo) and not above(hi)
    assert lo < lam_star <= hi
    if check_constraint27(a):
        assert above(lam_star - 1e-7) and not above(lam_star + 1e-7)


def _level_target(a, lam, state_index, n_points):
    """The smallest target at which count_below puts the level at lambda at or
    below it: a root of that target lies exactly at lambda, as the counts see it."""
    import pdm_polar.models as md
    from pdm_polar.eigensolve import count_below

    op = md._scan_operator(a, lam, state_index, n_points)
    level = scan_level(a, lam, state_index=state_index, n_points=n_points)
    below, at = level - 1e-6, level + 1e-6
    assert count_below(op, below) <= state_index < count_below(op, at)
    while math.nextafter(below, at) < at:
        mid = below + 0.5 * (at - below)
        if count_below(op, mid) > state_index:
            at = mid
        else:
            below = mid
    return at


@pytest.mark.parametrize("n_points", [2050, 4098])
def test_scan_root_decision_holds_at_the_range_ends(n_points):
    import pdm_polar.models as md
    from pdm_polar.eigensolve import count_below

    target = _level_target(MM, -0.75, 1, n_points)
    just_below = math.nextafter(target, -math.inf)

    def above(lam, energy):
        return count_below(md._scan_operator(MM, lam, 1, n_points), energy) <= 1

    # (target at -0.75, range, root expected): lambda* at hi is kept, at lo it is NoRoot;
    # one float lower the level at -0.75 lies above the target, and the decisions swap
    cases = [(target, (-1.0, -0.75), True), (target, (-0.75, 0.0), False),
             (just_below, (-1.0, -0.75), False), (just_below, (-0.75, 0.0), True)]
    for energy, (lo, hi), root in cases:
        assert (above(lo, energy) and not above(hi, energy)) == root
        try:
            lam_star, _ = heun_regime_scan(MM, energy, (lo, hi), state_index=1,
                                           n_points=n_points, curve_samples=1)
        except NoRoot:
            assert not root, (energy, lo, hi)
            continue
        assert root, (energy, lo, hi)
        assert lo < lam_star <= hi and abs(lam_star + 0.75) <= 1e-6


# back to the first ring last, so that a sample kept from the previous ring
# shows; a non-gate ordering's rings finer than 2050 are refused as singular
@pytest.mark.parametrize("a, rings", [
    (MM, (2050, 4098, 2050)),
    (BDD, (2050, 1026, 2050)),
], ids=["gate", "bendaniel-duke"])
def test_scan_operator_matches_the_closed_potential_across_rings(a, rings):
    import pdm_polar.models as md
    from pdm_polar.eigensolve import PERIODIC, Grid, discretize
    from pdm_polar.separation import zeta_coefficients

    for n_points in rings:
        grid = Grid(0.0, 2.0 * math.pi, n_points, PERIODIC)
        for lam in (-1.9, -0.75, 0.3):
            z1, z2 = zeta_coefficients(a, lam)

            def closed(x):
                return (z1 * np.sin(x) ** 2 - z2) / np.cos(x) ** 4

            expected = discretize(closed, grid, prefactor=0.5).diagonal
            assert np.array_equal(md._scan_operator(a, lam, 1, n_points).diagonal, expected)


def test_ring_factors_refuse_writes():
    import pdm_polar.models as md
    from pdm_polar.eigensolve import PERIODIC, Grid

    for factor in md._ring_factors(Grid(0.0, 2.0 * math.pi, 2050, PERIODIC)):
        with pytest.raises(ValueError):
            factor[0] = 1.0


def test_scan_samples_the_ring_trig_once(monkeypatch):
    import pdm_polar.models as md

    calls = []
    cos = np.cos

    def counting_cos(x, *args, **kwargs):
        calls.append(np.shape(x))
        return cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", counting_cos)
    md._ring_factors.cache_clear()
    heun_regime_scan(MM, 0.5, (-1.0, 0.0), state_index=1, n_points=2050)
    assert calls == [(2050,)]
    calls.clear()
    md._ring_factors.cache_clear()
    assert len(scan_curve(MM, (-1.0, 0.0), 9, n_points=2050)) == 9
    assert calls == [(2050,)]


def _assert_curve_is_the_index_search(a, lambda_range, samples, state_index, n_points):
    import pdm_polar.models as md

    curve = scan_curve(a, lambda_range, samples, state_index=state_index, n_points=n_points)
    assert [lam for lam, _ in curve] == [float(x) for x in np.linspace(*lambda_range, samples)]
    eps = float(np.finfo(float).eps)
    for lam, energy in curve:
        bound = 4.0 * eps * md._scan_operator(a, lam, state_index, n_points).inf_norm
        level = scan_level(a, lam, state_index=state_index, n_points=n_points)
        assert abs(energy - level) <= bound, (lam, energy, level)


@pytest.mark.parametrize("state_index", range(4))
@pytest.mark.parametrize("a", [GW, BDD, ZK, LK, MM],
                         ids=["gora-williams", "bendaniel-duke", "zhu-kroemer", "li-kuhn", "gate"])
def test_windowed_scan_curve_matches_the_index_search(a, state_index):
    # (-2, 1) crosses lambda = -1/2, where the gate's levels plunge between samples
    _assert_curve_is_the_index_search(a, (-2.0, 1.0), 9, state_index, 2050)


@pytest.mark.parametrize("state_index", range(4))
@pytest.mark.parametrize("n_points", [2050, 4098, 8194])
def test_windowed_gate_curve_matches_the_index_search_on_every_ring(n_points, state_index):
    for lambda_range in ((-0.75, 4.0), (-1.0, 0.0)):
        _assert_curve_is_the_index_search(MM, lambda_range, 12, state_index, n_points)


def _lapack_requests(monkeypatch):
    """The kind of each solver request from here on: the ``select`` of a
    LAPACK request, "i" by index or "v" by value, and "count" for a Sturm count."""
    from pdm_polar import eigensolve

    requests = []
    lapack, count = eigensolve._lapack, eigensolve._count

    def spy(d, e, select, *args, **kwargs):
        requests.append(select)
        return lapack(d, e, select, *args, **kwargs)

    def count_spy(d, e, x, *scratch):
        requests.append("count")
        return count(d, e, x, *scratch)

    monkeypatch.setattr(eigensolve, "_lapack", spy)
    monkeypatch.setattr(eigensolve, "_count", count_spy)
    return requests


def test_windowed_scan_curve_makes_fewer_index_requests(monkeypatch):
    requests = _lapack_requests(monkeypatch)
    scan_curve(MM, (-1.0, -0.75), 9, n_points=2050)
    # a search by index asks each of the ring's two parity sectors: the first
    # point searches by index, and every later window holds its level
    assert requests.count("i") == 2
    requests.clear()
    curve = scan_curve(MM, (-1.0, -0.5), 9, n_points=2050)
    # past -3/4 the level dives (0.5 to -3130 in one step, then to -9768), more
    # than the one-step window allows twice; the later steps' windows hold it
    assert [round(e) for _, e in curve[4:7]] == [0, -3130, -9768]
    assert requests.count("i") == 2 + 2 * 2


def test_bracketed_gate_scan_makes_no_index_request(monkeypatch):
    requests = _lapack_requests(monkeypatch)
    heun_regime_scan(MM, 0.5, (-1.0, 0.0), state_index=1)
    # the counts, the window of mu and the residual's window about the target
    assert requests and requests.count("i") == 0


def test_unbracketed_scan_decides_without_an_index_request(monkeypatch):
    import pdm_polar.models as md

    requests = _lapack_requests(monkeypatch)
    before_curve = []
    scan_curve = md.scan_curve

    def recording_scan_curve(*args, **kwargs):
        before_curve.extend(requests)
        return scan_curve(*args, **kwargs)

    monkeypatch.setattr(md, "scan_curve", recording_scan_curve)
    with pytest.raises(NoRoot):
        heun_regime_scan(MM, 50.0, (-0.9, -0.5), state_index=1, curve_samples=5)
    # the decision is Sturm counts alone; the curve's budget is its own
    assert "count" in before_curve and "i" not in before_curve


def test_scan_curve_falls_back_when_no_window_certifies(monkeypatch):
    from pdm_polar import eigensolve

    windows = []
    window = eigensolve._window

    def counting_window(*args):
        windows.append(args[2:4])
        return window(*args)

    # a count that puts every level at or below any point certifies no window
    monkeypatch.setattr(eigensolve, "count_below", lambda op, x: op.n)
    monkeypatch.setattr(eigensolve, "_window", counting_window)
    lams = np.linspace(-1.0, 0.0, 9)
    curve = scan_curve(MM, (-1.0, 0.0), 9, n_points=2050)
    assert curve == [(float(lam), scan_level(MM, lam, n_points=2050)) for lam in lams]
    # one window per point after the first, never widened
    assert len(windows) == 8


def test_degenerate_scan_curve_solves_once(monkeypatch):
    import pdm_polar.models as md

    solved = []

    def counting_scan_level(a, lam, **kwargs):
        solved.append(lam)
        return scan_level(a, lam, **kwargs)

    monkeypatch.setattr(md, "scan_level", counting_scan_level)
    curve = scan_curve(MM, (-0.75, -0.75), 5)
    assert solved == [-0.75]
    assert curve == [(-0.75, scan_level(MM, -0.75))] * 5
    assert scan_curve(MM, (-0.75, -0.75), 0) == []


@pytest.mark.parametrize("kwargs", [
    {"n_points": 4000}, {"n_points": 2051}, {"n_points": 14}, {"state_index": -1},
    {"state_index": 512},
], ids=["n_points=4000", "n_points=2051", "n_points=14", "state_index=-1", "state_index=512"])
def test_scan_guards_run_before_any_solve(kwargs):
    with pytest.raises(DomainError):
        heun_regime_scan(MM, 0.5, (-1.0, 0.0), **kwargs)


def test_scan_level_guards():
    # nodes stay half a spacing off the mass zeros only for n_points % 4 == 2
    assert scan_level(MM, -0.75, state_index=0, n_points=2050) == pytest.approx(0.0, abs=1e-4)
    with pytest.raises(DomainError):
        scan_level(MM, -0.75, state_index=-1)
    for n_points in (4000, 2051):
        with pytest.raises(DomainError):
            scan_level(MM, -0.75, n_points=n_points)


# ---------------------------------------------------------------------------
# degeneracy report


def _closed_record(a, b, n_rho, m):
    return SpectrumRecord(
        qn=QuantumNumbers(n_rho, m),
        lam=coulomb_lambda(b, n_rho),
        energy_closed=coulomb_energy(a, b, QuantumNumbers(n_rho, m)),
    )


def test_degeneracy_report_magnetic_pairs():
    records = [_closed_record(BDD, 4.0, 0, m) for m in range(-2, 3)]
    groups = degeneracy_report(records)
    paired = [g for g in groups if len(g.records) > 1]
    assert len(paired) == 2
    labels = {e for g in paired for e in g.explanations}
    assert "magnetic pair m = +/-1" in labels
    assert "magnetic pair m = +/-2" in labels


def test_degeneracy_report_zero_zeta_pairs():
    # checked records group by their numeric energies: +m and -m are two levels of the ring
    records = zero_zeta_records(2, n_points=2050)
    groups = degeneracy_report(records)
    multi = [g for g in groups if len(g.records) > 1]
    assert {e for g in multi for e in g.explanations} == {
        "magnetic pair m = +/-1",
        "magnetic pair m = +/-2",
    }


def test_degeneracy_report_groups_checked_records_by_their_numeric_energy():
    # equal closed values, numeric values a relative 1e-6 apart: what the solver
    # found splits them, where grouping by the closed values would merge them
    closed = _closed_record(BDD, 4.0, 0, 1)
    checked = [dataclasses.replace(closed, energy_numeric=closed.energy_closed * (1.0 + s),
                                   qn=QuantumNumbers(0, m))
               for s, m in ((0.0, 1), (1e-6, -1))]
    assert checked[0].energy_closed == checked[1].energy_closed
    assert [r.energy for r in checked] == [r.energy_numeric for r in checked]
    groups = degeneracy_report(checked)
    assert len(groups) == 2 and all(len(g.records) == 1 for g in groups)
    # closed-only records still group by their closed values
    merged = degeneracy_report([closed, dataclasses.replace(closed, qn=QuantumNumbers(0, -1))])
    assert len(merged) == 1 and merged[0].explanations == ("magnetic pair m = +/-1",)


def test_degeneracy_report_labels_a_group_without_a_pair_unexplained():
    # m = 0 at two n_rho, made equal in energy: a group of two with no +/-m pair
    lone = _closed_record(BDD, 4.0, 0, 0)
    twin = dataclasses.replace(_closed_record(BDD, 4.0, 1, 0), energy_closed=lone.energy_closed)
    single = _closed_record(BDD, 4.0, 0, 3)
    groups = degeneracy_report([single, twin, lone])
    assert [g.records for g in groups] == [(twin, lone), (single,)]
    assert [g.explanations for g in groups] == [
        ("unexplained within the tracked quantum numbers",), ()]


def _closed_form_spectra(ordering, a, t, b):
    """(family, record) pairs as the benchmark's closed-form spectra make them:
    oscillator n_rho 0..4 and Coulomb n_rho 0..2, each at m = -4..4."""
    d = a * (2 * 4 + 1 + t)
    tagged = []
    for n_rho in range(5):
        for m in range(-4, 5):
            qn = QuantumNumbers(n_rho, m)
            tagged.append(("oscillator", SpectrumRecord(qn=qn, lam=oscillator_lambda(a, d, n_rho),
                                                        energy_closed=oscillator_energy(ordering, a, d, qn))))
            if n_rho < 3:
                tagged.append(("coulomb", SpectrumRecord(qn=qn, lam=coulomb_lambda(b, n_rho),
                                                         energy_closed=coulomb_energy(ordering, b, qn))))
    return tagged


@pytest.mark.parametrize("a, t, b, most_pairs", [(1.37, 2.18, 7.61, 1), (1.0, 1.0, 6.5, 3)],
                         ids=["drawn", "integer"])
def test_degeneracy_report_on_the_closed_form_spectra(rng, a, t, b, most_pairs):
    # the integer parameters put several levels at one energy, oscillator
    # (4, +/-1), (3, +/-3) and Coulomb (2, +/-4) the most of them, and the
    # Coulomb level n_rho = 1 at the lambda of the oscillator level n_rho = 2
    tagged = _closed_form_spectra(GW, a, t, b)
    family = {id(r): f for f, r in tagged}
    records = [r for _, r in tagged]
    reports = [degeneracy_report([records[i] for i in rng.permutation(len(records))])
               for _ in range(5)]
    for groups in reports:
        # every record lands in exactly one group
        assert sorted(id(r) for g in groups for r in g.records) == sorted(family)
        group_of = {(family[id(r)], r.qn.n_rho, r.qn.m): g for g in groups for r in g.records}
        for (fam, n_rho, m), g in group_of.items():
            # a +/-m pair of one family shares a group; the two families at
            # equal (n_rho, m) sit at two lambdas, so never in one group
            assert group_of[fam, n_rho, -m] is g
            other = "coulomb" if fam == "oscillator" else "oscillator"
            assert group_of.get((other, n_rho, m)) is not g
        for g in groups:
            # every pair is labelled, pairs only within one family, in ascending |m|
            held = {(family[id(r)], r.qn.n_rho, r.qn.m) for r in g.records}
            pairs = sorted({m for fam, n_rho, m in held if m > 0 and (fam, n_rho, -m) in held})
            expected = [f"magnetic pair m = +/-{m}" for m in pairs]
            if len(g.records) > 1 and not pairs:
                expected = ["unexplained within the tracked quantum numbers"]
            assert list(g.explanations) == expected
    # whatever the input order, the same groups with the same labels
    assert len({tuple((frozenset(map(id, g.records)), g.explanations) for g in groups)
                for groups in reports}) == 1
    assert max(len(g.explanations) for g in reports[0]) == most_pairs


def test_degeneracy_report_rejects_empty():
    with pytest.raises(DomainError):
        degeneracy_report([])
