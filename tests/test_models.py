"""Closed-form spectra, the numeric oracle sweeps, scans, and degeneracies."""

import json
import math

import numpy as np
import pytest

from pdm_polar import (
    Ordering,
    QuantumNumbers,
    SpectrumRecord,
    all_within,
    bracket,
    coulomb_energy,
    coulomb_lambda,
    coulomb_numeric_level,
    degeneracy_report,
    flat_energy,
    heun_regime_scan,
    oscillator_energy,
    oscillator_lambda,
    oscillator_numeric_level,
    parse_ordering_token,
    scan_curve,
    swap_alpha_gamma,
    toy_radial_solution,
    toy_zero_zeta_spectrum,
    verify_coulomb,
    verify_oscillator,
)
from pdm_polar import cli
from pdm_polar.errors import DomainError, NoRoot
from pdm_polar.models import (
    angular_confined_levels,
    record_to_row,
    records_to_csv,
    scan_level,
    zero_zeta_levels,
)
from pdm_polar.specfun import bessel_j

from conftest import random_ordering, write_model

MM = Ordering.MUSTAFA_MAZHARIMOUSAVI.ambiguity()
BDD = Ordering.BENDANIEL_DUKE.ambiguity()
GW = Ordering.GORA_WILLIAMS.ambiguity()
ZK = Ordering.ZHU_KROEMER.ambiguity()
LK = Ordering.LI_KUHN.ambiguity()


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


def test_verify_coulomb_domain_guard():
    with pytest.raises(DomainError):
        verify_coulomb(1.5, 1, 1e-4)
    with pytest.raises(DomainError):
        verify_coulomb(3.0, -1, 1e-4)


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
    records = toy_zero_zeta_spectrum(3, n_points=1024)
    assert len(records) == 7
    for record in records:
        m = record.qn.m
        assert record.lam == -0.75
        assert record.energy_closed == 0.5 * m * m
        assert record.delta <= 1e-4
        assert record.note


def test_zero_zeta_levels_degeneracy():
    values, estimates = zero_zeta_levels(2, n_points=1024)
    np.testing.assert_allclose(values, [0.0, 0.5, 0.5, 2.0, 2.0], atol=1e-5)
    assert estimates.shape == values.shape
    # each +/-m pair agrees to relative 1e-9 and is set apart from its neighbours
    for lower, upper in ((1, 2), (3, 4)):
        assert abs(values[upper] - values[lower]) <= 1e-9 * max(1.0, abs(values[lower]))
    assert np.all(np.diff(values)[[0, 2]] > 0.4)


def test_ring_callers_never_ask_for_vectors(monkeypatch):
    from pdm_polar import eigensolve

    solve_sector = eigensolve._solve_sector
    flags = []

    def recording_solve_sector(*args, vectors):
        flags.append(vectors)
        return solve_sector(*args, vectors=vectors)

    monkeypatch.setattr(eigensolve, "_solve_sector", recording_solve_sector)
    toy_zero_zeta_spectrum(2, n_points=256)
    angular_confined_levels(BDD, 0.0, k=2, n_points=400)
    assert flags and not any(flags)


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
    with pytest.raises(NoRoot) as excinfo:
        heun_regime_scan(MM, 50.0, (-0.9, -0.5), state_index=1, curve_samples=5)
    assert len(excinfo.value.curve) == 5


def test_scan_degenerate_range():
    with pytest.raises(NoRoot):
        heun_regime_scan(MM, 0.5, (-0.75, -0.75))


def test_scan_inverted_range():
    with pytest.raises(DomainError):
        heun_regime_scan(MM, 0.5, (0.0, -1.0))


def test_scan_no_root_solves_each_range_end_once(monkeypatch):
    import pdm_polar.models as md

    solved = []

    def counting_scan_level(a, lam, **kwargs):
        solved.append(lam)
        return scan_level(a, lam, **kwargs)

    monkeypatch.setattr(md, "scan_level", counting_scan_level)
    with pytest.raises(NoRoot) as excinfo:
        heun_regime_scan(MM, 50.0, (-0.9, -0.5), state_index=1, curve_samples=1)
    # the one curve point is the lower end; only the upper end is solved besides
    assert [lam for lam, _ in excinfo.value.curve] == [-0.9]
    assert solved == [-0.9, -0.5]
    e_hi = scan_level(MM, -0.5, state_index=1)
    assert f"spans [{e_hi}, {excinfo.value.curve[0][1]}]" in str(excinfo.value)


def _value_bisection(a, target, lo, hi, *, state_index, n_points, lambda_tol=1e-6):
    """The scan's bisection decided on solved eigenvalues instead of counts."""
    def level(lam):
        return scan_level(a, lam, state_index=state_index, n_points=n_points)

    assert level(hi) <= target <= level(lo)
    while hi - lo > lambda_tol:
        mid = 0.5 * (lo + hi)
        if level(mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n_points", [2050, 4098, 8194])
def test_bracketed_gate_scan_solves_once_and_matches_value_bisection(monkeypatch, n_points):
    import pdm_polar.models as md

    solved = []

    def counting_scan_level(a, lam, **kwargs):
        solved.append(lam)
        return scan_level(a, lam, **kwargs)

    monkeypatch.setattr(md, "scan_level", counting_scan_level)
    lam_star, residual = heun_regime_scan(MM, 0.5, (-1.0, 0.0), state_index=1,
                                          n_points=n_points)
    # the bisection only counts levels; the residual at lambda* is the one solve
    assert solved == [lam_star]
    assert residual == abs(scan_level(MM, lam_star, state_index=1, n_points=n_points) - 0.5)
    assert lam_star == _value_bisection(MM, 0.5, -1.0, 0.0, state_index=1, n_points=n_points)


@pytest.mark.parametrize("kwargs", [
    {"n_points": 4000}, {"n_points": 2051}, {"state_index": -1}, {"state_index": 512},
], ids=["n_points=4000", "n_points=2051", "state_index=-1", "state_index=512"])
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
# confined angular problem


def test_angular_confined_levels_reports_sensitivity():
    levels, sensitivity = angular_confined_levels(BDD, 0.0, k=2, n_points=1200)
    assert levels.shape == (2,)
    assert np.all(levels > 0.0)  # potential is positive on (-1, 1)
    assert np.all(np.isfinite(sensitivity))
    assert np.all(sensitivity > 0.0)
    assert np.all(np.diff(levels) > 0.0)


def test_angular_confined_zero_zeta_is_box():
    # with both coefficients zero the walls dominate: E_1 = (pi / L)^2 / 2
    levels, _ = angular_confined_levels(MM, -0.75, k=1, n_points=3000, delta=1e-3)
    box = 0.5 * (math.pi / (2.0 * (1.0 - 1e-3))) ** 2
    assert levels[0] == pytest.approx(box, rel=1e-4)


# ---------------------------------------------------------------------------
# degeneracy report


def _closed_record(a, b, n_rho, m, ordering=None):
    return SpectrumRecord(
        qn=QuantumNumbers(n_rho, m),
        lam=coulomb_lambda(b, n_rho),
        energy_closed=coulomb_energy(a, b, QuantumNumbers(n_rho, m)),
        provenance="closed-form",
        ordering=ordering if ordering is not None else a,
    )


def test_degeneracy_report_magnetic_pairs():
    records = [_closed_record(BDD, 4.0, 0, m) for m in range(-2, 3)]
    groups = degeneracy_report(records)
    paired = [g for g in groups if len(g.records) > 1]
    assert len(paired) == 2
    labels = {e for g in paired for e in g.explanations}
    assert "magnetic pair m = +/-1" in labels
    assert "magnetic pair m = +/-2" in labels


def test_degeneracy_report_equal_bracket_merge():
    # Zhu-Kroemer and Li-Kuhn share the bracket value 1/2
    assert bracket(ZK) == bracket(LK)
    records = [
        _closed_record(ZK, 4.0, 0, 1, ordering=ZK),
        _closed_record(LK, 4.0, 0, 1, ordering=LK),
    ]
    groups = degeneracy_report(records)
    assert len(groups) == 1
    assert "distinct orderings with equal ambiguity bracket" in groups[0].explanations


def test_degeneracy_report_alpha_gamma_swap():
    a = random_ordering(np.random.default_rng(7))
    swapped = swap_alpha_gamma(a)
    records = [
        _closed_record(a, 5.0, 1, 1, ordering=a),
        _closed_record(swapped, 5.0, 1, 1, ordering=swapped),
    ]
    groups = degeneracy_report(records)
    assert len(groups) == 1
    assert "alpha-gamma swap of the ordering" in groups[0].explanations


def test_degeneracy_report_zero_zeta_pairs():
    records = toy_zero_zeta_spectrum(2, n_points=1024)
    groups = degeneracy_report(records)
    multi = [g for g in groups if len(g.records) > 1]
    assert {e for g in multi for e in g.explanations} == {
        "magnetic pair m = +/-1",
        "magnetic pair m = +/-2",
    }


def test_degeneracy_report_rejects_empty():
    with pytest.raises(DomainError):
        degeneracy_report([])


# ---------------------------------------------------------------------------
# serialization


def test_record_row_and_csv():
    records = verify_oscillator(1.0, 4.0, 0, 1e-4, n_points=1000)
    row = record_to_row(records[0])
    assert list(row)[:7] == [
        "n_rho", "m", "lambda", "energy_closed", "energy_numeric", "delta", "provenance",
    ]
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == "n_rho,m,lambda,energy_closed,energy_numeric,delta,provenance"
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "0"
