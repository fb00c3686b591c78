"""Mass profiles, effective potentials, PCT, and the model file schema."""

import math

import numpy as np
import pytest

from pdm_polar import (
    CosSquaredProfile,
    CoulombLike,
    FlatProfile,
    Ordering,
    OscillatorLike,
    PowerWell,
    SeparableModel,
    TabulatedProfile,
    angular_problem,
    angular_wavefunction_recompose,
    bracket,
    bessel_j,
    load_model,
    model_from_dict,
    pct_map,
    radial_problem,
    radial_to_R,
    w_eff,
    w_tilde,
    xi,
    zeta_coefficients,
)
from pdm_polar.errors import ConfigError, DomainError, MassVanishes, UnsupportedProfile
from pdm_polar.separation import CONFINED, PERIODIC

from conftest import random_ordering

MM = Ordering.MUSTAFA_MAZHARIMOUSAVI.ambiguity()
BDD = Ordering.BENDANIEL_DUKE.ambiguity()


def w_tilde_reference(f, a, phi):
    """Same weight, but with derivatives taken numerically from f alone."""
    h = 1e-4
    fv = f.value(phi)
    fp = (f.value(phi + h) - f.value(phi - h)) / (2.0 * h)
    fpp = (f.value(phi + h) - 2.0 * fv + f.value(phi - h)) / h**2
    s = a.alpha + a.gamma
    return 0.25 * (xi(a) * (4.0 / fv + fp * fp / fv**3) + s * (4.0 + fpp / fv) / fv)


def w_eff_unexpanded(f, a, lam, phi):
    """First form: -w_tilde + 7 f'^2/(32 f^3) - f''/(8 f^2) - lambda/(2 f)."""
    fv, fp, fpp = f.value(phi), f.d1(phi), f.d2(phi)
    return (
        -w_tilde(f, a, phi)
        + 7.0 * fp * fp / (32.0 * fv**3)
        - fpp / (8.0 * fv**2)
        - 0.5 * lam / fv
    )


# ---------------------------------------------------------------------------
# w_tilde


def test_w_tilde_flat_is_bracket_exactly(rng):
    f = FlatProfile()
    for _ in range(200):
        a = random_ordering(rng)
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        assert w_tilde(f, a, phi) == bracket(a)


def test_w_tilde_flat_bdd_zero():
    assert w_tilde(FlatProfile(), BDD, 1.0) == 0.0


def test_w_tilde_cos2_mm_at_zero():
    # f=1, f'=0, f''=-2 there, so the weight is xi + (alpha+gamma)/2 = 5/8
    assert abs(w_tilde(CosSquaredProfile(), MM, 0.0) - 0.625) <= 1e-12


def test_w_tilde_cos2_matches_numeric_derivatives(rng):
    f = CosSquaredProfile()
    for _ in range(50):
        a = random_ordering(rng)
        phi = float(rng.uniform(-1.2, 1.2))
        assert w_tilde(f, a, phi) == pytest.approx(w_tilde_reference(f, a, phi), rel=1e-4, abs=1e-6)


def test_w_tilde_mass_vanishes():
    with pytest.raises(MassVanishes):
        w_tilde(CosSquaredProfile(), MM, math.pi / 2.0)


# ---------------------------------------------------------------------------
# zeta coefficients and w_eff


def test_zeta_mm_at_minus_three_quarters():
    assert zeta_coefficients(MM, -0.75) == (0.0, 0.0)


def test_zeta1_is_ordering_independent(rng):
    for _ in range(50):
        a = random_ordering(rng)
        z1, _ = zeta_coefficients(a, -0.75)
        assert z1 == 0.0


def test_zeta_bdd_at_zero():
    assert zeta_coefficients(BDD, 0.0) == (0.375, -0.25)


def test_w_eff_flat_reduction(rng):
    f = FlatProfile()
    for _ in range(100):
        a = random_ordering(rng)
        lam = float(rng.uniform(-2.0, 4.0))
        assert w_eff(f, a, lam, 0.7) == -(bracket(a) + 0.5 * lam)


def test_w_eff_cos2_equals_zeta_form(rng):
    f = CosSquaredProfile()
    for _ in range(1000):
        a = random_ordering(rng)
        lam = float(rng.uniform(-2.0, 4.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        if abs(math.cos(phi)) <= 0.1:
            continue
        z1, z2 = zeta_coefficients(a, lam)
        expected = (z1 * math.sin(phi) ** 2 - z2) / math.cos(phi) ** 4
        value = w_eff(f, a, lam, phi)
        assert value == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_w_eff_two_forms_agree(rng):
    f = CosSquaredProfile()
    for _ in range(500):
        a = random_ordering(rng)
        lam = float(rng.uniform(-2.0, 4.0))
        phi = float(rng.uniform(-1.4, 1.4))
        assert w_eff(f, a, lam, phi) == pytest.approx(
            w_eff_unexpanded(f, a, lam, phi), rel=1e-10, abs=1e-12
        )


def test_w_eff_zero_zeta_point_is_exactly_zero():
    assert w_eff(CosSquaredProfile(), MM, -0.75, 0.3) == 0.0


def test_w_eff_refuses_mass_zero():
    with pytest.raises(MassVanishes):
        w_eff(CosSquaredProfile(), MM, 0.0, math.pi / 2.0)


# ---------------------------------------------------------------------------
# radial problem


def test_radial_problem_coulomb_form():
    omega = 0.25
    model = SeparableModel(FlatProfile(), CoulombLike(omega), BDD)
    lam = 3.0
    ell2 = lam + 1.0
    problem = radial_problem(model, lam, (0.1, 50.0))
    rho = np.linspace(0.2, 40.0, 57)
    expected = (ell2 - 0.25) / rho**2 + omega**2 - 2.0 / rho
    np.testing.assert_allclose(problem.effective_potential(rho), expected, rtol=1e-12)


def test_radial_problem_oscillator_form():
    a, d = 1.5, 7.0
    model = SeparableModel(FlatProfile(), OscillatorLike(a, d), BDD)
    lam = 2.0
    problem = radial_problem(model, lam, (0.1, 12.0))
    rho = np.linspace(0.2, 10.0, 41)
    expected = (lam + 1.0 - 0.25) / rho**2 + a**2 * rho**2 / 4.0 - d
    np.testing.assert_allclose(problem.effective_potential(rho), expected, rtol=1e-12)


def test_radial_problem_power_well_bessel_normal_form():
    n = 2.0
    model = SeparableModel(CosSquaredProfile(), PowerWell(1.0, 1), MM)
    problem = radial_problem(model, n * n - 1.0, (0.5, 30.0))
    rho = np.linspace(1.0, 20.0, 31)
    expected = (n * n - 0.25) / rho**2 - 1.0
    np.testing.assert_allclose(problem.effective_potential(rho), expected, rtol=1e-12)


def test_radial_problem_generic_invariant(rng):
    potentials = [CoulombLike(0.5), OscillatorLike(2.0, 3.0), PowerWell(1.0, 2)]
    for v in potentials:
        model = SeparableModel(FlatProfile(), v, BDD)
        lam = float(rng.uniform(-0.9, 5.0))
        problem = radial_problem(model, lam, (0.05, 20.0))
        for rho in rng.uniform(0.1, 15.0, size=20):
            expected = (0.75 + lam) / rho**2 + 2.0 * float(v.tilde_v(rho)) / rho**2
            assert problem.effective_potential(rho) == pytest.approx(expected, rel=1e-12)


def test_radial_problem_domain_validation():
    model = SeparableModel(FlatProfile(), CoulombLike(0.5), BDD)
    with pytest.raises(DomainError):
        radial_problem(model, 0.0, (0.0, 10.0))
    with pytest.raises(DomainError):
        radial_problem(model, 0.0, (3.0, 2.0))


def test_radial_to_R():
    rho = np.linspace(0.5, 10.0, 64)
    np.testing.assert_allclose(radial_to_R(rho, rho**1.5), 1.0, rtol=1e-14)
    u = np.sqrt(rho) * np.array([bessel_j(0.5, r) for r in rho])
    expected = np.array([bessel_j(0.5, r) / r for r in rho])
    np.testing.assert_allclose(radial_to_R(rho, u), expected, rtol=1e-13)
    assert np.all(radial_to_R(rho, np.zeros_like(rho)) == 0.0)


def test_operator_equivalence_raw_radial_form():
    # applying rho^2 d2 + 3 rho d1 - 2 v to R = rho^(-3/2) U reproduces
    # lambda R when U solves the reduced problem (toy case: U'' = -U)
    lam = -0.75
    residuals = []
    for h in (8e-3, 4e-3):
        count = int(round(9.0 / h)) + 1
        rho, h_exact = np.linspace(1.0, 10.0, count, retstep=True)
        u = np.sqrt(rho) * np.array([bessel_j(0.5, r) for r in rho])
        r_vals = radial_to_R(rho, u)
        d2 = (r_vals[2:] - 2.0 * r_vals[1:-1] + r_vals[:-2]) / h_exact**2
        d1 = (r_vals[2:] - r_vals[:-2]) / (2.0 * h_exact)
        mid = slice(1, -1)
        lhs = rho[mid] ** 2 * d2 + 3.0 * rho[mid] * d1 - 2.0 * (-0.5 * rho[mid] ** 2) * r_vals[mid]
        residuals.append(np.max(np.abs(lhs - lam * r_vals[mid])))
    assert residuals[-1] < 1e-4
    assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.3)


# ---------------------------------------------------------------------------
# PCT map


def test_pct_map_cos2_is_sine():
    assert pct_map(CosSquaredProfile(), math.pi / 6.0) == pytest.approx(0.5, abs=1e-15)
    assert pct_map(CosSquaredProfile(), 0.0) == 0.0


def test_pct_map_flat_is_identity():
    assert pct_map(FlatProfile(), 2.0) == 2.0


def test_pct_map_rejects_crossing_mass_zero():
    with pytest.raises(MassVanishes):
        pct_map(CosSquaredProfile(), 1.6)
    with pytest.raises(MassVanishes):
        pct_map(CosSquaredProfile(), -2.0)


def test_pct_map_strictly_increasing(rng):
    f = CosSquaredProfile()
    phis = np.sort(rng.uniform(-1.5, 1.5, size=40))
    values = [pct_map(f, p) for p in phis]
    assert np.all(np.diff(values) > 0)


def _smooth_tabulated(n=512):
    phi = np.linspace(0.0, 2.0 * math.pi, n)
    f = 1.0 + 0.3 * np.cos(2.0 * phi)
    fp = -0.6 * np.sin(2.0 * phi)
    fpp = -1.2 * np.cos(2.0 * phi)
    return TabulatedProfile(phi, f, fp, fpp)


def test_pct_map_tabulated_against_quadrature():
    from scipy.integrate import quad

    f = _smooth_tabulated()
    for phi in (0.5, 1.3, 2.0):
        expected, _ = quad(lambda p: math.sqrt(1.0 + 0.3 * math.cos(2.0 * p)), 0.0, phi)
        assert pct_map(f, phi) == pytest.approx(expected, abs=5e-6)


# ---------------------------------------------------------------------------
# angular problem packaging


def test_angular_problem_flat():
    model = SeparableModel(FlatProfile(), None, BDD)
    problem = angular_problem(model, 1.0)
    assert problem.domain == (0.0, 2.0 * math.pi)
    assert problem.boundary == PERIODIC
    q = np.linspace(0.0, 2.0 * math.pi, 11)
    np.testing.assert_array_equal(problem.effective_potential(q), -(0.0 + 0.5))


def test_angular_problem_cos2_zero_zeta():
    model = SeparableModel(CosSquaredProfile(), None, MM)
    problem = angular_problem(model, -0.75)
    assert problem.domain == (-1.0, 1.0)
    assert problem.boundary == PERIODIC
    q = np.linspace(-0.9, 0.9, 19)
    np.testing.assert_array_equal(problem.effective_potential(q), 0.0)


def test_angular_problem_cos2_confined():
    model = SeparableModel(CosSquaredProfile(), None, BDD)
    problem = angular_problem(model, 0.0)
    assert problem.boundary == CONFINED
    q = np.linspace(-0.8, 0.8, 17)
    expected = (0.375 * q**2 + 0.25) / (1.0 - q**2) ** 2
    np.testing.assert_allclose(problem.effective_potential(q), expected, rtol=1e-12)
    with pytest.raises(MassVanishes):
        problem.effective_potential(np.array([1.0]))


def test_angular_problem_tabulated_positive_profile():
    model = SeparableModel(_smooth_tabulated(), None, BDD)
    problem = angular_problem(model, 0.5)
    assert problem.boundary == PERIODIC
    assert problem.domain[0] == 0.0
    assert problem.domain[1] > 0.0
    # potential at q(phi) should approximate w_eff at phi
    phi = 0.9
    q = pct_map(model.f, phi)
    assert problem.effective_potential(q) == pytest.approx(
        w_eff(model.f, BDD, 0.5, phi), rel=1e-3, abs=1e-3
    )


def test_angular_problem_tabulated_near_zero_rejected():
    # a quartic minimum keeps f below the evaluation floor over a wide window
    phi = np.linspace(0.0, 2.0 * math.pi, 2048)
    g = 0.5 * (1.0 + np.cos(phi))
    gp = -0.5 * np.sin(phi)
    gpp = -0.5 * np.cos(phi)
    f = g**4 + 1e-9
    fp = 4.0 * g**3 * gp
    fpp = 12.0 * g**2 * gp**2 + 4.0 * g**3 * gpp
    profile = TabulatedProfile(phi, f, fp, fpp)
    model = SeparableModel(profile, None, BDD)
    with pytest.raises(UnsupportedProfile):
        angular_problem(model, 0.0)


# ---------------------------------------------------------------------------
# recomposition


def test_recompose_flat_plane_wave():
    f = FlatProfile()
    m = 3
    phi = np.linspace(0.0, 2.0 * math.pi, 33)
    chi = lambda q: complex(math.cos(m * q), math.sin(m * q))
    values = angular_wavefunction_recompose(f, chi, phi)
    expected = np.exp(1j * m * phi)
    np.testing.assert_allclose(values, expected, atol=1e-14)


def test_recompose_cos2_closed_form():
    f = CosSquaredProfile()
    m = 2
    phi = np.linspace(-1.4, 1.4, 29)
    chi = lambda q: complex(math.cos(m * q), math.sin(m * q))
    values = angular_wavefunction_recompose(f, chi, phi)
    expected = np.sqrt(np.cos(phi)) * np.exp(1j * m * np.sin(phi))
    np.testing.assert_allclose(values, expected, atol=1e-12)


def test_recompose_constant():
    values = angular_wavefunction_recompose(FlatProfile(), lambda q: 1.0, [0.1, 0.7])
    np.testing.assert_array_equal(values, 1.0)


def test_recompose_mass_vanishes():
    with pytest.raises(MassVanishes):
        angular_wavefunction_recompose(CosSquaredProfile(), lambda q: 1.0, [math.pi / 2.0])


# ---------------------------------------------------------------------------
# tabulated profile validation


def test_tabulated_rejects_bad_derivatives():
    phi = np.linspace(0.0, 2.0 * math.pi, 256)
    f = 1.0 + 0.3 * np.cos(2.0 * phi)
    fp = -0.6 * np.sin(2.0 * phi)
    fpp = -1.2 * np.cos(2.0 * phi)
    TabulatedProfile(phi, f, fp, fpp)  # consistent table passes
    with pytest.raises(UnsupportedProfile):
        TabulatedProfile(phi, f, 1.5 * fp, fpp)
    with pytest.raises(UnsupportedProfile):
        TabulatedProfile(phi, f, fp, np.zeros_like(fpp))


def test_tabulated_rejects_nonpositive_mass():
    phi = np.linspace(0.0, 2.0 * math.pi, 256)
    f = np.cos(phi)  # goes negative
    with pytest.raises(UnsupportedProfile):
        TabulatedProfile(phi, f, -np.sin(phi), -np.cos(phi))


def test_tabulated_rejects_small_grids():
    phi = np.linspace(0.0, 2.0 * math.pi, 8)
    with pytest.raises(UnsupportedProfile):
        TabulatedProfile(phi, np.ones(8), np.zeros(8), np.zeros(8))


# ---------------------------------------------------------------------------
# model schema


def test_model_from_dict_round_trip():
    model = model_from_dict(
        {
            "f": "cos2",
            "potential": {"power_well": {"v0": 1.0, "k": 1}},
            "ordering": "mustafa-mazharimousavi",
        }
    )
    assert isinstance(model.f, CosSquaredProfile)
    assert isinstance(model.v, PowerWell)
    assert model.ordering == MM


def test_model_from_dict_optional_potential():
    model = model_from_dict({"f": "flat", "ordering": "bendaniel-duke"})
    assert model.v is None


def test_model_from_dict_custom_ordering():
    model = model_from_dict({"f": "flat", "ordering": "custom:-0.5,0,-0.5"})
    assert model.ordering == Ordering.ZHU_KROEMER.ambiguity()


def test_model_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        model_from_dict({"f": "flat", "ordering": "bendaniel-duke", "g": "rho^-2"})
    with pytest.raises(ConfigError):
        model_from_dict({"f": "flat", "potential": {"coulomb_like": {"omega": 1, "w": 2}},
                         "ordering": "bendaniel-duke"})


def test_model_from_dict_rejects_bad_values():
    with pytest.raises(ConfigError):
        model_from_dict({"f": "sin2", "ordering": "bendaniel-duke"})
    with pytest.raises(DomainError):
        model_from_dict({"f": "flat", "potential": {"coulomb_like": {"omega": -1.0}},
                         "ordering": "bendaniel-duke"})


@pytest.mark.parametrize("potential, error", [
    ({"power_well": {"v0": 1.0, "k": 1.5}}, DomainError),
    ({"power_well": {"v0": 1.0, "k": True}}, ConfigError),
    ({"coulomb_like": {"omega": "0.5"}}, ConfigError),
    ({"oscillator_like": {"a": 1.0, "d": math.nan}}, ConfigError),
    ({"power_well": {"v0": math.inf, "k": 1}}, ConfigError),
    ({"power_well": {"v0": 1.0, "k": 10**400}}, ConfigError),
], ids=["fractional-k", "bool-k", "string-omega", "nan-d", "infinite-v0", "huge-int-k"])
def test_model_from_dict_rejects_non_numeric_parameters(potential, error):
    with pytest.raises(error):
        model_from_dict({"f": "flat", "potential": potential, "ordering": "bendaniel-duke"})


def test_model_from_dict_float_fields_are_floats():
    model = model_from_dict({"f": "flat", "potential": {"oscillator_like": {"a": 1, "d": 4}},
                             "ordering": "bendaniel-duke"})
    assert model.v == OscillatorLike(1.0, 4.0)
    assert isinstance(model.v.a, float) and isinstance(model.v.d, float)


def test_load_model_refuses_an_integer_too_long_to_read(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"f": "flat", "ordering": "bendaniel-duke", "potential": '
                    '{"coulomb_like": {"omega": ' + "1" * 5000 + "}}}", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_model(path)


def test_potential_parameter_validation():
    with pytest.raises(DomainError):
        PowerWell(-1.0, 1)
    with pytest.raises(DomainError):
        PowerWell(1.0, 0)
    with pytest.raises(DomainError):
        OscillatorLike(0.0, 1.0)
