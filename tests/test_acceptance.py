"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they are produced.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from pdm_polar import (
    Ordering,
    QuantumNumbers,
    bessel_j,
    bracket,
    check_constraint27,
    coulomb_energy,
    coulomb_lambda,
    degeneracy_report,
    flat_energy,
    heun_regime_scan,
    make_ambiguity,
    oscillator_energy,
    oscillator_lambda,
    oscillator_numeric_level,
    swap_alpha_gamma,
    verify_coulomb,
    w_eff,
    zeta_coefficients,
)
from pdm_polar.eigensolve import (
    DIRICHLET,
    Grid,
    discretize,
    eigen_lowest,
    observed_order,
)
from pdm_polar.separation import CosSquaredProfile, PowerWell, SeparableModel, radial_problem

from conftest import matvec, random_ordering, write_model, zero_zeta_records

MM = Ordering.MUSTAFA_MAZHARIMOUSAVI.ambiguity()


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:02d} {name}: {status}{suffix}")


def test_criterion_01_coulomb_quantization():
    """Numeric eigenvalue versus the stated closed form -1/(n_rho + l + 1)^2.

    l is the paper's angular number, defined by l(l+1) = 3/4 + lambda.
    """
    tol = 1e-4
    start = time.perf_counter()
    failures = []
    for b in (3.0, 4.0, 6.0):
        n_rho_max = min(2, int(b) - 2)  # largest n_rho <= 2 with b >= n_rho + 2
        records = verify_coulomb(b, n_rho_max, tol, n_points=4000)
        for record in records:
            rel = record.delta / abs(record.energy_closed)
            if rel > tol:
                failures.append(
                    f"b={b} n_rho={record.qn.n_rho}: numeric={record.energy_numeric:.8f} "
                    f"stated={record.energy_closed:.8f} rel={rel:.3e}"
                )
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(1, "coulomb-like quantization", ok,
           f"{len(failures)} of 8 cases disagree; runtime {elapsed:.1f}s")
    assert elapsed < 60.0
    assert not failures, (
        "the stated closed form -1/(n_rho+l+1)^2, with l(l+1) = 3/4 + lambda, "
        "disagrees with the assembled operator:\n"
        + "\n".join(failures)
    )


def test_criterion_02_oscillator_quantization():
    """Numeric eigenvalue equals a (2 n_rho + l + 1) for a=1."""
    tol = 1e-4
    a_param = 1.0
    start = time.perf_counter()
    worst = 0.0
    for ell in (0.5, 1.0, 2.0, 3.0):
        for n_rho in (0, 1, 2):
            value, _ = oscillator_numeric_level(a_param, ell, n_rho, n_points=4000)
            expected = a_param * (2.0 * n_rho + ell + 1.0)
            worst = max(worst, abs(value - expected) / expected)
    elapsed = time.perf_counter() - start
    ok = worst <= tol and elapsed < 60.0
    report(2, "oscillator-like quantization", ok,
           f"worst rel err {worst:.2e}; runtime {elapsed:.1f}s")
    assert worst <= tol
    assert elapsed < 60.0


def test_criterion_03_pipeline_identities(rng):
    """flat_energy composed with the lambda maps reproduces the direct forms."""
    worst = 0.0
    for _ in range(1000):
        a = random_ordering(rng)
        m = int(rng.integers(-8, 9))
        n_rho = int(rng.integers(0, 4))
        b = float(rng.uniform(n_rho + 1.0 + 1e-6, 15.0))
        qn = QuantumNumbers(n_rho, m)
        d1 = abs(flat_energy(a, m, coulomb_lambda(b, n_rho)) - coulomb_energy(a, b, qn))
        a_param = float(rng.uniform(0.2, 3.0))
        d = a_param * float(rng.uniform(2 * n_rho + 1.0 + 1e-6, 20.0))
        d2 = abs(
            flat_energy(a, m, oscillator_lambda(a_param, d, n_rho))
            - oscillator_energy(a, a_param, d, qn)
        )
        worst = max(worst, d1, d2)
    ok = worst <= 1e-12
    report(3, "pipeline identities", ok, f"worst |difference| {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_04_w_eff_forms_agree(rng):
    """Expanded effective potential equals the (z1 q^2 - z2)/(1-q^2)^2 form."""
    f = CosSquaredProfile()
    worst = 0.0
    count = 0
    while count < 1000:
        a = random_ordering(rng)
        lam = float(rng.uniform(-2.0, 4.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        if abs(math.cos(phi)) <= 0.1:
            continue
        count += 1
        z1, z2 = zeta_coefficients(a, lam)
        reference = (z1 * math.sin(phi) ** 2 - z2) / math.cos(phi) ** 4
        value = w_eff(f, a, lam, phi)
        scale = max(1.0, abs(reference))
        worst = max(worst, abs(value - reference) / scale)
    ok = worst <= 1e-10
    report(4, "effective-potential form equivalence", ok, f"worst rel err {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_05_gate_orderings():
    """Only the (-1/4, -1/2, -1/4) catalog ordering satisfies the 5/8 gate."""
    passes = check_constraint27(MM)
    others = [
        Ordering.GORA_WILLIAMS,
        Ordering.BENDANIEL_DUKE,
        Ordering.ZHU_KROEMER,
        Ordering.LI_KUHN,
    ]
    rejections = [not check_constraint27(o.ambiguity()) for o in others]
    ok = passes and all(rejections)
    report(5, "zero-potential gate", ok)
    assert passes
    assert all(rejections)


def test_criterion_06_toy_bessel_solution():
    """U = sqrt(rho) J_1/2(rho) solves the reduced radial equation at h^2 order."""
    model = SeparableModel(CosSquaredProfile(), PowerWell(1.0, 1), MM)
    problem = radial_problem(model, -0.75, (0.5, 20.0))
    residuals = []
    steps = (8e-3, 4e-3, 2e-3, 1e-3)
    for h in steps:
        count = int(round(19.5 / h)) + 1
        rho, h_exact = np.linspace(0.5, 20.0, count, retstep=True)
        u = np.sqrt(rho) * np.array([bessel_j(0.5, r) for r in rho])
        d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h_exact**2
        veff = problem.effective_potential(rho[1:-1])
        residuals.append(float(np.max(np.abs(-d2 + veff * u[1:-1]))))
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(len(steps) - 1)]
    order = sum(orders) / len(orders)
    formula_err = max(
        abs(bessel_j(0.5, x) - math.sqrt(2.0 / (math.pi * x)) * math.sin(x))
        for x in np.linspace(0.1, 30.0, 997)
    )
    ok = residuals[-1] < 1e-6 and 1.9 <= order <= 2.1 and formula_err <= 1e-12
    report(6, "toy-model radial solution", ok,
           f"residual(h=1e-3) {residuals[-1]:.2e}, order {order:.3f}, "
           f"half-order formula err {formula_err:.1e}")
    assert residuals[-1] < 1e-6
    assert 1.9 <= order <= 2.1
    assert formula_err <= 1e-12


def test_criterion_07_zero_zeta_spectrum():
    """Numeric zero-potential angular levels are m^2/2 with +/-m pairs.

    The levels are those of the scan ring at the gate point lambda = -3/4;
    the pairs are grouped by their numeric energies alone.
    """
    records = zero_zeta_records(4, n_points=4098)
    worst = max(r.delta for r in records)
    groups = degeneracy_report(records)
    pair_labels = {e for g in groups for e in g.explanations if len(g.records) > 1}
    expected_labels = {f"magnetic pair m = +/-{m}" for m in range(1, 5)}
    ok = worst <= 1e-4 and expected_labels <= pair_labels
    report(7, "zero-potential angular spectrum", ok,
           f"worst |delta| {worst:.2e}; pairs {sorted(pair_labels)}")
    assert worst <= 1e-4
    assert expected_labels <= pair_labels


def test_criterion_08_degeneracy_invariances(rng):
    """Exact swap and sign invariances; bracket controls the beta dependence."""
    exact = True
    for _ in range(1000):
        a = random_ordering(rng)
        swapped = swap_alpha_gamma(a)
        m = int(rng.integers(-8, 9))
        n_rho = int(rng.integers(0, 3))
        b = float(rng.uniform(n_rho + 1.5, 12.0))
        a_param = float(rng.uniform(0.2, 3.0))
        d = a_param * float(rng.uniform(2 * n_rho + 1.5, 18.0))
        lam = float(rng.uniform(-1.0, 6.0))
        qn = QuantumNumbers(n_rho, m)
        qn_neg = QuantumNumbers(n_rho, -m)
        exact &= flat_energy(a, m, lam) == flat_energy(swapped, m, lam)
        exact &= flat_energy(a, m, lam) == flat_energy(a, -m, lam)
        exact &= coulomb_energy(a, b, qn) == coulomb_energy(swapped, b, qn_neg)
        exact &= oscillator_energy(a, a_param, d, qn) == oscillator_energy(
            swapped, a_param, d, qn_neg
        )

    # same bracket, different beta: energies agree to the identity tolerance
    fixed_bracket_worst = 0.0
    produced = 0
    while produced < 200:
        a1 = random_ordering(rng)
        target = bracket(a1)
        beta2 = float(rng.uniform(-2.0, 2.0))
        s2 = -1.0 - beta2
        q2 = target + beta2 * (beta2 + 1.0)
        disc = 2.0 * q2 - s2 * s2
        if disc < 0.0 or abs(beta2 - a1.beta) < 1e-3:
            continue
        alpha2 = 0.5 * (s2 + math.sqrt(disc))
        a2 = make_ambiguity(alpha2, beta2, s2 - alpha2)
        produced += 1
        m = int(rng.integers(-5, 6))
        lam = float(rng.uniform(-1.0, 4.0))
        fixed_bracket_worst = max(
            fixed_bracket_worst, abs(flat_energy(a1, m, lam) - flat_energy(a2, m, lam))
        )

    # raw bracket expression: moving beta at fixed (alpha, gamma) changes it
    raw = lambda al, be, ga: al * al + ga * ga - be * (be + 1.0)
    beta_changes = True
    for _ in range(200):
        al, ga = rng.uniform(-2.0, 2.0, size=2)
        b1, b2 = rng.uniform(-2.0, 2.0, size=2)
        if abs(b1 * (b1 + 1.0) - b2 * (b2 + 1.0)) < 1e-9:
            continue
        beta_changes &= raw(al, b1, ga) != raw(al, b2, ga)

    ok = exact and fixed_bracket_worst <= 1e-12 and beta_changes
    report(8, "degeneracy invariances", ok,
           f"fixed-bracket worst {fixed_bracket_worst:.2e}")
    assert exact
    assert fixed_bracket_worst <= 1e-12
    assert beta_changes


def test_criterion_09_solver_quality():
    """Calibration problems: h^2 convergence and tiny eigenvector residuals."""
    box_values = []
    for n in (500, 1001, 2003):
        grid = Grid(0.0, math.pi, n, DIRICHLET)
        box_values.append(
            eigen_lowest(discretize(lambda x: np.zeros_like(x), grid), 1).eigenvalues[0]
        )
    box_order = observed_order(*box_values)

    ho_values = []
    for n in (400, 801, 1603):
        grid = Grid(-8.0, 8.0, n, DIRICHLET)
        ho_values.append(
            eigen_lowest(discretize(lambda x: 0.5 * x**2, grid, prefactor=0.5), 1).eigenvalues[0]
        )
    ho_order = observed_order(*ho_values)

    grid = Grid(-8.0, 8.0, 1500, DIRICHLET)
    op = discretize(lambda x: 0.5 * x**2, grid, prefactor=0.5)
    result = eigen_lowest(op, 4)
    bound = 1e-8 * op.inf_norm
    worst_residual = 0.0
    for j in range(4):
        v = result.eigenvectors[:, j]
        r = np.linalg.norm(matvec(op, v) - result.eigenvalues[j] * v) * math.sqrt(grid.h)
        worst_residual = max(worst_residual, float(r))

    ok = 1.9 <= box_order <= 2.1 and 1.9 <= ho_order <= 2.1 and worst_residual <= bound
    report(9, "solver quality", ok,
           f"orders {box_order:.3f}/{ho_order:.3f}, residual {worst_residual:.1e} "
           f"vs bound {bound:.1e}")
    assert 1.9 <= box_order <= 2.1
    assert 1.9 <= ho_order <= 2.1
    assert worst_residual <= bound


def test_criterion_10_determinism(tmp_path):
    """Two identical verify runs produce byte-identical JSON."""
    model = write_model(
        tmp_path, "osc.json",
        {"f": "flat", "potential": {"oscillator_like": {"a": 1.0, "d": 4.0}},
         "ordering": "bendaniel-duke"},
    )
    args = [sys.executable, "-m", "pdm_polar.cli", "verify", "--model", str(model),
            "--n-rho-max", "1", "--n-points", "1024"]
    env = os.environ.copy()
    runs = [subprocess.run(args, capture_output=True, env=env) for _ in range(2)]
    ok = runs[0].stdout == runs[1].stdout and runs[0].returncode == runs[1].returncode
    report(10, "verify determinism", ok, f"{len(runs[0].stdout)} bytes compared")
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    json.loads(runs[0].stdout)  # well-formed


def test_criterion_11_scan_recovery():
    """Scan over lambda recovers the zero-potential point at energy 1/2."""
    lam_star, residual = heun_regime_scan(MM, 0.5, (-1.0, 0.0), state_index=1)
    ok = abs(lam_star + 0.75) <= 1e-3
    report(11, "scan zero-potential recovery", ok,
           f"lambda* {lam_star:.6f}, residual {residual:.2e}")
    assert abs(lam_star + 0.75) <= 1e-3
