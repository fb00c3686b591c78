"""End-to-end CLI checks: exit codes, table contents, determinism."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdm_polar import cli
from pdm_polar.cli import main

from conftest import float_bits, write_model

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args):
    # a command that does not end fails its test instead of stalling the suite
    return subprocess.run(
        [sys.executable, "-m", "pdm_polar.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def stderr_error(result):
    payload = json.loads(result.stderr)
    return payload["error"]


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_coulomb_table(coulomb_model_file):
    result = run_cli(
        ["spectrum", "--model", str(coulomb_model_file), "--n-rho-max", "1", "--m-max", "2"]
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    rows = payload["records"]
    assert len(rows) == 10
    ground = [r for r in rows if r["n_rho"] == 0 and r["m"] == 0]
    assert ground[0]["energy_closed"] == -2.625
    assert all(r["provenance"] == "closed-form" for r in rows)
    keys = [(r["n_rho"], r["m"]) for r in rows]
    assert keys == sorted(keys)


def test_spectrum_flat_model(flat_model_file):
    result = run_cli(
        ["spectrum", "--model", str(flat_model_file), "--m-max", "0", "--lambda", "0.0"]
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["records"][0]["energy_closed"] == 0.0


def test_spectrum_csv_output(coulomb_model_file):
    result = run_cli(
        ["spectrum", "--model", str(coulomb_model_file), "--m-max", "1", "--format", "csv"]
    )
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "n_rho,m,lambda,energy_closed,energy_numeric,delta,provenance"
    assert len(lines) == 4


def test_spectrum_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    result = run_cli(["spectrum", "--model", str(path)])
    assert result.returncode == 2
    assert stderr_error(result)["code"] == "config"


def test_spectrum_model_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"f": "flat", "ordering": "\xe9"}')
    result = run_cli(["spectrum", "--model", str(path)])
    assert result.returncode == 2
    assert stderr_error(result)["code"] == "config"


def test_spectrum_domain_error(coulomb_model_file):
    result = run_cli(["spectrum", "--model", str(coulomb_model_file), "--n-rho-max", "5"])
    assert result.returncode == 3
    assert stderr_error(result)["code"] == "domain"


@pytest.mark.parametrize("option", ["--m-max=-1", "--n-rho-max=-2"])
def test_spectrum_rejects_empty_table(coulomb_model_file, option):
    result = run_cli(["spectrum", "--model", str(coulomb_model_file), option])
    assert result.returncode == 3
    assert result.stdout == ""
    assert stderr_error(result)["code"] == "domain"


@pytest.mark.parametrize("n_rho_max, m_max", [("4", "10000"), ("10000", "10000")])
def test_spectrum_above_the_row_cap_builds_no_record(tmp_path, monkeypatch, capsys,
                                                     n_rho_max, m_max):
    from pdm_polar import separation as sp

    def no_record(*args):
        raise AssertionError("a record was built before the table size was checked")

    # the table reads each record's energy from the flat profile's closed level
    monkeypatch.setattr(sp.FlatProfile, "energy", staticmethod(no_record))
    deep = write_model(tmp_path, "deep.json",
                       {"f": "flat", "potential": {"oscillator_like": {"a": 1.0, "d": 1e9}},
                        "ordering": "bendaniel-duke"})
    code = main(["spectrum", "--model", str(deep), "--n-rho-max", n_rho_max, "--m-max", m_max])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "config"
    assert "must be <= 100000" in error["message"]


def test_spectrum_rejects_cos2_model(tmp_path, cos2_model_file):
    # the tables hold the flat-profile angular spectrum, which a cos^2
    # profile does not have, whatever its radial family
    radial = {"coulomb_like": {"omega": 1.0 / 3.0}, "oscillator_like": {"a": 1.0, "d": 4.0}}
    paths = [cos2_model_file] + [
        write_model(tmp_path, f"cos2-{kind}.json",
                    {"f": "cos2", "potential": {kind: params}, "ordering": "bendaniel-duke"})
        for kind, params in radial.items()
    ]
    for path in paths:
        result = run_cli(["spectrum", "--model", str(path)])
        assert result.returncode == 2
        assert result.stdout == ""
        assert stderr_error(result)["code"] == "config"


def test_spectrum_unknown_model_key(tmp_path):
    path = write_model(tmp_path, "bad.json", {"f": "flat", "ordering": "bendaniel-duke", "x": 1})
    result = run_cli(["spectrum", "--model", str(path)])
    assert result.returncode == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_oscillator_passes(oscillator_model_file):
    result = run_cli(
        ["verify", "--model", str(oscillator_model_file), "--n-rho-max", "1",
         "--n-points", "2000"]
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["all_within_tol"] is True
    assert len(payload["records"]) == 2
    for row in payload["records"]:
        assert row["delta"] <= 1e-4
        assert "convergence_estimate" in row


def test_verify_tolerance_below_discretization_floor(oscillator_model_file):
    # the n_rho = 1 case has ell = 1, whose rho^(3/2) origin behavior leaves
    # an extrapolation residual far above the smallest admissible tolerance
    result = run_cli(
        ["verify", "--model", str(oscillator_model_file), "--n-rho-max", "1",
         "--n-points", "1024", "--tol", "1e-10"]
    )
    assert result.returncode == 4
    assert stderr_error(result)["exit_code"] == 4
    payload = json.loads(result.stdout)
    assert payload["all_within_tol"] is False
    assert any(row["delta"] > 1e-10 for row in payload["records"])


def test_verify_coulomb_reports_closed_form_mismatch(coulomb_model_file):
    # each closed-form value -omega^2 is checked against the operator's own
    # spectrum -1/(n_rho + ell + 1/2)^2, which the quantization reproduces
    result = run_cli(
        ["verify", "--model", str(coulomb_model_file), "--n-rho-max", "1",
         "--n-points", "2000"]
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["all_within_tol"] is True
    for row in payload["records"]:
        ell = 3.0 - row["n_rho"] - 0.5
        true_value = -1.0 / (row["n_rho"] + ell + 0.5) ** 2
        assert row["energy_numeric"] == pytest.approx(true_value, rel=1e-4)
        assert row["energy_closed"] == pytest.approx(-1.0 / 9.0, rel=1e-12)


def test_verify_fails_where_the_grid_cannot_hold_a_closed_state(tmp_path, capsys):
    # omega = 1e-20 puts the default wall at 2e40 on 4000 points: every delta
    # is within the tolerance, but the closed state samples to zeros, at state
    # error 1 from the unit eigenvector, so the sweep checked nothing
    path = write_model(tmp_path, "vacuous.json", {
        "f": "flat", "potential": {"coulomb_like": {"omega": 1e-20}}, "ordering": "bendaniel-duke"})
    assert main(["verify", "--model", str(path)]) == 4
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["all_within_tol"] is False
    assert all(row["delta"] <= payload["tol"] and row["state_error"] == 1.0
               for row in payload["records"])
    assert json.loads(err)["error"]["exit_code"] == 4
    # a resolved sweep still passes
    assert main(["verify", "--model", str(GOLDEN / "coulomb.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_within_tol"] is True
    assert max(row["state_error"] for row in payload["records"]) < 0.5


def test_verify_prints_the_model_d_as_every_closed_value(tmp_path, capsys):
    # a (2 n_rho + ell + 1), rebuilt from each level's rounded order, reads
    # 15.173009999999998 here: the closed value is the model's own d
    path = write_model(tmp_path, "oscillator.json", {
        "f": "flat", "potential": {"oscillator_like": {"a": 2.11, "d": 15.17301}},
        "ordering": "bendaniel-duke"})
    assert main(["verify", "--model", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"]["d"] == 15.17301
    assert [row["energy_closed"] for row in payload["records"]] == [15.17301] * 3


def test_verify_json_records_keep_their_key_order(capsys):
    assert main(["verify", "--model", str(GOLDEN / "coulomb.json")]) == 0
    rows = json.loads(capsys.readouterr().out)["records"]
    assert rows and all(list(row) == [
        "n_rho", "m", "lambda", "energy_closed", "energy_numeric", "delta", "provenance",
        "convergence_estimate", "note", "state_error"] for row in rows)


def test_verify_checks_the_radial_family_only(tmp_path, capsys):
    # the sweep reads the model's potential alone, so a cos^2 profile's angular
    # side goes unchecked and the model prints the bytes of its flat twin
    runs = []
    for f in ("cos2", "flat"):
        path = write_model(tmp_path, f"{f}.json", {
            "f": f, "potential": {"coulomb_like": {"omega": 0.3}}, "ordering": "li-kuhn"})
        runs.append((main(["verify", "--model", str(path)]), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1].err == ""


def test_verify_rejects_empty_sweep(oscillator_model_file):
    # no level to check must not read as a pass
    result = run_cli(["verify", "--model", str(oscillator_model_file), "--n-rho-max=-1"])
    assert result.returncode == 3
    assert result.stdout == ""
    assert stderr_error(result)["code"] == "domain"


def test_verify_needs_radial_model(flat_model_file):
    result = run_cli(["verify", "--model", str(flat_model_file)])
    assert result.returncode == 2


def test_verify_n_points_bounds(oscillator_model_file):
    result = run_cli(["verify", "--model", str(oscillator_model_file), "--n-points", "32"])
    assert result.returncode == 2


def test_verify_determinism(oscillator_model_file):
    args = ["verify", "--model", str(oscillator_model_file), "--n-rho-max", "1",
            "--n-points", "1024"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()


def test_verify_builds_each_operator_once(coulomb_model_file, monkeypatch, capsys):
    # one sweep serves the records and the state errors: each level's
    # operator is built once at h and once at h/2
    import pdm_polar.models as md
    from pdm_polar import cli

    sizes = []
    discretize = md.discretize

    def counting_discretize(potential, grid, **kwargs):
        sizes.append(grid.n_points)
        return discretize(potential, grid, **kwargs)

    monkeypatch.setattr(md, "discretize", counting_discretize)
    code = cli.main(["verify", "--model", str(coulomb_model_file), "--n-rho-max", "2"])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["records"]) == 3
    assert sizes == [4000, 8001] * 3


@pytest.mark.parametrize("family, potential, tol", [
    ("CoulombLike", {"coulomb_like": {"omega": 0.3333333333333333}}, "1e-9"),
    ("OscillatorLike", {"oscillator_like": {"a": 1.0, "d": 4.0}}, "5e-7"),
], ids=["coulomb", "oscillator"])
def test_verify_fails_a_perturbed_tilde_v(tmp_path, monkeypatch, capsys, family, potential, tol):
    # the oracle solves the radial equation built from tilde_v, the potential
    # that effpot prints: a relative 1e-6 error in it moves the levels by about
    # 1.1e-7 (Coulomb b = 3, unperturbed deltas 1e-11) or 2e-6 (oscillator
    # d = 4, unperturbed deltas up to 1e-7), past tol
    from pdm_polar import separation as sp

    model = write_model(tmp_path, "model.json",
                        {"f": "flat", "potential": potential, "ordering": "bendaniel-duke"})
    argv = ["verify", "--model", str(model), "--n-rho-max", "1", "--tol", tol]
    assert main(argv) == 0
    capsys.readouterr()
    cls = getattr(sp, family)
    tilde_v = cls.tilde_v
    monkeypatch.setattr(cls, "tilde_v", lambda self, rho: tilde_v(self, rho) * (1.0 + 1e-6))
    assert main(argv) == 4
    assert not json.loads(capsys.readouterr().out)["all_within_tol"]


@pytest.mark.parametrize("rho_max", ["0", "-5", "nan"])
@pytest.mark.parametrize("command", [["verify", "--n-rho-max", "1"]], ids=["verify"])
def test_rho_max_must_be_finite_and_positive(oscillator_model_file, command, rho_max):
    result = run_cli([*command, "--model", str(oscillator_model_file), f"--rho-max={rho_max}"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert stderr_error(result)["code"] == "config"


# ---------------------------------------------------------------------------
# effpot


def test_effpot_zero_zeta_samples(tmp_path):
    path = write_model(
        tmp_path, "toy.json",
        {"f": "cos2", "potential": {"power_well": {"v0": 1.0, "k": 1}},
         "ordering": "mustafa-mazharimousavi"},
    )
    result = run_cli(
        ["effpot", "--model", str(path), "--which", "angular", "--range=-0.9,0.9",
         "--samples", "21", "--lambda=-0.75"]
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert all(row["potential"] == 0.0 for row in payload["samples"])


def test_effpot_flat_constant(flat_model_file):
    result = run_cli(
        ["effpot", "--model", str(flat_model_file), "--which", "angular",
         "--range", "0,6.28", "--samples", "11", "--lambda", "1.0"]
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    values = {row["potential"] for row in payload["samples"]}
    assert values == {-0.5}


def test_effpot_range_hits_mass_zero(cos2_model_file):
    result = run_cli(
        ["effpot", "--model", str(cos2_model_file), "--which", "angular",
         "--range", "0,1.0", "--samples", "11", "--lambda", "0.0"]
    )
    assert result.returncode == 3


def test_effpot_radial_samples(coulomb_model_file):
    result = run_cli(
        ["effpot", "--model", str(coulomb_model_file), "--which", "radial",
         "--range", "0.5,20", "--samples", "40", "--lambda", "3.0"]
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    omega = 1.0 / 3.0
    for row in payload["samples"]:
        rho = row["coordinate"]
        expected = (4.0 - 0.25) / rho**2 + omega**2 - 2.0 / rho
        assert row["potential"] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# wavefunction


def test_wavefunction_toy_bessel(cos2_model_file):
    result = run_cli(
        ["wavefunction", "--model", str(cos2_model_file), "--state", "toy:n=1/2",
         "--range", "0.5,12", "--samples", "24"]
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    from pdm_polar import bessel_j

    for row in payload["samples"]:
        rho = row["coordinate"]
        assert row["value"] == pytest.approx(bessel_j(0.5, rho) / rho, abs=1e-12)


def test_wavefunction_toy_past_order_170_prints_finite_samples(cos2_model_file):
    # gamma(202) alone overflows a float; J_201 itself underflows to 0.0
    result = run_cli(
        ["wavefunction", "--model", str(cos2_model_file), "--state", "toy:n=201",
         "--range", "0.5,1.5", "--samples", "5"]
    )
    assert result.returncode == 0, result.stderr
    values = [row["value"] for row in json.loads(result.stdout)["samples"]]
    assert len(values) == 5
    assert all(math.isfinite(v) for v in values)


def test_wavefunction_flat_unit_modulus(flat_model_file):
    result = run_cli(
        ["wavefunction", "--model", str(flat_model_file), "--state", "angular:m=1",
         "--range", "0,6.283185307179586", "--samples", "33"]
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    for row in payload["samples"]:
        assert math.hypot(row["re"], row["im"]) == pytest.approx(1.0, abs=1e-12)


def test_wavefunction_cos2_angular_masks_negative_mass(cos2_model_file):
    result = run_cli(
        ["wavefunction", "--model", str(cos2_model_file), "--state", "angular:m=1",
         "--range", "0,6.283185307179586", "--samples", "41"]
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    rows = payload["samples"]
    masked = [r for r in rows if r["re"] is None]
    live = [r for r in rows if r["re"] is not None]
    assert masked and live
    for row in live:
        phi = row["coordinate"]
        amp = math.cos(phi) ** 0.5
        q = math.sin(phi)
        assert row["re"] == pytest.approx(amp * math.cos(q), abs=1e-12)
        assert row["im"] == pytest.approx(amp * math.sin(q), abs=1e-12)


def test_wavefunction_numeric_coulomb_ground_state_nodeless(coulomb_model_file):
    result = run_cli(
        ["wavefunction", "--model", str(coulomb_model_file), "--state", "radial:n_rho=0",
         "--range", "1,30", "--samples", "60"]
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    values = np.array([row["value"] for row in payload["samples"]])
    assert np.all(values > 0.0)


def test_radial_wavefunction_prints_the_closed_state(oscillator_model_file, capsys):
    from pdm_polar import cli
    from pdm_polar import separation as sp

    code = cli.main(["wavefunction", "--model", str(oscillator_model_file),
                     "--state", "radial:n_rho=1", "--range", "0.5,6", "--samples", "7"])
    assert code == 0
    samples = json.loads(capsys.readouterr().out)["samples"]
    # the family's closed state at the requested points, bit for bit
    v = sp.load_model(oscillator_model_file).v
    coords = np.linspace(0.5, 6.0, 7)
    expected = sp.radial_to_R(coords, v.state(1, coords))
    assert [row["value"] for row in samples] == expected.tolist()


@pytest.mark.parametrize("n_rho", [0, 1])
@pytest.mark.parametrize("name", ["coulomb", "oscillator_raw_token"])
def test_radial_wavefunction_far_range_prints_a_zero_tail(name, n_rho, capsys):
    from pdm_polar import cli

    model = GOLDEN / f"{name}.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["wavefunction", "--model", str(model), "--state", f"radial:n_rho={n_rho}",
                         "--range=0.5,1e300", "--samples", "5"])
    assert code == 0
    values = [row["value"] for row in json.loads(capsys.readouterr().out)["samples"]]
    assert all(math.isfinite(v) for v in values)
    assert values[0] != 0.0
    assert values[1:] == [0.0] * 4


def test_radial_wavefunction_near_the_origin_prints_a_finite_R():
    # rho^(-3/2) passes the float range below rho of about 2.6e-206, but
    # R = rho^(-3/2) U of the b = 3, n_rho = 2 state (ell = 1/2) is about 3.8e149 there
    import mpmath

    from pdm_polar import separation as sp

    model = GOLDEN / "coulomb.json"
    result = run_cli(["wavefunction", "--model", str(model), "--state", "radial:n_rho=2",
                      "--range=1e-300,1", "--samples", "3"])
    assert result.returncode == 0
    assert result.stderr == ""
    values = [row["value"] for row in json.loads(result.stdout)["samples"]]
    v = sp.load_model(model).v
    coords = np.array([1e-300, 0.5, 1.0])
    u = v.state(2, coords)
    assert values[0] == pytest.approx(float(mpmath.mpf(u[0]) * mpmath.mpf(1e-300) ** -1.5),
                                      rel=1e-14)
    # the samples that print the plain product keep its bits
    assert values[1:] == (u[1:] * coords[1:] ** -1.5).tolist()


def test_radial_wavefunction_has_no_grid_bound_on_n_rho(tmp_path):
    # d/a = 100 quantizes n_rho up to 49, and the closed state has no grid to resolve it on
    wide = write_model(tmp_path, "wide.json",
                       {"f": "flat", "potential": {"oscillator_like": {"a": 1.0, "d": 100.0}},
                        "ordering": "bendaniel-duke"})
    result = run_cli(["wavefunction", "--model", str(wide), "--state", "radial:n_rho=40",
                      "--range", "0.5,20", "--samples", "40"])
    assert result.returncode == 0, result.stderr
    values = np.array([row["value"] for row in json.loads(result.stdout)["samples"]])
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values)) > 0.0


def test_wavefunction_invalid_selector(coulomb_model_file):
    result = run_cli(
        ["wavefunction", "--model", str(coulomb_model_file), "--state", "bogus:q=1",
         "--range", "1,2"]
    )
    assert result.returncode == 3


# ---------------------------------------------------------------------------
# scan


def test_scan_recovers_minus_three_quarters(cos2_model_file):
    result = run_cli(
        ["scan", "--model", str(cos2_model_file), "--energy", "0.5",
         "--lambda-range=-1,0", "--curve-samples", "5"]
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["root"]["lambda_star"] == pytest.approx(-0.75, abs=1e-3)
    assert len(payload["curve"]) == 5


def test_scan_unbracketed_target(cos2_model_file):
    result = run_cli(
        ["scan", "--model", str(cos2_model_file), "--energy", "50.0",
         "--lambda-range=-0.9,-0.5", "--curve-samples", "5"]
    )
    assert result.returncode == 5
    assert stderr_error(result)["exit_code"] == 5
    payload = json.loads(result.stdout)
    assert payload["root"] is None
    assert len(payload["curve"]) == 5


def test_scan_empty_range(cos2_model_file):
    result = run_cli(
        ["scan", "--model", str(cos2_model_file), "--energy", "0.5",
         "--lambda-range=0,-1"]
    )
    assert result.returncode == 2


def test_scan_degenerate_range(cos2_model_file):
    result = run_cli(
        ["scan", "--model", str(cos2_model_file), "--energy", "0.5",
         "--lambda-range=-0.75,-0.75", "--curve-samples", "3"]
    )
    assert result.returncode == 5


@pytest.mark.parametrize("option", ["--state-index=-1", "--state-index=512",
                                    "--n-points=4000", "--n-points=2051"])
def test_scan_domain_guards(cos2_model_file, option):
    result = run_cli(
        ["scan", "--model", str(cos2_model_file), "--energy", "0.5",
         "--lambda-range=-1,0", "--curve-samples", "3", option]
    )
    assert result.returncode == 3
    assert stderr_error(result)["code"] == "domain"


@pytest.mark.parametrize("argv", [
    ["scan", "--energy", "0.5", "--lambda-range=-1,0", "--curve-samples", "0"],
    ["effpot", "--which", "angular", "--range=-0.9,0.9", "--samples", "0"],
    ["wavefunction", "--state", "toy:n=1/2", "--range", "0.5,12", "--samples", "0"],
])
def test_sample_counts_below_one_rejected(cos2_model_file, argv):
    result = run_cli([*argv, "--model", str(cos2_model_file)])
    assert result.returncode == 2
    assert stderr_error(result)["code"] == "config"


# counts that would allocate gigabytes before any check: each is refused where it is parsed
@pytest.mark.parametrize("argv", [
    ["scan", "--energy", "0.5", "--lambda-range=-1,0", "--curve-samples", "10001"],
    ["effpot", "--which", "angular", "--range=-0.9,0.9", "--samples", "1000000000000"],
    ["wavefunction", "--state", "toy:n=1/2", "--range", "0.5,12", "--samples", "1000000000000"],
    ["spectrum", "--m-max", "100000000"],
    ["spectrum", "--n-rho-max", "10001"],
    ["verify", "--n-rho-max", "10001"],
    # d/a = 1e5 quantizes this n_rho: only the selector's bound refuses it
    ["wavefunction", "--state", "radial:n_rho=10001", "--range", "0.5,6", "--samples", "3"],
    # each within its own bound, but (n_rho + 1) * samples = 1e10 terms
    ["wavefunction", "--state", "radial:n_rho=9999", "--range", "0.5,6", "--samples", "1000000"],
])
def test_sample_counts_above_their_bound_rejected(cos2_model_file, coulomb_model_file, tmp_path,
                                                  argv):
    model = coulomb_model_file if argv[0] in ("spectrum", "verify") else cos2_model_file
    if any(token.startswith("radial:") for token in argv):
        model = write_model(tmp_path, "deep.json",
                            {"f": "flat", "potential": {"oscillator_like": {"a": 1.0, "d": 1e5}},
                             "ordering": "bendaniel-duke"})
    result = run_cli([*argv, "--model", str(model)])
    assert result.returncode == 2
    assert stderr_error(result)["code"] == "config"
    assert "must be" in stderr_error(result)["message"]


@pytest.mark.parametrize("n_rho, samples", [(9999, 100001), (10000, 10**6)],
                         ids=["just-above", "both-at-their-bounds"])
def test_radial_dump_is_refused_before_any_sampling(tmp_path, monkeypatch, capsys, n_rho, samples):
    # (n_rho + 1) * samples above 1e9 is refused before any point or state is sampled
    from pdm_polar import separation as sp

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the bound was checked")

    monkeypatch.setattr(cli, "_linspace", no_sampling)
    monkeypatch.setattr(sp.OscillatorLike, "state", no_sampling)
    model = write_model(tmp_path, "deep.json",
                        {"f": "flat", "potential": {"oscillator_like": {"a": 1.0, "d": 1e5}},
                         "ordering": "bendaniel-duke"})
    code = main(["wavefunction", "--model", str(model), "--state", f"radial:n_rho={n_rho}",
                 "--range", "0.5,6", "--samples", str(samples)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "config"


def test_scan_determinism(cos2_model_file):
    args = ["scan", "--model", str(cos2_model_file), "--energy", "0.5",
            "--lambda-range=-1,0", "--curve-samples", "3"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout.encode() == second.stdout.encode()


def test_unbracketed_scan_solves_each_curve_point_once(cos2_model_file, monkeypatch, capsys):
    from pdm_polar import cli
    from pdm_polar import models as md

    solved = []
    scan_level, scan_level_slope = md.scan_level, md._scan_level_slope

    def counting_scan_level(a, lam, **kwargs):
        solved.append(lam)
        return scan_level(a, lam, **kwargs)

    def counting_scan_level_slope(a, lam, *args):
        solved.append(lam)
        return scan_level_slope(a, lam, *args)

    monkeypatch.setattr(md, "scan_level", counting_scan_level)
    monkeypatch.setattr(md, "_scan_level_slope", counting_scan_level_slope)
    code = cli.main(["scan", "--model", str(cos2_model_file), "--energy", "50.0",
                     "--lambda-range=-0.9,-0.5", "--curve-samples", "5"])
    assert code == 5
    curve = json.loads(capsys.readouterr().out)["curve"]
    # the bracket check counts levels instead of solving, and the message
    # reads the range ends off the curve, so each of the five curve points
    # solves once: the first with its slope, the others by scan_level
    assert solved == [p["lambda"] for p in curve] and len(curve) == 5


def test_degenerate_scan_solves_its_one_level_once(cos2_model_file, monkeypatch, capsys):
    from pdm_polar import cli
    from pdm_polar import models as md

    solved = []
    scan_level = md.scan_level

    def counting_scan_level(a, lam, **kwargs):
        solved.append(lam)
        return scan_level(a, lam, **kwargs)

    monkeypatch.setattr(md, "scan_level", counting_scan_level)
    code = cli.main(["scan", "--model", str(cos2_model_file), "--energy", "0.5",
                     "--lambda-range=-0.75,-0.75", "--curve-samples", "5"])
    assert code == 5
    curve = json.loads(capsys.readouterr().out)["curve"]
    assert len(curve) == 5 and len({(p["lambda"], p["energy"]) for p in curve}) == 1
    assert solved == [-0.75]


def test_scan_needs_cos2(flat_model_file):
    result = run_cli(
        ["scan", "--model", str(flat_model_file), "--energy", "0.5",
         "--lambda-range=-1,0"]
    )
    assert result.returncode == 2


# ---------------------------------------------------------------------------
# output files


def test_out_file_written(coulomb_model_file, tmp_path):
    out = tmp_path / "table.json"
    result = run_cli(
        ["spectrum", "--model", str(coulomb_model_file), "--m-max", "1", "--out", str(out)]
    )
    assert result.returncode == 0
    assert result.stdout == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload["records"]) == 3


# ---------------------------------------------------------------------------
# the error boundary


def one_json_error(result, code):
    """Exit code, nothing on stdout, and stderr holding exactly one JSON error."""
    assert result.returncode == code
    assert result.stdout == ""
    error = stderr_error(result)
    assert error["exit_code"] == code
    return error


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "OSCILLATOR", "--n-points", "abc"],
    ["verify", "--n-rho-max", "1"],
    [],
    ["spectrum", "--model", "COULOMB", "--out", "MISSING_DIR"],
    ["scan", "--model", "COS2", "--energy", "0.5", "--lambda-range=-1,0", "--format", "csv"],
    # the radial state is closed-form: wavefunction takes no grid options
    ["wavefunction", "--model", "OSCILLATOR", "--state", "radial:n_rho=0", "--range", "0.5,5",
     "--n-points", "64"],
    ["wavefunction", "--model", "OSCILLATOR", "--state", "radial:n_rho=0", "--range", "0.5,5",
     "--rho-max", "5"],
], ids=["bad-int", "no-model", "no-subcommand", "out-in-missing-dir", "scan-csv",
        "wavefunction-n-points", "wavefunction-rho-max"])
def test_bad_command_line_exits_2_with_one_json_error(oscillator_model_file, coulomb_model_file,
                                                      cos2_model_file, tmp_path, argv):
    files = {"OSCILLATOR": oscillator_model_file, "COULOMB": coulomb_model_file,
             "COS2": cos2_model_file, "MISSING_DIR": tmp_path / "missing" / "table.json"}
    result = run_cli([str(files.get(token, token)) for token in argv])
    assert one_json_error(result, 2)["code"] == "config"


def test_control_character_in_an_echoed_state_prints_valid_json(oscillator_model_file):
    # the selector survives its strip() with a trailing tab, and the report echoes it
    state = "radial:n_rho=1\t"
    result = run_cli(["wavefunction", "--model", str(oscillator_model_file), "--state", state,
                      "--range", "0.5,6", "--samples", "3"])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["state"] == state


def test_control_character_in_an_error_message_prints_valid_json():
    path = "no\nsuch.json"
    error = one_json_error(run_cli(["spectrum", "--model", path]), 2)
    assert error["code"] == "config" and f"cannot read model file {path}:" in error["message"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "FLAT", "--lambda", "nan"],
    ["effpot", "--model", "COULOMB", "--which", "radial", "--range", "0.5,1", "--lambda", "1e308"],
    # rho**4 and rho**400 pass the float range, which a float power raises on
    ["effpot", "--model", "OSCILLATOR", "--which", "radial", "--range=1e100,1e200"],
    ["effpot", "--model", "DEEP_WELL", "--which", "radial", "--range=1,10", "--samples", "3"],
    # a parameter's square passes the float range, which a float power raises on
    ["effpot", "--model", "HUGE_A", "--which", "radial", "--range=0.5,2", "--samples", "3"],
    ["effpot", "--model", "HUGE_OMEGA", "--which", "radial", "--range=0.5,2", "--samples", "3"],
    # R = rho^(-3/2) U ~ rho^(ell - 1) of ell = 0.01 passes the float range at
    # the least subnormal rho, where R ~ 1e320
    ["wavefunction", "--model", "LOW_ELL", "--state", "radial:n_rho=0", "--range=5e-324,1",
     "--samples", "3"],
], ids=["spectrum-nan", "effpot-overflow", "effpot-oscillator-power-overflow",
        "effpot-power-well-overflow", "effpot-oscillator-a-squared-overflow",
        "effpot-coulomb-omega-squared-overflow", "wavefunction-radial-overflow"])
def test_non_finite_result_exits_3_with_one_json_error(flat_model_file, coulomb_model_file,
                                                       oscillator_model_file, tmp_path, argv, fmt):
    def model(name, potential):
        return write_model(tmp_path, name, {"f": "flat", "potential": potential,
                                            "ordering": "bendaniel-duke"})

    files = {"FLAT": flat_model_file, "COULOMB": coulomb_model_file,
             "OSCILLATOR": oscillator_model_file,
             "DEEP_WELL": model("deep_well.json", {"power_well": {"v0": 1.0, "k": 200}}),
             "HUGE_A": model("huge_a.json", {"oscillator_like": {"a": 1e200, "d": 1.0}}),
             "HUGE_OMEGA": model("huge_omega.json", {"coulomb_like": {"omega": 1e200}}),
             "LOW_ELL": model("low_ell.json", {"coulomb_like": {"omega": 1.0 / 0.51}})}
    result = run_cli([str(files.get(token, token)) for token in argv] + ["--format", fmt])
    error = one_json_error(result, 3)
    assert error["code"] == "domain"
    assert error["message"].startswith("refusing to print non-finite value")


@pytest.mark.parametrize("argv", [
    ["wavefunction", "--model", "COS2", "--state", "toy:n=1/3", "--range", "0.5,2"],
    ["wavefunction", "--model", "COS2", "--state", "toy:n=1/2", "--range", "0.5,1e300",
     "--samples", "3"],
    ["verify", "--model", "COULOMB", "--n-points", "64", "--rho-max", "1e300"],
    # d/a = 100 quantizes n_rho up to 49, past what 64 grid points resolve
    ["verify", "--model", "WIDE", "--n-points", "64", "--n-rho-max", "20"],
    # k = 1.5 is outside the power well's domain, not the k = 1 Bessel well
    ["wavefunction", "--model", "HALF_K", "--state", "toy:n=1/2", "--range", "0.5,2"],
    # m phi cannot be converted to a float, or is infinite
    ["wavefunction", "--model", "FLAT", "--state", f"angular:m=1{'0' * 400}",
     "--range", "0,6.28", "--samples", "3"],
    ["wavefunction", "--model", "COS2", "--state", f"angular:m=1{'0' * 400}",
     "--range", "0,6.28", "--samples", "3"],
    ["wavefunction", "--model", "FLAT", "--state", "angular:m=3",
     "--range", "0,8e307", "--samples", "3"],
    # a target or a range end that is not finite is refused before any solve
    ["scan", "--model", "COS2", "--energy=-inf", "--lambda-range=-1,0"],
    ["scan", "--model", "COS2", "--energy=nan", "--lambda-range=-1,0"],
    ["scan", "--model", "COS2", "--energy", "0.5", "--lambda-range=nan,0"],
    # a^2 passes the float range: the radial equation that verify solves is refused as non-finite
    ["verify", "--model", "HUGE_A", "--n-rho-max", "0"],
], ids=["toy-third-order", "toy-huge-range", "verify-huge-wall", "verify-index-past-grid",
        "toy-fractional-k", "angular-flat-huge-m", "angular-cos2-huge-m",
        "angular-flat-infinite-phase", "scan-infinite-energy", "scan-nan-energy",
        "scan-nan-lambda-range", "verify-oscillator-a-squared-overflow"])
def test_out_of_range_input_exits_3_with_one_json_error(cos2_model_file, coulomb_model_file,
                                                        flat_model_file, tmp_path, argv):
    wide = write_model(tmp_path, "wide.json",
                       {"f": "flat", "potential": {"oscillator_like": {"a": 1.0, "d": 100.0}},
                        "ordering": "bendaniel-duke"})
    half_k = write_model(tmp_path, "half_k.json",
                         {"f": "cos2", "potential": {"power_well": {"v0": 1.0, "k": 1.5}},
                          "ordering": "mustafa-mazharimousavi"})
    huge_a = write_model(tmp_path, "huge_a.json",
                         {"f": "flat", "potential": {"oscillator_like": {"a": 1e200, "d": 1e201}},
                          "ordering": "bendaniel-duke"})
    files = {"COS2": cos2_model_file, "COULOMB": coulomb_model_file, "FLAT": flat_model_file,
             "WIDE": wide, "HALF_K": half_k, "HUGE_A": huge_a}
    result = run_cli([str(files.get(token, token)) for token in argv])
    assert one_json_error(result, 3)["code"] == "domain"


@pytest.mark.parametrize("potential", [
    {"oscillator_like": {"a": 1.0, "d": 1e300}},
    {"coulomb_like": {"omega": 1e-200}},
], ids=["oscillator-huge-d", "coulomb-tiny-omega"])
@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["verify", "--n-rho-max", "0"],
    ["wavefunction", "--state", "radial:n_rho=0", "--range", "0.5,6", "--samples", "3"],
], ids=["spectrum", "verify", "wavefunction"])
def test_overflowing_quantization_exits_3_before_any_output(tmp_path, capsys, potential, argv):
    # lambda = t^2 - 1 passes the float range, so ell = inf; the level is refused
    # where ell is computed, not printed as inf or as an all-zero closed state
    model = write_model(tmp_path, "model.json",
                        {"f": "flat", "potential": potential, "ordering": "bendaniel-duke"})
    assert main([argv[0], "--model", str(model), *argv[1:]]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "domain"
    assert error["message"] == "lambda(0) = inf passes the float range"


@pytest.mark.parametrize("lo", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["effpot", "--model", "COULOMB", "--which", "radial"],
    ["wavefunction", "--model", "COS2", "--state", "toy:n=1/2"],
    ["wavefunction", "--model", "OSCILLATOR", "--state", "radial:n_rho=0"],
], ids=["effpot-radial", "wavefunction-toy", "wavefunction-radial"])
def test_radial_range_from_zero_or_below_exits_3(coulomb_model_file, cos2_model_file,
                                                 oscillator_model_file, argv, lo):
    # the radial problem lives on rho > 0; both commands refuse it by one rule
    files = {"COULOMB": coulomb_model_file, "COS2": cos2_model_file,
             "OSCILLATOR": oscillator_model_file}
    result = run_cli([str(files.get(token, token)) for token in argv] + [f"--range={lo},5"])
    error = one_json_error(result, 3)
    assert error["code"] == "domain"
    assert error["message"] == f"need 0 < rho_min < rho_max, got ({float(lo)}, 5.0)"


def _table(n=512):
    phi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return {"phi": phi.tolist(), "f": (1.0 + 0.4 * np.cos(phi)).tolist(),
            "fp": (-0.4 * np.sin(phi)).tolist(), "fpp": (-0.4 * np.cos(phi)).tolist()}


@pytest.mark.parametrize("bad", [
    lambda xs: xs[:7] + ["1.0"] + xs[8:],
    lambda xs: xs[:7] + [True] + xs[8:],
    lambda xs: xs[:7] + [None] + xs[8:],
    lambda xs: xs[:7] + [math.nan] + xs[8:],
    lambda xs: xs[:7] + [math.inf] + xs[8:],
    lambda xs: xs[:7] + [[xs[7]]] + xs[8:],
    lambda xs: "abc",
], ids=["string", "bool", "null", "nan", "infinity", "nested-list", "not-a-list"])
@pytest.mark.parametrize("key", ["phi", "f", "fp", "fpp"])
def test_table_entry_that_is_not_a_finite_number_exits_2(tmp_path, capsys, key, bad):
    table = _table()
    table[key] = bad(table[key])
    # json writes NaN and Infinity as the bare tokens its reader accepts
    model = write_model(tmp_path, "table.json",
                        {"f": {"tabulated": table}, "ordering": "bendaniel-duke"})
    code = main(["effpot", "--model", str(model), "--which", "angular", "--range=0.1,1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "config" and repr(key) in error["message"]


# ---------------------------------------------------------------------------
# imports


IMPORT_GUARD = """
import contextlib, io, json, sys

import pdm_polar
runs = [["scipy.linalg" in sys.modules, "numpy" in sys.modules]]

from pdm_polar.cli import main

for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    message = json.loads(err.getvalue())["error"]["message"] if code else ""
    runs.append([code, "scipy.linalg" in sys.modules, "numpy" in sys.modules, message])
print(json.dumps(runs))
"""


def test_no_command_loads_scipy_linalg(coulomb_model_file, oscillator_model_file,
                                       flat_model_file, cos2_model_file, tmp_path):
    # a fresh interpreter: the test process itself has numpy and scipy loaded
    # already.  The closed forms run first, on Python floats, and load neither
    closed_form = [
        ["spectrum", "--model", str(coulomb_model_file)],
        ["spectrum", "--model", str(oscillator_model_file)],
        ["spectrum", "--model", str(flat_model_file)],
        ["effpot", "--model", str(cos2_model_file), "--which", "angular",
         "--range=-0.9,0.9", "--samples", "5"],
        ["effpot", "--model", str(coulomb_model_file), "--which", "radial",
         "--range", "0.5,20", "--samples", "5"],
        ["wavefunction", "--model", str(cos2_model_file), "--state", "toy:n=1/2",
         "--range", "0.5,12", "--samples", "5"],
        ["wavefunction", "--model", str(flat_model_file), "--state", "angular:m=1",
         "--range", "0,6.28", "--samples", "5"],
    ]
    # float arithmetic raises where an array's gives inf or nan: the sample
    # that raises, or that comes out non-finite, is refused at once, by its
    # coordinate, with no array evaluation
    def model(name, potential):
        return str(write_model(tmp_path, name, {"f": "flat", "potential": potential,
                                                 "ordering": "bendaniel-duke"}))

    refused = [
        # rho^4, and rho^400 at the last sample, pass the float range
        (1e100, [str(oscillator_model_file), "--range=1e100,1e200"]),
        (10.0, [model("deep_well.json", {"power_well": {"v0": 1.0, "k": 200}}),
                "--range=1,10", "--samples", "3"]),
        # rho^2 underflows to 0 under the centrifugal term
        (1e-300, [str(coulomb_model_file), "--range=1e-300,1e-200"]),
        # a squared parameter passes the float range: inf, with nothing raised
        (0.5, [model("huge_omega.json", {"coulomb_like": {"omega": 1e200}}),
               "--range=0.5,2", "--samples", "3"]),
        (0.5, [model("huge_a.json", {"oscillator_like": {"a": 1e200, "d": 1.0}}),
               "--range=0.5,2", "--samples", "3"]),
    ]
    closed_form += [["effpot", "--which", "radial", "--model", *argv] for _, argv in refused]
    expected = [[0, False, False, ""]] * (len(closed_form) - len(refused)) + [
        [3, False, False, f"refusing to print non-finite value of the potential at rho = {rho!r}"]
        for rho, _ in refused]
    # the radial state is sampled on an array; the solving commands reach
    # LAPACK through scipy's extension module alone
    solving = [
        ["wavefunction", "--model", str(oscillator_model_file), "--state", "radial:n_rho=1",
         "--range", "0.5,6", "--samples", "5"],
        ["verify", "--model", str(oscillator_model_file), "--n-rho-max", "0",
         "--n-points", "1024"],
        ["scan", "--model", str(cos2_model_file), "--energy", "0.5", "--lambda-range=-1,0"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, json.dumps(closed_form + solving)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    bare_import, *runs = json.loads(result.stdout)
    assert bare_import == [False, False]
    for argv, outcome, want in zip(closed_form, runs[:len(closed_form)], expected, strict=True):
        assert outcome == want, argv
    for argv, outcome in zip(solving, runs[len(closed_form):], strict=True):
        assert outcome[:2] == [0, False], argv


@settings(max_examples=400, deadline=None)
@given(lo=st.floats(allow_nan=False), hi=st.floats(allow_nan=False),
       n=st.integers(min_value=1, max_value=40))
# the step underflows to 0, and numpy computes i/div * delta + lo
@example(lo=0.0, hi=5e-324, n=3)
@example(lo=0.0, hi=1.5e-323, n=8)
@example(lo=-0.0, hi=2.0, n=1)
@example(lo=0.5, hi=6.0, n=2)
@example(lo=1.0, hi=1.0, n=4)
@example(lo=-1e308, hi=1e308, n=5)  # the span overflows
def test_sampler_is_numpy_linspace_bit_for_bit(lo, hi, n):
    with np.errstate(all="ignore"):
        expected = np.linspace(lo, hi, n)
    assert float_bits(cli._linspace(lo, hi, n)) == float_bits(expected.tolist())


def test_verify_falls_back_when_no_window_certifies_a_level(oscillator_model_file, capsys,
                                                           monkeypatch):
    # a pivot count that never certifies a level sends every level to the
    # index search, which agrees with the Rayleigh steps within the bisection
    # tolerance; every record says that its index was not certified, and the
    # sweep fails (exit 4), however small its deltas
    from pdm_polar import cli, eigensolve
    from pdm_polar import models as md

    argv = ["verify", "--model", str(oscillator_model_file), "--n-rho-max", "1"]
    assert cli.main(argv) == 0
    expected = json.loads(capsys.readouterr().out)["records"]
    norms = {}
    eigenvalue = md.eigenvalue

    def spy(op, index, **kwargs):
        # the operator at h/2 has the larger norm of the two a level is solved on
        norms[index] = max(norms.get(index, 0.0), op.inf_norm)
        return eigenvalue(op, index, **kwargs)

    monkeypatch.setattr(md, "eigenvalue", spy)
    monkeypatch.setattr(eigensolve, "count_below", lambda op, x, *scratch: op.n)
    assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert json.loads(err)["error"]["exit_code"] == 4
    assert payload["all_within_tol"] is False
    records = payload["records"]
    assert [r["n_rho"] for r in records] == [r["n_rho"] for r in expected] == [0, 1]
    moved = ("energy_numeric", "delta", "convergence_estimate", "note")
    for record, unpatched in zip(records, expected):
        assert record["delta"] <= payload["tol"]
        assert record["note"] == (f"{unpatched['note']}; the solve from the closed state "
                                  f"did not certify index {record['n_rho']}")
        bound = 4.0 * np.finfo(float).eps * norms[record["n_rho"]]
        for key in moved[:3]:
            assert abs(record[key] - unpatched[key]) <= bound, (record["n_rho"], key)
        assert ({k: v for k, v in record.items() if k not in moved}
                == {k: v for k, v in unpatched.items() if k not in moved})
