"""End-to-end CLI checks: exit codes, table contents, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import write_model


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


@pytest.mark.parametrize("rho_max", ["0", "-5", "nan"])
@pytest.mark.parametrize("command", [
    ["verify", "--n-rho-max", "1"],
    ["wavefunction", "--state", "radial:n_rho=0", "--range", "0.5,5"],
], ids=["verify", "wavefunction"])
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
         "--range", "1,30", "--samples", "60", "--n-points", "2000"]
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    values = np.array([row["value"] for row in payload["samples"]])
    assert np.all(values > 0.0)


def test_wavefunction_underflowing_wall_leaves_one_json_error(coulomb_model_file):
    # the first node's r**2 underflows to 0, so the potential there is inf
    result = run_cli(
        ["wavefunction", "--model", str(coulomb_model_file), "--state", "radial:n_rho=0",
         "--range", "1,2", "--n-points", "64", "--rho-max", "1e-300"]
    )
    assert result.returncode == 3
    assert stderr_error(result)["code"] == "domain"


def test_radial_wavefunction_solves_once_on_the_fine_grid(oscillator_model_file, monkeypatch,
                                                          capsys):
    from pdm_polar import cli
    from pdm_polar import models as md
    from pdm_polar import separation as sp
    from pdm_polar.eigensolve import DIRICHLET, Grid, discretize, refine

    solved = []
    eigen_lowest = cli.eigen_lowest

    def counting_eigen_lowest(op, k):
        solved.append(op.n)
        return eigen_lowest(op, k)

    monkeypatch.setattr(cli, "eigen_lowest", counting_eigen_lowest)
    code = cli.main(["wavefunction", "--model", str(oscillator_model_file),
                     "--state", "radial:n_rho=1", "--range", "0.5,6", "--samples", "7",
                     "--n-points", "500", "--rho-max", "12"])
    assert code == 0
    assert solved == [1001]
    samples = json.loads(capsys.readouterr().out)["samples"]
    # the state the fine solve of a Richardson step returns, bit for bit
    model = sp.load_model(oscillator_model_file)
    family = md.RADIAL_FAMILIES[type(model.v)]
    params = family.params(model.v)
    potential = family.operator(*params, family.lam(*params, 1) + 1.0)
    result = refine(lambda g: discretize(potential, g), Grid(0.0, 12.0, 500, DIRICHLET), 2)
    u = result.eigenvectors[:, 1]
    u = -u if u[np.argmax(np.abs(u))] < 0 else u
    rho = result.grid.points
    coords = np.linspace(0.5, 6.0, 7)
    expected = np.interp(coords, rho, sp.radial_to_R(rho, u))
    assert [row["value"] for row in samples] == expected.tolist()


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
    scan_level = md.scan_level

    def counting_scan_level(a, lam, **kwargs):
        solved.append(lam)
        return scan_level(a, lam, **kwargs)

    monkeypatch.setattr(md, "scan_level", counting_scan_level)
    code = cli.main(["scan", "--model", str(cos2_model_file), "--energy", "50.0",
                     "--lambda-range=-0.9,-0.5", "--curve-samples", "5"])
    assert code == 5
    assert len(json.loads(capsys.readouterr().out)["curve"]) == 5
    # the bracket check counts levels instead of solving, and the message
    # reads the range ends off the curve, so only the five curve points solve
    assert len(solved) == 5


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
], ids=["bad-int", "no-model", "no-subcommand", "out-in-missing-dir", "scan-csv"])
def test_bad_command_line_exits_2_with_one_json_error(oscillator_model_file, coulomb_model_file,
                                                      cos2_model_file, tmp_path, argv):
    files = {"OSCILLATOR": oscillator_model_file, "COULOMB": coulomb_model_file,
             "COS2": cos2_model_file, "MISSING_DIR": tmp_path / "missing" / "table.json"}
    result = run_cli([str(files.get(token, token)) for token in argv])
    assert one_json_error(result, 2)["code"] == "config"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "FLAT", "--lambda", "nan"],
    ["effpot", "--model", "COULOMB", "--which", "radial", "--range", "0.5,1", "--lambda", "1e308"],
], ids=["spectrum-nan", "effpot-overflow"])
def test_non_finite_result_exits_3_with_one_json_error(flat_model_file, coulomb_model_file,
                                                       argv, fmt):
    files = {"FLAT": flat_model_file, "COULOMB": coulomb_model_file}
    result = run_cli([str(files.get(token, token)) for token in argv] + ["--format", fmt])
    assert one_json_error(result, 3)["code"] == "domain"


@pytest.mark.parametrize("argv", [
    ["wavefunction", "--model", "COS2", "--state", "toy:n=1/3", "--range", "0.5,2"],
    ["wavefunction", "--model", "COS2", "--state", "toy:n=1/2", "--range", "0.5,1e300",
     "--samples", "3"],
    ["verify", "--model", "COULOMB", "--n-points", "64", "--rho-max", "1e300"],
    # d/a = 100 quantizes n_rho up to 49, past what 64 grid points resolve
    ["verify", "--model", "WIDE", "--n-points", "64", "--n-rho-max", "20"],
    ["wavefunction", "--model", "WIDE", "--state", "radial:n_rho=40", "--range", "0.5,2",
     "--n-points", "64"],
    # k = 1.5 is outside the power well's domain, not the k = 1 Bessel well
    ["wavefunction", "--model", "HALF_K", "--state", "toy:n=1/2", "--range", "0.5,2"],
], ids=["toy-third-order", "toy-huge-range", "verify-huge-wall", "verify-index-past-grid",
        "wavefunction-index-past-grid", "toy-fractional-k"])
def test_out_of_range_input_exits_3_with_one_json_error(cos2_model_file, coulomb_model_file,
                                                        tmp_path, argv):
    wide = write_model(tmp_path, "wide.json",
                       {"f": "flat", "potential": {"oscillator_like": {"a": 1.0, "d": 100.0}},
                        "ordering": "bendaniel-duke"})
    half_k = write_model(tmp_path, "half_k.json",
                         {"f": "cos2", "potential": {"power_well": {"v0": 1.0, "k": 1.5}},
                          "ordering": "mustafa-mazharimousavi"})
    files = {"COS2": cos2_model_file, "COULOMB": coulomb_model_file, "WIDE": wide,
             "HALF_K": half_k}
    result = run_cli([str(files.get(token, token)) for token in argv])
    assert one_json_error(result, 3)["code"] == "domain"


# ---------------------------------------------------------------------------
# imports


IMPORT_GUARD = """
import contextlib, io, json, sys

import pdm_polar
runs = ["scipy.linalg" in sys.modules]

from pdm_polar.cli import main

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    runs.append([code, "scipy.linalg" in sys.modules])
print(json.dumps(runs))
"""


def test_closed_form_commands_do_not_load_scipy(coulomb_model_file, oscillator_model_file,
                                                flat_model_file, cos2_model_file):
    # a fresh interpreter: the test process itself has scipy loaded already
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
    solving = ["verify", "--model", str(oscillator_model_file), "--n-rho-max", "0",
               "--n-points", "1024"]
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, json.dumps(closed_form + [solving])],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    bare_import, *runs, verify = json.loads(result.stdout)
    assert bare_import is False
    for argv, outcome in zip(closed_form, runs, strict=True):
        assert outcome == [0, False], argv
    assert verify == [0, True]
