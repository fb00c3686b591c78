"""Golden CLI output: byte-identical stdout for the closed-form commands.

The closed-form commands (``spectrum``, ``effpot``, and the toy and angular
``wavefunction`` states) do only arithmetic that is exact up to libm, so
their stdout bytes are pinned in ``tests/golden/<case>.stdout``; the model
files next to them include one whose ordering token is written in raw case
with a leading space, which the CLI prints as written, and a tabulated profile.

The numeric commands (``verify``, ``scan``) get no golden bytes, since
LAPACK's last bits may differ between machines.  Their payloads are compared
in-process against the library functions run at the same settings.
"""

import json
from pathlib import Path

import pytest

from pdm_polar import cli
from pdm_polar import models as md
from pdm_polar import separation as sp

GOLDEN = Path(__file__).parent / "golden"
TWO_PI = "6.283185307179586"

CASES = {
    "spectrum-coulomb-json": ["spectrum", "coulomb", "--n-rho-max", "1", "--m-max", "2"],
    "spectrum-coulomb-csv": ["spectrum", "coulomb", "--n-rho-max", "1", "--m-max", "2",
                             "--format", "csv"],
    "spectrum-oscillator-json": ["spectrum", "oscillator_raw_token", "--n-rho-max", "2",
                                 "--m-max", "1"],
    "spectrum-oscillator-csv": ["spectrum", "oscillator_raw_token", "--n-rho-max", "2",
                                "--m-max", "1", "--format", "csv"],
    "spectrum-flat-json": ["spectrum", "flat", "--m-max", "2", "--lambda", "0.5"],
    "spectrum-flat-csv": ["spectrum", "flat", "--m-max", "2", "--lambda", "0.5",
                          "--format", "csv"],
    "effpot-angular-json": ["effpot", "cos2", "--which", "angular", "--range=-0.9,0.9",
                            "--samples", "7", "--lambda=-0.5"],
    "effpot-angular-csv": ["effpot", "cos2", "--which", "angular", "--range=-0.9,0.9",
                           "--samples", "7", "--lambda=-0.5", "--format", "csv"],
    "effpot-angular-flat-json": ["effpot", "flat", "--which", "angular", f"--range=0,{TWO_PI}",
                                 "--samples", "7", "--lambda", "0.5"],
    "effpot-angular-tabulated-json": ["effpot", "tabulated", "--which", "angular", "--range=0,6",
                                      "--samples", "7", "--lambda", "0.5"],
    "effpot-radial-json": ["effpot", "coulomb", "--which", "radial", "--range", "0.5,20",
                           "--samples", "9", "--lambda", "3.0"],
    "effpot-radial-csv": ["effpot", "coulomb", "--which", "radial", "--range", "0.5,20",
                          "--samples", "9", "--lambda", "3.0", "--format", "csv"],
    "wavefunction-toy-half-json": ["wavefunction", "cos2", "--state", "toy:n=1/2",
                                   "--range", "0.5,12", "--samples", "9"],
    "wavefunction-toy-int-csv": ["wavefunction", "cos2", "--state", "toy:n=2",
                                 "--range", "0.5,12", "--samples", "9", "--format", "csv"],
    "wavefunction-angular-flat-json": ["wavefunction", "flat", "--state", "angular:m=1",
                                       "--range", f"0,{TWO_PI}", "--samples", "9"],
    "wavefunction-angular-cos2-json": ["wavefunction", "cos2", "--state", "angular:m=1",
                                       "--range", f"0,{TWO_PI}", "--samples", "9"],
    "wavefunction-angular-cos2-csv": ["wavefunction", "cos2", "--state", "angular:m=2",
                                      "--range", f"0,{TWO_PI}", "--samples", "9",
                                      "--format", "csv"],
}


def model_path(name):
    return str(GOLDEN / f"{name}.json")


def run_main(capsys, command, model, *rest):
    """Run the CLI in-process; return (exit code, stdout)."""
    code = cli.main([command, "--model", model_path(model), *rest])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_closed_form_stdout_matches_golden(capsys, case):
    code, out = run_main(capsys, *CASES[case])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{case}.stdout").read_bytes()


@pytest.mark.parametrize("model", ["coulomb", "oscillator_raw_token"])
def test_verify_payload_matches_library(capsys, model):
    code, out = run_main(capsys, "verify", model, "--n-rho-max", "1", "--n-points", "1024")
    payload = json.loads(out)
    loaded = sp.load_model(model_path(model))
    v = loaded.v
    if isinstance(v, sp.CoulombLike):
        rho_max = md.coulomb_rho_max(v.b)
        header = {"model_kind": "coulomb_like", "b": v.b}
    else:
        rho_max = 12.0 / v.a**0.5
        header = {"model_kind": "oscillator_like", "a": v.a, "d": v.d}
    records = md.verify_sweep(v, 1, n_points=1024, rho_max=rho_max)
    ok = md.all_within(records, 1e-4)
    assert code == (0 if ok else 4)
    raw_token = json.loads((GOLDEN / f"{model}.json").read_text(encoding="utf-8"))["ordering"]
    assert payload == {
        "command": "verify",
        "model": header,
        "ordering": raw_token,
        "tol": 1e-4,
        "n_points": 1024,
        "rho_max": rho_max,
        "records": [md.record_to_row(r) for r in records],
        "all_within_tol": ok,
    }


@pytest.mark.parametrize("lambda_range, energy, expected_code", [
    ((-1.0, 0.0), 0.5, 0),
    ((-0.9, -0.5), 50.0, 5),
    ((-0.75, -0.75), 0.5, 5),
], ids=["root", "no-root", "degenerate-range"])
def test_scan_payload_matches_library(capsys, lambda_range, energy, expected_code):
    lo, hi = lambda_range
    code, out = run_main(capsys, "scan", "cos2", "--energy", repr(energy),
                         f"--lambda-range={lo!r},{hi!r}", "--curve-samples", "3")
    assert code == expected_code
    payload = json.loads(out)
    ordering = sp.load_model(model_path("cos2")).ordering
    curve = md.scan_curve(ordering, lambda_range, 3, state_index=1, n_points=2050)
    assert payload["curve"] == [{"lambda": lam, "energy": e} for lam, e in curve]
    assert payload["lambda_range"] == [lo, hi]
    if expected_code == 0:
        lam_star, residual = md.heun_regime_scan(ordering, energy, lambda_range,
                                                 state_index=1, n_points=2050)
        assert payload["root"] == {"lambda_star": lam_star, "residual": residual}
    else:
        assert payload["root"] is None
