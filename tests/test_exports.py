"""The package's exports, and numpy imported on the first array."""

import importlib
import json
import subprocess
import sys

import pytest

import pdm_polar

# every name the package exports, by its defining module
EXPORTS = {
    "ambiguity": ["AmbiguitySet", "Ordering", "bracket", "check_constraint27",
                  "constraint27_expression", "make_ambiguity", "parse_ordering_token",
                  "swap_alpha_gamma", "xi"],
    "eigensolve": ["DIRICHLET", "PERIODIC", "DiscretizedOperator", "EigenResult", "Grid",
                   "discretize", "eigen_lowest", "observed_order", "refine"],
    "models": ["QuantumNumbers", "SpectrumRecord", "all_within", "coulomb_energy",
               "coulomb_numeric_level", "degeneracy_report", "flat_energy", "heun_regime_scan",
               "oscillator_energy", "oscillator_numeric_level", "scan_curve",
               "toy_radial_solution", "verify_coulomb", "verify_oscillator"],
    "separation": ["AngularProblem", "CosSquaredProfile", "CoulombLike", "ExactRadial",
                   "FlatProfile", "OscillatorLike", "PowerWell", "RadialProblem", "SeparableModel",
                   "TabulatedProfile", "angular_problem", "angular_wavefunction_recompose",
                   "coulomb_lambda", "load_model", "model_from_dict", "oscillator_lambda",
                   "pct_map", "radial_problem", "radial_to_R", "w_eff", "w_tilde",
                   "zeta_coefficients"],
    "specfun": ["BesselOrder", "bessel_j", "laguerre_assoc"],
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_are_their_defining_modules_objects(module):
    defining = importlib.import_module(f"pdm_polar.{module}")
    for name in EXPORTS[module]:
        assert getattr(pdm_polar, name) is getattr(defining, name), name
        assert name in dir(pdm_polar), name


def test_models_reads_the_radial_closed_forms_of_separation():
    # callers that reach them through models get the one definition
    from pdm_polar import models, separation

    for name in ("coulomb_lambda", "oscillator_lambda", "coulomb_rho_max"):
        assert getattr(models, name) is getattr(separation, name), name


def test_numpy_is_bound_on_the_first_array_read_of_each_module():
    # a fresh interpreter: the test process has numpy loaded already
    script = (
        "import json, sys\n"
        "import pdm_polar\n"
        "from pdm_polar import eigensolve, models, separation\n"
        "modules = (eigensolve, models, separation)\n"
        "runs = ['numpy' in sys.modules, [type(m.np).__name__ for m in modules]]\n"
        "points = eigensolve.Grid(0.0, 1.0, 16, eigensolve.DIRICHLET).points\n"
        "import numpy\n"
        "runs += [eigensolve.np is numpy, models.np is numpy, separation.np is numpy]\n"
        "print(json.dumps(runs))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [False, ["LazyNumpy"] * 3, True, False, False]
