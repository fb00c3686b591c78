"""The CLI contract under generated command lines.

Every argv drawn from the CLI grammar, run against the small model files in
``tests/golden/``, must end in a documented exit code (0, 2, 3, 4, 5).  A
non-zero exit leaves exactly one JSON error object on stderr, whose
``exit_code`` is the exit code; an exit 0 leaves stderr empty.  The draws
include malformed tokens, missing options, nan and inf, huge values, an
unwritable ``--out`` and options a command does not take.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_polar import cli

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_MODELS = ["cos2", "coulomb", "flat", "oscillator_raw_token"]


def models(*valid):
    """--model tokens: the golden models a command runs on, and the rest."""
    path = {name: str(GOLDEN / f"{name}.json") for name in GOLDEN_MODELS}
    rest = [path[name] for name in GOLDEN_MODELS if name not in valid] + ["missing.json"]
    return [path[name] for name in valid], rest


# each option maps to (valid tokens, invalid or extreme tokens); an omitted
# option takes its default.  Small grids keep each solve cheap.
FORMAT = (["json", "csv"], ["xml"])
FLOATS = (["0.5", "-0.75", "3", "0"], ["nan", "inf", "-inf", "1e308", "abc"])
INTS = (["0", "1", "2"], ["-1", "1.5", "x"])
N_POINTS = (["64", "256"], ["32", "abc"])
SAMPLES = (["2", "5"], ["1", "0", "x"])
RHO_MAX = (["5", "30"], ["0", "nan", "inf", "1e-300", "1e300"])
RANGES = (["0.5,12", "-0.9,0.9", "0,6.28"],
          ["1,0", "0.5,inf", "nan,1", "-1e308,1e308", "0.5,1e300", "a,b", "1,2,3"])
# relative to a fresh directory: a new file, a missing directory, the directory
OUT = (["out.txt"], ["missing/out.txt", "."])

GRAMMAR = {
    "spectrum": {"--model": models("coulomb", "flat", "oscillator_raw_token"),
                 "--format": FORMAT, "--n-rho-max": INTS, "--m-max": INTS, "--lambda": FLOATS},
    "verify": {"--model": models("coulomb", "oscillator_raw_token"), "--format": FORMAT,
               "--n-rho-max": INTS, "--tol": (["1e-4", "1e-10"], ["1", "nan"]),
               "--n-points": N_POINTS, "--rho-max": RHO_MAX},
    "effpot": {"--model": models(*GOLDEN_MODELS), "--format": FORMAT,
               "--which": (["radial", "angular"], ["both"]), "--range": RANGES,
               "--samples": SAMPLES, "--lambda": FLOATS},
    "wavefunction": {
        "--model": models(*GOLDEN_MODELS), "--format": FORMAT,
        "--state": (["toy:n=1/2", "toy:n=2", "radial:n_rho=0", "radial:n_rho=1",
                     "angular:m=1", "angular:m=-2"],
                    ["toy:n=1/3", "toy:n=-1/2", "toy:n=1000", "radial:n_rho=-1",
                     "radial:n_rho=99", "bogus:q=1", f"angular:m=1{'0' * 400}"]),
        "--range": RANGES, "--samples": SAMPLES,
    },
    # scan prints JSON only, so any --format is invalid
    "scan": {"--model": models("cos2"), "--format": ([], ["csv", "json"]), "--energy": FLOATS,
             "--lambda-range": (["-1,0", "-0.9,-0.5", "-0.75,-0.75"],
                                ["0,-1", "nan,0", "-inf,0", "x"]),
             "--state-index": (["0", "1"], ["-1", "512", "x"]),
             "--curve-samples": (["1", "3"], ["0"]),
             "--n-points": (["130", "66"], ["64", "abc"])},
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR) * 4 + ["bogus", None]))
    argv = [] if command is None else [command]
    for option, (valid, invalid) in {**GRAMMAR.get(command, {}), "--out": OUT}.items():
        # mostly valid, so that most command lines get past the parser
        tokens = draw(st.sampled_from([valid] * 18 + [invalid, []]))
        if tokens:
            argv.append(f"{option}={draw(st.sampled_from(tokens))}")
    return argv + draw(st.sampled_from([[]] * 18 + [["--bogus"], ["stray"]]))


def run(argv, workdir):
    """Run in-process; return (exit code, stdout, stderr, warnings raised)."""
    argv = [f"--out={Path(workdir) / t[6:]}" if t.startswith("--out=") else t for t in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(command_lines())
def test_every_command_line_keeps_the_exit_contract(argv):
    with tempfile.TemporaryDirectory() as workdir:
        code, stdout, stderr, caught = run(argv, workdir)
    assert code in (0, 2, 3, 4, 5), argv
    # a warning would reach stderr ahead of the JSON error in a real run
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 0:
        assert stderr == "", argv
        return
    error = json.loads(stderr)["error"]
    assert error["exit_code"] == code, argv
    if code in (2, 3):
        assert stdout == "", argv
