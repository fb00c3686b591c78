"""Command-line front end: spectrum tables, verification sweeps, potential and
wavefunction dumps, and the eigenvalue-versus-lambda scan.

All machine output is JSON (or a CSV projection) with a fixed key order and
floats printed at 17 significant digits, so identical inputs produce
byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 domain error, 4 verification
tolerance exceeded, 5 no root bracketed by a scan.  Every non-zero exit, a
malformed command line included, leaves one JSON error object on stderr;
exits 4 and 5 still print their report.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

import numpy as np

from . import models as md
from . import separation as sp
from .ambiguity import check_constraint27
from .eigensolve import DIRICHLET, Grid, discretize, eigen_lowest
from .errors import ConfigError, ConstraintViolation, DomainError, NoRoot, PdmPolarError
from .separation import radial_problem, radial_to_R
from .serialize import dump_json, to_csv
from .specfun import BesselOrder

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_TOLERANCE = 4
EXIT_NO_ROOT = 5

_CONFIG_ERRORS = (ConfigError, ConstraintViolation)


# ---------------------------------------------------------------------------
# option types: each bound is checked where its option is parsed


def _checked(convert, ok, rule: str):
    """An argparse type that converts a token and requires ``ok(value)``."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


def _pair(text: str) -> tuple[float, float]:
    lo, hi = text.split(",")
    return float(lo), float(hi)


def _at_least(low: int):
    return _checked(int, lambda n: n >= low, f">= {low}")


_N_POINTS = _checked(int, lambda n: 64 <= n <= 10**6, "in [64, 1000000]")
_TOL = _checked(float, lambda t: 1e-10 <= t <= 1e-1, "in [1e-10, 0.1]")
_RHO_MAX = _checked(float, lambda r: 0.0 < r < math.inf, "finite and > 0")
# a span that overflows would sample nothing but nan
_SAMPLE_RANGE = _checked(_pair, lambda r: r[0] < r[1] and math.isfinite(r[1] - r[0]),
                         "LO,HI with LO < HI, both finite")
# nan ends pass here: the scan refuses them as a domain error
_LAMBDA_RANGE = _checked(_pair, lambda r: not r[0] > r[1], "LO,HI with LO <= HI")


# ---------------------------------------------------------------------------
# subcommands


def _table_output(code, payload):
    """The command result of a spectrum or verify table: its rows are its CSV."""
    cells = [[row.get(col) for col in md.CSV_COLUMNS] for row in payload["records"]]
    return code, payload, md.CSV_COLUMNS, cells


def cmd_spectrum(args):
    model = sp.load_model(args.model)
    if not isinstance(model.f, sp.FlatProfile):
        raise ConfigError("spectrum tables need a flat angular profile (f = \"flat\")")
    if args.m_max < 0:
        raise DomainError(f"m_max must be >= 0, got {args.m_max}")
    family = md.RADIAL_FAMILIES.get(type(model.v))
    if family is not None:
        params = family.params(model.v)
        levels = enumerate(family.levels(params, args.n_rho_max))
        header = family.header(params)
    elif model.v is None:
        levels = [(0, args.lam)]
        header = {"model_kind": "flat", "lambda": args.lam}
    else:
        raise ConfigError(
            "spectrum tables exist only for coulomb-like, oscillator-like, or "
            "flat (potential-free) models"
        )
    records = [
        md.SpectrumRecord(qn=md.QuantumNumbers(n_rho, m), lam=lam,
                          energy_closed=md.flat_energy(model.ordering, m, lam))
        for n_rho, lam in levels
        for m in range(-args.m_max, args.m_max + 1)
    ]
    payload = {
        "command": "spectrum",
        "model": header,
        "ordering": model.ordering_token,
        "records": [md.record_to_row(r) for r in records],
    }
    return _table_output(EXIT_OK, payload)


def cmd_verify(args):
    model = sp.load_model(args.model)
    family = md.RADIAL_FAMILIES.get(type(model.v))
    if family is None:
        raise ConfigError("verification sweeps need a coulomb-like or oscillator-like model")
    params = family.params(model.v)
    rho_max = family.wall(params, args.rho_max)
    records = md.verify_family(family, params, args.n_rho_max,
                               n_points=args.n_points, rho_max=rho_max)

    ok = md.all_within(records, args.tol)
    payload = {
        "command": "verify",
        "model": family.header(params),
        "ordering": model.ordering_token,
        "tol": args.tol,
        "n_points": args.n_points,
        "rho_max": rho_max,
        "records": [md.record_to_row(r) for r in records],
        "all_within_tol": ok,
    }
    return _table_output(EXIT_OK if ok else EXIT_TOLERANCE, payload)


def cmd_effpot(args):
    model = sp.load_model(args.model)
    lo, hi = args.range
    coords = np.linspace(lo, hi, args.samples)
    if args.which == "radial":
        if lo <= 0.0:
            raise ConfigError("radial sampling needs a range with LO > 0")
        problem = radial_problem(model, args.lam, (lo, hi))
        coordinate_name = "rho"
    else:
        problem = sp.angular_problem(model, args.lam)
        coordinate_name = "q"
    # a non-finite sample is refused when it is printed, so numpy need not
    # warn about it first
    with np.errstate(all="ignore"):
        values = np.asarray(problem.effective_potential(coords), dtype=float)
    rows = [{"coordinate": float(c), "potential": float(v)} for c, v in zip(coords, values)]
    payload = {
        "command": "effpot",
        "which": args.which,
        "lambda": args.lam,
        "coordinate": coordinate_name,
        "samples": rows,
    }
    return EXIT_OK, payload, (coordinate_name, "potential"), [list(r.values()) for r in rows]


# selector (kind, key) -> parser of its value, and the value's name in errors
_STATE_KEYS = {
    ("toy", "n"): (Fraction, "toy order"),
    ("radial", "n_rho"): (int, "n_rho"),
    ("angular", "m"): (int, "m"),
}


def _parse_state(text: str):
    head, _, tail = text.partition(":")
    key, _, raw = tail.partition("=")
    kind = head.strip().lower()
    if (kind, key.strip()) not in _STATE_KEYS:
        raise DomainError(
            f"unknown state selector {text!r}; expected toy:n=NU, radial:n_rho=K, or angular:m=M"
        )
    parse, name = _STATE_KEYS[kind, key.strip()]
    raw = raw.strip()
    try:
        return kind, parse(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse {name} {raw!r}") from exc


def _toy_rows(model, order_fraction, coords) -> list:
    if not isinstance(model.v, sp.PowerWell) or model.v.v0 != 1.0 or model.v.k != 1:
        raise DomainError("the Bessel closed form needs the power well with v0 = 1, k = 1")
    try:
        order = BesselOrder.from_value(order_fraction)
        return [
            {"coordinate": float(r), "value": md.toy_radial_solution(order, r)}
            for r in coords
        ]
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"no Bessel closed form for order {order_fraction}: {exc}") from exc


def _numeric_radial_rows(model, n_rho, coords, n_points, rho_max) -> list:
    family = md.RADIAL_FAMILIES.get(type(model.v))
    if family is None:
        raise DomainError("numeric radial states need a coulomb-like or oscillator-like model")
    params = family.params(model.v)
    potential = family.operator(*params, family.lam(*params, n_rho) + 1.0)
    # the state is solved once, at spacing h/2 (2 n_points + 1 nodes): the grid
    # a Richardson step reads its eigenvectors from
    grid = Grid(0.0, family.wall(params, rho_max), n_points, DIRICHLET).refined()
    if n_rho >= grid.n_points // 4:
        raise DomainError(f"{grid.n_points} grid points resolve n_rho < {grid.n_points // 4}, "
                          f"got {n_rho}")
    result = eigen_lowest(discretize(potential, grid, prefactor=1.0), n_rho + 1)
    u = result.eigenvectors[:, n_rho]
    rho = grid.points
    # fix the overall sign so the first antinode is positive
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
    r_values = radial_to_R(rho, u)
    sampled = np.interp(coords, rho, r_values)
    return [{"coordinate": float(c_), "value": float(v)} for c_, v in zip(coords, sampled)]


def _angular_rows(model, m, coords) -> list:
    if isinstance(model.f, sp.FlatProfile):
        rows = []
        for phi in coords:
            value = complex(math.cos(m * phi), math.sin(m * phi))
            rows.append({"coordinate": float(phi), "re": value.real, "im": value.imag})
        return rows
    if isinstance(model.f, sp.CosSquaredProfile):
        if not check_constraint27(model.ordering):
            raise DomainError(
                "the closed angular form of the cos^2 model exists only for "
                "orderings satisfying the zero-potential gate"
            )
        rows = []
        # sqrt(cos phi) leaves the real domain for cos phi < 0; those samples
        # are emitted as nulls rather than guessing a branch
        floor = math.sqrt(sp.MASS_EPS)
        for phi in coords:
            c = math.cos(phi)
            if c <= floor:
                rows.append({"coordinate": float(phi), "re": None, "im": None})
                continue
            q = math.sin(phi)
            amp = math.sqrt(c)
            rows.append(
                {
                    "coordinate": float(phi),
                    "re": amp * math.cos(m * q),
                    "im": amp * math.sin(m * q),
                }
            )
        return rows
    raise DomainError("angular wavefunction dumps support flat and cos^2 profiles")


def cmd_wavefunction(args):
    model = sp.load_model(args.model)
    kind, value = _parse_state(args.state)
    lo, hi = args.range
    coords = np.linspace(lo, hi, args.samples)
    if kind == "angular":
        rows = _angular_rows(model, value, coords)
        header = ("coordinate", "re", "im")
    else:
        if lo <= 0.0:
            raise DomainError("radial samples need a range with LO > 0")
        if kind == "toy":
            rows = _toy_rows(model, value, coords)
        else:
            rows = _numeric_radial_rows(model, value, coords, args.n_points, args.rho_max)
        header = ("coordinate", "value")
    payload = {"command": "wavefunction", "state": args.state, "samples": rows}
    return EXIT_OK, payload, header, [list(r.values()) for r in rows]


def cmd_scan(args):
    model = sp.load_model(args.model)
    if not isinstance(model.f, sp.CosSquaredProfile):
        raise ConfigError("the scan needs a cos^2-profile model")
    lo, hi = args.lambda_range
    no_root = None
    try:
        lam_star, residual = md.heun_regime_scan(
            model.ordering, args.energy, (lo, hi), state_index=args.state_index,
            n_points=args.n_points, curve_samples=args.curve_samples,
        )
    except NoRoot as exc:
        no_root = exc
    # an unbracketed range has already sampled this very curve; a degenerate
    # one carries only its single point
    if no_root is not None and len(no_root.curve) == args.curve_samples:
        curve = no_root.curve
    else:
        curve = md.scan_curve(model.ordering, (lo, hi), args.curve_samples,
                              state_index=args.state_index, n_points=args.n_points)
    payload = {
        "command": "scan",
        "energy_target": args.energy,
        "lambda_range": [lo, hi],
        "state_index": args.state_index,
        "curve": [{"lambda": lam, "energy": e} for lam, e in curve],
    }
    if no_root is not None:
        payload["root"] = None
        payload["message"] = str(no_root)
        return EXIT_NO_ROOT, payload, None, None
    payload["root"] = {"lambda_star": lam_star, "residual": residual}
    return EXIT_OK, payload, None, None


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pdm-polar",
        description="Separable position-dependent-mass models in plane polar coordinates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, summary, csv=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--model", required=True, help="model description JSON file")
        if csv:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")
        p.set_defaults(func=func)
        return p

    p = add_command("spectrum", cmd_spectrum, "closed-form spectrum table")
    p.add_argument("--n-rho-max", type=int, default=0, dest="n_rho_max")
    p.add_argument("--m-max", type=int, default=0, dest="m_max")
    p.add_argument("--lambda", type=float, default=0.0, dest="lam",
                   help="separation constant for flat (potential-free) models")

    p = add_command("verify", cmd_verify, "closed-form versus numeric sweep")
    p.add_argument("--n-rho-max", type=int, default=2, dest="n_rho_max")
    p.add_argument("--tol", type=_TOL, default=1e-4)
    p.add_argument("--n-points", type=_N_POINTS, default=md.RADIAL_N_POINTS, dest="n_points")
    p.add_argument("--rho-max", type=_RHO_MAX, default=None, dest="rho_max")

    p = add_command("effpot", cmd_effpot, "effective potential samples")
    p.add_argument("--which", choices=("radial", "angular"), required=True)
    p.add_argument("--range", type=_SAMPLE_RANGE, required=True, help="LO,HI")
    p.add_argument("--samples", type=_at_least(2), default=101)
    p.add_argument("--lambda", type=float, default=-0.75, dest="lam")

    p = add_command("wavefunction", cmd_wavefunction, "wavefunction samples")
    p.add_argument("--state", required=True,
                   help="toy:n=NU | radial:n_rho=K | angular:m=M")
    p.add_argument("--range", type=_SAMPLE_RANGE, required=True, help="LO,HI")
    p.add_argument("--samples", type=_at_least(1), default=101)
    p.add_argument("--n-points", type=_N_POINTS, default=md.RADIAL_N_POINTS, dest="n_points")
    p.add_argument("--rho-max", type=_RHO_MAX, default=None, dest="rho_max")

    # JSON only: a CSV curve would drop the root
    p = add_command("scan", cmd_scan, "eigenvalue-versus-lambda scan", csv=False)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--lambda-range", type=_LAMBDA_RANGE, required=True, dest="lambda_range",
                   help="LO,HI")
    p.add_argument("--state-index", type=int, default=1, dest="state_index",
                   help="eigenvalue index to track (1 = first level above the "
                        "constant mode at the zero-potential point)")
    p.add_argument("--curve-samples", type=_at_least(1), default=17, dest="curve_samples")
    p.add_argument("--n-points", type=_N_POINTS, default=md.SCAN_N_POINTS, dest="n_points")
    return parser


def _write(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out}: {exc}") from exc


_ERROR_CODES = {EXIT_CONFIG: "config", EXIT_DOMAIN: "domain",
                EXIT_TOLERANCE: "tolerance", EXIT_NO_ROOT: "no-root"}
# the two non-zero exits that still print their report
_REPORT_MESSAGES = {
    EXIT_TOLERANCE: "a level misses its closed form by more than the tolerance; see the report",
    EXIT_NO_ROOT: "no root bracketed in the lambda range; see the reported curve",
}


def main(argv=None) -> int:
    """Run one command.  Its output goes to stdout or --out; every non-zero
    exit also leaves one JSON error object on stderr."""
    try:
        args = build_parser().parse_args(argv)
        code, payload, header, rows = args.func(args)
        if getattr(args, "format", "json") == "csv":
            text = to_csv(header, rows)
        else:
            text = dump_json(payload) + "\n"
        _write(text, args.out)
        message = _REPORT_MESSAGES.get(code)
    except _CONFIG_ERRORS as exc:
        code, message = EXIT_CONFIG, str(exc)
    except PdmPolarError as exc:  # every other package error: a domain error
        code, message = EXIT_DOMAIN, str(exc)
    if code != EXIT_OK:
        error = {"code": _ERROR_CODES[code], "exit_code": code, "message": message}
        sys.stderr.write(dump_json({"error": error}) + "\n")
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
