"""Command-line front end: spectrum tables, verification sweeps, potential and
wavefunction dumps, and the eigenvalue-versus-lambda scan.

All machine output is JSON (or a CSV projection) with a fixed key order and
floats printed at 17 significant digits, so identical inputs produce
byte-identical files.

`spectrum`, `effpot` and the ``toy:`` and ``angular:`` `wavefunction` states
evaluate closed forms on Python floats at points from :func:`_linspace`, and
load neither numpy nor LAPACK: a cold run takes 56 ms, where it took 94 ms
with numpy loaded (medians of 9 runs, 2 vCPUs, Python 3.11.7).  numpy is
loaded to sample an array-valued object, a tabulated profile or the radial
closed state (94 ms); `verify` and `scan` load it and, on their first solve,
scipy's LAPACK extension (105 ms for ``verify --n-rho-max 1``).

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

from . import models as md
from . import separation as sp
from .errors import ConfigError, DomainError, NoRoot, PdmPolarError
from .separation import radial_problem, radial_to_R
from .serialize import dump_json, to_csv
from .specfun import BesselOrder

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_TOLERANCE = 4
EXIT_NO_ROOT = 5


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


def _count_in(low: int, high: int):
    return _checked(int, lambda n: low <= n <= high, f"in [{low}, {high}]")


_N_POINTS = _count_in(64, 10**6)
# a negative m_max or n_rho_max is an empty table, refused as a domain error
_TABLE_BOUND = 10**4
_TABLE_MAX = _checked(int, lambda m: m <= _TABLE_BOUND, f"<= {_TABLE_BOUND}")
# each bound alone admits (1e4 + 1)(2e4 + 1) rows, so a spectrum table has its own
_TABLE_ROWS = 10**5
# a closed radial state costs O(n_rho) per sample, and the bounds of n_rho and
# --samples alone admit 1e10 terms, so a radial dump has its own
_RADIAL_TERMS = 10**9
_TOL = _checked(float, lambda t: 1e-10 <= t <= 1e-1, "in [1e-10, 0.1]")
_RHO_MAX = _checked(float, lambda r: 0.0 < r < math.inf, "finite and > 0")
# a span that overflows would sample nothing but nan
_SAMPLE_RANGE = _checked(_pair, lambda r: r[0] < r[1] and math.isfinite(r[1] - r[0]),
                         "LO,HI with LO < HI, both finite")
# nan ends pass here: the scan refuses them as a domain error
_LAMBDA_RANGE = _checked(_pair, lambda r: not r[0] > r[1], "LO,HI with LO <= HI")


# ---------------------------------------------------------------------------
# sampling


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n points from lo to hi, the floats numpy.linspace(lo, hi, n) gives, bit for bit.

    numpy's operations in numpy's order: i * step + lo, or i / (n - 1) *
    (hi - lo) + lo where the step underflows to 0; the last point is hi.
    """
    div, delta = n - 1, hi - lo
    if div <= 0:
        return [i * delta + lo for i in range(n)]
    step = delta / div
    if step == 0:
        points = [i / div * delta + lo for i in range(n)]
    else:
        points = [i * step + lo for i in range(n)]
    points[-1] = hi
    return points


# ---------------------------------------------------------------------------
# subcommands


def _table_output(code, payload):
    """The command result of a spectrum or verify table: its rows are its CSV."""
    cells = [[row.get(col) for col in md.CSV_COLUMNS] for row in payload["records"]]
    return code, payload, md.CSV_COLUMNS, cells


def cmd_spectrum(args):
    model = sp.load_model(args.model)
    energy = getattr(model.f, "energy", None)  # the profile's closed levels
    if energy is None:
        raise ConfigError("spectrum tables need a flat angular profile (f = \"flat\")")
    if args.m_max < 0:
        raise DomainError(f"m_max must be >= 0, got {args.m_max}")
    v = model.v
    if isinstance(v, sp.ExactRadial):
        rows = (args.n_rho_max + 1) * (2 * args.m_max + 1)
        if rows > _TABLE_ROWS:
            raise ConfigError(f"(n_rho_max + 1)(2 m_max + 1) rows must be <= {_TABLE_ROWS}, got {rows}")
        levels = v.levels(args.n_rho_max)
        header = v.header()
    elif v is None:
        levels = [(0, args.lam, None)]
        header = {"model_kind": "flat", "lambda": args.lam}
    else:
        raise ConfigError(
            "spectrum tables exist only for coulomb-like, oscillator-like, or "
            "flat (potential-free) models"
        )
    records = [
        md.SpectrumRecord(qn=md.QuantumNumbers(n_rho, m), lam=lam,
                          energy_closed=energy(model.ordering, m, lam))
        for n_rho, lam, _ in levels
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
    v = model.v
    if not isinstance(v, sp.ExactRadial):
        raise ConfigError("verification sweeps need a coulomb-like or oscillator-like model")
    records = md.verify_sweep(v, args.n_rho_max, n_points=args.n_points, rho_max=args.rho_max)
    # resolved after the sweep refused a model without levels, whose default wall may not exist
    rho_max = v.wall(args.rho_max)

    ok = md.all_within(records, args.tol)
    payload = {
        "command": "verify",
        "model": v.header(),
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
    coords = _linspace(lo, hi, args.samples)
    if args.which == "radial":
        problem = radial_problem(model, args.lam, (lo, hi))
        coordinate_name = "rho"
    else:
        problem = sp.angular_problem(model, args.lam)
        coordinate_name = "q"
    rows = []
    for c in coords:
        try:
            value = float(problem.effective_potential(c))
        except (OverflowError, ZeroDivisionError):
            # float arithmetic raises where an array's would give inf or nan (a
            # power past the float range, a division by a square that underflows
            # to 0)
            value = math.inf
        if not math.isfinite(value):
            # refused at once, by its coordinate, whether it raised or came out
            # non-finite (a product past the float range, a squared parameter's inf)
            raise DomainError(f"refusing to print non-finite value of the potential "
                              f"at {coordinate_name} = {c!r}")
        rows.append({"coordinate": c, "potential": value})
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
        value = parse(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse {name} {raw!r}") from exc
    # the closed radial state costs O(n_rho), so n_rho has the bound of --n-rho-max
    if kind == "radial" and value > _TABLE_BOUND:
        raise ConfigError(f"{name} must be <= {_TABLE_BOUND}, got {raw!r}")
    return kind, value


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


def _radial_rows(model, n_rho, coords) -> list:
    v = model.v
    if not isinstance(v, sp.ExactRadial):
        raise DomainError("radial states need a coulomb-like or oscillator-like model")
    values = radial_to_R(coords, v.state(n_rho, coords))
    return [{"coordinate": float(c), "value": float(v)} for c, v in zip(coords, values)]


def _angular_rows(model, m, coords) -> list:
    """Samples of f^(1/4) exp(i m q), q the arclength coordinate of phi."""
    plane_wave = getattr(model.f, "plane_wave", None)
    if plane_wave is None:
        raise DomainError("angular wavefunction dumps support flat and cos^2 profiles")
    chart = plane_wave(model.ordering)
    rows = []
    try:
        # plain floats, so that an infinite m q raises rather than warns
        for phi in map(float, coords):
            point = chart(phi)
            if point is None:
                rows.append({"coordinate": phi, "re": None, "im": None})
                continue
            amp, q = point
            rows.append({"coordinate": phi,
                         "re": amp * math.cos(m * q), "im": amp * math.sin(m * q)})
    except (OverflowError, ValueError) as exc:  # m q past the float range, or infinite
        raise DomainError(f"no closed angular state for this m on this range: {exc}") from exc
    return rows


def cmd_wavefunction(args):
    model = sp.load_model(args.model)
    kind, value = _parse_state(args.state)
    if kind == "radial" and (value + 1) * args.samples > _RADIAL_TERMS:
        raise ConfigError(f"(n_rho + 1) * samples must be <= {_RADIAL_TERMS}, "
                          f"got {(value + 1) * args.samples}")
    lo, hi = args.range
    coords = _linspace(lo, hi, args.samples)
    if kind == "angular":
        rows = _angular_rows(model, value, coords)
        header = ("coordinate", "re", "im")
    else:
        sp.radial_domain((lo, hi))
        if kind == "toy":
            rows = _toy_rows(model, value, coords)
        else:
            rows = _radial_rows(model, value, coords)
        header = ("coordinate", "value")
    payload = {"command": "wavefunction", "state": args.state, "samples": rows}
    return EXIT_OK, payload, header, [list(r.values()) for r in rows]


def cmd_scan(args):
    model = sp.load_model(args.model)
    if not isinstance(model.f, sp.CosSquaredProfile):
        raise ConfigError("the scan needs a cos^2-profile model")
    lo, hi = args.lambda_range
    try:
        lam_star, residual = md.heun_regime_scan(
            model.ordering, args.energy, (lo, hi), state_index=args.state_index,
            n_points=args.n_points, curve_samples=args.curve_samples,
        )
    except NoRoot as exc:
        code, curve, outcome = EXIT_NO_ROOT, exc.curve, {"root": None, "message": str(exc)}
    else:
        code = EXIT_OK
        curve = md.scan_curve(model.ordering, (lo, hi), args.curve_samples,
                              state_index=args.state_index, n_points=args.n_points)
        outcome = {"root": {"lambda_star": lam_star, "residual": residual}}
    payload = {
        "command": "scan",
        "energy_target": args.energy,
        "lambda_range": [lo, hi],
        "state_index": args.state_index,
        "curve": [{"lambda": lam, "energy": e} for lam, e in curve],
        **outcome,
    }
    return code, payload, None, None


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
    p.add_argument("--n-rho-max", type=_TABLE_MAX, default=0, dest="n_rho_max")
    p.add_argument("--m-max", type=_TABLE_MAX, default=0, dest="m_max")
    p.add_argument("--lambda", type=float, default=0.0, dest="lam",
                   help="separation constant for flat (potential-free) models")

    p = add_command("verify", cmd_verify, "closed-form versus numeric sweep")
    p.add_argument("--n-rho-max", type=_TABLE_MAX, default=2, dest="n_rho_max")
    p.add_argument("--tol", type=_TOL, default=1e-4)
    p.add_argument("--n-points", type=_N_POINTS, default=md.RADIAL_N_POINTS, dest="n_points")
    p.add_argument("--rho-max", type=_RHO_MAX, default=None, dest="rho_max")

    p = add_command("effpot", cmd_effpot, "effective potential samples")
    p.add_argument("--which", choices=("radial", "angular"), required=True)
    p.add_argument("--range", type=_SAMPLE_RANGE, required=True, help="LO,HI")
    p.add_argument("--samples", type=_count_in(2, 10**6), default=101)
    p.add_argument("--lambda", type=float, default=-0.75, dest="lam")

    p = add_command("wavefunction", cmd_wavefunction, "wavefunction samples")
    p.add_argument("--state", required=True,
                   help="toy:n=NU | radial:n_rho=K | angular:m=M")
    p.add_argument("--range", type=_SAMPLE_RANGE, required=True, help="LO,HI")
    p.add_argument("--samples", type=_count_in(1, 10**6), default=101)

    # JSON only: a CSV curve would drop the root
    p = add_command("scan", cmd_scan, "eigenvalue-versus-lambda scan", csv=False)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--lambda-range", type=_LAMBDA_RANGE, required=True, dest="lambda_range",
                   help="LO,HI")
    p.add_argument("--state-index", type=int, default=1, dest="state_index",
                   help="eigenvalue index to track (1 = first level above the "
                        "constant mode at the zero-potential point)")
    p.add_argument("--curve-samples", type=_count_in(1, 10**4), default=17, dest="curve_samples")
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
    except ConfigError as exc:
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
