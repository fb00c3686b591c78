"""Command-line front end: spectrum tables, verification sweeps, potential and
wavefunction dumps, and the eigenvalue-versus-lambda scan.

All machine output is JSON (or a CSV projection) with a fixed key order and
floats printed at 17 significant digits, so identical inputs produce
byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 domain error, 4 verification
tolerance exceeded, 5 no root bracketed by a scan.  Errors are reported as a
JSON object on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import models as md
from . import separation as sp
from .ambiguity import check_constraint27
from .eigensolve import DIRICHLET, Grid, discretize, refine
from .errors import (
    ConfigError,
    ConstraintViolation,
    ConvergenceFailure,
    DomainError,
    MassVanishes,
    NoRoot,
    PoleError,
    PotentialSingular,
    UnsupportedProfile,
)
from .separation import radial_problem, radial_to_R
from .specfun import BesselOrder

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_TOLERANCE = 4
EXIT_NO_ROOT = 5

N_POINTS_BOUNDS = (64, 10**6)
TOL_BOUNDS = (1e-10, 1e-1)

_DOMAIN_ERRORS = (
    DomainError,
    MassVanishes,
    UnsupportedProfile,
    PotentialSingular,
    PoleError,
    ConvergenceFailure,
)
_CONFIG_ERRORS = (ConfigError, ConstraintViolation)


# ---------------------------------------------------------------------------
# deterministic JSON


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    text = format(x, ".17g")
    # keep the token a valid JSON number
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def dump_json(obj, indent: int = 0) -> str:
    """Serialize with insertion-ordered keys and 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dump_json(item, indent + 1) for item in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + item for item in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}"{key}": {dump_json(value, indent + 1)}' for key, value in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated per-invocation options shared by the subcommands."""

    command: str
    model_path: str
    output_format: str = "json"
    out: str | None = None
    n_points: int | None = None
    rho_max: float | None = None
    tol: float | None = None

    def __post_init__(self):
        if self.n_points is not None and not N_POINTS_BOUNDS[0] <= self.n_points <= N_POINTS_BOUNDS[1]:
            raise ConfigError(f"n_points must be in {N_POINTS_BOUNDS}, got {self.n_points}")
        if self.tol is not None and not TOL_BOUNDS[0] <= self.tol <= TOL_BOUNDS[1]:
            raise ConfigError(f"tol must be in {TOL_BOUNDS}, got {self.tol}")
        if self.rho_max is not None and not (math.isfinite(self.rho_max) and self.rho_max > 0):
            raise ConfigError(f"rho_max must be finite and > 0, got {self.rho_max}")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"unknown output format {self.output_format!r}")


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"range must be LO,HI, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"cannot parse range {text!r}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> int:
    cfg = RunConfig("spectrum", args.model, args.format, args.out)
    model = sp.load_model(args.model)
    if not isinstance(model.f, sp.FlatProfile):
        raise ConfigError("spectrum tables need a flat angular profile (f = \"flat\")")
    if args.m_max < 0:
        raise DomainError(f"m_max must be >= 0, got {args.m_max}")
    ordering = model.ordering
    family = md.RADIAL_FAMILIES.get(type(model.v))
    records = []
    if family is not None:
        if args.n_rho_max < 0:
            raise DomainError(f"n_rho_max must be >= 0, got {args.n_rho_max}")
        params = family.params(model.v)
        for n_rho in range(args.n_rho_max + 1):
            lam = family.lam(*params, n_rho)
            for m in range(-args.m_max, args.m_max + 1):
                qn = md.QuantumNumbers(n_rho, m)
                records.append(
                    md.SpectrumRecord(
                        qn=qn,
                        lam=lam,
                        energy_closed=family.energy(ordering, *params, qn),
                        provenance="closed-form",
                    )
                )
        header = family.header(params)
    elif model.v is None:
        lam = args.lam
        for m in range(-args.m_max, args.m_max + 1):
            qn = md.QuantumNumbers(0, m)
            records.append(
                md.SpectrumRecord(
                    qn=qn,
                    lam=lam,
                    energy_closed=md.flat_energy(ordering, m, lam),
                    provenance="closed-form",
                )
            )
        header = {"model_kind": "flat", "lambda": lam}
    else:
        raise ConfigError(
            "spectrum tables exist only for coulomb-like, oscillator-like, or "
            "flat (potential-free) models"
        )

    records.sort(key=lambda r: (r.qn.n_rho, r.qn.m, r.lam))
    if cfg.output_format == "csv":
        _emit(md.records_to_csv(records), cfg.out)
    else:
        payload = {
            "command": "spectrum",
            "model": header,
            "ordering": model.ordering_token,
            "records": [md.record_to_row(r) for r in records],
        }
        _emit(dump_json(payload) + "\n", cfg.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = RunConfig("verify", args.model, args.format, args.out,
                    n_points=args.n_points, rho_max=args.rho_max, tol=args.tol)
    model = sp.load_model(args.model)
    n_points = cfg.n_points or 4000
    tol = cfg.tol if cfg.tol is not None else 1e-4
    family = md.RADIAL_FAMILIES.get(type(model.v))
    if family is None:
        raise ConfigError("verification sweeps need a coulomb-like or oscillator-like model")
    params = family.params(model.v)
    rho_max = family.wall(params, cfg.rho_max)
    records = md.verify_family(family, params, args.n_rho_max,
                               n_points=n_points, rho_max=rho_max)

    ok = md.all_within(records, tol)
    payload = {
        "command": "verify",
        "model": family.header(params),
        "ordering": model.ordering_token,
        "tol": tol,
        "n_points": n_points,
        "rho_max": rho_max,
        "records": [md.record_to_row(r) for r in records],
        "all_within_tol": ok,
    }
    if cfg.output_format == "csv":
        _emit(md.records_to_csv(records), cfg.out)
    else:
        _emit(dump_json(payload) + "\n", cfg.out)
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_effpot(args) -> int:
    cfg = RunConfig("effpot", args.model, args.format, args.out)
    model = sp.load_model(args.model)
    lo, hi = _parse_range(args.range)
    if not lo < hi:
        raise ConfigError(f"range must satisfy LO < HI, got {args.range!r}")
    if args.samples < 2:
        raise ConfigError(f"need at least 2 samples, got {args.samples}")
    coords = np.linspace(lo, hi, args.samples)
    if args.which == "radial":
        if lo <= 0.0:
            raise ConfigError("radial sampling needs a range with LO > 0")
        problem = radial_problem(model, args.lam, (lo, hi))
        values = problem.effective_potential(coords)
        coordinate_name = "rho"
    else:
        problem = sp.angular_problem(model, args.lam)
        values = problem.effective_potential(coords)
        coordinate_name = "q"
    values = np.asarray(values, dtype=float)
    rows = [{"coordinate": float(c), "potential": float(v)} for c, v in zip(coords, values)]
    if cfg.output_format == "csv":
        lines = [f"{coordinate_name},potential"]
        lines += [f"{format(r['coordinate'], '.17g')},{format(r['potential'], '.17g')}" for r in rows]
        _emit("\n".join(lines) + "\n", cfg.out)
    else:
        payload = {
            "command": "effpot",
            "which": args.which,
            "lambda": args.lam,
            "coordinate": coordinate_name,
            "samples": rows,
        }
        _emit(dump_json(payload) + "\n", cfg.out)
    return EXIT_OK


def _parse_state(text: str):
    head, _, tail = text.partition(":")
    head = head.strip().lower()
    key, _, raw = tail.partition("=")
    key = key.strip()
    raw = raw.strip()
    if head == "toy" and key == "n":
        try:
            return ("toy", Fraction(raw))
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse toy order {raw!r}") from exc
    if head == "radial" and key == "n_rho":
        try:
            return ("radial", int(raw))
        except ValueError as exc:
            raise DomainError(f"cannot parse n_rho {raw!r}") from exc
    if head == "angular" and key == "m":
        try:
            return ("angular", int(raw))
        except ValueError as exc:
            raise DomainError(f"cannot parse m {raw!r}") from exc
    raise DomainError(
        f"unknown state selector {text!r}; expected toy:n=NU, radial:n_rho=K, or angular:m=M"
    )


def _toy_rows(model, order_fraction, coords) -> list:
    if not isinstance(model.v, sp.PowerWell) or model.v.v0 != 1.0 or model.v.k != 1:
        raise DomainError("the Bessel closed form needs the power well with v0 = 1, k = 1")
    order = BesselOrder.from_value(order_fraction)
    return [
        {"coordinate": float(r), "value": md.toy_radial_solution(order, r)}
        for r in coords
    ]


def _numeric_radial_rows(model, n_rho, coords, n_points, rho_max) -> list:
    family = md.RADIAL_FAMILIES.get(type(model.v))
    if family is None:
        raise DomainError("numeric radial states need a coulomb-like or oscillator-like model")
    params = family.params(model.v)
    potential = family.operator(*params, family.lam(*params, n_rho) + 1.0)
    grid = Grid(0.0, family.wall(params, rho_max), n_points or 4000, DIRICHLET)
    result = refine(lambda g: discretize(potential, g, prefactor=1.0), grid, n_rho + 1)
    u = result.eigenvectors[:, n_rho]
    rho = result.grid.points
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


def cmd_wavefunction(args) -> int:
    cfg = RunConfig("wavefunction", args.model, args.format, args.out,
                    n_points=args.n_points, rho_max=args.rho_max)
    model = sp.load_model(args.model)
    kind, value = _parse_state(args.state)
    lo, hi = _parse_range(args.range)
    if not lo < hi:
        raise ConfigError(f"range must satisfy LO < HI, got {args.range!r}")
    if args.samples < 1:
        raise ConfigError(f"need at least 1 sample, got {args.samples}")
    coords = np.linspace(lo, hi, args.samples)
    if kind == "toy":
        if lo <= 0.0:
            raise DomainError("radial samples need a range with LO > 0")
        rows = _toy_rows(model, value, coords)
        complex_rows = False
    elif kind == "radial":
        if lo <= 0.0:
            raise DomainError("radial samples need a range with LO > 0")
        rows = _numeric_radial_rows(model, value, coords, cfg.n_points, cfg.rho_max)
        complex_rows = False
    else:
        rows = _angular_rows(model, value, coords)
        complex_rows = True

    if cfg.output_format == "csv":
        if complex_rows:
            lines = ["coordinate,re,im"]
            for r in rows:
                re = "" if r["re"] is None else format(r["re"], ".17g")
                im = "" if r["im"] is None else format(r["im"], ".17g")
                lines.append(f"{format(r['coordinate'], '.17g')},{re},{im}")
        else:
            lines = ["coordinate,value"]
            lines += [f"{format(r['coordinate'], '.17g')},{format(r['value'], '.17g')}" for r in rows]
        _emit("\n".join(lines) + "\n", cfg.out)
    else:
        payload = {"command": "wavefunction", "state": args.state, "samples": rows}
        _emit(dump_json(payload) + "\n", cfg.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = RunConfig("scan", args.model, args.format, args.out, n_points=args.n_points)
    model = sp.load_model(args.model)
    if not isinstance(model.f, sp.CosSquaredProfile):
        raise ConfigError("the scan needs a cos^2-profile model")
    lo, hi = _parse_range(args.lambda_range)
    if lo > hi:
        raise ConfigError(f"lambda range is empty: {args.lambda_range!r}")
    if args.curve_samples < 1:
        raise ConfigError(f"need at least 1 curve sample, got {args.curve_samples}")
    n_points = cfg.n_points or 2050
    no_root = None
    try:
        lam_star, residual = md.heun_regime_scan(
            model.ordering, args.energy, (lo, hi), state_index=args.state_index,
            n_points=n_points, curve_samples=args.curve_samples,
        )
    except NoRoot as exc:
        no_root = exc
    # an unbracketed range has already sampled this very curve; a degenerate
    # one carries only its single point
    if no_root is not None and len(no_root.curve) == args.curve_samples:
        curve = no_root.curve
    else:
        curve = md.scan_curve(model.ordering, (lo, hi), args.curve_samples,
                              state_index=args.state_index, n_points=n_points)
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
        _emit(dump_json(payload) + "\n", cfg.out)
        return EXIT_NO_ROOT
    payload["root"] = {"lambda_star": lam_star, "residual": residual}
    _emit(dump_json(payload) + "\n", cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdm-polar",
        description="Separable position-dependent-mass models in plane polar coordinates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", required=True, help="model description JSON file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    p = sub.add_parser("spectrum", help="closed-form spectrum table")
    add_common(p)
    p.add_argument("--n-rho-max", type=int, default=0, dest="n_rho_max")
    p.add_argument("--m-max", type=int, default=0, dest="m_max")
    p.add_argument("--lambda", type=float, default=0.0, dest="lam",
                   help="separation constant for flat (potential-free) models")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="closed-form versus numeric sweep")
    add_common(p)
    p.add_argument("--n-rho-max", type=int, default=2, dest="n_rho_max")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--n-points", type=int, default=None, dest="n_points")
    p.add_argument("--rho-max", type=float, default=None, dest="rho_max")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("effpot", help="effective potential samples")
    add_common(p)
    p.add_argument("--which", choices=("radial", "angular"), required=True)
    p.add_argument("--range", required=True, help="LO,HI")
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--lambda", type=float, default=-0.75, dest="lam")
    p.set_defaults(func=cmd_effpot)

    p = sub.add_parser("wavefunction", help="wavefunction samples")
    add_common(p)
    p.add_argument("--state", required=True,
                   help="toy:n=NU | radial:n_rho=K | angular:m=M")
    p.add_argument("--range", required=True, help="LO,HI")
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--n-points", type=int, default=None, dest="n_points")
    p.add_argument("--rho-max", type=float, default=None, dest="rho_max")
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("scan", help="eigenvalue-versus-lambda scan")
    add_common(p)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--lambda-range", required=True, dest="lambda_range", help="LO,HI")
    p.add_argument("--state-index", type=int, default=1, dest="state_index",
                   help="eigenvalue index to track (1 = first level above the "
                        "constant mode at the zero-potential point)")
    p.add_argument("--curve-samples", type=int, default=17, dest="curve_samples")
    p.add_argument("--n-points", type=int, default=None, dest="n_points")
    p.set_defaults(func=cmd_scan)
    return parser


def _error_payload(code: int, name: str, exc: Exception) -> str:
    return dump_json({"error": {"code": name, "exit_code": code, "message": str(exc)}}) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        sys.stderr.write(_error_payload(EXIT_CONFIG, "config", exc))
        return EXIT_CONFIG
    except _DOMAIN_ERRORS as exc:
        sys.stderr.write(_error_payload(EXIT_DOMAIN, "domain", exc))
        return EXIT_DOMAIN
    except NoRoot as exc:  # scans emit their own payload; this is a fallback
        sys.stderr.write(_error_payload(EXIT_NO_ROOT, "no-root", exc))
        return EXIT_NO_ROOT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
