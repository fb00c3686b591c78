"""Per-layer metrics of a traced run, and the accuracy-versus-cost table.

Span-derived metrics are per traced op (``calls``, ``self_ms``,
``bytes_computed``, ``w_eff.calls``), per call (``ms``, ``rows``, ``_us``)
or per unit of work named in the metric (per root, per level, per
recomposed point).  Self time is a span's duration minus the part of its
interval that its child spans cover; children may run on pool threads.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

CLI_COMMANDS = ("spectrum", "effpot", "wavefunction", "verify", "scan")
ACCURACY_SIZES = (4000, 20000, 100000)

# every per-layer metric the traced run prints, with its unit
PER_LAYER = {
    "cli.cold_import_ms": "ms",
    "cli.import_share": "1",
    "cli.scipy_loaded_commands": "count",
    **{f"cli.{c}.p50_ms": "ms" for c in CLI_COMMANDS},
    "models.scan_level.calls_per_root": "count",
    "models.heun_regime_scan.ms": "ms",
    "models.verify.parallelism": "1",
    "models.verify.ms": "ms",
    "models.scan_curve.ms": "ms",
    "eigensolve.eigen_lowest.calls": "count/op",
    "eigensolve.eigen_lowest.self_ms": "ms/op",
    "eigensolve.eigen_lowest.rows": "rows",
    "eigensolve.pairs_per_level": "1",
    "eigensolve.bytes_computed": "B/op",
    "eigensolve.discretize.calls": "count/op",
    "eigensolve.discretize.self_ms": "ms/op",
    "eigensolve.refine.calls": "count/op",
    "eigensolve.refine.self_ms": "ms/op",
    **{f"eigensolve.refine.rel_err.n{n}": "1" for n in ACCURACY_SIZES},
    **{f"eigensolve.refine.ms.n{n}": "ms" for n in ACCURACY_SIZES},
    "specfun.bessel_j.half_us": "us",
    "specfun.bessel_j.int_us": "us",
    "specfun.bessel_j.calls": "count/op",
    "separation.profile_value.calls": "count",
    "separation.angular_wavefunction_recompose.ms_per_point": "ms",
    "separation.w_eff.calls": "count/op",
    "separation.angular_problem.ms": "ms",
    "separation.load_model.ms": "ms",
    "trace.overhead_pct": "%",
}

LEVEL_SPANS = ("models.coulomb_numeric_level", "models.oscillator_numeric_level", "models.scan_level")
VERIFY_SPANS = ("models.verify_coulomb", "models.verify_oscillator")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs", "error")

    def __init__(self, row):
        (self.id, self.name, self.start, self.end, self.parent, self.op, self.attrs, self.error) = row

    @property
    def dur(self) -> float:
        return self.end - self.start


def _covered(start, end, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, cursor = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def compute(spans, counts, n_ops, cli_reports, panel_cli_reports, accuracy, overhead_pct) -> dict:
    """All per-layer metrics as {name: value}; NaN marks a layer nothing called."""
    spans = [Span(s) for s in spans]
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def self_time(s):
        return s.dur - _covered(s.start, s.end, [(c.start, c.end) for c in children[s.id]])

    def has_ancestor(s, names):
        return any(a.name in names for a in _ancestors(s, by_id))

    def subtree(s):
        out, todo = [], [s]
        while todo:
            cur = todo.pop()
            out.append(cur)
            todo.extend(children[cur.id])
        return out

    m = {}
    per_op = max(n_ops, 1)
    eig = by_name["eigensolve.eigen_lowest"]
    m["eigensolve.eigen_lowest.calls"] = len(eig) / per_op
    m["eigensolve.eigen_lowest.self_ms"] = sum(self_time(s) for s in eig) * 1e3 / per_op
    m["eigensolve.eigen_lowest.rows"] = _mean(s.attrs["rows"] for s in eig)
    pairs = sum(s.attrs["k"] for s in eig if has_ancestor(s, LEVEL_SPANS))
    levels = sum(len(by_name[n]) for n in LEVEL_SPANS)
    m["eigensolve.pairs_per_level"] = pairs / levels if levels else math.nan
    m["eigensolve.bytes_computed"] = sum(8 * (3 * s.attrs["rows"] + s.attrs["rows"] * s.attrs["k"])
                                         for s in eig) / per_op
    for name in ("discretize", "refine"):
        group = by_name[f"eigensolve.{name}"]
        m[f"eigensolve.{name}.calls"] = len(group) / per_op
        m[f"eigensolve.{name}.self_ms"] = sum(self_time(s) for s in group) * 1e3 / per_op

    heun = by_name["models.heun_regime_scan"]
    roots = {s.id for s in heun if s.error is None}
    in_root = sum(1 for s in by_name["models.scan_level"]
                  if any(a.id in roots for a in _ancestors(s, by_id)))
    m["models.scan_level.calls_per_root"] = in_root / len(roots) if roots else math.nan
    m["models.heun_regime_scan.ms"] = _mean(s.dur * 1e3 for s in heun)
    verify = [s for n in VERIFY_SPANS for s in by_name[n]]
    busy = sum(s.dur for n in LEVEL_SPANS[:2] for s in by_name[n] if has_ancestor(s, VERIFY_SPANS))
    wall = sum(s.dur for s in verify)
    m["models.verify.parallelism"] = busy / wall if wall else math.nan
    m["models.verify.ms"] = _mean(s.dur * 1e3 for s in verify)
    m["models.scan_curve.ms"] = _mean(s.dur * 1e3 for s in by_name["models.scan_curve"])

    bessel = by_name["specfun.bessel_j"]
    m["specfun.bessel_j.half_us"] = _mean(s.dur * 1e6 for s in bessel if s.attrs["half"])
    m["specfun.bessel_j.int_us"] = _mean(s.dur * 1e6 for s in bessel if not s.attrs["half"])
    m["specfun.bessel_j.calls"] = len(bessel) / per_op

    recompose = by_name["separation.angular_wavefunction_recompose"]
    value_counts = counts.get("separation.TabulatedProfile.value", {})
    points = sum(s.attrs["points"] for s in recompose)
    in_recompose = sum(value_counts.get(str(c.id), 0) for s in recompose for c in subtree(s))
    m["separation.profile_value.calls"] = in_recompose / points if points else math.nan
    m["separation.angular_wavefunction_recompose.ms_per_point"] = (
        sum(s.dur for s in recompose) * 1e3 / points if points else math.nan)
    m["separation.w_eff.calls"] = sum(counts.get("separation.w_eff", {}).values()) / per_op
    m["separation.angular_problem.ms"] = _mean(s.dur * 1e3 for s in by_name["separation.angular_problem"])
    m["separation.load_model.ms"] = _mean(s.dur * 1e3 for s in by_name["separation.load_model"])

    import_ms = _median(r["import_ms"] for r in cli_reports)
    m["cli.cold_import_ms"] = import_ms
    m["cli.import_share"] = import_ms / _median(r["wall_ms"] for r in cli_reports)
    m["cli.scipy_loaded_commands"] = sum(1 for r in panel_cli_reports if r["scipy_loaded"])
    for command in CLI_COMMANDS:
        m[f"cli.{command}.p50_ms"] = _median(r["wall_ms"] for r in cli_reports if r["command"] == command)

    m.update(accuracy)
    m["trace.overhead_pct"] = overhead_pct
    return m


def _ancestors(s, by_id):
    p = by_id.get(s.parent)
    while p is not None:
        yield p
        p = by_id.get(p.parent)


def accuracy_table(repeats=3) -> dict:
    """Max relative error and time of the Richardson-refined radial solve.

    Oscillator (a = 1, ell = 3/2: levels 2 n + 5/2) and Coulomb-like
    (ell = 3/2: levels -1/(n + 2)^2, rho_max = 100 holds them to 1e-13) at
    n_points 4000, 20000 and 100000, three levels each.  Time is the median
    over ``repeats`` of both refined solves together (one repeat at 100000).
    """
    from pdm_polar.eigensolve import DIRICHLET, Grid, discretize, refine

    c = 1.5 ** 2 - 0.25
    cases = [
        (lambda r: c / r**2 + 0.25 * r**2, 12.0, [2 * n + 2.5 for n in range(3)]),
        (lambda r: c / r**2 - 2.0 / r, 100.0, [-1.0 / (n + 2) ** 2 for n in range(3)]),
    ]
    out = {}
    for n_points in ACCURACY_SIZES:
        walls, worst = [], 0.0
        for _ in range(repeats if n_points < 100000 else 1):
            start = time.perf_counter()
            results = [refine(lambda g, v=v: discretize(v, g), Grid(0.0, r_max, n_points, DIRICHLET), 3)
                       for v, r_max, _ in cases]
            walls.append(time.perf_counter() - start)
            for res, (_, _, exact) in zip(results, cases):
                worst = max(worst, max(abs(e - x) / abs(x) for e, x in zip(res.eigenvalues, exact)))
        out[f"eigensolve.refine.rel_err.n{n_points}"] = worst
        out[f"eigensolve.refine.ms.n{n_points}"] = statistics.median(walls) * 1e3
    return out
