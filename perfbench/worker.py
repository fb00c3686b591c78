"""One benchmark process: set up, run the timed loop, check, report.

Run from the checkout root as ``python3 -m perfbench.worker --workload W
--seed S --seconds T --trace 0|1 [--setup-only]`` with ``src`` on
``PYTHONPATH``.  It prints ``READY`` once set-up is done (import of
pdm_polar, input generation and one untimed warm-up op), then, unless
``--setup-only``, one JSON line with the raw results.

The loop is closed, with one op in flight, and runs whole cycles until
``--seconds`` have passed.  Outputs are kept in memory and compared with the
references only after the loop, so reference work is never timed.  With
``--trace 1`` cycles alternate between traced and untraced (their wall-time
ratio is the tracing overhead); then one traced cycle of every workload and
the accuracy table run, so every layer is measured on every workload; the
spans are written to ``.perfbench/spans-<workload>-<seed>.json`` at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import pdm_polar  # part of set-up: the parent times spawn to READY

from perfbench import workloads as wl
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


class Context:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.run_cli = wl.CliRunner(ROOT, workdir)


def _make(name, workdir: Path, seed: int):
    sub = workdir / name
    sub.mkdir(parents=True, exist_ok=True)
    ctx = Context(sub)
    workload = wl.WORKLOADS[name]()
    rng = np.random.default_rng(seed)
    workload.setup(ctx, rng)
    return workload, ctx, rng


def _run_cycle(workload, ctx, ops, records, tracer=None, op_base=0):
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(op_base + i)
        start = time.perf_counter()
        try:
            out, error = workload.execute(op, ctx), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"op": op, "out": out, "error": error, "ms": (time.perf_counter() - start) * 1e3,
                        "workload": workload, "ctx": ctx, "index": i, "cycle_ops": ops})


def _check(records):
    """Outcome per record; a CLI repeat is compared with its cycle's original."""
    outcomes = []
    by_cycle = {}
    for rec in records:
        key = id(rec["cycle_ops"])
        by_cycle.setdefault(key, {})[rec["index"]] = rec
    for rec in records:
        workload = rec["workload"]
        if rec["error"] is not None:
            outcome = wl.Outcome()
            outcome.fail(rec["error"])
        elif isinstance(workload, wl.CliSession):
            previous = None
            if rec["index"] == workload.REPEAT[1]:
                previous = by_cycle[id(rec["cycle_ops"])][workload.REPEAT[0]]["out"]
            outcome = workload.check(rec["op"], rec["out"], rec["ctx"], previous)
        else:
            outcome = workload.check(rec["op"], rec["out"], rec["ctx"])
        outcomes.append(outcome)
    return outcomes


def _merge_child_spans(tracer, reports, op_of_report):
    for i, report in enumerate(reports):
        offset = (i + 1) * 10**9
        op = op_of_report[i]
        for row in report["spans"]:
            sid, name, start, end, parent, _, attrs, error = row
            tracer.spans.append((sid + offset, name, start, end,
                                 None if parent is None else parent + offset, op, attrs, error))
        for name, per in report["counts"].items():
            dest = tracer.counts.setdefault(name, {})
            for key, value in per.items():
                new_key = key if key == "None" else str(int(key) + offset)
                dest[new_key] = dest.get(new_key, 0) + value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    workload, ctx, rng = _make(args.workload, workdir, args.seed)
    warmup = workload.cycle(rng)
    _run_cycle(workload, ctx, warmup[:1], [])
    print(f"READY {time.time()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    records, cycle_walls = [], {True: [], False: []}
    n_cycles = 0
    loop_start = time.perf_counter()
    while True:
        ops = warmup if n_cycles == 0 else workload.cycle(rng)
        traced = bool(tracer) and n_cycles % 2 == 0
        if traced:
            tracer.install()
            ctx.run_cli.traced = True
        start = time.perf_counter()
        _run_cycle(workload, ctx, ops, records, tracer if traced else None, op_base=len(records))
        cycle_walls[traced].append(time.perf_counter() - start)
        if traced:
            tracer.uninstall()
            ctx.run_cli.traced = False
        for rec in records[-len(ops):]:
            rec["traced"] = traced
        n_cycles += 1
        # a traced run needs one untraced cycle to measure the overhead against
        if time.perf_counter() - loop_start >= args.seconds and (tracer is None or n_cycles >= 2):
            break
    loop_wall = time.perf_counter() - loop_start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if not workload.in_process else resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024.0

    result = {
        "workload": args.workload,
        "cycles": n_cycles,
        "loop_wall_s": loop_wall,
        "latencies_ms": [r["ms"] for r in records],
        "cycle_op_p50_ms": [statistics.median(r["ms"] for r in records if r["index"] == i)
                            for i in range(len(warmup))],
        "peak_rss_mb": peak_rss_mb,
        # the verify pool's size as the library computes it (1 once it has no pool)
        "threads": getattr(pdm_polar.models, "_max_workers", lambda: 1)(),
    }
    main_reports = list(ctx.run_cli.reports)
    if tracer is not None:
        n_traced = sum(1 for r in records if r["traced"])
        panel_records, panel_reports = [], []
        tracer.install()
        for offset, name in enumerate(wl.WORKLOADS, start=1):
            p_workload, p_ctx, p_rng = _make(name, workdir / "panel", args.seed + offset)
            p_ctx.run_cli.traced = True
            _run_cycle(p_workload, p_ctx, p_workload.cycle(p_rng), panel_records, tracer,
                       op_base=len(records) + len(panel_records))
            panel_reports += p_ctx.run_cli.reports
        tracer.uninstall()
        from perfbench import layers

        accuracy = layers.accuracy_table()
        reports = main_reports + panel_reports
        # ops of traced child processes: main ones in order, then the panel's
        cli_ops = [i for i, r in enumerate(records) if r["traced"] and isinstance(workload, wl.CliSession)]
        cli_ops += [len(records) + i for i, r in enumerate(panel_records) if isinstance(r["workload"], wl.CliSession)]
        _merge_child_spans(tracer, reports, cli_ops)
        overhead = (statistics.median(cycle_walls[True]) / statistics.median(cycle_walls[False]) - 1.0) * 100.0 \
            if cycle_walls[False] else math.nan
        values = layers.compute(
            [list(s) for s in tracer.spans], tracer.export()["counts"], n_traced + len(panel_records),
            reports, panel_reports, accuracy, overhead)
        result["per_layer"] = {name: {"value": values[name], "unit": unit}
                               for name, unit in layers.PER_LAYER.items()}
        spans_path = workdir.parent / f"spans-{args.workload}-{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        records = records + panel_records

    outcomes = _check(records)
    errors = [e for o in outcomes for e in o.errors if math.isfinite(e)]
    defects = {}
    for o in outcomes:
        for d in o.defects:
            defects[d] = defects.get(d, 0) + 1
    result.update({
        "attempted": len(outcomes),
        "ok": sum(1 for o in outcomes if o.ok),
        "failed": sum(1 for o in outcomes if o.failed),
        "defect_ops": defects,
        "failures": [o.failure or "value missed its reference" for o in outcomes if o.failed][:5],
        "max_rel_err": max(errors) if errors else math.nan,
        "checked_values": len(errors),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
