"""pdm-polar benchmark: one workload, one seed, one line of metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists): radial_verify,
angular_scan, closed_forms, cli_session.  The program is run from the
checkout's ``src``; nothing is installed.  One closed-loop client issues one
op at a time; the library keeps its own default thread count.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``setup_s``: fresh interpreter to first timed op (import of pdm_polar,
  input generation, one untimed warm-up op), median of three set-ups;
* ``ops_per_s``, ``op_p50_ms`` and ``op_tail_ms`` (the latency with exactly
  ten samples above it; its percentile and the sample count are on the
  report line);
* ``ok_frac``: ops whose every value met its independent reference, over ops
  attempted;
* ``max_rel_err``: worst relative error over all checked values;
* ``peak_rss_mb``: of the worker process, or of its CLI children.

With ``--trace 1`` it carries the per-layer metrics of a traced run.  The
line before the last is a report with the sample counts, the thread count
observed, the documented defects seen and any failures.  ``failed`` counts
ops that raised, whose exit code disagreed with their payload, that printed
different bytes for a repeated argv, or that missed a reference for a reason
no documented defect explains; ``correct`` is true when there are none.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("radial_verify", "angular_scan", "closed_forms", "cli_session")
SETUPS = 3
TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "1",
    "max_rel_err": "1",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _spawn(root: Path, args, setup_only: bool, deadline: float):
    """Run a worker; return (seconds from spawn to READY, its result or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.time()
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return ready[0] - spawned, (None if setup_only else json.loads(lines[-1]))


def _tail(latencies):
    """Latency with exactly ten samples above it, its percentile, the count."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    if not (root / "src" / "pdm_polar" / "__init__.py").is_file():
        return _fail("run from the root of a pdm-polar checkout: src/pdm_polar is missing")
    if not (root / "perfbench" / "worker.py").is_file():
        return _fail("perfbench/worker.py is missing")
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")

    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(_spawn(root, args, True, deadline)[0])
        ready, raw = _spawn(root, args, False, deadline)
        setups.append(ready)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return _fail(str(exc))

    attempted = raw["attempted"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "threads_observed": raw["threads"],
        "cycles": raw["cycles"],
        "ops": len(raw["latencies_ms"]),
        "cycle_op_p50_ms": raw["cycle_op_p50_ms"],
        "checked_values": raw["checked_values"],
        "ok": raw["ok"],
        "defect_ops": raw["defect_ops"],
        "failures": raw["failures"],
    }
    if args.trace:
        report["spans_file"] = raw["spans_file"]
        metrics = raw["per_layer"]
    else:
        tail, tail_pct, n = _tail(raw["latencies_ms"])
        report.update({"op_p50_samples": n, "op_tail_percentile": tail_pct, "op_tail_samples": n,
                       "setup_samples_s": setups, "loop_wall_s": raw["loop_wall_s"]})
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(raw["latencies_ms"]) / raw["loop_wall_s"],
            "op_p50_ms": statistics.median(raw["latencies_ms"]),
            "op_tail_ms": tail,
            "ok_frac": raw["ok"] / attempted,
            "max_rel_err": raw["max_rel_err"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps(report))
    missing = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if missing:  # a layer or check that produced nothing: the run is not usable
        return _fail(f"no value measured for {', '.join(missing)}")
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": attempted, "failed": raw["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
