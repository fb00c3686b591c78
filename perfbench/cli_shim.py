"""Run one ``pdm-polar`` command with the span tracer installed.

Usage: ``python3 perfbench/cli_shim.py REPORT.json ARGV...``

The command's stdout, stderr and exit code are those of ``pdm_polar.cli``.
The report records the cold import time of ``pdm_polar.cli``, whether
``scipy.linalg`` was loaded when the command finished, and the spans the
command produced.
"""

import json
import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.tracer import Tracer  # noqa: E402

import_start = time.perf_counter()
import pdm_polar.cli  # noqa: E402

import_ms = (time.perf_counter() - import_start) * 1e3


def main() -> int:
    report_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        rc = pdm_polar.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    report = tracer.export()
    report.update({
        "import_ms": import_ms,
        "shim_ms": (time.perf_counter() - start) * 1e3,
        "scipy_loaded": "scipy.linalg" in sys.modules,
        "rc": rc,
    })
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
