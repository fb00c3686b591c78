"""Span tracer that instruments pdm_polar from the outside.

Nothing under ``src/`` is edited.  A traced function is replaced by a wrapper
at *every* name it is reachable through: package modules import functions by
name (``from .eigensolve import eigen_lowest``) and ``refine`` reaches
``eigen_lowest`` through the globals of ``pdm_polar.eigensolve``, so patching
only the defining module would miss calls.  Each module attribute that *is*
the original function object is swapped for the wrapper, and restored on
:meth:`Tracer.uninstall`.

A span is ``(id, name, start, end, parent, op, attrs, error)``: ``parent`` is the
innermost open span of the calling thread, or, in a worker thread that has
no open span, the innermost open span of the main thread (the verify and
scan sweeps fan out over a thread pool).  Spans of
one benchmark op share ``op``; ``error`` names the exception a call raised.
Spans stay in memory until the run ends.

Functions called thousands of times per op (``w_eff``,
``TabulatedProfile.value``) are counted, not spanned; each count is kept per
innermost open span, so it can be attributed to the call that caused it.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

# (module, attribute, span attrs factory or None).  The factory maps the call
# arguments to a small dict stored on the span.
SPANNED = [
    ("pdm_polar.eigensolve", "discretize", None),
    ("pdm_polar.eigensolve", "eigen_lowest",
     lambda args, kw: {"rows": int(args[0].n), "k": int(args[1] if len(args) > 1 else kw["k"])}),
    ("pdm_polar.eigensolve", "refine", None),
    ("pdm_polar.models", "coulomb_numeric_level", lambda args, kw: {"levels": 1}),
    ("pdm_polar.models", "oscillator_numeric_level", lambda args, kw: {"levels": 1}),
    ("pdm_polar.models", "verify_coulomb", None),
    ("pdm_polar.models", "verify_oscillator", None),
    ("pdm_polar.models", "scan_level", lambda args, kw: {"levels": 1}),
    ("pdm_polar.models", "scan_curve", None),
    ("pdm_polar.models", "heun_regime_scan", None),
    ("pdm_polar.models", "toy_radial_solution", None),
    ("pdm_polar.models", "degeneracy_report", None),
    ("pdm_polar.specfun", "bessel_j",
     lambda args, kw: {"half": _is_half_order(args[0] if args else kw["nu"])}),
    ("pdm_polar.separation", "load_model", None),
    ("pdm_polar.separation", "radial_problem", None),
    ("pdm_polar.separation", "angular_problem", None),
    ("pdm_polar.separation", "pct_map", None),
    ("pdm_polar.separation", "angular_wavefunction_recompose",
     lambda args, kw: {"points": _point_count(args[2] if len(args) > 2 else kw["phi"])}),
    ("pdm_polar.cli", "cmd_spectrum", None),
    ("pdm_polar.cli", "cmd_verify", None),
    ("pdm_polar.cli", "cmd_effpot", None),
    ("pdm_polar.cli", "cmd_wavefunction", None),
    ("pdm_polar.cli", "cmd_scan", None),
]

COUNTED = [
    ("pdm_polar.separation", "w_eff"),
]

# class attributes counted by wrapping the attribute on the class itself
COUNTED_METHODS = [
    ("pdm_polar.separation", "TabulatedProfile", "value"),
]


def _is_half_order(nu) -> bool:
    twice = getattr(nu, "twice_order", None)
    if twice is None:
        twice = round(2 * float(nu))
    return twice % 2 == 1


def _point_count(phi) -> int:
    try:
        return len(phi)
    except TypeError:
        return 1


class Tracer:
    """Collects spans and call counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._main_stack = []
        self._patches = []  # (owner, attribute, original)

    # -- ops ----------------------------------------------------------------
    def begin_op(self, op_id: int):
        self._op = op_id

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if is_main else []
        return stack

    # -- wrappers -----------------------------------------------------------
    def _spanned(self, name, fn, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            span_id = next(tracer._ids)
            attrs = attrs_of(args, kwargs) if attrs_of is not None else None
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer._op, attrs, error))

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts.setdefault(name, {})
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            owner = stack[-1] if stack else (main[-1] if main else None)
            counts[owner] = counts.get(owner, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------
    def _replace_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "pdm_polar" or mod_name.startswith("pdm_polar.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        """Wrap the traced functions of every pdm_polar module already imported.

        Modules are not imported here: doing so would change what a traced
        command loads (``cli.scipy_loaded_commands`` depends on it).
        """
        for mod_name, attr, attrs_of in SPANNED:
            module = sys.modules.get(mod_name)
            if module is not None:
                original = getattr(module, attr)
                self._replace_everywhere(original, self._spanned(f"{mod_name[10:]}.{attr}", original, attrs_of))
        for mod_name, attr in COUNTED:
            module = sys.modules.get(mod_name)
            if module is not None:
                original = getattr(module, attr)
                self._replace_everywhere(original, self._counted(f"{mod_name[10:]}.{attr}", original))
        for mod_name, cls_name, attr in COUNTED_METHODS:
            module = sys.modules.get(mod_name)
            if module is not None:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._counted(f"{mod_name[10:]}.{cls_name}.{attr}", original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- export -------------------------------------------------------------
    def export(self) -> dict:
        """Spans and counts as JSON-ready data (count keys become strings)."""
        return {
            "spans": [list(s) for s in self.spans],
            "counts": {name: {str(k): v for k, v in per.items()} for name, per in self.counts.items()},
        }
