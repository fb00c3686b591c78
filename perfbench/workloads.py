"""The four benchmark workloads: seeded inputs, one op at a time, checks.

Each workload builds its inputs from a ``numpy.random.Generator`` seeded by
``--seed`` and hands the program only those inputs (model files, parameters,
argv).  Ops are issued in a fixed per-cycle order, one in flight; a cycle
repeats the same op shapes with fresh draws, so every run has the same mix of
input sizes whatever its seed.  ``check`` compares an op's output with the
independent references of :mod:`references` after the timed loop.

An op's outcome is ``ok`` (every value within tolerance), a documented
defect (a value misses, and :func:`references.classify_radial_miss`
explains why), or *failed* (it raised, its exit code disagrees with its own
payload, a value is missing where a reference exists, a repeated CLI argv
printed different bytes, or a miss no documented defect explains).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

GATE = "mustafa-mazharimousavi"
NON_GATE = ("gora-williams", "bendaniel-duke", "zhu-kroemer", "li-kuhn")
ORDERINGS = NON_GATE + (GATE,)
TRIPLES = {
    "gora-williams": (Fraction(-1), Fraction(0), Fraction(0)),
    "bendaniel-duke": (Fraction(0), Fraction(-1), Fraction(0)),
    "zhu-kroemer": (Fraction(-1, 2), Fraction(0), Fraction(-1, 2)),
    "li-kuhn": (Fraction(0), Fraction(-1, 2), Fraction(-1, 2)),
    GATE: (Fraction(-1, 4), Fraction(-1, 2), Fraction(-1, 4)),
}
DEFAULT_COULOMB_RHO_MAX = 60.0


@dataclass
class Op:
    kind: str
    params: dict


@dataclass
class Outcome:
    """Result of checking one op."""

    errors: list = field(default_factory=list)   # relative errors of checked values
    misses: list = field(default_factory=list)   # defect class (or None) per missed value
    failure: str | None = None                   # reason the op failed outright

    def value(self, err: float, tol: float, defect=lambda: None):
        """Record one checked value; ``defect`` names the class of a miss."""
        self.errors.append(err)
        if not err <= tol:
            self.misses.append(defect())

    def fail(self, reason: str):
        if self.failure is None:
            self.failure = reason

    @property
    def ok(self) -> bool:
        return self.failure is None and not self.misses

    @property
    def failed(self) -> bool:
        return self.failure is not None or any(m is None for m in self.misses)

    @property
    def defects(self) -> set:
        return {m for m in self.misses if m is not None}


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _dyadic_range(rng, samples: int, step: float, center: float = -0.75):
    """(lo, hi) whose linspace with ``samples`` points hits ``center`` exactly."""
    j = int(rng.integers(1, samples - 1))
    return center - j * step, center + (samples - 1 - j) * step


def _write_model(path, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return str(path)


def _tabulated(eps: float, k: int, n: int) -> dict:
    phi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return {
        "phi": phi.tolist(),
        "f": (1.0 + eps * np.cos(k * phi)).tolist(),
        "fp": (-eps * k * np.sin(k * phi)).tolist(),
        "fpp": (-eps * k * k * np.cos(k * phi)).tolist(),
    }


# ---------------------------------------------------------------------------
# radial_verify


class RadialVerify:
    """verify_oscillator / verify_coulomb sweeps at the library's default domain.

    Per cycle, 14 sweeps with n_rho_max 0-4 and n_points 4000/20000/100000.
    Coulomb b is drawn on both sides of the default-domain truncation
    (b <= 4.2 converges, b >= 6 is cut off by rho_max = 60); one oscillator
    sweep puts its top level at ell < 1, where the h^2 Richardson step does
    not hold.  Those misses stay visible in ok_frac and max_rel_err.
    """

    name = "radial_verify"
    in_process = True

    def setup(self, ctx, rng):
        import pdm_polar.models as md

        self.md = md

    def cycle(self, rng):
        def osc(n, nrm, t_lo, t_hi):
            a = _u(rng, 0.5, 2.0)
            return Op("osc", {"a": a, "d": a * (2 * nrm + 1 + _u(rng, t_lo, t_hi)),
                              "n_rho_max": nrm, "n_points": n})

        def coul(n, nrm, b_lo, b_hi):
            return Op("coul", {"b": _u(rng, b_lo, b_hi), "n_rho_max": nrm, "n_points": n})

        return [
            osc(4000, 4, 1.0, 3.0), coul(4000, 4, 8.5, 9.0),
            osc(4000, 2, 1.0, 3.0), coul(4000, 2, 4.0, 4.2),
            osc(4000, 1, 0.1, 0.3), coul(4000, 0, 6.0, 7.0),
            osc(4000, 0, 1.0, 3.0), osc(20000, 0, 1.0, 3.0),
            osc(20000, 1, 1.0, 3.0), coul(20000, 1, 3.0, 4.2),
            osc(20000, 3, 1.0, 3.0), coul(20000, 3, 6.0, 8.0),
            osc(100000, 0, 1.0, 3.0), coul(100000, 0, 2.0, 4.0),
        ]

    def execute(self, op, ctx):
        p = op.params
        if op.kind == "osc":
            return self.md.verify_oscillator(p["a"], p["d"], p["n_rho_max"], 1e-4, n_points=p["n_points"])
        return self.md.verify_coulomb(p["b"], p["n_rho_max"], 1e-4, n_points=p["n_points"])

    def check(self, op, out, ctx):
        records = [{"n_rho": r.qn.n_rho, "lambda": r.lam, "energy_numeric": r.energy_numeric} for r in out]
        return check_sweep(op.kind, op.params, records, DEFAULT_COULOMB_RHO_MAX)


def check_sweep(kind, params, records, rho_max, outcome=None) -> Outcome:
    """Radial levels of a verify sweep against the operator's own closed forms."""
    from perfbench import references as ref

    outcome = outcome or Outcome()
    expected = list(range(params["n_rho_max"] + 1))
    if [r["n_rho"] for r in records] != expected:
        outcome.fail(f"sweep returned levels {[r['n_rho'] for r in records]}, expected {expected}")
        return outcome
    for r in records:
        ell = math.sqrt(r["lambda"] + 1.0)
        n = r["n_rho"]
        numeric = r["energy_numeric"]
        if kind == "osc":
            target, family = params["d"], "oscillator"
        else:
            target, family = ref.coulomb_level(ell, n), "coulomb"
        outcome.value(ref.rel_err(numeric, target), ref.TOL_LEVEL,
                      lambda: ref.classify_radial_miss(family, ell, n, numeric, target, rho_max))
    return outcome


# ---------------------------------------------------------------------------
# angular_scan


class AngularScan:
    """heun_regime_scan and scan_curve on cos^2 models, small periodic solves.

    Non-gate orderings run at n_points = 2050 only: on finer rings the node
    next to the mass zero sees |W| > 1e12 and the solver refuses the grid
    (PotentialSingular, a documented domain error).
    """

    name = "angular_scan"
    in_process = True

    def setup(self, ctx, rng):
        import pdm_polar
        import pdm_polar.models as md
        from pdm_polar.errors import NoRoot

        self.md = md
        self.no_root = NoRoot
        self.orderings = {o: pdm_polar.parse_ordering_token(o) for o in ORDERINGS}

    def cycle(self, rng):
        def heun(order, energy, state, n, lo, hi, ref=None):
            return Op("heun", {"ordering": order, "energy": energy, "state_index": state,
                               "n_points": n, "range": (lo, hi), "ref_lambda": ref})

        def curve(order, state, n, lo, hi, samples, ref=None):
            return Op("curve", {"ordering": order, "state_index": state, "n_points": n,
                                "range": (lo, hi), "samples": samples, "ref_energy": ref})

        other = NON_GATE[int(rng.integers(0, len(NON_GATE)))]
        singular = ("gora-williams", "zhu-kroemer", "li-kuhn")[int(rng.integers(0, 3))]
        return [
            heun(GATE, 0.5, 1, 2050, _u(rng, -1.25, -0.85), _u(rng, -0.6, 0.0), -0.75),
            heun(GATE, 0.5, 2, 4098, _u(rng, -1.25, -0.85), _u(rng, -0.6, 0.0), -0.75),
            heun(GATE, 0.5, 1, 8194, _u(rng, -1.25, -0.85), _u(rng, -0.6, 0.0), -0.75),
            heun("bendaniel-duke", _u(rng, 1.0, 2.2), 1, 2050, _u(rng, -2.2, -1.8), _u(rng, 0.8, 1.2)),
            heun("bendaniel-duke", _u(rng, 1.0, 2.2), 2, 2050, _u(rng, -2.2, -1.8), _u(rng, 0.8, 1.2)),
            heun(singular, _u(rng, 0.0, 2.0), 1, 2050, _u(rng, -2.2, -1.8), _u(rng, 0.8, 1.2)),
            heun(GATE, _u(rng, 3.0, 5.0), 1, 4098, _u(rng, -1.6, -1.4), _u(rng, -1.1, -0.9)),
            curve(GATE, 3, 2050, *_dyadic_range(rng, 9, 1 / 16), 9, 2.0),
            curve(GATE, 1, 4098, *_dyadic_range(rng, 9, 1 / 32), 9, 0.5),
            curve(GATE, 2, 8194, *_dyadic_range(rng, 5, 1 / 64), 5, 0.5),
            curve(other, 1, 2050, _u(rng, -2.0, -1.0), _u(rng, 0.0, 1.0), 9),
        ]

    def execute(self, op, ctx):
        p = op.params
        order = self.orderings[p["ordering"]]
        if op.kind == "curve":
            return self.md.scan_curve(order, p["range"], p["samples"],
                                      state_index=p["state_index"], n_points=p["n_points"])
        try:
            return ("root",) + tuple(self.md.heun_regime_scan(
                order, p["energy"], p["range"], state_index=p["state_index"], n_points=p["n_points"]))
        except self.no_root as exc:
            return ("no-root", exc.curve)

    def check(self, op, out, ctx):
        from perfbench import references as ref

        p = op.params
        outcome = Outcome()
        lo, hi = p["range"]
        if op.kind == "curve":
            lams = np.linspace(lo, hi, p["samples"])
            if len(out) != p["samples"] or any(a != float(b) for (a, _), b in zip(out, lams)):
                outcome.fail("scan_curve did not sample the requested lambda grid")
                return outcome
            if p["ref_energy"] is not None:
                energy = dict(out).get(-0.75)
                outcome.value(ref.rel_err(energy, p["ref_energy"]), ref.TOL_ANGULAR)
            return outcome
        if out[0] == "root":
            lam_star = out[1]
            if not lo <= lam_star <= hi:
                outcome.fail(f"root {lam_star} outside the scanned range")
            if p["ref_lambda"] is not None:
                outcome.value(ref.rel_err(lam_star, p["ref_lambda"]), ref.TOL_LAMBDA)
            return outcome
        curve = out[1]
        if p["ref_lambda"] is not None:
            outcome.fail("NoRoot where the gate ordering has the root lambda = -3/4")
        elif not curve or curve[-1][1] <= p["energy"] <= curve[0][1]:
            outcome.fail("NoRoot although its own curve brackets the target")
        return outcome


# ---------------------------------------------------------------------------
# closed_forms


class ClosedForms:
    """specfun and separation without any eigensolve.

    Tabulated profiles are f = 1 + eps cos(k phi), k = 1, 2, 3, sampled at
    512 or 1024 points; the library interpolates them linearly, so their
    checks carry an O(h^2) error that sets max_rel_err here.
    """

    name = "closed_forms"
    in_process = True
    N_PROFILES = 6
    PHIS = tuple((j + 0.5) * math.pi / 4 for j in range(8))

    def setup(self, ctx, rng):
        import pdm_polar
        import pdm_polar.models as md
        import pdm_polar.separation as sp

        self.pp, self.md, self.sp = pdm_polar, md, sp
        self.profiles = []
        for i in range(self.N_PROFILES):
            k, n = 1 + i % 3, (512, 1024)[i // 3]
            eps = _u(rng, 0.43, 0.45)
            order = ORDERINGS[int(rng.integers(0, len(ORDERINGS)))]
            path = _write_model(ctx.workdir / f"tab{i}.json",
                                {"f": {"tabulated": _tabulated(eps, k, n)}, "ordering": order})
            self.profiles.append({"path": path, "model": sp.load_model(path), "eps": eps, "k": k})
        self.analytic_models = []
        for i, (fname, pot) in enumerate([
            ("cos2", {"power_well": {"v0": _u(rng, 0.5, 2.0), "k": 1}}),
            ("cos2", {"coulomb_like": {"omega": _u(rng, 0.15, 0.5)}}),
            ("flat", {"oscillator_like": {"a": _u(rng, 0.5, 2.0), "d": _u(rng, 3.0, 8.0)}}),
            ("cos2", {"oscillator_like": {"a": _u(rng, 0.5, 2.0), "d": _u(rng, 3.0, 8.0)}}),
        ]):
            order = ORDERINGS[int(rng.integers(0, len(ORDERINGS)))]
            path = _write_model(ctx.workdir / f"analytic{i}.json",
                                {"f": fname, "potential": pot, "ordering": order})
            self.analytic_models.append((path, fname, pot, order))
        # Bessel arguments come from a pool so each reference is computed once
        self.x_pool = np.concatenate([np.linspace(0.05, 2.0, 24), np.linspace(2.05, 40.0, 104)])
        self._turn = 0

    def cycle(self, rng):
        def bessel(half):
            orders = [j + 0.5 if half else j for j in rng.integers(0, 6, size=48)]
            xs = rng.choice(self.x_pool, size=48)
            return Op("bessel", {"pairs": [(float(o), float(x)) for o, x in zip(orders, xs)]})

        def toy(orders):
            nus = [orders[int(i)] for i in rng.integers(0, len(orders), size=32)]
            xs = rng.choice(self.x_pool[self.x_pool > 0.1], size=32)
            return Op("toy", {"pairs": [(nu, float(x)) for nu, x in zip(nus, xs)]})

        # profile checks walk every (profile, angle) pair in a fixed order, so
        # the worst interpolation error is reached in every run of 24+ cycles
        turn = self._turn
        self._turn += 1
        prof, prof2 = turn % self.N_PROFILES, (turn + 3) % self.N_PROFILES
        phis = [self.PHIS[(2 * (turn // self.N_PROFILES) + j) % len(self.PHIS)] for j in (0, 1)]
        analytic = turn % len(self.analytic_models)
        return [
            bessel(False),
            bessel(True),
            toy([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]),
            toy([Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)]),
            Op("pct", {"profile": prof, "phis": phis}),
            Op("recompose", {"profile": prof2, "m": 2, "phis": phis}),
            Op("sample", {"model": analytic, "lambda": _u(rng, -0.7, 1.5),
                          "rho": (_u(rng, 0.2, 1.0), _u(rng, 5.0, 20.0)), "q": 0.95}),
            Op("tab_problem", {"profile": prof2, "lambda": _u(rng, -0.5, 1.5)}),
            Op("spectra", {"b": _u(rng, 6.0, 9.0), "a": _u(rng, 0.5, 2.0), "t": _u(rng, 1.0, 3.0),
                           "lambda": _u(rng, -1.0, 1.0),
                           "ordering": ORDERINGS[int(rng.integers(0, len(ORDERINGS)))]}),
        ]

    def execute(self, op, ctx):
        p, md, sp = op.params, self.md, self.sp
        if op.kind == "bessel":
            return [self.pp.bessel_j(nu, x) for nu, x in p["pairs"]]
        if op.kind == "toy":
            return [md.toy_radial_solution(nu, x) for nu, x in p["pairs"]]
        if op.kind == "pct":
            f = self.profiles[p["profile"]]["model"].f
            return [sp.pct_map(f, phi) for phi in p["phis"]]
        if op.kind == "recompose":
            m = p["m"]
            return sp.angular_wavefunction_recompose(
                self.profiles[p["profile"]]["model"].f, lambda q: np.exp(1j * m * q), np.array(p["phis"]))
        if op.kind == "sample":
            path = self.analytic_models[p["model"]][0]
            model = sp.load_model(path)
            rho = np.linspace(*p["rho"], 64)
            q = np.linspace(-p["q"], p["q"], 64)
            radial = sp.radial_problem(model, p["lambda"], p["rho"]).effective_potential(rho)
            angular = sp.angular_problem(model, p["lambda"]).effective_potential(q)
            return rho, np.asarray(radial, dtype=float), q, np.broadcast_to(angular, q.shape).astype(float)
        if op.kind == "tab_problem":
            model = sp.load_model(self.profiles[p["profile"]]["path"])
            return sp.angular_problem(model, p["lambda"]).domain
        # spectra
        order = self.pp.parse_ordering_token(p["ordering"])
        a, t, b = p["a"], p["t"], p["b"]
        d = a * (2 * 4 + 1 + t)
        oscillator, coulomb = [], []
        for n_rho in range(5):
            for m in range(-4, 5):
                qn = md.QuantumNumbers(n_rho, m)
                oscillator.append(md.SpectrumRecord(qn=qn, lam=md.oscillator_lambda(a, d, n_rho),
                                                    energy_closed=md.oscillator_energy(order, a, d, qn)))
                if n_rho < 3:
                    coulomb.append(md.SpectrumRecord(qn=qn, lam=md.coulomb_lambda(b, n_rho),
                                                     energy_closed=md.coulomb_energy(order, b, qn)))
        flat = [md.flat_energy(order, m, p["lambda"]) for m in range(-4, 5)]
        return oscillator, coulomb, flat, md.degeneracy_report(oscillator + coulomb)

    def _analytic(self, i):
        from perfbench import references as ref

        prof = self.profiles[i]
        if "analytic" not in prof:
            prof["analytic"] = ref.CosineProfile(prof["eps"], prof["k"])
        return prof["analytic"]

    def check(self, op, out, ctx):
        from perfbench import references as ref

        p = op.params
        outcome = Outcome()
        if op.kind in ("bessel", "toy"):
            refs = [ref.bessel(float(nu), x) / (x if op.kind == "toy" else 1.0) for nu, x in p["pairs"]]
            scale = max(abs(r) for r in refs)
            for v, r in zip(out, refs):
                outcome.value(abs(v - r) / scale, ref.TOL_BESSEL_ABS / scale)
            return outcome
        if op.kind == "pct":
            analytic = self._analytic(p["profile"])
            for phi, v in zip(p["phis"], out):
                outcome.value(ref.rel_err(v, analytic.q(phi)), ref.TOL_PROFILE)
            return outcome
        if op.kind == "recompose":
            analytic = self._analytic(p["profile"])
            for phi, v in zip(p["phis"], out):
                target = float(analytic.f(phi)) ** 0.25 * np.exp(1j * p["m"] * analytic.q(phi))
                outcome.value(ref.rel_err(v, target), ref.TOL_PROFILE)
            return outcome
        if op.kind == "sample":
            _, fname, pot, order = self.analytic_models[p["model"]]
            rho, radial, q, angular = out
            (kind, params), = pot.items()
            for r, v in zip(rho, radial):
                outcome.value(ref.rel_err(v, ref.radial_veff(kind, params, p["lambda"], r), floor=1.0), ref.TOL_EXACT)
            alpha, beta, gamma = (float(x) for x in TRIPLES[order])
            for qq, v in zip(q, angular):
                if fname == "flat":
                    target = -float(ref.exact_bracket(*TRIPLES[order]) + Fraction(p["lambda"]) / 2)
                else:
                    target = ref.w_eff_cos2(alpha, beta, gamma, p["lambda"], qq)
                outcome.value(ref.rel_err(v, target, floor=1.0), 1e-9)
            return outcome
        if op.kind == "tab_problem":
            lo, hi = out
            outcome.value(ref.rel_err(hi - lo, self._analytic(p["profile"]).circumference()),
                          ref.TOL_PROFILE)
            return outcome
        return check_spectra(p, out, outcome)


def check_spectra(p, out, outcome) -> Outcome:
    """Oscillator and flat energies in exact arithmetic; Coulomb m-structure.

    The Coulomb closed-form values carry the paper's quantization (the known
    red acceptance check), so only what holds under either quantization is
    checked: E(n, m) - E(n, 0) = m^2/2.  Every +/-m pair must be grouped and
    explained by the degeneracy report.
    """
    from perfbench import references as ref

    oscillator, coulomb, flat, groups = out
    triple = TRIPLES[p["ordering"]]
    d = p["a"] * (2 * 4 + 1 + p["t"])
    for r in oscillator:
        target = ref.oscillator_energy(triple, p["a"], d, r.qn.n_rho, r.qn.m)
        outcome.value(ref.rel_err(r.energy_closed, target, floor=1.0), ref.TOL_EXACT)
    coulomb_m0 = {r.qn.n_rho: r.energy_closed for r in coulomb if r.qn.m == 0}
    for r in coulomb:
        shift = r.energy_closed - coulomb_m0[r.qn.n_rho]
        outcome.value(ref.rel_err(shift, 0.5 * r.qn.m ** 2, floor=1.0), ref.TOL_EXACT)
    for m, e in zip(range(-4, 5), flat):
        outcome.value(ref.rel_err(e, ref.flat_energy(triple, m, p["lambda"]), floor=1.0), ref.TOL_EXACT)
    for group in groups:
        ms = {(r.qn.n_rho, r.lam, r.qn.m) for r in group.records}
        pairs = [x for x in ms if x[2] > 0 and (x[0], x[1], -x[2]) in ms]
        if pairs and not any(e.startswith("magnetic pair") for e in group.explanations):
            outcome.fail("a +/-m pair is grouped without the magnetic-pair explanation")
    grouped = sum(len(g.records) for g in groups)
    if grouped != len(oscillator) + len(coulomb):
        outcome.fail(f"degeneracy report covers {grouped} of {len(oscillator) + len(coulomb)} records")
    return outcome


# ---------------------------------------------------------------------------
# cli_session


class CliSession:
    """One pdm-polar subprocess per op over generated model files.

    Cold import is paid on every op, as a user running the command pays it.
    The eighth command of each cycle is re-run as the twelfth; its stdout
    must repeat byte for byte.
    """

    name = "cli_session"
    in_process = False
    REPEAT = (7, 11)

    def setup(self, ctx, rng):
        a = _u(rng, 0.5, 2.0)
        self.models = {
            "osc": {"f": "flat", "potential": {"oscillator_like": {"a": a, "d": a * (5 + _u(rng, 1.0, 3.0))}},
                    "ordering": ORDERINGS[int(rng.integers(0, len(ORDERINGS)))]},
            "coul_lo": {"f": "flat", "potential": {"coulomb_like": {"omega": 1 / _u(rng, 3.0, 4.2)}},
                        "ordering": ORDERINGS[int(rng.integers(0, len(ORDERINGS)))]},
            "coul_hi": {"f": "flat", "potential": {"coulomb_like": {"omega": 1 / _u(rng, 6.0, 6.02)}},
                        "ordering": ORDERINGS[int(rng.integers(0, len(ORDERINGS)))]},
            "flat": {"f": "flat", "ordering": ORDERINGS[int(rng.integers(0, len(ORDERINGS)))]},
            "gate": {"f": "cos2", "potential": {"power_well": {"v0": 1.0, "k": 1}}, "ordering": GATE},
        }
        self.paths = {k: _write_model(ctx.workdir / f"{k}.json", v) for k, v in self.models.items()}
        self._oscillator_u = {}

    def cycle(self, rng):
        m = self.paths
        lo, hi = _dyadic_range(rng, 9, 1 / 16)
        nu = ("1/2", "1", "3/2", "2", "5/2")[int(rng.integers(0, 5))]
        ops = [
            ["spectrum", "--model", m["osc"], "--n-rho-max", "2", "--m-max", "2"],
            ["spectrum", "--model", m["flat"], "--m-max", "3", f"--lambda={_u(rng, -1, 1)!r}"],
            ["effpot", "--model", m["gate"], "--which", "angular", "--range=-0.9,0.9", "--samples", "64",
             f"--lambda={_u(rng, -1, 1)!r}"],
            ["effpot", "--model", m["coul_lo"], "--which", "radial", f"--range={_u(rng, 0.3, 1.0)!r},20",
             "--samples", "64", f"--lambda={_u(rng, 0, 2)!r}"],
            ["wavefunction", "--model", m["gate"], "--state", f"toy:n={nu}",
             f"--range={_u(rng, 0.3, 1.0)!r},30", "--samples", "64"],
            ["wavefunction", "--model", m["gate"], "--state", f"angular:m={int(rng.integers(-3, 4))}",
             "--range=-3,3", "--samples", "64"],
            ["wavefunction", "--model", m["osc"], "--state", f"radial:n_rho={int(rng.integers(0, 2))}",
             "--range=0.5,6", "--samples", "64"],
            ["verify", "--model", m["osc"], "--n-rho-max", "2"],
            ["verify", "--model", m["coul_hi"], "--n-rho-max", "3"],
            ["scan", "--model", m["gate"], "--energy", "0.5", f"--lambda-range={lo!r},{hi!r}",
             "--curve-samples", "9"],
            ["scan", "--model", m["gate"], "--energy", repr(_u(rng, 3.0, 5.0)), "--lambda-range=-1.5,-0.5",
             "--curve-samples", "9"],
        ]
        ops.append(list(ops[self.REPEAT[0]]))
        return [Op("cli", {"argv": argv}) for argv in ops]

    def execute(self, op, ctx):
        return ctx.run_cli(op.params["argv"])

    def check(self, op, out, ctx, previous=None):
        return check_cli(self, op.params["argv"], out, previous)


def check_cli(session, argv, out, previous=None) -> Outcome:
    """Exit code against payload, then every value against its reference."""
    from perfbench import references as ref

    outcome = Outcome()
    rc, stdout, stderr = out["rc"], out["stdout"], out["stderr"]
    if previous is not None and previous["stdout"] != stdout:
        outcome.fail("repeated argv printed different bytes")
    command = argv[0]
    if rc in (2, 3):
        try:
            err = json.loads(stderr)["error"]
            if err["exit_code"] != rc:
                outcome.fail("exit code disagrees with the JSON error")
        except (ValueError, KeyError, TypeError):
            outcome.fail(f"exit {rc} without a JSON error on stderr")
        outcome.fail(f"no output where references exist (exit {rc})")
        return outcome
    try:
        payload = json.loads(stdout)
    except ValueError:
        outcome.fail(f"exit {rc} without a JSON payload")
        return outcome
    if command == "verify":
        if rc != (0 if payload["all_within_tol"] else 4):
            outcome.fail(f"verify exit {rc} with all_within_tol={payload['all_within_tol']}")
    elif command == "scan":
        if rc != (5 if payload.get("root") is None else 0):
            outcome.fail(f"scan exit {rc} with root={payload.get('root')}")
    elif rc != 0:
        outcome.fail(f"{command} exit {rc}")
    model_key = next(k for k, v in session.paths.items() if v == argv[argv.index("--model") + 1])
    model = session.models[model_key]
    opts = _options(argv)
    if command == "spectrum":
        triple = TRIPLES[model["ordering"]]
        got = {(r["n_rho"], r["m"]): r["energy_closed"] for r in payload["records"]}
        if "potential" in model:
            pot = model["potential"]["oscillator_like"]
            want = {(n, m): ref.oscillator_energy(triple, pot["a"], pot["d"], n, m)
                    for n in range(int(opts["--n-rho-max"]) + 1)
                    for m in range(-int(opts["--m-max"]), int(opts["--m-max"]) + 1)}
        else:
            lam = float(opts["--lambda"])
            want = {(0, m): ref.flat_energy(triple, m, lam)
                    for m in range(-int(opts["--m-max"]), int(opts["--m-max"]) + 1)}
        for key, target in want.items():
            outcome.value(ref.rel_err(got.get(key), target, floor=1.0), ref.TOL_EXACT)
    elif command == "effpot":
        lam = float(opts["--lambda"])
        for s in payload["samples"]:
            if opts["--which"] == "radial":
                (kind, params), = model["potential"].items()
                target = ref.radial_veff(kind, params, lam, s["coordinate"])
            else:
                alpha, beta, gamma = (float(x) for x in TRIPLES[model["ordering"]])
                target = ref.w_eff_cos2(alpha, beta, gamma, lam, s["coordinate"])
            outcome.value(ref.rel_err(s["potential"], target, floor=1.0), 1e-9)
    elif command == "wavefunction":
        _check_wavefunction(session, model, opts["--state"], payload["samples"], outcome)
    elif command == "verify":
        (kind, params), = model["potential"].items()
        family = "osc" if kind == "oscillator_like" else "coul"
        sweep = {"n_rho_max": int(opts["--n-rho-max"])}
        if family == "osc":
            sweep["d"] = params["d"]
        check_sweep(family, sweep, payload["records"], payload["rho_max"], outcome)
    elif command == "scan":
        root = payload.get("root")
        if float(opts["--energy"]) == 0.5:
            outcome.value(ref.rel_err(root and root["lambda_star"], -0.75), ref.TOL_LAMBDA)
            at = [c["energy"] for c in payload["curve"] if c["lambda"] == -0.75]
            outcome.value(ref.rel_err(at[0] if at else None, 0.5), ref.TOL_ANGULAR)
        elif root is None:
            curve = payload["curve"]
            target = float(opts["--energy"])
            if curve[-1]["energy"] <= target <= curve[0]["energy"]:
                outcome.fail("no root reported although the curve brackets the target")
    return outcome


def _options(argv) -> dict:
    opts = {}
    for i, token in enumerate(argv[1:], start=1):
        if token.startswith("--"):
            if "=" in token:
                key, _, value = token.partition("=")
                opts[key] = value
            elif i + 1 < len(argv):
                opts[token] = argv[i + 1]
    return opts


def _check_wavefunction(session, model, state, samples, outcome):
    from perfbench import references as ref

    head, _, tail = state.partition(":")
    value = Fraction(tail.partition("=")[2])
    if head == "toy":
        refs = [ref.bessel(float(value), s["coordinate"]) / s["coordinate"] for s in samples]
        got = [s["value"] for s in samples]
    elif head == "angular":
        m = int(value)
        refs, got = [], []
        for s in samples:
            c = math.cos(s["coordinate"])
            if c <= 1e-4:
                if s["re"] is not None or s["im"] is not None:
                    outcome.fail("value emitted where the closed form leaves the real domain")
                continue
            refs.append(math.sqrt(c) * complex(math.cos(m * math.sin(s["coordinate"])),
                                               math.sin(m * math.sin(s["coordinate"]))))
            got.append(None if s["re"] is None else complex(s["re"], s["im"]))
    else:
        pot = model["potential"]["oscillator_like"]
        n = int(value)
        a = pot["a"]
        ell = math.sqrt((pot["d"] / a - 2 * n - 1) ** 2)
        key = (a, ell, n)
        if key not in session._oscillator_u:
            session._oscillator_u[key] = ref.oscillator_u(a, ell, n)
        u = session._oscillator_u[key]
        dense = np.linspace(1e-3, 12.0 / math.sqrt(a), 2001)
        dense_u = [u(r) for r in dense]
        sign = 1.0 if dense_u[int(np.argmax(np.abs(dense_u)))] > 0 else -1.0
        refs = [sign * u(s["coordinate"]) * s["coordinate"] ** -1.5 for s in samples]
        got = [s["value"] for s in samples]
        scale = max(abs(r) for r in refs)
        for v, r in zip(got, refs):
            outcome.value(ref.rel_err(v, r, floor=scale) if v is not None else math.inf, ref.TOL_RADIAL_WF)
        return
    scale = max(abs(r) for r in refs)
    for v, r in zip(got, refs):
        outcome.value(abs(v - r) / scale if v is not None else math.inf, ref.TOL_BESSEL_ABS / scale)


WORKLOADS = {w.name: w for w in (RadialVerify, AngularScan, ClosedForms, CliSession)}


# ---------------------------------------------------------------------------
# running CLI subprocesses


class CliRunner:
    """Runs ``pdm-polar`` from the checkout's sources, one subprocess at a time."""

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.shim = str(root / "perfbench" / "cli_shim.py")
        self.traced = False
        self.reports = []  # shim reports of traced commands

    def __call__(self, argv):
        side = None
        if self.traced:
            side = str(self.workdir / f"shim-{len(self.reports)}.json")
            cmd = [sys.executable, self.shim, side] + list(argv)
        else:
            cmd = [sys.executable, "-m", "pdm_polar.cli"] + list(argv)
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True, timeout=120)
        wall = time.perf_counter() - start
        if side is not None:
            with open(side, encoding="utf-8") as fh:
                report = json.load(fh)
            report.update({"command": argv[0], "wall_ms": wall * 1e3, "argv": list(argv)})
            self.reports.append(report)
        return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
