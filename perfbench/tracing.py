"""Out-of-program tracing of aqtomo's layers for the benchmark's traced run.

``Tracer.instrument`` wraps public functions of each package module from the
outside.  A function bound into another module with ``from ... import`` is a
second reference that a patch on the defining module alone would miss, so
every ``aqtomo`` module namespace holding the same object is patched too.
Each wrapped call records a span ``[name, start, end, parent, trial, phase]``
in memory; ``summarize`` turns one process's spans into layer totals, and
``layer_metrics`` turns summed totals into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from statistics import median
from time import perf_counter

from checks import percentile

NAME, START, END, PARENT, TRIAL, PHASE = range(6)

# the package modules whose public functions are traced, by layer; every
# function a module defines and does not name with a leading underscore is
# wrapped, except the one-line helpers below: linalg's run up to ~120 times a
# trial and would add more wrapper overhead than the work they time, and the
# scenario constructors would count as scoring calls in fidelity.calls_per_trial
LAYER_MODULES = (
    "linalg",
    "quantum_objects",
    "measurement",
    "fidelity",
    "estimators",
    "experiments.harness",
    "experiments.targets",
    "experiments.io",
)
UNTRACED = frozenset({
    "as_generator", "dagger", "frobenius",  # linalg
    "state_scenario", "detector_scenario", "process_scenario",  # fidelity
})
PROTOCOL_PREFIXES = ("estimators.adaptive_", "estimators.static_", "estimators.nonadaptive_")

# span-name groups whose self time makes up one per-layer metric
GROUPS = {
    "measurement.sample": ("measurement.measure_state", "measurement.sample_counts"),
    "quantum_objects.born": ("quantum_objects.born_probabilities",),
    "estimators.solve": ("estimators.LrePlan.solve", "estimators.qdt_stage1"),
    "estimators.projection": (
        "estimators.physical_projection_fast",
        "estimators.project_eigenvalues_simplex",
    ),
    "estimators.correction": (
        "estimators.qpt_stage2_tp",
        "estimators.qpt_stage2_ntp",
        "estimators.aapt_reconstruct",
    ),
    "linalg.eig": ("linalg.hermitian_eig",),
}


def layer_of(name: str) -> str:
    return "experiments" if name.startswith("experiments.") else name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.phase = ""
        self.trial = None
        self._stack = []
        self._last_eig_min = 0.0
        self._trials = 0

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` run
        outside the timed interval and may update ``counts``.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trial, self.phase]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # hooks that count work where it happens -------------------------------

    def _trial_start(self, args, kwargs):
        if self.phase == "trials":
            self._trials += 1
            self.trial = self._trials
            self.counts["budget"] += args[1]  # run_trial(config, n, ...)

    def _trial_end(self, args, kwargs, result):
        self.trial = None

    def _shots(self, args, kwargs):
        if self.trial is not None:
            self.counts["shots"] += args[2]  # measure_state(rho, povm, shots, rng)

    def _probes(self, args, kwargs):
        if self.trial is not None:
            self.counts["probe_draws"] += args[0]  # random_pure_probes(count, ...)

    def _eig_done(self, args, kwargs, result):
        self._last_eig_min = float(result.eigenvalues[-1])

    def _inv_sqrt_done(self, args, kwargs, result):
        m = args[0]
        clamp = kwargs.get("clamp", args[1] if len(args) > 1 else None)
        if clamp is None:
            clamp = 1e-12 * len(m)
        if self._last_eig_min < clamp:
            self.counts["inv_sqrt_clamps"] += 1

    def instrument(self, package):
        """Wrap the public functions of ``LAYER_MODULES`` wherever the package
        binds them, plus ``LrePlan`` and the validating ``__post_init__`` of the
        quantum object classes."""
        hooks = {
            "experiments.run_trial": (self._trial_start, self._trial_end),
            "measurement.measure_state": (self._shots, None),
            "measurement.random_pure_probes": (self._probes, None),
            "linalg.hermitian_eig": (None, self._eig_done),
            "linalg.inv_sqrt": (None, self._inv_sqrt_done),
        }
        prefix = package.__name__ + "."
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package.__name__ or n.startswith(prefix))
        ]
        for mod_name in LAYER_MODULES:
            home = sys.modules[prefix + mod_name]
            for fname, original in public_functions(home):
                label = f"{layer_of(mod_name)}.{fname}"
                wrapped = self.span(label, original, *hooks.get(label, (None, None)))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
        est = sys.modules[prefix + "estimators"]
        est.LrePlan.__init__ = self.span("estimators.LrePlan.build", est.LrePlan.__init__)
        est.LrePlan.solve = self.span("estimators.LrePlan.solve", est.LrePlan.solve)
        qo = sys.modules[prefix + "quantum_objects"]
        for cls_name, cls in vars(qo).items():
            if (isinstance(cls, type) and cls.__module__ == qo.__name__
                    and "__post_init__" in vars(cls)):
                cls.__post_init__ = self.span(
                    f"quantum_objects.{cls_name}.validate", cls.__post_init__
                )

    def summarize(self) -> dict:
        """Totals of this process's spans, additive across processes."""
        spans = self.spans
        own_times = self_times(spans)
        self_by_name = Counter()
        calls = Counter()
        top_fidelity = 0
        trial_ms, trial_s, trial_self = [], 0.0, 0.0
        plan_build_s, battery_s, target_s = [], 0.0, 0.0
        aggregate_s = write_s = 0.0
        for rec, own in zip(spans, own_times):
            name, dur = rec[NAME], rec[END] - rec[START]
            parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else ""
            if name == "estimators.LrePlan.build":
                plan_build_s.append(dur)
            elif name == "measurement.cube_povm" and not parent.startswith("measurement."):
                battery_s += dur
            elif name == "experiments.resolve_target" and rec[PHASE] == "setup":
                target_s += dur
            elif name == "experiments.run_scaling":
                aggregate_s += own
            elif name == "experiments.emit_results":
                write_s += dur
            if rec[TRIAL] is None:
                continue
            if name == "experiments.run_trial":
                trial_ms.append(1e3 * dur)
                trial_s += dur
                trial_self += own
                continue
            self_by_name[name] += own
            calls[name] += 1
            if name.startswith("fidelity.") and not parent.startswith("fidelity."):
                top_fidelity += 1
        return {
            "trials": len(trial_ms),
            "trial_ms": trial_ms,
            "trial_s": trial_s,
            "unattributed_s": trial_self,
            "self_s": dict(self_by_name),
            "calls": dict(calls),
            "fidelity_calls": top_fidelity,
            "plan_build_s": plan_build_s,
            "battery_build_s": battery_s,
            "target_s": target_s,
            "aggregate_s": aggregate_s,
            "write_s": write_s,
            "counts": dict(self.counts),
        }

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "trial", "phase"],
                       "spans": self.spans}, fh)


def public_functions(module):
    """``(name, function)`` for each public function ``module`` defines itself."""
    return [
        (name, value) for name, value in vars(module).items()
        if callable(value) and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
        and not name.startswith("_") and name not in UNTRACED
    ]


def self_times(spans) -> list:
    """Self time of each span: its duration minus the time its children cover.

    Children of one span never overlap (calls are sequential), so the part of
    the parent interval they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def combine(layer_summaries) -> dict:
    """Sum additive totals over processes; keep per-process values as lists."""
    total = {"trials": 0, "trial_ms": [], "trial_s": 0.0, "unattributed_s": 0.0,
             "self_s": Counter(), "calls": Counter(), "fidelity_calls": 0,
             "counts": Counter(), "plan_build_s": [], "per_run": []}
    for s in layer_summaries:
        for key in ("trials", "trial_s", "unattributed_s", "fidelity_calls"):
            total[key] += s[key]
        total["trial_ms"] += s["trial_ms"]
        total["plan_build_s"] += s["plan_build_s"]
        for key in ("self_s", "calls", "counts"):
            total[key].update(s[key])
        total["per_run"].append(s)
    return total


def layer_metrics(total, runs, untraced_tps: float, traced_tps: float) -> dict:
    """Per-layer metrics from combined totals of the traced ``runs``.

    ``*_per_trial`` metrics divide by the traced trials; per-run values are
    medians over the traced processes.
    """
    n = total["trials"]
    own, calls, counts = total["self_s"], total["calls"], total["counts"]

    def group(g):
        return sum(own.get(name, 0.0) for name in GROUPS[g]) / n

    def layer(name):
        return sum(v for k, v in own.items() if layer_of(k) == name) / n

    def per_run(value):
        return median(value(s) for s in total["per_run"])

    validators = [k for k in calls if k.endswith(".validate")]
    out = {
        "measurement.sampler_calls_per_trial": calls["measurement.measure_state"] / n,
        "measurement.sample_s_per_trial": group("measurement.sample"),
        "measurement.shots_used_frac": counts["shots"] / counts["budget"],
        "measurement.probe_draws_per_trial": counts["probe_draws"] / n,
        "measurement.battery_build_s": per_run(lambda s: s["battery_build_s"]),
        "quantum_objects.validations_per_trial": sum(calls[k] for k in validators) / n,
        "quantum_objects.validate_s_per_trial": sum(own[k] for k in validators) / n,
        "quantum_objects.born_s_per_trial": group("quantum_objects.born"),
        "estimators.plan_builds": per_run(lambda s: len(s["plan_build_s"])),
        "estimators.plan_build_s": median(total["plan_build_s"]) if total["plan_build_s"] else 0.0,
        "estimators.solve_s_per_trial": group("estimators.solve"),
        "estimators.projection_s_per_trial": group("estimators.projection"),
        "estimators.correction_s_per_trial": group("estimators.correction"),
        "estimators.protocol_self_s_per_trial": sum(
            v for k, v in own.items() if k.startswith(PROTOCOL_PREFIXES)) / n,
        "linalg.eig_calls_per_trial": calls["linalg.hermitian_eig"] / n,
        "linalg.eig_s_per_trial": group("linalg.eig"),
        "linalg.inv_sqrt_clamps": per_run(lambda s: s["counts"].get("inv_sqrt_clamps", 0)),
        "fidelity.calls_per_trial": total["fidelity_calls"] / n,
        "fidelity.score_s_per_trial": layer("fidelity"),
        "experiments.import_s": median(r["import_s"] for r in runs),
        "experiments.target_s": per_run(lambda s: s["target_s"]),
        "experiments.aggregate_s": per_run(lambda s: s["aggregate_s"]),
        "experiments.write_s": per_run(lambda s: s["write_s"]),
        "experiments.trial_ms_p50": percentile(total["trial_ms"], 50),
        "experiments.trial_ms_p95": percentile(total["trial_ms"], 95),
        "experiments.unattributed_frac": total["unattributed_s"] / total["trial_s"],
        "experiments.tracing_overhead_frac": 1.0 - traced_tps / untraced_tps,
    }
    for name in ("linalg", "quantum_objects", "measurement", "estimators"):
        out[f"{name}.self_s_per_trial"] = layer(name)
    return out
