"""One fresh-process benchmark run, driven through aqtomo's public API.

Usage: ``python3 perfbench/child.py SPEC_JSON T0``, where ``T0`` is the
parent's ``time.monotonic()`` just before it started this process, so that
set-up and time-to-result count interpreter start-up and imports, as they do
for a user of ``aqtomo run``.

The run is a closed loop with one client: every config is set up through one
``run_trial`` call (filling the harness's per-config cache), then each config
runs ``run_scaling(workers=1)`` and writes CSV and JSON with
``emit_results``.  An untraced run interleaves the machine-speed reference
of ``speedref.py`` with all of this and reports each time twice: the
program's own seconds (the reference slices taken out, under ``raw``) and
those seconds at reference speed.  A traced run has no reference.  The last
stdout line is a JSON summary.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from time import monotonic, perf_counter


def main(spec_path: str, t0: float) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = ref = None
    if not spec["trace"]:
        from speedref import SpeedRef, normalize

        ref = SpeedRef()
        ref.start()
    else:  # imported only here; a traced run reports no end-to-end metric
        from statistics import median

        from tracing import END, NAME, START, TRIAL, Tracer

        tracer = Tracer()

    def mark():
        return ref.mark() if ref is not None else (0.0, 0)

    def seconds(wall_s, start, end):
        """(program s, s at reference speed) of a span of wall time."""
        return normalize(wall_s, start, end) if ref is not None else (wall_s, wall_s)

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    sys.path.insert(0, spec["src"])
    tick = perf_counter()
    import aqtomo
    from aqtomo.experiments import harness, io, load_config

    import_s = perf_counter() - tick
    if tracer is not None:
        tracer.instrument(aqtomo)

    configs = [load_config(p) for p in spec["configs"]]
    phase("setup")
    for cfg in configs:
        harness.run_trial(cfg, cfg.n_grid[0], 0, 0)
    setup_wall = monotonic() - t0
    setup_mark = mark()
    setup_s = seconds(setup_wall, (0.0, 0), setup_mark)

    trial_s, trial_ref_s, outcomes = 0.0, 0.0, []
    for cfg, cfg_path in zip(configs, spec["configs"]):
        stem = os.path.join(spec["out_dir"], os.path.basename(cfg_path)[: -len(".cfg")])
        attempted = len(cfg.n_grid) * cfg.repetitions
        first_span = len(tracer.spans) if tracer else 0
        phase("trials")
        start, tick = mark(), perf_counter()
        try:
            result = harness.run_scaling(cfg, workers=1)
        except RuntimeError as exc:  # the harness aborts on too many exclusions
            result, abort = None, str(exc)
        program_s, at_ref_s = seconds(perf_counter() - tick, start, mark())
        trial_s += program_s
        trial_ref_s += at_ref_s
        outcome = {
            "name": os.path.basename(stem),
            "method": cfg.method,
            "attempted": attempted,
            "seconds": program_s,
        }
        if result is None:
            outcome.update(aborted=abort, excluded=attempted)
        else:
            phase("write")
            csv_path, _ = io.emit_results(result, stem, "both")
            with open(csv_path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            outcome.update(
                aborted=None,
                excluded=sum(row.excluded_trials for row in result.rows),
                slope=result.slope,
                max_constraint_dev=max(result.extras["max_constraint_dev"]),
                csv_sha256=digest,
            )
        if tracer is not None:
            outcome["trial_ms_p50"] = median(
                1e3 * (s[END] - s[START])
                for s in tracer.spans[first_span:]
                if s[NAME] == "experiments.run_trial" and s[TRIAL] is not None
            )
        outcomes.append(outcome)
    end_mark = mark()
    after_setup = seconds(monotonic() - t0 - setup_wall, setup_mark, end_mark)
    if ref is not None:
        ref.stop()

    summary = {
        "setup_s": setup_s[1],
        "time_to_result_s": setup_s[1] + after_setup[1],
        "trial_s": trial_ref_s,
        "raw": {
            "setup_s": setup_s[0],
            "time_to_result_s": setup_s[0] + after_setup[0],
            "trial_s": trial_s,
        },
        "ref_slice_ms": 1e3 * end_mark[0] / max(end_mark[1], 1),
        "trials": sum(o["attempted"] for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": import_s,
        "configs": outcomes,
    }
    if tracer is not None:
        summary["layers"] = tracer.summarize()
        tracer.dump(spec["spans_path"])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
