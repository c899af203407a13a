"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload device-burst --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout (``src/`` must hold the ``repro``
package; without it the command exits 2 and prints no result).

A run sets ``repro`` up in this fresh interpreter, checks every cell of
the workload against the committed reference (``reference.json``) on
the two reference seeds, then times units -- one stream each, derived
from ``--seed`` -- until ``--seconds`` have passed.  Its last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: the end-to-end metrics (``END_TO_END``): set-up time
  (median of several fresh-interpreter set-ups), requests completed
  per host second over the whole timed section, peak resident memory,
  and the simulated ANTT / STP / unfairness / p99 slowdown of the
  workload's accelOS cell on the default reference seed;
* ``--trace 1``: the per-layer metrics (``PER_LAYER``) of one unit run
  with :class:`tracer.Tracer` installed, next to the same unit untraced
  (``trace_overhead``; the two must give identical outputs).

Every run also records a host-speed calibration score before and after
the timed section, the CPU count and the Python version (printed and in
``out/``); the score is not used to rescale anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_SAMPLES = 5          # fresh-interpreter set-ups per run (median)
MIN_UNITS = 3              # timed units per run, at least
SETUP_PROBE_TIMEOUT = 60

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "peak_mib": "MiB",
    "sim_antt": "ratio",
    "sim_stp": "ratio",
    "sim_unfairness": "ratio",
    "sim_p99_slowdown": "ratio",
}

PER_LAYER = {
    "workloads.arrivals": "count",
    "workloads.gen_s": "s",
    "sim.engine.pushes": "count",
    "sim.engine.pops": "count",
    "sim.engine.peeks": "count",
    "sim.engine.max_depth": "count",
    "sim.engine.self_s": "s",
    "sim.gpu.events": "count",
    "sim.gpu.events_per_request": "ratio",
    "sim.gpu.us_per_event": "us",
    "sim.gpu.withdraws": "count",
    "sim.gpu.hw_dispatch_share": "ratio",
    "sim.gpu.self_s": "s",
    "sim.hw_sched.eligible_calls": "count",
    "sim.hw_sched.eligible_per_event": "ratio",
    "sim.hw_sched.eligible_s": "s",
    "sim.contention.calls": "count",
    "sim.contention.self_s": "s",
    "sim.resources.fits_calls": "count",
    "sim.resources.fits_ok_ratio": "ratio",
    "sim.resources.self_s": "s",
    "accelos.sharing.plans": "count",
    "accelos.sharing.memo_hits": "count",
    "accelos.sharing.memo_misses": "count",
    "accelos.sharing.memo_hit_ratio": "ratio",
    "accelos.sharing.self_s": "s",
    "api.schemes.submits": "count",
    "api.schemes.steps": "count",
    "api.schemes.peeks": "count",
    "api.schemes.open_records_s": "s",
    "api.schemes.self_s": "s",
    "sim.fleet.peeks_per_event": "ratio",
    "sim.fleet.status_walks": "count",
    "sim.fleet.migrations": "count",
    "sim.fleet.self_s": "s",
    "accelos.placement.choose_calls": "count",
    "accelos.placement.choose_s": "s",
    "accelos.placement.rebalance_calls": "count",
    "accelos.placement.rebalance_s": "s",
    "accelos.placement.rebalance_yield": "ratio",
    "harness.records": "count",
    "harness.self_s": "s",
    "metrics.observes": "count",
    "metrics.self_s": "s",
    "attribution.calls": "count",
    "attribution.self_s": "s",
    "api.driver.cells": "count",
    "api.driver.stream_s": "s",
    "api.driver.to_json_s": "s",
    "api.driver.self_s": "s",
    "setup.compile_s": "s",
    "setup.transform_s": "s",
    "setup.calibrate_s": "s",
    "trace_overhead": "ratio",
}

def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def host_score():
    """Million iterations per second of a fixed pure-Python loop (best
    of three), recorded beside the metrics to show a slow host."""
    best = None
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += (i * i) % 7
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return 0.2 / best


def setup_workload(name):
    """Import ``repro`` and make ``name`` ready to run; returns it."""
    sys.path.insert(0, str(SRC))
    workload = wl.WORKLOADS[name]()
    workload.setup()
    return workload


def setup_probe(name):
    """Child mode: one timed fresh-interpreter set-up."""
    start = time.perf_counter()
    setup_workload(name)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def probe_setups(name, count):
    """Set-up times of ``count`` child interpreters, one after another."""
    samples = []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", name],
            cwd=str(ROOT), capture_output=True, text=True,
            timeout=SETUP_PROBE_TIMEOUT)
        if child.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + child.stderr)
        samples.append(json.loads(child.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


class Tally:
    """Requests attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def cells(self, workload, seed, count, label, check, run=None):
        """Run one stream (through ``run(seed, count)`` if given);
        ``check(outputs)`` returns ``{cell: [msg]}`` of failing cells.
        Returns the outputs, or None if the run raised."""
        cells = workload.cells()
        self.attempted += cells * count
        try:
            outputs = (run or workload.run)(seed, count)
        except Exception as exc:  # the program failed: count and go on
            self.failed += cells * count
            self.errors.append("{} seed {}: {}: {}".format(
                label, seed, type(exc).__name__, exc))
            return None
        for cell, messages in check(outputs).items():
            self.failed += count
            self.errors.append("{} seed {} cell {}: {}".format(
                label, seed, cell, "; ".join(messages)))
        return outputs


def reference_check(workload, tally):
    """Every cell on both reference seeds against ``reference.json``;
    returns the default seed's outputs (None if they are unusable)."""
    expected = wl.load_reference()[workload.name]
    if expected["count"] != workload.check_count:
        raise RuntimeError("reference.json was written at {} requests, "
                           "the workload checks {}".format(
                               expected["count"], workload.check_count))
    default = None
    for seed in wl.REFERENCE_SEEDS:
        outputs = tally.cells(
            workload, seed, workload.check_count, "reference",
            lambda out: wl.reference_mismatches(
                out, expected["seeds"][str(seed)]))
        if seed == wl.DEFAULT_SEED:
            default = outputs
    return default


def timed_units(workload, seed, seconds, tally):
    """Run fresh streams until ``seconds`` have passed (at least
    :data:`MIN_UNITS`); returns ``(requests completed, seconds spent,
    per-unit seconds)``."""
    count = workload.unit_count
    requests = workload.cells() * count
    completed = 0
    unit_seconds = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        outputs = tally.cells(
            workload, wl.stream_seed(seed, len(unit_seconds)), count,
            "unit {}".format(len(unit_seconds)),
            lambda out: wl.invariant_errors(out, workload.cells(), count))
        unit_seconds.append(time.perf_counter() - begin)
        if outputs is not None:
            completed += requests
        spent = time.perf_counter() - start
        if spent >= seconds and (len(unit_seconds) >= MIN_UNITS
                                 or spent >= 3 * seconds):
            return completed, spent, unit_seconds


def end_to_end_run(args):
    start = time.perf_counter()
    workload = setup_workload(args.workload)
    setup_samples = [time.perf_counter() - start]
    setup_samples += probe_setups(args.workload, SETUP_SAMPLES - 1)

    tally = Tally()
    default = reference_check(workload, tally)
    headline = (default or {}).get(workload.headline_cell, {})

    score_before = host_score()
    completed, spent, unit_seconds = timed_units(workload, args.seed,
                                                 args.seconds, tally)
    score_after = host_score()

    metrics = {
        "setup_s": statistics.median(setup_samples),
        # the whole timed section: averages host-speed drift and the
        # per-stream differences in work over every unit
        "requests_per_s": completed / spent,
        "peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "sim_antt": headline.get("antt", 0.0),
        "sim_stp": headline.get("stp", 0.0),
        "sim_unfairness": headline.get("unfairness", 0.0),
        "sim_p99_slowdown": headline.get("p99_slowdown", 0.0),
    }
    record = {"setup_samples_s": setup_samples,
              "unit_seconds": unit_seconds,
              "unit_requests": workload.cells() * workload.unit_count,
              "host_score_before": score_before,
              "host_score_after": score_after}
    return tally, metrics, END_TO_END, record


def layer_metrics(tracer, requests, events, untraced_s, traced_s,
                  setup_timers):
    counts = tracer.counts
    self_s = tracer.self_s
    timers = tracer.timers
    hits, misses = tracer.memo_counts()
    migrations = counts["sim.fleet.migrations"]
    rebalances = counts["accelos.placement.rebalance_calls"]
    return {
        "workloads.arrivals": counts["workloads.arrivals"],
        "workloads.gen_s": self_s["workloads.scenarios"],
        "sim.engine.pushes": counts["sim.engine.pushes"],
        "sim.engine.pops": counts["sim.engine.pops"],
        "sim.engine.peeks": counts["sim.engine.peeks"],
        "sim.engine.max_depth": tracer.max_depth,
        "sim.engine.self_s": self_s["sim.engine"],
        "sim.gpu.events": events,
        "sim.gpu.events_per_request": _ratio(events, requests),
        "sim.gpu.us_per_event": _ratio(untraced_s * 1e6, events),
        "sim.gpu.withdraws": counts["sim.gpu.withdraws"],
        "sim.gpu.hw_dispatch_share": _ratio(timers["sim.gpu.hw_dispatch_s"],
                                            traced_s),
        "sim.gpu.self_s": self_s["sim.gpu"],
        "sim.hw_sched.eligible_calls": counts["sim.hw_sched.eligible_calls"],
        "sim.hw_sched.eligible_per_event": _ratio(
            counts["sim.hw_sched.eligible_calls"], events),
        "sim.hw_sched.eligible_s": self_s["sim.hw_sched"],
        "sim.contention.calls": counts["sim.contention.calls"],
        "sim.contention.self_s": self_s["sim.contention"],
        "sim.resources.fits_calls": counts["sim.resources.fits_calls"],
        "sim.resources.fits_ok_ratio": _ratio(
            counts["sim.resources.fits_ok"],
            counts["sim.resources.fits_calls"]),
        "sim.resources.self_s": self_s["sim.resources"],
        "accelos.sharing.plans": counts["accelos.sharing.plans"],
        "accelos.sharing.memo_hits": hits,
        "accelos.sharing.memo_misses": misses,
        "accelos.sharing.memo_hit_ratio": _ratio(hits, hits + misses),
        "accelos.sharing.self_s": self_s["accelos.sharing"],
        "api.schemes.submits": counts["api.schemes.submits"],
        "api.schemes.steps": counts["api.schemes.steps"],
        "api.schemes.peeks": counts["api.schemes.peeks"],
        "api.schemes.open_records_s": timers["api.schemes.open_records_s"],
        "api.schemes.self_s": self_s["api.schemes"],
        "sim.fleet.peeks_per_event": _ratio(counts["sim.fleet.peeks"],
                                            events),
        "sim.fleet.status_walks": counts["sim.fleet.status_walks"],
        "sim.fleet.migrations": migrations,
        "sim.fleet.self_s": self_s["sim.fleet"],
        "accelos.placement.choose_calls":
            counts["accelos.placement.choose_calls"],
        "accelos.placement.choose_s": timers["accelos.placement.choose_s"],
        "accelos.placement.rebalance_calls": rebalances,
        "accelos.placement.rebalance_s":
            timers["accelos.placement.rebalance_s"],
        "accelos.placement.rebalance_yield": _ratio(migrations, rebalances),
        "harness.records": counts["harness.records"],
        "harness.self_s": self_s["harness.open_system"],
        "metrics.observes": counts["metrics.observes"],
        "metrics.self_s": self_s["metrics"],
        "attribution.calls": counts["attribution.calls"],
        "attribution.self_s": self_s["attribution.ledger"],
        "api.driver.cells": counts["api.driver.cells"],
        "api.driver.stream_s": timers["api.driver.stream_s"],
        "api.driver.to_json_s": timers["api.driver.to_json_s"],
        "api.driver.self_s": self_s["api.driver"],
        "setup.compile_s": setup_timers["setup.compile_s"],
        "setup.transform_s": setup_timers["setup.transform_s"],
        "setup.calibrate_s": setup_timers["setup.calibrate_s"],
        "trace_overhead": _ratio(untraced_s, traced_s),
    }


def traced_unit(workload, tracer, seed, count):
    """One unit's outputs with the tracer installed."""
    tracer.reset()
    tracer.install()
    try:
        with tracer.span("unit", cell="seed {}".format(seed)):
            return workload.run(seed, count, tracer=tracer)
    finally:
        tracer.uninstall()


def traced_run(args):
    sys.path.insert(0, str(SRC))
    workload = wl.WORKLOADS[args.workload]()
    tracer = Tracer()
    tracer.install(prefix="setup.")
    try:
        with tracer.span("setup"):
            workload.setup()
    finally:
        tracer.uninstall()
    setup_timers = dict(tracer.timers)
    setup_spans = list(tracer.spans)

    tally = Tally()
    reference_check(workload, tally)

    seed = wl.stream_seed(args.seed, 0)
    count = workload.unit_count
    requests = workload.cells() * count
    invariants = lambda out: wl.invariant_errors(out, workload.cells(),
                                                 count)
    score_before = host_score()
    begin = time.perf_counter()
    plain = tally.cells(workload, seed, count, "untraced unit", invariants)
    untraced_s = time.perf_counter() - begin
    begin = time.perf_counter()
    traced = tally.cells(workload, seed, count, "traced unit", invariants,
                         run=lambda s, c: traced_unit(workload, tracer, s, c))
    traced_s = time.perf_counter() - begin
    score_after = host_score()
    if repr(plain) != repr(traced):
        tally.failed += requests
        tally.errors.append("tracing changed the simulated outputs")
    if tracer.missing:
        tally.errors.append("tracer found no {}".format(
            ", ".join(tracer.missing)))

    metrics = layer_metrics(tracer, requests, tracer.events(), untraced_s,
                            traced_s, setup_timers)
    record = {"host_score_before": score_before,
              "host_score_after": score_after,
              "self_s": dict(tracer.self_s),
              "counts": dict(tracer.counts),
              "spans": setup_spans + tracer.spans}
    return tally, metrics, PER_LAYER, record


def write_reference():
    """Regenerate ``reference.json`` from the current code."""
    sys.path.insert(0, str(SRC))
    document = {"rel_tol": wl.REL_TOL}
    for name, cls in wl.WORKLOADS.items():
        workload = cls()
        workload.setup()
        document[name] = {
            "count": workload.check_count,
            "seeds": {str(seed): workload.run(seed, workload.check_count)
                      for seed in wl.REFERENCE_SEEDS},
        }
    wl.REFERENCE_PATH.write_text(
        json.dumps(document, sort_keys=True, indent=1) + "\n",
        encoding="utf-8")
    print("wrote {}".format(wl.REFERENCE_PATH))
    return 0


def report(args, tally, metrics, units, record):
    unmapped = layers.unmapped_modules()
    if unmapped:
        tally.errors.append("modules with no layer in layers.py: {}".format(
            ", ".join(unmapped)))
    correct = not tally.errors and tally.failed == 0
    host = {"cpu_count": os.cpu_count(),
            "python": platform.python_version()}
    print("workload {} seed {} trace {}".format(args.workload, args.seed,
                                                args.trace))
    print("host: cpus {} python {} calibration {:.2f} -> {:.2f} "
          "Mloop/s".format(host["cpu_count"], host["python"],
                           record["host_score_before"],
                           record["host_score_after"]))
    for error in tally.errors:
        print("FAILED: " + error)
    print("{:<38} {:>18} {}".format("metric", "value", "unit"))
    for name, unit in units.items():
        print("{:<38} {:>18.6g} {}".format(name, metrics[name], unit))
    print("{:<38} {:>18.6g} {}".format(
        "failed_frac", _ratio(tally.failed, tally.attempted), "fraction"))

    wl.OUT_DIR.mkdir(exist_ok=True)
    path = wl.OUT_DIR / "{}-seed{}-trace{}.json".format(
        args.workload, args.seed, args.trace)
    path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "seconds": args.seconds, "host": host, "metrics": metrics,
         "attempted": tally.attempted, "failed": tally.failed,
         "errors": tally.errors, **record}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        choices=sorted(wl.WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json from the current "
                             "code, then exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print("no repro package under {}; run from the root of a "
              "checkout".format(SRC), file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    run = traced_run if args.trace else end_to_end_run
    tally, metrics, units, record = run(args)
    return report(args, tally, metrics, units, record)


if __name__ == "__main__":
    sys.exit(main())
