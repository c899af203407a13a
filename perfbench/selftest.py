"""Self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks, in one process:

* ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
  produces, with the same units;
* for every workload, a traced and an untraced run give identical
  simulated outputs; the traced counts repeat exactly in a second
  traced run; and they equal the program's own counters read from an
  untraced run (engine events, allocation-memo hits and misses, fleet
  migrations);
* the reference check passes on ``reference.json``, fails when one value
  is perturbed beyond the tolerance or one count is off by one, and
  passes for a perturbation within the tolerance;
* every ``repro`` module imported has a layer in ``layers.py``, and
  every layer the map names has at least one tracer shim.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {"device-burst": 200, "fleet-steal": 40, "spec-exact": 40}
SEED = 11

failures = []


def check(label, ok, detail=""):
    print("{} {}{}".format("ok  " if ok else "FAIL", label,
                           ": " + detail if detail and not ok else ""))
    if not ok:
        failures.append(label)


def check_benchmark_json():
    document = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check("BENCHMARK.json workloads",
          sorted(w["name"] for w in document["workloads"])
          == sorted(wl.WORKLOADS))
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in document[key]}
        check("BENCHMARK.json {} names and units".format(key),
              listed == table,
              "differs: {}".format(sorted(set(listed.items())
                                          ^ set(table.items()))))


def program_counters(workload, count):
    """Outputs of an untraced run plus the program's own counters,
    read from every simulator and allocation memo it built."""
    from repro.accelos.sharing import AllocationMemo
    from repro.sim.gpu import GPUSimulator
    built = []
    originals = {cls: cls.__init__ for cls in (GPUSimulator, AllocationMemo)}

    def recording(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)
        return __init__

    for cls, init in originals.items():
        cls.__init__ = recording(init)
    try:
        outputs = workload.run(SEED, count)
    finally:
        for cls, init in originals.items():
            cls.__init__ = init
    sims = [o for o in built if isinstance(o, GPUSimulator)]
    memos = [o for o in built if isinstance(o, AllocationMemo)]
    return outputs, {
        "events": sum(getattr(s, "events_processed", 0) for s in sims),
        "memo_hits": sum(m.hits for m in memos),
        "memo_misses": sum(m.misses for m in memos),
        "migrations": sum(cell.get("rebalances", 0)
                          for cell in outputs.values()),
    }


def traced_counts(workload, count):
    tracer = tracing.Tracer()
    outputs = run.traced_unit(workload, tracer, SEED, count)
    hits, misses = tracer.memo_counts()
    counts = dict(tracer.counts, max_depth=tracer.max_depth,
                  memo_hits=hits, memo_misses=misses,
                  events=tracer.events())
    return outputs, counts, tracer.missing


def check_tracing(name, workload):
    count = TINY[name]
    plain, program = program_counters(workload, count)
    traced, counts, missing = traced_counts(workload, count)
    again, counts_again, _ = traced_counts(workload, count)
    check(name + ": tracer found every shim target", not missing,
          ", ".join(missing))
    check(name + ": traced outputs == untraced outputs",
          repr(plain) == repr(traced) == repr(again))
    check(name + ": traced counts repeat", counts == counts_again,
          "differs: {}".format(sorted(set(counts.items())
                                      ^ set(counts_again.items()))))
    traced_view = {"events": counts["sim.engine.pops"],
                   "memo_hits": counts["memo_hits"],
                   "memo_misses": counts["memo_misses"],
                   "migrations": counts.get("sim.fleet.migrations", 0)}
    check(name + ": traced counts == program counters",
          traced_view == program and counts["events"] == program["events"],
          "{} vs {}".format(traced_view, program))
    check(name + ": work was traced", counts["sim.engine.pops"] > 0
          and counts.get("workloads.arrivals", 0) > 0)


def check_reference(name, workload):
    reference = wl.load_reference()[name]
    outputs = {seed: workload.run(seed, workload.check_count)
               for seed in wl.REFERENCE_SEEDS}
    ok = all(not wl.reference_mismatches(
        outputs[seed], reference["seeds"][str(seed)])
        for seed in wl.REFERENCE_SEEDS)
    check(name + ": matches reference.json", ok)
    expected = reference["seeds"][str(wl.DEFAULT_SEED)]
    got = outputs[wl.DEFAULT_SEED]
    cell = workload.headline_cell
    for label, key, scale, should_fail in (
            ("perturbed antt fails", "antt", 1 + 1e-6, True),
            ("antt within tolerance passes", "antt", 1 + 1e-12, False),
            ("perturbed p99 fails", "p99_slowdown", 1 - 1e-6, True)):
        perturbed = copy.deepcopy(expected)
        perturbed[cell][key] *= scale
        failed = bool(wl.reference_mismatches(got, perturbed))
        check("{}: {}".format(name, label), failed == should_fail)
    if "count" in expected[cell]:
        perturbed = copy.deepcopy(expected)
        perturbed[cell]["count"] += 1
        check(name + ": count off by one fails",
              bool(wl.reference_mismatches(got, perturbed)))


def check_layer_map():
    unmapped = layers.unmapped_modules()
    check("every imported repro module has a layer", not unmapped,
          ", ".join(unmapped))
    shimmed = {entry[3] for entry in tracing._entries()}
    unshimmed = sorted(set(layers.MODULE_LAYERS.values()) - shimmed)
    check("every mapped layer has a tracer shim", not unshimmed,
          ", ".join(unshimmed))


def main():
    sys.path.insert(0, str(run.SRC))
    check_benchmark_json()
    for name, cls in wl.WORKLOADS.items():
        workload = cls()
        workload.setup()
        for step in (check_tracing, check_reference):
            try:
                step(name, workload)
            except Exception as exc:  # report it and go on to the next
                check("{}: {}".format(name, step.__name__), False,
                      "{}: {}".format(type(exc).__name__, exc))
    check_layer_map()
    print("{} check(s) failed".format(len(failures)) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
