"""The benchmark's three workloads and their correctness checks.

Each workload is open-loop in *simulated* time: the scenario's arrival
process runs at a stated offered load and requests queue while the
device is busy.  In *host* time a run is a batch from one process with
one thread and no process pool, so the host metric is requests
completed per second at a fixed stream length.

* ``device-burst`` -- one K20m, scheme ``accelos``, streaming metrics.
  The multi-tenant scenario restricted to the eight section 8.5 small
  kernels at load 0.8 x burst 1.4 (the stream ``bench_engine.py`` and
  the engine baseline in ROADMAP.md use), through
  ``OpenSystemExperiment.run_stream``.  Per-event device-engine cost
  dominates; the fleet, firmware-dispatch and driver layers do nothing.
* ``fleet-steal`` -- ``specs/fleet-steal.json`` through
  ``repro.api.driver.run``: 4 stock K20m + 4 at half clock,
  multi-tenant at load 1.0, online work-stealing placement and
  re-balance, baseline and accelOS, streaming metrics, attribution on.
  The fleet loop (per-event merge over every device, status walks,
  placement, re-balance) and the attribution ledger do most of their
  work here.  Baseline is included because only its firmware queue
  leaves stealable work.
* ``spec-exact`` -- ``specs/spec-exact.json`` through the
  ``python -m repro.api.run`` entry point (``main``, in process): one
  K20m, heavy-tailed scenario at loads 0.7 and 1.0, baseline, EK and
  accelOS, exact metrics, serial, no cache.  Materialised streams, the
  eager ``open_records`` paths (hardware-mode dispatch, EK merged-launch
  replay), exact record lists and tails and ``ResultSet.to_json``.  It
  also shows a known defect on purpose: exact-mode baseline never
  prunes finished runs, so its firmware dispatch walks every run ever
  submitted.

Nothing here imports ``repro`` at module level: ``run.py`` times the
import as part of set-up.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_DIR = HERE / "specs"
OUT_DIR = HERE / "out"
REFERENCE_PATH = HERE / "reference.json"

DEFAULT_SEED = 2016
HELD_OUT_SEED = 4099
REFERENCE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
# relative tolerance of the reference comparison: wide enough for a
# change of float summation order (about 1e-13 relative on these
# streams), far below what one changed scheduling decision moves
REL_TOL = 1e-9

# the section 8.5 small kernels of benchmarks/bench_engine.py
SMALL_KERNELS = (
    "mri-gridding_scan_inter1", "mri-q_ComputePhiMag",
    "sad_larger_calc_16", "histo_final", "mri-gridding_scan_L1",
    "sad_larger_calc_8", "mri-gridding_uniformAdd", "histo_prescan",
)


def stream_seed(seed, unit):
    """Seed of the ``unit``-th stream of a run seeded ``seed``."""
    return seed * 1000 + unit


def result_outputs(result):
    """The simulated outputs of one harness result, as plain numbers."""
    out = {
        "count": result.count,
        "antt": result.antt,
        "stp": result.stp,
        "unfairness": result.unfairness,
        "p99_slowdown": result.slowdown_tails.p99,
        "mean_queueing_delay": result.mean_queueing_delay,
        "makespan": result.makespan,
    }
    if hasattr(result, "rebalances"):
        out["rebalances"] = result.rebalances
        out["migrations"] = result.migrations
    attribution = getattr(result, "attribution", None)
    if attribution is not None:
        out["tenant_occupancy"] = attribution.tenant_occupancy
        out["cross_tenant_induced_share"] = \
            attribution.cross_tenant_induced_share
        out["max_cross_tenant_induced_p99"] = \
            attribution.max_cross_tenant_induced_p99
    return out


class DeviceBurst:
    name = "device-burst"
    why = ("one K20m, accelOS, bursty small-kernel stream: per-event "
           "device-engine cost dominates, fleet and driver layers idle")
    unit_count = 3000
    check_count = 1000
    headline_cell = "accelos"
    scenario = "multi-tenant"
    load = 0.8
    burst = 1.4

    def setup(self):
        from repro.api.kernels import warm_caches
        from repro.cl import nvidia_k20m
        from repro.harness import OpenSystemExperiment
        from repro.workloads import calibrated_model
        device = nvidia_k20m()
        warm_caches(devices=[device], names=list(SMALL_KERNELS))
        self.model, rate = calibrated_model(
            self.scenario, load=self.load, device=device,
            names=list(SMALL_KERNELS))
        self.rate = rate * self.burst
        self.experiment = OpenSystemExperiment(device)

    def cells(self):
        return 1

    def run(self, seed, count, tracer=None):
        arrivals = self.model.iter_arrivals(self.rate, count, seed=seed)
        if tracer is not None:
            arrivals = tracer.iter_layer(arrivals)
        result = self.experiment.run_stream(arrivals, "accelos")
        return {"accelos": result_outputs(result)}


class _SpecWorkload:
    """A workload defined by a committed ``ExperimentSpec`` template; a
    run replaces its ``seeds`` and ``count``."""

    spec_file = None

    def setup(self):
        # the driver builds its device or fleet per run, inside the
        # timed section; warm_caches builds every device once here
        from repro.api.kernels import warm_caches
        from repro.api.spec import ExperimentSpec
        self.template = ExperimentSpec.from_json(
            (SPEC_DIR / self.spec_file).read_text(encoding="utf-8"))
        warm_caches(self.template)
        self.unit_count = self.template.count

    def cells(self):
        return self.template.cell_count()

    def spec(self, seed, count):
        return dataclasses.replace(self.template, seeds=(seed,),
                                   count=count)


class FleetSteal(_SpecWorkload):
    name = "fleet-steal"
    why = ("8-device mixed-speed fleet, work-stealing, attribution on: "
           "the fleet merge, status walks, placement and ledger dominate")
    spec_file = "fleet-steal.json"
    check_count = 100
    headline_cell = "accelos/work-stealing/1.0"

    def run(self, seed, count, tracer=None):
        from repro.api.driver import run as run_spec
        results = run_spec(self.spec(seed, count))
        return {"{}/{}/{!r}".format(cell.scheme, cell.placement, cell.load):
                result_outputs(result) for cell, result in results}


class SpecExact(_SpecWorkload):
    name = "spec-exact"
    why = ("spec CLI, heavy-tailed, three schemes, exact metrics: eager "
           "record paths, hardware dispatch and JSON results dominate")
    spec_file = "spec-exact.json"
    check_count = 200
    headline_cell = "accelos/1.0"

    def run(self, seed, count, tracer=None):
        cli = importlib.import_module("repro.api.run")
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
            spec_path = Path(scratch) / "spec.json"
            out_path = Path(scratch) / "result.json"
            spec_path.write_text(self.spec(seed, count).to_json(),
                                 encoding="utf-8")
            code = cli.main([str(spec_path), "--quiet",
                             "--out", str(out_path)])
            if code != 0:
                raise RuntimeError("repro.api.run exited {}".format(code))
            document = json.loads(out_path.read_text(encoding="utf-8"))
        return {"{}/{!r}".format(entry["cell"]["scheme"],
                                 entry["cell"]["load"]): entry["metrics"]
                for entry in document["cells"]}


WORKLOADS = {w.name: w for w in (DeviceBurst, FleetSteal, SpecExact)}


# -- correctness --------------------------------------------------------------

def invariant_errors(outputs, expected_cells, count):
    """Checks every run's outputs must pass, whatever the seed: every
    cell present, every value finite, the ratios in range and every
    request accounted for.  Returns ``{cell: [message, ...]}``."""
    bad = {}
    if len(outputs) != expected_cells:
        bad["*"] = ["{} cells, expected {}".format(len(outputs),
                                                   expected_cells)]
    for cell, values in outputs.items():
        errors = ["{} = {!r}".format(key, value)
                  for key, value in values.items()
                  if not isinstance(value, (int, float))
                  or not math.isfinite(value)]
        if "count" in values and values["count"] != count:
            errors.append("{} requests completed of {}".format(
                values["count"], count))
        if not values.get("unfairness", 0) >= 1.0:
            errors.append("unfairness < 1")
        for key in ("antt", "stp", "p99_slowdown", "makespan"):
            if not values.get(key, 0) > 0:
                errors.append("{} <= 0".format(key))
        if not values.get("mean_queueing_delay", -1) >= 0:
            errors.append("negative queueing delay")
        if errors:
            bad[cell] = errors
    return bad


def reference_mismatches(outputs, expected):
    """Cells of ``outputs`` that differ from the committed ``expected``
    outputs: ``{cell: [message, ...]}``.  Integers must match exactly,
    floats to :data:`REL_TOL`."""
    bad = {}
    for cell in sorted(set(outputs) | set(expected)):
        got = outputs.get(cell)
        want = expected.get(cell)
        if got is None or want is None:
            bad[cell] = ["cell missing from {}".format(
                "the run" if got is None else "the reference")]
            continue
        messages = []
        for key in sorted(set(got) | set(want)):
            a, b = got.get(key), want.get(key)
            if isinstance(a, bool) or isinstance(b, bool) \
                    or not isinstance(a, (int, float)) \
                    or not isinstance(b, (int, float)):
                ok = a == b
            elif isinstance(a, int) and isinstance(b, int):
                ok = a == b
            else:
                ok = math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
            if not ok:
                messages.append("{}: got {!r}, expected {!r}".format(
                    key, a, b))
        if messages:
            bad[cell] = messages
    return bad


def load_reference():
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
