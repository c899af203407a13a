"""Digest corpus: frozen per-request timings of the device engine.

Every case below replays one deterministic pipeline and hashes what it
produced — per-request ``(name, arrival, start, finish)`` tuples, plus
the few extra observables a case pins (placement plans, migration and
event counts) — with sha256.  ``tests/goldens/engine_digests.json``
stores one digest per case; ``==`` on the hex strings detects *any*
drift, down to the last bit of a float (tuples are serialised through
``json``, whose float encoding is ``repr``: shortest round-tripping).

The corpus covers the regimes the engine's bookkeeping can get wrong:

* ``grid/...`` — six scenarios x {baseline, ek, accelos} x loads
  {0.5, 0.9, 1.3} x two seeds, 24 requests each, through
  ``scheme_records`` on one K20m (generated on the per-scheme batch
  record paths, before every run went through ``FleetSimulator``);
* ``stealing/...`` — a fast/slow work-stealing fleet, where queued
  runs are withdrawn from one device and replayed on another;
* ``share-ratio/...`` — §2.2 weighted closed batches, through
  ``KernelScheduler.plan_batch``, ``AccelOSRuntime.drain`` and the
  timing simulator;
* ``burst/...`` — 5000 bursty multi-tenant §8.5 small-kernel requests
  at 1.4x an 0.8 load, on one device and on a two-device fleet: the
  deep pending-slot regime, through the harvesting session loop;
* ``offline/...`` — a fast/slow fleet under the three offline placement
  policies with ``mode="offline"``: placement decisions and records;
* ``attributed/...`` — a single-device exact run with an attribution
  ledger: records and the ledger's report;
* ``exact-fleet/...`` — exact fleet runs under least-loaded placement,
  with and without work-stealing re-balancing.

Regenerating
------------

When an intentional timing-model change shifts these digests, rerun

    PYTHONPATH=src python -m pytest tests/test_engine_digests.py \
        --regen-goldens

and commit the fixture diff with the change that caused it, stating the
cause.  Without the flag, drift fails the build.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.accelos import AccelOSRuntime
from repro.accelos.adaptive import effective_chunk
from repro.accelos.placement import (AffinityPlacement,
                                     LeastLoadedPlacement,
                                     RoundRobinPlacement)
from repro.accelos.sharing import compute_allocations
from repro.api.kernels import (base_spec, chunk_for_profile,
                               requirements_from_spec)
from repro.attribution import AttributionLedger
from repro.cl import NDRange, amd_r9_295x2, derated_device, nvidia_k20m
from repro.harness import (FleetOpenSystemExperiment, OpenSystemExperiment,
                           fleet_arrival_rate_for_load)
from repro.kernelc import types as T
from repro.metrics.sketches import StreamingRecordSink
from repro.sim import DeviceFleet, ExecutionMode, GPUSimulator
from repro.workloads import calibrated_model, from_name, scenario
from repro.workloads.parboil import profile_by_name

GOLDEN = Path(__file__).parent / "goldens" / "engine_digests.json"


def digest(payload):
    """sha256 of a JSON-serialisable payload (floats via ``repr``)."""
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_tuples(records):
    return [[r.name, float(r.arrival), float(r.start), float(r.finish)]
            for r in records]


class _RecordingSink(StreamingRecordSink):
    """A streaming sink that also keeps every observed record tuple, in
    harvest order."""

    def __init__(self):
        super().__init__()
        self.tuples = []

    def observe(self, record):
        self.tuples.append(record_tuples([record])[0])
        super().observe(record)


def _recording_factory():
    sinks = []

    def factory():
        sink = _RecordingSink()
        sinks.append(sink)
        return sink
    return sinks, factory


# -- grid: scenario x scheme x load x seed ------------------------------------

SCENARIOS = ("steady", "bursty", "diurnal", "heavy-tailed",
             "heavy-lognormal", "multi-tenant")
SCHEMES = ("baseline", "ek", "accelos")
LOADS = (0.5, 0.9, 1.3)
SEEDS = (11, 2016)
GRID_COUNT = 24


def _grid_case(scenario, scheme, load, seed):
    device = nvidia_k20m()
    stream = from_name(scenario, seed=seed, load=load, count=GRID_COUNT,
                       device=device)
    records = OpenSystemExperiment(device).scheme_records(stream, scheme)
    return record_tuples(records)


# -- work-stealing migrations -------------------------------------------------

STEALING_SEEDS = (2016, 7, 23)


def _stealing_case(seed):
    fleet = DeviceFleet([
        ("fast", nvidia_k20m()),
        ("slow", derated_device(nvidia_k20m(), "K20m-derated", 0.4)),
    ])
    stream = from_name("multi-tenant", seed=seed, load=1.5, count=48,
                       device=nvidia_k20m())
    sinks, factory = _recording_factory()
    result = FleetOpenSystemExperiment(fleet).run_stream(
        iter(stream), "accelos", "least-loaded", mode="online",
        rebalance="work-stealing", sink_factory=factory)
    return {"sinks": [sink.tuples for sink in sinks],
            "migrations": result.migrations,
            "rebalances": result.rebalances}


# -- share_ratio closed batches -----------------------------------------------

_WORK_SOURCE = """
kernel void work(global float* a)
{
    size_t g = get_global_id(0);
    a[g] = a[g] + 1.0f;
}
"""

_TILE_SOURCE = """
kernel void tile(global float* a)
{
    local float t[64];
    size_t l = get_local_id(0);
    size_t g = get_global_id(0);
    t[l] = a[g];
    barrier(CLK_LOCAL_MEM_FENCE);
    a[g] = t[l] * 2.0f;
}
"""

# (source, kernel name, global size, work-group size) per submission;
# drains execute on the interpreter, so they run small launches on a
# one-CU device, where 16 groups of each already contend
_SUBMISSIONS = (
    (_WORK_SOURCE, "work", 1024, 64),
    (_TILE_SOURCE, "tile", 512, 32),
    (_WORK_SOURCE, "work", 2048, 128),
)


def _submit(runtime, index, source, kernel_name, n, wg):
    app = runtime.session("app{}".format(index))
    kernel = app.create_program(source).build().create_kernel(kernel_name)
    buf = app.create_buffer(T.FLOAT, n)
    queue = app.create_queue()
    queue.enqueue_write_buffer(buf, np.zeros(n, dtype=np.float32))
    kernel.set_args(buf)
    queue.enqueue_nd_range(kernel, NDRange((n,), (wg,)))
    return kernel


def _plan_tuples(plans):
    return [[plan.kernel.name, plan.nd_range.num_groups,
             plan.physical_groups, plan.chunk] for plan in plans]


DRAIN_RATIOS = {"3-1": [3.0, 1.0], "1-1": [1.0, 1.0],
                "1-2-5": [1.0, 2.0, 5.0], "quarter-4": [0.25, 4.0]}


def _drain_case(ratio):
    runtime = AccelOSRuntime(
        derated_device(nvidia_k20m(), "K20m-1cu", cu_scale=1 / 13))
    for index, submission in enumerate(_SUBMISSIONS[:len(ratio)]):
        _submit(runtime, index, *submission)
    return _plan_tuples(runtime.drain(share_ratio=ratio))


# plan_batch never executes, so it can take launches far larger than the
# device: (kernel index into _SUBMISSIONS, global size, work-group size)
PLAN_BATCHES = {
    "wide": ([(0, 1 << 20, 256), (1, 1 << 18, 32), (2, 1 << 19, 128)],
             [1.0, 3.0, 7.0]),
    "skewed": ([(0, 1 << 18, 256), (0, 1 << 18, 256)], [9.0, 1.0]),
    "tiny-weight": ([(1, 1 << 16, 32), (2, 1 << 20, 128), (0, 1 << 12, 256)],
                    [0.01, 1.0, 1.0]),
}


def _plan_batch_case(name):
    launches, ratio = PLAN_BATCHES[name]
    runtime = AccelOSRuntime(amd_r9_295x2())
    kernels = [_submit(runtime, index, *submission)
               for index, submission in enumerate(_SUBMISSIONS)]
    runtime.pending = []        # plan only: nothing is executed
    requests = [(kernels[k], NDRange((n,), (wg,))) for k, n, wg in launches]
    return _plan_tuples(runtime.scheduler.plan_batch(requests,
                                                     share_ratio=ratio))


# weighted closed batches of corpus kernels through the timing simulator
SIM_BATCHES = {
    "pair-3-1": (("sgemm", "spmv"), [3.0, 1.0]),
    "trio": (("histo_main", "mri-q_ComputeQ", "sad_calc_8"),
             [1.0, 2.0, 4.0]),
    "quad-skew": (("bfs", "cutcp", "stencil", "lbm"), [8.0, 1.0, 1.0, 2.0]),
}


def _sim_batch_case(name, device_factory):
    names, ratio = SIM_BATCHES[name]
    device = device_factory()
    specs = [base_spec(n) for n in names]
    allocations = compute_allocations(
        [requirements_from_spec(s) for s in specs], device,
        share_ratio=ratio)
    batch = []
    for kernel, spec, allocation in zip(names, specs, allocations):
        chunk = effective_chunk(chunk_for_profile(profile_by_name(kernel)),
                                spec.total_groups, allocation.groups)
        batch.append(spec.with_mode(ExecutionMode.ACCELOS,
                                    physical_groups=allocation.groups,
                                    chunk=chunk))
    trace = GPUSimulator(device).run(batch)
    return {"groups": [a.groups for a in allocations],
            "intervals": [[iv.name, float(iv.arrival), float(iv.start),
                           float(iv.finish)] for iv in trace.intervals]}


# -- the bursty small-kernel stream -------------------------------------------

BURST_COUNT = 5000
BURST_SEED = 2016
BURST_LOAD = 0.8
BURST_FACTOR = 1.4
SMALL_KERNELS = (
    "mri-gridding_scan_inter1", "mri-q_ComputePhiMag",
    "sad_larger_calc_16", "histo_final", "mri-gridding_scan_L1",
    "sad_larger_calc_8", "mri-gridding_uniformAdd", "histo_prescan",
)


def _burst_stream():
    model, rate = calibrated_model("multi-tenant", load=BURST_LOAD,
                                   names=list(SMALL_KERNELS))
    return model.iter_arrivals(rate * BURST_FACTOR, BURST_COUNT,
                               seed=BURST_SEED)


def _burst_device_case():
    experiment = OpenSystemExperiment(nvidia_k20m())
    sinks, factory = _recording_factory()
    experiment.run_stream(_burst_stream(), "accelos", sink_factory=factory)
    return {"sinks": [sink.tuples for sink in sinks],
            "events": experiment.events_processed}


def _burst_fleet_case():
    experiment = FleetOpenSystemExperiment(DeviceFleet([
        ("fast", nvidia_k20m()),
        ("slow", derated_device(nvidia_k20m(), "K20m-derated", 0.5)),
    ]))
    sinks, factory = _recording_factory()
    experiment.run_stream(_burst_stream(), "accelos", "least-loaded",
                          sink_factory=factory)
    return {"sinks": [sink.tuples for sink in sinks],
            "events": experiment.events_processed}


# -- offline placement, attribution and exact fleet runs ----------------------

OFFLINE_POLICIES = {"round-robin": RoundRobinPlacement,
                    "least-loaded": LeastLoadedPlacement,
                    "affinity": AffinityPlacement}


def _hetero_fleet():
    return DeviceFleet([
        ("fast", nvidia_k20m()),
        ("slow", derated_device(nvidia_k20m(), "K20m-derated",
                                clock_scale=0.4, cu_scale=0.5)),
    ])


def _fleet_result_payload(result):
    return {"decisions": [[d.index, d.penalty, d.pinned]
                          for d in result.decisions],
            "records": record_tuples(result.overall.records),
            "per_device": {device_id: record_tuples(device.records)
                           for device_id, device
                           in sorted(result.per_device.items())},
            "migrations": result.migrations,
            "rebalances": result.rebalances}


def _offline_case(scheme, policy):
    fleet = _hetero_fleet()
    rate = fleet_arrival_rate_for_load(1.5, fleet)
    stream = scenario("multi-tenant").generate(rate, 40, seed=2016)
    result = FleetOpenSystemExperiment(fleet).run(
        stream, scheme, OFFLINE_POLICIES[policy](), mode="offline")
    return _fleet_result_payload(result)


def _attributed_case(scheme):
    device = nvidia_k20m()
    stream = from_name("multi-tenant", seed=2016, load=1.2, count=32,
                       device=device)
    ledger = AttributionLedger([device.name])
    result = OpenSystemExperiment(device).run(stream, scheme, ledger=ledger)
    return {"records": record_tuples(result.records),
            "attribution": result.attribution.to_dict()}


def _exact_fleet_case(scheme):
    # seed and load chosen so baseline and EK each steal once
    fleet = DeviceFleet([
        ("fast", nvidia_k20m()),
        ("slow", derated_device(nvidia_k20m(), "K20m-derated", 0.4)),
    ])
    stream = from_name("multi-tenant", seed=1, load=2.5, count=40,
                       device=nvidia_k20m())
    experiment = FleetOpenSystemExperiment(fleet)
    auto = experiment.run(stream, scheme, "least-loaded")
    stealing = experiment.run(stream, scheme, "least-loaded", mode="online",
                              rebalance="work-stealing")
    return {"auto": _fleet_result_payload(auto),
            "stealing": _fleet_result_payload(stealing)}


# -- the corpus ---------------------------------------------------------------

def _cases():
    cases = {}
    for scenario in SCENARIOS:
        for scheme in SCHEMES:
            for load in LOADS:
                for seed in SEEDS:
                    cases["grid/{}/{}/{}/{}".format(
                        scenario, scheme, load, seed)] = (
                        lambda a=(scenario, scheme, load, seed):
                        _grid_case(*a))
    for seed in STEALING_SEEDS:
        cases["stealing/{}".format(seed)] = lambda s=seed: _stealing_case(s)
    for name, ratio in DRAIN_RATIOS.items():
        cases["share-ratio/drain/" + name] = lambda r=ratio: _drain_case(r)
    for name in PLAN_BATCHES:
        cases["share-ratio/plan-batch/" + name] = \
            lambda n=name: _plan_batch_case(n)
    for name in SIM_BATCHES:
        for device_factory in (nvidia_k20m, amd_r9_295x2):
            cases["share-ratio/sim/{}/{}".format(
                name, device_factory.__name__)] = (
                lambda n=name, f=device_factory: _sim_batch_case(n, f))
    cases["burst/device"] = _burst_device_case
    cases["burst/fleet"] = _burst_fleet_case
    for scheme in SCHEMES:
        for policy in OFFLINE_POLICIES:
            cases["offline/{}/{}".format(scheme, policy)] = (
                lambda a=(scheme, policy): _offline_case(*a))
        cases["attributed/" + scheme] = lambda s=scheme: _attributed_case(s)
        cases["exact-fleet/" + scheme] = \
            lambda s=scheme: _exact_fleet_case(s)
    return cases


CASES = _cases()


def compute_digests(names=None):
    """``{case: digest}`` for the named cases (all by default)."""
    return {name: digest(CASES[name]())
            for name in (sorted(CASES) if names is None else names)}


def _stored():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_covers_every_case(regen_goldens):
    if regen_goldens:
        GOLDEN.write_text(json.dumps(compute_digests(), indent=2,
                                     sort_keys=True) + "\n",
                          encoding="utf-8")
    assert sorted(_stored()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_digest(case):
    assert compute_digests([case])[case] == _stored()[case], \
        "engine output drifted on " + case
