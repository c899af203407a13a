"""The committed goldens, reproduced through both ways of driving the
engine.

Every open-system scheme can be run in two ways: in one call
(``scheme_records``, which drives the scheme's ``open_session`` through
the fleet run loop on a fleet of one) and by hand, one submit and one
event at a time, through the same ``open_session``.  Both must reproduce
the four committed golden traces exactly, not merely agree with each
other.  The spec driver likewise has two ways to a
result — computing each cell, or replaying it from the content-addressed
cache — and both must reproduce the committed smoke-spec metrics.
"""

import json
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, run
from repro.api.cache import ResultCache
from repro.api.schemes import scheme_from_name
from repro.cl import amd_r9_295x2, nvidia_k20m
from repro.harness import OpenSystemExperiment
from repro.workloads import from_name

GOLDEN_DIR = Path(__file__).parent / "goldens"

TRACE_SEED = 5
TRACE_COUNT = 6
TRACE_LOAD = 1.0


def _stream(device):
    """Same stream as tests/test_golden_traces.py builds the fixtures on."""
    return from_name("steady", seed=TRACE_SEED, load=TRACE_LOAD,
                     count=TRACE_COUNT, device=device)


def _batch_payload(device, scheme):
    records = OpenSystemExperiment(device).scheme_records(_stream(device),
                                                          scheme)
    return [[r.name, r.arrival, r.start, r.finish] for r in records]


def _session_payload(device, scheme):
    """Drive the scheme's session the way a streaming run does: advance
    strictly before each arrival, submit it, then drain."""
    arrivals = _stream(device)
    session = scheme_from_name(scheme).open_session(device)
    timings = {}
    for key, arrival in enumerate(arrivals):
        while session.peek() is not None \
                and session.peek() < arrival.time:
            session.step()
        for done, start, finish in session.harvest():
            timings[done] = (start, finish)
        session.submit(key, arrival, arrival.time)
    while session.peek() is not None:
        session.step()
    for done, start, finish in session.harvest():
        timings[done] = (start, finish)
    assert sorted(timings) == list(range(len(arrivals))), \
        "every request finishes exactly once"
    return [[a.name, a.time, *timings[key]]
            for key, a in enumerate(arrivals)]


@pytest.mark.parametrize("fixture, device_factory, scheme", [
    ("trace_fifo_baseline.json", nvidia_k20m, "baseline"),
    ("trace_exclusive_baseline.json", amd_r9_295x2, "baseline"),
    ("trace_accelos.json", nvidia_k20m, "accelos"),
    ("trace_ek.json", nvidia_k20m, "ek"),
])
def test_both_paths_reproduce_the_golden_trace(fixture, device_factory,
                                               scheme):
    stored = json.loads((GOLDEN_DIR / fixture).read_text(encoding="utf-8"))
    batch = _batch_payload(device_factory(), scheme)
    session = _session_payload(device_factory(), scheme)
    assert batch == stored, "batch path drifted from golden " + fixture
    assert session == stored, "session path drifted from golden " + fixture


def test_spec_smoke_golden_holds_under_both_paths(tmp_path):
    spec = ExperimentSpec.from_json(
        (GOLDEN_DIR / "spec_smoke.json").read_text(encoding="utf-8"))
    golden = json.loads(
        (GOLDEN_DIR / "spec_smoke_result.json").read_text(encoding="utf-8"))
    expected = {cell["cell"]["scheme"]: cell["metrics"]
                for cell in golden["cells"]}

    def metric_cells(results):
        return {scheme: {metric: results.metric(metric, scheme=scheme)
                         for metric in metrics}
                for scheme, metrics in expected.items()}

    cache = ResultCache(tmp_path / "cache")
    computed = metric_cells(run(spec, cache_dir=cache))
    assert (cache.hits, cache.stores) == (0, len(expected))
    replayed = metric_cells(run(spec, cache_dir=cache))
    assert cache.hits == len(expected), "second run replays every cell"
    assert computed == expected
    assert replayed == expected
