"""The device engine's running bookkeeping, checked after every event.

Random open-system streams (scenario x scheme x load x seed, with
optional mid-run withdrawals) are driven one event at a time through
``GPUSimulator``'s incremental interface by
:func:`tests.engine_invariants.walk_open_run`, which recomputes every
running total from first principles after each step.  Without
withdrawals the walked run must also reproduce the batch ``run_open``
trace exactly.  At fleet level, :class:`tests.engine_invariants.FleetAudit`
checks conservation across devices after every event of a work-stealing
run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.accelos.placement import (AffinityPlacement,
                                     OfflinePolicyAdapter,
                                     WorkStealingRebalance)
from repro.api.kernels import base_spec, isolated_time, sharing_allocator
from repro.api.schemes import AccelOSScheme, scheme_from_name
from repro.cl import derated_device, nvidia_k20m
from repro.sim import DeviceFleet, ExecutionMode, FleetSimulator, GPUSimulator
from repro.workloads import calibrated_model, from_name, trace_arrivals
from tests.engine_invariants import (FleetAudit, check_invariants,
                                     walk_open_run)

COUNT = 24


def _specs(scheme, arrivals, device):
    if scheme == "accelos":
        accelos = AccelOSScheme()
        return ExecutionMode.ACCELOS, [
            accelos.admission_spec(a, device) for a in arrivals]
    return ExecutionMode.HARDWARE, [
        base_spec(a.name).with_arrival(a.time) for a in arrivals]


def _allocator(mode, device):
    return sharing_allocator(device) if mode == ExecutionMode.ACCELOS \
        else None


def _timings(runs):
    return [(run.spec.name, run.spec.arrival_time, run.start_time,
             run.finish_time) for run in runs]


@settings(max_examples=20, deadline=None)
@given(
    scenario=st.sampled_from(("steady", "bursty", "diurnal", "heavy-tailed",
                              "heavy-lognormal", "multi-tenant")),
    scheme=st.sampled_from(("accelos", "baseline")),
    load=st.sampled_from((0.5, 0.9, 1.3)),
    seed=st.integers(min_value=0, max_value=2**16),
    withdraw=st.sets(st.integers(min_value=0, max_value=COUNT - 1),
                     max_size=4),
)
def test_bookkeeping_holds_after_every_event(scenario, scheme, load, seed,
                                             withdraw):
    device = nvidia_k20m()
    arrivals = from_name(scenario, seed=seed, load=load, count=COUNT,
                         device=device)
    mode, specs = _specs(scheme, arrivals, device)
    finished = walk_open_run(GPUSimulator(device), mode, specs,
                             allocator=_allocator(mode, device),
                             withdraw=withdraw)
    # every request finishes unless it was withdrawn
    assert set(range(len(specs))) - {run.index for run in finished} \
        <= withdraw
    if not withdraw:
        batch = GPUSimulator(device).run_open(
            specs, allocator=_allocator(mode, device))
        assert _timings(finished) == [
            (iv.name, iv.arrival, iv.start, iv.finish)
            for iv in batch.intervals]


# the §8.5 small kernels at 1.4x an 0.8 load: a deep concurrent
# population whose slots queue on fragmented CUs and get shrunk while
# queued (the tombstone path)
SMALL_KERNELS = (
    "mri-gridding_scan_inter1", "mri-q_ComputePhiMag",
    "sad_larger_calc_16", "histo_final", "mri-gridding_scan_L1",
    "sad_larger_calc_8", "mri-gridding_uniformAdd", "histo_prescan",
)


def test_bookkeeping_holds_in_the_deep_pending_regime():
    device = nvidia_k20m()
    model, rate = calibrated_model("multi-tenant", load=0.8,
                                   names=list(SMALL_KERNELS))
    arrivals = list(model.iter_arrivals(rate * 1.4, 500, seed=2016))
    mode, specs = _specs("accelos", arrivals, device)
    deepest = [0]
    tombstones = [0]

    def observe(sim):
        deepest[0] = max(deepest[0], len(sim._pending_slots))
        tombstones[0] += sum(1 for run, _ in sim._pending_slots
                             if run.pending_drop)

    sim = GPUSimulator(device)
    walk_open_run(sim, mode, specs, allocator=_allocator(mode, device),
                  observe=observe)
    assert deepest[0] >= 50
    assert tombstones[0] > 0


def test_the_checker_notices_a_corrupted_running_total():
    device = nvidia_k20m()
    arrivals = from_name("bursty", seed=3, load=1.3, count=COUNT,
                         device=device)
    mode, specs = _specs("accelos", arrivals, device)
    sim = GPUSimulator(device)
    sim.open_begin(mode, allocator=_allocator(mode, device))
    for spec in specs:
        sim.open_submit(spec)
    for _ in range(40):
        sim.open_step()
    check_invariants(sim)
    corruptions = [(sim, "_adm_threads", 1), (sim.cus[0], "slots_free", -1),
                   (sim.bandwidth, "demand", 1e-6 * sim.bandwidth.capacity)]
    for owner, attr, delta in corruptions:
        value = getattr(owner, attr)
        setattr(owner, attr, value + delta)
        with pytest.raises(AssertionError):
            check_invariants(sim)
        setattr(owner, attr, value)
        check_invariants(sim)


# -- fleet level ---------------------------------------------------------------

def _stealing_fleet():
    return DeviceFleet([
        ("fast", nvidia_k20m()),
        ("slow", derated_device(nvidia_k20m(), "K20m-derated", 0.4)),
    ])


def _sticky_stealing():
    """Work stealing around a sticky affinity placement: tenants pile up
    on their home devices and idle devices steal from them (often under
    baseline's firmware queue, rarely under accelOS, which admits fast)."""
    return WorkStealingRebalance(
        inner=OfflinePolicyAdapter(AffinityPlacement(penalty=0.5),
                                   mode="live"),
        penalty=1e-4)


def _audited_run(fleet, scheme, policy, arrivals):
    """One exact fleet run with every session wrapped in a FleetAudit;
    returns ``(audit, placed)``."""
    audit = FleetAudit()
    scheme = scheme_from_name(scheme)
    sessions = audit.wrap([scheme.open_session(member.device)
                           for member in fleet])
    simulator = FleetSimulator(fleet, sessions, policy, isolated_time)
    return audit, simulator.run(arrivals)


@settings(max_examples=12, deadline=None)
@given(scheme=st.sampled_from(("baseline", "accelos")),
       load=st.sampled_from((1.5, 2.5)),
       seed=st.integers(min_value=0, max_value=2**16))
def test_fleet_conservation_holds_after_every_event(scheme, load, seed):
    fleet = _stealing_fleet()
    arrivals = from_name("multi-tenant", seed=seed, load=load, count=COUNT,
                         device=nvidia_k20m())
    audit, placed = _audited_run(fleet, scheme, _sticky_stealing(),
                                 arrivals)
    assert audit.steps > 0
    assert not audit.home
    assert audit.placed == audit.harvested == set(range(COUNT))
    assert [entry.arrival for entry in placed] == list(arrivals)


def test_fleet_audit_sees_migrations_and_notices_a_duplicated_key():
    # a one-tenant burst piled onto one device: the idle device steals
    # from the firmware queue
    fleet = DeviceFleet([("dev0", nvidia_k20m()), ("dev1", nvidia_k20m())])
    arrivals = trace_arrivals([("sgemm", 1e-6 * i, "t0") for i in range(8)])
    audit, placed = _audited_run(fleet, "baseline", _sticky_stealing(),
                                 arrivals)
    assert audit.withdrawals > 0
    assert sum(entry.migrated for entry in placed) == audit.withdrawals

    # a request held by two sessions at once fails the check
    audit = FleetAudit()
    sessions = [scheme_from_name("baseline").open_session(member.device)
                for member in fleet]
    wrapped = audit.wrap(sessions)
    wrapped[0].submit(0, arrivals[0], arrivals[0].time)
    audit.check()
    sessions[1]._entries[0] = sessions[0]._entries[0]
    with pytest.raises(AssertionError):
        audit.check()
