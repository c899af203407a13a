"""Bookkeeping invariants of the device engine, checked from outside.

:class:`~repro.sim.gpu.GPUSimulator` keeps running copies of what a scan
over its runs would compute — admission totals, the live-active set,
pending-slot counters, per-CU free resources, aggregate bandwidth
demand.  :func:`check_invariants` recomputes each of them from first
principles (the run list, the pending-slot queue and the event heap) and
asserts that the running copy agrees; :func:`walk_open_run` drives an
open-system run one submit and one event at a time and checks after
every step, then checks that a drained device is back to full.
"""

import math
from collections import Counter

from repro.sim import ExecutionMode

# BandwidthTracker.demand is a running float sum of rates near 1e11 B/s,
# so it can only match the exact sum of live rates to a relative
# tolerance (scaled by the device capacity, as its own underflow guard).
BANDWIDTH_RTOL = 1e-9


def _footprint(spec):
    return (spec.wg_threads, spec.registers_per_group, spec.local_mem_per_wg)


def _live_work(sim):
    """``(per-run live slot/WG counts, their bandwidth rates)`` read off
    the event heap: every resident WG or software slot has exactly one
    outstanding completion event."""
    live = Counter()
    rates = []
    for _time, _tier, _seq, payload in sim.events._heap:
        if payload is None or payload[0] == "arrival":
            continue
        if payload[0] == "chunk":
            _, run, _cu, slot_index, _done = payload
            rates.append(run.slot_rate[slot_index])
        else:                                   # hardware WG completion
            run, _cu, _wg, rate = payload
            rates.append(rate)
        live[run] += 1
    return live, rates


def check_invariants(sim):
    """Assert every running copy in ``sim`` equals its recomputation."""
    device = sim.device
    live, rates = _live_work(sim)
    queued = Counter(run for run, _slot in sim._pending_slots)
    runs = list(sim.runs)
    # runs outside self.runs (harvested or withdrawn) can still own
    # events or queued entries
    known = set(runs)
    everyone = runs + [run for run in set(live) | set(queued)
                       if run not in known]

    # residency: events, per-run counters and per-CU counts agree; then
    # per-CU free resources = capacity - resident footprints
    used = [[0, 0, 0, 0] for _ in sim.cus]
    for run in everyone:
        assert run.resident == live[run] == sum(run.cu_resident.values()), \
            "resident WGs of {} disagree".format(run.spec.name)
        if run.spec.mode != ExecutionMode.HARDWARE:
            assert run.live_slots == live[run], run.spec.name
        threads, regs, lmem = _footprint(run.spec)
        for cu_index, count in run.cu_resident.items():
            totals = used[cu_index]
            totals[0] += count * threads
            totals[1] += count * regs
            totals[2] += count * lmem
            totals[3] += count
    for cu, (threads, regs, lmem, slots) in zip(sim.cus, used):
        free = (cu.threads_free, cu.registers_free, cu.local_mem_free,
                cu.slots_free)
        assert free == (device.max_threads_per_cu - threads,
                        device.registers_per_cu - regs,
                        device.local_mem_per_cu - lmem,
                        device.max_wgs_per_cu - slots), \
            "CU {} accounts".format(cu.index)
        assert min(free) >= 0, "CU {} oversubscribed".format(cu.index)

    # bandwidth: resident count exact, demand a running float sum
    bandwidth = sim.bandwidth
    assert bandwidth.resident == len(rates)
    assert math.isclose(bandwidth.demand, math.fsum(rates),
                        rel_tol=BANDWIDTH_RTOL,
                        abs_tol=BANDWIDTH_RTOL * bandwidth.capacity), \
        "bandwidth demand {} != live rates {}".format(bandwidth.demand,
                                                      math.fsum(rates))

    # the live-active set and the admission totals
    active = [run for run in runs if run.active and run.finish_time is None]
    assert list(sim._live_active) == active, "live-active set"
    totals = [0, 0, 0]
    for run in active:
        totals[0] += run.spec.wg_threads
        totals[1] += run.spec.local_mem_per_wg
        totals[2] += run.spec.registers_per_group
    assert [sim._adm_threads, sim._adm_lmem, sim._adm_regs] == totals, \
        "admission totals"

    # pending slots: queue entries = live counters + tombstones, and the
    # per-footprint index counts the live ones
    footprints = Counter()
    for run in everyone:
        assert queued[run] == run.pending_slots + run.pending_drop, \
            "pending-slot counters of {}".format(run.spec.name)
        if run.pending_slots:
            footprints[_footprint(run.spec)] += run.pending_slots
    assert sim._pending_footprints == dict(footprints), "pending footprints"


def check_drained(sim):
    """After the last event of a harvested run: every run finished, every
    resource free."""
    check_invariants(sim)
    assert not sim.events
    assert not sim.runs, "every submitted run finished and was harvested"
    device = sim.device
    for cu in sim.cus:
        assert (cu.threads_free, cu.registers_free, cu.local_mem_free,
                cu.slots_free) == (device.max_threads_per_cu,
                                   device.registers_per_cu,
                                   device.local_mem_per_cu,
                                   device.max_wgs_per_cu)
    assert sim.bandwidth.resident == 0
    assert not sim._live_active
    assert (sim._adm_threads, sim._adm_lmem, sim._adm_regs) == (0, 0, 0)


def walk_open_run(sim, mode, specs, allocator=None, withdraw=(),
                  observe=None):
    """Run ``specs`` (sorted by arrival) through ``sim``'s incremental
    interface, harvesting finished runs and checking the invariants after
    every submit, event and withdrawal; returns the finished runs in spec
    order.

    Specs whose index is in ``withdraw`` are withdrawn at the first step
    after their arrival at which they are still withdrawable (those that
    start first are left alone, and run to completion).  ``observe(sim)``,
    if given, runs after every event.
    """
    candidates = []
    finished = []

    def step():
        sim.open_step()
        finished.extend(sim.open_harvest())
        check_invariants(sim)
        if observe is not None:
            observe(sim)
        for run in list(candidates):
            if not sim.open_withdrawable(run):
                candidates.remove(run)
            elif sim.events.now >= run.spec.arrival_time:
                sim.open_withdraw(run)
                check_invariants(sim)
                candidates.remove(run)

    sim.open_begin(mode, allocator=allocator)
    for index, spec in enumerate(specs):
        while (sim.open_peek() is not None
               and sim.open_peek() < spec.arrival_time):
            step()
        run = sim.open_submit(spec, index=index)
        check_invariants(sim)
        if index in withdraw:
            candidates.append(run)
    while sim.open_peek() is not None:
        step()
    check_drained(sim)
    return sorted(finished, key=lambda run: run.index)


# -- fleet level ---------------------------------------------------------------

class FleetAudit:
    """Fleet-level conservation, checked from outside the run loop.

    :meth:`wrap` puts a proxy around every device session handed to a
    :class:`~repro.sim.fleet.FleetSimulator`.  The proxies record every
    submit, withdraw and harvest, and after every ``step()`` of any
    session :meth:`check` asserts, against the sessions' own request
    tables (:class:`~repro.api.schemes.GpuOpenSession`), that

    * each outstanding request key is held by exactly one session, the
      one the recorded submits and withdrawals put it on;
    * placed = harvested + outstanding, the two disjoint.
    """

    def __init__(self):
        self.sessions = []
        self.home = {}          # outstanding key -> recorded session index
        self.placed = set()
        self.harvested = set()
        self.steps = 0
        self.withdrawals = 0

    def wrap(self, sessions):
        self.sessions = list(sessions)
        return [_AuditedSession(self, index, session)
                for index, session in enumerate(self.sessions)]

    def check(self):
        held = Counter()
        for index, session in enumerate(self.sessions):
            for key in session._entries:
                held[key] += 1
                assert self.home.get(key) == index, \
                    "request {} is held by session {}, recorded on {}" \
                    .format(key, index, self.home.get(key))
        duplicated = [key for key, count in held.items() if count > 1]
        assert not duplicated, "held by several sessions: {}".format(
            duplicated)
        outstanding = set(held)
        assert outstanding == set(self.home), "outstanding keys"
        assert not outstanding & self.harvested, "harvested twice"
        assert self.placed == self.harvested | outstanding, \
            "placed != harvested + outstanding"


class _AuditedSession:
    """Forwards the device-session protocol to one real session and
    reports every state change to its :class:`FleetAudit`."""

    def __init__(self, audit, index, session):
        self._audit = audit
        self._index = index
        self._session = session

    def __getattr__(self, name):
        # queued, backlog_seconds, active_count, events_processed
        return getattr(self._session, name)

    def submit(self, key, arrival, effective_time):
        self._session.submit(key, arrival, effective_time)
        self._audit.placed.add(key)
        self._audit.home[key] = self._index

    def withdraw(self, key):
        effective = self._session.withdraw(key)
        del self._audit.home[key]
        self._audit.withdrawals += 1
        return effective

    def peek(self):
        return self._session.peek()

    def step(self):
        result = self._session.step()
        self._audit.steps += 1
        self._audit.check()
        return result

    def harvest(self):
        finished = self._session.harvest()
        for key, _start, _finish in finished:
            assert self._audit.home.pop(key) == self._index, \
                "request {} harvested from the wrong session".format(key)
            self._audit.harvested.add(key)
        return finished
