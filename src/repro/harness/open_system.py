"""Open-system experiments: continuous arrivals under pluggable schemes.

The closed-batch harness (:mod:`repro.harness.experiment`) submits every
kernel at t=0 and measures one drain; a real accelOS deployment instead
serves a *stream* of requests.  This module evaluates that steady-state
regime with the paper's STP/ANTT methodology (Eyerman & Eeckhout [10])
extended with per-request queueing delay.

Scheme execution itself lives on the registered scheme objects
(:mod:`repro.api.schemes`): ``baseline`` (firmware FIFO/exclusive queue),
``ek`` (Elastic Kernels' serialised merged launches) and ``accelos``
(the §3 sharing algorithm re-run on every arrival and completion) are
pre-registered, and any user-registered scheme with an ``open_session``
runs through these experiments unchanged.

Every run — single device or fleet, exact or streaming, attributed or
not — goes through one loop, :class:`repro.sim.fleet.FleetSimulator`,
over one session per device: :class:`OpenSystemExperiment` is a fleet of
one.  The harness only turns harvested completions into records (one
callback feeding the attribution ledger, then the overall sink, then the
per-device sink) and records into metrics.

Per-request metrics measure turnaround from *arrival* (queueing included),
normalised by the kernel's isolated execution time — the open-system
analogue of the paper's individual slowdown.

**Inputs:** an arrival stream (:class:`repro.workloads.arrivals.ArrivalRequest`
lists, usually from the seeded generators) plus a device — or, for
:class:`FleetOpenSystemExperiment`, a :class:`repro.sim.fleet.DeviceFleet`
and a placement policy.  **Invariants:** exact runs return records in the
stream's submission order, one per arrival (conservation); every
experiment is a pure function of its inputs (same stream → bit-identical
metrics); the accelOS scheme re-runs the §3 allocator on every arrival
and completion of the device serving the request.

Fleet runs place each request on exactly one device and report both
per-device results and fleet-wide aggregates.  Fleet slowdowns are
normalised by the *best* isolated time across the fleet, so being routed
to a slow device legitimately counts as slowdown — the user-perceived
metric for a heterogeneous deployment.
"""

from __future__ import annotations

import numpy as np

from repro.accelos.adaptive import SchedulingPolicy
from repro.accelos.placement import (OfflinePolicyAdapter,
                                     OnlinePlacementPolicy, PlacementDecision,
                                     RoundRobinPlacement)
# re-exported under their historical home: these primitives now live in
# repro.api.kernels so schemes below the harness can share them
from repro.api.kernels import (arrival_rate_for_load,  # noqa: F401
                               fleet_arrival_rate_for_load, isolated_time,
                               mean_isolated_service, requirements_from_spec,
                               sharing_allocator)
from repro.api.placements import placement_from_name, rebalancer_from_name
from repro.api.schemes import (RequestRecord, open_scheme_names,
                               scheme_from_name)
from repro.errors import SimulationError
from repro.metrics import (StreamingRecordSink, antt, individual_slowdowns,
                           request_tails, stp, system_unfairness)
from repro.sim.fleet import DeviceFleet, FleetSimulator


class OpenSystemResult:
    """Stream-level metrics of one scheme over one arrival stream.

    Built either from a retained record list (the exact path — every
    metric computed over the full population) or from a
    :class:`~repro.metrics.sketches.StreamingRecordSink`
    (:meth:`from_sink` — bounded-memory online accumulators, percentile
    fields are P² estimates, ``records``/``slowdowns`` are ``None``).
    Both forms expose the identical metric surface, so the METRICS
    registry and every report work unchanged.
    """

    def __init__(self, scheme, device_name, records):
        if not records:
            raise SimulationError("no request records")
        self.scheme = scheme
        self.device_name = device_name
        self.records = records
        self.count = len(records)
        turnarounds = [r.turnaround for r in records]
        isolated = [r.isolated for r in records]
        self.slowdowns = individual_slowdowns(turnarounds, isolated)
        self.unfairness = system_unfairness(self.slowdowns)
        self.antt = antt(self.slowdowns)
        self.stp = stp(self.slowdowns)
        self.mean_turnaround = float(np.mean(turnarounds))
        self.mean_queueing_delay = float(
            np.mean([r.queueing_delay for r in records]))
        self.makespan = max(r.finish for r in records)
        (self.slowdown_tails, self.queueing_tails,
         self.tenant_slowdown_tails) = request_tails(records)

    @classmethod
    def from_sink(cls, scheme, device_name, sink):
        """Build the streaming twin from a non-empty record sink."""
        if sink.count == 0:
            raise SimulationError("no request records")
        stats = sink.slowdown.stats
        if stats.min <= 0:
            # mirrors metrics.fairness.system_unfairness
            raise SimulationError("slowdowns must be positive")
        self = object.__new__(cls)
        self.scheme = scheme
        self.device_name = device_name
        self.records = None             # not retained: bounded memory
        self.count = sink.count
        self.slowdowns = None
        self.unfairness = stats.max / stats.min
        self.antt = stats.mean
        self.stp = sink.inverse_slowdown_sum
        self.mean_turnaround = sink.turnaround.mean
        self.mean_queueing_delay = sink.queueing.stats.mean
        self.makespan = sink.finish.max
        self.slowdown_tails = sink.slowdown.summary()
        self.queueing_tails = sink.queueing.summary()
        self.tenant_slowdown_tails = sink.tenant_summaries()
        return self

    @property
    def p99_slowdown(self):
        """The headline tail metric: 99th-percentile request slowdown."""
        return self.slowdown_tails.p99

    @property
    def request_throughput(self):
        """Completed requests per second of simulated time."""
        return self.count / self.makespan

    def __repr__(self):
        return ("<OpenSystemResult {} {} reqs: U={:.2f} ANTT={:.2f}>"
                .format(self.scheme, self.count, self.unfairness,
                        self.antt))


class _FleetLoop:
    """What both experiments share: a fleet, the scheme knobs, and the
    one method that runs a stream through :class:`FleetSimulator`."""

    def __init__(self, fleet, policy, saturate):
        self.fleet = fleet
        self.policy = policy
        self.saturate = saturate

    def reference_isolated(self, name):
        """Best isolated time across the fleet: the slowdown denominator."""
        return min(isolated_time(name, member.device)
                   for member in self.fleet)

    def _simulate(self, arrivals, scheme, placement, ledger=None,
                  sink_factory=None):
        """Run one stream through the fleet loop.

        Exact mode (``sink_factory=None``): ``arrivals`` is a list,
        replayed in ``(time, index)`` order; returns ``(simulator, placed,
        records, penalised)``, ``placed`` and ``records`` indexed by
        stream position.  Streaming mode: ``arrivals`` is a lazy
        time-ordered iterable; returns ``(simulator, overall_sink,
        device_sinks, penalised)`` with ``device_sinks`` keyed by device
        id (on a fleet of one, the overall sink).  ``penalised`` counts
        the requests charged a migration penalty.  Sets
        ``events_processed`` either way.
        """
        fleet = self.fleet
        sessions = [scheme.open_session(member.device, policy=self.policy,
                                        saturate=self.saturate)
                    for member in fleet]
        simulator = FleetSimulator(fleet, sessions, placement,
                                   estimator=isolated_time, ledger=ledger)
        best = {}                       # kernel name -> reference isolated
        overall = device_sinks = None
        penalised = 0
        if sink_factory is None:
            if not arrivals:
                raise SimulationError("empty arrival stream")
            order = sorted(range(len(arrivals)),
                           key=lambda i: (arrivals[i].time, i))
            placed = [None] * len(arrivals)
            records = [None] * len(arrivals)
            stream = (arrivals[i] for i in order)
        else:
            overall = sink_factory()
            if len(fleet) > 1:
                device_sinks = [sink_factory() for _ in fleet]
            stream = arrivals

        def on_record(entry, start, finish):
            nonlocal penalised
            if entry.penalty > 0:
                penalised += 1
            arrival = entry.arrival
            isolated = best.get(arrival.name)
            if isolated is None:
                isolated = best[arrival.name] = \
                    self.reference_isolated(arrival.name)
            record = RequestRecord(arrival.name, arrival.time, start,
                                   finish, isolated, tenant=arrival.tenant)
            if ledger is not None:
                ledger.observe_record(record)
            if overall is None:
                position = order[entry.position]
                placed[position] = entry
                records[position] = record
                return
            overall.observe(record)
            if device_sinks is not None:
                device_sinks[entry.index].observe(record)

        simulator.run_stream(stream, on_record)
        # observability only: engine events summed over the sessions
        # (the denominator of events/sec)
        self.events_processed = simulator.events_processed()
        if overall is None:
            return simulator, placed, records, penalised
        if device_sinks is None:
            device_sinks = [overall]
        return (simulator, overall, dict(zip(fleet.ids, device_sinks)),
                penalised)


class OpenSystemExperiment(_FleetLoop):
    """Runs one arrival stream under registered scheduling schemes on one
    device: a fleet of one, whose member id is the device's name."""

    def __init__(self, device, policy=SchedulingPolicy.ADAPTIVE,
                 saturate=True):
        super().__init__(DeviceFleet([(device.name, device)]), policy,
                         saturate)
        self.device = device

    def _one_device(self, arrivals, scheme, ledger=None, sink_factory=None):
        # a one-device placement never has a choice to make; the
        # estimate-mode adapter is the cheapest policy the loop accepts
        return self._simulate(
            arrivals, scheme,
            OfflinePolicyAdapter(RoundRobinPlacement(), mode="estimate"),
            ledger=ledger, sink_factory=sink_factory)

    # -- public ------------------------------------------------------------

    def run(self, arrivals, scheme, ledger=None):
        """Simulate ``arrivals`` (a list of :class:`ArrivalRequest`) under
        ``scheme`` (a registered name or scheme object); returns an
        :class:`OpenSystemResult` with records in submission order.

        With a ``ledger`` (:class:`repro.attribution.AttributionLedger`)
        every submit and completion is mirrored into it as the loop runs,
        and the result gains an ``attribution`` report.
        """
        scheme_obj = scheme_from_name(scheme)
        records = self._one_device(arrivals, scheme_obj, ledger=ledger)[2]
        result = OpenSystemResult(scheme_obj.name, self.device.name, records)
        if ledger is not None:
            result.attribution = ledger.report()
        return result

    def scheme_records(self, arrivals, scheme):
        """Per-request records of one scheme over one stream, in
        submission order.  Unknown scheme names raise listing the
        registered schemes."""
        return self._one_device(arrivals, scheme_from_name(scheme))[2]

    def run_stream(self, arrivals, scheme, sink_factory=None, ledger=None):
        """Streaming :meth:`run`: consume a *lazy* time-ordered arrival
        iterator incrementally, accumulate metrics in a record sink and
        never retain the stream — bounded memory at any request count.

        Returns an :class:`OpenSystemResult` built
        :meth:`~OpenSystemResult.from_sink` (``records is None``).  With
        a ``ledger`` the loop feeds it submit/finish events and every
        completed record, and the result gains an ``attribution`` report
        — still bounded memory (the ledger is O(#tenants·#devices)).
        """
        scheme_obj = scheme_from_name(scheme)
        sink = self._one_device(
            arrivals, scheme_obj, ledger=ledger,
            sink_factory=sink_factory or StreamingRecordSink)[1]
        result = OpenSystemResult.from_sink(scheme_obj.name,
                                            self.device.name, sink)
        if ledger is not None:
            result.attribution = ledger.report()
        return result

    def run_all(self, arrivals, schemes=None):
        """All schemes over one stream: ``{scheme: OpenSystemResult}``.
        ``schemes=None`` means every registered *open-capable* scheme,
        resolved at call time — user registrations included."""
        if schemes is None:
            schemes = open_scheme_names()
        return {scheme_from_name(s).name: self.run(arrivals, s)
                for s in schemes}


# -- multi-device fleets ------------------------------------------------------

class FleetOpenSystemResult:
    """One scheme + placement policy over one stream on one fleet.

    ``overall`` aggregates every request fleet-wide; ``per_device`` maps
    device ids (only those that served at least one request) to their own
    :class:`OpenSystemResult`.  All slowdowns are normalised by the best
    isolated time across the fleet, so the heterogeneity cost of a
    placement decision is visible in ANTT/unfairness.
    """

    def __init__(self, scheme, placement_name, fleet, records_by_device,
                 all_records, decisions, rebalances=0):
        self.scheme = scheme
        self.placement = placement_name
        self.fleet_ids = list(fleet.ids)
        self.overall = OpenSystemResult(
            scheme, "fleet({})".format("+".join(fleet.ids)), all_records)
        self.per_device = {
            device_id: OpenSystemResult(scheme, device_id, records)
            for device_id, records in records_by_device.items() if records
        }
        self.decisions = decisions
        self.migrations = sum(1 for d in decisions if d.penalty > 0)
        # closed-loop only: how many requests the re-balance hook moved
        # between devices after their initial placement
        self.rebalances = rebalances
        self.device_share = {
            device_id: len(records_by_device.get(device_id, ())) /
            float(len(all_records))
            for device_id in fleet.ids
        }

    @classmethod
    def from_sinks(cls, scheme, placement_name, fleet, overall_sink,
                   device_sinks, migrations=0, rebalances=0):
        """Build the streaming twin from per-device record sinks.

        ``decisions`` is ``None`` (per-arrival decisions are not retained
        in streaming mode); ``migrations``/``rebalances`` arrive as
        counts accumulated by the streaming loop.
        """
        self = object.__new__(cls)
        self.scheme = scheme
        self.placement = placement_name
        self.fleet_ids = list(fleet.ids)
        self.overall = OpenSystemResult.from_sink(
            scheme, "fleet({})".format("+".join(fleet.ids)), overall_sink)
        self.per_device = {
            device_id: OpenSystemResult.from_sink(scheme, device_id, sink)
            for device_id, sink in device_sinks.items() if sink.count
        }
        self.decisions = None
        self.migrations = migrations
        self.rebalances = rebalances
        total = float(self.overall.count)
        self.device_share = {
            device_id: (device_sinks[device_id].count / total
                        if device_id in device_sinks else 0.0)
            for device_id in fleet.ids
        }
        return self

    def __getattr__(self, attr):
        # convenience passthrough: fleet.antt == fleet.overall.antt
        if attr in ("antt", "stp", "unfairness", "mean_turnaround",
                    "mean_queueing_delay", "records", "slowdowns",
                    "makespan", "request_throughput", "slowdown_tails",
                    "queueing_tails", "tenant_slowdown_tails",
                    "p99_slowdown", "count"):
            return getattr(self.overall, attr)
        raise AttributeError(attr)

    def __repr__(self):
        return ("<FleetOpenSystemResult {}/{} {} reqs on {} devices: "
                "U={:.2f} ANTT={:.2f}>".format(
                    self.scheme, self.placement, self.overall.count,
                    len(self.per_device), self.overall.unfairness,
                    self.overall.antt))


class FleetOpenSystemExperiment(_FleetLoop):
    """Open-system arrival streams against a heterogeneous device fleet.

    The fleet runs as a **closed-loop co-simulation**
    (:class:`repro.sim.fleet.FleetSimulator`): every device's scheme
    session shares one event timeline and the placement policy is
    consulted at each arrival.  Three placement modes (``mode=``):

    * ``"auto"`` (default) — an offline policy runs in the loop in
      *estimate* mode (the single-server backlog estimate of an offline
      pre-pass, replayed arrival by arrival); an online policy gets live
      fleet state and the re-balance hook.
    * ``"offline"`` — an alias of ``"auto"`` for offline policies;
      online policies and re-balancers are rejected.
    * ``"online"`` — force live-state placement: online policies run
      natively, offline policies are adapted with live loads.

    ``rebalance`` names a registered re-balancer
    (:func:`repro.api.placements.rebalancer_names`) wrapped around the
    policy; it requires live-state placement (an online policy, or
    ``mode="online"``).

    Pinned requests are honoured in every mode and never re-balanced;
    migration penalties delay a request's availability on its new
    device.  Deterministic end to end: placement has no RNG and device
    simulation is event-driven.
    """

    def __init__(self, fleet, policy=SchedulingPolicy.ADAPTIVE,
                 saturate=True):
        if not isinstance(fleet, DeviceFleet):
            fleet = DeviceFleet(fleet)
        super().__init__(fleet, policy, saturate)

    # -- simulation --------------------------------------------------------

    def run(self, arrivals, scheme, placement, mode="auto", rebalance=None,
            ledger=None):
        """One scheme over one stream under one placement policy.

        ``placement`` is a registered name or a policy instance (offline
        or online protocol); ``mode`` and ``rebalance`` are described on
        the class.  With a ``ledger``
        (:class:`repro.attribution.AttributionLedger`) the loop feeds it
        placement/migration/completion events and the result gains an
        ``attribution`` report.
        """
        scheme_obj = scheme_from_name(scheme)
        policy = self._loop_policy(placement, mode, rebalance)
        simulator, placed, records, _ = self._simulate(
            arrivals, scheme_obj, policy, ledger=ledger)
        records_by_device = {device_id: [] for device_id in self.fleet.ids}
        decisions = []
        for entry, record in zip(placed, records):
            records_by_device[self.fleet[entry.index].id].append(record)
            decisions.append(PlacementDecision(
                entry.arrival, entry.index, entry.penalty, entry.pinned))
        result = FleetOpenSystemResult(
            scheme_obj.name, policy.name, self.fleet, records_by_device,
            records, decisions, rebalances=len(simulator.migrations))
        if ledger is not None:
            result.attribution = ledger.report()
        return result

    def _loop_policy(self, placement, mode, rebalance):
        """Resolve, validate and wrap a placement policy for the loop."""
        if mode not in ("auto", "offline", "online"):
            raise SimulationError(
                "placement mode must be 'auto', 'offline' or 'online', "
                "got {!r}".format(mode))
        policy = placement_from_name(placement)
        is_online = isinstance(policy, OnlinePlacementPolicy)
        if is_online and mode == "offline":
            raise SimulationError(
                "placement {!r} is closed-loop-only; drop mode='offline' "
                "or pick an offline policy".format(policy.name))
        if not is_online:
            policy = OfflinePolicyAdapter(
                policy, mode="live" if mode == "online" else "estimate")
        if rebalance not in (None, "none"):
            if not (is_online or mode == "online"):
                raise SimulationError(
                    "re-balancing needs live-state placement: use an "
                    "online policy or mode='online'")
            policy = rebalancer_from_name(rebalance)(policy)
        return policy

    def run_stream(self, arrivals, scheme, placement, mode="auto",
                   rebalance=None, sink_factory=None, ledger=None):
        """Streaming :meth:`run`: consume a lazy time-ordered arrival
        iterator through the loop in bounded memory.

        Completed requests drain into record sinks as they finish.
        Returns a :class:`FleetOpenSystemResult` built
        :meth:`~FleetOpenSystemResult.from_sinks` (``records`` and
        ``decisions`` are ``None``).  With a ``ledger`` the loop feeds it
        placement/migration/completion events and every completed record,
        and the result gains an ``attribution`` report.
        """
        scheme_obj = scheme_from_name(scheme)
        policy = self._loop_policy(placement, mode, rebalance)
        simulator, overall, device_sinks, penalised = self._simulate(
            arrivals, scheme_obj, policy, ledger=ledger,
            sink_factory=sink_factory or StreamingRecordSink)
        result = FleetOpenSystemResult.from_sinks(
            scheme_obj.name, policy.name, self.fleet, overall,
            device_sinks, migrations=penalised,
            rebalances=len(simulator.migrations))
        if ledger is not None:
            result.attribution = ledger.report()
        return result

    def run_all(self, arrivals, placement, schemes=None, mode="auto",
                rebalance=None):
        """All schemes over one stream: ``{scheme: FleetOpenSystemResult}``.
        ``schemes=None`` means every registered open-capable scheme, at
        call time."""
        if schemes is None:
            schemes = open_scheme_names()
        return {scheme_from_name(s).name:
                self.run(arrivals, s, placement, mode=mode,
                         rebalance=rebalance)
                for s in schemes}

    def run_policies(self, arrivals, scheme, policies, mode="auto",
                     rebalance=None):
        """One scheme under several placement policies:
        ``{policy_name: FleetOpenSystemResult}``."""
        results = {}
        for policy in policies:
            policy = placement_from_name(policy)
            results[policy.name] = self.run(arrivals, scheme, policy,
                                            mode=mode, rebalance=rebalance)
        return results
