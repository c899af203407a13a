"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each ``repro`` layer
(class methods and module functions) with a timing shim, without editing
``src/``; a few private methods are wrapped too where a counter needs them
(``_SpecRunner.run_cell`` for cells, ``FleetSimulator._status`` for status
walks, ``GPUSimulator._hw_dispatch`` for the firmware-dispatch share).  The shims keep a stack of the layers currently executing, so
each host second is charged to exactly one layer: a layer's *self time*
is its span time minus the time of the spans it called.  Per-call spans
would be far too many (a run makes millions of queue pushes and session
peeks), so fine-grained calls only feed count and self-time
accumulators; real spans are kept at coarse boundaries only (set-up,
grid cell, run loop), carry the cell they belong to and are written out
when the run ends.

``install()`` patches, ``uninstall()`` restores the originals.  The shims
call the wrapped code with the same arguments and return its result
unchanged, so a traced run computes the same bytes as an untraced one
(``selftest.py`` checks this).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

BASE_LAYER = "perfbench"

_perf = time.perf_counter


def _entries():
    """``(module, owner, attribute, layer, options)`` for every shim.

    ``owner`` is a class name inside ``module`` or ``None`` for a module
    function.  Options: ``count`` (counter bumped on every call),
    ``entry_count`` (counter bumped only when the call enters the layer
    from another one, so delegation inside a layer is not counted twice),
    ``timer`` (inclusive time of the outermost call of that timer),
    ``span`` (record a coarse span),
    ``after`` (name of a :class:`Tracer` hook run on the result),
    ``optional`` (the class may inherit the method instead of defining
    it; any other missing attribute is reported in ``Tracer.missing``).
    """
    gpu = "repro.sim.gpu"
    schemes = "repro.api.schemes"
    harness = "repro.harness.open_system"
    placement = "repro.accelos.placement"
    out = []

    def add(module, owner, attrs, layer, **options):
        for attr in attrs:
            out.append((module, owner, attr, layer, options))

    # event queue
    add("repro.sim.engine", "EventQueue", ["push"], "sim.engine",
        count="sim.engine.pushes", after="_after_push")
    add("repro.sim.engine", "EventQueue", ["pop"], "sim.engine",
        count="sim.engine.pops")
    add("repro.sim.engine", "EventQueue", ["peek_time"], "sim.engine",
        count="sim.engine.peeks")
    # device engine
    add(gpu, "GPUSimulator", ["__init__"], "sim.gpu", after="_after_sim")
    add(gpu, "GPUSimulator",
        ["run", "run_open", "open_begin", "open_submit", "open_peek",
         "open_step", "open_advance_before", "open_drain", "open_trace",
         "open_harvest", "open_withdrawable", "open_queued"], "sim.gpu")
    add(gpu, "GPUSimulator", ["open_withdraw"], "sim.gpu",
        count="sim.gpu.withdraws")
    # firmware dispatch: walks the run list on every hardware-mode event
    add(gpu, "GPUSimulator", ["_hw_dispatch"], "sim.gpu",
        timer="sim.gpu.hw_dispatch_s")
    for owner in ("FifoHardwareScheduler", "ExclusiveHardwareScheduler"):
        add("repro.sim.hw_sched", owner, ["eligible"], "sim.hw_sched",
            count="sim.hw_sched.eligible_calls")
    add("repro.sim.contention", "BandwidthTracker",
        ["add_rate", "remove_rate", "stretch", "stretch_resident"],
        "sim.contention", count="sim.contention.calls")
    add("repro.sim.resources", "CUState", ["fits"], "sim.resources",
        count="sim.resources.fits_calls", after="_after_fits")
    add("repro.sim.resources", "CUState", ["admit", "release"],
        "sim.resources")
    # section 3 sharing
    add("repro.accelos.sharing", "AllocationMemo",
        ["groups_for", "groups_for_keyed"], "accelos.sharing",
        entry_count="accelos.sharing.plans", after="_after_memo")
    for module in ("repro.accelos.sharing", "repro.api.kernels", schemes):
        add(module, None, ["compute_allocations"], "accelos.sharing",
            entry_count="accelos.sharing.plans")
    # scheme session adapters
    for owner in ("GpuOpenSession", "ElasticOpenSession"):
        add(schemes, owner, ["submit"], "api.schemes",
            count="api.schemes.submits")
        add(schemes, owner, ["step"], "api.schemes",
            count="api.schemes.steps")
        add(schemes, owner, ["peek"], "api.schemes",
            count="api.schemes.peeks", after="_after_peek")
        add(schemes, owner,
            ["queued", "withdraw", "harvest", "backlog_seconds",
             "active_count", "results"], "api.schemes")
    for owner in ("BaselineScheme", "AccelOSScheme", "ElasticKernelsScheme"):
        add(schemes, owner, ["open_records"], "api.schemes",
            timer="api.schemes.open_records_s", span="open_records")
        add(schemes, owner, ["open_session"], "api.schemes")
    add(schemes, "AccelOSScheme", ["admission_spec"], "api.schemes")
    # fleet loop
    add("repro.sim.fleet", "FleetSimulator", ["run", "run_stream"],
        "sim.fleet", span="fleet_loop", after="_after_fleet")
    add("repro.sim.fleet", "FleetSimulator", ["_status"], "sim.fleet",
        count="sim.fleet.status_walks")
    add("repro.sim.fleet", "FleetSimulator", ["_maybe_rebalance"],
        "sim.fleet")
    for owner in ("PlacementPolicy", "OnlinePlacementPolicy",
                  "RoundRobinPlacement", "LeastLoadedPlacement",
                  "AffinityPlacement", "OfflinePolicyAdapter",
                  "BurstAwareOnlinePlacement", "WorkStealingRebalance"):
        add(placement, owner, ["choose"], "accelos.placement",
            entry_count="accelos.placement.choose_calls",
            timer="accelos.placement.choose_s", optional=True)
        add(placement, owner, ["rebalance"], "accelos.placement",
            entry_count="accelos.placement.rebalance_calls",
            timer="accelos.placement.rebalance_s", optional=True)
        add(placement, owner,
            ["observe_arrival", "placed", "migration_penalty"],
            "accelos.placement", optional=True)
    # harness: run loops, record build, results
    add(harness, "OpenSystemExperiment",
        ["run", "run_stream", "scheme_records"], "harness.open_system",
        span="run_loop")
    add(harness, "FleetOpenSystemExperiment", ["run", "run_stream"],
        "harness.open_system", span="run_loop")
    add(schemes, "RequestRecord", ["__init__"], "harness.open_system",
        count="harness.records")
    add(harness, "OpenSystemResult", ["__init__", "from_sink"],
        "harness.open_system")
    add(harness, "FleetOpenSystemResult", ["__init__", "from_sinks"],
        "harness.open_system")
    # metrics: sinks, sketches, exact tails
    for owner in ("StreamingRecordSink", "ExactRecordSink"):
        add("repro.metrics.sketches", owner, ["observe"], "metrics",
            count="metrics.observes")
    add("repro.metrics.sketches", "StreamingRecordSink",
        ["tenant_summaries"], "metrics")
    add("repro.metrics.sketches", "TailSketch", ["summary"], "metrics")
    add(harness, None,
        ["antt", "stp", "individual_slowdowns", "system_unfairness",
         "request_tails"], "metrics")
    # attribution ledger
    add("repro.attribution.ledger", "AttributionLedger",
        ["submit", "migrate", "finish", "observe_record", "report"],
        "attribution.ledger", count="attribution.calls")
    # driver, results, CLI
    add("repro.api.driver", "_SpecRunner", ["run_cell"], "api.driver",
        count="api.driver.cells", span="cell")
    add("repro.api.driver", None, ["build_stream"], "api.driver",
        timer="api.driver.stream_s")
    add("repro.api.driver", None, ["build_stream_iter"], "api.driver",
        timer="api.driver.stream_s", after="_after_stream_iter")
    add("repro.api.results", "ResultSet", ["to_json"], "api.driver",
        timer="api.driver.to_json_s")
    add("repro.api.run", None, ["main"], "api.driver", span="cli")
    # arrival generation (lazy iterators are wrapped by _after_stream_iter
    # and Tracer.iter_layer)
    add("repro.workloads.scenarios", "TrafficScenario", ["generate"],
        "workloads.scenarios", after="_after_generate")
    # set-up
    for module in ("repro.workloads.parboil", "repro.api.kernels"):
        add(module, None, ["compiled_module"], "setup.compile",
            timer="setup.compile_s")
    add("repro.accelos.transform", "AccelOSTransform", ["run"],
        "setup.transform", timer="setup.transform_s")
    add("repro.api.kernels", None, ["isolated_time"], "setup.calibrate",
        timer="setup.calibrate_s")
    return out


class Tracer:
    """Layer-stack tracer: self time, counters, inclusive timers, spans."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.timers = defaultdict(float)
        self._timer_depth = defaultdict(int)
        self.spans = []
        self.cell = None
        self._stack = [BASE_LAYER]
        self._span_stack = []
        self._last = _perf()
        self._patches = []
        self._sims = []
        self._memos = {}
        self.max_depth = 0
        self.missing = []

    # -- accumulators --------------------------------------------------------

    def reset(self):
        """Zero every accumulator (only between runs, never inside one)."""
        self.self_s.clear()
        self.counts.clear()
        self.timers.clear()
        self.spans.clear()
        self._sims.clear()
        self._memos.clear()
        self.max_depth = 0
        self._last = _perf()

    def events(self):
        """Engine events of every simulator built since the last reset,
        from the simulators' own ``events_processed`` counters."""
        return sum(sim.events_processed for sim in self._sims
                   if hasattr(sim, "events_processed"))

    def memo_counts(self):
        """``(hits, misses)`` summed over every allocation memo used."""
        memos = self._memos.values()
        return (sum(m.hits for m in memos), sum(m.misses for m in memos))

    # -- hooks run on a shim's result -----------------------------------------

    def _after_push(self, args, result, caller):
        depth = len(args[0])
        if depth > self.max_depth:
            self.max_depth = depth
        return result

    def _after_sim(self, args, result, caller):
        self._sims.append(args[0])
        return result

    def _after_fits(self, args, result, caller):
        if result:
            self.counts["sim.resources.fits_ok"] += 1
        return result

    def _after_memo(self, args, result, caller):
        self._memos[id(args[0])] = args[0]
        return result

    def _after_peek(self, args, result, caller):
        if caller == "sim.fleet":
            self.counts["sim.fleet.peeks"] += 1
        return result

    def _after_fleet(self, args, result, caller):
        self.counts["sim.fleet.migrations"] += len(args[0].migrations)
        return result

    def _after_generate(self, args, result, caller):
        self.counts["workloads.arrivals"] += len(result)
        return result

    def _after_stream_iter(self, args, result, caller):
        return self.iter_layer(result)

    # -- shims ----------------------------------------------------------------

    def _shim(self, fn, layer, count=None, entry_count=None, timer=None,
              span=None, after=None):
        tracer = self
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        timers = self.timers
        hook = getattr(self, after) if after else None
        plain = not (entry_count or timer or span or hook)

        if plain:
            # the shape of the hot shims (queue pushes, session peeks):
            # every extra test here costs millions of times per unit
            def shim(*args, **kwargs):
                now = _perf()
                self_s[stack[-1]] += now - tracer._last
                stack.append(layer)
                tracer._last = now
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = _perf()
                    self_s[layer] += end - tracer._last
                    stack.pop()
                    tracer._last = end
                    if count:
                        counts[count] += 1
        else:
            depths = self._timer_depth

            def shim(*args, **kwargs):
                now = _perf()
                caller = stack[-1]
                self_s[caller] += now - tracer._last
                stack.append(layer)
                tracer._last = now
                opened = tracer._open_span(span, layer, args, now) \
                    if span else None
                if timer:
                    depth = depths[timer]
                    depths[timer] = depth + 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = _perf()
                    self_s[layer] += end - tracer._last
                    stack.pop()
                    tracer._last = end
                    if count:
                        counts[count] += 1
                    if entry_count and caller != layer:
                        counts[entry_count] += 1
                    if timer:
                        # inclusive time of the outermost call only
                        depths[timer] = depth
                        if depth == 0:
                            timers[timer] += end - now
                    if opened is not None:
                        tracer._close_span(opened, end)
                return hook(args, result, caller) if hook else result
        return functools.wraps(fn)(shim)

    def iter_layer(self, iterable, layer="workloads.scenarios"):
        """Charge the lazy production of ``iterable``'s items to ``layer``
        and count them as arrivals."""
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        iterator = iter(iterable)
        while True:
            now = _perf()
            self_s[stack[-1]] += now - self._last
            stack.append(layer)
            self._last = now
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                end = _perf()
                self_s[layer] += end - self._last
                stack.pop()
                self._last = end
            counts["workloads.arrivals"] += 1
            yield item

    # -- coarse spans ---------------------------------------------------------

    def _open_span(self, name, layer, args, start, cell=None):
        outer = self.cell
        if name == "cell":
            cell = json.dumps(args[1].to_dict(), sort_keys=True)
        if cell is not None:
            self.cell = cell
        parent = self._span_stack[-1][0] if self._span_stack else None
        record = {"name": name, "layer": layer, "cell": self.cell,
                  "start": start, "end": None, "parent": parent}
        self.spans.append(record)
        self._span_stack.append((len(self.spans) - 1, outer))
        return record

    def _close_span(self, record, end):
        record["end"] = end
        self.cell = self._span_stack.pop()[1]

    @contextlib.contextmanager
    def span(self, name, cell=None):
        """A benchmark-level coarse span around the ``with`` body."""
        record = self._open_span(name, BASE_LAYER, None, _perf(), cell=cell)
        try:
            yield record
        finally:
            self._close_span(record, _perf())

    # -- patching -------------------------------------------------------------

    def install(self, prefix=""):
        """Patch every shim whose layer starts with ``prefix`` into place
        (``"setup."`` times set-up without the engine shims' cost)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attr, layer, options in _entries():
            if not layer.startswith(prefix):
                continue
            options = dict(options)
            optional = options.pop("optional", False)
            module = importlib.import_module(module_name)
            owner = module if owner_name is None \
                else getattr(module, owner_name)
            raw = vars(owner).get(attr)
            if raw is None:
                if optional:
                    continue
                # renamed or moved: report it rather than fail the run
                self.missing.append("{}.{}".format(
                    owner.__name__ if owner_name else module_name, attr))
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(
                    self._shim(raw.__func__, layer, **options))
            else:
                patched = self._shim(raw, layer, **options)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, raw))
        self._last = _perf()

    def uninstall(self):
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

