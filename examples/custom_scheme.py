"""Register a custom scheduling scheme and run it everywhere, unchanged.

The scheme registry (:mod:`repro.api.schemes`) is the extension point
the paper's three schemes themselves use.  This example registers a toy
``serial`` scheme — a strict one-at-a-time scheduler that runs each
request alone in arrival order (the theoretical M/G/1 floor every
sharing scheme should beat on turnaround *variance*, and the ceiling on
queueing delay) — as a device *session*: ``submit`` a request, ``peek``
at the next event, ``step`` through it, ``harvest`` what finished.  The
harness's run loop drives the session, and the same declarative
:class:`repro.api.ExperimentSpec` grid runs it beside the built-ins.
Nothing else changes: the harness, driver, metrics and reports all read
the registry.

Run:  python examples/custom_scheme.py
"""

from collections import deque

from repro.api import (ExperimentSpec, SchedulingScheme, isolated_time,
                       register_scheme, run)
from repro.harness import format_table

REQUESTS = 24
SEED = 7
LOAD = 1.0


class SerialSession:
    """One device serving one request at a time, in arrival order.

    A request's start and finish are fixed when it is submitted (it waits
    for every earlier request), so the only events are completions.
    """

    def __init__(self, device):
        self.device = device
        self._free_at = 0.0
        self._pending = deque()     # (key, start, finish), finish order
        self._finished = []

    def submit(self, key, arrival, effective_time):
        start = max(self._free_at, effective_time)
        self._free_at = start + isolated_time(arrival.name, self.device)
        self._pending.append((key, start, self._free_at))

    def peek(self):
        return self._pending[0][2] if self._pending else None

    def step(self):
        done = self._pending.popleft()
        self._finished.append(done)
        return done[2], 1

    def harvest(self):
        finished, self._finished = self._finished, []
        return finished


class SerialScheme(SchedulingScheme):
    """One request at a time, arrival order, device exclusively owned."""

    name = "serial"
    description = "strict one-at-a-time service in arrival order"

    def open_session(self, device, **knobs):
        return SerialSession(device)


def main():
    register_scheme(SerialScheme)

    spec = ExperimentSpec(
        scenario="bursty",
        schemes=("baseline", "accelos", "serial"),
        loads=(LOAD,), seeds=(SEED,), count=REQUESTS,
        metrics=("antt", "stp", "unfairness", "p99_slowdown"))
    results = run(spec)

    rows = [[scheme, results.antt(scheme=scheme),
             results.stp(scheme=scheme),
             results.unfairness(scheme=scheme),
             results.p99_slowdown(scheme=scheme)]
            for scheme in spec.schemes]
    print(format_table(
        ["scheme", "ANTT", "STP", "unfairness", "p99 slowdown"],
        rows,
        title="Custom scheme beside the built-ins (bursty traffic, "
              "load {})".format(LOAD)))


if __name__ == "__main__":
    main()
