"""Determinism lints: the hazards that silently rot golden traces.

Every regression lock in this repo — golden traces, ``cmp``-checked
benchmark JSON, estimate-mode replay — assumes bit-identical replays.
These checkers reject the constructs that break that assumption at CI
time instead of one numpy upgrade later:

=======  ====================================================================
code     hazard
=======  ====================================================================
D101     unseeded global-RNG calls (``random.*`` / ``numpy.random.*``)
         anywhere outside ``util/rng.py`` — all seeding goes through
         :func:`repro.util.rng.make_rng`
D102     wall-clock / OS entropy in ``src/repro`` (``time.time``,
         ``datetime.now``, ``os.urandom``, ``uuid.uuid4`` ...): simulated
         time comes from the event queue, never the host
D103     iteration over ``set``/``frozenset`` literals, calls,
         comprehensions or ``dict.keys()`` without ``sorted()`` in the
         timeline-feeding modules (``sim/``, ``accelos/placement.py``,
         ``accelos/fleet.py``, ``workloads/``) — set order is
         hash-randomised across runs
D104     ``id()``-derived ordering (sort keys or ``<``/``>`` comparisons
         built on ``id()``): CPython ids are allocation addresses
D105     float ``==``/``!=`` against event/arrival-time attributes in
         timeline modules — ties must go through the
         :class:`~repro.sim.engine.EventQueue` tie tiers, not float
         equality
D106     ``list``/``tuple``/``sorted`` materialisation of an arrival
         stream inside ``src/repro/sim`` — the streaming plane's memory
         bound holds only while arrivals stay lazy end to end; consume
         them incrementally (``for``/``next``) instead
D107     process identity (``os.getpid``, ``threading.get_ident``,
         ``multiprocessing.current_process`` ...) or the salted builtin
         ``hash()`` in the driver plane (``src/repro/api``) — cell hashes
         and the parallel merge must derive only from spec fields and
         registry versions, never from which worker ran the cell; cache
         keys go through ``hashlib`` over canonical JSON
D108     module-level or default-argument memo/cache containers in the
         engine planes (``sim/``, ``accelos/``) — memo state that
         outlives one simulation leaks results across runs; memos
         must live on an instance created per run (``self._cache = {}``
         in ``__init__``), keyed on their full inputs (see
         :class:`repro.accelos.sharing.AllocationMemo`)
=======  ====================================================================
"""

from __future__ import annotations

import ast
import re

from tools.analysis.core import Checker, Finding, dotted_name, import_map

# module roots whose iteration order feeds the shared event timeline
TIMELINE_ROOTS = ("src/repro/sim", "src/repro/accelos/placement.py",
                  "src/repro/accelos/fleet.py", "src/repro/workloads")

WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "uuid.uuid4", "secrets.token_bytes", "secrets.token_hex",
}

# numpy.random constructors that take an explicit seed are fine *when
# actually given one*; everything else on the module is global-RNG state
_SEEDED_CTORS = {"numpy.random.default_rng", "numpy.random.Generator",
                 "numpy.random.SeedSequence", "numpy.random.PCG64",
                 "numpy.random.Philox", "numpy.random.SFC64",
                 "numpy.random.MT19937"}

TIME_ATTRS = {"time", "now", "arrival", "deadline"}


def _is_time_attr(node):
    return (isinstance(node, ast.Attribute)
            and (node.attr in TIME_ATTRS or node.attr.endswith("_time")))


class UnseededRandomChecker(Checker):
    name = "unseeded-random"
    codes = ("D101",)
    description = ("global-RNG calls outside util/rng.py (seed via "
                   "repro.util.rng.make_rng)")
    roots = ("src/repro", "examples", "benchmarks")

    def run(self, ctx):
        for pyfile in ctx.python_files(*self.roots):
            if pyfile.relpath == "src/repro/util/rng.py":
                continue
            aliases = import_map(pyfile.tree)
            for node in ast.walk(pyfile.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func, aliases)
                if name is None:
                    continue
                if name in _SEEDED_CTORS:
                    if not node.args and not node.keywords:
                        yield Finding(
                            pyfile.relpath, node.lineno, "D101",
                            "{}() without a seed is entropy-seeded; "
                            "use repro.util.rng.make_rng(*seed_parts)"
                            .format(name))
                    continue
                if (name.startswith("random.")
                        or name.startswith("numpy.random.")):
                    yield Finding(
                        pyfile.relpath, node.lineno, "D101",
                        "call to global RNG {}(); derive a generator via "
                        "repro.util.rng.make_rng(*seed_parts) instead"
                        .format(name))


class WallClockChecker(Checker):
    name = "wall-clock"
    codes = ("D102",)
    description = "host clocks / OS entropy inside the simulation planes"
    roots = ("src/repro",)

    def run(self, ctx):
        for pyfile in ctx.python_files(*self.roots):
            aliases = import_map(pyfile.tree)
            for node in ast.walk(pyfile.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func, aliases)
                if name in WALL_CLOCK:
                    yield Finding(
                        pyfile.relpath, node.lineno, "D102",
                        "{}() reads host state; simulated time/entropy "
                        "must come from the event timeline or a seeded "
                        "generator".format(name))


def _is_set_expr(node):
    """Expressions whose iteration order is hash-randomised."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set literal/comprehension"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and \
                node.func.id in ("set", "frozenset"):
            return "{}()".format(node.func.id)
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return ".keys() view"
    return None


class UnsortedSetIterationChecker(Checker):
    name = "unsorted-set-iteration"
    codes = ("D103",)
    description = "set-ordered iteration feeding the event timeline"
    roots = TIMELINE_ROOTS

    def run(self, ctx):
        for pyfile in ctx.python_files(*self.roots):
            for node in ast.walk(pyfile.tree):
                iters = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.GeneratorExp, ast.DictComp)):
                    iters.extend(gen.iter for gen in node.generators)
                elif isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Name) and \
                        node.func.id in ("list", "tuple", "enumerate") and \
                        node.args:
                    iters.append(node.args[0])
                for it in iters:
                    kind = _is_set_expr(it)
                    if kind:
                        yield Finding(
                            pyfile.relpath, it.lineno, "D103",
                            "iteration over {} in a timeline-feeding "
                            "module; wrap in sorted(...) to pin the "
                            "order".format(kind))


class IdOrderingChecker(Checker):
    name = "id-ordering"
    codes = ("D104",)
    description = "orderings derived from id() (allocation addresses)"
    roots = ("src/repro",)

    @staticmethod
    def _contains_id_call(node):
        return any(
            isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
            and sub.func.id == "id"
            for sub in ast.walk(node))

    def run(self, ctx):
        for pyfile in ctx.python_files(*self.roots):
            for node in ast.walk(pyfile.tree):
                if isinstance(node, ast.Compare):
                    ordered = any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt,
                                                  ast.GtE))
                                  for op in node.ops)
                    sides = [node.left] + list(node.comparators)
                    if ordered and any(
                            isinstance(s, ast.Call)
                            and isinstance(s.func, ast.Name)
                            and s.func.id == "id" for s in sides):
                        yield Finding(
                            pyfile.relpath, node.lineno, "D104",
                            "ordering comparison of id() values; ids are "
                            "allocation addresses and vary per run")
                elif isinstance(node, ast.Call):
                    for kw in node.keywords:
                        if kw.arg == "key" and self._contains_id_call(
                                kw.value):
                            yield Finding(
                                pyfile.relpath, node.lineno, "D104",
                                "sort/min/max key built on id(); if id() "
                                "only keys a lookup table this is safe — "
                                "suppress with a reason — but id()-derived "
                                "*order* varies per run")


class FloatTimeEqualityChecker(Checker):
    name = "float-time-equality"
    codes = ("D105",)
    description = "float ==/!= against event/arrival time attributes"
    roots = TIMELINE_ROOTS

    # structural-equality dunders legitimately compare stored times
    EXEMPT_METHODS = ("__eq__", "__ne__", "__hash__")

    def run(self, ctx):
        for pyfile in ctx.python_files(*self.roots):
            exempt = set()
            for node in ast.walk(pyfile.tree):
                if isinstance(node, ast.FunctionDef) and \
                        node.name in self.EXEMPT_METHODS:
                    exempt.update(id(sub) for sub in ast.walk(node))
            for node in ast.walk(pyfile.tree):
                if not isinstance(node, ast.Compare) or id(node) in exempt:
                    continue
                if not any(isinstance(op, (ast.Eq, ast.NotEq))
                           for op in node.ops):
                    continue
                sides = [node.left] + list(node.comparators)
                if any(_is_time_attr(s) for s in sides):
                    yield Finding(
                        pyfile.relpath, node.lineno, "D105",
                        "float equality against a time attribute; order "
                        "simultaneous events via EventQueue tie tiers "
                        "(see docs/DETERMINISM.md), not ==")


# identifiers that (by repo convention) carry lazy arrival streams:
# `arrivals`, `arrival_iter`, `arrival_stream`, `pending_arrivals`, ...
_ARRIVAL_STREAM_NAME = re.compile(
    r"(^|_)arrivals?($|_iter$|_stream$|_)")


class ArrivalMaterializationChecker(Checker):
    name = "arrival-materialisation"
    codes = ("D106",)
    description = ("list()/tuple()/sorted() of a lazy arrival stream "
                   "inside the simulator")
    roots = ("src/repro/sim",)

    @staticmethod
    def _stream_name(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    def run(self, ctx):
        for pyfile in ctx.python_files(*self.roots):
            for node in ast.walk(pyfile.tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in ("list", "tuple", "sorted")
                        and node.args):
                    continue
                name = self._stream_name(node.args[0])
                if name and _ARRIVAL_STREAM_NAME.search(name):
                    yield Finding(
                        pyfile.relpath, node.lineno, "D106",
                        "{}({}) materialises an arrival stream inside "
                        "the simulator; the streaming plane's memory "
                        "bound needs arrivals consumed lazily — iterate "
                        "instead".format(node.func.id, name))


# values that identify the executing process/thread: meaningless across
# a worker pool, so they must never reach a cell hash or the merge order
POOL_IDENTITY = {
    "os.getpid", "os.getppid", "os.getpgid", "os.getsid",
    "multiprocessing.current_process", "threading.get_ident",
    "threading.get_native_id", "threading.current_thread",
}


class PoolEntropyChecker(Checker):
    name = "pool-entropy"
    codes = ("D107",)
    description = ("process identity / salted builtin hash() in the "
                   "driver plane (cell-hash inputs)")
    roots = ("src/repro/api",)

    def run(self, ctx):
        for pyfile in ctx.python_files(*self.roots):
            aliases = import_map(pyfile.tree)
            for node in ast.walk(pyfile.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func, aliases)
                if name in POOL_IDENTITY:
                    yield Finding(
                        pyfile.relpath, node.lineno, "D107",
                        "{}() is process-local; cell hashes and the "
                        "parallel merge must derive only from spec "
                        "fields and registry versions".format(name))
                elif isinstance(node.func, ast.Name) and \
                        node.func.id == "hash":
                    yield Finding(
                        pyfile.relpath, node.lineno, "D107",
                        "builtin hash() is salted per interpreter "
                        "(PYTHONHASHSEED) and differs across pool "
                        "workers; content-address cache keys with "
                        "hashlib over canonical JSON instead")


# names that (by repo convention) hold memoised results
_MEMO_NAME = re.compile(r"cache|memo", re.IGNORECASE)

# constructors yielding an empty mutable container
_MUTABLE_CTORS = ("dict", "list", "set", "defaultdict", "OrderedDict",
                  "Counter", "deque")


def _is_mutable_container(node):
    """AST expressions that build a mutable container."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CTORS)


class MemoStateChecker(Checker):
    name = "memo-state"
    codes = ("D108",)
    description = ("module-level / default-argument memo containers in "
                   "the engine planes (state leaking across runs)")
    roots = ("src/repro/sim", "src/repro/accelos")

    def run(self, ctx):
        for pyfile in ctx.python_files(*self.roots):
            # module-level memo/cache containers: shared by every
            # simulation in the process, so a replay is only identical
            # if the first run already populated them the same way
            for node in pyfile.tree.body:
                targets = ()
                if isinstance(node, ast.Assign):
                    targets = node.targets
                    value = node.value
                elif isinstance(node, ast.AnnAssign) and node.value:
                    targets = (node.target,)
                    value = node.value
                for target in targets:
                    if (isinstance(target, ast.Name)
                            and _MEMO_NAME.search(target.id)
                            and _is_mutable_container(value)):
                        yield Finding(
                            pyfile.relpath, node.lineno, "D108",
                            "module-level memo container {!r} outlives "
                            "the simulation and leaks results across "
                            "runs; hold memo state on an instance "
                            "created per run, keyed on its full inputs"
                            .format(target.id))
            # mutable default arguments: one shared container per
            # *function object*, i.e. a process-lifetime memo in
            # disguise (with the classic aliasing footgun on top)
            for node in ast.walk(pyfile.tree):
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None]
                for default in defaults:
                    if _is_mutable_container(default):
                        yield Finding(
                            pyfile.relpath, default.lineno, "D108",
                            "mutable default argument on {}() is one "
                            "shared container per function object — a "
                            "process-lifetime memo; default to None and "
                            "create the container per call/instance"
                            .format(node.name))


DETERMINISM_CHECKERS = (
    UnseededRandomChecker, WallClockChecker, UnsortedSetIterationChecker,
    IdOrderingChecker, FloatTimeEqualityChecker,
    ArrivalMaterializationChecker, PoolEntropyChecker, MemoStateChecker)
