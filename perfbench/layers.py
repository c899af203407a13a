"""Module -> layer map of the ``repro`` package, with a self-check.

Every ``repro`` module a benchmark run imports is either assigned to one
of the layers the traced run measures (:data:`MODULE_LAYERS`, layer
names as in :mod:`tracer`) or listed in :data:`UNMEASURED` with the
reason it is left out.  :func:`unmapped_modules` names any module that
is in neither table; ``run.py`` fails the run on one, so a new module
cannot land without someone deciding which layer its time belongs to.
"""

from __future__ import annotations

import sys

MODULE_LAYERS = {
    # arrival streams
    "repro.workloads": "workloads.scenarios",
    "repro.workloads.scenarios": "workloads.scenarios",
    "repro.workloads.arrivals": "workloads.scenarios",
    "repro.util": "workloads.scenarios",
    "repro.util.rng": "workloads.scenarios",
    # device engine
    "repro.sim": "sim.gpu",
    "repro.sim.gpu": "sim.gpu",
    "repro.sim.spec": "sim.gpu",
    "repro.sim.trace": "sim.gpu",
    "repro.sim.engine": "sim.engine",
    "repro.sim.hw_sched": "sim.hw_sched",
    "repro.sim.contention": "sim.contention",
    "repro.sim.resources": "sim.resources",
    "repro.accelos": "accelos.sharing",
    "repro.accelos.sharing": "accelos.sharing",
    "repro.accelos.adaptive": "accelos.sharing",
    # scheme session adapters
    "repro.api.schemes": "api.schemes",
    "repro.baselines": "api.schemes",
    "repro.baselines.elastic_kernels": "api.schemes",
    # fleet loop
    "repro.sim.fleet": "sim.fleet",
    "repro.accelos.placement": "accelos.placement",
    "repro.api.placements": "accelos.placement",
    # harness: record build, sinks, ledger
    "repro.harness": "harness.open_system",
    "repro.harness.open_system": "harness.open_system",
    "repro.metrics": "metrics",
    "repro.metrics.antt": "metrics",
    "repro.metrics.fairness": "metrics",
    "repro.metrics.overlap": "metrics",
    "repro.metrics.sketches": "metrics",
    "repro.metrics.tails": "metrics",
    "repro.metrics.throughput": "metrics",
    "repro.attribution": "attribution.ledger",
    "repro.attribution.footprint": "attribution.ledger",
    "repro.attribution.ledger": "attribution.ledger",
    "repro.attribution.provenance": "attribution.ledger",
    # driver: spec, grid, results, CLI
    "repro.api": "api.driver",
    "repro.api.driver": "api.driver",
    "repro.api.spec": "api.driver",
    "repro.api.results": "api.driver",
    "repro.api.registry": "api.driver",
    "repro.api.run": "api.driver",
    "repro.api.devices": "api.driver",
    "repro.harness.report": "api.driver",
    # set-up: Parboil compile, JIT transform, isolated-time calibration
    "repro.workloads.parboil": "setup.compile",
    "repro.workloads.sources": "setup.compile",
    "repro.cl": "setup.compile",
    "repro.cl.device": "setup.compile",
    "repro.kernelc": "setup.compile",
    "repro.kernelc.ast_nodes": "setup.compile",
    "repro.kernelc.builtins": "setup.compile",
    "repro.kernelc.lexer": "setup.compile",
    "repro.kernelc.parser": "setup.compile",
    "repro.kernelc.preprocessor": "setup.compile",
    "repro.kernelc.sema": "setup.compile",
    "repro.kernelc.types": "setup.compile",
    "repro.ir": "setup.compile",
    "repro.ir.arith": "setup.compile",
    "repro.ir.builder": "setup.compile",
    "repro.ir.clone": "setup.compile",
    "repro.ir.function": "setup.compile",
    "repro.ir.instructions": "setup.compile",
    "repro.ir.lowering": "setup.compile",
    "repro.ir.module": "setup.compile",
    "repro.ir.passes": "setup.compile",
    "repro.ir.passes.constfold": "setup.compile",
    "repro.ir.passes.count": "setup.compile",
    "repro.ir.passes.dce": "setup.compile",
    "repro.ir.passes.inliner": "setup.compile",
    "repro.ir.passes.manager": "setup.compile",
    "repro.ir.passes.resources": "setup.compile",
    "repro.ir.passes.simplifycfg": "setup.compile",
    "repro.ir.printer": "setup.compile",
    "repro.ir.values": "setup.compile",
    "repro.ir.verifier": "setup.compile",
    "repro.accelos.transform": "setup.transform",
    "repro.accelos.rtlib": "setup.transform",
    "repro.api.kernels": "setup.calibrate",
}

# imported along the way, but no workload spends measurable time in them
UNMEASURED = {
    "repro.errors": "exception types only",
    "repro.api.cache": "result cache; runs use no cache directory",
    "repro.harness.experiment": "closed-batch harness; workloads are open",
    "repro.harness.sweep": "closed-batch sweep campaigns",
    "repro.workloads.generator": "closed-batch workload combinations",
    "repro.workloads.datasets": "functional-interpreter datasets",
    "repro.interp": "functional interpreter; spec runs never execute it",
    "repro.interp.executor": "functional interpreter",
    "repro.interp.memory": "functional interpreter",
    "repro.cl.context": "functional OpenCL plane",
    "repro.cl.kernel": "functional OpenCL plane",
    "repro.cl.memory": "functional OpenCL plane",
    "repro.cl.platform": "functional OpenCL plane",
    "repro.cl.program": "functional OpenCL plane",
    "repro.cl.queue": "functional OpenCL plane",
    "repro.accelos.runtime": "functional accelOS runtime",
    "repro.accelos.proxycl": "functional accelOS runtime",
    "repro.accelos.monitor": "functional accelOS runtime",
    "repro.accelos.scheduler": "functional accelOS runtime",
    "repro.accelos.memory_manager": "functional accelOS runtime",
    "repro.accelos.vndrange": "functional accelOS runtime",
    "repro.accelos.fleet": "functional fleet runtime facade",
}


def unmapped_modules(modules=None):
    """``repro`` modules imported so far that neither table names."""
    names = sys.modules if modules is None else modules
    return sorted(name for name in names
                  if name.startswith("repro.")
                  and name not in MODULE_LAYERS
                  and name not in UNMEASURED)
