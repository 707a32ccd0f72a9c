"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each layer — class
attributes patched for the duration of a traced run, restored after —
and accounts host time per layer:

* a plain entry point is one span: host time from call to return;
* a generator entry point (a simulated process step such as
  ``Deployment.submit``) is timed on every resume, and its simulated
  start and end times are recorded too;
* a layer's *self* time is the host time inside its entry points
  minus the host time inside entry points nested in them, so the
  kernel's share is what remains of ``Engine.run``/``run_until``.

Counts (calls per entry point) are recorded at the same boundaries.
Nothing is written while the simulation runs; the caller reads the
totals at the end.
"""

from __future__ import annotations

import collections
import functools
import inspect
import time

from repro.analysis import LatencyStats
from repro.cluster.composite import CompositeDeployment
from repro.cluster.deployment import Deployment, RequestAdapter
from repro.cluster.echo import EchoRole
from repro.cluster.endpoint import ServiceEndpoint
from repro.cluster.load_balancer import LoadBalancer
from repro.cluster.manager import ClusterManager, ServiceHandle
from repro.cluster.metrics import MetricsRegistry
from repro.cluster.scheduler import ClusterScheduler
from repro.host.slots import SlotLease
from repro.ranking.compression import CompressionMap
from repro.ranking.engine import ScoringEngine
from repro.ranking.features import FeatureExtractor
from repro.ranking.ffe.processor import FfeProcessor
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import RankingRequestAdapter
from repro.ranking.scoring import BoostedTreeScorer, NeuralScorer
from repro.ranking.stages import (
    FeatureExtractionRole,
    RankingStageRole,
    SpareRankingRole,
)
from repro.services.health_monitor import HealthMonitor
from repro.services.mapping_manager import MappingManager
from repro.shell.fdr import FlightDataRecorder
from repro.shell.pcie import HostDmaBuffers, PcieCore
from repro.shell.role import PassthroughRole, Role
from repro.shell.router import Router
from repro.shell.shell import Shell
from repro.shell.sl3 import Sl3Endpoint, Sl3Link
from repro.sim import Engine
from repro.workloads.openloop import OpenLoopInjector
from repro.workloads.traces import TraceGenerator

# Entry points by layer: (class, attribute).  Role handlers are listed
# per class because each subclass defines its own ``handle``.
ROLE_ENTRIES = [
    (Role, "handle"),
    (PassthroughRole, "handle"),
    (EchoRole, "handle"),
    (RankingStageRole, "handle"),
    (FeatureExtractionRole, "handle"),
    (SpareRankingRole, "handle"),
    # The queue manager dispatches FE work and model switches outside
    # ``handle``; they are the FE role's share of the request path.
    (FeatureExtractionRole, "_dispatch_document"),
    (FeatureExtractionRole, "_switch_model"),
]

ENTRY_POINTS = {
    "sim": [(Engine, "run"), (Engine, "run_until")],
    "openloop": [
        (OpenLoopInjector, "_arrivals_body"),
        (OpenLoopInjector, "_arrivals_body_fluid"),
        (OpenLoopInjector, "_handle"),
    ],
    "cluster": [
        (ServiceEndpoint, "submit"),
        (ServiceHandle, "submit"),
        (LoadBalancer, "submit"),
        (CompositeDeployment, "submit"),
        (Deployment, "submit"),
        (RequestAdapter, "prep"),
        (RankingRequestAdapter, "prep"),
    ],
    "host": [
        (SlotLease, "request"),
        (HostDmaBuffers, "fill_input"),
        (HostDmaBuffers, "consume_output"),
        (Deployment, "_quarantine"),
    ],
    "shell": [
        (Router, "submit"),
        (Sl3Endpoint, "send"),
        (FlightDataRecorder, "record"),
        # The shell's own service loops (PCIe DMA, SL3 wires, link
        # feeders) so their resumes count as shell, not kernel.
        (PcieCore, "_input_scan_loop"),
        (PcieCore, "_output_loop"),
        (Sl3Link, "_wire"),
        (Sl3Link, "_delivery"),
        (Shell, "_link_feeder"),
    ]
    + ROLE_ENTRIES,
    "ranking": [
        (ScoringEngine, "features"),
        (ScoringEngine, "ffe_values"),
        (ScoringEngine, "packed"),
        (ScoringEngine, "bank_partial"),
        (ScoringEngine, "score"),
        (ScoringEngine, "model_for"),
        (ScoringEngine, "ffe_stage_cycles"),
        (FfeProcessor, "evaluate_only"),
        (FeatureExtractor, "extract"),
        (CompressionMap, "pack"),
        (BoostedTreeScorer, "evaluate_bank"),
        (NeuralScorer, "evaluate_bank"),
        (ModelLibrary, "default"),
    ],
    "traces": [(TraceGenerator, "request")],
    "control": [
        (ClusterManager, "apply"),
        (ClusterManager, "reconcile"),
        (ClusterManager, "upgrade"),
        (ServiceHandle, "scale"),
        (ClusterScheduler, "deploy"),
        (ClusterScheduler, "deploy_gang"),
        (ClusterScheduler, "deploy_region"),
        (ClusterScheduler, "release"),
        (ClusterScheduler, "cordon"),
        (ClusterScheduler, "cordon_region"),
        (MappingManager, "deploy"),
        (HealthMonitor, "investigate"),
    ],
    "metrics": [
        (MetricsRegistry, "sample"),
        (LatencyStats, "from_samples"),
    ],
}


def entry_name(owner: type, attr: str) -> str:
    return f"{owner.__name__}.{attr}"


class Tracer:
    """Per-layer host self time, per-entry calls, host and sim time."""

    def __init__(self):
        self.engine: Engine | None = None  # the simulation being traced
        self._stack: list = []  # one [nested host ns] cell per open span
        self._patches: list = []
        self.self_ns = collections.Counter()  # layer -> host ns
        self.calls = collections.Counter()  # entry -> calls
        self.host_ns = collections.Counter()  # entry -> inclusive host ns
        self.sim_ns = collections.Counter()  # entry -> simulated ns (generators)
        self.results = collections.defaultdict(list)  # entry -> returns kept

    def reset(self) -> None:
        """Zero every total in place (the wrappers hold the tables)."""
        for table in (self.self_ns, self.calls, self.host_ns, self.sim_ns, self.results):
            table.clear()

    def snapshot(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "host_ns": dict(self.host_ns),
            "sim_ns": dict(self.sim_ns),
            "results": {k: list(v) for k, v in self.results.items()},
        }

    # -- installation ---------------------------------------------------------

    def install(self, keep_results=()) -> None:
        """Patch every entry point; ``keep_results`` names the entries
        whose return values are kept for the caller."""
        tracer = self
        original_init = Engine.__init__

        @functools.wraps(original_init)
        def init(engine, *args, **kwargs):
            original_init(engine, *args, **kwargs)
            tracer.engine = engine

        self._patches.append((Engine, "__init__", original_init))
        Engine.__init__ = init
        for layer, entries in ENTRY_POINTS.items():
            for owner, attr in entries:
                self._patch(owner, attr, layer, entry_name(owner, attr) in keep_results)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: type, attr: str, layer: str, keep: bool) -> None:
        raw = owner.__dict__[attr]
        name = entry_name(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap_function(raw.__func__, layer, name, keep))
        elif inspect.isgeneratorfunction(raw):
            wrapped = self._wrap_generator(raw, layer, name)
        else:
            wrapped = self._wrap_function(raw, layer, name, keep)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    # -- wrappers -------------------------------------------------------------

    def _wrap_function(self, fn, layer: str, name: str, keep: bool):
        stack = self._stack
        clock = time.perf_counter_ns
        self_ns, host_ns, calls, results = (
            self.self_ns, self.host_ns, self.calls, self.results
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = [0]
            stack.append(cell)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - started
                stack.pop()
                self_ns[layer] += spent - cell[0]
                host_ns[name] += spent
                calls[name] += 1
                if stack:
                    stack[-1][0] += spent
            if keep:
                results[name].append(result)
            return result

        return traced

    def _wrap_generator(self, fn, layer: str, name: str):
        stack = self._stack
        clock = time.perf_counter_ns
        self_ns, host_ns, calls, sim_ns = (
            self.self_ns, self.host_ns, self.calls, self.sim_ns
        )
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            calls[name] += 1
            engine = tracer.engine
            sim_start = engine.now
            value = None
            error = None
            try:
                while True:
                    cell = [0]
                    stack.append(cell)
                    started = clock()
                    try:
                        if error is None:
                            target = inner.send(value)
                        else:
                            pending, error = error, None
                            target = inner.throw(pending)
                    finally:
                        spent = clock() - started
                        stack.pop()
                        self_ns[layer] += spent - cell[0]
                        host_ns[name] += spent
                        if stack:
                            stack[-1][0] += spent
                    try:
                        value = yield target
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as exc:  # re-raised inside ``inner``
                        error = exc
                        value = None
            except StopIteration as stop:
                return stop.value
            finally:
                sim_ns[name] += engine.now - sim_start

        return traced
