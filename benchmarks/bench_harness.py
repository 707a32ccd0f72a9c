"""Shared experiment machinery for the benchmark suite.

Builds deployed ranking rings, runs closed-loop (thread-count) and
open-loop (Poisson arrival) injection experiments, and the software-
baseline equivalents — the methodology of §5.
"""

from __future__ import annotations

import functools
import itertools
import pathlib
import tempfile

from repro.analysis import LatencyStats, ReservoirSample
from repro.fabric import Pod, TorusTopology
from repro.host.slots import SlotClient
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import (
    HOST_PREP_CPU_NS,
    RankingPipeline,
    SSD_LOOKUP_NS,
)
from repro.ranking.software_ranker import SoftwareRanker
from repro.ranking.stages import RankingPayload
from repro.sim import AllOf, Engine, Store
from repro.sim.units import SEC

# Empirical anchors from the calibration run (see EXPERIMENTS.md):
# the 8-FPGA ring saturates at ~77 K docs/s (FE-bound at 1 cycle per
# hit-vector token), i.e. ~9.6 K docs/s per server when all eight ring
# servers share it; a software server saturates at ~7.2 K docs/s
# nominal, ~5.5 K effective once memory-hierarchy contention inflates
# service times.  Per-server capacity ratio at the latency bound:
# ~1.9x (paper: 1.95x).  "Injection rate 1.0" normalizes so both
# systems remain stable through the paper's rate-2.0 sweep (Figure 14).
SOFTWARE_SATURATION_PER_S = 7_200.0
FPGA_PER_SERVER_SATURATION_PER_S = 9_600.0
RATE_ONE_PER_S = 2_600.0

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@functools.cache
def _smoke_results() -> tempfile.TemporaryDirectory:
    return tempfile.TemporaryDirectory(prefix="bench-smoke-")


def results_dir(smoke: bool) -> pathlib.Path:
    """Where a benchmark writes its tables and series.

    A full run writes the committed ``benchmarks/results/``.  A smoke
    run (the reduced CI configuration) writes one temporary directory
    per process, removed at exit, so its reduced-scale output never
    overwrites a committed artifact.
    """
    if smoke:
        return pathlib.Path(_smoke_results().name)
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def build_ring(
    seed: int = 1, model_scale: float = 1.0, qm_policy: str = "batch"
) -> tuple[Engine, Pod, RankingPipeline, list]:
    """A deployed 8-FPGA ranking ring on a 2x8 pod plus a request pool."""
    eng = Engine(seed=seed)
    pod = Pod(eng, topology=TorusTopology(width=2, height=8))
    library = ModelLibrary.default(scale=model_scale)
    pipeline = RankingPipeline(eng, pod, library, ring_x=0, qm_policy=qm_policy)
    pipeline.deploy()
    pool = pipeline.make_request_pool(48, seed=seed + 100)
    warm_engine(pipeline, pool)
    return eng, pod, pipeline, pool


def warm_engine(pipeline: RankingPipeline, pool: list) -> None:
    """Pre-compute functional results so timing runs are pure timing."""
    for request in pool:
        model = pipeline.library[request.document.model_id]
        pipeline.scoring_engine.score(request.document, model)


# --- open-loop (Poisson) injection ------------------------------------------------


def open_loop_fpga(
    eng: Engine,
    pipeline: RankingPipeline,
    servers: list,
    pool: list,
    rate_per_server_s: float,
    samples: int,
    seed_tag: str = "",
) -> ReservoirSample:
    """Poisson arrivals on each server; returns all recorded latencies.

    Each arrival waits for a free slot lease (64 per server), performs
    the software portion (SSD + hit-vector prep), injects, and sleeps
    until the score returns — the production flow of §4.
    """
    latencies = ReservoirSample()
    interarrival_ns = 1e9 / rate_per_server_s
    per_server = max(1, samples // len(servers))
    procs = []
    for server in servers:
        client = SlotClient(server)
        leases = Store(eng, name=f"leases:{server.machine_id}")
        for lease in client.leases(48):
            leases.try_put(lease)
        rng = eng.rng.stream(f"openloop:{seed_tag}:{server.machine_id}")
        pool_cycle = itertools.cycle(pool)

        def handle(arrived_ns, request, leases=leases, server=server):
            lease = yield leases.get()
            try:
                yield server.engine.timeout(SSD_LOOKUP_NS)
                yield from server.run_on_core(HOST_PREP_CPU_NS)
                payload = RankingPayload(document=request.document)
                yield from lease.request(
                    dst=pipeline.head_node,
                    size_bytes=request.size_bytes,
                    payload=payload,
                    timeout_ns=5 * SEC,
                )
                latencies.append(eng.now - arrived_ns)
            finally:
                yield leases.put(lease)

        def arrivals(rng=rng, pool_cycle=pool_cycle, handle=handle):
            children = []
            for _ in range(per_server):
                yield eng.timeout(rng.expovariate(1.0) * interarrival_ns)
                children.append(eng.process(handle(eng.now, next(pool_cycle))))
            yield AllOf(eng, children)

        procs.append(eng.process(arrivals()))
    eng.run_until(AllOf(eng, procs))
    return latencies


def open_loop_software(
    eng: Engine,
    server,
    scoring_engine,
    pool: list,
    rate_per_s: float,
    samples: int,
    seed_tag: str = "",
) -> ReservoirSample:
    """Poisson arrivals scored entirely in software on one server."""
    ranker = SoftwareRanker(server, scoring_engine)
    interarrival_ns = 1e9 / rate_per_s
    rng = eng.rng.stream(f"swloop:{seed_tag}:{server.machine_id}")
    pool_cycle = itertools.cycle(pool)
    latencies = ReservoirSample()

    def handle(arrived_ns, request):
        yield from ranker.score_request(request)
        latencies.append(eng.now - arrived_ns)

    def arrivals():
        children = []
        for _ in range(samples):
            yield eng.timeout(rng.expovariate(1.0) * interarrival_ns)
            children.append(eng.process(handle(eng.now, next(pool_cycle))))
        yield AllOf(eng, children)

    eng.run_until(eng.process(arrivals()))
    return latencies


def latency_stats(latencies: list) -> LatencyStats:
    return LatencyStats.from_samples(latencies)
