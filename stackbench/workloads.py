"""The three benchmark workloads, each built from a seed and driven
through ``manager.endpoint()`` on the default (discrete) engine.

A workload is split the way the benchmark times it:

* a workload's ``build(seed, workdir, tick)`` is the set-up phase —
  datacenter build, ``apply``, model library, request-pool generation —
  and returns a :class:`Stack` holding everything up to the first
  arrival;
* :meth:`Stack.drive` is the measured phase: it offers a fixed,
  seed-determined number of open-loop Poisson arrivals (plus, for
  control-churn, the week of failures, repairs, scaling and the
  upgrade) and runs the simulation until every arrival has resolved;
* :meth:`Stack.measure` times that phase in host seconds, then runs
  :meth:`Stack.check` on the outputs and hashes every simulated
  outcome into a digest, so two same-seed runs compare bit for bit.

Simulated outcomes depend on the seed only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import pathlib
import statistics
import time

from repro.analysis import LatencyStats
from repro.cluster import (
    ClusterFailureInjector,
    ClusterManager,
    MetricsRegistry,
    RepairPolicy,
    ServiceSpec,
    echo_service,
    read_series,
)
from repro.core import CatapultFabric
from repro.fabric import Datacenter, TorusTopology
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.sim import Engine
from repro.sim.units import MS, SEC
from repro.workloads import OpenLoopInjector, PoissonArrivals
from repro.workloads.sizes import DocumentSizeDistribution
from repro.workloads.traces import TraceGenerator


def no_tick() -> None:
    """A build's default ``tick``: builds hand control to a HostClock
    between their stages (see ``stackbench/hostclock.py``)."""


def scheduled_entries(engine: Engine) -> int:
    """Entries the engine has scheduled so far: every entry is either
    dispatched, dropped after cancellation, or still pending."""
    return engine.events_dispatched + engine.events_dropped + engine.queue_length


@dataclasses.dataclass
class EchoRequest:
    """An echo request: only its wire size matters to the fabric."""

    request_id: int
    size_bytes: int


def echo_pool(engine: Engine, tag: str, count: int) -> list:
    """Echo requests with seed-drawn wire sizes (64 B to 2 KiB), so the
    PCIe and SL3 serialization times vary from seed to seed."""
    rng = engine.rng.stream(f"stackbench:pool:{tag}")
    return [EchoRequest(index, rng.randrange(64, 2049)) for index in range(count)]


class CheckedSink:
    """A thin open-loop sink in front of an endpoint that checks every
    response with ``check(request, response) -> bool`` and counts the
    wrong ones.  A wrong response still resolves the request (the
    injector counts it as completed); the benchmark adds the wrong
    count to the failures."""

    def __init__(self, endpoint, check):
        self.endpoint = endpoint
        self.check = check
        self.wrong = 0

    @property
    def outstanding(self) -> int:
        return self.endpoint.outstanding

    def submit(self, request, timeout_ns=None):
        response = yield from self.endpoint.submit(request, timeout_ns=timeout_ns)
        if response is not None and not self.check(request, response):
            self.wrong += 1
        return response

    # Fluid windows resolve requests without responses to check; these
    # forward the endpoint's optional fluid extension unchanged.

    def fluid_profile(self):
        return self.endpoint.fluid_profile()

    def note_fluid(self, window) -> None:
        self.endpoint.note_fluid(window)


class Traffic:
    """One endpoint's open-loop traffic: injector, checking sink and
    arrival count."""

    def __init__(self, engine, endpoint, rate_per_s, pool, arrivals, check,
                 timeout_ns, seed_tag="openloop", max_queue_depth=None):
        self.name = endpoint.name
        self.sink = CheckedSink(endpoint, check)
        self.injector = OpenLoopInjector(
            engine,
            self.sink,
            PoissonArrivals(rate_per_s),
            pool,
            max_queue_depth=max_queue_depth,
            timeout_ns=timeout_ns,
            seed_tag=seed_tag,
        )
        self.arrivals = arrivals
        self.done = None

    def start(self):
        self.done = self.injector.run(self.arrivals)

    @property
    def stats(self):
        return self.injector.stats


@dataclasses.dataclass
class Outcome:
    """Simulated results of one measured phase."""

    offered: int
    admitted: int
    rejected: int
    completed: int
    timeouts: int
    wrong: int
    scheduled: int  # engine entries scheduled during the measured phase
    sim_s: float  # simulated seconds of the measured phase
    latency: LatencyStats  # arrival-to-response, every completed request
    problems: list  # failed output checks, one line each
    digest: str
    host_s: float  # host seconds of the measured phase
    reference_s: float  # host_s at the reference speed (see hostclock)

    @property
    def failed(self) -> int:
        return self.rejected + self.timeouts + self.wrong


class Stack:
    """A built workload: engine, cluster, traffic — ready to drive."""

    # Wrong responses found by checks that run after the measured phase.
    late_wrong = 0

    def __init__(self, engine: Engine, manager: ClusterManager, traffic: list):
        self.engine = engine
        self.manager = manager
        self.traffic = traffic

    # Simulated time between the measured phase's hand-backs to a
    # HostClock; each slice is tens of host milliseconds.
    slice_ns = 200_000.0

    def drive(self, clock=None) -> None:
        """The measured phase; returns once every arrival resolved.

        With a ``clock`` the phase runs in slices of ``slice_ns``,
        ticking the clock after each, until the arrivals left to offer
        are within four of the largest slice seen; ``run_until`` runs
        the tail.  No slice reaches the end of the phase, so the engine
        dispatches the same entries in the same order either way and
        the outcome digest does not change (the traced run checks)."""
        engine = self.engine
        for one in self.traffic:
            one.start()
        if clock is not None:
            clock.start()
            largest = 16
            offered = self.offered()
            while self.arrivals() - offered > 4 * largest:
                engine.run(until=engine.now + self.slice_ns)
                clock.tick()
                largest = max(largest, self.offered() - offered)
                offered = self.offered()
            if any(one.done.triggered for one in self.traffic):
                raise RuntimeError("a slice reached the end of the measured phase")
        for one in self.traffic:
            engine.run_until(one.done)
        if clock is not None:
            clock.tick()

    def offered(self) -> int:
        return sum(one.stats.offered for one in self.traffic)

    def arrivals(self) -> int:
        return sum(one.arrivals for one in self.traffic)

    def check(self) -> list:
        """Output checks beyond the per-response ones; problem lines."""
        problems = []
        for one in self.traffic:
            stats = one.stats
            if stats.offered != stats.admitted + stats.rejected:
                problems.append(f"{one.name}: offered != admitted + rejected")
            if stats.completed + stats.timeouts != stats.admitted:
                problems.append(f"{one.name}: completed + timeouts != admitted")
            if one.sink.wrong:
                problems.append(f"{one.name}: {one.sink.wrong} wrong responses")
        return problems

    def digest_parts(self) -> list:
        """Workload-specific simulated outcomes folded into the digest."""
        return []

    def measure(self, on_driven=None, check: bool = True, clock=None) -> Outcome:
        """Drive the measured phase and collect its outcome; the
        optional ``on_driven`` runs right after the phase, before the
        checks.  ``check=False`` skips the output checks (for a
        repetition whose only use is its host time and digest).  With a
        :class:`HostClock` the phase is timed in slices with calibration
        between them, and the outcome carries reference seconds too."""
        engine = self.engine
        scheduled_before = scheduled_entries(engine)
        sim_before = engine.now
        started = time.perf_counter()
        self.drive(clock)
        host_s = time.perf_counter() - started
        reference_s = host_s
        if clock is not None:
            host_s, reference_s = clock.work_s, clock.reference_s
        if on_driven is not None:
            on_driven()
        scheduled = scheduled_entries(engine) - scheduled_before
        sim_s = (engine.now - sim_before) / SEC
        samples = []
        for one in self.traffic:
            samples.extend(one.stats.latencies_ns)
        latency = LatencyStats.from_samples(samples)
        totals = {
            key: sum(getattr(one.stats, key) for one in self.traffic)
            for key in ("offered", "admitted", "rejected", "completed", "timeouts")
        }
        problems = self.check() if check else []
        wrong = sum(one.sink.wrong for one in self.traffic) + self.late_wrong
        sha = hashlib.sha256()
        for one in self.traffic:
            sha.update(repr(sorted(one.stats.to_dict().items())).encode())
            sha.update(repr(list(one.stats.latencies_ns)).encode())
            sha.update(repr(one.sink.wrong).encode())
        sha.update(repr((scheduled, engine.now)).encode())
        for part in self.digest_parts():
            sha.update(repr(part).encode())
        return Outcome(
            wrong=wrong,
            scheduled=scheduled,
            sim_s=sim_s,
            latency=latency,
            problems=problems,
            digest=sha.hexdigest(),
            host_s=host_s,
            reference_s=reference_s,
            **totals,
        )


# -- endpoint-echo --------------------------------------------------------------

ECHO_PAYLOAD = "echo-ok"


class EndpointEcho:
    """The per-request hot path with nothing else running: three echo
    replicas on two 3x3 pods, 200k req/s offered, no failures."""

    name = "endpoint-echo"
    PODS = 2
    REPLICAS = 3
    RATE_PER_S = 200_000.0
    ARRIVALS = 20_000
    POOL = 64
    TIMEOUT_NS = 40 * MS

    def build(
        self, seed: int, workdir: pathlib.Path, tick=no_tick, fluid: bool = False
    ) -> Stack:
        engine = Engine(seed=seed, fluid=fluid)
        datacenter = Datacenter(
            engine, num_pods=self.PODS, topology=TorusTopology(width=3, height=3)
        )
        tick()
        manager = ClusterManager(datacenter)
        service = echo_service(payload=ECHO_PAYLOAD)
        manager.apply(
            ServiceSpec(
                service=service,
                replicas=self.REPLICAS,
                request_timeout_ns=self.TIMEOUT_NS,
            )
        )
        traffic = Traffic(
            engine,
            manager.endpoint(service.name),
            self.RATE_PER_S,
            echo_pool(engine, "echo", self.POOL),
            self.ARRIVALS,
            lambda _request, response: response.payload == ECHO_PAYLOAD,
            self.TIMEOUT_NS,
        )
        return Stack(engine, manager, [traffic])


# -- ranking-ring ---------------------------------------------------------------


def stratified_sizes(count: int) -> list:
    """Figure 4's document-size distribution at the midpoints of
    ``count`` equal-probability strata, with the same thinned tail as
    :class:`DocumentSizeDistribution`.

    A pool of a few hundred documents drawn at random holds anywhere
    from none to several of the rare 50-64 KiB documents, and those few
    set the p99.9; stratifying gives every seed the same size profile.
    """
    sizes = DocumentSizeDistribution
    log_normal = statistics.NormalDist(sizes.MU, sizes.SIGMA)
    below = log_normal.cdf(math.log(sizes.TAIL_THRESHOLD))
    total = below + (1.0 - below) / sizes.TAIL_THINNING
    result = []
    for index in range(count):
        mass = (index + 0.5) / count * total
        if mass > below:  # inside the thinned tail
            mass = below + (mass - below) * sizes.TAIL_THINNING
        size = math.exp(log_normal.inv_cdf(mass))
        result.append(int(min(max(size, sizes.MIN_BYTES), sizes.CAP_BYTES)))
    return result


class RankingStack(Stack):
    """Records each document's ring score; checks them against a
    software reference after the measured phase."""

    slice_ns = 50_000.0  # a ranking request costs ~50x an echo one

    def __init__(self, engine, manager, library):
        super().__init__(engine, manager, [])
        self.library = library
        # doc_id -> [document, first ring score, responses carrying it]
        self.ring_scores: dict = {}

    def record(self, request, response) -> bool:
        """Per-response check: a document's ring score never changes."""
        document = request.document
        score = response.payload.score
        seen = self.ring_scores.get(document.doc_id)
        if seen is None:
            self.ring_scores[document.doc_id] = [document, score, 1]
            return True
        if seen[1] != score:
            return False
        seen[2] += 1
        return True

    def software_scores(self) -> dict:
        """Each distinct document scored in software on a fresh engine
        (no cache shared with the ring), the three scorer-bank partials
        summed in ring order as the FPGA pipeline sums them."""
        reference = ScoringEngine(self.library)
        scores = {}
        for doc_id, (document, _ring, _count) in sorted(self.ring_scores.items()):
            model = reference.model_for(document)
            total = 0.0
            for bank in range(3):
                total += reference.bank_partial(document, model, bank)
            scores[doc_id] = total
        return scores

    def check(self) -> list:
        problems = super().check()
        mismatched = 0
        for doc_id, score in self.software_scores().items():
            _document, ring, count = self.ring_scores[doc_id]
            if ring != score:
                mismatched += 1
                self.late_wrong += count  # every response it got was wrong
        if mismatched:
            problems.append(
                f"ranking: {mismatched} documents score differently in software"
            )
        return problems

    def digest_parts(self) -> list:
        return [sorted((doc_id, s[1]) for doc_id, s in self.ring_scores.items())]


class RankingRing:
    """The paper's ranking service (model scale 1.0) on two rings at
    about half of their saturation throughput."""

    name = "ranking-ring"
    RINGS = 2
    # The two rings saturate near 150k req/s at this model mix (measured
    # by overdriving them); half of that keeps the queue-manager batching
    # and the model reloads in the tail without a growing backlog.
    RATE_PER_S = 75_000.0
    ARRIVALS = 10_000
    DOCUMENTS = 256  # distinct documents, cycled; caches start cold
    MODEL_MIX = {0: 0.6, 1: 0.2, 2: 0.1, 3: 0.1}
    TIMEOUT_NS = 40 * MS

    def build(self, seed: int, workdir: pathlib.Path, tick=no_tick) -> Stack:
        engine = Engine(seed=seed)
        fabric = CatapultFabric(pods=1, engine=engine)
        tick()
        library = ModelLibrary.default(scale=1.0)
        tick()
        spec, _scoring, library = fabric.ranking_spec(
            replicas=self.RINGS, library=library
        )
        fabric.apply(spec)
        tick()
        # The seed draws each document's query, content and model; the
        # sizes are Figure 4's strata in bit-reversed order, so the few
        # large documents sit far apart in the cycled pool and never
        # queue behind one another at the FE on every pass.
        sizes = stratified_sizes(self.DOCUMENTS)
        bits = (self.DOCUMENTS - 1).bit_length()
        order = sorted(
            range(self.DOCUMENTS),
            key=lambda index: int(f"{index:0{bits}b}"[::-1], 2),
        )
        generator = TraceGenerator(seed=seed, model_mix=self.MODEL_MIX)
        pool = []
        for index in order:
            pool.append(generator.request(target_size=sizes[index]))
            tick()
        manager = fabric.manager()
        stack = RankingStack(engine, manager, library)
        stack.traffic.append(
            Traffic(
                engine,
                manager.endpoint(spec.name),
                self.RATE_PER_S,
                pool,
                self.ARRIVALS,
                stack.record,
                self.TIMEOUT_NS,
            )
        )
        return stack


# -- control-churn --------------------------------------------------------------

DAY_NS = 2.0 * SEC  # one compressed "day"
DAYS = 7
KILL_AT = 0.1  # of each day: one ring killed per day, days 0..DAYS-3
SCALE_UP_AT = 0.5
SCALE_DOWN_AT = 0.8
UPGRADE_DAY = 3.5
SAMPLE_NS = 50 * MS
CHURN_TIMEOUT_NS = 40 * MS
REPAIR = RepairPolicy(distribution="lognormal", mean_ns=0.5 * DAY_NS, sigma=0.5)


class ChurnStack(Stack):
    """A compressed week of failures, repairs, scaling and an upgrade
    under low traffic through four endpoints."""

    def __init__(self, engine, manager, traffic, handles, specs, series_path):
        super().__init__(engine, manager, traffic)
        self.handles = handles
        self.specs = specs
        self.series_path = series_path
        self.injector = ClusterFailureInjector(manager.datacenter)
        self.kills: list = []  # (sim ns, service) per injected ring kill
        self.metrics = None
        self.series: list = []

    def _kill_one(self, day: int) -> None:
        # Alternate between a whole-ring replica and a member ring of
        # the composite.  ``kill_ring`` takes a single ring: handed the
        # composite itself it raises AttributeError (see README).
        service = "web" if day % 2 == 0 else "chain"
        replica = self.handles[service].deployments[0]
        ring = replica.members[0] if service == "chain" else replica
        self.injector.kill_ring(ring)
        self.kills.append((self.engine.now, service))

    def drive(self, clock=None) -> None:
        engine = self.engine
        tick = clock.tick if clock is not None else lambda: None
        if clock is not None:
            clock.start()
        metrics = MetricsRegistry(self.manager, path=self.series_path)
        for one in self.traffic:
            metrics.attach_workload(one.name, one.injector)
        self.metrics = metrics
        metrics.start(SAMPLE_NS)
        for one in self.traffic:
            one.start()
        start = engine.now
        web = self.handles["web"]
        kills = ups = downs = 0
        upgraded = False
        # Day thresholds, not equalities: a reconciliation inside a
        # chunk spends ~1 s of simulated time reconfiguring a ring and
        # can carry the clock across a threshold.
        while not all(one.done.triggered for one in self.traffic):
            engine.run(until=engine.now + SAMPLE_NS)
            tick()
            elapsed = engine.now - start
            if kills < DAYS - 2 and elapsed >= (kills + KILL_AT) * DAY_NS:
                self._kill_one(kills)
                kills += 1
            if ups < DAYS and elapsed >= (ups + SCALE_UP_AT) * DAY_NS:
                web.scale(self.specs["web"].replicas + 1)
                ups += 1
            if downs < ups and elapsed >= (downs + SCALE_DOWN_AT) * DAY_NS:
                web.scale(self.specs["web"].replicas)
                downs += 1
            if not upgraded and elapsed >= UPGRADE_DAY * DAY_NS:
                upgraded_spec = dataclasses.replace(
                    self.specs["web"],
                    service=echo_service(
                        name="web", payload="web-v2", delay_ns=3_000.0
                    ),
                )
                web.upgrade(upgraded_spec)
                self.specs["web"] = upgraded_spec
                upgraded = True
        # Let every open repair ticket close, then converge once more:
        # the declared replica counts must hold after the last repair.
        repairs = self.manager.repairs
        deadline = engine.now + 3 * DAY_NS
        while repairs.open_tickets and engine.now < deadline:
            engine.run(until=engine.now + SAMPLE_NS)
            tick()
        self.manager.reconcile()
        metrics.sample()
        metrics.stop()
        self.series = read_series(self.series_path)
        tick()

    def check(self) -> list:
        problems = super().check()
        if self.manager.repairs.open_tickets:
            problems.append("churn: repair tickets still open after the week")
        for name, handle in sorted(self.handles.items()):
            ready = [d for d in handle.deployments if d.health_weight() > 0.0]
            if len(ready) != self.specs[name].replicas:
                problems.append(
                    f"churn: {name} has {len(ready)} ready replicas, "
                    f"declared {self.specs[name].replicas}"
                )
        if len(self.series) != len(self.metrics.snapshots):
            problems.append("churn: exported series does not read back whole")
        else:
            last = self.series[-1]["services"]
            for one in self.traffic:
                if last[one.name]["workload"] != one.stats.to_dict():
                    problems.append(f"churn: exported {one.name} counters differ")
        return problems

    def capacity_min(self) -> float:
        return min(
            (snap["capacity"]["free_rings"] + snap["capacity"]["occupied_rings"])
            / snap["capacity"]["total_rings"]
            for snap in self.series
        )

    def digest_parts(self) -> list:
        return [
            self.kills,
            hashlib.sha256(self.series_path.read_bytes()).hexdigest(),
        ]


class ControlChurn:
    """Every replica shape under a compressed week of churn."""

    name = "control-churn"
    PODS = 4
    RATES = {  # low traffic through each endpoint, req/s
        "web": 800.0,
        "chain": 400.0,
        "tenant-lat": 300.0,
        "tenant-batch": 300.0,
    }

    def specs(self) -> dict:
        common = dict(
            balancing="weighted_health",
            request_timeout_ns=CHURN_TIMEOUT_NS,
            health_period_ns=0.15 * SEC,
        )
        return {
            "web": ServiceSpec(
                service=echo_service(name="web", payload="web"),
                replicas=3,
                **common,
            ),
            "chain": ServiceSpec(
                service=echo_service(name="chain", payload="chain"),
                replicas=2,
                rings_per_replica=2,
                **common,
            ),
            "tenant-lat": ServiceSpec(
                service=echo_service(name="tenant-lat", payload="tenant-lat"),
                regions=0.5,
                priority="latency",
                **common,
            ),
            "tenant-batch": ServiceSpec(
                service=echo_service(name="tenant-batch", payload="tenant-batch"),
                regions=0.5,
                priority="batch",
                **common,
            ),
        }

    def build(self, seed: int, workdir: pathlib.Path, tick=no_tick) -> Stack:
        engine = Engine(seed=seed)
        datacenter = Datacenter(
            engine, num_pods=self.PODS, topology=TorusTopology(width=3, height=3)
        )
        tick()
        manager = ClusterManager(datacenter, repair_policy=REPAIR)
        specs = self.specs()
        handles = {}
        for name, spec in specs.items():
            handles[name] = manager.apply(spec)
            tick()
        payloads = {name: {name} for name in specs}
        payloads["web"].add("web-v2")  # the mid-week upgrade's image
        traffic = []
        for name, rate in self.RATES.items():
            allowed = payloads[name]
            traffic.append(
                Traffic(
                    engine,
                    manager.endpoint(name),
                    rate,
                    echo_pool(engine, name, 16),
                    int(rate * DAYS * DAY_NS / SEC),
                    lambda _request, response, allowed=allowed: (
                        response.payload in allowed
                    ),
                    CHURN_TIMEOUT_NS,
                    seed_tag=name,
                    max_queue_depth=256,
                )
            )
        series_path = workdir / "control-churn-metrics.jsonl"
        return ChurnStack(engine, manager, traffic, handles, specs, series_path)


WORKLOADS = {w.name: w for w in (EndpointEcho(), RankingRing(), ControlChurn())}
