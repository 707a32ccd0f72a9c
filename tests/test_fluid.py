"""Fluid fast-forward: equivalence with the discrete path, transient
handling, and the recycling primitives that ride along (Timeout.rearm,
Slab, ReservoirSample.merge_analytic)."""

import math

import pytest

from repro.analysis import ReservoirSample
from repro.cluster import (
    ClusterFailureInjector,
    ClusterManager,
    ServiceSpec,
    echo_service,
)
from repro.fabric import Datacenter, TorusTopology
from repro.sim import (
    AnyOf,
    Engine,
    SEC,
    Slab,
    SlabError,
    Store,
)
from repro.sim.fluid import (
    FluidModel,
    FluidProfile,
    PeriodicTransient,
    ScheduledTransients,
)
from repro.sim.units import MS
from repro.workloads.openloop import (
    BurstyArrivals,
    DiurnalArrivals,
    OpenLoopInjector,
    PoissonArrivals,
)

# --- echo sink with the fluid protocol ------------------------------------


class EchoServer:
    def __init__(self, engine, service_ns):
        self.engine = engine
        self.queue = Store(engine, name="echo-q")
        engine.process(self._serve(service_ns), name="echo.worker", daemon=True)

    def _serve(self, service_ns):
        engine = self.engine
        while True:
            payload, done = yield self.queue.get()
            yield engine.timeout(service_ns)
            done.succeed(payload)


class EchoCluster:
    """Round-robin deterministic-service sink publishing an exact
    M/D/c fluid profile — the reference for equivalence checks."""

    def __init__(self, engine, servers, service_ns):
        self.engine = engine
        self.service_ns = service_ns
        self.servers = [EchoServer(engine, service_ns) for _ in range(servers)]
        self.outstanding = 0
        self._next = 0

    def submit(self, request, timeout_ns):
        engine = self.engine
        self.outstanding += 1
        try:
            server = self.servers[self._next]
            self._next = (self._next + 1) % len(self.servers)
            done = engine.event(name="echo-done")
            yield server.queue.put((request, done))
            deadline = engine.timeout(timeout_ns)
            yield AnyOf(engine, [done, deadline])
            if not done.triggered:
                return None
            deadline.cancel()
            return done.value
        finally:
            self.outstanding -= 1

    def fluid_profile(self):
        return FluidProfile(
            servers=len(self.servers),
            service_ns=self.service_ns,
            cursor=self._next,
        )

    def note_fluid(self, window):
        self._next = (self._next + window.admitted) % len(self.servers)


def run_once(
    fluid,
    arrivals_factory,
    count=8_000,
    servers=4,
    service_ns=1_500.0,
    max_depth=256,
    timeout_ns=5 * SEC,
    sanitize=False,
    script=None,
):
    engine = Engine(seed=2014, fluid=fluid, sanitize=sanitize)
    cluster = EchoCluster(engine, servers, service_ns)
    injector = OpenLoopInjector(
        engine,
        cluster,
        arrivals_factory(),
        pool=list(range(16)),
        max_queue_depth=max_depth,
        timeout_ns=timeout_ns,
    )
    if script is not None:
        script(engine, cluster)
    done = injector.run(count)
    stats = engine.run_until(done)
    return {
        "counters": injector.stats.to_dict(),
        "latency": stats.stats(),
        "now": engine.now,
        "dispatched": engine.events_dispatched,
        "windows": engine.fluid.windows if engine.fluid else 0,
    }


def assert_equivalent(discrete, fluid, min_event_ratio=2.0):
    assert fluid["counters"] == discrete["counters"]
    assert fluid["now"] == discrete["now"]
    for field in ("p50", "p99"):
        d = getattr(discrete["latency"], field)
        f = getattr(fluid["latency"], field)
        assert f == pytest.approx(d, rel=0.01), (field, d, f)
    # The whole point: the same answers from far fewer engine events.
    assert fluid["dispatched"] * min_event_ratio <= discrete["dispatched"], (
        fluid["dispatched"],
        discrete["dispatched"],
    )
    assert fluid["windows"] > 0


# --- equivalence: same seed, same answers ---------------------------------


def test_fluid_matches_discrete_poisson():
    def factory():
        return PoissonArrivals(400_000.0)
    discrete = run_once(False, factory)
    fluid = run_once(True, factory)
    assert_equivalent(discrete, fluid, min_event_ratio=50.0)


def test_fluid_matches_discrete_bursty():
    def factory():
        return BurstyArrivals(
            base_rate_per_s=150_000.0,
            burst_rate_per_s=900_000.0,
            period_s=0.008,
            duty=0.25,
        )
    discrete = run_once(False, factory)
    fluid = run_once(True, factory)
    assert_equivalent(discrete, fluid)


def test_fluid_matches_discrete_diurnal():
    # Slow rate drift: the curvature horizon (~4 ms at this amplitude
    # and period) clears the minimum window, so fluid engages in
    # horizon-bounded steps that track the varying rate.
    def factory():
        return DiurnalArrivals(400_000.0, amplitude=0.2, period_s=0.1)
    discrete = run_once(False, factory)
    fluid = run_once(True, factory)
    assert_equivalent(discrete, fluid)


def test_fluid_sits_out_fast_diurnal_swings():
    # Rate curvature too fast for the tolerance: the horizon never
    # clears the minimum window and the run stays discrete — correct
    # (if conservative) behavior, with answers unchanged.
    def factory():
        return DiurnalArrivals(400_000.0, amplitude=0.4, period_s=0.02)
    discrete = run_once(False, factory, count=2_000)
    fluid = run_once(True, factory, count=2_000)
    assert fluid["counters"] == discrete["counters"]
    assert fluid["now"] == discrete["now"]
    assert fluid["windows"] == 0


def test_fluid_matches_discrete_under_sanitizer():
    def factory():
        return PoissonArrivals(400_000.0)
    discrete = run_once(False, factory, count=2_000, sanitize=True)
    fluid = run_once(True, factory, count=2_000, sanitize=True)
    assert_equivalent(discrete, fluid, min_event_ratio=10.0)


def test_fluid_matches_discrete_with_admission_pressure():
    # Depth limit low enough that bursts shed: rejected counts must
    # still agree exactly (the virtual queue sees the same depth).
    def factory():
        return BurstyArrivals(
            base_rate_per_s=200_000.0,
            burst_rate_per_s=4_000_000.0,
            period_s=0.004,
            duty=0.5,
        )
    discrete = run_once(False, factory, max_depth=24, servers=2)
    fluid = run_once(True, factory, max_depth=24, servers=2)
    assert discrete["counters"]["rejected"] > 0  # the scenario bites
    assert_equivalent(discrete, fluid, min_event_ratio=1.0)


def test_fluid_matches_discrete_across_kill_and_repair():
    """A server is pulled from rotation mid-run and restored later —
    the fluid run must drop to discrete around both transients (the
    instants are registered as ScheduledTransients) and still agree
    with the discrete run exactly."""
    kill_at = 6.0 * MS
    repair_at = 14.0 * MS

    def script(engine, cluster):
        if engine.fluid is not None:
            # A 20 ms run: shrink the guard/warm-up from the production
            # 5 ms so fluid has room to engage between the transients.
            engine.fluid.guard_ns = 1.0 * MS
            engine.fluid.warmup_ns = 1.0 * MS
            engine.fluid.register(ScheduledTransients([kill_at, repair_at]))

        def chaos():
            yield engine.timeout(kill_at)
            victim = cluster.servers.pop()
            cluster._next %= len(cluster.servers)
            if engine.fluid is not None:
                engine.fluid.note_transient("kill")
            yield engine.timeout(repair_at - kill_at)
            cluster.servers.append(victim)
            if engine.fluid is not None:
                engine.fluid.note_transient("repair")

        engine.process(chaos(), name="chaos", daemon=True)

    def factory():
        return PoissonArrivals(400_000.0)
    discrete = run_once(False, factory, script=script)
    fluid = run_once(True, factory, script=script)
    assert_equivalent(discrete, fluid, min_event_ratio=1.5)


def test_fluid_off_is_the_default_and_discrete_path_is_unchanged():
    engine = Engine(seed=1)
    assert engine.fluid is None
    def factory():
        return PoissonArrivals(400_000.0)
    a = run_once(False, factory, count=1_000)
    b = run_once(False, factory, count=1_000)
    assert a == b  # same seed, same series — still fully deterministic


def endpoint_outage(fluid: bool):
    """A 1-replica echo service behind its endpoint loses its only ring
    mid-run; arrivals must shed until the replacement serves."""
    engine = Engine(seed=1, fluid=fluid)
    datacenter = Datacenter(
        engine, num_pods=1, topology=TorusTopology(width=3, height=3)
    )
    manager = ClusterManager(datacenter)
    handle = manager.apply(
        ServiceSpec(
            service=echo_service(),
            health_period_ns=0.1 * SEC,
            request_timeout_ns=40 * MS,
        )
    )
    traffic = OpenLoopInjector(
        engine,
        manager.endpoint("echo-service"),
        PoissonArrivals(5_000.0),
        [object()],
        timeout_ns=40 * MS,
    )
    done = traffic.run(10_000)
    engine.run(until=engine.now + 0.5 * SEC)
    ClusterFailureInjector(datacenter).kill_ring(handle.deployments[0])
    return engine.run_until(done)


def test_fluid_endpoint_sheds_while_its_balancer_is_empty():
    """Regression: while the killed replica awaited re-placement the
    endpoint's fluid profile was FluidProfile(servers=0), which raised
    ValueError; an empty balancer now keeps the run discrete, where the
    arrivals shed exactly as with fluid off."""
    fluid = endpoint_outage(True)
    assert fluid.rejected > 0
    assert fluid.offered == fluid.admitted + fluid.rejected
    assert fluid.to_dict() == endpoint_outage(False).to_dict()


# --- coordinator mechanics ------------------------------------------------


def test_window_end_respects_guard_and_observers():
    engine = Engine(seed=0, fluid=True)
    fluid = engine.fluid
    fluid.register(ScheduledTransients([20.0 * MS]))  # guarded
    fluid.register(PeriodicTransient(7.0 * MS), guarded=False)
    # Observer tick at 7ms bounds exactly; the kill at 20ms minus the
    # 5ms guard would allow 15ms.
    assert fluid.window_end(0.0) == 7.0 * MS
    assert fluid.window_end(8.0 * MS) == 14.0 * MS
    # Past both ticks before the guarded transient: guard applies.
    assert fluid.window_end(14.5 * MS) == 15.0 * MS


def test_note_transient_forces_discrete_warmup():
    engine = Engine(seed=0, fluid=True)
    fluid = engine.fluid
    fluid.note_transient("test")
    assert fluid.window_end(0.0) == 0.0  # no window during warm-up
    assert fluid.usable_window(0.0) == 0.0
    after = fluid.discrete_until_ns
    assert after == engine.now + fluid.warmup_ns
    assert fluid.window_end(after + 1.0) > after


def test_usable_window_enforces_minimum_width():
    engine = Engine(seed=0, fluid=True)
    fluid = engine.fluid
    fluid.register(
        ScheduledTransients([fluid.guard_ns + fluid.min_window_ns / 2])
    )
    assert fluid.window_end(0.0) == fluid.min_window_ns / 2
    assert fluid.usable_window(0.0) == 0.0  # too narrow to engage


def test_run_deadline_bounds_windows():
    engine = Engine(seed=0, fluid=True)
    seen = []

    def probe():
        yield engine.timeout(1.0 * MS)
        seen.append(engine.fluid.window_end(engine.now))

    engine.process(probe())
    engine.run(until=3.0 * MS)
    assert seen == [3.0 * MS]
    # Outside a bounded run the deadline no longer caps the window.
    assert engine.fluid.window_end(engine.now) == math.inf


def test_periodic_transient_is_strictly_after_now():
    ticks = PeriodicTransient(10.0, anchor_ns=0.0)
    assert ticks.next_transient_ns(0.0) == 10.0
    assert ticks.next_transient_ns(10.0) == 20.0
    assert ticks.next_transient_ns(9.999999) == 10.0


def test_scheduled_transients_ordering():
    sched = ScheduledTransients([5.0, 1.0])
    sched.add(3.0)
    assert sched.next_transient_ns(0.0) == 1.0
    assert sched.next_transient_ns(1.0) == 3.0
    assert sched.next_transient_ns(5.0) == math.inf


# --- the virtual queue ----------------------------------------------------


def test_fluid_model_tracks_queue_buildup_exactly():
    model = FluidModel(FluidProfile(servers=2, service_ns=10.0))
    # Three arrivals at t=0: two start immediately, one queues.
    assert model.offer(0.0) == 10.0
    assert model.offer(0.0) == 10.0
    assert model.offer(0.0) == 20.0  # waits for channel 0 to free
    assert model.outstanding == 3
    assert model.drain(10.0) == 2
    assert model.outstanding == 1
    assert model.last_completion_ns == 20.0
    assert model.drain(25.0) == 1


def test_fluid_model_requires_exact_profile():
    sampler_profile = FluidProfile(servers=1, sampler=lambda rng: 1.0)
    with pytest.raises(ValueError):
        FluidModel(sampler_profile)


def test_fluid_profile_validation():
    with pytest.raises(ValueError):
        FluidProfile(servers=0, service_ns=1.0)
    with pytest.raises(ValueError):
        FluidProfile(servers=1)
    with pytest.raises(ValueError):
        FluidProfile(servers=1, service_ns=-1.0)


# --- Timeout.rearm --------------------------------------------------------


def test_rearm_reuses_one_timeout_across_sleeps():
    engine = Engine(seed=0)
    instants = []

    def sleeper():
        gate = engine.timeout(5.0)
        yield gate
        instants.append(engine.now)
        for _ in range(3):
            gate.rearm(7.0)
            yield gate
            instants.append(engine.now)

    engine.process(sleeper())
    engine.run()
    assert instants == [5.0, 12.0, 19.0, 26.0]


def test_rearm_of_pending_timeout_raises():
    engine = Engine(seed=0)
    gate = engine.timeout(5.0)
    with pytest.raises(RuntimeError):
        gate.rearm(1.0)  # still queued: rearming would resurrect it


def test_rearm_rejects_negative_delay():
    engine = Engine(seed=0)

    def sleeper():
        gate = engine.timeout(1.0)
        yield gate
        with pytest.raises(ValueError):
            gate.rearm(-1.0)

    engine.process(sleeper())
    engine.run()


# --- Slab -----------------------------------------------------------------


def test_slab_recycles_and_counts():
    engine = Engine(seed=0)
    slab = Slab.for_events(engine, name="pooled")
    first = slab.acquire()
    slab.release(first)
    second = slab.acquire()
    assert second is first
    assert slab.allocated == 1 and slab.recycled == 1


def test_slab_double_release_raises():
    engine = Engine(seed=0)
    slab = Slab.for_events(engine)
    event = slab.acquire()
    slab.release(event)
    with pytest.raises(SlabError):
        slab.release(event)


def test_slab_refuses_to_recycle_scheduled_event():
    engine = Engine(seed=0)
    slab = Slab.for_events(engine)
    event = slab.acquire()
    event.succeed("x")  # scheduled but not yet dispatched
    with pytest.raises(SlabError):
        slab.release(event)


def test_slab_reset_restores_pristine_event():
    engine = Engine(seed=0)
    slab = Slab.for_events(engine, name="pooled")
    event = slab.acquire()
    event.succeed("payload")
    engine.run()
    slab.release(event)  # dispatched: safe to recycle
    fresh = slab.acquire()
    assert fresh is event
    assert not fresh.triggered and fresh.callbacks is None
    fresh.succeed("again")  # a triggered event would raise here
    engine.run()
    assert fresh.value == "again"


def test_slab_capacity_bounds_the_freelist():
    engine = Engine(seed=0)
    slab = Slab(lambda: engine.event(), capacity=1)
    a, b = slab.acquire(), slab.acquire()
    slab.release(a)
    slab.release(b)  # beyond capacity: dropped, not parked
    assert len(slab) == 1


def test_slab_violation_is_a_sanitizer_finding():
    engine = Engine(seed=0, sanitize=True)
    slab = Slab.for_events(engine)
    event = slab.acquire()
    event.succeed("x")
    with pytest.raises(SlabError):
        slab.release(event)
    assert any(
        finding.kind == "slab-resurrection"
        for finding in engine.sanitizer.findings
    )


# --- ReservoirSample.merge_analytic ---------------------------------------


def test_merge_analytic_exact_below_capacity():
    reservoir = ReservoirSample(capacity=1_000, seed=1)
    reservoir.merge_analytic(100, 2_000.0)
    assert reservoir.count == 100
    assert reservoir.total == pytest.approx(100 * 2_000.0)
    summary = reservoir.summary()
    assert summary.count == 100
    assert summary.p50 == pytest.approx(2_000.0)


def test_merge_analytic_beyond_capacity_keeps_counts():
    reservoir = ReservoirSample(capacity=64, seed=2)
    reservoir.extend([1_000.0] * 64)
    reservoir.merge_analytic(10_000, 3_000.0)
    assert reservoir.count == 10_064
    assert reservoir.sample_size == 64
    # The bulk merge dominates: most reservoir slots now hold its mean.
    merged = sum(1 for v in reservoir._sample if v == 3_000.0)
    assert merged > 32


def test_merge_analytic_with_draw_injects_spread():
    reservoir = ReservoirSample(capacity=32, seed=3)
    reservoir.merge_analytic(16, 500.0, draw=lambda rng: 400.0 + rng.random() * 200.0)
    values = set(reservoir._sample)
    assert len(values) > 1
    assert all(400.0 <= v <= 600.0 for v in values)


def test_merge_analytic_validates_count():
    reservoir = ReservoirSample(capacity=8, seed=4)
    with pytest.raises(ValueError):
        reservoir.merge_analytic(-1, 1.0)
    reservoir.merge_analytic(0, 1.0)  # no-op
    assert reservoir.count == 0
