"""Engine throughput on the reference open-loop scenario, both modes.

One million open-loop arrivals are offered to a cluster of echo
servers; every request is admission-checked, queued, served, and
completion-gated — the exact shape of the production submit paths,
concentrated on the simulation kernel.  Two kernel-level economies
keep the discrete hot path lean:

* **guard skip** — the per-request guard deadline is only allocated
  when it could actually fire first.  With deterministic service the
  worst-case sojourn is bounded by the queue depth ahead of the
  request, so when ``(depth + 2) * service_ns <= timeout_ns`` the
  submit path awaits the completion event directly: no guard
  ``Timeout``, no ``AnyOf``, no lazily-dropped timer entry.  On this
  scenario that eliminates one million pure-churn guard events.
* **slab recycling** — completion events come from a bounded freelist
  (:class:`repro.sim.Slab`) instead of a fresh allocation per request,
  with resurrection checks that refuse to recycle an event the engine
  still references.

The same scenario also runs in **fluid fast-forward** mode
(``Engine(fluid=True)``; the injector follows its engine): steady
stretches are credited analytically through a virtual M/D/c queue and
the clock jumps across each window in a single event.  Same seed, same
counters, a tiny fraction of the events — the fluid figure of merit is
*events-equivalent per second*: the discrete run's scheduled-entry
count divided by the fluid run's wall clock.

The result is written to ``BENCH_engine.json`` at the repo root with
both modes recorded, and committed; ``--smoke`` runs a reduced arrival
count and fails on a >30% regression of either mode's rate (that is
the CI gate).  ``--fluid-only`` / ``--discrete-only`` restrict a run.

Run ``python benchmarks/bench_engine_perf.py`` for the full committed
measurement, ``--smoke`` (or ``BENCH_SMOKE=1``) for the CI check.
"""

import argparse
import json
import os
import pathlib
import time

from repro.sim import AnyOf, Engine, Slab, Store
from repro.sim.fluid import FluidProfile
from repro.sim.units import SEC
from repro.workloads import OpenLoopInjector, PoissonArrivals

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

ARRIVALS = 1_000_000
SMOKE_ARRIVALS = 50_000
RATE_PER_S = 200_000.0
SERVICE_NS = 2_000.0
SERVERS = 8
REQUEST_TIMEOUT_NS = 5 * SEC  # the guard deadline: armed rarely, used never
MAX_QUEUE_DEPTH = 4_096
POOL = 64
SEED = 2014
REGRESSION_TOLERANCE = 0.30  # smoke fails below 70% of a committed rate

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"


class EchoServer:
    """One echo worker: drain the queue, serve, complete."""

    def __init__(self, engine, service_ns):
        self.engine = engine
        self.queue = Store(engine, name="echo-q")
        engine.process(self._serve(service_ns), name="echo.worker", daemon=True)

    def _serve(self, service_ns):
        engine = self.engine
        queue = self.queue
        while True:
            payload, done = yield queue.get()
            yield engine.timeout(service_ns)
            done.succeed(payload)


class EchoCluster:
    """Round-robin front door over the echo servers (sink protocol).

    The per-request guard deadline is *skipped* whenever the queue
    depth bounds the sojourn below the timeout — deterministic service
    makes that bound exact — so the common case allocates no guard
    ``Timeout`` and no ``AnyOf``.  Completion events are recycled
    through a slab; a completed request releases its event back to the
    freelist (resurrection-checked) instead of dropping it to the GC.
    """

    def __init__(self, engine, servers, service_ns):
        self.engine = engine
        self.service_ns = service_ns
        self.servers = [EchoServer(engine, service_ns) for _ in range(servers)]
        self.outstanding = 0
        self._next = 0
        self._done_slab = Slab.for_events(engine, name="echo-done")
        self.guards_armed = 0
        self.guards_skipped = 0

    def submit(self, request, timeout_ns):
        engine = self.engine
        slab = self._done_slab
        self.outstanding += 1
        try:
            server = self.servers[self._next]
            self._next = (self._next + 1) % len(self.servers)
            done = slab.acquire()
            yield server.queue.put((request, done))
            # Worst-case sojourn: every queued request ahead, plus the
            # one in service, plus this one, each at the deterministic
            # service time.  When that bound clears the timeout, the
            # guard deadline can never fire first — skip it entirely.
            if (len(server.queue.items) + 2) * self.service_ns <= timeout_ns:
                self.guards_skipped += 1
                yield done
                value = done.value
                slab.release(done)
                return value
            self.guards_armed += 1
            deadline = engine.timeout(timeout_ns)
            yield AnyOf(engine, [done, deadline])
            if not done.triggered:
                # Timed out: the worker still holds `done` and will fire
                # it later — recycling it now would be a resurrection.
                return None
            deadline.cancel()
            value = done.value
            slab.release(done)
            return value
        finally:
            self.outstanding -= 1

    # -- fluid fast-forward protocol ------------------------------------

    def fluid_profile(self):
        """Deterministic-service M/D/c profile: the fluid model is exact."""
        return FluidProfile(
            servers=len(self.servers),
            service_ns=self.service_ns,
            cursor=self._next,
        )

    def note_fluid(self, window):
        # Keep the round-robin cursor in step with the virtual queue so
        # a discrete interlude resumes on the same server a discrete
        # run would have reached.
        self._next = (self._next + window.admitted) % len(self.servers)


def run_scenario(arrivals: int, fluid: bool = False) -> dict:
    engine = Engine(seed=SEED, fluid=fluid)
    cluster = EchoCluster(engine, SERVERS, SERVICE_NS)
    pool = list(range(POOL))
    traffic = OpenLoopInjector(
        engine,
        cluster,
        PoissonArrivals(RATE_PER_S),
        pool,
        max_queue_depth=MAX_QUEUE_DEPTH,
        timeout_ns=REQUEST_TIMEOUT_NS,
    )
    # simlint: allow-wall-clock -- this benchmark measures the host
    # wall-clock cost of running the simulator itself.
    t0 = time.perf_counter()
    done = traffic.run(arrivals)
    stats = engine.run_until(done)
    wall_s = time.perf_counter() - t0  # simlint: allow-wall-clock -- harness timing

    sim_s = engine.now / SEC
    scheduled = engine._seq  # total scheduled entries: comparable across versions
    summary = stats.stats()
    return {
        "mode": "fluid" if fluid else "discrete",
        "arrivals": arrivals,
        "wall_s": round(wall_s, 6),
        "sim_s": round(sim_s, 6),
        "events_scheduled": scheduled,
        "events_per_sec": round(scheduled / wall_s),
        "arrivals_per_sec": round(arrivals / wall_s),
        "wall_per_sim_day_s": round(wall_s * 86_400.0 / sim_s, 3),
        "peak_queue_length": getattr(engine, "peak_queue_length", None),
        "events_dispatched": getattr(engine, "events_dispatched", None),
        "events_dropped": getattr(engine, "events_dropped", None),
        "guards_armed": cluster.guards_armed,
        "guards_skipped": cluster.guards_skipped,
        "offered": stats.offered,
        "completed": stats.completed,
        "rejected": stats.rejected,
        "timeouts": stats.timeouts,
        "p50_ns": round(summary.p50, 1),
        "p99_ns": round(summary.p99, 1),
    }


def run_pair(arrivals: int, modes=("discrete", "fluid")) -> dict:
    """Run the scenario in the requested modes; derive the fluid rate.

    The fluid figure of merit is events-*equivalent* per second: the
    discrete run's scheduled-entry count over the fluid wall clock
    (the work the fluid run made unnecessary, per second it took).
    """
    results = {}
    if "discrete" in modes:
        results["discrete"] = run_scenario(arrivals, fluid=False)
    if "fluid" in modes:
        fluid = run_scenario(arrivals, fluid=True)
        discrete = results.get("discrete")
        if discrete is not None:
            equivalent = discrete["events_scheduled"]
            fluid["events_equivalent_per_sec"] = round(
                equivalent / fluid["wall_s"]
            )
            fluid["speedup_vs_discrete"] = round(
                discrete["wall_s"] / fluid["wall_s"], 2
            )
        results["fluid"] = fluid
    return results


def check_regression(results: dict, committed: dict) -> None:
    """Raise if either mode's rate fell more than the tolerance."""
    gates = {
        "discrete": "events_per_sec",
        "fluid": "events_equivalent_per_sec",
    }
    failures = []
    for mode, key in gates.items():
        fresh = results.get(mode)
        baseline = committed.get(mode)
        if fresh is None or baseline is None or key not in fresh:
            continue
        committed_rate = baseline[key]
        floor = (1.0 - REGRESSION_TOLERANCE) * committed_rate
        measured = fresh[key]
        if measured < floor:
            failures.append(
                f"{mode}: {measured:,} {key} is below {floor:,.0f} "
                f"(70% of committed {committed_rate:,})"
            )
        else:
            print(
                f"regression gate OK [{mode}]: {measured:,} {key} >= "
                f"{floor:,.0f} (70% of committed {committed_rate:,})"
            )
    if failures:
        raise SystemExit(
            "REGRESSION: "
            + "; ".join(failures)
            + f"; see {RESULT_PATH.name} for the committed run"
        )


def payload(results: dict) -> dict:
    arrivals = next(iter(results.values()))["arrivals"]
    out = {
        "scenario": {
            "description": "open-loop Poisson arrivals vs echo-server cluster "
            "with guard-skipped deadlines and slab-recycled completions; "
            "fluid mode fast-forwards steady stretches analytically",
            "arrivals": arrivals,
            "rate_per_s": RATE_PER_S,
            "servers": SERVERS,
            "service_ns": SERVICE_NS,
            "request_timeout_ns": REQUEST_TIMEOUT_NS,
            "max_queue_depth": MAX_QUEUE_DEPTH,
            "seed": SEED,
        },
    }
    out.update(results)
    return out


def _load_committed() -> dict | None:
    if not RESULT_PATH.exists():
        return None
    return json.loads(RESULT_PATH.read_text())


def test_engine_perf_smoke(record):
    """Reduced dual-mode run: scenario sanity plus both regression gates."""
    results = run_pair(SMOKE_ARRIVALS)
    discrete, fluid = results["discrete"], results["fluid"]
    for result in (discrete, fluid):
        assert result["offered"] == SMOKE_ARRIVALS
        assert (
            result["offered"]
            == result["completed"] + result["rejected"] + result["timeouts"]
        )
        assert result["completed"] > 0.9 * SMOKE_ARRIVALS
    # Same seed, same answers: the fluid run must agree exactly on the
    # traffic counters while scheduling far fewer events.
    for key in ("offered", "completed", "rejected", "timeouts", "sim_s"):
        assert fluid[key] == discrete[key], (key, fluid[key], discrete[key])
    assert fluid["events_scheduled"] < discrete["events_scheduled"] / 100
    record(
        "engine_perf_smoke",
        "\n".join(
            f"{mode}.{key} = {value}"
            for mode, result in sorted(results.items())
            for key, value in sorted(result.items())
        ),
    )
    committed = _load_committed()
    if committed is not None:
        check_regression(results, committed)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced arrival count + regression gates (CI)",
    )
    parser.add_argument(
        "--arrivals", type=int, default=None, help="override the arrival count"
    )
    parser.add_argument(
        "--discrete-only", action="store_true", help="skip the fluid run"
    )
    parser.add_argument(
        "--fluid-only", action="store_true",
        help="skip the discrete run (no events-equivalent rate)",
    )
    args = parser.parse_args()
    smoke = args.smoke or SMOKE
    arrivals = args.arrivals or (SMOKE_ARRIVALS if smoke else ARRIVALS)
    modes = ("discrete", "fluid")
    if args.discrete_only:
        modes = ("discrete",)
    elif args.fluid_only:
        modes = ("fluid",)
    results = run_pair(arrivals, modes=modes)
    for mode, result in sorted(results.items()):
        for key, value in sorted(result.items()):
            print(f"{mode}.{key} = {value}")
    if smoke:
        committed = _load_committed()
        if committed is not None:
            check_regression(results, committed)
        else:
            print(f"no committed {RESULT_PATH.name}; skipping regression gate")
    else:
        RESULT_PATH.write_text(json.dumps(payload(results), indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
