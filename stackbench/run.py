"""Stack benchmark: one workload, one seed, every metric by name.

Usage (from the repository root)::

    python3 stackbench/run.py --workload endpoint-echo --seed 1 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a separately traced run.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``stackbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import pathlib
import platform
import resource
import statistics
import sys
import time

from hostclock import HostClock

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".stackbench"  # run artifacts (exported metrics series)

# setup_s is the median of at least MIN_SETUPS builds; cheap builds are
# repeated until SETUP_BUDGET_S of build time (at most MAX_SETUPS).
MIN_SETUPS = 3
SETUP_BUDGET_S = 1.0
MAX_SETUPS = 25
MIN_COMPLETED = 10_000  # so at least ten samples lie beyond the p99.9

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_req_per_s": "req/s",
    "events_per_req": "count",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "sim_p50_us": "us",
    "sim_p999_us": "us",
}

PER_LAYER_UNITS = {
    "sim.self_share": "ratio",
    "sim.host_ns_per_event": "ns",
    "openloop.self_share": "ratio",
    "cluster.self_share": "ratio",
    "cluster.calls_per_req": "count",
    "host.self_share": "ratio",
    "host.lease_wait_us": "us",
    "host.quarantined_leases": "count",
    "shell.self_share": "ratio",
    "shell.router_hops_per_req": "count",
    "shell.fdr_records_per_req": "count",
    "shell.fabric_us": "us",
    "shell.role_us": "us",
    "ranking.self_share": "ratio",
    "ranking.ffe_s": "s",
    "ranking.scoring_s": "s",
    "ranking.features_s": "s",
    "ranking.cache_hit_ratio": "ratio",
    "ranking.model_library_s": "s",
    "traces.gen_s": "s",
    "ranking.qm_reloads": "count",
    "control.self_share": "ratio",
    "metrics.sample_s": "s",
    "control.reconcile_actions": "count",
    "control.reconfigs": "count",
    "control.recovery_ms": "ms",
    "control.capacity_min": "ratio",
    "trace.overhead": "ratio",
    "fluid.coverage": "ratio",
    "fluid.speedup": "x",
    "fluid.p99_err": "ratio",
    "fluid.p999_err": "ratio",
    "fluid.ks": "ratio",
}


def git_revision() -> str:
    """HEAD's commit id read from ``.git``, or ``unknown`` outside a
    git checkout (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over ``src/`` (paths and bytes), identifying the code
    measured when no git revision is available."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build(workload, seed: int):
    """A built stack, its set-up host seconds and those seconds at the
    reference speed (calibration between the build's stages)."""
    gc.collect()
    clock = HostClock()
    clock.start()
    stack = workload.build(seed, OUT, clock.tick)
    clock.tick()
    return stack, clock.work_s, clock.reference_s


def drive(stack, on_driven=None, check=True, clock=None):
    """The measured phase of a built stack; returns its outcome."""
    gc.collect()
    return stack.measure(on_driven, check, clock)


def outcome_problems(outcome) -> list:
    problems = list(outcome.problems)
    if outcome.completed < MIN_COMPLETED:
        problems.append(
            f"only {outcome.completed} requests completed (< {MIN_COMPLETED})"
        )
    return problems


def sim_metrics(outcome) -> dict:
    """The simulated end-to-end metrics: functions of the seed only."""
    return {
        "events_per_req": outcome.scheduled / outcome.offered,
        "ok_frac": 1.0 - outcome.failed / outcome.offered,
        "sim_p50_us": outcome.latency.p50 / 1e3,
        "sim_p999_us": outcome.latency.p999 / 1e3,
    }


def timed_run(workload, seed: int, seconds: float) -> tuple:
    """Whole same-seed repetitions (build + measured phase) until
    ``seconds`` of host time have passed, at least one."""
    setups, host_setups, rates, outcomes, clocks = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not outcomes or time.perf_counter() < deadline:
        stack, host_s, setup_s = build(workload, seed)
        host_setups.append(host_s)
        setups.append(setup_s)
        clock = HostClock()
        outcome = drive(stack, clock=clock)
        del stack
        outcomes.append(outcome)
        clocks.append(clock)
        rates.append(outcome.completed / outcome.reference_s)
    while len(setups) < MIN_SETUPS or (
        sum(host_setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
    ):
        stack, host_s, setup_s = build(workload, seed)
        host_setups.append(host_s)
        setups.append(setup_s)
        del stack
    first = outcomes[0]
    problems = outcome_problems(first)
    identical = all(o.digest == first.digest for o in outcomes)
    if not identical:
        problems.append("determinism: same-seed repetitions differ")
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_req_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
        **sim_metrics(first),
    }
    notes = {
        "repetitions": len(outcomes),
        "setups": len(setups),
        "repetitions_identical": identical if len(outcomes) > 1 else None,
        "host_s_per_repetition": [round(o.host_s, 4) for o in outcomes],
        "slowdown_per_repetition": [round(c.slowdown, 4) for c in clocks],
        "raw_req_per_s": statistics.median(
            o.completed / o.host_s for o in outcomes
        ),
        "raw_setup_s": statistics.median(host_setups),
    }
    return first, metrics, problems, notes


def ks_distance(a: list, b: list) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a, b = sorted(a), sorted(b)
    i = j = 0
    best = 0.0
    while i < len(a) and j < len(b):
        x = min(a[i], b[j])
        while i < len(a) and a[i] <= x:
            i += 1
        while j < len(b) and b[j] <= x:
            j += 1
        best = max(best, abs(i / len(a) - j / len(b)))
    return best


def fluid_baseline(seed: int) -> dict:
    """endpoint-echo's configuration on a fluid engine against the same
    seed discrete: how much traffic fluid covers and how far its
    latency distribution lands from the discrete one."""
    from workloads import WORKLOADS

    echo = WORKLOADS["endpoint-echo"]
    runs = {}
    for mode, fluid in (("discrete", False), ("fluid", True)):
        stack = echo.build(seed, OUT, fluid=fluid)
        outcome = drive(stack)
        samples = list(stack.traffic[0].stats.latencies_ns)
        covered = stack.engine.fluid.covered_arrivals if fluid else 0
        runs[mode] = (outcome, samples, covered)
    (d, d_samples, _), (f, f_samples, covered) = runs["discrete"], runs["fluid"]
    return {
        "fluid.coverage": covered / f.offered,
        "fluid.speedup": d.host_s / f.host_s,
        "fluid.p99_err": abs(f.latency.p99 / d.latency.p99 - 1.0),
        "fluid.p999_err": abs(f.latency.p999 / d.latency.p999 - 1.0),
        "fluid.ks": ks_distance(d_samples, f_samples),
    }


def layer_metrics(trace: dict, setup: dict, outcome, stack) -> dict:
    """Per-layer metrics from the traced measured phase (``trace``)
    and the traced set-up (``setup``)."""
    wall_ns = outcome.host_s * 1e9
    calls = trace["calls"]
    host_ns = trace["host_ns"]
    sim_ns = trace["sim_ns"]
    self_ns = trace["self_ns"]
    from tracing import ENTRY_POINTS, ROLE_ENTRIES, entry_name

    def entries_of(layer):
        return [entry_name(o, a) for o, a in ENTRY_POINTS[layer]]

    def share(layer):
        return self_ns.get(layer, 0) / wall_ns

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    completed = outcome.completed
    role_sim = total(sim_ns, [entry_name(o, a) for o, a in ROLE_ENTRIES])
    lease_sim = sim_ns.get("SlotLease.request", 0)
    dep_sim = sim_ns.get("Deployment.submit", 0)
    dep_calls = calls.get("Deployment.submit", 0)
    prep_sim = total(sim_ns, ["RequestAdapter.prep", "RankingRequestAdapter.prep"])
    lookups = total(calls, ["ScoringEngine.features", "ScoringEngine.ffe_values",
                            "ScoringEngine.packed"])
    misses = (
        calls.get("FeatureExtractor.extract", 0)
        + calls.get("FfeProcessor.evaluate_only", 0) / 2  # two stages per miss
        + calls.get("CompressionMap.pack", 0)
    )
    reports = trace["results"]
    actions = sum(
        len(report.actions)
        for name in ("ClusterManager.reconcile", "ClusterManager.upgrade")
        for report in reports.get(name, [])
    )
    return {
        "sim.self_share": share("sim"),
        "sim.host_ns_per_event": self_ns.get("sim", 0) / outcome.scheduled,
        "openloop.self_share": share("openloop"),
        "cluster.self_share": share("cluster"),
        "cluster.calls_per_req": total(calls, entries_of("cluster")) / outcome.offered,
        "host.self_share": share("host"),
        "host.lease_wait_us": (
            (dep_sim - prep_sim - lease_sim) / dep_calls / 1e3 if dep_calls else 0.0
        ),
        "host.quarantined_leases": calls.get("Deployment._quarantine", 0),
        "shell.self_share": share("shell"),
        "shell.router_hops_per_req": calls.get("Router.submit", 0) / completed,
        "shell.fdr_records_per_req": (
            calls.get("FlightDataRecorder.record", 0) / completed
        ),
        "shell.fabric_us": (lease_sim - role_sim) / completed / 1e3,
        "shell.role_us": role_sim / completed / 1e3,
        "ranking.self_share": share("ranking"),
        "ranking.ffe_s": host_ns.get("FfeProcessor.evaluate_only", 0) / 1e9,
        "ranking.scoring_s": total(
            host_ns,
            ["BoostedTreeScorer.evaluate_bank", "NeuralScorer.evaluate_bank"],
        ) / 1e9,
        "ranking.features_s": host_ns.get("FeatureExtractor.extract", 0) / 1e9,
        "ranking.cache_hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
        "ranking.model_library_s": setup["host_ns"].get("ModelLibrary.default", 0) / 1e9,
        "traces.gen_s": setup["host_ns"].get("TraceGenerator.request", 0) / 1e9,
        "ranking.qm_reloads": calls.get("FeatureExtractionRole._switch_model", 0),
        "control.self_share": share("control"),
        "metrics.sample_s": host_ns.get("MetricsRegistry.sample", 0) / 1e9,
        "control.reconcile_actions": actions,
        "control.reconfigs": calls.get("MappingManager.deploy", 0),
        "control.recovery_ms": recovery_ms(stack),
        "control.capacity_min": capacity_min(stack),
    }


def recovery_ms(stack) -> float:
    """Mean simulated time from a ring kill to the end of the pass that
    placed the killed service's replacement (0 without kills)."""
    kills = getattr(stack, "kills", [])
    reports = stack.manager.reconcile_reports
    spans = []
    for killed_ns, service in kills:
        shed = False  # the dead replica has been released
        for report in reports:
            if report.at_ns < killed_ns:
                continue
            kinds = {a.kind for a in report.actions if a.service == service}
            shed = shed or "release_unservable" in kinds
            if shed and "replace" in kinds:
                spans.append(report.at_ns - killed_ns)
                break
    return statistics.fmean(spans) / 1e6 if spans else 0.0


def capacity_min(stack) -> float:
    """Lowest in-pool share of the ring fleet seen by the exported
    series (control-churn), else at the end of the run."""
    if getattr(stack, "series", None):
        return stack.capacity_min()
    report = stack.manager.scheduler.capacity_report()
    return (report.free_rings + report.occupied_rings) / report.total_rings


def traced_run(workload, seed: int) -> tuple:
    """An untraced and a traced same-seed repetition, then the fluid
    baseline.  The pair doubles as the determinism check: tracing must
    not change a single simulated outcome."""
    from tracing import Tracer

    stack, _, _ = build(workload, seed)
    # Sliced with calibration like a timed repetition; the traced one
    # runs unsliced, so their digests also show that slicing changes
    # no simulated outcome.
    plain = drive(stack, check=False, clock=HostClock())  # traced one is checked
    del stack
    tracer = Tracer()
    tracer.install(keep_results=("ClusterManager.reconcile", "ClusterManager.upgrade"))
    captured = {}

    def driven():
        captured["run"] = tracer.snapshot()
        tracer.uninstall()  # the checks run untraced

    try:
        stack, _, _ = build(workload, seed)
        captured["setup"] = tracer.snapshot()
        tracer.reset()
        traced = drive(stack, driven)
    finally:
        tracer.uninstall()
    problems = outcome_problems(traced)
    if traced.digest != plain.digest:
        problems.append("determinism: traced and untraced runs differ")
    metrics = layer_metrics(captured["run"], captured["setup"], traced, stack)
    metrics["trace.overhead"] = traced.host_s / plain.host_s - 1.0
    metrics.update(fluid_baseline(seed))
    notes = {
        "untraced_host_s": round(plain.host_s, 4),
        "traced_host_s": round(traced.host_s, 4),
        "traced_identical": traced.digest == plain.digest,
    }
    return traced, metrics, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"stackbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"stackbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        outcome, metrics, problems, notes = traced_run(workload, args.seed)
        units = PER_LAYER_UNITS
    else:
        outcome, metrics, problems, notes = timed_run(
            workload, args.seed, args.seconds
        )
        units = END_TO_END_UNITS
    sim = sim_metrics(outcome)
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "arrivals": outcome.offered,
        "completed": outcome.completed,
        "rejected": outcome.rejected,
        "timeouts": outcome.timeouts,
        "wrong": outcome.wrong,
        "sim_seconds": outcome.sim_s,
        # Exact simulated metrics: a change that only speeds up the
        # simulator must leave these (and the digest) bit-identical.
        "sim_exact": {k: float.hex(float(v)) for k, v in sim.items()},
        "outcome_digest": outcome.digest,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        **notes,
    }
    print(f"provenance: {json.dumps(provenance, sort_keys=True)}")
    for problem in problems:
        print(f"check failed: {problem}")
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]!r:>24} {unit}")
    result = {
        "correct": not problems and all(math.isfinite(v) for v in metrics.values()),
        "attempted": outcome.offered,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
