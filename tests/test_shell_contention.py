"""The shell's data path under contention, with its timings pinned.

The DMA engines, link feeders and SL3 wires idle until there is work;
these scenarios exercise the paths where work has to wait instead: Xoff
on a full receive FIFO, an output slot still held by its consumer, a
device that drops off the bus mid-stream, a TX halt in front of a full
router queue, and a timed-out request whose late response drains into
the quarantine.  Each scenario returns what it observed, and every time
and count in it is a simulated outcome: a change to how the shell
schedules its work must leave them exactly as they are.
"""

import hashlib
import sys

from repro.cluster import ClusterManager, ClusterScheduler, ServiceSpec, echo_service
from repro.cluster.deployment import RequestAdapter
from repro.fabric import Datacenter, Pod, TorusTopology
from repro.shell.messages import Packet, PacketKind
from repro.shell.pcie import HostDmaBuffers, PcieCore
from repro.shell.router import Port, Router
from repro.shell.sl3 import Sl3Config, Sl3Endpoint, Sl3Link
from repro.sim import Engine
from repro.sim.units import MS
from repro.workloads import OpenLoopInjector, PoissonArrivals


def request(size=1024, src=(0, 0), dst=(0, 0), payload=None):
    return Packet(
        kind=PacketKind.REQUEST, src=src, dst=dst, size_bytes=size, payload=payload
    )


def response(slot_id, payload, size=64):
    return Packet(
        kind=PacketKind.RESPONSE,
        src=(1, 0),
        dst=(0, 0),
        size_bytes=size,
        payload=payload,
        slot_id=slot_id,
    )


# -- Xoff ------------------------------------------------------------------------


def xoff_scenario() -> dict:
    """Ten packets into a receiver whose FIFO holds two and which
    stalls 100 us per packet."""
    eng = Engine()
    config = Sl3Config(rx_fifo_packets=2)
    a = Sl3Endpoint(eng, "a", config)
    b = Sl3Endpoint(eng, "b", config)
    Sl3Link(eng, a, b, config=config, name="xoff")
    a.rx_halt = b.rx_halt = False
    delivered = []

    def slow_deliver(packet):
        delivered.append((eng.now, packet.payload))
        return eng.timeout(100_000.0)

    b.deliver = slow_deliver
    accepted = []

    def sender(eng):
        for index in range(10):
            yield a.send(request(size=1024, dst=(1, 0), payload=index))
            accepted.append(eng.now)

    eng.process(sender(eng))
    eng.run()
    return {
        "delivered": delivered,
        "accepted": accepted,
        "xoff": b.stats.xoff_events,
        "end": eng.now,
    }


def test_xoff_on_a_two_packet_fifo_stalls_the_wire():
    assert xoff_scenario() == {
        "delivered": [
            (912.0, 0), (100_912.0, 1), (200_912.0, 2), (300_912.0, 3),
            (400_912.0, 4), (500_912.0, 5), (600_912.0, 6), (700_912.0, 7),
            (800_912.0, 8), (900_912.0, 9),
        ],
        "accepted": [0.0] * 10,  # the 64-deep TX queue takes all ten at once
        "xoff": 7,
        "end": 1_000_912.0,
    }


# -- PCIe ------------------------------------------------------------------------


def pcie_stack(eng):
    router = Router(eng, node_id=(0, 0))
    buffers = HostDmaBuffers(eng)
    return router, buffers, PcieCore(eng, router, buffers)


def slot_drain_scenario() -> dict:
    """Two responses for one output slot whose thread reads it late."""
    eng = Engine()
    router, buffers, pcie = pcie_stack(eng)
    consumed = []

    def responder(eng):
        yield router.output_queues[Port.PCIE].put(response(3, "first"))
        yield router.output_queues[Port.PCIE].put(response(3, "second", size=4096))

    def consumer(eng):
        yield eng.timeout(50_000.0)
        for _ in range(2):
            packet = yield buffers.consume_output(3)
            consumed.append((eng.now, packet.payload))

    eng.process(responder(eng))
    eng.process(consumer(eng))
    eng.run()
    return {
        "consumed": consumed,
        "out": pcie.stats.responses_dma_out,
        "interrupts": pcie.stats.interrupts_raised,
        "end": eng.now,
    }


def test_output_dma_waits_for_its_slot_to_drain():
    assert slot_drain_scenario() == {
        "consumed": [(50_000.0, "first"), (52_224.0, "second")],
        "out": 2,
        "interrupts": 2,
        "end": 52_224.0,
    }


def device_down_scenario() -> dict:
    """Requests and responses stream through the DMA engines while the
    device drops off the bus for 17.5 us."""
    eng = Engine()
    router, buffers, pcie = pcie_stack(eng)
    nmis = []
    pcie.on_nmi = lambda: nmis.append(eng.now)
    to_role = []
    consumed = []

    def host(eng):
        for slot in range(6):
            yield buffers.fill_input(slot, request(size=2048, payload=slot))
            yield eng.timeout(1_000.0)

    def role_side(eng):
        queue = router.output_queues[Port.ROLE]
        for _ in range(6):
            packet = yield queue.get()
            to_role.append((eng.now, packet.payload))

    def responder(eng):
        for slot in range(10, 16):
            yield router.output_queues[Port.PCIE].put(response(slot, slot, size=1024))
            yield eng.timeout(900.0)

    def consumer(eng, slot):
        packet = yield buffers.consume_output(slot)
        consumed.append((eng.now, packet.payload))

    def operator(eng):
        yield eng.timeout(2_500.0)
        pcie.device_down()
        yield eng.timeout(17_500.0)
        pcie.device_restored()

    eng.process(host(eng))
    eng.process(role_side(eng))
    eng.process(responder(eng))
    for slot in range(10, 16):
        eng.process(consumer(eng, slot))
    eng.process(operator(eng))
    eng.run()
    return {
        "nmis": nmis,
        "to_role": to_role,
        "consumed": sorted(consumed),
        "in": pcie.stats.requests_dma_in,
        "out": pcie.stats.responses_dma_out,
        "snapshots": pcie.stats.snapshots,
        "end": eng.now,
    }


def test_device_down_mid_stream_pauses_both_directions_until_restored():
    assert device_down_scenario() == {
        "nmis": [2_500.0],
        "to_role": [
            (1_712.0, 0), (3_424.0, 1), (21_712.0, 2),
            (23_424.0, 3), (25_136.0, 4), (26_848.0, 5),
        ],
        "consumed": [
            (1_456.0, 10), (2_912.0, 11), (21_456.0, 12),
            (22_912.0, 13), (24_368.0, 14), (25_824.0, 15),
        ],
        "in": 6,
        "out": 6,
        "snapshots": 5,
        "end": 26_848.0,
    }


# -- TX halt ---------------------------------------------------------------------


def frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def tx_halt_scenario() -> dict:
    """200 packets for one neighbour back up the TX queue and the 64-deep
    router queue; then the shell asserts TX halt and sheds the backlog."""
    eng = Engine(seed=3)
    pod = Pod(eng, topology=TorusTopology(width=3, height=3))
    pod.release_all_rx_halts()
    shell = pod.server_at((0, 0)).shell
    peer = pod.server_at((1, 0)).shell
    out_port = shell.router.routing_table[(1, 0)]
    queue = shell.router.output_queues[out_port]
    tx_queue = shell.endpoints[out_port].tx_queue
    submitted = []

    def producer(eng):
        for index in range(200):
            packet = request(size=1024, src=(0, 0), dst=(1, 0), payload=index)
            put = shell.router.submit(packet, Port.ROLE)
            if put is not None:
                yield put
            submitted.append(eng.now)

    eng.process(producer(eng))
    eng.run(until=100.0)
    backlog = (len(queue), len(tx_queue), len(submitted))
    shell.tx_halt_asserted = True
    # The feeder sheds the 64-packet backlog in a loop.  A drain that
    # recursed would need a frame per packet; 40 frames above this one
    # leave room for the deepest callback chain a packet runs (~20).
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 40)
    try:
        eng.run()
    finally:
        sys.setrecursionlimit(limit)
    return {
        "backlog": backlog,
        "submitted": len(submitted),
        "last_submit": submitted[-1],
        "left": (len(queue), len(tx_queue)),
        "delivered": sum(e.stats.packets_delivered for e in peer.endpoints.values()),
        "end": eng.now,
    }


def test_tx_halt_drops_a_full_router_queue_without_recursing():
    assert tx_halt_scenario() == {
        "backlog": (64, 64, 130),
        "submitted": 200,
        "last_submit": 912.0,
        "left": (0, 0),
        "delivered": 65,
        "end": 60_192.0,
    }


# -- quarantine ------------------------------------------------------------------


class StampedAdapter(RequestAdapter):
    """Records when each request, lease in hand, enters the host path."""

    def __init__(self, engine):
        self.engine = engine
        self.leased_at = []

    def prep(self, server):
        self.leased_at.append(self.engine.now)
        if False:  # pragma: no cover - makes prep a generator
            yield


def quarantine_scenario() -> dict:
    """A one-slot server: the first request times out at 30 us, the
    second waits for the lease, which comes back only when the first
    request's late response drains from the quarantined slot."""
    eng = Engine(seed=3)
    dc = Datacenter(eng, num_pods=1, topology=TorusTopology(width=2, height=3))
    scheduler = ClusterScheduler(dc)
    (deployment,) = scheduler.deploy(
        echo_service(delay_ns=100_000.0), rings=1, slots_per_server=1
    )
    adapter = deployment.adapter = StampedAdapter(eng)
    server = deployment.injection_servers()[0]
    start = eng.now
    results = []

    def first(eng):
        response = yield from deployment.submit(
            object(), server=server, timeout_ns=30_000.0
        )
        results.append((eng.now - start, response))

    def second(eng):
        yield eng.timeout(1_000.0)
        response = yield from deployment.submit(object(), server=server, timeout_ns=MS)
        results.append((eng.now - start, response.payload))

    eng.process(first(eng))
    eng.process(second(eng))
    eng.run()
    return {
        "leased_at": [when - start for when in adapter.leased_at],
        "results": results,
        "timeouts": deployment.timeouts,
        "completed": deployment.completed,
        "outstanding": deployment.outstanding,
    }


def test_late_response_returns_the_quarantined_lease():
    assert quarantine_scenario() == {
        "leased_at": [0.0, 102_432.0],
        "results": [(30_000.0, None), (229_864.0, "scored")],
        "timeouts": 1,
        "completed": 1,
        "outstanding": 0,
    }


# -- golden run ------------------------------------------------------------------


def golden_scenario() -> dict:
    """Three echo replicas behind a service endpoint on two 3x3 pods,
    2,000 Poisson arrivals at 200k req/s."""
    eng = Engine(seed=1)
    dc = Datacenter(eng, num_pods=2, topology=TorusTopology(width=3, height=3))
    manager = ClusterManager(dc)
    service = echo_service(payload="echo-ok")
    manager.apply(ServiceSpec(service=service, replicas=3, request_timeout_ns=40 * MS))
    rng = eng.rng.stream("golden:pool")
    pool = [request(size=rng.randrange(64, 2049)) for _ in range(64)]
    injector = OpenLoopInjector(
        eng,
        manager.endpoint(service.name),
        PoissonArrivals(200_000.0),
        pool,
        timeout_ns=40 * MS,
    )
    stats = eng.run_until(injector.run(2_000))
    latencies = list(stats.latencies_ns)
    return {
        "stats": stats.to_dict(),
        "first": latencies[:3],
        "sha256": hashlib.sha256(repr(latencies).encode()).hexdigest(),
    }


def test_endpoint_echo_golden_run():
    """Every latency, in completion order, and the injector's counters."""
    assert golden_scenario() == {
        "stats": {
            "offered": 2_000,
            "admitted": 2_000,
            "rejected": 0,
            "completed": 2_000,
            "timeouts": 0,
        },
        "first": [29_924.75, 29_743.5, 29_706.25],
        "sha256": "92368deaaba7880174c3e45819bff978ccb8e686b43d340cecb146f155f43668",
    }
