"""Tests for the crossbar router and the Flight Data Recorder."""

import pytest

from repro.shell.fdr import FdrEntry, FlightDataRecorder
from repro.shell.messages import Packet, PacketKind
from repro.shell.router import Port, Router, RoutingError
from repro.sim import Engine


def packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(1, 0), size=100):
    return Packet(kind=kind, src=src, dst=dst, size_bytes=size)


def test_route_to_configured_port():
    eng = Engine()
    router = Router(eng, node_id=(0, 0))
    router.set_route((1, 0), Port.EAST)
    put = router.submit(packet(dst=(1, 0)), Port.PCIE)
    assert put is not None
    eng.run()
    assert router.queue_depth(Port.EAST) == 1


def test_local_request_goes_to_role():
    eng = Engine()
    router = Router(eng, node_id=(0, 0))
    router.submit(packet(dst=(0, 0)), Port.NORTH)
    eng.run()
    assert router.queue_depth(Port.ROLE) == 1


def test_local_response_goes_to_pcie():
    eng = Engine()
    router = Router(eng, node_id=(0, 0))
    router.submit(packet(kind=PacketKind.RESPONSE, dst=(0, 0)), Port.NORTH)
    eng.run()
    assert router.queue_depth(Port.PCIE) == 1


def test_no_route_drops_and_counts():
    eng = Engine()
    router = Router(eng, node_id=(0, 0))
    put = router.submit(packet(dst=(5, 5)), Port.PCIE)
    assert put is None
    assert router.dropped_no_route == 1


def test_route_table_validation():
    eng = Engine()
    router = Router(eng, node_id=(0, 0))
    with pytest.raises(RoutingError):
        router.set_route((1, 0), Port.ROLE)
    with pytest.raises(RoutingError):
        router.set_route((0, 0), Port.EAST)


def test_router_records_fdr_entries():
    eng = Engine()
    router = Router(eng, node_id=(0, 0))
    router.set_route((1, 0), Port.EAST)
    pkt = packet(dst=(1, 0))
    router.submit(pkt, Port.PCIE)
    entries = router.fdr.stream_out()
    assert len(entries) == 1
    assert entries[0].trace_id == pkt.trace_id
    assert entries[0].direction == "pcie->east"
    assert entries[0].kind == "request"


def test_packet_route_tracks_nodes():
    eng = Engine()
    router = Router(eng, node_id=(2, 3))
    router.set_route((1, 0), Port.WEST)
    pkt = packet(dst=(1, 0))
    router.submit(pkt, Port.NORTH)
    assert pkt.route == [(2, 3)]


def test_fdr_stream_matches_keyword_built_entries():
    """Router._record's positional entries equal the keyword-built ones
    (labels from the ports, queue depths of non-empty queues only) over
    a fixed scenario with eviction and queues filling up."""
    eng = Engine()
    router = Router(eng, node_id=(1, 1), fdr=FlightDataRecorder(capacity=8))
    router.set_routes({(2, 1): Port.EAST, (0, 1): Port.WEST, (1, 0): Port.NORTH})
    hops = [
        (packet(dst=(2, 1), size=64), Port.PCIE),
        (packet(dst=(1, 1), size=128), Port.WEST),
        (packet(kind=PacketKind.RESPONSE, dst=(1, 1), size=16), Port.EAST),
        (packet(kind=PacketKind.MODEL_RELOAD, dst=(0, 1), size=256), Port.ROLE),
        (packet(dst=(1, 0), size=32), Port.SOUTH),
        (packet(kind=PacketKind.GARBAGE, dst=(9, 9), size=8), Port.NORTH),
    ] * 3
    expected = []

    def inject(eng):
        for i, (pkt, in_port) in enumerate(hops):
            yield eng.timeout(10.0 * i)
            out_port = router._select_output(pkt)
            expected.append(
                FdrEntry(
                    timestamp_ns=eng.now,
                    trace_id=pkt.trace_id,
                    size_bytes=pkt.size_bytes,
                    direction=f"{in_port.value}->{out_port.value}",
                    kind=pkt.kind.value,
                    queue_lengths=tuple(
                        (port.value, len(store))
                        for port, store in router.output_queues.items()
                        if len(store)
                    ),
                )
            )
            put = router.submit(pkt, in_port)
            if put is not None:
                yield put

    eng.process(inject(eng))
    eng.run()
    assert router.fdr.total_recorded == len(hops)
    assert router.fdr.stream_out() == expected[-8:]
    assert expected[-1].queue_lengths  # the queues did fill up


# --- FDR ----------------------------------------------------------------------


def entry(i, trace=1):
    return FdrEntry(
        timestamp_ns=float(i),
        trace_id=trace,
        size_bytes=64,
        direction="north->role",
        kind="request",
        queue_lengths=(),
    )


def test_fdr_keeps_most_recent_512():
    fdr = FlightDataRecorder()
    for i in range(600):
        fdr.record(entry(i))
    assert len(fdr) == 512
    events = fdr.stream_out()
    assert events[0].timestamp_ns == 88.0  # oldest retained
    assert events[-1].timestamp_ns == 599.0
    assert fdr.dropped == 88
    assert fdr.total_recorded == 600


def test_fdr_trace_filter():
    fdr = FlightDataRecorder(capacity=10)
    fdr.record(entry(0, trace=7))
    fdr.record(entry(1, trace=8))
    fdr.record(entry(2, trace=7))
    assert len(fdr.entries_for_trace(7)) == 2


def test_fdr_power_on_checks():
    fdr = FlightDataRecorder()
    fdr.record_power_on("sl3_north_lock", True)
    fdr.record_power_on("pll_lock", False)
    assert fdr.power_on_checks == {"sl3_north_lock": True, "pll_lock": False}


def test_fdr_capacity_validation():
    with pytest.raises(ValueError):
        FlightDataRecorder(capacity=0)
