"""Tests for the slot-based PCIe DMA interface (§3.1)."""

import pytest

from repro.hardware.constants import PCIE_DMA_LATENCY_TARGET_NS
from repro.shell.messages import Packet, PacketKind
from repro.shell.pcie import HostDmaBuffers, PcieCore, SlotError
from repro.shell.router import Port, Router
from repro.sim import Engine


def setup_pcie(eng, slot_count=64):
    router = Router(eng, node_id=(0, 0))
    buffers = HostDmaBuffers(eng, slot_count=slot_count)
    pcie = PcieCore(eng, router, buffers)
    return router, buffers, pcie


def request(size=1024, dst=(0, 0)):
    return Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=dst, size_bytes=size)


def test_fill_dma_delivers_to_role_queue():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)

    def host(eng, buffers):
        yield buffers.fill_input(0, request())

    eng.process(host(eng, buffers))
    eng.run()
    assert router.queue_depth(Port.ROLE) == 1
    assert pcie.stats.requests_dma_in == 1


def test_dma_latency_under_10us_for_16kb():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)

    def host(eng, buffers):
        yield buffers.fill_input(0, request(size=16 * 1024))

    eng.process(host(eng, buffers))
    eng.run()
    assert eng.now <= PCIE_DMA_LATENCY_TARGET_NS  # §3.1 design goal


def test_dma_in_stamps_only_unstamped_packets():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)
    stamped_at_zero = request()
    stamped_at_zero.injected_at_ns = 0.0  # a host stamp taken at t=0
    unstamped = request()

    def host(eng, buffers):
        yield buffers.fill_input(0, stamped_at_zero)
        yield buffers.fill_input(1, unstamped)

    eng.process(host(eng, buffers))
    eng.run()
    assert pcie.stats.requests_dma_in == 2
    assert stamped_at_zero.injected_at_ns == 0.0
    assert unstamped.injected_at_ns is not None and unstamped.injected_at_ns > 0.0


def test_oversized_payload_rejected():
    eng = Engine()
    _router, buffers, _pcie = setup_pcie(eng)
    with pytest.raises(SlotError):
        buffers.fill_input(0, request(size=65 * 1024))


def test_bad_slot_id_rejected():
    eng = Engine()
    _router, buffers, _pcie = setup_pcie(eng)
    with pytest.raises(SlotError):
        buffers.fill_input(64, request())
    with pytest.raises(SlotError):
        buffers.consume_output(-1)


def test_refill_blocks_until_dma_drains():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)
    fill_times = []

    def host(eng, buffers):
        yield buffers.fill_input(0, request())
        fill_times.append(eng.now)
        yield buffers.fill_input(0, request())
        fill_times.append(eng.now)

    eng.process(host(eng, buffers))
    eng.run()
    assert fill_times[0] == 0.0
    assert fill_times[1] > 0.0  # second fill waited for the DMA clear
    assert pcie.stats.requests_dma_in == 2


def test_snapshot_fairness_drains_all_full_slots():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)

    def host(eng, buffers):
        for slot in range(8):
            yield buffers.fill_input(slot, request())

    eng.process(host(eng, buffers))
    eng.run()
    assert pcie.stats.requests_dma_in == 8
    assert router.queue_depth(Port.ROLE) == 8
    # All 8 fit in at most a few snapshots (they were filled together).
    assert pcie.stats.snapshots < 8 + 3


def test_full_input_count_keeps_snapshots_in_slot_order():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)
    pcie.device_down()  # hold the DMA engine so the fills stay visible
    for slot in (5, 2, 7):
        buffers.fill_input(slot, request())
    assert buffers.full_inputs == 3
    assert buffers.snapshot_full_input() == [2, 5, 7]
    pcie.device_restored()
    eng.run()
    assert buffers.full_inputs == 0
    assert buffers.snapshot_full_input() == []
    assert pcie.stats.requests_dma_in == 3
    assert pcie.stats.snapshots == 3  # power-on, the one moving [2, 5, 7], the empty rescan


def test_output_slot_roundtrip_with_interrupt():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)
    results = []

    def consumer(eng, buffers):
        packet = yield buffers.consume_output(3)
        results.append((eng.now, packet.payload))

    def responder(eng, router):
        yield eng.timeout(500.0)
        response = Packet(
            kind=PacketKind.RESPONSE,
            src=(1, 0),
            dst=(0, 0),
            size_bytes=16,
            payload=0.75,
            slot_id=3,
        )
        yield router.output_queues[Port.PCIE].put(response)

    eng.process(consumer(eng, buffers))
    eng.process(responder(eng, router))
    eng.run()
    assert len(results) == 1
    assert results[0][1] == 0.75
    assert pcie.stats.responses_dma_out == 1
    assert pcie.stats.interrupts_raised == 1


def test_device_down_raises_nmi_and_pauses_dma():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)
    nmis = []
    pcie.on_nmi = lambda: nmis.append(eng.now)
    pcie.device_down()
    assert nmis == [0.0]

    def host(eng, buffers):
        yield buffers.fill_input(0, request())

    eng.process(host(eng, buffers))
    eng.run(until=100_000.0)
    assert pcie.stats.requests_dma_in == 0  # nothing moves while down

    pcie.device_restored()
    eng.run()
    assert pcie.stats.requests_dma_in == 1  # resumes after restore


def test_slot_count_validation():
    eng = Engine()
    with pytest.raises(SlotError):
        HostDmaBuffers(eng, slot_count=0)
