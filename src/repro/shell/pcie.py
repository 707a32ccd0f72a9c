"""PCIe core with slot-based DMA (§3.1).

Low latency is achieved by avoiding system calls: one input and one
output buffer live in non-paged user-level memory, divided into 64
slots of 64 KB.  Each CPU thread owns one or more slots exclusively —
that is the whole thread-safety story.  The FPGA monitors the input
full bits and *fairly* selects slots by taking periodic snapshots of
the full bits and DMA'ing every full slot before snapshotting again.
Results DMA into the output buffer, set the output full bit, and raise
an interrupt to wake the consumer thread.

A reconfiguring FPGA appears as a failed PCIe device and raises a
non-maskable interrupt that destabilizes the host unless the driver
masked it first (§3.4) — modelled via the ``on_nmi`` callback.
"""

from __future__ import annotations

import collections.abc
import dataclasses

from repro.hardware.constants import (
    PCIE_DMA_SETUP_NS,
    PCIE_GBPS,
    PCIE_SLOT_BYTES,
    PCIE_SLOT_COUNT,
)
from repro.shell.messages import Packet
from repro.shell.router import Port, Router
from repro.sim import Engine, Event, Timeout
from repro.sim.units import transfer_time_ns


class SlotError(Exception):
    """Raised on slot misuse (overfill, oversized payload, bad id)."""


@dataclasses.dataclass
class Slot:
    """One DMA slot in host memory."""

    index: int
    full: bool = False
    packet: Packet | None = None
    freed: Event | None = None  # waiters for the slot to drain
    filled: list[Event] = dataclasses.field(default_factory=list)  # consumes awaiting data


class HostDmaBuffers:
    """The shared user-level input/output buffers (host side).

    The device side (:class:`PcieCore`) scans ``input_slots``; host
    threads fill them and consume ``output_slots``.
    """

    def __init__(
        self,
        engine: Engine,
        slot_count: int = PCIE_SLOT_COUNT,
        slot_bytes: int = PCIE_SLOT_BYTES,
    ):
        if slot_count < 1:
            raise SlotError(f"need at least one slot, got {slot_count}")
        self.engine = engine
        self.slot_count = slot_count
        self.slot_bytes = slot_bytes
        self.input_slots = [Slot(i) for i in range(slot_count)]
        self.output_slots = [Slot(i) for i in range(slot_count)]
        self.full_inputs = 0  # input slots with their full bit set
        self.device: PcieCore | None = None  # the DMA engine a fill wakes

    # -- host-thread side ----------------------------------------------------

    def fill_input(self, slot_id: int, packet: Packet) -> Event:
        """Fill an input slot; returns an event that fires once accepted.

        Blocks (event pends) while the slot is still full from the
        previous send — slots apply natural backpressure per thread.
        """
        slot = self._input_slot(slot_id)
        if packet.size_bytes > self.slot_bytes:
            raise SlotError(
                f"payload {packet.size_bytes} B exceeds slot size {self.slot_bytes} B"
            )
        done = self.engine.event(name=f"fill:{slot_id}")
        packet.slot_id = slot_id

        def do_fill(_event=None):
            slot.full = True
            slot.packet = packet
            self.full_inputs += 1
            if self.device is not None and self.device._scan_idle:
                self.device._input_scan_loop()
            done.succeed()

        if slot.full:
            if slot.freed is None:
                slot.freed = self.engine.event(name=f"freed:{slot_id}")
            slot.freed.add_callback(do_fill)
        else:
            do_fill()
        return done

    def consume_output(self, slot_id: int) -> Event:
        """Wait for the output slot to fill; returns the packet, clears it."""
        slot = self._output_slot(slot_id)
        done = self.engine.event(name=f"consume:{slot_id}")
        if slot.full:
            self._consume(slot, done)
        else:
            slot.filled.append(done)
        return done

    def _consume(self, slot: Slot, done: Event) -> None:
        packet = slot.packet
        slot.full = False
        slot.packet = None
        if slot.freed is not None:
            freed, slot.freed = slot.freed, None
            freed.succeed()
        # A waiter whose deadline already failed it still drains the slot.
        if not done.triggered:
            done.succeed(packet)

    # -- device side helpers -----------------------------------------------------

    def snapshot_full_input(self) -> list[int]:
        """The §3.1 fairness primitive: indices of currently full slots."""
        if not self.full_inputs:
            return []
        return [slot.index for slot in self.input_slots if slot.full]

    def _input_slot(self, slot_id: int) -> Slot:
        if not 0 <= slot_id < self.slot_count:
            raise SlotError(f"bad slot id {slot_id}")
        return self.input_slots[slot_id]

    def _output_slot(self, slot_id: int) -> Slot:
        if not 0 <= slot_id < self.slot_count:
            raise SlotError(f"bad slot id {slot_id}")
        return self.output_slots[slot_id]


@dataclasses.dataclass
class PcieStats:
    requests_dma_in: int = 0
    responses_dma_out: int = 0
    snapshots: int = 0
    nmi_raised: int = 0
    interrupts_raised: int = 0


class PcieCore:
    """Device-side PCIe + DMA engine living in the shell.

    Both DMA engines are callbacks that run only when there is work; a
    transfer (descriptor, data movement, completion) is one timed event.
    """

    def __init__(
        self,
        engine: Engine,
        router: Router,
        buffers: HostDmaBuffers,
        gbps: float = PCIE_GBPS,
        setup_ns: float = PCIE_DMA_SETUP_NS,
    ):
        self.engine = engine
        self.router = router
        self.buffers = buffers
        self.gbps = gbps
        self.setup_ns = setup_ns
        self.stats = PcieStats()
        self.device_up = True
        self.on_nmi: collections.abc.Callable[[], None] | None = None
        self._device_up_event: Event | None = None
        # Input engine: rest of its snapshot, slot moving; output: response held.
        self._scan_idle = False
        self._pending: collections.abc.Iterator[int] = iter(())
        self._moving: Slot | None = None
        self._out_queue = router.output_queues[Port.PCIE]
        self._holding: Packet | None = None
        buffers.device = self
        self._output_loop(self._out_queue.take(self._output_loop))
        self._input_scan_loop()  # the first snapshot, taken at power-on

    # -- reconfiguration visibility ----------------------------------------------

    def device_down(self) -> None:
        """The FPGA dropped off the bus (reconfiguration started)."""
        self.device_up = False
        self.stats.nmi_raised += 1
        if self.on_nmi is not None:
            self.on_nmi()

    def device_restored(self) -> None:
        self.device_up = True
        if self._device_up_event is not None and not self._device_up_event.triggered:
            self._device_up_event.succeed()

    def _wait_device_up(self) -> Event:
        if self._device_up_event is None or self._device_up_event.triggered:
            self._device_up_event = self.engine.event(name="pcie-up")
        return self._device_up_event

    # -- DMA engines ---------------------------------------------------------------

    def dma_time_ns(self, size_bytes: int) -> float:
        return self.setup_ns + transfer_time_ns(size_bytes, self.gbps)

    def _input_scan_loop(self, event: Event | None = None) -> None:
        """The input DMA engine: run by a fill that finds it idle, the
        device coming back, its transfer's timeout, or a router put that
        waited.  Fairness (§3.1): a snapshot's slots move before the next."""
        self._scan_idle = False
        buffers = self.buffers
        slot, self._moving = self._moving, None
        if isinstance(event, Timeout):
            # Transfer complete: clear the full bit so the thread can
            # refill while the packet traverses the fabric.
            packet = slot.packet
            slot.full = False
            slot.packet = None
            buffers.full_inputs -= 1
            if slot.freed is not None:
                freed, slot.freed = slot.freed, None
                freed.succeed()
            self.stats.requests_dma_in += 1
            if packet.injected_at_ns is None:
                packet.injected_at_ns = self.engine.now
            put = self.router.submit(packet, Port.PCIE)
            if put is not None and not put.triggered:
                self._moving = slot
                put.add_callback(self._input_scan_loop)
                return
        while True:
            for index in self._pending:
                slot = buffers.input_slots[index]
                if slot.packet is not None:
                    self._moving = slot
                    self.engine.timeout(
                        self.dma_time_ns(slot.packet.size_bytes)
                    ).callbacks = [self._input_scan_loop]
                    return
            if not self.device_up:
                self._wait_device_up().add_callback(self._input_scan_loop)
                return
            snapshot = buffers.snapshot_full_input()
            self.stats.snapshots += 1
            if not snapshot:
                self._scan_idle = True  # until the next fill
                return
            self._pending = iter(snapshot)

    def _output_loop(self, arg: object = None) -> None:
        """The output DMA engine: run with a response the PCIe queue hands
        over, or with what the one it holds waited on (the device, its
        slot draining, its transfer's timeout)."""
        fresh = self._holding is None  # just taken from the queue: device unchecked
        packet, self._holding = self._holding or arg, None
        while packet is not None:
            if fresh and not self.device_up:
                self._hold(packet, self._wait_device_up())
                return
            if packet.slot_id is not None:  # else nowhere to deliver (probes)
                slot = self.buffers.output_slots[packet.slot_id]
                if fresh or not isinstance(arg, Timeout):
                    if slot.full:
                        # Output slot still occupied: wait for consumer drain.
                        if slot.freed is None:
                            slot.freed = self.engine.event(name=f"ofreed:{slot.index}")
                        self._hold(packet, slot.freed)
                    else:
                        self._hold(packet, self.engine.timeout(self.dma_time_ns(packet.size_bytes)))
                    return
                slot.full = True
                slot.packet = packet
                self.stats.responses_dma_out += 1
                self.stats.interrupts_raised += 1  # wake the consumer thread
                for done in slot.filled:
                    self.buffers._consume(slot, done)
                slot.filled.clear()
            packet, fresh = self._out_queue.take(self._output_loop), True

    def _hold(self, packet: Packet, until: Event) -> None:
        self._holding = packet
        until.add_callback(self._output_loop)
