"""SerialLite III inter-FPGA links (§2.2, §3.2, §3.4).

Each of the four shell link cores talks to one torus neighbour over a
pair of 10 Gb/s signals (20 Gb/s peak bidirectional).  The protocol
offers FIFO semantics, Xon/Xoff flow control and per-flit SECDED ECC —
which costs 20 % of peak bandwidth.  Flits with double-bit errors (and
rare multi-bit escapes caught by the end-of-packet CRC) cause the whole
packet to be dropped with **no retransmission**: the host times out and
escalates to the failure-handling protocol.

The reconfiguration-safety protocol (§3.4) also lives at this layer:

* **TX Halt** — an FPGA about to reconfigure tells each neighbour to
  ignore all further traffic from it until the link retrains;
* **RX Halt** — a freshly configured FPGA discards everything it
  receives until the Mapping Manager releases it;
* a neighbour that reconfigures *without* the protocol (crash, surprise
  reboot) emits garbage packets that will corrupt an unprotected role.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools

from repro.hardware.constants import (
    SL3_ECC_BANDWIDTH_TAX,
    SL3_FLIT_BYTES,
    SL3_HOP_LATENCY_NS,
    SL3_PEAK_GBPS,
)
from repro.shell.messages import Packet, PacketKind
from repro.sim import Engine, Event, Store
from repro.sim.units import transfer_time_ns


@dataclasses.dataclass(frozen=True)
class Sl3Config:
    """Link operating parameters."""

    peak_gbps: float = SL3_PEAK_GBPS
    ecc_enabled: bool = True
    hop_latency_ns: float = SL3_HOP_LATENCY_NS
    rx_fifo_packets: int = 16  # receive buffering before Xoff asserts
    flit_single_error_rate: float = 0.0  # per-flit single-bit-error prob
    flit_double_error_rate: float = 0.0  # per-flit double-bit-error prob
    retrain_ns: float = 2_000_000.0  # link retrain after reconfiguration

    @property
    def effective_gbps(self) -> float:
        """Usable bandwidth after the ECC tax (§3.2: −20 %)."""
        if self.ecc_enabled:
            return self.peak_gbps * (1.0 - SL3_ECC_BANDWIDTH_TAX)
        return self.peak_gbps


@dataclasses.dataclass
class LinkStats:
    """Per-endpoint receive/transmit counters for the health vector."""

    packets_sent: int = 0
    packets_delivered: int = 0
    bytes_delivered: int = 0
    dropped_crc: int = 0  # double-bit/CRC failures (no retransmission)
    dropped_rx_halt: int = 0
    dropped_ignore_peer: int = 0
    dropped_link_down: int = 0
    garbage_received: int = 0  # garbage that REACHED the role (corruption!)
    corrected_flits: int = 0
    xoff_events: int = 0


class Sl3Endpoint:
    """One side of a link: TX queue, RX state, halt flags."""

    def __init__(self, engine: Engine, name: str, config: Sl3Config):
        self.engine = engine
        self.name = name
        self.config = config
        self.tx_queue: Store = Store(engine, capacity=64, name=f"sl3tx:{name}")
        self.rx_fifo: Store = Store(
            engine, capacity=config.rx_fifo_packets, name=f"sl3rx:{name}"
        )
        self.stats = LinkStats()
        self.rx_halt = True  # §3.4: every FPGA comes up with RX Halt enabled
        self.ignore_peer = False  # set by the peer's TX Halt
        self.locked = True  # SERDES lock (power-on check in the FDR)
        # Wired by the shell: invoked with each delivered packet.
        self.deliver: collections.abc.Callable[[Packet], object] | None = None
        self.link: "Sl3Link | None" = None
        # FIFO callbacks: the shell's feeder fills ``tx_queue``, the link's wire
        # drains it (``crossing`` is on the wire), its receiver ``rx_fifo``.
        self.feeder: collections.abc.Callable | None = None
        self.wire: collections.abc.Callable | None = None
        self.receiver: collections.abc.Callable | None = None
        self.crossing: Packet | None = None
        self._queued = engine.event(name=f"queued:{name}").succeed()

    @property
    def peer(self) -> "Sl3Endpoint":
        if self.link is None:
            raise RuntimeError(f"endpoint {self.name} is not attached to a link")
        return self.link.b if self.link.a is self else self.link.a

    def send(self, packet: Packet) -> Event:
        """Enqueue for transmission; returns an event (a waiting put only
        when the TX queue is full)."""
        self.stats.packets_sent += 1
        if self.tx_queue.offer(packet):
            return self._queued
        return self.tx_queue.put(packet)

    def assert_tx_halt(self):
        """§3.4: tell the peer to ignore us until the link retrains."""
        halt = Packet(
            kind=PacketKind.TX_HALT,
            src=(-1, -1),
            dst=(-1, -1),
            size_bytes=SL3_FLIT_BYTES,
        )
        return self.tx_queue.put(halt)

    def release_rx_halt(self) -> None:
        """Mapping Manager release after all pipeline FPGAs configured."""
        self.rx_halt = False

    def __repr__(self) -> str:
        return f"<Sl3Endpoint {self.name} rx_halt={self.rx_halt}>"


class Sl3Link:
    """A full-duplex link between two endpoints.

    Each direction has a *wire* that serializes packets (subject to error
    injection and the peer's halt state) into the far receive FIFO — a
    full FIFO holds it back, which is exactly Xoff — and a *delivery*
    side that drains the FIFO into the far shell.  Both are callbacks:
    an idle hop costs one timed event.
    """

    def __init__(
        self,
        engine: Engine,
        a: Sl3Endpoint,
        b: Sl3Endpoint,
        config: Sl3Config | None = None,
        name: str = "link",
    ):
        self.engine = engine
        self.name = name
        self.config = config or a.config
        self.a = a
        self.b = b
        a.link = self
        b.link = self
        self.broken = False  # cable failure
        self._rng = engine.rng.stream(f"sl3:{name}")
        for src, dst in ((a, b), (b, a)):
            src.wire = functools.partial(self._wire, src, dst)
            dst.receiver = functools.partial(self._delivery, dst)
            src.wire(src.tx_queue.take(src.wire))  # serve what is queued, then wait
            dst.receiver(dst.rx_fifo.take(dst.receiver))

    # -- service callbacks --------------------------------------------------

    def _wire(self, src: Sl3Endpoint, dst: Sl3Endpoint, arg: object) -> None:
        """One direction's wire: run with a packet the TX queue hands over,
        the hop's timeout, or the receive FIFO's put once Xoff lifts.  The
        next packet goes on the wire before the crossed one lands."""
        crossed, src.crossing = src.crossing, None
        if crossed is not None and not self._survives(crossed, src, dst):
            crossed = None
        elif crossed is not None and dst.rx_fifo.is_full:
            dst.stats.xoff_events += 1  # Xoff: the wire waits for room
            dst.rx_fifo.put(crossed).add_callback(src.wire)
            return
        packet = src.tx_queue.take(src.wire) if isinstance(arg, Event) else arg
        if packet is not None:
            src.crossing = packet
            config = self.config
            self.engine.timeout(
                transfer_time_ns(packet.size_bytes, config.effective_gbps)
                + config.hop_latency_ns
            ).callbacks = [src.wire]
        if crossed is not None:
            dst.rx_fifo.offer(crossed)  # room was checked above

    def _survives(self, packet: Packet, src: Sl3Endpoint, dst: Sl3Endpoint) -> bool:
        """Whether a crossed packet lands (link control, drops, ECC)."""
        if self.broken:
            src.stats.dropped_link_down += 1
            return False
        if packet.kind is PacketKind.TX_HALT:
            # Link-level control: processed even under RX halt.
            dst.ignore_peer = True
            return False
        if dst.ignore_peer:
            dst.stats.dropped_ignore_peer += 1
            return False
        if dst.rx_halt:
            dst.stats.dropped_rx_halt += 1
            return False
        survived, corrected = self._apply_channel_errors(packet)
        dst.stats.corrected_flits += corrected
        if not survived:
            dst.stats.dropped_crc += 1
        return survived

    def _delivery(self, endpoint: Sl3Endpoint, arg: object) -> None:
        """Drain ``endpoint``'s receive FIFO into its shell; called with a
        packet the FIFO hands over, or with the delivery it waited on."""
        packet = endpoint.rx_fifo.take(endpoint.receiver) if isinstance(arg, Event) else arg
        while packet is not None:
            packet.hops += 1
            endpoint.stats.packets_delivered += 1
            endpoint.stats.bytes_delivered += packet.size_bytes
            if packet.kind is PacketKind.GARBAGE:
                endpoint.stats.garbage_received += 1
            if endpoint.deliver is not None:
                result = endpoint.deliver(packet)
                if result is not None and not result.triggered:
                    result.add_callback(endpoint.receiver)  # router backpressure
                    return
            packet = endpoint.rx_fifo.take(endpoint.receiver)

    # -- error channel -----------------------------------------------------

    def _apply_channel_errors(self, packet: Packet) -> tuple[bool, int]:
        """Apply per-flit ECC statistics; returns (survived, corrected)."""
        config = self.config
        p_single = config.flit_single_error_rate
        p_double = config.flit_double_error_rate
        if p_single == 0.0 and p_double == 0.0:
            return True, 0
        if not config.ecc_enabled:
            # Without ECC, any bit error corrupts the packet undetected;
            # we count it as delivered garbage via the caller's stats.
            any_error = self._rng.random() < 1.0 - (
                (1.0 - p_single) * (1.0 - p_double)
            ) ** packet.flits
            if any_error:
                packet.kind = PacketKind.GARBAGE
            return True, 0
        flits = packet.flits
        # Double-bit errors: ECC detects, CRC confirms -> drop the packet.
        if p_double and self._rng.random() < 1.0 - (1.0 - p_double) ** flits:
            return False, 0
        corrected = 0
        if p_single:
            # Expected number of corrected flits, sampled cheaply.
            mean = flits * p_single
            corrected = int(mean)
            if self._rng.random() < mean - corrected:
                corrected += 1
            packet.corrected_bit_errors += corrected
        return True, corrected

    # -- reconfiguration/garbage ---------------------------------------------

    def retrain(self, requester: Sl3Endpoint) -> None:
        """Re-establish the link after ``requester``'s reconfiguration.

        The peer stops ignoring us once the retrain delay elapses.
        """
        peer = requester.peer

        def body():
            yield self.engine.timeout(self.config.retrain_ns)
            peer.ignore_peer = False
            requester.locked = True

        self.engine.process(body(), name=f"sl3.retrain.{requester.name}")

    def start_garbage(self, src: Sl3Endpoint, duration_ns: float, period_ns: float = 50_000.0):
        """Emit garbage from ``src`` (a reconfiguring, unprotected FPGA)."""

        def body():
            elapsed = 0.0
            while elapsed < duration_ns:
                garbage = Packet(
                    kind=PacketKind.GARBAGE,
                    src=(-9, -9),
                    dst=(-9, -9),
                    size_bytes=self._rng.randrange(SL3_FLIT_BYTES, 4096),
                )
                yield src.tx_queue.put(garbage)
                yield self.engine.timeout(period_ns)
                elapsed += period_ns

        return self.engine.process(body(), name=f"sl3.garbage.{src.name}")

    def break_cable(self) -> None:
        """Cable assembly failure: the link goes dark both ways."""
        self.broken = True

    def repair_cable(self) -> None:
        self.broken = False

    def __repr__(self) -> str:
        return f"<Sl3Link {self.name} {self.a.name}<->{self.b.name}>"
