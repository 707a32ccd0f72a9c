"""Packets carried by the inter-FPGA network and the PCIe interface.

The transport is virtual cut-through with no retransmission or source
buffering (§3.2): packets either arrive intact, arrive with corrected
single-bit errors, or are dropped (double-bit/CRC failures) for the
host timeout to handle.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools

from repro.hardware.constants import SL3_FLIT_BYTES

NodeId = tuple[int, int]  # (x, y) coordinates in the pod torus


class PacketKind(enum.Enum):
    """What a packet carries."""

    REQUEST = "request"  # document scoring request, host -> pipeline head
    RESPONSE = "response"  # score, pipeline -> injecting host
    MODEL_RELOAD = "model_reload"  # queue-manager broadcast down the pipeline
    TX_HALT = "tx_halt"  # link control: neighbour entering reconfiguration
    GARBAGE = "garbage"  # random traffic from a misbehaving neighbour
    PROBE = "probe"  # health-monitor neighbour-ID probe


class TraceIds:
    """Monotonic trace-ID source; FDR entries key off these (§3.6)."""

    _counter = itertools.count(1)

    @classmethod
    def next(cls) -> int:
        return next(cls._counter)


@dataclasses.dataclass(slots=True)
class Packet:
    """One network transaction.

    ``payload`` is a Python object (document, score, command); fidelity
    to wire size comes from ``size_bytes``, which drives serialization
    time.  ``route`` tracks hops for diagnostics.  Slotted: several
    packets exist per request, and the per-instance dict is the single
    biggest allocation on that path.
    """

    kind: PacketKind
    src: NodeId
    dst: NodeId
    size_bytes: int
    payload: object = None
    trace_id: int = 0
    # Host stamp (a SlotLease stamps its request); None means unstamped,
    # and PCIe DMA-in stamps the packet then.  0.0 is a real stamp (t=0).
    injected_at_ns: float | None = None
    slot_id: int | None = None  # DMA slot for the eventual response
    hops: int = 0
    corrected_bit_errors: int = 0
    route: list = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"negative packet size {self.size_bytes}")
        if self.trace_id == 0:
            self.trace_id = TraceIds.next()

    @property
    def flits(self) -> int:
        """Number of SL3 flits this packet occupies (min 1: head==tail)."""
        return max(1, -(-self.size_bytes // SL3_FLIT_BYTES))

    def response_to(self, size_bytes: int, payload: object) -> "Packet":
        """Build the response packet travelling back to the injector."""
        return Packet(
            kind=PacketKind.RESPONSE,
            src=self.dst,
            dst=self.src,
            size_bytes=size_bytes,
            payload=payload,
            trace_id=self.trace_id,
            injected_at_ns=self.injected_at_ns,
            slot_id=self.slot_id,
        )

    def __repr__(self) -> str:
        return (
            f"<Packet {self.kind.value} #{self.trace_id} "
            f"{self.src}->{self.dst} {self.size_bytes}B>"
        )
