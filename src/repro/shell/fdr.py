"""The Flight Data Recorder (§3.6).

A lightweight "always-on" recorder that captures the most recent head
and tail flits of all packets entering and exiting the FPGA through the
router, into a 512-entry circular buffer that can be streamed out over
PCIe during a health check.  Each entry keeps the trace ID (so the
offending document can be replayed in a test environment), transaction
size, direction of travel, and miscellaneous state such as non-zero
queue lengths.
"""

from __future__ import annotations

import typing
from collections import deque

from repro.hardware.constants import FDR_CAPACITY


class FdrEntry(typing.NamedTuple):
    """One recorded router event.

    A NamedTuple rather than a frozen dataclass: one entry is built per
    router hop, and frozen-dataclass construction (``__init__`` +
    ``object.__setattr__`` per field) is several times the cost of a
    tuple — measurable across tens of millions of hops.
    """

    timestamp_ns: float
    trace_id: int
    size_bytes: int
    direction: str  # e.g. "north->role", "role->south", "pcie->role"
    kind: str
    queue_lengths: tuple  # (port_name, depth) pairs, non-zero only


class FlightDataRecorder:
    """Fixed-capacity circular event buffer with power-on checkpoints.

    The paper's future-work extension is supported: with
    ``spill_to_dram=True``, entries evicted from the on-chip circular
    buffer are "opportunistically buffered into DRAM for extended
    histories" (§3.6), up to a DRAM budget.
    """

    def __init__(
        self,
        capacity: int = FDR_CAPACITY,
        spill_to_dram: bool = False,
        dram_budget_entries: int = 65_536,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.spill_to_dram = spill_to_dram
        self.dram_budget_entries = dram_budget_entries
        # Bounded deques evict their oldest entry on append, in C: the
        # recorder runs on every router hop.
        self._events: deque[FdrEntry] = deque(maxlen=capacity)
        self._spilled: deque[FdrEntry] = deque(maxlen=dram_budget_entries)
        self.power_on_checks: dict[str, bool] = {}
        self.total_recorded = 0

    def record(self, entry: FdrEntry) -> None:
        """Append an event, evicting (or spilling) the oldest when full."""
        events = self._events
        if self.spill_to_dram and len(events) == self.capacity:
            self._spilled.append(events[0])  # about to be evicted
        events.append(entry)
        self.total_recorded += 1

    def record_power_on(self, check: str, ok: bool) -> None:
        """Record a power-on sequence check (SL3 lock, PLL, resets...)."""
        self.power_on_checks[check] = ok

    def stream_out(self) -> list[FdrEntry]:
        """Dump the on-chip buffer (what the health check reads)."""
        return list(self._events)

    def extended_history(self) -> list[FdrEntry]:
        """DRAM-spilled entries plus the on-chip window, oldest first."""
        return list(self._spilled) + list(self._events)

    def entries_for_trace(self, trace_id: int) -> list[FdrEntry]:
        """All retained events for one trace ID (deadlock debugging)."""
        return [
            entry
            for entry in self.extended_history()
            if entry.trace_id == trace_id
        ]

    @property
    def dropped(self) -> int:
        """Events lost entirely (not retained on-chip or in DRAM)."""
        retained = len(self._events) + len(self._spilled)
        return max(0, self.total_recorded - retained)

    def __len__(self) -> int:
        return len(self._events)
