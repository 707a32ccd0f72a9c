"""Host time normalised to a reference speed.

The benchmark's host shares its cores with other tenants, and the
speed of the same pure-Python loop drifts by up to 3x over tens of
minutes.  A raw requests-per-host-second figure measures that drift as
much as the simulator.  :class:`HostClock` therefore interleaves a
fixed calibration kernel with the measured phase: after every slice of
simulated time the workload hands control back, and the clock runs
calibration units until their nominal cost keeps pace with
``CAL_SHARE`` of the workload time so far.  Both see the same host
speed, so

    reference seconds = workload seconds * nominal calibration seconds
                                          / measured calibration seconds

is what the measured phase would have taken at the reference speed.
The kernel imports nothing from ``src/``: a change to the simulator
moves the workload time and leaves the calibration alone.

The kernel has the simulator's two flavours: a miniature event loop
(integer heap entries, generator resumption, attribute and dictionary
updates) and a tree-ensemble walk (list indexing, float comparisons
and sums, like the ranking model).  It allocates no garbage-collected
objects, so it neither triggers nor absorbs the workload's
collections.
"""

from __future__ import annotations

import heapq
import time

# Host seconds of one calibration unit at the reference speed: the
# median measured on a 2-vCPU Intel Xeon VM with CPython 3.11.
UNIT_REF_S = 0.0040
# Nominal calibration time per workload second.
CAL_SHARE = 0.15

_WORKERS = 128  # heap entries are (time << 7) | worker
_STEPS = 2048  # heap operations per unit
_TREES = 32  # ensemble walked per feature vector
_DEPTH = 6
_VECTORS = 96  # feature vectors scored per unit
_FEATURES = 64


class _Cell:
    __slots__ = ("key", "count", "total")

    def __init__(self, key: int):
        self.key = key
        self.count = 0
        self.total = 0


def _worker(cell: _Cell, table: dict):
    """An endless simulated process: takes a delay, updates its cell and
    a shared table, yields the gap to its next wake-up."""
    gap = cell.key % 7 + 1
    while True:
        delay = yield gap
        cell.count += 1
        cell.total += delay
        slot = (cell.key + cell.count) & 63
        table[slot] = table.get(slot, 0) + delay
        gap = (delay * 31 + cell.key) % 13 + 1


class Calibration:
    """The calibration kernel; :meth:`unit` is one fixed amount of work."""

    def __init__(self):
        self.table = {slot: 0 for slot in range(64)}
        self.procs = [_worker(_Cell(key), self.table) for key in range(_WORKERS)]
        self.start = [(next(proc) << 7) | key for key, proc in enumerate(self.procs)]
        heapq.heapify(self.start)
        self.heap = list(self.start)
        # Complete binary trees, flattened: internal node n tests
        # feature[n] < threshold[n] and goes to 2n+1 or 2n+2; the
        # leaves follow the internal nodes.
        internal = (1 << _DEPTH) - 1
        self.feature = [(n * 37) % _FEATURES for n in range(internal)]
        self.threshold = [((n * 53) % 97) / 97.0 for n in range(internal)]
        self.leaf = [
            [((t * 131 + n * 17) % 101) / 101.0 - 0.5 for n in range(internal + 1)]
            for t in range(_TREES)
        ]
        self.vectors = [
            [((v * 71 + f * 29) % 89) / 89.0 for f in range(_FEATURES)]
            for v in range(_VECTORS)
        ]
        self.score = 0.0

    def unit(self) -> None:
        self._events()
        self._trees()

    def _events(self) -> None:
        heap = self.heap
        heap[:] = self.start
        procs = self.procs
        heappop = heapq.heappop
        heappush = heapq.heappush
        for _ in range(_STEPS):
            entry = heappop(heap)
            now = entry >> 7
            key = entry & 127
            gap = procs[key].send(now & 15)
            heappush(heap, ((now + gap) << 7) | key)

    def _trees(self) -> None:
        # range() loops: list iterators are garbage-collected objects.
        feature = self.feature
        threshold = self.threshold
        internal = len(feature)
        total = 0.0
        for v in range(_VECTORS):
            vector = self.vectors[v]
            for t in range(_TREES):
                node = 0
                while node < internal:
                    if vector[feature[node]] < threshold[node]:
                        node = 2 * node + 1
                    else:
                        node = 2 * node + 2
                total += self.leaf[t][node - internal]
        self.score = total


_CALIBRATION = None


def calibration() -> Calibration:
    global _CALIBRATION
    if _CALIBRATION is None:
        _CALIBRATION = Calibration()
        _CALIBRATION.unit()  # warm
    return _CALIBRATION


class HostClock:
    """Accumulates workload host time between :meth:`start` and the
    last :meth:`tick`, with calibration interleaved at the ticks."""

    def __init__(self):
        self.kernel = calibration()
        self.work_s = 0.0
        self.cal_s = 0.0
        self.units = 0
        self.mark = None

    def start(self) -> None:
        self.mark = time.perf_counter()

    def tick(self) -> None:
        """End a slice of workload time; calibrate if due."""
        now = time.perf_counter()
        self.work_s += now - self.mark
        if self.units * UNIT_REF_S < CAL_SHARE * self.work_s:
            kernel = self.kernel
            while self.units * UNIT_REF_S < CAL_SHARE * self.work_s:
                kernel.unit()
                self.units += 1
            end = time.perf_counter()
            self.cal_s += end - now
            now = end
        self.mark = now

    @property
    def slowdown(self) -> float:
        """Measured over nominal calibration time: above 1 when the
        host ran slower than the reference."""
        if not self.units:
            return 1.0
        return self.cal_s / (self.units * UNIT_REF_S)

    @property
    def reference_s(self) -> float:
        """The workload time at the reference speed."""
        return self.work_s / self.slowdown

