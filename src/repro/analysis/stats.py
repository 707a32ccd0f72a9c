"""Latency statistics: percentiles, CDFs, and bounded-memory samples."""

from __future__ import annotations

import collections.abc
import dataclasses
import math
import random


def percentile(samples: collections.abc.Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile; ``pct`` in [0, 100]."""
    return sorted_percentile(sorted(samples), pct)


def sorted_percentile(ordered: collections.abc.Sequence[float], pct: float) -> float:
    """:func:`percentile` of samples already in ascending order."""
    if not ordered:
        raise ValueError("no samples")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0,100], got {pct}")
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def cdf_points(
    samples: collections.abc.Sequence[float], points: int = 100
) -> list[tuple[float, float]]:
    """(value, cumulative fraction) pairs for plotting a CDF."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    result = []
    for i in range(1, points + 1):
        frac = i / points
        index = min(int(frac * len(ordered)) - 1, len(ordered) - 1)
        result.append((ordered[max(index, 0)], frac))
    return result


@dataclasses.dataclass
class LatencyStats:
    """Summary of a latency sample set (ns)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    p999: float
    max: float

    @classmethod
    def empty(cls) -> "LatencyStats":
        """The all-zero summary of zero samples.

        For windows that legitimately completed nothing (e.g. an
        all-outage open-loop run that shed every arrival) — callers
        that consider zero samples a bug should use
        :meth:`from_samples`, which raises.
        """
        return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, p999=0.0, max=0.0)

    @classmethod
    def from_samples(cls, samples: collections.abc.Sequence[float]) -> "LatencyStats":
        if not samples:
            raise ValueError("no samples")
        ordered = sorted(samples)
        return cls(
            count=len(samples),
            mean=sum(samples) / len(samples),
            p50=sorted_percentile(ordered, 50),
            p95=sorted_percentile(ordered, 95),
            p99=sorted_percentile(ordered, 99),
            p999=sorted_percentile(ordered, 99.9),
            max=max(samples),
        )

    def scaled(self, factor: float) -> "LatencyStats":
        return LatencyStats(
            count=self.count,
            mean=self.mean * factor,
            p50=self.p50 * factor,
            p95=self.p95 * factor,
            p99=self.p99 * factor,
            p999=self.p999 * factor,
            max=self.max * factor,
        )

    def to_dict(self) -> dict:
        """Canonical JSON form (stable keys, plain numbers)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "p999": self.p999,
            "max": self.max,
        }


class ReservoirSample:
    """Bounded-memory latency accumulator (Vitter's Algorithm R).

    Count, mean, and max are exact over every observation; percentiles
    are computed from a uniform random sample of at most ``capacity``
    values, so memory stays flat no matter how many latencies a run
    records.  Below capacity the reservoir holds every observation in
    arrival order and all statistics are exact.

    The replacement RNG is private and seeded at construction, so two
    same-seed simulations produce identical quantiles.

    Supports enough of the list protocol (``append``, ``len``,
    iteration, indexing, ``==`` against a list, ``clear``) to drop in
    where an unbounded ``latencies_ns`` list used to live.  ``len()``
    returns the *exact observation count* — callers that need the
    sample size should use ``sample_size``.
    """

    __slots__ = ("capacity", "count", "total", "_max", "_sample", "_seed", "_rng")

    def __init__(self, capacity: int = 100_000, seed: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self._max = 0.0
        self._sample: list[float] = []
        self._seed = seed
        # simlint: allow-rng -- the construction-time seed IS the API:
        # the reservoir is engine-free and clear() must restore the
        # exact replacement stream.
        self._rng = random.Random(seed)

    # -- accumulation --------------------------------------------------

    def append(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self._max:
            self._max = value
        sample = self._sample
        if len(sample) < self.capacity:
            sample.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                sample[slot] = value

    def extend(self, values: collections.abc.Iterable[float]) -> None:
        for value in values:
            self.append(value)

    def merge_analytic(
        self,
        n: int,
        mean_value: float,
        draw: collections.abc.Callable[[random.Random], float] | None = None,
    ) -> None:
        """Bulk-merge ``n`` analytically credited observations.

        Fluid fast-forward credits whole windows of completions in one
        step; appending them one by one would defeat the point.  Count
        and total update exactly.  Below capacity each merged value is
        materialized (``draw(rng)`` per value, or ``mean_value``
        without a draw), so small runs stay exact.  At capacity the
        retained sample receives the *expected* number of Algorithm-R
        slot replacements for ``n`` sequential appends — ``capacity *
        ln(count_after / count_before)``, probabilistically rounded on
        the reservoir's private stream — so quantiles track the merged
        distribution while the merge stays O(capacity), not O(n).
        ``max`` reflects only materialized values (plus ``mean_value``
        itself without a draw): an analytic merge cannot know the
        extreme of draws it never made.
        """
        if n < 0:
            raise ValueError(f"merge size must be >= 0, got {n}")
        if n == 0:
            return
        sample = self._sample
        capacity = self.capacity
        rng = self._rng
        before = self.count
        self.count = before + n
        self.total += mean_value * n
        filled = 0
        while len(sample) < capacity and filled < n:
            value = draw(rng) if draw is not None else mean_value
            if value > self._max:
                self._max = value
            sample.append(value)
            filled += 1
        leftover = n - filled
        if leftover > 0:
            # Append number j replaces a random slot with probability
            # capacity/j; the expectation over the merged range is the
            # harmonic sum, tightly approximated by its integral.
            start = before + filled
            expected = capacity * math.log((start + leftover) / start)
            replacements = int(expected)
            if rng.random() < expected - replacements:
                replacements += 1
            for _ in range(replacements):
                value = draw(rng) if draw is not None else mean_value
                if value > self._max:
                    self._max = value
                sample[rng.randrange(capacity)] = value
        if draw is None and mean_value > self._max:
            self._max = mean_value

    def clear(self) -> None:
        """Reset to the just-constructed state (RNG included)."""
        self.count = 0
        self.total = 0.0
        self._max = 0.0
        self._sample.clear()
        # simlint: allow-rng -- restores the constructor's stream exactly.
        self._rng = random.Random(self._seed)

    # -- list protocol --------------------------------------------------

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def __iter__(self) -> collections.abc.Iterator[float]:
        return iter(self._sample)

    def __getitem__(self, index):
        return self._sample[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReservoirSample):
            return self.count == other.count and self._sample == other._sample
        if isinstance(other, (list, tuple)):
            return self.count == len(other) and self._sample == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- statistics -----------------------------------------------------

    @property
    def sample_size(self) -> int:
        """Number of values retained for percentile estimation."""
        return len(self._sample)

    @property
    def mean(self) -> float:
        """Exact mean over all observations (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    @property
    def max(self) -> float:
        """Exact maximum over all observations (0.0 when empty)."""
        return self._max

    def percentile(self, pct: float) -> float:
        """Percentile from the retained sample (exact below capacity)."""
        return percentile(self._sample, pct)

    def summary(self) -> LatencyStats:
        """Exact count/mean/max with sampled percentiles.

        Returns :meth:`LatencyStats.empty` for zero observations rather
        than raising, matching how run-level reports treat windows that
        completed nothing.
        """
        if self.count == 0:
            return LatencyStats.empty()
        ordered = sorted(self._sample)
        return LatencyStats(
            count=self.count,
            mean=self.mean,
            p50=sorted_percentile(ordered, 50),
            p95=sorted_percentile(ordered, 95),
            p99=sorted_percentile(ordered, 99),
            p999=sorted_percentile(ordered, 99.9),
            max=self._max,
        )

    def __repr__(self) -> str:
        return (
            f"<ReservoirSample n={self.count} "
            f"sample={len(self._sample)}/{self.capacity}>"
        )
