"""FIFO and priority stores (bounded queues) for producer/consumer flows.

``Store.put`` and ``Store.get`` return events; processes yield them.
Bounded stores apply backpressure: a ``put`` into a full store blocks
until a consumer makes room — this is how Xon/Xoff flow control is
modelled.  Callbacks (DMA engines, links) use ``offer`` and ``take``
instead, which make no event unless they have to wait.
"""

from __future__ import annotations

import collections.abc
import heapq
import math
import typing
from collections import deque

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class StoreFull(Exception):
    """Raised by non-blocking ``try_put`` on a full store."""


class Store:
    """A FIFO queue with optional capacity.

    Items are delivered to getters in arrival order; waiting getters are
    served in request order (fairness matters for the DMA fairness
    modelling).
    """

    def __init__(self, engine: "Engine", capacity: float = math.inf, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.items: deque = deque()
        # Waiting consumers in request order: get() events and take() callbacks.
        self._getters: deque = deque()
        self._putters: deque[tuple[Event, object]] = deque()
        # Event labels are precomputed: put/get run once per item moved,
        # and per-event f-string formatting shows up in long experiments.
        self._put_label = f"put:{name}"
        self._get_label = f"get:{name}"

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    # -- blocking API ------------------------------------------------------

    def put(self, item: object) -> Event:
        """Return an event that succeeds once ``item`` is enqueued."""
        event = Event(self.engine, self._put_label)
        if not self.is_full and not self._putters:
            self._enqueue(item)
            event.succeed(item)
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Return an event that succeeds with the next item."""
        event = Event(self.engine, self._get_label)
        if self.items:
            event.succeed(self.items.popleft())
            self._admit_waiting_putters()
        else:
            self._getters.append(event)
        return event

    # -- callback API --------------------------------------------------------

    def offer(self, item: object) -> bool:
        """Enqueue ``item`` now, with no event, if a ``put`` would not wait."""
        if self._putters or len(self.items) >= self.capacity:
            return False
        self._enqueue(item)
        return True

    def take(self, consumer: collections.abc.Callable[[object], None]) -> object:
        """The next item if one is queued; else None, and ``consumer`` is
        called with the next item put.  Drain with a loop until None."""
        if self.items:
            return self.try_get()
        self._getters.append(consumer)
        return None

    # -- non-blocking API ---------------------------------------------------

    def try_put(self, item: object) -> None:
        """Enqueue immediately or raise :class:`StoreFull`."""
        if self.is_full:
            raise StoreFull(self.name)
        self._enqueue(item)

    def try_get(self) -> object | None:
        """Dequeue immediately, or return None if empty."""
        if not self.items:
            return None
        item = self.items.popleft()
        self._admit_waiting_putters()
        return item

    # -- internals -----------------------------------------------------------

    def _hand_over(self, item: object) -> bool:
        """Hand ``item`` to the oldest live get() or take() consumer, if any."""
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter.__class__ is not Event:
                getter(item)
                return True
            if not getter.cancelled:
                getter.succeed(item)
                return True
        return False

    def _enqueue(self, item: object) -> None:
        if not self._hand_over(item):
            self.items.append(item)

    def _admit_waiting_putters(self) -> None:
        while self._putters and not self.is_full:
            event, item = self._putters.popleft()
            if event.cancelled:
                continue  # putter departed; drop its item
            self._enqueue(item)
            event.succeed(item)

    def __repr__(self) -> str:
        return (
            f"<{self.__class__.__name__} {self.name} {len(self.items)}/"
            f"{self.capacity} getters={len(self._getters)}>"
        )


class PriorityStore(Store):
    """A store that delivers the smallest item first.

    Items must be orderable; use ``(priority, seq, payload)`` tuples to
    guarantee a total order.
    """

    def __init__(self, engine: "Engine", capacity: float = math.inf, name: str = ""):
        super().__init__(engine, capacity, name)
        self.items: list = []

    def __len__(self) -> int:
        return len(self.items)

    def _enqueue(self, item: object) -> None:
        if not self._hand_over(item):
            heapq.heappush(self.items, item)

    def get(self) -> Event:
        event = Event(self.engine, self._get_label)
        if self.items:
            event.succeed(heapq.heappop(self.items))
            self._admit_waiting_putters()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> object | None:
        if not self.items:
            return None
        item = heapq.heappop(self.items)
        self._admit_waiting_putters()
        return item
