"""The cluster scheduler: placing services onto rings across pods.

The production deployment (§2.3) ran one service over 1,632 machines —
34 pods, each offering six 8-FPGA rings.  The scheduler owns that
resource view: one placement ledger records which nodes of which
:class:`RingSlot` each replica member owns (a whole ring, a gang member
ring, or a region of a shared ring) and which are cordoned; the
scheduler places new :class:`ServiceDefinition` instances under a
placement policy and accounts for capacity and spares so operators can
ask "how many more rings can this datacenter absorb?".

Placement policies:

``spread``
    Round-robin across pods — each successive ring lands in the next
    pod with a free slot.  Spreads a service's blast radius across
    power domains and top-of-rack switches (each pod has its own PDU
    and TOR, §2.2).

``pack``
    Fill a pod's rings before opening the next pod.  Minimises the
    number of pods that must be built/powered for small services.
"""

from __future__ import annotations

import collections
import collections.abc
import dataclasses
import typing

from repro.cluster.deployment import Deployment, RequestAdapter
from repro.cluster.tenancy import (
    RegionClaim,
    RingTenancy,
    check_region_fit,
    dedicated_claim,
    region_node_count,
)
from repro.fabric.datacenter import Datacenter, RingSlot
from repro.hardware.fpga import FpgaState, ReconfigError
from repro.services.mapping_manager import (
    InsufficientRingCapacity,
    MappingManager,
    ServiceDefinition,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.bitstream_cache import BitstreamCache
    from repro.cluster.repair import RepairQueue

PLACEMENT_POLICIES = ("spread", "pack")


class InsufficientClusterCapacity(Exception):
    """More rings requested than the datacenter has free."""


class PlacementFailed(Exception):
    """A chosen slot could not be configured (bad hardware found late).

    Carries the slot and the claim's nodes — the whole ring, or a
    region's run — so the control plane can cordon exactly those and
    retry elsewhere.
    """

    def __init__(self, slot: RingSlot, cause: Exception, nodes: tuple):
        super().__init__(f"placement on {slot} failed: {cause}")
        self.slot = slot
        self.cause = cause
        self.nodes = tuple(nodes)


@dataclasses.dataclass(frozen=True)
class PlacementDecision:
    """One scheduler decision: which service landed on which ring."""

    service: str
    slot: RingSlot
    spares: int


@dataclasses.dataclass(frozen=True)
class PodCapacity:
    """One pod's ring/region accounting inside a :class:`CapacityReport`."""

    pod_id: int
    total_rings: int
    free_rings: int
    occupied_rings: int
    cordoned_rings: int
    tenant_regions: int  # region claims on this pod's shared rings
    cordoned_regions: int  # region-granular cordons (bad node runs)

    def to_dict(self) -> dict:
        """Canonical JSON form (stable keys, plain ints)."""
        return {
            "pod_id": self.pod_id,
            "total_rings": self.total_rings,
            "free_rings": self.free_rings,
            "occupied_rings": self.occupied_rings,
            "cordoned_rings": self.cordoned_rings,
            "tenant_regions": self.tenant_regions,
            "cordoned_regions": self.cordoned_regions,
        }


@dataclasses.dataclass(frozen=True)
class CapacityReport:
    """Ring-granular capacity accounting for the whole datacenter.

    Repair-aware: when a :class:`~repro.cluster.repair.RepairQueue` is
    attached, ``open_tickets`` counts the cordoned rings with a repair
    in flight and ``next_repair_due_ns`` is when the earliest of them
    returns to the pool — so capacity planners can distinguish "gone"
    from "coming back, and when".

    Tenancy-aware: a shared ring hosting region tenants counts as one
    occupied ring; ``tenant_regions`` counts the claims packed onto
    such rings and ``cordoned_regions`` the node runs held out at
    region granularity.  ``per_pod`` breaks every ring/region figure
    down by pod for the packer and future autoscalers (the per-pod
    figures always sum to the datacenter totals).  With a
    :class:`~repro.cluster.bitstream_cache.BitstreamCache` attached,
    ``bitstream_hits``/``bitstream_misses`` attribute re-placement
    speedups to staged images.
    """

    total_rings: int
    occupied_rings: int
    total_spare_nodes: int
    cordoned_rings: int = 0  # held out pending manual service
    open_tickets: int = 0  # cordoned rings with a repair in flight
    next_repair_due_ns: float | None = None
    tenant_regions: int = 0  # region claims across shared rings
    cordoned_regions: int = 0  # region-granular cordons
    bitstream_hits: int = 0
    bitstream_misses: int = 0
    per_pod: dict = dataclasses.field(default_factory=dict)

    @property
    def free_rings(self) -> int:
        return self.total_rings - self.occupied_rings - self.cordoned_rings

    @property
    def serviceable_rings(self) -> int:
        """Rings that are, or will be after repair, available: everything
        except cordoned rings nobody has a ticket for."""
        return self.free_rings + self.occupied_rings + self.open_tickets

    @property
    def utilization(self) -> float:
        return self.occupied_rings / self.total_rings if self.total_rings else 0.0

    def to_dict(self) -> dict:
        """Canonical JSON form: sorted, string-keyed, derived figures
        included.

        ``per_pod`` is keyed by ``str(pod_id)`` in sorted order — JSON
        objects cannot carry int keys, and a canonical order makes the
        serialized report byte-stable across same-seed runs.
        """
        return {
            "total_rings": self.total_rings,
            "occupied_rings": self.occupied_rings,
            "free_rings": self.free_rings,
            "cordoned_rings": self.cordoned_rings,
            "serviceable_rings": self.serviceable_rings,
            "utilization": self.utilization,
            "total_spare_nodes": self.total_spare_nodes,
            "open_tickets": self.open_tickets,
            "next_repair_due_ns": self.next_repair_due_ns,
            "tenant_regions": self.tenant_regions,
            "cordoned_regions": self.cordoned_regions,
            "bitstream_hits": self.bitstream_hits,
            "bitstream_misses": self.bitstream_misses,
            "per_pod": {
                str(pod_id): self.per_pod[pod_id].to_dict()
                for pod_id in sorted(self.per_pod)
            },
        }


class ClusterScheduler:
    """Places service instances onto free torus rings across pods.

    Every placement decision lives in one ledger: a
    :class:`~repro.cluster.tenancy.RingTenancy` per ring that a claim or
    a cordon holds.  A whole-ring replica is one dedicated claim over
    all of its ring's nodes, a gang is one dedicated claim per member
    ring, a region tenant is a shared claim, and a whole-ring cordon is
    a cordon over all of the ring's nodes.  A ring with no ledger entry
    is free.
    """

    def __init__(
        self,
        datacenter: Datacenter,
        policy: str = "spread",
        bitstream_cache: "BitstreamCache | None" = None,
    ):
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {policy!r}; "
                f"choose from {PLACEMENT_POLICIES}"
            )
        self.datacenter = datacenter
        self.engine = datacenter.engine
        self.policy = policy
        self.decisions: list[PlacementDecision] = []
        self._ledger: dict[RingSlot, RingTenancy] = {}
        self._mapping_managers: dict[int, MappingManager] = {}
        self._next_pod_id = 0  # spread policy's round-robin cursor
        self.repair_queue: "RepairQueue | None" = None
        self.bitstream_cache = bitstream_cache

    # -- resource view ---------------------------------------------------------

    def mapping_manager(self, pod_id: int) -> MappingManager:
        """The (shared, per-pod) mapping manager for ``pod_id``."""
        if pod_id not in self._mapping_managers:
            manager = MappingManager(self.engine, self.datacenter.pod(pod_id))
            manager.bitstream_cache = self.bitstream_cache
            self._mapping_managers[pod_id] = manager
        return self._mapping_managers[pod_id]

    def _ring_nodes(self, slot: RingSlot) -> list:
        if slot not in self.datacenter.ring_slots():
            raise ValueError(f"{slot} is not a ring of this datacenter")
        return [server.node_id for server in self.datacenter.ring_servers(slot)]

    def _ledger_for(self, slot: RingSlot) -> RingTenancy:
        """``slot``'s ledger, opened on first use."""
        if slot not in self._ledger:
            self._ledger[slot] = RingTenancy(slot, self._ring_nodes(slot))
        return self._ledger[slot]

    def _prune(self, slot: RingSlot) -> None:
        """Close ``slot``'s ledger once nothing holds the ring."""
        tenancy = self._ledger.get(slot)
        if tenancy is not None and tenancy.empty:
            del self._ledger[slot]

    def free_slots(self) -> list[RingSlot]:
        return [
            slot for slot in self.datacenter.ring_slots()
            if self.tenancy_of(slot) is None
        ]

    def tenancy_of(self, slot: RingSlot) -> RingTenancy | None:
        """``slot``'s ledger, while a claim or a cordon holds the ring."""
        tenancy = self._ledger.get(slot)
        return None if tenancy is None or tenancy.empty else tenancy

    def tenancies(self) -> list[RingTenancy]:
        """Every held ring's ledger, in slot order."""
        return [
            self._ledger[slot]
            for slot in sorted(self._ledger)
            if not self._ledger[slot].empty
        ]

    def attach_repair_queue(self, queue: "RepairQueue") -> None:
        """Ticket every cordon through ``queue`` from now on.

        With a queue attached, :meth:`cordon` opens a
        :class:`~repro.cluster.repair.ServiceTicket` and the repaired
        slot returns to the pool when the ticket's timer expires — no
        operator :meth:`uncordon` required.  Slots already cordoned at
        attach time are ticketed immediately (they were waiting for
        exactly this).
        """
        if self.repair_queue is not None and self.repair_queue is not queue:
            raise RuntimeError("a repair queue is already attached")
        self.repair_queue = queue
        for slot, tenancy in self._ledger.items():
            if tenancy.cordoned:
                queue.open_ticket(
                    slot, reason=next(iter(tenancy.cordoned.values()))
                )

    def cordon(self, slot: RingSlot, reason: str = "") -> None:
        """Hold ``slot`` out of placement (bad hardware awaiting service).

        A cordon over every node of the ring; see :meth:`cordon_region`.
        """
        self.cordon_region(slot, self._ring_nodes(slot), reason)

    def cordon_region(
        self, slot: RingSlot, nodes: collections.abc.Sequence, reason: str = ""
    ) -> None:
        """Hold a node run of ``slot`` out of placement.

        A run covering the whole ring is a whole-ring cordon (listed in
        :attr:`cordoned_slots`, lifted by :meth:`uncordon`); a shorter
        run leaves the ring serving its other tenants.  Cordoning nodes
        of a live claim or of an unknown slot raises: a held node counts
        as occupied already, so also counting it cordoned would
        double-subtract from the free pool (release the claim first),
        and an unknown slot is a caller bug.  With a repair queue
        attached a (slot-level) service ticket is opened — the
        technician services the whole ring's broken components on one
        visit, which lifts every cordon via :meth:`slot_serviced`.
        """
        if not set(nodes) <= set(self._ring_nodes(slot)):
            raise ValueError(f"{list(nodes)} are not nodes of {slot}")
        tenancy = self._ledger.get(slot)
        if tenancy is not None and set(nodes) & tenancy.claimed_nodes:
            raise ValueError(f"{slot} is occupied; release it first")
        self._ledger_for(slot).cordon_region(tuple(nodes), reason)
        if self.repair_queue is not None:
            self.repair_queue.open_ticket(slot, reason=reason)

    def slot_serviced(self, slot: RingSlot) -> None:
        """Post-repair hook: ``slot``'s hardware was just serviced.

        Serviced boards come back with empty staging DRAM, so every
        image the bitstream cache had for the ring's nodes is gone; and
        every cordon on the ring lifts — the bad hardware is bad no
        longer.
        """
        if self.bitstream_cache is not None:
            for server in self.datacenter.ring_servers(slot):
                self.bitstream_cache.invalidate(server.machine_id)
        tenancy = self._ledger.get(slot)
        if tenancy is not None:
            tenancy.clear_cordons()
            self._prune(slot)

    def uncordon(self, slot: RingSlot) -> None:
        """Return a cordoned slot to the placement pool (post-repair).

        Raises ``KeyError`` for a slot that is not cordoned whole —
        silently ignoring it let typos pass unnoticed mid-experiment.  A
        manual uncordon cancels the slot's open service ticket, if any
        (the operator serviced it out-of-band).
        """
        self.cordon_reason(slot)  # KeyError unless cordoned whole
        tenancy = self._ledger[slot]
        del tenancy.cordoned[tuple(tenancy.ring_nodes)]
        self._prune(slot)
        if self.repair_queue is not None:
            self.repair_queue.cancel(slot)

    def cordon_reason(self, slot: RingSlot) -> str:
        """Why ``slot`` is cordoned whole (raises ``KeyError`` if it is not)."""
        tenancy = self._ledger.get(slot)
        reason = tenancy.whole_cordon if tenancy is not None else None
        if reason is None:
            raise KeyError(f"{slot} is not cordoned")
        return reason

    @property
    def cordoned_slots(self) -> list[RingSlot]:
        return [
            tenancy.slot
            for tenancy in self.tenancies()
            if tenancy.whole_cordon is not None
        ]

    def is_occupied(self, slot: RingSlot) -> bool:
        """Whether any claim — a whole ring or a region tenant — holds ``slot``."""
        tenancy = self._ledger.get(slot)
        return tenancy is not None and bool(tenancy.claims)

    def slot_of(self, deployment: Deployment) -> RingSlot:
        """The ring slot ``deployment`` occupies."""
        claim = deployment.claim
        tenancy = self._ledger.get(claim.slot)
        if tenancy is None or tenancy.occupants.get(claim.service) is not deployment:
            raise KeyError(f"{deployment.name} is not placed by this scheduler")
        return claim.slot

    def deployments(self) -> list[Deployment]:
        return [
            tenancy.occupants[service]
            for tenancy in self.tenancies()
            for service in sorted(tenancy.occupants)
        ]

    def capacity_report(self) -> CapacityReport:
        queue = self.repair_queue
        cache = self.bitstream_cache
        counts: dict[int, collections.Counter] = {}
        spares = 0
        for slot in self.datacenter.ring_slots():
            pod = counts.setdefault(slot.pod_id, collections.Counter())
            pod["total"] += 1
            tenancy = self.tenancy_of(slot)
            if tenancy is None:
                continue
            # A ring with a claim is occupied; one holding only cordoned
            # nodes is out of the free pool but hosts nobody.
            pod["occupied" if tenancy.claims else "cordoned"] += 1
            pod["regions"] += sum(1 for c in tenancy.claims.values() if c.shared)
            pod["region_cordons"] += tenancy.region_cordons
            spares += sum(d.spare_count for d in tenancy.occupants.values())
        per_pod = {
            pod_id: PodCapacity(
                pod_id=pod_id,
                total_rings=pod["total"],
                free_rings=pod["total"] - pod["occupied"] - pod["cordoned"],
                occupied_rings=pod["occupied"],
                cordoned_rings=pod["cordoned"],
                tenant_regions=pod["regions"],
                cordoned_regions=pod["region_cordons"],
            )
            for pod_id, pod in sorted(counts.items())
        }
        return CapacityReport(
            total_rings=self.datacenter.total_rings,
            occupied_rings=sum(pod["occupied"] for pod in counts.values()),
            total_spare_nodes=spares,
            cordoned_rings=sum(pod["cordoned"] for pod in counts.values()),
            open_tickets=len(queue.open_tickets) if queue is not None else 0,
            next_repair_due_ns=queue.next_due_ns() if queue is not None else None,
            tenant_regions=sum(pod["regions"] for pod in counts.values()),
            cordoned_regions=sum(pod["region_cordons"] for pod in counts.values()),
            bitstream_hits=cache.hits if cache is not None else 0,
            bitstream_misses=cache.misses if cache is not None else 0,
            per_pod=per_pod,
        )

    # -- placement -------------------------------------------------------------

    def _free_pool(
        self, count: int, policy: str | None
    ) -> tuple[str, dict[int, list[RingSlot]]]:
        """Validated policy + the free slots grouped by pod, or raise
        if fewer than ``count`` rings are free datacenter-wide."""
        policy = policy or self.policy
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {policy!r}; "
                f"choose from {PLACEMENT_POLICIES}"
            )
        free = self.free_slots()
        if len(free) < count:
            raise InsufficientClusterCapacity(
                f"need {count} rings, only {len(free)} of "
                f"{self.datacenter.total_rings} free"
            )
        by_pod: dict[int, list[RingSlot]] = {}
        for slot in free:
            by_pod.setdefault(slot.pod_id, []).append(slot)
        return policy, by_pod

    def _choose(self, count: int, policy: str | None = None) -> list[RingSlot]:
        policy, by_pod = self._free_pool(count, policy)
        if policy == "pack":
            # free_slots() is pod-major ordered; fill pods in order.
            ordered = [
                slot for pod_id in sorted(by_pod) for slot in by_pod[pod_id]
            ]
            return ordered[:count]
        # spread: take one slot from each pod in turn until satisfied,
        # starting from the round-robin cursor so successive deploy()
        # calls keep rotating across pods instead of restarting at pod 0.
        pods = sorted(by_pod)
        start = 0
        for index, pod_id in enumerate(pods):
            if pod_id >= self._next_pod_id:
                start = index
                break
        queues = [by_pod[pod_id] for pod_id in pods[start:] + pods[:start]]
        chosen: list[RingSlot] = []
        while len(chosen) < count:
            for queue in queues:
                if queue and len(chosen) < count:
                    chosen.append(queue.pop(0))
        self._next_pod_id = chosen[-1].pod_id + 1
        return chosen

    def _choose_gang(self, count: int, policy: str | None = None) -> list[RingSlot]:
        """Choose ``count`` rings composing ONE replica (a gang).

        Unlike :meth:`_choose` — independent replicas, where only pod
        diversity matters — gang members are chained into one request
        path, so consecutive members should sit on pods that are close
        on the datacenter's inter-pod loop
        (:meth:`~repro.fabric.datacenter.Datacenter.pod_distance`):

        ``pack``
            Span the fewest pods (ideally one), breaking ties by the
            shortest chained inter-pod path — minimises the cable runs
            a request crosses between stages.

        ``spread``
            One ring per pod where capacity allows, on *consecutive*
            pods of the loop starting at the round-robin cursor: blast
            radius still spans power domains, but each stage-to-stage
            hop crosses a single inter-pod run.
        """
        policy, by_pod = self._free_pool(count, policy)
        num_pods = self.datacenter.num_pods
        if policy == "pack":
            best: tuple | None = None
            for start in range(num_pods):
                window: list[RingSlot] = []
                pods_used = 0
                for step in range(num_pods):
                    queue = by_pod.get((start + step) % num_pods, [])
                    take = min(len(queue), count - len(window))
                    if take:
                        window.extend(queue[:take])
                        pods_used += 1
                    if len(window) == count:
                        break
                if len(window) < count:
                    continue
                cost = sum(
                    self.datacenter.pod_distance(a.pod_id, b.pod_id)
                    for a, b in zip(window, window[1:], strict=False)
                )
                key = (pods_used, cost, start)
                if best is None or key < best[:3]:
                    best = (*key, window)
            assert best is not None  # len(free) >= count guarantees a window
            return best[3]
        # spread
        chosen: list[RingSlot] = []
        start = self._next_pod_id % num_pods
        while len(chosen) < count:
            took = len(chosen)
            for step in range(num_pods):
                queue = by_pod.get((start + step) % num_pods, [])
                if queue and len(chosen) < count:
                    chosen.append(queue.pop(0))
            assert len(chosen) > took  # len(free) >= count guarantees progress
        self._next_pod_id = chosen[-1].pod_id + 1
        return chosen

    def deploy(
        self,
        service: ServiceDefinition,
        rings: int = 1,
        adapter: RequestAdapter | None = None,
        slots_per_server: int = 48,
        policy: str | None = None,
    ) -> list[Deployment]:
        """Place ``service`` on ``rings`` free rings and configure them.

        Each chosen ring gets its own :class:`Deployment` (sharing the
        pod's mapping manager so failure handling sees every assignment)
        and is fully configured — FPGA images written, RX-Halt released
        — before this returns.  ``policy`` overrides the scheduler-wide
        placement policy for this call (the control plane places each
        service under its spec's policy).
        """
        if rings < 1:
            raise ValueError(f"need at least one ring, got {rings}")
        claims = self._dedicated(service, self._choose(rings, policy), slots_per_server)
        return self._configure_slots(service, claims, adapter, slots_per_server)

    def deploy_gang(
        self,
        service: ServiceDefinition,
        rings: int,
        adapter: RequestAdapter | None = None,
        slots_per_server: int = 48,
        policy: str | None = None,
    ) -> list[Deployment]:
        """Place ONE composite replica: ``rings`` member rings, all or
        nothing.

        Members are chosen by :meth:`_choose_gang` (link-aware, in chain
        order) and configured like :meth:`deploy`; a configure failure
        on any member rolls the whole gang back before re-raising, so a
        replica never comes up partially placed.  The returned list is
        in chain order — the caller wires it into a
        :class:`~repro.cluster.composite.CompositeDeployment`.
        """
        if rings < 1:
            raise ValueError(f"need at least one ring, got {rings}")
        claims = self._dedicated(
            service, self._choose_gang(rings, policy), slots_per_server
        )
        return self._configure_slots(service, claims, adapter, slots_per_server)

    def _dedicated(
        self,
        service: ServiceDefinition,
        chosen: list[RingSlot],
        slots_per_server: int,
    ) -> list[RegionClaim]:
        return [
            dedicated_claim(slot, self._ring_nodes(slot), service.name, slots_per_server)
            for slot in chosen
        ]

    def _configure_slots(
        self,
        service: ServiceDefinition,
        claims: list[RegionClaim],
        adapter: RequestAdapter | None,
        slots_per_server: int,
    ) -> list[Deployment]:
        """Configure the chosen claims, in waves of one slot per pod.

        Rings in *different* pods reconfigure concurrently — a ~1 s
        full-ring reload per wave instead of per ring, which is what
        bounds gang re-placement time after a replica failure.  Rings
        in the *same* pod stay serial: same-pod deploys share the
        spare-image configure work and the FPGA rejects overlapping
        reconfigurations.  A claim enters the ledger once its nodes
        have configured.  Any configure failure rolls back every
        already-placed claim before re-raising ``PlacementFailed`` —
        without the rollback, a partial placement stranded the earlier
        rings in the ledger and leaked their capacity (the caller only
        ever sees the exception).
        """
        by_pod: dict[int, list[RegionClaim]] = {}
        for claim in claims:
            by_pod.setdefault(claim.slot.pod_id, []).append(claim)
        placed: dict[RingSlot, Deployment] = {}
        failure: PlacementFailed | None = None
        while failure is None and any(by_pod.values()):
            wave = [queue.pop(0) for queue in by_pod.values() if queue]
            started: list[tuple[RegionClaim, Deployment, object]] = []
            for claim in wave:
                slot = claim.slot
                deployment = Deployment(
                    self.engine,
                    self.datacenter.pod(slot.pod_id),
                    service,
                    ring_x=slot.ring_x,
                    adapter=adapter,
                    mapping_manager=self.mapping_manager(slot.pod_id),
                    slots_per_server=slots_per_server,
                    claim=claim,
                )
                try:
                    event = deployment.begin_deploy()
                except InsufficientRingCapacity as exc:
                    failure = PlacementFailed(slot, exc, claim.nodes)
                    break
                started.append((claim, deployment, event))
            # Settle every configure this wave launched (they progress
            # concurrently) even after a failure, so rollback acts on
            # stable state rather than racing in-flight reconfigures.
            for claim, deployment, event in started:
                try:
                    deployment.finish_deploy(event)
                except (InsufficientRingCapacity, ReconfigError) as exc:
                    if failure is None:
                        failure = PlacementFailed(claim.slot, exc, claim.nodes)
                    continue
                self._ledger_for(claim.slot).hold(claim, deployment)
                placed[claim.slot] = deployment
        if failure is not None:
            for deployment in placed.values():
                self.release(deployment)
            self._prune(failure.slot)
            raise failure
        # Log decisions in chain order, and only for placements that
        # stuck — a rolled-back ring was never really placed.
        self.decisions.extend(
            PlacementDecision(
                service=service.name,
                slot=claim.slot,
                spares=placed[claim.slot].spare_count,
            )
            for claim in claims
        )
        return [placed[claim.slot] for claim in claims]

    # -- region tenancy (shared rings) -----------------------------------------

    def deploy_region(
        self,
        service: ServiceDefinition,
        fraction: float,
        priority: str = "batch",
        adapter: RequestAdapter | None = None,
        slots_per_server: int = 48,
    ) -> Deployment:
        """Place ``service`` as a region tenant on a shared ring.

        First-fit: the first held ring (in slot order) with a
        large-enough free node run takes the claim; otherwise the first
        free ring opens as a new shared ring.  One claim per service
        per ring, so a service's replicas land on different rings.
        Raises :class:`InsufficientClusterCapacity` when no ring can
        host the region, ``ValueError`` when a role image cannot fit
        one node (both before the ledger changes), and
        :class:`PlacementFailed` (carrying the region's nodes) when the
        chosen run fails to configure.
        """
        chosen: RingSlot | None = None
        for tenancy in self.tenancies():
            count = region_node_count(service, fraction, len(tenancy.ring_nodes))
            if tenancy.can_host(service.name, count):
                chosen, node_count = tenancy.slot, count
                break
        if chosen is None:
            free = self.free_slots()
            if not free:
                raise InsufficientClusterCapacity(
                    f"no ring with a free {fraction:.2f} region for "
                    f"{service.name!r}"
                )
            chosen = free[0]
            ring_size = len(self._ring_nodes(chosen))
            node_count = region_node_count(service, fraction, ring_size)
            if node_count > ring_size:
                raise InsufficientClusterCapacity(
                    f"service {service.name!r} needs {node_count} nodes, "
                    f"rings have {ring_size}"
                )
        check_region_fit(service, self.datacenter.ring_servers(chosen)[0].fpga.device)
        claim = self._ledger_for(chosen).grant(
            service.name, fraction, priority, node_count, slots_per_server
        )
        (deployment,) = self._configure_slots(
            service, [claim], adapter, slots_per_server
        )
        return deployment

    def preemption_victim(
        self, service: ServiceDefinition, fraction: float
    ) -> Deployment | None:
        """A batch tenant whose eviction would make room for ``service``.

        Scans held rings in slot order; on each, batch-priority claims
        in claim order (dedicated claims are latency priority, so never
        victims).  Returns the first occupant whose region plus the
        ring's current free run covers the needed node count — or
        ``None`` when no eviction helps (the caller records a shortfall
        instead of evicting pointlessly).
        """
        for tenancy in self.tenancies():
            if service.name in tenancy.claims:
                continue
            needed = region_node_count(service, fraction, len(tenancy.ring_nodes))
            for name in sorted(tenancy.claims):
                claim = tenancy.claims[name]
                if claim.priority != "batch":
                    continue
                if len(tenancy.free_nodes()) + len(claim.nodes) >= needed:
                    return tenancy.occupants[name]
        return None

    def release(self, deployment: Deployment) -> RingSlot:
        """Return a deployment's claim to the free pool (scale-down).

        Deregisters the claim's assignment from the pod's mapping
        manager so later failure reports no longer act on it, detaches
        the service's roles from the surviving nodes (each reverts to
        the service's passthrough spare, keeping the torus routable),
        returns any shared slot quota, and marks the deployment
        released so stale handles can no longer dispatch.  The freed
        nodes are immediately redeployable — the next deploy
        reconfigures them with the new service's images, with any
        permanently failed hardware pre-mapped-out.  A region tenant's
        release frees only its claim: the ring stays held while other
        tenants or cordons remain.
        """
        slot = self.slot_of(deployment)
        self._ledger[slot].release(deployment.claim)
        self._prune(slot)
        manager = deployment.mapping_manager
        if deployment.assignment in manager.assignments:
            manager.assignments.remove(deployment.assignment)
        assignment = deployment.assignment
        if assignment is not None:
            spare = deployment.service.spare
            for node in assignment.ring_nodes:
                if node in assignment.excluded:
                    continue
                server = deployment.pod.server_at(node)
                if server.fpga.state is FpgaState.CONFIGURED:
                    server.shell.attach_role(spare.factory(assignment, spare.name))
        deployment.release_slots()
        deployment.released = True
        return slot

    def __repr__(self) -> str:
        report = self.capacity_report()
        return (
            f"<ClusterScheduler {self.policy} "
            f"{report.occupied_rings}/{report.total_rings} rings>"
        )
