"""A state machine over the scheduler's placement ledger.

Random sequences of placements (whole rings, gangs, region tenants),
releases, cordons and repairs drive one :class:`ClusterScheduler`;
after every step the ledger must still satisfy the slot-ownership and
capacity-conservation invariants, whatever order the operations came
in.  The profile is derandomized and bounded so tier-1 stays fast and
reproducible.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cluster import (
    ClusterScheduler,
    InsufficientClusterCapacity,
    echo_service,
)
from repro.fabric import Datacenter, TorusTopology
from repro.sim import Engine

PODS = 2
RINGS_PER_POD = 3
RING_NODES = 4
TENANTS = ("t0", "t1", "t2")  # few names: one claim per service per ring bites

slot_index = st.integers(0, PODS * RINGS_PER_POD - 1)


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        engine = Engine(seed=5)
        self.datacenter = Datacenter(
            engine,
            num_pods=PODS,
            topology=TorusTopology(width=RINGS_PER_POD, height=RING_NODES),
        )
        self.scheduler = ClusterScheduler(self.datacenter)
        self.slots = self.datacenter.ring_slots()
        self.live: list = []  # deployments placed and not yet released
        self.placed = 0

    def _name(self) -> str:
        self.placed += 1
        return f"svc{self.placed}"

    # -- placement -------------------------------------------------------------

    @rule(policy=st.sampled_from(["spread", "pack"]))
    def deploy(self, policy):
        if not self.scheduler.free_slots():
            try:
                self.scheduler.deploy(echo_service(self._name()), policy=policy)
            except InsufficientClusterCapacity:
                return
            raise AssertionError("deploy succeeded with no free ring")
        self.live += self.scheduler.deploy(echo_service(self._name()), policy=policy)

    @rule(rings=st.integers(2, 3), policy=st.sampled_from(["spread", "pack"]))
    def deploy_gang(self, rings, policy):
        service = echo_service(self._name())
        if len(self.scheduler.free_slots()) < rings:
            try:
                self.scheduler.deploy_gang(service, rings, policy=policy)
            except InsufficientClusterCapacity:
                return
            raise AssertionError("gang placed without enough free rings")
        members = self.scheduler.deploy_gang(service, rings, policy=policy)
        assert len({self.scheduler.slot_of(m) for m in members}) == rings
        self.live += members

    @rule(
        name=st.sampled_from(TENANTS),
        fraction=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        priority=st.sampled_from(["latency", "batch"]),
    )
    def deploy_region(self, name, fraction, priority):
        try:
            tenant = self.scheduler.deploy_region(
                echo_service(name), fraction, priority=priority
            )
        except InsufficientClusterCapacity:
            return
        assert tenant.claim.shared
        self.live.append(tenant)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def release(self, data):
        victim = data.draw(st.sampled_from(self.live))
        slot = self.scheduler.slot_of(victim)
        assert self.scheduler.release(victim) == slot
        self.live.remove(victim)
        assert victim.released

    # -- cordons ---------------------------------------------------------------

    @rule(index=slot_index)
    def cordon(self, index):
        slot = self.slots[index]
        if self.scheduler.is_occupied(slot):
            try:
                self.scheduler.cordon(slot, reason="bad card")
            except ValueError:
                return
            raise AssertionError("cordoned an occupied ring")
        self.scheduler.cordon(slot, reason="bad card")
        assert slot in self.scheduler.cordoned_slots

    @rule(index=slot_index, start=st.integers(0, RING_NODES - 1), length=st.integers(1, 2))
    def cordon_region(self, index, start, length):
        slot = self.slots[index]
        ring = [server.node_id for server in self.datacenter.ring_servers(slot)]
        nodes = ring[start : start + length]
        tenancy = self.scheduler.tenancy_of(slot)
        if tenancy is not None and set(nodes) & tenancy.claimed_nodes:
            try:
                self.scheduler.cordon_region(slot, nodes, reason="bad run")
            except ValueError:
                return
            raise AssertionError("cordoned nodes of a live claim")
        self.scheduler.cordon_region(slot, nodes, reason="bad run")
        assert set(nodes) <= self.scheduler.tenancy_of(slot).cordoned_nodes

    @rule(index=slot_index)
    def uncordon(self, index):
        slot = self.slots[index]
        if slot not in self.scheduler.cordoned_slots:
            try:
                self.scheduler.uncordon(slot)
            except KeyError:
                return
            raise AssertionError("uncordoned a ring not cordoned whole")
        self.scheduler.uncordon(slot)
        assert slot not in self.scheduler.cordoned_slots

    @rule(index=slot_index)
    def slot_serviced(self, index):
        slot = self.slots[index]
        self.scheduler.slot_serviced(slot)
        tenancy = self.scheduler.tenancy_of(slot)
        assert tenancy is None or not tenancy.cordoned

    # -- invariants ------------------------------------------------------------

    @invariant()
    def claims_and_cordons_are_disjoint(self):
        for tenancy in self.scheduler.tenancies():
            claimed = [n for claim in tenancy.claims.values() for n in claim.nodes]
            assert len(claimed) == len(set(claimed))  # claims never overlap
            assert not set(claimed) & tenancy.cordoned_nodes
            assert set(claimed) | tenancy.cordoned_nodes <= set(tenancy.ring_nodes)

    @invariant()
    def capacity_is_conserved(self):
        report = self.scheduler.capacity_report()
        assert report.free_rings >= 0
        assert (
            report.free_rings + report.occupied_rings + report.cordoned_rings
            == report.total_rings
            == len(self.slots)
        )
        assert len(self.scheduler.free_slots()) == report.free_rings
        for pod in report.per_pod.values():
            assert (
                pod.free_rings + pod.occupied_rings + pod.cordoned_rings
                == pod.total_rings
            )
        for field in (
            "total_rings",
            "occupied_rings",
            "cordoned_rings",
            "tenant_regions",
            "cordoned_regions",
        ):
            assert sum(getattr(pod, field) for pod in report.per_pod.values()) == (
                getattr(report, field)
            )
        assert sum(pod.free_rings for pod in report.per_pod.values()) == (
            report.free_rings
        )

    @invariant()
    def every_deployment_round_trips(self):
        placed = self.scheduler.deployments()
        assert sorted(map(id, placed)) == sorted(map(id, self.live))
        for deployment in placed:
            slot = self.scheduler.slot_of(deployment)
            assert deployment.claim.slot == slot
            tenancy = self.scheduler.tenancy_of(slot)
            assert tenancy.occupants[deployment.claim.service] is deployment
            assert not deployment.released

    @invariant()
    def free_slots_hold_nothing(self):
        cordoned = set(self.scheduler.cordoned_slots)
        for slot in self.scheduler.free_slots():
            assert self.scheduler.tenancy_of(slot) is None
            assert not self.scheduler.is_occupied(slot)
            assert slot not in cordoned


TestPlacementLedger = LedgerMachine.TestCase
TestPlacementLedger.settings = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
