"""Cluster-level failure injection — resilience experiments at
datacenter scope.

The per-pod :class:`~repro.services.failures.FailureInjector` targets a
node of one pod; cluster experiments think in terms of the datacenter
(pods × rings) and in terms of deployed services ("kill this replica").
:class:`ClusterFailureInjector` is that facade: it resolves a node to
its owning pod and delegates, and adds service-level helpers that pick
victims from a live :class:`~repro.cluster.deployment.Deployment`.
"""

from __future__ import annotations

from repro.cluster.composite import CompositeDeployment
from repro.cluster.deployment import Deployment
from repro.fabric.datacenter import Datacenter
from repro.fabric.torus import NodeId
from repro.services.failures import FailureInjector, FailureKind


class ClusterFailureInjector:
    """Applies failures anywhere in the datacenter."""

    def __init__(self, datacenter: Datacenter):
        self.datacenter = datacenter
        self._injectors: dict[int, FailureInjector] = {}
        self.injected: list[tuple[int, FailureKind, NodeId]] = []

    def _injector_for(self, pod_id: int) -> FailureInjector:
        if pod_id not in self._injectors:
            self._injectors[pod_id] = FailureInjector(self.datacenter.pod(pod_id))
        return self._injectors[pod_id]

    def inject(
        self, kind: FailureKind, pod_id: int, node: NodeId, port=None
    ) -> None:
        """Inject ``kind`` at ``node`` of pod ``pod_id``."""
        self._injector_for(pod_id).inject(kind, node, port=port)
        self.injected.append((pod_id, kind, node))
        fluid = self.datacenter.engine.fluid
        if fluid is not None:
            # A failure is the canonical transient: hold the simulation
            # discrete through the dip so the rotation/reconcile/shed
            # dynamics are computed exactly, never analytically.
            fluid.note_transient(f"failure:{kind.name}")

    # -- service-level helpers -------------------------------------------------

    def inject_role(
        self,
        deployment: Deployment,
        kind: FailureKind,
        role_name: str | None = None,
        port=None,
    ) -> NodeId:
        """Inject at the node hosting ``role_name`` (default: the head
        role) of ``deployment``; returns the victim node."""
        assignment = deployment.assignment
        if assignment is None:
            raise ValueError(f"{deployment.name} is not deployed")
        if role_name is None:
            role_name = deployment.service.roles[0].name
        victim = assignment.node_of(role_name)
        self.inject(kind, deployment.pod.pod_id, victim, port=port)
        return victim

    def inject_spare(
        self, deployment: Deployment, kind: FailureKind, port=None
    ) -> NodeId:
        """Inject at one of the ring's spare nodes (degrades the ring's
        health weight without interrupting the active pipeline)."""
        assignment = deployment.assignment
        if assignment is None or not assignment.spare_nodes:
            raise ValueError(f"{deployment.name} has no spare to fail")
        victim = assignment.spare_nodes[0]
        self.inject(kind, deployment.pod.pod_id, victim, port=port)
        return victim

    def kill_ring(
        self,
        deployment: Deployment | CompositeDeployment,
        kind: FailureKind = FailureKind.FPGA_HARDWARE_FAULT,
    ) -> list[NodeId]:
        """Fail enough of the ring's healthy nodes that no rotation can
        save it — one more failure than the ring has spares.  Returns
        the victim nodes; the next health sweep marks the assignment
        unservable and reconciliation re-places the replica.  A
        composite loses its first member ring: one dead member makes
        the whole chain unservable."""
        if isinstance(deployment, CompositeDeployment):
            deployment = deployment.members[0]
        assignment = deployment.assignment
        if assignment is None:
            raise ValueError(f"{deployment.name} is not deployed")
        healthy = [
            node
            for node in assignment.ring_nodes
            if node not in assignment.excluded
        ]
        needed = len(healthy) - len(deployment.service.roles) + 1
        victims = healthy[:needed]
        for victim in victims:
            self.inject(kind, deployment.pod.pod_id, victim)
        return victims
