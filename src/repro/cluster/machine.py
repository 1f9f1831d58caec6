"""One machine of the fleet: a server plus its lifecycle state."""

from __future__ import annotations

import dataclasses
import enum

from repro.hw.machine import Machine
from repro.serving.server import InferenceServer

__all__ = ["ClusterMachine", "MachineState"]


class MachineState(enum.Enum):
    """Where a machine sits in the fleet lifecycle.

    Only ``ACTIVE`` machines receive traffic.  ``STANDBY`` machines are
    provisioned but idle (the autoscaler's reserve pool); ``DRAINING``
    machines finish in-flight work before returning to standby; ``DOWN``
    machines have crashed and lost all GPU state.
    """

    ACTIVE = "active"
    STANDBY = "standby"
    DRAINING = "draining"
    DOWN = "down"


@dataclasses.dataclass
class ClusterMachine:
    """A named machine in the cluster with routing bookkeeping."""

    name: str
    machine: Machine
    server: InferenceServer
    state: MachineState = MachineState.ACTIVE
    #: Estimated seconds of queued + in-flight service, maintained by the
    #: router (charged on dispatch, settled on completion or failure).
    pending_cost: float = 0.0
    crashes: int = 0
    #: Machines that began life as standbys; only these are eligible for
    #: autoscaler scale-down (the base fleet never drains).
    standby_origin: bool = False
    #: Device-granular fault counters (machine-level crashes excluded).
    gpu_failures: int = 0
    #: Cold starts on this machine that completed on the degraded
    #: fallback plan (each also trips the router's circuit breaker).
    degraded_provisions: int = 0

    @property
    def routable(self) -> bool:
        return self.state is MachineState.ACTIVE

    @property
    def outstanding(self) -> int:
        return self.server.outstanding

    def has_replica(self, instance_name: str) -> bool:
        return self.server.has_instance(instance_name)

    def charge(self, cost: float) -> None:
        self.pending_cost += cost

    def settle(self, cost: float) -> None:
        self.pending_cost = max(0.0, self.pending_cost - cost)
