"""Distributed SW execution: coordinator, workers, partitioning, network.

Includes the cluster-scale fault-tolerance layer: deterministic fault
injection (:mod:`repro.distributed.faults` — crashes, storms, failure
domains, healing link partitions, message faults), an
at-least-once-with-dedup message protocol with speculative hedging, a
quorum-style liveness view driving batched, policy-aware anchor
reassignment, and the one outcome rule on :class:`DistributedReport`
(complete / degraded-with-manifest / aborted-with-reason / interrupted;
:mod:`repro.faults`).
"""

from .coordinator import (
    DistributedConfig,
    DistributedReport,
    LivenessView,
    run_distributed,
)
from .faults import (
    COORDINATOR,
    CrashStorm,
    FailureDomain,
    FaultInjector,
    FaultPlan,
    LinkPartition,
    WorkerCrash,
)
from .messages import CellRequest, CellResponse, Network
from .partitioning import (
    OverlapMode,
    OwnershipRouter,
    PartitionPlan,
    SuccessorPolicy,
    plan_partitions,
)
from .worker import Worker

__all__ = [
    "DistributedConfig",
    "DistributedReport",
    "LivenessView",
    "run_distributed",
    "COORDINATOR",
    "CrashStorm",
    "FailureDomain",
    "FaultInjector",
    "FaultPlan",
    "LinkPartition",
    "WorkerCrash",
    "CellRequest",
    "CellResponse",
    "Network",
    "OverlapMode",
    "OwnershipRouter",
    "PartitionPlan",
    "SuccessorPolicy",
    "plan_partitions",
    "Worker",
]
