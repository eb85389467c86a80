"""GPU-cluster simulator substrate.

Stands in for the production systems whose logs the paper analyses:
heterogeneous nodes, an FCFS(+backfill) scheduler producing queue delays,
and a telemetry model producing the nvidia-smi/Ganglia-style metrics.
"""

from .failures import FailureModel, apply_time_limit, inject_node_failures
from .job import BehaviorProfile, JobRecord, JobRequest, JobStatus
from .nodes import ClusterSpec, Node, NodeSpec, build_nodes
from .scheduler import FCFSScheduler, Placement, SchedulerStats
from .simulator import ClusterSimulator, SimulationResult
from .telemetry import GPUTelemetryModel, TelemetryConfig, TelemetrySummary
from .users import UserPopulation, UserProfile

__all__ = [
    "JobStatus",
    "BehaviorProfile",
    "JobRequest",
    "JobRecord",
    "NodeSpec",
    "Node",
    "ClusterSpec",
    "build_nodes",
    "FCFSScheduler",
    "FailureModel",
    "apply_time_limit",
    "inject_node_failures",
    "Placement",
    "SchedulerStats",
    "ClusterSimulator",
    "SimulationResult",
    "GPUTelemetryModel",
    "TelemetryConfig",
    "TelemetrySummary",
    "UserPopulation",
    "UserProfile",
]
