"""End-to-end cluster simulation: workload → scheduler → telemetry → records.

:class:`ClusterSimulator` is the substrate's facade.  Given a cluster
spec and a workload of :class:`JobRequest` objects, it

1. schedules every job (queue delays, placements, gang allocation);
2. synthesises per-job telemetry from the job's behaviour profile;
3. merges both into :class:`JobRecord` rows — the equivalent of joining
   scheduler logs with node-level monitoring, the step the paper performs
   on real traces (Sec. III-E, "merge all the features into a single file").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..dataframe import ColumnTable
from .failures import FailureModel, apply_time_limit, inject_node_failures
from .job import JobRecord, JobRequest
from .nodes import ClusterSpec, build_nodes
from .scheduler import FCFSScheduler, SchedulerStats
from .telemetry import GPUTelemetryModel, TelemetryConfig

__all__ = ["SimulationResult", "ClusterSimulator", "job_records"]


def job_records(
    runs: Iterable[tuple[JobRequest, float, float, str | None, str | None]],
    telemetry: TelemetryConfig,
    seed: int,
) -> Iterator[JobRecord]:
    """Merge ``(request, start, end, node, gpu type)`` runs into records,
    lazily, so a caller that flattens them never holds them all.

    Telemetry covers the time each job actually ran, ``end − start``
    (node-failure truncations shorten the sampled window), drawn from one
    model seeded with *seed* in run order.
    """
    model = GPUTelemetryModel(telemetry, seed=seed)
    for req, start, end, node, gpu in runs:
        yield JobRecord(
            request=req,
            start_time=start,
            end_time=end,
            node=node,
            assigned_gpu_type=gpu,
            telemetry=model.summarize(req.profile, max(end - start, 0.0)).as_dict(),
        )


@dataclass(slots=True)
class SimulationResult:
    """Records plus scheduling aggregates for one simulated trace."""

    records: list[JobRecord]
    scheduler_stats: SchedulerStats

    def to_table(self) -> ColumnTable:
        """Flatten all job records into a single merged trace table."""
        return ColumnTable.from_records([r.as_row() for r in self.records])

    def replay(self) -> Iterator[JobRecord]:
        """Job records in completion order — the event stream an online
        consumer (e.g. the rule-serving load generator) would see.

        Batch analysis reads the table unordered; a serving pipeline sees
        jobs *as they finish*, so replay sorts by end time (ties broken by
        start time and job id for determinism).
        """
        return iter(
            sorted(
                self.records,
                key=lambda r: (r.end_time, r.start_time, r.request.job_id),
            )
        )


class ClusterSimulator:
    """Drives one full simulation run."""

    def __init__(
        self,
        cluster: ClusterSpec,
        telemetry: TelemetryConfig = TelemetryConfig(),
        seed: int = 0,
        strict_fcfs: bool = False,
        policy: str = "fcfs",
        failures: FailureModel = FailureModel(),
    ):
        self.cluster = cluster
        self.telemetry_config = telemetry
        self.seed = seed
        self.strict_fcfs = strict_fcfs
        self.policy = policy
        self.failures = failures

    def run(self, workload: list[JobRequest]) -> SimulationResult:
        """Simulate *workload* on the cluster and emit merged records."""
        if self.failures.time_limit_s is not None:
            apply_time_limit(workload, self.failures.time_limit_s)

        nodes = build_nodes(self.cluster)
        scheduler = FCFSScheduler(
            nodes, strict_fcfs=self.strict_fcfs, policy=self.policy
        )
        placements, stats = scheduler.run(workload)

        if self.failures.node_mtbf_s is not None:
            inject_node_failures(placements, self.failures)

        records = list(
            job_records(
                (
                    (p.request, p.start_time, p.end_time, p.node_name, p.gpu_type)
                    for p in placements
                ),
                self.telemetry_config,
                self.seed,
            )
        )
        return SimulationResult(records=records, scheduler_stats=stats)
