"""Edge-case coverage for paths the main suites exercise only indirectly."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    FCFSScheduler,
    JobRequest,
    NodeSpec,
    build_nodes,
)
from repro.core import MiningConfig, TransactionDatabase
from repro.core.fpgrowth import fpgrowth
from repro.dataframe import ColumnTable
from repro.preprocess import FeatureSpec, TransactionEncoder
from repro.traces import (
    PAIConfig,
    generate_pai,
    load_trace,
    save_trace,
    generate_supercloud,
    SuperCloudConfig,
)
from repro.analysis import misc_study


class TestFPTreeInternals:
    """FP-Growth on a database whose conditional FP-trees are single paths."""

    def test_single_path_shortcut_matches_general_case(self):
        # chains of nested transactions: every conditional pattern base
        # is one path, and the counts follow from the chain by hand
        db = TransactionDatabase.from_itemsets(
            [["a", "b", "c", "d"]] * 5 + [["a", "b", "c"]] * 3 + [["a"]] * 2
        )
        result = fpgrowth(db, 0.2)
        assert result[frozenset({0, 1, 2, 3})] == 5
        assert result[frozenset({0, 1, 2})] == 8
        assert result[frozenset({0})] == 10


class TestSchedulerResourceDimensions:
    def _node(self, n_cpus=8, mem=32.0):
        return build_nodes(
            ClusterSpec.of((NodeSpec("n", "V100", 4, n_cpus, mem), 1))
        )

    def test_cpu_bound_placement(self):
        jobs = [
            JobRequest(job_id=0, user="u", submit_time=0.0, runtime=10.0,
                       n_gpus=1, n_cpus=8, mem_gb=1.0, gpu_type="V100"),
            JobRequest(job_id=1, user="u", submit_time=0.0, runtime=10.0,
                       n_gpus=1, n_cpus=1, mem_gb=1.0, gpu_type="V100"),
        ]
        placements, _ = FCFSScheduler(self._node(n_cpus=8)).run(jobs)
        # GPUs are free but CPUs are not: second job waits
        assert placements[1].start_time == 10.0

    def test_memory_bound_placement(self):
        jobs = [
            JobRequest(job_id=0, user="u", submit_time=0.0, runtime=10.0,
                       n_gpus=1, n_cpus=1, mem_gb=32.0, gpu_type="V100"),
            JobRequest(job_id=1, user="u", submit_time=0.0, runtime=10.0,
                       n_gpus=1, n_cpus=1, mem_gb=1.0, gpu_type="V100"),
        ]
        placements, _ = FCFSScheduler(self._node(mem=32.0)).run(jobs)
        assert placements[1].start_time == 10.0


class TestLoaderAllTraces:
    @pytest.mark.parametrize("trace", ["pai", "supercloud"])
    def test_roundtrip(self, tmp_path, trace):
        from repro.traces import get_trace

        definition = get_trace(trace)
        table = definition.generate_scaled(n_jobs=300, use_scheduler=False)
        path = tmp_path / f"{trace}.csv"
        save_trace(table, path)
        loaded = load_trace(path, trace=trace)
        assert len(loaded) == 300
        # the trace's own preprocessor accepts the loaded table
        result = definition.make_preprocessor().run(loaded)
        assert len(result.database) == 300


class TestEncoderLabelKindEdges:
    def test_label_with_missing_values(self):
        table = ColumnTable.from_dict({"tier": ["Freq User", None, "Rare User"]})
        db = TransactionEncoder(
            [FeatureSpec("tier", kind="label")]
        ).fit_transform(table)
        assert len(db.transaction(1)) == 0  # NA contributes no item

    def test_label_kind_requires_categorical(self):
        table = ColumnTable.from_dict({"x": [1.0, 2.0]})
        with pytest.raises(TypeError):
            TransactionEncoder([FeatureSpec("x", kind="label")]).fit_transform(table)


class TestPaiMiscStudySmoke:
    def test_pai_misc_tables_exist(self):
        table = generate_pai(PAIConfig(n_jobs=5000))
        tables = misc_study("pai", table=table, config=MiningConfig())
        assert {"t4_queue", "non_t4_queue", "recsys", "nlp"} <= set(tables)
        # the RecSys analysis found rules on the labelled subset
        assert tables["recsys"].rows


class TestTinyScaleGeneration:
    @pytest.mark.parametrize("n_jobs", [1, 5])
    def test_generators_survive_tiny_scales(self, n_jobs):
        table = generate_supercloud(
            SuperCloudConfig(n_jobs=n_jobs, use_scheduler=False)
        )
        assert len(table) == n_jobs
        # preprocessing also survives degenerate quantiles
        from repro.traces import supercloud_preprocessor

        result = supercloud_preprocessor().run(table)
        assert len(result.database) == n_jobs
