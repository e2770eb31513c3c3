"""Sweep harness: point ordering, seeding, aggregation, persistence."""

from __future__ import annotations

import concurrent.futures
import logging
import math
import statistics

import pytest

from cpnsim import experiment, raytrace
from cpnsim.cli import CSV_HEADER, emit_csv, emit_plotdata, read_csv
from cpnsim.experiment import (
    DEFAULT_NODE_COUNTS,
    AbortedReplication,
    ExperimentPlan,
    FailedReplication,
    SweepPoint,
    _run_replication,
    run_experiment_detailed,
)
from cpnsim.raytrace import IDEAL, REAL, SceneConfig

TINY = SceneConfig(4_000, 3_000, 1_000, 750, 1_000)
TINY2 = SceneConfig(3_000, 3_000, 1_000, 750, 500)


def tiny_plan(**kw):
    defaults = dict(scenes=(TINY,), node_counts=(2,), scenarios=(IDEAL,),
                    replications=2, base_seed=1)
    defaults.update(kw)
    return ExperimentPlan(**defaults)


class TestPlan:
    def test_default_node_counts_are_one_through_twentyfive(self):
        assert DEFAULT_NODE_COUNTS == tuple(range(1, 26))

    def test_points_iterate_scene_scenario_nodes(self):
        plan = ExperimentPlan(
            scenes=(TINY, TINY2), node_counts=(1, 2), scenarios=(IDEAL, REAL),
            replications=1)
        pts = list(plan.points())
        assert [i for i, *_ in pts] == list(range(8))
        assert [(s.label, sc, n) for _, s, sc, n in pts] == [
            ("4000x3000", "ideal", 1), ("4000x3000", "ideal", 2),
            ("4000x3000", "real", 1), ("4000x3000", "real", 2),
            ("3000x3000", "ideal", 1), ("3000x3000", "ideal", 2),
            ("3000x3000", "real", 1), ("3000x3000", "real", 2),
        ]

    def test_params_carry_overrides_and_scenario(self):
        plan = tiny_plan(param_overrides=(("master_perf", 0.5),))
        p = plan.params_for(REAL, 7)
        assert p.node_count == 7
        assert p.scenario == REAL
        assert p.master_perf == 0.5

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            tiny_plan(scenes=())
        with pytest.raises(ValueError):
            tiny_plan(node_counts=(0, 2))
        with pytest.raises(ValueError):
            tiny_plan(scenarios=("other",))
        with pytest.raises(ValueError):
            tiny_plan(replications=0)
        with pytest.raises(ValueError):
            tiny_plan(jobs=0)
        with pytest.raises(ValueError):
            tiny_plan(base_seed=-1)
        with pytest.raises(ValueError):
            tiny_plan(param_overrides=(("master_perf", 0.0),))
        with pytest.raises(ValueError):
            tiny_plan(step_limit=0)
        with pytest.raises(ValueError):
            tiny_plan(node_counts=(2, 3, 2))
        with pytest.raises(ValueError):
            tiny_plan(scenes=(TINY, TINY2, TINY))
        with pytest.raises(ValueError):
            tiny_plan(scenes=(TINY, SceneConfig(4_000, 3_000, 500, 500, 7)))
        with pytest.raises(ValueError):
            tiny_plan(scenarios=(REAL, IDEAL, REAL))
        with pytest.raises(ValueError, match="node_counts"):
            tiny_plan(node_counts=(1, 2.5))
        with pytest.raises(ValueError, match="node_counts"):
            tiny_plan(node_counts=(2, True))
        with pytest.raises(ValueError, match="scenarios"):
            tiny_plan(scenarios=())


    @pytest.mark.parametrize("field, value", [
        ("replications", 2.5), ("base_seed", 1.0), ("scenes_per_run", 1.5),
        ("step_limit", 1e6), ("jobs", True), ("replications", "2"),
    ])
    def test_int_fields_reject_other_types(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            tiny_plan(**{field: value})

    @pytest.mark.parametrize("name", ["bogus", "node_count", "scenario"])
    def test_overrides_must_name_a_tunable_parameter(self, name):
        with pytest.raises(ValueError, match=f"parameter {name!r}"):
            tiny_plan(param_overrides=((name, 3),))

    def test_an_override_names_its_parameter_once(self):
        with pytest.raises(ValueError, match="parameter 'master_perf'"):
            tiny_plan(param_overrides=(("master_perf", 0.5),
                                       ("master_perf", 0.9)))


class TestAggregation:
    def test_single_replication_point(self):
        plan = tiny_plan(replications=1)
        [point] = run_experiment_detailed(plan).points
        assert point.scene == "4000x3000"
        assert point.scenario == IDEAL
        assert point.nodes == 2
        assert point.replications == 1
        assert point.mean_ms > 0
        assert point.std_ms == 0.0
        assert point.mean_failures == 0.0

    def test_aggregates_match_an_independent_reduction(self):
        plan = tiny_plan(scenarios=(REAL,), replications=5)
        result = run_experiment_detailed(plan)
        [point] = result.points
        records = result.records[("4000x3000", "real")]
        assert len(records) == 5
        durations = [r.duration_ms for r in records]
        assert point.mean_ms == pytest.approx(
            statistics.fmean(durations), rel=1e-12)
        assert point.std_ms == pytest.approx(
            statistics.stdev(durations), rel=1e-12)
        assert point.mean_failures == pytest.approx(
            statistics.fmean(r.failures for r in records), rel=1e-12)

    def test_replication_seeds_follow_the_point_index(self):
        plan = ExperimentPlan(
            scenes=(TINY,), node_counts=(1, 2), scenarios=(IDEAL,),
            replications=2, base_seed=9)
        result = run_experiment_detailed(plan)
        seeds = [r.seed for r in result.records[("4000x3000", "ideal")]]
        assert seeds == ["9:0:0", "9:0:1", "9:1:0", "9:1:1"]

    def test_same_plan_is_bit_reproducible(self):
        plan = tiny_plan(scenarios=(REAL,), replications=3)
        a = run_experiment_detailed(plan).points
        b = run_experiment_detailed(plan).points
        assert a == b

    def test_worker_pool_matches_sequential(self):
        plan_seq = ExperimentPlan(
            scenes=(TINY,), node_counts=(1, 3), scenarios=(IDEAL, REAL),
            replications=2, base_seed=4, jobs=1)
        plan_par = ExperimentPlan(
            scenes=(TINY,), node_counts=(1, 3), scenarios=(IDEAL, REAL),
            replications=2, base_seed=4, jobs=2)
        seq = run_experiment_detailed(plan_seq)
        par = run_experiment_detailed(plan_par)
        assert seq.points == par.points
        assert seq.records == par.records

    def test_worker_pool_is_no_larger_than_the_sweep(self, monkeypatch):
        started = []

        class InProcessPool:
            """Records ``max_workers`` and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        # The pool is imported when a sweep with jobs > 1 starts.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        seq = run_experiment_detailed(tiny_plan(jobs=1))
        par = run_experiment_detailed(tiny_plan(jobs=64))
        assert started == [2]
        assert par.records == seq.records

    def test_multi_scene_runs_produce_one_record_each(self):
        plan = tiny_plan(replications=2, scenes_per_run=3)
        result = run_experiment_detailed(plan)
        records = result.records[("4000x3000", "ideal")]
        assert len(records) == 6
        assert [r.scene_index for r in records] == [0, 1, 2, 0, 1, 2]
        [point] = result.points
        assert point.replications == 2  # replications, not scenes


class TestAborts:
    def test_step_limited_replications_are_excluded(self, caplog):
        plan = tiny_plan(replications=2, step_limit=10)
        with caplog.at_level(logging.WARNING, logger="cpnsim.experiment"):
            result = run_experiment_detailed(plan)
        assert result.aborted == [
            AbortedReplication("4000x3000", "ideal", 2, "1:0:0"),
            AbortedReplication("4000x3000", "ideal", 2, "1:0:1")]
        [point] = result.points
        assert point.replications == 0
        assert point.mean_ms == 0.0
        assert [r.message for r in caplog.records if "aborted" in r.message] == [
            "replication aborted at step limit: scene=4000x3000 "
            f"scenario=ideal nodes=2 seed=1:0:{rep}" for rep in (0, 1)]

    def test_a_failing_replication_is_reported_and_skipped(self, monkeypatch,
                                                           caplog):
        real_run = experiment._run_replication

        def run_or_fail(scene, params, seed_path, step_limit, scenes_per_run):
            if seed_path == (1, 0, 1):
                raise RuntimeError("model bug")
            return real_run(scene, params, seed_path, step_limit, scenes_per_run)

        monkeypatch.setattr(experiment, "_run_replication", run_or_fail)
        with caplog.at_level(logging.ERROR, logger="cpnsim.experiment"):
            result = run_experiment_detailed(tiny_plan(replications=3))
        assert result.failed == [FailedReplication(
            "4000x3000", "ideal", 2, "1:0:1", "RuntimeError: model bug")]
        assert result.aborted == []
        [point] = result.points
        assert point.replications == 2
        records = result.records[("4000x3000", "ideal")]
        assert [r.seed for r in records] == ["1:0:0", "1:0:2"]
        assert point.mean_ms == statistics.fmean(r.duration_ms for r in records)
        [logged] = caplog.records
        assert "seed=1:0:1" in logged.message and logged.exc_info

    @pytest.mark.parametrize("scenario", [IDEAL, REAL])
    def test_a_shared_net_gives_the_records_of_fresh_ones(self, scenario,
                                                          monkeypatch):
        # Back to back on one cached net, then each on a net compiled
        # for it alone: the nets hold no run state, so nothing differs.
        scene = SceneConfig(4_000, 3_000, 1_000, 750, (500, 1_500))
        params = tiny_plan().params_for(scenario, 3)
        seeds = [(1, 0, rep) for rep in range(4)]

        def records():
            return [_run_replication(scene, params, seed, 100_000, 2)
                    for seed in seeds]

        shared = records()
        compile_net = raytrace._compiled_net.__wrapped__
        compiled = []

        def fresh_net(*key):
            compiled.append(compile_net(*key))
            return compiled[-1]

        monkeypatch.setattr(raytrace, "_compiled_net", fresh_net)
        fresh = records()
        assert len({id(net) for net in compiled}) == len(seeds)
        assert all(r is not None and len(r) == 2 for r in shared)
        # repr tells an int field from an equal float one.
        assert repr(shared) == repr(fresh)

    def test_replication_helper_reports_incompletion_as_none(self):
        params = tiny_plan().params_for(IDEAL, 2)
        assert _run_replication(TINY, params, (1, 0, 0), 10, 1) is None
        records = _run_replication(TINY, params, (1, 0, 0), 100_000, 1)
        assert records is not None and len(records) == 1


class TestPersistence:
    POINTS = [
        SweepPoint("10000x7500", "real", 2, 1234.5, 10.25, 30, 11.0),
        SweepPoint("10000x7500", "ideal", 1, 999.0, 0.0, 30, 0.0),
        SweepPoint("30000x22500", "ideal", 1, 5.0, 1.5, 3, 0.0),
    ]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "summary.csv"
        emit_csv(self.POINTS, path)
        assert read_csv(path) == sorted(
            self.POINTS, key=lambda p: (p.scene, p.scenario, p.nodes))

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "summary.csv"
        emit_csv(self.POINTS, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "10000x7500,ideal,1,999.0,0.0,30,0.0"
        assert lines[2] == "10000x7500,real,2,1234.5,10.25,30,11.0"
        assert lines[3] == "30000x22500,ideal,1,5.0,1.5,3,0.0"

    def test_empty_point_list_writes_header_only(self, tmp_path):
        path = tmp_path / "summary.csv"
        emit_csv([], path)
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"
        assert read_csv(path) == []

    def test_reader_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_plotdata_one_series_per_scene_scenario(self, tmp_path):
        written = emit_plotdata(self.POINTS, tmp_path / "plots")
        names = [p.name for p in written]
        assert names == [
            "10000x7500_ideal.dat", "10000x7500_real.dat",
            "30000x22500_ideal.dat"]
        text = (tmp_path / "plots" / "10000x7500_real.dat").read_text(
            encoding="utf-8")
        assert text == "# nodes seconds\n2 1.2345\n"

    def test_point_without_replications_is_nan_and_left_out_of_plots(
            self, tmp_path):
        points = [SweepPoint("s", "real", 1, 0.0, 0.0, 0, 0.0),
                  SweepPoint("s", "real", 2, 500.0, 0.0, 1, 2.0)]
        path = tmp_path / "summary.csv"
        emit_csv(points, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1:] == ["s,real,1,nan,nan,0,nan", "s,real,2,500.0,0.0,1,2.0"]
        empty, full = read_csv(path)
        assert (empty.nodes, empty.replications) == (1, 0)
        assert all(map(math.isnan, (empty.mean_ms, empty.std_ms,
                                    empty.mean_failures)))
        assert full == points[1]
        [dat] = emit_plotdata(points, tmp_path)
        assert dat.read_text(encoding="utf-8") == "# nodes seconds\n2 0.5\n"

    def test_plotdata_sorts_by_node_count(self, tmp_path):
        points = [
            SweepPoint("s", "ideal", 10, 2000.0, 0.0, 1, 0.0),
            SweepPoint("s", "ideal", 2, 4000.0, 0.0, 1, 0.0),
        ]
        written = emit_plotdata(points, tmp_path)
        text = written[0].read_text(encoding="utf-8")
        assert text == "# nodes seconds\n2 4.0\n10 2.0\n"
