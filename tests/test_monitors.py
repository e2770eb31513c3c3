"""Scene monitor: record contents, persistence, non-interference."""

from __future__ import annotations

import pytest

from cpnsim.engine import Fired, SimState, run
from cpnsim.cli import read_records, write_records
from cpnsim.raytrace import (
    IDEAL,
    REAL,
    SceneMonitor,
    SceneRecord,
    ScenarioParams,
    SceneConfig,
    attach_scene_monitor,
    build_net,
)
from cpnsim.stochastic import RngStream

from helpers import TraceHook

TINY = SceneConfig(4_000, 3_000, 1_000, 750, 1_000)


def monitored_run(scene, p, seed, scenes=1, extra_hooks=()):
    rng = RngStream(*seed) if isinstance(seed, tuple) else RngStream(seed)
    net, marking = build_net(scene, p, rng)
    state = SimState(net, marking, rng)
    hooks = list(extra_hooks)
    monitor = attach_scene_monitor(hooks)
    run(net, state,
        stop=lambda st, ev: len(monitor.records) >= scenes,
        hooks=hooks)
    return state, monitor


class TestSceneRecords:
    def test_duration_matches_the_event_trace(self):
        trace = TraceHook()
        p = ScenarioParams(node_count=8, scenario=REAL)
        state, monitor = monitored_run(TINY, p, seed=5, extra_hooks=[trace])
        [record] = monitor.records
        sent = [t for kind, name, t in trace.events
                if kind == "Fired" and name == "sendScene"]
        done = [t for kind, name, t in trace.events
                if kind == "Fired" and name == "completeScene"]
        assert record.duration_ms == done[0] - sent[0]
        assert record.duration_ms > 0

    def test_complexity_and_cluster_size_are_reported(self):
        p = ScenarioParams(node_count=6, scenario=IDEAL)
        state, monitor = monitored_run(TINY, p, seed=2)
        [record] = monitor.records
        assert record.complexity == 1_000
        assert record.node_count == 6
        assert record.scene_index == 0

    def test_seed_label_is_the_run_seed_path(self):
        p = ScenarioParams(node_count=4, scenario=IDEAL)
        state, monitor = monitored_run(TINY, p, seed=(1, 0, 29))
        assert monitor.records[0].seed == "1:0:29"

    def test_failures_match_the_event_trace(self):
        trace = TraceHook()
        p = ScenarioParams(node_count=8, scenario=REAL, client_success_p=0.5)
        state, monitor = monitored_run(TINY, p, seed=9, extra_hooks=[trace])
        [record] = monitor.records
        independent = sum(1 for kind, name, _ in trace.events
                          if kind == "Fired" and name == "unsucRtrStart")
        assert record.failures == independent > 0

    def test_ideal_runs_report_zero_failures(self):
        p = ScenarioParams(node_count=8, scenario=IDEAL)
        state, monitor = monitored_run(TINY, p, seed=3)
        assert monitor.records[0].failures == 0

    def test_single_node_cluster_uses_one_node(self):
        p = ScenarioParams(node_count=1, scenario=IDEAL)
        state, monitor = monitored_run(TINY, p, seed=4)
        assert monitor.records[0].nodes_used == 1

    def test_nodes_used_never_exceeds_the_cluster(self):
        for n in (2, 5, 8):
            p = ScenarioParams(node_count=n, scenario=IDEAL)
            state, monitor = monitored_run(TINY, p, seed=6)
            used = monitor.records[0].nodes_used
            assert 1 <= used <= n

    def test_plenty_of_work_keeps_every_node_busy(self):
        # 16 tiles on 3 nodes with no failures: at some point all three
        # must be raytracing at once.
        p = ScenarioParams(node_count=3, scenario=IDEAL)
        state, monitor = monitored_run(TINY, p, seed=8)
        assert monitor.records[0].nodes_used == 3

    def test_scene_indices_count_up(self):
        p = ScenarioParams(node_count=8, scenario=IDEAL)
        state, monitor = monitored_run(TINY, p, seed=10, scenes=3)
        assert [r.scene_index for r in monitor.records] == [0, 1, 2]
        durations = [r.duration_ms for r in monitor.records]
        assert all(d > 0 for d in durations)


class TestPersistence:
    RECORDS = [
        SceneRecord(0, 1_234, 8, 5, 2, 36_500, "1:0:0"),
        SceneRecord(1, 987_654, 8, 8, 0, 36_500, "1:0:1"),
        SceneRecord(2, 55, 1, 1, 13, 10, "7:3:2"),
    ]

    def test_round_trip_preserves_records(self, tmp_path):
        path = tmp_path / "records.tsv"
        write_records(self.RECORDS, path)
        assert read_records(path) == self.RECORDS

    def test_file_layout_is_tab_separated_with_header(self, tmp_path):
        path = tmp_path / "records.tsv"
        write_records(self.RECORDS, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert lines[0].split("\t") == [
            "scene_index", "duration_ms", "node_count", "nodes_used",
            "failures", "complexity", "seed"]
        assert lines[1].split("\t") == [
            "0", "1234", "8", "5", "2", "36500", "1:0:0"]

    def test_empty_record_list_writes_header_only(self, tmp_path):
        path = tmp_path / "records.tsv"
        write_records([], path)
        assert path.read_text(encoding="utf-8") == (
            "scene_index\tduration_ms\tnode_count\tnodes_used\t"
            "failures\tcomplexity\tseed\n")
        assert read_records(path) == []

    def test_reader_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.tsv"
        path.write_text("a\tb\n1\t2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_records(path)

    def test_reader_rejects_truncated_rows(self, tmp_path):
        path = tmp_path / "records.tsv"
        write_records(self.RECORDS, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.rsplit("\t", 1)[0] + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_records(path)


class TestNonInterference:
    def test_monitored_and_bare_runs_have_identical_traces(self):
        def trace(with_monitor):
            rng = RngStream(21)
            p = ScenarioParams(node_count=8, scenario=REAL)
            net, marking = build_net(TINY, p, rng)
            state = SimState(net, marking, rng)
            hook = TraceHook()
            hooks = [hook]
            if with_monitor:
                attach_scene_monitor(hooks)
            count = []
            run(net, state,
                stop=lambda st, ev: (type(ev) is Fired
                                     and ev.transition == "completeScene"),
                hooks=hooks)
            return hook.events

        assert trace(True) == trace(False)
