"""Command-line harness: argument parsing and end-to-end output files."""

from __future__ import annotations

import math

import pytest

import cpnsim.cli as cli
from cpnsim.cli import build_parser, main, plan_from_args
from cpnsim.cli import read_csv, read_records
from cpnsim.experiment import DEFAULT_NODE_COUNTS
from cpnsim.raytrace import SceneConfig


def parse_plan(argv):
    return plan_from_args(build_parser().parse_args(argv))


class TestParsing:
    def test_defaults_describe_the_full_sweep(self):
        plan = parse_plan([])
        assert plan.scenes == (
            SceneConfig(10_000, 7_500, 1_000, 750, 36_500),
            SceneConfig(30_000, 22_500, 1_000, 750, 36_500),
        )
        assert plan.node_counts == DEFAULT_NODE_COUNTS
        assert plan.scenarios == ("ideal", "real")
        assert plan.replications == 30
        assert plan.base_seed == 1
        assert plan.scenes_per_run == 1
        assert plan.jobs == 1
        assert plan.param_overrides == ()

    def test_scene_flag_is_repeatable(self):
        plan = parse_plan(["--scene", "4000x3000", "--scene", "8000x6000"])
        assert [s.label for s in plan.scenes] == ["4000x3000", "8000x6000"]

    def test_node_lists_ranges_and_mixtures(self):
        assert parse_plan(["--nodes", "2,5,10"]).node_counts == (2, 5, 10)
        assert parse_plan(["--nodes", "1-4"]).node_counts == (1, 2, 3, 4)
        assert parse_plan(["--nodes", "1-3,10"]).node_counts == (1, 2, 3, 10)

    def test_scenario_selector(self):
        assert parse_plan(["--scenario", "ideal"]).scenarios == ("ideal",)
        assert parse_plan(["--scenario", "real"]).scenarios == ("real",)
        assert parse_plan(["--scenario", "both"]).scenarios == ("ideal", "real")

    def test_complexity_range_flows_into_the_scenes(self):
        plan = parse_plan(["--scene", "4000x3000",
                           "--complexity-range", "10000:70000"])
        assert plan.scenes[0].complexity == (10_000, 70_000)

    def test_fixed_and_ranged_complexity_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--complexity", "5", "--complexity-range", "1:9"])

    def test_param_overrides_are_collected(self):
        plan = parse_plan(["--param-master_perf", "0.5",
                           "--param-chck_per_ms", "1000"])
        assert plan.param_overrides == (
            ("master_perf", 0.5), ("chck_per_ms", 1000))
        params = plan.params_for("real", 4)
        assert params.master_perf == 0.5
        assert params.chck_per_ms == 1000

    def test_malformed_values_exit_with_usage_error(self):
        for argv in (["--scene", "100"], ["--nodes", "a,b"],
                     ["--complexity-range", "17"], ["--scenario", "none"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    @pytest.mark.parametrize("flags", [
        "--jobs 0",
        "--replications 0",
        "--nodes 0",
        "--scenes-per-run 0",
        "--seed -1",
        "--complexity-range 5:1",
        "--scene 500x500",
        "--param-master_perf 0",
        "--param-send_mean_ms nan",
        "--param-comm_mean_ms inf",
        "--step-limit 0",
        "--step-limit -5",
        "--nodes 2,2",
        "--nodes 1-3,2",
        "--nodes 3-1",
        "--scene 4000x3000 --scene 4000x3000",
        "--param-recovery_max_ms 9223372036854775808",
        "--param-chck_max_mult 9223372036854775808",
    ])
    def test_invalid_plans_exit_with_usage_error(self, flags, tmp_path, capsys):
        out = tmp_path / "results"
        with pytest.raises(SystemExit) as exc:
            main(flags.split() + ["--out", str(out)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["recovery_max_ms", "chck_max_mult"])
    def test_int64_draw_bounds_are_the_limit(self, field, tmp_path, capsys):
        # uniform_int hands these bounds to numpy's int64 draws.
        argv = ["--scene", "4000x3000", "--complexity", "1000", "--nodes",
                "2", "--scenario", "real", "--replications", "3"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--param-{field}", str(2**63),
                         "--out", str(tmp_path / "over")])
        assert exc.value.code == 2
        assert f"{field} must be <= {2**63 - 1}" in capsys.readouterr().err
        assert main(argv + [f"--param-{field}", str(2**63 - 1),
                            "--out", str(tmp_path / "max")]) == 0

    def test_reversed_node_range_is_named(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--nodes", "1,3-1"])
        assert exc.value.code == 2
        assert "empty node range '3-1'" in capsys.readouterr().err

    def test_unusable_out_fails_before_the_sweep(self, tmp_path, capsys,
                                                 monkeypatch):
        def no_sweep(plan):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr(cli, "run_experiment_detailed", no_sweep)
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["--scene", "4000x3000", "--nodes", "1", "--replications",
                  "1", "--out", str(blocker / "sub")])
        assert exc.value.code == 2
        assert "error: cannot create --out directory" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [
        "summary.csv", "4000x3000_ideal.dat", "records_4000x3000_ideal.tsv"])
    def test_output_file_that_is_a_directory_fails_before_the_sweep(
            self, tmp_path, capsys, monkeypatch, name):
        def no_sweep(plan):
            raise AssertionError("the sweep ran before the outputs were checked")

        monkeypatch.setattr(cli, "run_experiment_detailed", no_sweep)
        (tmp_path / name).mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["--scene", "4000x3000", "--nodes", "1", "--scenario", "ideal",
                  "--replications", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {tmp_path / name}: not a regular file" in err

    def test_tile_flag_changes_the_grid(self):
        plan = parse_plan(["--scene", "4000x3000", "--tile", "2000x1500"])
        assert plan.scenes[0].tile_count == 4


class TestResultFiles:
    def test_summary_header_is_the_sweep_point_fields(self):
        assert cli.CSV_HEADER == (
            "scene,scenario,nodes,mean_ms,std_ms,replications,mean_failures")

    def test_short_summary_row_is_malformed(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text(cli.CSV_HEADER + "\ns,real,2,500.0,0.0,1\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="malformed row"):
            read_csv(path)


class TestEndToEnd:
    ARGS = ["--scene", "4000x3000", "--complexity", "1000",
            "--nodes", "1,2", "--scenario", "ideal",
            "--replications", "2", "--seed", "5"]

    def test_writes_summary_plotdata_and_records(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(self.ARGS + ["--out", str(out)])
        assert code == 0
        points = read_csv(out / "summary.csv")
        assert [(p.scene, p.scenario, p.nodes) for p in points] == [
            ("4000x3000", "ideal", 1), ("4000x3000", "ideal", 2)]
        assert all(p.replications == 2 and p.mean_ms > 0 for p in points)

        dat = (out / "4000x3000_ideal.dat").read_text(encoding="utf-8")
        lines = dat.splitlines()
        assert lines[0] == "# nodes seconds"
        assert [float(line.split()[1]) for line in lines[1:]] == [
            pytest.approx(p.mean_ms / 1000) for p in points]

        records = read_records(out / "records_4000x3000_ideal.tsv")
        assert len(records) == 4  # 2 node counts x 2 replications
        assert capsys.readouterr().out.startswith("wrote ")

    def test_two_invocations_write_identical_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--out", str(out_a)]) == 0
        assert main(self.ARGS + ["--out", str(out_b)]) == 0
        for name in ("summary.csv", "4000x3000_ideal.dat",
                     "records_4000x3000_ideal.tsv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_aborts_are_reported_on_stderr(self, tmp_path, capsys):
        code = main(self.ARGS + ["--out", str(tmp_path / "r"),
                                 "--step-limit", "10"])
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("aborted:") == 4  # 2 points x 2 replications
        for point, nodes in enumerate((1, 2)):
            for rep in (0, 1):
                assert (f"aborted: scene=4000x3000 scenario=ideal nodes={nodes} "
                        f"seed=5:{point}:{rep}\n") in err

    def test_points_without_completed_replications_are_not_zero(self, tmp_path):
        out = tmp_path / "r"
        assert main(self.ARGS + ["--out", str(out), "--step-limit", "10"]) == 0
        points = read_csv(out / "summary.csv")
        assert [p.replications for p in points] == [0, 0]
        assert all(math.isnan(v) for p in points
                   for v in (p.mean_ms, p.std_ms, p.mean_failures))
        dat = (out / "4000x3000_ideal.dat").read_text(encoding="utf-8")
        assert dat == "# nodes seconds\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_replications_are_named_and_exit_1(self, jobs, tmp_path,
                                                       capsys):
        # The plan is valid, but the master's tile time overflows to
        # infinity in the real scenario only.
        out = tmp_path / "r"
        code = main(["--scene", "4000x3000", "--complexity", "1000",
                     "--nodes", "2", "--scenario", "both",
                     "--replications", "2", "--seed", "5", "--jobs", jobs,
                     "--param-master_perf", "1e-320", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        for seed in ("5:1:0", "5:1:1"):
            assert f"scenario=real nodes=2 seed={seed}: OverflowError" in err
        ideal, real = read_csv(out / "summary.csv")
        assert (ideal.scenario, ideal.replications) == ("ideal", 2)
        assert (real.scenario, real.replications) == ("real", 0)
        assert len(read_records(out / "records_4000x3000_ideal.tsv")) == 2
