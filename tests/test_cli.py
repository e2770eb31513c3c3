"""Command-line harness: argument parsing and end-to-end output files."""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import io
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cpnsim.cli as cli
from cpnsim import raytrace
from cpnsim.cli import build_parser, main, plan_from_args
from cpnsim.experiment import DEFAULT_NODE_COUNTS, PARAM_NAMES
from cpnsim.raytrace import ScenarioParams, SceneConfig

SRC = Path(cli.__file__).resolve().parents[1]


def parse_plan(argv):
    return plan_from_args(build_parser().parse_args(argv))


def read_lines(path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


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
        "--param-send_var -0.0",
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

    # argparse alone would take each of these values for an option and
    # report its flag as missing an argument.
    @pytest.mark.parametrize("flags, message", [
        ("--complexity-range -1:5", "bad complexity range (-1, 5)"),
        ("--scene -4000x3000", "width must be >= 1"),
        ("--param-send_mean_ms -1e5", "send_mean_ms must be >= 0"),
    ], ids=["complexity-range", "scene", "param"])
    def test_a_value_that_starts_with_a_dash_reaches_its_check(
            self, flags, message, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(flags.split() + ["--out", str(tmp_path / "results")])
        assert exc.value.code == 2
        assert f"cpnsim: error: {message}" in capsys.readouterr().err

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

    def test_complexity_range_past_int64_is_a_usage_error(self, tmp_path,
                                                          capsys):
        # uniform_int draws a ranged complexity as a numpy int64.
        argv = ["--scene", "4000x3000", "--nodes", "2", "--scenario", "real",
                "--replications", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--complexity-range", f"0:{10**20}",
                         "--out", str(tmp_path / "over")])
        assert exc.value.code == 2
        [line] = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert line == f"cpnsim: error: complexity must be <= {2**63 - 1}"
        assert main(argv + ["--complexity-range", f"0:{2**63 - 1}",
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


class TestEndToEnd:
    ARGS = ["--scene", "4000x3000", "--complexity", "1000",
            "--nodes", "1,2", "--scenario", "ideal",
            "--replications", "2", "--seed", "5"]

    def test_writes_summary_plotdata_and_records(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(self.ARGS + ["--out", str(out)])
        assert code == 0
        header, *rows = read_lines(out / "summary.csv")
        assert header == cli.CSV_HEADER
        rows = [row.split(",") for row in rows]
        assert [row[:3] for row in rows] == [
            ["4000x3000", "ideal", "1"], ["4000x3000", "ideal", "2"]]
        assert all(row[5] == "2" and float(row[3]) > 0 for row in rows)

        assert read_lines(out / "4000x3000_ideal.dat") == ["# nodes seconds"] + [
            f"{row[2]} {float(row[3]) / 1000}" for row in rows]

        header, *records = read_lines(out / "records_4000x3000_ideal.tsv")
        assert header.split("\t")[6] == "seed"
        # 2 node counts x 2 replications
        assert [r.split("\t")[6] for r in records] == [
            "5:0:0", "5:0:1", "5:1:0", "5:1:1"]
        assert capsys.readouterr().out.startswith("wrote ")

    def test_two_invocations_write_identical_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--out", str(out_a)]) == 0
        assert main(self.ARGS + ["--out", str(out_b)]) == 0
        for name in ("summary.csv", "4000x3000_ideal.dat",
                     "records_4000x3000_ideal.tsv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_aborts_are_reported_on_stderr(self, tmp_path):
        # The command runs as a program, so its stderr holds all that
        # the sweep and its workers print, and nothing else.
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        for jobs in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "cpnsim.cli", *self.ARGS, "--step-limit",
                 "10", "--jobs", jobs, "--out", str(tmp_path / jobs)],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0
            # 2 points x 2 replications, each named once.
            assert done.stderr == "".join(
                f"  aborted: scene=4000x3000 scenario=ideal nodes={nodes} "
                f"seed=5:{point}:{rep}\n"
                for point, nodes in enumerate((1, 2)) for rep in (0, 1))

    def test_points_without_completed_replications_are_not_zero(self, tmp_path):
        out = tmp_path / "r"
        assert main(self.ARGS + ["--out", str(out), "--step-limit", "10"]) == 0
        assert read_lines(out / "summary.csv")[1:] == [
            "4000x3000,ideal,1,nan,nan,0,nan", "4000x3000,ideal,2,nan,nan,0,nan"]
        assert read_lines(out / "4000x3000_ideal.dat") == ["# nodes seconds"]

    @pytest.mark.parametrize("flag", [
        "--param-work_ms_per_complexity 1e308",
        "--param-work_ms_per_kilopixel 1e308",
        "--param-master_perf 1e-308",
        "--param-comm_mean_ms 1e308",
    ])
    def test_durations_that_overflow_are_usage_errors(self, flag, tmp_path,
                                                      capsys):
        out = tmp_path / "r"
        with pytest.raises(SystemExit) as exc:
            main(["--scene", "4000x3000", "--complexity", "1000", "--nodes",
                  "2", "--scenario", "real", "--replications", "1",
                  *flag.split(), "--out", str(out)])
        assert exc.value.code == 2
        [line] = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert line.startswith("cpnsim: error: ") and "overflows" in line
        assert not out.exists()

    def test_a_mean_past_the_largest_float_is_inf(self, tmp_path):
        # Each scene is sent to 2 clients in turn, about 1e308 ms each.
        out = tmp_path / "r"
        assert main(["--scene", "4000x3000", "--complexity", "1000",
                     "--nodes", "3", "--scenario", "ideal",
                     "--replications", "2", "--param-send_mean_ms", "1e308",
                     "--out", str(out)]) == 0
        [row] = read_lines(out / "summary.csv")[1:]
        assert row.startswith("4000x3000,ideal,3,inf,")
        assert read_lines(out / "4000x3000_ideal.dat")[1:] == ["3 inf"]
        durations = [int(line.split("\t")[1]) for line in
                     read_lines(out / "records_4000x3000_ideal.tsv")[1:]]
        assert all(d > 2 * 10**308 for d in durations)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_replications_are_named_and_exit_1(self, jobs, tmp_path,
                                                       capsys, monkeypatch):
        # The plan is valid, but every comm delay of the real scenario
        # raises.  Only workers forked from this process inherit the
        # patch, so the pool forks them whatever the default start
        # method (forkserver on Linux from Python 3.14, spawn on macOS).
        comm_delay_ms = raytrace.comm_delay_ms

        def failing_comm_delay_ms(params, rng):
            if params.scenario == "real":
                raise RuntimeError("model bug")
            return comm_delay_ms(params, rng)

        monkeypatch.setattr(raytrace, "comm_delay_ms", failing_comm_delay_ms)
        forking_pool = functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("fork"))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forking_pool)
        out = tmp_path / "r"
        code = main(["--scene", "4000x3000", "--complexity", "1000",
                     "--nodes", "2", "--scenario", "both",
                     "--replications", "2", "--seed", "5", "--jobs", jobs,
                     "--out", str(out)])
        assert code == 1
        # Each failed replication is named once, below its traceback,
        # which comes back from the worker that ran it.
        err = capsys.readouterr().err
        assert re.fullmatch("".join(
            r"Traceback \(most recent call last\):\n(?:  .*\n)+"
            r"RuntimeError: model bug\n"
            rf"  failed: scene=4000x3000 scenario=real nodes=2 seed={seed}: "
            r"RuntimeError: model bug\n"
            for seed in ("5:1:0", "5:1:1")), err), err
        ideal, real = read_lines(out / "summary.csv")[1:]
        assert ideal.startswith("4000x3000,ideal,2,")
        assert ideal.split(",")[5] == "2"
        assert real == "4000x3000,real,2,nan,nan,0,nan"
        assert len(read_lines(out / "records_4000x3000_ideal.tsv")) == 3


# ---------------------------------------------------------------------------
# any argv of the grammar
# ---------------------------------------------------------------------------

EXTREME_INTS = (0, -1, -(2**63), 2**63 - 1, 2**63, 10**30, 10**400)
EXTREME_REALS = ("0", "-0.0", "-1", "5e-324", "1e-308", "1e308", "inf",
                 "-inf", "nan", str(2**63), str(10**30))


def mostly(cheap, rare, one_in=20):
    """``rare`` one time in ``one_in``, ``cheap`` otherwise."""
    return st.integers(1, one_in).flatmap(lambda i: rare if i == one_in else cheap)


def extreme(cheap, extremes=EXTREME_INTS):
    """Cheap valid values, or extreme ones one time in two."""
    return mostly(cheap, st.sampled_from(extremes), one_in=2)


def counts(cheap):
    """Cheap valid counts, or invalid ones one time in twenty, as argv text."""
    return mostly(cheap, st.sampled_from((0, -1, -(2**63)))).map(str)


def pairs(values):
    """Two values, mostly in ascending order."""
    both = st.tuples(values, values)
    return mostly(both.map(sorted), both)


def dimensions(widths, heights, bad):
    return mostly(st.tuples(widths, heights).map(lambda wh: "%dx%d" % wh),
                  st.sampled_from(bad))


def option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


# A valid example is cheap: one or two scenes of at most 16 tiles (at
# most 4000x3000, tiles at least 1000x750), at most 8 node counts of at
# most 8 nodes, one replication and at most 2000 steps a replication.
# So --scene, --nodes, --replications and --step-limit are always given,
# and their extremes are the invalid ones, drawn rarely: an example that
# fails the plan check reaches no sweep.  Every other flag takes all of
# the extremes, half the time.  --jobs starts processes and is left to
# its own tests.
SCENES = dimensions(
    st.integers(2000, 4000), st.integers(1500, 3000),
    ("0x3000", "4000x0", "-4000x3000", "999x749", "4000", "4000x3000x2",
     "4e3x3e3"))
TILES = dimensions(
    st.integers(1000, 2000), st.integers(750, 1500),
    (f"{2**63}x{2**63}", f"{10**30}x750", "0x750", "-1000x750", "1000"))
NODES = st.lists(mostly(
    st.one_of(st.integers(1, 8).map(str),
              pairs(st.integers(1, 8)).map(lambda ab: "%d-%d" % tuple(ab))),
    st.sampled_from(["0", "-1", str(-(2**63)), "", "a", "1.5"])),
    min_size=1, max_size=2, unique=True).map(",".join)
COMPLEXITY = extreme(st.integers(0, 10**6))
PARAM_KINDS = typing.get_type_hints(ScenarioParams)
COMPLEXITIES = st.one_of(
    st.just([]),
    COMPLEXITY.map(lambda c: ["--complexity", str(c)]),
    pairs(COMPLEXITY).map(lambda r: ["--complexity-range", "%d:%d" % tuple(r)]))


@st.composite
def argvs(draw):
    argv = []
    for scene in draw(st.lists(SCENES, min_size=1, max_size=2, unique=True)):
        argv += ["--scene", scene]
    argv += draw(COMPLEXITIES)
    for flag, values in (
            ("--tile", TILES),
            ("--scenario", mostly(st.sampled_from(["ideal", "real", "both"]),
                                  st.just("none"))),
            ("--seed", extreme(st.integers(0, 100)).map(str)),
            ("--scenes-per-run", extreme(st.integers(1, 3)).map(str))):
        argv += draw(option(flag, values))
    argv += ["--nodes", draw(NODES),
             "--replications", draw(counts(st.just(1))),
             "--step-limit", draw(counts(st.integers(1, 2000)))]
    for name in draw(st.lists(st.sampled_from(PARAM_NAMES), unique=True,
                              max_size=2)):
        if PARAM_KINDS[name] is int:
            value = extreme(st.integers(1, 10**6))
        else:
            value = extreme(st.floats(0, 1) | st.floats(0, 1e6), EXTREME_REALS)
        argv += [f"--param-{name}", str(draw(value))]
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=argvs())
def test_any_argv_runs_or_is_a_usage_error(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            status = main([*argv, "--out", out])
        except SystemExit as exc:
            status = exc.code
            assert status == 2
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith("cpnsim: error: ")]
    assert (status, len(errors)) in ((0, 0), (2, 1)), err.getvalue()
