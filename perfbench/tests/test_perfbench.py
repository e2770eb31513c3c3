"""Checks on the benchmark itself, on plans small enough to run in seconds.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import cpnsim.cli as cli
import pytest

import run
import sweep

TINY = ["--scene", "3000x1500", "--nodes", "1,3", "--replications", "2",
        "--seed", "4"]


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("sweeps")


@pytest.fixture(scope="module")
def pair(out):
    plain = sweep.run_once(TINY, out / "plain", traced=False)
    traced = sweep.run_once(TINY, out / "traced", traced=True)
    return plain, traced


def test_tracing_changes_no_output_and_no_count(pair):
    plain, traced = pair
    assert not plain["raised"] and not traced["raised"]
    assert traced["files"] == plain["files"]
    assert run.mismatches(traced, plain) == []
    assert (traced["fired"], traced["advances"]) == (plain["fired"], plain["advances"])


def test_counters_reconcile(pair):
    plain, traced = pair
    layers = traced["layers"]
    steps = sum(n for name, (n, _) in layers.items()
                if name.startswith(("engine.fire.", "engine.advance.", "engine.dead")))
    metrics, by_tiles = run.layer_metrics(traced, plain)
    assert metrics["engine.fired"] + metrics["engine.advances"] == steps
    assert metrics["monitors.calls"] == steps
    assert metrics["experiment.replications"] == traced["replications"] == 8
    self_s = sum(s for _, s in layers.values())
    assert 0 < self_s <= traced["wall_s"]
    assert list(by_tiles) == [6]


def test_a_mismatch_is_a_failed_operation(pair):
    plain, _ = pair
    tally = run.Tally(reference=None)
    tally.add(plain, "first")
    changed = dict(plain, files=dict(plain["files"], **{"summary.csv": "0" * 64}),
                   fired=plain["fired"] + 1)
    tally.add(changed, "second")
    assert tally.attempted == 16
    assert tally.failed == 2
    assert len(tally.problems) == 2


def test_outputs_that_disagree_with_each_other_are_problems(pair, out):
    plain, traced = pair
    assert plain["problems"] == traced["problems"] == []
    plan = cli.plan_from_args(cli.build_parser().parse_args(TINY))
    summary = out / "plain" / "summary.csv"
    lines = summary.read_text().splitlines()
    row = lines[1].split(",")
    row[3] = str(float(row[3]) + 1)
    lines[1] = ",".join(row)
    summary.write_text("\n".join(lines) + "\n")
    problems = sweep.output_problems(out / "plain", plan)
    assert len(problems) == 1 and "does not match records" in problems[0]
    (out / "plain" / "summary.csv").unlink()
    assert "unreadable output" in sweep.output_problems(out / "plain", plan)[0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "tests", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_reduced",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
