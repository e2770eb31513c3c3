"""cpnsim sweep benchmark: end-to-end metrics, and per-layer metrics from a traced run.

    python3 perfbench/run.py                      # every workload, both runs
    python3 perfbench/run.py --workload large_scene --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --record             # re-record perfbench/expected.json

Each workload is an argv for the ``cpnsim`` command.  ``--trace 0``
reports the end-to-end metrics of untraced sweeps, ``--trace 1`` the
per-layer metrics of a traced sweep next to an untraced one.  Every
sweep runs in a fresh child process (``perfbench/sweep.py``), one at a
time, and has its output files and step counts checked: against
``perfbench/expected.json`` at the default seed, and against the run's
own first sweep at any other seed.  The last line of standard output is
a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people.  Full results, with
the interpreter, kernel, core count, git revision and seed, go to
``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SWEEP = HERE / "sweep.py"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 1
SETUP_SAMPLES_PER_SWEEP = 2
RUN_TIMEOUT_S = 170

# Why each workload is here: BENCHMARK.json.  All use the default tile
# (1000x750) and complexity (36500).
WORKLOADS = {
    "sweep_reduced": ["--nodes", "1,2,8,25", "--replications", "3"],
    "large_scene": ["--scene", "60000x45000", "--scenario", "ideal",
                    "--nodes", "2", "--replications", "3"],
    "many_small_runs": ["--scene", "10000x7500", "--scenario", "real",
                        "--nodes", "25", "--replications", "600"],
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "engine.fire_us": "us",
    "engine.fire_share": "%",
    "engine.advance_us": "us",
    "engine.advance_share": "%",
    "engine.fired": "count",
    "engine.advances": "count",
    "engine.fire_us.small_scene": "us",
    "engine.fire_us.large_scene": "us",
    "engine.advance_us.small_scene": "us",
    "engine.advance_us.large_scene": "us",
    "engine.state_init_us": "us",
    "raytrace.build_net_us": "us",
    "stochastic.seed_us": "us",
    "stochastic.draws": "count",
    "stochastic.draw_us": "us",
    "monitors.calls": "count",
    "monitors.hook_us": "us",
    "experiment.self_ms": "ms",
    "experiment.replications": "count",
    "cli.output_ms": "ms",
    "cli.output_bytes": "bytes",
    "trace.overhead": "ratio",
}

CHECKED_COUNTS = ("fired", "advances", "draws")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def workload_argv(name: str, seed: int) -> list[str]:
    # RngStream seed paths must be non-negative.
    return [*WORKLOADS[name], "--seed", str(seed % 2**32)]


def child(mode: str, argv: list[str], deadline: float, out=None, spans=None) -> dict:
    """Run ``sweep.py`` once in a fresh interpreter and return its report."""
    cmd = [sys.executable, str(SWEEP), "--mode", mode]
    if out is not None:
        cmd += ["--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([*cmd, "--", *argv], cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} sweep did not finish in {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} sweep failed (exit {proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def mismatches(report: dict, reference: dict) -> list[str]:
    """Output files and step counts of ``report`` that differ from ``reference``."""
    if report["raised"]:
        return []
    got, want = report["files"], reference["files"]
    bad = [f"file {name}" for name in sorted(got.keys() | want.keys())
           if got.get(name) != want.get(name)]
    bad += [f"count {key}: {report[key]} != {reference[key]}"
            for key in CHECKED_COUNTS
            if key in report and key in reference and report[key] != reference[key]]
    return bad


def recorded_reference(workload: str, seed: int) -> dict | None:
    """The recorded digests and counts of ``workload``; there are none but at seed 1."""
    if seed != DEFAULT_SEED or not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(workload)


class Tally:
    """Replications attempted and failed operations over one benchmark run.

    Each sweep is checked against ``reference``, or, without one, against
    the first sweep that did not raise.
    """

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, report: dict, label: str) -> None:
        self.attempted += report["replications"]
        if report["raised"]:
            self.failed += report["replications"]
            self.problems.append(f"{label}: sweep raised")
            return
        self.failed += report["aborted"]
        if report["aborted"]:
            self.problems.append(f"{label}: {report['aborted']} replications aborted")
        if self.reference is None:
            self.reference = report
        bad = mismatches(report, self.reference) + report["problems"]
        if report["fired"] + report["advances"] == 0:
            bad.append("no engine steps counted")
        self.failed += len(bad)
        self.problems += [f"{label}: {b}" for b in bad]


def repeat(seconds: float, once) -> list:
    """Results of ``once()``, called until another call would end after ``seconds``.

    Always calls it at least once; the previous call's duration is the
    estimate for the next one.
    """
    results = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        results.append(once())
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            return results


def measure_end_to_end(workload: str, seed: int, seconds: float, tally: Tally):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    argv = workload_argv(workload, seed)
    setup: list[float] = []

    def once():
        # Set-up samples are spread over the run like the sweeps are.
        setup.extend(child("setup", argv, deadline)["setup_s"]
                     for _ in range(SETUP_SAMPLES_PER_SWEEP))
        report = child("plain", argv, deadline, out=OUT / workload / "plain")
        tally.add(report, "untraced sweep")
        return report

    reports = repeat(seconds, once)
    ok = [r for r in reports if not r["raised"]]
    if not ok:
        raise BenchError("every sweep raised")
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in ok),
        "steps_per_s": statistics.median((r["fired"] + r["advances"]) / r["wall_s"]
                                         for r in ok),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }
    return metrics, {"setup_s": setup, "sweeps": reports}


def layer_metrics(traced: dict, plain: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced sweep, and µs per step by tile count."""
    layers = traced["layers"]
    wall = traced["wall_s"]

    def total(*names):
        count = sum(layers.get(n, (0, 0.0))[0] for n in names)
        self_s = sum(layers.get(n, (0, 0.0))[1] for n in names)
        return count, self_s

    def per_call_us(*names):
        count, self_s = total(*names)
        return self_s / count * 1e6 if count else 0.0

    fires = sorted((n for n in layers if n.startswith("engine.fire.t")),
                   key=lambda n: int(n.rsplit("t", 1)[1]))
    tiles = [int(n.rsplit("t", 1)[1]) for n in fires]
    by_tiles = {
        t: {"fire_us": per_call_us(f"engine.fire.t{t}"),
            "advance_us": per_call_us(f"engine.advance.t{t}")}
        for t in tiles
    }
    small, large = by_tiles[tiles[0]], by_tiles[tiles[-1]]
    advances = [f"engine.advance.t{t}" for t in tiles]
    outputs = ("cli.emit_csv", "cli.emit_plotdata", "cli.write_records")
    metrics = {
        "engine.fire_us": per_call_us(*fires),
        "engine.fire_share": 100 * total(*fires)[1] / wall,
        "engine.advance_us": per_call_us(*advances),
        "engine.advance_share": 100 * total(*advances)[1] / wall,
        "engine.fired": traced["fired"],
        "engine.advances": traced["advances"],
        "engine.fire_us.small_scene": small["fire_us"],
        "engine.fire_us.large_scene": large["fire_us"],
        "engine.advance_us.small_scene": small["advance_us"],
        "engine.advance_us.large_scene": large["advance_us"],
        "engine.state_init_us": per_call_us("engine.SimState"),
        "raytrace.build_net_us": per_call_us("raytrace.build_net"),
        "stochastic.seed_us": per_call_us("stochastic.RngStream"),
        "stochastic.draws": traced["draws"],
        "stochastic.draw_us": per_call_us("stochastic.draw"),
        "monitors.calls": total("monitors.hook")[0],
        "monitors.hook_us": per_call_us("monitors.hook"),
        "experiment.self_ms": total("experiment.run_experiment_detailed")[1] * 1e3,
        "experiment.replications": total("engine.run")[0],
        "cli.output_ms": total(*outputs)[1] * 1e3,
        "cli.output_bytes": traced["output_bytes"],
        "trace.overhead": wall / plain["wall_s"],
    }
    return metrics, by_tiles


def measure_layers(workload: str, seed: int, seconds: float, tally: Tally):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    argv = workload_argv(workload, seed)

    def once():
        plain = child("plain", argv, deadline, out=OUT / workload / "plain")
        tally.add(plain, "untraced sweep")
        traced = child("traced", argv, deadline, out=OUT / workload / "traced",
                       spans=OUT / workload / "spans.npz")
        tally.add(traced, "traced sweep")
        return plain, traced

    pairs = repeat(seconds, once)
    ok = [(p, t) for p, t in pairs if not (p["raised"] or t["raised"])]
    if not ok:
        raise BenchError("every sweep raised")
    per_pair = [layer_metrics(t, p) for p, t in ok]
    # median_low keeps counts whole: it always returns one of the values.
    metrics = {name: statistics.median_low(m[name] for m, _ in per_pair)
               for name in LAYER_UNITS}
    by_tiles = {
        tiles: {key: statistics.median_low(bt[tiles][key] for _, bt in per_pair)
                for key in ("fire_us", "advance_us")}
        for tiles in per_pair[0][1]
    }
    return metrics, {"by_tiles": by_tiles, "sweeps": [r for pair in pairs for r in pair]}


def git_revision() -> str:
    """HEAD of the checkout's own ``.git``, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, reports: list[dict]) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "kernel": reports[0]["kernel"],
        "cores": os.cpu_count(),
        "git_revision": git_revision(),
    }


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:32s} {shown:>14s} {units[name]}")


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """Measure one workload, print the report; return the JSON result and µs by tiles."""
    tally = Tally(recorded_reference(workload, seed))
    if trace:
        metrics, detail = measure_layers(workload, seed, seconds, tally)
        units = LAYER_UNITS
    else:
        metrics, detail = measure_end_to_end(workload, seed, seconds, tally)
        units = END_TO_END_UNITS
    meta = metadata(workload, seed, detail["sweeps"])
    kind = "traced (per-layer)" if trace else "untraced (end-to-end)"
    print(f"{workload}, {kind}: {len(detail['sweeps'])} sweeps, "
          f"python {meta['python']}, {meta['kernel']} kernel, "
          f"{meta['cores']} cores, revision {meta['git_revision'][:12]}, seed {seed}")
    print_metrics(metrics, units)
    print(f"  {'error_rate':32s} {tally.failed / tally.attempted:>14.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} replications attempted)")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"meta": meta, "metrics": metrics, "attempted": tally.attempted,
              "failed": tally.failed, "problems": tally.problems, **detail}
    path = results / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, detail.get("by_tiles", {})


def record(workloads: list[str]) -> None:
    """Write the default seed's digests and counts, after traced and untraced agree."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    for workload in workloads:
        argv = workload_argv(workload, DEFAULT_SEED)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        plain = child("plain", argv, deadline, out=OUT / workload / "plain")
        traced = child("traced", argv, deadline, out=OUT / workload / "traced")
        tally = Tally(reference=None)
        tally.add(plain, "untraced sweep")
        tally.add(traced, "traced sweep")
        if tally.failed:
            raise BenchError(f"{workload}: cannot record a failing sweep: "
                             f"{tally.problems}")
        expected[workload] = {key: traced[key] for key in ("files", *CHECKED_COUNTS)}
        print(f"recorded {workload}: {traced['fired']} fired, "
              f"{traced['advances']} advances, {traced['draws']} draws")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20,
                        help="measure for about this long: start another sweep "
                             "only while it should end within it (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: 0 for one workload, both for 'all')")
    parser.add_argument("--record", action="store_true",
                        help=f"re-record {EXPECTED.name} at seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cpnsim" / "__init__.py").is_file():
        print(f"perfbench: no cpnsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.record:
            record(workloads)
            return 0
        if args.workload != "all":
            result, _ = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace or 0)
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        scale = []
        traces = (0, 1) if args.trace is None else (args.trace,)
        for workload in workloads:
            for trace in traces:
                result, by_tiles = run_workload(workload, args.seed, args.seconds,
                                                trace)
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    combined["metrics"][f"{workload}.{name}"] = metric
                scale += [(tiles, workload, us) for tiles, us in by_tiles.items()]
        if scale:
            print("µs per engine step by scene size (traced):")
            for tiles, workload, us in sorted(scale):
                print(f"  {tiles:5d} tiles, {workload:16s} fire {us['fire_us']:8.1f} us,"
                      f" advance {us['advance_us']:8.1f} us")
        print(json.dumps(combined))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
