"""Run one cpnsim sweep in this process and print what it measured as JSON.

    python3 perfbench/sweep.py --mode plain  --out DIR -- <cpnsim argv>
    python3 perfbench/sweep.py --mode traced --out DIR -- <cpnsim argv>
    python3 perfbench/sweep.py --mode setup -- <cpnsim argv>

``plain`` and ``traced`` call ``cpnsim.cli.main`` with the argv plus
``--out DIR`` and report wall time from the built plan to the last
output file, step counts, output digests and peak resident memory;
``traced`` adds the per-layer span summary.  ``setup`` times importing
``cpnsim.cli``, parsing the argv and building the plan, and nothing
else, so it must run in a fresh interpreter.  ``perfbench/run.py``
starts one of these processes at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import cpnsim from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cpnsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cpnsim sources under {SRC}")
    sys.path.insert(0, str(SRC))


def digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


def output_problems(out: Path, plan) -> list[str]:
    """Where a complete sweep's output files disagree with each other or the plan.

    These hold at every seed, so they check outputs where no recorded
    digest exists: each summary row holds the count, mean, deviation and
    mean failures of its replications' records, each plot series repeats
    its rows' means in seconds, every replication left its records under
    its own seed path, and the ideal scenario never fails.
    """
    problems = []
    try:
        summary = (out / "summary.csv").read_text().splitlines()[1:]
        rows = {tuple(line.split(",")[:3]): line.split(",") for line in summary}
        if len(rows) != len(summary) or len(rows) != sum(1 for _ in plan.points()):
            problems.append(f"summary.csv has {len(summary)} rows")
        records, series = {}, {}
        for _, scene, scenario, _ in plan.points():
            key = (scene.label, scenario)
            if key in records:
                continue
            tsv = (out / f"records_{scene.label}_{scenario}.tsv").read_text()
            records[key] = [line.split("\t") for line in tsv.splitlines()[1:]]
            dat = (out / f"{scene.label}_{scenario}.dat").read_text()
            series[key] = dict(line.split() for line in dat.splitlines()[1:])
        for index, scene, scenario, nodes in plan.points():
            key = (scene.label, scenario)
            where = f"{scene.label} {scenario} {nodes} nodes"
            mine = [r for r in records[key]
                    if r[6].rsplit(":", 1)[0] == f"{plan.base_seed}:{index}"]
            seeds = sorted(r[6] for r in mine)
            want = sorted(f"{plan.base_seed}:{index}:{rep}"
                          for rep in range(plan.replications)
                          for _ in range(plan.scenes_per_run))
            if seeds != want or any(int(r[2]) != nodes for r in mine):
                problems.append(f"{where}: records are not one per replication")
                continue
            durations = [int(r[1]) for r in mine]
            failures = [int(r[4]) for r in mine]
            row = rows.get((*key, str(nodes)))
            std = statistics.stdev(durations) if len(durations) > 1 else 0.0
            got = [float(v) for v in row[3:]] if row else []
            expect = [statistics.fmean(durations), std, plan.replications,
                      statistics.fmean(failures)]
            if len(got) != 4 or not all(map(math.isclose, got, expect)):
                problems.append(f"{where}: summary row {row} does not match records")
            elif not math.isclose(float(series[key].get(str(nodes), "nan")),
                                  got[0] / 1000):
                problems.append(f"{where}: plot series does not match summary")
            if scenario == "ideal" and any(failures):
                problems.append(f"{where}: failures in the ideal scenario")
    except (OSError, ValueError, IndexError) as err:
        problems.append(f"unreadable output: {err!r}")
    return problems


def run_once(argv: list[str], out: Path, traced: bool, spans_path=None) -> dict:
    """Run ``cpnsim.cli.main(argv + --out out)`` in-process; return its report."""
    import cpnsim.cli as cli
    from cpnsim.engine import kernel_name

    import spans

    if out.exists():
        shutil.rmtree(out)
    probe = spans.Probe()
    undo = spans.instrument(probe, traced)
    raised = None
    try:
        with contextlib.redirect_stdout(sys.stderr):
            cli.main([*argv, "--out", str(out)])
    except Exception:  # a sweep that raises is a failed operation, not a crash
        raised = traceback.format_exc()
        print(raised, file=sys.stderr)
    finally:
        end = time.perf_counter()
        undo()
    plan = probe.plan
    report = {
        "kernel": kernel_name(),
        "replications": sum(1 for _ in plan.points()) * plan.replications,
        "aborted": len(probe.result.aborted) if probe.result else 0,
        "raised": raised is not None,
        "wall_s": end - probe.plan_built,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if raised is not None:
        return report
    report["files"] = digests(out)
    report["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    # A sweep with aborts has already failed; its summary rows hold fewer
    # replications than the plan.
    report["problems"] = [] if report["aborted"] else output_problems(out, plan)
    if not traced:
        report["fired"] = probe.counter.fired
        report["advances"] = probe.counter.advances
        return report
    layers = probe.tracer.summary()
    report["layers"] = {k: list(v) for k, v in layers.items()}

    def count(prefix):
        return sum(n for name, (n, _) in layers.items() if name.startswith(prefix))

    report["fired"] = count("engine.fire.")
    report["advances"] = count("engine.advance.")
    report["draws"] = count("stochastic.draw")
    if spans_path is not None:
        probe.tracer.save(spans_path)
    return report


def time_setup(argv: list[str]) -> dict:
    start = time.perf_counter()
    import cpnsim.cli as cli

    cli.plan_from_args(cli.build_parser().parse_args(argv))
    return {"setup_s": time.perf_counter() - start}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "traced", "setup"),
                        required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path,
                        help="traced mode: save every span to this .npz file")
    parser.add_argument("cpnsim_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cpnsim_argv = args.cpnsim_argv
    if cpnsim_argv[:1] == ["--"]:
        cpnsim_argv = cpnsim_argv[1:]
    use_checkout_source()
    if args.mode == "setup":
        report = time_setup(cpnsim_argv)
    else:
        if args.out is None:
            parser.error("--out is required for a sweep")
        report = run_once(cpnsim_argv, args.out, args.mode == "traced",
                          args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
