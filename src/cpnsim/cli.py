"""Command-line harness for raytracing cluster sweeps.

Runs the configured sweep and writes, under --out: summary.csv with one
aggregated row per sweep point, one <scene>_<scenario>.dat plot series
per curve, and one records_<scene>_<scenario>.tsv with the raw
per-scene monitor records.  It writes these files and reads none.
Each aborted or failed replication of the sweep is named once on
stderr, a failed one below its traceback; the exit status is 1 if any
replication failed.  The sweep options' defaults are
:class:`ExperimentPlan`'s.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing
from pathlib import Path

from cpnsim.experiment import (
    PARAM_NAMES,
    ExperimentPlan,
    SweepPoint,
    run_experiment_detailed,
)
from cpnsim.raytrace import SCENARIOS, ScenarioParams, SceneConfig, SceneRecord

DEFAULT_SCENES = ("10000x7500", "30000x22500")
DEFAULT_TILE = "1000x750"
DEFAULT_COMPLEXITY = 36500


def _dimensions(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected WIDTHxHEIGHT, got {text!r}"
        ) from None


def _int_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None


def _node_counts(text: str) -> tuple[int, ...]:
    counts: list[int] = []
    try:
        for part in text.split(","):
            if "-" in part:
                lo, hi = map(int, part.split("-"))
                if lo > hi:
                    raise argparse.ArgumentTypeError(
                        f"empty node range {part!r}: {lo} is above {hi}")
                counts.extend(range(lo, hi + 1))
            else:
                counts.append(int(part))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N, A-B, or a comma list of those, got {text!r}"
        ) from None
    return tuple(counts)


CSV_HEADER = ",".join(f.name for f in dataclasses.fields(SweepPoint))
_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(SceneRecord))


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_csv(points, path) -> None:
    """Write sweep points as CSV, sorted by (scene, scenario, nodes).

    A point without completed replications has ``nan`` aggregates.
    """
    rows = sorted(points, key=lambda p: (p.scene, p.scenario, p.nodes))
    _write_lines(path, [CSV_HEADER] + [
        f"{p.scene},{p.scenario},{p.nodes},{p.mean_ms},{p.std_ms},"
        f"{p.replications},{p.mean_failures}" for p in rows])


def plotdata_path(out_dir, scene, scenario) -> Path:
    """The file :func:`emit_plotdata` writes a (scene, scenario) series to."""
    return Path(out_dir) / f"{scene}_{scenario}.dat"


def emit_plotdata(points, out_dir) -> list[Path]:
    """One <scene>_<scenario>.dat series per (scene, scenario).

    Each file holds "nodes seconds" columns sorted by node count, ready
    for gnuplot or similar.  Points without completed replications are
    left out.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series: dict[tuple[str, str], list[SweepPoint]] = {}
    for p in points:
        series.setdefault((p.scene, p.scenario), []).append(p)
    written = []
    for (scene, scenario) in sorted(series):
        path = plotdata_path(out, scene, scenario)
        lines = ["# nodes seconds"]
        for p in sorted(series[(scene, scenario)], key=lambda p: p.nodes):
            if p.replications:
                lines.append(f"{p.nodes} {p.mean_ms / 1000}")
        _write_lines(path, lines)
        written.append(path)
    return written


def _records_path(out: Path, scene: str, scenario: str) -> Path:
    return out / f"records_{scene}_{scenario}.tsv"


def write_records(records, path) -> None:
    """Write scene records as tab-separated UTF-8 text with a header line."""
    lines = ["\t".join(_RECORD_FIELDS)]
    for r in records:
        lines.append("\t".join(str(getattr(r, name)) for name in _RECORD_FIELDS))
    _write_lines(path, lines)


def build_parser() -> argparse.ArgumentParser:
    plan = ExperimentPlan
    parser = argparse.ArgumentParser(
        prog="cpnsim",
        description="Sweep a raytracing-cluster simulation over node counts "
                    "and scenarios, with replicated seeded runs.",
    )
    parser.add_argument(
        "--scene", action="append", type=_dimensions, metavar="WxH",
        help=f"scene dimensions; repeatable (default: {' and '.join(DEFAULT_SCENES)})",
    )
    parser.add_argument(
        "--tile", type=_dimensions, default=_dimensions(DEFAULT_TILE),
        metavar="WxH", help=f"tile dimensions (default {DEFAULT_TILE})",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--complexity", type=int, default=None, metavar="N",
        help=f"fixed scene complexity (default {DEFAULT_COMPLEXITY})",
    )
    group.add_argument(
        "--complexity-range", type=_int_range, default=None, metavar="LO:HI",
        help="draw each scene's complexity uniformly from [LO, HI]",
    )
    parser.add_argument(
        "--nodes", type=_node_counts, default=plan.node_counts,
        metavar="LIST|RANGE", help="node counts, e.g. 2,5,10 or 1-25 (default "
        f"{plan.node_counts[0]}-{plan.node_counts[-1]})",
    )
    parser.add_argument(
        "--scenario", choices=(*SCENARIOS, "both"), default="both",
        help="which scenarios to run (default both)",
    )
    parser.add_argument(
        "--replications", type=int, default=plan.replications, metavar="N",
        help=f"independent runs per sweep point (default {plan.replications})",
    )
    parser.add_argument(
        "--seed", type=int, default=plan.base_seed, metavar="N",
        help="base seed; every replication derives its own stream "
             f"(default {plan.base_seed})",
    )
    parser.add_argument(
        "--scenes-per-run", type=int, default=plan.scenes_per_run, metavar="N",
        help=f"scenes rendered per replication (default {plan.scenes_per_run})",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("results"), metavar="DIR",
        help="output directory (default ./results)",
    )
    parser.add_argument(
        "--jobs", type=int, default=plan.jobs, metavar="N",
        help=f"worker processes for replications (default {plan.jobs})",
    )
    parser.add_argument(
        "--step-limit", type=int, default=plan.step_limit, metavar="N",
        help="abort a replication after this many engine steps",
    )
    params = parser.add_argument_group("model parameters")
    kinds = typing.get_type_hints(ScenarioParams)
    for name in PARAM_NAMES:
        params.add_argument(
            f"--param-{name}", type=kinds[name], default=None, metavar="X",
            help=f"override ScenarioParams.{name}",
        )
    return parser


def plan_from_args(args: argparse.Namespace) -> ExperimentPlan:
    if args.complexity_range is not None:
        complexity: int | tuple[int, int] = args.complexity_range
    elif args.complexity is not None:
        complexity = args.complexity
    else:
        complexity = DEFAULT_COMPLEXITY
    scene_dims = args.scene or [_dimensions(s) for s in DEFAULT_SCENES]
    tile_w, tile_h = args.tile
    scenes = tuple(
        SceneConfig(w, h, tile_w, tile_h, complexity) for w, h in scene_dims
    )
    scenarios = SCENARIOS if args.scenario == "both" else (args.scenario,)
    overrides = tuple(
        (name, getattr(args, f"param_{name}"))
        for name in PARAM_NAMES
        if getattr(args, f"param_{name}") is not None
    )
    return ExperimentPlan(
        scenes=scenes,
        node_counts=tuple(args.nodes),
        scenarios=scenarios,
        replications=args.replications,
        base_seed=args.seed,
        scenes_per_run=args.scenes_per_run,
        step_limit=args.step_limit,
        jobs=args.jobs,
        param_overrides=overrides,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        plan = plan_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    # Fail before the sweep, not after it, if --out is unusable.
    out: Path = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot create --out directory: {exc}")
    summary = out / "summary.csv"
    for target in [summary] + [
        path(out, scene.label, scenario)
        for scene in plan.scenes for scenario in plan.scenarios
        for path in (plotdata_path, _records_path)
    ]:
        if target.exists() and not target.is_file():
            parser.error(f"cannot write {target}: not a regular file")
    result = run_experiment_detailed(plan)

    emit_csv(result.points, summary)
    emit_plotdata(result.points, out)
    for (scene, scenario), records in sorted(result.records.items()):
        write_records(records, _records_path(out, scene, scenario))

    print(f"wrote {summary}: {len(result.points)} sweep points, "
          f"{len(result.aborted)} aborted replications, "
          f"{len(result.failed)} failed replications")
    for a in result.aborted:
        print(f"  aborted: scene={a.scene} scenario={a.scenario} nodes={a.nodes} "
              f"seed={a.seed}", file=sys.stderr)
    for f in result.failed:
        print(f.traceback, end="", file=sys.stderr)
        print(f"  failed: scene={f.scene} scenario={f.scenario} nodes={f.nodes} "
              f"seed={f.seed}: {f.error}", file=sys.stderr)
    return 1 if result.failed else 0


if __name__ == "__main__":
    sys.exit(main())
