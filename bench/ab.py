"""Alternating fresh-process pairs of perfbench sweeps: a revision against the checkout.

    python3 bench/ab.py --base REV [--pairs N] [--label LABEL]

Each pair runs ``perfbench/sweep.py --mode plain`` twice, as a script in
a fresh interpreter: once in a ``git archive REV`` copy of the
repository (side ``base``) and once in this checkout (side
``checkout``), each with its own ``src/``, for each of perfbench's
three workloads.  Both get the workload's cpnsim argv with ``--seed 1``;
the order of the two is drawn at random per pair from the same seed.  Every child is pinned to one CPU, the
same for all, with ``os.sched_setaffinity``, and runs with
``PYTHONHASHSEED=0`` and ``PYTHONDONTWRITEBYTECODE=1``, so that neither
side reads byte code the other lacks.  The two sweeps of a pair must
report the same output digests and step counts, or the script stops
with exit status 1 and writes nothing.

It writes ``BENCH_<label>.json`` at the repository root: the
interpreter, numpy version, core count, both revisions with a sha256 of
each side's ``src/``, the seed, and per workload every pair's
``wall_s``, ``steps_per_s`` and ``peak_rss_mb`` (as perfbench defines
them), each side's median and quartiles, and the pairs that the
checkout won.  A gain holds, as ``gain_holds`` records, when the
checkout wins at least nine tenths of the pairs and the medians differ
by more than the distance between the base side's quartiles.

The script imports nothing from ``perfbench/`` and writes nothing
there; the sweeps write their output files to a temporary directory.
The workloads' argv are read from the text of the ``WORKLOADS`` table
in the checkout's ``perfbench/run.py``, so both measure the same runs.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent

SEED = 1

# Metric name and whether higher is better.
METRICS = {"wall_s": False, "steps_per_s": True, "peak_rss_mb": False}

SIDES = ("base", "checkout")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def workloads() -> dict[str, list[str]]:
    """The ``WORKLOADS`` literal of ``perfbench/run.py``, read as text."""
    module = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in module.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["WORKLOADS"]):
            return ast.literal_eval(node.value)
    raise SystemExit("ab: perfbench/run.py has no WORKLOADS table")


def export(rev: str, into: Path) -> None:
    """Extract the tree of ``rev`` into ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def src_digest(tree: Path) -> str:
    """sha256 over the paths and bytes of every ``.py`` file under ``tree/src``."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def sweep(tree: Path, argv: list[str], out: Path, cpu: int) -> dict:
    """One plain perfbench sweep of ``tree`` on ``cpu``; its report plus steps_per_s."""
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "sweep.py"), "--mode", "plain",
         "--out", str(out), "--", *argv],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    report = json.loads(child.stdout.splitlines()[-1])
    if report["raised"] or report["aborted"] or report["problems"]:
        raise SystemExit(f"ab: a sweep of {tree} failed:\n{child.stderr}")
    report["steps_per_s"] = (report["fired"] + report["advances"]) / report["wall_s"]
    return report


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs: list[dict]) -> dict:
    """Each side's summary per metric, the checkout's wins and the verdict."""
    result = {}
    for metric, higher in METRICS.items():
        sides = {side: summary([p[side][metric] for p in pairs]) for side in SIDES}
        wins = sum((p["checkout"][metric] > p["base"][metric]) == higher
                   and p["checkout"][metric] != p["base"][metric] for p in pairs)
        base, new = sides["base"], sides["checkout"]
        gain = (new["median"] - base["median"]) * (1 if higher else -1)
        result[metric] = {
            **sides,
            "checkout_over_base": new["median"] / base["median"],
            "checkout_wins": wins,
            "gain_holds": wins >= 0.9 * len(pairs) and gain > base["q3"] - base["q1"],
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", default="ab", help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.pairs < 4:
        parser.error("--pairs must be 4 or more, for quartiles")
    order = random.Random(SEED)
    cpu = min(os.sched_getaffinity(0))

    work = Path(tempfile.mkdtemp(prefix="cpnsim-ab-"))
    try:
        trees = {"base": work / "base", "checkout": ROOT}
        export(args.base, trees["base"])
        report = {
            "command": ["python3", "bench/ab.py", *(argv or sys.argv[1:])],
            "interpreter": platform.python_implementation() + " "
                           + platform.python_version(),
            "numpy": numpy.__version__,
            "cores": os.cpu_count(),
            "pinned_cpu": cpu,
            "seed": SEED,
            "base": {"rev": args.base, "commit": git("rev-parse", args.base),
                     "src_sha256": src_digest(trees["base"])},
            "checkout": {"commit": git("rev-parse", "HEAD"),
                         "dirty": bool(git("status", "--porcelain", "--", "src")),
                         "src_sha256": src_digest(ROOT)},
            "workloads": {},
        }
        for name, argv_w in workloads().items():
            argv_w = [*argv_w, "--seed", str(SEED)]
            pairs = []
            for i in range(args.pairs):
                first = order.choice(SIDES)
                pair = {"first": first}
                for side in (first, *(s for s in SIDES if s != first)):
                    out = work / "out" / side
                    pair[side] = sweep(trees[side], argv_w, out, cpu)
                    shutil.rmtree(out)
                for key in ("files", "fired", "advances"):
                    if pair["base"][key] != pair["checkout"][key]:
                        raise SystemExit(f"ab: {name} pair {i}: the two sides "
                                         f"differ in {key}")
                pairs.append({"first": first, **{
                    side: {m: pair[side][m] for m in METRICS} for side in SIDES}})
                print(f"{name} pair {i}: " + ", ".join(
                    f"{side} {pair[side]['wall_s']:.3f} s" for side in SIDES),
                    file=sys.stderr)
            report["workloads"][name] = {
                "argv": argv_w,
                "steps": pair["base"]["fired"] + pair["base"]["advances"],
                "pairs": pairs,
                "metrics": compare(pairs),
            }
    finally:
        shutil.rmtree(work)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
