"""Observation-only data collection for raytracing runs.

A scene monitor is a run hook that watches the event stream and emits
one :class:`SceneRecord` per completed scene.  Monitors never touch the
marking or the RNG, so attaching any number of them leaves the event
trace unchanged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from cpnsim.engine import Fired, SimState, StepEvent

_HEADER = (
    "scene_index",
    "duration_ms",
    "node_count",
    "nodes_used",
    "failures",
    "complexity",
    "seed",
)


@dataclass(frozen=True)
class SceneRecord:
    """One completed scene as observed by the monitor.

    ``nodes_used`` is the peak number of simultaneously busy nodes;
    with interchangeable node tokens that is the number of distinct
    nodes the scene actually needed.  ``seed`` is the seed path label
    of the run that produced the record.
    """

    scene_index: int
    duration_ms: int
    node_count: int
    nodes_used: int
    failures: int
    complexity: int
    seed: str


class SceneMonitor:
    """Collects a SceneRecord per completed scene; use as a run hook."""

    def __init__(self):
        self.records: list[SceneRecord] = []
        self.scenes_completed = 0
        self._start_ms = None
        self._complexity = None
        self._busy = 0
        self._peak_busy = 0
        self._failures = 0

    def __call__(self, state: SimState, event: StepEvent) -> None:
        if type(event) is not Fired:
            return
        name = event.transition
        if name == "selectTile":
            self._busy += 1
            if self._busy > self._peak_busy:
                self._peak_busy = self._busy
        elif name in ("sendRtrTile", "returnTile"):
            self._busy -= 1
        elif name == "unsucRtrStart":
            self._failures += 1
        elif name == "sendScene":
            self._start_ms = event.time
            self._complexity = event.assignment["cmpl"]
            self._peak_busy = self._busy
            self._failures = 0
        elif name == "completeScene":
            node_count = state.tokens("nodesNo")[0][0]
            self.records.append(
                SceneRecord(
                    scene_index=self.scenes_completed,
                    duration_ms=event.time - self._start_ms,
                    node_count=node_count,
                    nodes_used=self._peak_busy,
                    failures=self._failures,
                    complexity=self._complexity,
                    seed=state.rng.label,
                )
            )
            self.scenes_completed += 1


def attach_scene_monitor(hooks: list) -> SceneMonitor:
    """Create a scene monitor and register it in ``hooks``."""
    monitor = SceneMonitor()
    hooks.append(monitor)
    return monitor


def write_records(records, path) -> None:
    """Write records as tab-separated UTF-8 text with a header line."""
    lines = ["\t".join(_HEADER)]
    for r in records:
        lines.append(
            "\t".join(str(getattr(r, name)) for name in _HEADER)
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records(path) -> list[SceneRecord]:
    """Parse a file written by :func:`write_records`."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or tuple(lines[0].split("\t")) != _HEADER:
        raise ValueError(f"{os.fspath(path)}: not a scene-record file")
    types = {f.name: f.type for f in fields(SceneRecord)}
    out = []
    for line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != len(_HEADER):
            raise ValueError(f"{os.fspath(path)}: malformed row {line!r}")
        kwargs = {
            name: (part if types[name] == "str" else int(part))
            for name, part in zip(_HEADER, parts)
        }
        out.append(SceneRecord(**kwargs))
    return out
