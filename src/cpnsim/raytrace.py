"""Timed CPN model of a demand-driven parallel raytracing cluster.

The cluster renders one scene at a time.  A master node (type 1) ships
the scene to every client node (type 2), cuts the output image into a
list of tiles, and hands tiles out on demand: whenever a node is free
and tiles remain, the next tile is assigned, raytraced, and sent back.
The master itself also renders, at a reduced performance share.  In the
``real`` scenario a client job can fail; the failure is noticed at the
next node-health check, the tile goes back into the work list, and the
failed node spends a long time recovering.  In the ``ideal`` scenario
all nodes are equal and nothing fails.

Places of the net:

- ``newScene``: complexity value of the next scene to render.
- ``nodesNo``: the configured cluster size (read, never changed).
- ``freeNodes``: one token per node currently free.
- ``scStartTime``: firing time of the current scene's ``sendScene``.
- ``preparedTiles``: the work list, a single :class:`WorkList` token
  (timed: it becomes available once scene distribution finishes).  A
  hand-out moves its ``start`` past the head tile and shares the tuple,
  so it copies nothing.
- ``prepTile``: a tile just assigned to a node, not yet started.
- ``raytrTiles``: tiles being raytraced (timed by work + comm delay).
- ``unsrRaytrTiles``: failed tiles waiting for failure detection.
- ``computedTiles``: finished tiles.
- ``invalidNodes``: failed nodes waiting out their recovery delay.

Transitions: ``sendScene`` distributes the scene and builds the tile
list; ``selectTile`` assigns the head tile to a free node;
``sucRtrStart``/``unsucRtrStart`` start a successful/doomed raytrace;
``sendRtrTile`` returns a finished tile and frees its node;
``returnTile`` puts a failed tile back in the list and invalidates its
node; ``recoverNode`` brings a node back; ``completeScene`` fires once
every tile is computed and starts the next scene.

A ``Net`` carries no run state, so :func:`build_net` compiles the net
of a ``(scene, params)`` once and hands the same one to every call with
equal arguments; each call makes a fresh initial marking.

A :class:`SceneMonitor`, attached as a run hook, reads those
transitions and emits one :class:`SceneRecord` per completed scene,
which lasts from the ``scStartTime`` token that ``completeScene``
consumes to that firing and is as complex as its tiles together.  It
never touches the marking or the RNG, so attaching it leaves the event
trace unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple

from cpnsim.engine import (
    All,
    Fired,
    INT_SET,
    Net,
    OutputArc,
    Place,
    SimState,
    StepEvent,
    TransitionSpec,
    Var,
    instance_set,
)
from cpnsim.stochastic import (
    UNIFORM_INT_MAX,
    RngStream,
    bernoulli,
    exponential_int,
    normal_int,
    uniform_int,
)

UNASSIGNED = 0
MASTER = 1
CLIENT = 2

IDEAL = "ideal"
REAL = "real"
SCENARIOS = (IDEAL, REAL)


class Tile(NamedTuple):
    """One rectangular image section rendered as a single job."""

    width: int
    height: int
    complexity: int
    will_succeed: bool
    node_type: int


class Node(NamedTuple):
    """A cluster node; only its type is observable."""

    node_type: int


class WorkList(NamedTuple):
    """The master's work list: the tiles ``tiles[start:]``, head first."""

    tiles: tuple[Tile, ...] = ()
    start: int = 0


def _check_int(field: str, value) -> None:
    """Raise ValueError naming ``field`` unless ``value`` is an int.

    Equal configs share one compiled net (:func:`build_net`), so an int
    field takes no equal float or bool: 5000.0 would stamp float times.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be an int, got {value!r}")


def _check_real(field: str, value) -> None:
    """Raise ValueError naming ``field`` unless ``value`` is a finite int or float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{field} must be an int or a float, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{field} must be finite, got {value}")


@dataclass(frozen=True)
class SceneConfig:
    """Scene geometry plus its complexity, fixed or a uniform range."""

    width: int
    height: int
    tile_width: int
    tile_height: int
    complexity: int | tuple[int, int]

    def __post_init__(self):
        for field in ("width", "height", "tile_width", "tile_height"):
            _check_int(field, getattr(self, field))
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
        if self.tile_width > self.width or self.tile_height > self.height:
            raise ValueError("tile dimensions cannot exceed the scene")
        c = self.complexity
        for bound in c if isinstance(c, tuple) else (c,):
            _check_int("complexity", bound)
        if isinstance(c, tuple):
            if len(c) != 2 or not 0 <= c[0] <= c[1]:
                raise ValueError(f"bad complexity range {c!r}")
            if c[1] > UNIFORM_INT_MAX:  # a range is drawn by uniform_int
                raise ValueError(f"complexity must be <= {UNIFORM_INT_MAX}")
        elif c < 0:
            raise ValueError("complexity must be >= 0")

    @property
    def grid_cols(self) -> int:
        return math.ceil(self.width / self.tile_width)

    @property
    def grid_rows(self) -> int:
        return math.ceil(self.height / self.tile_height)

    @property
    def tile_count(self) -> int:
        return self.grid_cols * self.grid_rows

    @property
    def label(self) -> str:
        return f"{self.width}x{self.height}"

    def draw_complexity(self, rng: RngStream) -> int:
        """The configured complexity, drawing it if a range was given."""
        if isinstance(self.complexity, tuple):
            return uniform_int(rng, self.complexity[0], self.complexity[1])
        return self.complexity


@dataclass(frozen=True)
class ScenarioParams:
    """Cluster size, scenario switch, and every calibration constant."""

    node_count: int
    scenario: str
    master_perf: float = 0.7
    client_success_p: float = 0.9
    send_mean_ms: float = 20000
    send_var: float = 10000
    comm_mean_ms: float = 500
    chck_per_ms: int = 5000
    chck_max_mult: int = 6
    recovery_max_ms: int = 86_400_000
    work_ms_per_complexity: float = 50.0
    work_ms_per_kilopixel: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int":
                _check_int(f.name, getattr(self, f.name))
            elif f.type == "float":
                _check_real(f.name, getattr(self, f.name))
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        if not 0 < self.master_perf <= 1:
            raise ValueError("master_perf must be in (0, 1]")
        if not 0 <= self.client_success_p <= 1:
            raise ValueError("client_success_p must be a probability")
        for field in ("send_mean_ms", "send_var", "comm_mean_ms",
                      "work_ms_per_complexity", "work_ms_per_kilopixel"):
            # -0.0 too: a numpy normal draw of scale sqrt(-0.0) raises.
            value = getattr(self, field)
            if math.copysign(1, value) < 0:
                raise ValueError(f"{field} must be >= 0, got {value}")
        for field in ("chck_per_ms", "chck_max_mult", "recovery_max_ms"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
        for field in ("chck_max_mult", "recovery_max_ms"):  # uniform_int bounds
            if getattr(self, field) > UNIFORM_INT_MAX:
                raise ValueError(f"{field} must be <= {UNIFORM_INT_MAX}")


def tile_complexity(remaining_tiles: int, remaining_complexity: int,
                    rng: RngStream) -> int:
    """Complexity share of the next tile.

    The share is drawn around 0.8x the even split, with the last tile
    absorbing whatever remains, so iterating over a whole tile list
    conserves the scene complexity exactly.
    """
    if remaining_tiles < 0 or remaining_complexity < 0:
        raise ValueError("arguments must be non-negative")
    if remaining_tiles == 0:
        return 0
    if remaining_tiles == 1:
        return remaining_complexity
    if remaining_complexity == 0:
        return 0
    target = remaining_complexity / remaining_tiles
    share = normal_int(rng, target * 0.8, target * 0.7)
    return share if remaining_complexity > share else remaining_complexity


def make_tile_list(scene: SceneConfig, complexity: int,
                   rng: RngStream) -> tuple[Tile, ...]:
    """Cut the scene into a row-major grid of unassigned tiles.

    Interior tiles have the configured tile dimensions; the last row
    and column carry the remainders.  The scene complexity is spread
    over the tiles via :func:`tile_complexity` and sums back exactly.
    """
    cols, rows = scene.grid_cols, scene.grid_rows
    widths = [scene.tile_width] * (cols - 1)
    widths.append(scene.width - scene.tile_width * (cols - 1))
    heights = [scene.tile_height] * (rows - 1)
    heights.append(scene.height - scene.tile_height * (rows - 1))

    tiles = []
    remaining = cols * rows
    budget = complexity
    for h in heights:
        for w in widths:
            share = tile_complexity(remaining, budget, rng)
            tiles.append(Tile(w, h, share, True, UNASSIGNED))
            budget -= share
            remaining -= 1
    return tuple(tiles)


def assign_tile(tile: Tile, node: Node, params: ScenarioParams,
                rng: RngStream) -> Tile:
    """Bind a tile to a node and decide whether the attempt succeeds.

    The master never fails and the ideal scenario never fails; a client
    job in the real scenario succeeds with ``client_success_p``.
    """
    if node.node_type == MASTER or params.scenario == IDEAL:
        success = True
    else:
        success = bernoulli(rng, params.client_success_p)
    return Tile(tile.width, tile.height, tile.complexity, success,
                node.node_type)


def raytrace_ms(tile: Tile, params: ScenarioParams) -> int:
    """Deterministic raytracing time of an assigned tile.

    Cost is linear in pixels and in complexity; in the real scenario
    the master contributes only ``master_perf`` of a full node.
    """
    if tile.node_type not in (MASTER, CLIENT):
        raise ValueError(f"tile not assigned to a node: {tile!r}")
    perf = 1.0
    if tile.node_type == MASTER and params.scenario == REAL:
        perf = params.master_perf
    work = (params.work_ms_per_kilopixel * tile.width * tile.height / 1000
            + params.work_ms_per_complexity * tile.complexity)
    return round(work / perf)


def check_durations(scene: SceneConfig, params: ScenarioParams) -> None:
    """Raise ValueError if a duration the model computes can overflow.

    The longest raytrace is of a full-size tile on the master that holds
    all of the scene's largest complexity.  The exponential and normal
    draws need headroom: 1000 times the mean of the one, and the mean
    plus 1000 standard deviations of the other, must be finite.
    """
    c = scene.complexity
    longest = Tile(scene.tile_width, scene.tile_height,
                   c[1] if isinstance(c, tuple) else c, True, MASTER)
    for what, bound in (
            (f"the raytrace time of a tile of scene {scene.label}",
             lambda: raytrace_ms(longest, params)),
            ("1000 * comm_mean_ms", lambda: 1000 * params.comm_mean_ms),
            ("send_mean_ms + 1000 * sqrt(send_var)",
             lambda: params.send_mean_ms + 1000 * math.sqrt(params.send_var))):
        try:
            finite = math.isfinite(bound())
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{what} overflows in the {params.scenario} scenario")


def comm_delay_ms(params: ScenarioParams, rng: RngStream) -> int:
    """Exponential delay for contacting the master and shipping a tile."""
    if params.comm_mean_ms == 0:
        return 0
    return exponential_int(rng, params.comm_mean_ms)


def failure_detect_ms(params: ScenarioParams, rng: RngStream) -> int:
    """Time until a dead node is noticed: a whole number of check periods."""
    return params.chck_per_ms * uniform_int(rng, 1, params.chck_max_mult)


def recovery_ms(params: ScenarioParams, rng: RngStream) -> int:
    """Node recovery time, uniform up to the configured bound."""
    return uniform_int(rng, 1, params.recovery_max_ms)


def _reset(tile: Tile) -> Tile:
    return Tile(tile.width, tile.height, tile.complexity, True, UNASSIGNED)


# Nets kept compiled: a sweep runs every replication of one point
# before the next point, so a few cover it.
_NETS_CACHED = 8


@lru_cache(maxsize=_NETS_CACHED)
def _compiled_net(scene: SceneConfig, params: ScenarioParams) -> Net:
    """The raytracing net of ``(scene, params)``, compiled once."""
    tile_set = instance_set("TILE", Tile)
    node_set = instance_set("NODE", Node)
    work_set = instance_set("TILELIST", WorkList)

    return Net([
        Place("newScene", INT_SET),
        Place("nodesNo", INT_SET),
        Place("freeNodes", node_set),
        Place("scStartTime", INT_SET),
        Place("preparedTiles", work_set, timed=True),
        Place("prepTile", tile_set),
        Place("raytrTiles", tile_set, timed=True),
        Place("unsrRaytrTiles", tile_set, timed=True),
        Place("computedTiles", tile_set),
        Place("invalidNodes", node_set, timed=True),
    ], [
        # Distribution of the scene is sequential over the client nodes, so
        # the work list only becomes available after (n - 1) transfers.
        TransitionSpec(
            "sendScene",
            inputs=[("newScene", Var("cmpl")),
                    ("nodesNo", Var("n_nodes")),
                    ("preparedTiles", Var("prev"))],
            outputs=[
                OutputArc("nodesNo", lambda v, s: v["n_nodes"]),
                OutputArc("scStartTime", lambda v, s: s.now),
                OutputArc(
                    "preparedTiles",
                    lambda v, s: WorkList(make_tile_list(scene, v["cmpl"], s.rng)),
                    delay=lambda v, s: (v["n_nodes"] - 1)
                    * normal_int(s.rng, params.send_mean_ms, params.send_var),
                ),
            ],
        ),

        TransitionSpec(
            "selectTile",
            inputs=[("freeNodes", Var("node")),
                    ("preparedTiles", Var("work"))],
            guard=lambda v: v["work"].start < len(v["work"].tiles),
            outputs=[
                OutputArc(
                    "prepTile",
                    lambda v, s: assign_tile(v["work"].tiles[v["work"].start],
                                             v["node"], params, s.rng),
                ),
                OutputArc(
                    "preparedTiles",
                    lambda v, s: WorkList(v["work"].tiles, v["work"].start + 1),
                ),
            ],
        ),

        TransitionSpec(
            "sucRtrStart",
            inputs=[("prepTile", Var("tile"))],
            guard=lambda v: v["tile"].will_succeed,
            outputs=[
                OutputArc(
                    "raytrTiles",
                    lambda v, s: v["tile"],
                    delay=lambda v, s: raytrace_ms(v["tile"], params)
                    + comm_delay_ms(params, s.rng),
                ),
            ],
        ),

        TransitionSpec(
            "unsucRtrStart",
            inputs=[("prepTile", Var("tile"))],
            guard=lambda v: not v["tile"].will_succeed,
            outputs=[
                OutputArc(
                    "unsrRaytrTiles",
                    lambda v, s: v["tile"],
                    delay=lambda v, s: failure_detect_ms(params, s.rng),
                ),
            ],
        ),

        TransitionSpec(
            "sendRtrTile",
            inputs=[("raytrTiles", Var("tile"))],
            outputs=[
                OutputArc("computedTiles", lambda v, s: v["tile"]),
                OutputArc("freeNodes", lambda v, s: Node(v["tile"].node_type)),
            ],
        ),

        TransitionSpec(
            "returnTile",
            inputs=[("unsrRaytrTiles", Var("tile")),
                    ("preparedTiles", Var("work"))],
            outputs=[
                OutputArc(
                    "preparedTiles",
                    lambda v, s: WorkList(v["work"].tiles[v["work"].start:]
                                          + (_reset(v["tile"]),)),
                ),
                OutputArc(
                    "invalidNodes",
                    lambda v, s: Node(v["tile"].node_type),
                    delay=lambda v, s: recovery_ms(params, s.rng),
                ),
            ],
        ),

        TransitionSpec(
            "recoverNode",
            inputs=[("invalidNodes", Var("node"))],
            outputs=[OutputArc("freeNodes", lambda v, s: v["node"])],
        ),

        # The whole tile population must sit in computedTiles and the work
        # list must be empty; tile conservation then guarantees nothing is
        # still assigned, raytracing, or awaiting failure detection.  The
        # next scene's work list is the empty one, not the drained tuple.
        TransitionSpec(
            "completeScene",
            inputs=[("computedTiles", All("done", require=scene.tile_count)),
                    ("preparedTiles", Var("work")),
                    ("scStartTime", Var("started"))],
            guard=lambda v: v["work"].start == len(v["work"].tiles),
            outputs=[
                OutputArc("newScene", lambda v, s: scene.draw_complexity(s.rng)),
                OutputArc("preparedTiles", lambda v, s: WorkList()),
            ],
        ),
    ])


def build_net(scene: SceneConfig, params: ScenarioParams,
              rng: RngStream) -> tuple[Net, dict[str, list]]:
    """The raytracing net plus its initial marking.

    A ``Net`` carries no run state, so every call with equal ``(scene,
    params)`` returns the same compiled net; only the marking, a dict of
    place names to tokens, is made per call.  It holds the first scene's
    complexity (drawn from ``rng`` if it is a range), the cluster size,
    one master and ``node_count - 1`` client nodes, and an empty work
    list; only ``sendScene`` is enabled at time 0.
    """
    return _compiled_net(scene, params), {
        "newScene": [scene.draw_complexity(rng)],
        "nodesNo": [params.node_count],
        "freeNodes": [Node(MASTER)] + [Node(CLIENT)] * (params.node_count - 1),
        "preparedTiles": [(WorkList(), 0)],
    }


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
            self._peak_busy = self._busy
            self._failures = 0
        elif name == "completeScene":
            self.records.append(
                SceneRecord(
                    scene_index=len(self.records),
                    duration_ms=event.time - event.assignment["started"],
                    node_count=state.tokens("nodesNo")[0][0],
                    nodes_used=self._peak_busy,
                    failures=self._failures,
                    complexity=sum(t.complexity for t in event.assignment["done"]),
                    seed=state.rng.label,
                )
            )


def attach_scene_monitor(hooks: list) -> SceneMonitor:
    """Create a scene monitor and register it in ``hooks``."""
    monitor = SceneMonitor()
    hooks.append(monitor)
    return monitor
