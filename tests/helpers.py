"""Example nets and instrumentation shared by several test modules."""

from __future__ import annotations

from cpnsim.engine import (
    INT_SET,
    Fired,
    NetBuilder,
    OutputArc,
    Var,
)


def build_guard_net():
    """Two input places feeding one guarded transition.

    p1 and p2 hold integers; tt binds x from p1 and y from p2 and fires
    only when x > y, emitting x + y into p3.
    """
    b = NetBuilder()
    b.place("p1", INT_SET)
    b.place("p2", INT_SET)
    b.place("p3", INT_SET)
    b.transition(
        "tt",
        inputs=[("p1", Var("x")), ("p2", Var("y"))],
        guard=lambda v: v["x"] > v["y"],
        outputs=[OutputArc("p3", lambda v, s: v["x"] + v["y"])],
    )
    return b.build()


def build_delay_net(with_consumer: bool, delay: int = 10):
    """A timed chain: tp1 -> tt1(+delay ms) -> tp2, optionally -> tt2 -> tp3.

    Without the consumer the token parked in tp2 never enables anything
    and the net dies right after the single tt1 firing.
    """
    b = NetBuilder()
    b.place("tp1", INT_SET, timed=True)
    b.place("tp2", INT_SET, timed=True)
    b.transition(
        "tt1",
        inputs=[("tp1", Var("x"))],
        outputs=[OutputArc("tp2", lambda v, s: v["x"], delay=delay)],
    )
    if with_consumer:
        b.place("tp3", INT_SET, timed=True)
        b.transition(
            "tt2",
            inputs=[("tp2", Var("x"))],
            outputs=[OutputArc("tp3", lambda v, s: v["x"])],
        )
    net = b.build()
    return net, {"tp1": [(1, 0)]}


class TraceHook:
    """Records (event type name, transition or None, time) per step."""

    def __init__(self):
        self.events = []

    def __call__(self, state, event):
        name = event.transition if type(event) is Fired else None
        self.events.append((type(event).__name__, name, event.time))


class RaytraceInvariantHook:
    """Asserts node/tile/complexity conservation after every step.

    Node conservation holds at every reachable marking; tile and
    complexity conservation are scoped to a scene, between a sendScene
    firing and the completeScene that closes it.
    """

    FAILURE_PATH = ("unsucRtrStart", "returnTile", "recoverNode")

    def __init__(self, scene, params):
        self.scene = scene
        self.params = params
        self.in_scene = False
        self.scene_complexity = None
        self.failure_firings = 0
        self.checks = 0

    def __call__(self, state, event):
        if type(event) is Fired:
            if event.transition == "sendScene":
                self.in_scene = True
                self.scene_complexity = event.assignment["cmpl"]
            elif event.transition == "completeScene":
                # Conservation is scoped up to, not past, this firing:
                # it just drained computedTiles into nothing.
                self.in_scene = False
            if event.transition in self.FAILURE_PATH:
                self.failure_firings += 1

        busy = (state.count("prepTile") + state.count("raytrTiles")
                + state.count("unsrRaytrTiles"))
        free = state.count("freeNodes")
        invalid = state.count("invalidNodes")
        assert busy + free + invalid == self.params.node_count, (
            "node conservation violated")

        lists = state.tokens("preparedTiles")
        assert state.count("preparedTiles") == 1 and lists[0][2] == 1, (
            "preparedTiles must hold exactly one list token")
        work = lists[0][0]
        queued = work.tiles[work.start:]

        if self.in_scene:
            total = len(queued) + busy + state.count("computedTiles")
            assert total == self.scene.tile_count, "tile conservation violated"
            cmpl = sum(t.complexity for t in queued)
            for place in ("prepTile", "raytrTiles", "unsrRaytrTiles",
                          "computedTiles"):
                cmpl += sum(v.complexity * c for v, _ts, c in state.tokens(place))
            assert cmpl == self.scene_complexity, (
                "complexity conservation violated")
            if self.params.scenario == "real":
                for v, _ts, _c in state.tokens("unsrRaytrTiles"):
                    assert v.node_type != 1, "a master tile failed"
        self.checks += 1
