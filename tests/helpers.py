"""Example nets and instrumentation shared by several test modules."""

from __future__ import annotations

import copy

from cpnsim.engine import (
    Fired,
    Net,
    OutputArc,
    Place,
    SimState,
    TransitionSpec,
    Var,
    step,
)


def build_guard_net():
    """Two input places feeding one guarded transition.

    p1 and p2 hold integers; tt binds x from p1 and y from p2 and fires
    only when x > y, emitting x + y into p3.
    """
    return Net(
        [Place("p1", int), Place("p2", int), Place("p3", int)],
        [TransitionSpec(
            "tt",
            inputs=[("p1", Var("x")), ("p2", Var("y"))],
            guard=lambda v: v["x"] > v["y"],
            outputs=[OutputArc("p3", lambda v, s: v["x"] + v["y"])],
        )],
    )


def build_delay_net(with_consumer: bool, delay: int = 10):
    """A timed chain: tp1 -> tt1(+delay ms) -> tp2, optionally -> tt2 -> tp3.

    Without the consumer the token parked in tp2 never enables anything
    and the net dies right after the single tt1 firing.
    """
    places = [Place("tp1", int, timed=True), Place("tp2", int, timed=True)]
    transitions = [TransitionSpec(
        "tt1",
        inputs=[("tp1", Var("x"))],
        outputs=[OutputArc("tp2", lambda v, s: v["x"], delay=delay)],
    )]
    if with_consumer:
        places.append(Place("tp3", int, timed=True))
        transitions.append(TransitionSpec(
            "tt2",
            inputs=[("tp2", Var("x"))],
            outputs=[OutputArc("tp3", lambda v, s: v["x"])],
        ))
    return Net(places, transitions), {"tp1": [(1, 0)]}


def refresh_memos(net, state):
    """Rebuild the stale memos as a step does; ``(n, last)`` of them.

    ``n`` is the number of enabled bindings and ``last`` the index of
    the last transition with a non-empty memo (-1 when ``n`` is 0).
    """
    cache = state.cache
    for t_idx, t in enumerate(net.transitions):
        if cache[t_idx] is None:
            cache[t_idx] = t.bindings(state.store, state.now)
    lengths = [len(memo) for memo in cache]
    return sum(lengths), max((i for i, k in enumerate(lengths) if k), default=-1)


class _Picked(Exception):
    """Stops a step of :func:`loop_pass` at its draw."""


class PickProbe:
    """A copy of a stream whose ``pick(n)`` records ``n`` and stops the step."""

    def __init__(self, rng):
        self.rng = copy.deepcopy(rng)
        self.n = None

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def pick(self, n):
        self.n = n
        raise _Picked


def loop_pass(net, state):
    """``(n, last)`` as one step of the net's generated loop finds them.

    The step runs on a copy of ``state`` that keeps its memos, stale
    ones included, so the loop rebuilds the ones a step of ``state``
    would; ``state`` is left as it was.  With two or more bindings
    enabled the copy's stream records ``n`` and stops the step before it
    fires; with one the step fires it, and its event names ``last``;
    with none it advances time or finds the marking dead.
    """
    probe = SimState(net, {}, PickProbe(state.rng), now=state.now)
    probe.store = [list(tokens) for tokens in state.store]
    probe.cache = list(state.cache)
    try:
        event = step(net, probe)
    except _Picked:
        return probe.rng.n, max(
            i for i, memo in enumerate(probe.cache) if memo)
    if type(event) is Fired:
        return 1, net.transition_index[event.transition]
    return 0, -1


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
