"""Differential check: memoised enumeration equals stateless enumeration.

``step`` enumerates through per-transition memos that firings and time
advances invalidate, and advances time to the least pending timestamp
it reads off the sorted timed places.  After every step of a run, the
memos, read in transition order, must equal a fresh stateless
enumeration of the same marking and an enumeration written here from
the transitions' declarations alone.  On generated nets, every time
advance must also land where :func:`advance_time`, a rescan of every
pending token with stateless enumeration, says.  A pick of ``k`` must
fire the k-th binding of the stateless enumeration, a lone binding
must fire without a pick, and two Var arcs must enumerate like the
general product.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from cpnsim.engine import (
    INT_SET,
    All,
    DeadMarking,
    Fired,
    NetBuilder,
    OutputArc,
    SimState,
    TimeAdvanced,
    Var,
    _refresh_memos,
    advance_time,
    enabled_bindings,
    enumerate_bindings,
    run,
    step,
)
from cpnsim.raytrace import IDEAL, REAL, ScenarioParams, SceneConfig, build_net
from cpnsim.stochastic import RngStream, uniform_int

from helpers import TraceHook, build_delay_net, build_guard_net

TINY = SceneConfig(4_000, 3_000, 1_000, 750, 1_000)


def reference_bindings(net, store, now):
    """Every enabled (transition index, assignment), from the declarations.

    Uses nothing of the kernel: transitions in name order; a Var arc's
    candidates are its place's sorted distinct ready values, an All
    arc's value the sorted tuple of its ready values (the arc needs
    exactly its count of tokens, all ready); assignments are the plain
    product, All variables first, then the guard.
    """
    found = []
    for t_idx, t in sorted(enumerate(net.transitions),
                           key=lambda entry: entry[1].spec.name):
        fixed, var_names, candidates = {}, [], []
        whole = True
        for place, pattern in t.spec.inputs:
            tokens = store[net.place_index[place]]
            ready = sorted(value for value, ts in tokens if ts <= now)
            if type(pattern) is All:
                whole = whole and (
                    len(tokens) == len(ready) == pattern.require)
                fixed[pattern.name] = tuple(ready)
            else:
                var_names.append(pattern.name)
                candidates.append([v for i, v in enumerate(ready)
                                   if i == 0 or ready[i - 1] != v])
        if not whole:
            continue
        for values in itertools.product(*candidates):
            assign = dict(fixed)
            assign.update(zip(var_names, values))
            if t.spec.guard is None or t.spec.guard(assign):
                found.append((t_idx, assign))
    return found


def check_state(net, state):
    """The memos agree with the marking."""
    n, last = _refresh_memos(net, state)
    memos = [(t_idx, assign) for t_idx, memo in enumerate(state.cache)
             for assign in memo]
    assert len(memos) == n
    assert last == (memos[-1][0] if memos else -1)
    assert memos == enumerate_bindings(net, state.store, state.now)
    reference = reference_bindings(net, state.store, state.now)
    assert memos == reference
    assert [list(a.items()) for _t, a in memos] == [
        list(a.items()) for _t, a in reference]


class MemoCheckHook:
    """Runs :func:`check_state` after every step.

    Draws nothing from the run's random stream.  Filling the memos here
    changes nothing either: the next step enumerates the same marking.
    """

    def __init__(self, net):
        self.net = net
        self.fired = set()
        self.advances = 0

    def __call__(self, state, event):
        check_state(self.net, state)
        if type(event) is Fired:
            self.fired.add(event.transition)
        elif type(event) is TimeAdvanced:
            self.advances += 1


def checked_run(net, marking, seed, stop=None):
    """Run under the check, from a checked start, and return the check's hook.

    A second, unchecked run from the same marking and seed must give the
    same event trace.
    """
    hook, checked, bare = MemoCheckHook(net), TraceHook(), TraceHook()
    state = SimState(net, marking, RngStream(seed))
    check_state(net, state)
    run(net, state, stop, [hook, checked])
    run(net, SimState(net, marking, RngStream(seed)), stop, [bare])
    assert checked.events == bare.events
    return hook


def scene_done(state, event):
    return type(event) is Fired and event.transition == "completeScene"


class TestEnumerationMemo:
    def test_guard_net(self):
        net = build_guard_net()
        marking = {"p1": [1, 2, 2, 3, 5], "p2": [1, 1, 2, 4]}
        for seed in range(5):
            assert checked_run(net, marking, seed).fired == {"tt"}

    def test_delay_net(self):
        for with_consumer in (False, True):
            hook = checked_run(*build_delay_net(with_consumer), seed=1)
            assert hook.advances == (1 if with_consumer else 0)

    def test_zero_delay_output_is_ready_at_once(self):
        # tt1 does not consume from tp2, so only the zero-delay output
        # can tell tt2's memo that tp2 changed: a constant delay at
        # build time, a delay function that returns 0 at run time.
        for delay in (0, lambda v, s: 0):
            hook = checked_run(*build_delay_net(True, delay=delay), seed=1)
            assert hook.fired == {"tt1", "tt2"}
            assert hook.advances == 0

    def test_raytrace_ideal_scene(self):
        p = ScenarioParams(node_count=8, scenario=IDEAL)
        for seed in range(3):
            net, marking = build_net(TINY, p, RngStream(seed))
            hook = checked_run(net, marking, seed, scene_done)
            assert "completeScene" in hook.fired
            assert hook.advances > 0

    def test_raytrace_real_scene_with_failures(self):
        # Recoveries take up to a day by default, so the scene completes
        # before any failed node comes back; the 10 s bound reaches them.
        fired, advances = set(), 0
        for p, seed in itertools.product(
                (ScenarioParams(node_count=25, scenario=REAL),
                 ScenarioParams(node_count=25, scenario=REAL,
                                recovery_max_ms=10_000)),
                range(5)):
            net, marking = build_net(TINY, p, RngStream(seed))
            hook = checked_run(net, marking, seed, scene_done)
            fired |= hook.fired
            advances += hook.advances
        assert {"unsucRtrStart", "returnTile", "recoverNode"} <= fired
        assert advances > 0


class PickStub:
    """Stands in for a run's stream: ``pick`` returns a fixed index."""

    def __init__(self, k, n):
        self.k = k
        self.n = n

    def pick(self, n):
        assert n == self.n
        return self.k


class NoPick:
    """A stream that must not be drawn from."""

    def pick(self, n):
        raise AssertionError(f"pick({n}) with one binding enabled")


class TestStepReadsTheMemos:
    @staticmethod
    def gapped_net():
        """Transitions a, b, c in that order; b is not enabled at first.

        a has one Var arc, c two Var arcs on different places, so the
        memos read [2 bindings, none, 4 bindings].
        """
        b = NetBuilder()
        for p in ("p0", "p1", "p2"):
            b.place(p, INT_SET)
        b.transition("a", [("p0", Var("x"))], [])
        b.transition("b", [("p1", Var("x"))], [], guard=lambda v: v["x"] > 5)
        b.transition("c", [("p2", Var("x")), ("p0", Var("y"))],
                     [OutputArc("p1", lambda v, s: v["x"] + v["y"])])
        net = b.build()
        return net, {"p0": [2, 1, 2], "p1": [3], "p2": [5, 4]}

    def test_the_kth_pick_fires_the_kth_binding(self):
        net, marking = self.gapped_net()
        state = SimState(net, marking, PickStub(0, 6))
        assert _refresh_memos(net, state) == (6, 2)
        assert [len(memo) for memo in state.cache] == [2, 0, 4]
        for k in range(6):
            state = SimState(net, marking, PickStub(k, 6))
            name, binding = enabled_bindings(net, state)[k]
            assert step(net, state) == Fired(name, binding, 0)

    def test_one_binding_fires_without_a_pick(self):
        # Only b, the second transition, is enabled: a's and c's memos
        # are empty on either side of it.
        net, _marking = self.gapped_net()
        marking = {"p1": [3, 7]}
        state = SimState(net, marking, NoPick())
        assert _refresh_memos(net, state) == (1, 1)
        assert step(net, state) == Fired("b", {"x": 7}, 0)
        assert state.tokens("p1") == [(3, None, 1)]

    def test_two_var_arcs_enumerate_like_the_general_product(self):
        # Several candidates per arc, repeated values, pending tokens, a
        # guard that rejects some pairs, and both arc orders.
        b = NetBuilder()
        b.place("p1", INT_SET)
        b.place("p2", INT_SET, timed=True)
        b.place("out", INT_SET)

        def guard(v):
            return (v["x"] + v["y"]) % 3 != 0

        b.transition("xy", [("p1", Var("x")), ("p2", Var("y"))],
                     [OutputArc("out", lambda v, s: v["x"])], guard=guard)
        b.transition("yx", [("p2", Var("y")), ("p1", Var("x"))],
                     [OutputArc("out", lambda v, s: v["y"])], guard=guard)
        net = b.build()
        marking = {"p1": [3, 1, 2, 2, 1],
                   "p2": [(4, 0), (0, 0), (4, 5), (7, 9), (2, 1)]}
        store, now = SimState(net, marking, RngStream(0)).store, 2
        expected = reference_bindings(net, store, now)
        got = enumerate_bindings(net, store, now)
        assert got == expected
        assert [list(a.items()) for _t, a in got] == [
            list(a.items()) for _t, a in expected]
        assert len(got) == 2 * 6  # 3 x 3 ready pairs, 3 of them rejected


# ---------------------------------------------------------------------------
# Generated nets, stepped by hand
# ---------------------------------------------------------------------------

def _number(v):
    """An int bound by a Var arc, or the length of an All arc's tuple."""
    return v if type(v) is int else len(v)


def _even_sum(a):
    return sum(map(_number, a.values())) % 2 == 0


def _distinct(a):
    ints = [v for v in a.values() if type(v) is int]
    return len(set(ints)) == len(ints)


def _small(a):
    return all(v < 2 for v in a.values() if type(v) is int)


GUARDS = (None, _even_sum, _distinct, _small)


def _const(c):
    return lambda a, s: c


def _var_value(name):
    return lambda a, s: _number(a[name]) % 4


def _random_delay(a, s):
    return uniform_int(s.rng, 0, 3)


@st.composite
def small_timed_nets(draw):
    """(net, marking, now): 1-3 places, 1-3 transitions, Var and All arcs.

    Each transition's input arcs draw their places and their variables
    without replacement, from the places and a pool of three names.  All
    arcs, with a count from 0 to 2, are drawn only on untimed places.
    Timed outputs have delay 0, a constant or a draw from the run's
    stream; initial tokens may be stamped in the future.
    """
    n_places = draw(st.integers(1, 3))
    timed = [draw(st.booleans()) for _ in range(n_places)]
    b = NetBuilder()
    for p, is_timed in enumerate(timed):
        b.place(f"p{p}", INT_SET, timed=is_timed)
    for t in range(draw(st.integers(1, 3))):
        places = draw(st.lists(st.integers(0, n_places - 1), min_size=1,
                               max_size=3, unique=True))
        names = draw(st.lists(st.sampled_from("xyz"), min_size=len(places),
                              max_size=len(places), unique=True))
        inputs = []
        for p, name in zip(places, names):
            if not timed[p] and draw(st.integers(0, 3)) == 0:
                inputs.append((f"p{p}", All(name, draw(st.integers(0, 2)))))
            else:
                inputs.append((f"p{p}", Var(name)))
        outputs = []
        for _ in range(draw(st.integers(0, 2))):
            q = draw(st.integers(0, n_places - 1))
            if draw(st.booleans()):
                expr = _const(draw(st.integers(0, 3)))
            else:
                expr = _var_value(draw(st.sampled_from(names)))
            delay = 0
            if timed[q]:
                delay = draw(st.one_of(
                    st.just(0), st.integers(1, 4), st.just(_random_delay)))
            outputs.append(OutputArc(f"p{q}", expr, delay))
        b.transition(f"t{t}", inputs, outputs, guard=draw(st.sampled_from(GUARDS)))
    net = b.build()
    marking = {}
    for p, is_timed in enumerate(timed):
        value = st.integers(0, 3)
        token = st.tuples(value, st.integers(0, 6)) if is_timed else value
        marking[f"p{p}"] = draw(st.lists(token, max_size=4))
    return net, marking, draw(st.sampled_from([0, 2]))


@given(case=small_timed_nets(), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_generated_nets_step_like_the_stateless_reference(case, seed):
    net, marking, now = case
    state = SimState(net, marking, RngStream(seed), now=now)
    check_state(net, state)
    for _ in range(30):
        enabled = enumerate_bindings(
            net, state.store, state.now)
        expected = None
        if not enabled:
            expected = advance_time(net, state)
        before = state.now
        event = step(net, state)
        check_state(net, state)
        if enabled:
            assert type(event) is Fired
        elif expected is None:
            assert event == DeadMarking(before) and state.now == before
            return
        else:
            assert event == TimeAdvanced(before, expected)
