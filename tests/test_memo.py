"""Differential check: memoised enumeration equals stateless enumeration.

``step`` enumerates through per-transition memos that firings and time
advances invalidate.  After every step of a run, the memoised result
must equal a fresh stateless enumeration of the same marking, and each
place's token count must equal its multiset total.
"""

from __future__ import annotations

import itertools

from cpnsim.engine import Fired, SimState, TimeAdvanced, _kernel, run
from cpnsim.raytrace import IDEAL, REAL, ScenarioParams, SceneConfig, build_net
from cpnsim.stochastic import RngStream

from helpers import TraceHook, build_delay_net, build_guard_net, guard_net_marking

TINY = SceneConfig(4_000, 3_000, 1_000, 750, 1_000)


class MemoCheckHook:
    """Compares the memo with stateless enumeration after every step.

    Draws nothing from the run's random stream.  Filling the memos here
    changes nothing either: the next step enumerates the same marking.
    """

    def __init__(self, net):
        self.net = net
        self.fired = set()
        self.advances = 0

    def __call__(self, state, event):
        net = self.net
        assert _kernel._enumerate_cached(net, state) == _kernel.enumerate_bindings(
            net, state.store, state.counts, state.now)
        for pidx, ms in enumerate(state.store):
            assert state.counts[pidx] == sum(ms.values())
        if type(event) is Fired:
            self.fired.add(event.transition)
        elif type(event) is TimeAdvanced:
            self.advances += 1


def checked_run(net, marking, seed, stop=None):
    """Run under the check and return the check's hook.

    A second, unchecked run from the same marking and seed must give the
    same event trace.
    """
    hook, checked, bare = MemoCheckHook(net), TraceHook(), TraceHook()
    run(net, SimState(net, marking, RngStream(seed)), stop, [hook, checked])
    run(net, SimState(net, marking, RngStream(seed)), stop, [bare])
    assert checked.events == bare.events
    return hook


def scene_done(state, event):
    return type(event) is Fired and event.transition == "completeScene"


class TestEnumerationMemo:
    def test_guard_net(self):
        net = build_guard_net()
        marking = guard_net_marking(net, [1, 2, 2, 3, 5], [1, 1, 2, 4])
        for seed in range(5):
            assert checked_run(net, marking, seed).fired == {"tt"}

    def test_delay_net(self):
        for with_consumer in (False, True):
            hook = checked_run(*build_delay_net(with_consumer), seed=1)
            assert hook.advances == (1 if with_consumer else 0)

    def test_zero_delay_output_is_ready_at_once(self):
        # tt1 does not consume from tp2, so only the zero-delay output
        # can tell tt2's memo that tp2 changed.
        hook = checked_run(*build_delay_net(True, delay=0), seed=1)
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
