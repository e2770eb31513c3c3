"""Engine behavior: token game, timed semantics, runs, multiset laws."""

from __future__ import annotations

import traceback

import pytest
from hypothesis import given, strategies as st

from cpnsim.engine import (
    All,
    DeadMarking,
    Fired,
    FiringError,
    ModelStructureError,
    Net,
    OutputArc,
    Place,
    SimState,
    StepLimitExceeded,
    TimeAdvanced,
    TransitionSpec,
    Var,
    _remove_value,
    advance_time,
    enabled_bindings,
    fire,
    run,
    step,
)
from cpnsim.stochastic import RngStream

from helpers import TraceHook, build_delay_net, build_guard_net, refresh_memos


def state_of(net, marking, seed=1234, now=0):
    return SimState(net, marking, RngStream(seed), now=now)


def generated_frame(net, marking, prefix):
    """The frame of the generated file named ``prefix...`` that a step
    from ``marking`` raises ZeroDivisionError in, and the traceback text."""
    try:
        step(net, state_of(net, marking))
    except ZeroDivisionError as error:
        frames = traceback.extract_tb(error.__traceback__)
        [frame] = [f for f in frames if f.filename.startswith(prefix)]
        return frame, traceback.format_exc()
    pytest.fail("the step did not raise")


def assert_failed_firing_changes_nothing(net, state, error, match=None):
    """``fire`` and ``step`` both raise ``error`` and leave the state as it was.

    The memos are built first, so a firing that cleared them before
    raising would show.  The binding is still enabled afterwards.
    """
    [(name, binding)] = enabled_bindings(net, state)
    assert refresh_memos(net, state) == (
        1, net.transition_index[name])
    before = ([list(tokens) for tokens in state.store], state.step_count,
              list(state.cache))
    for attempt in (lambda: fire(net, state, name, binding),
                    lambda: step(net, state)):
        with pytest.raises(error, match=match):
            attempt()
        assert ([list(tokens) for tokens in state.store], state.step_count,
                list(state.cache)) == before
        assert enabled_bindings(net, state) == [(name, binding)]


# ---------------------------------------------------------------------------
# The initial marking: tokens added by SimState
# ---------------------------------------------------------------------------

class TestAddTokens:
    def test_multiset_notation_counts(self, guard_net):
        state = state_of(guard_net, {"p1": [1] + [2] * 7})
        assert state.count("p1") == 8
        assert state.tokens("p1") == [(1, None, 1), (2, None, 7)]

    def test_repeated_addition_sums_counts(self, guard_net):
        state = state_of(guard_net, {"p1": (4 for _ in range(2))})
        assert state.tokens("p1") == [(4, None, 2)]

    def test_unknown_place_rejected(self, guard_net):
        with pytest.raises(ModelStructureError, match="unknown place nope"):
            state_of(guard_net, {"nope": [1]})

    def test_colour_mismatch_rejected(self, guard_net):
        with pytest.raises(ModelStructureError,
                           match="^value 'text' is not of colour int of place p1$"):
            state_of(guard_net, {"p1": ["text"]})

    def test_timestamp_on_untimed_place_rejected(self, guard_net):
        with pytest.raises(ModelStructureError):
            state_of(guard_net, {"p1": [(1, 5)]})

    @pytest.mark.parametrize("token, message", [
        (1, "timestamp"), ((1,), "timestamp"), ((1, 0.5), "timestamp"),
        ((1, -1), "negative timestamp"),
    ])
    def test_bad_timed_tokens_rejected(self, token, message):
        net, _marking = build_delay_net(with_consumer=False)
        with pytest.raises(ModelStructureError, match=message):
            state_of(net, {"tp1": [token]})

    # A token -> count mapping iterates as its keys: {5: 3} would become
    # one token 5, and {master: 1, client: 24} two nodes.  A str iterates
    # as its characters, and bytes as the ints 97, 98 and 99.
    @pytest.mark.parametrize("tokens", [{5: 3}, {5: 1, 6: 24}, "abc", b"abc"])
    def test_a_mapping_of_tokens_rejected(self, guard_net, tokens):
        with pytest.raises(ModelStructureError, match="place p1 .* mapping"):
            state_of(guard_net, {"p1": tokens})

    def test_a_marking_that_is_no_mapping_rejected(self, guard_net):
        with pytest.raises(ModelStructureError, match="marking .* list"):
            state_of(guard_net, [("p1", [1])])

    def test_timed_tokens_are_sorted_stably_by_stamp(self):
        net, _marking = build_delay_net(with_consumer=False)
        state = state_of(net, {"tp1": [(3, 5), (1, 0), (2, 5), (4, 0)]})
        assert state.store[net.place_index["tp1"]] == [
            (1, 0), (4, 0), (3, 5), (2, 5)]

    def test_a_state_shares_no_list_with_the_marking(self):
        net, _marking = build_delay_net(with_consumer=False)
        marking = {"tp1": [(2, 3), (1, 0)]}
        first = state_of(net, marking)
        second = state_of(net, marking)
        assert step(net, first) == Fired("tt1", {"x": 1}, 0)
        for tokens in first.store:
            tokens.append((9, 0))
        assert marking == {"tp1": [(2, 3), (1, 0)]}
        assert second.tokens("tp1") == [(1, 0, 1), (2, 3, 1)]
        assert second.count("tp2") == 0


@pytest.mark.parametrize("access", [
    lambda state: state_of(state.net, {"ghost": [1]}),
    lambda state: state.count("ghost"),
    lambda state: state.tokens("ghost"),
], ids=["SimState", "SimState.count", "SimState.tokens"])
def test_unknown_place_is_a_structure_error(guard_net, access):
    with pytest.raises(ModelStructureError, match="unknown place ghost"):
        access(state_of(guard_net, {}))


def test_reprs_name_the_object_and_its_size(guard_net):
    state = SimState(guard_net, {"p1": [2, 3], "p2": [1]}, RngStream(7, 1))
    step(guard_net, state)
    assert repr(guard_net) == "Net(3 places, 1 transitions)"
    assert repr(state) == "SimState(now=0, steps=1, tokens=2)"
    assert repr(state.rng) == "RngStream(7:1)"


# 0.5 would stamp tp2 at 10.5, and True is no clock either.
@pytest.mark.parametrize("now", [-1, 0.5, True])
def test_state_clock_is_an_int_of_zero_or_more(now):
    net, marking = build_delay_net(with_consumer=False)
    with pytest.raises(ModelStructureError, match="model time"):
        SimState(net, marking, RngStream(1), now=now)


# ---------------------------------------------------------------------------
# enabled_bindings
# ---------------------------------------------------------------------------

class TestEnabledBindings:
    def test_guard_filters_to_unique_binding(self, guard_net):
        marking = {"p1": [1] + [2] * 7, "p2": [1] * 4}
        state = state_of(guard_net, marking)
        found = enabled_bindings(guard_net, state)
        assert found == [("tt", {"x": 2, "y": 1})]

    def test_empty_marking_nothing_enabled(self, guard_net):
        state = state_of(guard_net, {})
        assert enabled_bindings(guard_net, state) == []

    def test_guard_false_on_single_candidate(self, guard_net):
        marking = {"p1": [1], "p2": [1]}
        state = state_of(guard_net, marking)
        assert enabled_bindings(guard_net, state) == []

    def test_bindings_are_value_level(self, guard_net):
        # Seven ready tokens of value 2 still give one binding for x=2.
        marking = {"p1": [2] * 7, "p2": [1] * 4}
        state = state_of(guard_net, marking)
        assert len(enabled_bindings(guard_net, state)) == 1

    def test_enumeration_order_is_sorted_by_value(self):
        net = Net([Place("a", int), Place("out", int)],
                  [TransitionSpec("t", inputs=[("a", Var("x"))],
                                  outputs=[OutputArc("out", lambda v, s: v["x"])])])
        state = state_of(net, {"a": [3, 1, 2]})
        values = [a["x"] for _, a in enabled_bindings(net, state)]
        assert values == [1, 2, 3]

    def test_pending_tokens_are_not_ready(self):
        net, marking = build_delay_net(with_consumer=True)
        marking = {**marking, "tp2": [(5, 40)]}
        state = state_of(net, marking)
        names = [n for n, _ in enabled_bindings(net, state)]
        assert names == ["tt1"]  # the @40 token is still pending at 0

    def test_tokens_that_cannot_be_sorted_name_their_place(self):
        # One token needs no sort, so a lone dict token still fires.
        net = Net([Place("p", dict)], [TransitionSpec("t", [("p", Var("x"))], [])])
        state = state_of(net, {"p": [{"a": 1}]})
        assert step(net, state) == Fired("t", {"x": {"a": 1}}, 0)
        for pattern in (Var("x"), All("x", 2)):
            net = Net([Place("p", dict)], [TransitionSpec("t", [("p", pattern)], [])])
            state = state_of(net, {"p": [{}, {"a": 1}]})
            with pytest.raises(ModelStructureError,
                               match="place p cannot be sorted: values of colour dict"):
                step(net, state)


# ---------------------------------------------------------------------------
# fire
# ---------------------------------------------------------------------------

class TestFire:
    def test_fire_consumes_and_produces(self, guard_net):
        marking = {"p1": [1] + [2] * 7, "p2": [1] * 4}
        state = state_of(guard_net, marking)
        [(name, binding)] = enabled_bindings(guard_net, state)
        fire(guard_net, state, name, binding)
        assert state.tokens("p1") == [(1, None, 1), (2, None, 6)]
        assert state.tokens("p2") == [(1, None, 3)]
        assert state.tokens("p3") == [(3, None, 1)]
        assert state.step_count == 1

    def test_fire_applies_output_delay(self):
        net, marking = build_delay_net(with_consumer=False)
        state = state_of(net, marking)
        [(name, binding)] = enabled_bindings(net, state)
        fire(net, state, name, binding)
        assert state.tokens("tp2") == [(1, 10, 1)]
        assert state.now == 0

    def test_zero_delay_token_is_immediately_ready(self):
        net, marking = build_delay_net(with_consumer=True)
        state = state_of(net, {"tp2": [(7, 0)]})
        [(name, binding)] = enabled_bindings(net, state)
        assert name == "tt2"
        fire(net, state, name, binding)
        assert state.tokens("tp3") == [(7, 0, 1)]

    def test_refiring_a_consumed_binding_rejected(self, guard_net):
        marking = {"p1": [2], "p2": [1]}
        state = state_of(guard_net, marking)
        [(name, binding)] = enabled_bindings(guard_net, state)
        fire(guard_net, state, name, binding)
        with pytest.raises(FiringError):
            fire(guard_net, state, name, binding)

    def test_unknown_transition_rejected(self, guard_net):
        marking = {"p1": [2], "p2": [1]}
        state = state_of(guard_net, marking)
        [(_, binding)] = enabled_bindings(guard_net, state)
        with pytest.raises(FiringError):
            fire(guard_net, state, "ghost", binding)

    def test_guard_rejecting_binding_raises(self, guard_net):
        marking = {"p1": [1], "p2": [1]}
        state = state_of(guard_net, marking)
        with pytest.raises(FiringError):
            fire(guard_net, state, "tt", {"x": 1, "y": 1})

    def test_fire_produces_from_the_enumerated_tokens(self, guard_net):
        # 2.0 equals the enumerated 2, so the binding is enabled; the
        # tokens' own values are the ones bound, and x + y is the int 3.
        state = state_of(guard_net, {"p1": [2], "p2": [1]})
        fire(guard_net, state, "tt", {"x": 2.0, "y": 1})
        assert state.count("p1") == state.count("p2") == 0
        [(value, _ts, count)] = state.tokens("p3")
        assert (value, type(value), count) == (3, int, 1)
        assert state.step_count == 1

    # Assignments the enumeration does not list: one on an empty
    # marking (a token from nothing), and x=50 while x=2 is enabled.
    @pytest.mark.parametrize("p1, p2, assignment", [
        ([], [], {"x": 2, "y": 1}),
        ([2, 9], [1], {"x": 50, "y": 1}),
    ], ids=["empty-marking", "assignment-off-its-tokens"])
    def test_binding_not_enumerated_is_rejected(self, guard_net, p1, p2,
                                                assignment):
        state = state_of(guard_net, {"p1": p1, "p2": p2})
        before = ([list(tokens) for tokens in state.store], state.step_count)
        with pytest.raises(FiringError):
            fire(guard_net, state, "tt", assignment)
        assert (state.store, state.step_count) == before

    # A bound value equal to, but not the same object as, the token's:
    # on a place of one token and on a place of several.  ``fire``
    # substitutes the enumerated assignment, so the token removal is also
    # called directly with the equal value.
    @pytest.mark.parametrize("tokens, left", [
        ([(1, 2)], []),
        ([(3,), (1, 2), (1, 2)], [((1, 2), None, 1), ((3,), None, 1)]),
    ], ids=["one-token", "several-tokens"])
    def test_consumption_matches_values_by_equality(self, tokens, left):
        net = Net([Place("a", tuple), Place("out", int)],
                  [TransitionSpec("t", inputs=[("a", Var("xs"))],
                                  outputs=[OutputArc("out", lambda v, s: len(v["xs"]))])])
        state = state_of(net, {"a": tokens})
        equal = tuple([1, 2])
        assert all(value is not equal for value, _ts in state.store[0])
        fire(net, state, "t", {"xs": equal})
        assert state.tokens("a") == left
        assert state.tokens("out") == [(2, None, 1)]

        place = [(value, 0) for value in tokens]
        _remove_value(place, equal, 0)
        expected = list(tokens)
        expected.remove(equal)
        assert place == [(value, 0) for value in expected]

    def test_oldest_ready_token_consumed_first(self):
        net = Net([Place("src", int, timed=True), Place("dst", int)],
                  [TransitionSpec("t", inputs=[("src", Var("x"))],
                                  outputs=[OutputArc("dst", lambda v, s: v["x"])])])
        marking = {"src": [(5, 3), (5, 7)]}
        state = state_of(net, marking, now=10)
        [(name, binding)] = enabled_bindings(net, state)
        fire(net, state, name, binding)
        assert state.tokens("src") == [(5, 7, 1)]  # the @3 token went first

    def test_negative_runtime_delay_rejected(self):
        # So is one that is not an int: 0.5 would stamp 0.5, True 1.  The
        # type must be int itself, as for a colour.
        class Ms(int):
            pass

        for delay, message in ((-1, "negative delay -1"),
                               (0.5, "non-int delay 0.5"),
                               (True, "non-int delay True"),
                               (Ms(2), "non-int delay 2")):
            net = Net(
                [Place("a", int, timed=True), Place("b", int, timed=True)],
                [TransitionSpec("t", inputs=[("a", Var("x"))],
                                outputs=[OutputArc("b", lambda v, s: v["x"],
                                                   delay=lambda v, s, d=delay: d)])])
            state = state_of(net, {"a": [(1, 0)]})
            assert_failed_firing_changes_nothing(
                net, state, ModelStructureError, match=message)

    def test_raising_arc_expression_changes_nothing(self):
        # The first output is fine; the second raises.
        net = Net(
            [Place("a", int, timed=True), Place("b", int, timed=True)],
            [TransitionSpec("t", inputs=[("a", Var("x"))],
                            outputs=[OutputArc("b", lambda v, s: v["x"], delay=5),
                                     OutputArc("b", lambda v, s: 1 // 0)])])
        state = state_of(net, {"a": [(1, 0)]})
        assert_failed_firing_changes_nothing(net, state, ZeroDivisionError)

    def test_negative_constant_delay_rejected(self):
        # So is one that is not an int: 2.5 would move the clock to 2.5,
        # and True stamp 1.
        for delay, message in ((-1, "negative delay"),
                               (2.5, "delay 2.5 .* neither an int"),
                               (True, "delay True .* neither an int")):
            with pytest.raises(ModelStructureError, match=message):
                Net([Place("a", int, timed=True)],
                    [TransitionSpec("t", inputs=[("a", Var("x"))],
                                    outputs=[OutputArc("a", lambda v, s: v["x"],
                                                       delay)])])

    def test_tracebacks_show_the_generated_lines(self):
        # A failed replication is logged with this traceback text: it
        # names the generated file and shows the line that raised.
        net = Net([Place("a", int), Place("b", int)], [
            TransitionSpec("boom", [("a", Var("x"))],
                           [OutputArc("b", lambda v, s: 1 // 0)]),
            TransitionSpec("picky", [("b", Var("y"))], [],
                           guard=lambda v: 1 // 0 == v["y"]),
        ])
        for marking, prefix, call in (
                ({"a": [1]}, "<cpnsim fire boom ", "expr"),
                ({"b": [1]}, "<cpnsim bindings picky ", "guard(")):
            frame, text = generated_frame(net, marking, prefix)
            assert call in frame.line
            assert f'File "{frame.filename}", line {frame.lineno}' in text
            assert frame.line in text

    def test_a_later_net_leaves_earlier_tracebacks_alone(self):
        # Two transitions of one name but other arcs have other sources,
        # so building the second keeps the first's lines in linecache.
        def net_with_outputs(n):
            outputs = [OutputArc("b", lambda v, s: v["x"])] * (n - 1)
            return Net([Place("a", int), Place("b", int)],
                       [TransitionSpec("t", [("a", Var("x"))],
                                       outputs + [OutputArc("b", lambda v, s: 1 // 0)])])

        first = net_with_outputs(4)
        net_with_outputs(1)
        frame, text = generated_frame(first, {"a": [1]}, "<cpnsim fire t")
        assert "expr3(assign, state)" in frame.line
        assert frame.line in text

    def test_an_equal_source_is_compiled_once(self):
        nets = [build_guard_net() for _ in range(2)]
        for one, other in zip(*(n.transitions for n in nets)):
            assert one.fire is not other.fire
            assert one.fire.__code__ is other.fire.__code__
            assert one.bindings.__code__ is other.bindings.__code__


# ---------------------------------------------------------------------------
# advance_time
# ---------------------------------------------------------------------------

class TestAdvanceTime:
    def test_advance_to_pending_token(self):
        net, marking = build_delay_net(with_consumer=True)
        state = state_of(net, marking)
        [(name, binding)] = enabled_bindings(net, state)
        fire(net, state, name, binding)
        assert enabled_bindings(net, state) == []
        assert advance_time(net, state) == 10
        assert state.now == 0  # advance_time reports, never mutates

    def test_empty_marking_is_dead(self, guard_net):
        state = state_of(guard_net, {})
        assert advance_time(guard_net, state) is None

    def test_skips_times_that_enable_nothing(self):
        # Tokens mature at 12 and 15-but only the @15 one passes the
        # guard, so the clock must jump straight to 15.
        net = Net([Place("a", int, timed=True), Place("out", int)],
                  [TransitionSpec("t", inputs=[("a", Var("x"))],
                                  guard=lambda v: v["x"] == 1,
                                  outputs=[OutputArc("out", lambda v, s: v["x"])])])
        marking = {"a": [(2, 12), (1, 15)]}
        state = state_of(net, marking)
        assert advance_time(net, state) == 15
        # step passes 12, where the @12 token is ready but rejected.
        assert step(net, state) == TimeAdvanced(0, 15)

    def test_rejected_while_something_enabled(self, guard_net):
        marking = {"p1": [2], "p2": [1]}
        state = state_of(guard_net, marking)
        with pytest.raises(FiringError):
            advance_time(guard_net, state)

    def test_a_tie_across_places_wakes_both(self):
        # Two timed places whose first pending tokens share a stamp: the
        # advance must clear the memos of both places' watchers.
        net = Net([Place(name, int, timed=True) for name in ("a", "b")],
                  [TransitionSpec(f"take_{name}", [(name, Var("x"))], [])
                   for name in ("a", "b")])
        marking = {"a": [(1, 5)], "b": [(2, 5)]}
        state = state_of(net, marking)
        assert advance_time(net, state) == 5
        assert step(net, state) == TimeAdvanced(0, 5)
        hook = TraceHook()
        run(net, state, hooks=[hook])
        assert sorted(name for kind, name, _t in hook.events
                      if kind == "Fired") == ["take_a", "take_b"]
        assert hook.events[-1] == ("DeadMarking", None, 5)


# ---------------------------------------------------------------------------
# step and run
# ---------------------------------------------------------------------------

class TestStepAndRun:
    def test_single_enabled_binding_fires(self, guard_net):
        marking = {"p1": [2], "p2": [1]}
        state = state_of(guard_net, marking)
        event = step(guard_net, state)
        assert type(event) is Fired
        assert event.transition == "tt"
        assert event.assignment == {"x": 2, "y": 1}

    def test_step_advances_time_when_nothing_enabled(self):
        net, marking = build_delay_net(with_consumer=True)
        state = state_of(net, marking)
        step(net, state)  # fires tt1
        event = step(net, state)
        assert event == TimeAdvanced(0, 10)
        assert state.now == 10

    def test_step_reports_dead_marking(self, guard_net):
        state = state_of(guard_net, {})
        event = step(guard_net, state)
        assert type(event) is DeadMarking
        assert state.now == 0

    def test_a_guard_that_raises_in_an_advance_leaves_a_steppable_state(self):
        # The advance rebuilds s's memo at time 10 before t's guard
        # raises; the clock must be at 10 too, or the next step would
        # fire s at time 0 with a token that is not ready.
        def picky(v):
            raise RuntimeError("guard bug")

        net = Net([Place("a", int, timed=True), Place("b", int, timed=True)],
                  [TransitionSpec("s", [("a", Var("x"))], []),
                   TransitionSpec("t", [("b", Var("y"))], [], guard=picky)])
        state = state_of(net, {"a": [(1, 10)], "b": [(1, 10)]})
        for _ in range(2):
            with pytest.raises(RuntimeError, match="guard bug"):
                step(net, state)
            assert state.now == 10

    def test_choice_reproducible_for_fixed_seed(self, guard_net):
        marking = {"p1": [2, 3], "p2": [1] * 4}

        def trace(seed):
            state = state_of(guard_net, marking, seed=seed)
            hook = TraceHook()
            run(guard_net, state, hooks=[hook])
            return hook.events

        assert trace(99) == trace(99)

    def test_different_seeds_can_pick_differently(self, guard_net):
        marking = {"p1": [2, 3], "p2": [1] * 4}
        first = set()
        for seed in range(12):
            state = state_of(guard_net, marking, seed=seed)
            event = step(guard_net, state)
            first.add(event.assignment["x"])
        assert first == {2, 3}

    def test_run_until_dead_exhausts_guard_net(self, guard_net):
        # p2 has four 1-tokens and p1 seven 2-tokens: x=2 beats y=1
        # four times, then p2 is empty and the net is dead.
        marking = {"p1": [1] + [2] * 7, "p2": [1] * 4}
        state = state_of(guard_net, marking)
        hook = TraceHook()
        run(guard_net, state, hooks=[hook])
        fired = [e for e in hook.events if e[0] == "Fired"]
        assert len(fired) == 4
        assert state.tokens("p2") == []
        assert hook.events[-1][0] == "DeadMarking"

    def test_trivially_true_stop_runs_zero_steps(self, guard_net):
        marking = {"p1": [2], "p2": [1]}
        state = state_of(guard_net, marking)
        run(guard_net, state, stop=lambda st, ev: True)
        assert state.step_count == 0

    def test_single_firing_then_dead_without_consumer(self):
        net, marking = build_delay_net(with_consumer=False)
        state = state_of(net, marking)
        hook = TraceHook()
        run(net, state, hooks=[hook])
        fired = [e for e in hook.events if e[0] == "Fired"]
        assert len(fired) == 1
        # The pending @10 token enables nothing, so time never advances.
        assert state.now == 0

    def test_consumer_chain_advances_then_finishes(self):
        net, marking = build_delay_net(with_consumer=True)
        state = state_of(net, marking)
        hook = TraceHook()
        run(net, state, hooks=[hook])
        assert hook.events == [
            ("Fired", "tt1", 0),
            ("TimeAdvanced", None, 10),
            ("Fired", "tt2", 10),
            ("DeadMarking", None, 10),
        ]

    def test_step_limit_raises(self):
        net = Net([Place("a", int)],
                  [TransitionSpec("loop", inputs=[("a", Var("x"))],
                                  outputs=[OutputArc("a", lambda v, s: v["x"])])])
        state = state_of(net, {"a": [0]})
        with pytest.raises(StepLimitExceeded):
            run(net, state, max_steps=50)

    def test_hooks_see_every_event(self, guard_net):
        marking = {"p1": [2], "p2": [1]}
        state = state_of(guard_net, marking)
        h1, h2 = TraceHook(), TraceHook()
        run(guard_net, state, hooks=[h1, h2])
        assert h1.events == h2.events
        assert len(h1.events) == 2  # one firing, then dead

    def test_hooks_added_during_a_run_are_not_called(self, guard_net):
        marking = {"p1": [2], "p2": [1]}
        state = state_of(guard_net, marking)
        late = TraceHook()
        hooks = []
        hooks.append(lambda st, ev: hooks.append(late))
        run(guard_net, state, hooks=hooks)
        assert late.events == []

    def test_time_is_monotone_over_run(self):
        net, marking = build_delay_net(with_consumer=True)
        state = state_of(net, marking)
        times = []
        run(net, state, hooks=[lambda st, ev: times.append(st.now)])
        assert times == sorted(times)


# ---------------------------------------------------------------------------
# aggregate (All) input arcs
# ---------------------------------------------------------------------------

class TestAllArc:
    @staticmethod
    def collector_net(require, timed=False):
        return Net([Place("pool", int, timed=timed), Place("out", int)], [
            TransitionSpec(
                "collect",
                inputs=[("pool", All("xs", require=require))],
                outputs=[OutputArc("out", lambda v, s: sum(v["xs"]))],
            ),
        ])

    def test_binds_whole_population_with_multiplicity(self):
        net = self.collector_net(require=3)
        state = state_of(net, {"pool": [2, 1, 2]})
        [(_, assignment)] = enabled_bindings(net, state)
        assert assignment["xs"] == (1, 2, 2)
        fire(net, state, "collect", assignment)
        assert state.tokens("pool") == []
        assert state.tokens("out") == [(5, None, 1)]

    def test_exact_count_gate(self):
        # One token short of the count or one over disables the arc; a
        # count of 0 binds the empty place to ().
        for require, tokens in ((3, [3, 1, 2]), (0, [])):
            net = self.collector_net(require=require)

            def enabled(values):
                marking = {"pool": values}
                return enabled_bindings(net, state_of(net, marking))

            if tokens:
                assert enabled(tokens[:-1]) == []
            [(_, assignment)] = enabled(tokens)
            assert assignment["xs"] == tuple(sorted(tokens))
            assert enabled(tokens + [9]) == []

    def test_count_is_required(self):
        with pytest.raises(TypeError):
            All("xs")

    def test_require_on_timed_place_rejected(self):
        # So are a negative and a non-int count on an untimed place.
        for timed, require in ((True, 1), (False, -1), (False, 1.0),
                               (False, True), (False, "1")):
            with pytest.raises(ModelStructureError, match="transition collect"):
                self.collector_net(require=require, timed=timed)


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------

class TestNetValidation:
    def test_duplicate_place_names_rejected(self):
        # So is a place that is not a Place declaration, and a Place
        # whose name is not a str, whose colour is not a class or whose
        # timed flag is not a bool.
        for places, message in (
                ([Place("a", int)] * 2, "duplicate place"),
                (["a"], "'a' is not a Place"),
                ([Place(["a"], int)], r"^Place\(name=\['a'\], .*: a place needs"),
                ([Place(1, int)], r"^Place\(name=1, .*: a place needs"),
                ([Place("a", None)], r"^Place\(name='a', colour=None, .*: a place needs"),
                ([Place("a", int, timed="yes")], r"timed='yes'\): a place needs")):
            with pytest.raises(ModelStructureError, match=message):
                Net(places, [])

    def test_duplicate_transition_names_rejected(self):
        # So is a transition that is not a TransitionSpec declaration, and
        # a TransitionSpec whose name is not a str, whose arcs are not in
        # a list or tuple or whose guard cannot be called.
        spec = TransitionSpec("t", inputs=[("a", Var("x"))], outputs=[])
        for transitions, message in (
                ([spec] * 2, "duplicate transition"),
                ([("t", [], [])], "is not a TransitionSpec"),
                ([TransitionSpec(1, [], [])], "^transition 1 needs a str name"),
                ([TransitionSpec("t", None, [])], "^transition 't' needs"),
                ([TransitionSpec("t", [], None)], "^transition 't' needs"),
                ([TransitionSpec("t", [("a", Var("x"))], [], guard=1)],
                 "^transition 't' needs")):
            with pytest.raises(ModelStructureError, match=message):
                Net([Place("a", int)], transitions)

    def test_unknown_place_in_arc_rejected(self):
        # A list, which cannot be a dict key, names no place either.
        for ghost in ("ghost", ["ghost"]):
            for inputs, outputs in (
                    ([(ghost, Var("x"))], []),
                    ([("a", Var("x"))], [OutputArc(ghost, lambda v, s: v["x"])])):
                with pytest.raises(ModelStructureError) as exc:
                    Net([Place("a", int)],
                        [TransitionSpec("t", inputs=inputs, outputs=outputs)])
                assert str(exc.value) == (
                    f"transition t references unknown place {ghost}")

    def test_constant_delay_to_untimed_place_rejected(self):
        # A delay function on an untimed place would never be called.
        for delay in (5, lambda v, s: 5):
            with pytest.raises(ModelStructureError):
                Net([Place("a", int), Place("b", int)],
                    [TransitionSpec("t", inputs=[("a", Var("x"))],
                                    outputs=[OutputArc("b", lambda v, s: v["x"],
                                                       delay)])])

    def test_produced_value_outside_colour_set_rejected(self):
        # Each output form (untimed, constant delay, delay function)
        # generates its own lines, and each checks the colour.
        for timed, delay in ((False, 0), (True, 3), (True, lambda v, s: 3)):
            net = Net([Place("a", int), Place("out", int, timed=timed)],
                      [TransitionSpec("t", inputs=[("a", Var("x"))],
                                      outputs=[OutputArc("out",
                                                         lambda v, s: str(v["x"]),
                                                         delay)])])
            state = state_of(net, {"a": [1]})
            assert_failed_firing_changes_nothing(
                net, state, ModelStructureError,
                match="^transition t produced '1', not of colour int of place out$")

    # So is an arc that is not a declaration: an input that is not a
    # (place, pattern) pair, an output that is not an OutputArc or whose
    # expr cannot be called.
    @pytest.mark.parametrize("inputs, outputs", [
        ([("a", Var("x")), ("a", Var("y"))], []),
        ([("a", Var("x")), ("b", Var("x"))], []),
        ([("a", All("xs", 1)), ("a", Var("y"))], []),
        ([("a", All("x", 1)), ("b", Var("x"))], []),
        ([("a", "x")], []),
        ([("a", Var(3))], []),
        ([("a", All(b"xs", 1))], []),
        (["a"], []),
        ([("a", Var("x"))], [("b", lambda v, s: 1)]),
        ([("a", Var("x"))], [OutputArc("b", 1)]),
    ], ids=["two-vars-one-place", "one-var-two-places",
            "all-and-var-one-place", "all-and-var-one-variable",
            "unknown-pattern", "var-name-not-a-str", "all-name-not-a-str",
            "input-not-a-pair", "output-not-an-OutputArc", "expr-not-callable"])
    def test_input_arcs_need_their_own_place_and_variable(self, inputs, outputs):
        with pytest.raises(ModelStructureError, match="transition t"):
            Net([Place("a", int), Place("b", int)],
                [TransitionSpec("t", inputs=inputs, outputs=outputs)])

    def test_declarations_may_come_from_any_iterable(self):
        # Net reads each argument once, so generators build the same net.
        listed = build_guard_net()
        net = Net((p for p in listed.places),
                  (t.spec for t in listed.transitions))
        assert net.places == listed.places
        assert [t.spec for t in net.transitions] == [
            t.spec for t in listed.transitions]
        state = state_of(net, {"p1": [2, 3], "p2": [1]})
        assert enabled_bindings(net, state) == [
            ("tt", {"x": 2, "y": 1}), ("tt", {"x": 3, "y": 1})]


# ---------------------------------------------------------------------------
# multiset laws
# ---------------------------------------------------------------------------

token_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=30)


class TestMultisetLaws:
    @given(tokens=token_lists)
    def test_count_is_the_number_of_tokens_added(self, tokens):
        state = state_of(build_guard_net(), {"p1": tokens})
        assert state.count("p1") == len(tokens)

    @given(tokens=token_lists)
    def test_token_counts_are_positive_and_sum_to_count(self, tokens):
        state = state_of(build_guard_net(), {"p1": tokens})
        counts = [c for _value, _ts, c in state.tokens("p1")]
        assert all(c > 0 for c in counts)
        assert sum(counts) == state.count("p1")

    @given(tokens=token_lists)
    def test_fresh_state_reports_the_marking_tokens(self, tokens):
        state = state_of(build_guard_net(), {"p1": tokens})
        assert state.tokens("p1") == [
            (value, None, tokens.count(value)) for value in sorted(set(tokens))]
