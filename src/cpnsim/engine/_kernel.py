"""The engine: binding enumeration, firing, time advance.

``cpnsim.engine`` re-exports the public functions of this module:
``step`` and ``run`` drive a simulation, ``enabled_bindings``, ``fire``
and ``advance_time`` expose single moves of it.  A binding is a
transition and an assignment of its input variables; it is enabled
exactly when the enumeration lists it, and ``fire`` checks a caller's
assignment against that list, so the firing rule is stated once.

The marking is ``state.store``: per place index, a list of
``(value, timestamp)`` pairs, one entry per token.  An untimed place stamps every
token 0 and keeps them in arrival order; a timed place keeps them
sorted by timestamp, in arrival order among equal timestamps.  Either
way a place's ready tokens are a prefix found by bisection.  A firing
adds the tokens it produces (appended, or inserted at their timestamp)
and deletes the ones it consumes; a place's token count is the length
of its list.  No token value is ever hashed: candidates are found by
sorting a place's ready values and grouping equal neighbours, and
consumed tokens by comparing values.  A place of one token, such as the
raytracing model's work list, needs no sort.

Every transition is compiled once, when its ``Net`` is built
(:func:`compile_transition`), into two plain functions that
``step``, ``enumerate_bindings``, ``enabled_bindings``, ``fire`` and
``advance_time`` all call, so there is one firing rule:

* ``bindings(store, now)`` lists the enabled assignments.  Every input
  arc has its own place and its own variable (``Net`` rejects anything
  else), so they are the plain product of the ``Var`` arcs' candidate
  values, with the ``All`` arcs' tuples, filtered by the guard.  The
  build picks one of three shapes: one ``Var`` arc (a plain loop), two
  ``Var`` arcs (a double loop) or the general product; all three list
  the same bindings in the same order.
* ``fire(state, assignment)`` first evaluates every output arc, in arc
  order ``expr`` then ``delay``, with its colour and negative-delay
  checks, and only then consumes the inputs and adds the outputs.  A
  firing that raises, whether in a check or in an arc expression,
  leaves the marking, ``step_count``, the calendar and the memos as
  they were; RNG draws that earlier arcs already made are not undone.
  Each output's colour check, timedness and constant or function delay
  are fixed at build time.

Determinism contract:

* transitions are visited in name order (the order ``Net`` stores them);
* candidate tokens of a ``Var`` arc are the distinct *values* with at
  least one ready token, visited in sorted order, so bindings are
  enumerated lexicographically over (transition, token values);
* firing follows the transition's input arcs: a ``Var`` arc consumes
  the ready token of its bound value with the smallest timestamp (the
  earliest arrival among equal timestamps), an ``All`` arc every ready
  token;
* ``step`` draws one choice index from the state RNG only when two or
  more bindings are enabled.

Enumeration is memoised per transition in ``state.cache``.  A memo
holds the transition's enabled assignments at ``state.now``, ``None``
when stale, and stays valid until the ready tokens of one of its input
places change.  Each compiled ``fire`` holds a tuple, fixed at build
time, of the memos it clears on every firing: those of the watchers of
its input places, of its untimed output places and of its timed output
places with constant delay 0.  Only a delay function that returns 0
clears more, its place's watchers, at run time; a token stamped later
changes nothing until the calendar reaches it.  ``step`` makes one pass
over the memos (:func:`_refresh_memos`) that rebuilds the cleared ones,
sums their lengths to get the number ``n`` of enabled bindings and
notes the last transition with a non-empty memo.  With ``n == 1``, the
common case, that memo's one binding fires without a draw or a second
pass; only with ``n > 1`` does ``step`` draw ``k`` and walk the memos
in transition order to the ``k``-th binding.  It builds no list of all
bindings.

Time advance runs off the event calendar ``state.calendar``, a min-heap
of ``(timestamp, place index)`` entries for the tokens stamped later
than ``now`` (its invariant is stated on :class:`SimState`).  When
nothing is enabled, ``step`` pops every entry at the earliest
timestamp, clears the memos of those places' watchers, moves the clock
there and rebuilds the cleared memos, repeating until their lengths
sum to more than zero.  Memos it did not clear stay valid at the new
time, because none of their input places gained a ready token.  The
memos built at the new time are the ones the next firing uses, so an
advance enumerates each transition at most once per candidate time
and scans no token.  With the calendar empty the marking is dead: the
clock and the calendar are put back, and the memos, all empty, are
what enumeration at the old time gives too.
"""

from bisect import bisect_right, insort
from heapq import heappop, heappush
from itertools import product
from operator import itemgetter

from cpnsim.engine.types import (
    All,
    DeadMarking,
    FiringError,
    Fired,
    ModelStructureError,
    StepLimitExceeded,
    TimeAdvanced,
    Var,
    _CompiledTransition,
    _stamp,
)

DEFAULT_STEP_LIMIT = 10_000_000

_value = itemgetter(0)


def _distinct(values):
    """The distinct values of a sorted list.

    Equal values (one value at several timestamps, or repeated tokens)
    form one run, skipped by bisection, so no token value is hashed.
    """
    distinct = []
    i, n = 0, len(values)
    while i < n:
        value = values[i]
        distinct.append(value)
        i = bisect_right(values, value, i + 1)
    return distinct


def _ready_candidates(tokens, now):
    """The distinct ready values of a place, sorted.

    The place is sorted by timestamp (an untimed place stamps every
    token 0), so its ready tokens are the prefix that bisection finds;
    one ready token needs no sort.
    """
    i = bisect_right(tokens, now, key=_stamp)
    if i < 2:
        return [tokens[0][0]] if i else []
    return _distinct(sorted(map(_value, tokens[:i])))


def _gather_all(tokens, now):
    """All ready values (with multiplicity), sorted."""
    return tuple(sorted([value for value, ts in tokens if ts <= now]))


def _var_bindings(arc, guard):
    """One ``Var`` arc: each ready value is one binding, no product."""
    p, name = arc

    def bindings(store, now):
        tokens = store[p]
        if not tokens:
            return []
        out = []
        for value in _ready_candidates(tokens, now):
            assign = {name: value}
            if guard is None or guard(assign):
                out.append(assign)
        return out

    return bindings


def _var_pair_bindings(arc1, arc2, guard):
    """Two ``Var`` arcs: the product of the two candidate lists, as a
    double loop in the order of the general product."""
    p1, name1 = arc1
    p2, name2 = arc2

    def bindings(store, now):
        tokens1, tokens2 = store[p1], store[p2]
        if not tokens1 or not tokens2:
            return []
        first = _ready_candidates(tokens1, now)
        if not first:
            return []
        second = _ready_candidates(tokens2, now)
        out = []
        for v1 in first:
            for v2 in second:
                assign = {name1: v1, name2: v2}
                if guard is None or guard(assign):
                    out.append(assign)
        return out

    return bindings


def _product_bindings(var_arcs, all_arcs, guard):
    """The general product of the ``Var`` arcs' candidates and the
    ``All`` arcs' tuples.

    The ``All`` arcs' variables come first in every assignment, then the
    ``Var`` arcs' in arc order.  An exact-count ``All`` arc sits on an
    untimed place (``Net`` checks this), so its whole population is
    ready and a count test decides it.
    """
    var_arcs, all_arcs = tuple(var_arcs), tuple(all_arcs)
    var_names = tuple(name for _p, name in var_arcs)
    counted = tuple((p, require) for p, _name, require in all_arcs
                    if require >= 0)

    def bindings(store, now):
        for p, require in counted:
            if len(store[p]) != require:
                return []
        for p, _name in var_arcs:
            if not store[p]:
                return []
        fixed = {name: _gather_all(store[p], now) for p, name, _r in all_arcs}
        lists = []
        for p, _name in var_arcs:
            ready = _ready_candidates(store[p], now)
            if not ready:
                return []
            lists.append(ready)
        out = []
        for values in product(*lists):
            assign = dict(fixed)
            assign.update(zip(var_names, values))
            if guard is None or guard(assign):
                out.append(assign)
        return out

    return bindings


def _remove_value(tokens, value, now):
    """Remove the ready token of ``value`` with the smallest timestamp.

    The place is sorted by timestamp, in arrival order among equal
    ones, so that is the first equal token, and the scan ends at the
    first pending token.  The bound value is the very object enumeration
    read from this place, so identity is tested first: a large value,
    such as a long list token, is then not compared with itself element
    by element.
    """
    for i, (v, ts) in enumerate(tokens):
        if ts > now:
            break
        if v is value or v == value:
            del tokens[i]
            return
    raise AssertionError("no ready token for a bound value")


def _remove_all_ready(tokens, expected, now):
    """Remove every ready token; the population must match the binding."""
    pending = [tok for tok in tokens if tok[1] > now]
    assert len(tokens) - len(pending) == expected, (
        "ready population changed since enumeration")
    tokens[:] = pending


def _outside(t_name, place, value):
    return ModelStructureError(
        f"transition {t_name} produced {value!r}, outside the colour set "
        f"of place {place.name}"
    )


def _emitter(t_name, place, arc):
    """``emit(assign, state, now) -> (value, timestamp)`` for one output arc.

    The colour check, the place's timedness and the delay's form are
    fixed here.  ``emit`` changes nothing; it raises
    :class:`ModelStructureError` for a value outside the colour set or a
    negative delay.
    """
    expr, delay = arc.expr, arc.delay
    check = place.colour.quick

    if callable(delay):
        def emit(assign, state, now):
            value = expr(assign, state)
            if not check(value):
                raise _outside(t_name, place, value)
            d = delay(assign, state)
            if d < 0:
                raise ModelStructureError(
                    f"transition {t_name} produced a negative delay {d}"
                )
            return value, now + d
    elif place.timed:
        def emit(assign, state, now):
            value = expr(assign, state)
            if not check(value):
                raise _outside(t_name, place, value)
            return value, now + delay
    else:
        def emit(assign, state, now):
            value = expr(assign, state)
            if not check(value):
                raise _outside(t_name, place, value)
            return value, 0
    return emit


def compile_transition(net, spec, in_arcs, out_arcs):
    """The transition's ``bindings`` and ``fire`` functions.

    ``in_arcs`` holds ``(place index, Var or All)`` and ``out_arcs``
    ``(place index, OutputArc)`` pairs, checked by ``Net``, whose
    ``place_watchers`` must already be set.
    """
    places, watchers = net.places, net.place_watchers
    # The memos every firing clears; see the module docstring.
    cleared = set()
    var_arcs, all_arcs = [], []
    for p, pattern in in_arcs:
        cleared.update(watchers[p])
        if type(pattern) is All:
            all_arcs.append((p, pattern.name, pattern.require))
        else:
            var_arcs.append((p, pattern.name))
    if not all_arcs and len(var_arcs) == 1:
        bindings = _var_bindings(var_arcs[0], spec.guard)
    elif not all_arcs and len(var_arcs) == 2:
        bindings = _var_pair_bindings(*var_arcs, spec.guard)
    else:
        bindings = _product_bindings(var_arcs, all_arcs, spec.guard)

    emits, targets = [], []
    for p, arc in out_arcs:
        emits.append(_emitter(spec.name, places[p], arc))
        if callable(arc.delay):
            # Cleared at run time, only when the delay is 0.
            targets.append((p, True, watchers[p]))
        else:
            if arc.delay == 0:
                cleared.update(watchers[p])
            targets.append((p, places[p].timed, ()))
    clear = tuple(cleared)
    emits, targets = tuple(emits), tuple(targets)
    var_arcs, all_arcs = tuple(var_arcs), tuple(all_arcs)

    def fire(state, assign):
        # Evaluate every output before consuming: a raise leaves the
        # marking, step count, calendar and memos as they were.
        now = state.now
        made = []
        for emit in emits:
            made.append(emit(assign, state, now))
        store = state.store
        for p, name in var_arcs:
            _remove_value(store[p], assign[name], now)
        for p, name, _require in all_arcs:
            _remove_all_ready(store[p], len(assign[name]), now)
        cache = state.cache
        for w in clear:
            cache[w] = None
        for (p, timed, late), tok in zip(targets, made):
            if not timed:
                store[p].append(tok)
                continue
            insort(store[p], tok, key=_stamp)
            if tok[1] > now:
                heappush(state.calendar, (tok[1], p))
            else:
                for w in late:
                    cache[w] = None
        state.step_count += 1

    return _CompiledTransition(spec.name, spec, bindings, fire)


def enumerate_bindings(net, store, now):
    """Every enabled (transition index, assignment) pair."""
    return [
        (t_idx, assign)
        for t_idx, t in enumerate(net.transitions)
        for assign in t.bindings(store, now)
    ]


def _refresh_memos(net, state):
    """Rebuild the stale memos in one pass; return ``(n, last)``.

    ``n`` is the number of enabled bindings, the sum of the memos'
    lengths, and ``last`` the index of the last transition whose memo
    is non-empty (-1 when ``n`` is 0), so that with ``n == 1`` the
    binding is ``state.cache[last][0]``.  Rebuild order matches the
    stateless enumeration exactly, so the memos, read in transition
    order, list what :func:`enumerate_bindings` lists.
    """
    cache = state.cache
    store, now = state.store, state.now
    transitions = net.transitions
    n = 0
    last = -1
    for t_idx, memo in enumerate(cache):
        if memo is None:
            memo = cache[t_idx] = transitions[t_idx].bindings(store, now)
        if memo:
            n += len(memo)
            last = t_idx
    return n, last


def step(net, state):
    """Fire one enabled binding (uniform choice) or advance model time.

    One pass over the memos (:func:`_refresh_memos`) gives the number
    ``n`` of enabled bindings.  With one, its binding fires without a
    draw or a walk; with more, ``k`` is drawn and the memos are walked
    in transition order to the ``k``-th binding.  Returns the resulting
    :class:`Fired`, :class:`TimeAdvanced` or :class:`DeadMarking` event.
    """
    n, t_idx = _refresh_memos(net, state)
    if n:
        if n == 1:
            assign = state.cache[t_idx][0]
        else:
            k = state.rng.pick(n)
            for t_idx, memo in enumerate(state.cache):
                if k < len(memo):
                    break
                k -= len(memo)
            assign = memo[k]
        t = net.transitions[t_idx]
        t.fire(state, assign)
        return Fired(t.name, assign, state.now)
    previous = state.now
    calendar = state.calendar
    cache = state.cache
    watchers = net.place_watchers
    popped = []
    while calendar:
        t = calendar[0][0]
        while calendar and calendar[0][0] == t:
            entry = heappop(calendar)
            popped.append(entry)
            for w in watchers[entry[1]]:
                cache[w] = None
        state.now = t
        if _refresh_memos(net, state)[0]:
            return TimeAdvanced(previous, t)
    # Dead: put the clock and the calendar back; entries popped in order
    # already form a heap.  Every memo is empty, as at ``previous``.
    state.now = previous
    calendar.extend(popped)
    return DeadMarking(previous)


def run(net, state, stop=None, hooks=(), max_steps=DEFAULT_STEP_LIMIT):
    """Step until ``stop(state, event)`` is true or the marking is dead.

    ``stop`` is consulted once before the first step with event ``None``
    (so a trivially-true predicate performs zero steps) and after every
    step.  Hooks are called after every step with ``(state, event)``,
    the terminal event included; the hooks given at the start are the
    ones called, even if the caller's list grows during the run.
    Raises :class:`StepLimitExceeded` after ``max_steps`` steps as a
    guard against runaway models.
    """
    hooks = tuple(hooks)
    if stop is not None and stop(state, None):
        return state
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_steps:
            raise StepLimitExceeded(max_steps)
        event = step(net, state)
        for hook in hooks:
            hook(state, event)
        if stop is not None and stop(state, event):
            return state
        if type(event) is DeadMarking:
            return state


def kernel_name():
    """Name of the engine kernel; always 'pure' (interpreted Python)."""
    return "pure"


def enabled_bindings(net, state):
    """Every enabled (transition name, assignment), in enumeration order."""
    return [
        (net.transitions[t_idx].name, assign)
        for t_idx, assign in enumerate_bindings(net, state.store, state.now)
    ]


def fire(net, state, transition, assignment):
    """Fire a binding that :func:`enabled_bindings` lists right now.

    Raises :class:`FiringError` unless ``assignment`` equals one of the
    transition's enabled assignments at ``state.now``; that enumerated
    assignment, whose values are the tokens' own, is the one fired.
    Mutates and returns ``state``.
    """
    try:
        t = net.transitions[net.transition_index[transition]]
    except KeyError:
        raise FiringError(f"unknown transition {transition}") from None
    enabled = t.bindings(state.store, state.now)
    try:
        listed = enabled[enabled.index(assignment)]
    except ValueError:
        raise FiringError(
            f"{transition} is not enabled with the binding "
            f"{assignment!r} at time {state.now}"
        ) from None
    t.fire(state, listed)
    return state


def advance_time(net, state):
    """Earliest future time with an enabled binding, or None if dead.

    Only meaningful when nothing is enabled at ``state.now``; calling it
    while a binding is enabled raises :class:`FiringError`.  The state's
    clock is not modified; use :func:`step` to actually advance.
    """
    store = state.store
    if enumerate_bindings(net, store, state.now):
        raise FiringError("advance_time called while a binding is enabled")
    for t in sorted({ts for ts, _pidx in state.calendar}):
        if enumerate_bindings(net, store, t):
            return t
    return None
