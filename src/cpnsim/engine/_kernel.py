"""The engine: binding enumeration, firing, time advance.

``cpnsim.engine`` re-exports the public functions of this module:
``step`` and ``run`` drive a simulation, ``enabled_bindings``, ``fire``
and ``advance_time`` expose single moves of it.  A binding is a
transition and an assignment of its input variables; it is enabled
exactly when the enumeration lists it, and ``fire`` checks a caller's
assignment against that list, so the firing rule is stated once.

The marking is ``state.store``: per place index, a list of
``(value, timestamp)`` pairs, one entry per token, in no particular
order.  A firing appends the tokens it produces and deletes the ones
it consumes; a place's token count is the length of its list.  No
token value is ever hashed: candidates are found by sorting a place's
ready values and grouping equal neighbours, and consumed tokens by
comparing values.  A place of one token, such as the raytracing
model's work list, skips both: its candidate is that token if ready,
and consuming it empties the list.

Every input arc of a transition has its own place and its own variable
(``Net`` rejects anything else), so a transition's bindings are the
plain product of its ``Var`` arcs' candidate values, with the ``All``
arcs' tuples, filtered by the guard.  Two shapes skip the general
product and list the same bindings in the same order: one ``Var`` arc
(a plain loop) and two ``Var`` arcs (a plain double loop).

Determinism contract:

* transitions are visited in name order (the order ``Net`` stores them);
* candidate tokens of a ``Var`` arc are the distinct *values* with at
  least one ready token, visited in sorted order, so bindings are
  enumerated lexicographically over (transition, token values);
* firing walks ``t.in_arcs``: a ``Var`` arc consumes the ready token
  of its bound value with the smallest timestamp (the lowest list index
  among equal timestamps), an ``All`` arc every ready token;
* ``step`` draws one choice index from the state RNG only when two or
  more bindings are enabled.

Enumeration is memoised per transition in ``state.cache``.  A memo
holds the transition's enabled assignments at ``state.now`` and stays
valid until the ready tokens of one of its input places change: a
firing clears the memos of the watchers of every place it took from or
gave a ready token to.  ``step`` rebuilds the cleared memos, sums their
lengths to get the number ``n`` of enabled bindings, draws ``k`` and
walks the memos in transition order to the ``k``-th binding; it builds
no list of all bindings.

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

from bisect import bisect_right
from heapq import heappop, heappush
from itertools import product

from cpnsim.engine.types import (
    ARC_ALL,
    ARC_VAR,
    DeadMarking,
    FiringError,
    Fired,
    ModelStructureError,
    StepLimitExceeded,
    TimeAdvanced,
)

DEFAULT_STEP_LIMIT = 10_000_000


def _ready_candidates(tokens, now):
    """The distinct ready values, sorted.

    Equal values (one value at several timestamps, or repeated tokens)
    form one run after the sort, skipped by bisection, so no token value
    is hashed.  A place of one token needs no sort.
    """
    if len(tokens) == 1:
        value, ts = tokens[0]
        return [value] if ts <= now else []
    values = sorted([value for value, ts in tokens if ts <= now])
    distinct = []
    i, n = 0, len(values)
    while i < n:
        value = values[i]
        distinct.append(value)
        i = bisect_right(values, value, i + 1)
    return distinct


def _gather_all(tokens, now):
    """All ready values (with multiplicity), sorted."""
    return tuple(sorted([value for value, ts in tokens if ts <= now]))


def _transition_bindings(net, store, now, t_idx):
    """The enabled assignments of one transition, in enumeration order."""
    t = net.transitions[t_idx]
    in_arcs = t.in_arcs
    guard = t.guard
    out = []

    if len(in_arcs) == 1 and in_arcs[0][1] == ARC_VAR:
        # One Var arc: each ready value is one binding, no product.
        pidx, _kind, name, _require = in_arcs[0]
        if store[pidx]:
            for value in _ready_candidates(store[pidx], now):
                assign = {name: value}
                if guard is None or guard(assign):
                    out.append(assign)
        return out

    if len(in_arcs) == 2:
        (p1, kind1, name1, _r1), (p2, kind2, name2, _r2) = in_arcs
        if kind1 == ARC_VAR == kind2:
            # Two Var arcs: the product of the two candidate lists, in
            # the order of the general path.
            if not store[p1] or not store[p2]:
                return out
            first = _ready_candidates(store[p1], now)
            if not first:
                return out
            second = _ready_candidates(store[p2], now)
            for v1 in first:
                for v2 in second:
                    assign = {name1: v1, name2: v2}
                    if guard is None or guard(assign):
                        out.append(assign)
            return out

    for arc in in_arcs:
        pidx = arc[0]
        if arc[1] == ARC_ALL:
            if arc[3] >= 0 and len(store[pidx]) != arc[3]:
                return out
        elif not store[pidx]:
            return out

    # The All arcs' variables come first in every assignment, then the
    # Var arcs' in arc order.
    fixed = {}
    var_names, candidates = [], []
    for pidx, kind, name, require in in_arcs:
        if kind == ARC_ALL:
            values = _gather_all(store[pidx], now)
            if require >= 0 and len(values) != require:
                return out
            fixed[name] = values
        else:
            ready = _ready_candidates(store[pidx], now)
            if not ready:
                return out
            var_names.append(name)
            candidates.append(ready)

    for values in product(*candidates):
        assign = dict(fixed)
        assign.update(zip(var_names, values))
        if guard is None or guard(assign):
            out.append(assign)
    return out


def enumerate_bindings(net, store, now):
    """Every enabled (transition index, assignment) pair."""
    return [
        (t_idx, assign)
        for t_idx in range(len(net.transitions))
        for assign in _transition_bindings(net, store, now, t_idx)
    ]


def _remove_value(tokens, value, now):
    """Remove the ready token of ``value`` with the smallest timestamp.

    Among equal timestamps the token with the lowest list index goes.
    The bound value is normally the very object enumeration read from
    this place, so identity is tested first: a large value, such as a
    long list token, is then not compared with itself element by element.
    A place of one token is emptied without a scan.
    """
    if len(tokens) == 1:
        v, ts = tokens[0]
        assert ts <= now and (v is value or v == value), (
            "no ready token for a bound value")
        tokens.clear()
        return
    ready = [
        (ts, i) for i, (v, ts) in enumerate(tokens)
        if ts <= now and (v is value or v == value)
    ]
    assert ready, "no ready token for a bound value"
    del tokens[min(ready)[1]]


def _remove_all_ready(tokens, expected, now):
    """Remove every ready token; the population must match the binding."""
    pending = [tok for tok in tokens if tok[1] > now]
    assert len(tokens) - len(pending) == expected, (
        "ready population changed since enumeration")
    tokens[:] = pending


def apply_binding(net, state, t_idx, assign):
    """Fire without re-validation (caller guarantees enabledness)."""
    store = state.store
    now = state.now
    t = net.transitions[t_idx]
    dirty = set()

    for pidx, kind, name, _require in t.in_arcs:
        if kind == ARC_VAR:
            _remove_value(store[pidx], assign[name], now)
        else:
            _remove_all_ready(store[pidx], len(assign[name]), now)
        dirty.add(pidx)

    checks = net.colour_checks
    for pidx, timed, expr, delay in t.out_arcs:
        value = expr(assign, state)
        if not checks[pidx](value):
            raise ModelStructureError(
                f"transition {t.name} produced {value!r}, outside the colour "
                f"set of place {net.places[pidx].name}"
            )
        if timed:
            d = delay(assign, state) if callable(delay) else delay
            if d < 0:
                raise ModelStructureError(
                    f"transition {t.name} produced a negative delay {d}"
                )
            tok = (value, now + d)
            if d == 0:
                dirty.add(pidx)
            else:
                heappush(state.calendar, (now + d, pidx))
        else:
            tok = (value, 0)
            dirty.add(pidx)
        store[pidx].append(tok)
    state.step_count += 1

    # Only places whose ready tokens changed can alter enabledness;
    # tokens produced with a future timestamp change nothing yet.
    cache = state.cache
    watchers = net.place_watchers
    for pidx in dirty:
        for w in watchers[pidx]:
            cache[w] = None


def _refresh_memos(net, state):
    """Rebuild the cleared memos; return the number of enabled bindings.

    Rebuild order matches the stateless enumeration exactly, so the
    memos, read in transition order, list what
    :func:`enumerate_bindings` lists.
    """
    cache = state.cache
    n = 0
    for t_idx, memo in enumerate(cache):
        if memo is None:
            memo = cache[t_idx] = _transition_bindings(
                net, state.store, state.now, t_idx)
        n += len(memo)
    return n


def step(net, state):
    """Fire one enabled binding (uniform choice) or advance model time.

    Returns the resulting :class:`Fired`, :class:`TimeAdvanced` or
    :class:`DeadMarking` event.
    """
    n = _refresh_memos(net, state)
    if n:
        k = state.rng.pick(n) if n > 1 else 0
        for t_idx, memo in enumerate(state.cache):
            if k < len(memo):
                break
            k -= len(memo)
        assign = memo[k]
        apply_binding(net, state, t_idx, assign)
        return Fired(net.transitions[t_idx].name, assign, state.now)
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
        if _refresh_memos(net, state):
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

    Raises :class:`FiringError` unless ``assignment`` is one of the
    transition's enabled assignments at ``state.now``.  Mutates and
    returns ``state``.
    """
    try:
        t_idx = net.transition_index[transition]
    except KeyError:
        raise FiringError(f"unknown transition {transition}") from None
    if assignment not in _transition_bindings(
            net, state.store, state.now, t_idx):
        raise FiringError(
            f"{transition} is not enabled with the binding "
            f"{assignment!r} at time {state.now}"
        )
    apply_binding(net, state, t_idx, assignment)
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
