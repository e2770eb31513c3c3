"""The engine: binding enumeration, firing, time advance.

``cpnsim.engine`` re-exports the public functions of this module:
``step`` and ``run`` drive a simulation, ``enabled_bindings``, ``fire``
and ``advance_time`` expose single moves of it.  A binding is enabled
exactly when the enumeration lists it; ``fire`` checks a caller's
binding against that list, so the firing rule is stated once.

The marking is ``state.store``: per place index, a list of
``(value, timestamp)`` pairs, one entry per token, in no particular
order.  A firing appends the tokens it produces and deletes the ones
it consumes; a place's token count is the length of its list.  No
token value is ever hashed: candidates are found by sorting a place's
ready values and grouping equal neighbours, and consumed tokens by
comparing values.  A place of one token, such as the raytracing
model's work list, skips both: its candidate is that token if ready,
and consuming it empties the list.

A transition's bindings are the product of its ``Var`` arcs'
candidates, filtered by the guard.  Two shapes skip the general
depth-first product (``_expand``) and list the same bindings in the
same order: one ``Var`` arc, and two ``Var`` arcs on different places
with different variables, which is a plain double loop.

Determinism contract:

* transitions are visited in name order (the order ``Net`` stores them);
* candidate tokens of a ``Var`` arc are the distinct *values* with at
  least one ready token, visited in sorted order, so bindings are
  enumerated lexicographically over (transition, token values);
* firing consumes, per bound value, the ready token(s) with the
  smallest timestamps;
* ``step`` draws one choice index from the state RNG only when two or
  more bindings are enabled.

Enumeration is memoised per transition in ``state.cache``.  A memo
holds the transition's enabled bindings at ``state.now`` and stays
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

from cpnsim.engine.types import (
    ARC_ALL,
    ARC_VAR,
    Binding,
    DeadMarking,
    FiringError,
    Fired,
    ModelStructureError,
    StepLimitExceeded,
    TimeAdvanced,
)

DEFAULT_STEP_LIMIT = 10_000_000

_MISSING = object()


def _ready_candidates(tokens, now):
    """Sorted (value, ready count) pairs, one per distinct ready value.

    Equal values (one value at several timestamps, or repeated tokens)
    form one run after the sort, found by bisection, so no token value
    is hashed.  A place of one token needs no sort.
    """
    if len(tokens) == 1:
        value, ts = tokens[0]
        return [(value, 1)] if ts <= now else []
    values = sorted([value for value, ts in tokens if ts <= now])
    merged = []
    i, n = 0, len(values)
    while i < n:
        value = values[i]
        end = bisect_right(values, value, i + 1)
        merged.append((value, end - i))
        i = end
    return merged


def _gather_all(tokens, now):
    """All ready values (with multiplicity), sorted."""
    return tuple(sorted([value for value, ts in tokens if ts <= now]))


def _expand(arcs, i, assign, used, reqs, guard, t_idx, all_reqs, out):
    """Depth-first product over Var arcs with availability bookkeeping.

    Arcs on one place share its sorted candidate list, so ``used`` and
    the merged requirements key a token by (place, position in that
    list) and never hash a token value.
    """
    if i == len(arcs):
        if guard is not None and not guard(assign):
            return
        merged = {}
        for key, value in reqs:
            if key in merged:
                merged[key][3] += 1
            else:
                merged[key] = [key[0], ARC_VAR, value, 1]
        requirements = tuple(map(tuple, merged.values())) + all_reqs
        out.append((t_idx, dict(assign), requirements))
        return

    pidx, name, candidates = arcs[i]
    bound = assign.get(name, _MISSING)
    fresh = bound is _MISSING
    for j, (value, avail) in enumerate(candidates):
        if not fresh and value != bound:
            continue
        key = (pidx, j)
        taken = used.get(key, 0)
        if taken >= avail:
            continue
        used[key] = taken + 1
        if fresh:
            assign[name] = value
        reqs.append((key, value))
        _expand(arcs, i + 1, assign, used, reqs, guard, t_idx, all_reqs, out)
        reqs.pop()
        if fresh:
            del assign[name]
        used[key] = taken


def _transition_bindings(net, store, now, t_idx, out):
    """Append enabled bindings of one transition to ``out``."""
    t = net.transitions[t_idx]
    in_arcs = t.in_arcs

    if len(in_arcs) == 1 and in_arcs[0][1] == ARC_VAR:
        # One Var arc: each ready value is one binding, no product.
        pidx, _kind, name, _require = in_arcs[0]
        if not store[pidx]:
            return
        guard = t.guard
        for value, _avail in _ready_candidates(store[pidx], now):
            assign = {name: value}
            if guard is None or guard(assign):
                out.append((t_idx, assign, ((pidx, ARC_VAR, value, 1),)))
        return

    if len(in_arcs) == 2:
        (p1, kind1, name1, _r1), (p2, kind2, name2, _r2) = in_arcs
        if kind1 == ARC_VAR == kind2 and p1 != p2 and name1 != name2:
            # Two independent Var arcs: the product of the two candidate
            # lists, in the order and with the requirements of _expand.
            if not store[p1] or not store[p2]:
                return
            first = _ready_candidates(store[p1], now)
            if not first:
                return
            second = _ready_candidates(store[p2], now)
            guard = t.guard
            for v1, _avail1 in first:
                for v2, _avail2 in second:
                    assign = {name1: v1, name2: v2}
                    if guard is None or guard(assign):
                        out.append((t_idx, assign, (
                            (p1, ARC_VAR, v1, 1), (p2, ARC_VAR, v2, 1))))
            return

    for arc in in_arcs:
        pidx = arc[0]
        if arc[1] == ARC_ALL:
            if arc[3] >= 0 and len(store[pidx]) != arc[3]:
                return
        elif not store[pidx]:
            return

    var_arcs = []
    all_reqs = []
    assign = {}
    for pidx, kind, name, require in in_arcs:
        if kind == ARC_ALL:
            values = _gather_all(store[pidx], now)
            if require >= 0 and len(values) != require:
                return
            assign[name] = values
            all_reqs.append((pidx, ARC_ALL, values, len(values)))
        else:
            candidates = _ready_candidates(store[pidx], now)
            if not candidates:
                return
            var_arcs.append((pidx, name, candidates))

    _expand(var_arcs, 0, assign, {}, [], t.guard, t_idx, tuple(all_reqs), out)


def enumerate_bindings(net, store, now):
    """Every enabled (transition index, assignment, requirements) triple."""
    out = []
    for t_idx in range(len(net.transitions)):
        _transition_bindings(net, store, now, t_idx, out)
    return out


def _remove_value(tokens, value, count, now):
    """Remove ``count`` ready tokens of ``value``, oldest timestamps first.

    The bound value is normally the very object enumeration read from
    this place, so identity is tested first: a large value, such as a
    long list token, is then not compared with itself element by element.
    A place of one token is emptied without a scan.
    """
    if count == 1 and len(tokens) == 1:
        v, ts = tokens[0]
        assert ts <= now and (v is value or v == value), (
            "not enough ready tokens for a bound value")
        tokens.clear()
        return
    ready = sorted([
        (ts, i) for i, (v, ts) in enumerate(tokens)
        if ts <= now and (v is value or v == value)
    ])
    assert len(ready) >= count, "not enough ready tokens for a bound value"
    for i in sorted([i for _ts, i in ready[:count]], reverse=True):
        del tokens[i]


def _remove_all_ready(tokens, expected, now):
    """Remove every ready token; the population must match the binding."""
    pending = [tok for tok in tokens if tok[1] > now]
    assert len(tokens) - len(pending) == expected, (
        "ready population changed since enumeration")
    tokens[:] = pending


def apply_binding(net, state, t_idx, assign, requirements):
    """Fire without re-validation (caller guarantees enabledness)."""
    store = state.store
    now = state.now
    t = net.transitions[t_idx]
    dirty = set()

    for pidx, kind, value, count in requirements:
        if kind == ARC_VAR:
            _remove_value(store[pidx], value, count, now)
        else:
            _remove_all_ready(store[pidx], count, now)
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
            memo = cache[t_idx] = []
            _transition_bindings(net, state.store, state.now, t_idx, memo)
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
        for memo in state.cache:
            if k < len(memo):
                break
            k -= len(memo)
        t_idx, assign, requirements = memo[k]
        apply_binding(net, state, t_idx, assign, requirements)
        return Fired(
            net.transitions[t_idx].name, Binding(assign, requirements), state.now
        )
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
    """Every enabled (transition name, binding), in enumeration order."""
    raw = enumerate_bindings(net, state.store, state.now)
    return [
        (net.transitions[t_idx].name, Binding(assign, reqs))
        for t_idx, assign, reqs in raw
    ]


def fire(net, state, transition, binding):
    """Fire a binding that :func:`enabled_bindings` lists right now.

    Raises :class:`FiringError` unless ``binding`` (its assignment and
    its requirements) is one of the transition's enabled bindings at
    ``state.now``.  Mutates and returns ``state``.
    """
    try:
        t_idx = net.transition_index[transition]
    except KeyError:
        raise FiringError(f"unknown transition {transition}") from None
    enabled = []
    _transition_bindings(net, state.store, state.now, t_idx, enabled)
    if (t_idx, binding.assignment, binding.requirements) not in enabled:
        raise FiringError(
            f"{transition} is not enabled with the binding "
            f"{binding.assignment!r} at time {state.now}"
        )
    apply_binding(net, state, t_idx, binding.assignment, binding.requirements)
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
