"""The engine: nets, markings, binding enumeration, firing, time advance.

A net is a bipartite graph of places and transitions.  Places hold
multisets of typed tokens; timed places additionally stamp each token
with the earliest model time (integer milliseconds) at which it may be
consumed.  Transitions remove tokens along input arcs, subject to a
guard over the bound variables, and produce tokens along output arcs
whose expressions may draw from the run's random stream.

Of the functions on a net and its state,
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
raytracing model's work list, needs no sort.  Public accessors group
equal tokens into ``(value, timestamp, count)`` triples and report
``None`` timestamps for untimed places.

When a ``Net`` is built, each transition's two plain functions are
generated as source and compiled (:func:`compile_transition`): place
and memo indices, variable names, arc order and delay forms are written
in, not looked up on each step.  ``step``, ``enumerate_bindings``,
``enabled_bindings``, ``fire`` and ``advance_time`` all call them, so
there is one firing rule; a traceback shows the generated line.

* ``bindings(store, now)`` lists the enabled assignments.  Every input
  arc has its own place and its own variable (``Net`` rejects anything
  else), so they are the plain product of the ``Var`` arcs' candidate
  values, one nested loop per arc, with the ``All`` arcs' tuples first,
  filtered by the guard.  An ``All`` arc's place is untimed and must
  hold exactly its count of tokens; its tuple is all of them, sorted.
* ``fire(state, assignment)`` first evaluates every output arc, in arc
  order ``expr`` then ``delay``, with its colour check and, for a delay
  function, the check for an int of 0 or more; only then does it
  consume the inputs and add the outputs.  A firing that raises,
  whether in a check or in an arc expression, leaves the marking,
  ``step_count`` and the memos as they were; RNG draws that earlier
  arcs already made are not undone.

Determinism contract:

* transitions are visited in name order (the order ``Net`` stores them);
* candidate tokens of a ``Var`` arc are the distinct *values* with at
  least one ready token, visited in sorted order, so bindings are
  enumerated lexicographically over (transition, token values);
* firing follows the transition's input arcs: a ``Var`` arc consumes
  the ready token of its bound value with the smallest timestamp (the
  earliest arrival among equal timestamps), an ``All`` arc every token
  of its untimed place;
* ``step`` draws one choice index from the state RNG only when two or
  more bindings are enabled.

Enumeration is memoised per transition in ``state.cache``.  A memo
holds the transition's enabled assignments at ``state.now``, ``None``
when stale, and stays valid until the ready tokens of one of its input
places change.  Each generated ``fire`` clears, on every firing, the
memos of the watchers of its input places, of its untimed output
places and of its timed output places with constant delay 0.  Only a
delay function that returns 0 clears more, its place's watchers, at
run time; a token stamped later changes nothing until the clock
reaches it.  ``step`` makes one pass over the memos, the generated
``net.refresh(cache, store, now)``, that rebuilds the cleared ones,
sums their lengths to get the number ``n`` of enabled bindings and
notes the last transition with a non-empty memo.  With ``n == 1``, the
common case, that memo's one binding fires without a draw or a second
pass; only with ``n > 1`` does ``step`` draw ``k`` and walk the memos
in transition order to the ``k``-th binding.  It builds no list of all
bindings.

Time advance reads the store.  A timed place is sorted by timestamp,
so its first pending token, stamped later than ``now``, comes right
after its ready prefix.  When nothing is enabled, ``step`` takes the
least first-pending stamp over the timed places as the next time,
clears the memos of the watchers of every place whose first pending
stamp is that time (a tie clears every such place's watchers), moves
the clock there and rebuilds the cleared memos, repeating until their
lengths sum to more than zero.  Memos it did not clear stay valid at
the new time, because none of their input places gained a ready
token.  The memos built at the new time are the ones the next firing
uses, so an advance enumerates each transition at most once per
candidate time.  With no pending token left the marking is dead: the
clock is put back, and the memos, all empty, are what enumeration at
the old time gives too.
"""

from __future__ import annotations

import linecache
import zlib
from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, NamedTuple

__all__ = [
    "All",
    "ColourSet",
    "DEFAULT_STEP_LIMIT",
    "DeadMarking",
    "EngineError",
    "Fired",
    "FiringError",
    "INT_SET",
    "ModelStructureError",
    "Net",
    "NetBuilder",
    "OutputArc",
    "SimState",
    "StepEvent",
    "StepLimitExceeded",
    "TimeAdvanced",
    "Var",
    "advance_time",
    "enabled_bindings",
    "fire",
    "instance_set",
    "kernel_name",
    "run",
    "step",
]


class EngineError(Exception):
    """Base for all engine-raised errors."""


class ModelStructureError(EngineError):
    """The net or a marking is malformed (construction-time bug)."""


class FiringError(EngineError):
    """A client asked the engine to do something the marking forbids."""


class StepLimitExceeded(EngineError):
    """A run exceeded its step ceiling; the model is likely divergent."""

    def __init__(self, steps: int):
        super().__init__(f"run exceeded the step ceiling of {steps} steps")
        self.steps = steps


@dataclass(frozen=True)
class ColourSet:
    """A named token type: a membership predicate over values.

    Token values must be mutually orderable within one place: the
    engine sorts candidate tokens for deterministic binding enumeration
    and groups equal ones by sorting, never by hashing.  ``contains``
    is the one membership test: :class:`SimState` applies it to every
    token of the initial marking, and a firing to every token it
    produces.
    """

    name: str
    contains: Callable[[Any], bool]

    def __repr__(self):
        return f"ColourSet({self.name})"


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


INT_SET = ColourSet("INT", _is_int)


def instance_set(name: str, cls: type) -> ColourSet:
    """Colour set of all instances of an orderable class."""
    return ColourSet(name, lambda v: isinstance(v, cls))


@dataclass(frozen=True)
class Place:
    name: str
    colour: ColourSet
    timed: bool = False


class Var(NamedTuple):
    """Input-arc pattern binding one token's value to a variable.

    When several ready tokens share the same value, firing consumes the
    one with the smallest timestamp.  Every input arc of a transition
    has its own place and its own variable; to join two arcs on equal
    values, bind them to different variables and compare those in the
    guard.
    """

    name: str


class All(NamedTuple):
    """Input-arc pattern binding every token of an untimed place.

    The arc is enabled only when the place holds exactly ``require``
    tokens, an int of 0 or more: the way to express "wait for the whole
    population".  The variable receives the sorted tuple of their values
    (with multiplicity), and firing consumes all of them.
    """

    name: str
    require: int


InputPattern = Var | All


@dataclass(frozen=True)
class OutputArc:
    """Produces one token per firing.

    ``expr(assignment, state)`` yields the token value; ``delay`` is
    either an int or ``delay(assignment, state)`` yielding an int, in
    milliseconds.  The produced token's timestamp is ``state.now +
    delay`` on timed places; untimed target places require the constant
    delay 0, and no delay may be negative.  A firing evaluates every
    output arc, ``expr`` then ``delay`` in arc order, before it consumes
    any input token, so an expression sees the marking as it was when
    the binding was enabled, and one that raises leaves the marking,
    ``step_count`` and the memos as they were (RNG draws already made
    by earlier arcs are not undone).  All randomness must
    live in ``expr``/``delay`` (via ``state.rng``), never in guards.
    """

    place: str
    expr: Callable[[dict, "SimState"], Any]
    delay: int | Callable[[dict, "SimState"], int] = 0


@dataclass(frozen=True)
class TransitionSpec:
    """Declared transition: guard plus input patterns and output arcs."""

    name: str
    inputs: tuple[tuple[str, InputPattern], ...]
    outputs: tuple[OutputArc, ...]
    guard: Callable[[dict], bool] | None = None


class _CompiledTransition(NamedTuple):
    """A transition as the engine runs it: two generated functions.

    ``bindings(store, now)`` lists the enabled assignments in
    enumeration order; ``fire(state, assignment)`` fires one of them.
    :func:`compile_transition` writes their source from ``spec``.
    """

    name: str
    spec: TransitionSpec
    bindings: Callable[[list, int], list[dict]]
    fire: Callable[["SimState", dict], None]


class Net:
    """Immutable net structure; build via :class:`NetBuilder`.

    Transitions are stored sorted by name, and binding enumeration
    visits them in that order, so event traces are reproducible.  Each
    is compiled once, here, by :func:`compile_transition`, and so is
    ``refresh(cache, store, now)``, the memo pass of :func:`step`.
    """

    def __init__(self, places: list[Place], transitions: list[TransitionSpec]):
        self.places: tuple[Place, ...] = tuple(places)
        self.place_index: dict[str, int] = {p.name: i for i, p in enumerate(places)}
        if len(self.place_index) != len(places):
            raise ModelStructureError("duplicate place names")
        self.timed_places: tuple[int, ...] = tuple(
            i for i, p in enumerate(places) if p.timed
        )

        specs = sorted(transitions, key=lambda t: t.name)
        if len({t.name for t in specs}) != len(specs):
            raise ModelStructureError("duplicate transition names")
        arcs = [self._arcs(t) for t in specs]
        # For every place, the transitions whose enabledness can change
        # when that place's ready tokens change (its input watchers).
        watchers: list[list[int]] = [[] for _ in places]
        for t_idx, (in_arcs, _out_arcs) in enumerate(arcs):
            for pidx, _pattern in in_arcs:
                watchers[pidx].append(t_idx)
        self.place_watchers: tuple[tuple[int, ...], ...] = tuple(
            tuple(w) for w in watchers
        )
        self.transitions: tuple[_CompiledTransition, ...] = tuple(
            compile_transition(self, spec, in_arcs, out_arcs)
            for spec, (in_arcs, out_arcs) in zip(specs, arcs)
        )
        self.transition_index: dict[str, int] = {
            t.name: i for i, t in enumerate(self.transitions)
        }
        self.refresh: Callable[[list, list, int], tuple[int, int]] = (
            _compile_refresh(self.transitions))

    def _arcs(self, spec: TransitionSpec):
        """Checked ``(place index, pattern)`` and ``(place index, OutputArc)`` lists."""
        unknown = f"transition {spec.name} references "
        in_arcs = []
        for place_name, pattern in spec.inputs:
            idx = _index_of(self, place_name, unknown)
            if not isinstance(pattern, (Var, All)):
                raise ModelStructureError(
                    f"transition {spec.name}: unknown input pattern {pattern!r}"
                )
            # The name enters the generated source as a literal; a str
            # subclass could bring its own repr.
            if type(pattern.name) is not str:
                raise ModelStructureError(
                    f"transition {spec.name}: variable name "
                    f"{pattern.name!r} is not a str"
                )
            # An All arc's count is exact only where every token is
            # always ready; on a timed place it would depend on the clock.
            if isinstance(pattern, All) and (
                    self.places[idx].timed or not _is_int(pattern.require)
                    or pattern.require < 0):
                raise ModelStructureError(
                    f"transition {spec.name}: All needs an untimed place and "
                    f"an int count of 0 or more, got place {place_name} "
                    f"and count {pattern.require!r}"
                )
            in_arcs.append((idx, pattern))
        places = {idx for idx, _pattern in in_arcs}
        names = {pattern.name for _idx, pattern in in_arcs}
        if len(places) != len(in_arcs) or len(names) != len(in_arcs):
            raise ModelStructureError(
                f"transition {spec.name}: each input arc needs its own "
                "place and its own variable"
            )

        out_arcs = []
        for arc in spec.outputs:
            idx = _index_of(self, arc.place, unknown)
            constant = not callable(arc.delay)
            # A stamp is int ms, like the clock.
            if constant and not _is_int(arc.delay):
                raise ModelStructureError(
                    f"transition {spec.name}: delay {arc.delay!r} on place "
                    f"{arc.place} is neither an int nor a function"
                )
            if not self.places[idx].timed and not (constant and arc.delay == 0):
                raise ModelStructureError(
                    f"transition {spec.name}: delay on untimed place {arc.place}"
                )
            if constant and arc.delay < 0:
                raise ModelStructureError(
                    f"transition {spec.name}: negative delay {arc.delay} "
                    f"on place {arc.place}"
                )
            out_arcs.append((idx, arc))
        return in_arcs, out_arcs

    def __repr__(self):
        return (
            f"Net({len(self.places)} places, {len(self.transitions)} transitions)"
        )


class NetBuilder:
    """Incremental net construction; ``build()`` freezes the structure."""

    def __init__(self):
        self._places: list[Place] = []
        self._transitions: list[TransitionSpec] = []

    def place(self, name: str, colour: ColourSet, timed: bool = False) -> "NetBuilder":
        self._places.append(Place(name, colour, timed))
        return self

    def transition(
        self,
        name: str,
        inputs: Iterable[tuple[str, InputPattern]],
        outputs: Iterable[OutputArc],
        guard: Callable[[dict], bool] | None = None,
    ) -> "NetBuilder":
        self._transitions.append(
            TransitionSpec(name, tuple(inputs), tuple(outputs), guard)
        )
        return self

    def build(self) -> Net:
        return Net(self._places, self._transitions)


# The key a timed place's token list is sorted by.
_stamp = itemgetter(1)


def _index_of(net: Net, place: str, prefix: str = "") -> int:
    """The index of the place named ``place``; an error puts ``prefix`` first."""
    try:
        return net.place_index[place]
    except KeyError:
        raise ModelStructureError(f"{prefix}unknown place {place}") from None


def _normalize_tokens(place: Place, tokens) -> list[tuple[Any, int]]:
    """A place's ``(value, timestamp)`` list from user-supplied tokens.

    ``tokens`` is an iterable of tokens, counted with multiplicity; a
    dict is rejected, as its keys would be taken for the tokens, and so
    are a ``str`` and ``bytes``, whose items are characters or ints.  On
    a timed place each token must be a ``(value, timestamp)`` pair, and
    the list is sorted by timestamp, stably; on an untimed place each is
    a bare value, stamped 0 and kept in the given order.  Every value
    must be in the place's colour set.
    """
    if isinstance(tokens, (dict, str, bytes)):
        raise ModelStructureError(
            f"tokens of place {place.name} must be an iterable of tokens, "
            f"not a mapping, str or bytes: {tokens!r}"
        )
    if place.timed:
        entries = []
        for tok in tokens:
            if not (isinstance(tok, tuple) and len(tok) == 2 and _is_int(tok[1])):
                raise ModelStructureError(
                    f"place {place.name} is timed; tokens must be "
                    f"(value, timestamp) pairs, got {tok!r}"
                )
            value, ts = tok
            if ts < 0:
                raise ModelStructureError(
                    f"negative timestamp {ts} on place {place.name}"
                )
            entries.append((value, ts))
        entries.sort(key=_stamp)
    else:
        entries = [(value, 0) for value in tokens]
    contains = place.colour.contains
    for value, _ts in entries:
        if not contains(value):
            raise ModelStructureError(
                f"value {value!r} is not in colour set {place.colour.name} "
                f"of place {place.name}"
            )
    return entries


class Fired(NamedTuple):
    transition: str
    assignment: dict
    time: int


class TimeAdvanced(NamedTuple):
    previous: int
    time: int


class DeadMarking(NamedTuple):
    time: int


StepEvent = Fired | TimeAdvanced | DeadMarking


class SimState:
    """Mutable state of one run: marking, clock, RNG, firing count.

    A state is owned by exactly one run; the engine mutates it in place.
    Arc expressions receive the state and may read ``now`` and draw from
    ``rng``.  ``store`` is the token store of the module docstring,
    which states its invariants.

    ``marking`` maps place names to iterables of tokens: bare values on
    an untimed place, ``(value, timestamp)`` pairs on a timed one; a
    place left out is empty.  The state builds its own store from it and
    shares no list with the caller: every token is checked against its
    place's colour set, an untimed place keeps the given order, and a
    timed place is sorted by timestamp, stably.
    """

    __slots__ = ("net", "store", "now", "rng", "step_count", "cache")

    def __init__(self, net: Net, marking: Mapping[str, Iterable], rng,
                 now: int = 0):
        # A firing stamps ``now`` plus a delay: int ms, like a token's stamp.
        if not _is_int(now) or now < 0:
            raise ModelStructureError(
                f"model time must be an int of 0 or more, got {now!r}")
        if not isinstance(marking, Mapping):
            raise ModelStructureError(
                "a marking must map place names to tokens, got a "
                f"{type(marking).__name__}")
        store: list[list] = [[] for _ in net.places]
        for name, tokens in marking.items():
            idx = _index_of(net, name)
            store[idx] = _normalize_tokens(net.places[idx], tokens)
        self.net = net
        self.store = store
        self.now: int = now
        self.rng = rng
        self.step_count: int = 0
        # Per-transition memo of enabled assignments; None means stale.
        # Maintained by the engine, keyed to (store, now) mutations, so
        # states must only be mutated through the engine API.
        self.cache: list = [None] * len(net.transitions)

    def count(self, place: str) -> int:
        return len(self.store[_index_of(self.net, place)])

    def tokens(self, place: str) -> list[tuple[Any, int | None, int]]:
        """Sorted ``(value, timestamp, count)`` triples of ``place``'s
        tokens, equal tokens grouped; the timestamp is None if untimed."""
        idx = _index_of(self.net, place)
        timed = self.net.places[idx].timed
        return [(value, ts if timed else None, sum(1 for _ in run))
                for (value, ts), run in groupby(sorted(self.store[idx]))]

    def __repr__(self):
        return (
            f"SimState(now={self.now}, steps={self.step_count}, "
            f"tokens={sum(map(len, self.store))})"
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


def _remove_value(tokens, value, now):
    """Remove the ready token of ``value`` with the smallest timestamp.

    The place is sorted by timestamp, in arrival order among equal
    ones, so that is the first equal token, and the scan ends at the
    first pending token.  The bound value is the very object enumeration
    read from this place, so identity is tested first: it spares a
    field-by-field comparison of tuple values such as nodes and tiles.
    """
    for i, (v, ts) in enumerate(tokens):
        if ts > now:
            break
        if v is value or v == value:
            del tokens[i]
            return
    raise AssertionError("no ready token for a bound value")


def _outside(t_name, place, value):
    return ModelStructureError(
        f"transition {t_name} produced {value!r}, outside the colour set "
        f"of place {place.name}"
    )


def _bad_delay(t_name, delay):
    kind = "negative" if _is_int(delay) else "non-int"
    return ModelStructureError(
        f"transition {t_name} produced a {kind} delay {delay!r}")


_COMPILED: dict[tuple[str, str], tuple[str, Any]] = {}  # see _define


def _define(kind, label, lines, namespace):
    """The function ``kind`` that the source ``lines`` define in ``namespace``.

    Each ``(label, source)`` is compiled once, under a file name of the
    label and a CRC-32 of the source, ``<cpnsim fire t 1a2b3c4d>``, whose
    :mod:`linecache` entry a traceback shows whatever nets are built
    later.  The function is taken out of ``namespace``, its globals, so
    the two make no reference cycle.
    """
    source = "\n".join(lines) + "\n"
    key = label, source
    if key not in _COMPILED:
        filename = f"<cpnsim {label} {zlib.crc32(source.encode()):08x}>"
        _COMPILED[key] = filename, compile(source, filename, "exec")
    filename, code = _COMPILED[key]
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename)
    exec(code, namespace)
    return namespace.pop(kind)


def compile_transition(net, spec, in_arcs, out_arcs):
    """The transition's ``bindings`` and ``fire`` functions, generated.

    ``in_arcs`` holds ``(place index, Var or All)`` and ``out_arcs``
    ``(place index, OutputArc)`` pairs, checked by ``Net``, whose
    ``place_watchers`` must already be set.  Place and memo indices
    enter the source as int literals and variable names, which ``Net``
    requires to be ``str``, as ``repr`` literals; everything else from
    the spec is read from the functions' shared globals.
    """
    places, watchers = net.places, net.place_watchers
    ns = {"NAME": spec.name, "guard": spec.guard, "insort": insort,
          "_bad_delay": _bad_delay, "_is_int": _is_int, "_outside": _outside,
          "_ready_candidates": _ready_candidates,
          "_remove_value": _remove_value, "_stamp": _stamp, "_value": _value}
    var_arcs = [(p, pattern.name) for p, pattern in in_arcs
                if type(pattern) is Var]
    all_arcs = []
    for p, pattern in in_arcs:
        if type(pattern) is All:
            ns[f"require{len(all_arcs)}"] = pattern.require
            all_arcs.append((p, pattern.name))

    # bindings: the count and empty tests, then one nested loop per Var
    # arc over its candidates, the All arcs' tuples first in each
    # assignment.
    src = ["def bindings(store, now):"]
    src += [f"    if len(store[{p}]) != require{i}: return []"
            for i, (p, _name) in enumerate(all_arcs)]
    src += [f"    if not store[{p}]: return []" for p, _name in var_arcs]
    src += [f"    all{i} = tuple(sorted(map(_value, store[{p}])))"
            for i, (p, _name) in enumerate(all_arcs)]
    for i, (p, _name) in enumerate(var_arcs):
        src.append(f"    ready{i} = _ready_candidates(store[{p}], now)")
        if i < len(var_arcs) - 1:
            src.append(f"    if not ready{i}: return []")
    src.append("    out = []")
    src += [f"{'    ' * (i + 1)}for v{i} in ready{i}:"
            for i in range(len(var_arcs))]
    indent = "    " * (len(var_arcs) + 1)
    items = [f"{name!r}: all{i}" for i, (_p, name) in enumerate(all_arcs)]
    items += [f"{name!r}: v{i}" for i, (_p, name) in enumerate(var_arcs)]
    assign = "{" + ", ".join(items) + "}"
    if spec.guard is None:
        src.append(f"{indent}out.append({assign})")
    else:
        src += [f"{indent}assign = {assign}",
                f"{indent}if guard(assign): out.append(assign)"]
    src.append("    return out")
    bindings = _define("bindings", f"bindings {spec.name}", src, ns)

    # fire: every output's value and checks before anything changes, so
    # a raise leaves the marking, step count and memos as they were;
    # then consume, clear the memos this firing always clears (see the
    # module docstring), add the outputs and, for a delay function that
    # returned 0, clear its place's watchers too.
    cleared = {w for p, _pattern in in_arcs for w in watchers[p]}
    src = ["def fire(state, assign):",
           "    now = state.now"]
    for i, (p, arc) in enumerate(out_arcs):
        ns.update({f"expr{i}": arc.expr, f"check{i}": places[p].colour.contains,
                   f"place{i}": places[p], f"delay{i}": arc.delay})
        src += [f"    value{i} = expr{i}(assign, state)",
                f"    if not check{i}(value{i}): "
                f"raise _outside(NAME, place{i}, value{i})"]
        if callable(arc.delay):
            src += [f"    d{i} = delay{i}(assign, state)",
                    f"    if not _is_int(d{i}) or d{i} < 0: "
                    f"raise _bad_delay(NAME, d{i})"]
        elif arc.delay == 0:
            cleared.update(watchers[p])
    src.append("    store = state.store")
    src += [f"    _remove_value(store[{p}], assign[{name!r}], now)"
            for p, name in var_arcs]
    for i, (p, _name) in enumerate(all_arcs):
        src += [f"    assert len(store[{p}]) == require{i}, "
                "'population changed since enumeration'",
                f"    store[{p}].clear()"]
    src.append("    cache = state.cache")
    if cleared:
        src.append("    " + " = ".join(f"cache[{w}]" for w in sorted(cleared))
                   + " = None")
    for i, (p, arc) in enumerate(out_arcs):
        stamp = f"now + d{i}" if callable(arc.delay) else f"now + delay{i}"
        if places[p].timed:
            src.append(f"    insort(store[{p}], (value{i}, {stamp}), key=_stamp)")
        else:
            src.append(f"    store[{p}].append((value{i}, 0))")
    for i, (p, arc) in enumerate(out_arcs):
        late = [f"cache[{w}]" for w in watchers[p] if w not in cleared]
        if callable(arc.delay) and late:
            src.append(f"    if not d{i}: " + " = ".join(late) + " = None")
    src.append("    state.step_count += 1")
    fire = _define("fire", f"fire {spec.name}", src, ns)
    return _CompiledTransition(spec.name, spec, bindings, fire)


def _compile_refresh(transitions):
    """``refresh(cache, store, now)``, the memo pass: rebuild the stale memos.

    It returns the number ``n`` of enabled bindings and the index of
    the last transition with a non-empty memo (-1 when ``n`` is 0).
    Rebuilt in transition order, the memos list what
    :func:`enumerate_bindings` lists.
    """
    ns = {f"bindings{t_idx}": t.bindings for t_idx, t in enumerate(transitions)}
    src = ["def refresh(cache, store, now):",
           "    n = 0",
           "    last = -1"]
    for t_idx in range(len(transitions)):
        src += [f"    memo = cache[{t_idx}]",
                "    if memo is None:",
                f"        memo = cache[{t_idx}] = bindings{t_idx}(store, now)",
                "    if memo:",
                "        n += len(memo)",
                f"        last = {t_idx}"]
    src.append("    return n, last")
    return _define("refresh", "refresh", src, ns)


def enumerate_bindings(net, store, now):
    """Every enabled (transition index, assignment) pair."""
    return [
        (t_idx, assign)
        for t_idx, t in enumerate(net.transitions)
        for assign in t.bindings(store, now)
    ]


def step(net, state):
    """Fire one enabled binding (uniform choice) or advance model time.

    One pass over the memos (``net.refresh``) gives the number ``n`` of
    enabled bindings.  With one, its binding fires without a
    draw or a walk; with more, ``k`` is drawn and the memos are walked
    in transition order to the ``k``-th binding.  Returns the resulting
    :class:`Fired`, :class:`TimeAdvanced` or :class:`DeadMarking` event.
    """
    n, t_idx = net.refresh(state.cache, state.store, state.now)
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
    previous = now = state.now
    store, cache = state.store, state.cache
    watchers = net.place_watchers
    while True:
        # The least first-pending stamp, and every place stamped so.
        t, due = None, []
        for p in net.timed_places:
            tokens = store[p]
            if not tokens or tokens[-1][1] <= now:
                continue
            ts = tokens[0][1]
            if ts <= now:
                ts = tokens[bisect_right(tokens, now, key=_stamp)][1]
            if t is None or ts < t:
                t, due = ts, [p]
            elif ts == t:
                due.append(p)
        if t is None:
            # Dead: put the clock back.  Every memo is empty, as at
            # ``previous``.
            state.now = previous
            return DeadMarking(previous)
        for p in due:
            for w in watchers[p]:
                cache[w] = None
        state.now = now = t
        if net.refresh(cache, store, now)[0]:
            return TimeAdvanced(previous, t)


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
    store, now = state.store, state.now
    if enumerate_bindings(net, store, now):
        raise FiringError("advance_time called while a binding is enabled")
    for t in sorted({ts for p in net.timed_places
                     for _value, ts in store[p] if ts > now}):
        if enumerate_bindings(net, store, t):
            return t
    return None
