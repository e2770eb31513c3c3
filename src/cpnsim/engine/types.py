"""Structural types for the timed coloured-Petri-net engine.

A net is a bipartite graph of places and transitions.  Places hold
multisets of typed tokens; timed places additionally stamp each token
with the earliest model time (integer milliseconds) at which it may be
consumed.  Transitions remove tokens along input arcs, subject to a
guard over the bound variables, and produce tokens along output arcs
whose expressions may draw from the run's random stream.

Everything here is plain data.  The operations on it (binding
enumeration, firing, time advancement) live in ``_kernel.py``.

Internally a place is a list of ``(value, timestamp)`` pairs, one entry
per token; untimed places use timestamp 0, which is always ready, and
timed places are kept sorted by timestamp.  The engine sorts and
compares token values but never hashes them.  Public
accessors group equal tokens into ``(value, timestamp, count)``
triples and report ``None`` timestamps for untimed places.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple


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


# ---------------------------------------------------------------------------
# Token values and colour sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColourSet:
    """A named token type: a membership predicate over values.

    Token values must be mutually orderable within one place: the
    engine sorts candidate tokens for deterministic binding enumeration
    and groups equal ones by sorting, never by hashing.  ``contains``
    is the exact membership test, applied wherever tokens enter from
    outside the net (add_tokens).  ``quick`` is an O(1) spot check
    applied to every token a firing produces; for scalar sets it equals
    ``contains``, for container sets it only checks the container shape
    so firing cost stays independent of the value size.
    """

    name: str
    contains: Callable[[Any], bool]
    quick: Callable[[Any], bool] | None = None

    def __post_init__(self):
        if self.quick is None:
            object.__setattr__(self, "quick", self.contains)

    def __repr__(self):
        return f"ColourSet({self.name})"


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


INT_SET = ColourSet("INT", _is_int)


def instance_set(name: str, cls: type) -> ColourSet:
    """Colour set of all instances of an orderable class."""
    return ColourSet(name, lambda v: isinstance(v, cls))


def list_set(name: str, element: ColourSet) -> ColourSet:
    """Colour set of tuples whose elements all belong to ``element``.

    Lists are represented as tuples so a token cannot change while it
    sits in a place, and arc expressions build a new list instead of
    editing the one they consumed.  The per-firing spot check only
    verifies the tuple shape and the first element, keeping firing cost
    independent of the list length.
    """
    return ColourSet(
        name,
        lambda v: isinstance(v, tuple) and all(element.contains(e) for e in v),
        lambda v: isinstance(v, tuple) and (not v or element.contains(v[0])),
    )


# ---------------------------------------------------------------------------
# Net structure
# ---------------------------------------------------------------------------

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
    either an int or ``delay(assignment, state)`` yielding milliseconds.
    The produced token's timestamp is ``state.now + delay`` on timed
    places; untimed target places require the constant delay 0, and a
    constant delay must not be negative.  A firing evaluates every
    output arc, ``expr`` then ``delay`` in arc order, before it consumes
    any input token, so an expression sees the marking as it was when
    the binding was enabled, and one that raises leaves the marking,
    ``step_count``, the calendar and the memos as they were (RNG draws
    already made by earlier arcs are not undone).  All randomness must
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
    """A transition as the kernel runs it: two functions built with the net.

    ``bindings(store, now)`` lists the enabled assignments in
    enumeration order; ``fire(state, assignment)`` fires one of them.
    ``spec`` is the declaration they were built from.
    """

    name: str
    spec: TransitionSpec
    bindings: Callable[[list, int], list[dict]]
    fire: Callable[["SimState", dict], None]


class Net:
    """Immutable net structure; build via :class:`NetBuilder`.

    Transitions are stored sorted by name, and binding enumeration
    visits them in that order, so event traces are reproducible.  Each
    is compiled once, here, into the functions the kernel calls.
    """

    def __init__(self, places: list[Place], transitions: list[TransitionSpec]):
        # Imported here: the kernel imports this module.
        from cpnsim.engine._kernel import compile_transition

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

    def _arcs(self, spec: TransitionSpec):
        """Checked ``(place index, pattern)`` and ``(place index, OutputArc)`` lists."""
        in_arcs = []
        for place_name, pattern in spec.inputs:
            idx = self._place_idx(spec.name, place_name)
            if not isinstance(pattern, (Var, All)):
                raise ModelStructureError(
                    f"transition {spec.name}: unknown input pattern {pattern!r}"
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
            idx = self._place_idx(spec.name, arc.place)
            constant = not callable(arc.delay)
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

    def _place_idx(self, tname: str, pname: str) -> int:
        try:
            return self.place_index[pname]
        except KeyError:
            raise ModelStructureError(
                f"transition {tname} references unknown place {pname}"
            ) from None

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


# ---------------------------------------------------------------------------
# Markings
# ---------------------------------------------------------------------------

# The key a timed place's token list is sorted by.
_stamp = itemgetter(1)


def _grouped(tokens) -> list[tuple[Any, int, int]]:
    """Sorted ``(value, timestamp, count)`` triples of a place's tokens."""
    return [
        (value, ts, sum(1 for _ in run))
        for (value, ts), run in groupby(sorted(tokens))
    ]


def _tokens(net: Net, store: list[list], place: str) -> list[tuple]:
    """Sorted ``(value, timestamp, count)`` list; timestamp None if untimed."""
    idx = net.place_index[place]
    timed = net.places[idx].timed
    return [(value, ts if timed else None, count)
            for value, ts, count in _grouped(store[idx])]


def _normalize_tokens(place: Place, tokens) -> Iterable[tuple[Any, int, int]]:
    """Yield (value, timestamp, count) triples from user-supplied tokens.

    For timed places each token must be a ``(value, timestamp)`` pair;
    for untimed places, a bare value.  ``tokens`` is either a mapping
    token -> count or an iterable of tokens (counted with multiplicity).
    """
    if isinstance(tokens, dict):
        items = tokens.items()
    else:
        items = ((t, 1) for t in tokens)
    for tok, count in items:
        if not (_is_int(count) and count >= 1):
            raise ModelStructureError(
                f"token count {count!r} on place {place.name} is not a "
                "positive integer"
            )
        if place.timed:
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
        else:
            value, ts = tok, 0
        if not place.colour.contains(value):
            raise ModelStructureError(
                f"value {value!r} is not in colour set {place.colour.name} "
                f"of place {place.name}"
            )
        yield value, ts, count


class Marking:
    """Assignment of a token multiset to every place of a net.

    Value semantics: ``add_tokens`` returns a new marking and leaves the
    original as it was.  The new marking copies the token list of the
    place it adds to and shares the other places' lists, which no
    marking changes once it is made; :class:`SimState` copies them all.
    A timed place's tokens are kept sorted by timestamp, in the order
    added among equal ones, as :class:`SimState` needs them.
    """

    def __init__(self, net: Net, store: list[list] | None = None):
        self.net = net
        if store is None:
            store = [[] for _ in net.places]
        self._store = store

    @classmethod
    def empty(cls, net: Net) -> "Marking":
        return cls(net)

    def _copy_store(self) -> list[list]:
        return [list(tokens) for tokens in self._store]

    def add_tokens(self, place: str, tokens) -> "Marking":
        """Return a new marking with ``tokens`` added to ``place``."""
        try:
            idx = self.net.place_index[place]
        except KeyError:
            raise ModelStructureError(f"unknown place {place}") from None
        store = list(self._store)
        added = store[idx] = list(store[idx])
        target = self.net.places[idx]
        for value, ts, count in _normalize_tokens(target, tokens):
            added.extend([(value, ts)] * count)
        if target.timed:
            added.sort(key=_stamp)
        return Marking(self.net, store)

    def count(self, place: str) -> int:
        return len(self._store[self.net.place_index[place]])

    def tokens(self, place: str) -> list[tuple[Any, int | None, int]]:
        return _tokens(self.net, self._store, place)

    def __eq__(self, other):
        return (
            isinstance(other, Marking)
            and other.net is self.net
            and all(
                sorted(mine) == sorted(theirs)
                for mine, theirs in zip(self._store, other._store)
            )
        )

    def __repr__(self):
        parts = []
        for place, tokens in zip(self.net.places, self._store):
            if tokens:
                terms = "++".join(
                    f"{c}`{v!r}" + (f"@{ts}" if place.timed else "")
                    for v, ts, c in _grouped(tokens)
                )
                parts.append(f"{place.name}: {terms}")
        return "Marking(" + "; ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Simulation state and events
# ---------------------------------------------------------------------------

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
    ``rng``.

    ``store`` holds, per place index, the list of the place's
    ``(value, timestamp)`` tokens, one entry per token; a place's token
    count is the length of its list.  An untimed place keeps arrival
    order; a timed place is kept sorted by timestamp, in arrival order
    among equal timestamps (the marking's order to begin with).

    ``calendar`` is the event calendar that drives time advance.  Its
    invariant: the set of its entries equals the set of
    ``(timestamp, place index)`` pairs of tokens stamped later than
    ``now`` (an entry may repeat, one per token produced).
    """

    __slots__ = ("net", "store", "now", "rng", "step_count", "cache", "calendar")

    def __init__(self, net: Net, marking: Marking, rng, now: int = 0):
        if marking.net is not net:
            raise ModelStructureError("marking belongs to a different net")
        if now < 0:
            raise ModelStructureError("model time must be non-negative")
        self.net = net
        self.store: list[list] = marking._copy_store()
        self.now: int = now
        self.rng = rng
        self.step_count: int = 0
        # Per-transition memo of enabled assignments; None means stale.
        # Maintained by the kernel, keyed to (store, now) mutations, so
        # states must only be mutated through the engine API.
        self.cache: list = [None] * len(net.transitions)
        # Event calendar: a min-heap of (timestamp, place index) whose
        # entry set is that of the tokens stamped later than ``now``.
        # Firings push one entry per token they stamp in the future;
        # only ready tokens are consumed, so no entry outlives its token.
        self.calendar: list[tuple[int, int]] = [
            (ts, pidx)
            for pidx in net.timed_places
            for _value, ts in self.store[pidx]
            if ts > now
        ]
        heapq.heapify(self.calendar)

    def count(self, place: str) -> int:
        return len(self.store[self.net.place_index[place]])

    def tokens(self, place: str) -> list[tuple[Any, int | None, int]]:
        return _tokens(self.net, self.store, place)

    def __repr__(self):
        return (
            f"SimState(now={self.now}, steps={self.step_count}, "
            f"tokens={sum(map(len, self.store))})"
        )
