"""Public engine API over the kernel.

The kernel (binding enumeration, firing, time advance) lives in
``_kernel``.  ``cpnsim.engine`` exports its ``step`` and ``run`` as
they are; the functions here wrap the rest of it in terms of
:class:`Binding` and :class:`Marking`.
"""

from __future__ import annotations

from cpnsim.engine import _kernel
from cpnsim.engine.types import (
    Binding,
    FiringError,
    Marking,
    Net,
    SimState,
)


def kernel_name() -> str:
    """Name of the engine kernel; always 'pure' (interpreted Python)."""
    return "pure"


def add_tokens(marking: Marking, place: str, tokens) -> Marking:
    """New marking with ``tokens`` added to ``place``.

    Tokens are bare values for untimed places, ``(value, timestamp)``
    pairs for timed ones; pass a mapping token -> count or an iterable.
    """
    return marking.add_tokens(place, tokens)


def enabled_bindings(net: Net, state: SimState) -> list[tuple[str, Binding]]:
    """Every enabled (transition name, binding), in enumeration order."""
    raw = _kernel.enumerate_bindings(net, state.store, state.counts, state.now)
    return [
        (net.transitions[t_idx].name, Binding(assign, reqs))
        for t_idx, assign, reqs in raw
    ]


def fire(net: Net, state: SimState, transition: str, binding: Binding) -> SimState:
    """Fire a binding previously obtained from :func:`enabled_bindings`.

    Validates that the binding is still enabled and raises
    :class:`FiringError` otherwise.  Mutates and returns ``state``.
    """
    try:
        t_idx = net.transition_index[transition]
    except KeyError:
        raise FiringError(f"unknown transition {transition}") from None
    _kernel.validate_binding(
        net, state, t_idx, binding.assignment, binding.requirements
    )
    _kernel.apply_binding(
        net, state, t_idx, binding.assignment, binding.requirements
    )
    return state


def advance_time(net: Net, state: SimState) -> int | None:
    """Earliest future time with an enabled binding, or None if dead.

    Only meaningful when nothing is enabled at ``state.now``; calling it
    while a binding is enabled raises :class:`FiringError`.  The state's
    clock is not modified; use :func:`step` to actually advance.
    """
    store, counts = state.store, state.counts
    if _kernel.any_enabled(net, store, counts, state.now):
        raise FiringError("advance_time called while a binding is enabled")
    for t in sorted({ts for ts, _pidx in state.calendar}):
        if _kernel.any_enabled(net, store, counts, t):
            return t
    return None
