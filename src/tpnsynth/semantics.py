"""Integer-time operational semantics: states, time elapse, firing.

A state pairs a marking with a clock function that assigns a dynamic
interval (remaining low, remaining high) to every enabled transition.
Successor generation emits unit delays only; a delay of d is the d-fold
composition of unit steps, which reaches exactly the same states because
elapse is additive.

All stepping runs on packed keys over the net's step table
(``petri.StepTable``, cached as ``net.steps``), shared by every instance of
a parametric net. A key is one flat int tuple: the id of its marking, then
each transition's remaining low bound, then each remaining high bound, with
-1 for a disabled transition's slots and for an unbounded high; an
instance's static ``bounds`` have the same shape. Firing t depends on the
marking alone: ``fire_patch`` turns a (marking, transition) pair into the
successor's marking id and bound-free slot writes, read off both markings'
enabled transitions, tested once per marking when the table interns it
(``StepTable.enabled_at``); a unit delay lowers every positive bound by
one. ``successor_keys``, the one successor function of the explorer
(``statespace.build``) and the State API alike, reads only the transitions
its key's marking enables: it applies the patches, cached per marking id,
with an instance's bounds, and the delay, numbered -1 like a disabled slot.
``initial_state``, ``successors``, ``fire`` and ``elapse`` pack their State
argument, step, and turn the resulting keys back into States with
``materialise``, which shares one TimeInterval per distinct (low, high).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import InputError, PreconditionError, TimeOverrunError
from .petri import INF, ConcreteNet, Marking, StepTable, TimeInterval


@dataclass(frozen=True)
class State:
    """Marking plus per-transition dynamic intervals.

    ``clocks`` is aligned with the net's transition order; disabled
    transitions hold None.
    """

    marking: Marking
    clocks: tuple  # tuple[Optional[TimeInterval], ...]

    def clock(self, net: ConcreteNet, t: str) -> Optional[TimeInterval]:
        return self.clocks[net.transition_number(t)]


@dataclass(frozen=True)
class Delay:
    amount: int = 1

    def __post_init__(self):
        if not isinstance(self.amount, int) or self.amount < 1:
            raise PreconditionError("delay labels require amount >= 1")

    def __str__(self):
        return f"d{self.amount}"


@dataclass(frozen=True)
class Fire:
    transition: str

    def __str__(self):
        return self.transition


StepLabel = Union[Delay, Fire]


def step_labels(n: ConcreteNet) -> list:
    """The StepLabel of each edge index: a Fire per transition, Delay(1) at -1."""
    return [Fire(t) for t in n.transitions] + [Delay(1)]


def initial_state(n: ConcreteNet) -> State:
    return materialise(n.steps, [initial_key(n, bounds(n))])[0]


def max_elapse(n: ConcreteNet, s: State):
    """Largest admissible delay: the least non-negative high slot of the
    state's key, inf when nothing constrains time."""
    tab = n.steps
    return min([h for h in _key(tab, s)[1 + tab.nt:] if h >= 0], default=INF)


def elapse(n: ConcreteNet, s: State, d: int) -> State:
    if not isinstance(d, int) or d < 1:
        raise PreconditionError(f"delay must be a positive integer, got {d!r}")
    if d > max_elapse(n, s):
        raise TimeOverrunError(f"delay {d} exceeds max elapse {max_elapse(n, s)}")
    tab = n.steps
    return materialise(tab, [delay_key(_key(tab, s), d)])[0]


def fireable_set(n: ConcreteNet, s: State) -> set:
    """The transitions that may fire now: the fires of ``successor_keys``."""
    tab = n.steps
    return {n.transitions[t] for t, _ in successor_keys(tab, bounds(n), _key(tab, s)) if t >= 0}


def fire(n: ConcreteNet, s: State, t: str) -> State:
    ti = n.transition_number(t)
    tab, b = n.steps, bounds(n)
    key = _key(tab, s)
    if key[1 + ti]:  # disabled (-1) or still waiting
        raise PreconditionError(f"transition {t!r} is not fireable")
    return materialise(tab, [dict(successor_keys(tab, b, key))[ti]])[0]


def successors(n: ConcreteNet, s: State):
    """Fire successors in transition order, then a unit delay if time may
    elapse. Ordering is part of the contract (graph building relies on it)."""
    tab = n.steps
    steps = successor_keys(tab, bounds(n), _key(tab, s))
    states = materialise(tab, [k for _, k in steps])
    return [
        (Fire(n.transitions[ti]) if ti >= 0 else Delay(1), s2)
        for (ti, _), s2 in zip(steps, states)
    ]


def apply_label(n: ConcreteNet, s: State, label: StepLabel) -> State:
    if isinstance(label, Delay):
        return elapse(n, s, label.amount)
    return fire(n, s, label.transition)


def replay(n: ConcreteNet, labels) -> list:
    """States visited when running ``labels`` from the initial state,
    including the initial state itself."""
    s = initial_state(n)
    trace = [s]
    for lab in labels:
        s = apply_label(n, s, lab)
        trace.append(s)
    return trace


# ---------------------------------------------------------------------------
# Packed states (layout in the module docstring). Keys reached from
# ``initial_key`` keep the invariant that a transition has a clock iff the
# marking enables it; ``successor_keys`` relies on it, and ``_key`` checks
# it for a State given from outside.


def bounds(n: ConcreteNet) -> tuple:
    """The static bounds of an instance in key shape: -1, every low, then
    every high, -1 for an infinite one."""
    if not isinstance(n, ConcreteNet):
        raise InputError("a parametric net has no states: step instantiate(net, valuation)")
    ivs = n.intervals
    return (-1,) + tuple([iv.low for iv in ivs]) + tuple([-1 if iv.unbounded else iv.high for iv in ivs])


def initial_key(n: ConcreteNet, b: tuple) -> tuple:
    """The initial key under the instance's bounds ``b``: the initial
    marking has id 0, and -1 fills the slots of the transitions it disables."""
    nt, on = n.steps.nt, n.steps.enabled_at[0]
    return (0,) + tuple([b[i] if (i - 1) % nt in on else -1 for i in range(1, 1 + 2 * nt)])


def fire_patch(tab: StepTable, mid: int, t: int) -> tuple:
    """Firing t, enabled in the marking of id mid, as (successor marking
    id, writes) that turn every key with that marking into its t-successor
    under any bounds b: a write (slot, source) sets the slot to b[source],
    0 (-1) for both clock slots of each transition t disables and the slot
    itself for those of t and of each transition t newly enables; every
    other slot keeps its value. Which are which is read off the two
    markings' ``enabled_at``, with no enabledness test."""
    nt = tab.nt
    m2 = list(tab.markings[mid])
    for p, d in tab.delta[t]:
        m2[p] += d
    mid2 = tab.intern(tuple(m2))
    on, on2 = tab.enabled_at[mid], tab.enabled_at[mid2]
    writes = []
    for u in sorted({*on, *on2}):
        if u not in on2:
            writes += ((1 + u, 0), (1 + nt + u, 0))
        elif u == t or u not in on:
            writes += ((1 + u, 1 + u), (1 + nt + u, 1 + nt + u))
    return mid2, writes


def successor_keys(tab: StepTable, b: tuple, key: tuple) -> list:
    """(transition index, key) per successor of a key under the instance's
    bounds ``b``: fires in transition order, each the key under its
    ``fire_patch`` (made once per marking id and transition, for every
    instance), then the unit delay, indexed -1. Only the transitions the
    key's marking enables are read."""
    mid, hi = key[0], 1 + tab.nt
    on, row = tab.enabled_at[mid], tab.patches[mid]
    out, urgent = [], False
    for t in on:
        if key[1 + t]:  # still waiting
            continue
        patch = row[t]
        if patch is None:
            patch = row[t] = fire_patch(tab, mid, t)
        k = list(key)
        k[0], writes = patch
        for slot, src in writes:
            k[slot] = b[src]
        out.append((t, tuple(k)))
        urgent = urgent or not key[hi + t]  # a high of 0 (its low is 0 too) refuses the delay
    if not urgent:
        k = list(key)
        for t in on:
            if k[1 + t]:
                k[1 + t] -= 1
            if k[hi + t] > 0:
                k[hi + t] -= 1
        out.append((-1, tuple(k)))
    return out


def delay_key(key: tuple, d: int = 1) -> tuple:
    """d time units pass: every bound drops by d, lows stop at 0. No
    enabled high may be below d; the -1 slots stay as they are."""
    return key[:1] + tuple([x - d if x >= d else (x if x < 0 else 0) for x in key[1:]])


def _key(tab: StepTable, s: State) -> tuple:
    """The key of a State; PreconditionError, with nothing interned, when
    its marking has the wrong length or a negative count, or its clocks
    are not those of the transitions the marking enables."""
    m, clocks = tuple(s.marking), s.clocks
    if len(m) != tab.np or min(m, default=0) < 0 or len(clocks) != tab.nt:
        raise PreconditionError(f"marking {m} with {len(clocks)} clocks is not a state of the net")
    mid = tab.mindex.get(m)
    on = tab.enabled_at[mid] if mid is not None else tuple([t for t in range(tab.nt) if tab.enabled(m, t)])
    if tuple([t for t, c in enumerate(clocks) if c is not None]) != on:
        raise PreconditionError(f"the clocks of a state at {m} are not those of the transitions {m} enables")
    return (
        (tab.intern(m),)
        + tuple([-1 if c is None else c.low for c in clocks])
        + tuple([-1 if c is None or c.unbounded else c.high for c in clocks])
    )


def materialise(tab: StepTable, keys) -> list:
    """One State per key; clocks with equal bounds share one TimeInterval."""
    markings, hi0 = tab.markings, 1 + tab.nt
    clock = _Clocks().__getitem__
    return [State(markings[key[0]], tuple(map(clock, zip(key[1:hi0], key[hi0:])))) for key in keys]


class _Clocks(dict):
    """(low, high) slot pair -> interned TimeInterval, None when disabled."""

    def __missing__(self, pair):
        lo, hi = pair
        iv = self[pair] = None if lo < 0 else TimeInterval(lo, INF if hi < 0 else hi)
        return iv
