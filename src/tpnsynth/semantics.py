"""Integer-time operational semantics: states, time elapse, firing.

A state pairs a marking with a clock function that assigns a dynamic
interval (remaining low, remaining high) to every enabled transition.
Successor generation emits unit delays only; a delay of d is the d-fold
composition of unit steps, which reaches exactly the same states because
elapse is additive.

All stepping runs on packed keys over the net's step table
(``petri.StepTable``, cached as ``net.steps``). A key is one flat int tuple:
the id of its marking, interned by the table, then each transition's
remaining low bound, then each remaining high bound, with -1 for a disabled
transition's slots and for an unbounded high. Firing t depends on the
marking alone: ``fire_patch`` turns a (marking, transition) pair into the
slot writes that fire t from any key with that marking, the successor's
marking id among them, re-testing only the transitions whose guard reads a
changed place; a unit delay lowers every positive bound by one.
``successor_keys`` is the one successor function, used by the explorer
(``statespace.build``) and the State API alike: it applies the patches,
cached per marking id in the table, and the delay to a key.
``initial_state``, ``successors``, ``fire`` and ``elapse`` pack their State
argument, step, and turn the resulting keys back into States with
``materialise``, which shares one TimeInterval per distinct (low, high).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import PreconditionError, TimeOverrunError
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
        return self.clocks[net.transition_index[t]]


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


def initial_state(n: ConcreteNet) -> State:
    return materialise(n.steps, [initial_key(n)])[0]


def max_elapse(n: ConcreteNet, s: State):
    """Largest admissible delay: the minimum remaining upper bound over
    enabled transitions, inf when nothing constrains time."""
    best = INF
    for c in s.clocks:
        if c is not None and c.high < best:
            best = c.high
    return best


def elapse(n: ConcreteNet, s: State, d: int) -> State:
    if not isinstance(d, int) or d < 1:
        raise PreconditionError(f"delay must be a positive integer, got {d!r}")
    if d > max_elapse(n, s):
        raise TimeOverrunError(f"delay {d} exceeds max elapse {max_elapse(n, s)}")
    tab = n.steps
    return materialise(tab, [delay_key(_key(tab, s), d)])[0]


def fireable_set(n: ConcreteNet, s: State) -> set:
    """Enabled transitions whose remaining lower bound has reached zero."""
    return {n.transitions[i] for i, c in enumerate(s.clocks) if c is not None and c.low == 0}


def fire(n: ConcreteNet, s: State, t: str) -> State:
    ti = n.transition_index[t]
    c = s.clocks[ti]
    if c is None or c.low != 0:
        raise PreconditionError(f"transition {t!r} is not fireable")
    tab = n.steps
    return materialise(tab, [dict(successor_keys(tab, _key(tab, s)))[ti]])[0]


def successors(n: ConcreteNet, s: State):
    """Fire successors in transition order, then a unit delay if time may
    elapse. Ordering is part of the contract (graph building relies on it)."""
    tab = n.steps
    steps = successor_keys(tab, _key(tab, s))
    states = materialise(tab, [k for _, k in steps])
    return [
        (Fire(n.transitions[ti]) if ti < tab.nt else Delay(1), s2)
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
# marking enables it; ``fire_patch`` relies on it.


def initial_key(n: ConcreteNet) -> tuple:
    tab, m = n.steps, n.initial
    on = [tab.enabled(m, t) for t in range(tab.nt)]
    lows = tuple(lo if e else -1 for lo, e in zip(tab.low, on))
    highs = tuple(hi if e else -1 for hi, e in zip(tab.high, on))
    return (tab.intern(tuple(m)),) + lows + highs


def fire_patch(tab: StepTable, m: tuple, t: int) -> list:
    """Firing t, enabled in marking m, as the (slot, value) writes that turn
    every key with marking m into its t-successor: slot 0 gets the
    successor marking's id, both clock slots of each transition t disables
    get -1, and those of t and of each transition t newly enables get the
    static bounds; every other slot keeps its value. Only ``affected[t]``
    is re-tested: no other transition's guard reads a changed place."""
    nt, enabled = tab.nt, tab.enabled
    m2 = list(m)
    for p, d in tab.delta[t]:
        m2[p] += d
    writes = [(0, tab.intern(tuple(m2)))]
    for u in tab.affected[t]:
        if not enabled(m2, u):
            writes += ((1 + u, -1), (1 + nt + u, -1))
        elif u == t or not enabled(m, u):
            writes += ((1 + u, tab.low[u]), (1 + nt + u, tab.high[u]))
    return writes


def successor_keys(tab: StepTable, key: tuple) -> list:
    """(transition index, key) per successor of a key: fires in transition
    order, each the key under its ``fire_patch`` (made once per marking id
    and transition), then the unit delay, indexed by the transition count."""
    nt = tab.nt
    row = tab.patches[key[0]]
    out = []
    for t in range(nt):
        if key[1 + t]:  # disabled (-1) or still waiting
            continue
        writes = row[t]
        if writes is None:
            writes = row[t] = fire_patch(tab, tab.markings[key[0]], t)
        k = list(key)
        for slot, v in writes:
            k[slot] = v
        out.append((t, tuple(k)))
    if 0 not in key[1 + nt :]:
        out.append((nt, delay_key(key)))
    return out


def delay_key(key: tuple, d: int = 1) -> tuple:
    """d time units pass: every bound drops by d, lows stop at 0. No
    enabled high may be below d; the -1 slots stay as they are."""
    return key[:1] + tuple([x - d if x >= d else (x if x < 0 else 0) for x in key[1:]])


def _key(tab: StepTable, s: State) -> tuple:
    clocks = s.clocks
    return (
        (tab.intern(tuple(s.marking)),)
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
