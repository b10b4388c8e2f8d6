"""Integer-time operational semantics: states, time elapse, firing.

A state pairs a marking with a clock function that assigns a dynamic
interval (remaining low, remaining high) to every enabled transition.
Successor generation emits unit delays only; a delay of d is the d-fold
composition of unit steps, which reaches exactly the same states because
elapse is additive. ``statespace.build`` folds a run of delays during which
no transition may fire into one edge, whose length ``delay_run`` gives.

All stepping runs on packed keys over the net's step table
(``petri.StepTable``, cached as ``net.steps``), shared by every instance of
a parametric net. A key is one int with one bit field per transition and
the id of its marking in the top bits. A field is 0 when its transition
is disabled, else a clock: the time since the transition was enabled, plus
one. A clock may fire from its static low plus one on. A bounded clock at
its static high plus one refuses the delay, and an unbounded one stops
counting at its static low plus one, past which time changes none of its
futures (the clock cap of Alur & Dill's timed automata). A unit delay is
one addition of the unit bits of the enabled bounded clocks and of the
enabled unbounded ones still below their low. An instance's ``Layout``
(made once per instance by ``layout``) holds only those two thresholds per
transition and the field width, wide enough for the largest cap. A fire
starts a clock at 1, whatever its interval, so it depends on the marking
and the width alone: each
(marking, transition) pair gets a keep and a start mask once per width
(``_fire_masks``), kept in the table for every instance of that width, and a
fire is ``key & keep | start``. The successor's marking, and which clocks
stop and start, are read off both markings' enabled transitions, tested
once per marking when the table interns it (``StepTable.enabled_at``).
``successor_keys``, the one successor function of the explorer
(``statespace.build``) and the State API alike, reads only the transitions
its key's marking enables, and numbers the delay -1. ``initial_state``,
``successors``, ``fire`` and ``elapse`` pack their State argument, step,
and turn the resulting keys back into States with ``materialise``, which
shares one TimeInterval per distinct (low, high).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import InputError, PreconditionError, TimeOverrunError
from .petri import INF, ConcreteNet, Marking, TimeInterval


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
        if type(self.amount) is not int or self.amount < 1:
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
    lay = layout(n)
    return materialise(lay, [lay.initial])[0]


def max_elapse(n: ConcreteNet, s: State):
    """Largest admissible delay: the least remaining high of the state's
    bounded clocks, inf when nothing constrains time."""
    lay = layout(n)
    key = _key(lay, s)
    on = lay.tab.enabled_at[key >> lay.shift]
    return min([lay.highs[t] - (key >> lay.shifts[t] & lay.field) for t in on if lay.highs[t]], default=INF)


def elapse(n: ConcreteNet, s: State, d: int) -> State:
    """d time units pass: every remaining high drops by d, and every
    remaining low by d, stopping at 0. No enabled high may be below d."""
    if type(d) is not int or d < 1:
        raise PreconditionError(f"delay must be a positive integer, got {d!r}")
    if d > max_elapse(n, s):
        raise TimeOverrunError(f"delay {d} exceeds max elapse {max_elapse(n, s)}")
    lay = layout(n)
    key = _key(lay, s)
    for t in lay.tab.enabled_at[key >> lay.shift]:
        sh = lay.shifts[t]
        key += (d if lay.highs[t] else min(d, lay.lows[t] - (key >> sh & lay.field))) << sh
    return materialise(lay, [key])[0]


def fireable_set(n: ConcreteNet, s: State) -> set:
    """The transitions that may fire now: the fires of ``successor_keys``."""
    lay = layout(n)
    return {n.transitions[t] for t, _ in successor_keys(lay, _key(lay, s)) if t >= 0}


def fire(n: ConcreteNet, s: State, t: str) -> State:
    ti = n.transition_number(t)
    lay = layout(n)
    key = dict(successor_keys(lay, _key(lay, s))).get(ti)
    if key is None:  # disabled or still waiting
        raise PreconditionError(f"transition {t!r} is not fireable")
    return materialise(lay, [key])[0]


def successors(n: ConcreteNet, s: State):
    """Fire successors in transition order, then a unit delay if time may
    elapse. Ordering is part of the contract (graph building relies on it)."""
    lay = layout(n)
    steps = successor_keys(lay, _key(lay, s))
    states = materialise(lay, [k for _, k in steps])
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
# ``Layout.initial`` keep the invariant that a transition has a clock iff the
# marking enables it, and that a clock never passes its cap; ``successor_keys``
# relies on both, and ``_key`` checks them for a State given from outside.


class Layout:
    """The packed key layout of one instance, made by ``layout``.

    A clock that has run e time units since its transition was enabled
    holds e + 1, and stands for the dynamic interval (max(0, low - e),
    high - e). Per transition t, ``lows[t]`` is its static low plus one,
    the least field at which it may fire, and ``highs[t]`` its static high
    plus one, the field at which it refuses the delay, or 0 when it is
    unbounded; a field stops at its high, or at its low when it is
    unbounded. Those two tuples are all the instance owns. Every field is
    ``width`` bits wide, enough for the largest of them, and t's sits
    ``shifts[t] = t * width`` bits up; ``field`` masks one, and the marking
    id sits ``shift`` bits up. ``masks``, the table's ``_fire_masks`` at this
    width keyed by ``mid * nt + t``, and ``initial``, the initial state's
    key, a 1 in each field that the initial marking enables, hang on the
    width alone, so every instance of that width shares them. ``step``
    bundles what ``successor_keys`` reads."""

    def __init__(self, n: ConcreteNet):
        tab = self.tab = n.steps
        lows = self.lows = tuple([iv.low + 1 for iv in n.intervals])
        highs = self.highs = tuple([0 if iv.high == INF else iv.high + 1 for iv in n.intervals])
        w = self.width = max(lows + highs, default=1).bit_length()  # a bounded high is at least its low
        self.field, self.shift, self.shifts = (1 << w) - 1, tab.nt * w, tuple(range(0, tab.nt * w, w))
        units = tuple([1 << sh for sh in self.shifts])  # one unit of each field
        self.masks = tab.masks.setdefault(w, {})
        self.initial = sum([units[t] for t in tab.enabled_at[0]])
        self.step = (self.shift, tab.enabled_at, tab.nt, self.shifts, self.field, lows, highs, self.masks, units)


def layout(n: ConcreteNet) -> Layout:
    """The key layout of an instance, made on first use and kept with it."""
    if not isinstance(n, ConcreteNet):
        raise InputError("a parametric net has no states: step instantiate(net, valuation)")
    lay = vars(n).get("layout")
    if lay is None:
        lay = vars(n)["layout"] = Layout(n)
    return lay


def _fire_masks(lay: Layout, mid: int, t: int) -> tuple:
    """The (keep, start) masks of firing t, enabled in the marking of id
    mid: the t-successor of a key at mid is ``key & keep | start``. The
    transitions t disables stop, t itself (when the successor enables it)
    and each transition t newly enables start at 1, and every other clock
    runs on; which are which is read off the two markings' ``enabled_at``,
    with no enabledness test. keep clears the marking id and the fields
    that stop or restart; start holds the successor's marking id and a 1 in
    each field that starts. No bound enters, so the pair is made once per
    (marking, transition, width) and kept in the table's cache for the
    width."""
    tab, shifts, field = lay.tab, lay.shifts, lay.field
    m2 = list(tab.markings[mid])
    for p, d in tab.delta[t]:
        m2[p] += d
    mid2 = tab.intern(tuple(m2))
    on, on2 = tab.enabled_at[mid], tab.enabled_at[mid2]
    keep, start = (1 << lay.shift) - 1, mid2 << lay.shift
    for u in on:
        if u == t or u not in on2:
            keep ^= field << shifts[u]
    for u in on2:
        if u == t or u not in on:
            start |= 1 << shifts[u]
    masks = lay.masks[mid * tab.nt + t] = keep, start
    return masks


def successor_keys(lay: Layout, key: int) -> list:
    """(transition index, key) per successor of a key: fires in transition
    order, each ``key & keep | start`` under its ``_fire_masks``, then the
    unit delay, indexed -1, ``key + inc``. Only the transitions the key's
    marking enables are read. A clock may fire from its low on, and an
    enabled bounded clock at its high refuses the delay; inc holds the unit
    bits of the enabled bounded clocks and of the enabled unbounded ones
    still below their low."""
    shift, enabled_at, nt, shifts, field, lows, highs, masks, units = lay.step
    mid = key >> shift
    base, out, inc, urgent = mid * nt, [], 0, False
    for t in enabled_at[mid]:
        f = key >> shifts[t] & field
        if f < lows[t]:  # below its low
            inc += units[t]
            continue
        keep, start = masks.get(base + t) or _fire_masks(lay, mid, t)
        out.append((t, key & keep | start))
        h = highs[t]
        if f == h:  # at its high
            urgent = True
        elif h:  # bounded
            inc += units[t]
    if not urgent:
        out.append((-1, key + inc))
    return out


def delay_run(lay: Layout, key: int) -> int:
    """How many unit delays a key at which no transition may fire takes
    before one may: every enabled clock then rises by one per delay, so
    the run ends when the first field reaches its low."""
    shift, enabled_at, _, shifts, field, lows = lay.step[:6]
    w = None
    for t in enabled_at[key >> shift]:  # a loop: no comprehension frame per call
        d = lows[t] - (key >> shifts[t] & field)
        if w is None or d < w:
            w = d
    return w


def _key(lay: Layout, s: State) -> int:
    """The key of a State; PreconditionError, with nothing interned, when
    its marking has the wrong length or a negative count, its clocks are
    not those of the transitions the marking enables, or a clock is not
    one the instance's intervals give: a bounded low other than its high
    less the static gap (0 at least), or a bound above the static one."""
    tab = lay.tab
    m, clocks = tuple(s.marking), s.clocks
    if len(m) != tab.np or min(m, default=0) < 0 or len(clocks) != tab.nt:
        raise PreconditionError(f"marking {m} with {len(clocks)} clocks is not a state of the net")
    mid = tab.mindex.get(m)
    on = tab.enabled_at[mid] if mid is not None else tuple([t for t in range(tab.nt) if tab.enabled(m, t)])
    if tuple([t for t, c in enumerate(clocks) if c is not None]) != on:
        raise PreconditionError(f"the clocks of a state at {m} are not those of the transitions {m} enables")
    key = 0
    for t in on:
        c, low, high = clocks[t], lay.lows[t], lay.highs[t]
        if c.unbounded:
            f, ok = low - c.low, not high
        else:
            f = high - c.high
            ok = high and c.low == max(0, low - f)
        if not ok or f < 1:
            raise PreconditionError(f"clock {c} of transition {t} at {m} is not one the instance gives it")
        key |= f << lay.shifts[t]
    return key | tab.intern(m) << lay.shift


def materialise(lay: Layout, keys) -> list:
    """One State per key; clocks with equal bounds share one TimeInterval."""
    markings, shift, field = lay.tab.markings, lay.shift, lay.field
    clock = _Clocks(lay).__getitem__
    slots = list(enumerate(lay.shifts))
    return [State(markings[key >> shift], tuple([clock((t, key >> sh & field)) for t, sh in slots])) for key in keys]


class _Clocks(dict):
    """(transition, field) -> TimeInterval, None for the empty field; equal
    intervals are one object."""

    def __init__(self, lay: Layout):
        self.lows, self.highs, self.shared = lay.lows, lay.highs, {}

    def __missing__(self, slot):
        t, f = slot
        low, high = self.lows[t], self.highs[t]
        if not f:
            iv = None
        elif high:
            iv = TimeInterval(max(0, low - f), high - f)
        else:
            iv = TimeInterval(low - f, INF)
        iv = self[slot] = self.shared.setdefault(iv, iv)
        return iv
