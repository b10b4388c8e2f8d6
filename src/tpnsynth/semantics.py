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
the id of its marking in the top bits; an instance's ``Layout`` (made once
per instance by ``layout``) fixes the field width from its largest start
value. A disabled transition's field is 0. An enabled bounded clock stores
its remaining high plus one, and its remaining low is implied: a clock
starts, and a fire restarts it, at its static (low, high), and a unit delay lowers both by one until
the low reaches 0, after which only the high falls, so the low is always
max(0, high - (static high - static low)). An enabled unbounded clock stores
its remaining low plus one. Firing t depends on the marking alone:
``fire_patch`` turns a (marking, transition) pair into the successor's
marking id, the clocks that stop and those that start, read off both
markings' enabled transitions, tested once per marking when the table
interns it (``StepTable.enabled_at``); each instance turns a patch into a
keep and a start mask once, and a fire is ``key & keep | start``. A unit
delay is one subtraction of the unit bits of the enabled bounded clocks
and of the enabled unbounded ones whose low is still positive.
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
    lay = layout(n)
    return materialise(lay, [lay.initial])[0]


def max_elapse(n: ConcreteNet, s: State):
    """Largest admissible delay: the least remaining high of the state's
    bounded clocks, inf when nothing constrains time."""
    lay = layout(n)
    key = _key(lay, s)
    on = lay.tab.enabled_at[key >> lay.shift]
    return min([(key >> lay.shifts[t] & lay.field) - 1 for t in on if lay.gap[t] is not None], default=INF)


def elapse(n: ConcreteNet, s: State, d: int) -> State:
    """d time units pass: every remaining high drops by d, and every
    remaining low by d, stopping at 0. No enabled high may be below d."""
    if not isinstance(d, int) or d < 1:
        raise PreconditionError(f"delay must be a positive integer, got {d!r}")
    if d > max_elapse(n, s):
        raise TimeOverrunError(f"delay {d} exceeds max elapse {max_elapse(n, s)}")
    lay = layout(n)
    key = _key(lay, s)
    for t in lay.tab.enabled_at[key >> lay.shift]:
        sh = lay.shifts[t]
        key -= (d if lay.gap[t] is not None else min(d, (key >> sh & lay.field) - 1)) << sh
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
# marking enables it, and that a bounded clock's low is implied by its high;
# ``successor_keys`` relies on both, and ``_key`` checks them for a State
# given from outside.


class Layout:
    """The packed key layout of one instance, made by ``layout``.

    Per transition t: ``gap[t]`` is high - low of its static interval, None
    when it is unbounded; ``start[t]`` is the field a fire that starts its
    clock writes, one more than its static high, or than its static low when
    it is unbounded; ``fires_at[t]`` is the largest field at which its low
    is 0, so that it may fire. Every field is ``width`` bits wide, enough
    for the largest start, and t's sits ``shifts[t] = t * width`` bits up;
    ``field`` masks one, and the marking id sits ``shift`` bits up.
    ``masks`` maps ``mid * nt + t`` to the ``_fire_masks`` of t at the
    marking of id mid, made when it first fires. ``initial`` is the key of
    the initial state, and ``step`` bundles what ``successor_keys`` reads."""

    def __init__(self, n: ConcreteNet):
        tab = self.tab = n.steps
        gap, start = [], []
        for iv in n.intervals:
            gap.append(None if iv.high == INF else iv.high - iv.low)
            start.append(1 + (iv.low if iv.high == INF else iv.high))
        w = self.width = max(start, default=1).bit_length()
        self.field, self.shift, self.shifts = (1 << w) - 1, tab.nt * w, tuple(range(0, tab.nt * w, w))
        self.gap, self.start = tuple(gap), tuple(start)
        self.fires_at = tuple([1 if g is None else g + 1 for g in gap])
        self.masks = {}
        self.initial = sum([start[t] << self.shifts[t] for t in tab.enabled_at[0]])
        units = tuple([1 << sh for sh in self.shifts])  # one unit of each field
        self.step = (self.shift, tab.enabled_at, tab.nt, self.shifts, self.field, self.fires_at, self.gap, self.masks, units)


def layout(n: ConcreteNet) -> Layout:
    """The key layout of an instance, made on first use and kept with it."""
    if not isinstance(n, ConcreteNet):
        raise InputError("a parametric net has no states: step instantiate(net, valuation)")
    lay = vars(n).get("layout")
    if lay is None:
        lay = vars(n)["layout"] = Layout(n)
    return lay


def fire_patch(tab: StepTable, mid: int, t: int) -> tuple:
    """Firing t, enabled in the marking of id mid, as (successor marking
    id, stops, starts), which holds for every instance: the transitions t
    disables stop, t itself (when the successor enables it) and each
    transition t newly enables start, and every other clock runs on. Which
    are which is read off the two markings' ``enabled_at``, with no
    enabledness test."""
    m2 = list(tab.markings[mid])
    for p, d in tab.delta[t]:
        m2[p] += d
    mid2 = tab.intern(tuple(m2))
    on, on2 = tab.enabled_at[mid], tab.enabled_at[mid2]
    return mid2, tuple([u for u in on if u not in on2]), tuple([u for u in on2 if u == t or u not in on])


def _fire_masks(lay: Layout, mid: int, t: int) -> tuple:
    """The instance's (keep, start) masks of ``fire_patch(tab, mid, t)``,
    made once per instance from the table's patch, made once per net: the
    t-successor of a key at marking mid is ``key & keep | start``. keep
    clears the marking id and the fields that stop or start; start holds
    the successor's marking id and the start field of each clock that
    starts."""
    tab, shifts, field = lay.tab, lay.shifts, lay.field
    patch = tab.patches[mid][t]
    if patch is None:
        patch = tab.patches[mid][t] = fire_patch(tab, mid, t)
    mid2, stops, starts = patch
    keep, start = (1 << lay.shift) - 1, mid2 << lay.shift
    for u in stops:
        keep ^= field << shifts[u]
    for u in starts:
        keep ^= field << shifts[u]
        start |= lay.start[u] << shifts[u]
    masks = lay.masks[mid * tab.nt + t] = keep, start
    return masks


def successor_keys(lay: Layout, key: int) -> list:
    """(transition index, key) per successor of a key: fires in transition
    order, each ``key & keep | start`` under its ``_fire_masks``, then the
    unit delay, indexed -1, ``key - dec``. Only the transitions the key's
    marking enables are read. A clock may fire when its low is 0, and an
    enabled bounded clock with a high of 0 refuses the delay; dec holds
    the unit bits of the enabled bounded clocks and of the enabled
    unbounded ones whose low is still positive."""
    shift, enabled_at, nt, shifts, field, fires_at, gap, masks, units = lay.step
    mid = key >> shift
    base, out, dec, urgent = mid * nt, [], 0, False
    for t in enabled_at[mid]:
        f = key >> shifts[t] & field
        if f > fires_at[t]:  # its low is positive
            dec += units[t]
            continue
        keep, start = masks.get(base + t) or _fire_masks(lay, mid, t)
        out.append((t, key & keep | start))
        if gap[t] is not None:  # bounded
            if f == 1:  # a high of 0
                urgent = True
            else:
                dec += units[t]
    if not urgent:
        out.append((-1, key - dec))
    return out


def delay_run(lay: Layout, key: int) -> int:
    """How many unit delays a key at which no transition may fire takes
    before one may: every enabled clock then falls by one per delay, so
    the run ends when the first field reaches its ``fires_at``."""
    shift, enabled_at, _, shifts, field, fires_at = lay.step[:6]
    w = None
    for t in enabled_at[key >> shift]:  # a loop: no comprehension frame per call
        d = (key >> shifts[t] & field) - fires_at[t]
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
        c, gap = clocks[t], lay.gap[t]
        if gap is None:
            f, ok = c.low + 1, c.unbounded
        else:
            f, ok = c.high + 1, not c.unbounded and c.low == max(0, c.high - gap)
        if not ok or f > lay.start[t]:
            raise PreconditionError(f"clock {c} of transition {t} at {m} is not one the instance gives it")
        key |= f << lay.shifts[t]
    return key | tab.intern(m) << lay.shift


def materialise(lay: Layout, keys) -> list:
    """One State per key; clocks with equal bounds share one TimeInterval."""
    markings, shift, field = lay.tab.markings, lay.shift, lay.field
    clock = _Clocks(lay.gap).__getitem__
    slots = list(enumerate(lay.shifts))
    return [State(markings[key >> shift], tuple([clock((t, key >> sh & field)) for t, sh in slots])) for key in keys]


class _Clocks(dict):
    """(transition, field) -> TimeInterval, None for the empty field; equal
    intervals are one object."""

    def __init__(self, gap: tuple):
        self.gap, self.shared = gap, {}

    def __missing__(self, slot):
        t, f = slot
        gap = self.gap[t]
        if not f:
            iv = None
        elif gap is None:
            iv = TimeInterval(f - 1, INF)
        else:
            iv = TimeInterval(max(0, f - 1 - gap), f - 1)
        iv = self[slot] = self.shared.setdefault(iv, iv)
        return iv
