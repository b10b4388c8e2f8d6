"""Explicit reachability graph over the unit-step semantics, each run of
delays folded into one edge.

Breadth-first exploration with deterministic node numbering: the successor
ordering contract (fires in transition order, then the delay) plus BFS
makes two builds of the same net produce identical graphs.

The search runs on packed keys (see ``semantics``): the BFS queue, the
visited index and every hash are plain ints, one per state, and an edge is
two ints, (transition index, target), with -1 for the unit delay; only
``ReachGraph.edges`` and witnesses make labels (``semantics.step_labels``).
At a key where no transition may fire, every enabled clock rises by one per
delay and the marking stays, so the key rises by one fixed amount per delay
until one may fire, ``semantics.delay_run`` delays on: such a node gets one
edge, (-w, target), for the whole run, and the states inside it are no
nodes, so build cost follows events, not time units. A fire may land inside
another node's run, which then shares its tail; ``ReachGraph.runs`` lists,
per run target, the node w delays before it for each w.

The graph answers in unit steps: ``len(g)`` counts unit-step states, and
``states``, ``edges`` and witnesses walk the unit positions of
``ReachGraph.unit_view`` in the unfolded BFS order. ``max_states`` counts
unit-step states, and a k-bound or state-cap stop is the unfolded BFS's
own, partial graph included, as the folded BFS meets markings in another
order.

A node is its key, whose top bits hold the id of its marking in the net's
step table; ``ReachGraph.mids`` lists those ids, one per node. The
successors come from ``semantics.successor_keys``, which reads only the
transitions the node's marking enables: a fire is two mask operations,
whose masks the table keeps per key width for every instance of the net,
and a delay is one addition, with no enabledness test, so that enabledness
work grows with the markings, and a node's work with its enabled
transitions, not with the net. The table records each marking's largest
token count when it interns it, so a build tests its own k-bound with one
lookup per node it finds. The checker reads the markings through the table
by id, and derives its own predecessor lists and runs from ``succ``; the
graph keeps no predecessor list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import InputError, KBoundError
from .petri import ConcreteNet
from .semantics import delay_run, layout, materialise, step_labels, successor_keys


@dataclass(frozen=True)
class ExploreLimits:
    k_bound: int = 8
    max_states: int = 1_000_000

    def __post_init__(self):
        if self.k_bound < 1 or self.max_states < 1:
            raise InputError("exploration limits must be positive")


@dataclass
class ReachGraph:
    """A folded reachability graph (see the module notes). Every node of a
    ``build`` graph, complete, cut by the state cap or left partial by a
    k-bound stop, is reachable from node 0 along ``succ``: BFS numbers a
    node when it lists the edge into it. So is every offset of every run,
    through the run's edge; ``tctl`` decides a root ``EF[0,inf)`` by that."""

    net: ConcreteNet
    keys: list  # packed key per node index
    mids: list  # per node: the id of its marking in the net's step table
    succ: list  # per node: (t, target index) per out-edge, t a transition index, or -w for w unit delays
    complete: bool = True
    runs: dict = field(default_factory=dict)  # run target -> {w: node w delays before it, where nothing may fire}
    initial = 0  # BFS numbers the initial state 0

    def __len__(self):
        """The number of unit-step states: the nodes, and the states inside
        each target's longest run that are no node."""
        return len(self.keys) + sum([max(ws) - len(ws) for ws in self.runs.values()])

    def unit_view(self) -> tuple:
        """The unit-step graph the folded one stands for, as (step,
        longest). A unit position is a node index, or (j, d) for the state
        d delays before node j on a run into j, where no node lies;
        ``longest`` maps each run target j to (w, k), its longest run, from
        node k. step(p) lists the unit out-edges (t, q) of position p, fires
        in transition order, then the delay, t = -1."""
        succ, runs = self.succ, self.runs

        def at(j, d):
            return j if d == 0 else runs[j].get(d, (j, d))

        def step(p):
            if type(p) is not int:
                return [(-1, at(p[0], p[1] - 1))]
            outs = succ[p]  # a run's edge is its source's only one
            return [(-1, at(outs[0][1], -outs[0][0] - 1))] if outs and outs[0][0] < -1 else outs

        return step, {j: (max(ws), ws[max(ws)]) for j, ws in runs.items()}

    def positions(self, step=None, outs=None) -> list:
        """The unit positions in unit-step BFS order (fires in transition
        order, then the delay): unit state i is at ``positions()[i]``. When
        given, ``outs`` gets step(p) of each position in that order."""
        order, step = [0][: len(self.keys)], step or self.unit_view()[0]
        seen, inner = bytearray(len(self.keys)), set()  # met so far: a flag per node, and the states inside runs
        if order:
            seen[0] = 1
        keep = outs.append if outs is not None else None
        for p in order:  # grows while it is walked: the BFS queue
            ps = step(p)
            if keep:
                keep(ps)
            for _, q in ps:
                if type(q) is int:
                    if not seen[q]:
                        seen[q] = 1
                        order.append(q)
                elif q not in inner:
                    inner.add(q)
                    order.append(q)
        return order

    @cached_property
    def states(self) -> list:
        """State per unit-step state, materialised on first read."""
        step, runs = self.unit_view()
        keys = self.keys

        def key(p):
            if type(p) is int:
                return keys[p]
            (j, d), (w, k) = p, runs[p[0]]
            return keys[j] + (keys[k] - keys[j]) // w * d

        return materialise(layout(self.net), [key(p) for p in self.positions(step)])

    @property
    def edges(self):
        """(source, StepLabel, target) per unit-step edge, in unit-step
        numbering."""
        labels, outs = step_labels(self.net), []
        number = {p: i for i, p in enumerate(self.positions(None, outs))}
        return [(i, labels[t], number[q]) for i, ps in enumerate(outs) for t, q in ps]


def build(n: ConcreteNet, lim: ExploreLimits = ExploreLimits()) -> ReachGraph:
    """BFS closure of the successor relation from the initial state, each
    run of delays folded into one edge.

    An ill-formed net raises InputError (``Net.steps``). A marking
    exceeding ``k_bound`` raises KBoundError with the partial graph
    attached; more than ``max_states`` unit-step states return a graph
    flagged ``complete=False``. Both stops are those of the unfolded BFS,
    partial graph included: the folded one meets markings in another
    order, so it hands such a net over to the unfolded one.
    """
    return _explore(n, lim, True)


def _explore(n: ConcreteNet, lim: ExploreLimits, fold: bool) -> ReachGraph:
    lay, k_bound = layout(n), lim.k_bound
    markings, peak, shift = lay.tab.markings, lay.tab.peak, lay.shift
    k0 = lay.initial
    if peak[0] > k_bound:
        raise KBoundError(
            f"initial marking exceeds k-bound {k_bound}",
            partial=ReachGraph(n, [], [], [], complete=False),
            marking=markings[0],
        )
    index = {k0: 0}
    keys, mids, succ = [k0], [0], [[]]  # a node's edge list is made when the node is found
    complete = True
    cap, folds = lim.max_states, []  # cap: max_states less the states inside runs, a shared tail once per run
    for key, outs in zip(keys, succ):  # both grow while they are walked: the BFS queue
        steps = successor_keys(lay, key)
        if steps[0][0] < 0 and fold and steps[0][1] != key:  # no transition may fire until the run ends
            w = delay_run(lay, key)
            if w > 1:
                steps = [(-w, key - (key - steps[0][1]) * w)]
                folds.append((steps[0][1], w, key))
                cap -= w - 1
                if len(keys) > cap:  # perhaps more unit-step states than max_states: the unfolded BFS decides
                    return _explore(n, lim, False)
        for t, k2 in steps:
            j = index.get(k2)
            if j is None:
                mid2 = k2 >> shift
                if peak[mid2] > k_bound:
                    if fold:
                        return _explore(n, lim, False)
                    m2 = markings[mid2]
                    partial = ReachGraph(n, keys, mids, succ, complete=False)
                    raise KBoundError(f"marking {m2} exceeds k-bound {k_bound}", partial=partial, marking=m2)
                if len(keys) >= cap:
                    if fold:
                        return _explore(n, lim, False)
                    complete = False
                    continue
                j = index[k2] = len(keys)
                keys.append(k2)
                mids.append(mid2)
                succ.append([])
            outs.append((t, j))
    runs = {}
    for k2, w, key in folds:
        ws = runs.setdefault(index[k2], {})
        ws[w] = index[key]
        one = index.get(k2 + (key - k2) // w)  # a node one delay before the target is folded into no run
        if one is not None:
            ws[1] = one
    return ReachGraph(n, keys, mids, succ, complete, runs)
