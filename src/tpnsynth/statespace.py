"""Explicit reachability graph over the unit-step semantics, each run of
delays folded into one edge.

Breadth-first exploration with deterministic node numbering: the successor
ordering contract (fires in transition order, then the delay) plus BFS
makes two builds of the same net produce identical graphs.

The search (``explore``) runs on packed keys over a key layout (see
``semantics``): the BFS queue, the visited index and every hash are plain
ints, one per state, and an edge is two ints, (transition index, target),
with -1 for the unit delay; only ``ReachGraph.edges`` and witnesses make
labels (``semantics.step_labels``). ``build`` explores an instance on its
own layout; a synthesis sweep explores each valuation of its box on the
box's one layout, with no instance per valuation.
At a key where no transition may fire, every enabled clock rises by one per
delay and the marking stays, so the key rises by one fixed amount per delay
until one may fire, ``semantics.delay_run`` delays on: such a node gets one
edge, (-w, target), for the whole run, and the states inside it are no
nodes, so build cost follows events, not time units. A fire may land inside
another node's run. Integer states being exact (Popova-Zeugmann 1991), a
delay line is deterministic, so the BFS then chains the nodes on each line,
a run ending at the next node on its line, and no node lies inside a run.

The graph answers in unit steps: ``len(g)`` counts unit-step states, and
``states`` and ``edges`` walk the unit positions (``ReachGraph.positions``)
in unit-step BFS order; witnesses are searched over nodes, each run one
jump, and expanded into unit steps along the path found (``tctl``).
The stops are the folded BFS's own: it lists at most ``max_states`` nodes,
and a graph is complete only if it skipped none and holds at most
``max_states`` unit-step states, so exactly when the unit-step BFS's is (a
cut graph may hold more). A k-bound stop keeps no graph and may name
another marking than the unit BFS; with both limits, either stop may show.

A node is its key, whose top bits hold the id of its marking in the net's
step table; ``ReachGraph.mids`` lists those ids, one per node. The
successors come from ``semantics.successor_keys``, which reads only the
transitions the node's marking enables: a fire is two mask operations,
whose masks the table keeps per key width for every layout of the net,
and a delay is one addition, with no enabledness test, so that enabledness
work grows with the markings, and a node's work with its enabled
transitions, not with the net. The table records each marking's largest
token count when it interns it, so a build tests its own k-bound with one
lookup per node it finds. The checker reads the markings through the table
by id, and derives its own predecessor lists and runs from ``succ``; the
graph keeps no predecessor list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, KBoundError
from .petri import ConcreteNet, Net
from .semantics import Layout, delay_run, layout, materialise, step_labels, successor_keys


@dataclass(frozen=True)
class ExploreLimits:
    k_bound: int = 8
    max_states: int = 1_000_000

    def __post_init__(self):
        if type(self.k_bound) is not int or type(self.max_states) is not int or self.k_bound < 1 or self.max_states < 1:
            raise InputError("exploration limits must be positive ints")


@dataclass
class ReachGraph:
    """A folded reachability graph (see the module notes). Every node of a
    ``build`` graph, complete or cut by the state cap, is reachable from
    node 0 along ``succ``: BFS numbers a node when it lists the edge into
    it. So is every offset of every run, through the run's edge; ``tctl``
    decides a root ``EF[0,inf)`` by that. No node lies inside a run, so a
    state inside one has one predecessor."""

    net: Net  # the instance; a synthesis sweep's graph names the parametric net
    keys: list  # packed key per node index
    mids: list  # per node: the id of its marking in the net's step table
    succ: list  # per node: (t, target index) per out-edge, t a transition index, or -w for w unit delays
    complete: bool = True
    inner: int = 0  # the unit-step states inside runs, which are no nodes
    initial = 0  # BFS numbers the initial state 0

    def __len__(self):
        """The number of unit-step states: the nodes and the states inside runs."""
        return len(self.keys) + self.inner

    def positions(self, outs=None) -> list:
        """The unit positions in unit-step BFS order: unit state i is at
        ``positions()[i]``. A position is a node, or (k, o): o delays into
        k's run. No node lies inside a run, so a state there is met once.
        When given, ``outs`` gets the unit out-edges (t, q) of each position
        in order: fires in transition order, then the delay, t = -1."""
        order, succ = [0][: len(self.keys)], self.succ
        seen = bytearray(len(self.keys))  # a flag per node met so far
        if order:
            seen[0] = 1
        keep = outs.append if outs is not None else None
        for p in order:  # grows while it is walked: the BFS queue
            if type(p) is int:
                ps = succ[p]  # a run's edge is its source's only one
                if ps and ps[0][0] < -1:
                    ps = [(-1, (p, 1))]
            else:
                (k, o), (t, j) = p, succ[p[0]][0]
                ps = [(-1, j if o + 1 == -t else (k, o + 1))]
            if keep:
                keep(ps)
            for _, q in ps:
                if type(q) is not int:  # inside a run, met from its one predecessor
                    order.append(q)
                elif not seen[q]:
                    seen[q] = 1
                    order.append(q)
        return order

    @cached_property
    def states(self) -> list:
        """State per unit-step state, materialised on first read."""
        keys, succ = self.keys, self.succ

        def key(p):
            if type(p) is int:
                return keys[p]
            (k, o), (t, j) = p, succ[p[0]][0]
            return keys[k] + (keys[j] - keys[k]) // -t * o

        return materialise(layout(self.net), [key(p) for p in self.positions()])

    @property
    def edges(self):
        """(source, StepLabel, target) per unit-step edge, in unit-step
        numbering."""
        labels, outs = step_labels(self.net), []
        number = {p: i for i, p in enumerate(self.positions(outs))}
        return [(i, labels[t], number[q]) for i, ps in enumerate(outs) for t, q in ps]


def build(n: ConcreteNet, lim: ExploreLimits = ExploreLimits()) -> ReachGraph:
    """BFS closure of the successor relation from the initial state, each
    run of delays folded into one edge: ``explore`` on the instance's own
    layout.

    An ill-formed net raises InputError (``Net.steps``), a marking
    exceeding ``k_bound`` KBoundError; more than ``max_states`` unit-step
    states give a graph flagged ``complete=False`` (see the module notes).
    """
    return explore(n, layout(n), lim)


def explore(n: Net, lay: Layout, lim: ExploreLimits) -> ReachGraph:
    """``build``'s BFS on ``lay``, which holds the bounds of the instance
    explored; its graphs name ``n``. A synthesis sweep passes its parametric
    net and its box's layout, so no instance is made and its graphs have no
    ``states``. A wider layout gives other keys, but the same ``succ``,
    ``mids``, ``inner`` and ``complete``."""
    k_bound, markings, peak, shift, k0 = lim.k_bound, lay.tab.markings, lay.tab.peak, lay.shift, lay.initial
    if peak[0] > k_bound:
        raise KBoundError(f"initial marking exceeds k-bound {k_bound}", marking=markings[0])
    index = {k0: 0}
    keys, mids, succ = [k0], [0], [[]]  # a node's edge list is made when the node is found
    complete, lines = True, {}
    for key, outs in zip(keys, succ):  # both grow while they are walked: the BFS queue
        steps = successor_keys(lay, key)
        if steps[0][0] < 0 and steps[0][1] != key:  # no transition may fire until the run ends
            w = delay_run(lay, key)
            steps = [(-w, key - (key - steps[0][1]) * w)]
            lines.setdefault(steps[0][1], []).append((w, key))  # the delay line into that target
        for t, k2 in steps:
            j = index.get(k2)
            if j is None:
                mid2 = k2 >> shift
                if peak[mid2] > k_bound:
                    m2 = markings[mid2]
                    raise KBoundError(f"marking {m2} exceeds k-bound {k_bound}", marking=m2)
                if len(keys) >= lim.max_states:
                    complete = False
                    continue
                j = index[k2] = len(keys)
                keys.append(k2)
                mids.append(mid2)
                succ.append([])
            outs.append((t, j))
    inner = 0  # the states inside runs: a line of nodes w_1 < ... < w_m delays before its target holds w_m - m
    for k2, line in lines.items():  # chain each delay line: a run ends at the next node on its line
        last, j = 0, index.get(k2)
        if j is None:  # the target was cut: the line's nodes have no edge
            continue
        for w, key in sorted(line):
            k = index[key]
            succ[k][0] = (last - w, j)
            last, j = w, k
        inner += last - len(line)
    return ReachGraph(n, keys, mids, succ, complete and len(keys) + inner <= lim.max_states, inner)
