"""Explicit reachability graph over the unit-step semantics.

Breadth-first exploration with deterministic node numbering: the successor
ordering contract (fires in transition order, then the unit delay) plus BFS
makes two builds of the same net produce identical graphs.

The search runs on packed keys (see ``semantics``): the BFS queue, the
visited index and every hash are plain ints, one per state, and an edge is
two ints, (transition index, target), with -1 for the unit delay; only
``ReachGraph.edges`` and witnesses make labels (``semantics.step_labels``).
A node is its key, whose top bits hold the id of its marking in the net's
step table; ``ReachGraph.mids`` lists those ids, one per node, and
``ReachGraph.states`` materialises ``State`` objects when first read.

A graph has many clock nodes per marking, and the successors come from
``semantics.successor_keys``, which reads only the transitions the node's
marking enables: a fire is two mask operations, made once per instance
from the bound-free patch of each (marking, transition) pair that the net
makes once for all its instances, and a delay is one subtraction, with no
enabledness test, so that enabledness work grows with the markings, and a
node's work with its enabled transitions, not with the net. The table
outlives a build, so each build tests its own k-bound, once per marking it
reaches. The checker reads the markings through the table by id, and
derives its own predecessor lists from ``succ``; the graph keeps none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, KBoundError
from .petri import ConcreteNet
from .semantics import layout, materialise, step_labels, successor_keys


@dataclass(frozen=True)
class ExploreLimits:
    k_bound: int = 8
    max_states: int = 1_000_000

    def __post_init__(self):
        if self.k_bound < 1 or self.max_states < 1:
            raise InputError("exploration limits must be positive")


@dataclass
class ReachGraph:
    net: ConcreteNet
    keys: list  # packed key per node index
    mids: list  # per node: the id of its marking in the net's step table
    succ: list  # per node: (t, target index) per out-edge, t a transition index or -1 for the delay
    complete: bool = True
    initial = 0  # BFS numbers the initial state 0

    @cached_property
    def states(self) -> list:
        """State per node index, materialised from the keys on first read."""
        return materialise(layout(self.net), self.keys)

    @property
    def edges(self):
        labels = step_labels(self.net)
        return [(i, labels[t], j) for i, outs in enumerate(self.succ) for t, j in outs]

    def __len__(self):
        return len(self.keys)


def build(n: ConcreteNet, lim: ExploreLimits = ExploreLimits()) -> ReachGraph:
    """BFS closure of the successor relation from the initial state.

    An ill-formed net raises InputError (``Net.steps``). A marking
    exceeding ``k_bound`` raises KBoundError with the partial graph
    attached; hitting ``max_states`` returns a graph flagged
    ``complete=False``.
    """
    lay, k_bound = layout(n), lim.k_bound
    markings, shift = lay.tab.markings, lay.shift
    k0, m0 = lay.initial, markings[0]
    if max(m0, default=0) > k_bound:
        raise KBoundError(
            f"initial marking exceeds k-bound {k_bound}",
            partial=ReachGraph(n, [], [], [], complete=False),
            marking=m0,
        )
    index = {k0: 0}
    keys, mids, succ = [k0], [0], [[]]  # a node's edge list is made when the node is found
    bounded = {0}  # marking ids this build has tested against its k-bound
    complete = True
    for key, outs in zip(keys, succ):  # both grow while they are walked: the BFS queue
        for t, k2 in successor_keys(lay, key):
            j = index.get(k2)
            if j is None:
                mid2 = k2 >> shift
                if mid2 not in bounded:
                    m2 = markings[mid2]
                    if max(m2, default=0) > k_bound:
                        partial = ReachGraph(n, keys, mids, succ, complete=False)
                        raise KBoundError(f"marking {m2} exceeds k-bound {k_bound}", partial=partial, marking=m2)
                    bounded.add(mid2)
                if len(keys) >= lim.max_states:
                    complete = False
                    continue
                j = index[k2] = len(keys)
                keys.append(k2)
                mids.append(mid2)
                succ.append([])
            outs.append((t, j))
    return ReachGraph(n, keys, mids, succ, complete=complete)
