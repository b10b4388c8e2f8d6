"""Explicit reachability graph over the unit-step semantics.

Breadth-first exploration with deterministic node numbering: the successor
ordering contract (fires in transition order, then the unit delay) plus BFS
makes two builds of the same net produce identical graphs.

The search runs on packed keys (see ``semantics``): the BFS queue, the
visited index and every hash are plain int tuples, and edge labels are one
``Fire`` per transition and one ``Delay(1)``. A node is its key, whose
first ``len(places)`` slots are its marking; ``ReachGraph.states``
materialises ``State`` objects when first read.

A graph has many clock nodes per marking, so the explorer indexes them by
marking: it interns each distinct marking once (``ReachGraph.markings``,
with a marking id per node), tests it against the k-bound once, and makes
the ``fire_patch`` of each (marking, transition) pair on first use. A
node's fire successor is then a copy of its key with the patch written in,
with no enabledness test, so that work grows with the markings, not with
the nodes. The checker reads the markings by id, and the predecessor lists
(``ReachGraph.preds``), which the graph derives from ``succ`` once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, KBoundError
from .petri import ConcreteNet
from .semantics import Delay, Fire, delay_key, fire_patch, initial_key, materialise


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
    keys: list  # packed key per node index; it starts with the node's marking
    succ: list  # per node: list of (StepLabel, target index)
    markings: list  # distinct markings by id; a max_states cut may leave some without a node
    marking_ids: list  # per node: the marking id of its key
    initial: int = 0
    complete: bool = True

    @cached_property
    def states(self) -> list:
        """State per node index, materialised from the keys on first read."""
        return materialise(self.net.steps, self.keys)

    @cached_property
    def preds(self) -> tuple:
        """(fire_preds, delay_preds): per node, the sources of its fire
        in-edges and of its delay in-edges, ``succ`` inverted and split by
        label class on first read."""
        fire_preds = [[] for _ in self.succ]
        delay_preds = [[] for _ in self.succ]
        for u, outs in enumerate(self.succ):
            for label, v in outs:
                (delay_preds if isinstance(label, Delay) else fire_preds)[v].append(u)
        return fire_preds, delay_preds

    @property
    def edges(self):
        return [(i, lab, j) for i, outs in enumerate(self.succ) for lab, j in outs]

    def __len__(self):
        return len(self.keys)


def build(n: ConcreteNet, lim: ExploreLimits = ExploreLimits()) -> ReachGraph:
    """BFS closure of the successor relation from the initial state.

    An ill-formed net raises InputError (``Net.steps``). A marking
    exceeding ``k_bound`` raises KBoundError with the partial graph
    attached; hitting ``max_states`` returns a graph flagged
    ``complete=False``.
    """
    tab, np, nt, k_bound = n.steps, len(n.places), len(n.transitions), lim.k_bound
    lo0, hi0 = np, np + nt
    k0 = initial_key(n)
    if max(k0[:np], default=0) > k_bound:
        raise KBoundError(
            f"initial marking exceeds k-bound {k_bound}",
            partial=ReachGraph(n, [], [], [], [], complete=False),
            marking=k0[:np],
        )
    labels = [Fire(t) for t in n.transitions] + [Delay(1)]
    markings = [k0[:np]]
    mindex = {k0[:np]: 0}
    patches = [[None] * nt]  # per marking id and transition: (writes, successor marking id)
    index = {k0: 0}
    keys = [k0]
    marking_ids = [0]
    succ = [None]
    complete = True
    i = 0
    while i < len(keys):
        key = keys[i]
        mid = marking_ids[i]
        row = patches[mid]
        outs = []
        for t in range(nt + 1):  # fires in transition order, then the delay
            if t == nt:
                if 0 in key[hi0:]:  # an upper bound expires now
                    break
                k2, mid2 = delay_key(tab, key), mid
            elif key[lo0 + t]:  # disabled (-1) or still waiting
                continue
            else:
                patch = row[t]
                if patch is None:
                    m2, writes = fire_patch(tab, markings[mid], t)
                    mid2 = mindex.get(m2)
                    if mid2 is None:
                        if max(m2, default=0) > k_bound:
                            succ[i] = outs
                            partial = ReachGraph(
                                n, keys, [out or [] for out in succ], markings, marking_ids, complete=False
                            )
                            raise KBoundError(f"marking {m2} exceeds k-bound {k_bound}", partial=partial, marking=m2)
                        mid2 = mindex[m2] = len(markings)
                        markings.append(m2)
                        patches.append([None] * nt)
                    patch = row[t] = (writes, mid2)
                writes, mid2 = patch
                k = list(key)
                for slot, v in writes:
                    k[slot] = v
                k2 = tuple(k)
            j = index.get(k2)
            if j is None:
                if len(keys) >= lim.max_states:
                    complete = False
                    continue
                j = index[k2] = len(keys)
                keys.append(k2)
                marking_ids.append(mid2)
                succ.append(None)
            outs.append((labels[t], j))
        succ[i] = outs
        i += 1
    return ReachGraph(n, keys, succ, markings, marking_ids, complete=complete)
