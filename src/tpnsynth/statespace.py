"""Explicit reachability graph over the unit-step semantics.

Breadth-first exploration with deterministic node numbering: the successor
ordering contract (fires in transition order, then the unit delay) plus BFS
makes two builds of the same net produce identical graphs.

The search runs on packed keys (see ``semantics``): the BFS queue, the
visited index and every hash are plain int tuples, and edge labels are one
``Fire`` per transition and one ``Delay(1)``. A node is its key, whose
first ``len(places)`` slots are its marking, all that the checker reads;
``ReachGraph.states`` materialises ``State`` objects when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, KBoundError
from .petri import ConcreteNet
from .semantics import Delay, Fire, initial_key, materialise, successor_keys


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
    initial: int = 0
    complete: bool = True

    @cached_property
    def states(self) -> list:
        """State per node index, materialised from the keys on first read."""
        return materialise(self.net.steps, self.keys)

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
    tab, np, k_bound = n.steps, len(n.places), lim.k_bound
    k0 = initial_key(n)
    if max(k0[:np], default=0) > k_bound:
        raise KBoundError(
            f"initial marking exceeds k-bound {k_bound}",
            partial=ReachGraph(n, [], [], complete=False),
            marking=k0[:np],
        )
    labels = [Fire(t) for t in n.transitions] + [Delay(1)]
    index = {k0: 0}
    keys = [k0]
    succ = [None]
    complete = True
    i = 0
    while i < len(keys):
        outs = []
        for ti, k2 in successor_keys(tab, keys[i]):
            j = index.get(k2)
            if j is None:
                if max(k2[:np], default=0) > k_bound:
                    succ[i] = outs
                    partial = ReachGraph(n, keys, [out or [] for out in succ], complete=False)
                    raise KBoundError(
                        f"marking {k2[:np]} exceeds k-bound {k_bound}", partial=partial, marking=k2[:np]
                    )
                if len(keys) >= lim.max_states:
                    complete = False
                    continue
                j = len(keys)
                index[k2] = j
                keys.append(k2)
                succ.append(None)
            outs.append((labels[ti], j))
        succ[i] = outs
        i += 1
    return ReachGraph(n, keys, succ, complete=complete)

