"""Explicit reachability graph over the unit-step semantics.

Breadth-first exploration with deterministic node numbering: the successor
ordering contract (fires in transition order, then the unit delay) plus BFS
makes two builds of the same net produce identical graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InputError, KBoundError
from .petri import ConcreteNet, validate_net
from .semantics import initial_state, successors


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
    states: list  # State per node index
    succ: list  # per node: list of (StepLabel, target index)
    initial: int = 0
    complete: bool = True

    @property
    def edges(self):
        return [(i, lab, j) for i, outs in enumerate(self.succ) for lab, j in outs]

    def __len__(self):
        return len(self.states)


def build(n: ConcreteNet, lim: ExploreLimits = ExploreLimits()) -> ReachGraph:
    """BFS closure of the successor relation from the initial state.

    A marking exceeding ``k_bound`` raises KBoundError with the partial
    graph attached; hitting ``max_states`` returns a graph flagged
    ``complete=False``.
    """
    diags = validate_net(n)
    if diags:
        raise InputError("; ".join(diags))
    s0 = initial_state(n)
    if any(x > lim.k_bound for x in s0.marking):
        raise KBoundError(
            f"initial marking exceeds k-bound {lim.k_bound}",
            partial=ReachGraph(n, [], [], complete=False),
            marking=s0.marking,
        )
    index = {s0: 0}
    states = [s0]
    succ = [None]
    graph = ReachGraph(n, states, succ)
    queue = deque([0])
    complete = True
    while queue:
        i = queue.popleft()
        outs = []
        for label, s2 in successors(n, states[i]):
            j = index.get(s2)
            if j is None:
                if any(x > lim.k_bound for x in s2.marking):
                    graph.succ[i] = outs
                    graph.succ = [out if out is not None else [] for out in graph.succ]
                    graph.complete = False
                    raise KBoundError(
                        f"marking {s2.marking} exceeds k-bound {lim.k_bound}",
                        partial=graph,
                        marking=s2.marking,
                    )
                if len(states) >= lim.max_states:
                    complete = False
                    continue
                j = len(states)
                index[s2] = j
                states.append(s2)
                succ.append(None)
                queue.append(j)
            outs.append((label, j))
        succ[i] = outs
    graph.complete = complete
    return graph


def states_satisfying(g: ReachGraph, phi) -> set:
    """Node indices whose marking satisfies the token-count formula."""
    from .tctl import compile_gmec

    f = compile_gmec(g.net, phi)
    return {i for i, s in enumerate(g.states) if f(s.marking)}
