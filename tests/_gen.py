"""Random net and formula generators shared by the property tests."""

import random

from tpnsynth import INF, TimeInterval, instantiate, make_net
from tpnsynth.semantics import Delay, Fire
from tpnsynth.statespace import ReachGraph
from tpnsynth.tctl import (
    AF,
    AG,
    AU,
    Atom,
    BoolOp,
    EF,
    EG,
    EU,
    Implies,
    LeadsTo,
    Not,
    Prop,
)


def random_concrete_net(
    rng: random.Random,
    max_places=4,
    max_transitions=4,
    max_bound=5,
    max_tokens=2,
    p_inf=0.15,
):
    n_places = rng.randint(1, max_places)
    n_trans = rng.randint(1, max_transitions)
    places = [(f"p{i}", rng.randint(0, max_tokens)) for i in range(n_places)]

    def sparse(prob, maxw):
        return {
            f"p{i}": rng.randint(1, maxw)
            for i in range(n_places)
            if rng.random() < prob
        }

    transitions = {}
    for j in range(n_trans):
        lo = rng.randint(0, max_bound)
        hi = None if rng.random() < p_inf else rng.randint(lo, max_bound)
        transitions[f"t{j}"] = {
            "pre": sparse(0.5, 2),
            "post": sparse(0.5, 2),
            "read": sparse(0.2, 1),
            "inhibit": sparse(0.2, 2),
            "interval": (lo, hi),
        }
    return instantiate(make_net(places, transitions), {})


def random_walk_states(rng: random.Random, net, steps=25):
    """States sampled along one random unit-step run."""
    from tpnsynth import initial_state, successors

    s = initial_state(net)
    out = [s]
    for _ in range(steps):
        succ = successors(net, s)
        if not succ:
            break
        _, s = rng.choice(succ)
        out.append(s)
    return out


def step_graph(succ) -> ReachGraph:
    """A graph over placeholder states; ``succ`` lists (label, target) per
    node. Unlike graphs of nets, these may have dead ends."""
    return ReachGraph(None, [None] * len(succ), succ)


def random_step_graph(rng: random.Random, max_nodes=10, max_out=3, p_delay=0.4):
    """Random fire/delay graph with self-loops, parallel edges, zero-time
    cycles and dead ends."""
    n = rng.randint(1, max_nodes)
    return step_graph(
        [
            [
                (Delay() if rng.random() < p_delay else Fire("t"), rng.randrange(n))
                for _ in range(rng.randint(0, max_out))
            ]
            for _ in range(n)
        ]
    )


def random_gmec(rng: random.Random, places, depth=2):
    if depth == 0 or rng.random() < 0.5:
        k = rng.randint(1, min(2, len(places)))
        chosen = rng.sample(places, k)
        coeffs = tuple(sorted((p, rng.choice([-2, -1, 1, 1, 2])) for p in chosen))
        rel = rng.choice(["<", "<=", "=", ">=", ">"])
        return Atom(coeffs, rel, rng.randint(0, 3))
    op = rng.choice(["and", "or", "implies"])
    return BoolOp(op, random_gmec(rng, places, depth - 1), random_gmec(rng, places, depth - 1))


def random_interval(rng: random.Random, max_bound=6):
    lo = rng.randint(0, max_bound)
    if rng.random() < 0.3:
        return TimeInterval(lo, INF)
    hi = rng.randint(lo, max_bound)
    left = rng.random() < 0.85
    right = rng.random() < 0.85 if hi > lo else True
    return TimeInterval(lo, hi, left, right)


def random_formula(rng: random.Random, places, depth=2, max_bound=6):
    if depth == 0:
        return Prop(random_gmec(rng, places, depth=1))
    roll = rng.random()
    sub = lambda: random_formula(rng, places, depth - 1, max_bound)
    iv = random_interval(rng, max_bound)
    if roll < 0.12:
        return Not(sub())
    if roll < 0.2:
        return Implies(sub(), sub())
    if roll < 0.34:
        return EF(iv, sub())
    if roll < 0.48:
        return AF(iv, sub())
    if roll < 0.58:
        return EG(iv, sub())
    if roll < 0.68:
        return AG(iv, sub())
    if roll < 0.8:
        return EU(sub(), iv, sub())
    if roll < 0.92:
        return AU(sub(), iv, sub())
    hi = rng.randint(0, max_bound)
    resp = TimeInterval(0, INF) if rng.random() < 0.3 else TimeInterval(0, hi)
    return LeadsTo(random_gmec(rng, places, 1), resp, random_gmec(rng, places, 1))
