"""Random net and formula generators shared by the property tests."""

import random
from collections import deque, namedtuple

from tpnsynth import INF, ExploreLimits, KBoundError, LinearConstraint, TimeInterval, instantiate, make_net
from tpnsynth.semantics import Delay, Fire, State
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


def random_parametric_net(rng: random.Random):
    n_places = rng.randint(1, 4)
    places = [(f"p{i}", rng.randint(0, 2)) for i in range(n_places)]
    params = [f"q{i}" for i in range(rng.randint(0, 2))]

    def sparse(prob, maxw):
        return {
            f"p{i}": rng.randint(1, maxw)
            for i in range(n_places)
            if rng.random() < prob
        }

    def bound():
        if params and rng.random() < 0.4:
            return rng.choice(params)
        return rng.randint(0, 5)

    transitions = {}
    for j in range(rng.randint(1, 4)):
        lo = bound()
        hi = None if rng.random() < 0.2 else bound()
        if isinstance(lo, int) and isinstance(hi, int) and lo > hi:
            lo, hi = hi, lo
        transitions[f"t{j}"] = {
            "pre": sparse(0.5, 2),
            "post": sparse(0.5, 2),
            "read": sparse(0.25, 1),
            "inhibit": sparse(0.25, 2),
            "interval": (lo, hi),
        }
    constraints = []
    for p in params:
        if rng.random() < 0.6:
            constraints.append(LinearConstraint.make({p: 1}, rng.choice(["<=", ">=", "="]), rng.randint(0, 6)))
    return make_net(places, transitions, parameters=params, constraints=constraints)


def random_race_net(rng: random.Random):
    """Two to four transitions race for the token on ``race``, each into its
    own place and some back again, over intervals with parameter bounds:
    which markings a graph reaches may depend on the valuation."""
    params = ["q0", "q1"]
    n_racers = rng.randint(2, 4)
    places = [("race", 1)] + [(f"w{i}", 0) for i in range(n_racers)]

    def interval():
        lo, hi = (rng.choice(params) if rng.random() < 0.5 else rng.randint(0, 5) for _ in range(2))
        if isinstance(lo, int) and isinstance(hi, int) and lo > hi:
            lo, hi = hi, lo
        return lo, hi

    transitions = {}
    for i in range(n_racers):
        transitions[f"win{i}"] = {"pre": {"race": 1}, "post": {f"w{i}": 1}, "interval": interval()}
        if rng.random() < 0.6:
            transitions[f"back{i}"] = {"pre": {f"w{i}": 1}, "post": {"race": 1}, "interval": interval()}
    return make_net(places, transitions, parameters=params)


def random_gated_net(rng: random.Random):
    """Two or three transitions race for the token on ``race``, and those
    after the first may give it back; the first, which waits q0, puts a
    token on ``gate``. The transitions bounded by q1 and q2 need the gate
    (a pre or read arc) or an empty ``race`` (an inhibitor arc), so whether
    a valuation's graph reads them depends on q0. A read arc on the gate
    refills ``done`` until the k-bound stops the build. q3, when present,
    is named by the domain alone."""
    params = ["q0", "q1", "q2"] + (["q3"] if rng.random() < 0.3 else [])
    n_racers = rng.randint(2, 3)
    places = [("race", 1), ("gate", 0), ("done", 0)] + [(f"w{i}", 0) for i in range(n_racers)]

    def interval(name=None):
        lo, hi = (name if name and rng.random() < 0.5 else rng.randint(0, 4) for _ in range(2))
        if isinstance(lo, int) and isinstance(hi, int) and lo > hi:
            lo, hi = hi, lo
        return lo, hi

    transitions = {}
    for i in range(n_racers):
        iv = ("q0", rng.choice(["q0", None])) if i == 0 else interval(rng.choice(["q0", None]))
        transitions[f"win{i}"] = {"pre": {"race": 1}, "post": {f"w{i}": 1}, "interval": iv}
        if i and rng.random() < 0.4:
            transitions[f"back{i}"] = {"pre": {f"w{i}": 1}, "post": {"race": 1}, "interval": interval()}
    transitions["win0"]["post"]["gate"] = 1
    for q in ("q1", "q2"):
        gates = [{"pre": {"gate": 1}}, {"read": {"gate": 1}}, {"inhibit": {"race": 1}, "pre": {"w1": 1}}]
        arcs = rng.choices(gates, [3, 1, 2])[0]
        transitions[f"on_{q}"] = {**arcs, "post": {"done": 1}, "interval": interval(q)}
    constraints = [LinearConstraint.make({"q3": 1, "q0": 1}, "<=", rng.randint(2, 6))] if "q3" in params else []
    return make_net(places, transitions, parameters=params, constraints=constraints)


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


class RefGraph(namedtuple("RefGraph", "states succ complete")):
    @property
    def edges(self):
        return [(i, label, j) for i, outs in enumerate(self.succ) for label, j in outs]


def reference_build(n, lim=ExploreLimits()) -> RefGraph:
    """The dense explorer kept as a reference: every enabledness test scans
    every place, states are dataclasses throughout, and nothing is shared
    with the library's step table or its key layout. A k-bound violation
    carries the partial RefGraph."""

    def enabled(m, ti):
        return all(
            m[i] >= n.pre[ti][i]
            and m[i] >= n.read[ti][i]
            and not (n.inhibit[ti][i] and m[i] >= n.inhibit[ti][i])
            for i in range(len(m))
        )

    def fire(s, ti):
        m = s.marking
        m2 = tuple(m[i] - n.pre[ti][i] + n.post[ti][i] for i in range(len(m)))
        clocks = tuple(
            None if not enabled(m2, i)
            else n.intervals[i] if i == ti or not enabled(m, i)
            else s.clocks[i]
            for i in range(len(n.transitions))
        )
        return State(m2, clocks)

    def elapse1(s):
        clocks = tuple(
            None if c is None else TimeInterval(max(0, c.low - 1), c.high - 1 if c.high != INF else INF)
            for c in s.clocks
        )
        return State(s.marking, clocks)

    def successors(s):
        out = [
            (Fire(n.transitions[i]), fire(s, i))
            for i, c in enumerate(s.clocks)
            if c is not None and c.low == 0
        ]
        if all(c is None or c.high >= 1 for c in s.clocks):
            out.append((Delay(1), elapse1(s)))
        return out

    s0 = State(n.initial, tuple(iv if enabled(n.initial, i) else None for i, iv in enumerate(n.intervals)))
    if any(x > lim.k_bound for x in s0.marking):
        raise KBoundError("initial", partial=RefGraph([], [], False), marking=s0.marking)
    index, states, succ, queue = {s0: 0}, [s0], [None], deque([0])
    complete = True
    while queue:
        i = queue.popleft()
        outs = []
        for label, s2 in successors(states[i]):
            j = index.get(s2)
            if j is None:
                if any(x > lim.k_bound for x in s2.marking):
                    succ[i] = outs
                    partial = RefGraph(states, [o if o is not None else [] for o in succ], False)
                    raise KBoundError("k-bound", partial=partial, marking=s2.marking)
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
    return RefGraph(states, succ, complete)


def reference_graph(n, ref: RefGraph) -> ReachGraph:
    """The reference's unit-step graph as a ReachGraph with no run, made
    from its states and labels alone: what the checker reads of a graph."""
    from tpnsynth.semantics import _key, layout

    number = {t: i for i, t in enumerate(n.transitions)}
    succ = [[(-1 if isinstance(label, Delay) else number[label.transition], j) for label, j in outs] for outs in ref.succ]
    keys = [_key(layout(n), s) for s in ref.states]
    return ReachGraph(n, keys, [n.steps.mindex[s.marking] for s in ref.states], succ, ref.complete)


def outcome(builder, net, lim):
    """What ``builder`` (``build`` or ``reference_build``) gives under
    ``lim``: states, labelled edges, complete flag, and the marking of a
    k-bound stop (None without one), whose partial graph is the one
    returned."""
    try:
        g = builder(net, lim)
    except KBoundError as exc:
        g = exc.partial
        return g.states, g.edges, g.complete, exc.marking
    return g.states, g.edges, g.complete, None


def step_graph(succ) -> ReachGraph:
    """A graph over placeholder keys and marking ids; ``succ`` lists
    (label, target) per node, stored as int edges: 0 for any Fire, -1 for
    a Delay. Unlike graphs of nets, these may have dead ends, several
    delays per node and nodes unreachable from node 0, so hand-made and
    ``random_step_graph`` ones go to ``_Checker.until`` alone, never to
    ``decide`` or ``check``, whose root scan of ``E true U[0,inf)`` needs
    every node reachable (``unit_graph``'s are, being a build's)."""
    ints = [[(-1 if isinstance(label, Delay) else 0, j) for label, j in outs] for outs in succ]
    return ReachGraph(None, [None] * len(succ), [None] * len(succ), ints)


def unit_graph(g: ReachGraph) -> ReachGraph:
    """The unit-step graph a folded graph stands for, as a ``step_graph``
    numbered like ``g.edges``."""
    succ = [[] for _ in range(len(g))]
    for i, label, j in g.edges:
        succ[i].append((label, j))
    return step_graph(succ)


def _run_positions(g: ReachGraph):
    """Per run (k, w): the unit-step numbers of offsets 0..w-1 of the run
    of w delays from node k, and the number of each node."""
    step = g.unit_view()
    order = g.positions()
    number = {p: i for i, p in enumerate(order)}
    runs = {}
    for k, outs in enumerate(g.succ):
        if len(outs) == 1 and outs[0][0] < -1:
            p, at = k, []
            for _ in range(-outs[0][0]):
                at.append(number[p])
                p = step(p)[0][1]
            runs[k] = at
    return runs, [number[k] for k in range(len(g.keys))]


def node_numbers(g: ReachGraph) -> list:
    """The unit-step number (as in ``g.states``) of each node."""
    return _run_positions(g)[1]


def node_set(g: ReachGraph, units) -> tuple:
    """The checker's node set, on the folded graph g, of a set of unit-step
    states: a flag per node, and per run the offsets where the flag flips."""
    runs, nodes = _run_positions(g)
    flips = {}
    for k, at in runs.items():
        flags = [u in units for u in at]
        flips[k] = tuple(o for o in range(1, len(at)) if flags[o] != flags[o - 1])
    return bytes(u in units for u in nodes), {k: f for k, f in flips.items() if f}


def unit_set(g: ReachGraph, s) -> frozenset:
    """The unit-step states of the checker's node set s on the folded graph
    g, numbered like ``g.edges``."""
    runs, nodes = _run_positions(g)
    flags, flips = s
    out = {u for u, f in zip(nodes, flags) if f}
    for k, at in runs.items():
        f = flags[k]
        for o, u in enumerate(at):
            f ^= o in flips.get(k, ())
            if f:
                out.add(u)
    return frozenset(out)


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


def product_until(g: ReachGraph, exists: bool, satphi, iv: TimeInterval, satpsi) -> frozenset:
    """The checker's former (node, elapsed class) product, kept as the until
    reference: delay edges increment a time counter, fire edges keep it,
    and every time at or beyond the interval's saturation class H
    (``TimeInterval.horizon``) shares class H."""
    n = len(g)
    fire_preds = [[] for _ in range(n)]
    delay_preds = [[] for _ in range(n)]
    for u, outs in enumerate(g.succ):
        for t, v in outs:
            (delay_preds if t < 0 else fire_preds)[v].append(u)
    H = iv.horizon
    accept = range(iv.int_low(), min(iv.int_high(), H) + 1)
    width = H + 1
    marked = bytearray(n * width)
    queue = deque()
    for v in satpsi:
        for c in accept:
            marked[v * width + c] = 1
            queue.append((v, c))
    if exists:
        while queue:
            v, c = queue.popleft()
            for u in fire_preds[v]:
                if u in satphi and not marked[u * width + c]:
                    marked[u * width + c] = 1
                    queue.append((u, c))
            pred_classes = []
            if c >= 1:
                pred_classes.append(c - 1)
            if c == H:
                pred_classes.append(H)
            for pc in pred_classes:
                for u in delay_preds[v]:
                    if u in satphi and not marked[u * width + pc]:
                        marked[u * width + pc] = 1
                        queue.append((u, pc))
        return frozenset(v for v in range(n) if marked[v * width])
    counts = []  # unresolved successors per (node, class)
    for outs in g.succ:
        counts += [len(outs)] * width
    while queue:
        v, c = queue.popleft()
        preds = [(u, c) for u in fire_preds[v]]
        if c >= 1:
            preds += [(u, c - 1) for u in delay_preds[v]]
        if c == H:
            preds += [(u, H) for u in delay_preds[v]]
        for u, pc in preds:
            idx = u * width + pc
            if marked[idx]:
                continue
            counts[idx] -= 1
            if counts[idx] == 0 and u in satphi and g.succ[u]:
                marked[idx] = 1
                queue.append((u, pc))
    return frozenset(v for v in range(n) if marked[v * width])


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
    return random_response(rng, places, max_bound)


def random_response(rng: random.Random, places, max_bound=6):
    hi = rng.randint(0, max_bound)
    resp = TimeInterval(0, INF) if rng.random() < 0.3 else TimeInterval(0, hi)
    return LeadsTo(random_gmec(rng, places, 1), resp, random_gmec(rng, places, 1))


MUTATION_ALPHABET = "()[],*+-<>=&|!#:./ \n\t0123456789_EAUFGMinfpqt²é\x00"


def mutate_text(rng: random.Random, text: str, edits=3) -> str:
    """``text`` after 1..edits random single-character deletions,
    insertions and swaps of neighbours."""
    for _ in range(rng.randint(1, edits)):
        op = rng.choice(["delete", "insert", "swap"]) if len(text) > 1 else "insert"
        if op == "insert":
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(MUTATION_ALPHABET) + text[i:]
        elif op == "delete":
            i = rng.randrange(len(text))
            text = text[:i] + text[i + 1 :]
        else:
            i = rng.randrange(len(text) - 1)
            text = text[:i] + text[i + 1] + text[i] + text[i + 2 :]
    return text

