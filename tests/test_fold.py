"""The folded graph: ``build`` folds each run of delays during which no
transition may fire into one edge, and everything a graph answers in unit
steps (its size, edges, states, constraint sets, verdicts and witnesses)
must equal what the unit-step references give."""

import random
from itertools import compress

from hypothesis import given, settings
from hypothesis import strategies as st

from tpnsynth import (
    DomainError,
    ExploreLimits,
    IllFormedIntervalError,
    KBoundError,
    brute_force_check,
    build,
    check,
    instantiate,
    make_net,
    parse_formula,
    states_satisfying,
)
from tpnsynth import biomodels as bio
from tpnsynth import statespace
from tpnsynth.petri import INF
from tpnsynth.tctl import AU, EU, Not, _Checker, _until_run, compile_plan, desugar, eval_gmec

from _gen import (
    outcome,
    random_concrete_net,
    random_formula,
    random_gated_net,
    random_gmec,
    random_interval,
    random_race_net,
    random_response,
    reference_build,
    reference_graph,
    unit_set,
)


def _tail_net(rng: random.Random):
    """A clock of up to 30 units raced by transitions with wide intervals,
    each on its own token: their fires land inside each other's runs, so
    runs share their tails. A reset may restart the clock."""
    long = rng.randint(6, 30)
    places = [("p", 1), ("r", 0)]
    transitions = {"t_long": {"pre": {"p": 1}, "post": {"r": 1}, "interval": (long, rng.choice([long, long + 3, None]))}}
    for i in range(rng.randint(1, 3)):
        lo = rng.randint(0, long)
        places.append((f"q{i}", 1))
        transitions[f"t{i}"] = {"pre": {f"q{i}": 1}, "interval": (lo, rng.choice([lo, rng.randint(lo, long + 5), None]))}
        if rng.random() < 0.3:
            transitions[f"t{i}"]["read"] = {"r": 1}
    if rng.random() < 0.5:
        transitions["reset"] = {"pre": {"r": 1}, "post": {"p": 1}, "interval": (rng.randint(0, 5), rng.choice([5, None]))}
    return instantiate(make_net(places, transitions), {})


def _net(rng: random.Random, kind: str):
    """A concrete net of the kind, with interval bounds up to 30: long runs
    of delays, and transitions whose wide intervals fire into the middle
    of another node's run."""
    if kind == "random":
        return random_concrete_net(rng, max_bound=rng.choice([5, 12, 30]))
    if kind == "tail":
        return _tail_net(rng)
    net = (random_race_net if kind == "race" else random_gated_net)(rng)
    for _ in range(20):
        try:
            return instantiate(net, {p: rng.randint(0, rng.choice([5, 30])) for p in net.parameters})
        except (DomainError, IllFormedIntervalError):  # outside the domain, or an interval with low > high
            continue
    return None


def _stop_message(got, lim, marking) -> str:
    """The message of the unit-step BFS's k-bound stop at ``marking``."""
    if got[0] == []:
        return f"initial marking exceeds k-bound {lim.k_bound}"
    return f"marking {marking} exceeds k-bound {lim.k_bound}"


def _same_labels(g, unit, plan):
    """Every entry of the plan labels the same unit-step states on the
    folded graph g as on the unit-step graph ``unit``."""
    every = [frozenset(compress(range(len(unit)), s)) for s, _ in _Checker(unit).label(plan)]
    assert [unit_set(g, s) for s in _Checker(g).label(plan)] == every


def _same_answers(net, g, ref, rng, oracle: bool):
    """g answers in unit steps exactly as the reference's unit graph does:
    size, constraint sets, and in both readings verdicts and witnesses;
    and, on small graphs, verdicts as the brute-force oracle does."""
    unit = reference_graph(net, ref)
    assert len(g) == len(ref.states) == len(unit)
    places = list(net.places)
    phi = random_gmec(rng, places)
    marked = {i for i, s in enumerate(ref.states) if eval_gmec(dict(zip(places, s.marking)), phi)}
    assert states_satisfying(g, phi) == marked
    formulas = [random_formula(rng, places, depth=rng.choice([1, 2]), max_bound=rng.choice([4, 12, 40])) for _ in range(3)]
    x = random_formula(rng, places, depth=1, max_bound=rng.choice([4, 40]))  # operands that flip together
    formulas += [EU(Not(x), random_interval(rng, 12), x), AU(Not(x), random_interval(rng, 12), x)]
    for f in formulas + [random_response(rng, places, max_bound=rng.choice([4, 40]))]:
        for reading in ("ag", "paper"):
            plan = compile_plan(net, desugar(f, reading))
            v, u = check(net, g, plan), check(net, unit, plan)
            assert (v.holds, v.witness) == (u.holds, u.witness)
            _same_labels(g, unit, plan)
    if oracle:
        for f in [random_formula(rng, places, depth=1, max_bound=4), random_response(rng, places, max_bound=4)]:
            for reading in ("ag", "paper"):
                read = desugar(f, reading)
                assert check(net, g, read).holds == brute_force_check(net, read)


class TestReachable:
    """Every node of a ``build`` graph is reachable from node 0 along
    ``succ`` (each node is numbered when the edge into it is listed), as
    the checker's root scan of ``E true U[0,inf)`` assumes: complete
    graphs, state-cap cuts, k-bound partial graphs and the unfolded
    graph that a folded build falls back to."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "race", "gated", "tail"]),
        k_bound=st.integers(1, 4),
        max_states=st.integers(1, 60),
    )
    def test_every_node_is_reachable_from_node_0(self, seed, kind, k_bound, max_states):
        net = _net(random.Random(seed), kind)
        if net is None:
            return
        for lim in (ExploreLimits(3, 3000), ExploreLimits(k_bound, max_states)):
            for fold in (True, False):  # build's own graph, and the unfolded one it may fall back to
                try:
                    g = statespace._explore(net, lim, fold)
                except KBoundError as exc:
                    g = exc.partial
                seen = {0} if g.keys else set()
                todo = list(seen)
                for u in todo:  # grows while it is walked
                    for _, v in g.succ[u]:
                        if v not in seen:
                            seen.add(v)
                            todo.append(v)
                assert len(seen) == len(g.keys), (kind, lim, fold, g.complete)


class TestFoldedDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "race", "gated", "tail"]),
        k_bound=st.integers(1, 4),
        max_states=st.integers(1, 300),
    )
    def test_build_and_check_match_the_unit_step_references(self, seed, kind, k_bound, max_states):
        rng = random.Random(seed)
        net = _net(rng, kind)
        if net is None:
            return
        for lim in (ExploreLimits(3, 3000), ExploreLimits(k_bound, max_states)):
            got, ref = outcome(build, net, lim), outcome(reference_build, net, lim)
            assert got == ref  # states, edges and complete flag, and the stop's marking
            try:
                g = build(net, lim)
            except KBoundError as exc:
                assert str(exc) == _stop_message(got, lim, got[3])
                assert len(exc.partial) == len(got[0])
                continue
            ref_graph = reference_build(net, lim)
            if g.complete:
                _same_answers(net, g, ref_graph, rng, oracle=len(g) <= 25)
            else:
                assert len(g) == len(ref_graph.states) == lim.max_states

    def test_runs_that_share_a_tail(self):
        # t_a fires at any time in [0,5] while t_long waits 10, so each fire
        # lands inside the run of the one before it: six runs of 10..5
        # delays into one target
        net = instantiate(
            make_net(
                [("p", 1), ("q", 1), ("r", 0)],
                {
                    "t_long": {"pre": {"p": 1}, "post": {"r": 1}, "interval": (10, 10)},
                    "t_a": {"pre": {"q": 1}, "interval": (0, 5)},
                },
            ),
            {},
        )
        g, ref = build(net), reference_build(net)
        unit = reference_graph(net, ref)
        assert [sorted(ws) for ws in g.runs.values()] == [[5, 6, 7, 8, 9, 10]]
        assert len(g.keys) < len(g) == len(ref.states)
        assert (g.states, g.edges) == (ref.states, ref.edges)
        for text in [
            "EF[7,7](M(q)=0 & M(r)=0)",
            "AF[0,10](M(r)=1)",
            "AG[0,inf](M(q)=0 => AF[0,5](M(r)=1))",
            "E (M(r)=0) U[3,12] (M(q)=0)",
            "(M(q)=0) -->[0,4] (M(r)=1)",
            "E (!AF[0,3](M(r)=1)) U[0,inf] (AF[0,3](M(r)=1))",
            "E (AF[0,3](M(r)=1)) U[0,inf] (M(r)=1 & M(q)=1)",
            "A (AF[0,3](M(r)=1)) U[0,inf] (M(r)=1 & M(q)=1)",
        ]:
            phi = parse_formula(text)
            v, u = check(net, g, phi), check(net, unit, phi)
            assert (v.holds, v.witness) == (u.holds, u.witness)
            assert v.holds == brute_force_check(net, phi)
            _same_labels(g, unit, compile_plan(net, phi))
        # each offset of the runs, against each bound, under both quantifiers
        for a in range(4):
            for b in range(a, 13):
                for c in (0, 2, 5):
                    for op in ("EF", "AF", "EG", "AG"):
                        phi = parse_formula(f"{op}[{a},{b}](AF[0,{c}](M(r)=1) => M(q)=0)")
                        _same_labels(g, unit, compile_plan(net, phi))

    def test_constant_operands_flip_where_the_layer_reaches_the_span(self):
        # one stretch of _until_run, as the checker flips a run of constant
        # operands in the loop that releases it once its target resolves at
        # layer end: phi alone holds from offset end + w - span on
        for w in range(1, 8):
            for end in (*range(10), INF):
                for span in (*range(10), INF):
                    flip = end + w - span
                    assert _until_run(1, (), 0, (), w, end, span) == ((flip,) if 0 < flip < w else ())
                    assert _until_run(0, (), 0, (), w, end, span) == _until_run(1, (), 1, (), w, end, span) == ()


CLOCK_LIMITS = ExploreLimits(k_bound=2, max_states=200_000)


class TestClockScale:
    """The nominal clock with every delay scaled by s, as the benchmark's
    long-delay workload builds it: ten nodes at every scale, and the unit
    counts of the cycle of 24s time units."""

    def test_ten_nodes_at_every_scale(self):
        for s in (1, 10, 30):
            cfg = bio.ClockConfig(tau_on=12 * s, tau_off=12 * s, tau_01=6 * s, tau_10=6 * s, tau_b=0, tau_g=s, tau_a=7 * s)
            net = instantiate(bio.build_circadian_clock(cfg), {})
            g = build(net, CLOCK_LIMITS)
            assert len(g.keys) == 10
            assert (len(g), len(g.edges)) == (24 * s + 7, 24 * s + 9)
            unit = reference_graph(net, reference_build(net, CLOCK_LIMITS))
            response = "(M(P_PC0)>=1) -->[0,{}] (M(P_PC1)>=1)"
            for text, holds, witness in (
                (response.format(18 * s), True, False),
                (response.format(18 * s - 1), False, True),
                (f"EF[0,{24 * s}](M(P_PC1)>=1 & M(P_L1)>=1)", True, True),
            ):
                v = check(net, g, parse_formula(text))
                assert (v.holds, v.witness is not None) == (holds, witness)
                assert v.witness == check(net, unit, parse_formula(text)).witness
