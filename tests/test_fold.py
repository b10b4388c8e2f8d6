"""The folded graph: ``build`` folds each run of delays during which no
transition may fire into one edge, and everything a graph answers in unit
steps (its size, edges, states, constraint sets, verdicts and witnesses)
must equal what the unit-step references give."""

import io
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import compress

import pytest
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
from tpnsynth.cli import main
from tpnsynth.netfile import serialize_net
from tpnsynth.petri import INF
from tpnsynth.semantics import Delay, Fire
from tpnsynth.tctl import AG, AU, EF, EU, Not, _Checker, _until_run, compile_plan, desugar, eval_gmec

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
    stop,
    unit_set,
    unit_witness,
)


def _net_of(places, transitions, order=None):
    """A concrete net of the given places and transitions, declared in
    ``order`` (by name) when given."""
    return instantiate(make_net(places, {t: transitions[t] for t in order or transitions}), {})


def _shared_tail_net():
    """t_a fires at any time in [0,5] while t_long waits 10, so each fire
    lands on the delay line of the one before it: six delay-only nodes
    10..5 delays before one target, chained so that each run ends at the
    next node on the line."""
    return _net_of(
        [("p", 1), ("q", 1), ("r", 0)],
        {
            "t_long": {"pre": {"p": 1}, "post": {"r": 1}, "interval": (10, 10)},
            "t_a": {"pre": {"q": 1}, "interval": (0, 5)},
        },
    )


def _tail_net(rng: random.Random):
    """A clock of up to 30 units raced by transitions with wide intervals,
    each on its own token: their fires land on each other's delay lines,
    which ``build`` chains. A reset may restart the clock."""
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


ROOMY_K = 10_000  # a k-bound no net here reaches within 3,000 states: a fire adds at most 2 tokens per place


def _net(rng: random.Random, kind: str):
    """A concrete net of the kind, with interval bounds up to 30: long runs
    of delays, and transitions whose wide intervals fire onto the delay
    line of another node's run."""
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


def _stop_message(net, lim, marking) -> str:
    """The message of a k-bound stop at ``marking``."""
    if max(net.initial) > lim.k_bound:
        return f"initial marking exceeds k-bound {lim.k_bound}"
    return f"marking {marking} exceeds k-bound {lim.k_bound}"


def _cut_invariants(g, lim):
    """A graph, complete or cut, lists at most ``max_states`` nodes, and
    walks and materialises each unit-step state it counts once."""
    assert len(g.keys) <= lim.max_states
    assert len(g) == len(g.positions()) == len(g.states)


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
    graphs and state-cap cuts alike."""

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
        for lim in (ExploreLimits(3, 3000), ExploreLimits(k_bound, max_states), ExploreLimits(100, max_states)):
            try:
                g = build(net, lim)
            except KBoundError:
                continue
            seen = {0}
            todo = list(seen)
            for u in todo:  # grows while it is walked
                for _, v in g.succ[u]:
                    if v not in seen:
                        seen.add(v)
                        todo.append(v)
            assert len(seen) == len(g.keys), (kind, lim, g.complete)
            _cut_invariants(g, lim)


class TestRunShape:
    """``build`` chains the delay-only nodes of one delay line, so no node
    key lies inside a run, and the unit-step states are the nodes and the
    states inside runs, each counted once: on complete graphs and on
    state-cap cuts, where a node whose run target was cut has no edge."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "race", "gated", "tail"]),
        k_bound=st.integers(1, 4),
        max_states=st.integers(1, 300),
    )
    def test_no_node_lies_inside_a_run(self, seed, kind, k_bound, max_states):
        net = _net(random.Random(seed), kind)
        if net is None:
            return
        for lim in (ExploreLimits(k_bound, 3000), ExploreLimits(100, max_states)):
            try:
                g = build(net, lim)
            except KBoundError:
                continue
            keys, inner = set(g.keys), 0
            for k, outs in enumerate(g.succ):
                if outs and outs[0][0] < -1:
                    t, j = outs[0]
                    w = -t
                    dec = (g.keys[j] - g.keys[k]) // w
                    assert not any(g.keys[k] + dec * o in keys for o in range(1, w)), (kind, k, outs)
                    inner += w - 1
            assert len(g) == len(g.keys) + inner
            _cut_invariants(g, lim)


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
            assert outcome(build, net, lim) == outcome(reference_build, net, lim)  # one graph, or both stop
            try:
                g = build(net, lim)
            except KBoundError as exc:
                assert str(exc) == _stop_message(net, lim, exc.marking)
                assert max(exc.marking) > lim.k_bound
                continue
            if g.complete:
                _same_answers(net, g, reference_build(net, lim), rng, oracle=len(g) <= 25)

    def test_runs_that_share_a_tail(self):
        net = _shared_tail_net()
        g, ref = build(net), reference_build(net)
        unit = reference_graph(net, ref)
        chain = [1, 4, 7, 9, 11, 13]
        assert [g.succ[k] for k in chain[:-1]] == [[(-1, j)] for j in chain[1:]]
        assert g.succ[13] == [(-5, 3)] and g.inner == 4
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


class TestStops:
    """The stops are the folded BFS's own, and it stops on exactly the nets
    the unit-step reference stops on: with a state cap alone both cut the
    same nets, with a k-bound alone both stop the same nets, at a marking
    the net reaches (not always the reference's), with both limits both
    stop or neither, and ``tpnsynth graph`` exits 3 on exactly those."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "race", "gated", "tail"]),
        k_bound=st.integers(1, 4),
        max_states=st.integers(1, 300),
    )
    def test_the_folded_bfs_stops_where_the_unit_step_bfs_does(self, seed, kind, k_bound, max_states):
        net = _net(random.Random(seed), kind)
        if net is None:
            return
        cap_only = ExploreLimits(ROOMY_K, max_states)
        assert stop(build, net, cap_only) == stop(reference_build, net, cap_only)
        k_only = ExploreLimits(k_bound, 3000)
        want = stop(reference_build, net, k_only)  # "cap" when 3,000 states are not roomy for this net
        if want is None:
            assert build(net, k_only).complete
        elif want == "k-bound":
            with pytest.raises(KBoundError) as exc:
                build(net, k_only)
            assert max(exc.value.marking) > k_bound
            roomy = reference_build(net, ExploreLimits(ROOMY_K, 3000))
            assert exc.value.marking in {s.marking for s in roomy.states} or not roomy.complete
        both = ExploreLimits(k_bound, max_states)
        want = stop(reference_build, net, both)
        assert (stop(build, net, both) is None) == (want is None)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "net.tpnet")
            with open(path, "w", encoding="utf-8") as f:
                f.write(serialize_net(net))
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(["graph", path, "--k-bound", str(k_bound), "--max-states", str(max_states)])
        assert code == (0 if want is None else 3)


def _witness_entry(plan):
    """The until entry whose witness ``check`` shows, and whether the
    verdict must hold for it to show one: a root EU (holds) or a root Not
    of an EU (fails); None for any other root."""
    root, op = len(plan.ops) - 1, plan.ops[-1]
    if op[0] is EU:
        return root, True
    if op[0] is Not and plan.ops[op[1]][0] is EU:
        return op[1], False
    return None, None


class TestWitness:
    """``check``'s witnesses, searched over nodes with runs as jumps, equal
    the unit-step BFS's of ``_gen.unit_witness``: the same shortest path,
    with the same tie-break."""

    def _pinned(self, net, text, g=None):
        """The witness of ``text`` on net's graph, once it is known equal to
        the reference's."""
        g = g or build(net)
        plan = compile_plan(net, parse_formula(text))
        v, (eu, holds) = check(net, g, plan), _witness_entry(plan)
        sat = {}
        _Checker(g).at_initial(plan, len(plan.ops) - 1, sat)
        assert v.holds == holds
        assert v.witness == unit_witness(g, plan, sat, eu)
        return v.witness

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["random", "race", "gated", "tail"]))
    def test_witnesses_equal_the_unit_step_reference(self, seed, kind):
        rng = random.Random(seed)
        net = _net(rng, kind)
        if net is None:
            return
        try:
            g = build(net, ExploreLimits(3, 3000))
        except KBoundError:
            return
        if not g.complete:
            return
        places = list(net.places)
        x, y = (random_formula(rng, places, depth=rng.choice([0, 1]), max_bound=rng.choice([4, 12, 40])) for _ in range(2))
        iv = lambda: random_interval(rng, rng.choice([6, 12, 40]))  # a > 0 and open endpoints included
        formulas = [EU(x, iv(), y), EU(Not(x), iv(), x), EF(iv(), AU(x, iv(), y)), AG(iv(), x)]
        formulas += [random_formula(rng, places, depth=2, max_bound=40), random_response(rng, places, max_bound=40)]
        for f in formulas:
            for reading in ("ag", "paper"):
                plan = compile_plan(net, desugar(f, reading))
                full = dict(enumerate(_Checker(g).label(plan)))
                for i, op in enumerate(plan.ops):  # every until, nested ones too, holding or not
                    if op[0] is EU:
                        assert _Checker(g).witness_eu(plan, dict(full), i) == unit_witness(g, plan, dict(full), i)
                v, (eu, holds) = check(net, g, plan), _witness_entry(plan)
                shown = eu is not None and v.holds == holds
                assert v.witness == (unit_witness(g, plan, full, eu) if shown else None)

    def test_a_target_strictly_inside_a_run(self):
        # AF[0,3](M(r)=1) flips 2 delays into the run of 5 from time 5 to
        # t_long's fire at 10
        assert self._pinned(_shared_tail_net(), "EF[0,inf](AF[0,3](M(r)=1))") == [Fire("t_a")] + [Delay(1)] * 7

    def test_a_run_where_phi_breaks_is_not_crossed(self):
        # through a, done comes after 10 delays, through b after 11; phi
        # fails 6 to 8 delays into a's run and holds again at its end, so
        # the witness goes through b
        net = _net_of(
            [("z", 1), ("a", 0), ("b", 0), ("done", 0)],
            {
                "t_a": {"pre": {"z": 1}, "post": {"a": 1}, "interval": (0, 0)},
                "t_b": {"pre": {"z": 1}, "post": {"b": 1}, "interval": (0, 0)},
                "t_x": {"pre": {"a": 1}, "post": {"done": 1}, "interval": (10, 10)},
                "t_y": {"pre": {"b": 1}, "post": {"done": 1}, "interval": (11, 11)},
            },
        )
        assert self._pinned(net, "EF[0,inf](M(done)=1)") == [Fire("t_a")] + [Delay(1)] * 10 + [Fire("t_x")]
        text = "E (!(M(a)=1 & AF[0,4](M(done)=1) & !AF[0,1](M(done)=1))) U[0,inf] (M(done)=1)"
        assert self._pinned(net, text) == [Fire("t_b")] + [Delay(1)] * 11 + [Fire("t_y")]

    def test_a_run_and_a_fire_that_reach_a_node_at_one_depth(self):
        # z1 & v's clock at 10 is reached 12 unit steps in by two fires and
        # a run of 10, or by a fire, a run of 10 and t_m: the first one the
        # unit BFS dequeues, by declaration order, is the parent
        transitions = {
            "t_a1": {"pre": {"z0": 1}, "post": {"z3": 1}, "interval": (0, 0)},
            "t_a2": {"pre": {"z3": 1}, "post": {"z1": 1}, "interval": (0, 0)},
            "t_b": {"pre": {"z0": 1}, "post": {"z2": 1}, "interval": (0, 0)},
            "t_m": {"pre": {"z2": 1}, "post": {"z1": 1}, "interval": (10, 10)},
            "t_long": {"pre": {"v": 1}, "post": {"r": 1}, "interval": (10, 10)},
        }
        places = [("v", 1), ("z0", 1), ("z1", 0), ("z2", 0), ("z3", 0), ("r", 0)]
        run_last = _net_of(places, transitions)
        fire_last = _net_of(places, transitions, ["t_b", "t_m", "t_a1", "t_a2", "t_long"])
        assert self._pinned(run_last, "EF[10,10](M(z1)=1)") == [Fire("t_a1"), Fire("t_a2")] + [Delay(1)] * 10
        assert self._pinned(fire_last, "EF[10,10](M(z1)=1)") == [Fire("t_b")] + [Delay(1)] * 10 + [Fire("t_m")]

    def test_two_chains_of_one_run_source_meet_at_the_horizon(self):
        # v is marked at time 0 by t_1, t_2 and at time 1 by a delay and
        # t_3, both 2 unit steps in; with H = 4 the later chain reaches H 3
        # delays into the run of 10 and the earlier one 4 delays in, where
        # both arrive at one depth and the earlier one keeps the entry
        net = _net_of(
            [("s", 1), ("u", 0), ("v", 0), ("r", 0)],
            {
                "t_1": {"pre": {"s": 1}, "post": {"u": 1}, "interval": (0, 1)},
                "t_2": {"pre": {"u": 1}, "post": {"v": 1}, "interval": (0, 0)},
                "t_3": {"pre": {"s": 1}, "post": {"v": 1}, "interval": (1, 1)},
                "t_long": {"pre": {"v": 1}, "post": {"r": 1}, "interval": (10, 10)},
            },
        )
        assert compile_plan(net, parse_formula("EF[3,inf](M(r)=1)")).ops[-1][2].horizon == 4
        want = [Fire("t_1"), Fire("t_2")] + [Delay(1)] * 10 + [Fire("t_long")]
        assert self._pinned(net, "EF[3,inf](M(r)=1)") == want
        assert self._pinned(net, "AG[3,inf](M(r)=0)") == want  # the counterexample of the dual


CLOCK_LIMITS = ExploreLimits(k_bound=2, max_states=200_000)


class TestClockScale:
    """The nominal clock with every delay scaled by s, as the benchmark's
    long-delay workload builds it: ten nodes at every scale, and the unit
    counts of the cycle of 24s time units."""

    def test_ten_nodes_at_every_scale(self):
        for s in (1, 10, 30, 100):
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
            assert len(v.witness) == 24 * s + 4  # the EF witness: 2,404 labels at x100
