import math
import pickle
import random
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tpnsynth import (
    ExploreLimits,
    IllFormedIntervalError,
    InputError,
    KBoundError,
    TimeInterval,
    TpnError,
    apply_label,
    build,
    eval_gmec,
    initial_state,
    instantiate,
    make_net,
    max_elapse,
    parse_gmec,
    states_satisfying,
)
from tpnsynth import semantics
from tpnsynth.petri import INF, StepTable, net_spec
from tpnsynth.semantics import Delay, Fire, _key, elapse, fireable_set, fire, layout, materialise, successors

from _gen import (
    node_numbers,
    outcome,
    random_concrete_net,
    random_gated_net,
    random_gmec,
    random_parametric_net,
    random_race_net,
    reference_build,
)


class TestBuild:
    def test_net_a_enumeration(self, net_a):
        g = build(net_a)
        assert g.complete
        assert len(g) == 5
        markings = {s.marking for s in g.states}
        assert markings == {(1, 0), (0, 1)}
        clocks = [s.clocks[0] for s in g.states if s.marking == (1, 0)]
        assert {str(c) for c in clocks} == {"[2,3]", "[1,2]", "[0,1]", "[0,0]"}
        # three delay steps, two fire edges, one quiescent delay self-loop
        assert len(g.edges) == 6
        fired = next(i for i, s in enumerate(g.states) if s.marking == (0, 1))
        assert (fired, Delay(1), fired) in g.edges

    def test_dead_net_single_state(self):
        net = instantiate(
            make_net([("p", 0)], {"t": {"pre": {"p": 1}, "interval": (1, 2)}}), {}
        )
        g = build(net)
        assert len(g) == 1 and g.complete
        # only the quiescent self-loop remains
        assert g.edges == [(0, Delay(1), 0)]

    def test_producer_loop_hits_k_bound(self):
        net = instantiate(
            make_net([("p1", 0)], {"t": {"post": {"p1": 1}, "interval": (1, 1)}}), {}
        )
        with pytest.raises(KBoundError) as exc:
            build(net, ExploreLimits(k_bound=3))
        assert exc.value.partial is not None
        assert max(exc.value.marking) == 4

    def test_an_uninstantiated_net_is_refused_by_name(self):
        for net in (
            make_net([("p", 1)], {"t": {"pre": {"p": 1}, "interval": (1, "a")}}, parameters=["a"]),
            make_net([("p", 1)], {"t": {"pre": {"p": 1}, "interval": (1, 2)}}),
        ):
            for call in (build, initial_state):
                with pytest.raises(InputError, match=r"instantiate\(net, valuation\)"):
                    call(net)

    def test_capacity_stop_is_flagged(self, net_a):
        g = build(net_a, ExploreLimits(max_states=2))
        assert not g.complete
        assert len(g) == 2

    def test_determinism(self):
        rng = random.Random(17)
        for _ in range(30):
            net = random_concrete_net(rng, max_bound=3)
            try:
                g1 = build(net, ExploreLimits(k_bound=4, max_states=3000))
                g2 = build(net, ExploreLimits(k_bound=4, max_states=3000))
            except KBoundError:
                continue
            assert [s for s in g1.states] == [s for s in g2.states]
            assert g1.edges == g2.edges

    def test_edges_are_sound(self):
        rng = random.Random(19)
        for _ in range(40):
            net = random_concrete_net(rng, max_bound=3)
            try:
                g = build(net, ExploreLimits(k_bound=4, max_states=2000))
            except KBoundError:
                continue
            if not g.complete:
                continue
            for i, label, j in g.edges:
                assert apply_label(net, g.states[i], label) == g.states[j]

    def test_matches_bruteforce_fixpoint(self):
        rng = random.Random(29)
        done = 0
        while done < 25:
            net = random_concrete_net(rng, max_places=4, max_transitions=4, max_bound=5)
            try:
                g = build(net, ExploreLimits(k_bound=3, max_states=1500))
            except KBoundError:
                continue
            if not g.complete:
                continue
            seen = {initial_state(net)}
            frontier = deque(seen)
            overflow = False
            while frontier:
                s = frontier.popleft()
                nxt = []
                for i, c in enumerate(s.clocks):
                    if c is not None and c.low == 0:
                        nxt.append(fire(net, s, net.transitions[i]))
                if max_elapse(net, s) >= 1:
                    nxt.append(elapse(net, s, 1))
                for s2 in nxt:
                    if any(x > 3 for x in s2.marking):
                        overflow = True
                        break
                    if s2 not in seen:
                        seen.add(s2)
                        frontier.append(s2)
                if overflow:
                    break
            if overflow:
                continue
            assert seen == set(g.states)
            done += 1

    def test_unit_steps_reach_arbitrary_delay_closure(self):
        # exploring with every admissible d gives the same state set
        rng = random.Random(31)
        done = 0
        while done < 25:
            net = random_concrete_net(rng, max_places=3, max_transitions=3, max_bound=4)
            try:
                g = build(net, ExploreLimits(k_bound=3, max_states=2000))
            except KBoundError:
                continue
            if not g.complete:
                continue
            seen = {initial_state(net)}
            frontier = deque(seen)
            ok = True
            while frontier and ok:
                s = frontier.popleft()
                nxt = []
                for t in sorted(fireable_set(net, s)):
                    nxt.append(fire(net, s, t))
                cap = max_elapse(net, s)
                if cap == INF:
                    lows = [c.low for c in s.clocks if c is not None]
                    cap = (max(lows) if lows else 0) + 1
                for d in range(1, cap + 1):
                    nxt.append(elapse(net, s, d))
                for s2 in nxt:
                    if any(x > 3 for x in s2.marking):
                        ok = False
                        break
                    if s2 not in seen:
                        seen.add(s2)
                        frontier.append(s2)
            if not ok:
                continue
            assert seen == set(g.states)
            done += 1


class TestMatchesReferenceBuilder:
    """The packed explorer returns the dense reference builder's graph:
    same states in the same BFS order, same labelled edges, same cap
    behaviour (k-bound partial graphs and max_states truncation). Builds of
    one net share its step table, so each net is built under both limits
    in both orders, their k-bounds drawn apart: what one build interns or
    tests must not change the next."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k_bound=st.integers(1, 4),
        roomy_k=st.integers(1, 4),
        max_states=st.integers(1, 40),
    )
    def test_same_graph(self, seed, k_bound, roomy_k, max_states):
        roomy, tight = ExploreLimits(k_bound=roomy_k, max_states=3000), ExploreLimits(k_bound, max_states)
        for order in ((roomy, tight), (tight, roomy)):
            net = random_concrete_net(random.Random(seed), max_places=5, max_transitions=5)
            assume(any(any(w) for w in net.read + net.inhibit))
            for lim in order:
                assert outcome(build, net, lim) == outcome(reference_build, net, lim)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k_bound=st.integers(1, 3),
        vals=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=2, max_size=5),
    )
    def test_same_graph_for_race_instances_in_sequence(self, seed, k_bound, vals):
        # which racer wins depends on the valuation, so a later instance may
        # reach markings no earlier one did: its build reads the enabledness
        # that earlier instances interned in the shared table, and adds its own
        net = random_race_net(random.Random(seed))
        lim = ExploreLimits(k_bound, 3000)
        for q0, q1 in vals:
            try:
                c = instantiate(net, {"q0": q0, "q1": q1})
            except IllFormedIntervalError:
                continue
            assert c.steps is net.steps
            assert outcome(build, c, lim) == outcome(reference_build, c, lim)


def _reshaped(rng, big):
    """A random concrete net whose intervals are redrawn: some unbounded,
    some with low == high, and, when ``big``, one with both bounds above
    2**20, which widens every field of the instance's keys."""
    places, transitions, _, _ = net_spec(random_concrete_net(rng, max_places=4, max_transitions=4))
    for spec in transitions.values():
        lo = rng.randint(0, 4)
        spec["interval"] = rng.choice([(lo, None), (lo, lo), (lo, lo + rng.randint(1, 3))])
    if big:
        spec = transitions[rng.choice(list(transitions))]
        lo = 2**20 + rng.randint(0, 3)
        spec["interval"] = rng.choice([(lo, None), (lo, lo), (lo, lo + rng.randint(1, 3))])
    return instantiate(make_net(places, transitions), {})


class TestIntKeys:
    """Each state is one int under its instance's layout: the build equals
    the dense reference builder's, including unbounded and point intervals,
    bounds that widen the fields, k-bound stops and state cuts; every key
    decodes to its State and encodes back, and a delay of d is d unit
    delays."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        big=st.booleans(),
        k_bound=st.integers(1, 4),
        max_states=st.integers(1, 60),
        d=st.integers(1, 6),
    )
    def test_same_graph_round_trip_and_delays(self, seed, big, k_bound, max_states, d):
        net = _reshaped(random.Random(seed), big)
        lay = layout(net)
        assert lay.width == max([h or lo for lo, h in zip(lay.lows, lay.highs)]).bit_length()
        assert (lay.width > 20) == big
        for lim in (ExploreLimits(k_bound, 400), ExploreLimits(k_bound, max_states)):
            assert outcome(build, net, lim) == outcome(reference_build, net, lim)
        g = _graph(net, ExploreLimits(k_bound, max_states))  # its states equal the reference's, above
        units, nodes = [_key(lay, s) for s in g.states], node_numbers(g)
        assert [units[u] for u in nodes] == g.keys
        for k, outs in enumerate(g.succ):  # a delay-only node's edge: w unit delays, with no fire before the last
            if len(outs) == 1 and outs[0][0] < 0 and outs[0][1] != k:
                (t, j), s = outs[0], g.states[nodes[k]]
                assert elapse(net, s, -t) == g.states[nodes[j]]
                assert not any(fireable_set(net, elapse(net, s, o)) for o in range(1, -t))
                assert not g.complete or fireable_set(net, g.states[nodes[j]])
        for s in g.states:
            if max_elapse(net, s) < d:
                continue
            s2 = s
            for _ in range(d):
                s2 = dict(successors(net, s2))[Delay(1)]
            assert elapse(net, s, d) == s2


def _graph(net, lim):
    """The built graph, or the partial graph of a k-bound stop."""
    try:
        return build(net, lim)
    except KBoundError as exc:
        return exc.partial


class TestSharedMasks:
    """A fire writes 1 into each clock it starts, whatever the bounds, so
    the instances of a net share their table's fire masks per key width:
    instances built alternately, at equal and at different widths, each
    build what the reference builds, and a later instance at a width
    already seen makes no mask pair its valuation's earlier instance did
    not make."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k_bound=st.integers(1, 4), max_states=st.integers(1, 400))
    def test_instances_built_alternately_equal_the_reference(self, seed, k_bound, max_states):
        rng = random.Random(seed)
        net = rng.choice([random_parametric_net, random_race_net, random_gated_net])(rng)
        vals = []
        for top in (3, 3, 12, 3, 30, 12):  # caps up to 4, 13 and 31: widths of 1 to 5 bits
            v = {p: rng.randint(0, top) for p in net.parameters}
            try:
                instantiate(net, v)
            except TpnError:  # outside the domain, or an interval with low > high
                continue
            vals.append(v)
        lim, tab = ExploreLimits(k_bound, max_states), net.steps
        for v in vals:
            c = instantiate(net, v)
            assert outcome(build, c, lim) == outcome(reference_build, c, lim)
            lay, g = layout(c), _graph(c, lim)
            assert lay.masks is tab.masks[lay.width]
            units = [_key(lay, s) for s in g.states]
            assert materialise(lay, units) == g.states
            assert [units[u] for u in node_numbers(g)] == g.keys
        made = {w: dict(masks) for w, masks in tab.masks.items()}
        for v in vals:  # a new instance of each valuation, at a width already seen
            _graph(instantiate(net, v), lim)
        assert tab.masks == made

    def test_a_second_instance_at_a_seen_width_makes_no_fire_masks(self, monkeypatch):
        made = []
        fire_masks = semantics._fire_masks

        def counting(lay, mid, t):
            made.append((mid, t, lay.width))
            return fire_masks(lay, mid, t)

        monkeypatch.setattr(semantics, "_fire_masks", counting)
        net = make_net(
            [("A", 1), ("B", 0)],
            {
                "up": {"pre": {"A": 1}, "post": {"B": 1}, "interval": ("a", "b")},
                "down": {"pre": {"B": 1}, "post": {"A": 1}, "interval": (1, None)},
            },
            parameters=["a", "b"],
        )
        counts = []
        for v in ({"a": 1, "b": 4}, {"a": 0, "b": 6}, {"a": 5, "b": 5}, {"a": 2, "b": 9}, {"a": 9, "b": 14}):
            made.clear()
            c = instantiate(net, v)
            assert outcome(build, c, ExploreLimits()) == outcome(reference_build, c, ExploreLimits())
            counts.append((layout(c).width, len(made)))
        # caps 5, 7 and 6 share a width of 3 bits; 10 and 15 share 4
        assert counts == [(3, 2), (3, 0), (3, 0), (4, 2), (4, 0)]


class TestMarkingIndex:
    """The net's step table interns the markings: ``g.mids`` holds the id
    of each node's marking, Props are evaluated once per marking, and
    every edge is two ints. Complete, k-bound partial and cut graphs
    alike."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k_bound=st.integers(1, 4), max_states=st.integers(1, 40))
    def test_marking_ids_and_props(self, seed, k_bound, max_states):
        rng = random.Random(seed)
        net = random_concrete_net(rng)
        phi = random_gmec(rng, list(net.places))
        tab = net.steps
        for lim in (ExploreLimits(max_states=3000), ExploreLimits(k_bound, max_states)):
            g = _graph(net, lim)
            ref = outcome(reference_build, net, lim)[0]
            assert len(g) == len(ref)
            assert [tab.markings[mid] for mid in g.mids] == [ref[u].marking for u in node_numbers(g)]
            assert tab.mindex == {m: mid for mid, m in enumerate(tab.markings)}
            expected = {i for i, s in enumerate(ref) if eval_gmec(dict(zip(net.places, s.marking)), phi)}
            assert states_satisfying(g, phi) == expected

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k_bound=st.integers(1, 4), max_states=st.integers(1, 200))
    def test_edges_are_int_pairs_with_one_delay_last(self, seed, k_bound, max_states):
        # per node: fires (t, target) in ascending transition index t, then
        # at most one delay (-1, target); a node where nothing may fire has
        # one edge, (-w, target) for its run of w >= 1 delays
        net = random_concrete_net(random.Random(seed))
        nt = len(net.transitions)
        for lim in (ExploreLimits(max_states=3000), ExploreLimits(k_bound, max_states)):
            g = _graph(net, lim)
            assert len(g.succ) == len(g.keys) == len(g.mids) <= len(g)
            for outs in g.succ:
                assert all(type(e) is tuple and len(e) == 2 for e in outs)
                assert all(type(t) is int and type(j) is int and 0 <= j < len(g.keys) for t, j in outs)
                labels = [t for t, _ in outs]
                fires = [t for t in labels if t >= 0]
                assert all(0 <= t < nt for t in fires)
                assert fires == sorted(set(fires))
                assert labels == fires or labels == fires + [-1] or (not fires and len(labels) == 1 and labels[0] < 0)

    def test_enabledness_tests_scale_with_markings(self, monkeypatch):
        # a table tests a marking's transitions once, when it interns it: a
        # fresh table makes exactly markings x nt tests, all inside intern,
        # and wider intervals add clock nodes but no test. The instances of
        # one parametric net share their net's table, so the second instance
        # makes none at all
        calls, depth = [], [0]
        enabled, intern = StepTable.enabled, StepTable.intern

        def counting(self, m, t):
            calls.append(depth[0] > 0)
            return enabled(self, m, t)

        def interning(self, m):
            depth[0] += 1
            try:
                return intern(self, m)
            finally:
                depth[0] -= 1

        def oscillators():
            return make_net(
                [("A0", 1), ("B0", 0), ("A1", 1), ("B1", 0)],
                {
                    "u0": {"pre": {"A0": 1}, "post": {"B0": 1}, "interval": (1, "h0")},
                    "d0": {"pre": {"B0": 1}, "post": {"A0": 1}, "interval": (1, 2)},
                    "u1": {"pre": {"A1": 1}, "post": {"B1": 1}, "interval": (1, "h1")},
                    "d1": {"pre": {"B1": 1}, "post": {"A1": 1}, "interval": (2, 3)},
                },
                parameters=["h0", "h1"],
            )

        monkeypatch.setattr(StepTable, "enabled", counting)
        monkeypatch.setattr(StepTable, "intern", interning)
        shared = oscillators()
        for parametric in (False, True):
            nodes, tests = [], []
            for hi in (2, 6):
                calls.clear()
                net = instantiate(shared if parametric else oscillators(), {"h0": hi, "h1": hi + 1})
                g = build(net)
                assert g.complete and len(net.steps.markings) == 4
                assert all(calls)
                nodes.append(len(g))
                tests.append(len(calls))
            assert nodes[0] < nodes[1]
            assert tests == [4 * 4, 0 if parametric else 4 * 4]

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k_bound=st.integers(1, 3))
    def test_enabled_at_lists_each_markings_enabled_transitions(self, seed, k_bound):
        # on the table of a first build, then on a warm copy of it, pickled
        # and unpickled with its net, that later instances add markings to
        def check(tab):
            assert [list(on) for on in tab.enabled_at] == [
                [t for t in range(tab.nt) if tab.enabled(m, t)] for m in tab.markings
            ]

        rng = random.Random(seed)
        net = random_parametric_net(rng)
        for _ in range(3):
            try:
                c = instantiate(net, {p: rng.randint(0, 5) for p in net.parameters})
            except TpnError:  # outside the domain, or an interval with low > high
                continue
            _graph(c, ExploreLimits(k_bound, 3000))
            check(net.steps)
            warm = pickle.loads(pickle.dumps(net))
            assert vars(warm.steps) == vars(net.steps)
            net = warm


class TestStatesSatisfying:
    def test_selects_fired_state(self, net_a):
        g = build(net_a)
        hit = states_satisfying(g, parse_gmec("M(p2) >= 1"))
        assert hit == {i for i, s in enumerate(g.states) if s.marking == (0, 1)}

    def test_tautology_selects_everything(self, net_a):
        g = build(net_a)
        assert states_satisfying(g, parse_gmec("0*M(p1) >= 0")) == set(range(len(g)))

    def test_token_conservation_across_graph(self, net_a):
        g = build(net_a)
        assert states_satisfying(g, parse_gmec("M(p1) + M(p2) = 1")) == set(range(len(g)))


def test_partial_graph_on_k_bound_is_usable():
    net = instantiate(
        make_net([("p1", 0)], {"t": {"post": {"p1": 1}, "interval": (1, 1)}}), {}
    )
    with pytest.raises(KBoundError) as exc:
        build(net, ExploreLimits(k_bound=2))
    partial = exc.value.partial
    assert not partial.complete
    # node 5, whose fire overflows the k-bound, is listed with no out-edge
    d, t = Delay(1), Fire("t")
    assert partial.edges == [(0, d, 1), (1, t, 2), (2, d, 3), (3, t, 4), (4, d, 5)]
    assert len(partial.succ) == len(partial) == 6
