import random

import pytest

from tpnsynth import (
    INF,
    InputError,
    PreconditionError,
    TimeInterval,
    TimeOverrunError,
    elapse,
    enabled_set,
    fire,
    fireable_set,
    initial_state,
    instantiate,
    make_net,
    max_elapse,
    newly_enabled_set,
    successors,
)
from tpnsynth.semantics import Delay, Fire, State

from _gen import random_concrete_net, random_walk_states


def concrete(places, transitions):
    return instantiate(make_net(places, transitions), {})


class TestInitialState:
    def test_net_a(self, net_a):
        s = initial_state(net_a)
        assert s.marking == (1, 0)
        assert s.clocks == (TimeInterval(2, 3),)

    def test_empty_enabling_has_no_clocks(self):
        net = concrete([("p", 0)], {"t": {"pre": {"p": 1}, "interval": (1, 2)}})
        assert initial_state(net).clocks == (None,)


class TestElapse:
    def test_max_elapse_single(self, net_a):
        assert max_elapse(net_a, initial_state(net_a)) == 3

    def test_max_elapse_minimum_of_uppers(self):
        net = concrete(
            [("p", 1)],
            {
                "t1": {"read": {"p": 1}, "interval": (1, 3)},
                "t2": {"read": {"p": 1}, "interval": (0, 5)},
            },
        )
        assert max_elapse(net, initial_state(net)) == 3

    def test_max_elapse_infinite_when_unconstrained(self):
        net = concrete([("p", 0)], {"t": {"pre": {"p": 1}, "interval": (1, 2)}})
        assert max_elapse(net, initial_state(net)) == INF

    def test_unit_arithmetic(self, net_a):
        s = elapse(net_a, initial_state(net_a), 2)
        assert s.clocks == (TimeInterval(0, 1),)
        assert s.marking == (1, 0)

    def test_zero_delay_rejected(self, net_a):
        with pytest.raises(PreconditionError):
            elapse(net_a, initial_state(net_a), 0)
        with pytest.raises(PreconditionError, match="got True"):
            elapse(net_a, initial_state(net_a), True)

    @pytest.mark.parametrize("amount", [0, -1, True, 1.0])
    def test_a_delay_label_needs_a_positive_int(self, amount):
        with pytest.raises(PreconditionError, match="amount >= 1"):
            Delay(amount)

    def test_overrun_rejected(self, net_a):
        with pytest.raises(TimeOverrunError):
            elapse(net_a, initial_state(net_a), 4)

    def test_infinite_upper_saturates(self):
        net = concrete([("p", 1)], {"t": {"read": {"p": 1}, "interval": (0, None)}})
        s = initial_state(net)
        for _ in range(100):
            s = elapse(net, s, 1)
        assert s.clocks[0] == TimeInterval(0, INF)

    def test_additivity_on_random_nets(self):
        rng = random.Random(3)
        for _ in range(120):
            net = random_concrete_net(rng)
            for s in random_walk_states(rng, net, steps=6):
                m = max_elapse(net, s)
                if m == INF:
                    m = 6
                if m < 2:
                    continue
                d1 = rng.randint(1, m - 1)
                d2 = rng.randint(1, m - d1)
                assert elapse(net, elapse(net, s, d1), d2) == elapse(net, s, d1 + d2)


class TestFire:
    def test_not_fireable_initially(self, net_a):
        assert fireable_set(net_a, initial_state(net_a)) == set()

    def test_fireable_after_lower_bound(self, net_a):
        s = elapse(net_a, initial_state(net_a), 2)
        assert fireable_set(net_a, s) == {"t1"}

    def test_firing_updates_marking_and_clocks(self, net_a):
        s = elapse(net_a, initial_state(net_a), 2)
        s2 = fire(net_a, s, "t1")
        assert s2.marking == (0, 1)
        assert s2.clocks == (None,)

    def test_premature_fire_rejected(self, net_a):
        with pytest.raises(PreconditionError):
            fire(net_a, initial_state(net_a), "t1")

    def test_unknown_transition_name_is_an_input_error(self, net_a):
        s = elapse(net_a, initial_state(net_a), 2)
        for call in (
            lambda: fire(net_a, s, "nope"),
            lambda: s.clock(net_a, "nope"),
            lambda: newly_enabled_set(net_a, s.marking, "nope"),
        ):
            with pytest.raises(InputError, match="unknown transition 'nope'"):
                call()

    def test_self_loop_resets_clock(self):
        net = concrete(
            [("p1", 1)],
            {"t": {"pre": {"p1": 1}, "post": {"p1": 1}, "interval": (1, 1)}},
        )
        s = elapse(net, initial_state(net), 1)
        s2 = fire(net, s, "t")
        assert s2.clocks == (TimeInterval(1, 1),)

    def test_persistent_transition_keeps_progress(self):
        net = concrete(
            [("p1", 1), ("p2", 1), ("p3", 0), ("p4", 0)],
            {
                "t1": {"pre": {"p1": 1}, "post": {"p3": 1}, "interval": (2, 2)},
                "t2": {"pre": {"p2": 1}, "post": {"p4": 1}, "interval": (5, 5)},
            },
        )
        s = elapse(net, initial_state(net), 2)
        s2 = fire(net, s, "t1")
        assert s2.clock(net, "t2") == TimeInterval(3, 3)

    def test_read_arcs_do_not_consume(self):
        net = concrete(
            [("p1", 1), ("p2", 1)],
            {"t": {"pre": {"p1": 1}, "read": {"p2": 1}, "interval": (0, 0)}},
        )
        s2 = fire(net, initial_state(net), "t")
        assert s2.marking == (0, 1)

    def test_token_conservation_on_random_nets(self):
        rng = random.Random(5)
        for _ in range(150):
            net = random_concrete_net(rng)
            for s in random_walk_states(rng, net, steps=8):
                for i, c in enumerate(s.clocks):
                    if c is None or c.low != 0:
                        continue
                    t = net.transitions[i]
                    s2 = fire(net, s, t)
                    for k in range(len(net.places)):
                        assert s2.marking[k] == s.marking[k] - net.pre[i][k] + net.post[i][k]
                        assert s2.marking[k] >= 0


class TestMalformedStates:
    """A State that is not one of the net's, or has a clock that the
    instance's intervals never give, is refused with PreconditionError
    before anything is interned in the net's table."""

    @pytest.mark.parametrize(
        "marking, clocks",
        [
            ((1, 0), (TimeInterval(0, 1), TimeInterval(0, 1))),  # u clocked, not enabled
            ((1, 0), (None, None)),  # t enabled, not clocked
            ((1, 0), (TimeInterval(0, 1),)),  # one clock short
            ((2, -1), (TimeInterval(0, 1), None)),  # a negative count
            ((1,), (TimeInterval(0, 1), None)),  # a short marking
            ((1, 0), (TimeInterval(1, 1), None)),  # a low that [0,1] never keeps at high 1
            ((1, 0), (TimeInterval(0, 2), None)),  # a high above the static one
            ((1, 0), (TimeInterval(0, INF), None)),  # an unbounded clock for [0,1]
        ],
    )
    def test_refused_before_interning(self, marking, clocks):
        net = concrete(
            [("p", 1), ("q", 0)],
            {
                "t": {"pre": {"p": 1}, "post": {"q": 1}, "interval": (0, 1)},
                "u": {"pre": {"q": 1}, "post": {"p": 1}, "interval": (0, 1)},
            },
        )
        s, tab = State(marking, clocks), net.steps
        interned = list(tab.markings)
        for call in (
            lambda: fire(net, s, "t"),
            lambda: fire(net, s, "u"),
            lambda: successors(net, s),
            lambda: elapse(net, s, 1),
            lambda: fireable_set(net, s),
            lambda: max_elapse(net, s),
        ):
            with pytest.raises(PreconditionError):
                call()
        assert tab.markings == interned and len(tab.enabled_at) == len(interned)


class TestSuccessors:
    def test_initial_only_delay(self, net_a):
        succ = successors(net_a, initial_state(net_a))
        assert len(succ) == 1
        label, s = succ[0]
        assert label == Delay(1)
        assert s.clocks == (TimeInterval(1, 2),)

    def test_fire_then_delay_ordering(self, net_a):
        s = elapse(net_a, initial_state(net_a), 2)
        labels = [label for label, _ in successors(net_a, s)]
        assert labels == [Fire("t1"), Delay(1)]

    def test_urgency_blocks_delay(self, net_a):
        s = elapse(net_a, initial_state(net_a), 3)
        labels = [label for label, _ in successors(net_a, s)]
        assert labels == [Fire("t1")]
        assert max_elapse(net_a, s) == 0

    def test_urgency_invariant_on_random_states(self):
        rng = random.Random(9)
        for _ in range(200):
            net = random_concrete_net(rng)
            for s in random_walk_states(rng, net, steps=8):
                if max_elapse(net, s) == 0 and enabled_set(net, s.marking):
                    assert fireable_set(net, s)

    def test_clock_domain_matches_enabled_set(self):
        rng = random.Random(13)
        for _ in range(200):
            net = random_concrete_net(rng)
            for s in random_walk_states(rng, net, steps=8):
                clocked = {net.transitions[i] for i, c in enumerate(s.clocks) if c is not None}
                assert clocked == enabled_set(net, s.marking)
