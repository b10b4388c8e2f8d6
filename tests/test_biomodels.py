import os

import pytest

from tpnsynth import (
    ExploreLimits,
    InputError,
    build,
    check,
    domain_contains,
    instantiate,
    parse_formula,
    parse_net_file,
)
from tpnsynth.biomodels import (
    ClockConfig,
    EventFlag,
    InhibitTransition,
    JetLag,
    KnockOut,
    LightDuration,
    NightLight,
    apply_observer,
    build_circadian_clock,
)
from tpnsynth.semantics import Fire

LIM = ExploreLimits(k_bound=2, max_states=100_000)


def reach(net, valuation=None):
    c = instantiate(net, valuation or {})
    return c, build(c, LIM)


def fired_transitions(g):
    return {lab.transition for _, lab, _ in g.edges if isinstance(lab, Fire)}


def project_markings(net, g, places):
    idx = [net.place_index[p] for p in places]
    return {tuple(s.marking[i] for i in idx) for s in g.states}


@pytest.fixture(scope="module")
def nominal_clock():
    return build_circadian_clock(ClockConfig(tau_g=1, tau_a=7))


class TestInhibit:
    def test_transition_never_fires(self, net_a):
        net = apply_observer(net_a, InhibitTransition("t1"))
        c, g = reach(net)
        assert "t1" not in fired_transitions(g)
        # nothing ever happens: only the quiescent delay self-loop remains
        assert len(g) == 1

    def test_unknown_transition_rejected(self, net_a):
        with pytest.raises(InputError):
            apply_observer(net_a, InhibitTransition("zap"))

    def test_projection_is_a_restriction(self, net_a):
        before = project_markings(net_a, build(net_a), net_a.places)
        net = apply_observer(net_a, InhibitTransition("t1"))
        c, g = reach(net)
        assert project_markings(c, g, net_a.places) <= before


class TestEventFlag:
    def test_firing_becomes_observable(self, net_a):
        net = apply_observer(net_a, EventFlag("t1"))
        c, g = reach(net)
        assert check(c, g, parse_formula("EF[0,inf](M(p_O_t1)>0)")).holds

    def test_flag_saturates_at_one_token(self):
        looping = instantiate(
            __import__("tpnsynth").make_net(
                [("p", 1)],
                {"t": {"pre": {"p": 1}, "post": {"p": 1}, "interval": (1, 1)}},
            ),
            {},
        )
        net = apply_observer(looping, EventFlag("t"))
        c, g = reach(net)
        assert all(max(s.marking) <= 1 for s in g.states)

    def test_projection_is_a_restriction(self, net_a):
        before = project_markings(net_a, build(net_a), net_a.places)
        net = apply_observer(net_a, EventFlag("t1"))
        c, g = reach(net)
        assert project_markings(c, g, net_a.places) <= before

    def test_empty_flag_never_disables_anything(self, net_a):
        from tpnsynth import enabled_set

        net = apply_observer(net_a, EventFlag("t1"))
        c, g = reach(net)
        flag = c.place_index["p_O_t1"]
        for s in g.states:
            if s.marking[flag] == 0:
                original = {p: n for p, n in c.marking_dict(s.marking).items() if p != "p_O_t1"}
                assert enabled_set(net_a, net_a.marking(original)) == enabled_set(c, s.marking)

    def test_flag_name_collision_rejected(self, net_a):
        net = apply_observer(net_a, EventFlag("t1"))
        with pytest.raises(InputError):
            apply_observer(net, EventFlag("t1"))


class TestComposition:
    def canonical(self, net, g):
        nodes = set()
        edges = set()
        for s in g.states:
            nodes.add(frozenset(net.marking_dict(s.marking).items()))
        for i, lab, j in g.edges:
            a = frozenset(net.marking_dict(g.states[i].marking).items())
            b = frozenset(net.marking_dict(g.states[j].marking).items())
            edges.add((a, str(lab), b))
        return nodes, edges

    def test_disjoint_observers_commute(self, nominal_clock):
        one = two = nominal_clock
        for spec in (InhibitTransition("t_on"), EventFlag("t_c")):
            one = apply_observer(one, spec)
        for spec in (EventFlag("t_c"), InhibitTransition("t_on")):
            two = apply_observer(two, spec)
        c1, g1 = reach(one)
        c2, g2 = reach(two)
        assert self.canonical(c1, g1) == self.canonical(c2, g2)


class TestClockModel:
    def test_one_safety_across_reach_graph(self, nominal_clock):
        c, g = reach(nominal_clock)
        assert g.complete
        assert all(max(s.marking) <= 1 for s in g.states)

    def test_components_are_complementary(self, nominal_clock):
        c, g = reach(nominal_clock)
        for pair in (("P_L0", "P_L1"), ("P_G0", "P_G1"), ("P_PC0", "P_PC1")):
            i, j = (c.place_index[p] for p in pair)
            assert all(s.marking[i] + s.marking[j] == 1 for s in g.states)

    def test_constant_darkness_start_freezes_light(self):
        net = apply_observer(
            build_circadian_clock(ClockConfig(light_start="off", tau_g=1, tau_a=7)),
            InhibitTransition("t_on"),
        )
        c, g = reach(net)
        assert check(c, g, parse_formula("AG[0,inf](M(P_L1)=0)")).holds

    def test_shipped_model_is_the_parametric_clock(self):
        # the CLI runs (and the output digest covers) the file, the
        # acceptance suite the code
        here = os.path.dirname(os.path.abspath(__file__))
        model = parse_net_file(os.path.join(here, os.pardir, "models", "circadian.tpnet"))
        assert model == build_circadian_clock(ClockConfig(tau_g="tau_g"))

    def test_gene_constraint_added_for_parametric_delay(self):
        net = build_circadian_clock(ClockConfig(tau_g="tau_g"))
        assert "tau_g" in net.parameters
        assert any("tau_g" in c.params() for c in net.domain.constraints)

    def test_day_length_constraint(self):
        net = build_circadian_clock(ClockConfig(tau_on="a", tau_off="b"))
        assert any(c.params() == {"a", "b"} for c in net.domain.constraints)

    def test_bad_config_rejected(self):
        with pytest.raises(InputError):
            ClockConfig(light_start="dim")


class TestKnockOut:
    def test_suppressed_transitions_never_fire(self, nominal_clock):
        net = apply_observer(nominal_clock, KnockOut(("t_b", "t_f")))
        c, g = reach(net)
        assert fired_transitions(g) & {"t_b", "t_f"} == set()

    def test_oscillation_property_fails(self, nominal_clock):
        net = apply_observer(nominal_clock, KnockOut(("t_b", "t_f")))
        c, g = reach(net)
        phi = parse_formula("(M(P_PC0)>=1) -->[0,18] (M(P_PC1)>=1)")
        assert not check(c, g, phi).holds


class TestLightDuration:
    def test_replacement_switch_controls_the_cycle(self, nominal_clock):
        net = apply_observer(nominal_clock, LightDuration(6))
        c, g = reach(net)
        assert "t_off" not in fired_transitions(g)
        assert "t_star" in fired_transitions(g)
        # light lasts exactly 6: on throughout [0,5], off at 6
        assert check(c, g, parse_formula("AG[0,5](M(P_L1)>=1)")).holds
        assert check(c, g, parse_formula("EF[6,6](M(P_L0)>=1)")).holds

    def test_parametric_duration_extends_parameters(self, nominal_clock):
        net = apply_observer(nominal_clock, LightDuration("td"))
        assert "td" in net.parameters


class TestNightLight:
    def test_phase_schedule(self):
        cfg = ClockConfig(light_start="off", tau_g=1, tau_a=7)
        net = apply_observer(build_circadian_clock(cfg), NightLight(8, 2, 2))
        c, g = reach(net)
        # dark through the first 7 units, pulse lit at 9, dark again at 11,
        # dawn at 12, nominal light until 24
        assert check(c, g, parse_formula("AG[0,7](M(P_L0)>=1)")).holds
        assert check(c, g, parse_formula("AG[9,9](M(P_L1)>=1)")).holds
        assert check(c, g, parse_formula("AG[11,11](M(P_L0)>=1)")).holds
        assert check(c, g, parse_formula("AG[13,23](M(P_L1)>=1)")).holds
        assert check(c, g, parse_formula("EF[24,24](M(P_L0)>=1)")).holds

    def test_night_length_domain_constraint(self):
        cfg = ClockConfig(light_start="off", tau_g=1, tau_a=7)
        net = apply_observer(build_circadian_clock(cfg), NightLight("t1", "t2", "t3"))
        assert any(c.params() == {"t1", "t2", "t3"} for c in net.domain.constraints)

    def test_repeated_phase_parameter_counts_each_phase(self):
        # t1 names two phases, so the night is 2*t1 + t2 = 12
        cfg = ClockConfig(light_start="off", tau_g=1, tau_a=7)
        net = apply_observer(build_circadian_clock(cfg), NightLight("t1", "t2", "t1"))
        night = [c for c in net.domain.constraints if c.params() == {"t1", "t2"}]
        assert [dict(c.coeffs) for c in night] == [{"t1": 2, "t2": 1}]
        assert domain_contains(net.domain, {"t1": 4, "t2": 4})
        assert not domain_contains(net.domain, {"t1": 6, "t2": 6})

    def test_literal_phases_must_fill_the_night(self):
        cfg = ClockConfig(light_start="off", tau_g=1, tau_a=7)
        with pytest.raises(InputError):
            apply_observer(build_circadian_clock(cfg), NightLight(3, 2, 2))


class TestJetLag:
    def test_forced_light_window(self, nominal_clock):
        net = apply_observer(nominal_clock, JetLag(24, 30))
        c, g = reach(net)
        # nominal first day, then light held through [24, 53], released at 54
        # (both phases coexist at boundary instants, so assert interiors)
        assert check(c, g, parse_formula("AG[13,23](M(P_L0)>=1)")).holds
        assert check(c, g, parse_formula("AG[25,53](M(P_L1)>=1)")).holds
        assert check(c, g, parse_formula("AG[55,65](M(P_L0)>=1)")).holds
        assert check(c, g, parse_formula("EF[66,66](M(P_L1)>=1)")).holds


def test_initial_clock_of_the_light_switch(nominal_clock):
    from tpnsynth import TimeInterval, initial_state

    c = instantiate(nominal_clock, {})
    s = initial_state(c)
    assert s.clock(c, "t_off") == TimeInterval(12, 12)
    assert s.clock(c, "t_on") is None
