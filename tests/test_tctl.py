import random
import sys

import pytest

from tpnsynth import (
    EF,
    EU,
    AF,
    AG,
    AU,
    Atom,
    BoolOp,
    FormulaSyntaxError,
    IncompleteGraphError,
    InputError,
    LeadsTo,
    Not,
    OracleError,
    Prop,
    TimeInterval,
    brute_force_check,
    build,
    check,
    eval_gmec,
    format_formula,
    instantiate,
    make_net,
    parse_formula,
    parse_gmec,
    replay,
)
from tpnsynth.petri import INF
from tpnsynth.semantics import Delay, Fire
from tpnsynth.statespace import ExploreLimits
from tpnsynth.tctl import TRUE_GMEC, Implies, _Checker, desugar

from _gen import random_concrete_net, random_formula, random_step_graph, step_graph


class TestEvalGmec:
    def test_flag_place_positive(self):
        assert eval_gmec({"p_O_t_g": 1}, parse_gmec("M(p_O_t_g) > 0"))

    def test_tautological_disjunction(self):
        g = parse_gmec("M(p1) = 0 | M(p1) >= 0")
        for k in range(4):
            assert eval_gmec({"p1": k}, g)

    def test_weighted_sum(self):
        g = parse_gmec("2*M(p1) - M(p2) >= 3")
        assert eval_gmec({"p1": 2, "p2": 1}, g)
        assert not eval_gmec({"p1": 1, "p2": 0}, g)

    def test_implication_semantics(self):
        g = parse_gmec("M(a) >= 1 => M(b) >= 1")
        assert eval_gmec({"a": 0, "b": 0}, g)
        assert eval_gmec({"a": 1, "b": 2}, g)
        assert not eval_gmec({"a": 1, "b": 0}, g)

    def test_agreement_with_independent_evaluator(self):
        rng = random.Random(41)
        from _gen import random_gmec

        def slow_eval(m, g):
            if isinstance(g, Atom):
                total = sum(c * m[p] for p, c in g.coeffs)
                return {
                    "<": total < g.bound,
                    "<=": total <= g.bound,
                    "=": total == g.bound,
                    ">=": total >= g.bound,
                    ">": total > g.bound,
                }[g.rel]
            a, b = slow_eval(m, g.left), slow_eval(m, g.right)
            return {"and": a and b, "or": a or b, "implies": (not a) or b}[g.op]

        places = ["p0", "p1", "p2"]
        for _ in range(300):
            g = random_gmec(rng, places)
            m = {p: rng.randint(0, 3) for p in places}
            assert eval_gmec(m, g) == slow_eval(m, g)

    def test_missing_place_raises(self):
        with pytest.raises(InputError):
            eval_gmec({"p1": 1}, parse_gmec("M(p1) + M(p2) >= 1"))

    def test_unknown_relation_rejected(self):
        with pytest.raises(InputError, match="!="):
            Atom((("p1", 1),), "!=", 1)


class TestParseGmec:
    def test_simple_atom(self):
        assert parse_gmec("M(pc1) >= 1") == Atom((("pc1", 1),), ">=", 1)

    def test_sum_atom(self):
        assert parse_gmec("M(p1)+M(p2)=1") == Atom((("p1", 1), ("p2", 1)), "=", 1)

    def test_precedence_implies_lowest(self):
        g = parse_gmec(r"M(a)>=1 => M(b)>=1 \/ M(c)>=1")
        assert isinstance(g, BoolOp) and g.op == "implies"
        assert isinstance(g.right, BoolOp) and g.right.op == "or"

    def test_and_binds_tighter_than_or(self):
        g = parse_gmec("M(a)>=1 | M(b)>=1 & M(c)>=1")
        assert g.op == "or" and g.right.op == "and"

    def test_temporal_rejected_in_gmec(self):
        with pytest.raises(FormulaSyntaxError):
            parse_gmec("EF[0,1](M(a)>=1)")

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError):
            parse_gmec("M(x) >= ")


class TestParseFormula:
    def test_ef_unbounded(self):
        phi = parse_formula("EF[0,inf](M(po)>0)")
        assert isinstance(phi, EF)
        assert phi.interval.unbounded
        assert phi.sub == Prop(Atom((("po", 1),), ">", 0))

    def test_au_plain_form(self):
        phi = parse_formula("A (M(a)>=0) U[2,5] (M(b)>=1)")
        assert isinstance(phi, AU)
        assert phi.interval == TimeInterval(2, 5)

    def test_eu_bracketed_form(self):
        phi = parse_formula("E[(M(a)>=0) U[0,3] (M(b)>=1)]")
        assert isinstance(phi, EU)

    def test_leadsto_good_shape(self):
        phi = parse_formula("(M(a)>=1) -->[0,3] (M(b)>=1)")
        assert isinstance(phi, LeadsTo)

    def test_leadsto_bad_interval_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(M(a)>=1) -->[3,7] (M(b)>=1)")

    def test_leadsto_needs_plain_operands(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("EF[0,1](M(a)>=1) -->[0,3] (M(b)>=1)")

    def test_open_interval_forms(self):
        phi = parse_formula("EF(1,4)(M(a)>=1)")
        assert phi.interval.int_low() == 2 and phi.interval.int_high() == 3

    def test_formula_level_conjunction_desugars(self):
        phi = parse_formula("EF[0,1](M(a)>=1) & AG[0,inf](M(a)>=0)")
        assert isinstance(phi, Not)  # And(x, y) == Not(Implies(x, Not(y)))

    def test_negation(self):
        phi = parse_formula("!EF[0,2](M(a)>=1)")
        assert isinstance(phi, Not) and isinstance(phi.sub, EF)

    def test_roundtrip_through_formatter(self):
        # the parser prefers constraint-level implication when both sides
        # are plain constraints, so compare modulo that lifting
        def lift(phi):
            if isinstance(phi, Implies):
                left, right = lift(phi.left), lift(phi.right)
                if isinstance(left, Prop) and isinstance(right, Prop):
                    return Prop(BoolOp("implies", left.gmec, right.gmec))
                return Implies(left, right)
            if isinstance(phi, Not):
                return Not(lift(phi.sub))
            if isinstance(phi, (EU, AU)):
                return type(phi)(lift(phi.left), phi.interval, lift(phi.right))
            if isinstance(phi, (EF, AF, AG)):
                return type(phi)(phi.interval, lift(phi.sub))
            from tpnsynth import EG

            if isinstance(phi, EG):
                return EG(phi.interval, lift(phi.sub))
            return phi

        rng = random.Random(43)
        for _ in range(150):
            phi = random_formula(rng, ["p0", "p1"], depth=2)
            assert parse_formula(format_formula(phi)) == lift(phi)


class TestCheckNetA:
    def test_ef_within_window_with_witness(self, net_a):
        g = build(net_a)
        v = check(net_a, g, parse_formula("EF[2,3](M(p2)>=1)"))
        assert v.holds
        states = replay(net_a, v.witness)
        assert states[-1].marking == (0, 1)
        elapsed = sum(l.amount for l in v.witness if hasattr(l, "amount"))
        assert 2 <= elapsed <= 3

    def test_ef_too_early_fails(self, net_a):
        g = build(net_a)
        assert not check(net_a, g, parse_formula("EF[0,1](M(p2)>=1)")).holds

    def test_nonnegative_invariant_tautology(self, net_a):
        g = build(net_a)
        assert check(net_a, g, parse_formula("AG[0,inf](M(p1)+M(p2)>=0)")).holds

    def test_leadsto_bounded_response(self, net_a):
        g = build(net_a)
        assert check(net_a, g, parse_formula("(M(p1)>=1) -->[0,3] (M(p2)>=1)")).holds
        assert not check(net_a, g, parse_formula("(M(p1)>=1) -->[0,1] (M(p2)>=1)")).holds

    def test_failed_ag_yields_counterexample(self, net_a):
        g = build(net_a)
        v = check(net_a, g, parse_formula("AG[0,inf](M(p2)=0)"))
        assert not v.holds
        states = replay(net_a, v.witness)
        assert states[-1].marking == (0, 1)

    def test_incomplete_graph_refused(self, net_a):
        g = build(net_a, ExploreLimits(max_states=2))
        with pytest.raises(IncompleteGraphError):
            check(net_a, g, parse_formula("EF[0,1](M(p2)>=1)"))

    def test_unknown_place_rejected(self, net_a):
        g = build(net_a)
        with pytest.raises(InputError):
            check(net_a, g, parse_formula("EF[0,1](M(zzz)>=1)"))


def _graphs_for(rng, count, **kw):
    made = 0
    while made < count:
        net = random_concrete_net(rng, **kw)
        try:
            g = build(net, ExploreLimits(k_bound=3, max_states=2500))
        except Exception:
            continue
        if not g.complete or len(g) > 600:
            continue
        made += 1
        yield net, g


class TestCheckerProperties:
    def test_alias_coherence(self):
        rng = random.Random(47)
        true = Prop(TRUE_GMEC)
        for net, g in _graphs_for(rng, 25, max_places=3, max_transitions=3, max_bound=3):
            places = list(net.places)
            for _ in range(8):
                sub = random_formula(rng, places, depth=1, max_bound=4)
                iv = TimeInterval(rng.randint(0, 3), rng.randint(3, 5))
                assert check(net, g, EF(iv, sub)).holds == check(net, g, EU(true, iv, sub)).holds
                assert check(net, g, AF(iv, sub)).holds == check(net, g, AU(true, iv, sub)).holds
                assert check(net, g, AG(iv, sub)).holds == (not check(net, g, EF(iv, Not(sub))).holds)
                from tpnsynth import EG
                assert check(net, g, EG(iv, sub)).holds == (not check(net, g, AF(iv, Not(sub))).holds)

    def test_negation_duality(self):
        rng = random.Random(53)
        for net, g in _graphs_for(rng, 20, max_places=3, max_transitions=3, max_bound=3):
            for _ in range(8):
                phi = random_formula(rng, list(net.places), depth=2, max_bound=4)
                assert check(net, g, Not(phi)).holds == (not check(net, g, phi).holds)

    def test_ef_monotone_in_interval(self):
        rng = random.Random(59)
        for net, g in _graphs_for(rng, 20, max_places=3, max_transitions=3, max_bound=3):
            for _ in range(8):
                sub = random_formula(rng, list(net.places), depth=1, max_bound=3)
                lo = rng.randint(0, 3)
                hi = rng.randint(lo, 4)
                inner = TimeInterval(lo, hi)
                outer = TimeInterval(rng.randint(0, lo), rng.randint(hi, 6))
                if check(net, g, EF(inner, sub)).holds:
                    assert check(net, g, EF(outer, sub)).holds

    def test_witness_traces_replay(self):
        rng = random.Random(61)
        for net, g in _graphs_for(rng, 20, max_places=3, max_transitions=3, max_bound=3):
            for _ in range(6):
                target = random_formula(rng, list(net.places), depth=0)
                iv = TimeInterval(rng.randint(0, 2), rng.randint(2, 5))
                v = check(net, g, EF(iv, target))
                if not v.holds or v.witness is None:
                    continue
                states = replay(net, v.witness)
                elapsed = sum(l.amount for l in v.witness if hasattr(l, "amount"))
                assert iv.contains(elapsed)
                m = net.marking_dict(states[-1].marking)
                assert eval_gmec(m, target.gmec)


class TestDifferentialOracle:
    def test_dead_net_af_fails(self):
        net = instantiate(
            make_net([("p1", 0)], {"t": {"pre": {"p1": 1}, "interval": (0, 1)}}), {}
        )
        phi = parse_formula("AF[0,1](M(p1)>=1)")
        assert not brute_force_check(net, phi, horizon=5)
        g = build(net)
        assert not check(net, g, phi).holds

    def test_net_a_examples(self, net_a):
        assert brute_force_check(net_a, parse_formula("EF[2,3](M(p2)>=1)"), horizon=5)
        assert not brute_force_check(net_a, parse_formula("EF[0,1](M(p2)>=1)"), horizon=5)

    def test_horizon_guard(self, net_a):
        from tpnsynth import OracleError

        with pytest.raises(OracleError):
            brute_force_check(net_a, parse_formula("EF[0,9](M(p2)>=1)"), horizon=5)

    def test_agreement_on_random_nets_and_formulas(self):
        rng = random.Random(67)
        pairs = 0
        for net, g in _graphs_for(rng, 40, max_places=3, max_transitions=3, max_bound=3):
            if len(g) > 220:
                continue
            for _ in range(5):
                phi = random_formula(rng, list(net.places), depth=1, max_bound=3)
                expected = brute_force_check(net, phi, horizon=8)
                assert check(net, g, phi).holds == expected
                pairs += 1
        assert pairs >= 150


class TestOracleWalk:
    def test_until_deeper_than_the_recursion_limit(self):
        # one token under a [0,1200] window: the path that keeps delaying is
        # 1200 positions deep, past the interpreter's default recursion limit
        net = instantiate(
            make_net([("p", 1)], {"t": {"pre": {"p": 1}, "interval": (0, 1200)}}), {}
        )
        g = build(net)
        limit = sys.getrecursionlimit()
        assert limit < 1200
        for text in ("AF[0,1200](M(p)=0)", "E (M(p)=1) U[1200,1200] (M(p)=1)"):
            phi = parse_formula(text)
            assert check(net, g, phi).holds
            assert brute_force_check(net, phi, horizon=1201)
        assert sys.getrecursionlimit() == limit

    def test_horizon_guard_follows_open_endpoint(self, net_a):
        # [0,5) contains at most 4, so its saturation class is 5
        phi = parse_formula("EF[0,5)(M(p2)>=1)")
        assert brute_force_check(net_a, phi, horizon=5)
        with pytest.raises(OracleError):
            brute_force_check(net_a, phi, horizon=4)


F, D = Fire("t"), Delay()
ZERO_TO = [TimeInterval(0, 0), TimeInterval(0, 3), TimeInterval(0, 3, True, False), TimeInterval(0, INF)]


def _until_all(ch, exists, phi, psi):
    """The labelled result for every interval in ZERO_TO."""
    return [ch.until(exists, phi, iv, psi) for iv in ZERO_TO]


class TestLabelledUntil:
    def test_agrees_with_product_on_random_graphs(self):
        rng = random.Random(71)
        cases = 0
        for _ in range(250):
            g = random_step_graph(rng)
            ch = _Checker(g, 10_000)
            nodes = range(len(g))
            for _ in range(4):
                phi = frozenset(v for v in nodes if rng.random() < 0.7)
                psi = frozenset(v for v in nodes if rng.random() < 0.25)
                b = rng.randint(0, 6)
                for iv in (
                    TimeInterval(0, b),
                    TimeInterval(0, b, True, False),
                    TimeInterval(0, 0),
                    TimeInterval(0, INF),
                ):
                    assert ch.until(True, phi, iv, psi) == ch._eu(phi, iv, psi)
                    assert ch.until(False, phi, iv, psi) == ch._au(phi, iv, psi)
                    cases += 2
        assert cases == 8000

    def test_agrees_with_product_on_net_graphs(self):
        rng = random.Random(73)
        for net, g in _graphs_for(rng, 15, max_places=3, max_transitions=3, max_bound=4):
            ch = _Checker(g, 10_000)
            for _ in range(6):
                phi = frozenset(v for v in range(len(g)) if rng.random() < 0.8)
                psi = frozenset(v for v in range(len(g)) if rng.random() < 0.15)
                iv = TimeInterval(0, rng.randint(0, 8)) if rng.random() < 0.7 else TimeInterval(0, INF)
                assert ch.until(True, phi, iv, psi) == ch._eu(phi, iv, psi)
                assert ch.until(False, phi, iv, psi) == ch._au(phi, iv, psi)

    def test_au_fails_on_zero_time_cycle_avoiding_psi(self):
        # 0 and 1 fire back and forth forever; only a delay from 0 reaches 2
        ch = _Checker(step_graph([[(F, 1), (D, 2)], [(F, 0)], [(D, 2)]]), 10_000)
        phi, psi = frozenset({0, 1}), frozenset({2})
        assert ch._latest(phi, psi) == [None, None, 0]
        assert _until_all(ch, False, phi, psi) == [frozenset({2})] * 4
        assert _until_all(ch, True, phi, psi) == [frozenset({2})] + [frozenset({0, 1, 2})] * 3

    def test_au_fails_on_delay_cycle_avoiding_psi(self):
        ch = _Checker(step_graph([[(D, 1), (F, 2)], [(D, 0)], [(D, 2)]]), 10_000)
        phi, psi = frozenset({0, 1}), frozenset({2})
        assert ch._latest(phi, psi) == [None, None, 0]
        assert _until_all(ch, False, phi, psi) == [frozenset({2})] * 4

    def test_au_fails_at_dead_end(self):
        # 1 has no successors; 0 may delay into it or fire into psi-node 2
        ch = _Checker(step_graph([[(D, 1), (F, 2)], [], [(D, 2)]]), 10_000)
        phi, psi = frozenset({0, 1}), frozenset({2})
        assert ch._latest(phi, psi) == [None, None, 0]
        assert _until_all(ch, False, phi, psi) == [frozenset({2})] * 4
        assert ch._au(phi, TimeInterval(0, INF), psi) == frozenset({2})

    def test_eu_crosses_fire_edges_after_a_delay(self):
        # from 3, one delay reaches psi-node 4 in one hop, three fires reach
        # it at time 0; 0 delays into 3 first, so its earliest arrival is 1
        succ = [[(D, 3)], [(F, 4)], [(F, 1)], [(F, 2), (D, 4)], [(D, 4)]]
        ch = _Checker(step_graph(succ), 10_000)
        phi, psi = frozenset(range(4)), frozenset({4})
        assert ch._earliest(phi, psi) == [1, 0, 0, 0, 0]
        assert ch.until(True, phi, TimeInterval(0, 0), psi) == frozenset({1, 2, 3, 4})
        assert ch.until(True, phi, TimeInterval(0, 1), psi) == frozenset(range(5))
        assert ch._eu(phi, TimeInterval(0, 0), psi) == frozenset({1, 2, 3, 4})


class TestLeadsToModes:
    def test_paper_reading_differs_from_default(self, net_a):
        # antecedent holds initially, consequent is unreachable: the
        # invariant reading fails, while the eventually reading succeeds
        # because every run reaches the fired marking where the antecedent
        # is gone
        g = build(net_a)
        phi = parse_formula("(M(p1)>=1) -->[0,0] (M(p2)>=9)")
        assert not check(net_a, g, phi, leadsto="ag").holds
        assert check(net_a, g, phi, leadsto="paper").holds

    def test_modes_agree_when_antecedent_is_permanent(self, net_a):
        g = build(net_a)
        phi = parse_formula("(M(p1)+M(p2)>=1) -->[0,3] (M(p2)>=1)")
        assert check(net_a, g, phi, leadsto="ag").holds == check(net_a, g, phi, leadsto="paper").holds


class TestHorizonGuards:
    def test_product_horizon_overflow(self, net_a):
        # only an interval with a positive lower bound reaches the product
        from tpnsynth import HorizonError

        g = build(net_a)
        with pytest.raises(HorizonError):
            check(net_a, g, parse_formula("EF[1,50000](M(p2)>=1)"), max_horizon=1000)

    def test_labelled_until_ignores_horizon_limit(self, net_a):
        g = build(net_a)
        v = check(net_a, g, parse_formula("EF[0,50000](M(p2)>=1)"), max_horizon=1000)
        assert v.holds
        assert replay(net_a, v.witness)[-1].marking == (0, 1)

    def test_states_satisfying_rejects_unknown_place(self, net_a):
        from tpnsynth import states_satisfying
        from tpnsynth.tctl import parse_gmec as pg

        g = build(net_a)
        with pytest.raises(InputError):
            states_satisfying(g, pg("M(nope) >= 1"))


class TestZenoLoop:
    def test_time_frozen_by_urgent_selfloop(self):
        # a [0,0] self-loop forces firing before any delay: time never
        # advances, so bounded-liveness at time 1 fails in both engines
        net = instantiate(
            make_net(
                [("p", 1)],
                {"t": {"pre": {"p": 1}, "post": {"p": 1}, "interval": (0, 0)}},
            ),
            {},
        )
        g = build(net)
        for text in ("EF[1,1](M(p)>=1)", "AF[1,1](M(p)>=1)"):
            phi = parse_formula(text)
            assert not check(net, g, phi).holds
            assert not brute_force_check(net, phi, horizon=4)
        tautology_now = parse_formula("AF[0,0](M(p)>=1)")
        assert check(net, g, tautology_now).holds
        assert brute_force_check(net, tautology_now, horizon=4)


class TestLeadsToCounterexample:
    def test_failing_response_yields_replayable_trace(self, net_a):
        g = build(net_a)
        v = check(net_a, g, parse_formula("(M(p1)>=1) -->[0,1] (M(p2)>=1)"))
        assert not v.holds and v.witness is not None
        # the trace ends in a state that violates the response: p1 marked
        # but no run can deliver p2 within 1 time unit from there
        states = replay(net_a, v.witness)
        assert states[-1].marking[0] == 1
