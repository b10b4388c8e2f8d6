import os
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    KBoundError,
    LeadsTo,
    Not,
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
    parse_formula_file,
    parse_gmec,
    replay,
)
from tpnsynth import oracle
from tpnsynth.netfile import parse_net_file
from tpnsynth.petri import INF
from tpnsynth.semantics import Delay, Fire, successors
from tpnsynth.statespace import ExploreLimits
from tpnsynth.petri import implicit_domain
from tpnsynth.synthesis import enumerate_valuations
from tpnsynth.tctl import TRUE_GMEC, Implies, Verdict, _Checker, _tokenize, compile_plan, decide, desugar

from _gen import (
    mutate_text,
    node_set,
    product_until,
    random_concrete_net,
    random_formula,
    random_gated_net,
    random_parametric_net,
    random_race_net,
    random_response,
    random_step_graph,
    step_graph,
    unit_graph,
    unit_set,
)


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

    @pytest.mark.parametrize(
        "text, pos",
        [
            ("EF[0,1](M(p)>=1)", 0),
            ("M(a)>=1 & !(M(b)>=1)", 10),
            ("M(a)>=1 -->[0,1] M(b)>=1", 8),
            ("M(EF)>=1 | E (M(a)>=1) U[0,1] (M(b)>=1)", 11),
        ],
    )
    def test_temporal_rejected_at_first_offending_token(self, text, pos):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_gmec(text)
        assert err.value.pos == pos


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

    def test_unterminated_interval_fails_at_its_column(self):
        with pytest.raises(FormulaSyntaxError, match="unterminated interval") as exc:
            parse_formula("EF[0,3 M(p)>=1")
        assert exc.value.pos == 7

    @pytest.mark.parametrize(
        "text, message",
        [
            ("EF 3 (M(p)>=1)", "expected a time interval (at column 4)"),
            ("EF[5,3](M(p)>=1)", "interval low 5 exceeds high 3 (at column 7)"),
        ],
    )
    def test_a_bad_interval_fails_at_its_column(self, text, message):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", ["true", "false", "EF[0,3](true) & !(false)"])
    def test_true_and_false_round_trip_through_formatter(self, text):
        phi = parse_formula(text)
        assert parse_formula(format_formula(phi)) == phi

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


class TestParserProperties:
    @settings(max_examples=200, deadline=None)
    @given(rng=st.randoms(use_true_random=False), depth=st.integers(0, 3))
    def test_format_parse_round_trip_up_to_desugaring(self, rng, depth):
        phi = random_formula(rng, ["p0", "p1", "p2"], depth=depth)
        assert desugar(parse_formula(format_formula(phi))) == desugar(phi)

    @settings(max_examples=300, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_mutated_text_raises_only_positioned_syntax_errors(self, rng):
        text = mutate_text(rng, format_formula(random_formula(rng, ["p0", "p1"], depth=2)))
        try:
            parse_formula(text)
        except FormulaSyntaxError as exc:
            assert exc.pos is not None

    @pytest.mark.parametrize(
        "text", ["EF[0,3](M(p0) >= 1²)", "(M(p0)>=1) -->(0,3] (M(p1)>=1)", "EF[0,٣](M(p)>=٣)", "EF[0,3](M(p)>=٣)"]
    )
    def test_pinned_malformed_text(self, text):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text)
        assert exc.value.pos is not None

    @pytest.mark.parametrize(
        "text, pos", [("EF[0,3](M(p٣)>=3)", 11), ("EF[0,3](M(pé)>=3)", 11), ("EF[0,3](M(p)>=3) & M(ĳ)>=1", 21)]
    )
    def test_name_outside_the_net_grammar_fails_at_its_column(self, text, pos):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text)
        assert exc.value.pos == pos


class TestTokens:
    """The documented symbol spellings, and the longest symbol winning."""

    @pytest.mark.parametrize(
        "alias, plain",
        [(r"M(a)>=1 /\ M(b)>=1", "M(a)>=1 & M(b)>=1"), (r"M(a)>=1 \/ M(b)>=1", "M(a)>=1 | M(b)>=1"), ("M(a)==1", "M(a)=1")],
    )
    def test_aliases_read_as_their_plain_symbols(self, alias, plain):
        assert parse_gmec(alias) == parse_gmec(plain)

    def test_longest_symbol_wins(self):
        assert [t[0] for t in _tokenize(r"-->-=>>=<= /\\/==")] == ["-->", "-", "=>", ">=", "<=", "&", "|", "=", "EOF"]
        a, b = Atom((("a", 1), ("b", -1)), ">=", 1), Atom((("b", 1),), "<=", 2)
        assert parse_gmec("M(a)-M(b)>=1=>M(b)<=2") == BoolOp("implies", a, b)
        assert parse_formula("M(a)-M(b)>=1-->[0,2]M(b)<=2") == LeadsTo(a, TimeInterval(0, 2), b)

    def test_a_coefficient_needs_no_star(self):
        assert parse_gmec("3 M(p) >= 1") == parse_gmec("3*M(p) >= 1") == Atom((("p", 3),), ">=", 1)

    @pytest.mark.parametrize("text, pos", [("*M(p)>=1", 0), ("M(q) + *M(p) >= 1", 7)])
    def test_a_star_without_a_coefficient_fails_at_its_column(self, text, pos):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_gmec(text)
        assert exc.value.pos == pos


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
        assert not brute_force_check(net, phi)
        g = build(net)
        assert not check(net, g, phi).holds

    @pytest.mark.parametrize("k", range(1, 7))
    def test_each_until_walks_each_position_once(self, k, monkeypatch):
        # k independent [0,2] transitions interleave in many orders; a walk
        # of every simple path called successors 50,739 times at k = 6, and
        # one that finishes each (state, capped time) pair once calls it at
        # most (H+1) times per state
        net = instantiate(
            make_net([("q", 0)] + [(f"p{i}", 1) for i in range(k)], {f"t{i}": {"pre": {f"p{i}": 1}, "interval": (0, 2)} for i in range(k)}),
            {},
        )
        states, calls = len(build(net)), []
        monkeypatch.setattr(oracle, "successors", lambda n, s: calls.append(s) or successors(n, s))
        for text, holds in [
            ("EF[0,inf](M(q)>=1)", False),
            ("AG[0,inf](M(q)=0)", True),
            ("EF[0,3](M(q)>=1)", False),
            ("EG[0,5](M(q)=0)", True),
            (f"EF[1,4](M(p0)=0 & M(p{k - 1})=0)", True),
            ("AF[0,inf](M(q)>=1)", False),
        ]:
            phi, calls[:] = parse_formula(text), []
            assert brute_force_check(net, phi) == holds
            assert len(calls) <= (phi.interval.horizon + 1) * states, text

    def test_net_a_examples(self, net_a):
        assert brute_force_check(net_a, parse_formula("EF[2,3](M(p2)>=1)"))
        assert not brute_force_check(net_a, parse_formula("EF[0,1](M(p2)>=1)"))

    def test_agreement_on_random_nets_and_formulas(self):
        # both readings of the response operator, on the same cases, plus
        # one extra response formula per net from a separate stream
        rng, extra = random.Random(67), random.Random(71)
        pairs = responses = 0
        for net, g in _graphs_for(rng, 40, max_places=3, max_transitions=3, max_bound=3):
            if len(g) > 220:
                continue
            places = list(net.places)
            phis = [random_formula(rng, places, depth=1, max_bound=3) for _ in range(5)]
            for phi in phis + [random_response(extra, places, max_bound=3)]:
                for leadsto in ("ag", "paper"):
                    read = desugar(phi, leadsto)
                    assert check(net, g, read).holds == brute_force_check(net, read)
                pairs += 1
                responses += "-->" in format_formula(phi)
        assert pairs >= 180
        assert responses >= 40


class TestPlan:
    @settings(max_examples=60, deadline=None)
    @given(rng=st.randoms(use_true_random=False), leadsto=st.sampled_from(["ag", "paper"]))
    def test_one_plan_reused_across_valuations_agrees_with_the_formula(self, rng, leadsto):
        net = random_parametric_net(rng)
        places = list(net.places)
        phi = rng.choice([random_formula(rng, places, depth=2, max_bound=4), random_response(rng, places, 4)])
        plan = compile_plan(net, desugar(phi, leadsto))
        box = {p: (0, 4) for p in net.parameters}
        vals = list(enumerate_valuations(implicit_domain(net), box, order=net.parameters))
        for v in rng.sample(vals, min(4, len(vals))):
            c = instantiate(net, v)
            try:
                g = build(c, ExploreLimits(k_bound=3, max_states=2000))
            except KBoundError:
                continue
            if not g.complete:
                continue
            assert check(c, g, plan) == check(c, g, desugar(phi, leadsto))
        assert pickle.loads(pickle.dumps(plan)) == plan

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_a_warm_table_checks_as_a_cold_one(self, seed):
        # instances share their net's table and its cached constraint values;
        # an unpickled copy of the net made before any table starts cold. In
        # a race net, a later valuation may reach markings no earlier one did
        rng = random.Random(seed)
        net = (random_race_net if rng.random() < 2 / 3 else random_parametric_net)(rng)
        blob = pickle.dumps(net)
        places = list(net.places)
        plans = [compile_plan(net, random_formula(rng, places, depth=2, max_bound=4)) for _ in range(3)]
        box = {p: (0, 4) for p in net.parameters}
        vals = list(enumerate_valuations(implicit_domain(net), box, order=net.parameters))
        for v in rng.sample(vals, min(8, len(vals))):
            warm = instantiate(net, v)
            try:
                g = build(warm, ExploreLimits(k_bound=3, max_states=2000))
            except KBoundError:
                continue
            if not g.complete:
                continue
            copy = pickle.loads(blob)
            assert "steps" not in vars(copy)
            cold = instantiate(copy, v)
            cold_g = build(cold, ExploreLimits(k_bound=3, max_states=2000))
            for plan in plans:  # every node's labels, and then the verdict and witness
                assert _Checker(g).label(plan) == _Checker(cold_g).label(plan)
                assert check(warm, g, plan) == check(cold, cold_g, plan)

    def test_equal_subformulas_share_one_entry(self, net_a):
        plan = compile_plan(net_a, parse_formula("EF[0,2](M(p2)>=1) | (M(p1)>=1 & EF[0,2](M(p2)>=1))"))
        assert sum(op[0] is EU for op in plan.ops) == 1
        props = [op for op in plan.ops if op[0] is Prop]
        assert len(props) == 3  # M(p2)>=1, M(p1)>=1 and the EF's true

    def test_double_negations_fold_below_the_root_operands(self, net_a):
        ef, g = parse_formula("EF[0,2](M(p2)>=1)"), build(net_a)
        assert check(net_a, g, ef).holds
        plan = compile_plan(net_a, Not(Not(Not(Not(ef)))))
        assert [op[0] for op in plan.ops] == [Prop, Prop, EU, Not, Not]  # the root and its operand stay
        assert check(net_a, g, plan) == Verdict(True, None)
        plan = compile_plan(net_a, Not(Not(Not(ef))))  # as Not(EU), it would have a counterexample
        assert [op[0] for op in plan.ops] == [Prop, Prop, EU, Not, Not, Not]
        assert check(net_a, g, plan) == Verdict(False, None)
        plan = compile_plan(net_a, Not(Implies(Not(Not(ef)), Not(ef))))
        assert [op[0] for op in plan.ops] == [Prop, Prop, EU, Not, Implies, Not]

    def test_query_plan_sizes(self):
        models = os.path.join(os.path.dirname(__file__), os.pardir, "models")
        net = parse_net_file(os.path.join(models, "circadian.tpnet"))
        plans = {
            name: compile_plan(net, parse_formula_file(os.path.join(models, "queries", f"{name}.tctl"))).ops
            for name in ("phi_i", "phi_a", "phi_b", "phi_c")
        }
        assert {name: len(ops) for name, ops in plans.items()} == {"phi_i": 35, "phi_a": 14, "phi_b": 14, "phi_c": 9}
        root = plans["phi_c"][-1]  # Not(Not EU) keeps its shape at the root, so it has no witness
        assert root[0] is Not and plans["phi_c"][root[1]][0] is Not

    def test_plan_checks_any_net_naming_its_places(self, net_a):
        phis = [parse_formula(f"EF{iv}(M(p2)>=1 & M(p1)=0)") for iv in ("[2,3]", "[0,1]")]
        swapped = instantiate(
            make_net([("p2", 0), ("p1", 1)], {"t1": {"pre": {"p1": 1}, "post": {"p2": 1}, "interval": (2, 3)}}),
            {},
        )
        for c in (net_a, swapped):
            g = build(c)
            assert [check(c, g, compile_plan(net_a, phi)).holds for phi in phis] == [True, False]
            assert [check(c, g, phi).holds for phi in phis] == [True, False]
        no_p2 = instantiate(make_net([("p1", 1)], {"t1": {"pre": {"p1": 1}, "interval": (2, 3)}}), {})
        with pytest.raises(InputError, match="p2"):
            check(no_p2, build(no_p2), compile_plan(net_a, phis[0]))

    def test_unknown_place_is_an_input_error(self, net_a):
        with pytest.raises(InputError):
            compile_plan(net_a, parse_formula("EF[0,3](M(p9)>=1)"))


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
            assert brute_force_check(net, phi)
        assert sys.getrecursionlimit() == limit

    def test_horizon_guard_follows_open_endpoint(self):
        # p2 is marked from time 5 on; [0,5) contains at most 4, so its
        # saturation class is 5 and capping time there must not reach it
        net = instantiate(
            make_net([("p1", 1), ("p2", 0)], {"t": {"pre": {"p1": 1}, "post": {"p2": 1}, "interval": (5, 5)}}),
            {},
        )
        assert not brute_force_check(net, parse_formula("EF[0,5)(M(p2)>=1)"))
        assert brute_force_check(net, parse_formula("EF[0,5](M(p2)>=1)"))
        assert brute_force_check(net, parse_formula("AG[0,5)(M(p2)=0)"))


F, D = Fire("t"), Delay()
ZERO_TO = [TimeInterval(0, 0), TimeInterval(0, 3), TimeInterval(0, 3, True, False), TimeInterval(0, INF)]


def _until(ch, exists, phi, iv, psi) -> frozenset:
    """``ch.until`` on sets of unit-step states: phi and psi become node
    sets of the checker's graph, and the node set it returns becomes the
    set of unit-step states. A step graph has one unit-step state per node
    and no run; a net graph's node set is its canonical folded form."""
    g = ch.g
    if g.net is None:
        flags = [(bytes(v in s for v in range(ch.n)), {}) for s in (phi, psi)]
        out, runs = ch.until(exists, flags[0], iv, flags[1])
        assert type(out) is bytes and len(out) == ch.n and set(out) <= {0, 1} and runs == {}
        return frozenset(v for v, f in enumerate(out) if f)
    out = ch.until(exists, node_set(g, phi), iv, node_set(g, psi))
    units = unit_set(g, out)
    assert out == node_set(g, units)
    return units


def _until_all(ch, exists, phi, psi):
    """The labelled result for every interval in ZERO_TO."""
    return [_until(ch, exists, phi, iv, psi) for iv in ZERO_TO]


def _intervals(rng):
    """Closed-0 intervals, then intervals with a positive lower bound: open
    and closed ends, [a,a] and [a,inf)."""
    a = rng.randint(1, 5)
    b = rng.randint(a, 7)
    zero = [TimeInterval(0, b), TimeInterval(0, b, True, False), TimeInterval(0, 0), TimeInterval(0, INF)]
    positive = [
        TimeInterval(a, b),
        TimeInterval(a, b, False, True),
        TimeInterval(a, b, True, False),
        TimeInterval(a, b, False, False),
        TimeInterval(a, a),
        TimeInterval(a, INF),
        TimeInterval(a, INF, False, False),
        TimeInterval(0, b, False, True),
        TimeInterval(b, b),
        TimeInterval(b, INF),
    ]
    return zero + positive


class TestLabelledUntil:
    def test_agrees_with_product_on_random_graphs(self):
        rng = random.Random(71)
        shifted = 0
        for _ in range(260):
            g = random_step_graph(rng)
            ch = _Checker(g)
            nodes = range(len(g))
            for _ in range(4):
                phi = frozenset(v for v in nodes if rng.random() < 0.7)
                psi = frozenset(v for v in nodes if rng.random() < 0.25)
                for iv in _intervals(rng):
                    for exists in (True, False):
                        assert _until(ch, exists, phi, iv, psi) == product_until(g, exists, phi, iv, psi)
                        shifted += iv.int_low() > 0
        assert shifted >= 20_000

    def test_agrees_with_product_on_net_graphs(self):
        # on the folded graph, against the product over the unit-step graph
        # it stands for; at bound 15 most graphs have runs
        rng = random.Random(73)
        for net, g in [*_graphs_for(rng, 15, max_places=3, max_transitions=3, max_bound=4),
                       *_graphs_for(rng, 15, max_places=3, max_transitions=3, max_bound=15)]:
            ch, unit = _Checker(g), unit_graph(g)
            for _ in range(6):
                phi = frozenset(v for v in range(len(g)) if rng.random() < 0.8)
                psi = frozenset(v for v in range(len(g)) if rng.random() < 0.15)
                for iv in rng.sample(_intervals(rng), 4):
                    for exists in (True, False):
                        assert _until(ch, exists, phi, iv, psi) == product_until(unit, exists, phi, iv, psi)

    def test_au_fails_on_zero_time_cycle_avoiding_psi(self):
        # 0 and 1 fire back and forth forever; only a delay from 0 reaches 2
        ch = _Checker(step_graph([[(F, 1), (D, 2)], [(F, 0)], [(D, 2)]]))
        phi, psi = frozenset({0, 1}), frozenset({2})
        assert _until_all(ch, False, phi, psi) == [frozenset({2})] * 4
        assert _until_all(ch, True, phi, psi) == [frozenset({2})] + [frozenset({0, 1, 2})] * 3

    def test_au_fails_on_delay_cycle_avoiding_psi(self):
        ch = _Checker(step_graph([[(D, 1), (F, 2)], [(D, 0)], [(D, 2)]]))
        phi, psi = frozenset({0, 1}), frozenset({2})
        assert _until_all(ch, False, phi, psi) == [frozenset({2})] * 4

    def test_au_fails_at_dead_end(self):
        # 1 has no successors; 0 may delay into it or fire into psi-node 2
        g = step_graph([[(D, 1), (F, 2)], [], [(D, 2)]])
        ch = _Checker(g)
        phi, psi = frozenset({0, 1}), frozenset({2})
        assert _until_all(ch, False, phi, psi) == [frozenset({2})] * 4
        assert product_until(g, False, phi, TimeInterval(0, INF), psi) == frozenset({2})

    def test_eu_crosses_fire_edges_after_a_delay(self):
        # from 3, one delay reaches psi-node 4 in one hop, three fires reach
        # it at time 0; 0 delays into 3 first, so its earliest arrival is 1
        succ = [[(D, 3)], [(F, 4)], [(F, 1)], [(F, 2), (D, 4)], [(D, 4)]]
        g = step_graph(succ)
        ch = _Checker(g)
        phi, psi = frozenset(range(4)), frozenset({4})
        assert _until(ch, True, phi, TimeInterval(0, 0), psi) == frozenset({1, 2, 3, 4})
        assert _until(ch, True, phi, TimeInterval(0, 1), psi) == frozenset(range(5))
        assert product_until(g, True, phi, TimeInterval(0, 0), psi) == frozenset({1, 2, 3, 4})

    def test_eu_needs_psi_inside_a_positive_lower_bound(self):
        # a delay chain 0 -> 1 -> 2 -> 3, where 3 keeps delaying
        ch = _Checker(step_graph([[(D, 1)], [(D, 2)], [(D, 3)], [(D, 3)]]))
        every = frozenset(range(4))
        early = frozenset({0, 1})  # psi at times 0 and 1 only
        assert 0 not in _until(ch, True, every, TimeInterval(2, 2), early)
        assert 0 in _until(ch, True, every, TimeInterval(1, 1), early)
        late = frozenset({3})  # psi from time 3 on
        assert 0 not in _until(ch, True, every, TimeInterval(2, 2), late)
        assert 0 in _until(ch, True, every, TimeInterval(3, 3), late)
        # psi at time 2, but the node that delays into it at time 1 is not phi
        assert 0 in _until(ch, True, every, TimeInterval(2, 2), frozenset({2}))
        assert 0 not in _until(ch, True, frozenset({0, 2, 3}), TimeInterval(2, 2), frozenset({2}))

    def test_au_fails_on_zero_time_cycle_before_the_lower_bound(self):
        # at time 1, node 1 may fire to 2 and back forever; its delay reaches
        # psi-node 3 at time 2
        succ = [[(D, 1)], [(F, 2), (D, 3)], [(F, 1)], [(D, 3)]]
        ch = _Checker(step_graph(succ))
        phi, psi = frozenset(range(3)), frozenset({3})
        assert 0 not in _until(ch, False, phi, TimeInterval(2, 3), psi)
        assert 0 in _until(ch, True, phi, TimeInterval(2, 3), psi)
        acyclic = _Checker(step_graph([[(D, 1)], [(F, 2), (D, 3)], [(D, 3)], [(D, 3)]]))
        assert 0 in _until(acyclic, False, phi, TimeInterval(2, 3), psi)

    def test_au_fails_at_dead_end_before_the_lower_bound(self):
        # 0 may fire into dead end 1 at time 0 or delay into 2
        ch = _Checker(step_graph([[(F, 1), (D, 2)], [], [(D, 2)]]))
        phi, psi = frozenset(range(3)), frozenset({1, 2})
        assert 0 not in _until(ch, False, phi, TimeInterval(1, INF), psi)
        assert 0 in _until(ch, True, phi, TimeInterval(1, INF), psi)
        assert 0 in _until(ch, False, phi, TimeInterval(0, INF), psi)


def test_check_leaves_no_predecessor_state_on_the_graph(net_a):
    # the checker derives its predecessor lists and drops them with itself
    g = build(net_a)
    assert check(net_a, g, parse_formula("EF[2,3](M(p2)>=1)")).witness
    assert check(net_a, g, parse_formula("AG[0,inf](M(p1)+M(p2)=1)")).holds
    assert set(vars(g)) == {"net", "keys", "mids", "succ", "complete", "inner"}


class TestLazyCheck:
    @settings(max_examples=80, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_verdict_equals_the_full_labelling_and_the_oracle(self, rng):
        # check, and decide, its verdict alone, settle Not/Implies at the
        # initial node and label only what that asks for; label labels every
        # entry on every node
        net = (random_race_net if rng.random() < 0.5 else random_parametric_net)(rng)
        box = {p: (0, 4) for p in net.parameters}
        vals = list(enumerate_valuations(implicit_domain(net), box, order=net.parameters))
        if not vals:
            return
        c = instantiate(net, rng.choice(vals))
        try:
            g = build(c, ExploreLimits(k_bound=3, max_states=100))
        except KBoundError:
            return
        if not g.complete:
            return
        for _ in range(3):
            phi = random_formula(rng, list(net.places), depth=2, max_bound=4)
            plan = compile_plan(net, phi)
            ch = _Checker(g)
            full = ch.label(plan)
            root, op = len(plan.ops) - 1, plan.ops[-1]
            eu = root if op[0] is EU else op[1] if op[0] is Not and plan.ops[op[1]][0] is EU else None
            v = check(c, g, plan)
            assert v.holds == decide(g, plan) == bool(full[root][0][g.initial]) == brute_force_check(c, phi)
            shown = eu is not None and full[eu][0][g.initial]  # check shows a witness of a holding until alone
            assert v.witness == (ch.witness_eu(plan, dict(enumerate(full)), eu) if shown else None)

    def test_a_failing_conjunct_labels_no_until_of_the_next(self, net_a, monkeypatch):
        labelled = []
        until = _Checker.until
        monkeypatch.setattr(_Checker, "until", lambda self, *args: labelled.append(args[2]) or until(self, *args))
        g = build(net_a)
        fails, holds = "EF[0,1](M(p2)>=1)", "AF[0,5](M(p2)>=1)"
        assert not check(net_a, g, parse_formula(f"{fails} & {holds}")).holds
        assert labelled == [TimeInterval(0, 1)]
        labelled.clear()
        assert not check(net_a, g, parse_formula(f"{holds} & {fails}")).holds
        assert labelled == [TimeInterval(0, 5), TimeInterval(0, 1)]

    def test_a_prop_only_check_builds_no_predecessor_lists(self, net_a, monkeypatch):
        made = []
        preds = _Checker.preds.func
        monkeypatch.setattr(_Checker, "preds", property(lambda self: made.append(self) or preds(self)))
        g = build(net_a)
        assert check(net_a, g, parse_formula("M(p1)=1 & !(M(p2)>=1 | M(p1)=0)")).holds
        assert made == []
        assert check(net_a, g, parse_formula("M(p1)=1 & EF[2,3](M(p2)>=1)")).holds
        assert made


UNBOUNDED = TimeInterval(0, INF)


def _scan_root(rng, net, depth=1):
    """A root the checker decides at the initial node: EF[0,inf), AG[0,inf)
    and responses, the untils the root scan must leave to the labelling
    (other intervals, a left operand other than true, an EF[0,inf) nested
    in an AF), under Not and Implies. Half the left operands other than
    true fail at the initial marking."""
    places = list(net.places)
    if depth and rng.random() < 0.5:
        if rng.random() < 0.4:
            return Not(_scan_root(rng, net, depth - 1))
        return Implies(_scan_root(rng, net, depth - 1), _scan_root(rng, net, depth - 1))
    sub = random_formula(rng, places, depth=rng.choice([0, 1]), max_bound=4)
    roll = rng.randrange(6)
    if roll == 0:
        return EF(UNBOUNDED, sub)
    if roll == 1:
        return AG(UNBOUNDED, sub)
    if roll == 2:
        return random_response(rng, places, max_bound=4)
    if roll == 3:
        k = rng.randrange(len(places))
        moved = Prop(Atom(((places[k], 1),), rng.choice(["<", ">"]), net.initial[k]))  # false at first
        return EU(rng.choice([moved, random_formula(rng, places, depth=0)]), UNBOUNDED, sub)
    if roll == 4:
        return EF(rng.choice([TimeInterval(0, rng.randint(0, 4)), TimeInterval(1, INF), TimeInterval(0, INF, False)]), sub)
    return AF(TimeInterval(0, rng.randint(0, 4)), EF(UNBOUNDED, random_formula(rng, places, depth=0)))


# a 5-unit run from the initial node, then a zero-time burst through C:
# EF[2,2] M(C)>=1 holds only at offset 3 of that run
BURST = make_net(
    [("A", 1), ("B", 0), ("C", 0), ("D", 0)],
    {
        "t1": {"pre": {"A": 1}, "post": {"B": 1}, "interval": (5, 5)},
        "t2": {"pre": {"B": 1}, "post": {"C": 1}, "interval": (0, 0)},
        "t3": {"pre": {"C": 1}, "post": {"D": 1}, "interval": (0, 0)},
    },
)
# fires at once, so p1 is marked at time 0 alone
AT_ONCE = make_net([("p1", 1), ("p2", 0)], {"t": {"pre": {"p1": 1}, "post": {"p2": 1}, "interval": (0, 0)}})
NET_A = make_net([("p1", 1), ("p2", 0)], {"t1": {"pre": {"p1": 1}, "post": {"p2": 1}, "interval": (2, 3)}})


class TestRootScan:
    """``at_initial`` decides an ``E true U[0,inf) psi`` by one scan of
    psi's node set, as every node and run offset of a build graph is
    reachable; every other until, and any until below a temporal
    operator, is labelled."""

    @pytest.mark.parametrize("text, holds, untils", [
        ("EF[0,inf](M(p2)>=1)", True, 0),
        ("AG[0,inf](M(p1)+M(p2)=1)", True, 0),
        ("AG[0,inf](M(p1)=1)", False, 0),
        ("M(p1)=1 -->[0,3] M(p2)=1", True, 1),
        ("AF[0,3](EF[0,inf](M(p2)>=1))", True, 2),
        ("EF[0,inf](M(p2)>=1) & AF[0,3](EF[0,inf](M(p2)>=1))", True, 2),  # one shared entry, scanned and labelled
        ("EF[0,1](M(p2)>=1)", False, 1),
    ])
    def test_untils_labelled_per_root(self, net_a, monkeypatch, text, holds, untils):
        labelled = []
        until = _Checker.until
        monkeypatch.setattr(_Checker, "until", lambda self, *args: labelled.append(args[2]) or until(self, *args))
        v = check(net_a, build(net_a), parse_formula(text))
        assert (v.holds, len(labelled)) == (holds, untils)
        assert v.holds == brute_force_check(net_a, parse_formula(text))

    @pytest.mark.parametrize("net, phi, holds", [
        pytest.param(NET_A, EF(TimeInterval(0, 1), Prop(parse_gmec("M(p2)>=1"))), False, id="ef-0-1-psi-later"),
        pytest.param(NET_A, AG(TimeInterval(0, 1), Prop(parse_gmec("M(p1)=1"))), True, id="ag-0-1"),
        pytest.param(AT_ONCE, EF(TimeInterval(1, INF), Prop(parse_gmec("M(p1)>=1"))), False, id="ef-1-inf-psi-at-0"),
        pytest.param(AT_ONCE, EF(TimeInterval(0, INF, False), Prop(parse_gmec("M(p1)>=1"))), False, id="ef-open-0"),
        pytest.param(AT_ONCE, AG(TimeInterval(1, INF), Prop(parse_gmec("M(p2)>=1"))), True, id="ag-1-inf"),
        pytest.param(NET_A, EU(Prop(parse_gmec("M(p2)>=1")), UNBOUNDED, Prop(parse_gmec("M(p2)>=1"))), False,
                     id="eu-phi-fails-first"),
        pytest.param(NET_A, Not(EU(Prop(parse_gmec("M(p1)=0")), UNBOUNDED, Prop(parse_gmec("M(p2)>=1")))), True,
                     id="not-eu-phi-fails-first"),
        pytest.param(BURST, parse_formula("EF[0,inf](EF[2,2](M(C)>=1))"), True, id="ef-psi-inside-a-run"),
        pytest.param(BURST, parse_formula("AG[0,inf](!EF[2,2](M(C)>=1))"), False, id="ag-psi-inside-a-run"),
    ])
    def test_scan_takes_only_closed_0_unbounded_untils_of_true(self, net, phi, holds):
        c = instantiate(net, {})
        g, plan = build(c), compile_plan(c, phi)
        assert decide(g, plan) == check(c, g, plan).holds == brute_force_check(c, phi) == holds
        assert bool(_Checker(g).label(plan)[-1][0][g.initial]) == holds

    def test_psi_only_strictly_inside_a_run(self):
        # psi's node set flags no node, so only its run entry shows it holds
        c = instantiate(BURST, {})
        g, plan = build(c), compile_plan(c, parse_formula("EF[0,inf](EF[2,2](M(C)>=1))"))
        (w, j), = [(-t, j) for t, j in g.succ[0]]
        psi = _Checker(g).label(plan)[plan.ops[-1][3]]
        assert (w, j) == (5, 1) and psi == (bytes(len(g.keys)), {0: (3, 4)})
        v = check(c, g, plan)
        assert v.holds and v.witness == [Delay(1)] * 3

    # derandomized: the oracle walks every simple path, so a rare draw of
    # nested untils on a cyclic graph could take minutes
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(rng=st.randoms(use_true_random=False))
    def test_decide_agrees_with_the_full_labelling_and_the_oracle(self, rng):
        net = rng.choice([random_race_net, random_parametric_net, random_gated_net])(rng)
        box = {p: (0, 4) for p in net.parameters}
        vals = list(enumerate_valuations(implicit_domain(net), box, order=net.parameters))
        if not vals:
            return
        c = instantiate(net, rng.choice(vals))
        try:
            g = build(c, ExploreLimits(k_bound=3, max_states=100))
        except KBoundError:
            return
        if not g.complete:
            return
        for _ in range(5):
            phi = _scan_root(rng, net)
            plan = compile_plan(c, phi)
            assert decide(g, plan) == bool(_Checker(g).label(plan)[-1][0][g.initial]) == brute_force_check(c, phi)


class TestLeadsToModes:
    def test_paper_reading_differs_from_default(self, net_a):
        # antecedent holds initially, consequent is unreachable: the
        # invariant reading fails, while the eventually reading succeeds
        # because every run reaches the fired marking where the antecedent
        # is gone
        g = build(net_a)
        phi = parse_formula("(M(p1)>=1) -->[0,0] (M(p2)>=9)")
        assert not check(net_a, g, desugar(phi, "ag")).holds
        assert check(net_a, g, desugar(phi, "paper")).holds

    def test_modes_agree_when_antecedent_is_permanent(self, net_a):
        g = build(net_a)
        phi = parse_formula("(M(p1)+M(p2)>=1) -->[0,3] (M(p2)>=1)")
        assert check(net_a, g, desugar(phi, "ag")).holds == check(net_a, g, desugar(phi, "paper")).holds

    @pytest.mark.parametrize("reading", ["Paper", "AG", "bogus", ""])
    def test_unknown_reading_is_an_input_error(self, reading):
        with pytest.raises(InputError, match="unknown response reading"):
            desugar(parse_formula("(M(p1)>=1) -->[0,0] (M(p2)>=9)"), reading)


class TestHorizonGuards:
    def test_lower_bound_above_horizon_limit(self, net_a):
        # MAX_DELAY_LAYERS bounds the number of delay layers, the lower bound;
        # compile_plan decides it without a graph, for EU and AU, nested or
        # open at the bottom
        from tpnsynth import HorizonError

        g = build(net_a)
        with pytest.raises(HorizonError):
            check(net_a, g, parse_formula("EF[100001,100002](M(p2)>=1)"))
        for text in (
            "EF[100001,100002](M(p2)>=1)",
            "AF[100001,inf](M(p2)>=1)",
            "AG[0,inf](EF(100000,100001](M(p2)>=1))",
        ):
            with pytest.raises(HorizonError):
                compile_plan(net_a, parse_formula(text))
        compile_plan(net_a, parse_formula("EF[100000,100001](M(p2)>=1)"))

    def test_positive_lower_bound_within_horizon_limit(self, net_a):
        g = build(net_a)
        v = check(net_a, g, parse_formula("EF[1,50000](M(p2)>=1)"))
        assert v.holds
        assert replay(net_a, v.witness)[-1].marking == (0, 1)

    def test_labelled_until_ignores_horizon_limit(self, net_a):
        g = build(net_a)
        v = check(net_a, g, parse_formula("EF[0,50000](M(p2)>=1)"))
        assert v.holds
        assert replay(net_a, v.witness)[-1].marking == (0, 1)

    def test_states_satisfying_rejects_unknown_place(self, net_a):
        from tpnsynth import states_satisfying
        from tpnsynth.tctl import parse_gmec as pg

        g = build(net_a)
        with pytest.raises(InputError):
            states_satisfying(g, pg("M(nope) >= 1"))


class TestPropCache:
    def test_unknown_place_fails_on_a_graph_without_nodes(self):
        # the initial marking exceeds the k-bound: the partial graph has no
        # node, and the constraint is still compiled on its first sight
        from tpnsynth import states_satisfying

        net = instantiate(make_net([("p", 3)], {"t": {"pre": {"p": 1}, "interval": (1, 1)}}), {})
        with pytest.raises(KBoundError) as exc:
            build(net, ExploreLimits(k_bound=2))
        partial = exc.value.partial
        assert len(partial) == 0
        assert states_satisfying(partial, parse_gmec("M(p) >= 1")) == set()
        for _ in range(2):  # a failed compile leaves nothing cached
            with pytest.raises(InputError, match="nope"):
                states_satisfying(partial, parse_gmec("M(nope) >= 1"))

    def test_a_check_caches_only_its_graph_own_markings(self):
        # with x = 1 the token must go to q by time 1; with x = 5 it may go
        # to q or, at time 3, to r, a marking the x = 1 graph never reaches
        net = make_net(
            [("p", 1), ("q", 0), ("r", 0)],
            {
                "fast": {"pre": {"p": 1}, "post": {"q": 1}, "interval": (0, "x")},
                "slow": {"pre": {"p": 1}, "post": {"r": 1}, "interval": (3, 3)},
            },
            parameters=["x"],
        )
        tab, r = net.steps, parse_gmec("M(r) >= 1")
        narrow, wide = instantiate(net, {"x": 1}), instantiate(net, {"x": 5})
        g = build(narrow)
        own = set(g.mids)
        assert not check(narrow, g, parse_formula("EF[0,inf](M(r)>=1)")).holds
        assert set(tab.props[r]) == own and len(own) == 2
        # the wide graph brings one more marking, evaluated on top of the cache
        assert check(wide, build(wide), parse_formula("EF[0,inf](M(r)>=1)")).holds
        assert set(tab.props[r]) == set(range(3)) == set(tab.props[TRUE_GMEC])
        # a new constraint on the narrow graph reads only its own two ids
        assert check(narrow, g, parse_formula("EF[0,1](M(q)>=1)")).holds
        assert set(tab.props[parse_gmec("M(q) >= 1")]) == own


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
            assert not brute_force_check(net, phi)
        tautology_now = parse_formula("AF[0,0](M(p)>=1)")
        assert check(net, g, tautology_now).holds
        assert brute_force_check(net, tautology_now)


class TestLeadsToCounterexample:
    def test_failing_response_yields_replayable_trace(self, net_a):
        g = build(net_a)
        v = check(net_a, g, parse_formula("(M(p1)>=1) -->[0,1] (M(p2)>=1)"))
        assert not v.holds and v.witness is not None
        # the trace ends in a state that violates the response: p1 marked
        # but no run can deliver p2 within 1 time unit from there
        states = replay(net_a, v.witness)
        assert states[-1].marking[0] == 1
