import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpnsynth import (
    ConcreteNet,
    DomainError,
    ExploreLimits,
    IllFormedIntervalError,
    InputError,
    LinearConstraint,
    ParamDomain,
    ParamInterval,
    PreconditionError,
    TimeInterval,
    TpnError,
    build,
    domain_contains,
    enabled_set,
    enumerate_valuations,
    eval_constraint,
    instantiate,
    make_net,
    newly_enabled_set,
    validate_net,
)
from tpnsynth.petri import INF, RELATIONS, Net, StepTable, fire_marking, implicit_domain, net_spec
from tpnsynth.semantics import layout

from _gen import outcome, random_concrete_net, random_gated_net, random_parametric_net, reference_build


def lc(coeffs, rel, bound):
    return LinearConstraint.make(coeffs, rel, bound)


class TestConstraints:
    def test_single_parameter_lower_bound(self):
        c = lc({"tg": 1}, ">=", 1)
        assert eval_constraint(c, {"tg": 1})
        assert not eval_constraint(c, {"tg": 0})

    def test_day_length_equality(self):
        c = lc({"ton": 1, "toff": 1}, "=", 24)
        assert eval_constraint(c, {"ton": 7, "toff": 17})
        assert not eval_constraint(c, {"ton": 7, "toff": 16})

    def test_zero_coefficients_always_hold(self):
        c = lc({"x": 0}, "<=", 0)
        for k in range(5):
            assert eval_constraint(c, {"x": k})

    def test_missing_parameter_is_an_input_error(self):
        with pytest.raises(InputError):
            eval_constraint(lc({"x": 1}, ">=", 0), {})

    def test_unknown_relation_is_an_input_error(self):
        with pytest.raises(InputError, match="unknown relation '!='"):
            lc({"a": 1}, "!=", 0)

    def test_rational_coefficients(self):
        c = lc({"x": "1/2"}, "<=", "3/2")
        assert eval_constraint(c, {"x": 3})
        assert not eval_constraint(c, {"x": 4})


    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.dictionaries(
            st.sampled_from("abc"), st.fractions(-6, 6, max_denominator=12), min_size=1
        ),
        rel=st.sampled_from(sorted(RELATIONS)),
        v=st.fixed_dictionaries({p: st.integers(0, 30) for p in "abc"}),
        bound=st.one_of(st.none(), st.fractions(-60, 60, max_denominator=12)),
    )
    def test_integer_evaluation_matches_fractions(self, coeffs, rel, v, bound):
        total = sum(Fraction(c) * v[p] for p, c in coeffs.items())
        if bound is None:  # land on the boundary, where = and <= are decided
            bound = total
        c = lc(coeffs, rel, bound)
        assert c.evaluate(v) == RELATIONS[rel](total, Fraction(bound))


class TestDomain:
    def test_implicit_domain_is_where_instances_exist(self):
        net = make_net(
            [("p", 1)],
            {
                "t1": {"pre": {"p": 1}, "interval": ("a", "b")},
                "t2": {"pre": {"p": 1}, "interval": ("a", 5)},
                "t3": {"pre": {"p": 1}, "interval": (3, "b")},
                "t4": {"pre": {"p": 1}, "interval": ("a", "a")},
                "t5": {"pre": {"p": 1}, "interval": ("b", None)},
            },
            parameters=["a", "b"],
            constraints=[lc({"a": 1, "b": 1}, "<=", 12)],
        )
        d = implicit_domain(net)
        for a in range(9):
            for b in range(9):
                v = {"a": a, "b": b}
                try:
                    instantiate(net, v)
                    ok = True
                except (DomainError, IllFormedIntervalError):
                    ok = False
                assert d.contains(v) == ok

    def test_empty_domain_contains_everything(self):
        assert domain_contains(ParamDomain(), {"x": 5})

    def test_gene_delay_domain_excludes_zero(self):
        d = ParamDomain((lc({"tg": 1}, ">=", 1),))
        assert not domain_contains(d, {"tg": 0})
        assert domain_contains(d, {"tg": 3})

    def test_contradictory_domain_is_empty(self):
        d = ParamDomain((lc({"x": 1}, ">=", 2), lc({"x": 1}, "<=", 1)))
        assert all(not domain_contains(d, {"x": k}) for k in range(11))

    def test_dropping_a_constraint_never_shrinks_the_set(self):
        rng = random.Random(7)
        for _ in range(50):
            cs = tuple(
                lc({"a": rng.randint(-2, 2), "b": rng.randint(-2, 2)}, rng.choice(["<", "<=", "=", ">=", ">"]), rng.randint(-5, 5))
                for _ in range(rng.randint(1, 3))
            )
            full = ParamDomain(cs)
            dropped = ParamDomain(cs[1:])
            for a in range(11):
                for b in range(11):
                    v = {"a": a, "b": b}
                    if domain_contains(full, v):
                        assert domain_contains(dropped, v)


class TestIntervals:
    def test_unbounded_interval_is_right_open(self):
        iv = TimeInterval(2, float("inf"))
        assert not iv.right_closed
        assert iv.contains(2) and iv.contains(10**6)

    def test_low_above_high_rejected(self):
        with pytest.raises(IllFormedIntervalError):
            TimeInterval(3, 2)

    @pytest.mark.parametrize(
        "low, high, message",
        [(-1, 3, "low bound"), (True, 3, "low bound"), (0, -1, "high bound"), (0, 2.5, "high bound"), (0, True, "high bound")],
    )
    def test_a_bound_that_is_no_natural_is_refused(self, low, high, message):
        with pytest.raises(InputError, match=f"^interval {message} must be a natural number"):
            TimeInterval(low, high)

    def test_open_endpoints_shrink_integer_range(self):
        iv = TimeInterval(1, 4, left_closed=False, right_closed=False)
        assert iv.int_low() == 2 and iv.int_high() == 3

    def test_param_interval_instantiation(self):
        j = ParamInterval("td", "td")
        assert j.evaluate({"td": 6}) == TimeInterval(6, 6)

    def test_param_interval_low_over_high(self):
        j = ParamInterval(2, "t")
        with pytest.raises(IllFormedIntervalError):
            j.evaluate({"t": 1})


class TestInstantiate:
    def test_structure_preserved(self):
        net = make_net(
            [("p1", 1), ("p2", 0)],
            {"t": {"pre": {"p1": 1}, "post": {"p2": 1}, "interval": ("td", "td")}},
            parameters=["td"],
        )
        c = instantiate(net, {"td": 6})
        assert c.places == net.places
        assert c.transitions == net.transitions
        assert c.pre == net.pre and c.post == net.post
        assert c.read == net.read and c.inhibit == net.inhibit
        assert c.initial == net.initial
        assert c.intervals == (TimeInterval(6, 6),)

    def test_no_parameters_keeps_intervals(self):
        net = make_net([("p", 1)], {"t": {"pre": {"p": 1}, "interval": (2, 3)}})
        assert instantiate(net, {}).intervals == (TimeInterval(2, 3),)

    @settings(max_examples=60, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_instance_equals_every_interval_evaluated(self, rng):
        # constant intervals are made once per net and shared by its instances
        net = (random_gated_net if rng.random() < 0.5 else random_parametric_net)(rng)
        box = {p: (0, 4) for p in net.parameters}
        vals = list(enumerate_valuations(implicit_domain(net), box, order=net.parameters))
        if not vals:
            return
        picked = [rng.choice(vals) for _ in range(2)]
        instances = [instantiate(net, v) for v in picked]
        for c, v in zip(instances, picked):
            assert c == ConcreteNet(net.places, net.transitions, (), net.pre, net.post, net.read, net.inhibit,
                                    net.initial, tuple(iv.evaluate(v) for iv in net.intervals))
        for a, b, iv in zip(instances[0].intervals, instances[1].intervals, net.intervals):
            assert (a is b) == (not iv.referenced_params())

    def test_an_instance_is_not_instantiated_again(self):
        c = instantiate(make_net([("p", 1)], {"t": {"pre": {"p": 1}, "interval": (1, 2)}}), {})
        with pytest.raises(InputError, match="instance already"):
            instantiate(c, {})

    def test_valuation_outside_domain_rejected(self):
        net = make_net(
            [("p", 1)],
            {"t": {"pre": {"p": 1}, "interval": ("x", "x")}},
            parameters=["x"],
            constraints=[lc({"x": 1}, ">=", 1)],
        )
        with pytest.raises(DomainError):
            instantiate(net, {"x": 0})


class TestEnabled:
    def test_plain_arc(self, net_a):
        assert enabled_set(net_a, (1, 0)) == {"t1"}

    def test_a_marking_of_another_length_is_an_input_error(self, net_a):
        with pytest.raises(InputError, match="marking length does not match place count"):
            enabled_set(net_a, (1, 0, 0))

    def test_a_marking_naming_an_unknown_place_is_an_input_error(self, net_a):
        assert net_a.marking({"p2": 1}) == (0, 1)
        with pytest.raises(InputError, match="unknown place 'nope'"):
            net_a.marking({"nope": 1})

    def test_inhibitor_blocks(self, net_b):
        assert enabled_set(net_b, (1, 1)) == {"t1"}
        assert enabled_set(net_b, (1, 0)) == {"t1", "t2"}

    def test_inhibitor_exhaustive_small_markings(self, net_b):
        # componentwise definition checked over every marking with <= 2 tokens
        for a in range(3):
            for b in range(3):
                expected = set()
                if a >= 1:
                    expected.add("t1")
                    if b < 1:
                        expected.add("t2")
                assert enabled_set(net_b, (a, b)) == expected

    def test_read_arc_requires_tokens(self):
        net = make_net(
            [("p1", 0), ("p2", 0)],
            {"t3": {"read": {"p2": 1}, "interval": (0, 1)}},
        )
        c = instantiate(net, {})
        assert enabled_set(c, (0, 0)) == set()
        assert enabled_set(c, (0, 1)) == {"t3"}

    def test_matches_independent_predicate_on_random_nets(self):
        # oracle: a literally transcribed componentwise check
        rng = random.Random(11)
        for _ in range(200):
            net = random_concrete_net(rng)
            m = tuple(rng.randint(0, 3) for _ in net.places)
            expected = set()
            for i, t in enumerate(net.transitions):
                ok = all(m[k] >= net.pre[i][k] for k in range(len(m)))
                ok = ok and all(m[k] >= net.read[i][k] for k in range(len(m)))
                ok = ok and all(
                    m[k] < net.inhibit[i][k] for k in range(len(m)) if net.inhibit[i][k] > 0
                )
                if ok:
                    expected.add(t)
            assert enabled_set(net, m) == expected


class TestNewlyEnabled:
    def test_self_loop_is_newly_enabled(self):
        net = make_net(
            [("p1", 1)],
            {"t": {"pre": {"p1": 1}, "post": {"p1": 1}, "interval": (1, 1)}},
        )
        c = instantiate(net, {})
        assert newly_enabled_set(c, (1,), "t") == {"t"}

    def test_consumer_not_newly_enabled_after_firing(self, net_a):
        assert "t1" not in newly_enabled_set(net_a, (1, 0), "t1")

    def test_chain_enables_downstream(self):
        net = make_net(
            [("p1", 1), ("p2", 0)],
            {
                "t1": {"pre": {"p1": 1}, "post": {"p2": 1}, "interval": (0, 1)},
                "t2": {"pre": {"p2": 1}, "interval": (0, 1)},
            },
        )
        c = instantiate(net, {})
        assert newly_enabled_set(c, (1, 0), "t1") == {"t2"}

    def test_fired_must_be_enabled(self, net_a):
        with pytest.raises(PreconditionError):
            newly_enabled_set(net_a, (0, 1), "t1")

    def test_subset_of_enabled_at_successor_marking(self):
        rng = random.Random(23)
        checked = 0
        while checked < 150:
            net = random_concrete_net(rng)
            m = tuple(rng.randint(0, 2) for _ in net.places)
            fireable = sorted(enabled_set(net, m))
            if not fireable:
                continue
            t = rng.choice(fireable)
            m2 = fire_marking(net, m, net.transition_index[t])
            assert newly_enabled_set(net, m, t) <= enabled_set(net, m2)
            checked += 1


class TestValidate:
    def test_well_formed(self, net_a):
        assert validate_net(net_a) == []

    def test_unknown_parameter_in_interval(self):
        net = make_net([("p", 1)], {"t": {"pre": {"p": 1}, "interval": (0, 1)}})
        bad = Net(
            places=net.places,
            transitions=net.transitions,
            parameters=(),
            pre=net.pre,
            post=net.post,
            read=net.read,
            inhibit=net.inhibit,
            initial=net.initial,
            intervals=(ParamInterval("tau_x", "tau_x"),),
            domain=net.domain,
        )
        assert any("unknown parameter" in d for d in validate_net(bad))

    def test_incomplete_weight_vector(self, net_a):
        bad = Net(
            places=net_a.places,
            transitions=net_a.transitions,
            parameters=(),
            pre=((1,),),  # missing the p2 entry
            post=net_a.post,
            read=net_a.read,
            inhibit=net_a.inhibit,
            initial=net_a.initial,
            intervals=(ParamInterval(2, 3),),
        )
        assert any("incomplete" in d for d in validate_net(bad))

    def test_ill_formed_net_fails_in_build_with_its_instance_diagnostics(self, net_a):
        bad = Net(
            places=net_a.places,
            transitions=net_a.transitions,
            parameters=("td", "td"),
            pre=((1,),),  # missing the p2 entry
            post=net_a.post,
            read=net_a.read,
            inhibit=net_a.inhibit,
            initial=net_a.initial,
            intervals=(ParamInterval(2, "td"),),
        )
        c = instantiate(bad, {"td": 3})
        with pytest.raises(InputError) as err:
            build(c)
        assert str(err.value) == "; ".join(validate_net(c)) == "transition 't1': incomplete pre weight vector"

    def test_instance_of_a_net_with_an_undeclared_parameter_is_judged_alone(self):
        net = make_net([("p", 1)], {"t": {"pre": {"p": 1}, "interval": (0, 1)}})
        bad = Net(
            places=net.places,
            transitions=net.transitions,
            parameters=(),
            pre=net.pre,
            post=net.post,
            read=net.read,
            inhibit=net.inhibit,
            initial=net.initial,
            intervals=(ParamInterval("tau_x", "tau_x"),),
        )
        assert validate_net(bad)
        c = instantiate(bad, {"tau_x": 1})
        assert validate_net(c) == [] and len(build(c)) == 3

    def test_transition_with_a_place_name(self, net_a):
        bad = Net(
            places=net_a.places,
            transitions=("p1",),
            parameters=(),
            pre=net_a.pre,
            post=net_a.post,
            read=net_a.read,
            inhibit=net_a.inhibit,
            initial=net_a.initial,
            intervals=(ParamInterval(2, 3),),
        )
        assert validate_net(bad) == ["place and transition names must be disjoint"]
        with pytest.raises(InputError, match="^place and transition names must be disjoint$"):
            make_net([("p", 1)], {"p": {"pre": {"p": 1}, "interval": (0, 1)}})

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"transitions": ("t1", "t1")}, "duplicate transition name"),
            ({"initial": (1,)}, "initial marking length does not match place count"),
            ({"initial": (1, -1)}, "initial marking has a negative or non-integer count"),
            ({"initial": (1, True)}, "initial marking has a negative or non-integer count"),
            ({"post": ((0, 1),)}, "post vector count does not match transition count"),
            ({"read": ((0, -1), (0, 0))}, "transition 't1': negative read weight"),
            ({"pre": ((True, 0), (0, 1))}, "transition 't1': negative pre weight"),
            ({"intervals": (ParamInterval(2, 3),)}, "interval count does not match transition count"),
            ({"intervals": (ParamInterval(5, 2), ParamInterval(1, 4))}, "transition 't1': interval low exceeds high"),
            (
                {"intervals": (TimeInterval(2, 3), ParamInterval(1, 4))},
                "transition 't1': concrete interval in a parametric net",
            ),
            ({"intervals": ((2, 3), ParamInterval(1, 4))}, "transition 't1': bad interval object"),
            (
                {"domain": ParamDomain((lc({"x": 1}, ">=", 1),))},
                "domain constraint references unknown parameter 'x'",
            ),
        ],
        ids=[
            "duplicate-transition", "initial-length", "initial-negative", "initial-bool", "vector-count",
            "negative-weight", "bool-weight",
            "interval-count", "low-over-high", "concrete-interval", "bad-interval-object", "domain-unknown-param",
        ],
    )
    def test_each_diagnostic_of_a_net_built_directly(self, change, message):
        net = make_net(
            [("p1", 1), ("p2", 0)],
            {"t1": {"pre": {"p1": 1}, "post": {"p2": 1}, "interval": (2, 3)}, "t2": {"pre": {"p2": 1}, "interval": (1, 4)}},
        )
        bad = dataclasses.replace(net, **change)
        assert validate_net(bad) == [message]
        with pytest.raises(InputError) as err:
            bad.steps
        assert str(err.value) == message

    def test_make_net_reports_a_duplicate_place_through_validate_net(self):
        with pytest.raises(InputError, match="^duplicate place name$"):
            make_net([("p", 1), ("p", 0)], {"t": {"pre": {"p": 1}, "interval": (0, 1)}})

    def test_make_net_rejects_unknown_place(self):
        with pytest.raises(InputError):
            make_net([("p", 0)], {"t": {"pre": {"nope": 1}, "interval": (0, 1)}})

    @pytest.mark.parametrize("weight", [-1, True, 1.0])
    def test_make_net_rejects_a_weight_that_is_no_natural(self, weight):
        with pytest.raises(InputError, match="^transition 't': post weight for 'p' must be a natural number$"):
            make_net([("p", 0)], {"t": {"post": {"p": weight}, "interval": (0, 1)}})


class TestSharedStepTable:
    def test_instances_share_the_arcs_and_own_the_bounds(self):
        net = make_net(
            [("p1", 1), ("p2", 0)],
            {
                "t1": {"pre": {"p1": 1}, "post": {"p2": 1}, "interval": ("a", "b")},
                "t2": {"pre": {"p2": 1}, "post": {"p1": 1}, "inhibit": {"p1": 2}, "interval": (1, None)},
            },
            parameters=["a", "b"],
        )
        assert not {"low", "high", "instance"} & set(dir(net.steps))
        for v, width in (({"a": 0, "b": 2}, 2), ({"a": 3, "b": 3}, 3)):
            c = instantiate(net, v)
            assert c.steps is net.steps
            # the instance owns each clock's low and high plus one, 0 for an
            # unbounded high; a field is wide enough for the largest cap: the
            # high plus one of a bounded clock, the low plus one of an unbounded one
            lay = layout(c)
            assert (lay.lows, lay.highs) == ((v["a"] + 1, 2), (v["b"] + 1, 0))
            assert lay.width == width
            fresh = StepTable(c)  # the same table built from the instance alone, but for the masks
            assert {**vars(fresh), "masks": None} == {**vars(c.steps), "masks": None}
        assert sorted(net.steps.masks) == [2, 3]

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_instance_table_equals_its_own_table(self, rng):
        net = random_parametric_net(rng)
        v = {p: rng.randint(0, 5) for p in net.parameters}
        try:
            c = instantiate(net, v)
        except TpnError:  # outside the domain, or an interval with low > high
            return
        assert {**vars(c.steps), "masks": None} == {**vars(StepTable(c)), "masks": None}

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda ab: tuple(sorted(ab))),
            min_size=2,
            max_size=2,
            unique=True,
        )
    )
    def test_instances_built_alternately_share_markings_and_masks(self, pairs):
        # the fire of t2 restarts t1, whose bounds differ between the
        # instances: a restarted clock holds 1 whatever its bounds, so the
        # instances of one width share the masks
        net = make_net(
            [("p1", 1), ("p2", 0)],
            {
                "t1": {"pre": {"p1": 1}, "post": {"p2": 1}, "interval": ("a", "b")},
                "t2": {"pre": {"p2": 1}, "post": {"p1": 1}, "interval": (1, 2)},
            },
            parameters=["a", "b"],
        )
        cs = [instantiate(net, {"a": a, "b": b}) for a, b in pairs]
        for c in cs + cs:
            assert outcome(build, c, ExploreLimits()) == outcome(reference_build, c, ExploreLimits())
        tab = net.steps
        assert all(c.steps is tab for c in cs)
        assert tab.markings == [(1, 0), (0, 1)]
        # one (keep, start) pair per (marking, transition) either instance
        # fired, per field width: t1 clears its own field and the marking id
        # and starts t2 at 1 in marking 1; t2 clears its own field and
        # restarts t1 at 1 in marking 0
        widths = {layout(c).width for c in cs}
        assert widths == {max(b + 1, 3).bit_length() for _, b in pairs}
        assert tab.masks == {
            w: {0: ((1 << w) - 1 ^ (1 << 2 * w) - 1, 1 << 2 * w | 1 << w), 3: ((1 << 2 * w) - 1 ^ (1 << w) - 1 << w, 1)}
            for w in widths
        }


@given(st.integers(0, 5), st.integers(0, 5), st.booleans())
@settings(max_examples=60)
def test_interval_contains_agrees_with_enumeration(lo, extra, closed_right):
    hi = lo + extra
    iv = TimeInterval(lo, hi, True, closed_right)
    for x in range(0, hi + 2):
        expected = lo <= x <= (hi if closed_right else hi - 1)
        assert iv.contains(x) == expected


@st.composite
def time_intervals(draw):
    low = draw(st.integers(0, 20))
    high = draw(st.one_of(st.just(INF), st.integers(low, low + 20)))
    return TimeInterval(low, high, draw(st.booleans()), draw(st.booleans()))


@given(time_intervals())
@settings(max_examples=200)
def test_interval_horizon_saturates_membership(iv):
    h = iv.horizon
    assert h >= 1
    for c in [*range(h, h + 10), 10**9]:
        assert iv.contains(c) == iv.unbounded
    # below the horizon the contained classes form the range the checker seeds
    inside = [c for c in range(h + 1) if iv.contains(c)]
    assert inside == list(range(iv.int_low(), min(iv.int_high(), h) + 1))


def test_param_interval_rejects_bad_bounds():
    for low, high in [(-1, 3), (0, -2), (1.5, 3), (0, 2.0), (None, 3), ("2_4", "2_4"), ("a-b", 3), (0, "t\n"), ("inf", "inf"), (0, "inf"), (True, 3), (0, True)]:
        with pytest.raises(InputError):
            ParamInterval(low, high)
    assert ParamInterval("tau_g", INF) == ParamInterval("tau_g", None)


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_net_spec_inverts_make_net(rng):
    n = random_parametric_net(rng)
    assert make_net(*net_spec(n)) == n
    c = random_concrete_net(rng)
    assert instantiate(make_net(*net_spec(c)), {}) == c
