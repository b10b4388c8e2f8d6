import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpnsynth import NetSyntaxError, make_net
from tpnsynth.netfile import parse_net, serialize_net
from tpnsynth.petri import LinearConstraint

from _gen import mutate_text

NET_A_DOC = """
# minimal two-place net
place p1 1
place p2
trans t1 pre p1 post p2 interval [2,3]
"""


class TestParse:
    def test_minimal_document(self):
        net = parse_net(NET_A_DOC)
        assert net.places == ("p1", "p2")
        assert net.initial == (1, 0)
        assert net.transitions == ("t1",)

    def test_domain_constraint_line(self):
        net = parse_net(
            """
place p 1
param ton
param toff
domain ton + toff = 24
trans t pre p interval [ton,ton]
"""
        )
        assert len(net.domain.constraints) == 1
        c = net.domain.constraints[0]
        assert c.rel == "=" and c.bound == 24
        assert dict(c.coeffs) == {"ton": 1, "toff": 1}

    def test_weighted_and_special_arcs(self):
        net = parse_net(
            """
place a 2
place b 0
place c 1
trans t pre a*2 post b read c inhibit b*3 interval [0,inf)
"""
        )
        i = net.transition_index["t"]
        assert net.pre[i] == (2, 0, 0)
        assert net.post[i] == (0, 1, 0)
        assert net.read[i] == (0, 0, 1)
        assert net.inhibit[i] == (0, 3, 0)
        assert net.intervals[i].high is None

    def test_duplicate_place_rejected(self):
        with pytest.raises(NetSyntaxError):
            parse_net("place p 1\nplace p 0\ntrans t pre p interval [0,1]")

    def test_unknown_directive_rejected(self):
        with pytest.raises(NetSyntaxError) as exc:
            parse_net("places p 1")
        assert exc.value.line == 1

    def test_missing_interval_rejected(self):
        with pytest.raises(NetSyntaxError):
            parse_net("place p 1\ntrans t pre p")

    def test_undeclared_parameter_rejected(self):
        with pytest.raises(NetSyntaxError) as exc:
            parse_net("place p 1\ntrans t pre p interval [td,td]")
        assert exc.value.line == 2

    def test_rational_coefficients(self):
        net = parse_net(
            """
place p 1
param x
domain 1/2*x <= 3
trans t pre p interval [x,x]
"""
        )
        c = net.domain.constraints[0]
        assert dict(c.coeffs)["x"] == LinearConstraint.make({"x": "1/2"}, "<=", 3).coeffs[0][1]


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


class TestRoundTrip:
    def test_random_nets_roundtrip(self):
        rng = random.Random(71)
        for _ in range(120):
            net = random_parametric_net(rng)
            again = parse_net(serialize_net(net))
            assert again == net

    @settings(max_examples=200, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_mutated_text_raises_only_line_numbered_syntax_errors(self, rng):
        text = mutate_text(rng, serialize_net(random_parametric_net(rng)))
        try:
            parse_net(text)
        except NetSyntaxError as exc:
            assert exc.line is not None

    def test_serialization_is_stable(self):
        rng = random.Random(73)
        net = random_parametric_net(rng)
        assert serialize_net(net) == serialize_net(parse_net(serialize_net(net)))
