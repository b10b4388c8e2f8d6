import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpnsynth import InputError, NetSyntaxError, make_net
from tpnsynth.cli import main
from tpnsynth.netfile import parse_net, serialize_net
from tpnsynth.petri import LinearConstraint

from _gen import mutate_text, random_parametric_net

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

    @pytest.mark.parametrize("interval", ["[2,5)", "[td,5)", "[2,td)"])
    def test_finite_high_bound_must_be_closed(self, interval):
        with pytest.raises(NetSyntaxError) as exc:
            parse_net(f"place p 1\nparam td\ntrans t pre p interval {interval}")
        assert exc.value.line == 3

    @pytest.mark.parametrize("close", [")", "]"])
    def test_unbounded_high_may_close_either_way(self, close):
        net = parse_net(f"place p 1\ntrans t pre p interval [2,inf{close}")
        assert net.intervals[0].high is None
        assert "interval [2,inf)" in serialize_net(net)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("net a b\nplace p 1\ntrans t pre p interval [0,1]", 1, "exactly one name"),
            ("place\ntrans t interval [0,1]", 1, "place needs a name"),
            ("place p 1 2\ntrans t pre p interval [0,1]", 1, "too many fields"),
            ("place p 1\nparam\ntrans t pre p interval [0,1]", 2, "single name"),
            ("place p 1\nparam a\nparam a\ntrans t pre p interval [a,a]", 3, "duplicate parameter"),
            ("place p 1\ntrans\n", 2, "trans needs a name"),
            ("place p 1\ntrans t pre p interval [0,1]\ntrans t interval [0,1]", 3, "duplicate transition"),
            ("net a\ntrans t interval [0,1]", 1, "at least one place"),
            ("net a\nplace p 1", 1, "at least one transition"),
            ("place p 1\ntrans p interval [0,1]", 2, "name of a place"),
            ("place p 1\nparam a\ndomain b >= 1\ntrans t pre p interval [a,a]", 3, "unknown parameters"),
            ("place p 1\ntrans t pre p interval", 2, "needs a [lo,hi]"),
            ("place p 1\ntrans t pre p*0 interval [0,1]", 2, "must be positive"),
            ("place p 1\ntrans t pre p interval [5,3]", 2, "interval low exceeds high"),
            ("place p 1\nparam a\ndomain 1/0*a >= 1\ntrans t pre p interval [a,a]", 3, "bad coefficient"),
            ("place p 1\nparam a\ndomain a.b >= 1\ntrans t pre p interval [a,a]", 3, "bad parameter name"),
            ("place p 1\nparam a\ndomain + >= 1\ntrans t pre p interval [a,a]", 3, "no parameter terms"),
        ],
        ids=[
            "net-two-names", "place-no-name", "place-too-many-fields", "param-no-name", "param-duplicate",
            "trans-no-name", "trans-duplicate", "no-place", "no-transition", "trans-named-like-place",
            "domain-undeclared-param", "interval-no-bound", "weight-zero", "interval-low-over-high", "coefficient-over-zero",
            "constraint-bad-param-name", "constraint-no-param-term",
        ],
    )
    def test_each_syntax_error_at_its_line(self, text, line, message, tmp_path, capsys):
        with pytest.raises(NetSyntaxError) as exc:
            parse_net(text)
        assert exc.value.line == line and message in str(exc.value)
        path = tmp_path / "bad.tpnet"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: " in err and message in err

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

    @pytest.mark.parametrize(
        "text, line",
        [
            ("place p ٣\ntrans t pre p interval [0,1]", 1),
            ("place p 1\ntrans t pre p*٣ interval [0,1]", 2),
            ("place p 1\nparam a\ndomain ٣*a >= 1\ntrans t pre p interval [a,a]", 3),
            ("place p 1\nparam a\ndomain a >= ٣\ntrans t pre p interval [a,a]", 3),
            ("place p 1\nparam a\ndomain a >= 1_0\ntrans t pre p interval [a,a]", 3),
            ("place p 1\ntrans t pre p interval [0,٣]", 2),
        ],
        ids=["tokens", "weight", "coefficient", "bound", "underscore", "interval"],
    )
    def test_pinned_numbers_other_than_ascii_digits(self, text, line):
        with pytest.raises(NetSyntaxError) as exc:
            parse_net(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("interval", ["[inf,inf]", "[0,1]"])
    def test_inf_is_no_parameter_name(self, interval):
        with pytest.raises(NetSyntaxError) as exc:
            parse_net(f"place p 1\nplace q 0\nparam inf\ntrans t pre p post q interval {interval}")
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "places, interval, message",
        [
            ([("p", True)], (0, 3), "initial marking has a negative or non-integer count"),
            ([("p", 1)], (True, 3), "interval bound must be a natural number"),
        ],
        ids=["initial-count", "interval-low"],
    )
    def test_a_bool_is_no_natural_so_no_unreadable_text_is_written(self, places, interval, message):
        with pytest.raises(InputError, match=message):
            make_net(places, {"t": {"pre": {"p": 1}, "interval": interval}})
        ints = make_net([(p, int(n)) for p, n in places], {"t": {"pre": {"p": 1}, "interval": tuple(map(int, interval))}})
        assert parse_net(serialize_net(ints)) == ints

    def test_serialization_is_stable(self):
        rng = random.Random(73)
        net = random_parametric_net(rng)
        assert serialize_net(net) == serialize_net(parse_net(serialize_net(net)))
