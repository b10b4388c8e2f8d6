import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpnsynth import SynthesisProblem, build, desugar, instantiate, parse_formula, parse_net, synthesize
from tpnsynth.biomodels import build_circadian_clock
from tpnsynth.cli import main

NET_A = """
place p1 1
place p2 0
trans t1 pre p1 post p2 interval [2,3]
"""

PARAM_NET = """
place p1 1
place p2 0
param td
domain td >= 1
trans t1 pre p1 post p2 interval [td,td]
"""

TWO_PARAM_NET = """
place p1 1
place p2 0
param a
param b
trans t1 pre p1 post p2 interval [a,b]
"""

PRODUCER = """
place p1 0
trans t post p1 interval [1,1]
"""

MODEL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "models", "circadian.tpnet")
SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts")


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net_a.tpnet"
    path.write_text(NET_A)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_check_holds_exit_zero(self, net_file, capsys):
        code, out, _ = run(capsys, "check", net_file, "--formula-text", "EF[2,3](M(p2)>=1)")
        assert code == 0
        assert "HOLDS" in out

    def test_check_fails_exit_one(self, net_file, capsys):
        code, out, _ = run(capsys, "check", net_file, "--formula-text", "EF[0,1](M(p2)>=1)")
        assert code == 1
        assert "FAILS" in out

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "check", "missing.tpnet", "--formula-text", "EF[0,1](M(p2)>=1)")
        assert code == 2
        assert "error" in err

    def test_bad_formula_exit_two(self, net_file, capsys):
        code, _, err = run(capsys, "check", net_file, "--formula-text", "EF[0,1](M(p2) >=")
        assert code == 2

    def test_bad_valuation_exit_two(self, net_file, capsys):
        code, _, _ = run(capsys, "check", net_file, "--formula-text", "EF[0,1](M(p2)>=1)", "-v", "x=oops")
        assert code == 2

    @pytest.mark.parametrize("value", ["²", "-1", "--1", " 1", ""])
    def test_valuation_other_than_ascii_digits_exit_two(self, tmp_path, capsys, value):
        path = tmp_path / "param.tpnet"
        path.write_text(PARAM_NET)
        code, _, err = run(capsys, "check", str(path), "--formula-text", "EF[0,3](M(p2)>=1)", "-v", f"td={value}")
        assert code == 2
        assert "bad valuation entry" in err

    @pytest.mark.parametrize("box", ["td=²..3", "td=1..³", "td=1", "td=-1..3"])
    def test_box_other_than_ascii_digits_exit_two(self, tmp_path, capsys, box):
        path = tmp_path / "param.tpnet"
        path.write_text(PARAM_NET)
        code, _, err = run(
            capsys, "synth", str(path), "--formula-text", "EF[0,inf](M(p2)>=1)", "--box", box, "--jobs", "1"
        )
        assert code == 2
        assert "bad box entry" in err

    def test_box_too_long_to_enumerate_exits_two(self, tmp_path, capsys):
        path = tmp_path / "param.tpnet"
        path.write_text(PARAM_NET)
        code, _, err = run(
            capsys, "synth", str(path), "--formula-text", "EF[0,3](M(p2)>=1)", "--box", "td=0..99999999999999999999"
        )
        assert code == 2
        assert err.startswith("error:") and "points" in err and "Traceback" not in err

    @pytest.mark.parametrize("entries", [["td=2,zz=3"], ["td=2,td=3"], ["td=2", "td=3"], ["zz=3"]])
    def test_valuation_names_must_be_declared_once(self, tmp_path, capsys, entries):
        path = tmp_path / "param.tpnet"
        path.write_text(PARAM_NET)
        flags = [x for entry in entries for x in ("-v", entry)]
        code, out, err = run(capsys, "check", str(path), "--formula-text", "EF[0,3](M(p2)>=1)", *flags)
        assert code == 2
        assert out == ""
        assert "td" in err or "zz" in err

    def test_repeated_box_parameter_exit_two(self, tmp_path, capsys):
        path = tmp_path / "param.tpnet"
        path.write_text(PARAM_NET)
        code, out, err = run(
            capsys, "synth", str(path), "--formula-text", "EF[0,3](M(p2)>=1)",
            "--box", "td=1..3", "--box", "td=5..6", "--jobs", "1",
        )
        assert code == 2
        assert out == ""
        assert "'td'" in err

    def test_k_bound_violation_exit_three(self, tmp_path, capsys):
        path = tmp_path / "producer.tpnet"
        path.write_text(PRODUCER)
        code, _, err = run(capsys, "check", str(path), "--formula-text", "EF[0,1](M(p1)>=1)", "--k-bound", "3")
        assert code == 3
        assert "resource limit" in err

    @pytest.mark.parametrize("command", ["check", "synth"])
    def test_horizon_limit_exit_three_before_exploring(self, net_file, tmp_path, capsys, monkeypatch, command):
        # an until lower bound above the delay-layer limit is refused when
        # the plan is compiled: no graph is built and synth prints no report
        def no_build(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr("tpnsynth.cli.build", no_build)
        monkeypatch.setattr("tpnsynth.synthesis.explore", no_build)
        path = tmp_path / "p.tpnet"
        path.write_text(PARAM_NET)
        args = [net_file] if command == "check" else [str(path), "--box", "td=0..3", "--jobs", "1"]
        code, out, err = run(capsys, command, *args, "--formula-text", "EF[100001,100002](M(p2)>=1)")
        assert (code, out) == (3, "")
        assert err.startswith("resource limit: interval lower bound 100001")

    def test_unknown_formula_place_is_reported_before_exploring(self, tmp_path, capsys):
        # exploring this net would hit the k-bound first (exit 3)
        path = tmp_path / "producer.tpnet"
        path.write_text(PRODUCER)
        code, out, err = run(capsys, "check", str(path), "--formula-text", "EF[0,1](M(nope)>=1)", "--k-bound", "3")
        assert code == 2
        assert out == ""
        assert "unknown places" in err and "resource limit" not in err

    def test_validate_ok(self, net_file, capsys):
        code, out, _ = run(capsys, "validate", net_file)
        assert code == 0 and "ok" in out

    def test_net_file_other_than_utf8_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.tpnet"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert "bad.tpnet" in err and "UTF-8" in err

    def test_formula_file_other_than_utf8_exit_two(self, net_file, tmp_path, capsys):
        path = tmp_path / "bad.tctl"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "check", net_file, "--formula", str(path))
        assert code == 2 and out == ""
        assert "bad.tctl" in err and "UTF-8" in err

    def test_byte_order_mark_is_read_as_utf8(self, tmp_path, capsys):
        net, formula = tmp_path / "bom.tpnet", tmp_path / "bom.tctl"
        net.write_bytes(b"\xef\xbb\xbf" + NET_A.lstrip().encode())  # the mark right before `place`
        formula.write_bytes(b"\xef\xbb\xbf# reaches p2\nEF[2,3](M(p2)>=1)\n")
        assert run(capsys, "validate", str(net)) == (0, "ok\n", "")
        code, out, err = run(capsys, "check", str(net), "--formula", str(formula))
        assert (code, err) == (0, "") and out.startswith("HOLDS  EF[2,3](M(p2) >= 1)\n")
        formula.write_bytes(b"\xef\xbb\xbfEF[0,1](M(p2)>=1)\n")
        assert run(capsys, "check", str(net), "--formula", str(formula))[0] == 1

    @pytest.mark.parametrize("suffix", ["tpnet", "tctl"])
    @pytest.mark.parametrize("data, at", [(b"\xff\xfe", 0), (b"\xef\xbb\xbfEF\xff", 5)])
    def test_not_utf8_message_names_the_file_byte(self, net_file, tmp_path, capsys, suffix, data, at):
        # the offset counts from the start of the file, a byte-order mark included
        path = tmp_path / f"bad.{suffix}"
        path.write_bytes(data)
        argv = ["validate", str(path)] if suffix == "tpnet" else ["check", net_file, "--formula", str(path)]
        kind = "net" if suffix == "tpnet" else "formula"
        assert run(capsys, *argv) == (2, "", f"error: {kind} file {str(path)!r} is not UTF-8: invalid start byte at byte {at}\n")

    ONE_FORMULA = [("check", "-v", "td=2"), ("synth", "--box", "td=1..3", "--jobs", "1")]

    @pytest.mark.parametrize("command", ONE_FORMULA)
    @pytest.mark.parametrize("formula", [("--formula-text", "EF[0,3](M(p2)>=1)", "--formula", "missing.tctl"), ()])
    def test_both_formula_flags_or_neither_exit_two_before_the_net(self, capsys, command, formula):
        name, *rest = command
        with pytest.raises(SystemExit) as exc:
            main([name, "missing.tpnet", *formula, *rest])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--formula" in out.err and "missing" not in out.err

    @pytest.mark.parametrize("command", ONE_FORMULA)
    def test_empty_formula_text_is_a_syntax_error(self, tmp_path, capsys, command):
        path = tmp_path / "param.tpnet"
        path.write_text(PARAM_NET)
        name, *rest = command
        code, out, err = run(capsys, name, str(path), "--formula-text", "", *rest)
        assert code == 2 and out == ""
        assert "M(place)" in err


class TestCountFlags:
    SYNTH = ("synth", "--formula-text", "EF[0,3](M(p2)>=1)", "--box", "td=1..3")

    @pytest.mark.parametrize(
        "flags",
        [
            ("simulate", "-v", "td=2", "--steps", "-3"),
            ("simulate", "-v", "td=2", "--steps", "²"),
            ("simulate", "-v", "td=2", "--seed", "٣"),
            ("simulate", "-v", "td=2", "--seed", "1_0"),
            ("simulate", "-v", "td=2", "--seed", "-1"),
            SYNTH + ("--jobs", "0"),
            SYNTH + ("--jobs", "-2"),
            SYNTH + ("--jobs", "x"),
            ("check", "-v", "td=2", "--formula-text", "EF[0,3](M(p2)>=1)", "--k-bound", "0"),
            ("check", "-v", "td=2", "--formula-text", "EF[0,3](M(p2)>=1)", "--k-bound", "-1"),
            ("graph", "-v", "td=2", "--max-states", "0"),
            ("graph", "-v", "td=2", "--max-states", "1e3"),
        ],
    )
    def test_bad_count_exit_two(self, tmp_path, capsys, flags):
        path = tmp_path / "param.tpnet"
        path.write_text(PARAM_NET)
        command, *rest = flags
        with pytest.raises(SystemExit) as exc:
            main([command, str(path), *rest])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "whole number" in out.err

    def test_zero_steps_is_an_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "param.tpnet"
        path.write_text(PARAM_NET)
        code, out, _ = run(capsys, "simulate", str(path), "-v", "td=2", "--steps", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["trace"] == []

    def test_limit_defaults_come_from_explore_limits(self, net_file):
        from tpnsynth.cli import _build_parser, _limits
        from tpnsynth.statespace import ExploreLimits

        ns = _build_parser().parse_args(["check", net_file, "--formula-text", "true"])
        assert _limits(ns) == ExploreLimits()

    @pytest.mark.parametrize(
        "command",
        [
            ("check", "--formula-text", "EF[0,3](M(p2)>=1)"),
            ("graph",),
            ("validate",),
            ("simulate",),
            ("compose", "--observer", "flag:t1"),
        ],
    )
    def test_csv_format_only_on_synth(self, net_file, capsys, command):
        name, *rest = command
        with pytest.raises(SystemExit) as exc:
            main([name, net_file, *rest, "--format", "csv"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestReports:
    def test_json_report_shape(self, net_file, capsys):
        code, out, _ = run(
            capsys, "check", net_file, "--format", "json", "--formula-text", "EF[2,3](M(p2)>=1)"
        )
        report = json.loads(out)
        assert report["result"]["holds"] is True
        assert report["result"]["witness"] == [{"delay": 1}, {"delay": 1}, {"fire": "t1"}]
        assert net_file in report["inputs"]
        assert "timing_ms" in report and "version" in report

    def test_reports_deterministic_modulo_timing(self, net_file, capsys):
        _, out1, _ = run(capsys, "check", net_file, "--format", "json", "--formula-text", "EF[2,3](M(p2)>=1)")
        _, out2, _ = run(capsys, "check", net_file, "--format", "json", "--formula-text", "EF[2,3](M(p2)>=1)")
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("timing_ms"), r2.pop("timing_ms")
        assert r1 == r2

    def test_graph_export_shape(self, net_file, capsys):
        code, out, _ = run(capsys, "graph", net_file, "--format", "json")
        report = json.loads(out)
        nodes = report["result"]["nodes"]
        assert len(nodes) == 5
        assert report["result"]["complete"] is True
        assert nodes[0]["marking"] == {"p1": 1}
        assert nodes[0]["clocks"] == {"t1": "[2,3]"}

    def test_simulate_deterministic_by_seed(self, net_file, capsys):
        _, out1, _ = run(capsys, "simulate", net_file, "--steps", "6", "--seed", "5")
        _, out2, _ = run(capsys, "simulate", net_file, "--steps", "6", "--seed", "5")
        assert out1 == out2


class TestSynthCli:
    def test_synth_json_and_csv(self, tmp_path, capsys):
        path = tmp_path / "p.tpnet"
        path.write_text(PARAM_NET)
        code, out, _ = run(
            capsys, "synth", str(path), "--formula-text", "EF[0,3](M(p2)>=1)",
            "--box", "td=0..5", "--jobs", "1", "--format", "json",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["satisfying"] == [{"td": 1}, {"td": 2}, {"td": 3}]
        assert result["explored"] == 5  # td=0 is outside the domain
        assert result["summary"] == {"td": [1, 3]}
        assert result["box_exact"] is True

        code, out, _ = run(
            capsys, "synth", str(path), "--formula-text", "EF[0,3](M(p2)>=1)",
            "--box", "td=0..5", "--jobs", "1", "--format", "csv",
        )
        assert out.splitlines() == ["td", "1", "2", "3"]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_failed_valuations_exit_three(self, tmp_path, capsys, fmt):
        # td=1 explores 3 states and holds; td=2 needs 4 and hits the cap
        path = tmp_path / "p.tpnet"
        path.write_text(PARAM_NET)
        code, out, err = run(
            capsys, "synth", str(path), "--formula-text", "EF[0,inf](M(p2)>=1)",
            "--box", "td=1..2", "--jobs", "1", "--max-states", "3", "--format", fmt,
        )
        assert code == 3
        if fmt == "json":
            result = json.loads(out)["result"]
            assert result["satisfying"] == [{"td": 1}]
            assert [f["valuation"] for f in result["failures"]] == [{"td": 2}]
        elif fmt == "csv":
            assert out.splitlines() == ["td", "1"]
            assert err.splitlines() == [
                "failure: td=2: IncompleteGraphError: refusing to check an incomplete graph"
            ]
        else:
            assert "1 satisfying" in out
            assert "failures: 1" in out

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_ill_formed_interval_points_are_outside_the_domain(self, tmp_path, capsys, fmt):
        # a=2, b=1 gives t1 the interval [2,1]: no instance, so no failure
        path = tmp_path / "ab.tpnet"
        path.write_text(TWO_PARAM_NET)
        code, out, err = run(
            capsys, "synth", str(path), "--formula-text", "EF[0,inf](M(p2)>=1)",
            "--box", "a=1..2", "--box", "b=1..1", "--jobs", "1", "--format", fmt,
        )
        assert code == 0
        assert err == ""
        if fmt == "csv":
            assert out.splitlines() == ["a,b", "1,1"]
        else:
            assert "explored 1 valuations, 1 satisfying" in out
            assert "failures" not in out

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_unknown_formula_place_exit_two(self, tmp_path, capsys, fmt):
        path = tmp_path / "p.tpnet"
        path.write_text(PARAM_NET)
        code, out, err = run(
            capsys, "synth", str(path), "--formula-text", "EF[0,inf] M(NOPE)=1",
            "--box", "td=1..2", "--jobs", "1", "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert "NOPE" in err


class TestCompose:
    def test_compose_writes_transformed_net(self, net_file, tmp_path, capsys):
        out_path = tmp_path / "guarded.tpnet"
        code, _, _ = run(capsys, "compose", net_file, "--observer", "inhibit:t1", "-o", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert "p_inh_t1 1" in text
        code, out, _ = run(capsys, "check", str(out_path), "--formula-text", "EF[0,inf](M(p2)>=1)")
        assert code == 1  # t1 can never fire once inhibited

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_compose_takes_no_format(self, net_file, capsys, fmt):
        with pytest.raises(SystemExit) as exc:
            main(["compose", net_file, "--observer", "flag:t1", "--format", fmt])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_compose_flag_observer(self, net_file, capsys):
        code, out, _ = run(capsys, "compose", net_file, "--observer", "flag:t1")
        assert code == 0
        assert "p_O_t1" in out

    def test_unknown_observer_kind(self, net_file, capsys):
        code, _, err = run(capsys, "compose", net_file, "--observer", "zap:t1")
        assert code == 2

    @pytest.mark.parametrize(
        "spec",
        ["lightdur:2_4", "lightdur:٣", "lightdur:a-b", "jetlag:2_4,3_0", "jetlag:٣,30", "jetlag:td,30", "nightlight:4,4,٤"],
    )
    def test_observer_delay_other_than_ascii_digits_or_name_exit_two(self, tmp_path, capsys, spec):
        out_path = tmp_path / "composed.tpnet"
        code, _, err = run(capsys, "compose", MODEL, "--observer", spec, "-o", str(out_path))
        assert code == 2 and "error:" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "spec",
        [
            "flag:t_b,t_c", "flag:", "inhibit:t_a,t_b", "knockout:", "lightdur:5,6", "nightlight:4,4", "jetlag:30",
            "jetlag:30,6,1", "nightlight:4,,4,4", "flag:,t_b", "knockout:t_b,",
        ],
    )
    def test_observer_argument_count_exit_two(self, tmp_path, capsys, spec):
        out_path = tmp_path / "composed.tpnet"
        code, _, err = run(capsys, "compose", MODEL, "--observer", spec, "-o", str(out_path))
        assert code == 2 and "argument" in err
        assert not out_path.exists()

    def test_inf_is_no_observer_parameter(self, tmp_path, capsys):
        out_path = tmp_path / "composed.tpnet"
        code, _, err = run(capsys, "compose", MODEL, "--observer", "lightdur:inf", "-o", str(out_path))
        assert code == 2 and "'inf'" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("spec", ["lightdur:5", "lightdur:td", "jetlag:24,30", "nightlight:t1,4,t3"])
    def test_composed_net_passes_validate(self, tmp_path, capsys, spec):
        out_path = str(tmp_path / "composed.tpnet")
        assert run(capsys, "compose", MODEL, "--observer", spec, "-o", out_path)[0] == 0
        assert run(capsys, "validate", out_path)[0] == 0


class TestShippedModel:
    def test_constant_darkness_scenario_end_to_end(self, tmp_path, capsys):
        import os

        here = os.path.dirname(os.path.abspath(__file__))
        model = os.path.join(here, os.pardir, "models", "circadian.tpnet")
        query = os.path.join(here, os.pardir, "models", "queries", "q1_light_constant.tctl")
        dark = str(tmp_path / "dark.tpnet")
        # flip the initial light state, then freeze the switch-on transition
        with open(model) as f:
            text = f.read().replace("place P_L0 0", "place P_L0 1").replace("place P_L1 1", "place P_L1 0")
        src = str(tmp_path / "dark_src.tpnet")
        with open(src, "w") as f:
            f.write(text)
        code, _, _ = run(capsys, "compose", src, "--observer", "inhibit:t_on", "-o", dark)
        assert code == 0
        code, out, _ = run(capsys, "check", dark, "--formula", query, "-v", "tau_g=1")
        assert code == 0 and "HOLDS" in out

    def test_phi_i_holds_on_nominal_model(self, capsys):
        import os

        here = os.path.dirname(os.path.abspath(__file__))
        model = os.path.join(here, os.pardir, "models", "circadian.tpnet")
        query = os.path.join(here, os.pardir, "models", "queries", "phi_i.tctl")
        code, _, _ = run(capsys, "check", model, "--formula", query, "-v", "tau_g=1")
        assert code == 0


class TestLeadsToFlag:
    def test_paper_mode_changes_the_verdict(self, net_file, capsys):
        phi = "(M(p1)>=1) -->[0,0] (M(p2)>=9)"
        code_ag, out_ag, _ = run(capsys, "check", net_file, "--formula-text", phi)
        code_paper, out_paper, _ = run(capsys, "check", net_file, "--formula-text", phi, "--leadsto", "paper")
        assert (code_ag, code_paper) == (1, 0)
        typed = "(M(p1) >= 1) -->[0,0] (M(p2) >= 9)"  # reported as typed, not desugared
        assert out_ag.splitlines()[0] == f"FAILS  {typed}" and out_paper.splitlines()[0] == f"HOLDS  {typed}"

    def test_synth_readings_are_the_library_readings(self, tmp_path, capsys):
        # t1 fires at td: "ag" needs td <= 2, "paper" holds once t1 has fired
        path = tmp_path / "param.tpnet"
        path.write_text(PARAM_NET)
        text = "(M(p1)>=1) -->[0,2] (M(p2)>=1)"
        net, phi = parse_net(PARAM_NET), parse_formula(text)
        sets = {}
        for reading in ("ag", "paper"):
            code, out, _ = run(
                capsys, "synth", str(path), "--formula-text", text, "--box", "td=1..4",
                "--leadsto", reading, "--format", "json", "--jobs", "1",
            )
            assert code == 0
            sets[reading] = json.loads(out)["result"]["satisfying"]
            expected = synthesize(SynthesisProblem(net, desugar(phi, reading), {"td": (1, 4)}))
            assert sets[reading] == expected.satisfying
        assert sets == {"ag": [{"td": 1}, {"td": 2}], "paper": [{"td": t} for t in range(1, 5)]}


class TestLightDurationSweep:
    def test_query_ii_reproduced_through_the_cli(self, tmp_path, capsys):
        import os

        here = os.path.dirname(os.path.abspath(__file__))
        model = os.path.join(here, os.pardir, "models", "circadian.tpnet")
        query = os.path.join(here, os.pardir, "models", "queries", "phi_i.tctl")
        swept = str(tmp_path / "lightdur.tpnet")
        code, _, _ = run(capsys, "compose", model, "--observer", "lightdur:td", "-o", swept)
        assert code == 0
        code, out, _ = run(
            capsys, "synth", swept, "--formula", query, "--format", "json",
            "--box", "td=0..24", "--box", "tau_g=1..1", "--jobs", "1",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["summary"]["td"] == [6, 12]
        assert result["box_exact"] is True


# p3 counts up to 3, so --k-bound 1 or 2 stops every exploration (exit 3)
ARGV_NET = """
place p1 1
place p2 0
place p3 0
param td
domain td >= 1
trans t1 pre p1 post p2 interval [td,td]
trans t2 read p2 inhibit p3*3 post p3 interval [1,2]
"""

FORMULAS = ["EF[0,5](M(p2)>=1)", "AG[0,inf](M(p1)+M(p2)=1)", "AF[1,4](M(p3)>=2)", "M(p1)=1 -->[0,3] M(p2)=1"]
BAD_COUNTS = ["0", "-1", "x", "\u00b2", "\u0663", ""]
# per flag: a valid value, and values that make it an input or usage error
ARGV_VALUES = {
    "--format": (None, ["xml", ""]),
    "--k-bound": (st.integers(1, 4).map(str), BAD_COUNTS),
    "--max-states": (st.integers(1, 40).map(str), BAD_COUNTS),
    "--steps": (st.integers(0, 5).map(str), ["-1", "x", "\u0663"]),
    "--seed": (st.integers(0, 9).map(str), ["-1", "x"]),
    "-v": (st.integers(1, 4).map("td={}".format), ["td=x", "td=", "td=0", "zz=1", "td=1,td=2", "td=\u00b2"]),
    "--box": (
        st.tuples(st.integers(0, 3), st.integers(0, 2)).map(lambda lw: f"td={lw[0]}..{sum(lw)}"),
        ["td=1..x", "td=1", "zz=1..2", "td=\u00b2..3", "td=0..99999999999999999999"],
    ),
    "--formula-text": (
        st.sampled_from(FORMULAS),
        ["EF[0,5](M(p2) >=", "EF[0,\u0663](M(p2)>=1)", "EF[0,5](M(nope)>=1)", "M(nope)=1 -->[0,3] M(p2)=1"],
    ),
    "--formula": (None, ["missing.tctl"]),
    "--leadsto": (st.sampled_from(["ag", "paper"]), ["both"]),
    "--jobs": (st.just("1"), BAD_COUNTS),
    "--observer": (
        st.sampled_from(["inhibit:t1", "flag:t2", "knockout:t1,t2"]),
        ["inhibit:nope", "flag:,t1", "bogus:1", "knockout:t1,", "jetlag:\u0663,30", "lightdur:2_4"],
    ),
}
# per flag: input errors found only once the net and the formula are read
# together: a formula place, the domain, the size of a box's sweep
LATE_VALUES = {
    "--formula-text": ["EF[0,5](M(nope)>=1)", "M(nope)=1 -->[0,3] M(p2)=1"],
    "-v": ["td=0"],
    "--box": ["td=0..99999999999999999999", "td=1..100001"],
}
ARGV_FLAGS = {  # subcommand: (flags it must have, flags it may have)
    "validate": ((), ("--format",)),
    "simulate": (("-v",), ("--format", "--steps", "--seed")),
    "graph": (("-v",), ("--format", "--k-bound", "--max-states")),
    "check": (("-v", "--formula-text"), ("--format", "--k-bound", "--max-states", "--leadsto")),
    "synth": (("--box", "--formula-text"), ("--format", "--k-bound", "--max-states", "--leadsto")),
    "compose": (("--observer",), ()),
}


@st.composite
def cli_argv(draw, net, formula):
    """(argv, bad): a valid command line for one subcommand on ``net``, or,
    when ``bad``, one with a single token or option made an input error.
    A bad command line that takes limits gets ``--k-bound 1`` (unless that
    is the mutated option), so that an input error found only after
    exploring would exit 3. The mutations lean towards ``LATE_VALUES``,
    the inputs that a command could wrongly decide after it explores."""
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    must, may = ARGV_FLAGS[command]
    mutation = draw(st.sampled_from(["none", "none", "late", "late", "late", "value", "drop", "command", "net", "flag"]))
    bad = mutation != "none" and (command != "validate" or mutation != "drop")
    formats = ["text", "json", "csv"] if command == "synth" else ["text", "json"]
    flags = list(must) + [f for f in may if (bad and f == "--k-bound") or draw(st.booleans())]
    if command == "synth":
        flags.append("--jobs")  # the default would start a pool
    pairs = [[f, draw(st.sampled_from(formats) if f == "--format" else ARGV_VALUES[f][0])] for f in flags]
    if bad and "--k-bound" in flags:
        pairs[flags.index("--k-bound")][1] = "1"
    if command in ("check", "synth") and mutation != "late" and draw(st.booleans()):
        pairs[flags.index("--formula-text")] = ["--formula", formula]
    head = [command, net]
    late = [pair for pair in pairs if pair[0] in LATE_VALUES]
    if mutation == "late" and late:
        pair = draw(st.sampled_from(late))
        pair[1] = draw(st.sampled_from(LATE_VALUES[pair[0]]))
    elif mutation in ("late", "value") and pairs:
        pair = draw(st.sampled_from(pairs))
        values = ARGV_VALUES[pair[0]][1] + (["csv"] if pair[0] == "--format" and command != "synth" else [])
        pair[1] = draw(st.sampled_from(values))
    elif mutation == "drop" and must:
        del pairs[draw(st.integers(0, len(must) - 1))]
    elif mutation == "command":
        head[0] = draw(st.sampled_from(["bogus", "", "Check"]))
    elif mutation in ("net", "late", "value"):
        head[1] = draw(st.sampled_from(["missing.tpnet", formula]))
    elif mutation == "flag":
        pairs.append([draw(st.sampled_from(["--bogus", "--format", "-v"]))])
    pairs = draw(st.permutations(pairs))
    return head + [token for pair in pairs for token in pair], bad


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "net.tpnet").write_text(ARGV_NET)
    (root / "query.tctl").write_text("# reaches p2\nEF[0,5](M(p2)>=1)\n")
    return str(root / "net.tpnet"), str(root / "query.tctl")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_argv_exits_with_a_documented_code(argv_inputs, data):
    """Valid and mutated command lines on a small net: no traceback, only
    the exit codes of docs/formats.md, and an input error exits 2, never 0,
    1 or 3, while a valid command line never exits 2."""
    argv, bad = data.draw(cli_argv(*argv_inputs))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 2, 3)
    assert (code == 2) == bad, (argv, code, err.getvalue())


# the child caps its own address space, so a sweep that collected every
# valuation would die of MemoryError (exit 1) instead of being refused
HUGE_BOX = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from tpnsynth.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_box_over_the_valuation_cap_exits_2_before_any_check(tmp_path):
    net = tmp_path / "net.tpnet"
    net.write_text(ARGV_NET)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    argv = ["synth", str(net), "--formula-text", "EF[0,3](M(p2)>=1)", "--box", "td=0..4611686018427387904"]
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_BOX, *argv, "--jobs", "1"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert "more than 100000 valuations" in proc.stderr


@pytest.mark.parametrize("script", ["run_case_study.py", "search_reconstruction.py"])
def test_script_refuses_zero_jobs_before_any_work(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), "--jobs", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""  # both scripts print before their first check
    assert "--jobs" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, read", [
    (["simulate", MODEL, "-v", "tau_g=1", "--steps", "2000"], 1),  # the reader leaves after one line of many
    (["validate", MODEL], 0),  # the reader leaves before the one line, which is still buffered
])
def test_stdout_closed_by_its_reader_exits_141_quietly(argv, read):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout block-buffered, as in a shell
    proc = subprocess.Popen(
        [sys.executable, "-m", "tpnsynth.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**env, "PYTHONPATH": src},
    )
    assert [proc.stdout.readline()[:4] for _ in range(read)] == [b"t=0 "] * read
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_case_study_prints_the_same_lines_at_one_and_two_jobs():
    """scripts/run_case_study.py, all but its "done in" line, at --jobs 1
    and --jobs 2: a change that alters a case-study line on purpose
    updates this digest."""
    outs = []
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, os.path.join(SCRIPTS, "run_case_study.py"), "--jobs", jobs],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append("".join(line for line in proc.stdout.splitlines(True) if not line.startswith("done in")))
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0].encode()).hexdigest() == (
        "bcd9bd768ed697f67b38158539235be10e31c083cba93df8324be8cdd7f22e30"
    )


def test_quick_structure_search_prints_its_pinned_lines():
    """scripts/search_reconstruction.py --quick at --jobs 1, whose progress
    lines follow variant order: a change that alters a search line on
    purpose updates this digest."""
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "search_reconstruction.py"), "--quick", "--jobs", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "43b35deec0a0e303d8cfa679df99f4a6062b326540f1e2d9b8f42c85ee7039b9"
    )


def _search_script():
    path = os.path.join(SCRIPTS, "search_reconstruction.py")
    spec = importlib.util.spec_from_file_location("search_reconstruction", path)
    search = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(search)
    return search


def test_structure_search_pool_is_capped_at_the_usable_cpus(monkeypatch, capsys):
    """scripts/search_reconstruction.py starts at most one process per
    usable CPU, whatever --jobs asks for, and none beyond the variants;
    the pool is a stand-in that starts no process."""
    search, sizes = _search_script(), []

    class Pool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, func, items, chunksize=1):
            return map(func, items)

    monkeypatch.setattr(search, "Pool", Pool)
    monkeypatch.setattr(search, "usable_cpus", lambda: 2)
    monkeypatch.setattr(search, "score", lambda variant: None)
    for jobs, count in (("64", 5), ("1", 5), ("64", 1)):
        monkeypatch.setattr(search, "variants", lambda quick=False, count=count: [{}] * count)
        monkeypatch.setattr(sys, "argv", ["search_reconstruction.py", "--jobs", jobs])
        assert search.main() == 1  # the stand-in scores no variant
    assert sizes == [2, 1, 1]
    assert "no variant passes the hard filter" in capsys.readouterr().out


def test_structure_search_filter_keeps_the_shipped_clock():
    """The nominal filter of scripts/search_reconstruction.py keeps the
    variant that ships as ``build_circadian_clock`` and drops one with
    another complex-formation delay, so a change under the explorer
    cannot silently empty the search."""
    search = _search_script()
    shipped = dict(
        d_c=6, f_read=(), d_f=6, b_read=("P_L1",), d_b=0,
        g_read=("P_PC1",), a_role=("pc_down", ("P_G1",)),
    )
    assert shipped in list(search.variants())
    nominal = build(instantiate(search.clock_net(shipped, 12, 12, 1, 7), {}))
    assert nominal.keys == build(instantiate(build_circadian_clock(), {})).keys
    assert search.hard_filter(shipped)
    assert not search.hard_filter({**shipped, "d_c": 5})


def test_output_digest_is_pinned():
    """The 520-run ``check``, ``graph`` and ``synth`` ``--format json``
    matrix of scripts/compare_outputs.py (its messages and exit codes
    included): a change that alters an output on purpose updates this
    digest."""
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "compare_outputs.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "9353b7df2d9930bedbb59afb9e28fbca3cb5f76aa83685b643204566d396b095  520 runs\n"
