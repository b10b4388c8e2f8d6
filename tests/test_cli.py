import json

import pytest

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

PRODUCER = """
place p1 0
trans t post p1 interval [1,1]
"""


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

    def test_k_bound_violation_exit_three(self, tmp_path, capsys):
        path = tmp_path / "producer.tpnet"
        path.write_text(PRODUCER)
        code, _, err = run(capsys, "check", str(path), "--formula-text", "EF[0,1](M(p1)>=1)", "--k-bound", "3")
        assert code == 3
        assert "resource limit" in err

    def test_validate_ok(self, net_file, capsys):
        code, out, _ = run(capsys, "validate", net_file)
        assert code == 0 and "ok" in out


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

    def test_compose_flag_observer(self, net_file, capsys):
        code, out, _ = run(capsys, "compose", net_file, "--observer", "flag:t1")
        assert code == 0
        assert "p_O_t1" in out

    def test_unknown_observer_kind(self, net_file, capsys):
        code, _, err = run(capsys, "compose", net_file, "--observer", "zap:t1")
        assert code == 2


class TestEnvLimit:
    def test_max_states_env_override(self, net_file, capsys, monkeypatch):
        monkeypatch.setenv("TPNSYNTH_MAX_STATES", "2")
        code, _, err = run(capsys, "graph", net_file)
        assert code == 3


class TestShippedModel:
    def test_constant_darkness_scenario_end_to_end(self, tmp_path, capsys):
        import os

        here = os.path.dirname(os.path.abspath(__file__))
        model = os.path.join(here, os.pardir, "models", "circadian.tpnet")
        query = os.path.join(here, os.pardir, "models", "queries", "q1_light_constant.tctl")
        dark = str(tmp_path / "dark.tpnet")
        # flip the initial light state, then freeze the switch-on transition
        text = open(model).read().replace("place P_L0 0", "place P_L0 1").replace(
            "place P_L1 1", "place P_L1 0"
        )
        src = str(tmp_path / "dark_src.tpnet")
        open(src, "w").write(text)
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
        code_ag, _, _ = run(capsys, "check", net_file, "--formula-text", phi)
        code_paper, _, _ = run(capsys, "check", net_file, "--formula-text", phi, "--leadsto", "paper")
        assert (code_ag, code_paper) == (1, 0)


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
