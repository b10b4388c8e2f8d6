"""One digest of the checker's, the graph export's and the synthesizer's
outputs over a fixed 520-run matrix.

Runs ``tpnsynth check --format json`` in-process over the 10 query files of
``models/queries/`` x ``models/circadian.tpnet`` and its flag:t_g, flag:t_a,
jetlag:30,6 and knockout:t_b,t_f compositions x tau_g 1, 2, 3, 5 x both
``--leadsto`` readings (400 runs), then ``tpnsynth graph --format json`` over
the 5 nets x the 4 tau_g values (20 runs), then ``tpnsynth synth --format
json`` over the 5 nets x the 10 query files with ``--box tau_g=1..13`` at
``--jobs 1`` and ``--jobs 2`` (100 runs), and prints the sha256 of every
run's exit code, standard output and standard error, with ``timing_ms``
removed from each JSON report. Two checkouts that print the same digest gave
the same answers, witnesses, graphs, satisfying sets (in order) and messages
on every run.

  python scripts/compare_outputs.py                 # this checkout's src/
  python scripts/compare_outputs.py --src OTHER/src # another checkout's

Models and queries always come from this checkout, so the two digests
differ only where the libraries do.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
COMPOSITIONS = {  # file name: observer specs
    "circadian.tpnet": [],
    "flag_t_g.tpnet": ["flag:t_g"],
    "flag_t_a.tpnet": ["flag:t_a"],
    "jetlag.tpnet": ["jetlag:30,6"],
    "knockout.tpnet": ["knockout:t_b,t_f"],
}
TAU_G = (1, 2, 3, 5)
LEADSTO = ("ag", "paper")
SYNTH_BOX = "tau_g=1..13"
SYNTH_JOBS = ("1", "2")


def run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the tpnsynth package")
    ns = ap.parse_args()
    sys.path.insert(0, os.path.abspath(ns.src))
    from tpnsynth.cli import main as cli_main

    queries = sorted(os.listdir(os.path.join(ROOT, "models", "queries")))
    digest, runs = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as work:
        # Reports name their inputs by the path given, so every path is
        # relative to one working directory holding copies of the inputs.
        shutil.copy(os.path.join(ROOT, "models", "circadian.tpnet"), work)
        shutil.copytree(os.path.join(ROOT, "models", "queries"), os.path.join(work, "queries"))
        here = os.getcwd()
        os.chdir(work)
        try:
            for name, observers in COMPOSITIONS.items():
                if observers:
                    argv = ["compose", "circadian.tpnet", "-o", name]
                    for spec in observers:
                        argv += ["--observer", spec]
                    code, _, err = run(cli_main, argv)
                    if code != 0:
                        sys.exit(f"compose {observers} failed: {err}")
            matrix = [
                ["check", name, "--formula", f"queries/{query}", "-v", f"tau_g={tau_g}", "--leadsto", leadsto]
                for name in COMPOSITIONS
                for query in queries
                for tau_g in TAU_G
                for leadsto in LEADSTO
            ]
            matrix += [["graph", name, "-v", f"tau_g={tau_g}"] for name in COMPOSITIONS for tau_g in TAU_G]
            matrix += [
                ["synth", name, "--formula", f"queries/{query}", "--box", SYNTH_BOX, "--jobs", jobs]
                for name in COMPOSITIONS
                for query in queries
                for jobs in SYNTH_JOBS
            ]
            for argv in matrix:
                argv += ["--format", "json"]
                code, out, err = run(cli_main, argv)
                if out:
                    report = json.loads(out)
                    report.pop("timing_ms", None)
                    out = json.dumps(report, sort_keys=True)
                digest.update(json.dumps([argv, code, out, err]).encode())
                digest.update(b"\n")
                runs += 1
        finally:
            os.chdir(here)
    print(f"{digest.hexdigest()}  {runs} runs")


if __name__ == "__main__":
    main()
