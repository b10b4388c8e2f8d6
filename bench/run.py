"""Benchmark for the tpnsynth pipeline, timed from outside the library.

    python3 bench/run.py --workload osc-product --seed 1 --seconds 30 --trace 0

Sets the named workload up, runs one warm-up pass, then repeats whole passes
(every check query, then every synthesis box at jobs 1 and jobs N, then the
CLI) for about ``--seconds`` seconds, with further set-ups between passes.
It checks every answer against the hand-derived one and prints, as the last
line of standard output, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones, pass times in units of a reference computation timed
between the items of each pass (bench/reference.py); with ``--trace 1``
they are the per-layer ones, from traced passes and two re-run probes, and
the spans go to ``bench/out/``. Exit status 1 means a wrong answer; 2 means
the library could not be found.

Standard library only. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 21  # set-ups per run; setup_s is their median
SEGMENT_S = 0.15  # least item time between two reference computations

sys.path.insert(0, str(HERE))
from reference import reference_s  # noqa: E402
from spans import BENCH, Tracer, layer  # noqa: E402
from workloads import WORKLOADS, valuation_key  # noqa: E402


def import_library():
    """Import tpnsynth afresh from this checkout's src/ (set-up includes
    the import, and set-up is repeated)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "tpnsynth"]:
        del sys.modules[name]
    tpn = importlib.import_module("tpnsynth")
    if Path(tpn.__file__).resolve().parent != SRC / "tpnsynth":
        raise ImportError(f"tpnsynth imported from {tpn.__file__}, not from {SRC}")
    return SimpleNamespace(
        tpn=tpn,
        bio=importlib.import_module("tpnsynth.biomodels"),
        cli=importlib.import_module("tpnsynth.cli"),
    )


class Pass:
    """One timed pass over a workload's inputs; records outcomes and times.

    The items of a pass (queries, synthesis boxes, the CLI) run in segments
    of at least SEGMENT_S seconds, with the reference computation timed
    before the first segment and after each one. An item's time in
    reference units is its wall time divided by the mean of the two
    reference times around its segment, so that it follows the machine's
    speed within the pass.
    """

    def __init__(self, lib, inputs, tracer, jobs):
        self.lib, self.inputs, self.tr, self.jobs = lib, inputs, tracer, jobs
        self.attempted = 0
        self.failed = 0
        self.verdict_s = {}  # query label -> build + check seconds, one per round
        self.verdict_ref = {}  # query label -> the same in reference units
        self.verify_s = 0.0  # answer checks inside the pass, left out of run_s
        self.run_s = 0.0  # item wall time, without answer checks and references
        self.run_ref = 0.0  # the same in reference units
        self.refs = []  # reference seconds, one before and one after each segment
        self.answers = {}  # query label -> (holds, witness present, states, edges)
        self.synth_s = {}  # (box label, jobs) -> wall seconds
        self.results = {}  # (box label, jobs or "cli") -> list of valuation keys
        self._segment = []  # (seconds, query label or None, verdict seconds) since the last reference

    def reference(self):
        # Every segment and every reference starts from a collected heap.
        gc.collect()
        with self.tr.span("bench.reference"):
            self.refs.append(reference_s())
        if self._segment:
            ref = (self.refs[-2] + self.refs[-1]) / 2
            for dt, label, verdict in self._segment:
                self.run_ref += dt / ref
                if label is not None:
                    self.verdict_ref.setdefault(label, []).append(verdict / ref)
            self._segment = []

    def outcome(self, label, fn, query=None):
        """Run one compared item; a wrong answer or an exception fails it."""
        self.attempted += 1
        t0, verify0 = perf_counter(), self.verify_s
        try:
            problems = fn()
        except Exception:  # a crash is a failed item, not the end of the run
            traceback.print_exc(file=sys.stderr)
            problems = ["raised"]
        dt = perf_counter() - t0 - (self.verify_s - verify0)
        self.run_s += dt
        if query is not None and not problems:
            self._segment.append((dt, query, self.verdict_s[query][-1]))
        else:
            self._segment.append((dt, None, None))
        if sum(t for t, _, _ in self._segment) >= SEGMENT_S:
            self.reference()
        if problems:
            self.failed += 1
            print(f"MISMATCH {label}: {'; '.join(problems)}", file=sys.stderr)

    def query(self, q):
        tpn, tr = self.lib.tpn, self.tr
        with tr.span("bench.query", label=q.label, scale=q.scale) as attrs:
            c = tr.call("petri.instantiate", tpn.instantiate, q.net, q.valuation)
            t0 = perf_counter()
            with tr.span("statespace.build") as b:
                g = tpn.build(c, q.limits)
                b["states"] = len(g)
            with tr.span("tctl.check", scale=q.scale):
                v = tpn.check(c, g, q.formula)
            self.verdict_s.setdefault(q.label, []).append(perf_counter() - t0)
            t0 = perf_counter()
            with tr.span("bench.verify"):
                edges = g.edges
                b.update(edges=len(edges), complete=g.complete)
                attrs.update(states=len(g), horizon=q.horizon, product=len(g) * (q.horizon + 1))
                self.answers[q.label] = (v.holds, v.witness is not None, len(g), len(edges))
                problems = []
                if v.holds != q.holds:
                    problems.append(f"holds {v.holds}, expected {q.holds}")
                if (v.witness is not None) != q.witness:
                    problems.append(f"witness present {v.witness is not None}, expected {q.witness}")
                if q.counts is not None and (len(g), len(edges)) != q.counts:
                    problems.append(f"(states, edges) {(len(g), len(edges))}, expected {q.counts}")
                fired = {getattr(lab, "transition", None) for _, lab, _ in edges}
                if fired & set(q.never_fired):
                    problems.append(f"suppressed transitions fired: {sorted(fired & set(q.never_fired))}")
            self.verify_s += perf_counter() - t0
        return problems

    def synth(self, b, jobs):
        tpn = self.lib.tpn
        problem = tpn.SynthesisProblem(b.net, b.formula, b.box, b.limits)
        t0 = perf_counter()
        res = self.tr.call("synthesis.synthesize", tpn.synthesize, problem, jobs=jobs)
        self.synth_s[b.label, jobs] = perf_counter() - t0
        got = [valuation_key(v) for v in res.satisfying]
        self.results[b.label, jobs] = got
        problems = []
        if res.failures:
            problems.append(f"{len(res.failures)} valuations failed, first {res.failures[0]}")
        if res.explored != b.explored:
            problems.append(f"explored {res.explored}, expected {b.explored}")
        if frozenset(got) != b.expected:
            problems.append(f"{len(got)} satisfying, expected {len(b.expected)}")
        if jobs != 1 and got != self.results.get((b.label, 1)):
            problems.append(f"jobs {jobs} set differs from jobs 1")
        return problems

    def cli(self, b):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            code = self.tr.call("cli.main", self.lib.cli.main, list(b.cli_argv))
            self.synth_s[b.label, "cli"] = perf_counter() - t0
        if code != 0:
            return [f"cli exit code {code}"]
        got = [valuation_key(v) for v in json.loads(buf.getvalue())["result"]["satisfying"]]
        return [] if got == self.results.get((b.label, 1)) else ["cli set differs from jobs 1"]

    def run(self):
        self.reference()
        for _ in range(self.inputs.query_rounds):
            for q in self.inputs.queries:
                self.outcome(q.label, lambda: self.query(q), query=q.label)
        for jobs in sorted({1, self.jobs}):
            for b in self.inputs.boxes:
                self.outcome(f"{b.label} jobs={jobs}", lambda: self.synth(b, jobs))
        for b in self.inputs.boxes:
            if b.cli_argv:
                self.outcome(f"{b.label} cli", lambda: self.cli(b))
        if self._segment:
            self.reference()
        return self


def setup(name, seed, tracer, work_dir):
    t0 = perf_counter()
    with tracer.span("bench.setup"):
        lib = import_library()
        inputs = WORKLOADS[name](lib, random.Random(seed), tracer, work_dir)
    return lib, inputs, perf_counter() - t0


def measure(name, seed, seconds, traced, work_dir):
    tracer = Tracer(traced)
    setups = []
    setup_failures = []

    def timed_setup():
        tracer.enabled = traced
        tracer.run = f"setup-{len(setups)}"
        gc.collect()
        lib, inputs, dt = setup(name, seed, tracer, work_dir)
        setups.append(dt)
        setup_failures.extend(inputs.failures)
        return lib, inputs

    lib, inputs = timed_setup()
    jobs = len(os.sched_getaffinity(0))
    # One untimed warm-up pass; its answers are checked all the same. The
    # peak memory is read after it, before the repeated set-ups add their
    # garbage to the heap.
    tracer.enabled = False
    tracer.run = "warm-up"
    warm = Pass(lib, inputs, tracer, jobs).run()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = []
    walls = []
    # A traced run alternates untraced and traced passes so that the
    # difference of their medians is the tracing overhead.
    modes = [False, True] if traced else [False]
    start = perf_counter()
    while True:
        on = modes[len(passes) % len(modes)]
        tracer.enabled = on
        tracer.run = f"pass-{len(passes)}"
        gc.collect()
        t0 = perf_counter()
        with tracer.span("bench.pass"):
            p = Pass(lib, inputs, tracer, jobs).run()
        p.run_id, p.traced = tracer.run, on
        passes.append(p)
        walls.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        done = len(passes) >= len(modes) and elapsed + statistics.median(walls) > seconds
        # The set-ups are spread over the run, between passes, so that their
        # median samples the machine's speed throughout; each pass runs on
        # the latest set-up.
        while len(setups) < SETUPS and (done or len(setups) < 1 + (SETUPS - 1) * elapsed / seconds):
            lib, inputs = timed_setup()
        if done:
            break
    # Each set-up's netfile round trips count as one compared item.
    attempted = len(setups) + warm.attempted + sum(p.attempted for p in passes)
    failed = len(setup_failures) + warm.failed + sum(p.failed for p in passes)
    for msg in setup_failures:
        print(f"MISMATCH set-up: {msg}", file=sys.stderr)
    return SimpleNamespace(
        name=name, seed=seed, lib=lib, inputs=inputs, jobs=jobs, tracer=tracer, peak_rss_mb=peak_rss_mb,
        setups=setups, passes=passes, attempted=attempted, failed=failed,
    )


def verdict_total(passes, queries, unit):
    """Per query, the median over passes and rounds of build + check time
    (in seconds, or with ``unit="ref"`` in reference units); summed over
    the queries."""
    return sum(
        statistics.median(t for p in passes for t in getattr(p, f"verdict_{unit}")[q.label])
        for q in queries
    )


def end_to_end(run):
    """Pass times are in units of the reference computation (see
    bench/reference.py); set-up is in seconds."""
    return {
        "setup_s": (statistics.median(run.setups), "s"),
        "run_ref": (statistics.median(p.run_ref for p in run.passes), "ref"),
        "verdict_ref": (verdict_total(run.passes, run.inputs.queries, "ref"), "ref"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics from spans, plus two re-run probes.


def probe_successors(run):
    """Re-expand every state of each distinct query graph with
    semantics.successors; the edge total must match the graph."""
    tpn, tr = run.lib.tpn, run.tracer
    tr.run = "probe-successors"
    seen = set()
    states = 0
    for q in run.inputs.queries:
        key = (id(q.net), valuation_key(q.valuation))
        if key in seen:
            continue
        seen.add(key)
        c = tpn.instantiate(q.net, q.valuation)
        g = tpn.build(c, q.limits)
        with tr.span("semantics.successors", states=len(g)):
            n = sum(len(tpn.successors(c, s)) for s in g.states)
        states += len(g)
        if n != len(g.edges):
            run.failed += 1
            print(f"MISMATCH successors probe {q.label}: {n} != {len(g.edges)}", file=sys.stderr)
        run.attempted += 1
    return states


def probe_valuations(run):
    """Per-valuation instantiate/build/check split of every synthesis box;
    it must reproduce, in order, the satisfying set of synthesize."""
    tpn, tr = run.lib.tpn, run.tracer
    tr.run = "probe-valuations"
    busy = []
    points = 0
    synthesized = run.passes[-1].results
    for b in run.inputs.boxes:
        points += b.points
        vals = tr.call("synthesis.enumerate_valuations", lambda: list(
            tpn.enumerate_valuations(b.net.domain, b.box, order=b.net.parameters)))
        got = []
        for v in vals:
            t0 = perf_counter()
            with tr.span("bench.valuation"):
                c = tr.call("petri.instantiate", tpn.instantiate, b.net, v)
                g = tr.call("statespace.build", tpn.build, c, b.limits)
                if tr.call("tctl.check", tpn.check, c, g, b.formula).holds:
                    got.append(valuation_key(v))
            busy.append(perf_counter() - t0)
        run.attempted += 1
        if got != synthesized.get((b.label, 1)) or len(vals) != b.explored:
            run.failed += 1
            print(f"MISMATCH valuation probe {b.label}: {len(got)} satisfying", file=sys.stderr)
    return busy, points


def per_layer(run):
    tr = run.tracer
    tr.enabled = True
    succ_states = probe_successors(run)
    busy, points = probe_valuations(run)
    selfs = tr.self_times()

    def total(run_id, name=None, lay=None, **match):
        return sum(
            selfs[s["id"]]
            for s in tr.by_run(run_id)
            if (name is None or s["name"] == name)
            and (lay is None or layer(s["name"]) == lay)
            and all(s["attrs"].get(k) == v for k, v in match.items())
        )

    def attr_sum(run_id, name, key):
        return sum(s["attrs"].get(key, 0) for s in tr.by_run(run_id) if s["name"] == name)

    traced = [p for p in run.passes if p.traced]
    plain = [p for p in run.passes if not p.traced]

    def med_pass(f):
        return statistics.median(f(p.run_id, p) for p in traced)

    def med_setup(f):
        return statistics.median(f(f"setup-{k}") for k in range(len(run.setups)))

    build_s = med_pass(lambda r, p: total(r, "statespace.build"))
    states = med_pass(lambda r, p: attr_sum(r, "statespace.build", "states"))
    succ_s = total("probe-successors", "semantics.successors")
    vals = sum(b.explored for b in run.inputs.boxes)
    j1 = med_pass(lambda r, p: sum(t for (_, j), t in p.synth_s.items() if j == 1))
    jn = med_pass(lambda r, p: sum(t for (_, j), t in p.synth_s.items() if j == run.jobs))
    cli_s = med_pass(lambda r, p: sum(t for (_, j), t in p.synth_s.items() if j == "cli"))
    cli_lib = med_pass(lambda r, p: sum(p.synth_s[b, 1] for (b, j) in p.synth_s if j == "cli"))
    busy_s = sum(busy)
    ms = sorted(1000 * t for t in busy)
    lib_self = med_pass(lambda r, p: sum(
        selfs[s["id"]] for s in tr.by_run(r) if layer(s["name"]) != BENCH))
    traced_run = statistics.median(p.run_s for p in traced)
    plain_run = statistics.median(p.run_s for p in plain)
    ref_s = statistics.median(r for p in run.passes for r in p.refs)
    values = {
        "statespace.build_s": (build_s, "s"),
        "statespace.states_per_s": (states / build_s, "1/s"),
        "statespace.states": (states, "count"),
        "statespace.edges": (med_pass(lambda r, p: attr_sum(r, "statespace.build", "edges")), "count"),
        "statespace.graphs": (med_pass(lambda r, p: len([
            s for s in tr.by_run(r) if s["name"] == "statespace.build"])), "count"),
        "statespace.incomplete_graphs": (med_pass(lambda r, p: len([
            s for s in tr.by_run(r) if s["name"] == "statespace.build" and not s["attrs"]["complete"]])), "count"),
        "semantics.successors_s": (succ_s, "s"),
        "semantics.successors_per_s": (succ_states / succ_s, "1/s"),
        "tctl.check_s": (med_pass(lambda r, p: total(r, "tctl.check")), "s"),
        "tctl.checks": (run.inputs.query_rounds * len(run.inputs.queries), "count"),
        "tctl.check_s.x1": (med_pass(lambda r, p: total(r, "tctl.check", scale=1)), "s"),
        "tctl.check_s.x10": (med_pass(lambda r, p: total(r, "tctl.check", scale=10)), "s"),
        "tctl.check_s.x30": (med_pass(lambda r, p: total(r, "tctl.check", scale=30)), "s"),
        "petri.instantiate_s": (med_pass(lambda r, p: total(r, "petri.instantiate")), "s"),
        "synthesis.enumerate_s": (total("probe-valuations", "synthesis.enumerate_valuations"), "s"),
        "synthesis.box_points": (points, "count"),
        "synthesis.valuations": (vals, "count"),
        "synthesis.domain_hit_ratio": (vals / points if points else 0.0, "ratio"),
        "synthesis.driver_s": (j1 - busy_s if vals else 0.0, "s"),
        "synthesis.valuation_ms.p50": (statistics.median(ms) if ms else 0.0, "ms"),
        "synthesis.valuation_ms.p95": (ms[int(0.95 * (len(ms) - 1))] if ms else 0.0, "ms"),
        "synthesis.split.petri.instantiate_s": (total("probe-valuations", "petri.instantiate"), "s"),
        "synthesis.split.statespace.build_s": (total("probe-valuations", "statespace.build"), "s"),
        "synthesis.split.tctl.check_s": (total("probe-valuations", "tctl.check"), "s"),
        "synthesis.vals_per_s": (vals / j1 if vals else 0.0, "1/s"),
        "synthesis.vals_per_s_par": (vals / jn if vals else 0.0, "1/s"),
        "synthesis.parallel_efficiency": (j1 / (run.jobs * jn) if vals else 0.0, "ratio"),
        "synthesis.pool_idle_s": (run.jobs * jn - busy_s if vals else 0.0, "s"),
        "cli.synth_s": (cli_s, "s"),
        "cli.overhead_s": (cli_s - cli_lib, "s"),
        "netfile.parse_s": (med_setup(lambda r: total(r, "netfile.parse_net")), "s"),
        "netfile.serialize_s": (med_setup(lambda r: total(r, "netfile.serialize_net")), "s"),
        "biomodels.compose_s": (med_setup(lambda r: total(r, lay="biomodels")), "s"),
        "tctl.parse_s": (med_setup(lambda r: total(r, "tctl.parse_formula")), "s"),
        "bench.run_s": (plain_run, "s"),
        "bench.verdict_s": (verdict_total(plain, run.inputs.queries, "s"), "s"),
        "bench.reference_s": (ref_s, "s"),
        # in reference units, which the machine's speed moves less, then seconds
        "trace.overhead_s": ((statistics.median(p.run_ref for p in traced)
                              - statistics.median(p.run_ref for p in plain)) * ref_s, "s"),
        "trace.unaccounted_s": (traced_run - lib_self, "s"),
    }
    OUT.mkdir(exist_ok=True)
    tr.dump(
        OUT / f"trace-{run.name}-seed{run.seed}.json",
        workload=run.name,
        seed=run.seed,
        nproc=run.jobs,
        python=platform.python_version(),
        source_sha256=source_digest(),
        products=[
            {"query": s["attrs"]["label"], "states": s["attrs"]["states"],
             "horizon": s["attrs"]["horizon"], "product": s["attrs"]["product"]}
            for s in tr.by_run(traced[0].run_id) if s["name"] == "bench.query"
        ],
        boxes=[{"box": b.label, "points": b.points, "valuations": b.explored} for b in run.inputs.boxes],
        metrics={k: v for k, (v, _) in values.items()},
    )
    return values


def source_digest():
    """Identifies the library code measured; the checkout is not a git repo."""
    h = hashlib.sha256()
    for path in sorted((SRC / "tpnsynth").glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "tpnsynth" / "__init__.py").is_file():
        print(f"error: no tpnsynth package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work_dir:
        run = measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace), work_dir)
    # Metrics of a run with wrong answers are not reported.
    metrics = {}
    if not run.failed:
        metrics = per_layer(run) if ns.trace else end_to_end(run)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
