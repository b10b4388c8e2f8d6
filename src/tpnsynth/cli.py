"""Command-line front end.

Exit codes: 0 success / property holds, 1 property fails, 2 usage or input
error, 3 resource limit hit. ``TPNSYNTH_MAX_STATES`` overrides the default
state cap.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import sys
import time

from . import biomodels
from .errors import (
    HorizonError,
    IncompleteGraphError,
    InputError,
    KBoundError,
    OracleError,
    TpnError,
)
from .netfile import parse_net_file, serialize_net
from .petri import instantiate, validate_net
from .semantics import Delay, initial_state, successors
from .statespace import ExploreLimits, build
from .synthesis import SynthesisProblem, synthesize
from .tctl import format_formula, parse_formula, parse_formula_file
from .version import __version__

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _report(args, inputs, result, started):
    return {
        "command": " ".join(args),
        "version": __version__,
        "inputs": {p: _digest(p) for p in inputs},
        "result": result,
        "timing_ms": round(1000 * (time.monotonic() - started), 3),
    }


def _emit(report, fmt, text_lines):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _limits(ns) -> ExploreLimits:
    max_states = ns.max_states
    if max_states is None:
        max_states = int(os.environ.get("TPNSYNTH_MAX_STATES", 1_000_000))
    return ExploreLimits(k_bound=ns.k_bound, max_states=max_states)


def _valuation(pairs):
    v = {}
    for item in pairs or []:
        for part in item.split(","):
            name, _, value = part.partition("=")
            if not value or not value.lstrip("-").isdigit():
                raise InputError(f"bad valuation entry {part!r}, expected name=nat")
            v[name.strip()] = int(value)
    return v


def _concrete(net, ns):
    return instantiate(net, _valuation(getattr(ns, "valuation", None)))


def _parse_box(items):
    box = {}
    for item in items or []:
        name, _, rng = item.partition("=")
        lo, sep, hi = rng.partition("..")
        if not sep or not lo.isdigit() or not hi.isdigit():
            raise InputError(f"bad box entry {item!r}, expected name=lo..hi")
        box[name.strip()] = (int(lo), int(hi))
    return box


def _load_formula(ns):
    if ns.formula_text:
        return parse_formula(ns.formula_text)
    if not ns.formula:
        raise InputError("a formula file (--formula) or --formula-text is required")
    return parse_formula_file(ns.formula)


_OBSERVERS = {
    "inhibit": lambda a: biomodels.InhibitTransition(a[0]),
    "flag": lambda a: biomodels.EventFlag(a[0]),
    "knockout": lambda a: biomodels.KnockOut(tuple(a)),
    "lightdur": lambda a: biomodels.LightDuration(_bound(a[0])),
    "nightlight": lambda a: biomodels.NightLight(_bound(a[0]), _bound(a[1]), _bound(a[2])),
    "jetlag": lambda a: biomodels.JetLag(int(a[0]), int(a[1])),
}


def _bound(text):
    return int(text) if text.isdigit() else text


def _parse_observer(spec: str):
    kind, _, rest = spec.partition(":")
    if kind not in _OBSERVERS:
        raise InputError(f"unknown observer kind {kind!r} (choose from {sorted(_OBSERVERS)})")
    args = [a.strip() for a in rest.split(",") if a.strip()]
    try:
        return _OBSERVERS[kind](args)
    except (IndexError, ValueError):
        raise InputError(f"bad observer arguments in {spec!r}")


def _marking_json(net, marking):
    return {p: c for p, c in zip(net.places, marking) if c}


def _clocks_json(net, state):
    return {
        net.transitions[i]: str(c) for i, c in enumerate(state.clocks) if c is not None
    }


def _label_json(label):
    if isinstance(label, Delay):
        return {"delay": label.amount}
    return {"fire": label.transition}


def cmd_validate(ns, argv, started):
    net = parse_net_file(ns.net)
    diags = validate_net(net)
    report = _report(argv, [ns.net], {"diagnostics": diags}, started)
    _emit(report, ns.format, diags or ["ok"])
    return EXIT_OK if not diags else EXIT_INPUT


def cmd_simulate(ns, argv, started):
    net = _concrete(parse_net_file(ns.net), ns)
    rng = random.Random(ns.seed)
    state = initial_state(net)
    trace = []
    now = 0
    for _ in range(ns.steps):
        options = successors(net, state)
        if not options:
            break
        label, state = rng.choice(options)
        if isinstance(label, Delay):
            now += label.amount
        trace.append({"time": now, "label": _label_json(label), "marking": _marking_json(net, state.marking)})
    report = _report(argv, [ns.net], {"seed": ns.seed, "trace": trace}, started)
    lines = [
        f"t={step['time']:<4} {json.dumps(step['label']):<24} {step['marking']}"
        for step in trace
    ]
    _emit(report, ns.format, lines)
    return EXIT_OK


def cmd_graph(ns, argv, started):
    net = _concrete(parse_net_file(ns.net), ns)
    graph = build(net, _limits(ns))
    nodes = [
        {"id": i, "marking": _marking_json(net, s.marking), "clocks": _clocks_json(net, s)}
        for i, s in enumerate(graph.states)
    ]
    edges = [
        {"source": i, "label": _label_json(label), "target": j}
        for i, label, j in graph.edges
    ]
    result = {
        "nodes": nodes,
        "edges": edges,
        "initial": graph.initial,
        "complete": graph.complete,
    }
    report = _report(argv, [ns.net], result, started)
    print(json.dumps(report if ns.format == "json" else result, indent=2, sort_keys=True))
    return EXIT_OK if graph.complete else EXIT_LIMIT


def cmd_check(ns, argv, started):
    net = _concrete(parse_net_file(ns.net), ns)
    phi = _load_formula(ns)
    graph = build(net, _limits(ns))
    from .tctl import check as run_check

    verdict = run_check(net, graph, phi, leadsto=ns.leadsto)
    witness = [_label_json(l) for l in verdict.witness] if verdict.witness is not None else None
    result = {
        "formula": format_formula(phi),
        "holds": verdict.holds,
        "witness": witness,
        "states": len(graph),
    }
    inputs = [ns.net] + ([ns.formula] if ns.formula else [])
    report = _report(argv, inputs, result, started)
    lines = [f"{'HOLDS' if verdict.holds else 'FAILS'}  {result['formula']}"]
    if witness is not None:
        lines.append(f"witness: {json.dumps(witness)}")
    _emit(report, ns.format, lines)
    return EXIT_OK if verdict.holds else EXIT_FAILS


def cmd_synth(ns, argv, started):
    net = parse_net_file(ns.net)
    phi = _load_formula(ns)
    problem = SynthesisProblem(net, phi, _parse_box(ns.box), _limits(ns), leadsto=ns.leadsto)
    result = synthesize(problem, jobs=ns.jobs)
    inputs = [ns.net] + ([ns.formula] if ns.formula else [])
    if ns.format == "csv":
        buf = io.StringIO()
        params = list(net.parameters)
        writer = csv.writer(buf)
        writer.writerow(params)
        for v in result.satisfying:
            writer.writerow([v[p] for p in params])
        print(buf.getvalue(), end="")
        for v, err in result.failures:
            where = ",".join(f"{p}={v[p]}" for p in params)
            print(f"failure: {where}: {err}", file=sys.stderr)
    else:
        payload = result.to_jsonable()
        report = _report(argv, inputs, payload, started)
        lines = [
            f"explored {result.explored} valuations, {len(result.satisfying)} satisfying",
            f"summary: {result.summary} (box-exact: {result.box_exact})",
        ]
        if result.failures:
            lines.append(f"failures: {len(result.failures)} (first: {result.failures[0]})")
        _emit(report, ns.format, lines)
    # a valuation cut short by a resource cap leaves the set incomplete
    return EXIT_LIMIT if result.failures else EXIT_OK


def cmd_compose(ns, argv, started):
    net = parse_net_file(ns.net)
    for spec in ns.observer:
        net = biomodels.apply_observer(net, _parse_observer(spec))
    text = serialize_net(net)
    if ns.output:
        with open(ns.output, "w") as fh:
            fh.write(text)
        print(f"wrote {ns.output}")
    else:
        print(text, end="")
    return EXIT_OK


def _build_parser():
    top = argparse.ArgumentParser(prog="tpnsynth", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_limits=True):
        p.add_argument("net", help="net file (.tpnet)")
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        if with_limits:
            p.add_argument("--k-bound", type=int, default=8)
            p.add_argument("--max-states", type=int, default=None)

    p = sub.add_parser("validate", help="check a net file for structural problems")
    common(p, with_limits=False)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("simulate", help="print a random timed trace")
    common(p, with_limits=False)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--valuation", "-v", action="append", metavar="NAME=NAT")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("graph", help="export the reachability graph as JSON")
    common(p)
    p.add_argument("--valuation", "-v", action="append", metavar="NAME=NAT")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("check", help="model check a formula")
    common(p)
    p.add_argument("--formula", help="formula file (.tctl)")
    p.add_argument("--formula-text", help="formula given inline")
    p.add_argument("--valuation", "-v", action="append", metavar="NAME=NAT")
    p.add_argument("--leadsto", choices=["ag", "paper"], default="ag")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("synth", help="synthesize satisfying integer valuations")
    common(p)
    p.add_argument("--formula", help="formula file (.tctl)")
    p.add_argument("--formula-text")
    p.add_argument("--box", action="append", metavar="NAME=LO..HI", required=True)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--leadsto", choices=["ag", "paper"], default="ag")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("compose", help="apply observers and write the result")
    common(p, with_limits=False)
    p.add_argument(
        "--observer",
        action="append",
        required=True,
        metavar="KIND:ARGS",
        help="inhibit:t | flag:t | knockout:t1,t2 | lightdur:D | nightlight:T1,T2,T3 | jetlag:N,E",
    )
    p.add_argument("--output", "-o")
    p.set_defaults(fn=cmd_compose)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    started = time.monotonic()
    try:
        ns = parser.parse_args(argv)
        return ns.fn(ns, ["tpnsynth"] + argv, started)
    except (KBoundError, IncompleteGraphError, HorizonError, OracleError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (TpnError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
