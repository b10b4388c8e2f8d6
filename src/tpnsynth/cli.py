"""Command-line front end.

Exit codes: 0 success / property holds, 1 property fails, 2 usage or input
error, 3 resource limit hit, 141 (128 + SIGPIPE) stdout closed by its reader.
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
    TpnError,
)
from .netfile import parse_net_file, serialize_net
from .petri import NAME, NAT, instantiate
from .semantics import Delay, initial_state, successors
from .statespace import ExploreLimits, build
from .synthesis import SynthesisProblem, synthesize, usable_cpus
from .tctl import check, compile_plan, desugar, format_formula, parse_formula, parse_formula_file
from .version import __version__

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer its reader left


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


def _nat(text: str, message: str, least: int = 0) -> int:
    """``text`` as an int of at least ``least`` when it is a natural
    (``petri.NAT``)."""
    if not NAT.fullmatch(text) or int(text) < least:
        raise InputError(message)
    return int(text)


def _count(least: int):
    """argparse type for the count flags, so a bad count is a usage error."""

    def parse(text: str) -> int:
        try:
            return _nat(text, f"expected a whole number of at least {least}, got {text!r}", least)
        except InputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _limits(ns) -> ExploreLimits:
    return ExploreLimits(k_bound=ns.k_bound, max_states=ns.max_states)


def _put_once(mapping, name, value, what):
    if name in mapping:
        raise InputError(f"parameter {name!r} is given more than once in {what}")
    mapping[name] = value


def _valuation(pairs, params):
    v = {}
    for item in pairs or []:
        for part in item.split(","):
            name, _, value = part.partition("=")
            value = _nat(value, f"bad valuation entry {part!r}, expected name=nat")
            name = name.strip()
            if name not in params:
                raise InputError(f"valuation names {name!r}, which the net does not declare")
            _put_once(v, name, value, "the valuation")
    return v


def _concrete(net, ns):
    return instantiate(net, _valuation(ns.valuation, net.parameters))


def _parse_box(items):
    box = {}
    for item in items or []:
        name, _, rng = item.partition("=")
        lo, _, hi = rng.partition("..")  # no ".." leaves hi empty
        message = f"bad box entry {item!r}, expected name=lo..hi"
        _put_once(box, name.strip(), (_nat(lo, message), _nat(hi, message)), "--box")
    return box


def _load_formula(ns):
    if ns.formula_text is not None:
        return parse_formula(ns.formula_text)
    return parse_formula_file(ns.formula)


_OBSERVERS = {  # kind: (argument count, None for any; constructor)
    "inhibit": (1, lambda a: biomodels.InhibitTransition(a[0])),
    "flag": (1, lambda a: biomodels.EventFlag(a[0])),
    "knockout": (None, lambda a: biomodels.KnockOut(tuple(a))),
    "lightdur": (1, lambda a: biomodels.LightDuration(_bound(a[0]))),
    "nightlight": (3, lambda a: biomodels.NightLight(_bound(a[0]), _bound(a[1]), _bound(a[2]))),
    "jetlag": (2, lambda a: biomodels.JetLag(_delay(a[0]), _delay(a[1]))),
}


def _delay(text):
    return _nat(text, f"bad observer delay {text!r}, expected a natural number")


def _bound(text):
    """A parametric observer delay: a parameter name or a natural number."""
    if NAME.fullmatch(text):
        return text
    return _nat(text, f"bad observer delay {text!r}, expected a natural number or a parameter name")


def _parse_observer(spec: str):
    kind, _, rest = spec.partition(":")
    if kind not in _OBSERVERS:
        raise InputError(f"unknown observer kind {kind!r} (choose from {sorted(_OBSERVERS)})")
    args = [a.strip() for a in rest.split(",")]  # at least one, maybe empty
    if "" in args:
        raise InputError(f"empty observer argument in {spec!r}")
    count, make = _OBSERVERS[kind]
    if count is not None and len(args) != count:
        raise InputError(f"observer {kind!r} takes {count} argument(s), got {len(args)} in {spec!r}")
    return make(args)


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
    parse_net_file(ns.net)  # raises on every diagnostic of validate_net
    report = _report(argv, [ns.net], {"diagnostics": []}, started)
    _emit(report, ns.format, ["ok"])
    return EXIT_OK


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
    plan = compile_plan(net, desugar(phi, ns.leadsto))
    graph = build(net, _limits(ns))
    verdict = check(net, graph, plan)
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
    problem = SynthesisProblem(net, desugar(phi, ns.leadsto), _parse_box(ns.box), _limits(ns))
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

    def common(p, with_limits=True, formats=("text", "json"), with_formula=False):
        p.add_argument("net", help="net file (.tpnet)")
        p.add_argument("--format", choices=formats, default="text")
        if with_limits:
            p.add_argument("--k-bound", type=_count(1), default=ExploreLimits().k_bound)
            p.add_argument("--max-states", type=_count(1), default=ExploreLimits().max_states)
        if with_formula:  # exactly one of the two
            one = p.add_mutually_exclusive_group(required=True)
            one.add_argument("--formula", help="formula file (.tctl)")
            one.add_argument("--formula-text", help="formula given inline")

    p = sub.add_parser("validate", help="check a net file for structural problems")
    common(p, with_limits=False)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("simulate", help="print a random timed trace")
    common(p, with_limits=False)
    p.add_argument("--steps", type=_count(0), default=20)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--valuation", "-v", action="append", metavar="NAME=NAT")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("graph", help="export the reachability graph as JSON")
    common(p)
    p.add_argument("--valuation", "-v", action="append", metavar="NAME=NAT")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("check", help="model check a formula")
    common(p, with_formula=True)
    p.add_argument("--valuation", "-v", action="append", metavar="NAME=NAT")
    p.add_argument("--leadsto", choices=["ag", "paper"], default="ag")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("synth", help="synthesize satisfying integer valuations")
    common(p, formats=("text", "json", "csv"), with_formula=True)
    p.add_argument("--box", action="append", metavar="NAME=LO..HI", required=True)
    p.add_argument("--jobs", type=_count(1), default=usable_cpus())
    p.add_argument("--leadsto", choices=["ag", "paper"], default="ag")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("compose", help="apply observers and write the result")
    p.add_argument("net", help="net file (.tpnet)")  # writes a net, so no --format
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
        code = ns.fn(ns, ["tpnsynth"] + argv, started)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return code
    except BrokenPipeError:  # not an input error: what is left to write goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the flush at exit cannot raise again
        os.close(devnull)
        return EXIT_PIPE
    except (KBoundError, IncompleteGraphError, HorizonError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (TpnError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
