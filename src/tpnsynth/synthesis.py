"""Integer parameter synthesis: enumerate valuations in a box, check the
net at each, and summarize the satisfying set.

Every integer point of the box that satisfies the net's domain constraints
and gives every interval low <= high is checked. Enumeration is directed
by the constraints: each parameter in turn is bounded from them and from
the box ranges of the parameters still to assign, so only domain points
are generated, in lexicographic order, and no box point is tested and
thrown away; a sweep checks at most ``MAX_VALUATIONS``. What does not
depend on the valuation is done once per problem: the formula is compiled
into one check plan (``SynthesisProblem.plan``), and every valuation
steps on the net's one table (``Net.steps``) and on one key layout per
share of the box, made once, so a valuation costs its bounds, at most one
graph and one check of what its verdict needs, and no instance. The unit
of work, a worker's share of domain points (``check_chunk``, which takes no
other valuation), reuses the verdict of a complete graph for every valuation
in the graph's range: one that agrees on the bounds of the transitions the
graph fires and is no smaller on the lows of those it leaves enabled builds
the same graph, so it needs no build or check.

Sweeps are embarrassingly parallel. The box is cut into one contiguous
share per worker, which checks it under one memo holding one entry per
graph it builds. One worker checks the whole box here; more share one
process pool kept per process, its modules imported by the first sweep that
needs one; a problem, plan and warm table included, pickles whole, so the
workers receive it with their share and hold no state between sweeps.
Results are merged in enumeration order, so the output is independent of
worker count.
"""

from __future__ import annotations

import atexit
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice
from typing import Mapping, Optional

from .errors import InputError, KBoundError, TpnError
from .petri import Net, ParamDomain, implicit_domain
from .semantics import Layout, thresholds, valued
from .statespace import ExploreLimits, explore
from .tctl import Formula, Plan, compile_plan, decide


@dataclass(frozen=True)
class SynthesisProblem:
    """A parametric net, a formula, the box to sweep and the exploration
    limits. A response in the formula is read as "ag"; pass ``desugar(phi,
    "paper")`` for the paper's reading. The net's step table is built and
    the formula compiled into ``plan`` on construction, so an ill-formed net
    or a formula the net cannot check is an InputError here rather than a
    failure per valuation. A problem pickles whole, table and plan included,
    so it can be sent to a worker process as it is."""

    net: Net
    formula: Formula
    box: Mapping[str, tuple]  # parameter -> (low, high), inclusive
    limits: ExploreLimits = field(default_factory=ExploreLimits)

    def __post_init__(self):
        missing = [p for p in self.net.parameters if p not in self.box]
        if missing:
            raise InputError(f"box does not cover parameters {missing}")
        unknown = [p for p in self.box if p not in self.net.parameters]
        if unknown:
            raise InputError(f"box mentions unknown parameters {unknown}")
        for p, pair in self.box.items():
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise InputError(f"bad box range for {p!r}: {pair!r} is not a (low, high) pair")
            lo, hi = pair
            if type(lo) is not int or type(hi) is not int or lo < 0 or lo > hi:
                raise InputError(f"bad box range for {p!r}: {lo!r}..{hi!r}")
            if hi - lo >= sys.maxsize:  # refused as input; a shorter range is walked lazily
                raise InputError(f"box range for {p!r} has more than {sys.maxsize} points: {lo}..{hi}")
        self.net.steps  # built now: an ill-formed net is an input error
        self.plan  # compiled now: a formula that does not compile is an input error

    @cached_property
    def plan(self) -> Plan:
        return compile_plan(self.net, self.formula)


@dataclass
class SynthesisResult:
    satisfying: list  # valuations (dicts) in enumeration order
    explored: int
    summary: dict  # parameter -> [min, max] over the satisfying set
    box_exact: bool
    failures: list  # (valuation, error message)

    def to_jsonable(self) -> dict:
        return {
            "satisfying": self.satisfying,
            "explored": self.explored,
            "summary": self.summary,
            "box_exact": self.box_exact,
            "failures": [{"valuation": v, "error": e} for v, e in self.failures],
        }


# Each relation as rows sign·Σ a_i·λ_i <= sign·b + shift, exact over the integers.
_AS_UPPER_BOUNDS = {"<": ((1, -1),), "<=": ((1, 0),), "=": ((1, 0), (-1, 0)), ">=": ((-1, 0),), ">": ((-1, -1),)}


def enumerate_valuations(d: ParamDomain, box: Mapping[str, tuple], order=None):
    """Integer points of the box satisfying every constraint, in
    lexicographic order of ``order`` (defaults to sorted names).

    The parameters are assigned depth first. Each constraint becomes one or
    two rows Σ a_i·λ_i <= b over its scaled integer coefficients, and a row
    bounds the next parameter by what is left of b after the terms already
    assigned and the least that the box allows the terms still to come. At
    a row's last parameter with a nonzero coefficient nothing is to come,
    so the bound is exact: every point reached is in the domain, and none
    is tested against it. A row with no nonzero coefficient is decided once."""
    params = list(order) if order is not None else sorted(box)
    if sorted(params) != sorted(box):  # each box parameter once: nothing dropped, unknown or repeated
        gap = sorted(set(box).difference(params))
        raise InputError(f"order missing parameter {gap[0]!r}" if gap else f"order {params} does not name the box parameters {sorted(box)} once each")
    ranges = [box[p] for p in params]
    at = {p: k for k, p in enumerate(params)}
    slack = []  # per row: b minus the terms of the parameters assigned so far
    levels = [[] for _ in params]  # per parameter: (row, a, least sum of the row's later terms)
    feasible = True
    for c in d.constraints:
        coeffs, bound, _ = c._scaled
        for p, _ in coeffs:
            if p not in at:
                raise InputError(f"valuation missing parameter {p!r}")
        for sign, shift in _AS_UPPER_BOUNDS[c.rel]:
            terms = sorted((at[p], sign * a) for p, a in coeffs if a)
            if not terms:
                feasible = feasible and sign * bound + shift >= 0
                continue
            rest = 0
            for k, a in reversed(terms):
                levels[k].append((len(slack), a, rest))
                rest += min(a * ranges[k][0], a * ranges[k][1])
            slack.append(sign * bound + shift)
    point = [0] * len(params)

    def walk(k):
        if k == len(params):
            yield dict(zip(params, point))
            return
        lo, hi = ranges[k]
        for row, a, rest in levels[k]:
            room = slack[row] - rest
            if a > 0:
                hi = min(hi, room // a)
            else:
                lo = max(lo, -(room // -a))
        for x in range(lo, hi + 1):
            point[k] = x
            for row, a, _ in levels[k]:
                slack[row] -= a * x
            yield from walk(k + 1)
            for row, a, _ in levels[k]:
                slack[row] += a * x

    if feasible:
        yield from walk(0)


_VERDICTS = ((False, None), (True, None))  # one shared result per verdict, whatever the box size


def check_chunk(p: SynthesisProblem, vals) -> list:
    """(holds, error) per valuation of ``vals``, in order, all on the one
    table of ``p.net``; exploration failures are data. Every valuation must
    be a point of ``enumerate_valuations(implicit_domain(p.net), p.box)``:
    it is stepped with no domain test, and its bounds fit the layout below.

    No valuation is instantiated: one key layout serves ``vals``, made for
    the box's upper corner, where no bound is smaller than at a box point,
    and a valuation only sets its bounds into it (``Layout.set_bounds``).

    One memo spans ``vals``, with one entry per complete graph built: its
    verdict with the range of valuations that build that graph; incomplete
    graphs, which ``decide`` refuses, and valuations that raise enter none.
    The graph fires the transitions that label its fire edges. Its range
    pins each parameter that bounds one of them, and floors each other
    parameter that is the low of a transition one of its markings enables:
    a valuation is in the range when it agrees on the pins and is no
    smaller on the floors. Every other parameter is free, including the
    high of a transition that never fires.

    The range is exact. ``successor_keys`` lists every fireable transition,
    so a transition that never fires kept its field below its low at every
    node: its low only failed comparisons, and its high was never read, as
    the ``continue`` comes before it. Nor was it the least in a
    ``delay_run``: the least is fireable at the run's end, which is a node.
    A larger low keeps all three, so the build visits the same states in
    the same order and makes the same ``succ``, weights included, ``mids``,
    ``inner`` and cap bookkeeping. The keys are the same too, as every
    graph of the sweep has the layout's width, and no verdict reads a key
    anyway. A verdict reads only the plan, ``succ``, node 0 and the
    markings, so the same verdict follows."""
    net, tab = p.net, p.net.steps
    params, ivs = net.parameters, net.intervals
    reads = [iv.referenced_params() for iv in ivs]  # per transition
    lows, highs = thresholds(ivs)
    top = {x: hi for x, (_, hi) in p.box.items()}  # the box's upper corner
    lay = Layout(tab, valued(lows, top), valued(highs, top))
    memo, results = {}, []  # (pin names, floor names) -> {pin values: [(floor values, verdict)]}
    for v in vals:
        holds = _in_range(memo, v)
        if holds is not None:
            results.append(_VERDICTS[holds])
            continue
        lay.set_bounds(valued(lows, v), valued(highs, v))
        try:
            graph = explore(net, lay, p.limits)
            holds = decide(graph, p.plan)
            fired = {t for outs in graph.succ for t, _ in outs if t >= 0}
            pinned = set().union(*[reads[t] for t in fired])
            enabled_lows = {ivs[t].low for m in set(graph.mids) for t in tab.enabled_at[m]}  # ints name no parameter
            pins = tuple([x for x in params if x in pinned])
            floors = tuple([x for x in params if x in enabled_lows and x not in pinned])
            ranges = memo.setdefault((pins, floors), {}).setdefault(tuple([v[x] for x in pins]), [])
            ranges.append((tuple([v[x] for x in floors]), holds))
            results.append(_VERDICTS[holds])
        except KBoundError as exc:
            results.append((False, f"k-bound: {exc}"))
        except TpnError as exc:
            results.append((False, f"{type(exc).__name__}: {exc}"))
    return results


def _in_range(memo: dict, v) -> Optional[bool]:
    """The verdict memoised for a range that holds v, or None."""
    for (pins, floors), ranges in memo.items():
        for lows, holds in ranges.get(tuple([v[x] for x in pins]), ()):
            if all([v[x] >= low for x, low in zip(floors, lows)]):
                return holds
    return None


MAX_VALUATIONS = 100_000  # largest number of domain points a sweep checks

# The process's sweep pool, as (workers, executor), kept between calls: a
# pool costs more to start than a small box costs to check.
_pool = None


def usable_cpus() -> int:
    """The CPUs this process may run on: the most workers a sweep starts,
    and the default worker count of the command line and the scripts."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@atexit.register
def _shut_pool_down():
    """Shut the kept pool down at exit, while the modules it needs are
    whole: they are imported after this one and torn down before it."""
    if _pool is not None:
        _pool[1].shutdown()


def _pool_map(p: SynthesisProblem, chunks: list, workers: int) -> list:
    """``check_chunk`` of each chunk in the kept pool, which is replaced
    first if it has a different worker count and dropped if it breaks. The
    pool's modules are imported here, by the first sweep that needs one."""
    global _pool
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if _pool is None or _pool[0] != workers:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = workers, ProcessPoolExecutor(max_workers=workers)
    try:
        return list(_pool[1].map(partial(check_chunk, p), chunks))
    except BrokenProcessPool:
        _pool = None  # a broken pool takes no more work; the next call starts a new one
        raise


def synthesize(p: SynthesisProblem, jobs: int = 1) -> SynthesisResult:
    """Check every valuation of the box in the implicit domain, in ``jobs``
    processes (at least 1), but never more than one per valuation or per
    usable CPU. A valuation whose check fails with a library error, such as
    a k-bound, is reported in ``failures`` rather than raised; a box of more
    than ``MAX_VALUATIONS`` is an InputError before any is checked. The box
    is cut into one contiguous share (``check_chunk``) per worker; one
    worker checks the whole box here, more their shares in the kept pool of
    their size, each share sent with the problem."""
    if type(jobs) is not int or jobs < 1:
        raise InputError(f"jobs must be an int of at least 1, got {jobs!r}")
    points = enumerate_valuations(implicit_domain(p.net), p.box, order=p.net.parameters)
    vals = list(islice(points, MAX_VALUATIONS + 1))
    if len(vals) > MAX_VALUATIONS:
        raise InputError(f"the box has more than {MAX_VALUATIONS} valuations in the domain")
    workers = max(1, min(jobs, len(vals), usable_cpus()))
    if workers == 1:
        results = [check_chunk(p, vals)]
    else:
        size = -(-len(vals) // workers)
        results = _pool_map(p, [vals[i : i + size] for i in range(0, len(vals), size)], workers)
    satisfying, failures = [], []
    for v, (holds, err) in zip(vals, (r for chunk in results for r in chunk)):
        if err is not None:
            failures.append((v, err))
        elif holds:
            satisfying.append(v)
    summary, box_exact = summarize(satisfying, p.net.parameters)
    return SynthesisResult(satisfying, len(vals), summary, box_exact, failures)


def summarize(satisfying, params):
    """Per-parameter [min, max] projections plus a flag telling whether the
    satisfying set is exactly the product of its projections."""
    if not satisfying:
        return {}, False
    summary = {}
    width = 1
    for p in params:
        values = [v[p] for v in satisfying]
        lo, hi = min(values), max(values)
        summary[p] = [lo, hi]
        width *= hi - lo + 1
    return summary, len(satisfying) == width
