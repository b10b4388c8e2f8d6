"""Integer parameter synthesis: enumerate valuations in a box, check each
instantiated net, and summarize the satisfying set.

Every integer point of the box that satisfies the net's domain constraints
and gives every interval low <= high is checked. Enumeration is directed
by the constraints: each parameter in turn is bounded from them and from
the box ranges of the parameters still to assign, so only domain points
are generated, in lexicographic order, and no box point is tested and
thrown away; a sweep checks at most ``MAX_VALUATIONS``. What does not
depend on the valuation is done once per problem: the formula is compiled
into one check plan (``SynthesisProblem.plan``), and every instance steps
on the net's one table (``Net.steps``), so a valuation costs one
instantiation, one graph and one check of what its verdict needs. Sweeps
are embarrassingly parallel. One process pool is kept per process and
reused by every sweep that needs its worker count; a problem, plan and warm
table included, is plain data that pickles whole, so the workers receive it
with each chunk of valuations and hold no state between sweeps. Results are
merged in enumeration order, so the output is independent of worker count.
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice
from typing import Mapping

from .errors import InputError, KBoundError, TpnError
from .petri import Net, ParamDomain, implicit_domain, instantiate
from .statespace import ExploreLimits, build
from .tctl import Formula, Plan, check, compile_plan


@dataclass(frozen=True)
class SynthesisProblem:
    """A parametric net, a formula, the box to sweep and the exploration
    limits. A response in the formula is read as "ag"; pass ``desugar(phi,
    "paper")`` for the paper's reading. The formula is compiled into
    ``plan`` on construction, so a formula the net cannot check is an
    InputError here rather than a failure per valuation. A problem pickles
    whole, plan included, so it can be sent to a worker process as it is."""

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
        for p, (lo, hi) in self.box.items():
            if lo < 0 or lo > hi:
                raise InputError(f"bad box range for {p!r}: {lo}..{hi}")
            if hi - lo >= sys.maxsize:  # refused as input; a shorter range is walked lazily
                raise InputError(f"box range for {p!r} has more than {sys.maxsize} points: {lo}..{hi}")
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


def check_valuation(p: SynthesisProblem, v):
    """(holds, error) for one valuation; exploration failures are data."""
    try:
        concrete = instantiate(p.net, v)
        graph = build(concrete, p.limits)
        return check(concrete, graph, p.plan).holds, None
    except KBoundError as exc:
        return False, f"k-bound: {exc}"
    except TpnError as exc:
        return False, f"{type(exc).__name__}: {exc}"


MAX_VALUATIONS = 100_000  # largest number of domain points a sweep checks

# The process's sweep pool, as (workers, executor), kept between calls: a
# pool costs more to start than a small box costs to check. The
# interpreter's exit joins it.
_pool = None
# Each chunk carries the pickled problem (2-4.5 KB on the case study, a few
# tenths of a millisecond to dump and load against about one per valuation),
# so a chunk holds at least this many valuations, unless that would leave a
# worker without one; a large box is cut into about four chunks per worker.
_MIN_CHUNK = 8


def _pool_of(workers: int) -> ProcessPoolExecutor:
    """The kept pool, replaced first if it has a different worker count."""
    global _pool
    if _pool is None or _pool[0] != workers:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = workers, ProcessPoolExecutor(max_workers=workers)
    return _pool[1]


def synthesize(p: SynthesisProblem, jobs: int = 1) -> SynthesisResult:
    """Check every valuation of the box in the implicit domain, in ``jobs``
    processes (at least 1). A valuation whose check fails with a library
    error, such as a k-bound, is reported in ``failures`` rather than
    raised; a box of more than ``MAX_VALUATIONS`` is an InputError before
    any is checked. With jobs > 1 the valuations go to a pool of one
    worker per valuation up to ``jobs``, kept for later calls of that size,
    and each chunk of valuations is sent with the problem."""
    global _pool
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    points = enumerate_valuations(implicit_domain(p.net), p.box, order=p.net.parameters)
    vals = list(islice(points, MAX_VALUATIONS + 1))
    if len(vals) > MAX_VALUATIONS:
        raise InputError(f"the box has more than {MAX_VALUATIONS} valuations in the domain")
    if jobs > 1 and len(vals) > 1:
        workers = min(jobs, len(vals))
        chunk = max(min(_MIN_CHUNK, -(-len(vals) // workers)), len(vals) // (4 * workers))
        pool = _pool_of(workers)
        try:
            results = list(pool.map(partial(check_valuation, p), vals, chunksize=chunk))
        except BrokenProcessPool:
            _pool = None  # a broken pool takes no more work; the next call starts a new one
            raise
    else:
        results = [check_valuation(p, v) for v in vals]
    satisfying, failures = [], []
    for v, (holds, err) in zip(vals, results):
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
