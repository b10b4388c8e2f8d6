"""Integer parameter synthesis: enumerate valuations in a box, check each
instantiated net, and summarize the satisfying set.

Enumeration is exhaustive over the integer points of the box that satisfy
the net's domain constraints and give every interval low <= high; the
case-study boxes are small enough that this is exact and fast. What does
not depend on the valuation is done once per problem: the formula is
compiled into one check plan (``SynthesisProblem.plan``), and the net is
validated and its arcs tabled once (``Net.steps``), so a valuation costs
one instantiation, one graph and one labelling. Sweeps are embarrassingly
parallel; a problem, plan included, is plain data that pickles whole, so
pool workers receive it with their valuations, and results are merged in
enumeration order so the output is independent of worker count.
"""

from __future__ import annotations

import itertools
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Mapping

from .errors import InputError, KBoundError, TpnError
from .petri import Net, ParamDomain, domain_contains, implicit_domain, instantiate
from .statespace import ExploreLimits, build
from .tctl import Formula, Plan, check, compile_plan


@dataclass(frozen=True)
class SynthesisProblem:
    """A parametric net, a formula, the box to sweep, the exploration
    limits and the response reading. The formula is compiled into ``plan``
    on construction, so a formula the net cannot check is an InputError
    here rather than a failure per valuation. A problem pickles whole,
    plan included, so it can be sent to a worker process as it is."""

    net: Net
    formula: Formula
    box: Mapping[str, tuple]  # parameter -> (low, high), inclusive
    limits: ExploreLimits = field(default_factory=ExploreLimits)
    leadsto: str = "ag"

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
            if hi - lo >= sys.maxsize:  # a range longer than this has no len() to enumerate by
                raise InputError(f"box range for {p!r} has more than {sys.maxsize} points: {lo}..{hi}")
        self.plan  # compiled now: a formula that does not compile is an input error

    @cached_property
    def plan(self) -> Plan:
        return compile_plan(self.net, self.formula, self.leadsto)


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


def enumerate_valuations(d: ParamDomain, box: Mapping[str, tuple], order=None):
    """Integer points of the box satisfying every constraint, in
    lexicographic order of ``order`` (defaults to sorted names)."""
    params = list(order) if order is not None else sorted(box)
    ranges = [range(box[p][0], box[p][1] + 1) for p in params]
    for point in itertools.product(*ranges):
        v = dict(zip(params, point))
        if domain_contains(d, v):
            yield v


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


def synthesize(p: SynthesisProblem, jobs: int = 1) -> SynthesisResult:
    """Check every valuation of the box in the implicit domain, in ``jobs``
    processes (at least 1). A valuation whose check fails with a library
    error, such as a k-bound, is reported in ``failures`` rather than
    raised. With jobs > 1, at most one worker per valuation is started,
    and each chunk of valuations is sent with the problem."""
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    vals = list(enumerate_valuations(implicit_domain(p.net), p.box, order=p.net.parameters))
    if jobs > 1 and len(vals) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(vals))) as pool:
            results = list(pool.map(partial(check_valuation, p), vals, chunksize=max(1, len(vals) // (4 * jobs))))
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
