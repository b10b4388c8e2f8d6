"""Integer parameter synthesis: enumerate valuations in a box, check each
instantiated net, and summarize the satisfying set.

Enumeration is exhaustive over the integer points of the box that satisfy
the net's domain constraints and give every interval low <= high; the
case-study boxes are small enough that this is exact and fast. Sweeps are
embarrassingly parallel; results are merged in enumeration order so the
output is independent of worker count.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

from .errors import InputError, KBoundError, TpnError
from .petri import Net, ParamDomain, domain_contains, implicit_domain, instantiate
from .statespace import ExploreLimits, build
from .tctl import Formula, check, check_formula_places


@dataclass(frozen=True)
class SynthesisProblem:
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
        check_formula_places(self.formula, self.net)


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
        verdict = check(concrete, graph, p.formula, leadsto=p.leadsto)
        return verdict.holds, None
    except KBoundError as exc:
        return False, f"k-bound: {exc}"
    except TpnError as exc:
        return False, f"{type(exc).__name__}: {exc}"


def synthesize(p: SynthesisProblem, jobs: int = 1) -> SynthesisResult:
    vals = list(enumerate_valuations(implicit_domain(p.net), p.box, order=p.net.parameters))
    one = functools.partial(check_valuation, p)
    if jobs > 1 and len(vals) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, vals, chunksize=max(1, len(vals) // (4 * jobs))))
    else:
        results = map(one, vals)
    satisfying, failures = [], []
    for v, (holds, err) in zip(vals, results):
        if err is not None:
            failures.append((v, err))
        elif holds:
            satisfying.append(v)
    summary, box_exact = summarize(satisfying, list(p.net.parameters) or sorted(p.box))
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
