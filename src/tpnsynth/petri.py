"""Core data model: nets with read and logical inhibitor arcs, parametric
firing intervals, linear parameter domains, and instantiation.

Conventions used throughout the package:

* a marking is a plain tuple of token counts aligned with ``net.places``;
* weight vectors (pre/post/read/inhibit) are dense tuples over the place
  list, one per transition, in the order of ``net.transitions``;
* an inhibitor weight of 0 means "no inhibitor arc on this place"; where
  the weight w is positive the transition is blocked once the place holds
  w or more tokens;
* a bound of a parametric interval (``Bound``) is a natural number (an
  ``int``) or a parameter name (a ``str`` matching ``NAME``, the net
  grammar's name rule);
* parameters take natural-number values only, while constraint
  coefficients and bounds may be rational.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import DomainError, IllFormedIntervalError, InputError, PreconditionError

INF = math.inf

Marking = tuple  # tuple[int, ...] aligned with Net.places
Valuation = Mapping[str, int]
Bound = Union[int, str]  # a natural number or a parameter name

NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # place, transition and parameter names
NAT = re.compile(r"[0-9]+")  # naturals in nets, formulas and flags: ASCII digits only

# the one comparison table for linear parameter constraints and GMEC atoms
RELATIONS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


@dataclass(frozen=True)
class TimeInterval:
    """An interval of natural time points, right endpoint possibly infinite.

    Unbounded intervals are always right-open; finite endpoints default to
    closed on both sides.
    """

    low: int
    high: Union[int, float]
    left_closed: bool = True
    right_closed: bool = True

    def __post_init__(self):
        if type(self.low) is not int or self.low < 0:
            raise InputError(f"interval low bound must be a natural number, got {self.low!r}")
        if self.high == INF:
            object.__setattr__(self, "right_closed", False)
        elif type(self.high) is not int or self.high < 0:
            raise InputError(f"interval high bound must be a natural number or inf, got {self.high!r}")
        elif self.low > self.high:
            raise IllFormedIntervalError(f"interval low {self.low} exceeds high {self.high}")

    @property
    def unbounded(self) -> bool:
        return self.high == INF

    def int_low(self) -> int:
        """Smallest integer contained in the interval."""
        return self.low if self.left_closed else self.low + 1

    def int_high(self) -> Union[int, float]:
        """Largest integer contained, inf when unbounded."""
        if self.unbounded:
            return INF
        return self.high if self.right_closed else self.high - 1

    def contains(self, x: int) -> bool:
        return self.int_low() <= x and x <= self.int_high()

    @property
    def horizon(self) -> int:
        """Saturation class H: for every elapsed time c >= H, ``contains(c)``
        equals ``unbounded``, so time counters may be capped at H."""
        if self.unbounded:
            return self.int_low() + 1
        return max(self.int_high() + 1, 1)

    def __str__(self):
        lo = "[" if self.left_closed else "("
        hi = "]" if self.right_closed else ")"
        high = "inf" if self.unbounded else str(self.high)
        return f"{lo}{self.low},{high}{hi}"


def _check_bound(b) -> None:
    if isinstance(b, str):
        if not NAME.fullmatch(b) or b == "inf":
            raise InputError(f"interval bound {b!r} is not a parameter name")
    elif type(b) is not int or b < 0:
        raise InputError(f"interval bound must be a natural number or a parameter name, got {b!r}")


@dataclass(frozen=True)
class ParamInterval:
    """Parametric static firing interval ``[low, high]``; ``high=None``
    (``inf`` on construction) means the unbounded ``[low, inf)``."""

    low: Bound
    high: Optional[Bound]

    def __post_init__(self):
        if self.high == INF:
            object.__setattr__(self, "high", None)
        _check_bound(self.low)
        if self.high is not None:
            _check_bound(self.high)

    def evaluate(self, v: Valuation) -> TimeInterval:
        lo, hi = self.low, self.high
        try:
            if isinstance(lo, str):
                lo = v[lo]
            if isinstance(hi, str):
                hi = v[hi]
        except KeyError as exc:
            raise InputError(f"valuation missing parameter {exc.args[0]!r}") from None
        if hi is None:
            return TimeInterval(lo, INF)
        if lo > hi:
            raise IllFormedIntervalError(f"interval {self} evaluates to [{lo},{hi}]")
        return TimeInterval(lo, hi)

    def referenced_params(self) -> set:
        return {b for b in (self.low, self.high) if isinstance(b, str)}

    def __str__(self):
        return f"[{self.low},{'inf' if self.high is None else self.high}]"


@dataclass(frozen=True)
class LinearConstraint:
    """Σ a_i·λ_i ∼ b with rational coefficients and one of <,<=,=,>=,>."""

    coeffs: tuple  # tuple[(param, Fraction), ...]
    rel: str
    bound: Fraction

    @classmethod
    def make(cls, coeffs: Mapping[str, object], rel: str, bound) -> "LinearConstraint":
        if rel not in RELATIONS:
            raise InputError(f"unknown relation {rel!r}")
        items = tuple((p, Fraction(c)) for p, c in coeffs.items())
        return cls(items, rel, Fraction(bound))

    @cached_property
    def _scaled(self):
        """Coefficients and bound times the LCM of their denominators, so
        that integer valuations are compared exactly in integers."""
        scale = math.lcm(self.bound.denominator, *(c.denominator for _, c in self.coeffs))
        coeffs = tuple((p, int(c * scale)) for p, c in self.coeffs)
        return coeffs, int(self.bound * scale), RELATIONS[self.rel]

    def evaluate(self, v: Valuation) -> bool:
        coeffs, bound, rel = self._scaled
        total = 0
        for p, c in coeffs:
            if p not in v:
                raise InputError(f"valuation missing parameter {p!r}")
            total += c * v[p]
        return rel(total, bound)

    def params(self) -> set:
        return {p for p, _ in self.coeffs}

    def __str__(self):
        """The ``.tpnet`` ``domain`` syntax: ``-1*x + 2*y - 1/2*z <= 3/2``."""
        terms = []
        for i, (p, c) in enumerate(self.coeffs):
            sign, mag = ("", c) if i == 0 else (" - ", -c) if c < 0 else (" + ", c)
            terms.append(f"{sign}{'' if mag == 1 else f'{mag}*'}{p}")
        return f"{''.join(terms)} {self.rel} {self.bound}"


@dataclass(frozen=True)
class ParamDomain:
    """Conjunction of linear constraints; empty means unconstrained."""

    constraints: tuple = ()

    def contains(self, v: Valuation) -> bool:
        return all(c.evaluate(v) for c in self.constraints)


@dataclass(frozen=True)
class Net:
    """A parametric net: places, transitions, four arc functions, initial
    marking, parametric intervals, and a parameter domain."""

    places: tuple
    transitions: tuple
    parameters: tuple
    pre: tuple
    post: tuple
    read: tuple
    inhibit: tuple
    initial: Marking
    intervals: tuple  # ParamInterval per transition
    domain: ParamDomain = field(default_factory=ParamDomain)

    @cached_property
    def place_index(self):
        return {p: i for i, p in enumerate(self.places)}

    @cached_property
    def transition_index(self):
        return {t: i for i, t in enumerate(self.transitions)}

    def transition_number(self, t: str) -> int:
        """The index of transition ``t``; InputError for an unknown name."""
        if t not in self.transition_index:
            raise InputError(f"unknown transition {t!r}")
        return self.transition_index[t]

    @cached_property
    def fixed_intervals(self) -> tuple:
        """The TimeInterval of each interval that no parameter bounds, made
        once; None for each parametric one, which ``instantiate`` evaluates."""
        return tuple([None if iv.referenced_params() else iv.evaluate({}) for iv in self.intervals])

    @cached_property
    def steps(self) -> "StepTable":
        """The net's step table, built once; raises InputError when
        ``validate_net`` finds the net ill formed."""
        return StepTable(self)

    def marking(self, tokens: Mapping[str, int]) -> Marking:
        """Dense marking tuple from a sparse place->count mapping."""
        for p in tokens:
            if p not in self.place_index:
                raise InputError(f"unknown place {p!r}")
        return tuple(tokens.get(p, 0) for p in self.places)

    def marking_dict(self, m: Marking) -> dict:
        return {p: m[i] for i, p in enumerate(self.places)}


@dataclass(frozen=True)
class ConcreteNet(Net):
    """A net whose intervals are concrete TimeIntervals; parameters and
    domain are empty."""


class StepTable:
    """Sparse per-transition arcs of a net, computed once per net
    (``Net.steps``) and shared by every enabledness test and firing.

    ``np`` and ``nt`` count the places and transitions. Per transition t,
    indexed by position in ``net.transitions``:

    * ``need[t]``: (place, max(pre, read)) pairs with a positive weight;
    * ``inhibit[t]``: (place, threshold) pairs of its inhibitor arcs;
    * ``delta[t]``: (place, post - pre) pairs where the change is nonzero,
      which ``fired`` adds to a marking.

    Nothing in a table depends on a valuation, so every instance of a
    parametric net (``instantiate``) steps on the net's own table, which is
    built, and the net validated, once.

    The table also interns the markings its net reaches: ``markings[id]``
    is a marking tuple, ``mindex`` maps it back to its id,
    ``enabled_at[id]`` holds the sorted indices of the transitions it
    enables, tested once, on first sight, and ``peak[id]`` its largest
    token count. The initial marking has id 0. ``masks`` maps a key's
    field width to the ``semantics._fire_masks`` made at that width, which
    read no bound. ``props`` caches constraint values for the checker:
    it maps a ``Gmec`` to ``{marking id: 0 or 1}``, values only, so the
    table still pickles.
    """

    def __init__(self, n: Net):
        diags = validate_net(n)
        if diags:
            raise InputError("; ".join(diags))
        self.np, self.nt = len(n.places), len(n.transitions)
        places = range(self.np)
        self.need = tuple(
            tuple((p, max(pre[p], read[p])) for p in places if pre[p] or read[p])
            for pre, read in zip(n.pre, n.read)
        )
        self.inhibit = tuple(tuple((p, w[p]) for p in places if w[p]) for w in n.inhibit)
        self.delta = tuple(
            tuple((p, post[p] - pre[p]) for p in places if post[p] != pre[p])
            for pre, post in zip(n.pre, n.post)
        )
        self.markings, self.mindex, self.enabled_at, self.peak, self.masks, self.props = [], {}, [], [], {}, {}
        self.intern(tuple(n.initial))

    def intern(self, m: tuple) -> int:
        """The id of marking tuple m, given, and its transitions tested,
        on first sight."""
        mid = self.mindex.get(m)
        if mid is None:
            mid = self.mindex[m] = len(self.markings)
            self.markings.append(m)
            self.enabled_at.append(tuple([t for t in range(self.nt) if self.enabled(m, t)]))
            self.peak.append(max(m, default=0))
        return mid

    def fired(self, m, t: int) -> tuple:
        """The marking that firing t at marking tuple m leads to."""
        m2 = list(m)
        for p, d in self.delta[t]:
            m2[p] += d
        return tuple(m2)

    def enabled(self, m, t: int) -> bool:
        for p, w in self.need[t]:
            if m[p] < w:
                return False
        for p, w in self.inhibit[t]:
            if m[p] >= w:
                return False
        return True


def _dense(weights: Optional[Mapping[str, int]], places, what: str, trans: str):
    weights = weights or {}
    for p, w in weights.items():
        if p not in places:
            raise InputError(f"transition {trans!r}: {what} arc references unknown place {p!r}")
        if type(w) is not int or w < 0:
            raise InputError(f"transition {trans!r}: {what} weight for {p!r} must be a natural number")
    return tuple(weights.get(p, 0) for p in places)


def make_net(
    places: Sequence,
    transitions: Mapping[str, Mapping],
    parameters: Iterable[str] = (),
    constraints: Iterable[LinearConstraint] = (),
) -> Net:
    """Convenience constructor from sparse arc dictionaries.

    ``places`` is a sequence of (name, initial_tokens); ``transitions`` maps
    each name to a dict with optional keys pre/post/read/inhibit (sparse
    place->weight maps) and ``interval`` as a (low, high) pair of
    ``ParamInterval`` bounds. ``net_spec`` is the inverse.
    """
    place_names = tuple(p for p, _ in places)
    pre, post, read, inhibit, ivals = [], [], [], [], []
    for t, spec in transitions.items():
        pre.append(_dense(spec.get("pre"), place_names, "pre", t))
        post.append(_dense(spec.get("post"), place_names, "post", t))
        read.append(_dense(spec.get("read"), place_names, "read", t))
        inhibit.append(_dense(spec.get("inhibit"), place_names, "inhibit", t))
        lo, hi = spec.get("interval", (0, None))
        ivals.append(ParamInterval(lo, hi))
    net = Net(
        places=place_names,
        transitions=tuple(transitions),
        parameters=tuple(parameters),
        pre=tuple(pre),
        post=tuple(post),
        read=tuple(read),
        inhibit=tuple(inhibit),
        initial=tuple(tok for _, tok in places),
        intervals=tuple(ivals),
        domain=ParamDomain(tuple(constraints)),
    )
    diags = validate_net(net)
    if diags:
        raise InputError("; ".join(diags))
    return net


def net_spec(n: Net):
    """The inverse of ``make_net``: ``(places, transitions, parameters,
    constraints)`` with only the nonzero arcs, so that
    ``make_net(*net_spec(n)) == n``. The intervals of a concrete net come
    back as their (closed or right-unbounded) bounds, so that
    ``instantiate(make_net(*net_spec(c)), {}) == c``."""
    transitions = {}
    for i, t in enumerate(n.transitions):
        spec = {}
        for what, vecs in (("pre", n.pre), ("post", n.post), ("read", n.read), ("inhibit", n.inhibit)):
            arcs = {p: w for p, w in zip(n.places, vecs[i]) if w}
            if arcs:
                spec[what] = arcs
        iv = n.intervals[i]
        spec["interval"] = (iv.low, None if iv.high is None or iv.high == INF else iv.high)
        transitions[t] = spec
    return list(zip(n.places, n.initial)), transitions, list(n.parameters), list(n.domain.constraints)


# ---------------------------------------------------------------------------
# Operations


def eval_constraint(c: LinearConstraint, v: Valuation) -> bool:
    return c.evaluate(v)


def domain_contains(d: ParamDomain, v: Valuation) -> bool:
    return d.contains(v)


def implicit_domain(n: Net) -> ParamDomain:
    """The net's domain plus low <= high for every parametric interval: a
    valuation outside it has no instance (``instantiate`` raises
    IllFormedIntervalError), just as one outside the declared domain."""
    extra = []
    for iv in n.intervals:
        if not isinstance(iv, ParamInterval) or iv.high is None:
            continue
        coeffs, bound = {}, 0
        for b, sign in ((iv.high, 1), (iv.low, -1)):
            if isinstance(b, str):
                coeffs[b] = coeffs.get(b, 0) + sign
            else:
                bound -= sign * b
        if any(coeffs.values()):
            extra.append(LinearConstraint.make(coeffs, ">=", bound))
    return ParamDomain(n.domain.constraints + tuple(extra))


def instantiate(n: Net, v: Valuation) -> ConcreteNet:
    """Evaluate every parametric interval at ``v``; structure is unchanged,
    and the constant intervals are the net's own (``Net.fixed_intervals``).

    The instance steps on ``n.steps``, the net's own table. An ill-formed
    ``n`` has no table, so its instance gets its own, and with it its own
    diagnostics, when first stepped."""
    if isinstance(n, ConcreteNet):
        raise InputError("a concrete net is an instance already: step it as it is")
    for p in n.parameters:
        if p not in v:
            raise InputError(f"valuation missing parameter {p!r}")
    if not domain_contains(n.domain, v):
        raise DomainError(f"valuation {dict(v)} violates the parameter domain")
    c = ConcreteNet(
        places=n.places,
        transitions=n.transitions,
        parameters=(),
        pre=n.pre,
        post=n.post,
        read=n.read,
        inhibit=n.inhibit,
        initial=n.initial,
        intervals=tuple([j.evaluate(v) if iv is None else iv for iv, j in zip(n.fixed_intervals, n.intervals)]),
        domain=ParamDomain(),
    )
    try:
        vars(c)["steps"] = n.steps  # fills the cached_property
    except InputError:
        pass
    return c


def enabled_set(n: Net, m: Marking) -> set:
    """Transitions enabled at m: m >= pre, m >= read, and every inhibitor
    place strictly below its threshold."""
    if len(m) != len(n.places):
        raise InputError("marking length does not match place count")
    enabled = n.steps.enabled
    return {t for i, t in enumerate(n.transitions) if enabled(m, i)}


def newly_enabled_set(n: Net, m: Marking, fired: str) -> set:
    """Transitions whose enabling is created by firing ``fired`` from m:
    enabled at the successor marking and either equal to the fired
    transition or not enabled at m."""
    ti = n.transition_number(fired)
    before = enabled_set(n, m)
    if fired not in before:
        raise PreconditionError(f"transition {fired!r} is not enabled at {m}")
    after = enabled_set(n, n.steps.fired(m, ti))
    return (after - before) | ({fired} & after)


def validate_net(n: Net) -> list:
    """Structural diagnostics; an empty list means the net is well formed."""
    diags = []
    np, nt = len(n.places), len(n.transitions)
    if len(set(n.places)) != np:
        diags.append("duplicate place name")
    if len(set(n.transitions)) != nt:
        diags.append("duplicate transition name")
    if len(set(n.parameters)) != len(n.parameters):
        diags.append("duplicate parameter name")
    if set(n.places) & set(n.transitions):
        diags.append("place and transition names must be disjoint")
    if len(n.initial) != np:
        diags.append("initial marking length does not match place count")
    elif any(type(x) is not int or x < 0 for x in n.initial):
        diags.append("initial marking has a negative or non-integer count")
    for what, vecs in (("pre", n.pre), ("post", n.post), ("read", n.read), ("inhibit", n.inhibit)):
        if len(vecs) != nt:
            diags.append(f"{what} vector count does not match transition count")
            continue
        for t, vec in zip(n.transitions, vecs):
            if len(vec) != np:
                diags.append(f"transition {t!r}: incomplete {what} weight vector")
            elif any(type(w) is not int or w < 0 for w in vec):
                diags.append(f"transition {t!r}: negative {what} weight")
    if len(n.intervals) != nt:
        diags.append("interval count does not match transition count")
    else:
        declared = set(n.parameters)
        for t, ival in zip(n.transitions, n.intervals):
            if isinstance(ival, ParamInterval):
                for p in ival.referenced_params():
                    if p not in declared:
                        diags.append(f"transition {t!r}: unknown parameter {p!r} in interval")
                lo, hi = ival.low, ival.high
                if isinstance(lo, int) and isinstance(hi, int) and lo > hi:
                    diags.append(f"transition {t!r}: interval low exceeds high")
            elif isinstance(ival, TimeInterval):
                if not isinstance(n, ConcreteNet):
                    diags.append(f"transition {t!r}: concrete interval in a parametric net")
            else:
                diags.append(f"transition {t!r}: bad interval object")
    declared = set(n.parameters)
    for c in n.domain.constraints:
        if not c.coeffs:
            diags.append("domain constraint has no parameter terms")  # the reader's rule: serialize_net round-trips
        for p in c.params():
            if p not in declared:
                diags.append(f"domain constraint references unknown parameter {p!r}")
    return diags
