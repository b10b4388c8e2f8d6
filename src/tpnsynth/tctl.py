"""Token-count constraints (GMEC), timed CTL formulas, their text parsers,
and the model checker over a reachability graph.

Formula text is split by one token regex and read by a recursive-descent
parser. A formula is checked through a plan (``compile_plan``), made once per
formula: the formula is desugared into its Prop/Not/Implies/EU/AU core
(``desugar``, the one reader of the response reading), a double negation
below the root's operands is dropped, equal subformulas are shared, and the
result is a postorder tuple of operators, plain data that pickles. The
checker decides Not and Implies at the initial node alone, an Implies with a
failing left side skipping its right side, and labels any other entry, on
first request, with a node set (below); Not is a ``translate`` of its flags
and Implies one ``map``. An ``E true U[0,inf) psi`` met there, the core of
an EF[0,inf), of an AG[0,inf) and of every response, is decided by one scan
of psi's node set, with no node set of its own: every node and every run
offset of a ``build`` graph is reachable from the initial node
(``ReachGraph``), so the until holds there exactly when psi holds anywhere.
The same entry below a temporal operator is labelled as any other.
A constraint is evaluated at most once per marking of the net's step table,
and cached there (``StepTable.props``), so a sweep over many valuations of one
net evaluates it once per distinct marking it reaches; each graph spreads
the values of its own marking ids to its nodes by ``ReachGraph.mids``, in
O(new markings + V).

Checking works per temporal operator over the folded graph (``statespace``):
a fire takes no time, a delay edge of weight w takes w units, and no fire
lies inside a run. A node set is a ``bytes`` of one flag (0 or 1) per node
and, for each run where it flips, the offsets from its source (1 to w-1) at
which it flips: a Prop never does, as a run keeps its marking. An until
costs O((a+1)(V+E)) for an interval whose least integer is a, whatever its
upper bound, where V and E count folded nodes and edges, a run's edge
weighted by its operands' flips. It is decided by one backward counter
resolution: a node needs one (E) or all (A) of its out-edges resolved, and
once it has them and satisfies phi it resolves and passes that on to its
predecessors. The psi-nodes, with what they resolve through fire edges,
form delay layer 0; layer t+1 is what the unit delays into layer t resolve,
the counts carrying over. A run's source is released by its run alone: into
layer p by a first psi offset p with phi before it, into layer t+w when phi
holds all along and the target resolves in layer t, never when phi breaks
first; releases wait in buckets by layer. Layers come in order of time, so
layer t holds the nodes whose earliest (E) or latest (A) arrival at psi is
t. A node that never resolves -- a dead end, on or leading to a
psi-avoiding cycle, or outside phi -- never arrives. An until over
``[0,b]`` holds at layers 0 to b, and over ``[0,inf)`` at every layer; the
walk is the same for both, jumps from an empty layer to the next waiting
release and stops when none waits, so an unbounded until resolves each node
once, the least fixpoint of the counts.
Along a run, walked back from its target, a psi offset is layer 0, a phi
offset one more than the next and any other never resolves, so the until
flips at most once per stretch of constant operands: a run released by its
target at layer t flips at offset t + w - b, when that lies inside it.

Any other interval, with integers a..b (b may be inf), is that until over
``[0, b-a]`` behind a delay pre-images; no layer holds when b < a, as in
``[a,a)``. Each delay adds exactly one unit, so a path whose psi-position
lies at time t >= a has a first position at time a; every earlier position
precedes the psi-position and satisfies phi, and the rest of the path is a
closed-0 until over the shifted interval. One pre-image is the same
resolution with fresh counts, started from the delay edges into the set
below it: the phi-nodes from which some (E) or every (A) path crosses fire
edges through phi-nodes and then takes one delay into that set; along a
run, phi at an offset and the set one offset on.
``MAX_DELAY_LAYERS`` bounds a, the number of pre-images, against a huge
lower bound typed in by a user; ``compile_plan`` refuses a larger a. On its
first until, the checker derives its fire and delay predecessor lists and
its runs from the graph's int edges (t = -1 a unit delay, t < -1 a run),
and they die with it. Witnesses walk the unit-step positions
(``ReachGraph.unit_view``), as on an unfolded graph.

Until is position-based: ``E phi U_I psi`` holds when some path reaches a
psi-state at an accumulated time inside I with phi true at every strictly
earlier position; the witness position itself need not satisfy phi.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Optional, Union

from .errors import (
    FormulaSyntaxError,
    HorizonError,
    IncompleteGraphError,
    InputError,
)
from .petri import INF, NAME, NAT, RELATIONS, ConcreteNet, Net, TimeInterval
from .semantics import step_labels
from .statespace import ReachGraph

# ---------------------------------------------------------------------------
# GMEC: boolean combinations of linear token-count constraints


@dataclass(frozen=True)
class Atom:
    """(sum of coeff * M(place)) rel bound, with integer coefficients and a
    natural bound."""

    coeffs: tuple  # tuple[(place, int), ...]
    rel: str
    bound: int

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise InputError(f"unknown relation {self.rel!r} in token-count constraint")


@dataclass(frozen=True)
class BoolOp:
    op: str  # 'and' | 'or' | 'implies'
    left: "Gmec"
    right: "Gmec"


Gmec = Union[Atom, BoolOp]

TRUE_GMEC = Atom((), ">=", 0)
FALSE_GMEC = Atom((), ">", 0)


def compile_gmec(index, phi: Gmec):
    """Closure evaluating the constraint on a marking whose count of each
    place is ``m[index[place]]``: ``index`` is ``net.place_index`` for the
    dense marking tuples of a net, or the keys of a place->count mapping
    mapped to themselves. This is the one resolver of formula place names:
    a place ``index`` lacks raises InputError."""
    if isinstance(phi, Atom):
        unknown = sorted({place for place, _ in phi.coeffs if place not in index})
        if unknown:
            raise InputError(f"formula references unknown places {unknown}")
        pairs = [(index[place], coeff) for place, coeff in phi.coeffs]
        rel, bound = RELATIONS[phi.rel], phi.bound
        return lambda m: rel(sum(c * m[k] for k, c in pairs), bound)
    left, right = compile_gmec(index, phi.left), compile_gmec(index, phi.right)
    if phi.op == "and":
        return lambda m: left(m) and right(m)
    if phi.op == "or":
        return lambda m: left(m) or right(m)
    return lambda m: (not left(m)) or right(m)


def eval_gmec(m, phi: Gmec) -> bool:
    """Evaluate against a place->count mapping."""
    return compile_gmec({p: p for p in m}, phi)(m)


def states_satisfying(g: ReachGraph, phi: Gmec) -> set:
    """Unit-step state indices whose marking satisfies the token-count
    constraint: a state inside a run has its target's marking."""
    flags = _nodes_where(g, phi)
    return {i for i, p in enumerate(g.positions()) if flags[p if type(p) is int else p[0]]}


def _nodes_where(g: ReachGraph, phi: Gmec) -> bytes:
    """One flag per node: 1 where its marking satisfies the constraint.
    Values come from ``StepTable.props``, the net's cache of constraint
    values per marking id; only the graph's own ids not cached yet are
    evaluated, and only the graph's own ids are read: the table also holds
    markings of other builds and State calls. The constraint is compiled
    against the place index of the net on its first sight in the table, so
    an unknown place raises InputError even on a graph without nodes."""
    tab, mids = g.net.steps, g.mids
    hit = tab.props.get(phi)
    new = set(mids).difference(hit or ())
    if hit is None or new:
        holds, markings = compile_gmec(g.net.place_index, phi), tab.markings
        hit = tab.props.setdefault(phi, {})
        hit.update((mid, holds(markings[mid])) for mid in new)
    return bytes(map(hit.__getitem__, mids))


# ---------------------------------------------------------------------------
# Formula AST


@dataclass(frozen=True)
class Prop:
    gmec: Gmec


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class EU:
    left: "Formula"
    interval: TimeInterval
    right: "Formula"


@dataclass(frozen=True)
class AU:
    left: "Formula"
    interval: TimeInterval
    right: "Formula"


@dataclass(frozen=True)
class EF:
    interval: TimeInterval
    sub: "Formula"


@dataclass(frozen=True)
class AF:
    interval: TimeInterval
    sub: "Formula"


@dataclass(frozen=True)
class EG:
    interval: TimeInterval
    sub: "Formula"


@dataclass(frozen=True)
class AG:
    interval: TimeInterval
    sub: "Formula"


@dataclass(frozen=True)
class LeadsTo:
    """Bounded response: whenever ``left`` holds, ``right`` within the
    interval. Operands are token-count constraints and the interval starts
    at a closed 0."""

    left: Gmec
    interval: TimeInterval
    right: Gmec


Formula = Union[Prop, Not, Implies, EU, AU, EF, AF, EG, AG, LeadsTo]


def land(a: Formula, b: Formula) -> Formula:
    return Not(Implies(a, Not(b)))


def lor(a: Formula, b: Formula) -> Formula:
    return Implies(Not(a), b)


def _check_leadsto_interval(iv: TimeInterval, pos=None):
    if iv.low != 0 or not iv.left_closed:
        raise FormulaSyntaxError("response interval must start at a closed 0", pos)


_READINGS = {"ag": AG, "paper": AF}  # response reading -> the operator around it


def desugar(phi: Formula, leadsto: str = "ag") -> Formula:
    """Rewrite derived operators into the Prop/Not/Implies/EU/AU core. This
    is the one place that reads the response ``a -->[0,m] b``: under
    ``leadsto="ag"``, the default and the reading of every other entry
    point, as AG[0,inf](a => AF[0,m] b); under ``"paper"`` with AF[0,inf]
    in place of that AG. Any other reading raises InputError."""
    if leadsto not in _READINGS:
        raise InputError(f"unknown response reading {leadsto!r}: expected 'ag' or 'paper'")
    true = Prop(TRUE_GMEC)
    if isinstance(phi, Prop):
        return phi
    if isinstance(phi, Not):
        return Not(desugar(phi.sub, leadsto))
    if isinstance(phi, Implies):
        left, right = desugar(phi.left, leadsto), desugar(phi.right, leadsto)
        if isinstance(left, Prop) and isinstance(right, Prop):
            # one constraint, as the parser reads `a => b` between constraints
            return Prop(BoolOp("implies", left.gmec, right.gmec))
        return Implies(left, right)
    if isinstance(phi, EU):
        return EU(desugar(phi.left, leadsto), phi.interval, desugar(phi.right, leadsto))
    if isinstance(phi, AU):
        return AU(desugar(phi.left, leadsto), phi.interval, desugar(phi.right, leadsto))
    if isinstance(phi, EF):
        return EU(true, phi.interval, desugar(phi.sub, leadsto))
    if isinstance(phi, AF):
        return AU(true, phi.interval, desugar(phi.sub, leadsto))
    if isinstance(phi, EG):
        return Not(AU(true, phi.interval, Not(desugar(phi.sub, leadsto))))
    if isinstance(phi, AG):
        return Not(EU(true, phi.interval, Not(desugar(phi.sub, leadsto))))
    if isinstance(phi, LeadsTo):
        _check_leadsto_interval(phi.interval)
        body = Implies(Prop(phi.left), AU(true, phi.interval, Prop(phi.right)))
        return desugar(_READINGS[leadsto](TimeInterval(0, INF), body), leadsto)
    raise InputError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Text parsers

_SYMBOLS = [
    "-->", "/\\", "\\/", "=>", "<=", ">=", "==", "(", ")", "[", "]", ",",
    "*", "+", "-", "<", ">", "=", "&", "|", "!",
]
_ALIASES = {"/\\": "&", "\\/": "|", "==": "="}
# one token after optional whitespace: the longest symbol, a natural or a
# name (ASCII only, as in nets), any other character being an error
_TOKEN = re.compile(
    r"\s*(?:(?P<sym>%s)|(?P<INT>%s)|(?P<NAME>%s)|(?P<bad>\S))"
    % ("|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))), NAT.pattern, NAME.pattern)
)


def _tokenize(text: str):
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        word, at = m[kind], m.start(kind)
        if kind == "sym":
            kind = word = _ALIASES.get(word, word)
        elif kind == "INT":
            word = int(word)
        elif kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {word!r}", pos=at)
        toks.append((kind, word, at))
    toks.append(("EOF", None, len(text)))
    return toks


class _Parser:
    """Recursive descent over the shared constraint/formula grammar.

    Each level returns a token-count constraint (``Atom``/``BoolOp``) while
    its text is a boolean combination of atoms; anything temporal, or
    negated, lifts it to a formula (``_prop``), and ``_combine`` joins two
    operands either way.
    """

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.formula_pos = None  # column of the first temporal or negation token

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def accept(self, kind):
        """Consume the next token if it is of ``kind``; None if not."""
        return self.next() if self.peek()[0] == kind else None

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, got {t[1]!r}", pos=t[2])
        return t

    def lifts(self, t):
        """Consume ``t``, a token that lifts the text to the formula level."""
        if self.formula_pos is None:
            self.formula_pos = t[2]
        self.next()

    # -- entry points

    def parse_gmec(self) -> Gmec:
        node = self.implication()
        self.expect("EOF")
        if not isinstance(node, Gmec):
            raise FormulaSyntaxError(
                "temporal or negation operators are not allowed here", self.formula_pos
            )
        return node

    def parse_formula(self) -> Formula:
        node = self.implication()
        self.expect("EOF")
        return _prop(node)

    # -- precedence levels

    def implication(self):
        left = self.disjunction()
        if self.accept("=>"):
            return _combine("implies", left, self.implication())  # right associative
        t = self.peek()
        if t[0] == "-->":
            self.lifts(t)
            iv = self.interval()
            _check_leadsto_interval(iv, t[2])
            right = self.disjunction()
            if not (isinstance(left, Gmec) and isinstance(right, Gmec)):
                raise FormulaSyntaxError(
                    "response operands must be plain token-count constraints", pos=t[2]
                )
            return LeadsTo(left, iv, right)
        return left

    def disjunction(self):
        node = self.conjunction()
        while self.accept("|"):
            node = _combine("or", node, self.conjunction())
        return node

    def conjunction(self):
        node = self.unary()
        while self.accept("&"):
            node = _combine("and", node, self.unary())
        return node

    def unary(self):
        t = self.peek()
        if t[0] == "!":
            self.lifts(t)
            return Not(_prop(self.unary()))
        if t[0] == "NAME" and t[1] in _PATH_OPERATORS:
            self.lifts(t)
            iv = self.interval()
            return _PATH_OPERATORS[t[1]](iv, _prop(self.unary()))
        if t[0] == "NAME" and t[1] in ("E", "A"):
            return self.until(t[1])
        if self.accept("("):
            node = self.implication()
            self.expect(")")
            return node
        return self.atom()

    def until(self, quantifier):
        self.lifts(self.peek())
        bracketed = self.accept("[")
        left = _prop(self.unary())
        t = self.next()
        if t[0] != "NAME" or t[1] != "U":
            raise FormulaSyntaxError("expected U in until formula", pos=t[2])
        iv = self.interval()
        right = _prop(self.unary())
        if bracketed:
            self.expect("]")
        return (EU if quantifier == "E" else AU)(left, iv, right)

    def interval(self) -> TimeInterval:
        t = self.next()
        if t[0] not in ("[", "("):
            raise FormulaSyntaxError("expected a time interval", pos=t[2])
        left_closed = t[0] == "["
        low = self.expect("INT")[1]
        self.expect(",")
        t = self.next()
        if t[0] == "NAME" and t[1] == "inf":
            high = INF
        elif t[0] == "INT":
            high = t[1]
        else:
            raise FormulaSyntaxError("expected an integer or inf", pos=t[2])
        t = self.next()
        if t[0] not in ("]", ")"):
            raise FormulaSyntaxError("unterminated interval", pos=t[2])
        right_closed = t[0] == "]" and high != INF
        try:
            return TimeInterval(low, high, left_closed, right_closed)
        except Exception as exc:
            raise FormulaSyntaxError(str(exc), pos=t[2])

    def atom(self) -> Atom:
        t = self.peek()
        if t[0] == "NAME" and t[1] in ("true", "false"):
            self.next()
            return TRUE_GMEC if t[1] == "true" else FALSE_GMEC
        coeffs, sign = {}, 1
        while True:  # [sign] term, then (sign term)*
            if self.peek()[0] in ("+", "-"):
                sign = 1 if self.next()[0] == "+" else -1
            coeff = 1
            if self.peek()[0] == "INT":
                coeff = self.next()[1]
                self.accept("*")
            t = self.next()
            if not (t[0] == "NAME" and t[1] == "M"):
                raise FormulaSyntaxError("expected a token-count term M(place)", pos=t[2])
            self.expect("(")
            place = self.expect("NAME")[1]
            self.expect(")")
            coeffs[place] = coeffs.get(place, 0) + sign * coeff
            if self.peek()[0] not in ("+", "-"):
                break
        t = self.next()
        if t[0] not in RELATIONS:
            raise FormulaSyntaxError("expected a comparison relation", pos=t[2])
        bound = self.expect("INT")[1]
        return Atom(tuple(sorted(coeffs.items())), t[0], bound)


_PATH_OPERATORS = {"EF": EF, "AF": AF, "EG": EG, "AG": AG}
_LIFTED = {"implies": Implies, "or": lor, "and": land}


def _combine(op: str, left, right):
    """``left op right`` for op 'implies', 'or' or 'and': one constraint
    when both operands are constraints, else a formula in the Not/Implies
    core."""
    if isinstance(left, Gmec) and isinstance(right, Gmec):
        return BoolOp(op, left, right)
    return _LIFTED[op](_prop(left), _prop(right))


def _prop(node) -> Formula:
    """A parsed node as a formula: a token-count constraint becomes a Prop."""
    return Prop(node) if isinstance(node, Gmec) else node


def parse_gmec(text: str) -> Gmec:
    return _Parser(text).parse_gmec()


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse_formula()


def parse_formula_file(path) -> Formula:
    """Parse a .tctl file; lines starting with # are comments."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().removeprefix("\ufeff").splitlines()  # a BOM is UTF-8, as in parse_net_file
    except UnicodeDecodeError as exc:
        raise InputError(f"formula file {str(path)!r} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    return parse_formula("\n".join(line for line in lines if not line.lstrip().startswith("#")))


def format_formula(phi: Formula) -> str:
    if isinstance(phi, Prop):
        return format_gmec(phi.gmec)
    if isinstance(phi, Not):
        return f"!({format_formula(phi.sub)})"
    if isinstance(phi, Implies):
        return f"({format_formula(phi.left)}) => ({format_formula(phi.right)})"
    if isinstance(phi, EU):
        return f"E ({format_formula(phi.left)}) U{phi.interval} ({format_formula(phi.right)})"
    if isinstance(phi, AU):
        return f"A ({format_formula(phi.left)}) U{phi.interval} ({format_formula(phi.right)})"
    if isinstance(phi, (EF, AF, EG, AG)):
        name = type(phi).__name__
        return f"{name}{phi.interval}({format_formula(phi.sub)})"
    if isinstance(phi, LeadsTo):
        return f"({format_gmec(phi.left)}) -->{phi.interval} ({format_gmec(phi.right)})"
    raise InputError(f"not a formula: {phi!r}")


def format_gmec(g: Gmec) -> str:
    if isinstance(g, Atom):
        if not g.coeffs:
            return "true" if RELATIONS[g.rel](0, g.bound) else "false"
        parts = []
        for k, (place, coeff) in enumerate(g.coeffs):
            mag = abs(coeff)
            term = f"M({place})" if mag == 1 else f"{mag}*M({place})"
            if k == 0:
                parts.append(term if coeff >= 0 else f"-{term}")
            else:
                parts.append(f"{'+' if coeff >= 0 else '-'} {term}")
        return f"{' '.join(parts)} {g.rel} {g.bound}"
    sym = {"and": "&", "or": "|", "implies": "=>"}[g.op]
    return f"({format_gmec(g.left)}) {sym} ({format_gmec(g.right)})"


# ---------------------------------------------------------------------------
# Model checking

MAX_DELAY_LAYERS = 100_000  # largest until lower bound a the checker accepts


@dataclass
class Verdict:
    holds: bool
    witness: Optional[list] = None  # StepLabels from the initial state


@dataclass(frozen=True)
class Plan:
    """A formula compiled for checking, as plain data.

    ``ops`` is its Prop/Not/Implies/EU/AU core (``desugar``), hash-consed
    by value into postorder: equal subformulas share one entry, each
    operand comes before its operator, and the last entry is the formula.
    An entry is a tuple headed by the core class:

    * ``(Prop, gmec)``, the constraint, compiled against the place index of
      the net whose graph is labelled (``compile_gmec``);
    * ``(Not, i)`` and ``(Implies, i, j)``;
    * ``(EU, i, interval, j)`` and ``(AU, i, interval, j)``;

    where i and j are the entries of the operands. A plan holds no
    callable, so it pickles, and it checks any net that names its places.
    """

    ops: tuple


def compile_plan(n: Net, phi: Formula) -> Plan:
    """Compile ``phi``, reading a response ``-->`` as "ag" (pass
    ``desugar(phi, "paper")`` for the paper's reading). Raises InputError
    when the formula names a place ``n`` (parametric or concrete) lacks
    (``compile_gmec``), and HorizonError when an until interval's least
    integer exceeds ``MAX_DELAY_LAYERS``. ``Not(Not x)`` is compiled as x
    below the root's operands; at the root and its operands it is kept, as
    the witness rules of ``check`` read their operators."""
    index = {}  # entry -> position; insertion order is postorder

    def walk(f, depth) -> int:
        if isinstance(f, Prop):
            compile_gmec(n.place_index, f.gmec)  # unknown places fail here, before any graph
            op = (Prop, f.gmec)
        elif isinstance(f, Not):
            if depth > 1 and isinstance(f.sub, Not):
                return walk(f.sub.sub, depth)
            op = (Not, walk(f.sub, depth + 1))
        elif isinstance(f, Implies):
            op = (Implies, walk(f.left, depth + 1), walk(f.right, depth + 1))
        else:  # EU or AU, the rest of the core
            a = f.interval.int_low()
            if a > MAX_DELAY_LAYERS:  # decided here, before any graph
                raise HorizonError(f"interval lower bound {a} exceeds the delay-layer limit {MAX_DELAY_LAYERS}")
            op = (type(f), walk(f.left, depth + 1), f.interval, walk(f.right, depth + 1))
        return index.setdefault(op, len(index))

    walk(desugar(phi), 0)
    return Plan(tuple(index))


FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # complements a node set's flags


class _Checker:
    def __init__(self, graph: ReachGraph):
        self.g = graph
        self.n = len(graph.keys)

    @cached_property
    def preds(self) -> tuple:
        """Per node: the sources of its fire in-edges, and of its one-delay
        in-edges; and k -> (w, j) per run of w >= 2 delays from node k to j."""
        fire, delay, runs = [[] for _ in self.g.succ], [()] * len(self.g.succ), {}  # most nodes have no delay in-edge
        for u, outs in enumerate(self.g.succ):
            for t, v in outs:
                if t >= 0:
                    fire[v].append(u)
                elif t == -1:
                    delay[v] += (u,)
                else:
                    runs[u] = -t, v
        return fire, delay, runs

    def nodes(self, plan: Plan, i: int, sat: dict) -> tuple:
        """The node set of plan entry i (see the module notes), made on
        first request and kept in ``sat`` (entry -> node set)."""
        if i not in sat:
            op = plan.ops[i]
            sub = lambda k: self.nodes(plan, op[k], sat)  # the node set of operand op[k]
            if op[0] is Prop:
                sat[i] = _nodes_where(self.g, op[1]), {}
            elif op[0] is Not:
                flags, runs = sub(1)
                sat[i] = flags.translate(FLIP), runs
            elif op[0] is Implies:
                (fa, ra), (fb, rb) = sub(1), sub(2)
                runs = {k: r for k in ra.keys() | rb.keys() if (r := _merge(_implies, fa[k], ra.get(k, ()), fb[k], rb.get(k, ())))}
                sat[i] = bytes(map(operator.or_, fa.translate(FLIP), fb)), runs
            else:
                sat[i] = self.until(op[0] is EU, sub(1), op[2], sub(3))
        return sat[i]

    def at_initial(self, plan: Plan, i: int, sat: dict) -> bool:
        """Whether plan entry i holds at the initial node: a Not or Implies
        decided there alone, short-circuit; an ``E true U[0,inf) psi`` by
        one scan of psi's node set (see the module notes), with no node set
        made for the until itself; any other entry from ``nodes``."""
        op = plan.ops[i]
        if op[0] is Not:
            return not self.at_initial(plan, op[1], sat)
        if op[0] is Implies:
            return not self.at_initial(plan, op[1], sat) or self.at_initial(plan, op[2], sat)
        if op[0] is EU and plan.ops[op[1]] == (Prop, TRUE_GMEC) and op[2].int_low() == 0 and op[2].int_high() == INF:
            flags, runs = self.nodes(plan, op[3], sat)
            return 1 in flags or bool(runs)  # a run entry is never empty: psi holds at some offset of it
        return bool(self.nodes(plan, i, sat)[0][self.g.initial])

    def label(self, plan: Plan) -> list:
        """The node set of every plan entry, in plan order."""
        sat = {}
        return [self.nodes(plan, i, sat) for i in range(len(plan.ops))]

    def until(self, exists: bool, phi: tuple, iv: TimeInterval, psi: tuple) -> tuple:
        """The node set of E (exists) or A phi U_iv psi, given those of phi
        and psi: delay layers 0 to ``int_high - a`` of the closed-0 until,
        with ``a = iv.int_low()``, behind ``a`` one-delay pre-images; every
        layer when the interval is unbounded. A run whose operands are
        constant gets its flip when its target's layer releases it; one
        whose operands flip, from ``_until_run`` after the walk."""
        (satphi, phiruns), (satpsi, psiruns) = phi, psi
        a, n, span = iv.int_low(), self.n, iv.int_high() - iv.int_low()
        if span < 0:
            return bytes(n), {}
        fire_preds, delay_preds, runs = self.preds
        need = [1] * n if exists else list(map(len, self.g.succ))  # out-edges to resolve
        counts = need.copy()
        psis = list(compress(range(n), satpsi))
        for v in psis:
            counts[v] = 0
        sources = [u for v in psis for u in fire_preds[v]]
        early, late = {}, {}  # run sources released by a psi offset (by layer), or by their target (by target)
        for k, (w, j) in runs.items():
            if satphi[k] and not satpsi[k]:
                p, f = psiruns.get(k, (w,))[0], phiruns.get(k, (w,))[0]
                if p < w and p <= f:
                    early.setdefault(p, []).append(k)
                elif f == w:
                    late.setdefault(j, []).append((k, w))
        ends, inner = {}, {}  # ends: the layer of each run target that resolves; inner: the flips along each run
        targets = {j for _, j in runs.values()}
        out, t, layer = [], 0, psis + self._resolve(satphi, counts, sources, fire_preds)
        while t <= span:  # layer t: the nodes that arrive at psi at time t
            out += layer
            for j in targets.intersection(layer):
                ends[j] = t
                for k, w in late.get(j, ()):  # phi holds along k's run: k arrives w after j
                    early.setdefault(t + w, []).append(k)
                    if 0 < t + w - span < w:  # and the until holds from the offset whose layer is span on
                        inner[k] = (t + w - span,)
            if not (layer or early):
                break
            t = t + 1 if layer else min(early)
            layer = self._resolve(satphi, counts, [u for v in layer for u in delay_preds[v]] + early.pop(t, []), fire_preds)
        flags = _flags(n, out)
        for k in phiruns.keys() | psiruns.keys():  # a run whose operands flip
            w, j = runs[k]
            if r := _until_run(satphi[k], phiruns.get(k, ()), satpsi[k], psiruns.get(k, ()), w, ends.get(j, INF), span):
                inner[k] = r
        for _ in range(a):  # a one-delay pre-image: phi now, and the set one delay on
            sources = [u for v in out for u in delay_preds[v]]
            sources += [k for k, (w, j) in runs.items() if flags[k] ^ (inner.get(k, (w,))[0] == 1)]
            out = self._resolve(satphi, need.copy(), sources, fire_preds)
            shifted = [(k, _shift(flags[k], inner.get(k, ()), w, flags[j])) for k, (w, j) in runs.items()]
            inner = {k: r for k, (s0, s) in shifted if (r := _merge(operator.and_, satphi[k], phiruns.get(k, ()), s0, s))}
            flags = _flags(n, out)
        return flags, inner

    def _resolve(self, satphi: bytes, counts, sources, fire_preds) -> list:
        """The phi-nodes that the out-edges in ``sources`` (one entry per
        edge) resolve, directly or back through fire edges. ``counts[u]`` is
        how many more of u's out-edges must resolve before u does; a node
        resolves once, when it reaches 0."""
        resolved = []
        while sources:
            u = sources.pop()
            counts[u] -= 1
            if counts[u] == 0 and satphi[u]:
                resolved.append(u)
                sources += fire_preds[u]
        return resolved

    def witness_eu(self, plan: Plan, sat: dict, i: int) -> Optional[list]:
        """Shortest label path showing the existential until of plan entry
        i at the initial node, where it holds; all pre-target positions
        satisfy its left operand. It reads only the operands' node sets
        (``nodes``, kept in ``sat``), so a root until that ``at_initial``
        decided by its scan stays unlabelled. The search walks the
        unit-step positions (``ReachGraph.unit_view``)."""
        _, left, iv, right = plan.ops[i]
        step, runs = self.g.unit_view()

        def holds(s, p):  # node set s at unit position p
            if type(p) is int:
                return s[0][p]
            (j, d), (w, k) = p, runs[p[0]]
            return s[0][k] ^ (bisect_right(s[1].get(k, ()), w - d) & 1)

        satphi, satpsi = self.nodes(plan, left, sat), self.nodes(plan, right, sat)
        H = iv.horizon
        start = (self.g.initial, 0)
        parent = {start: None}
        queue = deque([start])
        while queue:
            v, c = queue.popleft()
            if iv.contains(c) and holds(satpsi, v):
                labels, path = step_labels(self.g.net), []
                cur = (v, c)
                while parent[cur] is not None:
                    cur, t = parent[cur]
                    path.append(labels[t])
                return path[::-1]
            if not holds(satphi, v):
                continue
            for t, w in step(v):
                nxt = (w, min(c + 1, H) if t < 0 else c)
                if nxt not in parent:
                    parent[nxt] = ((v, c), t)
                    queue.append(nxt)
        return None


def _flags(n: int, nodes) -> bytes:
    flags = bytearray(n)
    for v in nodes:
        flags[v] = 1
    return bytes(flags)


def _implies(x, y):
    return (not x) or y


def _merge(op, x0: int, xs: tuple, y0: int, ys: tuple) -> tuple:
    """The offsets where op(x, y) flips along a run, x starting at x0 and
    flipping at the offsets xs, y likewise."""
    out, r = [], op(x0, y0)
    if xs or ys:
        fx, fy = set(xs), set(ys)
        for o in sorted(fx | fy):
            x0 ^= o in fx
            y0 ^= o in fy
            if op(x0, y0) != r:
                r = not r
                out.append(o)
    return tuple(out)


def _shift(x0: int, xs: tuple, w: int, end: int) -> tuple:
    """A run label one delay on, as (x0, xs) for ``_merge``: at offset o the
    label at o + 1, where offset w is the run's target, whose flag is end."""
    last = x0 ^ (len(xs) & 1)
    return x0 ^ (xs[:1] == (1,)), tuple([o - 1 for o in xs if o > 1]) + ((w - 1,) if last != end else ())


def _until_run(phi0: int, phis: tuple, psi0: int, psis: tuple, w: int, end, span) -> tuple:
    """The offsets where a closed-0 until over [0, span] flips along a run
    of w delays, given its operands there (as for ``_merge``) and ``end``,
    the layer of the run's target (inf when it does not resolve). Walked
    back from the target, a psi position is layer 0, a phi position one
    more than the next and any other never resolves, so each stretch of
    constant operands holds on a suffix."""
    cuts = sorted(set(phis) | set(psis))
    spans, x, y, lo = [], phi0, psi0, 0  # (lo, hi, phi, psi) per stretch
    for o in cuts:
        spans.append((lo, o, x, y))
        x ^= o in phis
        y ^= o in psis
        lo = o
    spans.append((lo, w, x, y))
    layer, labels = end, []  # labels: back to front, (lo, first offset that holds, hi) per stretch
    for lo, hi, x, y in reversed(spans):
        if y:
            layer, first = 0, lo
        elif not x or layer == INF:
            layer, first = INF, hi
        else:
            first = min(hi, max(lo, layer + hi - span))
            layer += hi - lo
        labels.append((lo, first, hi))
    out, r = [], None
    for lo, first, hi in reversed(labels):
        for o, v, e in ((lo, 0, first), (first, 1, hi)):
            if o < e and v != r:
                if r is not None:
                    out.append(o)
                r = v
    return tuple(out)


def decide(g: ReachGraph, plan: Plan, sat: Optional[dict] = None) -> bool:
    """Whether the initial node of ``g`` satisfies ``plan``: the verdict of
    ``check``, with no witness. Only what it needs is labelled: a root
    ``E true U[0,inf) psi``, under Not and Implies alone, by a scan of psi's
    node set, which takes a ``build`` graph, whose nodes are all reachable
    from the initial one (see ``_Checker.at_initial``). The node sets made
    go into ``sat`` (entry -> node set) when one is given. Raises
    IncompleteGraphError for an incomplete graph."""
    if not g.complete:
        raise IncompleteGraphError("refusing to check an incomplete graph")
    return _Checker(g).at_initial(plan, len(plan.ops) - 1, {} if sat is None else sat)


def check(n: ConcreteNet, g: ReachGraph, phi: Union[Formula, Plan]) -> Verdict:
    """Decide whether the initial state satisfies the formula.

    ``phi`` is a formula, compiled here with ``compile_plan`` (a response
    ``-->`` read as "ag"; ``desugar(phi, "paper")`` gives the paper's
    reading), or a plan compiled once by ``compile_plan``. Only what the
    verdict needs is labelled (see the module notes), one node set per
    entry, its constraints compiled against the places of the graph's
    net and their values cached in the net's step table; a constraint on a
    place that net lacks raises InputError.

    The verdict is ``decide``'s, which refuses an incomplete graph. Returns
    a witness trace for a holding top-level existential until (EF
    included) and a counterexample trace for a failing top-level universal
    invariant (AG and the response operator in its "ag" reading).
    The least integer of every until interval, which is the number of
    one-delay pre-images in front of its delay layers, may be at most
    ``MAX_DELAY_LAYERS``; ``compile_plan`` raises HorizonError for a larger
    one. Upper bounds are not limited.
    """
    plan = phi if isinstance(phi, Plan) else compile_plan(n, phi)
    sat, root = {}, len(plan.ops) - 1
    holds = decide(g, plan, sat)
    op = plan.ops[root]
    witness = None
    if op[0] is EU and holds:
        witness = _Checker(g).witness_eu(plan, sat, root)
    elif op[0] is Not and plan.ops[op[1]][0] is EU and not holds:
        witness = _Checker(g).witness_eu(plan, sat, op[1])
    return Verdict(holds, witness)
