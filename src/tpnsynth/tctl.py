"""Token-count constraints (GMEC), timed CTL formulas, their text parsers,
and the model checker over a reachability graph.

Checking works per temporal operator over the graph, whose fire edges take
no time and whose delay edges take one unit. An until whose interval starts
at a closed 0 (``[0,b]``, ``[0,b)``, ``[0,inf)``) is decided by one backward
labelling pass in O(V+E), whatever b is: EU by earliest arrival (a 0-1 BFS
from the psi-nodes through phi-nodes) and AU by latest arrival (a node
resolves once all its successors have, and a node that never resolves --
on or leading to a psi-avoiding cycle, a dead end, or outside phi -- counts
as infinite). A node holds when its arrival time is at most b.

Any other interval falls back to a product of graph nodes with an
elapsed-time counter: delay edges increment the counter, fire edges
preserve it, and all values at or beyond the interval's saturation class H
(``TimeInterval.horizon``) collapse into one class. Membership in the
interval is the same for every time >= H, so this is exact for the integer
semantics, and the accepting classes are one contiguous range. Only this
product is bounded by ``max_horizon``.

Until is position-based: ``E phi U_I psi`` holds when some path reaches a
psi-state at an accumulated time inside I with phi true at every strictly
earlier position; the witness position itself need not satisfy phi.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
    FormulaSyntaxError,
    HorizonError,
    IncompleteGraphError,
    InputError,
)
from .petri import INF, RELATIONS, ConcreteNet, Net, TimeInterval
from .semantics import Delay
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


def compile_gmec(net: Optional[ConcreteNet], phi: Gmec):
    """Closure evaluating the constraint on a marking.

    With a net, markings are dense tuples and each place becomes its index
    in ``net.places``; with ``net=None`` they are place->count mappings
    keyed by the place name itself.
    """
    if isinstance(phi, Atom):
        pairs = []
        for place, coeff in phi.coeffs:
            if net is None:
                pairs.append((place, coeff))
            elif place in net.place_index:
                pairs.append((net.place_index[place], coeff))
            else:
                raise InputError(f"unknown place {place!r} in formula")
        rel, bound = RELATIONS[phi.rel], phi.bound
        return lambda m: rel(sum(c * m[k] for k, c in pairs), bound)
    left, right = compile_gmec(net, phi.left), compile_gmec(net, phi.right)
    if phi.op == "and":
        return lambda m: left(m) and right(m)
    if phi.op == "or":
        return lambda m: left(m) or right(m)
    return lambda m: (not left(m)) or right(m)


def eval_gmec(m, phi: Gmec) -> bool:
    """Evaluate against a place->count mapping."""
    holds = compile_gmec(None, phi)
    try:
        return holds(m)
    except KeyError as exc:
        raise InputError(f"marking has no place {exc.args[0]!r}") from None


def gmec_places(phi: Gmec) -> set:
    if isinstance(phi, Atom):
        return {p for p, _ in phi.coeffs}
    return gmec_places(phi.left) | gmec_places(phi.right)


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


def _check_leadsto_interval(iv: TimeInterval):
    if iv.low != 0 or not iv.left_closed:
        raise FormulaSyntaxError("response interval must start at a closed 0")


def desugar(phi: Formula, leadsto: str = "ag") -> Formula:
    """Rewrite derived operators into the Prop/Not/Implies/EU/AU core."""
    true = Prop(TRUE_GMEC)
    if isinstance(phi, Prop):
        return phi
    if isinstance(phi, Not):
        return Not(desugar(phi.sub, leadsto))
    if isinstance(phi, Implies):
        return Implies(desugar(phi.left, leadsto), desugar(phi.right, leadsto))
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
        everywhere = TimeInterval(0, INF)
        body = Implies(Prop(phi.left), AU(true, phi.interval, Prop(phi.right)))
        if leadsto == "paper":
            return desugar(AF(everywhere, body), leadsto)
        return desugar(AG(everywhere, body), leadsto)
    raise InputError(f"not a formula: {phi!r}")


def formula_places(phi: Formula) -> set:
    if isinstance(phi, Prop):
        return gmec_places(phi.gmec)
    if isinstance(phi, Not):
        return formula_places(phi.sub)
    if isinstance(phi, (Implies, EU, AU)):
        return formula_places(phi.left) | formula_places(phi.right)
    if isinstance(phi, (EF, AF, EG, AG)):
        return formula_places(phi.sub)
    if isinstance(phi, LeadsTo):
        return gmec_places(phi.left) | gmec_places(phi.right)
    raise InputError(f"not a formula: {phi!r}")


def check_formula_places(phi: Formula, net: Net) -> None:
    """Raise InputError when the formula names a place the net lacks."""
    unknown = formula_places(phi) - set(net.places)
    if unknown:
        raise InputError(f"formula references unknown places {sorted(unknown)}")


# ---------------------------------------------------------------------------
# Text parsers

_SYMBOLS = [
    "-->", "/\\", "\\/", "=>", "<=", ">=", "==", "(", ")", "[", "]", ",",
    "*", "+", "-", "<", ">", "=", "&", "|", "!",
]


def _tokenize(text: str):
    toks, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        matched = False
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                kind = {"/\\": "&", "\\/": "|", "==": "="}.get(sym, sym)
                toks.append((kind, kind, i))
                i += len(sym)
                matched = True
                break
        if matched:
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("NAME", text[i:j], i))
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", pos=i)
    toks.append(("EOF", None, n))
    return toks


class _Parser:
    """Recursive descent over the shared constraint/formula grammar.

    Boolean combinations of atoms stay token-count constraints; anything
    temporal, or negated, lifts to the formula level (with & and | over
    formulas desugared into the Not/Implies core).
    """

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self, k=0):
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, got {t[1]!r}", pos=t[2])
        return t

    def at_name(self, word):
        t = self.peek()
        return t[0] == "NAME" and t[1] == word

    # -- entry points

    def parse_gmec(self) -> Gmec:
        node = self.implication()
        self.expect("EOF")
        kind, val = node
        if kind != "g":
            raise FormulaSyntaxError("temporal or negation operators are not allowed here")
        return val

    def parse_formula(self) -> Formula:
        node = self.implication()
        self.expect("EOF")
        return _to_formula(node)

    # -- precedence levels

    def implication(self):
        left = self.disjunction()
        t = self.peek()
        if t[0] == "=>":
            self.next()
            right = self.implication()  # right associative
            if left[0] == "g" and right[0] == "g":
                return ("g", BoolOp("implies", left[1], right[1]))
            return ("f", Implies(_to_formula(left), _to_formula(right)))
        if t[0] == "-->":
            self.next()
            iv = self.interval()
            _check_leadsto_interval(iv)
            right = self.disjunction()
            if left[0] != "g" or right[0] != "g":
                raise FormulaSyntaxError(
                    "response operands must be plain token-count constraints", pos=t[2]
                )
            return ("f", LeadsTo(left[1], iv, right[1]))
        return left

    def disjunction(self):
        node = self.conjunction()
        while self.peek()[0] == "|":
            self.next()
            rhs = self.conjunction()
            if node[0] == "g" and rhs[0] == "g":
                node = ("g", BoolOp("or", node[1], rhs[1]))
            else:
                node = ("f", lor(_to_formula(node), _to_formula(rhs)))
        return node

    def conjunction(self):
        node = self.unary()
        while self.peek()[0] == "&":
            self.next()
            rhs = self.unary()
            if node[0] == "g" and rhs[0] == "g":
                node = ("g", BoolOp("and", node[1], rhs[1]))
            else:
                node = ("f", land(_to_formula(node), _to_formula(rhs)))
        return node

    def unary(self):
        t = self.peek()
        if t[0] == "!":
            self.next()
            return ("f", Not(_to_formula(self.unary())))
        if t[0] == "NAME" and t[1] in ("EF", "AF", "EG", "AG"):
            self.next()
            iv = self.interval()
            sub = _to_formula(self.unary())
            cls = {"EF": EF, "AF": AF, "EG": EG, "AG": AG}[t[1]]
            return ("f", cls(iv, sub))
        if t[0] == "NAME" and t[1] in ("E", "A"):
            return ("f", self.until(t[1]))
        if t[0] == "(":
            self.next()
            node = self.implication()
            self.expect(")")
            return node
        return ("g", self.atom())

    def until(self, quantifier):
        self.next()
        bracketed = self.peek()[0] == "["
        if bracketed:
            self.next()
        left = _to_formula(self.unary())
        t = self.next()
        if t[0] != "NAME" or t[1] != "U":
            raise FormulaSyntaxError("expected U in until formula", pos=t[2])
        iv = self.interval()
        right = _to_formula(self.unary())
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
        if t[0] == "NAME" and t[1] == "true":
            self.next()
            return TRUE_GMEC
        if t[0] == "NAME" and t[1] == "false":
            self.next()
            return FALSE_GMEC
        coeffs = {}
        sign = 1
        first = True
        while True:
            t = self.peek()
            if t[0] == "+":
                self.next()
                sign = 1
            elif t[0] == "-":
                self.next()
                sign = -1
            elif not first:
                break
            coeff = 1
            t = self.peek()
            if t[0] == "INT":
                coeff = self.next()[1]
                if self.peek()[0] == "*":
                    self.next()
            t = self.peek()
            if not (t[0] == "NAME" and t[1] == "M"):
                raise FormulaSyntaxError("expected a token-count term M(place)", pos=t[2])
            self.next()
            self.expect("(")
            place = self.expect("NAME")[1]
            self.expect(")")
            coeffs[place] = coeffs.get(place, 0) + sign * coeff
            first = False
        t = self.next()
        if t[0] not in RELATIONS:
            raise FormulaSyntaxError("expected a comparison relation", pos=t[2])
        rel = t[0]
        bound = self.expect("INT")[1]
        return Atom(tuple(sorted(coeffs.items())), rel, bound)


def _to_formula(node) -> Formula:
    kind, val = node
    return Prop(val) if kind == "g" else val


def parse_gmec(text: str) -> Gmec:
    return _Parser(text).parse_gmec()


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse_formula()


def parse_formula_file(path) -> Formula:
    """Parse a .tctl file; lines starting with # are comments."""
    with open(path) as fh:
        text = "\n".join(
            line for line in fh.read().splitlines() if not line.lstrip().startswith("#")
        )
    return parse_formula(text)


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


@dataclass
class Verdict:
    holds: bool
    witness: Optional[list] = None  # StepLabels from the initial state


class _Checker:
    def __init__(self, graph: ReachGraph, max_horizon: int):
        self.g = graph
        self.net = graph.net
        self.max_horizon = max_horizon
        self.n = len(graph.states)
        self.memo = {}
        self.fire_preds = [[] for _ in range(self.n)]
        self.delay_preds = [[] for _ in range(self.n)]
        for u, outs in enumerate(graph.succ):
            for label, v in outs:
                (self.delay_preds if isinstance(label, Delay) else self.fire_preds)[v].append(u)

    def sat(self, phi: Formula) -> frozenset:
        got = self.memo.get(phi)
        if got is not None:
            return got
        if isinstance(phi, Prop):
            f = compile_gmec(self.net, phi.gmec)
            out = frozenset(i for i, s in enumerate(self.g.states) if f(s.marking))
        elif isinstance(phi, Not):
            out = frozenset(range(self.n)) - self.sat(phi.sub)
        elif isinstance(phi, Implies):
            out = (frozenset(range(self.n)) - self.sat(phi.left)) | self.sat(phi.right)
        elif isinstance(phi, (EU, AU)):
            exists = isinstance(phi, EU)
            out = self.until(exists, self.sat(phi.left), phi.interval, self.sat(phi.right))
        else:
            raise InputError(f"not in core form: {phi!r}")
        self.memo[phi] = out
        return out

    def until(self, exists: bool, satphi, iv: TimeInterval, satpsi) -> frozenset:
        """Nodes satisfying E (exists) or A phi U_iv psi: labelling when the
        interval starts at a closed 0, the time product otherwise."""
        if iv.int_low() == 0:
            arrival = (self._earliest if exists else self._latest)(satphi, satpsi)
            b = iv.int_high()
            return frozenset(v for v, t in enumerate(arrival) if t is not None and t <= b)
        return (self._eu if exists else self._au)(satphi, iv, satpsi)

    def _earliest(self, satphi, satpsi) -> list:
        """Least elapsed time from each node to a psi-node along a path whose
        earlier positions satisfy phi (None when there is none): a backward
        0-1 BFS with fire edges weighing 0 and delay edges 1."""
        dist = [None] * self.n
        queue = deque()
        for v in satpsi:
            dist[v] = 0
            queue.append((0, v))
        while queue:
            d, v = queue.popleft()
            if d > dist[v]:
                continue
            for preds, w, push in (
                (self.fire_preds[v], 0, queue.appendleft),
                (self.delay_preds[v], 1, queue.append),
            ):
                for u in preds:
                    if u in satphi and (dist[u] is None or d + w < dist[u]):
                        dist[u] = d + w
                        push((d + w, u))
        return dist

    def _latest(self, satphi, satpsi) -> list:
        """Greatest elapsed time before every path from a node reaches a
        psi-node, with phi at each earlier position (None when some path
        never does): a non-psi phi-node with successors resolves once all
        its out-edges lead to resolved nodes."""
        latest = [None] * self.n
        counts = [len(outs) for outs in self.g.succ]  # unresolved out-edges
        worst = [0] * self.n
        queue = deque()
        for v in satpsi:
            latest[v] = 0
            queue.append(v)
        while queue:
            v = queue.popleft()
            for preds, w in ((self.fire_preds[v], 0), (self.delay_preds[v], 1)):
                t = latest[v] + w
                for u in preds:
                    if latest[u] is not None:
                        continue
                    counts[u] -= 1
                    if t > worst[u]:
                        worst[u] = t
                    if counts[u] == 0 and u in satphi:
                        latest[u] = worst[u]
                        queue.append(u)
        return latest

    def _classes(self, iv: TimeInterval):
        """(H, accepting classes): elapsed-time classes are 0..H with H
        standing for every time >= H, and the classes inside the interval
        form one contiguous range."""
        h = iv.horizon
        if h > self.max_horizon:
            raise HorizonError(
                f"formula horizon {h} exceeds the product limit {self.max_horizon}"
            )
        return h, range(iv.int_low(), min(iv.int_high(), h) + 1)

    def _eu(self, satphi, iv, satpsi) -> frozenset:
        H, accept = self._classes(iv)
        width = H + 1
        marked = bytearray(self.n * width)
        queue = deque()
        for v in satpsi:
            base = v * width
            for c in accept:
                marked[base + c] = 1
                queue.append((v, c))
        while queue:
            v, c = queue.popleft()
            for u in self.fire_preds[v]:
                if u in satphi and not marked[u * width + c]:
                    marked[u * width + c] = 1
                    queue.append((u, c))
            pred_classes = []
            if c >= 1:
                pred_classes.append(c - 1)
            if c == H:
                pred_classes.append(H)
            for pc in pred_classes:
                for u in self.delay_preds[v]:
                    if u in satphi and not marked[u * width + pc]:
                        marked[u * width + pc] = 1
                        queue.append((u, pc))
        return frozenset(v for v in range(self.n) if marked[v * width])

    def _au(self, satphi, iv, satpsi) -> frozenset:
        H, accept = self._classes(iv)
        width = H + 1
        marked = bytearray(self.n * width)
        counts = []  # unresolved successors per (node, class)
        for outs in self.g.succ:
            counts += [len(outs)] * width
        queue = deque()
        for v in satpsi:
            base = v * width
            for c in accept:
                marked[base + c] = 1
                queue.append((v, c))
        while queue:
            v, c = queue.popleft()
            preds = [(u, c) for u in self.fire_preds[v]]
            if c >= 1:
                preds += [(u, c - 1) for u in self.delay_preds[v]]
            if c == H:
                preds += [(u, H) for u in self.delay_preds[v]]
            for u, pc in preds:
                idx = u * width + pc
                if marked[idx]:
                    continue
                counts[idx] -= 1
                if counts[idx] == 0 and u in satphi and self.g.succ[u]:
                    marked[idx] = 1
                    queue.append((u, pc))
        return frozenset(v for v in range(self.n) if marked[v * width])

    def witness_eu(self, phi: EU) -> Optional[list]:
        """Shortest label path showing the existential until at the initial
        node; all pre-target positions satisfy the left operand."""
        satphi, satpsi = self.sat(phi.left), self.sat(phi.right)
        good = self.sat(phi)
        if self.g.initial not in good:
            return None
        iv = phi.interval
        H = iv.horizon
        start = (self.g.initial, 0)
        parent = {start: None}
        queue = deque([start])
        while queue:
            v, c = queue.popleft()
            if v in satpsi and iv.contains(c):
                labels = []
                cur = (v, c)
                while parent[cur] is not None:
                    prev, label = parent[cur]
                    labels.append(label)
                    cur = prev
                return list(reversed(labels))
            if v not in satphi:
                continue
            for label, w in self.g.succ[v]:
                c2 = min(c + 1, H) if isinstance(label, Delay) else c
                nxt = (w, c2)
                if nxt not in parent:
                    parent[nxt] = ((v, c), label)
                    queue.append(nxt)
        return None


def check(
    n: ConcreteNet,
    g: ReachGraph,
    phi: Formula,
    leadsto: str = "ag",
    max_horizon: int = 100_000,
) -> Verdict:
    """Decide whether the initial state satisfies the formula.

    Returns a witness trace for a holding top-level existential until (EF
    included) and a counterexample trace for a failing top-level universal
    invariant (AG and the response operator in its default reading).
    """
    if not g.complete:
        raise IncompleteGraphError("refusing to check an incomplete graph")
    check_formula_places(phi, n)
    core = desugar(phi, leadsto)
    checker = _Checker(g, max_horizon)
    holds = g.initial in checker.sat(core)
    witness = None
    if isinstance(core, EU) and holds:
        witness = checker.witness_eu(core)
    elif isinstance(core, Not) and isinstance(core.sub, EU) and not holds:
        witness = checker.witness_eu(core.sub)
    return Verdict(holds, witness)
