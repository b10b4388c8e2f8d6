"""Line-oriented text format for nets (.tpnet).

    # comment
    net <name>
    place <name> [initial-tokens]
    param <name>
    domain <coef>*<param> [+|- ...] <rel> <bound>
    trans <name> [pre <arcs>] [post <arcs>] [read <arcs>] [inhibit <arcs>]
                 interval [<lo>,<hi>]

Arcs are place names with an optional ``*weight``; interval bounds are
naturals or parameter names, the high bound may be ``inf``. An interval
is closed, ``[lo,inf)`` excepted. Numbers are ASCII decimal digits.
Missing arc lists default to none, a missing domain to the empty
constraint set. The full grammar lives in docs/formats.md.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError, NetSyntaxError
from .petri import NAME, NAT, LinearConstraint, Net, make_net, net_spec

_RATIONAL = re.compile(rf"-?{NAT.pattern}(?:/{NAT.pattern})?")
_ARC = re.compile(rf"({NAME.pattern})(?:\*({NAT.pattern}))?")
_INTERVAL = re.compile(r"\[([A-Za-z0-9_]+),([A-Za-z0-9_]+)([\]\)])")
_SECTIONS = ("pre", "post", "read", "inhibit", "interval")


def parse_net(text: str) -> Net:
    places, params, constraints, domain_lines = [], [], [], []
    transitions, trans_lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        head, rest = words[0], words[1:]
        if head == "net":
            if len(rest) != 1:
                raise NetSyntaxError("net takes exactly one name", lineno)
        elif head == "place":
            if not rest or not NAME.fullmatch(rest[0]):
                raise NetSyntaxError("place needs a name", lineno)
            tokens = 0
            if len(rest) == 2:
                if not NAT.fullmatch(rest[1]):
                    raise NetSyntaxError("initial tokens must be a natural number", lineno)
                tokens = int(rest[1])
            elif len(rest) > 2:
                raise NetSyntaxError("too many fields for place", lineno)
            if any(p == rest[0] for p, _ in places):
                raise NetSyntaxError(f"duplicate place {rest[0]!r}", lineno)
            places.append((rest[0], tokens))
        elif head == "param":
            if len(rest) != 1 or not NAME.fullmatch(rest[0]):
                raise NetSyntaxError("param needs a single name", lineno)
            if rest[0] == "inf":
                raise NetSyntaxError("inf is reserved for an unbounded interval", lineno)
            if rest[0] in params:
                raise NetSyntaxError(f"duplicate parameter {rest[0]!r}", lineno)
            params.append(rest[0])
        elif head == "domain":
            constraints.append(_parse_constraint(" ".join(rest), lineno))
            domain_lines.append(lineno)
        elif head == "trans":
            if not rest or not NAME.fullmatch(rest[0]):
                raise NetSyntaxError("trans needs a name", lineno)
            tname = rest[0]
            if tname in transitions:
                raise NetSyntaxError(f"duplicate transition {tname!r}", lineno)
            transitions[tname] = _parse_transition(rest[1:], lineno)
            trans_lines[tname] = lineno
        else:
            raise NetSyntaxError(f"unknown directive {head!r}", lineno)
    if not places:
        raise NetSyntaxError("a net needs at least one place", 1)
    if not transitions:
        raise NetSyntaxError("a net needs at least one transition", 1)
    _check_references(
        {p for p, _ in places}, set(params), transitions, trans_lines, zip(constraints, domain_lines)
    )
    return make_net(places, transitions, parameters=params, constraints=constraints)


def read_utf8(path, kind: str) -> str:
    """The text of a ``kind`` file (net, formula), less a leading BOM; an
    InputError naming the first bad byte when it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")  # a BOM is UTF-8; "utf-8-sig" would count error offsets past it
    except UnicodeDecodeError as exc:
        raise InputError(f"{kind} file {str(path)!r} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def parse_net_file(path) -> Net:
    return parse_net(read_utf8(path, "net"))


def _check_references(places, params, transitions, lines, domain):
    """Reject, at its line, a transition or domain constraint that names
    an undeclared place or parameter, or a literal interval low > high."""
    for t, spec in transitions.items():
        if t in places:
            raise NetSyntaxError(f"transition {t!r} has the name of a place", lines[t])
        for section in _SECTIONS[:-1]:
            for p in spec[section]:
                if p not in places:
                    raise NetSyntaxError(f"{section} arc references unknown place {p!r}", lines[t])
        lo, hi = spec["interval"]
        for b in (lo, hi):
            if isinstance(b, str) and b not in params:
                raise NetSyntaxError(f"unknown parameter {b!r} in interval", lines[t])
        if isinstance(lo, int) and isinstance(hi, int) and lo > hi:
            raise NetSyntaxError("interval low exceeds high", lines[t])
    for c, lineno in domain:
        unknown = c.params() - params
        if unknown:
            raise NetSyntaxError(f"unknown parameters {sorted(unknown)} in domain", lineno)


def _parse_transition(words, lineno):
    spec = {"pre": {}, "post": {}, "read": {}, "inhibit": {}}
    interval = None
    section = None
    i = 0
    while i < len(words):
        w = words[i]
        if w in _SECTIONS:
            section = w
            if w == "interval":
                i += 1
                if i >= len(words):
                    raise NetSyntaxError("interval needs a [lo,hi] bound pair", lineno)
                interval = _parse_interval(words[i], lineno)
                section = None
            i += 1
            continue
        if section is None:
            raise NetSyntaxError(f"unexpected token {w!r} in transition", lineno)
        m = _ARC.fullmatch(w)
        if not m:
            raise NetSyntaxError(f"bad arc {w!r}", lineno)
        place, weight = m.group(1), int(m.group(2) or 1)
        if weight < 1:
            raise NetSyntaxError(f"arc weight must be positive in {w!r}", lineno)
        if place in spec[section]:
            raise NetSyntaxError(f"duplicate {section} arc for {place!r}", lineno)
        spec[section][place] = weight
        i += 1
    if interval is None:
        raise NetSyntaxError("transition is missing its interval", lineno)
    spec["interval"] = interval
    return spec


def _parse_interval(tok, lineno):
    m = _INTERVAL.fullmatch(tok)
    if not m:
        raise NetSyntaxError(f"bad interval {tok!r}, expected [lo,hi]", lineno)
    lo, hi, close = m.groups()
    if hi == "inf":
        return (_bound(lo), None)
    if close == ")":
        raise NetSyntaxError(f"bad interval {tok!r}: a finite high bound is closed with ']'", lineno)
    return (_bound(lo), _bound(hi))


def _bound(text):
    return int(text) if NAT.fullmatch(text) else text


def _rational(text, what, lineno) -> Fraction:
    if not _RATIONAL.fullmatch(text):
        raise NetSyntaxError(f"bad {what} {text!r}", lineno)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise NetSyntaxError(f"bad {what} {text!r}", lineno) from None


def _parse_constraint(text, lineno) -> LinearConstraint:
    m = re.match(r"(.*?)(<=|>=|=|<|>)(.+)$", text)
    if not m:
        raise NetSyntaxError("domain constraint needs a comparison", lineno)
    lhs, rel, rhs = m.group(1).strip(), m.group(2), m.group(3).strip()
    bound = _rational(rhs, "constraint bound", lineno)
    coeffs = {}
    for sign, term in re.findall(r"([+-]?)\s*([^+-]+)", lhs):
        term = term.strip()
        if not term:
            continue
        factor = Fraction(-1 if sign == "-" else 1)
        if "*" in term:
            coef, _, pname = term.partition("*")
            factor *= _rational(coef.strip(), "coefficient", lineno)
            pname = pname.strip()
        else:
            pname = term
        if not NAME.fullmatch(pname):
            raise NetSyntaxError(f"bad parameter name {pname!r} in constraint", lineno)
        coeffs[pname] = coeffs.get(pname, Fraction(0)) + factor
    if not coeffs:
        raise NetSyntaxError("constraint has no parameter terms", lineno)
    return LinearConstraint.make(coeffs, rel, bound)


def serialize_net(n: Net) -> str:
    """Canonical text rendering of ``net_spec(n)``; parse_net(serialize_net(n)) == n."""
    places, transitions, params, constraints = net_spec(n)
    out = [f"place {p} {tokens}" for p, tokens in places]
    out += [f"param {p}" for p in params]
    out += [f"domain {c}" for c in constraints]
    for t, spec in transitions.items():
        parts = [f"trans {t}"]
        for what in ("pre", "post", "read", "inhibit"):
            if what in spec:
                arcs = (p if w == 1 else f"{p}*{w}" for p, w in spec[what].items())
                parts.append(f"{what} {' '.join(arcs)}")
        lo, hi = spec["interval"]
        parts.append(f"interval [{lo},{'inf)' if hi is None else f'{hi}]'}")
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"
