"""Brute-force reference checker used as an independent oracle.

Evaluates formulas by enumerating unit-step paths directly over the
semantics, never touching the reachability graph or the delay-layer
resolution of the main checker. Exponential; intended for nets
within the documented limits (roughly: 6 places, 6 transitions, interval
bounds up to 10).

Both untils share one depth-first path walk with an explicit stack, so path
depth is bounded by memory rather than by the interpreter's recursion
limit. Accumulated time is capped at the operator interval's saturation
class H (``TimeInterval.horizon``), past which membership in the interval no
longer changes, and a path is cut once it revisits a (state, capped time)
pair already on it: for existential untils a cycle cannot create progress,
and for universal untils a reachable cycle avoiding the target is itself a
refuting path. Since every until works out its own cap, the oracle takes no
horizon and has no limit to hit.
"""

from __future__ import annotations

from .errors import OracleError
from .petri import ConcreteNet
from .semantics import Delay, initial_state, successors
from .tctl import AU, EU, Formula, Implies, Not, Prop, compile_gmec, desugar


def brute_force_check(n: ConcreteNet, phi: Formula) -> bool:
    """True iff the initial state satisfies the formula, a response read
    as "ag" (``desugar(phi, "paper")`` gives the paper's reading). Each
    until caps accumulated time at its own interval's saturation class, so
    no horizon has to be supplied."""
    return _holds(n, initial_state(n), desugar(phi))


def _holds(n: ConcreteNet, state, phi) -> bool:
    if isinstance(phi, Prop):
        return compile_gmec(n.place_index, phi.gmec)(state.marking)
    if isinstance(phi, Not):
        return not _holds(n, state, phi.sub)
    if isinstance(phi, Implies):
        return (not _holds(n, state, phi.left)) or _holds(n, state, phi.right)
    if isinstance(phi, (EU, AU)):
        return _until(n, state, phi)
    raise OracleError(f"not in core form: {phi!r}")


def _until(n: ConcreteNet, start, phi) -> bool:
    """Some path (EU) or every maximal path (AU) from ``start`` reaches the
    right operand inside the interval, with the left operand holding at
    every earlier position. A dead end without the target counts as false
    under either quantifier."""
    universal = isinstance(phi, AU)
    iv = phi.interval
    cap = iv.horizon
    on_path = set()
    stack = []  # (state, capped time, successor iterator) per open position

    def visit(state, t):
        """The position's verdict, or None once it is pushed onto the stack
        to be decided by its successors."""
        if iv.contains(t) and _holds(n, state, phi.right):
            return True
        if not _holds(n, state, phi.left) or (state, t) in on_path:
            return False  # left operand broken, or looping without the target
        succ = successors(n, state)
        if not succ:
            return False  # finite maximal path without the target
        on_path.add((state, t))
        stack.append((state, t, iter(succ)))
        return None

    got = visit(start, 0)
    if got is not None:
        return got
    while stack:
        state, t, succ = stack[-1]
        step = next(succ, None)
        if step is None:  # every successor agreed with the quantifier's default
            stack.pop()
            on_path.remove((state, t))
            continue
        label, nxt = step
        got = visit(nxt, min(t + label.amount, cap) if isinstance(label, Delay) else t)
        if got is not None and got != universal:
            return got  # a witness path for E, a refuting path for A
    return universal
