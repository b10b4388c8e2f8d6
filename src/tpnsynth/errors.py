"""Exception hierarchy shared across the toolkit."""


class TpnError(Exception):
    """Base class for all toolkit errors."""


class InputError(TpnError):
    """Malformed user input: bad arguments, unknown names, invalid shapes."""


class DomainError(TpnError):
    """A valuation lies outside the net's parameter domain."""


class IllFormedIntervalError(TpnError):
    """An interval instantiated to low > high."""


class PreconditionError(TpnError):
    """An operation was called on a state that violates its precondition."""


class TimeOverrunError(TpnError):
    """A delay larger than the maximal admissible elapse was requested."""


class KBoundError(TpnError):
    """A reachable marking exceeded the per-place token bound.

    Carries the partial graph explored so far in ``partial``.
    """

    def __init__(self, message, partial=None, marking=None):
        super().__init__(message)
        self.partial = partial
        self.marking = marking


class IncompleteGraphError(TpnError):
    """Model checking was asked to run on a capped (incomplete) graph."""


class HorizonError(TpnError):
    """An until interval's lower bound exceeds the checker's fixed
    delay-layer limit (``tctl.MAX_DELAY_LAYERS``)."""


class OracleError(TpnError):
    """The brute-force oracle was given a formula outside the core form it
    evaluates."""


class FormulaSyntaxError(InputError):
    """Formula text rejected, with position information."""

    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at column {pos + 1})")
        self.pos = pos


class NetSyntaxError(InputError):
    """Net document rejected, with line information."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
