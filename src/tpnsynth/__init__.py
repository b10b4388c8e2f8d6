"""Verification and integer parameter synthesis for time Petri nets with
read and logical inhibitor arcs."""

from .errors import (
    DomainError,
    FormulaSyntaxError,
    HorizonError,
    IllFormedIntervalError,
    IncompleteGraphError,
    InputError,
    KBoundError,
    NetSyntaxError,
    OracleError,
    PreconditionError,
    TimeOverrunError,
    TpnError,
)
from .netfile import parse_net, parse_net_file, serialize_net
from .oracle import brute_force_check
from .petri import (
    INF,
    ConcreteNet,
    LinearConstraint,
    Net,
    ParamDomain,
    ParamInterval,
    TimeInterval,
    domain_contains,
    enabled_set,
    eval_constraint,
    instantiate,
    make_net,
    newly_enabled_set,
    validate_net,
)
from .semantics import (
    Delay,
    Fire,
    State,
    apply_label,
    elapse,
    fire,
    fireable_set,
    initial_state,
    max_elapse,
    replay,
    successors,
)
from .statespace import ExploreLimits, ReachGraph, build
from .synthesis import (
    SynthesisProblem,
    SynthesisResult,
    enumerate_valuations,
    summarize,
    synthesize,
)
from .tctl import (
    AF,
    AG,
    AU,
    Atom,
    BoolOp,
    EF,
    EG,
    EU,
    Formula,
    Gmec,
    Implies,
    LeadsTo,
    Not,
    Prop,
    Verdict,
    check,
    desugar,
    eval_gmec,
    format_formula,
    format_gmec,
    parse_formula,
    parse_formula_file,
    parse_gmec,
    states_satisfying,
)
from .version import __version__
