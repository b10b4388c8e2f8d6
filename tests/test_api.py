"""The public surface of the package: every name re-exported from
``tpnsynth`` is pinned here, so removing or renaming one is a visible,
deliberate change."""

import types

import tpnsynth

PUBLIC_NAMES = {
    # errors
    "DomainError", "FormulaSyntaxError", "HorizonError", "IllFormedIntervalError",
    "IncompleteGraphError", "InputError", "KBoundError", "NetSyntaxError",
    "OracleError", "PreconditionError", "TimeOverrunError", "TpnError",
    # netfile
    "parse_net", "parse_net_file", "serialize_net",
    # oracle
    "brute_force_check",
    # petri
    "INF", "ConcreteNet", "LinearConstraint", "Net", "ParamDomain", "ParamInterval",
    "TimeInterval", "domain_contains", "enabled_set", "eval_constraint",
    "instantiate", "make_net", "newly_enabled_set", "validate_net",
    # semantics
    "Delay", "Fire", "State", "apply_label", "elapse", "fire", "fireable_set",
    "initial_state", "max_elapse", "replay", "successors",
    # statespace
    "ExploreLimits", "ReachGraph", "build", "states_satisfying",
    # synthesis
    "SynthesisProblem", "SynthesisResult", "enumerate_valuations", "summarize",
    "synthesize",
    # tctl
    "AF", "AG", "AU", "Atom", "BoolOp", "EF", "EG", "EU", "Formula", "Gmec",
    "Implies", "LeadsTo", "Not", "Prop", "Verdict", "check", "desugar", "eval_gmec",
    "format_formula", "format_gmec", "parse_formula", "parse_formula_file",
    "parse_gmec",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name, value in vars(tpnsynth).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
    assert isinstance(tpnsynth.__version__, str)
