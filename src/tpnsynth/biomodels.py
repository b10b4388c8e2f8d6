"""Observer constructions and the circadian-clock case study.

Observers are net-to-net transformations that restrict, force, or witness
behavior without otherwise changing the observed dynamics: a permanently
marked place wired to an inhibitor arc disables a transition; a flag place
fed by a transition's postset makes its firing visible to token-count
formulas; timed chains force light-schedule perturbations.

The clock model is a documented reconstruction of the simplified
mammalian circadian clock (three boolean components: light L, gene G,
protein complex PC) assembled from prose descriptions; the arc-level
choices and their provenance are listed in docs/model_notes.md and in the
shipped model file. Places P_X0/P_X1 encode component X being 0/1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InputError
from .petri import Bound, LinearConstraint, Net, make_net, net_spec


# ---------------------------------------------------------------------------
# Observer specifications


@dataclass(frozen=True)
class InhibitTransition:
    """Permanently disable a transition via a marked inhibitor place."""

    transition: str


@dataclass(frozen=True)
class EventFlag:
    """Make firings of a transition observable as M(p_O_<t>) > 0.

    The flag place also inhibits its transition so the flag saturates at
    one token and the net stays 1-safe.
    """

    transition: str


@dataclass(frozen=True)
class LightDuration:
    """Replace the clock's light-off switch ``t_off`` by a fresh one,
    ``t_star``, with a set duration."""

    duration: Bound


@dataclass(frozen=True)
class NightLight:
    """Three-phase perturbation of one night of the clock: dark for tau1,
    forced light for tau2, dark again for tau3, then dawn is forced and the
    schedule resumes. The natural light-on switch ``t_on`` is inhibited
    while any night phase is active, so the perturbed night is fully
    observer-driven.

    The phases fill the 12-unit night: symbolic phases add the domain
    constraint tau1+tau2+tau3 = 12 (less any literal phases), and literal
    phases alone must sum to 12.
    """

    tau1: Bound
    tau2: Bound
    tau3: Bound


@dataclass(frozen=True)
class JetLag:
    """After ``normal`` time units of nominal behavior, hold the clock's
    light on for ``extended`` units (the off switch ``t_off`` is inhibited
    and the release forces the light back off), then resume."""

    normal: int = 24
    extended: int = 30


@dataclass(frozen=True)
class KnockOut:
    """Permanently disable each listed transition."""

    transitions: tuple


ObserverSpec = Union[InhibitTransition, EventFlag, LightDuration, NightLight, JetLag, KnockOut]


def flag_place(transition: str) -> str:
    return f"p_O_{transition}"


def inhibitor_place(transition: str) -> str:
    return f"p_inh_{transition}"


def _fresh(name: str, taken) -> str:
    if name in taken:
        raise InputError(f"observer name {name!r} collides with an existing name")
    taken.add(name)
    return name


def _as_param(bound: Bound, params: list):
    if isinstance(bound, str) and bound not in params:
        params.append(bound)
    return bound


def apply_observer(n: Net, spec: ObserverSpec) -> Net:
    places, transitions, params, constraints = net_spec(n)
    taken = set(n.places) | set(n.transitions)

    def arcs(t: str, kind: str) -> dict:
        if t not in transitions:
            raise InputError(f"unknown transition {t!r}")
        return transitions[t].setdefault(kind, {})

    def inhibit(t: str):
        inh = arcs(t, "inhibit")
        p = _fresh(inhibitor_place(t), taken)
        places.append((p, 1))
        inh[p] = 1

    def chain(place_names, steps) -> list:
        """Fresh places, the first one marked, and per step (name, delay,
        light switch) a timed transition that moves the token one place on
        and, given a switch (from, to), the light with it."""
        names = [_fresh(p, taken) for p in place_names]
        places.extend([(p, 1 if k == 0 else 0) for k, p in enumerate(names)])
        for k, (name, d, switch) in enumerate(steps):
            pre, post = {names[k]: 1}, {names[k + 1]: 1}
            for side, p in zip((pre, post), switch):
                side[p] = 1
            transitions[_fresh(name, taken)] = {"pre": pre, "post": post, "interval": (d, d)}
        return names

    if isinstance(spec, InhibitTransition):
        inhibit(spec.transition)
    elif isinstance(spec, KnockOut):
        for t in spec.transitions:
            inhibit(t)
    elif isinstance(spec, EventFlag):
        post, inh = arcs(spec.transition, "post"), arcs(spec.transition, "inhibit")
        p = _fresh(flag_place(spec.transition), taken)
        places.append((p, 0))
        post[p] = inh[p] = 1
    elif isinstance(spec, LightDuration):
        inhibit("t_off")
        t_star = _fresh("t_star", taken)
        d = _as_param(spec.duration, params)
        transitions[t_star] = {"pre": {"P_L1": 1}, "post": {"P_L0": 1}, "interval": (d, d)}
    elif isinstance(spec, NightLight):
        dawn = arcs("t_on", "inhibit")
        taus = (spec.tau1, spec.tau2, spec.tau3)
        delays = [_as_param(x, params) for x in taus]
        # light forced on, forced off, then the night ends: dawn is forced
        # and the inhibition token set drains
        switches = (("P_L0", "P_L1"), ("P_L1", "P_L0"), ("P_L0", "P_L1"))
        names = chain(
            ("p_night_wait", "p_night_lit", "p_night_late", "p_night_done"),
            zip(("o_force_on", "o_force_off", "o_night_end"), delays, switches),
        )
        dawn.update(dict.fromkeys(names[:3], 1))  # the natural dawn is blocked while the observer runs
        lit = sum(x for x in taus if isinstance(x, int))
        sym = [x for x in taus if isinstance(x, str)]
        if sym:
            constraints.append(LinearConstraint.make(Counter(sym), "=", Fraction(12 - lit)))
        elif lit != 12:
            raise InputError(f"night phases sum to {lit}, expected 12")
    elif isinstance(spec, JetLag):
        names = chain(
            ("p_jl_wait", "p_jl_hold", "p_jl_done"),
            (("o_jl_start", spec.normal, ()), ("o_jl_release", spec.extended, ("P_L1", "P_L0"))),
        )
        arcs("t_off", "inhibit")[names[1]] = 1
    else:
        raise InputError(f"unknown observer spec {spec!r}")
    return make_net(places, transitions, parameters=params, constraints=constraints)


# ---------------------------------------------------------------------------
# Circadian clock reconstruction


@dataclass(frozen=True)
class ClockConfig:
    """Delays (literal or parameter name) and the initial light state of
    the reconstructed clock. Defaults give the nominal 12h/12h light cycle.
    The gene and the complex always start inactive (G=0, PC=0). A
    parametric tau_on and tau_off are tied by tau_on + tau_off = 24, and a
    parametric tau_g gets tau_g >= 1.

    Delay knobs, one per transition:
      tau_on   darkness duration (switch-on delay of t_on)
      tau_off  light duration (switch-off delay of t_off)
      tau_01   dark-phase complex formation, PC 0 to 1 (t_c)
      tau_10   complex decay, PC 1 to 0 (t_f)
      tau_b    light-induced gene activation (t_b)
      tau_g    complex-mediated gene shutdown (t_g)
      tau_a    gene-complex interaction decay, PC 1 to 0 (t_a)
    """

    light_start: str = "on"
    tau_on: Bound = 12
    tau_off: Bound = 12
    tau_01: Bound = 6
    tau_10: Bound = 6
    tau_b: Bound = 0
    tau_g: Bound = 1
    tau_a: Bound = 7

    def __post_init__(self):
        if self.light_start not in ("on", "off"):
            raise InputError("light_start must be 'on' or 'off'")


def build_circadian_clock(cfg: ClockConfig = ClockConfig()) -> Net:
    """Three coupled boolean components; see the module docstring for the
    provenance caveats. 1-safe by construction under any delays."""
    params: list = []
    for bound in (cfg.tau_on, cfg.tau_off, cfg.tau_01, cfg.tau_10, cfg.tau_b, cfg.tau_g, cfg.tau_a):
        _as_param(bound, params)
    constraints = []
    if isinstance(cfg.tau_on, str) and isinstance(cfg.tau_off, str):
        constraints.append(LinearConstraint.make({cfg.tau_on: 1, cfg.tau_off: 1}, "=", 24))
    if isinstance(cfg.tau_g, str):
        constraints.append(LinearConstraint.make({cfg.tau_g: 1}, ">=", 1))
    light_on = 1 if cfg.light_start == "on" else 0
    places = [
        ("P_L0", 1 - light_on),
        ("P_L1", light_on),
        ("P_G0", 1),
        ("P_G1", 0),
        ("P_PC0", 1),
        ("P_PC1", 0),
    ]
    transitions = {
        # light oscillator
        "t_on": {"pre": {"P_L0": 1}, "post": {"P_L1": 1}, "interval": (cfg.tau_on, cfg.tau_on)},
        "t_off": {"pre": {"P_L1": 1}, "post": {"P_L0": 1}, "interval": (cfg.tau_off, cfg.tau_off)},
        # dark-phase complex formation; the forming complex shuts the gene down
        "t_c": {
            "pre": {"P_PC0": 1, "P_G1": 1},
            "post": {"P_PC1": 1, "P_G0": 1},
            "read": {"P_L0": 1},
            "interval": (cfg.tau_01, cfg.tau_01),
        },
        # spontaneous complex decay
        "t_f": {"pre": {"P_PC1": 1}, "post": {"P_PC0": 1}, "interval": (cfg.tau_10, cfg.tau_10)},
        # light-induced gene activation
        "t_b": {
            "pre": {"P_G0": 1},
            "post": {"P_G1": 1},
            "read": {"P_L1": 1},
            "interval": (cfg.tau_b, cfg.tau_b),
        },
        # redundant complex-mediated gene shutdown
        "t_g": {
            "pre": {"P_G1": 1},
            "post": {"P_G0": 1},
            "read": {"P_PC1": 1},
            "interval": (cfg.tau_g, cfg.tau_g),
        },
        # complex decay through interaction with the active gene
        "t_a": {
            "pre": {"P_PC1": 1},
            "post": {"P_PC0": 1},
            "read": {"P_G1": 1},
            "interval": (cfg.tau_a, cfg.tau_a),
        },
    }
    return make_net(places, transitions, parameters=params, constraints=constraints)

