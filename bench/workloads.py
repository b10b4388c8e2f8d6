"""Seeded workload generators and the hand-derived answers they must produce.

Each generator receives the library namespace, a ``random.Random`` seeded
from ``--seed`` and a tracer, and returns the queries and synthesis boxes of
one workload. The seed only permutes declaration orders and assignments,
never the amount of work, so every seed has the same graph sizes and the
same answers. No expected answer is computed by the checker, the oracle or
the synthesis layer: they are closed forms or the published / reconstructed
numbers recorded in docs/model_notes.md.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

# The query texts of models/queries, copied so that the workloads stay fixed
# when the model files change.
PHI_I = (
    "(((M(P_PC0)>=1) -->[0,18] (M(P_PC1)>=1)) & ((M(P_PC1)>=1) -->[0,6] (M(P_PC0)>=1)))"
    " & (((M(P_G0)>=1) -->[0,6] (M(P_G1)>=1)) & ((M(P_G1)>=1) -->[0,18] (M(P_G0)>=1)))"
    " & (!((M(P_PC0)>=1) -->[0,11] (M(P_PC1)>=1)))"
)
ELICIT_TG = "EF[0,inf](M(p_O_t_g)>0)"
ELICIT_TA = "EF[0,inf](M(p_O_t_a)>0)"
LIGHT_CONSTANT = "AG[0,inf](M(P_L1)=0)"
PC_RESPONSE = "(M(P_PC0)>=1) -->[0,{}] (M(P_PC1)>=1)"

# Case-study limits, as in scripts/run_case_study.py.
CLOCK_LIMITS = dict(k_bound=2, max_states=200_000)


@dataclass
class Query:
    """One check: concrete net -> graph -> verdict, compared with ``holds``,
    the witness-present flag and, when given, the (states, edges) counts."""

    label: str
    net: object
    valuation: dict
    text: str
    formula: object
    holds: bool
    witness: bool
    limits: object
    counts: Optional[tuple] = None
    scale: Optional[int] = None
    never_fired: tuple = ()  # transitions that may label no edge of the graph

    @property
    def horizon(self) -> int:
        bounds = [int(b) for b in re.findall(r"\[\d+,(\d+)\]", self.text)]
        return max(bounds, default=0)


@dataclass
class Box:
    """One synthesis box, run at jobs 1 and jobs N (and through the CLI when
    ``cli_argv`` is set); the satisfying set must equal ``expected``."""

    label: str
    net: object
    formula: object
    box: dict
    expected: frozenset  # of sorted (name, value) tuples
    explored: int
    limits: object
    cli_argv: Optional[list] = None

    @property
    def points(self) -> int:
        n = 1
        for lo, hi in self.box.values():
            n *= hi - lo + 1
        return n


@dataclass
class Inputs:
    queries: list = field(default_factory=list)
    boxes: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # set-up mismatches
    query_rounds: int = 1  # times a pass runs the queries; more when each takes milliseconds


def valuation_key(v) -> tuple:
    return tuple(sorted(v.items()))


class Maker:
    """Set-up helpers shared by the generators: formula parsing with a
    per-text cache, and the seeded netfile round trip."""

    def __init__(self, lib, rng, tracer, inputs):
        self.lib, self.rng, self.tr, self.inputs = lib, rng, tracer, inputs
        self._formulas = {}

    def formula(self, text):
        if text not in self._formulas:
            self._formulas[text] = self.tr.call("tctl.parse_formula", self.lib.tpn.parse_formula, text)
        return self._formulas[text]

    def clock(self, observer=None, **cfg):
        bio = self.lib.bio
        net = self.tr.call("biomodels.build_circadian_clock", bio.build_circadian_clock, bio.ClockConfig(**cfg))
        if observer is not None:
            net = self.tr.call("biomodels.apply_observer", bio.apply_observer, net, observer)
        return self.round_trip(net)

    def round_trip(self, net):
        """Serialize, shuffle the place and transition lines, parse back.

        The parsed net is what the workload runs; it must survive its own
        serialize/parse round trip unchanged.
        """
        tpn = self.lib.tpn
        lines = self.tr.call("netfile.serialize_net", tpn.serialize_net, net).splitlines()
        places = [ln for ln in lines if ln.startswith("place ")]
        trans = [ln for ln in lines if ln.startswith("trans ")]
        rest = [ln for ln in lines if not ln.startswith(("place ", "trans "))]
        self.rng.shuffle(places)
        self.rng.shuffle(trans)
        text = "\n".join(places + rest + trans) + "\n"
        parsed = self.tr.call("netfile.parse_net", tpn.parse_net, text)
        again = self.tr.call("netfile.serialize_net", tpn.serialize_net, parsed)
        if self.tr.call("netfile.parse_net", tpn.parse_net, again) != parsed:
            self.inputs.failures.append("netfile round trip changed the net")
        return parsed

    def limits(self, **kw):
        return self.lib.tpn.ExploreLimits(**kw)


# ---------------------------------------------------------------------------
# osc-product: one large graph per query; the explorer dominates.

U_INTERVALS = ((2, 3), (2, 4), (3, 5), (3, 6))
D_INTERVAL = (2, 3)
TARGET = (3, 6)  # the oscillator whose response is queried


def oscillator_counts(u_intervals, d=D_INTERVAL):
    """States and edges of the product of independent 2-place oscillators.

    An oscillator with u = [lu, hu] and d = [ld, hd] has hu + 1 states while
    A is marked (one per elapsed unit) and hd + 1 while B is marked; every
    combination is reachable because each interval has slack. Each product
    state has one firing edge per fireable component transition (u is
    fireable in hu - lu + 1 of the A-states, d in hd - ld + 1 of the
    B-states) and one delay edge when every component admits a delay (hu of
    the A-states, hd of the B-states).
    """
    ld, hd = d
    sizes = [hu + 1 + hd + 1 for _, hu in u_intervals]
    fireable = [(hu - lu + 1) + (hd - ld + 1) for lu, hu in u_intervals]
    states = 1
    delays = 1
    for (_, hu), n in zip(u_intervals, sizes):
        states *= n
        delays *= hu + hd
    edges = delays + sum(f * states // n for f, n in zip(fireable, sizes))
    return states, edges


def osc_product(lib, rng, tr, work_dir) -> Inputs:
    inputs = Inputs()
    mk = Maker(lib, rng, tr, inputs)
    u = list(U_INTERVALS)
    rng.shuffle(u)
    places, trans = [], {}
    for i, (lo, hi) in enumerate(u):
        places += [(f"A{i}", 1), (f"B{i}", 0)]
        trans[f"u{i}"] = {"pre": {f"A{i}": 1}, "post": {f"B{i}": 1}, "interval": (lo, hi)}
        trans[f"d{i}"] = {"pre": {f"B{i}": 1}, "post": {f"A{i}": 1}, "interval": D_INTERVAL}
    net = mk.round_trip(tr.call("petri.make_net", lib.tpn.make_net, places, trans))
    # Query the oscillator that drew TARGET, wherever the seed put it: the
    # horizon, and so the check cost, is then the same for every seed.
    k, b = u.index(TARGET), TARGET[1]
    counts = oscillator_counts(u)
    lim = mk.limits()
    # u_k must fire within b of A_k being marked, and may wait exactly b.
    for bound, holds in ((b, True), (b - 1, False)):
        text = f"(M(A{k})>=1) -->[0,{bound}] (M(B{k})>=1)"
        inputs.queries.append(
            Query(f"respond<={bound}", net, {}, text, mk.formula(text), holds, not holds, lim, counts)
        )
    return inputs


# ---------------------------------------------------------------------------
# long-delay-clock: tiny graphs, long horizons; the time product dominates.

SCALES = (1, 10, 30)


def clock_counts(s):
    """The nominal clock is deterministic with period 24s: one node per time
    unit of the cycle, plus seven zero-time nodes of the firing bursts at
    dawn, dusk and complex formation (whose shape does not depend on s).
    Every node has one out-edge except the two branching points of the dawn
    burst, where t_on, t_f and t_b race at the same instant."""
    return 24 * s + 7, 24 * s + 9


def long_delay_clock(lib, rng, tr, work_dir) -> Inputs:
    inputs = Inputs()
    mk = Maker(lib, rng, tr, inputs)
    lim = mk.limits(**CLOCK_LIMITS)
    for s in SCALES:
        # Every delay and every bound is multiplied by s, which keeps the
        # published tight 18h-absent / 6h-present profile of the complex.
        net = mk.clock(tau_on=12 * s, tau_off=12 * s, tau_01=6 * s, tau_10=6 * s, tau_b=0, tau_g=s, tau_a=7 * s)
        for text, holds, witness in (
            (PC_RESPONSE.format(18 * s), True, False),
            (PC_RESPONSE.format(18 * s - 1), False, True),
            (f"EF[0,{24 * s}](M(P_PC1)>=1 & M(P_L1)>=1)", True, True),
        ):
            inputs.queries.append(
                Query(f"x{s}:{text}", net, {}, text, mk.formula(text), holds, witness, lim, clock_counts(s), s)
            )
    return inputs


# ---------------------------------------------------------------------------
# case-study: the published panel; many tiny graphs and the synthesis layer.


def case_study(lib, rng, tr, work_dir) -> Inputs:
    inputs = Inputs(query_rounds=10)
    mk = Maker(lib, rng, tr, inputs)
    bio = lib.bio
    lim = mk.limits(**CLOCK_LIMITS)

    def query(label, net, text, holds, witness, valuation=None, **kw):
        inputs.queries.append(
            Query(label, net, valuation or {}, text, mk.formula(text), holds, witness, lim, **kw)
        )

    def box(label, net, text, rng_box, expected, explored, cli_argv=None):
        keys = frozenset(valuation_key(v) for v in expected)
        inputs.boxes.append(Box(label, net, mk.formula(text), rng_box, keys, explored, lim, cli_argv))

    # Query I: with t_on inhibited and a dark start the light never changes.
    query(
        "query-I",
        mk.clock(bio.InhibitTransition("t_on"), light_start="off", tau_g=1, tau_a=7),
        LIGHT_CONSTANT,
        True,
        False,
    )
    # Query II: admissible light durations are exactly [6, 12].
    box(
        "query-II",
        mk.clock(bio.LightDuration("td"), tau_g=1, tau_a=7),
        PHI_I,
        {"td": (0, 24)},
        [{"td": td} for td in range(6, 13)],
        25,
    )
    # Query III (reconstruction gap): the pulse lasts >= 1 unit and ends
    # >= 7 units before dawn, for any tau_g.
    box(
        "query-III",
        mk.clock(bio.NightLight("t1", "t2", "t3"), light_start="off", tau_g="tg", tau_a=7),
        PHI_I,
        {"tg": (1, 2), "t1": (0, 12), "t2": (0, 12), "t3": (0, 12)},
        [
            {"tg": tg, "t1": 12 - t2 - t3, "t2": t2, "t3": t3}
            for tg in range(1, 3)
            for t2 in range(1, 13)
            for t3 in range(7, 13 - t2)
        ],
        2 * 91,
    )
    # Gene shutdown: never fires nominally for tau_g >= 1 ...
    nominal = mk.clock(bio.EventFlag("t_g"), tau_g="tau_g", tau_a=7)
    for tg in (1, 2, 3):
        query(f"t_g-nominal tau_g={tg}", nominal, ELICIT_TG, False, False, {"tau_g": tg})
    # ... and (reconstruction gap) fires at dark lengths 6..11 with
    # tau_g <= 12 - dark under parametric light.
    gene_net = mk.clock(bio.EventFlag("t_g"), tau_on="tau_on", tau_off="tau_off", tau_g="tau_g", tau_a=7)
    gene_box = {"tau_on": (0, 24), "tau_off": (0, 24), "tau_g": (1, 13)}
    gene_file = f"{work_dir}/gene_delay.tpnet"
    with open(gene_file, "w") as fh:
        fh.write(tr.call("netfile.serialize_net", lib.tpn.serialize_net, gene_net))
    cli_argv = ["synth", gene_file, "--formula-text", ELICIT_TG, "--format", "json", "--jobs", "1"]
    cli_argv += [f"--k-bound={lim.k_bound}", f"--max-states={lim.max_states}"]
    cli_argv += [f"--box={p}={lo}..{hi}" for p, (lo, hi) in gene_box.items()]
    box(
        "gene-delay",
        gene_net,
        ELICIT_TG,
        gene_box,
        [{"tau_on": on, "tau_off": 24 - on, "tau_g": g} for on in range(6, 12) for g in range(1, 13 - on)],
        25 * 13,
        cli_argv,
    )
    # Spare decay: under the nominal schedule only delay 0 can fire ...
    for ta in range(9):
        net = mk.clock(bio.EventFlag("t_a"), tau_g=1, tau_a=ta)
        query(f"t_a-nominal tau_a={ta}", net, ELICIT_TA, ta == 0, ta == 0)
    # ... and (reconstruction gap) delay 7 never fires under parametric light.
    box(
        "spare-decay",
        mk.clock(bio.EventFlag("t_a"), tau_on="tau_on", tau_off="tau_off", tau_g=1, tau_a=7),
        ELICIT_TA,
        {"tau_on": (0, 24), "tau_off": (0, 24)},
        [],
        25,
    )
    # Knock-out: t_b and t_f never fire and the oscillation property fails.
    query(
        "knock-out",
        mk.clock(bio.KnockOut(("t_b", "t_f")), tau_g=1, tau_a=7),
        PC_RESPONSE.format(18),
        False,
        True,
        never_fired=("t_b", "t_f"),
    )
    # Jet lag: 30h of forced light degrade the response to exactly 36.
    jet = mk.clock(bio.JetLag(24, 30), tau_g=1, tau_a=7)
    query("jet-lag<=36", jet, PC_RESPONSE.format(36), True, False)
    query("jet-lag<=35", jet, PC_RESPONSE.format(35), False, True)
    return inputs


WORKLOADS = {
    "osc-product": osc_product,
    "long-delay-clock": long_delay_clock,
    "case-study": case_study,
}
