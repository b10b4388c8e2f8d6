"""Systematic search over clock-structure variants.

The prose constraints pin large parts of the model (which transitions flip
which component, the dark gating of complex formation, which transitions a
knock-out removes) but leave guard arcs and delays open. This script
enumerates the open choices, filters by the behaviors the model must show
under the nominal 12h/12h cycle, and scores survivors by how closely their
parametric-light signatures match the published elicitation results:

  flag(t_g) satisfiable at dark lengths [7,11] and 23 (any gene delay >= 1)
  flag(t_a) at delay 7 satisfiable at dark lengths {23, 24}

Run:  python scripts/search_reconstruction.py [--quick] [--jobs N]
"""

import argparse
import itertools
import os
import sys
from multiprocessing import Pool

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from tpnsynth import ExploreLimits, build, check, instantiate, make_net, parse_formula
from tpnsynth.biomodels import EventFlag, apply_observer
from tpnsynth.cli import _count
from tpnsynth.errors import TpnError
from tpnsynth.petri import LinearConstraint
from tpnsynth.synthesis import usable_cpus

LIM = ExploreLimits(k_bound=2, max_states=60_000)
SAFE = ExploreLimits(k_bound=1, max_states=60_000)  # a 2-token marking raises KBoundError

PHI_A = parse_formula(
    "((M(P_PC0)>=1) -->[0,18] (M(P_PC1)>=1)) & ((M(P_PC1)>=1) -->[0,6] (M(P_PC0)>=1))"
)
PHI_B = parse_formula(
    "((M(P_G0)>=1) -->[0,6] (M(P_G1)>=1)) & ((M(P_G1)>=1) -->[0,18] (M(P_G0)>=1))"
)

TG_TARGET = set(range(7, 12)) | {23}
TA_TARGET = {23, 24}

PC_DOWN_READS = [(), ("P_L0",), ("P_G0",), ("P_G1",), ("P_L1",)]
GENE_UP_READS = [("P_L1",), (), ("P_L1", "P_PC0")]
GENE_DOWN_READS = [("P_PC1",), ("P_PC1", "P_L1")]
SPARE_ROLES = (
    [("pc_down", r) for r in PC_DOWN_READS]
    + [("gene_up", ("P_PC0",)), ("gene_up", ())]
)


def variants(quick=False):
    d_cs = [6] if quick else [5, 6, 7]
    d_fs = [6] if quick else [5, 6, 7]
    d_bs = [0] if quick else [0, 1]
    for d_c, f_read, d_f, b_read, d_b, g_read, a_role in itertools.product(
        d_cs, PC_DOWN_READS, d_fs, GENE_UP_READS, d_bs, GENE_DOWN_READS, SPARE_ROLES
    ):
        yield dict(
            d_c=d_c, f_read=f_read, d_f=d_f, b_read=b_read, d_b=d_b,
            g_read=g_read, a_role=a_role,
        )


def clock_net(v, tau_on, tau_off, tau_g, tau_a):
    role, a_read = v["a_role"]
    if role == "pc_down":
        a_pre, a_post = {"P_PC1": 1}, {"P_PC0": 1}
    else:
        a_pre, a_post = {"P_G0": 1}, {"P_G1": 1}
    transitions = {
        "t_on": {"pre": {"P_L0": 1}, "post": {"P_L1": 1}, "interval": (tau_on, tau_on)},
        "t_off": {"pre": {"P_L1": 1}, "post": {"P_L0": 1}, "interval": (tau_off, tau_off)},
        "t_c": {
            "pre": {"P_PC0": 1, "P_G1": 1},
            "post": {"P_PC1": 1, "P_G0": 1},
            "read": {"P_L0": 1},
            "interval": (v["d_c"], v["d_c"]),
        },
        "t_f": {
            "pre": {"P_PC1": 1},
            "post": {"P_PC0": 1},
            "read": {p: 1 for p in v["f_read"]},
            "interval": (v["d_f"], v["d_f"]),
        },
        "t_b": {
            "pre": {"P_G0": 1},
            "post": {"P_G1": 1},
            "read": {p: 1 for p in v["b_read"]},
            "interval": (v["d_b"], v["d_b"]),
        },
        "t_g": {
            "pre": {"P_G1": 1},
            "post": {"P_G0": 1},
            "read": {p: 1 for p in v["g_read"]},
            "interval": (tau_g, tau_g),
        },
        "t_a": {
            "pre": a_pre,
            "post": a_post,
            "read": {p: 1 for p in a_read},
            "interval": (tau_a, tau_a),
        },
    }
    places = [("P_L0", 0), ("P_L1", 1), ("P_G0", 1), ("P_G1", 0), ("P_PC0", 1), ("P_PC1", 0)]
    return instantiate(make_net(places, transitions), {})


def holds(net, phi):
    return check(net, build(net, LIM), phi).holds


def flag_holds(net, transition):
    flagged = apply_observer(net, EventFlag(transition))
    concrete = instantiate(flagged, {})
    phi = parse_formula(f"EF[0,inf](M(p_O_{transition})>0)")
    return holds(concrete, phi)


def hard_filter(v):
    try:
        nominal = clock_net(v, 12, 12, 1, 7)
        g = build(nominal, SAFE)
        if not g.complete:
            return False
        if not (check(nominal, g, PHI_A).holds and check(nominal, g, PHI_B).holds):
            return False
        for tg in (1, 2):
            if flag_holds(clock_net(v, 12, 12, tg, 7), "t_g"):
                return False
        for ta, expect in ((7, False), (1, False), (0, True)):
            if flag_holds(clock_net(v, 12, 12, 1, ta), "t_a") != expect:
                return False
        return True
    except TpnError:
        return False


def signature(v):
    tg, ta = set(), set()
    try:
        for on in range(0, 25):
            off = 24 - on
            if flag_holds(clock_net(v, on, off, 1, 7), "t_g"):
                tg.add(on)
            if flag_holds(clock_net(v, on, off, 1, 7), "t_a"):
                ta.add(on)
    except TpnError:
        return None
    return tg, ta


def score(v):
    if not hard_filter(v):
        return None
    sig = signature(v)
    if sig is None:
        return None
    tg, ta = sig
    penalty = len(tg ^ TG_TARGET) + len(ta ^ TA_TARGET)
    return penalty, sorted(tg), sorted(ta), v


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="fix delays at their nominal values")
    ap.add_argument("--jobs", type=_count(1), default=usable_cpus())
    ns = ap.parse_args()
    todo = list(variants(ns.quick))
    print(f"evaluating {len(todo)} structure variants", flush=True)
    results = []
    with Pool(min(ns.jobs, len(todo), usable_cpus())) as pool:
        for i, res in enumerate(pool.imap_unordered(score, todo, chunksize=8)):
            if res is not None:
                results.append(res)
            if (i + 1) % 200 == 0:
                print(f"  {i + 1}/{len(todo)} done, {len(results)} pass the nominal filter", flush=True)
    results.sort(key=lambda r: (r[0], str(r[3])))
    print(f"\n{len(results)} variants pass the nominal behavioral filter; best signatures:")
    for penalty, tg, ta, v in results[:12]:
        print(f"penalty {penalty:2d}  tg={tg} ta={ta}")
        print(f"           {v}")
    if not results:
        print("no variant passes the hard filter")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
