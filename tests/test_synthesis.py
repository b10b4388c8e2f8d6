import itertools
import os
import pickle
import random
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpnsynth import (
    ExploreLimits,
    FormulaSyntaxError,
    InputError,
    KBoundError,
    LeadsTo,
    LinearConstraint,
    ParamDomain,
    TimeInterval,
    TpnError,
    build,
    check,
    domain_contains,
    enabled_set,
    instantiate,
    make_net,
    parse_formula,
    parse_gmec,
)
from tpnsynth import semantics, synthesis, tctl
from tpnsynth.cli import main
from tpnsynth.netfile import serialize_net
from tpnsynth.petri import implicit_domain
from tpnsynth.synthesis import (
    SynthesisProblem,
    check_chunk,
    enumerate_valuations,
    summarize,
    synthesize,
)

from _gen import random_formula, random_gated_net, random_parametric_net, random_race_net


def lc(coeffs, rel, bound):
    return LinearConstraint.make(coeffs, rel, bound)


class TestEnumerate:
    def test_single_parameter_with_lower_bound(self):
        d = ParamDomain((lc({"x": 1}, ">=", 1),))
        got = list(enumerate_valuations(d, {"x": (0, 3)}))
        assert got == [{"x": 1}, {"x": 2}, {"x": 3}]

    def test_plane_in_a_square(self):
        d = ParamDomain((lc({"a": 1, "b": 1}, "=", 2),))
        got = list(enumerate_valuations(d, {"a": (0, 2), "b": (0, 2)}, order=["a", "b"]))
        assert got == [{"a": 0, "b": 2}, {"a": 1, "b": 1}, {"a": 2, "b": 0}]

    def test_simplex_point_count(self):
        # integer points of t1+t2+t3 = 12 in a 0..12 cube: C(14,2) = 91
        d = ParamDomain((lc({"t1": 1, "t2": 1, "t3": 1}, "=", 12),))
        box = {"t1": (0, 12), "t2": (0, 12), "t3": (0, 12)}
        got = list(enumerate_valuations(d, box))
        assert len(got) == 91
        # independent count by brute force
        count = sum(
            1
            for a in range(13)
            for b in range(13)
            for c in range(13)
            if a + b + c == 12
        )
        assert count == 91

    def test_lexicographic_order(self):
        got = list(enumerate_valuations(ParamDomain(), {"a": (0, 1), "b": (0, 1)}, order=["a", "b"]))
        assert got == [{"a": 0, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 0}, {"a": 1, "b": 1}]

    @pytest.mark.parametrize("rel", ["<", "<=", "=", ">=", ">"])
    def test_every_bound_rounds_exactly(self, rel):
        # every coefficient in halves from -3 to 3 and every bound from -6 to 6,
        # so each rounding of b/a, up and down, is met
        for a in (Fraction(n, 2) for n in range(-6, 7)):
            for b in range(-6, 7):
                d = ParamDomain((lc({"x": a}, rel, b),))
                assert list(enumerate_valuations(d, {"x": (0, 5)})) == list(filtered_box(d, {"x": (0, 5)}, ["x"]))

    def test_no_parameters_yield_the_empty_valuation_once(self):
        assert list(enumerate_valuations(ParamDomain(), {})) == [{}]
        assert list(enumerate_valuations(ParamDomain((lc({}, "<=", 0),)), {})) == [{}]
        assert list(enumerate_valuations(ParamDomain((lc({}, ">", 0),)), {})) == []

    def test_an_order_name_the_box_lacks_is_an_input_error(self):
        with pytest.raises(InputError, match="does not name the box parameters"):
            list(enumerate_valuations(ParamDomain(), {"x": (0, 3)}, order=["x", "z"]))

    def test_a_box_parameter_the_order_omits_is_an_input_error(self):
        with pytest.raises(InputError, match="missing parameter 'y'"):
            list(enumerate_valuations(ParamDomain(), {"x": (0, 3), "y": (0, 3)}, order=["x"]))
        with pytest.raises(InputError, match="once each"):
            list(enumerate_valuations(ParamDomain(), {"x": (0, 3), "y": (0, 3)}, order=["x", "y", "x"]))

    def test_constraint_outside_the_order_is_an_input_error(self):
        d = ParamDomain((lc({"x": 1, "y": 0}, ">=", 1),))
        with pytest.raises(InputError, match="missing parameter 'y'"):
            list(enumerate_valuations(d, {"x": (0, 3), "y": (0, 3)}, order=["x"]))


@pytest.fixture
def param_net():
    return make_net(
        [("p1", 1), ("p2", 0)],
        {"t1": {"pre": {"p1": 1}, "post": {"p2": 1}, "interval": ("td", "td")}},
        parameters=["td"],
        constraints=[lc({"td": 1}, ">=", 1)],
    )


def _two_sources():
    """Two sources feed p; tokens pile up past a k-bound of 2 when eating is slow."""
    return make_net(
        [("a", 2), ("b", 2), ("p", 0)],
        {
            "grow_a": {"pre": {"a": 1}, "post": {"p": 1}, "interval": ("g", "g")},
            "grow_b": {"pre": {"b": 1}, "post": {"p": 1}, "interval": ("g", "g")},
            "eat": {"pre": {"p": 1}, "interval": ("e", "e")},
        },
        parameters=["g", "e"],
    )


_EMPTIED = parse_formula("EF[0,8](M(a)+M(b)+M(p)=0)")


def in_process_pool(monkeypatch, cpus=64):
    """Stand an in-process executor in for the sweep's process pool, and
    report ``cpus`` usable CPUs, so no process starts. Returns the log: the
    worker count of each pool started, then the chunk sizes of each map."""
    log = []

    class InProcess:
        def __init__(self, max_workers):
            log.append(max_workers)

        def map(self, fn, chunks):
            log.append([len(chunk) for chunk in chunks])
            return map(pickle.loads(pickle.dumps(fn)), chunks)

        def shutdown(self):
            pass

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcess)
    monkeypatch.setattr(synthesis, "_pool", None)  # neither a kept pool nor this fake outlives the test
    monkeypatch.setattr(synthesis, "usable_cpus", lambda: cpus)
    return log


class TestSynthesize:
    def test_simple_window(self, param_net):
        phi = parse_formula("EF[0,3](M(p2)>=1)")
        res = synthesize(SynthesisProblem(param_net, phi, {"td": (0, 6)}))
        assert res.satisfying == [{"td": 1}, {"td": 2}, {"td": 3}]
        assert res.explored == 6
        assert res.summary == {"td": [1, 3]}
        assert res.box_exact

    def test_tautology_satisfied_everywhere(self, param_net):
        phi = parse_formula("AG[0,inf](M(p1)>=0)")
        res = synthesize(SynthesisProblem(param_net, phi, {"td": (0, 4)}))
        assert [v["td"] for v in res.satisfying] == [1, 2, 3, 4]

    def test_unsatisfiable_domain_explores_nothing(self):
        net = make_net(
            [("p", 1)],
            {"t": {"pre": {"p": 1}, "interval": ("x", "x")}},
            parameters=["x"],
            constraints=[lc({"x": 1}, ">=", 2), lc({"x": 1}, "<=", 1)],
        )
        res = synthesize(
            SynthesisProblem(net, parse_formula("EF[0,1](M(p)>=0)"), {"x": (0, 9)})
        )
        assert res.explored == 0 and res.satisfying == [] and not res.box_exact

    def test_per_valuation_failures_are_data(self):
        net = make_net(
            [("p", 0)],
            {"grow": {"post": {"p": 1}, "interval": ("x", "x")}},
            parameters=["x"],
        )
        phi = parse_formula("EF[0,2](M(p)>=1)")
        limits = ExploreLimits(k_bound=2, max_states=10_000)
        res = synthesize(SynthesisProblem(net, phi, {"x": (1, 2)}, limits))
        assert res.satisfying == []
        assert len(res.failures) == 2
        assert all("k-bound" in msg for _, msg in res.failures)

    def test_matches_naive_loop(self, param_net):
        rng = random.Random(83)
        limits = ExploreLimits(k_bound=3, max_states=5000)
        for _ in range(12):
            phi = random_formula(rng, ["p1", "p2"], depth=1, max_bound=4)
            res = synthesize(SynthesisProblem(param_net, phi, {"td": (0, 8)}, limits))
            expected = []
            for td in range(0, 9):
                if td < 1:
                    continue  # outside the domain
                c = instantiate(param_net, {"td": td})
                g = build(c, limits)
                if check(c, g, phi).holds:
                    expected.append({"td": td})
            assert res.satisfying == expected

    def test_check_and_sweep_build_no_state(self, monkeypatch, net_a, param_net):
        # graphs keep packed keys; only reading graph.states materialises
        def refuse(*_):
            raise AssertionError("a State was materialised")

        monkeypatch.setattr("tpnsynth.statespace.materialise", refuse)
        g = build(net_a)
        assert check(net_a, g, parse_formula("EF[2,3](M(p2)>=1)")).holds
        assert not check(net_a, g, parse_formula("EF[0,1](M(p2)>=1)")).holds
        res = synthesize(SynthesisProblem(param_net, parse_formula("EF[0,3](M(p2)>=1)"), {"td": (0, 6)}), jobs=1)
        assert res.satisfying == [{"td": 1}, {"td": 2}, {"td": 3}] and res.failures == []
        grow = make_net([("p", 0)], {"grow": {"post": {"p": 1}, "interval": ("x", "x")}}, parameters=["x"])
        problem = SynthesisProblem(grow, parse_formula("EF[0,2](M(p)>=1)"), {"x": (1, 2)}, ExploreLimits(k_bound=2))
        res = synthesize(problem, jobs=1)  # every valuation ends at the k-bound
        assert [msg.startswith("k-bound") for _, msg in res.failures] == [True, True]

    def test_parallel_equals_serial(self, param_net):
        phi = parse_formula("EF[0,4](M(p2)>=1)")
        a = synthesize(SynthesisProblem(param_net, phi, {"td": (0, 8)}), jobs=1)
        b = synthesize(SynthesisProblem(param_net, phi, {"td": (0, 8)}), jobs=2)
        pool = synthesis._pool
        c = synthesize(SynthesisProblem(param_net, phi, {"td": (0, 8)}), jobs=2)
        assert synthesis._pool is pool  # the second sweep reused the first one's workers
        assert a.satisfying == b.satisfying == c.satisfying
        assert a.summary == b.summary == c.summary

    def test_a_kept_pool_exits_quietly(self):
        # this file imports the pool's modules after tpnsynth, so teardown
        # clears them first; the pool is shut down at exit, before that, and
        # its collection afterwards raises nothing
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k", "parallel_equals_serial"],
            capture_output=True, text=True, timeout=120, cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        assert proc.returncode == 0, proc.stdout
        assert proc.stderr == ""

    def test_parallel_equals_serial_with_k_bound_failures(self):
        limits = ExploreLimits(k_bound=2, max_states=5000)
        problem = SynthesisProblem(_two_sources(), _EMPTIED, {"g": (1, 4), "e": (0, 4)}, limits)
        serial = synthesize(problem, jobs=1)
        # the serial sweep filled the net's table; the workers unpickle it warm
        tab = problem.net.steps
        copy = pickle.loads(pickle.dumps(problem)).net.steps
        assert len(tab.markings) > 1 and vars(copy) == vars(tab)
        assert copy.mindex == {m: mid for mid, m in enumerate(copy.markings)}
        assert len(copy.peak) == len(copy.markings) and copy.masks
        parallel = synthesize(problem, jobs=2)
        assert serial.failures and serial.satisfying
        assert all("k-bound" in msg for _, msg in serial.failures)
        assert (parallel.satisfying, parallel.explored, parallel.failures) == (
            serial.satisfying, serial.explored, serial.failures)

    def test_a_box_makes_one_mask_pair_per_marking_transition_and_width(self, monkeypatch):
        # every instance steps on its net's table, and a fire reads no bound,
        # so the masks of a (marking, transition) pair are made once per key
        # width for the whole box, k-bound stops included
        made = []
        fire_masks = semantics._fire_masks

        def counting(lay, m, t):
            made.append((m, t, lay.width))
            return fire_masks(lay, m, t)

        monkeypatch.setattr(semantics, "_fire_masks", counting)
        problem = SynthesisProblem(_two_sources(), _EMPTIED, {"g": (1, 4), "e": (0, 4)}, ExploreLimits(2, 5000))
        res = synthesize(problem, jobs=1)
        assert res.explored == 20 and res.failures and res.satisfying
        assert len(made) == len(set(made)) == sum(map(len, problem.net.steps.masks.values()))
        assert len({w for _, _, w in made}) > 1

    def test_a_box_evaluates_each_constraint_once_per_marking(self, monkeypatch):
        # constraint values are cached per marking id in the net's table, so
        # a sweep evaluates a (constraint, marking) pair once, k-bound stops
        # included, and every evaluation is one cache entry
        evaluated = []
        compile_gmec = tctl.compile_gmec

        def counting(index, phi):
            holds = compile_gmec(index, phi)

            def count(m):
                evaluated.append((phi, m))
                return holds(m)

            return count

        monkeypatch.setattr(tctl, "compile_gmec", counting)
        phi = parse_formula("E (M(p) <= 3) U[0,8] (M(a)+M(b)+M(p)=0)")
        problem = SynthesisProblem(_two_sources(), phi, {"g": (1, 4), "e": (0, 4)}, ExploreLimits(2, 5000))
        res = synthesize(problem, jobs=1)
        assert res.explored == 20 and res.failures and res.satisfying
        assert len(evaluated) == len(set(evaluated))
        props = problem.net.steps.props
        assert len(props) == 2  # one entry per constraint of the formula
        assert len(evaluated) == sum(len(values) for values in props.values())

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_fewer_than_one_job_is_an_input_error(self, param_net, jobs):
        problem = SynthesisProblem(param_net, parse_formula("EF[0,4](M(p2)>=1)"), {"td": (0, 8)})
        with pytest.raises(InputError):
            synthesize(problem, jobs=jobs)

    def test_workers_capped_at_the_valuation_count(self, monkeypatch, param_net):
        started = in_process_pool(monkeypatch, cpus=64)
        problem = SynthesisProblem(param_net, parse_formula("EF[0,2](M(p2)>=1)"), {"td": (0, 3)})
        res = synthesize(problem, jobs=64)  # td >= 1: three valuations
        assert started == [3, [1, 1, 1]]
        assert res.satisfying == [{"td": 1}, {"td": 2}] and res.explored == 3

    def test_workers_capped_at_the_usable_cpus(self, monkeypatch, param_net):
        started = in_process_pool(monkeypatch, cpus=2)
        problem = SynthesisProblem(param_net, parse_formula("EF[0,2](M(p2)>=1)"), {"td": (0, 9)})
        res = synthesize(problem, jobs=64)
        assert started == [2, [5, 4]]
        assert res.satisfying == [{"td": 1}, {"td": 2}] and res.explored == 9
        started = in_process_pool(monkeypatch, cpus=1)
        assert synthesize(problem, jobs=64).satisfying == res.satisfying and started == []  # one CPU: no pool

    def test_each_worker_gets_one_chunk_of_its_share(self, monkeypatch, param_net):
        started = in_process_pool(monkeypatch)
        problem = SynthesisProblem(param_net, parse_formula("EF[0,40](M(p2)>=1)"), {"td": (0, 100)})
        res = synthesize(problem, jobs=2)  # td >= 1: a hundred valuations
        assert started == [2, [50, 50]]
        assert res.satisfying == synthesize(problem, jobs=1).satisfying == [{"td": td} for td in range(1, 41)]

    def test_no_chunk_holds_more_than_CHUNK(self, monkeypatch, param_net):
        monkeypatch.setattr(synthesis, "CHUNK", 16)
        started = in_process_pool(monkeypatch)
        problem = SynthesisProblem(param_net, parse_formula("EF[0,40](M(p2)>=1)"), {"td": (0, 100)})
        sizes, check_chunk = [], synthesis.check_chunk
        with monkeypatch.context() as m:  # records the chunks of one process, which the pool cannot pickle
            m.setattr(synthesis, "check_chunk", lambda p, vals: sizes.append(len(vals)) or check_chunk(p, vals))
            serial = synthesize(problem, jobs=1)
        res = synthesize(problem, jobs=2)
        assert sizes == [16] * 6 + [4]
        assert started == [2, [16] * 6 + [4]]
        assert res.satisfying == serial.satisfying == [{"td": td} for td in range(1, 41)]

    def test_pool_kept_per_worker_count_and_dropped_when_broken(self, monkeypatch, param_net):
        log, chunks = [], []

        class Recording:  # maps here, or breaks when told to; logs starts and shutdowns
            breaks = False

            def __init__(self, max_workers):
                self.workers = max_workers
                log.append(("start", max_workers))

            def map(self, fn, items):
                if Recording.breaks:
                    raise BrokenProcessPool("a worker died")
                chunks.append([len(chunk) for chunk in items])
                return map(pickle.loads(pickle.dumps(fn)), items)

            def shutdown(self):
                log.append(("shutdown", self.workers))

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recording)
        monkeypatch.setattr(synthesis, "_pool", None)
        monkeypatch.setattr(synthesis, "usable_cpus", lambda: 64)
        problem = SynthesisProblem(param_net, parse_formula("EF[0,4](M(p2)>=1)"), {"td": (0, 8)})
        serial = synthesize(problem, jobs=1)
        assert log == []
        runs = [synthesize(problem, jobs=2), synthesize(problem, jobs=2)]
        assert log == [("start", 2)]
        runs.append(synthesize(problem, jobs=3))
        assert log == [("start", 2), ("shutdown", 2), ("start", 3)]
        assert chunks == [[4, 4], [4, 4], [3, 3, 2]]  # eight valuations: every worker gets a chunk
        for res in runs:
            assert (res.satisfying, res.explored, res.failures, res.summary) == (
                serial.satisfying, serial.explored, serial.failures, serial.summary)
        Recording.breaks = True
        with pytest.raises(BrokenProcessPool):
            synthesize(problem, jobs=3)
        Recording.breaks = False
        assert synthesize(problem, jobs=3).satisfying == serial.satisfying
        assert log[3:] == [("start", 3)]  # the broken pool was dropped, not reused

    def test_problem_pickles_with_its_plan(self, param_net):
        problem = SynthesisProblem(param_net, parse_formula("EF[0,4](M(p2)>=1)"), {"td": (0, 8)})
        before = synthesize(problem)
        copy = pickle.loads(pickle.dumps(problem))
        assert copy == problem and vars(copy)["plan"] == problem.plan
        assert synthesize(copy).satisfying == before.satisfying

    def test_formula_that_does_not_compile_fails_on_construction(self, param_net):
        phi = LeadsTo(parse_gmec("M(p1)>=1"), TimeInterval(1, 3), parse_gmec("M(p2)>=1"))
        with pytest.raises(FormulaSyntaxError, match="closed 0"):
            SynthesisProblem(param_net, phi, {"td": (0, 8)})

    def test_a_box_range_over_sys_maxsize_points_fails_before_enumeration(self, param_net, tmp_path, monkeypatch, capsys):
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("enumerated a box that is refused as input")

        monkeypatch.setattr(synthesis, "enumerate_valuations", enumerate_nothing)
        with pytest.raises(InputError, match="more than"):
            SynthesisProblem(param_net, parse_formula("EF[0,1](M(p2)>=1)"), {"td": (0, sys.maxsize)})
        path = tmp_path / "param.tpnet"
        path.write_text(serialize_net(param_net))
        code = main(["synth", str(path), "--formula-text", "EF[0,1](M(p2)>=1)", "--box", f"td=0..{sys.maxsize}"])
        out = capsys.readouterr()
        assert code == 2 and out.out == "" and "more than" in out.err

    def test_box_must_cover_parameters(self, param_net):
        with pytest.raises(InputError):
            SynthesisProblem(param_net, parse_formula("EF[0,1](M(p2)>=1)"), {})

    @pytest.mark.parametrize("bounds", [(0, 2.5), ("0", 2), (0, True), (0.0, 2)])
    def test_a_box_bound_that_is_not_an_int_is_an_input_error(self, param_net, bounds):
        with pytest.raises(InputError, match="bad box range for 'td'"):
            SynthesisProblem(param_net, parse_formula("EF[0,1](M(p2)>=1)"), {"td": bounds})


def memo_free(p):
    """(satisfying, failures, explored) of a sweep that checks every graph:
    instantiate, build and check per valuation, on a copy of the problem,
    which shares no table with any other sweep."""
    p = pickle.loads(pickle.dumps(p))
    vals = list(enumerate_valuations(implicit_domain(p.net), p.box, order=p.net.parameters))
    satisfying, failures = [], []
    for v in vals:
        try:
            c = instantiate(p.net, v)
            holds = check(c, build(c, p.limits), p.plan).holds
        except KBoundError as exc:
            failures.append((v, f"k-bound: {exc}"))
        except TpnError as exc:
            failures.append((v, f"{type(exc).__name__}: {exc}"))
        else:
            if holds:
                satisfying.append(v)
    return satisfying, failures, len(vals)


def _race():
    """Two transitions race for one token, each into its own place: which
    marking a valuation reaches first depends on x against y."""
    return make_net(
        [("race", 1), ("a", 0), ("b", 0)],
        {
            "to_a": {"pre": {"race": 1}, "post": {"a": 1}, "interval": ("x", "x")},
            "to_b": {"pre": {"race": 1}, "post": {"b": 1}, "interval": ("y", "y")},
        },
        parameters=["x", "y"],
    )


def read_values(net, v, limits=ExploreLimits()):
    """The values at v of the parameters bounding a transition that some
    marking of v's graph enables, found through the public API."""
    g = build(instantiate(net, v), limits)
    on = set().union(*(enabled_set(net, s.marking) for s in g.states))
    read = set().union(*(iv.referenced_params() for t, iv in zip(net.transitions, net.intervals) if t in on))
    return tuple(sorted((p, v[p]) for p in read))


def counting_builds(monkeypatch):
    """The graphs ``check_chunk`` builds from now on, appended as built."""
    built = []
    monkeypatch.setattr(synthesis, "build", lambda c, lim: built.append(c) or build(c, lim))
    return built


def _gated():
    """The race's winner at time a opens the gate, and the gate's transition
    waits b: b is read only where a <= 2, when ``open`` can win."""
    return make_net(
        [("race", 1), ("gate", 0), ("away", 0), ("done", 0)],
        {
            "open": {"pre": {"race": 1}, "post": {"gate": 1}, "interval": ("a", "a")},
            "leave": {"pre": {"race": 1}, "post": {"away": 1}, "interval": (2, 2)},
            "shut": {"pre": {"gate": 1}, "post": {"done": 1}, "interval": ("b", "b")},
        },
        parameters=["a", "b"],
    )


class TestChunkMemo:
    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_a_sweep_equals_the_memo_free_loop(self, rng):
        # incomplete graphs (a small state cap) and k-bound stops are never
        # memoised; every other valuation is read off the values of the
        # parameters its graph reads, or else off its graph's shape, at
        # every worker count, whose chunks hold the memos
        make, width = rng.choice([(random_race_net, 4), (random_parametric_net, 4), (random_gated_net, 3)])
        net = make(rng)
        phi = random_formula(rng, list(net.places), depth=2, max_bound=4)
        limits = ExploreLimits(k_bound=3, max_states=rng.choice([6, 40, 2000]))
        problem = SynthesisProblem(net, phi, {p: (0, width) for p in net.parameters}, limits)
        expected = memo_free(problem)
        with pytest.MonkeyPatch.context() as m:
            in_process_pool(m)
            for jobs in range(1, 5):
                res = synthesize(problem, jobs=jobs)
                assert (res.satisfying, res.failures, res.explored) == expected

    def test_a_chunk_builds_once_per_distinct_read_values(self, monkeypatch):
        problem = SynthesisProblem(_gated(), parse_formula("EF[0,4](M(done)>=1)"), {"a": (0, 4), "b": (0, 3)})
        vals = list(enumerate_valuations(implicit_domain(problem.net), problem.box, order=["a", "b"]))
        distinct = {read_values(problem.net, v) for v in vals}
        assert len(distinct) == 3 * 4 + 2  # (a, b) for a <= 2, a alone above
        built = counting_builds(monkeypatch)
        results = check_chunk(problem, vals)
        assert len(built) == len(distinct)
        satisfying = [v for v, (holds, _) in zip(vals, results) if holds]
        assert satisfying == [v for v in vals if v["a"] <= 2 and v["a"] + v["b"] <= 4] == memo_free(problem)[0]

    @pytest.mark.parametrize("stop", ["max_states", "k_bound"])
    def test_a_cut_graph_never_enters_the_memo(self, monkeypatch, stop):
        # the cut graph's markings enable t alone, which a bounds; u, which b
        # bounds, is enabled only beyond the cut: at the state cap's dropped
        # node, or at the marking over the k-bound
        net = make_net(
            [("p", 1), ("q", 0)],
            {
                "t": {"pre": {"p": 1}, "post": {"q": 4 if stop == "k_bound" else 1}, "interval": ("a", "a")},
                "u": {"pre": {"q": 1}, "interval": ("b", "b")},
            },
            parameters=["a", "b"],
        )
        limits = ExploreLimits(k_bound=3, max_states=2) if stop == "max_states" else ExploreLimits(k_bound=3)
        problem = SynthesisProblem(net, parse_formula("EF[0,3](M(q)>=1)"), {"a": (1, 1), "b": (0, 1)}, limits)
        cut = build(instantiate(net, {"a": 1, "b": 0}), ExploreLimits(k_bound=9, max_states=2))
        assert {s.marking for s in cut.states} == {(1, 0)}
        built = counting_builds(monkeypatch)
        results = check_chunk(problem, [{"a": 1, "b": 0}, {"a": 1, "b": 1}])
        assert len(built) == 2 and all(err for _, err in results)
        assert [(v, err) for v, (_, err) in zip(({"a": 1, "b": 0}, {"a": 1, "b": 1}), results)] == memo_free(problem)[1]

    def test_a_parameter_of_the_domain_alone_is_never_read(self, monkeypatch):
        net = make_net(
            [("p", 1), ("q", 0)],
            {"t": {"pre": {"p": 1}, "post": {"q": 1}, "interval": ("a", "a")}},
            parameters=["a", "c"],
            constraints=[lc({"a": 1, "c": 1}, "<=", 4)],
        )
        problem = SynthesisProblem(net, parse_formula("EF[0,1](M(q)>=1)"), {"a": (0, 2), "c": (0, 3)})
        vals = list(enumerate_valuations(implicit_domain(net), problem.box, order=["a", "c"]))
        assert {read_values(net, v) for v in vals} == {(("a", a),) for a in range(3)}
        built = counting_builds(monkeypatch)
        results = check_chunk(problem, vals)
        assert len(built) == 3 and len(vals) == 11
        assert [v for v, (holds, _) in zip(vals, results) if holds] == [v for v in vals if v["a"] <= 1]

    def test_check_runs_once_per_distinct_shape_in_a_chunk(self, monkeypatch):
        # y is the high bound of a transition that a [d,d] one disables:
        # every y >= d gives the same marking ids and edges, with other
        # clock values in the keys
        net = make_net(
            [("p", 1), ("q", 1), ("r", 0), ("s", 0)],
            {
                "a": {"pre": {"p": 1}, "post": {"r": 1}, "interval": ("d", "d")},
                "b": {"pre": {"q": 1}, "read": {"p": 1}, "post": {"s": 1}, "interval": (0, "y")},
            },
            parameters=["d", "y"],
        )
        problem = SynthesisProblem(net, parse_formula("EF[0,1](M(r)>=1 & M(s)=0)"), {"d": (1, 2), "y": (0, 4)})
        vals = list(enumerate_valuations(implicit_domain(net), problem.box, order=net.parameters))
        shapes = set()
        for v in vals:
            g = build(instantiate(net, v))
            shapes.add((tuple(g.mids), tuple(map(tuple, g.succ))))
        assert 1 < len(shapes) < len(vals)
        checked = []
        monkeypatch.setattr(synthesis, "decide", lambda g, plan: checked.append(g) or tctl.decide(g, plan))
        results = check_chunk(problem, vals)
        assert len(checked) == len(shapes)
        monkeypatch.undo()
        assert [holds for holds, _ in results] == [check(c, build(c), problem.plan).holds
                                                   for c in (instantiate(net, v) for v in vals)]

    def test_equal_markings_with_other_edges_are_other_shapes(self):
        # y=0 lets back1 fire at once, y=1 makes it wait: both graphs visit
        # the same markings in the same node order, and only y=1 is off the
        # race place at time 2 on every path
        net = make_net(
            [("race", 1), ("w0", 0), ("w1", 0)],
            {
                "win0": {"pre": {"race": 1}, "post": {"w0": 1}, "interval": (1, 2)},
                "back0": {"pre": {"w0": 1}, "post": {"race": 1}, "interval": (1, 3)},
                "win1": {"pre": {"race": 1}, "post": {"w1": 1}, "interval": (1, 3)},
                "back1": {"pre": {"w1": 1}, "post": {"race": 1}, "interval": ("y", 1)},
            },
            parameters=["y"],
        )
        graphs = [build(instantiate(net, {"y": y})) for y in (0, 1)]
        assert graphs[0].mids == graphs[1].mids
        assert graphs[0].succ != graphs[1].succ
        problem = SynthesisProblem(net, parse_formula("AF[2,2](M(race) < 1)"), {"y": (0, 1)})
        assert check_chunk(problem, [{"y": 0}, {"y": 1}]) == [(False, None), (True, None)]

    def test_an_incomplete_graph_is_refused_whatever_its_edges(self):
        # at b=2 the state cap cuts the delay out of clock (0,1), which
        # leaves the edges of the complete b=1 graph
        net = make_net([("p", 1)], {"t": {"pre": {"p": 1}, "post": {"p": 1}, "interval": (1, "b")}}, parameters=["b"])
        limits = ExploreLimits(max_states=2)
        graphs = [build(instantiate(net, {"b": b}), limits) for b in (1, 2)]
        assert graphs[0].succ == graphs[1].succ and [g.complete for g in graphs] == [True, False]
        problem = SynthesisProblem(net, parse_formula("EF[0,1](M(p)=1)"), {"b": (1, 2)}, limits)
        assert check_chunk(problem, [{"b": 1}, {"b": 2}]) == [
            (True, None), (False, "IncompleteGraphError: refusing to check an incomplete graph")]

    def test_copies_interning_markings_in_other_orders_agree(self):
        problem = SynthesisProblem(_race(), parse_formula("EF[0,3](M(a)>=1)"), {"x": (0, 3), "y": (0, 3)})
        first, second = (pickle.loads(pickle.dumps(problem)) for _ in range(2))
        check_chunk(first, [{"x": 1, "y": 2}])  # interns a's marking before b's
        check_chunk(second, [{"x": 2, "y": 1}])  # and b's before a's
        vals = list(enumerate_valuations(implicit_domain(problem.net), problem.box, order=["x", "y"]))
        assert check_chunk(first, vals) == check_chunk(second, vals)
        ids = [p.net.steps.mindex for p in (first, second)]
        assert ids[0].keys() == ids[1].keys() and ids[0] != ids[1]
        satisfying = [v for v in vals if v["x"] <= v["y"]]  # a is reached, by time x <= 3
        assert synthesize(first).satisfying == synthesize(second).satisfying == satisfying
        assert memo_free(problem)[0] == satisfying


class TestSummarize:
    def test_interval_projection(self):
        sats = [{"t": v} for v in range(6, 13)]
        summary, exact = summarize(sats, ["t"])
        assert summary == {"t": [6, 12]} and exact

    def test_empty_set(self):
        summary, exact = summarize([], ["t"])
        assert summary == {} and not exact

    def test_diagonal_is_not_box_exact(self):
        summary, exact = summarize([{"a": 0, "b": 1}, {"a": 1, "b": 0}], ["a", "b"])
        assert summary == {"a": [0, 1], "b": [0, 1]} and not exact


@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 6),
    st.integers(0, 8),
)
@settings(max_examples=80, deadline=None)
def test_enumeration_is_lexicographic_and_sound(wa, wb, lo_bound, rhs):
    d = ParamDomain((lc({"a": 1, "b": 1}, "<=", rhs), lc({"a": 1}, ">=", lo_bound)))
    box = {"a": (0, wa), "b": (0, wb)}
    got = list(enumerate_valuations(d, box, order=["a", "b"]))
    assert got == sorted(got, key=lambda v: (v["a"], v["b"]))
    for v in got:
        assert 0 <= v["a"] <= wa and 0 <= v["b"] <= wb
        assert v["a"] + v["b"] <= rhs and v["a"] >= lo_bound
    expected = sum(
        1
        for a in range(wa + 1)
        for b in range(wb + 1)
        if a + b <= rhs and a >= lo_bound
    )
    assert len(got) == expected


def filtered_box(d, box, order):
    """The reference enumeration: every point of the box, in lexicographic
    order of ``order``, kept when the domain contains it."""
    for point in itertools.product(*(range(box[p][0], box[p][1] + 1) for p in order)):
        v = dict(zip(order, point))
        if domain_contains(d, v):
            yield v


COEFFICIENTS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))


@st.composite
def domains_and_boxes(draw):
    params = draw(st.lists(st.sampled_from("abc"), max_size=3, unique=True))
    box = {p: draw(st.tuples(st.integers(0, 4), st.integers(-1, 5)).map(lambda t: (t[0], t[0] + t[1]))) for p in params}
    constraints = draw(st.lists(
        st.builds(
            lc,
            st.dictionaries(st.sampled_from(params), COEFFICIENTS) if params else st.just({}),
            st.sampled_from(["<", "<=", "=", ">=", ">"]),
            st.one_of(st.integers(-6, 12), st.fractions(-6, 12, max_denominator=2)),
        ),
        max_size=3,
    ))
    return ParamDomain(tuple(constraints)), box, draw(st.permutations(params))


@given(domains_and_boxes())
@settings(max_examples=200, deadline=None)
def test_enumeration_equals_the_filtered_box(case):
    d, box, order = case
    assert list(enumerate_valuations(d, box, order=order)) == list(filtered_box(d, box, order))


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_implicit_domain_enumeration_equals_the_filtered_box(rng):
    net = random_parametric_net(rng)
    box = {p: (rng.randint(0, 3), rng.randint(3, 7)) for p in net.parameters}
    d = implicit_domain(net)
    assert list(enumerate_valuations(d, box, order=net.parameters)) == list(filtered_box(d, box, net.parameters))
