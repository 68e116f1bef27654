"""Simulation engine: draw discipline, sampling grid, statuses, incremental
transition maintenance."""
import concurrent.futures
import importlib.resources
import math
from random import Random

import pytest

from cwcsim import (
    Model,
    SimConfig,
    SimulationError,
    enumerate_transitions,
    parse_model,
    parse_term,
    run,
    run_replicates,
)
from cwcsim import engine
from cwcsim.engine import TransitionStore, derive_seed, incremental_retransitions, step
from cwcsim.terms import (
    MAX_DEPTH, Atom, Compartment, Observable, Scope, Term, count_atom, replace_at, shared,
)
from tests.conftest import ATOM_NAMES, gen_rule, gen_term, instantiate_lhs


def model_of(text: str) -> Model:
    mf = parse_model(text)
    return Model(mf.init, mf.rules, mf.observables)


class Scripted:
    """Serves exactly the given uniform draws, in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self) -> float:
        return self.values.pop(0)


TWO_CHOICES = model_of(
    "init a\n"
    "rule fast: a => a @ 2\n"
    "rule slow: a => a @ 1\n"
)


def test_step_draws_time_then_selection():
    state = parse_term("a")
    ts = TransitionStore(state, TWO_CHOICES.rules)
    assert [t.rule_id for t in ts] == ["fast", "slow"]
    assert [t.rate for t in ts] == [2.0, 1.0]

    rng = Scripted([0.5, 0.9])
    dt, chosen, nxt = step(state, ts, rng)
    assert rng.values == []  # exactly two draws per event
    assert math.isclose(dt, -math.log(1.0 - 0.5) / 3.0)
    assert chosen.rule_id == "slow"  # 0.9 * 3 = 2.7 falls past the first rate
    assert nxt == state

    _, chosen, _ = step(state, ts, Scripted([0.5, 0.3]))
    assert chosen.rule_id == "fast"
    _, chosen, _ = step(state, ts, Scripted([0.5, 0.0]))
    assert chosen.rule_id == "fast"
    _, chosen, _ = step(state, ts, Scripted([0.5, 0.999999]))
    assert chosen.rule_id == "slow"


def test_step_deadlock_is_none():
    state = parse_term("a")
    assert step(state, TransitionStore(state, ()), Scripted([])) is None


def test_step_applies_at_path():
    m = model_of("init b (m | a)\nrule r: a => a a @ 1\n")
    state = m.init
    ts = TransitionStore(state, m.rules)
    assert len(ts) == 1 and list(ts)[0].path == ((1, 0),)
    _, chosen, nxt = step(state, ts, Scripted([0.5, 0.5]))
    assert nxt == parse_term("b (m | a a)")


def test_transition_fields_fold_context_multiplicity():
    m = model_of("init a (m | a) (m | a)\nrule r: a => b @ 2\n")
    ts = enumerate_transitions(m.init, m.rules)
    top, inner = ts
    assert top.path == () and top.n == 1 and top.rate == 2.0
    assert top.outcome_local == parse_term("b (m | a) (m | a)")
    assert inner.path == ((1, 0),) and inner.multiplicity == 2
    assert inner.n == 2 and inner.rate == 4.0
    assert inner.outcome_local == parse_term("b")


def test_zero_rates_never_become_transitions():
    m = model_of("init a\nrule r: a => b @ 0\n")
    assert enumerate_transitions(m.init, m.rules) == []
    traj = run(m, SimConfig(t_max=2.0))
    assert traj.status == "deadlock" and traj.events == 0


def test_fn_rate_uses_expression_not_k_times_n():
    fn = model_of("init a a a\nrule drain: a => * @ fn(2)\n")
    mass = model_of("init a a a\nrule drain: a => * @ 2\n")
    t_fn, = enumerate_transitions(fn.init, fn.rules)
    t_mass, = enumerate_transitions(mass.init, mass.rules)
    assert t_fn.n == t_mass.n == 3
    assert t_fn.rate == 2.0
    assert t_mass.rate == 6.0


def test_deadlocked_run_fills_the_grid():
    m = model_of("init a b\nrule r: c => d @ 1\nobserve bs: b in top\n")
    traj = run(m, SimConfig(t_max=3.0, sample_dt=1.0))
    assert traj.status == "deadlock"
    assert traj.times == (0.0, 1.0, 2.0, 3.0)
    assert traj.samples == ((1,), (1,), (1,), (1,))
    assert traj.events == 0 and traj.final_state == m.init
    assert traj.observable_names == ("bs",)


def test_horizon_reached_fills_with_pre_event_state():
    m = model_of("init a\nrule r: a => a @ 0.0001\nobserve live: a in top\n")
    traj = run(m, SimConfig(t_max=2.0, sample_dt=0.5, seed=0))
    assert traj.status == "horizon-reached"
    assert traj.times == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert all(row == (1,) for row in traj.samples)
    assert traj.final_time <= 2.0


def test_event_cap_truncates_the_grid():
    m = model_of("init a\nrule flip: a => a @ 1\n")
    traj = run(m, SimConfig(max_events=5))
    assert traj.status == "event-cap" and traj.events == 5
    assert traj.times == tuple(float(i) for i in range(int(traj.final_time) + 1))
    assert len(traj.samples) == len(traj.times)

    traj = run(m, SimConfig(t_max=1000.0, max_events=3, sample_dt=1000.0))
    assert traj.status == "event-cap"
    assert traj.times == (0.0,)  # no grid point beyond t=0 reached yet


@pytest.mark.parametrize("init, rule, cap, status", [
    ("a", "flip: a => a", 4, "event-cap"),
    ("a * 4", "death: a => *", 10, "deadlock"),
])
def test_event_cap_alone_samples_up_to_the_last_event(init, rule, cap, status):
    m = model_of(f"init {init}\nrule {rule} @ 1\nobserve a: a in top\n")
    traj = run(m, SimConfig(max_events=cap, sample_dt=0.25, seed=5, log_events=True))
    assert traj.status == status and traj.events == 4
    last = traj.event_log[-1][0]
    assert traj.final_time == last > 0.5
    assert traj.times == tuple(i * 0.25 for i in range(int(last / 0.25) + 1))
    start = m.init.size
    for gt, row in zip(traj.times, traj.samples):
        deaths = sum(1 for te, r, _ in traj.event_log if te <= gt and r == "death")
        assert row == (start - deaths,)


def test_sampling_is_zero_order_hold():
    # two scripted events via a real seeded run: verify counts only change
    # at event times and rows are right-continuous
    m = model_of("init a * 10\nrule death: a => * @ 0.5\nobserve live: a in top\n")
    traj = run(m, SimConfig(t_max=6.0, sample_dt=1.0, seed=4, log_events=True))
    assert traj.times[0] == 0.0 and traj.samples[0] == (10,)
    counts = [row[0] for row in traj.samples]
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    for gi, gt in enumerate(traj.times):
        expect = 10 - sum(1 for (te, _, _) in traj.event_log if te <= gt)
        assert counts[gi] == expect


def test_run_is_deterministic():
    m = model_of("init a * 30\nrule death: a => * @ 0.3\nobserve live: a in top\n")
    cfg = SimConfig(t_max=5.0, sample_dt=0.5, seed=11, log_events=True)
    assert run(m, cfg) == run(m, cfg)
    assert run(m, cfg) != run(m, SimConfig(t_max=5.0, sample_dt=0.5, seed=12, log_events=True))


def test_replicates_use_independent_streams():
    m = model_of("init a * 20\nrule death: a => * @ 0.4\nobserve live: a in top\n")
    cfg = SimConfig(t_max=4.0, seed=9, replicates=3)
    serial = run_replicates(m, cfg, jobs=1)
    assert len(serial) == 3
    assert serial[0] != serial[1]
    assert serial[1] == run(m, cfg, replicate=1)
    parallel = run_replicates(m, cfg, jobs=2)
    assert parallel == serial


def test_a_deep_final_state_survives_the_process_pool():
    # a worker's trajectory is pickled back; a 200-deep term once exceeded
    # pickle's recursion limit there
    m = model_of("init a\nrule grow: a => (m | a) @ 1\n")
    cfg = SimConfig(max_events=200, seed=1, replicates=2)
    parallel = run_replicates(m, cfg, jobs=2)
    assert [tr.final_state.depth for tr in parallel] == [200, 200]
    assert parallel == run_replicates(m, cfg, jobs=1)


class InProcessPool:
    """Stands for ProcessPoolExecutor, records max_workers and starts no
    process."""

    created: list = []

    def __init__(self, max_workers):
        InProcessPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, replicates, workers", [(8, 2, 2), (2, 5, 2), (3, 3, 3)])
def test_pool_has_no_more_workers_than_replicates(monkeypatch, jobs, replicates, workers):
    # the fork start method launches every worker at once
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "created", [])
    m = model_of("init a * 20\nrule death: a => * @ 0.4\nobserve live: a in top\n")
    cfg = SimConfig(t_max=4.0, seed=9, replicates=replicates)
    pooled = run_replicates(m, cfg, jobs=jobs)
    assert InProcessPool.created == [workers]
    assert pooled == run_replicates(m, cfg, jobs=1)


PHO_CELL = "(pore | (PhoR*5 PhoRP*5 | PhoB*10 PhoGenes))"


@pytest.mark.parametrize("jobs", [1, 2])
def test_finished_runs_share_equal_subterms(monkeypatch, jobs):
    # trajectories kept side by side hold each distinct cell once
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    text = importlib.resources.files("cwcsim").joinpath("models/pho.cwc").read_text()
    init = "Pi*40 " + " ".join([PHO_CELL] * 4)
    m = model_of(f"init {init}\nrule " + text.split("\nrule ", 1)[1])
    cfg = SimConfig(max_events=60, seed=3, replicates=6)
    with monkeypatch.context() as unshared:
        unshared.setattr(engine, "shared", lambda t: t)
        plain = run_replicates(m, cfg, jobs=jobs)
    trajs = run_replicates(m, cfg, jobs=jobs)
    assert trajs == plain
    cells: dict = {}
    kept = 0
    for traj in trajs:
        for el, _ in traj.final_state.items:
            if type(el) is Compartment:
                assert cells.setdefault(el, el) is el
                kept += 1
    assert len(cells) < kept  # some runs reached equal cells
    assert run(m, cfg, 0).final_state is trajs[0].final_state


def test_a_pool_decodes_equal_cells_into_one_object():
    # each worker's trajectory comes back pickled: decoding interns it
    text = importlib.resources.files("cwcsim").joinpath("models/pho.cwc").read_text()
    init = "Pi*40 " + " ".join([PHO_CELL] * 4)
    m = model_of(f"init {init}\nrule " + text.split("\nrule ", 1)[1])
    cfg = SimConfig(max_events=60, seed=3, replicates=4)
    trajs = run_replicates(m, cfg, jobs=2)
    assert trajs == run_replicates(m, cfg, jobs=1)
    cells: dict = {}
    kept = 0
    for traj in trajs:
        for el, _ in traj.final_state.items:
            if type(el) is Compartment:
                assert cells.setdefault(el, el) is el
                kept += 1
    assert len(cells) < kept  # some runs reached equal cells


def test_derive_seed_streams():
    assert derive_seed(0, 0) == 12426054289685354689
    assert derive_seed(0, 1) == 17227200041832915037
    assert derive_seed(7, 3) == 1232913860685451959
    assert len({derive_seed(0, i) for i in range(100)}) == 100


def test_size_limit_stops_growth():
    m = model_of("init a\nrule g: a => a a @ 1\n")
    with pytest.raises(SimulationError) as exc:
        run(m, SimConfig(max_events=1000, max_term_size=16))
    e = exc.value
    assert e.code == "resource-limit-exceeded" and e.rule_id == "g"
    assert e.trajectory.status == "error"
    assert 0 < e.trajectory.events < 1000
    assert e.trajectory.final_state.size <= 16


def test_depth_limit_stops_nesting():
    m = model_of("init a\nrule nest: a => (b | a) @ 1\n")
    with pytest.raises(SimulationError) as exc:
        run(m, SimConfig(max_events=100, max_depth=4))
    assert exc.value.code == "resource-limit-exceeded"
    assert exc.value.rule_id == "nest"


def _nested(depth: int) -> Term:
    t = Term([Atom("a")])
    for _ in range(depth):
        t = Term([Compartment([Atom("m")], t)])
    return t


def test_max_depth_is_bounded_by_the_walks():
    assert SimConfig(max_events=1).max_depth == MAX_DEPTH
    with pytest.raises(ValueError, match="max_depth"):
        SimConfig(max_events=400, max_depth=5000)


def test_too_deep_init_fails_with_its_trajectory():
    m = Model(_nested(400), model_of("init a\nrule r: a => b @ 1\n").rules)
    with pytest.raises(SimulationError) as exc:
        run(m, SimConfig(max_events=10))
    e = exc.value
    assert (e.code, e.time, e.rule_id) == ("resource-limit-exceeded", 0.0, None)
    assert e.trajectory.status == "error" and e.trajectory.final_state == m.init


def test_deepest_supported_state_runs():
    text = "init " + "(m | " * MAX_DEPTH + "a" + ")" * MAX_DEPTH + "\nrule r: a => b @ 1\n"
    m = model_of(text)
    assert m.init == _nested(MAX_DEPTH)
    transitions = enumerate_transitions(m.init, m.rules)
    assert [(t.rule_id, len(t.path)) for t in transitions] == [("r", MAX_DEPTH)]
    traj = run(m, SimConfig(max_events=5))
    assert (traj.status, traj.events, traj.final_state.depth) == ("deadlock", 1, MAX_DEPTH)
    assert shared(traj.final_state) is traj.final_state


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig()
    with pytest.raises(ValueError):
        SimConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        SimConfig(t_max=1.0, sample_dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(max_events=0)
    with pytest.raises(ValueError):
        SimConfig(t_max=1.0, replicates=0)
    # counts and limits that are not integers, and negative limits, which
    # used to escape as TypeError, run 3 events for 2.5, or fail at t = 0;
    # seeds that are not integers, which derive_seed used to hash as text,
    # and bools, which used to pass as 0 or 1 (max_events=True ran 1 event)
    for bad in ({"replicates": 2.5}, {"max_events": 2.5}, {"max_term_size": 1e6},
                {"max_depth": 4.0}, {"max_depth": -1}, {"max_term_size": -1},
                {"seed": "x"}, {"seed": 1.5}, {"seed": True}, {"max_events": True},
                {"replicates": True}, {"max_term_size": False}, {"max_depth": True}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SimConfig(t_max=1.0, **bad)
    # sample grids that are not finite
    for t_max, sample_dt in [(math.inf, 1.0), (1e300, 1e-300), (1.0, math.inf), (None, math.inf)]:
        with pytest.raises(ValueError):
            SimConfig(t_max=t_max, max_events=5, sample_dt=sample_dt)


def test_event_log_records_rule_and_path():
    m = model_of("init (m | a * 5)\nrule death: a => * @ 1\n")
    traj = run(m, SimConfig(t_max=50.0, sample_dt=50.0, seed=2, log_events=True))
    assert traj.status in ("deadlock", "horizon-reached")
    assert traj.events == 5
    assert len(traj.event_log) == 5
    times = [te for te, _, _ in traj.event_log]
    assert times == sorted(times)
    assert all(rid == "death" and path == ((0, 0),) for _, rid, path in traj.event_log)


def test_incremental_update_splits_congruent_copies():
    m = model_of("init c (m | a b) (m | a b)\nrule ra: a => a a @ 1\nrule rc: c => c @ 1\n")
    state = m.init
    ts = TransitionStore(state, m.rules)
    applied = next(t for t in ts if t.rule_id == "ra")
    assert applied.multiplicity == 2
    nxt = replace_at(state, applied.path, applied.outcome_local)
    got = incremental_retransitions(ts, nxt)
    assert list(got) == enumerate_transitions(nxt, m.rules)
    # go one level further: the copies are distinct now
    ts2 = got
    applied2 = next(t for t in ts2 if t.rule_id == "ra" and t.multiplicity == 1)
    nxt2 = replace_at(nxt, applied2.path, applied2.outcome_local)
    got2 = incremental_retransitions(ts2, nxt2)
    assert list(got2) == enumerate_transitions(nxt2, m.rules)


def test_incremental_matches_full_on_random_walks(rng):
    for trial in range(12):
        rules = tuple(gen_rule(rng, f"r{i}") for i in range(3))
        init = gen_term(rng, depth=2, atom_budget=6).union(
            instantiate_lhs(rng, rules[0])
        )
        m = Model(init, rules)
        cfg = SimConfig(
            max_events=40,
            max_term_size=4000,
            max_depth=10,
            cross_check=True,
            seed=trial,
        )
        try:
            traj = run(m, cfg)
        except SimulationError as e:
            traj = e.trajectory
        assert traj.cross_check_failures == 0


def test_rate_error_after_a_split_carries_rule_and_trajectory():
    # the first event splits the three congruent copies 1 + 2 and creates
    # the content b, where count_l(a) = 0 makes the rate divide by zero
    m = model_of(
        "init (m | a) (m | a) (m | a)\n"
        "rule s: a => b @ 1\n"
        "rule r: b => c @ fn(1 / count_l(a))\n"
    )
    cfg = SimConfig(max_events=10)
    with pytest.raises(SimulationError) as exc:
        run(m, cfg)
    e = exc.value
    assert e.rule_id == "r"
    assert e.trajectory.status == "error"
    assert e.trajectory.events == 0 and e.trajectory.final_state == m.init
    # the error carries the time of the state it rated: the first event's
    first = step(m.init, TransitionStore(m.init, m.rules), Random(derive_seed(cfg.seed, 0)))
    assert e.time == first[0] > 0.0


def test_rate_error_in_the_initial_state_carries_trajectory():
    m = model_of("init (m | a)\nrule r: a => b @ fn(1 / (n - 1))\nobserve as: a in top\n")
    with pytest.raises(SimulationError) as exc:
        run(m, SimConfig(t_max=5.0))
    e = exc.value
    assert e.rule_id == "r"
    t = e.trajectory
    assert t.status == "error" and t.events == 0 and t.final_time == 0.0
    assert t.final_state == m.init and t.times == () and t.samples == ()
    assert t.observable_names == ("as",)


CELL_RULE = "(m ~u | a $x) => (m ~u | b $x) @ 1e308"


@pytest.mark.parametrize("rule, init", [
    (CELL_RULE, "(m | a) (m | a c)"),  # one counted entry of n = 2
    (CELL_RULE, "(m | a) (m | a)"),  # the same, folded: one match of n = 2
    ("a => b @ 1e308", "(m | a) (n | a)"),  # each level finite, their sum not
])
def test_an_overflowing_rate_is_a_simulation_error(rule, init):
    m = model_of(f"init {init}\nrule r: {rule}\nobserve as: a in top\n")
    with pytest.raises(SimulationError) as exc:
        run(m, SimConfig(t_max=5.0))
    e = exc.value
    assert e.code == "nonfinite-rate" and e.path == () and e.time == 0.0
    assert e.rule_id == ("r" if rule == CELL_RULE else None)
    t = e.trajectory
    assert t.status == "error" and t.events == 0 and t.final_state == m.init


@pytest.mark.parametrize("law", ["1", "fn(n * n)", "fn(1)", "fn(count_l(a))"])
def test_folded_copies_rate_like_distinct_ones(law):
    # a context's propensity is its copy count times the law on one copy
    rules = model_of(f"init *\nrule r: a $X -> b $X @ {law}\n").rules
    folded = enumerate_transitions(parse_term("(m | a) (m | a)"), rules)
    marked = enumerate_transitions(parse_term("(m | a) (m x | a)"), rules)
    assert math.fsum(t.rate for t in folded) == math.fsum(t.rate for t in marked) == 2.0


NESTED = model_of(
    "init a a (m | b b (n | c) (n | c)) (m | b b (n | c) (n | c)) (k | c (n | c c))\n"
    "rule ra: a => a @ 1\n"
    "rule rb: b => b @ fn(2 * count_l(b))\n"
    "rule rc: c => c @ 3\n"
    "rule rcc: c c => c @ 1\n"
)


def test_descent_selects_like_a_flat_scan():
    store = TransitionStore(NESTED.init, NESTED.rules)
    flat = list(store)
    assert len(store) == len(flat) and max(t.multiplicity for t in flat) == 4
    assert max(len(t.path) for t in flat) == 2  # three nesting levels
    assert math.isclose(store.total, math.fsum(t.rate for t in store))

    def scan(target):
        acc = 0.0
        for t in flat:
            acc += t.rate
            if target < acc:
                return t
        return flat[-1]

    bounds = [0.0]
    for t in flat:
        bounds.append(bounds[-1] + t.rate)
    assert bounds[-1] == store.total  # integer rates: every sum is exact
    targets = {b + d for b in bounds for d in (-0.5, 0.0, 0.5) if b + d >= 0}
    for target in sorted(targets):
        assert store.select(target) == scan(target), target


def test_store_iteration_yields_the_same_objects():
    store = TransitionStore(NESTED.init, NESTED.rules)
    for k in range(len(store)):
        assert list(store)[k] is list(store)[k]


SCOPES = (
    Scope("top"), Scope("anywhere"), Scope("inside", Atom("a")), Scope("on-wrap"),
    Scope("on-wrap", Atom("a")),
)


def test_a_sampled_row_equals_count_atom_on_the_whole_state(rng):
    # one memo over every state, as in a run, so most classes are met again
    observables = tuple(
        Observable(f"{name}{k}", Atom(name), scope)
        for k, scope in enumerate(SCOPES) for name in ATOM_NAMES
    )
    element_rows = engine.Memo(engine.MEMO_BUDGET, len(observables))
    met = 0
    for _ in range(300):
        state = gen_term(rng, depth=3, atom_budget=10)
        want = tuple(count_atom(state, o.atom, o.scope) for o in observables)
        assert engine._sampled(state, observables, element_rows) == want
        met += len(state.items)
    assert len(element_rows.young) + len(element_rows.old) < met // 2


def test_the_sample_memo_stays_within_its_budget_on_a_diverging_run(monkeypatch):
    # 16 pho cells soon differ from each other, and sampled often, each
    # new cell is a new class of the sample memo; a smaller budget makes
    # it turn over within a short run
    monkeypatch.setattr(engine, "MEMO_BUDGET", 20_000)
    text = importlib.resources.files("cwcsim").joinpath("models/pho.cwc").read_text()
    cell = "(pore | (PhoR*5 PhoRP*5 | PhoB*10 PhoGenes))"
    model = model_of(f"init Pi*320 {' '.join([cell] * 16)}\nrule " + text.split("\nrule ", 1)[1])
    memos = set()
    sampled = engine._sampled

    def checked(s, observables, element_rows):
        row = sampled(s, observables, element_rows)
        assert element_rows.weight <= element_rows.budget == engine.MEMO_BUDGET
        if element_rows.old:
            memos.add(id(element_rows))
        return row

    monkeypatch.setattr(engine, "_sampled", checked)
    traj = run(model, SimConfig(max_events=3000, seed=5, sample_dt=0.01))
    assert traj.events == 3000 and len(traj.samples) > 1000
    assert memos  # the young generation filled and turned over
