"""Simulation engine: draw discipline, sampling grid, statuses, incremental
transition maintenance."""
import math

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
from cwcsim.engine import TransitionStore, derive_seed, incremental_retransitions, step
from cwcsim.terms import replace_at
from tests.conftest import gen_rule, gen_term, instantiate_lhs


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
    assert inner.n_local == 1 and inner.n == 2 and inner.rate == 4.0
    assert inner.outcome_local == parse_term("b")
    assert {t.rule_index for t in ts} == {0}


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
    assert traj.times == (0.0,) and len(traj.samples) == 1

    traj = run(m, SimConfig(t_max=1000.0, max_events=3, sample_dt=1000.0))
    assert traj.status == "event-cap"
    assert traj.times == (0.0,)  # no grid point beyond t=0 reached yet


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
    cache: dict = {}
    ts = TransitionStore(state, m.rules, cache)
    applied = next(t for t in ts if t.rule_id == "ra")
    assert applied.multiplicity == 2
    nxt = replace_at(state, applied.path, applied.outcome_local)
    got = incremental_retransitions(ts, applied, nxt, m.rules, prev_state=state, cache=cache)
    assert list(got) == enumerate_transitions(nxt, m.rules)
    # go one level further: the copies are distinct now
    ts2 = got
    applied2 = next(t for t in ts2 if t.rule_id == "ra" and t.multiplicity == 1)
    nxt2 = replace_at(nxt, applied2.path, applied2.outcome_local)
    got2 = incremental_retransitions(ts2, applied2, nxt2, m.rules, prev_state=nxt, cache=cache)
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
    with pytest.raises(SimulationError) as exc:
        run(m, SimConfig(max_events=10))
    e = exc.value
    assert e.rule_id == "r"
    assert e.trajectory.status == "error"
    assert e.trajectory.events == 0 and e.trajectory.final_state == m.init


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
