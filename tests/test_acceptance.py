"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each test prints a single summary line (shown with -s or on failure) and
asserts the criterion's exact bound, including its time budget.
"""
import filecmp
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cwcsim import (
    Model,
    SimConfig,
    Term,
    count_oracle,
    enumerate_transitions,
    oracle_total,
    parse_model,
    parse_rule,
    parse_term,
    run,
    run_replicates,
)
from cwcsim.matching import level_outcomes
from cwcsim.terms import EMPTY, Atom, Compartment, atom_bag, bag_count, bag_total
from tests.conftest import ATOM_NAMES, gen_rule, gen_term, instantiate_lhs, levels


def _bundled(name: str) -> str:
    return str(Path(__file__).resolve().parent.parent / "src" / "cwcsim" / "models" / name)


def _model_of(path: str) -> Model:
    mf = parse_model(Path(path).read_text(encoding="utf-8"), source=path)
    return Model(mf.init, mf.rules, mf.observables)


def _best_of(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_c01_flat_counting_rate_is_3k():
    k = 0.25
    rule = parse_rule(f"a a $X -> a c $X @ {k}")
    state = parse_term("a a a b")
    transitions = enumerate_transitions(state, [rule])
    assert len(transitions) == 1
    t, = transitions
    assert t.n == 3
    assert t.rate == 3 * k
    assert t.outcome_local == parse_term("a a b c")
    elapsed = _best_of(lambda: enumerate_transitions(state, [rule]))
    assert elapsed < 0.001
    print(f"criterion 1: n=3 rate={t.rate} ({elapsed * 1e6:.0f} us)")


def test_c02_membrane_joining_rates_2k_and_1k():
    k = 0.1
    rule = parse_rule(f"a (b ~x | $X) $Y -> (a b ~x | $X) $Y @ {k}")
    state = parse_term("a (b b | c) (b | c)")
    transitions = enumerate_transitions(state, [rule])
    assert len(transitions) == 2
    by_outcome = {t.outcome_local: t.rate for t in transitions}
    assert by_outcome == {
        parse_term("(a b b | c) (b | c)"): 2 * k,
        parse_term("(b b | c) (a b | c)"): 1 * k,
    }
    elapsed = _best_of(lambda: enumerate_transitions(state, [rule]))
    assert elapsed < 0.001
    print(f"criterion 2: rates {sorted(by_outcome.values())} ({elapsed * 1e6:.0f} us)")


def _atom_occurrences(t: Term) -> int:
    total = sum(n for _, n in t.atoms_top())
    for _, el, n in t.compartments():
        total += n * (bag_total(el.wrap) + _atom_occurrences(el.content))
    return total


def test_c03_oracle_equivalence_500_instances():
    rng = random.Random(0xC3)
    started = time.perf_counter()
    instances = 0
    comparisons = 0
    positives = 0
    while instances < 500:
        rule = gen_rule(rng, f"r{instances}")
        state = None
        for _ in range(20):
            cand = (
                instantiate_lhs(rng, rule)
                if rng.random() < 0.5
                else gen_term(rng, depth=2, atom_budget=9)
            )
            if _atom_occurrences(cand) <= 12 and cand.depth <= 3:
                state = cand
                break
        if state is None:
            continue
        instances += 1
        for _, content in levels(state):
            rows = level_outcomes(rule, content)
            for outcome, n in rows:
                assert count_oracle(rule, content, outcome) == n
                comparisons += 1
                if n > 0:
                    positives += 1
            assert sum(n for _, n in rows) == oracle_total(rule, content)
            comparisons += 1
    elapsed = time.perf_counter() - started
    assert instances >= 500
    assert positives >= 100  # the check must not be vacuous
    assert elapsed < 60.0
    print(
        f"criterion 3: {instances} instances, {comparisons} comparisons, "
        f"{positives} with matches ({elapsed:.1f} s)"
    )


def _gen_struct(rng, depth: int) -> list:
    out = []
    for _ in range(rng.randint(1, 4)):
        out.append(("atom", rng.choice(ATOM_NAMES)))
    if depth > 0:
        for _ in range(rng.randint(0, 2)):
            wrap = [rng.choice(ATOM_NAMES) for _ in range(rng.randint(0, 2))]
            comp = ("comp", wrap, _gen_struct(rng, depth - 1))
            out.append(comp)
            if rng.random() < 0.3:
                out.append(comp)
    return out


def _build_shuffled(struct: list, rng) -> Term:
    order = list(struct)
    rng.shuffle(order)
    items = []
    for el in order:
        if el[0] == "atom":
            items.append(Atom(el[1]))
        else:
            wrap = list(el[1])
            rng.shuffle(wrap)
            items.append(
                Compartment(atom_bag(Atom(w) for w in wrap), _build_shuffled(el[2], rng))
            )
    return Term(items)


def test_c04_congruence_closure_200_reshuffles():
    rng = random.Random(0xC4)
    for trial in range(200):
        struct = _gen_struct(rng, depth=2)
        rules = [gen_rule(rng, f"r{trial}_{i}") for i in range(3)]
        t1 = _build_shuffled(struct, random.Random(trial))
        t2 = _build_shuffled(struct, random.Random(1_000_000 - trial))
        assert t1 == t2
        ms1 = sorted(
            (tr.rule_id, tr.path, tr.outcome_local._key, tr.n, tr.rate)
            for tr in enumerate_transitions(t1, rules)
        )
        ms2 = sorted(
            (tr.rule_id, tr.path, tr.outcome_local._key, tr.n, tr.rate)
            for tr in enumerate_transitions(t2, rules)
        )
        assert ms1 == ms2
    print("criterion 4: 200 reshuffled states, transition multisets identical")


def _tm_output(n_ones: int) -> list:
    """Run the unary-successor machine directly on a symbol list."""
    delta = {
        ("q0", "one"): ("q1", "one", 1),
        ("q1", "one"): ("q0", "one", 1),
        ("q0", "blank"): ("q2", "one", 1),
        ("q1", "blank"): ("q2", "one", 1),
    }
    tape = ["one"] * n_ones
    pos, state = 0, "q0"
    while state != "q2":
        if pos == len(tape):
            tape.append("blank")
        state, write, move = delta[(state, tape[pos])]
        tape[pos] = write
        pos += move
    while tape and tape[-1] == "blank":
        tape.pop()
    return tape


def _tm_init(n_ones: int) -> Term:
    cell = Compartment(atom_bag([Atom("r")]), EMPTY)
    for sym in reversed(["one"] * n_ones + ["blank"]):
        cell = Compartment(atom_bag([Atom(sym)]), Term([cell]))
    return Term([Compartment(atom_bag([Atom("l")]), Term([Atom("q0"), cell]))])


def _tm_read_tape(final: Term):
    """Walk the cell chain; return (symbols up to the r end, machine state)."""
    (outer, n), = final.items
    assert n == 1 and bag_count(outer.wrap, Atom("l")) == 1
    content = outer.content
    tape = []
    state = None
    while True:
        for a, _ in content.atoms_top():
            if a.name.startswith("q"):
                state = a.name
        comps = [(el, n) for _, el, n in content.compartments()]
        (cell, n), = comps
        assert n == 1
        if bag_count(cell.wrap, Atom("r")) == 1:
            break
        (sym, k), = cell.wrap
        assert k == 1
        tape.append(sym.name)
        content = cell.content
    while tape and tape[-1] == "blank":
        tape.pop()
    return tape, state


def test_c05_turing_machine_50_seeded_runs():
    model = _model_of(_bundled("turing_successor.cwc"))
    assert model.init == _tm_init(3)
    for seed in range(50):
        n_ones = 1 + seed % 5
        m = Model(_tm_init(n_ones), model.rules, model.observables)
        traj = run(m, SimConfig(max_events=500, seed=seed))
        assert traj.status == "deadlock"
        tape, state = _tm_read_tape(traj.final_state)
        assert state == "q2"
        assert tape == _tm_output(n_ones)
        assert tape.count("one") == n_ones + 1
    print("criterion 5: 50 seeded runs, every final tape equals the direct TM output")


def test_c06_pure_death_analytic_means():
    k = 0.5
    mf = parse_model(f"init a * 100\nrule death: a => * @ {k}\nobserve a_count: a in top\n")
    model = Model(mf.init, mf.rules, mf.observables)
    cfg = SimConfig(t_max=4.0, sample_dt=1.0, seed=6, replicates=200)
    started = time.perf_counter()
    trajectories = run_replicates(model, cfg, jobs=1)
    elapsed = time.perf_counter() - started
    means = {}
    for t_check in (2.0, 4.0):
        idx = trajectories[0].times.index(t_check)
        xs = [tr.samples[idx][0] for tr in trajectories]
        means[t_check] = math.fsum(xs) / len(xs)
    for t_check, mean in means.items():
        target = 100.0 * math.exp(-k * t_check)
        assert abs(mean - target) / target <= 0.05, (t_check, mean, target)
    assert elapsed < 10.0
    print(
        f"criterion 6: mean(2)={means[2.0]:.2f} (36.79), "
        f"mean(4)={means[4.0]:.2f} (13.53) ({elapsed:.1f} s)"
    )


def test_c07_selection_frequency_3_sigma():
    mf = parse_model(
        "init a\n"
        "rule fast: a => a @ 2\n"
        "rule slow: a => a @ 1\n"
    )
    model = Model(mf.init, mf.rules, mf.observables)
    n_events = 10_000
    started = time.perf_counter()
    traj = run(model, SimConfig(max_events=n_events, seed=13, log_events=True))
    elapsed = time.perf_counter() - started
    assert traj.events == n_events
    fast = sum(1 for _, rid, _ in traj.event_log if rid == "fast")
    p = 2.0 / 3.0
    bound = 3.0 * math.sqrt(n_events * p * (1 - p))
    assert abs(fast - n_events * p) <= bound, (fast, n_events * p, bound)
    assert elapsed < 5.0
    print(
        f"criterion 7: fast chosen {fast}/{n_events} "
        f"(expected {n_events * p:.0f} +- {bound:.0f}) ({elapsed:.1f} s)"
    )


def _with_top_atom(init: Term, atom: Atom, count: int) -> Term:
    kept = [(el, k) for el, k in init.items
            if not (type(el) is Atom and el.name == atom.name)]
    return Term(kept + [(atom, count)])


def test_c08_pho_regulation_low_vs_high_phosphate():
    mf = parse_model(Path(_bundled("pho.cwc")).read_text(encoding="utf-8"))
    assert [r.rate.k for r in mf.rules] == [
        0.1, 0.1, 0.01, 0.005, 0.001, 0.0001, 0.00008, 0.0001,
    ]
    t_max, sample = mf.directives.tmax, mf.directives.sample
    cfg = SimConfig(
        t_max=t_max,
        sample_dt=sample,
        seed=mf.directives.seed,
        replicates=mf.directives.replicates,
    )
    jobs = min(os.cpu_count() or 1, 8)
    names = [o.name for o in mf.observables]
    col = names.index("PhoProt")

    def replicate_means(pi_count: int) -> list:
        init = _with_top_atom(mf.init, Atom("Pi"), pi_count)
        model = Model(init, mf.rules, mf.observables)
        out = []
        for tr in run_replicates(model, cfg, jobs=jobs):
            rows = [s[col] for t, s in zip(tr.times, tr.samples) if t >= t_max / 2]
            out.append(math.fsum(rows) / len(rows))
        return out

    started = time.perf_counter()
    low = replicate_means(5)
    high = replicate_means(20)
    elapsed = time.perf_counter() - started

    from scipy import stats

    result = stats.ttest_ind(low, high, equal_var=False, alternative="greater")
    mean_low = math.fsum(low) / len(low)
    mean_high = math.fsum(high) / len(high)
    assert mean_low > mean_high
    assert result.pvalue < 0.05, (mean_low, mean_high, result.pvalue)
    assert elapsed < 120.0
    print(
        f"criterion 8: PhoProt second-half mean {mean_low:.2f} (Pi=5) vs "
        f"{mean_high:.2f} (Pi=20), one-sided p={result.pvalue:.2e} ({elapsed:.1f} s)"
    )


def test_c09_byte_identical_csv_across_invocations(tmp_path):
    model = tmp_path / "death.cwc"
    model.write_text(
        "init a * 50\n"
        "rule death: a => * @ 0.2\n"
        "observe live: a in top\n"
        "tmax 10\nsample 0.5\nreplicates 2\n",
        encoding="utf-8",
    )
    dirs = [tmp_path / "first", tmp_path / "second"]
    for d in dirs:
        proc = subprocess.run(
            [sys.executable, "-m", "cwcsim", "run", str(model),
             "--seed", "7", "--out-dir", str(d)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    files = sorted(p.name for p in dirs[0].glob("*.csv"))
    assert files == ["aggregate.csv", "rep_000.csv", "rep_001.csv"]
    for name in files:
        assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False), name
    print("criterion 9: two invocations, all CSV files byte-identical")


def test_c10_incremental_cross_check_1000_steps():
    mf = parse_model(
        "init d d (b | a a (b | c c) (b | c c))\n"
        "rule move_in:  a (b ~x | $X) => (b ~x | a $X) @ 1\n"
        "rule move_out: (b ~x | a $X) => a (b ~x | $X) @ 1\n"
        "rule split: c => c c @ 0.4\n"
        "rule merge: c c => c @ 0.3\n"
    )
    model = Model(mf.init, mf.rules, mf.observables)
    assert model.init.depth == 2  # three nested levels including the top
    traj = run(model, SimConfig(max_events=1000, seed=21, cross_check=True))
    assert traj.status == "event-cap"
    assert traj.events == 1000
    assert traj.cross_check_failures == 0
    print("criterion 10: 1000 steps, 0 incremental/full discrepancies")
