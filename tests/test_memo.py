"""A store chain's memo: level nodes and the element index of one rules
tuple under one weight budget.

The memo bounds what a run keeps (defect 4: the node cache grew with every
state a diverging run visited), it may drop any entry at any time without
changing a trajectory, and the slot rows it serves equal a fresh
recomputation however the outcomes built from them were used.  The element
index is its only memo of slot rows."""
import dataclasses
import importlib.resources
import time

import pytest

from cwcsim import Model, SimConfig, parse_model, run
from cwcsim import engine
from cwcsim.engine import Memo, TransitionStore, incremental_retransitions
from cwcsim.terms import Compartment
from cwcsim.matching import _rows
from cwcsim.rates import BinOp, FnRate, MatchCount
from cwcsim.terms import replace_at
from tests.conftest import gen_rule, gen_term, instantiate_lhs, union

PHO_CELL = "(pore | (PhoR*5 PhoRP*5 | PhoB*10 PhoGenes))"
MACROPHAGE = "(CD31 M | (lyso | lyticEnz) innerM)"


def bundled(name: str, init: str) -> Model:
    text = importlib.resources.files("cwcsim").joinpath(f"models/{name}").read_text()
    body = text.split("\nrule ", 1)[1]
    mf = parse_model(f"init {init}\nrule {body}")
    return Model(mf.init, mf.rules, mf.observables)


class Counting(Memo):
    """A Memo that counts its generation turns."""

    turns = 0

    def __setitem__(self, key, value):
        young = self.young
        super().__setitem__(key, value)
        if self.young is not young:
            Counting.turns += 1


@pytest.fixture
def counting(monkeypatch):
    Counting.turns = 0
    monkeypatch.setattr(engine, "Memo", Counting)
    return Counting


def test_memo_weight_stays_within_the_budget_on_a_diverging_run(monkeypatch, counting):
    # 16 pho cells soon differ from each other, so almost every state and
    # cell content the run meets is new: before the bound, every one stayed
    # in the node cache.  Crowd roots enter the memo only when they recur,
    # so at the default budget this run turns the memo over only twice; at
    # 50,000, about 20 times
    model = bundled("pho.cwc", "Pi*320 " + " ".join([PHO_CELL] * 16))
    monkeypatch.setattr(engine, "MEMO_BUDGET", 50_000)
    seen = []
    rebuild = engine.incremental_retransitions

    def checked(prev, next_state):
        memo = prev.memo
        weight = memo.young_weight + memo.old_weight
        assert weight <= memo.budget == engine.MEMO_BUDGET
        entries = (*memo.young.items(), *memo.old.items())
        assert weight == sum(memo._weight(k, v) for k, v in entries)
        seen.append(weight)
        return rebuild(prev, next_state)

    monkeypatch.setattr(engine, "incremental_retransitions", checked)
    started = time.perf_counter()
    traj = run(model, SimConfig(max_events=2000, seed=5))
    assert traj.events == len(seen) == 2000
    assert counting.turns >= 4  # the budget was reached, more than once
    assert time.perf_counter() - started < 10.0


def test_a_one_cell_root_is_kept_on_its_first_visit():
    # a root of fewer than DERIVE_FROM compartment classes keeps no _Level
    # and goes into the memo when it is first built, as every nested level
    # does: only crowd roots wait in the ring (Memo.recent) until they recur
    model = bundled("pho.cwc", "Pi*20 " + PHO_CELL)
    store, state = TransitionStore(model.init, model.rules), model.init
    for _ in range(30):
        entries = {**store.memo.old, **store.memo.young}
        assert store.root.level is None and entries[state] is store.root
        assert not store.memo.recent
        chosen = next(iter(store))
        state = replace_at(state, chosen.path, chosen.outcome_local)
        store = incremental_retransitions(store, state)


EVICTING = [
    ("pho.cwc", "Pi*80 " + " ".join([PHO_CELL] * 4), 1.0),
    ("macrophage.cwc", " ".join([MACROPHAGE] * 4 + ["(CD31 V N | innerL)"] * 3
                                + ["(CD31 A N | innerA)"] * 3), 20.0),
]


@pytest.mark.parametrize("name, init, sample_dt", EVICTING)
def test_eviction_leaves_the_trajectory_unchanged(monkeypatch, counting, name, init, sample_dt):
    """Eviction is safe because a store holds its nodes directly: a node
    keeps its children and every Outcome it rated, so a store being read
    never goes back to the memo, and an evicted node or index entry is
    rebuilt equal to what it was, from the content alone."""
    model = bundled(name, init)
    cfg = SimConfig(max_events=300, seed=11, sample_dt=sample_dt, log_events=True)
    kept = run(model, cfg)
    budget = 6 * model.init.size  # each generation holds about three states
    monkeypatch.setattr(engine, "MEMO_BUDGET", budget)
    Counting.turns = 0
    evicted = run(model, cfg)
    assert Counting.turns >= kept.events // 10
    assert kept.events == evicted.events == 300
    for field in ("times", "samples", "final_state", "status", "event_log"):
        assert getattr(evicted, field) == getattr(kept, field), field
    checked = run(model, SimConfig(max_events=150, seed=11, sample_dt=sample_dt, cross_check=True))
    assert checked.cross_check_failures == 0 and checked.events == 150


def index_entries(memo) -> list:
    """The memo's element index: (element, entry) pairs."""
    return [(k, v) for k, v in (*memo.young.items(), *memo.old.items())
            if type(k) is Compartment]


def test_memoised_slot_rows_equal_a_fresh_recompute(rng):
    """Building every outcome of a store that shares the memo (which writes
    residues into each match's bindings) leaves every element-index entry
    equal to a fresh recomputation of the rows of every top-level slot,
    and the memo keeps no other rows: nested slot levels are not kept."""
    n_linear, other = 0, 0
    for trial in range(60):
        rules = tuple(gen_rule(rng, f"r{i}") for i in range(3))
        if trial % 2:
            law = FnRate(BinOp("*", MatchCount(), MatchCount()))
            rules = tuple(dataclasses.replace(r, rate=law) for r in rules)
        width = sum(len(rule.lhs.slots) for rule in rules)
        # warm the memo on other contents, listing a chain of stores
        warm = [instantiate_lhs(rng, rule) for rule in rules for _ in range(2)]
        state = union(instantiate_lhs(rng, rules[trial % 3]), gen_term(rng, depth=2, atom_budget=4))
        store = TransitionStore(warm[0], rules)
        for content in warm[1:] + [state]:
            list(store)
            store = incremental_retransitions(store, content)
        built = list(store)  # every outcome of the store, built
        assert built == list(TransitionStore(state, rules))
        assert store.memo.width == width
        rows = 0
        for el, got in index_entries(store.memo):
            want = []
            for i, rule in enumerate(rules):
                for s, slot in enumerate(rule.lhs.slots):
                    fresh = _rows(slot, el)
                    if fresh:
                        want.append(((i, s), fresh, sum(row[1] for row in fresh)))
            assert got == tuple(want)
            rows += len(got)
        if trial % 2:
            other += rows
        else:
            n_linear += rows
    assert n_linear > 50 and other > 50  # both outcome shapes met memoised rows


def test_rules_without_a_slot_keep_no_rows(monkeypatch):
    """With no top-level compartment slot the element index has nothing to
    hold, so the memo keeps level nodes only: an empty index entry would
    weigh 0 and escape the budget."""
    mf = parse_model(
        "init a a b (m | a b) (n | a a) (m n | b (m | a))\n"
        "rule ab: a => b @ 1\n"
        "rule ba: b => a @ 1\n"
    )
    memos = []
    rebuild = engine.incremental_retransitions

    def kept(prev, next_state):
        memos.append(prev.memo)
        return rebuild(prev, next_state)

    monkeypatch.setattr(engine, "incremental_retransitions", kept)
    traj = run(Model(mf.init, mf.rules), SimConfig(max_events=300, seed=3))
    assert traj.events == 300 and memos[-1] is memos[0]
    assert memos[0].young_weight + memos[0].old_weight > 0 and index_entries(memos[0]) == []


def test_a_store_chain_shares_one_memo_and_width():
    """A store made from a rules tuple starts its own memo, which keeps the
    rules' top-level slot count; every successor store inherits it, with
    the rules, and finds its predecessors' nodes in it."""
    model = bundled("pho.cwc", "Pi*40 " + " ".join([PHO_CELL] * 4))
    first = TransitionStore(model.init, model.rules)
    width = sum(len(rule.lhs.slots) for rule in model.rules)
    assert width > 0 and type(first.memo) is Memo and first.memo.budget == engine.MEMO_BUDGET
    assert first.memo.width == width
    other = TransitionStore(model.init, model.rules)
    assert other.memo is not first.memo and other.root is not first.root
    store, state = first, model.init
    for _ in range(20):
        chosen = next(iter(store))
        state = replace_at(state, chosen.path, chosen.outcome_local)
        store = incremental_retransitions(store, state)
        assert store.rules is first.rules and store.memo is first.memo
    again = incremental_retransitions(store, model.init)
    assert again.root is first.root  # the first root, from the shared memo
