"""Derived roots: a missed root node is derived from the previous root, so
an event costs lookups and tallies in the compartment classes it changed,
not in every class of the crowd, and one count of every rule.

A derived root must equal a fresh build of the same content -- the same
local entries, children, total and count, and the same listed transitions
-- along seeded walks that fire top-level rules consuming atoms, two-slot
rules, rules with grounds and laws that are not n-linear, and that drop a
class's last copy."""
import dataclasses
import importlib.resources
import random
from pathlib import Path

from cwcsim import parse_model, parse_term
from cwcsim import engine
from cwcsim.engine import TransitionStore, incremental_retransitions
from cwcsim.matching import Counted
from cwcsim.rates import BinOp, CountL, FnRate, MatchCount, Num
from cwcsim.terms import Atom, replace_at
from tests.conftest import gen_rule, gen_term, instantiate_lhs

DATA = Path(__file__).parent / "data"
PHO_CELL = "(pore | (PhoR*5 PhoRP*5 | PhoB*10 PhoGenes))"


def bundled(name: str, init: str) -> tuple:
    text = importlib.resources.files("cwcsim").joinpath(f"models/{name}").read_text()
    body = text.split("\nrule ", 1)[1]
    return parse_model(f"init {init}\nrule {body}").rules


def fixture(name: str) -> tuple:
    mf = parse_model((DATA / name).read_text())
    return mf.rules, mf.init


def assert_same_node(got, want):
    """Two nodes of one content hold equal entries, children, total and
    count; outcomes are compared by their built terms and listings."""
    assert len(got.local) == len(want.local)
    for (i, o, n, rate), (j, p, m, wrate) in zip(got.local, want.local):
        assert (i, type(o), n, rate) == (j, type(p), m, wrate)
        if type(o) is Counted:
            assert (o.n, o.count, o.unit_rate) == (p.n, p.count, p.unit_rate)
            assert [(x.term(), k) for x, k in o.expand()] == [(y.term(), k) for y, k in p.expand()]
        else:
            assert o.term() == p.term()
    assert [c[:2] for c in got.children] == [c[:2] for c in want.children]
    for (_, _, x), (_, _, y) in zip(got.children, want.children):
        if x is not y:
            assert_same_node(x, y)
    assert got.total == want.total and got.count == want.count


class Seen:
    """What a walk exercised."""

    def __init__(self):
        self.derived = self.dropped = 0
        self.fired: dict = {}


def walk(rules, state, steps: int, seed: int, seen: Seen):
    """A seeded walk from state; each next store, derived from the previous
    one on a root miss, is checked against a fresh store of its state."""
    rng = random.Random(seed)
    store = TransitionStore(state, rules)
    for _ in range(steps):
        if not store:
            return
        chosen = store.select(rng.random() * store.total)
        seen.fired[chosen.rule_id, chosen.path == ()] = True
        nxt = replace_at(state, chosen.path, chosen.outcome_local)
        if store.memo.get(nxt) is None and store.root.level is not None:
            seen.derived += 1
        if not {el for el, _ in state.items} <= {el for el, _ in nxt.items}:
            seen.dropped += 1
        derived = incremental_retransitions(store, nxt)
        fresh = TransitionStore(nxt, rules)
        assert_same_node(derived.root, fresh.root)
        assert list(derived) == list(fresh)
        assert len(derived) == len(fresh)
        store, state = derived, nxt


def test_crowd_walks_derive_roots_equal_to_fresh_ones():
    seen = Seen()
    rules, init = fixture("pho_16cell.cwc")
    walk(rules, init, 150, 3, seen)
    rules, init = fixture("macrophage_crowd.cwc")
    walk(rules, init, 150, 4, seen)
    assert seen.derived > 250 and seen.dropped > 10
    # top-level rules that consume or produce atoms, and two slots at once
    assert {("in1", True), ("out1", True), ("bind", True)} <= set(seen.fired)


# top-level rules with a ground compartment, a law that is not n-linear, a
# law reading count_l, and two slots that can take one class
MIXED = parse_model(
    "init a*6 b*3 (m | a) (m | a) (m | b) (m | a a) (n | a) (n | b b) (k | *) (k | *)\n"
    "rule grow: a (m ~x | $X) => (m ~x | a $X) @ 0.5\n"
    "rule shed: (m ~x | a $X) => a (m ~x | $X) @ fn(n * n)\n"
    "rule fuse: (m ~x | $X) (n ~y | $Y) => (m ~x | $X $Y) @ 0.1\n"
    "rule pair: (m ~x | a $X) (m ~y | b $Y) => (m ~x | $X) (m ~y | a b $Y) @ 0.2\n"
    "rule load: b (k | *) => (k | b) @ 0.3\n"
    "rule free: (k | b) => b (k | *) @ fn(n * count_l(a) / 3)\n"
    "rule split: (m ~x | b $X) => (m ~x | $X) (m | b) @ 0.05\n"
    "rule gain: (k ~x | $X) => a (k ~x | $X) @ fn(count_l(b) * n)\n"
)


def test_mixed_rules_derive_roots_equal_to_fresh_ones():
    seen = Seen()
    for seed in range(6):
        walk(MIXED.rules, MIXED.init, 120, seed, seen)
    assert seen.derived > 200 and seen.dropped > 20
    fired = {rule for rule, top in seen.fired if top}
    assert fired >= {"grow", "shed", "fuse", "pair", "load", "free", "split", "gain"}


def held(memo, content):
    """"node" when memo keeps content's node, "mark" when it keeps only the
    mark of a root seen once, else None."""
    entries = {**memo.old, **memo.young}
    if content in entries:
        return "node"
    return "mark" if entries.get(hash(content)) is True else None


def test_a_recurring_crowd_root_is_marked_then_kept():
    # a root of a few classes or more leaves a mark on its first visit and
    # is kept on its second: a return to the state before the previous one
    # reuses that store's root (A B A), a longer cycle (C D E F C D) finds
    # the mark and keeps the root it builds again; each equals a fresh node
    states = [parse_term(s) for s in (
        "a*6 b*3 (m | a) (m | b) (n | a) (k | *)",  # A
        "a*5 b*3 (m | a a) (m | b) (n | a) (k | *)",  # B: grow
        "a*6 b*3 (m | a) (m | b) (n | a) (k | *)",  # A: shed
        "a*6 b*2 (m | a) (m | b) (n | a) (k | b)",  # C: load
        "a*5 b*2 (m | a a) (m | b) (n | a) (k | b)",  # D: grow
        "a*4 b*2 (m | a a) (m | a b) (n | a) (k | b)",  # E: grow
        "a*5 b*2 (m | a) (m | a b) (n | a) (k | b)",  # F: shed
        "a*6 b*2 (m | a) (m | b) (n | a) (k | b)",  # C: shed
        "a*5 b*2 (m | a a) (m | b) (n | a) (k | b)",  # D: grow
    )]
    rules = MIXED.rules
    store = TransitionStore(states[0], rules)
    assert len(store.root.level.tables) >= engine.DERIVE_FROM
    roots = {states[0]: store.root}
    for state in states[1:]:
        assert state in {replace_at(store.root.level.content, t.path, t.outcome_local)
                         for t in store}  # an event of the rules
        first = state not in roots
        assert held(store.memo, state) == (None if first else "mark")
        derived = incremental_retransitions(store, state)
        fresh = TransitionStore(state, rules)
        assert_same_node(derived.root, fresh.root)
        assert list(derived) == list(fresh)
        if first:
            assert held(store.memo, state) == "mark"
            roots[state] = derived.root
        else:
            assert held(store.memo, state) == "node"
            assert store.memo.get(state) is derived.root
        store = derived
    a, b = states[0], states[1]
    assert roots[a] is store.memo.get(a)  # A's first root, reused
    assert held(store.memo, b) == "mark"  # B came once


# rules that only an atom or an uncounted copy enables: make needs c, which
# emit puts at the top without touching make's class, and lift rates by it;
# twin's slots both take only the atom-free class, whose second copy bud
# adds without changing any slot's weight
ENABLED = parse_model(
    "init b*4 (m | a) (n | b b b) (k | a) ( | ( | *))\n"
    "rule bud: b => ( | ( | *)) @ 0.5\n"
    "rule twin: (~x | (~y | $Y) $X) (~u | (~v | $V) $U) => (t | $X $U) @ 1\n"
    "rule emit: (n ~x | b $X) => c (n ~x | $X) @ 0.3\n"
    "rule make: c (k ~x | $X) => (k ~x | c $X) @ 1\n"
    "rule lift: (m ~x | $X) => (m ~x | a $X) @ fn(n * count_l(c))\n"
)


def test_rules_an_atom_or_a_copy_enables_are_rated_again():
    seen = Seen()
    for seed in range(8):
        walk(ENABLED.rules, ENABLED.init, 30, seed, seen)
    assert seen.derived > 80
    fired = {rule for rule, top in seen.fired if top}
    assert fired >= {"bud", "twin", "emit", "make", "lift"}


LAWS = (
    FnRate(BinOp("*", MatchCount(), MatchCount())),
    FnRate(BinOp("*", CountL(Atom("a")), MatchCount())),
    FnRate(BinOp("+", MatchCount(), Num(1.0))),
)


def test_random_rules_derive_roots_equal_to_fresh_ones(rng):
    seen = Seen()
    for trial in range(40):
        rules = tuple(gen_rule(rng, f"r{i}") for i in range(3))
        if trial % 2:
            law = LAWS[trial // 2 % len(LAWS)]
            rules = tuple(dataclasses.replace(r, rate=law) for r in rules)
        state = gen_term(rng, depth=2, atom_budget=6)
        for rule in rules:
            for _ in range(2):
                state = state.union(instantiate_lhs(rng, rule))
        walk(rules, state, 12, trial, seen)
    assert seen.derived > 100 and seen.dropped > 20


def element_rows_per_event(monkeypatch, rules, state, events: int, seed: int) -> list:
    """matching._element_rows calls made by each store update of a seeded
    walk from state, with a warm memo."""
    calls = []
    counted = engine._element_rows

    def counting(*args):
        calls[-1] += 1
        return counted(*args)

    monkeypatch.setattr(engine, "_element_rows", counting)
    rng = random.Random(seed)
    calls.append(0)
    store = TransitionStore(state, rules)
    for _ in range(events):
        chosen = store.select(rng.random() * store.total)
        state = replace_at(state, chosen.path, chosen.outcome_local)
        calls.append(0)
        store = incremental_retransitions(store, state)
    return calls[1:]


def diverged(cells: int, events: int) -> tuple:
    rules = bundled("pho.cwc", "a")
    state = parse_term(f"Pi*{20 * cells} " + " ".join([PHO_CELL] * cells))
    rng = random.Random(5)
    store = TransitionStore(state, rules)
    for _ in range(events):
        chosen = store.select(rng.random() * store.total)
        state = replace_at(state, chosen.path, chosen.outcome_local)
        store = incremental_retransitions(store, state)
    return rules, state


def test_an_event_looks_up_changed_classes_only(monkeypatch):
    # a root derived from the empty level looks every class up; one derived
    # from the previous root only the classes the event changed, as many on
    # 64 diverged cells as on 4
    rules, small = diverged(4, 300)
    rules, large = diverged(64, 1500)
    classes = sum(1 for _ in large.compartments())
    assert classes > 30 and sum(1 for _ in small.compartments()) >= engine.DERIVE_FROM
    few = element_rows_per_event(monkeypatch, rules, small, 40, 1)
    many = element_rows_per_event(monkeypatch, rules, large, 40, 1)
    assert max(many) <= max(few) <= 4
    assert sum(many) <= sum(few)
    monkeypatch.setattr(engine, "DERIVE_FROM", classes + 1)  # no root keeps a level
    assert max(element_rows_per_event(monkeypatch, rules, large, 5, 1)) >= classes - 2


def test_a_root_without_a_level_is_followed_by_a_fresh_one():
    # a node keeps its _Level only when built as a root of enough classes,
    # so a store whose root a nested level or a small root built has
    # nothing to derive from
    rules = bundled("pho.cwc", "a")
    sensors = "(PhoR*{} PhoRP*{} | PhoB*10 PhoGenes)"
    crowd = parse_term("Pi " + " ".join(sensors.format(k, 10 - k) for k in (3, 4, 5)))
    cell = next(parse_term(PHO_CELL).compartments())[1].content
    for state in (cell, parse_term(f"Pi {PHO_CELL} (pore | Pi)")):
        # the first store's memo holds the cell's node, built as a nested level
        store = TransitionStore(parse_term(f"Pi {PHO_CELL}"), rules)
        store = incremental_retransitions(store, state)
        assert store.root is store.memo.get(state) and store.root.level is None
        derived = incremental_retransitions(store, crowd)
        assert_same_node(derived.root, TransitionStore(crowd, rules).root)
        assert len(derived.root.level.tables) == 3
