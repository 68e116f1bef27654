"""Counted entries: an n-linear rule whose slots take disjoint compartment
classes is one entry per level, rated on its summed count, and selection
descends it by slot weights to build only the match that fires.  Checked
against the match-by-match enumeration of level_outcomes and against
listing, which expands every entry."""
import importlib.resources
import math
import random

import pytest

from cwcsim import enumerate_transitions, parse_model, parse_term
from cwcsim.engine import TransitionStore, incremental_retransitions
from cwcsim.matching import Counted, level_outcomes
from cwcsim.terms import replace_at
from tests.conftest import gen_rule, gen_term, instantiate_lhs

PHO_CELL = "(pore | (PhoR*5 PhoRP*5 | PhoB*10 PhoGenes))"
MACROPHAGE = "(CD31 M | (lyso | lyticEnz) innerM)"
MODELS = [
    ("pho.cwc", "Pi*12 " + " ".join([PHO_CELL] * 4)),
    # cells that differ from the start, so bind has several match classes
    ("macrophage.cwc", " ".join([MACROPHAGE, MACROPHAGE,
                                 "(CD31 M | (lyso | lyticEnz lyticEnz) innerM)",
                                 "(CD31 V N | innerL)", "(CD31 V N | innerL innerL)",
                                 "(CD31 A N | innerA)", "(CD31 A N | innerA innerA)"])),
]


def bundled(name: str, init: str) -> tuple:
    text = importlib.resources.files("cwcsim").joinpath(f"models/{name}").read_text()
    body = text.split("\nrule ", 1)[1]
    return parse_model(f"init {init}\nrule {body}").rules


def counted_entries(store: TransitionStore):
    """Every Counted in the store's tree."""
    nodes = [store.root]
    while nodes:
        node = nodes.pop()
        yield from (e[1] for e in node.local if type(e[1]) is Counted)
        nodes.extend(ch for _, _, ch in node.children)


def random_states(rng, trials: int):
    for _ in range(trials):
        rules = tuple(gen_rule(rng, f"r{i}") for i in range(3))
        state = gen_term(rng, depth=2, atom_budget=6)
        for rule in rules:
            state = state.union(instantiate_lhs(rng, rule))
        yield rules, state


def walk(rules, state, steps: int, seed: int):
    """state and the states of a seeded walk from it, each with its store,
    the successor of the one before, so all share one warm memo."""
    rng = random.Random(seed)
    store = TransitionStore(state, rules)
    for _ in range(steps):
        yield state, store
        if not store:
            return
        chosen = store.select(rng.random() * store.total)
        state = replace_at(state, chosen.path, chosen.outcome_local)
        store = incremental_retransitions(store, state)


def match_key(outcome) -> tuple:
    """An unbuilt Outcome's match by value: its consumed pairs and bindings."""
    return outcome.consumed, frozenset(outcome.bindings.items())


def check_descent(counted: Counted) -> int:
    """Offsets k + 0.5 for k < n land on each match n times, in
    level_outcomes' order, matches told apart by value.  Returns the number
    of matches."""
    listed = counted.expand()
    enumerated = level_outcomes(counted.rule, counted.content)
    assert [(o.term(), n) for o, n in listed] == [(o.term(), n) for o, n in enumerated]
    assert counted.count == len(listed) > 1
    assert counted.n == sum(n for _, n in listed)
    # a fresh list: its outcomes are unbuilt and keep their matches
    want = {match_key(o): n for o, n in level_outcomes(counted.rule, counted.content)}
    assert len(want) == len(listed)
    picked = [counted.pick(k + 0.5) for k in range(counted.n)]
    assert [match_key(o) for o, _ in picked] == [key for key, n in want.items() for _ in range(n)]
    assert all(n == want[match_key(o)] for o, n in picked)
    outcome, n = counted.pick(counted.n)  # past the end: the last
    assert (match_key(outcome), n) == list(want.items())[-1]
    return len(listed)


def test_descent_lands_on_each_match_n_times_on_random_states(rng):
    matches = entries = 0
    for rules, state in random_states(rng, 200):
        for counted in counted_entries(TransitionStore(state, rules)):
            matches += check_descent(counted)
            entries += 1
    assert entries > 40 and matches > 120  # the check must not be vacuous


@pytest.mark.parametrize("name, init", MODELS)
def test_descent_lands_on_each_match_n_times_on_bundled_models(name, init):
    rules = bundled(name, init)
    entries = 0
    for _, store in walk(rules, parse_term(init), 60, seed=3):
        for counted in counted_entries(store):
            check_descent(counted)
            entries += 1
    assert entries > 50


def check_store(state, store):
    """A store built with a warm memo lists what a fresh one lists, rates
    sum to its total, len() counts the listing, and selection at the
    midpoint of each listed transition returns that transition."""
    listed = list(store)
    assert listed == enumerate_transitions(state, store.rules)
    assert len(store) == len(listed)
    assert math.isclose(store.total, math.fsum(t.rate for t in listed), rel_tol=1e-12)
    acc = 0.0
    for t in listed:
        # a fresh store: selection builds and keeps only what it picks
        assert incremental_retransitions(store, state).select(acc + t.rate / 2) == t
        acc += t.rate
    return sum(c.count for c in counted_entries(store))


@pytest.mark.parametrize("name, init", MODELS)
def test_warm_store_lists_and_selects_like_a_fresh_one_on_bundled_models(name, init):
    rules = bundled(name, init)
    in_counted = 0
    for state, store in walk(rules, parse_term(init), 40, seed=8):
        in_counted += check_store(state, store)
    assert in_counted > 100


def test_warm_store_lists_and_selects_like_a_fresh_one_on_random_walks(rng):
    in_counted = 0
    for trial, (rules, init) in enumerate(random_states(rng, 30)):
        for state, store in walk(rules, init, 8, seed=trial):
            if state.size > 200:
                break
            in_counted += check_store(state, store)
    assert in_counted > 50


def test_one_match_is_an_outcome_and_shared_classes_are_enumerated():
    rules = parse_model(
        "init *\n"
        "rule one: a (m ~u | $x) => (m ~u | a $x) @ 1\n"
        "rule two: (m ~u | $x) (m ~v | $y) => (m ~u | $x $y) @ 1\n"
    ).rules
    store = TransitionStore(parse_term("a a (m | b)"), rules)
    assert not list(counted_entries(store))  # one match: an Outcome
    store = TransitionStore(parse_term("a (m | b) (m | c)"), rules)
    # one's two matches are counted; two's slots share a class, so its
    # matches are enumerated one by one
    counted, = counted_entries(store)
    assert counted.rule.id == "one" and counted.n == 2 and counted.count == 2
    assert len([e for e in store.root.local if store.rules[e[0]].id == "two"]) == 2
