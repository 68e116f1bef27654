"""Outcomes as matches: an outcome is its match instantiated through the
whole right-hand side.  Under an n-linear law the store builds an outcome
term only when a transition is selected or listed; under any other law it
builds every match and groups them by term.  Checked against an eager
per-level enumeration that builds every outcome, and against the
labeled-enumeration oracle."""
import dataclasses
import importlib.resources
import random
import time
from math import isclose

import pytest

from cwcsim import (
    Model,
    SimConfig,
    Term,
    oracle_outcomes,
    parse_model,
    parse_rule,
    parse_term,
    run,
)
from cwcsim.engine import TransitionStore, incremental_retransitions
from cwcsim.matching import Outcome, level_matches, level_outcomes, outcome_terms
from cwcsim.pattern import OpenCompartment, OpenTerm, Variable, apply_subst, validate_rule
from cwcsim.rates import BinOp, CountL, CountR, FnRate, MassAction, MatchCount, Num, rate_of
from cwcsim.terms import Atom, Compartment, replace_at
from tests.conftest import canonical, gen_rule, gen_term, instantiate_lhs, levels

A, B = Atom("a"), Atom("b")
LAWS = (
    MassAction(1.0),
    FnRate(BinOp("*", MatchCount(), MatchCount())),
    FnRate(Num(1.0)),
    FnRate(CountL(A)),
    FnRate(BinOp("+", CountR(A), BinOp("*", Num(2.0), CountR(B)))),
)


def eager(state: Term, rules) -> list:
    """Every (rule_id, path, outcome key, n, rate) of state, with each
    outcome built in full: residues bound, the whole right-hand side
    instantiated, grouped by outcome term and rated on the built term."""
    rows = []
    for path, content in levels(state):
        mult, t = 1, state
        for i, _ in path:
            el, copies = t.items[i]
            mult, t = mult * copies, el.content
        for rule in rules:
            groups: dict = {}
            for bindings, consumed, count in level_matches(rule.lhs, content):
                bindings[rule.lhs.residue] = content.subtract(consumed)
                outcome = apply_subst(rule.rhs, bindings)
                groups[outcome] = groups.get(outcome, 0) + count
            for outcome, n in groups.items():
                rate = rate_of(rule.rate, content, outcome, n)
                if rate > 0:
                    rows.append((rule.id, path, outcome._key, mult * n, mult * rate))
    return sorted(rows)


def lazy(store: TransitionStore) -> list:
    """The store's rows with n and rate summed per (rule, path, outcome):
    under an n-linear law one outcome may be split over several matches."""
    summed: dict = {}
    for t in store:
        key = (t.rule_id, t.path, t.outcome_local._key)
        n, rate = summed.get(key, (0, 0.0))
        summed[key] = (n + t.n, rate + t.rate)
    return sorted(key + nr for key, nr in summed.items())


def assert_same_rows(got: list, want: list):
    assert [row[:4] for row in got] == [row[:4] for row in want]
    for g, w in zip(got, want):
        assert isclose(g[4], w[4], rel_tol=1e-12), (g, w)


def with_law(rules, law) -> tuple:
    return tuple(dataclasses.replace(r, rate=law) for r in rules)


def test_store_equals_eager_on_random_states(rng):
    compared = 0
    for trial in range(60):
        rules = [gen_rule(rng, f"r{i}") for i in range(3)]
        state = gen_term(rng, depth=2, atom_budget=6).union(
            instantiate_lhs(rng, rules[trial % 3])
        )
        for law in LAWS:
            ruled = with_law(rules, law)
            want = eager(state, ruled)
            assert_same_rows(lazy(TransitionStore(state, ruled)), want)
            compared += len(want)
    assert compared > 500  # the comparison must not be vacuous


def bundled(name: str, init: str):
    text = importlib.resources.files("cwcsim").joinpath(f"models/{name}").read_text()
    body = text.split("\nrule ", 1)[1]
    return parse_model(f"init {init}\nrule {body}").rules


PHO_CELL = "(pore | (PhoR*5 PhoRP*5 | PhoB*10 PhoGenes))"
MACROPHAGE = "(CD31 M | (lyso | lyticEnz) innerM)"
APOPTOTIC = "(CD31 A N | innerA)"
WALKS = [
    ("pho.cwc", f"Pi*20 {PHO_CELL} {PHO_CELL} {PHO_CELL} {PHO_CELL}"),
    ("macrophage.cwc", f"{MACROPHAGE} {MACROPHAGE} (CD31 V N | innerL) {APOPTOTIC} {APOPTOTIC}"),
]


@pytest.mark.parametrize("name, init", WALKS)
def test_store_equals_eager_along_random_walks(name, init):
    # count_r of atoms both models create and consume
    law = FnRate(BinOp("+", MatchCount(), BinOp("+", CountR(Atom("Pi")), CountR(Atom("I")))))
    started = time.perf_counter()
    for rules in (bundled(name, init), with_law(bundled(name, init), law)):
        rng = random.Random(14)
        state = parse_term(init)
        store = TransitionStore(state, rules)
        for _ in range(100):
            assert_same_rows(lazy(store), eager(state, rules))
            if not store:
                break
            chosen = store.select(rng.random() * store.total)
            state = replace_at(state, chosen.path, chosen.outcome_local)
            store = incremental_retransitions(store, state)
    assert time.perf_counter() - started < 10.0


def only(rule_text: str, state_text: str) -> tuple:
    """The rule and its top-level (outcome, n, rate) rows at state, each
    checked against the oracle and against the law rated on the built
    outcome."""
    rule = parse_rule(rule_text)
    state = parse_term(state_text)
    top = [t for t in TransitionStore(state, (rule,)) if t.path == ()]
    assert [(t.outcome_local, t.n) for t in top] == oracle_outcomes(rule, state)
    for t in top:
        assert t.rate == rate_of(rule.rate, state, t.outcome_local, t.n)
    return rule, [(t.outcome_local, t.n, t.rate) for t in top]


# the residue dropped, repeated and nested, under an n-linear law and under
# one whose matches are grouped by outcome term
@pytest.mark.parametrize("rule_text, state_text, want", [
    ("a $X -> b @ 1", "a a b (m | c)", [("b", 2, 2.0)]),
    ("a $X -> $X $X @ 1", "a a b", [("a a b b", 2, 2.0)]),
    ("a $X -> (m | $X) @ 1", "a b", [("(m | b)", 1, 1.0)]),
    ("a $X -> b @ fn(n * n)", "a a b (m | c)", [("b", 2, 4.0)]),
    ("a $X -> $X $X @ fn(n * n)", "a a b", [("a a b b", 2, 4.0)]),
    ("a $X -> (m | $X) @ fn(n * n)", "a b", [("(m | b)", 1, 1.0)]),
])
def test_residue_dropped_repeated_or_nested(rule_text, state_text, want):
    _, got = only(rule_text, state_text)
    assert got == [(parse_term(o), n, rate) for o, n, rate in want]


def test_atoms_consumed_and_produced_again_count_in_count_r():
    rule, got = only("a b $X -> a c $X @ fn(count_r(a) + count_r(c))", "a a b c")
    assert got == [(parse_term("a a c c"), 2, 4.0)]
    (outcome, _), = level_outcomes(rule, parse_term("a a b c"))
    assert [outcome.count_atom_top(Atom(x)) for x in "abcd"] == [2, 0, 2, 0]


def test_symmetric_substitutions_group_into_one_outcome():
    # x = p, y = q and x = q, y = p give one outcome, so n = 2 and the law
    # sees n = 2: one transition at rate 4, not two at rate 1
    _, got = only(
        "(m ~u | a $x) (m ~v | a $y) $z -> (m ~u | b $x) (m ~v | b $y) $z @ fn(n * n)",
        "(m | a p) (m | a q)",
    )
    assert got == [(parse_term("(m | b p) (m | b q)"), 2, 4.0)]


def test_a_cell_written_back_unchanged_gives_one_outcome_either_way():
    # either cell as the catalyst gives the same outcome term
    _, got = only("(m ~u | $x) $z -> (m ~u | $x) c $z @ fn(n * n)", "(m | p) (m | q)")
    assert got == [(parse_term("c (m | p) (m | q)"), 2, 4.0)]


SYMMETRIC = "(m ~u | a $x) (m ~v | a $y) $z -> (m ~u | b $x) (m ~v | b $y) $z"


@pytest.mark.parametrize("law, entries", [
    ("2", 2), ("fn(2 * n)", 2), ("fn(n * n)", 1), ("fn(2 + n + count_r(b))", 1),
])
def test_n_linear_laws_split_an_outcome_over_its_matches(law, entries):
    # x = p, y = q and x = q, y = p give one outcome; an n-linear law rates
    # each match on its own, any other law the grouped n = 2
    rule = parse_rule(f"{SYMMETRIC} @ {law}")
    state = parse_term("(m | a p) (m | a q)")
    top = [t for t in TransitionStore(state, (rule,)) if t.path == ()]
    assert len(top) == entries
    assert {t.outcome_local for t in top} == {parse_term("(m | b p) (m | b q)")}
    assert sum(t.n for t in top) == 2
    assert oracle_outcomes(rule, state) == [(top[0].outcome_local, 2)]
    assert sum(t.rate for t in top) == 4.0
    assert outcome_terms(rule, state) == [(top[0].outcome_local, 2)]


@pytest.mark.parametrize("law, linear", [
    ("2", True), ("fn(2 * n)", True), ("fn(n * 3)", True), ("fn(n * count_l(a))", True),
    ("fn(n * n)", False), ("fn(n * count_r(a))", False), ("fn(1)", False),
    ("fn(n + 1)", False),
])
def test_n_linear_classification(law, linear):
    assert parse_rule(f"a $X -> b $X @ {law}").rate.n_linear is linear


def count_builds(monkeypatch) -> list:
    """Every outcome build from here on: Outcome.term instantiates the
    right-hand side with one call of matching's apply_subst."""
    calls = []

    def counted(*args):
        calls.append(1)
        return apply_subst(*args)

    monkeypatch.setattr("cwcsim.matching.apply_subst", counted)
    return calls


def test_a_run_instantiates_about_one_right_hand_side_per_event(monkeypatch):
    calls = count_builds(monkeypatch)
    init = "Pi*80 " + " ".join([PHO_CELL] * 4)
    rules = bundled("pho.cwc", init)
    traj = run(Model(parse_term(init), rules), SimConfig(max_events=200, seed=3))
    assert traj.events == 200
    assert len(calls) <= 1.5 * traj.events


MEMO = parse_model(
    "init a a b (m | a b) (n | a a)\n"
    "rule r1: a => c @ 1\n"
    "rule r2: a b => d @ 2\n"
    "rule r3: (m ~w | a $Y) => (k ~w | $Y) @ 3\n"
)


def test_selection_builds_each_outcome_once(monkeypatch):
    store = TransitionStore(MEMO.init, MEMO.rules)
    bounds = [0.0]
    for t in TransitionStore(MEMO.init, MEMO.rules):  # its own cache and outcomes
        bounds.append(bounds[-1] + t.rate)
    midpoints = [(lo + hi) / 2 for lo, hi in zip(bounds, bounds[1:])]
    calls = count_builds(monkeypatch)
    for _ in range(3):
        for target in midpoints:
            store.select(target)
        assert len(calls) == len(store)  # one build per entry, on first use
        store = incremental_retransitions(store, MEMO.init)  # its root from the memo


def test_iterating_a_store_twice_builds_nothing_new(monkeypatch):
    store = TransitionStore(MEMO.init, MEMO.rules)
    calls = count_builds(monkeypatch)
    first = list(store)
    assert len(calls) == len(first) > 3
    assert list(store) == first and len(calls) == len(first)
    assert list(incremental_retransitions(store, MEMO.init)) == first
    assert len(calls) == len(first)


def canonical_instance(o, subst: dict) -> Term:
    """o instantiated with every level merged and sorted by conftest's
    reference merge."""
    out = []
    for el, n in o.items:
        if type(el) is Atom:
            out.append((el, n))
        elif type(el) is Variable:
            out.extend((x, k * n) for x, k in subst[el].items)
        else:
            wrap = list(el.wrap_atoms)
            wrap.extend((a, m * k) for v, k in el.wrap_vars for a, m in subst[v])
            out.append((Compartment._of(canonical(wrap), canonical_instance(el.content, subst)), n))
    return Term(canonical(out))


FALLBACKS = [
    "a $X -> $X $X @ 1",  # the residue twice
    "(m ~w | a $Y) $X -> b $X $Y @ 1",  # two variables at the top
    "(m ~w | a $Y) $X -> (m ~w | $Y $Y) c @ 1",  # no variable at the top
    "a $X -> b $X (m | $X) @ 1",  # the top residue also nested
]


def test_spliced_outcomes_equal_merged_and_sorted_ones(rng):
    """Every outcome equals the whole right-hand side instantiated by a
    plain merge, the residue bound to content - consumed; a spliced top
    level keeps content's object for every element equal to one of it."""
    cases = [(gen_rule(rng, f"r{i}"), None) for i in range(300)]
    cases += [(parse_rule(text), "b c c (m | a d) (m | a a d) (k | a)") for text in FALLBACKS]
    spliced = fallback = 0
    for rule, text in cases:
        if text is None:
            state = gen_term(rng, depth=2, atom_budget=6).union(instantiate_lhs(rng, rule))
        else:
            state = parse_term(text)
        for _, content in levels(state):
            mine = {el: el for el, _ in content.items}
            for bindings, consumed, _ in level_matches(rule.lhs, content):
                subst = dict(bindings)
                subst[rule.lhs.residue] = content.subtract(consumed)
                want = canonical_instance(rule.rhs, subst)
                got = Outcome(rule, content, bindings, consumed).term()
                assert got == want
                if rule.splice_residue:
                    spliced += 1
                    for el, _ in got.items:
                        assert mine.get(el, el) is el
                else:
                    fallback += 1
    assert spliced > 100 and fallback > 100


def test_a_rule_splices_its_residue_only_when_it_occurs_once_at_the_top():
    assert parse_rule("a $X -> b $X @ 1").splice_residue
    assert parse_rule("a (m ~w | $Y) $X -> (m ~w | c $Y) $X @ 1").splice_residue
    for text in FALLBACKS:
        assert not parse_rule(text).splice_residue


# every cell distinct, so that no outcome puts a carried cell on a level
# that already holds an equal one, which would keep its own object
MACROPHAGE_STATE = (
    "(CD31 M | (lyso | lyticEnz) m1) (CD31 V N | v1) (CD31 A N | a1) "
    "(I | (CD31 M | (lyso | lyticEnz) m2) (CD31 V N | v2)) "
    "(I | (CD31 M | (lyso | lyticEnz) m3) (CD31 A N | a3)) "
    "(CD31 M | (lyso | lyticEnz) (phago | (CD31 A N | a4)) m4)"
)
CARRYING = [
    # nested in a rebuilt compartment
    "(m ~x | (n ~y | $Y) $X) $R -> (m ~x | a (n ~y | $Y) $X) $R @ 1",
    # one left-hand-side compartment carried twice
    "(n ~y | $Y) $R -> (k | (n ~y | $Y)) (n ~y | $Y) $R @ 1",
    "(n ~y | $Y) $R -> (n ~y | $Y) (n ~y | $Y) $R @ 1",
    # a nested pattern that consumes atoms and puts them back
    "(m ~x | a $X) $R -> b (m ~x | a $X) $R @ 1",
    "(m ~x | (n ~y | a $Y) $X) $R -> (k | (n ~y | a $Y)) $R @ 1",
]
CARRYING_STATE = "b (m | a (n | a b) c) (m | (n | a)) (n | a a) (k | (m | a)) (m x | a)"


def patterns(o: OpenTerm):
    """Every compartment pattern of a left-hand side, at any depth."""
    for el, _ in o.items:
        if type(el) is OpenCompartment and not el.is_ground:
            yield el
            yield from patterns(el.content)


def carrying(rng, rule):
    """rule with compartments equal to some of its left-hand side's
    patterns added to its right-hand side, at the top or in a new
    compartment."""
    found = list(patterns(rule.lhs_open))
    if not found:
        return rule
    extra = [p if rng.random() < 0.5 else OpenCompartment([Atom("k")], (), OpenTerm([p]))
             for p in rng.sample(found, rng.randint(1, len(found)))]
    return validate_rule(rule.lhs_open, rule.rhs.union(OpenTerm(extra)), rate=rule.rate,
                         rule_id=rule.id)


def element_ids(t: Term, acc: set) -> set:
    """The ids of every compartment object in t, at any depth."""
    for el, _ in t.items:
        if type(el) is Compartment:
            acc.add(id(el))
            element_ids(el.content, acc)
    return acc


def carried_kept(o: OpenTerm, subst: dict, got: Term, objects: set) -> tuple:
    """(carried, matched): the compartments of o that carry a pattern,
    each checked to be in got as an object of the matched state, and how
    many of them are the very element their pattern took."""
    mine = {el: el for el, _ in got.items}
    carried = matched = 0
    for el, _ in o.items:
        if type(el) is not OpenCompartment:
            continue
        if el.carried is not None:
            bound = subst[el.carried]
            found = mine[bound]
            # a level that splices keeps its own object for an equal element
            assert id(found) in objects
            carried, matched = carried + 1, matched + (found is bound)
        else:
            built = canonical_instance(OpenTerm([el]), subst).items[0][0]
            c, m = carried_kept(el.content, subst, mine[built].content, objects)
            carried, matched = carried + c, matched + m
    return carried, matched


def test_carried_compartments_are_the_matched_elements(rng):
    """Every outcome equals the right-hand side built with carrying off
    (canonical_instance rebuilds every compartment), and every compartment
    the right-hand side carries is, in the outcome, the element of the
    matched state that its pattern took."""
    macrophage = importlib.resources.files("cwcsim").joinpath("models/macrophage.cwc")
    cases = [(rule, MACROPHAGE_STATE) for rule in parse_model(macrophage.read_text()).rules]
    cases += [(parse_rule(text), CARRYING_STATE) for text in CARRYING]
    cases += [(carrying(rng, gen_rule(rng, f"r{i}")), None) for i in range(300)]
    outcomes = carried = matched = 0
    for rule, text in cases:
        if text is None:
            state = gen_term(rng, depth=2, atom_budget=6).union(instantiate_lhs(rng, rule))
        else:
            state = parse_term(text)
        objects = element_ids(state, set())
        matched_here = 0
        for _, content in levels(state):
            for bindings, consumed, _ in level_matches(rule.lhs, content):
                subst = dict(bindings)
                subst[rule.lhs.residue] = content.subtract(consumed)
                got = Outcome(rule, content, bindings, consumed).term()
                assert got == canonical_instance(rule.rhs, subst)
                c, m = carried_kept(rule.rhs, subst, got, objects)
                outcomes, carried, matched_here = outcomes + 1, carried + c, matched_here + m
        assert text is None or matched_here, rule.id  # every hand-written case carries
        matched += matched_here
    assert outcomes > 300 and carried > 300 and matched > carried // 2
