"""Combinatorial match counting against hand results and the oracle."""
import gc

import pytest

from cwcsim import count_oracle, oracle_total, parse_rule, parse_term
from cwcsim.matching import level_matches, level_outcomes
from cwcsim.pattern import apply_subst
from cwcsim.terms import EMPTY, resolve
from tests.conftest import gen_rule, gen_term, instantiate_lhs, levels


def assert_oracle_agrees(rule, content):
    rows = level_outcomes(rule, content)
    for outcome, n in rows:
        assert count_oracle(rule, content, outcome) == n, (rule.id, outcome)
    assert sum(n for _, n in rows) == oracle_total(rule, content)


def test_flat_counting_example():
    r = parse_rule("a a $X -> a c $X @ 1")
    assert level_outcomes(r, parse_term("a a a b")) == [(parse_term("a a b c"), 3)]
    assert level_outcomes(r, parse_term("a b")) == []


def test_level_matches_leaves_no_reference_cycle():
    r = parse_rule("a (b ~x | $Y) $Z -> (b ~x | a $Y) $Z @ 1")
    state = parse_term("a (b b | c) (b | c)")
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            assert len(level_matches(r.lhs, state)) == 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_membrane_counting_example():
    r = parse_rule("a (b ~x | $X) $Y -> (a b ~x | $X) $Y @ 1")
    state = parse_term("a (b b | c) (b | c)")
    got = dict(level_outcomes(r, state))
    assert got == {
        parse_term("(a b b | c) (b | c)"): 2,
        parse_term("(b b | c) (a b | c)"): 1,
    }
    assert_oracle_agrees(r, state)


def test_wrap_atom_selection_binomial():
    r = parse_rule("(b b ~x | $X) $Y -> $Y @ 1")
    assert level_outcomes(r, parse_term("(b b b | c)")) == [(EMPTY, 3)]
    assert level_outcomes(r, parse_term("(b b | c)")) == [(EMPTY, 1)]
    assert level_outcomes(r, parse_term("(b | c)")) == []
    assert_oracle_agrees(r, parse_term("(b b b | c)"))


def test_atom_choice_binomial():
    r = parse_rule("a a a $X -> $X @ 1")
    assert level_outcomes(r, parse_term("a a a a a")) == [(parse_term("a a"), 10)]


def test_congruent_copy_pairs():
    r = parse_rule("(b ~x | $X) (b ~y | $Y) $Z -> (b b ~x ~y | $X $Y) $Z @ 1")
    # content atoms keep labeled copies apart: ordered assignments
    assert level_outcomes(r, parse_term("(b|a) (b|a)")) == [(parse_term("(b b | a a)"), 2)]
    # atom-free copies are indistinguishable: one substitution
    assert level_outcomes(r, parse_term("(b|*) (b|*)")) == [(parse_term("(b b | *)"), 1)]
    assert_oracle_agrees(r, parse_term("(b|a) (b|a)"))
    assert_oracle_agrees(r, parse_term("(b|*) (b|*)"))


def test_ground_compartment_consumption():
    r = parse_rule("a (b | c) $X -> $X @ 1")
    state = parse_term("a (b | c) (b | c)")
    assert level_outcomes(r, state) == [(parse_term("(b | c)"), 2)]
    assert_oracle_agrees(r, state)
    # atom-free ground copies collapse
    r2 = parse_rule("(|*) $X -> $X @ 1")
    assert level_outcomes(r2, parse_term("(|*) (|*)")) == [(parse_term("(|*)"), 1)]
    assert_oracle_agrees(r2, parse_term("(|*) (|*)"))


def test_mixed_slot_and_ground_on_same_species():
    # one copy consumed whole, one matched as a slot, from three congruent copies
    r = parse_rule("(b | a) (b ~x | $X) $Y -> (b ~x | $X a) $Y @ 1")
    state = parse_term("(b | a) (b | a) (b | a)")
    assert_oracle_agrees(r, state)
    rows = level_outcomes(r, state)
    assert sum(n for _, n in rows) == 6


def test_outcomes_at_inner_context():
    r = parse_rule("d $X -> e $X @ 1")
    state = parse_term("a (b | d d)")
    assert level_outcomes(r, resolve(state, ((1, 0),))) == [(parse_term("d e"), 2)]
    assert level_outcomes(r, resolve(state, ())) == []


def test_level_matches_are_consistent_with_outcomes():
    r = parse_rule("a (b ~x | $X) $Y -> (a b ~x | $X) $Y @ 1")
    state = parse_term("a (b b | c) (b | c)")
    ms = level_matches(r.lhs, state)
    assert len(ms) == 2  # distinct substitutions up to congruence of values
    rows = level_outcomes(r, state)
    assert {apply_subst(r.rhs, b) for b, _ in ms} == {o for o, _ in rows}
    assert sum(c for _, c in ms) == sum(n for _, n in rows)


def test_no_match_cases():
    r = parse_rule("a (b ~x | $X) $Y -> $Y @ 1")
    assert level_outcomes(r, parse_term("a")) == []
    assert level_outcomes(r, parse_term("(b | c)")) == []
    assert level_outcomes(r, parse_term("a (c | b)")) == []
    # wrap atoms must be on the wrap, not inside
    assert level_outcomes(r, parse_term("a (| b)")) == []


def test_nested_slot_patterns():
    r = parse_rule("(m ~x | a (n ~y | $X) $Y) $Z -> (m ~x | (n a ~y | $X) $Y) $Z @ 1")
    state = parse_term("(m | a (n | b) (n | c))")
    got = dict(level_outcomes(r, state))
    assert got == {
        parse_term("(m | (n a | b) (n | c))"): 1,
        parse_term("(m | (n | b) (n a | c))"): 1,
    }
    assert_oracle_agrees(r, state)


def test_randomized_against_oracle(rng):
    checked = 0
    for trial in range(80):
        rule = gen_rule(rng, f"t{trial}")
        state = instantiate_lhs(rng, rule) if trial % 2 else gen_term(rng)
        for _, content in levels(state):
            # stay inside the oracle's enumeration bounds
            if content.depth > 3 or content.size > 16:
                continue
            assert_oracle_agrees(rule, content)
            checked += 1
    assert checked >= 60
