"""The labeled-enumeration oracle itself: known counts, labeling invariance."""
import random

import pytest
from hypothesis import given, settings

from cwcsim import count_oracle, oracle_total, parse_rule, parse_term
from cwcsim.oracle import (
    OracleLimitError,
    complete_labeling,
    distinct_substitutions,
    erase,
)
from tests.conftest import gen_rule, gen_term, instantiate_lhs
from tests.test_terms import terms


@settings(deadline=None)
@given(terms)
def test_erase_inverts_labeling(t):
    assert erase(complete_labeling(t)) == t
    assert erase(complete_labeling(t, random.Random(7))) == t


def test_flat_counting_example():
    r = parse_rule("a a $X -> a c $X @ 1")
    state = parse_term("a a a b")
    assert count_oracle(r, state, parse_term("a a b c")) == 3
    assert count_oracle(r, state, parse_term("a c")) == 0
    assert oracle_total(r, state) == 3


def test_membrane_counting_example():
    r = parse_rule("a (b ~x | $X) $Y -> (a b ~x | $X) $Y @ 1")
    state = parse_term("a (b b | c) (b | c)")
    assert count_oracle(r, state, parse_term("(a b b | c) (b | c)")) == 2
    assert count_oracle(r, state, parse_term("(b b | c) (a b | c)")) == 1
    assert oracle_total(r, state) == 3


def test_congruent_copies_collapse():
    # both a's produce the same substitution set when contents carry no atoms
    r = parse_rule("(~x | $X) (~y | $Y) $Z -> (~x ~y | $X $Y) $Z @ 1")
    assert oracle_total(r, parse_term("(|*) (|*)")) == 1
    # labeled wrap atoms keep the two compartments apart
    assert oracle_total(r, parse_term("(b|*) (b|*)")) == 2
    # and symmetric slots double-count ordered assignments of distinct copies
    assert oracle_total(r, parse_term("(b|*) (c|*)")) == 2


def test_ground_compartment_choices():
    r = parse_rule("a (b | c) $X -> $X @ 1")
    state = parse_term("a (b | c) (b | c)")
    assert count_oracle(r, state, parse_term("(b | c)")) == 2


def test_labeling_choice_does_not_change_counts():
    r = parse_rule("a (b ~x | $X) $Y -> (a b ~x | $X) $Y @ 1")
    state = parse_term("a a (b b | c) (b | c c)")
    baseline = len(distinct_substitutions(r, complete_labeling(state)))
    for i in range(5):
        labeled = complete_labeling(state, random.Random(i))
        assert erase(labeled) == state
        assert len(distinct_substitutions(r, labeled)) == baseline


def test_randomized_labeling_invariance(rng):
    for trial in range(25):
        rule = gen_rule(rng, f"r{trial}")
        state = instantiate_lhs(rng, rule)
        counts = {
            len(distinct_substitutions(rule, complete_labeling(state, random.Random(k))))
            for k in range(3)
        }
        assert len(counts) == 1


def test_enumeration_bounds():
    r = parse_rule("a $X -> $X @ 1")
    with pytest.raises(OracleLimitError):
        count_oracle(r, parse_term("a * 19"), parse_term("a * 18"))
    deep = parse_term("(m | (m | (m | (m | (m | a)))))")
    with pytest.raises(OracleLimitError):
        oracle_total(r, deep)
    # one consumed copy from 18 labeled ones: 18 distinct residues
    assert oracle_total(r, parse_term("a * 18")) == 18
