"""Combinatorial match counting against hand results and the oracle."""
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cwcsim import oracle_outcomes, parse_rule, parse_term
from cwcsim.matching import level_matches, outcome_terms
from cwcsim.pattern import apply_subst
from cwcsim.terms import EMPTY, bag_diff
from tests.conftest import gen_rule, gen_term, instantiate_lhs, levels, resolve


def assert_oracle_agrees(rule, content):
    assert outcome_terms(rule, content) == oracle_outcomes(rule, content), rule.id


def test_flat_counting_example():
    r = parse_rule("a a $X -> a c $X @ 1")
    assert outcome_terms(r, parse_term("a a a b")) == [(parse_term("a a b c"), 3)]
    assert outcome_terms(r, parse_term("a b")) == []


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
    got = dict(outcome_terms(r, state))
    assert got == {
        parse_term("(a b b | c) (b | c)"): 2,
        parse_term("(b b | c) (a b | c)"): 1,
    }
    assert_oracle_agrees(r, state)


def test_wrap_atom_selection_binomial():
    r = parse_rule("(b b ~x | $X) $Y -> $Y @ 1")
    assert outcome_terms(r, parse_term("(b b b | c)")) == [(EMPTY, 3)]
    assert outcome_terms(r, parse_term("(b b | c)")) == [(EMPTY, 1)]
    assert outcome_terms(r, parse_term("(b | c)")) == []
    assert_oracle_agrees(r, parse_term("(b b b | c)"))


def test_atom_choice_binomial():
    r = parse_rule("a a a $X -> $X @ 1")
    assert outcome_terms(r, parse_term("a a a a a")) == [(parse_term("a a"), 10)]


def test_congruent_copy_pairs():
    r = parse_rule("(b ~x | $X) (b ~y | $Y) $Z -> (b b ~x ~y | $X $Y) $Z @ 1")
    # content atoms keep labeled copies apart: ordered assignments
    assert outcome_terms(r, parse_term("(b|a) (b|a)")) == [(parse_term("(b b | a a)"), 2)]
    # atom-free copies are indistinguishable: one substitution
    assert outcome_terms(r, parse_term("(b|*) (b|*)")) == [(parse_term("(b b | *)"), 1)]
    assert_oracle_agrees(r, parse_term("(b|a) (b|a)"))
    assert_oracle_agrees(r, parse_term("(b|*) (b|*)"))


def test_ground_compartment_consumption():
    r = parse_rule("a (b | c) $X -> $X @ 1")
    state = parse_term("a (b | c) (b | c)")
    assert outcome_terms(r, state) == [(parse_term("(b | c)"), 2)]
    assert_oracle_agrees(r, state)
    # atom-free ground copies collapse
    r2 = parse_rule("(|*) $X -> $X @ 1")
    assert outcome_terms(r2, parse_term("(|*) (|*)")) == [(parse_term("(|*)"), 1)]
    assert_oracle_agrees(r2, parse_term("(|*) (|*)"))


def test_mixed_slot_and_ground_on_same_species():
    # one copy consumed whole, one matched as a slot, from three congruent copies
    r = parse_rule("(b | a) (b ~x | $X) $Y -> (b ~x | $X a) $Y @ 1")
    state = parse_term("(b | a) (b | a) (b | a)")
    assert_oracle_agrees(r, state)
    rows = outcome_terms(r, state)
    assert sum(n for _, n in rows) == 6


def test_slots_and_grounds_share_copies_up_to_their_count():
    pair = parse_rule("(b ~x | $X) (b ~y | $Y) $Z -> (b b ~x ~y | $X $Y) $Z @ 1")
    mixed = parse_rule("(b | a) (b ~x | $X) $Y -> (b ~x | $X a) $Y @ 1")
    one = parse_term("(b | a)")
    # two slots, or a ground and a slot, cannot both take the single copy
    for r in (pair, mixed):
        assert level_matches(r.lhs, one) == []
        assert outcome_terms(r, one) == [] == oracle_outcomes(r, one)
    for text in ("(b | a) (b | a) (b | c)", "(b | a) (b | c)"):
        state = parse_term(text)
        for r in (pair, mixed):
            assert oracle_outcomes(r, state)
            assert_oracle_agrees(r, state)


def test_outcomes_at_inner_context():
    r = parse_rule("d $X -> e $X @ 1")
    state = parse_term("a (b | d d)")
    assert outcome_terms(r, resolve(state, ((1, 0),))) == [(parse_term("d e"), 2)]
    assert outcome_terms(r, resolve(state, ())) == []


def test_level_matches_are_consistent_with_outcomes():
    r = parse_rule("a (b ~x | $X) $Y -> (a b ~x | $X) $Y @ 1")
    state = parse_term("a (b b | c) (b | c)")
    ms = level_matches(r.lhs, state)
    assert len(ms) == 2  # distinct substitutions up to congruence of values
    for b, consumed, _ in ms:
        b[r.lhs.residue] = state.subtract(consumed)
    rows = outcome_terms(r, state)
    assert {apply_subst(r.rhs, b) for b, _, _ in ms} == {o for o, _ in rows}
    assert sum(c for _, _, c in ms) == sum(n for _, n in rows)


def bound_elements(lp, content, bindings) -> int:
    """How many compartment patterns of lp, at any depth, bindings binds;
    each must be bound to a compartment object of the content its level
    matched, with the rest of its wrap bound to its wrap variable."""
    bound = 0
    for slot in lp.slots:
        el = bindings[slot.source]
        assert any(el is c for c, _ in content.items)
        assert bindings[slot.wrap_var] == bag_diff(el.wrap, slot.wrap_atoms)
        bound += 1 + bound_elements(slot.content, el.content, bindings)
    return bound


def test_every_compartment_pattern_binds_the_element_it_took(rng):
    rules = [parse_rule("(m ~x | (n ~y | a $Y) $X) (m ~u | $U) $R -> $R @ 1")]
    rules += [gen_rule(rng, f"r{i}") for i in range(150)]
    bound = 0
    for rule in rules:
        state = instantiate_lhs(rng, rule)
        for _, content in levels(state):
            for bindings, _, _ in level_matches(rule.lhs, content):
                bound += bound_elements(rule.lhs, content, bindings)
    assert bound > 200


def test_no_match_cases():
    r = parse_rule("a (b ~x | $X) $Y -> $Y @ 1")
    assert outcome_terms(r, parse_term("a")) == []
    assert outcome_terms(r, parse_term("(b | c)")) == []
    assert outcome_terms(r, parse_term("a (c | b)")) == []
    # wrap atoms must be on the wrap, not inside
    assert outcome_terms(r, parse_term("a (| b)")) == []


def test_nested_slot_patterns():
    r = parse_rule("(m ~x | a (n ~y | $X) $Y) $Z -> (m ~x | (n a ~y | $X) $Y) $Z @ 1")
    state = parse_term("(m | a (n | b) (n | c))")
    got = dict(outcome_terms(r, state))
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


def test_random_states_do_not_depend_on_the_hash_seed():
    """A failing randomized test replays in any process."""
    code = (
        "import random\n"
        "from tests.conftest import gen_rule, instantiate_lhs\n"
        "rng = random.Random(5)\n"
        "for _ in range(100):\n"
        "    print(instantiate_lhs(rng, gen_rule(rng))._key)\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    outputs = []
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=root,
            capture_output=True, text=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
