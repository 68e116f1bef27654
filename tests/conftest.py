"""Shared randomized generators for terms and rules.

The generators are plain random.Random based so tests can drive exact,
seeded corpora; states stay small enough for the labeled-enumeration
oracle.  Rules are built structurally (one residue per level, one wrap
variable per slot, fresh variable names) so they validate by
construction.
"""
import random

import pytest

from cwcsim import Term
from cwcsim.dsl import format_term
from cwcsim.pattern import (
    OpenCompartment,
    OpenTerm,
    Variable,
    apply_subst,
    term_var,
    validate_rule,
    wrap_var,
)
from cwcsim.rates import MassAction
from cwcsim.terms import Atom, Compartment, _step, atom_bag

ATOM_NAMES = ("a", "b", "c", "d")


def gen_term(rng: random.Random, depth: int = 2, atom_budget: int = 8) -> Term:
    """A random small term; duplicated elements are likely, so congruent
    copies exercise the copy-counting paths."""
    elements = []
    for _ in range(rng.randint(0, 3)):
        if atom_budget <= 0:
            break
        elements.append(Atom(rng.choice(ATOM_NAMES)))
        atom_budget -= 1
    if depth > 0:
        for _ in range(rng.randint(0, 2)):
            wrap = []
            for _ in range(rng.randint(0, 2)):
                if atom_budget <= 0:
                    break
                wrap.append(Atom(rng.choice(ATOM_NAMES)))
                atom_budget -= 1
            share = rng.randint(0, atom_budget)
            atom_budget -= share
            comp = Compartment(atom_bag(wrap), gen_term(rng, depth - 1, share))
            count = 2 if rng.random() < 0.3 else 1
            elements.append((comp, count))
    return Term(elements)


def canonical(pairs) -> tuple:
    """The canonical form of (element, count) pairs by a plain merge, the
    reference for terms' splice: zero counts skipped, counts of equal
    elements summed, elements summed to zero dropped and pairs sorted by
    _key, the first of equal elements kept."""
    counts: dict = {}
    for el, n in pairs:
        if n:
            counts[el] = counts.get(el, 0) + n
    return tuple(sorted(((el, n) for el, n in counts.items() if n), key=lambda p: p[0]._key))


def resolve(t: Term, path) -> Term:
    """The content path addresses in t (() is t), each step checked as
    replace_at checks it."""
    for step in path:
        t = _step(t, step)[0].content
    return t


def occurrences(t: Term) -> list:
    """Every element of t's top level, with multiplicity copies expanded."""
    return [el for el, n in t.items for _ in range(n)]


def vars_of(o: OpenTerm) -> set:
    """All variables occurring in an open term, at any depth."""
    found = set()
    for el, _ in o.items:
        if type(el) is Variable:
            found.add(el)
        elif type(el) is OpenCompartment:
            found.update(v for v, _ in el.wrap_vars)
            found |= vars_of(el.content)
    return found


def levels(state: Term, path=()):
    """(path, content) of every level of state, congruent copies once, in
    pre-order: the contexts the engine's transitions are reported at."""
    yield path, state
    for i, el, _ in state.compartments():
        yield from levels(el.content, path + ((i, 0),))


class _RuleGen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0

    def fresh_term_var(self):
        self.counter += 1
        return term_var(f"V{self.counter}")

    def fresh_wrap_var(self):
        self.counter += 1
        return wrap_var(f"v{self.counter}")

    def level(self, depth: int) -> list:
        rng = self.rng
        elements = []
        for _ in range(rng.randint(0, 2)):
            elements.append(Atom(rng.choice(ATOM_NAMES)))
        if depth > 0:
            for _ in range(rng.randint(0, 2) if rng.random() < 0.7 else 0):
                wrap = [Atom(rng.choice(ATOM_NAMES))] if rng.random() < 0.6 else []
                inner = self.level(depth - 1)
                inner.append(self.fresh_term_var())
                elements.append(
                    OpenCompartment(wrap, [self.fresh_wrap_var()], OpenTerm(inner))
                )
        if rng.random() < 0.25:
            elements.append(
                OpenCompartment(
                    [Atom(rng.choice(ATOM_NAMES))], (), OpenTerm(self.ground_level())
                )
            )
        return elements

    def ground_level(self) -> list:
        return [Atom(self.rng.choice(ATOM_NAMES))
                for _ in range(self.rng.randint(0, 2))]

    def rhs(self, lhs: OpenTerm) -> OpenTerm:
        rng = self.rng
        tvs = sorted((v for v in vars_of(lhs) if v.kind == "term"),
                     key=lambda v: v.name)
        wvs = sorted((v for v in vars_of(lhs) if v.kind == "wrap"),
                     key=lambda v: v.name)
        elements = []
        for v in tvs:
            r = rng.random()
            if r < 0.7:
                elements.append(v)
            elif r < 0.8:
                elements.append((v, 2))  # duplication is legal on the right
        for _ in range(rng.randint(0, 2)):
            elements.append(Atom(rng.choice(ATOM_NAMES)))
        if wvs and rng.random() < 0.9:
            content = [Atom(rng.choice(ATOM_NAMES))] if rng.random() < 0.5 else []
            if tvs and rng.random() < 0.5:
                content.append(tvs[0])
            elements.append(
                OpenCompartment(
                    [Atom(rng.choice(ATOM_NAMES))] if rng.random() < 0.5 else [],
                    wvs,
                    OpenTerm(content),
                )
            )
        return OpenTerm(elements)


def gen_rule(rng: random.Random, rule_id: str = "r"):
    g = _RuleGen(rng)
    while True:
        body = g.level(2)
        if not body:
            continue
        lhs = OpenTerm(body + [g.fresh_term_var()])
        return validate_rule(lhs, g.rhs(lhs), rate=MassAction(1.0), rule_id=rule_id)


def instantiate_lhs(rng: random.Random, rule) -> Term:
    """A state the rule matches at the top level, plus a little noise."""
    subst = {}
    # vars_of is a set; its order follows the string hash seed.
    for v in sorted(vars_of(rule.lhs_open), key=lambda v: v._key):
        if v.kind == "wrap":
            subst[v] = atom_bag(
                Atom(rng.choice(ATOM_NAMES)) for _ in range(rng.randint(0, 1))
            )
        else:
            subst[v] = gen_term(rng, depth=1, atom_budget=2)
    state = apply_subst(rule.lhs_open, subst)
    return union(state, gen_term(rng, depth=1, atom_budget=2))


def union(a: Term, b: Term) -> Term:
    """The multiset sum of two terms."""
    return Term._spliced(a, b.items)


def issue_codes(error) -> list:
    """The codes of a RuleValidationError's issues, in the order reported."""
    return [i.code for i in error.issues]


def format_rate(spec) -> str:
    if isinstance(spec, MassAction):
        return repr(spec.k)
    return str(spec)


def format_rule(rule) -> str:
    """A rule's text in the model syntax, its sugar expanded."""
    return (
        f"rule {rule.id}: {format_term(rule.lhs_open)} -> "
        f"{format_term(rule.rhs)} @ {format_rate(rule.rate)}"
    )


@pytest.fixture
def rng():
    return random.Random(20260814)
