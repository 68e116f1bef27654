"""Brute-force match counting over completely labeled terms.

This module answers one question by literal enumeration: given a rule and a
matched content term, what are the outcomes, and how many distinct
instantiations of the rule's variables with labeled values produce each?
Every atom occurrence in the content receives a unique label per species;
one enumeration per level walks occurrences one at a time, collects whole
substitutions into a set (so choices that only relabel the pattern's own
atoms collapse), erases each one's right-hand side and groups the outcomes.

It is deliberately naive and bounded by fixed limits on atom occurrences
and depth; the fast combinatorial counter is checked against it.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .errors import CwcError
from .pattern import OpenCompartment, OpenTerm, Rule, Variable
from .terms import Atom, Compartment, Term, _merged, bag_total

# Labeled values are plain sorted tuples:
#   atom        ("a", name, label)
#   compartment ("c", wrap, content)  wrap a sorted tuple of labeled atoms,
#                                     content a sorted tuple of labeled simples


ATOM_BOUND = 18  # atom occurrences in one level's content
DEPTH_BOUND = 4


class OracleLimitError(CwcError):
    """The input exceeds the enumeration bounds."""


def _atom_occurrences(t: Term) -> int:
    total = sum(n for _, n in t.atoms_top())
    for _, el, n in t.compartments():
        total += n * (bag_total(el.wrap) + _atom_occurrences(el.content))
    return total


def complete_labeling(t: Term) -> tuple:
    """Label every atom occurrence uniquely per species."""
    return _label_term(t, {})


def _label_term(t: Term, counters: dict) -> tuple:
    out = []
    for el, n in t.items:
        for _ in range(n):
            if type(el) is Atom:
                out.append(_next_label(el.name, counters))
            else:
                wrap = []
                for a, k in el.wrap:
                    for _ in range(k):
                        wrap.append(_next_label(a.name, counters))
                out.append(("c", tuple(sorted(wrap)), _label_term(el.content, counters)))
    return tuple(sorted(out))


def _next_label(name: str, counters: dict) -> tuple:
    i = counters.get(name, 0)
    counters[name] = i + 1
    return ("a", name, i)


def erase(labeled) -> Term:
    """Forget labels on a labeled content (a tuple of labeled simples)."""
    return Term(_erase_simple(s) for s in labeled)


def _erase_simple(s):
    if s[0] == "a":
        return Atom(s[1])
    wrap = [Atom(a[1]) for a in s[1]]
    return Compartment(wrap, erase(s[2]))


def _split_level(o: OpenTerm):
    """Expand one open-term level into simple occurrences plus its residue."""
    simples = []
    residue = None
    for el, n in o.items:
        if type(el) is Variable:
            residue = el
        else:
            simples.extend([el] * n)
    if residue is None:
        raise ValueError("pattern level lacks a residue variable")
    return simples, residue


def _matches(simples: list, residue: Variable, occs: tuple) -> Iterator[dict]:
    """Yield every labeled substitution for one level, occurrence by
    occurrence, with no combinatorial shortcuts."""
    if not simples:
        yield {residue: occs}
        return
    p, rest = simples[0], simples[1:]
    for k, occ in enumerate(occs):
        remaining = occs[:k] + occs[k + 1 :]
        if type(p) is Atom:
            if occ[0] != "a" or occ[1] != p.name:
                continue
            yield from _matches(rest, residue, remaining)
        elif occ[0] == "c":
            if p.is_ground:
                if _erase_simple(occ) != _ground_one(p):
                    continue
                yield from _matches(rest, residue, remaining)
            else:
                yield from _match_compartment(p, occ, rest, residue, remaining)


def _ground_one(p: OpenCompartment) -> Compartment:
    from .pattern import ground_term

    return Compartment(p.wrap_atoms, ground_term(p.content))


def _match_compartment(
    p: OpenCompartment, occ, rest: list, residue: Variable, remaining: tuple
) -> Iterator[dict]:
    wrap_occs = occ[1]
    by_name: dict = {}
    for a in wrap_occs:
        by_name.setdefault(a[1], []).append(a)
    # choose the labeled wrap atoms consumed by the pattern's wrap atoms
    choices = [()]
    for a, need in p.wrap_atoms:
        have = by_name.get(a.name, [])
        if len(have) < need:
            return
        choices = [
            prev + picked
            for prev in choices
            for picked in combinations(have, need)
        ]
    wv = p.wrap_vars[0][0]
    inner_simples, inner_residue = _split_level(p.content)
    for consumed in choices:
        left = list(wrap_occs)
        for a in consumed:
            left.remove(a)
        wrap_value = tuple(sorted(left))
        for inner_sigma in _matches(inner_simples, inner_residue, occ[2]):
            for sigma in _matches(rest, residue, remaining):
                yield {**inner_sigma, **sigma, wv: wrap_value}


def _labeled_subst(o: OpenTerm, sigma: dict) -> tuple:
    """Instantiate an open term with labeled values; fresh atoms get label -1
    (labels are erased immediately afterwards)."""
    out = []
    for el, n in o.items:
        if type(el) is Atom:
            out.extend([("a", el.name, -1)] * n)
        elif type(el) is Variable:
            out.extend(list(sigma[el]) * n)
        else:
            wrap = []
            for a, k in el.wrap_atoms:
                wrap.extend([("a", a.name, -1)] * k)
            for v, k in el.wrap_vars:
                wrap.extend(list(sigma[v]) * k)
            content = _labeled_subst(el.content, sigma)
            out.extend([("c", tuple(sorted(wrap)), content)] * n)
    return tuple(sorted(out))


def distinct_substitutions(rule: Rule, labeled_state) -> set:
    """The set of distinct labeled substitutions matching the rule's
    left-hand side against a completely labeled content."""
    simples, residue = _split_level(rule.lhs_open)
    found = set()
    for sigma in _matches(simples, residue, labeled_state):
        found.add(tuple(sorted(sigma.items(), key=lambda kv: kv[0]._key)))
    return found


def oracle_outcomes(rule: Rule, content: Term) -> list:
    """The distinct outcomes of the rule at one level with their numbers of
    distinct labeled instantiations, sorted canonically: the shape of
    ``matching.outcome_terms``.  Raises beyond the enumeration bounds."""
    if _atom_occurrences(content) > ATOM_BOUND:
        raise OracleLimitError(f"state has more than {ATOM_BOUND} atom occurrences")
    if content.depth > DEPTH_BOUND:
        raise OracleLimitError(f"state is nested deeper than {DEPTH_BOUND}")
    return list(_merged((), [
        (erase(_labeled_subst(rule.rhs, dict(sigma_items))), 1)
        for sigma_items in distinct_substitutions(rule, complete_labeling(content))
    ]))
