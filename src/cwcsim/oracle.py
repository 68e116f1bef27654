"""Brute-force match counting over completely labeled terms.

This module answers one question by literal enumeration: given a rule, a
matched content term, and an outcome, how many distinct instantiations of
the rule's variables with labeled values produce that outcome?  Every atom
occurrence in the content receives a unique label per species; the
enumeration walks occurrences one at a time, collects whole substitutions
into a set (so choices that only relabel the pattern's own atoms collapse),
and filters by the erased outcome.

It is deliberately naive and bounded; the fast combinatorial counter is
checked against it.
"""
from __future__ import annotations

from itertools import combinations
from random import Random
from typing import Iterator, Optional

from .errors import CwcError
from .pattern import OpenCompartment, OpenTerm, Rule, Variable
from .terms import Atom, Compartment, Term, bag_total

# Labeled values are plain sorted tuples:
#   atom        ("a", name, label)
#   compartment ("c", wrap, content)  wrap a sorted tuple of labeled atoms,
#                                     content a sorted tuple of labeled simples


class OracleLimitError(CwcError):
    """The input exceeds the configured enumeration bounds."""


def _atom_occurrences(t: Term) -> int:
    total = sum(n for _, n in t.atoms_top())
    for _, el, n in t.compartments():
        total += n * (bag_total(el.wrap) + _atom_occurrences(el.content))
    return total


def complete_labeling(t: Term, rng: Optional[Random] = None):
    """Label every atom occurrence uniquely per species.

    With an rng the labels are assigned in shuffled order; the count must
    not depend on which labeling was chosen.
    """
    counters: dict = {}
    labeled = _label_term(t, counters)
    if rng is None:
        return labeled
    remap = {}
    for name, used in counters.items():
        labels = list(range(used))
        rng.shuffle(labels)
        remap[name] = labels
    return tuple(sorted(_relabel(s, remap) for s in labeled))


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


def _relabel(value, remap: dict):
    if isinstance(value, tuple) and value and value[0] == "a":
        _, name, label = value
        return ("a", name, remap[name][label])
    if isinstance(value, tuple) and value and value[0] == "c":
        _, wrap, content = value
        return (
            "c",
            tuple(sorted(_relabel(a, remap) for a in wrap)),
            tuple(sorted(_relabel(s, remap) for s in content)),
        )
    raise TypeError(f"not a labeled simple term: {value!r}")


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


def _labeled_within(state_local: Term, max_atoms: int, max_depth: int):
    """The complete labeling of state_local; raises beyond the bounds."""
    if _atom_occurrences(state_local) > max_atoms:
        raise OracleLimitError(
            f"state has more than {max_atoms} atom occurrences"
        )
    if state_local.depth > max_depth:
        raise OracleLimitError(f"state is nested deeper than {max_depth}")
    return complete_labeling(state_local)


def count_oracle(
    rule: Rule,
    state_local: Term,
    outcome_local: Term,
    *,
    max_atoms: int = 18,
    max_depth: int = 4,
) -> int:
    """Count distinct labeled instantiations producing the given outcome.

    Intended only for small inputs; raises beyond the configured bounds.
    """
    labeled = _labeled_within(state_local, max_atoms, max_depth)
    return sum(
        erase(_labeled_subst(rule.rhs, dict(sigma_items))) == outcome_local
        for sigma_items in distinct_substitutions(rule, labeled)
    )


def oracle_total(
    rule: Rule,
    state_local: Term,
    *,
    max_atoms: int = 18,
    max_depth: int = 4,
) -> int:
    """Total distinct labeled instantiations over all outcomes; catches a
    matcher that drops an outcome entirely."""
    labeled = _labeled_within(state_local, max_atoms, max_depth)
    return len(distinct_substitutions(rule, labeled))
