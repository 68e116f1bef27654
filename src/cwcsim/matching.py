"""Pattern matching and exact instantiation counting at one level content.

Counting contract: for one matched content and one erased substitution, the
number of distinct labeled instantiations factors into independent choices.
Ground atoms consume an unordered subset per species, C(m, j), the choice
being recorded in the level residue; likewise wrap atoms consumed from a
matched compartment's wrap, recorded in the wrap variable.  Compartment
slots whose bindings carry at least one atom pick ordered distinct copies,
m * (m-1) * ..., each multiplied by its interior count.  Slots whose
bindings are atom-free, and ground compartments, only determine the set of
consumed copies, C(remaining, j): permuting them is invisible in the
substitution.  Copies of a compartment containing no atoms at all are
indistinguishable even under labeling and contribute a single choice.

A rule's local outcomes are kept as deltas and not built.  level_matches
gives each match as its bindings, the (element, count) pairs it consumes
and its count; the level's own residue stays unbound, while every slot
level inside binds its residue to what its match leaves there.  The
rule's produced part (`Rule.produced`) is instantiated with the bindings;
the outcome is content - consumed + produced.

How matches become outcomes depends on the rate law.  Under an n-linear
law (`rates` module docstring) the summed rate into each outcome does not
depend on how its matches are split, so each match is one entry: it keeps
its bindings and instantiates its produced part only when its term is
asked for, which the engine does only for the transition that fires.
Under any other law the produced part of every match is instantiated and
matches are grouped by their signed delta produced - consumed: for one
content, two matches give the same outcome exactly when those deltas are
equal, so the group counts the instantiations per outcome.  Either way an
`Outcome` answers count_r from its delta and builds its term once, on
first use; outcome_terms merges the entries per built term.

A compartment slot's matches on one compartment element -- bindings with
the slot level's residue and wrap variable, count and whether they carry
atoms -- depend on the slot and the element only, not on the level around
them.  level_matches takes them as rows from a memo keyed by (id(slot),
element), so a level re-matches only the compartments it has not met
before; the ground_need filter, which depends on the level, stays per
call.  The engine passes its per-run memo; without one a throwaway dict
serves a single call.  Rows come back in content order, so match order
does not depend on the memo, and every caller copies a row's bindings
before writing into them.

Nothing here enumerates contexts: the engine's propensity tree and
`cwcsim count` each walk a state's levels themselves.
"""
from __future__ import annotations

from itertools import product
from math import comb, perm

from .pattern import LevelPattern, Rule, apply_subst
from .terms import Term, _canonical, bag_contains, bag_count, bag_diff


def level_matches(lp: LevelPattern, content: Term, memo=None) -> list:
    """All distinct substitutions of lp against content, each with the number
    of labeled instantiations it stands for.  Returns [(bindings, consumed,
    count)]: consumed lists the (element, count) pairs the match removes from
    content, in content order.  lp's own residue is left unbound; each slot
    level inside binds its residue to what its match leaves there.  memo
    keeps slot rows (`_slot_rows`); without one a throwaway dict serves this
    call."""
    factor = 1
    for a, j in lp.atoms:
        m = content.count_atom_top(a)
        if m < j:
            return []
        factor *= comb(m, j)

    ground_need: dict = {}
    for g, j in lp.grounds:
        idx = _index_of(content, g)
        if idx is None or content.items[idx][1] < j:
            return []
        ground_need[idx] = ground_need.get(idx, 0) + j

    if memo is None:
        memo = {}
    # Per slot, every (index, bindings, count, labelful) it can take.
    candidates = []
    for slot in lp.slots:
        found = []
        for idx, el, cnt in content.compartments():
            if ground_need.get(idx, 0) < cnt:
                found.extend((idx,) + row for row in _slot_rows(slot, el, memo))
        if not found:
            return []
        candidates.append(found)

    results = []
    for placement in product(*candidates):
        taken = dict(ground_need)
        labelful: dict = {}
        for idx, _, _, lf in placement:
            taken[idx] = taken.get(idx, 0) + 1
            labelful[idx] = labelful.get(idx, 0) + lf
        total = factor
        consumed = list(lp.atoms)
        for idx, k in sorted(taken.items()):
            el, cnt = content.items[idx]
            if k > cnt:  # more slots and grounds than copies
                break
            if el.has_atoms:
                j = labelful.get(idx, 0)
                total *= perm(cnt, j) * comb(cnt - j, k - j)
            consumed.append((el, k))
        else:
            bindings = {}
            for _, b, count, _ in placement:
                total *= count
                bindings.update(b)
            results.append((bindings, tuple(consumed), total))
    return results


def _slot_rows(slot, el, memo) -> list:
    """The rows of one compartment slot on one compartment element, as
    [(bindings, count, labelful)], kept in memo under (id(slot), el).  The
    entry holds the slot itself, so a different slot with a reused id
    recomputes.  Callers copy the bindings and never write into them."""
    key = (id(slot), el)
    entry = memo.get(key)
    if entry is not None and entry[0] is slot:
        return entry[1]
    rows = []
    if bag_contains(slot.wrap_atoms, el.wrap):
        x_val = bag_diff(el.wrap, slot.wrap_atoms)
        wrap_choices = 1
        for a, j in slot.wrap_atoms:
            wrap_choices *= comb(bag_count(el.wrap, a), j)
        for bindings, consumed, count in level_matches(slot.content, el.content, memo):
            bindings[slot.content.residue] = (
                el.content.subtract(consumed) if consumed else el.content
            )
            bindings[slot.wrap_var] = x_val
            labelful = any(
                v.has_atoms if isinstance(v, Term) else bool(v)
                for v in bindings.values()
            )
            rows.append((bindings, wrap_choices * count, labelful))
    memo[key] = (slot, rows)
    return rows


def _index_of(content: Term, element) -> int:
    key = element._key
    for i, (el, _) in enumerate(content.items):
        if el._key == key:
            return i
    return None


class Outcome:
    """One local outcome of a rule at a level content, kept as the delta
    content - consumed + produced, both canonical (element, count) pairs.
    While produced is None, match holds (rule, bindings) and the delta is
    instantiated on first use.  Once the term is built the delta and the
    bindings are dropped."""

    __slots__ = ("content", "consumed", "produced", "match", "_term")

    def __init__(self, content: Term, consumed: tuple, produced=None, match=None):
        self.content = content
        self.consumed = consumed
        self.produced = produced
        self.match = match
        self._term = None

    def _instantiate(self):
        rule, bindings = self.match
        self.consumed, self.produced = _delta(rule, self.content, bindings, self.consumed)
        self.match = None

    def count_atom_top(self, atom) -> int:
        """count_r of the outcome, read off the delta or the built term."""
        if self._term is not None:
            return self._term.count_atom_top(atom)
        if self.produced is None:
            self._instantiate()
        n = self.content.count_atom_top(atom)
        n += sum(k for el, k in self.produced if el == atom)
        return n - sum(k for el, k in self.consumed if el == atom)

    def term(self) -> Term:
        """The outcome term, built on the first call and kept."""
        if self._term is None:
            if self.produced is None:
                self._instantiate()
            rest = self.content.subtract(self.consumed)
            self._term = Term._of(_canonical(self.produced + rest.items))
            self.consumed = self.produced = None
        return self._term


def _delta(rule: Rule, content: Term, bindings: dict, consumed: tuple) -> tuple:
    """(consumed, produced) pairs of one match."""
    if rule.produced is not None:
        return consumed, apply_subst(rule.produced, bindings).items
    # the residue is dropped, repeated or nested on the right
    bindings[rule.lhs.residue] = content.subtract(consumed)
    return content.items, apply_subst(rule.rhs, bindings).items


def level_outcomes(rule: Rule, content: Term, memo=None) -> list:
    """Local outcomes as unbuilt deltas, in match order, with their
    instantiation counts.  Under an n-linear law, one entry per match;
    otherwise matches are grouped by their signed delta produced - consumed,
    zero entries dropped.  memo is passed to level_matches.  Returns
    [(Outcome, n)]."""
    matches = level_matches(rule.lhs, content, memo)
    if rule.rate.n_linear:
        return [
            (Outcome(content, consumed, match=(rule, bindings)), count)
            for bindings, consumed, count in matches
        ]
    groups: dict = {}
    for bindings, consumed, count in matches:
        consumed, produced = _delta(rule, content, bindings, consumed)
        signed = dict(produced)
        for el, n in consumed:
            signed[el] = signed.get(el, 0) - n
        key = frozenset(p for p in signed.items() if p[1])
        group = groups.get(key)
        if group is None:
            groups[key] = [Outcome(content, consumed, produced), count]
        else:
            group[1] += count
    return [(outcome, n) for outcome, n in groups.values()]


def outcome_terms(rule: Rule, content: Term) -> list:
    """Distinct local outcomes built as terms, with their total
    instantiation counts, sorted canonically.  Returns [(outcome, n)]."""
    return list(_canonical((o.term(), n) for o, n in level_outcomes(rule, content)))
