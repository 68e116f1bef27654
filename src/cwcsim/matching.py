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
the outcome is content - consumed + produced.  For one content, two
matches give the same outcome exactly when their signed deltas produced -
consumed are equal, so grouping by the signed delta counts the
instantiations per outcome.  An `Outcome` answers count_r from its delta
and builds its term only when asked, once.

Nothing here enumerates contexts: the engine's propensity tree and
`cwcsim count` each walk a state's levels themselves.
"""
from __future__ import annotations

from itertools import product
from math import comb, perm

from .pattern import LevelPattern, Rule, apply_subst
from .terms import Term, _canonical, bag_contains, bag_count, bag_diff


def level_matches(lp: LevelPattern, content: Term) -> list:
    """All distinct substitutions of lp against content, each with the number
    of labeled instantiations it stands for.  Returns [(bindings, consumed,
    count)]: consumed lists the (element, count) pairs the match removes from
    content, in content order.  lp's own residue is left unbound; each slot
    level inside binds its residue to what its match leaves there."""
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

    # Per slot, every (index, bindings, count, labelful) it can take.
    candidates = []
    for slot in lp.slots:
        found = []
        for idx, el, cnt in content.compartments():
            if ground_need.get(idx, 0) >= cnt or not bag_contains(slot.wrap_atoms, el.wrap):
                continue
            x_val = bag_diff(el.wrap, slot.wrap_atoms)
            wrap_choices = 1
            for a, j in slot.wrap_atoms:
                wrap_choices *= comb(bag_count(el.wrap, a), j)
            for bindings, consumed, count in level_matches(slot.content, el.content):
                bindings[slot.content.residue] = (
                    el.content.subtract(consumed) if consumed else el.content
                )
                bindings[slot.wrap_var] = x_val
                labelful = any(
                    v.has_atoms if isinstance(v, Term) else bool(v)
                    for v in bindings.values()
                )
                found.append((idx, bindings, wrap_choices * count, labelful))
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


def _index_of(content: Term, element) -> int:
    key = element._key
    for i, (el, _) in enumerate(content.items):
        if el._key == key:
            return i
    return None


class Outcome:
    """One local outcome of a rule at a level content, kept as the delta
    content - consumed + produced, both canonical (element, count) pairs."""

    __slots__ = ("content", "consumed", "produced", "_term")

    def __init__(self, content: Term, consumed: tuple, produced: tuple):
        self.content = content
        self.consumed = consumed
        self.produced = produced
        self._term = None

    def count_atom_top(self, atom) -> int:
        """count_r of the outcome, read off the delta."""
        n = self.content.count_atom_top(atom)
        n += sum(k for el, k in self.produced if el == atom)
        return n - sum(k for el, k in self.consumed if el == atom)

    def term(self) -> Term:
        """The outcome term, built on the first call and kept."""
        if self._term is None:
            rest = self.content.subtract(self.consumed)
            self._term = Term._of(_canonical(self.produced + rest.items))
        return self._term


def level_outcomes(rule: Rule, content: Term) -> list:
    """Distinct local outcomes as unbuilt deltas, in match order, with their
    total instantiation counts; matches are grouped by their signed delta
    produced - consumed, zero entries dropped.  Returns [(Outcome, n)]."""
    groups: dict = {}
    for bindings, consumed, count in level_matches(rule.lhs, content):
        if rule.produced is not None:
            produced = apply_subst(rule.produced, bindings).items
        else:  # the residue is dropped, repeated or nested on the right
            bindings[rule.lhs.residue] = content.subtract(consumed)
            produced = apply_subst(rule.rhs, bindings).items
            consumed = content.items
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
