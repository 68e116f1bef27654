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

A rule's local outcomes are kept as deltas and not built.  A match at the
level being rewritten records the (element, count) pairs it consumes, and
the rule's produced part (`Rule.produced`) is instantiated with its
bindings; the outcome is content - consumed + produced.  For one content,
two matches give the same outcome exactly when their signed deltas
produced - consumed are equal, so grouping by the signed delta counts the
instantiations per outcome.  An `Outcome` answers count_r from its delta
and builds its term only when asked, once.

Nothing here enumerates contexts: the engine's propensity tree and
`cwcsim count` each walk a state's levels themselves.
"""
from __future__ import annotations

from math import comb, perm

from .pattern import LevelPattern, Rule, apply_subst
from .terms import Term, _canonical, bag_contains, bag_count, bag_diff


def level_matches(lp: LevelPattern, content: Term, deltas: bool = False) -> list:
    """All distinct substitutions of lp against content, each with the number
    of labeled instantiations it stands for.  Returns [(bindings, count)],
    the residue bound in bindings.  With deltas it returns
    [(bindings, consumed, count)] instead: the residue is left unbound and
    consumed lists the (element, count) pairs the match removes from content.
    Slot levels inside always bind their residues."""
    factor = 1
    consumed_atoms = []
    for a, j in lp.atoms:
        m = content.count_atom_top(a)
        if m < j:
            return []
        factor *= comb(m, j)
        consumed_atoms.append((a, j))

    ground_need: dict = {}
    for g, j in lp.grounds:
        idx = _index_of(content, g)
        if idx is None or content.items[idx][1] < j:
            return []
        ground_need[idx] = ground_need.get(idx, 0) + j

    comp_elements = list(content.compartments())
    results: list = []
    interiors_memo: dict = {}

    def interiors(slot_pos: int, idx: int) -> list:
        key = (slot_pos, idx)
        if key not in interiors_memo:
            slot = lp.slots[slot_pos]
            el = content.items[idx][0]
            if not bag_contains(slot.wrap_atoms, el.wrap):
                interiors_memo[key] = []
            else:
                x_val = bag_diff(el.wrap, slot.wrap_atoms)
                wrap_choices = 1
                for a, j in slot.wrap_atoms:
                    wrap_choices *= comb(bag_count(el.wrap, a), j)
                found = []
                for inner_bindings, inner_count in level_matches(
                    slot.content, el.content
                ):
                    labelful = bool(x_val) or any(
                        v.has_atoms if isinstance(v, Term) else bool(v)
                        for v in inner_bindings.values()
                    )
                    found.append(
                        (inner_bindings, x_val, wrap_choices * inner_count, labelful)
                    )
                interiors_memo[key] = found
        return interiors_memo[key]

    def place(slot_pos: int, used: dict, bindings: dict, groups: dict):
        if slot_pos == len(lp.slots):
            _finalize(used, bindings, groups)
            return
        slot = lp.slots[slot_pos]
        for idx, el, cnt in comp_elements:
            if used.get(idx, 0) + ground_need.get(idx, 0) >= cnt:
                continue
            for inner_bindings, x_val, inner_count, labelful in interiors(
                slot_pos, idx
            ):
                new_bindings = dict(bindings)
                new_bindings.update(inner_bindings)
                new_bindings[slot.wrap_var] = x_val
                new_used = dict(used)
                new_used[idx] = new_used.get(idx, 0) + 1
                new_groups = dict(groups)
                new_groups[idx] = groups.get(idx, ()) + ((inner_count, labelful),)
                place(slot_pos + 1, new_used, new_bindings, new_groups)

    def _finalize(used: dict, bindings: dict, groups: dict):
        total = factor
        consumed = list(consumed_atoms)
        for idx in set(ground_need) | set(groups):
            el, cnt = content.items[idx]
            grp = groups.get(idx, ())
            labelful_slots = 0
            for w, lf in grp:
                total *= w
                if lf:
                    labelful_slots += 1
            rest = (len(grp) - labelful_slots) + ground_need.get(idx, 0)
            if el.has_atoms:
                total *= perm(cnt, labelful_slots) * comb(cnt - labelful_slots, rest)
            consumed.append((el, len(grp)))
        for idx, j in ground_need.items():
            consumed.append((content.items[idx][0], j))
        consumed = tuple([p for p in consumed if p[1]])
        # bindings is a fresh dict per completed placement.
        if deltas:
            results.append((bindings, consumed, total))
        else:
            bindings[lp.residue] = content.subtract(consumed) if consumed else content
            results.append((bindings, total))

    place(0, {}, {}, {})
    # place refers to itself through its closure cell; clearing the cell lets
    # reference counting, not the cyclic collector, free the closures.
    place = None
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
    for bindings, consumed, count in level_matches(rule.lhs, content, True):
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
