"""Context enumeration, pattern matching, and exact instantiation counting.

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
"""
from __future__ import annotations

from math import comb, perm
from typing import Iterator, NamedTuple

from .pattern import LevelPattern, Rule, apply_subst
from .terms import (
    Atom,
    Compartment,
    Path,
    Term,
    _canonical,
    bag_contains,
    bag_count,
    bag_diff,
)


class Context(NamedTuple):
    """A representative rewrite position: congruent sibling compartments are
    reported once, with the number of copies backing the position."""

    path: Path
    multiplicity: int


def enumerate_contexts(state: Term) -> list:
    out: list = []
    _walk_contexts(state, (), 1, out)
    return out


def _walk_contexts(content: Term, path: Path, mult: int, out: list):
    out.append(Context(path, mult))
    for i, el, n in content.compartments():
        _walk_contexts(el.content, path + ((i, 0),), mult * n, out)


def level_matches(lp: LevelPattern, content: Term) -> list:
    """All distinct substitutions of lp against content, each with the number
    of labeled instantiations it stands for.  Returns [(bindings, count)]."""
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
        residue = content.subtract(p for p in consumed if p[1])
        out_bindings = dict(bindings)
        out_bindings[lp.residue] = residue
        results.append((out_bindings, total))

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


def level_outcomes(rule: Rule, content: Term) -> list:
    """Distinct local outcomes with their total instantiation counts,
    sorted canonically.  Returns [(outcome, n)]."""
    return list(_canonical(
        (apply_subst(rule.rhs, bindings), count)
        for bindings, count in level_matches(rule.lhs, content)
    ))
