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

An outcome is its match instantiated through the whole right-hand side,
C[lhs sigma] -> C[rhs sigma].  level_matches gives each match as its
bindings, the (element, count) pairs it consumes and its count; the
level's own residue stays unbound, while every slot level inside binds its
residue to what its match leaves there.  An `Outcome` holds one match and,
when its term is asked for, instantiates the rule's right-hand side once,
with the residue standing for content - consumed.  When the residue is
the variable the right-hand side's top level splices on (its last
variable, there once: OpenTerm.splice) and occurs nowhere else in it
(Rule.splice_residue), it is bound to content itself, and apply_subst
inserts the right-hand side's other top-level items into it and removes
the consumed pairs in one terms._spliced call, so content - consumed is
never built; otherwise the residue is bound to content.subtract(consumed),
itself one such call.  A spliced outcome shares content's objects: every
element of it equal to one of content's is that object.  Each level of
it keeps the key of the level it was spliced from, edited where it
changed (Term._spliced).  Every compartment pattern, at every depth,
binds the element it took under its own left-hand-side compartment
(_rows).  A right-hand-side compartment equal to that pattern, such as a
cell a rule moves unchanged, looks the element up there (apply_subst), so
the outcome holds that element, not a copy built again.

How matches become outcomes depends on the rate law.  Under an n-linear
law (`rates` module docstring) the summed rate into each outcome does not
depend on how its matches are split, so each match is one entry, built
only when its term is asked for, which the engine does only for the
transition that fires.  Under any other law every match is built and
matches with equal terms are one outcome, whose n sums their counts, in
first-match order; count_r reads the built term.  outcome_terms merges
the entries per built term.

A compartment slot's matches on one compartment element -- bindings with
the slot level's residue and wrap variable, count and whether they carry
atoms -- depend on the slot and the element only, not on the level around
them: they are its rows (_rows).  The rows of every top-level slot of a
rules tuple on one element are memoised together, in a memo that serves
that tuple only, under the element: the element index (_element_rows).
The engine thus looks each compartment class up once when a level first
meets it, not once per rule and slot, and keeps the entries of a level's
classes in a table by class.  It is the only
memo of rows: nested slot levels are computed inside an index miss and
not kept.  Rows come back in content order, so match order does not
depend on the memo, and every caller copies a row's bindings before
writing into them.  A slot's candidates are the classes of a level with
rows for it, in content order (slot_candidates).

Under an n-linear law a rule need not even be enumerated when it has no
ground compartment and no two of its slots can take the same compartment
class: each slot then takes one copy of one element, so the matches are
the product of independent per-slot choices and their counts sum to the
atom factor times the product of the slots' summed weights (Counted).
The engine keeps those sums per level, so counting such a rule
(counted_matches) reads no class; it rates the sum with one rate_of call
and, when the entry fires, walks the slots' candidates only as far as the
one match it builds.  A rule with grounds, two slots that can take one
class, or any other law is enumerated by level_outcomes as above.

Nothing here enumerates contexts: the engine's propensity tree and
`cwcsim count` each walk a state's levels themselves.
"""
from __future__ import annotations

from itertools import product
from math import comb, inf, perm

from .pattern import LevelPattern, Rule, apply_subst
from .terms import Atom, Term, _merged, bag_contains, bag_count, bag_diff


def level_matches(lp: LevelPattern, content: Term, slots=None) -> list:
    """All distinct substitutions of lp against content, each with the number
    of labeled instantiations it stands for.  Returns [(bindings, consumed,
    count)]: consumed lists the (element, count) pairs the match removes from
    content, in content order.  lp's own residue is left unbound; each slot
    level inside binds its residue to what its match leaves there.  slots
    gives, per slot of lp, its candidates (index, rows) in content order,
    as slot_candidates lists them; without slots they are computed with
    _rows."""
    factor = _atom_factor(lp.atoms, content)
    if not factor:
        return []

    ground_need: dict = {}
    for g, j in lp.grounds:
        idx = _index_of(content, g)
        if idx is None or content.items[idx][1] < j:
            return []
        ground_need[idx] = ground_need.get(idx, 0) + j

    if slots is None:
        slots = [[(idx, _rows(slot, el)) for idx, el, _ in content.compartments()]
                 for slot in lp.slots]
    # Per slot, every (index, bindings, count, labelful) it can take.
    candidates = []
    for cands in slots:
        found = [
            (idx,) + row
            for idx, rows in cands
            if ground_need.get(idx, 0) < content.items[idx][1]
            for row in rows
        ]
        if not found:
            return []
        candidates.append(found)

    results = []
    for placement in product(*candidates):
        match = _placed(lp.atoms, content, factor, ground_need, placement)
        if match is not None:
            results.append(match)
    return results


def _atom_factor(atoms, content: Term) -> int:
    """The ways to choose the pattern's ground atoms, C(m, j) per species;
    0 when content has too few of one."""
    factor = 1
    for a, j in atoms:
        m = content.count_atom_top(a)
        if m < j:
            return 0
        factor *= comb(m, j)
    return factor


def _placed(atoms, content: Term, factor: int, ground_need: dict, placement) -> tuple:
    """The match of one slot placement, a row (index, bindings, count,
    labelful) per slot: (bindings, consumed, count), or None when slots and
    grounds take more copies of a compartment than content has.  bindings
    is a new dict."""
    taken = dict(ground_need)
    labelful: dict = {}
    for idx, _, _, lf in placement:
        taken[idx] = taken.get(idx, 0) + 1
        labelful[idx] = labelful.get(idx, 0) + lf
    total = factor
    consumed = list(atoms)
    for idx, k in sorted(taken.items()):
        el, cnt = content.items[idx]
        if k > cnt:  # more slots and grounds than copies
            return None
        if el.has_atoms:
            j = labelful.get(idx, 0)
            total *= perm(cnt, j) * comb(cnt - j, k - j)
        consumed.append((el, k))
    bindings: dict = {}
    for _, b, count, _ in placement:
        total *= count
        bindings.update(b)
    return bindings, tuple(consumed), total


def _rows(slot, el) -> list:
    """The rows of one compartment slot on one compartment element, as
    [(bindings, count, labelful)], computed; nested slot levels are
    computed too and not kept.  Every row binds the slot's pattern
    (CompartmentPattern.source) to el, and labelful reads the variables'
    values only: a bound element holds no atom that they do not."""
    rows = []
    if bag_contains(slot.wrap_atoms, el.wrap):
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
                v.has_atoms if type(v) is Term else type(v) is tuple and len(v) > 0
                for v in bindings.values()
            )
            bindings[slot.source] = el
            rows.append((bindings, wrap_choices * count, labelful))
    return rows


def _element_rows(rules: tuple, el, memo) -> tuple:
    """The element index of one compartment element: ((rule index, slot
    index), rows, summed row count) for every top-level slot of rules with a
    row on el, kept in memo under el: the memo serves rules only, and an
    entry weighs as much as the row sets of their top-level slots
    (engine.Memo).  Callers copy the bindings and never write into them."""
    table = memo.get(el)
    if table is not None:
        return table
    table = []
    for i, rule in enumerate(rules):
        for s, slot in enumerate(rule.lhs.slots):
            rows = _rows(slot, el)
            if rows:
                table.append(((i, s), rows, sum(row[1] for row in rows)))
    table = tuple(table)
    memo[el] = table
    return table


def slot_candidates(content: Term, tables, i: int, k: int) -> list:
    """Per slot s < k of rules[i], its candidates (index, rows) in content
    order, read off tables, which maps every compartment class of content
    to its element index entry (_element_rows).  Grounds are not
    applied."""
    found = [[] for _ in range(k)]
    for idx, el, _ in content.compartments():
        for (r, s), rows, _ in tables[el]:
            if r == i:
                found[s].append((idx, rows))
    return found


def counted_matches(rule: Rule, i: int, content: Term, tables, sums: dict, shared: dict):
    """The matches of rules[i] at content: [] when there are none; under an
    n-linear law, with no ground compartment and no compartment class that
    two slots take (shared counts those classes per rule index), [(Outcome,
    n)] for a single match and [(Counted, n)] for more; None when the rule
    needs level_outcomes.  sums holds (weight, matches) per (rule index,
    slot index), summed over the classes of content; tables maps each
    class to its element index entry, which only a single match, or a
    Counted that fires or is listed, reads."""
    lp = rule.lhs
    weights, count = [], 1
    for s in range(len(lp.slots)):
        weight, matches = sums.get((i, s), (0, 0))
        if not matches:
            return []
        weights.append(weight)
        count *= matches
    factor = _atom_factor(lp.atoms, content)
    if not factor:
        return []
    if not rule.rate.n_linear or lp.grounds or shared.get(i):
        return None
    n = factor
    for weight in weights:
        n *= weight
    if count == 1:  # the common case in one-cell models: no Counted needed
        return [_pick(rule, i, content, tables, factor, weights, n, 0)]
    return [(Counted(rule, content, factor, weights, n, count, tables, i), n)]


def _pick(rule: Rule, i: int, content: Term, tables, factor: int, weights: list, n: int,
          offset: float) -> tuple:
    """(Outcome, n) of the match of rules[i] whose cumulative count in match
    order first exceeds offset, at or past n (from rounding) the last, as
    Counted.pick describes."""
    unit = n  # the count of one unit of weight in the current block
    placement = []
    for s, summed in enumerate(weights):
        unit //= summed
        key = (i, s)
        for idx, (el, cnt) in enumerate(content.items):
            if type(el) is Atom:
                continue
            for k, rows, rows_sum in tables[el]:
                if k == key:
                    break
            else:
                continue
            copies = cnt if el.has_atoms else 1
            last = idx, copies, rows
            if offset < unit * copies * rows_sum:
                break
            offset -= unit * copies * rows_sum
        else:
            offset = inf
        idx, copies, rows = last
        unit *= copies
        for row in rows:
            if offset < unit * row[1]:
                break
            offset -= unit * row[1]
        else:
            offset = inf
        unit *= row[1]
        placement.append((idx,) + row)
    bindings, consumed, n = _placed(rule.lhs.atoms, content, factor, {}, placement)
    return Outcome(rule, content, bindings, consumed), n


class Counted:
    """The matches of an n-linear rule at one level content whose slots take
    disjoint compartment classes and no ground compartment, counted and not
    enumerated.  Each slot then takes one copy of its element, so a match
    of rows r_s on elements e_s counts factor * prod(copies(e_s) *
    count(r_s)) and the matches sum to n = factor * prod(W_s), W_s the
    summed weight of slot s (weights).  A slot's candidates are the classes
    of content with rows for it in tables, each class's element index
    entry, in content order (slot_candidates).  pick finds one match by a
    count offset, walking each slot's candidates in that order only as far
    as the offset reaches, and builds it; expand lists every match once
    through level_outcomes, in the same order.  count is the number of
    matches.  An n-linear law does not read count_r, so the engine may pass
    a Counted to rate_of as the outcome; it keeps the rate of one
    instantiation in unit_rate, and a match of n is rated unit_rate * n, as
    rate_of rates it."""

    __slots__ = ("rule", "content", "factor", "weights", "n", "count", "tables", "i",
                 "listed", "unit_rate")

    def __init__(self, rule: Rule, content: Term, factor: int, weights: list, n: int,
                 count: int, tables, i: int):
        self.rule = rule
        self.content = content
        self.factor = factor
        self.weights = weights
        self.n = n
        self.count = count
        self.tables = tables
        self.i = i
        self.listed = None

    def pick(self, offset: float) -> tuple:
        """(Outcome, n) of the match whose cumulative count in match order
        first exceeds offset; at or past n (from rounding), the last."""
        return _pick(self.rule, self.i, self.content, self.tables, self.factor, self.weights,
                     self.n, offset)

    def expand(self) -> list:
        """[(Outcome, n)] of every match in match order, listed once."""
        if self.listed is None:
            slots = slot_candidates(self.content, self.tables, self.i, len(self.weights))
            self.listed = level_outcomes(self.rule, self.content, slots)
        return self.listed


def _index_of(content: Term, element) -> int:
    key = element._key
    for i, (el, _) in enumerate(content.items):
        if el._key == key:
            return i
    return None


class Outcome:
    """One local outcome of a rule at a level content, held as its match:
    bindings, with the level's residue unbound, and the (element, count)
    pairs it consumes.  term instantiates the whole right-hand side once,
    the residue standing for what the match leaves, and keeps the result,
    dropping the match: a rule that splices its residue binds it to
    content and has apply_subst remove the consumed pairs in the same
    splice; any other binds it to content.subtract(consumed)."""

    __slots__ = ("rule", "content", "bindings", "consumed", "_term")
    count = 1  # the transitions it lists, as Counted.count

    def __init__(self, rule: Rule, content: Term, bindings: dict, consumed: tuple):
        self.rule = rule
        self.content = content
        self.bindings = bindings
        self.consumed = consumed
        self._term = None

    def count_atom_top(self, atom) -> int:
        """count_r of the outcome, read off the built term."""
        return self.term().count_atom_top(atom)

    def term(self) -> Term:
        """The outcome term, built on the first call and kept."""
        if self._term is None:
            rule, bindings = self.rule, self.bindings
            if rule.splice_residue:  # content - consumed is never built
                bindings[rule.lhs.residue] = self.content
                self._term = apply_subst(rule.rhs, bindings, self.consumed)
            else:
                bindings[rule.lhs.residue] = self.content.subtract(self.consumed)
                self._term = apply_subst(rule.rhs, bindings)
            self.rule = self.content = self.bindings = self.consumed = None
        return self._term


def level_outcomes(rule: Rule, content: Term, slots=None) -> list:
    """Local outcomes in match order, with their instantiation counts, as
    [(Outcome, n)].  Under an n-linear law, one unbuilt entry per match;
    otherwise every match's term is built and matches are grouped by it, in
    first-match order.  slots is passed to level_matches."""
    outcomes = [
        (Outcome(rule, content, bindings, consumed), count)
        for bindings, consumed, count in level_matches(rule.lhs, content, slots)
    ]
    if rule.rate.n_linear:
        return outcomes
    groups: dict = {}
    for outcome, count in outcomes:
        group = groups.setdefault(outcome.term(), [outcome, 0])
        group[1] += count
    return [(outcome, n) for outcome, n in groups.values()]


def outcome_terms(rule: Rule, content: Term) -> list:
    """Distinct local outcomes built as terms, with their total
    instantiation counts, sorted canonically.  Returns [(outcome, n)]."""
    return list(_merged((), [(o.term(), n) for o, n in level_outcomes(rule, content)]))
