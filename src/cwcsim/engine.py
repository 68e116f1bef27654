"""Gillespie direct-method simulation over canonical terms.

Each event consumes exactly two uniform draws, time first, selection
second.  Transitions are kept separate per (rule, context, outcome) in a
deterministic pre-order, and under an n-linear rate law (see rates) per
match class: one outcome may then be several transitions whose rates sum
to the law on the outcome's total n, which leaves every generator row
unchanged.  Congruent sibling contexts are represented once with their
copy count folded into n, and a context's rate is its copy count times the
rate law evaluated on one copy.  The enabled transitions form a tree of
level nodes cached by level content, each holding its rated local
transitions and its subtree total, so after an event only the nodes on the
rewritten path are built and nothing else is re-rated; selection descends
the tree by the totals.  A local transition holds its outcome as a match
(matching.Outcome), whose term is the rule's right-hand side instantiated
with it.  Under an n-linear law each match is one entry and its term is
built only when its transition is selected or listed; under any other law
every match is built when the node is, and matches are grouped by term
and rated on it.  An n-linear rule whose matches can be counted without
enumerating them (matching.Counted: no ground compartment, no compartment
class two slots can share) is one local entry, rated by one rate_of call
on a single instantiation times the summed n; selection walks its
slots' candidates in match order and builds only the match that fires,
rated its n times that unit rate, as rate_of would rate it.  A rule with
one match is that match's Outcome.  Listing expands every Counted into its
match classes once per node, so a store still lists, and len() counts,
one transition per match class.  The node keeps every Outcome it holds
and every Counted listing, with their built terms, for every later store
that reaches it; a Counted builds the match it picks each time it is
picked.  A config flag cross-checks every store against an uncached
recomputation.

Every missed node is derived (_derived) from a node that keeps a _Level:
the previous root, when the store has one of a few classes or more, else
the empty level (_EMPTY), against which every class is new.  Walking the
two canonical levels side by side finds the compartment classes that
changed.  Only those are looked up in matching's element index, tallied
into every top-level slot's summed weight and match count, and built;
every other class keeps its child and its share of the sums.  Every rule
is then counted and rated on the new level, in rule order: a rule no
class or atom enables counts to nothing at the cost of one lookup in the
sums or one atom count, so nothing records which rules a change touches,
and no enabled rule can be missed.  A root derived from the previous one
thus costs lookups and tallies in the changed classes, one count per
rule, and one pass over its classes to splice the child tuple and sum the
total.  A node's total is the fsum of the same list whichever level it
came from, so rates, selection and seeded output do not depend on it.

Each chain of stores owns one memo (Memo): TransitionStore starts it, and
incremental_retransitions hands it on with the rules, so a memo serves
exactly one rules tuple.  It keeps nodes keyed by level content, and the
rows of every top-level slot on one compartment element keyed by the
element; nested slot levels are computed inside an index miss and not
kept.  A root that keeps a _Level goes in only when it recurs, since most
crowd states are met once: its first visit leaves a mark (Memo.admit), and
its node goes in when the chain reaches the content again, or when an
event undoes the one before it and the store's back root, the root before
its own, is reused.  Every other node goes in when it is built.  An entry
weighs the size its key's content or element caches, times the rules'
top-level slot count for an element, and a mark MARK; MEMO_BUDGET bounds
the summed weight over two generations, so a diverging run keeps a bounded
memo.  Eviction is safe: a store holds its nodes directly, every node its
children and Outcomes, a root its _Level, and an evicted entry is rebuilt
equal from its key alone.  A run's memo is not shared across replicates,
because a shared memo cost more in memory and garbage collection than its
hits saved.  A finished run's final state goes through terms.shared, and
a pool worker's is decoded through it, so trajectories kept side by side
share their equal subterms.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import fsum, inf, isclose, isfinite, log, nextafter
from random import Random
from typing import Optional

from .errors import CwcError
from .matching import Counted, _element_rows, counted_matches, level_outcomes, slot_candidates
from .rates import RateEvaluationError, rate_of
from .terms import EMPTY, MAX_DEPTH, Compartment, Path, Term, count_atom, replace_at, shared


@dataclass(frozen=True)
class Transition:
    """One enabled rewrite: a rule applied at a context with one outcome.

    multiplicity counts the context's congruent copies, and n and rate
    already contain it: each is multiplicity times its value on one copy.
    On one copy, n counts the instantiations of one match class under an
    n-linear law, so several transitions may share an outcome; under any
    other law it counts every instantiation giving outcome_local.
    Applying the transition yields replace_at(state, path, outcome_local).
    """

    rule_id: str
    path: Path
    outcome_local: Term
    n: int
    rate: float
    multiplicity: int


@dataclass(frozen=True)
class Model:
    init: Term
    rules: tuple
    observables: tuple = ()


@dataclass(frozen=True)
class SimConfig:
    t_max: Optional[float] = None
    max_events: Optional[int] = None
    seed: int = 0
    sample_dt: float = 1.0
    replicates: int = 1
    max_term_size: int = 1_000_000
    max_depth: int = MAX_DEPTH
    cross_check: bool = False
    log_events: bool = False

    def __post_init__(self):
        real = (int, float)
        for name, kind in (("seed", int), ("max_events", int), ("replicates", int),
                           ("max_term_size", int), ("max_depth", int),
                           ("t_max", real), ("sample_dt", real)):
            value = getattr(self, name)
            if value is None and name in ("max_events", "t_max"):
                continue
            if not isinstance(value, kind) or type(value) is bool:
                what = "an integer" if kind is int else "a real number"
                raise ValueError(f"{name} must be {what}")
        if self.t_max is None and self.max_events is None:
            raise ValueError("need a time horizon or an event cap")
        if self.t_max is not None and not self.t_max > 0:
            raise ValueError("t_max must be positive")
        if self.max_events is not None and not self.max_events > 0:
            raise ValueError("max_events must be positive")
        if not self.sample_dt > 0:
            raise ValueError("sample_dt must be positive")
        if not isfinite(self.sample_dt) or not isfinite((self.t_max or 0) / self.sample_dt):
            raise ValueError("the sample grid must be finite: sample_dt and t_max / sample_dt")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.max_term_size < 0:
            raise ValueError("max_term_size must not be negative")
        if not 0 <= self.max_depth <= MAX_DEPTH:
            raise ValueError(f"max_depth must be from 0 to the nesting bound {MAX_DEPTH}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled counts on a fixed time grid (zero-order hold between events).

    The first row is at t = 0 and times increase strictly, on multiples of
    sample_dt up to t_max or, without t_max, up to the time the run ends.
    status is one of horizon-reached, deadlock, event-cap, error.
    """

    times: tuple
    samples: tuple
    observable_names: tuple
    status: str
    final_state: Term
    final_time: float
    events: int
    cross_check_failures: int = 0
    event_log: Optional[tuple] = None


class SimulationError(CwcError):
    """A step could not be completed; carries the offending rule and context,
    and, when raised by run, the partial trajectory."""

    def __init__(self, message: str, *, rule_id=None, path=None, time=None, code=None):
        super().__init__(message)
        self.rule_id = rule_id
        self.path = path
        self.time = time
        self.code = code


class _Node:
    """The rated transitions of one level content and all inside it, a pure
    function of the content: local holds (rule_index, outcome, n_local,
    rate_local > 0) in rule order; outcome is a matching.Counted standing
    for every match of an n-linear rule it can count, otherwise a
    matching.Outcome, one per match class under an n-linear law and one per
    outcome otherwise, which builds and keeps its term on first use;
    children (element_index, copies, node) for each enabled subtree, total
    the summed rate of one copy and count its transitions.  A root node of
    at least DERIVE_FROM compartment classes keeps the _Level the next root
    is derived from; other nodes keep None."""

    __slots__ = ("local", "children", "total", "count", "level")

    def __init__(self, local: tuple, children: tuple, level=None):
        self.local = local
        self.children = children
        self.total = fsum([e[3] for e in local] + [c * ch.total for _, c, ch in children])
        self.count = sum(e[1].count for e in local) + sum(ch.count for _, _, ch in children)
        self.level = level


# The summed weight one store chain's Memo may keep.  On 10,000-event 16- and
# 64-cell pho runs and a 3,000-event 64-cell macrophage crowd, with crowd
# roots kept only when they recur: a quarter of it re-rates recurring
# states, 10-19% slower per event, and two to four times it is 2-4% faster
# for 0.5-1.5 MB more peak RSS.
MEMO_BUDGET = 250_000

# The weight of a mark (Memo.admit).  A mark takes about 84 bytes, a unit of
# weight 3 when every root was kept and about 15 in a root kept because it
# recurred, which holds the outcomes its visits built.  At this weight the
# memo of a 60,000-event 64-cell pho run peaks at 0.63 MB, against 0.84 MB
# when every root was kept and 0.91 MB at half this weight.
MARK = 256


class Memo:
    """One store chain's memo of level nodes (keyed by level content) and
    the element index (keyed by element, see matching._element_rows) of one
    rules tuple, bounded by one budget on their summed weight.  width is
    the rules' top-level slot count, the row sets of an index entry.  An
    entry weighs the size its key's content or element caches, times width
    for an element (_weight).  Two generations: an entry goes into the
    young one, which becomes the old one, dropping the previous old one,
    when it would pass half the budget; a hit in the old generation moves
    the entry back into the young one, and a key stored again replaces its
    entry and is weighed once.  An entry heavier than half the budget is
    not kept.  A crowd root's first visit leaves only a mark (admit)."""

    __slots__ = ("budget", "width", "young", "old", "young_weight", "old_weight")

    def __init__(self, budget: int, width: int):
        self.budget = budget
        self.width = width
        self.young: dict = {}
        self.old: dict = {}
        self.young_weight = self.old_weight = 0

    @property
    def weight(self) -> int:
        return self.young_weight + self.old_weight

    def get(self, key):
        value = self.young.get(key)
        if value is None:
            value = self.old.pop(key, None)
            if value is not None:
                self.old_weight -= self._weight(key)
                self[key] = value
        return value

    def __setitem__(self, key, value):
        w = self._weight(key)
        half = self.budget // 2
        if w > half:
            return
        if self.young.pop(key, None) is not None:  # stored again: weighed once
            self.young_weight -= w
        elif self.old.pop(key, None) is not None:
            self.old_weight -= w
        if self.young_weight + w > half:
            self.old, self.young = self.young, {}
            self.old_weight, self.young_weight = self.young_weight, 0
        self.young[key] = value
        self.young_weight += w

    def admit(self, key, node, again: bool = False):
        """Store node under key if key recurs: again says it does, or the
        mark of key is held, which goes.  Else leave that mark: key's hash
        with no value but True, of weight MARK, which keeps neither node nor
        key alive and ages out with its generation.  No lookup of a term
        equals a mark.  A key whose hash collides with a marked one is kept
        one visit early, which costs memory only."""
        mark = hash(key)
        if self.young.pop(mark, None) is not None:
            self.young_weight -= MARK
            again = True
        elif self.old.pop(mark, None) is not None:
            self.old_weight -= MARK
            again = True
        if again:
            self[key] = node
        else:
            self[mark] = True

    def _weight(self, key) -> int:
        if type(key) is Term:
            return key.size
        return MARK if type(key) is int else key.size * self.width


class _Level:
    """What a node is derived from besides its entries and children:
    its content; tables, the element index entry (matching._element_rows)
    of every compartment class; sums, (weight, matches) per (rule index,
    slot index) summed over those classes; and shared, per rule index, the
    classes that two of its slots take, counted once per extra slot, kept
    when nonzero."""

    __slots__ = ("content", "tables", "sums", "shared")

    def __init__(self, content, tables, sums, shared):
        self.content = content
        self.tables = tables
        self.sums = sums
        self.shared = shared


# A root with fewer compartment classes keeps no _Level, and the next root
# is derived from the empty level: on one-cell pho, deriving roots from the
# previous one cost more than that, and their levels added memory.
DERIVE_FROM = 3

# The node every missed node is derived from when no previous root keeps a
# _Level: no entries, no children, and a level over the empty term.
_EMPTY = _Node((), (), _Level(EMPTY, {}, {}, {}))


def _tally(table: tuple, copies: int, sign: int, sums: dict, shared: dict):
    """Add copies times one compartment class's element index entry table
    to the weights in sums, sign times its rows to the matches in sums and
    its shared slots to shared."""
    last = None
    for key, rows, summed in table:
        weight, matches = sums[key] if key in sums else (0, 0)
        sums[key] = (weight + copies * summed, matches + sign * len(rows))
        r = key[0]
        if r == last and sign:
            k = shared.get(r, 0) + sign
            if k:
                shared[r] = k
            else:
                del shared[r]
        last = r


def _derived(base: _Node, content: Term, rules: tuple, memo, path: Path) -> tuple:
    """(tables, sums, shared, children) of content, derived from base, a
    node of another content that keeps a _Level, by walking both contents
    in canonical order and comparing elements by identity first.  A
    compartment class whose copy count did not change keeps its table, its
    share of sums and shared, and its child; the others are tallied out and
    in, and a new class is looked up in the element index, when the rules
    have a top-level slot, and its child built.  Atoms have no table: the
    rules that read them are counted on content itself."""
    old = base.level
    tables, sums, shared = dict(old.tables), dict(old.sums), dict(old.shared)
    changes, children = [], []
    olds, kids = old.content.items, base.children
    end, ends = len(olds), len(kids)
    i = k = 0  # the next old element and the next old child
    for j, (el, cnt) in enumerate(content.items):
        was = 0
        while i < end:
            o, n = olds[i]
            if o is el or o == el:
                was = n
                break
            if o._key > el._key:
                break
            changes.append((o, n, 0))
            i += 1
        if was != cnt:
            changes.append((el, was, cnt))
        if type(el) is Compartment and not was:
            tables[el] = _element_rows(rules, el, memo) if memo.width else ()
            child = _node(el.content, rules, memo, path + ((j, 0),))
            if child.count:
                children.append((j, cnt, child))
        elif type(el) is Compartment:
            while k < ends and kids[k][0] < i:
                k += 1
            if k < ends and kids[k][0] == i:  # else disabled, and still
                children.append((j, cnt, kids[k][2]))
        if was:
            i += 1
    changes.extend((o, n, 0) for o, n in olds[i:])
    for el, was, cnt in changes:
        if type(el) is not Compartment:
            continue
        if not cnt:
            _tally(tables.pop(el), -was if el.has_atoms else -1, -1, sums, shared)
        elif not was:
            _tally(tables[el], cnt if el.has_atoms else 1, 1, sums, shared)
        elif el.has_atoms:  # else one copy counts, before and after
            _tally(tables[el], cnt - was, 0, sums, shared)
    return tables, sums, shared, children


def _node(content: Term, rules: tuple, memo, path: Path, base=_EMPTY) -> _Node:
    """The node of content, from memo or, on a miss, derived (_derived)
    from base, the root node of the previous state, when base keeps a
    _Level, else from the empty level; path is where the content was met,
    for error messages only.  Every rule is counted
    (matching.counted_matches) or enumerated, and rated, in rule order; a
    rule no class or atom enables counts to [] from the sums or its atoms.
    A root of at least DERIVE_FROM classes keeps its _Level and goes into
    the memo on its second visit (Memo.admit); every other node on its
    first.  A node holds its children directly, so evicting a node from the
    memo never invalidates its parents."""
    node = memo.get(content)
    if node is not None:
        return node
    if base.level is None:
        base = _EMPTY
    tables, sums, shared, children = _derived(base, content, rules, memo, path)
    local = []
    for r, rule in enumerate(rules):
        entries = counted_matches(rule, r, content, tables, sums, shared)
        if entries is None:  # enumerated from the classes' candidates
            slots = slot_candidates(content, tables, r, len(rule.lhs.slots))
            entries = level_outcomes(rule, content, slots)
        for outcome, n_local in entries:
            counted = type(outcome) is Counted
            try:
                # a Counted is rated per instantiation, then times n
                rate = rate_of(rule.rate, content, outcome, 1 if counted else n_local)
                if counted:
                    outcome.unit_rate = rate
                    rate *= n_local
                    if not isfinite(rate):
                        raise RateEvaluationError(
                            "nonfinite-rate", f"rate evaluated to {rate}"
                        )
            except RateEvaluationError as e:
                raise SimulationError(
                    f"rule {rule.id} at {path}: {e}",
                    rule_id=rule.id,
                    path=path,
                    code=e.code,
                ) from e
            if rate > 0:
                local.append((r, outcome, n_local, rate))
    try:
        root = not path and len(tables) >= DERIVE_FROM
        level = _Level(content, tables, sums, shared) if root else None
        node = _Node(tuple(local), tuple(children), level)
        if not isfinite(node.total):
            raise OverflowError
    except OverflowError:
        raise SimulationError(
            f"total rate at {path} is not finite", path=path, code="nonfinite-rate"
        ) from None
    if level is None:
        memo[content] = node
    else:
        memo.admit(content, node)
    return node


class TransitionStore:
    """The enabled transitions of one state as a tree of level nodes.  A
    store made from a rules tuple keeps the tuple and a Memo of its own,
    which maps level contents to nodes and compartment elements to their
    index entries; its successors (incremental_retransitions) inherit both,
    so a memo serves exactly one rules tuple.  len() counts the
    transitions, one per match class of a counted entry, and total sums
    their rates.  back is the root before this store's when that root keeps
    a _Level, else None.  Iteration yields them in canonical pre-order from
    a list built once and kept, so one store always yields the same
    objects."""

    __slots__ = ("rules", "memo", "root", "back", "total", "_list")

    def __init__(self, state: Term, rules):
        self.rules = tuple(rules)
        self.memo = Memo(MEMO_BUDGET, sum(len(rule.lhs.slots) for rule in self.rules))
        self.back = None
        self._rooted(_node(state, self.rules, self.memo, ()))

    def _rooted(self, root: _Node) -> "TransitionStore":
        self.root = root
        self.total = root.total
        self._list = None
        return self

    def __len__(self) -> int:
        return self.root.count

    def __iter__(self):
        if self._list is None:
            self._list = []
            self._flatten(self.root, (), 1)
        return iter(self._list)

    def _flatten(self, node: _Node, path: Path, mult: int):
        for i, outcome, n_local, rate in node.local:
            if type(outcome) is Counted:
                self._list.extend(
                    self._transition(i, o, n, outcome.unit_rate * n, path, mult)
                    for o, n in outcome.expand()
                )
            else:
                self._list.append(self._transition(i, outcome, n_local, rate, path, mult))
        for i, copies, child in node.children:
            self._flatten(child, path + ((i, 0),), mult * copies)

    def _transition(self, i, outcome, n_local, rate, path, mult) -> Transition:
        return Transition(
            self.rules[i].id, path, outcome.term(), mult * n_local, mult * rate, mult
        )

    def _selected(self, entry: tuple, offset: float, path: Path, mult: int) -> Transition:
        """The transition at rate offset within one local entry; a Counted
        builds only the match the offset falls on."""
        i, outcome, n_local, rate = entry
        if type(outcome) is Counted:
            unit_rate = outcome.unit_rate
            outcome, n_local = outcome.pick(offset / unit_rate)
            rate = unit_rate * n_local
        return self._transition(i, outcome, n_local, rate, path, mult)

    def select(self, target: float) -> Transition:
        """The first transition in pre-order whose cumulative rate exceeds
        target, found by descending the subtree totals and, within a
        Counted entry, its slot weights; a target at or past total (from
        rounding) selects the last transition."""
        node, path, mult = self.root, (), 1
        while True:
            for entry in node.local:
                w = mult * entry[3]
                if target < w:
                    return self._selected(entry, target / mult, path, mult)
                target -= w
            for i, copies, child in node.children:
                w = mult * copies * child.total
                if target < w:
                    break
                target -= w
            else:
                if not node.children:
                    return self._selected(node.local[-1], inf, path, mult)
                target = inf  # past the end: keep to the last subtree
            node, path, mult = child, path + ((i, 0),), mult * copies


def enumerate_transitions(state: Term, rules) -> list:
    """Full recomputation, in a store with its own memo: every enabled
    transition in canonical pre-order."""
    return list(TransitionStore(state, rules))


def incremental_retransitions(prev: TransitionStore, next_state: Term) -> TransitionStore:
    """The store after one event, given the store before it, whose rules
    and memo it inherits.  A root the memo holds is reused, and so is
    prev's back root, the one before prev's, when the event undid the one
    before it; that root then goes into the memo, as a recurring one.  A
    missed root is derived from prev's root: only the compartment classes
    the event changed are looked up in the element index, tallied and
    built, every other class keeps its subtree, and every rule is counted
    and rated again on the new root (module docstring)."""
    store = object.__new__(TransitionStore)
    store.rules, store.memo = prev.rules, prev.memo
    back, base = prev.back, prev.root
    store.back = base if base.level is not None else None
    if back is not None and back.level.content == next_state:  # the event undid the last
        store.memo.admit(next_state, back, True)
        return store._rooted(back)
    return store._rooted(_node(next_state, store.rules, store.memo, (), base))


def step(state: Term, transitions: TransitionStore, rng: Random):
    """One direct-method event: returns (dt, transition, next_state), or
    None when no transition is enabled (deadlock)."""
    if not transitions:
        return None
    total = transitions.total
    u1 = 1.0 - rng.random()  # in (0, 1]
    dt = -log(u1) / total
    chosen = transitions.select(rng.random() * total)
    next_state = replace_at(state, chosen.path, chosen.outcome_local)
    return dt, chosen, next_state


def derive_seed(seed: int, replicate: int) -> int:
    """Deterministic independent stream seed for one replicate."""
    digest = hashlib.sha256(f"{seed}:{replicate}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _check_limits(state: Term, cfg: SimConfig, rule_id, path, time):
    if state.size > cfg.max_term_size:
        what, value, limit = "size", state.size, cfg.max_term_size
    elif state.depth > cfg.max_depth:
        what, value, limit = "depth", state.depth, cfg.max_depth
    else:
        return
    raise SimulationError(
        f"term {what} {value} exceeds limit {limit}"
        + (f" (rule {rule_id})" if rule_id else ""),
        rule_id=rule_id,
        path=path,
        time=time,
        code="resource-limit-exceeded",
    )


def _sampled(s: Term, observables: tuple, element_rows: Memo) -> tuple:
    """s's sample row: the sum over its top-level classes of copies times
    the class's own row, exact since every scope counts each top-level
    element apart.  A class's row is counted the first time element_rows,
    a Memo of len(observables) width, meets it, and kept there."""
    if not observables:  # element_rows would weigh nothing
        return ()
    total = [0] * len(observables)
    for el, n in s.items:
        row = element_rows.get(el)
        if row is None:
            one = Term._of(((el, 1),))
            row = tuple(count_atom(one, o.atom, o.scope) for o in observables)
            element_rows[el] = row
        total = [a + n * b for a, b in zip(total, row)]
    return tuple(total)


def run(model, cfg: SimConfig, replicate: int = 0) -> Trajectory:
    """Simulate one trajectory; deterministic given (model, cfg, replicate).

    Each sample row sums the rows of the state's top-level classes, times
    their copies (_sampled), and a class's row is counted when the run
    first meets it and kept in a Memo of MEMO_BUDGET of the run's own, so
    sampling a state costs one lookup per class and the memo stays bounded.
    A SimulationError raised on the way carries the partial trajectory, with
    status "error", as its trajectory attribute.
    """
    rules = tuple(model.rules)
    observables = tuple(getattr(model, "observables", ()) or ())
    rng = Random(derive_seed(cfg.seed, replicate))

    dt = cfg.sample_dt
    # index of the last grid point; with only an event cap the grid runs on
    # to the time the run ends
    last = int(cfg.t_max / dt + 1e-9) if cfg.t_max is not None else inf

    state = model.init
    rows: list = []
    gi = 0
    t = 0.0
    events = 0
    failures = 0
    log_rows: list = [] if cfg.log_events else None

    # each top-level element's own sample row (_sampled), by element
    element_rows = Memo(MEMO_BUDGET, len(observables))

    def fill(until: float, s: Term):
        """Sample s, measured once, at every grid point left before until."""
        nonlocal gi
        start = gi
        while gi <= last and gi * dt < until:
            gi += 1
        if gi > start:
            rows.extend([_sampled(s, observables, element_rows)] * (gi - start))

    def cross_checked(s: Term, transitions: TransitionStore) -> TransitionStore:
        nonlocal failures
        if cfg.cross_check:
            full = enumerate_transitions(s, rules)
            if list(transitions) != full or not isclose(
                transitions.total, fsum(t.rate for t in full)
            ):
                failures += 1
                return TransitionStore(s, rules)
        return transitions

    def trajectory(status: str) -> Trajectory:
        return Trajectory(
            times=tuple(i * dt for i in range(len(rows))),
            samples=tuple(rows),
            observable_names=tuple(o.name for o in observables),
            status=status,
            # an error state may be too deep for shared's recursion
            final_state=state if status == "error" else shared(state),
            final_time=t,
            events=events,
            cross_check_failures=failures,
            event_log=tuple(log_rows) if log_rows is not None else None,
        )

    t_new = 0.0  # the time of the state being checked and rated
    try:
        _check_limits(state, cfg, None, None, 0.0)
        transitions = cross_checked(state, TransitionStore(state, rules))
        while True:
            if not transitions:
                # every grid point left, up to t_max or else up to t
                fill(inf if cfg.t_max is not None else nextafter(t, inf), state)
                return trajectory("deadlock")
            wait, chosen, next_state = step(state, transitions, rng)
            t_new = t + wait
            if cfg.t_max is not None and t_new > cfg.t_max:
                fill(inf, state)
                return trajectory("horizon-reached")
            if gi * dt < t_new:  # most events pass no grid point
                fill(t_new, state)
            _check_limits(next_state, cfg, chosen.rule_id, chosen.path, t_new)
            transitions = cross_checked(
                next_state, incremental_retransitions(transitions, next_state)
            )
            state = next_state
            t = t_new
            events += 1
            if log_rows is not None:
                log_rows.append((t, chosen.rule_id, chosen.path))
            if cfg.max_events is not None and events >= cfg.max_events:
                fill(nextafter(t, inf), state)  # up to t
                return trajectory("event-cap")
    except SimulationError as e:
        if e.time is None:  # raised while rating a store
            e.time = t_new
        e.trajectory = trajectory("error")
        raise


def _run_one(args):
    model, cfg, replicate = args
    return run(model, cfg, replicate)


def run_replicates(model, cfg: SimConfig, jobs: int = 1) -> list:
    """Independent replicate trajectories; replicate i uses the stream
    derived from (seed, i), so results do not depend on scheduling."""
    tasks = [(model, cfg, i) for i in range(cfg.replicates)]
    if jobs == 1 or cfg.replicates == 1:
        return [run(*task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor  # so importing cwcsim loads no pool

    # the fork start method launches every worker at once
    # a worker's final state comes back decoded through terms.shared
    with ProcessPoolExecutor(max_workers=min(jobs, cfg.replicates)) as pool:
        return list(pool.map(_run_one, tasks))
