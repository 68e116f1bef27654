"""Gillespie direct-method simulation over canonical terms.

Each event consumes exactly two uniform draws, time first, selection
second.  Transitions are kept separate per (rule, context, outcome) in a
deterministic pre-order; congruent sibling contexts are represented once
with their copy count folded into n, and a context's rate is its copy
count times the rate law evaluated on one copy.  The enabled transitions
form a tree of level nodes cached by level content, each holding its rated
local transitions and its subtree total, so after an event only the nodes
on the rewritten path are built and nothing else is re-rated; selection
descends the tree by the totals.  A config flag cross-checks every store
against an uncached recomputation.
"""
from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import fsum, inf, isclose, log
from random import Random
from typing import Optional

from .errors import CwcError
from .matching import level_outcomes
from .rates import RateEvaluationError, rate_of
from .terms import Path, Term, count_atom, replace_at


@dataclass(frozen=True)
class Transition:
    """One enabled rewrite: a rule applied at a context with one outcome.

    n and rate already contain the context multiplicity (n = multiplicity
    * n_local, rate = multiplicity * the rate law at n_local); applying the
    transition yields replace_at(state, path, outcome_local).
    """

    rule_id: str
    path: Path
    outcome_local: Term
    n: int
    rate: float
    rule_index: int
    n_local: int
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
    max_depth: int = 256
    cross_check: bool = False
    log_events: bool = False

    def __post_init__(self):
        if self.t_max is None and self.max_events is None:
            raise ValueError("need a time horizon or an event cap")
        if self.t_max is not None and not self.t_max > 0:
            raise ValueError("t_max must be positive")
        if self.max_events is not None and not self.max_events > 0:
            raise ValueError("max_events must be positive")
        if not self.sample_dt > 0:
            raise ValueError("sample_dt must be positive")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    """Sampled counts on a fixed time grid (zero-order hold between events).

    The first row is at t = 0 and times increase strictly.  status is one
    of horizon-reached, deadlock, event-cap, error.
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
    rate_local > 0), children (element_index, copies, node) for each enabled
    subtree, total the summed rate of one copy and count its transitions."""

    __slots__ = ("local", "children", "total", "count")

    def __init__(self, local: tuple, children: tuple):
        self.local = local
        self.children = children
        self.total = fsum([e[3] for e in local] + [c * ch.total for _, c, ch in children])
        self.count = len(local) + sum(ch.count for _, _, ch in children)


def _node(content: Term, rules: tuple, cache: dict, path: Path) -> _Node:
    """The node of content, built on a cache miss; path is where the content
    was met, for error messages only."""
    node = cache.get(content)
    if node is None:
        local = []
        for i, rule in enumerate(rules):
            for outcome, n_local in level_outcomes(rule, content):
                try:
                    rate = rate_of(rule.rate, content, outcome, n_local)
                except RateEvaluationError as e:
                    raise SimulationError(
                        f"rule {rule.id} at {path}: {e}",
                        rule_id=rule.id,
                        path=path,
                        code=e.code,
                    ) from e
                if rate > 0:
                    local.append((i, outcome, n_local, rate))
        children = []
        for i, el, copies in content.compartments():
            child = _node(el.content, rules, cache, path + ((i, 0),))
            if child.count:
                children.append((i, copies, child))
        node = cache[content] = _Node(tuple(local), tuple(children))
    return node


class TransitionStore:
    """The enabled transitions of one state as a tree of level nodes; cache
    maps level contents to nodes and may serve every store of one rules
    tuple.  len() counts the transitions and total sums their rates.
    Iteration yields them in canonical pre-order from a list built once and
    kept, so one store always yields the same objects."""

    __slots__ = ("rules", "root", "total", "_list")

    def __init__(self, state: Term, rules, cache: Optional[dict] = None):
        self.rules = tuple(rules)
        self.root = _node(state, self.rules, {} if cache is None else cache, ())
        self.total = self.root.total
        self._list = None

    def __len__(self) -> int:
        return self.root.count

    def __iter__(self):
        if self._list is None:
            self._list = []
            self._flatten(self.root, (), 1)
        return iter(self._list)

    def _flatten(self, node: _Node, path: Path, mult: int):
        self._list.extend(self._transition(e, path, mult) for e in node.local)
        for i, copies, child in node.children:
            self._flatten(child, path + ((i, 0),), mult * copies)

    def _transition(self, entry: tuple, path: Path, mult: int) -> Transition:
        i, outcome, n_local, rate = entry
        rule_id = self.rules[i].id
        return Transition(rule_id, path, outcome, mult * n_local, mult * rate, i, n_local, mult)

    def select(self, target: float) -> Transition:
        """The first transition in pre-order whose cumulative rate exceeds
        target, found by descending the subtree totals; a target at or past
        total (from rounding) selects the last transition."""
        node, path, mult = self.root, (), 1
        while True:
            for entry in node.local:
                w = mult * entry[3]
                if target < w:
                    return self._transition(entry, path, mult)
                target -= w
            for i, copies, child in node.children:
                w = mult * copies * child.total
                if target < w:
                    break
                target -= w
            else:
                if not node.children:
                    return self._transition(node.local[-1], path, mult)
                target = inf  # past the end: keep to the last subtree
            node, path, mult = child, path + ((i, 0),), mult * copies


def enumerate_transitions(state: Term, rules) -> list:
    """Full recomputation with a fresh cache: every enabled transition in
    canonical pre-order."""
    return list(TransitionStore(state, rules))


def incremental_retransitions(
    prev: TransitionStore,
    applied: Transition,
    next_state: Term,
    rules,
    *,
    prev_state: Term,
    cache: Optional[dict] = None,
) -> TransitionStore:
    """The store after one applied transition: every subtree the event left
    unchanged is a cache hit, so only the nodes on the rewritten path are
    built.  prev, applied and prev_state are not read."""
    return TransitionStore(next_state, rules, cache)


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


def run(model, cfg: SimConfig, replicate: int = 0) -> Trajectory:
    """Simulate one trajectory; deterministic given (model, cfg, replicate).

    A SimulationError raised on the way carries the partial trajectory, with
    status "error", as its trajectory attribute.
    """
    rules = tuple(model.rules)
    observables = tuple(getattr(model, "observables", ()) or ())
    rng = Random(derive_seed(cfg.seed, replicate))

    if cfg.t_max is not None:
        npoints = int(cfg.t_max / cfg.sample_dt + 1e-9)
        grid = [i * cfg.sample_dt for i in range(npoints + 1)]
    else:
        grid = [0.0]

    cache: dict = {}
    state = model.init
    rows: list = []
    gi = 0
    t = 0.0
    events = 0
    failures = 0
    log_rows: list = [] if cfg.log_events else None

    def measure(s: Term) -> tuple:
        return tuple(count_atom(s, o.atom, o.scope) for o in observables)

    def fill(upto_inclusive: float, s: Term):
        nonlocal gi
        while gi < len(grid) and grid[gi] <= upto_inclusive:
            rows.append(measure(s))
            gi += 1

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
            times=tuple(grid[: len(rows)]),
            samples=tuple(rows),
            observable_names=tuple(o.name for o in observables),
            status=status,
            final_state=state,
            final_time=t,
            events=events,
            cross_check_failures=failures,
            event_log=tuple(log_rows) if log_rows is not None else None,
        )

    try:
        _check_limits(state, cfg, None, None, 0.0)
        transitions = cross_checked(state, TransitionStore(state, rules, cache))
        while True:
            if not transitions:
                fill(grid[-1], state)
                return trajectory("deadlock")
            dt, chosen, next_state = step(state, transitions, rng)
            t_new = t + dt
            horizon = cfg.t_max is not None and t_new > cfg.t_max
            limit = t_new if not horizon else grid[-1]
            while gi < len(grid) and grid[gi] < limit:
                rows.append(measure(state))
                gi += 1
            if horizon:
                fill(grid[-1], state)
                return trajectory("horizon-reached")
            _check_limits(next_state, cfg, chosen.rule_id, chosen.path, t_new)
            transitions = cross_checked(
                next_state,
                incremental_retransitions(
                    transitions,
                    chosen,
                    next_state,
                    rules,
                    prev_state=state,
                    cache=cache,
                ),
            )
            state = next_state
            t = t_new
            events += 1
            if log_rows is not None:
                log_rows.append((t, chosen.rule_id, chosen.path))
            if cfg.max_events is not None and events >= cfg.max_events:
                fill(t, state)
                return trajectory("event-cap")
    except SimulationError as e:
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
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_one, tasks))
