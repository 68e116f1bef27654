"""Gillespie direct-method simulation over canonical terms.

Each event consumes exactly two uniform draws, time first, selection
second.  Transitions are kept separate per (rule, context, outcome) in a
deterministic pre-order; congruent sibling contexts are represented once
with their copy count folded into n.  After each event the transition list
is rebuilt by one walk of the new state in which every level's match
results come from a cache keyed by the level's content, so only the levels
the event changed are matched again; a config flag cross-checks every
rebuilt list against an uncached recomputation.
"""
from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import fsum, log
from random import Random
from typing import Optional

from .errors import CwcError
from .matching import level_outcomes
from .rates import RateEvaluationError, rate_of
from .terms import Path, Term, count_atom, replace_at


@dataclass(frozen=True)
class Transition:
    """One enabled rewrite: a rule applied at a context with one outcome.

    n already contains the context multiplicity (n = multiplicity *
    n_local); applying the transition yields
    replace_at(state, path, outcome_local).
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


class _LevelCache:
    """Memoized per-level match results, keyed by content term."""

    def __init__(self, rules):
        self.rules = tuple(rules)
        self.data: dict = {}

    def entries(self, content: Term) -> tuple:
        got = self.data.get(content)
        if got is None:
            got = _level_entries(content, self.rules)
            self.data[content] = got
        return got


def _level_entries(content: Term, rules) -> tuple:
    return tuple(
        (i, outcome, n_local)
        for i, rule in enumerate(rules)
        for outcome, n_local in level_outcomes(rule, content)
    )


def _local_transitions(content, rules, path, mult, cache) -> list:
    entries = cache.entries(content) if cache is not None else _level_entries(content, rules)
    out = []
    for i, outcome, n_local in entries:
        n = mult * n_local
        try:
            rate = rate_of(rules[i].rate, content, outcome, n)
        except RateEvaluationError as e:
            raise SimulationError(
                f"rule {rules[i].id} at {path}: {e}",
                rule_id=rules[i].id,
                path=path,
                code=e.code,
            ) from e
        if rate > 0:
            out.append(
                Transition(
                    rule_id=rules[i].id,
                    path=path,
                    outcome_local=outcome,
                    n=n,
                    rate=rate,
                    rule_index=i,
                    n_local=n_local,
                    multiplicity=mult,
                )
            )
    return out


def _walk_transitions(content, rules, path, mult, cache, out):
    out.extend(_local_transitions(content, rules, path, mult, cache))
    for i, el, cnt in content.compartments():
        _walk_transitions(el.content, rules, path + ((i, 0),), mult * cnt, cache, out)


def enumerate_transitions(state: Term, rules) -> list:
    """Full recomputation: every enabled transition in canonical pre-order."""
    out: list = []
    _walk_transitions(state, tuple(rules), (), 1, None, out)
    return out


def incremental_retransitions(
    prev: list,
    applied: Transition,
    next_state: Term,
    rules,
    *,
    prev_state: Term,
    cache: Optional[_LevelCache] = None,
) -> list:
    """The transition list after one applied transition: a walk of
    next_state through the level cache, so that only the levels the event
    changed are matched again.  prev, applied and prev_state are not read.

    Equals enumerate_transitions(next_state, rules) exactly.
    """
    out: list = []
    _walk_transitions(next_state, tuple(rules), (), 1, cache, out)
    return out


def step(state: Term, transitions: list, rng: Random):
    """One direct-method event: returns (dt, transition, next_state), or
    None when no transition is enabled (deadlock)."""
    if not transitions:
        return None
    total = fsum(t.rate for t in transitions)
    u1 = 1.0 - rng.random()  # in (0, 1]
    dt = -log(u1) / total
    target = rng.random() * total
    acc = 0.0
    chosen = transitions[-1]
    for t in transitions:
        acc += t.rate
        if target < acc:
            chosen = t
            break
    next_state = replace_at(state, chosen.path, chosen.outcome_local)
    return dt, chosen, next_state


def derive_seed(seed: int, replicate: int) -> int:
    """Deterministic independent stream seed for one replicate."""
    digest = hashlib.sha256(f"{seed}:{replicate}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _check_limits(state: Term, cfg: SimConfig, rule_id, path, time):
    if state.size > cfg.max_term_size:
        raise SimulationError(
            f"term size {state.size} exceeds limit {cfg.max_term_size}"
            + (f" (rule {rule_id})" if rule_id else ""),
            rule_id=rule_id,
            path=path,
            time=time,
            code="resource-limit-exceeded",
        )
    if state.depth > cfg.max_depth:
        raise SimulationError(
            f"term depth {state.depth} exceeds limit {cfg.max_depth}"
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

    cache = _LevelCache(rules)
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

    def cross_checked(s: Term, transitions: list) -> list:
        nonlocal failures
        if cfg.cross_check:
            full = enumerate_transitions(s, rules)
            if transitions != full:
                failures += 1
                return full
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
        transitions: list = []
        _walk_transitions(state, rules, (), 1, cache, transitions)
        transitions = cross_checked(state, transitions)
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
