"""The cwcsim layers the benchmark traces, and the per-layer metrics.

Layers are the modules on the run path: dsl, cli, engine, matching,
pattern, terms and rates.  Every target is looked up on the module whose
calls it should see: engine imports level_outcomes, rate_of, replace_at and
count_atom into its own namespace, so those are wrapped there; matching
calls level_matches and apply_subst through its own globals, which also
catches the recursive level_matches calls.
"""
from __future__ import annotations

from spans import Target

US = 1e-3  # microseconds per nanosecond


def _run_done(tracer, args, traj):
    tracer.counts["events"] += traj.events
    tracer.counts["final_size"] += traj.final_state.size
    tracer.counts["runs"] += 1
    tracer.results.append(traj)


def _retransitions_done(tracer, args, result):
    # A reused Transition is the very object of the previous list.
    previous = {id(t) for t in args[0]}
    tracer.counts["rebuilt"] += sum(1 for t in result if id(t) not in previous)
    tracer.counts["retransitions_out"] += len(result)


def _step_done(tracer, args, result):
    tracer.counts["step_transitions"] += len(args[1])


def _outcomes_done(tracer, args, result):
    tracer.counts["outcomes"] += len(result)


def _matches_done(tracer, args, result):
    if result:
        tracer.counts["matches_nonempty"] += 1


def targets(cwcsim) -> list:
    """Wrap points, resolved on an imported cwcsim package."""
    import cwcsim.cli as cli
    import cwcsim.engine as engine
    import cwcsim.matching as matching

    term = getattr(cwcsim, "Term", None)
    return [
        Target("cli.main", [(cli, "main")]),
        Target("cli.run_replicates", [(cli, "run_replicates")]),
        Target("dsl.parse_model", [(cwcsim, "parse_model"), (cli, "parse_model")]),
        Target("engine.run", [(cwcsim, "run"), (engine, "run")],
               hook=_run_done, new_run=True),
        Target("engine.step", [(engine, "step")], hook=_step_done),
        Target("engine.incremental_retransitions",
               [(engine, "incremental_retransitions")],
               hook=_retransitions_done, hook_span=True),
        Target("matching.level_outcomes", [(engine, "level_outcomes")],
               hook=_outcomes_done),
        Target("matching.level_matches", [(matching, "level_matches")],
               hook=_matches_done),
        Target("pattern.apply_subst", [(matching, "apply_subst")]),
        Target("terms.Term.__init__", [(term, "__init__")] if term else []),
        Target("terms.Term.subtract", [(term, "subtract")] if term else []),
        Target("terms.replace_at", [(engine, "replace_at")]),
        Target("terms.count_atom", [(engine, "count_atom")]),
        Target("rates.rate_of", [(engine, "rate_of")]),
    ]


def _hooked(span):
    return [span, span + ":hook"]


def _per_event(kind, span):
    return lambda p: p[kind][span] * (US if kind != "calls" else 1) / p["events"]


# (name, unit, span names and hooks it needs, value computed from the totals)
METRICS = [
    ("engine.incremental_retransitions.self_us_per_event", "us/event",
     ["engine.incremental_retransitions"],
     _per_event("own", "engine.incremental_retransitions")),
    ("engine.incremental_retransitions.rebuilt_per_event", "count/event",
     _hooked("engine.incremental_retransitions"),
     lambda p: p["counts"]["rebuilt"] / p["events"]),
    ("engine.incremental_retransitions.reuse_ratio", "ratio",
     _hooked("engine.incremental_retransitions"),
     lambda p: 1 - p["counts"]["rebuilt"] / p["counts"]["retransitions_out"]
     if p["counts"]["retransitions_out"] else 0.0),
    ("engine.step.self_us_per_event", "us/event", ["engine.step"],
     _per_event("own", "engine.step")),
    ("engine.step.transitions_per_event", "count/event", _hooked("engine.step"),
     lambda p: p["counts"]["step_transitions"] / p["events"]),
    ("engine.run.self_us_per_event", "us/event", ["engine.run"],
     _per_event("own", "engine.run")),
    ("engine.run_replicates.cpu_utilization", "ratio", [],
     lambda p: p["cpu_utilization"]),
    ("matching.level_outcomes.calls_per_event", "count/event",
     ["matching.level_outcomes"], _per_event("calls", "matching.level_outcomes")),
    ("matching.level_outcomes.outcomes_per_event", "count/event",
     _hooked("matching.level_outcomes"),
     lambda p: p["counts"]["outcomes"] / p["events"]),
    ("matching.level_outcomes.self_us_per_event", "us/event",
     ["matching.level_outcomes"], _per_event("own", "matching.level_outcomes")),
    ("matching.level_matches.calls_per_event", "count/event",
     ["matching.level_matches"], _per_event("calls", "matching.level_matches")),
    ("matching.level_matches.self_us_per_event", "us/event",
     ["matching.level_matches"], _per_event("own", "matching.level_matches")),
    ("matching.level_matches.nonempty_ratio", "ratio",
     _hooked("matching.level_matches"),
     lambda p: p["counts"]["matches_nonempty"] / p["calls"]["matching.level_matches"]
     if p["calls"]["matching.level_matches"] else 0.0),
    ("pattern.apply_subst.calls_per_event", "count/event",
     ["pattern.apply_subst"], _per_event("calls", "pattern.apply_subst")),
    ("pattern.apply_subst.self_us_per_event", "us/event",
     ["pattern.apply_subst"], _per_event("own", "pattern.apply_subst")),
    ("terms.Term.constructions_per_event", "count/event",
     ["terms.Term.__init__"], _per_event("calls", "terms.Term.__init__")),
    ("terms.Term.init_us_per_event", "us/event",
     ["terms.Term.__init__"], _per_event("own", "terms.Term.__init__")),
    ("terms.Term.subtract.self_us_per_event", "us/event",
     ["terms.Term.subtract"], _per_event("own", "terms.Term.subtract")),
    ("terms.replace_at.self_us_per_event", "us/event",
     ["terms.replace_at"], _per_event("own", "terms.replace_at")),
    ("terms.count_atom.us_per_event", "us/event",
     ["terms.count_atom"], _per_event("total", "terms.count_atom")),
    ("terms.state.final_size", "count", _hooked("engine.run"),
     lambda p: p["counts"]["final_size"] / p["counts"]["runs"]),
    ("rates.rate_of.calls_per_event", "count/event",
     ["rates.rate_of"], _per_event("calls", "rates.rate_of")),
    ("rates.rate_of.self_us_per_event", "us/event",
     ["rates.rate_of"], _per_event("own", "rates.rate_of")),
    ("dsl.parse_model.ms", "ms", ["dsl.parse_model"],
     lambda p: p["total"]["dsl.parse_model"] * 1e-6
     / p["calls"]["dsl.parse_model"]),
    ("cli.main.self_s", "s", ["cli.main"],
     lambda p: p["own"]["cli.main"] * 1e-9),
    ("trace.overhead_ratio", "ratio", [], lambda p: p["overhead_ratio"]),
    ("src.lines", "lines", [], lambda p: p["src_lines"]),
]


def metrics(tracer, extra: dict) -> dict:
    """Per-layer metrics of one traced run; extra holds cpu_utilization,
    overhead_ratio and src_lines, measured outside the trace."""
    calls, total, own = tracer.totals()
    per = dict(extra, calls=calls, total=total, own=own, counts=tracer.counts,
               events=tracer.counts["events"])
    out = {}
    for name, unit, needs, value in METRICS:
        if any(n in tracer.absent for n in needs) or not per["events"]:
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            out[name] = {"value": value(per), "unit": unit}
    return out
