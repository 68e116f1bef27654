"""Command-line front end.

    cwcsim validate model.cwc
    cwcsim transitions model.cwc [--json]
    cwcsim count model.cwc RULE [--oracle]
    cwcsim run model.cwc [--seed N] [--tmax T] [--sample DT]
               [--replicates N] [--maxevents N] [--override init-Pi=20]
               [--out-dir DIR] [--jobs N] [--cross-check]

Exit codes: 0 success, 1 model or validation failure (including an oracle
mismatch or a cross-check disagreement), 2 I/O or usage problem, 3 runtime
simulation error.  `count --oracle` checks every level within the oracle's
bounds; a level over them is printed without the oracle column, followed
by a line saying why the oracle skipped it, and does not fail the
command.

Run settings come, in order of precedence, from command-line flags, model
file directives, the CWC_SEED environment variable (seed only), and
SimConfig's defaults.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from pathlib import Path

from .dsl import ModelError, format_path, format_term, parse_model
from .engine import (
    Model,
    SimConfig,
    SimulationError,
    enumerate_transitions,
    run_replicates,
)
from .matching import outcome_terms
from .oracle import OracleLimitError, oracle_outcomes
from .terms import Atom, Term


class _Exit(Exception):
    def __init__(self, code: int):
        self.code = code


def _load_model(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        raise _Exit(2)
    try:
        return parse_model(text, source=path)
    except ModelError as e:
        for d in e.diagnostics:
            print(f"{path}:{d}", file=sys.stderr)
        raise _Exit(1)


def cmd_validate(args) -> int:
    model = _load_model(args.model)
    print(
        f"{args.model}: ok ({len(model.rules)} rules, "
        f"{len(model.observables)} observables)"
    )
    return 0


def cmd_transitions(args) -> int:
    model = _load_model(args.model)
    transitions = enumerate_transitions(model.init, model.rules)
    if args.json:
        payload = [
            {
                "rule": t.rule_id,
                "path": [i for i, _ in t.path],
                "multiplicity": t.multiplicity,
                "n": t.n,
                "rate": t.rate,
                "outcome": format_term(t.outcome_local),
            }
            for t in transitions
        ]
        print(json.dumps(payload, indent=2))
    else:
        for t in transitions:
            print(
                f"rule={t.rule_id} path={format_path(t.path)} "
                f"n={t.n} rate={t.rate!r} outcome={format_term(t.outcome_local)}"
            )
    return 0


def _levels(content: Term, path):
    """(path, content) of every level, congruent copies once, in pre-order."""
    yield path, content
    for i, el, _ in content.compartments():
        yield from _levels(el.content, path + ((i, 0),))


def cmd_count(args) -> int:
    model = _load_model(args.model)
    rule = next((r for r in model.rules if r.id == args.rule), None)
    if rule is None:
        print(f"error: unknown rule '{args.rule}'", file=sys.stderr)
        return 1
    mismatches = 0
    for path, content in _levels(model.init, ()):
        rows = outcome_terms(rule, content)
        expected = None
        if args.oracle:
            try:
                expected = dict(oracle_outcomes(rule, content))
            except OracleLimitError as e:
                skipped = f"path={format_path(path)} oracle skipped: {e}"
        for outcome, n in rows:
            line = (
                f"path={format_path(path)} n={n} "
                f"outcome={format_term(outcome)}"
            )
            if expected is not None:
                want = expected.get(outcome, 0)
                ok = want == n
                line += f" oracle={want} {'OK' if ok else 'MISMATCH'}"
                mismatches += 0 if ok else 1
            print(line)
        if expected is not None:
            total, want = sum(n for _, n in rows), sum(expected.values())
            ok = want == total
            print(
                f"path={format_path(path)} total={total} "
                f"oracle={want} {'OK' if ok else 'MISMATCH'}"
            )
            mismatches += 0 if ok else 1
        elif args.oracle:
            print(skipped)
    return 1 if mismatches else 0


_OVERRIDE_RE = re.compile(r"init-([A-Za-z][A-Za-z0-9_]*)=(\d+)\Z")


def _apply_overrides(init: Term, overrides, parser) -> Term:
    for spec in overrides or ():
        m = _OVERRIDE_RE.match(spec)
        if m is None:
            parser.error(f"bad --override {spec!r}, expected init-ATOM=COUNT")
        atom, n = Atom(m.group(1)), int(m.group(2))
        kept = [(el, k) for el, k in init.items
                if not (type(el) is Atom and el.name == atom.name)]
        init = Term(kept + [(atom, n)])
    return init


def _build_config(args, directives) -> SimConfig:
    """The run settings: each from its flag, else from the model's
    directive, else (the seed only) from CWC_SEED; SimConfig holds the
    default of every setting none of these set."""
    settings = {}
    for field, name in (("t_max", "tmax"), ("max_events", "maxevents"), ("seed", "seed"),
                        ("sample_dt", "sample"), ("replicates", "replicates")):
        value = getattr(args, name)
        value = getattr(directives, name) if value is None else value
        if value is not None:
            settings[field] = value
    env = os.environ.get("CWC_SEED")
    if "seed" not in settings and env is not None:
        try:
            settings["seed"] = int(env)
        except ValueError:
            print(f"error: CWC_SEED must be an integer, got {env!r}", file=sys.stderr)
            raise _Exit(2)
    try:
        return SimConfig(cross_check=args.cross_check, **settings)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        raise _Exit(1)


def _fmt_cell(x) -> str:
    return str(x) if isinstance(x, int) else repr(float(x))


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt_cell(x) for x in row) + "\n")


def _write_aggregate(path: Path, names, trajectories):
    """Mean and sample standard deviation per observable per grid point,
    over the grid prefix shared by every replicate."""
    rows = min(len(tr.times) for tr in trajectories)
    header = ["time"]
    for name in names:
        header += [f"{name}_mean", f"{name}_sd"]
    out = []
    k = len(trajectories)
    for i in range(rows):
        row = [trajectories[0].times[i]]
        for j in range(len(names)):
            xs = [tr.samples[i][j] for tr in trajectories]
            mean = math.fsum(xs) / k
            sd = (
                math.sqrt(math.fsum((x - mean) ** 2 for x in xs) / (k - 1))
                if k > 1
                else 0.0
            )
            row += [mean, sd]
        out.append(row)
    _write_csv(path, header, out)


def cmd_run(args, parser) -> int:
    model_file = _load_model(args.model)
    init = _apply_overrides(model_file.init, args.override, parser)
    cfg = _build_config(args, model_file.directives)
    model = Model(
        init=init, rules=model_file.rules, observables=model_file.observables
    )

    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    started = time.perf_counter()
    try:
        trajectories = run_replicates(model, cfg, jobs=jobs)
    except SimulationError as e:
        where = format_path(e.path) if e.path is not None else "?"
        when = e.time if e.time is not None else "?"
        print(f"error: {e} (rule={e.rule_id} path={where} time={when})", file=sys.stderr)
        return 3
    wall = time.perf_counter() - started

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        names = [o.name for o in model.observables]
        for i, tr in enumerate(trajectories):
            path = out_dir / f"rep_{i:03d}.csv"
            _write_csv(
                path,
                ["time"] + names,
                [(t,) + s for t, s in zip(tr.times, tr.samples)],
            )
            print(f"wrote {path} ({tr.status}, {tr.events} events)")
        agg = out_dir / "aggregate.csv"
        _write_aggregate(agg, names, trajectories)
        print(f"wrote {agg} ({len(trajectories)} replicates)")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    disagreed = False
    for i, tr in enumerate(trajectories):
        if tr.cross_check_failures:
            disagreed = True
            print(f"cross-check: {tr.cross_check_failures} disagreements "
                  f"in replicate {i}", file=sys.stderr)
    print(f"wall time: {wall:.3f} s")
    return 1 if disagreed else 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwcsim",
        description="Stochastic simulator for the calculus of wrapped compartments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a model file")
    p.add_argument("model")

    p = sub.add_parser("transitions", help="list the initial state's transitions")
    p.add_argument("model")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("count", help="match counts for one rule, per context")
    p.add_argument("model")
    p.add_argument("rule")
    p.add_argument("--oracle", action="store_true",
                   help="compare against the labeled-enumeration oracle")

    p = sub.add_parser("run", help="simulate and write CSV trajectories")
    p.add_argument("model")
    p.add_argument("--seed", type=int)
    p.add_argument("--tmax", type=float)
    p.add_argument("--sample", type=float)
    p.add_argument("--replicates", type=int)
    p.add_argument("--maxevents", type=int)
    p.add_argument("--override", action="append", metavar="init-ATOM=COUNT",
                   help="replace a top-level atom count in init")
    p.add_argument("--out-dir", default="cwc-out")
    p.add_argument("--jobs", type=int)
    p.add_argument("--cross-check", action="store_true",
                   help="check every step's cached propensity tree "
                   "against an uncached recomputation; disagreements are "
                   "reported on stderr and exit with status 1")
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "transitions":
            return cmd_transitions(args)
        if args.command == "count":
            return cmd_count(args)
        return cmd_run(args, parser)
    except _Exit as e:
        return e.code
    except SimulationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
