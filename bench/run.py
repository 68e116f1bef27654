#!/usr/bin/env python3
"""The cwcsim benchmark: end-to-end speed of trajectory ensembles, and
per-layer costs traced from outside the package.

    python3 bench/run.py                      # every workload, end to end
    python3 bench/run.py --workload pho_16cell --seed 3 --seconds 36 --trace 0
    python3 bench/run.py --workload macrophage_crowd --trace 1

Run from the root of a checkout; the program is imported from ./src, and
outputs, spans and result records go to ./.bench_out.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the lines before it give the environment, every metric with its
unit, and every output check.  Exit code 0 when every check passes, 1 when
one fails, 2 when the program cannot be found or run.

See bench/README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

from speed import SHARE, Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODELS = SRC / "cwcsim" / "models"

WORKLOADS = ("pho_ensemble", "pho_16cell", "macrophage_crowd")
SETUP_RUNS = 9

# One pho cell; PhoR+PhoRP (wrap) and PhoB+PhoBP (content) are 10 each.
PHO_CELL = "(pore | (PhoR*5 PhoRP*5 | PhoB*10 PhoGenes))"
MACROPHAGE = "(CD31 M | (lyso | lyticEnz) innerM)"
VIABLE = "(CD31 V N | innerL)"
APOPTOTIC = "(CD31 A N | innerA)"

# Work sizes.  pho_ensemble: replicates per phosphate level.  The serial
# workloads run replicate after replicate, each capped at `budget` events:
# one trajectory's cost depends on its random path by 15-20%, so many short
# trajectories make a steadier figure than a few long ones.  The first
# `traced` trajectories make the traced run.
PHO_ENSEMBLE = dict(replicates=4, jobs=2, levels=(5, 20), cross_check_events=300)
PHO_16CELL = dict(cells=16, pi=320, budget=200, traced=8, cross_check_events=40)
MACROPHAGE_CROWD = dict(
    macrophages=16, viable=24, apoptotic=24, tmax=20000,
    budget=200, traced=8, cross_check_events=40, rates_check_events=150,
)


class Unavailable(Exception):
    """The program under test cannot be imported from this checkout."""


def load_cwcsim():
    if not (SRC / "cwcsim" / "__init__.py").is_file():
        raise Unavailable(f"no cwcsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cwcsim
    import cwcsim.cli  # noqa: F401  (cli.main is an entry point)

    if SRC.resolve() not in Path(cwcsim.__file__).resolve().parents:
        raise Unavailable(f"cwcsim was imported from {cwcsim.__file__}, not {SRC}")
    return cwcsim


def derive_int(*parts) -> int:
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ---------------------------------------------------------------- inputs

KEYWORDS = {"init", "rule", "observe", "tmax", "sample", "seed", "replicates",
            "maxevents"}


def statements(text: str) -> list:
    """Split a model file into statements, dropping comments."""
    out = []
    for line in text.splitlines():
        code = line.split("#", 1)[0].rstrip()
        if not code:
            continue
        if not line[0].isspace() and code.split()[0] in KEYWORDS:
            out.append(code)
        else:
            out[-1] += "\n" + code
    return out


def derive_text(base: str, seed: int, init: str, *, fn_rates=False, tmax=None) -> str:
    """A bundled model with another init, its rules in a seed-drawn order
    (the same model, visited in another transition order), and optionally
    every mass-action rate `@ k` rewritten as the equivalent `@ fn(k * n)`."""
    stmts = statements(base)
    rules = [s for s in stmts if s.split()[0] == "rule"]
    Random(seed).shuffle(rules)
    if fn_rates:
        rules = [re.sub(r"@\s*([0-9.eE+-]+)\s*$", r"@ fn(\1 * n)", r) for r in rules]
    rest = [s for s in stmts if s.split()[0] not in ("init", "rule")]
    if tmax is not None:
        rest = [f"tmax {tmax}" if s.split()[0] == "tmax" else s for s in rest]
    return "\n".join([f"init {init}"] + rules + rest) + "\n"


# ---------------------------------------------------------------- checks

class Checks:
    def __init__(self):
        self.results = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.results.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)


def _is_compartment(el) -> bool:
    return hasattr(el, "wrap")


def _bag(pairs, name) -> int:
    return sum(n for a, n in pairs if a.name == name)


def atom_total(term, name: str) -> int:
    """Occurrences of an atom in every content and on every wrap."""
    total = 0
    for el, n in term.items:
        if _is_compartment(el):
            total += n * (_bag(el.wrap, name) + atom_total(el.content, name))
        elif el.name == name:
            total += n
    return total


def pho_conserved(state, cells: int, pi_total: int) -> str:
    """'' when every pho cell keeps its sensors and regulators and
    phosphate plus bound sensor is conserved; else what broke."""
    found = 0
    for el, n in state.items:
        if not (_is_compartment(el) and _bag(el.wrap, "pore")):
            continue
        found += n
        for inner, _ in el.content.items:
            if not _is_compartment(inner):
                continue
            if _bag(inner.wrap, "PhoR") + _bag(inner.wrap, "PhoRP") != 10:
                return "PhoR+PhoRP != 10 in a cell"
            top = [(a, k) for a, k in inner.content.items if not _is_compartment(a)]
            if _bag(top, "PhoB") + _bag(top, "PhoBP") != 10:
                return "PhoB+PhoBP != 10 in a cell"
    if found != cells:
        return f"{found} cells, expected {cells}"
    got = atom_total(state, "Pi") + atom_total(state, "PhoRP")
    if got != pi_total:
        return f"Pi+PhoRP = {got}, expected {pi_total}"
    return ""


def same_trajectory(a, b) -> bool:
    return (a.times, a.samples, a.final_state, a.events, a.status) == (
        b.times, b.samples, b.final_state, b.events, b.status)


# ---------------------------------------------------------------- metrics

def time_left(started: float, seconds: float, walls: list) -> bool:
    """Whether one more unit of work, as long as the mean so far, and the
    reference bursts that follow it end within `seconds` of `started`."""
    return (time.perf_counter() - started + statistics.fmean(walls) * (1 + SHARE)
            <= seconds)


def throughput(events: int, walls: list, speed: Speed) -> tuple:
    """events_per_s and wall_s over the measured units of work, in reference
    seconds (see speed.py), with the raw figures and the distribution of
    unit times for the record.

    Both are means over the whole measured period, not medians of units.
    On a shared 2-vCPU KVM guest, speed alternates between fast and slow
    phases that last seconds; a median jumps between them while a mean
    averages over them.  Slower drifts, over minutes, are what the
    reference bursts take out."""
    raw = math.fsum(walls)
    total = raw * speed.factor()
    record = {"units": len(walls), "unit_median_s": statistics.median(walls),
              "raw_events_per_s": events / raw, "raw_wall_s": raw / len(walls),
              "speed_factor": speed.factor(), "bursts": speed.bursts, "walls": walls}
    if len(walls) > 10:
        # the highest percentile with ten unit times above it
        record["unit_tail_pct"] = 100.0 * (len(walls) - 10) / len(walls)
        record["unit_tail_s"] = sorted(walls)[len(walls) - 11]
    return events / total, total / len(walls), record


def rss_mb(children: bool) -> float:
    """Peak RSS so far, read at the end of the timed period so that the
    output checks, which rerun parts of the workload, do not count."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


SETUP_CODE = """\
import sys, time
src, bench, text = sys.argv[1], sys.argv[2], sys.stdin.read()
sys.path.insert(0, bench)
from speed import REF_SECONDS, burst
sys.path.insert(0, src)
t0 = time.perf_counter()
import cwcsim
cwcsim.parse_model(text)
took = time.perf_counter() - t0
print(repr(took), repr(took * REF_SECONDS / burst()))
"""


def setup_seconds(text: str) -> tuple:
    """Median time to import cwcsim and parse the model, each time in a
    fresh interpreter, in reference seconds (scaled by a reference burst
    run in the same interpreter right after), and the raw times."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH)],
            input=text, capture_output=True, text=True, timeout=60, check=True,
        )
        took, ref = proc.stdout.strip().splitlines()[-1].split()
        raw.append(float(took))
        scaled.append(float(ref))
    return statistics.median(scaled), raw


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "cwcsim").rglob("*.py")))


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for p in sorted((SRC / "cwcsim").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            digest.update(str(p.relative_to(SRC)).encode())
            digest.update(p.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------- serial workloads

class Serial:
    """A workload of serial run() calls on a model derived from the seed."""

    def __init__(self, cwcsim, name: str, seed: int):
        self.cwcsim = cwcsim
        self.name = name
        text_seed = derive_int(name, "text", seed)
        if name == "pho_16cell":
            p = self.params = PHO_16CELL
            base = (MODELS / "pho.cwc").read_text(encoding="utf-8")
            init = f"Pi*{p['pi']} " + " ".join([PHO_CELL] * p["cells"])
            self.text = derive_text(base, text_seed, init)
            self.mass_action_text = None
        else:
            p = self.params = MACROPHAGE_CROWD
            base = (MODELS / "macrophage.cwc").read_text(encoding="utf-8")
            init = " ".join([MACROPHAGE] * p["macrophages"] + [VIABLE] * p["viable"]
                            + [APOPTOTIC] * p["apoptotic"])
            self.text = derive_text(base, text_seed, init, fn_rates=True, tmax=p["tmax"])
            self.mass_action_text = derive_text(base, text_seed, init, tmax=p["tmax"])
        self.cfg_seed = derive_int(name, "config", seed)

    def model(self, text=None):
        mf = self.cwcsim.parse_model(text or self.text)
        return mf, self.cwcsim.Model(mf.init, mf.rules, mf.observables)

    def config(self, mf, **kw):
        d = mf.directives
        kw.setdefault("max_events", self.params["budget"])
        return self.cwcsim.SimConfig(t_max=d.tmax, sample_dt=d.sample,
                                     seed=self.cfg_seed, **kw)

    def trajectories(self, model, cfg, indices):
        """Replicates `indices` in order, each with its wall time; None marks
        a replicate that raised."""
        out = []
        for i in indices:
            t0 = time.perf_counter()
            try:
                tr = self.cwcsim.run(model, cfg, i)
            except self.cwcsim.CwcError:
                tr = None
            out.append((tr, time.perf_counter() - t0))
        return out

    def check_outputs(self, trajs, mf, checks: Checks, label: str):
        p = self.params
        bad = [t for t in trajs
               if t is None or t.status != "event-cap" or t.events != p["budget"]]
        checks.add(f"{label}: every trajectory reached the event budget", not bad,
                   f"{len(bad)} did not")
        problems = {self.conservation(t.final_state, mf) for t in trajs if t}
        problems.discard("")
        checks.add(f"{label}: conservation on every final state", not problems,
                   "; ".join(sorted(problems)))

    def conservation(self, state, mf) -> str:
        if self.name == "pho_16cell":
            p = self.params
            return pho_conserved(state, p["cells"], p["pi"] + 5 * p["cells"])
        for atom in ("M", "N", "lyticEnz"):
            want = atom_total(mf.init, atom)
            got = atom_total(state, atom)
            if got != want:
                return f"{atom}: {got} != {want}"
        return ""

    def check_program(self, trajs, checks: Checks):
        """Checks that rerun the program: determinism, cross-check, rates."""
        cw = self.cwcsim
        mf, model = self.model()
        again = cw.run(model, self.config(mf), 0)
        checks.add("same seed gives the same trajectory",
                   trajs[0] is not None and same_trajectory(trajs[0], again))
        n = self.params["cross_check_events"]
        crossed = cw.run(model, self.config(mf, max_events=n, cross_check=True), 0)
        checks.add(f"cross_check over {n} events finds no disagreement",
                   crossed.cross_check_failures == 0 and crossed.events == n,
                   f"{crossed.cross_check_failures} failures")
        if self.mass_action_text:
            n = self.params["rates_check_events"]
            ma_mf, ma_model = self.model(self.mass_action_text)
            fn_tr = cw.run(model, self.config(mf, max_events=n, log_events=True), 0)
            ma_tr = cw.run(ma_model, self.config(ma_mf, max_events=n, log_events=True), 0)
            checks.add(f"fn(k * n) and @ k rates give one trajectory over {n} events",
                       same_trajectory(fn_tr, ma_tr) and fn_tr.event_log == ma_tr.event_log)

    def measure(self, seconds: float, checks: Checks):
        mf, model = self.model()
        cfg = self.config(mf)
        runs = []
        with Speed() as speed:
            started = time.perf_counter()
            while not runs or time_left(started, seconds, [w for _, w in runs]):
                runs += self.trajectories(model, cfg, [len(runs)])
                speed.keep_up(math.fsum(w for _, w in runs))
        peak = rss_mb(children=False)
        trajs = [t for t, _ in runs]
        self.check_outputs(trajs, mf, checks, f"{len(runs)} trajectories")
        self.check_program(trajs, checks)
        rate, wall, record = throughput(sum(t.events for t in trajs if t),
                                        [w for _, w in runs], speed)
        return ({"events_per_s": rate, "wall_s": wall, "peak_rss_mb": peak},
                len(runs), trajs.count(None), record)

    def trace(self, tracer_targets, checks: Checks):
        from spans import Tracer

        cw = self.cwcsim
        indices = range(self.params["traced"])
        mf, model = self.model()
        c0, t0 = time.process_time(), time.perf_counter()
        plain = [t for t, _ in self.trajectories(model, self.config(mf), indices)]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        with Tracer() as tracer:
            tracer.install(tracer_targets(cw))
            t0 = time.perf_counter()
            mf, model = self.model()
            traced = [t for t, _ in self.trajectories(model, self.config(mf), indices)]
            traced_wall = time.perf_counter() - t0
        checks.add("traced run reproduces the untraced trajectories",
                   all(a and b and same_trajectory(a, b) for a, b in zip(plain, traced)))
        self.check_outputs(plain, mf, checks, f"{len(plain)} trajectories")
        self.check_program(plain, checks)
        failed = (plain + traced).count(None)
        extra = {"cpu_utilization": cpu / wall, "overhead_ratio": traced_wall / wall}
        return tracer, extra, len(plain) + len(traced), failed


# ------------------------------------------------------------ pho_ensemble

WROTE = re.compile(r"wrote (?P<path>\S+) \((?P<status>[\w-]+), (?P<events>\d+) events\)")


class Ensemble:
    """The bundled pho.cwc run through `cwcsim run` at two phosphate levels."""

    name = "pho_ensemble"

    def __init__(self, cwcsim, seed: int):
        self.cwcsim = cwcsim
        self.seed = seed
        self.params = PHO_ENSEMBLE
        self.path = MODELS / "pho.cwc"
        self.text = self.path.read_text(encoding="utf-8")

    def cli_seed(self, rep: int) -> int:
        return derive_int(self.name, "config", self.seed, rep)

    def unit(self, rep: int, out_dir: Path, jobs: int, replicates=None,
             levels=None, between=None) -> dict:
        """One ensemble per phosphate level; returns wall time, events,
        failed replicates and the output directories.  between(seconds),
        if given, is called after each level with that level's wall time,
        which is all that the unit's wall time counts."""
        replicates = replicates or self.params["replicates"]
        events = failed = 0
        dirs, notes = {}, []
        wall = 0.0
        for level in levels or self.params["levels"]:
            t0 = time.perf_counter()
            d = out_dir / f"pi{level}"
            shutil.rmtree(d, ignore_errors=True)
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = self.cwcsim.cli.main([
                    "run", str(self.path), "--jobs", str(jobs),
                    "--replicates", str(replicates), "--override", f"init-Pi={level}",
                    "--seed", str(self.cli_seed(rep)), "--out-dir", str(d),
                ])
            took = time.perf_counter() - t0
            wall += took
            wrote = [m for m in map(WROTE.match, buf.getvalue().splitlines())
                     if m and "rep_" in m["path"]]
            ok = [m for m in wrote if m["status"] == "horizon-reached"]
            events += sum(int(m["events"]) for m in wrote)
            failed += replicates - len(ok)
            if code != 0 or len(ok) != replicates:
                notes.append(f"Pi={level}: exit {code} {err.getvalue().strip()}")
            dirs[level] = d
            if between:
                between(took)
        return {"wall": wall, "events": events,
                "failed": failed, "dirs": dirs, "notes": notes}

    def check_csvs(self, unit: dict, checks: Checks, label: str):
        problems = list(unit["notes"])
        for level, d in unit["dirs"].items():
            reps = [read_csv(p) for p in sorted(d.glob("rep_*.csv"))]
            for header, rows in reps:
                col = {h: i for i, h in enumerate(header)}
                for r in rows:
                    bound = r[col["periplasmic_Pi"]] + r[col["boundPhoR"]]
                    if r[col["PhoBP"]] > 10 or r[col["boundPhoR"]] > 10 or bound > level + 5:
                        problems.append(f"Pi={level}: sample out of bounds {r}")
                        break
            if not reps:
                problems.append(f"Pi={level}: no replicate CSVs")
                continue
            agg_header, agg_rows = read_csv(d / "aggregate.csv")
            problems += aggregate_problems(reps, agg_header, agg_rows, level)
        checks.add(f"{label}: replicate CSVs within bounds and aggregate.csv "
                   "is their mean and sample sd", not problems,
                   "; ".join(problems[:3]))

    def check_program(self, unit: dict, single: dict, checks: Checks):
        """`single` reran replicate 0 alone with --jobs 1; it and run() must
        give the ensemble's rep_000.csv again."""
        cw = self.cwcsim
        level = self.params["levels"][0]
        seed = self.cli_seed(0)
        first = unit["dirs"][level] / "rep_000.csv"
        checks.add("same seed gives the same rep_000.csv with --jobs 1 and one replicate",
                   (single["dirs"][level] / "rep_000.csv").read_bytes() == first.read_bytes())
        mf = cw.parse_model(self.text.replace("init Pi*20 ", f"init Pi*{level} "))
        model = cw.Model(mf.init, mf.rules, mf.observables)
        d = mf.directives
        tr = cw.run(model, cw.SimConfig(t_max=d.tmax, sample_dt=d.sample, seed=seed), 0)
        _, rows = read_csv(first)
        checks.add("run() reproduces the CLI's rep_000.csv",
                   rows == [(t,) + s for t, s in zip(tr.times, tr.samples)])
        problem = pho_conserved(tr.final_state, 1, level + 5)
        checks.add("pho conservation on the final state", not problem, problem)
        n = self.params["cross_check_events"]
        mf = cw.parse_model(self.text)
        model = cw.Model(mf.init, mf.rules, mf.observables)
        crossed = cw.run(model, cw.SimConfig(t_max=d.tmax, max_events=n, seed=seed,
                                             sample_dt=d.sample, cross_check=True), 0)
        checks.add(f"cross_check over {n} events finds no disagreement",
                   crossed.cross_check_failures == 0 and crossed.events == n,
                   f"{crossed.cross_check_failures} failures")

    def measure(self, seconds: float, checks: Checks):
        out = OUT / self.name
        units, walls = [], []
        with Speed(self.params["jobs"]) as speed:

            def between(wall):
                # bursts after every CLI call, not every ensemble, so that they
                # follow the machine's speed as closely as on the serial workloads
                walls.append(wall)
                speed.keep_up(math.fsum(walls))

            started = time.perf_counter()
            while not units or time_left(started, seconds, [u["wall"] for u in units]):
                rep = len(units)
                units.append(self.unit(rep, out / f"rep{rep}", jobs=self.params["jobs"],
                                       between=between))
        peak = rss_mb(children=True)
        for i, u in enumerate(units):
            self.check_csvs(u, checks, f"ensemble {i}")
        single = self.unit(0, out / "single", jobs=1, replicates=1,
                           levels=self.params["levels"][:1])
        self.check_program(units[0], single, checks)
        rate, wall, record = throughput(sum(u["events"] for u in units),
                                        [u["wall"] for u in units], speed)
        attempted = len(units) * self.params["replicates"] * len(self.params["levels"])
        return ({"events_per_s": rate, "wall_s": wall, "peak_rss_mb": peak},
                attempted, sum(u["failed"] for u in units), record)

    def trace(self, tracer_targets, checks: Checks):
        from spans import Tracer

        out = OUT / self.name
        with Tracer() as pool_tracer:
            pool_tracer.install([t for t in tracer_targets(self.cwcsim)
                                 if t.name == "cli.run_replicates"])
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            pooled = self.unit(0, out / "pooled", jobs=self.params["jobs"])
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
        child_cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        _, pool_wall, _ = pool_tracer.totals()
        pool_wall = pool_wall["cli.run_replicates"] * 1e-9
        plain = self.unit(0, out / "plain", jobs=1, replicates=1)
        with Tracer() as tracer:
            tracer.install(tracer_targets(self.cwcsim))
            traced = self.unit(0, out / "traced", jobs=1, replicates=1)
        levels = self.params["levels"]
        same = all(
            (plain["dirs"][lv] / f).read_bytes() == (traced["dirs"][lv] / f).read_bytes()
            for lv in levels for f in ("rep_000.csv", "aggregate.csv")
        )
        checks.add("traced run reproduces the untraced CSVs", same)
        self.check_csvs(pooled, checks, "--jobs 2 ensemble")
        self.check_csvs(traced, checks, "traced")
        # one replicate per level, run in level order
        problems = {pho_conserved(t.final_state, 1, levels[i] + 5)
                    for i, t in enumerate(tracer.results)} - {""}
        checks.add("pho per-cell conservation on every traced final state",
                   not problems, "; ".join(problems))
        self.check_program(pooled, plain, checks)
        extra = {
            "cpu_utilization": child_cpu / (self.params["jobs"] * pool_wall),
            "overhead_ratio": traced["wall"] / plain["wall"],
        }
        attempted = (self.params["replicates"] + 2) * len(levels)
        failed = pooled["failed"] + plain["failed"] + traced["failed"]
        return tracer, extra, attempted, failed


def read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [tuple(int(x) if re.fullmatch(r"-?\d+", x) else float(x)
                  for x in line.split(",")) for line in lines[1:]]
    return header, rows


def aggregate_problems(reps, agg_header, agg_rows, level) -> list:
    names = reps[0][0][1:]
    n_rows = min(len(rows) for _, rows in reps)
    if len(agg_rows) != n_rows:
        return [f"Pi={level}: aggregate has {len(agg_rows)} rows, expected {n_rows}"]
    for i, row in enumerate(agg_rows):
        got = dict(zip(agg_header, row))
        for j, name in enumerate(names, start=1):
            xs = [rows[i][j] for _, rows in reps]
            mean = statistics.fmean(xs)
            sd = statistics.stdev(xs) if len(xs) > 1 else 0.0
            if not (math.isclose(got[f"{name}_mean"], mean, rel_tol=1e-9, abs_tol=1e-9)
                    and math.isclose(got[f"{name}_sd"], sd, rel_tol=1e-9, abs_tol=1e-9)):
                return [f"Pi={level}: aggregate row {i} {name} differs"]
    return []


# ------------------------------------------------------------------ main

END_TO_END_UNITS = {"events_per_s": "1/s", "wall_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def run_workload(cwcsim, args) -> int:
    import layers

    checks = Checks()
    workload = (Ensemble(cwcsim, args.seed) if args.workload == "pho_ensemble"
                else Serial(cwcsim, args.workload, args.seed))
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    env = environment(args)
    print("# env " + json.dumps(env))
    record = {"env": env}
    if args.trace:
        tracer, extra, attempted, failed = workload.trace(layers.targets, checks)
        extra["src_lines"] = src_lines()
        metrics = layers.metrics(tracer, extra)
        tracer.write(out / "spans.tsv")
        record["spans"] = len(tracer.kind)
    else:
        setup, record["setup_raw_s"] = setup_seconds(workload.text)
        values, attempted, failed, record["runs"] = workload.measure(args.seconds, checks)
        values["setup_s"] = setup
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        runs = record["runs"]
        print(f"failed_ratio {failed / attempted!r} ({failed} of {attempted} replicates)")
        tail = (f", p{runs['unit_tail_pct']:.0f} {runs['unit_tail_s']!r} s"
                if "unit_tail_s" in runs else "")
        print(f"unit wall over {runs['units']} units: median "
              f"{runs['unit_median_s']!r} s{tail}")
        print(f"raw (unscaled) events_per_s {runs['raw_events_per_s']!r} 1/s, wall_s "
              f"{runs['raw_wall_s']!r} s, setup_s {statistics.median(record['setup_raw_s'])!r} s; "
              f"speed factor {runs['speed_factor']!r} over {len(runs['bursts'])} bursts")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, ok, detail in checks.results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f": {detail}"))
    result = {"correct": checks.ok and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record.update(result, checks=checks.results)
    (out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, so that peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cwcsim = load_cwcsim()
    except (Unavailable, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(cwcsim, args)


if __name__ == "__main__":
    sys.exit(main())
