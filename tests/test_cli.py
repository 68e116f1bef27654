"""Command-line interface: exit codes, output formats, CSV files."""
import dataclasses
import filecmp
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cwcsim.cli as cli
import cwcsim.engine as engine
from cwcsim.cli import main
from cwcsim.terms import MAX_DEPTH

DEATH = (
    "init a * 10\n"
    "rule death: a => * @ 0.5\n"
    "observe live: a in top\n"
    "tmax 4\n"
)

MEMBRANE = (
    "init a (b b | c) (b | c)\n"
    "rule join: a (b ~x | $X) $Y -> (a b ~x | $X) $Y @ 1\n"
)


@pytest.fixture
def write(tmp_path):
    def _write(text, name="model.cwc"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return _write


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("CWC_SEED", raising=False)


def test_validate_ok(write, capsys):
    path = write(DEATH)
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == f"{path}: ok (1 rules, 1 observables)"


def test_validate_reports_diagnostics(write, capsys):
    path = write("init a\nrule r: a $X $X -> a $X @ 1\n")
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert f"{path}:2:14:" in err and "more than once" in err


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.cwc")]) == 2
    assert "error:" in capsys.readouterr().err


def test_transitions_text(write, capsys):
    path = write("init a (m | a)\nrule r: a => b @ 2\n")
    assert main(["transitions", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "rule=r path=top n=1 rate=2.0 outcome=b (m | a)",
        "rule=r path=1 n=1 rate=2.0 outcome=b",
    ]


def test_transitions_json(write, capsys):
    path = write("init a (m | a) (m | a)\nrule r: a => b @ 2\n")
    assert main(["transitions", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [
        {"rule": "r", "path": [], "multiplicity": 1, "n": 1, "rate": 2.0,
         "outcome": "b (m | a) (m | a)"},
        {"rule": "r", "path": [1], "multiplicity": 2, "n": 2, "rate": 4.0,
         "outcome": "b"},
    ]


def test_count_with_oracle_agrees(write, capsys):
    path = write(MEMBRANE)
    assert main(["count", path, "join", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "n=2" in out and "n=1" in out
    assert "total=3 oracle=3 OK" in out
    assert "MISMATCH" not in out


PINNED = (
    "init a a b (m | a a b c) (m | a (b | c)) (m | a (b | c))\n"
    "rule flat: a a => a c @ 1\n"
    "rule join: a (m ~x | $X) $Y -> (a m ~x | $X) $Y @ 1\n"
    "rule pair: (m ~u | a $x) (m ~v | a $y) $z -> (m ~u | b $x) (m ~v | b $y) $z @ fn(n * n)\n"
    "rule ground: a (b | c) $X -> $X @ 1\n"
)


@pytest.mark.parametrize("rule, want", [
    ("flat", "path=top n=1 outcome=a b c (m | a (b | c)) (m | a (b | c)) (m | a a b c) oracle=1 OK\n"
             "path=top total=1 oracle=1 OK\n"
             "path=2 total=0 oracle=0 OK\n"
             "path=2/1 total=0 oracle=0 OK\n"
             "path=3 n=1 outcome=a b c c oracle=1 OK\n"
             "path=3 total=1 oracle=1 OK\n"),
    ("join", "path=top n=4 outcome=a b (a m | a (b | c)) (m | a (b | c)) (m | a a b c) oracle=4 OK\n"
             "path=top n=2 outcome=a b (a m | a a b c) (m | a (b | c)) (m | a (b | c)) oracle=2 OK\n"
             "path=top total=6 oracle=6 OK\n"
             "path=2 total=0 oracle=0 OK\n"
             "path=2/1 total=0 oracle=0 OK\n"
             "path=3 total=0 oracle=0 OK\n"),
    ("pair", "path=top n=8 outcome=a a b (m | a b b c) (m | a (b | c)) (m | b (b | c)) oracle=8 OK\n"
             "path=top n=2 outcome=a a b (m | a a b c) (m | b (b | c)) (m | b (b | c)) oracle=2 OK\n"
             "path=top total=10 oracle=10 OK\n"
             "path=2 total=0 oracle=0 OK\n"
             "path=2/1 total=0 oracle=0 OK\n"
             "path=3 total=0 oracle=0 OK\n"),
    ("ground", "path=top total=0 oracle=0 OK\n"
               "path=2 n=1 outcome=* oracle=1 OK\n"
               "path=2 total=1 oracle=1 OK\n"
               "path=2/1 total=0 oracle=0 OK\n"
               "path=3 total=0 oracle=0 OK\n"),
])
def test_count_with_oracle_output_is_pinned(write, capsys, rule, want):
    assert main(["count", write(PINNED), rule, "--oracle"]) == 0
    assert capsys.readouterr().out == want


def test_count_reports_congruent_copies_once(write, capsys):
    path = write("init a (b | c (d | e)) (b | c (d | e))\nrule r: c => d @ 1\n")
    assert main(["count", path, "r", "--oracle"]) == 0
    totals = [line.split(" oracle=")[0] for line in capsys.readouterr().out.splitlines()
              if "total=" in line]
    assert totals == ["path=top total=0", "path=1 total=1", "path=1/1 total=0"]


def test_count_unknown_rule(write, capsys):
    path = write(MEMBRANE)
    assert main(["count", path, "nope"]) == 1
    assert "unknown rule" in capsys.readouterr().err


def test_count_detects_injected_fault(write, capsys, monkeypatch):
    # simulate a broken counter: the oracle must flag it and fail the command
    monkeypatch.setattr(cli, "oracle_outcomes", lambda rule, content: [])
    path = write(MEMBRANE)
    assert main(["count", path, "join", "--oracle"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_count_oracle_skips_a_level_over_its_bounds(write, capsys):
    # the top level is over the atom bound, the compartment's is checked
    path = write("init a * 30 (m | a a)\nrule r: a $X -> $X @ 1\n")
    assert main(["count", path, "r", "--oracle"]) == 0
    assert capsys.readouterr().out == (
        "path=top n=30 outcome=a a a a a a a a a a a a a a a a a a a a a a a a a a a a a"
        " (m | a a)\n"
        "path=top oracle skipped: state has more than 18 atom occurrences\n"
        "path=1 n=2 outcome=a oracle=2 OK\n"
        "path=1 total=2 oracle=2 OK\n"
    )


def test_count_oracle_fails_on_a_mismatch_at_a_checked_level(write, capsys, monkeypatch):
    real = cli.oracle_outcomes

    def broken(rule, content):  # wrong on the top level, unless over a bound
        right = real(rule, content)
        return [] if content.depth else right

    monkeypatch.setattr(cli, "oracle_outcomes", broken)
    path = write("init a * 30 (m | a a)\nrule r: a $X -> $X @ 1\n")
    assert main(["count", path, "r", "--oracle"]) == 0
    path = write("init a a (m | a a)\nrule r: a $X -> $X @ 1\n")
    assert main(["count", path, "r", "--oracle"]) == 1
    assert "path=top total=2 oracle=0 MISMATCH" in capsys.readouterr().out


BUNDLED = Path(cli.__file__).parent / "models"


@pytest.mark.parametrize("rule", ["in1", "bind", "express"])
def test_count_oracle_checks_the_levels_of_bundled_pho_it_can(capsys, rule):
    # the init's top level (20 Pi) and the cell's (20 sensors) are over the
    # atom bound; the cytoplasm is checked
    assert main(["count", str(BUNDLED / "pho.cwc"), rule, "--oracle"]) == 0
    out = capsys.readouterr().out.splitlines()
    skipped = [line for line in out if "oracle skipped" in line]
    assert skipped == [
        "path=top oracle skipped: state has more than 18 atom occurrences",
        "path=1 oracle skipped: state has more than 18 atom occurrences",
    ]
    assert out[-1].startswith("path=1/0 total=") and out[-1].endswith(" OK")
    # without --oracle, the same levels and outcomes
    assert main(["count", str(BUNDLED / "pho.cwc"), rule]) == 0
    plain = capsys.readouterr().out.splitlines()
    assert plain == [line.split(" oracle=")[0] for line in out
                     if "total=" not in line and "skipped" not in line]


def test_run_writes_replicate_and_aggregate_csv(write, tmp_path, capsys):
    path = write(DEATH)
    out = tmp_path / "out"
    assert main(["run", path, "--seed", "3", "--out-dir", str(out)]) == 0
    rep = out / "rep_000.csv"
    agg = out / "aggregate.csv"
    assert rep.exists() and agg.exists()
    lines = rep.read_text().splitlines()
    assert lines[0] == "time,live"
    assert lines[1] == "0.0,10"
    assert len(lines) == 6  # header + grid points 0..4
    assert agg.read_text().splitlines()[0] == "time,live_mean,live_sd"
    stdout = capsys.readouterr().out
    assert "wrote" in stdout and "wall time" in stdout


def test_run_replicates_and_aggregate_shape(write, tmp_path):
    path = write(DEATH + "replicates 3\n")
    out = tmp_path / "out"
    assert main(["run", path, "--out-dir", str(out), "--jobs", "2"]) == 0
    assert sorted(p.name for p in out.glob("rep_*.csv")) == [
        "rep_000.csv", "rep_001.csv", "rep_002.csv",
    ]
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 6
    t, mean, sd = agg[1].split(",")
    assert (t, mean, sd) == ("0.0", "10.0", "0.0")


def test_parallel_replicates_return_deep_final_states(write, tmp_path):
    # 8 of these 30 final states are deeper than 98, which pickle once
    # could not send back from a worker
    path = write(
        "init a\nrule stop: a => b @ 0.01\nrule grow: a => (m | a) @ 1\n"
        "tmax 100000\nsample 1000\n"
    )
    args = ["run", path, "--seed", "1", "--replicates", "30"]
    assert main(args + ["--jobs", "2", "--out-dir", str(tmp_path / "two")]) == 0
    assert main(args + ["--jobs", "1", "--out-dir", str(tmp_path / "one")]) == 0
    written = sorted(p.name for p in (tmp_path / "two").iterdir())
    assert len(written) == 31
    for name in written:
        assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "two" / name, shallow=False)


def test_run_is_deterministic_per_seed(write, tmp_path):
    path = write(DEATH)
    a, b, c = (tmp_path / d for d in ("a", "b", "c"))
    assert main(["run", path, "--seed", "9", "--out-dir", str(a)]) == 0
    assert main(["run", path, "--seed", "9", "--out-dir", str(b)]) == 0
    assert main(["run", path, "--seed", "7", "--out-dir", str(c)]) == 0
    assert filecmp.cmp(a / "rep_000.csv", b / "rep_000.csv", shallow=False)
    assert (a / "rep_000.csv").read_text() != (c / "rep_000.csv").read_text()


def test_seed_precedence(write, tmp_path, monkeypatch):
    seeded = write(DEATH + "seed 5\n", "seeded.cwc")
    plain = write(DEATH, "plain.cwc")

    def run_csv(args, sub):
        out = tmp_path / sub
        assert main(["run"] + args + ["--out-dir", str(out)]) == 0
        return (out / "rep_000.csv").read_text()

    # flag beats file directive
    assert run_csv([seeded, "--seed", "7"], "s1") == run_csv([plain, "--seed", "7"], "s2")
    # file directive beats environment
    monkeypatch.setenv("CWC_SEED", "9")
    assert run_csv([seeded], "s3") == run_csv([plain, "--seed", "5"], "s4")
    # environment beats the default
    assert run_csv([plain], "s5") == run_csv([plain, "--seed", "9"], "s6")
    monkeypatch.delenv("CWC_SEED")
    assert run_csv([plain], "s7") == run_csv([plain, "--seed", "0"], "s8")


def test_unset_settings_take_simconfig_defaults(write, tmp_path, monkeypatch):
    @dataclasses.dataclass(frozen=True)
    class Config(engine.SimConfig):
        sample_dt: float = 0.5
        replicates: int = 3

    monkeypatch.setattr(cli, "SimConfig", Config)
    out = tmp_path / "o"
    assert main(["run", write(DEATH), "--jobs", "1", "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "aggregate.csv", "rep_000.csv", "rep_001.csv", "rep_002.csv"]
    times = [row.split(",")[0] for row in (out / "rep_000.csv").read_text().splitlines()[1:]]
    assert times == ["0.0", "0.5", "1.0", "1.5", "2.0", "2.5", "3.0", "3.5", "4.0"]


@pytest.mark.parametrize("command, depth", [("validate", 1200), ("run", 400)])
def test_too_deep_init_is_a_model_error(write, tmp_path, capsys, command, depth):
    path = write("init " + "(m | " * depth + "a" + ")" * depth + "\ntmax 1\n")
    args = [command, path] + (["--out-dir", str(tmp_path / "o")] if command == "run" else [])
    assert main(args) == 1
    assert capsys.readouterr().err == (
        f"{path}:1:{6 + 5 * MAX_DEPTH}: compartments nest more than {MAX_DEPTH} deep\n")


def test_too_deep_rate_expression_is_a_model_error(write, capsys):
    path = write("init a\nrule r: a => b @ fn(" + "(" * 400 + "1" + ")" * 400 + ")\n")
    assert main(["validate", path]) == 1
    assert capsys.readouterr().err == (
        f"{path}:2:{21 + MAX_DEPTH}: parentheses nest more than {MAX_DEPTH} deep\n")


def test_long_rate_expression_is_a_model_error(write, capsys):
    # fn(n + n + ... + n) used to parse and then escape as RecursionError
    # when the rule was rated
    path = write("init a\nrule r: a => b @ fn(" + " + ".join(["n"] * 3000) + ")\n")
    assert main(["transitions", path]) == 1
    assert capsys.readouterr().err == (
        f"{path}:2:{23 + 4 * MAX_DEPTH}: rate expression has more than {MAX_DEPTH} operators\n")


def test_rate_error_at_listing_exits_3_naming_the_rule(write, capsys):
    path = write("init a\nrule broken: a => b @ fn(1 / (n - 1))\n")
    assert main(["transitions", path]) == 3
    assert capsys.readouterr().err == (
        "error: rule broken at (): division by zero in (1.0 / (n - 1.0))\n")


def test_bad_env_seed(write, tmp_path, monkeypatch, capsys):
    path = write(DEATH)
    monkeypatch.setenv("CWC_SEED", "ten")
    assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 2
    assert "CWC_SEED" in capsys.readouterr().err


def test_override_replaces_top_level_count(write, tmp_path):
    path = write(DEATH)
    out = tmp_path / "o"
    assert main(["run", path, "--override", "init-a=3", "--out-dir", str(out)]) == 0
    assert (out / "rep_000.csv").read_text().splitlines()[1] == "0.0,3"
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--override", "a=3", "--out-dir", str(out)])
    assert exc.value.code == 2


def test_run_reports_cross_check_disagreements(write, tmp_path, capsys, monkeypatch):
    path = write(DEATH + "replicates 2\n")
    args = ["run", path, "--cross-check", "--jobs", "1", "--out-dir", str(tmp_path / "o")]
    assert main(args) == 0
    assert "cross-check" not in capsys.readouterr().err
    # an uncached reference that finds nothing disagrees with every store
    monkeypatch.setattr(engine, "enumerate_transitions", lambda state, rules: [])
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out.count("wrote ") == 3
    assert re.fullmatch(
        r"cross-check: [1-9]\d* disagreements in replicate 0\n"
        r"cross-check: [1-9]\d* disagreements in replicate 1\n", err)


def test_jobs_below_one_is_a_usage_error(write, tmp_path, capsys):
    path = write(DEATH)
    for replicates in ("1", "2"):
        with pytest.raises(SystemExit) as exc:
            main(["run", path, "--replicates", replicates, "--jobs", "0",
                  "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err


def test_runtime_error_exit_code(write, tmp_path, capsys):
    path = write("init a\nrule r: a => a @ fn(1 / count_l(b))\ntmax 5\n")
    assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "rule=r" in err and "division" in err and "time=0.0" in err


@pytest.mark.parametrize("init, rule", [
    ("(m | a) (m | a c)", "(m ~u | a $x) => (m ~u | b $x) @ 1e308"),
    ("(m | a) (n | a)", "a => b @ 1e308"),
])
def test_overflowing_rate_exit_code(write, tmp_path, capsys, init, rule):
    path = write(f"init {init}\nrule r: {rule}\ntmax 5\n")
    assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "time=0.0" in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [["--tmax", "inf", "--maxevents", "5"], ["--sample", "inf"]])
def test_sample_grid_that_is_not_finite_is_config_error(write, tmp_path, capsys, flags):
    path = write(DEATH)
    assert main(["run", path, "--out-dir", str(tmp_path / "o")] + flags) == 1
    assert "sample grid must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_horizon_is_config_error(write, tmp_path, capsys):
    path = write("init a\nrule r: a => a @ 1\n")
    assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 1
    assert "horizon" in capsys.readouterr().err


def test_importing_loads_no_process_pool():
    code = ("import sys, cwcsim, cwcsim.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_module_entry_point(write):
    path = write(DEATH)
    proc = subprocess.run(
        [sys.executable, "-m", "cwcsim", "validate", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and ": ok" in proc.stdout
