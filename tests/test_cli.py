"""Command-line interface: exit codes, output formats, CSV files."""
import filecmp
import json
import re
import subprocess
import sys

import pytest

import cwcsim.cli as cli
import cwcsim.engine as engine
from cwcsim.cli import main

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
    monkeypatch.setattr(cli, "count_oracle", lambda rule, content, outcome: 999)
    path = write(MEMBRANE)
    assert main(["count", path, "join", "--oracle"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_count_oracle_respects_bounds(write, capsys):
    path = write("init a * 30\nrule r: a => * @ 1\n")
    assert main(["count", path, "r", "--oracle"]) == 3
    assert "error:" in capsys.readouterr().err


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
    assert "rule=r" in err and "division" in err


def test_missing_horizon_is_config_error(write, tmp_path, capsys):
    path = write("init a\nrule r: a => a @ 1\n")
    assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 1
    assert "horizon" in capsys.readouterr().err


def test_module_entry_point(write):
    path = write(DEATH)
    proc = subprocess.run(
        [sys.executable, "-m", "cwcsim", "validate", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and ": ok" in proc.stdout
