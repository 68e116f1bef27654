"""The benchmark's outside-in trace still fits the program.

bench/layers.py wraps names of the cwcsim package and its hooks read the
shapes of their arguments and results.  A name that disappears or a shape
that changes makes the metrics built on it absent, and the benchmark then
cannot report them; this test catches that without running the benchmark.
"""
import math
import sys
from importlib import resources
from pathlib import Path

import cwcsim
from cwcsim import Model, SimConfig, cli, parse_model, run

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def test_every_traced_metric_is_present_and_finite(tmp_path):
    pho = resources.files("cwcsim") / "models" / "pho.cwc"
    mf = parse_model(pho.read_text(encoding="utf-8"))
    with Tracer() as tracer:
        tracer.install(layers.targets(cwcsim))
        traj = run(Model(mf.init, mf.rules, mf.observables), SimConfig(max_events=50))
        assert cli.main(["run", str(pho), "--jobs", "1", "--replicates", "1",
                         "--maxevents", "50", "--out-dir", str(tmp_path)]) == 0
    assert traj.events == 50
    assert tracer.absent == set()
    extra = {"cpu_utilization": 1.0, "overhead_ratio": 1.0, "src_lines": 1}
    for name, metric in layers.metrics(tracer, extra).items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
