"""The benchmark's traced run wraps program callables by module and name.

A rename or deletion of any of them breaks ``bench/run.py --trace 1``; this
keeps that break inside the tier-1 suite.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cloudcost

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_wrapped_layer_call_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYER_CALLS
    for module_name, attr, _ in tracing.LAYER_CALLS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


# A traced one-month (2011-01) demo `simulate` in a fresh process; the
# caller appends what the script prints.
FRESH_RUN = """\
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import cloudcost.cli
tracer = tracing.Tracer()
cloudcost.cli.main(["simulate", "--model", sys.argv[2], "--catalog", sys.argv[3],
                    "--start", "2011-01", "--end", "2011-01", "--out", sys.argv[4]])
tracer.close()
"""

FRESH_TRACE = FRESH_RUN + """\
spans = tracer.spans
print(sum(parent >= 0 and spans[parent][0] == name for name, _, _, parent in spans))
"""

FRESH_COUNTS = FRESH_RUN + """\
print(tracer.counts["elasticity.days_walked"], tracer.counts["elasticity.series"])
"""


def fresh_traced_run(script, out):
    package = Path(cloudcost.__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", script, str(TRACING),
         str(package / "data" / "demo_model.json"),
         str(package / "data" / "demo_catalog.json"), str(out)],
        env={**os.environ, "PYTHONPATH": str(package.parent)},
        capture_output=True, text=True, check=True)
    return proc.stdout


def test_a_fresh_process_records_each_layer_call_once(tmp_path):
    # Commands import their modules lazily, so the tracer may import one
    # module after wrapping another; a by-name copy of a wrapped callable
    # would then be wrapped twice and record each call as two nested spans.
    assert fresh_traced_run(FRESH_TRACE, tmp_path) == "0\n"


def test_the_tracer_counts_each_replay_over_the_window_alone(tmp_path):
    # The tracer would read a third positional argument of monthly_series as
    # a usage start; the replay takes only a schedule and a window, so each
    # replay of the one-month window walks January's 31 days.
    days, series = map(int, fresh_traced_run(FRESH_COUNTS, tmp_path).split())
    assert series > 0
    assert days == 31 * series


# A fresh process that runs the command sys.argv[3:] under the tracer, after
# one untraced run when sys.argv[2] is "warm", and prints its cli.write spans,
# how many of them sit inside another cli.write span, and cli.write_bytes.
FRESH_WRITES = """\
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import cloudcost.cli
if sys.argv[2] == "warm":
    cloudcost.cli.main(sys.argv[3:])
tracer = tracing.Tracer()
cloudcost.cli.main(sys.argv[3:])
tracer.close()
spans = tracer.spans
writes = [parent for name, _, _, parent in spans if name == "cli.write"]
print(len(writes), sum(p >= 0 and spans[p][0] == "cli.write" for p in writes),
      tracer.counts["cli.write_bytes"])
"""


@pytest.mark.parametrize("start", ["cold", "warm"])
@pytest.mark.parametrize("command, written", [
    ("assess", ["important.json", "radar.json"]),
    ("compare-providers", ["comparison.json"]),
], ids=["assess", "compare-providers"])
def test_each_file_a_command_writes_is_one_write_span(tmp_path, command, written, start):
    # A handler outside cli.py that wrote through a by-name copy of
    # write_atomic, taken before the tracer wrapped it (as after a "warm" run),
    # would record no cli.write span and drop its bytes from cli.write_bytes.
    data = Path(cloudcost.__file__).resolve().parent / "data"
    out = tmp_path / "out"
    remap = tmp_path / "map.json"
    remap.write_text('{"A": {"provider": "nimbus", "region": "us-east"}, '
                     '"B": {"provider": "stratus", "region": "us-east"}}')
    argv = {
        "assess": ["assess", "--items", str(data / "assessment_items.json"),
                   "--ratings", str(data / "demo_ratings.csv")],
        "compare-providers": ["compare-providers", "--model", str(data / "demo_model.json"),
                              "--catalog", str(data / "demo_catalog.json"),
                              "--map", str(remap), "--start", "2011-01", "--end", "2011-01"],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_WRITES, str(TRACING), start, *argv, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(data.parents[1])},
        capture_output=True, text=True, check=True)
    files = sorted(out.iterdir())
    assert [path.name for path in files] == written
    size = sum(path.stat().st_size for path in files)
    assert proc.stdout.splitlines()[-1] == f"{len(files)} 0 {size}"
