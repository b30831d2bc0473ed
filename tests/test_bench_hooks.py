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


FRESH_TRACE = """\
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import cloudcost.cli
tracer = tracing.Tracer()
cloudcost.cli.main(["simulate", "--model", sys.argv[2], "--catalog", sys.argv[3],
                    "--start", "2011-01", "--end", "2011-01", "--out", sys.argv[4]])
tracer.close()
spans = tracer.spans
print(sum(parent >= 0 and spans[parent][0] == name for name, _, _, parent in spans))
"""


def test_a_fresh_process_records_each_layer_call_once(tmp_path):
    # Commands import their modules lazily, so the tracer may import one
    # module after wrapping another; a by-name copy of a wrapped callable
    # would then be wrapped twice and record each call as two nested spans.
    package = Path(cloudcost.__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_TRACE, str(TRACING),
         str(package / "data" / "demo_model.json"),
         str(package / "data" / "demo_catalog.json"), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(package.parent)},
        capture_output=True, text=True, check=True)
    assert proc.stdout == "0\n"
