"""Generated models replay over several years exactly as a day-by-day walk.

The benchmark's generator (``bench/synth.py``, loaded by path) mixes day
clauses, wrapped month ranges, compounding and stepped growth and a
clamping temp over hundreds of requirements. Each seed here is simulated
over 36 months that cross two year ends and the leap February of 2024, and
every series' monthly quantities must equal the day-loop oracle's bit for
bit, sign included, and the report's warnings the oracle's clamps, in order.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from cloudcost import engine, model as m
from cloudcost.months import Month, SimulationWindow
from cloudcost.patterns import parse_patterns
from cloudcost.pricing import load_catalog

from oracle import oracle_replay_months
from test_elasticity import clamp_events

SYNTH = Path(__file__).resolve().parents[1] / "bench" / "synth.py"
WINDOW = SimulationWindow(Month(2023, 7), Month(2026, 6))


def load_synth():
    spec = importlib.util.spec_from_file_location("bench_synth", SYNTH)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth


def bits(quantities):
    """Each quantity with its sign, so 0.0 and -0.0 differ."""
    return [(q, math.copysign(1.0, q)) for q in quantities]


def billed(doc):
    """(subject, kind, requirement document, the series' dimensions) of each
    billed requirement, in the order the engine replays them: node
    requirements in node order, then path volumes."""
    nodes = {node["id"]: node for node in doc["nodes"]}
    for node in doc["nodes"]:
        if "placement" in node:
            for req in node.get("requirements", []):
                yield node["id"], req["kind"], req, (req["kind"],)
    for path in doc["paths"]:
        ends = [("placement" in nodes[path["from_node"]], m.DATA_OUT_GB),
                ("placement" in nodes[path["to_node"]], m.DATA_IN_GB)]
        dimensions = tuple(kind for placed, kind in ends if placed)
        if dimensions:
            yield path["id"], path["volume"]["kind"], path["volume"], dimensions


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_generated_model_over_three_years_matches_the_oracle(seed):
    model_doc, catalog_doc, plan_doc = load_synth().generate(seed, 15)
    texts = {text for _, _, req, _ in billed(model_doc) for text in req.get("patterns", ())}
    assert any(" on " in text for text in texts)  # day clauses
    assert any(word in text for text in texts for word in ("nov-feb", "oct-mar", "sep-feb"))

    report = engine.simulate(m.parse_model(json.dumps(model_doc)),
                             load_catalog(json.dumps(catalog_doc)), WINDOW,
                             engine.load_plan(json.dumps(plan_doc), "plan.json"))
    quantities = {(item.subject, item.dimension): item.quantities for item in report.series}
    expected_warnings = []
    for subject, kind, req, dimensions in billed(model_doc):
        specs = [spec for text in req.get("patterns", ()) for spec in parse_patterns(text)]
        kind_class = "stock" if kind == m.STORAGE_GB else "flow"
        want, clamps = oracle_replay_months(kind_class, float(req["baseline"]), specs,
                                            tuple(WINDOW.start), tuple(WINDOW.end))
        for dimension in dimensions:
            assert bits(quantities.pop((subject, dimension))) == bits(want), (subject, dimension)
        expected_warnings += [(f"{subject}/{kind}", clamp) for clamp in clamps]
    assert all(dimension == engine.RESERVATION_UPFRONT for _, dimension in quantities)

    got_warnings = []
    for warning in report.warnings:
        prefix, message = warning.split(": ", 1)
        got_warnings += [(prefix, clamp) for clamp in clamp_events([message])]
    assert expected_warnings  # the clamping temp fires in every January
    assert got_warnings == expected_warnings
