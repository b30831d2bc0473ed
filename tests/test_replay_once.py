"""A command replays each distinct usage schedule once, plans each distinct
pattern set once and builds each distinct day layout once.

Replay depends on a requirement's kind class, baseline and pattern texts,
not on its subject, placement or catalog, its month plan on the pattern
texts alone, and a month's day layout on its length and firing masks alone.
These tests count the calls into ``engine.monthly_series``,
``engine.month_plan`` and ``elasticity._day_layout`` and check that sharing a
replay changes neither the output bytes nor any subject's clamp warnings.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

import cloudcost
from cloudcost import elasticity, engine, model as m
from cloudcost.cli import main
from cloudcost.elasticity import UsageSchedule, monthly_series
from cloudcost.months import Month, SimulationWindow
from cloudcost.patterns import parse_patterns
from cloudcost.pricing import load_catalog

from oracle import oracle_replay
from test_elasticity import clamp_events
from test_engine import TRANSFER_CATALOG, vm

DEMO_MODEL = cloudcost.data_path("demo_model.json")
DEMO_CATALOG = str(cloudcost.data_path("demo_catalog.json"))
THREE_PROVIDERS = {
    "Nimbus": {"provider": "nimbus", "region": "us-east"},
    "Stratus": {"provider": "stratus", "region": "us-east"},
    "Cumulus": {"provider": "cumulus", "region": "us-east"},
}
# comparison.json of the three-provider map over 2011-01..2013-12, as written
# when every scenario replayed its own schedules
THREE_PROVIDERS_SHA256 = "89c0e5faac71e5174fa6deaf88bad372391dc7e68174e24cf73cd66007f1116e"


@pytest.fixture
def replays(monkeypatch):
    """Counter of monthly_series calls, by schedule."""
    calls = Counter()
    original = engine.monthly_series

    def counting(schedule, *args, **kwargs):
        calls[schedule] += 1
        return original(schedule, *args, **kwargs)

    monkeypatch.setattr(engine, "monthly_series", counting)
    return calls


@pytest.fixture
def plans(monkeypatch):
    """Counter of month_plan calls, by pattern specs."""
    calls = Counter()
    original = engine.month_plan

    def counting(patterns, window, layouts=None):
        calls[tuple(patterns)] += 1
        return original(patterns, window, layouts)

    monkeypatch.setattr(engine, "month_plan", counting)
    return calls


@pytest.fixture
def layouts(monkeypatch):
    """Counter of day-layout builds, by memo key."""
    calls = Counter()
    original = elasticity._day_layout

    def counting(*key):
        calls[key] += 1
        return original(*key)

    monkeypatch.setattr(elasticity, "_day_layout", counting)
    return calls


def distinct_schedules(doc):
    """(kind class, baseline, patterns) of every billed requirement of a model
    document; storage_gb is the one stock kind, every other kind a flow."""
    placed = {node["id"] for node in doc["nodes"] if "placement" in node}
    reqs = [req for node in doc["nodes"] if node["id"] in placed
            for req in node.get("requirements", [])]
    reqs += [path["volume"] for path in doc.get("paths", [])
             if {path["from_node"], path["to_node"]} & placed]
    return {("stock" if req["kind"] == "storage_gb" else "flow", float(req["baseline"]),
             tuple(req.get("patterns", ()))) for req in reqs}


def test_compare_providers_replays_each_distinct_schedule_once(tmp_path, replays):
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps(THREE_PROVIDERS))
    out = tmp_path / "out"
    assert main(["compare-providers", "--model", str(DEMO_MODEL), "--catalog", DEMO_CATALOG,
                 "--map", str(mapping), "--start", "2011-01", "--end", "2013-12",
                 "--out", str(out)]) == 0
    assert len(distinct_schedules(json.loads(DEMO_MODEL.read_text()))) == 12
    assert sum(replays.values()) == len(replays) == 12  # 26 series in each of 3 scenarios
    digest = hashlib.sha256((out / "comparison.json").read_bytes()).hexdigest()
    assert digest == THREE_PROVIDERS_SHA256


def test_simulate_replays_the_demo_decade_once_per_distinct_schedule(tmp_path, replays):
    assert main(["simulate", "--model", str(DEMO_MODEL), "--catalog", DEMO_CATALOG,
                 "--start", "2011-01", "--end", "2020-12", "--out", str(tmp_path)]) == 0
    assert sum(replays.values()) == len(replays) == 12


def test_the_demo_decade_builds_one_plan_per_distinct_pattern_set(tmp_path, replays, plans):
    assert main(["simulate", "--model", str(DEMO_MODEL), "--catalog", DEMO_CATALOG,
                 "--start", "2011-01", "--end", "2020-12", "--out", str(tmp_path)]) == 0
    assert sum(replays.values()) == 12
    assert sum(plans.values()) == len(plans) == 3


def test_compare_providers_builds_each_plan_once_across_its_scenarios(tmp_path, plans):
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps(THREE_PROVIDERS))
    assert main(["compare-providers", "--model", str(DEMO_MODEL), "--catalog", DEMO_CATALOG,
                 "--map", str(mapping), "--start", "2011-01", "--end", "2013-12"]) == 0
    assert sum(plans.values()) == len(plans) == 3  # not 3 per scenario


def test_each_simulate_builds_its_own_plans(plans):
    model = m.parse_model(DEMO_MODEL.read_text())
    catalog = load_catalog(Path(DEMO_CATALOG).read_text())
    window = SimulationWindow(Month(2011, 1), Month(2011, 12))
    first = engine.simulate(model, catalog, window)
    assert sum(plans.values()) == 3
    assert engine.simulate(model, catalog, window) == first
    assert sum(plans.values()) == len(plans) * 2 == 6


def test_the_demo_decade_builds_each_distinct_layout_once(tmp_path, plans, layouts):
    assert main(["simulate", "--model", str(DEMO_MODEL), "--catalog", DEMO_CATALOG,
                 "--start", "2011-01", "--end", "2020-12", "--out", str(tmp_path)]) == 0
    assert sum(layouts.values()) == len(layouts)
    assert 1 < len(layouts) < 120 * len(plans)  # months share their layouts


def test_compare_providers_builds_each_layout_once_across_its_scenarios(tmp_path, layouts):
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps(THREE_PROVIDERS))
    assert main(["compare-providers", "--model", str(DEMO_MODEL), "--catalog", DEMO_CATALOG,
                 "--map", str(mapping), "--start", "2011-01", "--end", "2013-12"]) == 0
    assert sum(layouts.values()) == len(layouts) > 1  # not once per scenario


def test_each_simulate_builds_its_own_layouts(layouts):
    model = m.parse_model(DEMO_MODEL.read_text())
    catalog = load_catalog(Path(DEMO_CATALOG).read_text())
    window = SimulationWindow(Month(2011, 1), Month(2011, 12))
    first = engine.simulate(model, catalog, window)
    built = dict(layouts)
    assert sum(built.values()) == len(built) > 1
    assert engine.simulate(model, catalog, window) == first
    assert layouts == {key: 2 for key in built}


def test_a_simulate_call_grows_no_module_attribute(layouts):
    # masks no other test makes, so a store kept between calls would grow
    texts = ("temp: every month on 3-17 *1.37", "perm: every month on 9 +1")
    model = m.DeploymentModel("fresh", (vm("a", patterns=texts),))
    window = SimulationWindow(Month(2031, 1), Month(2031, 12))

    def sizes():
        return {(module.__name__, name): len(value)
                for module in (elasticity, engine) for name, value in vars(module).items()
                if isinstance(value, (dict, list, set))}

    before = sizes()
    engine.simulate(model, TRANSFER_CATALOG, window)
    assert len(layouts) > 1
    assert sizes() == before


def test_a_replay_takes_the_schedule_and_window_positionally(monkeypatch):
    # bench/tracing.py reads a replay's schedule and window from its first
    # two positional arguments and any third one as a usage start; the plan
    # goes by keyword, and the schedule carries the requirement's own specs
    calls = []
    original = engine.monthly_series

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "monthly_series", recording)
    model = m.parse_model(DEMO_MODEL.read_text())
    window = SimulationWindow(Month(2011, 1), Month(2011, 3))
    engine.simulate(model, load_catalog(Path(DEMO_CATALOG).read_text()), window)
    assert calls and all(len(args) == 2 and args[1] == window and set(kwargs) == {"plan"}
                         for args, kwargs in calls)
    expected = {UsageSchedule(kind_class, baseline,
                              tuple(spec for text in texts for spec in parse_patterns(text)))
                for kind_class, baseline, texts in distinct_schedules(
                    json.loads(DEMO_MODEL.read_text()))}
    schedules = [args[0] for args, _ in calls]
    assert len(set(schedules)) == len(schedules) and set(schedules) == expected


def test_compare_replays_requirements_shared_by_models_once(tmp_path, replays):
    doc = json.loads(DEMO_MODEL.read_text())
    elastic = json.loads(DEMO_MODEL.read_text())
    elastic["name"] = "demo-elastic"
    for node in elastic["nodes"]:
        if node["id"].startswith("web-"):
            node["requirements"][0]["patterns"] = ["temp: every month on weekends /2"]
    paths = [tmp_path / "demo.json", tmp_path / "elastic.json"]
    for path, content in zip(paths, (doc, elastic)):
        path.write_text(json.dumps(content))
    window = ["--start", "2011-01", "--end", "2012-12"]
    assert main(["compare", "--models", ",".join(map(str, paths)), "--catalog", DEMO_CATALOG,
                 *window, "--out", str(tmp_path / "cmp")]) == 0
    shared = distinct_schedules(doc) | distinct_schedules(elastic)
    assert len(shared) == 13
    assert sum(replays.values()) == len(replays) == len(shared)

    rows = json.loads((tmp_path / "cmp" / "comparison.json").read_text())["rows"]
    for row, path in zip(rows, paths):  # each total is the one simulate prints alone
        out = tmp_path / path.stem
        assert main(["simulate", "--model", str(path), "--catalog", DEMO_CATALOG, *window,
                     "--out", str(out)]) == 0
        assert row["total"] == json.loads((out / "summary.json").read_text())["total"]


CLAMPING = "temp: every month on everyday -1000"


def test_every_subject_of_a_shared_replay_keeps_its_clamp_warnings(replays):
    path = m.CommunicationPath("ab", "a", "b",
                               m.ResourceRequirement(m.DATA_LINK_GB, 720.0, (CLAMPING,)))
    model = m.DeploymentModel("clamps", (vm("a", patterns=(CLAMPING,)),
                                         vm("b", patterns=(CLAMPING,))), paths=(path,))
    window = SimulationWindow(Month(2011, 1), Month(2011, 2))
    report = engine.simulate(model, TRANSFER_CATALOG, window)
    assert sum(replays.values()) == 1

    schedule = UsageSchedule("flow", 720.0, tuple(parse_patterns(CLAMPING)))
    expected, raw = [], []
    for subject, kind in (("a", m.VM_HOURS), ("b", m.VM_HOURS), ("ab", m.DATA_LINK_GB)):
        _, own = monthly_series(schedule, window)
        raw.append(own)
        expected += [f"{subject}/{kind}: {msg}" for msg in own]
    assert list(report.warnings) == expected
    assert len(expected) == 3 * 59

    _, clamps = oracle_replay("flow", 720.0, schedule.patterns, (2011, 1), (2011, 2))
    assert all(clamp_events(own) == clamps for own in raw)
