"""Every record of the program is a ``collections.namedtuple``, or a subclass
of one: its fields and their defaults as pinned here, equal and hashed by its
fields within its type, read-only, copied and pickled whole, and the tuple of
its fields. No JSON payload carries one."""

import copy
import json
import pickle
from decimal import Decimal

import pytest

import cloudcost
from cloudcost import assess, elasticity as el, engine, errors, model as m, patterns as pt, pricing
from cloudcost.cli import main
from cloudcost.months import Month, SimulationWindow

ROW = engine.SummaryRow("demo", Decimal("1.00"), Decimal("1.50"), Decimal("2.50"), 2)
OPTION = pricing.PurchaseOption(Decimal("0.04"), 12, Decimal("100"))
ENTRY = engine.ComparisonEntry(ROW, True, None, Decimal("0.000000"))
SPEC = pt.PatternSpec("temp", 0b111000000, (0, 0b1100000), "/", 2.0,
                      "temp: every jun-aug on weekends /2")
TIER = pricing.Tier(Decimal("10"), Decimal("0.12"))
RATE = pricing.RateEntry("nimbus", "us-east", "vm_hours", "small", None, Decimal("0.085"))
REQUIREMENT = m.ResourceRequirement("vm_hours", 720.0, ("perm: every month +10",))
NODE = m.Node("web-1", "virtual_machine", m.Placement("nimbus", "us-east"),
              m.VmSpec("linux", "small"), None, (REQUIREMENT,))
WINDOW = SimulationWindow(Month(2011, 1), Month(2011, 3))
SERIES = engine.CostSeries("web-1", "web-1", "vm_hours", "hours", "g", "nimbus", "us-east",
                           None, (720.0, 744.0, 720.0), (Decimal("86.40"), Decimal("89.28"),
                                                         Decimal("86.40")))

# (type, every field in declaration order -> a value)
RECORDS = [
    (errors.Diagnostic, {"severity": "error", "path": "nodes[0]", "message": "bad"}),
    (m.Placement, {"provider": "nimbus", "region": "us-east"}),
    (m.VmSpec, {"operating_system": "linux", "sku": "small", "cpu_ghz": None, "ram_gb": None}),
    (m.StorageSpec, {"storage_type": "disk"}),
    (m.ArtifactItem, {"id": "app", "kind": "application", "label": "App"}),
    (m.DeploymentBinding, {"artifact_id": "app", "node_id": "web-1"}),
    (m.CommunicationPath, {"id": "p1", "from_node": "a", "to_node": "b",
                           "volume": m.ResourceRequirement("data_link_gb", 1.0)}),
    (m.Group, {"id": "g", "label": "front", "node_ids": ("web-1", "web-2")}),
    (engine.PlanChoice, {"kind": "reserved", "term_months": 12}),
    (engine.ComparisonEntry, {"row": ROW, "is_baseline": True, "difference": None,
                              "delta": Decimal("0.000000")}),
    (engine.ComparisonTable, {"entries": (ENTRY,), "baseline_label": "demo",
                              "warnings": ("tie",)}),
    (pricing.PurchaseOption, {"hourly_rate": Decimal("0.04"), "term_months": 12,
                              "upfront_fee": Decimal("100")}),
    (pricing.PriceCatalog, {"currency": "USD", "rates": {RATE.key: RATE},
                            "reserved": {("nimbus", "us-east", "small"): (OPTION,)},
                            "warnings": ("w",)}),
    (assess.AssessmentItem, {"id": "B1", "kind": "benefit", "category": "technical",
                             "statement": "s", "mitigation": None, "indicators": None,
                             "references": ("r",), "applies_to_private_cloud": True}),
    (assess.RatingSheet, {"respondent": "ann", "role_view": "cio",
                          "ratings": {"B1": 5, "R2": 3}}),
    (assess.CategoryAverage, {"kind": "benefit", "category": "technical", "average": 4.5,
                              "item_count": 2}),
    (pt.PatternSpec, {"mode": "temp", "months": 0b111000000, "days": (0, 0b1100000),
                      "op": "/", "operand": 2.0, "source": "temp: every jun-aug on weekends /2"}),
    (el.UsageSchedule, {"kind_class": "flow", "baseline": 720.0, "patterns": (SPEC,)}),
    (Month, {"year": 2011, "month": 1}),
    (SimulationWindow, {"start": Month(2011, 1), "end": Month(2011, 3)}),
    (pricing.Tier, {"upper_bound": Decimal("10"), "unit_price": Decimal("0.12")}),
    (pricing.RateEntry, {"provider": "nimbus", "region": "us-east", "dimension": "data_out_gb",
                         "sku": None, "scope": "internet", "flat_price": None,
                         "tiers": (TIER, pricing.Tier(None, Decimal("0.08")))}),
    (m.ResourceRequirement, {"kind": "vm_hours", "baseline": 720.0,
                             "patterns": ("perm: every month +10",)}),
    (m.Node, {"id": "web-1", "kind": "virtual_machine",
              "placement": m.Placement("nimbus", "us-east"),
              "vm_spec": m.VmSpec("linux", "small"), "storage_spec": None,
              "requirements": (REQUIREMENT,)}),
    (m.DeploymentModel, {"name": "demo", "nodes": (NODE,), "artifacts": (), "bindings": (),
                         "paths": (), "groups": (m.Group("g", "front", ("web-1",)),)}),
    (engine.CostLine, {"month": Month(2011, 1), "subject": "web-1", "node_id": "web-1",
                       "dimension": "vm_hours", "quantity": 720.0, "unit": "hours",
                       "cost": Decimal("86.40"), "group": "g", "provider": "nimbus",
                       "region": "us-east", "scope": None}),
    (engine.CostSeries, {"subject": "web-1", "node_id": "web-1", "dimension": "vm_hours",
                         "unit": "hours", "group": "g", "provider": "nimbus",
                         "region": "us-east", "scope": None, "quantities": (720.0, 744.0),
                         "costs": (Decimal("86.40"), None)}),
    (engine.CostReport, {"window": WINDOW, "series": (SERIES,), "warnings": ("w",),
                         "currency": "USD"}),
    (engine.SummaryRow, {"label": "demo", "first_month": Decimal("1.00"),
                         "monthly_avg": Decimal("1.50"), "total": Decimal("2.50"),
                         "months": 2}),
]
IDS = [kind.__name__ for kind, _ in RECORDS]
# Each record's field defaults; a record not named here has none
DEFAULTS = {
    m.VmSpec: {"sku": None, "cpu_ghz": None, "ram_gb": None},
    m.ArtifactItem: {"label": ""},
    m.Group: {"label": "", "node_ids": ()},
    engine.PlanChoice: {"kind": "on_demand", "term_months": None},
    engine.ComparisonTable: {"warnings": ()},
    pricing.PriceCatalog: {"warnings": ()},
    assess.AssessmentItem: {"mitigation": None, "indicators": None, "references": (),
                            "applies_to_private_cloud": False},
    assess.RatingSheet: {"respondent": "", "role_view": "", "ratings": None},
    pt.PatternSpec: {"source": ""},
    el.UsageSchedule: {"patterns": ()},
    pricing.RateEntry: {"sku": None, "scope": None, "flat_price": None, "tiers": ()},
    m.ResourceRequirement: {"patterns": ()},
    m.Node: {"placement": None, "vm_spec": None, "storage_spec": None, "requirements": ()},
    m.DeploymentModel: {"nodes": (), "artifacts": (), "bindings": (), "paths": (),
                        "groups": ()},
    engine.CostLine: {"scope": None},
    engine.CostReport: {"warnings": (), "currency": "USD"},
}
# A first field other than "other" where the construction check needs one
OTHER_FIRST = {el.UsageSchedule: "stock", Month: 2012, SimulationWindow: Month(2011, 2),
               engine.CostReport: SimulationWindow(Month(2011, 2), Month(2011, 4))}


@pytest.mark.parametrize("kind, fields", RECORDS, ids=IDS)
def test_fields_and_their_defaults(kind, fields):
    assert kind._fields == tuple(fields)
    assert kind._field_defaults == DEFAULTS.get(kind, {})
    assert list(kind._field_defaults) == list(fields)[len(fields) - len(kind._field_defaults):]


@pytest.mark.parametrize("kind, fields", RECORDS, ids=IDS)
def test_repr_names_every_field(kind, fields):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(kind(**fields)) == f"{kind.__name__}({shown})"


@pytest.mark.parametrize("kind, fields", RECORDS, ids=IDS)
def test_equality_and_hash_within_the_type(kind, fields):
    one, two = kind(**fields), kind(*fields.values())
    assert one == two and not one != two
    name = next(iter(fields))
    assert one != kind(**{**fields, name: OTHER_FIRST.get(kind, "other")})
    if kind in (assess.RatingSheet, pricing.PriceCatalog):  # they hold unhashable dicts
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two)


@pytest.mark.parametrize("kind, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(kind, fields):
    record = kind(**fields)
    with pytest.raises(AttributeError):
        setattr(record, next(iter(fields)), "other")
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == kind(**fields)


@pytest.mark.parametrize("kind, fields", RECORDS, ids=IDS)
def test_copy_and_pickle_give_an_equal_record_of_the_type(kind, fields):
    record = kind(**fields)
    for other in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(other) is kind and other == record


@pytest.mark.parametrize("kind, fields", RECORDS, ids=IDS)
def test_a_record_is_the_tuple_of_its_fields(kind, fields):
    # the intended differences README's "Library use" states
    record = kind(**fields)
    assert tuple(record) == tuple(fields.values()) == record
    assert len(record) == len(fields)


def test_a_model_refuses_every_attribute_write():
    demo = m.load_model(str(cloudcost.data_path("demo_model.json")))
    for name in ("name", "extra", "parsed_patterns", "_diagnostics"):
        with pytest.raises(AttributeError, match="a DeploymentModel is read-only"):
            setattr(demo, name, None)
        with pytest.raises(AttributeError, match="a DeploymentModel is read-only"):
            delattr(demo, name)
    assert demo.name == "digital-library" and m.validate(demo) == []


def test_a_copied_model_equals_it_and_keeps_its_findings(monkeypatch):
    walked = []
    findings = m._findings
    monkeypatch.setattr(m, "_findings", lambda model: walked.append(model) or findings(model))
    demo = m.load_model(str(cloudcost.data_path("demo_model.json")))
    for other in (copy.copy(demo), copy.deepcopy(demo), pickle.loads(pickle.dumps(demo))):
        assert type(other) is m.DeploymentModel and other == demo
        assert m.validate(other) == m.validate(demo) == []
        assert other.parsed_patterns == demo.parsed_patterns
    assert walked == [demo]


def test_rating_sheet_keeps_its_own_dict():
    ratings = {"B1": 5}
    sheet = assess.RatingSheet("ann", "cio", ratings)
    ratings["B1"] = 1
    assert sheet.ratings == {"B1": 5} and type(sheet.ratings) is dict
    assert sheet._replace(ratings=ratings).ratings is not ratings
    assert assess.RatingSheet().ratings == {}
    assert type(pickle.loads(pickle.dumps(sheet)).ratings) is dict


def _records_in(value, path="$"):
    """Paths of every tuple inside a value handed to ``json.dumps``; a
    record there would be written as a bare list."""
    if isinstance(value, tuple):
        yield path
    if isinstance(value, dict):
        for key, member in value.items():
            yield from _records_in(member, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, member in enumerate(value):
            yield from _records_in(member, f"{path}[{i}]")


def test_no_payload_handed_to_json_dumps_holds_a_record(tmp_path, monkeypatch):
    dumped = []
    real_dumps = json.dumps

    def dumps(value, *args, **kwargs):
        dumped.append(value)
        return real_dumps(value, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)
    demo = str(cloudcost.data_path("demo_model.json"))
    catalog = ("--catalog", str(cloudcost.data_path("demo_catalog.json")))
    window = ("--start", "2011-01", "--end", "2011-03")
    remap = tmp_path / "map.json"
    remap.write_text(real_dumps({"A": {"provider": "nimbus", "region": "us-east"},
                                 "B": {"provider": "stratus", "region": "us-east"}}))
    commands = [
        ["simulate", "--model", demo, *catalog, *window, "--out", str(tmp_path / "sim")],
        ["compare", "--models", f"{demo},{demo}", *catalog, *window,
         "--out", str(tmp_path / "cmp")],
        ["compare-providers", "--model", demo, *catalog, *window, "--map", str(remap),
         "--out", str(tmp_path / "prov")],
        ["assess", "--items", str(cloudcost.data_path("assessment_items.json")),
         "--ratings", str(cloudcost.data_path("demo_ratings.csv")),
         "--out", str(tmp_path / "assess")],
    ]
    for argv in commands:
        assert main(argv) == 0
    assert len(dumped) == 5  # summary, 2 comparisons, radar, important
    assert [path for value in dumped for path in _records_in(value)] == []
