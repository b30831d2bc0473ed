"""The plain result records are NamedTuples; they keep the behaviour they had
as frozen dataclasses, and no JSON payload carries one."""

import copy
import json
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

import cloudcost
from cloudcost import assess, engine, errors, model as m, pricing
from cloudcost.cli import main

ROW = engine.SummaryRow("demo", Decimal("1.00"), Fraction(3, 2), Decimal("2.50"), 2)
AVERAGE = assess.CategoryAverage("benefit", "technical", 4.5, 2)
OPTION = pricing.PurchaseOption("reserved", Decimal("0.04"), 12, Decimal("100"))
ENTRY = engine.ComparisonEntry(ROW, True, None, Decimal("0.000000"))

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
    (pricing.PurchaseOption, {"kind": "reserved", "hourly_rate": Decimal("0.04"),
                              "term_months": 12, "upfront_fee": Decimal("100")}),
    (pricing.InstanceSku, {"provider": "nimbus", "region": "us-east", "name": "small",
                           "purchase_options": (OPTION,)}),
    (assess.AssessmentItem, {"id": "B1", "kind": "benefit", "category": "technical",
                             "statement": "s", "mitigation": None, "indicators": None,
                             "references": ("r",), "applies_to_private_cloud": True}),
    (assess.RatingSheet, {"respondent": "ann", "role_view": "cio",
                          "ratings": {"B1": 5, "R2": 3}}),
    (assess.CategoryAverage, {"kind": "benefit", "category": "technical", "average": 4.5,
                              "item_count": 2}),
    (assess.RadarData, {"benefits": (AVERAGE,), "risks": ()}),
]
IDS = [kind.__name__ for kind, _ in RECORDS]


@pytest.mark.parametrize("kind, fields", RECORDS, ids=IDS)
def test_repr_names_every_field(kind, fields):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(kind(**fields)) == f"{kind.__name__}({shown})"


@pytest.mark.parametrize("kind, fields", RECORDS, ids=IDS)
def test_equality_and_hash_within_the_type(kind, fields):
    one, two = kind(**fields), kind(*fields.values())
    assert one == two and not one != two
    name = next(iter(fields))
    assert one != kind(**{**fields, name: "other"})
    if kind is assess.RatingSheet:  # its ratings dict is unhashable, as before
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
    NamedTuple record there would be written as a bare list."""
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
