"""The exact message of every located defect the JSON readers report.

Each row changes one key of a valid document (or the whole document, at the
empty key path) and pins ``str()`` of the error it raises. The rows marked
"two defects" change two keys, so the first defect reported is pinned too.
"""

import contextlib
import io
import json

import pytest

import cloudcost
from cloudcost import assess, engine, pricing
from cloudcost.cli import main
from cloudcost.errors import AssessmentError, CatalogError, PlanError

from builders import DELETE, mutated

CATALOG = {
    "currency": "USD",
    "entries": [
        {"provider": "aws", "region": "us-east", "dimension": "vm_hours", "sku": "small",
         "pricing": {"flat": "0.10"}},
        {"provider": "aws", "region": "us-east", "dimension": "data_out_gb", "scope": "internet",
         "pricing": {"tiers": [{"upper_bound": 10, "unit_price": "0.15"},
                               {"upper_bound": "50", "unit_price": "0.12"},
                               {"upper_bound": None, "unit_price": "0.10"}]}},
    ],
    "skus": [
        {"provider": "aws", "region": "us-east", "name": "small", "purchase_options": [
            {"kind": "on_demand", "hourly_rate": "0.10"},
            {"kind": "reserved", "hourly_rate": "0.05", "term_months": 12,
             "upfront_fee": "100"}]},
    ],
}

PLAN = {"web-1": {"kind": "reserved", "term_months": 12}, "web-2": "on_demand",
        "web-3": {"kind": "on_demand"}}

PROVIDER_MAP = {"Nimbus": {"provider": "nimbus", "region": "us-east"},
                "Stratus": {"provider": "stratus", "region": "us-east"}}

ITEMS = {"items": [
    {"id": "B1", "kind": "benefit", "category": "financial", "statement": "cheaper",
     "references": ["r1"], "applies_to_private_cloud": True},
    {"id": "R1", "kind": "risk", "category": "legal", "statement": "data abroad",
     "mitigation": "contract", "indicators": "audit findings"},
]}


def catalog_message(doc, tmp_path):
    with pytest.raises(CatalogError) as exc:
        pricing.load_catalog(json.dumps(doc))
    return str(exc.value)


def plan_message(doc, tmp_path):
    with pytest.raises(PlanError) as exc:
        engine.load_plan(json.dumps(doc), "plan.json")
    return str(exc.value)


def items_message(doc, tmp_path):
    with pytest.raises(AssessmentError) as exc:
        assess.load_items(json.dumps(doc))
    return str(exc.value)


def map_message(doc, tmp_path):
    """The map is read by ``compare-providers`` alone: its stderr line, with
    the map file's path written ``{map}``."""
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["compare-providers", "--model", str(cloudcost.data_path("demo_model.json")),
                     "--catalog", str(cloudcost.data_path("demo_catalog.json")),
                     "--map", str(path), "--start", "2011-01", "--end", "2011-01"])
    assert code == 1
    text = err.getvalue()
    assert text.startswith("error: ") and text.endswith("\n") and text.count("\n") == 1
    return text[len("error: "):-1].replace(str(path), "{map}")


E0, E1 = ("entries", 0), ("entries", 1)
FLAT = (*E0, "pricing", "flat")
TIERS = (*E1, "pricing", "tiers")
OPTIONS = ("skus", 0, "purchase_options")

CATALOG_ROWS = [
    ([(("currency",), "")], "$.currency: expected a non-empty string"),
    ([(("currency",), 5)], "$.currency: expected a string, got int"),
    ([(("currency",), DELETE)], "$: missing required key(s): currency"),
    ([(("rates",), [])], "$: unknown key(s): rates"),
    ([(("entries",), {})], "$.entries: expected an array"),
    ([((), [])], "$: expected an object, got list"),
    ([((*E0, "provider"), 5)], "entries[0].provider: expected a string, got int"),
    ([((*E0, "region"), "us\0east")], "entries[0].region: string holds a NUL character"),
    ([((*E0, "dimension"), "gpu_hours")], "entries[0].dimension: unknown dimension 'gpu_hours'"),
    ([((*E0, "scope"), "internet")],
     "entries[0].scope: scope is only valid on transfer dimensions"),
    ([((*E1, "scope"), DELETE)],
     "entries[1].scope: transfer entries need a scope (internet, intra_region or "
     "inter_region), got None"),
    ([((*E0, "pricing", "tiers"), [])],
     "entries[0].pricing: exactly one of 'flat' or 'tiers' is required"),
    ([(FLAT, DELETE)], "entries[0].pricing: exactly one of 'flat' or 'tiers' is required"),
    ([((*E0, "pricing", "tier"), [])], "entries[0].pricing: unknown key(s): tier"),
    ([(FLAT, "-1")], "entries[0].pricing.flat: negative price"),
    ([(FLAT, 0.1)], "entries[0].pricing.flat: prices must be decimal strings, got 0.1"),
    ([(FLAT, "abc")], "entries[0].pricing.flat: invalid decimal 'abc'"),
    ([(FLAT, "NaN")], "entries[0].pricing.flat: price must be finite"),
    ([(TIERS, [])], "entries[1].pricing.tiers: expected a non-empty array"),
    ([(TIERS, "flat")], "entries[1].pricing.tiers: expected a non-empty array"),
    ([((*TIERS, 0), 10)], "entries[1].pricing.tiers[0]: expected an object, got int"),
    ([((*TIERS, 0, "unit_price"), DELETE)],
     "entries[1].pricing.tiers[0]: missing required key(s): unit_price"),
    ([((*TIERS, 0, "upper_bound"), True)],
     "entries[1].pricing.tiers[0].upper_bound: tier bounds must be integers, strings or null"),
    ([((*TIERS, 0, "upper_bound"), 10.5)],
     "entries[1].pricing.tiers[0].upper_bound: tier bounds must be integers, strings or null"),
    ([((*TIERS, 0, "upper_bound"), [10])],
     "entries[1].pricing.tiers[0].upper_bound: tier bounds must be integers, strings or null"),
    ([((*TIERS, 0, "upper_bound"), "1e")],
     "entries[1].pricing.tiers[0].upper_bound: invalid decimal '1e'"),
    ([((*TIERS, 0, "upper_bound"), "-Infinity")],
     "entries[1].pricing.tiers[0].upper_bound: tier bound must be finite"),
    ([((*TIERS, 0, "upper_bound"), 0)],
     "entries[1].pricing.tiers[0].upper_bound: must be positive"),
    ([((*TIERS, 1, "upper_bound"), "-5")],
     "entries[1].pricing.tiers[1].upper_bound: must be positive"),
    ([((*TIERS, 1, "upper_bound"), 10)],
     "entries[1].pricing.tiers[1]: bounds must be strictly increasing"),
    ([((*TIERS, 0, "upper_bound"), None)],
     "entries[1].pricing.tiers[1]: only the last tier may be unbounded"),
    ([((*TIERS, 2, "upper_bound"), 100)],
     "entries[1].pricing.tiers: the last tier must be unbounded (null)"),
    ([((*TIERS, 1, "unit_price"), "-0.01")],
     "entries[1].pricing.tiers[1].unit_price: negative price"),
    ([((*TIERS, 2, "unit_price"), "sNaN")],
     "entries[1].pricing.tiers[2].unit_price: price must be finite"),
    ([(E1, CATALOG["entries"][0])], "entries[1]: duplicate rate key aws/us-east/vm_hours/small"),
    ([(("skus",), 3)], "$.skus: expected an array"),
    ([(("skus", 0, "name"), ["small"])], "skus[0].name: expected a string, got list"),
    ([(OPTIONS, [])], "skus[0].purchase_options: expected a non-empty array"),
    ([(OPTIONS, {})], "skus[0].purchase_options: expected a non-empty array"),
    ([((*OPTIONS, 0, "hourly_rate"), "-1")],
     "skus[0].purchase_options[0].hourly_rate: negative price"),
    ([((*OPTIONS, 0, "hourly_rate"), 1)],
     "skus[0].purchase_options[0].hourly_rate: prices must be decimal strings, got 1"),
    ([((*OPTIONS, 0, "kind"), "spot")],
     "skus[0].purchase_options[0].kind: unknown purchase option kind 'spot'"),
    ([((*OPTIONS, 0, "term_months"), 12)],
     "skus[0].purchase_options[0]: on_demand options carry no term or upfront fee"),
    ([((*OPTIONS, 1, "term_months"), 0)],
     "skus[0].purchase_options[1].term_months: reserved options need a positive term"),
    ([((*OPTIONS, 1, "term_months"), True)],
     "skus[0].purchase_options[1].term_months: reserved options need a positive term"),
    ([((*OPTIONS, 1, "term_months"), DELETE)],
     "skus[0].purchase_options[1].term_months: reserved options need a positive term"),
    ([((*OPTIONS, 1, "upfront_fee"), DELETE)],
     "skus[0].purchase_options[1].upfront_fee: reserved options need an upfront fee"),
    ([((*OPTIONS, 1, "upfront_fee"), "-100")],
     "skus[0].purchase_options[1].upfront_fee: negative price"),
    ([((*OPTIONS, 0), CATALOG["skus"][0]["purchase_options"][1])],
     "skus[0]: at least one on_demand purchase option is required"),
    ([(("skus",), CATALOG["skus"] * 2)], "skus[1]: duplicate sku aws/us-east/small"),
    # two defects
    ([(FLAT, "-1"), (("skus", 0, "name"), 5)], "entries[0].pricing.flat: negative price"),
    ([((*TIERS, 0, "upper_bound"), None), ((*TIERS, 2, "unit_price"), "x")],
     "entries[1].pricing.tiers[2].unit_price: invalid decimal 'x'"),
    ([((*TIERS, 0, "upper_bound"), 0), ((*TIERS, 0, "unit_price"), "-1")],
     "entries[1].pricing.tiers[0].unit_price: negative price"),
    ([((*OPTIONS, 0, "kind"), "spot"), ((*OPTIONS, 0, "hourly_rate"), "-1")],
     "skus[0].purchase_options[0].hourly_rate: negative price"),
]

PLAN_ROWS = [
    ([((), [])], "plan file plan.json: expected an object of node choices"),
    ([(("web-2",), "reserved")], "plan for 'web-2': expected 'on_demand' or an object"),
    ([(("web-1", "kind"), "spot")], "plan for 'web-1': unknown purchase kind 'spot'"),
    ([(("web-1", "kind"), DELETE)], "plan for 'web-1': missing required key(s): kind"),
    ([(("web-1", "term"), 12)], "plan for 'web-1': unknown key(s): term"),
    ([(("web-1", "term_months"), 0)], "plan for 'web-1': term_months must be a positive integer"),
    ([(("web-1", "term_months"), "12")],
     "plan for 'web-1': term_months must be a positive integer"),
    ([(("web-3", "term_months"), 12)], "plan for 'web-3': on_demand choices carry no term"),
    # two defects
    ([(("web-1", "kind"), "spot"), (("web-2",), "reserved")],
     "plan for 'web-1': unknown purchase kind 'spot'"),
]

MAP_ROWS = [
    ([((), [])], "map file {map}: expected at least two entries label -> {provider, region}"),
    ([(("Stratus",), DELETE)],
     "map file {map}: expected at least two entries label -> {provider, region}"),
    ([(("Stratus",), "stratus")], "map entry 'Stratus': expected an object, got str"),
    ([(("Stratus", "zone"), "a")], "map entry 'Stratus': unknown key(s): zone"),
    ([(("Stratus", "region"), DELETE)], "map entry 'Stratus': missing required key(s): region"),
    ([(("Stratus", "region"), 5)], "map entry 'Stratus'.region: expected a string, got int"),
    ([(("Stratus", "provider"), "")], "map entry 'Stratus'.provider: expected a non-empty string"),
    # two defects
    ([(("Nimbus", "region"), ""), (("Stratus", "provider"), 5)],
     "map entry 'Nimbus'.region: expected a non-empty string"),
]

ITEM0, ITEM1 = ("items", 0), ("items", 1)

ITEMS_ROWS = [
    ([((), [])], "$: expected an object, got list"),
    ([(("items",), {})], "$.items: expected an array"),
    ([(("items",), DELETE)], "$: missing required key(s): items"),
    ([(("version",), 1)], "$: unknown key(s): version"),
    ([(ITEM0, "B1")], "items[0]: expected an object, got str"),
    ([((*ITEM0, "colour"), "red")], "items[0]: unknown key(s): colour"),
    ([((*ITEM0, "kind"), DELETE)], "items[0]: missing required key(s): kind"),
    ([((*ITEM0, "id"), "")], "items[0].id: expected a non-empty string"),
    ([((*ITEM0, "statement"), 5)], "items[0].statement: expected a string, got int"),
    ([((*ITEM0, "kind"), "gain")], "items[0].kind: unknown kind 'gain'"),
    ([((*ITEM0, "category"), "moral")], "items[0].category: unknown category 'moral'"),
    ([((*ITEM1, "id"), "B1")], "items[1].id: duplicate item id 'B1'"),
    ([((*ITEM0, "indicators"), "none")],
     "items[0]: benefits never carry mitigation or indicator text"),
    ([((*ITEM0, "references"), "r1")], "items[0].references: expected an array of strings"),
    ([((*ITEM0, "applies_to_private_cloud"), "yes")],
     "items[0].applies_to_private_cloud: expected a boolean"),
    # two defects
    ([((*ITEM0, "category"), "moral"), ((*ITEM1, "id"), "B1")],
     "items[0].category: unknown category 'moral'"),
    ([((*ITEM0, "mitigation"), "m"), ((*ITEM0, "references"), "r1")],
     "items[0]: benefits never carry mitigation or indicator text"),
]

TABLE = [(reader, valid, changes, message)
         for reader, valid, rows in ((catalog_message, CATALOG, CATALOG_ROWS),
                                     (plan_message, PLAN, PLAN_ROWS),
                                     (map_message, PROVIDER_MAP, MAP_ROWS),
                                     (items_message, ITEMS, ITEMS_ROWS))
         for changes, message in rows]


def test_the_documents_the_rows_change_are_valid(tmp_path):
    catalog = pricing.load_catalog(json.dumps(CATALOG))
    assert catalog.reserved["aws", "us-east", "small"] != ()
    assert set(engine.load_plan(json.dumps(PLAN), "plan.json")) == set(PLAN)
    assert [item.id for item in assess.load_items(json.dumps(ITEMS))] == ["B1", "R1"]
    (tmp_path / "map.json").write_text(json.dumps(PROVIDER_MAP))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["compare-providers", "--model", str(cloudcost.data_path("demo_model.json")),
                     "--catalog", str(cloudcost.data_path("demo_catalog.json")),
                     "--map", str(tmp_path / "map.json"),
                     "--start", "2011-01", "--end", "2011-01"]) == 0


@pytest.mark.parametrize("reader, valid, changes, message", TABLE,
                         ids=[f"{row[0].__name__.split('_')[0]}-{i}"
                              for i, row in enumerate(TABLE)])
def test_each_defect_reads_its_exact_message(tmp_path, reader, valid, changes, message):
    assert reader(mutated(valid, *changes), tmp_path) == message
