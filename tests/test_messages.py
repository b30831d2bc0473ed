"""The exact message of every located defect the JSON readers report.

Each row changes one key of a valid document (or the whole document, at the
empty key path) and pins ``str()`` of the error it raises. The rows marked
"two defects" change two keys, so the first defect reported is pinned too.
A model's validator reports every defect at once, so its rows pin one per
rule, and one model with many defects pins their sorted order.
"""

import contextlib
import io
import json

import pytest

import cloudcost
from cloudcost import assess, engine, model as m, pricing
from cloudcost.cli import main
from cloudcost.errors import AssessmentError, CatalogError, ModelError, PlanError
from cloudcost.months import Month, SimulationWindow

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


PLACED = {"provider": "aws", "region": "us-east"}
VM_NODE = {"id": "vm", "kind": "virtual_machine", "placement": dict(PLACED),
           "vm_spec": {"operating_system": "linux", "sku": "small"},
           "requirements": [{"kind": "vm_hours", "baseline": 720,
                             "patterns": ["perm: every month +1"]}]}
DISK_NODE = {"id": "disk", "kind": "virtual_storage", "placement": dict(PLACED),
             "storage_spec": {"storage_type": "block"},
             "requirements": [{"kind": "storage_gb", "baseline": 100}]}
USERS_NODE = {"id": "users", "kind": "remote_node"}
APP, DATA = {"id": "app", "kind": "application"}, {"id": "data", "kind": "data_set"}
OUT_PATH = {"id": "out", "from_node": "vm", "to_node": "users",
            "volume": {"kind": "data_link_gb", "baseline": 10}}
MODEL = {
    "name": "pins",
    "nodes": [VM_NODE, DISK_NODE, USERS_NODE],
    "artifacts": [APP, DATA],
    "bindings": [{"artifact_id": "app", "node_id": "vm"},
                 {"artifact_id": "data", "node_id": "disk"}],
    "paths": [OUT_PATH],
    "groups": [{"id": "front", "node_ids": ["vm"]}, {"id": "back", "node_ids": ["disk"]}],
}


def model_message(doc):
    """``str()`` of the ModelError a model raises: a document's from
    ``parse_model``, a model built in code (which can hold the node and
    artifact kinds the JSON reader rejects) from ``engine.simulate``."""
    with pytest.raises(ModelError) as exc:
        if isinstance(doc, m.DeploymentModel):
            engine.simulate(doc, pricing.load_catalog(json.dumps(CATALOG)),
                            SimulationWindow(Month(2011, 1), Month(2011, 1)))
        else:
            m.parse_model(json.dumps(doc))
    return str(exc.value)


VM, DISK, USERS = ("nodes", 0), ("nodes", 1), ("nodes", 2)
VM_REQ = (*VM, "requirements", 0)
INVALID = "model validation failed\n  error: "
REFUSED = "cannot simulate an invalid model\n  error: "

MODEL_ROWS = [
    ([(("nodes",), [VM_NODE, DISK_NODE, USERS_NODE, USERS_NODE])],
     INVALID + "nodes[3].id: duplicate node id 'users'"),
    ([((), m.DeploymentModel("pins", (m.Node("vm", "bogus", m.Placement("aws", "us-east")),)))],
     REFUSED + "nodes[0].kind: unknown node kind 'bogus'"),
    ([((*USERS, "placement"), PLACED)], INVALID + "nodes[2].placement: remote nodes carry no placement"),
    ([((*DISK, "placement"), DELETE)],
     INVALID + "nodes[1].placement: virtual_storage requires a placement"),
    ([((*VM, "placement", "provider"), "")],
     INVALID + "nodes[0].placement.provider: provider must be non-empty"),
    ([((*VM, "placement", "region"), "")],
     INVALID + "nodes[0].placement.region: region must be non-empty"),
    ([((*VM, "vm_spec"), DELETE)], INVALID + "nodes[0].vm_spec: virtual machines require a vm_spec"),
    ([((*VM, "vm_spec"), {"operating_system": "linux", "cpu_ghz": 2})],
     INVALID + "nodes[0].vm_spec: raw spec needs both cpu_ghz and ram_gb"),
    ([((*VM, "vm_spec", "cpu_ghz"), 2), ((*VM, "vm_spec", "ram_gb"), 4)],
     INVALID + "nodes[0].vm_spec: exactly one of sku or raw spec (cpu_ghz + ram_gb) is required"),
    ([((*DISK, "vm_spec"), VM_NODE["vm_spec"])],
     INVALID + "nodes[1].vm_spec: vm_spec is not allowed on a virtual_storage"),
    ([((*VM, "storage_spec"), DISK_NODE["storage_spec"])],
     INVALID + "nodes[0].storage_spec: storage_spec is not allowed on a virtual_machine"),
    ([((*VM, "requirements"), [{"kind": "vm_hours", "baseline": 720},
                               {"kind": "vm_hours", "baseline": 1}])],
     INVALID + "nodes[0].requirements[1].kind: duplicate requirement kind 'vm_hours' on node 'vm'"),
    ([((*VM_REQ, "kind"), "storage_gb")],
     INVALID + "nodes[0].requirements[0].kind: requirement kind 'storage_gb' is not legal on a "
               "virtual_machine"),
    ([((*VM_REQ, "baseline"), float("inf"))],
     INVALID + "nodes[0].requirements[0].baseline: baseline must be finite, got inf"),
    ([((*VM_REQ, "baseline"), -1)],
     INVALID + "nodes[0].requirements[0].baseline: baseline must be >= 0, got -1.0"),
    ([((*VM_REQ, "patterns", 0), "sometimes")],
     INVALID + "nodes[0].requirements[0].patterns[0]: unknown mode 'sometimes', expected 'temp' "
               "or 'perm' (column 1 of 'sometimes')"),
    ([(("artifacts",), [APP, DATA, DATA])], INVALID + "artifacts[2].id: duplicate artifact id 'data'"),
    ([((), m.DeploymentModel("pins", artifacts=(m.ArtifactItem("app", "weird"),)))],
     REFUSED + "artifacts[0].kind: unknown artifact kind 'weird'"),
    ([(("bindings", 0, "artifact_id"), "ghost")],
     INVALID + "bindings[0].artifact_id: binding references unknown artifact 'ghost'"),
    ([(("bindings", 0, "node_id"), "ghost")],
     INVALID + "bindings[0].node_id: binding references unknown node 'ghost'"),
    ([(("bindings", 0, "node_id"), "disk")],
     INVALID + "bindings[0]: application 'app' cannot be deployed on a virtual_storage"),
    ([(("paths",), [OUT_PATH, OUT_PATH])], INVALID + "paths[1].id: duplicate path id 'out'"),
    ([(("paths", 0, "id"), "vm")], INVALID + "paths[0].id: path id 'vm' collides with a node id"),
    ([(("paths", 0, "to_node"), "ghost")],
     INVALID + "paths[0].to_node: path references unknown node 'ghost'"),
    ([(("paths", 0, "volume", "kind"), "data_out_gb")],
     INVALID + "paths[0].volume.kind: path volume must have kind 'data_link_gb'"),
    ([(("groups", 1, "id"), "front")], INVALID + "groups[1].id: duplicate group id 'front'"),
    ([(("groups", 0, "node_ids"), ["ghost"])],
     INVALID + "groups[0].node_ids[0]: group references unknown node 'ghost'"),
    ([(("groups", 1, "node_ids"), ["disk", "vm"])],
     INVALID + "groups[1].node_ids[1]: node 'vm' already belongs to group 'front'"),
]

# Repeated ids: a binding sees a node id's first node and an artifact id's
# last artifact, so only "data" (last an application) fails to deploy.
# Messages at one path sort by text, and indexes as integers.
MANY_DEFECTS = mutated(MODEL, (("nodes",), [
    mutated(VM_NODE, (("requirements", 0, "patterns"),
                      ["perm: every month +1"] * 2 + ["x"] + ["perm: every month +1"] * 7 + ["y"])),
    mutated(DISK_NODE, (("id",), "vm"), (("requirements", 0, "baseline"), -1)),
    mutated(USERS_NODE, (("placement",), PLACED)),
    DISK_NODE,
]), (("artifacts",), [APP, DATA, {"id": "data", "kind": "application"}]), (("paths",), [
    OUT_PATH, mutated(OUT_PATH, (("id",), "vm"), (("to_node",), "ghost")),
    mutated(OUT_PATH, (("id",), "vm")),
]), (("groups", 1, "node_ids"), ["ghost", "disk", "vm"]), (("groups", 1, "id"), "front"))

MANY_DEFECTS_MESSAGE = "\n  error: ".join([
    "model validation failed",
    "artifacts[2].id: duplicate artifact id 'data'",
    "bindings[1]: application 'data' cannot be deployed on a virtual_storage",
    "groups[1].id: duplicate group id 'front'",
    "groups[1].node_ids[0]: group references unknown node 'ghost'",
    "groups[1].node_ids[2]: node 'vm' already belongs to group 'front'",
    "nodes[0].requirements[0].patterns[2]: unknown mode 'x', expected 'temp' or 'perm' "
    "(column 1 of 'x')",
    "nodes[0].requirements[0].patterns[10]: unknown mode 'y', expected 'temp' or 'perm' "
    "(column 1 of 'y')",
    "nodes[1].id: duplicate node id 'vm'",
    "nodes[1].requirements[0].baseline: baseline must be >= 0, got -1.0",
    "nodes[2].placement: remote nodes carry no placement",
    "paths[1].id: path id 'vm' collides with a node id",
    "paths[1].to_node: path references unknown node 'ghost'",
    "paths[2].id: duplicate path id 'vm'",
    "paths[2].id: path id 'vm' collides with a node id",
])


def test_the_model_the_rows_change_is_valid():
    assert m.validate(m.parse_model(json.dumps(MODEL))) == []


@pytest.mark.parametrize("changes, message", MODEL_ROWS,
                         ids=[f"model-{i}" for i in range(len(MODEL_ROWS))])
def test_each_validator_rule_reads_its_exact_message(changes, message):
    assert model_message(mutated(MODEL, *changes)) == message


def test_many_defects_read_in_path_order():
    assert model_message(MANY_DEFECTS) == MANY_DEFECTS_MESSAGE


def test_simulate_refuses_an_invalid_model_with_its_diagnostics():
    invalid = m.DeploymentModel("pins", (m.Node("vm", "bogus", m.Placement("aws", "us-east")),),
                                (m.ArtifactItem("app", "weird"),))
    with pytest.raises(ModelError) as exc:
        engine.simulate(invalid, pricing.load_catalog(json.dumps(CATALOG)),
                        SimulationWindow(Month(2011, 1), Month(2011, 1)))
    assert exc.value.args == ("cannot simulate an invalid model",)
    assert exc.value.diagnostics == m.validate(invalid) != []
