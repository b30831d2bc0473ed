import json
import re

import pytest

import cloudcost
from cloudcost import assess, model as m, pricing
from cloudcost.cli import main
from cloudcost.errors import AssessmentError, CatalogError, ModelError


def path_key(path):
    """A location path, split so that each ``[index]`` compares as an integer."""
    parts = re.split(r"\[([0-9]+)\]", path)
    return [int(part) if i % 2 else part for i, part in enumerate(parts)]


MINIMAL = """
{
  "name": "tiny",
  "nodes": [
    {"id": "web1", "kind": "virtual_machine",
     "placement": {"provider": "aws", "region": "us-east"},
     "vm_spec": {"operating_system": "linux", "sku": "standard.small"},
     "requirements": [{"kind": "vm_hours", "baseline": 720}]}
  ]
}
"""


def minimal_model():
    return m.parse_model(MINIMAL)


# reader, demo file, the keys that reach an object in it and its path, two of
# its required keys, the error text around "path: reason"
STRICT_OBJECTS = {
    "model": (m.parse_model, "demo_model.json", ("nodes", 0, "placement"), "nodes[0].placement",
              ("provider", "region"), "schema violation\n  error: {}"),
    "catalog": (pricing.load_catalog, "demo_catalog.json", ("entries", 0), "entries[0]",
                ("provider", "region"), "{}"),
    "items": (assess.load_items, "assessment_items.json", ("items", 0), "items[0]",
              ("category", "statement"), "{}"),
}


class TestParse:
    def test_minimal_model(self):
        parsed = minimal_model()
        assert len(parsed.nodes) == 1
        assert parsed.paths == ()
        assert parsed.nodes[0].vm_spec.sku == "standard.small"

    def test_syntax_error_reports_position(self):
        with pytest.raises(ModelError) as exc:
            m.parse_model("{ not json")
        assert "line 1" in str(exc.value)

    @pytest.mark.parametrize("read, error", [(m.parse_model, ModelError),
                                             (pricing.load_catalog, CatalogError),
                                             (assess.load_items, AssessmentError)])
    def test_syntax_error_in_text_names_line_and_column(self, read, error):
        with pytest.raises(error) as exc:
            read("{ not json")
        assert str(exc.value) == ("syntax error at line 1, column 3: "
                                  "Expecting property name enclosed in double quotes")

    @pytest.mark.parametrize("reader", STRICT_OBJECTS)
    @pytest.mark.parametrize("edit, reason", [
        ("unknown", "unknown key(s): alpha, zeta"),
        ("missing", "missing required key(s): {0}, {1}"),
        ("both", "unknown key(s): zeta"),
        ("list", "expected an object, got list"),
    ])
    def test_strict_object_messages(self, reader, edit, reason):
        read, name, keys, path, required, message = STRICT_OBJECTS[reader]
        holder = json.loads(cloudcost.data_path(name).read_text(encoding="utf-8"))
        doc = holder
        for key in keys[:-1]:
            holder = holder[key]
        obj = holder[keys[-1]]
        if edit == "unknown":
            obj.update(zeta=1, alpha=1)
        elif edit == "missing":
            del obj[required[1]], obj[required[0]]
        elif edit == "both":
            del obj[required[0]]
            obj["zeta"] = 1
        else:
            holder[keys[-1]] = []
        with pytest.raises((ModelError, CatalogError, AssessmentError)) as exc:
            read(json.dumps(doc))
        assert str(exc.value) == message.format(f"{path}: {reason.format(*required)}")

    def test_unknown_top_level_key(self):
        doc = json.loads(MINIMAL)
        doc["surprise"] = 1
        with pytest.raises(ModelError) as exc:
            m.parse_model(json.dumps(doc))
        assert "surprise" in str(exc.value)

    def test_unknown_node_kind(self):
        doc = json.loads(MINIMAL)
        doc["nodes"][0]["kind"] = "mainframe"
        with pytest.raises(ModelError) as exc:
            m.parse_model(json.dumps(doc))
        assert "mainframe" in str(exc.value)

    def test_dangling_binding_names_the_node(self):
        doc = json.loads(MINIMAL)
        doc["artifacts"] = [{"id": "app", "kind": "application"}]
        doc["bindings"] = [{"artifact_id": "app", "node_id": "web9"}]
        with pytest.raises(ModelError) as exc:
            m.parse_model(json.dumps(doc))
        assert "web9" in str(exc.value)

    def test_bad_pattern_text_rejected_with_path(self):
        doc = json.loads(MINIMAL)
        doc["nodes"][0]["requirements"][0]["patterns"] = ["perm: every month %5"]
        with pytest.raises(ModelError) as exc:
            m.parse_model(json.dumps(doc))
        assert "patterns[0]" in str(exc.value)

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    @pytest.mark.parametrize("where", ["node", "path"])
    def test_non_finite_baseline_rejected_with_path(self, where, token):
        doc = json.loads(MINIMAL)
        if where == "node":
            doc["nodes"][0]["requirements"][0]["baseline"] = "BASELINE"
            located = "nodes[0].requirements[0].baseline"
        else:
            doc["paths"] = [{"id": "loop", "from_node": "web1", "to_node": "web1",
                             "volume": {"kind": "data_link_gb", "baseline": "BASELINE"}}]
            located = "paths[0].volume.baseline"
        # json.loads accepts the bare NaN and Infinity tokens
        text = json.dumps(doc).replace('"BASELINE"', token)
        with pytest.raises(ModelError) as exc:
            m.parse_model(text)
        assert f"{located}: baseline must be finite" in str(exc.value)

    def test_digital_library_case(self, demo_model_text):
        parsed = m.parse_model(demo_model_text)
        vms = [n for n in parsed.nodes if n.kind == m.VIRTUAL_MACHINE]
        stores = [n for n in parsed.nodes if n.kind == m.VIRTUAL_STORAGE]
        assert len(vms) == 15
        primary = [r for n in stores for r in n.requirements if r.kind == m.STORAGE_GB]
        assert max(r.baseline for r in primary) == 2000
        assert m.validate(parsed) == []


def _demo_text(name=None, baseline=None):
    """The demo model's text with its name or its first baseline replaced;
    ``baseline`` is the raw JSON number literal."""
    doc = json.loads(cloudcost.data_path("demo_model.json").read_text())
    if name is not None:
        doc["name"] = name
    if baseline is not None:
        doc["nodes"][0]["requirements"][0]["baseline"] = "BASELINE"
    return json.dumps(doc).replace('"BASELINE"', str(baseline))


class TestUnrepresentableInput:
    """JSON that decodes, but holds a number no float can, a string no
    UTF-8 output can or a NUL: the loader's own error, never a traceback."""

    CASES = {
        "integer beyond float range": (
            _demo_text(baseline=10 ** 400),
            "nodes[0].requirements[0].baseline: number out of range"),
        "5000-digit integer literal": (
            _demo_text(baseline="1" * 5000),
            "number out of range: an integer literal of more than 4300 digits"),
        "lone surrogate": (
            _demo_text(name="\ud800x"),
            "name: string holds a lone surrogate, which no UTF-8 output can encode"),
        "NUL character": (
            _demo_text(name="demo\u0000"),
            "name: string holds a NUL character"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_parse_model_raises_a_located_model_error(self, case):
        text, located = self.CASES[case]
        with pytest.raises(ModelError) as exc:
            m.parse_model(text)
        assert located in str(exc.value)

    @pytest.mark.parametrize("case", CASES)
    def test_validate_and_simulate_exit_1(self, case, tmp_path, capsys):
        text, located = self.CASES[case]
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert located in err
        if case.endswith("literal"):
            assert err.startswith(f"{path}: ")
        assert main(["simulate", "--model", str(path),
                     "--catalog", str(cloudcost.data_path("demo_catalog.json")),
                     "--start", "2011-01", "--end", "2011-01",
                     "--out", str(tmp_path / "out")]) == 1
        assert located in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["Biblioth\u00e8que", "library \U0001F4DA"])
    def test_paired_surrogate_escapes_and_plain_unicode_are_kept(self, name):
        # json.dumps escapes both as \uXXXX; the astral one as a surrogate pair
        assert m.parse_model(_demo_text(name=name)).name == name


class TestValidate:
    def test_valid_model_has_no_diagnostics(self):
        assert m.validate(minimal_model()) == []

    def test_node_in_two_groups(self):
        parsed = minimal_model()
        bad = m.DeploymentModel(
            parsed.name, parsed.nodes, groups=(
                m.Group("a", "", ("web1",)),
                m.Group("b", "", ("web1",)),
            ))
        diags = m.validate(bad)
        assert len(diags) == 1
        assert diags[0].severity == "error"
        assert "already belongs" in diags[0].message

    def test_requirement_legality_table(self):
        # independent statement of which requirement kinds belong where
        expected_legal = {
            ("virtual_machine", "vm_hours"), ("virtual_machine", "data_in_gb"),
            ("virtual_machine", "data_out_gb"),
            ("hosted_database", "vm_hours"), ("hosted_database", "storage_gb"),
            ("hosted_database", "io_in_requests"), ("hosted_database", "io_out_requests"),
            ("hosted_database", "io_gb"), ("hosted_database", "data_in_gb"),
            ("hosted_database", "data_out_gb"),
            ("virtual_storage", "storage_gb"), ("virtual_storage", "io_in_requests"),
            ("virtual_storage", "io_out_requests"), ("virtual_storage", "io_gb"),
            ("virtual_storage", "data_in_gb"), ("virtual_storage", "data_out_gb"),
            ("remote_node", "data_in_gb"), ("remote_node", "data_out_gb"),
        }
        for node_kind in m.NODE_KINDS:
            for req_kind in m.REQUIREMENT_KINDS:
                node = _node_of_kind(node_kind, req_kind)
                diags = m.validate(m.DeploymentModel("legality", (node,)))
                illegal = [d for d in diags if "not legal" in d.message]
                if (node_kind, req_kind) in expected_legal:
                    assert not illegal, (node_kind, req_kind)
                else:
                    assert illegal, (node_kind, req_kind)

    def test_unknown_node_and_artifact_kinds_flagged(self):
        # the JSON reader rejects these kinds; a model built in code reaches validate
        nodes = (m.Node("x", "bogus", m.Placement("nimbus", "us-east")),
                 m.Node("s", m.VIRTUAL_STORAGE, m.Placement("nimbus", "us-east")))
        bad = m.DeploymentModel("t", nodes, (m.ArtifactItem("a1", "weird"),),
                                (m.DeploymentBinding("a1", "s"),))
        assert [(d.path, d.message) for d in m.validate(bad)] == [
            ("artifacts[0].kind", "unknown artifact kind 'weird'"),
            ("nodes[0].kind", "unknown node kind 'bogus'")]

    def test_storage_requirement_on_vm_flagged(self):
        node = _node_of_kind(m.VIRTUAL_MACHINE, m.STORAGE_GB)
        diags = m.validate(m.DeploymentModel("bad", (node,)))
        assert any("not legal" in d.message for d in diags)

    def test_vm_spec_requires_exactly_one_shape(self):
        both = m.Node("n", m.VIRTUAL_MACHINE, m.Placement("p", "r"),
                      m.VmSpec("linux", sku="s", cpu_ghz=2.0, ram_gb=4.0))
        neither = m.Node("n", m.VIRTUAL_MACHINE, m.Placement("p", "r"),
                         m.VmSpec("linux"))
        for node in (both, neither):
            diags = m.validate(m.DeploymentModel("x", (node,)))
            assert any("exactly one of" in d.message for d in diags)

    def test_remote_node_must_not_be_placed(self):
        node = m.Node("r", m.REMOTE_NODE, m.Placement("p", "r"))
        diags = m.validate(m.DeploymentModel("x", (node,)))
        assert any("no placement" in d.message for d in diags)

    def test_duplicate_requirement_kind_flagged(self):
        node = m.Node("n", m.VIRTUAL_MACHINE, m.Placement("p", "r"),
                      m.VmSpec("linux", sku="s"),
                      requirements=(m.ResourceRequirement(m.VM_HOURS, 1),
                                    m.ResourceRequirement(m.VM_HOURS, 2)))
        diags = m.validate(m.DeploymentModel("x", (node,)))
        assert any("duplicate requirement" in d.message for d in diags)

    def test_diagnostics_sorted_and_stable(self, demo_model_text):
        parsed = m.parse_model(demo_model_text)
        broken = m.DeploymentModel(
            parsed.name, parsed.nodes, parsed.artifacts,
            (m.DeploymentBinding("nope", "web9"),), parsed.paths, parsed.groups)
        first = m.validate(broken)
        second = m.validate(broken)
        assert first == second
        assert first == sorted(first, key=lambda d: (path_key(d.path), d.message))

    def test_indexes_sort_as_integers_within_each_section(self):
        placements = {1: m.Placement("", "r"), 10: m.Placement("p", "")}
        hours = tuple(m.ResourceRequirement(m.VM_HOURS, -1.0 if k in (2, 10) else 1.0)
                      for k in range(11))  # its repeated kinds are errors too, left out below
        nodes = tuple(m.Node(f"n{i}", m.VIRTUAL_MACHINE, placements.get(i, m.Placement("p", "r")),
                             m.VmSpec("linux", sku="s"), requirements=hours if i == 3 else ())
                      for i in range(11))
        paths = [d.path for d in m.validate(m.DeploymentModel("x", nodes))
                 if not d.path.endswith(".kind")]
        assert paths == ["nodes[1].placement.provider", "nodes[3].requirements[2].baseline",
                         "nodes[3].requirements[10].baseline", "nodes[10].placement.region"]


def _node_of_kind(node_kind, req_kind):
    placement = None if node_kind == m.REMOTE_NODE else m.Placement("p", "r")
    vm_spec = m.VmSpec("linux", sku="s") if node_kind == m.VIRTUAL_MACHINE else None
    return m.Node("n", node_kind, placement, vm_spec, None,
                  (m.ResourceRequirement(req_kind, 1.0),))


class TestValidateOnce:
    """A model's diagnostics are found once and handed out as copies."""

    def test_each_call_returns_an_independent_list(self):
        broken = m.DeploymentModel("x", (m.Node("n", m.VIRTUAL_MACHINE),))
        first = m.validate(broken)
        expected = list(first)
        assert [d.path for d in expected] == ["nodes[0].placement", "nodes[0].vm_spec"]
        first.append(first[0])
        first.reverse()
        second = m.validate(broken)
        assert second == expected
        assert second is not first

    def test_parse_then_simulate_walks_the_model_once(self, monkeypatch, tmp_path):
        walked = []
        findings = m._findings
        monkeypatch.setattr(m, "_findings", lambda model: walked.append(model) or findings(model))
        assert main(["simulate", "--model", str(cloudcost.data_path("demo_model.json")),
                     "--catalog", str(cloudcost.data_path("demo_catalog.json")),
                     "--start", "2011-01", "--end", "2011-02", "--out", str(tmp_path)]) == 0
        assert len(walked) == 1

    def test_replaced_model_is_validated_afresh(self):
        source = minimal_model()
        assert m.validate(source) == []
        moved = source.replaced("aws", "")
        assert [str(d) for d in m.validate(moved)] == [
            "error: nodes[0].placement.region: region must be non-empty"]
        assert m.validate(source) == []

    def test_compare_providers_walks_its_model_once(self, monkeypatch, tmp_path, capsys):
        walked = []
        findings = m._findings
        monkeypatch.setattr(m, "_findings", lambda model: walked.append(model) or findings(model))
        remap = tmp_path / "map.json"
        remap.write_text(json.dumps({label: {"provider": provider, "region": "us-east"}
                                     for label, provider in (("A", "nimbus"), ("B", "stratus"),
                                                             ("C", "cumulus"))}))
        assert main(["compare-providers", "--model", str(cloudcost.data_path("demo_model.json")),
                     "--catalog", str(cloudcost.data_path("demo_catalog.json")),
                     "--map", str(remap), "--start", "2011-01", "--end", "2011-01"]) == 0
        assert len(walked) == 1

    @pytest.mark.parametrize("provider, region", [("aws", "eu-west"), ("x", "y")])
    def test_a_clean_model_moved_to_a_place_carries_what_a_fresh_walk_finds(self, provider,
                                                                          region):
        moved = minimal_model().replaced(provider, region)
        assert moved.__dict__["_diagnostics"] == m._findings(moved) == ()

    @pytest.mark.parametrize("provider, region, paths", [
        ("", "us-east", ["nodes[0].placement.provider"]),
        ("", "", ["nodes[0].placement.provider", "nodes[0].placement.region"]),
    ])
    def test_a_copy_with_an_empty_place_reports_its_own_findings(self, provider, region, paths):
        moved = minimal_model().replaced(provider, region)
        assert "_diagnostics" not in moved.__dict__
        assert [d.path for d in m.validate(moved)] == paths

    def test_a_copy_of_an_invalid_model_reports_its_own_findings(self):
        source = m.DeploymentModel("x", (
            m.Node("n", m.VIRTUAL_MACHINE, m.Placement("", "r")),
            m.Node("n", m.REMOTE_NODE)))
        assert [d.path for d in m.validate(source)] == [
            "nodes[0].placement.provider", "nodes[0].vm_spec", "nodes[1].id"]
        assert [d.path for d in m.validate(source.replaced("aws", "us-east"))] == [
            "nodes[0].vm_spec", "nodes[1].id"]
