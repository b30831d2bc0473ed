"""README's "Library use" block runs as written, and the package offers
exactly the names it uses, each bound from its module on first access.
Every error line README quotes in full is what its command prints."""

import contextlib
import importlib
import io
import json
import re
import types
from pathlib import Path

import pytest

import cloudcost
from cloudcost.cli import main

from builders import mutated

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_use_block(), str(README), "exec"), {})
    total, rollup = out.getvalue().splitlines()[0].split(" ", 1)
    assert total == "70507.800000" and rollup.startswith("[('frontend', ")


def test_package_binds_only_the_names_the_block_uses():
    names = set(re.findall(r"\bcc\.(\w+)", library_use_block()))
    assert set(cloudcost.__all__) == names
    assert names <= set(dir(cloudcost))
    for name in names:
        value = getattr(cloudcost, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    bound = {name for name, value in vars(cloudcost).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == names
    with pytest.raises(AttributeError):
        getattr(cloudcost, "load_plan")  # engine's, not the package's
    assert cloudcost.__version__ == "0.1.0"


def demo(name):
    return str(cloudcost.data_path(name))


def demo_doc(name, *changes):
    """A demo JSON document's text with each (key path, value) change made."""
    return json.dumps(mutated(json.loads(cloudcost.data_path(name).read_text()), *changes))


WINDOW = ["--start", "2011-01", "--end", "2011-01"]
PRICED = ["--model", demo("demo_model.json"), "--catalog", demo("demo_catalog.json"), *WINDOW]
CATALOG_FILE = ["--model", demo("demo_model.json"), "--catalog", "catalog.json", *WINDOW,
                "--out", "out"]
ON_NIMBUS = {"provider": "nimbus", "region": "us-east"}

# README's quoted error line -> (exit code, argv, files the run reads from its directory)
RUNS = {
    "error: Mars: web-1/vm_hours: no rate for nimbus/mars-1/vm_hours/standard.small": (
        3, ["compare-providers", *PRICED, "--map", "map.json"],
        {"map.json": json.dumps({"Nimbus": ON_NIMBUS,
                                 "Mars": {"provider": "nimbus", "region": "mars-1"}})}),
    "error: schema violation": (
        1, ["simulate", "--model", "model.json", "--catalog", demo("demo_catalog.json"),
            *WINDOW, "--out", "out"],
        {"model.json": demo_doc("demo_model.json", (("rates",), []))}),
    "error: $: unknown key(s): rates": (
        1, ["simulate", *CATALOG_FILE],
        {"catalog.json": demo_doc("demo_catalog.json", (("rates",), []))}),
    "error: plan.json: syntax error at line 1, column 10: Expecting ':' delimiter": (
        1, ["export-csv", *PRICED, "--plan", "plan.json", "--out", "out"],
        {"plan.json": '{"web-1" "on_demand"}'}),
    "error: entries[0].region: string holds a NUL character": (
        1, ["export-csv", *CATALOG_FILE],
        {"catalog.json": demo_doc("demo_catalog.json", (("entries", 0, "region"), "us\0east"))}),
    "error: entries[0].pricing.flat: negative price": (
        1, ["export-csv", *CATALOG_FILE],
        {"catalog.json": demo_doc("demo_catalog.json", (("entries", 0, "pricing", "flat"), "-1"))}),
    "error: map file map.json: expected at least two entries label -> {provider, region}": (
        1, ["compare-providers", *PRICED, "--map", "map.json"],
        {"map.json": json.dumps({"Nimbus": ON_NIMBUS})}),
    "error: map entry 'Stratus'.provider: expected a non-empty string": (
        1, ["compare-providers", *PRICED, "--map", "map.json"],
        {"map.json": json.dumps({"Nimbus": ON_NIMBUS,
                                 "Stratus": {"provider": "", "region": "us-east"}})}),
    "error: items[0].mitigation: expected a string, got int": (
        1, ["assess", "--items", "items.json", "--ratings", demo("demo_ratings.csv")],
        {"items.json": json.dumps({"items": [{"id": "R1", "kind": "risk", "category": "legal",
                                              "statement": "s", "mitigation": 5}]})}),
    "error: rating file line 3: holds a NUL character": (
        1, ["assess", "--items", demo("assessment_items.json"), "--ratings", "ratings.csv"],
        {"ratings.csv": "# respondent: a\nitem_id,rating\nB1,4\0\n"}),
}


def test_each_error_line_readme_quotes_has_a_run():
    quoted = re.findall(r"`(error: [^`<]+)`", README.read_text(encoding="utf-8"))
    assert sorted(quoted) == sorted(RUNS)


@pytest.mark.parametrize("quote", RUNS)
def test_each_quoted_error_line_is_what_its_run_prints(tmp_path, monkeypatch, quote):
    code, argv, files = RUNS[quote]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == code
    assert quote in err.getvalue().splitlines()
