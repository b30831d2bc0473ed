import argparse
import contextlib
import copy
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cloudcost
from cloudcost import cli
from cloudcost.cli import main

DEMO_MODEL = str(cloudcost.data_path("demo_model.json"))
DEMO_CATALOG = str(cloudcost.data_path("demo_catalog.json"))
DEMO_ITEMS = str(cloudcost.data_path("assessment_items.json"))
DEMO_RATINGS = str(cloudcost.data_path("demo_ratings.csv"))


def run(*argv):
    return main(list(argv))


class TestValidate:
    def test_good_model_silent_success(self, capsys):
        assert run("validate", DEMO_MODEL) == 0
        out = capsys.readouterr()
        assert out.out == "" and out.err == ""

    def test_bad_model_diagnostics_on_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "bad",
            "nodes": [{"id": "a", "kind": "virtual_machine",
                       "placement": {"provider": "p", "region": "r"},
                       "vm_spec": {"operating_system": "linux", "sku": "s"},
                       "requirements": [{"kind": "storage_gb", "baseline": 1}]}],
        }))
        assert run("validate", str(bad)) == 1
        assert "not legal" in capsys.readouterr().err

    def test_bad_pattern_texts_are_reported_once_per_use(self, tmp_path, capsys):
        # one bad text used on two requirements, another on one
        shared, bad_day = "perm: every month %5", "temp: every month on 32 *2"
        uses = [[shared], ["temp: every jun-aug on weekends /2", shared], [bad_day]]
        doc = {"name": "bad-patterns", "nodes": [
            {"id": f"web-{i}", "kind": "virtual_machine",
             "placement": {"provider": "nimbus", "region": "us-east"},
             "vm_spec": {"operating_system": "linux", "sku": "standard.small"},
             "requirements": [{"kind": "vm_hours", "baseline": 720, "patterns": patterns}]}
            for i, patterns in enumerate(uses, start=1)]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("validate", str(bad)) == 1
        assert capsys.readouterr().err == (
            "model validation failed\n"
            "  error: nodes[0].requirements[0].patterns[0]: unknown variation operator"
            " '%' (column 19 of 'perm: every month %5')\n"
            "  error: nodes[1].requirements[0].patterns[1]: unknown variation operator"
            " '%' (column 19 of 'perm: every month %5')\n"
            "  error: nodes[2].requirements[0].patterns[0]: day of month out of range:"
            " 32 (column 22 of 'temp: every month on 32 *2')\n")


class TestSimulate:
    def test_writes_three_files(self, tmp_path):
        out = tmp_path / "out"
        code = run("simulate", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
                   "--start", "2011-01", "--end", "2011-06", "--out", str(out))
        assert code == 0
        assert (out / "report.csv").exists()
        assert (out / "report.html").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["label"] == "digital-library"
        assert summary["months"] == 6

    def test_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
                       "--start", "2011-01", "--end", "2011-12",
                       "--out", str(out)) == 0
        for name in ("report.csv", "report.html", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_rate_exits_3(self, tmp_path, capsys):
        catalog = tmp_path / "empty.json"
        catalog.write_text(json.dumps({"currency": "USD", "entries": []}))
        code = run("simulate", "--model", DEMO_MODEL, "--catalog", str(catalog),
                   "--start", "2011-01", "--end", "2011-02",
                   "--out", str(tmp_path / "o"))
        assert code == 3
        err = capsys.readouterr().err
        assert "nimbus" in err and "vm_hours" in err

    def test_reversed_window_exits_2(self, tmp_path, capsys):
        code = run("simulate", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
                   "--start", "2011-06", "--end", "2011-01",
                   "--out", str(tmp_path / "o"))
        assert code == 2

    def test_bad_month_text_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
                "--start", "january", "--end", "2011-02",
                "--out", str(tmp_path / "o"))
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--start", "--end"])
    @pytest.mark.parametrize("text, reason", [
        ("2011-13", "month number out of range: 13"),
        ("2011-00", "month number out of range: 0"),
        ("2011-1", "expected YYYY-MM, got '2011-1'"),
        ("٢٠١١-٠١", "expected YYYY-MM, got '٢٠١١-٠١'"),  # Arabic-Indic digits
    ])
    def test_bad_month_prints_the_reason(self, tmp_path, capsys, flag, text, reason):
        months = {"--start": "2011-01", "--end": "2011-02", flag: text}
        with pytest.raises(SystemExit) as exc:
            run("export-csv", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
                "--start", months["--start"], "--end", months["--end"],
                "--out", str(tmp_path / "o"))
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: {reason}\n")

    def test_env_var_supplies_catalog(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CLOUDCOST_CATALOG", DEMO_CATALOG)
        assert run("simulate", "--model", DEMO_MODEL,
                   "--start", "2011-01", "--end", "2011-02",
                   "--out", str(tmp_path / "o")) == 0

    def test_reserved_plan(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "web-1": {"kind": "reserved", "term_months": 36},
            "web-2": "on_demand",
        }))
        out = tmp_path / "out"
        assert run("simulate", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
                   "--plan", str(plan), "--start", "2011-01", "--end", "2011-03",
                   "--out", str(out)) == 0
        assert "reservation_upfront" in (out / "report.csv").read_text()

    @pytest.mark.parametrize("choice, reason", [
        ({"kind": "on_demand", "term_months": 12, "typo": 1}, "unknown key(s): typo"),
        ({"kind": "reserved", "term_month": 12}, "unknown key(s): term_month"),
        ({"kind": "on_demand", "term_months": 12}, "on_demand choices carry no term"),
        ({"term_months": 12}, "missing required key(s): kind"),
        ({"kind": "reserved", "term_months": 0}, "term_months must be a positive integer"),
    ])
    def test_plan_objects_are_strict(self, tmp_path, capsys, choice, reason):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"web-1": choice}))
        assert run("export-csv", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
                   "--plan", str(plan), "--start", "2011-01", "--end", "2011-01",
                   "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: plan for 'web-1': {reason}\n"


class TestHelp:
    @pytest.mark.parametrize("command, argument", [
        ("simulate", "--plan PLAN +purchase plan JSON"),
        ("export-csv", "--plan PLAN +purchase plan JSON"),
        ("compare-providers", "--plan PLAN +purchase plan JSON"),
        ("compare", "--catalog CATALOG +price catalog"),
    ])
    def test_shared_arguments_carry_their_help(self, capsys, command, argument):
        with pytest.raises(SystemExit):
            run(command, "--help")
        assert re.search(argument.replace(" +", r"\s+"), capsys.readouterr().out)


class TestUsageErrors:
    # argparse wraps the usage lines by terminal width and, on 3.13, at other
    # places; the error line below them reads the same on 3.10-3.13
    @pytest.mark.parametrize("argv, line", [
        (["simulate", "--model", DEMO_MODEL], "cloudcost simulate: error: the following "
                                              "arguments are required: --start, --end, --out"),
        ([], "cloudcost: error: the following arguments are required: command"),
    ], ids=["missing-option", "missing-subcommand"])
    def test_error_line_is_the_same_on_every_version(self, capsys, argv, line):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {line.split(':')[0]} ")
        assert err.endswith(f"\n{line}\n")

    @pytest.mark.parametrize("argv, line", [
        (["compare", "--models", DEMO_MODEL, "--catalog", DEMO_CATALOG],
         "compare needs at least two models"),
        (["compare", "--models", f"{DEMO_MODEL},{DEMO_MODEL}", "--plans", "-",
          "--catalog", DEMO_CATALOG], "--plans must list one entry per model ('-' for on-demand)"),
        (["export-csv", "--model", DEMO_MODEL, "--out", "{out}"],
         "no catalog given: pass --catalog or set CLOUDCOST_CATALOG"),
    ], ids=["one-model", "plans-count", "no-catalog"])
    def test_unusable_request_exits_2_with_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                          argv, line):
        monkeypatch.delenv("CLOUDCOST_CATALOG", raising=False)
        argv = [arg.replace("{out}", str(tmp_path / "o")) for arg in argv]
        assert run(*argv, "--start", "2011-01", "--end", "2011-01") == 2
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "o").exists()


COMMAND_NAMES = ["validate", "simulate", "export-csv", "compare", "compare-providers", "assess"]


@pytest.fixture
def built(monkeypatch):
    """The names of the subparsers built, in order."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    return names


def outcome(argv):
    """Exit code, stdout and stderr of ``main(argv)`` run in process; any
    exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestOneParser:
    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["bogus"], ["valid"], ["--", "validate", DEMO_MODEL],
        ["-h", "simulate"], *([name, "-h"] for name in COMMAND_NAMES),
        ["validate"], ["validate", DEMO_MODEL], ["validate", DEMO_MODEL, "extra"],
        ["simulate", "--model", DEMO_MODEL],
        ["export-csv", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
         "--start", "2011-13", "--end", "2011-01", "--out", "unwritten"],
        ["assess", "--items", DEMO_ITEMS, "--ratings", DEMO_RATINGS, "--threshold", "9"],
        ["simulate", "validate"],
        # canonical lines, which no parser reads; an --out that is no directory
        # and a missing map end each run before it writes
        *([name, "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG, "--start", "2011-01",
           "--end", "2011-01", "--out", os.devnull] for name in ("simulate", "export-csv")),
        ["compare", "--models", f"{DEMO_MODEL},{DEMO_MODEL}", "--catalog", DEMO_CATALOG,
         "--start", "2011-01", "--end", "2011-01"],
        ["compare-providers", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
         "--map", "missing-map.json", "--start", "2011-01", "--end", "2011-01"],
        ["assess", "--items", DEMO_ITEMS, "--ratings", DEMO_RATINGS],
    ], ids=lambda argv: " ".join(argv).replace(DEMO_MODEL, "M") or "none")
    @pytest.mark.parametrize("columns", ["80", "200"])
    def test_output_equals_the_all_commands_parser(self, monkeypatch, argv, columns):
        monkeypatch.setenv("COLUMNS", columns)
        one = outcome(argv)
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert one == outcome(argv)

    @pytest.mark.parametrize("argv, names", [
        *(([name, "-h"], [name]) for name in COMMAND_NAMES),
        (["-h"], COMMAND_NAMES), (["valid"], COMMAND_NAMES),
        (["--", "validate"], COMMAND_NAMES),
    ])
    def test_a_named_command_builds_only_its_own_parser(self, capsys, built, argv, names):
        with pytest.raises(SystemExit):
            main(argv)
        assert built == names

    def test_main_without_arguments_reads_sys_argv(self, monkeypatch, capsys, built):
        # the console script calls main() with no argument
        monkeypatch.setattr(sys, "argv", ["cloudcost", "validate", DEMO_MODEL])
        assert main() == 0
        assert built == []  # a canonical command line builds no parser
        monkeypatch.setattr(sys, "argv", ["cloudcost", "bogus"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert "cloudcost: error: argument command: invalid choice: 'bogus'" in (
            capsys.readouterr().err)


class TestExportCsv:
    def test_writes_only_csv(self, tmp_path):
        out = tmp_path / "out"
        assert run("export-csv", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
                   "--start", "2011-01", "--end", "2011-02", "--out", str(out)) == 0
        assert (out / "report.csv").exists()
        assert not (out / "report.html").exists()

    def test_a_negative_zero_price_costs_a_positive_zero(self, tmp_path):
        # "-0" is not a negative price, so the catalog takes it, as a zero
        catalog = json.loads(Path(DEMO_CATALOG).read_text(encoding="utf-8"))
        for entry in catalog["entries"]:
            if entry["provider"] == "nimbus" and entry["dimension"] == "vm_hours":
                entry["pricing"] = {"flat": "-0"}
        sku = catalog["skus"][0]
        assert (sku["provider"], sku["region"], sku["name"]) == (
            "nimbus", "us-east", "standard.small")
        assert sku["purchase_options"][1]["term_months"] == 12
        sku["purchase_options"][1]["hourly_rate"] = "-0.000"
        (tmp_path / "catalog.json").write_text(json.dumps(catalog))
        (tmp_path / "plan.json").write_text(json.dumps(
            {"web-1": {"kind": "reserved", "term_months": 12}}))
        out = tmp_path / "out"
        assert run("export-csv", "--model", DEMO_MODEL,
                   "--catalog", str(tmp_path / "catalog.json"),
                   "--plan", str(tmp_path / "plan.json"),
                   "--start", "2011-01", "--end", "2011-01", "--out", str(out)) == 0
        rows = list(csv.reader(io.StringIO((out / "report.csv").read_text(encoding="utf-8"))))
        hours = {row[2]: row[-1] for row in rows if row[5] == "vm_hours"}
        assert len(hours) == 15 and set(hours.values()) == {"0.00"}  # web-1 reserved too
        assert [row[-1] for row in rows if row[5] == "reservation_upfront"] == ["220.00"]


# Every JSON input of the commands, "{bad}" standing for its file.
JSON_INPUTS = [
    ["validate", "{bad}"],
    ["export-csv", "--model", "{bad}", "--catalog", DEMO_CATALOG],
    ["export-csv", "--model", DEMO_MODEL, "--catalog", "{bad}"],
    ["export-csv", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG, "--plan", "{bad}"],
    ["compare", "--models", DEMO_MODEL + ",{bad}", "--catalog", DEMO_CATALOG],
    ["compare-providers", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG, "--map", "{bad}"],
    ["assess", "--items", "{bad}", "--ratings", DEMO_RATINGS],
]
JSON_INPUT_IDS = ["validate", "model", "catalog", "plan", "compare", "map", "items"]


class TestUnusablePaths:
    @pytest.mark.parametrize("bad", ["model", "out"])
    def test_os_error_exits_2_without_traceback(self, tmp_path, capsys, bad):
        taken = tmp_path / "taken"
        taken.write_text("")
        model = str(tmp_path) if bad == "model" else DEMO_MODEL  # a directory
        out = str(taken) if bad == "out" else str(tmp_path / "o")  # a file
        code = run("export-csv", "--model", model, "--catalog", DEMO_CATALOG,
                   "--start", "2011-01", "--end", "2011-02", "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


    @pytest.mark.parametrize("argv", [
        ["validate", "{bad}"],
        ["export-csv", "--model", "{bad}", "--catalog", DEMO_CATALOG],
        ["export-csv", "--model", DEMO_MODEL, "--catalog", "{bad}"],
        ["export-csv", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG, "--plan", "{bad}"],
        ["assess", "--items", "{bad}", "--ratings", DEMO_RATINGS],
        ["assess", "--items", DEMO_ITEMS, "--ratings", "{bad}"],
    ], ids=["validate", "model", "catalog", "plan", "items", "ratings"])
    def test_non_utf8_input_exits_2_without_traceback(self, tmp_path, capsys, argv):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"name": "café"}'.encode("latin-1"))
        argv = [str(bad) if arg == "{bad}" else arg for arg in argv]
        if argv[0] == "export-csv":
            argv += ["--start", "2011-01", "--end", "2011-02", "--out", str(tmp_path / "o")]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8") and "Traceback" not in err

    @pytest.mark.parametrize("argv", JSON_INPUTS, ids=JSON_INPUT_IDS)
    def test_json_syntax_error_names_its_file(self, tmp_path, argv):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        argv = [arg.replace("{bad}", str(bad)) for arg in argv]
        if argv[0] not in ("validate", "assess"):
            argv += ["--start", "2011-01", "--end", "2011-01", "--out", str(tmp_path / "o")]
        code, err = run_quietly(*argv)
        prefix = "" if argv[0] == "validate" else "error: "
        assert code == 1
        assert err == (f"{prefix}{bad}: syntax error at line 1, column 3: "
                       "Expecting property name enclosed in double quotes\n")

    @pytest.mark.parametrize("argv", JSON_INPUTS, ids=JSON_INPUT_IDS)
    def test_json_nested_too_deep_names_its_file(self, tmp_path, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        argv = [arg.replace("{bad}", str(deep)) for arg in argv]
        if argv[0] not in ("validate", "assess"):
            argv += ["--start", "2011-01", "--end", "2011-01", "--out", str(tmp_path / "o")]
        code, err = run_quietly(*argv)
        prefix = "" if argv[0] == "validate" else "error: "
        assert (code, err) == (1, f"{prefix}{deep}: nesting too deep\n")


EXPORT_ONE_MONTH = ("export-csv", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
                    "--start", "2011-01", "--end", "2011-01")


class TestWriteAtomic:
    @pytest.mark.parametrize("umask", [0o077, 0o022], ids=["umask-077", "umask-022"])
    def test_an_output_has_mode_644_whatever_the_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            assert run(*EXPORT_ONE_MONTH, "--out", str(tmp_path)) == 0
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "report.csv").st_mode & 0o777 == 0o644
        assert os.listdir(tmp_path) == ["report.csv"]

    def test_an_empty_out_writes_into_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(*EXPORT_ONE_MONTH, "--out", "") == 0
        assert os.listdir(tmp_path) == ["report.csv"]
        assert (tmp_path / "report.csv").read_text().startswith("month,group,node,")

    def test_a_temp_name_taken_by_a_file_is_skipped_and_the_file_kept(self, tmp_path,
                                                                      monkeypatch):
        tried = []
        real_open = os.open
        monkeypatch.setattr(os, "open", lambda path, *args: tried.append(path)
                            or real_open(path, *args))
        target = str(tmp_path / "report.csv")
        cli.write_atomic(target, "first")
        taken = tried[0]
        with open(taken, "w") as stale:
            stale.write("stale")
        cli.write_atomic(target, "second")
        assert tried[:2] == [taken, taken] and len(tried) == 3 and tried[2] != taken
        assert sorted(os.listdir(tmp_path)) == sorted([os.path.basename(taken), "report.csv"])
        with open(taken) as stale, open(target) as written:
            assert (stale.read(), written.read()) == ("stale", "second")

    def test_a_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            cli.write_atomic(str(tmp_path / "report.csv"), "\ud800")  # no UTF-8 for it
        assert os.listdir(tmp_path) == []

    def test_a_failed_rename_leaves_no_temp_file(self, tmp_path, capsys):
        (tmp_path / "report.csv").mkdir()  # os.replace cannot put a file there
        assert run(*EXPORT_ONE_MONTH, "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory: ")
        assert os.listdir(tmp_path) == ["report.csv"]

    def test_an_out_that_names_a_file_exits_2_with_one_error_line(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run(*EXPORT_ONE_MONTH, "--out", str(taken)) == 2
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{taken}'\n"


class TestHugeQuantities:
    @pytest.mark.parametrize("where, message", [
        ("line", "error: web-1/vm_hours in 2011-05: amount "),
        ("total", "error: amount "),
    ])
    def test_cost_beyond_decimal_precision_exits_1(self, tmp_path, capsys, where, message):
        doc = json.loads(cloudcost.data_path("demo_model.json").read_text())
        if where == "line":
            doc["nodes"][0]["requirements"][0]["patterns"] = [
                "perm: every month on everyday *1.5"]
        else:  # every line fits; three of them together do not
            for node in doc["nodes"][:3]:
                node["requirements"][0]["baseline"] = 7e22
        grown = tmp_path / "grown.json"
        grown.write_text(json.dumps(doc))
        code = run("simulate", "--model", str(grown), "--catalog", DEMO_CATALOG,
                   "--start", "2011-01", "--end", "2013-12", "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and "exceeds the 28-digit decimal precision" in err

    @pytest.mark.parametrize("field, line", [
        ("flat", "web-1/vm_hours in 2011-01: amount above 1E+999999"),
        ("unit_price", "web-1/vm_hours in 2011-01: amount above 1E+999999"),
        ("hourly_rate", "web-1/vm_hours in 2011-01: amount above 1E+999999"),
        ("upfront_fee", "web-1/reservation_upfront in 2011-01: amount 1E+999999999"),
    ])
    def test_catalog_number_beyond_the_decimal_range_names_the_line(self, tmp_path, capsys,
                                                                     field, line):
        catalog = json.loads(cloudcost.data_path("demo_catalog.json").read_text())
        small, sku = catalog["entries"][0], catalog["skus"][0]
        assert (small["dimension"], small["sku"], sku["name"]) == (
            "vm_hours", "standard.small", "standard.small")
        huge = "1e999999999"  # finite, so the loader takes it
        argv = []
        if field == "flat":
            small["pricing"] = {"flat": huge}
        elif field == "unit_price":
            small["pricing"] = {"tiers": [{"upper_bound": 1, "unit_price": "0.085"},
                                          {"upper_bound": None, "unit_price": huge}]}
        else:
            reserved = sku["purchase_options"][2]
            assert (reserved["kind"], reserved["term_months"]) == ("reserved", 36)
            reserved[field] = huge
            plan = tmp_path / "plan.json"
            plan.write_text(json.dumps({"web-1": {"kind": "reserved", "term_months": 36}}))
            argv = ["--plan", str(plan)]
        grown = tmp_path / "catalog.json"
        grown.write_text(json.dumps(catalog))
        code = run("export-csv", "--model", DEMO_MODEL, "--catalog", str(grown), *argv,
                   "--start", "2011-01", "--end", "2011-02", "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err.splitlines()  # a reserved rate this high also warns
        assert [text for text in err if not text.startswith("warning: ")] == [
            f"error: {line} exceeds the 28-digit decimal precision at 6 fractional digits"]

    def test_replay_overflow_names_the_line_and_month(self, tmp_path, capsys):
        doc = json.loads(cloudcost.data_path("demo_model.json").read_text())
        web3 = doc["nodes"][2]
        assert web3["id"] == "web-3"
        web3["requirements"][0]["patterns"] = ["perm: every month on everyday *1e10"]
        grown = tmp_path / "grown.json"
        grown.write_text(json.dumps(doc))
        code = run("export-csv", "--model", str(grown), "--catalog", DEMO_CATALOG,
                   "--start", "2011-01", "--end", "2011-03", "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: web-3/vm_hours in 2011-01: value overflowed applying '*1e+10'\n")


class TestCompareProviders:
    def test_table_shape(self, tmp_path, capsys):
        remap = tmp_path / "map.json"
        remap.write_text(json.dumps({
            "Nimbus": {"provider": "nimbus", "region": "us-east"},
            "Stratus": {"provider": "stratus", "region": "us-east"},
            "Cumulus": {"provider": "cumulus", "region": "us-east"},
        }))
        out = tmp_path / "out"
        code = run("compare-providers", "--model", DEMO_MODEL,
                   "--catalog", DEMO_CATALOG, "--map", str(remap),
                   "--start", "2011-01", "--end", "2013-12", "--out", str(out))
        assert code == 0
        console = capsys.readouterr().out
        assert "1st month" in console
        assert "Monthly avg." in console
        assert "Total" in console
        assert "Difference with Nimbus" in console
        assert "+2x" in console and "+3x" in console
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["baseline"] == "Nimbus"
        assert [row["label"] for row in payload["rows"]] == ["Nimbus", "Stratus",
                                                             "Cumulus"]

    @staticmethod
    def run_with_odd_entry(tmp_path, target):
        remap = tmp_path / "map.json"
        remap.write_text(json.dumps({
            "Nimbus": {"provider": "nimbus", "region": "us-east"}, "Odd": target}))
        return run_quietly("compare-providers", "--model", DEMO_MODEL,
                           "--catalog", DEMO_CATALOG, "--map", str(remap),
                           "--start", "2011-01", "--end", "2011-03")

    @pytest.mark.parametrize("target, key", [
        ({"provider": 5, "region": "us-east"}, "provider"),
        ({"provider": "nimbus", "region": ["us-east"]}, "region"),
        ({"provider": None, "region": "us-east"}, "provider"),
    ])
    def test_non_string_provider_or_region_is_a_located_error(self, tmp_path, target, key):
        code, err = self.run_with_odd_entry(tmp_path, target)
        assert code == 1
        assert err.startswith(f"error: map entry 'Odd'.{key}: expected a string, got ")

    @pytest.mark.parametrize("key", ["provider", "region"])
    def test_empty_provider_or_region_is_a_located_error(self, tmp_path, key):
        code, err = self.run_with_odd_entry(tmp_path, {"provider": "nimbus",
                                                       "region": "us-east", key: ""})
        assert code == 1
        assert err == f"error: map entry 'Odd'.{key}: expected a non-empty string\n"

    @pytest.mark.parametrize("labels", [(), ("Nimbus",)], ids=["empty", "one_label"])
    def test_fewer_than_two_labels_is_a_map_error(self, tmp_path, labels):
        remap = tmp_path / "map.json"
        remap.write_text(json.dumps({label: {"provider": "nimbus", "region": "us-east"}
                                     for label in labels}))
        code, err = run_quietly("compare-providers", "--model", DEMO_MODEL,
                                "--catalog", DEMO_CATALOG, "--map", str(remap),
                                "--start", "2011-01", "--end", "2011-03")
        assert (code, err) == (1, f"error: map file {remap}: expected at least two "
                                  "entries label -> {provider, region}\n")

    def test_lone_surrogate_label_is_a_located_error(self, tmp_path):
        remap = tmp_path / "map.json"
        remap.write_text(json.dumps({"Nimbus\ud800": {"provider": "nimbus", "region": "us-east"},
                                     "Stratus": {"provider": "stratus", "region": "us-east"}}))
        code, err = run_quietly("compare-providers", "--model", DEMO_MODEL,
                                "--catalog", DEMO_CATALOG, "--map", str(remap),
                                "--start", "2011-01", "--end", "2011-03")
        assert (code, err) == (1, "error: $: key 'Nimbus\\ud800' holds a lone surrogate, "
                                  "which no UTF-8 output can encode\n")

    def test_single_placement_totals_equal_simulate(self, tmp_path):
        # the demo itself has eu-west nodes, which every map entry would move
        doc = json.loads(cloudcost.data_path("demo_model.json").read_text())
        for node in doc["nodes"]:
            if "placement" in node:
                node["placement"] = {"provider": "nimbus", "region": "us-east"}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({label: {"provider": "nimbus", "region": "us-east"}
                                       for label in ("A", "B")}))
        window = ("--start", "2011-01", "--end", "2013-12")
        assert run("simulate", "--model", str(model), "--catalog", DEMO_CATALOG, *window,
                   "--out", str(tmp_path / "sim")) == 0
        assert run("compare-providers", "--model", str(model), "--catalog", DEMO_CATALOG,
                   "--map", str(mapping), *window, "--out", str(tmp_path / "cmp")) == 0
        total = json.loads((tmp_path / "sim" / "summary.json").read_text())["total"]
        rows = json.loads((tmp_path / "cmp" / "comparison.json").read_text())["rows"]
        assert [row["total"] for row in rows] == [total, total]


class TestCompare:
    def test_same_model_twice_warns_of_tie(self, tmp_path, capsys):
        code = run("compare", "--models", f"{DEMO_MODEL},{DEMO_MODEL}",
                   "--catalog", DEMO_CATALOG,
                   "--start", "2011-01", "--end", "2011-03")
        assert code == 0
        captured = capsys.readouterr()
        assert "tie" in captured.err
        assert "digital-library" in captured.out

    def test_a_zero_baseline_prints_1x_on_a_tie_and_n_a_above_it(self, tmp_path, capsys):
        free = tmp_path / "free.json"
        free.write_text(json.dumps({"name": "free",
                                    "nodes": [{"id": "users", "kind": "remote_node"}]}))
        code = run("compare", "--models", f"{free},{free},{DEMO_MODEL}",
                   "--catalog", DEMO_CATALOG, "--start", "2011-01", "--end", "2011-02",
                   "--out", str(tmp_path / "out"))
        assert code == 0
        differences = capsys.readouterr().out.splitlines()[-1]
        assert differences.split()[-2:] == ["+1x", "n/a"]
        assert differences.startswith("Difference with free ")
        payload = json.loads((tmp_path / "out" / "comparison.json").read_text())
        assert [row["difference"] for row in payload["rows"]] == [None, "+1x", "n/a"]

    @pytest.mark.parametrize("names, labels", [
        (["x", "x"], ["x", "x #2"]),
        (["x", "x", "x #2"], ["x", "x #2", "x #2 #2"]),
        (["x #2", "x", "x"], ["x #2", "x", "x #3"]),
    ])
    def test_repeated_model_names_get_unique_labels(self, tmp_path, names, labels):
        doc = json.loads(cloudcost.data_path("demo_model.json").read_text())
        paths = []
        for i, name in enumerate(names):
            paths.append(tmp_path / f"m{i}.json")
            paths[-1].write_text(json.dumps({**doc, "name": name}))
        code, err = run_quietly("compare", "--models", ",".join(map(str, paths)),
                                "--catalog", DEMO_CATALOG, "--start", "2011-01",
                                "--end", "2011-02", "--out", str(tmp_path / "out"))
        assert code == 0, err
        payload = json.loads((tmp_path / "out" / "comparison.json").read_text())
        assert [row["label"] for row in payload["rows"]] == labels

    @pytest.mark.parametrize("command", ["compare", "compare-providers"])
    def test_a_scenario_error_names_its_scenario(self, tmp_path, command):
        # the second scenario's nodes sit in a region the catalog does not price
        if command == "compare":
            doc = json.loads(cloudcost.data_path("demo_model.json").read_text())
            for node in doc["nodes"]:
                if "placement" in node:
                    node["placement"]["region"] = "mars-1"
            moved = tmp_path / "mars.json"
            moved.write_text(json.dumps({**doc, "name": "Mars"}))
            inputs = ["--models", f"{DEMO_MODEL},{moved}"]
        else:
            remap = tmp_path / "map.json"
            remap.write_text(json.dumps({"Nimbus": {"provider": "nimbus", "region": "us-east"},
                                         "Mars": {"provider": "nimbus", "region": "mars-1"}}))
            inputs = ["--model", DEMO_MODEL, "--map", str(remap)]
        code, err = run_quietly(command, *inputs, "--catalog", DEMO_CATALOG,
                                "--start", "2011-01", "--end", "2011-02")
        assert (code, err) == (3, "error: Mars: web-1/vm_hours: no rate for "
                                  "nimbus/mars-1/vm_hours/standard.small\n")


NIMBUS = {"provider": "nimbus", "region": "us-east"}
STRATUS = {"provider": "stratus", "region": "us-east"}
EU = {"provider": "nimbus", "region": "eu-west"}
SMALL = "nimbus/us-east/sku/standard.small/reserved"

# plan, provider map (None: simulate the demo model), the node made a
# raw-spec machine, exit code, stderr line, and the MissingRateError key
# (None: a PlanError)
PLAN_FAILURES = {
    "unknown-node": ({"ghost": "on_demand"}, None, None, 1,
                     "plan references unknown node 'ghost'", None),
    "reserved-storage": ({"store-1": {"kind": "reserved"}}, None, None, 1,
                         "plan reserves 'store-1', which is not a virtual machine", None),
    "raw-spec": ({"web-1": {"kind": "reserved"}}, None, "web-1", 1,
                 "node 'web-1' has no sku; raw-spec machines cannot be reserved", None),
    "no-such-term": ({"web-1": {"kind": "reserved", "term_months": 24}}, None, None, 3,
                     f"web-1: no unique reserved option (24m term) for {SMALL}", SMALL),
    "two-terms-match": ({"web-1": {"kind": "reserved"}}, {"Nimbus": NIMBUS, "Stratus": STRATUS},
                        None, 3, f"Nimbus: web-1: no unique reserved option (any term) for {SMALL}",
                        SMALL),
    "no-reserved-option": (
        {"web-1": {"kind": "reserved", "term_months": 36}}, {"Nimbus": NIMBUS, "Stratus": STRATUS},
        None, 3, "Stratus: web-1: no unique reserved option (36m term) for "
        "stratus/us-east/sku/standard.small/reserved", "stratus/us-east/sku/standard.small/reserved"),
    "no-catalog-sku": (
        {"ingest-1": {"kind": "reserved", "term_months": 36}}, {"Nimbus": NIMBUS, "EU": EU},
        None, 3, "EU: ingest-1: no catalog sku for nimbus/eu-west/sku/standard.large",
        "nimbus/eu-west/sku/standard.large"),
}


class TestPlanResolution:
    """Each way a plan fails against a model and the catalog: the CLI's exit
    code and one stderr line, and the library's error class and key."""

    @pytest.mark.parametrize("plan, mapping, raw_spec, code, line, key",
                             PLAN_FAILURES.values(), ids=PLAN_FAILURES)
    def test_exit_code_line_and_key(self, tmp_path, plan, mapping, raw_spec, code, line, key):
        from cloudcost import engine, model, pricing
        from cloudcost.errors import MissingRateError, PlanError
        from cloudcost.months import Month, SimulationWindow

        model_path, plan_path = tmp_path / "model.json", tmp_path / "plan.json"
        doc = json.loads(cloudcost.data_path("demo_model.json").read_text())
        for node in doc["nodes"]:
            if node["id"] == raw_spec:
                node["vm_spec"] = {"operating_system": "linux", "cpu_ghz": 2.0, "ram_gb": 4}
        model_path.write_text(json.dumps(doc))
        plan_path.write_text(json.dumps(plan))
        window = ["--start", "2011-01", "--end", "2011-01"]
        if mapping is None:
            argv = ["simulate", "--model", str(model_path), "--out", str(tmp_path / "out")]
        else:
            (tmp_path / "map.json").write_text(json.dumps(mapping))
            argv = ["compare-providers", "--model", str(model_path),
                    "--map", str(tmp_path / "map.json")]
        assert run_quietly(*argv, "--catalog", DEMO_CATALOG, "--plan", str(plan_path),
                           *window) == (code, f"error: {line}\n")
        assert not (tmp_path / "out").exists()

        parsed = model.load_model(str(model_path))
        catalog = pricing.load_catalog_file(DEMO_CATALOG)
        choices = engine.load_plan(json.dumps(plan), "plan.json")
        span = SimulationWindow(Month(2011, 1), Month(2011, 1))
        with pytest.raises(PlanError if key is None else MissingRateError) as exc:
            if mapping is None:
                engine.simulate(parsed, catalog, span, choices)
            else:
                engine.compare_scenarios(
                    [(label, parsed.replaced(target["provider"], target["region"]), choices)
                     for label, target in mapping.items()], catalog, span)
        assert str(exc.value) == line
        assert getattr(exc.value, "key", None) == key


class TestWarnings:
    @pytest.mark.parametrize("command", ["simulate", "export-csv", "compare",
                                         "compare-providers"])
    def test_catalog_warnings_reach_every_costing_command(self, tmp_path, command):
        doc = json.loads(cloudcost.data_path("demo_catalog.json").read_text())
        assert doc["skus"][0]["purchase_options"][:2] == [
            {"kind": "on_demand", "hourly_rate": "0.085"},
            {"kind": "reserved", "hourly_rate": "0.055", "term_months": 12,
             "upfront_fee": "220.00"}]
        doc["skus"][0]["purchase_options"][1]["hourly_rate"] = "0.095"
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps(doc))
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({label: {"provider": label.lower(), "region": "us-east"}
                                       for label in ("Nimbus", "Stratus")}))
        inputs = {"compare": ["--models", f"{DEMO_MODEL},{DEMO_MODEL}"],
                  "compare-providers": ["--model", DEMO_MODEL, "--map", str(mapping)]}
        code, err = run_quietly(command, *inputs.get(command, ["--model", DEMO_MODEL]),
                                "--catalog", str(catalog), "--start", "2011-01",
                                "--end", "2011-02", "--out", str(tmp_path / "out"))
        assert code == 0, err
        assert err.startswith("warning: nimbus/us-east/standard.small: reserved hourly rate "
                              "0.095 exceeds the on-demand rate 0.085\n")

    def test_export_csv_prints_the_warnings_simulate_prints(self, tmp_path):
        doc = json.loads(cloudcost.data_path("demo_model.json").read_text())
        doc["nodes"][0]["requirements"][0]["patterns"] = ["temp: every month on everyday -1000"]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        errs = []
        for command in ("simulate", "export-csv"):
            code, err = run_quietly(command, "--model", str(model), "--catalog", DEMO_CATALOG,
                                    "--start", "2011-01", "--end", "2011-02",
                                    "--out", str(tmp_path / command))
            assert code == 0, err
            errs.append(err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("warning: web-1/vm_hours: ")
        assert errs[0].count("\n") == 59  # one clamp a day

    def test_compare_prints_each_scenarios_warnings_under_its_label(self, tmp_path):
        doc = json.loads(cloudcost.data_path("demo_model.json").read_text())
        doc["name"] = "clamped"
        doc["nodes"][0]["requirements"][0]["patterns"] = ["temp: every month on everyday -1000"]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        window = ("--catalog", DEMO_CATALOG, "--start", "2011-01", "--end", "2011-02")
        code, simulated = run_quietly("simulate", "--model", str(model), *window,
                                      "--out", str(tmp_path / "sim"))
        assert code == 0 and simulated.count("\n") == 59
        code, compared = run_quietly("compare", "--models", f"{DEMO_MODEL},{model}", *window,
                                     "--out", str(tmp_path / "cmp"))
        assert code == 0
        labelled = [f"warning: clamped: {line.removeprefix('warning: ')}"
                    for line in simulated.splitlines()]
        assert compared.splitlines() == labelled
        written = json.loads((tmp_path / "cmp" / "comparison.json").read_text())["warnings"]
        assert ["warning: " + warning for warning in written] == labelled

    @pytest.mark.parametrize("plans", [("--plans=-,{plan}",), ("--plans", ",{plan}")],
                             ids=["equals-dash", "empty-entry"])
    def test_the_first_scenario_can_be_on_demand(self, tmp_path, plans):
        # a bare "--plans -,plan.json" is an argparse error: "-,..." reads as an option
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"web-1": {"kind": "reserved", "term_months": 36}}))

        def totals(name, *plan_args):
            out = tmp_path / name
            code, err = run_quietly("compare", "--models", f"{DEMO_MODEL},{DEMO_MODEL}",
                                    *plan_args, "--catalog", DEMO_CATALOG, "--start", "2011-01",
                                    "--end", "2011-03", "--out", str(out))
            assert code == 0, err
            return [row["total"] for row in
                    json.loads((out / "comparison.json").read_text())["rows"]]

        on_demand, _ = totals("plain")
        reserved, _ = totals("reserved-first", "--plans", f"{plan},-")
        assert reserved != on_demand
        assert totals("on-demand-first", *(arg.format(plan=plan) for arg in plans)) == [
            on_demand, reserved]


class TestAssess:
    def test_writes_radar_and_important(self, tmp_path):
        out = tmp_path / "out"
        code = run("assess", "--items", DEMO_ITEMS, "--ratings", DEMO_RATINGS,
                   "--out", str(out))
        assert code == 0
        radar = json.loads((out / "radar.json").read_text())
        assert {row["kind"] for row in radar} == {"benefit", "risk"}
        assert all(1 <= row["average"] <= 5 for row in radar)
        important = json.loads((out / "important.json").read_text())
        assert important["threshold"] == 4
        assert "B2" in important["benefit"]

    def test_bad_rating_exits_1(self, tmp_path, capsys):
        ratings = tmp_path / "r.csv"
        ratings.write_text("item_id,rating\nB1,9\n")
        assert run("assess", "--items", DEMO_ITEMS, "--ratings", str(ratings)) == 1
        assert "1..5" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("# respondent: alice\nitem_id,rating\nB1,5\nB2\0,3\n", 4),
        ("item_id,rating\nB1,3\0\n", 2),
        ("item_id\0,rating\nB1,3\n", 1),
        ("# respondent: alice\n# view: corp\0\nitem_id,rating\nB1,3\n", 2),
    ], ids=["item-id", "rating", "header", "comment"])
    def test_nul_in_the_ratings_is_one_located_error(self, tmp_path, capsys, text, line):
        ratings = tmp_path / "r.csv"
        ratings.write_text(text)
        assert run("assess", "--items", DEMO_ITEMS, "--ratings", str(ratings)) == 1
        assert capsys.readouterr() == ("", f"error: rating file line {line}: "
                                           "holds a NUL character\n")

    @pytest.mark.parametrize("key, value, type_name", [
        ("mitigation", 5, "int"), ("indicators", {"a": [1]}, "dict"),
        ("mitigation", ["text"], "list"), ("indicators", None, "NoneType"),
    ])
    def test_non_string_risk_text_exits_1_naming_its_path(self, tmp_path, capsys, key, value,
                                                          type_name):
        doc = json.loads(cloudcost.data_path("assessment_items.json").read_text())
        index = next(i for i, item in enumerate(doc["items"]) if item["kind"] == "risk")
        doc["items"][index][key] = value
        items = tmp_path / "items.json"
        items.write_text(json.dumps(doc))
        assert run("assess", "--items", str(items), "--ratings", DEMO_RATINGS) == 1
        assert capsys.readouterr() == ("", f"error: items[{index}].{key}: expected a string, "
                                           f"got {type_name}\n")

    def test_threshold_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("assess", "--items", DEMO_ITEMS, "--ratings", DEMO_RATINGS,
                   "--threshold", "5", "--out", str(out)) == 0
        important = json.loads((out / "important.json").read_text())
        assert important["benefit"] == ["B2"]
        assert important["risk"] == ["R26"]

    @pytest.mark.parametrize("threshold", ["0", "6"])
    def test_threshold_off_the_rating_scale_is_a_usage_error(self, tmp_path, capsys,
                                                            threshold):
        with pytest.raises(SystemExit) as exc:
            run("assess", "--items", DEMO_ITEMS, "--ratings", DEMO_RATINGS,
                "--threshold", threshold, "--out", str(tmp_path / "out"))
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --threshold: invalid choice: {threshold} "
            "(choose from 1, 2, 3, 4, 5)\n")
        assert not (tmp_path / "out").exists()

    def test_threshold_not_an_integer_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("assess", "--items", DEMO_ITEMS, "--ratings", DEMO_RATINGS,
                "--threshold", "x", "--out", str(tmp_path / "out"))
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --threshold: invalid int value: 'x'\n")
        assert not (tmp_path / "out").exists()

    def test_ids_with_non_ascii_digits_sort_the_same_in_any_input_order(self, tmp_path,
                                                                       capsys):
        # B٣ (an Arabic-Indic three) is not B3, so input order must not decide
        # which sorts first
        def assessed(ids, ratings, name):
            items = tmp_path / f"{name}.json"
            items.write_text(json.dumps({"items": [
                {"id": item_id, "kind": "benefit", "category": "technical",
                 "statement": f"statement {item_id}"} for item_id in ids]}))
            sheet = tmp_path / f"{name}.csv"
            sheet.write_text("item_id,rating\n" + "".join(f"{i},{r}\n" for i, r in ratings),
                             encoding="utf-8")
            out = tmp_path / name
            code = run("assess", "--items", str(items), "--ratings", str(sheet),
                       "--out", str(out))
            written = out / "important.json"
            return code, capsys.readouterr().err, written.exists() and written.read_text()

        ids = ["B3", "B\u0663", "U1", "U\u0661"]
        rated = [("B3", 5), ("B\u0663", 5)]
        unknown = rated + [("X2", 5), ("X\u0662", 5)]
        for n, ratings in enumerate((rated, unknown)):
            forward = assessed(ids, ratings, f"forward{n}")
            backward = assessed(ids[::-1], ratings[::-1], f"backward{n}")
            assert forward == backward
        assert json.loads(assessed(ids, rated, "plain")[2])["benefit"] == ["B3", "B\u0663"]


FOOTPRINT = """\
import sys
import cloudcost.cli as cli

code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "cloudcost"))
sys.exit(code)
"""

# Each command as TestImports runs it: "{tmp}" is an output directory, "{map}"
# a provider map; "import" is a bare `import cloudcost.cli`.
FRESH_COMMANDS = {
    "import": [],
    "assess": ["assess", "--items", DEMO_ITEMS, "--ratings", DEMO_RATINGS, "--out", "{tmp}"],
    "validate": ["validate", DEMO_MODEL],
    "export-csv": ["export-csv", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
                   "--start", "2011-01", "--end", "2011-01", "--out", "{tmp}"],
    "simulate": ["simulate", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
                 "--start", "2011-01", "--end", "2011-02", "--out", "{tmp}"],
    "compare": ["compare", "--models", f"{DEMO_MODEL},{DEMO_MODEL}", "--catalog", DEMO_CATALOG,
                "--start", "2011-01", "--end", "2011-02", "--out", "{tmp}"],
    "compare-providers": ["compare-providers", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
                          "--map", "{map}", "--start", "2011-01", "--end", "2011-02",
                          "--out", "{tmp}"],
}
# Which of the modules named in argv[1] the command argv[2:] loads beyond
# those loaded before cloudcost's import
NEWLY_LOADED = """\
import sys
before = set(sys.modules)
import cloudcost.cli
code = cloudcost.cli.main(sys.argv[2:]) if sys.argv[2:] else 0
print(sorted(set(sys.argv[1].split()) & (set(sys.modules) - before)))
sys.exit(code)
"""


def fresh_process(tmp_path, script, args, *flags):
    """The last line ``python *flags -c script *args`` prints, run as a fresh
    process with cloudcost's source on the path; it must exit 0."""
    src = Path(cloudcost.__file__).resolve().parents[1]
    remap = tmp_path / "map.json"
    remap.write_text(json.dumps({"A": {"provider": "nimbus", "region": "us-east"},
                                 "B": {"provider": "stratus", "region": "us-east"}}))
    args = [arg.replace("{tmp}", str(tmp_path / "out")).replace("{map}", str(remap))
            for arg in args]
    proc = subprocess.run([sys.executable, *flags, "-c", script, *args],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, (args, proc.stderr)
    return proc.stdout.splitlines()[-1]


class TestImports:
    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path):
        # each command in a fresh process: the cloudcost modules it has loaded
        # when it returns
        loaded = {name: fresh_process(tmp_path, FOOTPRINT, argv)
                  for name, argv in FRESH_COMMANDS.items()}
        base = ["cloudcost", "cloudcost.cli", "cloudcost.errors"]
        # validate parses patterns, but loads neither the replay nor the calendar
        validate = [*base, "cloudcost.model", "cloudcost.patterns", "cloudcost.schema"]
        pricing = [*validate, "cloudcost.elasticity", "cloudcost.engine", "cloudcost.money",
                   "cloudcost.months", "cloudcost.pricing"]
        # only the two compare commands load their handlers' module
        compare = [*pricing, "cloudcost.comparison"]
        assert loaded == {name: repr(sorted(modules)) for name, modules in (
            ("import", base),
            ("validate", validate),
            ("assess", [*base, "cloudcost.assess", "cloudcost.schema"]),
            ("export-csv", [*pricing, "cloudcost.report"]),
            ("simulate", [*pricing, "cloudcost.report"]),
            ("compare", compare),
            ("compare-providers", compare),
        )}

    # Standard-library modules a fresh process must not load, pinned by absence
    # so the pins hold whatever else each Python version's stdlib imports. A
    # canonical command line is read without argparse, which would load
    # gettext and locale as it builds a parser.
    PARSER = ("argparse", "gettext", "locale")
    ABSENT = {
        "import": ("fractions", "dataclasses", "inspect", "html", *PARSER),
        "assess": ("fractions", "dataclasses", "inspect", "html", *PARSER),
        "validate": ("calendar", "fractions", "dataclasses", "inspect", "datetime", "html",
                     *PARSER),
        "export-csv": ("calendar", "fractions", "dataclasses", "inspect", "datetime", "html",
                       *PARSER),
        "simulate": ("fractions", "dataclasses", "inspect", "datetime", "html", *PARSER),
        "compare": ("fractions", "dataclasses", "inspect", "datetime", "html", *PARSER),
        "compare-providers": ("fractions", "dataclasses", "inspect", "datetime", "html",
                              *PARSER),
    }

    @pytest.mark.parametrize("command", FRESH_COMMANDS)
    def test_a_fresh_command_never_loads_these_stdlib_modules(self, tmp_path, command):
        absent = " ".join(self.ABSENT[command])
        assert fresh_process(tmp_path, NEWLY_LOADED, [absent, *FRESH_COMMANDS[command]]) == "[]"

    # Under -S no site hook loads anything first, as in an interpreter whose
    # site-packages import nothing at start-up. random is what tempfile loaded;
    # shutil is what argparse's help formatter loaded.
    @pytest.mark.parametrize("command", FRESH_COMMANDS)
    def test_without_site_hooks_no_command_loads_typing_pathlib_or_tempfile(self, tmp_path,
                                                                          command):
        absent = "typing pathlib tempfile random shutil"
        assert fresh_process(tmp_path, NEWLY_LOADED, [absent, *FRESH_COMMANDS[command]],
                             "-S") == "[]"


def by_argparse(argv):
    """The namespace the argparse parser gives for ``argv``, or None when it
    exits with help or a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser(argv[0]).parse_args(argv, SimpleNamespace())
        except SystemExit:
            return None


# Each argument type's values: those a canonical line may give, then others
ARGUMENT_VALUES = {
    cli._month_arg: (("2011-01", "2013-12", "2099-12"),
                     ("2011-13", "2011-1", "x", "", "-2011-01")),
    cli._rating_arg: (("1", "4", "5", " 3", "+2"), ("0", "9", "x", "", "-1", "4.0")),
    None: (("a.json", "out/", "a,b", "", "a=b", " -x"), ("-", "-,a.json", "-x", "--out", "--")),
}
SPELLINGS = ("--flag value", "--flag=value", "abbreviation")
EDITS = ("repeat", "cut", "extra", "--", "-h", "--help")


@st.composite
def command_lines(draw):
    """A command line, and whether it is canonical by construction. Half are:
    a command, then its required arguments and some of its optional ones in
    any order, each option spelled ``--flag value`` with a value its type
    converts. The others may also leave out a required option, give a bad
    value, spell an option another way argparse reads, and take up to two
    edits: a repeated first argument, a cut last token, an extra positional,
    or ``--``, ``-h`` or ``--help`` inserted anywhere."""
    messy = draw(st.booleans())
    name = draw(st.sampled_from(COMMAND_NAMES))
    argv = [name]
    for flag, keywords in draw(st.permutations(cli.COMMANDS[name][1])):
        positional = not flag.startswith("-")
        required = positional or keywords.get("required")
        if (messy or not required) and draw(st.integers(0, 3)) == 0:
            continue
        good, bad = ARGUMENT_VALUES[keywords.get("type")]
        value = draw(st.sampled_from(good + bad if messy else good))
        if positional:
            argv.append(value)
            continue
        spelling = draw(st.sampled_from(SPELLINGS if messy else SPELLINGS[:1]))
        if spelling == "--flag=value":
            argv.append(f"{flag}={value}")
        else:
            cut = len(flag) if spelling == SPELLINGS[0] else draw(st.integers(3, len(flag) - 1))
            argv += [flag[:cut], value]
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=2)) if messy else ():
        if edit == "repeat":
            argv += argv[1:3]
        elif edit == "cut" and len(argv) > 1:
            argv.pop()
        elif edit == "extra":
            argv.append("extra")
        elif edit != "cut":
            argv.insert(draw(st.integers(1, len(argv))), edit)
    return argv, not messy


README = Path(__file__).resolve().parents[1] / "README.md"
# The argv of every command of the benchmark's four workloads, as JSON
BENCH_LINES = """\
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run
out = Path(sys.argv[2])
print(json.dumps([command.argv(out) for name in run.WORKLOADS
                  for command in run.build_workload(name, 1, out, False)]))
"""


class TestCommandLineReader:
    """``cli.read_command_line`` reads a canonical command line as argparse
    does, and leaves every other line to argparse."""

    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    def test_a_line_it_reads_gives_the_namespace_argparse_gives(self, line):
        argv, canonical = line
        read = cli.read_command_line(argv)
        assert read is not None or not canonical
        if read is not None:
            assert read == by_argparse(argv)

    def test_every_line_readme_fresh_commands_and_the_benchmark_run_is_read(self, tmp_path):
        readme = README.read_text(encoding="utf-8").replace("\\\n", " ")
        shown = [shlex.split(line)[1:] for line in readme.splitlines()
                 if line.startswith("cloudcost ")]
        # README's one --flag=value line is left to argparse
        assert [argv for argv in shown if cli.read_command_line(argv) is None] == [
            ["compare", "--models", "modelA.json,modelB.json", "--plans=-,plan.json",
             "--catalog", "$DATA/demo_catalog.json", "--start", "2011-01", "--end", "2013-12"]]
        bench = subprocess.run(
            [sys.executable, "-B", "-c", BENCH_LINES, str(README.parent / "bench"),
             str(tmp_path)], capture_output=True, text=True, check=True)
        lines = [*(argv for argv in shown if "--plans=-,plan.json" not in argv),
                 *(argv for argv in FRESH_COMMANDS.values() if argv),
                 *json.loads(bench.stdout.splitlines()[-1])]
        assert {argv[0] for argv in lines} == set(COMMAND_NAMES)
        for argv in lines:
            read = cli.read_command_line(argv)
            assert read is not None, argv
            assert read == by_argparse(argv)

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["bogus"], ["validate"], ["validate", "m.json", "extra"],
        ["validate", "-h", "m.json"], ["validate", "--", "m.json"], ["validate", "-"],
        ["assess", "--items", "i.json"],
        ["assess", "--items", "i.json", "--ratings", "r.csv", "--items", "i.json"],
        ["assess", "--items=i.json", "--ratings", "r.csv"],
        ["assess", "--item", "i.json", "--ratings", "r.csv"],
        ["assess", "--items", "i.json", "--ratings", "r.csv", "--out"],
        ["assess", "--items", "i.json", "--ratings", "r.csv", "--out", "-x"],
        ["assess", "--items", "i.json", "--ratings", "r.csv", "--threshold", "9"],
        ["export-csv", "--model", "m.json", "--start", "2011-13", "--end", "2011-01",
         "--out", "o"],
        [Path("validate"), DEMO_MODEL], ["validate", Path(DEMO_MODEL)],
        [b"validate", DEMO_MODEL], ["validate", DEMO_MODEL.encode()],
        ["assess", "--items", "i.json", "--ratings", "r.csv", "--threshold", 4],
    ], ids=["none", "help", "bogus", "missing-positional", "extra-positional", "help-inside",
            "double-dash", "dash-value", "missing-option", "repeat", "equals", "abbreviation",
            "missing-value", "dash-led-value", "bad-threshold", "bad-month", "command-path",
            "value-path", "command-bytes", "value-bytes", "value-int"])
    def test_any_other_line_is_left_to_argparse(self, argv):
        assert cli.read_command_line(argv) is None


SEED_PATTERNS = ("perm: every month +17", "temp: every jun-aug on weekends /2",
                 "perm: every jan-mar on 1-15 *1.1", "temp: every month on mon-fri -3",
                 "perm: every nov-feb on sat ^2")
NUMBERS = ("0", "-1", "2.5", "1e10", "1e308", "1e-320", "nan", "inf", "", ".", "9" * 30)
OPERATORS = "+-*/^%"


@st.composite
def mutated_pattern(draw):
    """A demo-like pattern with tokens swapped, operators and numbers changed,
    or the text cut short."""
    tokens = draw(st.sampled_from(SEED_PATTERNS)).split(" ")
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("swap", "operator", "number", "truncate")))
        i = draw(st.integers(0, len(tokens) - 1))
        if edit == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif edit == "operator":
            tokens[i] = draw(st.sampled_from(OPERATORS)) + tokens[i].lstrip(OPERATORS)
        elif edit == "number":
            number = draw(st.sampled_from(NUMBERS))
            tokens[i] = re.sub(r"[\d.]+(e[-+]?\d+)?", number, tokens[i], count=1)
        else:
            text = " ".join(tokens)
            tokens = text[:draw(st.integers(0, len(text)))].split(" ")
    return " ".join(tokens)


BASELINES = st.one_of(st.sampled_from((0.0, 1.0, 7e22, 1e308, -1.0)),
                      st.floats(allow_nan=True, allow_infinity=True))


def _fields(value, path=()):
    """The key path of every object member inside a JSON value."""
    if isinstance(value, dict):
        for key, member in value.items():
            yield path + (key,)
            yield from _fields(member, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _fields(item, path + (i,))


CATALOG_FIELDS = list(_fields(json.loads(cloudcost.data_path("demo_catalog.json").read_text())))
JSON_VALUES = {type(None): st.none(), bool: st.booleans(), int: st.integers(),
               float: st.floats(), str: st.text(max_size=8),
               list: st.lists(st.integers(), max_size=2),
               dict: st.dictionaries(st.text(max_size=4), st.integers(), max_size=2)}


# Valid JSON that no float or UTF-8 output can hold: an integer beyond float
# range and a string with a lone surrogate, whatever the field's type; and a
# string with a NUL, which no input may hold either.
UNREPRESENTABLE = st.sampled_from((10 ** 400, "\ud800x", "x\x00"))
# Text that survives a UTF-8 write: no lone surrogates.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
ANY_JSON = st.one_of(*JSON_VALUES.values())
PLAN_CHOICES = st.one_of(
    st.sampled_from(("on_demand", "reserved")), ANY_JSON,
    st.dictionaries(st.sampled_from(("kind", "term_months", "term_month", "typo")),
                    st.one_of(st.sampled_from(("on_demand", "reserved", 12, 36, 7, 0)),
                              ANY_JSON), max_size=3))
PLANS = st.one_of(ANY_JSON, st.dictionaries(
    st.one_of(st.sampled_from(("web-1", "store-1", "users", "ghost")), TEXT),
    PLAN_CHOICES, max_size=3))
RATING_CELLS = st.one_of(
    st.sampled_from(("B1", "R3", "B1 ", "5", "0", "-1", "", '"', "#", "item_id", "rating",
                     "9" * 131073)), TEXT)
RATING_SHEETS = st.tuples(
    st.sampled_from(("item_id,rating", "# view: x", "id,score", "")),
    st.lists(st.lists(RATING_CELLS, max_size=3).map(",".join), max_size=5),
).map(lambda sheet: "\n".join((sheet[0], *sheet[1])))
PLACES = st.one_of(st.sampled_from(("nimbus", "stratus", "cumulus", "us-east", "eu-west")),
                   ANY_JSON)
PROVIDER_MAPS = st.one_of(ANY_JSON, st.dictionaries(TEXT, st.one_of(
    ANY_JSON,
    st.fixed_dictionaries({"provider": PLACES, "region": PLACES}),
    st.dictionaries(st.sampled_from(("provider", "region", "sku")), PLACES, max_size=3)),
    max_size=3))


def _value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def edited(draw, doc):
    """A copy of JSON ``doc`` after 1-3 edits, each of one field: delete it, give
    it a value of another type, duplicate the array element that holds it (a
    field outside arrays is copied under a new key), or copy another field's
    value into it."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        fields = list(_fields(doc))
        if not fields:
            break
        path = draw(st.sampled_from(fields))
        parent, key = _value_at(doc, path[:-1]), path[-1]
        edit = draw(st.sampled_from(("delete", "retype", "duplicate", "cross-copy")))
        if edit == "delete":
            del parent[key]
        elif edit == "retype":
            parent[key] = draw(st.one_of(UNREPRESENTABLE, *[
                values for kind, values in JSON_VALUES.items() if type(parent[key]) is not kind]))
        elif edit == "cross-copy":
            parent[key] = copy.deepcopy(_value_at(doc, draw(st.sampled_from(fields))))
        else:
            indices = [i for i, step in enumerate(path) if isinstance(step, int)]
            if indices:
                array, index = _value_at(doc, path[:indices[-1]]), path[indices[-1]]
                array.insert(index, copy.deepcopy(array[index]))
            else:
                parent[f"{key}2"] = copy.deepcopy(parent[key])
    return doc


DEMO_MODEL_DOC = json.loads(cloudcost.data_path("demo_model.json").read_text())
DEMO_ITEMS_DOC = json.loads(cloudcost.data_path("assessment_items.json").read_text())


def run_quietly(*argv):
    """Exit code and stderr of one in-process CLI run; any exception escapes."""
    code, _, err = outcome(list(argv))
    return code, err


class TestFuzz:
    @given(st.lists(st.tuples(st.integers(0, 19), st.lists(mutated_pattern(), max_size=2),
                              st.one_of(st.none(), BASELINES)),
                    min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_mutated_demo_model_ends_in_an_exit_code_never_a_traceback(self, edits):
        doc = json.loads(cloudcost.data_path("demo_model.json").read_text())
        requirements = [req for node in doc["nodes"] for req in node.get("requirements", [])]
        for index, patterns, baseline in edits:
            req = requirements[index % len(requirements)]
            req["patterns"] = req.get("patterns", []) + patterns
            if baseline is not None:
                req["baseline"] = baseline
        with tempfile.TemporaryDirectory() as tmp:
            model = f"{tmp}/model.json"
            with open(model, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            validated, err = run_quietly("validate", model)
            assert validated in (0, 1, 2, 3) and "Traceback" not in err
            code, err = run_quietly("export-csv", "--model", model, "--catalog", DEMO_CATALOG,
                                    "--start", "2011-01", "--end", "2011-03",
                                    "--out", f"{tmp}/out")
            assert code in (0, 1, 2, 3) and "Traceback" not in err
            if validated == 0:
                assert code == 0 or re.match(r"error: \S", err), err

    @given(edited(DEMO_MODEL_DOC))
    @settings(max_examples=100, deadline=None)
    def test_structurally_edited_model_ends_in_an_exit_code_never_a_traceback(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            model, plan, remap = f"{tmp}/model.json", f"{tmp}/plan.json", f"{tmp}/map.json"
            for path, content in ((model, doc),
                                  (plan, {"web-1": {"kind": "reserved", "term_months": 12}}),
                                  (remap, {label: {"provider": label.lower(), "region": "us-east"}
                                           for label in ("Nimbus", "Stratus")})):
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(content, handle)
            validated, err = run_quietly("validate", model)
            assert validated in (0, 1, 2, 3) and "Traceback" not in err
            window = ("--catalog", DEMO_CATALOG, "--start", "2011-01", "--end", "2011-02")
            for argv in (("export-csv", "--model", model, *window, "--out", f"{tmp}/csv"),
                         ("compare-providers", "--model", model, "--map", remap, *window),
                         ("simulate", "--model", model, "--plan", plan, *window,
                          "--out", f"{tmp}/sim")):
                code, err = run_quietly(*argv)
                assert code in (0, 1, 2, 3) and "Traceback" not in err
                if validated == 0:
                    assert code == 0 or re.search(r"^error: \S", err, re.M), err

    @given(edited(DEMO_ITEMS_DOC))
    @settings(max_examples=100, deadline=None)
    def test_structurally_edited_items_end_in_an_exit_code_never_a_traceback(self, doc):
        code, err = self._run_with_file(json.dumps(doc), "assess", "--items", "{file}",
                                        "--ratings", DEMO_RATINGS)
        assert code in (0, 1, 2, 3) and "Traceback" not in err

    @given(st.sampled_from(CATALOG_FIELDS), st.data())
    @settings(max_examples=150, deadline=None)
    def test_catalog_field_of_another_type_ends_in_an_exit_code_never_a_traceback(
            self, field, data):
        doc = json.loads(cloudcost.data_path("demo_catalog.json").read_text())
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        old = parent[field[-1]]
        parent[field[-1]] = data.draw(st.one_of(UNREPRESENTABLE, *[
            values for kind, values in JSON_VALUES.items() if type(old) is not kind]))
        with tempfile.TemporaryDirectory() as tmp:
            catalog = f"{tmp}/catalog.json"
            with open(catalog, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            code, err = run_quietly("export-csv", "--model", DEMO_MODEL, "--catalog", catalog,
                                    "--start", "2011-01", "--end", "2011-03",
                                    "--out", f"{tmp}/out")
        assert code in (0, 1, 2, 3) and "Traceback" not in err

    @pytest.mark.parametrize("value", [10 ** 400, "\ud800x", "x\x00"],
                             ids=["integer_beyond_float_range", "lone_surrogate", "nul"])
    def test_unrepresentable_value_in_any_model_field_fails_validation(self, value):
        # every field, so a rare type of field cannot hide from a few examples
        for path in _fields(DEMO_MODEL_DOC):
            doc = copy.deepcopy(DEMO_MODEL_DOC)
            _value_at(doc, path[:-1])[path[-1]] = value
            code, err = self._run_with_file(json.dumps(doc), "validate", "{file}")
            assert code == 1 and "Traceback" not in err, path

    def _run_with_file(self, text, *argv):
        """Exit code and stderr of one CLI run, with ``{file}`` in ``argv``
        replaced by a file holding ``text``."""
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/input"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return run_quietly(*(path if arg == "{file}" else
                                 arg.replace("{tmp}", tmp) for arg in argv))

    @given(st.one_of(PLANS.map(json.dumps), TEXT))
    @settings(max_examples=100, deadline=None)
    def test_plan_document_ends_in_an_exit_code_never_a_traceback(self, text):
        code, err = self._run_with_file(
            text, "export-csv", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
            "--plan", "{file}", "--start", "2011-01", "--end", "2011-01", "--out", "{tmp}/out")
        assert code in (0, 1, 2, 3) and "Traceback" not in err

    @given(RATING_SHEETS)
    @settings(max_examples=100, deadline=None)
    def test_ratings_csv_ends_in_an_exit_code_never_a_traceback(self, text):
        code, err = self._run_with_file(text, "assess", "--items", DEMO_ITEMS,
                                        "--ratings", "{file}")
        assert code in (0, 1, 2, 3) and "Traceback" not in err

    @given(st.one_of(PROVIDER_MAPS.map(json.dumps), TEXT))
    @settings(max_examples=100, deadline=None)
    def test_provider_map_ends_in_an_exit_code_never_a_traceback(self, text):
        code, err = self._run_with_file(
            text, "compare-providers", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
            "--map", "{file}", "--start", "2011-01", "--end", "2011-01")
        assert code in (0, 1, 2, 3) and "Traceback" not in err
