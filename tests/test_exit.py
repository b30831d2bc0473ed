"""Every way a ``cloudcost`` process ends, run as a process.

``python -m cloudcost`` ends through :func:`cloudcost.__main__.run`: ``atexit``
callbacks, the flushes of stdout and stderr, then no interpreter teardown,
unless a tool reports at exit. Each case runs with stdout block-buffered
(``PYTHONUNBUFFERED`` unset) and write-through (set), since a failing stdout
shows at a different point in each.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cloudcost

SRC = Path(cloudcost.__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
DEMO_MODEL = str(cloudcost.data_path("demo_model.json"))
DEMO_CATALOG = str(cloudcost.data_path("demo_catalog.json"))

# argparse's usage line: 3.13 keeps the "..." on the choices' line
USAGES = (
    "usage: cloudcost [-h]\n"
    "                 {validate,simulate,export-csv,compare,compare-providers,assess}\n"
    "                 ...\n",
    "usage: cloudcost [-h]\n"
    "                 {validate,simulate,export-csv,compare,compare-providers,assess} ...\n",
)
HELP = (
    "\n"
    "Estimate IaaS deployment costs and score migration benefits and risks.\n"
    "\n"
    "positional arguments:\n"
    "  {validate,simulate,export-csv,compare,compare-providers,assess}\n"
    "    validate            validate a deployment model file\n"
    "    simulate            simulate costs and write reports\n"
    "    export-csv          simulate and write only report.csv\n"
    "    compare             compare scenario models side by side\n"
    "    compare-providers   re-place all nodes per provider map and compare\n"
    "    assess              score a Likert rating sheet\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)
SIMULATE_USAGES = (
    "usage: cloudcost simulate [-h] --model MODEL [--catalog CATALOG] --start\n"
    "                          YYYY-MM --end YYYY-MM [--plan PLAN] --out OUT\n",
    "usage: cloudcost simulate [-h] --model MODEL [--catalog CATALOG]\n"
    "                          --start YYYY-MM --end YYYY-MM [--plan PLAN]\n"
    "                          --out OUT\n",
)
# later 3.13 releases leave the choices unquoted
UNKNOWN_COMMANDS = (
    "cloudcost: error: argument command: invalid choice: 'bogus' (choose from "
    "'validate', 'simulate', 'export-csv', 'compare', 'compare-providers', 'assess')\n",
    "cloudcost: error: argument command: invalid choice: 'bogus' (choose from "
    "validate, simulate, export-csv, compare, compare-providers, assess)\n",
)
# the weekends of 2011-11..2012-03, each clamped by tests/golden/patterns_model.json
CLAMPED = """\
2011-11-05 2011-11-06 2011-11-12 2011-11-13 2011-11-19 2011-11-20 2011-11-26 2011-11-27
2011-12-03 2011-12-04 2011-12-10 2011-12-11 2011-12-17 2011-12-18 2011-12-24 2011-12-25
2011-12-31 2012-01-01 2012-01-07 2012-01-08 2012-01-14 2012-01-15 2012-01-21 2012-01-22
2012-01-28 2012-01-29 2012-02-04 2012-02-05 2012-02-11 2012-02-12 2012-02-18 2012-02-19
2012-02-25 2012-02-26 2012-03-03 2012-03-04 2012-03-10 2012-03-11 2012-03-17 2012-03-18
2012-03-24 2012-03-25 2012-03-31""".split()
TIE = ("warning: total tie between digital-library and digital-library #2; "
       "baseline chosen by label order\n")
COMPARE_DEMO = ["compare", "--models", f"{DEMO_MODEL},{DEMO_MODEL}", "--catalog", DEMO_CATALOG,
                "--start", "2011-01", "--end", "2011-02"]


def python(args, buffered, **streams):
    """``python args`` with cloudcost's source on the path; argparse wraps at 80
    columns and no ``PYTHONDEVMODE`` picks the exit path."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    env.pop("PYTHONDEVMODE", None)
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, *args], env=env, text=True, **streams)


def cloudcost_process(argv, buffered, **streams):
    return python(["-m", "cloudcost", *argv], buffered, **streams)


def closed_fd_process(fd, argv, buffered):
    """``cloudcost_process`` with file descriptor ``fd`` closed before start."""
    close = "import os, sys; os.close(int(sys.argv[1])); os.execv(sys.executable, sys.argv[2:])"
    return python(["-c", close, str(fd), sys.executable, "-m", "cloudcost", *argv], buffered)


def patterns_simulate(out):
    """simulate argv of the pattern forms model, which clamps every weekend."""
    return ["simulate", "--model", str(GOLDEN / "patterns_model.json"), "--catalog",
            DEMO_CATALOG, "--start", "2011-11", "--end", "2012-03", "--out", str(out)]


def invalid_model(tmp_path):
    """A model file whose one pattern names day 32."""
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps({"name": "broken", "nodes": [
        {"id": "vm-1", "kind": "virtual_machine",
         "placement": {"provider": "nimbus", "region": "us-east"},
         "vm_spec": {"operating_system": "linux", "sku": "standard.small"},
         "requirements": [{"kind": "vm_hours", "baseline": 720,
                           "patterns": ["temp: every month on 32 +1"]}]}]}))
    return str(bad)


def norate_simulate(tmp_path, out):
    """simulate argv of the demo model against a catalog without nimbus vm_hours."""
    doc = json.loads(Path(DEMO_CATALOG).read_text())
    doc["entries"] = [e for e in doc["entries"]
                      if (e["provider"], e["dimension"]) != ("nimbus", "vm_hours")]
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(doc))
    return ["simulate", "--model", DEMO_MODEL, "--catalog", str(catalog),
            "--start", "2011-01", "--end", "2011-02", "--out", str(out)]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
class TestExitPaths:
    def test_clean_validate_is_silent(self, buffered):
        proc = cloudcost_process(["validate", DEMO_MODEL], buffered)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")

    def test_clamping_simulate_writes_its_files_then_warns(self, tmp_path, buffered):
        out = tmp_path / "out"
        proc = cloudcost_process(patterns_simulate(out), buffered)
        assert (proc.returncode, proc.stdout) == (0, "")
        assert proc.stderr == "".join(
            f"warning: vm-clamping-temp/vm_hours: clamped negative value to 0 on {day} "
            "(pattern 1: temp: every month on weekends -1000)\n" for day in CLAMPED)
        assert sorted(p.name for p in out.iterdir()) == ["report.csv", "report.html",
                                                        "summary.json"]
        assert (out / "report.csv").read_bytes() == (GOLDEN / "patterns_report.csv").read_bytes()

    def test_invalid_model_exits_1(self, tmp_path, buffered):
        proc = cloudcost_process(["validate", invalid_model(tmp_path)], buffered)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "model validation failed\n"
            "  error: nodes[0].requirements[0].patterns[0]: day of month out of range: 32 "
            "(column 22 of 'temp: every month on 32 +1')\n")

    def test_help_exits_0(self, buffered):
        proc = cloudcost_process(["--help"], buffered)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout in [usage + HELP for usage in USAGES]

    def test_missing_option_exits_2(self, buffered):
        proc = cloudcost_process(["simulate", "--model", DEMO_MODEL, "--catalog", DEMO_CATALOG,
                                  "--start", "2011-01", "--end", "2011-02"], buffered)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr in [usage + "cloudcost simulate: error: the following arguments "
                               "are required: --out\n" for usage in SIMULATE_USAGES]

    def test_unknown_command_exits_2(self, buffered):
        proc = cloudcost_process(["bogus"], buffered)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr in [usage + error for usage in USAGES for error in UNKNOWN_COMMANDS]

    def test_missing_file_exits_2(self, tmp_path, buffered):
        absent = tmp_path / "absent.json"
        proc = cloudcost_process(["validate", str(absent)], buffered)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: [Errno 2] No such file or directory: '{absent}'\n"

    def test_missing_rate_exits_3_and_writes_nothing(self, tmp_path, buffered):
        out = tmp_path / "out"
        proc = cloudcost_process(norate_simulate(tmp_path, out), buffered)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ("error: web-1/vm_hours: no rate for "
                               "nimbus/us-east/vm_hours/standard.small\n")
        assert not out.exists()

    def test_closed_stdout_is_skipped(self, buffered):
        # fd 1 closed before start: sys.stdout is None, as the teardown expects
        proc = closed_fd_process(1, ["validate", DEMO_MODEL], buffered)
        assert (proc.returncode, proc.stderr) == (0, "")

    # A stdout that cannot take the output is an unwritable output: exit 2 and
    # one error line, whether the write fails during the command (write-through)
    # or at the final flush (buffered, after the command's own warning).
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exits_2(self, buffered):
        with open("/dev/full", "w") as full:
            proc = cloudcost_process(COMPARE_DEMO, buffered, stdout=full)
        assert proc.returncode == 2
        assert proc.stderr == (TIE if buffered else "") + (
            "error: [Errno 28] No space left on device\n")

    def test_closed_pipe_stdout_exits_2(self, buffered):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = cloudcost_process(COMPARE_DEMO, buffered, stdout=write)
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert proc.stderr == (TIE if buffered else "") + "error: [Errno 32] Broken pipe\n"


def unwritable_stderr_process(argv, buffered, stderr):
    """``cloudcost_process`` with a stderr of /dev/full or closed at start."""
    if stderr == "closed":
        return closed_fd_process(2, argv, buffered)
    with open("/dev/full", "w") as full:
        return cloudcost_process(argv, buffered, stderr=full)


# A stderr that cannot take cloudcost's warnings and errors changes no exit
# code and no output: each line is skipped, whether the write fails or there
# is no stderr (fd 2 closed at start, sys.stderr is None).
@pytest.mark.parametrize("stderr", [
    pytest.param("full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                  reason="needs /dev/full")),
    "closed",
])
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
class TestUnwritableStderr:
    def test_clamping_simulate_exits_0(self, tmp_path, buffered, stderr):
        out = tmp_path / "out"
        proc = unwritable_stderr_process(patterns_simulate(out), buffered, stderr)
        assert (proc.returncode, proc.stdout) == (0, "")
        assert (out / "report.csv").read_bytes() == (GOLDEN / "patterns_report.csv").read_bytes()

    def test_missing_file_exits_2(self, tmp_path, buffered, stderr):
        proc = unwritable_stderr_process(["validate", str(tmp_path / "absent.json")],
                                         buffered, stderr)
        assert (proc.returncode, proc.stdout) == (2, "")

    def test_invalid_model_exits_1(self, tmp_path, buffered, stderr):
        proc = unwritable_stderr_process(["validate", invalid_model(tmp_path)], buffered, stderr)
        assert (proc.returncode, proc.stdout) == (1, "")

    def test_missing_rate_exits_3_and_writes_nothing(self, tmp_path, buffered, stderr):
        out = tmp_path / "out"
        proc = unwritable_stderr_process(norate_simulate(tmp_path, out), buffered, stderr)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert not out.exists()


class TestExitTimeTools:
    def test_cprofile_prints_its_table(self):
        proc = python(["-m", "cProfile", "-m", "cloudcost", "validate", DEMO_MODEL],
                      buffered=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "function calls" in proc.stdout

    def test_atexit_callbacks_run(self):
        script = ("import atexit, runpy, sys\n"
                  "atexit.register(print, 'atexit callback ran')\n"
                  "sys.argv = ['cloudcost', *sys.argv[1:]]\n"
                  "runpy.run_module('cloudcost', run_name='__main__')\n")
        proc = python(["-c", script, "validate", DEMO_MODEL], buffered=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "atexit callback ran\n", "")

    # An object that the teardown frees reports it; only a run that keeps the
    # normal exit frees it.
    @pytest.mark.parametrize("flags, hook, torn_down", [
        ([], "", False),
        (["-X", "dev"], "", True),
        ([], "sys.settrace(lambda *a: None)", True),
        ([], "sys.setprofile(lambda *a: None)", True),
    ], ids=["plain", "dev-mode", "tracer", "profiler"])
    def test_teardown_only_when_a_tool_reports_at_exit(self, flags, hook, torn_down):
        script = ("import os, runpy, sys\n"
                  "class Witness:\n"
                  "    def __del__(self, write=os.write):\n"
                  "        write(1, b'torn down\\n')\n"
                  "witness = Witness()\n"
                  "sys.argv = ['cloudcost', *sys.argv[1:]]\n"
                  f"{hook}\n"
                  "runpy.run_module('cloudcost', run_name='__main__')\n")
        proc = python([*flags, "-c", script, "validate", DEMO_MODEL], buffered=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ("torn down\n" if torn_down else "")


class TestCollector:
    """A ``cloudcost`` process runs with the cyclic collector off; a caller of
    :func:`cloudcost.cli.main` keeps the collector as it set it."""

    def test_a_process_runs_with_the_collector_off(self):
        script = ("import atexit, gc, runpy, sys\n"
                  "atexit.register(lambda: print('collector on:', gc.isenabled()))\n"
                  "sys.argv = ['cloudcost', *sys.argv[1:]]\n"
                  "runpy.run_module('cloudcost', run_name='__main__')\n")
        proc = python(["-c", script, "validate", DEMO_MODEL], buffered=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "collector on: False\n", "")

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_in_process_main_leaves_the_collector_as_it_was(self, capsys, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            import cloudcost.__main__  # noqa: F401 -- importing it changes nothing either
            from cloudcost.cli import main

            assert main(["validate", DEMO_MODEL]) == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert capsys.readouterr() == ("", "")
