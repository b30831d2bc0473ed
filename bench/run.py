"""cloudcost benchmark: CLI workloads, end-to-end timings and a traced layer breakdown.

Run from the root of a checkout:

    python3 bench/run.py --workload demo-120 --seed 1 --seconds 25 --trace 0

The load is closed-loop with one client: one process runs one command at a
time, with no threads or pools. ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` is a separate run that wraps the
calls into each layer (see ``tracing.py``) and reports per-layer metrics.
Every invocation's exit code, stderr, stdout and output files are checked
against ``reference.json``. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from statistics import median

import synth
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "cloudcost" / "data"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).with_name("reference.json")
LAUNCHER = Path(__file__).with_name("launcher.py")

WORKLOADS = ("demo-120", "providers-3", "synthetic-500", "cli-short")
REFERENCE_SEEDS = range(1, 11)  # synthetic-500 seeds whose outputs are pinned
MIN_ITERATIONS = 3
MIN_INPROCESS_BATCH_S = 0.1  # repeat short in-process batches up to this
CALIBRATION_REFERENCE_S = 0.02  # reported times are scaled to a host this fast
CHILD_TIMEOUT_S = 120
OUT = "{out}"  # stands for a command's output directory in its arguments


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]  # files the command writes to its output directory

    def argv(self, out_root: Path) -> list[str]:
        out = str(out_root / self.label)
        return [out if arg == OUT else arg for arg in self.args]


def build_workload(name: str, seed: int, inputs: Path, tiny: bool) -> tuple[Command, ...]:
    """The workload's CLI commands; generated input files go under ``inputs``.

    ``tiny`` shrinks every workload for the self-test. Only synthetic-500
    depends on the seed; the others replay the bundled demo data.
    """
    model, catalog = str(DATA / "demo_model.json"), str(DATA / "demo_catalog.json")
    decade = ("--start", "2011-01", "--end", "2011-12" if tiny else "2020-12")
    reports = ("report.csv", "report.html", "summary.json")
    if name == "demo-120":
        return (Command("simulate", ("simulate", "--model", model, "--catalog", catalog,
                                     *decade, "--out", OUT), reports),)
    # providers-3 and synthetic-500 take shorter windows than demo-120, so one
    # command takes a few tenths of a second: over a longer sample the host's
    # speed changes too much for the gauge around it (see SpeedGauge).
    if name == "providers-3":
        providers = inputs / "providers.json"
        providers.write_text(json.dumps({
            "Nimbus": {"provider": "nimbus", "region": "us-east"},
            "Stratus": {"provider": "stratus", "region": "us-east"},
            "Cumulus": {"provider": "cumulus", "region": "us-east"},
        }, indent=1) + "\n", encoding="utf-8")
        return (Command("compare-providers",
                        ("compare-providers", "--model", model, "--catalog", catalog,
                         "--map", str(providers), "--start", "2011-01",
                         "--end", "2011-12" if tiny else "2013-12", "--out", OUT),
                        ("comparison.json",)),)
    if name == "synthetic-500":
        files = synth.write(seed, 20 if tiny else 500, inputs)
        return (Command("simulate", ("simulate", "--model", str(files["model"]),
                                     "--catalog", str(files["catalog"]),
                                     "--plan", str(files["plan"]),
                                     "--start", "2021-12", "--end", "2022-01",
                                     "--out", OUT), reports),)
    if name == "cli-short":
        return (
            Command("validate", ("validate", model), ()),
            Command("assess", ("assess", "--items", str(DATA / "assessment_items.json"),
                               "--ratings", str(DATA / "demo_ratings.csv"), "--out", OUT),
                    ("radar.json", "important.json")),
            Command("export-csv", ("export-csv", "--model", model, "--catalog", catalog,
                                   "--start", "2011-01", "--end", "2011-01", "--out", OUT),
                    ("report.csv",)),
        )
    raise ValueError(f"unknown workload {name!r}")


def reference_key(name: str, seed: int, tiny: bool) -> str:
    key = name + ("@tiny" if tiny else "")
    return f"{key}@seed{seed}" if name == "synthetic-500" else key


# --- running one command -------------------------------------------------------

@dataclass
class Invocation:
    code: int | None
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes | None]  # output name -> bytes, None when missing


def _collect(command: Command, out_root: Path) -> dict[str, bytes | None]:
    """Read and delete the command's outputs, so a stale file never passes."""
    files = {}
    for name in command.outputs:
        path = out_root / command.label / name
        files[name] = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
    return files


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


class Launcher:
    """A ``launcher.py`` process that starts children for this one, so that
    their max RSS is their own and not this process's (see launcher.py)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", str(LAUNCHER)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT, text=True)

    def _answer(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher.py ended with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, argv: list[str], stdout: Path, stderr: Path):
        """Run a child to completion: (exit code, wall s, user+sys CPU s, max RSS KiB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": str(stdout),
                                          "stderr": str(stderr)}) + "\n")
        self.proc.stdin.flush()
        pid = self._answer()["pid"]
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            result = self._answer()
        except _Timeout:
            os.kill(pid, signal.SIGKILL)
            self._answer()
            raise RuntimeError(f"{' '.join(argv[1:])} ran longer than "
                               f"{CHILD_TIMEOUT_S} s") from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        return result["code"], result["wall"], result["cpu"], result["rss_kib"]

    def close(self) -> None:
        """End the launcher, and wait until it has ended."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def sha256(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


class Runner:
    """Runs a workload's commands as fresh child processes and in-process,
    and checks every invocation against the reference outputs."""

    def __init__(self, commands: tuple[Command, ...], work: Path, reference: dict | None):
        self.commands = commands
        self.work = work
        self.reference = reference
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_hashes: dict[str, str | None] = {}
        self.launcher: Launcher | None = None
        for sub in ("child", "inproc", "log"):
            (work / sub).mkdir()
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import cloudcost.cli
        if Path(cloudcost.cli.__file__).resolve().parent != SRC / "cloudcost":
            raise RuntimeError(f"imported cloudcost from {cloudcost.cli.__file__}, "
                               f"not from {SRC}")
        self.cli = cloudcost.cli

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc) -> None:
        if self.launcher is not None:
            self.launcher.close()
            self.launcher = None

    def child(self, argv: list[str]):
        """Run ``python argv`` as a fresh process: (exit code, wall s, CPU s,
        max RSS KiB)."""
        if self.launcher is None:
            self.launcher = Launcher(self.env)
        return self.launcher.run([sys.executable, *argv], self.work / "log" / "stdout",
                                 self.work / "log" / "stderr")

    def child_batch(self, gauge: SpeedGauge | None = None) -> tuple[float, float, float]:
        """Every command as a fresh process: summed wall and CPU s, each
        command's scaled by ``gauge`` when given, and max RSS KiB."""
        wall = cpu = rss = 0.0
        for command in self.commands:
            code, w, c, r = self.child(["-m", "cloudcost", *command.argv(self.work / "child")])
            factor = gauge.factor() if gauge else 1.0
            wall, cpu, rss = wall + w * factor, cpu + c * factor, max(rss, r)
            self.check(command, Invocation(code, (self.work / "log" / "stdout").read_bytes(),
                                           (self.work / "log" / "stderr").read_bytes(),
                                           _collect(command, self.work / "child")))
        return wall, cpu, rss

    def inprocess_batch(self) -> float:
        """Every command through ``cli.main`` in this process; seconds taken."""
        elapsed = 0.0
        gc.collect()  # start every batch from the same heap state
        for command in self.commands:
            argv = command.argv(self.work / "inproc")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # reported as a failed invocation, like a child's
                    code = None
                    traceback.print_exc()
                elapsed += time.perf_counter() - start
            self.check(command, Invocation(code, stdout.getvalue().encode("utf-8"),
                                           stderr.getvalue().encode("utf-8"),
                                           _collect(command, self.work / "inproc")))
        return elapsed

    def check(self, command: Command, inv: Invocation) -> None:
        """Count the invocation, and fail it on a wrong exit code, a traceback,
        a missing output, or a sha256 that differs from the reference."""
        self.attempted += 1
        problems = []
        if inv.code != 0:
            problems.append(f"exit code {inv.code}")
        if b"Traceback" in inv.stderr:
            problems.append("Traceback on stderr")
        hashes = {f"{command.label}/stdout": sha256(inv.stdout)}
        hashes.update({f"{command.label}/{name}": sha256(data)
                       for name, data in inv.files.items()})
        for key, digest in hashes.items():
            if digest is None:
                problems.append(f"{key} was not written")
            elif self.reference is not None and self.reference.get(key) != digest:
                problems.append(f"sha256 of {key} differs from the reference")
        if self.reference is None:
            problems += invariant_problems(inv.files)
        if problems:
            self.failed += 1
            self.problems += [f"{command.label}: {p}" for p in problems]
        self.last_hashes.update(hashes)

    def adopt_reference(self) -> None:
        """Without a stored reference, later invocations must match the first."""
        if self.reference is None:
            self.reference = dict(self.last_hashes)


def invariant_problems(files: dict[str, bytes | None]) -> list[str]:
    """Checks that hold for any correct simulate output, whatever the inputs:
    the CSV's cost lines, each rounded to the cent, sum to the summary's total
    within half a cent per line, and the HTML states the same grand total."""
    csv_bytes, summary, page = (files.get(name) for name in
                                ("report.csv", "summary.json", "report.html"))
    if csv_bytes is None or summary is None or page is None:
        return []
    rows = csv_bytes.decode("utf-8").splitlines()[1:]
    total = sum((Decimal(row.rsplit(",", 1)[1]) for row in rows), Decimal(0))
    expected = json.loads(summary)["total"]
    problems = []
    if abs(total - Decimal(expected)) > Decimal("0.005") * len(rows):
        problems.append(f"report.csv costs sum to {total}, summary.json says {expected}")
    if f"grand total <strong>{expected} ".encode() not in page:
        problems.append(f"report.html does not state the grand total {expected}")
    return problems


# --- measurement ---------------------------------------------------------------

def calibration_s() -> float:
    """Seconds one fixed piece of pure-Python work takes: Decimal arithmetic,
    dict updates, string formatting, a sort and a JSON dump, the kinds of
    work the program does, plus fresh megabytes of memory touched page by
    page, as a starting interpreter does. Nothing in it depends on the
    program."""
    start = time.perf_counter()
    totals: dict[str, Decimal] = {}
    for i in range(3000):
        key = f"node-{i * 7919 % 499}/{i % 31}"
        totals[key] = totals.get(key, Decimal(0)) + (Decimal(i) / 7).quantize(Decimal("0.0001"))
    json.dumps(sorted((key, str(value)) for key, value in totals.items()))
    for _ in range(2):
        block = bytearray(4 << 20)
        for offset in range(0, len(block), 4096):
            block[offset] = 1
    names = [str(i) for i in range(20000)]
    sorted({name: i for i, name in enumerate(names)}, reverse=True)
    return time.perf_counter() - start


class SpeedGauge:
    """Scales timed samples to one host speed.

    A shared host runs this process up to twice as slowly in some stretches,
    and the stretches switch within a fraction of a second, so medians over a
    run move with the neighbours' load. The gauge times ``calibration_s``
    after every sample, on the same CPU as the sample (the benchmark pins
    itself and its children to one CPU). A sample is scaled by
    CALIBRATION_REFERENCE_S over the mean of the calibrations just before and
    just after it. Scaled times read as seconds on a host where the
    calibration takes CALIBRATION_REFERENCE_S; a change to the program moves
    them as it moves raw times.
    """

    def __init__(self) -> None:
        self.times = [calibration_s()]

    def factor(self) -> float:
        """The factor for the sample just taken."""
        self.times.append(calibration_s())
        return CALIBRATION_REFERENCE_S * 2 / (self.times[-2] + self.times[-1])


def pin_to_one_cpu() -> int:
    """Run this process, and the children it starts, on one CPU, so that the
    gauge and the samples it scales see the same CPU's speed."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def python_floor_s(runner: Runner) -> float:
    """Median wall time of ``python -c pass``: interpreter start-up, site and
    .pth hooks of this environment, none of it the program's."""
    return median([runner.child(["-c", "pass"])[1] for _ in range(3)])


def setup_s(runner: Runner) -> float:
    """Wall time of a fresh interpreter that imports ``cloudcost.cli``."""
    code, wall, _, _ = runner.child(["-c", "import cloudcost.cli"])
    if code != 0:
        raise RuntimeError("import cloudcost.cli failed in a fresh interpreter")
    return wall


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def import_s(runner: Runner) -> float:
    """Seconds ``-X importtime`` charges to cloudcost's own modules, with the
    stdlib modules they pull in, in a fresh interpreter."""
    runner.child(["-X", "importtime", "-c", "import cloudcost.cli"])
    total_us = 0
    for line in (runner.work / "log" / "stderr").read_text().splitlines():
        match = _IMPORT_LINE.match(line)
        if match and not match.group(3) and match.group(4).split(".")[0] == "cloudcost":
            total_us += int(match.group(2))
    return total_us / 1e6


def repeat_inprocess(runner: Runner, gauge: SpeedGauge) -> list[float]:
    """Scaled times of in-process batches, repeated until
    MIN_INPROCESS_BATCH_S has passed."""
    times, elapsed = [], 0.0
    while not times or elapsed < MIN_INPROCESS_BATCH_S:
        raw = runner.inprocess_batch()
        times.append(raw * gauge.factor())
        elapsed += raw
    return times


def traced_batch(runner: Runner) -> tuple[dict[str, float], tracing.Tracer]:
    tracer = tracing.Tracer()
    try:
        run_s = runner.inprocess_batch()
    finally:
        tracer.close()
    return {**tracing.layer_metrics(tracer, run_s), "trace.run_s": run_s}, tracer


def interleave(seconds: float, steps) -> None:
    """Run the steps in rotating order until ``seconds`` have passed and every
    step ran at least MIN_ITERATIONS times, so slow drift in the machine's
    speed reaches every metric alike."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_ITERATIONS or time.perf_counter() < deadline:
        for step in steps[i % len(steps):] + steps[:i % len(steps)]:
            step()
        i += 1


def measure_end_to_end(runner: Runner, seconds: float, lines: int) -> dict[str, tuple]:
    samples = defaultdict(list)
    gauge = SpeedGauge()

    def child_step():
        wall, cpu, rss = runner.child_batch(gauge)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss / 1024)

    def inprocess_step():
        samples["run_s"] += repeat_inprocess(runner, gauge)

    def setup_step():
        samples["setup_s"].append(setup_s(runner) * gauge.factor())

    interleave(seconds, [child_step, inprocess_step, setup_step])
    print("samples " + json.dumps({name: len(values) for name, values in samples.items()}))
    print(f"calibration_s median {median(gauge.times)}")
    metrics = {name: median(values) for name, values in samples.items()}
    metrics["lines_per_s"] = lines / metrics["run_s"]
    units = {"wall_s": "s", "cpu_s": "s", "run_s": "s", "setup_s": "s",
             "lines_per_s": "1/s", "peak_rss_mb": "MB"}
    return {name: (metrics[name], unit) for name, unit in units.items()}


def measure_layers(runner: Runner, seconds: float, name: str) -> dict[str, tuple]:
    samples = defaultdict(list)
    last: list[tracing.Tracer] = []
    gauge = SpeedGauge()

    def traced_step():
        metrics, tracer = traced_batch(runner)
        factor = gauge.factor()
        for key, value in metrics.items():
            samples[key].append(value * factor if key.endswith("_s") else value)
        last[:] = [tracer]

    def untraced_step():
        samples["untraced_run_s"] += repeat_inprocess(runner, gauge)

    def import_step():
        samples["cli.import_s"].append(import_s(runner) * gauge.factor())

    interleave(seconds, [traced_step, untraced_step, import_step])
    print("samples " + json.dumps({name: len(values) for name, values in samples.items()
                                   if name in ("trace.run_s", "untraced_run_s",
                                               "cli.import_s")}))
    print(f"calibration_s median {median(gauge.times)}")
    for key in tracing.EXACT_COUNTS:
        if len(set(samples[key])) != 1:
            runner.failed += 1
            runner.problems.append(f"{key} differs between traced batches")
    metrics = {key: median(values) for key, values in samples.items()}
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["untraced_run_s"]
    metrics["elasticity.us_per_day"] = (metrics["elasticity.replay_s"] * 1e6
                                        / metrics["elasticity.days_walked"])
    write_spans(last[0], name)
    return {key: (metrics[key], unit) for key, unit in tracing.METRIC_UNITS.items()}


def write_spans(tracer: tracing.Tracer, name: str) -> None:
    """Print per-span totals of the last traced batch; keep its raw spans in
    .bench_work/spans-<workload>.json as [name, start_ns, end_ns, parent]."""
    total, own = tracing.span_times(tracer.spans)
    calls = defaultdict(int)
    for span in tracer.spans:
        calls[span[0]] += 1
    print(f"{'span':22s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
    for span_name in sorted(total):
        print(f"{span_name:22s} {calls[span_name]:8d} {total[span_name]:10.6f} "
              f"{own[span_name]:10.6f}")
    (WORK / f"spans-{name}.json").write_text(json.dumps(tracer.spans), encoding="utf-8")


def environment(runner: Runner, nproc: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": nproc, "loadavg": os.getloadavg(),
            "python_floor_s": python_floor_s(runner)}


def load_reference(key: str) -> dict | None:
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return references.get(key)


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool, work: Path) -> dict:
    inputs = work / "inputs"
    inputs.mkdir()
    commands = build_workload(name, seed, inputs, tiny)
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    with Runner(commands, work, load_reference(reference_key(name, seed, tiny))) as runner:
        print("env " + json.dumps({**environment(runner, nproc), "pinned_cpu": cpu}))
        # Warm-up, untimed: compiles bytecode, fills the file cache and, with
        # the tracer on, counts the cost lines the workload produces.
        runner.child_batch()
        runner.adopt_reference()
        counts, _ = traced_batch(runner)
        print("outputs " + json.dumps(runner.last_hashes, sort_keys=True))
        if trace:
            metrics = measure_layers(runner, seconds, name)
        else:
            metrics = measure_end_to_end(runner, seconds, counts["engine.lines"])
    for problem in dict.fromkeys(runner.problems):
        print(f"behaviour change: {problem}", file=sys.stderr)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def record_reference() -> None:
    """Rewrite reference.json from the program as it is now."""
    references = {}
    for tiny in (False, True):
        for name in WORKLOADS:
            for seed in REFERENCE_SEEDS if name == "synthetic-500" else (0,):
                with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                    (Path(tmp) / "inputs").mkdir()
                    with Runner(build_workload(name, seed, Path(tmp) / "inputs", tiny),
                                Path(tmp), None) as runner:
                        runner.child_batch()
                    if runner.failed:
                        raise RuntimeError(f"{name}: {runner.problems}")
                    references[reference_key(name, seed, tiny)] = runner.last_hashes
    REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cloudcost benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (for the self-test)")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current program")
    args = parser.parse_args(argv)
    if not (SRC / "cloudcost" / "cli.py").is_file():
        print(f"error: no cloudcost source at {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny,
                     work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
