"""Benchmark of the exitchoice library and command-line tool.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client: this process starts every child process
in turn and waits for it, so at most one child runs beside it):

pipeline_battery   the CLI session simulate -> estimate -> predict on the
                   fielded 8-scenario battery at 50,000 observations, three
                   subprocesses per session.
recovery_distinct  an in-process Monte-Carlo recovery study: batches of 10
                   replications of generate_dataset -> fit_mnl ->
                   inference_table, each on 5,000 distinct choice sets.
design_factorial   CLI design over the 2048-scenario factorial, size 8, 10
                   restarts, search seed 0 in every unit.

``--trace 0`` measures the untraced program and reports the end-to-end
metrics.  The run pins itself and its children to one CPU; while a unit
runs, a thread times a fixed computation on that CPU every 0.1 s
(perfbench/yardstick.py).  ``wall_rel`` is the mean unit time over the
mean sample, which cancels the drift in the machine's speed.
``--trace 1`` interleaves the same untraced units with traced replays
(perfbench/worker.py) and reports the per-layer metrics.  Metric
names and units come from BENCHMARK.json.  Every output is checked outside
the timed regions.  The last line of standard output is the JSON result;
the line before it is a JSON record of every sample, the deterministic
counts and the environment.  Exits non-zero, without a result, when the
program cannot be imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench_work"

#: Every child is killed once the run has lasted this long, so that the
#: run ends within 180 seconds even if the program hangs.
DEADLINE_S = 170.0
#: No unit starts after this, so that a slow machine still ends in time.
LAST_START_S = 120.0
#: The CLI workloads set up SETUP_FIRST times before the first unit and
#: SETUP_BETWEEN times after every unit, so that the setup_s median spans
#: the whole run; the recovery study sets up once per unit.
SETUP_FIRST, SETUP_BETWEEN = 3, 2
MIN_UNITS = 2

#: pipeline_battery: 6,250 respondents for each of the 8 fielded scenarios.
N_PER_SCENARIO = 6250
N_SCENARIOS = 8
C1_SHARE = 0.25
#: design_factorial: every unit searches with this seed, whatever the
#: workload seed.  The work of a 10-restart search depends on its seed
#: (698,000 to 1,008,000 D-error evaluations over 10 seeds), so a run of
#: two or three searches with drawn seeds measured its seeds as much as
#: the program.
DESIGN_SEARCH_SEED = 0

#: Layers whose spans are reported as inclusive seconds per unit of work.
SPAN_METRICS = (
    "io.read_choice_csv", "io.read_params_csv", "io.read_scenarios_csv",
    "io.write_choice_csv", "io.write_inference_csv",
    "io.write_probabilities_csv", "io.write_scenarios_csv",
    "simulation.generate_dataset", "estimation.fit_mnl",
    "estimation.log_likelihood", "estimation.hessian",
    "estimation.inference_table", "design.full_factorial",
    "design.fisher_information", "design.d_error", "design.search_design",
)
RENAMED = {"estimation.fit_mnl": "estimation.fit",
           "estimation.inference_table": "estimation.inference"}
#: Core functions reported as mean microseconds per call.
PER_CALL = ("core.choice_probabilities", "core.design_matrix")
#: Counts that must repeat exactly for one seed.
COUNTS = ("estimation.newton_iters", "simulation.obs", "estimation.groups",
          "estimation.obs", "design.candidates", "design.linalg_matrices",
          "core.calls", "io.choice_csv_mb")
#: Traced runs of the CLI workloads time this many ``--help`` calls of the
#: CLI: interpreter start plus the import of numpy and exitchoice.
STARTUP_CALLS = 3


class Unrunnable(Exception):
    """The program cannot run from this checkout; no result is printed."""


class Proc:
    def __init__(self, code: int, wall_s: float, rss_mb: float):
        self.code, self.wall_s, self.rss_mb = code, wall_s, rss_mb


class Bench:
    """State of one benchmark run: children, samples, counts, failures."""

    def __init__(self, args):
        self.seed, self.seconds, self.trace = args.seed, args.seconds, args.trace
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.layers: list[dict] = []
        self.results = 0
        self.reps_per_unit = 1

    # -- children ----------------------------------------------------------

    def spawn(self, argv: list[str], sampled: bool = False) -> Proc:
        """Run a child to completion; wall time and its own peak RSS.

        A ``sampled`` child (a unit of work) runs beside a yardstick
        sampler, whose samples are kept as ``yardstick_s``.
        """
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        sampler = yardstick.Sampler() if sampled else None
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT,
                                env=self.env, stdout=subprocess.DEVNULL)
        if sampler:
            sampler.start()
        lock, reaped = threading.Lock(), [False]

        def kill():
            with lock:
                if not reaped[0]:
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - t0
            with lock:
                reaped[0] = True
            timer.cancel()
            if sampler:
                self.samples.setdefault("yardstick_s", []).extend(
                    sampler.stop())
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)

    def cli(self, argv: list) -> Proc:
        return self.spawn([sys.executable, "-m", "exitchoice.cli", *argv],
                          sampled=True)

    def worker(self, *argv, sampled: bool = False) -> tuple[Proc, dict | None]:
        self.results += 1
        result = WORK / f"result-{self.results}.json"
        proc = self.spawn([sys.executable, WORKER, "--result", result, *argv],
                          sampled)
        if proc.code != 0 or not result.exists():
            return proc, None
        return proc, json.loads(result.read_text())

    # -- bookkeeping -------------------------------------------------------

    def operation(self, what: str, problems: list[str]) -> bool:
        """Count one attempted operation; record it as failed if any
        problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, name: str, value: float) -> None:
        """Record a deterministic count; a value that drifts is an error."""
        if name in self.counts and self.counts[name] != value:
            self.failures.append(f"count {name} drifted: {self.counts[name]}"
                                 f" then {value} for one seed")
        self.counts.setdefault(name, value)

    def median(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) if values else 0.0

    def setup(self, workload: str, directory: Path, times: int) -> None:
        """Build the inputs ``times`` times, each in a fresh interpreter;
        every wall time is a setup_s sample.  The copies are identical."""
        for _ in range(times):
            proc, _ = self.worker("setup", workload, "--seed", self.seed,
                                  "--dir", directory)
            if proc.code != 0:
                raise Unrunnable(f"setup of {workload} failed "
                                 f"(exit {proc.code})")
            self.sample("setup_s", proc.wall_s)

    def cli_startup(self) -> None:
        """Sample ``cli.startup_s`` (traced runs only)."""
        for _ in range(STARTUP_CALLS if self.trace else 0):
            proc = self.spawn([sys.executable, "-m", "exitchoice.cli",
                               "--help"])
            if proc.code != 0:
                raise Unrunnable(f"exitchoice.cli --help failed "
                                 f"(exit {proc.code})")
            self.sample("cli.startup_s", proc.wall_s)

    def setup_between(self, workload: str) -> None:
        """Repeat the set-up between units (untraced runs only), in a
        directory of its own so the inputs in use are never rewritten."""
        if not self.trace:
            directory = WORK / "setup-repeat"
            directory.mkdir(exist_ok=True)
            self.setup(workload, directory, SETUP_BETWEEN)

    def add_layers(self, spans: list[dict], counts: dict) -> None:
        """Per-layer values of one traced unit from its spans (summed over
        the unit's processes) and counts."""
        total, calls = _sum_spans(spans, "total_s"), _sum_spans(spans, "calls")
        values = {f"{RENAMED.get(n, n)}_s": total.get(n, 0.0)
                  for n in SPAN_METRICS}
        for name in PER_CALL:
            n = calls.get(name, 0)
            values[f"{name}_us"] = 1e6 * total.get(name, 0.0) / n if n else 0.0
        counts = dict(counts, **{"core.calls": sum(calls.get(n, 0)
                                                   for n in PER_CALL)})
        for name, value in counts.items():
            self.count(name, value)
        self.layers.append({"values": values, "calls": calls,
                            "self_s": _sum_spans(spans, "self_s")})


def _sum_spans(spans: list[dict], key: str) -> dict:
    out: dict = {}
    for snap in spans:
        for name, t in snap[key].items():
            out[name] = out.get(name, 0) + t
    return out


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _interleave(bench: Bench, run_unit, between=None) -> None:
    """Run units until the measured time is about --seconds.

    A unit starts only if, at the mean unit time so far, it would end
    nearer to --seconds than stopping now; so a run of long units does not
    overshoot by most of a unit.  Untraced units only with --trace 0.  With
    --trace 1 untraced and traced units alternate, starting untraced, until
    there are at least two of each.  ``between`` runs after every unit.
    """
    measured, untraced, traced = 0.0, 0, 0
    while (untraced < MIN_UNITS or (bench.trace and traced < MIN_UNITS)
           or measured + measured / (untraced + traced) / 2 < bench.seconds):
        is_traced = bool(bench.trace) and untraced > traced
        wall = run_unit(is_traced, untraced + traced)
        measured += wall
        traced += is_traced
        untraced += not is_traced
        if between:
            between()
        if time.monotonic() - bench.started > LAST_START_S:
            break


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def pipeline_battery(bench: Bench) -> None:
    d = WORK / "pipeline_battery"
    d.mkdir(parents=True)
    bench.setup("pipeline_battery", d, 1 if bench.trace else SETUP_FIRST)
    bench.cli_startup()
    steps = [
        ("simulate", ["simulate", "--params", d / "params.csv",
                      "--scenarios", d / "battery.csv",
                      "--n", N_PER_SCENARIO, "--c1-share", C1_SHARE,
                      "--seed", bench.seed, "--out", d / "choices.csv"]),
        ("estimate", ["estimate", "--data", d / "choices.csv",
                      "--config", d / "model.json",
                      "--out", d / "fit.csv"]),
        ("predict", ["predict", "--params", d / "fit.csv",
                     "--scenarios", d / "battery.csv",
                     "--out", d / "predicted.csv"]),
    ]
    outputs = {"simulate": "choices.csv", "estimate": "fit.csv",
               "predict": "predicted.csv"}
    reference: dict[str, str] = {}

    def unit(traced: bool, index: int) -> float:
        walls, rss, spans, counts = {}, 0.0, [], {}
        for step, argv in steps:
            if traced:
                proc, res = bench.worker("replay", "--", *argv)
                ok = res is not None and res["code"] == 0
                if ok:
                    proc.wall_s -= res["untimed_s"]
                    spans.append(res["spans"])
                    counts.update(res["counts"])
            else:
                proc = bench.cli(argv)
                ok = proc.code == 0
            if not ok:
                for done in walls:
                    bench.operation(f"unit {index} {done}", [])
                bench.operation(f"unit {index} {step}",
                                [f"exit status {proc.code}"])
                return sum(walls.values()) + proc.wall_s
            walls[step], rss = proc.wall_s, max(rss, proc.rss_mb)

        problems = {step: [] for step in outputs}
        if not reference:
            _, res = bench.worker("check", "pipeline_battery", "--dir", d,
                                  "--obs", N_PER_SCENARIO * N_SCENARIOS)
            if res is None:
                problems["estimate"].append("output check crashed")
            else:
                problems.update(res["failed"])
                for name, value in res["counts"].items():
                    bench.count(name, value)
            reference.update({s: _digest(d / f) for s, f in outputs.items()})
            bench.count("io.choice_csv_mb",
                        (d / "choices.csv").stat().st_size / 1e6)
        else:
            for step, name in outputs.items():
                if _digest(d / name) != reference[step]:
                    problems[step].append(f"{name} differs from the checked "
                                          "session of the same seed")
        ok = all([bench.operation(f"unit {index} {step}", problems[step])
                  for step in outputs])
        wall = sum(walls.values())
        if ok:
            prefix = "traced_" if traced else ""
            bench.sample(f"{prefix}wall_s", wall)
            for step, t in walls.items():
                bench.sample(f"{prefix}{step}_s", t)
            if traced:
                bench.add_layers(spans, counts)
            else:
                bench.sample("peak_rss_mb", rss)
        return wall

    _interleave(bench, unit, lambda: bench.setup_between("pipeline_battery"))


def design_factorial(bench: Bench) -> None:
    d = WORK / "design_factorial"
    d.mkdir(parents=True)
    bench.setup("design_factorial", d, 1 if bench.trace else SETUP_FIRST)
    bench.cli_startup()
    written: list[str] = []

    def unit(traced: bool, index: int) -> float:
        out = f"design-{index}.csv"
        argv = ["design", "--config", d / "design.json",
                "--seed", DESIGN_SEARCH_SEED, "--out", d / out]
        if traced:
            proc, res = bench.worker("replay", "--", *argv)
            ok = res is not None and res["code"] == 0
        else:
            proc = bench.cli(argv)
            ok = proc.code == 0
        if not ok:
            bench.operation(f"unit {index} design",
                            [f"exit status {proc.code}"])
            return proc.wall_s
        if traced:
            proc.wall_s -= res["untimed_s"]
            bench.add_layers([res["spans"]], res["counts"])
            bench.sample("traced_wall_s", proc.wall_s)
        else:
            bench.sample("wall_s", proc.wall_s)
            bench.sample("peak_rss_mb", proc.rss_mb)
        written.append(out)
        return proc.wall_s

    _interleave(bench, unit, lambda: bench.setup_between("design_factorial"))
    _, res = bench.worker("check", "design_factorial", "--dir", d,
                          "--files", *written)
    if res is None:
        for out in written:
            bench.operation(out, ["output check crashed"])
        return
    for item in res["designs"]:
        if bench.operation(item["file"], item["failed"]):
            bench.sample("d_error", item["d_error"])
        bench.count("design.candidates", item["design.candidates"])


def recovery_distinct(bench: Bench) -> None:
    def unit(traced: bool, index: int) -> float:
        proc, res = bench.worker("recovery", "--seed", bench.seed,
                                 "--spawned", time.monotonic(),
                                 "--trace", int(traced), sampled=True)
        if res is None:
            bench.operation(f"unit {index} recovery",
                            [f"exit status {proc.code}"])
            return proc.wall_s
        bench.attempted += res["reps"]
        bench.failed += len({m.split(":", 1)[0] for m in res["failed"]})
        bench.failures += [f"unit {index} {m}" for m in res["failed"]]
        bench.count("estimation.newton_iters", sum(res["iterations"]))
        if traced:
            bench.add_layers([res["spans"]], res["counts"])
            bench.sample("traced_wall_s", res["wall_s"])
        else:
            bench.sample("setup_s", res["setup_s"])
            bench.sample("wall_s", res["wall_s"])
            bench.sample("peak_rss_mb", proc.rss_mb)
            bench.reps_per_unit = res["reps"]
        return res["wall_s"]

    _interleave(bench, unit)


WORKLOADS = {"pipeline_battery": pipeline_battery,
             "recovery_distinct": recovery_distinct,
             "design_factorial": design_factorial}


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------

def environment(bench: Bench, program: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": bench.nproc, "pinned_to_cpu": bench.cpu, "cpu": cpu,
            "python": platform.python_version(), **program,
            "seed": bench.seed, "seconds": bench.seconds,
            "trace": bench.trace}


def per_layer_values(bench: Bench) -> dict[str, float]:
    values: dict[str, float] = {}
    for name in bench.layers[0]["values"] if bench.layers else ():
        values[name] = statistics.median(u["values"][name]
                                         for u in bench.layers)
    for name in COUNTS:
        values[name] = bench.counts.get(name, 0)
    for name in ("simulate_s", "estimate_s", "predict_s", "d_error"):
        values[name] = bench.median(name)
    untraced, traced = bench.median("wall_s"), bench.median("traced_wall_s")
    values["trace.overhead_frac"] = (traced - untraced) / untraced \
        if untraced else 0.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = Bench(args)
    # One CPU for this process and, by inheritance, every child, so that
    # the yardstick sampler times the CPU the unit runs on.  numpy's BLAS
    # then starts one thread.
    bench.nproc = len(os.sched_getaffinity(0))
    bench.cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {bench.cpu})

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if not (ROOT / "src" / "exitchoice" / "__init__.py").is_file():
            raise Unrunnable(f"no exitchoice sources under {ROOT / 'src'}")
        proc, program = bench.worker("env")
        if program is None:
            raise Unrunnable(f"exitchoice does not import (exit {proc.code})")
        WORKLOADS[args.workload](bench)
    except Unrunnable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    walls = bench.samples.get("wall_s")
    if walls:
        bench.sample("reps_per_s", bench.reps_per_unit * len(walls) / sum(walls))
        # Means, not medians: a unit's wall time and the mean of the samples
        # taken during it both integrate the machine's speed over the unit.
        bench.sample("wall_rel", statistics.fmean(walls)
                     / statistics.fmean(bench.samples["yardstick_s"]))
    values = {name: bench.median(name) for name in bench.samples}
    values["error_rate"] = (bench.failed / bench.attempted
                            if bench.attempted else 1.0)
    if args.trace:
        values.update(per_layer_values(bench))
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    detail = {
        "workload": args.workload,
        "environment": environment(bench, program),
        "samples": {n: {"median": statistics.median(v), "max": max(v),
                        "n": len(v), "values": v}
                    for n, v in bench.samples.items()},
        "counts": bench.counts,
        "self_s": {n: statistics.median(u["self_s"].get(n, 0.0)
                                        for u in bench.layers)
                   for n in (bench.layers[0]["self_s"] if bench.layers
                             else ())},
        "failures": bench.failures[:50],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not bench.failures,
                      "attempted": max(bench.attempted, 1),
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
