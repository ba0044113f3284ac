"""Child processes of the exitchoice benchmark (see run.py).

Each subcommand runs in a fresh interpreter started by run.py and writes
one JSON object to the file named by ``--result``:

``env``       environment record; also fails if exitchoice is not the copy
              under this checkout's ``src``.
``setup``     write the input files of a CLI workload.
``check``     check the outputs of the CLI workloads.
``replay``    run one CLI subcommand in-process with layer tracing on.
``recovery``  one timed batch of the in-process Monte-Carlo recovery study.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def cmd_env(args) -> dict:
    import exitchoice
    where = Path(exitchoice.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"exitchoice imported from {where}, not from "
                         f"{ROOT / 'src'}")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):     # numpy < 1.25 prints its config only
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def cmd_setup(args) -> dict:
    import workloads
    directory = Path(args.dir)
    if args.workload == "pipeline_battery":
        workloads.write_pipeline_inputs(directory)
    else:
        workloads.write_design_inputs(directory)
    return {}


def cmd_check(args) -> dict:
    import workloads
    directory = Path(args.dir)
    if args.workload == "pipeline_battery":
        failed, counts = workloads.check_pipeline(directory, args.obs)
        return {"failed": failed, "counts": counts}
    results = []
    for name in args.files:
        problems, d, candidates = workloads.check_design(
            directory / "design.json", directory / name)
        results.append({"file": name, "failed": problems, "d_error": d,
                        "design.candidates": candidates})
    return {"designs": results}


def _replay_counts(command: str, tracer) -> dict:
    """Counts of a traced CLI step, from the objects its layers returned.

    Runs after the step, outside its timing, and keeps only its own
    log-likelihood and Hessian evaluations as spans.
    """
    import workloads
    from exitchoice import estimation

    captured = tracer.captured
    counts = {}
    if command == "simulate":
        counts["simulation.obs"] = len(captured["simulation.generate_dataset"])
    elif command == "estimate":
        data = captured["io.read_choice_csv"]
        fit = captured["estimation.fit_mnl"]
        with tracer.only("estimation.log_likelihood", "estimation.hessian"):
            estimation.log_likelihood(data, fit.spec, fit.estimates)
            estimation.hessian(data, fit.spec, fit.estimates)
        counts.update({"estimation.newton_iters": fit.iterations,
                       "estimation.obs": fit.n_obs,
                       "estimation.groups": workloads.n_groups(data)})
    elif command == "design":
        counts["design.candidates"] = len(captured["design.full_factorial"])
        counts["design.linalg_matrices"] = tracer.counts.get(
            "design.linalg_matrices", 0)
    return counts


def cmd_replay(args) -> dict:
    import tracing
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from exitchoice import cli

    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    code = tracer.wrap("cli.main", cli.main)(argv)
    done = time.perf_counter()
    counts = _replay_counts(argv[0], tracer) if code == 0 else {}
    untimed = time.perf_counter() - done
    # The CLI frees its data before exiting; so does the replay, timed.
    tracer.captured.clear()
    return {"code": code, "spans": tracer.snapshot(), "counts": counts,
            "untimed_s": untimed}


def _per_fit(values: list[int]) -> float:
    return sum(values) / len(values) if values else 0.0


def cmd_recovery(args) -> dict:
    """One timed batch of replications in this fresh interpreter.

    ``setup_s`` runs from ``--spawned`` (the parent's CLOCK_MONOTONIC
    reading when it started this process) until the inputs are built.
    """
    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from exitchoice import estimation, simulation

    spec, truth = workloads.RECOVERY_SPEC, workloads.RECOVERY_TRUTH
    sets = workloads.recovery_inputs(args.seed)
    setup_s = time.monotonic() - args.spawned
    gc.collect()
    wall, iterations, failed, groups, obs = 0.0, [], [], [], []
    for rep, scenarios in enumerate(sets):
        t0 = time.perf_counter()
        try:
            data = simulation.generate_dataset(
                spec, truth, scenarios, n_per_scenario=1, c1_pattern=0.0,
                seed=workloads.replication_seed(args.seed, rep))
            fit = estimation.fit_mnl(data, spec, tol=workloads.TOL)
            rows = estimation.inference_table(fit)
        except (ValueError, np.linalg.LinAlgError,
                estimation.NotIdentifiedError) as exc:
            wall += time.perf_counter() - t0
            failed.append(f"replication {rep}: {exc}")
            continue
        wall += time.perf_counter() - t0
        iterations.append(fit.iterations)
        failed += [f"replication {rep}: {p}" for p in
                   workloads.check_estimates(
                       [(r.name, r.estimate, r.std_error) for r in rows],
                       truth)]
        if tracer:
            with tracer.only("estimation.log_likelihood",
                             "estimation.hessian"):
                estimation.log_likelihood(data, spec, fit.estimates)
                estimation.hessian(data, spec, fit.estimates)
            groups.append(workloads.n_groups(data))
            obs.append(len(data))
            tracer.captured.clear()
        del data
    result = {"setup_s": setup_s, "wall_s": wall, "reps": len(sets),
              "failed": failed, "iterations": iterations}
    if tracer:
        result["spans"] = tracer.snapshot()
        result["counts"] = {
            "estimation.newton_iters": sum(iterations),
            "simulation.obs": sum(obs),
            "estimation.groups": _per_fit(groups),
            "estimation.obs": _per_fit(obs)}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("env").set_defaults(func=cmd_env)
    for name, func in (("setup", cmd_setup), ("check", cmd_check)):
        p = sub.add_parser(name)
        p.add_argument("workload")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dir", required=True)
        p.add_argument("--files", nargs="*", default=[])
        p.add_argument("--obs", type=int, default=0)
        p.set_defaults(func=func)
    p = sub.add_parser("replay")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_replay)
    p = sub.add_parser("recovery")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=cmd_recovery)
    args = parser.parse_args(argv)
    result = args.func(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
