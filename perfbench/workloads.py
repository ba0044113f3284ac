"""Inputs and output checks of the three benchmark workloads.

Every input is a pure function of the workload seed.  The CLI workloads get
their inputs as files in a work directory; the recovery study builds its
scenario sets in memory.  The checks run outside every timed region and
return one list of failure messages per checked operation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from exitchoice import design, estimation, io
from exitchoice import reference as ref
from exitchoice.core import ExitAttributes, Scenario

TOL = 1e-6

# pipeline_battery: the documented simulate -> estimate -> predict session
# (its sizes are arguments of the CLI calls made by run.py).
PIPELINE_TRUTH = ref.FIRST_CHOICE_ESTIMATES

# recovery_distinct: replications of generate -> fit -> inference in-process.
RECOVERY_SPEC = ref.POOLED_SPEC
RECOVERY_TRUTH = ref.estimates_vector(ref.POOLED_SPEC, ref.POOLED_ESTIMATES)
RECOVERY_REPS = 10           # replications per timed batch
RECOVERY_SCENARIOS = 5000    # distinct scenarios per replication
EXIT_LABELS = ref.EXIT_LABELS

# design_factorial: CLI design over the 2048-scenario factorial.
DESIGN_SIZE = 8

#: A fitted coefficient farther than this many standard errors from the
#: truth fails its check (about 6e-7 per coefficient for a correct sampler).
MAX_Z = 5.0
#: Predicted probabilities of one scenario must sum to 1 within this.
SUM_TOL = 1e-12
#: CLI estimates must equal an in-process fit of the same file within this.
FIT_TOL = 1e-10
#: The written D-error must equal a recomputation within this.
D_TOL = 1e-12


def replication_seed(seed: int, rep: int) -> int:
    """Choice-draw seed of replication ``rep`` for a workload seed."""
    return seed * 1000 + rep


def write_pipeline_inputs(directory: Path) -> None:
    """Coefficient table, fielded battery and first-choice model config."""
    lines = ["name,estimate,std_error"]
    lines += [f"{name},{est!r},{se!r}"
              for name, (est, se) in PIPELINE_TRUTH.items()]
    (directory / "params.csv").write_text("\n".join(lines) + "\n")
    io.write_scenarios_csv(directory / "battery.csv", ref.EXPERIMENT_SCENARIOS)
    (directory / "model.json").write_text(json.dumps({
        "version": 1,
        "model": {"terms": [{"attr": a, "first_choice": True}
                            for a, _ in ref.FIRST_CHOICE_SPEC.terms]},
        "estimate": {"tol": TOL},
    }, indent=2))


def write_design_inputs(directory: Path) -> None:
    """Design config: reference levels, pooled priors, size 8, default
    restart count (the search seed is a CLI argument)."""
    (directory / "design.json").write_text(json.dumps({
        "version": 1,
        "model": {"terms": [{"attr": a} for a, _ in ref.POOLED_SPEC.terms]},
        "levels": {label: {attr: list(values) for attr, values in per.items()}
                   for label, per in ref.EXPERIMENT_LEVELS.levels.items()},
        "priors": {name: est for name, (est, _) in
                   ref.POOLED_ESTIMATES.items()},
        "design": {"size": DESIGN_SIZE},
    }, indent=2))


def distinct_scenarios(seed: int, rep: int) -> list[Scenario]:
    """Replication ``rep``'s choice sets: every scenario differs.

    Occupancy is an integer 0-10, distance uniform in 2-8 m and smoke a
    fair coin at every exit; exit A is the familiar one.
    """
    rng = np.random.default_rng([seed, rep])
    shape = (RECOVERY_SCENARIOS, len(EXIT_LABELS))
    occupancy = rng.integers(0, 11, size=shape)
    distance = rng.uniform(2.0, 8.0, size=shape)
    smoke = rng.integers(0, 2, size=shape)
    scenarios = [
        Scenario(id=i + 1, alternatives=tuple(
            (label, ExitAttributes(np=int(occupancy[i, j]),
                                   dist=float(distance[i, j]),
                                   smoke=int(smoke[i, j]), fam=int(j == 0)))
            for j, label in enumerate(EXIT_LABELS)))
        for i in range(RECOVERY_SCENARIOS)]
    if len({s.alternatives for s in scenarios}) != len(scenarios):
        raise RuntimeError(f"replication {rep}: scenarios are not distinct")
    return scenarios


def recovery_inputs(seed: int) -> list[list[Scenario]]:
    return [distinct_scenarios(seed, rep) for rep in range(RECOVERY_REPS)]


def n_groups(data) -> int:
    """Distinct (choice set, first-choice flag) pairs in a dataset."""
    return len({(obs.scenario.alternatives, obs.first_choice)
                for obs in data})


def check_estimates(rows, truth) -> list[str]:
    """Finite standard errors and every estimate within MAX_Z SE of truth.

    ``rows`` holds (name, estimate, standard error) triples.
    """
    problems = []
    for (name, estimate, se), true in zip(rows, truth):
        if not (math.isfinite(se) and se > 0):
            problems.append(f"{name}: standard error {se!r}")
        elif abs(estimate - true) > MAX_Z * se:
            problems.append(f"{name}: estimate {estimate:.6g} is more than "
                            f"{MAX_Z:g} SE from {true:.6g}")
    return problems


def _footer(path: Path) -> dict[str, str]:
    lines = path.read_text().splitlines()
    if not lines or not lines[-1].startswith("# "):
        raise ValueError(f"{path.name}: no footer line")
    return dict(item.split("=", 1) for item in lines[-1][2:].split())


def check_pipeline(directory: Path, n_obs: int) -> tuple[dict, dict]:
    """Check one simulate -> estimate -> predict session of ``n_obs``
    observations.

    Returns failure messages per CLI step and the session's counts.
    """
    failed = {"simulate": [], "estimate": [], "predict": []}
    data = io.read_choice_csv(directory / "choices.csv")
    if len(data) != n_obs:
        failed["simulate"].append(f"{len(data)} observations, expected "
                                  f"{n_obs}")

    cfg = io.load_config(directory / "model.json")
    fit = estimation.fit_mnl(data, io.model_from_config(cfg),
                             **io.estimate_options(cfg))
    spec = fit.spec
    written = io.read_params_csv(directory / "fit.csv")
    footer = _footer(directory / "fit.csv")
    iterations = int(footer["iterations"])
    names = spec.coef_names()
    if tuple(written) != names:
        failed["estimate"].append(f"coefficients {list(written)}, expected "
                                  f"{list(names)}")
    else:
        gap = max(abs(written[n][0] - b) for n, b in zip(names, fit.estimates))
        if gap > FIT_TOL:
            failed["estimate"].append(f"estimates differ from an in-process "
                                      f"fit by {gap:.3g}")
        failed["estimate"] += check_estimates(
            [(n, *written[n]) for n in names],
            [PIPELINE_TRUTH[n][0] for n in names])
    if footer.get("converged") != "True" or iterations != fit.iterations:
        failed["estimate"].append(f"footer {footer} disagrees with the "
                                  f"in-process fit ({fit.iterations} "
                                  "iterations)")

    sums: dict[str, float] = {}
    for sid, _, p in _probability_rows(directory / "predicted.csv"):
        sums[sid] = sums.get(sid, 0.0) + p
    if len(sums) != len(ref.EXPERIMENT_SCENARIOS):
        failed["predict"].append(f"{len(sums)} scenarios predicted")
    for sid, total in sums.items():
        if abs(total - 1.0) > SUM_TOL:
            failed["predict"].append(f"scenario {sid}: probabilities sum "
                                     f"to {total!r}")
    counts = {"estimation.newton_iters": iterations,
              "simulation.obs": len(data), "estimation.obs": fit.n_obs,
              "estimation.groups": n_groups(data)}
    return failed, counts


def _probability_rows(path: Path):
    lines = path.read_text().splitlines()
    if lines[:1] != ["scenario_id,alt_label,probability"]:
        raise ValueError(f"{path.name}: bad header")
    for line in lines[1:]:
        sid, label, p = line.split(",")
        yield sid, label, float(p)


def check_design(config: Path, written: Path) -> tuple[list[str], float, int]:
    """Check one written design; returns failures, its D-error and the
    candidate count."""
    cfg = io.load_config(config)
    spec = io.model_from_config(cfg)
    priors = io.priors_from_config(cfg, spec)
    candidates = design.full_factorial(io.levels_from_config(cfg))
    universe = {s.alternatives for s in candidates}
    problems = []
    footer = float(_footer(written)["d_error"])
    scenarios = io.read_scenarios_csv(written)
    recomputed = design.d_error(scenarios, spec, priors)
    if not abs(recomputed - footer) <= D_TOL:
        problems.append(f"footer d_error {footer!r} but recomputed "
                        f"{recomputed!r}")
    picked = {s.alternatives for s in scenarios}
    if len(scenarios) != DESIGN_SIZE or len(picked) != DESIGN_SIZE:
        problems.append(f"{len(scenarios)} scenarios, {len(picked)} "
                        f"distinct; expected {DESIGN_SIZE}")
    if not picked <= universe:
        problems.append("a selected scenario is not in the full factorial")
    return problems, footer, len(candidates)
