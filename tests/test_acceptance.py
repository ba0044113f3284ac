"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with output visible:  pytest -s tests/test_acceptance.py
"""

import itertools
import math
import time

import numpy as np

from exitchoice import (ExitAttributes, ModelSpec, Scenario,
                        SensitivityConfig, choice_probabilities, d_error,
                        effective_coefficients, fit_mnl, full_factorial,
                        generate_dataset, hessian, log_likelihood,
                        search_design, sensitivity_curve, two_sided_p,
                        utilities)
from exitchoice import io
from exitchoice import reference as ref
from exitchoice.cli import main

from oracles import gradient, softmax

SPEC2 = ref.FIRST_CHOICE_SPEC
TRUTH2 = np.array(ref.estimates_vector(SPEC2, ref.FIRST_CHOICE_ESTIMATES))


def report(number, name, ok, detail=""):
    print(f"\nACCEPTANCE {number:02d} {name}: "
          f"{'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def crowding_sweep(familiarity):
    return SensitivityConfig(
        sweep_attr="np", start=0, stop=10, step=0.5,
        swept_exit={"dist": 3.0, "smoke": 0},
        fixed_exit={"np": 5, "dist": 3.0, "smoke": 0},
        familiarity=familiarity, rule="significant")


def test_criterion_01_crowding_curve_endpoints():
    effective = effective_coefficients(ref.FIRST_CHOICE_ESTIMATES,
                                       rule="significant")
    stated = {"np": 0.233, "dist": -0.439, "smoke": -0.524, "fam": 0.735}
    derived_ok = all(abs(effective[k] - v) < 1e-12
                     for k, v in stated.items())
    curve = sensitivity_curve(ref.FIRST_CHOICE_ESTIMATES,
                              crowding_sweep("both"))
    low, high = curve[0][1], curve[-1][1]
    ok = derived_ok and abs(low - 0.23) <= 0.01 and abs(high - 0.76) <= 0.01
    report(1, "crowding-curve endpoints 0.23/0.76",
           ok, f"endpoints {low:.4f} -> {high:.4f}")


def test_criterion_02_familiarity_shift():
    at5 = {}
    for condition in ("A", "B"):
        curve = sensitivity_curve(ref.FIRST_CHOICE_ESTIMATES,
                                  crowding_sweep(condition))
        at5[condition] = dict(curve)[5.0]
    ok = abs(at5["A"] - 0.68) <= 0.01 and abs(at5["B"] - 0.32) <= 0.01
    report(2, "familiarity shift 0.68/0.32",
           ok, f"Fam A {at5['A']:.4f}, Fam B {at5['B']:.4f}")


def test_criterion_03_distance_curve_endpoints():
    config = SensitivityConfig(
        sweep_attr="dist", start=0, stop=6, step=0.25,
        swept_exit={"np": 0, "smoke": 0},
        fixed_exit={"np": 0, "dist": 3.0, "smoke": 0},
        familiarity="both", rule="significant")
    curve = sensitivity_curve(ref.FIRST_CHOICE_ESTIMATES, config)
    low, high = curve[0][1], curve[-1][1]
    ok = abs(low - 0.79) <= 0.01 and abs(high - 0.21) <= 0.01
    report(3, "distance-curve endpoints 0.79/0.21",
           ok, f"endpoints {low:.4f} -> {high:.4f}")


def test_criterion_04_inference_statistics():
    z1 = 0.218 / 0.200
    p1 = two_sided_p(z1)
    p2 = two_sided_p(0.413 / 0.522)
    ok = (abs(z1 - 1.088) <= 0.05
          and abs(p1 - 0.277) <= 0.002
          and abs(p2 - 0.429) <= 0.002)
    report(4, "z/p reproduction", ok,
           f"z={z1:.3f} p={p1:.4f}; p={p2:.4f}")


def test_criterion_05_factorial_count():
    start = time.perf_counter()
    scenarios = full_factorial(ref.EXPERIMENT_LEVELS)
    elapsed = time.perf_counter() - start
    ok = len(scenarios) == 2048 and elapsed < 1.0
    report(5, "factorial count 2048", ok,
           f"{len(scenarios)} scenarios in {elapsed:.3f}s")


def test_criterion_06_parameter_recovery_three_seeds():
    start = time.perf_counter()
    worst = 0.0
    for seed in (0, 1, 2):
        data = generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS,
                                n_per_scenario=6250, c1_pattern=0.25,
                                seed=seed)
        assert len(data) == 50_000
        fit = fit_mnl(data, SPEC2)
        assert fit.converged
        se = np.sqrt(np.diag(fit.vcov))
        deviations = np.abs(fit.estimates - TRUTH2) / se
        worst = max(worst, float(deviations.max()))
        if not np.all(deviations < 3.0):
            report(6, "50k-observation recovery", False,
                   f"seed {seed}: max deviation {deviations.max():.2f} SE")
    elapsed = time.perf_counter() - start
    ok = worst < 3.0 and elapsed < 60.0
    report(6, "50k-observation recovery", ok,
           f"worst deviation {worst:.2f} SE over 3 seeds in {elapsed:.1f}s")


def _random_scenarios(rng, count):
    scenarios = []
    for sid in range(count):
        n_alts = int(rng.integers(2, 5))
        rows = tuple(
            (f"X{j}", ExitAttributes(np=int(rng.integers(0, 11)),
                                     dist=float(rng.uniform(0, 8)),
                                     smoke=int(rng.integers(0, 2)),
                                     fam=int(rng.integers(0, 2))))
            for j in range(n_alts))
        scenarios.append(Scenario(id=sid + 1, alternatives=rows))
    return scenarios


def test_criterion_07_derivative_correctness():
    rng = np.random.default_rng(2024)
    h = 1e-5
    k = SPEC2.n_params
    worst_g, worst_h, worst_eig = 0.0, 0.0, -np.inf
    for _ in range(20):
        scenarios = _random_scenarios(rng, int(rng.integers(3, 7)))
        data = generate_dataset(SPEC2, rng.normal(0, 0.4, k), scenarios,
                                n_per_scenario=int(rng.integers(5, 15)),
                                c1_pattern=0.25,
                                seed=int(rng.integers(100000)))
        beta = rng.normal(0, 0.6, k)

        grad = gradient(data, SPEC2, beta)
        fd_grad = np.array([
            (log_likelihood(data, SPEC2, beta + h * e)
             - log_likelihood(data, SPEC2, beta - h * e)) / (2 * h)
            for e in np.eye(k)])
        err_g = np.max(np.abs(grad - fd_grad)) / max(np.max(np.abs(fd_grad)),
                                                     1e-8)

        hess = hessian(data, SPEC2, beta)
        fd_hess = np.array([
            (gradient(data, SPEC2, beta + h * e)
             - gradient(data, SPEC2, beta - h * e)) / (2 * h)
            for e in np.eye(k)])
        err_h = np.max(np.abs(hess - fd_hess)) / max(np.max(np.abs(fd_hess)),
                                                     1e-8)

        worst_g = max(worst_g, float(err_g))
        worst_h = max(worst_h, float(err_h))
        worst_eig = max(worst_eig, float(np.linalg.eigvalsh(hess).max()))

    ok = worst_g < 1e-6 and worst_h < 1e-5 and worst_eig <= 1e-10
    report(7, "derivative correctness", ok,
           f"grad err {worst_g:.2e}, hess err {worst_h:.2e}, "
           f"max eig {worst_eig:.2e} over 20 pairs")


def test_criterion_08_design_search_matches_bruteforce():
    spec = ModelSpec((("np", False), ("dist", False), ("smoke", False)))
    priors = [0.1, -0.2, -0.5]
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    checked = 0
    for trial in range(6):
        n = int(rng.integers(9, 13))
        size = int(rng.integers(3, 5))
        candidates = []
        for i in range(n):
            rows = tuple(
                (label, ExitAttributes(np=int(rng.integers(0, 4)),
                                       dist=float(rng.integers(0, 5)),
                                       smoke=int(rng.integers(0, 2)), fam=0))
                for label in "AB")
            candidates.append(Scenario(id=i + 1, alternatives=rows))
        best = min(d_error([candidates[i] for i in combo], spec, priors)
                   for combo in itertools.combinations(range(n), size))
        if math.isinf(best):
            continue
        result = search_design(candidates, size, spec, priors, seed=trial,
                               iterations=10)
        if result.d_error != best:
            report(8, "search equals exhaustive optimum", False,
                   f"instance {trial}: search {result.d_error!r} "
                   f"vs brute force {best!r}")
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 5 and elapsed < 10.0
    report(8, "search equals exhaustive optimum", ok,
           f"{checked} instances matched exactly in {elapsed:.2f}s")


def test_criterion_09_probability_invariants():
    rng = np.random.default_rng(314)
    worst_sum, worst_shift, worst_sym = 0.0, 0.0, 0.0
    for _ in range(1000):
        n_alts = int(rng.integers(2, 6))
        rows = [(float(rng.integers(0, 11)), float(rng.uniform(0, 8)),
                 int(rng.integers(0, 2)), int(rng.integers(0, 2)))
                for _ in range(n_alts)]
        i, j = rng.choice(n_alts, size=2, replace=False)
        rows[j] = rows[i]  # plant an identical pair
        scenario = Scenario(id=1, alternatives=tuple(
            (f"X{m}", ExitAttributes(*row)) for m, row in enumerate(rows)))
        beta = rng.normal(0, 2.0, SPEC2.n_params)
        c1 = int(rng.integers(0, 2))

        p = choice_probabilities(SPEC2, beta, scenario, c1)
        worst_sum = max(worst_sum, abs(float(p.sum()) - 1.0))
        v = utilities(SPEC2, beta, scenario, c1)
        shifted = softmax(v + rng.uniform(-30, 30))
        worst_shift = max(worst_shift, float(np.max(np.abs(p - shifted))))
        worst_sym = max(worst_sym, abs(float(p[i] - p[j])))

    ok = worst_sum <= 1e-12 and worst_shift <= 1e-12 and worst_sym <= 1e-12
    report(9, "probability invariants", ok,
           f"sum dev {worst_sum:.1e}, shift dev {worst_shift:.1e}, "
           f"symmetry dev {worst_sym:.1e} over 1000 draws")


def test_criterion_10_cli_roundtrip_determinism(tmp_path):
    params = tmp_path / "params.csv"
    lines = ["name,estimate,std_error"]
    lines += [f"{name},{est!r},{se!r}"
              for name, (est, se) in ref.FIRST_CHOICE_ESTIMATES.items()]
    params.write_text("\n".join(lines) + "\n")
    scenarios = tmp_path / "scenarios.csv"
    io.write_scenarios_csv(scenarios, ref.EXPERIMENT_SCENARIOS)

    out_a, out_b = tmp_path / "run_a.csv", tmp_path / "run_b.csv"
    for out in (out_a, out_b):
        code = main(["simulate", "--params", str(params),
                     "--scenarios", str(scenarios), "--n", "100",
                     "--seed", "42", "--out", str(out)])
        assert code == 0
    identical = out_a.read_bytes() == out_b.read_bytes()

    import json
    config = tmp_path / "model2.json"
    config.write_text(json.dumps({
        "version": 1,
        "model": {"terms": [{"attr": a, "first_choice": True}
                            for a in ("np", "dist", "smoke", "fam")]}}))
    table = tmp_path / "fit.csv"
    code = main(["estimate", "--data", str(out_a), "--config", str(config),
                 "--out", str(table)])
    estimated = code == 0 and table.exists()
    ok = identical and estimated
    report(10, "CLI round-trip determinism", ok,
           f"byte-identical={identical}, estimate exit 0={estimated}")
