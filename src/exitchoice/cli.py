"""Command-line surface: estimate, design, simulate, predict, sensitivity.

Exit statuses: 0 success, 2 validation error (bad files, bad config),
3 numerical failure (non-convergence, non-identified model).  Output files
carry full-precision numbers; the tables printed to stdout are rounded to
three decimals.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .core import ATTRIBUTES, ModelSpec, _ChoiceSets, as_params
from .design import full_factorial, search_design
from .estimation import NotIdentifiedError, fit_mnl, inference_table
from .simulation import generate_dataset, sensitivity_curve


def _params_spec_and_vector(params: dict) -> tuple[ModelSpec, list[float]]:
    """Rebuild a ModelSpec and ordered estimates from a coefficient table."""
    spec = ModelSpec.from_coef_names(list(params))
    return spec, [params[name][0] for name in spec.coef_names()]


def _print_inference(rows, fit) -> None:
    print(f"{'name':<14}{'estimate':>10}{'std_error':>11}"
          f"{'z_value':>9}{'p_value':>9}")
    for r in rows:
        print(f"{r.name:<14}{r.estimate:>10.3f}{r.std_error:>11.3f}"
              f"{r.z_value:>9.3f}{r.p_value:>9.3f}")
    print(f"log-likelihood {fit.log_likelihood:.3f}  n_obs {fit.n_obs}  "
          f"converged {fit.converged}  iterations {fit.iterations}")


def _with_flags(options: dict, **flags) -> dict:
    """Checked config options with the flags that were given laid over them;
    an option set by neither takes the library function's default."""
    return {**options, **{k: v for k, v in flags.items() if v is not None}}


def cmd_estimate(args) -> int:
    data = io.read_choice_csv(args.data)
    cfg = io.load_config(args.config) if args.config else {"version": 1}
    if "model" in cfg:
        spec = io.model_from_config(cfg)
    else:
        spec = ModelSpec.from_attributes(*ATTRIBUTES)
    options = _with_flags(io.estimate_options(cfg), tol=args.tol,
                          max_iter=args.max_iter)

    fit = fit_mnl(data, spec, **options)
    if not fit.converged:
        print(f"error: no convergence in {fit.iterations} iterations "
              f"(gradient norm {fit.gradient_norm:.3e})", file=sys.stderr)
        return 3
    rows = inference_table(fit)
    _print_inference(rows, fit)
    out = args.out or cfg.get("out")
    if out:
        io.write_inference_csv(out, rows, fit)
        print(f"wrote {out}")
    return 0


def cmd_design(args) -> int:
    cfg = io.load_config(args.config)
    spec = io.model_from_config(cfg)
    levels = io.levels_from_config(cfg)
    priors = io.priors_from_config(cfg, spec)
    options = _with_flags(io.design_options(cfg), size=args.size,
                          seed=args.seed)
    if "size" not in options:
        raise io.ConfigError("design size missing (set design.size or --size)")

    candidates = full_factorial(levels)
    result = search_design(candidates, spec=spec, priors=priors, **options)
    print(f"searched {len(candidates)} candidate scenarios; "
          f"selected {len(result.scenarios)} with d-error "
          f"{result.d_error:.6f}")
    for s in result.scenarios:
        cells = ", ".join(
            f"{label}(np={attrs.np:g} dist={attrs.dist:g} "
            f"smoke={attrs.smoke:g} fam={attrs.fam:g})"
            for label, attrs in s.alternatives)
        print(f"  scenario {s.id}: {cells}")
    out = args.out or cfg.get("out")
    if out:
        io.write_scenarios_csv(out, result.scenarios, d_error=result.d_error)
        print(f"wrote {out}")
    return 0


def cmd_simulate(args) -> int:
    params = io.read_params_csv(args.params)
    spec, beta = _params_spec_and_vector(params)
    scenarios = io.read_scenarios_csv(args.scenarios)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    data = generate_dataset(spec, beta, scenarios, n_per_scenario=args.n,
                            c1_pattern=args.c1_share, seed=args.seed)
    io.write_choice_csv(args.out, data)
    print(f"wrote {args.out}: {len(data)} observations over "
          f"{len(scenarios)} scenarios (seed {args.seed})")
    return 0


def cmd_predict(args) -> int:
    params = io.read_params_csv(args.params)
    spec, beta = _params_spec_and_vector(params)
    scenarios = io.read_scenarios_csv(args.scenarios)
    # One kernel for the table: its scenarios share one label set, so every
    # row is bitwise the one-scenario ``choice_probabilities``.
    probabilities = _ChoiceSets.from_scenarios(
        scenarios, spec, args.c1).probabilities(as_params(spec, beta))
    rows = []
    for s, p in zip(scenarios, probabilities):
        rows.extend((s.id, label, float(pi))
                    for (label, _), pi in zip(s.alternatives, p))
        shares = "  ".join(f"{label} {pi:.3f}"
                           for (label, _), pi in zip(s.alternatives, p))
        print(f"scenario {s.id}: {shares}")
    if args.out:
        io.write_probabilities_csv(args.out, rows)
        print(f"wrote {args.out}")
    return 0


def cmd_sensitivity(args) -> int:
    params = io.read_params_csv(args.params)
    cfg = io.load_config(args.config)
    curves = {}
    for condition, sweep_config in io.sweeps_from_config(cfg):
        curve = sensitivity_curve(params, sweep_config)
        curves[condition] = curve
        first, last = curve[0], curve[-1]
        print(f"familiarity {condition}: P(A) {first[1]:.3f} at "
              f"{sweep_config.sweep_attr}={first[0]:g} -> {last[1]:.3f} at "
              f"{sweep_config.sweep_attr}={last[0]:g}")
    out = args.out or cfg.get("out")
    if out:
        io.write_curve_csv(out, curves)
        print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitchoice",
        description="Multinomial-logit exit-choice toolkit: estimation, "
                    "efficient design, simulation and sensitivity analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="fit an MNL model to choice data")
    p.add_argument("--data", required=True, help="long-format choice CSV")
    p.add_argument("--config", help="run config JSON (model terms, options)")
    p.add_argument("--out", help="output CSV for the inference table")
    p.add_argument("--tol", type=float, help="gradient convergence tolerance")
    p.add_argument("--max-iter", type=int, help="iteration cap")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("design", help="search a D-efficient scenario design")
    p.add_argument("--config", required=True,
                   help="run config JSON (model, levels, priors, design)")
    p.add_argument("--out", help="output CSV for the selected scenarios")
    p.add_argument("--size", type=int, help="design size (overrides config)")
    p.add_argument("--seed", type=int, help="search seed (overrides config)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="draw a synthetic choice dataset")
    p.add_argument("--params", required=True, help="coefficient CSV")
    p.add_argument("--scenarios", required=True, help="wide scenario CSV")
    p.add_argument("--n", type=int, required=True,
                   help="observations per scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c1-share", type=float, default=0.25,
                   help="fraction of observations flagged as first choices")
    p.add_argument("--out", required=True, help="output choice CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("predict", help="choice probabilities per scenario")
    p.add_argument("--params", required=True, help="coefficient CSV")
    p.add_argument("--scenarios", required=True, help="wide scenario CSV")
    p.add_argument("--c1", type=int, default=0, choices=(0, 1),
                   help="first-choice flag for the prediction")
    p.add_argument("--out", help="output CSV for probabilities")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sensitivity",
                       help="two-exit probability curves along a sweep")
    p.add_argument("--params", required=True, help="coefficient CSV")
    p.add_argument("--config", required=True,
                   help="run config JSON with a sweep section")
    p.add_argument("--out", help="output CSV for the curves")
    p.set_defaults(func=cmd_sensitivity)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotIdentifiedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
