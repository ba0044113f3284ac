"""Monte-Carlo choice simulation and sensitivity curves.

``generate_dataset`` draws synthetic choices from known coefficients, which
is the main validation path for the estimator: simulate at true values, fit,
and check recovery.  ``sensitivity_curve`` sweeps one attribute of one exit
in a two-exit setting and reports the probability of the swept exit, using
effective coefficients collapsed from a first-choice interaction model.

The collapse rule is configurable because repeat-choice estimates leave it
open which interactions belong in a pooled prediction: "base" ignores the
interactions, "sum" always adds them, and "significant" (the default) adds
only those whose interaction is statistically significant.  Only the
"significant" rule reproduces the probability ranges observed in the source
experiment, which is why it is the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (_MAX, FIRST_SUFFIX, ChoiceObservation, ModelSpec,
                   Scenario, _ChoiceSets, as_params)
from .estimation import two_sided_p

RULES = ("base", "sum", "significant")

#: Familiarity conditions for the two-exit sweep: which exit(s) the
#: decision-maker is familiar with, and the fam attribute of exits A and B.
FAMILIARITY = {"A": (1.0, 0.0), "B": (0.0, 1.0), "both": (1.0, 1.0)}

#: Most points one sensitivity sweep may have; a curve of this many points
#: takes seconds, and a larger count is almost surely a mistyped step.
MAX_SWEEP_POINTS = 1_000_000


def generate_dataset(spec: ModelSpec, params, scenarios: Sequence[Scenario],
                     n_per_scenario: int, c1_pattern: float = 0.25,
                     seed: int = 0) -> list[ChoiceObservation]:
    """Simulate a synthetic choice dataset from known coefficients.

    For each scenario, ``n_per_scenario`` respondents choose once; the first
    ``round(c1_pattern * n_per_scenario)`` of them are flagged as first
    choices and draw from the c1=1 probabilities.  Output order is canonical
    (scenario order, then replicate order) and the whole dataset is
    deterministic given ``seed``.  Participant ids are synthetic.

    The uniforms come from one ``rng.random((len(scenarios),
    n_per_scenario))`` call, scenario-major: the same PCG64 stream, in the
    same order, as one ``rng.random(n_per_scenario)`` call per scenario.
    Respondent r of scenario s chooses the number of cumulative
    probabilities of its set that are <= its uniform (``searchsorted`` with
    ``side="right"``), capped at the last alternative.  The probabilities
    of each c1 value that has draws come from one ``_ChoiceSets`` over all
    scenarios, the kernel ``choice_probabilities`` uses, which raises the
    ValueError naming the first scenario with a utility that is not
    finite.
    """
    if n_per_scenario < 1:
        raise ValueError("n_per_scenario must be >= 1")
    if not 0.0 <= c1_pattern <= 1.0:
        raise ValueError("c1_pattern must be a fraction in [0, 1]")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    beta = as_params(spec, params)
    rng = np.random.default_rng(seed)
    if not scenarios:
        return []
    draws = rng.random((len(scenarios), n_per_scenario))
    n_first = int(round(c1_pattern * n_per_scenario))
    chosen = np.empty(draws.shape, dtype=np.intp)
    for c1, lo, hi in ((1, 0, n_first), (0, n_first, n_per_scenario)):
        if lo == hi:
            continue
        sets = _ChoiceSets.from_scenarios(scenarios, spec, c1)
        cum = np.cumsum(sets.probabilities(beta), axis=1)
        chosen[:, lo:hi] = np.count_nonzero(
            cum[:, None, :] <= draws[:, lo:hi, None], axis=2)
    last = sets.avail.sum(axis=1) - 1
    chosen = np.minimum(chosen, last[:, None]).tolist()

    data: list[ChoiceObservation] = []
    for scenario, picks in zip(scenarios, chosen):
        for r, pick in enumerate(picks):
            data.append(ChoiceObservation(
                participant_id=f"sim{len(data) + 1:06d}", scenario=scenario,
                chosen=pick, first_choice=1 if r < n_first else 0))
    return data


def effective_coefficients(params: Mapping, rule: str = "significant",
                           alpha: float = 0.05) -> dict[str, float]:
    """Collapse base + first-choice interaction coefficients per attribute.

    ``params`` maps coefficient names to either an estimate or an
    ``(estimate, std_error)`` pair; interaction names carry the ":first"
    suffix.  Rules: "base" keeps base coefficients only, "sum" adds every
    interaction, "significant" adds an interaction only when its two-sided
    p-value is below ``alpha`` (this requires its standard error).
    ``alpha`` must lie in (0, 1), every estimate must be finite and every
    given standard error finite and positive; otherwise a ValueError.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")
    _check_alpha(alpha)

    def split(name, value):
        est, se = value if isinstance(value, (tuple, list)) else (value, None)
        if not math.isfinite(float(est)):
            raise ValueError(
                f"estimate of {name!r} must be finite, got {est!r}")
        if se is not None and not 0 < float(se) < math.inf:
            raise ValueError(f"std_error of {name!r} must be finite and "
                             f"> 0, got {se!r}")
        return float(est), (None if se is None else float(se))

    effective: dict[str, float] = {}
    for name, value in params.items():
        if name.endswith(FIRST_SUFFIX):
            continue
        est, _ = split(name, value)
        effective[name] = est
    for name, value in params.items():
        if not name.endswith(FIRST_SUFFIX):
            continue
        attr = name[: -len(FIRST_SUFFIX)]
        if attr not in effective:
            raise ValueError(f"interaction {name!r} has no base coefficient")
        est, se = split(name, value)
        if rule == "base":
            continue
        if rule == "sum":
            effective[attr] += est
            continue
        if se is None:
            raise ValueError(
                f"rule 'significant' needs a standard error for {name!r}")
        if two_sided_p(est / se) < alpha:
            effective[attr] += est
    return effective


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")


@dataclass(frozen=True)
class SensitivityConfig:
    """Two-exit sweep definition.

    One attribute of the swept exit (exit A) varies over
    ``start, start+step, ... <= stop`` while the fixed exit (exit B) keeps
    ``fixed_exit``'s attributes.  The familiarity condition sets the fam
    attribute of both exits, as ``FAMILIARITY`` maps it.  ``start``,
    ``stop`` and ``step`` must be finite, and the sweep may have at most
    ``MAX_SWEEP_POINTS`` points.
    ``rule``/``alpha`` select how interaction coefficients are collapsed.
    """

    sweep_attr: str
    start: float
    stop: float
    step: float
    swept_exit: Mapping[str, float] = field(default_factory=dict)
    fixed_exit: Mapping[str, float] = field(default_factory=dict)
    familiarity: str = "both"
    rule: str = "significant"
    alpha: float = 0.05

    def __post_init__(self):
        for name in ("start", "stop", "step"):
            value = getattr(self, name)
            if not -_MAX <= value <= _MAX:
                raise ValueError(f"sweep {name} must be finite, got {value!r}")
        if self.step <= 0:
            raise ValueError("sweep step must be > 0")
        _check_alpha(self.alpha)
        if self.stop < self.start:
            raise ValueError("empty sweep range (stop < start)")
        if not math.isfinite(self._steps()):
            raise ValueError(
                f"sweep from {self.start!r} to {self.stop!r} by "
                f"{self.step!r} has too many points to count")
        if self._count() > MAX_SWEEP_POINTS:
            raise ValueError(
                f"sweep from {self.start!r} to {self.stop!r} by "
                f"{self.step!r} has more than {MAX_SWEEP_POINTS:,} points")
        if self.familiarity not in FAMILIARITY:
            raise ValueError(
                f"familiarity must be one of {tuple(FAMILIARITY)}, "
                f"got {self.familiarity!r}")
        if self.sweep_attr == "fam":
            raise ValueError(
                "fam is set by the familiarity condition and cannot be swept")

    def _steps(self) -> float:
        """(stop - start) / step in floats, +inf past the float range."""
        return (float(self.stop) - float(self.start)) / float(self.step)

    def _count(self) -> int:
        return int(math.floor(self._steps() + 1e-9)) + 1

    def sweep_values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self._count())


def sensitivity_curve(params: Mapping,
                      config: SensitivityConfig) -> list[tuple[float, float]]:
    """Probability of the swept exit along the sweep.

    ``params`` is a coefficient-name mapping as accepted by
    :func:`effective_coefficients`.  The two-alternative logit probability is
    evaluated on attribute differences, so attributes equal across the two
    exits drop out exactly; the curve is strictly monotone in the swept
    attribute (direction given by the sign of its effective coefficient).
    """
    effective = effective_coefficients(params, config.rule, config.alpha)
    if config.sweep_attr not in effective:
        raise ValueError(
            f"swept attribute {config.sweep_attr!r} is not in the model "
            f"(coefficients: {', '.join(effective)})")
    fam_a, fam_b = FAMILIARITY[config.familiarity]

    # Utility difference V_A - V_B from exact attribute differences.
    base_delta = 0.0
    for attr, beta in effective.items():
        if attr == config.sweep_attr:
            continue
        if attr == "fam":
            base_delta += beta * (fam_a - fam_b)
            continue
        xa = float(config.swept_exit.get(attr, 0.0))
        xb = float(config.fixed_exit.get(attr, 0.0))
        base_delta += beta * (xa - xb)
    beta_swept = effective[config.sweep_attr]
    xb_swept = float(config.fixed_exit.get(config.sweep_attr, 0.0))

    curve = []
    for value in config.sweep_values():
        delta = base_delta + beta_swept * (float(value) - xb_swept)
        # logistic(delta), branch-stable for large |delta|
        if delta >= 0:
            p = 1.0 / (1.0 + math.exp(-delta))
        else:
            e = math.exp(delta)
            p = e / (1.0 + e)
        curve.append((float(value), p))
    return curve
