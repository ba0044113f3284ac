"""Test-local references that the tests compare library results against."""

import itertools

import numpy as np

from exitchoice import ATTRIBUTES, ExitAttributes, Scenario, as_params
from exitchoice.core import _ChoiceSets


def softmax(utilities: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max-subtraction before exponentiation)."""
    v = np.asarray(utilities, dtype=float)
    e = np.exp(v - np.max(v))
    return e / e.sum()


def write_choice_csv_per_row(path, observations) -> None:
    """``io.write_choice_csv`` as it was before runs of one scenario shared
    their encoded cells: every row encodes its exit again."""
    from exitchoice import io

    io._write_rows(path, io.CHOICE_HEADER, (
        (i + 1, obs.participant_id, obs.scenario.id, label,
         *io._encode_exit(attrs), int(j == obs.chosen),
         io._FLAG_CELLS[obs.first_choice])
        for i, obs in enumerate(observations)
        for j, (label, attrs) in enumerate(obs.scenario.alternatives)))


def gradient(data, spec, params) -> np.ndarray:
    """Analytic score vector of the log-likelihood, length K."""
    beta = as_params(spec, params)
    return _ChoiceSets.from_observations(data, spec).score_hessian(beta)[0]


def full_factorial(levels) -> list:
    """``design.full_factorial`` as it was before each exit was built once:
    one product over every (label, attribute) axis, and a new
    ``ExitAttributes`` for every exit of every scenario."""
    labels = levels.labels
    n_attr = len(ATTRIBUTES)
    axes = [levels.levels[label][attr]
            for label in labels for attr in ATTRIBUTES]
    scenarios = []
    for i, combo in enumerate(itertools.product(*axes)):
        alternatives = []
        for a, label in enumerate(labels):
            chunk = dict(zip(ATTRIBUTES, combo[n_attr * a: n_attr * (a + 1)]))
            alternatives.append((label, ExitAttributes(**chunk)))
        scenarios.append(Scenario(id=i + 1, alternatives=tuple(alternatives)))
    return scenarios
