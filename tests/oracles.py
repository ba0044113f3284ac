"""Test-local references that the tests compare library results against."""

import numpy as np


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
