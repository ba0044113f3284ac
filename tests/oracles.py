"""Test-local references that the tests compare library results against."""

import numpy as np


def softmax(utilities: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max-subtraction before exponentiation)."""
    v = np.asarray(utilities, dtype=float)
    e = np.exp(v - np.max(v))
    return e / e.sum()
