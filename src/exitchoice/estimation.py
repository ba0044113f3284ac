"""Maximum-likelihood estimation of the multinomial-logit model.

The log-likelihood is globally concave in the coefficients (linear utilities),
so a Newton-Raphson iteration with a step-halving line search converges from
any start.  While every probability is positive the Hessian's null space does
not depend on the coefficients, so a Hessian that cannot be solved means a
coefficient is not identified.  Observations are grouped into distinct
(scenario, first-choice flag) sets with choice counts (``core._ChoiceSets``),
so an iteration costs O(sets), not O(observations).  Standard errors come
from the inverse negative Hessian at the optimum (classical MLE covariance),
z-values are estimate/SE and p-values are two-sided standard-normal tails.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .core import ChoiceObservation, ModelSpec, _ChoiceSets, as_params

#: Iteration is aborted with a SeparationWarning once any |beta_j| passes this.
SEPARATION_THRESHOLD = 50.0

#: Relative resolution of a computed log-likelihood: a Newton step whose
#: predicted gain is below this times |LL| is taken without a line search.
_LL_RTOL = 1e-12


class NotIdentifiedError(RuntimeError):
    """Raised when the information matrix is singular, i.e. some coefficient
    is not identified by the data."""


class SeparationWarning(UserWarning):
    """Issued when estimates diverge, indicating perfect separation."""


@dataclass(frozen=True)
class ModelFit:
    """Estimation output: estimates, covariance and convergence diagnostics."""

    spec: ModelSpec
    estimates: np.ndarray
    vcov: np.ndarray
    log_likelihood: float
    converged: bool
    iterations: int
    gradient_norm: float
    n_obs: int


@dataclass(frozen=True)
class InferenceRow:
    """One row of an inference table: estimate, SE, z-value, p-value."""

    name: str
    estimate: float
    std_error: float
    z_value: float
    p_value: float


def two_sided_p(z: float) -> float:
    """Two-sided standard-normal tail probability, 2*(1 - Phi(|z|))."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def log_likelihood(data: Sequence[ChoiceObservation], spec: ModelSpec,
                   params) -> float:
    """Log-likelihood sum_n ln P_n,chosen(n); always <= 0.  A utility that
    is not finite raises ValueError naming the scenario."""
    beta = as_params(spec, params)
    sets = _ChoiceSets.from_observations(data, spec)
    sets.utilities(beta)    # the check: the kernel's log-likelihood has none
    return sets.log_likelihood(beta)


def hessian(data: Sequence[ChoiceObservation], spec: ModelSpec,
            params) -> np.ndarray:
    """Analytic Hessian of the log-likelihood, K x K.

    Symmetric and negative semidefinite everywhere: the MNL log-likelihood
    with linear utilities is globally concave.
    """
    beta = as_params(spec, params)
    return _ChoiceSets.from_observations(data, spec).score_hessian(beta)[1]


def _not_identified(info: np.ndarray, spec: ModelSpec) -> NotIdentifiedError:
    """The error for a singular information matrix, naming the coefficients
    that load on its (near-)null eigenvectors."""
    eigval, eigvec = np.linalg.eigh(info)
    cutoff = max(eigval.max(), 0.0) * 1e-10
    names = spec.coef_names()
    flagged: list[str] = []
    for j in range(eigval.size):
        if eigval[j] <= cutoff:
            weights = np.abs(eigvec[:, j])
            for i in np.nonzero(weights > 0.1 * weights.max())[0]:
                if names[i] not in flagged:
                    flagged.append(names[i])
    return NotIdentifiedError(
        "singular Hessian; coefficient(s) not identified by the data: "
        f"{', '.join(flagged) or 'unknown'}")


def fit_mnl(data: Sequence[ChoiceObservation], spec: ModelSpec,
            init=None, tol: float = 1e-6, max_iter: int = 100) -> ModelFit:
    """Maximize the MNL log-likelihood by Newton-Raphson.

    Parameters
    ----------
    data : sequence of ChoiceObservation
    spec : ModelSpec
    init : array-like, optional
        Starting coefficients; defaults to zeros (global concavity makes the
        start immaterial to the optimum reached).
    tol : float
        Convergence tolerance on the gradient infinity-norm; finite and > 0.
    max_iter : int
        Iteration cap, an integer >= 1; a fit that hits it is returned with
        converged=False.

    Returns
    -------
    ModelFit
        With ``vcov`` equal to the inverse negative Hessian at the optimum.
        The accepted log-likelihood never decreases across iterations by
        more than its rounding (step-halving line search).

    Raises
    ------
    ValueError
        If ``tol`` or ``max_iter`` is out of range, or a utility at the
        start is not finite (naming its scenario).
    NotIdentifiedError
        If the negative Hessian is singular at an iterate or at the
        converged optimum; the message names the offending coefficients.

    Warns
    -----
    SeparationWarning
        If any coefficient's magnitude exceeds ``SEPARATION_THRESHOLD``
        during iteration (perfect separation makes the MLE diverge); the
        fit is returned unconverged.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if not isinstance(max_iter, Integral) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    sets = _ChoiceSets.from_observations(data, spec)
    k = spec.n_params
    beta = np.zeros(k) if init is None else as_params(spec, init).copy()

    # The checked evaluation first: a start whose utilities are not finite
    # raises ValueError naming the scenario.
    grad, hess = sets.score_hessian(beta)
    ll = sets.log_likelihood(beta)
    iterations = 0

    while iterations < max_iter and np.max(np.abs(grad)) > tol:
        iterations += 1
        try:
            direction = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:   # singular here is singular anywhere
            raise _not_identified(-hess, spec) from None
        if grad @ direction <= 0.0:       # guard: keep an ascent direction
            direction = grad

        # Step-halving line search: never accept a lower log-likelihood,
        # unless a full step's predicted gain is below the rounding of the
        # log-likelihood, where comparing the two values is noise.
        flat = grad @ direction <= _LL_RTOL * abs(ll)
        step, ll_new = 1.0, -np.inf
        for _ in range(40):
            ll_new = sets.log_likelihood(beta + step * direction)
            if ll_new >= ll or flat:
                break
            step *= 0.5
        else:
            break                         # numerical floor, no usable step

        beta = beta + step * direction
        ll = ll_new
        grad, hess = sets.score_hessian(beta)

        if np.max(np.abs(beta)) > SEPARATION_THRESHOLD:
            warnings.warn(
                "estimates diverged (|beta| > "
                f"{SEPARATION_THRESHOLD:g}); data may be perfectly separated",
                SeparationWarning)
            break

    gradient_norm = float(np.max(np.abs(grad)))
    converged = gradient_norm <= tol
    try:
        vcov = np.linalg.inv(-hess)
        vcov = (vcov + vcov.T) / 2.0
        if not np.all(np.isfinite(vcov)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        if converged:
            raise _not_identified(-hess, spec) from None
        vcov = np.full((k, k), np.nan)

    return ModelFit(spec=spec, estimates=beta, vcov=vcov,
                    log_likelihood=ll, converged=converged,
                    iterations=iterations, gradient_norm=gradient_norm,
                    n_obs=len(data))


def inference_table(fit: ModelFit) -> list[InferenceRow]:
    """Per-coefficient estimates, standard errors, z- and p-values.

    Requires a converged fit with a valid covariance; a negative variance on
    the diagonal signals failed convergence and raises.
    """
    if not fit.converged:
        raise ValueError("inference table requires a converged fit")
    variances = np.diag(fit.vcov)
    if np.any(variances < 0) or not np.all(np.isfinite(variances)):
        raise ValueError(
            "invalid variance on the covariance diagonal; the fit did not "
            "reach a proper optimum")
    rows = []
    for name, est, var in zip(fit.spec.coef_names(), fit.estimates, variances):
        se = math.sqrt(var)
        if se == 0:
            raise ValueError(f"zero standard error for {name}")
        z = float(est) / se
        rows.append(InferenceRow(name=name, estimate=float(est),
                                 std_error=se, z_value=z,
                                 p_value=two_sided_p(z)))
    return rows
