"""Tests for log-likelihood, analytic derivatives and the Newton fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitchoice import (ATTRIBUTES, ChoiceObservation, ExitAttributes,
                        ModelSpec, NotIdentifiedError, Scenario,
                        SeparationWarning, fit_mnl, generate_dataset,
                        hessian, inference_table, log_likelihood, two_sided_p)
from exitchoice import reference as ref
from exitchoice.core import _ChoiceSets

from oracles import gradient

SPEC2 = ref.FIRST_CHOICE_SPEC
TRUTH2 = np.array(ref.estimates_vector(SPEC2, ref.FIRST_CHOICE_ESTIMATES))


class _Compiled:
    """Ungrouped reference: one padded row block per observation.

    Rows are differenced against the chosen alternative.  The grouped
    kernel in ``core._ChoiceSets`` must agree with it within rounding.
    """

    def __init__(self, data, spec):
        if not data:
            raise ValueError("no observations: the dataset is empty")
        n, k = len(data), spec.n_params
        j_max = max(obs.scenario.n_alternatives for obs in data)
        self.X = np.zeros((n, j_max, k))
        self.avail = np.zeros((n, j_max), dtype=bool)
        self.chosen = np.zeros(n, dtype=int)
        for i, obs in enumerate(data):
            rows = spec.design_matrix(obs.scenario, obs.first_choice)
            self.X[i, :len(rows)] = rows
            self.avail[i, :len(rows)] = True
            self.chosen[i] = obs.chosen

    def probabilities(self, beta):
        v = np.einsum("njk,k->nj", self.X, beta)
        v = np.where(self.avail, v, -np.inf)
        e = np.exp(v - v.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def log_likelihood(self, beta):
        v = np.einsum("njk,k->nj", self.X, beta)
        v_masked = np.where(self.avail, v, -np.inf)
        m = v_masked.max(axis=1)
        lse = np.log(np.exp(v_masked - m[:, None]).sum(axis=1)) + m
        v_chosen = np.take_along_axis(v, self.chosen[:, None], axis=1)[:, 0]
        return float(np.sum(v_chosen - lse))

    def score_hessian(self, beta):
        p = self.probabilities(beta)
        x_chosen = np.take_along_axis(
            self.X, self.chosen[:, None, None], axis=1)
        diff = x_chosen - self.X
        grad = np.einsum("nj,njk->k", p, diff)
        dbar = np.einsum("nj,njk->nk", p, diff)
        hess = -(np.einsum("nj,njk,njl->kl", p, diff, diff)
                 - np.einsum("nk,nl->kl", dbar, dbar))
        return grad, (hess + hess.T) / 2.0


def assert_close(got, want):
    """|got - want| <= 1e-10 * max(1, |want|), elementwise."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


def small_dataset(seed=0, n=25):
    return generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS[:4],
                            n_per_scenario=n, c1_pattern=0.25, seed=seed)


def fd_gradient(data, spec, beta, h=1e-5):
    k = len(beta)
    out = np.empty(k)
    for i in range(k):
        e = np.zeros(k)
        e[i] = h
        out[i] = (log_likelihood(data, spec, beta + e)
                  - log_likelihood(data, spec, beta - e)) / (2 * h)
    return out


def fd_hessian(data, spec, beta, h=1e-5):
    k = len(beta)
    out = np.empty((k, k))
    for i in range(k):
        e = np.zeros(k)
        e[i] = h
        out[i] = (gradient(data, spec, beta + e)
                  - gradient(data, spec, beta - e)) / (2 * h)
    return (out + out.T) / 2


# ---------------------------------------------------------------------------
# log-likelihood
# ---------------------------------------------------------------------------

def test_loglik_uniform_at_zero_coefficients():
    data = generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS,
                            n_per_scenario=43, seed=5)
    assert len(data) == 344
    ll = log_likelihood(data, SPEC2, np.zeros(SPEC2.n_params))
    assert ll == pytest.approx(344 * math.log(1 / 3), rel=1e-12)
    assert ll == pytest.approx(-377.9226273018298, abs=1e-9)


def test_loglik_two_identical_alternatives():
    a = ExitAttributes(np=3, dist=2.0, smoke=1, fam=0)
    scenario = Scenario(id=1, alternatives=(("A", a), ("B", a)))
    obs = ChoiceObservation(participant_id="p", scenario=scenario, chosen=1)
    ll = log_likelihood([obs], ref.POOLED_SPEC, [4.0, -1.0, 2.0, 0.5])
    assert ll == pytest.approx(math.log(0.5), rel=1e-12)


def test_loglik_nonpositive_and_higher_at_truth():
    data = generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS,
                            n_per_scenario=600, seed=9)
    ll_truth = log_likelihood(data, SPEC2, TRUTH2)
    ll_zero = log_likelihood(data, SPEC2, np.zeros(SPEC2.n_params))
    assert ll_truth <= 0 and ll_zero <= 0
    assert ll_truth > ll_zero


def test_loglik_empty_dataset_errors():
    with pytest.raises(ValueError, match="empty"):
        log_likelihood([], SPEC2, TRUTH2)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    for trial in range(5):
        data = small_dataset(seed=trial)
        beta = rng.normal(0, 0.5, SPEC2.n_params)
        g = gradient(data, SPEC2, beta)
        fd = fd_gradient(data, SPEC2, beta)
        err = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-8)
        assert err < 1e-6


def test_gradient_near_zero_at_mle():
    data = small_dataset(seed=3, n=60)
    fit = fit_mnl(data, SPEC2)
    assert fit.converged
    assert np.max(np.abs(gradient(data, SPEC2, fit.estimates))) < 1e-6


def test_gradient_exactly_zero_for_differenced_out_attribute():
    # dist identical across alternatives in every scenario -> its score
    # component is exactly zero at any coefficient value
    rng = np.random.default_rng(17)
    scenarios = []
    for sid in range(6):
        d = float(rng.uniform(1, 5))
        rows = tuple(
            (label, ExitAttributes(np=int(rng.integers(0, 10)), dist=d,
                                   smoke=int(rng.integers(0, 2)), fam=0))
            for label in "ABC")
        scenarios.append(Scenario(id=sid, alternatives=rows))
    spec = ModelSpec((("np", False), ("dist", False), ("smoke", False)))
    data = generate_dataset(spec, [0.1, -0.4, -1.0], scenarios,
                            n_per_scenario=10, seed=1)
    for beta in ([0.0, 0.0, 0.0], [0.3, -0.2, 0.9], [-1.0, 2.0, -0.5]):
        g = gradient(data, spec, beta)
        assert g[1] == 0.0


def test_hessian_symmetric_exactly():
    rng = np.random.default_rng(33)
    data = small_dataset(seed=8)
    for _ in range(5):
        h = hessian(data, SPEC2, rng.normal(0, 1.0, SPEC2.n_params))
        np.testing.assert_array_equal(h, h.T)


def test_hessian_negative_semidefinite():
    rng = np.random.default_rng(35)
    for trial in range(5):
        data = small_dataset(seed=trial + 40)
        h = hessian(data, SPEC2, rng.normal(0, 1.5, SPEC2.n_params))
        assert np.linalg.eigvalsh(h).max() <= 1e-10


def test_hessian_matches_finite_difference_of_gradient():
    rng = np.random.default_rng(37)
    for trial in range(3):
        data = small_dataset(seed=trial + 60)
        beta = rng.normal(0, 0.5, SPEC2.n_params)
        h = hessian(data, SPEC2, beta)
        fd = fd_hessian(data, SPEC2, beta)
        err = np.max(np.abs(h - fd)) / max(np.max(np.abs(fd)), 1e-8)
        assert err < 1e-5


def test_concavity_along_random_lines():
    rng = np.random.default_rng(41)
    data = small_dataset(seed=12)
    for _ in range(20):
        start = rng.normal(0, 1, SPEC2.n_params)
        direction = rng.normal(0, 1, SPEC2.n_params)
        ts = np.linspace(-1, 1, 9)
        values = [log_likelihood(data, SPEC2, start + t * direction)
                  for t in ts]
        second = np.diff(values, 2)
        assert np.all(second <= 1e-8)


# ---------------------------------------------------------------------------
# grouped kernel against the ungrouped reference
# ---------------------------------------------------------------------------

_exit_rows = st.tuples(st.integers(0, 8), st.sampled_from((0.0, 1.5, 6.5)),
                       st.integers(0, 1), st.integers(0, 1))


@st.composite
def choice_problems(draw):
    """Mixed 2- and 3-alternative sets, mixed c1, repeated observations."""
    scenarios = []
    for i in range(draw(st.integers(1, 5))):
        rows = draw(st.lists(_exit_rows, min_size=2, max_size=3))
        scenarios.append(Scenario(id=i, alternatives=tuple(
            (label, ExitAttributes(*row)) for label, row in zip("ABC", rows))))
    picks = draw(st.lists(st.tuples(st.sampled_from(scenarios),
                                    st.integers(0, 2), st.integers(0, 1),
                                    st.integers(1, 3)),
                          min_size=1, max_size=12))
    data = [ChoiceObservation(participant_id=f"p{i}", scenario=s,
                              chosen=c % s.n_alternatives, first_choice=f)
            for i, (s, c, f, copies) in enumerate(picks)
            for _ in range(copies)]
    attrs = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1,
                          max_size=4, unique=True))
    spec = ModelSpec(tuple((a, draw(st.booleans())) for a in attrs))
    beta = np.array(draw(st.lists(st.floats(-2.0, 2.0),
                                  min_size=spec.n_params,
                                  max_size=spec.n_params)))
    return data, spec, beta


@settings(max_examples=200, deadline=None)
@given(choice_problems())
def test_grouped_kernel_equals_ungrouped_reference(problem):
    data, spec, beta = problem
    oracle = _Compiled(data, spec)
    grad, hess = oracle.score_hessian(beta)
    assert_close(log_likelihood(data, spec, beta),
                 oracle.log_likelihood(beta))
    assert_close(gradient(data, spec, beta), grad)
    got = hessian(data, spec, beta)
    assert_close(got, hess)
    np.testing.assert_array_equal(got, got.T)
    sets = _ChoiceSets.from_observations(data, spec)
    assert sets.counts.sum() == len(data)
    assert len(sets.counts) == len({(o.scenario, o.first_choice)
                                    for o in data})


@settings(max_examples=100, deadline=None)
@given(choice_problems(), st.randoms(use_true_random=False))
def test_loglik_invariant_under_observation_permutation(problem, rnd):
    data, spec, beta = problem
    shuffled = list(data)
    rnd.shuffle(shuffled)
    assert math.isclose(log_likelihood(shuffled, spec, beta),
                        log_likelihood(data, spec, beta),
                        rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("seed", [0, 21])
def test_fit_equals_ungrouped_reference_fit(seed, monkeypatch):
    # the pipeline's data: 8 scenarios x 6250 respondents, 16 groups
    data = generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS,
                            n_per_scenario=6250, c1_pattern=0.25, seed=seed)
    fit = fit_mnl(data, SPEC2)
    # the same Newton iteration, on the ungrouped oracle
    monkeypatch.setattr(_ChoiceSets, "from_observations",
                        staticmethod(_Compiled))
    want = fit_mnl(data, SPEC2)
    assert fit.converged and want.converged
    np.testing.assert_allclose(fit.estimates, want.estimates, rtol=0,
                               atol=1e-10)
    np.testing.assert_allclose(np.sqrt(np.diag(fit.vcov)),
                               np.sqrt(np.diag(want.vcov)), rtol=0,
                               atol=1e-10)
    assert fit.log_likelihood == pytest.approx(want.log_likelihood,
                                               rel=1e-12)


@pytest.mark.parametrize("seed", [20, 25])
def test_fit_does_not_stall_on_flat_log_likelihood(seed):
    # near the optimum the log-likelihood is flat to the last bit; rounding
    # in it or in a 50,000-term gradient must not make step halving stall
    # the fit while the gradient is still just above tol
    data = generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS,
                            n_per_scenario=6250, c1_pattern=0.25, seed=seed)
    fit = fit_mnl(data, SPEC2)
    assert fit.converged
    assert fit.iterations <= 7


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_recovers_generating_coefficients():
    data = generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS,
                            n_per_scenario=1500, c1_pattern=0.25, seed=123)
    fit = fit_mnl(data, SPEC2)
    assert fit.converged
    se = np.sqrt(np.diag(fit.vcov))
    assert np.all(np.abs(fit.estimates - TRUTH2) < 3 * se)
    # covariance invariants
    np.testing.assert_allclose(fit.vcov, fit.vcov.T, atol=1e-9)
    assert np.linalg.eigvalsh(fit.vcov).min() > 0


def test_fit_null_data_estimates_near_zero():
    # choices uniform regardless of attributes -> coefficients ~ 0
    rng = np.random.default_rng(55)
    scenarios = list(ref.EXPERIMENT_SCENARIOS)
    data = []
    for i in range(4000):
        s = scenarios[i % len(scenarios)]
        data.append(ChoiceObservation(
            participant_id=f"n{i}", scenario=s,
            chosen=int(rng.integers(0, s.n_alternatives))))
    fit = fit_mnl(data, ref.POOLED_SPEC)
    assert fit.converged
    se = np.sqrt(np.diag(fit.vcov))
    assert np.all(np.abs(fit.estimates) < 3 * se)


def test_fit_refit_bit_identical():
    data = small_dataset(seed=2, n=50)
    fit_a = fit_mnl(data, SPEC2)
    fit_b = fit_mnl(data, SPEC2)
    np.testing.assert_array_equal(fit_a.estimates, fit_b.estimates)
    np.testing.assert_array_equal(fit_a.vcov, fit_b.vcov)
    assert fit_a.log_likelihood == fit_b.log_likelihood
    assert fit_a.iterations == fit_b.iterations


def test_fit_invariant_to_observation_order():
    data = small_dataset(seed=6, n=50)
    rng = np.random.default_rng(0)
    shuffled = [data[i] for i in rng.permutation(len(data))]
    fit_a = fit_mnl(data, SPEC2)
    fit_b = fit_mnl(shuffled, SPEC2)
    np.testing.assert_allclose(fit_a.estimates, fit_b.estimates, atol=1e-8)
    assert fit_a.log_likelihood == pytest.approx(fit_b.log_likelihood,
                                                 rel=1e-12)


def test_fit_from_nonzero_start_reaches_same_optimum():
    data = small_dataset(seed=14, n=60)
    fit_zero = fit_mnl(data, SPEC2)
    fit_far = fit_mnl(data, SPEC2, init=np.full(SPEC2.n_params, 2.0))
    np.testing.assert_allclose(fit_zero.estimates, fit_far.estimates,
                               atol=1e-6)


def test_fit_nonconvergence_reported():
    data = small_dataset(seed=1, n=60)
    fit = fit_mnl(data, SPEC2, max_iter=1)
    assert not fit.converged
    assert fit.iterations == 1


@pytest.mark.parametrize("option, value", [
    ("tol", float("nan")), ("tol", math.inf), ("tol", 0.0), ("tol", -1e-6),
    ("max_iter", 0), ("max_iter", -5), ("max_iter", 2.5),
    ("max_iter", float("nan")),
])
def test_fit_rejects_bad_tol_and_max_iter(option, value):
    with pytest.raises(ValueError, match=option):
        fit_mnl(small_dataset(), SPEC2, **{option: value})


def test_separation_warning_on_perfectly_predictive_attribute():
    # the nearer exit is always chosen and the gap is small, so the distance
    # coefficient runs away; the divergence guard must stop the fit
    scenario = Scenario(id=1, alternatives=(
        ("A", ExitAttributes(np=0, dist=3.0, smoke=0, fam=0)),
        ("B", ExitAttributes(np=0, dist=3.1, smoke=0, fam=0))))
    spec = ModelSpec((("dist", False),))
    data = [ChoiceObservation(participant_id=f"p{i}", scenario=scenario,
                              chosen=0) for i in range(30)]
    with pytest.warns(SeparationWarning):
        fit = fit_mnl(data, spec)
    assert not fit.converged
    assert abs(fit.estimates[0]) > 50


def test_not_identified_error_names_coefficient():
    # fam = 0 everywhere -> no information on its coefficient
    rng = np.random.default_rng(71)
    scenarios = []
    for sid in range(4):
        rows = tuple(
            (label, ExitAttributes(np=int(rng.integers(0, 10)),
                                   dist=float(rng.uniform(1, 6)),
                                   smoke=int(rng.integers(0, 2)), fam=0))
            for label in "ABC")
        scenarios.append(Scenario(id=sid, alternatives=rows))
    spec = ModelSpec((("np", False), ("fam", False)))
    data = generate_dataset(spec, [0.1, 0.0], scenarios, n_per_scenario=20,
                            seed=2)
    with pytest.raises(NotIdentifiedError, match="fam"):
        fit_mnl(data, spec)


def test_overflowing_information_raises_naming_scenario():
    # an occupancy of 1e300 is finite, but its squared differences in the
    # information are not; the check runs at the zero start of the fit
    rows = ((0, 2.0, 0, 1), (1e300, 3.0, 1, 0), (4, 5.0, 0, 0))
    huge = Scenario(id="big", alternatives=tuple(
        (label, ExitAttributes(*row)) for label, row in zip("ABC", rows)))
    data = [ChoiceObservation(participant_id=i, scenario=s, chosen=i % 3)
            for i, s in enumerate([*ref.EXPERIMENT_SCENARIOS, huge] * 2)]
    spec = ref.POOLED_SPEC
    for call in (lambda: fit_mnl(data, spec),
                 lambda: gradient(data, spec, np.zeros(4)),
                 lambda: hessian(data, spec, np.zeros(4))):
        with pytest.raises(ValueError, match="^scenario 'big': its "
                           "information is not finite"):
            call()


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def test_two_sided_p_reference_values():
    assert two_sided_p(0.218 / 0.200) == pytest.approx(0.277, abs=0.002)
    assert two_sided_p(0.413 / 0.522) == pytest.approx(0.429, abs=0.002)
    assert two_sided_p(1.088) == pytest.approx(0.277, abs=0.002)
    assert two_sided_p(0.790) == pytest.approx(0.429, abs=0.002)
    assert two_sided_p(0.0) == 1.0
    assert two_sided_p(-1.96) == pytest.approx(0.05, abs=1e-3)


def test_inference_table_shape_and_consistency():
    data = small_dataset(seed=4, n=80)
    fit = fit_mnl(data, SPEC2)
    rows = inference_table(fit)
    assert [r.name for r in rows] == list(SPEC2.coef_names())
    for r, est, var in zip(rows, fit.estimates, np.diag(fit.vcov)):
        assert r.estimate == est
        assert r.std_error == pytest.approx(math.sqrt(var), rel=1e-12)
        assert abs(r.z_value - r.estimate / r.std_error) < 0.05
        assert 0.0 <= r.p_value <= 1.0
        assert r.p_value == pytest.approx(two_sided_p(r.z_value), abs=1e-15)


def test_inference_requires_convergence():
    data = small_dataset(seed=4, n=40)
    fit = fit_mnl(data, SPEC2, max_iter=1)
    with pytest.raises(ValueError, match="converged"):
        inference_table(fit)
