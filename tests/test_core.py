"""Tests for domain types, utilities and choice probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitchoice import (ATTRIBUTES, ChoiceObservation, ExitAttributes,
                        ModelSpec, Scenario, as_params, choice_probabilities,
                        d_error, fisher_information, fit_mnl,
                        generate_dataset, gradient, hessian, log_likelihood,
                        search_design, softmax, systematic_utility, utilities)
from exitchoice import reference as ref
from exitchoice.core import _ChoiceSets

POOLED_BETA = ref.estimates_vector(ref.POOLED_SPEC, ref.POOLED_ESTIMATES)


def make_scenario(rows, sid=1):
    labels = "ABCDEF"
    return Scenario(id=sid, alternatives=tuple(
        (labels[i], ExitAttributes(*row)) for i, row in enumerate(rows)))


def random_scenario(rng, n_alts=3):
    rows = [(float(rng.integers(0, 11)), float(rng.uniform(0, 8)),
             int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            for _ in range(n_alts)]
    return make_scenario(rows)


# ---------------------------------------------------------------------------
# systematic utility
# ---------------------------------------------------------------------------

def test_utility_zero_attributes_is_zero():
    exit_a = ExitAttributes(np=0, dist=0, smoke=0, fam=0)
    assert systematic_utility(ref.POOLED_SPEC, POOLED_BETA, exit_a) == 0.0
    assert systematic_utility(ref.POOLED_SPEC, [5.0, -2.0, 1.0, 3.0], exit_a) == 0.0


def test_utility_battery_scenario1_exit_a():
    # hand-computed: -0.378*6 + 0.795 = -1.473
    _, exit_a = ref.EXPERIMENT_SCENARIOS[0].alternatives[0]
    v = systematic_utility(ref.POOLED_SPEC, POOLED_BETA, exit_a)
    assert v == pytest.approx(-1.473, abs=1e-9)


def test_utility_first_choice_interaction():
    # np base 0.041 plus interaction 0.192 when the first-choice flag is on
    beta = ref.estimates_vector(ref.FIRST_CHOICE_SPEC,
                                ref.FIRST_CHOICE_ESTIMATES)
    exit_a = ExitAttributes(np=1, dist=0, smoke=0, fam=0)
    v1 = systematic_utility(ref.FIRST_CHOICE_SPEC, beta, exit_a, c1=1)
    v0 = systematic_utility(ref.FIRST_CHOICE_SPEC, beta, exit_a, c1=0)
    assert v1 == pytest.approx(0.233, abs=1e-12)
    assert v0 == pytest.approx(0.041, abs=1e-12)


def test_utility_param_length_mismatch():
    exit_a = ExitAttributes(np=0, dist=0, smoke=0, fam=0)
    with pytest.raises(ValueError, match="length"):
        systematic_utility(ref.POOLED_SPEC, [1.0, 2.0], exit_a)


# ---------------------------------------------------------------------------
# choice probabilities
# ---------------------------------------------------------------------------

def test_identical_alternatives_split_evenly():
    scenario = make_scenario([(2, 3.0, 1, 0)] * 3)
    p = choice_probabilities(ref.POOLED_SPEC, POOLED_BETA, scenario)
    assert p[0] == p[1] == p[2]
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_battery_scenario1_probabilities():
    # frozen from an independent exp/sum evaluation of the three utilities
    # (-1.473, -2.3658, -3.1238)
    p = choice_probabilities(ref.POOLED_SPEC, POOLED_BETA,
                             ref.EXPERIMENT_SCENARIOS[0])
    expected = (0.6244520998549152, 0.2557178338388041, 0.11983006630628067)
    np.testing.assert_allclose(p, expected, rtol=1e-12)
    np.testing.assert_allclose(p, (0.625, 0.256, 0.120), atol=1e-3)


def test_two_exit_share_with_effective_crowding_coefficient():
    # effective np coefficient 0.233, NP_A=0 vs NP_B=5, all else equal
    spec = ModelSpec((("np", False),))
    scenario = make_scenario([(0, 0, 0, 0), (5, 0, 0, 0)])
    p = choice_probabilities(spec, [0.233], scenario)
    assert p[0] == pytest.approx(0.238, abs=1e-3)


def test_probabilities_sum_to_one_randomized():
    # coefficient scale kept moderate so strict openness of each P_i stays
    # representable in float64 (beyond |dV| ~ 37 the top share rounds to 1.0)
    rng = np.random.default_rng(101)
    spec = ref.FIRST_CHOICE_SPEC
    for _ in range(300):
        scenario = random_scenario(rng, n_alts=int(rng.integers(2, 6)))
        beta = rng.normal(0, 0.7, spec.n_params)
        c1 = int(rng.integers(0, 2))
        p = choice_probabilities(spec, beta, scenario, c1)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0) and np.all(p < 1)


def test_translation_invariance_of_softmax():
    rng = np.random.default_rng(7)
    for _ in range(300):
        v = rng.normal(0, 5, size=int(rng.integers(2, 6)))
        shift = rng.uniform(-40, 40)
        np.testing.assert_allclose(softmax(v), softmax(v + shift), atol=1e-12)


def test_monotonicity_in_one_utility():
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.normal(0, 2, 4)
        p_before = softmax(v)
        bumped = v.copy()
        bumped[1] += rng.uniform(0.01, 1.0)
        p_after = softmax(bumped)
        assert p_after[1] > p_before[1]
        for j in (0, 2, 3):
            assert p_after[j] < p_before[j]


def test_overflow_safety_extreme_utilities():
    spec = ModelSpec((("dist", False),))
    scenario = make_scenario([(0, 900.0, 0, 0), (0, 0.0, 0, 0)])
    p = choice_probabilities(spec, [1.0], scenario)
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0)


def test_first_choice_flag_off_matches_pooled_model():
    # with identical base coefficients, c1=0 must reproduce the pooled model
    beta2 = ref.estimates_vector(ref.FIRST_CHOICE_SPEC,
                                 ref.FIRST_CHOICE_ESTIMATES)
    base = {name: (beta2[i], None)
            for i, name in enumerate(ref.FIRST_CHOICE_SPEC.coef_names())
            if ":" not in name}
    beta1 = [base[name][0] for name in ref.POOLED_SPEC.coef_names()]
    for scenario in ref.EXPERIMENT_SCENARIOS:
        p2 = choice_probabilities(ref.FIRST_CHOICE_SPEC, beta2, scenario, c1=0)
        p1 = choice_probabilities(ref.POOLED_SPEC, beta1, scenario)
        # the two dot products group their sums differently, so agreement
        # is to the last ulp rather than bitwise
        np.testing.assert_allclose(p2, p1, atol=1e-15)


# ---------------------------------------------------------------------------
# type validation
# ---------------------------------------------------------------------------

def test_exit_attributes_validation():
    with pytest.raises(ValueError):
        ExitAttributes(np=-1, dist=0, smoke=0, fam=0)
    with pytest.raises(ValueError):
        ExitAttributes(np=0, dist=-0.5, smoke=0, fam=0)
    with pytest.raises(ValueError):
        ExitAttributes(np=0, dist=0, smoke=2, fam=0)
    with pytest.raises(ValueError):
        ExitAttributes(np=0, dist=0, smoke=0, fam=0.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_exit_attributes_reject_non_finite(bad):
    with pytest.raises(ValueError, match="np must be finite"):
        ExitAttributes(np=bad, dist=0, smoke=0, fam=0)
    with pytest.raises(ValueError, match="dist must be finite"):
        ExitAttributes(np=0, dist=bad, smoke=0, fam=0)


def test_scenario_needs_two_distinct_labels():
    a = ExitAttributes(np=0, dist=1, smoke=0, fam=0)
    with pytest.raises(ValueError, match="at least 2"):
        Scenario(id=1, alternatives=(("A", a),))
    with pytest.raises(ValueError, match="duplicate"):
        Scenario(id=1, alternatives=(("A", a), ("A", a)))


def test_observation_bounds():
    scenario = make_scenario([(0, 1, 0, 0), (0, 2, 0, 0)])
    with pytest.raises(ValueError, match="out of range"):
        ChoiceObservation(participant_id="p1", scenario=scenario, chosen=2)
    with pytest.raises(ValueError, match="first_choice"):
        ChoiceObservation(participant_id="p1", scenario=scenario, chosen=0,
                          first_choice=3)


def test_model_spec_validation():
    with pytest.raises(ValueError, match="unknown attribute"):
        ModelSpec((("speed", False),))
    with pytest.raises(ValueError, match="duplicate"):
        ModelSpec((("np", False), ("np", True)))
    spec = ModelSpec((("np", True), ("dist", False)))
    assert spec.n_params == 3
    assert spec.coef_names() == ("np", "np:first", "dist")


def test_model_spec_from_coef_names_roundtrip():
    spec = ref.FIRST_CHOICE_SPEC
    rebuilt = ModelSpec.from_coef_names(list(spec.coef_names()))
    assert rebuilt == spec
    with pytest.raises(ValueError, match="without base"):
        ModelSpec.from_coef_names(["np", "dist:first"])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coefficient_rejected_by_every_entry_point(bad):
    spec = ref.POOLED_SPEC
    beta = [0.1, -0.3, bad, 0.5]
    battery = list(ref.EXPERIMENT_SCENARIOS)
    scenario = battery[0]
    data = [ChoiceObservation(participant_id=i, scenario=s, chosen=i % 3)
            for i, s in enumerate(battery)]
    entry_points = {
        "as_params": lambda: as_params(spec, beta),
        "systematic_utility": lambda: systematic_utility(
            spec, beta, scenario.alternatives[0][1]),
        "utilities": lambda: utilities(spec, beta, scenario),
        "choice_probabilities": lambda: choice_probabilities(
            spec, beta, scenario),
        "log_likelihood": lambda: log_likelihood(data, spec, beta),
        "gradient": lambda: gradient(data, spec, beta),
        "hessian": lambda: hessian(data, spec, beta),
        "fit_mnl": lambda: fit_mnl(data, spec, init=beta),
        "fisher_information": lambda: fisher_information(battery, spec, beta),
        "d_error": lambda: d_error(battery, spec, beta),
        "search_design": lambda: search_design(battery, 4, spec, beta),
        "generate_dataset": lambda: generate_dataset(spec, beta, battery, 2),
    }
    for name, call in entry_points.items():
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == \
            f"coefficient smoke must be finite, got {bad}", name


def test_overflowing_utility_rejected_by_every_entry_point():
    # finite coefficients near 1e308 overflow a utility (dist 6.0 at exit A
    # of scenario 1): a ValueError, and no numpy warning, which this suite
    # turns into an error; fit_mnl checks its start before its line search
    spec = ref.POOLED_SPEC
    battery = list(ref.EXPERIMENT_SCENARIOS)
    scenario = battery[0]
    data = [ChoiceObservation(participant_id=i, scenario=s, chosen=i % 3)
            for i, s in enumerate(battery)]
    beta = [1e308, 1e308, 0.0, 0.0]
    problem = ("a utility is not finite; the coefficients are too large "
               "for its attributes")
    entry_points = {
        "fit_mnl": lambda: fit_mnl(data, spec, init=beta),
        "log_likelihood": lambda: log_likelihood(data, spec, beta),
        "utilities": lambda: utilities(spec, beta, scenario),
    }
    for name, call in entry_points.items():
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"scenario 1: {problem}", name
    with pytest.raises(ValueError) as info:
        systematic_utility(spec, beta, scenario.alternatives[0][1])
    assert str(info.value) == problem


@settings(max_examples=300, deadline=None)
@given(spec=st.sampled_from([ref.POOLED_SPEC, ref.FIRST_CHOICE_SPEC]),
       c1=st.integers(0, 1),
       rows=st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 8.0),
                               st.integers(0, 1), st.integers(0, 1)),
                     min_size=2, max_size=11),
       data=st.data())
def test_choice_probabilities_equal_softmax_reference_bitwise(spec, c1, rows,
                                                              data):
    beta = np.array(data.draw(st.lists(
        st.floats(-3.0, 3.0), min_size=spec.n_params,
        max_size=spec.n_params)))
    scenario = Scenario(id=1, alternatives=tuple(
        (f"E{j}", ExitAttributes(*row)) for j, row in enumerate(rows)))
    want = softmax(spec.design_matrix(scenario, c1) @ beta)
    np.testing.assert_array_equal(
        choice_probabilities(spec, beta, scenario, c1), want)


def test_as_params_accepts_iterables():
    spec = ModelSpec((("np", False), ("dist", False)))
    np.testing.assert_array_equal(as_params(spec, (1, 2)), [1.0, 2.0])
    np.testing.assert_array_equal(as_params(spec, np.array([1.0, 2.0])),
                                  [1.0, 2.0])


def test_utilities_vector_matches_scalar():
    rng = np.random.default_rng(3)
    scenario = random_scenario(rng)
    beta = rng.normal(0, 1, ref.POOLED_SPEC.n_params)
    v = utilities(ref.POOLED_SPEC, beta, scenario)
    for j, (_, attrs) in enumerate(scenario.alternatives):
        assert v[j] == pytest.approx(
            systematic_utility(ref.POOLED_SPEC, beta, attrs), rel=1e-14)


# ---------------------------------------------------------------------------
# design rows: the column expansion against the per-alternative reference
# ---------------------------------------------------------------------------

def loop_design_row(spec, exit, c1=0):
    """Reference: the expanded row built one attribute at a time."""
    row = []
    for attr, flag in spec.terms:
        x = float(getattr(exit, attr))
        row.append(x)
        if flag:
            row.append(c1 * x)
    return np.array(row, dtype=float)


_exit_rows = st.tuples(st.integers(0, 10) | st.floats(0.0, 20.0),
                       st.floats(0.0, 50.0), st.integers(0, 1),
                       st.integers(0, 1))


@st.composite
def design_problems(draw):
    """A random spec and mixed 2- and 3-alternative sets with mixed c1."""
    attrs = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1,
                          max_size=4, unique=True))
    spec = ModelSpec(tuple((a, draw(st.booleans())) for a in attrs))
    sets = []
    for i in range(draw(st.integers(1, 6))):
        rows = draw(st.lists(_exit_rows, min_size=2, max_size=3))
        sets.append((make_scenario(rows, sid=i), draw(st.integers(0, 1))))
    return spec, sets


@settings(max_examples=200, deadline=None)
@given(design_problems())
def test_design_rows_equal_loop_reference_bitwise(problem):
    spec, sets = problem
    for scenario, c1 in sets:
        want = np.stack([loop_design_row(spec, attrs, c1)
                         for _, attrs in scenario.alternatives])
        got = spec.design_matrix(scenario, c1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for row, (_, attrs) in zip(want, scenario.alternatives):
            assert spec.design_row(attrs, c1).tobytes() == row.tobytes()


@settings(max_examples=200, deadline=None)
@given(design_problems())
def test_choice_sets_tensor_equals_stacked_design_matrices(problem):
    # padded slots are zero rows and unavailable; c1 = 1 sets carry their
    # interaction columns
    spec, sets = problem
    kernel = _ChoiceSets(sets, spec)
    j_max = max(s.n_alternatives for s, _ in sets)
    want = np.zeros((len(sets), j_max, spec.n_params))
    for g, (scenario, c1) in enumerate(sets):
        want[g, :scenario.n_alternatives] = spec.design_matrix(scenario, c1)
    assert kernel.X.tobytes() == want.tobytes()
    assert kernel.X.shape == want.shape
    np.testing.assert_array_equal(
        kernel.avail, [[j < s.n_alternatives for j in range(j_max)]
                       for s, _ in sets])
    assert kernel.D.tobytes() == (want - want[:, :1]).tobytes()


def test_design_rows_reject_non_binary_c1():
    scenario = ref.EXPERIMENT_SCENARIOS[0]
    _, exit_a = scenario.alternatives[0]
    for call in (lambda: ref.FIRST_CHOICE_SPEC.design_row(exit_a, 2),
                 lambda: ref.FIRST_CHOICE_SPEC.design_matrix(scenario, -1),
                 lambda: _ChoiceSets.from_scenarios([scenario],
                                                    ref.FIRST_CHOICE_SPEC, 2)):
        with pytest.raises(ValueError, match="c1 must be 0 or 1"):
            call()
