"""Tests for domain types, utilities and choice probabilities."""

import copy
import dataclasses
import math
import pickle
import weakref
from collections import Counter
from itertools import chain, repeat
from operator import attrgetter, itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exitchoice
from exitchoice import (ATTRIBUTES, ChoiceObservation, ExitAttributes,
                        ModelSpec, Scenario, as_params, choice_probabilities,
                        d_error, fisher_information, fit_mnl,
                        generate_dataset, gradient, hessian, log_likelihood,
                        search_design, systematic_utility, utilities)
from exitchoice import reference as ref
from exitchoice.core import _ChoiceSets

from oracles import softmax

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


def shifted_scenario(scenario, attr, shift, alternatives=None):
    """``scenario`` with ``shift`` added to ``attr`` of the alternatives at
    the indices ``alternatives`` (all of them by default)."""
    return Scenario(id=scenario.id, alternatives=tuple(
        (label, dataclasses.replace(attrs, **{attr: getattr(attrs, attr)
                                              + shift})
         if alternatives is None or j in alternatives else attrs)
        for j, (label, attrs) in enumerate(scenario.alternatives)))


def test_translation_invariance_of_softmax():
    # one attribute shifted on every alternative adds the same amount to
    # every utility, which the logit probabilities ignore
    rng = np.random.default_rng(7)
    spec = ref.FIRST_CHOICE_SPEC
    for i in range(300):
        scenario = random_scenario(rng, n_alts=int(rng.integers(2, 6)))
        beta = rng.normal(0, 1, spec.n_params)
        c1 = int(rng.integers(0, 2))
        shifted = shifted_scenario(scenario, ("np", "dist")[i % 2],
                                   rng.uniform(0, 40))
        np.testing.assert_allclose(
            choice_probabilities(spec, beta, scenario, c1),
            choice_probabilities(spec, beta, shifted, c1), atol=1e-12)


def test_monotonicity_in_one_utility():
    # raising np on alternative 1 alone, with a positive np coefficient,
    # raises its utility and no other
    rng = np.random.default_rng(11)
    spec = ref.POOLED_SPEC
    for _ in range(100):
        scenario = random_scenario(rng, n_alts=4)
        beta = rng.normal(0, 1, spec.n_params)
        beta[spec.coef_names().index("np")] = rng.uniform(0.1, 1.0)
        p_before = choice_probabilities(spec, beta, scenario)
        bumped = shifted_scenario(scenario, "np", rng.uniform(0.1, 1.0), {1})
        p_after = choice_probabilities(spec, beta, bumped)
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 pytest.param(10**400, id="10**400")])
def test_exit_attributes_reject_non_finite(bad):
    # 10**400 is below float('inf'), but float() cannot convert it
    with pytest.raises(ValueError, match="np must be finite"):
        ExitAttributes(np=bad, dist=0, smoke=0, fam=0)
    with pytest.raises(ValueError, match="dist must be finite"):
        ExitAttributes(np=0, dist=bad, smoke=0, fam=0)


@pytest.mark.parametrize("bad, shown", [("5", "'5'"), (None, "None"),
                                        ("nan", "'nan'"), ([1], "[1]")])
def test_exit_attributes_reject_non_numbers_with_value_error(bad, shown):
    # a comparison with a string or None raises TypeError; it is reported
    # as the usual ValueError, with the value's repr
    with pytest.raises(ValueError) as info:
        ExitAttributes(np=bad, dist=1.0, smoke=0, fam=0)
    assert str(info.value) == f"np must be finite and >= 0, got {shown}"
    with pytest.raises(ValueError) as info:
        ExitAttributes(np=1.0, dist=bad, smoke=0, fam=0)
    assert str(info.value) == f"dist must be finite and >= 0, got {shown}"


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


@pytest.mark.parametrize("bad", [0.5, 1.0, np.float64(1.0), "1", None])
def test_observation_chosen_must_be_an_integer(bad):
    # a float index used to pass here and fail later inside numpy, and the
    # writer then wrote an observation with no chosen=1 row
    scenario = ref.EXPERIMENT_SCENARIOS[0]
    with pytest.raises(ValueError, match="integer index"):
        ChoiceObservation(participant_id="p1", scenario=scenario, chosen=bad)


@pytest.mark.parametrize("chosen", [True, False, np.int64(1), np.intp(2),
                                    np.uint8(0)])
def test_observation_chosen_is_stored_as_int(chosen):
    scenario = ref.EXPERIMENT_SCENARIOS[0]
    obs = ChoiceObservation(participant_id="p1", scenario=scenario,
                            chosen=chosen)
    plain = ChoiceObservation(participant_id="p1", scenario=scenario,
                              chosen=int(chosen))
    assert type(obs.chosen) is int
    assert obs == plain and hash(obs) == hash(plain)
    assert repr(obs) == repr(plain)


def test_bool_chosen_data_fit_like_int_data():
    # a list of bools used to reach numpy as a boolean mask
    rng = np.random.default_rng(5)
    picks = [(bool(rng.integers(0, 2)), random_scenario(rng, n_alts=2))
             for _ in range(200)]
    as_bool = [ChoiceObservation(participant_id=i, scenario=s, chosen=c)
               for i, (c, s) in enumerate(picks)]
    as_int = [ChoiceObservation(participant_id=i, scenario=s, chosen=int(c))
              for i, (c, s) in enumerate(picks)]
    assert (log_likelihood(as_bool, ref.POOLED_SPEC, POOLED_BETA)
            == log_likelihood(as_int, ref.POOLED_SPEC, POOLED_BETA))
    np.testing.assert_array_equal(
        fit_mnl(as_bool, ref.POOLED_SPEC).estimates,
        fit_mnl(as_int, ref.POOLED_SPEC).estimates)


def _value_objects():
    scenario = ref.EXPERIMENT_SCENARIOS[0]
    return [scenario.alternatives[0][1], scenario,
            ChoiceObservation(participant_id="p1", scenario=scenario,
                              chosen=2, first_choice=1)]


@pytest.mark.parametrize("obj", _value_objects(), ids=type)
def test_value_types_are_slotted_and_frozen(obj):
    assert not hasattr(obj, "__dict__")
    field = dataclasses.fields(obj)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, getattr(obj, field))
    # Python 3.10 and 3.11 raise TypeError here, not FrozenInstanceError:
    # their generated __setattr__ tests the class as it was before slotting
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        obj.extra = 1
    assert not hasattr(obj, "extra")
    # slotted instances take no weak references
    with pytest.raises(TypeError):
        weakref.ref(obj)


@pytest.mark.parametrize("obj", _value_objects(), ids=type)
def test_value_types_round_trip(obj):
    copies = [pickle.loads(pickle.dumps(obj, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(obj), copy.deepcopy(obj), dataclasses.replace(obj)]
    for twin in copies:
        assert type(twin) is type(obj)
        assert twin == obj and hash(twin) == hash(obj)
        assert repr(twin) == repr(obj)


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


def test_finite_utilities_with_overflowing_spread():
    # utilities -9e307 at exit A and 9.6e307 at exit B of scenario 1: their
    # difference passes the float range, which must raise no warning (an
    # error in this suite); the kernel's log-likelihood stays unchecked
    spec = ref.POOLED_SPEC
    scenario = ref.EXPERIMENT_SCENARIOS[0]
    beta = [1.5e307, -1.5e307, 0.0, 0.0]
    assert np.isfinite(utilities(spec, beta, scenario)).all()
    np.testing.assert_array_equal(choice_probabilities(spec, beta, scenario),
                                  [0.0, 1.0, 0.0])
    chose = [ChoiceObservation(participant_id=0, scenario=scenario, chosen=j)
             for j in range(3)]
    ll = log_likelihood(chose[1:2], spec, beta)
    assert math.isfinite(ll) and ll == pytest.approx(0.0, abs=1e-300)
    sets = _ChoiceSets.from_observations(chose, spec)
    assert sets.log_likelihood(np.array(beta)) == -math.inf
    # a chosen utility that overflows is not finite either
    sets = _ChoiceSets.from_observations(chose[:1], spec)
    assert not math.isfinite(
        sets.log_likelihood(np.array([1e308, 1e308, 0.0, 0.0])))


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


@settings(max_examples=200, deadline=None)
@given(design_problems(), st.data())
def test_systematic_utility_equals_loop_reference_bitwise(problem, data):
    spec, sets = problem
    beta = np.array(data.draw(st.lists(
        st.floats(-3.0, 3.0), min_size=spec.n_params,
        max_size=spec.n_params)))
    for scenario, c1 in sets:
        for _, attrs in scenario.alternatives:
            want = float(loop_design_row(spec, attrs, c1) @ beta)
            got = systematic_utility(spec, beta, attrs, c1)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


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


def chained_tensor(sets, spec):
    """Reference: the kernel's ``(X, D, avail)`` from the chained build.

    One iterator chain per set yields its attribute rows and then zero rows
    up to the largest set size; ``np.fromiter`` reads them all into
    ``(float, len(ATTRIBUTES))`` records.
    """
    attribute_values = attrgetter(*ATTRIBUTES)
    no_attributes = (0.0,) * len(ATTRIBUTES)
    sizes = np.array([s.n_alternatives for s, _ in sets])
    j_max = int(sizes.max())
    rows = chain.from_iterable(
        chain(map(attribute_values, map(itemgetter(1), s.alternatives)),
              repeat(no_attributes, j_max - s.n_alternatives))
        for s, _ in sets)
    c1 = np.array([c1 for _, c1 in sets], dtype=float)[:, None]
    X = spec._expand(np.fromiter(
        rows, dtype=(float, len(ATTRIBUTES)),
        count=len(sets) * j_max).reshape(len(sets), j_max, -1), c1)
    return X, X - X[:, :1], np.arange(j_max) < sizes[:, None]


@st.composite
def kernel_problems(draw):
    """A reference spec, up to 40 sets of 2-7 alternatives with their sizes
    in any order and mixed c1, and observations of those scenarios."""
    spec = draw(st.sampled_from([ref.POOLED_SPEC, ref.FIRST_CHOICE_SPEC]))
    exit_rows = st.tuples(st.integers(0, 10) | st.integers(0, 2**70)
                          | st.floats(0.0, 1e300), st.floats(0.0, 50.0),
                          st.integers(0, 1), st.integers(0, 1))
    sets = []
    for i in range(draw(st.integers(1, 40))):
        rows = draw(st.lists(exit_rows, min_size=2, max_size=7))
        sets.append((Scenario(id=i, alternatives=tuple(
            (label, ExitAttributes(*row))
            for label, row in zip("ABCDEFG", rows))),
            draw(st.integers(0, 1))))
    picks = draw(st.lists(st.tuples(st.integers(0, len(sets) - 1),
                                    st.integers(0, 6), st.integers(0, 1),
                                    st.integers(1, 3)),
                          min_size=1, max_size=60))
    data = [ChoiceObservation(participant_id=n, scenario=sets[g][0],
                              chosen=c % sets[g][0].n_alternatives,
                              first_choice=f)
            for n, (g, c, f, copies) in enumerate(picks)
            for _ in range(copies)]
    return spec, sets, data


@settings(max_examples=60, deadline=None)
@given(kernel_problems())
def test_choice_sets_tensor_equals_chained_build(problem):
    spec, sets, data = problem
    kernel = _ChoiceSets(sets, spec)
    X, D, avail = chained_tensor(sets, spec)
    assert kernel.X.shape == X.shape and kernel.X.tobytes() == X.tobytes()
    assert kernel.D.tobytes() == D.tobytes()
    np.testing.assert_array_equal(kernel.avail, avail)
    # grouping: (scenario, c1) keys in first-seen order, choices counted
    want: dict = {}
    for obs in data:
        want.setdefault((obs.scenario, obs.first_choice),
                        Counter())[obs.chosen] += 1
    grouped = _ChoiceSets.from_observations(data, spec)
    X, D, avail = chained_tensor(list(want), spec)
    assert grouped.scenarios == [s for s, _ in want]
    assert grouped.X.tobytes() == X.tobytes()
    assert grouped.D.tobytes() == D.tobytes()
    np.testing.assert_array_equal(grouped.avail, avail)
    expected = np.zeros(avail.shape)
    for g, counts in enumerate(want.values()):
        for j, n in counts.items():
            expected[g, j] = n
    np.testing.assert_array_equal(grouped.counts, expected)


def test_design_rows_reject_non_binary_c1():
    scenario = ref.EXPERIMENT_SCENARIOS[0]
    _, exit_a = scenario.alternatives[0]
    beta = ref.estimates_vector(ref.FIRST_CHOICE_SPEC,
                                ref.FIRST_CHOICE_ESTIMATES)
    for call in (lambda: systematic_utility(ref.FIRST_CHOICE_SPEC, beta,
                                            exit_a, 2),
                 lambda: ref.FIRST_CHOICE_SPEC.design_matrix(scenario, -1),
                 lambda: _ChoiceSets.from_scenarios([scenario],
                                                    ref.FIRST_CHOICE_SPEC, 2)):
        with pytest.raises(ValueError, match="c1 must be 0 or 1"):
            call()


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

PUBLIC_API = [
    "ATTRIBUTES", "ChoiceObservation", "EfficientDesign", "ExitAttributes",
    "FactorLevels", "InferenceRow", "ModelFit", "ModelSpec",
    "NotIdentifiedError", "Scenario", "SensitivityConfig",
    "SeparationWarning", "as_params", "choice_probabilities", "d_error",
    "effective_coefficients", "fisher_information", "fit_mnl",
    "full_factorial", "generate_dataset", "gradient", "hessian",
    "inference_table", "log_likelihood", "search_design",
    "sensitivity_curve", "systematic_utility", "two_sided_p", "utilities",
]


def test_public_api_is_pinned():
    # a name added to or dropped from the package's API fails here first
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert exitchoice.__all__ == PUBLIC_API
    namespace = {}
    exec("from exitchoice import *", namespace)
    assert set(PUBLIC_API) <= set(namespace)
