"""Tests for choice sampling, dataset generation and sensitivity curves."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from exitchoice import (ATTRIBUTES, ChoiceObservation, ExitAttributes,
                        ModelSpec, Scenario, SensitivityConfig,
                        choice_probabilities, effective_coefficients,
                        fit_mnl, generate_dataset, sensitivity_curve,
                        utilities)
from exitchoice import reference as ref
from exitchoice.simulation import MAX_SWEEP_POINTS, RULES

from oracles import softmax

SPEC2 = ref.FIRST_CHOICE_SPEC
TRUTH2 = np.array(ref.estimates_vector(SPEC2, ref.FIRST_CHOICE_ESTIMATES))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def gumbel_choice(v, rng):
    """Oracle sampler: argmax of utilities plus i.i.d. Gumbel noise."""
    return int(np.argmax(v + rng.gumbel(size=v.size)))


def test_generate_dataset_degenerate_distribution():
    # a utility gap of 1000 gives probabilities of exactly 1 and 0; the
    # zero-probability exits are never drawn, wherever they sit
    spec = ModelSpec((("dist", False),))
    near = ExitAttributes(np=0, dist=0.0, smoke=0, fam=0)
    far = ExitAttributes(np=0, dist=100.0, smoke=0, fam=0)
    for j in range(3):
        alternatives = tuple((label, near if i == j else far)
                             for i, label in enumerate("ABC"))
        scenario = Scenario(id=j, alternatives=alternatives)
        assert choice_probabilities(spec, [-10.0], scenario)[j] == 1.0
        data = generate_dataset(spec, [-10.0], [scenario], 200, seed=j)
        assert all(obs.chosen == j for obs in data)


def test_gumbel_argmax_matches_categorical_distribution():
    # EV1 perturbation of utilities defines the same choice distribution as
    # the logit probabilities; chi-square GOF on 100k draws of the Gumbel
    # oracle and of generate_dataset's categorical sampler
    scenario = ref.EXPERIMENT_SCENARIOS[0]
    beta = ref.estimates_vector(ref.POOLED_SPEC, ref.POOLED_ESTIMATES)
    p = choice_probabilities(ref.POOLED_SPEC, beta, scenario)
    v = utilities(ref.POOLED_SPEC, beta, scenario)
    n = 100_000
    rng = np.random.default_rng(8)
    gumbel_counts = np.bincount(
        [gumbel_choice(v, rng) for _ in range(n)], minlength=3)
    data = generate_dataset(ref.POOLED_SPEC, beta, [scenario], n, seed=8)
    cat_counts = np.bincount([obs.chosen for obs in data], minlength=3)
    for counts in (gumbel_counts, cat_counts):
        res = stats.chisquare(counts, f_exp=n * p)
        assert res.pvalue > 0.001


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

def test_generate_dataset_counts_and_order():
    data = generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS,
                            n_per_scenario=3, seed=0)
    assert len(data) == 24
    assert [obs.scenario.id for obs in data] == [
        sid for sid in range(1, 9) for _ in range(3)]
    single = generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS[:1],
                              n_per_scenario=1, seed=0)
    assert len(single) == 1


def test_generate_dataset_deterministic_given_seed():
    a = generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS, 20, seed=4)
    b = generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS, 20, seed=4)
    assert [(o.participant_id, o.chosen, o.first_choice) for o in a] == \
           [(o.participant_id, o.chosen, o.first_choice) for o in b]
    c = generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS, 20, seed=5)
    assert [o.chosen for o in a] != [o.chosen for o in c]


def test_generate_dataset_first_choice_fraction():
    data = generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS, 40,
                            c1_pattern=0.25, seed=1)
    flagged = sum(o.first_choice for o in data)
    assert flagged == 0.25 * len(data)
    none = generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS, 8,
                            c1_pattern=0.0, seed=1)
    assert sum(o.first_choice for o in none) == 0


def test_generate_dataset_uniform_shares_at_zero_coefficients():
    zeros = np.zeros(SPEC2.n_params)
    n = 9000
    data = generate_dataset(SPEC2, zeros, ref.EXPERIMENT_SCENARIOS[:2],
                            n_per_scenario=n, seed=3)
    for sid in (1, 2):
        chosen = [o.chosen for o in data if o.scenario.id == sid]
        for j in range(3):
            share = np.mean(np.array(chosen) == j)
            bound = 3 * math.sqrt((1 / 3) * (2 / 3) / n)
            assert abs(share - 1 / 3) < bound


def test_generate_dataset_validation():
    with pytest.raises(ValueError, match=">= 1"):
        generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS, 0)
    with pytest.raises(ValueError, match="fraction"):
        generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS, 5,
                         c1_pattern=1.5)


def test_roundtrip_recovery_within_five_percent():
    # generate -> fit round trip at N=50,000; coefficients with |true| >= 0.1
    # recovered within 5% relative error on each of three fixed seeds
    big = np.abs(TRUTH2) >= 0.1
    for seed in (0, 7, 11):
        data = generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS,
                                n_per_scenario=6250, c1_pattern=0.25,
                                seed=seed)
        fit = fit_mnl(data, SPEC2)
        assert fit.converged
        rel = np.abs(fit.estimates - TRUTH2) / np.abs(TRUTH2)
        assert np.all(rel[big] <= 0.05), (seed, rel)


def test_generate_dataset_empty_scenario_list():
    assert generate_dataset(SPEC2, TRUTH2, [], 5, seed=0) == []


# ---------------------------------------------------------------------------
# batched sampler against the per-scenario reference
# ---------------------------------------------------------------------------

def loop_generate_dataset(spec, params, scenarios, n_per_scenario,
                          c1_pattern=0.25, seed=0):
    """Reference: one ``rng.random`` call, one softmax and one search per
    scenario."""
    beta = np.asarray(params, dtype=float)
    rng = np.random.default_rng(seed)
    n_first = int(round(c1_pattern * n_per_scenario))
    data = []
    for scenario in scenarios:
        cum = {c1: np.cumsum(softmax(spec.design_matrix(scenario, c1)
                                     @ beta))
               for c1 in (1, 0)}
        draws = rng.random(n_per_scenario)
        for r in range(n_per_scenario):
            c1 = 1 if r < n_first else 0
            idx = int(np.searchsorted(cum[c1], draws[r], side="right"))
            data.append(ChoiceObservation(
                participant_id=f"sim{len(data) + 1:06d}",
                scenario=scenario,
                chosen=min(idx, scenario.n_alternatives - 1),
                first_choice=c1))
    return data


_exit_rows = st.tuples(st.integers(0, 10), st.floats(0.0, 8.0),
                       st.integers(0, 1), st.integers(0, 1))


@st.composite
def sampling_problems(draw):
    """Mixed 2- and 3-alternative scenarios, a random spec and beta."""
    scenarios = []
    for i in range(draw(st.integers(1, 6))):
        rows = draw(st.lists(_exit_rows, min_size=2, max_size=3))
        scenarios.append(Scenario(id=i, alternatives=tuple(
            (label, ExitAttributes(*row)) for label, row in zip("ABC", rows))))
    attrs = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1,
                          max_size=4, unique=True))
    spec = ModelSpec(tuple((a, draw(st.booleans())) for a in attrs))
    beta = draw(st.lists(st.floats(-3.0, 3.0), min_size=spec.n_params,
                         max_size=spec.n_params))
    return (spec, beta, scenarios, draw(st.integers(1, 50)),
            draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=200, deadline=None)
@given(sampling_problems())
def test_batched_sampler_equals_loop_reference(problem):
    spec, beta, scenarios, n, c1_pattern, seed = problem
    got = generate_dataset(spec, beta, scenarios, n, c1_pattern, seed)
    want = loop_generate_dataset(spec, beta, scenarios, n, c1_pattern, seed)
    assert [(o.participant_id, o.chosen, o.first_choice) for o in got] == \
           [(o.participant_id, o.chosen, o.first_choice) for o in want]
    assert all(a.scenario is b.scenario for a, b in zip(got, want))


class _FixedDraws:
    """Stands in for a seeded generator: every uniform is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


def test_draw_above_rounded_total_picks_last_real_alternative(monkeypatch):
    # the 2-exit set's cumulative probabilities end below 1 by rounding; a
    # draw at or above that end picks its last exit, not a padded slot of
    # the 3-exit set batched with it
    spec = ModelSpec((("dist", False),))
    short = Scenario(id=1, alternatives=(
        ("A", ExitAttributes(np=0, dist=0.0, smoke=0, fam=0)),
        ("B", ExitAttributes(np=0, dist=0.6, smoke=0, fam=0))))
    wide = ref.EXPERIMENT_SCENARIOS[0]
    assert np.cumsum(choice_probabilities(spec, [-1.0], short))[-1] < 1.0
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _FixedDraws(np.nextafter(1.0, 0.0)))
    data = generate_dataset(spec, [-1.0], [short, wide], 3, seed=0)
    assert [o.chosen for o in data] == [1, 1, 1, 2, 2, 2]
    assert data == loop_generate_dataset(spec, [-1.0], [short, wide], 3)


def test_draw_equal_to_cumulative_probability_goes_right(monkeypatch):
    # identical exits split exactly in half; a draw of exactly 0.5 lies on
    # the first cumulative probability and, as searchsorted(side="right")
    # does, picks the second exit
    same = ExitAttributes(np=2, dist=3.0, smoke=0, fam=1)
    tie = Scenario(id=1, alternatives=(("A", same), ("B", same)))
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _FixedDraws(0.5))
    data = generate_dataset(ref.POOLED_SPEC, [0.1, -0.4, -1.7, 0.8], [tie],
                            4, seed=0)
    assert [o.chosen for o in data] == [1, 1, 1, 1]


# ---------------------------------------------------------------------------
# effective coefficients
# ---------------------------------------------------------------------------

def test_effective_coefficients_rules():
    sig = effective_coefficients(ref.FIRST_CHOICE_ESTIMATES,
                                 rule="significant")
    assert sig["np"] == pytest.approx(0.233, abs=1e-12)
    assert sig["smoke"] == pytest.approx(-0.524, abs=1e-12)
    assert sig["dist"] == pytest.approx(-0.439, abs=1e-12)
    assert sig["fam"] == pytest.approx(0.735, abs=1e-12)

    base = effective_coefficients(ref.FIRST_CHOICE_ESTIMATES, rule="base")
    assert base["np"] == pytest.approx(0.041)
    assert base["smoke"] == pytest.approx(-2.305)

    total = effective_coefficients(ref.FIRST_CHOICE_ESTIMATES, rule="sum")
    assert total["fam"] == pytest.approx(0.735 + 0.413, abs=1e-12)
    assert total["dist"] == pytest.approx(-0.439 + 0.218, abs=1e-12)


def test_effective_coefficients_validation():
    with pytest.raises(ValueError, match="rule"):
        effective_coefficients(ref.FIRST_CHOICE_ESTIMATES, rule="maybe")
    with pytest.raises(ValueError, match="standard error"):
        effective_coefficients({"np": 0.1, "np:first": 0.2},
                               rule="significant")
    with pytest.raises(ValueError, match="base"):
        effective_coefficients({"np:first": (0.2, 0.1)})
    plain = effective_coefficients({"np": 0.1, "np:first": 0.2}, rule="sum")
    assert plain["np"] == pytest.approx(0.3)
    # finite estimates and standard errors, as read_params_csv requires
    for name, rule in itertools.product(("np", "np:first"), RULES):
        params = {"np": (0.1, 0.05), "np:first": (0.2, 0.1)}
        for se in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError,
                               match=f"std_error of '{name}' must be finite"):
                effective_coefficients({**params, name: (0.3, se)}, rule)
        for est in (math.nan, math.inf):
            with pytest.raises(ValueError,
                               match=f"estimate of '{name}' must be finite"):
                effective_coefficients({**params, name: est}, rule)


# ---------------------------------------------------------------------------
# sensitivity curves
# ---------------------------------------------------------------------------

def crowding_sweep(familiarity, rule="significant"):
    return SensitivityConfig(
        sweep_attr="np", start=0, stop=10, step=0.5,
        swept_exit={"dist": 3.0, "smoke": 0},
        fixed_exit={"np": 5, "dist": 3.0, "smoke": 0},
        familiarity=familiarity, rule=rule)


def test_crowding_curve_endpoints():
    curve = sensitivity_curve(ref.FIRST_CHOICE_ESTIMATES,
                              crowding_sweep("both"))
    assert curve[0][1] == pytest.approx(0.23, abs=0.01)
    assert curve[-1][1] == pytest.approx(0.76, abs=0.01)


def test_familiarity_shift_at_equal_crowding():
    at5 = {}
    for condition in ("A", "B"):
        curve = sensitivity_curve(ref.FIRST_CHOICE_ESTIMATES,
                                  crowding_sweep(condition))
        at5[condition] = dict(curve)[5.0]
    assert at5["A"] == pytest.approx(0.68, abs=0.01)
    assert at5["B"] == pytest.approx(0.32, abs=0.01)


def test_distance_curve_endpoints():
    config = SensitivityConfig(
        sweep_attr="dist", start=0, stop=6, step=0.25,
        swept_exit={"np": 0, "smoke": 0},
        fixed_exit={"np": 0, "dist": 3.0, "smoke": 0},
        familiarity="both")
    curve = sensitivity_curve(ref.FIRST_CHOICE_ESTIMATES, config)
    assert curve[0][1] == pytest.approx(0.79, abs=0.01)
    assert curve[-1][1] == pytest.approx(0.21, abs=0.01)


def test_curves_strictly_monotone():
    up = sensitivity_curve(ref.FIRST_CHOICE_ESTIMATES, crowding_sweep("both"))
    values = [p for _, p in up]
    assert all(b > a for a, b in zip(values, values[1:]))

    down = sensitivity_curve(ref.FIRST_CHOICE_ESTIMATES, SensitivityConfig(
        sweep_attr="dist", start=0, stop=6, step=0.5,
        swept_exit={"np": 0, "smoke": 0},
        fixed_exit={"np": 0, "dist": 3.0, "smoke": 0}, familiarity="both"))
    values = [p for _, p in down]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_familiar_with_both_equals_model_without_familiarity():
    # fam enters both exits identically, so it must drop out exactly
    with_fam = sensitivity_curve(ref.FIRST_CHOICE_ESTIMATES,
                                 crowding_sweep("both"))
    no_fam_params = {k: v for k, v in ref.FIRST_CHOICE_ESTIMATES.items()
                     if not k.startswith("fam")}
    without_fam = sensitivity_curve(no_fam_params, crowding_sweep("both"))
    assert with_fam == without_fam


def test_equal_attributes_give_exact_half():
    config = SensitivityConfig(
        sweep_attr="np", start=5, stop=5, step=1.0,
        swept_exit={"dist": 3.0, "smoke": 0},
        fixed_exit={"np": 5, "dist": 3.0, "smoke": 0}, familiarity="both")
    curve = sensitivity_curve(ref.FIRST_CHOICE_ESTIMATES, config)
    assert curve == [(5.0, 0.5)]


def test_sensitivity_config_validation():
    with pytest.raises(ValueError, match="step"):
        SensitivityConfig(sweep_attr="np", start=0, stop=10, step=0)
    with pytest.raises(ValueError, match="empty sweep"):
        SensitivityConfig(sweep_attr="np", start=10, stop=0, step=1)
    with pytest.raises(ValueError, match="familiarity"):
        SensitivityConfig(sweep_attr="np", start=0, stop=1, step=1,
                          familiarity="C")
    with pytest.raises(ValueError, match="fam"):
        SensitivityConfig(sweep_attr="fam", start=0, stop=1, step=1)
    with pytest.raises(ValueError, match="not in the model"):
        sensitivity_curve({"np": (0.2, 0.1)}, SensitivityConfig(
            sweep_attr="dist", start=0, stop=1, step=1))
    for bad in (math.nan, math.inf, -math.inf, 10 ** 400):
        for name in ("start", "stop", "step"):
            bounds = {"start": 0.0, "stop": 1.0, "step": 0.5, name: bad}
            with pytest.raises(ValueError,
                               match=f"sweep {name} must be finite"):
                SensitivityConfig(sweep_attr="np", **bounds)
    # point counts that pass the float range, from the quotient and from
    # the span
    for start, stop, step in ((0.0, 1e300, 1e-300), (-1e308, 1e308, 1.0)):
        with pytest.raises(ValueError, match="too many points to count"):
            SensitivityConfig(sweep_attr="np", start=start, stop=stop,
                              step=step)


@pytest.mark.parametrize("stop, step", [
    (1e300, 1.0), (1e9, 1.0), (1.0, 1e-9), (float(MAX_SWEEP_POINTS), 1.0)])
def test_sensitivity_config_caps_the_point_count(stop, step):
    # rejected when built, before any array of the sweep is allocated
    with pytest.raises(ValueError) as info:
        SensitivityConfig(sweep_attr="np", start=0.0, stop=stop, step=step)
    assert str(info.value) == (
        f"sweep from 0.0 to {stop!r} by {step!r} has more than "
        f"{MAX_SWEEP_POINTS:,} points")
    # one point fewer is accepted
    config = SensitivityConfig(sweep_attr="np", start=0.0,
                               stop=MAX_SWEEP_POINTS - 1.0, step=1.0)
    assert config._count() == MAX_SWEEP_POINTS


@pytest.mark.parametrize("alpha", [2, 1, 0, -1, float("nan")])
def test_sensitivity_config_alpha_in_unit_interval(alpha):
    # both entry points, whatever the rule
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
        SensitivityConfig(sweep_attr="np", start=0, stop=1, step=1,
                          alpha=alpha)
    for rule in RULES:
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            effective_coefficients(ref.FIRST_CHOICE_ESTIMATES, rule, alpha)
