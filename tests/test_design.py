"""Tests for factorial enumeration, Fisher information, D-error and search."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitchoice import (ATTRIBUTES, ChoiceObservation, ExitAttributes,
                        FactorLevels, ModelSpec, NotIdentifiedError, Scenario,
                        d_error, fisher_information, full_factorial, hessian,
                        search_design)
from exitchoice import reference as ref
from exitchoice.core import _ChoiceSets
from exitchoice.design import (_RANK_RTOL, _SCREEN_RTOL, MAX_CANDIDATES,
                               MAX_RESTARTS, _candidate_terms, _d_errors,
                               _scan)

import oracles
from oracles import softmax

POOLED_PRIORS = ref.estimates_vector(ref.POOLED_SPEC, ref.POOLED_ESTIMATES)


def two_exit_scenario(sid, a_row, b_row):
    return Scenario(id=sid, alternatives=(
        ("A", ExitAttributes(*a_row)), ("B", ExitAttributes(*b_row))))


def random_candidates(n, rng, n_alts=2):
    labels = "ABC"[:n_alts]
    out = []
    for i in range(n):
        rows = tuple(
            (label, ExitAttributes(np=int(rng.integers(0, 4)),
                                   dist=float(rng.integers(0, 5)),
                                   smoke=int(rng.integers(0, 2)), fam=0))
            for label in labels)
        out.append(Scenario(id=i + 1, alternatives=rows))
    return out


# ---------------------------------------------------------------------------
# full factorial
# ---------------------------------------------------------------------------

def test_experiment_levels_yield_2048_scenarios():
    scenarios = full_factorial(ref.EXPERIMENT_LEVELS)
    assert len(scenarios) == 2048
    assert ref.EXPERIMENT_LEVELS.n_scenarios == 2048


def test_full_factorial_no_duplicates_deterministic():
    scenarios = full_factorial(ref.EXPERIMENT_LEVELS)
    keys = {tuple((label, attrs.np, attrs.dist, attrs.smoke, attrs.fam)
                  for label, attrs in s.alternatives) for s in scenarios}
    assert len(keys) == 2048
    again = full_factorial(ref.EXPERIMENT_LEVELS)
    assert [s.alternatives for s in again] == [s.alternatives
                                               for s in scenarios]
    assert [s.id for s in scenarios] == list(range(1, 2049))


def test_full_factorial_degenerate_and_2x2():
    single = FactorLevels(levels={
        "A": {"np": (1,), "dist": (2.0,), "smoke": (0,), "fam": (1,)},
        "B": {"np": (0,), "dist": (3.0,), "smoke": (0,), "fam": (0,)}})
    assert len(full_factorial(single)) == 1

    two_by_two = FactorLevels(levels={
        "A": {"np": (0, 5), "dist": (2.0,), "smoke": (0, 1), "fam": (1,)},
        "B": {"np": (0,), "dist": (3.0,), "smoke": (0,), "fam": (0,)}})
    assert len(full_factorial(two_by_two)) == 4


_amounts = st.integers(0, 10) | st.floats(0.0, 10.0)


@st.composite
def factor_levels(draw):
    """2-4 exits; each varies at most two attributes over two levels, the
    rest are single-level axes, and attributes come in any order."""
    levels = {}
    for label in draw(st.lists(st.text("ABCD", min_size=1, max_size=2),
                               min_size=2, max_size=4, unique=True)):
        varying = draw(st.lists(st.sampled_from(ATTRIBUTES), max_size=2,
                                unique=True))
        per = {}
        for attr in draw(st.permutations(ATTRIBUTES)):
            n = 2 if attr in varying else 1
            if attr in ("smoke", "fam"):
                per[attr] = draw(st.permutations((0, 1)))[:n]
            else:
                per[attr] = draw(st.lists(_amounts, min_size=n, max_size=n))
        levels[label] = per
    return FactorLevels(levels=levels)


@settings(max_examples=60, deadline=None)
@given(factor_levels())
def test_full_factorial_equals_oracle(levels):
    got = full_factorial(levels)
    want = oracles.full_factorial(levels)
    assert [s.id for s in got] == [s.id for s in want]
    assert got == want
    # the same level objects too: an int level stays an int
    assert list(map(repr, got)) == list(map(repr, want))
    exits = {id(attrs) for s in got for _, attrs in s.alternatives}
    assert len(exits) == sum(
        math.prod(map(len, per.values())) for per in levels.levels.values())


def test_full_factorial_builds_each_exit_once():
    scenarios = full_factorial(ref.EXPERIMENT_LEVELS)
    assert scenarios == oracles.full_factorial(ref.EXPERIMENT_LEVELS)
    exits = {id(attrs) for s in scenarios for _, attrs in s.alternatives}
    assert len(exits) == 40


def test_full_factorial_rejects_more_than_max_candidates():
    # two exits of side levels each: the count is a product of level
    # counts, so nothing is enumerated
    side = math.isqrt(MAX_CANDIDATES) + 1
    levels = FactorLevels(levels={
        label: {"np": tuple(range(side)), "dist": (2.0,), "smoke": (0,),
                "fam": (0,)} for label in "AB"})
    with pytest.raises(ValueError, match=f"the factorial has {side**2:,} "
                       f"scenarios, more than {MAX_CANDIDATES:,}$"):
        full_factorial(levels)


def test_factor_levels_hold_attributes_in_registry_order():
    levels = FactorLevels(levels={
        "A": {"fam": (1,), "smoke": (0, 1), "np": (0, 5), "dist": (2.0,)},
        "B": {"dist": (3.0,), "np": (0,), "fam": (0,), "smoke": (0,)}})
    assert [list(per) for per in levels.levels.values()] == \
        [list(ATTRIBUTES)] * 2


def test_factor_levels_reject_empty_level_list():
    with pytest.raises(ValueError, match="empty level list"):
        FactorLevels(levels={
            "A": {"np": (), "dist": (2.0,), "smoke": (0,), "fam": (1,)},
            "B": {"np": (0,), "dist": (3.0,), "smoke": (0,), "fam": (0,)}})


@pytest.mark.parametrize("label, attr, values, message", [
    ("B", "smoke", (0.5, 0), "exit 'B': smoke must be 0 or 1, got 0.5"),
    ("C", "np", (-1, 5), "exit 'C': np must be finite and >= 0, got -1"),
    ("A", "fam", (0, 1, 2), "exit 'A': fam must be 0 or 1, got 2"),
    ("B", "dist", (2.0, "5"), "exit 'B': dist must be finite and >= 0, "
                              "got '5'"),
    ("A", "np", (None,), "exit 'A': np must be finite and >= 0, got None"),
])
def test_factor_levels_reject_invalid_level_naming_the_exit(label, attr,
                                                            values, message):
    # every level is checked, not only the first of each list
    levels = {lab: dict(per)
              for lab, per in ref.EXPERIMENT_LEVELS.levels.items()}
    levels[label][attr] = values
    with pytest.raises(ValueError) as excinfo:
        FactorLevels(levels=levels)
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

def test_no_attribute_variation_gives_zero_information():
    scenario = two_exit_scenario(1, (3, 2.0, 1, 0), (3, 2.0, 1, 0))
    info = fisher_information([scenario], ref.POOLED_SPEC, POOLED_PRIORS)
    np.testing.assert_array_equal(info, np.zeros((4, 4)))


def test_information_additive_over_scenarios():
    rng = np.random.default_rng(3)
    spec = ModelSpec((("np", False), ("smoke", False)))
    priors = [0.2, -0.8]
    part_a = random_candidates(3, rng)
    part_b = random_candidates(4, rng)
    total = fisher_information(part_a + part_b, spec, priors)
    np.testing.assert_allclose(
        total,
        fisher_information(part_a, spec, priors)
        + fisher_information(part_b, spec, priors), rtol=1e-13)


def test_k1_closed_form_at_zero_priors():
    # two alternatives, zero priors: each scenario contributes 0.25 * xdiff^2
    spec = ModelSpec((("smoke", False),))
    scenarios = [two_exit_scenario(1, (0, 0, 1, 0), (0, 0, 0, 0)),
                 two_exit_scenario(2, (0, 0, 0, 0), (0, 0, 1, 0)),
                 two_exit_scenario(3, (0, 0, 1, 0), (0, 0, 1, 0))]
    info = fisher_information(scenarios, spec, [0.0])
    assert info[0, 0] == pytest.approx(0.25 * (1 + 1 + 0), rel=1e-14)


def test_information_symmetric_psd():
    rng = np.random.default_rng(9)
    spec = ref.POOLED_SPEC
    for _ in range(10):
        design = random_candidates(5, rng, n_alts=3)
        beta = rng.normal(0, 0.6, spec.n_params)
        info = fisher_information(design, spec, beta)
        np.testing.assert_array_equal(info, info.T)
        assert np.linalg.eigvalsh(info).min() >= -1e-10


def test_information_equals_negated_expected_hessian():
    # one respondent answering each scenario once: I = -H regardless of the
    # choices actually made (the MNL Hessian does not involve them)
    rng = np.random.default_rng(13)
    design = random_candidates(6, rng, n_alts=3)
    beta = rng.normal(0, 0.5, ref.POOLED_SPEC.n_params)
    data = [ChoiceObservation(participant_id=f"p{i}", scenario=s, chosen=0)
            for i, s in enumerate(design)]
    np.testing.assert_allclose(
        fisher_information(design, ref.POOLED_SPEC, beta),
        -hessian(data, ref.POOLED_SPEC, beta), atol=1e-10)


# ---------------------------------------------------------------------------
# D-error
# ---------------------------------------------------------------------------

def test_d_error_is_reciprocal_information_for_k1():
    spec = ModelSpec((("smoke", False),))
    scenario = two_exit_scenario(1, (0, 0, 1, 0), (0, 0, 0, 0))
    info = fisher_information([scenario], spec, [0.0])[0, 0]
    assert d_error([scenario], spec, [0.0]) == pytest.approx(1 / info,
                                                             rel=1e-14)


def test_duplicating_design_halves_d_error_for_k1():
    spec = ModelSpec((("smoke", False),))
    scenario = two_exit_scenario(1, (0, 0, 1, 0), (0, 0, 0, 0))
    single = d_error([scenario], spec, [0.0])
    double = d_error([scenario, scenario], spec, [0.0])
    assert double == pytest.approx(single / 2, rel=1e-14)


def test_constant_smoke_design_is_singular_for_smoke_term():
    spec = ModelSpec((("np", False), ("smoke", False)))
    scenarios = [two_exit_scenario(1, (0, 0, 1, 0), (5, 0, 1, 0)),
                 two_exit_scenario(2, (2, 0, 0, 0), (7, 0, 0, 0))]
    assert d_error(scenarios, spec, [0.1, -0.5]) == math.inf


@pytest.mark.parametrize("np_b, prior_np, problem", [
    (1e308, 10.0, "a utility is not finite"),
    (1e300, 0.0, "its information is not finite"),
])
def test_overflow_raises_naming_scenario(np_b, prior_np, problem):
    spec = ModelSpec((("np", False), ("smoke", False)))
    design = [two_exit_scenario(1, (0, 0, 1, 0), (5, 0, 0, 0)),
              two_exit_scenario(2, (2, 0, 0, 0), (np_b, 0, 1, 0))]
    priors = [prior_np, -0.5]
    for score in (fisher_information, d_error):
        with pytest.raises(ValueError, match=f"^scenario 2: {problem}"):
            score(design, spec, priors)
    with pytest.raises(ValueError, match=f"^scenario 2: {problem}"):
        search_design(design * 2, 2, spec, priors)


def test_d_error_positive_and_permutation_invariant():
    rng = np.random.default_rng(23)
    design = random_candidates(6, rng)
    spec = ModelSpec((("np", False), ("dist", False), ("smoke", False)))
    priors = [0.1, -0.3, -0.7]
    d = d_error(design, spec, priors)
    assert d > 0
    for _ in range(5):
        permuted = [design[i] for i in rng.permutation(len(design))]
        assert d_error(permuted, spec, priors) == pytest.approx(d, rel=1e-12)


def test_adding_a_scenario_never_raises_d_error():
    rng = np.random.default_rng(29)
    spec = ModelSpec((("np", False), ("smoke", False)))
    priors = [0.15, -0.6]
    for _ in range(10):
        design = random_candidates(5, rng)
        extra = random_candidates(1, rng)
        d_small = d_error(design, spec, priors)
        d_big = d_error(design + extra, spec, priors)
        assert d_big <= d_small + 1e-12


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_forced_subset_returned_verbatim():
    rng = np.random.default_rng(31)
    candidates = random_candidates(4, rng)
    spec = ModelSpec((("np", False), ("smoke", False)))
    result = search_design(candidates, 4, spec, [0.1, -0.5], seed=0)
    assert result.scenarios == tuple(candidates)
    assert math.isfinite(result.d_error)


def test_search_matches_bruteforce_on_small_instances():
    spec = ModelSpec((("np", False), ("dist", False), ("smoke", False)))
    priors = [0.1, -0.2, -0.5]
    rng = np.random.default_rng(42)
    for trial in range(5):
        candidates = random_candidates(11, rng)
        result = search_design(candidates, 4, spec, priors, seed=trial,
                               iterations=10)
        best = min(d_error([candidates[i] for i in combo], spec, priors)
                   for combo in itertools.combinations(range(11), 4))
        assert result.d_error == best


def test_search_deterministic_given_seed():
    rng = np.random.default_rng(47)
    candidates = random_candidates(20, rng)
    spec = ModelSpec((("np", False), ("smoke", False)))
    first = search_design(candidates, 5, spec, [0.1, -0.5], seed=9)
    second = search_design(candidates, 5, spec, [0.1, -0.5], seed=9)
    assert [s.id for s in first.scenarios] == [s.id for s in second.scenarios]
    assert first.d_error == second.d_error


def test_search_over_full_experiment_universe():
    candidates = full_factorial(ref.EXPERIMENT_LEVELS)
    result = search_design(candidates, 8, ref.POOLED_SPEC, POOLED_PRIORS,
                           seed=0, iterations=2)
    assert len(result.scenarios) == 8
    assert len({s.id for s in result.scenarios}) == 8
    # pinned: the per-candidate loop search found exactly this design
    assert [s.id for s in result.scenarios] == [61, 241, 301, 493, 1585,
                                                1762, 1778, 1841]
    assert result.d_error == 0.1606500516129518
    assert math.isfinite(result.d_error) and result.d_error > 0
    # every selected scenario is a member of the candidate universe
    ids = {s.id for s in candidates}
    assert all(s.id in ids for s in result.scenarios)


@pytest.mark.parametrize("size, ids, d", [
    (6, [61, 241, 493, 1762, 1778, 1841], 0.21348993883731607),
    (12, [61, 241, 301, 493, 497, 573, 1585, 1762, 1766, 1778, 1841, 1845],
     0.10728237785575581),
])
def test_search_over_full_experiment_universe_other_sizes(size, ids, d):
    # pinned: the full blocked scan found exactly these designs
    candidates = full_factorial(ref.EXPERIMENT_LEVELS)
    result = search_design(candidates, size, ref.POOLED_SPEC, POOLED_PRIORS,
                           seed=0, iterations=2)
    assert [s.id for s in result.scenarios] == ids
    assert result.d_error == d


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_benchmark_design(seed):
    # pinned: the benchmark's design, size 8 with the default 10 restarts,
    # as the full blocked scan found it
    candidates = full_factorial(ref.EXPERIMENT_LEVELS)
    result = search_design(candidates, 8, ref.POOLED_SPEC, POOLED_PRIORS,
                           seed=seed)
    assert [s.id for s in result.scenarios] == [61, 241, 493, 497, 1597,
                                                1762, 1766, 1841]
    assert result.d_error == 0.1606121958999176


def test_search_unidentifiable_raises():
    # smoke never varies anywhere, so its coefficient cannot be identified
    spec = ModelSpec((("np", False), ("smoke", False)))
    candidates = [two_exit_scenario(i, (i % 4, 0, 0, 0), (3, 0, 0, 0))
                  for i in range(6)]
    with pytest.raises(NotIdentifiedError, match="size"):
        search_design(candidates, 3, spec, [0.1, -0.5], seed=0)


def test_search_size_validation():
    rng = np.random.default_rng(51)
    candidates = random_candidates(3, rng)
    spec = ModelSpec((("np", False),))
    with pytest.raises(ValueError, match="exceeds"):
        search_design(candidates, 5, spec, [0.1])
    with pytest.raises(ValueError, match=">= 1"):
        search_design(candidates, 0, spec, [0.1])


def test_efficient_design_d_error_recomputable():
    rng = np.random.default_rng(53)
    candidates = random_candidates(12, rng)
    spec = ModelSpec((("np", False), ("dist", False)))
    result = search_design(candidates, 4, spec, [0.1, -0.3], seed=1)
    recomputed = d_error(result.scenarios, spec, [0.1, -0.3])
    assert recomputed == pytest.approx(result.d_error, abs=1e-9)


# ---------------------------------------------------------------------------
# batched search against the per-candidate loop
# ---------------------------------------------------------------------------

def _scenario_information(scenario, spec, beta, c1):
    """Reference: one scenario's Fisher contribution at the priors.

    Rows are differenced against the first alternative before weighting, so
    a scenario with no attribute variation contributes an exactly zero
    matrix.  The grouped kernel must reproduce it bitwise.
    """
    rows = spec.design_matrix(scenario, c1)
    p = softmax(rows @ beta)
    diff = rows - rows[0]
    dbar = p @ diff
    info = np.einsum("j,jk,jl->kl", p, diff, diff) - np.outer(dbar, dbar)
    return (info + info.T) / 2.0


@pytest.mark.parametrize("spec, priors, c1", [
    (ref.POOLED_SPEC, POOLED_PRIORS, 0),
    (ref.FIRST_CHOICE_SPEC, ref.estimates_vector(
        ref.FIRST_CHOICE_SPEC, ref.FIRST_CHOICE_ESTIMATES), 1),
])
def test_kernel_information_equals_scenario_reference_bitwise(spec, priors,
                                                              c1):
    candidates = full_factorial(ref.EXPERIMENT_LEVELS)
    beta = np.asarray(priors, dtype=float)
    sets = _ChoiceSets.from_scenarios(candidates, spec, c1)
    info = sets.information(beta)
    want = np.stack([_scenario_information(s, spec, beta, c1)
                     for s in candidates])
    assert info.shape == (2048, spec.n_params, spec.n_params)
    np.testing.assert_array_equal(info, want)
    np.testing.assert_array_equal(
        sets.probabilities(beta),
        np.stack([softmax(spec.design_matrix(s, c1) @ beta)
                  for s in candidates]))


def test_kernel_information_mixed_set_sizes_bitwise():
    # random specs and priors over 2- and 3-alternative sets in one kernel;
    # padded slots add exact zeros
    rng = np.random.default_rng(5)
    universe = full_factorial(ref.EXPERIMENT_LEVELS)[::9]
    two_exit = [Scenario(id=s.id, alternatives=s.alternatives[:2])
                for s in universe[::2]]
    candidates = universe + two_exit
    candidates = [candidates[i] for i in rng.permutation(len(candidates))]
    for _ in range(12):
        attrs = rng.permutation(ATTRIBUTES)[:rng.integers(1, 5)]
        spec = ModelSpec(tuple((a, bool(rng.integers(2))) for a in attrs))
        beta = rng.normal(0, 1.0, spec.n_params)
        for c1 in (0, 1):
            sets = _ChoiceSets.from_scenarios(candidates, spec, c1)
            want = np.stack([_scenario_information(s, spec, beta, c1)
                             for s in candidates])
            np.testing.assert_array_equal(sets.information(beta), want)


def loop_d(info, k):
    """Per-matrix D-error rule: det(I)^(-1/K), +inf if singular."""
    eigval = np.linalg.eigvalsh(info)
    if eigval[-1] <= 0 or eigval[0] <= _RANK_RTOL * eigval[-1]:
        return math.inf
    return float(math.exp(-np.log(eigval).sum() / k))


def loop_search(candidates, size, spec, priors, c1=0, seed=0, iterations=10):
    """Reference search: one eigendecomposition per candidate per step.

    Greedy construction from a seeded random start, then best-improvement
    pairwise swaps, never repeating a candidate; returns (sorted candidate
    indices, D-error).
    """
    beta = np.asarray(priors, dtype=float)
    n = len(candidates)
    if size < 1:
        raise ValueError("size must be >= 1")
    if size > n:
        raise ValueError(f"size {size} exceeds candidate count {n}")
    k = spec.n_params
    parts = [_scenario_information(s, spec, beta, c1) for s in candidates]

    def finish(indices):
        picked = sorted(indices)
        info = fisher_information([candidates[i] for i in picked], spec,
                                  beta, c1)
        d = loop_d(info, k)
        if math.isinf(d):
            raise NotIdentifiedError("no design identifies the spec")
        return picked, d

    if size == n:
        return finish(range(n))

    rng = np.random.default_rng(seed)
    best_d, best_idx = math.inf, None
    for _ in range(max(1, iterations)):
        design = [int(rng.integers(n))]
        info = parts[design[0]].copy()
        while len(design) < size:
            pick, pick_d = None, math.inf
            for c in range(n):
                if c in design:
                    continue
                d = loop_d(info + parts[c], k)
                if d < pick_d or pick is None:
                    pick, pick_d = c, d
            design.append(pick)
            info += parts[pick]

        current = loop_d(info, k)
        improved = True
        while improved:
            improved = False
            swap, swap_d = None, current
            for pos, m in enumerate(design):
                base = info - parts[m]
                for c in range(n):
                    if c in design:
                        continue
                    d = loop_d(base + parts[c], k)
                    if d < swap_d:
                        swap, swap_d = (pos, c), d
            if swap is not None and swap_d < current:
                pos, c = swap
                info = info - parts[design[pos]] + parts[c]
                design[pos] = c
                current = swap_d
                improved = True

        if current < best_d or best_idx is None:
            best_d, best_idx = current, list(design)
    return finish(best_idx)


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except (ValueError, NotIdentifiedError) as exc:
        return type(exc)


_exit_rows = st.tuples(st.integers(0, 3), st.sampled_from((0.0, 1.5, 4.0)),
                       st.integers(0, 1), st.integers(0, 1))


@st.composite
def search_problems(draw):
    n_alts = draw(st.integers(2, 3))
    rows = draw(st.lists(st.lists(_exit_rows, min_size=n_alts,
                                  max_size=n_alts),
                         min_size=1, max_size=9))
    candidates = [Scenario(id=i + 1, alternatives=tuple(
        (label, ExitAttributes(*row)) for label, row in zip("ABC", alts)))
        for i, alts in enumerate(rows)]
    attrs = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1,
                          max_size=3, unique=True))
    spec = ModelSpec.from_attributes(*attrs)
    priors = draw(st.lists(st.floats(-1.0, 1.0), min_size=spec.n_params,
                           max_size=spec.n_params))
    kwargs = dict(seed=draw(st.integers(0, 2**32 - 1)),
                  iterations=draw(st.integers(1, 3)))
    size = draw(st.integers(1, len(candidates) + 1))
    return candidates, size, spec, priors, kwargs


@settings(max_examples=150, deadline=None)
@given(search_problems())
def test_search_equals_loop_search(problem):
    candidates, size, spec, priors, kwargs = problem
    got = _outcome(search_design, candidates, size, spec, priors, **kwargs)
    want = _outcome(loop_search, candidates, size, spec, priors, **kwargs)
    if isinstance(want, type):
        assert got is want
        return
    indices, d = want
    assert [s.id - 1 for s in got.scenarios] == indices
    assert got.d_error == d


def test_search_equals_loop_search_with_ties():
    # duplicated candidates make ties; the loop's tie-break must hold
    rng = np.random.default_rng(61)
    spec = ModelSpec((("np", False), ("dist", False), ("smoke", False)))
    priors = [0.1, -0.2, -0.5]
    candidates = random_candidates(7, rng, n_alts=3)
    candidates = [Scenario(id=i + 1, alternatives=s.alternatives)
                  for i, s in enumerate(candidates + candidates)]
    for seed in range(4):
        got = search_design(candidates, 5, spec, priors, seed=seed,
                            iterations=3)
        indices, d = loop_search(candidates, 5, spec, priors, seed=seed,
                                 iterations=3)
        assert [s.id - 1 for s in got.scenarios] == indices
        assert got.d_error == d


def test_search_all_singular_step_picks_lowest_free_candidate():
    # K = 3 with two alternatives: every design of fewer than three
    # scenarios is singular, so the first greedy steps score every candidate
    # +inf and must take the lowest index not yet in the design
    spec = ModelSpec((("np", False), ("dist", False), ("smoke", False)))
    priors = [0.1, -0.2, -0.5]
    candidates = random_candidates(6, np.random.default_rng(71))
    assert np.random.default_rng(11).integers(6) == 0  # start at candidate 0
    got = search_design(candidates, 4, spec, priors, seed=11, iterations=1)
    indices, d = loop_search(candidates, 4, spec, priors, seed=11,
                             iterations=1)
    assert [s.id - 1 for s in got.scenarios] == indices
    assert len(set(indices)) == 4
    assert got.d_error == d


# ---------------------------------------------------------------------------
# screened scan against the full blocked scan
# ---------------------------------------------------------------------------

def blocked_scan(base, parts, k):
    """Reference: D-error of ``base + parts[c]`` for every candidate c, one
    stacked ``eigvalsh`` call per block of 256 candidates."""
    n, block = len(parts), 256
    scratch = np.empty((min(n, block), k, k))
    d = np.empty(n)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        d[lo:hi] = _d_errors(
            np.add(base, parts[lo:hi], out=scratch[:hi - lo]), k)
    return d


def assert_scan_equals_blocked(base, parts, factors, taken):
    """The screened scan picks what the full scan picks, with the same bits.

    Both search rules are checked: the greedy one (lowest free index among
    the minima, even when every candidate is singular) and the swap one
    (first minimum with the design's members at +inf).  Returns both scans.
    """
    got = _scan(base, parts, factors, list(taken))
    want = blocked_scan(base, parts, parts.shape[1])
    want[list(taken)] = math.inf
    assert all(math.isinf(got[c]) for c in taken)
    free = np.delete(np.arange(len(parts)), list(taken))
    if len(free):
        pick = int(free[np.argmin(want[free])])
        assert int(free[np.argmin(got[free])]) == pick
        assert got[pick] == want[pick]
    swap = int(np.argmin(want))
    assert int(np.argmin(got)) == swap
    assert got[swap] == want[swap]
    return got, want


@functools.lru_cache(maxsize=None)
def reference_terms():
    candidates = full_factorial(ref.EXPERIMENT_LEVELS)
    return _candidate_terms(candidates, ref.POOLED_SPEC, POOLED_PRIORS, 0)


def test_candidate_terms_factor_the_exact_informations():
    parts, factors = reference_terms()
    assert factors.shape == (3, 4, 2048)
    np.testing.assert_allclose(np.einsum("jkn,jln->nkl", factors, factors),
                               parts, rtol=0, atol=1e-12)
    candidates = full_factorial(ref.EXPERIMENT_LEVELS)
    np.testing.assert_array_equal(parts, _ChoiceSets.from_scenarios(
        candidates, ref.POOLED_SPEC, 0).information(POOLED_PRIORS))


@settings(max_examples=120, deadline=None)
@given(members=st.lists(st.integers(0, 2047), min_size=2, max_size=12,
                        unique=True),
       removed=st.one_of(st.none(), st.integers(0, 11)),
       masked=st.booleans())
def test_scan_equals_blocked_scan_on_reference_universe(members, removed,
                                                        masked):
    # greedy bases (subset sums) and swap bases (one member taken out)
    parts, factors = reference_terms()
    base = parts[members[0]].copy()
    for c in members[1:]:
        base += parts[c]
    if removed is not None:
        base = base - parts[members[removed % len(members)]]
    assert_scan_equals_blocked(base, parts, factors,
                               members if masked else [])


@st.composite
def tied_universes(draw):
    """Small universes in which every candidate appears twice (exact ties),
    with a base summed from some of them."""
    n_alts = draw(st.integers(2, 3))
    rows = draw(st.lists(st.lists(_exit_rows, min_size=n_alts,
                                  max_size=n_alts),
                         min_size=1, max_size=6))
    rows = rows + rows
    candidates = [Scenario(id=i + 1, alternatives=tuple(
        (label, ExitAttributes(*row)) for label, row in zip("ABC", alts)))
        for i, alts in enumerate(rows)]
    attrs = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1,
                          max_size=3, unique=True))
    spec = ModelSpec.from_attributes(*attrs)
    priors = np.array(draw(st.lists(st.floats(-1.0, 1.0),
                                    min_size=spec.n_params,
                                    max_size=spec.n_params)))
    members = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                            max_size=8))
    return candidates, spec, priors, members, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(tied_universes())
def test_scan_equals_blocked_scan_with_duplicated_candidates(universe):
    candidates, spec, priors, members, masked = universe
    parts, factors = _candidate_terms(candidates, spec, priors, 0)
    base = parts[members].sum(axis=0)
    taken = sorted(set(members)) if masked else []
    got, _ = assert_scan_equals_blocked(base, parts, factors, taken)
    # a duplicate scores bitwise what its original scores
    half = len(candidates) // 2
    for c in range(half):
        if c not in taken and c + half not in taken:
            assert got[c] == got[c + half]


@settings(max_examples=60, deadline=None)
@given(members=st.lists(st.integers(0, 2047), min_size=1, max_size=8,
                        unique=True),
       ratio=st.one_of(st.just(0.0), st.floats(1e-14, 0.5 * _SCREEN_RTOL),
                       st.floats(2 * _SCREEN_RTOL, 1e-4)))
def test_scan_fallback_on_singular_and_near_singular_bases(members, ratio):
    # one scenario has rank 2 < K; otherwise lambda_min is set to ratio times
    # lambda_max, on both sides of the screen's threshold
    parts, factors = reference_terms()
    info = parts[members].sum(axis=0)
    lam, vec = np.linalg.eigh(info)
    lam[0] = ratio * lam[-1]
    base = (vec * lam) @ vec.T
    base = (base + base.T) / 2
    got, want = assert_scan_equals_blocked(base, parts, factors, [])
    low, high = np.linalg.eigvalsh(base)[[0, -1]]
    if low <= _SCREEN_RTOL * high:
        # the full scan itself: every candidate scored exactly
        assert got.tolist() == want.tolist()


def test_scan_fallback_when_a_confirmed_candidate_is_singular():
    # the screen's best candidate swamps the base: base + part is singular
    # by the relative rank rule although the lemma scores it finite
    spec = ModelSpec((("np", False), ("dist", False)))
    candidates = [two_exit_scenario(1, (0, 0.0, 0, 0), (1, 0.0, 0, 0)),
                  two_exit_scenario(2, (0, 0.0, 0, 0), (0, 1.0, 0, 0)),
                  two_exit_scenario(3, (0, 0.0, 0, 0), (1e7, 0.0, 0, 0))]
    parts, factors = _candidate_terms(candidates, spec, np.zeros(2), 0)
    base = parts[0] + parts[1]
    got, want = assert_scan_equals_blocked(base, parts, factors, [])
    assert math.isinf(want[2])
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("iterations", [0, -1])
@pytest.mark.parametrize("size", [2, 6])
def test_search_rejects_iterations_below_one(iterations, size):
    spec = ModelSpec((("np", False), ("dist", False)))
    candidates = random_candidates(6, np.random.default_rng(71))
    with pytest.raises(ValueError, match="iterations must be >= 1"):
        search_design(candidates, size, spec, [0.1, -0.2],
                      iterations=iterations)


@pytest.mark.parametrize("iterations", [MAX_RESTARTS + 1, 2**70])
def test_search_rejects_iterations_above_max_restarts(iterations):
    spec = ModelSpec((("np", False), ("dist", False)))
    candidates = random_candidates(6, np.random.default_rng(71))
    with pytest.raises(ValueError, match=f"<= {MAX_RESTARTS:,}, got "
                                         f"{iterations}$"):
        search_design(candidates, 2, spec, [0.1, -0.2],
                      iterations=iterations)


def test_d_errors_stack_equals_per_matrix_rule():
    rng = np.random.default_rng(67)
    k = 4
    mats = [np.zeros((k, k))]
    # singular: rank k - 1
    a = rng.normal(size=(k - 1, k))
    mats.append(a.T @ a)
    # near-singular on both sides of the relative threshold
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    for ratio in (0.5e-10, 0.999e-10, 1.001e-10, 2e-10, 1e-8):
        mats.append(q @ np.diag([ratio, 0.3, 0.7, 1.0]) @ q.T)
    # exactly at the threshold (diagonal eigenvalues come back exact)
    mats.append(np.diag([_RANK_RTOL, 0.3, 0.7, 1.0]))
    mats.append(np.diag([2 * _RANK_RTOL, 0.6, 1.4, 2.0]))
    for _ in range(200):
        a = rng.normal(size=(rng.integers(1, 2 * k), k))
        mats.append(a.T @ a)
    stack = np.stack(mats)
    got = _d_errors(stack, k)
    want = [loop_d(m, k) for m in mats]
    assert got.tolist() == want
    assert math.isinf(got[0]) and math.isinf(got[1])
    assert math.isinf(got[7]) and math.isinf(got[8])
    assert all(_d_errors(m[None], k)[0] == w for m, w in zip(mats, want))


def test_d_error_returns_python_float():
    spec = ModelSpec((("smoke", False),))
    scenario = two_exit_scenario(1, (0, 0, 1, 0), (0, 0, 0, 0))
    assert type(d_error([scenario], spec, [0.0])) is float
