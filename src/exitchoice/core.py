"""Domain types and the pure random-utility math.

An exit alternative is described by four attributes: the number of people
already using it (``np``), its distance in meters (``dist``), whether smoke
is present (``smoke``) and whether the decision-maker is familiar with it
(``fam``).  A decision-maker assigns each alternative a linear systematic
utility and picks among alternatives with multinomial-logit probabilities
(softmax over utilities).

Coefficients are generic (shared across alternatives, no alternative-specific
constants).  A model term may optionally interact with the first-choice dummy
``c1``, in which case it contributes two coefficients: the base one and one
that is active only when ``c1 = 1``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

import numpy as np

#: Registry of known exit attributes, in canonical order.  Extend here if a
#: new attribute is added to :class:`ExitAttributes`.
ATTRIBUTES = ("np", "dist", "smoke", "fam")

#: The registry attributes of an ``ExitAttributes``, as a tuple.
_attribute_values = attrgetter(*ATTRIBUTES)
_second = itemgetter(1)
_alternatives = attrgetter("alternatives")

#: Suffix used to label first-choice interaction coefficients, e.g. "np:first".
FIRST_SUFFIX = ":first"

#: Why a finite coefficient vector can give a utility that is not finite.
_TOO_LARGE = ("a utility is not finite; the coefficients are too large for "
              "its attributes")

#: Upper bound of the continuous attributes, the largest finite float.
#: ``0 <= x <= _MAX`` is False for NaN and for an int that ``float()``
#: cannot convert, so the one comparison rejects negative and non-finite
#: values.
_MAX = sys.float_info.max


def _check_binary(value, name):
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")


def _check_amount(value, name):
    try:
        if 0 <= value <= _MAX:
            return
    except TypeError:  # not a number: show its repr, as '5' or None
        value = repr(value)
    raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True, slots=True)
class ExitAttributes:
    """Attribute vector of one exit alternative.

    Parameters
    ----------
    np : float
        Number of people already using the exit (finite, >= 0).
    dist : float
        Distance from the decision-maker to the exit, in meters (finite,
        >= 0).
    smoke : int
        1 if smoke is present at the exit, 0 otherwise.
    fam : int
        1 if the decision-maker is familiar with the exit, 0 otherwise.
    """

    np: float
    dist: float
    smoke: int
    fam: int

    def __post_init__(self):
        _check_amount(self.np, "np")
        _check_amount(self.dist, "dist")
        _check_binary(self.smoke, "smoke")
        _check_binary(self.fam, "fam")


@dataclass(frozen=True, slots=True)
class Scenario:
    """A choice set: an ordered list of labelled exit alternatives."""

    id: int | str
    alternatives: tuple[tuple[str, ExitAttributes], ...]

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(
            (label, attrs) for label, attrs in self.alternatives))
        if len(self.alternatives) < 2:
            raise ValueError(
                f"scenario {self.id!r}: needs at least 2 alternatives")
        labels = [label for label, _ in self.alternatives]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"scenario {self.id!r}: duplicate alternative labels {labels}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.alternatives)

    @property
    def n_alternatives(self) -> int:
        return len(self.alternatives)


@dataclass(frozen=True, slots=True)
class ChoiceObservation:
    """One recorded decision of one participant in one scenario."""

    participant_id: int | str
    scenario: Scenario
    chosen: int
    first_choice: int = 0

    def __post_init__(self):
        # A bool or a numpy integer is stored as the int it stands for, so
        # a list of ``chosen`` values always indexes, never masks.
        if type(self.chosen) is not int:
            if not isinstance(self.chosen, (int, np.integer)):
                raise ValueError(
                    f"chosen must be an integer index, got {self.chosen!r}")
            object.__setattr__(self, "chosen", int(self.chosen))
        if not 0 <= self.chosen < self.scenario.n_alternatives:
            raise ValueError(
                f"chosen index {self.chosen} out of range for scenario "
                f"{self.scenario.id!r} with {self.scenario.n_alternatives} "
                "alternatives")
        _check_binary(self.first_choice, "first_choice")


@dataclass(frozen=True)
class ModelSpec:
    """Which attribute terms enter the utility, and how.

    ``terms`` is an ordered list of ``(attribute, with_first_choice)`` pairs.
    A term with ``with_first_choice=True`` contributes two coefficients (the
    base one and the first-choice interaction); a term with ``False``
    contributes one.  Coefficients are ordered base-then-interaction within
    each term, following term order.
    """

    terms: tuple[tuple[str, bool], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(
            (attr, bool(flag)) for attr, flag in self.terms))
        if not self.terms:
            raise ValueError("model spec needs at least one term")
        seen = set()
        for attr, _ in self.terms:
            if attr not in ATTRIBUTES:
                raise ValueError(
                    f"unknown attribute {attr!r}; registry is {ATTRIBUTES}")
            if attr in seen:
                raise ValueError(f"duplicate term for attribute {attr!r}")
            seen.add(attr)

    @classmethod
    def from_attributes(cls, *attributes: str,
                        first_choice_interactions: bool = False) -> "ModelSpec":
        """Build a spec with one term per attribute, all with or without
        first-choice interactions."""
        return cls(tuple((a, first_choice_interactions) for a in attributes))

    @classmethod
    def from_coef_names(cls, names: Sequence[str]) -> "ModelSpec":
        """Reconstruct a spec from coefficient labels.

        Base names are attribute names; interaction labels carry the
        ``":first"`` suffix and must match a base term in the list.
        """
        base, inter = [], set()
        for name in names:
            if name.endswith(FIRST_SUFFIX):
                inter.add(name[: -len(FIRST_SUFFIX)])
            else:
                base.append(name)
        unmatched = inter - set(base)
        if unmatched:
            raise ValueError(
                f"interaction coefficients without base term: {sorted(unmatched)}")
        return cls(tuple((a, a in inter) for a in base))

    @property
    def n_params(self) -> int:
        """Number of coefficients K."""
        return sum(2 if flag else 1 for _, flag in self.terms)

    def coef_names(self) -> tuple[str, ...]:
        """Coefficient labels in parameter-vector order."""
        names = []
        for attr, flag in self.terms:
            names.append(attr)
            if flag:
                names.append(attr + FIRST_SUFFIX)
        return tuple(names)

    def design_matrix(self, scenario: Scenario, c1: int = 0) -> np.ndarray:
        """Stacked design rows for all alternatives, shape (J, K)."""
        _check_binary(c1, "c1")
        return self._expand(np.array(
            [_attribute_values(attrs) for _, attrs in scenario.alternatives],
            dtype=float), c1)

    def _expand(self, attrs: np.ndarray, c1) -> np.ndarray:
        """Coefficient columns from attribute columns.

        ``attrs`` (..., len(ATTRIBUTES)) holds attribute values in registry
        order and ``c1`` broadcasts against ``attrs[..., 0]``.  A base
        column copies its attribute and an interaction column is
        ``c1 * attribute``, so every entry is the attribute or a 0/1
        product of it.
        """
        X = np.empty(attrs.shape[:-1] + (self.n_params,))
        k = 0
        for attr, flag in self.terms:
            x = attrs[..., ATTRIBUTES.index(attr)]
            X[..., k] = x
            k += 1
            if flag:
                X[..., k] = c1 * x
                k += 1
        return X


def as_params(spec: ModelSpec, values: Iterable[float]) -> np.ndarray:
    """Validate and convert a coefficient vector for ``spec``.

    Raises ValueError when the length does not match the spec's coefficient
    count, or naming the first coefficient that is not finite.
    """
    params = np.asarray(list(values) if not isinstance(values, np.ndarray)
                        else values, dtype=float)
    if params.ndim != 1 or params.size != spec.n_params:
        raise ValueError(
            f"parameter vector has length {params.size}, spec expects "
            f"{spec.n_params} ({', '.join(spec.coef_names())})")
    finite = np.isfinite(params)
    if not finite.all():
        k = int(finite.argmin())
        raise ValueError(f"coefficient {spec.coef_names()[k]} must be "
                         f"finite, got {float(params[k])}")
    return params


def systematic_utility(spec: ModelSpec, params, exit: ExitAttributes,
                       c1: int = 0) -> float:
    """Linear systematic utility of one alternative.

    Each term contributes ``(beta + c1 * beta_first) * x``; terms without a
    first-choice interaction have ``beta_first = 0``.  A utility that is
    not finite raises ValueError.
    """
    beta = as_params(spec, params)
    _check_binary(c1, "c1")
    row = spec._expand(np.array(_attribute_values(exit), dtype=float), c1)
    with np.errstate(over="ignore", invalid="ignore"):
        v = float(row @ beta)
    if not np.isfinite(v):
        raise ValueError(_TOO_LARGE)
    return v


def utilities(spec: ModelSpec, params, scenario: Scenario,
              c1: int = 0) -> np.ndarray:
    """Systematic utilities of all alternatives in a scenario, one per row
    of ``spec.design_matrix(scenario, c1)``, from the kernel
    ``_ChoiceSets``.  A utility that is not finite raises ValueError naming
    the scenario."""
    beta = as_params(spec, params)
    return _ChoiceSets.from_scenarios([scenario], spec, c1).utilities(
        beta)[0]


def choice_probabilities(spec: ModelSpec, params, scenario: Scenario,
                         c1: int = 0) -> np.ndarray:
    """Multinomial-logit choice probabilities for one scenario.

    P_i = exp(V_i - m) / sum_k exp(V_k - m) over the utilities V of
    ``utilities`` and their maximum m, from the kernel ``_ChoiceSets``.  A
    utility that is not finite raises ValueError naming the scenario.
    """
    beta = as_params(spec, params)
    return _ChoiceSets.from_scenarios([scenario], spec, c1).probabilities(
        beta)[0]


class _ChoiceSets:
    """Distinct choice sets as padded arrays: the one MNL kernel.

    ``X`` (G, J, K) holds the design rows of G distinct (scenario, c1) sets,
    padded with zero rows up to the largest set size J, and ``D`` the same
    rows differenced against each set's first alternative; ``avail`` (G, J)
    marks the real alternatives and ``counts`` (G, J) how often each was
    chosen.  The log-likelihood and its derivatives depend on the data only
    through these counts, and a design's Fisher information is the Hessian
    formula with one respondent per set.  An attribute that never varies
    within a set contributes an exactly zero score and information; padded
    slots, whose probability is zero, contribute exact zeros.

    The build reads every attribute of every alternative, set after set,
    in one ``np.fromiter`` stream of floats, places those rows through the
    ``avail`` mask into a zero (G, J, len(ATTRIBUTES)) array, and expands
    it column by column with ``ModelSpec._expand``, the rule that
    ``design_matrix`` and ``systematic_utility`` apply, so ``X`` is bitwise
    the stacked design matrices.  Ragged and equal-sized sets take the same
    path.

    ``scenarios`` holds the scenario of each set.  Utilities, probabilities
    and informations are checked: a ValueError, and no floating-point
    warning, names the scenario of the first set with a utility or an
    information that is not finite.  The log-likelihood is not checked, so
    that a Newton step that overshoots sees -inf or nan and is halved.
    """

    __slots__ = ("scenarios", "X", "D", "avail", "counts")

    def __init__(self, sets: Sequence[tuple], spec: ModelSpec):
        # The scenarios, not the (scenario, c1) pairs: keeping a pair per
        # set alive adds full garbage collections to a fit of many sets.
        self.scenarios = [s for s, _ in sets]
        alternatives = list(map(_alternatives, self.scenarios))
        sizes = np.fromiter(map(len, alternatives), dtype=np.intp,
                            count=len(sets))
        self.avail = np.arange(int(sizes.max())) < sizes[:, None]
        # The rows of the real alternatives, in set order: the order in
        # which the mask assignment fills the True slots of avail.
        attrs = np.zeros(self.avail.shape + (len(ATTRIBUTES),))
        attrs[self.avail] = np.fromiter(
            chain.from_iterable(map(_attribute_values, map(
                _second, chain.from_iterable(alternatives)))),
            dtype=float, count=int(sizes.sum()) * len(ATTRIBUTES)
        ).reshape(-1, len(ATTRIBUTES))
        c1 = np.fromiter((c1 for _, c1 in sets), dtype=float,
                         count=len(sets))[:, None]
        self.X = spec._expand(attrs, c1)
        # Freed before D is allocated (peak memory of a fit).
        del attrs
        self.D = self.X - self.X[:, :1]
        self.counts = np.zeros(self.avail.shape)

    @classmethod
    def from_observations(cls, data: Sequence[ChoiceObservation],
                          spec: ModelSpec) -> "_ChoiceSets":
        """Group observations by (scenario, c1) and count their choices."""
        if not data:
            raise ValueError("no observations: the dataset is empty")
        index: dict = {}
        groups = [index.setdefault((obs.scenario, obs.first_choice),
                                   len(index)) for obs in data]
        sets = cls(list(index), spec)
        np.add.at(sets.counts, (groups, [obs.chosen for obs in data]), 1.0)
        return sets

    @classmethod
    def from_scenarios(cls, scenarios: Sequence[Scenario], spec: ModelSpec,
                       c1: int) -> "_ChoiceSets":
        """One respondent per scenario, all with first-choice flag ``c1``,
        counted on the first alternative (information ignores the choice)."""
        _check_binary(c1, "c1")
        sets = cls([(s, c1) for s in scenarios], spec)
        sets.counts[:, 0] = 1.0
        return sets

    def _check(self, values: np.ndarray, problem: str) -> None:
        """Raise ValueError(problem) naming the scenario of the first set
        whose ``values`` (G, ...) are not all finite."""
        finite = np.isfinite(values)
        if not finite.all():
            g = int(finite.reshape(len(finite), -1).all(axis=1).argmin())
            raise ValueError(f"scenario {self.scenarios[g].id!r}: {problem}")

    def utilities(self, beta: np.ndarray) -> np.ndarray:
        """Utilities per set, (G, J), zero on padded slots: a padded zero
        row has a finite utility, as ``beta`` is finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            v = self.X @ beta
        self._check(v, _TOO_LARGE)
        return v

    def probabilities(self, beta: np.ndarray) -> np.ndarray:
        """Choice probabilities per set, zero on padded slots.  Finite
        utilities whose spread passes the float range subtract to -inf,
        whose probability is exactly zero."""
        v = np.where(self.avail, self.utilities(beta), -np.inf)
        with np.errstate(over="ignore"):
            e = np.exp(v - v.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def log_likelihood(self, beta: np.ndarray) -> float:
        """sum_g sum_j n_gj ln P_gj over the rows with n_gj > 0.

        Unchecked and silent: a row never chosen adds nothing, even where
        its ln P is -inf, while a chosen row that overflows makes the sum
        -inf or nan.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            v = self.X @ beta
            v_masked = np.where(self.avail, v, -np.inf)
            m = v_masked.max(axis=1)
            lse = np.log(np.exp(v_masked - m[:, None]).sum(axis=1)) + m
            terms = self.counts * (v - lse[:, None])
        return float(np.sum(np.where(self.counts != 0, terms, 0.0)))

    def information(self, beta: np.ndarray) -> np.ndarray:
        """Fisher information of one respondent per set, shape (G, K, K)."""
        return self._information(self.probabilities(beta))

    def _information(self, p: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            dbar = (p[:, None, :] @ self.D)[:, 0]
            info = np.einsum("gj,gjk,gjl->gkl", p, self.D, self.D)
            # Row by row and pair by pair: the values of whole-array
            # expressions without their two (G, K, K) temporaries (peak
            # memory of a search).
            for k in range(info.shape[1]):
                info[:, k] -= dbar[:, k, None] * dbar
            for k, l in zip(*np.triu_indices(info.shape[1], 1)):
                info[:, k, l] = info[:, l, k] = (info[:, k, l]
                                                 + info[:, l, k]) / 2.0
        self._check(info, "its information is not finite; its attributes "
                    "are too large")
        return info

    def score_hessian(self, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Analytic gradient and Hessian of the log-likelihood.

        With n_g respondents in set g, the score is
        sum_gj (n_gj - n_g P_gj) D_gj and the Hessian -sum_g n_g I_g.  Every
        information I_g is exactly symmetric and the sum reduces each entry
        in the same order, so the Hessian is too.
        """
        p = self.probabilities(beta)
        n = self.counts.sum(axis=1)
        grad = np.einsum("gj,gjk->k", self.counts - n[:, None] * p, self.D)
        return grad, -np.einsum("g,gkl->kl", n, self._information(p))
