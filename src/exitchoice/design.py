"""Efficient stated-preference design over a factorial scenario space.

The candidate universe is the full factorial of per-exit attribute levels.
A design (subset of scenarios) is scored by its D-error: the determinant of
the inverse Fisher information at prior coefficients, raised to 1/K.  Lower
is better; a singular information matrix scores +inf.  The search is a greedy
construction from a seeded random start followed by best-improvement pairwise
swaps, restarted several times, which is exact on small instances (checked
against exhaustive enumeration in the tests).

Information is additive over scenarios, so the search computes one K x K
contribution per candidate with the estimator's kernel (``core._ChoiceSets``,
one respondent per scenario) into an (n, K, K) array and scores subsets by
summing contributions.  Each step of the search scans every candidate c
against the partial design's information B, screening first and confirming
after:

* **Screen.**  Candidate c's contribution is A_c^T A_c, where row j of the
  J x K factor A_c is sqrt(p_j) (d_j - dbar), so by the matrix determinant
  lemma det(B + A_c^T A_c) = det(B) det(I_J + A_c B^-1 A_c^T).  One ``eigh``
  of B gives B^-1, and a batched LDL^T the J x J determinants of all
  candidates at once, which rank them as their D-errors do.  The design's
  own members are masked first: a design never repeats a candidate.
* **Confirm.**  Every candidate whose screened determinant is within a
  relative ``_CONFIRM_RTOL`` (1e-9), widened by 4 K eps cond(B) for an
  ill-conditioned base, of the best is re-scored exactly as ``base +
  parts[c]`` through ``_d_errors``; the rest score +inf.  The margin covers
  the rounding of both routes, so the exact minimum, and every candidate
  bitwise tied with it, is among those re-scored.
* **Fallback.**  A base whose smallest eigenvalue is at most
  ``_SCREEN_RTOL`` (1e-8) times its largest (the greedy steps before the
  design reaches rank K), a failed ``eigh``, or a confirmed candidate that
  scores +inf has the step score every candidate exactly: ``base + parts``
  in one stacked ``eigvalsh`` call, the same call that confirms.

Either way the step sees the same minimum and first argmin as scoring one
candidate at a time, so designs and D-errors are bitwise unchanged by the
screen: stacked eigenvalues, logs and sums equal the single-matrix ones, the
exponential is ``math.exp`` per row, ties go to the lowest candidate index
(the first strict minimum in (design position, candidate) order for swaps),
and a matrix whose smallest eigenvalue is at most ``_RANK_RTOL`` times its
largest is singular and scores +inf.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (ATTRIBUTES, ExitAttributes, ModelSpec, Scenario,
                   _ChoiceSets, as_params)
from .estimation import NotIdentifiedError

#: Relative eigenvalue threshold below which an information matrix is
#: treated as singular.
_RANK_RTOL = 1e-10

#: A base whose smallest eigenvalue is at most this times its largest is not
#: screened; the step scores every candidate exactly.
_SCREEN_RTOL = 1e-8

#: Screened determinants within this relative distance of the best are
#: re-scored exactly.  ``_scan`` widens it by 4 K eps cond(B): an eigenvalue
#: of B + A^T A is off by up to about eps times the largest, so both routes
#: to the log-determinant can be off by K eps cond(B) on an ill-conditioned
#: base.
_CONFIRM_RTOL = 1e-9

#: Most scenarios ``full_factorial`` enumerates: a search over n candidates
#: holds n K x K informations, n J x K factors and n ``Scenario`` objects.
MAX_CANDIDATES = 100_000

#: Most restarts of ``search_design``: one takes about 10 ms on the 2048
#: reference candidates, and a larger count is almost surely a typo.
MAX_RESTARTS = 10_000


@dataclass(frozen=True)
class FactorLevels:
    """Admissible attribute levels per exit alternative.

    ``levels`` maps exit label -> attribute name -> tuple of values; the
    label order fixes the alternative order of every generated scenario and
    attributes always iterate in registry order.
    """

    levels: Mapping[str, Mapping[str, tuple]]

    def __post_init__(self):
        normalized = {}
        for label, per_attr in self.levels.items():
            attrs = {}
            for attr in per_attr:
                if attr not in ATTRIBUTES:
                    raise ValueError(
                        f"unknown attribute {attr!r} for exit {label!r}")
                values = tuple(per_attr[attr])
                if not values:
                    raise ValueError(
                        f"empty level list for {label!r}.{attr}")
                attrs[attr] = values
            for attr in ATTRIBUTES:
                if attr not in attrs:
                    raise ValueError(
                        f"exit {label!r} is missing levels for {attr!r}")
            # Exit i takes level i (or the last) of each attribute.
            try:
                for i in range(max(map(len, attrs.values()))):
                    ExitAttributes(**{attr: values[min(i, len(values) - 1)]
                                      for attr, values in attrs.items()})
            except ValueError as exc:
                raise ValueError(f"exit {label!r}: {exc}") from exc
            normalized[label] = {attr: attrs[attr] for attr in ATTRIBUTES}
        if len(normalized) < 2:
            raise ValueError("need levels for at least two exits")
        object.__setattr__(self, "levels", normalized)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.levels)

    @property
    def n_scenarios(self) -> int:
        """Size of the full factorial."""
        return math.prod(len(v) for per in self.levels.values()
                         for v in per.values())


@dataclass(frozen=True)
class EfficientDesign:
    """Search output: the selected scenarios and their D-error."""

    scenarios: tuple[Scenario, ...]
    d_error: float


def full_factorial(levels: FactorLevels) -> list[Scenario]:
    """Enumerate every scenario in the factorial space.

    Axes are ordered by (exit label order, registry attribute order) and the
    cartesian product is emitted in lexicographic order with the last axis
    varying fastest.  Scenario ids are 1-based enumeration positions, and
    scenarios share each exit's ``ExitAttributes``.  More than
    ``MAX_CANDIDATES`` scenarios raise ValueError before any is built.
    """
    if levels.n_scenarios > MAX_CANDIDATES:
        raise ValueError(f"the factorial has {levels.n_scenarios:,} "
                         f"scenarios, more than {MAX_CANDIDATES:,}")
    exits = [[(label, ExitAttributes(*combo))
              for combo in itertools.product(*per.values())]
             for label, per in levels.levels.items()]
    return [Scenario(id=i, alternatives=alternatives)
            for i, alternatives in enumerate(itertools.product(*exits), 1)]


def fisher_information(design: Sequence[Scenario], spec: ModelSpec,
                       priors, c1: int = 0) -> np.ndarray:
    """Fisher information of a design at prior coefficients.

    Equals the negative expected Hessian of one respondent answering each
    scenario once; symmetric positive semidefinite and additive over
    scenarios.
    """
    beta = as_params(spec, priors)
    if not design:
        raise ValueError("design is empty")
    return _ChoiceSets.from_scenarios(design, spec, c1).information(
        beta).sum(axis=0)


def _d_errors(infos: np.ndarray, k: int) -> np.ndarray:
    """D-errors of a stack of information matrices, shape (m, K, K) -> (m,).

    Row-wise det(I)^(-1/K) from one stacked eigendecomposition, +inf where
    the matrix is singular.  The exponential is ``math.exp`` per row, since
    ``np.exp`` can differ from it in the last bit.
    """
    eigval = np.linalg.eigvalsh(infos)
    top = eigval[:, -1]
    regular = ~((top <= 0) | (eigval[:, 0] <= _RANK_RTOL * top))
    d = np.full(len(eigval), math.inf)
    if regular.any():
        scaled = -np.log(eigval[regular]).sum(axis=1) / k
        d[regular] = list(map(math.exp, scaled.tolist()))
    return d


def d_error(design: Sequence[Scenario], spec: ModelSpec, priors,
            c1: int = 0) -> float:
    """D-error of a design: det(I^-1)^(1/K), strictly positive.

    Returns +inf (the singular marker) when the information matrix is rank
    deficient, i.e. when the design cannot identify every coefficient.
    """
    info = fisher_information(design, spec, priors, c1)
    return float(_d_errors(info[None], spec.n_params)[0])


def _candidate_terms(candidates: Sequence[Scenario], spec: ModelSpec,
                     beta: np.ndarray, c1: int) -> tuple[np.ndarray,
                                                         np.ndarray]:
    """Exact informations and determinant-lemma factors of every candidate.

    Returns ``parts`` (n, K, K), bitwise ``_ChoiceSets.information``, and
    ``factors`` (J, K, n) with ``factors[j, :, c]`` = sqrt(p_cj) (d_cj -
    dbar_c), so that candidate c's information is A_c^T A_c for the J x K
    matrix A_c = ``factors[:, :, c]``.  Padded slots give zero rows.  The
    candidate axis is last so that the screen works on contiguous (K, n)
    rows; the kernel arrays are freed on return.
    """
    sets = _ChoiceSets.from_scenarios(candidates, spec, c1)
    p = sets.probabilities(beta)
    dbar = (p[:, None, :] @ sets.D)[:, 0]
    factors = np.empty(sets.D.shape[1:] + (len(p),))
    for j, row in enumerate(factors):
        row[...] = ((sets.D[:, j] - dbar) * np.sqrt(p[:, j, None])).T
    return sets._information(p), factors


def _lemma_determinants(base: np.ndarray, factors: np.ndarray
                        ) -> tuple[np.ndarray, float] | None:
    """det(I_J + A_c B^-1 A_c^T) for every candidate c, and cond(B).

    Returns None when B is not safely positive definite: ``eigh`` fails or
    B's smallest eigenvalue is at most ``_SCREEN_RTOL`` times its largest.
    The J x J matrices are symmetric with eigenvalues >= 1, so an unpivoted
    LDL^T over their upper triangles, one entry at a time for all
    candidates, is stable.
    """
    try:
        lam, vec = np.linalg.eigh(base)
    except np.linalg.LinAlgError:
        return None
    if not lam[0] > _SCREEN_RTOL * lam[-1]:
        return None
    inverse = np.einsum("kj,lj->kl", vec / lam, vec)
    m = {}
    for b, row in enumerate(factors):
        solved = np.einsum("kl,ln->kn", inverse, row)
        for a in range(b + 1):
            m[a, b] = np.einsum("kn,kn->n", factors[a], solved)
        m[b, b] += 1.0
    det = m[0, 0]
    for j in range(1, len(factors)):
        for b in range(j, len(factors)):
            for a in range(j, b + 1):
                m[a, b] -= m[j - 1, a] * m[j - 1, b] / m[j - 1, j - 1]
        det = det * m[j, j]
    return det, lam[-1] / lam[0]


def _scan(base: np.ndarray, parts: np.ndarray, factors: np.ndarray,
          design: list[int]) -> np.ndarray:
    """D-errors of ``base + parts[c]`` for a search step, +inf on the
    candidates already in ``design``.

    Screens with the determinant lemma and re-scores exactly only the
    candidates near the screened best; every other candidate scores +inf.
    A base that cannot be screened, or a near-tie that scores singular,
    has every candidate scored exactly.  Either way the minimum over the
    candidates not in the design, and the lowest index that attains it,
    are those of scoring every candidate.
    """
    k = parts.shape[1]
    keep = slice(None)
    screened = _lemma_determinants(base, factors)
    if screened is not None:
        det, cond = screened
        det[design] = -math.inf
        rtol = _CONFIRM_RTOL + 4 * k * np.finfo(float).eps * cond
        keep = np.flatnonzero(det >= det.max() * (1.0 - rtol))
    d = np.full(len(parts), math.inf)
    d[keep] = _d_errors(base + parts[keep], k)
    if screened is not None and np.isinf(d[keep]).any():
        d = _d_errors(base + parts, k)
    d[design] = math.inf
    return d


def search_design(candidates: Sequence[Scenario], size: int, spec: ModelSpec,
                  priors, c1: int = 0, seed: int = 0,
                  iterations: int = 10) -> EfficientDesign:
    """Find a low-D-error design of ``size`` distinct scenarios among the
    candidates.

    Each restart draws a random starting scenario, greedily adds the
    candidate not yet in the design that minimizes the partial design's
    D-error (ties broken by lowest candidate index), then applies
    best-improvement swaps of a member for a candidate outside the design
    until no swap lowers the D-error.  A design never repeats a candidate,
    so ``size`` is at most the candidate count.  The returned design is the
    best over all restarts, so its D-error is <= that of every design
    visited during the search; scenarios come back sorted by candidate
    index with the D-error recomputed canonically from that ordering.
    Deterministic given ``seed``; ``iterations`` (1 to ``MAX_RESTARTS``)
    is the restart count.

    Raises NotIdentifiedError when every design examined is singular, i.e.
    the spec is not identifiable with a design of this size.
    """
    beta = as_params(spec, priors)
    n = len(candidates)
    if size < 1:
        raise ValueError("size must be >= 1")
    if size > n:
        raise ValueError(f"size {size} exceeds candidate count {n}")
    if not 1 <= iterations <= MAX_RESTARTS:
        raise ValueError(f"iterations must be >= 1 and <= {MAX_RESTARTS:,}, "
                         f"got {iterations}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    k = spec.n_params

    def finish(indices: Sequence[int]) -> EfficientDesign:
        picked = sorted(indices)
        scenarios = tuple(candidates[i] for i in picked)
        d = d_error(scenarios, spec, priors, c1)
        if math.isinf(d):
            raise NotIdentifiedError(
                f"no design of size {size} identifies all {k} coefficients "
                "of this spec")
        return EfficientDesign(scenarios=scenarios, d_error=d)

    if size == n:
        return finish(range(n))

    parts, factors = _candidate_terms(candidates, spec, beta, c1)
    rng = np.random.default_rng(seed)
    best_d, best_idx = math.inf, None
    everything = np.arange(n)

    for _ in range(iterations):
        design = [int(rng.integers(n))]
        info = parts[design[0]].copy()

        while len(design) < size:
            d = _scan(info, parts, factors, design)
            free = np.delete(everything, design)
            pick = int(free[np.argmin(d[free])])
            design.append(pick)
            info += parts[pick]

        current = float(_d_errors(info[None], k)[0])
        improved = True
        while improved:
            improved = False
            swap, swap_d = None, current
            for pos, m in enumerate(design):
                d = _scan(info - parts[m], parts, factors, design)
                c = int(np.argmin(d))
                if d[c] < swap_d:
                    swap, swap_d = (pos, c), float(d[c])
            if swap is not None:
                pos, c = swap
                info = info - parts[design[pos]] + parts[c]
                design[pos] = c
                current = swap_d
                improved = True

        if current < best_d or best_idx is None:
            best_d, best_idx = current, list(design)

    return finish(best_idx)
