"""Empirical risk minimization over finite clusterer families.

Covers selection of the best family member on a training repository, the
accompanying generalization bound, the spanning-forest threshold sweep
fitter for single-linkage clustering (with a from-scratch brute-force oracle),
and the scale-free learned threshold rule whose output satisfies the richness
and consistency axioms.

All pair bookkeeping is kept in exact integers until the final division so
the sweep fitter and the brute-force oracle agree bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from metaclust.clusterers import single_linkage_threshold
from metaclust.data_model import Partition, WeightedGraph
from metaclust.metrics import _pairs2, clustering_loss

__all__ = [
    "AlgorithmFamily",
    "BoundParams",
    "ThresholdFitResult",
    "MetaScaleRule",
    "erm_select",
    "generalization_bound",
    "fit_threshold_bruteforce",
    "fit_threshold_kruskal",
    "fit_meta_scale",
]


@dataclass(frozen=True)
class AlgorithmFamily:
    """Ordered, uniquely named clusterers: each member maps a problem to a Partition."""

    members: tuple  # tuple of (name, callable)

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("family must be non-empty")
        names = [name for name, _fn in members]
        if len(set(names)) != len(names):
            raise ValueError("member names must be unique")
        object.__setattr__(self, "members", members)

    @property
    def names(self) -> list:
        return [name for name, _fn in self.members]


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the finite-family generalization bound."""

    n: int
    delta: float
    family_size: Optional[int] = None
    bits: Optional[int] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if (self.family_size is None) == (self.bits is None):
            raise ValueError("specify exactly one of family_size or bits")
        if self.family_size is not None and self.family_size < 1:
            raise ValueError("family_size must be >= 1")
        if self.bits is not None and self.bits < 1:
            raise ValueError("bits must be >= 1")


def generalization_bound(p: BoundParams) -> float:
    """sqrt((2/n) ln(|C|/delta)), or sqrt(2(b ln2 + ln(1/delta))/n) in bits mode.

    Natural logarithms throughout (Chernoff-derivation convention).
    """
    if p.family_size is not None:
        return math.sqrt(2.0 / p.n * math.log(p.family_size / p.delta))
    return math.sqrt(2.0 * (p.bits * math.log(2.0) + math.log(1.0 / p.delta)) / p.n)


def erm_select(family: AlgorithmFamily, train: Sequence) -> tuple:
    """Pick the family member with lowest mean pairwise loss on the training set.

    A member failure on a problem counts as loss 1 for that problem (the same
    charge as an invalid output); ties break toward the earliest member.
    Returns (best member name, {name: mean loss}).
    """
    if not train:
        raise ValueError("training set must be non-empty")
    losses = {}
    for name, fn in family.members:
        total = 0.0
        for problem, truth in train:
            try:
                output = fn(problem)
                total += clustering_loss(truth.n_items, truth, output)
            except Exception:
                total += 1.0
        losses[name] = total / len(train)
    best = min(family.names, key=lambda name: losses[name])  # stable: earliest wins ties
    return best, losses


@dataclass(frozen=True)
class ThresholdFitResult:
    """Outcome of fitting the single-linkage threshold on a training set."""

    r_star: float
    min_mean_loss: float
    profile: tuple  # ordered tuple of (candidate r, mean loss)


def _check_threshold_train(train: Sequence) -> None:
    if not train:
        raise ValueError("training set must be non-empty")
    for graph, truth in train:
        if truth.n_items != graph.n_vertices or not truth.is_valid():
            raise ValueError("each ground truth must be a valid partition of its graph")


def _candidate_thresholds(train: Sequence) -> tuple:
    """All distinct edge weights plus a value below the smallest weight."""
    weights = np.unique(np.concatenate([graph.w for graph, _ in train])).tolist()
    r_below = 0.0 if (not weights or weights[0] > 0) else -1.0
    return r_below, weights


def _profile_minimum(profile: Sequence) -> tuple:
    min_loss = min(loss for _r, loss in profile)
    r_star = next(r for r, loss in profile if loss == min_loss)
    return r_star, min_loss


def fit_threshold_bruteforce(train: Sequence) -> ThresholdFitResult:
    """Correctness oracle: recompute components and loss from scratch per candidate."""
    _check_threshold_train(train)
    r_below, weights = _candidate_thresholds(train)
    profile = []
    for r in [r_below] + weights:
        losses = [
            clustering_loss(truth.n_items, truth, single_linkage_threshold(graph, r, strict=False))
            for graph, truth in train
        ]
        profile.append((r, sum(losses) / len(losses)))
    r_star, min_loss = _profile_minimum(profile)
    return ThresholdFitResult(r_star=r_star, min_mean_loss=min_loss, profile=tuple(profile))


class _GraphSweepState:
    """Incremental loss bookkeeping for one training graph.

    Tracks the exact integer count of unordered pairs on which the current
    clustering disagrees with the truth; merging components A and B changes it
    by (cross-pair count) - 2 * (same-truth cross pairs), computed from the
    truth-label histograms of the two components.  ``root`` maps each vertex
    to its component's root, and row ``histograms[root]`` is that
    component's histogram.
    """

    def __init__(self, graph: WeightedGraph, truth: Partition):
        self.n = graph.n_vertices
        self.root = np.arange(self.n)
        self.histograms = np.zeros((self.n, truth.n_parts), dtype=np.int64)
        self.histograms[self.root, truth.labels] = 1
        self.disagree = _pairs2(truth.sizes)  # all-singleton start
        self.components = self.n

    def merge(self, u: int, v: int) -> None:
        """Join the components of u and v, which must differ (a forest edge)."""
        ru, rv = self.root[u], self.root[v]
        hu, hv = self.histograms[ru], self.histograms[rv]
        self.disagree += int(hu.sum() * hv.sum() - 2 * (hu @ hv))
        self.histograms[ru] += hv
        self.root[self.root == rv] = ru
        self.components -= 1

    def loss(self) -> float:
        if self.components == 1:
            return 1.0  # single-part output is an invalid clustering
        return 2 * self.disagree / (self.n * (self.n - 1))


def _spanning_forest(graph: WeightedGraph) -> list:
    """(w, u, v) edges of a minimum spanning forest, by Prim's algorithm.

    Runs on a dense weight matrix (inf where there is no edge) and starts a
    new tree at the lowest unreached vertex whenever none is reachable.
    """
    n = graph.n_vertices
    weight = np.full((n, n), np.inf)
    weight[graph.u, graph.v] = graph.w
    weight[graph.v, graph.u] = graph.w
    reached = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)  # lightest edge to the forest; inf once reached
    parent = np.zeros(n, dtype=int)
    forest = []
    for _ in range(n):
        x = int(np.argmin(best))
        if best[x] < np.inf:
            forest.append((float(best[x]), int(parent[x]), x))
        else:
            x = int(np.argmin(reached))  # nothing reachable: start a new tree
        reached[x] = True
        best[x] = np.inf
        closer = ~reached & (weight[x] < best)
        best[closer] = weight[x, closer]
        parent[closer] = x
    return forest


def fit_threshold_kruskal(train: Sequence) -> ThresholdFitResult:
    """Threshold sweep over each graph's minimum spanning forest.

    Only spanning-forest edges ever join two components, and the components
    under w <= r are the same for every spanning forest.  So each graph
    merges its forest edges in weight order, recording its loss once all
    edges of a weight are merged, and carries that loss forward to every
    candidate threshold up to its next forest weight.  Per-candidate means
    add the graphs' losses in graph order, so the profile matches the
    brute-force oracle exactly, threshold for threshold.
    """
    _check_threshold_train(train)
    r_below, weights = _candidate_thresholds(train)
    candidates = np.array([r_below] + weights)
    total = np.zeros(candidates.size)
    for graph, truth in train:
        state = _GraphSweepState(graph, truth)
        forest = sorted(_spanning_forest(graph))
        step_weights = []
        step_losses = [state.loss()]
        for pos, (w, u, v) in enumerate(forest):
            state.merge(u, v)
            if pos + 1 == len(forest) or forest[pos + 1][0] != w:
                step_weights.append(w)
                step_losses.append(state.loss())
        steps = np.searchsorted(np.array(step_weights), candidates, side="right")
        total += np.array(step_losses)[steps]
    profile = tuple(zip([r_below] + weights, (total / len(train)).tolist()))
    r_star, min_loss = _profile_minimum(profile)
    return ThresholdFitResult(r_star=r_star, min_mean_loss=min_loss, profile=profile)


@dataclass(frozen=True)
class MetaScaleRule:
    """Learned single-linkage rule: components under edges with w < r_star.

    Strict comparison keeps every known cross-cluster training pair separated
    and makes the rule exactly equivariant under positive rescaling.
    """

    r_star: float

    def __call__(self, graph: WeightedGraph) -> Partition:
        return single_linkage_threshold(graph, self.r_star, strict=True)


def fit_meta_scale(train: Sequence) -> MetaScaleRule:
    """Set the threshold to the smallest cross-cluster distance seen in training."""
    _check_threshold_train(train)
    r_star = math.inf
    for graph, truth in train:
        expected_edges = graph.n_vertices * (graph.n_vertices - 1) // 2
        if graph.n_edges != expected_edges:
            raise ValueError("training graphs must be complete distance graphs")
        cross = truth.labels[graph.u] != truth.labels[graph.v]
        r_star = min(r_star, float(np.min(graph.w, where=cross, initial=math.inf)))
    if not math.isfinite(r_star):
        raise ValueError("no cross-cluster pair found in training data")
    return MetaScaleRule(r_star=r_star)
