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
from typing import Optional, Sequence

import numpy as np

from metaclust.clusterers import single_linkage_threshold
from metaclust.data_model import Partition, WeightedGraph
from metaclust.metrics import _pairs2, clustering_loss

__all__ = [
    "AlgorithmFamily",
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


def generalization_bound(
    n: int, delta: float, *, family_size: Optional[int] = None, bits: Optional[int] = None
) -> float:
    """sqrt((2/n) ln(|C|/delta)), or sqrt(2(b ln2 + ln(1/delta))/n) in bits mode.

    Exactly one of ``family_size`` (|C|) and ``bits`` (b) is given.  Natural
    logarithms throughout (Chernoff-derivation convention).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if (family_size is None) == (bits is None):
        raise ValueError("specify exactly one of family_size or bits")
    if family_size is not None and family_size < 1:
        raise ValueError("family_size must be >= 1")
    if bits is not None and bits < 1:
        raise ValueError("bits must be >= 1")
    if family_size is not None:
        return math.sqrt(2.0 / n * math.log(family_size / delta))
    return math.sqrt(2.0 * (bits * math.log(2.0) + math.log(1.0 / delta)) / n)


def erm_select(family: AlgorithmFamily, train: Sequence) -> tuple:
    """Pick the family member with lowest mean pairwise loss on the training set.

    A member failure (``ValueError``) on a problem counts as loss 1 for that
    problem, the same charge as an invalid output; any other exception
    propagates.  Ties break toward the earliest member.
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
                total += clustering_loss(truth, output)
            except ValueError:
                total += 1.0
        losses[name] = total / len(train)
    best = min(family.names, key=lambda name: losses[name])  # stable: earliest wins ties
    return best, losses


def _profile(r, mean_loss) -> tuple:
    """``(r, mean_loss)`` as read-only float64 vectors."""
    profile = (np.asarray(r, dtype=np.float64), np.asarray(mean_loss, dtype=np.float64))
    for values in profile:
        values.setflags(write=False)
    return profile


def _check_threshold_train(train: Sequence) -> None:
    if not train:
        raise ValueError("training set must be non-empty")
    for graph, truth in train:
        if truth.n_items != graph.n_vertices or not truth.is_valid():
            raise ValueError("each ground truth must be a valid partition of its graph")


def _candidate_thresholds(train: Sequence) -> np.ndarray:
    """All distinct edge weights, in increasing order, after a value below the smallest."""
    upper = [graph.w[~np.tri(graph.n_vertices, dtype=bool)] for graph, _ in train]  # strict upper triangles
    weights = np.unique(np.concatenate(upper))
    weights = weights[weights < np.inf]  # inf is no edge
    r_below = 0.0 if (not weights.size or weights[0] > 0) else -1.0
    return np.concatenate([[r_below], weights])


def fit_threshold_bruteforce(train: Sequence) -> tuple:
    """Correctness oracle: recompute components and loss from scratch per candidate.

    Returns ``(r, mean_loss)`` as ``fit_threshold_kruskal`` does.
    """
    _check_threshold_train(train)
    candidates = _candidate_thresholds(train)
    mean_loss = []
    for r in candidates.tolist():
        losses = [
            clustering_loss(truth, single_linkage_threshold(graph, r, strict=False))
            for graph, truth in train
        ]
        mean_loss.append(sum(losses) / len(losses))
    return _profile(candidates, mean_loss)


def _spanning_forest(graph: WeightedGraph) -> tuple:
    """Edges of a minimum spanning forest by Prim's algorithm, as arrays
    ``(w, u, v)`` in the order the algorithm adds them.

    Runs on the graph's weight matrix and starts a new tree at the lowest
    unreached vertex whenever none is reachable.
    """
    n, weight = graph.n_vertices, graph.w
    reached = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)  # lightest edge to the forest; inf once reached
    parent = np.zeros(n, dtype=int)
    order = np.empty(n, dtype=int)  # vertices in the order they are reached
    reached_by = np.empty(n)  # the weight that reached each; inf for a tree's first vertex
    for step in range(n):
        x = int(np.argmin(best))
        if best[x] == np.inf:
            x = int(np.argmin(reached))  # nothing reachable: start a new tree
        order[step], reached_by[step] = x, best[x]
        reached[x] = True
        best[x] = np.inf
        closer = ~reached & (weight[x] < best)
        best[closer] = weight[x, closer]
        parent[closer] = x
    edge = reached_by < np.inf
    return reached_by[edge], parent[order[edge]], order[edge]


def fit_threshold_kruskal(train: Sequence) -> tuple:
    """Threshold sweep over each graph's minimum spanning forest.

    Returns ``(r, mean_loss)``, read-only float64 vectors: the candidate
    thresholds in increasing order and the mean training loss at each.  The
    fitted threshold, the smallest r with the least loss, is the first
    minimum ``r[np.argmin(mean_loss)]``.

    Only spanning-forest edges ever join two components, and the components
    under w <= r are the same for every spanning forest.  So each graph
    merges its forest edges in weight order, keeping the exact count of
    pairs that disagree with the truth: joining A and B adds the cross pairs
    and subtracts twice the same-truth ones, from the truth-label histograms
    (row ``histograms[root[x]]`` counts x's component).  The loss after the
    last edge of each weight carries forward to every candidate threshold up
    to the next forest weight, so the order among equal weights is
    irrelevant.  The graphs' losses are added in graph order on the union of
    their loss steps (one step below every forest weight, then one at each),
    and every candidate takes the sum of the last step at or below it, so
    the profile matches the brute-force oracle exactly.
    """
    _check_threshold_train(train)
    candidates = _candidate_thresholds(train)
    step_losses = []  # per graph: (forest weights where the loss changes, loss below, at and after each)
    for graph, truth in train:
        n = graph.n_vertices
        w, u, v = _spanning_forest(graph)
        order = np.argsort(w, kind="stable")
        w = w[order]
        root = np.arange(n)
        histograms = np.zeros((n, truth.n_parts), dtype=np.int64)
        histograms[root, truth.labels] = 1
        disagree = [_pairs2(truth.sizes)]  # all singletons, then after each merge
        for a, b in zip(u[order].tolist(), v[order].tolist()):
            ra, rb = root[a], root[b]
            ha, hb = histograms[ra], histograms[rb]
            disagree.append(disagree[-1] + int(ha.sum() * hb.sum() - 2 * (ha @ hb)))
            histograms[ra] += hb
            root[root == rb] = ra
        last = np.flatnonzero(np.diff(w, append=np.inf))  # the last merge of each weight
        merged = np.concatenate([[0], last + 1])  # merges done at each loss step
        counts = np.array(disagree)[merged]
        # A single-part output (n - merged == 1) is an invalid clustering: loss 1.
        losses = np.divide(2 * counts, n * (n - 1), out=np.ones(merged.size), where=n - merged > 1)
        step_losses.append((w[last], losses))
    steps = np.concatenate([[-np.inf], np.unique(np.concatenate([weights for weights, _ in step_losses]))])
    total = np.zeros(steps.size)
    for weights, losses in step_losses:
        total += losses[np.searchsorted(weights, steps, side="right")]
    total = total[np.searchsorted(steps, candidates, side="right") - 1]
    return _profile(candidates, total / len(train))


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
        cross = truth.labels[:, None] != truth.labels[None, :]
        r_star = min(r_star, float(np.min(graph.w, where=cross, initial=math.inf)))
    if not math.isfinite(r_star):
        raise ValueError("no cross-cluster pair found in training data")
    return MetaScaleRule(r_star=r_star)
