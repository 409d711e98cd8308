"""Datasets, partitions, weighted graphs and the meta-repository.

The meta-repository is an ordered collection of (problem, ground-truth
partition) pairs and is the empirical stand-in for the distribution over
clustering problems that the meta layer learns from.  Everything in this
module is immutable after construction and deterministic given its seed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "DataError",
    "Dataset",
    "Partition",
    "WeightedGraph",
    "MetaRepository",
    "SplitSpec",
    "SynthSpec",
    "derive_seed",
    "labels_to_partition",
    "load_dataset_csv",
    "write_dataset_csv",
    "normalize_points",
    "normalize_dataset",
    "covariance",
    "split_repository",
    "make_synthetic_repository",
    "dataset_to_distance_graph",
    "load_repository",
    "save_repository",
]


_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    # Finalizer of the splitmix64 generator: multiply-xor avalanche.
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX_MULT_1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_MULT_2) & _MASK64
    return x ^ (x >> 31)


class DataError(ValueError):
    """Malformed input data: a dataset file or a repository manifest."""


def derive_seed(seed: int, *indices: int) -> int:
    """Derive a 64-bit sub-seed from a master seed and a tuple of indices.

    Folding each index through a multiply-xor avalanche keeps per-problem and
    per-repeat streams independent, so parallel evaluation cannot perturb
    determinism.
    """
    h = _splitmix64(seed & _MASK64)
    for idx in indices:
        h = _splitmix64(h ^ (idx & _MASK64))
    return h


@dataclass(frozen=True)
class Dataset:
    """A numeric point matrix with optional ground-truth class labels."""

    id: str
    points: np.ndarray  # (n, d) float64, all finite
    labels: Optional[np.ndarray] = None  # (n,) int class ids 0..K-1, or None
    name: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 1:
            raise ValueError(f"points must be an n>=2 by d>=1 matrix, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite (no NaN/Inf)")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=int)
            if lab.shape != (pts.shape[0],):
                raise ValueError("labels must be a length-n vector")
            uniq = np.unique(lab)
            k = uniq.size
            if k < 2 or not np.array_equal(uniq, np.arange(k)):
                raise ValueError("labels must use every class id in {0..K-1} with K >= 2")
            lab = lab.copy()
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            raise ValueError("dataset has no labels")
        return int(self.labels.max()) + 1

    def without_labels(self) -> "Dataset":
        return Dataset(id=self.id, points=self.points, labels=None, name=self.name)


@dataclass(frozen=True, init=False, eq=False)
class Partition:
    """A clustering of item indices into disjoint non-empty parts.

    Stored as one read-only label vector: ``labels[i]`` is the id of item i's
    part, numbered 0..K-1 in the order the parts were given, or -1 if item i
    is uncovered; ``sizes`` holds the K part sizes.  Build it from exactly
    one of ``parts=`` (index sequences) or ``labels=``.

    A partition is *valid for n items* iff its parts cover all n indices and
    there are at least two parts.  A trivial one-part output is representable
    but invalid; validity is queried, never enforced at construction.
    """

    n_items: int
    labels: np.ndarray  # (n_items,) int64, read-only
    sizes: np.ndarray  # (K,) int64, read-only

    def __init__(self, n_items: int, parts=None, *, labels=None):
        object.__setattr__(self, "n_items", int(n_items))
        self.__post_init__(parts, labels)

    def __post_init__(self, parts, labels):
        n = self.n_items
        if (parts is None) == (labels is None):
            raise ValueError("give exactly one of parts= or labels=")
        if parts is not None:
            parts = tuple(parts)
            sizes = np.array([len(p) for p in parts], dtype=np.int64)
            items = np.fromiter(itertools.chain.from_iterable(parts), dtype=np.int64, count=int(sizes.sum()))
            if np.any(sizes == 0) or np.any((items < 0) | (items >= n)):
                raise ValueError(f"parts must be non-empty sequences of indices in 0..{n - 1}")
            if np.any(np.bincount(items, minlength=n) > 1):
                raise ValueError("an index appears in more than one part")
            labels = np.full(n, -1, dtype=np.int64)
            labels[items] = np.repeat(np.arange(sizes.size), sizes)
        labels = np.array(labels)
        if labels.shape != (n,) or (n and labels.dtype.kind not in "iu") or np.any(labels < -1):
            raise ValueError(f"labels must be a length-{n} vector of integer part ids >= -1")
        labels = labels.astype(np.int64, copy=False)
        sizes = np.bincount(labels[labels >= 0])
        if np.any(sizes == 0):
            raise ValueError("part ids must be 0..K-1 with no id skipped")
        labels.setflags(write=False)
        sizes.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sizes", sizes)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n_items == other.n_items and np.array_equal(self.labels, other.labels)

    def __hash__(self):
        return hash((self.n_items, self.labels.tobytes()))

    @property
    def parts(self) -> tuple:
        """Tuple of parts in id order, each a tuple of ascending indices."""
        order = np.argsort(self.labels, kind="stable")[self.n_items - self.n_covered :]
        return tuple(tuple(p.tolist()) for p in np.split(order, np.cumsum(self.sizes))[:-1])

    @property
    def n_parts(self) -> int:
        return self.sizes.size

    @property
    def n_covered(self) -> int:
        return int(self.sizes.sum())

    def is_valid(self) -> bool:
        """True iff the parts cover all items and there are >= 2 of them."""
        return self.n_parts >= 2 and self.n_covered == self.n_items

    def to_label_array(self) -> np.ndarray:
        """Part id per item; -1 for uncovered items (the stored read-only vector)."""
        return self.labels


@dataclass(frozen=True, init=False, eq=False)
class WeightedGraph:
    """Symmetric nonnegative-weighted graph stored as three read-only arrays.

    Edge e joins ``u[e] < v[e]`` with weight ``w[e]``, in the order given.
    ``edges`` is any (m, 3) array-like of (u, v, w) rows, either orientation.
    """

    n_vertices: int
    u: np.ndarray  # (m,) int64
    v: np.ndarray  # (m,) int64
    w: np.ndarray  # (m,) float64, finite and >= 0

    def __init__(self, n_vertices: int, edges):
        object.__setattr__(self, "n_vertices", int(n_vertices))
        self.__post_init__(edges)

    def __post_init__(self, edges):
        n = self.n_vertices
        arr = np.asarray(edges, dtype=float)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"edges must be an (m, 3) array of (u, v, w) rows, got shape {arr.shape}")
        lo, hi = np.minimum(arr[:, 0], arr[:, 1]), np.maximum(arr[:, 0], arr[:, 1])
        if not np.all((lo >= 0) & (hi < n) & (lo == np.floor(lo)) & (hi == np.floor(hi))):
            raise ValueError(f"edge endpoints must be vertex ids in 0..{n - 1}")
        u, v, w = lo.astype(np.int64), hi.astype(np.int64), arr[:, 2].copy()
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")
        if np.any(np.diff(np.sort(u * n + v)) == 0):
            raise ValueError("duplicate edge")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError("edge weights must be finite and >= 0")
        for name, a in (("u", u), ("v", v), ("w", w)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_edges(self) -> int:
        return self.w.size

    @property
    def edges(self) -> tuple:
        """The edges as a tuple of (u, v, w) with u < v."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))


@dataclass(frozen=True)
class MetaRepository:
    """Ordered (problem, ground-truth partition) pairs plus a master seed."""

    problems: tuple  # tuple of (Dataset | WeightedGraph, Partition)
    seed: int

    def __post_init__(self):
        probs = tuple(self.problems)
        for prob, truth in probs:
            n = prob.n if isinstance(prob, Dataset) else prob.n_vertices
            if truth.n_items != n or not truth.is_valid():
                raise ValueError("ground truth must be a valid partition of its problem")
        object.__setattr__(self, "problems", probs)

    def __len__(self) -> int:
        return len(self.problems)


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/test split request."""

    train_fraction: float
    repeat_index: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.repeat_index < 0:
            raise ValueError("repeat_index must be >= 0")


def load_dataset_csv(path, has_labels: bool = False, dataset_id: Optional[str] = None) -> Dataset:
    """Load a dataset from CSV (header f0..f{d-1}, optional final `label`)."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None

    feature_cols = header[:-1] if has_labels else header
    expected = [f"f{i}" for i in range(len(feature_cols))]
    if feature_cols != expected or (has_labels and header[-1] != "label"):
        raise DataError(f"{path}: header must be f0..f{{d-1}}" + (" followed by label" if has_labels else ""))
    d = len(feature_cols)
    if d < 1:
        raise DataError(f"{path}: no feature columns")

    points = np.empty((len(rows), d))
    labels = np.empty(len(rows), dtype=int) if has_labels else None
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
        for c in range(d):
            try:
                val = float(row[c])
            except ValueError:
                raise DataError(f"{path}: row {r + 2}, column {header[c]}: non-numeric cell {row[c]!r}")
            if not math.isfinite(val):
                raise DataError(f"{path}: row {r + 2}, column {header[c]}: non-finite cell")
            points[r, c] = val
        if has_labels:
            cell = row[d]
            try:
                lab = int(cell)
            except ValueError:
                raise DataError(f"{path}: row {r + 2}: non-integer label {cell!r}")
            if lab < 0 or str(lab) != cell.strip():
                raise DataError(f"{path}: row {r + 2}: label must be a nonnegative integer, got {cell!r}")
            labels[r] = lab
    try:
        return Dataset(id=dataset_id or path.stem, points=points, labels=labels, name=path.stem)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the CSV format that ``load_dataset_csv`` reads."""
    path = Path(path)
    header = [f"f{i}" for i in range(dataset.d)]
    if dataset.labels is not None:
        header.append("label")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [format(x, ".17g") for x in dataset.points[i]]
            if dataset.labels is not None:
                row.append(str(int(dataset.labels[i])))
            writer.writerow(row)


def labels_to_partition(labels: Sequence[int]) -> Partition:
    """Convert class ids into a partition: one part per class, ascending id."""
    classes, ids = np.unique(np.asarray(labels, dtype=int), return_inverse=True)
    if classes.size < 2:
        raise ValueError("need at least 2 distinct labels to form a partition")
    return Partition(n_items=ids.size, labels=ids)


def normalize_points(points: np.ndarray) -> np.ndarray:
    """Center every column and scale non-constant columns to unit variance.

    Population variance (divide by n), so normalized covariance diagonals are
    exactly 1; zero-variance columns become all-zero.  Returns a new array.
    """
    mean = points.mean(axis=0)
    std = points.std(axis=0)  # population convention
    scale = np.where(std > 0, std, 1.0)
    out = (points - mean) / scale
    out[:, std == 0] = 0.0
    return out


def normalize_dataset(dataset: Dataset) -> Dataset:
    """The dataset with ``normalize_points`` applied to its points."""
    return Dataset(id=dataset.id, points=normalize_points(dataset.points), labels=dataset.labels, name=dataset.name)


def covariance(points: np.ndarray) -> np.ndarray:
    """Population (divide by n) covariance matrix of the columns, (d, d)."""
    centered = points - points.mean(axis=0)
    return centered.T @ centered / points.shape[0]


def split_repository(repo: MetaRepository, spec: SplitSpec) -> tuple:
    """Deterministic disjoint (train_indices, test_indices) over the repo."""
    n = len(repo)
    n_train = int(math.floor(n * spec.train_fraction + 0.5))
    if n_train < 1 or n_train > n - 1:
        raise ValueError(f"split leaves an empty side: n={n}, train_fraction={spec.train_fraction}")
    rng = np.random.default_rng(derive_seed(repo.seed, spec.seed, spec.repeat_index))
    order = rng.permutation(n)
    train = np.sort(order[:n_train])
    test = np.sort(order[n_train:])
    return train, test


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters for a synthetic blob repository."""

    n_problems: int
    n_points: int = 100
    dims: tuple = (2, 2)  # inclusive (min, max)
    n_clusters: tuple = (2, 4)  # inclusive (min, max)
    separation: float = 10.0  # minimum center distance in blob-sigma units
    outlier_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_problems < 1:
            raise ValueError("n_problems must be >= 1")
        if self.dims[0] < 1 or self.dims[0] > self.dims[1]:
            raise ValueError("invalid dims range")
        if self.n_clusters[0] < 2 or self.n_clusters[0] > self.n_clusters[1]:
            raise ValueError("invalid cluster count range")
        if self.n_clusters[1] > self.n_points:
            raise ValueError("more clusters than points")
        if not (0.0 <= self.outlier_fraction < 1.0):
            raise ValueError("outlier_fraction must lie in [0, 1)")
        if self.separation <= 0:
            raise ValueError("separation must be positive")


def _sample_separated_centers(rng: np.random.Generator, k: int, d: int, separation: float) -> np.ndarray:
    """Centers with pairwise distance >= separation, via bounded rejection."""
    side = separation * k
    while True:
        for _ in range(200):
            centers = rng.uniform(0.0, side, size=(k, d))
            diff = centers[:, None, :] - centers[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            dist[np.diag_indices(k)] = np.inf
            if dist.min() >= separation:
                return centers
        side *= 2.0


def make_synthetic_repository(spec: SynthSpec) -> MetaRepository:
    """Isotropic Gaussian blob problems with blob membership as ground truth.

    Optionally plants ``floor(outlier_fraction * n)`` points at large norm per
    problem (the planted points keep the class label of the point they
    replace).  Fully determined by the seed.
    """
    problems = []
    for i in range(spec.n_problems):
        rng = np.random.default_rng(derive_seed(spec.seed, i))
        d = int(rng.integers(spec.dims[0], spec.dims[1] + 1))
        k = int(rng.integers(spec.n_clusters[0], spec.n_clusters[1] + 1))
        centers = _sample_separated_centers(rng, k, d, spec.separation)

        # Near-even blob sizes so every class id appears.
        sizes = np.full(k, spec.n_points // k)
        sizes[: spec.n_points % k] += 1
        labels = np.repeat(np.arange(k), sizes)
        points = centers[labels] + rng.standard_normal((spec.n_points, d))

        n_out = int(math.floor(spec.outlier_fraction * spec.n_points))
        if n_out > 0:
            out_idx = rng.choice(spec.n_points, size=n_out, replace=False)
            radius = 20.0 * spec.separation * k
            for j in out_idx:
                direction = rng.standard_normal(d)
                direction /= np.linalg.norm(direction)
                points[j] = direction * radius

        ds = Dataset(id=f"synth-{i:04d}", points=points, labels=labels, name=f"synth-{i:04d}")
        problems.append((ds, labels_to_partition(labels)))
    return MetaRepository(problems=tuple(problems), seed=spec.seed)


def dataset_to_distance_graph(dataset: Dataset) -> WeightedGraph:
    """Complete graph with Euclidean distances as edge weights."""
    pts = dataset.points
    n = pts.shape[0]
    iu, ju = np.triu_indices(n, 1)
    w = np.sqrt(((pts[ju] - pts[iu]) ** 2).sum(axis=1))
    return WeightedGraph(n_vertices=n, edges=np.column_stack([iu, ju, w]))


def load_repository(manifest_path, seed: int = 0) -> MetaRepository:
    """Load a repository from a JSON manifest of dataset CSV entries.

    Manifest: array of {"id", "path", "has_labels"}; paths resolve relative
    to the manifest file; repository order = array order.
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            entries = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{manifest_path}: invalid JSON: {exc}") from None
    if not isinstance(entries, list):
        raise DataError(f"{manifest_path}: manifest must be a JSON array, got {type(entries).__name__}")
    problems = []
    for pos, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("id"), str)
            and isinstance(entry.get("path"), str)
            and isinstance(entry.get("has_labels"), bool)
        ):
            raise DataError(f"{manifest_path}: entry {pos} must be an object {{id: str, path: str, has_labels: bool}}")
        ds = load_dataset_csv(
            manifest_path.parent / entry["path"],
            has_labels=entry["has_labels"],
            dataset_id=entry["id"],
        )
        if ds.labels is None:
            raise DataError(f"dataset {ds.id}: repository problems need ground-truth labels")
        problems.append((ds, labels_to_partition(ds.labels)))
    return MetaRepository(problems=tuple(problems), seed=seed)


def save_repository(repo: MetaRepository, out_dir) -> Path:
    """Write each dataset as CSV plus a manifest.json; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for ds, _truth in repo.problems:
        if not isinstance(ds, Dataset):
            raise ValueError("only point datasets can be serialized to CSV")
        fname = f"{ds.id}.csv"
        write_dataset_csv(ds, out_dir / fname)
        entries.append({"id": ds.id, "path": fname, "has_labels": ds.labels is not None})
    manifest = out_dir / "manifest.json"
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2)
        fh.write("\n")
    return manifest
