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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "FLOAT_FORMAT",
    "DataError",
    "Dataset",
    "Partition",
    "WeightedGraph",
    "MetaRepository",
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
    "squared_distances",
    "dataset_to_distance_graph",
    "load_repository",
    "save_repository",
]

FLOAT_FORMAT = "%.17g"  # the one float rule of every written file; it round-trips every float64
DISTANCE_BLOCK = 64  # rows per step of ``squared_distances``
_PAIRWISE_BLOCK = 128  # numpy's pairwise summation adds up to this many entries without splitting

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
    """A numeric point matrix; its ground truth, if any, is a separate ``Partition``."""

    id: str
    points: np.ndarray  # (n, d) float64, all finite

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 1:
            raise ValueError(f"points must be an n>=2 by d>=1 matrix, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite (no NaN/Inf)")
        # 4 n max |x_i|^2 bounds every squared distance, k-means expansion term and covariance sum.
        with np.errstate(over="ignore"):
            if not np.isfinite(4.0 * pts.shape[0] * (pts * pts).sum(axis=1).max()):
                raise ValueError("points are too large: squared distances between them would overflow float64")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


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
    n_covered: int  # items in some part: sizes.sum()

    def __init__(self, n_items: int, parts=None, *, labels=None):
        object.__setattr__(self, "n_items", int(n_items))
        self.__post_init__(parts, labels)

    def __post_init__(self, parts, labels):
        n = self.n_items
        if (parts is not None) + (labels is not None) != 1:
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
        object.__setattr__(self, "n_covered", int(sizes.sum()))

    @classmethod
    def _dense(cls, labels: np.ndarray, sizes: np.ndarray) -> "Partition":
        """The partition of int64 ``labels`` that cover every item with part ids
        0..K-1, each used, where ``sizes`` holds the K part counts; nothing is
        checked.  For labels the library has just made so; both arrays become
        read-only."""
        labels.setflags(write=False)
        sizes.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "n_items", labels.size)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "n_covered", labels.size)
        return self

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n_items == other.n_items and np.array_equal(self.labels, other.labels)

    def __hash__(self):
        return hash((self.n_items, self.labels.tobytes()))

    @property
    def n_parts(self) -> int:
        return self.sizes.size

    def is_valid(self) -> bool:
        """True iff the parts cover all items and there are >= 2 of them."""
        return self.n_parts >= 2 and self.n_covered == self.n_items


@dataclass(frozen=True, init=False, eq=False)
class WeightedGraph:
    """Undirected nonnegative-weighted graph stored as its weight matrix.

    ``w`` is a read-only symmetric (n, n) float64 matrix: ``w[i, j]`` is the
    weight of edge {i, j}, inf where there is no edge and on the diagonal.
    ``weights`` is any square array-like; only its strict upper triangle is
    read and mirrored into the lower one.
    """

    w: np.ndarray  # (n, n) float64, >= 0 or inf

    def __init__(self, weights):
        self.__post_init__(weights)

    def __post_init__(self, weights):
        a = np.asarray(weights, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"weights must be a square (n, n) matrix, got shape {a.shape}")
        w = np.where(np.tri(a.shape[0], dtype=bool), a.T, a)
        np.fill_diagonal(w, np.inf)
        if not np.all(w >= 0):
            raise ValueError("edge weights must be >= 0 or inf (no edge), not NaN")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def n_vertices(self) -> int:
        return self.w.shape[0]

    @property
    def n_edges(self) -> int:
        return int(np.isfinite(self.w).sum()) // 2


@dataclass(frozen=True)
class MetaRepository:
    """Ordered (point dataset, ground-truth partition) pairs plus a master seed.

    Problem ids are unique: results group by id, and ``save_repository``
    names each file after its problem's id.
    """

    problems: tuple  # tuple of (Dataset, Partition)
    seed: int

    def __post_init__(self):
        probs = tuple(self.problems)
        ids = set()
        for prob, truth in probs:
            if not isinstance(prob, Dataset):
                raise ValueError(f"repository problems must be point datasets, got {type(prob).__name__}")
            if truth.n_items != prob.n or not truth.is_valid():
                raise ValueError("ground truth must be a valid partition of its problem")
            if prob.id in ids:
                raise ValueError(f"duplicate problem id {prob.id!r}")
            ids.add(prob.id)
        object.__setattr__(self, "problems", probs)

    def __len__(self) -> int:
        return len(self.problems)


def load_dataset_csv(path, dataset_id: Optional[str] = None) -> tuple:
    """Load a labeled dataset CSV as ``(Dataset, ground-truth Partition)``.

    Header f0..f{d-1} then ``label``; class ids are 0..K-1, none skipped,
    with K >= 2.  The dataset id defaults to the file's stem.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file")
        except (UnicodeDecodeError, csv.Error) as exc:  # csv.Error: a cell over csv.field_size_limit()
            raise DataError(f"{path}: {exc}") from None

    d = len(header) - 1
    if d < 1 or header != [f"f{i}" for i in range(d)] + ["label"]:
        raise DataError(f"{path}: header must be f0..f{{d-1}} followed by label, with d >= 1")

    # The numeric block in one conversion (numpy parses each cell as float()
    # does); only a file with a bad row or cell is read cell by cell, which
    # names the first bad one.
    try:
        if any(len(row) != len(header) for row in rows):
            raise ValueError("ragged rows")
        points = np.array([row[:d] for row in rows], dtype=float).reshape(len(rows), d)
        parsed = bool(np.isfinite(points).all())
    except ValueError:
        parsed = False
    if not parsed:
        points = np.empty((len(rows), d))
    labels = np.empty(len(rows), dtype=np.int64)
    for r, row in enumerate(rows):
        if not parsed:
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
        cell = row[d]
        try:
            lab = int(cell)
        except ValueError:
            raise DataError(f"{path}: row {r + 2}: non-integer label {cell!r}")
        if lab < 0 or str(lab) != cell.strip():
            raise DataError(f"{path}: row {r + 2}: label must be a nonnegative integer, got {cell!r}")
        labels[r] = lab
    try:
        dataset = Dataset(id=dataset_id or path.stem, points=points)
        truth = Partition(len(rows), labels=labels)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    if not truth.is_valid():
        raise DataError(f"{path}: labels must name at least 2 classes")
    return dataset, truth


def write_dataset_csv(dataset: Dataset, truth: Partition, path) -> None:
    """Write a dataset and its ground truth in the CSV format that ``load_dataset_csv`` reads."""
    if truth.n_items != dataset.n or not truth.is_valid():
        raise ValueError("ground truth must be a valid partition of the dataset")
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.d)] + ["label"])
        for i in range(dataset.n):
            writer.writerow([FLOAT_FORMAT % x for x in dataset.points[i]] + [str(int(truth.labels[i]))])


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
    return Dataset(id=dataset.id, points=normalize_points(dataset.points))


def covariance(points: np.ndarray) -> np.ndarray:
    """Population (divide by n) covariance matrix of the columns, (d, d)."""
    centered = points - points.mean(axis=0)
    return centered.T @ centered / points.shape[0]


def split_repository(repo: MetaRepository, train_fraction: float, repeat: int = 0, seed: int = 0) -> tuple:
    """Deterministic disjoint (train_indices, test_indices) over the repo.

    ``floor(n * train_fraction + 0.5)`` of the n problems train; the draw is
    a permutation from the stream ``derive_seed(repo.seed, seed, repeat)``.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must lie in (0, 1)")
    if repeat < 0:
        raise ValueError("repeat must be >= 0")
    n = len(repo)
    n_train = int(math.floor(n * train_fraction + 0.5))
    if n_train < 1 or n_train > n - 1:
        raise ValueError(f"split leaves an empty side: n={n}, train_fraction={train_fraction}")
    rng = np.random.default_rng(derive_seed(repo.seed, seed, repeat))
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
        # Planted outliers sit at radius 20 * separation * k: bound their squared distances.
        diameter = 40.0 * self.separation * self.n_clusters[1]
        if not math.isfinite(diameter * diameter * self.dims[1]):
            raise ValueError(
                f"separation must be finite, with finite squared distances between outliers, got {self.separation}"
            )


def _sample_separated_centers(rng: np.random.Generator, k: int, d: int, separation: float) -> np.ndarray:
    """Centers with pairwise distance >= separation, via bounded rejection."""
    side = separation * k
    while True:
        for _ in range(200):
            centers = rng.uniform(0.0, side, size=(k, d))
            dist = np.sqrt(squared_distances(centers))
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

        problems.append((Dataset(id=f"synth-{i:04d}", points=points), labels_to_partition(labels)))
    return MetaRepository(problems=tuple(problems), seed=spec.seed)


def _summed_squared_differences(cols: np.ndarray, rows: slice, lo: int, hi: int) -> np.ndarray:
    """The (rows, n) sums over coordinates lo..hi-1 of ``(cols[c, rows, None] - cols[c]) ** 2``.

    The terms are added in the order of numpy's pairwise summation of a
    last axis of hi - lo entries: in order below 8 entries; up to
    ``_PAIRWISE_BLOCK`` entries, 8 running sums over every 8th coordinate,
    combined as a tree, then the leftover terms in order; above it, the sums
    of two halves split at a multiple of 8.  So every entry has the bits of
    ``.sum(axis=-1)`` over a whole (rows, n, d) difference array.
    """
    m = hi - lo
    if m > _PAIRWISE_BLOCK:
        half = m // 2 - (m // 2) % 8
        total = _summed_squared_differences(cols, rows, lo, lo + half)
        total += _summed_squared_differences(cols, rows, lo + half, hi)
        return total

    def square(c, out=None):
        diff = np.subtract.outer(cols[c, rows], cols[c], out=out)
        return np.multiply(diff, diff, out=diff)

    if m < 8:
        total, scratch, rest = square(lo), None, range(lo + 1, hi)
    else:
        r = [square(lo + j) for j in range(8)]
        scratch = np.empty_like(r[0])
        for c in range(lo + 8, hi - m % 8):
            r[(c - lo) % 8] += square(c, scratch)
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            r[a] += r[b]
        total, rest = r[0], range(hi - m % 8, hi)
    for c in rest:
        total += square(c, scratch)
    return total


def squared_distances(points) -> np.ndarray:
    """(n, n) squared Euclidean distances between the rows of ``points``.

    Computed for ``DISTANCE_BLOCK`` rows at a time, one coordinate at a time,
    so only (rows, n) arrays are live; each entry has the bits of the one
    whole-matrix expression ``((p[:, None] - p[None]) ** 2).sum(axis=2)``.
    """
    p = np.asarray(points, dtype=float)
    n, d = p.shape
    if d == 0:
        return np.zeros((n, n))
    cols = np.ascontiguousarray(p.T)
    out = np.empty((n, n))
    for start in range(0, n, DISTANCE_BLOCK):
        rows = slice(start, start + DISTANCE_BLOCK)
        out[rows] = _summed_squared_differences(cols, rows, 0, d)
    return out


def dataset_to_distance_graph(dataset: Dataset) -> WeightedGraph:
    """Complete graph with Euclidean distances as edge weights."""
    return WeightedGraph(np.sqrt(squared_distances(dataset.points)))


def load_repository(manifest_path, seed: int = 0) -> MetaRepository:
    """Load a repository from a JSON manifest of labeled dataset CSV entries.

    Manifest: array of {"id", "path", "has_labels": true}, ids unique; paths
    resolve relative to the manifest file; repository order = array order.
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            entries = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{manifest_path}: invalid JSON: {exc}") from None
    if not isinstance(entries, list):
        raise DataError(f"{manifest_path}: manifest must be a JSON array, got {type(entries).__name__}")
    if not entries:
        raise DataError(f"{manifest_path}: manifest lists no datasets")
    problems = []
    for pos, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("id"), str)
            and isinstance(entry.get("path"), str)
            and isinstance(entry.get("has_labels"), bool)
        ):
            raise DataError(f"{manifest_path}: entry {pos} must be an object {{id: str, path: str, has_labels: bool}}")
        if not entry["has_labels"]:
            raise DataError(f"{manifest_path}: entry {pos}: has_labels must be true; problems need ground truth")
        problems.append(load_dataset_csv(manifest_path.parent / entry["path"], dataset_id=entry["id"]))
    try:
        return MetaRepository(problems=tuple(problems), seed=seed)
    except ValueError as exc:
        raise DataError(f"{manifest_path}: {exc}") from None


def save_repository(repo: MetaRepository, out_dir) -> Path:
    """Write each problem as a labeled CSV plus a manifest.json; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for ds, truth in repo.problems:
        fname = f"{ds.id}.csv"
        write_dataset_csv(ds, truth, out_dir / fname)
        entries.append({"id": ds.id, "path": fname, "has_labels": True})
    manifest = out_dir / "manifest.json"
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2)
        fh.write("\n")
    return manifest
