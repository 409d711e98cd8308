"""Acceptance gate: one check per headline property, one PASS/FAIL line each.

Each criterion prints a single summary line (bypassing capture, so it shows
up in plain pytest output) and then asserts.  The synthetic constructions are
deterministic: every repository below is a pure function of its seed.
"""

import time

import numpy as np
import pytest

from metaclust.clusterers import ClustererSpec
from metaclust.data_model import (
    Dataset,
    MetaRepository,
    Partition,
    SplitSpec,
    SynthSpec,
    WeightedGraph,
    dataset_to_distance_graph,
    derive_seed,
    labels_to_partition,
    make_synthetic_repository,
    split_repository,
)
from metaclust.erm_meta import (
    AlgorithmFamily,
    BoundParams,
    erm_select,
    fit_meta_scale,
    fit_threshold_bruteforce,
    fit_threshold_kruskal,
    generalization_bound,
)
from metaclust.meta_pipelines import (
    evaluate_algo_select,
    evaluate_meta_k,
    repo_runs,
    sweep_outlier_fraction,
    train_algo_select,
    train_meta_k,
)
from metaclust.metrics import adjusted_rand_index, clustering_loss, rand_index
from metaclust.similarity_net import (
    ADADELTA_EPS,
    ADADELTA_RHO,
    FEATURE_DIM,
    adadelta_step,
    evaluate_bsf,
    init_mlp,
    nll_loss_and_grads,
    predict_pair,
    sample_pair_splits,
    train_mlp,
)


@pytest.fixture()
def announce(capsys):
    def _announce(num, desc, ok):
        with capsys.disabled():
            print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}", flush=True)
        assert ok, f"criterion {num} failed: {desc}"

    return _announce


def random_partition(rng, n, max_parts=4):
    labels = rng.integers(0, rng.integers(2, max_parts + 1), size=n)
    while np.unique(labels).size < 2:
        labels = rng.integers(0, rng.integers(2, max_parts + 1), size=n)
    _, dense = np.unique(labels, return_inverse=True)
    return labels_to_partition(dense)


def test_criterion_01_metric_oracle_equivalence(announce):
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        y = random_partition(rng, n)
        z = random_partition(rng, n)
        ly, lz = y.to_label_array(), z.to_label_array()
        bad = sum(
            1
            for i in range(n)
            for j in range(n)
            if i != j and (ly[i] == ly[j]) != (lz[i] == lz[j])
        )
        oracle = bad / (n * (n - 1))
        loss = clustering_loss(n, y, z)
        if abs(loss - oracle) > 1e-12 or rand_index(n, y, z) != 1.0 - loss:
            ok = False
            break
    announce(1, "clustering_loss matches pair enumeration; rand = 1 - loss", ok)


def test_criterion_02_ari_correctness(announce):
    rng = np.random.default_rng(102)
    ok = all(
        adjusted_rand_index(n, p, p) == 1.0
        for n, p in ((4, random_partition(rng, 4)), (9, random_partition(rng, 9)))
    )
    y = Partition(4, ((0, 1), (2, 3)))
    z = Partition(4, ((0, 1, 2), (3,)))
    ok = ok and adjusted_rand_index(4, y, z) == 0.0
    vals = []
    for _ in range(1000):
        a = labels_to_partition(rng.integers(0, 4, size=200))
        b = labels_to_partition(rng.integers(0, 4, size=200))
        vals.append(adjusted_rand_index(200, a, b))
    mean = float(np.mean(vals))
    ok = ok and -0.02 <= mean <= 0.02
    announce(2, f"ARI identity/worked example/chance level (mean {mean:+.4f})", ok)


def _random_graph_collection(rng):
    train = []
    for _ in range(int(rng.integers(1, 9))):
        n = int(rng.integers(3, 21))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    w = float(rng.integers(0, 6)) if rng.random() < 0.5 else float(rng.uniform(0, 5))
                    edges.append((u, v, w))
        labels = rng.integers(0, int(rng.integers(2, 5)), size=n)
        while np.unique(labels).size < 2:
            labels = rng.integers(0, 3, size=n)
        _, dense = np.unique(labels, return_inverse=True)
        train.append((WeightedGraph(n, tuple(edges)), labels_to_partition(dense)))
    return train


def _dense_random_graph(n_vertices, n_edges, seed):
    rng = np.random.default_rng(seed)
    seen = set()
    edges = []
    while len(edges) < n_edges:
        u = int(rng.integers(n_vertices))
        v = int(rng.integers(n_vertices))
        if u == v:
            continue
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v, float(rng.uniform(0, 100))))
    labels = rng.integers(0, 5, size=n_vertices)
    labels[:5] = range(5)
    _, dense = np.unique(labels, return_inverse=True)
    return [(WeightedGraph(n_vertices, tuple(edges)), labels_to_partition(dense))]


def test_criterion_03_threshold_fitter_fidelity(announce):
    rng = np.random.default_rng(103)
    exact = all(
        fit_threshold_kruskal(train) == fit_threshold_bruteforce(train)
        for train in (_random_graph_collection(rng) for _ in range(100))
    )

    small = _dense_random_graph(400, 20000, 1031)
    big = _dense_random_graph(400, 40000, 1032)

    def median_time(train):
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            fit_threshold_kruskal(train)
            samples.append(time.perf_counter() - t0)
        return sorted(samples)[2]

    ratio = median_time(big) / median_time(small)
    ok = exact and ratio <= 2.5
    announce(3, f"sweep == brute force on 100 collections; 2x edges -> {ratio:.2f}x time", ok)


def test_criterion_04_erm_bound_monte_carlo(announce):
    truth = Partition(2, ((0,), (1,)))
    correct = Partition(2, ((0,), (1,)))
    wrong = Partition(2, ((0, 1),))  # invalid: charged loss 1

    bound = generalization_bound(BoundParams(n=200, delta=0.05, family_size=10))
    assert bound == pytest.approx(0.23018, abs=5e-6)

    rng = np.random.default_rng(104)
    trials = 500
    violations = 0
    for _ in range(trials):
        # ten members with Bernoulli losses of known true means p_j; the
        # problem itself carries the randomness so each member is a
        # deterministic algorithm
        p = rng.uniform(0.2, 0.8, size=10)
        members = tuple(
            (f"m{j}", (lambda u, jj=j: wrong if u[jj] < p[jj] else correct)) for j in range(10)
        )
        family = AlgorithmFamily(members=members)
        train = [(rng.random(10), truth) for _ in range(200)]
        best, _ = erm_select(family, train)
        true_loss = p[int(best[1:])]
        if true_loss > p.min() + bound:
            violations += 1
    ok = violations / trials <= 0.05 + 0.02
    announce(4, f"ERM exceeded best+bound in {violations}/{trials} trials (<= 7% allowed)", ok)


def _separated_problem(rng, n=12, d=2):
    k = int(rng.integers(2, 4))
    centers = rng.standard_normal((k, d)) * 0.1 + np.arange(k)[:, None] * 5.0
    labels = np.sort(rng.integers(0, k, size=n))
    while np.unique(labels).size < 2:
        labels = np.sort(rng.integers(0, k, size=n))
    _, dense = np.unique(labels, return_inverse=True)
    pts = centers[dense] + rng.standard_normal((n, d)) * 0.2
    return dataset_to_distance_graph(Dataset(id="sp", points=pts)), labels_to_partition(dense)


def test_criterion_05_meta_scale_axioms(announce):
    rng = np.random.default_rng(105)

    def scaled(g, alpha):
        return WeightedGraph(g.n_vertices, tuple((u, v, w * alpha) for u, v, w in g.edges))

    invariant = True
    for _ in range(100):
        train = [_separated_problem(rng) for _ in range(int(rng.integers(1, 4)))]
        test_g, _ = _separated_problem(rng)
        alpha = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        rule = fit_meta_scale(train)
        rule_scaled = fit_meta_scale([(scaled(g, alpha), t) for g, t in train])
        if rule_scaled(scaled(test_g, alpha)).parts != rule(test_g).parts:
            invariant = False
            break

    # richness: for any target partition some distance yields exactly it
    richness = True
    for _ in range(100):
        train = [_separated_problem(rng)]
        rule = fit_meta_scale(train)
        n = int(rng.integers(4, 12))
        target = random_partition(rng, n, max_parts=3)
        lab = target.to_label_array()
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if lab[u] == lab[v]:
                    w = rule.r_star * float(rng.uniform(0.1, 0.9))
                else:
                    w = rule.r_star * float(rng.uniform(1.1, 3.0))
                edges.append((u, v, w))
        out = rule(WeightedGraph(n, tuple(edges)))
        if set(out.parts) != set(target.parts):
            richness = False
            break

    # consistency: shrinking within-part and growing cross-part distances
    # leaves the output unchanged
    consistency = True
    for _ in range(100):
        train = [_separated_problem(rng)]
        rule = fit_meta_scale(train)
        g, _ = _separated_problem(rng)
        base = rule(g)
        lab = base.to_label_array()
        edges = []
        for u, v, w in g.edges:
            factor = rng.uniform(0.3, 1.0) if lab[u] == lab[v] else rng.uniform(1.0, 3.0)
            edges.append((u, v, w * float(factor)))
        if rule(WeightedGraph(g.n_vertices, tuple(edges))).parts != base.parts:
            consistency = False
            break

    ok = invariant and richness and consistency
    announce(5, "scale invariance exact on 100 triples; richness/consistency suites", ok)


def _regime_dataset(idx, seed):
    """Two planted regimes: compact-blobs-with-bridge (centroid methods win)
    and parallel filaments (single linkage wins), told apart by (d, m)."""
    rng = np.random.default_rng(derive_seed(seed, idx))
    if idx % 2 == 0:
        n_blob, n_bridge = 25, 25
        c1 = np.array([10.0, 0.0])
        pts = [0.5 * rng.standard_normal((n_blob, 2)), c1 + 0.5 * rng.standard_normal((n_blob, 2))]
        t = np.linspace(0.05, 0.95, n_bridge)
        bridge = np.outer(t, c1) + 0.03 * rng.standard_normal((n_bridge, 2))
        pts.append(bridge)
        points = np.vstack(pts)
        labels = np.concatenate([np.zeros(n_blob, int), np.ones(n_blob, int), (t > 0.5).astype(int)])
    else:
        n_line = 30
        x = np.linspace(0.0, 30.0, n_line)
        base = np.zeros((n_line, 4))
        base[:, 0] = x
        off = base.copy()
        off[:, 1] = 2.0
        points = np.vstack([base, off]) + 0.05 * rng.standard_normal((2 * n_line, 4))
        labels = np.concatenate([np.zeros(n_line, int), np.ones(n_line, int)])
    ds = Dataset(id=f"regime-{idx:03d}", points=points, labels=labels)
    return ds, labels_to_partition(labels)


def test_criterion_06_algo_select_beats_fixed_members(announce):
    repo = MetaRepository(problems=tuple(_regime_dataset(i, 11) for i in range(20)), seed=11)
    family = [ClustererSpec(kind="kmeans", k=2, restarts=10), ClustererSpec(kind="agglo_single", k=2)]
    meta_scores = []
    member_scores: dict = {}
    for repeat in range(10):
        train_idx, test_idx = split_repository(repo, SplitSpec(0.6, repeat, 7))
        model = train_algo_select(family, [repo.problems[i] for i in train_idx], seed=7)
        ari_meta, per_member = evaluate_algo_select(model, [repo.problems[i] for i in test_idx])
        meta_scores.append(ari_meta)
        for name, val in per_member.items():
            member_scores.setdefault(name, []).append(val)
    meta_mean = float(np.mean(meta_scores))
    best_fixed = max(float(np.mean(vals)) for vals in member_scores.values())
    ok = meta_mean >= best_fixed - 0.01
    announce(6, f"meta selection mean ARI {meta_mean:.3f} vs best fixed {best_fixed:.3f}", ok)


def _biased_dataset(idx, seed):
    """Two well-separated super-groups of blobs: silhouette prefers k=2 while
    the true cluster count is 4 or 6."""
    rng = np.random.default_rng(derive_seed(seed, idx))
    k_true = 4 if idx % 2 == 0 else 6
    half = k_true // 2
    n = 120
    sizes = np.full(k_true, n // k_true)
    group_centers = np.array([[0.0, 0.0], [60.0, 0.0]])
    blob_angle = np.linspace(0, 2 * np.pi, half, endpoint=False)
    centers = np.array(
        [
            group_centers[g] + 4.0 * np.array([np.cos(a), np.sin(a)])
            for g in range(2)
            for a in blob_angle
        ]
    )
    labels = np.repeat(np.arange(k_true), sizes)
    points = centers[labels] + 0.5 * rng.standard_normal((n, 2))
    ds = Dataset(id=f"bias-{idx:03d}", points=points, labels=labels)
    return ds, labels_to_partition(labels)


def test_criterion_07_meta_k_beats_silhouette_argmax(announce):
    repo = MetaRepository(problems=tuple(_biased_dataset(i, 13) for i in range(16)), seed=13)
    records = repo_runs(repo, range(2, 11), 10, seed=5)
    wins = 0
    for repeat in range(10):
        train_idx, test_idx = split_repository(repo, SplitSpec(0.5, repeat, 5))
        model = train_meta_k([records[i] for i in train_idx], range(2, 11))
        ev = evaluate_meta_k(model, [records[i] for i in test_idx])
        if ev.rmse_meta < ev.rmse_baseline and ev.mean_ari_meta > ev.mean_ari_baseline:
            wins += 1
    ok = wins >= 8
    announce(7, f"meta-k strictly better rmse AND ARI in {wins}/10 repeats (>= 8 needed)", ok)


def _outlier_dataset(idx, seed):
    """Nine tight ring blobs + a far 2-point class + one extreme outlier.

    At p=0 the outlier must cannibalize a real cluster (true count + outlier
    exceeds the k range); p=0.01 prunes exactly it; p>=0.02 additionally
    wipes out the far pair, whose points then reattach to wrong centers.
    """
    rng = np.random.default_rng(derive_seed(seed, idx))
    k_main = 9
    n_main = 148
    sizes = np.full(k_main, n_main // k_main)
    sizes[: n_main % k_main] += 1
    ang = 2 * np.pi * np.arange(k_main) / k_main + rng.uniform(0, 2 * np.pi)
    centers = 20.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    labels = np.repeat(np.arange(k_main), sizes)
    points = centers[labels] + 0.3 * rng.standard_normal((n_main, 2))
    pair_dir = rng.standard_normal(2)
    pair_dir /= np.linalg.norm(pair_dir)
    pair = 300.0 * pair_dir + 0.3 * rng.standard_normal((2, 2))
    points = np.vstack([points, pair])
    labels = np.concatenate([labels, np.full(2, k_main)])
    j = int(rng.integers(n_main))
    direction = rng.standard_normal(2)
    direction /= np.linalg.norm(direction)
    points[j] = 5000.0 * direction
    ds = Dataset(id=f"out-{idx:03d}", points=points, labels=labels)
    return ds, labels_to_partition(labels)


def test_criterion_08_outlier_sweep_finds_planted_fraction(announce):
    repo = MetaRepository(problems=tuple(_outlier_dataset(i, 17) for i in range(16)), seed=17)
    grid = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)
    splits = [SplitSpec(0.5, repeat, 5) for repeat in range(10)]
    results = sweep_outlier_fraction(repo, splits, grid, range(2, 11), 10, seed=5)
    wins = 0
    for result in results:
        per_p = dict(result.per_p)
        if result.best_p == 0.01 and per_p[0.01] > per_p[0.0]:
            wins += 1
    # the p=0 column must reproduce the plain pipeline bit-for-bit
    records = repo_runs(repo, range(2, 11), 10, seed=5)
    train_idx, test_idx = split_repository(repo, splits[0])
    model = train_meta_k([records[i] for i in train_idx], range(2, 11))
    ev = evaluate_meta_k(model, [records[i] for i in test_idx])
    p0_exact = dict(results[0].per_p)[0.0] == ev.mean_ari_meta
    ok = wins >= 8 and p0_exact
    announce(8, f"sweep picked p=0.01 over p=0 in {wins}/10 repeats; p=0 column exact", ok)


def test_criterion_09_similarity_net_mechanics(announce):
    rng = np.random.default_rng(109)

    # analytic gradients vs central differences
    model = init_mlp(seed=7)
    x = rng.standard_normal((10, FEATURE_DIM))
    y = rng.integers(0, 2, size=10)
    _loss, (grads_w, grads_b) = nll_loss_and_grads(model, x, y)
    h = 1e-5
    worst = 0.0
    for layer in range(len(model.weights)):
        for arr, grad in ((model.weights[layer], grads_w[layer]), (model.biases[layer], grads_b[layer])):
            flat = arr.reshape(-1)
            for idx in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                lp, _ = nll_loss_and_grads(model, x, y)
                flat[idx] = orig - h
                lm, _ = nll_loss_and_grads(model, x, y)
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                g = grad.reshape(-1)[idx]
                worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
    grads_ok = worst < 1e-4

    softmax_ok = (
        np.abs(np.exp(model.forward(rng.standard_normal((50, FEATURE_DIM)))).sum(axis=1) - 1.0).max()
        <= 1e-9
    )

    # Adadelta vs a scalar step-by-step reference
    w_ref, eg, eu = 3.0, 0.0, 0.0
    param, acc_g, acc_u = np.array([3.0]), np.zeros(1), np.zeros(1)
    adadelta_ok = True
    for _ in range(20):
        g = w_ref
        eg = ADADELTA_RHO * eg + (1 - ADADELTA_RHO) * g * g
        delta = -np.sqrt(eu + ADADELTA_EPS) / np.sqrt(eg + ADADELTA_EPS) * g
        eu = ADADELTA_RHO * eu + (1 - ADADELTA_RHO) * delta * delta
        w_ref += delta
        adadelta_step(param, np.array([param[0]]), acc_g, acc_u)
        if abs(param[0] - w_ref) > 1e-12:
            adadelta_ok = False
            break

    repo = make_synthetic_repository(
        SynthSpec(n_problems=12, n_points=60, dims=(2, 3), n_clusters=(2, 3), separation=10.0, seed=29)
    )
    sym_ds, _ = repo.problems[0]
    symmetric = all(
        predict_pair(model, sym_ds, i, j) == predict_pair(model, sym_ds, j, i)
        for i, j in ((0, 1), (3, 17), (40, 5))
    )

    wins = 0
    for repeat in range(10):
        split = sample_pair_splits(repo, seed=repeat, max_pairs=300)
        trained = train_mlp(split.meta_train, epochs=10, batch=250, seed=repeat)
        ev = evaluate_bsf(trained, split)
        if ev.acc_meta_et > ev.acc_majority_et:
            wins += 1
    pipeline_ok = wins >= 8

    ok = grads_ok and softmax_ok and adadelta_ok and symmetric and pipeline_ok
    announce(
        9,
        f"gradients ({worst:.1e}), softmax, adadelta, symmetry; meta-ET beat majority {wins}/10",
        ok,
    )


def test_criterion_10_cli_determinism(announce, tmp_path):
    from metaclust.cli import main

    repo = tmp_path / "repo"
    rc = main(["synth", "--problems", "8", "--points", "40", "--clusters-min", "2",
               "--clusters-max", "3", "--seed", "19", "--out", str(repo)])
    assert rc == 0

    commands = {
        "meta_k.csv": ["run", "meta-k", "--repo", str(repo), "--train-frac", "0.5",
                       "--repeats", "2", "--k-min", "2", "--k-max", "4", "--restarts", "3",
                       "--seed", "6"],
        "algo_select.csv": ["run", "algo-select", "--repo", str(repo), "--train-frac", "0.5",
                            "--repeats", "2", "--seed", "6"],
        "outliers.csv": ["run", "outliers", "--repo", str(repo), "--train-frac", "0.5",
                         "--repeats", "1", "--k-min", "2", "--k-max", "3", "--restarts", "2",
                         "--p-grid", "0,0.05", "--seed", "6"],
        "threshold_profile.csv": ["run", "fit-threshold", "--repo", str(repo), "--seed", "6"],
        "meta_scale.csv": ["run", "meta-scale", "--repo", str(repo), "--train-frac", "0.5",
                           "--repeats", "2", "--seed", "6"],
        "bsf.csv": ["run", "bsf", "--repo", str(repo), "--repeats", "2", "--max-pairs", "100",
                    "--epochs", "2", "--batch", "50", "--seed", "6"],
    }

    ok = True
    for csv_name, argv in commands.items():
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{csv_name}-{attempt}"
            rc = main(argv + ["--out", str(out)])
            assert rc == 0, csv_name
            outputs.append((out / csv_name).read_bytes())
        if outputs[0] != outputs[1]:
            ok = False
            break
    announce(10, "every pipeline rerun with identical flags is byte-identical", ok)
