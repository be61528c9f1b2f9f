"""Evaluation protocols over learned embeddings: reconstruction, node
classification, temporal recommendation, temporal link prediction, scale
prediction and trend forecasting.

Reports are plain text (``task<TAB>metric<TAB>value`` plus a ``# config:``
header) and byte-identical across runs for a fixed seed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import macro as macro_mod
from .graph import LabelTable, MacroSeries, TemporalNetwork, compute_macro_series
from .logreg import LogisticRegression, f1_scores
from .train import ModelState
from .util import resolve_workers, substream


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


@dataclass
class MetricReport:
    task: str
    metrics: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        for v in self.metrics.values():
            if isinstance(v, float) and not np.isfinite(v):
                raise ValueError(f"non-finite metric in report {self.task!r}")

    def to_text(self) -> str:
        header = "# config: " + " ".join(
            f"{k}={_fmt(v)}" for k, v in self.config.items())
        lines = [header]
        for name, value in self.metrics.items():
            lines.append(f"{self.task}\t{name}\t{_fmt(value)}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def proximity(u_i: np.ndarray, u_j: np.ndarray) -> float:
    """Negative squared distance; larger means a likelier edge."""
    diff = np.asarray(u_i, dtype=np.float64) - np.asarray(u_j, dtype=np.float64)
    return float(-np.dot(diff, diff))


# ---------------------------------------------------------------------------
# network reconstruction

def _decode_pairs(flat: np.ndarray, V: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices over the upper triangle (i < j) to (i, j)."""
    row_counts = np.arange(V - 1, 0, -1, dtype=np.int64)
    ends = np.cumsum(row_counts)
    i = np.searchsorted(ends, flat, side="right")
    starts = ends - row_counts
    j = flat - starts[i] + i + 1
    return i.astype(np.int64), j

def _pair_scores(embeddings: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 workers: int) -> np.ndarray:
    def score(chunk):
        a, b = chunk
        diff = embeddings[lo[a:b]] - embeddings[hi[a:b]]
        return -np.einsum("nd,nd->n", diff, diff)

    n = lo.shape[0]
    if workers <= 1 or n < 4 * workers:
        return score((0, n))
    bounds = np.linspace(0, n, workers + 1, dtype=np.int64)
    chunks = list(zip(bounds[:-1], bounds[1:]))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(score, chunks)))


def _auc_rank_sum(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks on ties."""
    n_pos = int(positive.sum())
    n_neg = int(positive.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both positive and negative pairs")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    pos = 0
    while pos < scores.size:
        end = pos
        while end + 1 < scores.size and sorted_scores[end + 1] == sorted_scores[pos]:
            end += 1
        ranks[order[pos:end + 1]] = 0.5 * (pos + end) + 1.0
        pos = end + 1
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def reconstruction_metrics(embeddings: np.ndarray, net: TemporalNetwork,
                           k_list, sample_fraction: float = 1.0,
                           rng: np.random.Generator | None = None,
                           workers: int | None = None) -> MetricReport:
    """Precision@K and AUC of ranking node pairs against the static edges.

    Ties in the ranking break by ascending (min id, max id) so reports are
    deterministic.
    """
    V = embeddings.shape[0]
    total = V * (V - 1) // 2
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must be in (0, 1]")
    if sample_fraction < 1.0:
        if rng is None:
            raise ValueError("sampling candidate pairs requires an rng")
        count = max(1, int(round(sample_fraction * total)))
        flat = np.sort(rng.choice(total, size=count, replace=False))
    else:
        flat = np.arange(total, dtype=np.int64)
    lo, hi = _decode_pairs(flat, V)
    scores = _pair_scores(embeddings, lo, hi, resolve_workers(workers))

    edges = net.static_edges()
    positive = np.fromiter(((int(a), int(b)) in edges for a, b in zip(lo, hi)),
                           dtype=bool, count=lo.shape[0])

    order = np.lexsort((hi, lo, -scores))
    metrics = {}
    for k in k_list:
        k = int(k)
        if not 1 <= k <= lo.shape[0]:
            raise ValueError(f"K={k} exceeds the {lo.shape[0]} candidate pairs")
        metrics[f"precision@{k}"] = float(positive[order[:k]].mean())
    metrics["auc"] = _auc_rank_sum(scores, positive)
    return MetricReport(task="reconstruction", metrics=metrics,
                        config={"task": "reconstruction",
                                "candidates": int(lo.shape[0]),
                                "sample_fraction": sample_fraction,
                                "k_list": ",".join(str(int(k)) for k in k_list)})


# ---------------------------------------------------------------------------
# node classification

def _stratified_split(labels: np.ndarray, n_classes: int, ratio: float,
                      rng: np.random.Generator):
    train_idx, test_idx = [], []
    for c in range(n_classes):
        idx = np.where(labels == c)[0]
        if idx.size == 0:
            continue
        perm = rng.permutation(idx)
        n_train = min(idx.size, max(1, int(round(ratio * idx.size))))
        train_idx.extend(perm[:n_train].tolist())
        test_idx.extend(perm[n_train:].tolist())
    if not test_idx:
        raise ValueError(f"ratio {ratio} leaves an empty test split")
    return np.asarray(train_idx, dtype=np.int64), np.asarray(test_idx, dtype=np.int64)


def node_classification(embeddings: np.ndarray, labels: LabelTable,
                        train_ratios, seed: int) -> MetricReport:
    """Macro/Micro-F1 of the built-in softmax classifier per training ratio.

    Splits are stratified per class (at least one training sample each), drawn
    from the eval-splits stream of ``seed``.
    """
    if labels.n_classes < 2:
        raise ValueError("classification needs at least 2 classes")
    rng = substream(seed, "eval-splits")
    X = embeddings[labels.node_ids]
    y = labels.labels
    metrics = {}
    for ratio in train_ratios:
        train_idx, test_idx = _stratified_split(y, labels.n_classes,
                                                float(ratio), rng)
        clf = LogisticRegression().fit(X[train_idx], y[train_idx],
                                       labels.n_classes)
        pred = clf.predict(X[test_idx])
        macro, micro = f1_scores(y[test_idx], pred, labels.n_classes)
        metrics[f"macro_f1@{_fmt(float(ratio))}"] = macro
        metrics[f"micro_f1@{_fmt(float(ratio))}"] = micro
    return MetricReport(task="classification", metrics=metrics,
                        config={"task": "classification", "seed": seed,
                                "ratios": ",".join(_fmt(float(r)) for r in train_ratios),
                                "classes": labels.n_classes,
                                "labeled_nodes": len(labels)})


# ---------------------------------------------------------------------------
# temporal node recommendation

def temporal_recommendation(embeddings: np.ndarray, test_net: TemporalNetwork,
                            k_list) -> MetricReport:
    """Recall@K / Precision@K of ranking future neighbors for every node with
    held-out events. Candidates are all non-self nodes (historical neighbors
    are not excluded; noted in the report header)."""
    V = embeddings.shape[0]
    truth: dict[int, set] = {}
    for s, d in zip(test_net.src.tolist(), test_net.dst.tolist()):
        truth.setdefault(s, set()).add(d)
        truth.setdefault(d, set()).add(s)
    if not truth:
        raise ValueError("no test events to recommend against")
    ks = [int(k) for k in k_list]
    if any(k < 1 for k in ks):
        raise ValueError("every K must be >= 1")
    recall_sums = {k: 0.0 for k in ks}
    prec_sums = {k: 0.0 for k in ks}
    queries = sorted(truth)
    for q in queries:
        diff = embeddings - embeddings[q]
        scores = -np.einsum("nd,nd->n", diff, diff)
        scores[q] = -np.inf
        order = np.lexsort((np.arange(V), -scores))
        if order[-1] == q:
            ranked = order[:-1]
        else:
            ranked = order[order != q]
        hits = truth[q]
        for k in ks:
            top = ranked[:k]
            got = sum(1 for cand in top.tolist() if cand in hits)
            recall_sums[k] += got / len(hits)
            prec_sums[k] += got / k
    n_q = len(queries)
    metrics = {}
    for k in ks:
        metrics[f"recall@{k}"] = recall_sums[k] / n_q
        metrics[f"precision@{k}"] = prec_sums[k] / n_q
    return MetricReport(task="recommendation", metrics=metrics,
                        config={"task": "recommendation",
                                "k_list": ",".join(str(k) for k in ks),
                                "queries": n_q,
                                "candidates": "all-non-self-nodes"})


# ---------------------------------------------------------------------------
# temporal link prediction

def _sample_non_edges(V: int, count: int, existing: set,
                      rng: np.random.Generator) -> list[tuple[int, int]]:
    out = []
    seen = set()
    attempts = 0
    limit = 1000 * max(count, 1)
    while len(out) < count:
        attempts += 1
        if attempts > limit:
            raise ValueError("could not sample enough non-edges")
        a = int(rng.integers(V))
        b = int(rng.integers(V))
        if a == b:
            continue
        pair = (min(a, b), max(a, b))
        if pair in existing or pair in seen:
            continue
        seen.add(pair)
        out.append(pair)
    return out


def temporal_link_prediction(embeddings: np.ndarray, test_net: TemporalNetwork,
                             full_net: TemporalNetwork, seed: int,
                             folds: int = 5) -> MetricReport:
    """Cross-validated accuracy/F1 of a binary classifier on |u_i - u_j|
    features, held-out edges against uniformly sampled never-linked pairs."""
    positives = sorted(test_net.static_edges())
    if len(positives) < 2:
        raise ValueError("need at least 2 held-out edges")
    rng = substream(seed, "eval-splits")
    existing = full_net.static_edges()
    negatives = _sample_non_edges(embeddings.shape[0], len(positives),
                                  existing, rng)

    pairs = positives + negatives
    y = np.concatenate([np.ones(len(positives), dtype=np.int64),
                        np.zeros(len(negatives), dtype=np.int64)])
    idx_a = np.array([p[0] for p in pairs])
    idx_b = np.array([p[1] for p in pairs])
    X = np.abs(embeddings[idx_a] - embeddings[idx_b])

    folds = max(2, min(folds, len(positives), len(negatives)))
    fold_of = np.empty(y.shape[0], dtype=np.int64)
    for cls in (0, 1):
        members = np.where(y == cls)[0]
        fold_of[rng.permutation(members)] = np.arange(members.size) % folds
    accs, f1s = [], []
    for f in range(folds):
        test_mask = fold_of == f
        clf = LogisticRegression().fit(X[~test_mask], y[~test_mask], 2)
        pred = clf.predict(X[test_mask])
        truth = y[test_mask]
        accs.append(float(np.mean(pred == truth)))
        tp = int(np.sum((pred == 1) & (truth == 1)))
        fp = int(np.sum((pred == 1) & (truth == 0)))
        fn = int(np.sum((pred == 0) & (truth == 1)))
        denom = 2 * tp + fp + fn
        f1s.append(2.0 * tp / denom if denom else 0.0)
    return MetricReport(task="link_prediction",
                        metrics={"accuracy": float(np.mean(accs)),
                                 "f1": float(np.mean(f1s))},
                        config={"task": "link_prediction", "seed": seed,
                                "positives": len(positives), "folds": folds})


# ---------------------------------------------------------------------------
# scale prediction and trend forecast

def _observed_n(series_full: MacroSeries, horizon: np.ndarray) -> np.ndarray:
    return series_full.n[np.asarray(horizon, dtype=np.int64) - 1]


def _count_affine_pairs(embeddings: np.ndarray, chunk: int = 512) -> int:
    """Pairs i < j whose inner product is positive (score threshold 0.5)."""
    V = embeddings.shape[0]
    count = 0
    for start in range(0, V, chunk):
        rows = embeddings[start:start + chunk]
        dots = rows @ embeddings.T
        for r in range(rows.shape[0]):
            i = start + r
            count += int(np.sum(dots[r, i + 1:] > 0.0))
    return count


def scale_prediction(state: ModelState, net_full: TemporalNetwork,
                     t_next: int, train_end: int | None = None,
                     n_mode: str = "observed") -> MetricReport:
    """Cumulative edge count predicted at epoch ``t_next``.

    The model path rolls the growth equation forward from ``train_end`` (the
    last epoch the state was fitted on; defaults to ``t_next`` - 1). A
    threshold baseline counting positively-scored pairs is reported for
    comparison with static scoring methods.
    """
    series_full = compute_macro_series(net_full)
    T = int(series_full.epochs[-1])
    if train_end is None:
        train_end = t_next - 1
    if not 1 <= train_end < t_next:
        raise ValueError("t_next must lie after the training window")
    if t_next > T:
        raise ValueError(f"t_next={t_next} beyond the observed series (T={T})")
    series_train = series_full.prefix(train_end)
    mask = net_full.time <= train_end
    edge_src, edge_dst = net_full.src[mask], net_full.dst[mask]
    horizon = np.arange(train_end + 1, t_next + 1, dtype=np.int64)
    if n_mode == "observed":
        n_future = _observed_n(series_full, horizon)
    elif n_mode == "linear":
        n_future = macro_mod.linear_node_forecast(series_train, horizon)
    else:
        raise ValueError(f"unknown n_mode {n_mode!r}")
    forecast = macro_mod.forecast_scale(state.embeddings, state.macro,
                                        series_train, edge_src, edge_dst,
                                        horizon, n_future)
    predicted = int(np.floor(forecast[-1] + 0.5))
    actual = int(series_full.e[t_next - 1])
    baseline = _count_affine_pairs(state.embeddings)
    return MetricReport(
        task="scale_prediction",
        metrics={"predicted_edges": predicted,
                 "actual_edges": actual,
                 "absolute_error": abs(predicted - actual),
                 "baseline_predicted_edges": baseline,
                 "baseline_absolute_error": abs(baseline - actual)},
        config={"task": "scale_prediction", "t_next": int(t_next),
                "train_end": int(train_end), "n_mode": n_mode})


def trend_forecast_report(state: ModelState, net_full: TemporalNetwork,
                          train_fraction: float, n_mode: str = "observed"):
    """Refit the growth parameters on a training prefix (embeddings frozen)
    and forecast the remaining epochs.

    Returns (report, rows); rows are (epoch, predicted, observed) cumulative
    counts for the suffix. The report carries the suffix RMSE and the
    training-prefix sum of squared residuals at the fitted parameters.
    """
    series_full = compute_macro_series(net_full)
    T = len(series_full.epochs)
    train_epochs = int(np.floor(train_fraction * T))
    if train_epochs < 2:
        raise ValueError(f"train_fraction={train_fraction} leaves "
                         f"{train_epochs} < 2 training epochs")
    series_train = series_full.prefix(train_epochs)
    mask = net_full.time <= train_epochs
    edge_src, edge_dst = net_full.src[mask], net_full.dst[mask]
    params = macro_mod.fit_params(series_train, state.embeddings,
                                  edge_src, edge_dst)
    horizon = np.arange(train_epochs + 1, T + 1, dtype=np.int64)
    if horizon.size:
        if n_mode == "observed":
            n_future = _observed_n(series_full, horizon)
        elif n_mode == "linear":
            n_future = macro_mod.linear_node_forecast(series_train, horizon)
        else:
            raise ValueError(f"unknown n_mode {n_mode!r}")
        forecast = macro_mod.forecast_scale(state.embeddings, params,
                                            series_train, edge_src, edge_dst,
                                            horizon, n_future)
        observed = series_full.e[horizon - 1]
        rmse = float(np.sqrt(np.mean((forecast - observed) ** 2)))
        rows = [(int(t), float(p), float(o))
                for t, p, o in zip(horizon, forecast, observed)]
    else:
        rmse = 0.0
        rows = []
    report = MetricReport(
        task="trend_forecast",
        metrics={"suffix_rmse": rmse, "horizon_epochs": int(horizon.size),
                 "fit_sse": macro_mod.macro_loss(series_train, state.embeddings,
                                                 edge_src, edge_dst, params),
                 "fitted_zeta": params.zeta, "fitted_gamma": params.gamma,
                 "fitted_theta": params.theta},
        config={"task": "trend_forecast", "train_fraction": float(train_fraction),
                "train_epochs": train_epochs, "n_mode": n_mode})
    return report, rows


def write_forecast_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,predicted_cumulative_edges,observed_cumulative_edges\n")
        for epoch, pred, obs in rows:
            fh.write("%d,%.12g,%.12g\n" % (epoch, pred, obs))
