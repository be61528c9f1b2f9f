import math

import numpy as np
import pytest

from conftest import net_from_events
from m2dne.evaluate import (MetricReport, _auc_rank_sum, node_classification,
                            proximity, reconstruction_metrics, scale_prediction,
                            temporal_link_prediction, temporal_recommendation,
                            trend_forecast_report, write_forecast_csv)
from m2dne.graph import LabelTable, compute_macro_series, split_by_time
from m2dne.macro import MacroParams, macro_loss
from m2dne.micro import AttentionParams
from m2dne.train import ModelState
from m2dne.util import substream

ZETA_RAW_ONE = math.log(math.e - 1.0)


def make_state(U, macro=None):
    V, d = U.shape
    att = AttentionParams(att_vector=np.zeros(2 * d),
                          local_weight=np.zeros((d, d)),
                          s_weight=np.zeros(d), s_bias=0.0,
                          decay_raw=np.zeros(V))
    return ModelState(embeddings=np.asarray(U, dtype=np.float64),
                      attention=att, macro=macro or MacroParams())


class TestProximity:
    def test_identical_max(self):
        u = np.array([1.0, 2.0])
        assert proximity(u, u) == 0.0

    def test_monotone_in_distance(self):
        base = np.zeros(3)
        near = np.array([0.1, 0.0, 0.0])
        far = np.array([2.0, 0.0, 0.0])
        assert proximity(base, near) > proximity(base, far)

    def test_hand_sorted_pairs(self):
        U = np.array([[0.0], [0.1], [1.0], [1.15], [3.0], [3.2]])
        pairs = [(0, 1), (2, 3), (4, 5), (1, 2), (0, 2), (1, 3)]
        scores = [proximity(U[a], U[b]) for a, b in pairs]
        assert sorted(scores, reverse=True) == scores


class TestReconstruction:
    def _toy(self):
        # line geometry: edges (0,1), (2,3), (1,2); (4,5) is a close non-edge
        U = np.array([[0.0], [0.1], [1.0], [1.15], [3.0], [3.2]])
        net = net_from_events([(0, 1, 1), (2, 3, 1), (1, 2, 2)],
                              node_count=6)
        return U, net

    def test_hand_counted_precision(self):
        U, net = self._toy()
        rep = reconstruction_metrics(U, net, [1, 3])
        assert rep.metrics["precision@1"] == 1.0
        assert rep.metrics["precision@3"] == pytest.approx(2.0 / 3.0)
        assert rep.metrics["auc"] == pytest.approx(35.0 / 36.0)

    def test_perfect_separation_auc(self):
        U = np.array([[0.0], [0.01], [5.0], [5.01], [10.0], [10.01]])
        net = net_from_events([(0, 1, 1), (2, 3, 1), (4, 5, 2)], node_count=6)
        rep = reconstruction_metrics(U, net, [3])
        assert rep.metrics["auc"] == 1.0
        assert rep.metrics["precision@3"] == 1.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(8)
        V = 150
        U = rng.normal(0, 1, (V, 8))
        events = []
        seen = set()
        while len(events) < 300:
            a, b = rng.integers(V), rng.integers(V)
            if a == b or (min(a, b), max(a, b)) in seen:
                continue
            seen.add((min(a, b), max(a, b)))
            events.append((int(a), int(b), len(events) % 7 + 1))
        net = net_from_events(events, node_count=V)
        rep = reconstruction_metrics(U, net, [100])
        assert abs(rep.metrics["auc"] - 0.5) < 0.02

    def test_k_too_large_rejected(self):
        U, net = self._toy()
        with pytest.raises(ValueError):
            reconstruction_metrics(U, net, [16])

    def test_sampled_candidates(self):
        U, net = self._toy()
        rep = reconstruction_metrics(U, net, [2], sample_fraction=0.8,
                                     rng=substream(0, "eval-splits"))
        assert rep.config["candidates"] == 12

    def test_rank_sum_equals_enumeration(self):
        rng = np.random.default_rng(9)
        scores = rng.integers(0, 5, 400) / 4.0      # heavy ties
        positive = rng.random(400) < 0.3
        pos, neg = scores[positive], scores[~positive]
        wins = 0.0
        for sp in pos:
            wins += float(np.sum(sp > neg)) + 0.5 * float(np.sum(sp == neg))
        want = wins / (pos.size * neg.size)
        assert _auc_rank_sum(scores, positive) == pytest.approx(want, abs=1e-12)

    def test_workers_do_not_change_report(self, monkeypatch):
        U, net = self._toy()
        base = reconstruction_metrics(U, net, [3]).to_text()
        monkeypatch.setenv("M2DNE_THREADS", "4")
        assert reconstruction_metrics(U, net, [3]).to_text() == base


class TestNodeClassification:
    def test_linearly_separable_perfect(self):
        rng = np.random.default_rng(10)
        U = np.vstack([rng.normal(0, 0.2, (10, 4)),
                       rng.normal(8, 0.2, (10, 4))])
        labels = LabelTable(node_ids=np.arange(20),
                            labels=np.repeat([0, 1], 10), n_classes=2)
        rep = node_classification(U, labels, [0.5], seed=3)
        assert rep.metrics["micro_f1@0.5"] == 1.0
        assert rep.metrics["macro_f1@0.5"] == 1.0

    def test_single_class_rejected(self):
        U = np.random.default_rng(0).normal(size=(8, 3))
        labels = LabelTable(node_ids=np.arange(8),
                            labels=np.zeros(8, dtype=np.int64), n_classes=1)
        with pytest.raises(ValueError):
            node_classification(U, labels, [0.5], seed=0)

    def test_identical_embeddings_majority(self):
        U = np.tile(np.array([0.3, -0.4, 0.2]), (20, 1))
        y = np.array([0] * 14 + [1] * 6)
        labels = LabelTable(node_ids=np.arange(20), labels=y, n_classes=2)
        rep = node_classification(U, labels, [0.5], seed=1)
        assert rep.metrics["micro_f1@0.5"] == pytest.approx(0.7)

    def test_report_deterministic(self):
        rng = np.random.default_rng(11)
        U = rng.normal(size=(30, 4))
        labels = LabelTable(node_ids=np.arange(30),
                            labels=rng.integers(0, 3, 30), n_classes=3)
        r1 = node_classification(U, labels, [0.4, 0.8], seed=7).to_text()
        r2 = node_classification(U, labels, [0.4, 0.8], seed=7).to_text()
        assert r1 == r2


class TestTemporalRecommendation:
    def test_perfect_single_neighbor_queries(self):
        U = np.array([[0.0], [0.05], [5.0], [5.05]])
        test_net = net_from_events([(0, 1, 1), (2, 3, 1)], node_count=4)
        rep = temporal_recommendation(U, test_net, [1])
        assert rep.metrics["recall@1"] == 1.0
        assert rep.metrics["precision@1"] == 1.0

    def test_exhaustive_k_full_recall(self):
        rng = np.random.default_rng(12)
        U = rng.normal(size=(6, 3))
        test_net = net_from_events([(0, 1, 1), (2, 4, 1), (3, 5, 2)],
                                   node_count=6)
        rep = temporal_recommendation(U, test_net, [5])
        assert rep.metrics["recall@5"] == 1.0

    def test_hand_ranked_lists(self):
        U = np.array([[0.0], [1.0], [2.5], [4.5], [10.0]])
        test_net = net_from_events([(0, 1, 1), (0, 2, 1), (3, 4, 2)],
                                   node_count=5)
        rep = temporal_recommendation(U, test_net, [1, 2])
        assert rep.metrics["recall@1"] == pytest.approx(0.5)
        assert rep.metrics["precision@1"] == pytest.approx(0.6)
        assert rep.metrics["recall@2"] == pytest.approx(0.6)
        assert rep.metrics["precision@2"] == pytest.approx(0.4)

    def test_no_test_events_rejected(self):
        U = np.zeros((3, 2))
        empty = net_from_events([(0, 1, 1)], node_count=3)
        _, test = split_by_time(empty, 2)
        with pytest.raises(ValueError):
            temporal_recommendation(U, test, [1])

    def test_bounds_and_recall_monotone_in_k(self):
        rng = np.random.default_rng(16)
        U = rng.normal(size=(10, 3))
        events = [(int(a), int((a + 1 + b) % 10), int(t)) for a, b, t in
                  zip(rng.integers(0, 10, 25), rng.integers(0, 9, 25),
                      rng.integers(1, 4, 25))]
        test_net = net_from_events([e for e in events if e[0] != e[1]],
                                   node_count=10)
        ks = [1, 2, 4, 9]
        rep = temporal_recommendation(U, test_net, ks)
        recalls = [rep.metrics[f"recall@{k}"] for k in ks]
        for name, value in rep.metrics.items():
            assert 0.0 <= value <= 1.0, name
        assert all(a <= b for a, b in zip(recalls, recalls[1:]))


class TestTemporalLinkPrediction:
    def test_perfectly_separable_geometry(self):
        V = 12
        U = np.zeros((V, 4))
        for k in range(V // 2):
            center = np.zeros(4)
            center[0] = 10.0 * k          # clusters far apart on a line
            U[2 * k] = center
            U[2 * k + 1] = center + 0.01
        events = [(2 * k, 2 * k + 1, k % 3 + 1) for k in range(V // 2)]
        net = net_from_events(events, node_count=V)
        rep = temporal_link_prediction(U, net, net, seed=4)
        assert rep.metrics["accuracy"] == 1.0
        assert rep.metrics["f1"] == 1.0

    def test_no_signal_near_half(self):
        rng = np.random.default_rng(15)
        V = 40
        U = rng.normal(size=(V, 6))
        events, seen = [], set()
        while len(events) < 120:
            a, b = int(rng.integers(V)), int(rng.integers(V))
            if a == b or (min(a, b), max(a, b)) in seen:
                continue
            seen.add((min(a, b), max(a, b)))
            events.append((a, b, len(events) % 5 + 1))
        net = net_from_events(events, node_count=V)
        rep = temporal_link_prediction(U, net, net, seed=5)
        assert abs(rep.metrics["accuracy"] - 0.5) <= 0.05

    def test_negatives_reject_existing_edges(self):
        from m2dne.evaluate import _sample_non_edges
        existing = {(0, 1), (1, 2), (2, 3)}
        out = _sample_non_edges(6, 8, existing, substream(1, "eval-splits"))
        assert not (set(out) & existing)
        assert len(set(out)) == 8

    def test_too_few_edges_rejected(self):
        U = np.zeros((4, 2))
        net = net_from_events([(0, 1, 1)], node_count=4)
        with pytest.raises(ValueError):
            temporal_link_prediction(U, net, net, seed=0)


def growth_law_net(V=30, T=20, warmup=40, theta=0.8, gamma=0.5, seed=15):
    """Event counts per epoch follow the growth equation with affinity 0.5
    (identical embeddings), unit zeta, and the given exponents."""
    rng = np.random.default_rng(seed)
    base = 0.5 * V * (V - 1) ** gamma
    counts = [warmup] + [int(np.floor(base / tau ** theta + 0.5))
                         for tau in range(1, T)]
    events = []
    for k in range(V):
        events.append((k, (k + 1) % V, 1))          # every node present at t=1
    for _ in range(warmup - V):
        a = int(rng.integers(V))
        b = int((a + 1 + rng.integers(V - 1)) % V)
        events.append((a, b, 1))
    for tau in range(2, T + 1):
        for _ in range(counts[tau - 1]):
            a = int(rng.integers(V))
            b = int((a + 1 + rng.integers(V - 1)) % V)
            events.append((a, b, tau))
    net = net_from_events(events, node_count=V)
    state = make_state(np.tile(np.linspace(0.1, 0.4, 5), (V, 1)),
                       MacroParams(ZETA_RAW_ONE, gamma, theta))
    return net, state


class TestScalePrediction:
    def test_generator_within_one_percent(self):
        net, state = growth_law_net()
        rep = scale_prediction(state, net, t_next=20, train_end=16)
        assert rep.metrics["absolute_error"] <= 0.01 * rep.metrics["actual_edges"]

    def test_huge_theta_predicts_training_count(self):
        net, state = growth_law_net()
        state.macro.theta = 50.0
        rep = scale_prediction(state, net, t_next=20, train_end=16)
        from m2dne.graph import compute_macro_series
        series = compute_macro_series(net)
        assert rep.metrics["predicted_edges"] == int(series.e[15])

    def test_t_next_inside_training_rejected(self):
        net, state = growth_law_net()
        with pytest.raises(ValueError):
            scale_prediction(state, net, t_next=10, train_end=16)

    def test_baseline_counts_positive_dot_pairs(self):
        U = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.2], [0.0, 0.0]])
        net = net_from_events([(0, 1, 1), (1, 2, 2), (2, 3, 3)], node_count=4)
        state = make_state(U)
        rep = scale_prediction(state, net, t_next=3, train_end=2)
        # only (0, 1) has positive inner product
        assert rep.metrics["baseline_predicted_edges"] == 1


class TestTrendForecast:
    def test_rows_monotone_and_rmse_small_on_generator(self):
        net, state = growth_law_net()
        report, rows = trend_forecast_report(state, net, 0.75)
        preds = [r[1] for r in rows]
        assert all(a <= b for a, b in zip(preds, preds[1:]))
        assert report.metrics["suffix_rmse"] <= 6.0

    def test_fit_sse_reported_and_repeatable(self):
        net, state = growth_law_net()
        report, _ = trend_forecast_report(state, net, 0.75)
        series = compute_macro_series(net).prefix(report.config["train_epochs"])
        mask = net.time <= report.config["train_epochs"]
        start_sse = macro_loss(series, state.embeddings, net.src[mask],
                               net.dst[mask], MacroParams())
        assert 0.0 <= report.metrics["fit_sse"] < start_sse
        again, _ = trend_forecast_report(state, net, 0.75)
        assert again.to_text() == report.to_text()

    def test_zero_horizon_empty_table(self, tmp_path):
        net, state = growth_law_net()
        report, rows = trend_forecast_report(state, net, 1.0)
        assert rows == []
        out = tmp_path / "fc.csv"
        write_forecast_csv(rows, out)
        assert out.read_text() == \
            "epoch,predicted_cumulative_edges,observed_cumulative_edges\n"

    def test_too_small_fraction_rejected(self):
        net, state = growth_law_net()
        with pytest.raises(ValueError):
            trend_forecast_report(state, net, 0.01)


class TestMetricReport:
    def test_text_format(self):
        rep = MetricReport(task="demo", metrics={"auc": 0.5, "hits": 3},
                           config={"seed": 7, "k_list": "1,2"})
        text = rep.to_text()
        lines = text.splitlines()
        assert lines[0] == "# config: seed=7 k_list=1,2"
        assert lines[1] == "demo\tauc\t0.5"
        assert lines[2] == "demo\thits\t3"

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            MetricReport(task="x", metrics={"bad": float("nan")})
