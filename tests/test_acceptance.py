"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import _oracles as orc
from conftest import (engine_score, engine_side, net_from_events, oracle_args,
                      two_community_lines)
from m2dne.evaluate import (reconstruction_metrics, scale_prediction,
                            temporal_link_prediction, trend_forecast_report)
from m2dne.graph import (MacroSeries, parse_edge_list, snapshot_arrays,
                         split_by_time)
from m2dne.macro import (MacroParams, edge_affinity, fit_params, forecast_scale,
                         macro_loss, _predict_series)
from m2dne.micro import AttentionParams
from m2dne.micrograd import EventBatch, _pair_beta, batch_loss_and_grads
from m2dne.train import (TrainConfig, fit, gradient_check, init_state,
                         load_checkpoint, save_checkpoint)
from m2dne.util import Workspace


@contextmanager
def criterion(name):
    started = time.time()
    try:
        yield
    except Exception:
        print(f"{name}: FAIL ({time.time() - started:.1f}s)")
        raise
    print(f"{name}: PASS ({time.time() - started:.1f}s)")


def seeded_toy_net(seed, nodes, n_events, epochs):
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(n_events):
        a = int(rng.integers(nodes))
        b = int((a + 1 + rng.integers(nodes - 1)) % nodes)
        events.append((a, b, int(rng.integers(1, epochs + 1))))
    return net_from_events(sorted(events, key=lambda e: e[2]),
                           node_count=nodes)


def growth_counts(total, T, theta, warmup):
    """Event counts per epoch whose increments follow C / t**theta: arrivals
    at epoch tau + 1 are proportional to tau**-theta."""
    shape = 1.0 / np.arange(1, T, dtype=np.float64) ** theta
    C = (total - warmup) / shape.sum()
    counts = np.concatenate([[warmup], np.round(C * shape)]).astype(int)
    counts[0] += total - counts.sum()
    return counts


def test_a1_gradient_correctness():
    with criterion("A1 gradient correctness"):
        start = time.time()
        net = seeded_toy_net(17, nodes=12, n_events=60, epochs=8)
        config = TrainConfig(dim=8, history=3, negatives=2, epsilon=0.3,
                             seed=17)
        state = init_state(net.node_count, config)
        rng = np.random.default_rng(18)
        state.embeddings += rng.normal(0, 0.3, state.embeddings.shape)
        state.attention.decay_raw += rng.normal(0, 0.4, net.node_count)
        state.macro = MacroParams(0.2, 1.1, 1.3)
        report = gradient_check(state, net, config, tolerance=1e-4)
        assert report.passed, report.max_rel_err
        assert time.time() - start < 60.0


def test_a2_macro_parameter_recovery():
    with criterion("A2 macro parameter recovery"):
        start = time.time()
        rng = np.random.default_rng(29)
        V, M, T = 50, 200, 40
        U = rng.normal(0, 0.3, (V, 8))
        edge_src = rng.integers(0, V, M)
        edge_dst = (edge_src + 1 + rng.integers(0, V - 1, M)) % V
        true = MacroParams(zeta_raw=float(np.log(np.exp(0.8) - 1.0)),
                           gamma=1.2, theta=1.5)
        assert true.zeta == pytest.approx(0.8, rel=1e-12)
        n = 5.0 + np.arange(1, T + 1, dtype=np.float64)
        S = edge_affinity(U, edge_src, edge_dst)
        delta = _predict_series(S, n[:-1], np.arange(1, T), true)
        e = np.concatenate([[20.0], 20.0 + np.cumsum(delta)])
        series = MacroSeries(epochs=np.arange(1, T + 1, dtype=np.int64),
                             n=n, e=e, delta_e=delta)

        train_epochs = 3 * T // 4
        train = series.prefix(train_epochs)
        fitted = fit_params(train, S)   # from (sp(0), 1, 1)
        assert abs(fitted.zeta - 0.8) <= 0.1 * 0.8
        assert abs(fitted.gamma - 1.2) <= 0.1 * 1.2
        assert abs(fitted.theta - 1.5) <= 0.1 * 1.5

        forecast = forecast_scale(S, fitted, train, series.n[train_epochs:])
        rmse = float(np.sqrt(np.mean((forecast - series.e[train_epochs:]) ** 2)))
        assert rmse <= 0.01 * float(np.mean(series.delta_e))
        assert time.time() - start < 60.0


def test_a3_structure_learning():
    with criterion("A3 structure learning"):
        start = time.time()
        lines = two_community_lines(seed=101, nodes=60, n_events=2000,
                                    within=0.9, epochs=40,
                                    partners_per_node=4, bridges=10)
        import tempfile
        path = tempfile.mktemp(suffix=".tsv")
        with open(path, "w") as fh:
            fh.write(lines)
        net = parse_edge_list(path)
        train_net, test_net = split_by_time(net, 33)   # ~20% tail held out
        state, _ = fit(train_net, TrainConfig(seed=5))
        recon = reconstruction_metrics(state.embeddings, train_net, [100])
        link = temporal_link_prediction(state.embeddings, test_net, net,
                                        seed=5)
        assert recon.metrics["auc"] >= 0.90, recon.metrics
        assert link.metrics["accuracy"] >= 0.80, link.metrics
        assert time.time() - start < 300.0


def test_a4_attention_invariants():
    with criterion("A4 attention invariants"):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            d = int(rng.integers(2, 7))
            V = int(rng.integers(5, 12))
            U = rng.normal(0, 1.2, (V, d))
            att = rng.normal(0, 1.0, 2 * d)
            W = rng.normal(0, 1.0, (d, d))
            sw = rng.normal(0, 1.0, d)
            # drawn where the s-layer bias was, so the later draws are
            # unchanged
            rng.normal()
            params = AttentionParams(att_vector=att, local_weight=W,
                                     s_weight=sw,
                                     decay_raw=rng.normal(0, 1.0, V))
            t = int(rng.integers(3, 20))
            m_i = int(rng.integers(1, 5))
            m_j = int(rng.integers(1, 5))
            hist_i = [(int(rng.integers(V)), int(rng.integers(1, t)))
                      for _ in range(m_i)]
            hist_j = [(int(rng.integers(V)), int(rng.integers(1, t)))
                      for _ in range(m_j)]
            side_i = engine_side([0], hist_i, U, params, t)
            side_j = engine_side([1], hist_j, U, params, t)

            weights = side_i.alpha[0, 0, :m_i]
            assert abs(weights.sum() - 1.0) <= 1e-9
            assert np.all(weights > 0.0)
            # a singleton softmax is exactly 1 by definition
            assert np.all(weights < 1.0) if m_i > 1 else weights[0] == 1.0

            btil = np.stack([side_i.btil[:, :1], side_j.btil[:, :1]])
            nonempty = np.stack([side_i.nonempty, side_j.nonempty])
            beta, _ = _pair_beta(btil, nonempty)
            beta_swapped, _ = _pair_beta(btil[::-1], nonempty[::-1])
            assert abs(beta[0, 0, 0] + beta_swapped[0, 0, 0] - 1.0) <= 1e-12


def test_a5_oracle_equivalence():
    with criterion("A5 oracle equivalence"):
        rng = np.random.default_rng(55)
        V, d = 4, 3
        U = rng.normal(0, 0.7, (V, d))
        att = rng.normal(0, 0.6, 2 * d)
        W = rng.normal(0, 0.6, (d, d))
        sw = rng.normal(0, 0.6, d)
        # the oracle's s-layer bias: the engine has none, as it cancels in
        # the neighborhood weight beta
        sb = float(rng.normal())
        params = AttentionParams(att_vector=att, local_weight=W, s_weight=sw,
                                 decay_raw=rng.normal(0, 0.6, V))
        hist_i = [(2, 1), (3, 3)]
        hist_j = [(0, 2), (2, 4)]
        got = engine_score(0, 1, 5, hist_i, hist_j, U, params)
        want = orc.intensity_raw_oracle(0, 1, 5, hist_i, hist_j,
                                        *oracle_args(U, params, sb))
        assert abs(got - want) <= 1e-10

        events = [(0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 2), (0, 3, 3),
                  (1, 2, 4), (0, 1, 4), (2, 3, 5)]
        net = net_from_events(events, node_count=4)
        batch = EventBatch.take(net, snapshot_arrays(net, 2),
                                np.arange(len(net)))
        neg_src = (batch.dst[:, None] + [1, 2]) % V
        neg_dst = (batch.src[:, None] + [1, 3]) % V
        got, _, _ = batch_loss_and_grads(batch, np.stack([neg_src, neg_dst]),
                                         U, params, Workspace(),
                                         want_grads=False)
        want = orc.sampled_loss_oracle(events, orc.history_oracle(events, 2),
                                       neg_src.tolist(), neg_dst.tolist(),
                                       *oracle_args(U, params, sb))
        assert abs(got - want) <= 1e-10

        edge_src = np.array([0, 1, 2, 0])
        edge_dst = np.array([1, 2, 3, 3])
        # at n = 2 the prediction is 2 * zeta * r(t)
        mp = MacroParams(0.3, 1.2, 1.5)
        S = edge_affinity(U, edge_src, edge_dst)
        got = _predict_series(S, np.array([2.0]), np.array([4]), mp)[0]
        want = 2.0 * mp.zeta * orc.linking_rate_oracle(
            U.tolist(), list(zip(edge_src, edge_dst)), 4, 1.5)
        assert abs(got - want) <= 1e-10

        # at t = 1 the rate is S itself
        got = _predict_series(0.31, np.array([7.0]), np.array([1]), mp)[0]
        want = orc.predicted_new_edges_oracle(7, 0.31, mp.zeta, 1.2)
        assert abs(got - want) <= 1e-10

        n = np.array([2.0, 3.0, 4.0, 4.0])
        delta = np.array([2.0, 3.0, 1.0])
        e = np.concatenate([[2.0], 2.0 + np.cumsum(delta)])
        series = MacroSeries(epochs=np.arange(1, 5, dtype=np.int64), n=n,
                             e=e, delta_e=delta)
        mp = MacroParams(0.3, 1.2, 0.9)
        got = macro_loss(series, edge_affinity(U, edge_src, edge_dst), mp)
        want = orc.macro_loss_oracle(series.epochs.tolist(), n.tolist(),
                                     delta.tolist(), U.tolist(),
                                     list(zip(edge_src, edge_dst)),
                                     0.3, 1.2, 0.9)
        assert abs(got - want) <= 1e-10


def a6_network():
    counts = growth_counts(total=2000, T=40, theta=0.2, warmup=150)
    lines = two_community_lines(seed=707, nodes=60, n_events=2000, within=0.9,
                                partners_per_node=4, bridges=10,
                                epoch_counts=counts.tolist())
    import tempfile
    path = tempfile.mktemp(suffix=".tsv")
    with open(path, "w") as fh:
        fh.write(lines)
    return parse_edge_list(path)


def test_a6_ablation_direction():
    with criterion("A6 ablation direction"):
        net = a6_network()
        train_net, _ = split_by_time(net, 33)
        errors = {}
        for eps in (0.3, 0.0):
            state, _ = fit(train_net, TrainConfig(seed=11, epsilon=eps))
            report = scale_prediction(state, net, t_next=40, train_end=32)
            errors[eps] = report.metrics["absolute_error"]
        assert errors[0.3] <= 0.10 * errors[0.0], errors


def test_a7_determinism_and_persistence(tmp_path):
    with criterion("A7 determinism & persistence"):
        lines = two_community_lines(seed=19, nodes=20, n_events=300,
                                    epochs=12, partners_per_node=3, bridges=4)
        path = tmp_path / "edges.tsv"
        path.write_text(lines + "\n")
        net = parse_edge_list(path)
        config = TrainConfig(dim=8, epochs=6, batch_size=64, seed=23)

        state1, trace1 = fit(net, config)
        state2, trace2 = fit(net, config)
        assert trace1.micro == trace2.micro
        assert trace1.macro == trace2.macro
        assert trace1.total == trace2.total

        c1, c2 = tmp_path / "run1.ckpt", tmp_path / "run2.ckpt"
        save_checkpoint(state1, c1)
        save_checkpoint(state2, c2)
        assert c1.read_bytes() == c2.read_bytes()

        r1 = reconstruction_metrics(state1.embeddings, net, [10]).to_text()
        r2 = reconstruction_metrics(state2.embeddings, net, [10]).to_text()
        assert r1 == r2

        loaded = load_checkpoint(c1)
        c3 = tmp_path / "resaved.ckpt"
        save_checkpoint(loaded, c3)
        assert c3.read_bytes() == c1.read_bytes()


def test_a8_trend_forecast_improves_with_training_fraction():
    with criterion("A8 trend-forecast monotone improvement"):
        rng = np.random.default_rng(88)
        V, T = 30, 40
        counts = growth_counts(total=1600, T=T, theta=0.8, warmup=120)
        noise = 1.0 + 0.05 * rng.standard_normal(T - 1)
        counts[1:] = np.maximum(1, np.round(counts[1:] * noise)).astype(int)
        events = [(k, (k + 1) % V, 1) for k in range(V)]
        for _ in range(counts[0] - V):
            a = int(rng.integers(V))
            events.append((a, int((a + 1 + rng.integers(V - 1)) % V), 1))
        for tau in range(2, T + 1):
            for _ in range(counts[tau - 1]):
                a = int(rng.integers(V))
                events.append((a, int((a + 1 + rng.integers(V - 1)) % V), tau))
        net = net_from_events(events, node_count=V)

        state = init_state(V, TrainConfig(dim=8, seed=31))
        report_half, _ = trend_forecast_report(state, net, 0.5)
        report_threeq, _ = trend_forecast_report(state, net, 0.75)
        assert report_threeq.metrics["suffix_rmse"] <= \
            report_half.metrics["suffix_rmse"], (
                report_half.metrics, report_threeq.metrics)
