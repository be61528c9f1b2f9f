import copy
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (STEPPED_GROUPS, count_calls, net_from_events,
                      two_community_lines)
from m2dne.evaluate import reconstruction_metrics
from m2dne.graph import parse_edge_list, split_by_time
from m2dne.micro import draw_event_negatives
from m2dne import macro as macro_mod
from m2dne import train as train_mod
from m2dne.macro import (coupling_at, edge_affinity, fit_params, macro_loss,
                         macro_loss_and_grads, _predict_series)
from m2dne.micrograd import EventBatch, batch_loss_and_grads
from m2dne.train import (TrainConfig, TrainData, fit, gradient_check,
                         init_state, load_checkpoint, sample_batch,
                         save_checkpoint, step, _joint_grads, _joint_loss)
from m2dne.util import Workspace, substream

DATA = Path(__file__).parent / "data"


def toy_net(seed=0, nodes=10, n_events=60, epochs=8):
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(n_events):
        a = int(rng.integers(nodes))
        b = int((a + 1 + rng.integers(nodes - 1)) % nodes)
        events.append((a, b, int(rng.integers(1, epochs + 1))))
    return net_from_events(sorted(events, key=lambda e: e[2]),
                           node_count=nodes)


class TestInitState:
    def test_same_seed_bit_identical(self):
        cfg = TrainConfig(dim=8, seed=7)
        s1 = init_state(12, cfg)
        s2 = init_state(12, cfg)
        assert np.array_equal(s1.embeddings, s2.embeddings)
        assert np.array_equal(s1.attention.att_vector, s2.attention.att_vector)
        assert np.array_equal(s1.attention.local_weight, s2.attention.local_weight)

    def test_shapes_and_bounds(self):
        s = init_state(12, TrainConfig(dim=8, seed=1))
        assert s.embeddings.shape == (12, 8)
        assert np.max(np.abs(s.embeddings)) <= 0.5 / 8
        assert s.attention.att_vector.shape == (16,)
        assert np.all(s.attention.decay_raw == 0.0)
        assert s.macro.zeta_raw == 0.0
        assert s.macro.gamma == 1.0
        assert s.macro.theta == 1.0

    def test_mean_within_three_sigma(self):
        s = init_state(1000, TrainConfig(dim=10, seed=2))
        entries = s.embeddings.ravel()
        bound = 0.5 / 10
        sigma_mean = bound / np.sqrt(3.0) / np.sqrt(entries.size)
        assert abs(entries.mean()) < 3 * sigma_mean

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            init_state(1, TrainConfig(dim=4))


class TestSampleBatch:
    def test_uniform_frequencies(self):
        # distinct (src, dst) pairs, so every draw maps to one event
        events = [(k % 6, (k + 1 + k // 6) % 6, k // 6 + 1) for k in range(20)]
        events = [(a, b, t) for a, b, t in events if a != b][:18]
        net = net_from_events(events, node_count=6)
        data = TrainData(net, 2)
        rng = substream(5, "batch")
        counts = np.zeros(len(net))
        draws = 100_000
        for _ in range(20):
            batch = sample_batch(data, draws // 20, rng)
            match = (batch.src[:, None] == net.src[None, :]) \
                & (batch.dst[:, None] == net.dst[None, :])
            np.add.at(counts, match.argmax(axis=1), 1)
        p = 1.0 / len(net)
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 3 * sigma)

    def test_single_event_always_drawn(self):
        net = net_from_events([(0, 1, 1)])
        data = TrainData(net, 2)
        batch = sample_batch(data, 16, substream(0, "batch"))
        assert np.all(batch.src == 0) and np.all(batch.dst == 1)

    @pytest.mark.parametrize("E", [3, 4000])
    def test_extreme_uniforms_draw_first_and_last_event(self, E):
        # random() returns values in [0, 1) and the table ends at E / E = 1.0,
        # so the largest draw picks event E - 1 with no clamp
        class Extremes:
            def random(self, n):
                return np.array([0.0, np.nextafter(1.0, 0.0)])

        net = net_from_events([(k, k + 1, k + 1) for k in range(E)])
        batch = sample_batch(TrainData(net, 2), 2, Extremes())
        assert batch.src.tolist() == [0, E - 1]

    def test_batch_size_below_one_rejected(self):
        data = TrainData(toy_net(4), 3)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            sample_batch(data, 0, substream(9, "batch"))

    def test_fixed_seed_reproduces(self):
        net = toy_net(4)
        data = TrainData(net, 3)
        b1 = sample_batch(data, 32, substream(9, "batch"))
        b2 = sample_batch(data, 32, substream(9, "batch"))
        assert np.array_equal(b1.src, b2.src)
        assert np.array_equal(b1.dst, b2.dst)
        assert np.array_equal(b1.hist_age, b2.hist_age)


class TestStep:
    def _setup(self, epsilon=0.3, seed=11):
        net = toy_net(seed)
        cfg = TrainConfig(dim=4, history=2, negatives=2, epsilon=epsilon,
                          seed=seed, learning_rate=0.01)
        state = init_state(net.node_count, cfg)
        data = TrainData(net, cfg.history)
        batch = sample_batch(data, 32, substream(seed, "batch"))
        return net, cfg, state, data, batch

    def test_zero_rate_leaves_state_unchanged(self):
        net, cfg, state, data, batch = self._setup()
        cfg.learning_rate = 0.0
        before = copy.deepcopy(state)
        step(state, batch, data, cfg, substream(1, "negatives"))
        assert state.macro.gamma == before.macro.gamma
        for name in STEPPED_GROUPS:
            assert np.array_equal(state.param_groups()[name],
                                  before.param_groups()[name]), name

    def test_small_rate_does_not_increase_loss(self):
        net, cfg, state, data, batch = self._setup()
        cfg.learning_rate = 1e-7
        neg = draw_event_negatives(batch.src, batch.dst, data.table,
                                   cfg.negatives, substream(2, "negatives"))
        before = _joint_loss(state, batch, neg, data, cfg)
        step(state, batch, data, cfg, substream(2, "negatives"))
        after = _joint_loss(state, batch, neg, data, cfg)
        assert after <= before

    def test_single_step_matches_manual_update(self):
        # Adagrad by leading index on every group, from zero accumulators:
        # node rows of the embeddings, rows of local_weight, entries of the
        # other three groups
        net, cfg, state, data, batch = self._setup()
        neg = draw_event_negatives(batch.src, batch.dst, data.table,
                                   cfg.negatives, substream(3, "negatives"))
        _, grads, _ = _joint_grads(state, batch, neg, data, cfg)
        manual = copy.deepcopy(state)
        growth = (state.macro.zeta_raw, state.macro.gamma, state.macro.theta)
        assert sorted(grads) == sorted(STEPPED_GROUPS)
        assert data.adagrad == {}
        accs = {}
        for name, g in grads.items():
            ref = manual.param_groups()[name]
            rows = np.asarray(g, dtype=np.float64).reshape(len(g), -1)
            accs[name] = np.mean(rows * rows, axis=1)
            rows = rows / np.sqrt(accs[name] + 1e-10)[:, None]
            manual.param_groups()[name][...] = \
                ref - cfg.learning_rate * rows.reshape(ref.shape)
        step(state, batch, data, cfg, substream(3, "negatives"))
        for name in STEPPED_GROUPS:
            assert np.allclose(state.param_groups()[name],
                               manual.param_groups()[name], atol=1e-15), name
        assert sorted(data.adagrad) == sorted(STEPPED_GROUPS)
        for name, acc in accs.items():
            assert np.allclose(data.adagrad[name], acc, rtol=1e-15,
                               atol=0.0), name
        # the growth scalars are the epoch-boundary refit's, never stepped
        assert [np.float64(v).tobytes() for v in growth] == \
            [np.float64(v).tobytes() for v in (state.macro.zeta_raw,
                                               state.macro.gamma,
                                               state.macro.theta)]

    @pytest.mark.parametrize("entry", [1e200, 1.5e308])
    def test_adagrad_survives_an_overflowing_squared_norm(self, monkeypatch,
                                                          entry):
        # the entries are finite, but each leading index's sum of squares is
        # not, for node rows of the embeddings, rows of local_weight and
        # entries of decay_raw: the first step still moves every entry by
        # the rate, as Adagrad's g / sqrt(mean g^2) is 1 on a constant row;
        # the accumulators then read inf, so the next step moves nothing,
        # and neither warns
        net, cfg, state, data, batch = self._setup()
        names = ("embeddings", "local_weight", "decay_raw")
        before = {name: state.param_groups()[name].copy() for name in names}
        monkeypatch.setattr(
            train_mod, "_joint_grads",
            lambda *args: (0.0, {name: np.full(before[name].shape, entry)
                                 for name in names}, {"range_hits": 0}))
        step(state, batch, data, cfg, substream(4, "negatives"))
        after_first = {}
        for name in names:
            after_first[name] = state.param_groups()[name].copy()
            moved = before[name] - after_first[name]
            assert np.all(np.isfinite(after_first[name])), name
            assert moved == pytest.approx(
                np.full(moved.shape, cfg.learning_rate), rel=1e-12), name
            assert data.adagrad[name].shape == (len(before[name]),), name
            assert np.all(np.isinf(data.adagrad[name])), name
        step(state, batch, data, cfg, substream(5, "negatives"))
        for name in names:
            assert np.array_equal(state.param_groups()[name],
                                  after_first[name]), name

    @pytest.mark.parametrize("entry", [1e200, 1.5e308])
    def test_clip_survives_an_overflowing_squared_norm(self, monkeypatch,
                                                       entry):
        # the entries of an attention group are finite, but their sum of
        # squares is not (and at 1.5e308 nor is the norm itself): a group
        # norm clip once zeroed the whole group; with no clip, each row is
        # scaled by its own Adagrad factor and no group norm bounds the
        # move; the group starts at 0, so its entries' moves carry no
        # rounding and are all one value, the rate
        net, cfg, state, data, batch = self._setup()
        state.attention.local_weight[...] = 0.0
        before = state.attention.local_weight.copy()
        monkeypatch.setattr(
            train_mod, "_joint_grads",
            lambda *args: (0.0, {"local_weight": np.full(before.shape,
                                                         entry)},
                           {"range_hits": 0}))
        step(state, batch, data, cfg, substream(4, "negatives"))
        moved = before - state.attention.local_weight
        assert np.all(np.isfinite(moved))
        assert np.all(moved == moved.flat[0])
        assert moved.flat[0] == pytest.approx(cfg.learning_rate, rel=1e-12)
        assert np.linalg.norm(moved) == pytest.approx(
            cfg.learning_rate * np.sqrt(before.size), rel=1e-12)

    def test_nonfinite_gradient_names_group(self):
        # an infinite embedding makes every group's gradient nan; the first
        # group stepped is named
        net, cfg, state, data, batch = self._setup()
        state.embeddings[0, 0] = np.inf
        with np.errstate(all="ignore"), pytest.raises(
                FloatingPointError, match="group 'att_vector'"):
            step(state, batch, data, cfg, substream(4, "negatives"))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_names_its_group(self, monkeypatch, entry):
        # the norm of a group with one such entry is not finite, and its
        # entries are scanned; every group is checked before any is stepped,
        # so a finite group before it keeps its bits
        from m2dne import train as train_mod
        net, cfg, state, data, batch = self._setup()
        bad = np.zeros(state.embeddings.shape)
        bad[1, 2] = entry
        monkeypatch.setattr(
            train_mod, "_joint_grads",
            lambda *args: (0.0, {"s_weight": np.ones(cfg.dim),
                                 "embeddings": bad}, {"range_hits": 0}))

        def bits():
            return {name: np.asarray(val).tobytes()
                    for name, val in state.param_groups().items()}

        before = bits()
        with pytest.raises(FloatingPointError, match="group 'embeddings'"):
            step(state, batch, data, cfg, substream(4, "negatives"))
        assert bits() == before


class TestStepMemory:
    """Steps of one fit share the workspace in ``TrainData``: the first step
    allocates the working set, later ones only small temporaries. Shape of
    the fit-micro benchmark workload (V=1200, E=4000, B=512, K=5, h=5,
    d=64), where a step that allocated everything afresh peaked at
    31.8 MiB."""

    MiB = 2 ** 20

    def _step_peaks(self, steps):
        net = toy_net(seed=5, nodes=1200, n_events=4000, epochs=100)
        cfg = TrainConfig(dim=64, history=5, negatives=5, batch_size=512,
                          epsilon=0.0, seed=5)
        state = init_state(net.node_count, cfg)
        data = TrainData(net, cfg.history)
        batch_rng, neg_rng = substream(5, "batch"), substream(5, "negatives")
        peaks = []
        for _ in range(steps):
            batch = sample_batch(data, cfg.batch_size, batch_rng)
            tracemalloc.start()
            try:
                step(state, batch, data, cfg, neg_rng)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        return peaks

    def test_first_step_peak_within_dense_step(self):
        first, = self._step_peaks(1)
        assert first <= 32.8 * self.MiB

    def test_later_step_allocates_no_working_set(self):
        _, second = self._step_peaks(2)
        assert second <= 4 * self.MiB


class TestOneWorkspaceArray:
    """A step's event-level engine and then its macro coupling carve their
    buffers from the one array of ``TrainData.work``, so a coupled step
    holds the larger of their two needs, not their sum."""

    @staticmethod
    def _nbytes_after_step(net, epsilon, dim, batch_size, sampled=False):
        cfg = TrainConfig(dim=dim, history=5, negatives=5,
                          batch_size=batch_size, epsilon=epsilon, seed=8)
        state = init_state(net.node_count, cfg)
        data = TrainData(net, cfg.history)
        if sampled:
            sig_ref = np.empty(len(net))
            S = edge_affinity(state.embeddings, net.src, net.dst, out=sig_ref)
            state.macro = fit_params(data.series, S)
            data.coupling = coupling_at(data.series, state.macro, sig_ref,
                                        substream(8, "coupling"))
            assert data.coupling.sig_ref is not None
        batch = sample_batch(data, cfg.batch_size, substream(8, "batch"))
        step(state, batch, data, cfg, substream(8, "negatives"))
        return data.work.nbytes

    def test_sampled_coupling_fits_in_the_engine_array(self):
        # fit-joint's shape: the engine's array is 3.30 MiB, the sampled
        # coupling needs 1.5 MiB of it
        net = toy_net(seed=9, nodes=2000, n_events=4000, epochs=100)
        assert len(net) > 2 * macro_mod.COUPLING_SAMPLE
        coupled = self._nbytes_after_step(net, 0.3, 64, 64, sampled=True)
        assert coupled == self._nbytes_after_step(net, 0.0, 64, 64)
        assert coupled >= 2 * (2 + 1) * macro_mod.COUPLING_SAMPLE * 64 * 8

    def test_exact_coupling_needs_more_than_the_engine(self):
        # all E rows and positions of both endpoints: 4 E d entries
        net = toy_net(seed=9, nodes=60, n_events=800, epochs=12)
        need = 4 * len(net) * 8 * 8
        assert self._nbytes_after_step(net, 0.0, 8, 16) < need
        assert self._nbytes_after_step(net, 0.3, 8, 16) == need

    def test_shared_array_matches_fresh_arrays(self, monkeypatch, tmp_path,
                                               tmp_edges):
        net = parse_edge_list(tmp_edges(two_community_lines(
            seed=1, nodes=60, n_events=1200, epochs=12)))
        assert len(net) > 2 * macro_mod.COUPLING_SAMPLE
        cfg = TrainConfig(dim=8, epsilon=0.3, seed=42, epochs=2,
                          batch_size=64)

        def checkpoint_bytes(name):
            state, _ = fit(net, cfg)
            save_checkpoint(state, tmp_path / name)
            return (tmp_path / name).read_bytes()

        shared = checkpoint_bytes("shared.ckpt")
        fresh = []

        def with_fresh_workspace(module, name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                fresh.append(name)
                return real(*args[:-1], Workspace(), **kwargs)
            monkeypatch.setattr(module, name, call)

        with_fresh_workspace(train_mod, "batch_loss_and_grads")
        with_fresh_workspace(macro_mod, "macro_loss_and_grads")
        assert checkpoint_bytes("fresh.ckpt") == shared
        steps = 2 * math.ceil(len(net) / 64)
        assert sorted(set(fresh)) == ["batch_loss_and_grads",
                                      "macro_loss_and_grads"]
        assert len(fresh) == 2 * steps


class TestJointLoss:
    @staticmethod
    def _parts(seed, epsilon):
        """(_joint_grads' event loss and gradients, the engine's, the engine's
        embedding gradient plus epsilon times the exact coupling's, the joint
        loss and the scale loss) on one batch."""
        net, cfg, state, data, batch = TestStep()._setup(epsilon=epsilon)
        neg = draw_event_negatives(batch.src, batch.dst, data.table,
                                   cfg.negatives, substream(seed, "negatives"))
        micro, grads, _ = _joint_grads(state, batch, neg, data, cfg)
        engine, engine_grads, _ = batch_loss_and_grads(
            batch, neg, state.embeddings, state.attention, Workspace())
        coupled = engine_grads["embeddings"].copy()
        macro_loss_and_grads(coupling_at(data.series, state.macro),
                             state.embeddings, net.src, net.dst,
                             epsilon, coupled, Workspace())
        ma = macro_loss(data.series, edge_affinity(
            state.embeddings, net.src, net.dst), state.macro)
        joint = _joint_loss(state, batch, neg, data, cfg)
        return micro, grads, engine, engine_grads, coupled, joint, ma

    def test_epsilon_zero_equals_micro(self):
        micro, grads, engine, engine_grads, _, joint, _ = self._parts(
            6, epsilon=0.0)
        assert micro == engine == joint
        assert grads.keys() == engine_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], engine_grads[name]), name

    def test_composition(self):
        # the event-level loss and groups are the engine's; the joint loss
        # and the embedding gradient add epsilon times the coupling's
        micro, grads, engine, engine_grads, coupled, joint, ma = self._parts(
            7, epsilon=0.4)
        assert micro == engine
        assert joint == pytest.approx(engine + 0.4 * ma, rel=1e-12)
        assert sorted(grads) == sorted(STEPPED_GROUPS)
        assert not np.array_equal(coupled, engine_grads["embeddings"])
        for name in grads:
            want = coupled if name == "embeddings" else engine_grads[name]
            assert np.array_equal(grads[name], want), name


class TestFit:
    def test_loss_decreases_on_toy(self, tmp_edges):
        path = tmp_edges(two_community_lines(seed=2, nodes=20, n_events=400,
                                             epochs=10, partners_per_node=3,
                                             bridges=4))
        net = parse_edge_list(path)
        cfg = TrainConfig(dim=8, epochs=50, batch_size=128, seed=3)
        state, trace = fit(net, cfg)
        assert trace.total[-1] < trace.total[0]
        assert state.all_finite()

    def test_deterministic_traces(self, tmp_edges):
        path = tmp_edges(two_community_lines(seed=4, nodes=16, n_events=200,
                                             epochs=8, partners_per_node=3,
                                             bridges=3))
        net = parse_edge_list(path)
        cfg = TrainConfig(dim=4, epochs=5, batch_size=64, seed=9)
        _, t1 = fit(net, cfg)
        _, t2 = fit(net, cfg)
        assert t1.micro == t2.micro
        assert t1.macro == t2.macro
        assert t1.total == t2.total

    def test_epsilon_zero_freezes_macro_params(self, tmp_edges):
        path = tmp_edges(two_community_lines(seed=5, nodes=16, n_events=200,
                                             epochs=8, partners_per_node=3,
                                             bridges=3))
        net = parse_edge_list(path)
        cfg = TrainConfig(dim=4, epochs=4, batch_size=64, seed=2, epsilon=0.0)
        state, trace = fit(net, cfg)
        assert state.macro.zeta_raw == 0.0
        assert state.macro.gamma == 1.0
        assert state.macro.theta == 1.0
        assert len(set(trace.macro)) == 1   # reported column frozen

    def test_needs_two_epochs(self):
        net = net_from_events([(0, 1, 1), (1, 2, 1)])
        with pytest.raises(ValueError):
            fit(net, TrainConfig(dim=2, epochs=1))

    @pytest.mark.parametrize("epsilon", [0.0, 0.3])
    def test_one_epoch_split_half_rejected(self, epsilon):
        # the half's 9 events all fall in epoch 1, though it keeps the
        # parent's epoch count of 12
        half, _ = split_by_time(parse_edge_list(DATA / "toy_edges.tsv"), 2)
        assert len(half) == 9 and half.epoch_count == 12
        with pytest.raises(ValueError, match="at least 2 epochs"):
            fit(half, TrainConfig(dim=2, epochs=1, epsilon=epsilon))

    def test_empty_network_rejected(self):
        _, empty = split_by_time(net_from_events([(0, 1, 1), (1, 2, 2)]), 3)
        assert len(empty) == 0
        with pytest.raises(ValueError, match="at least 2 epochs"):
            fit(empty, TrainConfig(dim=2, epochs=1))

    def test_initial_state_of_another_dim_rejected(self):
        net = toy_net(3)
        state = init_state(net.node_count, TrainConfig(dim=8, seed=3))
        with pytest.raises(ValueError, match="dim 8, the config 32"):
            fit(net, TrainConfig(dim=32, epochs=1), initial_state=state)

    def test_initial_state_of_another_size_rejected(self):
        net = toy_net(3)
        state = init_state(net.node_count + 1, TrainConfig(dim=4, seed=3))
        with pytest.raises(ValueError, match="initial state does not match "
                                             "the network size"):
            fit(net, TrainConfig(dim=4, epochs=1), initial_state=state)

    def test_non_finite_parameters_after_training_rejected(self):
        # epsilon = 0 never refits the growth model, so a NaN there passes
        # every step and only the final check sees it
        net = toy_net(3)
        cfg = TrainConfig(dim=4, epochs=1, epsilon=0.0, batch_size=32, seed=3)
        state = init_state(net.node_count, cfg)
        state.macro.gamma = float("nan")
        with pytest.raises(FloatingPointError,
                           match="non-finite parameters after training"):
            fit(net, cfg, initial_state=state)

    def test_equivariant_under_relabeling(self):
        net = toy_net(8, nodes=9, n_events=70, epochs=7)
        cfg = TrainConfig(dim=4, history=2, negatives=2, epochs=3,
                          batch_size=32, seed=13)
        state0 = init_state(net.node_count, cfg)
        final, _ = fit(net, cfg, initial_state=state0)

        perm = np.random.default_rng(99).permutation(net.node_count)
        events_p = [(int(perm[s]), int(perm[d]), int(t))
                    for s, d, t in zip(net.src, net.dst, net.time)]
        net_p = net_from_events(events_p, node_count=net.node_count)
        state0_p = copy.deepcopy(state0)
        state0_p.embeddings[perm] = state0.embeddings
        state0_p.attention.decay_raw[perm] = state0.attention.decay_raw
        final_p, _ = fit(net_p, cfg, initial_state=state0_p)

        assert np.allclose(final_p.embeddings[perm], final.embeddings,
                           atol=1e-12)
        assert np.allclose(final_p.attention.decay_raw[perm],
                           final.attention.decay_raw, atol=1e-12)
        assert np.allclose(final_p.attention.local_weight,
                           final.attention.local_weight, atol=1e-12)
        assert final_p.macro.theta == pytest.approx(final.macro.theta,
                                                    abs=1e-12)

    def test_macro_params_track_their_optimum(self):
        net = toy_net(9, nodes=12, n_events=100, epochs=10)
        cfg = TrainConfig(dim=4, epsilon=0.3, epochs=6, batch_size=64, seed=1)
        state, _ = fit(net, cfg)
        data = TrainData(net, cfg.history)
        S = edge_affinity(state.embeddings, net.src, net.dst)
        best = fit_params(data.series, S)
        achieved = macro_loss(data.series, S, state.macro)
        optimal = macro_loss(data.series, S, best)
        assert achieved <= 1.05 * optimal + 1e-9

    def test_one_affinity_pass_per_refit(self, monkeypatch):
        # the growth model is refitted at the start and each epoch boundary
        net = toy_net(9, nodes=12, n_events=100, epochs=10)
        calls = count_calls(monkeypatch, macro_mod, "edge_affinity")
        fits = count_calls(monkeypatch, macro_mod, "fit_params")
        fit(net, TrainConfig(dim=4, epsilon=0.3, epochs=3, batch_size=64))
        assert len(calls) == 4      # the start and each epoch boundary
        assert len(fits) == 4
        calls.clear()
        fits.clear()
        fit(net, TrainConfig(dim=4, epsilon=0.0, epochs=3, batch_size=64))
        assert len(calls) == 1
        assert not fits

    @pytest.mark.parametrize("epsilon", [0.0, 0.3])
    def test_on_epoch_sees_copies_and_changes_no_byte(self, tmp_path,
                                                      epsilon):
        # the callback scores its copy over every event, then wipes it and
        # its trace; neither reaches the fit
        net = parse_edge_list(DATA / "toy_edges.tsv")
        cfg = TrainConfig(dim=8, epochs=3, batch_size=64, epsilon=epsilon)
        data = TrainData(net, cfg.history)
        batch = EventBatch.take(net, data.snapshots, np.arange(len(net)))
        neg_rng = np.random.default_rng(5)
        seen = []

        def on_epoch(epoch, state, trace):
            negatives = draw_event_negatives(batch.src, batch.dst, data.table,
                                             cfg.negatives, neg_rng)
            loss, _, _ = batch_loss_and_grads(
                batch, negatives, state.embeddings, state.attention,
                Workspace(), want_grads=False)
            assert math.isfinite(loss)
            seen.append((epoch, len(trace.epoch)))
            for arr in state.param_groups().values():
                if isinstance(arr, np.ndarray):
                    arr[...] = 0.0
            for column in (trace.epoch, trace.micro, trace.macro,
                           trace.total):
                column.clear()

        outputs = []
        for name, callback in (("plain", None), ("hooked", on_epoch)):
            state, trace = fit(net, cfg, on_epoch=callback)
            save_checkpoint(state, tmp_path / f"{name}.ckpt")
            trace.to_csv(tmp_path / f"{name}.csv")
            outputs.append([(tmp_path / f"{name}.{ext}").read_bytes()
                            for ext in ("ckpt", "csv")])
        assert outputs[0] == outputs[1]
        assert seen == [(1, 1), (2, 2), (3, 3)]


    @pytest.mark.parametrize("learning_rate", [1e3, 1e300])
    def test_divergence_names_the_vanished_affinity(self, learning_rate):
        # the embeddings fly apart until every training-edge sigmoid is 0,
        # which the first epoch boundary's refit rejects
        net = parse_edge_list(DATA / "toy_edges.tsv")
        cfg = TrainConfig(dim=8, epochs=2, epsilon=0.3,
                          learning_rate=learning_rate)
        with pytest.raises(ValueError, match="is not positive"):
            fit(net, cfg)

    @pytest.mark.parametrize("dim", [8, 64])
    def test_rate_one_moves_by_at_most_the_rate(self, dim):
        # the toy's B = 512 covers its 120 events, so an epoch is one step,
        # and a fit resumed from a state restarts its accumulators at zero:
        # after one epoch at rate 1, where the attention gradients are
        # large, the next step moves an entry of att_vector, s_weight or
        # decay_raw by at most the rate, and a row of the embeddings or
        # local_weight by at most rate * sqrt(width) in L2
        net = parse_edge_list(DATA / "toy_edges.tsv")
        cfg = TrainConfig(dim=dim, epochs=1, learning_rate=1.0, seed=7)
        warm, _ = fit(net, cfg)
        state, _ = fit(net, cfg, initial_state=warm)
        for name in STEPPED_GROUPS:
            moved = warm.param_groups()[name] - state.param_groups()[name]
            rows = moved.reshape(len(moved), -1)
            bound = cfg.learning_rate * math.sqrt(rows.shape[1])
            assert np.all(np.linalg.norm(rows, axis=1)
                          <= bound * (1 + 1e-12)), name
            assert np.any(rows), name
        state, trace = fit(net, TrainConfig(dim=dim, epochs=8,
                                            learning_rate=1.0, seed=7))
        assert state.all_finite()
        assert np.all(np.isfinite(trace.total))



class TestSampledCoupling:
    """fit samples the coupling when the network has more edges than the two
    draws of macro.COUPLING_SAMPLE edges touch, and differentiates through
    every edge otherwise; both modes run the one kernel,
    macro.macro_loss_and_grads, whose first argument is the coupling."""

    CFG = dict(dim=8, epsilon=0.3, seed=42)

    @staticmethod
    def _net(tmp_edges, seed=1, n_events=1200):
        return parse_edge_list(tmp_edges(two_community_lines(
            seed=seed, nodes=60, n_events=n_events, epochs=12)))

    def test_steps_sample_above_twice_the_sample_size(self, monkeypatch,
                                                      tmp_edges):
        net = self._net(tmp_edges)
        assert len(net) > 2 * macro_mod.COUPLING_SAMPLE
        calls = count_calls(monkeypatch, macro_mod, "macro_loss_and_grads")
        fit(net, TrainConfig(epochs=2, batch_size=64, **self.CFG))
        assert len(calls) == 2 * math.ceil(len(net) / 64)
        assert all(args[0].sig_ref is not None for args in calls)

    @pytest.mark.parametrize("n_events", [100, 800])
    def test_steps_are_exact_up_to_twice_the_sample_size(
            self, monkeypatch, tmp_edges, n_events):
        net = self._net(tmp_edges, n_events=n_events)
        assert len(net) <= 2 * macro_mod.COUPLING_SAMPLE
        calls = count_calls(monkeypatch, macro_mod, "macro_loss_and_grads")
        fit(net, TrainConfig(epochs=2, batch_size=64, **self.CFG))
        assert len(calls) == 2 * math.ceil(len(net) / 64)
        assert all(args[0].sig_ref is None for args in calls)

    def test_sampled_fit_is_deterministic(self, tmp_edges):
        net = self._net(tmp_edges, seed=2)
        cfg = TrainConfig(epochs=2, batch_size=64, **self.CFG)
        a, trace_a = fit(net, cfg)
        b, trace_b = fit(net, cfg)
        assert a.embeddings.tobytes() == b.embeddings.tobytes()
        assert trace_a.total == trace_b.total

    @staticmethod
    def _record_couplings(monkeypatch):
        """Wrap macro.coupling_at; returns the list of (coupling, copy of its
        sig_ref at the refit) it collects."""
        couplings = []
        real = macro_mod.coupling_at

        def record(*args):
            coupling = real(*args)
            couplings.append((coupling, coupling.sig_ref.copy()))
            return coupling

        monkeypatch.setattr(macro_mod, "coupling_at", record)
        return couplings

    def test_anchor_keeps_its_own_sigmoids(self, monkeypatch, tmp_edges):
        couplings = self._record_couplings(monkeypatch)
        fit(self._net(tmp_edges), TrainConfig(epochs=2, batch_size=64,
                                              **self.CFG))
        assert len(couplings) == 3
        for coupling, at_refit in couplings:
            assert np.array_equal(coupling.sig_ref, at_refit)

    def test_anchor_identity(self, monkeypatch, tmp_edges):
        # each refit is the growth fit's optimum at S_ref = mean(sig_ref),
        # where the scale loss's slope 2 (a S_ref - b) is 0, so the sampled
        # dL/dS = 2 a (S - S_ref) needs no b
        couplings = self._record_couplings(monkeypatch)
        net = self._net(tmp_edges)
        assert len(net) > 2 * macro_mod.COUPLING_SAMPLE
        fit(net, TrainConfig(epochs=2, batch_size=64, **self.CFG))
        assert len(couplings) == 3
        for coupling, _ in couplings:
            assert coupling.a * float(np.mean(coupling.sig_ref)) \
                == pytest.approx(coupling.b, rel=1e-12)

    def test_coupling_off_control(self, monkeypatch, tmp_edges):
        # the growth refit stays on in both runs; only the per-step coupling
        # kernel is zeroed. Reconstruction AUC after 3 epochs, coupled against
        # uncoupled: exact at 800 events and 38 steps, 0.879/0.628 (0.884/
        # 0.650 and 0.884/0.632 on seeds 2 and 3); sampled at 1200 events and
        # 30 steps, 0.881/0.609 (0.889/0.635 and 0.884/0.603). The coupling's
        # edge over none shrinks with the step count on this network and
        # reverses by about 75 steps.
        kernel = macro_mod.macro_loss_and_grads
        for n_events, batch_size, sampled in ((800, 64, False),
                                              (1200, 128, True)):
            net = self._net(tmp_edges, n_events=n_events)
            cfg = TrainConfig(epochs=3, batch_size=batch_size, **self.CFG)

            def auc(state):
                return reconstruction_metrics(state.embeddings, net,
                                              (10,)).metrics["auc"]

            monkeypatch.setattr(macro_mod, "macro_loss_and_grads", kernel)
            calls = count_calls(monkeypatch, macro_mod,
                                "macro_loss_and_grads")
            coupled, _ = fit(net, cfg)
            assert calls
            assert all((args[0].sig_ref is not None) == sampled
                       for args in calls)
            monkeypatch.setattr(macro_mod, "macro_loss_and_grads",
                                lambda *args: 0.0)
            uncoupled, _ = fit(net, cfg)
            assert auc(coupled) >= auc(uncoupled) + 0.15, n_events


class TestCheckpoint:
    def _state(self, V=12, d=8, seed=3):
        state = init_state(V, TrainConfig(dim=d, seed=seed))
        state.macro.gamma = 1.25
        return state

    def _with_reserved(self, tmp_path, name, value):
        """A saved V = 12, d = 8 state with ``value`` in the reserved slot,
        the former s-layer bias."""
        path = tmp_path / name
        save_checkpoint(self._state(), path)
        blob = bytearray(path.read_bytes())
        at = 26 + 8 * (12 * 8 + 2 * 8 + 8 * 8 + 8)
        assert blob[at:at + 8] == bytes(8)
        blob[at:at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        return path

    def test_round_trip_bit_exact(self, tmp_path):
        state = self._state()
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(state, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(loaded.embeddings, state.embeddings)
        assert loaded.macro.gamma == state.macro.gamma

    def test_documented_size(self, tmp_path):
        state = self._state(V=12, d=8)
        path = tmp_path / "c.ckpt"
        save_checkpoint(state, path)
        V, d = 12, 8
        expected = 6 + 4 + 16 + 8 * (V * d + 2 * d + d * d + d + 1 + V + 3)
        assert path.stat().st_size == expected

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        state = self._state()
        save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(self._state(), path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [
        lambda blob: blob[:-9], lambda blob: blob + b"\0",
        lambda blob: blob[:8], lambda blob: blob[:20],
        lambda blob: blob[:10] + struct.pack("<QQ", 2**40, 8)],
        ids=["body-cut", "byte-appended", "header-cut-8", "header-cut-20",
             "header-claims-2**40-rows"])
    def test_wrong_size_names_the_byte_count(self, tmp_path, cut):
        # a header cut short or claiming 2**40 rows is rejected before any
        # parameter is read
        path = tmp_path / "cut.ckpt"
        save_checkpoint(self._state(), path)
        path.write_bytes(cut(path.read_bytes()))
        size = path.stat().st_size
        with pytest.raises(ValueError, match=f"^truncated or oversized "
                                             f"checkpoint: {size} bytes, "):
            load_checkpoint(path)

    def test_load_holds_the_parameters_once(self, tmp_path):
        path = tmp_path / "big.ckpt"
        save_checkpoint(self._state(V=16_384, d=64), path)
        params = path.stat().st_size - 26
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.embeddings.shape == (16_384, 64)
        assert peak < 1.25 * params

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "ver.ckpt"
        save_checkpoint(self._state(), path)
        blob = bytearray(path.read_bytes())
        blob[6] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [-0.375, 7.0, 1e300])
    def test_reserved_value_is_discarded(self, tmp_path, value):
        # the bias cancelled in beta, so dropping it is exact
        zero = tmp_path / "zero.ckpt"
        save_checkpoint(self._state(), zero)
        loaded = load_checkpoint(self._with_reserved(tmp_path, "set.ckpt",
                                                     value))
        want = load_checkpoint(zero).param_groups()
        for name, got in loaded.param_groups().items():
            assert np.array_equal(got, want[name]), name
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(loaded, resaved)
        assert resaved.read_bytes() == zero.read_bytes()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_reserved_value_rejected(self, tmp_path, value):
        path = self._with_reserved(tmp_path, "bad.ckpt", value)
        with pytest.raises(ValueError, match="non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("V,d,match", [(1, 8, "node count 1"),
                                           (0, 8, "node count 0"),
                                           (20, 0, "dim 0")])
    def test_header_out_of_range_rejected(self, tmp_path, V, d, match):
        # all-zero blocks of the size the header implies
        path = tmp_path / "hand.ckpt"
        path.write_bytes(b"M2DNE\x00" + struct.pack("<IQQ", 1, V, d)
                         + bytes(8 * (V * d + d * d + 3 * d + V + 4)))
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"dim": 0}, {"history": 0}, {"negatives": -1}, {"epsilon": 1.5},
        {"epsilon": -0.1}, {"batch_size": 0}, {"learning_rate": -1.0},
        {"epochs": 0}, {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
