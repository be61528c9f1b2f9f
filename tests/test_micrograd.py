import math
import tracemalloc

import numpy as np
import pytest

import _oracles as orc
from conftest import (STEPPED_GROUPS, count_calls, net_from_events,
                      oracle_args, stacked_rows)
from m2dne import macro as macro_mod
from m2dne import micrograd
from m2dne.graph import snapshot_arrays
from m2dne.micro import AttentionParams, NegativeTable, draw_event_negatives
from m2dne.micrograd import EventBatch, batch_loss_and_grads
from m2dne.train import (TrainConfig, TrainData, compare_grads, gradient_check,
                         init_state)
from m2dne.util import Workspace, substream


def random_net(seed, nodes=10, n_events=80, epochs=12):
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(n_events):
        a = int(rng.integers(nodes))
        b = int((a + 1 + rng.integers(nodes - 1)) % nodes)
        events.append((a, b, int(rng.integers(1, epochs + 1))))
    return net_from_events(sorted(events, key=lambda e: e[2]),
                           node_count=nodes)


def random_state(net, d, seed):
    rng = np.random.default_rng(seed)
    U = rng.normal(0, 0.5, (net.node_count, d))
    att = rng.normal(0, 0.5, 2 * d)
    W = rng.normal(0, 0.5, (d, d))
    sw = rng.normal(0, 0.5, d)
    # drawn where the s-layer bias was, so the later draws are unchanged
    rng.normal()
    P = AttentionParams(att_vector=att, local_weight=W, s_weight=sw,
                        decay_raw=rng.normal(0, 0.5, net.node_count))
    return U, P


def full_batch(net, h):
    return EventBatch.take(net, snapshot_arrays(net, h), np.arange(len(net)))


def net_events(net):
    return list(zip(net.src.tolist(), net.dst.tolist(), net.time.tolist()))


def oracle_loss(net, h, negatives, U, P):
    """Sampled loss of the full event stream, histories included, computed
    by the oracles alone."""
    events = net_events(net)
    return orc.sampled_loss_oracle(events, orc.history_oracle(events, h),
                                   negatives[0].tolist(),
                                   negatives[1].tolist(), *oracle_args(U, P))


def engine_loss(batch, negatives, U, P):
    loss, _, _ = batch_loss_and_grads(batch, negatives, U, P, Workspace(),
                                      want_grads=False)
    return loss


class TestEngineAgainstScalarPath:
    @pytest.mark.parametrize("seed,k", [(0, 0), (1, 1), (2, 3), (3, 5)])
    def test_loss_matches(self, seed, k):
        net = random_net(seed)
        U, P = random_state(net, 4, seed + 100)
        batch = full_batch(net, h=3)
        table = NegativeTable(net.degrees(),
                              order=net.first_appearance_order())
        rng = np.random.default_rng(seed)
        negatives = draw_event_negatives(batch.src, batch.dst, table, k, rng)
        loss = engine_loss(batch, negatives, U, P)
        want = oracle_loss(net, 3, negatives, U, P)
        assert loss == pytest.approx(want, abs=1e-9)

    def test_positive_scores_match_intensity_op(self):
        net = random_net(7)
        U, P = random_state(net, 3, 17)
        batch = full_batch(net, h=2)
        zero = np.zeros((2, len(batch), 0), dtype=np.int64)
        loss = engine_loss(batch, zero, U, P)
        events = net_events(net)
        total = 0.0
        for (i, j, t), (hi, hj) in zip(events, orc.history_oracle(events, 2)):
            lam = orc.intensity_raw_oracle(i, j, t, hi, hj, *oracle_args(U, P))
            total += math.log1p(math.exp(-abs(lam))) + max(-lam, 0.0)
        assert loss == pytest.approx(total, abs=1e-9)

    def test_zero_scores_give_ln2(self):
        net = net_from_events([(0, 1, 1)], node_count=2)
        U = np.zeros((2, 3))
        _, P = random_state(net, 3, 5)
        batch = full_batch(net, h=2)
        zero = np.zeros((2, 1, 0), dtype=np.int64)
        loss, _, _ = batch_loss_and_grads(batch, zero, U, P, Workspace(),
                                          want_grads=False)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)


class TestSampledLossReplay:
    def test_same_stream_reproduces(self):
        net = random_net(11)
        U, P = random_state(net, 4, 12)
        batch = full_batch(net, h=3)
        table = NegativeTable(net.degrees(),
                              order=net.first_appearance_order())
        losses = []
        for _ in range(2):
            neg = draw_event_negatives(batch.src, batch.dst, table, 4,
                                       substream(9, "negatives"))
            losses.append(engine_loss(batch, neg, U, P))
        assert losses[0] == losses[1]

    def test_replayed_draws_match_scalar_oracle(self):
        net = random_net(13)
        U, P = random_state(net, 4, 14)
        batch = full_batch(net, h=3)
        table = NegativeTable(net.degrees(),
                              order=net.first_appearance_order())
        loss = engine_loss(batch, draw_event_negatives(
            batch.src, batch.dst, table, 2, substream(3, "negatives")), U, P)
        negatives = draw_event_negatives(batch.src, batch.dst, table, 2,
                                         substream(3, "negatives"))
        want = oracle_loss(net, 3, negatives, U, P)
        assert loss == pytest.approx(want, abs=1e-9)

    def test_negatives_never_equal_kept_endpoint(self):
        net = random_net(15)
        batch = full_batch(net, h=2)
        table = NegativeTable(net.degrees(),
                              order=net.first_appearance_order())
        negatives = draw_event_negatives(batch.src, batch.dst, table, 5,
                                         substream(1, "negatives"))
        assert not np.any(negatives[0] == batch.dst[:, None])
        assert not np.any(negatives[1] == batch.src[:, None])


class TestGradients:
    # K = 0 is the event alone; K = 5 folds six pairs onto each column 0
    @pytest.mark.parametrize("negatives", [0, 2, 5])
    def test_gradient_check_passes(self, negatives):
        net = random_net(21, nodes=8, n_events=40, epochs=8)
        cfg = TrainConfig(dim=4, history=2, negatives=negatives, epsilon=0.3,
                          seed=3)
        state = init_state(net.node_count, cfg)
        rng = np.random.default_rng(40)
        state.embeddings += rng.normal(0, 0.3, state.embeddings.shape)
        state.attention.decay_raw += rng.normal(0, 0.4, net.node_count)
        report = gradient_check(state, net, cfg, tolerance=1e-4)
        assert report.passed, report.max_rel_err
        assert sorted(report.max_rel_err) == sorted(STEPPED_GROUPS)

    def test_epsilon_zero_isolates_macro_groups(self, monkeypatch):
        # with epsilon 0 neither the analytic gradients nor the probed loss
        # touch the scale loss, and the gradients are the engine's
        net = random_net(22, nodes=8, n_events=30, epochs=6)
        cfg = TrainConfig(dim=3, history=2, negatives=1, epsilon=0.0, seed=4)
        state = init_state(net.node_count, cfg)
        scale_calls = [count_calls(monkeypatch, macro_mod, name)
                       for name in ("macro_loss", "macro_loss_and_grads")]
        report = gradient_check(state, net, cfg, tolerance=1e-4)
        assert report.passed
        assert sorted(report.max_rel_err) == sorted(STEPPED_GROUPS)
        data = TrainData(net, cfg.history)
        from m2dne.train import _joint_grads
        batch = full_batch(net, cfg.history)
        negatives = draw_event_negatives(
            batch.src, batch.dst, data.table, cfg.negatives,
            substream(4, "negatives"))
        _, grads, _ = _joint_grads(state, batch, negatives, data, cfg)
        _, engine, _ = batch_loss_and_grads(batch, negatives,
                                            state.embeddings, state.attention,
                                            Workspace())
        assert scale_calls == [[], []]
        assert grads.keys() == engine.keys()
        for name in STEPPED_GROUPS:
            assert np.array_equal(grads[name], engine[name]), name

    def test_harness_detects_wrong_gradient(self):
        analytic = {"w": np.array([1.0, 2.0])}
        ok = compare_grads(analytic, {"w": np.array([1.0, 2.0])}, 1e-4)
        assert ok.passed
        bad = compare_grads(analytic, {"w": np.array([1.0, 2.1])}, 1e-4)
        assert not bad.passed


class TestDuplicateIndices:
    def test_repeated_node_gradient_matches_central_differences(self):
        # node 0 is the source of events 0 and 1, a negative of event 2 and
        # a history entry of event 3: its gradient sums over many slots
        batch = EventBatch(
            np.array([0, 0, 3, 5]), np.array([1, 2, 4, 6]),
            *stacked_rows([[(2, 3), (3, 4)], [(1, 2)], [(6, 1)],
                           [(0, 4), (4, 5)]],
                          [[(0, 4)], [(3, 1), (0, 3)], [], [(0, 2)]],
                          t=np.array([5, 5, 6, 6])))
        negatives = np.array([[[4, 6], [5, 3], [0, 5], [2, 1]],
                              [[6, 2], [4, 1], [6, 0], [3, 0]]])
        rng = np.random.default_rng(41)
        U = rng.normal(0, 0.4, (7, 4))
        _, P = random_state(net_from_events([(0, 1, 1)], node_count=7), 4, 42)
        _, grads, _ = batch_loss_and_grads(batch, negatives, U, P,
                                           Workspace())

        step = 1e-5
        numeric = np.zeros_like(U)
        for pos in np.ndindex(U.shape):
            orig = U[pos]
            U[pos] = orig + step
            up = engine_loss(batch, negatives, U, P)
            U[pos] = orig - step
            down = engine_loss(batch, negatives, U, P)
            U[pos] = orig
            numeric[pos] = (up - down) / (2 * step)
        report = compare_grads({"embeddings": grads["embeddings"]},
                               {"embeddings": numeric}, tolerance=1e-4)
        assert report.passed, report.max_rel_err
        assert np.abs(grads["embeddings"][0]).max() > 1e-3


class TestMemory:
    def test_peak_stays_below_four_pair_history_tensors(self):
        # a (B, 1 + K, h, d) float64 tensor is the size of one pair-history
        # product; the engine never builds one
        B, K, h, d, V = 128, 8, 16, 32, 400
        rng = np.random.default_rng(5)

        def history():
            nodes = rng.integers(V, size=(B, h))
            ages = 60 - np.sort(rng.integers(1, 50, size=(B, h)), axis=1)
            length = rng.integers(0, h + 1, size=B)
            return (nodes, np.where(np.arange(h) < length[:, None], ages, 0),
                    length)

        batch = EventBatch(rng.integers(V, size=B), rng.integers(V, size=B),
                           *map(np.stack, zip(history(), history())))
        U = rng.normal(0, 0.3, (V, d))
        P = AttentionParams(rng.normal(0, 0.3, 2 * d),
                            rng.normal(0, 0.3, (d, d)), rng.normal(0, 0.3, d),
                            rng.normal(0, 0.3, V))
        negatives = rng.integers(V, size=(2, B, K))
        tracemalloc.start()
        try:
            batch_loss_and_grads(batch, negatives, U, P, Workspace())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * B * (1 + K) * h * d * 8

    @staticmethod
    def _workspace(B, K=5, h=5, d=64, V=1200):
        rng = np.random.default_rng(6)
        batch, negatives = random_batch(rng, B, K, h, V)
        U = rng.normal(0, 0.3, (V, d))
        P = AttentionParams(rng.normal(0, 0.3, 2 * d),
                            rng.normal(0, 0.3, (d, d)), rng.normal(0, 0.3, d),
                            rng.normal(0, 0.3, V))
        work = Workspace()
        batch_loss_and_grads(batch, negatives, U, P, work)
        return work

    def test_workspace_of_a_fit_micro_batch(self):
        # the benchmark's fit-micro shape: one array of the node table's two
        # (V, d) regions, 1.17 MiB, and one block of 132 events, 3.98 MiB
        # (16.6 MiB when the per-slot buffers were sized by the batch)
        work = self._workspace(512)
        assert work.nbytes <= 5.16 * 2 ** 20

    def test_whole_stream_batch_holds_one_block(self):
        # gradient_check's shape on the fit-micro input passes all 4000
        # events as one batch: the workspace is the node table and one block,
        # as for a batch of 512 (121.8 MiB when it was sized by the batch)
        C, h, d, V = 6, 5, 64, 1200
        per_event = 16 * micrograd._row_floats(C, h, d)
        block = micrograd.BLOCK_BYTES // per_event * per_event
        work = self._workspace(4000)
        assert work.nbytes == 2 * V * d * 8 + block
        assert work.nbytes == self._workspace(512).nbytes


def set_block_events(monkeypatch, events, C, h, d):
    """Budget the engine's blocks to ``events`` events of C centers, history
    width h and dimension d."""
    monkeypatch.setattr(micrograd, "BLOCK_BYTES",
                        16 * events * micrograd._row_floats(C, h, d))


@pytest.fixture
def one_event_blocks(monkeypatch):
    """Every engine call runs one event per block."""
    monkeypatch.setattr(micrograd, "BLOCK_BYTES", 1)


class TestBlocks:
    """A batch runs over blocks of events: per-event scores do not depend on
    the block, so the loss and the range hits are bit-equal at every block
    size; the gradients' scatters and the s_weight sum take the blocks in
    turn, so they move by summation order only."""

    @staticmethod
    def _inputs(K=3, h=4):
        rng = np.random.default_rng(57)
        V, d, B = 30, 6, 16
        U, P = random_state(net_from_events([(0, 1, 1)], node_count=V), d, 58)
        U *= 5.0                        # some scores pass RANGE_BOUND
        return (*random_batch(rng, B, K, h, V), U, P)

    @pytest.mark.parametrize("events", [1, 3, 5, 16])
    def test_blocks_match_one_block(self, monkeypatch, events):
        batch, negatives, U, P = self._inputs()
        want_loss, want, want_stats = batch_loss_and_grads(
            batch, negatives, U, P, Workspace())
        assert 0 < want_stats["range_hits"] < want_stats["pairs"]
        set_block_events(monkeypatch, events, 4, 4, 6)
        sides = count_calls(monkeypatch, micrograd, "_hist_vs_centers")
        loss, grads, stats = batch_loss_and_grads(batch, negatives, U, P,
                                                  Workspace())
        # 16 events in blocks of `events`, the last one ragged
        assert [2 * min(events, 16 - a) for a in range(0, 16, events)] == \
            [args[0].Uc.shape[0] for args in sides]
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert stats == want_stats
        assert grads.keys() == want.keys()
        for name in STEPPED_GROUPS:
            scale = np.abs(want[name]).max()
            assert scale > 0.0, name
            assert np.abs(grads[name] - want[name]).max() <= 1e-12 * scale, \
                name

    def test_loss_only_matches_across_blocks(self, monkeypatch):
        batch, negatives, U, P = self._inputs()
        want = batch_loss_and_grads(batch, negatives, U, P, Workspace(),
                                    want_grads=False)
        set_block_events(monkeypatch, 3, 4, 4, 6)
        got = batch_loss_and_grads(batch, negatives, U, P, Workspace(),
                                   want_grads=False)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1:] == want[1:]

    @pytest.mark.parametrize("epsilon", [0.0, 0.3])
    def test_gradient_check_over_blocks(self, monkeypatch, epsilon):
        # gradient_check passes the 40-event stream as one batch, here run
        # as blocks of 7 events (the last one 5)
        net = random_net(21, nodes=8, n_events=40, epochs=8)
        cfg = TrainConfig(dim=4, history=2, negatives=2, epsilon=epsilon,
                          seed=3)
        state = init_state(net.node_count, cfg)
        rng = np.random.default_rng(40)
        state.embeddings += rng.normal(0, 0.3, state.embeddings.shape)
        state.attention.decay_raw += rng.normal(0, 0.4, net.node_count)
        set_block_events(monkeypatch, 7, 3, 2, 4)
        sides = count_calls(monkeypatch, micrograd, "_hist_vs_centers")
        report = gradient_check(state, net, cfg, tolerance=1e-4)
        assert report.passed, report.max_rel_err
        assert [args[0].Uc.shape[0] for args in sides[:6]] == \
            [14] * 5 + [10]


def random_batch(rng, B, K, h, V, lengths=None):
    """A random batch of B events over V nodes and its (2, B, K) negatives,
    K per endpoint slot. The histories have width h, or widths h =
    (source's, target's) zero-padded to the wider, as
    graph.SnapshotArrays.take pads; their lengths are random unless given, and
    their ages are those of times in [1, 50) at t = 60."""
    h_src, h_dst = h if isinstance(h, tuple) else (h, h)
    width = max(h_src, h_dst)

    def history(w):
        length = rng.integers(0, w + 1, size=B) if lengths is None \
            else np.full(B, lengths)
        nodes, ages = np.zeros((2, B, width), dtype=np.int64)
        nodes[:, :w] = rng.integers(V, size=(B, w))
        ages[:, :w] = 60 - np.sort(rng.integers(1, 50, size=(B, w)), axis=1)
        ages[np.arange(width) >= length[:, None]] = 0
        return nodes, ages, length

    batch = EventBatch(rng.integers(V, size=B), rng.integers(V, size=B),
                       *map(np.stack, zip(history(h_src), history(h_dst))))
    return batch, rng.integers(V, size=(2, B, K))


def call_bytes(result):
    """Loss and every gradient group of one engine call, as bytes."""
    loss, grads, _ = result
    return [np.float64(loss).tobytes()] + [
        np.asarray(grads[name]).tobytes() for name in sorted(grads)]


class TestWorkspaceReuse:
    """Calls that share one workspace return the bits of fresh calls: every
    buffer a call accumulates into is cleared, and no result aliases it."""

    @pytest.mark.parametrize("K,h,lengths", [(3, 4, None), (0, 4, None),
                                             (3, 1, None), (2, 3, 0),
                                             (3, (2, 5), None)])
    def test_reuse_matches_fresh_calls(self, K, h, lengths):
        rng = np.random.default_rng(41)
        V, d = 30, 6
        U = rng.normal(0, 0.5, (V, d))
        P = AttentionParams(rng.normal(0, 0.5, 2 * d),
                            rng.normal(0, 0.5, (d, d)), rng.normal(0, 0.5, d),
                            rng.normal(0, 0.5, V))
        a = random_batch(rng, 16, K, h, V, lengths)
        b = random_batch(rng, 16, K, h, V, lengths)
        fresh = [batch_loss_and_grads(*args, U, P, Workspace())
                 for args in (a, b, a)]
        work = Workspace()
        reused = [batch_loss_and_grads(*args, U, P, work=work)
                  for args in (a, b, a)]
        for got, want in zip(reused, fresh):
            assert call_bytes(got) == call_bytes(want)
        assert call_bytes(reused[0]) == call_bytes(reused[2])


class TestHistoryPadding:
    """Entries past a history's length are masked: three more columns of
    arbitrary ids, aged 0 as graph.SnapshotArrays.take pads, on every history
    (h -> h + 3) leave the loss and every gradient unchanged up to
    rounding. Not bit for bit at every width: NumPy groups a reduction over
    the history axis by its length, eight lanes from 8 entries on, and a
    one-column matmul takes another path."""

    @pytest.mark.parametrize("K,h", [(3, 1), (2, 2), (0, 4), (3, 5),
                                     (1, (3, 6)), (2, 13)])
    def test_masked_columns_leave_loss_and_gradients(self, K, h):
        rng = np.random.default_rng(53)
        V, d, B = 30, 6, 16
        U, P = random_state(net_from_events([(0, 1, 1)], node_count=V), d, 54)
        batch, negatives = random_batch(rng, B, K, h, V)
        wide = EventBatch(
            batch.src, batch.dst,
            np.concatenate([batch.hist_nodes,
                            rng.integers(V, size=(2, B, 3))], axis=2),
            np.pad(batch.hist_age, ((0, 0), (0, 0), (0, 3))),
            batch.hist_len)
        loss, grads, _ = batch_loss_and_grads(batch, negatives, U, P,
                                              Workspace())
        loss_w, grads_w, _ = batch_loss_and_grads(wide, negatives, U, P,
                                                  Workspace())
        assert loss_w == pytest.approx(loss, rel=1e-12)
        assert grads_w.keys() == grads.keys()
        # at h = 1 one entry takes all the attention: att_vector's gradient
        # is zero, and so must the padded batch's be
        for name in STEPPED_GROUPS:
            scale = np.abs(grads[name]).max()
            assert np.abs(grads_w[name] - grads[name]).max() <= 1e-12 * scale, \
                name


def test_unequal_negative_counts_rejected():
    # the two endpoint families are one (2, B, K) array of centers, which
    # has no mask to pad a narrower family with
    rng = np.random.default_rng(49)
    U, P = random_state(net_from_events([(0, 1, 1)], node_count=12), 3, 50)
    batch, negatives = random_batch(rng, 6, 2, 3, 12)
    with pytest.raises(ValueError):
        batch_loss_and_grads(batch, [negatives[0],
                                     rng.integers(12, size=(6, 3))], U, P,
                             Workspace())


class TestEndpointSwap:
    """The score treats an event's endpoints alike: swapping every event's
    source and target, their histories and their negatives leaves the loss
    and the gradients unchanged up to rounding."""

    def test_swap_leaves_loss_and_gradients(self):
        rng = np.random.default_rng(47)
        V, d, B, K = 25, 5, 24, 3
        U, P = random_state(net_from_events([(0, 1, 1)], node_count=V), d, 48)
        batch, negatives = random_batch(rng, B, K, (3, 6), V)
        batch.hist_len = np.stack([rng.integers(1, 4, size=B),
                                   rng.integers(1, 7, size=B)])
        batch.hist_age[np.arange(6) >= batch.hist_len[..., None]] = 0
        swapped = EventBatch(batch.dst, batch.src,
                             batch.hist_nodes[::-1], batch.hist_age[::-1],
                             batch.hist_len[::-1])
        loss, grads, _ = batch_loss_and_grads(batch, negatives, U, P,
                                              Workspace())
        loss_s, grads_s, _ = batch_loss_and_grads(swapped, negatives[::-1],
                                                  U, P, Workspace())
        assert loss_s == pytest.approx(loss, rel=1e-12)
        for name in STEPPED_GROUPS:
            scale = np.abs(grads[name]).max()
            assert scale > 0.0, name
            assert np.abs(grads_s[name] - grads[name]).max() <= 1e-12 * scale, \
                name


class TestPermutationEquivariance:
    """Relabeling the nodes reorders the engine's distinct rows; the loss and
    every gradient group follow the relabeling."""

    @staticmethod
    def _original_and_relabeled(want_grads):
        net = random_net(31, nodes=9, n_events=50)
        U, P = random_state(net, 4, 32)
        batch = full_batch(net, h=3)
        table = NegativeTable(net.degrees(),
                              order=net.first_appearance_order())
        negatives = draw_event_negatives(batch.src, batch.dst, table, 2,
                                         substream(8, "negatives"))
        result = batch_loss_and_grads(batch, negatives, U, P, Workspace(),
                                      want_grads=want_grads)

        rng = np.random.default_rng(33)
        perm = rng.permutation(net.node_count)
        events_p = [(int(perm[s]), int(perm[d]), int(t))
                    for s, d, t in zip(net.src, net.dst, net.time)]
        net_p = net_from_events(events_p, node_count=net.node_count)
        U_p = np.empty_like(U)
        U_p[perm] = U
        P_p = AttentionParams(P.att_vector.copy(), P.local_weight.copy(),
                              P.s_weight.copy(), np.empty_like(P.decay_raw))
        P_p.decay_raw[perm] = P.decay_raw
        batch_p = full_batch(net_p, h=3)
        result_p = batch_loss_and_grads(batch_p, perm[negatives], U_p, P_p,
                                        Workspace(), want_grads=want_grads)
        return result, result_p, perm

    def test_batch_loss_invariant_under_relabeling(self):
        (loss, _, _), (loss_p, _, _), _ = self._original_and_relabeled(False)
        assert loss_p == pytest.approx(loss, rel=1e-12)

    def test_gradients_follow_relabeling(self):
        (_, grads, _), (_, grads_p, _), perm = \
            self._original_and_relabeled(True)
        for name in STEPPED_GROUPS:
            want = np.asarray(grads[name])
            got = np.asarray(grads_p[name])
            if name in ("embeddings", "decay_raw"):
                got = got[perm]
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-12 * scale, name


class TestAbsentNodes:
    def test_rows_outside_the_batch_are_zero(self):
        # the ids of a 20-node batch mapped to the odd nodes of 40: the
        # even nodes appear in no slot, and the distinct rows keep their order
        rng = np.random.default_rng(43)
        V, d = 20, 5
        batch, negatives = random_batch(rng, 16, 3, 4, V)
        U = rng.normal(0, 0.5, (2 * V, d))
        P = AttentionParams(rng.normal(0, 0.5, 2 * d),
                            rng.normal(0, 0.5, (d, d)), rng.normal(0, 0.5, d),
                            rng.normal(0, 0.5, 2 * V))
        odd = EventBatch(2 * batch.src + 1, 2 * batch.dst + 1,
                         2 * batch.hist_nodes + 1, batch.hist_age,
                         batch.hist_len)
        _, grads, _ = batch_loss_and_grads(odd, 2 * negatives + 1, U, P,
                                           Workspace())
        for name in ("embeddings", "decay_raw"):
            assert np.all(grads[name][0::2] == 0.0), name
            assert np.any(grads[name][1::2] != 0.0), name
        P_odd = AttentionParams(P.att_vector, P.local_weight, P.s_weight,
                                P.decay_raw[1::2])
        _, dense, _ = batch_loss_and_grads(batch, negatives, U[1::2], P_odd,
                                           Workspace())
        for name in STEPPED_GROUPS:
            got = np.asarray(grads[name])
            if name in ("embeddings", "decay_raw"):
                got = got[1::2]
            assert np.array_equal(got, dense[name]), name


# the scalar-path, workspace-reuse and relabeling checks, with every batch
# run one event per block
@pytest.mark.usefixtures("one_event_blocks")
class TestEngineAgainstScalarPathOneEventBlocks(TestEngineAgainstScalarPath):
    pass


@pytest.mark.usefixtures("one_event_blocks")
class TestWorkspaceReuseOneEventBlocks(TestWorkspaceReuse):
    pass


@pytest.mark.usefixtures("one_event_blocks")
class TestPermutationEquivarianceOneEventBlocks(TestPermutationEquivariance):
    pass
