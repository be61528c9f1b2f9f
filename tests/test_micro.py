"""Event-level model terms, checked on the engine's forward caches
(:class:`m2dne.micrograd._Side`, :func:`m2dne.micrograd._pair_beta`) and its
pair scores, and the negative sampler."""

import math

import numpy as np
import pytest

import _oracles as orc
from conftest import engine_score, engine_side, one_event_batch, oracle_args
from m2dne.micro import AttentionParams, NegativeTable, draw_event_negatives
from m2dne.micrograd import _pair_beta, batch_loss_and_grads
from m2dne.util import softplus


def make_params(V, d, seed=0, zero_w=False):
    rng = np.random.default_rng(seed)
    att = rng.normal(0, 0.5, 2 * d)
    W = np.zeros((d, d)) if zero_w else rng.normal(0, 0.5, (d, d))
    sw = rng.normal(0, 0.5, d)
    # drawn where the s-layer bias was, so the later draws are unchanged
    rng.normal(0, 0.2)
    return AttentionParams(att_vector=att, local_weight=W, s_weight=sw,
                           decay_raw=rng.normal(0, 0.5, V))


def make_embeddings(V, d, seed=1):
    return np.random.default_rng(seed).normal(0, 0.6, (V, d))


def beta(side_l, side_r):
    """Neighborhood weight of the left side against the right one."""
    w, _ = _pair_beta(np.stack([side_l.btil[:, :1], side_r.btil[:, :1]]),
                      np.stack([side_l.nonempty, side_r.nonempty]))
    return float(w[0, 0, 0])


class TestSimilarity:
    """Base term: with both histories empty the score is -||u_i - u_j||^2."""

    def test_identical_is_zero(self):
        U = make_embeddings(3, 3)
        U[1] = U[0]
        score = engine_score(0, 1, 1, [], [], U, make_params(3, 3))
        assert score == pytest.approx(0.0, abs=1e-15)

    def test_unit_axes(self):
        U = np.array([[1.0, 0.0], [0.0, 1.0]])
        score = engine_score(0, 1, 1, [], [], U, make_params(2, 2))
        assert score == pytest.approx(-2.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            U = rng.normal(size=(2, 5))
            P = make_params(2, 5)
            ab = engine_score(0, 1, 1, [], [], U, P)
            assert ab == engine_score(1, 0, 1, [], [], U, P)
            assert ab <= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            engine_score(0, 1, 1, [], [], np.zeros((2, 3)), make_params(2, 4))


class TestTimeDecay:
    """kappa = exp(-softplus(decay_raw[center]) * (t - t_entry))."""

    def test_zero_gap(self):
        side = engine_side([0], [(1, 5)], make_embeddings(2, 3),
                           make_params(2, 3), t=5)
        assert side.kap[0, 0, 0] == 1.0

    def test_unit_values(self):
        P = make_params(2, 3)
        P.decay_raw[0] = math.log(math.e - 1.0)        # softplus -> 1
        side = engine_side([0], [(1, 4)], make_embeddings(2, 3), P, t=5)
        assert side.kap[0, 0, 0] == pytest.approx(0.36787944117144233,
                                                  abs=1e-15)

    def test_monotone(self):
        U = make_embeddings(3, 3)
        for raw in (-2.0, 0.0, 3.0):
            P = make_params(3, 3)
            P.decay_raw[0] = raw
            side = engine_side([0], [(1, 1), (2, 2)], U, P, t=3)
            older, newer = side.kap[0, 0, :2]
            assert older < newer


class TestLocalAttention:
    def test_singleton(self):
        side = engine_side([0], [(1, 2)], make_embeddings(4, 3),
                           make_params(4, 3), t=5)
        assert side.alpha[0, 0].tolist() == [1.0]

    def test_identical_entries_split_evenly(self):
        U = make_embeddings(4, 3)
        U[2] = U[1]
        side = engine_side([0], [(1, 3), (2, 3)], U, make_params(4, 3), t=5)
        assert side.alpha[0, 0] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_d2_toy_matches_oracle(self):
        U = make_embeddings(6, 2, seed=9)
        P = make_params(6, 2, seed=10)
        hist = [(1, 1), (3, 2), (4, 4)]
        got = engine_side([0], hist, U, P, t=6).alpha[0, 0]
        want = orc.local_weights_oracle(0, hist, U.tolist(),
                                        P.att_vector.tolist(),
                                        P.local_weight.tolist(),
                                        P.decay_raw.tolist(), 6)
        assert got == pytest.approx(want, abs=1e-12)


class TestAggregateNeighborhood:
    def test_single_neighbor(self):
        U = make_embeddings(4, 3)
        P = make_params(4, 3)
        got = engine_side([0], [(2, 1)], U, P, t=3).ut[0, 0]
        want = 1.0 / (1.0 + np.exp(-(P.local_weight @ U[2])))
        assert got == pytest.approx(want, abs=1e-12)

    def test_zero_weight_matrix_gives_half(self):
        U = make_embeddings(4, 3)
        P = make_params(4, 3, zero_w=True)
        got = engine_side([0], [(1, 1), (2, 2)], U, P, t=4).ut[0, 0]
        assert got == pytest.approx([0.5] * 3, abs=1e-12)


class TestGlobalAttention:
    def test_fully_symmetric_is_half(self):
        U = make_embeddings(6, 3)
        U[1] = U[0]
        U[3] = U[2]
        P = make_params(6, 3)
        P.decay_raw[1] = P.decay_raw[0]
        side_i = engine_side([0], [(2, 1)], U, P, t=3)
        side_j = engine_side([1], [(3, 1)], U, P, t=3)
        assert beta(side_i, side_j) == pytest.approx(0.5, abs=1e-12)

    def test_swap_sums_to_one(self):
        U = make_embeddings(8, 4)
        P = make_params(8, 4)
        side_i = engine_side([0], [(2, 1), (3, 2)], U, P, t=5)
        side_j = engine_side([1], [(4, 2), (5, 3), (6, 1)], U, P, t=5)
        assert beta(side_i, side_j) + beta(side_j, side_i) == \
            pytest.approx(1.0, abs=1e-12)

    def test_requires_both_histories(self):
        # without both histories there is no softmax: the weight is pinned
        # to the side that has one
        U = make_embeddings(4, 2)
        P = make_params(4, 2)
        empty = engine_side([0], [], U, P, t=3)
        full = engine_side([1], [(2, 1)], U, P, t=3)
        assert beta(empty, full) == 0.0
        assert beta(full, empty) == 1.0


class TestIntensity:
    def test_empty_histories_base_only(self):
        U = make_embeddings(4, 3)
        raw = engine_score(0, 1, 2, [], [], U, make_params(4, 3))
        assert raw == pytest.approx(-np.sum((U[0] - U[1]) ** 2), abs=1e-13)

    def test_all_equal_embeddings_zero(self):
        U = np.tile(np.array([0.4, -0.2, 0.1]), (5, 1))
        raw = engine_score(0, 1, 4, [(2, 1), (3, 2)], [(4, 3)], U,
                           make_params(5, 3))
        assert raw == pytest.approx(0.0, abs=1e-14)

    def test_toy_matches_oracle(self):
        U = make_embeddings(4, 3, seed=21)
        P = make_params(4, 3, seed=22)
        hi, hj = [(2, 1), (3, 3)], [(0, 2), (2, 4)]
        got = engine_score(0, 1, 5, hi, hj, U, P)
        want = orc.intensity_raw_oracle(0, 1, 5, hi, hj, *oracle_args(U, P))
        assert got == pytest.approx(want, abs=1e-10)

    def test_unknown_node_rejected(self):
        U = make_embeddings(3, 2)
        with pytest.raises(IndexError):
            engine_score(0, 7, 2, [], [], U, make_params(3, 2))

    # -1 would otherwise wrap to node V - 1
    @pytest.mark.parametrize("where", ["endpoint", "negative", "history"])
    @pytest.mark.parametrize("want_grads", [False, True])
    def test_negative_id_rejected(self, where, want_grads):
        U, P = make_embeddings(3, 2), make_params(3, 2)
        batch = one_event_batch(-1 if where == "endpoint" else 0, 1, 3,
                                [(-1 if where == "history" else 2, 1)], [])
        neg = np.array([[[-1 if where == "negative" else 2]], [[0]]])
        with pytest.raises(IndexError, match=r"\[0, 3\)"):
            batch_loss_and_grads(batch, neg, U, P, want_grads=want_grads)

    def test_transfer_values(self):
        # the positive pair's loss is softplus(-score) = -log sigmoid(score)
        P = make_params(2, 2)
        none = np.zeros((2, 1, 0), dtype=np.int64)
        batch = one_event_batch(0, 1, 1, [], [])
        loss, _, _ = batch_loss_and_grads(batch, none, np.zeros((2, 2)), P,
                                          want_grads=False)
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)
        U2 = np.array([[0.0, 0.0], [np.sqrt(2.0), 0.0]])
        loss, _, _ = batch_loss_and_grads(batch, none, U2, P,
                                          want_grads=False)
        assert loss == pytest.approx(math.log1p(math.exp(2.0)), abs=1e-12)

    def test_positive_for_random_states(self):
        rng = np.random.default_rng(30)
        none = np.zeros((2, 1, 0), dtype=np.int64)
        for trial in range(200):
            d = int(rng.integers(2, 6))
            U = rng.normal(0, 1.5, (6, d))
            P = make_params(6, d, seed=trial)
            hi = [(2, 1), (3, 2)] if trial % 2 else []
            hj = [(4, 1)] if trial % 3 else []
            loss, _, _ = batch_loss_and_grads(one_event_batch(0, 1, 3, hi, hj),
                                              none, U, P, want_grads=False)
            assert 0.0 < loss < math.inf


class TestNegativeSampling:
    def test_two_nodes_partner_excluded(self):
        rng = np.random.default_rng(0)
        draws = NegativeTable(np.array([5, 3])).sample(50, rng, exclude=1)
        assert set(draws.tolist()) == {0}

    def test_unigram_frequency(self):
        rng = np.random.default_rng(1)
        draws = NegativeTable(np.array([8, 1])).sample(100_000, rng)
        expected = 8 ** 0.75 / (8 ** 0.75 + 1.0)
        freq = float(np.mean(draws == 0))
        assert abs(freq - expected) < 0.01

    def test_output_length(self):
        rng = np.random.default_rng(2)
        assert NegativeTable(np.array([1, 2, 3])).sample(7, rng).shape == (7,)

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            NegativeTable(np.array([4]))

    def test_order_equivariance(self):
        # sampling along the first-appearance order commutes with relabeling
        deg = np.array([3, 1, 4, 2])
        order = np.array([2, 0, 3, 1])
        perm = np.array([1, 3, 0, 2])   # new id of each old id
        table = NegativeTable(deg, order=order)
        deg_p = np.empty_like(deg)
        deg_p[perm] = deg
        table_p = NegativeTable(deg_p, order=perm[order])
        draws = table.sample(200, np.random.default_rng(5))
        draws_p = table_p.sample(200, np.random.default_rng(5))
        assert np.array_equal(perm[draws], draws_p)

    def test_excluded_node_with_all_mass_fails(self):
        table = NegativeTable(np.array([5, 0, 0]))
        with pytest.raises(ValueError, match="node 0 carries all"):
            table.sample(1, np.random.default_rng(0), exclude=0)
        with pytest.raises(ValueError, match="node 0 carries all"):
            table.sample(3, np.random.default_rng(0),
                         exclude=np.array([1, 0, 2]))

    def test_per_draw_exclusion(self):
        rng = np.random.default_rng(3)
        exclude = np.tile([0, 1], 500)
        draws = NegativeTable(np.array([5, 3])).sample(1000, rng,
                                                       exclude=exclude)
        assert np.array_equal(draws, 1 - exclude)


class TestEventNegativesOracle:
    """The batched draws against the one-uniform-at-a-time loop in
    ``tests/_oracles.py``: same ids, same generator state afterwards."""

    @staticmethod
    def both(src, dst, table, k, seed):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        negatives = draw_event_negatives(src, dst, table, k, rng)
        want_src, want_dst = orc.event_negatives_oracle(
            src.tolist(), dst.tolist(), table.cum, table.order, k, rng_ref)
        assert negatives.shape == (2, len(src), k)
        assert negatives[0].tolist() == want_src
        assert negatives[1].tolist() == want_dst
        assert rng.random() == rng_ref.random()
        return negatives

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_batches(self, seed):
        rng = np.random.default_rng(seed)
        V = int(rng.integers(2, 30))
        table = NegativeTable(rng.integers(1, 20, V), order=rng.permutation(V))
        B, k = int(rng.integers(1, 60)), int(rng.integers(1, 7))
        src, dst = rng.integers(V, size=(2, B))
        self.both(src, dst, table, k, seed + 100)

    def test_k_zero(self):
        table = NegativeTable(np.array([2, 3, 4]))
        self.both(np.array([0, 1]), np.array([2, 0]), table, 0, 1)

    def test_skewed_table_forces_rejections(self):
        table = NegativeTable(np.array([1000, 1, 1, 1]),
                              order=np.array([2, 0, 3, 1]))
        assert table.mass[0] > 0.9
        B = 40
        src = np.tile([1, 2, 3, 0], B // 4)
        dst = np.where(src == 0, 1, 0)          # every event touches node 0
        neg_src, neg_dst = self.both(src, dst, table, 5, 7)
        assert not np.any(neg_src == dst[:, None])
        assert not np.any(neg_dst == src[:, None])


class TestDecayReparameterization:
    def test_effective_decay_positive(self):
        P = make_params(6, 3, seed=13)
        P.decay_raw[:] = np.array([-40.0, -1.0, 0.0, 1.0, 10.0, 40.0])
        side = engine_side(list(range(6)), [(1, 1)], make_embeddings(6, 3), P,
                           t=2)
        assert np.all(side.delta > 0.0)
        assert side.delta[0, 2] == pytest.approx(softplus(0.0), abs=1e-15)
