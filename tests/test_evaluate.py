import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _oracles import (auc_rank_sum_oracle, reconstruction_precision_oracle,
                      recommendation_oracle, triangle_pairs_oracle)
from conftest import count_calls, net_from_events
from m2dne import evaluate as evaluate_mod
from m2dne import logreg
from m2dne.evaluate import (PAIR_CHUNK, MetricReport, _decode_pairs,
                            _block_wins, _distance_slack, _draw_non_edges,
                            _float32_filter, _norm_bounds, _pair_scores,
                            _tile_scores,
                            node_classification, reconstruction_metrics,
                            scale_prediction, temporal_link_prediction,
                            temporal_recommendation, trend_forecast_report,
                            write_forecast_csv)
from m2dne.graph import LabelTable, compute_macro_series, split_by_time
from m2dne.logreg import LogisticRegression, class_f1
from m2dne import macro as macro_mod
from m2dne.macro import MacroParams, edge_affinity, macro_loss
from m2dne.micro import AttentionParams
from m2dne.train import ModelState
from m2dne.util import substream
from test_logreg import objective, two_class_fit

ZETA_RAW_ONE = math.log(math.e - 1.0)


def make_state(U, macro=None):
    V, d = U.shape
    att = AttentionParams(att_vector=np.zeros(2 * d),
                          local_weight=np.zeros((d, d)),
                          s_weight=np.zeros(d), decay_raw=np.zeros(V))
    return ModelState(embeddings=np.asarray(U, dtype=np.float64),
                      attention=att, macro=macro or MacroParams())


def proximity(U, pairs):
    """Reconstruction scores of the given (i, j) pairs."""
    lo, hi = (np.array(side) for side in zip(*pairs))
    return _pair_scores(np.asarray(U, dtype=np.float64), lo, hi).tolist()


class TestProximity:
    def test_identical_max(self):
        assert proximity([[1.0, 2.0], [1.0, 2.0]], [(0, 1)]) == [0.0]

    def test_monotone_in_distance(self):
        U = [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [2.0, 0.0, 0.0]]
        near, far = proximity(U, [(0, 1), (0, 2)])
        assert near > far

    def test_hand_sorted_pairs(self):
        U = np.array([[0.0], [0.1], [1.0], [1.15], [3.0], [3.2]])
        pairs = [(0, 1), (2, 3), (4, 5), (1, 2), (0, 2), (1, 3)]
        scores = proximity(U, pairs)
        assert sorted(scores, reverse=True) == scores


class TestReconstruction:
    def _toy(self):
        # line geometry: edges (0,1), (2,3), (1,2); (4,5) is a close non-edge
        U = np.array([[0.0], [0.1], [1.0], [1.15], [3.0], [3.2]])
        net = net_from_events([(0, 1, 1), (2, 3, 1), (1, 2, 2)],
                              node_count=6)
        return U, net

    @pytest.mark.parametrize("ks,message", [([], "K list is empty"),
                                            ([3, 1, 3], "K 3 is repeated")])
    def test_empty_or_repeated_k_rejected(self, ks, message):
        # a repeated K would print its precision once under a header that
        # lists it twice
        U, net = self._toy()
        with pytest.raises(ValueError, match=message):
            reconstruction_metrics(U, net, ks)

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

    @pytest.mark.parametrize("fraction", [0.0, 1.5, float("nan")])
    def test_sample_fraction_outside_unit_interval_rejected(self, fraction):
        U, net = self._toy()
        with pytest.raises(ValueError,
                           match=r"sample_fraction must be in \(0, 1\]"):
            reconstruction_metrics(U, net, [1], sample_fraction=fraction,
                                   rng=substream(0, "eval-splits"))

    def test_sampling_without_rng_rejected(self):
        U, net = self._toy()
        with pytest.raises(ValueError, match="requires an rng"):
            reconstruction_metrics(U, net, [1], sample_fraction=0.5)

    def test_complete_graph_rejected(self):
        # every pair is an edge, so there is no negative pair to rank
        net = net_from_events([(0, 1, 1), (0, 2, 1), (1, 2, 2)])
        with pytest.raises(ValueError, match="AUC needs both positive and "
                                             "negative pairs"):
            reconstruction_metrics(np.zeros((3, 2)), net, [1])

    def test_sampled_candidates(self):
        U, net = self._toy()
        rep = reconstruction_metrics(U, net, [2], sample_fraction=0.8,
                                     rng=substream(0, "eval-splits"))
        assert rep.config["candidates"] == 12

    def test_auc_matches_rank_sum_across_blocks(self, monkeypatch):
        # half-integer points tie heavily; the edges join low ids only, so
        # with blocks of 5 pairs most blocks hold no positive
        monkeypatch.setattr(evaluate_mod, "PAIR_BLOCK", 5)
        rng = np.random.default_rng(9)
        V = 40
        U = rng.integers(-2, 3, size=(V, 2)) / 2.0
        events = [(int(a), int(b), t % 4 + 1) for t, (a, b) in
                  enumerate(rng.integers(0, 12, size=(30, 2))) if a != b]
        net = net_from_events(events, node_count=V)
        lo, hi = np.triu_indices(V, 1)
        scores = -np.einsum("nd,nd->n", U[lo] - U[hi], U[lo] - U[hi])
        positive = np.isin(lo * V + hi, net.edge_keys())
        want = auc_rank_sum_oracle(scores, positive)
        got = reconstruction_metrics(U, net, [1]).metrics["auc"]
        assert got == want                  # bit for bit
        pos, neg = scores[positive], scores[~positive]
        wins = sum(float(np.sum(sp > neg)) + 0.5 * float(np.sum(sp == neg))
                   for sp in pos)
        assert got == pytest.approx(wins / (pos.size * neg.size), abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_precision_matches_full_sort_with_ties(self, monkeypatch, seed):
        # half-integer points: scores are exact and whole tie groups
        # straddle most cut-offs K; with blocks of 5 pairs they also
        # straddle blocks and the final merge with the edges
        rng = np.random.default_rng(30 + seed)
        V = 40
        U = rng.integers(-3, 4, size=(V, 3)) / 2.0
        events = []
        while len(events) < 120:
            a, b = (int(x) for x in rng.integers(0, V, size=2))
            if a != b:
                events.append((a, b, len(events) % 6 + 1))
        net = net_from_events(events, node_count=V)
        ks = list(range(1, 80))
        want = reconstruction_precision_oracle(
            U.tolist(), [(a, b) for a, b, _ in events], ks)
        for block in (5, 2 ** 16):
            monkeypatch.setattr(evaluate_mod, "PAIR_BLOCK", block)
            rep = reconstruction_metrics(U, net, ks)
            assert {k: rep.metrics[f"precision@{k}"] for k in ks} == want

    @pytest.mark.parametrize("n", [PAIR_CHUNK - 1, PAIR_CHUNK, PAIR_CHUNK + 1,
                                   3 * PAIR_CHUNK + 5])
    def test_chunked_scores_match_one_pass(self, n):
        rng = np.random.default_rng(n)
        U = rng.normal(size=(200, 16)) * np.exp(rng.uniform(-5, 5, (200, 1)))
        lo, hi = _decode_pairs(np.sort(rng.choice(199 * 100, n,
                                                  replace=False)), 200)
        diff = U[lo] - U[hi]
        want = -np.einsum("nd,nd->n", diff, diff)
        assert _pair_scores(U, lo, hi).tobytes() == want.tobytes()

    def test_full_pass_above_old_pair_limit_streams(self):
        # 16,782,321 pairs, above the 2 ** 24 a full pass once refused; all
        # scores tie, so the ranking falls back to the id order
        V = 5794
        U = np.zeros((V, 1))
        net = net_from_events([(0, 1, 1), (2, 3, 2)], node_count=V)
        tracemalloc.start()
        try:
            rep = reconstruction_metrics(U, net, [1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.metrics == {"precision@1": 1.0, "auc": 0.5}
        assert peak < 16 * 2 ** 20

    def test_full_pass_memory_bounded(self):
        V, d = 2000, 64
        U = np.random.default_rng(6).normal(size=(V, d))
        events = [(int(a), int(b), t % 9 + 1) for t, (a, b) in enumerate(
            np.random.default_rng(7).integers(0, V, size=(4000, 2))) if a != b]
        net = net_from_events(events, node_count=V)
        tracemalloc.start()
        try:
            reconstruction_metrics(U, net, [100, 1000])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # holding the 1,999,000 pairs at once took 202 MiB
        assert peak < 16 * 2 ** 20

    def test_pair_scores_memory_bounded(self):
        V, d = 1500, 64
        U = np.random.default_rng(5).normal(size=(V, d))
        lo, hi = _decode_pairs(np.arange(V * (V - 1) // 2, dtype=np.int64), V)
        tracemalloc.start()
        try:
            _pair_scores(U, lo, hi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 1,124,250 scores take 9 MB; the chunk temporaries a few more
        assert peak <= 32 * 2 ** 20


def adversarial_cases():
    """A hypothesis strategy of (embeddings, edges, K list, settings) for a
    full reconstruction pass: half-integer grids, which tie heavily, so
    that most tile scores are scored again, or normal rows; rows duplicated
    (zero distances), scaled by e^+-20 or brought near or into the
    subnormal range; V and d that no tile divides; K values that split tie
    groups. The settings shrink PAIR_BLOCK and the tiles, so blocks and
    tiles split the ties, and move the tile share, so bands go through
    tiles or pair scores."""
    st = pytest.importorskip("hypothesis.strategies")
    scale = {"keep": 1.0, "large": math.exp(20), "small": math.exp(-20),
             "tiny": 1e-160, "subnormal": 2.0 ** -1040}

    @st.composite
    def case(draw):
        V = draw(st.integers(3, 24))
        d = draw(st.sampled_from([1, 2, 64]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        U = (rng.integers(-3, 4, size=(V, d)) / 2.0 if draw(st.booleans())
             else rng.normal(size=(V, d)))
        for v in range(V):
            how = draw(st.sampled_from(["keep", "keep", "duplicate",
                                        *scale]))
            if how == "duplicate":
                U[v] = U[draw(st.integers(0, V - 1))]
            else:
                U[v] *= scale[how]
        total = V * (V - 1) // 2
        flat = draw(st.lists(st.integers(0, total - 1), min_size=1,
                             max_size=min(total - 1, 40), unique=True))
        lo, hi = np.triu_indices(V, 1)
        edges = [(int(lo[x]), int(hi[x])) for x in flat]
        # small K splits the top tie group, the duplicates' zero distances
        ks = draw(st.lists(st.one_of(st.integers(1, min(total, 6)),
                                     st.integers(1, total)),
                           min_size=1, max_size=4, unique=True))
        settings = {"PAIR_BLOCK": draw(st.sampled_from([3, 7, 2 ** 16])),
                    "TILE_SHARE": draw(st.sampled_from([0, 16, 10 ** 9]))}
        settings["TILE_QUERIES"], settings["TILE_COLUMNS"] = draw(
            st.sampled_from([(1, 4), (2, 5), (4, 3), (128, 2048)]))
        return U, edges, ks, settings

    return case()


def pair_score_report(U, edges, ks, net):
    """The metrics the pair scores give: the oracles' full-sort precision
    and rank-sum AUC over every pair's :func:`_pair_scores` score."""
    V = U.shape[0]
    lo, hi = np.triu_indices(V, 1)
    scores = _pair_scores(U, lo, hi)
    want = {f"precision@{k}": p for k, p in reconstruction_precision_oracle(
        U.tolist(), edges, ks,
        dict(zip(zip(lo.tolist(), hi.tolist()), scores.tolist()))).items()}
    want["auc"] = auc_rank_sum_oracle(
        scores, np.isin(lo * V + hi, net.edge_keys()))
    return want


class TestTiledScores:
    """Reconstruction scores non-edges from matrix-product tiles within a
    bound beta of their pair scores, and scores again only where the bound
    cannot settle a comparison; its reports are those of the pair scores."""

    def test_full_pass_matches_oracles(self, monkeypatch):
        hyp = pytest.importorskip("hypothesis")

        @hyp.settings(max_examples=150, deadline=None, database=None)
        @hyp.given(adversarial_cases())
        def check(case):
            U, edges, ks, settings = case
            for name, value in settings.items():
                monkeypatch.setattr(evaluate_mod, name, value)
            net = net_from_events([(a, b, t % 3 + 1)
                                   for t, (a, b) in enumerate(edges)],
                                  node_count=U.shape[0])
            assert reconstruction_metrics(U, net, ks).metrics \
                == pair_score_report(U, edges, ks, net)

        check()

    def test_bound_covers_other_summation_orders(self, monkeypatch):
        # the tile scores as this BLAS sums them, and as sums over a
        # reversed d axis, over blocks of d and exactly rounded ones would
        hyp = pytest.importorskip("hypothesis")

        @hyp.settings(max_examples=150, deadline=None, database=None)
        @hyp.given(adversarial_cases())
        def check(case):
            U, _, _, settings = case
            for name, value in settings.items():
                monkeypatch.setattr(evaluate_mod, name, value)
            V, d = U.shape
            lo, hi = np.triu_indices(V, 1)
            s = _pair_scores(U, lo, hi)
            beta = _distance_slack(
                2.0 * _norm_bounds(np.einsum("nd,nd->n", U, U), d).max(), d)
            tile = np.empty(max(evaluate_mod.TILE_QUERIES
                                * evaluate_mod.TILE_COLUMNS // 2,
                                evaluate_mod.TILE_COLUMNS))
            flipped = U[:, ::-1].copy()
            blocked = sum(U[:, c:c + 7] @ U[:, c:c + 7].T
                          for c in range(0, d, 7))
            fsum = np.array([[math.fsum(a * b) for b in U] for a in U])
            forms = [_tile_scores(U, np.einsum("nd,nd->n", U, U), lo, hi,
                                  tile),
                     _tile_scores(flipped,
                                  np.einsum("nd,nd->n", flipped, flipped),
                                  lo, hi, tile)]
            for g in (blocked, fsum):
                f = 2.0 * g[lo, hi]
                f -= np.diagonal(g)[lo]
                f -= np.diagonal(g)[hi]
                forms.append(f)
            for f in forms:
                assert np.all(np.abs(f - s) <= beta)

        check()

    @pytest.mark.parametrize("block", [7, 2 ** 16])
    @pytest.mark.parametrize("jitter", [0.0, 1e-7])
    def test_close_pairs_rank_by_pair_score(self, monkeypatch, block,
                                            jitter):
        # rows in threes of copies, moved apart by ``jitter``: their 36
        # pairs score 0, or within 2e-12 of it, while the tile scores of
        # many are up to 6e-8 off either way; every other one is an edge,
        # so a shortlist or a win count that trusted the tile order would
        # rank them wrongly
        monkeypatch.setattr(evaluate_mod, "PAIR_BLOCK", block)
        rng = np.random.default_rng(21)
        order = rng.permutation(36)
        U = np.repeat(rng.normal(size=(12, 64)) * 1e3, 3, axis=0)[order]
        U += jitter * rng.normal(size=U.shape)
        group = np.repeat(np.arange(12), 3)[order]
        V = U.shape[0]
        lo, hi = np.triu_indices(V, 1)
        close = np.flatnonzero(group[lo] == group[hi])
        scores = _pair_scores(U, lo, hi)
        tiled = _tile_scores(U, np.einsum("nd,nd->n", U, U), lo, hi,
                             np.empty(2 ** 17))
        assert np.count_nonzero(tiled[close] != scores[close]) > 10
        edges = [(int(lo[x]), int(hi[x])) for x in close[::2]]
        net = net_from_events([(a, b, 1) for a, b in edges], node_count=V)
        ks = list(range(1, 13))     # fewer than the 18 close non-edges
        assert reconstruction_metrics(U, net, ks).metrics \
            == pair_score_report(U, edges, ks, net)

    def test_report_same_at_one_and_two_blas_threads(self, tmp_path):
        # OpenBLAS splits this pass's 299 x 299 x 64 product over two
        # threads and sums it in another order, so the tile scores' last
        # bits change; the report, on 150 close pairs that tie within them,
        # must not
        rng = np.random.default_rng(8)
        order = rng.permutation(300)
        U = np.repeat(rng.normal(size=(100, 64)) * 1e3, 3, axis=0)[order]
        U += 1e-7 * rng.normal(size=U.shape)
        group = np.repeat(np.arange(100), 3)[order]
        lo, hi = np.triu_indices(300, 1)
        close = np.flatnonzero(group[lo] == group[hi])
        np.save(tmp_path / "u.npy", U)
        np.save(tmp_path / "edges.npy", np.stack((lo, hi), axis=1)[close[::2]])
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from conftest import net_from_events\n"
            "from m2dne.evaluate import reconstruction_metrics\n"
            "U = np.load(sys.argv[1])\n"
            "net = net_from_events([(a, b, 1) for a, b in\n"
            "                       np.load(sys.argv[2]).tolist()], 300)\n"
            "print(reconstruction_metrics(U, net, range(1, 60)).to_text())\n")
        path = os.pathsep.join((str(Path(evaluate_mod.__file__).parents[1]),
                                str(Path(__file__).parent)))
        reports = [subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "u.npy"),
             str(tmp_path / "edges.npy")],
            env={**os.environ, "PYTHONPATH": path, **dict.fromkeys(
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"), threads)},
            capture_output=True, text=True, check=True).stdout
            for threads in ("1", "2")]
        assert "precision@59" in reports[0]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("seed", range(20))
    def test_block_wins_find_every_near_value(self, seed):
        # quarter-integer scores, so that a window edge is exact; either
        # array may be the longer one
        rng = np.random.default_rng(seed)
        pos = np.sort(rng.integers(0, 40, rng.integers(1, 30)) / 4.0)
        f = rng.integers(0, 40, rng.integers(1, 30)) / 4.0
        width = float(rng.choice([0.0, 0.25, 1.0]))
        wins, near = _block_wins(pos, np.sort(f), f, width)
        assert wins == sum(2 * (p > value) + (p == value)
                           for p in pos for value in f)
        assert near.tolist() == [
            k for k, value in enumerate(f)
            if width and any(abs(value - p) <= width for p in pos)]

    @pytest.mark.parametrize("family", ["zeros", "half_grid"])
    def test_tie_heavy_tiles_give_the_pair_score_report(self, monkeypatch,
                                                        family):
        # all-zero rows, where every non-edge ties with the edges, and a
        # half-integer grid, where scores fall on few values: most tile
        # scores lie within beta of an edge's score and get a pair score,
        # one per pair at most, however many windows hold it. Blocks of 997
        # pairs split the tie groups, and the tiles are kept small, so that
        # one more array over all 44,850 pairs (350 KiB) would pass the
        # bound; a pass peaked at 390 KiB (NumPy 2.4). A block's last rows
        # often reach more than 64 columns yet fit a 256-entry tile, and
        # are cut into 64-column tiles all the same.
        V, d = 300, 16
        U = (np.zeros((V, d)) if family == "zeros" else
             np.random.default_rng(40).integers(-4, 5, size=(V, d)) / 2.0)
        edges, net = random_edge_net(V, 600, 41)
        ks = [1, 10, 100, 1000]
        want = pair_score_report(U, edges, ks, net)
        for name, value in (("PAIR_BLOCK", 997), ("TILE_QUERIES", 8),
                            ("TILE_COLUMNS", 64)):
            monkeypatch.setattr(evaluate_mod, name, value)
        tiled, scored = [], []
        real_tiles = evaluate_mod._tile_scores
        real_pairs = evaluate_mod._pair_scores

        def tile_scores(*args):
            tiled.append(args[2].shape[0])
            return real_tiles(*args)

        def pair_scores(embeddings, lo, hi):
            scored.append(lo.shape[0])
            return real_pairs(embeddings, lo, hi)

        monkeypatch.setattr(evaluate_mod, "_tile_scores", tile_scores)
        monkeypatch.setattr(evaluate_mod, "_pair_scores", pair_scores)
        tracemalloc.start()
        try:
            metrics = reconstruction_metrics(U, net, ks).metrics
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(tiled) == V * (V - 1) // 2 - len(edges)
        assert sum(scored) <= V * (V - 1) // 2
        assert metrics == want
        assert peak < 640 * 2 ** 10

    def test_band_with_no_candidate_is_skipped(self, monkeypatch):
        # node 5 links to every higher id, so its row holds no non-edge: with
        # bands of one row, the pass meets a band with no pair to score
        V, d = 20, 8
        U = np.random.default_rng(50).normal(size=(V, d))
        edges = sorted({(5, j) for j in range(6, V)}
                       | {(0, 3), (2, 9), (7, 12), (11, 18)})
        net = net_from_events([(a, b, t % 3 + 1) for t, (a, b)
                               in enumerate(edges)], node_count=V)
        ks = [1, 5, 20]
        want = pair_score_report(U, edges, ks, net)
        monkeypatch.setattr(evaluate_mod, "TILE_QUERIES", 1)
        monkeypatch.setattr(evaluate_mod, "TILE_COLUMNS", V)
        calls = count_calls(monkeypatch, evaluate_mod, "_tile_scores")
        assert reconstruction_metrics(U, net, ks).metrics == want
        (_, _, i, _, tile), = calls
        assert tile.shape[0] // V == 1          # bands of one row
        assert i[0] < 5 < i[-1] and 5 not in i

    def test_tie_heavy_pass_scores_no_pair_twice(self, monkeypatch):
        # all-zero rows at d = 1 take the pair route: every pair gets one
        # pair score, cheaper there than a tile, and none gets a second
        V = 300
        net = net_from_events([(0, 1, 1), (2, 3, 2)], node_count=V)
        calls = count_calls(monkeypatch, evaluate_mod, "_pair_scores")
        rep = reconstruction_metrics(np.zeros((V, 1)), net, [1])
        assert rep.metrics == {"precision@1": 1.0, "auc": 0.5}
        assert sum(lo.shape[0] for _, lo, _ in calls) == V * (V - 1) // 2


def twin_rows(V, d, seed):
    """V normal rows, off any grid, in pairs of copies in random order:
    a non-edge to one copy ties an edge to the other."""
    rng = np.random.default_rng(seed)
    return np.repeat(rng.normal(size=(V // 2, d)), 2, axis=0)[
        rng.permutation(V)]


def random_edge_net(V, E, seed):
    rng = np.random.default_rng(seed)
    lo, hi = np.triu_indices(V, 1)
    picked = np.sort(rng.choice(lo.shape[0], E, replace=False))
    edges = [(int(lo[x]), int(hi[x])) for x in picked]
    return edges, net_from_events([(a, b, t % 3 + 1) for t, (a, b)
                                   in enumerate(edges)], node_count=V)


class TestPassRoute:
    """A pass scores all its non-edges one way: from tiles under the bound
    when they fill at least 1 / min(d, TILE_SHARE) of all pairs, else by
    one pair score each, with no tile, no bound and no second score."""

    def test_sparse_pass_scores_each_candidate_once(self, monkeypatch):
        V = 400
        U = twin_rows(V, 8, 31)
        _, net = random_edge_net(V, 2000, 32)
        tiles = count_calls(monkeypatch, evaluate_mod, "_tile_scores")
        slacks = count_calls(monkeypatch, evaluate_mod, "_distance_slack")
        calls = count_calls(monkeypatch, evaluate_mod, "_pair_scores")
        rep = reconstruction_metrics(U, net, [1, 10, 100], 0.05,
                                     np.random.default_rng(33))
        assert tiles == [] and slacks == []
        assert sum(lo.shape[0] for _, lo, _ in calls) \
            == rep.config["candidates"]
        # the first call scores the drawn edges; some drawn non-edges tie one
        edge_scores = _pair_scores(U, calls[0][1], calls[0][2])
        assert any(np.isin(_pair_scores(U, lo, hi), edge_scores).any()
                   for _, lo, hi in calls[1:])

    @pytest.mark.parametrize("extra,tiled", [(1, False), (0, True)])
    def test_threshold_routes_give_the_pair_score_report(
            self, monkeypatch, extra, tiled):
        # d = 2 and 780 pairs: 390 edges leave non-edges at the threshold,
        # 2 x 390 = 780, and 391 leave them just below it
        V = 40
        U = twin_rows(V, 2, 34)
        edges, net = random_edge_net(V, V * (V - 1) // 4 + extra, 35)
        monkeypatch.setattr(evaluate_mod, "PAIR_BLOCK", 97)
        tiles = count_calls(monkeypatch, evaluate_mod, "_tile_scores")
        ks = [1, 7, 50]
        assert reconstruction_metrics(U, net, ks).metrics \
            == pair_score_report(U, edges, ks, net)
        assert len(tiles) == (-(-(V * (V - 1) // 2 - len(edges)) // 97)
                              if tiled else 0)

    def test_benchmark_shape_tiles_every_block(self, monkeypatch):
        # d = 64, fraction 0.1: every block's pairs come from tiles, even
        # in the last band of rows, where they fill less than 1/16 of it
        V = 2000
        U = np.random.default_rng(36).normal(size=(V, 64))
        _, net = random_edge_net(V, 4000, 37)
        blocks = count_calls(monkeypatch, evaluate_mod, "_score_block")
        inside, banded, scored = [], [], []
        real_tiles = evaluate_mod._tile_scores
        real_pairs = evaluate_mod._pair_scores

        def tile_scores(*args):
            inside.append(True)
            try:
                return real_tiles(*args)
            finally:
                inside.pop()

        def pair_scores(*args, **kwargs):
            (banded if inside else scored).append(args[1].shape[0])
            return real_pairs(*args, **kwargs)

        monkeypatch.setattr(evaluate_mod, "_tile_scores", tile_scores)
        monkeypatch.setattr(evaluate_mod, "_pair_scores", pair_scores)
        tiles = count_calls(monkeypatch, evaluate_mod, "_tile_scores")
        rep = reconstruction_metrics(U, net, [100, 1000], 0.1,
                                     np.random.default_rng(38))
        assert len(blocks) > 1
        assert len(tiles) == len(blocks)
        assert banded == []
        assert sum(scored) <= rep.config["candidates"]


class TestDecodePairs:
    """_decode_pairs inverts the upper-triangle numbering in closed form;
    the row-table decode in ``tests/_oracles.py`` is the reference."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_matches_row_table(self, seed):
        rng = np.random.default_rng(seed)
        V = int(rng.integers(2, 3000))
        total = V * (V - 1) // 2
        rows = rng.integers(0, V - 1, 50)
        starts = rows * (2 * V - 1 - rows) // 2
        # random indices plus the first and last index of some rows
        flat = np.concatenate([rng.integers(0, total, 1000), starts,
                               starts + V - 2 - rows])
        i, j = _decode_pairs(flat, V)
        assert i.dtype == j.dtype == np.int64
        assert (i.tolist(), j.tolist()) == triangle_pairs_oracle(
            flat.tolist(), V)

    def test_every_pair_of_small_networks(self):
        for V in range(2, 40):
            flat = np.arange(V * (V - 1) // 2)
            i, j = _decode_pairs(flat, V)
            assert (i.tolist(), j.tolist()) == triangle_pairs_oracle(
                flat.tolist(), V), V

    @pytest.mark.parametrize("V", [10 ** 6, 3 * 10 ** 7, 10 ** 9])
    def test_row_boundaries_at_large_node_counts(self, V):
        # too many rows for a table; at V = 10**9 the float root lands a row
        # too far for about half of these indices, and the fix-up moves them
        rng = np.random.default_rng(V % 97)
        rows = np.concatenate([np.arange(20), V - 2 - np.arange(20),
                               rng.integers(0, V - 1, 2000)])
        starts = rows * (2 * V - 1 - rows) // 2
        flat = np.unique(np.concatenate([starts, starts - 1, starts + 1,
                                         starts + V - 2 - rows]))
        flat = flat[(flat >= 0) & (flat < V * (V - 1) // 2)]
        i, j = _decode_pairs(flat, V)
        assert np.all((0 <= i) & (i < j) & (j < V))
        assert np.array_equal(i * (2 * V - 1 - i) // 2 + j - i - 1, flat)


class TestPastEdges:
    """_past_edges maps ranks among the non-edges to pair indices; the
    reference deletes the edges from all indices and reads the ranks off."""

    @staticmethod
    def check(total, edge_at, ranks):
        ranks = np.asarray(ranks, dtype=np.int64)
        gaps = edge_at - np.arange(edge_at.shape[0])
        got = evaluate_mod._past_edges(ranks, gaps)
        assert got.tolist() == np.delete(np.arange(total), edge_at)[ranks] \
            .tolist()

    def test_gaps_equal_to_ranks_and_empty_gap_ranges(self):
        # gaps 0, 3, 3, 6: ranks 0, 3 and 6 equal a gap; 1..2 and 7..8
        # hold no gap within their range
        edge_at = np.array([0, 4, 5, 9])
        for ranks in ([3, 6], [3], [6], [0], [0, 3], [1, 2], [7, 8], [8],
                      [2, 3], [0, 1, 2, 3, 4, 5, 6, 7, 8]):
            self.check(13, edge_at, ranks)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_edges_and_ranks(self, seed):
        rng = np.random.default_rng(seed)
        total = int(rng.integers(2, 300))
        edge_at = np.flatnonzero(rng.random(total) < rng.random())
        free = total - edge_at.shape[0]
        if free == 0:
            edge_at = edge_at[1:]
            free = 1
        ranks = np.flatnonzero(rng.random(free) < rng.random())
        self.check(total, edge_at,
                   ranks if ranks.shape[0] else [rng.integers(free)])


def sampled_pairs(total, n, edge_at, seed):
    """A reconstruction pass's draw: its non-edge blocks as a list, and its
    drawn edges."""
    drawn, blocks = evaluate_mod._draw_candidates(
        total, n, edge_at, np.random.default_rng(seed))
    return list(blocks), edge_at[drawn]


def drawn_pairs(total, n, edge_at, seed):
    """Every pair of a reconstruction pass's draw, ascending."""
    blocks, drawn_edges = sampled_pairs(total, n, edge_at, seed)
    return np.sort(np.concatenate([drawn_edges, *blocks]))


def link_prediction_negatives(V, count, edge_at, seed):
    """Link prediction's negatives for the edges ``edge_at``, as positions
    among the pairs that are not edges."""
    lo, hi = np.triu_indices(V, 1)
    keys = lo * V + hi
    drawn = _draw_non_edges(V, count, keys[edge_at],
                            np.random.default_rng(seed))
    free = np.delete(keys, edge_at)
    at = np.searchsorted(free, drawn)
    assert np.array_equal(free[at], drawn)
    return at


def inclusion_stat(draws, size, n):
    """Each of ``size`` items is drawn in Binomial(T, f) of T draws of n;
    the sum of their squared standardized deviations is about chi-square
    with size - 1 degrees of freedom."""
    counts = np.zeros(size)
    for drawn in draws:
        counts[drawn] += 1
    trials, f = len(draws), n / size
    return float(np.sum((counts - trials * f) ** 2)
                 / (trials * f * (1 - f)))


def subset_stat(draws, size, n):
    """The chi-square statistic of the n-subsets of ``size`` items drawn,
    after checking that every subset was drawn."""
    seen = {}
    for drawn in draws:
        key = np.sort(drawn).tobytes()
        seen[key] = seen.get(key, 0) + 1
    assert len(seen) == math.comb(size, n)
    expected = len(draws) / math.comb(size, n)
    return sum((c - expected) ** 2 / expected for c in seen.values())


class TestSampledPairs:
    """Reconstruction draws n = round(f * pairs) distinct pairs uniformly:
    its drawn edges, then its non-edges in ascending blocks. Link
    prediction draws its negatives uniformly from the non-edges through the
    same rank mapping. PAIR_BLOCK is shrunk so that small populations split
    into many spans, and HYPERGEOMETRIC_LIMIT so that the span counts also
    take the thinning route that populations above 2e9 pairs need."""

    @pytest.mark.parametrize("limit", [10 ** 9, 1])
    @pytest.mark.parametrize("total,n", [(1, 1), (10, 1), (10, 9), (45, 20),
                                         (300, 7), (300, 299), (5000, 1234)])
    def test_exact_count_distinct_ascending(self, monkeypatch, limit, total,
                                            n):
        monkeypatch.setattr(evaluate_mod, "PAIR_BLOCK", 4)
        monkeypatch.setattr(evaluate_mod, "HYPERGEOMETRIC_LIMIT", limit)
        edge_at = np.unique(np.random.default_rng(total).integers(
            0, total, size=max(1, total // 5)))
        for seed in range(5):
            blocks, drawn_edges = sampled_pairs(total, n, edge_at, seed)
            non_edges = np.concatenate([np.empty(0, dtype=np.int64),
                                        *blocks])
            assert all(block.shape[0] for block in blocks)
            assert np.all(np.diff(non_edges) > 0)
            assert not np.isin(non_edges, edge_at).any()
            assert np.all(np.diff(drawn_edges) > 0)
            assert np.isin(drawn_edges, edge_at).all()
            flat = np.sort(np.concatenate([drawn_edges, non_edges]))
            assert flat.shape == (n,)
            assert flat[0] >= 0 and flat[-1] < total
            assert np.all(np.diff(flat) > 0)

    @pytest.mark.parametrize("size,k", [(1000, 50), (10 ** 6, 300)])
    def test_short_first_gap_batch_is_extended(self, size, k):
        # the first batch of exponentials is scaled to 0, so its gaps are
        # all 1 and it ends at its own length, far below size: the loop
        # must extend it for any draw to land past that
        class ShortFirstBatch:
            def __init__(self):
                self.rng = np.random.default_rng(size)
                self.counts = []

            def standard_exponential(self, count):
                self.counts.append(count)
                e = self.rng.standard_exponential(count)
                return 0.0 * e if len(self.counts) == 1 else e

            def __getattr__(self, name):
                return getattr(self.rng, name)

        rng = ShortFirstBatch()
        got = evaluate_mod._ascending_sample(size, k, rng)
        assert got.shape == (k,)
        assert np.all(np.diff(got) > 0)
        assert got[0] >= 0 and got[-1] < size
        assert got[-1] >= rng.counts[0]

    @pytest.mark.parametrize("limit", [10 ** 9, 1])
    @pytest.mark.parametrize("n", [1, 15, 44])
    def test_inclusion_rate_uniform(self, monkeypatch, limit, n):
        # V = 10: chi-square with 44 degrees of freedom (mean 44, sd 9.4)
        monkeypatch.setattr(evaluate_mod, "PAIR_BLOCK", 4)
        monkeypatch.setattr(evaluate_mod, "HYPERGEOMETRIC_LIMIT", limit)
        edge_at = np.array([0, 1, 2, 9, 20, 33, 44])
        draws = [drawn_pairs(45, n, edge_at, seed) for seed in range(800)]
        assert inclusion_stat(draws, 45, n) < 44 + 5 * math.sqrt(2 * 44)

    @pytest.mark.parametrize("n", [1, 15, 37])
    def test_link_prediction_inclusion_rate_uniform(self, n):
        # V = 10 with 7 edges: chi-square over the 38 other pairs (sd 8.6)
        edge_at = np.array([0, 1, 2, 9, 20, 33, 44])
        draws = [link_prediction_negatives(10, n, edge_at, seed)
                 for seed in range(800)]
        assert inclusion_stat(draws, 38, n) < 37 + 5 * math.sqrt(2 * 37)

    @pytest.mark.parametrize("limit", [10 ** 9, 1])
    def test_every_subset_equally_likely(self, monkeypatch, limit):
        # V = 5, n = 3: the 120 subsets of the 10 pairs, 20 draws each on
        # average; chi-square with 119 degrees of freedom (sd 15.4)
        monkeypatch.setattr(evaluate_mod, "PAIR_BLOCK", 2)
        monkeypatch.setattr(evaluate_mod, "HYPERGEOMETRIC_LIMIT", limit)
        draws = [drawn_pairs(10, 3, np.array([2, 3, 7]), seed)
                 for seed in range(2400)]
        assert subset_stat(draws, 10, 3) < 119 + 5 * math.sqrt(2 * 119)

    def test_link_prediction_every_subset_equally_likely(self):
        # V = 5 with 3 edges, 3 negatives: the 35 subsets of the 7 other
        # pairs, about 69 draws each; chi-square with 34 degrees of freedom
        # (sd 8.2)
        draws = [link_prediction_negatives(5, 3, np.array([2, 3, 7]), seed)
                 for seed in range(2400)]
        assert subset_stat(draws, 7, 3) < 34 + 5 * math.sqrt(2 * 34)

    def test_report_reproducible_for_a_fixed_rng(self):
        rng = np.random.default_rng(3)
        V = 300
        U = rng.normal(size=(V, 4))
        net = net_from_events([(int(a), int(b), t % 5 + 1) for t, (a, b) in
                               enumerate(rng.integers(0, V, size=(900, 2)))
                               if a != b], node_count=V)
        texts = {reconstruction_metrics(
            U, net, [10, 100], sample_fraction=0.3,
            rng=substream(seed, "eval-splits")).to_text()
            for seed in (7, 7, 8)}
        assert len(texts) == 2

    def test_report_matches_oracle_on_the_drawn_pairs(self, monkeypatch):
        # blocks of 5 candidates, half-integer points that tie heavily: the
        # report is the full-sort precision and rank-sum AUC of exactly the
        # drawn pairs, edges flagged among them
        monkeypatch.setattr(evaluate_mod, "PAIR_BLOCK", 5)
        rng = np.random.default_rng(12)
        V = 40
        U = rng.integers(-2, 3, size=(V, 2)) / 2.0
        events = [(int(a), int(b), t % 4 + 1) for t, (a, b) in
                  enumerate(rng.integers(0, V, size=(200, 2))) if a != b]
        net = net_from_events(events, node_count=V)
        ks = [1, 7, 50, 200]
        rep = reconstruction_metrics(U, net, ks, sample_fraction=0.4,
                                     rng=np.random.default_rng(5))
        lo, hi = np.triu_indices(V, 1)
        total, n = lo.size, int(round(0.4 * lo.size))
        keys = net.edge_keys()
        edge_at = np.flatnonzero(np.isin(lo * V + hi, keys))
        flat = drawn_pairs(total, n, edge_at, 5)
        scores = -np.einsum("nd,nd->n", U[lo[flat]] - U[hi[flat]],
                            U[lo[flat]] - U[hi[flat]])
        positive = np.isin(flat, edge_at)
        # flat ascends, so a stable sort by -score breaks ties by (lo, hi)
        order = np.argsort(-scores, kind="stable")
        want = {f"precision@{k}": float(positive[order[:k]].mean())
                for k in ks}
        want["auc"] = auc_rank_sum_oracle(scores, positive)
        assert rep.config["candidates"] == n
        assert rep.metrics == want

    def test_draw_above_two_billion_pairs_bounded(self):
        # NumPy's hypergeometric refuses counts of 1e9 or more, so the span
        # counts here take the thinning route
        total, n = 3 * 10 ** 9, 300_000
        edge_at = np.arange(0, total, total // 1000)
        tracemalloc.start()
        try:
            drawn, blocks = evaluate_mod._draw_candidates(
                total, n, edge_at, np.random.default_rng(4))
            count, last = drawn.shape[0], -1
            for block in blocks:
                assert block[0] > last and np.all(np.diff(block) > 0)
                assert not np.isin(block, edge_at).any()
                count, last = count + block.shape[0], block[-1]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == n and last < total
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("V,fraction", [(5794, 0.1), (5794, 0.01),
                                            (63_300, 1e-4)])
    def test_sampled_pass_memory_bounded(self, V, fraction):
        # V = 5794 holds 16,782,321 pairs, whose one-shot draw at fraction
        # 0.1 peaked at 141 MiB; V = 63,300 holds 2.0e9
        U = np.zeros((V, 1))
        events = [(int(a), int(b), t % 9 + 1) for t, (a, b) in enumerate(
            np.random.default_rng(V).integers(0, V, size=(20000, 2)))
            if a != b]
        net = net_from_events(events, node_count=V)
        tracemalloc.start()
        try:
            rep = reconstruction_metrics(U, net, [100], fraction,
                                         substream(1, "eval-splits"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.config["candidates"] == round(fraction * V * (V - 1) // 2)
        assert rep.metrics["auc"] == 0.5
        assert peak < 16 * 2 ** 20


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

    @pytest.mark.parametrize("ratio", [-0.5, 0.0, 1.0, 1.5, float("nan")])
    def test_ratio_outside_unit_interval_rejected(self, ratio):
        U = np.random.default_rng(0).normal(size=(8, 3))
        labels = LabelTable(node_ids=np.arange(8),
                            labels=np.repeat([0, 1], 4), n_classes=2)
        with pytest.raises(ValueError, match=f"train ratio {ratio:g} "):
            node_classification(U, labels, [0.5, ratio], seed=0)

    def test_repeated_ratio_rejected(self):
        # each ratio's metrics are keyed by the ratio, so a repeat would
        # replace the first split's scores with the second's
        U = np.random.default_rng(0).normal(size=(8, 3))
        labels = LabelTable(node_ids=np.arange(8),
                            labels=np.repeat([0, 1], 4), n_classes=2)
        with pytest.raises(ValueError, match="train ratio 0.5 is repeated"):
            node_classification(U, labels, [0.5, 0.4, 0.50], seed=0)

    def test_empty_ratio_list_rejected(self):
        U = np.random.default_rng(0).normal(size=(8, 3))
        labels = LabelTable(node_ids=np.arange(8),
                            labels=np.repeat([0, 1], 4), n_classes=2)
        with pytest.raises(ValueError, match="train ratio list is empty"):
            node_classification(U, labels, [], seed=0)

    def test_ratio_leaving_no_test_node_rejected(self):
        # every class keeps one training node, so one-node classes leave
        # none to test
        U = np.random.default_rng(0).normal(size=(2, 3))
        labels = LabelTable(node_ids=np.arange(2), labels=np.array([0, 1]),
                            n_classes=2)
        with pytest.raises(ValueError,
                           match="ratio 0.5 leaves an empty test split"):
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
    @pytest.mark.parametrize("ks,message", [([], "K list is empty"),
                                            ([1, 1], "K 1 is repeated"),
                                            ([2, 0], "every K must be >= 1")])
    def test_empty_or_repeated_k_rejected(self, ks, message):
        U = np.array([[0.0], [0.05], [5.0], [5.05]])
        test_net = net_from_events([(0, 1, 1), (2, 3, 1)], node_count=4)
        with pytest.raises(ValueError, match=message):
            temporal_recommendation(U, test_net, ks)

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

    @pytest.mark.parametrize("ks", [[1, 3, 8, 12], [5, 39, 45]])
    def test_duplicated_rows_match_full_sort(self, ks):
        # 40 nodes on 5 integer points: whole groups tie at every cut-off;
        # the second list's largest K exceeds the V - 1 candidates
        rng = np.random.default_rng(21)
        points = rng.integers(-2, 3, size=(5, 3)).astype(np.float64)
        U = points[rng.integers(0, 5, size=40)]
        events = []
        while len(events) < 60:
            a, b = (int(x) for x in rng.integers(0, 40, size=2))
            if a != b:
                events.append((a, b, len(events) % 4 + 1))
        test_net = net_from_events(events, node_count=40)
        rep = temporal_recommendation(U, test_net, ks)
        expected = recommendation_oracle(U.tolist(),
                                         [(a, b) for a, b, _ in events], ks)
        assert rep.metrics == expected

    def test_extra_embedding_rows_rejected(self):
        U = np.zeros((5, 2))
        test_net = net_from_events([(0, 1, 1), (2, 3, 1)], node_count=4)
        with pytest.raises(ValueError, match="4 nodes"):
            temporal_recommendation(U, test_net, [1])

    FAMILIES = {
        "offset_1e3": lambda rng, V, d: 1e3 + 1e-5 * rng.normal(size=(V, d)),
        "offset_10": lambda rng, V, d: 10.0 + 1e-3 * rng.normal(size=(V, d)),
        "offset_100": lambda rng, V, d: 100.0 + 1e-6 * rng.normal(size=(V, d)),
        "half_grid": lambda rng, V, d: rng.integers(-4, 5, size=(V, d)) / 2.0,
        "duplicated_x10": lambda rng, V, d: rng.normal(
            size=(V // 10, d))[rng.permutation(V) % (V // 10)],
        "norms_e20": lambda rng, V, d: rng.normal(size=(V, d))
        * np.exp(rng.uniform(-20.0, 20.0, (V, 1))),
        "scale_1e-160": lambda rng, V, d: 1e-160 * rng.normal(size=(V, d)),
        "scale_1e-161": lambda rng, V, d: 1e-161 * rng.normal(size=(V, d)),
        # most squared differences underflow to 0: ties broken by id, that
        # only the refine's share of the slack keeps
        "scale_1e-162": lambda rng, V, d: 1e-162 * rng.normal(size=(V, d)),
        "scale_1e150": lambda rng, V, d: 1e150 * rng.normal(size=(V, d)),
        # rows equal at float32 resolution: the filter keeps them all
        "equal_f32": lambda rng, V, d: 1.0 + 1e-9 * rng.normal(size=(V, d)),
        # small rows underflow to zero in float32 once the largest is scaled
        # below 1
        "norms_e60": lambda rng, V, d: rng.normal(size=(V, d))
        * np.exp(rng.uniform(-60.0, 60.0, (V, 1))),
        # the largest row norm is exactly 2^3, scaled to exactly 1/2
        "max_norm_pow2": lambda rng, V, d: np.vstack(
            [np.eye(1, d) * 8.0, rng.uniform(-1.0, 1.0, (V - 1, d))]),
        "half_zero": lambda rng, V, d: rng.normal(size=(V, d))
        * (rng.permutation(V) % 2)[:, None],
        "dim_1": lambda rng, V, d: rng.normal(size=(V, 1)),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("ks", [[1], [10], [3, 50], [85]])
    def test_filter_matches_full_sort(self, family, ks):
        # the BLAS filter keeps every node that can rank in the top K, at
        # scales where it keeps almost none and where it keeps all of them;
        # at 1e-161 the squared distances are subnormal; K=85 exceeds the
        # V - 1 candidates
        V, d = 80, 8
        rng = np.random.default_rng(sorted(self.FAMILIES).index(family))
        U = self.FAMILIES[family](rng, V, d)
        events = []
        while len(events) < 160:
            a, b = (int(x) for x in rng.integers(0, V, size=2))
            if a != b:
                events.append((a, b, len(events) % 4 + 1))
        test_net = net_from_events(events, node_count=V)
        rep = temporal_recommendation(U, test_net, ks)
        expected = recommendation_oracle(U.tolist(),
                                         [(a, b) for a, b, _ in events], ks)
        assert rep.metrics == expected

    @pytest.mark.parametrize("family", ["half_grid", "norms_e20"])
    def test_tile_shapes_do_not_change_report(self, family, monkeypatch):
        # one-by-one tiles, odd shapes that split the queries and columns
        # unevenly, and tiles wider than V
        V, d = 60, 3
        rng = np.random.default_rng(22)
        U = self.FAMILIES[family](rng, V, d)
        events = [(int(a), int(b), 1) for a, b in rng.integers(0, V, (90, 2))
                  if a != b]
        test_net = net_from_events(events, node_count=V)
        base = temporal_recommendation(U, test_net, [1, 7]).to_text()
        for queries, columns in ((1, 1), (3, 7), (5, 13), (2, V + 9)):
            monkeypatch.setattr(evaluate_mod, "TILE_QUERIES", queries)
            monkeypatch.setattr(evaluate_mod, "TILE_COLUMNS", columns)
            assert temporal_recommendation(U, test_net, [1, 7]).to_text() \
                == base

    def test_memory_is_the_float32_rows_plus_a_tile(self):
        # a float64 copy of the embeddings would be 2 * 4 V d bytes more
        V, d = 20_000, 64
        rng = np.random.default_rng(23)
        U = rng.normal(size=(V, d))
        events = [(int(a), int(b), 1) for a, b in rng.integers(0, V, (300, 2))
                  if a != b]
        test_net = net_from_events(events, node_count=V)
        # NumPy's lazy imports, made once per process, are not the call's
        temporal_recommendation(U[:10], net_from_events([(0, 1, 1)], 10), [1])
        tracemalloc.start()
        try:
            temporal_recommendation(U, test_net, [1, 5, 10, 50])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * V * d + 4 * 2 ** 20

    def test_many_column_tiles_match_brute_force(self):
        # 74 column tiles: each query's top K is carried across them
        V, d, ks = 150_000, 4, [1, 10]
        rng = np.random.default_rng(24)
        U = rng.normal(size=(V, d))
        ends = rng.choice(V, 32, replace=False)
        events = [(int(a), int(b), 1) for a, b in ends.reshape(16, 2)]
        test_net = net_from_events(events, node_count=V)
        rep = temporal_recommendation(U, test_net, ks)
        hits = {k: [] for k in ks}
        ids = np.arange(V)
        for q in np.sort(ends):
            diff = U - U[q]
            dist = np.einsum("nd,nd->n", diff, diff)
            dist[q] = np.inf
            ranked = np.lexsort((ids, dist))
            mate = ends[np.flatnonzero(ends == q)[0] ^ 1]
            for k in ks:
                hits[k].append(int(mate in ranked[:k]))
        for k in ks:
            assert rep.metrics[f"recall@{k}"] == sum(hits[k]) / 32
            assert rep.metrics[f"precision@{k}"] \
                == sum(h / k for h in hits[k]) / 32

    def test_report_same_at_one_and_two_blas_threads(self, tmp_path):
        # 600 rows in sixes of near-copies, 1e-4 apart at scale 1e3, about
        # float32's resolution, and one copy of each six a held-out
        # neighbour of another: the float32 filter cannot order a query's
        # five copies, which straddle K = 1, 2 and 3, so the float64 refine
        # does. OpenBLAS splits each tile's 600 x 128 x 64 float32 product
        # over two threads. With OpenBLAS 0.3.31 on x86 the split tiles came
        # out bit-identical to one thread's, so a third run picks the
        # kernels of another core type (AVX without FMA), whose tiles differ
        # in their last bits; a BLAS that ignores the setting runs its
        # default kernels. The report must not change: without beta_a, the
        # first and third runs' reports differ.
        rng = np.random.default_rng(9)
        order = rng.permutation(600)
        U = np.repeat(rng.normal(size=(100, 64)) * 1e3, 6, axis=0)[order]
        U += 1e-4 * rng.normal(size=U.shape)
        members = np.argsort(np.repeat(np.arange(100), 6)[order],
                             kind="stable").reshape(100, 6)
        np.save(tmp_path / "u.npy", U)
        np.save(tmp_path / "edges.npy", members[:, :2])
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from conftest import net_from_events\n"
            "from m2dne.evaluate import temporal_recommendation\n"
            "U = np.load(sys.argv[1])\n"
            "net = net_from_events([(a, b, 1) for a, b in\n"
            "                       np.load(sys.argv[2]).tolist()], 600)\n"
            "print(temporal_recommendation(U, net, [1, 2, 3]).to_text())\n")
        path = os.pathsep.join((str(Path(evaluate_mod.__file__).parents[1]),
                                str(Path(__file__).parent)))
        reports = [subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "u.npy"),
             str(tmp_path / "edges.npy")],
            env={**os.environ, "PYTHONPATH": path, **dict.fromkeys(
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"), threads), **core},
            capture_output=True, text=True, check=True).stdout
            for threads, core in (("1", {}), ("2", {}),
                                  ("1", {"OPENBLAS_CORETYPE": "Sandybridge"}))]
        assert "precision@3" in reports[0]
        assert reports[0] == reports[1] == reports[2]


class TestRunMinimumBound:
    """Recommendation carries each query's top_k smallest run minima across
    column tiles in place of its top_k smallest F. Each is the F of a
    distinct column, so tau', the largest, is at least the exact top_k-th
    smallest F seen so far, and the shortlist can only grow."""

    @pytest.mark.parametrize("V,columns,k,case", [
        # a run of 4 and a last run of 2
        (50, 2048, 3, lambda F, run, top_k: F.shape[0] % run == 2),
        # a last run of 1 that is a query's own column, whose F is inf
        (49, 2048, 3, lambda F, run, top_k:
         F.shape[0] % run == 1 and np.isinf(F[-1]).any()),
        # runs of 10 and a last tile of 5 columns
        (45, 40, 1, lambda F, run, top_k: F.shape[0] < run),
        # 7 runs of 1 in a tile, below top_k = 10
        (40, 7, 10, lambda F, run, top_k: -(-F.shape[0] // run) < top_k)])
    def test_carried_bound_is_at_least_exact_tau(self, monkeypatch, V,
                                                  columns, k, case):
        monkeypatch.setattr(evaluate_mod, "TILE_COLUMNS", columns)
        rng = np.random.default_rng(V)
        U = rng.integers(-4, 5, size=(V, 3)) / 2.0     # ties at every K
        events = [(v, int((v + 1 + r) % V), 1)
                  for v, r in enumerate(rng.integers(0, V - 1, V))]
        test_net = net_from_events(events, node_count=V)
        # (carried count before, tile, run, top_k, carried after) per call
        seen = []
        real = evaluate_mod._carry_minima

        def wrapper(mins, F, run, top_k):
            out = real(mins, F, run, top_k)
            seen.append((mins.shape[1], F.copy(), run, top_k, out.copy()))
            return out

        monkeypatch.setattr(evaluate_mod, "_carry_minima", wrapper)
        rep = temporal_recommendation(U, test_net, [k])
        assert rep.metrics == recommendation_oracle(
            U.tolist(), [(a, b) for a, b, _ in events], [k])
        assert any(case(F, run, top_k) for _, F, run, top_k, _ in seen)
        for before, F, run, top_k, out in seen:
            # a query tile's first column tile starts with nothing carried
            so_far = F if before == 0 else np.concatenate((so_far, F))
            exact = np.sort(so_far, axis=0)[top_k - 1] \
                if so_far.shape[0] >= top_k else np.inf
            if out.shape[1] < top_k:
                tau = np.full(out.shape[0], np.inf, dtype=np.float32)
            else:
                tau = out[:, -1]
                assert (out <= tau[:, None]).all()
                assert (so_far == tau).any(axis=0).all()
            assert (tau >= exact).all()

    def test_refines_at_most_a_quarter_more_than_exact_tau(self,
                                                           monkeypatch):
        # the exact tau's shortlist counted from the same float32 rows
        V, d, K = 2000, 64, 10
        rng = np.random.default_rng(25)
        U = rng.normal(size=(V, d))
        events = [(int(a), int(b), 1) for a, b in rng.integers(0, V, (400, 2))
                  if a != b]
        test_net = net_from_events(events, node_count=V)
        calls = count_calls(monkeypatch, evaluate_mod, "_pair_scores")
        temporal_recommendation(U, test_net, [K])
        refined = sum(lo.shape[0] for _, lo, _ in calls)
        rows, row_sq, slack = _float32_filter(U, np.einsum("nd,nd->n", U, U))
        qs = np.unique(np.concatenate([test_net.src, test_net.dst]))
        F = (rows[qs] * np.float32(-2.0)) @ rows.T + row_sq
        F[np.arange(qs.size), qs] = np.inf
        tau = np.partition(F, K - 1, axis=1)[:, K - 1]
        exact = np.count_nonzero(F <= (tau + slack[qs])[:, None])
        assert refined <= 1.25 * exact


def linkpred_input(seed, V, d, edges):
    """Gaussian embeddings of V nodes in d dimensions and a network of
    ``edges`` distinct pairs, each drawn pair kept with probability
    exp(-||u_i - u_j||^2 / d): near pairs link more often, so the classes
    overlap but differ."""
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(V, d))
    lo, hi = np.sort(rng.integers(V, size=(20 * edges, 2)), axis=1).T
    near = np.exp(-np.sum((U[lo] - U[hi]) ** 2, axis=1) / d)
    keep = (lo < hi) & (rng.random(lo.size) < near)
    lo, hi = lo[keep], hi[keep]
    first = np.sort(np.unique(lo * V + hi, return_index=True)[1])[:edges]
    assert first.size == edges
    net = net_from_events([(a, b, k % 5 + 1) for k, (a, b) in
                           enumerate(zip(lo[first].tolist(),
                                         hi[first].tolist()))], node_count=V)
    return U, net


class TestTemporalLinkPrediction:
    def test_folds_carry_optimum_and_hessian(self, monkeypatch):
        # each fold's fit starts from the fold before's optimum and last
        # Hessian; it must still end at its own rows' optimum, predict as a
        # cold fit of those rows does, and take fewer loss evaluations
        U, net = linkpred_input(seed=3, V=150, d=8, edges=400)
        fits = []
        real = evaluate_mod._binary_newton

        def spy(Xt, y, l2, theta, H, Xs):
            given = theta.copy(), H
            out = real(Xt, y, l2, theta, H, Xs)
            fits.append((Xt.copy(), y.copy(), given, out))
            return out

        monkeypatch.setattr(evaluate_mod, "_binary_newton", spy)
        builds = count_calls(monkeypatch, logreg, "_hessian")
        rep = temporal_link_prediction(U, net, net, seed=4)
        # measured: 6 Hessians, against 9 when each fold built its own
        assert len(builds) == 6
        assert rep.config["folds"] == len(fits) == 5
        # each row trains in all folds but its own
        n = sum(len(y) for _, y, _, _ in fits) // (len(fits) - 1)
        assert n == 800
        sizes = [n - len(y) for _, y, _, _ in fits]
        # the design is in fold order: fold 0's test rows lead fold 1's
        # training rows and fold 0's training rows are all the others
        design = np.hstack([fits[1][0][:, :sizes[0]], fits[0][0]])
        labels = np.concatenate([fits[1][1][:sizes[0]], fits[0][1]])
        assert np.all(design[-1] == 1.0)
        ends = np.cumsum(sizes)
        accs, f1s = [], []
        for f, ((Xt, y, (start, H), (theta, _, evals)), hi) in enumerate(
                zip(fits, ends)):
            lo = hi - sizes[f]
            assert np.array_equal(Xt, np.delete(design, np.s_[lo:hi], 1))
            assert np.array_equal(y, np.delete(labels, np.s_[lo:hi]))
            if f:
                assert np.array_equal(start, fits[f - 1][3][0])
                assert H is fits[f - 1][3][1]
            X, y = Xt[:-1].T, y.astype(np.int64)
            clf = LogisticRegression()
            clf.weights, clf.bias = two_class_fit(theta[:-1], theta[-1])
            loss, gnorm = objective(clf, X, y)
            # the fit stops at ||g|| <= 1e-10 * (1 + loss) or where no step
            # lowers the loss any more: chord steps that each cut the
            # gradient just over tenfold reach that point first, as fold 0,
            # a fit from zero, does here at ||g|| = 6e-9
            assert gnorm <= 1e-8 * (1.0 + loss), f
            cold = LogisticRegression().fit(X, y, 2)
            assert abs(loss - objective(cold, X, y)[0]) \
                <= 1e-12 * (1.0 + loss), f
            test = design[:-1, lo:hi].T
            pred = cold.predict(test)
            assert np.array_equal(clf.predict(test), pred), f
            if f:
                assert evals < cold.n_evals, f
            truth = labels[lo:hi].astype(np.int64)
            accs.append(float(np.mean(pred == truth)))
            f1s.append(class_f1(truth, pred, 1))
        assert rep.metrics == {"accuracy": float(np.mean(accs)),
                               "f1": float(np.mean(f1s))}
        assert 0.55 <= rep.metrics["accuracy"] < 1.0

    def test_report_same_at_one_and_two_blas_threads(self, tmp_path):
        # 2400 rows at d = 64: each fold trains on 1920 columns of 65 rows,
        # and a later fold solves with the Hessian the fold before built, so
        # its path depends on the last bits of that rank-k product and of
        # the gradient's. With OpenBLAS 0.3.31 on x86 two threads gave
        # one thread's bits, so a third run picks the kernels of another
        # core type (AVX without FMA), whose products differ in their last
        # bits, and so do all five folds' optima; a BLAS that ignores the
        # setting runs its default kernels.
        U, net = linkpred_input(seed=5, V=400, d=64, edges=1200)
        np.save(tmp_path / "u.npy", U)
        np.save(tmp_path / "edges.npy",
                np.stack([net.src, net.dst, net.time], axis=1))
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from conftest import net_from_events\n"
            "from m2dne.evaluate import temporal_link_prediction\n"
            "U = np.load(sys.argv[1])\n"
            "net = net_from_events(np.load(sys.argv[2]).tolist(), 400)\n"
            "for seed in (42, 43):\n"
            "    print(temporal_link_prediction(U, net, net, seed).to_text())\n")
        path = os.pathsep.join((str(Path(evaluate_mod.__file__).parents[1]),
                                str(Path(__file__).parent)))
        reports = [subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "u.npy"),
             str(tmp_path / "edges.npy")],
            env={**os.environ, "PYTHONPATH": path, **dict.fromkeys(
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"), threads), **core},
            capture_output=True, text=True, check=True).stdout
            for threads, core in (("1", {}), ("2", {}),
                                  ("1", {"OPENBLAS_CORETYPE": "Sandybridge"}))]
        assert reports[0].count("positives=1200 folds=5") == 2
        assert reports[0] == reports[1] == reports[2]

    def test_perfectly_separable_geometry(self):
        # two far clusters of two nodes, an edge inside each: all four
        # non-edges join the clusters, so every draw of negatives is as far
        # from the edges as any other
        U = np.zeros((4, 4))
        U[1] += 0.01
        U[2, 0] = 10.0
        U[3] = U[2] + 0.01
        net = net_from_events([(0, 1, 1), (2, 3, 2)], node_count=4)
        for seed in range(10):
            rep = temporal_link_prediction(U, net, net, seed=seed)
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
        existing = np.array([0 * 6 + 1, 1 * 6 + 2, 2 * 6 + 3])
        out = _draw_non_edges(6, 8, existing, substream(1, "eval-splits"))
        assert not (set(out.tolist()) & set(existing.tolist()))
        assert len(set(out.tolist())) == 8
        assert np.all(out // 6 < out % 6)

    def test_every_free_pair_when_count_equals_them(self):
        lo, hi = np.triu_indices(5, 1)
        keys = lo * 5 + hi
        free = keys[[1, 4, 8]]
        existing = np.setdiff1d(keys, free)
        for seed in range(5):
            out = _draw_non_edges(5, 3, existing, np.random.default_rng(seed))
            assert out.tolist() == free.tolist()

    def test_complete_graph_rejected(self):
        # the six pairs of four nodes are all edges: no negative to draw
        U = np.random.default_rng(2).normal(size=(4, 3))
        net = net_from_events([(a, b, a + 1) for a in range(4)
                               for b in range(a + 1, 4)], node_count=4)
        with pytest.raises(ValueError) as err:
            temporal_link_prediction(U, net, net, seed=0)
        assert str(err.value) == \
            "6 non-edges requested but only 0 pairs are not edges"

    def test_too_few_edges_rejected(self):
        U = np.zeros((4, 2))
        net = net_from_events([(0, 1, 1)], node_count=4)
        with pytest.raises(ValueError):
            temporal_link_prediction(U, net, net, seed=0)


class TestNonFiniteEmbeddings:
    BAD = {"nan": np.nan, "inf": -np.inf, "overflowing_norm": 1e160}

    def _inputs(self, value):
        U = np.random.default_rng(0).normal(size=(6, 3))
        U[4, 1] = value
        net = net_from_events([(0, 1, 1), (2, 3, 1), (4, 5, 2), (1, 4, 2)],
                              node_count=6)
        return U, net

    @pytest.mark.parametrize("value", sorted(BAD))
    def test_reconstruction(self, value):
        U, net = self._inputs(self.BAD[value])
        with pytest.raises(ValueError, match="reconstruction"):
            reconstruction_metrics(U, net, [1])

    @pytest.mark.parametrize("value", sorted(BAD))
    def test_recommendation(self, value):
        U, net = self._inputs(self.BAD[value])
        with pytest.raises(ValueError, match="recommendation"):
            temporal_recommendation(U, net, [1])

    @pytest.mark.parametrize("value", sorted(BAD))
    def test_link_prediction(self, value):
        U, net = self._inputs(self.BAD[value])
        with pytest.raises(ValueError, match="link prediction"):
            temporal_link_prediction(U, net, net, seed=0)

    @pytest.mark.parametrize("value", sorted(BAD))
    def test_classification(self, value):
        # a NaN feature would otherwise classify without an error
        U, _ = self._inputs(self.BAD[value])
        labels = LabelTable(node_ids=np.arange(6),
                            labels=np.array([0, 0, 0, 1, 1, 1]), n_classes=2)
        with pytest.raises(ValueError, match="classification"):
            node_classification(U, labels, [0.5], seed=0)

    @pytest.mark.parametrize("value", sorted(BAD))
    def test_scale_and_forecast(self, value):
        net, state = growth_law_net()
        state.embeddings[4, 1] = self.BAD[value]
        with pytest.raises(ValueError, match="scale prediction"):
            scale_prediction(state, net, t_next=20, train_end=16)
        with pytest.raises(ValueError, match="trend forecast"):
            trend_forecast_report(state, net, 0.75)


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

    def test_one_affinity_pass_over_training_edges(self, monkeypatch):
        net, state = growth_law_net()
        calls = count_calls(monkeypatch, macro_mod, "edge_affinity")
        scale_prediction(state, net, t_next=20, train_end=16)
        assert [len(args[1]) for args in calls] == [int(np.sum(net.time <= 16))]

    def test_t_next_inside_training_rejected(self):
        net, state = growth_law_net()
        with pytest.raises(ValueError):
            scale_prediction(state, net, t_next=10, train_end=16)

    def test_train_end_defaults_to_the_epoch_before_t_next(self):
        net, state = growth_law_net()
        rep = scale_prediction(state, net, t_next=20)
        assert rep.config["train_end"] == 19
        assert rep.to_text() == \
            scale_prediction(state, net, t_next=20, train_end=19).to_text()

    def test_t_next_one_leaves_no_training_epoch(self):
        net, state = growth_law_net()
        with pytest.raises(ValueError, match="^t_next=1 leaves no training "
                                             "epoch before it$"):
            scale_prediction(state, net, t_next=1)

    def test_t_next_past_the_series_rejected(self):
        net, state = growth_law_net()
        with pytest.raises(ValueError, match=r"t_next=21 beyond the observed "
                                             r"series \(T=20\)"):
            scale_prediction(state, net, t_next=21, train_end=16)


class TestGrowthInputsChecked:
    """Scale prediction and the trend forecast read the embeddings only
    through the affinity S, which would hide a wrong row count or an S of 0
    (a forecast of no growth)."""

    def test_extra_embedding_rows_rejected(self):
        net, state = growth_law_net()
        state = make_state(np.vstack([state.embeddings, np.zeros((5, 5))]),
                           state.macro)
        message = "embeddings have 35 rows but the network has 30 nodes"
        with pytest.raises(ValueError, match=message):
            scale_prediction(state, net, t_next=20, train_end=16)
        with pytest.raises(ValueError, match=message):
            trend_forecast_report(state, net, 0.75)

    def test_zero_affinity_rejected(self):
        # every edge joins two rows 2e4 apart in squared distance, whose
        # sigmoid underflows to 0, yet every norm is finite
        net, state = growth_law_net()
        state = make_state(100.0 * np.eye(30), state.macro)
        message = "edge affinity S = 0.0 is not positive"
        with pytest.raises(ValueError, match=message):
            scale_prediction(state, net, t_next=20, train_end=16)
        with pytest.raises(ValueError, match=message):
            trend_forecast_report(state, net, 0.75)


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
        S = edge_affinity(state.embeddings, net.src[mask], net.dst[mask])
        start_sse = macro_loss(series, S, MacroParams())
        assert 0.0 <= report.metrics["fit_sse"] < start_sse
        again, _ = trend_forecast_report(state, net, 0.75)
        assert again.to_text() == report.to_text()

    def test_only_the_fitted_zeta_reads_the_embeddings(self):
        # the growth fit is equivariant in S, so the embeddings move only
        # zeta = kappa / S; the forecast and its fit read kappa
        net, state = growth_law_net()
        mask = net.time <= 15
        V, d = state.embeddings.shape
        rng = np.random.default_rng(3)
        reports = []
        for U in (rng.normal(0, 0.3, (V, d)), rng.normal(0, 1.0, (V, d)),
                  np.zeros((V, d))):
            report, rows = trend_forecast_report(make_state(U), net, 0.75)
            assert report.config["train_epochs"] == 15
            S = edge_affinity(U, net.src[mask], net.dst[mask])
            reports.append((report.metrics, [r[1] for r in rows], S))
        (first, first_rows, first_S), *others = reports
        for metrics, rows, S in others:
            assert S != first_S
            for name in ("suffix_rmse", "fit_sse", "fitted_gamma",
                         "fitted_theta"):
                assert metrics[name] == pytest.approx(first[name],
                                                      rel=1e-12), name
            assert rows == pytest.approx(first_rows, rel=1e-12)
            assert metrics["fitted_zeta"] * S == pytest.approx(
                first["fitted_zeta"] * first_S, rel=1e-12)

    def test_zero_horizon_empty_table(self, tmp_path):
        net, state = growth_law_net()
        report, rows = trend_forecast_report(state, net, 1.0)
        assert rows == []
        out = tmp_path / "fc.csv"
        write_forecast_csv(rows, out)
        assert out.read_text() == \
            "epoch,predicted_cumulative_edges,observed_cumulative_edges\n"
        with pytest.raises(ValueError, match="n_mode"):
            trend_forecast_report(state, net, 1.0, n_mode="bogus")

    def test_too_small_fraction_rejected(self):
        net, state = growth_law_net()
        with pytest.raises(ValueError):
            trend_forecast_report(state, net, 0.01)

    @pytest.mark.parametrize("fraction", [float("nan"), 1.5, 0.0, -0.5])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        net, state = growth_law_net()
        with pytest.raises(ValueError, match=rf"train_fraction={fraction} "
                                             r"is not in \(0, 1\]"):
            trend_forecast_report(state, net, fraction)

    def test_one_affinity_pass_over_training_edges(self, monkeypatch):
        net, state = growth_law_net()
        calls = count_calls(monkeypatch, macro_mod, "edge_affinity")
        report, _ = trend_forecast_report(state, net, 0.75)
        train_epochs = report.config["train_epochs"]
        assert [len(args[1]) for args in calls] == \
            [int(np.sum(net.time <= train_epochs))]


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
