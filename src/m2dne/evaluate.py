"""Evaluation protocols over learned embeddings: reconstruction, node
classification, temporal recommendation, temporal link prediction, scale
prediction and trend forecasting.

Reports are plain text (``task<TAB>metric<TAB>value`` plus a ``# config:``
header) and byte-identical across runs for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import macro as macro_mod
from .graph import LabelTable, MacroSeries, TemporalNetwork, compute_macro_series
from .logreg import LogisticRegression, _binary_newton, class_f1, f1_scores
from .train import ModelState
from .util import PAIR_CHUNK, substream


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _distinct_keys(values, entry: str, key) -> list:
    """``key`` of each of ``values``, a list that must be non-empty and
    repeat no key: a repeated entry's metrics would overwrite the earlier
    one's. ``entry`` names an entry of the list in the errors."""
    keys = [key(v) for v in values]
    if not keys:
        raise ValueError(f"the {entry} list is empty")
    for at, k in enumerate(keys):
        if k in keys[:at]:
            raise ValueError(f"{entry} {k} is repeated")
    return keys


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


# ---------------------------------------------------------------------------
# network reconstruction

def _decode_pairs(flat: np.ndarray, V: int) -> tuple[np.ndarray, np.ndarray]:
    """Map int64 linear indices over the upper triangle (i < j) to (i, j),
    in O(len(flat)) at any V.

    Row i starts at i (2V - 1 - i) / 2, so i = floor((2V - 1 - r) / 2) with
    r = sqrt((2V - 1)^2 - 8 * index). The radicand is formed exactly in
    int64 and rounded once, which leaves the root within one row of the
    truth (below 2^30 nodes); an integer test moves the few that miss."""
    b = 2 * V - 1
    root = np.multiply(flat, -8)
    root += b * b
    root = np.sqrt(root)
    np.subtract(b, root, out=root)
    root *= 0.5
    i = root.astype(np.int64)
    j = b - i
    j *= i
    j >>= 1
    np.subtract(flat, j, out=j)
    j += i                              # the column minus one, if row i holds
    off = np.flatnonzero((j < i) | (j >= V - 1))
    if off.shape[0]:
        oi, of = i[off], flat[off]
        oi -= (oi * (b - oi) >> 1) > of
        oi += ((oi + 1) * (b - 1 - oi) >> 1) <= of
        i[off] = oi
        j[off] = of - (oi * (b - oi) >> 1) + oi
    j += 1
    return i, j


def _in_sorted(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of ``keys`` is in the sorted, non-empty ``table``."""
    return table[np.minimum(np.searchsorted(table, keys), table.size - 1)] \
        == keys


def _checked_embeddings(embeddings: np.ndarray, task: str,
                        *nets: TemporalNetwork) -> np.ndarray:
    """Squared row norms, after checking that the embeddings have one row per
    node of each network (which encode node pairs as keys ``min * V + max``)
    and that every squared distance between rows is finite:
    ``||u - v||^2 <= 4 max ||u||^2``, kept below the float64 maximum with a
    factor 2 to spare for rounding."""
    V = embeddings.shape[0]
    for net in nets:
        if net.node_count != V:
            raise ValueError(f"embeddings have {V} rows but the network has "
                             f"{net.node_count} nodes")
    sq = np.einsum("nd,nd->n", embeddings, embeddings)
    if not np.isfinite(8.0 * sq).all():
        raise ValueError(f"{task}: embeddings contain inf/NaN or squared "
                         f"norms that overflow")
    return sq


# ---------------------------------------------------------------------------
# distance bounds and matrix-product tiles, shared by reconstruction and
# recommendation

TILE_QUERIES = 128      # queries scored at a time
TILE_COLUMNS = 2048     # candidate nodes scored at a time: 1 MiB of scores


def _norm_bounds(sq: np.ndarray, d: int) -> np.ndarray:
    """Upper bounds on the row norms from their computed squares ``sq``,
    with a relative and an absolute term: the latter covers squared norms
    that underflow, and keeps every bound above 0."""
    eps = np.finfo(np.float64).eps
    eta = np.finfo(np.float64).smallest_subnormal
    return (np.sqrt(sq) + np.sqrt(d * eta)) * (1.0 + (d + 2) * eps)


def _distance_slack(span, d: int, k: int = 0):
    """Delta = 4 (d + 4) (eps span^2 + eta), in units scaled by 4^k, with
    eps and eta float64's epsilon and smallest subnormal: for float64 rows
    a, b of length d with ||a|| + ||b|| <= span, any two of

    * the squared distance D = ||a - b||^2,
    * its einsum form, fl(sum_k fl(a_k - b_k)^2), as :func:`_pair_scores`
      sums it, and
    * its tile form, -fl(fl(2 g - q_a) - q_b), with g the matrix product's
      a.b and q_a, q_b the einsum squared norms,

    differ by at most Delta.

    Each sum of d products may run in any order, blocked over threads or
    fused into FMAs. With u = eps / 2 and gamma_n = n u / (1 - n u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), such a
    sum errs by at most gamma_d sum_k |x_k y_k| + 0.51 d eta for d below
    10^13: every op rounds by a factor 1 + delta with |delta| <= u, and each
    of the d products or fused steps may also underflow by eta / 2, while an
    add or a subtract that underflows is exact. So, with S = ||a|| + ||b||:

    * the einsum form rounds each difference by a factor 1 + delta and then
      sums the squares, so it is within E_1 = gamma_{d+2} D + 0.51 d eta of
      D;
    * q_a, q_b and g are within gamma_d of ||a||^2, ||b||^2 and a.b relative
      to ||a||^2, ||b||^2 and ||a|| ||b|| (Cauchy-Schwarz), plus 0.51 d eta
      each; doubling g is exact and the two subtracts round by factors
      1 + delta on values below 1.01 S^2, so the tile form is within
      E_2 = gamma_{d+3} S^2 + 2.1 d eta of D.

    As D <= S^2 and gamma_{d+3} <= 0.51 (d + 3) eps,
    E_1 + E_2 <= 1.02 (d + 3) eps S^2 + 2.61 d eta, which is below Delta,
    so any two of the three differ by at most Delta. The roundings in
    forming Delta itself are far below its margin."""
    eps = np.finfo(np.float64).eps
    eta = np.finfo(np.float64).smallest_subnormal
    return 4.0 * (d + 4) * (eps * np.ldexp(span, k) ** 2 + np.ldexp(eta, 2 * k))


PAIR_BLOCK = 2 ** 16             # candidate pairs streamed at a time
TILE_SHARE = 16                  # tiled: passes 1/min(d, 16) full or more
HYPERGEOMETRIC_LIMIT = 10 ** 9   # NumPy's hypergeometric takes counts below it


def _hypergeometric(good: int, bad: int, m: int,
                    rng: np.random.Generator) -> int:
    """The number of good items in a uniform draw of m distinct items from
    ``good`` good and ``bad`` bad ones, exactly, at any counts.

    Past NumPy's limit, each item is first kept with probability q (so that
    about m + 4 sqrt(m) are kept) and the draw taken from the kept ones: given
    how many are kept, they are a uniform subset, so a uniform m of them are a
    uniform m of all. A keep that falls short of m is redrawn."""
    total = good + bad
    if 2 * m > total:
        return good - _hypergeometric(good, bad, total - m, rng)
    if max(good, bad) < HYPERGEOMETRIC_LIMIT:
        return int(rng.hypergeometric(good, bad, m))
    # q < 1 (at most 3/4 with 2m <= total), so the counts shrink
    q = min((m + 4.0 * np.sqrt(m) + 4.0) / total, (total + m) / (2.0 * total))
    while True:
        kept_good = int(rng.binomial(good, q))
        kept_bad = int(rng.binomial(bad, q))
        if kept_good + kept_bad >= m:
            return _hypergeometric(kept_good, kept_bad, m, rng)


def _ascending_sample(size: int, k: int,
                      rng: np.random.Generator) -> np.ndarray:
    """k distinct integers drawn uniformly from [0, size), ascending, in
    O(k) time and memory.

    Past 4k + 16, each integer is kept with probability q (about
    k + 3 sqrt(k) kept) and a uniform k of the kept ones stay: given how
    many are kept, they are a uniform subset. A keep that falls short of k
    is redrawn. The kept integers come out ascending, as running sums of
    geometric gaps 1 + floor(E / -log(1 - q)) with E standard exponential,
    which is how NumPy's own geometric sampler inverts, in one vector pass."""
    if size <= 4 * k + 16:
        keep = np.zeros(size, dtype=bool)
        keep[rng.permutation(size)[:k]] = True
        return np.flatnonzero(keep)
    q = (k + 3.0 * np.sqrt(k) + 3.0) / size
    rate = -np.log1p(-q)

    def gaps(count):
        e = rng.standard_exponential(count)
        e /= rate
        gap = e.astype(np.int64)
        gap += 1
        return gap

    while True:
        kept = gaps(int(q * size + 4.0 * np.sqrt(q * size) + 8.0))
        kept[0] -= 1
        np.cumsum(kept, out=kept)
        while kept[-1] < size:
            kept = np.concatenate((kept,
                                   kept[-1] + np.cumsum(gaps(kept.shape[0]))))
        kept = kept[:np.searchsorted(kept, size)]
        if kept.shape[0] >= k:
            break
    return np.delete(kept, _ascending_sample(kept.shape[0], kept.shape[0] - k,
                                             rng))


def _edge_index(keys: np.ndarray, V: int):
    """(lo, hi, linear index over the upper triangle) of the sorted pair
    keys ``min * V + max``; the index ascends with the keys."""
    lo, hi = keys // V, keys % V
    return lo, hi, lo * (2 * V - lo - 1) // 2 + hi - lo - 1


def _past_edges(ranks: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Linear indices of the non-edges of the given ranks (non-empty,
    ascending) among all non-edges, where ``gaps[j]`` is the number of
    non-edges before the j-th edge (its ascending index minus j): non-edge
    r lies at r + #{j : gaps[j] <= r}. Only the gaps within the ranks'
    range are searched, each into the ranks: a gap counts for the ranks
    from the first one at or above it on, so the counts are the running
    sum of how many gaps start at each rank."""
    first, last = np.searchsorted(gaps, ranks[[0, -1]], side="right")
    starts = np.searchsorted(ranks, gaps[first:last], side="left")
    at = np.cumsum(np.bincount(starts, minlength=ranks.shape[0]))
    at += ranks
    at += first
    return at


def _draw_candidates(total: int, n: int, edge_at: np.ndarray,
                     rng: np.random.Generator | None):
    """(drawn edges, non-edge blocks) of a uniform draw of n distinct
    indices from [0, total), or of all of them when n == total: the
    positions of the drawn edges in the ascending ``edge_at``, and the
    drawn non-edges' indices in ascending blocks.

    A uniform n-subset holds a hypergeometric share of the edges; given that
    share, its edges and its non-edges are independent uniform subsets of
    each. The non-edges, ranked among themselves, are cut into consecutive
    spans of PAIR_BLOCK / (m / free) ranks for the m non-edges to draw; a
    span's share is hypergeometric given what the spans before it took, and
    spans with no share are skipped."""
    E = edge_at.shape[0]
    free = total - E
    drawn = (np.arange(E) if n == total else
             _ascending_sample(E, _hypergeometric(E, free, n, rng), rng))
    gaps = edge_at - np.arange(E)

    def blocks(left):
        span = max(PAIR_BLOCK, -(-PAIR_BLOCK * free // max(left, 1)))
        start = 0
        while left:
            size = min(span, free - start)
            if left == free - start:
                ranks = np.arange(start, start + size)
            else:
                ranks = _ascending_sample(
                    size, _hypergeometric(size, free - start - size, left,
                                          rng), rng)
                ranks += start
            if ranks.shape[0]:
                yield _past_edges(ranks, gaps)
            start += size
            left -= ranks.shape[0]

    return drawn, blocks(n - drawn.shape[0])


def _pair_scores(embeddings: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray:
    """``-||u_lo - u_hi||^2`` per pair, scored in chunks of PAIR_CHUNK pairs
    into one array."""
    scores = np.empty(lo.shape[0])
    for a in range(0, lo.shape[0], PAIR_CHUNK):
        at = slice(a, a + PAIR_CHUNK)
        diff = embeddings.take(lo[at], axis=0)
        diff -= embeddings.take(hi[at], axis=0)
        np.einsum("nd,nd->n", diff, diff, out=scores[at])
    return np.negative(scores, out=scores)


def _keep_best(best, scores, index, kmax):
    """The first kmax by -score of the shortlist ``best`` (scores, indices)
    followed by one block's non-edges. Blocks stream in ascending index, so
    a stable sort breaks ties by index, and a full shortlist admits only
    scores above its last."""
    keep = scores >= (np.partition(scores, -kmax)[-kmax]
                      if scores.shape[0] > kmax else -np.inf)
    if best[0].shape[0] == kmax:
        keep &= scores > best[0][-1]
    merged = [np.concatenate((old, new[keep]))
              for old, new in zip(best, (scores, index))]
    order = np.argsort(-merged[0], kind="stable")[:kmax]
    return [part[order] for part in merged]


def _tile_scores(embeddings: np.ndarray, sq: np.ndarray, i: np.ndarray,
                 j: np.ndarray, tile: np.ndarray) -> np.ndarray:
    """Scores of the (i, j) sorted by i, a band of rows at a time: the tile
    form 2 u_i.u_j - ||u_i||^2 - ||u_j||^2, with ``sq`` the squared norms
    and u_i.u_j read from float64 matrix products written into ``tile``.
    Each is within beta of its pair score, with beta the
    :func:`_distance_slack` of twice the largest :func:`_norm_bounds`.

    A band holds ``tile.size`` entries over min(V, TILE_COLUMNS) columns,
    and the columns its pairs reach are cut into tiles of at most
    TILE_COLUMNS."""
    rows = max(1, tile.shape[0] // min(embeddings.shape[0], TILE_COLUMNS))
    f = np.empty(i.shape[0])
    for r0 in range(int(i[0]), int(i[-1]) + 1, rows):
        a, b = np.searchsorted(i, (r0, r0 + rows))
        if a == b:
            continue
        r1 = int(i[b - 1]) + 1
        first, last = int(j[a:b].min()), int(j[a:b].max()) + 1
        for c0 in range(first, last, TILE_COLUMNS):
            c1 = min(c0 + TILE_COLUMNS, last)
            at = (slice(a, b) if last - first <= TILE_COLUMNS else
                  a + np.flatnonzero((j[a:b] >= c0) & (j[a:b] < c1)))
            product = np.matmul(
                embeddings[r0:r1], embeddings[c0:c1].T,
                out=tile[:(r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0))
            here = i[at] - r0
            here *= c1 - c0
            here += j[at]
            here -= c0
            f[at] = product.ravel().take(here)
        band = f[a:b]
        band *= 2.0
        band -= sq.take(i[a:b])
        band -= sq.take(j[a:b])
    return f


def _block_wins(pos: np.ndarray, ordered: np.ndarray, f: np.ndarray,
                width: float) -> tuple[int, np.ndarray]:
    """(doubled wins of the sorted ``pos`` over ``ordered``, the sorted
    ``f``: the sum of ``2 [p > v] + [p == v]`` over their pairs; ascending
    positions in ``f`` of the values within ``width`` of a positive, none
    at width 0, which only counts).

    The shorter array is searched into the longer: each pair adds 2 to the
    sum taken both ways round. Each value's neighbours in the other array
    tell which positives have a value within their window: every value
    near a positive is near its nearest positive on that side. Only then is
    each of ``f`` searched into those windows."""
    P, n = pos.shape[0], ordered.shape[0]
    if P > n:
        left = np.searchsorted(pos, ordered, side="left")
        right = np.searchsorted(pos, ordered, side="right")
        wins = 2 * P * n - int(left.sum() + right.sum())
    else:
        left = np.searchsorted(ordered, pos, side="left")
        right = np.searchsorted(ordered, pos, side="right")
        wins = int(left.sum() + right.sum())
    if not width:
        return wins, np.empty(0, dtype=np.int64)
    lo, hi = pos - width, pos + width
    if P > n:
        tie = right > left
        below = (left > 0) & (ordered <= hi[np.maximum(left - 1, 0)])
        above = (right < P) & (ordered >= lo[np.minimum(right, P - 1)])
        hit = np.zeros(P, dtype=bool)
        hit[left[tie]] = True
        hit[left[below] - 1] = True
        hit[right[above]] = True
    else:
        hit = (right > left) \
            | (left > 0) & (ordered[np.maximum(left - 1, 0)] >= lo) \
            | (right < n) & (ordered[np.minimum(right, n - 1)] <= hi)
    if not hit.any():
        return wins, np.empty(0, dtype=np.int64)
    lo, hi = lo[hit], hi[hit]
    # windows holding a value: those with lo <= value, less those below it
    return wins, np.flatnonzero(np.searchsorted(lo, f, side="right")
                                > np.searchsorted(hi, f, side="left"))


def _score_block(embeddings: np.ndarray, sq: np.ndarray, beta: float,
                 tile: np.ndarray | None, pos: np.ndarray, at: np.ndarray,
                 best, kmax: int):
    """(doubled AUC wins of the sorted edge scores ``pos`` over the
    ascending block ``at`` of non-edges, the shortlist ``best`` with the
    block added; see :func:`_keep_best`). Only the pair scores s count,
    though with a ``tile`` most pairs get only their tile scores f
    (:func:`_tile_scores`), within ``beta`` of s. The sorted f count the
    wins; the non-edges f leaves undecided get s in one :func:`_pair_scores`
    call, written over f: those within beta of an edge's score, which f and
    s might order differently, have their wins counted again, and those
    that might join the shortlist have f >= max(tau, last) - 2 beta, for
    tau the block's max(K)-th best f and last the full shortlist's last.

    The code widens those windows to 2 beta and 3 beta: forming p +- c beta
    for a score p (|p| <= 4.1 M^2 for M the largest row norm, while
    beta >= 80 eps M^2) rounds by less than beta / 30. On tie-heavy rows,
    such as all-zero ones, most f lie within 2 beta of an edge's score, so
    most pairs get s, once. With ``tile`` None, f is s and beta must be 0."""
    V = embeddings.shape[0]
    f = (_pair_scores(embeddings, *_decode_pairs(at, V)) if tile is None else
         _tile_scores(embeddings, sq, *_decode_pairs(at, V), tile))
    ordered = np.sort(f)
    wins, near = _block_wins(pos, ordered, f, 2.0 * beta)
    tau = ordered[-kmax] if ordered.shape[0] > kmax else -np.inf
    del ordered                 # so that it is gone at the shortlist's peak
    last = best[0][-1] if best[0].shape[0] == kmax else -np.inf
    keep = np.flatnonzero(f >= max(tau, last) - 3.0 * beta)
    if beta:
        seen = np.zeros(f.shape[0], dtype=bool)
        seen[near] = True
        rescore = np.concatenate((near, keep[~seen[keep]]))
        scores = _pair_scores(embeddings, *_decode_pairs(at[rescore], V))
        tiled, exact = f[near], scores[:near.shape[0]]
        f[rescore] = scores
        wins += _block_wins(pos, np.sort(exact), exact, 0.0)[0] \
            - _block_wins(pos, np.sort(tiled), tiled, 0.0)[0]
    return wins, _keep_best(best, f[keep], at[keep], kmax)


def reconstruction_metrics(embeddings: np.ndarray, net: TemporalNetwork,
                           k_list, sample_fraction: float = 1.0,
                           rng: np.random.Generator | None = None
                           ) -> MetricReport:
    """Precision@K and AUC of ranking node pairs against the static edges.

    Ties in the ranking break by ascending (min id, max id) so reports are
    reproducible. The candidates are all pairs or a uniform draw of
    round(sample_fraction * pairs) of them (see :func:`_draw_candidates`).
    Their edges get their pair scores (:func:`_pair_scores`) once, and
    their non-edges stream in ascending blocks of about PAIR_BLOCK pairs
    (:func:`_score_block`), scored one way per pass. If they fill at least
    1 / min(d, TILE_SHARE) of all pairs, mostly from matrix-product tiles
    within a bound beta (:func:`_tile_scores`), and again one by one only
    where the bound cannot settle the report (on tie-heavy rows, most
    pairs); if not, each by one pair score: on one thread of a 2-core x86
    VM a pair score cost about as much as a tile entry at d = 1, and as 20
    to 30 of them at d = 64. Either way the report is the one the pair
    scores give, at any BLAS thread count.

    Memory is O(PAIR_BLOCK + tile + edges + max K) at any V and fraction.
    A full pass takes O(V^2 d) time in matrix products; a sampled draw of
    n pairs takes O(n + spans) time, plus the tiles of its bands of rows
    on the tile route (V / 64 bands per pass above 2048 nodes).
    At V = 5794, d = 1, fraction 0.1 and 20k edges a pass peaks at 5.8 MiB
    (tracemalloc, all-zero rows).
    """
    sq = _checked_embeddings(embeddings, "reconstruction", net)
    V, d = embeddings.shape
    total = V * (V - 1) // 2
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must be in (0, 1]")
    n = total
    if sample_fraction < 1.0:
        if rng is None:
            raise ValueError("sampling candidate pairs requires an rng")
        n = max(1, int(round(sample_fraction * total)))
    ks = _distinct_keys(k_list, "K", int)
    for k in ks:
        if not 1 <= k <= n:
            raise ValueError(f"K={k} is below 1" if k < 1 else
                             f"K={k} exceeds the {n} candidate pairs")

    # The drawn edges are scored once; only non-edges stream in blocks.
    lo, hi, edge_at = _edge_index(net.edge_keys(), V)
    drawn, blocks = _draw_candidates(total, n, edge_at, rng)
    pos_scores = _pair_scores(embeddings, lo[drawn], hi[drawn])
    pos = np.sort(pos_scores)
    n_pos, n_neg = pos.shape[0], n - pos.shape[0]
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both positive and negative pairs")
    if n_neg * min(d, TILE_SHARE) >= total:
        beta = float(_distance_slack(2.0 * _norm_bounds(sq, d).max(), d))
        tile = np.empty(max(TILE_QUERIES * TILE_COLUMNS // 2, TILE_COLUMNS))
    else:
        beta, tile = 0.0, None

    # The AUC is the Mann-Whitney statistic, ties counted half, over the
    # positive-negative pairs; the wins are kept doubled, as an integer.
    kmax = max(ks)
    wins = 0
    best = [np.empty(0), np.empty(0, dtype=np.int64)]
    for at in blocks:
        counted, best = _score_block(embeddings, sq, beta, tile, pos, at,
                                     best, kmax)
        wins += counted
    # the positives join the non-edges' shortlist, ties by (lo, hi)
    order = np.lexsort((np.concatenate((best[1], edge_at[drawn])),
                        -np.concatenate((best[0], pos_scores))))[:kmax]
    hit = order >= best[0].shape[0]
    metrics = {f"precision@{k}": float(hit[:k].mean()) for k in ks}
    metrics["auc"] = wins / (2 * n_pos * n_neg)
    return MetricReport(task="reconstruction", metrics=metrics,
                        config={"task": "reconstruction",
                                "candidates": n,
                                "sample_fraction": sample_fraction,
                                "k_list": ",".join(map(str, ks))})


# ---------------------------------------------------------------------------
# node classification

def _stratified_split(labels: np.ndarray, n_classes: int, ratio: float,
                      rng: np.random.Generator):
    train_idx, test_idx = [], []
    for c in range(n_classes):
        idx = np.where(labels == c)[0]
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
    from the eval-splits stream of ``seed``. The ratios must be non-empty,
    lie in (0, 1) and not repeat: a repeat's metrics would overwrite the
    earlier split's.
    """
    _checked_embeddings(embeddings, "classification")
    if labels.n_classes < 2:
        raise ValueError("classification needs at least 2 classes")
    for ratio in train_ratios:
        if not 0.0 < float(ratio) < 1.0:
            raise ValueError(
                f"train ratio {_fmt(float(ratio))} is outside (0, 1)")
    keys = _distinct_keys(train_ratios, "train ratio",
                          lambda ratio: _fmt(float(ratio)))
    rng = substream(seed, "eval-splits")
    X = embeddings[labels.node_ids]
    y = labels.labels
    metrics = {}
    for ratio, key in zip(train_ratios, keys):
        train_idx, test_idx = _stratified_split(y, labels.n_classes,
                                                float(ratio), rng)
        clf = LogisticRegression().fit(X[train_idx], y[train_idx],
                                       labels.n_classes)
        pred = clf.predict(X[test_idx])
        macro, micro = f1_scores(y[test_idx], pred)
        metrics[f"macro_f1@{key}"] = macro
        metrics[f"micro_f1@{key}"] = micro
    return MetricReport(task="classification", metrics=metrics,
                        config={"task": "classification", "seed": seed,
                                "ratios": ",".join(keys),
                                "classes": labels.n_classes,
                                "labeled_nodes": len(labels)})


# ---------------------------------------------------------------------------
# temporal node recommendation

def _float32_filter(embeddings: np.ndarray,
                    sq: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, squared row norms, slack) of the float32 filter: the rows are
    the embeddings times s = 2^k, rounded to float32, with k chosen so that
    every scaled row norm is below 1, and ``slack[a]`` is beta_a below.

    For a query a and a node b, let x = s a and y = s b (exact), and let
    F(b) = fl32(fl32(||y'||^2) + fl32((-2 x') . y')) be the filter value,
    where x', y' are the float32 rows. It estimates phi(b) = s^2 r(b),
    r(b) = ||b||^2 - 2 a.b, which orders nodes as the distance to a does.
    With u = 2^-24 (float32's unit roundoff), t the smallest normal float32,
    M an upper bound on every ||y|| and N = ||x|| + M (N is in [0.5, 2],
    as s M is in [0.5, 1)):

    * rounding each scaled entry to float32 moves it by at most
      u |entry| + t, which covers float32's subnormal range, flushing it to
      zero, and the float64 scaling's own underflow; so ||x' - x|| and
      ||y' - y|| are at most w = u N + sqrt(d) t, and
      ||y'||^2 - 2 x'.y' differs from phi(b) by at most 4 w N + 3 w^2;
    * the float32 product and the add of ||y'||^2 err by at most
      gamma_{d+2} (N + 2w)^2 + 6 d t, with gamma_n = n u / (1 - n u)
      (Higham, Accuracy and Stability of Numerical Algorithms, 3.1) and
      the second term for products and partial sums that underflow.

    For d below 10^5 the two sum to E_a <= 2 (d + 6) u N^2 + 16 d t. The
    refine's float64 distance ``fl(||b - a||^2)`` is within Delta_a of
    r(b) + ||a||^2, with Delta_a the :func:`_distance_slack` of the span
    ||a|| + M / s; in scaled units, s^2 Delta_a = 4 (d + 4) (eps N^2 + s^2 eta).

    Let tau be the F of one of top_k distinct nodes, the largest of their
    F, so at least the top_k-th smallest F. Those top_k nodes have F <= tau
    and so scaled distances at most tau + s^2 ||a||^2 + E_a + s^2 Delta_a,
    and any node that ranks among the top top_k by distance, ties included,
    has F <= tau + 2 (E_a + s^2 Delta_a). The threshold tau + beta_a is
    itself rounded to float32, which costs at most u (|tau| + beta_a), with
    |tau| <= 1.1 N^2 as tau is an F value. So

        beta_a = (4 (d + 8) u N^2 + 32 d t + 2 s^2 Delta_a) (1 + 4 u),

    rounded to float32, covers all of it; the factor 1 + 4u also covers
    that rounding, and the float64 roundings in computing beta_a are far
    below u. The norms are the :func:`_norm_bounds` of ``sq``."""
    V, d = embeddings.shape
    u = 2.0 ** -24
    t = float(np.finfo(np.float32).tiny)
    norms = _norm_bounds(sq, d)
    top = norms.max()
    k = -int(np.frexp(top)[1])
    rows = np.empty((V, d), dtype=np.float32)
    np.ldexp(embeddings, k, out=rows, casting="same_kind")
    n2 = np.ldexp(norms + top, k) ** 2
    refine = _distance_slack(norms + top, d, k)
    slack = (4.0 * (d + 8) * u * n2 + 32.0 * d * t + 2.0 * refine) \
        * (1.0 + 4.0 * u)
    return rows, np.einsum("nd,nd->n", rows, rows), slack.astype(np.float32)


RUNS_PER_K = 4          # a tile's runs of columns per carried minimum


def _carry_minima(mins: np.ndarray, F: np.ndarray, run: int,
                  top_k: int) -> np.ndarray:
    """The carried minima ``mins`` (queries x carried) joined by the minimum
    of each run of ``run`` consecutive columns of the columns x queries
    tile F, the last run possibly shorter; only the top_k smallest are
    kept, largest last, once there are that many. Each minimum is the F of
    a distinct column."""
    whole = F.shape[0] - F.shape[0] % run
    parts = [mins, F[:whole].reshape(-1, run, F.shape[1]).min(axis=1).T]
    if whole < F.shape[0]:
        parts.append(F[whole:].min(axis=0)[:, None])
    mins = np.concatenate(parts, axis=1)
    if mins.shape[1] < top_k:
        return mins
    mins.partition(top_k - 1, axis=1)
    return mins[:, :top_k]


def temporal_recommendation(embeddings: np.ndarray, test_net: TemporalNetwork,
                            k_list) -> MetricReport:
    """Recall@K / Precision@K of ranking future neighbors for every node with
    held-out events. Candidates are all non-self nodes (historical neighbors
    are not excluded; noted in the report header).

    Nodes rank by the einsum distance ``||b - a||^2`` to the query a, ties
    by ascending node id, and only a shortlist is ranked. A float32 matrix
    product scores a tile of columns (nodes) against a tile of queries with
    F(b), an estimate of ``||b||^2 - 2 a.b`` on embeddings scaled by a power
    of two (see :func:`_float32_filter`), as columns x queries. With top_k =
    max(K) clamped to V - 1, the columns fall in runs of
    min(V, TILE_COLUMNS) // (RUNS_PER_K top_k) (at least 1) consecutive
    ones, and each query carries the top_k smallest run minima seen so far
    (:func:`_carry_minima`), with tau the largest of them (inf while fewer
    are seen). A tile adds to the query's shortlist every column with
    F <= tau + beta_a. The shortlisted nodes are ranked by their distance,
    and each query keeps its top top_k by (distance, id) across tiles.

    It is exact. Each run minimum is the F of a distinct column, so tau is
    the F of one of top_k distinct columns, the largest of theirs, at least
    the exact top_k-th smallest F, which is all the filter's bound needs.
    tau only falls as tiles are added, so every column within beta_a of the
    final tau is ranked, and those hold every node of the top top_k. A run
    of the query's own column alone has minimum inf, which only loosens
    tau. Memory is the float32 rows, 4 V d bytes, plus a tile's scores and
    its shortlist, ranked PAIR_CHUNK nodes at a time."""
    sq = _checked_embeddings(embeddings, "recommendation", test_net)
    V = embeddings.shape[0]
    ks = _distinct_keys(k_list, "K", int)
    if any(k < 1 for k in ks):
        raise ValueError("every K must be >= 1")
    truth = np.unique(np.concatenate([test_net.src * V + test_net.dst,
                                      test_net.dst * V + test_net.src]))
    if truth.size == 0:
        raise ValueError("no test events to recommend against")
    rows, row_sq, slack = _float32_filter(embeddings, sq)
    queries, n_hits = np.unique(truth // V, return_counts=True)
    top_k = min(max(ks), V - 1)
    ranked = np.empty((queries.size, top_k), dtype=np.int64)
    limit = np.finfo(np.float32).max
    rank = np.arange(top_k)
    run = max(1, min(TILE_COLUMNS, V) // (RUNS_PER_K * top_k))
    scores = np.empty(TILE_QUERIES * min(TILE_COLUMNS, V), dtype=np.float32)
    for start in range(0, queries.size, TILE_QUERIES):
        qs = queries[start:start + TILE_QUERIES]
        lead = rows[qs] * np.float32(-2.0)
        here = np.arange(qs.size)
        mins = np.empty((qs.size, 0), dtype=np.float32)
        best_dist = np.full((qs.size, top_k), np.inf)
        best_id = np.full((qs.size, top_k), V)
        for c0 in range(0, V, TILE_COLUMNS):
            columns = rows[c0:c0 + TILE_COLUMNS]
            width = columns.shape[0]
            F = np.matmul(columns, lead.T,
                          out=scores[:width * qs.size].reshape(width, -1))
            F += row_sq[c0:c0 + width, None]
            own = np.flatnonzero((qs >= c0) & (qs < c0 + width))
            F[qs[own] - c0, own] = np.inf
            mins = _carry_minima(mins, F, run, top_k)
            # tau is inf until top_k runs are seen, and every column but the
            # query's own is kept
            bound = np.full(qs.size, limit)
            if mins.shape[1] == top_k:
                np.minimum(mins[:, -1] + slack[qs], limit, out=bound)
            keep = np.flatnonzero(F <= bound)
            if keep.size == 0:
                continue
            col, row = np.divmod(keep, qs.size)
            col += c0
            # Each query's best top_k so far and its new candidates, by
            # (query, distance, id): a query's top_k lead its group.
            by = np.concatenate([np.repeat(here, top_k), row])
            dist = np.concatenate([
                best_dist.ravel(),
                np.negative(_pair_scores(embeddings, col, qs[row]))])
            ids = np.concatenate([best_id.ravel(), col])
            # two stable sorts, by distance, then by query, order as
            # lexsort((ids, dist, by)) would: within a query, equal
            # distances keep their input order, in which its carried
            # entries come first, with smaller ids than any new candidate,
            # and its new candidates follow in ascending column order. The
            # tile-local query index fits int16, which NumPy radix-sorts.
            order = np.argsort(dist, kind="stable")
            order = order[np.argsort(by.astype(np.int16)[order],
                                     kind="stable")]
            # the candidates come in column order: a query's group starts
            # after the candidates of the queries before it
            first = here * top_k
            first[1:] += np.cumsum(np.bincount(row, minlength=qs.size))[:-1]
            pick = order[first[:, None] + rank]
            best_dist, best_id = dist[pick], ids[pick]
        ranked[start:start + qs.size] = best_id
    keys = queries[:, None] * V + ranked
    got = np.cumsum(_in_sorted(truth, keys), axis=1)
    n_q = int(queries.size)
    metrics = {}
    for k in ks:
        g = got[:, min(k, top_k) - 1]
        # cumsum adds in query order, one term at a time; np.sum would pair
        # the terms and round differently
        metrics[f"recall@{k}"] = float(np.cumsum(g / n_hits)[-1]) / n_q
        metrics[f"precision@{k}"] = float(np.cumsum(g / k)[-1]) / n_q
    return MetricReport(task="recommendation", metrics=metrics,
                        config={"task": "recommendation",
                                "k_list": ",".join(str(k) for k in ks),
                                "queries": n_q,
                                "candidates": "all-non-self-nodes"})


# ---------------------------------------------------------------------------
# temporal link prediction

def _draw_non_edges(V: int, count: int, keys: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """``count`` distinct pair keys ``min * V + max``, ascending, drawn
    uniformly from the pairs not among the sorted ``keys``: a uniform
    subset of the non-edges' ranks, mapped past the edges."""
    free = V * (V - 1) // 2 - keys.shape[0]
    if count > free:
        raise ValueError(f"{count} non-edges requested but only {free} "
                         f"pairs are not edges")
    edge_at = _edge_index(keys, V)[2]
    lo, hi = _decode_pairs(_past_edges(_ascending_sample(free, count, rng),
                                       edge_at - np.arange(keys.shape[0])), V)
    return lo * V + hi


LINKPRED_FOLDS = 5


def _pair_design(embeddings: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """(d + 1, n) design of the pair keys ``min * V + max``: column k holds
    |u_i - u_j| of the k-th pair over a last entry 1, gathered from a
    transposed copy of the embeddings."""
    V, d = embeddings.shape
    Ut = np.ascontiguousarray(embeddings.T)
    design = np.empty((d + 1, keys.shape[0]))
    design[:d] = Ut.take(keys // V, axis=1)
    design[:d] -= Ut.take(keys % V, axis=1)
    np.abs(design[:d], out=design[:d])
    design[d] = 1.0
    return design


def temporal_link_prediction(embeddings: np.ndarray, test_net: TemporalNetwork,
                             full_net: TemporalNetwork,
                             seed: int) -> MetricReport:
    """Cross-validated accuracy/F1 of a binary classifier on |u_i - u_j|
    features, held-out edges against uniformly sampled never-linked pairs,
    over LINKPRED_FOLDS folds (fewer when either class has fewer rows).

    Each fold solves LogisticRegression's two-class objective with its
    Newton routine. Any two folds share (folds - 2) / folds of their
    training rows, so each fit starts from the fold before's optimum and
    solves with its last Hessian until a step fails to cut the gradient
    norm tenfold."""
    _checked_embeddings(embeddings, "link prediction", test_net, full_net)
    V = embeddings.shape[0]
    positives = test_net.edge_keys()
    if len(positives) < 2:
        raise ValueError("need at least 2 held-out edges")
    rng = substream(seed, "eval-splits")
    negatives = _draw_non_edges(V, len(positives), full_net.edge_keys(), rng)

    keys = np.concatenate([positives, negatives])
    y = np.concatenate([np.ones(len(positives), dtype=np.int64),
                        np.zeros(len(negatives), dtype=np.int64)])
    folds = max(2, min(LINKPRED_FOLDS, len(positives), len(negatives)))
    fold_of = np.empty(y.shape[0], dtype=np.int64)
    for cls in (0, 1):
        members = np.where(y == cls)[0]
        fold_of[rng.permutation(members)] = np.arange(members.size) % folds
    # rows in fold order: a fold's test rows are one slice and its training
    # rows the two around it, copied into buffers that every fold reuses
    order = np.argsort(fold_of, kind="stable")
    y = y[order]
    yf = y.astype(np.float64)
    design = _pair_design(embeddings, keys[order])
    n, D1 = y.shape[0], design.shape[0]
    sizes = np.bincount(fold_of, minlength=folds)
    ends = np.cumsum(sizes)
    most = D1 * (n - int(sizes.min()))
    train, weighted = np.empty(most), np.empty(most)
    theta, H = np.zeros(D1), None
    accs, f1s = [], []
    for lo, hi in zip((ends - sizes).tolist(), ends.tolist()):
        m = n - (hi - lo)
        Xt = train[:D1 * m].reshape(D1, m)
        np.concatenate([design[:, :lo], design[:, hi:]], axis=1, out=Xt)
        theta, H, _ = _binary_newton(
            Xt, np.concatenate([yf[:lo], yf[hi:]]), theta, H,
            weighted[:D1 * m].reshape(D1, m))
        pred = (theta @ design[:, lo:hi] > 0.0).astype(np.int64)
        truth = y[lo:hi]
        accs.append(float(np.mean(pred == truth)))
        f1s.append(class_f1(truth, pred, 1))
    return MetricReport(task="link_prediction",
                        metrics={"accuracy": float(np.mean(accs)),
                                 "f1": float(np.mean(f1s))},
                        config={"task": "link_prediction", "seed": seed,
                                "positives": len(positives), "folds": folds})


# ---------------------------------------------------------------------------
# scale prediction and trend forecast

def _growth_inputs(embeddings: np.ndarray, net_full: TemporalNetwork,
                   series_full: MacroSeries, train_end: int, t_end: int,
                   n_mode: str):
    """(training prefix through ``train_end``, affinity S over its edges,
    cumulative node counts of epochs ``train_end + 1 .. t_end``).

    The node counts are the observed ones, or a line extrapolated from the
    training prefix.
    """
    series_train = series_full.prefix(train_end)
    if n_mode == "observed":
        n_future = series_full.n[train_end:t_end]
    elif n_mode == "linear":
        n_future = macro_mod.linear_node_forecast(series_train,
                                                  t_end - train_end)
    else:
        raise ValueError(f"unknown n_mode {n_mode!r}")
    mask = net_full.time <= train_end
    S = macro_mod.edge_affinity(embeddings, net_full.src[mask],
                                net_full.dst[mask])
    return series_train, S, n_future


def scale_prediction(state: ModelState, net_full: TemporalNetwork,
                     t_next: int, train_end: int | None = None,
                     n_mode: str = "observed") -> MetricReport:
    """Cumulative edge count predicted at epoch ``t_next``.

    The model path rolls the growth equation forward from ``train_end`` (the
    last epoch the state was fitted on; defaults to ``t_next`` - 1).
    """
    series_full = compute_macro_series(net_full)
    T = int(series_full.epochs[-1])
    if train_end is None:
        if t_next < 2:
            raise ValueError(f"t_next={t_next} leaves no training epoch "
                             f"before it")
        train_end = t_next - 1
    if not 1 <= train_end < t_next:
        raise ValueError(f"train_end={train_end} is below 1" if train_end < 1
                         else "t_next must lie after the training window")
    if t_next > T:
        raise ValueError(f"t_next={t_next} beyond the observed series (T={T})")
    _checked_embeddings(state.embeddings, "scale prediction", net_full)
    series_train, S, n_future = _growth_inputs(
        state.embeddings, net_full, series_full, train_end, t_next, n_mode)
    forecast = macro_mod.forecast_scale(S, state.macro, series_train, n_future)
    predicted = int(np.floor(forecast[-1] + 0.5))
    actual = int(series_full.e[t_next - 1])
    return MetricReport(
        task="scale_prediction",
        metrics={"predicted_edges": predicted,
                 "actual_edges": actual,
                 "absolute_error": abs(predicted - actual)},
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
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError(f"train_fraction={train_fraction} is not in (0, 1]")
    series_full = compute_macro_series(net_full)
    T = len(series_full.epochs)
    train_epochs = int(np.floor(train_fraction * T))
    if train_epochs < 2:
        raise ValueError(f"train_fraction={train_fraction} leaves "
                         f"{train_epochs} < 2 training epochs")
    _checked_embeddings(state.embeddings, "trend forecast", net_full)
    series_train, S, n_future = _growth_inputs(
        state.embeddings, net_full, series_full, train_epochs, T, n_mode)
    params = macro_mod.fit_params(series_train, S)
    forecast = macro_mod.forecast_scale(S, params, series_train, n_future)
    observed = series_full.e[train_epochs:]
    rmse = float(np.sqrt(np.mean((forecast - observed) ** 2))) \
        if forecast.size else 0.0
    rows = list(zip(range(train_epochs + 1, T + 1), forecast.tolist(),
                    observed.tolist()))
    report = MetricReport(
        task="trend_forecast",
        metrics={"suffix_rmse": rmse, "horizon_epochs": T - train_epochs,
                 "fit_sse": macro_mod.macro_loss(series_train, S, params),
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
