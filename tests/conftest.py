import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from m2dne.graph import TemporalNetwork  # noqa: E402
from m2dne.micrograd import (EventBatch, _NodeTable, _Side,  # noqa: E402
                             _blocks, _row_floats, batch_loss_and_grads)
from m2dne.util import Workspace  # noqa: E402

# the parameter groups a training step updates and gradcheck verifies; the
# growth scalars (zeta_raw, gamma, theta) are the growth fit's
STEPPED_GROUPS = ("embeddings", "att_vector", "local_weight", "s_weight",
                  "decay_raw")

BENCH = Path(__file__).resolve().parent.parent / "bench"

try:
    from hypothesis import settings
except ImportError:   # the hypothesis tests skip themselves
    pass
else:
    # tier-1 draws the same examples on every run, so a run that passes
    # ran the same code as the last; `--hypothesis-profile=explore` draws
    # fresh ones. Each test keeps its own max_examples.
    settings.register_profile("derandomized", derandomize=True)
    settings.register_profile("explore", derandomize=False)
    settings.load_profile("derandomized")


@pytest.fixture
def bench_run(monkeypatch):
    """bench/run.py imported with the environment it pins restored after;
    the benchmark's other modules import from ``bench/`` too."""
    monkeypatch.syspath_prepend(str(BENCH))
    saved = dict(os.environ)
    try:
        import run
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return run


def net_from_events(events, node_count=None, weights=None):
    """Build a TemporalNetwork directly from (src, dst, time) triples.

    Ids are taken literally as dense ids; times are compressed to consecutive
    epochs starting at 1, preserving order.
    """
    events = sorted(enumerate(events), key=lambda kv: (kv[1][2], kv[0]))
    src = np.array([e[1][0] for e in events], dtype=np.int64)
    dst = np.array([e[1][1] for e in events], dtype=np.int64)
    raw_t = [e[1][2] for e in events]
    distinct = sorted(set(raw_t))
    epoch_of = {rt: k + 1 for k, rt in enumerate(distinct)}
    time = np.array([epoch_of[rt] for rt in raw_t], dtype=np.int64)
    if node_count is None:
        node_count = int(max(src.max(), dst.max())) + 1
    if weights is None:
        w = np.ones(len(events))
    else:
        w = np.asarray([weights[e[0]] for e in events], dtype=np.float64)
    return TemporalNetwork(src=src, dst=dst, time=time, weight=w,
                           node_count=node_count,
                           raw_ids=tuple(str(v) for v in range(node_count)),
                           epoch_count=len(distinct))


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test; returns the list that collects the
    positional arguments of each call."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def padded_rows(hists, t, h=None):
    """(B, h) node and age rows plus the lengths of B histories, lists of
    (neighbor, time) pairs, at event times t (one, or one per history): an
    entry's age is t - time, 0 on padding. h defaults to the longest
    history's length, at least 1."""
    if h is None:
        h = max(max(len(hist) for hist in hists), 1)
    t = np.broadcast_to(t, (len(hists),))
    nodes = np.zeros((len(hists), h), dtype=np.int64)
    ages = np.zeros((len(hists), h), dtype=np.int64)
    for b, hist in enumerate(hists):
        for k, (p, tp) in enumerate(hist):
            nodes[b, k], ages[b, k] = p, t[b] - tp
    return nodes, ages, np.array([len(hist) for hist in hists], dtype=np.int64)


def stacked_rows(src_hists, dst_hists, t):
    """The histories of B events' sources and targets at event times t as
    EventBatch holds them: (2, B, h) node and age rows and (2, B) lengths,
    both sides padded to one width, as graph.SnapshotArrays.take pads."""
    h = max(max(len(hist) for hist in src_hists + dst_hists), 1)
    return tuple(map(np.stack, zip(padded_rows(src_hists, t, h),
                                   padded_rows(dst_hists, t, h))))


def one_event_batch(i, j, t, hist_i, hist_j):
    """EventBatch of the event (i, j, t) with the given pre-event histories,
    lists of (neighbor, time) pairs."""
    return EventBatch(np.array([i]), np.array([j]),
                      *stacked_rows([hist_i], [hist_j], t))


def engine_score(i, j, t, hist_i, hist_j, U, P):
    """The engine's score of (i, j, t), recovered from its one-event loss
    softplus(-score)."""
    none = np.zeros((2, 1, 0), dtype=np.int64)
    loss, _, _ = batch_loss_and_grads(one_event_batch(i, j, t, hist_i, hist_j),
                                      none, U, P, Workspace(),
                                      want_grads=False)
    return -math.log(math.expm1(loss))


def engine_side(centers, hist, U, P, t):
    """Engine forward caches of the given attention centers over one history
    at time t (a batch of one row)."""
    nodes, ages, length = padded_rows([hist], t)
    C, h, d = len(centers), nodes.shape[1], U.shape[1]
    table = _NodeTable(np.array([centers]), nodes, U, P,
                       np.empty(2 * (C + h) * d))
    # a one-event block's buffers hold two rows; the side takes the first
    _, bufs = next(_blocks(np.empty(2 * _row_floats(C, h, d)), 1, C, h, d))
    bufs = {key: buf[:1] if buf.ndim > 1 else buf for key, buf in bufs.items()}
    return _Side(table, table.rows_c, table.rows_h, ages, length, P, bufs)


def oracle_args(U, P, sb=0.0):
    """Embeddings and attention parameters as the oracles take them. ``sb``
    is the oracles' s-layer bias, which the engine does not have: it cancels
    in the neighborhood weight beta."""
    return (U.tolist(), P.att_vector.tolist(), P.local_weight.tolist(),
            P.s_weight.tolist(), sb, P.decay_raw.tolist())


def two_community_lines(seed=101, nodes=60, n_events=2000, within=0.9,
                        epochs=40, partners_per_node=4, bridges=10,
                        epoch_counts=None):
    """Two communities with a fixed within-community edge pool plus a few
    cross-community bridge pairs; events draw from the pools with the given
    within probability. ``epoch_counts`` optionally pins events per epoch."""
    rng = np.random.default_rng(seed)
    half = nodes // 2
    within_edges = set()
    for block in (range(half), range(half, nodes)):
        block = list(block)
        for v in block:
            others = [u for u in block if u != v]
            for u in rng.choice(others, partners_per_node, replace=False):
                within_edges.add((min(v, int(u)), max(v, int(u))))
    within_edges = sorted(within_edges)
    bridge_edges = set()
    while len(bridge_edges) < bridges:
        a = int(rng.integers(0, half))
        b = int(rng.integers(half, nodes))
        bridge_edges.add((a, b))
    bridge_edges = sorted(bridge_edges)
    pairs = []
    for _ in range(n_events):
        if rng.random() < within:
            pairs.append(within_edges[rng.integers(len(within_edges))])
        else:
            pairs.append(bridge_edges[rng.integers(len(bridge_edges))])
    if epoch_counts is None:
        times = np.sort(rng.integers(1, epochs + 1, n_events))
    else:
        assert sum(epoch_counts) == n_events
        times = np.repeat(np.arange(1, len(epoch_counts) + 1), epoch_counts)
    return "\n".join(f"{a} {b} {t}" for (a, b), t in zip(pairs, times))


def random_stream_lines(ids=200_000, n_events=4000, epochs=100, seed=1):
    """Uniformly random endpoints over ``ids`` raw ids (sources drawn first,
    then targets; self-loops dropped) at sorted uniform epochs. Only the ids
    that appear become nodes."""
    rng = np.random.default_rng(seed)
    src = rng.integers(ids, size=n_events)
    dst = rng.integers(ids, size=n_events)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    times = np.sort(rng.integers(1, epochs + 1, size=src.shape[0]))
    return "\n".join(f"{a} {b} {t}" for a, b, t in zip(src, dst, times))


@pytest.fixture
def tmp_edges(tmp_path):
    def write(text, name="edges.tsv"):
        path = tmp_path / name
        path.write_text(text if text.endswith("\n") else text + "\n")
        return str(path)
    return write
