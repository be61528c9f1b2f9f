"""Timestamped edge lists, per-node histories and network-scale series.

File format (UTF-8 text; a line whose first token starts with `#` is a
comment):

    src <ws> dst <ws> timestamp [<ws> weight]

Raw node ids are arbitrary tokens, mapped to dense integers in order of first
appearance in the time-sorted stream. Raw timestamps are compressed to
consecutive integer epochs 1..T over the distinct raw values, so every
time-dependent denominator downstream is evaluated at t >= 1.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ParseError(ValueError):
    """Malformed input file; message carries the offending line number."""


@dataclass(frozen=True)
class TemporalNetwork:
    """Immutable, time-sorted event stream with id and epoch tables."""

    src: np.ndarray           # (E,) dense source ids
    dst: np.ndarray           # (E,) dense target ids
    time: np.ndarray          # (E,) epoch indices, 1-based, non-decreasing
    weight: np.ndarray        # (E,) sampling weights, 1.0 when unweighted
    node_count: int
    raw_ids: tuple            # dense id -> raw token
    raw_epochs: tuple         # epoch-1 -> raw timestamp token
    weighted: bool = False
    self_loops_dropped: int = 0

    def __len__(self) -> int:
        return int(self.src.shape[0])

    @property
    def epoch_count(self) -> int:
        return len(self.raw_epochs)

    @cached_property
    def _id_lookup(self) -> dict:
        return dict(zip(self.raw_ids, range(len(self.raw_ids))))

    def edge_keys(self) -> np.ndarray:
        """Deduplicated undirected node pairs as sorted int64 keys
        ``min * node_count + max`` (so sorted by (min, max))."""
        lo = np.minimum(self.src, self.dst)
        hi = np.maximum(self.src, self.dst)
        return np.unique(lo * self.node_count + hi)

    def degrees(self) -> np.ndarray:
        """Temporal degree: number of events each node participates in."""
        return (np.bincount(self.src, minlength=self.node_count)
                + np.bincount(self.dst, minlength=self.node_count))

    def first_appearance_order(self) -> np.ndarray:
        """Node ids ordered by first appearance in the event stream.

        The order is preserved under any relabeling of the dense ids, which
        keeps samplers built on it equivariant to id permutations.
        """
        return self._first_appearances[0]

    @cached_property
    def _first_appearances(self) -> tuple[np.ndarray, np.ndarray]:
        """(node ids in order of first appearance, index of the event each
        first appears in), over the stream src_0, dst_0, src_1, dst_1, ...;
        computed once per network, as read-only arrays."""
        stream = np.stack([self.src, self.dst], axis=1).reshape(-1)
        _, first = np.unique(stream, return_index=True)
        first.sort()
        out = stream[first].astype(np.int64), first // 2
        for arr in out:
            arr.flags.writeable = False
        return out


# Code points that str.split() treats as whitespace: none lies above U+3000,
# so every higher code point maps to the final False entry.
_SPACE = np.array([chr(c).isspace() for c in range(0x3002)])


class _Records:
    """The lines of a text file that hold a record, split as ``str.split``
    splits them, and the errors found in them so far.

    The file is read once as UTF-8 with ``errors="surrogateescape"`` and
    universal newlines; a leading byte-order mark is skipped. A record is a
    line whose first token does not start with ``#``. A byte that is not
    UTF-8 fails its line, comment or not.
    """

    def __init__(self, path):
        with open(path, "r", encoding="utf-8-sig",
                  errors="surrogateescape") as fh:
            text = fh.read()
        self.tokens = np.array(text.split(), dtype=object)
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                              dtype="<u4")
        space = _SPACE[np.minimum(codes, _SPACE.size - 1)]
        starts = np.flatnonzero(~space & np.concatenate(([True], space[:-1])))
        newlines = np.flatnonzero(codes == ord("\n"))
        token_line = np.searchsorted(newlines, starts) + 1
        head = np.flatnonzero(np.diff(token_line, prepend=0))
        record = codes[starts[head]] != ord("#")
        self.line = token_line[head][record]
        self.first = head[record]
        self.count = np.diff(head, append=token_line.size)[record]
        self._errors = []
        bad = np.flatnonzero((codes >= 0xDC80) & (codes <= 0xDCFF))
        if bad.size:
            byte = int(codes[bad[0]]) - 0xDC00
            self._errors.append((int(np.searchsorted(newlines, bad[0])) + 1, 0,
                                 f"byte 0x{byte:02x} is not valid UTF-8"))

    def field(self, rows, k) -> np.ndarray:
        """Token k of each record in ``rows``."""
        return self.tokens[self.first[rows] + k]

    def flag(self, rows, hits, describe) -> None:
        """Note record ``rows[hits[0]]`` as failing with ``describe(hits[0])``
        when ``hits`` (ascending indices into ``rows``) is not empty. A line's
        checks are flagged in the order they run on it."""
        if len(hits):
            k = int(hits[0])
            self._errors.append((int(self.line[rows[k]]), len(self._errors),
                                 describe(k)))

    def raise_first(self) -> None:
        """Raise the error of the earliest failing line, if any."""
        if self._errors:
            line, _, message = min(self._errors)
            raise ParseError(f"line {line}: {message}")


def _floats(tokens: np.ndarray) -> np.ndarray:
    """Python ``float`` of each token, up to the first that does not parse:
    the result is shorter than ``tokens`` exactly when one does not."""
    toks = tokens.tolist()
    rest = iter(toks)
    try:
        return np.fromiter(map(float, rest), np.float64, len(toks))
    except ValueError:
        bad = len(toks) - operator.length_hint(rest) - 1
        return np.fromiter(map(float, toks[:bad]), np.float64, bad)


def _first_appearance_ids(tokens: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(dense id of each token, the distinct tokens), ids in order of first
    appearance."""
    seen = {}
    first = np.fromiter(map(seen.setdefault, tokens, itertools.count()),
                        np.int64, tokens.size)
    rank = np.empty(tokens.size, dtype=np.int64)
    rank[np.fromiter(seen.values(), np.int64, len(seen))] = np.arange(len(seen))
    return rank[first], tuple(seen)


def parse_edge_list(path, weighted: bool = False) -> TemporalNetwork:
    """Load a timestamped edge list.

    Self-loops are dropped (counted in ``self_loops_dropped``). Events are
    stably sorted by raw timestamp; dense node ids follow first appearance in
    the sorted stream. A malformed file raises ParseError naming its earliest
    offending line.
    """
    rec = _Records(path)
    fields = rec.count
    ok = (fields == 3) | (weighted & (fields == 4))
    want = "3 or 4" if weighted else "3"
    rec.flag(range(fields.size), np.flatnonzero(~ok),
             lambda k: f"expected {want} fields, got {fields[k]}")
    rows = np.flatnonzero(ok)
    stamp = rec.field(rows, 2)
    tval = _floats(stamp)
    rec.flag(rows, range(tval.size, rows.size),
             lambda k: f"bad timestamp {stamp[k]!r}")
    rec.flag(rows, np.flatnonzero(~np.isfinite(tval)),
             lambda k: f"non-finite timestamp {stamp[k]!r}")
    has_weight = fields[rows] == 4
    wrows = rows[has_weight]
    wtok = rec.field(wrows, 3)
    wval = _floats(wtok)
    rec.flag(wrows, range(wval.size, wrows.size),
             lambda k: f"bad weight {wtok[k]!r}")
    rec.flag(wrows, np.flatnonzero(~(np.isfinite(wval) & (wval > 0))),
             lambda k: f"weight must be positive, got {wtok[k]!r}")
    rec.raise_first()

    src_tok, dst_tok = rec.field(rows, 0), rec.field(rows, 1)
    loop = src_tok == dst_tok
    if loop.all():
        raise ParseError("no events found (empty or comment-only file)")
    weight = np.ones(rows.size)
    weight[has_weight] = wval
    keep = np.flatnonzero(~loop)
    keep = keep[np.argsort(tval[keep], kind="stable")]
    tval = tval[keep]
    new_epoch = np.concatenate(([True], tval[1:] != tval[:-1]))
    ids, raw_ids = _first_appearance_ids(
        np.stack([src_tok[keep], dst_tok[keep]], axis=1).reshape(-1))
    src = ids[0::2].copy()
    dst = ids[1::2].copy()
    time = np.cumsum(new_epoch, dtype=np.int64)
    weight = weight[keep]
    for arr in (src, dst, time, weight):
        arr.setflags(write=False)
    return TemporalNetwork(src=src, dst=dst, time=time, weight=weight,
                           node_count=len(raw_ids), raw_ids=raw_ids,
                           raw_epochs=tuple(stamp[keep][new_epoch]),
                           weighted=weighted,
                           self_loops_dropped=int(loop.sum()))


def write_edge_list(net: TemporalNetwork, path) -> None:
    """Serialize back to the text format (raw ids and raw timestamps; the
    weights, when kept, as the shortest text that reads back exactly)."""
    with open(path, "w", encoding="utf-8") as fh:
        for s, d, t, w in zip(net.src, net.dst, net.time, net.weight):
            line = f"{net.raw_ids[s]}\t{net.raw_ids[d]}\t{net.raw_epochs[t - 1]}"
            if net.weighted:
                line += f"\t{float(w)!r}"
            fh.write(line + "\n")


@dataclass(frozen=True)
class SnapshotArrays:
    """Pre-event histories of every event, padded to capacity h, both
    endpoints stacked as the engine reads them: side 0 is the source's,
    side 1 the target's.

    Entry [s, m] holds the state of side s's buffer just before event m;
    ``length`` gives its number of valid leading entries.
    """

    nodes: np.ndarray    # (2, E, h) int64, padded with 0
    times: np.ndarray    # (2, E, h) int64, padded with 0
    length: np.ndarray   # (2, E) int64


def snapshot_arrays(net: TemporalNetwork, h: int) -> SnapshotArrays:
    """Pre-event histories of every event, in stream order.

    A history holds the h most recent neighbors, oldest first, from events
    strictly before the event's epoch: same-epoch events enter the buffers
    only once the epoch advances, so an event never conditions on itself or
    on simultaneous events.

    The 2E incidences (node, neighbor, epoch), source before target within
    an event, are stably sorted by node once, which keeps each node's run in
    stream order and so sorted by (node, epoch). An incidence's entries from
    earlier epochs of its node end where its (node, epoch) group starts; the
    history is the last h entries before that point. Raises ValueError if
    the epochs of ``net`` ever decrease.
    """
    if h < 1:
        raise ValueError("history capacity h must be >= 1")
    time = np.asarray(net.time, dtype=np.int64)
    if np.any(time[1:] < time[:-1]):
        raise ValueError("event epochs must be non-decreasing")
    src = np.asarray(net.src, dtype=np.int64)
    dst = np.asarray(net.dst, dtype=np.int64)
    node = np.stack([src, dst], axis=1).reshape(-1)
    order = np.argsort(node, kind="stable")
    when = np.repeat(time, 2)[order]
    neighbor = np.stack([dst, src], axis=1).reshape(-1)[order]
    new_node = np.diff(node[order], prepend=-1) != 0
    new_epoch = new_node | (np.diff(when, prepend=0) != 0)
    rank = np.arange(order.size)
    node_start = np.maximum.accumulate(np.where(new_node, rank, 0))
    epoch_start = np.maximum.accumulate(np.where(new_epoch, rank, 0))
    position = np.empty_like(rank)
    position[order] = rank
    # (2, E): each event's source incidence over its target's
    at = np.ascontiguousarray(position.reshape(-1, 2).T)
    before = epoch_start[at]
    length = np.minimum(before - node_start[at], h)
    slot = np.arange(h)
    pos = (before - length)[..., None] + slot
    valid = slot < length[..., None]
    pos[~valid] = 0
    out = SnapshotArrays(nodes=np.where(valid, neighbor[pos], 0),
                         times=np.where(valid, when[pos], 0), length=length)
    for arr in (out.nodes, out.times, out.length):
        arr.setflags(write=False)
    return out


@dataclass(frozen=True)
class MacroSeries:
    """Cumulative node/edge counts per epoch plus per-epoch increments.

    ``delta_e[k] = e[k+1] - e[k]`` is the number of new temporal edges arriving
    at epoch ``epochs[k+1]``.
    """

    epochs: np.ndarray    # (T,) int64, consecutive 1..T
    n: np.ndarray         # (T,) float64, distinct nodes seen by each epoch
    e: np.ndarray         # (T,) float64, cumulative temporal edges
    delta_e: np.ndarray   # (T-1,) float64

    def __post_init__(self):
        if len(self.epochs) != len(self.n) or len(self.n) != len(self.e):
            raise ValueError("inconsistent series lengths")
        if len(self.delta_e) != max(len(self.e) - 1, 0):
            raise ValueError("delta_e length must be len(e) - 1")
        if np.any(np.diff(self.n) < 0) or np.any(np.diff(self.e) < 0):
            raise ValueError("cumulative counts must be non-decreasing")

    def prefix(self, epoch_count: int) -> "MacroSeries":
        k = int(epoch_count)
        if not 1 <= k <= len(self.epochs):
            raise ValueError(f"prefix length {k} out of range")
        return MacroSeries(self.epochs[:k], self.n[:k], self.e[:k],
                           self.delta_e[:max(k - 1, 0)])


def compute_macro_series(net: TemporalNetwork) -> MacroSeries:
    """Per-epoch cumulative counts; every event counts as one temporal edge.

    The series runs through the last epoch with an event, so a training
    window sliced from a longer network does not trail phantom zero-growth
    epochs.
    """
    if len(net) == 0:
        raise ValueError("empty network")
    T = int(net.time.max())
    e = np.cumsum(np.bincount(net.time, minlength=T + 1)[1:]).astype(np.float64)
    first_time = net.time[net._first_appearances[1]]
    n = np.cumsum(np.bincount(first_time, minlength=T + 1)[1:]).astype(np.float64)
    return MacroSeries(epochs=np.arange(1, T + 1, dtype=np.int64),
                       n=n, e=e, delta_e=np.diff(e))


def split_by_time(net: TemporalNetwork, t_split: int):
    """Train = events strictly before ``t_split``; test = events at/after it.

    Both halves share the parent's id and epoch tables.
    """
    T = net.epoch_count
    if not 1 < t_split <= T + 1:
        raise ValueError(f"t_split must be in (1, {T + 1}], got {t_split}")
    mask = net.time < t_split
    if not mask.any():
        raise ValueError("split would leave an empty training window")

    def subset(keep):
        return TemporalNetwork(src=net.src[keep], dst=net.dst[keep],
                               time=net.time[keep], weight=net.weight[keep],
                               node_count=net.node_count, raw_ids=net.raw_ids,
                               raw_epochs=net.raw_epochs, weighted=net.weighted,
                               self_loops_dropped=0)

    return subset(mask), subset(~mask)


@dataclass(frozen=True)
class LabelTable:
    """Dense class ids for a subset of nodes."""

    node_ids: np.ndarray   # (N,) int64
    labels: np.ndarray     # (N,) int64 in 0..n_classes-1
    n_classes: int

    def __len__(self) -> int:
        return int(self.node_ids.shape[0])


def parse_labels(path, net: TemporalNetwork) -> LabelTable:
    """Load `node_raw_id label` lines; label tokens are re-indexed densely.
    A malformed file raises ParseError naming its earliest offending line."""
    rec = _Records(path)
    fields = rec.count
    rec.flag(range(fields.size), np.flatnonzero(fields != 2),
             lambda k: f"expected 2 fields, got {fields[k]}")
    rows = np.flatnonzero(fields == 2)
    node_tok = rec.field(rows, 0)
    node = np.fromiter(map(net._id_lookup.get, node_tok, itertools.repeat(-1)),
                       np.int64, rows.size)
    rec.flag(rows, np.flatnonzero(node < 0),
             lambda k: f"unknown node id {node_tok[k]!r}")
    known = np.flatnonzero(node >= 0)
    dup = np.ones(known.size, dtype=bool)
    dup[np.unique(node[known], return_index=True)[1]] = False
    rec.flag(rows[known], np.flatnonzero(dup),
             lambda k: f"duplicate label for node {node_tok[known[k]]!r}")
    rec.raise_first()
    if not rows.size:
        raise ParseError("no labels found")
    labels, names = _first_appearance_ids(rec.field(rows, 1))
    return LabelTable(node_ids=node, labels=labels, n_classes=len(names))
