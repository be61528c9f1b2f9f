"""Timestamped edge lists, per-node histories and network-scale series.

File format (UTF-8 text; a line whose first token starts with `#` is a
comment):

    src <ws> dst <ws> timestamp

Every other line holds exactly these three fields and is one event; a
line with any other field count is an error. Raw node ids are arbitrary
tokens, mapped to dense integers in order of first appearance in the
time-sorted stream. Raw timestamps are compressed to consecutive integer
epochs 1..T over the distinct raw values, so every time-dependent
denominator downstream is evaluated at t >= 1.
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
    """Immutable, time-sorted event stream, its id table and epoch count."""

    src: np.ndarray           # (E,) dense source ids
    dst: np.ndarray           # (E,) dense target ids
    time: np.ndarray          # (E,) epoch indices, 1-based, non-decreasing
    node_count: int
    raw_ids: tuple            # dense id -> raw token
    epoch_count: int          # parsed file's distinct timestamps
    self_loops_dropped: int = 0

    def __len__(self) -> int:
        return int(self.src.shape[0])

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
        # one extra slot takes the mark of every node the stream never names
        mark = np.zeros(stream.size + 1, dtype=bool)
        mark[_first_positions(stream, self.node_count)] = True
        first = np.flatnonzero(mark[:-1])
        out = stream[first].astype(np.int64), first // 2
        for arr in out:
            arr.flags.writeable = False
        return out


def _first_positions(keys: np.ndarray, size: int) -> np.ndarray:
    """Index of the first entry of each value 0..size-1 in ``keys``, or
    ``keys.size`` for a value that ``keys`` does not hold. A key outside
    0..size-1 raises (ValueError if negative, IndexError if too large)."""
    if keys.min(initial=0) < 0:
        raise ValueError("keys must be non-negative")
    first = np.full(size, keys.size)
    np.minimum.at(first, keys, np.arange(keys.size))
    return first


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """The permutation ``np.argsort(keys, kind="stable")`` gives, for
    non-negative integer keys: a least-significant-digit radix sort, one
    stable argsort of each 16-bit digit (which NumPy radix-sorts) for as many
    digits as ``keys.max()`` has."""
    if keys.min(initial=0) < 0:
        raise ValueError("keys must be non-negative")
    top = int(keys.max(initial=0))
    # the cast to uint16 keeps a key's low 16 bits
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while top >> shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


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
        space = _SPACE.take(np.minimum(codes, _SPACE.size - 1))
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


def parse_edge_list(path) -> TemporalNetwork:
    """Load a timestamped edge list.

    Self-loops are dropped (counted in ``self_loops_dropped``). Events are
    stably sorted by raw timestamp; dense node ids follow first appearance in
    the sorted stream. A malformed file raises ParseError naming its earliest
    offending line.
    """
    rec = _Records(path)
    fields = rec.count
    rec.flag(range(fields.size), np.flatnonzero(fields != 3),
             lambda k: f"expected 3 fields, got {fields[k]}")
    rows = np.flatnonzero(fields == 3)
    stamp = rec.field(rows, 2)
    tval = _floats(stamp)
    rec.flag(rows, range(tval.size, rows.size),
             lambda k: f"bad timestamp {stamp[k]!r}")
    rec.flag(rows, np.flatnonzero(~np.isfinite(tval)),
             lambda k: f"non-finite timestamp {stamp[k]!r}")
    rec.raise_first()

    src_tok, dst_tok = rec.field(rows, 0), rec.field(rows, 1)
    loop = src_tok == dst_tok
    if loop.all():
        raise ParseError("no events found (empty or comment-only file)")
    keep = np.flatnonzero(~loop)
    keep = keep[np.argsort(tval[keep], kind="stable")]
    tval = tval[keep]
    new_epoch = np.concatenate(([True], tval[1:] != tval[:-1]))
    ids, raw_ids = _first_appearance_ids(
        np.stack([src_tok[keep], dst_tok[keep]], axis=1).reshape(-1))
    src = ids[0::2].copy()
    dst = ids[1::2].copy()
    time = np.cumsum(new_epoch, dtype=np.int64)
    for arr in (src, dst, time):
        arr.setflags(write=False)
    return TemporalNetwork(src=src, dst=dst, time=time,
                           node_count=len(raw_ids), raw_ids=raw_ids,
                           epoch_count=int(time[-1]),
                           self_loops_dropped=int(loop.sum()))


@dataclass(frozen=True)
class SnapshotArrays:
    """Pre-event histories of every event as one incidence index: the 2E
    incidences (node, neighbor, epoch), source before target within an
    event, stably sorted by node. Side s's history of event m (side 0 the
    source's) is the ``length[s, m]`` entries before ``end[s, m]``;
    :meth:`take` gathers a batch's padded rows."""

    neighbor: np.ndarray   # (2E,) int64, sorted by node
    when: np.ndarray       # (2E,) int64 epochs, in the same order
    end: np.ndarray        # (2, E) int64, one past each history's last entry
    length: np.ndarray     # (2, E) int64, at most h
    h: int

    def take(self, idx: np.ndarray):
        """(nodes, ages, length) of events ``idx``, both sides stacked as the
        engine reads them: (2, B, h) neighbor ids, oldest first, and their
        ages t_event - t_neighbor, each padded with 0 past its (2, B)
        length."""
        end, length = self.end[:, idx], self.length[:, idx]
        slot = np.arange(self.h)
        pos = (end - length)[..., None] + slot
        valid = slot < length[..., None]
        pos[~valid] = 0
        ages = self.when[pos]
        # a history ends where its node's entries of the event's own epoch
        # begin, so the entry at ``end`` carries the event's epoch
        np.subtract(self.when[end][..., None], ages, out=ages)
        ages[~valid] = 0
        return np.where(valid, self.neighbor[pos], 0), ages, length


def snapshot_arrays(net: TemporalNetwork, h: int) -> SnapshotArrays:
    """The history index of ``net`` at capacity h.

    A history holds the h most recent neighbors, oldest first, from events
    strictly before the event's epoch: same-epoch events enter the buffers
    only once the epoch advances, so an event never conditions on itself or
    on simultaneous events. Each node's run of the sorted incidences is in
    stream order, so an incidence's earlier-epoch entries end where its
    (node, epoch) group starts. Raises ValueError if the epochs of ``net``
    ever decrease.
    """
    if h < 1:
        raise ValueError("history capacity h must be >= 1")
    time = np.asarray(net.time, dtype=np.int64)
    if np.any(time[1:] < time[:-1]):
        raise ValueError("event epochs must be non-decreasing")
    src = np.asarray(net.src, dtype=np.int64)
    dst = np.asarray(net.dst, dtype=np.int64)
    # 2E-entry temporaries are dropped after their last read. A history ends
    # where its (node, epoch) group starts and holds at most h of its run
    node = np.stack([src, dst], axis=1).reshape(-1)
    order = _stable_order(node)
    neighbor = np.stack([dst, src], axis=1).reshape(-1)[order]
    new_node = np.diff(node[order], prepend=-1) != 0
    when = np.repeat(time, 2)[order]
    new_epoch = new_node | (np.diff(when, prepend=0) != 0)
    rank = np.arange(order.size)
    position = np.empty_like(rank)
    position[order] = rank
    del node, order
    # (2, E): each event's source incidence over its target's
    at = np.ascontiguousarray(position.reshape(-1, 2).T)
    del position
    end = np.where(new_epoch, rank, 0)
    end = np.maximum.accumulate(end, out=end)[at]
    length = np.where(new_node, rank, 0)
    del rank
    length = np.maximum.accumulate(length, out=length)[at]
    np.subtract(end, length, out=length)
    out = SnapshotArrays(neighbor=neighbor, when=when, end=end,
                         length=np.minimum(length, h, out=length), h=h)
    for arr in (out.neighbor, out.when, out.end, out.length):
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

    Both halves share the parent's id table and epoch count.
    """
    T = net.epoch_count
    if not 1 < t_split <= T + 1:
        raise ValueError(f"t_split must be in (1, {T + 1}], got {t_split}")
    mask = net.time < t_split
    if not mask.any():
        raise ValueError("split would leave an empty training window")

    def subset(keep):
        return TemporalNetwork(src=net.src[keep], dst=net.dst[keep],
                               time=net.time[keep],
                               node_count=net.node_count, raw_ids=net.raw_ids,
                               epoch_count=net.epoch_count)

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
    named = node[known]
    dup = _first_positions(named, net.node_count)[named] != np.arange(known.size)
    rec.flag(rows[known], np.flatnonzero(dup),
             lambda k: f"duplicate label for node {node_tok[known[k]]!r}")
    rec.raise_first()
    if not rows.size:
        raise ParseError("no labels found")
    labels, names = _first_appearance_ids(rec.field(rows, 1))
    return LabelTable(node_ids=node, labels=labels, n_classes=len(names))
