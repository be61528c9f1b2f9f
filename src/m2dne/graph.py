"""Timestamped edge lists, per-node histories and network-scale series.

File format (UTF-8 text, `#` starts a comment line):

    src <ws> dst <ws> timestamp [<ws> weight]

Raw node ids are arbitrary tokens, mapped to dense integers in order of first
appearance in the time-sorted stream. Raw timestamps are compressed to
consecutive integer epochs 1..T over the distinct raw values, so every
time-dependent denominator downstream is evaluated at t >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def dense_id(self, raw: str) -> int:
        try:
            return self._id_lookup[raw]
        except AttributeError:
            lookup = {tok: i for i, tok in enumerate(self.raw_ids)}
            object.__setattr__(self, "_id_lookup", lookup)
            return self._id_lookup[raw]

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
        return _first_appearances(self)[0]


def _first_appearances(net: TemporalNetwork) -> tuple[np.ndarray, np.ndarray]:
    """(node ids in order of first appearance, index of the event each first
    appears in), over the stream src_0, dst_0, src_1, dst_1, ..."""
    stream = np.stack([net.src, net.dst], axis=1).reshape(-1)
    _, first = np.unique(stream, return_index=True)
    first.sort()
    return stream[first].astype(np.int64), first // 2


def _numbered_lines(fh):
    """(line number, line) of a text file opened with
    ``errors="surrogateescape"``; a line holding bytes that are not UTF-8
    raises ParseError naming it."""
    for lineno, line in enumerate(fh, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise ParseError(f"line {lineno}: byte 0x{byte:02x} is not "
                                 f"valid UTF-8") from None
        yield lineno, line


def parse_edge_list(path, weighted: bool = False) -> TemporalNetwork:
    """Load a timestamped edge list.

    Self-loops are dropped (counted in ``self_loops_dropped``). Events are
    stably sorted by raw timestamp; dense node ids follow first appearance in
    the sorted stream.
    """
    rows = []  # (raw_time_value, order, src_tok, dst_tok, time_tok, weight)
    dropped = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in _numbered_lines(fh):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            want = (3, 4) if weighted else (3,)
            if len(parts) not in want:
                raise ParseError(f"line {lineno}: expected "
                                 f"{' or '.join(str(w) for w in want)} fields, "
                                 f"got {len(parts)}")
            src_tok, dst_tok, time_tok = parts[0], parts[1], parts[2]
            try:
                tval = float(time_tok)
            except ValueError:
                raise ParseError(f"line {lineno}: bad timestamp {time_tok!r}") from None
            if not np.isfinite(tval):
                raise ParseError(f"line {lineno}: non-finite timestamp {time_tok!r}")
            w = 1.0
            if len(parts) == 4:
                try:
                    w = float(parts[3])
                except ValueError:
                    raise ParseError(f"line {lineno}: bad weight {parts[3]!r}") from None
                if not np.isfinite(w) or w <= 0:
                    raise ParseError(f"line {lineno}: weight must be positive, got {parts[3]!r}")
            if src_tok == dst_tok:
                dropped += 1
                continue
            rows.append((tval, len(rows), src_tok, dst_tok, time_tok, w))
    if not rows:
        raise ParseError("no events found (empty or comment-only file)")

    rows.sort(key=lambda r: (r[0], r[1]))  # stable in input order at equal times

    epoch_of = {}
    raw_epochs = []
    id_of = {}
    raw_ids = []
    src = np.empty(len(rows), dtype=np.int64)
    dst = np.empty(len(rows), dtype=np.int64)
    time = np.empty(len(rows), dtype=np.int64)
    weight = np.empty(len(rows), dtype=np.float64)
    for k, (tval, _, s_tok, d_tok, t_tok, w) in enumerate(rows):
        ep = epoch_of.get(tval)
        if ep is None:
            ep = len(raw_epochs) + 1
            epoch_of[tval] = ep
            raw_epochs.append(t_tok)
        for tok in (s_tok, d_tok):
            if tok not in id_of:
                id_of[tok] = len(raw_ids)
                raw_ids.append(tok)
        src[k] = id_of[s_tok]
        dst[k] = id_of[d_tok]
        time[k] = ep
        weight[k] = w

    for arr in (src, dst, time, weight):
        arr.setflags(write=False)
    return TemporalNetwork(src=src, dst=dst, time=time, weight=weight,
                           node_count=len(raw_ids), raw_ids=tuple(raw_ids),
                           raw_epochs=tuple(raw_epochs), weighted=weighted,
                           self_loops_dropped=dropped)


def write_edge_list(net: TemporalNetwork, path) -> None:
    """Serialize back to the text format (raw ids and raw timestamps)."""
    with open(path, "w", encoding="utf-8") as fh:
        for s, d, t, w in zip(net.src, net.dst, net.time, net.weight):
            line = f"{net.raw_ids[s]}\t{net.raw_ids[d]}\t{net.raw_epochs[t - 1]}"
            if net.weighted:
                line += f"\t{w:g}"
            fh.write(line + "\n")


@dataclass(frozen=True)
class SnapshotArrays:
    """Pre-event histories of every event, padded to capacity h.

    Row m holds the state of both endpoints' buffers just before event m.
    ``*_len`` gives the number of valid leading entries per row.
    """

    h: int
    src_nodes: np.ndarray   # (E, h) int64, padded with 0
    src_times: np.ndarray   # (E, h) int64
    src_len: np.ndarray     # (E,)  int64
    dst_nodes: np.ndarray
    dst_times: np.ndarray
    dst_len: np.ndarray


def snapshot_arrays(net: TemporalNetwork, h: int) -> SnapshotArrays:
    """Pre-event histories of every event, in stream order.

    A history holds the h most recent neighbors, oldest first, from events
    strictly before the event's epoch: same-epoch events enter the buffers
    only once the epoch advances, so an event never conditions on itself or
    on simultaneous events.

    The 2E incidences (node, neighbor, epoch), source before target within
    an event, are stably sorted by node once, which keeps each node's run in
    stream order. Keyed by node * (T + 2) + epoch, that array is sorted, so
    one searchsorted per endpoint finds where the node's entries from earlier
    epochs end; the history is the last h entries before that point. Raises
    ValueError if the epochs of ``net`` ever decrease.
    """
    if h < 1:
        raise ValueError("history capacity h must be >= 1")
    time = np.asarray(net.time, dtype=np.int64)
    if np.any(time[1:] < time[:-1]):
        raise ValueError("event epochs must be non-decreasing")
    E = len(net)
    src = np.asarray(net.src, dtype=np.int64)
    dst = np.asarray(net.dst, dtype=np.int64)
    span = int(time.max()) + 2 if E else 2
    node = np.stack([src, dst], axis=1).reshape(-1)
    order = np.argsort(node, kind="stable")
    when = np.repeat(time, 2)[order]
    keys = node[order] * span + when
    neighbor = np.stack([dst, src], axis=1).reshape(-1)[order]
    slot = np.arange(h)
    out = {}
    for name, ends in (("src", src), ("dst", dst)):
        before = np.searchsorted(keys, ends * span + time)
        length = np.minimum(before - np.searchsorted(keys, ends * span), h)
        pos = (before - length)[:, None] + slot
        valid = slot < length[:, None]
        pos[~valid] = 0
        out[name + "_nodes"] = np.where(valid, neighbor[pos], 0)
        out[name + "_times"] = np.where(valid, when[pos], 0)
        out[name + "_len"] = length
    for arr in out.values():
        arr.setflags(write=False)
    return SnapshotArrays(h=h, **out)


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
    first_time = net.time[_first_appearances(net)[1]]
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
    class_names: tuple = field(default_factory=tuple)

    def __len__(self) -> int:
        return int(self.node_ids.shape[0])


def parse_labels(path, net: TemporalNetwork) -> LabelTable:
    """Load `node_raw_id label` lines; label tokens are re-indexed densely."""
    ids, labels = [], []
    class_of = {}
    names = []
    seen_nodes = set()
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in _numbered_lines(fh):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 2 fields, got {len(parts)}")
            node_tok, label_tok = parts
            try:
                node = net.dense_id(node_tok)
            except KeyError:
                raise ParseError(f"line {lineno}: unknown node id {node_tok!r}") from None
            if node in seen_nodes:
                raise ParseError(f"line {lineno}: duplicate label for node {node_tok!r}")
            seen_nodes.add(node)
            if label_tok not in class_of:
                class_of[label_tok] = len(names)
                names.append(label_tok)
            ids.append(node)
            labels.append(class_of[label_tok])
    if not ids:
        raise ParseError("no labels found")
    return LabelTable(node_ids=np.asarray(ids, dtype=np.int64),
                      labels=np.asarray(labels, dtype=np.int64),
                      n_classes=len(names), class_names=tuple(names))
