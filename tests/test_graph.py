import dataclasses
import functools
import os
import sys
import tracemalloc

import numpy as np
import pytest

import _oracles as orc
from conftest import net_from_events
from m2dne.graph import (MacroSeries, ParseError, TemporalNetwork,
                         _stable_order, compute_macro_series, parse_edge_list,
                         parse_labels, snapshot_arrays, split_by_time)
from m2dne.train import TrainData


class TestParseEdgeList:
    def test_minimal_two_timestamps(self, tmp_edges):
        net = parse_edge_list(tmp_edges("a b 100\nb c 100\nc a 200"))
        assert net.node_count == 3
        assert len(net) == 3
        assert net.epoch_count == 2
        assert sorted(set(net.time.tolist())) == [1, 2]

    def test_dense_ids_first_appearance(self, tmp_edges):
        net = parse_edge_list(tmp_edges("x y 1\nz x 2"))
        assert net.raw_ids == ("x", "y", "z")
        assert net.raw_ids.index("z") == 2

    def test_self_loop_dropped_with_count(self, tmp_edges):
        net = parse_edge_list(tmp_edges("a a 5\na b 5\n"))
        assert len(net) == 1
        assert net.self_loops_dropped == 1

    def test_unsorted_input_stable_sorted(self, tmp_edges):
        net = parse_edge_list(tmp_edges("a b 9\nc d 1\ne f 9\n"))
        assert net.time.tolist() == [1, 2, 2]
        # stable within equal time: (a,b) line precedes (e,f)
        assert net.raw_ids[net.src[1]] == "a"
        assert net.raw_ids[net.src[2]] == "e"

    def test_comments_and_blank_lines(self, tmp_edges):
        net = parse_edge_list(tmp_edges("# header\n\na b 1\n# trailing\n"))
        assert len(net) == 1

    def test_malformed_line_number(self, tmp_edges):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list(tmp_edges("a b 1\na b\n"))

    def test_bad_timestamp(self, tmp_edges):
        with pytest.raises(ParseError, match="timestamp"):
            parse_edge_list(tmp_edges("a b xyz\n"))

    def test_empty_file(self, tmp_edges):
        with pytest.raises(ParseError, match="no events"):
            parse_edge_list(tmp_edges("# nothing\n"))

    def test_weighted(self, tmp_edges):
        net = parse_edge_list(tmp_edges("a b 1 2.5\na c 2\n"), weighted=True)
        assert net.weight.tolist() == [2.5, 1.0]

    def test_weight_rejected_when_not_weighted(self, tmp_edges):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list(tmp_edges("a b 1 2.5\n"))

    @pytest.mark.skipif("M2DNE_EUCORE" not in os.environ,
                        reason="set M2DNE_EUCORE to the Eucore edge file")
    def test_eucore_statistics(self):
        net = parse_edge_list(os.environ["M2DNE_EUCORE"])
        assert net.node_count == 986
        assert len(net) == 332334
        assert net.epoch_count == 526
        train, test = split_by_time(net, 501)
        assert train.time.max() == 500
        assert len(train) + len(test) == len(net)


def history_rows(net, h, idx=None):
    """Per event of ``idx`` (every event, in stream order, by default), the
    (src, dst) histories that snapshot_arrays' gather returns, as tuples of
    (neighbor, time) pairs, each time the event's epoch less the age."""
    idx = np.arange(len(net)) if idx is None else idx
    nodes, ages, length = snapshot_arrays(net, h).take(idx)

    def entries(s, b):
        k = int(length[s, b])
        return tuple(zip(nodes[s, b, :k].tolist(),
                         (net.time[idx[b]] - ages[s, b, :k]).tolist()))

    return [(entries(0, b), entries(1, b)) for b in range(len(idx))]


def dense_stream(seed, n=400):
    """A network with dense epochs (many same-epoch events), hubs that exceed
    every capacity, nodes that appear once and repeated pairs."""
    rng = np.random.default_rng(seed)
    a = np.where(rng.random(n) < 0.3, 0, rng.integers(1, 40, n))
    b = (a + 1 + rng.integers(0, 39, n)) % 40
    events = list(zip(a.tolist(), b.tolist(),
                      np.sort(rng.integers(1, 30, n)).tolist()))
    events += [(40, 41, 30), (40, 41, 30), (41, 40, 31)]
    return net_from_events(events, node_count=42)


def oracle_rows(net, h):
    """history_oracle's histories of every event, as history_rows gives
    them."""
    stream = list(zip(net.src.tolist(), net.dst.tolist(), net.time.tolist()))
    return [(tuple(hs), tuple(hd))
            for hs, hd in orc.history_oracle(stream, h)]


class TestHistoryStream:
    def test_first_event_empty_buffers(self):
        net = net_from_events([(0, 1, 1)])
        assert history_rows(net, h=2) == [((), ())]

    def test_h1_eviction(self):
        # node 0 meets 1, 2, 3 at t=1,2,3; before t=3 only the t=2 neighbor
        net = net_from_events([(0, 1, 1), (0, 2, 2), (0, 3, 3)])
        assert history_rows(net, h=1)[2][0] == ((2, 2),)

    def test_four_node_hand_trace(self):
        events = [(0, 1, 1), (0, 2, 1), (1, 2, 2), (2, 3, 3), (0, 3, 3),
                  (3, 1, 4)]
        net = net_from_events(events)
        expected = [
            ((), ()),
            ((), ()),                              # same epoch as the first
            (((0, 1),), ((0, 1),)),
            (((0, 1), (1, 2)), ()),
            (((1, 1), (2, 1)), ()),
            (((2, 3), (0, 3)), ((0, 1), (2, 2))),  # capacity evicted (0, 1)
        ]
        assert history_rows(net, h=2) == expected

    def test_replay_is_pure(self):
        rng = np.random.default_rng(0)
        events = [(int(a), int(b), int(t)) for a, b, t in
                  zip(rng.integers(0, 8, 60), rng.integers(8, 16, 60),
                      np.sort(rng.integers(1, 12, 60)))]
        net = net_from_events(events)
        assert history_rows(net, 3) == history_rows(net, 3)

    def test_snapshot_invariants(self):
        rng = np.random.default_rng(1)
        events = [(int(a), int(a + 1 + b) % 10, int(t)) for a, b, t in
                  zip(rng.integers(0, 9, 200), rng.integers(0, 8, 200),
                      np.sort(rng.integers(1, 30, 200)))]
        events = [(a, b, t) for a, b, t in events if a != b]
        net = net_from_events(events, node_count=10)
        for t, rows in zip(net.time.tolist(), history_rows(net, 4)):
            for entries in rows:
                assert len(entries) <= 4
                assert all(tp < t for _, tp in entries)

    def test_arrays_match_stream(self):
        rng = np.random.default_rng(2)
        events = [(int(a), int(a + 1 + b) % 12, int(t)) for a, b, t in
                  zip(rng.integers(0, 11, 150), rng.integers(0, 10, 150),
                      np.sort(rng.integers(1, 25, 150)))]
        events = [(a, b, t) for a, b, t in events if a != b]
        net = net_from_events(events, node_count=12)
        assert history_rows(net, 3) == oracle_rows(net, 3)

    @pytest.mark.parametrize("h", [1, 2, 5, 9])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_arrays_match_oracle_at_every_capacity(self, h, seed):
        net = dense_stream(seed)
        assert history_rows(net, h) == oracle_rows(net, h)
        nodes, ages, length = snapshot_arrays(net, h).take(
            np.arange(len(net)))
        assert nodes.shape == ages.shape == (2, len(net), h)
        assert length.shape == (2, len(net))
        assert nodes.dtype == ages.dtype == length.dtype == np.int64
        pad = np.arange(h) >= length[..., None]
        assert not nodes[pad].any() and not ages[pad].any()
        assert (ages[~pad] >= 1).all()

    @pytest.mark.parametrize("h", [1, 3, 5])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_batches_drawn_with_replacement_match_oracle(self, h, seed):
        # unsorted ids with repeats, as sample_batch draws them
        net = dense_stream(seed)
        want = oracle_rows(net, h)
        rng = np.random.default_rng(seed)
        for size in (1, 7, 64, 512):
            idx = rng.integers(0, len(net), size)
            assert history_rows(net, h, idx) == [want[m] for m in idx]
            nodes, ages, length = snapshot_arrays(net, h).take(idx)
            assert nodes.shape == ages.shape == (2, size, h)
            pad = np.arange(h) >= length[..., None]
            assert not nodes[pad].any() and not ages[pad].any()

    def test_index_size_does_not_depend_on_capacity(self):
        # the index holds four int64 entries per incidence whatever h, and
        # nothing in it can be written
        net = dense_stream(7)
        sizes = []
        for h in (1, 9):
            index = snapshot_arrays(net, h)
            stored = [getattr(index, f.name)
                      for f in dataclasses.fields(index)
                      if isinstance(getattr(index, f.name), np.ndarray)]
            sizes.append(sum(arr.nbytes for arr in stored))
            for arr in stored:
                with pytest.raises(ValueError, match="read-only"):
                    arr.flat[0] = 0
        assert sizes == [4 * 2 * len(net) * 8] * 2

    def test_build_peak_within_twice_the_index(self):
        # each 2E-entry temporary is dropped after its last read; holding
        # them all at once peaked at 3.06 times the index
        rng = np.random.default_rng(8)
        E, V = 20_000, 4_000
        a = rng.integers(V, size=E)
        b = (a + 1 + rng.integers(V - 1, size=E)) % V
        net = net_from_events(list(zip(
            a.tolist(), b.tolist(),
            np.sort(rng.integers(1, 1001, E)).tolist())), node_count=V)
        tracemalloc.start()
        try:
            index = snapshot_arrays(net, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stored = sum(arr.nbytes for arr in (index.neighbor, index.when,
                                            index.end, index.length))
        assert peak <= 2 * stored

    def test_decreasing_epochs_rejected(self):
        net = net_from_events([(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        swapped = TemporalNetwork(
            src=net.src, dst=net.dst, time=net.time[[0, 2, 1]],
            weight=net.weight, node_count=net.node_count,
            raw_ids=net.raw_ids, epoch_count=net.epoch_count)
        with pytest.raises(ValueError, match="non-decreasing"):
            snapshot_arrays(swapped, 2)

    def test_capacity_validation(self):
        net = net_from_events([(0, 1, 1)])
        with pytest.raises(ValueError):
            snapshot_arrays(net, 0)


class TestMacroSeries:
    def test_single_event(self):
        series = compute_macro_series(net_from_events([(0, 1, 1)]))
        assert series.e.tolist() == [1.0]
        assert series.n.tolist() == [2.0]
        assert series.delta_e.tolist() == []

    def test_repeated_pair_counts_temporal_edges(self):
        series = compute_macro_series(net_from_events([(0, 1, 1), (0, 1, 2)]))
        assert series.e.tolist() == [1.0, 2.0]
        assert series.delta_e.tolist() == [1.0]

    def test_ten_event_hand_count(self):
        events = [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 1, 2), (2, 3, 2),
                  (3, 4, 3), (0, 4, 3), (1, 4, 3), (2, 4, 4), (0, 1, 4)]
        series = compute_macro_series(net_from_events(events))
        assert series.e.tolist() == [3.0, 5.0, 8.0, 10.0]
        assert series.n.tolist() == [3.0, 4.0, 5.0, 5.0]
        assert series.delta_e.tolist() == [2.0, 3.0, 2.0]

    def test_totals_match_network(self):
        rng = np.random.default_rng(3)
        events = [(int(a), int(a + 1 + b) % 9, int(t)) for a, b, t in
                  zip(rng.integers(0, 8, 80), rng.integers(0, 7, 80),
                      np.sort(rng.integers(1, 15, 80)))]
        events = [(a, b, t) for a, b, t in events if a != b]
        net = net_from_events(events)
        series = compute_macro_series(net)
        assert series.e[-1] == len(net)
        assert series.n[-1] == net.node_count
        assert np.all(np.diff(series.e) >= 0)
        assert np.all(np.diff(series.n) >= 0)


class TestMacroSeriesChecks:
    @pytest.mark.parametrize("fields,message", [
        ((np.array([1, 2]), np.array([2.0]), np.array([1.0]), np.zeros(0)),
         "inconsistent series lengths"),
        ((np.array([1, 2]), np.array([2.0, 2.0]), np.array([1.0]),
          np.zeros(0)), "inconsistent series lengths"),
        ((np.array([1, 2]), np.array([2.0, 2.0]), np.array([1.0, 2.0]),
          np.zeros(0)), "delta_e length must be len"),
        ((np.array([1, 2]), np.array([3.0, 2.0]), np.array([1.0, 2.0]),
          np.array([1.0])), "cumulative counts must be non-decreasing"),
        ((np.array([1, 2]), np.array([2.0, 2.0]), np.array([2.0, 1.0]),
          np.array([-1.0])), "cumulative counts must be non-decreasing")])
    def test_inconsistent_fields_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            MacroSeries(*fields)

    @pytest.mark.parametrize("k", [0, 5])
    def test_prefix_out_of_range_rejected(self, k):
        series = compute_macro_series(net_from_events(
            [(0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 3, 4)]))
        with pytest.raises(ValueError, match=f"prefix length {k} out of "):
            series.prefix(k)

    def test_empty_network_rejected(self):
        net = net_from_events([(0, 1, 1), (1, 2, 2)])
        _, empty = split_by_time(net, 3)
        with pytest.raises(ValueError, match="empty network"):
            compute_macro_series(empty)


class TestStreamArrays:
    @pytest.mark.parametrize("seed", range(4))
    def test_match_stream_oracle(self, seed):
        rng = np.random.default_rng(seed)
        V = 12
        events = []
        for _ in range(60):
            a = int(rng.integers(V))
            b = int((a + 1 + rng.integers(V - 1)) % V)
            events.append((a, b, int(rng.integers(1, 9))))
        net = net_from_events(events, node_count=V + 3)   # 3 unseen ids
        for part in (net, *split_by_time(net, net.epoch_count // 2 + 1)):
            src, dst = part.src.tolist(), part.dst.tolist()
            order, deg, n, e = orc.stream_counts_oracle(
                src, dst, part.time.tolist(), part.node_count)
            assert part.first_appearance_order().tolist() == order
            assert part.degrees().tolist() == deg
            series = compute_macro_series(part)
            assert series.n.tolist() == n
            assert series.e.tolist() == e
            pairs = sorted({(min(a, b), max(a, b)) for a, b in zip(src, dst)})
            assert part.edge_keys().tolist() == \
                [a * part.node_count + b for a, b in pairs]


class TestFirstAppearances:
    def test_cached_and_read_only(self):
        net = net_from_events([(0, 1, 1), (2, 1, 2), (3, 0, 2)], node_count=5)
        order = net.first_appearance_order()
        assert order is net.first_appearance_order()
        assert order.tolist() == [0, 1, 2, 3]
        assert net._first_appearances[1].tolist() == [0, 0, 1, 2]
        for arr in net._first_appearances:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    @pytest.mark.parametrize("bad,error", [(-1, ValueError),
                                           (5, IndexError)])
    def test_ids_outside_the_table_fail_loudly(self, bad, error):
        # counted into a node_count-sized table, an id outside it must not
        # land in another node's slot
        net = net_from_events([(0, 1, 1), (bad, 2, 2)], node_count=3)
        with pytest.raises(error):
            net.first_appearance_order()

    def test_train_data_finds_them_once(self, monkeypatch):
        # the negative table's order and the growth series share one pass
        real = TemporalNetwork.__dict__["_first_appearances"].func
        calls = []

        def counted(net):
            calls.append(net)
            return real(net)

        prop = functools.cached_property(counted)
        prop.__set_name__(TemporalNetwork, "_first_appearances")
        monkeypatch.setattr(TemporalNetwork, "_first_appearances", prop)
        net = net_from_events([(0, 1, 1), (2, 1, 2), (3, 0, 2), (1, 3, 3)])
        TrainData(net, 2)
        compute_macro_series(net)
        assert len(calls) == 1


class TestRadixOrder:
    @pytest.mark.parametrize("top", [0, 2**16 - 1, 2**16, 2**16 + 1,
                                     2**32 + 5])
    def test_matches_stable_argsort(self, top):
        # few distinct keys, so each is tied many times; top % 2**16 has the
        # low digit of top
        rng = np.random.default_rng(top % 97)
        pool = np.append(rng.integers(top + 1, size=20), [top, top % 2**16])
        keys = rng.choice(pool, size=3000)
        keys[0] = top
        got = _stable_order(keys)
        assert np.array_equal(got, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("keys", [[], [7], [2**40]])
    def test_short_arrays(self, keys):
        keys = np.array(keys, dtype=np.int64)
        assert np.array_equal(_stable_order(keys),
                              np.argsort(keys, kind="stable"))

    def test_negative_keys_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _stable_order(np.array([3, -1, 2]))

    @pytest.mark.parametrize("h", [1, 3])
    def test_ids_past_one_digit_match_oracles(self, h):
        # 60 ids, half at or past 2**16, whose low 16 bits repeat those of
        # the ids below it
        rng = np.random.default_rng(11)
        low = rng.choice(4000, size=30, replace=False)
        ids = np.concatenate([low, low + 2**16])
        a, b = rng.choice(ids, size=(2, 400))
        keep = a != b
        events = list(zip(a[keep].tolist(), b[keep].tolist(),
                          np.sort(rng.integers(1, 40, keep.sum())).tolist()))
        net = net_from_events(events, node_count=70_000)
        assert net.src.max() >= 2**16 and net.dst.max() >= 2**16
        for part in (net, *split_by_time(net, 20)):
            assert history_rows(part, h) == oracle_rows(part, h)
            order, *_ = orc.stream_counts_oracle(
                part.src.tolist(), part.dst.tolist(), part.time.tolist(),
                part.node_count)
            assert part.first_appearance_order().tolist() == order
            pairs = list(zip(part.src.tolist(), part.dst.tolist()))
            assert part._first_appearances[1].tolist() == [
                next(m for m, pair in enumerate(pairs) if v in pair)
                for v in order]


class TestSplitByTime:
    EVENTS = [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 1, 2), (2, 3, 2),
              (3, 4, 3), (0, 4, 3), (1, 4, 3), (2, 4, 4), (0, 1, 4)]

    def test_split_past_end_gives_empty_test(self):
        net = net_from_events(self.EVENTS)
        train, test = split_by_time(net, net.epoch_count + 1)
        assert len(train) == len(net)
        assert len(test) == 0

    def test_median_split_hand_count(self):
        net = net_from_events(self.EVENTS)
        train, test = split_by_time(net, 3)
        assert len(train) == 5
        assert len(test) == 5
        assert train.time.max() == 2
        assert test.time.min() == 3

    def test_shares_parent_maps(self):
        net = net_from_events(self.EVENTS)
        train, test = split_by_time(net, 3)
        assert train.node_count == net.node_count == test.node_count
        assert train.raw_ids == net.raw_ids

    def test_empty_train_rejected(self):
        net = net_from_events(self.EVENTS)
        with pytest.raises(ValueError):
            split_by_time(net, 1)

    def test_out_of_range_rejected(self):
        net = net_from_events(self.EVENTS)
        with pytest.raises(ValueError):
            split_by_time(net, net.epoch_count + 2)

    def test_held_out_half_split_before_its_events_rejected(self):
        # the held-out half keeps the parent's epochs, but none of its
        # events lies before epoch 3
        _, test = split_by_time(net_from_events(self.EVENTS), 3)
        with pytest.raises(ValueError,
                           match="split would leave an empty training window"):
            split_by_time(test, 2)


class TestParseLabels:
    def test_two_classes(self, tmp_edges):
        net = parse_edge_list(tmp_edges("a b 1\nc a 2"))
        table = parse_labels(tmp_edges("a red\nb blue\nc red\n", "labels"), net)
        assert table.n_classes == 2
        assert len(table) == 3
        assert table.labels[table.node_ids == net.raw_ids.index("c")][0] == 0

    def test_unknown_node_named(self, tmp_edges):
        net = parse_edge_list(tmp_edges("a b 1"))
        with pytest.raises(ParseError, match="zzz"):
            parse_labels(tmp_edges("zzz red\n", "labels"), net)

    def test_five_class_histogram(self, tmp_edges):
        nodes = [f"n{k}" for k in range(12)]
        edges = "\n".join(f"{nodes[k]} {nodes[(k + 1) % 12]} {k + 1}"
                          for k in range(12))
        net = parse_edge_list(tmp_edges(edges))
        per_class = {"c0": 4, "c1": 3, "c2": 2, "c3": 2, "c4": 1}
        lines, k = [], 0
        for cls, count in per_class.items():
            for _ in range(count):
                lines.append(f"{nodes[k]} {cls}")
                k += 1
        table = parse_labels(tmp_edges("\n".join(lines), "labels"), net)
        assert table.n_classes == 5
        hist = np.bincount(table.labels, minlength=5).tolist()
        assert hist == [4, 3, 2, 2, 1]

    def test_duplicate_rejected(self, tmp_edges):
        net = parse_edge_list(tmp_edges("a b 1"))
        with pytest.raises(ParseError, match="duplicate"):
            parse_labels(tmp_edges("a red\na blue\n", "labels"), net)


class TestUndecodableBytes:
    def test_edge_list_names_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"a b 1\r\nc d 2\r\nx\xff\xfey e 3\r\n")
        with pytest.raises(ParseError, match=r"line 3: byte 0xff"):
            parse_edge_list(str(path))

    def test_labels_name_line(self, tmp_edges, tmp_path):
        net = parse_edge_list(tmp_edges("a b 1"))
        path = tmp_path / "labels.tsv"
        path.write_bytes(b"a red\nb bl\xc3ue\n")
        with pytest.raises(ParseError, match=r"line 2: byte 0xc3"):
            parse_labels(str(path), net)

    def test_utf8_tokens_still_parse(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_bytes("\u00e9 \u6771 1\n".encode("utf-8"))
        assert parse_edge_list(str(path)).raw_ids == ("\u00e9", "\u6771")


def _assert_parses_as_oracle(path, net):
    """Each parser gives the oracle's fields, or both raise ParseError with
    the same message."""
    def outcome(parse, *args):
        try:
            result = parse(path, *args)
        except ParseError as exc:
            return "error", str(exc)
        return "ok", {name: (value.dtype, value.tolist())
                      if isinstance(value, np.ndarray) else value
                      for name, value in vars(result).items()
                      if not name.startswith("_")}

    for weighted in (False, True):
        assert outcome(parse_edge_list, weighted) == \
            outcome(orc.parse_edge_list_oracle, weighted)
    assert outcome(parse_labels, net) == outcome(orc.parse_labels_oracle, net)


LABEL_BASE = b"a b 1\nc n1 2\n"

ORACLE_CASES = {
    "crlf_lone_cr_no_trailing_newline": b"a b 1\r\nb c 2\rc a 3",
    "unicode_separators": "a\tb\u00a01\nb\u3000c\x1c2\nc\x1cred\n".encode(),
    "indented_comments_and_hash_in_token":
        b"  # note\na b#c 1\n\t#x y 2\nb#c blue\n",
    "only_self_loops": b"a a 1\nb b 2\n",
    "one_epoch_three_spellings": b"a b 1\nb c 1.0\nc a 1e0\nc n1 2\n",
    "weighted_lines": b"a b 1 2.5\nb c 2\nc a 3 0.5\n",
    "field_count_before_bad_byte": b"a b 1\na b\n\xff c 3\n",
    "bad_byte_on_comment_line": b"a b 1\n# \xfe comment\nb c 2\n",
    "bad_timestamp_before_bad_weight": b"a b 1 x\nb c y 2\n",
    "label_duplicate_after_unknown": b"a red\nzz blue\na blue\n",
    "many_ties_sort_stably": "".join(f"n{k} m{k} {k % 3}\n"
                                     for k in range(60)).encode(),
    "byte_order_mark_before_token": b"\xef\xbb\xbfa b 1\nb a 2\n",
    "byte_order_mark_before_comment": b"\xef\xbb\xbf# header\na b 1\n",
    "byte_order_mark_labels": b"\xef\xbb\xbfa red\nn1 blue\n",
}


@pytest.mark.parametrize("data", list(ORACLE_CASES.values()),
                         ids=list(ORACLE_CASES))
def test_parsers_match_oracle(tmp_path, data):
    net = parse_edge_list(_write(tmp_path, "base", LABEL_BASE))
    _assert_parses_as_oracle(_write(tmp_path, "case", data), net)


def test_space_table_matches_str_split():
    from m2dne.graph import _SPACE
    assert _SPACE.tolist() == [chr(c).isspace() for c in range(_SPACE.size)]
    assert not _SPACE[-1]
    assert not any(chr(c).isspace()
                   for c in range(_SPACE.size, sys.maxunicode + 1))


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def _fuzz_lines():
    st = pytest.importorskip("hypothesis.strategies")
    token = st.sampled_from([b"a", b"b", b"c", b"n1", b"\xc3\xa9", b"#x",
                             b"a#b", b"red"])
    stamp = st.one_of(
        st.sampled_from([b"1", b"1.0", b"1e0", b"2", b"-0", b"0", b"1e308"]),
        st.sampled_from([b"1e309", b"-1e309", b"nan", b"inf", b"0x10",
                         b"1_0", b""]))
    weight = st.one_of(st.just(b""), st.sampled_from([b"2.5", b"1e-3"]),
                       st.sampled_from([b"0", b"-1", b"nan", b"1e400", b"w"]))
    sep = st.sampled_from([b" ", b"\t", b"  ", "\u00a0".encode(),
                           "\u3000".encode(), b"\x1c"])
    indent = st.sampled_from([b"", b" ", b"\t"])
    field_line = st.builds(
        lambda lead, gap, *parts: lead + gap.join(p for p in parts if p),
        indent, sep, token, token, stamp, weight)
    comment = st.builds(lambda lead, body: lead + b"#" + body, indent,
                        st.sampled_from([b"", b" note", b"x y", b" \xfe"]))
    line = st.one_of(field_line, field_line, field_line, field_line, comment,
                     st.binary(max_size=12))
    return st.builds(
        lambda bom, lines, dup, newline, tail: bom
        + newline.join(lines + lines[:dup]) + tail * newline,
        st.sampled_from([b"", b"\xef\xbb\xbf"]),
        st.lists(line, max_size=8), st.integers(0, 3),
        st.sampled_from([b"\n", b"\r\n", b"\r"]), st.booleans())


class TestParserFuzz:
    """Any byte input parses as the line-by-line oracle parses it, or raises
    the same ParseError."""

    def test_edge_list_and_labels(self, tmp_path):
        hyp = pytest.importorskip("hypothesis")
        net = parse_edge_list(_write(tmp_path, "base", LABEL_BASE))

        @hyp.settings(max_examples=300, deadline=None, database=None)
        @hyp.given(_fuzz_lines())
        def check(data):
            _assert_parses_as_oracle(_write(tmp_path, "fuzz", data), net)

        check()
