"""Seeded workload inputs for the m2dne benchmark.

A workload's network grows over ``epochs`` epochs: nodes arrive on a fixed
schedule, each arriving node links into its own community with probability
WITHIN (else into a random other community), and every further event picks
its source by preferential attachment and its target from the source's
community with probability WITHIN. The seed decides who links to whom;
the per-epoch node and event counts depend only on the workload's shape, so
growth-fit metrics are comparable across seeds.

Besides the edge list the generator writes a label file (one community per
node) and a planted-community checkpoint in the v1 format: embeddings are a
community centre plus Gaussian noise, in the dense-id order the parser
assigns (first appearance in the time-sorted stream). The noise is large
against the centre spacing, so the communities overlap and the evaluation
classifiers run close to their iteration cap on every seed.

Run ``python3 bench/generate.py --workload fit-joint --seed 1 --out DIR``
to write a workload's files into DIR.
"""

from __future__ import annotations

import argparse
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPOCH_ZERO = 1_500_000_000   # raw timestamp of epoch 0; one epoch is an hour
EPOCH_SECONDS = 3600
CHECKPOINT_MAGIC = b"M2DNE\x00"
CHECKPOINT_VERSION = 1
WITHIN = 0.9          # share of links that stay inside the community
PLANTED_NOISE = 2.0   # per-row noise norm; community centres have norm ~1


@dataclass(frozen=True)
class Shape:
    nodes: int          # active nodes V (every one appears in the edge list)
    events: int         # E
    epochs: int         # T
    communities: int


def growth_counts(shape: Shape) -> tuple[np.ndarray, np.ndarray]:
    """Per-epoch (arriving nodes, events), fixed by the shape alone.

    Arrivals grow linearly; events beyond one per arrival follow a
    densifying n(t)**1.3 / t**0.2 curve times a fixed +-30% wiggle.
    """
    T, V, C = shape.epochs, shape.nodes, shape.communities
    if V < 2 * C or shape.events < V - C or T < 4:
        raise ValueError(f"shape {shape} cannot be generated")
    seeds = 2 * C   # epoch 1 opens with one linked pair per community
    ramp = np.arange(1, T + 1, dtype=np.float64)
    share = ramp / ramp.sum()
    arrivals = _apportion(V - seeds, share)
    arrivals[0] += seeds
    n = np.cumsum(arrivals).astype(np.float64)
    wiggle = 1.0 + 0.3 * np.random.default_rng(20190910).uniform(-1, 1, T)
    weights = n * np.power(np.maximum(n - 1.0, 1.0), 0.3) \
        / np.power(ramp, 0.2) * wiggle
    arrival_events = arrivals.copy()
    arrival_events[0] -= C           # each seed pair is a single event
    extra = shape.events - int(arrival_events.sum())
    if extra < 0:
        raise ValueError(f"shape {shape} has fewer events than arrivals")
    events = arrival_events + _apportion(extra, weights / weights.sum())
    if np.any(events < 1):
        raise ValueError(f"shape {shape} leaves an epoch without events")
    return arrivals, events


def _apportion(total: int, share: np.ndarray) -> np.ndarray:
    """Largest-remainder rounding of total * share to integers summing to total."""
    raw = total * share
    out = np.floor(raw).astype(np.int64)
    rest = int(total - out.sum())
    if rest:
        out[np.argsort(-(raw - out), kind="stable")[:rest]] += 1
    return out


class _Attach:
    """Endpoint lists for degree-proportional picks, global and per community."""

    def __init__(self, communities: int, rng: np.random.Generator):
        self.rng = rng
        self.all: list[int] = []
        self.by_comm: list[list[int]] = [[] for _ in range(communities)]

    def add(self, node: int, comm: int) -> None:
        self.all.append(node)
        self.by_comm[comm].append(node)

    def pick(self, pool: list[int], avoid: int) -> int:
        while True:
            node = pool[int(self.rng.integers(len(pool)))]
            if node != avoid:
                return node


def generate_events(shape: Shape, seed: int):
    """Return (events, community) with events as (src, dst, epoch) in stream
    order and community[v] for node v; nodes are numbered by arrival."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, shape.nodes,
                                                        shape.events]))
    C = shape.communities
    arrivals, counts = growth_counts(shape)
    community = np.empty(shape.nodes, dtype=np.int64)
    attach = _Attach(C, rng)
    events = []

    def other_comm(c: int) -> int:
        k = int(rng.integers(C - 1)) if C > 1 else 0
        return k + (k >= c) if C > 1 else c

    def link(src: int, c: int, t: int) -> None:
        if rng.random() >= WITHIN:
            c = other_comm(c)
        dst = attach.pick(attach.by_comm[c], src)
        events.append((src, dst, t))
        attach.add(src, int(community[src]))
        attach.add(dst, int(community[dst]))

    nxt = 0
    for c in range(C):   # epoch 1: one seed pair per community
        a, b = nxt, nxt + 1
        community[a] = community[b] = c
        nxt += 2
        events.append((a, b, 1))
        attach.add(a, c)
        attach.add(b, c)
    for t in range(1, shape.epochs + 1):
        new = int(arrivals[t - 1]) - (2 * C if t == 1 else 0)
        total = int(counts[t - 1]) - (C if t == 1 else 0)
        kinds = np.zeros(total, dtype=bool)
        kinds[:new] = True
        for is_arrival in rng.permutation(kinds):
            if is_arrival:
                v = nxt
                nxt += 1
                community[v] = int(rng.integers(C))
                link(v, int(community[v]), t)
            else:
                src = attach.all[int(rng.integers(len(attach.all)))]
                link(src, int(community[src]), t)
    return events, community


def write_inputs(shape: Shape, seed: int, out_dir, dim: int = 64) -> dict:
    """Write edges.tsv, labels.tsv and planted.ckpt into out_dir; return
    their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    events, community = generate_events(shape, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    raw = rng.permutation(shape.nodes)   # raw ids carry no arrival order
    paths = {"edges": out / "edges.tsv", "labels": out / "labels.tsv"}
    with open(paths["edges"], "w", encoding="utf-8") as fh:
        fh.writelines(f"n{raw[s]}\tn{raw[d]}\t{EPOCH_ZERO + EPOCH_SECONDS * t}\n"
                      for s, d, t in events)
    with open(paths["labels"], "w", encoding="utf-8") as fh:
        fh.writelines(f"n{raw[v]}\tc{community[v]}\n"
                      for v in range(shape.nodes))
    paths["checkpoint"] = out / "planted.ckpt"
    write_planted_checkpoint(paths["checkpoint"], _first_appearance(events),
                             community, shape.communities, dim, rng)
    return paths


def _first_appearance(events) -> list[int]:
    seen, order = set(), []
    for s, d, _ in events:
        for v in (s, d):
            if v not in seen:
                seen.add(v)
                order.append(v)
    return order


def write_planted_checkpoint(path, order, community, communities: int,
                             dim: int, rng: np.random.Generator) -> None:
    """Version-1 checkpoint whose embedding rows (in parser id order) sit
    around one random centre per community.

    The v1 layout is written here on purpose rather than through
    ``m2dne.train.save_checkpoint``: the planted state is an input of the
    benchmark, so its bytes must not change with the program under test."""
    centres = rng.normal(0.0, 1.0 / math.sqrt(dim), size=(communities, dim))
    noise = rng.normal(0.0, PLANTED_NOISE / math.sqrt(dim),
                       size=(len(order), dim))
    emb = centres[community[np.asarray(order)]] + noise
    bound = math.sqrt(6.0 / (2 * dim))
    blocks = (emb,
              rng.uniform(-bound, bound, 2 * dim),       # attention vector
              rng.uniform(-bound, bound, (dim, dim)),    # local weight
              rng.uniform(-bound, bound, dim),           # s-layer weight
              np.zeros(1),                               # s-layer bias
              np.zeros(len(order)),                      # decay pre-activations
              np.array([0.0, 1.0, 1.0]))                 # zeta_raw, gamma, theta
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<QQ", len(order), dim))
        for block in blocks:
            fh.write(np.asarray(block, dtype="<f8").tobytes())


def main(argv=None) -> int:
    from workloads import WORKLOADS   # workloads imports this module
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    for name, path in write_inputs(wl.shape, args.seed, args.out).items():
        print(f"{name}\t{path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
