"""Parameters and negative sampling of the event-level model.

The intensity of an event (i, j, t) combines a base similarity of the two
endpoints with time-decayed influence from both endpoints' recent neighbors,
weighted by a two-level (per-neighbor, per-neighborhood) attention mechanism.
Its negative-sampling loss and gradients are computed by
:mod:`m2dne.micrograd`; this module holds the attention parameters and the
sampler that draws the corruption ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEGATIVE_EXPONENT = 0.75


@dataclass
class AttentionParams:
    """Learnable attention parameters.

    att_vector:   length 2d, scores the (transformed center, transformed
                  neighbor) concatenation
    local_weight: d x d shared linear map applied to embeddings
    s_weight:     linear layer producing the neighborhood-level score; it
                  has no bias, since the two endpoints' scores meet only in
                  a two-way softmax, where a term shared by both cancels
    decay_raw:    per-node pre-activation of the decay rate; the effective
                  rate is softplus(decay_raw) > 0
    """

    att_vector: np.ndarray
    local_weight: np.ndarray
    s_weight: np.ndarray
    decay_raw: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.local_weight.shape[0])


class NegativeTable:
    """Unigram sampler over nodes with probability proportional to
    degree ** 0.75, with rejection of one excluded node per draw.

    The cumulative table is laid out in ``order`` (training passes the
    stream's first-appearance order, so sampling commutes with relabeling).
    """

    def __init__(self, degrees: np.ndarray, order: np.ndarray):
        degrees = np.asarray(degrees, dtype=np.float64)
        if degrees.shape[0] < 2:
            raise ValueError("negative sampling needs at least two nodes")
        self.order = np.asarray(order, dtype=np.int64)
        weights = np.power(np.maximum(degrees[self.order], 0.0), NEGATIVE_EXPONENT)
        total = weights.sum()
        if total <= 0:
            raise ValueError("all degrees are zero")
        self.cum = np.cumsum(weights) / total
        self.mass = np.zeros(degrees.shape[0])
        self.mass[self.order] = weights / total

    def sample(self, exclude: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        """Draw one node id per entry of ``exclude``, rejecting (and
        redrawing) a draw equal to its entry.

        The ids and the generator state afterwards are those of successive
        single draws that each redraw until the node differs from its own
        exclusion: the uniforms are drawn in one call, and each rejection
        shifts the remaining uniforms onto the following slots. Raises
        ValueError if an excluded node carries all of the sampling mass.
        """
        k = exclude.size
        out = np.empty(k, dtype=np.int64)
        filled = 0
        while filled < k:
            pos = np.searchsorted(self.cum, rng.random(k - filled), side="right")
            nodes = self.order[np.minimum(pos, len(self.order) - 1)]
            # each pass finds the next rejection among the remaining draws,
            # which fill the slots from ``filled`` on, and carries on from
            # the uniform after it
            while nodes.size:
                hits = np.flatnonzero(nodes == exclude[filled:][:nodes.size])
                r = int(hits[0]) if hits.size else nodes.size
                out[filled:filled + r] = nodes[:r]
                filled += r
                if r == nodes.size:
                    break
                if self.mass[exclude[filled]] >= 1.0:
                    raise ValueError(f"excluded node {exclude[filled]} "
                                     f"carries all of the sampling mass")
                nodes = nodes[r + 1:]
        return out


def draw_event_negatives(batch_src: np.ndarray, batch_dst: np.ndarray,
                         table: NegativeTable, k: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Draw the per-event corruption ids in a fixed, replayable order.

    For each event in batch order: k replacements for the source (keeping the
    target, which is rejected), then k replacements for the target. The whole
    batch is one call of :meth:`NegativeTable.sample`. Returns (2, B, k), the
    source's replacements over the target's, as the engine stacks the sides.
    """
    B = batch_src.shape[0]
    exclude = np.repeat(np.stack([batch_dst, batch_src], axis=1), k, axis=1)
    draws = table.sample(exclude.reshape(-1), rng)
    return draws.reshape(B, 2, k).transpose(1, 0, 2)
