"""Numerically stable scalar helpers and seeded RNG sub-streams."""

from __future__ import annotations

import os
import zlib

import numpy as np


def sigmoid(x):
    """Logistic function, stable for large |x|.

    exp(min(x, 0)) / (1 + exp(-|x|)) is 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, without branching on the sign.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(np.minimum(x, -x)))
    if out.ndim == 0:
        return float(out)
    return out


def log_sigmoid(x):
    """log(sigmoid(x)) without overflow: -softplus(-x)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
    if out.ndim == 0:
        return float(out)
    return out


def softplus(x):
    """log(1 + exp(x)), stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    if out.ndim == 0:
        return float(out)
    return out


def scatter_rows(index, rows, count: int) -> np.ndarray:
    """(count, d) array whose row v is the sum of the rows of ``rows`` whose
    index is v; ``index`` holds one id per row of ``rows`` (any matching
    leading shape). One bincount over the flattened entries, summed in order.
    """
    index = np.asarray(index, dtype=np.int64).reshape(-1)
    rows = np.asarray(rows, dtype=np.float64).reshape(index.shape[0], -1)
    d = rows.shape[1]
    flat = ((index * d)[:, None] + np.arange(d)).reshape(-1)
    return np.bincount(flat, weights=rows.reshape(-1),
                       minlength=count * d).reshape(count, d)


def substream(seed: int, name: str) -> np.random.Generator:
    """Derive an independent generator from one master seed and a stream name.

    Each consumer (init / batch / negatives / eval-splits) pulls from its own
    named stream, so adding a consumer never perturbs the draws of another.
    """
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, tag]))


def resolve_workers(requested: int | None = None) -> int:
    """Worker cap: explicit argument, else M2DNE_THREADS, else 1."""
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("M2DNE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1
