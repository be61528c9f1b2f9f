"""Numerically stable scalar helpers and seeded RNG sub-streams."""

from __future__ import annotations

import math
import zlib

import numpy as np


def sigmoid(x, out=None, scratch=None):
    """Logistic function, stable for large |x|.

    exp(min(x, 0)) / (1 + exp(-|x|)) is 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, without branching on the sign. The result goes
    into ``out`` when given, which may be ``x`` itself, and the denominator
    into ``scratch`` (x's shape) when given, so a caller passing both
    allocates nothing. A 0-d input gives a Python float.
    """
    x = np.asarray(x, dtype=np.float64)
    den = np.negative(x, out=np.empty_like(x) if scratch is None else scratch)
    np.minimum(x, den, out=den)
    np.exp(den, out=den)
    den += 1.0
    res = np.minimum(x, 0.0, out=np.empty_like(x) if out is None else out)
    np.exp(res, out=res)
    res /= den
    if res.ndim == 0:
        return float(res)
    return res


def softplus(x):
    """log(1 + exp(x)), stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    if out.ndim == 0:
        return float(out)
    return out


def softplus_inv(y: float) -> float:
    """Inverse of softplus for y > 0: y + log(1 - e^-y), which stays finite
    for large y, where log(e^y - 1) would overflow."""
    return y + math.log(-math.expm1(-y))


# node pairs gathered at a time by the pair kernels: 512 KiB at d=64
PAIR_CHUNK = 1024


class Workspace:
    """One float64 array that outlives a call, so a loop over same-shaped
    batches allocates its working set once.

    :meth:`take` returns the array's first ``count`` entries and replaces
    the array only when it holds fewer. Contents are whatever the previous
    user left: a caller writes before it reads, or zeroes what it
    accumulates into. Callers carve buffers of any shape from the prefix,
    int64 ones as views, and callers that run in turn, as a training step's
    engine and then its coupling do, share it: it holds the larger need.

    One array, because glibc's malloc raises its mmap threshold to the
    largest block it has unmapped and keeps up to twice that as free heap,
    so the largest array, freed with each fit, decides how much later work
    in the process faults its pages in again: in the fit-micro benchmark
    process, with the engine's node table apart from its block, later
    reconstructions faulted in up to 740 pages each, with one at most 13.
    """

    def __init__(self):
        self._array = np.empty(0)

    def take(self, count: int) -> np.ndarray:
        if self._array.size < count:
            self._array = None      # freed before its successor exists
            self._array = np.empty(count)
        return self._array[:count]

    @property
    def nbytes(self) -> int:
        return self._array.nbytes


def take_rows(table: np.ndarray, index: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """``table[index]`` written into ``out``. An id outside [-len, len) raises
    IndexError, as indexing would; np.take's own checking mode would copy
    the whole result through a temporary first."""
    n = table.shape[0]
    if index.size and (index.min() < -n or index.max() >= n):
        raise IndexError(f"row id out of range for {n} rows")
    return np.take(table, index, axis=0, out=out, mode="wrap")


def row_positions(index: np.ndarray, d: int, out: np.ndarray) -> np.ndarray:
    """Flat positions ``index * d + [0, d)`` of the rows ``index`` names in a
    (count, d) array, one run of d per id, written into ``out`` (int64, one
    entry per position)."""
    index = np.asarray(index, dtype=np.int64).reshape(-1)
    np.add((index * d)[:, None], np.arange(d), out=out.reshape(-1, d))
    return out


def substream(seed: int, name: str) -> np.random.Generator:
    """Derive an independent generator from one master seed and a stream name.

    Each consumer (init / batch / negatives / eval-splits) pulls from its own
    named stream, so adding a consumer never perturbs the draws of another.
    """
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, tag]))


def resolve_workers() -> int:
    """Worker count, always 1: the package runs on one thread. Only the
    benchmark's environment record calls it."""
    return 1
