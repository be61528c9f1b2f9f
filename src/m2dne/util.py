"""Numerically stable scalar helpers and seeded RNG sub-streams."""

from __future__ import annotations

import math
import os
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
    """Named arrays that outlive one call, so a loop over same-shaped batches
    allocates its working set once.

    :meth:`get` hands back the array last handed out under ``name`` while
    the shape and dtype match, else a fresh one. Contents are whatever the
    previous user left: a caller writes before it reads, or zeroes what it
    accumulates into.
    """

    def __init__(self):
        self._arrays = {}

    def get(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        arr = self._arrays.get(name)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            # drop the old array first so the two never coexist
            self._arrays.pop(name, None)
            arr = np.empty(shape, dtype=dtype)
            self._arrays[name] = arr
        return arr

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays held."""
        return sum(arr.nbytes for arr in self._arrays.values())


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


def resolve_workers(requested: int | None = None) -> int:
    """Worker cap: explicit argument, else M2DNE_THREADS, else 1. No package
    code reads it; only the benchmark's environment record calls it."""
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("M2DNE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1
