"""Joint training loop: mini-batch descent over the event-level loss
plus the epsilon-weighted network-scale constraint, with checkpointing and a
finite-difference gradient verifier.
"""

from __future__ import annotations

import copy
import math
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import macro as macro_mod
from .graph import MacroSeries, TemporalNetwork, compute_macro_series, snapshot_arrays
from .micro import AttentionParams, NegativeTable, draw_event_negatives
from .micrograd import EventBatch, batch_loss_and_grads
from .util import Workspace, substream

CHECKPOINT_MAGIC = b"M2DNE\x00"
CHECKPOINT_VERSION = 1
FD_STEP = 1e-5        # gradient_check's central-difference step
GRAD_FLOOR = 1e-3     # compare_grads' least denominator


@dataclass
class TrainConfig:
    """Hyper-parameters of :func:`fit`. ``learning_rate`` is the Adagrad
    rate of :func:`step`, the same for every group it updates."""

    dim: int = 128
    history: int = 5
    negatives: int = 5
    epsilon: float = 0.3
    epochs: int = 30
    batch_size: int = 512
    learning_rate: float = 0.01
    seed: int = 42

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.history < 1:
            raise ValueError("history must be >= 1")
        if self.negatives < 0:
            raise ValueError("negatives must be >= 0")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate)
                and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and >= 0")


@dataclass
class ModelState:
    embeddings: np.ndarray
    attention: AttentionParams
    macro: macro_mod.MacroParams

    @property
    def node_count(self) -> int:
        return int(self.embeddings.shape[0])

    @property
    def dim(self) -> int:
        return int(self.embeddings.shape[1])

    def param_groups(self) -> dict:
        """Name -> live array, or plain float for the growth scalars
        (:func:`~m2dne.macro.fit_params`'s)."""
        return {
            "embeddings": self.embeddings,
            "att_vector": self.attention.att_vector,
            "local_weight": self.attention.local_weight,
            "s_weight": self.attention.s_weight,
            "decay_raw": self.attention.decay_raw,
            "zeta_raw": self.macro.zeta_raw,
            "gamma": self.macro.gamma,
            "theta": self.macro.theta,
        }

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(val))
                   for val in self.param_groups().values())


def init_state(node_count: int, config: TrainConfig,
               rng: np.random.Generator) -> ModelState:
    """Uniform init: embeddings in +-0.5/d, attention maps at Glorot bounds,
    softplus(0) decay, and (softplus(0), 1, 1) growth parameters.
    """
    if node_count < 2:
        raise ValueError("need at least 2 nodes")
    d = config.dim
    U = rng.uniform(-0.5 / d, 0.5 / d, size=(node_count, d))
    att = rng.uniform(-math.sqrt(6.0 / (2 * d + 1)),
                      math.sqrt(6.0 / (2 * d + 1)), size=2 * d)
    W = rng.uniform(-math.sqrt(6.0 / (2 * d)),
                    math.sqrt(6.0 / (2 * d)), size=(d, d))
    sw = rng.uniform(-math.sqrt(6.0 / (d + 1)),
                     math.sqrt(6.0 / (d + 1)), size=d)
    attention = AttentionParams(att_vector=att, local_weight=W, s_weight=sw,
                                decay_raw=np.zeros(node_count))
    return ModelState(embeddings=U, attention=attention,
                      macro=macro_mod.MacroParams())


class TrainData:
    """Pre-extracted arrays shared by every step: the history index, the
    negative-sampling table and the growth series, and the weight table for
    batch draws, built by the first draw, which fails on weights whose sum
    overflows (``gradient_check`` draws none and reads no weight). ``work``
    is the step workspace, whose one array every step of a fit reuses for
    the engine and then the coupling, freed with this object, and
    ``adagrad`` maps each group :func:`step` updates to its Adagrad
    accumulators, one per leading index, which the first step of every fit
    creates zeroed. ``coupling`` is the latest refit's
    :class:`~m2dne.macro.Coupling` during ``fit`` with epsilon > 0, else
    None (steps couple exactly at ``state.macro``)."""

    def __init__(self, net: TemporalNetwork, history: int):
        self.net = net
        self.snapshots = snapshot_arrays(net, history)
        self.table = NegativeTable(net.degrees(), net.first_appearance_order())
        self.series: MacroSeries = compute_macro_series(net)
        self.work = Workspace()
        self.adagrad: dict[str, np.ndarray] = {}
        self.coupling: macro_mod.Coupling | None = None

    @cached_property
    def sample_cum(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            cum = np.cumsum(self.net.weight)
        if not np.isfinite(cum[-1]):
            raise ValueError("the event weights sum past float64's range, so "
                             "batches cannot be drawn in proportion to them; "
                             "scale the weights down")
        return cum / cum[-1]


def sample_batch(data: TrainData, batch_size: int,
                 rng: np.random.Generator) -> EventBatch:
    """Draw events with replacement, proportional to their weights, paired
    with their pre-event histories."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    idx = np.searchsorted(data.sample_cum, rng.random(batch_size), side="right")
    idx = np.minimum(idx, len(data.net) - 1)
    return EventBatch.take(data.net, data.snapshots, idx)


@dataclass
class StepResult:
    micro_loss: float
    range_hits: int


def _joint_grads(state: ModelState, batch: EventBatch, negatives,
                 data: TrainData, config: TrainConfig):
    """Event-level loss, and the gradients of the five groups that
    :func:`step` updates, all arrays: the event-level ones plus epsilon
    times the coupling's embedding gradient. The growth scalars are not
    among them; the refit in :func:`fit` owns them.

    The coupling is ``data.coupling``, or exact at ``state.macro`` when
    that is None."""
    micro, grads, stats = batch_loss_and_grads(
        batch, negatives, state.embeddings, state.attention, data.work)
    if config.epsilon > 0.0:
        coupling = (data.coupling
                    or macro_mod.coupling_at(data.series, state.macro))
        macro_mod.macro_loss_and_grads(
            coupling, state.embeddings, data.net.src, data.net.dst,
            config.epsilon, grads["embeddings"], data.work)
    return micro, grads, stats


def _joint_loss(state: ModelState, batch: EventBatch, negatives,
                data: TrainData, config: TrainConfig) -> float:
    """The loss whose gradients :func:`_joint_grads` returns with an exact
    coupling: the event-level loss plus epsilon times the scale loss."""
    loss, _, _ = batch_loss_and_grads(
        batch, negatives, state.embeddings, state.attention, data.work,
        want_grads=False)
    if config.epsilon > 0.0:
        S = macro_mod.edge_affinity(state.embeddings, data.net.src,
                                    data.net.dst)
        loss += config.epsilon * macro_mod.macro_loss(data.series, S,
                                                      state.macro)
    return loss


def step(state: ModelState, batch: EventBatch, data: TrainData,
         config: TrainConfig, rng: np.random.Generator) -> StepResult:
    """One descent update of the five event-level groups, all arrays, in
    place.

    The coupling's embedding gradient is exact or sampled as
    ``data.coupling`` says (see :func:`_joint_grads`). Every group takes
    Adagrad (Duchi, Hazan & Singer 2011) by leading index: its gradient is
    viewed as rows g_v = g[v], a node's row of the embeddings, a row of
    ``local_weight``, an entry of ``att_vector``, ``s_weight`` or
    ``decay_raw``. Row v adds the mean of its squared entries to its
    accumulator G_v in ``data.adagrad`` and moves by
    learning_rate * g_v / sqrt(G_v + 1e-10) (see :func:`_adagrad_scale`),
    so its first step from a zero accumulator is at most learning_rate *
    sqrt(width) in L2. Gradients must be finite or the step aborts naming
    the offending group, before it updates any group.
    """
    negatives = draw_event_negatives(batch.src, batch.dst, data.table,
                                     config.negatives, rng)
    micro, grads, stats = _joint_grads(state, batch, negatives, data, config)
    rows = {name: g.reshape(g.shape[0], -1) for name, g in grads.items()}
    with np.errstate(over="ignore"):
        sq = {name: np.einsum("vd,vd->v", r, r) for name, r in rows.items()}
    for name, r in rows.items():
        # a non-finite entry makes its row's sum of squares inf or nan; so
        # does a sum that overflows, which _adagrad_scale handles
        if not np.all(np.isfinite(sq[name])) and not np.all(np.isfinite(r)):
            raise FloatingPointError(f"non-finite gradient in group {name!r}")
    groups = state.param_groups()
    for name, r in rows.items():
        if name not in data.adagrad:
            data.adagrad[name] = np.zeros(len(r))
        _adagrad_scale(r, sq[name], data.adagrad[name], config.learning_rate)
        # r, not g: the reshape that made r may have copied g
        groups[name] -= r.reshape(groups[name].shape)
    return StepResult(micro_loss=micro, range_hits=stats["range_hits"])


def _adagrad_scale(g: np.ndarray, sq: np.ndarray, acc: np.ndarray,
                   lr: float) -> None:
    """Turn the finite (n, w) gradient rows ``g``, whose sums of squares
    are ``sq``, into Adagrad's step, in place: G_v += sq_v / w in ``acc``,
    then g_v *= lr / sqrt(G_v + 1e-10), one factor per row. ``sq`` is
    overwritten, so that the factor is the one per-row temporary.

    A row whose sum of squares overflowed is divided by its largest |g|,
    t_v, first, and its factor becomes lr / sqrt((G_v + 1e-10) / t_v^2 +
    mean((g_v / t_v)^2)), so it still takes its finite Adagrad step. Its
    accumulator becomes inf, as does one that overflows later, so the row
    takes zero steps from then on, the limit of lr / sqrt(G_v)."""
    w = g.shape[1]
    over = np.flatnonzero(np.isinf(sq))
    if over.size:
        top = np.max(np.abs(g[over]), axis=1)
        scaled = g[over] / top[:, None]
        # top > 1 here, so dividing by it twice neither overflows nor turns
        # an inf accumulator into a nan
        over_factor = lr / np.sqrt(
            (acc[over] + 1e-10) / top / top
            + np.einsum("vd,vd->v", scaled, scaled) / w)
        g[over] = scaled
    with np.errstate(over="ignore"):
        acc += np.divide(sq, w, out=sq)
    factor = np.add(acc, 1e-10)
    np.divide(lr, np.sqrt(factor, out=factor), out=factor)
    if over.size:
        factor[over] = over_factor
    g *= factor[:, None]


@dataclass
class LossTrace:
    epoch: list = field(default_factory=list)
    micro: list = field(default_factory=list)
    macro: list = field(default_factory=list)
    total: list = field(default_factory=list)
    range_hits: int = 0

    def append(self, epoch, micro, macro, total):
        self.epoch.append(int(epoch))
        self.micro.append(float(micro))
        self.macro.append(float(macro))
        self.total.append(float(total))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,micro_loss,macro_loss,total_loss\n")
            for row in zip(self.epoch, self.micro, self.macro, self.total):
                fh.write("%d,%.12g,%.12g,%.12g\n" % row)


def fit(net: TemporalNetwork, config: TrainConfig,
        initial_state: ModelState | None = None,
        on_epoch=None) -> tuple[ModelState, LossTrace]:
    """Train on the full event stream of ``net``.

    Runs epochs x ceil(E / batch_size) update steps on the embeddings and
    attention parameters; every batch couples the scale loss into the
    embedding gradient. With epsilon > 0 the growth model is refitted to the
    full training series at the start and at each epoch boundary, at the
    current affinity S; the fitted (kappa, gamma, theta) do not depend on S,
    so only zeta = kappa / S moves.

    With epsilon > 0 each refit also sets the :class:`~m2dne.macro.Coupling`
    every step until the next refit uses, with the per-edge sigmoids of its
    affinity pass; :func:`~m2dne.macro.coupling_at` samples it from the
    ``"coupling"`` stream on networks of more than
    2 * ``macro.COUPLING_SAMPLE`` edges, and keeps it exact on smaller ones.

    The Adagrad accumulators of all five groups start at zero in every fit,
    with ``initial_state`` too: a checkpoint does not store them, so a fit
    resumed from one restarts them.

    The per-epoch trace records the mean batch event loss, the scale loss on
    the full training series (the fitted minimum, with epsilon > 0), and
    their epsilon-weighted sum. With epsilon = 0 the scale loss is not part
    of the objective; its column echoes the initial value.

    ``on_epoch``, if given, is called as ``on_epoch(epoch, state, trace)``
    at the end of each epoch, after its refit (with epsilon > 0) and its
    trace row, with epoch = 1..epochs and deep copies of the state and of
    the trace so far, whose last row is that epoch's. Being copies, they
    leave training unchanged whatever the callback does with them, and it
    cannot reach the state and trace that ``fit`` returns. The copies cost
    V·d floats per epoch, made only when a callback is given. The callback
    runs inside ``fit``, so its time is the caller's to exclude.
    """
    if len(net) == 0 or net.time.min() == net.time.max():
        raise ValueError("training needs a network spanning at least 2 epochs")
    if initial_state is None:
        state = init_state(net.node_count, config, substream(config.seed, "init"))
    else:
        if initial_state.node_count != net.node_count:
            raise ValueError("initial state does not match the network size")
        if initial_state.dim != config.dim:
            raise ValueError(f"initial state has dim {initial_state.dim}, "
                             f"the config {config.dim}")
        state = copy.deepcopy(initial_state)
    data = TrainData(net, config.history)
    batch_rng = substream(config.seed, "batch")
    neg_rng = substream(config.seed, "negatives")
    coupling_rng = substream(config.seed, "coupling")
    steps_per_epoch = max(1, math.ceil(len(net) / config.batch_size))
    trace = LossTrace()

    def refit() -> float:
        """Scale loss at the current embeddings, after refitting the growth
        model when the scale term is in the objective."""
        # a fresh array per refit: a sampled coupling keeps it
        sig_ref = np.empty(len(net))
        S = macro_mod.edge_affinity(state.embeddings, net.src, net.dst,
                                    out=sig_ref)
        if config.epsilon > 0.0:
            state.macro = macro_mod.fit_params(data.series, S)
            data.coupling = macro_mod.coupling_at(data.series, state.macro,
                                                  sig_ref, coupling_rng)
        return macro_mod.macro_loss(data.series, S, state.macro)

    ma = refit()
    for epoch in range(1, config.epochs + 1):
        micro_sum = 0.0
        for _ in range(steps_per_epoch):
            batch = sample_batch(data, config.batch_size, batch_rng)
            res = step(state, batch, data, config, neg_rng)
            micro_sum += res.micro_loss
            trace.range_hits += res.range_hits
        micro_mean = micro_sum / steps_per_epoch
        if config.epsilon > 0.0:
            ma = refit()
        trace.append(epoch, micro_mean, ma, micro_mean + config.epsilon * ma)
        if on_epoch is not None:
            on_epoch(epoch, copy.deepcopy(state), copy.deepcopy(trace))
    if not state.all_finite():
        raise FloatingPointError("non-finite parameters after training")
    return state, trace


# ---------------------------------------------------------------------------
# gradient verification

@dataclass
class GradCheckReport:
    max_rel_err: dict
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.max_rel_err.values())


def compare_grads(analytic: dict, numeric: dict,
                  tolerance: float) -> GradCheckReport:
    """Per-group max of |a - n| / max(|a|, |n|, GRAD_FLOOR)."""
    out = {}
    for name, a in analytic.items():
        a = np.asarray(a, dtype=np.float64)
        n = np.asarray(numeric[name], dtype=np.float64)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), GRAD_FLOOR)
        out[name] = float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
    return GradCheckReport(max_rel_err=out, tolerance=tolerance)


def gradient_check(state: ModelState, net: TemporalNetwork,
                   config: TrainConfig, tolerance: float) -> GradCheckReport:
    """Compare the analytic gradients of the groups :func:`step` updates
    against central differences, of step FD_STEP, of the joint loss: the
    event-level loss plus epsilon times the exact scale loss.

    The batch is the full event stream with negatives drawn once from the
    seeded stream, so the loss is a fixed function of the parameters.
    Sized for small diagnostics (finite differences sweep every entry).
    """
    data = TrainData(net, config.history)
    batch = EventBatch.take(net, data.snapshots, np.arange(len(net)))
    neg_rng = substream(config.seed, "negatives")
    negatives = draw_event_negatives(batch.src, batch.dst, data.table,
                                     config.negatives, neg_rng)

    work = copy.deepcopy(state)
    _, analytic, _ = _joint_grads(work, batch, negatives, data, config)

    def loss_at(st: ModelState) -> float:
        return _joint_loss(st, batch, negatives, data, config)

    numeric = {}
    for name in analytic:
        arr = work.param_groups()[name]
        flat = arr.reshape(-1)
        g = np.zeros(flat.shape)
        for pos in range(flat.shape[0]):
            orig = flat[pos]
            flat[pos] = orig + FD_STEP
            up = loss_at(work)
            flat[pos] = orig - FD_STEP
            down = loss_at(work)
            flat[pos] = orig
            g[pos] = (up - down) / (2 * FD_STEP)
        numeric[name] = g.reshape(arr.shape)
    return compare_grads(analytic, numeric, tolerance)


# ---------------------------------------------------------------------------
# checkpointing

def save_checkpoint(state: ModelState, path) -> None:
    """Little-endian binary: magic, version, dims, then float64 blocks in
    declared order (embeddings, att_vector, local_weight, s_weight, one
    reserved value written 0, decay_raw, zeta_raw, gamma, theta)."""
    V, d = state.embeddings.shape
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<QQ", V, d))
        att = state.attention
        for block in (state.embeddings, att.att_vector, att.local_weight,
                      att.s_weight, np.float64(0.0), att.decay_raw,
                      np.float64(state.macro.zeta_raw),
                      np.float64(state.macro.gamma),
                      np.float64(state.macro.theta)):
            fh.write(np.asarray(block, dtype="<f8").tobytes())


def load_checkpoint(path) -> ModelState:
    """Read a :func:`save_checkpoint` file. The reserved value (the former
    s-layer bias, which cancels in the neighborhood softmax) must be finite
    and is discarded. The file's size is checked against its header before
    anything is allocated, and the parameters are read into one array whose
    blocks the returned state holds as views."""
    head = len(CHECKPOINT_MAGIC)
    offset = head + 4 + 16
    with open(path, "rb") as fh:
        header = fh.read(offset)
        if header[:head] != CHECKPOINT_MAGIC:
            raise ValueError("not a checkpoint file (bad magic)")
        if len(header) < offset:
            raise ValueError(f"truncated or oversized checkpoint: "
                             f"{len(header)} bytes, expected at least {offset}")
        (version,) = struct.unpack_from("<I", header, head)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        V, d = struct.unpack_from("<QQ", header, head + 4)
        if V < 2:
            raise ValueError(f"checkpoint node count {V} is below 2")
        if d < 1:
            raise ValueError(f"checkpoint dim {d} is below 1")
        counts = (V * d, 2 * d, d * d, d, 1, V, 1, 1, 1)
        expected = offset + 8 * sum(counts)
        size = os.fstat(fh.fileno()).st_size
        if size == expected:
            params = np.empty(sum(counts), dtype="<f8")
            # a file cut since fstat reads short
            size = offset + fh.readinto(params)
        if size != expected:
            raise ValueError(f"truncated or oversized checkpoint: "
                             f"{size} bytes, expected {expected}")
    if not np.isfinite(params).all():
        raise ValueError("checkpoint contains non-finite parameters")
    emb, att, W, sw, _reserved, draw, zr, ga, th = np.split(
        params, np.cumsum(counts[:-1]))
    attention = AttentionParams(att_vector=att, local_weight=W.reshape(d, d),
                                s_weight=sw, decay_raw=draw)
    return ModelState(embeddings=emb.reshape(V, d), attention=attention,
                      macro=macro_mod.MacroParams(float(zr[0]), float(ga[0]),
                                                  float(th[0])))
