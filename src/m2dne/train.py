"""Joint training loop: mini-batch gradient descent over the event-level loss
plus the epsilon-weighted network-scale constraint, with checkpointing and a
finite-difference gradient verifier.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from . import macro as macro_mod
from .graph import MacroSeries, TemporalNetwork, compute_macro_series, snapshot_arrays
from .micro import AttentionParams, NegativeTable, draw_event_negatives
from .micrograd import EventBatch, batch_loss_and_grads
from .util import Workspace, softplus_inv, substream

CHECKPOINT_MAGIC = b"M2DNE\x00"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    """Hyper-parameters of :func:`fit`. ``grad_clip`` is :func:`step`'s
    per-group L2 clip; 0 means no clip."""

    dim: int = 128
    history: int = 5
    negatives: int = 5
    epsilon: float = 0.3
    epochs: int = 30
    batch_size: int = 512
    learning_rate: float = 0.01
    seed: int = 42
    grad_clip: float = 30.0

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
        if not (math.isfinite(self.grad_clip) and self.grad_clip >= 0):
            raise ValueError("grad_clip must be finite and >= 0")


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

    def copy(self) -> "ModelState":
        return ModelState(self.embeddings.copy(), self.attention.copy(),
                          self.macro.copy())

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
    """Pre-extracted arrays shared by every step: history snapshots, the
    negative-sampling table, the weight table for batch draws and the growth
    series. ``work`` is the step workspace: every step of a fit reuses its
    buffers, which are allocated by the first step and freed with this
    object. ``coupling`` is the latest refit's
    :class:`~m2dne.macro.Coupling` during ``fit`` with epsilon > 0, else
    None (steps couple exactly at ``state.macro``)."""

    def __init__(self, net: TemporalNetwork, history: int):
        self.net = net
        self.snapshots = snapshot_arrays(net, history)
        self.table = NegativeTable(net.degrees(),
                                   order=net.first_appearance_order())
        self.series: MacroSeries = compute_macro_series(net)
        cum = np.cumsum(net.weight)
        self.sample_cum = cum / cum[-1]
        self.work = Workspace()
        self.coupling: macro_mod.Coupling | None = None


def sample_batch(data: TrainData, batch_size: int,
                 rng: np.random.Generator) -> EventBatch:
    """Draw events with replacement, proportional to their weights, paired
    with their pre-event history snapshots."""
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
        batch, negatives, state.embeddings, state.attention, work=data.work)
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
        batch, negatives, state.embeddings, state.attention,
        want_grads=False, work=data.work)
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
    ``data.coupling`` says (see :func:`_joint_grads`). Per-group gradients
    exceeding ``grad_clip`` in L2 norm are rescaled to the clip so a single
    mis-scaled group cannot blow up the state (``grad_clip`` 0: no clip);
    gradients must be finite or the step aborts naming the offending group.
    """
    negatives = draw_event_negatives(batch.src, batch.dst, data.table,
                                     config.negatives, rng)
    micro, grads, stats = _joint_grads(state, batch, negatives, data, config)
    lr = config.learning_rate
    groups = state.param_groups()
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in group {name!r}")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(g))
        # scaled in place: g * c * lr per entry, as the product lr * (g * c)
        if config.grad_clip > 0 and norm > config.grad_clip:
            if np.isfinite(norm):
                g *= config.grad_clip / norm
            else:
                # the sum of squares overflowed: clip g / max |g|, whose
                # norm lies in [1, sqrt(g.size)]
                g /= float(np.max(np.abs(g)))
                g *= config.grad_clip / float(np.linalg.norm(g))
        g *= lr
        groups[name] -= g
    return StepResult(micro_loss=micro, range_hits=stats["range_hits"])


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


def fit(net: TemporalNetwork, config: TrainConfig, progress: bool = False,
        initial_state: ModelState | None = None) -> tuple[ModelState, LossTrace]:
    """Train on the full event stream of ``net``.

    Runs epochs x ceil(E / batch_size) update steps on the embeddings and
    attention parameters; every batch couples the scale loss into the
    embedding gradient. With epsilon > 0 the growth model is fitted to the
    full training series once, at the start, and each epoch boundary
    re-anchors it, zeta = kappa / S at the current affinity: the refit at S,
    as the fitted (kappa, gamma, theta) do not depend on S.

    With epsilon > 0 each refit also sets the :class:`~m2dne.macro.Coupling`
    every step until the next refit uses, with the per-edge sigmoids of its
    affinity pass; :func:`~m2dne.macro.coupling_at` samples it from the
    ``"coupling"`` stream on networks of more than
    2 * ``macro.COUPLING_SAMPLE`` edges, and keeps it exact on smaller ones.

    The per-epoch trace records the mean batch event loss, the scale loss on
    the full training series (the fitted minimum, with epsilon > 0), and
    their epsilon-weighted sum. With epsilon = 0 the scale loss is not part
    of the objective; its column echoes the initial value.
    """
    if net.epoch_count < 2:
        raise ValueError("training needs a network spanning at least 2 epochs")
    if initial_state is None:
        state = init_state(net.node_count, config, substream(config.seed, "init"))
    else:
        if initial_state.node_count != net.node_count:
            raise ValueError("initial state does not match the network size")
        if initial_state.dim != config.dim:
            raise ValueError(f"initial state has dim {initial_state.dim}, "
                             f"the config {config.dim}")
        state = initial_state.copy()
    data = TrainData(net, config.history)
    batch_rng = substream(config.seed, "batch")
    neg_rng = substream(config.seed, "negatives")
    coupling_rng = substream(config.seed, "coupling")
    steps_per_epoch = max(1, math.ceil(len(net) / config.batch_size))
    trace = LossTrace()

    kappa = None    # S * zeta of the growth fit, made at the first refit

    def refit() -> float:
        """Scale loss at the current embeddings, after fitting the growth
        model (first call) or re-anchoring it when the scale term is in the
        objective."""
        nonlocal kappa
        # a fresh array per refit: a sampled coupling keeps it
        sig_ref = np.empty(len(net))
        S = macro_mod.edge_affinity(state.embeddings, net.src, net.dst,
                                    out=sig_ref)
        if config.epsilon > 0.0:
            if kappa is None:
                state.macro = macro_mod.fit_params(data.series, S)
                kappa = S * state.macro.zeta
            else:
                state.macro.zeta_raw = softplus_inv(kappa / S)
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
        if progress:
            print(f"epoch {epoch}/{config.epochs} micro={micro_mean:.4f} "
                  f"macro={ma:.4f}", file=sys.stderr)
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


def compare_grads(analytic: dict, numeric: dict, tolerance: float,
                  floor: float = 1e-3) -> GradCheckReport:
    """Per-group max of |a - n| / max(|a|, |n|, floor)."""
    out = {}
    for name, a in analytic.items():
        a = np.asarray(a, dtype=np.float64)
        n = np.asarray(numeric[name], dtype=np.float64)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        out[name] = float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
    return GradCheckReport(max_rel_err=out, tolerance=tolerance)


def gradient_check(state: ModelState, net: TemporalNetwork,
                   config: TrainConfig, tolerance: float = 1e-4,
                   fd_step: float = 1e-5) -> GradCheckReport:
    """Compare the analytic gradients of the groups :func:`step` updates
    against central differences of the joint loss: the event-level loss plus
    epsilon times the exact scale loss.

    The batch is the full event stream with negatives drawn once from the
    seeded stream, so the loss is a fixed function of the parameters.
    Sized for small diagnostics (finite differences sweep every entry).
    """
    data = TrainData(net, config.history)
    batch = EventBatch.take(net, data.snapshots, np.arange(len(net)))
    neg_rng = substream(config.seed, "negatives")
    negatives = draw_event_negatives(batch.src, batch.dst, data.table,
                                     config.negatives, neg_rng)

    work = state.copy()
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
            flat[pos] = orig + fd_step
            up = loss_at(work)
            flat[pos] = orig - fd_step
            down = loss_at(work)
            flat[pos] = orig
            g[pos] = (up - down) / (2 * fd_step)
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
    and is discarded."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head = len(CHECKPOINT_MAGIC)
    if blob[:head] != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<I", blob, head)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    V, d = struct.unpack_from("<QQ", blob, head + 4)
    if V < 2:
        raise ValueError(f"checkpoint node count {V} is below 2")
    if d < 1:
        raise ValueError(f"checkpoint dim {d} is below 1")
    offset = head + 4 + 16
    counts = (V * d, 2 * d, d * d, d, 1, V, 1, 1, 1)
    expected = offset + 8 * sum(counts)
    if len(blob) != expected:
        raise ValueError(f"truncated or oversized checkpoint: "
                         f"{len(blob)} bytes, expected {expected}")
    blocks = []
    for count in counts:
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).copy()
        offset += 8 * count
        blocks.append(arr)
    if not all(np.all(np.isfinite(block)) for block in blocks):
        raise ValueError("checkpoint contains non-finite parameters")
    emb, att, W, sw, _reserved, draw, zr, ga, th = blocks
    attention = AttentionParams(att_vector=att, local_weight=W.reshape(d, d),
                                s_weight=sw, decay_raw=draw)
    return ModelState(embeddings=emb.reshape(V, d), attention=attention,
                      macro=macro_mod.MacroParams(float(zr[0]), float(ga[0]),
                                                  float(th[0])))
