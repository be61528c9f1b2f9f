"""m2dne benchmark: one command, one process per workload run.

    python3 bench/run.py --workload fit-joint --seed 1 --seconds 48 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout. The run generates the workload's inputs from the
seed, drives the public API one operation at a time (closed loop), checks
every output, prints each metric with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with no tracing, as
medians over a schedule of operations whose length ``--seconds`` fixes (see
:func:`schedule` and :func:`planned_slots`).

``--trace 1`` reports per-layer metrics: one untraced and one traced pass of
set-up, training and evaluation, the traced one with every public function
listed in :func:`install_tracing` wrapped. Spans and counts are written to
``.bench_out/``; the two passes give the tracing overhead.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads: single-threaded BLAS and one eval worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("M2DNE_THREADS", None)

import argparse                # noqa: E402
import hashlib                 # noqa: E402
import json                    # noqa: E402
import math                    # noqa: E402
import platform                # noqa: E402
import resource                # noqa: E402
import shutil                  # noqa: E402
import signal                  # noqa: E402
import statistics              # noqa: E402
import sys                     # noqa: E402
import time                    # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path       # noqa: E402

import numpy as np             # noqa: E402

from generate import write_inputs   # noqa: E402
from tracer import Tracer            # noqa: E402
from workloads import (CLASSIFY_RATIOS, EVAL_SEED, FORECAST_FRACTION,  # noqa: E402
                       FORECAST_MODE, LINKPRED_SEEDS, RECOMMEND_K,
                       RECONSTRUCT_K, SPLIT_FRACTION, TINY, WORKLOADS,
                       Workload)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
MIN_SLOTS = 4
SLOT_SECONDS = 12

END_TO_END = (
    ("setup_s", "s"), ("fit_events_per_s", "events/s"), ("edge_auc", "ratio"),
    ("reconstruct_s", "s"), ("recommend_s", "s"), ("linkpred_s", "s"),
    ("forecast_s", "s"), ("eval_total_s", "s"), ("recon_auc", "ratio"),
    ("forecast_rmse", "edges"), ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("graph.parse_edge_list.s", "s"), ("graph.snapshot_arrays.s", "s"),
    ("graph.compute_macro_series.s", "s"),
    ("graph.TemporalNetwork.first_appearance_order.s", "s"),
    ("train.TrainData.s", "s"), ("micro.NegativeTable.s", "s"),
    ("micro.draw_event_negatives.s", "s"),
    ("micro.draw_event_negatives.draws", "count"),
    ("micrograd.batch_loss_and_grads.s", "s"),
    ("micrograd.batch_loss_and_grads.pairs", "count"),
    ("micrograd.batch_loss_and_grads.pairs_per_s", "1/s"),
    ("train.range_hit_ratio", "ratio"),
    ("macro.macro_loss_and_grads.s", "s"),
    ("macro.macro_loss_and_grads.calls", "count"),
    ("macro.macro_loss_and_grads.edges", "count"),
    ("macro.fit_params.s", "s"), ("macro.fit_params.calls", "count"),
    ("macro.macro_loss.s", "s"), ("macro.forecast_scale.s", "s"),
    ("train.fit.s", "s"), ("train.sample_batch.s", "s"),
    ("train.step.self_s", "s"),
    ("train.save_checkpoint.s", "s"), ("train.save_checkpoint.bytes", "count"),
    ("train.load_checkpoint.s", "s"),
    ("evaluate.reconstruction_metrics.s", "s"),
    ("evaluate.reconstruction_metrics.pairs", "count"),
    ("evaluate.reconstruction_metrics.pairs_per_s", "1/s"),
    ("evaluate.node_classification.s", "s"),
    ("evaluate.temporal_recommendation.s", "s"),
    ("evaluate.temporal_recommendation.queries", "count"),
    ("evaluate.temporal_link_prediction.s", "s"),
    ("evaluate.scale_prediction.s", "s"),
    ("evaluate.trend_forecast_report.s", "s"),
    ("logreg.LogisticRegression.fit.s", "s"),
    ("logreg.LogisticRegression.fit.calls", "count"),
    ("trace.fit_events_per_s.overhead", "ratio"),
    ("trace.eval_total_s.overhead", "ratio"),
)

EVAL_TASKS = ("reconstruct", "classify", "recommend", "linkpred", "scale",
              "forecast")


class ProgramMissing(RuntimeError):
    pass


class OpFailed(RuntimeError):
    pass


@dataclass
class Program:
    """The m2dne modules, always called through these module attributes so a
    traced run sees every call."""
    graph: object
    train: object
    evaluate: object
    macro: object
    micro: object
    logreg: object
    util: object


def import_program() -> Program:
    if not (SRC / "m2dne" / "__init__.py").is_file():
        raise ProgramMissing(f"no m2dne sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import m2dne
    if Path(m2dne.__file__).resolve().parent != (SRC / "m2dne").resolve():
        raise ProgramMissing(f"m2dne resolved to {m2dne.__file__}, "
                             f"not to the checkout's sources")
    from m2dne import evaluate, graph, logreg, macro, micro, train, util
    return Program(graph, train, evaluate, macro, micro, logreg, util)


class Ledger:
    """Attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            print(f"error: {label} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            raise OpFailed(label) from exc

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {label}", file=sys.stderr)


@dataclass
class Inputs:
    net: object
    labels: object
    test_net: object
    planted: object          # the state every protocol evaluates


def all_finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def set_up(m: Program, wl: Workload, paths: dict, ledger: Ledger):
    """Read and prepare the inputs; returns (seconds, Inputs)."""
    history = wl.train_config()["history"]
    start = time.perf_counter()
    net = ledger.op("parse_edge_list", m.graph.parse_edge_list, paths["edges"])
    ledger.op("TrainData", m.train.TrainData, net, history)
    labels = ledger.op("parse_labels", m.graph.parse_labels, paths["labels"], net)
    split = int(SPLIT_FRACTION * net.epoch_count)
    _, test_net = ledger.op("split_by_time", m.graph.split_by_time, net, split)
    planted = ledger.op("load_checkpoint", m.train.load_checkpoint,
                        paths["checkpoint"])
    return time.perf_counter() - start, Inputs(net, labels, test_net, planted)


def edge_auc(embeddings: np.ndarray, net, seed: int) -> float:
    """AUC of -||u_i - u_j||^2 for the static edges against as many seeded
    uniform non-edges (average ranks on ties)."""
    V = embeddings.shape[0]
    lo = np.minimum(net.src, net.dst)
    hi = np.maximum(net.src, net.dst)
    pos = np.unique(lo * V + hi)
    if 2 * pos.size > V * (V - 1) // 2:
        raise ValueError("too few non-edges to match the edges")
    rng = np.random.default_rng([seed, 11])
    neg = np.zeros(0, dtype=np.int64)
    while neg.size < pos.size:
        a, b = rng.integers(V, size=(2, 2 * pos.size))
        keys = np.minimum(a, b) * V + np.maximum(a, b)
        keys = keys[(a != b) & ~np.isin(keys, pos)]
        _, first = np.unique(np.concatenate([neg, keys]), return_index=True)
        neg = np.concatenate([neg, keys])[np.sort(first)]
    keys = np.concatenate([pos, neg[:pos.size]])
    diff = embeddings[keys // V] - embeddings[keys % V]
    scores = -np.einsum("nd,nd->n", diff, diff)
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[inverse]
    n = pos.size
    return float((ranks[:n].sum() - n * (n + 1) / 2.0) / (n * n))


def train_once(m: Program, wl: Workload, inputs: Inputs, ckpt: Path,
               ledger: Ledger, seed: int) -> dict:
    """fit, checkpoint round trip and quality guard for one training run."""
    config = m.train.TrainConfig(**wl.train_config())
    net = inputs.net
    start = time.perf_counter()
    state, trace = ledger.op("fit", m.train.fit, net, config)
    seconds = time.perf_counter() - start
    steps = math.ceil(len(net) / config.batch_size)
    ledger.check("loss trace finite",
                 all_finite(trace.micro + trace.macro + trace.total))
    ledger.op("save_checkpoint", m.train.save_checkpoint, state, ckpt)
    loaded = ledger.op("load_checkpoint", m.train.load_checkpoint, ckpt)
    ledger.check("checkpoint round trip", same_state(state, loaded))
    auc = edge_auc(loaded.embeddings, net, seed)
    ledger.check("edge_auc in [0, 1]", 0.0 <= auc <= 1.0)
    return {"events_per_s": config.epochs * steps * config.batch_size / seconds,
            "pairs": config.epochs * steps * config.batch_size
                     * (1 + 2 * config.negatives),
            "range_hits": trace.range_hits,
            "sha256": hashlib.sha256(ckpt.read_bytes()).hexdigest(),
            "edge_auc": auc}


def same_state(a, b) -> bool:
    ga, gb = a.param_groups(), b.param_groups()
    return ga.keys() == gb.keys() and all(
        np.array_equal(np.asarray(ga[k]), np.asarray(gb[k])) for k in ga)


def evaluate_task(m: Program, wl: Workload, inputs: Inputs, ledger: Ledger,
                  task: str, seed: int = EVAL_SEED) -> dict:
    """One protocol with the CLI defaults on the planted state: its seconds,
    its report text and the AUC or RMSE the metrics quote. ``seed`` is the
    link-prediction seed."""
    ev, net, state = m.evaluate, inputs.net, inputs.planted
    emb = state.embeddings
    calls = {
        "reconstruct": lambda: ev.reconstruction_metrics(
            emb, net, RECONSTRUCT_K, sample_fraction=wl.sample_fraction,
            rng=m.util.substream(EVAL_SEED, "eval-splits")),
        "classify": lambda: ev.node_classification(
            emb, inputs.labels, CLASSIFY_RATIOS, EVAL_SEED),
        "recommend": lambda: ev.temporal_recommendation(
            emb, inputs.test_net, RECOMMEND_K),
        "linkpred": lambda: ev.temporal_link_prediction(
            emb, inputs.test_net, net, seed),
        "scale": lambda: ev.scale_prediction(state, net, net.epoch_count),
        "forecast": lambda: ev.trend_forecast_report(
            state, net, FORECAST_FRACTION, n_mode=FORECAST_MODE)[0],
    }
    start = time.perf_counter()
    report = ledger.op(task, calls[task])
    out = {"task": task, "seed": seed,
           "seconds": time.perf_counter() - start, "text": report.to_text()}
    ledger.check(f"{task} metrics finite", all_finite(report.metrics.values()))
    if task == "reconstruct":
        out["recon_auc"] = report.metrics["auc"]
        ledger.check("recon auc in [0, 1]", 0.0 <= out["recon_auc"] <= 1.0)
    elif task == "forecast":
        out["forecast_rmse"] = report.metrics["suffix_rmse"]
    return out


def check_repeats(fits: list, evals: list, ledger: Ledger) -> None:
    """Same seed, same bytes: checkpoints and every report must repeat."""
    ledger.check("checkpoint bytes identical across repeats",
                 len({f["sha256"] for f in fits}) == 1)
    texts = defaultdict(set)
    for e in evals:
        texts[e["task"], e["seed"]].add(e["text"])
    for (task, seed), seen in sorted(texts.items()):
        ledger.check(f"{task} (seed {seed}) report identical across repeats",
                     len(seen) == 1)


def schedule(slots: int) -> list:
    """The operations of an untraced run, in order, as (op, seed) pairs.

    Every slot trains once and runs the five short protocols; link
    prediction takes the next of LINKPRED_SEEDS each time, since how many
    iterations its classifiers need varies by about 12% with the fold split
    a seed draws. Every second slot ends with the forecast (about ten
    seconds at any input size). The speed of a shared host's virtual CPUs
    swings by up to half for tens of seconds at a time, so each metric is
    sampled across the whole run, not in one burst.
    """
    ops = []
    for i in range(slots):
        ops += [("fit", None), ("reconstruct", EVAL_SEED),
                ("classify", EVAL_SEED), ("recommend", EVAL_SEED),
                ("linkpred", LINKPRED_SEEDS[i % len(LINKPRED_SEEDS)]),
                ("scale", EVAL_SEED)]
        if i % 2 == 1:
            ops.append(("forecast", EVAL_SEED))
    return ops


def planned_slots(seconds: float) -> int:
    """Slots a run of ``seconds`` makes: fixed by the run length alone, so
    every commit is measured on the same samples however fast it is.
    SLOT_SECONDS is the mean cost of a slot on a 2-core x86 sandbox; with
    MIN_SLOTS every link-prediction seed and the forecast run twice."""
    return max(MIN_SLOTS, round(seconds / SLOT_SECONDS))


def run_untraced(m: Program, wl: Workload, paths: dict, ckpt: Path,
                 slots: int, seed: int, ledger: Ledger) -> dict:
    """Run :func:`schedule`, with a set-up before every operation. Each time
    is the median of its samples; ``eval_total_s`` is the sum of the six
    per-protocol medians. Quality metrics are identical across repeats
    (checked)."""
    setup_s, fits, evals = [], [], []
    for op, eval_seed in schedule(slots):
        # only the latest inputs stay alive, so the heap the program works
        # in (and its garbage-collection cost) does not grow
        seconds_taken, inputs = set_up(m, wl, paths, ledger)
        setup_s.append(seconds_taken)
        if op == "fit":
            fits.append(train_once(m, wl, inputs, ckpt, ledger, seed))
        else:
            evals.append(evaluate_task(m, wl, inputs, ledger, op, eval_seed))
    check_repeats(fits, evals, ledger)
    per_task = {task: statistics.median(e["seconds"] for e in evals
                                        if e["task"] == task)
                for task in EVAL_TASKS}
    first = {e["task"]: e for e in reversed(evals)}
    return {
        "setup_s": statistics.median(setup_s),
        "fit_events_per_s": statistics.median(f["events_per_s"] for f in fits),
        "edge_auc": fits[0]["edge_auc"],
        "reconstruct_s": per_task["reconstruct"],
        "recommend_s": per_task["recommend"],
        "linkpred_s": per_task["linkpred"],
        "forecast_s": per_task["forecast"],
        "eval_total_s": sum(per_task.values()),
        "recon_auc": first["reconstruct"]["recon_auc"],
        "forecast_rmse": first["forecast"]["forecast_rmse"],
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# traced run

def install_tracing(m: Program, tracer: Tracer) -> None:
    """Register every traced public function at the name its caller uses."""
    g, tr, ev, ma = m.graph, m.train, m.evaluate, m.macro

    def add_count(key, value_of):
        def counter(t, args, kwargs, result):
            t.count(key, value_of(args, kwargs, result))
        return counter

    tracer.add(g, "parse_edge_list", "graph.parse_edge_list")
    tracer.add(tr, "snapshot_arrays", "graph.snapshot_arrays")
    tracer.add(tr, "compute_macro_series", "graph.compute_macro_series")
    tracer.add(ev, "compute_macro_series", "graph.compute_macro_series")
    tracer.add(g.TemporalNetwork, "first_appearance_order",
               "graph.TemporalNetwork.first_appearance_order")
    tracer.add(tr.TrainData, "__init__", "train.TrainData")
    tracer.add(m.micro.NegativeTable, "__init__", "micro.NegativeTable")
    tracer.add(tr, "draw_event_negatives", "micro.draw_event_negatives",
               add_count("micro.draw_event_negatives.draws",
                         lambda a, kw, r: 2 * len(a[0]) * a[3]))
    tracer.add(tr, "batch_loss_and_grads", "micrograd.batch_loss_and_grads",
               add_count("micrograd.batch_loss_and_grads.pairs",
                         lambda a, kw, r: r[2]["pairs"]))
    tracer.add(ma, "macro_loss_and_grads", "macro.macro_loss_and_grads",
               add_count("macro.macro_loss_and_grads.edges",
                         lambda a, kw, r: len(a[2])))
    tracer.add(ma, "fit_params", "macro.fit_params")
    tracer.add(ma, "macro_loss", "macro.macro_loss")
    tracer.add(ma, "forecast_scale", "macro.forecast_scale")
    tracer.add(tr, "fit", "train.fit")
    tracer.add(tr, "sample_batch", "train.sample_batch")
    tracer.add(tr, "step", "train.step")
    tracer.add(tr, "save_checkpoint", "train.save_checkpoint",
               add_count("train.save_checkpoint.bytes",
                         lambda a, kw, r: os.path.getsize(a[1])))
    tracer.add(tr, "load_checkpoint", "train.load_checkpoint")
    tracer.add(ev, "reconstruction_metrics", "evaluate.reconstruction_metrics",
               add_count("evaluate.reconstruction_metrics.pairs",
                         lambda a, kw, r: r.config["candidates"]))
    tracer.add(ev, "node_classification", "evaluate.node_classification")
    tracer.add(ev, "temporal_recommendation", "evaluate.temporal_recommendation",
               add_count("evaluate.temporal_recommendation.queries",
                         lambda a, kw, r: r.config["queries"]))
    tracer.add(ev, "temporal_link_prediction", "evaluate.temporal_link_prediction")
    tracer.add(ev, "scale_prediction", "evaluate.scale_prediction")
    tracer.add(ev, "trend_forecast_report", "evaluate.trend_forecast_report")
    tracer.add(m.logreg.LogisticRegression, "fit", "logreg.LogisticRegression.fit")


def one_pass(m, wl, paths, ckpt, ledger, seed):
    _, inputs = set_up(m, wl, paths, ledger)
    fit = train_once(m, wl, inputs, ckpt, ledger, seed)
    return fit, [evaluate_task(m, wl, inputs, ledger, task)
                 for task in EVAL_TASKS]


def run_traced(m: Program, wl: Workload, paths: dict, ckpt: Path, seed: int,
               ledger: Ledger, spans_path: Path) -> dict:
    tracer = Tracer(run_id=f"{wl.name}-seed{seed}-pid{os.getpid()}")
    install_tracing(m, tracer)
    plain_fit, plain_eval = one_pass(m, wl, paths, ckpt, ledger, seed)
    with tracer:
        fit, evals = one_pass(m, wl, paths, ckpt, ledger, seed)
    check_repeats([plain_fit, fit], plain_eval + evals, ledger)
    tracer.write(spans_path)

    total, self_total = tracer.totals()
    counts = tracer.counts
    out = {}
    for name, _ in PER_LAYER:
        base, _, measure = name.rpartition(".")
        if measure == "s":
            out[name] = total.get(base, 0.0)
        elif measure == "self_s":
            out[name] = self_total.get(base, 0.0)
        elif measure in ("calls", "draws", "pairs", "edges", "bytes", "queries"):
            out[name] = counts.get(name, 0.0)
    out["micrograd.batch_loss_and_grads.pairs_per_s"] = _ratio(
        counts.get("micrograd.batch_loss_and_grads.pairs", 0.0),
        total.get("micrograd.batch_loss_and_grads", 0.0))
    out["evaluate.reconstruction_metrics.pairs_per_s"] = _ratio(
        counts.get("evaluate.reconstruction_metrics.pairs", 0.0),
        total.get("evaluate.reconstruction_metrics", 0.0))
    out["train.range_hit_ratio"] = _ratio(fit["range_hits"], fit["pairs"])
    out["trace.fit_events_per_s.overhead"] = (fit["events_per_s"]
                                              / plain_fit["events_per_s"])
    out["trace.eval_total_s.overhead"] = (
        sum(e["seconds"] for e in evals)
        / sum(e["seconds"] for e in plain_eval))
    return out


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


# ---------------------------------------------------------------------------
# environment record and entry point

def environment(m: Program) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older NumPy without the dict form
        blas_version = "unknown"
    sources = sorted((SRC / "m2dne").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_version,
            "commit": git_commit(), "src_lines": lines,
            "src_sha256": digest.hexdigest()[:16],
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "eval_workers": m.util.resolve_workers()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description="m2dne benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few-second version for self-tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        m = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    wl = (TINY if args.size == "tiny" else WORKLOADS)[args.workload]
    work = WORK_DIR / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    ledger = Ledger()
    try:
        start = time.perf_counter()
        paths = write_inputs(wl.shape, args.seed, work,
                             dim=wl.train_config()["dim"])
        generate_s = time.perf_counter() - start
        ckpt = work / "model.ckpt"
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
            metrics = run_traced(m, wl, paths, ckpt, args.seed, ledger, spans)
            units = PER_LAYER
        else:
            slots = planned_slots(args.seconds)
            metrics = run_untraced(m, wl, paths, ckpt, slots, args.seed,
                                   ledger)
            units = END_TO_END
    except OpFailed:
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger.check("metrics finite",
                 all_finite(metrics[name] for name, _ in units))
    info = environment(m)
    info["generate_s"] = round(generate_s, 3)
    if not args.trace:
        info["slots"] = slots
    for key, value in info.items():
        print(f"info\t{key}\t{value}")
    if args.trace:
        print(f"info\tspans\t{spans.relative_to(ROOT)}")
    for name, unit in units:
        print(f"metric\t{name}\t{metrics[name]:.6g}\t{unit}")
    print(f"metric\terror_rate\t{ledger.failed / ledger.attempted:.6g}\tratio"
          f"\t({ledger.failed} of {ledger.attempted} operations and checks)")
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # A terminated run still removes its generated inputs (main's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
