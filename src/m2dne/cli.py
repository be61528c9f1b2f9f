"""Command line interface: train / eval / forecast / gradcheck.

Flag precedence: command line > key=value config file (--config) > built-in
defaults. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import evaluate as ev
from .graph import parse_edge_list, parse_labels, split_by_time
from .train import (TrainConfig, fit, gradient_check, init_state,
                    load_checkpoint, save_checkpoint)
from .util import substream

# TrainConfig field name -> the type of its default, which parses its value
TRAIN_FIELDS = {f.name: type(f.default)
                for f in dataclasses.fields(TrainConfig)}


def _read_config_file(path) -> dict:
    """Typed ``key=value`` settings, read as edge lists are; a byte that is
    not UTF-8, an unknown key, a value that does not parse or one that
    TrainConfig rejects fails naming the file, line and key."""
    out = {}
    with open(path, "r", encoding="utf-8-sig",
              errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            bad = [ord(c) - 0xDC00 for c in line if 0xDC80 <= ord(c) <= 0xDCFF]
            if bad:
                raise ValueError(f"{path}:{lineno}: byte 0x{bad[0]:02x} is not "
                                 "valid UTF-8")
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in stripped.split("=", 1))
            name = key.replace("-", "_")
            if name not in TRAIN_FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[name] = TRAIN_FIELDS[name](value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value {value!r} "
                                 f"for key {key!r}") from None
            try:
                TrainConfig(**{name: out[name]})
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: value {value!r} for key "
                                 f"{key!r} is out of range: {exc}") from None
    return out


def build_train_config(args) -> TrainConfig:
    values = _read_config_file(args.config) if args.config else {}
    for name in TRAIN_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return TrainConfig(**values)


def _tokens(text: str) -> list[str]:
    """Comma-separated entries; an empty one is a usage error."""
    if "" in text.split(","):
        raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
    return text.split(",")


def _parsed(text: str, kind, expected: str):
    """``kind(text)``, with a usage error that names the expected input
    when it does not parse."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected {expected}, got {text!r}") from None


def _int_list(text: str):
    return _parsed(text, lambda t: [int(tok) for tok in _tokens(t)],
                   "comma-separated integers")


def _float_list(text: str):
    return _parsed(text, lambda t: [float(tok) for tok in _tokens(t)],
                   "comma-separated numbers")


def _tolerance(text: str) -> float:
    value = _parsed(text, float, "a number")
    if not 0 <= value < math.inf:       # NaN fails too
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and >= 0, got {text!r}")
    return value


def _add_train_flags(p: argparse.ArgumentParser, names) -> None:
    p.add_argument("--config", help="key=value config file (flags override it)")
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       type=TRAIN_FIELDS[name], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="m2dne",
        description="Temporal network embeddings with joint event-level and "
                    "network-scale dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit embeddings on an edge list")
    p_train.add_argument("--edges", required=True)
    p_train.add_argument("--out", default="model.ckpt")
    p_train.add_argument("--trace", default="trace.csv")
    p_train.add_argument("--progress", action="store_true")
    _add_train_flags(p_train, TRAIN_FIELDS)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    ev_sub = p_eval.add_subparsers(dest="task", required=True)

    def eval_common(p):
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--edges", required=True)
        p.add_argument("--out", default=None, help="report path (default stdout)")

    p_rec = ev_sub.add_parser("reconstruct")
    eval_common(p_rec)
    p_rec.add_argument("--k", type=_int_list, default=[100, 1000])
    p_rec.add_argument("--sample-fraction", dest="sample_fraction", type=float,
                       default=1.0)

    p_cls = ev_sub.add_parser("classify")
    eval_common(p_cls)
    p_cls.add_argument("--labels", required=True)
    p_cls.add_argument("--ratios", type=_float_list, default=[0.4, 0.6, 0.8])

    p_recm = ev_sub.add_parser("recommend")
    eval_common(p_recm)
    p_recm.add_argument("--split-epoch", dest="split_epoch", type=int,
                        required=True)
    p_recm.add_argument("--k", type=_int_list, default=[10])

    p_lp = ev_sub.add_parser("linkpred")
    eval_common(p_lp)
    p_lp.add_argument("--split-epoch", dest="split_epoch", type=int,
                      required=True)

    p_sc = ev_sub.add_parser("scale")
    eval_common(p_sc)
    p_sc.add_argument("--t-next", dest="t_next", type=int, required=True)
    p_sc.add_argument("--train-end", dest="train_end", type=int, default=None)
    p_sc.add_argument("--n-mode", dest="n_mode",
                      choices=["observed", "linear"], default="observed")
    for p in (p_rec, p_cls, p_lp):     # the tasks that draw
        p.add_argument("--seed", type=int, default=42)

    p_fc = sub.add_parser("forecast", help="forecast network scale")
    p_fc.add_argument("--checkpoint", required=True)
    p_fc.add_argument("--edges", required=True)
    p_fc.add_argument("--train-fraction", dest="train_fraction", type=float,
                      default=0.75)
    p_fc.add_argument("--mode", choices=["observed", "linear"],
                      default="observed")
    p_fc.add_argument("--out", default="forecast.csv")

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_gc.add_argument("--edges", required=True)
    p_gc.add_argument("--tolerance", type=_tolerance, default=1e-4)
    # the settings gradient_check and its initial state read
    _add_train_flags(p_gc, ("dim", "history", "negatives", "epsilon", "seed"))
    return parser


def _emit(report: ev.MetricReport, out_path) -> None:
    if out_path:
        report.write(out_path)
    else:
        sys.stdout.write(report.to_text())


def cmd_train(args) -> int:
    config = build_train_config(args)
    net = parse_edge_list(args.edges)

    def progress(epoch, _state, so_far):
        print(f"epoch {epoch}/{config.epochs} micro={so_far.micro[-1]:.4f} "
              f"macro={so_far.macro[-1]:.4f}", file=sys.stderr)

    state, trace = fit(net, config,
                       on_epoch=progress if args.progress else None)
    save_checkpoint(state, args.out)
    trace.to_csv(args.trace)
    print(f"trained {config.epochs} epochs on {len(net)} events "
          f"({net.node_count} nodes); final loss {trace.total[-1]:.6g}; "
          f"{trace.range_hits} range hits; checkpoint -> {args.out}; "
          f"trace -> {args.trace}")
    return 0


def _load_model_and_edges(args):
    """The checkpoint and edge list of an eval or forecast command; fails
    when they disagree on the node count."""
    state = load_checkpoint(args.checkpoint)
    net = parse_edge_list(args.edges)
    if net.node_count != state.node_count:
        raise ValueError(f"checkpoint has {state.node_count} nodes but the "
                         f"edge list has {net.node_count}")
    return state, net


def cmd_eval(args) -> int:
    state, net = _load_model_and_edges(args)
    if args.task == "reconstruct":
        rng = substream(args.seed, "eval-splits")
        report = ev.reconstruction_metrics(state.embeddings, net, args.k,
                                           sample_fraction=args.sample_fraction,
                                           rng=rng)
        report.config["seed"] = args.seed
    elif args.task == "classify":
        labels = parse_labels(args.labels, net)
        report = ev.node_classification(state.embeddings, labels, args.ratios,
                                        args.seed)
    elif args.task == "recommend":
        _, test_net = split_by_time(net, args.split_epoch)
        report = ev.temporal_recommendation(state.embeddings, test_net, args.k)
        report.config["split_epoch"] = args.split_epoch
    elif args.task == "linkpred":
        _, test_net = split_by_time(net, args.split_epoch)
        report = ev.temporal_link_prediction(state.embeddings, test_net, net,
                                             args.seed)
        report.config["split_epoch"] = args.split_epoch
    else:  # scale; argparse admits no other task
        report = ev.scale_prediction(state, net, args.t_next,
                                     train_end=args.train_end,
                                     n_mode=args.n_mode)
    _emit(report, args.out)
    return 0


def cmd_forecast(args) -> int:
    state, net = _load_model_and_edges(args)
    report, rows = ev.trend_forecast_report(state, net, args.train_fraction,
                                            n_mode=args.mode)
    ev.write_forecast_csv(rows, args.out)
    sys.stdout.write(report.to_text())
    print(f"forecast table -> {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    config = build_train_config(args)
    net = parse_edge_list(args.edges)
    state = init_state(net.node_count, config)
    report = gradient_check(state, net, config, tolerance=args.tolerance)
    for name, err in report.max_rel_err.items():
        flag = "ok" if err <= args.tolerance else "FAIL"
        print(f"{name}\t{err:.6e}\t{flag}")
    print(f"gradcheck {'PASS' if report.passed else 'FAIL'} "
          f"(tolerance {args.tolerance:g})")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": cmd_train, "eval": cmd_eval,
                "forecast": cmd_forecast, "gradcheck": cmd_gradcheck}
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # runtime failures -> exit 1 with a message
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
