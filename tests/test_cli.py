import hashlib
from pathlib import Path

import pytest

from conftest import STEPPED_GROUPS, random_stream_lines
from m2dne import cli as cli_mod
from m2dne.cli import main
from m2dne.graph import parse_edge_list
from m2dne.train import TrainConfig, fit, load_checkpoint

DATA = Path(__file__).parent / "data"
TOY_EDGES = str(DATA / "toy_edges.tsv")
TOY_LABELS = str(DATA / "toy_labels.tsv")

FAST = ["--dim", "4", "--epochs", "3", "--batch-size", "64", "--seed", "7"]


def train(tmp_path, name="m", extra=()):
    ckpt = str(tmp_path / f"{name}.ckpt")
    trace = str(tmp_path / f"{name}_trace.csv")
    rc = main(["train", "--edges", TOY_EDGES, "--out", ckpt, "--trace", trace,
               *FAST, *extra])
    assert rc == 0
    return ckpt, trace


class TestTrainCommand:
    def test_deterministic_outputs(self, tmp_path, capsys):
        c1, t1 = train(tmp_path, "a")
        c2, t2 = train(tmp_path, "b")
        assert Path(c1).read_bytes() == Path(c2).read_bytes()
        assert Path(t1).read_bytes() == Path(t2).read_bytes()

    def test_missing_edges_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])
        assert exc.value.code == 2

    def test_epsilon_zero_freezes_macro_column(self, tmp_path, capsys):
        _, trace = train(tmp_path, "z", extra=["--epsilon", "0"])
        rows = Path(trace).read_text().strip().splitlines()[1:]
        macro_col = {row.split(",")[2] for row in rows}
        assert len(macro_col) == 1

    def test_inputs_not_mutated(self, tmp_path, capsys):
        before = hashlib.sha256(Path(TOY_EDGES).read_bytes()).hexdigest()
        train(tmp_path)
        after = hashlib.sha256(Path(TOY_EDGES).read_bytes()).hexdigest()
        assert before == after

    def test_random_stream_trains(self, tmp_edges, tmp_path, capsys):
        # 4000 events over 7844 nodes; fitting the growth model with S and
        # zeta as separate parameters divided by an underflowed zeta here
        edges = tmp_edges(random_stream_lines())
        rc = main(["train", "--edges", edges, "--epochs", "1",
                   "--batch-size", "64", "--dim", "16",
                   "--out", str(tmp_path / "r.ckpt"),
                   "--trace", str(tmp_path / "r.csv")])
        assert rc == 0, capsys.readouterr().err

    def test_summary_reports_range_hits(self, tmp_path, capsys):
        # Adagrad moves an embedding row by at most rate * sqrt(dim) per
        # step, so the toy's scores pass RANGE_BOUND at rate 2 (282 hits),
        # not at rate 1
        train(tmp_path, extra=["--learning-rate", "2"])
        _, trace = fit(parse_edge_list(TOY_EDGES),
                       TrainConfig(dim=4, epochs=3, batch_size=64, seed=7,
                                   learning_rate=2.0))
        assert trace.range_hits > 0
        assert f"; {trace.range_hits} range hits;" in capsys.readouterr().out

    def test_progress_prints_one_line_per_epoch(self, tmp_path, capsys):
        shown = train(tmp_path, "shown", extra=["--progress"])
        _, trace = fit(parse_edge_list(TOY_EDGES),
                       TrainConfig(dim=4, epochs=3, batch_size=64, seed=7))
        assert capsys.readouterr().err.splitlines() == [
            f"epoch {e}/3 micro={mi:.4f} macro={ma:.4f}"
            for e, mi, ma in zip(trace.epoch, trace.micro, trace.macro)]
        assert ([Path(p).read_bytes() for p in shown]
                == [Path(p).read_bytes() for p in train(tmp_path, "quiet")])

    def test_bad_path_runtime_error(self, tmp_path, capsys):
        rc = main(["train", "--edges", str(tmp_path / "absent.tsv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestConfigFile:
    def test_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim = 6\nepochs = 2\nseed = 3\n")
        ckpt = str(tmp_path / "c.ckpt")
        rc = main(["train", "--edges", TOY_EDGES, "--config", str(cfg),
                   "--out", ckpt, "--trace", str(tmp_path / "t.csv")])
        assert rc == 0
        assert load_checkpoint(ckpt).dim == 6

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim = 6\nepochs = 2\n")
        ckpt = str(tmp_path / "c.ckpt")
        rc = main(["train", "--edges", TOY_EDGES, "--config", str(cfg),
                   "--dim", "5", "--out", ckpt,
                   "--trace", str(tmp_path / "t.csv")])
        assert rc == 0
        assert load_checkpoint(ckpt).dim == 5

    @pytest.mark.parametrize("line,key", [
        ("learnig_rate = 9", "learnig_rate"),
        ("deterministic = true", "deterministic"),
        # the former gradient clip's key
        ("grad-clip = 1", "grad-clip"),
    ])
    def test_unknown_key_names_file_line_and_key(self, tmp_path, capsys,
                                                 line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dim = 6\n{line}\n")
        rc = main(["train", "--edges", TOY_EDGES, "--config", str(cfg),
                   "--out", str(tmp_path / "c.ckpt"),
                   "--trace", str(tmp_path / "t.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2:" in err and repr(key) in err
        assert not (tmp_path / "c.ckpt").exists()

    def test_line_without_equals_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim = 6\nepochs 2\n")
        rc = main(["train", "--edges", TOY_EDGES, "--config", str(cfg),
                   "--out", str(tmp_path / "c.ckpt"),
                   "--trace", str(tmp_path / "t.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:2: expected key=value\n"
        assert not (tmp_path / "c.ckpt").exists()

    def test_bad_value_names_file_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# widths\nepochs = 2\ndim = six\n")
        rc = main(["train", "--edges", TOY_EDGES, "--config", str(cfg),
                   "--out", str(tmp_path / "c.ckpt"),
                   "--trace", str(tmp_path / "t.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{cfg}:3:" in err and "'dim'" in err and "'six'" in err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # as in the edge and label files
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfdim = 6\nepochs = 2\n")
        ckpt = str(tmp_path / "c.ckpt")
        rc = main(["train", "--edges", TOY_EDGES, "--config", str(cfg),
                   "--out", ckpt, "--trace", str(tmp_path / "t.csv")])
        assert rc == 0
        assert load_checkpoint(ckpt).dim == 6

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, capsys,
                                               command):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"dim = 6\n# widths \xff\nepochs = 2\n")
        outputs = (["--out", str(tmp_path / "c.ckpt"),
                    "--trace", str(tmp_path / "t.csv")]
                   if command == "train" else [])
        rc = main([command, "--edges", TOY_EDGES, "--config", str(cfg),
                   *outputs])
        assert rc == 1
        assert capsys.readouterr().err \
            == f"error: {cfg}:2: byte 0xff is not valid UTF-8\n"
        assert not (tmp_path / "c.ckpt").exists()

    @pytest.mark.parametrize("line,key,rule", [
        ("epochs = 0", "epochs", "epochs must be >= 1"),
        ("dim = 0", "dim", "dim must be >= 1"),
        ("epsilon = 1.5", "epsilon", "epsilon must be in [0, 1]"),
        ("batch-size = -2", "batch-size", "batch_size must be >= 1"),
        ("learning-rate = nan", "learning-rate",
         "learning_rate must be finite and >= 0"),
    ])
    def test_out_of_range_value_names_file_line_and_key(self, tmp_path,
                                                         capsys, line, key,
                                                         rule):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 3\n{line}\n")
        rc = main(["train", "--edges", TOY_EDGES, "--config", str(cfg),
                   "--out", str(tmp_path / "c.ckpt"),
                   "--trace", str(tmp_path / "t.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2:" in err and repr(key) in err and rule in err
        assert not (tmp_path / "c.ckpt").exists()


class TestEvalCommand:
    def test_reconstruct_report_shape(self, tmp_path, capsys):
        ckpt, _ = train(tmp_path)
        capsys.readouterr()
        rc = main(["eval", "reconstruct", "--checkpoint", ckpt, "--edges",
                   TOY_EDGES, "--k", "2,5"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("# config:")
        metrics = [line.split("\t")[1] for line in out[1:]]
        assert metrics == ["precision@2", "precision@5", "auc"]

    def test_classify_requires_labels(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "classify", "--checkpoint", "x", "--edges", TOY_EDGES])
        assert exc.value.code == 2

    def test_classify_runs(self, tmp_path, capsys):
        ckpt, _ = train(tmp_path)
        capsys.readouterr()
        rc = main(["eval", "classify", "--checkpoint", ckpt, "--edges",
                   TOY_EDGES, "--labels", TOY_LABELS, "--ratios", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "macro_f1@0.5" in out and "micro_f1@0.5" in out

    def test_classify_repeated_ratio_fails(self, tmp_path, capsys):
        ckpt, _ = train(tmp_path)
        capsys.readouterr()
        rc = main(["eval", "classify", "--checkpoint", ckpt, "--edges",
                   TOY_EDGES, "--labels", TOY_LABELS, "--ratios", "0.5,0.5"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "train ratio 0.5 is repeated" in captured.err
        assert "macro_f1" not in captured.out

    @pytest.mark.parametrize("task,flags,code,message", [
        ("classify", ["--labels", TOY_LABELS, "--ratios", ","], 2,
         "argument --ratios: empty entry in ','"),
        ("recommend", ["--split-epoch", "10", "--k", ","], 2,
         "argument --k: empty entry in ','"),
        ("reconstruct", ["--k", "10,10"], 1, "K 10 is repeated"),
        ("reconstruct", ["--k", "2,,5"], 2,
         "argument --k: empty entry in '2,,5'")],
        ids=["classify-flags0-train ratio list is empty",
             "recommend-flags1-K list is empty",
             "reconstruct-flags2-K 10 is repeated",
             "reconstruct-flags3-empty K entry"])
    def test_bad_list_fails(self, tmp_path, capsys, task, flags, code,
                            message):
        # an empty entry is a usage error (exit 2) that argparse reports
        # naming the flag; a repeated one reaches the evaluator (exit 1)
        ckpt, _ = train(tmp_path)
        capsys.readouterr()
        try:
            rc = main(["eval", task, "--checkpoint", ckpt, "--edges",
                       TOY_EDGES, *flags])
        except SystemExit as exc:
            rc = exc.code
        assert rc == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("task,flags,message", [
        ("reconstruct", ["--k", "0"], "K=0 is below 1"),
        ("scale", ["--t-next", "12", "--train-end", "0"],
         "train_end=0 is below 1"),
        ("scale", ["--t-next", "1"],
         "t_next=1 leaves no training epoch before it")])
    def test_lower_bound_named(self, tmp_path, capsys, task, flags, message):
        # the message names the bound that failed, not the upper one
        ckpt, _ = train(tmp_path)
        capsys.readouterr()
        rc = main(["eval", task, "--checkpoint", ckpt, "--edges", TOY_EDGES,
                   *flags])
        assert rc == 1
        assert f"error: {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("task,flags", [
        ("recommend", ["--split-epoch", "10"]), ("scale", ["--t-next", "12"])])
    def test_seed_rejected_where_nothing_is_drawn(self, tmp_path, capsys, task,
                                                  flags):
        ckpt, _ = train(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["eval", task, "--checkpoint", ckpt, "--edges", TOY_EDGES,
                  *flags, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_recommend_and_linkpred_run(self, tmp_path, capsys):
        ckpt, _ = train(tmp_path)
        assert main(["eval", "recommend", "--checkpoint", ckpt, "--edges",
                     TOY_EDGES, "--split-epoch", "10", "--k", "3"]) == 0
        assert main(["eval", "linkpred", "--checkpoint", ckpt, "--edges",
                     TOY_EDGES, "--split-epoch", "10"]) == 0

    def test_scale_runs(self, tmp_path, capsys):
        ckpt, _ = train(tmp_path)
        capsys.readouterr()
        rc = main(["eval", "scale", "--checkpoint", ckpt, "--edges", TOY_EDGES,
                   "--t-next", "12", "--train-end", "10"])
        assert rc == 0
        assert "absolute_error" in capsys.readouterr().out

    def test_golden_report(self, tmp_path, capsys):
        ckpt = str(tmp_path / "g.ckpt")
        rc = main(["train", "--edges", TOY_EDGES, "--dim", "8", "--epochs",
                   "8", "--seed", "7", "--out", ckpt,
                   "--trace", str(tmp_path / "g.csv")])
        assert rc == 0
        report = tmp_path / "report.txt"
        rc = main(["eval", "reconstruct", "--checkpoint", ckpt, "--edges",
                   TOY_EDGES, "--k", "5,25", "--seed", "9", "--out",
                   str(report)])
        assert rc == 0
        assert report.read_bytes() == (DATA / "golden_reconstruct.txt").read_bytes()

    def test_golden_report_of_a_fit_that_learns(self, bench_run, tmp_path,
                                                capsys):
        # the toy fit above barely moves (AUC 0.494); one epoch at rate 0.2
        # on the benchmark's tiny fit-joint input (100 nodes, 600 events)
        # learns: precision@10 0.9, AUC 0.886
        edges = str(bench_run.write_inputs(bench_run.TINY["fit-joint"].shape,
                                           1, tmp_path)["edges"])
        ckpt = str(tmp_path / "l.ckpt")
        rc = main(["train", "--edges", edges, "--dim", "8", "--batch-size",
                   "64", "--epsilon", "0.3", "--epochs", "1",
                   "--learning-rate", "0.2", "--out", ckpt,
                   "--trace", str(tmp_path / "l.csv")])
        assert rc == 0
        report = tmp_path / "report.txt"
        rc = main(["eval", "reconstruct", "--checkpoint", ckpt, "--edges",
                   edges, "--k", "10,100", "--out", str(report)])
        assert rc == 0
        assert (report.read_bytes()
                == (DATA / "golden_learned_reconstruct.txt").read_bytes())

    @pytest.mark.parametrize("fraction", ["0.1", "0.3", "0.995"])
    def test_sampled_reconstruct_reproducible(self, tmp_path, capsys,
                                              fraction):
        # the toy network has 20 nodes, so 190 pairs
        ckpt, _ = train(tmp_path)
        reports = []
        for seed in ("5", "5", "6"):
            report = tmp_path / f"r{len(reports)}.txt"
            rc = main(["eval", "reconstruct", "--checkpoint", ckpt, "--edges",
                       TOY_EDGES, "--k", "1", "--sample-fraction", fraction,
                       "--seed", seed, "--out", str(report)])
            assert rc == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
        assert reports[0] != reports[2]
        header = reports[0].decode().splitlines()[0]
        assert f" candidates={round(float(fraction) * 190)} " in header

    def test_node_count_mismatch_fails(self, tmp_path, capsys):
        ckpt, _ = train(tmp_path)
        other = tmp_path / "other.tsv"
        other.write_text("a b 1\nb c 2\n")
        rc = main(["eval", "reconstruct", "--checkpoint", ckpt, "--edges",
                   str(other), "--k", "1"])
        assert rc == 1


class TestForecastCommand:
    def test_zero_horizon_header_only(self, tmp_path, capsys):
        ckpt, _ = train(tmp_path)
        out = tmp_path / "fc.csv"
        rc = main(["forecast", "--checkpoint", ckpt, "--edges", TOY_EDGES,
                   "--train-fraction", "1.0", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == \
            "epoch,predicted_cumulative_edges,observed_cumulative_edges\n"

    def test_forecast_writes_rows(self, tmp_path, capsys):
        ckpt, _ = train(tmp_path)
        out = tmp_path / "fc.csv"
        rc = main(["forecast", "--checkpoint", ckpt, "--edges", TOY_EDGES,
                   "--train-fraction", "0.5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 6   # 12 epochs, half held out

    def test_node_count_mismatch_fails(self, tmp_path, capsys):
        ckpt, _ = train(tmp_path)
        subset = tmp_path / "subset.tsv"
        subset.write_text("".join(
            line for line in Path(TOY_EDGES).read_text().splitlines(True)
            if all(int(tok) < 12 for tok in line.split()[:2])))
        out = tmp_path / "fc.csv"
        rc = main(["forecast", "--checkpoint", ckpt, "--edges", str(subset),
                   "--out", str(out)])
        assert rc == 1
        assert "checkpoint has 20 nodes but the edge list has 12" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["nan", "1.5"])
    def test_fraction_outside_unit_interval_fails(self, tmp_path, capsys,
                                                  fraction):
        ckpt, _ = train(tmp_path)
        out = tmp_path / "fc.csv"
        rc = main(["forecast", "--checkpoint", ckpt, "--edges", TOY_EDGES,
                   "--train-fraction", fraction, "--out", str(out)])
        assert rc == 1
        assert f"train_fraction={float(fraction)} is not in (0, 1]" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_unknown_mode_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["forecast", "--checkpoint", "x", "--edges", TOY_EDGES,
                  "--mode", "quadratic"])
        assert exc.value.code == 2

    def test_linear_mode(self, tmp_path, capsys):
        ckpt, _ = train(tmp_path)
        out = tmp_path / "fc.csv"
        rc = main(["forecast", "--checkpoint", ckpt, "--edges", TOY_EDGES,
                   "--train-fraction", "0.5", "--mode", "linear",
                   "--out", str(out)])
        assert rc == 0


class TestGradcheckCommand:
    def test_passes_on_toy(self, capsys):
        rc = main(["gradcheck", "--edges", TOY_EDGES, "--dim", "4",
                   "--history", "2", "--negatives", "1", "--seed", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("gradcheck PASS")
        names = [line.split("\t")[0] for line in lines[:-1]]
        assert sorted(names) == sorted(STEPPED_GROUPS)
        assert not {"zeta_raw", "gamma", "theta"} & set(names)

    @pytest.mark.parametrize("flag", ["--epochs", "--batch-size",
                                      "--learning-rate", "--grad-clip"])
    def test_unread_training_flag_is_usage_error(self, capsys, flag):
        # gradient_check reads no epoch count, batch or rate, and
        # --grad-clip, the former gradient clip's flag, belongs to no command
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--edges", TOY_EDGES, "--dim", "2", flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    def test_help_lists_only_read_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--dim", "--history", "--negatives", "--epsilon",
                     "--seed", "--config", "--tolerance"):
            assert flag in out, flag
        for flag in ("--epochs", "--batch-size", "--learning-rate"):
            assert flag not in out, flag

    def test_finite_tolerance_is_read(self, capsys):
        # the default is 1e-4; the line echoes the tolerance the groups met
        rc = main(["gradcheck", "--edges", TOY_EDGES, "--dim", "8",
                   "--history", "3", "--negatives", "2", "--tolerance", "1e-3"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] \
            == "gradcheck PASS (tolerance 0.001)"

    def test_config_shared_with_train(self, tmp_path, capsys):
        # keys only train reads are accepted, and change nothing
        main(["gradcheck", "--edges", TOY_EDGES, "--dim", "4",
              "--history", "2", "--negatives", "1", "--seed", "3"])
        want = capsys.readouterr().out
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim = 4\nhistory = 2\nnegatives = 1\nseed = 3\n"
                       "epochs = 7\nbatch-size = 3\nlearning-rate = 99\n")
        rc = main(["gradcheck", "--edges", TOY_EDGES, "--config", str(cfg)])
        assert rc == 0
        assert capsys.readouterr().out == want


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    ckpt, _ = train(tmp_path_factory.mktemp("toy"))
    return ckpt


def weighted_toy_copy(tmp_path):
    """The toy list with a positive 4th column on every line."""
    lines = Path(TOY_EDGES).read_text().splitlines()
    path = tmp_path / "weighted.tsv"
    path.write_text("".join(f"{line}\t{1 + k % 4 * 0.5}\n"
                            for k, line in enumerate(lines)))
    return str(path)


class TestWeightColumn:
    """Events carry no weight: every command rejects a 4-field line as it
    rejects any other field count, and none takes --weighted."""

    COMMANDS = {
        "train": ["train", *FAST],
        "reconstruct": ["eval", "reconstruct", "--k", "5,25",
                        "--sample-fraction", "0.3", "--seed", "3"],
        "classify": ["eval", "classify", "--labels", TOY_LABELS,
                     "--ratios", "0.5"],
        "recommend": ["eval", "recommend", "--split-epoch", "10",
                      "--k", "1,5"],
        "linkpred": ["eval", "linkpred", "--split-epoch", "10"],
        "scale": ["eval", "scale", "--t-next", "12"],
        "forecast": ["forecast"],
        "gradcheck": ["gradcheck", "--dim", "4", "--history", "2",
                      "--negatives", "1", "--seed", "3"],
    }

    def args(self, name, ckpt, tmp_path):
        """The command on the weighted toy copy; what it would write goes
        under ``tmp_path``."""
        args = [*self.COMMANDS[name], "--edges", weighted_toy_copy(tmp_path)]
        if name == "train":
            args += ["--out", str(tmp_path / "w.ckpt"),
                     "--trace", str(tmp_path / "w.csv")]
        elif name != "gradcheck":
            args += ["--checkpoint", ckpt]
        if name == "forecast":
            args += ["--out", str(tmp_path / "forecast.csv")]
        return args

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_four_fields_rejected(self, tmp_path, capsys, toy_checkpoint,
                                  name):
        assert main(self.args(name, toy_checkpoint, tmp_path)) == 1
        assert "line 1: expected 3 fields, got 4" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["weighted.tsv"]

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_weighted_flag_is_usage_error(self, tmp_path, capsys,
                                          toy_checkpoint, name):
        with pytest.raises(SystemExit) as exc:
            main([*self.args(name, toy_checkpoint, tmp_path), "--weighted"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --weighted" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-4"])
def test_gradcheck_tolerance_out_of_range_is_usage_error(capsys, value):
    # a NaN or negative tolerance would fail every group, correct or not
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--edges", TOY_EDGES, "--dim", "2",
              f"--tolerance={value}"])
    assert exc.value.code == 2
    assert "tolerance must be finite and >= 0" in capsys.readouterr().err


def test_broken_pipe_exits_1_without_a_message(monkeypatch, capsys):
    # output piped into a reader that exits early, such as `head`: exit 1,
    # and no error message
    def closed_pipe(args):
        raise BrokenPipeError

    monkeypatch.setattr(cli_mod, "cmd_gradcheck", closed_pipe)
    assert main(["gradcheck", "--edges", TOY_EDGES]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,message", [
    (["eval", "reconstruct", "--checkpoint", "m.ckpt", "--edges", TOY_EDGES,
      "--k", "2,x"],
     "argument --k: expected comma-separated integers, got '2,x'"),
    (["eval", "classify", "--checkpoint", "m.ckpt", "--edges", TOY_EDGES,
      "--labels", TOY_LABELS, "--ratios", "0.5,y"],
     "argument --ratios: expected comma-separated numbers, got '0.5,y'"),
    (["gradcheck", "--edges", TOY_EDGES, "--tolerance", "abc"],
     "argument --tolerance: expected a number, got 'abc'")],
    ids=["k", "ratios", "tolerance"])
def test_unparsable_value_is_usage_error(capsys, argv, message):
    # the message names the expected input, not the parsing function
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "invalid" not in err
