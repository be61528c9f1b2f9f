import hashlib
from pathlib import Path

import pytest

from conftest import STEPPED_GROUPS, random_stream_lines
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
        train(tmp_path, extra=["--learning-rate", "1"])
        _, trace = fit(parse_edge_list(TOY_EDGES),
                       TrainConfig(dim=4, epochs=3, batch_size=64, seed=7,
                                   learning_rate=1.0))
        assert trace.range_hits > 0
        assert f"; {trace.range_hits} range hits;" in capsys.readouterr().out

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

    def test_bad_value_names_file_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# widths\nepochs = 2\ndim = six\n")
        rc = main(["train", "--edges", TOY_EDGES, "--config", str(cfg),
                   "--out", str(tmp_path / "c.ckpt"),
                   "--trace", str(tmp_path / "t.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{cfg}:3:" in err and "'dim'" in err and "'six'" in err

    @pytest.mark.parametrize("line,key,rule", [
        ("epochs = 0", "epochs", "epochs must be >= 1"),
        ("dim = 0", "dim", "dim must be >= 1"),
        ("epsilon = 1.5", "epsilon", "epsilon must be in [0, 1]"),
        ("batch-size = -2", "batch-size", "batch_size must be >= 1"),
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
