"""Self-tests of the benchmark harness (not part of the program's suite).

    python3 -m pytest -q bench/selftest.py

Every workload runs at its tiny size, traced and untraced, with every check.
The cold 200k-iteration growth fit inside ``forecast`` costs about ten
seconds per call whatever the input size, so the file takes a few minutes.
"""

from __future__ import annotations

import filecmp
from collections import Counter
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run                      # noqa: E402
import tracer as tracer_mod     # noqa: E402
from generate import write_inputs   # noqa: E402
from workloads import TINY, WORKLOADS   # noqa: E402

PROGRAM = run.import_program()
TRACED_CLASSES = (PROGRAM.graph.TemporalNetwork, PROGRAM.train.TrainData,
                  PROGRAM.micro.NegativeTable, PROGRAM.logreg.LogisticRegression)


def attribute_snapshot() -> dict:
    """Identity of every attribute of every m2dne module and traced class."""
    owners = [mod for name, mod in sorted(sys.modules.items())
              if name.startswith("m2dne") and isinstance(mod, types.ModuleType)]
    owners += list(TRACED_CLASSES)
    return {(repr(owner), attr): id(value) for owner in owners
            for attr, value in vars(owner).items()}


def run_tiny(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace), "--size", "tiny"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(out[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_generator_is_deterministic(tmp_path, workload):
    wl = TINY[workload]
    a = write_inputs(wl.shape, 5, tmp_path / "a")
    b = write_inputs(wl.shape, 5, tmp_path / "b")
    c = write_inputs(wl.shape, 6, tmp_path / "c")
    for name in a:
        assert filecmp.cmp(a[name], b[name], shallow=False), name
    assert not filecmp.cmp(a["edges"], c["edges"], shallow=False)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_installs_no_wrappers(capsys, monkeypatch, workload):
    def refuse(*args, **kwargs):
        raise AssertionError("untraced run created a tracer")

    monkeypatch.setattr(run, "Tracer", refuse)
    monkeypatch.setattr(run, "install_tracing", refuse)
    before = attribute_snapshot()
    result = run_tiny(capsys, workload, trace=0)
    assert attribute_snapshot() == before
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_restores_every_attribute(capsys, workload):
    before = attribute_snapshot()
    result = run_tiny(capsys, workload, trace=1)
    assert attribute_snapshot() == before
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    for name in ("train.fit.s", "micrograd.batch_loss_and_grads.s",
                 "evaluate.trend_forecast_report.s", "macro.fit_params.calls",
                 "logreg.LogisticRegression.fit.calls"):
        assert metrics[name]["value"] > 0, name
    joint = TINY[workload].epsilon > 0
    assert (metrics["macro.macro_loss_and_grads.calls"]["value"] > 0) == joint
    spans = run.OUT_DIR / f"spans-{workload}-seed3.jsonl"
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert any(r.get("name") == "train.step" and r["parent"] is not None
               for r in records)


def test_schedule_repeats_every_checked_report():
    ops = run.schedule(run.planned_slots(0))
    counts = Counter(ops)
    assert {op for op, _ in counts} == {"fit", *run.EVAL_TASKS}
    assert min(counts.values()) >= 2, counts
    assert run.schedule(run.planned_slots(48)) == run.schedule(run.planned_slots(49))


def test_tracer_self_time_and_restore():
    owner = types.SimpleNamespace()
    owner.inner = lambda: sum(range(1000))
    owner.outer = lambda: owner.inner() + owner.inner()
    tracer = tracer_mod.Tracer("unit")
    tracer.add(owner, "outer", "outer")
    tracer.add(owner, "inner", "inner",
               lambda t, a, kw, r: t.count("inner.sum", r))
    originals = dict(vars(owner))
    with tracer:
        assert owner.outer() == 2 * sum(range(1000))
    assert vars(owner) == originals
    total, self_total = tracer.totals()
    assert tracer.counts["inner.calls"] == 2
    assert tracer.counts["inner.sum"] == 2 * sum(range(1000))
    assert self_total["outer"] == pytest.approx(total["outer"] - total["inner"])
    parents = {s["name"]: s["parent"] for s in tracer.spans}
    outer_id = next(s["id"] for s in tracer.spans if s["name"] == "outer")
    assert parents["inner"] == outer_id and parents["outer"] is None


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [wl.why for wl in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
