"""Tests of the benchmark itself, on its smoke mode (a few seconds).

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def by_workload(result: dict) -> dict:
    out = {}
    for key, metric in result["metrics"].items():
        workload, name = key.split("/", 1)
        out.setdefault(workload, {})[name] = metric
    assert set(WORKLOADS) <= set(out)
    return out


@pytest.fixture(scope="module")
def traced():
    return [result_of(bench("--smoke", "--trace", "1", "--seed", "4")) for _ in range(2)]


def test_untraced_smoke_reports_every_end_to_end_metric():
    result = result_of(bench("--smoke", "--trace", "0", "--seed", "3"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for workload, metrics in by_workload(result).items():
        for spec in SPEC["end_to_end"]:
            metric = metrics[spec["name"]]
            assert metric["unit"] == spec["unit"], (workload, spec["name"])
            assert metric["value"] > 0, (workload, spec["name"])
        assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_smoke_reports_every_declared_per_layer_metric(traced):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, metrics in by_workload(traced[0]).items():
        assert set(metrics) == set(declared), (workload, sorted(set(declared) ^ set(metrics)))
        for name, metric in metrics.items():
            assert metric["unit"] == declared[name], (workload, name)
            if metric["unit"] != "count":
                assert metric["value"] > 0, (workload, name)


def test_traced_runs_check_history_and_repeat_node_counts(traced):
    first, second = traced
    assert first["correct"] and second["correct"]  # includes history_repeats
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts and counts == {
        k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "train-small", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        ["cli.eval", 0.0, 10.0, None, {}],
        ["corpus.load", 1.0, 4.0, 0, {}],
        ["trainer.checkpoint_load", 3.0, 5.0, 0, {}],
        ["encoder.images", 3.5, 4.5, 2, {}],  # grandchild: already covered
    ]
    assert tracing.self_time(spans, 0) == pytest.approx(6.0)
    assert tracing.self_time(spans, 2) == pytest.approx(1.0)


def test_training_steps_exclude_graph_walks_and_validation():
    spans = [
        ["trainer.train", 0.0, 1.0, None, {"grad": True}],
        ["encoder.batch_representations", 0.1, 0.2, 0, {"grad": True}],
        ["objective.loss", 0.2, 0.4, 0, {"grad": True}],
        ["tensor.backward", 0.4, 0.5, 0, {"grad": True}],
        [tracing.GRAPH_WALK, 0.5, 0.6, 0, {}],
        ["trainer.adam", 0.6, 0.65, 0, {"grad": True}],
        ["tensor.no_grad", 0.7, 0.9, 0, {"grad": False}],
        ["encoder.batch_representations", 0.71, 0.8, 6, {"grad": False}],
    ]
    (step,) = tracing.training_steps(spans)
    assert step["step_ms"] == pytest.approx(450.0)
    assert step["loss_ms"] == pytest.approx(200.0)
    assert tracing.val_pass_ms(spans) == [pytest.approx(200.0)]


def test_uninstall_restores_every_binding():
    import doclink.cli
    import doclink.tensor
    import doclink.trainer

    before = (doclink.trainer.total_loss, doclink.tensor.backward, doclink.cli.evaluate,
              doclink.tensor.no_grad)
    tracer = tracing.Tracer()
    tracer.install(doclink.tensor)
    assert doclink.cli.evaluate is not before[2]
    assert tracer.missing == []
    tracer.uninstall()
    assert (doclink.trainer.total_loss, doclink.tensor.backward, doclink.cli.evaluate,
            doclink.tensor.no_grad) == before


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert all(name.match(n) for n in names)
    assert len(names) == len(set(names))
    assert all(unit.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert WORKLOADS == ["train-small", "pipeline"]
