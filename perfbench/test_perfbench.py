"""The benchmark's own tests: schema, determinism and failure behaviour.

Run from the root of a checkout with `python3 -m pytest perfbench -q`.
They run each workload for one second (one or two training runs), so
they take about a minute; they check no timing, only what is printed.
"""

import glob
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import bench  # noqa: E402
from spans import Recorder, layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def run_bench(cwd, workload, seed, trace, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload, untraced and traced, seed 7, each in a fresh process."""
    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cwd = tmp_path_factory.mktemp(f"{name}-{trace}")
            proc = run_bench(cwd, name, 7, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            (steps_csv,) = glob.glob(os.path.join(cwd, ".perfbench_out", name, "*", "steps.csv"))
            with open(steps_csv, "rb") as f:
                out[name, trace] = (json.loads(proc.stdout.splitlines()[-1]), f.read())
    return out


def test_spec_matches_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    gated = [w["name"] for w in SPEC["workloads"]]
    assert len(gated) >= 2 and set(gated) <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(bench.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_result_schema(runs, name, trace):
    result, _ = runs[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] % WORKLOADS[name].steps_per_run == 0 < result["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        metric = result["metrics"][m["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, m["name"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_follow_the_config(runs, name):
    metrics = {k: v["value"] for k, v in runs[name, 1][0]["metrics"].items()}
    cfg = WORKLOADS[name].config(7, "unused")
    assert metrics["streaming.neuron_update_calls"] == (
        bench.BATCH if cfg.lambda_adaptive_discriminant else 0)
    assert metrics["streaming.center_sample_calls"] == (
        bench.BATCH if cfg.lambda_adaptive_center else 0)
    assert (metrics["data.augment_batch_ms"] > 0) == cfg.augment
    assert (metrics["streaming.center_minibatch_ms"] > 0) == (cfg.lambda_center > 0)
    assert sum(metrics[f"share.{m}_pct"] for m in bench.MODULES) == pytest.approx(100.0)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_steps_csv(runs, name):
    """Two processes, one seed, pinned BLAS threads: byte-identical losses."""
    assert runs[name, 0][1] == runs[name, 1][1]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "tiny4_f64_streaming", 0, 0,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_highest_percentile_with_ten_samples_above():
    assert bench.tail(list(range(100, 0, -1))) == (90, 90.0, 100)
    assert bench.tail(list(range(1000))) == (949, 95.0, 1000)
    assert bench.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)


def test_self_time_excludes_children():
    rec = Recorder(spans=True)

    def inner():
        time.sleep(0.002)

    inner_traced = rec.wrap("inner", inner)

    def outer():
        inner_traced()
        inner_traced()

    rec.wrap("outer", outer)()
    table = rec.span_table()
    outer_row = table["names"].index("outer")
    (row,) = (table["name_id"] == outer_row).nonzero()[0]
    children = table["parent"] == row
    assert children.sum() == 2
    assert table["self"][row] == pytest.approx(
        table["duration"][row] - table["duration"][children].sum())
    assert table["self"].sum() == pytest.approx(table["duration"][row])


def test_layer_names():
    from discrimnet.network import build_architecture

    net = build_architecture("mnist_small", input_shape=(4, 4, 1))
    assert tuple(layer_names(net.layers)) == bench.LAYERS
