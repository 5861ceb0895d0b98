"""Run one workload for a fixed time and turn the timings into metrics.

A run is a closed loop of `train.run_training` calls on the workload's
config, one after another in this process, until `--seconds` is spent.
Every call uses the same seed, so every call must write the same
`steps.csv`. Untraced calls give the end-to-end metrics; with tracing on,
calls alternate between untraced and traced, and the traced ones give the
per-layer metrics and the tracing overhead.
"""

import math
import os
import resource
import shutil
import statistics
import time

import numpy as np

from discrimnet import train
from discrimnet.losses import _CSV_KEYS, CSV_COLUMNS
from discrimnet.tensor import load_bundle

from spans import Recorder
from workloads import BATCH

LAYERS = ("conv0", "relu0", "pool0", "conv1", "relu1", "pool1",
          "flatten", "dense0", "relu2", "dense1", "relu3", "dense2")

# The host this was tuned on runs in a fast and a slow mode, about 30%
# apart, switching every few seconds to minutes. A median snaps to
# whichever mode held most of a run, so from run to run it jumps by the
# whole gap; a mean weighs the modes by time and moves less.
# Step and epoch times are therefore bounded as means. The median step
# (`step_ms_p50`) is printed and recorded, not bounded.
END_TO_END = (
    ("setup_s", "s"),
    ("epoch_s", "s"),
    ("train_samples_per_s", "1/s"),
    ("step_ms_tail", "ms"),
    ("eval_samples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("test_ce", "nats"),
)

# Spans whose self time is reported per training step, as `<span>_ms`.
PER_STEP_SPANS = tuple(f"layers.{n}.{d}" for n in LAYERS for d in ("fwd", "bwd")) + (
    "network.forward", "network.backward",
    "losses.objective", "losses.softmax_ce", "losses.discriminant",
    "losses.adaptive_discriminant", "losses.center", "losses.adaptive_center",
    "streaming.neuron_update", "streaming.center_sample", "streaming.center_minibatch",
    "optim.sgd_step", "data.augment_batch",
)
# Spans reported per call, as `<span>_ms`: once per eval batch, or once per run.
PER_CALL_SPANS = (
    "network.eval_forward", "network.save", "data.synth_blobs",
    "train.load_run_datasets", "tensor.save_bundle", "tensor.load_bundle",
)
MODULES = ("layers", "network", "losses", "streaming", "optim", "data", "train")

PER_LAYER = (
    tuple((f"{s}_ms", "ms") for s in PER_STEP_SPANS)
    + (("streaming.neuron_update_calls", "count"), ("streaming.center_sample_calls", "count"))
    + tuple((f"{s}_ms", "ms") for s in PER_CALL_SPANS)
    + (
        ("train.step_self_ms", "ms"),
        ("train.evaluate_ms", "ms"),
        ("layers.conv0.gflop", "GFLOP"),
        ("layers.conv1.gflop", "GFLOP"),
        ("layers.conv1.im2col_mb", "MB"),
        ("layers.conv1.gflop_per_s", "GFLOP/s"),
        ("network.ckpt_mb", "MB"),
        ("optim.param_mb", "MB"),
        ("trace.step_ms_p50", "ms"),
        ("trace.untraced_step_ms_p50", "ms"),
        ("trace.overhead_pct", "%"),
        ("trace.spans_per_step", "count"),
        ("trace.span_cost_us", "us"),
    )
    + tuple((f"share.{m}_pct", "%") for m in MODULES)
)


def tail(values):
    """The highest percentile, up to p95, with at least 10 samples above it.

    Returns (value, percentile, sample count). The p95 cap keeps the tail
    a property of the program: on a shared machine the few slowest of
    thousands of short steps are stalls of the host, and vary from run
    to run far more than the program does. With 10 samples or fewer no
    such percentile exists, and the median stands in (percentile 50).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), 50.0, n
    above = max(10, math.ceil(0.05 * n))
    return ordered[n - 1 - above], 100.0 * (n - above) / n, n


def check_run(workload, cfg, rec, reference_csv, problems):
    """Correctness checks on one `run_training` call.

    Appends what fails to `problems`; returns the `steps.csv` text and the
    final held-out cross-entropy.
    """
    text = ""
    path = os.path.join(cfg.out_dir, "steps.csv")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            text = f.read()
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        problems.append("steps.csv is missing or has the wrong header")
    rows = lines[1:]
    enabled = {"L_S": True}
    for col in CSV_COLUMNS[3:]:
        enabled[col] = getattr(cfg, "lambda_" + _CSV_KEYS[col]) > 0
    bad = 0
    for row in rows:
        cells = row.split(",")
        try:
            values = [float(c) if c else None for c in cells[1:]]
            ok = len(cells) == len(CSV_COLUMNS) and math.isfinite(values[0]) and all(
                (v is not None and math.isfinite(v)) == enabled[col]
                for col, v in zip(CSV_COLUMNS[2:], values[1:])
            )
        except ValueError:
            ok = False
        bad += not ok
    if bad:
        problems.append(f"{bad} steps.csv rows hold a non-finite or misplaced loss component")
    if len(rows) != workload.steps_per_run:
        problems.append(f"steps.csv has {len(rows)} rows, expected {workload.steps_per_run}")
    test_ce = rec.test_eval[-1][2] if rec.test_eval else math.nan
    if not math.isfinite(test_ce):
        problems.append(f"test_ce is not finite ({test_ce})")
    elif workload.must_beat_chance and not test_ce < math.log(cfg.synth_classes):
        problems.append(f"test_ce {test_ce} is not below chance ln({cfg.synth_classes})")
    if reference_csv is not None and text != reference_csv:
        problems.append("steps.csv differs from the first run with the same seed")
    ckpt = os.path.join(cfg.out_dir, "final.ckpt")
    try:
        with rec.span("tensor.load_bundle"):
            _, arrays = load_bundle(ckpt)
        if not all(np.all(np.isfinite(a)) for a in arrays.values()):
            problems.append("final.ckpt holds non-finite values")
    except (OSError, ValueError, RuntimeError) as e:
        problems.append(f"final.ckpt does not load: {e}")
    return text, test_ce


def expected_span_counts(cfg, steps):
    """How often each span must appear in a traced call of `steps` steps.

    A count of zero where the loss is off, or a missing span where it is
    on, means a wrapper was not installed where the engine looks it up.
    """
    def on(key):
        return getattr(cfg, key) > 0

    counts = {f"layers.{n}.{d}": steps for n in LAYERS for d in ("fwd", "bwd")}
    counts.update({
        "train.step": steps,
        "network.forward": steps,
        "network.backward": steps,
        "losses.objective": steps,
        "losses.softmax_ce": steps,
        "optim.sgd_step": steps,
        "losses.discriminant": steps * on("lambda_discriminant"),
        "losses.adaptive_discriminant": steps * on("lambda_adaptive_discriminant"),
        "streaming.neuron_update": steps * BATCH * on("lambda_adaptive_discriminant"),
        # adaptive_center_loss ends by calling center_loss on the new centres.
        "losses.center": steps * (on("lambda_center") or on("lambda_adaptive_center")),
        "streaming.center_minibatch": steps * on("lambda_center"),
        "losses.adaptive_center": steps * on("lambda_adaptive_center"),
        "streaming.center_sample": steps * BATCH * on("lambda_adaptive_center"),
        "data.augment_batch": steps * cfg.augment,
        "network.save": 1,
        "tensor.save_bundle": 1,
        "data.synth_blobs": 1,
        "train.load_run_datasets": 1,
    })
    return counts


class SpanTotals:
    """Span self and inclusive time summed over the traced calls of a run.

    Spans of each call's first step are left out, as in the untraced
    step metrics: that step is warm-up.
    """

    def __init__(self):
        self.self_s, self.incl_s, self.calls, self.module_s = {}, {}, {}, {}
        self.steps = self.epochs = self.step_spans = 0
        self.step_s = []
        self.tables = []
        self.conv_inputs, self.param_bytes, self.ckpt_bytes = {}, 0, 0

    def add(self, table, rec, ckpt_bytes):
        keep = table["step"] != 0
        name_id, step = table["name_id"][keep], table["step"][keep]
        self_s, duration = table["self"][keep], table["duration"][keep]
        for i, name in enumerate(table["names"]):
            pick = name_id == i
            self.self_s[name] = self.self_s.get(name, 0.0) + float(self_s[pick].sum())
            self.incl_s[name] = self.incl_s.get(name, 0.0) + float(duration[pick].sum())
            self.calls[name] = self.calls.get(name, 0) + int(pick.sum())
            module = name.split(".")[0]
            in_step = float(self_s[pick & (step > 0)].sum())
            self.module_s[module] = self.module_s.get(module, 0.0) + in_step
            if name == "train.step":
                self.steps += int(pick.sum())
                self.step_s += list(duration[pick])
        self.step_spans += int((step > 0).sum())
        self.epochs += len(rec.epoch_s)
        self.conv_inputs, self.param_bytes = rec.conv_inputs, rec.param_bytes
        self.ckpt_bytes = ckpt_bytes
        self.tables.append(table)

    def save(self, path):
        names = sorted(self.incl_s)
        columns = {k: [] for k in ("name_id", "start", "end", "parent", "step", "call")}
        for call, table in enumerate(self.tables):
            remap = np.asarray([names.index(n) for n in table["names"]], dtype=np.int32)
            columns["name_id"].append(remap[table["name_id"]])
            for key in ("start", "end", "parent", "step"):
                columns[key].append(table[key])
            columns["call"].append(np.full(len(table["start"]), call, dtype=np.int32))
        np.savez_compressed(path, names=np.asarray(names),
                            **{k: np.concatenate(v) for k, v in columns.items()})


def span_cost_s(calls=20000, batches=5):
    """What a span wrapper adds to one call: the median over a few batches.

    On a machine whose speed drifts by more than the tracing overhead,
    traced and untraced step times cannot resolve it; spans per step
    times this cost can.
    """
    def noop():
        return None

    traced = Recorder(spans=True).wrap("noop", noop)
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - 2 * t1 + t0) / calls)
    return statistics.median(costs)


def per_layer_metrics(totals, untraced_steps):
    steps = max(totals.steps, 1)
    values = {}
    for s in PER_STEP_SPANS:
        values[f"{s}_ms"] = 1e3 * totals.self_s.get(s, 0.0) / steps
    for s in ("streaming.neuron_update", "streaming.center_sample"):
        values[f"{s}_calls"] = totals.calls.get(s, 0) / steps
    for s in PER_CALL_SPANS:
        calls = totals.calls.get(s, 0)
        values[f"{s}_ms"] = 1e3 * totals.self_s.get(s, 0.0) / calls if calls else 0.0
    values["train.step_self_ms"] = 1e3 * totals.self_s.get("train.step", 0.0) / steps
    values["train.evaluate_ms"] = 1e3 * totals.incl_s.get("train.evaluate", 0.0) / max(totals.epochs, 1)
    for name in ("conv0", "conv1"):
        shape, itemsize, padding, cout = totals.conv_inputs[name]
        n, h, w, cin = shape
        rows = n * (h + 2 * padding - 2) * (w + 2 * padding - 2)
        # Forward, weight-gradient and input-gradient GEMMs of one training step.
        values[f"layers.{name}.gflop"] = 3 * 2 * rows * 9 * cin * cout / 1e9
        if name == "conv1":
            values["layers.conv1.im2col_mb"] = rows * 9 * cin * itemsize / 1e6
            busy_s = (values["layers.conv1.fwd_ms"] + values["layers.conv1.bwd_ms"]) / 1e3
            values["layers.conv1.gflop_per_s"] = values["layers.conv1.gflop"] / busy_s
    values["network.ckpt_mb"] = totals.ckpt_bytes / 1e6
    values["optim.param_mb"] = totals.param_bytes / 1e6
    traced = 1e3 * statistics.median(totals.step_s)
    untraced = 1e3 * statistics.median(untraced_steps)
    values["trace.step_ms_p50"] = traced
    values["trace.untraced_step_ms_p50"] = untraced
    values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    # Wrapped calls per step; the step's own span is not a wrapped call.
    values["trace.spans_per_step"] = totals.step_spans / steps - 1.0
    values["trace.span_cost_us"] = 1e6 * span_cost_s()
    step_total = totals.incl_s.get("train.step", 0.0)
    for m in MODULES:
        values[f"share.{m}_pct"] = 100.0 * totals.module_s.get(m, 0.0) / step_total
    return values


def run(workload, seed, seconds, trace, out_root):
    """Run one workload; returns the result record (metrics, checks, details)."""
    run_dir = os.path.join(out_root, workload.name, f"seed{seed}-trace{trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    setup_s, step_s, epoch_s, eval_rate, call_s = [], [], [], [], []
    totals = SpanTotals()
    reference_csv = None
    problems = []
    attempted = failed = 0
    begin = time.perf_counter()
    call = 0
    # A traced invocation needs one untraced and one traced call at least.
    min_calls = 2 if trace else 1
    while call < min_calls or (
        not problems and time.perf_counter() - begin + statistics.median(call_s) <= seconds
    ):
        traced = trace and call % 2 == 1
        cfg = workload.config(seed, os.path.join(run_dir, f"call{call}"))
        rec = Recorder(spans=traced)
        t0 = time.perf_counter()
        call_problems = []
        with rec.installed():
            rec.begin()
            try:
                train.run_training(cfg)
            except Exception as e:  # a failed run is counted and reported, not fatal
                call_problems.append(f"run_training raised {type(e).__name__}: {e}")
        call_s.append(time.perf_counter() - t0)
        csv_text, test_ce = check_run(workload, cfg, rec, reference_csv, call_problems)
        if traced and not call_problems:
            table = rec.span_table()
            counts = {n: int((table["name_id"] == i).sum()) for i, n in enumerate(table["names"])}
            call_problems += [
                f"span {name} recorded {counts.get(name, 0)} times, expected {want}"
                for name, want in expected_span_counts(cfg, workload.steps_per_run).items()
                if counts.get(name, 0) != want
            ]
            totals.add(table, rec, os.path.getsize(os.path.join(cfg.out_dir, "final.ckpt")))
        elif not call_problems:
            setup_s.append(rec.setup_s)
            step_s += rec.step_s[1:]  # the first step of a call is warm-up
            epoch_s += rec.epoch_s
            eval_rate += [samples / sec for sec, samples, _ in rec.test_eval]
        attempted += workload.steps_per_run
        failed += workload.steps_per_run if call_problems else 0
        problems += [f"call {call}: {p}" for p in call_problems]
        if reference_csv is None:
            reference_csv = csv_text
            for name in ("steps.csv", "epochs.csv"):
                if os.path.exists(os.path.join(cfg.out_dir, name)):
                    shutil.copy(os.path.join(cfg.out_dir, name), run_dir)
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        call += 1

    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "calls": call,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "dtype": cfg.dtype,
    }
    if problems:
        record["metrics"] = {}
        return record, run_dir
    if trace:
        totals.save(os.path.join(run_dir, "spans.npz"))
        values = per_layer_metrics(totals, step_s)
        units = dict(PER_LAYER)
    else:
        tail_ms, percentile, samples = tail([1e3 * s for s in step_s])
        values = {
            "setup_s": statistics.median(setup_s),
            "epoch_s": statistics.fmean(epoch_s),
            "train_samples_per_s": BATCH * len(step_s) / sum(step_s),
            "step_ms_tail": tail_ms,
            "eval_samples_per_s": statistics.median(eval_rate),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "test_ce": test_ce,
        }
        units = dict(END_TO_END)
        record["step_ms_tail"] = {"percentile": percentile, "samples": samples}
        record["step_ms_p50"] = 1e3 * statistics.median(step_s)
        record["samples"] = {"setup": len(setup_s), "steps": len(step_s),
                             "epochs": len(epoch_s), "test_evals": len(eval_rate)}
    record["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return record, run_dir
