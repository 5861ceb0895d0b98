"""Training benchmark for discrimnet.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mnist28_f32_adaptive --seed 0 --seconds 20 --trace 0

It trains the engine from `src/` through `train.run_training`, the path
`discrimnet train` takes, in a closed loop for `--seconds`, checks the
outputs, prints every metric by name with its unit, and ends with one
JSON line: `correct`, `attempted`, `failed` and `metrics` (end-to-end
metrics with `--trace 0`, per-layer metrics with `--trace 1`). Run
records, the first call's `steps.csv` and the spans of traced calls go
to `.perfbench_out/` in the working directory.
"""

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_ROOT = ".perfbench_out"
# BLAS threads, capped at the CPUs this process may use. Summation order
# depends on the thread count, so runs with different counts train
# different numbers: 2 keeps results comparable on any machine with two
# or more CPUs.
BLAS_THREADS = 2
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Set the BLAS thread count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def openblas_threads():
    """Threads OpenBLAS reports it will use, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(threads, dtype):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "openblas_threads_reported": openblas_threads(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "dtype": dtype,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed non-negative")
    if not os.path.isfile(os.path.join(SRC, "discrimnet", "__init__.py")):
        print(f"perfbench: no discrimnet sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    threads = pin_blas_threads()
    sys.path.insert(0, SRC)
    import discrimnet

    if os.path.dirname(os.path.abspath(discrimnet.__file__)) != os.path.join(SRC, "discrimnet"):
        print(f"perfbench: imported discrimnet from {discrimnet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment(threads, workload.config(args.seed, OUT_ROOT).dtype)
    if env["openblas_threads_reported"] not in (None, threads):
        print(f"perfbench: OpenBLAS runs {env['openblas_threads_reported']} threads, "
              f"pinned {threads}", file=sys.stderr)
        return 2

    record, run_dir = bench.run(workload, args.seed, args.seconds, args.trace, OUT_ROOT)
    record["environment"] = env
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(f"# {workload.name} seed {args.seed} trace {args.trace}: {record['calls']} training "
          f"runs, {record['attempted']} steps; record in {run_dir}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for problem in record["problems"]:
        print(f"# FAILED CHECK {problem}")
    for name, metric in record["metrics"].items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    share = record["failed"] / record["attempted"]
    print(f"{'failed_step_share':34s} {share:14.6g} share")
    if "step_ms_p50" in record:
        print(f"{'step_ms_p50':34s} {record['step_ms_p50']:14.6g} ms")
    if "step_ms_tail" in record:
        tail = record["step_ms_tail"]
        print(f"# step_ms_tail is p{tail['percentile']:.4g} of {tail['samples']} steps")
    correct = not record["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
