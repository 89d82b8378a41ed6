"""One timed pass of one workload, in a fresh process.

A fresh process per pass means every pass starts with an empty theta memo
and pays the same lazy numpy start-up in its set-up.  Prints one JSON object
on stdout: set-up time, the pass's wall and CPU time, peak RSS, one
[label, milliseconds, status] triple per item and, when traced, the
per-layer metrics.  Oracles run after the pass, outside every timer.

    python3 bench/worker.py --workload bounds --seed 1 --tmp DIR [--trace-out FILE] [--setup-only]
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import exgraph  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _cpu_s() -> float:
    """User plus system CPU time of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    items = workloads.make_items(args.workload, args.seed, args.tiny, args.tmp)
    workloads.warm_up(args.workload, args.tmp)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "env": {"exgraph": exgraph.__file__}}))
        return

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()

    results = []
    times = []
    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            results.append((item.run(), None))
        except Exception as exc:  # a raised error is a failed item, never a crash
            results.append((None, f"error: {type(exc).__name__}: {exc}"))
        times.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        tracer.dump(args.trace_out)
        layers = tracer.layer_metrics()

    samples = []
    for item, (result, error), dt in zip(items, results, times):
        status = error
        if status is None:
            try:
                wrong = item.check(result)
            except Exception:
                wrong = "oracle could not read the result: " + traceback.format_exc(limit=2)
            status = "ok" if wrong is None else f"wrong: {wrong}"
        samples.append([item.label, dt * 1e3, status])

    json.dump({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "items": samples,
        "layers": layers,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "exgraph": exgraph.__file__,
            "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
