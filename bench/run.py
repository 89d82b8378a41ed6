"""exgraph benchmark.

    python3 bench/run.py --workload {acceptance,bounds,membership} --seed N \
        --seconds S --trace {0,1}

Runs timed passes of one workload, each in a fresh single-threaded worker
process (`bench/worker.py`), until S seconds have gone by, and prints as the
last line of stdout one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones listed in BENCHMARK.json, with `--trace 1` the per-layer ones, from
traced passes alternating with untraced ones (the difference between the
two is `trace.overhead_frac`).

End-to-end metrics, each the median over the run's passes unless noted:
setup_s (import, input generation and one warm-up call, median of at least
nine fresh processes: the passes plus set-up-only workers), wall_s (the timed
pass over every item), item_p50_ms and item_tail_ms (over every item sample
of the run, pooled; the tail is the highest percentile with at least ten
samples beyond it in the three passes every untraced run makes, or the
slowest sample on `acceptance`, where one pass is one item), cpu_s (user plus system of
the worker and its children during the pass), peak_rss_mb (of the worker)
and ok_frac (items that neither raised nor failed their oracle, over items
attempted; that is 1 - failed_frac, reported this way round so that it is
never zero).

The full record of a run (environment, every pass, every item sample and
every failure) goes to .bench_build/results/, the spans of traced passes to
.bench_build/spans/.  `--tiny` runs each workload at a toy size; it exists for
bench/selftest.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HARD_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 9
MIN_PASSES = 3  # untraced passes in a run without tracing


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args, flags: list[str], started: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--tmp", str(OUT / "tmp"), *flags]
    if args.tiny:
        cmd.append("--tiny")
    remaining = HARD_LIMIT_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"error: a worker did not finish within the run's {HARD_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: worker {' '.join(flags)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["env"]["exgraph"].startswith(str(SRC)):
        sys.exit(f"error: the worker imported exgraph from {result['env']['exgraph']}, not from {SRC}")
    return result


def _run_pass(args, index: int, traced: bool, started: float) -> dict:
    spans = OUT / "spans" / f"{args.workload}-seed{args.seed}-pass{index}.jsonl"
    result = _run_worker(args, ["--trace-out", str(spans)] if traced else [], started)
    result["traced"] = traced
    return result


def _tail(samples: list[float], items_per_pass: int) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that leaves ten samples
    beyond it in a run of MIN_PASSES passes.  Fixing it there makes it pick
    the same items whether or not a run fits one more pass; with fewer than
    eleven samples in MIN_PASSES passes it is the slowest sample."""
    s = sorted(samples)
    least = MIN_PASSES * items_per_pass
    if least < 11:
        return s[-1], 100.0
    rank = -(-(least - 10) * len(s) // least)  # nearest rank, rounded up
    return s[rank - 1], 100.0 * (least - 10) / least


def _end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    timed = [p for p in passes if not p["traced"]]
    samples = [ms for p in timed for _, ms, _ in p["items"]]
    statuses = [st for p in timed for _, _, st in p["items"]]
    tail, pct = _tail(samples, len(timed[0]["items"]))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        "item_p50_ms": statistics.median(samples),
        "item_tail_ms": tail,
        "cpu_s": statistics.median(p["cpu_s"] for p in timed),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
        "ok_frac": sum(st == "ok" for st in statuses) / len(statuses),
    }
    return metrics, {"item_samples": len(samples), "items_per_pass": len(timed[0]["items"]),
                     "item_tail_percentile": pct}


def _per_layer(passes: list[dict]) -> dict:
    traced = [p["layers"] for p in passes if p["traced"]]
    metrics = {}
    for key in traced[0]:
        vals = [layer[key] for layer in traced]
        metrics[key] = None if any(v is None for v in vals) else statistics.median(vals)
    plain = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    metrics["trace.overhead_frac"] = statistics.median(p["wall_s"] for p in passes if p["traced"]) / plain - 1
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="toy-sized inputs, for the self-test")
    args = ap.parse_args()

    if not (SRC / "exgraph" / "__init__.py").is_file():
        print(f"error: no exgraph sources under {SRC}", file=sys.stderr)
        return 2
    for sub in ("tmp", "spans", "results"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(_run_pass(args, len(passes), traced, started))
        elapsed = time.perf_counter() - started
        least = 2 if args.trace else MIN_PASSES
        if len(passes) >= least and (elapsed >= args.seconds or elapsed >= HARD_LIMIT_S / 2):
            break

    # set-up is short and noisy: add set-up-only workers for a steadier median
    setups = [p["setup_s"] for p in passes]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(_run_worker(args, ["--setup-only"], started)["setup_s"])

    failures = [(label, st) for p in passes for label, _, st in p["items"] if st != "ok"]
    attempted = sum(len(p["items"]) for p in passes)
    e2e, detail = _end_to_end(passes, setups)
    values = _per_layer(passes) if args.trace else e2e
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}

    env = dict(passes[0]["env"], nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "env": env, "passes": passes, "setups": setups, "failures": failures,
              "end_to_end": e2e, **detail, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=1))
    for label, st in failures:
        print(f"failed item {label}: {st}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {detail['items_per_pass']} items per pass, "
          f"tail at p{detail['item_tail_percentile']:.1f} of {detail['item_samples']} samples; "
          f"record in {OUT / 'results' / name}", file=sys.stderr)

    print(json.dumps({
        "correct": not any(st.startswith("wrong") for _, st in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
