"""Benchmark entry point for invmetrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: catalog-balls, grid-domains, point-queries (see README.md).
Run from the root of a source checkout; the library is imported from
``src/``.  Each workload is one client calling the library in one process,
closed loop, one operation at a time.  BLAS/OpenMP pools are capped at the
number of CPUs this process may use.

With ``--trace 0`` the run measures set-up several times in fresh
processes (median), then runs the workload and checks every answer; it
prints every end-to-end metric by name and unit.  Durations are scaled to
the reference machine's speed with calibration.py; the unscaled figures
are printed and recorded too.  With ``--trace 1`` a
traced process reports the per-layer metrics and the tracing overhead.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record, with the machine, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

FAILURE_TYPES = ("NonConvergence", "ValueError", "wrong_answer")


def percentile(values, pct):
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spawn(args, mode, env, spans=None):
    """Start a worker; returns (seconds until READY, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker ({mode}) exited with code {code}")
    return ready, json.loads(lines[-1])


def machine_record(env) -> dict:
    import importlib.metadata as md

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            versions[pkg] = None
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "thread_caps": {v: env[v] for v in THREAD_VARS}, "versions": versions}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="invmetrics benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["catalog-balls", "grid-domains", "point-queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "invmetrics", "__init__.py")):
        print("error: no src/invmetrics next to perfbench/; run from a source checkout",
              file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    env = dict(os.environ)
    caps = str(len(os.sched_getaffinity(0)))
    env.update({v: caps for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    try:
        if args.trace:
            _, result = spawn(args, "trace", env, spans=stem + "-spans.json")
            setups = []
        else:
            setups = [spawn(args, "setup", env) for _ in range(SETUP_SAMPLES - 1)]
            ready, result = spawn(args, "run", env)
            setups.append((ready, result))
            setups = [(s, r["speed"]) for s, r in setups]
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ms = [op[1] for op in result["ops"]]
    attempted = len(ms)
    failed = sum(1 for op in result["ops"] if op[2] is not None)
    correct = not result["oracle_problems"] and not result["check_errors"]
    summary = {
        "attempted": attempted, "failed": failed, "failures": result["failures"],
        "failed_frac": failed / attempted, "tail_pct": result["tail_pct"],
        "cycles": result["cycles"], "measured_s": result["elapsed_s"],
    }
    if args.trace:
        layers = dict(result["layers"])
        for name in FAILURE_TYPES:
            layers[f"failed.{name}"] = result["failures"].get(name, 0)
        layers["failed.other"] = sum(v for k, v in result["failures"].items()
                                     if k not in FAILURE_TYPES)
        layers["trace.overhead"] = result["overhead"]
        metrics = layers
    else:
        # durations scaled to the reference machine's speed (calibration.py)
        speed = result["speed"]
        raw = {
            "setup_s": statistics.median(s for s, _ in setups),
            "ops_per_s": attempted / result["elapsed_s"],
            "op_ms.p50": percentile(ms, 50),
            "op_ms.tail": percentile(ms, result["tail_pct"]),
        }
        metrics = {
            "setup_s": statistics.median(s * f for s, f in setups),
            "ops_per_s": raw["ops_per_s"] / speed,
            "op_ms.p50": raw["op_ms.p50"] * speed,
            "op_ms.tail": raw["op_ms.tail"] * speed,
            "ok_frac": 1 - failed / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        summary.update({"unscaled": raw, "speed": speed,
                        "setup_speeds": [f for _, f in setups]})

    if sorted(metrics) != sorted(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_record(env),
              "setup_samples": setups, "summary": summary, "metrics": metrics,
              "correct": correct, "worker": {k: v for k, v in result.items() if k != "ops"},
              "ops": result["ops"]}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} ops in "
          f"{result['cycles']} cycles over {result['elapsed_s']:.1f} s, {failed} failed "
          f"(failed_frac {failed / attempted:.4f}) {result['failures']}")
    if not args.trace:
        print(f"  op_ms.tail is p{result['tail_pct']:g} of {attempted} ops; machine speed "
              f"{speed:.3f} of the reference; unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for line in result["wrong_examples"][:5] + result["check_errors"] + \
            result["oracle_problems"]:
        print(f"  ! {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
