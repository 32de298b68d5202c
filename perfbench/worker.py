"""One benchmark process: set up, signal readiness, run whole cycles, check.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

``--mode setup`` prints READY (run.py times fresh processes up to that
line), then only measures the machine's speed (calibration.py).
``--mode run`` replays whole rounds of the workload's cycle variants until ``S`` seconds have passed and the
workload's tail percentile has at least ten ops beyond it, and checks
every answer after the clock stops.  ``--mode trace`` does the same untraced, installs the
tracer, replays the same cycles traced, and reports per-layer metrics and
the tracing overhead.  The last stdout line is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def run_cycles(workload, seconds, calibration, cycles=None, tracer=None):
    """Closed loop, one op at a time; returns (records, cycles, seconds).

    A record is (op, wall ns, outcome, result, CPU ns of this thread):
    outcome is None for an answer and the exception's type name when the
    call raised.  A burst of calibration samples is taken whenever
    ``SAMPLE_EVERY_S`` of op time has passed since the last one; the
    returned seconds exclude the samples.
    """
    from calibration import SAMPLE_BURST, SAMPLE_EVERY_S
    from workloads import VARIANTS

    records = []
    start = time.perf_counter()
    calibrating = 0.0
    since_sample = 0
    done = 0
    while True:
        if cycles is None:
            # stop only after whole rounds of all variants, so every run
            # times the same mix of inputs
            beyond = len(records) * (100 - workload.tail_pct) / 100
            if done % VARIANTS == 0 and time.perf_counter() - start - calibrating >= seconds \
                    and beyond >= 10 - 1e-9:
                break
        elif done >= cycles:
            break
        for op in workload.variants[done % VARIANTS]:
            if tracer is not None:
                tracer.op_id = len(records)
            c0 = time.thread_time_ns()
            t0 = time.perf_counter_ns()
            try:
                result, outcome = op.call(), None
            except Exception as exc:    # counted by type, never filtered
                result, outcome = exc, getattr(exc, "type_name", type(exc).__name__)
            wall = time.perf_counter_ns() - t0
            records.append((op, wall, outcome, result, time.thread_time_ns() - c0))
            since_sample += wall
            if since_sample >= SAMPLE_EVERY_S * 1e9:
                calibrating += sum(calibration.sample() for _ in range(SAMPLE_BURST))
                since_sample = 0
        done += 1
    return records, done, time.perf_counter() - start - calibrating


def check_all(records):
    """Mark wrong answers; returns (outcomes, wrong examples, check errors)."""
    outcomes, wrong, errors = [], [], []
    for op, _ns, outcome, result, _cpu in records:
        if outcome is None:
            try:
                problem = op.check(result)
            except Exception as exc:    # a broken check is a benchmark error
                errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                problem = None
            if problem:
                outcome = "wrong_answer"
                if len(wrong) < 20:
                    wrong.append(f"{op.kind}: {problem}")
        outcomes.append(outcome)
    return outcomes, wrong, errors


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from invmetrics import (caratheodory, cli, conformal, domains, kobayashi, modulus,
                            poincare, render, topology)
    import_s = time.perf_counter() - t0
    lib = SimpleNamespace(caratheodory=caratheodory, cli=cli, conformal=conformal,
                          domains=domains, kobayashi=kobayashi, modulus=modulus,
                          poincare=poincare, render=render, topology=topology)

    sys.path.insert(0, HERE)
    import numpy as np

    import oracle
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](lib, args.seed)
    workload.setup()
    print("READY", flush=True)

    from calibration import SETUP_SAMPLES, Calibration

    calibration = Calibration()
    if args.mode == "setup":
        for _ in range(SETUP_SAMPLES):
            calibration.sample()
        print(json.dumps({"speed": calibration.speed()}), flush=True)
        return 0

    records, cycles, elapsed = run_cycles(workload, args.seconds, calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
           "import_s": import_s, "tail_pct": workload.tail_pct, "cycles": cycles,
           "elapsed_s": elapsed, "peak_rss_mb": peak_rss_mb,
           "speed": calibration.speed(), "calibration_samples": list(calibration.samples)}

    if args.mode == "trace":
        import tracing

        # the first cycle of the untraced pass also pays first-call costs
        # (allocator growth, lazy imports), so both sums start at cycle 1;
        # each pass is scaled by the machine speed measured during it
        skip = len(workload.variants[0])
        untraced = sum(rec[1] for rec in records[skip:]) * calibration.speed()
        records = None
        calibration.samples.clear()
        tracer = tracing.Tracer()
        tracing.instrument(tracer, lib)
        records, _, elapsed = run_cycles(workload, args.seconds, calibration, cycles,
                                         tracer)
        traced = sum(rec[1] for rec in records[skip:]) * calibration.speed()
        out["overhead"] = traced / untraced - 1
        out["layers"] = tracing.layer_metrics(tracer, import_s, len(records))
        out["absent"] = tracer.absent
        out["span_count"] = len(tracer.spans)
        if args.spans:
            tracing.write_spans(tracer, args.spans)

    outcomes, wrong, errors = check_all(records)
    problems = oracle.self_check(np.random.default_rng(args.seed))
    spot = getattr(workload, "oracle_spot_checks", None)
    if spot is not None:
        problems += spot(np.random.default_rng(args.seed))
    out.update({
        "ops": [[op.kind, ns / 1e6, outcome, cpu / 1e6]
                for (op, ns, _o, _r, cpu), outcome in zip(records, outcomes)],
        "failures": dict(Counter(o for o in outcomes if o is not None)),
        "wrong_examples": wrong,
        "check_errors": errors,
        "oracle_problems": problems,
    })
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
