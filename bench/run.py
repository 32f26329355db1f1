"""Benchmark entry point for aqec.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Imports aqec from the checkout's src/,
builds the workload's inputs from the seed, repeats rounds of the same program
calls while the next round is expected to end within S seconds (at least one
round), checks the first round's outputs against the references in refs.py
and every later round against the first, and prints one JSON object as the
last line of standard output:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 they are its
per-layer ones, and the spans are written to .bench_out/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBES = 1   # fresh interpreters timing the import before the rounds, and again after
SETUP_REPEATS = 3   # input builds per run; setup_s takes the median
PROBE_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import aqec.cli; print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_import() -> float:
    """Import aqec (cli imports every module) and its dependencies in this process."""
    start = time.perf_counter()
    import aqec.cli  # noqa: F401
    return time.perf_counter() - start


def probe_import() -> float:
    done = subprocess.run([sys.executable, "-c", PROBE_CODE, SRC], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "aqec", "__init__.py")):
        print(f"error: no aqec package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # one BLAS thread and one worker: the host has 2 cores
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("AQEC_WORKERS", None)
    sys.path.insert(0, SRC)

    import_times = [time_import()] + [probe_import() for _ in range(IMPORT_PROBES)]
    import aqec

    if not os.path.abspath(aqec.__file__).startswith(SRC + os.sep):
        print(f"error: aqec imported from {aqec.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(OUT_ROOT, "runs", f"{args.workload}-{os.getpid()}")
    try:
        build_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](out_dir, args.seed)
            workload.setup()
            build_times.append(time.perf_counter() - start)

        tracer = spans.Tracer()
        layers.install(tracer, full=bool(args.trace))
        rounds = []  # (start, end, results)
        try:
            begin = time.perf_counter()
            while True:
                start = time.perf_counter()
                results = workload.run_round()
                end = time.perf_counter()
                rounds.append((start, end, results))
                if len(rounds) == 1:
                    # later rounds would add garbage left by earlier ones
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                if (end - begin) * (len(rounds) + 1) / len(rounds) > args.seconds:
                    break
        finally:
            tracer.restore()
        # import timings spread over the run, so one slow moment weighs less
        import_times += [probe_import() for _ in range(IMPORT_PROBES)]

        first = rounds[0][2]
        errors = workload.check(first)
        failed = 0
        unexpected = []
        for r, (_, _, results) in enumerate(rounds):
            for op, result in results.items():
                if result != first[op]:
                    failed += 1
                    unexpected.append(f"round {r}: {op} differs from round 0")
                elif errors[op]:
                    failed += 1
                    if op not in workload.known_faults:
                        unexpected.append(f"{op}: unexpected failure")
        for op in sorted(op for op, errs in errors.items() if errs):
            fault = workload.known_faults.get(op, "unexpected")
            for message in errors[op]:
                print(f"FAIL [{fault}] {op}: {message}", file=sys.stderr)
        for message in unexpected:
            print(f"FAIL {message}", file=sys.stderr)

        # every round repeats the same calls, so a run reports its totals per round
        walls = [end - start for start, end, _ in rounds]
        wall_s = sum(walls) / len(walls)
        if args.trace:
            self_time = tracer.self_times()
            per_round = [layers.per_layer(tracer, tracer.window(start, end), self_time)
                         for start, end, _ in rounds]
            values = {name: statistics.fmean(r[name] for r in per_round) for name in per_round[0]}
            values["trace.wall_s"] = wall_s
            os.makedirs(os.path.join(OUT_ROOT, "traces"), exist_ok=True)
            tracer.write(os.path.join(OUT_ROOT, "traces", f"{args.workload}-seed{args.seed}.csv"),
                         layers.describe)
        else:
            values = {
                "wall_s": wall_s,
                "setup_s": statistics.median(import_times) + statistics.median(build_times),
                "peak_rss_mb": peak_rss_mb,
                "mc_samples_per_s":
                    layers.mc_samples_per_s(tracer, tracer.window(rounds[0][0], rounds[-1][1])),
            }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if set(values) != {m["name"] for m in wanted}:
        print(f"error: measured {sorted(values)} but BENCHMARK.json names "
              f"{sorted(m['name'] for m in wanted)}", file=sys.stderr)
        return 2
    print(f"rounds {len(rounds)}, round walls {[round(w, 3) for w in walls]}", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(rounds) * len(first),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
