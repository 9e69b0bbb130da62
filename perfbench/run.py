"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload accept --seed 1 --seconds 25 --trace 0

One process, one Python thread, one BLAS thread, a closed loop with one
caller. The run times five fresh interpreters importing the code, sets up
five times (building inputs, writing map files, warming up), then walks
the workload's operation list a whole number of times for about
--seconds, then checks every output against independent numpy references.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
last line of standard output is the result object; it is also written to
perfbench-out/ with each operation's wall time, and a traced run writes its
spans there too. Exit code 0 once a result is printed, 2 when the program
under test is missing.
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
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"
SETUP_ROUNDS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing wignerkit and the benchmark."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])}
    times = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import layers, workloads"], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("accept", "reject", "positivity_hard", "files"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_loop(wl, seconds: float, traced: bool):
    """Walk the operation list whole until about `seconds` have passed.

    Another pass starts only if it would end nearer to `seconds` than
    stopping now does, and untraced runs also go on until the tail
    percentile has ten samples beyond it. Returns the elapsed time and one
    (index, pass, output, seconds) per operation; output and seconds are
    None for an operation that raised.
    """
    tail = None if traced else wl.tail_percentile
    min_ops = 1 if tail is None else -(-10 * 100 // (100 - tail))
    run = wl.run_traced if traced else wl.run
    done, passes, completed = [], 0, 0
    begin = time.perf_counter()
    while True:
        for idx in range(len(wl)):
            wl.tracer.op = len(done)
            start = time.perf_counter()
            try:
                out = run(idx, passes)
            except Exception:  # a failing operation is counted, not fatal
                traceback.print_exc()
                done.append((idx, passes, None, None))
                continue
            done.append((idx, passes, out, time.perf_counter() - start))
            completed += 1
        passes += 1
        elapsed = time.perf_counter() - begin
        if completed >= min_ops and elapsed >= seconds - elapsed / passes / 2:
            return done, elapsed


def end_to_end(latencies, elapsed, setup_s, tail) -> dict:
    ms = [x * 1e3 for x in latencies]
    p50 = statistics.median(ms)
    # Without 40 operations there is no tail: the median stands in for it.
    tail_ms = statistics.quantiles(ms, n=100, method="inclusive")[tail - 1] if tail else p50
    return {
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "latency_tail_ms": {"value": tail_ms, "unit": "ms"},
        "ops_per_s": {"value": len(latencies) / elapsed, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    if not (ROOT / "src" / "wignerkit" / "__init__.py").is_file():
        print(f"error: no wignerkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    import workloads
    import_s = import_seconds()

    tracer = layers.Tracer() if args.trace else layers.Untraced()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = workloads.make(args.workload, args.seed, workdir, tracer)
        rounds, problems = [], []
        for _ in range(SETUP_ROUNDS):
            start = time.perf_counter()
            problems = wl.setup()
            rounds.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(rounds)
        done, elapsed = timed_loop(wl, args.seconds, bool(args.trace))
        for idx, pass_no, out, _ in done:
            if out is not None:
                problems += wl.check(idx, pass_no, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    latencies = [sec for _, _, out, sec in done if out is not None]
    metrics = (tracer.metrics() if args.trace else
               end_to_end(latencies, elapsed, setup_s, wl.tail_percentile))
    result = {"correct": not problems, "attempted": len(done),
              "failed": len(done) - len(latencies), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = [(idx, pass_no, sec) for idx, pass_no, _, sec in done]
    (OUT / f"result-{stem}.json").write_text(json.dumps({**result, "samples": samples}) + "\n",
                                             encoding="utf-8")
    if args.trace:
        tracer.write(OUT / f"trace-{stem}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
