"""taskquant benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the `src/` directory next to
this one, with BLAS and OpenMP pinned to one thread. Workloads (see
workloads.py): mc_linear, mc_lifted, deep_train, design.

A run builds the workload's inputs from the seed, runs one untimed warm-up
operation, then repeats the workload's whole pass of operations while one
more pass, as long as the last one, still fits in S seconds (at least two
passes run, so results always repeat at least once). Every pass's outputs are checked, and
each operation's results must repeat byte for byte across the passes; an
operation fails if it raises, fails a check, or does not repeat.

--trace 0 reports the end-to-end metrics:
  wall_s        mean wall time of one pass (program calls only); a mean,
                because contention on a shared host comes in spells that
                flip a median between their fast and slow speeds
  setup_s       median over fresh interpreters of the time from start to the
                first operation ready: imports plus building the inputs
  peak_rss_mb   peak resident memory of this process
  throughput    work per second over all passes: Monte Carlo trials
                (mc_linear, mc_lifted), training samples as epochs times
                train size (deep_train), or model design sets (design)
--trace 1 runs untraced passes for the first half of S, then traced passes,
and reports the per-layer metrics of spans.py per traced pass; the spans go
to .perfbench/spans-<workload>-<seed>.jsonl under the checkout.

Lines starting with '#' describe the run (versions, threads, digests,
findings). The last line of stdout is one JSON object:
  {"correct": bool, "attempted": int, "failed": int,
   "metrics": {name: {"value": number, "unit": str}}}
where attempted counts operations over all passes and failed those that
failed. Exit code 0 when a result is printed; 2 when the checkout holds no
taskquant sources or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("mc_linear", "mc_lifted", "deep_train", "design")
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "throughput": "items/s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the inputs, print 'ready' and exit")
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    """Median time from a fresh interpreter to its inputs being built."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            stdout=subprocess.PIPE, cwd=ROOT, env=os.environ.copy())
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return statistics.median(samples)


def header(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": os.cpu_count(), "commit": commit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "taskquant" / "__init__.py").is_file():
        print(f"error: no taskquant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS, digest, failures, timed_passes
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    print("# run " + json.dumps(header(args)), flush=True)
    if not args.trace:
        setup_s = measure_setup(args)
    workload.warmup()
    origin = time.perf_counter()
    if args.trace:
        from spans import Tracer
        untraced = timed_passes(workload, args.seconds / 2)
        tracer = Tracer()
        traced = timed_passes(workload, args.seconds / 2, tracer)
        passes = untraced + traced
        metrics = tracer.layer_metrics(
            [seconds for seconds, _ in traced],
            statistics.median(seconds for seconds, _ in untraced))
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"spans-{args.workload}-{args.seed}.jsonl",
                           origin)
    else:
        passes = timed_passes(workload, args.seconds)
        total = sum(seconds for seconds, _ in passes)
        values = {
            "wall_s": total / len(passes),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "throughput": workload.items_per_pass * len(passes) / total,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        print(f"# {workload.rate_name}={values['throughput']!r} "
              f"({workload.items_per_pass} per pass)")

    failed_ops = failures(passes)
    failed = len(failed_ops)
    attempted = sum(len(outcomes) for _, outcomes in passes)
    digests = {digest(outcomes) for _, outcomes in passes}
    print("# pass_s " + " ".join(repr(seconds) for seconds, _ in passes))
    print(f"# digest {args.workload} {digest(passes[0][1])} passes={len(passes)} "
          f"repeats_match={str(len(digests) == 1).lower()}")
    for outcome in passes[0][1]:
        if outcome.note:
            print(f"# note {outcome.label}: {outcome.note}")
    for line in failed_ops[:20]:
        print(f"# FAILED {line}")
    print(f"# op_failure_fraction={failed / attempted!r} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
