#!/usr/bin/env python3
"""Build the GraphNER benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout. The benchmark is built in release mode
into $CARGO_TARGET_DIR (default .bench_build), then run in its own process
with the worker-pool size (GRAPHNER_THREADS) fixed per workload, at most
the number of CPUs. The last line of standard output is the result JSON.
`--workload all` runs every workload, timed and then traced, one after
another. Exits non-zero without a result if the build or a run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Worker-pool size per workload. One worker keeps CRF training and graph
# construction in the offline and sweep workloads steady; the serving
# workloads use both CPUs, as a deployment would.
THREADS = {"offline_bc2gm": 1, "sweep_aml": 1, "serve_bulk": 2, "serve_small": 2}

RUN_TIMEOUT_S = 170


def with_flag(args, flag, value):
    """`args` with `flag`'s value replaced (or appended)."""
    out = list(args)
    if flag in out[:-1]:
        out[out.index(flag) + 1] = value
    else:
        out += [flag, value]
    return out


def run_one(binary, env, workload, args):
    env = dict(env, GRAPHNER_THREADS=str(min(THREADS[workload], os.cpu_count() or 1)))
    try:
        run = subprocess.run([binary] + with_flag(args, "--workload", workload),
                             cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


def main():
    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else None
    if workload not in THREADS and workload != "all":
        print(f"run.py: --workload must be 'all' or one of {sorted(THREADS)}", file=sys.stderr)
        return 2
    env = dict(os.environ, GRAPHNER_LOG="off")
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: benchmark build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "graphner-perfbench")
    if workload != "all":
        return run_one(binary, env, workload, args)
    # every workload to its end: the timed run, then the traced run
    failed = 0
    for w in THREADS:
        for trace in ("0", "1"):
            print(f"== {w} --trace {trace}", flush=True)
            failed += run_one(binary, env, w, with_flag(args, "--trace", trace)) != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
