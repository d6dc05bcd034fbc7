#!/usr/bin/env python3
"""Builds and runs ZOOM's benchmark (the `zoom-perfbench` package beside
this file) from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the package in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), runs one measurement and passes its output through: the
last line of standard output is the JSON result. Exits non-zero if the
build fails or any answer is wrong.

The measurement is pinned to one CPU (the highest-numbered one this
process may use). On a virtual machine, waking a thread on an idle
virtual CPU costs a hypervisor round trip of up to milliseconds, and
whether the wire workload's client and server threads share a CPU changed
its throughput threefold between runs; on one CPU every hand-off is a
plain context switch.

Steadiness self-check:

    python3 perfbench/run.py --workload <name> --steady 5 [--seed 1] [--same-seed]

repeats the workload (seeds seed, seed+1, ... or, with --same-seed, one
seed throughout) and prints each metric's median and quartiles, and for
end-to-end metrics the spread (q3 - q1) / median against a third of the
bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def build():
    """Builds the benchmark; returns the binary's path or exits."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        # Cargo's progress goes to standard error; standard output stays
        # reserved for the result line.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"run.py: cannot run cargo: {e}")
    if done.returncode != 0:
        sys.exit(f"run.py: build failed ({done.returncode})")
    return os.path.join(target, "release", "zoom-perfbench")


def pin():
    """Restricts the calling process to one CPU (see the module notes)."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned


def run_once(binary, workload, seed, seconds, trace):
    """Runs one measurement; returns (exit code, last stdout line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, preexec_fn=pin)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (lines[-1] if lines else "")


def steady(binary, args):
    """Repeats a workload and prints median, quartiles and spread."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    units = {}
    for i in range(args.steady):
        seed = args.seed if args.same_seed else args.seed + i
        code, line = run_once(binary, args.workload, seed, args.seconds, args.trace)
        if code != 0:
            sys.exit(f"run.py: run with seed {seed} failed ({code}): {line}")
        result = json.loads(line)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"\n{args.workload}, {args.steady} runs, trace {args.trace}:")
    worst = True
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        line = (f"  {name:<28} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                f"{units[name]:<6} spread {spread:7.2%}")
        if name in bounds:
            ok = spread < bounds[name] / 3
            worst = worst and ok
            line += f"  bound {bounds[name]:.0%} (a third: {bounds[name] / 3:.2%}) " + (
                "ok" if ok else "TOO NOISY")
        elif len(set(vals)) == 1:
            line += "  (repeats exactly)"
        print(line)
    return 0 if worst else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="repeat the workload this many times and report its spread")
    p.add_argument("--same-seed", action="store_true",
                   help="with --steady: keep one seed (counts must repeat exactly)")
    args = p.parse_args()
    binary = build()
    if args.steady:
        sys.exit(steady(binary, args))
    seconds = f"{args.seconds:g}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", seconds, "--trace", str(args.trace)]
    sys.exit(subprocess.run(cmd, cwd=ROOT, preexec_fn=pin).returncode)


if __name__ == "__main__":
    main()
