#!/usr/bin/env python3
"""Host-cost benchmark of the SocialTube reproduction.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fanin_2k --seed 2 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles src/) into .bench_build/perfbench, then
runs passes of the named workload, one process per pass, so each pass's
peak RSS is its own. A pass runs PA-VoD, SocialTube and NetTube one after
another on one generated trace catalog (see perfbench/src/main.cpp).

--trace 0 repeats untraced passes until --seconds is used up (at least two)
and prints every end-to-end metric of BENCHMARK.json: host timings in
reference seconds (scaled by a host-speed probe, see perfbench/src/probe.h)
as the median over passes, set-up time as the median over every pass plus
extra set-up-only passes, simulated metrics as measured (they are
deterministic per seed). --trace 1 runs traced passes (each also runs the untraced stack
and checks the traced replica against it) and prints every per-layer metric.

Correctness: every pass checks zero invariant violations and the paper's
orderings; all passes of one seed must print the same sim_digest; a traced
pass must reproduce the runner's counters, overlay fingerprints and digests.
The last stdout line is one JSON object with keys correct, attempted (the
simulated watches), failed (watches of passes that failed a check) and
metrics. Bad arguments exit 2.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("fanin_2k", "planetlab_250", "churn_faults")
MAX_SEED = 2**64 - 1
# Set-up time is short and noisy: take its median over at least this many
# cold processes.
MIN_SETUP_SAMPLES = 15
# Ceiling for the passes of one run, counted after the build, so a run that
# finds the build up to date ends within 180 s.
RUN_DEADLINE_S = 165.0
BUILD_TIMEOUT_S = 850.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def seed_arg(text):
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(
            f"'{text}' is not a non-negative integer")
    value = int(text)
    if value > MAX_SEED:
        raise argparse.ArgumentTypeError(
            f"{value} is out of range [0, {MAX_SEED}]")
    return value


def seconds_arg(text):
    if not re.fullmatch(r"[0-9]+", text) or not 1 <= int(text) <= 150:
        raise argparse.ArgumentTypeError(
            f"'{text}' is not a whole number of seconds in [1, 150]")
    return int(text)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=seed_arg)
    parser.add_argument("--seconds", type=seconds_arg)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args(argv)
    if not args.selftest:
        missing = [flag for flag in ("workload", "seed", "seconds", "trace")
                   if getattr(args, flag) is None]
        if missing:
            parser.error("missing --" + ", --".join(missing))
    return args


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    return proc.returncode == 0


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}/src; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not run_quiet(configure, BUILD_TIMEOUT_S):
        fail("cmake configure failed")
    if not run_quiet(["cmake", "--build", BUILD_DIR, "--target", target,
                      "-j", jobs], BUILD_TIMEOUT_S):
        fail(f"building {target} failed")


def run_pass(mode, workload, seed, deadline):
    """One perfbench process; returns (parsed last JSON line, stdout lines)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before a pass could start")
    cmd = [BINARY, mode, "--workload", workload, "--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{mode} pass did not finish before the run's deadline")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{mode} pass exited {proc.returncode}")
    try:
        return json.loads(lines[-1]), lines[:-1]
    except ValueError:
        fail(f"{mode} pass printed no result: {lines[-1]!r}")


def repeat_passes(mode, args, deadline, minimum):
    """Passes until --seconds is used up (at least `minimum`)."""
    passes = []
    start = time.monotonic()
    longest = 0.0
    while True:
        began = time.monotonic()
        result, lines = run_pass(mode, args.workload, args.seed, deadline)
        longest = max(longest, time.monotonic() - began)
        passes.append(result)
        if len(passes) == 1:
            print("\n".join(lines))
        used = time.monotonic() - start
        if len(passes) >= minimum and used + longest > args.seconds:
            return passes


def check_passes(passes, workload, seed):
    """Correctness over all passes of one seed; returns a list of errors."""
    errors = [p["errors"] for p in passes if not p["correct"]]
    digests = sorted({p["sim_digest"] for p in passes})
    if len(digests) != 1:
        errors.append(f"passes disagree on sim_digest: {digests}")
    print(f"sim_digest {workload} seed={seed} {digests[0]} "
          f"({len(passes)} passes)")
    return errors


def end_to_end(spec, passes, setup_samples):
    values = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name == "setup_s":
            values[name] = statistics.median(setup_samples)
        else:
            values[name] = statistics.median(p[name] for p in passes)
    print(f"{len(passes)} passes, {len(setup_samples)} set-up samples")
    for key in ("wall_s", "host_wall_s", "to_reference"):
        print(f"{key} by pass: " + " ".join(f"{p[key]:.4f}" for p in passes))
    return values


def per_layer(spec, passes):
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name not in passes[0]["metrics"]:
            fail(f"traced pass did not report {name}")
        values[name] = statistics.median(p["metrics"][name] for p in passes)
    return values


def selftest():
    build("perfbench_test")
    test = os.path.join(BUILD_DIR, "perfbench_test")
    if not os.path.isfile(test):
        fail("perfbench_test was not built (GTest not found)")
    return subprocess.run([test], cwd=ROOT).returncode


def main(argv):
    args = parse_args(argv)
    if args.selftest:
        return selftest()
    spec = load_spec()
    build("perfbench")
    deadline = time.monotonic() + RUN_DEADLINE_S

    if args.trace:
        passes = repeat_passes("traced", args, deadline, minimum=1)
        metric_specs = spec["per_layer"]
        values = per_layer(spec, passes)
    else:
        passes = repeat_passes("run", args, deadline, minimum=2)
        setup_samples = [p["setup_s"] for p in passes]
        while len(setup_samples) < MIN_SETUP_SAMPLES:
            result, _ = run_pass("setup", args.workload, args.seed, deadline)
            setup_samples.append(result["setup_s"])
        metric_specs = spec["end_to_end"]
        values = end_to_end(spec, passes, setup_samples)

    errors = check_passes(passes, args.workload, args.seed)
    for error in errors:
        print(f"CHECK FAILED: {error}")
    attempted = sum(p["watches"] for p in passes)
    failed = attempted if errors else 0
    metrics = {}
    for metric in metric_specs:
        name, unit = metric["name"], metric["unit"]
        print(f"{name} = {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
