#!/usr/bin/env python3
"""Measures fig16's cost as users grow: wall time and peak RSS per user count.

Runs `BUILD/bench/fig16_peer_bandwidth --users N --sessions 3 --seed 2
--threads 1` once per user count, one process at a time, and records for
each run the wall-clock seconds, the peak resident set (the child's
ru_maxrss from wait4), the cost per simulated user-session, and the SHA-256
of stdout (fig16 prints no wall-clock lines, so equal digests mean
identical results).

    python3 scripts/scale_curve.py --build build --label after \\
        --users 1000,2000,4000,8000

Each invocation writes its runs and the host they ran on under
`curves[LABEL]` of BENCH_scale.json at the repository root, keeping the
other labels already there, so two builds (say, before and after a change)
can share one file.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

SESSIONS = 3
SEED = 2
COMMAND = (f"fig16_peer_bandwidth --users N --sessions {SESSIONS} "
           f"--seed {SEED} --threads 1")
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "BENCH_scale.json")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(binary, users):
    cmd = [binary, "--users", str(users), "--sessions", str(SESSIONS),
           "--seed", str(SEED), "--threads", "1"]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 reports this child's own rusage (peak RSS included).
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}")
    return {
        "users": users,
        "wall_s": round(wall, 2),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
        "us_per_user_session": round(wall * 1e6 / (users * SESSIONS), 1),
        "stdout_sha256": hashlib.sha256(out).hexdigest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build", required=True,
                        help="build tree holding bench/fig16_peer_bandwidth")
    parser.add_argument("--label", required=True,
                        help="name of this curve, e.g. before/after")
    parser.add_argument("--users", default="1000,2000,4000,8000")
    args = parser.parse_args()

    binary = os.path.join(args.build, "bench", "fig16_peer_bandwidth")
    if not os.access(binary, os.X_OK):
        parser.error(f"{binary} is not an executable")
    try:
        users = [int(u) for u in args.users.split(",")]
    except ValueError:
        parser.error("--users must be a comma-separated list of integers")

    doc = {"bench": "fig16_peer_bandwidth scale curve", "command": COMMAND}
    if os.path.exists(OUT):
        with open(OUT) as f:
            doc = json.load(f)
    runs = []
    for n in users:
        run = run_once(binary, n)
        print(json.dumps(run), flush=True)
        runs.append(run)
    doc.setdefault("curves", {})[args.label] = {
        "host": {"cpu": cpu_model(), "cores": os.cpu_count()},
        "runs": runs,
    }
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
