#!/usr/bin/env python3
"""Host-time benchmark of the DSM simulator: build, run one workload, report.

    python3 hostbench/run.py --workload splash-coarse --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Builds hostbench/ (and the simulator
library under src/) into .bench_build/hostbench, runs the workload in one
single-threaded process and prints, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.

--record rewrites the expected digests of the given scale, seed and
workload in hostbench/expected_digests.txt from a fresh run.  Refreshing
them is a deliberate act: a digest changes only when a simulated number
does.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")
DIGESTS = os.path.join(HERE, "expected_digests.txt")
WORKLOADS = ("splash-coarse", "svc-mixed", "splash-fine")
# Longest a single benchmark process may take before it counts as hung.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def parse_seed(text):
    return int(text, 16) if text.lower().startswith("0x") else int(text, 10)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)


def run_binary(args, seed):
    cmd = [BINARY, "--workload", args.workload, "--seed", "0x%x" % seed,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    if not args.record:
        cmd += ["--digests", DIGESTS]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD, "spans-%s.json" % args.workload)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log("hostbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S)
    return proc.returncode, out.splitlines()


def record(args, seed, lines):
    digests = {}
    for line in lines:
        parts = line.split()
        if not parts or parts[0] != "sim":
            continue
        label = parts[2]
        fields = dict(p.split("=", 1) for p in parts[3:])
        if fields["verified"] != "1":
            sys.exit("hostbench: %s failed verification; not recording" % label)
        if digests.setdefault(label, fields["digest"]) != fields["digest"]:
            sys.exit("hostbench: %s digest differs between passes" % label)
    key = (args.scale, seed, args.workload)
    kept = []
    with open(DIGESTS) as f:
        for line in f:
            parts = line.split()
            if (len(parts) == 5 and not line.startswith("#") and
                    (parts[0], parse_seed(parts[1]), parts[2]) == key):
                continue
            kept.append(line.rstrip("\n"))
    kept += ["%s 0x%016x %s %s %s" % (args.scale, seed, args.workload, label, d)
             for label, d in digests.items()]
    with open(DIGESTS, "w") as f:
        f.write("\n".join(kept) + "\n")
    log("hostbench: recorded %d digests" % len(digests))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", default="0x19970616")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("small", "tiny"), default="small")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    seed = parse_seed(args.seed)

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("hostbench: build failed: %s" % e)
        return 1
    code, lines = run_binary(args, seed)
    for line in lines[:-1]:
        # Per-simulation progress to stderr; notes and metrics stay on stdout.
        print(line, file=sys.stderr if line.split(" ", 1)[0] in
              ("start", "sim") else sys.stdout)
    if code == 0 and lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        if args.record:
            record(args, seed, lines)
        print(json.dumps(result), flush=True)
        return 0

    # The process died (a simulation aborted on a failed check, or hung):
    # every simulation it started and did not finish cleanly counts as
    # not ok.
    started = sum(1 for l in lines if l.startswith("start "))
    ok = sum(1 for l in lines if l.startswith("sim ") and l.endswith(" ok=1"))
    attempted = max(started, 1)
    log("hostbench: benchmark process exited with code %s" % code)
    print(json.dumps({"correct": False, "attempted": attempted,
                      "failed": attempted - ok,
                      "metrics": {"ok_frac": {"value": ok / attempted,
                                              "unit": "ratio"}}}), flush=True)
    return 1


if __name__ == "__main__":
    sys.exit(main())
