#!/usr/bin/env python3
"""Self-test of the host-time benchmark at tiny scale.

    python3 hostbench/selftest.py

Run from the root of a checkout.  For every workload in BENCHMARK.json it
checks that:
  - every metric BENCHMARK.json names is printed with its unit;
  - every simulation passes verification and matches its recorded digest;
  - the counts of two traced runs repeat exactly;
  - the four attributed layers plus runtime.unattributed_s sum to
    runtime.run_s.
Exits 0 when all checks pass; prints each failure otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ATTRIBUTED = ("sim.switch_s", "sim.event_s", "net.send_s", "mem.diff_s",
              "runtime.unattributed_s")
# Per-layer counts and byte totals come from RunStats and must repeat
# exactly; the minor-fault counts are host measurements and need not.
COUNT_UNITS = ("count", "bytes")
HOST_COUNTS = ("runtime.construct_minflt", "runtime.run_minflt")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--scale", "tiny", "--seconds", "1", "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("selftest: %s --trace %d exited with %d" %
                         (workload, trace, proc.returncode))
    return lines, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        lines, e2e = run(w, 0)
        traced = [run(w, 1)[1], run(w, 1)[1]]
        check(any(l.startswith("note checking") for l in lines),
              "%s: no recorded digests at tiny scale" % w)
        for res, group in [(e2e, "end_to_end")] + [(t, "per_layer")
                                                   for t in traced]:
            check(res["correct"] and res["failed"] == 0,
                  "%s: a simulation failed verification or its digest" % w)
            for m in spec[group]:
                got = res["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      "%s: metric %s missing or not in %s" %
                      (w, m["name"], m["unit"]))
        check(e2e["metrics"]["ok_frac"]["value"] == 1.0,
              "%s: ok_frac below 1" % w)
        a, b = (t["metrics"] for t in traced)
        for name, m in a.items():
            if m["unit"] in COUNT_UNITS and name not in HOST_COUNTS:
                check(m["value"] == b[name]["value"],
                      "%s: count %s differs between traced runs (%s vs %s)" %
                      (w, name, m["value"], b[name]["value"]))
        for t in (a, b):
            parts = sum(t[n]["value"] for n in ATTRIBUTED)
            run_s = t["runtime.run_s"]["value"]
            check(abs(parts - run_s) <= 1e-9 * max(1.0, abs(run_s)),
                  "%s: attributed layers sum to %r, runtime.run_s is %r" %
                  (w, parts, run_s))
        print("selftest: %s checked" % w, flush=True)

    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("ok" if not failures else
                            "%d failures" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
