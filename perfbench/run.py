#!/usr/bin/env python3
"""Build and run the performance ledger (perfbench/ledger.ml).

One run of one workload; the last line of standard output is the JSON
result (correct, attempted, failed, metrics):

    python3 perfbench/run.py --workload routed-mixed --seed 1 --seconds 32 --trace 0

Workloads: local-cold, routed-mixed.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones.  Lines starting with
"#" are diagnostics: the stream, the flush policy and filesystem, host
steal and the calibration loop, the exact counts, the setups.

Determinism self-check: run each workload twice with one seed and fail
if any exact count differs, between the two runs or between the passes
of one run.

    python3 perfbench/run.py --selfcheck --seed 9001 --seconds 32

Run from the repository root.  The program is built from source with
dune under the "perfbench" profile into .bench_build/ (dune's shared
cache off, so nothing is written outside the checkout, and the
repository's own _build/ and its lock are left alone); the databases
live under .bench_work/ and are removed when the run ends.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["local-cold", "routed-mixed"]
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "ledger.exe")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
# Router hedges fire on observed latency, so their counts are exempt.
EXEMPT = ["router.hedges_fired", "router.hedges_won"]


def build():
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "--profile", "perfbench", "--build-dir", BUILD_DIR,
           "./perfbench/ledger.exe"]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0 and os.path.exists(EXE)


def run_ledger(workload, seed, seconds, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # The ledger runs in a process group of its own, which is killed and
    # reaped on a timeout or when this script is interrupted, so no part
    # of a run outlives it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    out, code = "", 1
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("ledger: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            out, code = "", 1
        if code != 0:
            # A killed or failed run leaves its databases behind.
            shutil.rmtree(".bench_work", ignore_errors=True)
    try:
        os.rmdir(".bench_work")  # the run removed its own directory inside
    except OSError:
        pass
    return code, out


def exact_counts(output):
    """The exact counts a run printed, or None when its passes disagreed."""
    counts = None
    for line in output.splitlines():
        if line.startswith("# exact counts of pass"):
            print(line)
            return None
        if line.startswith("# exact "):
            counts = json.loads(line[len("# exact "):])
    return counts


def selfcheck(seed, seconds, workloads):
    ok = True
    for w in workloads:
        runs = []
        for _ in range(2):
            code, out = run_ledger(w, seed, seconds, 0)
            counts = exact_counts(out) if code == 0 else None
            if counts is None:
                print("%s: run failed (exit %d) or its passes disagreed"
                      % (w, code))
                return False
            runs.append(counts)
        diff = {k: (runs[0][k], runs[1].get(k)) for k in runs[0]
                if runs[0][k] != runs[1].get(k)}
        print("%s seed %d: exact counts %s" % (w, seed, json.dumps(runs[0])))
        if diff:
            ok = False
            print("%s: NOT deterministic: %s" % (w, json.dumps(diff)))
        else:
            print("%s: identical across two runs (exempt: %s)"
                  % (w, ", ".join(EXEMPT)))
    return ok


def on_signal(signum, _frame):
    # Unwind through run_ledger's cleanup before exiting.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGHUP, on_signal)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=32)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")
    if not build():
        print("ledger: build failed", file=sys.stderr)
        return 1
    if args.selfcheck:
        workloads = [args.workload] if args.workload else WORKLOADS
        return 0 if selfcheck(args.seed, args.seconds, workloads) else 1
    code, out = run_ledger(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
