#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig07_sweep --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The simulator, crisp_serve and the
measuring program are built from source into $CARGO_TARGET_DIR (default
.bench_build); traces, logs and flat result files go to .bench_out.
The last line on stdout is the result object. --selftest checks that a
corrupted expected digest is counted as a failure; --record prints a
fresh expected-digest table, with fig07_ipc's printed rows as the
fig07_sweep table (perfbench/expected.json holds the committed one).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig07_sweep", "sampled_long", "serve_open")


def build(build_dir, targets):
    """Configures (once) and builds; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                 + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=880).returncode != 0:
            return False
    return True


def fig07_rows(build_dir):
    """fig07_ipc's printed rows as {"table/<workload>": "a | b | ..."}:
    the cells the fig07_sweep gate compares each run's table with."""
    out = subprocess.run([os.path.join(build_dir, "fig07_ipc"), "--jobs",
                          str(os.cpu_count() or 1)],
                         stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    lines = out.splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("---")) + 1
    table = {}
    for line in lines[first:]:
        cells = [c.strip() for c in line.split("|")]
        if len(cells) < 2 or cells[0] == "geomean":
            break
        table["table/" + cells[0]] = " | ".join(cells)
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.selftest or args.record):
        ap.error("one of --workload, --selftest, --record is required")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    targets = ["crisp_perfbench", "crisp_serve"]
    if args.record:
        targets.append("fig07_ipc")
    if not build(build_dir, targets):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Paths relative to the root keep the daemon's socket path short.
    cmd = [os.path.join(build_dir, "crisp_perfbench"),
           "--out", os.path.relpath(out_dir, ROOT),
           "--serve-bin", os.path.join(build_dir, "crisp_serve"),
           "--expected", os.path.relpath(os.path.join(HERE,
                                                      "expected.json"),
                                         ROOT),
           "--seconds", str(args.seconds)]
    if args.selftest:
        cmd.append("--selftest")
    elif args.record:
        cmd.append("--record")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--trace", str(args.trace)]
    # Its own process group, so a timeout also stops the crisp_serve
    # child it may have started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=None if args.record else 170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # leftovers of a crash
    except ProcessLookupError:
        pass
    if args.record and proc.returncode == 0:
        recorded = json.loads(out)
        recorded["fig07_sweep"].update(fig07_rows(build_dir))
        out = json.dumps(recorded, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
