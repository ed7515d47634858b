#!/usr/bin/env python3
"""Build and run the ldb end-to-end benchmark.

Run from the root of an ldb checkout:

    python3 ldbbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

Workloads: interactive, attach, timetravel. The first run configures and
builds ldbbench/ (and the debugger's libraries under src/) in the build
directory ($CARGO_TARGET_DIR, default .bench_build) and compiles the input
programs; later runs reuse both. The last line of standard output is the
result object; build output goes to standard error. See ldbbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def refuse_knobs():
    # The program's LDB_* knobs select non-default code paths; numbers taken
    # with any of them set would not describe the default program.
    knobs = sorted(k for k in os.environ if k.startswith("LDB_"))
    if knobs:
        fail("refusing to measure with LDB_* knobs set: " + " ".join(knobs))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(build_dir, "build.log")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir])
        steps.append(["cmake", "--build", build_dir, "--target", "ldbbench",
                      "-j", jobs])
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 env=env)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd), 1)
    return os.path.join(build_dir, "ldbbench")


def prepare(binary, programs):
    # Compiled inputs belong to the binary that compiled them: a rebuilt
    # compiler recompiles them.
    st = os.stat(binary)
    stamp_text = "%d %d\n" % (st.st_size, st.st_mtime_ns)
    stamp = os.path.join(programs, "binary.stamp")
    old = open(stamp).read() if os.path.exists(stamp) else None
    if old != stamp_text and os.path.isdir(programs):
        shutil.rmtree(programs)
    os.makedirs(programs, exist_ok=True)
    rc = subprocess.call([binary, "prepare", "--cache", programs],
                         stdout=sys.stderr)
    if rc != 0:
        fail("preparing the input programs failed", 1)
    with open(stamp, "w") as f:
        f.write(stamp_text)


def main():
    refuse_knobs()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["interactive", "attach", "timetravel"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--script", help="replay a saved script")
    args = ap.parse_args()

    if not os.path.exists(os.path.join("src", "CMakeLists.txt")):
        fail("run from the root of an ldb checkout (no src/ here)", 1)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    programs = os.path.join(build_dir, "programs")
    prepare(binary, programs)

    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cache", programs,
           "--out", os.path.join(build_dir, "results")]
    if args.script:
        cmd += ["--script", args.script]
    sys.stdout.flush()
    sys.exit(subprocess.call(cmd))


if __name__ == "__main__":
    main()
