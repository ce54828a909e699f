#!/usr/bin/env python3
"""Build and run the in situ benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The first call configures and builds
perfbench/ (which compiles the repository's ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally.  Images, checkpoints and traces land under
.bench_out/.  The arguments go to the nsm_perfbench binary, whose last
stdout line is the JSON result and whose exit code is nonzero when an
output check failed.  A failed build exits nonzero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j4",
                  "--target", "nsm_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    if not build(build_dir):
        return 1
    cmd = [os.path.join(build_dir, "nsm_perfbench")] + sys.argv[1:] + [
        "--out", os.path.abspath(".bench_out"),
        "--references", os.path.join(HERE, "references.txt")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
