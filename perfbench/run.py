#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (which compiles the emergence library from
src/) in Release under .bench_build/perfbench, then runs the perfbench
binary with the given flags. Traced runs write their spans to
.bench_build/perfbench-traces/. The binary prints every metric by name and
unit and, as its last line, one JSON object; the binary replaces this
script's process, so its exit code is the run's. Standard library only.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")


def build():
    """Configure once, then build incrementally; the log stays on disk."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no emergence sources under %s\n" % ROOT)
        return False
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("run.py: build failed (%s)\n" % log_path)
                return False
    return True


def main(argv):
    if not build():
        return 1
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        os.makedirs(TRACES, exist_ok=True)
        args += ["--trace-dir", TRACES]
    binary = os.path.join(BUILD, "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
