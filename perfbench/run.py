#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds perfbench/bench.exe from this checkout with dune, then runs one
workload and passes its report through; the last line of standard output
is the result as one JSON object.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pipe_stream, cm_many_flows, edge_flash_crowd, adaptive_observed,
or all of them in turn, each in a process of its own (see
perfbench/METRICS.md).  Other arguments, such as --write-ref, are passed to
bench.exe unchanged.  A failed build exits non-zero without printing a
result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def main():
    env = dict(os.environ)
    # keep every build artefact and temporary file inside the checkout
    env["DUNE_CACHE"] = "disabled"
    tmp = os.path.join(ROOT, "perfbench", "_out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [
        EXE,
        "--refs",
        os.path.join("perfbench", "refs"),
        "--out",
        os.path.join("perfbench", "_out"),
    ] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
