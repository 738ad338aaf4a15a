#!/usr/bin/env python3
"""Build and run the nectar-sim repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [nectar_bench options...]

Configures and builds perfbench/ (a standalone CMake project that
compiles the simulator sources under src/) in $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs nectar_bench with the given
arguments.  Build output goes to stderr; nectar_bench's report goes to
stdout, whose last line is the JSON result object.  The exit status is
nectar_bench's, or nonzero without a result when the build fails.

`--workload all` runs every workload of BENCHMARK.json in turn, each in
its own process, and exits nonzero if any of them does.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build nectar_bench; return its path."""
    out = build_dir()
    # Keep the compiler's temporary files inside the build tree.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "nectar_bench",
                    "-j", jobs], stdout=sys.stderr, check=True, env=env)
    return os.path.join(out, "nectar_bench")


def git(*args):
    r = subprocess.run(["git", "-C", ROOT] + list(args),
                       capture_output=True, text=True, timeout=10)
    if r.returncode != 0:
        raise OSError(r.stderr.strip())
    return r.stdout.strip()


def git_sha():
    """HEAD of the checkout when it is itself a git work tree, with
    "+dirty" when tracked files differ from it; else "unknown"."""
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != \
                os.path.realpath(ROOT):
            return "unknown"
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return sha + ("+dirty" if dirty else "")


def option(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def run_one(exe, args):
    if "--git-sha" not in args:
        args = args + ["--git-sha", git_sha()]
    sys.stdout.flush()
    return subprocess.run([exe] + args).returncode


def main(argv):
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    args = list(argv)
    if option(args, "--workload", None) != "all":
        return run_one(exe, args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    at = args.index("--workload") + 1
    codes = [run_one(exe, args[:at] + [name] + args[at + 1:])
             for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
