#!/usr/bin/env python3
"""Build and run the oneport benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload large-dag --seed 1 --seconds 30
    python3 perfbench/run.py --workload all   # every workload, one process
    python3 perfbench/run.py --smoke          # metric-name check

The first call configures and builds the library and the benchmark in
Release mode under $CARGO_TARGET_DIR (default .bench_build)/perfbench;
later calls rebuild incrementally.  Build output goes to stderr, so the
last line of stdout is always the benchmark's JSON result.  Traced runs
(--trace 1) write their Chrome trace-event JSON to <build dir>/traces.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Builds the benchmark and returns its path; exits non-zero on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: the library sources (CMakeLists.txt, src/) are "
                 "missing next to perfbench/; nothing to build")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def commit_id():
    """The git commit when run from a clone, else a digest of the sources."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a clone")
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run(binary, workload, seed, seconds, trace, capture=False):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--commit", commit_id(),
               "--trace-dir", os.path.join(build_dir(), "traces")]
    return subprocess.run(command, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def smoke(binary):
    """Runs every workload briefly, traced and untraced, and checks that the
    emitted metrics are exactly those BENCHMARK.json names, with its units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = run(binary, workload, 1, 1, trace, capture=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v.get("unit")
                   for k, v in result.get("metrics", {}).items()}
            good = (done.returncode == 0 and result.get("correct") is True
                    and got == want)
            ok = ok and good
            print("%-4s %s --trace %d" % ("ok" if good else "FAIL", workload,
                                          trace))
            if not good:
                print("  exit %d; missing %s; unexpected %s" % (
                    done.returncode, sorted(set(want) - set(got)),
                    sorted(set(got) - set(want))))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.smoke:
        return smoke(binary)
    return run(binary, args.workload, args.seed, args.seconds,
               args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
