#!/usr/bin/env python3
"""Determinism lint for the scheduling kernel (src/core + src/sched).

Schedules must be bit-identical across worker counts, machines and
reruns -- the frozen-oracle schedule table checked by
tests/property_sweep_test.cpp depends on it.
This lint statically rejects the constructs that silently break that
property inside the kernel layers:

  * C PRNGs and nondeterministic seeds: rand(), srand(),
    std::random_device (seeded determinism lives in util/rng.hpp);
  * wall-clock reads: std::chrono::system_clock, time(), gettimeofday,
    clock() -- schedule *values* may never depend on when they were
    computed (steady_clock is fine for profiling, which never feeds
    back into decisions);
  * address-keyed ordered containers: std::map/std::set keyed on a
    pointer iterate in allocation order, which varies run to run.

A line may opt out with `// NOLINT(oneport-determinism)` plus a reason;
there are currently zero opt-outs in the tree.

Usage:
  tools/lint/check_determinism.py              # lint the repo
  tools/lint/check_determinism.py --self-test  # prove the lint can fail
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

SCAN_DIRS = ("src/core", "src/sched")
SUFFIXES = {".hpp", ".h", ".cpp", ".cc"}
SUPPRESS = "NOLINT(oneport-determinism)"

RULES: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("),
     "C PRNG (use the seeded SplitMix64 in util/rng.hpp)"),
    (re.compile(r"\bstd::random_device\b"),
     "nondeterministic seed source (use an explicit seed)"),
    (re.compile(r"\bsystem_clock\b"),
     "wall-clock read (schedule values may not depend on real time)"),
    (re.compile(r"\bgettimeofday\s*\("),
     "wall-clock read (schedule values may not depend on real time)"),
    (re.compile(r"\b(?:std::)?time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "wall-clock read (schedule values may not depend on real time)"),
    (re.compile(r"\b(?:std::)?clock\s*\(\s*\)"),
     "process-clock read (timing may not steer scheduling decisions)"),
    (re.compile(r"\bstd::(?:multi)?(?:map|set)\s*<\s*[\w:]+(?:\s+const)?"
                r"\s*\*"),
     "pointer-keyed ordered container (iteration order = allocation "
     "order; key on an index or id instead)"),
]


def lint_tree(repo: pathlib.Path) -> list[str]:
    errors: list[str] = []
    for dirname in SCAN_DIRS:
        base = repo / dirname
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SUFFIXES:
                continue
            rel = path.relative_to(repo)
            for lineno, line in enumerate(
                path.read_text(errors="replace").splitlines(), start=1
            ):
                if SUPPRESS in line:
                    continue
                code = line.split("//", 1)[0]  # ignore pure comments
                for pattern, why in RULES:
                    if pattern.search(code):
                        errors.append(f"{rel}:{lineno}: {why}\n    {line.strip()}")
    return errors


def self_test() -> int:
    violations = {
        "rand.cpp": "int f() { return rand() % 7; }\n",
        "wall.cpp": "#include <chrono>\n"
                    "auto f() { return std::chrono::system_clock::now(); }\n",
        "ptrmap.cpp": "#include <map>\nstruct T;\n"
                      "std::map<T*, int> order;\n",
    }
    with tempfile.TemporaryDirectory() as tmp:
        repo = pathlib.Path(tmp)
        core = repo / "src/core"
        core.mkdir(parents=True)
        (core / "ok.cpp").write_text(
            "// rand() in a comment is fine\n"
            "#include <chrono>\n"
            "auto t() { return std::chrono::steady_clock::now(); }\n"
            "int suppressed() { return rand(); }"
            "  // NOLINT(oneport-determinism) self-test opt-out\n"
        )
        if lint_tree(repo):
            print("self-test FAILED: clean tree reported errors")
            return 1
        for name, text in violations.items():
            (core / name).write_text(text)
        errors = lint_tree(repo)
        missing = [n for n in violations if not any(n in e for e in errors)]
        if missing:
            print(f"self-test FAILED: injected violation(s) not caught: "
                  f"{missing}")
            return 1
    print("check_determinism self-test OK (all injected violations caught)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[2])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    errors = lint_tree(args.repo)
    for error in errors:
        print(error)
    if errors:
        print(f"check_determinism: {len(errors)} violation(s)")
        return 1
    print("check_determinism: OK (src/core + src/sched clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
