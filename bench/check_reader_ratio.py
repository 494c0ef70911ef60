#!/usr/bin/env python3
"""Guard parse speed: each text reader against its writer, in one run.

Usage:
    check_reader_ratio.py CURRENT.json

CURRENT.json is google-benchmark ``--benchmark_out`` JSON from
bench_scale.  For each (reader, writer) pair below, the reader's time is
divided by the writer's, both the min over the repetitions, and the
check fails when a ratio exceeds MAX_RATIO or a bench is missing.
Both sides of a pair run in the same process on the same bytes, so the
ratio does not depend on the runner's speed and needs no baseline.
"""

import sys

from check_bench_trajectory import load_times

MAX_RATIO = 3.0

PAIRS = [
    ("import/parse/dot/n=10000", "io/export/dot/n=10000"),
    ("import/parse/json/n=10000", "io/export/json/n=10000"),
    ("io/read_schedule/n=100000", "io/write_schedule/n=100000"),
]


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    names = [name for pair in PAIRS for name in pair]
    times = load_times(argv[1], names)
    ok = True
    for reader, writer in PAIRS:
        if reader not in times or writer not in times:
            print(f"FAIL: {reader if reader not in times else writer} "
                  "is missing from the run")
            ok = False
            continue
        ratio = times[reader] / times[writer]
        verdict = "ok" if ratio <= MAX_RATIO else "FAIL"
        print(f"  {reader:<28} {times[reader] / 1e6:8.2f} ms  /  "
              f"{writer:<28} {times[writer] / 1e6:8.2f} ms  = "
              f"{ratio:5.2f}x  {verdict}")
        ok = ok and ratio <= MAX_RATIO
    if ok:
        print(f"OK: every reader within {MAX_RATIO:.1f}x its writer")
    else:
        print(f"FAIL: a reader takes more than {MAX_RATIO:.1f}x its writer")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
