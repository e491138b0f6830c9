"""One set-up of the benchmark, timed in a fresh interpreter.

Usage: ``python3 setup_probe.py <src dir>``, with the workload's JSON
documents on standard input.  It times ``import commrep`` and parsing
every document, and prints the wall and reference seconds as JSON.  The
scale factor uses the median of ``TICKS`` ticks (``refclock.tick``) taken
right before the set-up and as many right after, the same estimator as the
jobs' ticks.  numpy is imported before the clock starts: its import took
anywhere from 65 to 160 ms, with the host's file cache and not with
commrep, and would drown the rest.
"""

import json
import statistics
import sys
import time

import numpy  # noqa: F401  (see above)

import refclock

TICKS = 10


def main():
    sys.path.insert(0, sys.argv[1])
    texts = json.load(sys.stdin)
    before = [refclock.tick() for _ in range(TICKS)]
    t0 = time.perf_counter()
    from commrep import io

    for text in texts:
        io.rep_from_doc(json.loads(text))
    wall = time.perf_counter() - t0
    after = [refclock.tick() for _ in range(TICKS)]
    kernel = statistics.median(before + after)
    print(json.dumps({"wall_s": wall, "ref_s": wall * refclock.NOMINAL_KERNEL_S / kernel}))


if __name__ == "__main__":
    main()
