"""The reference job that run.py times between samples, in a process of its own.

    python3 perfbench/reference.py

It answers each line on standard input with the seconds each of JOBS
reference jobs took.  The jobs run apart from the benchmark so that the program under test,
whose in-process passes share the benchmark's heap and garbage collector,
cannot change how long it takes.
"""

from __future__ import annotations

import sys
import time

JOBS = 2


def work() -> float:
    """Seconds for a fixed pure-Python job of the kind the package does
    (string, float and dict operations, a keyed sort)."""
    start = time.perf_counter()
    table = {}
    for i in range(50_000):
        text = str(i * 7919 % 100_003)
        table[text] = float(text) * 0.5
    sorted(table.items(), key=lambda kv: kv[1])
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in sys.stdin:
        print(" ".join(str(work()) for _ in range(JOBS)), flush=True)
