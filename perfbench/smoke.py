"""Quick self-check of the benchmark on small inputs (well under a minute).

    python3 perfbench/smoke.py

It checks that every workload runs clean and prints exactly the metrics
BENCHMARK.json declares; that a planted wrong label and a planted wrong
oracle value are each counted as failures; and that without the package
source the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent
SMALL = ["--seed", "3", "--seconds", "0", "--rows", "3000", "--labels", "60"]


def result(workload: str, *extra: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, *SMALL, *extra])
    if code != 0:
        raise SystemExit(f"{workload} {' '.join(extra)}: exit {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.STARTS_PER_ROUND = 1
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            r = result(workload, "--trace", trace)
            units = {k: v["unit"] for k, v in r["metrics"].items()}
            if not (r["correct"] and r["failed"] == 0 and r["attempted"] > 0):
                problems.append(f"{workload} trace {trace}: {r['failed']} of {r['attempted']} failed")
            if units != declared[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json")
            if trace == "0" and not all(v["value"] > 0 for v in r["metrics"].values()):
                problems.append(f"{workload}: an end-to-end metric is not positive")
        for planted in ("label", "oracle"):
            r = result(workload, "--trace", "0", "--corrupt", planted)
            if r["correct"] or r["failed"] < 1:
                problems.append(f"{workload}: planted wrong {planted} was not counted as a failure")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "label_docs", *SMALL],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without src/ the benchmark exited {proc.returncode} and printed "
                        f"{proc.stdout.strip()[:80]!r}")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
