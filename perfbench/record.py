"""Run the benchmark over several seeds and record one point of the trajectory.

    python3 perfbench/record.py --runs 10 --point <commit> \
        --notes perfbench/trajectory/seed.notes.json --out perfbench/trajectory/seed.json

For every workload in BENCHMARK.json this runs ``run.py`` once per seed with
tracing off, then once with tracing on, one run at a time.  It reports each
end-to-end metric's median, quartiles and spread (interquartile range as a
share of the median) against the metric's bound, scaled as the JSON line
gives it and unscaled, and writes everything with the machine's description
to ``--out``.  ``--notes`` names a JSON file whose keys (the known behaviour
the numbers include, say) are copied into the output.  ``--against`` names an
earlier output: each median is compared with that point's, against the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one run, with the number of rounds it made and, with
    tracing off, its unscaled medians."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    unscaled = [json.loads(line[len("unscaled "):]) for line in lines if line.startswith("unscaled ")]
    return dict(json.loads(lines[-1]), rounds=int(re.search(r"rounds (\d+)", lines[0]).group(1)),
                unscaled=unscaled[0] if unscaled else None)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--point", default="", help="what is measured, e.g. a commit")
    parser.add_argument("--notes", help="JSON file whose keys are copied into the output")
    parser.add_argument("--against", help="an earlier output to compare the medians with")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else None

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    result = {
        "point": args.point,
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version()},
        "settings": {"run_seconds": spec["run_seconds"], "seeds": seeds,
                     "dataset_rows": run.DATASET_ROWS, "corpus_labels": run.CORPUS_LABELS,
                     "cold_starts_per_round": run.STARTS_PER_ROUND,
                     "reference_s": run.REFERENCE_S,
                     "note": "end-to-end values are medians over a run's rounds, each time "
                             "scaled to the speed at which the reference job takes reference_s "
                             "(unscaled: the same medians as measured); per-layer values come "
                             f"from one traced run (seed {seeds[0]}) and are unscaled"},
        "workloads": {},
    }
    if args.against:
        result["against"] = args.against
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        outs = [one_run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        entry = {"attempted": sum(o["attempted"] for o in outs),
                 "failed": sum(o["failed"] for o in outs),
                 "correct": all(o["correct"] for o in outs),
                 "rounds_per_run": [o["rounds"] for o in outs],
                 "reference_s": summarize([o["unscaled"]["reference_s"] for o in outs]),
                 "end_to_end": {}}
        for name, m in metrics.items():
            s = summarize([o["metrics"][name]["value"] for o in outs])
            s["unit"], s["bound"] = m["unit"], m["bound"]
            s["unscaled"] = summarize([o["unscaled"][name] for o in outs])
            entry["end_to_end"][name] = s
            worst = max(worst, s["spread"] / m["bound"])
            line = (f"{workload:15} {name:22} median {s['median']:12.6f} {s['unit']:9} "
                    f"spread {100 * s['spread']:5.2f}% (bound {100 * m['bound']:.0f}%; "
                    f"unscaled {100 * s['unscaled']['spread']:5.2f}%)")
            if earlier:
                before = earlier["workloads"][workload]["end_to_end"][name]["median"]
                worse = (s["median"] / before - 1) * (1 if m["better"] == "lower" else -1)
                s["worse_than_against"] = worse
                line += f"  worse than --against by {100 * worse:+.2f}%"
                line += "  OVER BOUND" if worse > m["bound"] else ""
            print(line, flush=True)
        print(f"{workload:15} {'failed_frac':22} {entry['failed'] / entry['attempted']:19.6f} ratio     "
              f"({entry['failed']} of {entry['attempted']})", flush=True)
        traced = one_run(workload, seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_rounds"] = traced["rounds"]
        result["workloads"][workload] = entry
    print(f"largest spread / bound: {worst:.2f} (steady below 0.33)")
    if args.notes:
        result.update(json.loads(Path(args.notes).read_text(encoding="utf-8")))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1, ensure_ascii=False) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
