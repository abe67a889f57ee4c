"""End-to-end and per-layer benchmark of the modelfacts CLI and public API.

    python3 perfbench/run.py --workload auc_imbalanced --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` there.
The benchmark builds its inputs from ``--seed`` under ``.perfbench_work/``,
then runs closed-loop rounds with one client until ``--seconds`` is spent.
Each round starts the CLI cold several times (``--version``), runs the
workload's CLI command once in a child process, and runs the same work once
in process through the public API.  Every output is checked against the
oracles in ``oracle.py``.  With ``--trace 1`` each round skips the cold
starts, adds a traced in-process pass, and the run reports per-layer metrics
instead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import gen
import oracle
from spans import Tracer, untraced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# The CLI as the child runs it.  On exit the child writes its own peak RSS
# (VmHWM) to the file named by PERFBENCH_HWM: the ru_maxrss that wait4 reports
# would also count the benchmark process, whose high-water mark the kernel
# copies into the child at exec.
CLI = """\
import os, sys
try:
    from modelfacts.cli import main
    code = main()
finally:
    with open("/proc/self/status") as status, open(os.environ["PERFBENCH_HWM"], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""
mf = None  # the modelfacts package from SRC, imported by main()

DATASET_ROWS = 50_000
CORPUS_LABELS = 500
MIN_ROUNDS = 2
STARTS_PER_ROUND = 2
# Nominal duration of the reference job; every timing is scaled to it.
REFERENCE_S = 0.03

WORKLOADS = {
    "auc_imbalanced": "generate",
    "r2_sites": "generate",
    "label_docs": "compare",
}

# name -> unit, as listed under end_to_end and per_layer in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "command_s": "s",
    "command_peak_rss_mb": "MB",
    "labels_per_s": "labels/s",
}
LAYERS = [
    # (name, unit, end-to-end metric it should move)
    ("ingest.parse_label_manifest_s", "s", "labels_per_s"),
    ("ingest.parse_predictions_s", "s", "command_s"),
    ("ingest.rows", "count", "-"),
    ("ingest.other_values", "count", "-"),
    ("ingest.blank_values", "count", "-"),
    ("ingest.peak_alloc_mb", "MB", "command_peak_rss_mb"),
    ("ingest.bytes_per_row", "B", "command_peak_rss_mb"),
    ("metrics.optimized_score_s", "s", "command_s"),
    ("metrics.standard_score_s", "s", "command_s"),
    ("metrics.group_breakdown_s", "s", "command_s"),
    ("metrics.group_breakdown.race_s", "s", "command_s"),
    ("metrics.group_breakdown.gender_s", "s", "command_s"),
    ("metrics.group_breakdown.age_s", "s", "command_s"),
    ("metrics.group_breakdown.site_s", "s", "command_s"),
    ("metrics.scorer_calls", "count", "-"),
    ("metrics.scorer_failures", "count", "-"),
    ("metrics.majority_baseline_s", "s", "command_s"),
    ("metrics.majority_baseline.auc_s", "s", "command_s"),
    ("metrics.majority_baseline.f1_s", "s", "command_s"),
    ("assemble.generate_label_s", "s", "command_s"),
    ("assemble.generate_label_self_s", "s", "command_s"),
    ("assemble.build_declared_label_s", "s", "labels_per_s"),
    ("assemble.compare_labels_s", "s", "command_s"),
    ("assemble.representation_audit_s", "s", "labels_per_s"),
    ("label.validate_label_s", "s", "labels_per_s"),
    ("label.completeness_s", "s", "labels_per_s"),
    ("render.to_canonical_json_s", "s", "labels_per_s"),
    ("render.from_canonical_json_s", "s", "command_s"),
    ("render.render_text_s", "s", "labels_per_s"),
    ("render.render_html_s", "s", "labels_per_s"),
    ("cli.overhead_s", "s", "setup_s"),
    ("trace.overhead_frac", "ratio", "-"),
]
CATEGORIES = ("race", "gender", "age", "site")
BASELINES = ("auc", "f1")


def spawn(argv: list[str], stdout: Path) -> tuple[float, int, float]:
    """Run the CLI in a fresh interpreter; wall seconds, exit code, the child's
    own peak RSS in MB."""
    hwm = Path(str(stdout) + ".hwm")
    hwm.unlink(missing_ok=True)  # a child that dies early must not leave an old reading
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_HWM=str(hwm))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stdout) + ".err", flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", CLI, *argv], env,
                         file_actions=actions)
    _, status = os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    kib = int(hwm.read_text().split()[1])  # "VmHWM:   12345 kB"
    return wall, os.waitstatus_to_exitcode(status), kib / 1024.0


class Reference:
    """The child process running reference.py, which times the reference job."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("reference.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def seconds(self) -> list[float]:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return [float(s) for s in self.proc.stdout.readline().split()]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


class Run:
    """Samples and pass/fail accounting shared by both workload kinds.

    On a shared host the CPU speed can drift by a factor of two within
    seconds, as other tenants come and go.  So the reference job is timed
    twice between any two samples, and each sample is kept both raw and
    scaled by REFERENCE_S over the median of the four reference times on
    either side of it: the time it would have taken where the reference job
    takes REFERENCE_S.  The median, not the mean, because a burst of
    contention can double a single reference time.
    """

    def __init__(self, work: Path, corrupt: str | None, reference: Reference):
        self.work = work
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples = {kind: [] for kind in ("setup", "command", "pass", "traced")}  # (raw, scaled)
        self.rss: list[float] = []
        self.reference = reference
        self.references = reference.seconds()  # every reference time, in order

    def sample(self, kind: str, seconds: float) -> None:
        after = self.reference.seconds()
        speed = statistics.median(self.references[-len(after):] + after)
        self.references += after
        self.samples[kind].append((seconds, seconds * REFERENCE_S / speed))

    def median(self, kind: str, scaled: bool = True) -> float:
        return statistics.median(s[1] if scaled else s[0] for s in self.samples[kind])

    def raw(self, kind: str) -> list[float]:
        return [s[0] for s in self.samples[kind]]

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def cold_start(self) -> None:
        out = self.work / "version.out"
        wall, code, _ = spawn(["--version"], out)
        self.sample("setup", wall)
        self.record(code == 0 and out.read_text().startswith("modelfacts "),
                    f"--version exited {code}")


class DatasetWorkload:
    """`generate` over one large predictions CSV, then one consumer pass."""

    # The in-process spans that do the CLI command's work.
    cli_spans = ("ingest.parse_label_manifest", "ingest.parse_predictions",
                 "assemble.generate_label", "render.to_canonical_json")

    def __init__(self, run: Run, kind: str, seed: int, rows: int):
        self.run = run
        write = gen.write_auc_inputs if kind == "auc" else gen.write_r2_inputs
        self.data, self.manifest = write(run.work, seed, rows)
        manifest_doc = json.loads(self.manifest.read_text(encoding="utf-8"))
        expect = oracle.expected_auc_label if kind == "auc" else oracle.expected_r2_label
        self.expected = expect(self.data, manifest_doc)
        if run.corrupt == "oracle":
            self.expected["accuracy"]["optimized"]["raw_score"]["value"] += 1e-6
        self.reference = mf.load_reference_population(json.dumps(gen.REFERENCE_POPULATION))
        self.label: bytes | None = None  # first label produced; all later ones must match it
        self.oracle_ok = False
        self.consumed = None  # consumer-side outputs of the first pass

    def command(self) -> None:
        out = self.run.work / "label.json"
        wall, code, rss = spawn(["generate", "--data", str(self.data), "--manifest",
                                 str(self.manifest), "-o", str(out)], self.run.work / "generate.out")
        self.run.sample("command", wall)
        self.run.rss.append(rss)
        if code != 0:
            self.run.record(False, f"generate exited {code}: "
                            + (self.run.work / "generate.out.err").read_text()[-300:])
            return
        self._check_label(out.read_bytes(), "cli generate")

    def _check_label(self, data: bytes, where: str) -> None:
        if self.label is None:
            self.label = data
            mismatches = oracle.diff(json.loads(data), self.expected)
            self.oracle_ok = not mismatches
            for m in mismatches[:5]:
                self.run.problems.append(f"oracle: {m}")
        same = data == self.label
        self.run.record(same and self.oracle_ok,
                        f"{where}: label bytes differ between runs" if not same
                        else f"{where}: label disagrees with the oracle")

    def one_pass(self, call) -> None:
        manifest = call("ingest.parse_label_manifest", mf.load_label_manifest, self.manifest)
        dataset = call("ingest.parse_predictions", mf.load_predictions, self.data, manifest)
        label = call("assemble.generate_label", mf.generate_label, dataset, manifest)
        data = call("render.to_canonical_json", mf.to_canonical_json, label)
        back = call("render.from_canonical_json", mf.from_canonical_json, data)
        codes = call("label.validate_label", mf.validate_label, back)
        text = call("render.render_text", mf.render_text, back)
        page = call("render.render_html", mf.render_html, back)
        audit = call("assemble.representation_audit", mf.representation_audit, back, self.reference)
        share = call("label.completeness", mf.completeness, back).reported_fraction
        del dataset, label
        self._after_pass(data, back, (tuple(v.code.value for v in codes), text, page,
                                      len(audit.flagged), share))

    def _after_pass(self, data, back, consumed) -> None:
        if self.run.corrupt == "label" and self.consumed is None:
            data = corrupted(data)
        self._check_label(data, "in-process generate")
        if self.consumed is None:
            self.consumed = consumed
        round_trip = mf.to_canonical_json(back) == data
        self.run.record(round_trip and consumed == self.consumed,
                        "consumer pass: round trip or renders changed between passes")

    def ingest_counters(self) -> dict[str, float]:
        """Peak ingest allocation, in its own untimed tracemalloc pass, and the
        sizes of the ingest work: rows, cells that went to "Other", blank cells."""
        gc.collect()
        tracemalloc.start()
        try:
            ds = mf.load_predictions(self.data, mf.load_label_manifest(self.manifest))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        schema = ds.attribute_schema
        other = sum(1 for r in ds.records for c in schema if r.attributes.get(c) == "Other")
        blank = sum(1 for r in ds.records for c in schema if c not in r.attributes)
        return {"ingest.rows": ds.n, "ingest.other_values": other, "ingest.blank_values": blank,
                "ingest.peak_alloc_mb": peak / 2**20, "ingest.bytes_per_row": peak / ds.n}


class DocsWorkload:
    """Write and read a corpus of declared labels; `compare` ranks all of them."""

    cli_spans = ("render.from_canonical_json", "assemble.compare_labels")

    def __init__(self, run: Run, seed: int, labels: int):
        self.run = run
        self.entries = gen.make_corpus(seed, labels)
        self.manifests = [json.dumps(e.manifest, ensure_ascii=False) for e in self.entries]
        self.reference = mf.load_reference_population(json.dumps(gen.REFERENCE_POPULATION))
        corpus = run.work / "corpus"
        corpus.mkdir()
        self.paths = [str(corpus / e.name) for e in self.entries]
        self.labels: list[bytes] = []
        self.good: list[bool] = []  # label i agrees with its oracle
        for entry, text, path in zip(self.entries, self.manifests, self.paths):
            data = mf.to_canonical_json(mf.build_declared_label(mf.parse_label_manifest(text)))
            self.labels.append(data)
            Path(path).write_bytes(data)
            if run.corrupt == "oracle" and entry.optimized_raw is not None and all(self.good):
                entry.optimized_raw += 1e-6
            mismatches = oracle.check_declared_label(json.loads(data), entry)
            self.good.append(not mismatches)
            for m in mismatches[:2]:
                run.problems.append(f"oracle: {m}")
        if run.corrupt == "label":
            i = next(i for i, e in enumerate(self.entries) if e.optimized_raw is not None)
            self.labels[i] = corrupted(self.labels[i])
            Path(self.paths[i]).write_bytes(self.labels[i])
        self.codes = [tuple(sorted(e.violations)) for e in self.entries]
        self.flags = [oracle.expected_flags(e) for e in self.entries]
        self.ranking = oracle.expected_ranking(self.entries)
        self.renders = None  # per-label text and HTML of the first pass

    def command(self) -> None:
        out = self.run.work / "compare.json"
        wall, code, rss = spawn(["compare", "--json", *self.paths], out)
        self.run.sample("command", wall)
        self.run.rss.append(rss)
        if code != 0:
            self.run.record(False, f"compare exited {code}")
            return
        ranking = [Path(p).name for p in json.loads(out.read_text(encoding="utf-8"))["ranking"]]
        self.run.record(ranking == self.ranking, "cli compare: ranking disagrees with the oracle")

    def one_pass(self, call) -> None:
        written = []
        for text in self.manifests:
            manifest = call("ingest.parse_label_manifest", mf.parse_label_manifest, text)
            label = call("assemble.build_declared_label", mf.build_declared_label, manifest)
            written.append(call("render.to_canonical_json", mf.to_canonical_json, label))
        decoded, read = [], []
        for data in self.labels:
            label = call("render.from_canonical_json", mf.from_canonical_json, data)
            codes = call("label.validate_label", mf.validate_label, label)
            text = call("render.render_text", mf.render_text, label)
            page = call("render.render_html", mf.render_html, label)
            audit = call("assemble.representation_audit", mf.representation_audit, label, self.reference)
            share = call("label.completeness", mf.completeness, label).reported_fraction
            again = call("render.to_canonical_json", mf.to_canonical_json, label)
            decoded.append(label)
            read.append((codes, text, page, audit, share, again))
        report = call("assemble.compare_labels", mf.compare_labels, list(zip(self.paths, decoded)))
        self._check(written, read, report)

    def _check(self, written, read, report) -> None:
        renders = [(text, page, share) for _, text, page, _, share, _ in read]
        if self.renders is None:
            self.renders = renders
        for i, (codes, _, _, audit, _, again) in enumerate(read):
            got = tuple(sorted(v.code.value for v in codes))
            ok = (self.good[i] and written[i] == self.labels[i] and again == self.labels[i]
                  and got == self.codes[i] and len(audit.flagged) == self.flags[i]
                  and renders[i] == self.renders[i])
            self.run.record(ok, f"{self.entries[i].name}: write/read pass disagrees "
                                f"(violations {got}, expected {self.codes[i]})")
        ranking = [Path(p).name for p in report.ranking]
        self.run.record(ranking == self.ranking, "compare_labels ranking disagrees with the oracle")

    def ingest_counters(self) -> dict[str, float]:
        gc.collect()
        tracemalloc.start()
        try:
            kept = [mf.parse_label_manifest(text) for text in self.manifests]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del kept
        return {"ingest.rows": 0, "ingest.other_values": 0, "ingest.blank_values": 0,
                "ingest.peak_alloc_mb": peak / 2**20, "ingest.bytes_per_row": 0.0}


def corrupted(label: bytes) -> bytes:
    """The same label with its optimized raw score nudged: still valid, now wrong."""
    doc = json.loads(label)
    doc["accuracy"]["optimized"]["raw_score"]["value"] += 0.001
    return (json.dumps(doc, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
            + "\n").encode("utf-8")


def timed_pass(run: Run, workload, call, kind: str) -> None:
    gc.collect()
    start = time.perf_counter()
    workload.one_pass(call)
    run.sample(kind, time.perf_counter() - start)


def traced_pass(run: Run, workload, tracer: Tracer, round_no: int) -> None:
    tracer.pass_no = round_no
    with tracer.metrics_layer():
        timed_pass(run, workload, tracer, "traced")


def measure(run: Run, workload, seconds: float, trace: bool, labels_per_pass: int) -> dict:
    tracer = Tracer()
    run.cold_start()  # warm-up: compiles the package's bytecode; not a sample
    run.samples["setup"].clear()
    begin = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        if not trace:
            for _ in range(STARTS_PER_ROUND):
                run.cold_start()
        workload.command()
        if trace and rounds % 2:  # alternate which pass follows the CLI child
            traced_pass(run, workload, tracer, rounds)
        timed_pass(run, workload, untraced, "pass")
        if trace and not rounds % 2:
            traced_pass(run, workload, tracer, rounds)
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - begin + (now - round_start) > seconds:
            break

    if not trace:
        return {
            "setup_s": run.median("setup"),
            "command_s": run.median("command"),
            "command_peak_rss_mb": statistics.median(run.rss),
            "labels_per_s": labels_per_pass / run.median("pass"),
        }

    totals = tracer.totals()  # one per round, like each kind of sample
    passes = len(totals)
    # Span times are raw; both overheads are paired within a round.
    cli_overhead = statistics.median(
        wall - sum(t.get(name, 0.0) for name in workload.cli_spans)
        for wall, t in zip(run.raw("command"), totals))
    trace_overhead = statistics.median(
        traced / plain - 1 for traced, plain in zip(run.raw("traced"), run.raw("pass")))

    def t(*names: str) -> float:
        """Median over passes of the seconds spent in spans called `names`."""
        return statistics.median(sum(p.get(n, 0.0) for n in names) for p in totals)

    layers = workload.ingest_counters()
    layers.update({
        "ingest.parse_label_manifest_s": t("ingest.parse_label_manifest"),
        "ingest.parse_predictions_s": t("ingest.parse_predictions"),
        "metrics.optimized_score_s": t("metrics.optimized_score"),
        "metrics.standard_score_s": t("metrics.standard_score"),
        "metrics.group_breakdown_s": t(*(f"metrics.group_breakdown.{c}" for c in CATEGORIES)),
        "metrics.scorer_calls": tracer.counts.get("metrics.scorer_calls", 0) / passes,
        "metrics.scorer_failures": tracer.counts.get("metrics.scorer_failures", 0) / passes,
        "metrics.majority_baseline_s": t(*(f"metrics.majority_baseline.{m}" for m in BASELINES)),
        "assemble.generate_label_s": t("assemble.generate_label"),
        "assemble.generate_label_self_s": t("assemble.generate_label.self"),
        "assemble.build_declared_label_s": t("assemble.build_declared_label"),
        "assemble.compare_labels_s": t("assemble.compare_labels"),
        "assemble.representation_audit_s": t("assemble.representation_audit"),
        "label.validate_label_s": t("label.validate_label"),
        "label.completeness_s": t("label.completeness"),
        "render.to_canonical_json_s": t("render.to_canonical_json"),
        "render.from_canonical_json_s": t("render.from_canonical_json"),
        "render.render_text_s": t("render.render_text"),
        "render.render_html_s": t("render.render_html"),
        "cli.overhead_s": cli_overhead,
        "trace.overhead_frac": trace_overhead,
    })
    for c in CATEGORIES:
        layers[f"metrics.group_breakdown.{c}_s"] = t(f"metrics.group_breakdown.{c}")
    for m in BASELINES:
        layers[f"metrics.majority_baseline.{m}_s"] = t(f"metrics.majority_baseline.{m}")
    tracer.write(run.work / "spans.jsonl")
    return layers


def layer_table(layers: dict, command_s: float, pass_s: float, command: str) -> str:
    """Per-layer values with their share of the CLI command and of the in-process pass."""
    lines = [f"{'layer metric':38} {'value':>13} {'unit':5} {'%' + command:>9} {'%pass':>7}  moves"]
    for name, unit, moves in LAYERS:
        value = layers[name]
        shares = (f"{100 * value / command_s:8.1f}% {100 * value / pass_s:6.1f}%" if unit == "s"
                  else f"{'':9} {'':7}")
        derived = "  (derived: total minus metrics.* spans)" if name.endswith("_self_s") else ""
        lines.append(f"{name:38} {value:13.6f} {unit:5} {shares}  {moves}{derived}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=DATASET_ROWS, help="dataset rows")
    parser.add_argument("--labels", type=int, default=CORPUS_LABELS, help="corpus labels")
    parser.add_argument("--corrupt", choices=("label", "oracle"),
                        help="plant one wrong label or oracle value (smoke check only)")
    args = parser.parse_args(argv)

    if not (SRC / "modelfacts" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a modelfacts checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import modelfacts

    if Path(modelfacts.__file__).resolve().parent != (SRC / "modelfacts").resolve():
        print(f"error: imported modelfacts from {modelfacts.__file__}, not {SRC}", file=sys.stderr)
        return 2
    global mf
    mf = modelfacts

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = Reference()
    run = Run(work, args.corrupt, reference)
    command = WORKLOADS[args.workload]
    try:
        if args.workload == "label_docs":
            workload = DocsWorkload(run, args.seed, args.labels)
            per_pass = args.labels
        else:
            kind = "auc" if args.workload == "auc_imbalanced" else "r2"
            workload = DatasetWorkload(run, kind, args.seed, args.rows)
            per_pass = 1
        values = measure(run, workload, args.seconds, bool(args.trace), per_pass)
    finally:
        reference.close()
        for path in work.iterdir():  # keep only the trace output
            if path.name != "spans.jsonl":
                shutil.rmtree(path) if path.is_dir() else path.unlink()
        if not args.trace:
            work.rmdir()

    failed_frac = run.failed / run.attempted
    print(f"workload {args.workload}  seed {args.seed}  command `modelfacts {command}`  "
          f"rows {args.rows if command == 'generate' else 0}  "
          f"labels/pass {per_pass}  rounds {len(run.samples['command'])}")
    for problem in run.problems:
        print(f"problem: {problem}")
    if args.trace:
        table = layer_table(values, run.median("command", scaled=False),
                            run.median("pass", scaled=False), command)
        (work / "layers.txt").write_text(table + "\n", encoding="utf-8")
        print(table)
        print(f"trace overhead {100 * values['trace.overhead_frac']:+.1f}% "
              f"(median of {len(run.samples['traced'])} rounds; traced pass "
              f"{run.median('traced', scaled=False):.4f} s, untraced "
              f"{run.median('pass', scaled=False):.4f} s); "
              f"spans in {work / 'spans.jsonl'}")
        units = {name: unit for name, unit, _ in LAYERS}
    else:
        kinds = {"setup_s": "setup", "command_s": "command", "command_peak_rss_mb": "command",
                 "labels_per_s": "pass"}
        raw = {"setup_s": run.median("setup", scaled=False),
               "command_s": run.median("command", scaled=False),
               "command_peak_rss_mb": values["command_peak_rss_mb"],
               "labels_per_s": per_pass / run.median("pass", scaled=False)}
        for name, unit in END_TO_END.items():
            print(f"{name:22} {values[name]:14.6f} {unit:9} median of "
                  f"{len(run.samples[kinds[name]]):3}  (unscaled {raw[name]:.6f})")
        print(f"{'reference_job':22} {statistics.median(run.references):14.6f} {'s':9} median of "
              f"{len(run.references):3}  (scaled to {REFERENCE_S})")
        # The same medians unscaled, for record.py; the JSON line holds the scaled ones.
        print("unscaled " + json.dumps(dict(raw, reference_s=statistics.median(run.references))))
        units = END_TO_END
    print(f"{'failed_frac':22} {failed_frac:14.6f} {'ratio':9} {run.failed} of {run.attempted}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
