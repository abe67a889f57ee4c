"""End-to-end CLI behavior: subcommands, exit codes, and stable output, and a property:
every command on a golden input with one fault exits 0, 1 or 2."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_DIR, make_label, read_golden
from test_properties import json_values
from modelfacts import __version__
from modelfacts.cli import main
from modelfacts.codec import from_canonical_json, to_canonical_json

VOID_MANIFEST = str(GOLDEN_DIR / "void.manifest.json")
SUICIDE_MANIFEST = str(GOLDEN_DIR / "suicide_risk.manifest.json")


def write_label(path: Path, label) -> str:
    path.write_bytes(to_canonical_json(label))
    return str(path)


def strict_json(text: str):
    """json.loads, except that NaN and the infinities, which Python's json reads, are refused."""
    def refuse(constant: str):
        raise ValueError(f"non-finite number {constant} in JSON output")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def reference_file(tmp_path: Path) -> str:
    doc = {"name": "urban", "categories": {
        "Gender": {"Female": 50.0, "Male": 48.0, "Trans Female": 0.6,
                   "Trans Male": 0.6, "Nonbinary": 0.5, "Other": 0.3}}}
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestDeclareAndRender:
    def test_declare_then_render_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "void.label.json"
        assert main(["declare", "--manifest", VOID_MANIFEST, "-o", str(out)]) == 0
        assert out.read_bytes() == read_golden("void.label.json")
        capsys.readouterr()
        assert main(["render", str(out), "--format", "text"]) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == read_golden("void.label.txt")

    def test_render_to_file(self, tmp_path, capsys):
        out = tmp_path / "label.json"
        main(["declare", "--manifest", SUICIDE_MANIFEST, "-o", str(out)])
        html_out = tmp_path / "label.html"
        assert main(["render", str(out), "--format", "html", "-o", str(html_out)]) == 0
        assert html_out.read_text().startswith("<!DOCTYPE html>")

    def test_declare_to_stdout(self, capsys):
        assert main(["declare", "--manifest", VOID_MANIFEST]) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == read_golden("void.label.json")

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["declare", "--manifest", VOID_MANIFEST, "-o", str(a)])
        main(["declare", "--manifest", VOID_MANIFEST, "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_stamp_sidecar(self, tmp_path):
        out = tmp_path / "void.label.json"
        assert main(["declare", "--manifest", VOID_MANIFEST, "-o", str(out), "--stamp"]) == 0
        stamp = json.loads((tmp_path / "void.label.json.stamp.json").read_text())
        assert stamp["command"] == "declare"
        assert VOID_MANIFEST in stamp["inputs"]
        # the label itself stays canonical and stamp-free
        assert out.read_bytes() == read_golden("void.label.json")

    def test_generate_stamp_sidecar(self, tmp_path, capsys):
        out = tmp_path / "length_of_stay.label.json"
        data = str(GOLDEN_DIR / "length_of_stay.csv")
        manifest = str(GOLDEN_DIR / "length_of_stay.manifest.json")
        assert main(["generate", "--data", data, "--manifest", manifest, "-o", str(out),
                     "--stamp"]) == 0
        stamp = json.loads((tmp_path / "length_of_stay.label.json.stamp.json").read_text())
        assert stamp["command"] == "generate"
        assert sorted(stamp["inputs"]) == sorted([data, manifest])
        digest = hashlib.sha256(read_golden("length_of_stay.csv")).hexdigest()
        assert stamp["inputs"][data] == digest
        assert out.read_bytes() == read_golden("length_of_stay.label.json")
        assert capsys.readouterr().err == f"wrote {out}\nwrote {out}.stamp.json\n"

    def test_declare_incomplete_manifest_exits_2(self, tmp_path, capsys):
        doc = json.loads(Path(VOID_MANIFEST).read_text())
        doc.pop("dataset")
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        assert main(["declare", "--manifest", str(path), "-o", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "SCHEMA_ERROR" in err and "Traceback" not in err

    def test_render_missing_label_exits_2(self, tmp_path, capsys):
        assert main(["render", str(tmp_path / "nope.json"), "--format", "text"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_compare_malformed_label_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": "1.0"}')
        assert main(["compare", str(bad)]) == 2
        assert "SCHEMA_ERROR" in capsys.readouterr().err


class TestGenerate:
    def manifest(self, tmp_path) -> str:
        doc = {
            "schema_version": "1.0",
            "application": "Flags intake cases for a second review",
            "model_type": "imbalanced_classification",
            "model_train_date": "2020",
            "test_data_range": "2021",
            "positive_class": "1",
            "optimized_metric": {"name": "Accuracy"},
            "warnings": [],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_generate_pipeline(self, tmp_path, capsys):
        data = tmp_path / "predictions.csv"
        data.write_text("id,y_true,y_pred,gender\na,1,1,F\nb,0,0,M\nc,1,0,F\nd,0,1,M\n")
        out = tmp_path / "out.label.json"
        assert main(["generate", "--data", str(data), "--manifest", self.manifest(tmp_path),
                     "-o", str(out)]) == 0
        doc = json.loads(out.read_bytes())
        assert doc["accuracy"]["optimized"]["raw_score"]["value"] == 0.5

    def test_missing_column_exits_2(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("id,y_pred\na,1\n")
        code = main(["generate", "--data", str(data), "--manifest", self.manifest(tmp_path),
                     "-o", str(tmp_path / "x.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "MISSING_COLUMN" in captured.err
        assert "y_true" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--data", str(tmp_path / "nope.csv"),
                     "--manifest", self.manifest(tmp_path), "-o", str(tmp_path / "x.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


CLASSIFICATION_CSV = "id,y_true,y_pred\na,1,1\nb,0,0\nc,0,1\nd,0,0\n"


@pytest.mark.parametrize("model_type, optimized, csv_text, code", [
    ("imbalanced_classification", {"name": "AUC "}, CLASSIFICATION_CSV, "MISSING_COLUMN"),
    ("imbalanced_classification", {"name": "A-U-C"}, CLASSIFICATION_CSV, "MISSING_COLUMN"),
    ("regression", {"name": "F1"}, "id,y_true,y_pred\na,1.0,1.5\nb,2.0,2.0\n", "UNKNOWN_METRIC"),
    ("imbalanced_classification", {"name": "R2"}, CLASSIFICATION_CSV, "UNKNOWN_METRIC"),
    ("imbalanced_classification", {"name": "Accuracy", "baseline": float("inf")},
     CLASSIFICATION_CSV, "SCHEMA_ERROR"),
    ("imbalanced_classification", {"name": "Accuracy", "baseline": float("nan")},
     CLASSIFICATION_CSV, "SCHEMA_ERROR"),
    ("imbalanced_classification", {"name": "AUC"},
     "id,y_true,score\na,1,0.9\nb,0,nan\nc,1,0.2\nd,0,0.1\n", "BAD_VALUE"),
    ("regression", {"name": "R2"}, "id,y_true,y_pred\na,inf,1.5\nb,2.0,2.0\n", "BAD_VALUE"),
    ("imbalanced_classification", {"name": "F1"},
     "id,y_true,y_pred\na,yes,yes\nb,no,no\nc,no,yes\n", "SCHEMA_ERROR"),
    ("regression", {"name": "R2"}, "id,y_true,y_pred\na,1e300,1.5\nb,2.0,2.0\n", "NUMERIC_OVERFLOW"),
    ("regression", {"name": "R2"}, "id,y_true,y_pred\na,1.0,-1e300\nb,2.0,2.0\n",
     "NUMERIC_OVERFLOW"),
    ("imbalanced_classification", {"name": "Accuracy", "baseline": 1e-308},
     CLASSIFICATION_CSV, "NUMERIC_OVERFLOW"),
], ids=["auc-trailing-space", "auc-dashes", "f1-on-regression", "r2-on-classification",
        "infinite-baseline", "nan-baseline", "nan-score", "infinite-y-true",
        "absent-positive-class", "overflowing-variance", "overflowing-residuals",
        "overflowing-percent"])
def test_generate_rejects_bad_metric_input_with_exit_2(tmp_path, capsys, model_type, optimized,
                                                       csv_text, code):
    manifest = json.loads(Path(VOID_MANIFEST).read_text())
    manifest.update(model_type=model_type, positive_class="1", optimized_metric=optimized)
    manifest.pop("standard_metric")
    (tmp_path / "m.json").write_text(json.dumps(manifest))  # json writes Infinity / NaN
    (tmp_path / "p.csv").write_text(csv_text)
    assert main(["generate", "--data", str(tmp_path / "p.csv"),
                 "--manifest", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert f"error: {code}" in err and "internal error" not in err


def test_declare_rejects_non_finite_baseline(tmp_path, capsys):
    manifest = json.loads(Path(VOID_MANIFEST).read_text())
    manifest["optimized_metric"].pop("pct_over_baseline")
    manifest["optimized_metric"]["baseline"] = float("inf")
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    assert main(["declare", "--manifest", str(tmp_path / "m.json")]) == 2
    assert "error: SCHEMA_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("command, golden, edit, path", [
    ("validate", "void.label.json",
     lambda doc: doc["dataset"].update(train_pct={"state": []}), "dataset.train_pct"),
    ("validate", "void.label.json",
     lambda doc: doc["demographics"][0]["rows"][0].update(target_stat={"state": {}}),
     "demographics[0].rows[0].target_stat"),
    ("declare", "void.manifest.json", lambda doc: doc.update(model_type=[]), "model_type"),
    ("declare", "void.manifest.json",
     lambda doc: doc["demographics"]["Race"].update(state=[]), "demographics.Race.state"),
], ids=["label-state-list", "label-state-object", "manifest-model-type-list",
        "manifest-state-list"])
def test_unhashable_state_or_model_type_exits_2(tmp_path, capsys, command, golden, edit, path):
    doc = json.loads(read_golden(golden))
    edit(doc)
    (tmp_path / "in.json").write_text(json.dumps(doc))
    args = ["--manifest"] if command == "declare" else []
    assert main([command, *args, str(tmp_path / "in.json")]) == 2
    assert f"error: SCHEMA_ERROR: at '{path}'" in capsys.readouterr().err


@pytest.mark.parametrize("edit, path, reason", [
    (lambda doc: doc.update(model_train_date=2012), "model_train_date",
     "date must be a string, got int"),
    (lambda doc: doc.update(test_data_range={"start": "2013", "end": "2014-13"}),
     "test_data_range.end", "invalid date '2014-13': month 13 out of range"),
], ids=["int-train-date", "month-13-range-end"])
def test_declare_names_the_path_of_a_bad_date(tmp_path, capsys, edit, path, reason):
    doc = json.loads(read_golden("void.manifest.json"))
    edit(doc)
    (tmp_path / "m.json").write_text(json.dumps(doc))
    assert main(["declare", "--manifest", str(tmp_path / "m.json"),
                 "-o", str(tmp_path / "label.json")]) == 2
    assert capsys.readouterr().err == f"error: SCHEMA_ERROR: at '{path}': {reason}\n"
    assert not (tmp_path / "label.json").exists()


@pytest.mark.parametrize("args", [
    ["generate", "--data", str(GOLDEN_DIR / "length_of_stay.csv"),
     "--manifest", str(GOLDEN_DIR / "length_of_stay.manifest.json"), "--stamp"],
    ["declare", "--stamp", "--manifest", VOID_MANIFEST],
], ids=["generate", "declare"])
def test_stamp_without_an_output_file_exits_2_before_writing(tmp_path, monkeypatch, capsys,
                                                             args):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as done:
        main(args)
    assert done.value.code == 2
    captured = capsys.readouterr()
    assert "error: argument --stamp: " in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def accuracy_manifest(tmp_path: Path) -> str:
    manifest = json.loads(Path(VOID_MANIFEST).read_text())
    manifest.update(positive_class="1", optimized_metric={"name": "Accuracy"})
    manifest.pop("standard_metric")
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    return str(tmp_path / "m.json")


@pytest.mark.parametrize("command, error", [
    ("declare", "SCHEMA_ERROR: at '(document)'"),
    ("generate", "BAD_VALUE: row 2, column '(row)'"),
    ("audit", "SCHEMA_ERROR: at '(document)'"),
])
def test_input_that_is_not_utf8_exits_2(tmp_path, capsys, command, error):
    bad = tmp_path / "bad"
    if command == "generate":
        bad.write_bytes(b"id,y_true,y_pred\na,1,1\nb,0,\x80\n")
        args = ["generate", "--data", str(bad), "--manifest", accuracy_manifest(tmp_path)]
    elif command == "declare":
        bad.write_bytes(read_golden("void.manifest.json").replace(b"Identify", b"Identi\x80y"))
        args = ["declare", "--manifest", str(bad)]
    else:
        bad.write_bytes(b'{"name": "\x80", "categories": {"Gender": {"Female": 100}}}')
        args = ["audit", str(GOLDEN_DIR / "void.label.json"), "--reference", str(bad)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error: {error}" in err and "internal error" not in err


@pytest.mark.parametrize("command, golden", [
    (["declare", "--manifest"], "void.manifest.json"),
    (["render", "--format", "html", "-o", "out.html"], "void.label.json"),
    (["render", "--format", "text"], "void.label.json"),
], ids=["declare", "render-to-file", "render-to-stdout"])
def test_lone_surrogate_escape_exits_2(tmp_path, capsys, command, golden):
    bad = tmp_path / "bad.json"  # plain ASCII on disk; the escape decodes to U+DC80
    bad.write_bytes(read_golden(golden).replace(b"Identify", b"Identify \\udc80"))
    args = [str(tmp_path / a) if a == "out.html" else a for a in command]
    assert main([*args, str(bad)]) == 2
    captured = capsys.readouterr()
    assert "error: SCHEMA_ERROR: at '(document)'" in captured.err
    assert "internal error" not in captured.err and captured.out == ""
    assert not (tmp_path / "out.html").exists()


def test_surrogate_pair_escape_is_read(tmp_path, capsys):
    label = tmp_path / "pair.json"  # an escaped pair, and an escaped backslash before "udc80"
    label.write_bytes(read_golden("void.label.json").replace(
        b"Identify", b"Identify \\ud83d\\ude00 \\\\udc80"))
    assert main(["render", str(label), "--format", "text"]) == 0
    assert "Identify \U0001F600 \\udc80" in capsys.readouterr().out


@pytest.mark.parametrize("args, argument", [
    (["validate", "{void}", "--width", "10"], "--width"),
    (["validate", "{void}", "--max-lines", "3"], "--max-lines"),
    (["compare", "{void}", "{void}"], "labels"),
    (["audit", "{void}", "--reference", "{reference}", "--threshold-pp", "nan"], "--threshold-pp"),
    (["audit", "{void}", "--reference", "{reference}", "--threshold-pp", "inf"], "--threshold-pp"),
    (["audit", "{void}", "--reference", "{reference}", "--threshold-pp", "-1"], "--threshold-pp"),
], ids=["narrow-width", "few-lines", "repeated-label", "nan-threshold", "infinite-threshold",
        "negative-threshold"])
def test_out_of_bounds_argument_exits_2_naming_it(reference_file, capsys, args, argument):
    paths = {"void": str(GOLDEN_DIR / "void.label.json"), "reference": reference_file}
    with pytest.raises(SystemExit) as done:
        main([a.format(**paths) for a in args])
    assert done.value.code == 2
    captured = capsys.readouterr()
    assert f"error: argument {argument}: " in captured.err and captured.out == ""


def test_unused_score_column_leaves_a_regression_label_unchanged(tmp_path, capsys):
    manifest = json.loads(Path(VOID_MANIFEST).read_text())
    manifest.update(model_type="regression", optimized_metric={"name": "R2"})
    manifest.pop("standard_metric")
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    truth = [0.1, 2.7, 3.3, 1e-3, 45.5, 0.7, 8.25, 3.1]
    rows = [(f"r{i}", t, t * 0.9 + 0.3, 1.0 - i / 8, "FM"[i % 2]) for i, t in enumerate(truth)]
    (tmp_path / "plain.csv").write_text("id,y_true,y_pred,gender\n" + "".join(
        f"{i},{t},{p},{g}\n" for i, t, p, _, g in rows))
    (tmp_path / "scored.csv").write_text("id,y_true,y_pred,score,gender\n" + "".join(
        f"{i},{t},{p},{s},{g}\n" for i, t, p, s, g in rows))
    for name in ("plain", "scored"):
        assert main(["generate", "--data", str(tmp_path / f"{name}.csv"), "--manifest",
                     str(tmp_path / "m.json"), "-o", str(tmp_path / f"{name}.json")]) == 0
    assert (tmp_path / "scored.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_generate_reads_a_csv_with_byte_order_mark(tmp_path, capsys):
    csv_text = "id,y_true,y_pred,gender\na,1,1,F\nb,0,0,M\nc,1,0,F\n"
    (tmp_path / "plain.csv").write_text(csv_text, encoding="utf-8")
    (tmp_path / "bom.csv").write_text(csv_text, encoding="utf-8-sig")
    manifest = accuracy_manifest(tmp_path)
    for name in ("plain", "bom"):
        assert main(["generate", "--data", str(tmp_path / f"{name}.csv"),
                     "--manifest", manifest, "-o", str(tmp_path / f"{name}.json")]) == 0
    assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with the package's source tree on its path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def test_python_dash_m_runs_the_cli():
    done = run_python("-m", "modelfacts", "--version")
    assert (done.returncode, done.stdout) == (0, f"modelfacts {__version__}\n")


# Runs the CLI on its arguments, then prints the package modules it loaded as the last line.
RUN_CLI_AND_LIST_MODULES = """\
import json, sys
from modelfacts.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps(sorted(m for m in sys.modules if m.startswith("modelfacts"))))
sys.exit(code)
"""


def modules_loaded_by(*argv: str) -> tuple[int, list[str]]:
    """In a fresh interpreter: the CLI's exit code and the package modules it loaded."""
    done = run_python("-c", RUN_CLI_AND_LIST_MODULES, *argv)
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_leaves_the_stamp_modules_unloaded():
    done = run_python("-c", "import sys, modelfacts.cli; "
                            "print(sorted({'hashlib', 'datetime'} & set(sys.modules)))")
    assert (done.returncode, done.stdout) == (0, "[]\n")
    assert modules_loaded_by("--version") == (
        0, ["modelfacts", "modelfacts.cli", "modelfacts.errors"])


@pytest.mark.parametrize("args, unloaded", [
    (["compare", "{void}", "{suicide}"], {"ingest", "assemble", "render"}),
    (["audit", "{void}", "--reference", "{reference}"], {"ingest", "assemble", "render"}),
    (["render", "{void}", "--format", "text"], {"ingest", "assemble", "metrics", "report"}),
    (["validate", "{suicide}"], {"ingest", "assemble", "report"}),
], ids=["compare", "audit", "render", "validate"])
def test_a_command_on_labels_leaves_the_assembly_path_unloaded(reference_file, args, unloaded):
    paths = {"void": str(GOLDEN_DIR / "void.label.json"),
             "suicide": str(GOLDEN_DIR / "suicide_risk.label.json"), "reference": reference_file}
    code, loaded = modules_loaded_by(*[a.format(**paths) for a in args])
    assert code == 0
    assert not {f"modelfacts.{name}" for name in unloaded} & set(loaded)


@pytest.mark.parametrize("args", [
    ["generate", "--data", str(GOLDEN_DIR / "length_of_stay.csv"),
     "--manifest", str(GOLDEN_DIR / "length_of_stay.manifest.json")],
    ["declare", "--manifest", VOID_MANIFEST],
], ids=["generate", "declare"])
def test_writing_a_label_leaves_render_unloaded(tmp_path, args):
    """A label is written as canonical JSON by the codec; the renderers are not compiled."""
    code, loaded = modules_loaded_by(*args, "-o", str(tmp_path / "label.json"))
    assert code == 0
    assert "modelfacts.codec" in loaded
    assert "modelfacts.render" not in loaded


@pytest.mark.parametrize("args", [
    ["compare", "a.json", "b.json"],
    ["audit", "a.json", "--reference", "r.json", "--threshold-pp", "5"],
], ids=["compare", "audit"])
def test_an_internal_error_while_parsing_arguments_exits_3(args):
    """A module that fails to import in an argument check is an internal error, not a traceback."""
    done = run_python("-c", "import sys\n"
                            "sys.modules['modelfacts.report'] = None\n"
                            "from modelfacts.cli import main\n"
                            "sys.exit(main(sys.argv[1:]))", *args)
    assert done.returncode == 3
    assert "internal error: " in done.stderr and "Traceback" not in done.stderr


# Every public name of the package root, by the module that defines it.
PUBLIC_NAMES = {
    "assemble": ["build_declared_label", "generate_label"],
    "errors": ["ModelFactsError", "SchemaError"],
    "ingest": ["LabelManifest", "load_label_manifest", "load_predictions",
               "parse_label_manifest", "parse_predictions"],
    "label": ["SCHEMA_VERSION", "ApplicationInfo", "AccuracySection", "CompletenessReport",
              "DatasetInfo", "DateRange", "DemographicCategory", "DemographicGroupRow",
              "MeanStd", "MetricValue", "ModelFactsLabel", "ModelType", "PartialDate",
              "PctTarget", "Provenance", "ProvenanceState", "Violation", "ViolationCode",
              "bucket_age", "completeness", "validate_label"],
    "metrics": ["ConfusionCounts", "Direction", "PredictionDataset", "PredictionRecord", "auc",
                "group_breakdown", "majority_class_baseline", "metric_direction",
                "percent_over_baseline", "precision_recall_f1", "select_standard_metric",
                "standard_accuracy"],
    "codec": ["from_canonical_json", "to_canonical_json"],
    "render": ["RenderBudget", "render_html", "render_text"],
    "report": ["AuditEntry", "AuditReport", "ComparisonEntry", "ComparisonReport",
               "ReferencePopulation", "compare_labels", "load_reference_population",
               "load_reference_population_file", "representation_audit"],
}


def test_an_unexpected_exception_in_a_command_exits_3(monkeypatch, capsys):
    from modelfacts import assemble

    def fail(manifest):
        raise KeyError("boom")

    monkeypatch.setattr(assemble, "build_declared_label", fail)
    assert main(["declare", "--manifest", VOID_MANIFEST]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "internal error: KeyError: 'boom'\n")


def test_the_package_root_resolves_a_name_through_its_table(monkeypatch):
    import modelfacts
    from modelfacts import metrics

    monkeypatch.delitem(vars(modelfacts), "auc", raising=False)  # not yet resolved
    assert "auc" in dir(modelfacts) and "no_such_name" not in dir(modelfacts)
    assert modelfacts.auc is metrics.auc
    assert vars(modelfacts)["auc"] is metrics.auc  # kept for the next lookup
    with pytest.raises(AttributeError) as err:
        modelfacts.no_such_name
    assert str(err.value) == "module 'modelfacts' has no attribute 'no_such_name'"
    assert sorted(set(modelfacts.__all__)) == sorted(modelfacts.__all__)
    assert set(modelfacts.__all__) <= set(dir(modelfacts))


def test_the_package_root_resolves_its_names_on_first_use():
    script = """\
import importlib, json, sys
import modelfacts

facts = {"loaded": sorted(m for m in sys.modules if m.startswith("modelfacts.")),
         "all": modelfacts.__all__, "dir": dir(modelfacts)}
from modelfacts import render  # not yet loaded: the import system, not the table, finds it
facts["render"] = render.__name__
# Each name has one home: the canonical JSON functions live in codec alone.
facts["reexported"] = [hasattr(render, name)
                       for name in ("from_canonical_json", "to_canonical_json")]
facts["reexported"] += [hasattr(importlib.import_module("modelfacts.ingest"), "PredictionRecord")]
try:
    modelfacts.no_such_name
except AttributeError as exc:
    facts["unknown"] = str(exc)
facts["mismatched"] = [
    name for module, names in json.loads(sys.argv[1]).items() for name in names
    if getattr(modelfacts, name)
    is not getattr(importlib.import_module(f"modelfacts.{module}"), name)]
print(json.dumps(facts))
"""
    done = run_python("-c", script, json.dumps(PUBLIC_NAMES))
    assert done.returncode == 0, done.stderr
    facts = json.loads(done.stdout)
    names = [name for names in PUBLIC_NAMES.values() for name in names]
    assert len(names) == 56
    assert facts["loaded"] == []
    assert sorted(facts["all"]) == sorted(names)
    assert set(names) <= set(facts["dir"])
    assert "no_such_name" in facts["unknown"]
    assert facts["mismatched"] == []
    assert facts["render"] == "modelfacts.render"
    assert facts["reexported"] == [False, False, False]


def test_generate_reproduces_the_regression_golden(tmp_path):
    out = tmp_path / "length_of_stay.label.json"
    assert main(["generate", "--data", str(GOLDEN_DIR / "length_of_stay.csv"), "--manifest",
                 str(GOLDEN_DIR / "length_of_stay.manifest.json"), "-o", str(out)]) == 0
    assert out.read_bytes() == read_golden("length_of_stay.label.json")


def test_a_site_predicted_in_reverse_validates_clean(tmp_path, capsys):
    """An honestly computed negative group R2 is not out of range: R2 lies in (-inf, 1]."""
    header, *rows = (GOLDEN_DIR / "length_of_stay.csv").read_text(encoding="utf-8").splitlines()
    cells = [row.split(",") for row in rows]
    truths = [float(c[1]) for c in cells if c[4] == "S02"]
    mean = sum(truths) / len(truths)
    for c in cells:
        if c[4] == "S02":  # the truth mirrored about the site's mean: an R2 of about -3
            c[2] = f"{2 * mean - float(c[1]):.2f}"
    reversed_rows = [",".join(c) for c in cells]
    (tmp_path / "reversed.csv").write_text("\n".join([header, *reversed_rows]) + "\n")
    label = tmp_path / "label.json"
    assert main(["generate", "--data", str(tmp_path / "reversed.csv"), "--manifest",
                 str(GOLDEN_DIR / "length_of_stay.manifest.json"), "-o", str(label)]) == 0
    site = next(category for category in from_canonical_json(label.read_bytes()).demographics
                if category.category_name == "Site")
    assert next(r for r in site.rows if r.group_name == "S02").group_accuracy.value < -2.9
    capsys.readouterr()
    assert main(["validate", str(label), "--json"]) == 0
    assert strict_json(capsys.readouterr().out) == {"ok": True, "violations": []}


class TestValidate:
    def test_clean_label_exits_0(self, tmp_path, capsys):
        path = write_label(tmp_path / "ok.json", make_label())
        assert main(["validate", path]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_overlong_application_exits_1(self, tmp_path, capsys):
        label = make_label(application="Predicts risk. Also ranks people.")
        path = write_label(tmp_path / "overlong.json", label)
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "APPLICATION_TOO_LONG" in out

    def test_json_output(self, tmp_path, capsys):
        label = make_label(application="Predicts risk. Also ranks people.")
        path = write_label(tmp_path / "overlong.json", label)
        assert main(["validate", path, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["violations"][0]["code"] == "APPLICATION_TOO_LONG"

    def test_budget_flags(self, tmp_path, capsys):
        path = write_label(tmp_path / "ok.json", make_label())
        assert main(["validate", path, "--max-lines", "24", "--width", "64"]) == 1
        assert "PAGE_OVERFLOW" in capsys.readouterr().out

    def test_malformed_label_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["validate", str(bad)]) == 2
        assert "SCHEMA_ERROR" in capsys.readouterr().err


class TestCompare:
    def test_compare_goldens(self, capsys):
        assert main(["compare", str(GOLDEN_DIR / "void.label.json"),
                     str(GOLDEN_DIR / "suicide_risk.label.json")]) == 0
        out = capsys.readouterr().out
        assert out.index("void.label.json") < out.index("suicide_risk.label.json")
        assert "caveat:" in out

    def test_compare_json(self, capsys):
        assert main(["compare", "--json", str(GOLDEN_DIR / "void.label.json"),
                     str(GOLDEN_DIR / "suicide_risk.label.json")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [Path(p).name for p in doc["ranking"]] == [
            "void.label.json", "suicide_risk.label.json"]
        assert doc["entries"][0]["optimized"]["raw_score"]["value"] == 0.939

    @pytest.mark.parametrize("copies", [(), ("Modèle ünïcode-标签.label.json",)],
                             ids=["goldens", "non-ascii-identifier"])
    def test_compare_json_is_the_report_as_one_json_text(self, tmp_path, capsys, copies):
        """Written an entry at a time, the output is the bytes of one json.dumps of the report."""
        from modelfacts.codec import encode_metric
        from modelfacts.report import compare_labels

        paths = [str(GOLDEN_DIR / "void.label.json"), str(GOLDEN_DIR / "suicide_risk.label.json")]
        for name in copies:
            (tmp_path / name).write_bytes(read_golden("void.label.json"))
            paths.append(str(tmp_path / name))
        report = compare_labels((p, from_canonical_json(Path(p).read_bytes())) for p in paths)
        expected = json.dumps({
            "entries": [{"identifier": e.identifier, "optimized": encode_metric(e.optimized),
                         "standard": encode_metric(e.standard), "completeness": e.completeness}
                        for e in report.entries],
            "ranking": list(report.ranking),
            "caveats": list(report.caveats),
        }, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"
        assert main(["compare", "--json", *paths]) == 0
        assert capsys.readouterr().out == expected


def test_compare_holds_at_most_one_earlier_label(tmp_path, monkeypatch, capsys):
    from modelfacts import cli

    goldens = ("void.label.json", "suicide_risk.label.json")
    paths = []
    for i in range(8):
        path = tmp_path / f"{i}-{goldens[i % 2]}"
        path.write_bytes(read_golden(goldens[i % 2]))
        paths.append(str(path))
    alive_at_load = []  # per file, how many labels loaded before it are still alive
    loaded = []
    load_label = cli._load_label

    def load(path):
        alive_at_load.append(sum(ref() is not None for ref in loaded))
        label = load_label(path)
        loaded.append(weakref.ref(label))
        return label

    monkeypatch.setattr(cli, "_load_label", load)
    assert main(["compare", "--json", *paths]) == 0
    assert len(json.loads(capsys.readouterr().out)["ranking"]) == len(paths)
    assert max(alive_at_load) <= 1, alive_at_load


class TestAudit:
    def test_void_audit_unauditable(self, reference_file, capsys):
        assert main(["audit", str(GOLDEN_DIR / "void.label.json"),
                     "--reference", reference_file]) == 0
        out = capsys.readouterr().out
        assert "unauditable" in out
        assert "0 group(s) flagged" in out

    @pytest.mark.parametrize("shares, accuracies, error", [
        ({"Female": -1.7e308, "Male": 1.7e308, "Nonbinary": 100}, (0.8, 0.6),
         "SCHEMA_ERROR: at 'categories.Gender.Female'"),
        ({"Female": 60.0, "Male": 40.0}, (1.7e308, -1.7e308), "NUMERIC_OVERFLOW"),
        ({"Female": 60.0, "Male": 40.0}, (1.7e308, 0.0), None),
    ], ids=["reference-share-overflow", "accuracy-spread-overflow", "largest-spread"])
    def test_audit_json_prints_only_finite_numbers(self, tmp_path, capsys, shares, accuracies,
                                                    error):
        from test_assemble import label_with_gender_shares

        # Female's share of 1.7e308 against a reference share of -1.7e308 is an
        # infinite gap, unless the reference is refused.
        label = label_with_gender_shares(1.7e308, *accuracies)
        reference = tmp_path / "reference.json"
        reference.write_text(json.dumps({"name": "x", "categories": {"Gender": shares}}))
        code = main(["audit", write_label(tmp_path / "label.json", label), "--json",
                     "--reference", str(reference)])
        captured = capsys.readouterr()
        if error is None:
            assert code == 0
            assert strict_json(captured.out)["disparity"]["Gender"] == 1.7e308
        else:
            assert (code, captured.out) == (2, "")
            assert f"error: {error}" in captured.err

    def test_strict_flags_exit_1(self, tmp_path, reference_file, capsys):
        from test_assemble import label_with_gender_shares

        path = write_label(tmp_path / "gap.json", label_with_gender_shares(60.0))
        assert main(["audit", path, "--reference", reference_file, "--strict"]) == 1
        out = capsys.readouterr().out
        assert "FLAG" in out or "flagged" in out

    def test_threshold_override(self, tmp_path, reference_file, capsys):
        from test_assemble import label_with_gender_shares

        path = write_label(tmp_path / "gap.json", label_with_gender_shares(60.0))
        assert main(["audit", path, "--reference", reference_file,
                     "--threshold-pp", "15", "--strict"]) == 0

    def test_audit_json(self, tmp_path, reference_file, capsys):
        from test_assemble import label_with_gender_shares

        path = write_label(tmp_path / "gap.json", label_with_gender_shares(60.0))
        assert main(["audit", path, "--reference", reference_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        female = next(e for e in doc["entries"] if e["group"] == "Female")
        assert female["gap_pp"] == pytest.approx(10.0)
        assert female["flagged"] is True
        # Male sits at 40% against a 48% reference, so it is flagged too
        assert doc["flag_count"] == 2

    def test_non_finite_reference_share_exits_2(self, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        ref.write_text('{"name": "x", "categories": {"Gender": {"Female": NaN, "Male": 100}}}')
        assert main(["audit", str(GOLDEN_DIR / "void.label.json"),
                     "--reference", str(ref)]) == 2
        assert "error: SCHEMA_ERROR" in capsys.readouterr().err

    def test_no_overlap_exits_2(self, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({"name": "x", "categories": {"Creed": {"A": 100.0}}}))
        assert main(["audit", str(GOLDEN_DIR / "void.label.json"),
                     "--reference", str(ref)]) == 2
        assert "NO_OVERLAP" in capsys.readouterr().err


# The CLI property: every command, on the goldens with one fault, ends in exit 0, 1 or 2.
GOLDEN_LABELS = ("void.label.json", "suicide_risk.label.json", "length_of_stay.label.json")
GOLDEN_MANIFESTS = ("void.manifest.json", "suicide_risk.manifest.json",
                    "length_of_stay.manifest.json")
REFERENCE = json.dumps({"name": "urban", "categories": {
    "Gender": {"Female": 50.0, "Male": 48.0, "Nonbinary": 1.0, "Other": 1.0},
    "Race": {"White": 60.0, "Black": 20.0, "Asian": 10.0, "Other": 10.0}}}).encode()


def json_nodes(value, path=()):
    """The path of every node of a parsed JSON document, the document itself first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from json_nodes(child, (*path, key))


@st.composite
def faulty(draw, data: bytes, is_csv: bool) -> bytes:
    """data with one fault: a JSON node replaced by another JSON value (a JSON file), a
    blank or garbled cell (a CSV file), a flipped or dropped byte, a truncation, or a byte
    that is not UTF-8."""
    kind = draw(st.sampled_from(["cell" if is_csv else "node", "flip", "drop", "truncate",
                                 "not utf-8"]))
    at = draw(st.integers(0, len(data) - 1))
    if kind == "node":
        doc = json.loads(data)
        path = draw(st.sampled_from(list(json_nodes(doc))))
        if not path:
            return json.dumps(draw(json_values)).encode()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]  # half the time a value of its own kind, to reach past the shape
        alike = (st.text(max_size=90) if isinstance(old, str) else
                 st.floats() | st.integers() if isinstance(old, (int, float)) else json_values)
        parent[path[-1]] = draw(st.one_of(json_values, alike))
        return json.dumps(doc).encode()  # NaN and the infinities as json writes them
    if kind == "cell":
        rows = [row.split(",") for row in data.decode("utf-8").split("\n")]
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.sampled_from(["", " ", "nan", "inf", "-1e309", "1e308", '"']) | st.text(max_size=6))
        return "\n".join(map(",".join, rows)).encode("utf-8")
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if kind == "drop":
        return data[:at] + data[at + 1:]
    if kind == "truncate":
        return data[:at]
    return data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]


@st.composite
def cli_runs(draw) -> tuple[list[str], dict[str, bytes]]:
    """A command's arguments, naming its input files by file name, and those files: the
    goldens (and a reference population for audit), one of them with one fault."""
    command = draw(st.sampled_from(["generate", "declare", "validate", "render", "compare",
                                    "audit"]))
    label = lambda: read_golden(draw(st.sampled_from(GOLDEN_LABELS)))  # noqa: E731
    if command == "generate":
        files = {"data.csv": read_golden("length_of_stay.csv"),
                 "manifest.json": read_golden("length_of_stay.manifest.json")}
        args = ["--data", "data.csv", "--manifest", "manifest.json"]
    elif command == "declare":
        files = {"manifest.json": read_golden(draw(st.sampled_from(GOLDEN_MANIFESTS)))}
        args = ["--manifest", "manifest.json"]
    else:
        files, args = {"label.json": label()}, ["label.json"]
        if command == "validate":
            args += draw(st.sampled_from([[], ["--width", "48"], ["--max-lines", "40"]]))
        elif command == "render":
            args += ["--format", draw(st.sampled_from(["text", "html"]))]
        elif command == "compare":
            files.update({f"label{i}.json": label() for i in range(draw(st.integers(0, 2)))})
            args = sorted(files)
        else:
            files["reference.json"] = REFERENCE
            args += ["--reference", "reference.json"]
            args += ["--strict"] if draw(st.booleans()) else []
    if command in ("generate", "declare") and draw(st.booleans()):
        args += ["-o", "out.json", *(["--stamp"] if draw(st.booleans()) else [])]
    if command in ("validate", "compare", "audit") and draw(st.booleans()):
        args.append("--json")
    name = draw(st.sampled_from(sorted(files)))
    files[name] = draw(faulty(files[name], name.endswith(".csv")))
    return [command, *args], files


def run_main(argv: list[str]) -> tuple[int, bytes, str]:
    """main(argv) in process: its exit code, standard output bytes and standard error."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


# `pytest --hypothesis-profile=deep` runs this property with the profile's example count.
@settings(max_examples=max(200, settings.default.max_examples), deadline=None,
          derandomize=True)
@given(run=cli_runs())
def test_every_command_on_a_faulty_golden_exits_0_1_or_2(run):
    argv, files = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            Path(tmp, name).write_bytes(data)
        code, out, err = run_main([str(Path(tmp, a)) if a in files or a == "out.json" else a
                                   for a in argv])
    assert code in (0, 1, 2), err
    assert "internal error" not in err
    if code == 2:
        assert re.search(r"^error: [A-Z][A-Z_]+: ", err, re.M) or err.startswith("usage: "), err
    if "--json" in argv and out:
        strict_json(out.decode("utf-8"))
