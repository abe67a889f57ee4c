"""Label assembly from datasets/manifests, comparison, and audits."""

from __future__ import annotations

import copy
import io
import itertools
import json
import random
import sys

import pytest

from conftest import GOLDEN_DIR, make_label, canonical_category, read_golden
from modelfacts import assemble
from modelfacts.assemble import build_declared_label, generate_label
from modelfacts.errors import (BadArgumentError, DeclaredConflictError, NoOverlapError,
                               NumericOverflowError, SchemaError, UnknownMetricError)
from modelfacts.ingest import (PredictionDataset, PredictionRecord, parse_label_manifest,
                              parse_predictions)
from modelfacts.label import (
    CANONICAL_CATEGORY_ORDER,
    LABEL_CELLS,
    ROW_CELLS,
    DemographicCategory,
    DemographicGroupRow,
    MeanStd,
    PctTarget,
    Provenance,
    ProvenanceState,
    ViolationCode,
    iter_provenance_cells,
    validate_label,
)
from modelfacts.metrics import percent_over_baseline
from modelfacts.render import from_canonical_json, render_text
from modelfacts.report import (ReferencePopulation, compare_labels, load_reference_population,
                               representation_audit)


TEN_ROW_CSV = (
    "id,y_true,y_pred,gender\n"
    "f1,1,1,Female\nf2,1,0,Female\nf3,0,0,Female\nf4,0,0,Female\n"
    "f5,0,0,Female\nf6,0,1,Female\n"
    "m1,1,0,Male\nm2,0,0,Male\nm3,0,0,Male\nm4,0,1,Male\n"
)


REGRESSION_CSV = "id,y_true,y_pred\na,1.0,1.5\nb,2.0,2.0\nc,3.0,2.5\n"


def manifest_doc(**overrides) -> dict:
    doc = {
        "schema_version": "1.0",
        "application": "Flags intake cases for a second review",
        "model_type": "imbalanced_classification",
        "model_train_date": "2020",
        "test_data_range": "2021",
        "positive_class": "1",
        "optimized_metric": {"name": "Accuracy"},
        "warnings": ["Synthetic example only."],
    }
    doc.update(overrides)
    return doc


def build(csv_text: str, doc: dict):
    manifest = parse_label_manifest(json.dumps(doc))
    dataset = parse_predictions(io.StringIO(csv_text), manifest)
    return generate_label(dataset, manifest)


class TestGenerateLabel:
    def test_hand_counted_gender_stats(self):
        label = build(TEN_ROW_CSV, manifest_doc())
        assert label.accuracy.optimized.raw_score.value == pytest.approx(0.6)
        gender = label.category("Gender")
        rows = {r.group_name: r for r in gender.rows}
        assert rows["Female"].pct_in_test.value == pytest.approx(60.0)
        assert rows["Female"].group_accuracy.value == pytest.approx(0.6667, abs=1e-4)
        assert rows["Female"].target_stat.value.pct == pytest.approx(33.3333, abs=1e-3)
        assert rows["Male"].pct_in_test.value == pytest.approx(40.0)
        assert rows["Male"].group_accuracy.value == pytest.approx(0.5)
        assert rows["Male"].target_stat.value.pct == pytest.approx(25.0)

    def test_standard_f1_computed(self):
        label = build(TEN_ROW_CSV, manifest_doc())
        assert label.accuracy.standard.name == "F1"
        # tp=1, fp=2, fn=2 -> precision=recall=1/3
        assert label.accuracy.standard.raw_score.value == pytest.approx(1 / 3)

    def test_no_demographic_columns_gives_not_collected_canon(self):
        csv_text = "id,y_true,y_pred\na,1,1\nb,0,0\nc,1,0\nd,0,1\n"
        label = build(csv_text, manifest_doc())
        assert [c.category_name for c in label.demographics] == list(CANONICAL_CATEGORY_ORDER)
        rows = [row for cat in label.demographics for row in cat.rows]
        assert len(rows) == 16
        assert all(row.pct_in_test.state is ProvenanceState.NOT_COLLECTED for row in rows)

    def test_declared_conflict(self):
        csv_text = "id,y_true,y_pred\na,1,1\nb,0,0\nc,1,0\nd,0,0\n"  # accuracy 0.75
        doc = manifest_doc(optimized_metric={"name": "Accuracy", "raw": 0.9})
        with pytest.raises(DeclaredConflictError):
            build(csv_text, doc)

    @pytest.mark.parametrize("section", ["optimized_metric", "standard_metric"])
    def test_majority_class_percent_must_agree_with_its_declaration(self, section):
        csv_text = "id,y_true,y_pred\na,1,1\nb,0,0\nc,1,1\nd,0,1\n"  # 0.75 over 0.5: 50%
        doc = manifest_doc(model_type="balanced_classification", optimized_metric={
            "name": "Accuracy", "baseline_policy": "majority-class"})
        doc.setdefault(section, {})["pct_over_baseline"] = 99.0
        with pytest.raises(DeclaredConflictError) as err:
            build(csv_text, doc)
        assert err.value.message.startswith(f"{section}.pct_over_baseline: declared 99.0 ")
        doc[section]["pct_over_baseline"] = 50.0
        assert build(csv_text, doc).accuracy.optimized.pct_over_baseline.value == 50.0

    def test_demographic_conflict_names_its_manifest_path(self):
        doc = manifest_doc(demographics={"Gender": {"state": "not_collected", "rows": {
            "Female": {"pct_in_test": 40.0}}}})  # TEN_ROW_CSV is 60% Female
        with pytest.raises(DeclaredConflictError) as err:
            build(TEN_ROW_CSV, doc)
        assert err.value.path == "demographics.Gender.rows.Female.pct_in_test"
        assert (err.value.declared, err.value.computed) == (40.0, 60.0)
        assert err.value.message.startswith("demographics.Gender.rows.Female.pct_in_test: ")
        doc["demographics"]["Gender"]["rows"]["Female"]["pct_in_test"] = 60.0
        assert build(TEN_ROW_CSV, doc).category("Gender").rows[0].pct_in_test.value == 60.0

    @pytest.mark.parametrize("model_type, metric, positive_class", [
        ("imbalanced_classification", "Accuracy", None), ("regression", "R2", "1")])
    def test_a_dataset_must_fit_the_manifests_model_type(self, model_type, metric, positive_class):
        # A regression dataset has no positive class and a classification one has one, as
        # ingest builds them; a group's target then has the shape the manifest declares.
        manifest = parse_label_manifest(json.dumps(manifest_doc(
            model_type=model_type, optimized_metric={"name": metric})))
        records = [PredictionRecord(str(i), float(i % 2), 1.0) for i in range(4)]
        with pytest.raises(BadArgumentError):
            generate_label(PredictionDataset(records, positive_class, ()), manifest)

    def test_declared_match_is_accepted(self):
        csv_text = "id,y_true,y_pred\na,1,1\nb,0,0\nc,1,0\nd,0,0\n"
        doc = manifest_doc(optimized_metric={"name": "Accuracy", "raw": 0.75})
        label = build(csv_text, doc)
        assert label.accuracy.optimized.raw_score.value == 0.75

    def test_explicit_baseline_computes_pct(self):
        doc = manifest_doc(optimized_metric={"name": "Accuracy", "baseline": 0.5})
        label = build(TEN_ROW_CSV, doc)
        assert label.accuracy.optimized.pct_over_baseline.value == pytest.approx(20.0)

    def test_majority_class_policy(self):
        doc = manifest_doc(
            optimized_metric={"name": "Accuracy", "baseline_policy": "majority-class"})
        label = build(TEN_ROW_CSV, doc)
        # majority share is 0.7; computed accuracy 0.6 -> about -14.3%
        assert label.accuracy.optimized.pct_over_baseline.value == pytest.approx(-14.2857, abs=1e-3)

    def test_zero_majority_baseline_leaves_pct_to_declaration(self):
        # The majority is negative, so the naive model's F1 is 0 and no percent
        # over it exists, for the optimized and the standard metric alike.
        doc = manifest_doc(optimized_metric={"name": "F1", "baseline_policy": "majority-class"})
        label = build(TEN_ROW_CSV, doc)
        assert label.accuracy.optimized.raw_score.value == pytest.approx(1 / 3)
        for mv in (label.accuracy.optimized, label.accuracy.standard):
            assert mv.pct_over_baseline.state is ProvenanceState.NOT_COLLECTED
        doc["optimized_metric"]["pct_over_baseline"] = {"state": "unknown_availability"}
        doc["standard_metric"] = {"pct_over_baseline": 12.5}
        label = build(TEN_ROW_CSV, doc)
        assert (label.accuracy.optimized.pct_over_baseline.state
                is ProvenanceState.UNKNOWN_AVAILABILITY)
        assert label.accuracy.standard.pct_over_baseline == Provenance.reported(12.5)

    @pytest.mark.parametrize("model_type, optimized, standard, csv_text", [
        ("regression", "F1", None, REGRESSION_CSV),
        ("regression", "R2", "Accuracy", REGRESSION_CSV),
        ("imbalanced_classification", "R2", None, TEN_ROW_CSV),
        ("balanced_classification", "Accuracy", "r-2", TEN_ROW_CSV),
        ("balanced_classification", "MSE", None, TEN_ROW_CSV),
        ("regression", "R2", "AUC", REGRESSION_CSV),
    ], ids=["f1-on-regression", "accuracy-standard-on-regression", "r2-on-classification",
            "r2-standard-on-classification", "mse-on-classification",
            "auc-standard-on-regression"])
    def test_computed_metric_must_fit_model_type(self, model_type, optimized, standard, csv_text):
        doc = manifest_doc(model_type=model_type, optimized_metric={"name": optimized})
        if standard is not None:
            doc["standard_metric"] = {"name": standard}
        with pytest.raises(UnknownMetricError) as err:
            build(csv_text, doc)
        assert "does not apply" in err.value.message

    @pytest.mark.parametrize("declared, expected", [
        ({}, Provenance.not_collected()),
        ({"raw": 0.8}, Provenance.reported(0.8)),
        ({"raw": {"state": "unknown_availability"}}, Provenance.unknown_availability()),
        ({"name": "Precision"}, Provenance.not_collected()),
        ({"name": "Precision", "raw": 0.8}, Provenance.reported(0.8)),
    ])
    def test_standard_metric_without_its_column_falls_back(self, declared, expected):
        # TEN_ROW_CSV has y_pred but no score column, which AUC is scored from;
        # Precision has no scorer, so its y_pred column does not matter.
        standard = {"name": "AUC", **declared}
        label = build(TEN_ROW_CSV, manifest_doc(standard_metric=standard))
        assert label.accuracy.standard.name == standard["name"]
        assert label.accuracy.standard.raw_score == expected
        assert label.accuracy.standard.pct_over_baseline == Provenance.not_collected()

    @pytest.mark.parametrize("csv_text", [
        "id,y_true,score\na,1,0.9\nb,0,0.2\n",
        "id,y_true,y_pred,score\na,1,1,0.9\nb,0,0,0.2\n",
    ], ids=["without-y_pred", "with-y_pred"])
    def test_unknown_standard_metric_is_an_error_whatever_the_columns(self, csv_text):
        doc = manifest_doc(optimized_metric={"name": "AUC"}, standard_metric={"name": "Kappa"})
        with pytest.raises(UnknownMetricError) as err:
            build(csv_text, doc)
        assert "no scorer" in err.value.message

    def test_declared_cells_fill_missing_category(self):
        doc = manifest_doc(demographics={"Race": {"state": "available_unreported"}})
        label = build(TEN_ROW_CSV, doc)
        race = label.category("Race")
        assert all(row.pct_in_test.state is ProvenanceState.AVAILABLE_UNREPORTED
                   for row in race.rows)
        age = label.category("Age")
        assert all(row.pct_in_test.state is ProvenanceState.NOT_COLLECTED for row in age.rows)

    def test_splits_come_from_manifest(self):
        doc = manifest_doc(dataset={"count": 5000, "train_pct": 80.0, "test_pct": 20.0})
        label = build(TEN_ROW_CSV, doc)
        assert label.dataset.sample_count.value == 5000
        assert label.dataset.train_pct.value == 80.0

    def test_defaults_without_dataset_section(self):
        label = build(TEN_ROW_CSV, manifest_doc())
        assert label.dataset.sample_count.value == 10
        assert label.dataset.train_pct.state is ProvenanceState.NOT_COLLECTED

    def test_generated_label_validates_clean(self):
        label = build(TEN_ROW_CSV, manifest_doc())
        assert validate_label(label) == []

    def test_reported_shares_sum_to_100(self):
        rng = random.Random(17)
        lines = ["id,y_true,y_pred,race"]
        for i in range(200):
            lines.append(f"r{i},{rng.randint(0, 1)},{rng.randint(0, 1)},"
                         f"{rng.choice(['Asian', 'Black', 'White', 'Hispanic', 'x'])}")
        label = build("\n".join(lines) + "\n", manifest_doc())
        race = label.category("Race")
        total = sum(row.pct_in_test.value for row in race.rows if row.pct_in_test.is_reported)
        assert total == pytest.approx(100.0, abs=0.1)


def count_cell_calls(monkeypatch) -> list:
    """Wrap assemble._cell; the returned list gains one entry per call."""
    calls = []
    cell = assemble._cell

    def counted(*args, **kwargs):
        calls.append(args[2])
        return cell(*args, **kwargs)

    monkeypatch.setattr(assemble, "_cell", counted)
    return calls


def row_count(label) -> int:
    return sum(len(category.rows) for category in label.demographics)


def test_every_cell_of_a_generated_label_goes_through_cell(monkeypatch):
    calls = count_cell_calls(monkeypatch)
    label = build(TEN_ROW_CSV, manifest_doc())  # no declared demographics
    assert row_count(label) == 16
    assert len(calls) == 7 + 3 * 16
    assert calls[7:] == list(ROW_CELLS) * 16


@pytest.mark.parametrize("name", ["void", "suicide_risk"])
def test_every_cell_of_a_declared_label_goes_through_cell(monkeypatch, name):
    manifest = parse_label_manifest((GOLDEN_DIR / f"{name}.manifest.json").read_text())
    calls = count_cell_calls(monkeypatch)
    label = build_declared_label(manifest)
    assert len(calls) == 7 + 3 * row_count(label)
    assert calls[7:] == list(ROW_CELLS) * row_count(label)


class TestBuildDeclaredLabel:
    def test_void_matches_golden_render(self):
        manifest = parse_label_manifest((GOLDEN_DIR / "void.manifest.json").read_text())
        label = build_declared_label(manifest)
        assert render_text(label) == read_golden("void.label.txt").decode()

    def test_mismatched_standard_name_still_declares(self):
        doc = json.loads((GOLDEN_DIR / "void.manifest.json").read_text())
        doc["standard_metric"]["name"] = "R2"
        label = build_declared_label(parse_label_manifest(json.dumps(doc)))
        assert [v.code for v in validate_label(label)] == [ViolationCode.STANDARD_METRIC_MISMATCH]

    def test_standard_name_defaults_to_the_model_types_mandate(self):
        manifest = parse_label_manifest((GOLDEN_DIR / "void.manifest.json").read_text())
        assert manifest.standard_name is None and manifest.standard_metric_name == "F1"
        assert build_declared_label(manifest).accuracy.standard.name == "F1"

    def test_suicide_risk_matches_golden_render(self):
        manifest = parse_label_manifest((GOLDEN_DIR / "suicide_risk.manifest.json").read_text())
        label = build_declared_label(manifest)
        assert render_text(label) == read_golden("suicide_risk.label.txt").decode()

    def test_missing_dataset_section(self):
        doc = json.loads((GOLDEN_DIR / "void.manifest.json").read_text())
        doc.pop("dataset")
        with pytest.raises(SchemaError) as err:
            build_declared_label(parse_label_manifest(doc))
        assert "dataset" in err.value.path

    @pytest.mark.parametrize("path", [
        "optimized_metric.raw", "optimized_metric.pct_over_baseline", "standard_metric.raw",
        "standard_metric.pct_over_baseline", "dataset.count", "dataset.train_pct",
        "dataset.test_pct", "demographics.Race"])
    def test_missing_cell_is_an_error_at_its_manifest_path(self, path):
        doc = json.loads((GOLDEN_DIR / "void.manifest.json").read_text())
        section, key = path.split(".")
        doc[section].pop(key)
        with pytest.raises(SchemaError) as err:
            build_declared_label(parse_label_manifest(doc))
        assert err.value.path == path

    def test_missing_canonical_category(self):
        doc = json.loads((GOLDEN_DIR / "void.manifest.json").read_text())
        doc["demographics"].pop("Age")
        with pytest.raises(SchemaError) as err:
            build_declared_label(parse_label_manifest(doc))
        assert "Age" in err.value.path

    def test_missing_warnings_is_a_parse_error(self):
        doc = json.loads((GOLDEN_DIR / "void.manifest.json").read_text())
        doc.pop("warnings")
        with pytest.raises(SchemaError):
            parse_label_manifest(doc)

    def test_declared_baseline_computes_pct(self):
        doc = json.loads((GOLDEN_DIR / "void.manifest.json").read_text())
        doc["optimized_metric"] = {"name": "AUC", "raw": 0.939, "baseline": 0.939 / 1.1}
        label = build_declared_label(parse_label_manifest(doc))
        assert label.accuracy.optimized.pct_over_baseline.value == pytest.approx(10.0, abs=1e-6)

    def test_declared_pct_must_agree_with_the_baseline(self):
        doc = json.loads((GOLDEN_DIR / "void.manifest.json").read_text())
        doc["optimized_metric"] = {"name": "AUC", "raw": 0.939, "baseline": 0.939 / 1.1,
                                   "pct_over_baseline": 50.0}
        with pytest.raises(DeclaredConflictError) as err:
            build_declared_label(parse_label_manifest(doc))
        assert err.value.message.startswith("optimized_metric.pct_over_baseline: declared 50.0 ")
        # A percent that agrees gives way to the computed one, as in a generated label.
        doc["optimized_metric"]["pct_over_baseline"] = 10.0
        label = build_declared_label(parse_label_manifest(doc))
        assert label.accuracy.optimized.pct_over_baseline.value == 10.000000000000009


def _declared_manifests() -> list[tuple[str, dict]]:
    """The declared goldens' manifest documents, then the first seed-1 corpus manifests."""
    sys.path.insert(0, str(GOLDEN_DIR.parents[1] / "perfbench"))
    import gen

    docs = [(name, json.loads((GOLDEN_DIR / f"{name}.manifest.json").read_text()))
            for name in ("void", "suicide_risk")]
    return docs + [(entry.name, entry.manifest) for entry in gen.make_corpus(1, 60)]


def _other_value(kind: str, current, classification: bool):
    """A valid reported value of this codec kind unequal to `current`: (label value, JSON)."""
    if kind == "count":
        value = 1234 if current != 1234 else 4321
        return value, value
    if kind == "number":
        value = 0.625 if current != 0.625 else 0.375
        return value, value
    if classification:
        pct = 12.5 if current != PctTarget(12.5) else 37.5
        return PctTarget(pct), {"pct_target": pct}
    mean = 3.5 if current != MeanStd(3.5, 1.25) else 7.5
    return MeanStd(mean, 1.25), {"mean": mean, "std": 1.25}


_DECLARED_MANIFESTS = _declared_manifests()


@pytest.mark.parametrize("name, doc", _DECLARED_MANIFESTS,
                         ids=[name for name, _ in _DECLARED_MANIFESTS])
def test_a_manifest_cell_sets_the_label_cell_at_the_same_address(name, doc):
    """Each cell's manifest path and label path, as the cell table spells them, are one cell."""
    manifest = parse_label_manifest(json.dumps(doc))
    label = build_declared_label(manifest)
    cells = {path: cell for path, cell, _ in iter_provenance_cells(label)}
    # (label path, where the manifest declares it, its table entry), for every cell.
    addresses = [(spec.label, (*spec.manifest.split("."),), spec) for spec in LABEL_CELLS]
    addresses += [(f"demographics.{category.category_name}.{row.group_name}.{spec.label}",
                   ("demographics", category.category_name, row.group_name, spec.manifest), spec)
                  for category in label.demographics for row in category.rows
                  for spec in ROW_CELLS]
    assert [path for path, _, _ in addresses] == list(cells)

    classification = manifest.model_type.is_classification
    for path, where, spec in addresses:
        value, encoded = _other_value(spec.kind, cells[path].value, classification)
        changed = copy.deepcopy(doc)
        if len(where) == 2:
            changed.setdefault(where[0], {})[where[1]] = encoded
            manifest_path = spec.manifest
        else:
            _, category, group, key = where
            rows = changed["demographics"][category].setdefault("rows", {})
            row = rows.setdefault(group, {})
            if "state" in row:  # a row-wide state becomes one per cell
                rows[group] = row = {cell.manifest: {"state": row["state"]} for cell in ROW_CELLS}
            row[key] = encoded
            manifest_path = spec.manifest_path(category, group)
        expected = {**cells, path: Provenance.reported(value)}
        raw = cells["accuracy.optimized.raw_score"]
        if manifest.baseline is not None and spec.declared == "optimized_pct_over" and raw.is_reported:
            # A percent over an explicit baseline is computed from the raw score.
            with pytest.raises(DeclaredConflictError) as err:
                build_declared_label(parse_label_manifest(json.dumps(changed)))
            assert err.value.path == manifest_path
            continue
        if manifest.baseline is not None and spec.declared == "optimized_raw":
            changed["optimized_metric"].pop("pct_over_baseline", None)
            expected["accuracy.optimized.pct_over_baseline"] = Provenance.reported(
                percent_over_baseline(value, manifest.baseline, manifest.optimized_direction))
        changed_label = build_declared_label(parse_label_manifest(json.dumps(changed)))
        assert {path: cell for path, cell, _ in iter_provenance_cells(changed_label)} == expected, \
            manifest_path


class TestCompareLabels:
    def golden_pair(self):
        void = from_canonical_json(read_golden("void.label.json"))
        suicide = from_canonical_json(read_golden("suicide_risk.label.json"))
        return void, suicide

    def test_golden_ranking_and_caveat(self):
        void, suicide = self.golden_pair()
        report = compare_labels([("void", void), ("suicide-risk", suicide)])
        assert report.ranking == ("void", "suicide-risk")
        assert any("applications differ" in c for c in report.caveats)

    def test_single_label(self):
        void, _ = self.golden_pair()
        report = compare_labels([("void", void)])
        assert report.ranking == ("void",)
        assert report.caveats == ()
        assert report.entries[0].completeness == pytest.approx(4 / 55)

    def test_tie_broken_by_identifier(self):
        label = make_label()
        report = compare_labels([("b", label), ("a", label)])
        assert report.ranking == ("a", "b")
        assert report.caveats == ()

    def test_permutation_invariant(self):
        void, suicide = self.golden_pair()
        one = compare_labels([("void", void), ("suicide-risk", suicide)])
        two = compare_labels([("suicide-risk", suicide), ("void", void)])
        assert one.ranking == two.ranking
        assert set(one.caveats) == set(two.caveats)

    def test_not_reported_ranks_last(self):
        reported = make_label()
        blank = make_label(optimized=reported.accuracy.optimized.__class__(
            "AUC", Provenance.not_collected(), Provenance.not_collected()))
        report = compare_labels([("blank", blank), ("scored", reported)])
        assert report.ranking == ("scored", "blank")

    def test_minimized_metrics_rank_ascending(self):
        from modelfacts.label import MetricValue

        low = make_label(optimized=MetricValue("LogLoss", Provenance.reported(0.3),
                                               Provenance.reported(10.0)))
        high = make_label(optimized=MetricValue("LogLoss", Provenance.reported(0.9),
                                                Provenance.reported(2.0)))
        report = compare_labels([("high", high), ("low", low)])
        assert report.ranking == ("low", "high")

    def test_mixed_directions_caveat(self):
        from modelfacts.label import MetricValue

        extropy = make_label(optimized=MetricValue("LogLoss", Provenance.reported(0.3),
                                                   Provenance.reported(1.0)))
        auc = make_label(optimized=MetricValue("AUC", Provenance.reported(0.9),
                                               Provenance.reported(1.0)))
        report = compare_labels([("a", auc), ("b", extropy)])
        assert any("different directions" in c for c in report.caveats)

    def test_needs_labels(self):
        with pytest.raises(ValueError):
            compare_labels([])

    @pytest.mark.parametrize("labels", [[], [("a", make_label()), ("a", make_label())]],
                             ids=["empty", "repeated-identifier"])
    def test_bad_input_is_a_typed_error(self, labels):
        with pytest.raises(BadArgumentError):
            compare_labels(labels)


def scored_label(name: str, raw):
    from modelfacts.label import MetricValue

    cell = Provenance.not_collected() if raw is None else Provenance.reported(raw)
    return make_label(optimized=MetricValue(name, cell, Provenance.not_collected()))


class TestCompareLabelsReadsOnce:
    def varied_pairs(self):
        void = from_canonical_json(read_golden("void.label.json"))
        suicide = from_canonical_json(read_golden("suicide_risk.label.json"))
        return [("void", void), ("suicide-risk", suicide), ("auc-0.7", scored_label("AUC", 0.7)),
                ("blank", scored_label("AUC", None)), ("logloss", scored_label("LogLoss", 0.2)),
                ("mystery", scored_label("Mystery", 0.8))]

    def test_a_generator_gives_the_report_of_the_list(self):
        pairs = self.varied_pairs()
        assert compare_labels(pair for pair in pairs) == compare_labels(pairs)

    def test_an_empty_generator_is_a_bad_argument(self):
        with pytest.raises(BadArgumentError, match="at least one label"):
            compare_labels(pair for pair in [])

    def test_a_repeat_raises_before_the_next_label_is_read(self):
        pairs = self.varied_pairs()
        pairs.insert(3, ("void", pairs[1][1]))
        read = []

        def stream():
            for pair in pairs:
                read.append(pair[0])
                yield pair

        with pytest.raises(BadArgumentError, match="unique"):
            compare_labels(stream())
        assert read == ["void", "suicide-risk", "auc-0.7", "void"]

    @pytest.mark.parametrize("name, finite_order", [("AUC", ["c", "a"]), ("LogLoss", ["a", "c"])])
    def test_non_finite_scores_rank_last_in_every_input_order(self, name, finite_order):
        # NaN compares false with everything, so ranking it as a score let the input order
        # decide; it ranks with the unreported cells, by identifier, as do the infinities.
        labels = {"a": 0.3, "b": float("nan"), "c": 0.9, "d": None, "e": float("inf"),
                  "f": -float("inf")}
        pairs = [(ident, scored_label(name, raw)) for ident, raw in labels.items()]
        rankings = {compare_labels(order).ranking for order in itertools.permutations(pairs)}
        assert rankings == {(*finite_order, "b", "d", "e", "f")}


def reference(**categories) -> ReferencePopulation:
    return ReferencePopulation(name="test-reference", distributions=categories)


def gender_reference() -> ReferencePopulation:
    return reference(Gender={"Female": 50.0, "Male": 48.0, "Trans Female": 0.6,
                             "Trans Male": 0.6, "Nonbinary": 0.5, "Other": 0.3})


def label_with_gender_shares(female_pct: float, female_accuracy: float = 0.8,
                             other_accuracy: float = 0.6):
    rows = []
    shares = {"Female": female_pct, "Male": 100.0 - female_pct}
    for group in ("Female", "Male", "Trans Female", "Trans Male", "Nonbinary", "Other"):
        share = shares.get(group)
        rows.append(DemographicGroupRow(
            group,
            Provenance.reported(share) if share is not None else Provenance.reported(0.0),
            Provenance.reported(female_accuracy if group == "Female" else other_accuracy),
            Provenance.reported(PctTarget(10.0)),
        ))
    gender = DemographicCategory("Gender", tuple(rows))
    return make_label(demographics=(canonical_category("Race"), gender,
                                    canonical_category("Age")))


class TestRepresentationAudit:
    def test_ten_point_gap_is_flagged(self):
        label = label_with_gender_shares(60.0)
        report = representation_audit(label, gender_reference(), threshold_pp=5.0)
        by_group = {e.group: e for e in report.entries}
        assert by_group["Female"].gap_pp == pytest.approx(10.0)
        assert by_group["Female"].flagged
        assert not by_group["Trans Female"].flagged

    def test_identical_distribution_no_flags(self):
        ref = gender_reference()
        shares = ref.distributions["Gender"]
        rows = tuple(
            DemographicGroupRow(group, Provenance.reported(pct),
                                Provenance.not_collected(), Provenance.not_collected())
            for group, pct in shares.items()
        )
        label = make_label(demographics=(canonical_category("Race"),
                                         DemographicCategory("Gender", rows),
                                         canonical_category("Age")))
        report = representation_audit(label, ref)
        assert report.flagged == ()
        assert all(e.gap_pp == pytest.approx(0.0) for e in report.entries)

    def test_void_label_unauditable_everywhere(self):
        label = from_canonical_json(read_golden("void.label.json"))
        report = representation_audit(label, gender_reference())
        assert report.flagged == ()
        assert all(e.gap_pp is None for e in report.entries)
        assert any("potential for unreported biases" in note for note in report.notes)

    def test_no_overlap(self):
        label = from_canonical_json(read_golden("void.label.json"))
        with pytest.raises(NoOverlapError):
            representation_audit(label, reference(Creed={"A": 60.0, "B": 40.0}))

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0])
    def test_threshold_must_be_finite_and_nonnegative(self, threshold):
        with pytest.raises(BadArgumentError):
            representation_audit(label_with_gender_shares(60.0), gender_reference(),
                                 threshold_pp=threshold)

    def test_threshold_monotone(self):
        label = label_with_gender_shares(60.0)
        ref = gender_reference()
        previous = None
        for threshold in (0.0, 2.0, 5.0, 9.9, 10.1, 50.0):
            flagged = {(e.category, e.group) for e in
                       representation_audit(label, ref, threshold_pp=threshold).flagged}
            if previous is not None:
                assert flagged <= previous
            previous = flagged

    def test_disparity_spread(self):
        label = label_with_gender_shares(60.0)
        report = representation_audit(label, gender_reference())
        assert report.disparity["Gender"] == pytest.approx(0.2)
        assert report.disparity["Race"] is None

    def test_reference_must_sum_to_100(self):
        with pytest.raises(ValueError):
            reference(Gender={"Female": 70.0, "Male": 10.0})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "true"])
    def test_reference_share_must_be_finite(self, literal):
        text = '{"name": "x", "categories": {"Gender": {"Female": %s, "Male": 100}}}' % literal
        with pytest.raises(SchemaError) as err:
            load_reference_population(text)
        assert err.value.path == "categories.Gender.Female"

    @pytest.mark.parametrize("shares, group", [
        ({"Asian": -1.7e308, "Hispanic": 1.7e308, "Black": 100}, "Asian"),
        ({"Asian": 120.0, "Black": -20.0}, "Asian"),
        ({"Asian": 60.0, "Black": 40.0001, "White": -0.0001}, "White"),
    ])
    def test_reference_share_must_lie_in_0_to_100(self, shares, group):
        doc = {"name": "x", "categories": {"Race": shares}}
        with pytest.raises(SchemaError) as err:
            load_reference_population(json.dumps(doc))
        assert err.value.path == f"categories.Race.{group}"
        with pytest.raises(SchemaError) as err:
            reference(Race=shares)
        assert err.value.path == f"categories.Race.{group}"
        doc["categories"]["Race"] = {"Asian": 0, "Black": 100}
        assert load_reference_population(json.dumps(doc)).distributions["Race"]["Black"] == 100.0

    def test_an_accuracy_spread_beyond_a_float_is_numeric_overflow(self):
        label = label_with_gender_shares(60.0, female_accuracy=1.7e308, other_accuracy=-1.7e308)
        with pytest.raises(NumericOverflowError) as err:
            representation_audit(label, gender_reference())
        assert "Gender" in err.value.message
        label = label_with_gender_shares(60.0, female_accuracy=1.7e308, other_accuracy=0.0)
        assert representation_audit(label, gender_reference()).disparity["Gender"] == 1.7e308

    def test_load_reference_population(self):
        doc = {"name": "urban-2020", "categories": {"Gender": {"Female": 52.0, "Male": 48.0}}}
        ref = load_reference_population(json.dumps(doc))
        assert ref.name == "urban-2020"
        with pytest.raises(SchemaError):
            load_reference_population(json.dumps({"name": "x", "categories": {}}))
