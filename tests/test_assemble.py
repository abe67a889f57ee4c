"""Label assembly from datasets/manifests, comparison, and audits."""

from __future__ import annotations

import io
import json
import random

import pytest

from conftest import GOLDEN_DIR, make_label, canonical_category, read_golden
from modelfacts.assemble import (
    ReferencePopulation,
    build_declared_label,
    compare_labels,
    generate_label,
    load_reference_population,
    representation_audit,
)
from modelfacts.errors import (BadArgumentError, DeclaredConflictError, NoOverlapError, SchemaError,
                               UnknownMetricError)
from modelfacts.ingest import parse_label_manifest, parse_predictions
from modelfacts.label import (
    CANONICAL_CATEGORY_ORDER,
    DemographicCategory,
    DemographicGroupRow,
    PctTarget,
    Provenance,
    ProvenanceState,
    ViolationCode,
    validate_label,
)
from modelfacts.render import from_canonical_json, render_text


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
        assert err.value.message.startswith("demographics.Gender.rows.Female.pct_in_test: ")
        doc["demographics"]["Gender"]["rows"]["Female"]["pct_in_test"] = 60.0
        assert build(TEN_ROW_CSV, doc).category("Gender").rows[0].pct_in_test.value == 60.0

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


def reference(**categories) -> ReferencePopulation:
    return ReferencePopulation(name="test-reference", distributions=categories)


def gender_reference() -> ReferencePopulation:
    return reference(Gender={"Female": 50.0, "Male": 48.0, "Trans Female": 0.6,
                             "Trans Male": 0.6, "Nonbinary": 0.5, "Other": 0.3})


def label_with_gender_shares(female_pct: float):
    rows = []
    shares = {"Female": female_pct, "Male": 100.0 - female_pct}
    for group in ("Female", "Male", "Trans Female", "Trans Male", "Nonbinary", "Other"):
        share = shares.get(group)
        rows.append(DemographicGroupRow(
            group,
            Provenance.reported(share) if share is not None else Provenance.reported(0.0),
            Provenance.reported(0.8 if group == "Female" else 0.6),
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

    def test_load_reference_population(self):
        doc = {"name": "urban-2020", "categories": {"Gender": {"Female": 52.0, "Male": 48.0}}}
        ref = load_reference_population(json.dumps(doc))
        assert ref.name == "urban-2020"
        with pytest.raises(SchemaError):
            load_reference_population(json.dumps({"name": "x", "categories": {}}))
