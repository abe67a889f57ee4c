"""Predictions-file parsing, manifest parsing, and age bucketing."""

from __future__ import annotations

import dataclasses
import io
import json
import math

import pytest

from conftest import GOLDEN_DIR
from modelfacts.errors import (
    BadValueError,
    DuplicateIdError,
    EmptyFileError,
    MissingColumnError,
    SchemaError,
    UnknownMetricError,
    ImplausibleAgeError,
)
from modelfacts.ingest import (
    bucket_age,
    load_label_manifest,
    parse_label_manifest,
    parse_predictions,
)
from modelfacts.label import MeanStd, ModelType, PartialDate, PctTarget, Provenance, ProvenanceState
from modelfacts.metrics import Direction
from modelfacts.report import load_reference_population, load_reference_population_file

AGE_BUCKET_ORDER = ("<17", "18-24", "25-34", "35-49", "50+")


class TestBucketAge:
    def test_paper_rows(self):
        assert bucket_age(16) == "<17"
        assert bucket_age(50) == "50+"
        assert bucket_age(18) == "18-24"
        assert bucket_age(25) == "25-34"
        assert bucket_age(35) == "35-49"

    def test_seventeen_goes_to_minor_bucket(self):
        assert bucket_age(17) == "<17"

    def test_total_and_monotone_on_full_range(self):
        previous = 0
        for age in range(0, 151):
            bucket = bucket_age(age)
            index = AGE_BUCKET_ORDER.index(bucket)  # raises if not a bucket
            assert index >= previous
            previous = index

    def test_implausible(self):
        with pytest.raises(ImplausibleAgeError):
            bucket_age(151)
        with pytest.raises(ImplausibleAgeError):
            bucket_age(-1)


def minimal_manifest(**overrides) -> dict:
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
    doc.update(overrides)
    return doc


OVERSIZED = "field larger than field limit"


def rows_with(lines: dict[int, str], n: int = 400) -> str:
    """A CSV of n good data rows (id, y_true, y_pred), some replaced by row number."""
    return "id,y_true,y_pred\n" + "".join(
        lines.get(i, f"r{i},{i % 2},1") + "\n" for i in range(1, n + 1))


def parse_csv(text: str, manifest_doc: dict | None = None):
    manifest = parse_label_manifest(json.dumps(manifest_doc or minimal_manifest()))
    return parse_predictions(io.StringIO(text), manifest)


class TestParsePredictions:
    @pytest.mark.parametrize("name", ["AUC", "auc", "AUC ", "A-U-C", "a_u_c"])
    def test_any_auc_spelling_requires_score(self, name):
        doc = minimal_manifest(optimized_metric={"name": name})
        with pytest.raises(MissingColumnError) as err:
            parse_csv("id,y_true,y_pred\na,1,1\nb,0,0\n", doc)
        assert err.value.column == "score"

    def test_three_rows_with_gender(self):
        dataset = parse_csv("id,y_true,y_pred,gender\na,1,1,female\nb,0,0,male\nc,1,0,female\n")
        assert dataset.n == 3
        assert dataset.attribute_schema == ("Gender",)
        assert dataset.records[0].attributes == {"Gender": "Female"}

    def test_missing_y_true(self):
        with pytest.raises(MissingColumnError) as err:
            parse_csv("id,y_pred\na,1\n")
        assert err.value.column == "y_true"

    def test_auc_requires_score(self):
        doc = minimal_manifest(optimized_metric={"name": "AUC"})
        with pytest.raises(MissingColumnError) as err:
            parse_csv("id,y_true,y_pred\na,1,1\n", doc)
        assert err.value.column == "score"

    @pytest.mark.parametrize("standard, kept", [(None, False), ("F1", False), ("AUC", True)])
    def test_score_column_is_kept_only_for_a_metric_scored_from_it(self, standard, kept):
        doc = minimal_manifest(optimized_metric={"name": "F1"})
        if standard:
            doc["standard_metric"] = {"name": standard}
        dataset = parse_csv("id,y_true,y_pred,score\na,1,1,0.5\nb,0,0,0.25\n", doc)
        assert dataset.has_scores is kept
        with pytest.raises(BadValueError) as err:
            parse_csv("id,y_true,y_pred,score\na,1,1,0.5\nb,0,0,high\n", doc)
        assert (err.value.row, err.value.column) == (2, "score")

    def test_bad_score_names_row_and_column(self):
        rows = "".join(f"r{i},1,{i/20}\n" for i in range(16))
        text = "id,y_true,score\n" + rows + "r17,0,abc\n"
        doc = minimal_manifest(optimized_metric={"name": "AUC"})
        with pytest.raises(BadValueError) as err:
            parse_csv(text, doc)
        assert err.value.row == 17
        assert err.value.column == "score"

    @pytest.mark.parametrize("model_type, metric, text, column", [
        ("imbalanced_classification", "AUC", "id,y_true,score\na,1,0.9\nb,0,nan\n", "score"),
        ("imbalanced_classification", "AUC", "id,y_true,score\na,1,0.9\nb,0,-inf\n", "score"),
        ("regression", "R2", "id,y_true,y_pred\na,1.0,0.9\nb,inf,1.0\n", "y_true"),
        ("regression", "R2", "id,y_true,y_pred\na,1.0,0.9\nb,2.0,NaN\n", "y_pred"),
    ], ids=["nan-score", "minus-inf-score", "inf-y-true", "nan-y-pred"])
    def test_non_finite_number_names_row_and_column(self, model_type, metric, text, column):
        doc = minimal_manifest(model_type=model_type, optimized_metric={"name": metric})
        with pytest.raises(BadValueError) as err:
            parse_csv(text, doc)
        assert (err.value.row, err.value.column) == (2, column)
        assert "not a finite number" in err.value.reason

    def test_positive_class_must_appear_in_the_data(self):
        with pytest.raises(SchemaError) as err:
            parse_csv("id,y_true,y_pred\na,yes,yes\nb,no,no\n")
        assert err.value.path == "positive_class"
        # A positive class the model predicted but the truth never shows stays legal.
        assert parse_csv("id,y_true,y_pred\na,0,1\nb,0,0\n").n == 2

    def test_empty_file(self):
        with pytest.raises(EmptyFileError):
            parse_csv("")
        with pytest.raises(EmptyFileError):
            parse_csv("id,y_true,y_pred\n")

    def test_duplicate_id(self):
        with pytest.raises(DuplicateIdError):
            parse_csv("id,y_true,y_pred\na,1,1\na,0,0\n")

    def test_regression_values_type_checked(self):
        doc = minimal_manifest(model_type="regression",
                               optimized_metric={"name": "R2"})
        doc.pop("positive_class")
        with pytest.raises(BadValueError) as err:
            parse_csv("id,y_true,y_pred\na,high,1.0\n", doc)
        assert err.value.column == "y_true"

    def test_age_bucketing_and_alias_map(self):
        doc = minimal_manifest(aliases={"Gender": {"F": "Female", "m": "Male"}})
        dataset = parse_csv(
            "id,y_true,y_pred,age,gender\n"
            "a,1,1,17,F\n"
            "b,0,0,34,M\n"
            "c,1,1,77,weiblich\n",
            doc,
        )
        assert [r.attributes["Age"] for r in dataset.records] == ["<17", "25-34", "50+"]
        assert [r.attributes["Gender"] for r in dataset.records] == ["Female", "Male", "Other"]
        assert dataset.attribute_schema == ("Gender", "Age")

    def test_implausible_age_is_bad_value(self):
        with pytest.raises(BadValueError) as err:
            parse_csv("id,y_true,y_pred,age\na,1,1,200\n")
        assert err.value.column == "age"

    def test_blank_attribute_left_missing(self):
        dataset = parse_csv("id,y_true,y_pred,race\na,1,1,\nb,0,0,Black\n")
        assert "Race" not in dataset.records[0].attributes
        assert dataset.records[1].attributes == {"Race": "Black"}

    def test_no_rows_dropped(self):
        rows = "".join(f"r{i},1,1\n" for i in range(250))
        dataset = parse_csv("id,y_true,y_pred\n" + rows)
        assert dataset.n == 250

    def test_classification_needs_positive_class(self):
        doc = minimal_manifest()
        doc.pop("positive_class")
        with pytest.raises(SchemaError):
            parse_csv("id,y_true,y_pred\na,1,1\n", doc)

    def test_unrelated_columns_ignored(self):
        dataset = parse_csv("id,y_true,y_pred,notes\na,1,1,hello\n")
        assert dataset.attribute_schema == ()
        assert dataset.records[0].attributes == {}

    def test_two_columns_of_one_category_keep_the_later_non_blank_cell(self):
        dataset = parse_csv("id,y_true,y_pred,race,Race\na,1,1,Black,\nb,0,0,Black,Asian\n")
        assert dataset.attribute_schema == ("Race",)
        assert [r.attributes for r in dataset.records] == [{"Race": "Black"}, {"Race": "Asian"}]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"\xef\xbb\xbfid,y_true,y_pred\na,1,1\nb,0,1\n")
        manifest = parse_label_manifest(json.dumps(minimal_manifest()))
        dataset = parse_predictions(path, manifest)
        assert [r.id for r in dataset.records] == ["a", "b"]

    def test_non_utf8_byte_is_bad_value_at_its_row(self, tmp_path):
        # Far past the first read buffer, so the row comes from the byte, not the buffer.
        rows = [f"r{i},1,1,White\n".encode() for i in range(1, 2001)]
        rows[1499] = b"r1500,1,1,Wh\xe9te\n"
        path = tmp_path / "p.csv"
        path.write_bytes(b"id,y_true,y_pred,race\n" + b"".join(rows))
        manifest = parse_label_manifest(json.dumps(minimal_manifest()))
        with pytest.raises(BadValueError) as err:
            parse_predictions(path, manifest)
        assert (err.value.row, err.value.column) == (1500, "(row)")
        assert "not UTF-8" in err.value.reason

    @pytest.mark.parametrize("text, row, column, reason", [
        ("id,y_true,y_pred\na,1," + "x" * 131_073 + "\nb,0,0\n", 1, "(row)", OVERSIZED),
        ("id,y_true,y_pred," + "x" * 131_073 + "\na,1,1\n", 0, "(row)", OVERSIZED),
        # Past the first few hundred rows, where the reader may have read ahead.
        (rows_with({300: "r300,1," + "x" * 131_073}), 300, "(row)", OVERSIZED),
        (rows_with({260: "r260,,1", 300: "r300,1," + "x" * 131_073}), 260, "y_true",
         "empty value"),
    ], ids=["data-row", "header", "row-300", "blank-before-oversized"])
    def test_oversized_field_is_bad_value_at_its_row(self, text, row, column, reason):
        with pytest.raises(BadValueError) as err:
            parse_csv(text)
        assert (err.value.row, err.value.column) == (row, column)
        assert reason in err.value.reason


NOT_UTF8 = b'{"name": "caf\xe9"}'


@pytest.mark.parametrize("entry", [
    lambda tmp_path: parse_label_manifest(NOT_UTF8),
    lambda tmp_path: parse_label_manifest(NOT_UTF8.decode("utf-8", "surrogateescape")),
    lambda tmp_path: load_label_manifest(write_bytes(tmp_path / "m.json", NOT_UTF8)),
    lambda tmp_path: load_reference_population(NOT_UTF8),
    lambda tmp_path: load_reference_population(NOT_UTF8.decode("utf-8", "surrogateescape")),
    lambda tmp_path: load_reference_population_file(write_bytes(tmp_path / "r.json", NOT_UTF8)),
], ids=["manifest-bytes", "manifest-text", "manifest-file",
        "reference-bytes", "reference-text", "reference-file"])
def test_document_that_is_not_utf8_is_schema_error(tmp_path, entry):
    with pytest.raises(SchemaError) as err:
        entry(tmp_path)
    assert err.value.path == "(document)"
    assert "UTF-8" in err.value.reason


@pytest.mark.parametrize("entry", [parse_label_manifest, load_reference_population])
def test_lone_surrogate_escape_is_schema_error(entry):
    with pytest.raises(SchemaError) as err:
        entry('{"name": "caf\\udc80"}')
    assert err.value.path == "(document)"
    assert "lone surrogate" in err.value.reason


def write_bytes(path, data: bytes):
    path.write_bytes(data)
    return path


class TestParseManifest:
    def test_void_manifest(self):
        manifest = parse_label_manifest((GOLDEN_DIR / "void.manifest.json").read_text())
        assert manifest.model_type is ModelType.IMBALANCED_CLASSIFICATION
        assert manifest.model_train_date == PartialDate(2012)
        assert manifest.test_data_range.start == PartialDate(2013)
        assert manifest.test_data_range.end == PartialDate(2013)
        assert manifest.optimized_name == "AUC"
        assert manifest.optimized_direction is Direction.MAXIMIZE
        assert manifest.optimized_raw.value == 0.939
        assert manifest.optimized_pct_over.value == 10.0
        assert manifest.standard_raw.state is ProvenanceState.NOT_COLLECTED
        assert manifest.sample_count.value == 237232
        assert manifest.train_pct.state is ProvenanceState.NOT_COLLECTED
        assert manifest.test_pct.value == 100.0
        assert len(manifest.warnings) == 2
        race = manifest.demographics["Race"]
        assert set(race) == {"Asian", "Hispanic", "Black", "White", "Other"}
        assert all(cell.state is ProvenanceState.NOT_COLLECTED
                   for row in race.values() for cell in row.values())

    def test_suicide_risk_manifest(self):
        manifest = parse_label_manifest((GOLDEN_DIR / "suicide_risk.manifest.json").read_text())
        assert manifest.model_train_date == PartialDate(2022, 5, 19)
        assert manifest.test_data_range.start == PartialDate(1996, 1, 1)
        assert manifest.test_data_range.end == PartialDate(2015, 10, 6)
        assert manifest.optimized_raw.value == 0.8
        assert manifest.standard_raw.value == 0.067
        assert manifest.sample_count.value == 4976391
        assert manifest.train_pct.value == 70.0
        gender = manifest.demographics["Gender"]
        assert gender["Female"]["pct_in_test"].state is ProvenanceState.AVAILABLE_UNREPORTED
        assert gender["Trans Female"]["pct_in_test"].state is ProvenanceState.UNKNOWN_AVAILABILITY

    def test_out_of_range_split(self):
        doc = minimal_manifest(dataset={"train_pct": 140.0})
        with pytest.raises(SchemaError) as err:
            parse_label_manifest(json.dumps(doc))
        assert "train_pct" in err.value.path

    def test_missing_warnings_key(self):
        doc = minimal_manifest()
        doc.pop("warnings")
        with pytest.raises(SchemaError) as err:
            parse_label_manifest(json.dumps(doc))
        assert "warnings" in err.value.path

    def test_unknown_metric_without_direction(self):
        doc = minimal_manifest(optimized_metric={"name": "Sharpness"})
        with pytest.raises(UnknownMetricError):
            parse_label_manifest(json.dumps(doc))
        doc = minimal_manifest(optimized_metric={"name": "Sharpness", "direction": "maximize"})
        assert parse_label_manifest(json.dumps(doc)).optimized_direction is Direction.MAXIMIZE

    def test_unknown_keys_rejected(self):
        doc = minimal_manifest(surprise=1)
        with pytest.raises(SchemaError):
            parse_label_manifest(json.dumps(doc))

    def test_bad_date(self):
        from modelfacts.errors import DateParseError

        doc = minimal_manifest(model_train_date="May 2012")
        with pytest.raises(DateParseError):
            parse_label_manifest(json.dumps(doc))

    def test_inverted_range(self):
        doc = minimal_manifest(test_data_range={"start": "2015", "end": "1996"})
        with pytest.raises(SchemaError):
            parse_label_manifest(json.dumps(doc))

    def test_target_variant_checked_against_model_type(self):
        doc = minimal_manifest(demographics={
            "Race": {"rows": {"Asian": {
                "pct_in_test": 10.0, "accuracy": 0.5,
                "target": {"mean": 1.0, "std": 0.5},
            }}},
        })
        with pytest.raises(SchemaError):
            parse_label_manifest(json.dumps(doc))

    def test_baseline_policy_rules(self):
        doc = minimal_manifest(
            optimized_metric={"name": "Accuracy", "baseline_policy": "majority-class"})
        assert parse_label_manifest(json.dumps(doc)).baseline_policy == "majority-class"
        doc = minimal_manifest(
            optimized_metric={"name": "Accuracy", "baseline": 0.5,
                              "baseline_policy": "majority-class"})
        with pytest.raises(SchemaError):
            parse_label_manifest(json.dumps(doc))

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", "0", "0.0", "true", '"0.5"'])
    def test_baseline_must_be_finite_and_nonzero(self, text):
        doc = json.dumps(minimal_manifest(optimized_metric={"name": "Accuracy", "baseline": 0.5}))
        with pytest.raises(SchemaError) as err:
            parse_label_manifest(doc.replace("0.5", text))
        assert err.value.path == "optimized_metric.baseline"

    def test_cross_field_rules_hold_for_hand_built_manifests(self):
        manifest = parse_label_manifest(json.dumps(minimal_manifest(
            optimized_metric={"name": "Accuracy", "baseline_policy": "majority-class"})))
        with pytest.raises(SchemaError) as err:
            dataclasses.replace(manifest, baseline=0.5)
        assert err.value.path == "optimized_metric"
        with pytest.raises(SchemaError) as err:
            dataclasses.replace(manifest, model_type=ModelType.REGRESSION)
        assert err.value.path == "optimized_metric.baseline_policy"
        with pytest.raises(UnknownMetricError):
            dataclasses.replace(manifest, optimized_name="Sharpness", optimized_direction=None)
        row = {"target": Provenance.reported(MeanStd(1.0, 0.5))}
        with pytest.raises(SchemaError) as err:
            dataclasses.replace(manifest, baseline_policy=None, demographics={"Site": {"A": row}})
        assert err.value.path == "demographics.Site.rows.A.target"

    @pytest.mark.parametrize("field, value, path", [
        ("optimized_raw", "0.939", "optimized_metric.raw"),
        ("optimized_pct_over", math.nan, "optimized_metric.pct_over_baseline"),
        ("standard_raw", [0.067], "standard_metric.raw"),
        ("standard_pct_over", math.inf, "standard_metric.pct_over_baseline"),
        ("sample_count", -1, "dataset.count"),
        ("sample_count", True, "dataset.count"),
        ("sample_count", 100.0, "dataset.count"),
        ("train_pct", 10**400, "dataset.train_pct"),
        ("test_pct", MeanStd(1.0, 0.5), "dataset.test_pct"),
        ("train_pct", 150.0, "dataset.train_pct"),
        ("test_pct", -5.0, "dataset.test_pct"),
    ])
    def test_a_hand_built_reported_cell_must_hold_a_number(self, field, value, path):
        manifest = load_label_manifest(GOLDEN_DIR / "void.manifest.json")
        with pytest.raises(SchemaError) as err:
            dataclasses.replace(manifest, **{field: Provenance.reported(value)})
        assert err.value.path == path

    @pytest.mark.parametrize("stat, value", [
        ("pct_in_test", "12"), ("accuracy", math.nan), ("target", PctTarget(math.inf))])
    def test_a_hand_built_declared_row_must_hold_numbers(self, stat, value):
        manifest = load_label_manifest(GOLDEN_DIR / "void.manifest.json")
        demographics = {category: {group: dict(row) for group, row in rows.items()}
                        for category, rows in manifest.demographics.items()}
        demographics["Race"]["Asian"][stat] = Provenance.reported(value)
        with pytest.raises(SchemaError) as err:
            dataclasses.replace(manifest, demographics=demographics)
        assert err.value.path == f"demographics.Race.rows.Asian.{stat}"
        demographics["Race"]["Asian"][stat] = Provenance.reported(
            PctTarget(12.5) if stat == "target" else 12.5)
        assert dataclasses.replace(manifest, demographics=demographics).demographics == demographics

    @pytest.mark.parametrize("stat", ["pct_in_test", "accuracy", "target"])
    def test_a_hand_built_declared_row_must_hold_every_stat(self, stat):
        manifest = load_label_manifest(GOLDEN_DIR / "suicide_risk.manifest.json")
        demographics = {category: {group: dict(row) for group, row in rows.items()}
                        for category, rows in manifest.demographics.items()}
        del demographics["Race"]["Asian"][stat]
        with pytest.raises(SchemaError) as err:
            dataclasses.replace(manifest, demographics=demographics)
        assert err.value.path == f"demographics.Race.rows.Asian.{stat}"

    @pytest.mark.parametrize("category, kept", [("Gender", ["Female"]), ("Age", []),
                                                ("Race", ["White", "Black", "Asian", "Other"])])
    def test_a_hand_built_canonical_category_must_hold_every_group(self, category, kept):
        manifest = load_label_manifest(GOLDEN_DIR / "suicide_risk.manifest.json")
        rows = manifest.demographics[category]
        missing = next(group for group in rows if group not in kept)
        demographics = {**manifest.demographics,
                        category: {group: rows[group] for group in kept}}
        with pytest.raises(SchemaError) as err:
            dataclasses.replace(manifest, demographics=demographics)
        assert err.value.path == f"demographics.{category}.rows.{missing}"
        doc = manifest.to_dict()
        doc["demographics"][category]["rows"] = {
            group: row for group, row in doc["demographics"][category]["rows"].items() if group in kept}
        with pytest.raises(SchemaError) as parsed:
            parse_label_manifest(doc)
        assert (parsed.value.path, parsed.value.message) == (err.value.path, err.value.message)

    @pytest.mark.parametrize("key", ["positive_class", "baseline", "baseline_policy"])
    def test_null_means_absent(self, key):
        doc = minimal_manifest(optimized_metric={"name": "Accuracy"})
        target = doc if key == "positive_class" else doc["optimized_metric"]
        target[key] = None
        manifest = parse_label_manifest(json.dumps(doc))
        assert getattr(manifest, key) is None
        assert key not in json.dumps(manifest.to_dict())

    def test_round_trip_is_lossless(self):
        for name in ("void.manifest.json", "suicide_risk.manifest.json"):
            manifest = parse_label_manifest((GOLDEN_DIR / name).read_text())
            assert parse_label_manifest(manifest.to_dict()) == manifest

    def test_round_trip_with_extras(self):
        doc = minimal_manifest(
            aliases={"Race": {"af-am": "Black"}},
            extra_categories=["Veteran Status"],
            demographics={"Race": {"state": "not_collected"},
                          "Veteran Status": {"rows": {"Veteran": {"state": "unknown_availability"}}}},
            dataset={"count": 12, "train_pct": 50.0, "test_pct": 50.0},
        )
        manifest = parse_label_manifest(json.dumps(doc))
        assert parse_label_manifest(manifest.to_dict()) == manifest
