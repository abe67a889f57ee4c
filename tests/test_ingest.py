"""Predictions-file parsing, manifest parsing, and age bucketing."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random

import pytest

from conftest import GOLDEN_DIR, WHITESPACE, read_golden
from modelfacts.assemble import generate_label
from modelfacts.codec import from_canonical_json, to_canonical_json
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
    load_label_manifest,
    parse_label_manifest,
    parse_predictions,
)
from modelfacts.label import (CANONICAL_CATEGORIES, MeanStd, ModelType, PartialDate, PctTarget,
                              Provenance, ProvenanceState, bucket_age)
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

    def test_missing_id(self):
        with pytest.raises(MissingColumnError) as err:
            parse_csv("y_true,y_pred\n1,1\n")
        assert err.value.column == "id"

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
        assert (dataset.score is not None) is kept
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

    @pytest.mark.parametrize("cell", ["4_2", "\u0664\u0662", "\uff14\uff12", "1_000", "+4_2"])
    def test_only_ascii_integer_years_are_ages(self, cell):
        # int() reads each of these cells; none is integer years in ASCII digits.
        with pytest.raises(BadValueError) as err:
            parse_csv(f"id,y_true,y_pred,age\na,1,1,+42\nb,0,0,{cell}\n")
        assert (err.value.row, err.value.column, err.value.reason) == (
            2, "age", f"not an age: {cell!r}")
        # A sign keeps its reading: "+42" is 35-49, and "-5" is out of range.
        assert parse_csv("id,y_true,y_pred,age\na,1,1,+42\n").groups["Age"] == ["35-49"]
        with pytest.raises(BadValueError, match="age -5 outside plausible range"):
            parse_csv("id,y_true,y_pred,age\na,1,1,-5\n")

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


def regression_manifest(**overrides) -> dict:
    doc = minimal_manifest(model_type="regression", optimized_metric={"name": "R2"}, **overrides)
    doc.pop("positive_class")
    return doc


def block_rows(header: str, row: str, lines: dict[int, str], n: int = 400) -> str:
    """A CSV of n data rows, `row` formatted with the row number `i`, some replaced by number."""
    return header + "\n" + "".join(lines.get(i, row.format(i=i)) + "\n" for i in range(1, n + 1))


REGRESSION_ROWS = ("id,y_true,y_pred,score,age", "r{i},{i}.5,{i},0.{i},30")


class TestBlockChecks:
    """parse_predictions checks 256 rows at a time, and a block that breaks a rule is
    checked again a row at a time: the error names its first bad cell, whatever the
    block checked before reaching it."""

    @pytest.mark.parametrize("doc, rows, lines, at, column, reason", [
        (minimal_manifest(), ("id,y_true,y_pred", "r{i},{i},1"), {200: "r200,,1"},
         200, "y_true", "empty value"),
        (minimal_manifest(), ("id,y_true,y_pred", "r{i},{i},1"), {256: "r256,1,  "},
         256, "y_pred", "empty value"),
        (regression_manifest(), REGRESSION_ROWS, {300: "r300,1.5,abc,0.5,30"},
         300, "y_pred", "not a number: 'abc'"),
        (regression_manifest(), REGRESSION_ROWS, {130: "r130,1.5,2,nan,30"},
         130, "score", "not a finite number: 'nan'"),
        (regression_manifest(), REGRESSION_ROWS, {257: "r257,1.5,2,0.5,abc"},
         257, "age", "not an age: 'abc'"),
    ], ids=["blank-truth", "blank-prediction-last-row", "second-block-prediction",
            "nan-score", "age-first-row-of-second-block"])
    def test_a_block_that_fails_on_a_later_cell_names_that_cell(self, doc, rows, lines, at,
                                                                column, reason):
        # Not DUPLICATE_ID for the block's own ids, which it checked first.
        with pytest.raises(BadValueError) as err:
            parse_csv(block_rows(*rows, lines), doc)
        assert (err.value.row, err.value.column, err.value.reason) == (at, column, reason)

    @pytest.mark.parametrize("at, earlier", [(300, 5), (257, 256), (100, 5), (512, 511)])
    def test_a_repeated_id_is_named_at_its_own_row(self, at, earlier):
        with pytest.raises(DuplicateIdError) as err:
            parse_csv(rows_with({at: f" r{earlier} ,1,1"}, n=600))
        assert str(err.value) == f"DUPLICATE_ID: id 'r{earlier}' appears more than once (row {at})"

    @pytest.mark.parametrize("space", WHITESPACE + "\x1d\x1e")
    def test_whitespace_around_an_id_or_a_number_changes_no_value(self, space, tmp_path):
        # float reads " 1.5\t" as str.strip would leave it, but refuses "\x1c1.5\x1c".
        # The rows are read from a file, as the CLI reads them.
        rng = random.Random(5)
        header = ["id", "y_true", "y_pred", "score", "gender"]
        cases = [(regression_manifest(), lambda: f"{rng.uniform(0, 90):.3f}"),
                 (minimal_manifest(optimized_metric={"name": "AUC"}), lambda: rng.choice("01"))]
        for doc, truth in cases:
            manifest = parse_label_manifest(json.dumps(doc))
            plain = [[f"r{i}", truth(), truth(), f"{rng.random():.4f}", rng.choice(["F", "M", ""])]
                     for i in range(300)]
            padded = [[space + cell + space if i % 3 and j < 4 else cell
                       for j, cell in enumerate(row)] for i, row in enumerate(plain)]
            read = []
            for rows in (plain, padded):
                path = tmp_path / "predictions.csv"
                with open(path, "w", encoding="utf-8", newline="") as target:
                    csv.writer(target).writerows([header, *rows])
                dataset = parse_predictions(path, manifest)
                read.append(([dataset.ids, dataset.truth, dataset.prediction, dataset.score],
                             to_canonical_json(generate_label(dataset, manifest))))
            assert read[0] == read[1]

    @pytest.mark.parametrize("cell, reason", [
        ("", "empty value"), ("  ", "empty value"), ("\x1c", "empty value"),
        ("\x1f\t", "empty value"), (" abc\x1e", "not a number: 'abc'"),
        ("\x1dinf ", "not a finite number: 'inf'")])
    @pytest.mark.parametrize("at", [1, 300])
    @pytest.mark.parametrize("column", ["y_true", "y_pred"])
    def test_a_bad_regression_number_keeps_its_message(self, cell, reason, at, column):
        line = {"y_true": f"r{at},{cell},2,0.5,30", "y_pred": f"r{at},1.5,{cell},0.5,30"}[column]
        with pytest.raises(BadValueError) as err:
            parse_csv(block_rows(*REGRESSION_ROWS, {at: line}), regression_manifest())
        assert (err.value.row, err.value.column, err.value.reason) == (at, column, reason)

    @pytest.mark.parametrize("cell, reason", [
        ("", "not a number: ''"), (" ", "not a number: ''"), ("\x1c", "not a number: ''"),
        ("\x1f1e999", "not a finite number: '1e999'"), ("0.5x", "not a number: '0.5x'")])
    @pytest.mark.parametrize("at", [1, 300])
    def test_a_bad_score_keeps_its_message(self, cell, reason, at):
        doc = minimal_manifest(optimized_metric={"name": "AUC"})
        text = block_rows("id,y_true,score", "r{i},{i},0.5", {at: f"r{at},1,{cell}"})
        with pytest.raises(BadValueError) as err:
            parse_csv(text, doc)
        assert (err.value.row, err.value.column, err.value.reason) == (at, "score", reason)

    def test_a_group_value_first_met_in_a_late_block_is_normalized_at_its_row(self):
        doc = minimal_manifest(aliases={"Gender": {"F": "Female"}})
        lines = {300: "r300,1,1,F,17", 400: "r400,0,1, Nonbinary ,"}
        rows = ("id,y_true,y_pred,gender,age", "r{i},{i},1,Male,30")
        dataset = parse_csv(block_rows(*rows, lines), doc)
        assert [dataset.groups["Gender"][i - 1] for i in (1, 300, 400)] == [
            "Male", "Female", "Nonbinary"]
        assert [dataset.groups["Age"][i - 1] for i in (1, 300, 400)] == ["25-34", "<17", None]
        with pytest.raises(BadValueError) as err:
            parse_csv(block_rows(*rows, {**lines, 350: "r350,1,1,Male,thirty"}), doc)
        assert (err.value.row, err.value.column, err.value.reason) == (
            350, "age", "not an age: 'thirty'")


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

    @pytest.mark.parametrize("key, value, path, reason", [
        ("model_train_date", 2012, "model_train_date", "date must be a string, got int"),
        ("model_train_date", "2012-13", "model_train_date",
         "invalid date '2012-13': month 13 out of range"),
        ("model_train_date", "May 2012", "model_train_date",
         "cannot parse date 'May 2012' (expected YYYY, YYYY-MM, or YYYY-MM-DD)"),
        ("test_data_range", {"start": "2013", "end": "2014-13"}, "test_data_range.end",
         "invalid date '2014-13': month 13 out of range"),
        ("model_train_date", "0000", "model_train_date",
         "invalid date '0000': year 0 out of range"),
        ("model_train_date", "10000", "model_train_date",
         "cannot parse date '10000' (expected YYYY, YYYY-MM, or YYYY-MM-DD)"),
        ("model_train_date", "2021-04-31", "model_train_date",
         "invalid date '2021-04-31': day 31 out of range for 2021-04"),
        ("test_data_range", {"start": "2013", "end": "2013-09-31"}, "test_data_range.end",
         "invalid date '2013-09-31': day 31 out of range for 2013-09"),
    ], ids=["int", "month-13", "words", "range-end-month-13", "year-0", "year-10000",
            "april-31", "range-end-september-31"])
    def test_a_bad_date_is_refused_at_its_path_as_in_a_label(self, key, value, path, reason):
        with pytest.raises(SchemaError) as err:
            parse_label_manifest(json.dumps(minimal_manifest(**{key: value})))
        assert str(err.value) == f"SCHEMA_ERROR: at '{path}': {reason}"
        label = json.loads(read_golden("void.label.json"))
        label["application"][key] = value  # the same value at the same key of a label
        with pytest.raises(SchemaError) as in_label:
            from_canonical_json(json.dumps(label))
        assert str(in_label.value) == f"SCHEMA_ERROR: at 'application.{path}': {reason}"

    @pytest.mark.parametrize("value, path, reason", [
        ({"start": "2013"}, "test_data_range", "missing keys ['end']"),
        ({"start": "2013", "end": "2014", "middle": "2013"}, "test_data_range",
         "unknown keys ['middle']"),
        ("2014-13", "test_data_range", "invalid date '2014-13': month 13 out of range"),
        (2014, "test_data_range", "expected a date string or {start, end}"),
    ])
    def test_a_bad_date_range_reads_as_in_a_label(self, value, path, reason):
        with pytest.raises(SchemaError) as err:
            parse_label_manifest(json.dumps(minimal_manifest(test_data_range=value)))
        assert (err.value.path, err.value.reason) == (path, reason)

    @pytest.mark.parametrize("overrides, path, reason", [
        ({"demographics": []}, "demographics", "expected an object of categories"),
        ({"demographics": {"Race": {"rows": ["Asian"]}}}, "demographics.Race.rows",
         "expected an object of group rows"),
        ({"demographics": {"Race": {"rows": {"Asian": 0.5}}}}, "demographics.Race.rows.Asian",
         "expected an object"),
        ({"demographics": {"Race": {"state": "not_collected", "share": 1}}},
         "demographics.Race", "unknown keys ['share']"),
        ({"demographics": {"Race": {"rows": {"Asian": {"state": "not_collected", "n": 3}}}}},
         "demographics.Race.rows.Asian", "unknown keys ['n']"),
        ({"demographics": {"Race": {"rows": {"Asian": {"accuracy": 0.5, "n": 3, "f1": 0}}}}},
         "demographics.Race.rows.Asian", "unknown keys ['f1', 'n']"),
        ({"optimized_metric": ["Accuracy"]}, "optimized_metric", "expected an object"),
        ({"dataset": None}, "dataset", "expected an object"),
        ({"optimized_metric": {"name": "Accuracy", "scale": 2}}, "optimized_metric",
         "unknown keys ['scale']"),
        ({"dataset": {"count": 5, "rows": 5, "pct": 1}}, "dataset", "unknown keys ['pct', 'rows']"),
        ({"optimized_metric": {"name": "Accuracy", "baseline": 0.5,
                               "baseline_policy": "majority-class"}},
         "optimized_metric", "give either baseline or baseline_policy, not both"),
    ], ids=["demographics-list", "rows-list", "row-number", "category-key", "state-row-key",
            "row-keys", "section-list", "section-null", "metric-key", "dataset-keys",
            "baseline-and-policy"])
    def test_a_bad_section_category_or_row_is_refused_at_its_path(self, overrides, path, reason):
        with pytest.raises(SchemaError) as err:
            parse_label_manifest(json.dumps(minimal_manifest(**overrides)))
        assert str(err.value) == f"SCHEMA_ERROR: at '{path}': {reason}"

    def test_a_missing_required_section_is_refused_at_its_name(self):
        doc = minimal_manifest()
        doc.pop("optimized_metric")
        with pytest.raises(SchemaError) as err:
            parse_label_manifest(json.dumps(doc))
        assert str(err.value) == "SCHEMA_ERROR: at 'optimized_metric': required key is missing"

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

    @pytest.mark.parametrize("field, value, path", [
        ("schema_version", "2.0", "schema_version"),
        ("application", " ", "application"),
        ("application", None, "application"),
        ("positive_class", 1, "positive_class"),
        ("optimized_name", "", "optimized_metric.name"),
        ("baseline", math.nan, "optimized_metric.baseline"),
        ("baseline", 0, "optimized_metric.baseline"),
        ("baseline_policy", "median", "optimized_metric.baseline_policy"),
        ("standard_name", "", "standard_metric.name"),
        ("warnings", (1,), "warnings"),
        ("warnings", "one warning", "warnings"),
        ("extra_categories", (1,), "extra_categories"),
    ])
    def test_a_hand_built_manifest_obeys_the_value_rules(self, field, value, path):
        # Refused at the same path and with the same message as the parsed value.
        manifest = load_label_manifest(GOLDEN_DIR / "void.manifest.json")
        with pytest.raises(SchemaError) as err:
            dataclasses.replace(manifest, **{field: value})
        assert err.value.path == path
        doc = manifest.to_dict()
        section, _, key = path.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[key] = (
            list(value) if isinstance(value, tuple) else value)
        with pytest.raises(SchemaError) as parsed:
            parse_label_manifest(doc)
        assert (parsed.value.path, parsed.value.message) == (err.value.path, err.value.message)

    def test_a_hand_built_manifest_matches_aliases_in_any_case(self):
        manifest = dataclasses.replace(load_label_manifest(GOLDEN_DIR / "void.manifest.json"),
                                       positive_class="1", aliases={"Gender": {"F": "Female"}})
        assert manifest.aliases == {"Gender": {"f": "Female"}}
        assert parse_label_manifest(manifest.to_dict()) == manifest
        dataset = parse_predictions(
            io.StringIO("id,y_true,score,gender\na,1,0.9,F\nb,0,0.2,f\n"), manifest)
        assert [r.attributes["Gender"] for r in dataset.records] == ["Female", "Female"]

    @pytest.mark.parametrize("aliases, path", [
        ({"Gender": {"f": 1}}, "aliases.Gender"),
        ({"Gender": {2: "Female"}}, "aliases.Gender"),
        ({"Gender": ["f"]}, "aliases.Gender"),
        (["Gender"], "aliases"),
    ])
    def test_a_hand_built_manifest_refuses_a_bad_alias_map(self, aliases, path):
        # Refused at the same path and with the same message as the parsed value.
        manifest = load_label_manifest(GOLDEN_DIR / "void.manifest.json")
        with pytest.raises(SchemaError) as err:
            dataclasses.replace(manifest, aliases=aliases)
        assert err.value.path == path
        with pytest.raises(SchemaError) as parsed:
            parse_label_manifest({**manifest.to_dict(), "aliases": aliases})
        assert (parsed.value.path, parsed.value.message) == (err.value.path, err.value.message)

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
        assert err.value.reason == "stat is missing and no category state is given"

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

    @pytest.mark.parametrize("category, group", [("Race", "Black"), ("Site", "North")])
    def test_a_null_row_is_a_missing_row(self, category, group):
        # In a canonical or an extension category, parsed or built by hand.
        doc = load_label_manifest(GOLDEN_DIR / "suicide_risk.manifest.json").to_dict()
        row = {"pct_in_test": 20.0, "accuracy": 0.5, "target": {"pct_target": 5.0}}
        doc["demographics"][category] = {"rows": dict.fromkeys(
            CANONICAL_CATEGORIES.get(category, ("North", "South")), row)}
        whole = parse_label_manifest(doc)
        doc["demographics"][category]["rows"][group] = None
        with pytest.raises(SchemaError) as parsed:
            parse_label_manifest(doc)
        assert parsed.value.path == f"demographics.{category}.rows.{group}"
        assert parsed.value.reason == "row is missing and no category state is given"
        rows = {**whole.demographics[category], group: None}
        with pytest.raises(SchemaError) as err:
            dataclasses.replace(whole, demographics={**whole.demographics, category: rows})
        assert (err.value.path, err.value.message) == (parsed.value.path, parsed.value.message)

    @pytest.mark.parametrize("spec", [{}, {"rows": {}}, {"state": "not_collected"}])
    def test_an_extension_category_without_rows_is_refused(self, spec):
        # Parsed or built by hand, at the same path and with the same reason.
        manifest = load_label_manifest(GOLDEN_DIR / "void.manifest.json")
        doc = manifest.to_dict()
        doc.setdefault("demographics", {})["Zone"] = spec
        with pytest.raises(SchemaError) as parsed:
            parse_label_manifest(doc)
        assert parsed.value.path == "demographics.Zone"
        assert parsed.value.reason == "extension categories need explicit rows"
        with pytest.raises(SchemaError) as err:
            dataclasses.replace(manifest, demographics={**manifest.demographics, "Zone": {}})
        assert (err.value.path, err.value.message) == (parsed.value.path, parsed.value.message)

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
