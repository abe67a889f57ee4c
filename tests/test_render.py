"""Text/HTML rendering and canonical JSON serialization."""

from __future__ import annotations

import dataclasses
import json
import random
import xml.etree.ElementTree as ET

import pytest

from conftest import canonical_category, make_label, provenance_cells, random_label, read_golden
from modelfacts import render
from modelfacts.codec import encode_label, from_canonical_json, to_canonical_json
from modelfacts.errors import SchemaError, UnsupportedVersionError
from modelfacts.label import (
    CANONICAL_CATEGORY_ORDER,
    PROVENANCE_COLORS,
    DatasetInfo,
    DemographicCategory,
    DemographicGroupRow,
    MeanStd,
    MetricValue,
    PctTarget,
    Provenance,
    ProvenanceState,
)
from modelfacts.render import RenderBudget, render_html, render_text

SECTION_HEADERS = ("Application:", "Accuracy:", "Dataset Size:", "Demographics:", "Warnings:")


def assert_well_formed(html_text: str) -> None:
    assert html_text.startswith("<!DOCTYPE html>\n")
    ET.fromstring(html_text.split("\n", 1)[1])


def flip_one_cell(label, state: ProvenanceState):
    """Return a copy of the label with one demographic cell's state changed."""
    target_cat = label.demographics[1]
    row = target_cat.rows[-1]
    new_row = dataclasses.replace(row, pct_in_test=Provenance(state))
    new_rows = target_cat.rows[:-1] + (new_row,)
    new_cat = DemographicCategory(target_cat.category_name, new_rows)
    return dataclasses.replace(
        label, demographics=label.demographics[:1] + (new_cat,) + label.demographics[2:])


class TestRenderText:
    def test_void_golden_bytes(self):
        label = from_canonical_json(read_golden("void.label.json"))
        assert render_text(label).encode() == read_golden("void.label.txt")

    def test_suicide_risk_golden_bytes(self):
        label = from_canonical_json(read_golden("suicide_risk.label.json"))
        assert render_text(label).encode() == read_golden("suicide_risk.label.txt")

    def test_void_contains_published_values(self):
        text = read_golden("void.label.txt").decode()
        for token in ("AUC", "10.0%", "0.939", "237,232", "Imbalanced Classification",
                      "2012", "2013", "[not collected]"):
            assert token in text

    def test_minimal_label_structure(self):
        text = render_text(make_label())
        lines = text.splitlines()
        assert sum(1 for l in lines if "MODEL FACTS" in l) == 1
        positions = [next(i for i, l in enumerate(lines) if l.startswith(header))
                     for header in SECTION_HEADERS]
        assert positions == sorted(positions)

    def test_line_width_bound_on_goldens(self):
        for name in ("void.label.txt", "suicide_risk.label.txt"):
            lines = read_golden(name).decode().splitlines()
            assert len(lines) <= 80
            assert all(len(line) <= 64 for line in lines)

    def test_random_labels_fit_width(self):
        rng = random.Random(31)
        for _ in range(200):
            label = random_label(rng)
            text = render_text(label)
            assert all(len(line) <= 64 for line in text.splitlines())

    def test_no_trailing_spaces_single_final_newline(self):
        rng = random.Random(37)
        for _ in range(50):
            text = render_text(random_label(rng))
            assert text.endswith("\n") and not text.endswith("\n\n")
            assert all(line == line.rstrip() for line in text.splitlines())

    def test_deterministic(self):
        rng = random.Random(41)
        label = random_label(rng)
        assert render_text(label) == render_text(label)

    def test_wide_budget_respected(self):
        label = make_label()
        text = render_text(label, RenderBudget(width=100))
        assert max(len(l) for l in text.splitlines()) <= 100
        assert "=" * 100 in text

    def test_budget_limits(self):
        with pytest.raises(ValueError):
            RenderBudget(width=20)
        with pytest.raises(ValueError):
            RenderBudget(max_lines=5)

    def test_state_flip_changes_exactly_one_line(self):
        label = from_canonical_json(read_golden("void.label.json"))
        flipped = flip_one_cell(label, ProvenanceState.UNKNOWN_AVAILABILITY)
        before = render_text(label).splitlines()
        after = render_text(flipped).splitlines()
        assert len(before) == len(after)
        diffs = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert len(diffs) == 1
        assert "[unknown]" in after[diffs[0]]


class TestRenderHtml:
    def test_goldens_well_formed(self):
        for name in ("void.label.json", "suicide_risk.label.json"):
            assert_well_formed(render_html(from_canonical_json(read_golden(name))))

    def test_html_golden_bytes(self):
        for base in ("void", "suicide_risk"):
            label = from_canonical_json(read_golden(f"{base}.label.json"))
            assert render_html(label).encode() == read_golden(f"{base}.label.html")

    def test_random_labels_well_formed(self):
        rng = random.Random(43)
        for _ in range(60):
            assert_well_formed(render_html(random_label(rng)))

    def _demographics_table(self, html_text: str) -> str:
        start = html_text.index('<table id="demographics">')
        return html_text[start:html_text.index("</table>", start)]

    def test_void_has_48_red_demographic_cells(self):
        html_text = render_html(from_canonical_json(read_golden("void.label.json")))
        assert self._demographics_table(html_text).count("prov-red") == 48

    def test_suicide_risk_cell_colors(self):
        html_text = render_html(from_canonical_json(read_golden("suicide_risk.label.json")))
        demo = self._demographics_table(html_text)
        assert demo.count("prov-green") == 39   # race, female/male/other gender, age
        assert demo.count("prov-yellow") == 9   # trans and nonbinary rows

    def test_fully_reported_label_has_no_colored_cells(self):
        from conftest import canonical_category
        from modelfacts.label import DatasetInfo, MetricValue

        label = make_label(
            optimized=MetricValue("AUC", Provenance.reported(0.9), Provenance.reported(5.0)),
            standard=MetricValue("F1", Provenance.reported(0.4), Provenance.reported(2.0)),
            dataset=DatasetInfo(Provenance.reported(100), Provenance.reported(70.0),
                                Provenance.reported(30.0)),
            demographics=tuple(
                canonical_category(n, state=lambda: Provenance.reported(1.0))
                for n in ("Race", "Gender", "Age")
            ),
        )
        html_text = render_html(label)
        body = html_text[html_text.index("<body>"):]
        assert "prov-" not in body

    def test_state_flip_changes_exactly_one_cell(self):
        label = from_canonical_json(read_golden("void.label.json"))
        flipped = flip_one_cell(label, ProvenanceState.AVAILABLE_UNREPORTED)
        before = render_html(label).splitlines()
        after = render_html(flipped).splitlines()
        diffs = [(a, b) for a, b in zip(before, after) if a != b]
        assert len(diffs) == 1
        assert diffs[0][1].count("prov-green") == 1

    def test_escapes_markup(self):
        label = make_label(application="Ranks <cases> & flags them")
        html_text = render_html(label)
        assert "&lt;cases&gt; &amp; flags" in html_text
        assert "<cases>" not in html_text


# What each unreported state shows: its text-form cell and its HTML cell.
UNREPORTED_CELLS = {
    ProvenanceState.AVAILABLE_UNREPORTED: ("[not reported]",
                                           '<td class="prov-green">not reported</td>'),
    ProvenanceState.UNKNOWN_AVAILABILITY: ("[unknown]", '<td class="prov-yellow">unknown</td>'),
    ProvenanceState.NOT_COLLECTED: ("[not collected]", '<td class="prov-red">not collected</td>'),
}


class TestUnreportedCells:
    def test_each_unreported_state_has_one_prebuilt_text_and_html_cell(self):
        assert set(render._CELL_TEXT) == set(render._CELL_TD) == set(UNREPORTED_CELLS)
        assert ProvenanceState.REPORTED not in render._CELL_TEXT
        for state, (text, td) in UNREPORTED_CELLS.items():
            assert (render._CELL_TEXT[state], render._CELL_TD[state]) == (text, td)
            assert f'class="prov-{PROVENANCE_COLORS[state]}"' in td

    @pytest.mark.parametrize("state", list(UNREPORTED_CELLS), ids=repr)
    def test_a_label_shows_each_unreported_cell_in_text_and_html(self, state):
        # The count column, 13 wide, would wrap "[not reported]", so the count is reported.
        cell = lambda: Provenance(state)  # noqa: E731
        label = make_label(
            optimized=MetricValue("AUC", Provenance.reported(0.9), cell()),
            dataset=DatasetInfo(Provenance.reported(1000), cell(), cell()),
            demographics=tuple(canonical_category(name, cell) for name in CANONICAL_CATEGORY_ORDER))
        held = sum(c.state is state for _, c in provenance_cells(label))
        text, td = UNREPORTED_CELLS[state]
        assert held >= 51
        assert render_text(label).count(text) == held
        assert render_html(label).count(td) == held
        assert render_html(label).count('<td class="num">') == sum(
            c.is_reported for _, c in provenance_cells(label))


def _with_target(value):
    row = DemographicGroupRow("Asian", Provenance.reported(25.0), Provenance.reported(0.75),
                              Provenance.reported(value))
    return make_label(demographics=(DemographicCategory("Race", (row,)),))


class TestCanonicalJson:
    def test_double_serialization_is_stable(self):
        label = make_label()
        assert to_canonical_json(label) == to_canonical_json(label)

    def test_void_golden_bytes(self):
        label = from_canonical_json(read_golden("void.label.json"))
        assert to_canonical_json(label) == read_golden("void.label.json")

    def test_round_trip_identity(self):
        rng = random.Random(47)
        for _ in range(200):
            label = random_label(rng)
            data = to_canonical_json(label)
            again = from_canonical_json(data)
            assert again == label
            assert to_canonical_json(again) == data

    def test_keys_sorted_and_newline_terminated(self):
        data = to_canonical_json(make_label())
        assert data.endswith(b"\n") and not data.endswith(b"\n\n")
        doc = json.loads(data)
        assert list(doc) == sorted(doc)

    def test_empty_warnings_serialized_explicitly(self):
        label = make_label(warnings=())
        assert b'"warnings":[]' in to_canonical_json(label)

    def test_unknown_field_rejected(self):
        doc = json.loads(read_golden("void.label.json"))
        doc["extra"] = 1
        with pytest.raises(SchemaError):
            from_canonical_json(json.dumps(doc))

    def test_missing_demographics_names_path(self):
        doc = json.loads(read_golden("void.label.json"))
        doc.pop("demographics")
        with pytest.raises(SchemaError) as err:
            from_canonical_json(json.dumps(doc))
        assert "demographics" in str(err.value)

    def test_unsupported_version(self):
        doc = json.loads(read_golden("void.label.json"))
        doc["schema_version"] = "99.0"
        with pytest.raises(UnsupportedVersionError):
            from_canonical_json(json.dumps(doc))

    def test_state_flip_changes_exactly_one_leaf(self):
        label = from_canonical_json(read_golden("void.label.json"))
        flipped = flip_one_cell(label, ProvenanceState.UNKNOWN_AVAILABILITY)
        before = json.loads(to_canonical_json(label))
        after = json.loads(to_canonical_json(flipped))

        def leaf_diffs(a, b, path=""):
            if isinstance(a, dict) and isinstance(b, dict):
                out = []
                for key in sorted(set(a) | set(b)):
                    out += leaf_diffs(a.get(key), b.get(key), f"{path}.{key}")
                return out
            if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
                out = []
                for i, (x, y) in enumerate(zip(a, b)):
                    out += leaf_diffs(x, y, f"{path}[{i}]")
                return out
            return [] if a == b else [path]

        diffs = leaf_diffs(before, after)
        assert diffs == [".demographics[1].rows[5].pct_in_test.state"]

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1" + "0" * 400])
    def test_non_finite_number_rejected(self, literal):
        text = read_golden("void.label.json").decode()
        doc = json.loads(text)
        doc["accuracy"]["optimized"]["raw_score"] = {"state": "reported", "value": 0.25}
        text = json.dumps(doc).replace("0.25", literal)
        with pytest.raises(SchemaError) as err:
            from_canonical_json(text)
        assert err.value.path == "accuracy.optimized.raw_score.value"

    @pytest.mark.parametrize("edit, path, reason", [
        (lambda d: d["application"].update(model_train_date="2012-13"),
         "application.model_train_date", "invalid date '2012-13': month 13 out of range"),
        (lambda d: d["application"]["test_data_range"].update(start=2013),
         "application.test_data_range.start", "date must be a string, got int"),
        (lambda d: d["application"]["test_data_range"].update(start="2014"),
         "application.test_data_range", "range start 2014 is after end 2013"),
        (lambda d: d["application"].update(application=5),
         "application.application", "must be a string, got int"),
        (lambda d: d["application"].update(application=" "),
         "application", "application text must be non-empty"),
        (lambda d: d["warnings"].append(3), "warnings[2]", "must be a string, got int"),
        (lambda d: d["demographics"][1]["rows"][2].update(group_name=None),
         "demographics[1].rows[2].group_name", "must be a string, got NoneType"),
        (lambda d: d["accuracy"]["optimized"].update(raw_score={"state": "reported"}),
         "accuracy.optimized.raw_score", "reported state requires a value"),
        (lambda d: d["dataset"].update(train_pct={"state": "not_collected", "value": 1}),
         "dataset.train_pct", "state 'not_collected' cannot carry a value"),
        (lambda d: d["demographics"][0]["rows"][3].update(
            target_stat={"state": "reported", "value": 5.0}),
         "demographics[0].rows[3].target_stat.value",
         "target stat must be {pct_target} or {mean, std}"),
        (lambda d: d["demographics"][0]["rows"][3].update(
            target_stat={"state": "reported", "value": {"pct_target": "5"}}),
         "demographics[0].rows[3].target_stat.value.pct_target",
         "expected a finite number, got '5'"),
        (lambda d: d["demographics"][2].update(category_name=7),
         "demographics[2].category_name", "must be a string, got int"),
        (lambda d: d["accuracy"]["standard"].update(pct_over_baseline={"state": "missing"}),
         "accuracy.standard.pct_over_baseline", "unknown provenance state 'missing'"),
        (lambda d: d["dataset"].update(sample_count={"state": "reported", "value": 120.0}),
         "dataset.sample_count.value", "expected an integer, got 120.0"),
        (lambda d: d.update(extra=1), "(top level)", "unknown keys ['extra']"),
        (lambda d: d.update(warnings="Do not use"), "warnings", "expected a list, got str"),
        (lambda d: d.update(demographics={}), "demographics", "expected a list, got dict"),
        (lambda d: d["demographics"][1].update(rows=None), "demographics[1].rows",
         "expected a list, got NoneType"),
        (lambda d: d["dataset"].update(rows=1, count=2), "dataset",
         "unknown keys ['count', 'rows']"),
        (lambda d: d.update(dataset={"rows": 1}), "dataset",
         "missing keys ['sample_count', 'test_pct', 'train_pct']"),
        (lambda d: d["accuracy"]["optimized"].update(
            raw_score={"state": "reported", "value": 0.5, "note": "x"}),
         "accuracy.optimized.raw_score", "unknown keys ['note']"),
    ], ids=["train-date", "range-start-type", "range-inverted", "application-type",
            "application-blank", "warning-type", "group-name-type", "reported-without-value",
            "not-collected-with-value", "target-shape", "target-pct", "category-name-type",
            "unknown-state", "float-count", "unknown-top-level-key", "warnings-not-a-list",
            "demographics-not-a-list", "rows-not-a-list", "unknown-object-keys",
            "missing-before-unknown-keys", "unknown-cell-key"])
    def test_schema_error_names_the_field(self, edit, path, reason):
        doc = json.loads(read_golden("void.label.json"))
        edit(doc)
        with pytest.raises(SchemaError) as err:
            from_canonical_json(json.dumps(doc))
        assert (err.value.path, err.value.reason) == (path, reason)
        assert str(err.value) == f"SCHEMA_ERROR: at '{path}': {reason}"

    def test_non_utf8_rejected(self):
        with pytest.raises(SchemaError):
            from_canonical_json(b"\xff\xfe{}")

    @pytest.mark.parametrize("label, error, path, reason", [
        (make_label(optimized=MetricValue("AUC", Provenance.reported(True),
                                          Provenance.reported(12.5))),
         SchemaError, "accuracy.optimized.raw_score.value", "expected a finite number, got True"),
        (make_label(dataset=DatasetInfo(Provenance.reported(5.0), Provenance.reported(70.0),
                                        Provenance.reported(30.0))),
         SchemaError, "dataset.sample_count.value", "expected an integer, got 5.0"),
        (_with_target(PctTarget(True)), SchemaError,
         "demographics[0].rows[0].target_stat.value.pct_target",
         "expected a finite number, got True"),
        (_with_target(MeanStd(40.0, [1.5])), SchemaError,
         "demographics[0].rows[0].target_stat.value.std", "expected a finite number, got [1.5]"),
        (make_label(warnings=("Do not use outside the tested population.", 3)), SchemaError,
         "warnings[1]", "must be a string, got int"),
        (dataclasses.replace(make_label(), schema_version="2.0"), UnsupportedVersionError, None,
         "schema_version '2.0' not in supported set ['1.0']"),
    ], ids=["number", "count", "pct-target", "std", "text", "version"])
    def test_the_writer_refuses_a_leaf_as_the_reader_does(self, label, error, path, reason):
        with pytest.raises(error) as written:
            to_canonical_json(label)
        with pytest.raises(error) as read:
            from_canonical_json(json.dumps(encode_label(label)))
        for err in (written.value, read.value):
            if path is None:
                assert err.message == reason
            else:
                assert (err.path, err.reason) == (path, reason)
        assert str(written.value) == str(read.value)

    def test_the_writer_names_the_first_refused_leaf_in_key_order(self):
        # The reader decodes a metric's name, raw score and percentage in that order, so it
        # names the raw score; the writer writes pct_over_baseline first.
        label = make_label(optimized=MetricValue("AUC", Provenance.reported("0.9"),
                                                 Provenance.reported("12.5")))
        with pytest.raises(SchemaError) as err:
            to_canonical_json(label)
        assert err.value.path == "accuracy.optimized.pct_over_baseline.value"
