"""Label data model, structural validation, and completeness scoring."""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from conftest import canonical_category, make_label, provenance_cells, random_label, read_golden
from modelfacts.codec import from_canonical_json, to_canonical_json
from modelfacts.label import (
    PROVENANCE_COLORS,
    DatasetInfo,
    DemographicCategory,
    DemographicGroupRow,
    MetricValue,
    ModelType,
    PartialDate,
    DateRange,
    Provenance,
    ProvenanceState,
    ViolationCode,
    completeness,
    sentence_terminator_count,
    validate_label,
)
from modelfacts.render import RenderBudget, render_text


class TestProvenance:
    def test_reported_needs_value(self):
        with pytest.raises(ValueError):
            Provenance(ProvenanceState.REPORTED)

    def test_markers_cannot_carry_value(self):
        with pytest.raises(ValueError):
            Provenance(ProvenanceState.NOT_COLLECTED, 5)

    @pytest.mark.parametrize("state, value", [("reported", None), ("not_collected", None),
                                              (None, None), ("reported", 1.0)])
    def test_a_state_that_is_not_a_member_is_refused(self, state, value):
        # The state's name is not the state: without the check such a cell would
        # read as unreported and fail later, inside the encoder.
        with pytest.raises(ValueError, match=f"{state!r} is not a provenance state"):
            Provenance(state, value)

    def test_color_mapping_is_total(self):
        assert PROVENANCE_COLORS == {
            ProvenanceState.REPORTED: None,
            ProvenanceState.AVAILABLE_UNREPORTED: "green",
            ProvenanceState.UNKNOWN_AVAILABILITY: "yellow",
            ProvenanceState.NOT_COLLECTED: "red",
        }

    @pytest.mark.parametrize("member", [*ProvenanceState, *ModelType], ids=repr)
    def test_a_member_finds_its_dict_entry_after_a_pickle_round_trip_and_a_deepcopy(self, member):
        # Members hash by identity, so every copy must be the member itself.
        assert hash(member) == object.__hash__(member)
        table = {m: m.value for m in type(member)}
        for again in (pickle.loads(pickle.dumps(member)), copy.deepcopy(member)):
            assert again is member
            assert table[again] == member.value
        if isinstance(member, ModelType):
            label = make_label(model_type=member)
        else:
            train = (Provenance.reported(70.0) if member is ProvenanceState.REPORTED
                     else Provenance(member))
            label = make_label(dataset=DatasetInfo(Provenance.reported(1000), train,
                                                   Provenance.reported(30.0)))
        for again in (pickle.loads(pickle.dumps(label)), copy.deepcopy(label)):
            assert completeness(again) == completeness(label)
            assert render_text(again) == render_text(label)


class TestDates:
    def test_partial_precision(self):
        assert PartialDate(2012).isoformat() == "2012"
        assert PartialDate(2012, 5).isoformat() == "2012-05"
        assert PartialDate(2012, 5, 19).isoformat() == "2012-05-19"

    def test_day_requires_month(self):
        with pytest.raises(ValueError):
            PartialDate(2012, None, 3)

    @pytest.mark.parametrize("parts, reason", [
        ((0,), "year 0 out of range"),
        ((10000,), "year 10000 out of range"),
        ((2021, 4, 31), "day 31 out of range for 2021-04"),
        ((2021, 2, 29), "day 29 out of range for 2021-02"),
    ], ids=["year-0", "year-10000", "april-31", "february-29"])
    def test_a_date_outside_the_calendar_is_refused(self, parts, reason):
        with pytest.raises(ValueError) as err:
            PartialDate(*parts)
        assert str(err.value) == reason
        assert PartialDate(2024, 2, 29).isoformat() == "2024-02-29"

    def test_february_29_follows_the_gregorian_leap_rule(self):
        for year in (2000, 2024):
            assert PartialDate(year, 2, 29).isoformat() == f"{year}-02-29"
        for year in (1900, 2100):
            with pytest.raises(ValueError, match=f"day 29 out of range for {year}-02"):
                PartialDate(year, 2, 29)

    def test_range_order_enforced(self):
        with pytest.raises(ValueError):
            DateRange(PartialDate(2015), PartialDate(1996))

    def test_single_year_range(self):
        r = DateRange(PartialDate(2013), PartialDate(2013))
        assert r.isoformat() == "2013"


class TestSentenceCounting:
    def test_plain_sentences(self):
        assert sentence_terminator_count("Predicts risk") == 0
        assert sentence_terminator_count("Predicts risk.") == 1
        assert sentence_terminator_count("Predicts risk. Also ranks people.") == 2

    def test_abbreviations_do_not_count(self):
        assert sentence_terminator_count("Screens U.S. hospital intakes") == 0
        assert sentence_terminator_count("Ranks cases (e.g. referrals) for review.") == 1

    def test_question_and_bang(self):
        assert sentence_terminator_count("Why? Because!") == 2


class TestValidateLabel:
    def test_golden_labels_have_no_violations(self):
        for name in ("void.label.json", "suicide_risk.label.json"):
            label = from_canonical_json(read_golden(name))
            assert validate_label(label) == []

    def test_two_sentences_flagged(self):
        label = make_label(application="Predicts risk. Also ranks people.")
        codes = [v.code for v in validate_label(label)]
        assert codes == [ViolationCode.APPLICATION_TOO_LONG]

    def test_overlong_application_flagged(self):
        label = make_label(application="x" * 201)
        codes = [v.code for v in validate_label(label)]
        assert ViolationCode.APPLICATION_TOO_LONG in codes

    def test_page_overflow_from_category_bloat(self):
        extra = tuple(
            DemographicCategory(f"Extra {i}", (DemographicGroupRow.all_not_collected("Group"),))
            for i in range(40)
        )
        label = make_label(demographics=make_label().demographics + extra)
        codes = [v.code for v in validate_label(label)]
        assert ViolationCode.PAGE_OVERFLOW in codes

    def test_non_normalized_metric(self):
        optimized = MetricValue("CrossEntropy", Provenance.reported(2.31),
                                Provenance.not_collected())
        label = make_label(optimized=optimized)
        codes = [v.code for v in validate_label(label)]
        assert codes == [ViolationCode.NON_NORMALIZED_METRIC]

    def test_unbounded_metric_with_pct_companion_is_fine(self):
        optimized = MetricValue("CrossEntropy", Provenance.reported(2.31),
                                Provenance.reported(15.0))
        assert validate_label(make_label(optimized=optimized)) == []

    def test_missing_canonical_category(self):
        kept = tuple(canonical_category(n) for n in ("Race", "Gender"))
        label = make_label(demographics=kept)
        violations = validate_label(label)
        assert [v.code for v in violations] == [ViolationCode.MISSING_CANONICAL_CATEGORY]
        assert violations[0].location == "demographics.Age"

    def test_missing_canonical_row(self):
        race = canonical_category("Race")
        truncated = DemographicCategory("Race", race.rows[1:])
        label = make_label(demographics=(truncated, canonical_category("Gender"),
                                         canonical_category("Age")))
        codes = [v.code for v in validate_label(label)]
        assert codes == [ViolationCode.MISSING_CANONICAL_CATEGORY]

    def test_standard_metric_mismatch(self):
        standard = MetricValue("Accuracy", Provenance.reported(0.9), Provenance.not_collected())
        label = make_label(model_type=ModelType.IMBALANCED_CLASSIFICATION, standard=standard)
        codes = [v.code for v in validate_label(label)]
        assert codes == [ViolationCode.STANDARD_METRIC_MISMATCH]

    def test_split_inconsistent(self):
        dataset = DatasetInfo(Provenance.reported(100),
                              Provenance.reported(80.0), Provenance.reported(30.0))
        label = make_label(dataset=dataset)
        codes = [v.code for v in validate_label(label)]
        assert codes == [ViolationCode.SPLIT_INCONSISTENT]

    def test_holdout_split_is_fine(self):
        dataset = DatasetInfo(Provenance.reported(100),
                              Provenance.reported(60.0), Provenance.reported(20.0))
        assert validate_label(make_label(dataset=dataset)) == []

    def test_value_out_of_range(self):
        optimized = MetricValue("AUC", Provenance.reported(1.2), Provenance.reported(5.0))
        label = make_label(optimized=optimized)
        codes = [v.code for v in validate_label(label)]
        assert codes == [ViolationCode.VALUE_OUT_OF_RANGE]

    @pytest.mark.parametrize("name", ["auc ", "A-U-C", "R 2", "f_1", "Accuracy "])
    def test_range_rule_applies_to_any_spelling(self, name):
        optimized = MetricValue(name, Provenance.reported(1.7), Provenance.reported(5.0))
        violations = validate_label(make_label(optimized=optimized))
        assert [(v.code, v.location) for v in violations] == [
            (ViolationCode.VALUE_OUT_OF_RANGE, "accuracy.optimized.raw_score")]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_cell_out_of_range(self, value):
        dataset = DatasetInfo(Provenance.reported(100), Provenance.reported(value),
                              Provenance.reported(20.0))
        violations = validate_label(make_label(dataset=dataset))
        assert ViolationCode.VALUE_OUT_OF_RANGE in [v.code for v in violations]

    def test_negative_pct_in_test_out_of_range(self):
        race = canonical_category("Race")
        rows = (DemographicGroupRow("Asian", Provenance.reported(-3.0),
                                    Provenance.not_collected(), Provenance.not_collected()),) + race.rows[1:]
        bad = DemographicCategory("Race", rows)
        label = make_label(demographics=(bad, canonical_category("Gender"),
                                         canonical_category("Age")))
        violations = validate_label(label)
        assert [v.code for v in violations] == [ViolationCode.VALUE_OUT_OF_RANGE]
        assert violations[0].location == "demographics.Race.Asian.pct_in_test"

    @pytest.mark.parametrize("model_type, metric, accuracy, message", [
        (ModelType.REGRESSION, "R2", -3.03, None),
        (ModelType.REGRESSION, "R2", 1.2, "group accuracy 1.2 outside (-inf, 1.0]"),
        (ModelType.IMBALANCED_CLASSIFICATION, "AUC", 1.2, "group accuracy 1.2 outside [0.0, 1.0]"),
        (ModelType.IMBALANCED_CLASSIFICATION, "auc", -0.1, "group accuracy -0.1 outside [0.0, 1.0]"),
        (ModelType.REGRESSION, "MSE", 12.5, None),  # a metric without a known range
    ])
    def test_group_accuracy_obeys_the_optimized_metrics_range(self, model_type, metric, accuracy,
                                                              message):
        # A group's accuracy is the optimized metric's score on the group: an R2 can be negative.
        race = canonical_category("Race")
        rows = (DemographicGroupRow("Asian", Provenance.reported(20.0), Provenance.reported(accuracy),
                                    Provenance.not_collected()),) + race.rows[1:]
        label = make_label(model_type=model_type,
                           optimized=MetricValue(metric, Provenance.not_collected(),
                                                 Provenance.not_collected()),
                           demographics=(DemographicCategory("Race", rows),
                                         canonical_category("Gender"), canonical_category("Age")))
        violations = [(v.code, v.location, v.message) for v in validate_label(label)]
        assert violations == ([] if message is None else [(
            ViolationCode.VALUE_OUT_OF_RANGE, "demographics.Race.Asian.group_accuracy", message)])

    def test_honest_gaps_are_not_violations(self):
        label = make_label(
            optimized=MetricValue("AUC", Provenance.not_collected(), Provenance.not_collected()),
            standard=MetricValue("F1", Provenance.unknown_availability(),
                                 Provenance.available_unreported()),
            dataset=DatasetInfo(Provenance.not_collected(), Provenance.not_collected(),
                                Provenance.not_collected()),
        )
        assert validate_label(label) == []

    def test_deterministic_and_sorted_by_location(self):
        label = make_label(
            application="One. Two. Three.",
            optimized=MetricValue("AUC", Provenance.reported(1.5), Provenance.not_collected()),
            dataset=DatasetInfo(Provenance.reported(10),
                                Provenance.reported(90.0), Provenance.reported(40.0)),
        )
        first = validate_label(label)
        second = validate_label(label)
        assert first == second
        assert [v.location for v in first] == sorted(v.location for v in first)

    def test_stable_under_round_trip(self):
        rng = random.Random(2024)
        for _ in range(60):
            label = random_label(rng)
            reparsed = from_canonical_json(to_canonical_json(label))
            assert validate_label(label) == validate_label(reparsed)

    def test_tight_budget_triggers_overflow(self):
        label = make_label()
        assert validate_label(label, RenderBudget(max_lines=80, width=64)) == []
        codes = [v.code for v in validate_label(label, RenderBudget(max_lines=24, width=64))]
        assert codes == [ViolationCode.PAGE_OVERFLOW]


class TestCompleteness:
    def test_fully_reported(self):
        label = make_label(demographics=tuple(
            canonical_category(n, state=lambda: Provenance.reported(1.0))
            for n in ("Race", "Gender", "Age")
        ))
        report = completeness(label)
        total = sum(report.tally.values())
        assert report.reported_fraction == pytest.approx((total - 1) / total)
        # the default standard metric carries one not-collected pct cell
        assert report.tally[ProvenanceState.NOT_COLLECTED] == 1

    def test_void_reconstruction_counts(self):
        label = from_canonical_json(read_golden("void.label.json"))
        report = completeness(label)
        # 48 demographic cells + 2 standard-accuracy cells + the train split
        assert report.tally[ProvenanceState.NOT_COLLECTED] == 51
        assert report.tally[ProvenanceState.REPORTED] == 4
        assert sum(report.tally.values()) == 55
        assert report.reported_fraction == pytest.approx(4 / 55)

    def test_suicide_risk_reconstruction_states(self):
        label = from_canonical_json(read_golden("suicide_risk.label.json"))
        report = completeness(label)
        assert report.tally[ProvenanceState.AVAILABLE_UNREPORTED] == 39
        assert report.tally[ProvenanceState.UNKNOWN_AVAILABILITY] == 9
        assert report.tally[ProvenanceState.NOT_COLLECTED] == 2
        assert report.tally[ProvenanceState.REPORTED] == 5

    def test_tally_totals_match_cell_count(self):
        rng = random.Random(5)
        for _ in range(40):
            label = random_label(rng)
            report = completeness(label)
            assert sum(report.tally.values()) == len(provenance_cells(label))

    def test_reporting_a_cell_never_decreases_fraction(self):
        label = from_canonical_json(read_golden("void.label.json"))
        before = completeness(label).reported_fraction
        doc = to_canonical_json(label).decode()
        upgraded = doc.replace('{"state":"not_collected"}',
                               '{"state":"reported","value":1.0}', 1)
        after = completeness(from_canonical_json(upgraded)).reported_fraction
        assert after >= before
