"""Metric computations against hand counts and independent brute-force oracles."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import random
from array import array
from collections import Counter

import pytest

from conftest import make_label
from modelfacts.errors import (
    BadValueError,
    DuplicateIdError,
    EmptyDatasetError,
    LengthMismatchError,
    MissingColumnError,
    NumericOverflowError,
    SchemaError,
    SingleClassError,
    UnknownCategoryError,
    UnknownMetricError,
    ZeroBaselineError,
    ZeroVarianceError,
)
from modelfacts.ingest import parse_label_manifest, parse_predictions
from modelfacts.label import (
    MeanStd,
    MetricValue,
    ModelType,
    PctTarget,
    Provenance,
    ProvenanceState,
    ViolationCode,
    validate_label,
)
from modelfacts.metrics import (
    METRIC_SPECS,
    ConfusionCounts,
    Direction,
    PredictionDataset,
    PredictionRecord,
    auc,
    group_breakdown,
    majority_class_baseline,
    make_scorer,
    metric_direction,
    metric_spec,
    percent_over_baseline,
    precision_recall_f1,
    select_standard_metric,
    standard_accuracy,
    _mean_ss,
    _squared_errors,
)


def brute_force_auc(scores, truth, positive_class) -> float:
    """Oracle: count every (positive, negative) pair, ties worth one half."""
    pos = [s for s, t in zip(scores, truth) if t == positive_class]
    neg = [s for s, t in zip(scores, truth) if t != positive_class]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_force_prf(truth, predicted, positive_class):
    """Oracle: recount the confusion matrix from scratch."""
    tp = sum(1 for t, p in zip(truth, predicted) if t == positive_class and p == positive_class)
    fp = sum(1 for t, p in zip(truth, predicted) if t != positive_class and p == positive_class)
    fn = sum(1 for t, p in zip(truth, predicted) if t == positive_class and p != positive_class)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


class TestStandardAccuracy:
    def test_hand_count(self):
        truth = [1, 0, 1, 1, 0, 0, 1, 0]
        predicted = [1, 0, 0, 1, 0, 1, 1, 0]  # 6 of 8 match
        assert standard_accuracy(truth, predicted) == 0.75

    def test_identity(self):
        values = ["a", "b", "a", "c"]
        assert standard_accuracy(values, list(values)) == 1.0

    def test_empty(self):
        with pytest.raises(EmptyDatasetError):
            standard_accuracy([], [])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            standard_accuracy([1, 0], [1])


class TestPrecisionRecallF1:
    def test_hand_confusion(self):
        # tp=2, fp=1, fn=1: truth has 3 positives, predictions hit 2 of them
        truth = [1, 1, 1, 0, 0]
        predicted = [1, 1, 0, 1, 0]
        p, r, f1 = precision_recall_f1(truth, predicted, 1)
        assert p == pytest.approx(0.6667, abs=1e-4)
        assert r == pytest.approx(0.6667, abs=1e-4)
        assert f1 == pytest.approx(0.6667, abs=1e-4)

    def test_perfect(self):
        truth = [1, 0, 1]
        assert precision_recall_f1(truth, truth, 1) == (1.0, 1.0, 1.0)

    def test_no_predicted_positives(self):
        assert precision_recall_f1([1, 1, 0], [0, 0, 0], 1) == (0.0, 0.0, 0.0)

    def test_confusion_counts_partition(self):
        cm = ConfusionCounts.from_labels([1, 1, 0, 0, 1], [1, 0, 0, 1, 1], 1)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 1, 1)
        assert cm.tp + cm.fp + cm.tn + cm.fn == 5

    def test_matches_brute_force_recount(self):
        rng = random.Random(421)
        for _ in range(300):
            n = rng.randint(1, 200)
            truth = [rng.randint(0, 1) for _ in range(n)]
            predicted = [rng.randint(0, 1) for _ in range(n)]
            assert precision_recall_f1(truth, predicted, 1) == brute_force_prf(truth, predicted, 1)


class TestAuc:
    def test_four_pair_hand_case(self):
        scores = [0.8, 0.4, 0.6, 0.2]
        truth = [1, 1, 0, 0]
        # pairs: (.8,.6)+ (.8,.2)+ (.4,.6)- (.4,.2)+ -> 3/4
        assert auc(scores, truth, 1) == 0.75

    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], 1) == 1.0

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0], 1) == 0.5

    def test_single_class(self):
        with pytest.raises(SingleClassError):
            auc([0.1, 0.2], [1, 1], 1)

    def test_agrees_with_pair_counting(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 60)
            truth = [rng.randint(0, 1) for _ in range(n)]
            if len(set(truth)) < 2:
                truth[0], truth[1] = 0, 1
            scores = [rng.choice([0.1, 0.25, 0.5, 0.75, rng.random()]) for _ in range(n)]
            assert auc(scores, truth, 1) == pytest.approx(
                brute_force_auc(scores, truth, 1), abs=1e-9)

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(11)
        truth = [rng.randint(0, 1) for _ in range(50)] + [0, 1]
        scores = [rng.choice([0.2, 0.4, rng.random()]) for _ in range(52)]
        transformed = [math.exp(3 * s) + 1 for s in scores]
        assert auc(scores, truth, 1) == auc(transformed, truth, 1)

    def test_negation_complements_without_ties(self):
        rng = random.Random(13)
        scores = rng.sample(range(1000), 40)
        truth = [rng.randint(0, 1) for _ in range(40)]
        truth[0], truth[1] = 0, 1
        forward = auc(scores, truth, 1)
        backward = auc([-s for s in scores], truth, 1)
        assert forward + backward == pytest.approx(1.0, abs=1e-12)


class TestRegressionSums:
    """_mean_ss gives the truth's mean, population std and SS_tot, _squared_errors each
    row's squared residual, and the R2 scorer R2 = 1 - SS_res/SS_tot from their sums."""

    @staticmethod
    def r2(truth, predicted):
        dataset = PredictionDataset.from_columns(None, truth, predicted, None, {}, None, ())
        return make_scorer("R2")(dataset)

    def test_identity(self):
        assert self.r2([1.0, 2.0, 4.0], [1.0, 2.0, 4.0]) == 1.0

    def test_constant_mean_prediction(self):
        assert self.r2([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0

    def test_hand_case(self):
        mean, std, ss_tot = _mean_ss([1.0, 2.0, 3.0])
        assert (mean, ss_tot) == (2.0, 2.0)
        assert std == pytest.approx(math.sqrt(2 / 3), abs=1e-9)
        assert _squared_errors([1.0, 2.0, 3.0], [1.0, 2.0, 2.0]) == array("d", [0.0, 0.0, 1.0])
        assert self.r2([1.0, 2.0, 3.0], [1.0, 2.0, 2.0]) == pytest.approx(0.5)

    def test_zero_variance_keeps_mean_std(self):
        assert _mean_ss([5.0, 5.0]) == (5.0, 0.0, 0.0)
        with pytest.raises(ZeroVarianceError):
            self.r2([5.0, 5.0], [4.0, 6.0])

    def test_empty(self):
        # The sums take a non-empty truth: a dataset without records is refused first.
        with pytest.raises(EmptyDatasetError):
            PredictionDataset([], None, ())


class TestPercentOverBaseline:
    def test_table_backsolved_baseline(self):
        baseline = 0.939 / 1.10  # back-solved from raw 0.939 at +10%
        assert percent_over_baseline(0.939, baseline, Direction.MAXIMIZE) == pytest.approx(10.0, abs=0.05)

    def test_equal_is_zero(self):
        for direction in Direction:
            assert percent_over_baseline(0.7, 0.7, direction) == 0.0

    def test_minimize_direction(self):
        assert percent_over_baseline(0.8, 1.0, Direction.MINIMIZE) == pytest.approx(20.0)

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaselineError):
            percent_over_baseline(0.5, 0.0, Direction.MAXIMIZE)

    def test_sign_tracks_improvement(self):
        assert percent_over_baseline(0.9, 0.8, Direction.MAXIMIZE) > 0
        assert percent_over_baseline(0.7, 0.8, Direction.MAXIMIZE) < 0
        assert percent_over_baseline(0.7, 0.8, Direction.MINIMIZE) > 0
        assert percent_over_baseline(0.9, 0.8, Direction.MINIMIZE) < 0


class TestStandardMetricSelection:
    def test_mapping(self):
        assert select_standard_metric(ModelType.BALANCED_CLASSIFICATION) == "Accuracy"
        assert select_standard_metric(ModelType.IMBALANCED_CLASSIFICATION) == "F1"
        assert select_standard_metric(ModelType.REGRESSION) == "R2"

    def test_direction_lookup(self):
        assert metric_direction("AUC") is Direction.MAXIMIZE
        assert metric_direction("r-2") is Direction.MAXIMIZE
        assert metric_direction("LogLoss") is Direction.MINIMIZE
        assert metric_direction("mean squared error") is Direction.MINIMIZE
        assert metric_direction("vibes") is None


def _spellings(name: str) -> list[str]:
    return [name, name.lower(), name.upper(), "-".join(name), "_".join(name.lower()),
            " ".join(name.upper()), f" {name} ", f"{name.lower()}-"]


def _manifest_for(name: str, classification: bool):
    doc = {
        "schema_version": "1.0",
        "application": "Scores intake cases",
        "model_type": "imbalanced_classification" if classification else "regression",
        "model_train_date": "2020",
        "test_data_range": "2021",
        "optimized_metric": {"name": name},
        "warnings": [],
    }
    if classification:
        doc["positive_class"] = "1"
    return parse_label_manifest(json.dumps(doc))


_SPELLINGS = [(spec, spelling) for spec in METRIC_SPECS.values() for spelling in _spellings(spec.name)]


@pytest.mark.parametrize("spec, spelling", _SPELLINGS,
                         ids=[f"{spec.name}-{spelling!r}" for spec, spelling in _SPELLINGS])
def test_every_spelling_reads_the_same_table_entry(spec, spelling):
    """Direction, range rule, required column and scorer agree for any spelling."""
    assert metric_spec(spelling) is spec
    assert metric_direction(spelling) is spec.direction

    label = make_label(optimized=MetricValue(spelling, Provenance.reported(1.7),
                                             Provenance.reported(5.0)))
    flagged = [v.location for v in validate_label(label)
               if v.code is ViolationCode.VALUE_OUT_OF_RANGE]
    assert flagged == (["accuracy.optimized.raw_score"] if spec.score_range else [])

    manifest = _manifest_for(spelling, spec.classification)
    with pytest.raises(MissingColumnError) as err:
        parse_predictions(io.StringIO("id,y_true\na,1\n"), manifest)
    assert err.value.column == ("score" if spec.needs_score else "y_pred")

    if spec.scorer is None:
        with pytest.raises(UnknownMetricError):
            make_scorer(spelling, "1")
        return
    rows = "id,y_true,y_pred,score\na,1,1,0.9\nb,0,1,0.4\nc,1,0,0.3\nd,0,0,0.1\ne,1,1,0.2\n"
    parsed = parse_predictions(io.StringIO(rows), manifest)
    dataset = PredictionDataset(parsed.records, parsed.positive_class, ())
    assert make_scorer(spelling, "1")(dataset) == make_scorer(spec.name, "1")(dataset)


def _record(i, truth, prediction, gender, score=None):
    return PredictionRecord(id=str(i), truth=truth, prediction=prediction,
                            score=score, attributes={"Gender": gender})


def ten_record_dataset() -> PredictionDataset:
    """6 Female (4 correct, 2 positives), 4 Male (2 correct, 1 positive)."""
    rows = [
        ("1", "1", "Female"),
        ("1", "0", "Female"),
        ("0", "0", "Female"),
        ("0", "0", "Female"),
        ("0", "0", "Female"),
        ("0", "1", "Female"),
        ("1", "0", "Male"),
        ("0", "0", "Male"),
        ("0", "0", "Male"),
        ("0", "1", "Male"),
    ]
    records = [_record(i, t, p, g) for i, (t, p, g) in enumerate(rows)]
    return PredictionDataset(records=tuple(records), positive_class="1",
                             attribute_schema=("Gender",))


class TestGroupBreakdown:
    def test_hand_counted_gender_split(self):
        dataset = ten_record_dataset()
        rows = {r.group_name: r for r in group_breakdown(dataset, "Gender", make_scorer("Accuracy"))}
        female, male = rows["Female"], rows["Male"]
        assert female.pct_in_test.value == pytest.approx(60.0)
        assert female.group_accuracy.value == pytest.approx(0.6667, abs=1e-4)
        assert female.target_stat.value == PctTarget(pytest.approx(33.3333, abs=1e-3))
        assert male.pct_in_test.value == pytest.approx(40.0)
        assert male.group_accuracy.value == pytest.approx(0.5)
        assert male.target_stat.value.pct == pytest.approx(25.0)

    def test_canonical_rows_always_emitted(self):
        dataset = ten_record_dataset()
        rows = group_breakdown(dataset, "Gender", make_scorer("Accuracy"))
        assert [r.group_name for r in rows] == [
            "Female", "Male", "Trans Female", "Trans Male", "Nonbinary", "Other"]
        empty = {r.group_name: r for r in rows}["Nonbinary"]
        assert empty.pct_in_test.state is ProvenanceState.NOT_COLLECTED
        assert empty.group_accuracy.state is ProvenanceState.NOT_COLLECTED

    def test_single_group_holds_all(self):
        records = tuple(_record(i, "1" if i % 3 == 0 else "0", "0", "Female")
                        for i in range(9))
        dataset = PredictionDataset(records, "1", ("Gender",))
        rows = {r.group_name: r for r in group_breakdown(dataset, "Gender", make_scorer("Accuracy"))}
        assert rows["Female"].pct_in_test.value == pytest.approx(100.0)
        overall = standard_accuracy([r.truth for r in records], [r.prediction for r in records])
        assert rows["Female"].group_accuracy.value == pytest.approx(overall)

    def test_unrecognized_value_maps_to_other(self):
        records = (_record(0, "1", "1", "unknown"), _record(1, "0", "0", "Female"))
        dataset = PredictionDataset(records, "1", ("Gender",))
        rows = {r.group_name: r for r in group_breakdown(dataset, "Gender", make_scorer("Accuracy"))}
        assert rows["Other"].pct_in_test.value == pytest.approx(50.0)

    def test_unknown_category(self):
        with pytest.raises(UnknownCategoryError):
            group_breakdown(ten_record_dataset(), "Creed", make_scorer("Accuracy"))

    def test_scorer_failure_becomes_unknown_availability(self):
        # Male group is all-negative, so a per-group AUC is undefined there.
        records = (
            _record(0, "1", None, "Female", score=0.9),
            _record(1, "0", None, "Female", score=0.2),
            _record(2, "0", None, "Male", score=0.4),
            _record(3, "0", None, "Male", score=0.6),
        )
        dataset = PredictionDataset(records, "1", ("Gender",))
        rows = {r.group_name: r for r in group_breakdown(dataset, "Gender",
                                                         make_scorer("AUC", "1"))}
        assert rows["Female"].group_accuracy.value == 1.0
        assert rows["Male"].group_accuracy.state is ProvenanceState.UNKNOWN_AVAILABILITY
        assert rows["Male"].pct_in_test.value == pytest.approx(50.0)

    def test_scorer_runs_once_per_non_empty_group(self):
        # Each group's scores reach its scorer in file order; Male is single-class,
        # so its AUC fails.
        records = (
            _record(0, "1", None, "Female", score=0.9),
            _record(1, "0", None, "Male", score=0.1),
            _record(2, "0", None, "Female", score=0.2),
            _record(3, "0", None, "Male", score=0.6),
            _record(4, "1", None, "unknown", score=0.3),
            _record(5, "0", None, "", score=0.7),
        )
        calls = []
        inner = make_scorer("AUC", "1")

        def scorer(group):
            calls.append(list(group.score))
            return inner(group)
        group_breakdown(PredictionDataset(records, "1", ("Gender",)), "Gender", scorer)
        assert calls == [[0.9, 0.2], [0.1, 0.6], [0.3, 0.7]]  # Female, Male, Other

    def test_order_insensitive(self):
        dataset = ten_record_dataset()
        shuffled = list(dataset.records)
        random.Random(3).shuffle(shuffled)
        reordered = PredictionDataset(tuple(shuffled), "1", ("Gender",))
        scorer = make_scorer("Accuracy")
        assert group_breakdown(dataset, "Gender", scorer) == group_breakdown(reordered, "Gender", scorer)

    def test_weighted_accuracy_identity(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(1, 120)
            records = tuple(
                _record(i, str(rng.randint(0, 1)), str(rng.randint(0, 1)),
                        rng.choice(["Female", "Male", "Nonbinary", "Other"]))
                for i in range(n)
            )
            dataset = PredictionDataset(records, "1", ("Gender",))
            rows = group_breakdown(dataset, "Gender", make_scorer("Accuracy"))
            weighted = sum(
                (row.pct_in_test.value / 100.0) * row.group_accuracy.value
                for row in rows if row.pct_in_test.is_reported
            )
            overall = standard_accuracy([r.truth for r in records],
                                        [r.prediction for r in records])
            assert weighted == pytest.approx(overall, abs=1e-9)
            share = sum(row.pct_in_test.value for row in rows if row.pct_in_test.is_reported)
            assert share == pytest.approx(100.0, abs=1e-6)

    def test_regression_group_targets(self):
        records = (
            PredictionRecord("a", 1.0, 1.0, attributes={"Age": "18-24"}),
            PredictionRecord("b", 2.0, 2.0, attributes={"Age": "18-24"}),
            PredictionRecord("c", 3.0, 2.0, attributes={"Age": "18-24"}),
        )
        dataset = PredictionDataset(records, None, ("Age",))
        rows = {r.group_name: r for r in group_breakdown(dataset, "Age", make_scorer("R2"))}
        target = rows["18-24"].target_stat.value
        assert isinstance(target, MeanStd)
        assert target.mean == 2.0
        assert target.std == pytest.approx(math.sqrt(2 / 3))


def regression_dataset(truth, predicted, genders) -> PredictionDataset:
    return PredictionDataset(tuple(PredictionRecord(f"r{i}", t, p, attributes={"Gender": g})
                                   for i, (t, p, g) in enumerate(zip(truth, predicted, genders))),
                             None, ("Gender",))


class TestSquaredErrorReuse:
    """A regression dataset squares each residual once, and a group sums the squares of
    the dataset it was gathered from over its rows."""

    GENDERS = ["Female", "Male", "Female", "Nonbinary", "Male", "Female", "x", "Male"]

    def dataset(self, predicted=None):
        rng = random.Random(61)
        truth = [round(rng.uniform(0, 50), 3) for _ in self.GENDERS]
        if predicted is None:
            predicted = [round(t + rng.gauss(0, 4), 3) for t in truth]
        return regression_dataset(truth, predicted, self.GENDERS)

    @pytest.mark.parametrize("scorer", [
        make_scorer("R2"),
        # A custom scorer that reads the gathered predictions as well as the R2.
        lambda group: make_scorer("R2")(group) + max(group.prediction) - group.prediction[-1],
    ], ids=["r2", "custom"])
    def test_group_rows_do_not_depend_on_the_dataset_being_scored_first(self, scorer,
                                                                        monkeypatch):
        from modelfacts import metrics

        squared = []
        real = metrics._squared_errors

        def counting(truth, predicted):
            squared.append(len(truth))
            return real(truth, predicted)
        monkeypatch.setattr(metrics, "_squared_errors", counting)
        fresh = group_breakdown(self.dataset(), "Gender", scorer)
        # Nonbinary is a one-row group: its R2 is undefined, its mean and std are not.
        nonbinary = {row.group_name: row for row in fresh}["Nonbinary"]
        assert nonbinary.group_accuracy.state is ProvenanceState.UNKNOWN_AVAILABILITY
        assert nonbinary.target_stat.value.std == 0.0
        assert squared == [8]  # the groups sum the dataset's squares, squared once

        squared.clear()
        dataset = self.dataset()
        make_scorer("R2")(dataset)
        assert squared == [8]
        assert group_breakdown(dataset, "Gender", scorer) == fresh
        assert squared == [8]  # the groups sum the dataset's squares

    def test_a_group_gathers_its_columns_as_tuples_in_row_order(self):
        dataset = self.dataset()
        for rows in ([3], [0, 2, 5], list(range(8))):
            group = dataset._group(rows)
            assert group.truth == tuple(dataset.truth[i] for i in rows)
            assert group.prediction == tuple(dataset.prediction[i] for i in rows)
            assert group.score is None
            assert group.ss_res() == sum((dataset.truth[i] - dataset.prediction[i]) ** 2
                                         for i in rows)

    def test_a_missing_column_comes_before_zero_variance(self):
        dataset = PredictionDataset.from_columns(None, [5.0, 5.0], None, None, {}, None, ())
        with pytest.raises(MissingColumnError):
            make_scorer("R2")(dataset)

    def test_zero_variance_comes_before_an_overflowing_residual(self):
        dataset = regression_dataset([5.0, 5.0], [1e200, -1e200], ["Female", "Male"])
        with pytest.raises(ZeroVarianceError):
            make_scorer("R2")(dataset)

    @pytest.mark.parametrize("scored_first", [False, True])
    def test_an_overflowing_residual_is_an_overflow_for_the_dataset_and_unknown_for_its_group(
            self, scored_first):
        predicted = [1.0, 1e200, 3.5, 4.0, 0.5, 6.0, 7.0, 8.5]  # row 1 is Male
        dataset = self.dataset(predicted)
        with pytest.raises(NumericOverflowError):
            make_scorer("R2")(dataset)
        if not scored_first:
            dataset = self.dataset(predicted)
        assert dataset.squared_errors()[1] == math.inf
        rows = {row.group_name: row
                for row in group_breakdown(dataset, "Gender", make_scorer("R2"))}
        assert rows["Male"].group_accuracy.state is ProvenanceState.UNKNOWN_AVAILABILITY
        assert rows["Female"].group_accuracy.is_reported
        female = [0, 2, 5]
        assert rows["Female"].group_accuracy.value == make_scorer("R2")(
            PredictionDataset.from_columns(None, [dataset.truth[i] for i in female],
                                           [predicted[i] for i in female], None, {}, None, ()))

    def test_an_int_residual_beyond_a_float_is_an_overflow(self):
        # Record datasets may hold ints; the square of this one has no float.
        dataset = regression_dataset([1, 5, 3, 9], [2, 10**200, 1, 7],
                                     ["Female", "Male", "Female", "Male"])
        with pytest.raises(NumericOverflowError):
            make_scorer("R2")(dataset)
        rows = {row.group_name: row
                for row in group_breakdown(dataset, "Gender", make_scorer("R2"))}
        assert rows["Male"].group_accuracy.state is ProvenanceState.UNKNOWN_AVAILABILITY
        assert rows["Female"].group_accuracy.value == -1.5

    def test_int_residuals_are_summed_as_doubles(self):
        # Each square is stored as a double, so above 2**53 the sum is of rounded squares.
        truth, predicted = [0, 2, 4, 6], [2**27] * 4
        dataset = regression_dataset(truth, predicted, ["Female"] * 4)
        assert make_scorer("R2")(dataset) == -3602879540835124.5
        female = group_breakdown(dataset, "Gender", make_scorer("R2"))[0]
        assert (female.group_name, female.group_accuracy.value) == ("Female", -3602879540835124.5)
        assert 1.0 - sum((t - p) ** 2 for t, p in zip(truth, predicted)) / 20.0 == (
            -3602879540835125.0)  # the exact integer sum, rounded once


class TestMajorityClassBaseline:
    def test_accuracy_baseline_is_majority_share(self):
        dataset = ten_record_dataset()  # 3 positives of 10
        assert majority_class_baseline(dataset, "Accuracy") == pytest.approx(0.7)

    def test_auc_baseline_is_half(self):
        dataset = ten_record_dataset()
        assert majority_class_baseline(dataset, "AUC") == 0.5


def record_copy_majority_baseline(dataset: PredictionDataset, metric_name: str) -> float:
    """Oracle: score a copy of every record with the majority as its prediction."""
    counts = Counter(r.truth for r in dataset.records)
    majority = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))[0][0]
    naive = [dataclasses.replace(r, prediction=majority, score=0.0) for r in dataset.records]
    # Built from columns: records whose truths and predictions all miss the positive class
    # are refused as input, yet such a copy is what the baseline scores.
    return make_scorer(metric_name, dataset.positive_class)(PredictionDataset.from_columns(
        None, [r.truth for r in naive], [r.prediction for r in naive], [r.score for r in naive],
        {}, dataset.positive_class, ()))


def _outcome(compute):
    try:
        return compute()
    except SingleClassError:
        return "SINGLE_CLASS"


def _random_truth(rng: random.Random) -> list[str]:
    labels = rng.sample(["0", "1", "2", "3"], rng.randint(1, 4))
    if rng.random() < 0.3:  # exact tie among the most common labels
        truth = labels * rng.randint(1, 15)
        rng.shuffle(truth)
        return truth
    weights = [rng.random() for _ in labels]
    return rng.choices(labels, weights, k=rng.randint(1, 60))


class TestClosedFormMajorityBaseline:
    def test_matches_record_copies_bit_for_bit(self):
        rng = random.Random(2402)
        seen = Counter()
        for i in range(1500):
            truth = _random_truth(rng)
            records = tuple(PredictionRecord(str(j), t, rng.choice("01"), rng.random())
                            for j, t in enumerate(truth))
            if all("1" not in (r.truth, r.prediction) for r in records):
                with pytest.raises(SchemaError):  # as a CSV without its positive class is
                    PredictionDataset(records, "1", ())
                seen["refused"] += 1
                continue
            dataset = PredictionDataset(records, "1", ())
            counts = Counter(truth)
            top = counts.most_common(1)[0][1]
            seen["multi_class"] += len(counts) > 2
            seen["tied_majority"] += sum(c == top for c in counts.values()) > 1
            seen["positive_absent"] += "1" not in counts
            for name in ("Accuracy", "F1", "AUC"):
                closed = _outcome(lambda: majority_class_baseline(dataset, name))
                oracle = _outcome(lambda: record_copy_majority_baseline(dataset, name))
                assert closed == oracle, (i, name, truth)
                assert type(closed) is type(oracle)
                seen[f"{name}:{'error' if closed == 'SINGLE_CLASS' else 'value'}"] += 1
        for case in ("multi_class", "tied_majority", "positive_absent", "AUC:error", "AUC:value"):
            assert seen[case] >= 50, (case, seen)
        assert seen["refused"] > 0, seen
        assert 0 < seen["F1:value"] and seen["F1:error"] == 0

    def test_positive_majority_f1(self):
        records = tuple(_record(i, t, "0", "Female") for i, t in enumerate("11100"))
        dataset = PredictionDataset(records, "1", ("Gender",))
        assert majority_class_baseline(dataset, "F1") == 2 * 0.6 / 1.6

    def test_tie_goes_to_smaller_label(self):
        records = tuple(_record(i, t, "0", "Female") for i, t in enumerate("1010"))
        dataset = PredictionDataset(records, "1", ("Gender",))
        assert majority_class_baseline(dataset, "F1") == 0.0  # "0" wins the tie

    def test_single_class_auc_raises(self):
        records = tuple(_record(i, "0", "1", "Female", score=0.5) for i in range(3))
        with pytest.raises(SingleClassError):
            majority_class_baseline(PredictionDataset(records, "1", ("Gender",)), "AUC")

    def test_metric_without_baseline(self):
        with pytest.raises(UnknownMetricError):
            majority_class_baseline(ten_record_dataset(), "R2")


class TestColumnarDataset:
    def test_records_round_trip_through_columns(self):
        dataset = ten_record_dataset()
        again = PredictionDataset(dataset.records, "1", ("Gender",))
        assert again.records == dataset.records
        assert again.groups["Gender"] == [r.attributes["Gender"] for r in dataset.records]

    def test_a_column_is_present_only_when_every_record_has_a_value(self):
        records = (_record(0, "1", "1", "Female", score=0.5), _record(1, "0", "0", "Male"))
        dataset = PredictionDataset(records, "1", ("Gender",))
        assert dataset.prediction is not None and dataset.score is None
        assert make_scorer("Accuracy")(dataset) == 1.0
        with pytest.raises(MissingColumnError):
            make_scorer("AUC", "1")(dataset)

    def test_f1_on_a_record_dataset_without_predictions_is_a_missing_column(self):
        records = (_record(0, "1", None, "Female", score=0.5), _record(1, "0", None, "Male"))
        dataset = PredictionDataset(records, "1", ("Gender",))
        with pytest.raises(MissingColumnError) as err:
            make_scorer("F1", "1")(dataset)
        assert err.value.column == "y_pred"
        assert str(err.value) == "MISSING_COLUMN: required column 'y_pred' is missing"

    @pytest.mark.parametrize("build", [
        lambda: PredictionDataset.from_columns(None, ["1", "0"], ["1", "1"], None, {}, "1", ()),
        lambda: ten_record_dataset()._group([0, 1, 2]),
    ], ids=["from-columns", "group"])
    def test_a_dataset_without_ids_has_no_records(self, build):
        with pytest.raises(ValueError) as err:
            build().records
        assert str(err.value) == "this dataset carries no ids, so it has no records"

    # Six rows in record order: id, truth, y_pred, score, gender (blank is None).
    ROWS = [("r0", "1", "1", 0.9, "Female"), ("r1", "0", "1", 0.5, "Male"),
            ("r2", "0", "0", 0.1, None), ("r3", "1", "0", 0.5, "Nonbinary"),
            ("r4", "0", "0", 0.5, "Female"), ("r5", "1", "1", 0.2, "Male")]

    def _datasets(self, scored: bool):
        """The ROWS dataset built from records and through parse_predictions."""
        records = tuple(PredictionRecord(i, t, p, s if scored else None,
                                         {"Gender": g} if g else {})
                        for i, t, p, s, g in self.ROWS)
        header = "id,y_true,y_pred," + ("score," if scored else "") + "gender"
        lines = [",".join([i, t, p, *([str(s)] if scored else []), g or ""])
                 for i, t, p, s, g in self.ROWS]
        manifest = _manifest_for("AUC" if scored else "F1", True)
        return (PredictionDataset(records, "1", ("Gender",)),
                parse_predictions(io.StringIO("\n".join([header, *lines]) + "\n"), manifest))

    @staticmethod
    def _columns(dataset):
        return [dataset.ids, dataset.truth, dataset.prediction, dataset.score,
                dataset.groups["Gender"]]

    @pytest.mark.parametrize("scored", [True, False], ids=["scored", "unscored"])
    def test_a_dataset_keeps_record_order(self, scored):
        ids, truth, prediction, score, gender = (list(column) for column in zip(*self.ROWS))
        for dataset in self._datasets(scored):
            assert self._columns(dataset) == [ids, truth, prediction, score if scored else None,
                                              gender]
            assert [r.id for r in dataset.records] == ids

    @pytest.mark.parametrize("truth", [("1", None, "0"), (1.5, None, 2.0)], ids=["labels", "floats"])
    def test_a_record_without_a_truth_is_a_bad_value(self, truth):
        # As ingest reports a blank y_true, at the record's 1-based row.
        records = [_record(i, t, t, "Male", score=0.5) for i, t in enumerate(truth)]
        with pytest.raises(BadValueError) as err:
            PredictionDataset(records, "1", ("Gender",))
        assert (err.value.row, err.value.column, err.value.reason) == (2, "y_true", "empty value")
        with pytest.raises(BadValueError):  # with or without a group schema
            PredictionDataset(records, "1", ())

    # With a NaN score and no check, these rows' AUC read 0.25 in the first order and
    # 0.375 in the second.
    NAN_ROWS = [(math.nan, "1"), (0.5, "0"), (0.2, "1"), (0.9, "0")]

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 2, 3)], ids=["first", "second"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, "0.5", True], ids=repr)
    def test_a_record_score_that_is_not_a_finite_number_is_a_bad_value(self, order, bad):
        # As ingest reports a non-finite score, at the record's 1-based row.
        rows = [(bad, "1"), *self.NAN_ROWS[1:]]
        records = [PredictionRecord(f"r{i}", rows[i][1], score=rows[i][0]) for i in order]
        with pytest.raises(BadValueError) as err:
            PredictionDataset(records, "1", ())
        assert (err.value.row, err.value.column) == (order.index(0) + 1, "score")
        assert err.value.reason == f"not a finite number: {bad!r}"

    def test_record_group_cells_are_normalised_as_a_csvs_are(self):
        # Case, edge spaces, integer years and blanks as in a CSV; no aliases, which are a
        # manifest's, so "F" is "Other".
        cells = [{"Race": " WHITE ", "Gender": "female", "Age": "42", "Site": " S01 "},
                 {"Race": "Martian", "Gender": "  ", "Age": "50+", "Site": ""},
                 {"Race": "", "Gender": "F", "Age": " 17"}]
        records = [PredictionRecord(f"r{i}", "1", "1", attributes=c) for i, c in enumerate(cells)]
        dataset = PredictionDataset(records, "1", ("Race", "Gender", "Age", "Site"))
        assert dataset.groups == {"Race": ["White", "Other", None],
                                  "Gender": ["Female", None, "Other"],
                                  "Age": ["35-49", "50+", "<17"], "Site": ["S01", None, None]}

    # Three regression rows, one cell of the second replaced.  Unchecked, a prediction
    # of True scored an R2 of 0.25, "abc" raised a TypeError and NaN read as an overflow.
    R2_ROWS = [(1.0, 1.5), (2.0, 2.0), (3.0, 2.5)]

    @pytest.mark.parametrize("column", ["y_true", "y_pred"])
    @pytest.mark.parametrize("bad", [True, "abc", "2.0", math.nan, -math.inf,
                                     pytest.param(10**400, id="10**400")], ids=repr)
    def test_a_regression_record_value_that_is_not_a_finite_number_is_a_bad_value(self, column,
                                                                                   bad):
        rows = [list(row) for row in self.R2_ROWS]
        rows[1][column == "y_pred"] = bad
        records = [PredictionRecord(f"r{i}", t, p) for i, (t, p) in enumerate(rows)]
        with pytest.raises(BadValueError) as err:
            PredictionDataset(records, None, ())
        assert (err.value.row, err.value.column, err.value.reason) == (
            2, column, f"not a finite number: {bad!r}")

    @pytest.mark.parametrize("category, bad", [("Gender", 1), ("Race", ("White",)),
                                               ("Age", 42), ("Site", b"S01")], ids=repr)
    def test_a_record_group_cell_that_is_not_a_string_is_a_bad_value(self, category, bad):
        good = {"Gender": "Female", "Race": "White", "Age": "42", "Site": "S01"}
        records = [PredictionRecord("r0", "1", "1", attributes=good),
                   PredictionRecord("r1", "0", "0", attributes={**good, category: bad})]
        with pytest.raises(BadValueError) as err:
            PredictionDataset(records, "1", ("Race", "Gender", "Age", "Site"))
        assert (err.value.row, err.value.column, err.value.reason) == (
            2, category, f"not a string: {bad!r}")

    @pytest.mark.parametrize("cell", ["abc", "151", "-1", "17.5", "50 +", "18 - 24"])
    def test_a_record_age_cell_that_is_neither_a_bucket_nor_plausible_years_is_a_bad_value(
            self, cell):
        # The error a CSV's Age column gives for the same cell, at the same row.
        records = [PredictionRecord("r0", 1.0, 1.0, attributes={"Age": "42"}),
                   PredictionRecord("r1", 2.0, 1.0, attributes={"Age": cell})]
        with pytest.raises(BadValueError) as from_records:
            PredictionDataset(records, None, ("Age",))
        text = f"id,y_true,y_pred,Age\nr0,1.0,1.0,42\nr1,2.0,1.0,{cell}\n"
        with pytest.raises(BadValueError) as from_csv:
            parse_predictions(io.StringIO(text), _manifest_for("R2", False))
        assert (from_records.value.row, from_records.value.column) == (2, "Age")
        assert str(from_records.value) == str(from_csv.value)

    @pytest.mark.parametrize("cell", ["4_2", "\u0664\u0662", "\uff14\uff12", "1_000", "+4_2"])
    def test_a_record_age_cell_in_other_digits_is_not_an_age(self, cell):
        # As in a CSV: only ASCII integer years, with an optional sign, are ages.
        records = [PredictionRecord("r0", 1.0, 1.0, attributes={"Age": "+42"}),
                   PredictionRecord("r1", 2.0, 1.0, attributes={"Age": cell})]
        with pytest.raises(BadValueError) as err:
            PredictionDataset(records, None, ("Age",))
        assert (err.value.row, err.value.column, err.value.reason) == (
            2, "Age", f"not an age: {cell!r}")
        assert PredictionDataset(records[:1], None, ("Age",)).groups["Age"] == ["35-49"]
        records[1] = PredictionRecord("r1", 2.0, 1.0, attributes={"Age": "-5"})
        with pytest.raises(BadValueError, match="age -5 outside plausible range"):
            PredictionDataset(records, None, ("Age",))

    def test_record_ids_are_kept_stripped_as_a_csvs_are(self):
        records = [PredictionRecord(" a ", "1", "1"), PredictionRecord("b\t", "0", "0")]
        parsed = parse_predictions(io.StringIO("id,y_true,y_pred\n a ,1,1\nb\t,0,0\n"),
                                   _manifest_for("F1", True))
        assert PredictionDataset(records, "1", ()).ids == parsed.ids == ["a", "b"]

    @pytest.mark.parametrize("bad, reason", [("", "empty id"), (" \t", "empty id"),
                                             (7, "not a string: 7"),
                                             (None, "not a string: None")], ids=repr)
    def test_a_record_id_that_is_blank_or_not_a_string_is_a_bad_value(self, bad, reason):
        # Checked first in its row, as ingest checks the id column: row 2's truth is missing too.
        records = [PredictionRecord("r0", "1", "1"), PredictionRecord(bad, None, "0")]
        with pytest.raises(BadValueError) as err:
            PredictionDataset(records, "1", ())
        assert (err.value.row, err.value.column, err.value.reason) == (2, "id", reason)

    def test_a_repeated_record_id_is_a_duplicate_id_error_as_in_a_csv(self):
        records = [PredictionRecord("a", "1", "1"), PredictionRecord(" a", None, "0")]
        with pytest.raises(DuplicateIdError) as err:
            PredictionDataset(records, "1", ())
        with pytest.raises(DuplicateIdError) as from_csv:
            parse_predictions(io.StringIO("id,y_true,y_pred\na,1,1\n a,0,0\n"),
                              _manifest_for("F1", True))
        assert err.value.message == "id 'a' appears more than once (row 2)"
        assert str(err.value) == str(from_csv.value)

    def test_a_positive_class_in_neither_truth_nor_predictions_is_a_schema_error(self):
        # Unchecked, the int truths never equal "1" and an F1 label read a raw score of 0.0.
        records = [PredictionRecord(str(i), i % 2, i % 2) for i in range(6)]
        with pytest.raises(SchemaError) as err:
            PredictionDataset(records, "1", ())
        with pytest.raises(SchemaError) as from_csv:
            parse_predictions(io.StringIO("id,y_true,y_pred\na,0,0\nb,2,2\n"),
                              _manifest_for("F1", True))
        assert err.value.path == "positive_class"
        assert str(err.value) == str(from_csv.value)
        # Predicted but never true stays legal, and a group of one class keeps its cells.
        dataset = PredictionDataset([_record(0, "0", "1", "Female"), _record(1, "0", "0", "Male")],
                                    "1", ("Gender",))
        rows = {r.group_name: r for r in group_breakdown(dataset, "Gender", make_scorer("Accuracy"))}
        assert rows["Male"].group_accuracy == Provenance.reported(1.0)

    def test_a_records_first_bad_cell_is_named_in_ingest_column_order(self):
        # y_true, y_pred, score, then the group columns in schema order.
        cells = {"truth": math.nan, "prediction": "abc", "score": math.inf,
                 "attributes": {"Age": "abc", "Race": 1}}
        fixes = [("y_true", {"truth": 1.0}), ("y_pred", {"prediction": 1.0}),
                 ("score", {"score": 0.5}), ("Race", {"attributes": {"Age": "abc"}}), ("Age", {})]
        for column, fix in fixes:
            records = [PredictionRecord("r0", 1.0, 2.0), PredictionRecord("r1", **cells)]
            with pytest.raises(BadValueError) as err:
                PredictionDataset(records, None, ("Race", "Age"))
            assert (err.value.row, err.value.column) == (2, column)
            cells.update(fix)


def test_generate_label_leaves_the_dataset_as_it_was_built():
    """Every AUC of a label, overall and per group, sorts its own scores: no column of
    the dataset changes, in value or in order."""
    from modelfacts.assemble import generate_label

    rng = random.Random(41)
    lines = ["id,y_true,y_pred,score,race,gender,age"]
    for i in range(120):
        lines.append(",".join([f"r{i}", rng.choice("01"), rng.choice("01"),
                               str(rng.choice([0.1, 0.5, 0.9, round(rng.random(), 2)])),
                               rng.choice(["White", "Black", "Asian", ""]),
                               rng.choice(["F", "M", "Female", "x"]),
                               str(rng.randint(10, 80))]))
    manifest = dataclasses.replace(_manifest_for("AUC", True), standard_name="AUC",
                                   baseline_policy="majority-class")
    dataset = parse_predictions(io.StringIO("\n".join(lines) + "\n"), manifest)

    def columns():
        return [list(column) for column in (dataset.ids, dataset.truth, dataset.prediction,
                                            dataset.score, *dataset.groups.values())]
    built = columns()
    assert built[0] == [f"r{i}" for i in range(120)]
    label = generate_label(dataset, manifest)

    scored = [row for category in label.demographics for row in category.rows
              if row.group_accuracy.is_reported]
    assert len(scored) >= 8
    assert columns() == built


def test_a_regression_label_does_not_depend_on_record_scores():
    """Records that carry a score give the regression label of the same records without
    one, and come back in the order they were given."""
    from modelfacts.assemble import generate_label
    from modelfacts.codec import to_canonical_json

    rng = random.Random(18)
    records = [PredictionRecord(f"r{i}", rng.gauss(50.0, 12.0), rng.gauss(50.0, 15.0),
                                rng.random(), {"Age": rng.choice(["<17", "18-24", "25-34",
                                                                  "35-49", "50+"])})
               for i in range(400)]
    unscored = [dataclasses.replace(r, score=None) for r in records]
    manifest = _manifest_for("R2", False)
    scored_dataset = PredictionDataset(records, None, ("Age",))
    assert scored_dataset.score is not None
    assert [r.id for r in scored_dataset.records] == [r.id for r in records]
    labels = [to_canonical_json(generate_label(PredictionDataset(rs, None, ("Age",)), manifest))
              for rs in (records, unscored)]
    assert labels[0] == labels[1]


def test_a_regression_label_sums_each_truth_once(monkeypatch):
    """The dataset's moments and each non-empty group's are computed once, for R2 and mean/std."""
    from modelfacts import metrics
    from modelfacts.assemble import generate_label

    summed = []
    real_mean_ss = metrics._mean_ss

    def counting_mean_ss(truth):
        summed.append(len(truth))
        return real_mean_ss(truth)

    monkeypatch.setattr(metrics, "_mean_ss", counting_mean_ss)
    rng = random.Random(43)
    lines = ["id,y_true,y_pred,gender,age,site"]
    for i in range(90):
        truth = round(rng.uniform(10.0, 90.0), 2)
        site = rng.choice(["S1", "S2", "S3", ""])
        if i < 4:  # a zero-variance group: R2 fails, the mean and std do not
            site, truth = "S4", 7.5
        lines.append(",".join([f"r{i}", str(truth), str(round(truth + rng.gauss(0, 5), 2)),
                               rng.choice(["Female", "Male", "x"]),  # no Trans or Nonbinary rows
                               str(rng.randint(18, 40)), site]))
    manifest = dataclasses.replace(_manifest_for("R2", False), extra_categories=("Site",))
    dataset = parse_predictions(io.StringIO("\n".join(lines) + "\n"), manifest)
    label = generate_label(dataset, manifest)

    rows = [row for category in label.demographics for row in category.rows]
    groups = [row for row in rows if row.pct_in_test.is_reported]
    assert any(row.pct_in_test.state is ProvenanceState.NOT_COLLECTED for row in rows)
    assert any(not row.group_accuracy.is_reported for row in groups)  # S4
    assert summed == [90] + [round(row.pct_in_test.value * 90 / 100) for row in groups]


@pytest.mark.parametrize("optimized, majority_is_positive", [
    ("AUC", False), ("AUC", True), ("F1", False), ("Accuracy", True)])
def test_a_majority_baseline_label_counts_the_truth_once(monkeypatch, optimized,
                                                         majority_is_positive):
    """Both metrics' majority-class baselines read one count of the dataset's truth labels."""
    from modelfacts import metrics
    from modelfacts.assemble import generate_label

    counted = []
    real_counter = metrics.Counter

    def counting_counter(values=()):
        counted.append(len(values))
        return real_counter(values)

    monkeypatch.setattr(metrics, "Counter", counting_counter)
    rng = random.Random(53)
    positive_share = 0.8 if majority_is_positive else 0.2
    lines = ["id,y_true,y_pred,score,gender"]
    for i in range(80):
        truth = "1" if rng.random() < positive_share else "0"
        lines.append(f"r{i},{truth},{rng.choice('01')},{round(rng.random(), 2)},"
                     f"{rng.choice(['Female', 'Male', 'Nonbinary'])}")
    manifest = dataclasses.replace(_manifest_for(optimized, True), baseline_policy="majority-class")
    dataset = parse_predictions(io.StringIO("\n".join(lines) + "\n"), manifest)
    label = generate_label(dataset, manifest)

    assert counted == [80]
    # F1 over a negative majority has a zero baseline, so no percent.
    pct = label.accuracy.optimized.pct_over_baseline
    assert pct.is_reported == (optimized != "F1" or majority_is_positive)
    assert dataset.truth_counts() == real_counter(dataset.truth)


@pytest.mark.parametrize("optimized, standard, classification, full_set_scores", [
    ("R2", None, False, 1),
    ("F1", None, True, 1),  # an imbalanced classification's standard metric is F1
    ("AUC", "F1", True, 2),
])
def test_the_full_set_is_scored_once_per_distinct_metric(monkeypatch, optimized, standard,
                                                         classification, full_set_scores):
    from modelfacts import assemble

    full_set = []
    real_make_scorer = assemble.make_scorer

    def make_scorer(metric_name, positive_class=None):
        inner = real_make_scorer(metric_name, positive_class)

        def scorer(dataset):
            if dataset is whole:
                full_set.append(metric_name)
            return inner(dataset)
        return scorer

    monkeypatch.setattr(assemble, "make_scorer", make_scorer)
    rng = random.Random(47)
    lines = ["id,y_true,y_pred,score,gender"]
    for i in range(60):
        truth = rng.choice("01") if classification else str(round(rng.uniform(0, 9), 2))
        prediction = rng.choice("01") if classification else str(round(rng.uniform(0, 9), 2))
        lines.append(f"r{i},{truth},{prediction},{round(rng.random(), 2)},"
                     f"{rng.choice(['Female', 'Male'])}")
    manifest = dataclasses.replace(_manifest_for(optimized, classification), standard_name=standard)
    whole = parse_predictions(io.StringIO("\n".join(lines) + "\n"), manifest)
    label = assemble.generate_label(whole, manifest)

    assert len(full_set) == full_set_scores
    assert label.accuracy.standard.raw_score.is_reported
    if standard is None:
        assert label.accuracy.standard.raw_score == label.accuracy.optimized.raw_score
