"""Metric computations against hand counts and independent brute-force oracles."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import random
from collections import Counter

import pytest

from conftest import make_label
from modelfacts.errors import (
    BadValueError,
    EmptyDatasetError,
    LengthMismatchError,
    MissingColumnError,
    SingleClassError,
    UnknownCategoryError,
    UnknownMetricError,
    ZeroBaselineError,
)
from modelfacts.ingest import PredictionDataset, PredictionRecord, parse_label_manifest, parse_predictions
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
    auc,
    group_breakdown,
    majority_class_baseline,
    make_scorer,
    metric_direction,
    metric_spec,
    percent_over_baseline,
    precision_recall_f1,
    regression_stats,
    select_standard_metric,
    standard_accuracy,
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
        assert cm.total == 5

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


class TestRegressionStats:
    def test_identity(self):
        stats = regression_stats([1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
        assert stats.r2 == 1.0

    def test_constant_mean_prediction(self):
        truth = [1.0, 2.0, 3.0]
        stats = regression_stats(truth, [2.0, 2.0, 2.0])
        assert stats.r2 == 0.0

    def test_hand_case(self):
        stats = regression_stats([1.0, 2.0, 3.0], [1.0, 2.0, 2.0])
        assert stats.r2 == pytest.approx(0.5)
        assert stats.target_mean == 2.0
        assert stats.target_std == pytest.approx(math.sqrt(2 / 3), abs=1e-9)

    def test_zero_variance_keeps_mean_std(self):
        stats = regression_stats([5.0, 5.0], [4.0, 6.0])
        assert stats.r2 is None
        assert stats.target_mean == 5.0
        assert stats.target_std == 0.0

    def test_empty(self):
        with pytest.raises(EmptyDatasetError):
            regression_stats([], [])


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
    records = parse_predictions(io.StringIO(rows), manifest).records
    assert make_scorer(spelling, "1")(records) == make_scorer(spec.name, "1")(records)


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
        # Scored rows in sample (score) order; Male is single-class, so its AUC fails.
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
        assert calls == [[0.2, 0.9], [0.1, 0.6], [0.3, 0.7]]  # Female, Male, Other

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
    return make_scorer(metric_name, dataset.positive_class)(naive)


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
        records = tuple(_record(i, "0", "0", "Female", score=0.5) for i in range(3))
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
        assert dataset.has_predictions and not dataset.has_scores
        assert make_scorer("Accuracy")(records) == 1.0
        with pytest.raises(MissingColumnError):
            make_scorer("AUC", "1")(records)

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

    def test_a_scored_dataset_holds_its_columns_in_score_order(self):
        order = [2, 5, 1, 3, 4, 0]  # ascending score; the tied 0.5 rows keep record order
        expected = [list(column) for column in zip(*(self.ROWS[i] for i in order))]
        for dataset in self._datasets(scored=True):
            assert self._columns(dataset) == expected
            assert [r.id for r in dataset.records] == expected[0]

    def test_a_dataset_without_scores_keeps_record_order(self):
        ids, truth, prediction, _, gender = (list(column) for column in zip(*self.ROWS))
        for dataset in self._datasets(scored=False):
            assert self._columns(dataset) == [ids, truth, prediction, None, gender]

    @pytest.mark.parametrize("truth", [("1", None, "0"), (1.5, None, 2.0)], ids=["labels", "floats"])
    def test_a_record_without_a_truth_is_a_bad_value(self, truth):
        # As ingest reports a blank y_true, at the record's 1-based row.
        records = [_record(i, t, t, "Male", score=0.5) for i, t in enumerate(truth)]
        with pytest.raises(BadValueError) as err:
            PredictionDataset(records, "1", ("Gender",))
        assert (err.value.row, err.value.column, err.value.reason) == (2, "y_true", "empty value")
        for metric in ("R2", "AUC", "Accuracy"):
            with pytest.raises(BadValueError):
                make_scorer(metric, "1")(records)


def test_generate_label_sorts_the_score_column_once(monkeypatch):
    """Every AUC of a label, overall and per group, reads one sort of the score column."""
    from modelfacts import metrics
    from modelfacts.assemble import generate_label

    sorted_lengths = []
    real_sort = metrics._sort_by_score

    def counting_sort(score, rows):
        sorted_lengths.append(len(score))
        return real_sort(score, rows)

    monkeypatch.setattr(metrics, "_sort_by_score", counting_sort)
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
    label = generate_label(dataset, manifest)

    scored = [row for category in label.demographics for row in category.rows
              if row.group_accuracy.is_reported]
    assert len(scored) >= 8
    assert sorted_lengths == [120]
