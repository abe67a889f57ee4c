"""Numeric quantities behind a label: scores, baselines, and group breakdowns.

A dataset's columns are stored in its sample order: ascending score when it
has a score column, else record order.  So every AUC reads the one sort, and
a demographic group is a smaller dataset gathered in one pass.  Counts do not
depend on the order, but sums do: ingest keeps a score column only for a
metric scored from it, so a regression's sums stay in record order.  All
functions are pure and deterministic; scores are plain Python floats from
stdlib arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Mapping, Sequence, Union

from .errors import (
    BadValueError,
    EmptyDatasetError,
    LengthMismatchError,
    MissingColumnError,
    ModelFactsError,
    NumericOverflowError,
    SingleClassError,
    UnknownCategoryError,
    UnknownMetricError,
    ZeroBaselineError,
    ZeroVarianceError,
)
from .label import (
    DemographicGroupRow,
    MeanStd,
    ModelType,
    PctTarget,
    Provenance,
    canonical_groups,
)


@dataclass(frozen=True)
class PredictionRecord:
    id: str
    truth: Any
    prediction: Any = None
    score: float | None = None
    attributes: Mapping[str, str] = field(default_factory=dict)


def _sort_by_score(score: Sequence[float], rows: Iterable[int]) -> list[int]:
    """`rows` in ascending score order; the sort is stable, so tied rows keep their order."""
    return sorted(rows, key=score.__getitem__)


class PredictionDataset:
    """Test data as parallel columns, one entry per row, with its demographic attribute schema.

    `prediction` and `score` are None when the data has no such column.
    `groups` maps each schema category to its column of group names, None
    where the cell was blank.  Built from records, a column is present only
    when every record has a value, and every record needs a truth.  The
    columns are stored in sample order, ascending score (a stable sort: ties
    keep record order) or else record order, and never change.  A group's
    dataset has no ids or group columns.
    """

    __slots__ = ("ids", "truth", "prediction", "score", "groups", "positive_class",
                 "attribute_schema")

    def __init__(self, records: Iterable[PredictionRecord], positive_class: str | None,
                 attribute_schema: Iterable[str]):
        records = tuple(records)
        schema = tuple(attribute_schema)

        def column(values: list) -> list | None:
            return None if None in values else values

        truth = [r.truth for r in records]
        if None in truth:  # as ingest reports a blank y_true
            raise BadValueError(truth.index(None) + 1, "y_true", "empty value")
        self._fill([r.id for r in records], truth,
                   column([r.prediction for r in records]), column([r.score for r in records]),
                   {c: [r.attributes.get(c) for r in records] for c in schema},
                   positive_class, schema)

    @classmethod
    def from_columns(cls, ids: list[str], truth: list, prediction: list | None,
                     score: list[float] | None, groups: dict[str, list[str | None]],
                     positive_class: str | None, attribute_schema: tuple[str, ...]) -> "PredictionDataset":
        """A dataset of columns given in record order, which it takes over and sorts in place."""
        dataset = cls.__new__(cls)
        dataset._fill(ids, truth, prediction, score, groups, positive_class, attribute_schema)
        return dataset

    def _fill(self, ids, truth, prediction, score, groups, positive_class, attribute_schema):
        if not truth:
            raise EmptyDatasetError("a prediction dataset needs at least one record")
        if score is not None:  # into sample order, one column at a time
            order = _sort_by_score(score, range(len(score)))
            for column in (ids, truth, prediction, score, *groups.values()):
                if column is not None:
                    column[:] = [column[i] for i in order]
        self.ids = ids
        self.truth = truth
        self.prediction = prediction
        self.score = score
        self.groups = groups
        self.positive_class = positive_class
        self.attribute_schema = attribute_schema

    @property
    def n(self) -> int:
        return len(self.truth)

    @property
    def has_predictions(self) -> bool:
        return self.prediction is not None

    @property
    def has_scores(self) -> bool:
        return self.score is not None

    @property
    def records(self) -> tuple[PredictionRecord, ...]:
        """The rows as records, built on each access; blank group cells are left out."""
        missing = [None] * self.n
        prediction = missing if self.prediction is None else self.prediction
        score = missing if self.score is None else self.score
        columns = [(c, self.groups[c]) for c in self.attribute_schema]
        return tuple(
            PredictionRecord(self.ids[i], self.truth[i], prediction[i], score[i],
                             {c: col[i] for c, col in columns if col[i] is not None})
            for i in range(self.n))

    def _group(self, rows: list[int]) -> "PredictionDataset":
        """The dataset of these rows, for a group's scorer.  Ascending row indices
        keep sample order, so the gathered columns are not sorted again."""
        group = PredictionDataset.__new__(PredictionDataset)
        group.truth, group.prediction, group.score = (
            None if column is None else [column[i] for i in rows]
            for column in (self.truth, self.prediction, self.score))
        group.ids, group.groups, group.attribute_schema = None, {}, ()
        group.positive_class = self.positive_class
        return group


Scorer = Callable[[Union[PredictionDataset, Sequence[PredictionRecord]]], float]


class Direction(Enum):
    """Whether a higher raw score is better (Maximize) or worse (Minimize)."""

    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @classmethod
    def from_labels(cls, truth: Sequence, predicted: Sequence, positive_class) -> "ConfusionCounts":
        tp = fp = tn = fn = 0
        for t, p in zip(truth, predicted):
            if p == positive_class:
                if t == positive_class:
                    tp += 1
                else:
                    fp += 1
            else:
                if t == positive_class:
                    fn += 1
                else:
                    tn += 1
        return cls(tp=tp, fp=fp, tn=tn, fn=fn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _check_pair(truth: Sequence, predicted: Sequence) -> None:
    if len(truth) == 0 or len(predicted) == 0:
        raise EmptyDatasetError("no samples")
    if len(truth) != len(predicted):
        raise LengthMismatchError(
            f"truth has {len(truth)} entries, predictions have {len(predicted)}")


def standard_accuracy(truth: Sequence, predicted: Sequence) -> float:
    """Fraction of samples where the prediction equals the truth."""
    _check_pair(truth, predicted)
    correct = sum(1 for t, p in zip(truth, predicted) if t == p)
    return correct / len(truth)


def precision_recall_f1(truth: Sequence, predicted: Sequence, positive_class) -> tuple[float, float, float]:
    """Precision, recall, and their harmonic mean for one positive class.

    Zero-denominator convention: precision is 0 when nothing was predicted
    positive, recall is 0 when nothing is truly positive, and F1 is 0 when
    precision + recall is 0.
    """
    _check_pair(truth, predicted)
    cm = ConfusionCounts.from_labels(truth, predicted, positive_class)
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def auc(scores: Sequence[float], truth: Sequence, positive_class) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney) formulation.

    Equals the fraction of (positive, negative) pairs where the positive
    outscores the negative, ties counting one half.  Runs in O(n log n), so
    it stays exact and fast on large datasets.
    """
    _check_pair(truth, scores)
    order = _sort_by_score(scores, range(len(scores)))
    return _ranked_auc([scores[i] for i in order], [truth[i] for i in order], positive_class)


def _ranked_auc(ranked_scores: Sequence[float], truth: Sequence, positive_class) -> float:
    """AUC of scores in ascending order, each with its truth label, in one pass.

    A run of tied scores at 0-based positions lo..hi-1 shares the mean
    1-based rank (lo + hi + 1) / 2, so twice the positives' rank sum is an
    exact integer, and the result equals that of summing the ranks as floats.
    """
    positives = [s for s, t in zip(ranked_scores, truth) if t == positive_class]
    n_pos = len(positives)
    n_neg = len(ranked_scores) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUC needs at least one positive and one negative sample")
    twice_rank_sum = sum(bisect_left(ranked_scores, s) + bisect_right(ranked_scores, s) + 1
                         for s in positives)
    return (twice_rank_sum / 2.0 - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class RegressionStats:
    """R-squared plus the target's mean and population standard deviation.

    r2 is None when the truth has zero variance, in which case R-squared is
    undefined but the mean and std are still meaningful.
    """

    r2: float | None
    target_mean: float
    target_std: float


def _finite(what: str, value: float) -> float:
    if not math.isfinite(value):
        raise NumericOverflowError(f"{what} is too large for a float")
    return value


def _mean_ss(truth: Sequence[float]) -> tuple[float, float, float]:
    """Mean, population (divisor N) standard deviation, and sum of squared deviations."""
    if len(truth) == 0:
        raise EmptyDatasetError("no samples")
    mean = sum(truth) / len(truth)
    try:
        ss_tot = sum((t - mean) ** 2 for t in truth)
    except OverflowError:  # float ** raises where + and * return inf
        ss_tot = math.inf
    return mean, math.sqrt(_finite("the truth's variance", ss_tot / len(truth))), ss_tot


def target_mean_std(truth: Sequence[float]) -> tuple[float, float]:
    """Mean and population (divisor N) standard deviation."""
    mean, std, _ = _mean_ss(truth)
    return mean, std


def regression_stats(truth: Sequence[float], predicted: Sequence[float]) -> RegressionStats:
    """R2 = 1 - SS_res/SS_tot over the test data, with the truth's mean/std."""
    _check_pair(truth, predicted)
    mean, std, ss_tot = _mean_ss(truth)
    if ss_tot == 0.0:
        return RegressionStats(r2=None, target_mean=mean, target_std=std)
    try:
        ss_res = sum((t - p) ** 2 for t, p in zip(truth, predicted))
    except OverflowError:
        ss_res = math.inf
    return RegressionStats(r2=_finite("R2", 1.0 - ss_res / ss_tot), target_mean=mean,
                           target_std=std)


def percent_over_baseline(raw: float, baseline: float, direction: Direction) -> float:
    """Percent improvement of a raw score over a baseline score.

    For minimized metrics the sign is flipped so that a positive result
    always means the model beats the baseline.
    """
    if baseline == 0:
        raise ZeroBaselineError("baseline score is zero; percent improvement is undefined")
    gain = baseline - raw if direction is Direction.MINIMIZE else raw - baseline
    return _finite("the percent over baseline", 100.0 * gain / baseline)


def _predicted(dataset: PredictionDataset) -> tuple[Sequence, Sequence]:
    """The dataset's truth and y_pred columns."""
    if dataset.prediction is None:
        raise MissingColumnError("y_pred")
    return dataset.truth, dataset.prediction


def _dataset_auc(dataset: PredictionDataset, positive_class) -> float:
    if dataset.score is None:
        raise MissingColumnError("score")
    return _ranked_auc(dataset.score, dataset.truth, positive_class)


def _r2(dataset: PredictionDataset, positive_class) -> float:
    stats = regression_stats(*_predicted(dataset))
    if stats.r2 is None:
        raise ZeroVarianceError("truth values have zero variance; R2 is undefined")
    return stats.r2


def _f1_baseline(counts: Counter, majority, positive_class) -> float:
    # Predicting the positive class everywhere has recall 1 and precision p;
    # predicting any other class predicts no positives, so F1 is 0.
    if majority != positive_class:
        return 0.0
    p = counts[majority] / counts.total()
    return 2 * p / (p + 1.0)


def _auc_baseline(counts: Counter, majority, positive_class) -> float:
    if not 0 < counts[positive_class] < counts.total():
        raise SingleClassError("AUC needs at least one positive and one negative sample")
    return 0.5  # a constant score ties every (positive, negative) pair


@dataclass(frozen=True)
class MetricSpec:
    """What the package knows about one metric; METRIC_SPECS lists them all.

    scorer(dataset, positive_class) scores a dataset from `score` when needs_score
    is set, else from `y_pred`.  majority_baseline(counts, majority,
    positive_class) scores, from the truth-label counts, predicting the
    majority everywhere.  standard_for is the model type whose labels must
    report this metric as their standard score.
    A metric without a scorer may be named on a label but not computed.
    """

    name: str
    direction: Direction
    classification: bool  # applies to classification models, else to regression
    score_range: tuple[float | None, float] | None = None  # validator's (low or None, high)
    needs_score: bool = False
    scorer: Callable[[PredictionDataset, Any], float] | None = None
    majority_baseline: Callable[[Counter, Any, Any], float] | None = None
    standard_for: ModelType | None = None


def _canon_metric_name(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "").replace(" ", "")


_UNIT = (0.0, 1.0)
METRIC_SPECS: dict[str, MetricSpec] = {_canon_metric_name(spec.name): spec for spec in (
    MetricSpec("Accuracy", Direction.MAXIMIZE, True, _UNIT,
               scorer=lambda dataset, _: standard_accuracy(*_predicted(dataset)),
               majority_baseline=lambda counts, majority, _: counts[majority] / counts.total(),
               standard_for=ModelType.BALANCED_CLASSIFICATION),
    MetricSpec("F1", Direction.MAXIMIZE, True, _UNIT,
               scorer=lambda dataset, pos: precision_recall_f1(*_predicted(dataset), pos)[2],
               majority_baseline=_f1_baseline,
               standard_for=ModelType.IMBALANCED_CLASSIFICATION),
    MetricSpec("AUC", Direction.MAXIMIZE, True, _UNIT, needs_score=True,
               scorer=_dataset_auc,
               majority_baseline=_auc_baseline),
    MetricSpec("R2", Direction.MAXIMIZE, False, (None, 1.0), scorer=_r2,
               standard_for=ModelType.REGRESSION),
    # Known by name only: a direction, and a range rule where one applies.
    *(MetricSpec(name, Direction.MAXIMIZE, True, _UNIT) for name in ("Precision", "Recall")),
    *(MetricSpec(name, Direction.MINIMIZE, True) for name in ("LogLoss", "CrossEntropy", "Brier")),
    *(MetricSpec(name, Direction.MINIMIZE, False) for name in ("MSE", "RMSE", "MAE")),
)}


def metric_spec(name: str) -> MetricSpec | None:
    """The table entry for a metric name in any spelling (case, "-", "_", spaces), else None."""
    return METRIC_SPECS.get(_canon_metric_name(name))


def select_standard_metric(model_type: ModelType) -> str:
    """The mandated standard score for a model type."""
    return next(spec.name for spec in METRIC_SPECS.values() if spec.standard_for is model_type)


def metric_direction(name: str) -> Direction | None:
    """Direction for a known metric name, else None.

    Names containing "loss" or "error" are treated as minimized.
    """
    spec = metric_spec(name)
    if spec is not None:
        return spec.direction
    key = _canon_metric_name(name)
    return Direction.MINIMIZE if "loss" in key or "error" in key else None


def make_scorer(metric_name: str, positive_class=None) -> Scorer:
    """Build a scorer mapping a dataset, or a record sequence, to the named metric's value.

    Records are turned into a dataset's columns first.
    """
    spec = metric_spec(metric_name)
    if spec is None or spec.scorer is None:
        raise UnknownMetricError(f"no scorer for metric '{metric_name}'")

    def score(dataset):
        if not isinstance(dataset, PredictionDataset):
            dataset = PredictionDataset(dataset, positive_class, ())
        return spec.scorer(dataset, positive_class)
    return score


def majority_class_baseline(dataset: PredictionDataset, metric_name: str) -> float:
    """Score of the naive model that assigns every sample to the majority class.

    The naive model predicts the most common truth label for every record
    (ties go to the smallest label as text) and emits a constant score, so
    AUC degenerates to all-ties (0.5).
    """
    spec = metric_spec(metric_name)
    if spec is None or spec.majority_baseline is None:
        raise UnknownMetricError(f"no majority-class baseline for metric '{metric_name}'")
    counts = Counter(dataset.truth)
    majority = min(counts, key=lambda label: (-counts[label], str(label)))
    return spec.majority_baseline(counts, majority, dataset.positive_class)


def group_breakdown(dataset: PredictionDataset, category: str, scorer: Scorer) -> list[DemographicGroupRow]:
    """Per-group rows for one demographic category.

    Records with unrecognized or missing group values fall under "Other".
    Canonical rows always appear, with not-collected stats when the group is
    empty; a scorer failure on a group (e.g. a single-class AUC) marks that
    row's score as unknown availability rather than fabricating a number.
    Extension groups follow the canonical rows in lexicographic order.
    """
    if category not in dataset.attribute_schema:
        raise UnknownCategoryError(f"category '{category}' not in the dataset's attribute schema")

    canon = canonical_groups(category)
    column = dataset.groups[category]
    name_of = {value: value if value and (canon is None or value in canon) else "Other"
               for value in set(column)}
    members: dict[str, list[int]] = defaultdict(list)
    for i, value in enumerate(column):
        members[name_of[value]].append(i)

    positive_class = dataset.positive_class
    ordered = list(canon) if canon is not None else []
    ordered += sorted(g for g in members if g not in ordered)

    rows = []
    for name in ordered:
        if name not in members:
            rows.append(DemographicGroupRow.all_not_collected(name))
            continue
        group = dataset._group(members[name])
        try:
            score_cell = Provenance.reported(scorer(group))
        except ModelFactsError:
            score_cell = Provenance.unknown_availability()
        target = (PctTarget(100.0 * group.truth.count(positive_class) / group.n)
                  if positive_class is not None else MeanStd(*target_mean_std(group.truth)))
        rows.append(DemographicGroupRow(
            group_name=name,
            pct_in_test=Provenance.reported(100.0 * group.n / dataset.n),
            group_accuracy=score_cell,
            target_stat=Provenance.reported(target),
        ))
    return rows
