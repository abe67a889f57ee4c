"""Numeric quantities behind a label: scores, baselines, and group breakdowns.

A dataset keeps its columns in record order, the file order of a parsed CSV.
Each AUC sorts the scores it ranks, and a demographic group is a smaller
dataset gathered in one pass over its category's column.  Sums run in
record order.  A regression dataset squares each residual once: its groups
sum its squared errors over their rows.  All functions are pure and
deterministic; scores are plain Python floats from stdlib arithmetic.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import (
    BadValueError,
    DuplicateIdError,
    EmptyDatasetError,
    LengthMismatchError,
    MissingColumnError,
    ModelFactsError,
    NumericOverflowError,
    SchemaError,
    SingleClassError,
    UnknownCategoryError,
    UnknownMetricError,
    ZeroBaselineError,
    ZeroVarianceError,
)
from .label import (
    CANONICAL_CATEGORIES,
    DemographicGroupRow,
    MeanStd,
    ModelType,
    PctTarget,
    Provenance,
    _group_value,
    is_finite_number,
)


@dataclass(frozen=True)
class PredictionRecord:
    """One test row: its id, truth, prediction or score, and demographic groups."""

    id: str
    truth: Any
    prediction: Any = None
    score: float | None = None
    attributes: Mapping[str, str] = field(default_factory=dict)


class PredictionDataset:
    """Test data as parallel columns, one entry per row, with its demographic attribute schema.

    `prediction` and `score` are None when the data has no such column.
    `groups` maps each schema category to its column of group names, None
    where the cell was blank.  Built from records, a column is present only
    when every record has a value, and a cell breaking a CSV's rule is a
    BadValueError at its row and column: an id is a string, not blank once
    stripped (the dataset keeps it stripped), a truth is present, a score (and
    without a positive class, a truth and a prediction) is a finite number,
    and label._group_value, without aliases, names a group cell's group (a
    missing one is blank).  A repeated id is a DuplicateIdError, and a
    positive class found in neither the truth nor the predictions a
    SchemaError, as for a CSV.  The columns are stored in record order and
    never change, so the truth's moments and label counts, and a regression's
    squared errors, are computed on first use and kept.  A group's dataset has
    no ids or group columns, and its other columns are tuples.
    """

    __slots__ = ("ids", "truth", "prediction", "score", "groups", "positive_class",
                 "attribute_schema", "_moments", "_counts", "_errors", "_source")

    def __init__(self, records: Iterable[PredictionRecord], positive_class: str | None,
                 attribute_schema: Iterable[str]):
        records = tuple(records)
        schema = tuple(attribute_schema)

        def column(values: list) -> list | None:
            return None if None in values else values

        # A regression (no positive class) scores its truth and predictions as numbers.
        numbers = ("y_true", "y_pred", "score") if positive_class is None else ("score",)
        groups: dict[str, list[str | None]] = {c: [] for c in schema}
        ids: dict[str, None] = {}
        for row_no, r in enumerate(records, start=1):  # as ingest names the first bad cell
            if not isinstance(r.id, str):
                raise BadValueError(row_no, "id", f"not a string: {r.id!r}")
            rid = r.id.strip()
            if not rid:
                raise BadValueError(row_no, "id", "empty id")
            if rid in ids:
                raise DuplicateIdError(f"id '{rid}' appears more than once (row {row_no})")
            ids[rid] = None
            if r.truth is None:
                raise BadValueError(row_no, "y_true", "empty value")
            for name, value in zip(("y_true", "y_pred", "score"), (r.truth, r.prediction, r.score)):
                if value is not None and name in numbers and not is_finite_number(value):
                    raise BadValueError(row_no, name, f"not a finite number: {value!r}")
            for c, values in groups.items():
                values.append(_group_value(c, r.attributes.get(c, ""), {}, row_no, c))
        self._fill(list(ids), [r.truth for r in records],
                   column([r.prediction for r in records]), column([r.score for r in records]),
                   groups, positive_class, schema)
        _require_positive_class(positive_class, self.truth, self.prediction)

    @classmethod
    def from_columns(cls, ids: list[str] | None, truth: list, prediction: list | None,
                     score: list[float] | None, groups: dict[str, list[str | None]],
                     positive_class: str | None, attribute_schema: tuple[str, ...]) -> "PredictionDataset":
        """A dataset of columns given in record order, which it takes over as they are;
        a group column holds group names, as label._group_value gives them, or None.
        The ids are taken unchecked, as ingest has checked them; None gives a dataset
        without ids, as a group's is, which has no records."""
        dataset = cls.__new__(cls)
        dataset._fill(ids, truth, prediction, score, groups, positive_class, attribute_schema)
        return dataset

    def _fill(self, ids, truth, prediction, score, groups, positive_class, attribute_schema):
        if not truth:
            raise EmptyDatasetError("a prediction dataset needs at least one record")
        self.ids = ids
        self.truth = truth
        self.prediction = prediction
        self.score = score
        self.groups = groups
        self.positive_class = positive_class
        self.attribute_schema = attribute_schema
        self._moments = self._counts = self._errors = self._source = None

    @property
    def n(self) -> int:
        return len(self.truth)

    @property
    def records(self) -> tuple[PredictionRecord, ...]:
        """The rows as records, built on each access; blank group cells are left out.
        A dataset without ids has none: a ValueError."""
        if self.ids is None:
            raise ValueError("this dataset carries no ids, so it has no records")
        missing = [None] * self.n
        prediction = missing if self.prediction is None else self.prediction
        score = missing if self.score is None else self.score
        columns = [(c, self.groups[c]) for c in self.attribute_schema]
        return tuple(
            PredictionRecord(self.ids[i], self.truth[i], prediction[i], score[i],
                             {c: col[i] for c, col in columns if col[i] is not None})
            for i in range(self.n))

    def _group(self, rows: list[int]) -> "PredictionDataset":
        """The dataset of these rows, in ascending order, for a group's scorer.  Its
        columns are tuples, and it keeps this dataset and the rows for ss_res."""
        gather = itemgetter(*rows) if len(rows) > 1 else lambda column: (column[rows[0]],)
        truth, prediction, score = (None if column is None else gather(column)
                                    for column in (self.truth, self.prediction, self.score))
        group = PredictionDataset.from_columns(None, truth, prediction, score, {},
                                               self.positive_class, ())
        group._source = (self, rows)
        return group

    def moments(self) -> tuple[float, float, float]:
        """The truth's mean, population std and sum of squared deviations, summed once."""
        if self._moments is None:
            self._moments = _mean_ss(self.truth)
        return self._moments

    def truth_counts(self) -> Counter:
        """How often each truth label occurs, counted once."""
        if self._counts is None:
            self._counts = Counter(self.truth)
        return self._counts

    def squared_errors(self) -> array:
        """Each row's squared residual, (y_true - y_pred) ** 2 in record order, squared once;
        inf where a square overflows."""
        if self._errors is None:
            self._errors = _squared_errors(*_predicted(self))
        return self._errors

    def ss_res(self) -> float:
        """The sum of squared residuals in record order.  A group sums the squared errors
        of the dataset it was gathered from over its rows."""
        if self._source is not None:
            parent, rows = self._source
            return sum(map(parent.squared_errors().__getitem__, rows))
        return sum(self.squared_errors())


def _require_positive_class(positive_class: str | None, truth: list,
                            prediction: list | None) -> None:
    """A SchemaError at positive_class when a classification dataset's truth and predictions
    never name its positive class: every score against it would be a plausible-looking 0."""
    if positive_class is not None and positive_class not in truth and (
            prediction is None or positive_class not in prediction):
        raise SchemaError("positive_class",
                          f"{positive_class!r} appears in neither y_true nor y_pred")


Scorer = Callable[[PredictionDataset], float]


class Direction(Enum):
    """Whether a higher raw score is better (Maximize) or worse (Minimize)."""

    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


@dataclass(frozen=True)
class ConfusionCounts:
    """True/false positives and negatives against one positive class."""

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
    outscores the negative, ties counting one half.  Sorts the scores once,
    so it runs in O(n log n) and reads the rows in any order.  A run of tied
    scores at 0-based sorted positions lo..hi-1 shares the mean 1-based rank
    (lo + hi + 1) / 2, so twice the positives' rank sum is an exact integer,
    and the result equals that of summing the ranks as floats.  Scores must be
    finite: a NaN compares false with every score, so its rank, and the result,
    would depend on the row order.
    """
    _check_pair(truth, scores)
    positives = [s for s, t in zip(scores, truth) if t == positive_class]
    n_pos = len(positives)
    n_neg = len(scores) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUC needs at least one positive and one negative sample")
    ranked = sorted(scores)
    twice_rank_sum = sum(bisect_left(ranked, s) + bisect_right(ranked, s) + 1 for s in positives)
    return (twice_rank_sum / 2.0 - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _finite(what: str, value: float) -> float:
    if not math.isfinite(value):
        raise NumericOverflowError(f"{what} is too large for a float")
    return value


def _mean_ss(truth: Sequence[float]) -> tuple[float, float, float]:
    """Mean, population (divisor N) standard deviation, and sum of squared deviations
    of a non-empty truth."""
    mean = sum(truth) / len(truth)
    try:
        ss_tot = sum((t - mean) ** 2 for t in truth)
    except OverflowError:  # float ** raises where + and * return inf
        ss_tot = math.inf
    return mean, math.sqrt(_finite("the truth's variance", ss_tot / len(truth))), ss_tot


def _square(residual: float) -> float:
    try:
        return float(residual ** 2)
    except OverflowError:  # float ** raises where + and * return inf; so does float() of a huge int
        return math.inf


def _squared_errors(truth: Sequence[float], predicted: Sequence[float]) -> array:
    """(t - p) ** 2 for each pair, as doubles; inf where a square overflows."""
    try:
        return array("d", [(t - p) ** 2 for t, p in zip(truth, predicted)])
    except OverflowError:
        return array("d", (_square(t - p) for t, p in zip(truth, predicted)))


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
    return auc(dataset.score, dataset.truth, positive_class)


def _r2(dataset: PredictionDataset, positive_class) -> float:
    """R2 = 1 - SS_res/SS_tot; undefined when the truth's SS_tot is zero."""
    _check_pair(*_predicted(dataset))
    ss_tot = dataset.moments()[2]
    if ss_tot == 0.0:
        raise ZeroVarianceError("truth values have zero variance; R2 is undefined")
    return _finite("R2", 1.0 - dataset.ss_res() / ss_tot)


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
    """Build a scorer mapping a dataset to the named metric's value."""
    spec = metric_spec(metric_name)
    if spec is None or spec.scorer is None:
        raise UnknownMetricError(f"no scorer for metric '{metric_name}'")
    return lambda dataset: spec.scorer(dataset, positive_class)


def majority_class_baseline(dataset: PredictionDataset, metric_name: str) -> float:
    """Score of the naive model that assigns every sample to the majority class.

    The naive model predicts the most common truth label for every record
    (ties go to the smallest label as text) and emits a constant score, so
    AUC degenerates to all-ties (0.5).
    """
    spec = metric_spec(metric_name)
    if spec is None or spec.majority_baseline is None:
        raise UnknownMetricError(f"no majority-class baseline for metric '{metric_name}'")
    counts = dataset.truth_counts()
    majority = min(counts, key=lambda label: (-counts[label], str(label)))
    return spec.majority_baseline(counts, majority, dataset.positive_class)


def group_breakdown(dataset: PredictionDataset, category: str, scorer: Scorer) -> list[DemographicGroupRow]:
    """Per-group rows for one demographic category.

    Only blank (None) cells fall under "Other"; every other cell names its
    group.  Canonical rows always appear, with not-collected stats when the
    group is empty; a scorer failure on a group (e.g. a single-class AUC) marks
    that row's score as unknown availability rather than fabricating a number.
    Extension groups follow the canonical rows in lexicographic order.
    """
    if category not in dataset.attribute_schema:
        raise UnknownCategoryError(f"category '{category}' not in the dataset's attribute schema")

    members: dict[str, list[int]] = defaultdict(list)
    for i, value in enumerate(dataset.groups[category]):
        members[value or "Other"].append(i)

    positive_class = dataset.positive_class
    ordered = list(CANONICAL_CATEGORIES.get(category, ()))
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
                  if positive_class is not None else MeanStd(*group.moments()[:2]))
        rows.append(DemographicGroupRow(
            group_name=name,
            pct_in_test=Provenance.reported(100.0 * group.n / dataset.n),
            group_accuracy=score_cell,
            target_stat=Provenance.reported(target),
        ))
    return rows
