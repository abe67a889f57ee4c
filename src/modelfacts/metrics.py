"""Numeric quantities behind a label: scores, baselines, and group breakdowns.

All functions are pure and deterministic; record order never changes a
result.  Scores are plain Python floats computed with stdlib arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .errors import (
    EmptyDatasetError,
    LengthMismatchError,
    ModelFactsError,
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

if TYPE_CHECKING:
    from .ingest import PredictionDataset, PredictionRecord

Scorer = Callable[[Sequence["PredictionRecord"]], float]


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


def _tied_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with ties assigned the mean rank of their run."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j + 2) / 2.0  # mean of 1-based positions i+1 .. j+1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def auc(scores: Sequence[float], truth: Sequence, positive_class) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney) formulation.

    Equals the fraction of (positive, negative) pairs where the positive
    outscores the negative, ties counting one half.  Runs in O(n log n), so
    it stays exact and fast on large datasets.
    """
    _check_pair(truth, scores)
    n_pos = sum(1 for t in truth if t == positive_class)
    n_neg = len(truth) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUC needs at least one positive and one negative sample")
    ranks = _tied_ranks(scores)
    rank_sum_pos = sum(r for r, t in zip(ranks, truth) if t == positive_class)
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class RegressionStats:
    """R-squared plus the target's mean and population standard deviation.

    r2 is None when the truth has zero variance, in which case R-squared is
    undefined but the mean and std are still meaningful.
    """

    r2: float | None
    target_mean: float
    target_std: float


def target_mean_std(truth: Sequence[float]) -> tuple[float, float]:
    """Mean and population (divisor N) standard deviation."""
    if len(truth) == 0:
        raise EmptyDatasetError("no samples")
    mean = sum(truth) / len(truth)
    var = sum((t - mean) ** 2 for t in truth) / len(truth)
    return mean, math.sqrt(var)


def regression_stats(truth: Sequence[float], predicted: Sequence[float]) -> RegressionStats:
    """R2 = 1 - SS_res/SS_tot over the test data, with the truth's mean/std."""
    _check_pair(truth, predicted)
    mean, std = target_mean_std(truth)
    ss_tot = sum((t - mean) ** 2 for t in truth)
    if ss_tot == 0.0:
        return RegressionStats(r2=None, target_mean=mean, target_std=std)
    ss_res = sum((t - p) ** 2 for t, p in zip(truth, predicted))
    return RegressionStats(r2=1.0 - ss_res / ss_tot, target_mean=mean, target_std=std)


def percent_over_baseline(raw: float, baseline: float, direction: Direction) -> float:
    """Percent improvement of a raw score over a baseline score.

    For minimized metrics the sign is flipped so that a positive result
    always means the model beats the baseline.
    """
    if baseline == 0:
        raise ZeroBaselineError("baseline score is zero; percent improvement is undefined")
    if direction is Direction.MINIMIZE:
        return 100.0 * (baseline - raw) / baseline
    return 100.0 * (raw - baseline) / baseline


def select_standard_metric(model_type: ModelType) -> str:
    """The mandated standard score for a model type."""
    return {
        ModelType.BALANCED_CLASSIFICATION: "Accuracy",
        ModelType.IMBALANCED_CLASSIFICATION: "F1",
        ModelType.REGRESSION: "R2",
    }[model_type]


def _r2(truth: Sequence[float], predicted: Sequence[float], positive_class) -> float:
    stats = regression_stats(truth, predicted)
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

    scorer(truth, values, positive_class) scores `score` when needs_score is
    set, else `y_pred`.  majority_baseline(counts, majority, positive_class)
    scores, from the truth-label counts, predicting the majority everywhere.
    A metric without a scorer may be named on a label but not computed.
    """

    name: str
    direction: Direction
    classification: bool  # applies to classification models, else to regression
    score_range: tuple[float | None, float] | None = None  # validator's (low or None, high)
    needs_score: bool = False
    scorer: Callable[[Sequence, Sequence, Any], float] | None = None
    majority_baseline: Callable[[Counter, Any, Any], float] | None = None


def _canon_metric_name(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "").replace(" ", "")


_UNIT = (0.0, 1.0)
METRIC_SPECS: dict[str, MetricSpec] = {_canon_metric_name(spec.name): spec for spec in (
    MetricSpec("Accuracy", Direction.MAXIMIZE, True, _UNIT,
               scorer=lambda truth, predicted, _: standard_accuracy(truth, predicted),
               majority_baseline=lambda counts, majority, _: counts[majority] / counts.total()),
    MetricSpec("F1", Direction.MAXIMIZE, True, _UNIT,
               scorer=lambda truth, predicted, pos: precision_recall_f1(truth, predicted, pos)[2],
               majority_baseline=_f1_baseline),
    MetricSpec("AUC", Direction.MAXIMIZE, True, _UNIT, needs_score=True,
               scorer=lambda truth, scores, pos: auc(scores, truth, pos),
               majority_baseline=_auc_baseline),
    MetricSpec("R2", Direction.MAXIMIZE, False, (None, 1.0), scorer=_r2),
    # Known by name only: a direction, and a range rule where one applies.
    *(MetricSpec(name, Direction.MAXIMIZE, True, _UNIT) for name in ("Precision", "Recall")),
    *(MetricSpec(name, Direction.MINIMIZE, True) for name in ("LogLoss", "CrossEntropy", "Brier")),
    *(MetricSpec(name, Direction.MINIMIZE, False) for name in ("MSE", "RMSE", "MAE")),
)}


def metric_spec(name: str) -> MetricSpec | None:
    """The table entry for a metric name in any spelling (case, "-", "_", spaces), else None."""
    return METRIC_SPECS.get(_canon_metric_name(name))


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
    """Build a scorer mapping a record subset to the named metric's value."""
    spec = metric_spec(metric_name)
    if spec is None or spec.scorer is None:
        raise UnknownMetricError(f"no scorer for metric '{metric_name}'")

    def score(records):
        values = ([r.score for r in records] if spec.needs_score
                  else [r.prediction for r in records])
        return spec.scorer([r.truth for r in records], values, positive_class)
    return score


def majority_class_baseline(dataset: "PredictionDataset", metric_name: str) -> float:
    """Score of the naive model that assigns every sample to the majority class.

    The naive model predicts the most common truth label for every record
    (ties go to the smallest label as text) and emits a constant score, so
    AUC degenerates to all-ties (0.5).
    """
    spec = metric_spec(metric_name)
    if spec is None or spec.majority_baseline is None:
        raise UnknownMetricError(f"no majority-class baseline for metric '{metric_name}'")
    counts = Counter(r.truth for r in dataset.records)
    majority = min(counts, key=lambda label: (-counts[label], str(label)))
    return spec.majority_baseline(counts, majority, dataset.positive_class)


@dataclass(frozen=True)
class GroupStats:
    """Computed statistics for one demographic group with n > 0 records."""

    group_name: str
    n: int
    pct_in_test: float
    score: float | None  # None when the scorer is undefined on the group
    target: PctTarget | MeanStd


def group_breakdown(dataset: "PredictionDataset", category: str, scorer: Scorer) -> list[DemographicGroupRow]:
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
    groups: dict[str, list] = {}
    for record in dataset.records:
        value = record.attributes.get(category)
        if not value or (canon is not None and value not in canon):
            value = "Other"
        groups.setdefault(value, []).append(record)

    n_total = dataset.n
    classification = dataset.positive_class is not None

    ordered = list(canon) if canon is not None else []
    ordered += sorted(g for g in groups if g not in ordered)

    rows = []
    for name in ordered:
        members = groups.get(name, [])
        if not members:
            rows.append(DemographicGroupRow.all_not_collected(name))
            continue
        stats = _stats_for_group(name, members, n_total, classification,
                                 dataset.positive_class, scorer)
        score_cell = (Provenance.reported(stats.score) if stats.score is not None
                      else Provenance.unknown_availability())
        rows.append(DemographicGroupRow(
            group_name=name,
            pct_in_test=Provenance.reported(stats.pct_in_test),
            group_accuracy=score_cell,
            target_stat=Provenance.reported(stats.target),
        ))
    return rows


def _stats_for_group(name, members, n_total, classification, positive_class, scorer) -> GroupStats:
    try:
        score = scorer(members)
    except ModelFactsError:
        score = None
    if classification:
        positives = sum(1 for r in members if r.truth == positive_class)
        target = PctTarget(100.0 * positives / len(members))
    else:
        mean, std = target_mean_std([r.truth for r in members])
        target = MeanStd(mean, std)
    return GroupStats(
        group_name=name,
        n=len(members),
        pct_in_test=100.0 * len(members) / n_total,
        score=score,
        target=target,
    )
