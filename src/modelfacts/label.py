"""Model Facts label data model, structural validation, and completeness scoring.

The label is a one-page, consumer-facing summary of an ML model: what it is
for, how accurate it is, which demographic groups its test data covered, and
when not to trust it.  Every quantitative cell is wrapped in a provenance
state so that missing data is reported honestly instead of being omitted.

All types are immutable after construction.  Constructors enforce only
structural shape; numeric range rules are the validator's job, so that an
out-of-range label can still be loaded, inspected, and reported on.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, NamedTuple

from .errors import BadValueError, ImplausibleAgeError

if TYPE_CHECKING:
    from .render import RenderBudget

SCHEMA_VERSION = "1.0"
SUPPORTED_SCHEMA_VERSIONS = frozenset({"1.0"})


class ProvenanceState(Enum):
    """Where a label cell's value stands with respect to the underlying data."""

    REPORTED = "reported"
    AVAILABLE_UNREPORTED = "available_unreported"
    UNKNOWN_AVAILABILITY = "unknown_availability"
    NOT_COLLECTED = "not_collected"

    # Members are singletons that compare by identity; Enum's own hash runs Python code.
    __hash__ = object.__hash__


_REPORTED = ProvenanceState.REPORTED
_STATES = tuple(ProvenanceState)

# Render color per state; REPORTED cells carry no color.
PROVENANCE_COLORS: dict[ProvenanceState, str | None] = {
    ProvenanceState.REPORTED: None,
    ProvenanceState.AVAILABLE_UNREPORTED: "green",
    ProvenanceState.UNKNOWN_AVAILABILITY: "yellow",
    ProvenanceState.NOT_COLLECTED: "red",
}


@dataclass(frozen=True)
class Provenance:
    """A cell value tagged with exactly one provenance state.

    Only REPORTED carries a value; the other three states are value-less
    markers (data exists but was not published, availability is unknown, or
    the data was never collected).
    """

    state: ProvenanceState
    value: Any = None

    def __post_init__(self):
        if self.state is _REPORTED:
            if self.value is None:
                raise ValueError("a reported cell must carry a value")
        elif not isinstance(self.state, ProvenanceState):
            raise ValueError(f"{self.state!r} is not a provenance state")
        elif self.value is not None:
            raise ValueError(f"state {self.state.value} cannot carry a value")

    @classmethod
    def reported(cls, value: Any) -> "Provenance":
        return cls(_REPORTED, value)

    @classmethod
    def available_unreported(cls) -> "Provenance":
        return cls(ProvenanceState.AVAILABLE_UNREPORTED)

    @classmethod
    def unknown_availability(cls) -> "Provenance":
        return cls(ProvenanceState.UNKNOWN_AVAILABILITY)

    @classmethod
    def not_collected(cls) -> "Provenance":
        return cls(ProvenanceState.NOT_COLLECTED)

    @property
    def is_reported(self) -> bool:
        return self.state is _REPORTED

    @property
    def color(self) -> str | None:
        return PROVENANCE_COLORS[self.state]


class ModelType(Enum):
    BALANCED_CLASSIFICATION = "balanced_classification"
    IMBALANCED_CLASSIFICATION = "imbalanced_classification"
    REGRESSION = "regression"

    __hash__ = object.__hash__  # as ProvenanceState's

    @property
    def display_name(self) -> str:
        return _DISPLAY_NAMES[self]

    @property
    def is_classification(self) -> bool:
        return self is not ModelType.REGRESSION


_DISPLAY_NAMES = {
    ModelType.BALANCED_CLASSIFICATION: "Balanced Classification",
    ModelType.IMBALANCED_CLASSIFICATION: "Imbalanced Classification",
    ModelType.REGRESSION: "Regression",
}


@dataclass(frozen=True)
class PartialDate:
    """A calendar date at year, year-month, or full precision."""

    year: int
    month: int | None = None
    day: int | None = None

    def __post_init__(self):
        if not 1 <= self.year <= 9999:
            raise ValueError(f"year {self.year} out of range")
        if self.month is None and self.day is not None:
            raise ValueError("a day requires a month")
        if self.month is not None and not 1 <= self.month <= 12:
            raise ValueError(f"month {self.month} out of range")
        if self.day is not None:
            import calendar

            last = calendar.monthrange(self.year, self.month)[1]
            if not 1 <= self.day <= last:
                raise ValueError(f"day {self.day} out of range for {self.year}-{self.month:02d}")

    def isoformat(self) -> str:
        if self.month is None:
            return f"{self.year:04d}"
        if self.day is None:
            return f"{self.year:04d}-{self.month:02d}"
        return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"

    def sort_key(self) -> tuple[int, int, int]:
        """Earliest calendar day this partial date could denote."""
        return (self.year, self.month or 1, self.day or 1)

    def __str__(self) -> str:
        return self.isoformat()


@dataclass(frozen=True)
class DateRange:
    """Inclusive date interval; endpoints may carry reduced precision."""

    start: PartialDate
    end: PartialDate

    def __post_init__(self):
        if self.start.sort_key() > self.end.sort_key():
            raise ValueError(f"range start {self.start} is after end {self.end}")

    def isoformat(self) -> str:
        if self.start == self.end:
            return self.start.isoformat()
        return f"{self.start.isoformat()} to {self.end.isoformat()}"


@dataclass(frozen=True)
class ApplicationInfo:
    """What the model is for, its model type, and the dates of its training and test data."""

    application: str
    model_type: ModelType
    model_train_date: PartialDate
    test_data_range: DateRange

    def __post_init__(self):
        if not self.application.strip():
            raise ValueError("application text must be non-empty")


@dataclass(frozen=True)
class MetricValue:
    """A named metric with a raw score and a percent-over-baseline, each provenanced."""

    name: str
    raw_score: Provenance
    pct_over_baseline: Provenance


@dataclass(frozen=True)
class AccuracySection:
    """The label's two accuracy rows: the optimized metric and the model type's standard one."""

    optimized: MetricValue
    standard: MetricValue


@dataclass(frozen=True)
class DatasetInfo:
    """The test data's size and the train/test split, each cell provenanced."""

    sample_count: Provenance
    train_pct: Provenance
    test_pct: Provenance


@dataclass(frozen=True)
class PctTarget:
    """Share of a group whose truth is the positive class, in percent."""

    pct: float


@dataclass(frozen=True)
class MeanStd:
    """Mean and population standard deviation of a group's target variable."""

    mean: float
    std: float


@dataclass(frozen=True)
class DemographicGroupRow:
    """One group's share of the test data, accuracy and target statistic."""

    group_name: str
    pct_in_test: Provenance
    group_accuracy: Provenance
    target_stat: Provenance  # reported value is a PctTarget or MeanStd

    @classmethod
    def all_not_collected(cls, group_name: str) -> "DemographicGroupRow":
        nc = Provenance.not_collected
        return cls(group_name, nc(), nc(), nc())


@dataclass(frozen=True)
class DemographicCategory:
    """A demographic category (Race, Gender, Age or an extension) and its group rows."""

    category_name: str
    rows: tuple[DemographicGroupRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))


# Canonical demographic layout.  Labels must carry these three categories,
# each opening with these rows in this order; extensions are appended after.
CANONICAL_CATEGORIES: dict[str, tuple[str, ...]] = {
    "Race": ("Asian", "Hispanic", "Black", "White", "Other"),
    "Gender": ("Female", "Male", "Trans Female", "Trans Male", "Nonbinary", "Other"),
    "Age": ("<17", "18-24", "25-34", "35-49", "50+"),
}
CANONICAL_CATEGORY_ORDER = ("Race", "Gender", "Age")


def canonical_groups(category_name: str) -> tuple[str, ...] | None:
    """Canonical row names for a category, or None for extension categories."""
    return CANONICAL_CATEGORIES.get(category_name)


_MAX_PLAUSIBLE_AGE = 150
_YEARS = re.compile(r"[+-]?[0-9]+")  # int() alone also reads "4_2" and other scripts' digits
_AGE_BUCKET_ENDS = (17, 24, 34, 49)  # the oldest age of each Age group but the last, "50+"


def bucket_age(age_years: int) -> str:
    """Map integer years to the label's age bucket.

    Seventeen-year-olds land in "<17": the canonical buckets skip age 17, and
    we resolve the gap downward so every age in [0, 150] has a bucket.
    """
    if age_years < 0 or age_years > _MAX_PLAUSIBLE_AGE:
        raise ImplausibleAgeError(f"age {age_years} outside plausible range [0, {_MAX_PLAUSIBLE_AGE}]")
    return CANONICAL_CATEGORIES["Age"][bisect_left(_AGE_BUCKET_ENDS, age_years)]


def _group_value(category: str, raw: Any, aliases: Mapping[str, Mapping[str, str]],
                 row_no: int, column: str) -> str | None:
    """The group a raw demographic cell of any dataset stands for; None when it is blank.

    A canonical category's cell names one of its groups in any case, after the
    (lowercased) aliases, else it is "Other"; an extension category's cell is
    its own group.  An Age cell, without aliases, names a bucket or holds the
    integer years, in ASCII digits, that bucket_age places.  An Age cell that
    does neither, or a cell that is not a string, is a BadValueError at row_no
    and column.
    """
    if not isinstance(raw, str):
        raise BadValueError(row_no, column, f"not a string: {raw!r}")
    text = raw.strip()
    if not text:
        return None
    if category != "Age":
        text = aliases.get(category, {}).get(text.lower(), text)
    canon = canonical_groups(category)
    if canon is None:
        return text
    for group in canon:
        if text.lower() == group.lower():
            return group
    if category != "Age":
        return "Other"
    try:
        if _YEARS.fullmatch(text):
            return bucket_age(int(text))
    except ValueError:  # more digits than int() reads
        pass
    except ImplausibleAgeError as exc:
        raise BadValueError(row_no, column, exc.message) from None
    raise BadValueError(row_no, column, f"not an age: {text!r}")


@dataclass(frozen=True)
class ModelFactsLabel:
    """A whole Model Facts label, as every renderer and the canonical JSON show it."""

    application: ApplicationInfo
    accuracy: AccuracySection
    dataset: DatasetInfo
    demographics: tuple[DemographicCategory, ...]
    warnings: tuple[str, ...]
    schema_version: str = SCHEMA_VERSION

    def __post_init__(self):
        object.__setattr__(self, "demographics", tuple(self.demographics))
        object.__setattr__(self, "warnings", tuple(self.warnings))

    def category(self, name: str) -> DemographicCategory | None:
        for cat in self.demographics:
            if cat.category_name == name:
                return cat
        return None


Rule = Callable[[Any, ModelFactsLabel], "str | None"]  # why a reported value breaks it, else None


def _outside(value: Any, low: float | None, high: float | None, what: str) -> str | None:
    """Why value is not a finite number in [low, high], else None; a None bound is open."""
    if is_finite_number(value) and (low is None or low <= value) and (high is None or value <= high):
        return None
    lower = "(-inf" if low is None else f"[{low}"
    upper = "inf)" if high is None else f"{high}]"
    return f"{what} {value!r} outside {lower}, {upper}"


def _within(low: float, high: float, what: str) -> Rule:
    return lambda value, label: _outside(value, low, high, what)


@lru_cache(maxsize=64)
def _score_range(name: str) -> tuple[float | None, float] | None:
    from .metrics import metric_spec  # metrics imports this module

    spec = metric_spec(name)
    return None if spec is None else spec.score_range


def _scored(side: str, what: str | None = None) -> Rule:
    """In the score range of the label's optimized or standard metric, if it has one."""
    def rule(value: Any, label: ModelFactsLabel) -> str | None:
        name = getattr(label.accuracy, side).name
        bounds = _score_range(name)
        return None if bounds is None else _outside(value, *bounds, what or f"{name} raw score")
    return rule


def _count(value: Any, label: ModelFactsLabel) -> str | None:
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return None
    return f"sample count {value!r} must be a nonnegative integer"


def _target(value: Any, label: ModelFactsLabel) -> str | None:
    if isinstance(value, PctTarget):
        return _outside(value.pct, 0, 100, "target percentage")
    if isinstance(value, MeanStd):
        return _outside(value.std, 0, None, "standard deviation")
    return None


class ProvenanceCell(NamedTuple):
    """One provenance cell of every label; PROVENANCE_CELLS lists them."""

    label: str  # its label path; a row cell's continues its row's
    manifest: str  # its manifest path; a row cell's is its key in a DeclaredRow
    declared: str | None  # the LabelManifest field declaring it; None for a row cell
    rule: Rule | None  # the range rule of a reported value
    kind: str = "number"  # the codec's value kind
    scale: float = 1.0  # divides a declared-computed difference before the conflict tolerance

    def manifest_path(self, category: str | None = None, group: str | None = None) -> str:
        """The manifest path; a row cell's, in the given category and group."""
        if category is None:
            return self.manifest
        return f"demographics.{category}.rows.{group}.{self.manifest}"


# Every label's provenance cells, in label order: the accuracy and dataset
# cells, then the cells of each demographic row.
PROVENANCE_CELLS = (
    ProvenanceCell("accuracy.optimized.raw_score", "optimized_metric.raw", "optimized_raw",
                   _scored("optimized")),
    ProvenanceCell("accuracy.optimized.pct_over_baseline", "optimized_metric.pct_over_baseline",
                   "optimized_pct_over", None, scale=100.0),
    ProvenanceCell("accuracy.standard.raw_score", "standard_metric.raw", "standard_raw",
                   _scored("standard")),
    ProvenanceCell("accuracy.standard.pct_over_baseline", "standard_metric.pct_over_baseline",
                   "standard_pct_over", None, scale=100.0),
    ProvenanceCell("dataset.sample_count", "dataset.count", "sample_count", _count, "count"),
    ProvenanceCell("dataset.train_pct", "dataset.train_pct", "train_pct",
                   _within(0, 100, "train_pct"), scale=100.0),
    ProvenanceCell("dataset.test_pct", "dataset.test_pct", "test_pct",
                   _within(0, 100, "test_pct"), scale=100.0),
    ProvenanceCell("pct_in_test", "pct_in_test", None,
                   _within(0, 100, "test-data percentage"), scale=100.0),
    # A group's accuracy is the optimized metric's score on the group's rows.
    ProvenanceCell("group_accuracy", "accuracy", None, _scored("optimized", "group accuracy")),
    ProvenanceCell("target_stat", "target", None, _target, "target"),
)
LABEL_CELLS = tuple(cell for cell in PROVENANCE_CELLS if cell.declared is not None)
ROW_CELLS = tuple(cell for cell in PROVENANCE_CELLS if cell.declared is None)
DECLARED_CELLS = {cell.declared: cell for cell in LABEL_CELLS}
_LABEL_GETTERS = tuple((cell, attrgetter(cell.label)) for cell in LABEL_CELLS)
_ROW_GETTERS = tuple((cell, attrgetter(cell.label)) for cell in ROW_CELLS)


def _cell_holders(
        label: ModelFactsLabel) -> Iterator[tuple[Any, tuple, DemographicCategory | None]]:
    """The label, then each demographic row, with its cells' (table entry, getter) pairs
    and the row's category (None for the label), in label order."""
    yield label, _LABEL_GETTERS, None
    for cat in label.demographics:
        for row in cat.rows:
            yield row, _ROW_GETTERS, cat


def _cell_path(spec: ProvenanceCell, holder: Any, cat: DemographicCategory | None) -> str:
    """The label path of `holder`'s cell `spec`; `cat` is None for the label's own cells."""
    return (spec.label if cat is None
            else f"demographics.{cat.category_name}.{holder.group_name}.{spec.label}")


class ViolationCode(Enum):
    APPLICATION_TOO_LONG = "APPLICATION_TOO_LONG"
    PAGE_OVERFLOW = "PAGE_OVERFLOW"
    NON_NORMALIZED_METRIC = "NON_NORMALIZED_METRIC"
    MISSING_CANONICAL_CATEGORY = "MISSING_CANONICAL_CATEGORY"
    STANDARD_METRIC_MISMATCH = "STANDARD_METRIC_MISMATCH"
    SPLIT_INCONSISTENT = "SPLIT_INCONSISTENT"
    VALUE_OUT_OF_RANGE = "VALUE_OUT_OF_RANGE"


@dataclass(frozen=True)
class Violation:
    """One broken publishability rule: its code, why, and the label path at fault."""

    code: ViolationCode
    message: str
    location: str


# Period-bearing abbreviations that do not terminate a sentence.
_ABBREVIATIONS = (
    "U.S.A.",
    "U.S.",
    "U.K.",
    "E.U.",
    "e.g.",
    "i.e.",
    "etc.",
    "vs.",
    "cf.",
    "Dr.",
    "Mr.",
    "Mrs.",
    "Ms.",
    "St.",
    "No.",
)

_TERMINATORS = re.compile(r"[.!?]")


def sentence_terminator_count(text: str) -> int:
    """Count sentence terminators, ignoring periods inside known abbreviations."""
    for abbr in _ABBREVIATIONS:
        text = text.replace(abbr, "\x00" * len(abbr))
    return len(_TERMINATORS.findall(text))


_MAX_APPLICATION_CHARS = 200
_FLOAT_MAX = sys.float_info.max


def is_finite_number(value: Any) -> bool:
    """A finite int or float, not a bool; NaN and ints beyond float range fail the comparison."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, (int, float))):
        return False
    return abs(value) <= _FLOAT_MAX


def validate_label(label: ModelFactsLabel, budget: "RenderBudget | None" = None) -> list[Violation]:
    """Check a label against every publishability rule.

    Returns all violated rules, ordered by field path; an empty list means
    the label is publishable.  Honest gaps (non-Reported provenance states)
    are never violations; only broken structure or out-of-range values are.
    """
    from .metrics import select_standard_metric
    from .render import RenderBudget, text_line_count

    if budget is None:
        budget = RenderBudget()
    violations: list[Violation] = []

    # Application: at most one sentence, bounded length.
    app = label.application.application
    n_terms = sentence_terminator_count(app)
    if len(app) > _MAX_APPLICATION_CHARS or n_terms > 1:
        violations.append(Violation(
            ViolationCode.APPLICATION_TOO_LONG,
            f"application is {len(app)} chars with {n_terms} sentence terminators "
            f"(limit {_MAX_APPLICATION_CHARS} chars, 1 terminator)",
            "application.application"))

    # One-page budget on the text rendering, counted without drawing it.
    n_lines = text_line_count(label, budget)
    if n_lines > budget.max_lines:
        violations.append(Violation(
            ViolationCode.PAGE_OVERFLOW,
            f"text rendering is {n_lines} lines; budget is {budget.max_lines}",
            "label"))

    # Every reported metric needs a normalized representation.
    for side, mv in (("optimized", label.accuracy.optimized), ("standard", label.accuracy.standard)):
        path = f"accuracy.{side}"
        if mv.raw_score.is_reported:
            v = mv.raw_score.value
            in_unit = is_finite_number(v) and 0.0 <= v <= 1.0
            if not in_unit and not mv.pct_over_baseline.is_reported:
                violations.append(Violation(
                    ViolationCode.NON_NORMALIZED_METRIC,
                    f"{mv.name} raw score {v!r} is not in [0, 1] and no percentage accompanies it",
                    path))

    # Standard metric must match the model type's mandate.
    mandated = select_standard_metric(label.application.model_type)
    if label.accuracy.standard.name != mandated:
        violations.append(Violation(
            ViolationCode.STANDARD_METRIC_MISMATCH,
            f"standard metric is '{label.accuracy.standard.name}' but "
            f"{label.application.model_type.display_name} mandates '{mandated}'",
            "accuracy.standard.name"))

    # Canonical categories present, each opening with its canonical rows.
    present = {cat.category_name: cat for cat in label.demographics}
    for name in CANONICAL_CATEGORY_ORDER:
        cat = present.get(name)
        if cat is None:
            violations.append(Violation(
                ViolationCode.MISSING_CANONICAL_CATEGORY,
                f"canonical category '{name}' is missing",
                f"demographics.{name}"))
            continue
        canon = CANONICAL_CATEGORIES[name]
        head = tuple(row.group_name for row in cat.rows[:len(canon)])
        if head != canon:
            violations.append(Violation(
                ViolationCode.MISSING_CANONICAL_CATEGORY,
                f"category '{name}' must open with rows {list(canon)}",
                f"demographics.{name}"))

    # Split consistency.
    ds = label.dataset
    if ds.train_pct.is_reported and ds.test_pct.is_reported:
        total = ds.train_pct.value + ds.test_pct.value
        if total > 100.0 + 1e-9:
            violations.append(Violation(
                ViolationCode.SPLIT_INCONSISTENT,
                f"train + test percentages sum to {total}, above 100",
                "dataset"))

    # Every reported cell obeys its range rule.
    for holder, getters, cat in _cell_holders(label):
        for spec, get in getters:
            cell = get(holder)
            if cell.state is _REPORTED and spec.rule is not None:
                problem = spec.rule(cell.value, label)
                if problem is not None:
                    violations.append(Violation(ViolationCode.VALUE_OUT_OF_RANGE, problem,
                                                _cell_path(spec, holder, cat)))

    violations.sort(key=lambda v: (v.location, v.code.value, v.message))
    return violations


@dataclass(frozen=True)
class CompletenessReport:
    """Share of provenance-bearing cells that carry a reported value."""

    reported_fraction: float
    tally: dict[ProvenanceState, int]

    @property
    def total_cells(self) -> int:
        return sum(self.tally.values())


def completeness(label: ModelFactsLabel) -> CompletenessReport:
    """Tally every provenance cell per state and compute the reported fraction."""
    states = [get(holder).state for holder, getters, _ in _cell_holders(label)
              for _, get in getters]
    tally = {state: states.count(state) for state in _STATES}
    total = len(states)
    fraction = tally[_REPORTED] / total if total else 0.0
    return CompletenessReport(reported_fraction=fraction, tally=tally)
