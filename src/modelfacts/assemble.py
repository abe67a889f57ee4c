"""Label assembly, cross-label comparison, and representation audits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .codec import load_json_document, require_number
from .errors import (BadArgumentError, DeclaredConflictError, NoOverlapError,
                     NumericOverflowError, SchemaError, UnknownMetricError, ZeroBaselineError)
from .ingest import _PATHS, DeclaredRow, LabelManifest, PredictionDataset
from .label import (
    CANONICAL_CATEGORY_ORDER,
    DECLARED_CELLS,
    ROW_CELLS,
    ApplicationInfo,
    AccuracySection,
    DatasetInfo,
    DemographicCategory,
    DemographicGroupRow,
    MeanStd,
    MetricValue,
    ModelFactsLabel,
    PctTarget,
    Provenance,
    ProvenanceCell,
    canonical_groups,
    completeness,
    is_finite_number,
)
from .metrics import (
    Direction,
    MetricSpec,
    group_breakdown,
    majority_class_baseline,
    make_scorer,
    metric_direction,
    metric_spec,
    percent_over_baseline,
)

# Declared values may disagree with computed ones by at most this much,
# measured on normalized values (scores as-is, percentages divided by 100).
CONFLICT_TOLERANCE = 1e-6


def _conflict(path: str, declared: float, computed: float, scale: float = 1.0) -> None:
    if abs(declared - computed) / scale > CONFLICT_TOLERANCE:
        raise DeclaredConflictError(path, declared, computed)


def _check_value_conflict(path: str, declared: Any, computed: Any, scale: float) -> None:
    """Both values have the model type's shape: the manifest checks its cells, and
    `_assemble` checks that the dataset fits the model type."""
    if isinstance(declared, PctTarget):
        _conflict(f"{path}.pct_target", declared.pct, computed.pct, scale=100.0)
    elif isinstance(declared, MeanStd):
        _conflict(f"{path}.mean", declared.mean, computed.mean)
        _conflict(f"{path}.std", declared.std, computed.std)
    else:
        _conflict(path, declared, computed, scale)


def _cell(computed: Provenance | None, declared: Provenance | None, spec: ProvenanceCell,
          required: bool, row: tuple[str, str] | tuple[()] = ()) -> Provenance:
    """The one rule that decides every cell of a label.

    A computed reported value wins, and a declared reported value must agree
    with it.  Otherwise the declared cell stands, else the computed state (a
    scorer failure or an empty group), else not_collected.  A declared label
    (`required`) may leave no cell to that default.  `spec` is the cell's
    table entry, and `row` a row cell's (category, group).
    """
    if computed is not None and computed.is_reported:
        if declared is not None and declared.is_reported:
            _check_value_conflict(spec.manifest_path(*row), declared.value, computed.value,
                                  spec.scale)
        return computed
    if declared is not None:
        return declared
    if computed is not None:
        return computed
    if required:
        raise SchemaError(spec.manifest_path(*row), "required for a declared label")
    return Provenance.not_collected()


def _fitting_spec(name: str, manifest: LabelManifest) -> MetricSpec | None:
    """The metric's table entry, after checking that a listed metric fits the model type."""
    spec = metric_spec(name)
    if spec is not None and spec.classification != manifest.model_type.is_classification:
        raise UnknownMetricError(
            f"metric '{name}' does not apply to {manifest.model_type.display_name} models")
    return spec


def _metric(manifest: LabelManifest, dataset: PredictionDataset | None, role: str, name: str,
            raw: float | None, direction: Direction, baseline: float | None) -> MetricValue:
    """The optimized or the standard metric's cells; `raw` is its computed score, if any.

    The percent over an explicit baseline (only the optimized metric has one)
    is computed from the raw cell, declared or computed.  Under the
    majority-class policy it is computed from the computed score, unless the
    majority baseline is zero (F1 on a negative majority), which leaves the
    percent undefined.
    """
    required = dataset is None
    raw_spec, pct_spec = DECLARED_CELLS[f"{role}_raw"], DECLARED_CELLS[f"{role}_pct_over"]
    raw_cell = _cell(None if raw is None else Provenance.reported(raw),
                     getattr(manifest, raw_spec.declared), raw_spec, required)
    pct = None
    if baseline is not None and raw_cell.is_reported:
        pct = Provenance.reported(percent_over_baseline(raw_cell.value, baseline, direction))
    elif manifest.baseline_policy == "majority-class" and raw is not None:
        try:
            pct = Provenance.reported(percent_over_baseline(
                raw, majority_class_baseline(dataset, name), direction))
        except ZeroBaselineError:
            pass
    return MetricValue(name, raw_cell,
                       _cell(pct, getattr(manifest, pct_spec.declared), pct_spec, required))


def _row(category: str, group: str, computed: DemographicGroupRow | None,
         declared: DeclaredRow | None) -> DemographicGroupRow:
    """One demographic row, each cell by `_cell`'s rule; either side may be absent."""
    return DemographicGroupRow(group, *[
        _cell(None if computed is None else getattr(computed, spec.label),
              None if declared is None else declared[spec.manifest], spec, False, (category, group))
        for spec in ROW_CELLS])


def _assemble(manifest: LabelManifest, dataset: PredictionDataset | None) -> ModelFactsLabel:
    """The label of a manifest and, for a generated label, its dataset; see `_cell`."""
    required = dataset is None
    standard_name = manifest.standard_metric_name
    scorer = raw = standard_raw = None
    if dataset is not None:
        if (dataset.positive_class is None) == manifest.model_type.is_classification:
            raise BadArgumentError(
                f"{manifest.model_type.display_name} labels need a dataset "
                f"{'with' if dataset.positive_class is None else 'without'} a positive class")
        optimized_spec = _fitting_spec(manifest.optimized_name, manifest)
        scorer = make_scorer(manifest.optimized_name, dataset.positive_class)
        raw = scorer(dataset)
    optimized = _metric(manifest, dataset, "optimized", manifest.optimized_name, raw,
                        manifest.optimized_direction, manifest.baseline)
    if dataset is not None:
        # The optimized metric's score is reused, not computed again.  A listed metric
        # without a scorer or its column is left to its declared cell; an unlisted name
        # is UNKNOWN_METRIC from make_scorer.
        spec = _fitting_spec(standard_name, manifest)
        if spec is optimized_spec:  # a table entry, or make_scorer would have raised
            standard_raw = raw
        elif spec is None or spec.scorer is not None and (
                dataset.has_scores if spec.needs_score else dataset.has_predictions):
            standard_raw = make_scorer(standard_name, dataset.positive_class)(dataset)
    standard = _metric(manifest, dataset, "standard", standard_name, standard_raw,
                       metric_direction(standard_name) or Direction.MAXIMIZE, None)

    # A declared count wins over the row count: it counts the whole dataset,
    # and the CSV holds only its test rows.
    count = None if dataset is None else Provenance.reported(dataset.n)
    info = DatasetInfo(
        sample_count=_cell(None, manifest.sample_count or count, DECLARED_CELLS["sample_count"],
                           required),
        train_pct=_cell(None, manifest.train_pct, DECLARED_CELLS["train_pct"], required),
        test_pct=_cell(None, manifest.test_pct, DECLARED_CELLS["test_pct"], required),
    )

    schema = () if dataset is None else dataset.attribute_schema
    categories = []
    for name in dict.fromkeys((*CANONICAL_CATEGORY_ORDER, *schema, *manifest.demographics)):
        path = f"{_PATHS['demographics']}.{name}"
        declared = manifest.demographics.get(name)
        if declared is None and required:  # only a canonical category gets here
            raise SchemaError(path, "required for a declared label")
        computed = ({row.group_name: row for row in group_breakdown(dataset, name, scorer)}
                    if name in schema else {})
        declared = declared or {}
        groups = dict.fromkeys((*(computed or canonical_groups(name) or ()), *declared))
        if groups:
            categories.append(DemographicCategory(name, tuple(
                _row(name, group, computed.get(group), declared.get(group)) for group in groups)))

    return ModelFactsLabel(
        application=ApplicationInfo(
            application=manifest.application,
            model_type=manifest.model_type,
            model_train_date=manifest.model_train_date,
            test_data_range=manifest.test_data_range,
        ),
        accuracy=AccuracySection(optimized=optimized, standard=standard),
        dataset=info,
        demographics=tuple(categories),
        warnings=manifest.warnings,
    )


def generate_label(dataset: PredictionDataset, manifest: LabelManifest) -> ModelFactsLabel:
    """Assemble a label by computing every cell the dataset supports.

    Declared manifest cells fill the holes computation cannot reach (splits,
    absent demographic columns, a standard score without its column) and are
    cross-checked against computed values: a declared number that contradicts
    its computed counterpart is an error, not a silent override.
    """
    return _assemble(manifest, dataset)


def build_declared_label(manifest: LabelManifest) -> ModelFactsLabel:
    """Assemble a label purely from declarations, with no dataset.

    Used for retrospective labels reconstructed from published results.  The
    manifest must cover every cell: accuracy values, dataset size and split,
    and all three canonical demographic categories, each with an explicit
    provenance state.  A percent over an explicit baseline is computed from
    the declared raw score, and a declared percent must agree with it.
    """
    return _assemble(manifest, None)


@dataclass(frozen=True)
class ComparisonEntry:
    identifier: str
    optimized: MetricValue
    standard: MetricValue
    completeness: float


@dataclass(frozen=True)
class ComparisonReport:
    entries: tuple[ComparisonEntry, ...]
    ranking: tuple[str, ...]
    caveats: tuple[str, ...]


_REPEATED_IDENTIFIER = "label identifiers must be unique"


def check_identifiers(identifiers: Sequence[str]) -> None:
    """Each identifier given once, as `compare_labels` requires; else BAD_ARGUMENT."""
    if len(set(identifiers)) != len(identifiers):
        raise BadArgumentError(_REPEATED_IDENTIFIER)


def compare_labels(labels: Iterable[tuple[str, ModelFactsLabel]]) -> ComparisonReport:
    """Rank labels by optimized raw score and surface comparability caveats.

    Reads `labels` once, and a repeated identifier raises before the next pair
    is read.  Ranking is a total order: direction-aware on the optimized metric,
    with unreported or non-finite scores last and ties broken by identifier, so
    permuting the input never changes the result.  Caveats flag comparisons the
    scores do not support: differing applications (compared with case and
    spacing ignored), differing dataset sizes, or metrics optimized in
    different directions.
    """
    by_id: dict[str, ComparisonEntry] = {}
    apps: set[str] = set()
    counts: set[Any] = set()
    for ident, label in labels:
        if ident in by_id:
            raise BadArgumentError(_REPEATED_IDENTIFIER)
        by_id[ident] = ComparisonEntry(ident, label.accuracy.optimized, label.accuracy.standard,
                                       completeness(label).reported_fraction)
        apps.add(" ".join(label.application.application.split()).lower())
        if label.dataset.sample_count.is_reported:
            counts.add(label.dataset.sample_count.value)
    if not by_id:
        raise BadArgumentError("compare_labels needs at least one label")
    entries = tuple(by_id.values())

    caveats: list[str] = []
    directions = {e.identifier: metric_direction(e.optimized.name) for e in entries}
    known = {d for d in directions.values() if d is not None}
    if None in directions.values():
        unnamed = sorted(i for i, d in directions.items() if d is None)
        caveats.append(f"optimized metric direction is unknown for {', '.join(unnamed)}; "
                       "ranked as if maximized")
    if len(known) > 1:
        caveats.append("labels optimize metrics in different directions; "
                       "ranking assumes higher raw scores are better")
    if len(apps) > 1:
        caveats.append("applications differ; raw scores are only comparable for models "
                       "tested on the same dataset and application")
    if len(counts) > 1:
        caveats.append("reported dataset sizes differ; the labels do not describe "
                       "the same test data")

    ascending = known == {Direction.MINIMIZE}

    def sort_key(entry: ComparisonEntry):
        cell = entry.optimized.raw_score
        if not is_finite_number(cell.value):  # unreported cells carry no value
            return (1, 0.0, entry.identifier)
        value = cell.value if ascending else -cell.value
        return (0, value, entry.identifier)

    ranking = tuple(e.identifier for e in sorted(entries, key=sort_key))
    return ComparisonReport(entries=entries, ranking=ranking, caveats=tuple(caveats))


@dataclass(frozen=True)
class ReferencePopulation:
    """Known demographic distribution to audit a label's test data against."""

    name: str
    distributions: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self):
        # A share outside [0, 100] is a SCHEMA_ERROR at its document path, as for a manifest.
        for category, groups in self.distributions.items():
            for group, pct in groups.items():
                if not 0 <= pct <= 100:
                    raise SchemaError(f"categories.{category}.{group}", f"{pct} outside [0, 100]")
            total = sum(groups.values())
            if abs(total - 100.0) > 0.1:
                raise ValueError(
                    f"reference category '{category}' percentages sum to {total}, not 100")


def load_reference_population(doc: str | bytes | Mapping[str, Any]) -> ReferencePopulation:
    """Parse a reference population document: {name, categories: {cat: {group: pct}}}."""
    if isinstance(doc, (str, bytes)):
        doc = load_json_document(doc)
    if not isinstance(doc, Mapping):
        raise SchemaError("(document)", "reference population must be a JSON object")
    unknown = set(doc) - {"name", "categories"}
    if unknown:
        raise SchemaError("(top level)", f"unknown keys {sorted(unknown)}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError("name", "must be a non-empty string")
    categories = doc.get("categories")
    if not isinstance(categories, Mapping) or not categories:
        raise SchemaError("categories", "must be a non-empty object")
    distributions: dict[str, dict[str, float]] = {}
    for category, groups in categories.items():
        if not isinstance(groups, Mapping) or not groups:
            raise SchemaError(f"categories.{category}", "must be a non-empty object")
        distributions[category] = {
            group: float(require_number(pct, f"categories.{category}.{group}"))
            for group, pct in groups.items()}
    try:
        return ReferencePopulation(name=name, distributions=distributions)
    except ValueError as exc:
        raise SchemaError("categories", str(exc)) from None


def load_reference_population_file(path: str | Path) -> ReferencePopulation:
    return load_reference_population(Path(path).read_bytes())


@dataclass(frozen=True)
class AuditEntry:
    category: str
    group: str
    label_pct: Provenance
    reference_pct: float
    gap_pp: float | None  # None when the label share is not reported
    flagged: bool


@dataclass(frozen=True)
class AuditReport:
    reference_name: str
    threshold_pp: float
    entries: tuple[AuditEntry, ...]
    disparity: dict[str, float | None] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def flagged(self) -> tuple[AuditEntry, ...]:
        return tuple(e for e in self.entries if e.flagged)


def check_threshold_pp(threshold_pp: float) -> float:
    """An audit threshold: a finite, nonnegative number of percentage points; else BAD_ARGUMENT."""
    if not (math.isfinite(threshold_pp) and threshold_pp >= 0):
        raise BadArgumentError(f"expected a finite, nonnegative number, got {threshold_pp!r}")
    return threshold_pp


def representation_audit(label: ModelFactsLabel, reference: ReferencePopulation,
                         threshold_pp: float = 5.0) -> AuditReport:
    """Compare the label's test-data shares against a reference population.

    Each matched group gets a signed gap in percentage points (label minus
    reference) and is flagged when the absolute gap exceeds the threshold.
    Groups without a reported share are unauditable, never flagged, and
    noted, since unreported demographics may hide representation bias.
    """
    check_threshold_pp(threshold_pp)
    ref_by_lower = {cat.lower(): cat for cat in reference.distributions}
    matched = [cat for cat in label.demographics if cat.category_name.lower() in ref_by_lower]
    if not matched:
        raise NoOverlapError(
            f"reference '{reference.name}' shares no demographic category with the label")

    entries: list[AuditEntry] = []
    notes: list[str] = []
    for category in matched:
        ref_groups = reference.distributions[ref_by_lower[category.category_name.lower()]]
        ref_lower = {g.lower(): g for g in ref_groups}
        unauditable = 0
        audited = 0
        for row in category.rows:
            ref_name = ref_lower.get(row.group_name.lower())
            if ref_name is None:
                continue
            audited += 1
            ref_pct = ref_groups[ref_name]
            if row.pct_in_test.is_reported:
                gap = row.pct_in_test.value - ref_pct
                flagged = abs(gap) > threshold_pp
            else:
                gap = None
                flagged = False
                unauditable += 1
            entries.append(AuditEntry(
                category=category.category_name,
                group=row.group_name,
                label_pct=row.pct_in_test,
                reference_pct=ref_pct,
                gap_pp=gap,
                flagged=flagged,
            ))
        if unauditable:
            notes.append(
                f"{category.category_name}: {unauditable} of {audited} groups have no "
                "reported test share; potential for unreported biases")

    disparity: dict[str, float | None] = {}
    for category in label.demographics:
        accuracies = [row.group_accuracy.value for row in category.rows
                      if row.group_accuracy.is_reported]
        spread = max(accuracies) - min(accuracies) if len(accuracies) >= 2 else None
        if spread is not None and not math.isfinite(spread):
            raise NumericOverflowError(
                f"the accuracy spread in {category.category_name} is too large for a float")
        disparity[category.category_name] = spread

    return AuditReport(
        reference_name=reference.name,
        threshold_pp=threshold_pp,
        entries=tuple(entries),
        disparity=disparity,
        notes=tuple(notes),
    )
