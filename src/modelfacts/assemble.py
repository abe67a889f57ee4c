"""Label assembly, cross-label comparison, and representation audits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from .codec import load_json_document, require_number
from .errors import (BadArgumentError, DeclaredConflictError, NoOverlapError, SchemaError,
                     UnknownMetricError, ZeroBaselineError)
from .ingest import _PATHS, DeclaredRow, LabelManifest, PredictionDataset
from .label import (
    CANONICAL_CATEGORY_ORDER,
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
        raise DeclaredConflictError(
            f"{path}: declared {declared!r} contradicts computed {computed!r}")


def _merge_cell(computed: Provenance, declared: Provenance | None, path: str,
                scale: float = 1.0) -> Provenance:
    """Computed wins; a declared reported value must agree, and declared
    states fill cells the dataset could not produce."""
    if computed.is_reported:
        if declared is not None and declared.is_reported:
            _check_value_conflict(path, declared.value, computed.value, scale)
        return computed
    return declared if declared is not None else computed


def _check_value_conflict(path: str, declared: Any, computed: Any, scale: float) -> None:
    if isinstance(declared, PctTarget) and isinstance(computed, PctTarget):
        _conflict(f"{path}.pct_target", declared.pct, computed.pct, scale=100.0)
    elif isinstance(declared, MeanStd) and isinstance(computed, MeanStd):
        _conflict(f"{path}.mean", declared.mean, computed.mean)
        _conflict(f"{path}.std", declared.std, computed.std)
    elif is_finite_number(declared) and is_finite_number(computed):
        _conflict(path, declared, computed, scale)
    else:
        raise DeclaredConflictError(
            f"{path}: declared {declared!r} has a different shape than computed {computed!r}")


def _fitting_spec(name: str, manifest: LabelManifest) -> MetricSpec | None:
    """The metric's table entry, after checking that a listed metric fits the model type."""
    spec = metric_spec(name)
    if spec is not None and spec.classification != manifest.model_type.is_classification:
        raise UnknownMetricError(
            f"metric '{name}' does not apply to {manifest.model_type.display_name} models")
    return spec


def _pct_over_cell(dataset: PredictionDataset, manifest: LabelManifest, name: str,
                   raw: float | None, direction: Direction, declared: Provenance | None,
                   baseline: float | None = None) -> Provenance:
    """The percent-over-baseline cell of one metric, optimized or standard.

    A declared percent must agree with one computed from an explicit baseline
    (only the optimized metric has one).  A majority-class baseline of zero
    (F1 on a negative majority) leaves the percent undefined, so the declared
    cell or not_collected stands in.
    """
    if baseline is not None:
        pct = percent_over_baseline(raw, baseline, direction)
        if declared is not None and declared.is_reported:
            _conflict(_PATHS["optimized_pct_over"], declared.value, pct, scale=100.0)
        return Provenance.reported(pct)
    if manifest.baseline_policy == "majority-class" and raw is not None:
        try:
            return Provenance.reported(percent_over_baseline(
                raw, majority_class_baseline(dataset, name), direction))
        except ZeroBaselineError:
            pass
    return declared or Provenance.not_collected()


def generate_label(dataset: PredictionDataset, manifest: LabelManifest) -> ModelFactsLabel:
    """Assemble a label by computing every cell the dataset supports.

    Declared manifest cells fill the holes computation cannot reach (splits,
    absent demographic columns, a standard score without its column) and are
    cross-checked against computed values: a declared number that contradicts
    its computed counterpart is an error, not a silent override.
    """
    _fitting_spec(manifest.optimized_name, manifest)
    scorer = make_scorer(manifest.optimized_name, dataset.positive_class)
    optimized_raw = scorer(dataset)
    if manifest.optimized_raw is not None and manifest.optimized_raw.is_reported:
        _conflict(_PATHS["optimized_raw"], manifest.optimized_raw.value, optimized_raw)
    optimized = MetricValue(
        manifest.optimized_name, Provenance.reported(optimized_raw),
        _pct_over_cell(dataset, manifest, manifest.optimized_name, optimized_raw,
                       manifest.optimized_direction, manifest.optimized_pct_over,
                       baseline=manifest.baseline))
    standard = _standard_metric(dataset, manifest)

    info = DatasetInfo(
        sample_count=manifest.sample_count or Provenance.reported(dataset.n),
        train_pct=manifest.train_pct or Provenance.not_collected(),
        test_pct=manifest.test_pct or Provenance.not_collected(),
    )

    demographics = _assemble_demographics(dataset, manifest, scorer)

    return ModelFactsLabel(
        application=ApplicationInfo(
            application=manifest.application,
            model_type=manifest.model_type,
            model_train_date=manifest.model_train_date,
            test_data_range=manifest.test_data_range,
        ),
        accuracy=AccuracySection(optimized=optimized, standard=standard),
        dataset=info,
        demographics=tuple(demographics),
        warnings=manifest.warnings,
    )


def _standard_metric(dataset: PredictionDataset, manifest: LabelManifest) -> MetricValue:
    """Computed if the metric has a scorer and the dataset its column, else declared."""
    name = manifest.standard_metric_name
    spec = _fitting_spec(name, manifest)
    raw_value = None
    if spec is None or spec.scorer is not None and (
            dataset.has_scores if spec.needs_score else dataset.has_predictions):
        raw_value = make_scorer(name, dataset.positive_class)(dataset)
        if manifest.standard_raw is not None and manifest.standard_raw.is_reported:
            _conflict(_PATHS["standard_raw"], manifest.standard_raw.value, raw_value)
        raw_cell = Provenance.reported(raw_value)
    else:
        raw_cell = manifest.standard_raw or Provenance.not_collected()
    direction = metric_direction(name) or Direction.MAXIMIZE
    return MetricValue(name, raw_cell, _pct_over_cell(
        dataset, manifest, name, raw_value, direction, manifest.standard_pct_over))


def _assemble_demographics(dataset: PredictionDataset, manifest: LabelManifest,
                           scorer) -> list[DemographicCategory]:
    order = list(CANONICAL_CATEGORY_ORDER)
    for name in list(dataset.attribute_schema) + list(manifest.demographics):
        if name not in order:
            order.append(name)

    categories = []
    for name in order:
        declared = manifest.demographics.get(name, {})
        if name in dataset.attribute_schema:
            computed = group_breakdown(dataset, name, scorer)
            path = f"{_PATHS['demographics']}.{name}"
            rows = [_merge_row(row, declared.get(row.group_name), path) for row in computed]
            seen = {row.group_name for row in computed}
            rows += [_declared_row(group, cells)
                     for group, cells in declared.items() if group not in seen]
        else:
            rows = _declared_category_rows(name, declared)
            if rows is None:
                continue
        categories.append(DemographicCategory(name, tuple(rows)))
    return categories


def _declared_category_rows(name: str, declared: dict[str, DeclaredRow]) -> list[DemographicGroupRow] | None:
    canon = canonical_groups(name)
    if canon is None and not declared:
        return None
    groups = list(canon) if canon is not None else []
    groups += [g for g in declared if g not in groups]
    return [_declared_row(group, declared.get(group)) for group in groups]


def _declared_row(group: str, cells: DeclaredRow | None) -> DemographicGroupRow:
    if cells is None:
        return DemographicGroupRow.all_not_collected(group)
    return DemographicGroupRow(
        group_name=group,
        pct_in_test=cells["pct_in_test"],
        group_accuracy=cells["accuracy"],
        target_stat=cells["target"],
    )


def _merge_row(computed: DemographicGroupRow, declared: DeclaredRow | None,
               path: str) -> DemographicGroupRow:
    if declared is None:
        return computed
    base = f"{path}.{computed.group_name}"
    return DemographicGroupRow(
        group_name=computed.group_name,
        pct_in_test=_merge_cell(computed.pct_in_test, declared.get("pct_in_test"),
                                f"{base}.pct_in_test", scale=100.0),
        group_accuracy=_merge_cell(computed.group_accuracy, declared.get("accuracy"),
                                   f"{base}.accuracy"),
        target_stat=_merge_cell(computed.target_stat, declared.get("target"),
                                f"{base}.target"),
    )


def build_declared_label(manifest: LabelManifest) -> ModelFactsLabel:
    """Assemble a label purely from declarations, with no dataset.

    Used for retrospective labels reconstructed from published results.  The
    manifest must cover every cell: accuracy values, dataset size and split,
    and all three canonical demographic categories, each with an explicit
    provenance state.
    """
    def require(name: str, cell: Provenance | None) -> Provenance:
        if cell is None:
            raise SchemaError(_PATHS[name], "required for a declared label")
        return cell

    optimized_raw = require("optimized_raw", manifest.optimized_raw)
    optimized_pct = manifest.optimized_pct_over
    if optimized_pct is None and manifest.baseline is not None and optimized_raw.is_reported:
        optimized_pct = Provenance.reported(percent_over_baseline(
            optimized_raw.value, manifest.baseline, manifest.optimized_direction))
    optimized = MetricValue(manifest.optimized_name, optimized_raw,
                            require("optimized_pct_over", optimized_pct))

    standard = MetricValue(
        manifest.standard_metric_name,
        require("standard_raw", manifest.standard_raw),
        require("standard_pct_over", manifest.standard_pct_over),
    )

    info = DatasetInfo(
        sample_count=require("sample_count", manifest.sample_count),
        train_pct=require("train_pct", manifest.train_pct),
        test_pct=require("test_pct", manifest.test_pct),
    )

    categories = []
    for name in CANONICAL_CATEGORY_ORDER:
        if name not in manifest.demographics:
            raise SchemaError(f"{_PATHS['demographics']}.{name}", "required for a declared label")
    order = list(CANONICAL_CATEGORY_ORDER)
    order += [name for name in manifest.demographics if name not in order]
    for name in order:
        rows = _declared_category_rows(name, manifest.demographics.get(name, {}))
        if rows is not None:
            categories.append(DemographicCategory(name, tuple(rows)))

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


def _normalized_text(text: str) -> str:
    return " ".join(text.split()).lower()


def check_identifiers(identifiers: Sequence[str]) -> None:
    """Labels to compare: at least one, each identifier given once; else BAD_ARGUMENT."""
    if not identifiers:
        raise BadArgumentError("compare_labels needs at least one label")
    if len(set(identifiers)) != len(identifiers):
        raise BadArgumentError("label identifiers must be unique")


def compare_labels(labels: Sequence[tuple[str, ModelFactsLabel]]) -> ComparisonReport:
    """Rank labels by optimized raw score and surface comparability caveats.

    Ranking is a total order: direction-aware on the optimized metric, with
    non-reported scores last and ties broken by identifier, so permuting the
    input never changes the result.  Caveats flag comparisons the scores do
    not support: differing applications, differing dataset sizes, or metrics
    optimized in different directions.
    """
    check_identifiers([ident for ident, _ in labels])

    entries = tuple(
        ComparisonEntry(
            identifier=ident,
            optimized=label.accuracy.optimized,
            standard=label.accuracy.standard,
            completeness=completeness(label).reported_fraction,
        )
        for ident, label in labels
    )

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

    apps = {_normalized_text(label.application.application) for _, label in labels}
    if len(apps) > 1:
        caveats.append("applications differ; raw scores are only comparable for models "
                       "tested on the same dataset and application")
    counts = {label.dataset.sample_count.value
              for _, label in labels if label.dataset.sample_count.is_reported}
    if len(counts) > 1:
        caveats.append("reported dataset sizes differ; the labels do not describe "
                       "the same test data")

    ascending = known == {Direction.MINIMIZE}

    def sort_key(entry: ComparisonEntry):
        cell = entry.optimized.raw_score
        if not cell.is_reported:
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
        for category, groups in self.distributions.items():
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
        disparity[category.category_name] = (
            max(accuracies) - min(accuracies) if len(accuracies) >= 2 else None)

    return AuditReport(
        reference_name=reference.name,
        threshold_pp=threshold_pp,
        entries=tuple(entries),
        disparity=disparity,
        notes=tuple(notes),
    )
