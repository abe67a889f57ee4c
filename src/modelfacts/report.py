"""Cross-label comparison and representation audits of finished labels.

Neither needs prediction data, so this module imports no ingest or assembly code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .codec import check_keys, decode_at, load_json_document, require_number, top_level
from .errors import BadArgumentError, NoOverlapError, NumericOverflowError, SchemaError
from .label import MetricValue, ModelFactsLabel, Provenance, completeness, is_finite_number
from .metrics import Direction, metric_direction


@dataclass(frozen=True)
class ComparisonEntry:
    """One compared label's metrics and completeness, under its identifier."""

    identifier: str
    optimized: MetricValue
    standard: MetricValue
    completeness: float


@dataclass(frozen=True)
class ComparisonReport:
    """Compared labels, their identifiers ranked best first, and the caveats that apply."""

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
        # Each rule is a SCHEMA_ERROR at its document path, as for a manifest.
        shares: dict[str, dict[str, float]] = {}
        for category, groups in self.distributions.items():
            try:
                if not isinstance(groups, Mapping) or not groups:
                    raise SchemaError("", "must be a non-empty object")
                shares[category] = {group: float(decode_at(groups, group, require_number))
                                    for group in groups}
            except SchemaError as exc:
                raise SchemaError(f"categories.{category}{exc.path}", exc.reason) from None
        object.__setattr__(self, "distributions", shares)
        for category, groups in shares.items():
            for group, pct in groups.items():
                if not 0 <= pct <= 100:
                    raise SchemaError(f"categories.{category}.{group}", f"{pct} outside [0, 100]")
            total = sum(groups.values())
            if abs(total - 100.0) > 0.1:
                raise SchemaError(f"categories.{category}", f"shares sum to {total}, not 100")


def load_reference_population(doc: str | bytes | Mapping[str, Any]) -> ReferencePopulation:
    """Parse a reference population document: {name, categories: {cat: {group: pct}}}."""
    if isinstance(doc, (str, bytes)):
        doc = load_json_document(doc)
    if not isinstance(doc, Mapping):
        raise SchemaError("(document)", "reference population must be a JSON object")
    top_level(check_keys)(doc, {"name", "categories"})
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError("name", "must be a non-empty string")
    categories = doc.get("categories")
    if not isinstance(categories, Mapping) or not categories:
        raise SchemaError("categories", "must be a non-empty object")
    return ReferencePopulation(name=name, distributions=categories)


def load_reference_population_file(path: str | Path) -> ReferencePopulation:
    return load_reference_population(Path(path).read_bytes())


@dataclass(frozen=True)
class AuditEntry:
    """One group's test-data share against the reference share, and whether the gap is flagged."""

    category: str
    group: str
    label_pct: Provenance
    reference_pct: float
    gap_pp: float | None  # None when the label share is not reported
    flagged: bool


@dataclass(frozen=True)
class AuditReport:
    """A representation audit: per-group gaps, each category's accuracy spread, and notes."""

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
