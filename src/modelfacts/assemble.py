"""Label assembly: a label from a manifest and, for a generated label, its dataset."""

from __future__ import annotations

from typing import Any

from .errors import (BadArgumentError, DeclaredConflictError, SchemaError, UnknownMetricError,
                     ZeroBaselineError)
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
