"""Model Facts: one-page, consumer-facing transparency labels for ML models.

The package generates labels from prediction data, reconstructs them from
declared manifests, validates them against publishability rules, renders
them as fixed-width text / HTML / canonical JSON, and audits demographic
representation against reference populations.

Each public name is imported from its module on first use (PEP 562), so
`import modelfacts` loads no submodule, and a command pays only for the
modules it runs.
"""

__version__ = "0.1.0"

_MODULE_OF = {
    **dict.fromkeys(("build_declared_label", "generate_label"), "assemble"),
    **dict.fromkeys(("ModelFactsError", "SchemaError"), "errors"),
    **dict.fromkeys((
        "LabelManifest", "bucket_age", "load_label_manifest", "load_predictions",
        "parse_label_manifest", "parse_predictions",
    ), "ingest"),
    **dict.fromkeys((
        "SCHEMA_VERSION", "ApplicationInfo", "AccuracySection", "CompletenessReport",
        "DatasetInfo", "DateRange", "DemographicCategory", "DemographicGroupRow", "MeanStd",
        "MetricValue", "ModelFactsLabel", "ModelType", "PartialDate", "PctTarget", "Provenance",
        "ProvenanceState", "Violation", "ViolationCode", "completeness", "validate_label",
    ), "label"),
    **dict.fromkeys((
        "ConfusionCounts", "Direction", "PredictionDataset", "PredictionRecord",
        "RegressionStats", "auc", "group_breakdown", "majority_class_baseline",
        "metric_direction", "percent_over_baseline", "precision_recall_f1", "regression_stats",
        "select_standard_metric", "standard_accuracy",
    ), "metrics"),
    **dict.fromkeys((
        "RenderBudget", "from_canonical_json", "render_html", "render_text", "to_canonical_json",
    ), "render"),
    **dict.fromkeys((
        "AuditEntry", "AuditReport", "ComparisonEntry", "ComparisonReport",
        "ReferencePopulation", "compare_labels", "load_reference_population",
        "load_reference_population_file", "representation_audit",
    ), "report"),
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
