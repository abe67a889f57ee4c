"""Model Facts: one-page, consumer-facing transparency labels for ML models.

The package generates labels from prediction data, reconstructs them from
declared manifests, validates them against publishability rules, renders
them as fixed-width text / HTML / canonical JSON, and audits demographic
representation against reference populations.
"""

from .assemble import (
    AuditEntry,
    AuditReport,
    ComparisonEntry,
    ComparisonReport,
    ReferencePopulation,
    build_declared_label,
    compare_labels,
    generate_label,
    load_reference_population,
    load_reference_population_file,
    representation_audit,
)
from .errors import ModelFactsError, SchemaError
from .ingest import (
    LabelManifest,
    PredictionDataset,
    PredictionRecord,
    bucket_age,
    load_label_manifest,
    load_predictions,
    parse_label_manifest,
    parse_predictions,
)
from .label import (
    SCHEMA_VERSION,
    ApplicationInfo,
    AccuracySection,
    CompletenessReport,
    DatasetInfo,
    DateRange,
    DemographicCategory,
    DemographicGroupRow,
    MeanStd,
    MetricValue,
    ModelFactsLabel,
    ModelType,
    PartialDate,
    PctTarget,
    Provenance,
    ProvenanceState,
    Violation,
    ViolationCode,
    completeness,
    validate_label,
)
from .metrics import (
    ConfusionCounts,
    Direction,
    RegressionStats,
    auc,
    group_breakdown,
    majority_class_baseline,
    metric_direction,
    percent_over_baseline,
    precision_recall_f1,
    regression_stats,
    select_standard_metric,
    standard_accuracy,
)
from .render import (
    RenderBudget,
    from_canonical_json,
    render_html,
    render_text,
    to_canonical_json,
)

__version__ = "0.1.0"
