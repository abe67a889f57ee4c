"""Parsing of prediction datasets and label manifests.

Predictions arrive as comma-separated UTF-8 text with a header row; the
manifest is a JSON document whose keys mirror the label sections.  Both are
validated on the way in so that downstream code never sees malformed data.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Any, IO, Iterable, Mapping

from .codec import (decode_cell, encode_provenance, load_json_document, parse_partial_date,
                    require_number)
from .errors import (
    BadValueError,
    DuplicateIdError,
    EmptyFileError,
    ImplausibleAgeError,
    MissingColumnError,
    SchemaError,
    UnknownMetricError,
)
from .label import (
    CANONICAL_CATEGORIES,
    CANONICAL_CATEGORY_ORDER,
    DateRange,
    MeanStd,
    ModelType,
    PartialDate,
    PctTarget,
    Provenance,
    canonical_groups,
)
# The dataset types live beside the scorers that read their columns; this
# module builds them and re-exports both.
from .metrics import (Direction, PredictionDataset, PredictionRecord, metric_direction,
                      metric_spec)

MANIFEST_SCHEMA_VERSION = "1.0"

_MAX_PLAUSIBLE_AGE = 150

_AGE_BUCKETS = CANONICAL_CATEGORIES["Age"]  # ("<17", "18-24", "25-34", "35-49", "50+")


def bucket_age(age_years: int) -> str:
    """Map integer years to the label's age bucket.

    Seventeen-year-olds land in "<17": the canonical buckets skip age 17, and
    we resolve the gap downward so every age in [0, 150] has a bucket.
    """
    if age_years < 0 or age_years > _MAX_PLAUSIBLE_AGE:
        raise ImplausibleAgeError(f"age {age_years} outside plausible range [0, {_MAX_PLAUSIBLE_AGE}]")
    if age_years <= 17:
        return "<17"
    if age_years <= 24:
        return "18-24"
    if age_years <= 34:
        return "25-34"
    if age_years <= 49:
        return "35-49"
    return "50+"


# One declared demographic row: provenance per stat cell.
DeclaredRow = dict[str, Provenance]  # keys: pct_in_test, accuracy, target

_STAT_KEYS = ("pct_in_test", "accuracy", "target")


@dataclass(frozen=True)
class LabelManifest:
    """Developer-declared metadata: everything a dataset alone cannot supply."""

    schema_version: str
    application: str
    model_type: ModelType
    model_train_date: PartialDate
    test_data_range: DateRange
    optimized_name: str
    optimized_direction: Direction
    warnings: tuple[str, ...]
    positive_class: str | None = None
    optimized_raw: Provenance | None = None
    optimized_pct_over: Provenance | None = None
    baseline: float | None = None
    baseline_policy: str | None = None
    standard_name: str | None = None
    standard_raw: Provenance | None = None
    standard_pct_over: Provenance | None = None
    sample_count: Provenance | None = None
    train_pct: Provenance | None = None
    test_pct: Provenance | None = None
    demographics: dict[str, dict[str, DeclaredRow]] = field(default_factory=dict)
    aliases: dict[str, dict[str, str]] = field(default_factory=dict)
    extra_categories: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "warnings", tuple(self.warnings))
        object.__setattr__(self, "extra_categories", tuple(self.extra_categories))

    def known_categories(self) -> list[str]:
        """Categories this manifest can bind prediction columns to."""
        names = list(CANONICAL_CATEGORY_ORDER)
        for name in list(self.extra_categories) + list(self.demographics):
            if name not in names:
                names.append(name)
        return names

    def to_dict(self) -> dict[str, Any]:
        """Lossless dictionary form; parsing it back yields an equal manifest."""
        doc: dict[str, Any] = {
            "schema_version": self.schema_version,
            "application": self.application,
            "model_type": self.model_type.value,
            "model_train_date": self.model_train_date.isoformat(),
            "test_data_range": {
                "start": self.test_data_range.start.isoformat(),
                "end": self.test_data_range.end.isoformat(),
            },
        }
        if self.positive_class is not None:
            doc["positive_class"] = self.positive_class
        optimized: dict[str, Any] = {
            "name": self.optimized_name,
            "direction": self.optimized_direction.value,
        }
        if self.optimized_raw is not None:
            optimized["raw"] = encode_provenance(self.optimized_raw)
        if self.optimized_pct_over is not None:
            optimized["pct_over_baseline"] = encode_provenance(self.optimized_pct_over)
        if self.baseline is not None:
            optimized["baseline"] = self.baseline
        if self.baseline_policy is not None:
            optimized["baseline_policy"] = self.baseline_policy
        doc["optimized_metric"] = optimized
        standard: dict[str, Any] = {}
        if self.standard_name is not None:
            standard["name"] = self.standard_name
        if self.standard_raw is not None:
            standard["raw"] = encode_provenance(self.standard_raw)
        if self.standard_pct_over is not None:
            standard["pct_over_baseline"] = encode_provenance(self.standard_pct_over)
        if standard:
            doc["standard_metric"] = standard
        dataset: dict[str, Any] = {}
        if self.sample_count is not None:
            dataset["count"] = encode_provenance(self.sample_count)
        if self.train_pct is not None:
            dataset["train_pct"] = encode_provenance(self.train_pct)
        if self.test_pct is not None:
            dataset["test_pct"] = encode_provenance(self.test_pct)
        if dataset:
            doc["dataset"] = dataset
        if self.demographics:
            doc["demographics"] = {
                category: {"rows": {
                    group: {stat: encode_provenance(cell) for stat, cell in row.items()}
                    for group, row in rows.items()
                }}
                for category, rows in self.demographics.items()
            }
        doc["warnings"] = list(self.warnings)
        if self.aliases:
            doc["aliases"] = {cat: dict(m) for cat, m in self.aliases.items()}
        if self.extra_categories:
            doc["extra_categories"] = list(self.extra_categories)
        return doc


_TOP_KEYS = {
    "schema_version", "application", "model_type", "model_train_date",
    "test_data_range", "positive_class", "optimized_metric", "standard_metric",
    "dataset", "demographics", "warnings", "aliases", "extra_categories",
}

_MODEL_TYPES = {t.value: t for t in ModelType}


def _require(doc: Mapping, key: str, path: str = "") -> Any:
    if key not in doc:
        raise SchemaError(f"{path}{key}" if not path else f"{path}.{key}", "required key is missing")
    return doc[key]


def _check_keys(doc: Mapping, allowed: set[str], path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(path or "(top level)", f"unknown keys {sorted(unknown)}")


def _parse_date_range(raw: Any, path: str) -> DateRange:
    if isinstance(raw, str):
        point = parse_partial_date(raw)
        return DateRange(point, point)
    if isinstance(raw, dict):
        _check_keys(raw, {"start", "end"}, path)
        start = parse_partial_date(_require(raw, "start", path))
        end = parse_partial_date(_require(raw, "end", path))
        try:
            return DateRange(start, end)
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from None
    raise SchemaError(path, "expected a date string or {start, end}")


def _parse_declared_demographics(raw: Any, model_type: ModelType) -> dict[str, dict[str, DeclaredRow]]:
    if not isinstance(raw, dict):
        raise SchemaError("demographics", "expected an object of categories")
    out: dict[str, dict[str, DeclaredRow]] = {}
    for category, spec in raw.items():
        path = f"demographics.{category}"
        if not isinstance(spec, dict):
            raise SchemaError(path, "expected an object")
        _check_keys(spec, {"state", "rows"}, path)
        default_state: Provenance | None = None
        if "state" in spec:
            default_state = decode_cell({"state": spec["state"]}, f"{path}.state")
        declared_rows: dict[str, Any] = spec.get("rows", {})
        if not isinstance(declared_rows, dict):
            raise SchemaError(f"{path}.rows", "expected an object of group rows")

        canon = canonical_groups(category)
        group_names = list(canon) if canon is not None else []
        for name in declared_rows:
            if name not in group_names:
                group_names.append(name)
        if not group_names:
            raise SchemaError(path, "extension categories need explicit rows")

        rows: dict[str, DeclaredRow] = {}
        for group in group_names:
            row_path = f"{path}.rows.{group}"
            row_spec = declared_rows.get(group)
            if row_spec is None:
                if default_state is None:
                    raise SchemaError(row_path, "row is missing and no category state is given")
                rows[group] = {stat: default_state for stat in _STAT_KEYS}
                continue
            if not isinstance(row_spec, dict):
                raise SchemaError(row_path, "expected an object")
            if "state" in row_spec:
                _check_keys(row_spec, {"state"}, row_path)
                uniform = decode_cell({"state": row_spec["state"]}, f"{row_path}.state")
                rows[group] = {stat: uniform for stat in _STAT_KEYS}
                continue
            _check_keys(row_spec, set(_STAT_KEYS), row_path)
            row: DeclaredRow = {}
            for stat in _STAT_KEYS:
                if stat in row_spec:
                    kind = "target" if stat == "target" else "number"
                    row[stat] = decode_cell(row_spec[stat], f"{row_path}.{stat}", kind)
                elif default_state is not None:
                    row[stat] = default_state
                else:
                    raise SchemaError(f"{row_path}.{stat}",
                                      "stat is missing and no category state is given")
            rows[group] = row
        _check_target_variants(rows, model_type, path)
        out[category] = rows
    return out


def _check_target_variants(rows: dict[str, DeclaredRow], model_type: ModelType, path: str) -> None:
    for group, row in rows.items():
        target = row["target"]
        if not target.is_reported:
            continue
        if model_type.is_classification and not isinstance(target.value, PctTarget):
            raise SchemaError(f"{path}.rows.{group}.target",
                              "classification labels report a target percentage")
        if not model_type.is_classification and not isinstance(target.value, MeanStd):
            raise SchemaError(f"{path}.rows.{group}.target",
                              "regression labels report mean and std")


def _optional_cell(doc: Mapping, key: str, path: str, kind: str = "number") -> Provenance | None:
    return decode_cell(doc[key], f"{path}.{key}", kind) if key in doc else None


def _checked_pct(cell: Provenance | None, path: str) -> Provenance | None:
    if cell is not None and cell.is_reported and not 0.0 <= cell.value <= 100.0:
        raise SchemaError(path, f"percentage {cell.value} outside [0, 100]")
    return cell


def parse_label_manifest(doc: str | bytes | Mapping[str, Any]) -> LabelManifest:
    """Parse and validate a manifest document (JSON text or a parsed mapping)."""
    if isinstance(doc, (str, bytes)):
        doc = load_json_document(doc)
    if not isinstance(doc, Mapping):
        raise SchemaError("(document)", "manifest must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "")

    schema_version = _require(doc, "schema_version")
    if schema_version != MANIFEST_SCHEMA_VERSION:
        raise SchemaError("schema_version", f"unsupported manifest version {schema_version!r}")

    application = _require(doc, "application")
    if not isinstance(application, str) or not application.strip():
        raise SchemaError("application", "must be a non-empty string")

    model_type_raw = _require(doc, "model_type")
    model_type = _MODEL_TYPES.get(model_type_raw) if isinstance(model_type_raw, str) else None
    if model_type is None:
        raise SchemaError("model_type", f"unknown model type {model_type_raw!r} "
                                        f"(expected one of {sorted(_MODEL_TYPES)})")

    train_date = parse_partial_date(_require(doc, "model_train_date"))
    test_range = _parse_date_range(_require(doc, "test_data_range"), "test_data_range")

    warnings_raw = _require(doc, "warnings")
    if not isinstance(warnings_raw, list) or not all(isinstance(w, str) for w in warnings_raw):
        raise SchemaError("warnings", "must be a list of strings (may be empty)")

    opt = _require(doc, "optimized_metric")
    if not isinstance(opt, Mapping):
        raise SchemaError("optimized_metric", "expected an object")
    _check_keys(opt, {"name", "direction", "raw", "pct_over_baseline", "baseline", "baseline_policy"},
                "optimized_metric")
    opt_name = _require(opt, "name", "optimized_metric")
    if not isinstance(opt_name, str) or not opt_name:
        raise SchemaError("optimized_metric.name", "must be a non-empty string")
    if "direction" in opt:
        try:
            direction = Direction(opt["direction"])
        except ValueError:
            raise SchemaError("optimized_metric.direction",
                              f"expected 'maximize' or 'minimize', got {opt['direction']!r}") from None
    else:
        direction = metric_direction(opt_name)
        if direction is None:
            raise UnknownMetricError(
                f"metric '{opt_name}' has no known direction; set optimized_metric.direction")

    optimized_raw = _optional_cell(opt, "raw", "optimized_metric")
    optimized_pct = _optional_cell(opt, "pct_over_baseline", "optimized_metric")
    baseline = opt.get("baseline")
    if baseline is not None:
        if require_number(baseline, "optimized_metric.baseline") == 0:
            raise SchemaError("optimized_metric.baseline",
                              "must be nonzero; a percent over a zero baseline is undefined")
    baseline_policy = opt.get("baseline_policy")
    if baseline_policy is not None:
        if baseline_policy != "majority-class":
            raise SchemaError("optimized_metric.baseline_policy",
                              f"unknown policy {baseline_policy!r} (only 'majority-class')")
        if baseline is not None:
            raise SchemaError("optimized_metric", "give either baseline or baseline_policy, not both")
        if not model_type.is_classification:
            raise SchemaError("optimized_metric.baseline_policy",
                              "the majority-class policy applies to classification only")

    standard_name = standard_raw = standard_pct = None
    if "standard_metric" in doc:
        std = doc["standard_metric"]
        if not isinstance(std, Mapping):
            raise SchemaError("standard_metric", "expected an object")
        _check_keys(std, {"name", "raw", "pct_over_baseline"}, "standard_metric")
        if "name" in std:
            standard_name = std["name"]
            if not isinstance(standard_name, str) or not standard_name:
                raise SchemaError("standard_metric.name", "must be a non-empty string")
        standard_raw = _optional_cell(std, "raw", "standard_metric")
        standard_pct = _optional_cell(std, "pct_over_baseline", "standard_metric")

    sample_count = train_pct = test_pct = None
    if "dataset" in doc:
        ds = doc["dataset"]
        if not isinstance(ds, Mapping):
            raise SchemaError("dataset", "expected an object")
        _check_keys(ds, {"count", "train_pct", "test_pct"}, "dataset")
        sample_count = _optional_cell(ds, "count", "dataset", kind="count")
        if sample_count is not None and sample_count.is_reported and sample_count.value < 0:
            raise SchemaError("dataset.count", "must be nonnegative")
        train_pct = _checked_pct(_optional_cell(ds, "train_pct", "dataset"), "dataset.train_pct")
        test_pct = _checked_pct(_optional_cell(ds, "test_pct", "dataset"), "dataset.test_pct")

    demographics = (_parse_declared_demographics(doc["demographics"], model_type)
                    if "demographics" in doc else {})

    positive_class = doc.get("positive_class")
    if positive_class is not None and not isinstance(positive_class, str):
        raise SchemaError("positive_class", "must be a string label")

    aliases_raw = doc.get("aliases", {})
    if not isinstance(aliases_raw, Mapping):
        raise SchemaError("aliases", "expected an object of category alias maps")
    aliases: dict[str, dict[str, str]] = {}
    for category, mapping in aliases_raw.items():
        if not isinstance(mapping, Mapping) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()):
            raise SchemaError(f"aliases.{category}", "expected {alias: group} strings")
        aliases[category] = {k.lower(): v for k, v in mapping.items()}

    extra_categories = doc.get("extra_categories", [])
    if not isinstance(extra_categories, list) or not all(isinstance(c, str) for c in extra_categories):
        raise SchemaError("extra_categories", "expected a list of category names")

    return LabelManifest(
        schema_version=schema_version,
        application=application,
        model_type=model_type,
        model_train_date=train_date,
        test_data_range=test_range,
        optimized_name=opt_name,
        optimized_direction=direction,
        warnings=tuple(warnings_raw),
        positive_class=positive_class,
        optimized_raw=optimized_raw,
        optimized_pct_over=optimized_pct,
        baseline=baseline,
        baseline_policy=baseline_policy,
        standard_name=standard_name,
        standard_raw=standard_raw,
        standard_pct_over=standard_pct,
        sample_count=sample_count,
        train_pct=train_pct,
        test_pct=test_pct,
        demographics=demographics,
        aliases=aliases,
        extra_categories=tuple(extra_categories),
    )


def load_label_manifest(path: str | Path) -> LabelManifest:
    return parse_label_manifest(Path(path).read_bytes())


def _normalize_group(category: str, raw: str, aliases: Mapping[str, Mapping[str, str]]) -> str | None:
    """Canonical group name for a raw cell value; None when the cell is blank."""
    text = raw.strip()
    if not text:
        return None
    alias_map = aliases.get(category, {})
    if text.lower() in alias_map:
        text = alias_map[text.lower()]
    canon = canonical_groups(category)
    if canon is None:
        return text
    for group in canon:
        if text.lower() == group.lower():
            return group
    return "Other"


def _parse_age_value(text: str) -> str:
    for bucket in _AGE_BUCKETS:
        if text.lower() == bucket.lower():
            return bucket
    years = int(text)  # ValueError propagates to the caller's BadValue wrapper
    return bucket_age(years)


def _group_value(category: str, raw: str, aliases: Mapping[str, Mapping[str, str]],
                 row_no: int, column: str) -> str | None:
    """The group a raw demographic cell stands for: an age bucket for Age."""
    if category != "Age":
        return _normalize_group(category, raw, aliases)
    text = raw.strip()
    if not text:
        return None
    try:
        return _parse_age_value(text)
    except ValueError:
        raise BadValueError(row_no, column, f"not an age: {text!r}") from None
    except ImplausibleAgeError as exc:
        raise BadValueError(row_no, column, exc.message) from None


def _parse_number(text: str, row_no: int, column: str) -> float:
    """A finite float; NaN and infinities would turn every score built on them into NaN."""
    try:
        value = float(text)
    except ValueError:
        raise BadValueError(row_no, column, f"not a number: {text!r}") from None
    if not isfinite(value):
        raise BadValueError(row_no, column, f"not a finite number: {text!r}")
    return value


def _undecodable_row(path: str | Path) -> int:
    """Number of the first row holding bytes that are not UTF-8 (the header is row 0)."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as handle:
        for row_no, row in enumerate(csv.reader(handle)):
            try:
                "".join(row).encode("utf-8")
            except UnicodeEncodeError:
                return row_no
    return 0


_UNSEEN = object()


def parse_predictions(source: str | Path | IO[str] | Iterable[str],
                      manifest: LabelManifest) -> PredictionDataset:
    """Parse a delimited predictions file into a validated dataset.

    Requires columns `id` and `y_true`; `score` when the optimized metric is
    scored from it (AUC), otherwise `y_pred`.  Any further column whose name
    matches a manifest-known category becomes a demographic attribute: `age`
    is bucketed from integer years and other values are normalized against
    the canonical group names plus the manifest's alias map, with unmatched
    values mapped to "Other".  Each distinct raw value is normalized once.
    Row counts are never silently reduced.  A file is read as UTF-8, with or
    without a byte-order mark.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8-sig", newline="") as handle:
                return parse_predictions(handle, manifest)
        except UnicodeDecodeError as exc:
            raise BadValueError(_undecodable_row(source), "(row)",
                                f"not UTF-8 text: {exc.reason}") from None

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyFileError("predictions file has no header row") from None
    names = [h.strip() for h in header]
    lowered = [n.lower() for n in names]

    def col(name: str) -> int | None:
        return lowered.index(name) if name in lowered else None

    id_idx, truth_idx = col("id"), col("y_true")
    pred_idx, score_idx = col("y_pred"), col("score")
    if id_idx is None:
        raise MissingColumnError("id")
    if truth_idx is None:
        raise MissingColumnError("y_true")
    spec = metric_spec(manifest.optimized_name)
    needs_score = spec is not None and spec.needs_score
    if needs_score and score_idx is None:
        raise MissingColumnError("score")
    if not needs_score and pred_idx is None:
        raise MissingColumnError("y_pred")

    # Remaining columns that name a known demographic category.
    known = {c.lower().replace("_", " "): c for c in manifest.known_categories()}
    category_cols: list[tuple[int, str]] = []
    for idx, name in enumerate(lowered):
        if idx in (id_idx, truth_idx, pred_idx, score_idx):
            continue
        category = known.get(name.replace("_", " "))
        if category is not None:
            category_cols.append((idx, category))

    classification = manifest.model_type.is_classification
    if classification and manifest.positive_class is None:
        raise SchemaError("positive_class", "required to ingest classification predictions")

    width = len(names)
    ids: list[str] = []
    truth: list = []
    prediction: list | None = None if pred_idx is None else []
    score: list[float] | None = None if score_idx is None else []
    # Per category: cell index, column name, group column, and a memo from raw cell to group.
    group_cols = [(idx, names[idx], category, [], {}) for idx, category in category_cols]
    seen_ids: set[str] = set()
    for row_no, row in enumerate(reader, start=1):
        if len(row) > width:
            raise BadValueError(row_no, "(row)", f"expected {width} cells, got {len(row)}")
        if len(row) < width:
            row += [""] * (width - len(row))
        rid = row[id_idx].strip()
        if not rid:
            raise BadValueError(row_no, "id", "empty id")
        if rid in seen_ids:
            raise DuplicateIdError(f"id '{rid}' appears more than once (row {row_no})")
        seen_ids.add(rid)
        ids.append(rid)

        truth_text = row[truth_idx].strip()
        if not truth_text:
            raise BadValueError(row_no, "y_true", "empty value")
        truth.append(truth_text if classification else _parse_number(truth_text, row_no, "y_true"))

        if prediction is not None:
            pred_text = row[pred_idx].strip()
            if not pred_text:
                raise BadValueError(row_no, "y_pred", "empty value")
            prediction.append(pred_text if classification
                              else _parse_number(pred_text, row_no, "y_pred"))

        if score is not None:
            score.append(_parse_number(row[score_idx].strip(), row_no, "score"))

        for idx, column, category, values, memo in group_cols:
            raw = row[idx]
            group = memo.get(raw, _UNSEEN)
            if group is _UNSEEN:
                group = memo[raw] = _group_value(category, raw, manifest.aliases, row_no, column)
            values.append(group)

    if not ids:
        raise EmptyFileError("predictions file has no data rows")
    positive = manifest.positive_class
    if classification and positive not in truth and (prediction is None or positive not in prediction):
        raise SchemaError("positive_class", f"{positive!r} appears in neither y_true nor y_pred")

    present = {cat for _, cat in category_cols}
    schema = [c for c in CANONICAL_CATEGORY_ORDER if c in present]
    schema += [cat for _, cat in category_cols if cat not in schema]
    groups: dict[str, list[str | None]] = {}
    for _, _, category, values, _ in group_cols:
        earlier = groups.get(category)  # two columns of one category: a later non-blank cell wins
        groups[category] = values if earlier is None else [
            e if v is None else v for e, v in zip(earlier, values)]
    return PredictionDataset.from_columns(
        ids, truth, prediction, score, groups,
        positive_class=positive if classification else None,
        attribute_schema=tuple(schema),
    )


def load_predictions(path: str | Path, manifest: LabelManifest) -> PredictionDataset:
    return parse_predictions(path, manifest)
