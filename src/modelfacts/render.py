"""Label representations: fixed-width text, HTML, and canonical JSON.

All three renderers are pure functions of the label; identical labels yield
identical bytes.  The text form is the one the one-page budget is enforced
against, so its layout rules are fixed: content is wrapped, never truncated,
and every line fits the configured width.
"""

from __future__ import annotations

import html
import json
import textwrap
from dataclasses import dataclass
from typing import Any

from .codec import decode_provenance, encode_metric, encode_provenance, parse_partial_date
from .errors import DateParseError, SchemaError, UnsupportedVersionError
from .label import (
    SUPPORTED_SCHEMA_VERSIONS,
    AccuracySection,
    ApplicationInfo,
    DatasetInfo,
    DateRange,
    DemographicCategory,
    DemographicGroupRow,
    MeanStd,
    MetricValue,
    ModelFactsLabel,
    ModelType,
    PctTarget,
    Provenance,
    ProvenanceState,
)

_STATE_TEXT = {
    ProvenanceState.AVAILABLE_UNREPORTED: "not reported",
    ProvenanceState.UNKNOWN_AVAILABILITY: "unknown",
    ProvenanceState.NOT_COLLECTED: "not collected",
}


@dataclass(frozen=True)
class RenderBudget:
    """One-page operationalization: line and column limits for the text form."""

    max_lines: int = 80
    width: int = 64

    def __post_init__(self):
        if self.width < 48:
            raise ValueError("width must be at least 48 columns")
        if self.max_lines < 24:
            raise ValueError("max_lines must be at least 24")


def fmt_score(value: float) -> str:
    return f"{value:.3f}"


def fmt_pct(value: float) -> str:
    return f"{value:.1f}%"


def fmt_count(value: int) -> str:
    return f"{value:,}"


def _cell_text(cell: Provenance, fmt) -> str:
    if cell.is_reported:
        return fmt(cell.value)
    return f"[{_STATE_TEXT[cell.state]}]"


def _fmt_target(value: Any) -> str:
    if isinstance(value, PctTarget):
        return fmt_pct(value.pct)
    if isinstance(value, MeanStd):
        return f"{value.mean:.3f} ({value.std:.3f})"
    return str(value)


def _chunks(text: str, width: int) -> list[str]:
    if text == "":
        return [""]
    return textwrap.wrap(text, width, break_long_words=True, break_on_hyphens=False) or [""]


def _table_row(cells: list[str], widths: list[int], aligns: str) -> list[str]:
    """Render one logical table row, wrapping any over-wide cell downward."""
    wrapped = [_chunks(cell, width) for cell, width in zip(cells, widths)]
    height = max(len(w) for w in wrapped)
    lines = []
    for i in range(height):
        parts = []
        for chunks, width, align in zip(wrapped, widths, aligns):
            piece = chunks[i] if i < len(chunks) else ""
            parts.append(piece.rjust(width) if align == "r" else piece.ljust(width))
        lines.append(" ".join(parts).rstrip())
    return lines


def _field_rows(name: str, value: str, label_width: int, total_width: int) -> list[str]:
    body = _chunks(value, max(1, total_width - label_width))
    lines = [(name.ljust(label_width) + body[0]).rstrip()]
    lines += [(" " * label_width + more).rstrip() for more in body[1:]]
    return lines


def render_text(label: ModelFactsLabel, budget: RenderBudget | None = None) -> str:
    """Fixed-width text rendering.

    Layout: centered title over a `=` rule, then the Application, Accuracy,
    Dataset Size, Demographics, and Warnings sections.  Non-reported cells
    appear as `[not reported]`, `[unknown]`, or `[not collected]`; raw scores
    use 3 decimals, percentages 1 decimal, counts comma grouping.  Ends with
    a single newline and carries no trailing spaces.
    """
    if budget is None:
        budget = RenderBudget()
    w = budget.width
    cols3 = (w - 3) // 4                # three numeric columns
    col0 = w - 3 - 3 * cols3            # leading label column
    row4 = lambda cells, aligns="lrrr": _table_row(cells, [col0, cols3, cols3, cols3], aligns)
    split_w = w - col0 - 2 - 13
    row3 = lambda cells, aligns="lrr": _table_row(cells, [col0, 13, split_w], aligns)

    lines: list[str] = []
    lines.append("MODEL FACTS".center(w).rstrip())
    lines.append("=" * w)

    app = label.application
    lines += _field_rows("Application:", app.application, 18, w)
    lines += _field_rows("Model Type:", app.model_type.display_name, 18, w)
    lines += _field_rows("Model Train Date:", app.model_train_date.isoformat(), 18, w)
    lines += _field_rows("Test Data Date:", app.test_data_range.isoformat(), 18, w)
    lines.append("")

    acc = label.accuracy
    lines += row4(["Accuracy:", "Name", "% Over Baseline", "Raw Score"])
    for title, mv in (("Optimized Score", acc.optimized), ("Standard Score", acc.standard)):
        lines += row4([title, mv.name,
                       _cell_text(mv.pct_over_baseline, fmt_pct),
                       _cell_text(mv.raw_score, fmt_score)])
    lines.append("")

    ds = label.dataset
    lines += row3(["Dataset Size:", "Count", "% Train / % Test"])
    split = f"{_cell_text(ds.train_pct, fmt_pct)} / {_cell_text(ds.test_pct, fmt_pct)}"
    lines += row3(["", _cell_text(ds.sample_count, fmt_count), split])
    lines.append("")

    target_header = "Mean (std)" if label.application.model_type is ModelType.REGRESSION else "% Target"
    lines += row4(["Demographics:", "% In Test", "Accuracy", target_header])
    for category in label.demographics:
        lines += _field_rows(f"{category.category_name}:", "", 18, w)
        lines.append("-" * w)
        for row in category.rows:
            lines += row4([row.group_name,
                           _cell_text(row.pct_in_test, fmt_pct),
                           _cell_text(row.group_accuracy, fmt_score),
                           _cell_text(row.target_stat, _fmt_target)])
    lines.append("")

    lines.append("Warnings:")
    for warning in label.warnings:
        body = _chunks(warning, max(1, w - 4))
        lines.append(("  - " + body[0]).rstrip())
        lines += [("    " + more).rstrip() for more in body[1:]]

    return "\n".join(lines) + "\n"


_HTML_STYLE = """\
body{font-family:Georgia,'Times New Roman',serif;max-width:44rem;margin:2rem auto;padding:0 1rem;color:#111;}
h1{text-align:center;letter-spacing:0.08em;border-bottom:6px double #111;padding-bottom:0.3rem;}
h2{border-bottom:2px solid #111;padding-bottom:0.15rem;}
table{width:100%;border-collapse:collapse;margin-bottom:1.25rem;}
th,td{border:1px solid #555;padding:0.3rem 0.55rem;text-align:left;vertical-align:top;}
td.num{text-align:right;font-variant-numeric:tabular-nums;}
tr.category th{background-color:#e9e9e9;}
td.prov-green{background-color:#c8e6c9;}
td.prov-yellow{background-color:#fff3b0;}
td.prov-red{background-color:#f3b8b4;}
ul.warnings{margin:0 0 1.25rem 1.25rem;}
"""


def _td(cell: Provenance, fmt, numeric: bool = True) -> str:
    classes = []
    if cell.is_reported:
        text = fmt(cell.value)
        if numeric:
            classes.append("num")
    else:
        text = _STATE_TEXT[cell.state]
        classes.append(f"prov-{cell.color}")
    attr = f' class="{" ".join(classes)}"' if classes else ""
    return f"<td{attr}>{html.escape(text)}</td>"


def render_html(label: ModelFactsLabel) -> str:
    """Self-contained HTML document; provenance states color their cells."""
    e = html.escape
    app = label.application
    acc = label.accuracy
    ds = label.dataset
    out: list[str] = []
    out.append("<!DOCTYPE html>")
    out.append('<html lang="en">')
    out.append("<head>")
    out.append('<meta charset="utf-8"/>')
    out.append("<title>Model Facts</title>")
    out.append(f"<style>\n{_HTML_STYLE}</style>")
    out.append("</head>")
    out.append("<body>")
    out.append("<h1>MODEL FACTS</h1>")

    out.append('<table id="application">')
    for name, value in (
        ("Application", app.application),
        ("Model Type", app.model_type.display_name),
        ("Model Train Date", app.model_train_date.isoformat()),
        ("Test Data Date", app.test_data_range.isoformat()),
    ):
        out.append(f"<tr><th>{e(name)}</th><td>{e(value)}</td></tr>")
    out.append("</table>")

    out.append('<table id="accuracy">')
    out.append("<tr><th>Accuracy</th><th>Name</th><th>% Over Baseline</th><th>Raw Score</th></tr>")
    for title, mv in (("Optimized Score", acc.optimized), ("Standard Score", acc.standard)):
        out.append(f"<tr><th>{e(title)}</th><td>{e(mv.name)}</td>"
                   f"{_td(mv.pct_over_baseline, fmt_pct)}{_td(mv.raw_score, fmt_score)}</tr>")
    out.append("</table>")

    out.append('<table id="dataset">')
    out.append("<tr><th>Dataset Size</th><th>Count</th><th>% Train</th><th>% Test</th></tr>")
    out.append(f"<tr><th></th>{_td(ds.sample_count, fmt_count)}"
               f"{_td(ds.train_pct, fmt_pct)}{_td(ds.test_pct, fmt_pct)}</tr>")
    out.append("</table>")

    target_header = "Mean (std)" if app.model_type is ModelType.REGRESSION else "% Target"
    out.append('<table id="demographics">')
    out.append(f"<tr><th>Demographics</th><th>% In Test Data</th><th>Accuracy</th>"
               f"<th>{e(target_header)}</th></tr>")
    for category in label.demographics:
        out.append(f'<tr class="category"><th colspan="4">{e(category.category_name)}</th></tr>')
        for row in category.rows:
            out.append(f"<tr><td>{e(row.group_name)}</td>"
                       f"{_td(row.pct_in_test, fmt_pct)}"
                       f"{_td(row.group_accuracy, fmt_score)}"
                       f"{_td(row.target_stat, _fmt_target)}</tr>")
    out.append("</table>")

    out.append('<section id="warnings">')
    out.append("<h2>Warnings</h2>")
    if label.warnings:
        out.append('<ul class="warnings">')
        for warning in label.warnings:
            out.append(f"<li>{e(warning)}</li>")
        out.append("</ul>")
    else:
        out.append("<p>(none)</p>")
    out.append("</section>")
    out.append("</body>")
    out.append("</html>")
    return "\n".join(out) + "\n"


def _label_to_doc(label: ModelFactsLabel) -> dict[str, Any]:
    app = label.application
    return {
        "schema_version": label.schema_version,
        "application": {
            "application": app.application,
            "model_type": app.model_type.value,
            "model_train_date": app.model_train_date.isoformat(),
            "test_data_range": {
                "start": app.test_data_range.start.isoformat(),
                "end": app.test_data_range.end.isoformat(),
            },
        },
        "accuracy": {
            "optimized": encode_metric(label.accuracy.optimized),
            "standard": encode_metric(label.accuracy.standard),
        },
        "dataset": {
            "sample_count": encode_provenance(label.dataset.sample_count),
            "train_pct": encode_provenance(label.dataset.train_pct),
            "test_pct": encode_provenance(label.dataset.test_pct),
        },
        "demographics": [
            {
                "category_name": cat.category_name,
                "rows": [
                    {
                        "group_name": row.group_name,
                        "pct_in_test": encode_provenance(row.pct_in_test),
                        "group_accuracy": encode_provenance(row.group_accuracy),
                        "target_stat": encode_provenance(row.target_stat),
                    }
                    for row in cat.rows
                ],
            }
            for cat in label.demographics
        ],
        "warnings": list(label.warnings),
    }


def to_canonical_json(label: ModelFactsLabel) -> bytes:
    """Deterministic serialization: sorted keys, shortest numbers, UTF-8, one
    trailing newline.  The interchange format for validate/compare/audit."""
    doc = _label_to_doc(label)
    text = json.dumps(doc, sort_keys=True, ensure_ascii=False, separators=(",", ":"),
                      allow_nan=False)
    return (text + "\n").encode("utf-8")


def _expect_keys(obj: Any, keys: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    missing = keys - set(obj)
    if missing:
        raise SchemaError(path, f"missing keys {sorted(missing)}")
    unknown = set(obj) - keys
    if unknown:
        raise SchemaError(path, f"unknown keys {sorted(unknown)}")


def _metric_from_doc(obj: Any, path: str) -> MetricValue:
    _expect_keys(obj, {"name", "raw_score", "pct_over_baseline"}, path)
    if not isinstance(obj["name"], str):
        raise SchemaError(f"{path}.name", "metric name must be a string")
    return MetricValue(
        name=obj["name"],
        raw_score=decode_provenance(obj["raw_score"], f"{path}.raw_score"),
        pct_over_baseline=decode_provenance(obj["pct_over_baseline"], f"{path}.pct_over_baseline"),
    )


def from_canonical_json(data: bytes | str) -> ModelFactsLabel:
    """Strict inverse of to_canonical_json.

    Shape errors (including unknown fields) raise SCHEMA_ERROR with the
    offending path; an unsupported schema_version raises UNSUPPORTED_VERSION.
    Semantic publishability rules are left to the validator so that a flawed
    label can still be loaded and inspected.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError("(document)", f"not valid UTF-8: {exc}") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError("(document)", f"invalid JSON: {exc}") from None

    _expect_keys(doc, {"schema_version", "application", "accuracy", "dataset",
                       "demographics", "warnings"}, "(top level)")
    version = doc["schema_version"]
    if not isinstance(version, str):
        raise SchemaError("schema_version", "must be a string")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise UnsupportedVersionError(
            f"schema_version {version!r} not in supported set {sorted(SUPPORTED_SCHEMA_VERSIONS)}")

    app_doc = doc["application"]
    _expect_keys(app_doc, {"application", "model_type", "model_train_date", "test_data_range"},
                 "application")
    try:
        model_type = ModelType(app_doc["model_type"])
    except ValueError:
        raise SchemaError("application.model_type",
                          f"unknown model type {app_doc['model_type']!r}") from None
    range_doc = app_doc["test_data_range"]
    _expect_keys(range_doc, {"start", "end"}, "application.test_data_range")
    try:
        application = ApplicationInfo(
            application=app_doc["application"],
            model_type=model_type,
            model_train_date=parse_partial_date(app_doc["model_train_date"]),
            test_data_range=DateRange(parse_partial_date(range_doc["start"]),
                                      parse_partial_date(range_doc["end"])),
        )
    except (ValueError, AttributeError) as exc:
        raise SchemaError("application", str(exc)) from None
    except DateParseError as exc:
        raise SchemaError("application", exc.message) from None

    acc_doc = doc["accuracy"]
    _expect_keys(acc_doc, {"optimized", "standard"}, "accuracy")
    accuracy = AccuracySection(
        optimized=_metric_from_doc(acc_doc["optimized"], "accuracy.optimized"),
        standard=_metric_from_doc(acc_doc["standard"], "accuracy.standard"),
    )

    ds_doc = doc["dataset"]
    _expect_keys(ds_doc, {"sample_count", "train_pct", "test_pct"}, "dataset")
    dataset = DatasetInfo(
        sample_count=decode_provenance(ds_doc["sample_count"], "dataset.sample_count", kind="count"),
        train_pct=decode_provenance(ds_doc["train_pct"], "dataset.train_pct"),
        test_pct=decode_provenance(ds_doc["test_pct"], "dataset.test_pct"),
    )

    demo_doc = doc["demographics"]
    if not isinstance(demo_doc, list):
        raise SchemaError("demographics", "expected a list of categories")
    categories = []
    for i, cat_doc in enumerate(demo_doc):
        cpath = f"demographics[{i}]"
        _expect_keys(cat_doc, {"category_name", "rows"}, cpath)
        if not isinstance(cat_doc["category_name"], str):
            raise SchemaError(f"{cpath}.category_name", "must be a string")
        rows_doc = cat_doc["rows"]
        if not isinstance(rows_doc, list):
            raise SchemaError(f"{cpath}.rows", "expected a list of rows")
        rows = []
        for j, row_doc in enumerate(rows_doc):
            rpath = f"{cpath}.rows[{j}]"
            _expect_keys(row_doc, {"group_name", "pct_in_test", "group_accuracy", "target_stat"}, rpath)
            if not isinstance(row_doc["group_name"], str):
                raise SchemaError(f"{rpath}.group_name", "must be a string")
            rows.append(DemographicGroupRow(
                group_name=row_doc["group_name"],
                pct_in_test=decode_provenance(row_doc["pct_in_test"], f"{rpath}.pct_in_test"),
                group_accuracy=decode_provenance(row_doc["group_accuracy"], f"{rpath}.group_accuracy"),
                target_stat=decode_provenance(row_doc["target_stat"], f"{rpath}.target_stat", kind="target"),
            ))
        categories.append(DemographicCategory(cat_doc["category_name"], tuple(rows)))

    warnings_doc = doc["warnings"]
    if not isinstance(warnings_doc, list) or not all(isinstance(x, str) for x in warnings_doc):
        raise SchemaError("warnings", "expected a list of strings")

    return ModelFactsLabel(
        application=application,
        accuracy=accuracy,
        dataset=dataset,
        demographics=tuple(categories),
        warnings=tuple(warnings_doc),
        schema_version=version,
    )
