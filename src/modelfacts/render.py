"""Label representations: fixed-width text and HTML.

Every renderer is a pure function of the label; identical labels yield
identical bytes.  The text form is the one the one-page budget is enforced
against, so its layout rules are fixed: content is wrapped, never truncated,
and every line fits the configured width.  The canonical JSON form lives in
codec, beside the label's JSON shape.
"""

from __future__ import annotations

import html
import textwrap
from dataclasses import dataclass
from typing import Any

from .label import MeanStd, ModelFactsLabel, ModelType, PctTarget, Provenance, ProvenanceState

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
    # A text that fits is its own single line, as textwrap would return it,
    # unless it has edge spaces or whitespace other than the space, for which
    # isprintable() is False.  The empty text gives [""] either way.
    if len(text) <= width and text.isprintable() and text.strip() == text:
        return [text]
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
