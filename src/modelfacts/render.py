"""Label representations: fixed-width text and HTML.

Every renderer is a pure function of the label; identical labels yield
identical bytes.  The text form is the one the one-page budget is enforced
against, so its layout rules are fixed: content is wrapped, never truncated,
and every line fits the configured width.  One layout places its rows, both to
draw the page (render_text) and to count its lines for the budget
(text_line_count), which takes each row's height from the same wrapping and
draws nothing.  A table row whose every cell fits its column is one line,
drawn by one format.  The canonical JSON form lives in codec, beside the
label's JSON shape.
"""

from __future__ import annotations

import html
import textwrap
from dataclasses import dataclass
from typing import Any

from .label import (PROVENANCE_COLORS, MeanStd, ModelFactsLabel, ModelType, PctTarget, Provenance,
                    ProvenanceState, _REPORTED)

_STATE_TEXT = {
    ProvenanceState.AVAILABLE_UNREPORTED: "not reported",
    ProvenanceState.UNKNOWN_AVAILABILITY: "unknown",
    ProvenanceState.NOT_COLLECTED: "not collected",
}
# What an unreported cell shows, built once per state: its text form and its HTML cell.
_CELL_TEXT = {state: f"[{text}]" for state, text in _STATE_TEXT.items()}
_CELL_TD = {state: f'<td class="prov-{PROVENANCE_COLORS[state]}">{html.escape(text)}</td>'
            for state, text in _STATE_TEXT.items()}


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
    if cell.state is _REPORTED:
        return fmt(cell.value)
    return _CELL_TEXT[cell.state]


def _fmt_target(value: Any) -> str:
    if isinstance(value, PctTarget):
        return fmt_pct(value.pct)
    if isinstance(value, MeanStd):
        return f"{value.mean:.3f} ({value.std:.3f})"
    return str(value)


def _fits(text: str, width: int) -> bool:
    """Whether text is its own single line at width, as textwrap would return it: it
    fits, and has no edge spaces or whitespace other than the space, for which
    isprintable() is False."""
    return len(text) <= width and text.isprintable() and text.strip() == text


def _chunks(text: str, width: int) -> list[str]:
    if _fits(text, width):
        return [text]
    return textwrap.wrap(text, width, break_long_words=True, break_on_hyphens=False) or [""]


def _columns(widths: tuple[int, ...], aligns: str) -> tuple[tuple[int, ...], str, str]:
    """A table's column widths and alignments ("l" or "r"), and the str.format
    template that draws a row whose every cell fits its column."""
    return widths, aligns, " ".join(f"{{:{'>' if align == 'r' else '<'}{width}}}"
                                    for width, align in zip(widths, aligns))


def _table_row(cells: list[str], widths: tuple[int, ...], aligns: str) -> list[str]:
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


class _Drawing(list):
    """A text page, drawn line by line as _lay_out places its rows."""

    line = list.append

    def row(self, cells: list[str], columns: tuple) -> None:
        widths, aligns, line = columns
        if all(map(_fits, cells, widths)):
            self.append(line.format(*cells).rstrip())
        else:
            self.extend(_table_row(cells, widths, aligns))

    def hanging(self, lead: str, indent: str, text: str, width: int) -> None:
        """text wrapped at width after lead, its further lines after indent."""
        first, *more = _chunks(text, width)
        self.append((lead + first).rstrip())
        self.extend([(indent + line).rstrip() for line in more])


class _LineCount:
    """The number of lines a _Drawing of the same rows holds, counted without drawing."""

    def __init__(self) -> None:
        self.lines = 0

    def line(self, text: str) -> None:
        self.lines += 1

    def row(self, cells: list[str], columns: tuple) -> None:
        widths = columns[0]
        self.lines += (1 if all(map(_fits, cells, widths))
                       else max(map(len, map(_chunks, cells, widths))))

    def hanging(self, lead: str, indent: str, text: str, width: int) -> None:
        self.lines += len(_chunks(text, width))


def _lay_out(label: ModelFactsLabel, budget: RenderBudget, page: _Drawing | _LineCount) -> None:
    """Place the text form's rows on page, a _Drawing or a _LineCount, in page order."""
    w = budget.width
    cols3 = (w - 3) // 4                # three numeric columns
    col0 = w - 3 - 3 * cols3            # leading label column
    columns4 = _columns((col0, cols3, cols3, cols3), "lrrr")
    columns3 = _columns((col0, 13, w - col0 - 2 - 13), "lrr")

    def field(name: str, value: str) -> None:
        page.hanging(name.ljust(18), " " * 18, value, w - 18)

    page.line("MODEL FACTS".center(w).rstrip())
    page.line("=" * w)

    app = label.application
    field("Application:", app.application)
    field("Model Type:", app.model_type.display_name)
    field("Model Train Date:", app.model_train_date.isoformat())
    field("Test Data Date:", app.test_data_range.isoformat())
    page.line("")

    acc = label.accuracy
    page.row(["Accuracy:", "Name", "% Over Baseline", "Raw Score"], columns4)
    for title, mv in (("Optimized Score", acc.optimized), ("Standard Score", acc.standard)):
        page.row([title, mv.name,
                  _cell_text(mv.pct_over_baseline, fmt_pct),
                  _cell_text(mv.raw_score, fmt_score)], columns4)
    page.line("")

    ds = label.dataset
    page.row(["Dataset Size:", "Count", "% Train / % Test"], columns3)
    split = f"{_cell_text(ds.train_pct, fmt_pct)} / {_cell_text(ds.test_pct, fmt_pct)}"
    page.row(["", _cell_text(ds.sample_count, fmt_count), split], columns3)
    page.line("")

    target_header = "Mean (std)" if label.application.model_type is ModelType.REGRESSION else "% Target"
    page.row(["Demographics:", "% In Test", "Accuracy", target_header], columns4)
    for category in label.demographics:
        page.hanging("", "", f"{category.category_name}:", w)
        page.line("-" * w)
        for row in category.rows:
            page.row([row.group_name,
                      _cell_text(row.pct_in_test, fmt_pct),
                      _cell_text(row.group_accuracy, fmt_score),
                      _cell_text(row.target_stat, _fmt_target)], columns4)
    page.line("")

    page.line("Warnings:")
    for warning in label.warnings:
        page.hanging("  - ", "    ", warning, w - 4)


def render_text(label: ModelFactsLabel, budget: RenderBudget | None = None) -> str:
    """Fixed-width text rendering.

    Layout: centered title over a `=` rule, then the Application, Accuracy,
    Dataset Size, Demographics, and Warnings sections.  Non-reported cells
    appear as `[not reported]`, `[unknown]`, or `[not collected]`; raw scores
    use 3 decimals, percentages 1 decimal, counts comma grouping.  Ends with
    a single newline and carries no trailing spaces.
    """
    page = _Drawing()
    _lay_out(label, budget or RenderBudget(), page)
    return "\n".join(page) + "\n"


def text_line_count(label: ModelFactsLabel, budget: RenderBudget | None = None) -> int:
    """render_text(label, budget).count("\\n"), from the same layout, without drawing it."""
    page = _LineCount()
    _lay_out(label, budget or RenderBudget(), page)
    return page.lines


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


def _td(cell: Provenance, fmt) -> str:
    if cell.state is _REPORTED:
        return f'<td class="num">{html.escape(fmt(cell.value))}</td>'
    return _CELL_TD[cell.state]


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
