"""Parsing of prediction datasets and label manifests.

Predictions arrive as comma-separated UTF-8 text with a header row; the
manifest is a JSON document whose keys mirror the label sections.  Both are
validated on the way in so that downstream code never sees malformed data.
"""

from __future__ import annotations

import csv
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from itertools import islice
from math import isfinite
from pathlib import Path
from typing import Any, Callable, IO, Iterable, Mapping, Sequence

from .codec import (DATE, DATE_RANGE, Codec, check_keys, checked, decode_at, decode_cell,
                    decode_provenance, encode_provenance, enum_codec, load_json_document,
                    parse_partial_date, same, top_level)
from .errors import (
    BadValueError,
    DuplicateIdError,
    EmptyFileError,
    MissingColumnError,
    SchemaError,
    UnknownMetricError,
)
from .label import (
    CANONICAL_CATEGORIES,
    CANONICAL_CATEGORY_ORDER,
    DECLARED_CELLS,
    LABEL_CELLS,
    ROW_CELLS,
    DateRange,
    MeanStd,
    ModelType,
    PartialDate,
    PctTarget,
    Provenance,
    ProvenanceCell,
    _group_value,
    is_finite_number,
)
from .metrics import (Direction, PredictionDataset, _require_positive_class, metric_direction,
                      metric_spec, select_standard_metric)

MANIFEST_SCHEMA_VERSION = "1.0"

# One declared demographic row: provenance per stat cell, keyed by the row
# cells' manifest keys (label.ROW_CELLS).
DeclaredRow = dict[str, Provenance]

_STAT_KEYS = tuple(cell.manifest for cell in ROW_CELLS)
_STAT_DECODERS = tuple((cell.manifest, partial(decode_cell, kind=cell.kind)) for cell in ROW_CELLS)
_NO_ROW = "row is missing and no category state is given"
_NO_STAT = "stat is missing and no category state is given"


def _value_problem(spec: ProvenanceCell, value: Any, variant: type) -> str | None:
    """Why a reported declared value does not fit its cell, else None; `variant` is the
    model type's target shape.  A dataset cell is held to its own range rule, the one
    validate_label applies (it reads no label); any other cell to a finite number of its
    shape, leaving score and row ranges to the validator."""
    if spec.label.startswith("dataset."):
        return spec.rule(value, None)
    if spec.kind == "number":
        return None if is_finite_number(value) else f"expected a finite number, got {value!r}"
    if not isinstance(value, variant):
        return ("classification labels report a target percentage" if variant is PctTarget
                else "regression labels report mean and std")
    if all(map(is_finite_number, vars(value).values())):
        return None
    return f"expected finite numbers, got {value!r}"


@dataclass(frozen=True)
class LabelManifest:
    """Developer-declared metadata: everything a dataset alone cannot supply.

    The manifest document's shape is the table _MANIFEST; fields without a
    default are its required keys.  The shape of the alias maps (whose aliases
    are lowercased here), the rules on single values (_VALUE_RULES), rules that
    span fields, the values of reported cells, the stats of each declared row
    and the groups of each declared category are checked here, so a hand-built
    manifest obeys them too.  A row given as None is a missing row.
    """

    schema_version: str
    application: str
    model_type: ModelType
    model_train_date: PartialDate
    test_data_range: DateRange
    optimized_name: str
    warnings: tuple[str, ...]
    optimized_direction: Direction | None = None  # None: inferred from optimized_name
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
        object.__setattr__(self, "aliases", _aliases(self.aliases))
        for name, (holds, problem) in _VALUE_RULES.items():
            value = getattr(self, name)
            if not holds(value):
                raise SchemaError(_PATHS[name], problem.format(value))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        object.__setattr__(self, "extra_categories", tuple(self.extra_categories))
        for category, rows in self.demographics.items():
            if not rows and category not in CANONICAL_CATEGORIES:
                raise SchemaError(f"demographics.{category}",
                                  "extension categories need explicit rows")
        if self.optimized_direction is None:
            direction = metric_direction(self.optimized_name)
            if direction is None:
                raise UnknownMetricError(f"metric '{self.optimized_name}' has no known direction; "
                                         f"set {_PATHS['optimized_direction']}")
            object.__setattr__(self, "optimized_direction", direction)
        if self.baseline_policy is not None:
            if self.baseline is not None:
                raise SchemaError(_SECTIONS["baseline"],
                                  "give either baseline or baseline_policy, not both")
            if not self.model_type.is_classification:
                raise SchemaError(_PATHS["baseline_policy"],
                                  "the majority-class policy applies to classification only")
        variant = PctTarget if self.model_type.is_classification else MeanStd
        declared = [(spec, getattr(self, spec.declared), ()) for spec in LABEL_CELLS]
        declared += [(spec, row.get(spec.manifest), (category, group))
                     for category, rows in self.demographics.items()
                     for group, row in rows.items() if row is not None for spec in ROW_CELLS]
        for spec, cell, where in declared:
            value = None if cell is None else cell.value  # None unless reported
            problem = None if value is None else _value_problem(spec, value, variant)
            if problem is not None:
                raise SchemaError(spec.manifest_path(*where), problem)
        for spec, cell, where in declared:  # a declared row holds every stat
            if cell is None and where:
                raise SchemaError(spec.manifest_path(*where), _NO_STAT)
        for category, rows in self.demographics.items():  # every canonical group; no None row
            for group in (*CANONICAL_CATEGORIES.get(category, ()), *rows):
                if rows.get(group) is None:
                    raise SchemaError(f"demographics.{category}.rows.{group}", _NO_ROW)

    @property
    def standard_metric_name(self) -> str:
        """The standard metric's name: the declared one, else the model type's mandated one."""
        return self.standard_name or select_standard_metric(self.model_type)

    def known_categories(self) -> list[str]:
        """Categories this manifest can bind prediction columns to."""
        names = list(CANONICAL_CATEGORY_ORDER)
        for name in list(self.extra_categories) + list(self.demographics):
            if name not in names:
                names.append(name)
        return names

    def to_dict(self) -> dict[str, Any]:
        """Lossless dictionary form; parsing it back yields an equal manifest.

        A field equal to its default is left out.
        """
        doc: dict[str, Any] = {}
        for _, section, key, name, (encode, _) in _FIELDS:
            value = getattr(self, name)
            if name in _DEFAULTS and value == _DEFAULTS[name]:
                continue
            (doc.setdefault(section, {}) if section else doc)[key] = encode(value)
        return doc


def _strings(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(s, str) for s in value)


_NON_EMPTY = "must be a non-empty string"

# The rules on single values, by LabelManifest field: (holds, problem), in document
# order.  The dataclass checks them before any other rule, at the field's manifest
# path; None is an optional field left out, as JSON null is for these keys.
_VALUE_RULES: dict[str, tuple[Callable[[Any], Any], str]] = {
    "schema_version": (lambda v: v == MANIFEST_SCHEMA_VERSION, "unsupported manifest version {!r}"),
    "application": (lambda v: isinstance(v, str) and v.strip(), _NON_EMPTY),
    "positive_class": (lambda v: v is None or isinstance(v, str), "must be a string label"),
    "optimized_name": (lambda v: isinstance(v, str) and v, _NON_EMPTY),
    "baseline": (lambda v: v is None or is_finite_number(v) and v != 0,
                 "expected a finite, nonzero number, got {!r}"),
    "baseline_policy": (lambda v: v in (None, "majority-class"),
                        "unknown policy {!r} (only 'majority-class')"),
    "standard_name": (lambda v: v is None or isinstance(v, str) and v, _NON_EMPTY),
    "warnings": (_strings, "must be a list of strings (may be empty)"),
    "extra_categories": (_strings, "expected a list of category names"),
}


def _date_range(obj: Any) -> DateRange:
    """One date string, or {start, end} as in a label."""
    if isinstance(obj, str):
        point = parse_partial_date(obj)
        return DateRange(point, point)
    if not isinstance(obj, dict):
        raise SchemaError("", "expected a date string or {start, end}")
    return DATE_RANGE[1](obj)


def _state(value: Any) -> Provenance:
    """The value-less cell a category or row names by its lone state."""
    return decode_provenance({"state": value})


def _demographics(raw: Any) -> dict[str, dict[str, DeclaredRow | None]]:
    """Categories of declared rows; a category state fills the rows and stats left out.

    Without a state, a row left out (or null) is None and a stat left out is absent:
    LabelManifest refuses both."""
    if not isinstance(raw, dict):
        raise SchemaError("", "expected an object of categories")
    return {category: decode_at(raw, category, partial(_category, category)) for category in raw}


def _category(category: str, spec: Any) -> dict[str, DeclaredRow | None]:
    """A category's rows: its canonical groups, then the others it declares."""
    if not isinstance(spec, dict):
        raise SchemaError("", "expected an object")
    check_keys(spec, {"state", "rows"})
    default = decode_at(spec, "state", _state) if "state" in spec else None
    declared = spec.get("rows", {})
    if not isinstance(declared, dict):
        raise SchemaError(".rows", "expected an object of group rows")
    groups = list(CANONICAL_CATEGORIES.get(category, ()))
    groups += [group for group in declared if group not in groups]
    rows: dict[str, DeclaredRow | None] = {}
    for group in groups:
        try:
            rows[group] = _declared_row(declared.get(group), default)
        except SchemaError as exc:
            raise SchemaError(f".rows.{group}{exc.path}", exc.reason) from None
    return rows


def _declared_row(spec: Any, default: Provenance | None) -> DeclaredRow | None:
    if spec is None:
        return None if default is None else dict.fromkeys(_STAT_KEYS, default)
    if not isinstance(spec, dict):
        raise SchemaError("", "expected an object")
    if "state" in spec:
        check_keys(spec, {"state"})
        return dict.fromkeys(_STAT_KEYS, decode_at(spec, "state", _state))
    check_keys(spec, _STAT_KEYS)
    row: DeclaredRow = {}
    for stat, decode in _STAT_DECODERS:
        if stat in spec:
            row[stat] = decode_at(spec, stat, decode)
        elif default is not None:
            row[stat] = default
    return row


def _encode_demographics(demographics: dict[str, dict[str, DeclaredRow]]) -> dict[str, Any]:
    return {category: {"rows": {
        group: {stat: encode_provenance(cell) for stat, cell in row.items()}
        for group, row in rows.items()
    }} for category, rows in demographics.items()}


def _aliases(raw: Any) -> dict[str, dict[str, str]]:
    """Per category, {alias: group}, each alias lowercased: aliases match in any case.

    A fault is a SCHEMA_ERROR at aliases or under it."""
    if not isinstance(raw, Mapping):
        raise SchemaError("aliases", "expected an object of category alias maps")
    aliases: dict[str, dict[str, str]] = {}
    for category, mapping in raw.items():
        if not isinstance(mapping, Mapping) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()):
            raise SchemaError(f"aliases.{category}", "expected {alias: group} strings")
        aliases[category] = {k.lower(): v for k, v in mapping.items()}
    return aliases


def _declared(name: str) -> tuple[str, str, Codec]:
    """The _MANIFEST entry of a label-level cell's LabelManifest field, at its manifest
    path and decoded as its table entry's value kind."""
    spec = DECLARED_CELLS[name]
    return spec.manifest, name, (encode_provenance, partial(decode_cell, kind=spec.kind))


_AS_IS: Codec = (same, same)  # a value _VALUE_RULES checks

# The manifest's JSON shape, declared once: (JSON path, LabelManifest field,
# codec), in document order.  A dotted path is a key of an object section.
_MANIFEST: tuple[tuple[str, str, Codec], ...] = (
    ("schema_version", "schema_version", _AS_IS),
    ("application", "application", _AS_IS),
    ("model_type", "model_type", enum_codec(ModelType)),
    ("model_train_date", "model_train_date", DATE),
    ("test_data_range", "test_data_range", (DATE_RANGE[0], _date_range)),
    ("positive_class", "positive_class", _AS_IS),
    ("optimized_metric.name", "optimized_name", _AS_IS),
    ("optimized_metric.direction", "optimized_direction", enum_codec(Direction)),
    _declared("optimized_raw"),
    _declared("optimized_pct_over"),
    ("optimized_metric.baseline", "baseline", _AS_IS),
    ("optimized_metric.baseline_policy", "baseline_policy", _AS_IS),
    # JSON null is no name here, not the absent key.
    ("standard_metric.name", "standard_name", (same, checked(lambda v: v is not None, _NON_EMPTY))),
    _declared("standard_raw"),
    _declared("standard_pct_over"),
    _declared("sample_count"),
    _declared("train_pct"),
    _declared("test_pct"),
    ("demographics", "demographics", (_encode_demographics, _demographics)),
    ("warnings", "warnings", (list, same)),
    ("aliases", "aliases", (lambda a: {c: dict(m) for c, m in a.items()}, same)),
    ("extra_categories", "extra_categories", (list, same)),
)

# Each field's path split once: (path, section, key, name, codec); "" is the top level.
_FIELDS = tuple((path, *path.rpartition(".")[::2], name, codec) for path, name, codec in _MANIFEST)
_PATHS = {name: path for path, _, _, name, _ in _FIELDS}
_SECTIONS = {name: section for _, section, _, name, _ in _FIELDS}
_DEFAULTS = {f.name: f.default if f.default_factory is MISSING else f.default_factory()
             for f in fields(LabelManifest)
             if f.default is not MISSING or f.default_factory is not MISSING}
# Required paths: those of fields without a default, and the sections holding them.
_REQUIRED = {required for path, section, _, name, _ in _FIELDS if name not in _DEFAULTS
             for required in (path, section) if required}
# The keys each section allows; "" is the top level, which also holds the sections.
_KEYS = {section: {key for _, s, key, _, _ in _FIELDS if s == section}
         for section in _SECTIONS.values()}
_KEYS[""] |= set(_KEYS) - {""}


def _section(doc: Mapping, name: str) -> Mapping | None:
    """The object section with the given name, its keys checked; None when absent."""
    if name not in doc:
        if name in _REQUIRED:
            raise SchemaError(name, "required key is missing")
        return None
    section = doc[name]
    if not isinstance(section, Mapping):
        raise SchemaError(name, "expected an object")
    try:
        check_keys(section, _KEYS[name])
    except SchemaError as exc:
        raise SchemaError(name + exc.path, exc.reason) from None
    return section


def parse_label_manifest(doc: str | bytes | Mapping[str, Any]) -> LabelManifest:
    """Parse and validate a manifest document (JSON text or a parsed mapping)."""
    if isinstance(doc, (str, bytes)):
        doc = load_json_document(doc)
    if not isinstance(doc, Mapping):
        raise SchemaError("(document)", "manifest must be a JSON object")
    top_level(check_keys)(doc, _KEYS[""])
    sections: dict[str, Mapping | None] = {"": doc}
    values: dict[str, Any] = {}
    for path, section, key, name, (_, decode) in _FIELDS:
        if section not in sections:
            sections[section] = _section(doc, section)
        obj = sections[section]
        if obj is not None and key in obj:
            try:
                values[name] = decode(obj[key])
            except SchemaError as exc:
                raise SchemaError(path + exc.path, exc.reason) from None
        elif path in _REQUIRED:
            raise SchemaError(path, "required key is missing")
    return LabelManifest(**values)


def load_label_manifest(path: str | Path) -> LabelManifest:
    return parse_label_manifest(Path(path).read_bytes())


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


# Rows read and checked together; a block that raises is checked again a row at a time.
_BLOCK_ROWS = 256


def _texts(cells: Iterable[str], row_no: int, column: str, problem: str) -> list[str]:
    """The stripped cells; a blank one is a BadValueError at row_no."""
    texts = list(map(str.strip, cells))
    if not all(texts):
        raise BadValueError(row_no, column, problem)
    return texts


def _numbers(cells: Sequence[str], row_no: int, column: str,
             blank: str | None = None) -> list[float]:
    """The cells as finite floats, each as its stripped text reads.  `float` reads a
    cell as it is: it ignores the whitespace around a number as str.strip does, but
    refuses "\\x1c"-"\\x1f".  So when a cell is refused or is not finite, the cells
    are stripped and read again.  That succeeds when only those characters were in
    the way; otherwise a blank cell raises BadValueError with `blank` as its reason
    (when given), before the first cell that is not a finite float raises
    _parse_number's error, at row_no."""
    try:
        values = list(map(float, cells))
        if all(map(isfinite, values)):
            return values
    except ValueError:
        pass
    texts = list(map(str.strip, cells)) if blank is None else _texts(cells, row_no, column, blank)
    return [_parse_number(text, row_no, column) for text in texts]  # raises, or strips \x1c-\x1f


def parse_predictions(source: str | Path | IO[str] | Iterable[str],
                      manifest: LabelManifest) -> PredictionDataset:
    """Parse a delimited predictions file into a validated dataset.

    Requires columns `id` and `y_true`; `score` when the optimized metric is
    scored from it (AUC), otherwise `y_pred`.  Every `score` cell is checked,
    but the column is kept only when the optimized or the standard metric
    scores from it.  Any further column whose name matches a manifest-known
    category becomes a demographic attribute, whose cells label._group_value
    turns into group names with the manifest's aliases: `age` is bucketed from
    integer years, and a canonical category's unmatched values become "Other".
    Each distinct raw value is normalized once.  Row counts are never silently
    reduced.  A file is read as UTF-8, with or without a byte-order mark.

    The rows are read in blocks and checked a column at a time, a short row
    padded with blank cells.  A block that breaks a rule is checked again a row
    at a time by the same code, so an error names the first bad cell in file
    order: its row, then its column (`id`, `y_true`, `y_pred`, `score`, then
    the group columns).
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
    except csv.Error as exc:
        raise BadValueError(0, "(row)", f"unreadable CSV row: {exc}") from None
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
    # A score column is kept only for a metric that scores from it; otherwise
    # its cells are checked and dropped, so the dataset holds no unread column.
    standard = metric_spec(manifest.standard_metric_name)
    keeps_score = needs_score or standard is not None and standard.needs_score
    score: list[float] | None = [] if score_idx is not None and keeps_score else None
    # Per category: cell index, column name, group column, and a memo from raw cell to group.
    group_cols = [(idx, names[idx], category, [], {}) for idx, category in category_cols]
    seen_ids: set[str] = set()

    def take(block: list[list[str]], row_no: int) -> None:
        """Append a block's rows column by column, padding a short row with blank cells,
        or raise the error of a cell that breaks a rule; the error names the block's
        first row, `row_no`, so it is exact for a block of one row."""
        try:
            cells = list(zip(*block, strict=True))
        except ValueError:  # rows of unequal lengths
            cells = []
        if len(cells) != width:
            longest = max(map(len, block))
            if longest > width:
                raise BadValueError(row_no, "(row)", f"expected {width} cells, got {longest}")
            for row in block:
                row += [""] * (width - len(row))
            cells = list(zip(*block))
        block_ids = _texts(cells[id_idx], row_no, "id", "empty id")
        before = len(seen_ids)
        seen_ids.update(block_ids)  # rebuilt from `ids` if the block is retried
        if len(seen_ids) - before != len(block_ids):
            raise DuplicateIdError(f"id '{block_ids[0]}' appears more than once (row {row_no})")
        staged: list[tuple[list, list]] = [(ids, block_ids)]
        for idx, column, name in ((truth_idx, truth, "y_true"), (pred_idx, prediction, "y_pred")):
            if column is not None:
                read = _texts if classification else _numbers
                staged.append((column, read(cells[idx], row_no, name, "empty value")))
        if score_idx is not None:
            values = _numbers(cells[score_idx], row_no, "score")
            if score is not None:
                staged.append((score, values))
        for idx, column, category, values, memo in group_cols:
            raws = cells[idx]
            try:
                names = list(map(memo.__getitem__, raws))
            except KeyError:  # a raw value not met before: each new one is normalized once
                for raw in set(raws).difference(memo):
                    memo[raw] = _group_value(category, raw, manifest.aliases, row_no, column)
                names = list(map(memo.__getitem__, raws))
            staged.append((values, names))
        for column, values in staged:
            column += values

    rows_before, unreadable = 0, None
    while unreadable is None:
        block: list[list[str]] = []
        try:
            block.extend(islice(reader, _BLOCK_ROWS))  # keeps the rows read before a csv.Error
        except csv.Error as exc:  # raised while reading the row after the block's last
            unreadable = exc
        if not block:
            break
        retry: list[list[str]] = []
        try:
            take(block, rows_before + 1)
        except (BadValueError, DuplicateIdError):
            retry = block
            seen_ids = set(ids)  # without this block's ids, which take may have added
        # Again a row at a time: the good rows are kept, and the first bad cell raises,
        # outside the handler so that the block's error is not chained to it.
        for row_no, row in enumerate(retry, start=rows_before + 1):
            take([row], row_no)
        rows_before += len(block)
    if unreadable is not None:
        raise BadValueError(rows_before + 1, "(row)", f"unreadable CSV row: {unreadable}")

    if not ids:
        raise EmptyFileError("predictions file has no data rows")
    positive = manifest.positive_class if classification else None
    _require_positive_class(positive, truth, prediction)

    del seen_ids  # freed before two columns of one category are merged into one
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
        positive_class=positive,
        attribute_schema=tuple(schema),
    )


load_predictions = parse_predictions
