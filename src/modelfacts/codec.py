"""Shared JSON encodings for provenance cells, target stats, dates, and labels.

Both the manifest parser and the canonical label serializer speak this
vocabulary, so it lives in one place.  The label's JSON shape is declared
once, as a table of (encode, decode) pairs, and both directions derive from it,
down to the canonical JSON text that every command reads and writes.  Encoders
build each object with its keys in sorted order, and the canonical text is
written straight from the same table in that order, without building the
encoded value; ad hoc reports are sorted by json_text.

A decoder takes only its value, and its SCHEMA_ERROR a path relative to it: ""
for the value itself, else steps like ".rows[2]".  Containers put their step in
front on the way out (`decode_at`), so a well-formed document builds no paths.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from json.encoder import encode_basestring
from math import isfinite
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping

from .errors import SchemaError, UnsupportedVersionError
from .label import (SUPPORTED_SCHEMA_VERSIONS, AccuracySection, ApplicationInfo, DatasetInfo,
                    DateRange, DemographicCategory, DemographicGroupRow, MeanStd, MetricValue,
                    ModelFactsLabel, ModelType, PartialDate, PctTarget, Provenance,
                    ProvenanceState, _REPORTED, is_finite_number)

# Value-less cells are frozen and carry nothing but their state, so one
# instance per state serves every decoded cell.
_UNREPORTED = {state.value: Provenance(state) for state in ProvenanceState
               if state is not _REPORTED}

# The one JSON text setting, for labels and machine output alike: shortest
# numbers, non-ASCII kept, no spaces; NaN and infinities are a ValueError.
_JSON_SETTINGS = {"ensure_ascii": False, "separators": (",", ":"), "allow_nan": False}
_encode_in_order = json.JSONEncoder(**_JSON_SETTINGS).encode
_encode_sorted = json.JSONEncoder(sort_keys=True, **_JSON_SETTINGS).encode

_DATE_RE = re.compile(r"^(\d{4})(?:-(\d{2})(?:-(\d{2}))?)?$")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def load_json_document(doc: str | bytes) -> Any:
    """Parse a JSON document given as UTF-8 bytes or as text.

    Bytes that are not UTF-8, text holding lone surrogates (undecodable
    bytes carried through), a string escape that decodes to a lone surrogate
    (say "\\udc80"), and invalid JSON are SCHEMA_ERROR at (document).
    """
    try:
        if isinstance(doc, bytes):
            doc = doc.decode("utf-8")
        else:
            doc.encode("utf-8")
    except UnicodeError as exc:
        raise SchemaError("(document)", f"not valid UTF-8: {exc}") from None
    try:
        value = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise SchemaError("(document)", f"invalid JSON: {exc}") from None
    if _SURROGATE_ESCAPE.search(doc):  # only then can a decoded string hold one
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError("(document)", "not valid UTF-8: a lone surrogate escape") from None
    return value


def parse_partial_date(text: Any) -> PartialDate:
    """Parse "YYYY", "YYYY-MM", or "YYYY-MM-DD" into a reduced-precision date.

    Anything else is a SCHEMA_ERROR at the value itself, as from any decoder.
    """
    if not isinstance(text, str):
        raise SchemaError("", f"date must be a string, got {type(text).__name__}")
    m = _DATE_RE.match(text.strip())
    if not m:
        raise SchemaError("", f"cannot parse date '{text}' (expected YYYY, YYYY-MM, or YYYY-MM-DD)")
    year, month, day = m.groups()
    try:
        return PartialDate(int(year), int(month) if month else None, int(day) if day else None)
    except ValueError as exc:
        raise SchemaError("", f"invalid date '{text}': {exc}") from None


def top_level(decode: Callable[..., Any]) -> Callable[..., Any]:
    """decode, its SCHEMA_ERROR at a document path: the document itself is "(top level)"."""
    def read(*args: Any) -> Any:
        try:
            return decode(*args)
        except SchemaError as exc:
            raise SchemaError(exc.path[1:] or "(top level)", exc.reason) from None
    return read


def decode_at(obj: Mapping, key: str, decode: Callable[[Any], Any]) -> Any:
    """decode(obj[key]), its SCHEMA_ERROR moved under ".key"."""
    try:
        return decode(obj[key])
    except SchemaError as exc:
        raise SchemaError(f".{key}{exc.path}", exc.reason) from None


_PCT_KEYS = frozenset({"pct_target"})
_MEAN_STD_KEYS = frozenset({"mean", "std"})


def decode_target(obj: Any) -> PctTarget | MeanStd:
    if isinstance(obj, dict):
        keys = obj.keys()
        if keys == _PCT_KEYS:
            return PctTarget(decode_at(obj, "pct_target", require_number))
        if keys == _MEAN_STD_KEYS:
            return MeanStd(decode_at(obj, "mean", require_number),
                           decode_at(obj, "std", require_number))
    raise SchemaError("", "target stat must be {pct_target} or {mean, std}")


def check_keys(doc: Mapping, allowed: Iterable[str]) -> None:
    """SCHEMA_ERROR when doc holds a key not allowed."""
    unknown = doc.keys() - allowed
    if unknown:
        raise SchemaError("", f"unknown keys {sorted(unknown)}")


def require_number(value: Any) -> float:
    if not is_finite_number(value):
        raise SchemaError("", f"expected a finite number, got {value!r}")
    return value


def _require_count(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError("", f"expected an integer, got {value!r}")
    return value


_DECODERS = {"number": require_number, "count": _require_count, "target": decode_target}


_CELL_KEYS = frozenset({"state", "value"})
_REPORTED_NAME = _REPORTED.value


def encode_provenance(cell: Provenance) -> dict[str, Any]:
    """The tagged {state, value?} object; a target becomes {pct_target} or {mean, std}.
    Keys come in sorted order."""
    value = cell.value
    if value is None:  # only a reported cell carries a value
        return {"state": cell.state.value}
    if isinstance(value, PctTarget):
        value = {"pct_target": value.pct}
    elif isinstance(value, MeanStd):
        value = {"mean": value.mean, "std": value.std}
    return {"state": _REPORTED_NAME, "value": value}


# The canonical text of a reported cell of each kind, with a %s slot for each value.
_NUMBER_CELL, _PCT_CELL, _MEAN_STD_CELL = (
    _encode_in_order(encode_provenance(Provenance(_REPORTED, value))).replace('"%s"', "%s")
    for value in ("%s", PctTarget("%s"), MeanStd("%s", "%s")))
_UNREPORTED_CELL = {cell.state: _encode_in_order(encode_provenance(cell))
                    for cell in _UNREPORTED.values()}


def _provenance_text(cell: Provenance) -> str:
    """The canonical text of encode_provenance(cell), written without building it."""
    value = cell.value
    if value is None:
        return _UNREPORTED_CELL.get(cell.state) or _encode_in_order(encode_provenance(cell))
    if isinstance(value, PctTarget):
        return _PCT_CELL % _leaf_text(value.pct)
    if isinstance(value, MeanStd):
        return _MEAN_STD_CELL % (_leaf_text(value.mean), _leaf_text(value.std))
    return _NUMBER_CELL % _leaf_text(value)


def decode_provenance(obj: Any, kind: str = "number") -> Provenance:
    """Decode a tagged {state, value?} object.

    kind selects the reported-value decoder: "number", "count" (nonnegative
    integer), or "target" (PctTarget / MeanStd).
    """
    if type(obj) is dict:  # the two well-formed shapes first
        state_name, value = obj.get("state"), obj.get("value")
        if len(obj) == 1 and type(state_name) is str and state_name in _UNREPORTED:
            return _UNREPORTED[state_name]
        if (type(value) is float and len(obj) == 2 and state_name == _REPORTED_NAME
                and kind == "number" and isfinite(value)):
            return Provenance(_REPORTED, value)
    if not isinstance(obj, dict):
        raise SchemaError("", f"expected a tagged provenance object, got {obj!r}")
    check_keys(obj, _CELL_KEYS)
    state_name = obj.get("state")
    if state_name == _REPORTED_NAME:
        if "value" not in obj:
            raise SchemaError("", "reported state requires a value")
        return Provenance(_REPORTED, decode_at(obj, "value", _DECODERS[kind]))
    cell = _UNREPORTED.get(state_name) if type(state_name) is str else None
    if cell is None:
        raise SchemaError("", f"unknown provenance state {state_name!r}")
    if "value" in obj:
        raise SchemaError("", f"state '{state_name}' cannot carry a value")
    return cell


def decode_cell(obj: Any, kind: str = "number") -> Provenance:
    """Like decode_provenance, but accepts a bare value as reported shorthand."""
    if isinstance(obj, dict) and "state" in obj:
        return decode_provenance(obj, kind)
    return Provenance.reported(_DECODERS[kind](obj))


# A codec is an (encode, decode) pair; decode(obj) takes only the value.  The
# label's object, list and cell codecs add a third member, write(value): the
# canonical text of encode(value), written without building it.
Codec = tuple[Callable[[Any], Any], ...]


def _leaf_text(value: Any) -> str:
    """The canonical text of a leaf; any but an exact str or finite float by json."""
    if type(value) is str:
        return encode_basestring(value)
    if type(value) is float and isfinite(value):
        return repr(value)
    return _encode_in_order(value)


def _writer(codec: Codec) -> Callable[[Any], str]:
    """codec's write: its own, else the leaf text of its encoding."""
    encode = codec[0]
    return codec[2] if len(codec) > 2 else lambda value: _leaf_text(encode(value))


def _object(cls: type, **fields: Codec) -> Codec:
    """A dataclass whose JSON keys are exactly the given field names.

    Fields encode and write in key order, and decode in the order given.  A
    missing or unknown key, or a ValueError from cls's constructor, is a
    SCHEMA_ERROR at the object itself.
    """
    keys = set(fields)
    decoders = tuple((name, codec[1]) for name, codec in fields.items())
    in_order = sorted(fields.items(), key=itemgetter(0))
    encoders = tuple((name, codec[0]) for name, codec in in_order)
    writers = tuple((name, _writer(codec)) for name, codec in in_order)
    template = "{%s}" % ",".join(f"{encode_basestring(name)}:%s" for name, _ in in_order)

    def encode(value: Any) -> dict[str, Any]:
        return {name: enc(getattr(value, name)) for name, enc in encoders}

    def write(value: Any) -> str:
        return template % tuple([field(getattr(value, name)) for name, field in writers])

    def decode(obj: Any) -> Any:
        if not isinstance(obj, dict):
            raise SchemaError("", f"expected an object, got {type(obj).__name__}")
        if obj.keys() != keys:
            missing = keys - obj.keys()
            if missing:
                raise SchemaError("", f"missing keys {sorted(missing)}")
            check_keys(obj, keys)
        values = {}
        for name, dec in decoders:
            try:
                values[name] = dec(obj[name])
            except SchemaError as exc:
                raise SchemaError(f".{name}{exc.path}", exc.reason) from None
        try:
            return cls(**values)
        except ValueError as exc:
            raise SchemaError("", str(exc)) from None

    return encode, decode, write


def _list_of(item: Codec) -> Codec:
    """A JSON list, decoded to a tuple."""
    enc, dec, write = item[0], item[1], _writer(item)

    def decode(obj: Any) -> tuple:
        if not isinstance(obj, list):
            raise SchemaError("", f"expected a list, got {type(obj).__name__}")
        values = []
        for i, x in enumerate(obj):
            try:
                values.append(dec(x))
            except SchemaError as exc:
                raise SchemaError(f"[{i}]{exc.path}", exc.reason) from None
        return tuple(values)

    return ((lambda values: [enc(v) for v in values]), decode,
            lambda values: "[%s]" % ",".join(map(write, values)))


def _cell(kind: str) -> Codec:
    """A provenance cell whose reported value has the given decode_provenance kind."""
    return encode_provenance, lambda obj: decode_provenance(obj, kind), _provenance_text


def same(value: Any) -> Any:
    return value


def checked(ok: Callable[[Any], Any], problem: str,
            convert: Callable[[Any], Any] = same) -> Callable[[Any], Any]:
    """A leaf decoder: convert(value) when ok(value) holds, else SCHEMA_ERROR.

    problem may show the value through a {!r} field.
    """
    def decode(obj: Any) -> Any:
        if not ok(obj):
            raise SchemaError("", problem.format(obj))
        return convert(obj)
    return decode


def enum_codec(cls: type[Enum]) -> Codec:
    """An Enum member, written as its value."""
    values = [member.value for member in cls]
    return (lambda member: member.value), checked(
        lambda v: v in values, f"expected one of {sorted(values)}, got {{!r}}", cls)


def _text(obj: Any) -> str:
    if not isinstance(obj, str):
        raise SchemaError("", f"must be a string, got {type(obj).__name__}")
    return obj


def _version(obj: Any) -> str:
    if _text(obj) not in SUPPORTED_SCHEMA_VERSIONS:
        raise UnsupportedVersionError(
            f"schema_version {obj!r} not in supported set {sorted(SUPPORTED_SCHEMA_VERSIONS)}")
    return obj


_TEXT: Codec = (same, _text, _leaf_text)
DATE: Codec = (PartialDate.isoformat, parse_partial_date)
DATE_RANGE = _object(DateRange, start=DATE, end=DATE)
_NUMBER, _COUNT, _TARGET = _cell("number"), _cell("count"), _cell("target")

_METRIC = _object(MetricValue, name=_TEXT, raw_score=_NUMBER, pct_over_baseline=_NUMBER)

_LABEL = _object(
    ModelFactsLabel,
    schema_version=(same, _version),
    application=_object(
        ApplicationInfo,
        application=_TEXT,
        model_type=enum_codec(ModelType),
        model_train_date=DATE,
        test_data_range=DATE_RANGE,
    ),
    accuracy=_object(AccuracySection, optimized=_METRIC, standard=_METRIC),
    dataset=_object(DatasetInfo, sample_count=_COUNT, train_pct=_NUMBER, test_pct=_NUMBER),
    demographics=_list_of(_object(
        DemographicCategory,
        category_name=_TEXT,
        rows=_list_of(_object(DemographicGroupRow, group_name=_TEXT, pct_in_test=_NUMBER,
                              group_accuracy=_NUMBER, target_stat=_TARGET)),
    )),
    warnings=_list_of(_TEXT),
)

encode_metric = _METRIC[0]
encode_label, decode_label, _write_label = _LABEL[0], top_level(_LABEL[1]), _LABEL[2]


def json_text(obj: Any) -> str:
    """obj as JSON text in the one setting, every object's keys sorted."""
    return _encode_sorted(obj)


def to_canonical_json(label: ModelFactsLabel) -> bytes:
    """Deterministic serialization: json_text of encode_label, UTF-8, one trailing
    newline, written straight from the label table with its keys in order.
    The interchange format for validate/compare/audit."""
    return (_write_label(label) + "\n").encode("utf-8")


def from_canonical_json(data: bytes | str) -> ModelFactsLabel:
    """Strict inverse of to_canonical_json.

    Shape errors (including unknown fields) raise SCHEMA_ERROR with the
    offending path; an unsupported schema_version raises UNSUPPORTED_VERSION.
    Semantic publishability rules are left to the validator so that a flawed
    label can still be loaded and inspected.
    """
    return decode_label(load_json_document(data))
