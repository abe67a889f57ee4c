"""Shared JSON encodings for provenance cells, target stats, and dates.

Both the manifest parser and the canonical label serializer speak this
vocabulary, so it lives in one place.
"""

from __future__ import annotations

import re
from typing import Any

from .errors import DateParseError, SchemaError
from .label import (MeanStd, MetricValue, PartialDate, PctTarget, Provenance, ProvenanceState,
                    is_finite_number)

_STATE_BY_NAME = {state.value: state for state in ProvenanceState}

_DATE_RE = re.compile(r"^(\d{4})(?:-(\d{2})(?:-(\d{2}))?)?$")


def parse_partial_date(text: str) -> PartialDate:
    """Parse "YYYY", "YYYY-MM", or "YYYY-MM-DD" into a reduced-precision date."""
    if not isinstance(text, str):
        raise DateParseError(f"date must be a string, got {type(text).__name__}")
    m = _DATE_RE.match(text.strip())
    if not m:
        raise DateParseError(f"cannot parse date '{text}' (expected YYYY, YYYY-MM, or YYYY-MM-DD)")
    year, month, day = m.groups()
    try:
        return PartialDate(int(year), int(month) if month else None, int(day) if day else None)
    except ValueError as exc:
        raise DateParseError(f"invalid date '{text}': {exc}") from None


def encode_value(value: Any) -> Any:
    if isinstance(value, PctTarget):
        return {"pct_target": value.pct}
    if isinstance(value, MeanStd):
        return {"mean": value.mean, "std": value.std}
    return value


def decode_target(obj: Any, path: str) -> PctTarget | MeanStd:
    if isinstance(obj, dict):
        if set(obj) == {"pct_target"}:
            return PctTarget(require_number(obj["pct_target"], f"{path}.pct_target"))
        if set(obj) == {"mean", "std"}:
            return MeanStd(require_number(obj["mean"], f"{path}.mean"),
                           require_number(obj["std"], f"{path}.std"))
    raise SchemaError(path, "target stat must be {pct_target} or {mean, std}")


def require_number(value: Any, path: str) -> float:
    if not is_finite_number(value):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return value


def _require_count(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


_DECODERS = {"number": require_number, "count": _require_count, "target": decode_target}


def encode_provenance(cell: Provenance) -> dict[str, Any]:
    obj: dict[str, Any] = {"state": cell.state.value}
    if cell.is_reported:
        obj["value"] = encode_value(cell.value)
    return obj


def encode_metric(mv: MetricValue) -> dict[str, Any]:
    return {
        "name": mv.name,
        "raw_score": encode_provenance(mv.raw_score),
        "pct_over_baseline": encode_provenance(mv.pct_over_baseline),
    }


def decode_provenance(obj: Any, path: str, kind: str = "number") -> Provenance:
    """Decode a tagged {state, value?} object.

    kind selects the reported-value decoder: "number", "count" (nonnegative
    integer), or "target" (PctTarget / MeanStd).
    """
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected a tagged provenance object, got {obj!r}")
    unknown = set(obj) - {"state", "value"}
    if unknown:
        raise SchemaError(path, f"unknown keys {sorted(unknown)}")
    state_name = obj.get("state")
    state = _STATE_BY_NAME.get(state_name)
    if state is None:
        raise SchemaError(path, f"unknown provenance state {state_name!r}")
    if state is not ProvenanceState.REPORTED:
        if "value" in obj:
            raise SchemaError(path, f"state '{state_name}' cannot carry a value")
        return Provenance(state)
    if "value" not in obj:
        raise SchemaError(path, "reported state requires a value")
    return Provenance.reported(_DECODERS[kind](obj["value"], f"{path}.value"))


def decode_cell(obj: Any, path: str, kind: str = "number") -> Provenance:
    """Like decode_provenance, but accepts a bare value as reported shorthand."""
    if isinstance(obj, dict) and "state" in obj:
        return decode_provenance(obj, path, kind)
    return Provenance.reported(_DECODERS[kind](obj, path))
