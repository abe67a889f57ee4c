"""Property tests: the document parsers end in a value or a typed error, and
the canonical label JSON round-trips byte for byte."""

from __future__ import annotations

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_golden
from modelfacts.assemble import load_reference_population
from modelfacts.errors import ModelFactsError
from modelfacts.ingest import parse_label_manifest
from modelfacts.label import (
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
    PartialDate,
    PctTarget,
    Provenance,
    ProvenanceState,
)
from modelfacts.render import from_canonical_json, to_canonical_json

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["reported", "not_collected", "regression", "1.0", "2020", "2020-02-30"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8) | st.sampled_from(["state", "value"]), children,
                      max_size=4),
    max_leaves=12,
)

REFERENCE = {"name": "urban", "categories": {"Gender": {"Female": 50.0, "Male": 48.0,
                                                        "Other": 2.0}}}
DOCUMENTS = {
    "label": (from_canonical_json, [json.loads(read_golden(f"{name}.label.json"))
                                    for name in ("void", "suicide_risk")]),
    "manifest": (parse_label_manifest, [json.loads(read_golden(f"{name}.manifest.json"))
                                        for name in ("void", "suicide_risk")]),
    "reference": (load_reference_population, [REFERENCE]),
}


def node_paths(node, prefix=()):
    """Every path into a parsed JSON document, the root included."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from node_paths(child, prefix + (key,))


def with_node_replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def parse_or_typed_error(parse, text: str) -> None:
    try:
        parse(text)
    except ModelFactsError:
        pass


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(sorted(DOCUMENTS)), value=json_values)
def test_any_json_value_parses_or_raises_a_typed_error(kind, value):
    parse, _ = DOCUMENTS[kind]
    parse_or_typed_error(parse, json.dumps(value))


@PROPERTY_SETTINGS
@given(data=st.data(), kind=st.sampled_from(sorted(DOCUMENTS)), value=json_values)
def test_golden_with_one_node_replaced_parses_or_raises_a_typed_error(data, kind, value):
    parse, goldens = DOCUMENTS[kind]
    golden = data.draw(st.sampled_from(goldens))
    path = data.draw(st.sampled_from(list(node_paths(golden))))
    parse_or_typed_error(parse, json.dumps(with_node_replaced(golden, path, value)))


@PROPERTY_SETTINGS
@given(data=st.binary(max_size=64))
def test_any_bytes_decode_to_a_label_or_a_typed_error(data):
    parse_or_typed_error(from_canonical_json, data)


text = st.text(max_size=12)
numbers = st.integers(-10**6, 10**6) | st.floats(allow_nan=False, allow_infinity=False)
unreported = st.sampled_from([Provenance(state) for state in ProvenanceState
                              if state is not ProvenanceState.REPORTED])


def cells(values):
    return unreported | values.map(Provenance.reported)


@st.composite
def partial_dates(draw):
    year = draw(st.integers(1, 9999))
    month = draw(st.none() | st.integers(1, 12))
    day = None if month is None else draw(st.none() | st.integers(1, 28))
    return PartialDate(year, month, day)


@st.composite
def date_ranges(draw):
    start, end = sorted([draw(partial_dates()), draw(partial_dates())],
                        key=PartialDate.sort_key)
    return DateRange(start, end)


metrics = st.builds(MetricValue, text, cells(numbers), cells(numbers))
targets = cells(st.builds(PctTarget, numbers) | st.builds(MeanStd, numbers, numbers))
rows = st.builds(DemographicGroupRow, text, cells(numbers), cells(numbers), targets)
labels = st.builds(
    ModelFactsLabel,
    application=st.builds(ApplicationInfo, text.filter(str.strip), st.sampled_from(ModelType),
                          partial_dates(), date_ranges()),
    accuracy=st.builds(AccuracySection, metrics, metrics),
    dataset=st.builds(DatasetInfo, cells(st.integers(0, 10**9)), cells(numbers), cells(numbers)),
    demographics=st.lists(st.builds(DemographicCategory, text, st.lists(rows, max_size=3)),
                          max_size=3),
    warnings=st.lists(text, max_size=3),
)


@PROPERTY_SETTINGS
@given(label=labels)
def test_generated_label_round_trips_byte_for_byte(label):
    data = to_canonical_json(label)
    again = from_canonical_json(data)
    assert again == label
    assert to_canonical_json(again) == data
