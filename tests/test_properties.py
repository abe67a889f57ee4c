"""Property tests: the document parsers end in a value or a typed error, a label
with one leaf replaced names a path at or above that leaf, the
canonical label JSON and generated manifests round-trip, is_finite_number keeps
its definition on any value, group breakdowns of every scored metric agree with a
brute-force recount, generated labels hold only finite numbers, a
classification label does not depend on the row order, a dataset built from records
groups its raw cells as a CSV's,
label assembly follows one rule per cell (a generated label declared in its own
manifest generates the same bytes, and a declared label holds its manifest's
cells or names the manifest path at fault), the predictions parser reads a file
in blocks as a plain loop over its rows does, and the text layout splits a cell
into lines exactly as textwrap does, the page's line count is the drawn page's, a
table row at the edge of one line is drawn and counted as the textwrap layout gives
it, the canonical label JSON is the key-sorted text of an encoding built in key order,
and a hand-built label's odd leaves give json's text or json's error."""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import json
import math
import random
import sys
import textwrap
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import WHITESPACE, make_label, read_golden
from modelfacts import render
from modelfacts.assemble import CONFLICT_TOLERANCE, build_declared_label, generate_label
from modelfacts.codec import (encode_label, encode_provenance, from_canonical_json, json_text,
                              to_canonical_json)
from modelfacts.errors import (BadValueError, DeclaredConflictError, DuplicateIdError, EmptyFileError,
                               ModelFactsError, NumericOverflowError, SchemaError,
                               UnsupportedVersionError)
from modelfacts.ingest import _parse_number, parse_label_manifest, parse_predictions
from modelfacts.label import (
    CANONICAL_CATEGORY_ORDER,
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
    _group_value,
    canonical_groups,
    is_finite_number,
)
from modelfacts.metrics import (PredictionDataset, PredictionRecord, group_breakdown, make_scorer,
                                metric_spec, percent_over_baseline)
from modelfacts.render import RenderBudget, _chunks, render_text, text_line_count
from modelfacts.report import load_reference_population

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


def leaf_paths(node, prefix=()):
    """The path of every value in a parsed JSON document that is not an object or a list."""
    if not isinstance(node, (dict, list)):
        yield prefix
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield from leaf_paths(child, prefix + (key,))


def label_path(path) -> str:
    """A node path as a label SCHEMA_ERROR names it: keys after a ".", indices in []."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


@PROPERTY_SETTINGS
@given(data=st.data(), value=json_values)
def test_a_label_with_one_leaf_replaced_names_a_path_above_that_leaf(data, value):
    golden = data.draw(st.sampled_from(DOCUMENTS["label"][1]))
    leaf = data.draw(st.sampled_from(list(leaf_paths(golden))))
    text = json.dumps(with_node_replaced(golden, leaf, value))
    try:
        from_canonical_json(text)
    except UnsupportedVersionError:
        assert leaf == ("schema_version",)
    except SchemaError as exc:
        where = label_path(leaf)
        assert where == exc.path or where.startswith((f"{exc.path}.", f"{exc.path}[")), (
            f"a fault at {where} is named at {exc.path}")
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


def json_objects(node):
    """Every object in a JSON-shaped value, the value itself included."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from json_objects(child)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(label=labels)
def test_canonical_json_is_the_key_sorted_text_of_an_encoding_built_in_key_order(label):
    encoded = encode_label(label)
    assert to_canonical_json(label) == (json_text(encoded) + "\n").encode()
    for obj in json_objects(encoded):
        assert list(obj) == sorted(obj)


class _Float(float):
    """A float subclass whose repr is not a float's; json writes it as its float."""

    def __repr__(self) -> str:
        return f"_Float({float.__repr__(self)})"


class _Text(str):
    """A str subclass, which json writes as the str it holds."""


def _cycle() -> list:
    cycle = []
    cycle.append(cycle)
    return cycle


def _row(group_name="Asian", target=Provenance.reported(PctTarget(12.5))):
    return DemographicGroupRow(group_name, Provenance.reported(25.0), Provenance.reported(0.75),
                               target)


def _with_row(row: DemographicGroupRow) -> ModelFactsLabel:
    return make_label(demographics=(DemographicCategory("Race", (row,)),))


# A hand-built label holding a value where the canonical writer takes a leaf apart from
# json: a number, count or target cell, a text, and the schema version.
ODD_PLACES = {
    "raw_score": lambda v: make_label(optimized=MetricValue(
        "AUC", Provenance.reported(v), Provenance.reported(12.5))),
    "sample_count": lambda v: make_label(dataset=DatasetInfo(
        Provenance.reported(v), Provenance.reported(70.0), Provenance.reported(30.0))),
    "pct_target": lambda v: _with_row(_row(target=Provenance.reported(PctTarget(v)))),
    "std": lambda v: _with_row(_row(target=Provenance.reported(MeanStd(0.5, v)))),
    "group_name": lambda v: _with_row(_row(group_name=v)),
    "warning": lambda v: make_label(warnings=(v,)),
    "schema_version": lambda v: dataclasses.replace(make_label(), schema_version=v),
}
ODD_VALUES = {
    "true": True, "int": 3, "huge-int": 10**400, "float-subclass": _Float(0.1),
    "str-subclass": _Text('say "hi"\x01'), "list": [1.5, "x", None], "dict": {"a": 1, "b": [2.5]},
    "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "cycle": _cycle(),
}


@pytest.mark.parametrize("place", sorted(ODD_PLACES))
@pytest.mark.parametrize("value", ODD_VALUES.values(), ids=list(ODD_VALUES))
def test_canonical_json_writes_an_odd_leaf_as_json_does(place, value):
    """Bytes equal to json_text of the encoding, or json's own ValueError text."""
    label = ODD_PLACES[place](value)
    try:
        expected = (json_text(encode_label(label)) + "\n").encode()
    except ValueError as exc:
        assert isinstance(value, list) or not math.isfinite(value)
        if value is ODD_VALUES["cycle"]:
            assert str(exc) == "Circular reference detected"
        with pytest.raises(ValueError) as raised:
            to_canonical_json(label)
        assert str(raised.value) == str(exc)
    else:
        assert to_canonical_json(label) == expected


class _Real(float):
    """A float subclass, which is_finite_number takes as it takes a float."""


@settings(max_examples=300, deadline=None)
@given(value=json_values | st.integers(-2**1100, 2**1100) | st.floats() | st.complex_numbers()
       | st.floats().map(_Real))
@example(value=_Real("nan"))
@example(value=int(sys.float_info.max))
@example(value=int(sys.float_info.max) + 2**970)
@example(value=-sys.float_info.max)
@example(value=float("-inf"))
def test_is_finite_number_is_a_finite_real_that_is_not_a_bool(value):
    assert is_finite_number(value) == (
        not isinstance(value, bool) and isinstance(value, (int, float))
        and abs(value) <= sys.float_info.max)


STATE_NAMES = [state.value for state in ProvenanceState if state is not ProvenanceState.REPORTED]
finite = st.integers(-10**6, 10**6) | st.floats(allow_nan=False, allow_infinity=False)
names = st.text(min_size=1, max_size=8)


def cell_docs(values):
    """A manifest cell: a bare value, a tagged reported value, or a value-less state."""
    return (values | values.map(lambda v: {"state": "reported", "value": v})
            | st.sampled_from(STATE_NAMES).map(lambda s: {"state": s}))


@st.composite
def category_docs(draw, category: str, classification: bool):
    """A declared category: an optional state, with rows that override it or spell out all."""
    target = (finite.map(lambda p: {"pct_target": p}) if classification
              else st.tuples(finite, finite).map(lambda t: {"mean": t[0], "std": t[1]}))
    stats = {"pct_in_test": cell_docs(finite), "accuracy": cell_docs(finite),
             "target": cell_docs(target)}
    state = draw(st.none() | st.sampled_from(STATE_NAMES))
    canonical = canonical_groups(category) or ()
    extra = draw(st.lists(names, min_size=0 if canonical else 1, max_size=2, unique=True))
    rows = {}
    for group in [*canonical, *extra]:
        if state is not None and group in canonical and draw(st.booleans()):
            continue  # the category state fills a canonical row
        if draw(st.booleans()):
            rows[group] = {"state": draw(st.sampled_from(STATE_NAMES))}
        else:
            rows[group] = {stat: draw(cells) for stat, cells in stats.items()
                           if state is None or draw(st.booleans())}
    doc = {} if state is None else {"state": state}
    if rows or state is None:
        doc["rows"] = rows
    return doc


@st.composite
def manifest_docs(draw):
    """Valid manifest documents of every model type, optional parts present or absent."""
    model_type = draw(st.sampled_from(ModelType))
    classification = model_type.is_classification
    dates = date_ranges().map(lambda r: r.start.isoformat() if r.start == r.end
                              else {"start": r.start.isoformat(), "end": r.end.isoformat()})
    doc = {"schema_version": "1.0", "application": draw(text.filter(str.strip)),
           "model_type": model_type.value,
           "model_train_date": draw(partial_dates()).isoformat(),
           "test_data_range": draw(dates), "warnings": draw(st.lists(text, max_size=3))}
    if draw(st.booleans()):
        doc["positive_class"] = draw(st.none() | text)
    optimized = ({"name": draw(st.sampled_from(["AUC", "f1", "Accuracy", "R2", "MSE", "LogLoss"]))}
                 if draw(st.booleans()) else
                 {"name": draw(names), "direction": draw(st.sampled_from(["maximize", "minimize"]))})
    for key in ("raw", "pct_over_baseline"):
        if draw(st.booleans()):
            optimized[key] = draw(cell_docs(finite))
    choice = draw(st.sampled_from(["none", "null", "baseline"]
                                  + (["policy"] if classification else [])))
    if choice == "null":
        optimized.update(baseline=None, baseline_policy=None)
    elif choice == "baseline":
        optimized["baseline"] = draw(finite.filter(bool))
    elif choice == "policy":
        optimized["baseline_policy"] = "majority-class"
    doc["optimized_metric"] = optimized
    if draw(st.booleans()):
        doc["standard_metric"] = {key: draw(values) for key, values in [
            ("name", names), ("raw", cell_docs(finite)), ("pct_over_baseline", cell_docs(finite))]
            if draw(st.booleans())}
    if draw(st.booleans()):
        pct = cell_docs(st.floats(0, 100))
        doc["dataset"] = {key: draw(values) for key, values in [
            ("count", cell_docs(st.integers(0, 10**9))), ("train_pct", pct), ("test_pct", pct)]
            if draw(st.booleans())}
    extensions = names.filter(lambda name: canonical_groups(name) is None)
    if draw(st.booleans()):
        categories = draw(st.lists(st.sampled_from(CANONICAL_CATEGORY_ORDER) | extensions,
                                   max_size=4, unique=True))
        doc["demographics"] = {c: draw(category_docs(c, classification)) for c in categories}
    if draw(st.booleans()):
        doc["aliases"] = draw(st.dictionaries(names, st.dictionaries(text, text, max_size=3),
                                              max_size=2))
    if draw(st.booleans()):
        doc["extra_categories"] = draw(st.lists(extensions, max_size=3))
    return doc


@PROPERTY_SETTINGS
@given(doc=manifest_docs())
def test_generated_manifest_round_trips(doc):
    manifest = parse_label_manifest(json.dumps(doc))
    assert parse_label_manifest(manifest.to_dict()) == manifest
    again = parse_label_manifest(json.dumps(manifest.to_dict()))
    assert again == manifest
    assert again.to_dict() == manifest.to_dict()


GENDERS = ("Female", "Male", "Trans Female", "Trans Male", "Nonbinary", "Other")


@st.composite
def classification_records(draw):
    """Small datasets with forced score ties, 1-5 groups, blank cells and single-class groups."""
    groups = draw(st.lists(st.sampled_from(GENDERS + ("unknown",)), min_size=1, max_size=5,
                           unique=True))
    n = draw(st.integers(1, 30))
    return [PredictionRecord(
        id=str(i),
        truth=draw(st.sampled_from(["0", "1", "2"])),
        prediction=draw(st.sampled_from(["0", "1", "2"])),
        score=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(-2, 2)),
        attributes={} if draw(st.booleans()) and draw(st.booleans())
        else {"Gender": draw(st.sampled_from(groups + [""]))},
    ) for i in range(n)]


@st.composite
def regression_records(draw):
    """Like classification_records, with float truths and predictions and no score column."""
    values = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(-1e3, 1e3)
    return [PredictionRecord(r.id, draw(values), draw(values), attributes=r.attributes)
            for r in draw(classification_records())]


def pair_count_auc(scores, truth) -> float | None:
    """O(n^2) AUC: every (positive, negative) pair, ties worth one half; None on one class."""
    pos = [s for s, t in zip(scores, truth) if t == "1"]
    neg = [s for s, t in zip(scores, truth) if t != "1"]
    if not pos or not neg:
        return None
    return sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg) / (
        len(pos) * len(neg))


def recount_f1(truth, predicted) -> float:
    """F1 of the positive class "1" from a recount of the confusion cells."""
    tp = sum(1 for t, p in zip(truth, predicted) if t == p == "1")
    fp = sum(1 for t, p in zip(truth, predicted) if p == "1" != t)
    fn = sum(1 for t, p in zip(truth, predicted) if t == "1" != p)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def target_mean_std(truth) -> tuple[float, float]:
    """Mean and population (divisor N) standard deviation, summed in the package's order
    and by its formula (mean first, then the squared deviations), so the floats match."""
    mean = sum(truth) / len(truth)
    return mean, math.sqrt(sum((t - mean) ** 2 for t in truth) / len(truth))


def recount_r2(truth, predicted) -> float | None:
    """R2 = 1 - SS_res/SS_tot, summed in record order as the dataset sums them; None when
    the truth has no variance, or a sum or R2 is beyond a float."""
    mean = sum(truth) / len(truth)
    try:
        ss_tot = sum((t - mean) ** 2 for t in truth)
        ss_res = sum((t - p) ** 2 for t, p in zip(truth, predicted))
    except OverflowError:
        return None
    if ss_tot == 0.0:
        return None
    r2 = 1.0 - ss_res / ss_tot
    return r2 if math.isfinite(r2) else None


def recount_group(metric: str, members: list) -> tuple[float | None, object]:
    """The group's score (None where undefined) and target stat, recounted from its records."""
    truth = [r.truth for r in members]
    predicted = [r.prediction for r in members]
    if metric == "R2":
        return recount_r2(truth, predicted), MeanStd(*target_mean_std(truth))
    target = PctTarget(100.0 * truth.count("1") / len(members))
    if metric == "AUC":
        return pair_count_auc([r.score for r in members], truth), target
    if metric == "F1":
        return recount_f1(truth, predicted), target
    return sum(1 for t, p in zip(truth, predicted) if t == p) / len(members), target


@PROPERTY_SETTINGS
@given(data=st.data(), metric=st.sampled_from(["AUC", "Accuracy", "F1", "R2"]),
       seed=st.integers(0, 2**32 - 1))
def test_group_breakdown_matches_a_brute_force_recount(data, metric, seed):
    records = data.draw(regression_records() if metric == "R2" else classification_records())
    check_group_breakdown(records, metric, seed)


def test_group_breakdown_reports_an_overflowing_r2_as_unknown():
    records = [PredictionRecord("0", 0.0, 0.0, attributes={"Gender": "Female"}),
               PredictionRecord("1", 1.0663576658120332e-155, 1.0, attributes={"Gender": "Female"})]
    check_group_breakdown(records, "R2", seed=0)


def check_group_breakdown(records: list, metric: str, seed: int) -> None:
    positive_class = None if metric == "R2" else "1"
    if positive_class is not None and all("1" not in (r.truth, r.prediction) for r in records):
        with pytest.raises(SchemaError):  # as a CSV without its positive class is
            PredictionDataset(records, positive_class, ("Gender",))
        return
    dataset = PredictionDataset(records, positive_class, ("Gender",))
    rows = group_breakdown(dataset, "Gender", make_scorer(metric, positive_class))
    assert [row.group_name for row in rows] == list(GENDERS)
    if metric == "R2":  # the groups sum the dataset's squared errors once it has them
        dataset.squared_errors()
        assert group_breakdown(dataset, "Gender", make_scorer(metric)) == rows
    for row in rows:
        members = [r for r in records
                   if (r.attributes.get("Gender") if r.attributes.get("Gender") in GENDERS
                       else "Other") == row.group_name]
        if not members:
            assert row == row.all_not_collected(row.group_name)
            continue
        assert row.pct_in_test.value == 100.0 * len(members) / len(records)
        expected, target = recount_group(metric, members)
        assert row.target_stat.value == target
        if expected is None:
            assert row.group_accuracy.state is ProvenanceState.UNKNOWN_AVAILABILITY
        else:
            assert row.group_accuracy.value == expected

    if metric != "R2":  # regression sums follow row order, so a shuffle may move last digits
        shuffled = list(records)
        random.Random(seed).shuffle(shuffled)
        assert group_breakdown(PredictionDataset(shuffled, positive_class, ("Gender",)),
                               "Gender", make_scorer(metric, positive_class)) == rows


def finite_numbers_only(node) -> bool:
    if isinstance(node, float):
        return math.isfinite(node)
    if isinstance(node, dict):
        return all(finite_numbers_only(v) for v in node.values())
    if isinstance(node, list):
        return all(finite_numbers_only(v) for v in node)
    return True


GENERATE_SETUPS = [  # model type, optimized metric, standard metric, baseline or its policy
    ("imbalanced_classification", "AUC", None, "majority-class"),
    ("imbalanced_classification", "F1", "AUC", "majority-class"),
    ("balanced_classification", "Accuracy", None, "majority-class"),
    ("balanced_classification", "Accuracy", None, 5e-324),
    ("regression", "R2", None, None),
    ("regression", "R2", None, 1e-308),
]


def generate_case(data, setup, n: int) -> tuple[dict, list[str]]:
    """A manifest document and n CSV lines (header first) for one of GENERATE_SETUPS."""
    model_type, optimized, standard, policy = setup
    doc = {"schema_version": "1.0", "application": "Scores intake cases",
           "model_type": model_type, "model_train_date": "2020", "test_data_range": "2021",
           "optimized_metric": {"name": optimized}, "warnings": []}
    if isinstance(policy, float):
        doc["optimized_metric"]["baseline"] = policy
    elif policy:
        doc["optimized_metric"]["baseline_policy"] = policy
    if standard:
        doc["standard_metric"] = {"name": standard}
    if model_type != "regression":
        doc["positive_class"] = "1"
        values = st.sampled_from(["0", "1", "2"])
    else:
        values = st.sampled_from(["0", "1.5", "-3", "1e300", "-1e300", "2.5e-308"])
    scores = st.sampled_from(["0", "0.5", "1", "1e-300", "-7"])
    return doc, ["id,y_true,y_pred,score,gender,age"] + [
        f"r{i},{data.draw(values)},{data.draw(values)},{data.draw(scores)},"
        f"{data.draw(st.sampled_from(['F', 'M', 'x', '']))},{data.draw(st.integers(0, 150))}"
        for i in range(n)]


@PROPERTY_SETTINGS
@given(data=st.data(), setup=st.sampled_from(GENERATE_SETUPS), n=st.integers(1, 12))
def test_generate_emits_only_finite_numbers(data, setup, n):
    doc, lines = generate_case(data, setup, n)
    try:
        manifest = parse_label_manifest(json.dumps(doc))
        label = generate_label(parse_predictions(io.StringIO("\n".join(lines) + "\n"), manifest),
                               manifest)
    except ModelFactsError:
        return
    assert finite_numbers_only(json.loads(to_canonical_json(label)))


def with_label_declared(doc: dict, label: ModelFactsLabel) -> dict:
    """The manifest document with every cell of the label declared in it."""
    doc = copy.deepcopy(doc)
    for section, metric in (("optimized_metric", label.accuracy.optimized),
                            ("standard_metric", label.accuracy.standard)):
        doc.setdefault(section, {}).update(raw=encode_provenance(metric.raw_score),
                                           pct_over_baseline=encode_provenance(
                                               metric.pct_over_baseline))
    info = label.dataset
    doc["dataset"] = {"count": encode_provenance(info.sample_count),
                      "train_pct": encode_provenance(info.train_pct),
                      "test_pct": encode_provenance(info.test_pct)}
    doc["demographics"] = {category.category_name: {"rows": {row.group_name: {
        "pct_in_test": encode_provenance(row.pct_in_test),
        "accuracy": encode_provenance(row.group_accuracy),
        "target": encode_provenance(row.target_stat)} for row in category.rows}}
        for category in label.demographics}
    return doc


@PROPERTY_SETTINGS
@given(data=st.data(), setup=st.sampled_from(GENERATE_SETUPS), n=st.integers(1, 12))
def test_a_label_declared_in_its_own_manifest_generates_the_same_bytes(data, setup, n):
    # Every declared value agrees with its computed one, and every state a
    # computation left (unknown_availability, not_collected) is declared as it is.
    doc, lines = generate_case(data, setup, n)
    first = generated_bytes(doc, lines)
    if isinstance(first, str):  # an error code
        return
    assert generated_bytes(with_label_declared(doc, from_canonical_json(first)), lines) == first


DECLARED_CELL_PATHS = {"optimized_metric.raw", "optimized_metric.pct_over_baseline",
                       "standard_metric.raw", "standard_metric.pct_over_baseline",
                       "dataset.count", "dataset.train_pct", "dataset.test_pct",
                       *(f"demographics.{name}" for name in CANONICAL_CATEGORY_ORDER)}


@st.composite
def declared_manifest_docs(draw):
    """manifest_docs(), with most cells a declared label needs filled in when left out."""
    doc = draw(manifest_docs())
    classification = doc["model_type"] != "regression"
    pct = st.floats(0, 100)
    for section, key, values in [
            ("optimized_metric", "raw", finite), ("optimized_metric", "pct_over_baseline", finite),
            ("standard_metric", "raw", finite), ("standard_metric", "pct_over_baseline", finite),
            ("dataset", "count", st.integers(0, 10**9)), ("dataset", "train_pct", pct),
            ("dataset", "test_pct", pct)]:
        if draw(st.integers(0, 19)):
            doc.setdefault(section, {}).setdefault(key, draw(cell_docs(values)))
    for category in CANONICAL_CATEGORY_ORDER:
        if draw(st.integers(0, 19)):
            doc.setdefault("demographics", {}).setdefault(
                category, draw(category_docs(category, classification)))
    return doc


VOID_WITH_AN_EXPLICIT_BASELINE = {**json.loads(read_golden("void.manifest.json")),
                                  "optimized_metric": {"name": "AUC", "raw": 0.939,
                                                       "baseline": 0.5}}


@PROPERTY_SETTINGS
@given(doc=declared_manifest_docs())
@example(doc=VOID_WITH_AN_EXPLICIT_BASELINE)  # a percent computed, none declared
def test_a_declared_label_holds_its_manifest_cells_or_names_the_path_at_fault(doc):
    manifest = parse_label_manifest(json.dumps(doc))
    raw, declared_pct = manifest.optimized_raw, manifest.optimized_pct_over
    computes_pct = manifest.baseline is not None and raw is not None and raw.is_reported
    try:
        label = build_declared_label(manifest)
    except SchemaError as exc:
        assert exc.path in DECLARED_CELL_PATHS
        return
    except DeclaredConflictError as exc:
        assert computes_pct and exc.path == "optimized_metric.pct_over_baseline"
        return
    except NumericOverflowError:  # a percent over a baseline near 5e-324
        assert computes_pct
        return

    optimized, standard = label.accuracy.optimized, label.accuracy.standard
    assert (optimized.name, optimized.raw_score) == (manifest.optimized_name, raw)
    if computes_pct:  # the one cell a declared label computes
        pct = percent_over_baseline(raw.value, manifest.baseline, manifest.optimized_direction)
        assert optimized.pct_over_baseline == Provenance.reported(pct)
        if declared_pct is not None and declared_pct.is_reported:
            assert abs(declared_pct.value - pct) / 100.0 <= CONFLICT_TOLERANCE
    else:
        assert optimized.pct_over_baseline == declared_pct
    assert standard == MetricValue(manifest.standard_metric_name, manifest.standard_raw,
                                   manifest.standard_pct_over)
    assert label.dataset == DatasetInfo(manifest.sample_count, manifest.train_pct,
                                        manifest.test_pct)
    assert label.demographics == tuple(DemographicCategory(name, tuple(
        DemographicGroupRow(group, row["pct_in_test"], row["accuracy"], row["target"])
        for group, row in manifest.demographics[name].items()))
        for name in dict.fromkeys((*CANONICAL_CATEGORY_ORDER, *manifest.demographics)))


def generated_bytes(doc: dict, lines: list[str]) -> bytes | str:
    """What `generate` writes for this manifest and CSV: the label bytes, or the error code."""
    try:
        manifest = parse_label_manifest(json.dumps(doc))
        dataset = parse_predictions(io.StringIO("\n".join(lines) + "\n"), manifest)
        return to_canonical_json(generate_label(dataset, manifest))
    except ModelFactsError as exc:
        return exc.code


@PROPERTY_SETTINGS
@given(data=st.data(), setup=st.sampled_from([  # model type, optimized metric, standard metric
    ("imbalanced_classification", "AUC", None),
    ("imbalanced_classification", "F1", "AUC"),
    ("balanced_classification", "Accuracy", "AUC"),
]), n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_shuffled_rows_give_the_same_classification_label(data, setup, n, seed):
    # Regression sums still follow row order (math.fsum would remove that), so R2 is left out.
    model_type, optimized, standard = setup
    doc = {"schema_version": "1.0", "application": "Scores intake cases",
           "model_type": model_type, "model_train_date": "2020", "test_data_range": "2021",
           "positive_class": "1", "warnings": [],
           "optimized_metric": {"name": optimized, "baseline_policy": "majority-class"}}
    if standard:
        doc["standard_metric"] = {"name": standard}
    labels = st.sampled_from(["0", "1", "2"])
    scores = st.sampled_from(["0", "0.25", "0.5", "1"]) | st.floats(-2, 2).map(repr)
    rows = [f"r{i},{data.draw(labels)},{data.draw(labels)},{data.draw(scores)},"
            f"{data.draw(st.sampled_from(['F', 'M', 'x', '']))},"
            f"{data.draw(st.sampled_from(['White', 'Asian', 'Martian', '']))},"
            f"{data.draw(st.integers(0, 90))}" for i in range(n)]
    shuffled = list(rows)
    random.Random(seed).shuffle(shuffled)
    header = "id,y_true,y_pred,score,gender,race,age"
    assert generated_bytes(doc, [header, *shuffled]) == generated_bytes(doc, [header, *rows])


def _spellings(names: list[str]):
    """Each name as written, in lower, upper or swapped case, or with edge spaces."""
    return st.sampled_from(names).flatmap(lambda name: st.sampled_from(
        [name, name.lower(), name.upper(), name.swapcase(), f" {name}", f"{name}\t ", ""]))


# Raw demographic cells as a CSV holds them: group names, aliases a manifest could
# name, integer years (0, 17 and 150 among them), bucket text, blanks and unknown text.
RAW_CELLS = {
    "Race": _spellings([*canonical_groups("Race"), "Latinx", "whte"]),
    "Gender": _spellings([*GENDERS, "F", "X"]),
    "Age": st.integers(0, 150).map(str) | _spellings(["0", "17", "150", "42",
                                                      *canonical_groups("Age")]),
    "Site": _spellings(["S01", "North", "s01"]),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cells=st.lists(st.fixed_dictionaries(RAW_CELLS), min_size=1, max_size=30),
       truth=st.lists(st.sampled_from(["0", "1"]), min_size=30, max_size=30),
       bad_age=st.none() | st.tuples(st.integers(0, 29),
                                     st.sampled_from(["abc", "151", "-1", "17.5", "50 +"])))
def test_a_dataset_of_records_groups_its_cells_as_a_csv_does(cells, truth, bad_age):
    # The same raw cells, read from a CSV and held by records, give the same group
    # columns and the same label, or the same error at the same cell: in about half
    # the examples one Age cell is no age.
    if bad_age is not None:
        row, text = bad_age
        cells[row % len(cells)]["Age"] = text
    manifest = parse_label_manifest(json.dumps({
        "schema_version": "1.0", "application": "Scores intake cases",
        "model_type": "balanced_classification", "model_train_date": "2020",
        "test_data_range": "2021", "positive_class": "1", "warnings": [],
        "optimized_metric": {"name": "Accuracy"}, "extra_categories": ["Site"]}))
    truth = ["1", *truth[1:]]  # the positive class appears
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["id", "y_true", "y_pred", *RAW_CELLS])
    writer.writerows([f"r{i}", t, "1", *map(row.get, RAW_CELLS)]
                     for i, (t, row) in enumerate(zip(truth, cells)))
    records = [PredictionRecord(f"r{i}", t, "1", attributes=row)
               for i, (t, row) in enumerate(zip(truth, cells))]

    def outcome(build):
        try:
            dataset = build()
        except ModelFactsError as exc:
            return str(exc)
        return dataset.groups, to_canonical_json(generate_label(dataset, manifest))
    assert outcome(lambda: PredictionDataset(records, "1", tuple(RAW_CELLS))) == outcome(
        lambda: parse_predictions(io.StringIO(text.getvalue()), manifest))


# The reference predictions parser: one plain loop over the rows, which states
# every rule of a data row.  The block reader in parse_predictions must give the
# same dataset, or the same error at the same cell.
def row_loop_dataset(text: str, manifest) -> PredictionDataset:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except csv.Error as exc:
        raise BadValueError(0, "(row)", f"unreadable CSV row: {exc}") from None
    names = [h.strip() for h in header]
    lowered = [n.lower() for n in names]
    id_idx, truth_idx, pred_idx = (lowered.index(c) for c in ("id", "y_true", "y_pred"))
    score_idx = lowered.index("score") if "score" in lowered else None
    known = {c.lower().replace("_", " "): c for c in manifest.known_categories()}
    category_cols = [(idx, known[name]) for idx, name in enumerate(lowered)
                     if idx not in (id_idx, truth_idx, pred_idx, score_idx) and name in known]
    classification = manifest.model_type.is_classification
    width = len(names)
    ids, truth, prediction = [], [], []
    standard = metric_spec(manifest.standard_metric_name)
    keeps_score = (metric_spec(manifest.optimized_name).needs_score
                   or standard is not None and standard.needs_score)
    score = [] if score_idx is not None and keeps_score else None
    group_cols = [(idx, names[idx], category, [], {}) for idx, category in category_cols]
    seen_ids = set()
    row_no = 0
    try:
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
            truth.append(truth_text if classification
                         else _parse_number(truth_text, row_no, "y_true"))
            pred_text = row[pred_idx].strip()
            if not pred_text:
                raise BadValueError(row_no, "y_pred", "empty value")
            prediction.append(pred_text if classification
                              else _parse_number(pred_text, row_no, "y_pred"))
            if score_idx is not None:
                value = _parse_number(row[score_idx].strip(), row_no, "score")
                if score is not None:
                    score.append(value)
            for idx, column, category, values, memo in group_cols:
                raw = row[idx]
                if raw not in memo:
                    memo[raw] = _group_value(category, raw, manifest.aliases, row_no, column)
                values.append(memo[raw])
    except csv.Error as exc:
        raise BadValueError(row_no + 1, "(row)", f"unreadable CSV row: {exc}") from None
    if not ids:
        raise EmptyFileError("predictions file has no data rows")
    positive = manifest.positive_class
    if classification and positive not in truth and positive not in prediction:
        raise SchemaError("positive_class", f"{positive!r} appears in neither y_true nor y_pred")
    present = {cat for _, cat in category_cols}
    schema = [c for c in CANONICAL_CATEGORY_ORDER if c in present]
    schema += [cat for _, cat in category_cols if cat not in schema]
    return PredictionDataset.from_columns(
        ids, truth, prediction, score, {category: values for _, _, category, values, _ in group_cols},
        positive_class=positive if classification else None, attribute_schema=tuple(schema))


BLOCK_SETUPS = {  # optimized metric: (model type, standard metric, header, truth and prediction texts)
    "AUC": ("imbalanced_classification", None, "id,y_true,y_pred,score,race,gender,age",
            ["0", "1", " 1", "2 "]),
    "F1": ("imbalanced_classification", "F1", "id,y_true,y_pred,score,gender,age",
           ["0", "1", "1 "]),
    "R2": ("regression", None, "id,y_true,y_pred,score,age,site",
           ["0", "1.5", " -3", "2e3 ", "7"]),
}
GROUP_TEXTS = {"race": ["White", "white", " Black", "Martian", ""],
               "gender": ["F", "M", "f ", "Female", "x", ""],
               "age": ["0", "17", " 42", "150", "18-24", "50+ ", ""],
               "site": ["S01", "S02 ", "s01", ""]}
OVERSIZED_FIELD = "x" * 131_073
FAULTS = ["none", "short row", "long row", "blank id", "duplicate id", "blank value",
          "non-numeric value", "nan", "inf", "bad age", "implausible age", "oversized field"]


def block_case(metric: str, n: int, faults: list[tuple[str, int]], seed: int) -> tuple[dict, str]:
    """A manifest and a CSV of n rows, with each fault planted in its data row (1-based).
    In a row, a fault that changes the row's length is planted after those that change a cell."""
    model_type, standard, header, values = BLOCK_SETUPS[metric]
    doc = {"schema_version": "1.0", "application": "Scores intake cases",
           "model_type": model_type, "model_train_date": "2020", "test_data_range": "2021",
           "optimized_metric": {"name": metric}, "warnings": [], "extra_categories": ["Site"],
           "aliases": {"Gender": {"F": "Female", "M": "Male"}}}
    if model_type != "regression":
        doc["positive_class"] = "1"
    if standard:
        doc["standard_metric"] = {"name": standard}
    rng = random.Random(seed)
    columns = header.split(",")
    rows = [[f"r{i}", rng.choice(values), rng.choice(values), rng.choice(["0.25", " 1", "-2e-3"]),
             *(rng.choice(GROUP_TEXTS[name]) for name in columns[4:])] for i in range(1, n + 1)]
    for fault, at in sorted(faults, key=lambda f: f[0] in ("short row", "long row")):
        plant(rows[at - 1], fault, at, columns, rng)
    return doc, "\n".join([header, *map(",".join, rows)]) + "\n"


def plant(row: list[str], fault: str, at: int, columns: list[str], rng: random.Random) -> None:
    """Put one fault into data row `at`."""
    pick = rng.choice
    if fault == "short row":
        del row[rng.randrange(1, max(2, len(row))):]
    elif fault == "long row":
        row.append("extra")
    elif fault == "blank id":
        row[0] = pick(["", "  "])
    elif fault == "duplicate id":
        row[0] = f" r{rng.randrange(1, at)}" if at > 1 else row[0]
    elif fault == "blank value":
        row[pick([1, 2, 3])] = pick(["", " "])
    elif fault in ("non-numeric value", "nan", "inf"):
        row[pick([1, 2, 3])] = {"non-numeric value": pick(["abc", "1,5", "0x1"]),
                                "nan": pick(["nan", "NaN"]), "inf": pick(["inf", "-Infinity"])}[fault]
    elif fault in ("bad age", "implausible age"):
        row[columns.index("age")] = (pick(["abc", "12.5", "17-"]) if fault == "bad age"
                                     else pick(["151", "200", "-1"]))
    elif fault == "oversized field":
        row[rng.randrange(len(row))] = OVERSIZED_FIELD


def dataset_or_error(parse, text: str, manifest) -> tuple:
    """The parsed dataset's columns, or the error's type, code, row, column and message."""
    try:
        ds = parse(text, manifest)
    except ModelFactsError as exc:
        return (type(exc), exc.code, getattr(exc, "row", None), getattr(exc, "column", None),
                str(exc))
    return (ds.ids, ds.truth, ds.prediction, ds.score, ds.groups, ds.attribute_schema,
            ds.positive_class)


@settings(max_examples=300, deadline=None)
@given(metric=st.sampled_from(sorted(BLOCK_SETUPS)),
       n=st.integers(1, 1200) | st.integers(257, 1200),  # half of the files span blocks
       faults=st.lists(st.tuples(st.sampled_from(FAULTS), st.floats(0, 1)), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(metric="AUC", n=400, faults=[("oversized field", 0.75)], seed=1)  # row 300
@example(metric="R2", n=700, faults=[("duplicate id", 1.0)], seed=2)
@example(metric="F1", n=600, faults=[("short row", 0.5)], seed=3)
@example(metric="R2", n=300, faults=[("implausible age", 0.5), ("nan", 0.5)],
         seed=2)  # row 150: its score is named, not its later age
@example(metric="R2", n=400, faults=[("bad age", 0.25), ("blank id", 0.5)],
         seed=4)  # one block: row 100's age is named, not row 200's earlier column
def test_the_block_reader_matches_the_row_loop(metric, n, faults, seed):
    doc, text = block_case(metric, n, [(fault, max(1, round(at * n))) for fault, at in faults], seed)
    manifest = parse_label_manifest(json.dumps(doc))
    expected = dataset_or_error(row_loop_dataset, text, manifest)
    actual = dataset_or_error(lambda text, m: parse_predictions(io.StringIO(text), m), text, manifest)
    assert actual == expected


@pytest.mark.parametrize("space", WHITESPACE)
def test_text_layout_wraps_edge_and_inner_whitespace_as_textwrap(space):
    for text in (space + "ab cd", "ab cd" + space, "ab" + space + "cd", space, space * 2):
        for width in (1, 3, 5, 6, 80):
            assert _chunks(text, width) == (textwrap.wrap(
                text, width, break_long_words=True, break_on_hyphens=False) or [""]), (text, width)


@settings(max_examples=400, deadline=None)
@given(text=st.lists(st.sampled_from([*WHITESPACE, "-", "a", "Z", "é", "ß", "漢", "-x-"])
                     | st.text("abcé漢-", min_size=1, max_size=90), max_size=12).map("".join),
       width=st.integers(1, 80))
@example(text="", width=1)
def test_text_layout_splits_a_cell_as_textwrap_does(text, width):
    assert _chunks(text, width) == (textwrap.wrap(
        text, width, break_long_words=True, break_on_hyphens=False) or [""])


# Cell, name and warning text that wraps: long runs, and whitespace of every kind.
layout_text = st.lists(st.sampled_from([*WHITESPACE, "-", "a", "é", "漢"])
                       | st.text("abcé漢-", min_size=1, max_size=70), max_size=8).map("".join)
layout_metrics = st.builds(MetricValue, layout_text, cells(numbers), cells(numbers))
layout_labels = st.builds(
    ModelFactsLabel,
    application=st.builds(ApplicationInfo, layout_text.filter(str.strip),
                          st.sampled_from(ModelType), partial_dates(), date_ranges()),
    accuracy=st.builds(AccuracySection, layout_metrics, layout_metrics),
    dataset=st.builds(DatasetInfo, cells(st.integers(0, 10**15)), cells(numbers), cells(numbers)),
    demographics=st.lists(st.builds(
        DemographicCategory, layout_text,
        st.lists(st.builds(DemographicGroupRow, layout_text, cells(numbers), cells(numbers),
                           targets), max_size=4)), max_size=4),
    warnings=st.lists(layout_text, max_size=4),
)
# A category name is wrapped at the page width like any other text: a newline in one
# is a space, and one longer than the page takes more lines.
LONG_NAMES = make_label(
    demographics=(DemographicCategory("Race\nor ethnicity", ()),
                  DemographicCategory("a category name wider than any page " * 4, ()),
                  DemographicCategory(" Age\t", (DemographicGroupRow.all_not_collected(
                      "a group name far too long for the first column " * 2),))),
    warnings=("a\nwarning with  inner\x0bwhitespace " * 5, ""))


# Table cells at the edge of one line at widths 48 and 64, where the label column is 12
# and 16 wide and the numeric columns 11 and 15: cells at each width and one over it,
# edge spaces, a tab, a vertical tab, and a str subclass.
EDGE_ROWS = make_label(
    optimized=MetricValue("n" * 11, Provenance.reported(1e6), Provenance.reported(1e7)),
    standard=MetricValue("m" * 15, Provenance.reported(1e10), Provenance.reported(1e11)),
    dataset=DatasetInfo(Provenance.reported(10**9), Provenance.reported(1e8),
                        Provenance.reported(30.0)),
    demographics=(DemographicCategory("Race", tuple(map(_row, [
        "g" * 12, "g" * 13, "g" * 16, "g" * 17, " edge", "edge ", "a\tb", "a\x0bb",
        _Text("a subclass")]))),))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(label=layout_labels, width=st.integers(48, 120))
@example(label=LONG_NAMES, width=48)
@example(label=LONG_NAMES, width=120)
@example(label=EDGE_ROWS, width=48)
@example(label=EDGE_ROWS, width=64)
def test_the_page_line_count_is_the_line_count_of_the_drawn_page(label, width):
    budget = RenderBudget(width=width)
    page = render_text(label, budget)
    assert text_line_count(label, budget) == page.count("\n")
    assert max(map(len, page.split("\n"))) <= width


@st.composite
def edge_cells(draw, width: int, fits: bool) -> str:
    """Cell text at the edge of one line of a column width wide: a column short of it or
    at it, plain or in a str subclass; unless it fits, also one column over it, or with an
    edge space, a tab or a vertical tab."""
    size = draw(st.sampled_from([width - 1, width] if fits else [width - 1, width, width + 1]))
    text = draw(st.text("ab é-漢", min_size=size, max_size=size))
    if fits:  # inner spaces only
        text = f"a{text[1:-1]}b"
    form = draw(st.sampled_from(["plain", "subclass"] if fits else
                                ["plain", "subclass", "edge space", "\t", "\x0b"]))
    if form == "subclass":
        return _Text(text)
    if form == "edge space":
        return draw(st.sampled_from([" " + text[1:], text[:-1] + " "]))
    if form in ("\t", "\x0b"):
        at = draw(st.integers(0, size - 1))
        return text[:at] + form + text[at + 1:]
    return text


@st.composite
def edge_row_labels(draw) -> tuple[ModelFactsLabel, int]:
    """A page width and a label whose table cells sit at the edge of one line at it, in
    half the labels every cell fitting its column.  A number n columns wide is a power of
    ten, exact as a float up to 10**22: 10**(n - 5) for a score ("1000.000") and
    10**(n - 4) for a percentage ("1000.0%")."""
    width, fits = draw(st.integers(48, 100)), draw(st.booleans())
    numeric = (width - 3) // 4  # the text layout's numeric and label column widths
    first = width - 3 - 3 * numeric
    sizes = [numeric - 1, numeric] if fits else [numeric - 1, numeric, numeric + 1]
    size = lambda: draw(st.sampled_from(sizes))  # noqa: E731
    score = lambda: Provenance.reported(float(10 ** (size() - 5)))  # noqa: E731
    pct = lambda: Provenance.reported(float(10 ** (size() - 4)))  # noqa: E731
    metric = lambda: MetricValue(draw(edge_cells(numeric, fits)), score(), pct())  # noqa: E731
    rows = [DemographicGroupRow(draw(edge_cells(first, fits)), pct(), score(),
                                Provenance.reported(PctTarget(pct().value)))
            for _ in range(draw(st.integers(1, 4)))]
    counts = [10**8, 10**9] if fits else [10**8, 10**9, 10**10]  # 11, 13 and 14 columns
    count = Provenance.reported(draw(st.sampled_from(counts)))
    split = (Provenance.reported(70.0), Provenance.reported(30.0)) if fits else (pct(), pct())
    return make_label(optimized=metric(), standard=metric(),
                      dataset=DatasetInfo(count, *split),
                      demographics=(DemographicCategory("Race", tuple(rows)),)), width


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=edge_row_labels())
def test_a_row_at_the_edge_of_one_line_is_drawn_and_counted_as_textwrap_lays_it_out(case):
    label, width = case
    budget = RenderBudget(width=width)
    page = render_text(label, budget)
    with mock.patch.object(render, "_fits", lambda text, width: False):  # every cell wraps
        wrapped = render_text(label, budget)
    assert page == wrapped
    assert text_line_count(label, budget) == page.count("\n")
