"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import GOLDEN_DIR, canonical_category, make_label, random_label, read_golden
from modelfacts.cli import main
from modelfacts.codec import from_canonical_json, to_canonical_json
from modelfacts.errors import SchemaError
from modelfacts.label import (
    DatasetInfo,
    DemographicCategory,
    DemographicGroupRow,
    MetricValue,
    ModelType,
    PctTarget,
    Provenance,
    ViolationCode,
    validate_label,
)
from modelfacts.metrics import (
    Direction,
    PredictionDataset,
    PredictionRecord,
    auc,
    group_breakdown,
    make_scorer,
    percent_over_baseline,
    precision_recall_f1,
    standard_accuracy,
)
from modelfacts.report import ReferencePopulation, representation_audit


def _declare_and_render(tmp_path: Path, manifest: str, capsys) -> tuple[bytes, bytes, float]:
    out = tmp_path / "out.label.json"
    started = time.monotonic()
    assert main(["declare", "--manifest", str(GOLDEN_DIR / manifest), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["render", str(out), "--format", "text"]) == 0
    elapsed = time.monotonic() - started
    rendered = capsys.readouterr().out.encode()
    return out.read_bytes(), rendered, elapsed


def test_criterion_1_void_golden_reproduction(tmp_path, capsys):
    label_bytes, rendered, elapsed = _declare_and_render(tmp_path, "void.manifest.json", capsys)
    assert label_bytes == read_golden("void.label.json")
    assert rendered == read_golden("void.label.txt")

    text = rendered.decode()
    assert "Identify people at very high risk of near-term" in text
    assert "Imbalanced Classification" in text
    assert "Model Train Date: 2012" in text
    assert "Test Data Date:   2013" in text
    for token in ("AUC", "10.0%", "0.939", "237,232"):
        assert token in text
    assert "[not collected] / 100.0%" in text

    label = from_canonical_json(label_bytes)
    assert label.accuracy.standard.name == "F1"
    assert not label.accuracy.standard.raw_score.is_reported
    demographic_rows = [row for cat in label.demographics for row in cat.rows]
    assert len(demographic_rows) == 16
    assert all(not row.pct_in_test.is_reported for row in demographic_rows)
    assert label.warnings == (
        "The probability of a high-risk individual being involved in gun violence "
        "is only around 3% when limiting to the top 1000 scores.",
        "Using prior criminal history for estimating risk may propagate any "
        "systemic policing biases.",
    )

    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: VOID golden byte-identical ({elapsed:.3f}s)")


def test_criterion_2_suicide_risk_golden_reproduction(tmp_path, capsys):
    label_bytes, rendered, elapsed = _declare_and_render(
        tmp_path, "suicide_risk.manifest.json", capsys)
    assert label_bytes == read_golden("suicide_risk.label.json")
    assert rendered == read_golden("suicide_risk.label.txt")

    text = rendered.decode()
    for token in ("0.800", "0.067", "4,976,391", "70.0% / 30.0%",
                  "1996-01-01 to 2015-10-06"):
        assert token in text

    label = from_canonical_json(label_bytes)
    assert not label.accuracy.optimized.pct_over_baseline.is_reported  # baseline undefined
    gender = label.category("Gender")
    states = {row.group_name: row.pct_in_test.state.value for row in gender.rows}
    assert states["Female"] == "available_unreported"
    assert states["Trans Female"] == "unknown_availability"
    assert states["Nonbinary"] == "unknown_availability"
    race_states = {row.pct_in_test.state.value for row in label.category("Race").rows}
    age_states = {row.pct_in_test.state.value for row in label.category("Age").rows}
    assert race_states == age_states == {"available_unreported"}
    assert label.warnings == (
        "The suicide risk of people who commit suicide more than a year after "
        "purchasing a firearm is not modeled.",
        "Attempted suicide risk also is not modeled.",
    )

    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: suicide-risk golden byte-identical ({elapsed:.3f}s)")


def test_criterion_3_auc_oracle_equivalence():
    rng = random.Random(2029)
    started = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(2, 200)
        truth = [rng.randint(0, 1) for _ in range(n)]
        truth[0], truth[-1] = 1, 0  # both classes present
        if rng.random() < 0.5:
            pool = [rng.random() for _ in range(rng.randint(1, 8))]  # heavy ties
            scores = [rng.choice(pool) for _ in range(n)]
        else:
            scores = [round(rng.random(), rng.randint(1, 6)) for _ in range(n)]

        computed = auc(scores, truth, 1)

        arr = np.asarray(scores, dtype=float)
        mask = np.asarray(truth) == 1
        pos, neg = arr[mask], arr[~mask]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))

        worst = max(worst, abs(computed - oracle))
    elapsed = time.monotonic() - started
    assert worst <= 1e-9
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 PASS: rank AUC vs pair counting, max |diff| {worst:.2e} "
          f"over 1000 datasets ({elapsed:.2f}s)")


def test_criterion_4_confusion_matrix_oracle():
    rng = random.Random(4099)
    for _ in range(1000):
        n = rng.randint(1, 200)
        truth = [rng.randint(0, 1) for _ in range(n)]
        predicted = [rng.randint(0, 1) for _ in range(n)]

        tp = fp = fn = 0  # independent recount
        for t, p in zip(truth, predicted):
            if p == 1 and t == 1:
                tp += 1
            elif p == 1:
                fp += 1
            elif t == 1:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0

        assert precision_recall_f1(truth, predicted, 1) == (precision, recall, f1)
    print("\nACCEPTANCE 4 PASS: precision/recall/F1 match brute-force recount on 1000 datasets")


def test_criterion_5_weighted_accuracy_identity():
    rng = random.Random(5077)
    for _ in range(500):
        n = rng.randint(1, 150)
        n_groups = rng.randint(1, 6)
        groups = [f"Group {chr(65 + g)}" for g in range(n_groups)]
        records = tuple(
            PredictionRecord(str(i), str(rng.randint(0, 1)), str(rng.randint(0, 1)),
                             attributes={"Cohort": rng.choice(groups)})
            for i in range(n)
        )
        if all("1" not in (r.truth, r.prediction) for r in records):
            with pytest.raises(SchemaError):  # as a CSV without its positive class is
                PredictionDataset(records, "1", ("Cohort",))
            continue
        dataset = PredictionDataset(records, "1", ("Cohort",))
        rows = group_breakdown(dataset, "Cohort", make_scorer("Accuracy"))

        weighted = sum((row.pct_in_test.value / 100.0) * row.group_accuracy.value
                       for row in rows if row.pct_in_test.is_reported)
        overall = standard_accuracy([r.truth for r in records], [r.prediction for r in records])
        assert abs(weighted - overall) <= 1e-9

        share = sum(row.pct_in_test.value for row in rows if row.pct_in_test.is_reported)
        assert abs(share - 100.0) <= 1e-6
    print("\nACCEPTANCE 5 PASS: weighted group accuracy equals overall accuracy on 500 datasets")


def test_criterion_6_percent_over_baseline():
    baseline = 0.939 / 1.10  # back-solved so that 0.939 sits 10% above it
    assert percent_over_baseline(0.939, baseline, Direction.MAXIMIZE) == pytest.approx(10.0, abs=0.05)
    assert percent_over_baseline(0.6, 0.6, Direction.MAXIMIZE) == 0.0
    assert percent_over_baseline(0.6, 0.6, Direction.MINIMIZE) == 0.0
    assert percent_over_baseline(0.8, 1.0, Direction.MINIMIZE) == pytest.approx(20.0)
    assert percent_over_baseline(1.2, 1.0, Direction.MINIMIZE) == pytest.approx(-20.0)
    print("\nACCEPTANCE 6 PASS: percent over baseline forward/zero/minimize cases hold")


def test_criterion_7_serialization_round_trip():
    rng = random.Random(7013)
    for _ in range(500):
        label = random_label(rng)
        data = to_canonical_json(label)
        assert to_canonical_json(label) == data  # double serialization byte-stable
        revived = from_canonical_json(data)
        assert revived == label
        assert to_canonical_json(revived) == data
    print("\nACCEPTANCE 7 PASS: 500 labels round-trip with byte-stable serialization")


def _seeded_violations() -> dict[ViolationCode, object]:
    overflow = make_label(demographics=make_label().demographics + tuple(
        DemographicCategory(f"Extra {i}", (DemographicGroupRow.all_not_collected("Group"),))
        for i in range(40)
    ))
    return {
        ViolationCode.APPLICATION_TOO_LONG: make_label(
            application="Predicts risk. Also ranks people."),
        ViolationCode.PAGE_OVERFLOW: overflow,
        ViolationCode.NON_NORMALIZED_METRIC: make_label(
            optimized=MetricValue("CrossEntropy", Provenance.reported(2.31),
                                  Provenance.not_collected())),
        ViolationCode.MISSING_CANONICAL_CATEGORY: make_label(
            demographics=(canonical_category("Race"), canonical_category("Gender"))),
        ViolationCode.STANDARD_METRIC_MISMATCH: make_label(
            model_type=ModelType.IMBALANCED_CLASSIFICATION,
            standard=MetricValue("Accuracy", Provenance.reported(0.9),
                                 Provenance.not_collected())),
        ViolationCode.SPLIT_INCONSISTENT: make_label(
            dataset=DatasetInfo(Provenance.reported(100), Provenance.reported(80.0),
                                Provenance.reported(30.0))),
        ViolationCode.VALUE_OUT_OF_RANGE: make_label(
            optimized=MetricValue("AUC", Provenance.reported(1.2), Provenance.reported(5.0))),
    }


def test_criterion_8_validator_seeded_suite(tmp_path, capsys):
    seeded = _seeded_violations()
    assert set(seeded) == set(ViolationCode)  # every code is exercised
    for code, label in seeded.items():
        found = {v.code for v in validate_label(label)}
        assert code in found, f"{code} not detected"
        path = tmp_path / f"{code.value.lower()}.label.json"
        path.write_bytes(to_canonical_json(label))
        assert main(["validate", str(path)]) == 1
        assert code.value in capsys.readouterr().out
    for name in ("void.label.json", "suicide_risk.label.json"):
        label = from_canonical_json(read_golden(name))
        assert validate_label(label) == []
        assert main(["validate", str(GOLDEN_DIR / name)]) == 0
        capsys.readouterr()
    print("\nACCEPTANCE 8 PASS: all 7 seeded violation codes detected, goldens clean")


def test_criterion_9_render_constraints():
    for name in ("void.label.txt", "suicide_risk.label.txt"):
        lines = read_golden(name).decode().splitlines()
        assert len(lines) <= 80, f"{name} exceeds 80 lines"
        assert all(len(line) <= 64 for line in lines), f"{name} exceeds 64 columns"
    rng = random.Random(9013)
    from modelfacts.render import render_text

    for _ in range(500):
        text = render_text(random_label(rng))
        assert all(len(line) <= 64 for line in text.splitlines())
    print("\nACCEPTANCE 9 PASS: goldens fit 80x64; 500 random labels hold the width bound")


def test_criterion_10_audit_behavior():
    reference = ReferencePopulation(name="urban-benchmark", distributions={
        "Race": {"Asian": 10.0, "Hispanic": 20.0, "Black": 25.0, "White": 40.0, "Other": 5.0},
        "Gender": {"Female": 50.0, "Male": 48.0, "Trans Female": 0.6, "Trans Male": 0.6,
                   "Nonbinary": 0.5, "Other": 0.3},
    })

    void = from_canonical_json(read_golden("void.label.json"))
    report = representation_audit(void, reference)
    assert report.flagged == ()
    assert report.entries and all(e.gap_pp is None for e in report.entries)
    assert any("potential for unreported biases" in note for note in report.notes)

    rows = []
    shares = {"Female": 60.0, "Male": 38.5, "Trans Female": 0.6, "Trans Male": 0.4,
              "Nonbinary": 0.3, "Other": 0.2}
    for group, share in shares.items():
        rows.append(DemographicGroupRow(group, Provenance.reported(share),
                                        Provenance.reported(0.7),
                                        Provenance.reported(PctTarget(10.0))))
    synthetic = make_label(demographics=(
        canonical_category("Race"),
        DemographicCategory("Gender", tuple(rows)),
        canonical_category("Age"),
    ))
    report = representation_audit(synthetic, reference)  # default 5.0 pp threshold
    female = next(e for e in report.entries if e.group == "Female")
    assert female.gap_pp == pytest.approx(10.0)
    assert female.flagged
    print("\nACCEPTANCE 10 PASS: unreported labels unauditable; +10pp gap flagged at 5pp")
