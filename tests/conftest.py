"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import random
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import settings

from modelfacts.label import (
    CANONICAL_CATEGORIES,
    CANONICAL_CATEGORY_ORDER,
    LABEL_CELLS,
    ROW_CELLS,
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
)

GOLDEN_DIR = Path(__file__).parent / "golden"

# Whitespace of each kind textwrap treats apart: the space; its own whitespace,
# which it expands or turns into spaces; and other Unicode whitespace, which it
# keeps inside a word but drops as a whitespace-only last chunk.  str.strip
# removes every one; float refuses "\x1c" and "\x1f" around a number.
WHITESPACE = " \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u1680\u2003\u2028\u2029\u202f\u3000"

# A deeper run for CI: `pytest --hypothesis-profile=deep` gives 2,000 examples to each
# property whose example count follows the profile.
settings.register_profile("deep", max_examples=2000)


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


def read_golden(name: str) -> bytes:
    return (GOLDEN_DIR / name).read_bytes()


def canonical_category(name: str, state=Provenance.not_collected) -> DemographicCategory:
    rows = tuple(
        DemographicGroupRow(group, state(), state(), state())
        for group in CANONICAL_CATEGORIES[name]
    )
    return DemographicCategory(name, rows)


def make_label(
    application: str = "Estimates a risk score for routine screening",
    model_type: ModelType = ModelType.IMBALANCED_CLASSIFICATION,
    optimized: MetricValue | None = None,
    standard: MetricValue | None = None,
    dataset: DatasetInfo | None = None,
    demographics: tuple[DemographicCategory, ...] | None = None,
    warnings: tuple[str, ...] = ("Do not use outside the tested population.",),
) -> ModelFactsLabel:
    """A minimal structurally valid label; every piece can be overridden."""
    if optimized is None:
        optimized = MetricValue("AUC", Provenance.reported(0.9), Provenance.reported(12.5))
    if standard is None:
        from modelfacts.metrics import select_standard_metric

        standard = MetricValue(select_standard_metric(model_type),
                               Provenance.reported(0.5), Provenance.not_collected())
    if dataset is None:
        dataset = DatasetInfo(Provenance.reported(1000),
                              Provenance.reported(70.0), Provenance.reported(30.0))
    if demographics is None:
        demographics = tuple(canonical_category(n) for n in CANONICAL_CATEGORY_ORDER)
    return ModelFactsLabel(
        application=ApplicationInfo(
            application=application,
            model_type=model_type,
            model_train_date=PartialDate(2020),
            test_data_range=DateRange(PartialDate(2021), PartialDate(2022)),
        ),
        accuracy=AccuracySection(optimized=optimized, standard=standard),
        dataset=dataset,
        demographics=demographics,
        warnings=warnings,
    )


def provenance_cells(label: ModelFactsLabel) -> list[tuple[str, Provenance]]:
    """Every provenance cell of label with its label path, in label order, as the
    PROVENANCE_CELLS table places them: the label's own cells, then each row's."""
    cells = [(spec.label, attrgetter(spec.label)(label)) for spec in LABEL_CELLS]
    for category in label.demographics:
        for row in category.rows:
            cells += [(f"demographics.{category.category_name}.{row.group_name}.{spec.label}",
                       getattr(row, spec.label)) for spec in ROW_CELLS]
    return cells


_WORDS = ("risk", "score", "cohort", "triage", "intake", "review", "flag",
          "outcome", "visit", "case", "queue", "region", "panel")


def _random_text(rng: random.Random, n_words: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n_words))


def _random_cell(rng: random.Random, value_maker) -> Provenance:
    roll = rng.random()
    if roll < 0.55:
        return Provenance.reported(value_maker())
    if roll < 0.70:
        return Provenance.available_unreported()
    if roll < 0.85:
        return Provenance.unknown_availability()
    return Provenance.not_collected()


def random_label(rng: random.Random) -> ModelFactsLabel:
    """A randomized structurally valid label exercising all provenance states,
    reduced-precision dates, extension categories, and unicode warnings."""
    model_type = rng.choice(list(ModelType))
    classification = model_type is not ModelType.REGRESSION

    def target_value():
        if classification:
            return PctTarget(round(rng.uniform(0, 100), 4))
        return MeanStd(round(rng.uniform(-50, 50), 4), round(rng.uniform(0, 10), 4))

    def score():
        return round(rng.uniform(0, 1), 6)

    def pct():
        return round(rng.uniform(-40, 90), 4)

    def share():
        return round(rng.uniform(0, 100), 4)

    def category(name: str, groups) -> DemographicCategory:
        return DemographicCategory(name, tuple(
            DemographicGroupRow(
                group,
                _random_cell(rng, share),
                _random_cell(rng, score),
                _random_cell(rng, target_value),
            )
            for group in groups
        ))

    demographics = [category(n, CANONICAL_CATEGORIES[n]) for n in CANONICAL_CATEGORY_ORDER]
    for i in range(rng.randint(0, 2)):
        n_groups = rng.randint(1, 4)
        demographics.append(category(
            f"{_random_text(rng, 1).title()} Status {i}",
            [f"Group {chr(65 + g)}" for g in range(n_groups)],
        ))

    def partial_date() -> PartialDate:
        precision = rng.randint(0, 2)
        year = rng.randint(1990, 2024)
        if precision == 0:
            return PartialDate(year)
        if precision == 1:
            return PartialDate(year, rng.randint(1, 12))
        return PartialDate(year, rng.randint(1, 12), rng.randint(1, 28))

    d1, d2 = partial_date(), partial_date()
    if d1.sort_key() > d2.sort_key():
        d1, d2 = d2, d1

    optimized_name = rng.choice(["AUC", "F1", "Accuracy", "R2", "LogLoss"])
    warnings = tuple(
        rng.choice([
            "Not calibrated for populations outside the test range.",
            "Scores drift when upstream intake forms change — re-audit yearly.",
            "Entraínement ancien; utiliser avec précaution.",
            _random_text(rng, rng.randint(4, 30)),
        ])
        for _ in range(rng.randint(0, 3))
    )

    return ModelFactsLabel(
        application=ApplicationInfo(
            application=_random_text(rng, rng.randint(3, 20)),
            model_type=model_type,
            model_train_date=partial_date(),
            test_data_range=DateRange(d1, d2),
        ),
        accuracy=AccuracySection(
            optimized=MetricValue(optimized_name, _random_cell(rng, score), _random_cell(rng, pct)),
            standard=MetricValue(rng.choice(["Accuracy", "F1", "R2"]),
                                 _random_cell(rng, score), _random_cell(rng, pct)),
        ),
        dataset=DatasetInfo(
            _random_cell(rng, lambda: rng.randint(1, 10_000_000)),
            _random_cell(rng, lambda: round(rng.uniform(0, 70), 4)),
            _random_cell(rng, lambda: round(rng.uniform(0, 30), 4)),
        ),
        demographics=tuple(demographics),
        warnings=warnings,
    )
