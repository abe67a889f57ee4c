"""Seeded inputs for the benchmark: prediction CSVs, manifests, a label corpus.

Everything here is a pure function of ``seed`` and the requested size, so the
same seed always yields byte-identical files.  The generator also returns the
ground truth the oracles need (the canonical group each raw demographic value
stands for, the violation codes each corpus label was built to trigger), so
the checks never have to ask the program under test what the answer is.

Run it directly for one-off memory checks at other sizes::

    python3 perfbench/gen.py --kind auc --rows 1000000 --seed 7 --out .perfbench_work/1m
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

POSITIVE = "1"
NEGATIVE = "0"

# Raw demographic cell values, the share of rows that carry each, and the
# canonical group a correct ingest must map them to.  None marks a blank cell,
# which group_breakdown counts under "Other".
RACE_VALUES = [
    ("White", 0.40, "White"), ("white", 0.06, "White"), ("Black", 0.12, "Black"),
    ("BLACK", 0.02, "Black"), ("Hispanic", 0.14, "Hispanic"), ("Asian", 0.08, "Asian"),
    ("Latinx", 0.04, "Other"), ("whte", 0.02, "Other"), ("Other", 0.06, "Other"),
    ("", 0.06, None),
]
GENDER_VALUES = [
    ("F", 0.38, "Female"), ("M", 0.36, "Male"), ("f", 0.02, "Female"),
    ("Female", 0.06, "Female"), ("male", 0.06, "Male"), ("Nonbinary", 0.03, "Nonbinary"),
    ("X", 0.03, "Other"), ("", 0.06, None),
]
GENDER_ALIASES = {"F": "Female", "M": "Male"}
AGE_BLANK_SHARE = 0.04
AGE_BUCKET_TEXT_SHARE = 0.02  # cells that already hold the bucket name "50+"

CANONICAL = {
    "Race": ("Asian", "Hispanic", "Black", "White", "Other"),
    "Gender": ("Female", "Male", "Trans Female", "Trans Male", "Nonbinary", "Other"),
    "Age": ("<17", "18-24", "25-34", "35-49", "50+"),
}

N_SITES = 30
SITE_BLANK_SHARE = 0.03
R2_BASELINE = 0.25

REFERENCE_POPULATION = {
    "name": "Synthetic census",
    "categories": {
        "Race": {"Asian": 6.0, "Hispanic": 19.0, "Black": 13.0, "White": 58.0, "Other": 4.0},
        "Gender": {"Female": 50.5, "Male": 48.5, "Trans Female": 0.25, "Trans Male": 0.25,
                   "Nonbinary": 0.4, "Other": 0.1},
        "Age": {"<17": 22.0, "18-24": 9.0, "25-34": 14.0, "35-49": 19.0, "50+": 36.0},
    },
}


def age_bucket(years: int) -> str:
    if years <= 17:
        return "<17"
    if years <= 24:
        return "18-24"
    if years <= 34:
        return "25-34"
    if years <= 49:
        return "35-49"
    return "50+"


def _pick(rng: np.random.Generator, table, n: int) -> np.ndarray:
    weights = np.array([w for _, w, _ in table])
    return rng.choice(len(table), size=n, p=weights / weights.sum())


def _age_cells(rng: np.random.Generator, n: int) -> list[str]:
    years = rng.integers(10, 91, size=n)
    kind = rng.random(n)
    cells = [str(y) for y in years.tolist()]
    for i in np.flatnonzero(kind < AGE_BLANK_SHARE).tolist():
        cells[i] = ""
    text = (kind >= AGE_BLANK_SHARE) & (kind < AGE_BLANK_SHARE + AGE_BUCKET_TEXT_SHARE)
    for i in np.flatnonzero(text).tolist():
        cells[i] = "50+"
    return cells


def _write_csv(path: Path, header: list[str], columns: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines += [",".join(row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_auc_inputs(out: Path, seed: int, rows: int) -> tuple[Path, Path]:
    """Imbalanced classification: about 8% positives, AUC with a majority baseline."""
    rng = np.random.default_rng([seed, 1])
    race = _pick(rng, RACE_VALUES, rows)
    gender = _pick(rng, GENDER_VALUES, rows)
    ages = _age_cells(rng, rows)
    # Positive rate varies a little by race so group scores differ.
    rate = 0.06 + 0.01 * (race % 5)
    truth = rng.random(rows) < rate
    score = np.where(truth, rng.normal(0.62, 0.17, rows), rng.normal(0.40, 0.17, rows))
    score = np.clip(score, 0.0, 1.0)
    score_text = [f"{s:.4f}" for s in score.tolist()]  # 4 decimals: many tied scores
    pred = [POSITIVE if float(s) >= 0.58 else NEGATIVE for s in score_text]
    columns = [
        [f"r{i:07d}" for i in range(rows)],
        [POSITIVE if t else NEGATIVE for t in truth.tolist()],
        pred,
        score_text,
        [RACE_VALUES[k][0] for k in race.tolist()],
        [GENDER_VALUES[k][0] for k in gender.tolist()],
        ages,
    ]
    data = out / "auc.csv"
    _write_csv(data, ["id", "y_true", "y_pred", "score", "race", "gender", "age"], columns)
    manifest = {
        "schema_version": "1.0",
        "application": "Flags hospital admissions at high risk of readmission within 30 days",
        "model_type": "imbalanced_classification",
        "model_train_date": "2023-04",
        "test_data_range": {"start": "2021", "end": "2022-12-31"},
        "positive_class": POSITIVE,
        "optimized_metric": {"name": "AUC", "baseline_policy": "majority-class"},
        "dataset": {"train_pct": 70.0, "test_pct": 30.0},
        "aliases": {"Gender": GENDER_ALIASES},
        "warnings": ["Not validated for patients under 18.",
                     "Scores drift when coding practice changes; recalibrate yearly."],
    }
    mpath = out / "auc.manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return data, mpath


def write_r2_inputs(out: Path, seed: int, rows: int) -> tuple[Path, Path]:
    """Regression with a declared baseline, an age column and a `Site` extension category."""
    rng = np.random.default_rng([seed, 2])
    site_weights = 1.0 / np.arange(1, N_SITES + 1) ** 0.7
    site = rng.choice(N_SITES, size=rows, p=site_weights / site_weights.sum())
    site_mean = rng.uniform(30.0, 70.0, N_SITES)
    truth = site_mean[site] + rng.normal(0.0, 10.0, rows)
    pred = 0.9 * truth + 5.0 + rng.normal(0.0, 5.0, rows)
    site_cells = [f"S{k + 1:02d}" for k in site.tolist()]
    for i in np.flatnonzero(rng.random(rows) < SITE_BLANK_SHARE).tolist():
        site_cells[i] = ""
    columns = [
        [f"r{i:07d}" for i in range(rows)],
        [f"{v:.4f}" for v in truth.tolist()],
        [f"{v:.4f}" for v in pred.tolist()],
        _age_cells(rng, rows),
        site_cells,
    ]
    data = out / "r2.csv"
    _write_csv(data, ["id", "y_true", "y_pred", "age", "site"], columns)
    manifest = {
        "schema_version": "1.0",
        "application": "Estimates length of hospital stay in hours at admission",
        "model_type": "regression",
        "model_train_date": "2022",
        "test_data_range": "2023-01",
        "optimized_metric": {"name": "R2", "baseline": R2_BASELINE},
        "demographics": {"Race": {"state": "unknown_availability"},
                         "Gender": {"state": "available_unreported"}},
        "extra_categories": ["Site"],
        "warnings": ["Sites with fewer than 500 admissions are poorly calibrated."],
    }
    mpath = out / "r2.manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return data, mpath


# ---------------------------------------------------------------------------
# Label corpus for the label_docs workload.

STATES = ("available_unreported", "unknown_availability", "not_collected")
MANDATED = {"balanced_classification": "Accuracy", "imbalanced_classification": "F1",
            "regression": "R2"}
OPTIMIZED_NAMES = {"balanced_classification": ("Accuracy", "AUC"),
                   "imbalanced_classification": ("AUC", "F1"),
                   "regression": ("R2", "MSE", "MAE")}
MINIMIZED = {"MSE", "MAE"}
APPLICATIONS = [
    "Predicts hospital readmission within 30 days of discharge",
    "Estimates the risk of loan default for small business applicants",
    "Prédit la durée de séjour des patients à l'admission",
    "Schätzt das Ausfallrisiko von Pumpen in Kläranlagen",
    "Ranks job applicants for a follow-up interview, e.g. for call centre roles",
    "Forecasts weekly demand at U.S. grocery stores",
    "Screens chest radiographs for suspected pneumothorax",
    "Detects fraudulent card transactions in real time",
]
WARNINGS = [
    "Not validated for patients under 18.",
    "Ne pas utiliser pour des décisions d'embauche automatisées.",
    "Nicht für Kinder unter 12 Jahren geeignet — Überprüfung erforderlich.",
    "未在儿童中测试。",
    "Performance drops for applicants outside the U.S. and the E.U.",
    "Scores drift when coding practice changes; recalibrate yearly.",
    "Trained on data from one hospital network only.",
]
EXTENSIONS = {
    "Site": ("Zürich", "São Paulo", "Lyon", "Kraków"),
    "Region": ("North", "South", "Île-de-France", "East"),
    "Insurance": ("Public", "Private", "None"),
}
INJECTED = ("APPLICATION_TOO_LONG", "VALUE_OUT_OF_RANGE", "STANDARD_METRIC_MISMATCH",
            "SPLIT_INCONSISTENT", "NON_NORMALIZED_METRIC")


@dataclass
class CorpusEntry:
    """One declared manifest plus what its label must say."""

    name: str
    manifest: dict
    violations: tuple[str, ...]
    optimized_raw: float | None  # None when not reported
    optimized_pct: float | None
    minimized: bool
    sample_count: int | None
    shares: dict[str, dict[str, float]] = field(default_factory=dict)  # reported pct_in_test


def _partial_date(rng: np.random.Generator, year: int) -> str:
    kind = int(rng.integers(3))
    if kind == 0:
        return f"{year:04d}"
    month = int(rng.integers(1, 13))
    if kind == 1:
        return f"{year:04d}-{month:02d}"
    return f"{year:04d}-{month:02d}-{int(rng.integers(1, 29)):02d}"


def _state(rng: np.random.Generator) -> dict:
    return {"state": STATES[int(rng.integers(len(STATES)))]}


def _category(rng, groups, classification, shares_out) -> dict:
    """Declared demographic category: a uniform state, partial rows, or full rows."""
    mode = int(rng.integers(3))
    if mode == 0:
        return _state(rng)
    rows = {}
    chosen = groups if mode == 2 else [g for g in groups if rng.random() < 0.5]
    weights = rng.dirichlet(np.ones(len(groups)))
    for group, w in zip(groups, weights.tolist()):
        if group not in chosen:
            continue
        pct = round(100.0 * w, 2)
        target = ({"pct_target": round(float(rng.uniform(1, 40)), 2)} if classification
                  else {"mean": round(float(rng.uniform(10, 90)), 3),
                        "std": round(float(rng.uniform(1, 20)), 3)})
        if rng.random() < 0.15:
            rows[group] = _state(rng)
            continue
        rows[group] = {"pct_in_test": pct, "accuracy": round(float(rng.uniform(0.5, 0.99)), 3),
                       "target": target}
        shares_out[group] = pct
    spec = {"rows": rows}
    if mode == 1 or len(rows) < len(groups):
        spec["state"] = STATES[int(rng.integers(len(STATES)))]
    return spec


def make_corpus(seed: int, count: int) -> list[CorpusEntry]:
    """Declared manifests covering all four provenance states, extension
    categories, partial dates and non-ASCII text; about one in eight is built
    to trigger exactly one known validator violation."""
    rng = np.random.default_rng([seed, 3])
    entries = []
    for i in range(count):
        model_type = list(MANDATED)[int(rng.integers(3))]
        classification = model_type != "regression"
        inject = INJECTED[int(rng.integers(len(INJECTED)))] if rng.random() < 0.125 else None
        if inject == "NON_NORMALIZED_METRIC":
            model_type, classification = "regression", False
        opt_name = (("MSE", "MAE")[int(rng.integers(2))] if inject == "NON_NORMALIZED_METRIC"
                    else OPTIMIZED_NAMES[model_type][int(rng.integers(len(OPTIMIZED_NAMES[model_type])))])
        if inject == "VALUE_OUT_OF_RANGE":
            opt_name = "AUC" if classification else "R2"
        minimized = opt_name in MINIMIZED

        opt: dict = {"name": opt_name}
        raw = pct = None
        if rng.random() < 0.85 or inject in ("VALUE_OUT_OF_RANGE", "NON_NORMALIZED_METRIC"):
            if minimized:
                raw = round(float(rng.uniform(1.5, 40.0)), 2)
            else:
                raw = round(float(rng.uniform(0.55, 0.99)), 3)
            if inject == "VALUE_OUT_OF_RANGE":
                raw = round(float(rng.uniform(1.05, 1.5)), 3)
            opt["raw"] = raw
            if inject == "NON_NORMALIZED_METRIC":
                opt["pct_over_baseline"] = _state(rng)
            elif rng.random() < 0.5:
                baseline = round(raw * float(rng.uniform(1.1, 1.6)) if minimized
                                 else raw * float(rng.uniform(0.6, 0.95)), 3)
                opt["baseline"] = baseline
                pct = (100.0 * (baseline - raw) / baseline if minimized
                       else 100.0 * (raw - baseline) / baseline)
            else:
                pct = round(float(rng.uniform(-5.0, 80.0)), 1)
                opt["pct_over_baseline"] = pct
        else:
            opt["raw"] = _state(rng)
            opt["pct_over_baseline"] = _state(rng)

        standard: dict = {}
        if inject == "STANDARD_METRIC_MISMATCH":
            standard["name"] = "Accuracy" if model_type != "balanced_classification" else "F1"
        elif rng.random() < 0.3:
            standard["name"] = MANDATED[model_type]
        standard["raw"] = (round(float(rng.uniform(0.05, 0.95)), 3) if rng.random() < 0.7
                           else _state(rng))
        standard["pct_over_baseline"] = (round(float(rng.uniform(0.0, 60.0)), 1)
                                         if rng.random() < 0.4 else _state(rng))

        count_cell = int(rng.integers(500, 5_000_000)) if rng.random() < 0.8 else _state(rng)
        train = float((60, 70, 75, 80)[int(rng.integers(4))])
        dataset = {"count": count_cell,
                   "train_pct": train if rng.random() < 0.7 else _state(rng),
                   "test_pct": 100.0 - train if rng.random() < 0.7 else _state(rng)}
        if inject == "SPLIT_INCONSISTENT":
            dataset["train_pct"], dataset["test_pct"] = train, 100.0 - train + 10.0

        shares: dict[str, dict[str, float]] = {}
        demographics = {}
        for cat, groups in CANONICAL.items():
            shares[cat] = {}
            demographics[cat] = _category(rng, list(groups), classification, shares[cat])
        if rng.random() < 0.3:
            ext = list(EXTENSIONS)[int(rng.integers(len(EXTENSIONS)))]
            demographics[ext] = _category(rng, list(EXTENSIONS[ext]), classification, {})
            demographics[ext]["rows"] = demographics[ext].get("rows") or {}
            for group in EXTENSIONS[ext]:  # extension categories need every row spelled out
                demographics[ext]["rows"].setdefault(group, _state(rng))
            demographics[ext].pop("state", None)

        application = APPLICATIONS[int(rng.integers(len(APPLICATIONS)))]
        if inject == "APPLICATION_TOO_LONG":
            application += ". It is retrained every quarter."
        year = int(rng.integers(2005, 2024))
        test_start = _partial_date(rng, year - 2)
        test_range = (test_start if rng.random() < 0.3
                      else {"start": test_start, "end": _partial_date(rng, year - 1)})
        warnings = [WARNINGS[k] for k in rng.choice(len(WARNINGS), size=int(rng.integers(0, 3)),
                                                     replace=False).tolist()]
        manifest = {
            "schema_version": "1.0",
            "application": application,
            "model_type": model_type,
            "model_train_date": _partial_date(rng, year),
            "test_data_range": test_range,
            "optimized_metric": opt,
            "standard_metric": standard,
            "dataset": dataset,
            "demographics": demographics,
            "warnings": warnings,
        }
        if classification:
            manifest["positive_class"] = "yes"
        entries.append(CorpusEntry(
            name=f"L{i:05d}.json",
            manifest=manifest,
            violations=(inject,) if inject else (),
            optimized_raw=raw,
            optimized_pct=pct,
            minimized=minimized,
            sample_count=count_cell if isinstance(count_cell, int) else None,
            shares=shares,
        ))
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("auc", "r2", "docs"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rows", type=int, default=200_000,
                        help="dataset rows (auc, r2) or corpus labels (docs)")
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "auc":
        paths = write_auc_inputs(out, args.seed, args.rows)
    elif args.kind == "r2":
        paths = write_r2_inputs(out, args.seed, args.rows)
    else:
        paths = []
        for entry in make_corpus(args.seed, args.rows):
            path = out / entry.name.replace(".json", ".manifest.json")
            path.write_text(json.dumps(entry.manifest, ensure_ascii=False) + "\n", encoding="utf-8")
            paths.append(path)
    (out / "reference.json").write_text(json.dumps(REFERENCE_POPULATION, indent=2) + "\n",
                                        encoding="utf-8")
    print(f"wrote {len(paths)} input files to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
