"""Independent expected values for every label the benchmark produces.

The dataset oracles re-read the generated CSV and recount everything with
numpy: AUC by average ranks, F1 from confusion counts, R2 and per-group
mean/std, and per-group shares.  They map raw demographic values through the
generator's own tables, never through the package's normaliser.  Each check
returns a list of human-readable mismatches; an empty list means the label is
right.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Any

import numpy as np

import gen

TOLERANCE = 1e-9


def _nc() -> dict:
    return {"state": "not_collected"}


def _rep(value: Any) -> dict:
    return {"state": "reported", "value": value}


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean rank of their run."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts_mask = np.r_[True, ordered[1:] != ordered[:-1]]
    run = np.cumsum(starts_mask) - 1
    starts = np.flatnonzero(starts_mask)
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = ((starts + ends + 1) / 2.0)[run]
    return ranks


def auc(scores: np.ndarray, positive: np.ndarray) -> float | None:
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    rank_sum = float(average_ranks(scores)[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def f1(truth: np.ndarray, pred: np.ndarray) -> float:
    tp = int((truth & pred).sum())
    fp = int((~truth & pred).sum())
    fn = int((truth & ~pred).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def r2(truth: np.ndarray, pred: np.ndarray) -> float | None:
    ss_tot = float(((truth - truth.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return None
    return 1.0 - float(((truth - pred) ** 2).sum()) / ss_tot


def _read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        columns = list(zip(*reader))
    return {name: list(col) for name, col in zip(header, columns)}


def _age_groups(cells: list[str]) -> list[str | None]:
    return [None if not c else ("50+" if c == "50+" else gen.age_bucket(int(c))) for c in cells]


def _group_rows(groups: list[str | None], order: list[str], n: int, score_fn, target_fn) -> list[dict]:
    """Expected rows of one category.  Blank cells count under "Other", which
    follows the canonical rows, with other extra groups, where it is not one."""
    keys = np.array([g if g is not None else "Other" for g in groups])
    rows = []
    for name in order + sorted(set(keys.tolist()) - set(order)):
        members = keys == name
        n_g = int(members.sum())
        if n_g == 0:
            rows.append({"group_name": name, "pct_in_test": _nc(), "group_accuracy": _nc(),
                         "target_stat": _nc()})
            continue
        score = score_fn(members)
        rows.append({
            "group_name": name,
            "pct_in_test": _rep(100.0 * n_g / n),
            "group_accuracy": _rep(score) if score is not None else {"state": "unknown_availability"},
            "target_stat": _rep(target_fn(members)),
        })
    return rows


def _application(manifest: dict) -> dict:
    rng = manifest["test_data_range"]
    start, end = (rng, rng) if isinstance(rng, str) else (rng["start"], rng["end"])
    return {"application": manifest["application"], "model_type": manifest["model_type"],
            "model_train_date": manifest["model_train_date"],
            "test_data_range": {"start": start, "end": end}}


def expected_auc_label(data: Path, manifest: dict) -> dict:
    cols = _read_columns(data)
    truth = np.array(cols["y_true"]) == gen.POSITIVE
    pred = np.array(cols["y_pred"]) == gen.POSITIVE
    scores = np.array([float(s) for s in cols["score"]])
    n = len(truth)
    raw = auc(scores, truth)
    race_map = {raw_v: g for raw_v, _, g in gen.RACE_VALUES}
    gender_map = {raw_v: g for raw_v, _, g in gen.GENDER_VALUES}

    def score_fn(members):
        return auc(scores[members], truth[members])

    def target_fn(members):
        return {"pct_target": 100.0 * int(truth[members].sum()) / int(members.sum())}

    demographics = []
    for cat, groups in (("Race", [race_map[v] for v in cols["race"]]),
                        ("Gender", [gender_map[v] for v in cols["gender"]]),
                        ("Age", _age_groups(cols["age"]))):
        demographics.append({"category_name": cat, "rows": _group_rows(
            groups, list(gen.CANONICAL[cat]), n, score_fn, target_fn)})
    return {
        "schema_version": "1.0",
        "application": _application(manifest),
        "accuracy": {
            # The majority-class model gives every record the same score: AUC 0.5.
            "optimized": {"name": "AUC", "raw_score": _rep(raw),
                          "pct_over_baseline": _rep(100.0 * (raw - 0.5) / 0.5)},
            # Its F1 is 0, so percent-over-baseline is undefined and left not collected.
            "standard": {"name": "F1", "raw_score": _rep(f1(truth, pred)),
                         "pct_over_baseline": _nc()},
        },
        "dataset": {"sample_count": _rep(n), "train_pct": _rep(70.0), "test_pct": _rep(30.0)},
        "demographics": demographics,
        "warnings": manifest["warnings"],
    }


def expected_r2_label(data: Path, manifest: dict) -> dict:
    cols = _read_columns(data)
    truth = np.array([float(v) for v in cols["y_true"]])
    pred = np.array([float(v) for v in cols["y_pred"]])
    n = len(truth)
    raw = r2(truth, pred)

    def score_fn(members):
        return r2(truth[members], pred[members])

    def target_fn(members):
        return {"mean": float(truth[members].mean()), "std": float(truth[members].std())}

    def declared(cat, state):
        return {"category_name": cat, "rows": [
            {"group_name": g, "pct_in_test": {"state": state}, "group_accuracy": {"state": state},
             "target_stat": {"state": state}} for g in gen.CANONICAL[cat]]}

    sites = [c if c else None for c in cols["site"]]
    site_order = sorted({s if s is not None else "Other" for s in sites})
    pct = 100.0 * (raw - gen.R2_BASELINE) / gen.R2_BASELINE
    return {
        "schema_version": "1.0",
        "application": _application(manifest),
        "accuracy": {
            "optimized": {"name": "R2", "raw_score": _rep(raw), "pct_over_baseline": _rep(pct)},
            "standard": {"name": "R2", "raw_score": _rep(raw), "pct_over_baseline": _nc()},
        },
        "dataset": {"sample_count": _rep(n), "train_pct": _nc(), "test_pct": _nc()},
        "demographics": [
            declared("Race", "unknown_availability"),
            declared("Gender", "available_unreported"),
            {"category_name": "Age", "rows": _group_rows(
                _age_groups(cols["age"]), list(gen.CANONICAL["Age"]), n, score_fn, target_fn)},
            {"category_name": "Site", "rows": _group_rows(sites, site_order, n, score_fn, target_fn)},
        ],
        "warnings": manifest["warnings"],
    }


def diff(actual: Any, expected: Any, path: str = "label") -> list[str]:
    """Every place `actual` departs from `expected`; numbers within TOLERANCE."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r} "
                    f"!= {sorted(expected)}"]
        return [m for k in expected for m in diff(actual[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: {actual!r} != {expected!r}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected)) for m in diff(a, e, f"{path}[{i}]")]
    if isinstance(expected, float) and not isinstance(actual, bool) and isinstance(actual, (int, float)):
        if math.isclose(actual, expected, rel_tol=TOLERANCE, abs_tol=TOLERANCE):
            return []
    elif type(actual) is type(expected) and actual == expected:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


# ---------------------------------------------------------------------------
# label_docs oracles, from the generator's ground truth.

def check_declared_label(doc: dict, entry: gen.CorpusEntry) -> list[str]:
    """The declared cells the generator chose must appear in the label unchanged."""
    out = []
    opt = doc["accuracy"]["optimized"]
    if entry.optimized_raw is None:
        if opt["raw_score"]["state"] == "reported":
            out.append(f"{entry.name}: optimized raw reported, expected a gap")
    else:
        out += diff(opt["raw_score"], _rep(entry.optimized_raw), f"{entry.name}.optimized.raw")
    if entry.optimized_pct is not None:
        out += diff(opt["pct_over_baseline"], _rep(entry.optimized_pct), f"{entry.name}.optimized.pct")
    if entry.sample_count is not None:
        out += diff(doc["dataset"]["sample_count"], _rep(entry.sample_count), f"{entry.name}.count")
    for cat in doc["demographics"]:
        shares = entry.shares.get(cat["category_name"], {})
        for row in cat["rows"]:
            if row["group_name"] in shares:
                out += diff(row["pct_in_test"], _rep(shares[row["group_name"]]),
                            f"{entry.name}.{cat['category_name']}.{row['group_name']}")
    return out


def expected_flags(entry: gen.CorpusEntry, threshold_pp: float = 5.0) -> int:
    """Groups whose reported share is more than `threshold_pp` from the reference."""
    ref = gen.REFERENCE_POPULATION["categories"]
    return sum(1 for cat, shares in entry.shares.items() for group, pct in shares.items()
               if abs(pct - ref[cat][group]) > threshold_pp)


def expected_ranking(entries: list[gen.CorpusEntry]) -> list[str]:
    """Reported scores first, best first, ties by name.  Mixed directions rank
    as if maximised; only an all-minimised corpus ranks ascending."""
    ascending = all(e.minimized for e in entries)

    def key(e: gen.CorpusEntry):
        if e.optimized_raw is None:
            return (1, 0.0, e.name)
        return (0, e.optimized_raw if ascending else -e.optimized_raw, e.name)

    return [e.name for e in sorted(entries, key=key)]
