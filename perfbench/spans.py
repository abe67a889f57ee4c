"""Spans around calls into the package's public functions.

A traced pass records one span (name, parent, start, end) per call the
benchmark makes into ``ingest``, ``assemble``, ``label`` and ``render``.  The
``metrics`` layer is only reached from inside ``generate_label``, so during a
traced pass the names ``assemble`` imports from ``metrics`` are swapped for
span-recording wrappers and restored afterwards.  The package itself is never
edited.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


def untraced(name, fn, *args):
    """The call hook of an untraced pass: no bookkeeping at all."""
    return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [pass, name, parent index, start ns, end ns]
        self.counts: dict[str, int] = {}
        self.pass_no = 0
        self._stack: list[int] = []

    def __call__(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [self.pass_no, name, parent, 0, 0]
        self.spans.append(span)
        self._stack.append(index)
        span[3] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[4] = perf_counter_ns()
            self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][1] if self._stack else None

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def metrics_layer(self):
        """Record spans at the assemble→metrics boundary for the duration."""
        import modelfacts.assemble as assemble
        from modelfacts.errors import ModelFactsError

        saved = {name: getattr(assemble, name)
                 for name in ("make_scorer", "majority_class_baseline", "group_breakdown")}
        made = []  # generate_label builds the optimized scorer first, then the standard one

        def make_scorer(metric_name, positive_class=None):
            inner = saved["make_scorer"](metric_name, positive_class)
            role = "optimized" if not made else "standard"
            made.append(role)

            def scorer(records):
                grouped = (self.current() or "").startswith("metrics.group_breakdown")
                name = "metrics.group_score" if grouped else f"metrics.{role}_score"
                if grouped:
                    self.count("metrics.scorer_calls")
                try:
                    return self(name, inner, records)
                except ModelFactsError:
                    if grouped:
                        self.count("metrics.scorer_failures")
                    raise
            return scorer

        def majority_class_baseline(dataset, metric_name):
            return self(f"metrics.majority_baseline.{metric_name.lower()}",
                        saved["majority_class_baseline"], dataset, metric_name)

        def group_breakdown(dataset, category, scorer):
            return self(f"metrics.group_breakdown.{category.lower()}",
                        saved["group_breakdown"], dataset, category, scorer)

        assemble.make_scorer = make_scorer
        assemble.majority_class_baseline = majority_class_baseline
        assemble.group_breakdown = group_breakdown
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(assemble, name, fn)
            made.clear()

    def totals(self) -> list[dict[str, float]]:
        """Per pass: inclusive seconds per span name, plus `<name>.self` seconds
        (duration minus direct children) for every name."""
        per_pass: dict[int, dict[str, float]] = {}
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[2] is not None:
                child_ns[span[2]] += span[4] - span[3]
        for index, (pass_no, name, _, start, end) in enumerate(self.spans):
            t = per_pass.setdefault(pass_no, {})
            t[name] = t.get(name, 0.0) + (end - start) / 1e9
            t[name + ".self"] = t.get(name + ".self", 0.0) + (end - start - child_ns[index]) / 1e9
        return [per_pass[k] for k in sorted(per_pass)]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (pass_no, name, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"pass": pass_no, "id": index, "name": name,
                                         "parent": parent, "start_ns": start,
                                         "end_ns": end}) + "\n")
