"""Command line pipeline: generate, declare, validate, render, compare, audit.

Exit codes are stable: 0 success, 1 findings (validation violations, or audit
flags under --strict), 2 input or schema errors, 3 internal errors.  Machine
output (--json) goes to standard output; diagnostics go to standard error.
Identical invocations on identical inputs produce byte-identical outputs.
Each command imports the modules it runs, so a cold start such as --version
loads and compiles no more of the package than it needs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Any, Callable

from . import __version__
from .errors import ModelFactsError

if TYPE_CHECKING:
    from .label import ModelFactsLabel

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _color_enabled(stream) -> bool:
    return stream.isatty() and not os.environ.get("NO_COLOR")


def _mark(text: str, stream) -> str:
    if _color_enabled(stream):
        return f"\x1b[31m{text}\x1b[0m"
    return text


def _load_label(path: str) -> ModelFactsLabel:
    from pathlib import Path

    from .render import from_canonical_json

    return from_canonical_json(Path(path).read_bytes())


def _emit_json(obj: Any) -> None:
    import json

    sys.stdout.write(json.dumps(obj, sort_keys=True, ensure_ascii=False,
                                separators=(",", ":")) + "\n")


def _write_label(label: ModelFactsLabel, output: str | None) -> None:
    from pathlib import Path

    from .render import to_canonical_json

    data = to_canonical_json(label)
    if output is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(output).write_bytes(data)
        print(f"wrote {output}", file=sys.stderr)


def _write_stamp(output: str, command: str, inputs: list[str]) -> None:
    import hashlib
    import json
    from datetime import datetime, timezone
    from pathlib import Path

    stamp = {
        "command": command,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "inputs": {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in sorted(inputs)},
        "tool": f"modelfacts {__version__}",
    }
    stamp_path = output + ".stamp.json"
    Path(stamp_path).write_text(json.dumps(stamp, sort_keys=True, indent=2) + "\n",
                                encoding="utf-8")
    print(f"wrote {stamp_path}", file=sys.stderr)


def _cmd_generate(args: argparse.Namespace) -> int:
    # render, which _write_label needs, is compiled before the dataset is read, so that
    # the memory compiling it takes is not added to the memory the rows hold.
    from . import render  # noqa: F401
    from .assemble import generate_label
    from .ingest import load_label_manifest, load_predictions

    manifest = load_label_manifest(args.manifest)
    dataset = load_predictions(args.data, manifest)
    label = generate_label(dataset, manifest)
    _write_label(label, args.output)
    if args.stamp and args.output:
        _write_stamp(args.output, "generate", [args.data, args.manifest])
    return EXIT_OK


def _cmd_declare(args: argparse.Namespace) -> int:
    from .assemble import build_declared_label
    from .ingest import load_label_manifest

    manifest = load_label_manifest(args.manifest)
    label = build_declared_label(manifest)
    _write_label(label, args.output)
    if args.stamp and args.output:
        _write_stamp(args.output, "declare", [args.manifest])
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    from .label import validate_label
    from .render import RenderBudget

    label = _load_label(args.label)
    budget = RenderBudget(max_lines=args.max_lines, width=args.width)
    violations = validate_label(label, budget)
    if args.json:
        _emit_json({
            "ok": not violations,
            "violations": [
                {"code": v.code.value, "location": v.location, "message": v.message}
                for v in violations
            ],
        })
    elif violations:
        for v in violations:
            print(f"{_mark(v.code.value, sys.stdout)} at {v.location}: {v.message}")
        print(f"{len(violations)} violation(s) found")
    else:
        print("ok: no violations")
    return EXIT_FINDINGS if violations else EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .render import RenderBudget, render_html, render_text

    label = _load_label(args.label)
    if args.format == "text":
        rendered = render_text(label, RenderBudget())
    else:
        rendered = render_html(label)
    if args.output is None:
        sys.stdout.write(rendered)
    else:
        Path(args.output).write_text(rendered, encoding="utf-8")
        print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    from .codec import encode_metric
    from .report import compare_labels

    # A generator, so that one decoded label at a time is alive, not all of them.
    report = compare_labels((path, _load_label(path)) for path in args.labels)
    if args.json:
        _emit_json({
            "entries": [
                {
                    "identifier": e.identifier,
                    "optimized": encode_metric(e.optimized),
                    "standard": encode_metric(e.standard),
                    "completeness": e.completeness,
                }
                for e in report.entries
            ],
            "ranking": list(report.ranking),
            "caveats": list(report.caveats),
        })
        return EXIT_OK
    by_id = {e.identifier: e for e in report.entries}
    print("Ranking (best first):")
    for pos, ident in enumerate(report.ranking, start=1):
        e = by_id[ident]
        raw = e.optimized.raw_score
        shown = f"{raw.value:.3f}" if raw.is_reported else "(not reported)"
        print(f"  {pos}. {ident}  {e.optimized.name} raw={shown}  "
              f"completeness={e.completeness:.0%}")
    for caveat in report.caveats:
        print(f"caveat: {caveat}")
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    from .codec import encode_provenance
    from .report import load_reference_population_file, representation_audit

    label = _load_label(args.label)
    reference = load_reference_population_file(args.reference)
    report = representation_audit(label, reference, threshold_pp=args.threshold_pp)
    if args.json:
        _emit_json({
            "reference": report.reference_name,
            "threshold_pp": report.threshold_pp,
            "entries": [
                {
                    "category": e.category,
                    "group": e.group,
                    "label_pct": encode_provenance(e.label_pct),
                    "reference_pct": e.reference_pct,
                    "gap_pp": e.gap_pp,
                    "flagged": e.flagged,
                }
                for e in report.entries
            ],
            "disparity": report.disparity,
            "notes": list(report.notes),
            "flag_count": len(report.flagged),
        })
    else:
        print(f"Audit against '{report.reference_name}' (threshold {report.threshold_pp} pp):")
        for e in report.entries:
            if e.gap_pp is None:
                status = "unauditable (share not reported)"
            else:
                status = f"gap {e.gap_pp:+.1f} pp"
                if e.flagged:
                    status += f" {_mark('FLAG', sys.stdout)}"
            print(f"  {e.category}/{e.group}: reference {e.reference_pct:.1f}%  {status}")
        for category, spread in report.disparity.items():
            shown = f"{spread:.3f}" if spread is not None else "(insufficient reported accuracies)"
            print(f"  accuracy spread in {category}: {shown}")
        for note in report.notes:
            print(f"note: {note}")
        print(f"{len(report.flagged)} group(s) flagged")
    if args.strict and report.flagged:
        return EXIT_FINDINGS
    return EXIT_OK


def _reason(exc: ValueError) -> str:
    """The error's message, without a ModelFactsError's code prefix."""
    return exc.message if isinstance(exc, ModelFactsError) else str(exc)


def _argument(convert: Callable[[str], Any]) -> Callable[[str], Any]:
    """An argparse type: a ValueError from convert names the argument and exits 2."""
    def parse(text: str) -> Any:
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(_reason(exc)) from None
    return parse


def _max_lines(text: str) -> int:
    from .render import RenderBudget

    return RenderBudget(max_lines=int(text)).max_lines


def _width(text: str) -> int:
    from .render import RenderBudget

    return RenderBudget(width=int(text)).width


def _threshold_pp(text: str) -> float:
    from .report import check_threshold_pp

    return check_threshold_pp(float(text))


class _Distinct(argparse.Action):
    """Store the values; giving one twice is an error naming the argument."""

    def __call__(self, parser, namespace, values, option_string=None):
        from .report import check_identifiers

        try:
            check_identifiers(values)
        except ValueError as exc:
            raise argparse.ArgumentError(self, _reason(exc)) from None
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modelfacts",
        description="Generate, validate, render, compare, and audit Model Facts labels.",
    )
    parser.add_argument("--version", action="version", version=f"modelfacts {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="compute a label from predictions plus a manifest")
    p.add_argument("--data", required=True, help="predictions CSV")
    p.add_argument("--manifest", required=True, help="label manifest JSON")
    p.add_argument("-o", "--output", help="output label path (default: stdout)")
    p.add_argument("--stamp", action="store_true",
                   help="also write a .stamp.json sidecar with input digests")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("declare", help="build a label purely from a declared manifest")
    p.add_argument("--manifest", required=True, help="label manifest JSON")
    p.add_argument("-o", "--output", help="output label path (default: stdout)")
    p.add_argument("--stamp", action="store_true",
                   help="also write a .stamp.json sidecar with input digests")
    p.set_defaults(func=_cmd_declare)

    p = sub.add_parser("validate", help="check a label against publishability rules")
    p.add_argument("label", help="canonical label JSON")
    p.add_argument("--max-lines", default=80,
                   type=_argument(_max_lines))
    p.add_argument("--width", default=64,
                   type=_argument(_width))
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("render", help="render a label as text or HTML")
    p.add_argument("label", help="canonical label JSON")
    p.add_argument("--format", required=True, choices=("text", "html"))
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("compare", help="rank labels and list comparability caveats")
    p.add_argument("labels", nargs="+", action=_Distinct, help="canonical label JSON files")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("audit", help="audit demographic representation against a reference")
    p.add_argument("label", help="canonical label JSON")
    p.add_argument("--reference", required=True, help="reference population JSON")
    p.add_argument("--threshold-pp", default=5.0,
                   type=_argument(_threshold_pp),
                   help="flag gaps larger than this many percentage points")
    p.add_argument("--strict", action="store_true", help="exit 1 when any group is flagged")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # Parsing runs the argument checks, which import what they use, so an internal
        # error there is caught too; argparse's own exit is a SystemExit, not caught.
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ModelFactsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # never show users a bare traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
