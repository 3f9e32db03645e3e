"""The ``fvn-lint`` command: static analysis of NDlog programs.

Lints NDlog source files and/or the programs bundled with the repository
(``--bundled``: the protocol library plus the generated policy program),
printing coded diagnostics as text or JSON.  ``--prove`` additionally runs
the static obligation discharge and reports which campaign monitors the
program's proofs cover.

Exit status: 0 clean, 1 diagnostics at or above ``--fail-on``, 2 usage or
parse failure.  CI runs ``fvn-lint --bundled --format json`` and fails the
build on any error-severity diagnostic.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from ..ast import NDlogError, Program
from ..parser import ParseError, parse_program
from . import analyze_program
from .diagnostics import AnalysisReport

#: Name → constructor for the programs shipped with the repository.
BUNDLED: dict[str, Callable[[], Program]] = {}


def _load_bundled() -> dict[str, Callable[[], Program]]:
    if BUNDLED:
        return BUNDLED
    from ...bgp.generator import policy_path_vector_program
    from ...protocols import (
        distance_vector_program,
        heartbeat_program,
        link_state_program,
        path_vector_program,
    )

    BUNDLED.update(
        {
            "pathvector": path_vector_program,
            "policy_pathvector": policy_path_vector_program,
            "distancevector": distance_vector_program,
            "linkstate": link_state_program,
            "heartbeat": heartbeat_program,
        }
    )
    return BUNDLED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvn-lint",
        description="static analysis of NDlog programs (docs/ANALYSIS.md)",
    )
    parser.add_argument(
        "paths", nargs="*", help="NDlog source files to lint", metavar="FILE"
    )
    parser.add_argument(
        "--bundled",
        action="store_true",
        help="lint every program bundled with the repository",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--prove",
        action="store_true",
        help="also run static obligation discharge (monitor property proofs)",
    )
    parser.add_argument(
        "--emit-codegen",
        action="store_true",
        help="print each program's generated evaluator source (the per-rule "
        "Python the engines run) instead of lint diagnostics",
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="lowest severity that fails the lint (default: error)",
    )
    return parser


def _analyze_one(
    name: str, program: Program, *, prove: bool
) -> tuple[AnalysisReport, Optional[dict]]:
    report = analyze_program(program)
    report.program = name
    discharge_data: Optional[dict] = None
    if prove:
        from .discharge import discharge_program

        discharge_data = discharge_program(program).to_dict()
    return report, discharge_data


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.paths and not args.bundled:
        parser.print_usage(sys.stderr)
        print("fvn-lint: nothing to lint (give FILEs or --bundled)", file=sys.stderr)
        return 2

    programs: list[tuple[str, Program]] = []
    if args.bundled:
        for name, factory in sorted(_load_bundled().items()):
            programs.append((name, factory()))
    for path_text in args.paths:
        path = Path(path_text)
        try:
            text = path.read_text()
        except OSError as exc:
            print(f"fvn-lint: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        try:
            # lenient parse: the analyzer reports safety/arity violations
            # itself, with codes and spans, instead of a parse abort
            programs.append(
                (str(path), parse_program(text, name=path.stem, strict=False))
            )
        except (ParseError, NDlogError) as exc:
            print(f"fvn-lint: {path}: {exc}", file=sys.stderr)
            return 2

    if args.emit_codegen:
        from ..codegen import emit_program_source

        for name, program in programs:
            print(f"## codegen: {name}")
            print(emit_program_source(program))
        return 0

    reports: list[tuple[AnalysisReport, Optional[dict]]] = []
    for name, program in programs:
        reports.append(_analyze_one(name, program, prove=args.prove))

    if args.format == "json":
        payload = []
        for report, discharge_data in reports:
            entry = report.to_dict()
            if discharge_data is not None:
                entry["discharge"] = discharge_data
            payload.append(entry)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for report, discharge_data in reports:
            print(report.format())
            if discharge_data is not None:
                proven = discharge_data["proven_monitors"]
                proved = [p["property"] for p in discharge_data["proofs"] if p["proved"]]
                print(
                    f"{report.program}: proved {len(proved)} propertie(s) "
                    f"{proved}; statically covered monitors: {proven or 'none'}"
                )

    errors = sum(len(report.errors) for report, _ in reports)
    warnings = sum(len(report.warnings) for report, _ in reports)
    if args.fail_on == "error" and errors:
        return 1
    if args.fail_on == "warning" and (errors or warnings):
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
