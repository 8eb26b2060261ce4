"""Command-line entry point.

Verbs:
  run     execute a scenario, write table.csv, curves.csv, diagnostics.json
  table   print the results table to stdout (3 decimals)
  curves  emit the curve CSV (stdout, or curves.csv under --out)

Every verb takes one path: parse the scenario, apply the flag overrides
(checked by the same validators as the scenario file), run the selected
methods, render what the verb needs, and write it: into files under
``--out`` when given (``run`` defaults it to ``.``), else to stdout.
``run`` also prints one status line per method. ``curves.csv`` is written
block by block as it is rendered, so no more than one block of its text
(~512 KiB) is held.

Exit codes: 0 all requested methods converged, 1 usage/input/output error,
2 at least one method reported converged=false (outputs are still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from dataclasses import asdict, replace
from itertools import chain
from pathlib import Path

from .errors import RecalError
# curves_to_csv is not called here; it stays importable under this module's
# name because perfbench/layers.py wraps it there
from .eval_report import curves_to_csv  # noqa: F401
from .eval_report import (
    _curves_csv_blocks,
    build_results_table,
    export_curves,
    format_table,
    table_to_csv,
)
from .recal_methods import RecalResult
from .scenario import (
    SETTINGS_KEYS,
    Scenario,
    _parse_functional,
    _parse_methods,
    _parse_settings,
    parse_scenario,
    run_methods,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for
    # non-convergence and report usage problems as generic failures
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"recal: error: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="recal", description="Recalibrate a discrete binary classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    verbs = {
        "run": ("run the scenario and write output files", "output directory (default: .)"),
        "table": ("print the results table", None),
        "curves": ("emit the curve CSV", "write curves.csv into this directory"),
    }
    for name, (summary, out_help) in verbs.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--scenario", required=True, help="path of the scenario JSON file")
        p.add_argument(
            "--methods",
            help="comma-separated method names or 'all' (overrides the scenario)",
        )
        p.add_argument(
            "--functional", help="functional id, e.g. 'sqrt' (overrides the scenario)"
        )
        p.add_argument("--tol-mean", type=float, help="mean-matching tolerance override")
        p.add_argument("--tol-auc", type=float, help="AUC-matching tolerance override")
        p.add_argument("--max-iter", type=int, help="iteration cap override")
        if out_help is not None:
            p.add_argument("--out", default="." if name == "run" else None, help=out_help)
    return parser


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    changes = {}
    if args.methods is not None:
        spec = args.methods
        changes["methods"] = _parse_methods(
            "all" if spec == "all" else [m.strip() for m in spec.split(",")]
        )
    if args.functional is not None:
        changes["functional"] = _parse_functional(args.functional)
    flags = {key: getattr(args, key) for key in SETTINGS_KEYS}
    changes["settings"] = _parse_settings(
        {key: value for key, value in flags.items() if value is not None},
        scenario.settings,
        name=lambda key: "--" + key.replace("_", "-"),
    )
    return replace(scenario, **changes)


def _diagnostics_payload(scenario: Scenario, results: list[RecalResult]) -> dict:
    methods = {}
    for result in results:
        methods[result.method.value] = {
            **asdict(result.diagnostics),
            "params": result.params,
            "achieved_mean": result.achieved_mean,
            "implied_auc": result.implied_auc,
        }
    return {
        "source": {
            "prior": scenario.source.prior,
            "implied_auc": scenario.source.implied_auc,
        },
        "target": {"prior": scenario.target.prior},
        "methods": methods,
        "all_converged": all(r.diagnostics.converged for r in results),
    }


def _render(
    command: str, scenario: Scenario, results: list[RecalResult]
) -> dict[str, Iterable[str]]:
    """Name -> the texts, in order, of what the verb outputs: the files
    written under --out, or, without --out, the one output for stdout.
    ``table`` has only the latter. curves.csv is a lazy sequence of blocks
    (:func:`eval_report._curves_csv_blocks`); every other output is one text."""
    src, tgt = scenario.source, scenario.target
    if command == "curves":
        return {"curves.csv": _curves_csv_blocks(export_curves(src, tgt, results))}
    table = build_results_table(src, tgt, results, scenario.functional)
    if command == "table":
        return {"table": [format_table(table)]}
    payload = _diagnostics_payload(scenario, results)
    return {
        "table.csv": [table_to_csv(table)],
        "curves.csv": _curves_csv_blocks(export_curves(src, tgt, results)),
        "diagnostics.json": [json.dumps(payload, indent=2, sort_keys=True) + "\n"],
    }


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if exc.code in (0, None) else 1
    out = getattr(args, "out", None)
    try:
        scenario = _apply_overrides(parse_scenario(args.scenario), args)
        results = run_methods(scenario)
        texts = _render(args.command, scenario, results)
        if out is None:
            sys.stdout.writelines(chain.from_iterable(texts.values()))
        else:
            Path(out).mkdir(parents=True, exist_ok=True)
            for name, pieces in texts.items():
                with open(Path(out) / name, "w", encoding="utf-8", newline="\n") as f:
                    f.writelines(pieces)
    except RecalError as exc:
        print(f"recal: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"recal: error: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    converged = all(r.diagnostics.converged for r in results)
    if args.command == "run":
        for result in results:
            diag = result.diagnostics
            print(
                f"{result.method.value}: converged={diag.converged} "
                f"iterations={diag.iterations}"
            )
        if not converged:
            print("recal: warning: at least one method did not converge", file=sys.stderr)
    return 0 if converged else 2


if __name__ == "__main__":
    raise SystemExit(main())
