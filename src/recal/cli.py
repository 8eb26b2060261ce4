"""Command-line entry point.

Verbs:
  run     execute a scenario, write table.csv, curves.csv, diagnostics.json
  table   print the results table to stdout (3 decimals)
  curves  emit the curve CSV (stdout, or curves.csv under --out)

Every verb takes one path: parse the scenario, apply the flag overrides
(checked by the same validators as the scenario file), run the selected
methods, render what the verb needs, and write it: into files under
``--out`` when given (``run`` defaults it to ``.``), else to stdout.
``run`` also prints one status line per method. Every output is written
in slices of 1 MiB characters; ``curves.csv`` is rendered and written one
series at a time, so no more than one series' text is held at once.

Exit codes: 0 all requested methods converged, 1 usage/input/output error,
2 at least one method reported converged=false (outputs are still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict, replace
from itertools import chain
from pathlib import Path

from .errors import RecalError
from .eval_report import (
    _SLICE,
    CURVES_CSV_HEADER,
    _write_slices,
    build_results_table,
    curves_to_csv,
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
    ``table`` has only the latter. curves.csv is a lazy sequence of write
    slices (:func:`_curve_slices`); every other output is one text."""
    src, tgt = scenario.source, scenario.target
    if command == "curves":
        return {"curves.csv": _curve_slices(export_curves(src, tgt, results))}
    table = build_results_table(src, tgt, results, scenario.functional)
    if command == "table":
        return {"table": [format_table(table)]}
    payload = _diagnostics_payload(scenario, results)
    return {
        "table.csv": [table_to_csv(table)],
        "curves.csv": _curve_slices(export_curves(src, tgt, results)),
        "diagnostics.json": [json.dumps(payload, indent=2, sort_keys=True) + "\n"],
    }


def _curve_slices(series: Iterable[tuple]) -> Iterator[str]:
    """The text of ``curves_to_csv(series)`` in slices of _SLICE characters,
    one series at a time: each series' text is rendered by curves_to_csv on
    its own and let go before the next is rendered, so only one is held.
    Every series after the first starts after its header line."""
    start = 0
    for triple in series:
        text = curves_to_csv([triple])
        for a in range(start, len(text), _SLICE):
            yield text[a:a + _SLICE]
        del text  # else it is held while the next series renders
        start = len(CURVES_CSV_HEADER) + 1


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
            for text in chain.from_iterable(texts.values()):
                _write_slices(sys.stdout, text)
        else:
            Path(out).mkdir(parents=True, exist_ok=True)
            for name, pieces in texts.items():
                with open(Path(out) / name, "w", encoding="utf-8", newline="\n") as f:
                    for text in pieces:
                        _write_slices(f, text)
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
