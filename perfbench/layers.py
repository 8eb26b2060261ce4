"""Which ``recal`` functions the traced run wraps, and under which names.

A wrapper sits at the module attribute where the caller looks the function
up: ``solve_qmm_2d`` is called through ``recal.recal_methods``, the QMM
intercept root is ``bisect_root`` as ``recal.solvers`` calls it, and so on.
Span names follow ``<defining module>.<function>``; ``solvers.link`` is the
``expit``/``ndtr`` link a transform family binds at construction, and
``recal_methods.<method id>`` spans one method run.
"""

from __future__ import annotations

import importlib

from spans import Tracer


def _size(i):
    return lambda args, result: len(args[i])


def _iterations(args, result):
    return result.diagnostics.iterations


def _fixed_point_iterations(args, result):
    return result[1].iterations


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


def _method_name(args):
    return f"recal_methods.{args[0].value}"


# (module the caller looks the name up in, attribute, span name, options)
HOOKS = (
    ("cli", "main", "cli.main", {}),
    ("cli", "parse_scenario", "scenario.parse_scenario", {}),
    ("scenario", "parse_scenario", "scenario.parse_scenario", {}),
    ("scenario", "binomial_dist", "dist_core.binomial_dist", {}),
    ("scenario", "vasicek_mixture_dist", "dist_core.vasicek_mixture_dist", {}),
    ("scenario", "run_method", "", {"name_of": _method_name, "count": _iterations}),
    ("recal_methods", "solve_qmm_2d", "solvers.solve_qmm_2d", {}),
    ("solvers", "bisect_root", "solvers.intercept_root", {"callback_arg": 0}),
    ("recal_methods", "bisect_root", "recal_methods.scalar_root", {"callback_arg": 0}),
    ("solvers", "expit", "solvers.link", {"count": _size(0)}),
    ("solvers", "ndtr", "solvers.link", {"count": _size(0)}),
    ("recal_methods", "fixed_point_f0", "solvers.fixed_point_f0", {"count": _fixed_point_iterations}),
    ("solvers", "implied_auc_values", "auc_engine.implied_auc_values", {"count": _size(1)}),
    ("recal_methods", "implied_auc_values", "auc_engine.implied_auc_values", {"count": _size(1)}),
    ("eval_report", "implied_auc_values", "auc_engine.implied_auc_values", {"count": _size(1)}),
    ("recal_methods", "class_conditionals", "auc_engine.class_conditionals", {}),
    ("recal_methods", "adjusted_cdf", "auc_engine.adjusted_cdf", {}),
)
for _fn in ("build_results_table", "export_curves", "curves_to_csv", "table_to_csv"):
    _opts = {"count": _text_bytes} if _fn == "curves_to_csv" else {}
    HOOKS += (
        ("cli", _fn, f"eval_report.{_fn}", _opts),
        ("eval_report", _fn, f"eval_report.{_fn}", _opts),
    )

METHOD_IDS = (
    "capped_scaling",
    "label_shift",
    "fjs",
    "platt",
    "logistic_cspd",
    "normal_cspd",
    "roc_qmm",
    "two_param_qmm",
)

# span name -> name of its work count in the metrics
COUNT_NAMES = {
    "solvers.intercept_root": "f_evals",
    "recal_methods.scalar_root": "f_evals",
    "solvers.link": "elements",
    "solvers.fixed_point_f0": "iterations",
    "auc_engine.implied_auc_values": "elements",
    **{f"recal_methods.{m}": "iterations" for m in METHOD_IDS},
}

SPAN_NAMES = tuple(
    dict.fromkeys(
        [name for _, _, name, _ in HOOKS if name]
        + [f"recal_methods.{m}" for m in METHOD_IDS]
    )
)


def install(tracer: Tracer) -> None:
    """Wrap every hook; families built afterwards bind the wrapped links."""
    for module_name, attr, name, options in HOOKS:
        module = importlib.import_module(f"recal.{module_name}")
        tracer.wrap(module, attr, name, **options)


def per_layer_metrics(totals: dict[str, dict[str, float]]) -> dict[str, tuple[float, str]]:
    """Flatten per-unit span totals into ``<span>.{calls,s,self_s,<count>}``
    as (value, unit) pairs. Spans a workload never enters read zero."""
    out: dict[str, tuple[float, str]] = {}
    empty = {"calls": 0.0, "s": 0.0, "self_s": 0.0, "count": 0.0}
    for name in SPAN_NAMES:
        entry = totals.get(name, empty)
        out[f"{name}.calls"] = (entry["calls"], "count")
        out[f"{name}.s"] = (entry["s"], "s")
        out[f"{name}.self_s"] = (entry["self_s"], "s")
        if name in COUNT_NAMES:
            out[f"{name}.{COUNT_NAMES[name]}"] = (entry["count"], "count")
    csv_bytes = totals.get("eval_report.curves_to_csv", empty)["count"]
    out["eval_report.curves_csv_bytes"] = (csv_bytes, "B")
    return out
