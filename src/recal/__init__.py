"""Recalibration of discrete binary probabilistic classifiers to a target
class-1 prior under distribution-shift assumptions, with implied-AUC and
concave-functional evaluation."""

import types

from .auc_engine import (
    ClassConditionals,
    adjusted_cdf,
    class_conditionals,
    implied_auc,
    implied_auc_gradient,
    implied_auc_values,
    mann_whitney_auc,
    merged_value_dist,
)
from .dist_core import (
    DiscreteScoreDist,
    PosteriorCurve,
    SourceModel,
    TargetSpec,
    binomial_dist,
    mean_under,
    vasicek_mixture_dist,
)
from .errors import (
    DegenerateClassError,
    DomainError,
    InfeasibleError,
    NoRootError,
    RecalError,
    ScenarioError,
    StructuralError,
)
from .eval_report import (
    FunctionalSpec,
    ResultsTable,
    TableRow,
    build_results_table,
    curves_to_csv,
    export_curves,
    format_table,
    functional_bounds,
    functional_mean,
    table_to_csv,
)
from .recal_methods import (
    CANONICAL_ORDER,
    DISPLAY_LABELS,
    MethodId,
    RecalResult,
    capped_scaling,
    fixed_point_f0,
    fjs_bounds,
    fjs_recalibrate,
    label_shift_correct,
    parametric_cspd_qmm,
    roc_qmm,
    run_method,
    two_param_qmm,
)
from .scenario import (
    Scenario,
    example_scenario_path,
    worked_example_scenario,
    parse_scenario,
    run_methods,
    scenario_from_dict,
    scenario_to_dict,
    write_scenario,
)
from .solvers import (
    DEFAULT_SETTINGS,
    SolveDiagnostics,
    SolverSettings,
    TransformFamily,
    bisect_root,
    logistic_cspd_family,
    normal_cspd_family,
    platt_family,
    rob_logit_family,
    solve_qmm_2d,
)

__version__ = "0.1.0"

# every name imported above, and nothing else, is the public API
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
