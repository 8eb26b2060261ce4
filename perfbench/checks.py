"""Output checks the benchmark applies to every unit.

Each check returns a list of failure messages; an empty list means pass.
Means and AUCs are recomputed here with numpy from the posterior curves:
the returned values in process, the series of ``curves.csv`` for CLI runs.
Only ``converged`` is taken from the program's own diagnostics.
"""

from __future__ import annotations

import csv
import hashlib
import io

import numpy as np

# worked example: label -> (mean_probs, auc, mean_functional) at 3 decimals
REFERENCE_TABLE = {
    "Source": (0.010, 0.802, 0.084),
    "Capped scaling": (0.050, 0.950, 0.132),
    "Label shift": (0.060, 0.930, 0.160),
    "FJS": (0.050, 0.932, 0.142),
    "Platt scaling": (0.050, 0.802, 0.179),
    "ROC QMM": (0.049, 0.799, 0.191),
    "2-param QMM": (0.050, 0.802, 0.191),
    "Logistic CSPD": (0.050, 0.803, 0.192),
    "Normal CSPD": (0.050, 0.802, 0.192),
}
CELL_TOL = 1.5e-3
# curves.csv values have 12 significant digits
CSV_RTOL = 1e-10

MEAN_MATCHING = ("capped_scaling", "fjs", "platt", "logistic_cspd", "normal_cspd", "two_param_qmm")
AUC_MATCHING = ("platt", "logistic_cspd", "normal_cspd", "two_param_qmm")

# keys in recal's canonical method order, the order of curves.csv series
LABELS = {
    "capped_scaling": "Capped scaling",
    "label_shift": "Label shift",
    "fjs": "FJS",
    "platt": "Platt scaling",
    "roc_qmm": "ROC QMM",
    "two_param_qmm": "2-param QMM",
    "logistic_cspd": "Logistic CSPD",
    "normal_cspd": "Normal CSPD",
}


def implied_auc(probs: np.ndarray, values: np.ndarray) -> float:
    """AUC of the values used as an auto-calibrated score, ties counted half."""
    v, inverse = np.unique(values, return_inverse=True)
    p = np.bincount(inverse, weights=probs, minlength=v.size)
    hit = p * v
    miss = p * (1.0 - v)
    miss_below = np.cumsum(miss) - miss
    pbar = float(hit.sum())
    return float(np.sum(hit * (miss_below + 0.5 * miss))) / (pbar * (1.0 - pbar))


def table_cells(probs: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """(mean, implied AUC, mean of sqrt) of a posterior curve under probs."""
    return (
        float(np.dot(probs, values)),
        implied_auc(probs, values),
        float(np.dot(probs, np.sqrt(values))),
    )


def check_reference_table(rows: dict[str, tuple[float, float, float]]) -> list[str]:
    """Every reference cell reproduced within CELL_TOL; rows keyed by label."""
    failures = []
    for label, expected in REFERENCE_TABLE.items():
        if label not in rows:
            failures.append(f"reference table: row {label!r} missing")
            continue
        for got, want, cell in zip(rows[label], expected, ("mean", "auc", "functional")):
            if not abs(got - want) <= CELL_TOL:
                failures.append(f"reference table: {label}/{cell} = {got!r}, want {want} ± {CELL_TOL}")
    return failures


def check_contract(
    method: str,
    converged: bool,
    mean: float,
    auc: float,
    q: float,
    source_auc: float,
    tol_mean: float,
    tol_auc: float,
) -> list[str]:
    """A method's result meets its contract: converged, then mean and AUC matched."""
    if not converged:
        return [f"{method}: converged=false"]
    failures = []
    if method in MEAN_MATCHING and not abs(mean - q) <= tol_mean:
        failures.append(f"{method}: |mean - q| = {abs(mean - q)!r} > {tol_mean}")
    if method in AUC_MATCHING and not abs(auc - source_auc) <= tol_auc:
        failures.append(f"{method}: |auc - source auc| = {abs(auc - source_auc)!r} > {tol_auc}")
    return failures


def check_identical(first: dict[str, str], later: dict[str, str]) -> list[str]:
    """Output digests of a unit equal those of the first unit on the same input."""
    return [
        f"{name} differs from the first unit"
        for name in sorted(set(first) | set(later))
        if first.get(name) != later.get(name)
    ]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def results_digest(results) -> dict[str, str]:
    """Digest of each in-process result: curve bytes, parameters, diagnostics."""
    return {
        r.method.value: digest(
            r.posterior.values.tobytes()
            + repr(sorted(r.params.items())).encode()
            + repr(r.diagnostics).encode()
        )
        for r in results
    }


def parse_table_csv(text: str) -> dict[str, tuple[float, float, float]]:
    """table.csv as label -> (mean_probs, auc, mean_functional)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["method", "mean_probs", "auc", "mean_functional"]:
        raise ValueError(f"unexpected table.csv header {header!r}")
    return {row[0]: (float(row[1]), float(row[2]), float(row[3])) for row in reader}


def parse_curves_csv(text: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """curves.csv as series -> (support, values), series in file order."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["series", "support", "value"]:
        raise ValueError(f"unexpected curves.csv header {header!r}")
    rows: dict[str, list[tuple[float, float]]] = {}
    last = None
    for series, support, value in reader:
        if series != last and series in rows:
            raise ValueError(f"curves.csv: rows of series {series!r} are not contiguous")
        rows.setdefault(series, []).append((float(support), float(value)))
        last = series
    return {name: tuple(np.array(r).T) for name, r in rows.items()}


def check_curves(
    curves: dict[str, tuple[np.ndarray, np.ndarray]],
    support: np.ndarray,
    inputs: dict[str, np.ndarray],
    methods: list[str],
) -> list[str]:
    """Series are the inputs' then one posterior per method, in that order;
    every series is on ``support``; input series equal the given arrays."""
    expected = [*inputs, *(f"posterior_{m}" for m in methods)]
    if list(curves) != expected:
        return [f"curves.csv series {list(curves)}, want {expected}"]
    failures = []
    for name, (s, values) in curves.items():
        if s.shape != support.shape or not np.allclose(s, support, rtol=CSV_RTOL, atol=0.0):
            failures.append(f"curves.csv: {name} is not on the scenario's support")
        elif name in inputs and not np.allclose(values, inputs[name], rtol=CSV_RTOL, atol=0.0):
            failures.append(f"curves.csv: {name} differs from the scenario input")
    return failures
