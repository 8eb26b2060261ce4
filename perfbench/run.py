"""Benchmark of the ``recal`` library: end-to-end and per-layer metrics.

Run from the root of a source checkout (the directory holding ``src/recal``):

    python3 perfbench/run.py --workload small_batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs half the time untraced and half with every layer wrapped, and reports
the per-layer metrics plus the tracing overhead. Every unit's output is
checked; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every check passed. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans  # stdlib only; numpy-using modules are imported after set-up
import spawner

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
IMPORT_PROBES = 5
# a seed never used while this benchmark or a change was tuned; confirm a
# claimed gain on it before accepting the claim
HELD_OUT_SEED = 7919

OUTPUT_FILES = ("table.csv", "curves.csv", "diagnostics.json")
# result contracts, at recal's default solver tolerances
TOL_MEAN = 1e-9
TOL_AUC = 1e-6


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    cli: bool
    n: int
    methods: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("example_cli", True, 17, "all"),
        Workload("small_batch", False, 257, "all"),
        Workload("large_support", False, 4_097, "all"),
        Workload("large_io", True, 65_537, "capped_scaling,label_shift,fjs"),
    )
}


# ---------------------------------------------------------------- set-up


@dataclass
class Case:
    """One input of a workload, with what its checks need."""

    label: str
    params: dict | None
    scenario: object = None  # in-process workloads
    path: Path | None = None  # CLI workloads
    support: object = None
    target_probs: object = None
    source_probs: object = None
    source_posterior: object = None
    q: float | None = None


@dataclass
class Inputs:
    cases: list[Case]
    setup_s: float


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Import recal and build the workload's inputs.

    The timed set-up is the program's part: ``import recal`` and, in process,
    building the scenario objects from the generated dicts. The benchmark's
    own generator (``workgen``, numpy only) runs outside the timed region.
    """
    t0 = time.perf_counter()
    import recal  # noqa: F401  (the import is part of set-up)
    import recal.scenario as scenario_mod

    setup_s = time.perf_counter() - t0
    import workgen

    work = OUT / "work" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    if workload.name == "example_cli":
        example = scenario_mod.worked_example_scenario()
        return Inputs([_case("worked_example", None, example,
                             scenario_mod.example_scenario_path())], setup_s)
    if workload.name == "large_io":
        import numpy as np

        params = workgen.large_params(seed)
        d = workgen.scenario_dict(workload.n, params)
        path = work / f"scenario_seed{seed}.json"
        path.write_text(workgen.scenario_json(d), encoding="utf-8")
        case = Case(
            "large", params, path=path,
            support=np.asarray(d["source"]["support"]),
            target_probs=np.asarray(d["target"]["feature"]["probs"]),
            source_probs=np.asarray(d["source"]["probs"]),
            source_posterior=np.asarray(d["source"]["posterior"]),
            q=params["q"],
        )
        return Inputs([case], setup_s)

    if workload.name == "small_batch":
        plist = workgen.small_batch_params(seed)
    else:
        plist = [workgen.large_params(seed)]
    dicts = [workgen.scenario_dict(workload.n, params) for params in plist]
    t0 = time.perf_counter()
    cases = [_case(f"geometry{i}", params, scenario_mod.scenario_from_dict(d))
             for i, (params, d) in enumerate(zip(plist, dicts))]
    if workload.name == "small_batch":
        cases.insert(0, _case("worked_example", None, scenario_mod.worked_example_scenario()))
    return Inputs(cases, setup_s + time.perf_counter() - t0)


def _case(label: str, params: dict | None, sc, path: Path | None = None) -> Case:
    """A case on a recal scenario: run in process, or from ``path`` by the CLI."""
    return Case(
        label,
        params,
        scenario=sc if path is None else None,
        path=path,
        support=sc.source.support,
        target_probs=sc.target.feature_dist.probs,
        source_probs=sc.source.feature_dist.probs,
        source_posterior=sc.source.posterior.values,
        q=sc.target.prior,
    )


class Spawner:
    """The helper process (spawner.py) that runs and measures CLI units.

    It is started before this process imports numpy and recal, so its small
    peak RSS, not this process's, is the floor of each child's peak RSS.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawner.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd: list[str], stderr_path: Path) -> tuple[int, float, float]:
        """(exit code, wall seconds, peak RSS in MB) of one child."""
        self.proc.stdin.write(json.dumps([cmd, str(stderr_path)]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("perfbench: the spawner process ended early")
        code, elapsed, rss = json.loads(line)
        return code, elapsed, rss

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def probe_setup(workload: Workload, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes doing this run's set-up, each followed
    by a fresh process timing the reference import."""
    import calibration

    setup_cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
                 "--workload", workload.name, "--seed", str(seed)]
    ref_cmd = [sys.executable, "-c", calibration.REFERENCE_IMPORT]
    setup, ref = [], []
    for _ in range(SETUP_PROBES):
        for cmd, times in ((setup_cmd, setup), (ref_cmd, ref)):
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=spawner.UNIT_TIMEOUT_S, check=True)
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return setup, ref


def probe_cli_import() -> tuple[list[float], list[float]]:
    """Fresh-interpreter times of ``import recal.cli`` and of a bare start."""
    def timed(code):
        out = []
        for _ in range(IMPORT_PROBES):
            code_, elapsed, _ = spawner.run_child([sys.executable, "-c", code], OUT / "probe.err")
            if code_ != 0:
                raise RuntimeError(f"import probe failed: {(OUT / 'probe.err').read_text()}")
            out.append(elapsed)
        return out

    return timed("import recal.cli"), timed("pass")


# ---------------------------------------------------------------- units


@dataclass
class Run:
    unit_s: list[float] = field(default_factory=list)
    cal_s: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed_units: int = 0
    first_digest: dict = field(default_factory=dict)
    first_failures: dict = field(default_factory=dict)


class Runner:
    """Closed loop, one client: the next unit starts when the previous ends."""

    def __init__(self, workload: Workload, inputs: Inputs, children: Spawner | None):
        self.workload = workload
        self.inputs = inputs
        self.children = children
        self.run = Run()
        self.tracer = None
        self.unit_name_id = None
        import calibration
        import checks

        self.calibration = calibration
        self.checks = checks
        self.source_auc = [
            checks.implied_auc(c.source_probs, c.source_posterior) for c in inputs.cases
        ]

    def trace_on(self, tracer) -> None:
        import layers

        self.tracer = tracer
        self.unit_name_id = tracer.name_id(spans.UNIT_SPAN)
        if not self.workload.cli:
            layers.install(tracer)

    def loop(self, seconds: float) -> None:
        """Run whole passes over the cases until ``seconds`` have elapsed."""
        deadline = time.perf_counter() + seconds
        while True:
            for case_index in range(len(self.inputs.cases)):
                self.unit(case_index)
            if time.perf_counter() >= deadline:
                return

    def unit(self, case_index: int) -> None:
        k = len(self.run.unit_s)
        self.run.cal_s.append(self.calibration.timed())
        failures = (self._cli_unit if self.workload.cli else self._inproc_unit)(k, case_index)
        self.run.traced.append(self.tracer is not None)
        if failures:
            self.run.failed_units += 1
            self.run.failures.extend(f"unit {k}: {f}" for f in failures[:5])

    def _open(self, k: int):
        if self.tracer is None:
            return None
        self.tracer.current_unit = k
        return self.tracer.open(self.unit_name_id)

    def _close(self, idx) -> None:
        if idx is not None:
            self.tracer.close(idx)
            self.tracer.current_unit = spans.NO_UNIT

    def _inproc_unit(self, k: int, case_index: int) -> list[str]:
        import recal.scenario as scenario_mod
        from recal.errors import RecalError

        case = self.inputs.cases[case_index]
        error = None
        span = self._open(k)
        t0 = time.perf_counter()
        try:
            results = scenario_mod.run_methods(case.scenario)
        except RecalError as exc:
            results, error = None, exc
        elapsed = time.perf_counter() - t0
        self._close(span)
        self.run.unit_s.append(elapsed)
        if error is not None:
            return [f"{case.label}: {type(error).__name__}: {error}"]
        ch = self.checks
        failures = []
        rows = {}
        for r in results:
            mean, auc, functional = ch.table_cells(case.target_probs, r.posterior.values)
            rows[ch.LABELS[r.method.value]] = (mean, auc, functional)
            failures += ch.check_contract(
                r.method.value, r.diagnostics.converged, mean, auc, case.q,
                self.source_auc[case_index], TOL_MEAN, TOL_AUC,
            )
        if case.label == "worked_example":
            rows["Source"] = ch.table_cells(case.source_probs, case.source_posterior)
            failures += ch.check_reference_table(rows)
        failures += self._same_as_first(case_index, ch.results_digest(results))
        return [f"{case.label}: {f}" for f in failures]

    def _cli_unit(self, k: int, case_index: int) -> list[str]:
        case = self.inputs.cases[case_index]
        out_dir = OUT / "work" / self.workload.name / "out"
        args = ["run", "--scenario", str(case.path), "--methods", self.workload.methods,
                "--out", str(out_dir)]
        spans_path = OUT / "work" / self.workload.name / "child_spans.npz"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "recal.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans_path), *args]
        stderr_path = OUT / "work" / self.workload.name / "child.err"
        for stale in (*(out_dir / name for name in OUTPUT_FILES), spans_path):
            stale.unlink(missing_ok=True)
        span = self._open(k)
        code, elapsed, rss = self.children.run(cmd, stderr_path)
        self._close(span)
        if span is not None and spans_path.exists():
            self.tracer.extend(spans.load(spans_path), unit_id=k, host=span)
        self.run.unit_s.append(elapsed)
        self.run.rss_mb.append(rss)
        if code != 0:
            return [f"exit code {code}: {stderr_path.read_text(errors='replace')[-300:]}"]
        try:
            return self._check_cli_outputs(case_index, case, out_dir)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable outputs: {type(exc).__name__}: {exc}"]

    def _check_cli_outputs(self, case_index: int, case: Case, out_dir: Path) -> list[str]:
        ch = self.checks
        files = {name: (out_dir / name).read_bytes() for name in OUTPUT_FILES}
        digests = {name: ch.digest(data) for name, data in files.items()}
        if case_index in self.run.first_digest:
            # byte-identical outputs share the verdict of the unit checked in full
            changed = ch.check_identical(self.run.first_digest[case_index], digests)
            return changed or self.run.first_failures[case_index]
        failures = self._check_curves(case_index, case, files)
        self.run.first_digest[case_index] = digests
        self.run.first_failures[case_index] = failures
        return failures

    def _check_curves(self, case_index: int, case: Case, files: dict[str, bytes]) -> list[str]:
        """Check the series of curves.csv against the inputs, then recompute
        each method's mean and AUC (and the worked example's table) from them."""
        ch = self.checks
        methods = [m for m in ch.LABELS
                   if self.workload.methods == "all" or m in self.workload.methods.split(",")]
        curves = ch.parse_curves_csv(files["curves.csv"].decode())
        failures = ch.check_curves(curves, case.support, {
            "source_pmf": case.source_probs,
            "target_pmf": case.target_probs,
            "posterior_source": case.source_posterior,
        }, methods)
        if failures:
            return failures
        diag = json.loads(files["diagnostics.json"])["methods"]
        rows = {"Source": ch.table_cells(case.source_probs, case.source_posterior)}
        for method in methods:
            if method not in diag:
                failures.append(f"diagnostics.json: {method} missing")
            else:
                values = curves[f"posterior_{method}"][1]
                mean, auc, functional = ch.table_cells(case.target_probs, values)
                rows[ch.LABELS[method]] = (mean, auc, functional)
                failures += ch.check_contract(
                    method, diag[method]["converged"], mean, auc, case.q,
                    self.source_auc[case_index], TOL_MEAN, TOL_AUC,
                )
        if case.label == "worked_example":
            failures += ch.check_reference_table(rows)
            failures += ch.check_reference_table(ch.parse_table_csv(files["table.csv"].decode()))
        return failures

    def _same_as_first(self, case_index: int, digests: dict) -> list[str]:
        first = self.run.first_digest.setdefault(case_index, digests)
        return self.checks.check_identical(first, digests)


# ---------------------------------------------------------------- metrics


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it. Below 20 samples no such percentile reaches
    the median, and the maximum (p100) stands in."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def ratios(run: "Run", units) -> list[float]:
    """Each unit's time over the reference computation timed just before it."""
    return [run.unit_s[k] / run.cal_s[k] for k in units]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "counts": "element, evaluation, iteration and byte counts are computed from "
        "argument sizes and return values in the benchmark's wrappers",
        "instrumentation": "no hardware counters and no machine-wide tracing were used",
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def scaled_setup_s(setup: list[float], ref: list[float]) -> float:
    """Median set-up time over median reference-import time, in seconds of a
    machine where the reference import takes ``REFERENCE_IMPORT_S``."""
    import calibration

    return statistics.median(setup) / statistics.median(ref) * calibration.REFERENCE_IMPORT_S


def end_to_end(workload: Workload, run: Run, setup: list[float], ref: list[float]
               ) -> tuple[dict, dict, dict]:
    """Gated metrics (BENCHMARK.json ``end_to_end``) and reported-only ones."""
    import calibration

    samples = run.unit_s
    attempted = len(samples)
    if workload.cli:
        rss = max(run.rss_mb)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    value, pct, count = tail(samples)
    rel = ratios(run, range(attempted))
    gated = {
        "unit_cal.p50": (statistics.median(rel), "cal"),
        "setup_s": (scaled_setup_s(setup, ref), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_frac": ((attempted - run.failed_units) / attempted, "frac"),
    }
    reported = {
        "units_per_s": (attempted / sum(samples), "1/s"),
        "unit_s.p50": (statistics.median(samples), "s"),
        "unit_s.tail": (value, "s"),
        "cal_s.p50": (statistics.median(run.cal_s), "s"),
        "failed_frac": (run.failed_units / attempted, "frac"),
    }
    notes = {
        "unit_cal.p50": "median over units of unit time / reference computation time",
        "unit_s.tail": f"p{pct:.2f} of {count} samples",
        "setup_s": f"median of {len(setup)} fresh-process set-ups {statistics.median(setup):.4f} s "
        f"over median of {len(ref)} reference imports {statistics.median(ref):.4f} s, "
        f"times {calibration.REFERENCE_IMPORT_S} s",
        "peak_rss_mb": "largest child" if workload.cli else "benchmark process",
        "failed_frac": f"{run.failed_units} of {attempted} units",
    }
    return gated, reported, notes


def per_layer(tracer, run: Run, imports: list[float], bare: list[float]) -> tuple[dict, dict]:
    import layers

    traced_units = [k for k, t in enumerate(run.traced) if t]
    untraced_units = [k for k, t in enumerate(run.traced) if not t]
    flat = layers.per_layer_metrics(spans.per_unit_totals(tracer, traced_units))
    import_s = statistics.median(imports) - statistics.median(bare)
    metrics = {"cli.import_s": (import_s, "s"), **flat}

    overhead = (
        statistics.median(run.unit_s[k] for k in traced_units)
        / statistics.median(run.unit_s[k] for k in untraced_units) - 1.0
    )
    metrics["trace.overhead_frac"] = (overhead, "frac")
    notes = {
        "cli.import_s": f"median of {len(imports)} imports {statistics.median(imports):.4f} s "
        f"minus median of {len(bare)} bare starts {statistics.median(bare):.4f} s",
        "trace.overhead_frac": f"unit_s.p50 of {len(traced_units)} traced units over "
        f"that of {len(untraced_units)} untraced units run before them, minus 1",
    }
    return metrics, notes


# ---------------------------------------------------------------- main


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare_process() -> None:
    """One BLAS thread, and one CPU for this process and its children, so the
    reference computation and the unit after it run on the same CPU.
    Children import recal from the checkout's sources."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "recal" / "__init__.py").is_file():
        print(f"perfbench: no recal sources under {SRC}; run from the root of a "
              "recal checkout", file=sys.stderr)
        return 2
    prepare_process()
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        print(repr(build_inputs(workload, args.seed).setup_s))
        return 0
    children = Spawner() if workload.cli else None
    try:
        return measure(args, workload, children)
    finally:
        if children is not None:
            children.close()


def measure(args, workload: Workload, children: Spawner | None) -> int:
    """Set up, run the units, and report; the exit code of the run."""
    inputs = build_inputs(workload, args.seed)
    import recal

    if Path(recal.__file__).resolve().parent != SRC / "recal":
        print(f"perfbench: imported recal from {recal.__file__}, not {SRC}", file=sys.stderr)
        return 2

    runner = Runner(workload, inputs, children)
    if args.trace == 0:
        setup, ref = probe_setup(workload, args.seed)
        runner.loop(args.seconds)
        metrics, reported, notes = end_to_end(workload, runner.run, setup, ref)
        tracer = None
    else:
        imports, bare = probe_cli_import()
        runner.loop(args.seconds / 2)
        tracer = spans.Tracer()
        runner.trace_on(tracer)
        runner.loop(args.seconds / 2)
        tracer.uninstall()
        metrics, notes = per_layer(tracer, runner.run, imports, bare)
        reported = {}

    run = runner.run
    attempted = len(run.unit_s)
    correct = run.failed_units == 0
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT / f"spans_{stem}.npz")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "n": workload.n,
        "methods": workload.methods,
        "params": [{"case": c.label, **(c.params or {})} for c in inputs.cases],
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_inproc_s": inputs.setup_s,
        "unit_s": run.unit_s,
        "cal_s": run.cal_s,
        "unit_traced": run.traced,
        "correct": correct,
        "attempted": attempted,
        "failed": run.failed_units,
        "failures": run.failures[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "notes": notes,
    }
    if args.trace == 0:
        record["setup_s_samples"] = setup
        record["reference_import_s_samples"] = ref
    result_path = OUT / f"result_{stem}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{workload.name} seed={args.seed} n={workload.n}: {attempted} units, "
          f"{run.failed_units} failed")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    for name, (value, unit) in {**metrics, **reported}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": run.failed_units,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
