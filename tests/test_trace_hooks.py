"""The traced benchmark's lookup sites resolve against the current ``recal``.

``perfbench/layers.py`` wraps ``recal`` functions at the module attributes
where their callers find them. A renamed or moved function would otherwise
only show when the benchmark runs with ``--trace 1``.
"""

from pathlib import Path

import recal.cli
from recal import eval_report, example_scenario_path

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_hook_resolves_and_a_run_renders_each_curve_series_once(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import layers
    import spans

    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        code = recal.cli.main(
            ["run", "--scenario", str(example_scenario_path()), "--out", str(tmp_path)]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("cli.main") == 1
    assert names.count("eval_report.export_curves") == 1
    # one curves_to_csv call per series: source_pmf, target_pmf,
    # posterior_source and the worked example's 8 methods
    assert names.count("eval_report.curves_to_csv") == 11
    assert recal.cli.export_curves is eval_report.export_curves
    assert recal.cli.curves_to_csv is eval_report.curves_to_csv
