"""The traced benchmark's lookup sites resolve against the current ``recal``.

``perfbench/layers.py`` wraps ``recal`` functions at the module attributes
where their callers find them. A renamed or moved function would otherwise
only show when the benchmark runs with ``--trace 1``.
"""

from pathlib import Path

import recal.cli
from recal import eval_report, example_scenario_path, fjs_recalibrate, worked_example_scenario

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_hook_resolves_and_a_run_streams_curves_past_curves_to_csv(
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
    # the CLI writes the blocks of curves.csv as they are rendered and never
    # calls curves_to_csv, which cli imports only so that its hook resolves
    assert names.count("eval_report.curves_to_csv") == 0
    assert recal.cli.export_curves is eval_report.export_curves
    assert recal.cli.curves_to_csv is eval_report.curves_to_csv


def test_label_shift_and_fjs_links_reach_the_link_hook(monkeypatch, capsys):
    """Label shift evaluates its link once and FJS once per mean evaluation,
    each through the module attribute that the link hook wraps."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import layers
    import spans

    example = worked_example_scenario()
    fjs_evals = fjs_recalibrate(example.source, example.target).diagnostics.iterations
    assert fjs_evals > 0
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        code = recal.cli.main(
            ["table", "--scenario", str(example_scenario_path()), "--methods", "label_shift,fjs"]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("solvers.link") == 1 + fjs_evals
