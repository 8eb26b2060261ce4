"""Run ``recal.cli.main`` with every layer wrapped; the traced CLI unit.

    python perfbench/cli_child.py SPANS.npz run --scenario ... --out ...

Writes the recorded spans to SPANS.npz and exits with the CLI's exit code.
"""

import sys

import layers
import spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    layers.install(tracer)
    import recal.cli

    try:
        return recal.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
