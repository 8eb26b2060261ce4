"""The README's library examples run, and every ``recal.<name>`` it
mentions resolves, so a renamed or deleted name cannot linger in the docs."""

import re
from pathlib import Path

import pytest

import recal
from recal import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_library_use_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", _section("Library use"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert "FJS" in capsys.readouterr().out


def test_table_block_is_what_the_cli_prints(capsys):
    block = re.search(r"`recal table` prints.*?```\n(.*?)```", _section("CLI"), re.S)
    assert cli.main(["table", "--scenario", str(recal.example_scenario_path())]) == 0
    assert capsys.readouterr().out == block.group(1)


MENTIONED = sorted(
    {name.rstrip(".") for name in re.findall(r"\brecal\.([A-Za-z_][\w.]*)", README)}
)


def test_mentions_include_a_submodule_constant():
    assert "dist_core.MAX_TRIALS" in MENTIONED


@pytest.mark.parametrize("dotted", MENTIONED)
def test_every_mentioned_name_resolves(dotted):
    obj = recal
    for part in dotted.split("."):
        assert hasattr(obj, part), f"README mentions recal.{dotted}, which does not resolve"
        obj = getattr(obj, part)
