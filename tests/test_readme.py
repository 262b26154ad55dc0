"""The README's python quick tour runs and its CLI lines parse, so renamed APIs and flags cannot go stale there."""

import pathlib
import re
import shlex

from tensorcrit import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md quick tour", "exec"), {})
    assert capsys.readouterr().out.rstrip().endswith("True True")


def test_readme_cli_lines_parse():
    # parsing only: a stale flag or subcommand exits 2 through argparse
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```\n(.*?)```", text[text.index("## CLI"):], re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("tensorcrit ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
