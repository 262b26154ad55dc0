"""The README's python quick tour runs and its CLI lines parse, so renamed APIs and flags cannot go stale there."""

import pathlib
import re
import shlex

from tensorcrit import cli, solver

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


def test_readme_states_the_fixed_search_constants():
    # a retune of the solver's private constants must update the README's "fixed" sentence
    text = " ".join(README.read_text(encoding="utf-8").split())
    (sentence,) = re.findall(r"The step controls, .*? are fixed\.", text)
    stated = {
        "_NEWTON_ITERATIONS": r"(\d+) Newton iterations",
        "_MAX_BACKTRACKS": r"(\d+) step lengths",
        "_ASCENT_ITERATIONS": r"(\d+) ascent iterations",
        "_ALTERNATING_SWEEPS": r"(\d+) alternating sweeps",
        "_RANK_CHECK_ITERATIONS": r"rank check at every (\d+)th Newton iteration",
        "_ASCENT_STARTS": r"(\d+) ascent starts",
        "_DEDUPE_TOLERANCE": r"dedupe radius (\S+) ",
    }
    for name, pattern in stated.items():
        assert float(re.search(pattern, sentence).group(1)) == getattr(solver, name), name
    # the creep rule, and the edge between the two batches of step lengths stacked after the full step
    count, exponent = re.search(r"once (\w+) steps in a row were damped to length 2\^(-\d+) or shorter", text).groups()
    assert "zero one two three four five six seven eight nine ten".split().index(count) == solver._CREEP_ITERATIONS
    assert 2.0 ** int(exponent) == solver._CREEP_STEP
    # at every ray degree
    edge = re.search(r"lengths from 1/(\d+) to 2\^(-\d+) at once, then 2\^(-\d+) to 2\^(-\d+)", text).groups()
    first, second = solver._BATCHES
    stated = [1.0 / int(edge[0])] + [2.0 ** int(e) for e in edge[1:]]
    assert stated == solver._ALPHAS[[first[0, 0], first[0, -1], second[0, 0], second[0, -1]]].tolist()
