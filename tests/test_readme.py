"""The README's python quick tour runs as written, so renamed APIs cannot go stale there."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md quick tour", "exec"), {})
    assert capsys.readouterr().out.rstrip().endswith("True True")
