"""The README's command-line examples, run as they are written.

Each ``$ gammalab ...`` line of a ``sh`` block is run through
``gammalab.cli.main`` in a directory holding the presentation the README
describes, and its standard output must equal, line for line, the lines
printed under it.
"""

import json
import shlex
from pathlib import Path

import pytest

from gammalab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """``(command, expected lines)`` for each ``$ gammalab`` line."""
    examples = []
    in_sh = False
    current = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
            current = None
        elif in_sh and line.startswith("$ gammalab "):
            current = []
            examples.append((line[2:], current))
        elif current is not None:
            current.append(line)
    return examples


EXAMPLES = readme_examples()


def test_the_readme_shows_its_examples():
    assert len(EXAMPLES) == 5


@pytest.mark.parametrize("command, expected", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(command, expected, tmp_path,
                                             monkeypatch, capsys):
    (tmp_path / "presentation.json").write_text(
        json.dumps({"ngens": 1, "relations": [[2]]}), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.splitlines() == expected
