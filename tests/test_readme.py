"""The README's examples run as written: every `qchar` line of the "Command
line" block exits 0, and the "Library" snippet executes."""

import pathlib
import re
import shlex

import pytest

from qchar.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_block(section: str, lang: str) -> str:
    """The first fenced `lang` block under the `## section` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


COMMANDS = [
    line for line in code_block("Command line", "sh").splitlines() if line.startswith("qchar ")
]


def test_command_block_is_found():
    assert len(COMMANDS) == 5


@pytest.mark.parametrize("line", COMMANDS, ids=lambda line: line.split()[1])
def test_command_line_example_exits_zero(capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().err == ""


def test_library_snippet_runs(capsys):
    exec(compile(code_block("Library", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out
