"""The README's examples run as written: every `qchar` line of the "Command
line" block exits 0, and the "Library" snippet executes.  Its "Caches" table
lists every memo of `qchar.MEMOS` with its bound."""

import pathlib
import re
import shlex

import pytest

import qchar
from qchar.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def section(title: str) -> str:
    """The text under the `## title` heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def code_block(title: str, lang: str) -> str:
    """The first fenced `lang` block under the `## title` heading."""
    return re.search(rf"```{lang}\n(.*?)```", section(title), re.S).group(1)


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


def test_cache_table_lists_every_memo_with_its_bound():
    rows = [line.split("|")[1:4] for line in section("Caches").splitlines() if line.startswith("| `")]
    bounds = {name.strip(" `"): bound.strip() for name, _, bound in rows}
    assert list(bounds) == list(qchar.MEMOS)
    for name, bound in bounds.items():
        base, _, exp = bound.partition("^")
        assert int(base) ** int(exp or 1) == qchar.MEMOS[name].cache_info().maxsize, name
