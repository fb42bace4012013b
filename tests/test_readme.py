"""The README's interactive examples run as doctests, and its shell sessions
replay through the CLI."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from reluctant_walk.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


class MarkdownParser(doctest.DocTestParser):
    """Blanks the code-fence lines, so a fence ends an example's expected output."""

    def parse(self, string, name="<string>"):
        return super().parse(re.sub(r"^```.*$", "", string, flags=re.M), name)


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False, parser=MarkdownParser())
    assert result.attempted > 0
    assert result.failed == 0


def _sessions() -> list[tuple[str, str]]:
    """(command, expected stdout) of each ``$ reluctant-walk ...`` line in a
    README code fence; the output runs to the next ``$`` line or the fence."""
    sessions = []
    for block in re.findall(r"^```.*?\n(.*?)^```", README.read_text(), flags=re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, expected = chunk.partition("\n")
            sessions.append((command, expected.rstrip("\n") + "\n"))
    return sessions


SESSIONS = _sessions()


def test_readme_has_cli_sessions():
    assert len(SESSIONS) >= 3


@pytest.mark.parametrize("command, expected", SESSIONS, ids=[c for c, _ in SESSIONS])
def test_readme_cli_session(tmp_path, monkeypatch, capsys, command, expected):
    # a trailing `&& head -N FILE` reads the first N lines of the file written
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RELUCTANT_WALK_OUTDIR", raising=False)
    command, _, head = command.partition(" && ")
    program, *argv = shlex.split(command)
    assert program == "reluctant-walk"
    assert main(argv) == 0
    out = capsys.readouterr().out
    if head:
        tool, count, name = shlex.split(head)
        assert tool == "head" and count.startswith("-")
        out += "".join(Path(name).read_text().splitlines(keepends=True)[:int(count[1:])])
    assert out == expected
