"""The README's interactive examples run as doctests."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


class MarkdownParser(doctest.DocTestParser):
    """Blanks the code-fence lines, so a fence ends an example's expected output."""

    def parse(self, string, name="<string>"):
        return super().parse(re.sub(r"^```.*$", "", string, flags=re.M), name)


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False, parser=MarkdownParser())
    assert result.attempted > 0
    assert result.failed == 0
