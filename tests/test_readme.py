"""The README quick tour runs as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_examples():
    blocks = re.findall(r"^```pycon\n(.*?)^```", README.read_text(), re.M | re.S)
    parser = doctest.DocTestParser()
    test = parser.get_doctest("".join(blocks), {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert test.examples
    assert runner.failures == 0
