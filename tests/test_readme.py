"""The README's worked ``python`` example, run as a doctest."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_worked_example():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted == 6
    assert result.failed == 0
