"""The README's library example, run as a doctest against the package."""

import doctest
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_as_doctests():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert blocks, "the README has no fenced python block"
    parser = doctest.DocTestParser()
    for i, block in enumerate(blocks):
        name = f"README.md python block {i}"
        test = parser.get_doctest(block, {}, name, str(README), 0)
        out = io.StringIO()
        runner = doctest.DocTestRunner()
        result = runner.run(test, out=out.write)
        assert result.attempted > 0, test.name
        assert result.failed == 0, out.getvalue()
