"""The README's examples, run against the package: the library example as a
doctest, and every `$ pisano ...` line of a `text` block through
`python -m pisano`, whose stdout must be the lines below it, with exit 0."""

import doctest
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_readme_python_blocks_run_as_doctests():
    blocks = re.findall(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)
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


def cli_examples():
    """(command, expected stdout) for each `$ pisano ...` line of the
    README's text blocks; the output runs to the next `$ ` line."""
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```$", TEXT, re.S | re.M):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ pisano "):
                command, _, expected = chunk.partition("\n")
                examples.append((command[2:], expected))
    return examples


EXAMPLES = cli_examples()


def test_the_readme_has_cli_examples():
    assert EXAMPLES, "the README has no `$ pisano ...` example"


@pytest.mark.parametrize("command, expected", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_readme_cli_example(command, expected):
    argv = shlex.split(command)[1:]
    proc = subprocess.run([sys.executable, "-m", "pisano", *argv],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, expected), proc.stderr
