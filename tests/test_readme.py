"""The README's Python API example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_python_api_block_prints_its_commented_values():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Python API\n.*?^```python\n(.*?)^```", text, re.M | re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    commented = [(line.partition("#")[2].split()[0], value) for line, value in zip(prints, printed) if "#" in line]
    assert commented == [("5", "5"), ("HOLDS", "HOLDS"), ("[]", "[]")]
