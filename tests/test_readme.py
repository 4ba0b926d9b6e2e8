"""The README's Python API and command-line examples run and print what their
comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from rho_tensor.cli import EXIT_OK, main

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


def test_command_line_block_runs_and_holds_its_comments(tmp_path, monkeypatch):
    monkeypatch.setenv("RHO_TENSOR_CACHE", str(tmp_path / "cache"))
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```\n(.*?)^```", text, re.M | re.S).group(1)
    outputs, comments = {}, {}
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        for part in command.split("&&"):
            word, *argv = shlex.split(part)
            assert word == "rho-tensor"
            out = io.StringIO()
            assert main(argv, out=out) == EXIT_OK, part
            outputs[" ".join(argv)] = out.getvalue().splitlines()
        comments[command.strip()] = comment.strip()
    assert len(outputs) == 15
    assert comments["rho-tensor decompose B2 5,5 2,2"].startswith("34 components")
    assert len(outputs["decompose B2 5,5 2,2"]) == 34
    assert comments["rho-tensor conjecture G2 5 2"] == "HOLDS, exit 0"
    assert "verdict=HOLDS" in outputs["conjecture G2 5 2"][0]
    assert comments["rho-tensor naive-scan B2 5 2"].startswith("the 16 weights")
    head, *weights = outputs["naive-scan B2 5 2"]
    assert head.startswith("16 dominant weights") and len(weights) == 16
    assert comments["rho-tensor conjecture A1~ 2 1 --depth 6"] == "DEPTH_LIMITED report"
    assert "verdict=DEPTH_LIMITED" in outputs["conjecture A1~ 2 1 --depth 6"][0]
    # the warmed tables, besides those the commands before it stored
    warmed = int(outputs["cache warm B2 --up-to 7,7"][0].split()[1])
    head, *files = outputs["cache stat"]
    assert int(head.split()[0]) == len(files) >= warmed
    assert any(line.split()[0] == "B2.7_7.char" for line in files)
