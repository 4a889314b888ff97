"""README.md's examples: the library block prints what its comments say,
and every `opa` command of the shell block runs with exit code 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from opa import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def matches_rounded(printed: str, said: str) -> bool:
    """printed equals said with every number rounded to said's digits."""
    if NUMBER.sub("#", printed) != NUMBER.sub("#", said):
        return False
    for got, want in zip(NUMBER.findall(printed), NUMBER.findall(said)):
        digits = want.lstrip("+-").split("e")[0].split("E")[0].replace(".", "").lstrip("0")
        if float(f"{float(got):.{max(len(digits), 1)}g}") != float(want):
            return False
    return True


def test_matches_rounded():
    assert matches_rounded("0.24999999999999734 0.75 1e-14", "0.25 0.75 1e-14")
    assert matches_rounded("2.6645352591003757e-15", "2.7e-15")
    assert not matches_rounded("2.7284841053187847e-12", "1e-14")
    assert not matches_rounded("0 CPoly([(0.5+0j)])", "0, CPoly([0.5])")


def test_library_example_prints_its_comments():
    (code,) = blocks("python")
    said = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(said) == 3
    for got, want in zip(printed, said):
        assert matches_rounded(got, want), (got, want)


def test_shell_examples_exit_zero(capsys):
    commands = [
        shlex.split(line)
        for block in blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("opa ")
    ]
    assert len(commands) == 6
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        assert capsys.readouterr().out
