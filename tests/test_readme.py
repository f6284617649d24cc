"""Every command line of the README's "Command line" block runs and prints
a finite table."""

import math
import os
import re
import shlex

import pytest

from hardycap.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_commands():
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    # join continuation lines, then drop trailing comments
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("hardycap ")]


COMMANDS = _readme_commands()


def test_all_seven_found():
    assert len(COMMANDS) == 7
    assert all(argv[0] == "hardycap" for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[1] for argv in COMMANDS])
def test_runs_and_prints_finite_fields(argv, capsys):
    assert main(argv[1:]) == 0
    header, *rows = capsys.readouterr().out.strip().split("\n")
    assert rows
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(header.split(","))
        for field in fields:
            if field not in ("true", "false"):
                assert math.isfinite(float(field)), (argv, row)
