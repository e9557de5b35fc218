"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from quadcomp import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_blocks(lang: str) -> list:
    return re.findall(r"```%s\n(.*?)```" % lang, README, flags=re.S)


def test_readme_cli_examples_run(capsys):
    commands = [
        shlex.split(line, comments=True)
        for block in code_blocks("sh")
        for line in block.splitlines()
        if line.startswith("quadcomp ")
    ]
    assert len(commands) >= 10
    for argv in commands:
        rc = cli.main(argv[1:])
        out = capsys.readouterr().out
        assert rc in (0, 1) and out.strip(), argv


def test_readme_library_example_prints_its_comments(capsys):
    (block,) = code_blocks("python")
    assert "# 3716 irreducible words" in block
    assert "# True" in block
    assert "# the six irreducible quartic compositions" in block
    exec(block, {})
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["3716", "True"]
    quartics = out[2:]
    assert len(quartics) == len(set(quartics)) == 6
    assert all(len(poly.split(",")) == 5 and poly.endswith(",1") for poly in quartics)
