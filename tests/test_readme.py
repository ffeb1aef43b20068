"""The README's command lines run as written and exit 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from qotlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The arguments of every `qotlab ...` line in the README's fenced
    blocks, in the order they appear."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.S | re.M)
    return [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("qotlab ")
    ]


def test_every_readme_command_exits_zero(tmp_path):
    """Run in process, with the transcript directory `workdir` placed in a
    temporary directory; the commit, open and verify lines run in order."""
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"rot", "ot12", "attack", "commit", "open", "verify"}
    workdir = str(tmp_path / "workdir")
    for argv in commands:
        argv = [workdir if arg == "workdir" else arg for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
