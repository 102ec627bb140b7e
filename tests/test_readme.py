"""The README's library example runs as written and its command lines parse."""

import re
import shlex
from pathlib import Path

from tomolab.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    # one recovery row per size in the example's grid
    assert len(namespace["rows"]) == 2


def test_command_lines_parse():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("tomolab ")]
    assert len(commands) == 6
    for argv in commands:
        build_parser().parse_args(argv[1:])
