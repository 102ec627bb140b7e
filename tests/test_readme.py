"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    # one recovery row per size in the example's grid
    assert len(namespace["rows"]) == 2
