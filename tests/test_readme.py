"""The README's library example runs as written, its command lines parse,
its JSON configs are accepted by their commands, and the calls it names
list the parameters of the callables they name."""

import inspect
import json
import re
import shlex
from pathlib import Path

import pytest

import tomolab
from tomolab import cli
from tomolab.cli import build_parser, main
from tomolab.lab import PatchCatchTrial, RecoveryRow

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


def _json_blocks() -> list[dict]:
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return [json.loads(block) for block in blocks]


# the block's marker field -> its command and that command's driver, with a stub result
_COMMANDS = {
    "n_grid": (
        "recovery-prob", "recovery_probability_experiment", [RecoveryRow(100, 1, 1, 1.0, 1.0, 1.0)]
    ),
    "probe_limit": ("patch-catch", "patch_catch_experiment", [PatchCatchTrial(0, 0.0, [0.0])]),
}


def test_json_blocks_are_one_per_command():
    markers = [[key for key in _COMMANDS if key in block] for block in _json_blocks()]
    assert sorted(markers) == [["n_grid"], ["probe_limit"]]


@pytest.mark.parametrize("marker", list(_COMMANDS))
def test_json_block_is_accepted(marker, tmp_path, capsys, monkeypatch):
    # the driver is stubbed: every field is read and checked, and nothing runs
    (config,) = [block for block in _json_blocks() if marker in block]
    command, driver, result = _COMMANDS[marker]
    seen = []
    monkeypatch.setattr(cli, driver, lambda cfg, threads=None: seen.append(cfg) or result)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert len(seen) == 1 and seen[0].trials == config["trials"]


def _resolve(name: str):
    """The tomolab callable a README call names, or ``None``.

    A dotted name is looked up attribute by attribute from ``tomolab`` or
    one of its exports; a bare one is an export, or else the one exported
    class's method of that name.
    """
    head, *rest = name.split(".")
    if rest or hasattr(tomolab, head):
        target = tomolab if head == "tomolab" else getattr(tomolab, head, None)
        for attr in rest:
            target = getattr(target, attr, None)
        return target
    owners = [
        cls for cls in vars(tomolab).values() if inspect.isclass(cls) and name in vars(cls)
    ]
    assert len(owners) <= 1, f"{name} is a method of {owners}"
    return getattr(owners[0], name) if owners else None


def test_call_signatures_match():
    calls = re.findall(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`", README.read_text(encoding="utf-8"))
    checked = 0
    for name, arglist in calls:
        target = _resolve(name)
        if not callable(target):
            continue
        params = [p for p in inspect.signature(target).parameters if p != "self"]
        args = [arg.split("=")[0].strip() for arg in arglist.split(",") if arg.strip()]
        assert args == params[: len(args)], f"`{name}({arglist})` against {params}"
        checked += 1
    assert checked == 7
