"""The package's public names, each layer's ``__all__`` listed once, and its start-up imports."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mechfield
from mechfield import errors, fields, mechanics, solver, vectors
from mechfield.cli import EXIT_OK, main

LAYERS = (errors, vectors, solver, mechanics, fields)


def test_all_concatenates_the_layers_in_order():
    assert mechfield.__all__ == [name for layer in LAYERS for name in layer.__all__]
    assert len(set(mechfield.__all__)) == len(mechfield.__all__)


def test_every_public_name_resolves_to_its_layers_object():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(mechfield, name) is getattr(layer, name)


def test_startup_and_smallest_runs_import_neither_dataclasses_nor_inspect(child):
    script = Path(__file__).resolve().parent / "startup_modules.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=child.env, timeout=child.timeout)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "mechfield.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_readme_python_blocks_run(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    quick_start, integrator = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    exec(quick_start, {})
    *trajectory, field = capsys.readouterr().out.splitlines()
    assert len(trajectory) == 5 and trajectory[0] == "0.0 1.0"
    components = re.fullmatch(r"Vec3\(x=(\S+), y=(\S+), z=(\S+)\)", field).groups()
    assert [float(c) for c in components] == pytest.approx([0.0, 0.0, 6.2832e-07], rel=1e-4, abs=1e-15)
    namespace = {}
    exec(integrator, namespace)
    assert next(namespace["orbit"]) == (0.0, 7e6, 0.0, 0.0, 0.0, 7548.57, 0.0)


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```$", readme, re.M | re.S).group(1)
    printed = dict(re.findall(r"^mechfield (.*)\n# -> (.*)$", block, re.M))  # a command's output, as its comment gives it
    assert list(printed.values()) == ["0,0,6.28317497e-07"]
    monkeypatch.chdir(tmp_path)
    commands = re.findall(r"^mechfield (.*)$", block, re.M)
    for command in commands:
        assert main(shlex.split(command)) == EXIT_OK, command
        out = capsys.readouterr().out
        if command in printed:
            assert out == printed[command] + "\n"
    assert len(commands) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["axis.csv", "three_body.csv"]
