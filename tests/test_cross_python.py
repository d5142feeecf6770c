"""The reports are byte-identical on every installed Python from 3.10 to 3.13.

Each interpreter runs `run_pipeline` in a subprocess, without click, on
the bundled data and on the benchmark's small generated `smoke` set
(seed 1, written once by the running interpreter), and `parse_inputs` on
copies of the bundled data with a NUL byte in one file, and `report --all`
through the command line entry point on the bundled data. Interpreters are
looked up among pyenv's versions (`$PYENV_ROOT`, by default `~/.pyenv`).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import run_from_the_command_line

ROOT = Path(__file__).resolve().parent.parent
RUN = """
import hashlib, json, sys, tempfile
from pathlib import Path
from stockdim.reporting import BACKTEST_CSV, REPORT, RunConfig, run_pipeline

hashes = {}
for data in map(Path, sys.argv[1:]):
    for label, artifacts, include_all in (("report", REPORT, False), ("report --all", REPORT, True),
                                          ("backtest --all", (BACKTEST_CSV,), True)):
        with tempfile.TemporaryDirectory() as out:
            config = RunConfig(data / "deliveries.csv", data / "catalog.csv", data / "stock.csv", Path(out),
                               2019, 3, 2022, include_all=include_all)
            run_pipeline(config, artifacts)
            for name in artifacts:
                hashes[f"{data.name} {label}: {name}"] = hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
assert "click" not in sys.modules
print(json.dumps(hashes))
"""


NUL_RUN = """
import json, sys
from pathlib import Path
from stockdim import InputError, parse_inputs

errors = {}
for data in map(Path, sys.argv[1:]):
    try:
        parse_inputs(data / "deliveries.csv", data / "catalog.csv", data / "stock.csv", 2019, 3)
    except InputError as exc:
        errors[data.name] = str(exc)
print(json.dumps(errors))
"""


def other_pythons():
    """Each pyenv Python 3.10 to 3.13 that is not the one running the tests."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    this = Path(sys.executable).resolve()
    return [python for python in sorted(versions.glob("3.1[0-3]*/bin/python3"))
            if python.resolve() != this and python.is_file()]


def report_hashes(python, datasets, script=RUN):
    done = subprocess.run(
        [str(python), "-c", script, *map(str, datasets)], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert done.returncode == 0, f"{python}: {done.stderr}"
    return json.loads(done.stdout)


def test_every_python_from_3_10_writes_the_same_bytes(tmp_path):
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other Python 3.10 to 3.13 found: no file was compared")
    sys.path.insert(0, str(ROOT / "stockbench"))
    try:
        from workloads import generate
    finally:
        sys.path.remove(str(ROOT / "stockbench"))
    generate("smoke", 1, tmp_path / "smoke")
    datasets = (ROOT / "data", tmp_path / "smoke")
    expected = report_hashes(sys.executable, datasets)
    assert len(expected) == 2 * 13
    for python in pythons:
        assert report_hashes(python, datasets) == expected, python


def test_every_python_from_3_10_ends_a_command_line_run_with_every_file_and_line(bundled_paths, tmp_path):
    # `main()` freezes the heap of a command line run; its exit must still flush and write everything
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other Python 3.10 to 3.13 found: no run was checked")
    for python in pythons:
        run_from_the_command_line(python, bundled_paths, tmp_path / python.parent.parent.name)


def test_every_python_from_3_10_refuses_a_nul_byte_alike(tmp_path):
    # `csv` refuses a NUL before Python 3.11 and reads it as cell text from 3.11
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other Python 3.10 to 3.13 found: no outcome was compared")
    datasets, messages = [], {}
    for name, offset in (("deliveries", 30000), ("catalog", 1000), ("stock", 300)):
        data = tmp_path / f"nul-in-{name}"
        shutil.copytree(ROOT / "data", data)
        text = bytearray((data / f"{name}.csv").read_bytes())
        text[offset] = 0
        (data / f"{name}.csv").write_bytes(bytes(text))
        datasets.append(data)
        messages[data.name] = f"{data / name}.csv: cannot read file (NUL at byte {offset})"
    expected = report_hashes(sys.executable, datasets, NUL_RUN)
    assert expected == messages
    for python in pythons:
        assert report_hashes(python, datasets, NUL_RUN) == expected, python
