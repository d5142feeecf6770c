"""The benchmark's pinned report bytes, checked with no time window.

`stockbench/test_stockbench.py` checks the same bytes through a timed
benchmark run, which can end before its second iteration on a loaded
machine. This test makes the `smoke` inputs with the benchmark's own
generator and runs its CLI calls once, in one process and forked.
"""

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from conftest import count_forks, invoke

STOCKBENCH = Path(__file__).resolve().parent.parent / "stockbench"
PINNED = json.loads((STOCKBENCH / "pinned.json").read_text(encoding="utf-8"))


def _workloads():
    """stockbench/workloads.py, imported from its file (it is not a package)."""
    spec = importlib.util.spec_from_file_location("stockbench_workloads", STOCKBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """(workloads module, the smoke inputs of the pinned seed)."""
    workloads = _workloads()
    inputs = tmp_path_factory.mktemp("smoke")
    workloads.generate("smoke", PINNED["seed"], inputs)
    return workloads, inputs


@pytest.mark.parametrize("forked", [False, True], ids=["one-process", "forked"])
def test_the_smoke_workload_writes_the_pinned_bytes(forked, smoke, tmp_path, monkeypatch, request):
    workloads, inputs = smoke
    if forked:
        request.getfixturevalue("split_fold")  # the fold and the writer each fork once
    else:
        monkeypatch.delattr(os, "fork")
    forks = count_forks(monkeypatch) if forked else []
    out = tmp_path / "out"
    for call in workloads.cli_calls(workloads.WORKLOADS["smoke"], inputs, out):
        result = invoke(call)
        assert result.exit_code == 0, result.output
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert hashes == PINNED["hashes"]["smoke"]
    assert len(forks) == (3 if forked else 0)  # report folds and writes, backtest folds
