import inspect
import re
import shlex
import shutil
from pathlib import Path

import stockdim
from conftest import invoke

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_documented_lower_level_piece_is_importable_from_stockdim():
    sentence = re.search(r"Lower-level pieces \((.*?)\) are importable", README.read_text(encoding="utf-8"), re.S)
    names = re.findall(r"`(\w+)`", sentence.group(1))
    assert "forecast_year" in names and "backtest" in names
    assert [name for name in names if not hasattr(stockdim, name)] == []


def test_the_readme_names_every_public_name_of_stockdim():
    text = README.read_text(encoding="utf-8")
    public = [name for name, value in vars(stockdim).items()
              if not name.startswith("_") and not inspect.ismodule(value)]
    assert "run_pipeline" in public and "DEFAULT_PALLET" in public
    assert [name for name in public if not re.search(rf"`(\w+\.)*{name}\b", text)] == []


def test_every_python_block_of_the_readme_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.S | re.M))
    assert len(blocks) >= 3
    shutil.copytree(README.parent / "data", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    for block in blocks:  # each padded to its README line, so a traceback names that line
        exec(compile("\n" * text.count("\n", 0, block.start(1)) + block.group(1), str(README), "exec"), {})


def test_every_cli_line_and_the_ini_example_of_the_readme_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    lines = [
        line
        for block in re.findall(r"^```\n(.*?)^```", text, re.S | re.M)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("stockdim ")
    ]
    ini = re.search(r"^```ini\n(.*?)^```", text, re.S | re.M).group(1)
    assert lines and "[paths]" in ini
    shutil.copytree(README.parent / "data", tmp_path / "data")
    (tmp_path / "run.ini").write_text(ini, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for args in [shlex.split(line)[1:] for line in lines] + [["plan", "--config", "run.ini"]]:
        result = invoke(args)
        assert result.exit_code == 0, (args, result.output)
