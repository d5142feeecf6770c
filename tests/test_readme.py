import re
import shutil
from pathlib import Path

import stockdim

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_documented_lower_level_piece_is_importable_from_stockdim():
    sentence = re.search(r"Lower-level pieces \((.*?)\) are importable", README.read_text(encoding="utf-8"), re.S)
    names = re.findall(r"`(\w+)`", sentence.group(1))
    assert "forecast_year" in names and "backtest" in names
    assert [name for name in names if not hasattr(stockdim, name)] == []


def test_every_python_block_of_the_readme_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.S | re.M))
    assert len(blocks) >= 3
    shutil.copytree(README.parent / "data", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    for block in blocks:  # each padded to its README line, so a traceback names that line
        exec(compile("\n" * text.count("\n", 0, block.start(1)) + block.group(1), str(README), "exec"), {})
