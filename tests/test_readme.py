import re
from pathlib import Path

import stockdim

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_documented_lower_level_piece_is_importable_from_stockdim():
    sentence = re.search(r"Lower-level pieces \((.*?)\) are importable", README.read_text(encoding="utf-8"), re.S)
    names = re.findall(r"`(\w+)`", sentence.group(1))
    assert "forecast_year" in names and "backtest" in names
    assert [name for name in names if not hasattr(stockdim, name)] == []
