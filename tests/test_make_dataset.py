import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_make_dataset_writes_the_bundled_files_byte_for_byte(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("make_dataset", ROOT / "scripts" / "make_dataset.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT_DIR = tmp_path
    script.main()
    names = sorted(path.name for path in (ROOT / "data").glob("*.csv"))
    assert sorted(path.name for path in tmp_path.iterdir()) == names == ["catalog.csv", "deliveries.csv", "stock.csv"]
    for name in names:
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes(), name
