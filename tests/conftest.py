import csv
import os
from pathlib import Path

import pytest

from stockdim import ingestion

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def bundled_paths():
    """The bundled 50-product synthetic dataset."""
    return {
        "deliveries": DATA_DIR / "deliveries.csv",
        "catalog": DATA_DIR / "catalog.csv",
        "stock": DATA_DIR / "stock.csv",
    }


def write_csv(path: Path, header: str, rows) -> Path:
    lines = [header] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def with_an_over_long_field(path, target, index):
    """A copy of `path` whose data row `index` (0 the first, -1 the last) has its id padded past `csv.field_size_limit()`."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    pid, _, fields = rows[index].partition(",")
    rows[index] = f"{pid}{' ' * csv.field_size_limit()},{fields}"
    target.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return target


@pytest.fixture
def tiny_inputs(tmp_path):
    """A minimal well-formed three-file input set (2 products, 2 years)."""
    deliveries = write_csv(
        tmp_path / "deliveries.csv",
        "product_id,date,quantity",
        [
            ("P1", "2020-01", 10),
            ("P1", "2020-03-15", 50),
            ("P1", "2021-03", 60),
            ("P2", "2021-07", 5),
        ],
    )
    catalog = write_csv(
        tmp_path / "catalog.csv",
        "product_id,name,unit_price,urgency,boxes_per_carton,carton_l_mm,carton_w_mm,carton_h_mm",
        [
            ("P1", "Alpha", 2.5, 0, 10, 400, 300, 200),
            ("P2", "Beta", 4.0, 1, 6, 300, 300, 300),
        ],
    )
    stock = write_csv(
        tmp_path / "stock.csv",
        "product_id,on_hand",
        [("P1", 20), ("P2", 0)],
    )
    return {"deliveries": deliveries, "catalog": catalog, "stock": stock}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch):
    """A list that gets one entry per `os.fork` call, which still forks."""
    forks, real_fork = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.fixture
def two_cpus(monkeypatch):
    """Let `write_reports` and `parse_inputs` fork, also on a machine of one CPU."""
    if not hasattr(os, "fork"):
        pytest.skip("os.fork does not exist here")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def split_fold(two_cpus, monkeypatch):
    """Let `parse_inputs` fold even a small delivery file in two processes."""
    monkeypatch.setattr(ingestion, "SPLIT_FLOOR", 0)
