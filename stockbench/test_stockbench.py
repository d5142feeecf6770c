"""Tests of the benchmark itself, on the tiny `smoke` shape; they run in seconds."""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(HERE), str(REPO / "src")]

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import CATALOG, DELIVERIES, STOCK, WORKLOADS, generate  # noqa: E402


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_generator_is_deterministic_per_seed(tmp_path):
    for label, seed in (("a", 1), ("b", 1), ("c", 2)):
        generate("smoke", seed, tmp_path / label)
    for name in (DELIVERIES, CATALOG, STOCK):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / DELIVERIES).read_bytes() != (tmp_path / "c" / DELIVERIES).read_bytes()


def test_generated_inputs_keep_the_fallback_cases(tmp_path):
    shape = WORKLOADS["smoke"].shape
    stats = generate("smoke", 1, tmp_path)
    deliveries = _rows(tmp_path / DELIVERIES)
    catalog = [row["product_id"] for row in _rows(tmp_path / CATALOG)]
    stocked = {row["product_id"] for row in _rows(tmp_path / STOCK)}
    delivered = {row["product_id"] for row in deliveries}

    assert stats == {"rows": len(deliveries), "products": shape.products}
    assert catalog[shape.never_delivered] not in delivered
    assert set(stocked) == set(catalog) - {catalog[shape.no_stock]}
    months = [(row["product_id"], row["date"][:7]) for row in deliveries]
    assert len(set(months)) < len(months)  # split delivery lines
    assert {len(row["date"]) for row in deliveries} == {7, 10}  # YYYY-MM and YYYY-MM-DD


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.BENCHMARK_WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert set(json.loads(run.PINNED.read_text(encoding="utf-8"))["hashes"]) == set(WORKLOADS)


def test_self_time_subtracts_child_spans():
    spans = [
        ("root", "cli", 0.0, 10.0, -1),
        ("a", "reporting", 1.0, 6.0, 0),
        ("b", "ingestion", 2.0, 5.0, 1),
        ("c", "ingestion", 7.0, 8.0, 0),
    ]
    assert dict(self_times(spans)) == {"cli": 4.0, "reporting": 2.0, "ingestion": 4.0}


def test_tracer_spans_nest_and_uninstall_restores():
    import stockdim
    import stockdim.dimensioning as dimensioning

    original = dimensioning.strategic_stock
    tracer = Tracer(stockdim, {"dimensioning.plan_products": len})
    tracer.install()
    try:
        assert dimensioning.strategic_stock is not original
        stockdim.plan_products({"P1": 10, "P2": 0}, {"P1": 3, "P2": 0})
    finally:
        tracer.uninstall()
    assert dimensioning.strategic_stock is original
    assert stockdim.plan_products is dimensioning.plan_products

    spans = tracer.spans
    assert [(name, parent) for name, _, _, _, parent in spans] == [
        ("plan_products", -1),
        ("strategic_stock", 0), ("order_quantity", 0),
        ("strategic_stock", 0), ("order_quantity", 0),
    ]
    own = self_times(spans)
    assert own["dimensioning"] == pytest.approx(spans[0][3] - spans[0][2])
    assert tracer.observed["dimensioning.plan_products"] == [2]


def _write_report(out_dir: Path, qc=("2.5", "0.0"), pallets=("1", "2"), volumes=("0.1", "0.2")):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "plan.csv").write_text(
        "product_id,M,QS,on_hand,QC,status\n"
        + "".join(f"P{i},1,4,0,{q},UNDERSTOCK\n" for i, q in enumerate(qc)), encoding="utf-8")
    (out_dir / "volume.csv").write_text(
        "product_id,boxes,cartons,cartons_per_pallet,orientation,pallets,total_volume_m3\n"
        + "".join(f"P{i},4,1,1,1x1x1,{p},{v}\n" for i, (p, v) in enumerate(zip(pallets, volumes))),
        encoding="utf-8")
    summary = {
        "products_planned": len(qc),
        "total_qc_boxes": sum(float(q) for q in qc),
        "total_pallets": sum(int(p) for p in pallets),
        "total_volume_m3": sum(float(v) for v in volumes),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary), encoding="utf-8")


def test_output_check_catches_changed_missing_and_inconsistent_files(tmp_path):
    files = ("plan.csv", "volume.csv", "summary.json")
    check = run.OutputCheck(files, pinned=None)
    _write_report(tmp_path)
    assert check(tmp_path) == []
    assert check.output_bytes == sum((tmp_path / f).stat().st_size for f in files)

    (tmp_path / "volume.csv").unlink()
    assert check(tmp_path) == ["volume.csv is missing"]

    _write_report(tmp_path, volumes=("0.1", "0.3"))
    problems = check(tmp_path)
    assert any("volume.csv sha256" in p for p in problems)

    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    summary["total_pallets"] += 1
    (tmp_path / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    assert any(p.startswith("summary.json total_pallets") for p in check(tmp_path))

    (tmp_path / "summary.json").write_text("{", encoding="utf-8")
    assert any(p.startswith("cannot recompute the summary.json totals") for p in check(tmp_path))


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path("stockbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, metrics", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_smoke_run_passes_its_checks(trace, metrics):
    done = _bench(REPO, "--workload", "smoke", "--seed", "1", "--seconds", "2.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {name: m["unit"] for name, m in result["metrics"].items()} == metrics


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "stockbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "deep-history", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "no stockdim source" in done.stderr
