import csv
import json
from fractions import Fraction

import pytest

from conftest import write_csv
from stockdim.ingestion import InputError
from stockdim.reporting import (
    GAP_CSV,
    GapReport,
    PLAN_CSV,
    RunConfig,
    gap_kpi,
    run_pipeline,
)

CSV_NAMES = ("classification.csv", "forecast.csv", "plan.csv", "volume.csv", "gap.csv")


def make_config(paths, out_dir, **overrides):
    kwargs = dict(
        deliveries=paths["deliveries"],
        catalog=paths["catalog"],
        stock=paths["stock"],
        out_dir=out_dir,
        start_year=2019,
        n_years=3,
        target_year=2022,
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_gap_kpi_conventions():
    demand = {"A": 100, "B": 100, "C": 0}
    offered = {"A": 100, "B": 60, "C": 50}
    out = {g.product_id: g for g in gap_kpi(demand, offered, "2021")}
    assert out["A"].gap == 0 and out["A"].service_rate == 1.0
    assert out["B"].gap == 40 and out["B"].service_rate == 0.6
    assert out["C"].gap == -50 and out["C"].service_rate == 1.0
    with pytest.raises(AttributeError):
        out["A"].gap = 1
    assert out["B"] == ("B", "2021", 100, 60, 40, 0.6)
    assert GapReport._fields == ("product_id", "period", "demand", "offered", "gap", "service_rate")


def test_gap_kpi_rejects_mismatched_product_sets():
    with pytest.raises(ValueError, match="different product sets"):
        gap_kpi({"A": 1}, {"B": 1}, "2021")


def test_run_config_validation(bundled_paths, tmp_path):
    with pytest.raises(ValueError, match="must be after the window start"):
        make_config(bundled_paths, tmp_path, target_year=2019)
    with pytest.raises(ValueError, match="needs year 2024 of history"):
        make_config(bundled_paths, tmp_path, target_year=2025)
    with pytest.raises(ValueError, match="multiplier"):
        make_config(bundled_paths, tmp_path, multiplier=0)


def test_pipeline_writes_every_report(bundled_paths, tmp_path):
    result = run_pipeline(make_config(bundled_paths, tmp_path / "out"))
    for name in CSV_NAMES + ("summary.json",):
        assert (tmp_path / "out" / name).is_file()
    assert result.summary["products_planned"] == len(result.plans)


def test_pipeline_is_deterministic(bundled_paths, tmp_path):
    cfg1 = make_config(bundled_paths, tmp_path / "a")
    cfg2 = make_config(bundled_paths, tmp_path / "b")
    run_pipeline(cfg1)
    run_pipeline(cfg2)
    for name in CSV_NAMES + ("summary.json",):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_summary_totals_match_detail_columns(bundled_paths, tmp_path):
    out = tmp_path / "out"
    run_pipeline(make_config(bundled_paths, out))
    summary = json.loads((out / "summary.json").read_text())
    plan_rows = read_rows(out / "plan.csv")
    volume_rows = read_rows(out / "volume.csv")
    assert summary["products_planned"] == len(plan_rows)
    assert summary["total_qc_boxes"] == sum(float(r["QC"]) for r in plan_rows)
    assert summary["total_pallets"] == sum(int(r["pallets"]) for r in volume_rows)
    assert summary["total_volume_m3"] == sum(float(r["total_volume_m3"]) for r in volume_rows)


def test_default_mode_is_the_class_a_subset_of_all(bundled_paths, tmp_path):
    default_out = tmp_path / "default"
    all_out = tmp_path / "all"
    run_pipeline(make_config(bundled_paths, default_out))
    run_pipeline(make_config(bundled_paths, all_out, include_all=True))

    classes = {r["product_id"]: r["abc_class"] for r in read_rows(all_out / "classification.csv")}
    default_ids = {r["product_id"] for r in read_rows(default_out / PLAN_CSV)}
    all_ids = {r["product_id"] for r in read_rows(all_out / PLAN_CSV)}
    assert default_ids == {pid for pid, c in classes.items() if c == "A"}
    assert default_ids <= all_ids
    # identical classification regardless of subset mode
    assert (default_out / "classification.csv").read_bytes() == (
        all_out / "classification.csv"
    ).read_bytes()


def test_gap_rows_cover_annual_and_monthly_granularity(bundled_paths, tmp_path):
    out = tmp_path / "out"
    result = run_pipeline(make_config(bundled_paths, out))
    rows = read_rows(out / GAP_CSV)
    periods = {r["period"] for r in rows}
    assert "2021" in periods and "2021-01" in periods and "2021-12" in periods
    n_products = len({r["product_id"] for r in rows})
    assert len(rows) == 13 * n_products
    for g in result.gaps:
        assert g.gap == g.demand - g.offered
        assert 0.0 <= g.service_rate <= 1.0


def test_streamed_stages_can_be_read_twice(bundled_paths, tmp_path):
    result = run_pipeline(make_config(bundled_paths, tmp_path / "out"))
    gaps = list(result.gaps)
    forecasts = list(result.forecasts)
    assert gaps and gaps == list(result.gaps)
    assert forecasts and forecasts == list(result.forecasts)
    assert len(gaps) == 13 * len(result.product_ids)
    assert len(forecasts) == 2 * len(result.product_ids)


def test_empty_deliveries_with_catalog_yields_zero_plans(tmp_path):
    deliveries = write_csv(tmp_path / "deliveries.csv", "product_id,date,quantity", [])
    catalog = write_csv(
        tmp_path / "catalog.csv",
        "product_id,name,unit_price,urgency,boxes_per_carton,carton_l_mm,carton_w_mm,carton_h_mm",
        [
            ("P1", "Alpha", 2.0, 1, 10, 300, 300, 300),
            ("P2", "Beta", 3.0, 0, 10, 300, 300, 300),
        ],
    )
    stock = write_csv(tmp_path / "stock.csv", "product_id,on_hand", [("P1", 0), ("P2", 0)])
    paths = {"deliveries": deliveries, "catalog": catalog, "stock": stock}
    result = run_pipeline(make_config(paths, tmp_path / "out", n_years=2, target_year=2021))
    assert all(p.order_qty == 0 for p in result.plans)
    assert all(v.pallets == 0 for v in result.volumes)
    assert result.summary["total_pallets"] == 0
    assert result.summary["total_qc_boxes"] == 0.0


def test_failed_run_leaves_no_partial_outputs(tiny_inputs, tmp_path):
    bad = write_csv(
        tmp_path / "broken.csv", "product_id,date,quantity", [("P1", "2020-01", -3)]
    )
    out = tmp_path / "never"
    paths = {"deliveries": bad, "catalog": tiny_inputs["catalog"], "stock": tiny_inputs["stock"]}
    with pytest.raises(InputError):
        run_pipeline(make_config(paths, out, n_years=2, target_year=2022, start_year=2020))
    assert not out.exists()


def test_failed_gap_stage_creates_no_output_directory(tmp_path):
    deliveries = write_csv(
        tmp_path / "deliveries.csv", "product_id,date,quantity",
        [("P1", "2021-02", 10), ("P1", "2021-09", 4), ("P2", "2021-05", 7)],
    )
    catalog = write_csv(
        tmp_path / "catalog.csv",
        "product_id,name,unit_price,urgency,boxes_per_carton,carton_l_mm,carton_w_mm,carton_h_mm",
        [("P1", "Alpha", 2.0, 1, 10, 300, 300, 300), ("P2", "Beta", 3.0, 0, 10, 300, 300, 300)],
    )
    stock = write_csv(tmp_path / "stock.csv", "product_id,on_hand", [("P1", 0), ("P2", 0)])
    paths = {"deliveries": deliveries, "catalog": catalog, "stock": stock}
    out = tmp_path / "never"
    config = make_config(paths, out, start_year=2021, n_years=1, target_year=2022, include_all=True)
    with pytest.raises(ValueError) as raised:
        run_pipeline(config, (GAP_CSV,))
    assert str(raised.value) == (
        "P1: cannot derive the monthly need for 2021, year 2020 not covered by the series (2021..2021)"
    )
    assert not out.exists()


def test_strategic_closure_on_bundled_dataset(bundled_paths, tmp_path):
    out = tmp_path / "out"
    result = run_pipeline(make_config(bundled_paths, out))
    strategic = {r.product_id for r in result.classification if r.strategic}
    assert {p.product_id for p in result.plans} == strategic
    assert all(r.abc_class == "A" for r in result.classification if r.product_id in strategic)


def test_pipeline_respects_multiplier_override(bundled_paths, tmp_path):
    base = run_pipeline(make_config(bundled_paths, tmp_path / "m4"))
    harder = run_pipeline(make_config(bundled_paths, tmp_path / "m6", multiplier=6))
    base_by_id = {p.product_id: p for p in base.plans}
    for plan in harder.plans:
        assert plan.strategic_qty == Fraction(6, 4) * base_by_id[plan.product_id].strategic_qty
