import csv
import io
import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import write_csv
from stockdim import (
    BacktestReport,
    ClassificationResult,
    ForecastResult,
    ScoredProduct,
    StockPlan,
    VolumetricPlan,
)
from stockdim.ingestion import InputError
from stockdim.reporting import (
    GAP_CSV,
    GapReport,
    PLAN_CSV,
    RunConfig,
    backtest_csv,
    classification_csv,
    forecast_csv,
    gap_csv,
    gap_kpi,
    plan_csv,
    run_pipeline,
    volume_csv,
    write_reports,
)
from stockdim.volumetric import DEFAULT_PALLET, UnpalletizableError

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


@pytest.mark.parametrize("record, fields, plain", [
    pytest.param(
        ScoredProduct("P", 10.0, 2.5, 1, 0.75),
        ("product_id", "revenue", "qty_price_ratio", "urgency", "score"),
        ("P", 10.0, 2.5, 1, 0.75),
        id="ScoredProduct",
    ),
    pytest.param(
        ClassificationResult("P", 10.0, 2.5, 0.75, 1, 0.5, "A", True),
        ("product_id", "revenue", "qty_price_ratio", "score", "rank", "cumulative_share", "abc_class", "strategic"),
        ("P", 10.0, 2.5, 0.75, 1, 0.5, "A", True),
        id="ClassificationResult",
    ),
    pytest.param(
        ForecastResult("P", "naive", (1.5,) * 12),
        ("product_id", "method", "monthly_values"),
        ("P", "naive", (1.5,) * 12),
        id="ForecastResult",
    ),
    pytest.param(
        BacktestReport("P", 2021, 1.0, 2.0, 0.1, 0.2),
        ("product_id", "holdout_year", "mae_naive", "mae_seasonal", "mape_naive", "mape_seasonal",
         "no_nonzero_actuals"),
        ("P", 2021, 1.0, 2.0, 0.1, 0.2, False),
        id="BacktestReport",
    ),
    pytest.param(
        StockPlan("P", Fraction(5, 2), Fraction(10), 4, Fraction(6), "UNDERSTOCK"),
        ("product_id", "monthly_need", "strategic_qty", "on_hand", "order_qty", "status"),
        ("P", Fraction(5, 2), Fraction(10), 4, Fraction(6), "UNDERSTOCK"),
        id="StockPlan",
    ),
    pytest.param(
        VolumetricPlan("P", 10, 1, 60, (200, 400, 300), 1, 0.024),
        ("product_id", "boxes", "cartons", "cartons_per_pallet", "orientation", "pallets", "total_volume_m3"),
        ("P", 10, 1, 60, (200, 400, 300), 1, 0.024),
        id="VolumetricPlan",
    ),
])
def test_output_records_are_named_tuples(record, fields, plain):
    assert type(record)._fields == fields
    with pytest.raises(AttributeError):
        record.product_id = "Q"
    assert record == plain
    assert record[0] == "P" and tuple(record) == plain


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


# Ids that need CSV quoting (or look as if they might), and floats whose
# text is easy to get wrong; every render must match csv.writer's bytes.
TRICKY_IDS = ("DG,9", 'DG"7', '"', ",", "line\nbreak", "carriage\rreturn", "crlf\r\n",
              " padded ", "\ttab", "Ünïcødé 药品", "plain", "")
TRICKY_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e22, 0.1, 2.0, 1 / 3)


def _tricky(i):
    return TRICKY_FLOATS[i % len(TRICKY_FLOATS)]


def _csv_writer_text(header, rows):
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return fh.getvalue()


def _render_case(name):
    """(render, records, reference text) for one `*_csv` function; each id appears twice."""
    pids = list(enumerate(TRICKY_IDS * 2))
    if name == "classification":
        records = [
            ClassificationResult(pid, 1.0, 2.0, _tricky(i), len(pids) - i, _tricky(i + 1), "ABC"[i % 3], i % 2 == 0)
            for i, pid in pids
        ]
        header = ("product_id", "score", "rank", "cumulative_share", "abc_class", "strategic")
        rows = [
            (r.product_id, r.score, r.rank, r.cumulative_share, r.abc_class, "true" if r.strategic else "false")
            for r in sorted(records, key=lambda r: r.rank)
        ]
        return classification_csv, records, _csv_writer_text(header, rows)
    if name == "forecast":
        records = [ForecastResult(pid, "seasonal", tuple(_tricky(i + k) for k in range(12))) for i, pid in pids]
        header = ("product_id", "method") + tuple(f"m{i}" for i in range(1, 13))
        rows = [(f.product_id, f.method) + f.monthly_values for f in records]
        return forecast_csv, records, _csv_writer_text(header, rows)
    if name == "backtest":
        records = [
            BacktestReport(pid, 2021, _tricky(i), _tricky(i + 1), _tricky(i + 2), _tricky(i + 3), i % 2 == 0)
            for i, pid in pids
        ]
        header = ("product_id", "holdout_year", "mae_naive", "mae_seasonal", "mape_naive", "mape_seasonal")
        return backtest_csv, records, _csv_writer_text(header, [r[:6] for r in records])
    if name == "plan":
        records = [
            StockPlan(pid, _tricky(i), Fraction(i, 3), i, _tricky(i + 2), "UNDERSTOCK") for i, pid in pids
        ]
        header = ("product_id", "M", "QS", "on_hand", "QC", "status")
        rows = [
            (p.product_id, float(p.monthly_need), float(p.strategic_qty), p.on_hand, float(p.order_qty), p.status)
            for p in records
        ]
        return plan_csv, records, _csv_writer_text(header, rows)
    if name == "volume":
        records = [
            VolumetricPlan(pid, i, i + 1, 60, (400, 300.5, _tricky(i + 4)), i, _tricky(i)) for i, pid in pids
        ]
        header = ("product_id", "boxes", "cartons", "cartons_per_pallet", "orientation", "pallets",
                  "total_volume_m3")
        rows = [
            (v.product_id, v.boxes, v.cartons, v.cartons_per_pallet, "x".join(str(d) for d in v.orientation),
             v.pallets, v.total_volume_m3)
            for v in records
        ]
        return volume_csv, records, _csv_writer_text(header, rows)
    records = [GapReport(pid, "2021-01", i, _tricky(i), _tricky(i + 1), _tricky(i + 2)) for i, pid in pids]
    header = ("product_id", "period", "demand", "offered", "gap", "service_rate")
    return gap_csv, records, _csv_writer_text(header, records)


@pytest.mark.parametrize("name", ["classification", "forecast", "backtest", "plan", "volume", "gap"])
def test_text_renders_match_csv_writer(name):
    render, records, expected = _render_case(name)
    fh = io.StringIO()
    render(records, fh)
    assert fh.getvalue() == expected
    assert '"DG,9"' in expected and '"DG""7"' in expected  # the quoting path is exercised


@given(st.lists(st.tuples(
    st.text(), st.sampled_from(("2021", "2021-12")), st.integers(), st.floats(), st.floats(), st.floats()
)))
def test_gap_render_matches_csv_writer_on_any_id_and_float(rows):
    fh = io.StringIO()
    gap_csv([GapReport(*row) for row in rows], fh)
    assert fh.getvalue() == _csv_writer_text(GapReport._fields, rows)


class TwoArgumentError(ValueError):
    def __init__(self, product_id, size):
        super().__init__(f"{product_id} does not fit {size}")


def write_lines(rows, fh):
    fh.writelines(rows)


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("error", [
    UnpalletizableError("DG-1", (900, 900, 900), DEFAULT_PALLET),
    TwoArgumentError("DG-1", 900),
    OSError(28, "No space left on device", "a.csv"),
    ValueError("bad row"),
], ids=lambda error: type(error).__name__)
def test_a_writer_child_failure_keeps_its_type_and_message(error, tmp_path):
    # With two streamed files, the writer child renders all but the last.
    def fail(rows, fh):
        raise error

    with pytest.raises(type(error)) as raised:
        write_reports(tmp_path, {"a.csv": (fail, iter(["a\n"])), "b.csv": (write_lines, iter(["b\n"]))})
    assert str(raised.value) == str(error)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.usefixtures("two_cpus")
def test_a_writer_child_failure_of_a_local_type_fails_the_run(tmp_path):
    class LocalError(Exception):  # pickle cannot name this type, so the child exits 1
        pass

    def fail(rows, fh):
        raise LocalError("no pickle")

    with pytest.raises(ChildProcessError, match="exited with status 1"):
        write_reports(tmp_path, {"a.csv": (fail, iter(["a\n"])), "b.csv": (write_lines, iter(["b\n"]))})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.usefixtures("two_cpus")
def test_a_writer_child_that_dies_fails_the_run(tmp_path):
    def die(rows, fh):
        os._exit(3)

    with pytest.raises(ChildProcessError, match="exited with status 3"):
        write_reports(tmp_path, {"a.csv": (die, iter(["a\n"])), "b.csv": (write_lines, iter(["b\n"]))})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.usefixtures("two_cpus")
def test_streamed_files_render_in_two_processes_into_one_commit(tmp_path):
    pids = {}

    def render(rows, fh):
        pids[os.path.basename(fh.name)] = os.getpid()  # lost where the child renders
        fh.write(f"{''.join(rows)} {os.getpid() == parent}\n")

    parent = os.getpid()
    files = write_reports(tmp_path, {
        "a.csv": (render, iter(["a"])), "b.csv": (render, ["b"]), "c.csv": (render, iter(["c"])),
    })
    assert sorted(files) == ["a.csv", "b.csv", "c.csv"]
    assert [(tmp_path / name).read_text() for name in files] == ["a False\n", "b False\n", "c True\n"]
    assert pids == {"c.csv": parent}
