import csv
import io
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
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
from stockdim.forecasting import MIN_FIT_YEARS, backtest, forecast_year, monthly_need
from stockdim.ingestion import InputError, MonthlySeries
from stockdim.reporting import (
    BACKTEST_CSV,
    GAP_CSV,
    GapReport,
    LoadedData,
    PLAN_CSV,
    RunConfig,
    _gap_rows,
    backtest_csv,
    build_gaps,
    classification_csv,
    forecast_csv,
    gap_csv,
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
    periods = ("2021", "2021-01", "2021-02", "2021-03")
    met, short, over, idle = _gap_rows("P", periods, (100, 100, 40, 0), (100, 60, 100, 50))
    assert met.gap == 0 and met.service_rate == 1.0
    assert short.gap == 40 and short.service_rate == 0.6
    assert over.gap == -60 and over.service_rate == 1.0  # the offer counts up to demand only
    assert idle.gap == -50 and idle.service_rate == 1.0  # no demand: fully served, offer in excess
    with pytest.raises(AttributeError):
        met.gap = 1
    assert short == ("P", "2021-01", 100, 60, 40, 0.6) and type(short) is GapReport
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


def test_gap_csv_and_backtest_csv_agree_on_every_bundled_product(bundled_paths, tmp_path):
    run_pipeline(make_config(bundled_paths, tmp_path, include_all=True), (GAP_CSV, BACKTEST_CSV))
    monthly_gaps = {}
    for row in read_rows(tmp_path / GAP_CSV):
        if "-" in row["period"]:
            monthly_gaps.setdefault(row["product_id"], []).append(abs(float(row["gap"])))
    mae_seasonal = {r["product_id"]: float(r["mae_seasonal"]) for r in read_rows(tmp_path / BACKTEST_CSV)}
    assert len(mae_seasonal) == 50
    assert all(len(gaps) == 12 for gaps in monthly_gaps.values())
    assert {pid: sum(gaps) / 12 for pid, gaps in monthly_gaps.items()} == mae_seasonal


@given(st.integers(3, 5).flatmap(
    lambda n: st.lists(st.integers(0, 10**6) | st.just(0), min_size=12 * n, max_size=12 * n)
))
def test_mean_monthly_gap_is_the_seasonal_backtest_mae(values):
    series = MonthlySeries("P", 2019, tuple(values))
    config = RunConfig(Path("d.csv"), Path("c.csv"), Path("s.csv"), Path("out"),
                       start_year=2019, n_years=series.n_years, target_year=series.end_year + 1)
    data = LoadedData(catalog={}, series={"P": series}, on_hand={})
    annual, *months = build_gaps(data, ["P"], config)
    assert [g.period for g in months] == [f"{series.end_year}-{m:02d}" for m in range(1, 13)]
    report = backtest(series, series.end_year)
    assert sum(abs(g.gap) for g in months) / 12 == report.mae_seasonal


def old_gap_row(pid, period, demand, offered):
    rate = 1.0 if demand <= 0 else min(offered, demand) / demand
    return GapReport(pid, period, demand, offered, demand - offered, rate)


MONTHS_OF_DEMAND = st.lists(st.integers(0, 10**6) | st.just(0), min_size=12, max_size=12)


@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(MONTHS_OF_DEMAND | st.just([0] * 12), min_size=n, max_size=n).map(lambda ys: sum(ys, [])),
    min_size=1, max_size=4,
)))
def test_gap_rows_are_the_old_gap_row_of_each_period(histories):
    series = {f"P{i}": MonthlySeries(f"P{i}", 2019, tuple(values)) for i, values in enumerate(histories)}
    n_years = len(histories[0]) // 12
    year = 2019 + n_years - 1
    config = RunConfig(Path("d.csv"), Path("c.csv"), Path("s.csv"), Path("out"),
                       start_year=2019, n_years=n_years, target_year=year + 1)
    expected = []
    for pid in sorted(series):  # the offer of the year, as build_gaps documents it
        if n_years - 1 >= MIN_FIT_YEARS:
            offers = forecast_year(series[pid], year)[1].monthly_values
        else:
            offers = (float(monthly_need(series[pid], year)),) * 12
        demands = series[pid].year_slice(year)
        expected.append(old_gap_row(pid, str(year), sum(demands), sum(offers)))
        expected.extend(old_gap_row(pid, f"{year}-{m:02d}", d, o) for m, d, o in zip(range(1, 13), demands, offers))
    data = LoadedData(catalog={}, series=series, on_hand={})
    rows = list(build_gaps(data, reversed(list(series)), config))
    assert rows == expected
    assert {type(row) for row in rows} == {GapReport}


def test_gap_offer_with_fewer_than_two_earlier_years_is_the_prior_year_over_12(tiny_inputs, tmp_path):
    write_csv(tiny_inputs["deliveries"], "product_id,date,quantity", [
        ("P1", "2020-01", 10), ("P1", "2020-03-15", 51), ("P1", "2021-03", 60), ("P2", "2021-07", 5),
    ])
    config = make_config(tiny_inputs, tmp_path, start_year=2020, n_years=2, target_year=2022,
                         include_all=True)
    run_pipeline(config, (GAP_CSV,))
    rows = read_rows(tmp_path / GAP_CSV)
    for pid, prior_total in (("P1", 61), ("P2", 0)):
        annual, *months = [r for r in rows if r["product_id"] == pid]
        assert annual["period"] == "2021" and len(months) == 12
        assert [float(m["offered"]) for m in months] == [prior_total / 12] * 12
        assert float(annual["offered"]) == sum(float(m["offered"]) for m in months)


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


@given(
    st.text(),
    st.sampled_from(("naive", "seasonal")),
    st.floats() | st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324)),
    st.lists(st.sampled_from((0.0, -0.0)), min_size=12, max_size=12),
    st.lists(st.floats(), min_size=12, max_size=12),
)
@example("DG,1", "naive", -0.0, [0.0] * 11 + [-0.0], [math.nan] * 12)
@example('"', "naive", 5e-324, [-0.0] + [0.0] * 11, [0.0] * 12)
def test_forecast_render_matches_csv_writer_on_any_id_and_float(pid, method, repeated, zeros, floats):
    rows = [(pid, method, (repeated,) * 12), (pid, method, tuple(zeros)), (pid, method, tuple(floats))]
    fh = io.StringIO()
    forecast_csv([ForecastResult(*row) for row in rows], fh)
    header = ("product_id", "method") + tuple(f"m{i}" for i in range(1, 13))
    assert fh.getvalue() == _csv_writer_text(header, [(pid, method, *values) for pid, method, values in rows])


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
