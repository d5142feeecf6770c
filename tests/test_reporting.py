import csv
import io
import json
import math
import os
import pickle
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import write_csv
from stockdim import (
    BacktestReport,
    CatalogEntry,
    ClassificationResult,
    CriteriaWeights,
    ForecastResult,
    PalletSpec,
    ScoredProduct,
    StockPlan,
    VolumetricPlan,
)
from stockdim.forecasting import MIN_FIT_YEARS, backtest, forecast_year, monthly_need
from stockdim.dimensioning import PlanColumns
from stockdim.forking import _can_fork
from stockdim.ingestion import InputError, MonthlySeries, Slots
from stockdim.reporting import (
    BACKTEST_CSV,
    BLOCK,
    GAP_CSV,
    LoadedData,
    PLAN_CSV,
    REPORT,
    RunConfig,
    backtest_csv,
    classification_csv,
    forecast_csv,
    gap_blocks,
    gap_csv,
    plan_csv,
    run_pipeline,
    volume_csv,
    write_reports,
)
from stockdim.volumetric import DEFAULT_PALLET, UnpalletizableError

CSV_NAMES = ("classification.csv", "forecast.csv", "plan.csv", "volume.csv", "gap.csv")
GAP_HEADER = ("product_id", "period", "demand", "offered", "gap", "service_rate")


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


def gap_rows(blocks):
    """The `GAP_HEADER` rows of `gap_blocks`, one per product and period, annual then monthly, as gap.csv holds them."""
    return [(pid, period, *(field[p][i] for field in fields))
            for periods, ids, *fields in blocks for i, pid in enumerate(ids) for p, period in enumerate(periods)]


def test_gap_kpi_conventions():
    # One earlier year only, so 2021 is offered the flat 1200 / 12 = 100 boxes a month.
    series = MonthlySeries("P", 2020, (100,) * 12 + (100, 250, 40) + (0,) * 9)
    config = RunConfig(Path("d.csv"), Path("c.csv"), Path("s.csv"), Path("out"),
                       start_year=2020, n_years=2, target_year=2022)
    rows = gap_rows(gap_blocks(LoadedData(series=Slots.of([series]), catalog={}, on_hand={}), ["P"], config))
    met, short, over, idle = ((gap, service_rate) for *_, gap, service_rate in rows[1:5])
    assert met == (0, 1.0)
    assert short == (150, 0.4)
    assert over == (-60, 1.0)  # the offer counts up to demand only
    assert idle == (-100, 1.0)  # no demand: fully served, offer in excess
    assert rows[2] == ("P", "2021-02", 250, 100.0, 150.0, 0.4)


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
    pytest.param(
        PlanColumns(["P"], [30], [120], [4], [72], ["UNDERSTOCK"], 12),
        ("product_ids", "need", "stock", "on_hand", "order", "status", "den"),
        (["P"], [30], [120], [4], [72], ["UNDERSTOCK"], 12),
        id="PlanColumns",
    ),
    pytest.param(
        LoadedData(Slots(["P"], 2019, 1, [0] * 12), {}, {"P": 4}),
        ("series", "catalog", "on_hand"),
        (Slots(["P"], 2019, 1, [0] * 12), {}, {"P": 4}),
        id="LoadedData",
    ),
])
def test_output_records_are_named_tuples(record, fields, plain):
    # `score_products`, `rank_and_cut` and `volume_plans` build records by position, so field order is load-bearing
    kind = type(record)
    assert kind._fields == fields
    assert kind._field_defaults == ({"no_nonzero_actuals": False} if kind is BacktestReport else {})
    with pytest.raises(AttributeError):
        setattr(record, fields[0], plain[0])
    assert record == plain and record[0] == plain[0] and tuple(record) == plain
    assert repr(record) == f"{kind.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, record))})"
    assert kind._make(plain) == plain and pickle.loads(pickle.dumps(record)) == plain


@pytest.mark.parametrize("record, fields, plain, bad, message", [
    pytest.param(
        RunConfig(Path("d.csv"), Path("c.csv"), Path("s.csv"), Path("out"), 2019, 3, 2022),
        ("deliveries", "catalog", "stock", "out_dir", "start_year", "n_years", "target_year", "multiplier",
         "weights", "a_threshold", "b_threshold", "pallet", "include_all"),
        (Path("d.csv"), Path("c.csv"), Path("s.csv"), Path("out"), 2019, 3, 2022, 4, (0.5, 0.3, 0.2), 0.8, 0.95,
         (1200, 800, 1500), False),
        {"n_years": 0}, "history window must cover at least 1 year, got 0",
        id="RunConfig",
    ),
    pytest.param(
        PalletSpec(),
        ("usable_length", "usable_width", "usable_height"),
        (1200, 800, 1500),
        {"usable_width": 0}, "pallet usable_width must be finite and > 0, got 0",
        id="PalletSpec",
    ),
    pytest.param(
        CriteriaWeights(),
        ("w_revenue", "w_ratio", "w_urgency"),
        (0.5, 0.3, 0.2),
        {"w_ratio": 0.4}, "criteria weights must sum to 1, got 0.5 + 0.4 + 0.2",
        id="CriteriaWeights",
    ),
    pytest.param(
        MonthlySeries("P", 2019, (1,) * 12),
        ("product_id", "start_year", "values"),
        ("P", 2019, (1,) * 12),
        {"values": (1,) * 11}, "series length must be a positive multiple of 12, got 11",
        id="MonthlySeries",
    ),
    pytest.param(
        CatalogEntry("P", "Drug", 2.5, 1, 10, (400, 300, 200)),
        ("product_id", "name", "unit_price", "urgency", "boxes_per_carton", "carton_dims"),
        ("P", "Drug", 2.5, 1, 10, (400, 300, 200)),
        {"urgency": 2}, "P: urgency must be 0 or 1",
        id="CatalogEntry",
    ),
])
def test_checked_records_are_named_tuples_that_check_every_build(record, fields, plain, bad, message):
    kind = type(record)
    assert kind._fields == fields
    with pytest.raises(AttributeError):
        setattr(record, fields[0], plain[0])
    assert record == plain and tuple(record) == plain
    values = {**record._asdict(), **bad}
    for build in (lambda: kind(**values), lambda: kind._make(values.values()), lambda: record._replace(**bad)):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message


def test_run_config_validation(bundled_paths, tmp_path):
    with pytest.raises(ValueError, match="^history window must cover at least 1 year, got 0$"):
        make_config(bundled_paths, tmp_path, n_years=0)
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
    assert result.summary["products_planned"] == len(result.plans.product_ids)


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
    assert summary["total_qc_boxes"] == reduce(add, (float(r["QC"]) for r in plan_rows), 0)
    assert summary["total_pallets"] == sum(int(r["pallets"]) for r in volume_rows)
    assert summary["total_volume_m3"] == reduce(add, (float(r["total_volume_m3"]) for r in volume_rows), 0)


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
    for _, _, demand, offered, gap, service_rate in gap_rows(result.gaps):
        assert gap == demand - offered
        assert 0.0 <= service_rate <= 1.0


def test_gap_csv_and_backtest_csv_agree_on_every_bundled_product(bundled_paths, tmp_path):
    run_pipeline(make_config(bundled_paths, tmp_path, include_all=True), (GAP_CSV, BACKTEST_CSV))
    monthly_gaps = {}
    for row in read_rows(tmp_path / GAP_CSV):
        if "-" in row["period"]:
            monthly_gaps.setdefault(row["product_id"], []).append(abs(float(row["gap"])))
    mae_seasonal = {r["product_id"]: float(r["mae_seasonal"]) for r in read_rows(tmp_path / BACKTEST_CSV)}
    assert len(mae_seasonal) == 50
    assert all(len(gaps) == 12 for gaps in monthly_gaps.values())
    assert {pid: reduce(add, gaps, 0) / 12 for pid, gaps in monthly_gaps.items()} == mae_seasonal


@given(st.integers(3, 5).flatmap(
    lambda n: st.lists(st.integers(0, 10**6) | st.just(0), min_size=12 * n, max_size=12 * n)
))
def test_mean_monthly_gap_is_the_seasonal_backtest_mae(values):
    series = MonthlySeries("P", 2019, tuple(values))
    config = RunConfig(Path("d.csv"), Path("c.csv"), Path("s.csv"), Path("out"),
                       start_year=2019, n_years=series.n_years, target_year=series.end_year + 1)
    data = LoadedData(catalog={}, series=Slots.of([series]), on_hand={})
    annual, *months = gap_rows(gap_blocks(data, ["P"], config))
    assert [period for _, period, *_ in months] == [f"{series.end_year}-{m:02d}" for m in range(1, 13)]
    report = backtest(series, series.end_year)
    assert reduce(add, (abs(gap) for *_, gap, _ in months), 0) / 12 == report.mae_seasonal


def old_gap_row(pid, period, demand, offered):
    rate = 1.0 if demand <= 0 else min(offered, demand) / demand
    return pid, period, demand, offered, demand - offered, rate


MONTHS_OF_DEMAND = st.lists(st.integers(0, 10**6) | st.just(0), min_size=12, max_size=12)
_EDGES = random.Random(26)


def _edge_histories(n_products, n_years):
    """`n_products` deterministic histories, sparse and some all zero, to cross block edges."""
    return [[_EDGES.randrange(1, 900) if i % 7 and _EDGES.random() < 0.5 else 0 for _ in range(12 * n_years)]
            for i in range(n_products)]


def assert_gap_rows_are_the_old_gap_rows(histories):
    # every odd id needs RFC 4180 quoting, so one stands on each side of some block edge
    ids = [f"P{i:05d}" + (',"' if i % 2 else "") for i in range(len(histories))]
    series = {pid: MonthlySeries(pid, 2019, tuple(values)) for pid, values in zip(ids, histories)}
    n_years = len(histories[0]) // 12
    year = 2019 + n_years - 1
    config = RunConfig(Path("d.csv"), Path("c.csv"), Path("s.csv"), Path("out"),
                       start_year=2019, n_years=n_years, target_year=year + 1)
    expected = []
    for pid in sorted(series):  # the offer of the year, as gap_blocks documents it
        if n_years - 1 >= MIN_FIT_YEARS:
            offers = forecast_year(series[pid], year)[1].monthly_values
        else:
            offers = (float(monthly_need(series[pid], year)),) * 12
        demands = series[pid].values[-12:]  # the months of `year`, the last of the window
        expected.append(old_gap_row(pid, str(year), sum(demands), reduce(add, offers, 0)))
        expected.extend(old_gap_row(pid, f"{year}-{m:02d}", d, o) for m, d, o in zip(range(1, 13), demands, offers))
    data = LoadedData(catalog={}, series=Slots.of([*series.values()]), on_hand={})
    assert gap_rows(gap_blocks(data, reversed(list(series)), config)) == expected
    fh = io.StringIO()
    gap_csv(gap_blocks(data, reversed(list(series)), config), fh)
    assert fh.getvalue() == _csv_writer_text(GAP_HEADER, expected)


@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(MONTHS_OF_DEMAND | st.just([0] * 12), min_size=n, max_size=n).map(lambda ys: sum(ys, [])),
    min_size=1, max_size=4,
)))
def test_gap_rows_are_the_old_gap_row_of_each_period(histories):
    assert_gap_rows_are_the_old_gap_rows(histories)


# Too large for hypothesis' deadline, so run once each, untimed.
@pytest.mark.parametrize("histories", [
    _edge_histories(2 * BLOCK + 3, 3),  # seasonal offers, three blocks, the last not full
    _edge_histories(BLOCK + 1, 2),  # flat offers, one product past a full block
], ids=["seasonal-three-blocks", "flat-one-past-a-block"])
def test_gap_rows_across_block_edges_are_the_old_gap_rows(histories):
    assert_gap_rows_are_the_old_gap_rows(histories)


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
        assert float(annual["offered"]) == reduce(add, (float(m["offered"]) for m in months), 0)


def test_streamed_stages_can_be_read_twice(bundled_paths, tmp_path):
    result = run_pipeline(make_config(bundled_paths, tmp_path / "out"))
    gaps = list(result.gaps)
    forecasts = list(result.forecasts)
    assert gaps and gaps == list(result.gaps)
    assert forecasts and forecasts == list(result.forecasts)
    assert [pid for _, ids, *fields in gaps for pid in ids] == result.product_ids
    assert {len(column) for _, ids, *fields in gaps for field in fields for column in field} == {len(gaps[0][1])}
    assert [len(field) for _, _, *fields in gaps for field in fields] == [13] * 4 * len(gaps)
    assert [pid for ids, naive, seasonal in forecasts for pid in ids] == result.product_ids
    assert [len(seasonal) for _, _, seasonal in forecasts] == [12] * len(forecasts)


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
    assert all(order == 0 for order in result.plans.order)
    assert all(v.pallets == 0 for v in result.volumes)
    assert result.summary["total_pallets"] == 0
    assert result.summary["total_qc_boxes"] == 0.0


@pytest.mark.parametrize("multiplier", [4, 6.5, 1e-05])
def test_report_builds_no_monthly_series_and_no_fraction(multiplier, bundled_paths, tmp_path, monkeypatch):
    config = make_config(bundled_paths, tmp_path, include_all=True, multiplier=multiplier)
    monkeypatch.delattr(os, "fork")  # one process, so that every object is built here
    built = []

    def counted(real, kind):
        def build(*args, **kwargs):
            built.append(kind)
            return real(*args, **kwargs)
        return build

    monkeypatch.setattr(MonthlySeries, "__init__", counted(MonthlySeries.__init__, "MonthlySeries"))
    for name in ("__new__", "_from_coprime_ints"):  # the second builds a Fraction from Python 3.12 on
        if name in vars(Fraction):
            monkeypatch.setattr(Fraction, name, staticmethod(counted(getattr(Fraction, name), "Fraction")))
    run_pipeline(config, REPORT)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(REPORT)
    assert Counter(built) == {}


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
    assert set(result.plans.product_ids) == strategic
    assert all(r.abc_class == "A" for r in result.classification if r.product_id in strategic)


def test_pipeline_respects_multiplier_override(bundled_paths, tmp_path):
    base = run_pipeline(make_config(bundled_paths, tmp_path / "m4"))
    harder = run_pipeline(make_config(bundled_paths, tmp_path / "m6", multiplier=6))
    base_by_id = {pid: Fraction(stock, base.plans.den) for pid, stock in zip(base.plans.product_ids, base.plans.stock)}
    for pid, stock in zip(harder.plans.product_ids, harder.plans.stock):
        assert Fraction(stock, harder.plans.den) == Fraction(6, 4) * base_by_id[pid]


# Ids that need CSV quoting (or look as if they might), and floats whose
# text is easy to get wrong; every render must match csv.writer's bytes.
TRICKY_IDS = ("DG,9", 'DG"7', '"', ",", "line\nbreak", "carriage\rreturn", "crlf\r\n",
              " padded ", "\ttab", "Ünïcødé 药品", "plain", "")
TRICKY_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e22, 0.1, 2.0, 1 / 3)


def _tricky(i):
    return TRICKY_FLOATS[i % len(TRICKY_FLOATS)]


def _csv_writer_text(header, rows):
    """The rows as csv.writer writes them with its own CRLF terminator, each row end cut to LF.

    That terminator makes csv.writer quote a lone CR as it quotes an LF on every
    Python; a `lineterminator="\\n"` writer leaves a lone CR unquoted before 3.13.
    """
    lines = []  # csv.writer calls `write` once per row
    writer = csv.writer(SimpleNamespace(write=lines.append))
    writer.writerow(header)
    writer.writerows(rows)
    return "".join(line.removesuffix("\r\n") + "\n" for line in lines)


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
        naive = [_tricky(i) for i, _ in pids]
        seasonal = [[_tricky(i + k) for i, _ in pids] for k in range(12)]
        header = ("product_id", "method") + tuple(f"m{i}" for i in range(1, 13))
        rows = [row for i, pid in pids for row in (
            (pid, "naive", *[naive[i]] * 12), (pid, "seasonal", *(column[i] for column in seasonal)))]
        return forecast_csv, [([pid for _, pid in pids], naive, seasonal)], _csv_writer_text(header, rows)
    if name == "backtest":
        records = [
            BacktestReport(pid, 2021, _tricky(i), _tricky(i + 1), _tricky(i + 2), _tricky(i + 3), i % 2 == 0)
            for i, pid in pids
        ]
        header = ("product_id", "holdout_year", "mae_naive", "mae_seasonal", "mape_naive", "mape_seasonal")
        return backtest_csv, records, _csv_writer_text(header, [r[:6] for r in records])
    if name == "plan":  # numerators of up to 220 digits, over 12 and over 12 * 1000
        need = [3 ** (20 * i) for i, _ in pids]
        stock = [n * 333 for n in need]
        order = [max(s - 12000 * i, 0) for (i, _), s in zip(pids, stock)]
        status = [("UNDERSTOCK", "EXACT", "OVERSTOCK")[i % 3] for i, _ in pids]
        records = PlanColumns([pid for _, pid in pids], need, stock, [i for i, _ in pids], order, status, 12000)
        header = ("product_id", "M", "QS", "on_hand", "QC", "status")
        rows = [(pid, t / 12, s / 12000, i, o / 12000, state)
                for (i, pid), t, s, o, state in zip(pids, need, stock, order, status)]
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
    fields = [[[(i, _tricky(i + p), _tricky(i + p + 1), _tricky(i + p + 2))[k] for i, _ in pids] for p in range(13)]
              for k in range(4)]
    rows = [(pid, period, *(field[p][i] for field in fields))
            for i, pid in pids for p, period in enumerate(["2021", *(f"2021-{m:02d}" for m in range(1, 13))])]
    periods = ("2021", *(f"2021-{m:02d}" for m in range(1, 13)))
    return gap_csv, [(periods, [pid for _, pid in pids], *fields)], _csv_writer_text(GAP_HEADER, rows)


@pytest.mark.parametrize("name", ["classification", "forecast", "backtest", "plan", "volume", "gap"])
def test_text_renders_match_csv_writer(name):
    render, records, expected = _render_case(name)
    fh = io.StringIO()
    render(records, fh)
    assert fh.getvalue() == expected
    assert '"DG,9"' in expected and '"DG""7"' in expected  # the quoting path is exercised


GAP_FIELDS = st.tuples(st.integers(), st.floats(), st.floats(), st.floats())


@given(st.integers(1, 9999), st.lists(st.tuples(st.text(), st.lists(GAP_FIELDS, min_size=13, max_size=13))))
def test_gap_render_matches_csv_writer_on_any_id_and_float(year, products):
    ids = [pid for pid, _ in products]
    fields = [[[values[p][k] for _, values in products] for p in range(13)] for k in range(4)]
    periods = (str(year), *(f"{year}-{m:02d}" for m in range(1, 13)))
    fh = io.StringIO()
    gap_csv([(periods, ids, *fields)], fh)
    rows = [(pid, period, *row) for pid, values in products for period, row in zip(periods, values)]
    assert fh.getvalue() == _csv_writer_text(GAP_HEADER, rows)


@given(
    st.text(),
    st.floats() | st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324)),
    st.lists(st.sampled_from((0.0, -0.0)), min_size=12, max_size=12),
    st.lists(st.floats(), min_size=12, max_size=12),
)
@example("DG,1", -0.0, [0.0] * 11 + [-0.0], [math.nan] * 12)
@example('"', 5e-324, [-0.0] + [0.0] * 11, [0.0] * 12)
def test_forecast_render_matches_csv_writer_on_any_id_and_float(pid, repeated, zeros, floats):
    fh = io.StringIO()  # two products of one id: naive `repeated` then `floats[0]`, seasonal `zeros` then `floats`
    forecast_csv([([pid, pid], [repeated, floats[0]], [list(pair) for pair in zip(zeros, floats)])], fh)
    header = ("product_id", "method") + tuple(f"m{i}" for i in range(1, 13))
    rows = [(pid, "naive", *[repeated] * 12), (pid, "seasonal", *zeros),
            (pid, "naive", *[floats[0]] * 12), (pid, "seasonal", *floats)]
    assert fh.getvalue() == _csv_writer_text(header, rows)


class TwoArgumentError(ValueError):
    def __init__(self, product_id, size):
        super().__init__(f"{product_id} does not fit {size}")


def write_lines(rows, fh):
    fh.writelines(rows)


@pytest.mark.parametrize("fork, affinity, cpu_count, can", [
    (True, {0, 1}, None, True),
    (True, {0}, None, False),
    (True, None, 2, True),  # no sched_getaffinity, as on macOS
    (True, None, 1, False),
    (True, None, None, False),
    (False, {0, 1}, 2, False),
], ids=["affinity-2", "affinity-1", "cpu-count-2", "cpu-count-1", "cpu-count-none", "no-fork"])
def test_can_fork_needs_os_fork_and_two_usable_cpus(fork, affinity, cpu_count, can, monkeypatch):
    if not fork:
        monkeypatch.delattr(os, "fork", raising=False)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert _can_fork() is can


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


def test_a_directory_that_cannot_be_removed_never_hides_the_run_error(tmp_path, monkeypatch):
    def fail(rows, fh):
        raise ValueError("bad row")

    def rmdir(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(Path, "rmdir", rmdir)
    with pytest.raises(ValueError, match="^bad row$"):
        write_reports(tmp_path / "a" / "b", {"a.csv": (fail, ["a\n"])})
    assert [path.name for path in (tmp_path / "a").iterdir()] == ["b"]
    assert list((tmp_path / "a" / "b").iterdir()) == []


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
