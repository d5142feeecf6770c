"""Every report but backtest.csv against an exact reference.

The reference is computed from the generated input rows alone, with
`Fraction`, and the files are read back with `csv` and `json` alone. A
value written as one correctly rounded float is compared with
`repr(float(exact))`. The fields in `FLOAT_RULE_FIELDS` are not that
value: they follow the documented float rule, and are checked by it.
classification.csv's scores and shares follow the documented float
rule too, and its ABC cut is exact on the decimals they read.
The memory that the block pass of forecast.csv and gap.csv keeps is
checked too.
"""

import csv
import json
import math
import random
import tempfile
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import add
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stockdim.reporting import (
    CLASSIFICATION_CSV,
    FORECAST_CSV,
    GAP_CSV,
    PLAN_CSV,
    SUMMARY_JSON,
    VOLUME_CSV,
    PipelineResult,
    RunConfig,
    forecast_csv,
    gap_csv,
    run_pipeline,
)

START = 2019
CATALOG_HEADER = ("product_id", "name", "unit_price", "urgency", "boxes_per_carton",
                  "carton_l_mm", "carton_w_mm", "carton_h_mm")
# Ids that need RFC 4180 quoting: a comma, a quote or a line end inside.
IDS = st.text(alphabet='ab,"\n', min_size=1, max_size=4).filter(lambda pid: pid == pid.strip())


def write_inputs(directory, ids, deliveries, n_years, catalog=None, stock=None, multiplier=4, prices=None):
    """Write the three input files and return the `RunConfig` of a `--all` run over them.

    `deliveries` holds `(pid, slot, quantity, with_day)`, slot 0 being
    January of `START`. `catalog` maps an id to its `(boxes_per_carton,
    carton dims)`, by default 10 cartons of 300 mm cubed, and `prices` to
    its `(unit_price text, urgency)`, by default `("2.0", 0)`; `stock`
    holds the `(pid, on_hand)` rows, by default 5 boxes of each id but the last.
    """
    def write(name, header, rows):
        with open(directory / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        return directory / name

    dates, cartons, prices = {False: "{}-{:02d}", True: "{}-{:02d}-15"}, catalog or {}, prices or {}
    return RunConfig(
        write("deliveries.csv", ("product_id", "date", "quantity"),
              [(pid, dates[day].format(START + slot // 12, slot % 12 + 1), quantity)
               for pid, slot, quantity, day in deliveries]),
        write("catalog.csv", CATALOG_HEADER,
              [(pid, "Item", *prices.get(pid, ("2.0", 0)), bpc, *dims)
               for pid in ids for bpc, dims in [cartons.get(pid, (10, (300,) * 3))]]),
        write("stock.csv", ("product_id", "on_hand"), [(pid, 5) for pid in ids[:-1]] if stock is None else stock),
        directory / "out", START, n_years, START + n_years, multiplier=multiplier, include_all=True,
    )


def seasonal(months, year_index):
    """The exact seasonal forecast of year `year_index` from the years before it."""
    total = sum(months[12 * year_index - 12 : 12 * year_index])
    weights = [sum(months[m : 12 * year_index : 12]) for m in range(12)]
    return [Fraction(total * w, sum(weights)) if sum(weights) else Fraction(0) for w in weights]


def gap_row(pid, period, d, o):
    """A gap.csv row by the documented float rules: `d - o` and `min(o, d) / d`, 1.0 where d is 0."""
    return [pid, period, str(d), repr(o), repr(d - o), repr(1.0 if d == 0 else min(o, d) / d)]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@st.composite
def input_sets(draw):
    """2 to 4 years, 2 to 5 products, the first of them never delivered."""
    n_years = draw(st.integers(2, 4))
    ids = draw(st.lists(IDS, min_size=2, max_size=5, unique=True))
    deliveries = draw(st.lists(st.tuples(
        st.sampled_from(ids[1:]), st.integers(0, 12 * n_years - 1), st.integers(0, 10**6), st.booleans(),
    ), max_size=40))
    return n_years, ids, deliveries


@settings(max_examples=40, deadline=None)
@given(input_sets())
def test_forecast_and_gap_files_are_the_exact_values_rounded_once(case):
    n_years, ids, deliveries = case
    with tempfile.TemporaryDirectory() as tmp:
        config = write_inputs(Path(tmp), ids, deliveries, n_years)
        run_pipeline(config, (FORECAST_CSV, GAP_CSV))
        forecasts, gaps = read_csv(config.out_dir / FORECAST_CSV), read_csv(config.out_dir / GAP_CSV)

    history = {pid: [0] * (12 * n_years) for pid in ids}
    for pid, slot, quantity, _ in deliveries:
        history[pid][slot] += quantity
    year = START + n_years - 1  # gap.csv's year, with n_years - 1 years before it
    expected_forecasts, expected_gaps = [forecasts[0]], [gaps[0]]
    for pid in sorted(ids):
        months = history[pid]
        naive = repr(float(Fraction(sum(months[-12:]), 12)))
        expected_forecasts += [[pid, "naive", *[naive] * 12],
                               [pid, "seasonal", *(repr(float(v)) for v in seasonal(months, n_years))]]
        if n_years - 1 >= 2:
            offers = [float(v) for v in seasonal(months, n_years - 1)]
        else:  # the flat baseline
            offers = [float(Fraction(sum(months[-24:-12]), 12))] * 12
        demands = months[-12:]
        expected_gaps.append(gap_row(pid, str(year), sum(demands), reduce(add, offers, 0)))  # left to right from 0
        expected_gaps += [gap_row(pid, f"{year}-{m:02d}", d, o) for m, d, o in zip(range(1, 13), demands, offers)]
    assert forecasts == expected_forecasts
    assert gaps == expected_gaps


# Unit prices as catalog.csv texts: decimal fractions and whole numbers, one written bare and one with a point.
PRICES = ("0.1", "2.5", "12", "0.333", "7.0")


def scored(totals, prices):
    """`(score, revenue, pid)` of each product by the documented float rule, in id order.

    Revenue is T * price and the ratio T / price, with T the window total;
    each criterion is min-max normalized (a constant one to 0), and the
    score is 0.5 * revenue + 0.3 * ratio + 0.2 * urgency, normalized.
    """
    def normalized(values):
        lo, hi = min(values), max(values)
        return [0.0 if hi == lo else (v - lo) / (hi - lo) for v in values]

    pids = sorted(totals)
    revenues = [totals[pid] * float(prices[pid][0]) for pid in pids]
    ratios = [totals[pid] / float(prices[pid][0]) for pid in pids]
    urgencies = [float(prices[pid][1]) for pid in pids]
    return [(0.5 * r + 0.3 * q + 0.2 * u, revenue, pid) for revenue, pid, r, q, u in zip(
        revenues, pids, normalized(revenues), normalized(ratios), normalized(urgencies))]


def classification_rows(totals, prices):
    """classification.csv's rows: ranked by (-score, -revenue, id), cut exactly at 0.8 and 0.95 of the score total.

    `cumulative_share` is the float running score over the float total,
    both added left to right. A product's class is that of the exact share
    (each score the decimal its repr reads) accumulated before it.
    """
    ordered = sorted(scored(totals, prices), key=lambda row: (-row[0], -row[1], row[2]))
    running, shares = 0.0, []
    for score, _, _ in ordered:
        running += score
        shares.append(running)
    exact = [Fraction(repr(score)) for score, _, _ in ordered]
    a_cut, b_cut = Fraction("0.8") * sum(exact), Fraction("0.95") * sum(exact)
    rows, before = [], Fraction(0)
    for rank, ((score, _, pid), share, units) in enumerate(zip(ordered, shares, exact), start=1):
        abc = "A" if before < a_cut else "B" if before < b_cut else "C"
        before += units
        rows.append([pid, repr(score), str(rank), repr(share / running), abc, "true" if abc == "A" else "false"])
    return rows


def window_totals(ids, deliveries):
    totals = dict.fromkeys(ids, 0)
    for pid, _, quantity, _ in deliveries:
        totals[pid] += quantity
    return totals


@st.composite
def classification_sets(draw):
    """1 to 3 years, 2 to 6 products of drawn prices and urgencies, the first never delivered."""
    n_years = draw(st.integers(1, 3))
    ids = draw(st.lists(IDS, min_size=2, max_size=6, unique=True))
    prices = {pid: (draw(st.sampled_from(PRICES)), draw(st.sampled_from((0, 1)))) for pid in ids}
    deliveries = draw(st.lists(st.tuples(
        st.sampled_from(ids[1:]), st.integers(0, 12 * n_years - 1), st.integers(0, 10**6), st.booleans(),
    ), max_size=30))
    return n_years, ids, prices, deliveries


@settings(max_examples=80, deadline=None)
@given(classification_sets().filter(  # a run where every score is 0 is refused: nothing discriminates
    lambda case: any(score > 0 for score, _, _ in scored(window_totals(case[1], case[3]), case[2]))))
# c and b both score 0.2: c, of the larger revenue, ranks first although b's id sorts first
@example((1, ["a", "b", "c", "d"], {"a": ("2.5", 0), "b": ("12", 1), "c": ("12", 0), "d": ("12", 1)},
          [("c", 0, 5, False), ("d", 11, 20, True)]))
# the float share before b reads 0.8, yet is below 4/5 exactly: b is in class A
@example((2, ["a", "b", "c", "d"], {"a": ("0.333", 0), "b": ("7.0", 1), "c": ("7.0", 0), "d": ("12", 0)},
          [("b", 0, 1, False), ("c", 13, 4, True), ("d", 23, 7, False)]))
def test_classification_file_is_the_documented_score_and_the_exact_cut(case):
    n_years, ids, prices, deliveries = case
    with tempfile.TemporaryDirectory() as tmp:
        config = write_inputs(Path(tmp), ids, deliveries, n_years, prices=prices)
        run_pipeline(config, (CLASSIFICATION_CSV,))
        rows = read_csv(config.out_dir / CLASSIFICATION_CSV)
    assert rows == [["product_id", "score", "rank", "cumulative_share", "abc_class", "strategic"],
                    *classification_rows(window_totals(ids, deliveries), prices)]


# Written by today's float rule, not as the exact value rounded once:
# a volume is `cartons * (l * w * h * 1e-9)`, and a summary total adds its
# column's written floats left to right from 0.
FLOAT_RULE_FIELDS = ("volume.csv total_volume_m3", "summary.json total_qc_boxes", "summary.json total_volume_m3")
# Multipliers as the decimals their text reads, e-notation included.
MULTIPLIERS = (0.1, 0.333, 6.5, 1e1, 2.5e-1)
# Cartons on the default 1200 x 800 x 1500 mm pallet: one that fits every
# way, one that fits only with its 1300 mm side up, one that fits only with
# its 850 mm side along the length or up, one of decimal millimetres, and
# one that fits no way, which only a product that needs no carton may use.
CARTONS = ((400, 300, 200), (1300, 500, 400), (850, 100, 900), (250.5, 300, 199.9), (1600, 1600, 1600))
# How stock.csv holds a product: no row (0 on hand), a drawn level, the
# strategic stock rounded up (EXACT where it is whole), or above that.
STOCK = ("none", "drawn", "ceil", "above")


def best_fit(dims):
    """The brute-force best of the six orientations on the default pallet: (count, orientation), ties to the least."""
    def count(orientation):
        return math.prod(side // Fraction(repr(d)) for side, d in zip((1200, 800, 1500), orientation))
    most, orientation = min((-count(o), o) for o in permutations(dims))
    return -most, orientation


@st.composite
def plan_sets(draw):
    """1 to 3 years, 2 to 5 products, the first never delivered.

    A product's deliveries are all multiples of 1 or all of 12000, which
    makes its strategic stock whole for every multiplier here.
    """
    n_years = draw(st.integers(1, 3))
    ids = draw(st.lists(IDS, min_size=2, max_size=5, unique=True))
    products = {pid: (draw(st.sampled_from((1, 12000))), draw(st.integers(1, 48)),
                      draw(st.sampled_from(CARTONS if i == 0 else CARTONS[:-1])),
                      draw(st.sampled_from(STOCK)), draw(st.integers(0, 10**7)))
                for i, pid in enumerate(ids)}
    deliveries = draw(st.lists(st.tuples(
        st.sampled_from(ids[1:]), st.integers(0, 12 * n_years - 1), st.integers(0, 10**6), st.booleans(),
    ), max_size=30))
    return n_years, draw(st.sampled_from(MULTIPLIERS)), products, deliveries


@settings(max_examples=80, deadline=None)
@given(plan_sets())
def test_plan_volume_and_summary_are_the_exact_chain(case):
    n_years, multiplier, products, deliveries = case
    deliveries = [(pid, slot, quantity * products[pid][0], day) for pid, slot, quantity, day in deliveries]
    totals = dict.fromkeys(products, 0)  # T, the deliveries of the year before the target year
    for pid, slot, quantity, _ in deliveries:
        totals[pid] += quantity if slot >= 12 * (n_years - 1) else 0
    months = Fraction(repr(multiplier))
    stock, expected_plan, expected_volume, qc, volumes, pallets = [], [], [], [], [], []
    for pid in sorted(products):
        _, per_carton, dims, kind, drawn = products[pid]
        need = Fraction(totals[pid], 12)
        strategic = need * months
        on_hand = {"none": 0, "drawn": drawn, "ceil": math.ceil(strategic),
                   "above": math.ceil(strategic) + 1 + drawn}[kind]
        if kind != "none":
            stock.append((pid, on_hand))
        order = max(strategic - on_hand, 0)
        status = "OVERSTOCK" if on_hand > strategic else "EXACT" if on_hand == strategic else "UNDERSTOCK"
        expected_plan.append([pid, *(repr(float(v)) for v in (need, strategic)), str(on_hand), repr(float(order)),
                              status])
        boxes = math.ceil(strategic)
        cartons = -(-boxes // per_carton)
        count, orientation = best_fit(dims)
        pallets.append(-(-cartons // count) if cartons else 0)
        volumes.append(cartons * (dims[0] * dims[1] * dims[2] * 1e-9))  # FLOAT_RULE_FIELDS
        qc.append(float(order))
        expected_volume.append([pid, str(boxes), str(cartons), str(count), "x".join(map(str, orientation)),
                                str(pallets[-1]), repr(volumes[-1])])
    with tempfile.TemporaryDirectory() as tmp:
        config = write_inputs(Path(tmp), list(products), deliveries, n_years,
                              {pid: (bpc, dims) for pid, (_, bpc, dims, _, _) in products.items()}, stock, multiplier)
        run_pipeline(config, (PLAN_CSV, VOLUME_CSV, SUMMARY_JSON))
        plan, volume = read_csv(config.out_dir / PLAN_CSV), read_csv(config.out_dir / VOLUME_CSV)
        summary = json.loads((config.out_dir / SUMMARY_JSON).read_text(encoding="utf-8"))
    assert plan == [["product_id", "M", "QS", "on_hand", "QC", "status"], *expected_plan]
    assert volume == [["product_id", "boxes", "cartons", "cartons_per_pallet", "orientation", "pallets",
                       "total_volume_m3"], *expected_volume]
    assert summary == {"products_planned": len(products), "total_pallets": sum(pallets),
                       "total_qc_boxes": reduce(add, qc, 0),  # FLOAT_RULE_FIELDS, left to right from 0
                       "total_volume_m3": reduce(add, volumes, 0)}  # FLOAT_RULE_FIELDS


def test_forecast_and_gap_files_are_written_in_bounded_memory(tmp_path):
    rng, peaks = random.Random(7), []
    for n_products in (1000, 4000):
        ids = [f"P{i:05d}" for i in range(n_products)]
        deliveries = [(pid, rng.randrange(36), rng.randrange(1, 500), False) for pid in ids for _ in range(6)]
        directory = tmp_path / str(n_products)
        directory.mkdir()
        result = PipelineResult(write_inputs(directory, ids, deliveries, 3))
        assert len(result.product_ids) == n_products  # the inputs are loaded before the trace starts
        tracemalloc.start()
        try:
            for name, render, blocks in ((FORECAST_CSV, forecast_csv, result.forecasts), (GAP_CSV, gap_csv, result.gaps)):
                with open(directory / name, "w", encoding="utf-8") as fh:
                    render(blocks, fh)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks  # four times the products, not four times the memory
