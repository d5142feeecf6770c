"""forecast.csv and gap.csv against an exact reference, and the memory their block pass keeps.

The reference is computed from the generated delivery rows alone, with
`Fraction`, and the files are read back with `csv` alone.
"""

import csv
import random
import tempfile
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from stockdim.reporting import FORECAST_CSV, GAP_CSV, PipelineResult, RunConfig, forecast_csv, gap_csv, run_pipeline

START = 2019
CATALOG_HEADER = ("product_id", "name", "unit_price", "urgency", "boxes_per_carton",
                  "carton_l_mm", "carton_w_mm", "carton_h_mm")
# Ids that need RFC 4180 quoting: a comma, a quote or a line end inside.
IDS = st.text(alphabet='ab,"\n', min_size=1, max_size=4).filter(lambda pid: pid == pid.strip())


def write_inputs(directory, ids, deliveries, n_years):
    """Write the three input files and return the `RunConfig` of a `--all` run over them.

    `deliveries` holds `(pid, slot, quantity, with_day)`, slot 0 being
    January of `START`. The last id gets no stock row.
    """
    def write(name, header, rows):
        with open(directory / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        return directory / name

    dates = {False: "{}-{:02d}", True: "{}-{:02d}-15"}
    return RunConfig(
        write("deliveries.csv", ("product_id", "date", "quantity"),
              [(pid, dates[day].format(START + slot // 12, slot % 12 + 1), quantity)
               for pid, slot, quantity, day in deliveries]),
        write("catalog.csv", CATALOG_HEADER, [(pid, "Item", 2.0, 0, 10, 300, 300, 300) for pid in ids]),
        write("stock.csv", ("product_id", "on_hand"), [(pid, 5) for pid in ids[:-1]]),
        directory / "out", START, n_years, START + n_years, include_all=True,
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
