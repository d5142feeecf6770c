"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints a single `ACCEPTANCE <n> PASS` line when its criterion
holds. Run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import csv
import json
import math
import random
import time
from fractions import Fraction
from itertools import permutations
from pathlib import Path

from stockdim.classification import ScoredProduct, rank_and_cut
from stockdim.dimensioning import order_quantity, strategic_stock
from stockdim.forecasting import backtest, forecast_year, monthly_need
from stockdim.ingestion import MonthlySeries
from stockdim.reporting import RunConfig, run_pipeline
from stockdim.volumetric import PalletSpec, cartons_needed, cartons_per_pallet, pallets_needed

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def random_series(rnd, n_years, low=0, high=1000, pid="P"):
    values = tuple(rnd.randint(low, high) for _ in range(12 * n_years))
    return MonthlySeries(pid, 2019, values)


def test_acceptance_1_equation_chain_exactness():
    rnd = random.Random(1001)
    start = time.perf_counter()
    for _ in range(1000):
        total = rnd.randint(0, 100_000)
        stock = rnd.randint(0, 120_000)
        # spread the annual total over random months, then run the chain
        values = [0] * 12
        remaining = total
        while remaining > 0:
            take = min(remaining, rnd.randint(1, max(1, total // 6)))
            values[rnd.randrange(12)] += take
            remaining -= take
        series = MonthlySeries("P", 2020, tuple(values))
        need = monthly_need(series, 2021)
        target = strategic_stock(need)
        order, _status = order_quantity(target, stock)

        assert need == Fraction(total, 12)                      # exact rational
        assert abs(float(need) - total / 12) <= 1e-9            # fractional division
        assert target == 4 * need                               # zero tolerance
        assert order == max(Fraction(0), target - stock)        # zero tolerance
        assert order >= 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"equation chain took {elapsed:.3f}s"
    print(f"ACCEPTANCE 1 PASS: equation chain exact on 1000 random cases ({elapsed:.3f}s)")


def test_acceptance_2_pareto_minimality():
    rnd = random.Random(2002)
    for _ in range(500):
        n = rnd.randint(1, 60)
        scores = [rnd.uniform(0.001, 10.0) for _ in range(n)]
        items = [ScoredProduct(f"P{i:03d}", 0.0, 0.0, 0, s) for i, s in enumerate(scores)]
        results = rank_and_cut(items)
        a_ids = [r.product_id for r in results if r.abc_class == "A"]

        # independent re-derivation of the minimal descending prefix
        ordered = sorted(items, key=lambda s: (-s.score, -s.revenue, s.product_id))
        total = sum(s.score for s in ordered)
        running = 0.0
        prefix = []
        for item in ordered:
            prefix.append(item.product_id)
            running += item.score
            if running / total >= 0.80:
                break
        assert a_ids == prefix
        assert running / total >= 0.80
        if len(prefix) > 1:
            share_without_last = (running - ordered[len(prefix) - 1].score) / total
            assert share_without_last < 0.80
    print("ACCEPTANCE 2 PASS: class A is the minimal >=0.80 prefix on 500 random score vectors")


def exact_classes(scores, a_threshold, b_threshold):
    """ABC classes by exact shares: each score and threshold is the decimal its text reads."""
    exact = sorted((Fraction(repr(s)) for s in scores), reverse=True)
    total = sum(exact)
    a, b = Fraction(str(a_threshold)) * total, Fraction(str(b_threshold)) * total
    before, classes = Fraction(0), []
    for score in exact:
        classes.append("A" if before < a else "B" if before < b else "C")
        before += score
    return classes


def test_acceptance_2_class_cut_matches_an_exact_oracle():
    # 15 products scored 0.1 each: 12/15 is exactly 4/5, so rank 13 is B.
    items = [ScoredProduct(f"P{i:02d}", 0.0, 0.0, 0, 0.1) for i in range(15)]
    assert [r.abc_class for r in rank_and_cut(items)] == ["A"] * 12 + ["B"] * 3

    cases = [([s] * n, 0.80, 0.95) for s in (0.1, 0.3, 0.6, 0.7, 0.9) for n in range(2, 200)]
    rnd = random.Random(2020)
    for _ in range(500):  # a few short decimals make shares equal to a threshold common
        scores = [rnd.choice((0.1, 0.2, 0.3, 0.5, 0.7, 1.1)) for _ in range(rnd.randint(1, 30))]
        a = rnd.choice((0.5, 0.6, 0.7, 0.8, 0.9))
        cases.append((scores, a, rnd.choice((a, 0.9, 0.95, 1.0))))
    for scores, a, b in cases:
        items = [ScoredProduct(f"P{i:03d}", 0.0, 0.0, 0, s) for i, s in enumerate(scores)]
        assert [r.abc_class for r in rank_and_cut(items, a, b)] == exact_classes(scores, a, b)
    print(f"ACCEPTANCE 2 PASS: ABC classes match exact shares on {len(cases)} score vectors")


def test_acceptance_3_seasonal_profile_normalization():
    rnd = random.Random(3003)
    for _ in range(500):
        series = random_series(rnd, rnd.randint(2, 4))
        k = rnd.randint(2, 9)
        scaled = MonthlySeries("P", 2019, tuple(v * k for v in series.values))
        year = series.end_year + 1
        weights = [sum(series.values[m::12]) for m in range(12)]
        indices = [Fraction(12 * w, sum(weights)) for w in weights]  # month mean / grand monthly mean
        assert sum(indices) == 12
        for s in (series, scaled):
            need = float(monthly_need(s, year))
            seasonal = forecast_year(s, year)[1].monthly_values
            assert abs(sum(seasonal) - 12 * need) <= 1e-9 * 12 * need
            for value, index in zip(seasonal, indices):
                assert abs(value / need - float(index)) <= 1e-9
    print("ACCEPTANCE 3 PASS: seasonal row sums to 12 x need and its indices ignore scaling on 500 random series")


def test_acceptance_4_seasonal_beats_naive():
    rnd = random.Random(4004)
    start = time.perf_counter()

    exact_wins = 0
    for _ in range(100):
        pattern = [rnd.randint(0, 500) for _ in range(12)]
        while len(set(pattern)) < 2:  # non-constant by construction
            pattern = [rnd.randint(0, 500) for _ in range(12)]
        series = MonthlySeries("P", 2019, tuple(pattern) * 3)
        report = backtest(series, 2021)
        if report.mae_seasonal == 0.0 and report.mae_naive > 0.0:
            exact_wins += 1
    assert exact_wins == 100

    noisy_wins = 0
    for _ in range(100):
        level = rnd.randint(50, 300)
        phase = rnd.uniform(0, 2 * math.pi)
        pattern = [
            max(1, round(level * (1 + 0.5 * math.sin(2 * math.pi * m / 12 + phase))))
            for m in range(12)
        ]
        values = []
        for _year in range(3):
            values.extend(max(0, round(v * rnd.uniform(0.9, 1.1))) for v in pattern)
        report = backtest(MonthlySeries("P", 2019, tuple(values)), 2021)
        if report.mae_seasonal < report.mae_naive:
            noisy_wins += 1
    assert noisy_wins >= 90

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"backtests took {elapsed:.3f}s"
    print(
        f"ACCEPTANCE 4 PASS: seasonal exact on 100/100 periodic, beats naive on "
        f"{noisy_wins}/100 noisy series ({elapsed:.3f}s)"
    )


def test_acceptance_5_orientation_search_matches_brute_force():
    rnd = random.Random(5005)
    for _ in range(1000):
        dims = tuple(rnd.randint(40, 1000) for _ in range(3))
        pallet = PalletSpec(
            rnd.randint(300, 2200), rnd.randint(300, 2200), rnd.randint(300, 2200)
        )
        count, orientation = cartons_per_pallet(dims, pallet)
        best = max(
            int(pallet.usable_length // d1)
            * int(pallet.usable_width // d2)
            * int(pallet.usable_height // d3)
            for d1, d2, d3 in permutations(dims)
        )
        assert count == best
        d1, d2, d3 = orientation
        achieved = (
            int(pallet.usable_length // d1)
            * int(pallet.usable_width // d2)
            * int(pallet.usable_height // d3)
        )
        assert achieved == count
    print("ACCEPTANCE 5 PASS: orientation search equals brute force on 1000 random pairs")


def test_acceptance_6_ceiling_invariants():
    rnd = random.Random(6006)
    for _ in range(1000):
        boxes = rnd.randint(0, 1_000_000)
        per_carton = rnd.randint(1, 500)
        per_pallet = rnd.randint(1, 5000)
        cartons = cartons_needed(boxes, per_carton)
        assert per_carton * cartons >= boxes                # cartons >= boxes/bpc
        if boxes > 0:
            assert per_carton * (cartons - 1) < boxes       # cartons < boxes/bpc + 1
        else:
            assert cartons == 0
        pallets = pallets_needed(cartons, per_pallet)
        assert per_pallet * pallets >= cartons
        if cartons > 0:
            assert per_pallet * (pallets - 1) < cartons
        else:
            assert pallets == 0
    print("ACCEPTANCE 6 PASS: ceiling sandwich and pallet count exact on 1000 random cases")


def _bundled_config(out_dir, include_all=False):
    return RunConfig(
        deliveries=DATA_DIR / "deliveries.csv",
        catalog=DATA_DIR / "catalog.csv",
        stock=DATA_DIR / "stock.csv",
        out_dir=out_dir,
        start_year=2019,
        n_years=3,
        target_year=2022,
        include_all=include_all,
    )


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_acceptance_7_end_to_end_determinism_and_fixtures(tmp_path):
    # timed run, then a second run for byte-identity
    start = time.perf_counter()
    run_pipeline(_bundled_config(tmp_path / "a"))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"report took {elapsed:.3f}s"
    run_pipeline(_bundled_config(tmp_path / "b"))
    names = ("classification.csv", "forecast.csv", "plan.csv", "volume.csv", "gap.csv", "summary.json")
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    # summary totals equal detail column sums, exactly
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    plan_rows = _read_rows(tmp_path / "a" / "plan.csv")
    volume_rows = _read_rows(tmp_path / "a" / "volume.csv")
    assert summary["products_planned"] == len(plan_rows)
    assert summary["total_qc_boxes"] == sum(float(r["QC"]) for r in plan_rows)
    assert summary["total_pallets"] == sum(int(r["pallets"]) for r in volume_rows)
    assert summary["total_volume_m3"] == sum(float(r["total_volume_m3"]) for r in volume_rows)

    # hand-derived chains for the three designated products (run over all
    # products so the fixtures appear regardless of their ABC class)
    run_pipeline(_bundled_config(tmp_path / "all", include_all=True))
    plans = {r["product_id"]: r for r in _read_rows(tmp_path / "all" / "plan.csv")}
    volumes = {r["product_id"]: r for r in _read_rows(tmp_path / "all" / "volume.csv")}
    forecasts = {
        (r["product_id"], r["method"]): r for r in _read_rows(tmp_path / "all" / "forecast.csv")
    }

    # DG-0001: 100 boxes every month; 2021 total 1200 -> M 100, QS 400,
    # 150 on hand -> QC 250; 400 boxes / 24 per carton -> 17 cartons;
    # 60 cartons per EUR pallet -> 1 pallet; 17 * 0.024 m3 = 0.408 m3
    row = plans["DG-0001"]
    assert (row["M"], row["QS"], row["on_hand"], row["QC"], row["status"]) == (
        "100.0", "400.0", "150", "250.0", "UNDERSTOCK"
    )
    vol = volumes["DG-0001"]
    assert (vol["boxes"], vol["cartons"], vol["cartons_per_pallet"], vol["pallets"]) == (
        "400", "17", "60", "1"
    )
    assert vol["orientation"] == "200x400x300"
    assert float(vol["total_volume_m3"]) == 17 * (400 * 300 * 200 * 1e-9)
    assert abs(float(vol["total_volume_m3"]) - 0.408) < 1e-9

    # DG-0002: 100/month with December 200; 2021 total 1300 -> M 1300/12,
    # QS 1300/3, empty depot -> QC = QS; ceil -> 434 boxes, 44 cartons of 10,
    # 40 per pallet -> 2 pallets; 44 * 0.027 m3 = 1.188 m3; the seasonal
    # forecast reproduces the periodic pattern exactly
    row = plans["DG-0002"]
    assert float(row["M"]) == 1300 / 12
    assert float(row["QS"]) == 1300 / 3
    assert float(row["QC"]) == 1300 / 3
    assert row["status"] == "UNDERSTOCK"
    vol = volumes["DG-0002"]
    assert (vol["boxes"], vol["cartons"], vol["cartons_per_pallet"], vol["pallets"]) == (
        "434", "44", "40", "2"
    )
    assert float(vol["total_volume_m3"]) == 44 * (300 * 300 * 300 * 1e-9)
    assert abs(float(vol["total_volume_m3"]) - 1.188) < 1e-9
    seasonal = forecasts[("DG-0002", "seasonal")]
    assert float(seasonal["m12"]) == 200.0
    assert all(float(seasonal[f"m{i}"]) == 100.0 for i in range(1, 12))

    # DG-0003: cataloged, never delivered -> everything zero, status EXACT
    row = plans["DG-0003"]
    assert (row["M"], row["QS"], row["QC"], row["status"]) == ("0.0", "0.0", "0.0", "EXACT")
    vol = volumes["DG-0003"]
    assert (vol["boxes"], vol["cartons"], vol["pallets"], vol["total_volume_m3"]) == (
        "0", "0", "0", "0.0"
    )

    print(f"ACCEPTANCE 7 PASS: deterministic end-to-end run in {elapsed:.3f}s, "
          "totals consistent, fixture products exact")
