import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stockdim.forecasting import (
    METHOD_NAIVE,
    METHOD_SEASONAL,
    MIN_FIT_YEARS,
    backtest,
    backtests,
    forecast_columns,
    forecast_year,
    monthly_need,
)
from stockdim.ingestion import MonthlySeries, Slots

DEC_PEAK = (100,) * 11 + (200,)  # 1300 boxes/year, all of the bump in December


def years(pattern, n):
    return MonthlySeries("P", 2019, tuple(pattern) * n)


def test_monthly_need_examples():
    assert monthly_need(years((100,) * 12, 1), 2020) == 100
    assert monthly_need(years((0,) * 12, 1), 2020) == 0
    m = monthly_need(years((100,) + (0,) * 11, 1), 2020)
    assert m == Fraction(100, 12)
    assert float(m) == pytest.approx(8.333333333333334, abs=1e-12)


def test_monthly_need_requires_prior_year():
    with pytest.raises(ValueError, match="year 2021 not covered"):
        monthly_need(years((100,) * 12, 1), 2022)


def test_flat_demand_gives_unit_indices():
    naive, seasonal = forecast_year(years((100,) * 12, 3), 2021)
    assert seasonal.monthly_values == naive.monthly_values == (100.0,) * 12


def test_december_peak_indices_hand_check():
    # month mean Dec = 200, others 100; grand mean = 1300/12
    # index_Dec = 200/(1300/12) = 24/13, others = 12/13, sum = 12 exactly
    naive, seasonal = forecast_year(years(DEC_PEAK, 3), 2021)
    assert naive.monthly_values == (1300 / 12,) * 12
    assert seasonal.monthly_values == tuple(map(float, DEC_PEAK))  # 1300/12 * 24/13 = 200 exactly
    assert seasonal.monthly_values[11] / naive.monthly_values[11] == pytest.approx(24 / 13, abs=1e-12)
    assert seasonal.monthly_values[0] / naive.monthly_values[0] == pytest.approx(12 / 13, abs=1e-12)
    assert sum(seasonal.monthly_values) == 1300


def test_all_zero_series_falls_back_to_flat_profile():
    series = years((0,) * 12, 3)
    for result in forecast_year(series, 2022):  # no division by the zero month sum
        assert result.monthly_values == (0.0,) * 12


def test_fit_requires_two_years():
    with pytest.raises(ValueError, match="at least 2 full years"):
        forecast_year(years((100,) * 12, 2), 2020)


def test_indices_mean_is_one_and_scale_invariant():
    rnd = random.Random(5)
    for _ in range(25):
        pattern = [rnd.randint(0, 400) for _ in range(24)]
        series = MonthlySeries("P", 2019, tuple(pattern))
        need = float(monthly_need(series, 2021))
        seasonal = forecast_year(series, 2021)[1].monthly_values
        assert sum(seasonal) == pytest.approx(12 * need, rel=1e-12)
        k = rnd.randint(2, 9)
        scaled = MonthlySeries("P", 2019, tuple(v * k for v in pattern))
        assert forecast_year(scaled, 2021)[1].monthly_values == pytest.approx([k * v for v in seasonal], rel=1e-12)


def test_scale_equivariance_of_monthly_need():
    pattern = [7, 0, 13, 40, 5, 0, 0, 9, 120, 3, 2, 1]
    series = years(pattern, 1)
    scaled = years([v * 11 for v in pattern], 1)
    assert monthly_need(scaled, 2020) == 11 * monthly_need(series, 2020)


def test_naive_forecast_is_twelve_copies_of_need():
    series = years((7, 0, 13, 40, 5, 0, 0, 9, 120, 3, 2, 1), 3)
    values = forecast_year(series, 2021)[0].monthly_values
    assert values == (float(monthly_need(series, 2021)),) * 12
    assert len({id(v) for v in values}) == 1  # one float object, repeated


def test_identity_profile_makes_seasonal_equal_naive():
    series = MonthlySeries("P", 2019, (50,) * 12 + (100,) * 12)  # flat month sums, levels differ
    naive, seasonal = forecast_year(series, 2021)
    assert seasonal.monthly_values == naive.monthly_values == (100.0,) * 12


def test_seasonal_forecast_december_peak():
    # month sums over 2019-2020 are DEC_PEAK, and 2020 delivered 1200: need 100
    series = MonthlySeries("P", 2019, (0,) * 11 + (100,) + (100,) * 12)
    result = forecast_year(series, 2021)[1]
    assert result.monthly_values[11] == pytest.approx(184.61538461538464, abs=1e-9)
    assert result.monthly_values[0] == pytest.approx(92.3076923076923, abs=1e-9)
    assert sum(result.monthly_values) == pytest.approx(1200.0, abs=1e-9)


def test_both_methods_share_the_annual_total():
    rnd = random.Random(9)
    for _ in range(25):
        pattern = [rnd.randint(0, 300) for _ in range(24)]
        series = MonthlySeries("P", 2019, tuple(pattern))
        need = monthly_need(series, 2021)
        naive, seasonal = forecast_year(series, 2021)
        assert sum(naive.monthly_values) == pytest.approx(12 * float(need), abs=1e-9)
        assert sum(seasonal.monthly_values) == pytest.approx(12 * float(need), abs=1e-9)


ZERO_YEAR = (0,) * 12
YEARS = st.lists(  # 2 to 6 years, any of them all zero
    st.just(ZERO_YEAR) | st.tuples(*[st.integers(0, 10**12)] * 12), min_size=2, max_size=6,
).map(lambda years: sum(years, ()))


@given(YEARS, st.integers(0, 4))
@example(ZERO_YEAR * 3, 0)
@example((1,) * 24 + ZERO_YEAR, 1)
@example(ZERO_YEAR * 2 + (10**12,) * 12, 1)
def test_forecast_year_is_need_profile_and_forecast_bit_for_bit(values, offset):
    series = MonthlySeries("P", 2019, values)
    year = min(series.start_year + MIN_FIT_YEARS + offset, series.end_year + 1)
    need = monthly_need(series, year)
    weights = [sum(values[m : 12 * (year - 2019) : 12]) for m in range(12)]
    weights = weights if any(weights) else [1] * 12
    reference = {  # the exact values, each rounded once
        METHOD_NAIVE: [float(need)] * 12,
        METHOD_SEASONAL: [float(need * Fraction(12 * w, sum(weights))) for w in weights],
    }
    results = forecast_year(series, year)
    assert [result.method for result in results] == [METHOD_NAIVE, METHOD_SEASONAL]
    for result in results:
        assert result.product_id == "P"
        assert [v.hex() for v in result.monthly_values] == [v.hex() for v in reference[result.method]]


def test_forecast_year_names_too_little_history_and_an_uncovered_prior_year():
    too_little = "P: need at least 2 full years to fit seasonal indices, got 1"
    with pytest.raises(ValueError) as raised:
        forecast_year(years(DEC_PEAK, 3), 2020)
    assert str(raised.value) == too_little
    for year, prior in ((2022, 2021), (2019, 2018)):
        uncovered = (f"P: cannot derive the monthly need for {year}, "
                     f"year {prior} not covered by the series (2019..2020)")
        for call in (forecast_year, monthly_need):
            with pytest.raises(ValueError) as raised:
                call(years(DEC_PEAK, 2), year)
            assert str(raised.value) == uncovered


def test_a_block_is_one_window_and_names_its_first_product():
    block = [years(DEC_PEAK, 3), MonthlySeries("Q", 2019, (1,) * 24)]
    with pytest.raises(ValueError) as raised:
        forecast_columns(Slots.of(block), 2021)
    assert str(raised.value) == "P: a block's series must cover one window"
    block = [MonthlySeries("A", 2019, DEC_PEAK * 3), MonthlySeries("B", 2018, DEC_PEAK * 4)]  # both end in 2021
    with pytest.raises(ValueError, match="^A: a block's series must cover one window$"):
        backtests(Slots.of(block), 2021)
    with pytest.raises(ValueError, match="^A: need at least 2 full years"):
        forecast_columns(Slots.of([MonthlySeries("A", 2019, DEC_PEAK * 2), MonthlySeries("B", 2019, (0,) * 24)]), 2020)


def test_backtest_periodic_series_seasonal_is_exact():
    report = backtest(years(DEC_PEAK, 3), 2021)
    assert report.mae_seasonal == 0.0
    assert report.mape_seasonal == 0.0
    assert report.mae_naive > 0.0
    assert not report.no_nonzero_actuals


def test_backtest_constant_series_both_methods_exact():
    report = backtest(years((100,) * 12, 3), 2021)
    assert report.mae_naive == 0.0
    assert report.mae_seasonal == 0.0


def test_backtest_zero_holdout_year_flags_undefined_mape():
    values = (100,) * 24 + (0,) * 12
    report = backtest(MonthlySeries("P", 2019, values), 2021)
    assert report.no_nonzero_actuals
    assert report.mape_naive == 0.0 and report.mape_seasonal == 0.0
    assert report.mae_naive == 100.0


def test_backtest_requires_two_years_before_holdout():
    with pytest.raises(ValueError, match="at least 2 years strictly before"):
        backtest(years((100,) * 12, 2), 2020)
    with pytest.raises(ValueError, match="not covered"):
        backtest(years((100,) * 12, 3), 2030)


@given(
    st.lists(st.integers(0, 500), min_size=12, max_size=12),
    st.integers(2, 9),
)
def test_seasonal_profile_is_invariant_under_integer_scaling(pattern, k):
    series = MonthlySeries("P", 2019, tuple(pattern) * 2)
    scaled = MonthlySeries("P", 2019, tuple(v * k for v in pattern) * 2)
    seasonal = forecast_year(series, 2021)[1].monthly_values
    assert forecast_year(scaled, 2021)[1].monthly_values == tuple(k * v for v in seasonal)


@given(st.lists(st.integers(0, 500), min_size=12, max_size=12))
def test_seasonal_beats_or_ties_naive_on_periodic_data(pattern):
    series = MonthlySeries("P", 2019, tuple(pattern) * 3)
    report = backtest(series, 2021)
    assert report.mae_seasonal == 0.0
    if len(set(pattern)) > 1:
        assert report.mae_naive > 0.0
