import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stockdim.forecasting import (
    METHOD_NAIVE,
    METHOD_SEASONAL,
    MIN_FIT_YEARS,
    SeasonalProfile,
    backtest,
    fit_seasonal_indices,
    forecast,
    forecast_year,
    monthly_need,
)
from stockdim.ingestion import MonthlySeries

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
    profile = fit_seasonal_indices(years((100,) * 12, 2))
    assert profile.indices == (Fraction(1),) * 12


def test_december_peak_indices_hand_check():
    # month mean Dec = 200, others 100; grand mean = 1300/12
    # index_Dec = 200/(1300/12) = 24/13, others = 12/13, sum = 12 exactly
    profile = fit_seasonal_indices(years(DEC_PEAK, 2))
    assert profile.indices[11] == Fraction(24, 13)
    assert set(profile.indices[:11]) == {Fraction(12, 13)}
    assert float(profile.indices[11]) == pytest.approx(1.8461538461538463, abs=1e-12)
    assert float(profile.indices[0]) == pytest.approx(0.9230769230769231, abs=1e-12)
    assert sum(profile.indices) == 12


def test_all_zero_series_falls_back_to_flat_profile():
    profile = fit_seasonal_indices(years((0,) * 12, 3))
    assert profile.indices == (Fraction(1),) * 12


def test_fit_requires_two_years():
    with pytest.raises(ValueError, match="at least 2 full years"):
        fit_seasonal_indices(years((100,) * 12, 1))


def test_indices_mean_is_one_and_scale_invariant():
    rnd = random.Random(5)
    for _ in range(25):
        pattern = [rnd.randint(0, 400) for _ in range(24)]
        series = MonthlySeries("P", 2019, tuple(pattern))
        profile = fit_seasonal_indices(series)
        assert sum(profile.indices) == 12 or profile.indices == (Fraction(1),) * 12
        k = rnd.randint(2, 9)
        scaled = MonthlySeries("P", 2019, tuple(v * k for v in pattern))
        assert fit_seasonal_indices(scaled).indices == profile.indices


def test_scale_equivariance_of_monthly_need():
    pattern = [7, 0, 13, 40, 5, 0, 0, 9, 120, 3, 2, 1]
    series = years(pattern, 1)
    scaled = years([v * 11 for v in pattern], 1)
    assert monthly_need(scaled, 2020) == 11 * monthly_need(series, 2020)


def test_naive_forecast_is_twelve_copies_of_need():
    result = forecast(100, SeasonalProfile("P", (1,) * 12), METHOD_NAIVE)
    assert result.monthly_values == (100.0,) * 12


def test_identity_profile_makes_seasonal_equal_naive():
    flat = SeasonalProfile("P", (1,) * 12)
    assert forecast(100, flat, METHOD_SEASONAL).monthly_values == (100.0,) * 12


def test_seasonal_forecast_december_peak():
    profile = fit_seasonal_indices(years(DEC_PEAK, 2))
    result = forecast(100, profile, METHOD_SEASONAL)
    assert result.monthly_values[11] == pytest.approx(184.61538461538464, abs=1e-9)
    assert result.monthly_values[0] == pytest.approx(92.3076923076923, abs=1e-9)
    assert sum(result.monthly_values) == pytest.approx(1200.0, abs=1e-9)


def test_both_methods_share_the_annual_total():
    rnd = random.Random(9)
    for _ in range(25):
        pattern = [rnd.randint(0, 300) for _ in range(24)]
        series = MonthlySeries("P", 2019, tuple(pattern))
        need = monthly_need(series, 2021)
        profile = fit_seasonal_indices(series)
        naive = forecast(need, profile, METHOD_NAIVE)
        seasonal = forecast(need, profile, METHOD_SEASONAL)
        assert sum(naive.monthly_values) == pytest.approx(12 * float(need), abs=1e-9)
        assert sum(seasonal.monthly_values) == pytest.approx(12 * float(need), abs=1e-9)


@pytest.mark.parametrize(
    "weights, message",
    [
        ((1,) * 11, "expected 12 month weights, got 11"),
        ((1,) * 11 + (-1,), ">= 0"),
        ((0,) * 12, "positive sum"),
        ((Fraction(1),) * 12, "integers"),
        ((1,) * 11 + (1.5,), "integers"),
    ],
)
def test_seasonal_profile_rejects_bad_weights(weights, message):
    with pytest.raises(ValueError, match=message):
        SeasonalProfile("P", weights)


NEEDS = st.one_of(
    st.integers(0, 10**15).map(lambda annual: Fraction(annual, 12)),
    st.integers(0, 10**9),
    st.floats(0, 1e12),
)


@given(st.lists(st.integers(0, 10**12), min_size=12, max_size=12).filter(any), NEEDS)
@example(list(DEC_PEAK), 100)
@example(list(DEC_PEAK), 8.5)
@example([10**12] + [0] * 10 + [1], Fraction(10**15 + 1, 12))
def test_forecast_matches_the_fraction_reference_bit_for_bit(weights, need):
    profile = SeasonalProfile("P", tuple(weights))
    exact = Fraction(need)
    reference = {
        METHOD_NAIVE: [float(exact)] * 12,
        METHOD_SEASONAL: [float(exact * Fraction(12 * w, sum(weights))) for w in weights],
    }
    for method, expected in reference.items():
        values = forecast(need, profile, method).monthly_values
        assert [v.hex() for v in values] == [e.hex() for e in expected]


def test_forecast_rejects_negative_need_and_unknown_method():
    flat = SeasonalProfile("P", (1,) * 12)
    with pytest.raises(ValueError, match=">= 0"):
        forecast(-1, flat, METHOD_NAIVE)
    with pytest.raises(ValueError, match="unknown forecast method"):
        forecast(1, flat, "wild-guess")


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
    profile = fit_seasonal_indices(series.window(series.start_year, year - series.start_year))
    results = forecast_year(series, year)
    assert [result.method for result in results] == [METHOD_NAIVE, METHOD_SEASONAL]
    for result in results:
        expected = forecast(need, profile, result.method)
        assert result.product_id == expected.product_id == "P"
        assert [v.hex() for v in result.monthly_values] == [v.hex() for v in expected.monthly_values]
        assert [v.hex() for v in result.monthly_values] == [v.hex() for v in reference[result.method]]


def test_forecast_year_names_too_little_history_and_an_uncovered_prior_year():
    too_little = "P: need at least 2 full years to fit seasonal indices, got 1"
    for call in (lambda: forecast_year(years(DEC_PEAK, 3), 2020), lambda: fit_seasonal_indices(years(DEC_PEAK, 1))):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == too_little
    for year, prior in ((2022, 2021), (2019, 2018)):
        uncovered = (f"P: cannot derive the monthly need for {year}, "
                     f"year {prior} not covered by the series (2019..2020)")
        for call in (forecast_year, monthly_need):
            with pytest.raises(ValueError) as raised:
                call(years(DEC_PEAK, 2), year)
            assert str(raised.value) == uncovered


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
    assert fit_seasonal_indices(series).indices == fit_seasonal_indices(scaled).indices


@given(st.lists(st.integers(0, 500), min_size=12, max_size=12))
def test_seasonal_beats_or_ties_naive_on_periodic_data(pattern):
    series = MonthlySeries("P", 2019, tuple(pattern) * 3)
    report = backtest(series, 2021)
    assert report.mae_seasonal == 0.0
    if len(set(pattern)) > 1:
        assert report.mae_naive > 0.0
