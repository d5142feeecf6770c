"""Monthly demand forecasting: baseline need, seasonal forecast, backtests.

`forecast_year(series, year)` forecasts one year from the years before
it, with no lookahead. The baseline monthly need is the total T of year
`year - 1` over twelve, and the naive forecast repeats it. The seasonal
forecast spreads the same annual quantity T by month weight: w_m sums
month m over every year before `year`, and month m gets T * w_m / sum(w),
the need T / 12 times the seasonal index 12 * w_m / sum(w). Year
`year - 1` is one of the summed years, so where every w_m is 0, T is 0
and so is every month.

Both are exact by construction, in integers rather than `Fraction`
objects: each seasonal value, T * w_m / sum(w), is one correctly
rounded int/int division, the float nearest the exact value, as
`float(Fraction(...))` gives. On perfectly periodic demand the seasonal
forecast therefore reproduces the actuals with zero error.
"""

from fractions import Fraction
from functools import reduce
from operator import add
from typing import NamedTuple

from .ingestion import MonthlySeries, annual_total

METHOD_NAIVE = "naive"
METHOD_SEASONAL = "seasonal"

MIN_FIT_YEARS = 2  # one year of history is pure noise for a monthly profile


class ForecastResult(NamedTuple):
    """Per-month forecast for one product, in boxes (fractional allowed)."""

    product_id: str
    method: str
    monthly_values: tuple


class BacktestReport(NamedTuple):
    """Error of both forecast methods against one held-out year.

    MAPE skips months whose actual demand is zero; if the whole holdout
    year is zero the MAPEs are reported as 0 and flagged undefined.
    """

    product_id: str
    holdout_year: int
    mae_naive: float
    mae_seasonal: float
    mape_naive: float
    mape_seasonal: float
    no_nonzero_actuals: bool = False


def _prior_total(series: MonthlySeries, year: int) -> int:
    """The deliveries of `year - 1`, a year the series must cover."""
    prior = year - 1
    if not series.covers(prior):
        raise ValueError(
            f"{series.product_id}: cannot derive the monthly need for {year}, "
            f"year {prior} not covered by the series ({series.start_year}..{series.end_year})"
        )
    return annual_total(series, prior)


def monthly_need(series: MonthlySeries, target_year: int) -> Fraction:
    """Baseline need for the target year: prior-year deliveries / 12.

    Kept fractional; rounding to whole boxes happens once, at the
    volumetric packing step.
    """
    return Fraction(_prior_total(series, target_year), 12)


def forecast_year(series: MonthlySeries, year: int) -> tuple:
    """The naive and the seasonal forecast of `year`, with no lookahead.

    The naive row repeats one float object, T / 12 for the total T of
    `year - 1`. Month m of the seasonal row is T * w_m / sum(w), with w
    the month sums over the `MIN_FIT_YEARS` or more years before `year`.
    """
    total, fit_years = _prior_total(series, year), year - series.start_year
    if fit_years < MIN_FIT_YEARS:
        raise ValueError(
            f"{series.product_id}: need at least {MIN_FIT_YEARS} full years to fit "
            f"seasonal indices, got {fit_years}"
        )
    weights = [*map(sum, zip(*[series.values[lo : lo + 12] for lo in range(0, 12 * fit_years, 12)]))]
    den = sum(weights) or 1  # all zero only where T, a summed year, is 0: every month is 0.0
    return (ForecastResult(series.product_id, METHOD_NAIVE, (total / 12,) * 12),
            ForecastResult(series.product_id, METHOD_SEASONAL, tuple([total * w / den for w in weights])))


def _mae(forecast_values, actual) -> float:
    return reduce(add, (abs(f - a) for f, a in zip(forecast_values, actual)), 0) / 12  # left to right, as `sum` added before 3.12


def _mape(forecast_values, actual) -> float:
    terms = [abs(f - a) / a for f, a in zip(forecast_values, actual) if a > 0]
    return reduce(add, terms, 0) / len(terms)


def backtest(series: MonthlySeries, holdout_year: int) -> BacktestReport:
    """Score both forecast methods of `forecast_year` against one held-out year.

    The holdout year must be covered and have at least `MIN_FIT_YEARS`
    years before it; it never leaks into its own forecast.
    """
    if not series.covers(holdout_year):
        raise ValueError(
            f"{series.product_id}: holdout year {holdout_year} not covered "
            f"by the series ({series.start_year}..{series.end_year})"
        )
    fit_years = holdout_year - series.start_year
    if fit_years < MIN_FIT_YEARS:
        raise ValueError(
            f"{series.product_id}: backtesting {holdout_year} needs at least "
            f"{MIN_FIT_YEARS} years strictly before it, got {fit_years}"
        )
    naive, seasonal = forecast_year(series, holdout_year)
    actual = series.year_slice(holdout_year)

    no_actuals = all(a == 0 for a in actual)
    return BacktestReport(
        product_id=series.product_id,
        holdout_year=holdout_year,
        mae_naive=_mae(naive.monthly_values, actual),
        mae_seasonal=_mae(seasonal.monthly_values, actual),
        mape_naive=0.0 if no_actuals else _mape(naive.monthly_values, actual),
        mape_seasonal=0.0 if no_actuals else _mape(seasonal.monthly_values, actual),
        no_nonzero_actuals=no_actuals,
    )
