"""Monthly demand forecasting: baseline need, seasonal indices, backtests.

The baseline monthly need is last year's total deliveries spread evenly
over twelve months. The seasonal path rescales that baseline with
per-month indices (month mean divided by grand monthly mean), which
preserves the annual total while moving quantity into peak months.

Both are exact by construction, in integers rather than `Fraction`
objects. A profile keeps its month sums as integer weights, so index m
is exactly 12 * weight_m / total and the indices average to exactly 1.
`forecast` reads the need (an int, float or Fraction) as its integer
ratio num / den, and each value, num * 12 * weight / (den * total), is
one correctly rounded int/int division: the float nearest the exact
value, as `float(Fraction(...))` gives. On perfectly periodic demand the
seasonal forecast therefore reproduces the actuals with zero error.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .ingestion import MonthlySeries, annual_total

METHOD_NAIVE = "naive"
METHOD_SEASONAL = "seasonal"
METHODS = (METHOD_NAIVE, METHOD_SEASONAL)

MIN_FIT_YEARS = 2  # one year of history is pure noise for a monthly profile


@dataclass(frozen=True)
class SeasonalProfile:
    """Twelve integer month weights; index m is 12 * weights[m] / sum."""

    product_id: str
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != 12:
            raise ValueError(f"expected 12 month weights, got {len(self.weights)}")
        if min(self.weights) < 0:
            raise ValueError("month weights must be >= 0")
        total = sum(self.weights)
        if not isinstance(total, int):  # any float or Fraction weight makes the sum non-int
            raise ValueError("month weights must be integers")
        if total <= 0:
            raise ValueError("month weights must have a positive sum")

    @property
    def indices(self) -> tuple:
        """The twelve multiplicative month indices, averaging exactly 1."""
        total = sum(self.weights)
        return tuple(Fraction(12 * w, total) for w in self.weights)

    @classmethod
    def flat(cls, product_id: str) -> "SeasonalProfile":
        return cls(product_id, (1,) * 12)


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


def monthly_need(series: MonthlySeries, target_year: int) -> Fraction:
    """Baseline need for the target year: prior-year deliveries / 12.

    Kept fractional; rounding to whole boxes happens once, at the
    volumetric packing step.
    """
    prior = target_year - 1
    if not series.covers(prior):
        raise ValueError(
            f"{series.product_id}: cannot derive the monthly need for {target_year}, "
            f"year {prior} not covered by the series ({series.start_year}..{series.end_year})"
        )
    return Fraction(annual_total(series, prior), 12)


def fit_seasonal_indices(series: MonthlySeries) -> SeasonalProfile:
    """Fit the twelve month indices from at least two full years.

    index_m = mean(month m across years) / mean(all months). An all-zero
    series has no usable shape and falls back to a flat profile.
    """
    if series.n_years < MIN_FIT_YEARS:
        raise ValueError(
            f"{series.product_id}: need at least {MIN_FIT_YEARS} full years to fit "
            f"seasonal indices, got {series.n_years}"
        )
    if not any(series.values):
        return SeasonalProfile.flat(series.product_id)
    # month_sum / n_years over total / (12 * n_years) reduces to
    # 12 * month_sum / total, so the month sums are the weights.
    values = series.values
    return SeasonalProfile(series.product_id, tuple(sum(values[m::12]) for m in range(12)))


def forecast(monthly_need, profile: SeasonalProfile, method: str) -> ForecastResult:
    """Spread the monthly need over twelve months, flat or by seasonal index.

    Both methods distribute the same annual quantity (12 times the need);
    the seasonal method only reshapes where inside the year it lands.
    """
    if method not in METHODS:
        raise ValueError(f"unknown forecast method {method!r}, expected one of {METHODS}")
    num, den = monthly_need.as_integer_ratio()
    if num < 0:
        raise ValueError(f"monthly need must be >= 0, got {monthly_need}")
    if method == METHOD_NAIVE:
        values = (num / den,) * 12
    else:
        # need * 12 * w / total as one correctly rounded int/int division
        num *= 12
        den *= sum(profile.weights)
        values = tuple(num * w / den for w in profile.weights)
    return ForecastResult(profile.product_id, method, values)


def forecast_year(series: MonthlySeries, year: int) -> tuple:
    """The naive and the seasonal forecast of `year`, with no lookahead.

    The need comes from `year - 1` (`monthly_need`) and the profile is
    fit on every year of the series before `year`.
    """
    need = monthly_need(series, year)
    profile = fit_seasonal_indices(series.window(series.start_year, year - series.start_year))
    return forecast(need, profile, METHOD_NAIVE), forecast(need, profile, METHOD_SEASONAL)


def _mae(forecast_values, actual) -> float:
    return sum(abs(f - a) for f, a in zip(forecast_values, actual)) / 12


def _mape(forecast_values, actual) -> float:
    terms = [abs(f - a) / a for f, a in zip(forecast_values, actual) if a > 0]
    return sum(terms) / len(terms)


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
