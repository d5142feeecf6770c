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


def _month_weights(series: MonthlySeries, year: int) -> tuple:
    """The 12 month sums over every year of the series before `year`, or (1,) * 12 if all are 0."""
    fit_years = year - series.start_year
    if fit_years < MIN_FIT_YEARS:
        raise ValueError(
            f"{series.product_id}: need at least {MIN_FIT_YEARS} full years to fit "
            f"seasonal indices, got {fit_years}"
        )
    weights = tuple(map(sum, zip(*[series.values[lo : lo + 12] for lo in range(0, 12 * fit_years, 12)])))
    return weights if any(weights) else (1,) * 12


def _spread(num: int, den: int, weights: tuple) -> tuple:
    """The need num / den times 12 * w / sum(weights) for each weight w, as one int/int division."""
    num, den = num * 12, den * sum(weights)
    return tuple([num * w / den for w in weights])


def monthly_need(series: MonthlySeries, target_year: int) -> Fraction:
    """Baseline need for the target year: prior-year deliveries / 12.

    Kept fractional; rounding to whole boxes happens once, at the
    volumetric packing step.
    """
    return Fraction(_prior_total(series, target_year), 12)


def fit_seasonal_indices(series: MonthlySeries) -> SeasonalProfile:
    """Fit the twelve month indices from at least two full years.

    index_m = mean(month m across years) / mean(all months), which is
    12 * month_sum / total, so the month sums are the weights. An all-zero
    series has no usable shape and falls back to a flat profile.
    """
    return SeasonalProfile(series.product_id, _month_weights(series, series.end_year + 1))


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
    values = (num / den,) * 12 if method == METHOD_NAIVE else _spread(num, den, profile.weights)
    return ForecastResult(profile.product_id, method, values)


def forecast_year(series: MonthlySeries, year: int) -> tuple:
    """The naive and the seasonal forecast of `year`, with no lookahead.

    Bit for bit `forecast` of `monthly_need(series, year)` and of the
    profile fit on every year before `year`, from integer month sums.
    The naive row repeats one float object.
    """
    total, weights = _prior_total(series, year), _month_weights(series, year)
    return (ForecastResult(series.product_id, METHOD_NAIVE, (total / 12,) * 12),
            ForecastResult(series.product_id, METHOD_SEASONAL, _spread(total, 12, weights)))


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
