"""Monthly demand forecasting: baseline need, seasonal forecast, backtests.

`forecast_columns(block, year)` forecasts one year, with no lookahead,
for a block of products' `Slots`: month m of year y is the strided
column `values[12 * y + m :: width]`, and every sum adds columns
element-wise, left to right from 0 (`column_sums`). The naive
forecast repeats T / 12, for the total T of year `year - 1`. The
seasonal forecast spreads T by month weight: w_m sums month m over every
year before `year`, and month m gets T * w_m / sum(w). Year `year - 1`
is one of the summed years, so where every w_m is 0, T is 0 and so is
every month. `forecast_year`, `backtest`, `monthly_need` and `report` are
all views of this one rule, for one series or a block at a time.

Both are exact by construction, in integers rather than `Fraction`
objects: each value is one correctly rounded int/int division, the
float `float(Fraction(...))` gives. On perfectly periodic demand the
seasonal forecast therefore reproduces the actuals with zero error.
"""

from collections import namedtuple
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, repeat
from operator import add, mul, sub, truediv

from .ingestion import MonthlySeries, Slots

METHOD_NAIVE = "naive"
METHOD_SEASONAL = "seasonal"

MIN_FIT_YEARS = 2  # one year of history is pure noise for a monthly profile


# Per-month forecast for one product, in boxes (fractional allowed).
ForecastResult = namedtuple("ForecastResult", "product_id method monthly_values")
# Error of both forecast methods against one held-out year. MAPE skips months whose actual demand is zero;
# if the whole holdout year is zero the MAPEs are reported as 0 and flagged undefined (`no_nonzero_actuals`).
BacktestReport = namedtuple("BacktestReport", "product_id holdout_year mae_naive mae_seasonal mape_naive "
                            "mape_seasonal no_nonzero_actuals", defaults=(False,))


def _check_prior(block: Slots, year: int):
    """Name the block's first product unless the block holds year `year - 1`."""
    if not block.start_year < year <= block.end_year + 1:
        raise ValueError(f"{next(iter(block))}: cannot derive the monthly need for {year}, year {year - 1} "
                         f"not covered by the series ({block.start_year}..{block.end_year})")


def monthly_need(series: MonthlySeries, target_year: int) -> Fraction:
    """Baseline need for the target year: prior-year deliveries / 12, the `Slots.totals` of one series.

    Kept fractional: boxes are rounded up once, at the volumetric packing step.
    """
    block = Slots.of([series])
    _check_prior(block, target_year)
    return Fraction(*block.totals(block, target_year - 1, target_year - 1), 12)


def column_sums(columns) -> list:
    """The element-wise sums of one or more equal columns, each added left to right from 0."""
    return [*reduce(partial(map, add), columns, repeat(0))]


def forecast_columns(block: Slots, year: int, flat_offer=False) -> tuple:
    """The forecasts of `year` for a block of products: `(actual, naive, seasonal)` columns.

    `actual` holds `year`'s 12 month columns (none past the window),
    `naive` T / 12 per product, and `seasonal` 12 month columns, fit on
    `MIN_FIT_YEARS` or more earlier years; with `flat_offer`, fewer
    years give `naive` in every month instead of an error.
    """
    first, width, fit_years = next(iter(block)), block.width, year - block.start_year
    _check_prior(block, year)
    columns = [block.slots[slot::width] for slot in range(min(width, 12 * fit_years + 12))]
    totals = column_sums(columns[12 * fit_years - 12 : 12 * fit_years])
    naive = [*map(truediv, totals, repeat(12))]
    if fit_years >= MIN_FIT_YEARS:
        weights = [column_sums(columns[m : 12 * fit_years : 12]) for m in range(12)]
        dens = [den or 1 for den in column_sums(weights)]  # all zero only where T, a summed year, is 0
        seasonal = [[*map(truediv, map(mul, totals, w), dens)] for w in weights]
    elif flat_offer:
        seasonal = [naive] * 12
    else:
        raise ValueError(f"{first}: need at least {MIN_FIT_YEARS} full years to fit "
                         f"seasonal indices, got {fit_years}")
    return columns[12 * fit_years :], naive, seasonal


def forecast_year(series: MonthlySeries, year: int) -> tuple:
    """The naive and the seasonal `ForecastResult` of `year`, with no lookahead: `forecast_columns` of one series."""
    _, (naive,), seasonal = forecast_columns(Slots.of([series]), year)
    return (ForecastResult(series.product_id, METHOD_NAIVE, (naive,) * 12),  # one float object, repeated
            ForecastResult(series.product_id, METHOD_SEASONAL, tuple(chain.from_iterable(seasonal))))


def backtests(block: Slots, holdout_year: int) -> list:
    """Score both forecast methods of `forecast_columns` against one held-out year, per product of a block.

    The holdout year must be covered and have `MIN_FIT_YEARS` years before it. MAE sums |f - a|
    over the 12 months, MAPE |f - a| / a over the months with a > 0, each left to right from 0.
    """
    first, fit_years = next(iter(block)), holdout_year - block.start_year
    if not block.start_year <= holdout_year <= block.end_year:
        raise ValueError(f"{first}: holdout year {holdout_year} not covered "
                         f"by the series ({block.start_year}..{block.end_year})")
    if fit_years < MIN_FIT_YEARS:
        raise ValueError(f"{first}: backtesting {holdout_year} needs at least "
                         f"{MIN_FIT_YEARS} years strictly before it, got {fit_years}")
    actual, naive, seasonal = forecast_columns(block, holdout_year)
    counts = column_sums([[a > 0 for a in column] for column in actual])

    def scores(forecast):  # the MAE and the MAPE column of one method
        errors = [[*map(abs, map(sub, f, a))] for f, a in zip(forecast, actual)]
        shares = column_sums([[e / a if a > 0 else 0 for e, a in zip(*pair)] for pair in zip(errors, actual)])
        return [*map(truediv, column_sums(errors), repeat(12))], [s / n if n else 0.0 for s, n in zip(shares, counts)]
    (mae_naive, mape_naive), (mae_seasonal, mape_seasonal) = scores([naive] * 12), scores(seasonal)
    return [*map(BacktestReport, block, repeat(holdout_year), mae_naive, mae_seasonal,
                 mape_naive, mape_seasonal, [n == 0 for n in counts])]


def backtest(series: MonthlySeries, holdout_year: int) -> BacktestReport:
    """`backtests` of one series."""
    return backtests(Slots.of([series]), holdout_year)[0]
