"""End-to-end pipeline: ingest, classify, forecast, plan, size, report.

The pipeline is defined once, as the stages of `PipelineResult`, read
from the fold's month slots (`Slots`) with no per-product series. Most
are computed once, on first use; `forecasts` and `gaps`, each read by
one file only, are iterators of `BLOCK`-product column blocks computed
as that file is written, anew on each read; a check on their values
raises only when they are iterated. `plans` holds the sizing chain in
integer numerators (`PlanColumns`): each float written from it is one
correctly rounded division. `run_pipeline` reads only the
stages behind the requested files (`ARTIFACTS`), for the strategic
(class A) subset by default or for every product with `include_all`.
`write_reports` streams each file into a temporary directory inside the
output directory and moves each into place with `os.replace`. A failed
run keeps the previous files and removes every directory it created.
The commit is one rename per file; a failed rename puts back the files
replaced before it from hard links made first, so only a crash between
two renames can leave the set mixed. Rows are emitted in product_id
order (classification in rank order). A row is one f-string, or for a
block one `%` template per product, which write a value as `csv.writer`
would: a float as its shortest round-trip repr, anything else as `str`.
Float totals add left to right from 0, as `sum` did before Python 3.12.
So identical inputs give byte-identical files on every Python from 3.10.
Only a product id can need quoting, by RFC 4180 (`_id_field`).
"""

import contextlib
import math
import os
import tempfile
from collections import namedtuple
from functools import cached_property, reduce
from itertools import chain, repeat
from operator import add, sub, truediv
from pathlib import Path

from .classification import (
    DEFAULT_A_THRESHOLD,
    DEFAULT_B_THRESHOLD,
    DEFAULT_WEIGHTS,
    rank_and_cut,
    score_products,
)
from .dimensioning import DEFAULT_STOCK_MONTHS, plan_columns
from .forecasting import backtests, column_sums, forecast_columns
from .forking import _in_two
from .ingestion import LoadedData, _Checked, parse_inputs
from .volumetric import DEFAULT_PALLET, volume_plans

CLASSIFICATION_CSV = "classification.csv"
FORECAST_CSV = "forecast.csv"
BACKTEST_CSV = "backtest.csv"
PLAN_CSV = "plan.csv"
VOLUME_CSV = "volume.csv"
GAP_CSV = "gap.csv"
SUMMARY_JSON = "summary.json"
REPORT = (CLASSIFICATION_CSV, FORECAST_CSV, PLAN_CSV, VOLUME_CSV, GAP_CSV, SUMMARY_JSON)
BLOCK = 512  # products per columnar pass: long columns for `map`, while a block's rows stay small


class RunConfig(_Checked, namedtuple("RunConfig", "deliveries catalog stock out_dir start_year n_years target_year"
                                     " multiplier weights a_threshold b_threshold pallet include_all", defaults=(
        DEFAULT_STOCK_MONTHS, DEFAULT_WEIGHTS, DEFAULT_A_THRESHOLD, DEFAULT_B_THRESHOLD, DEFAULT_PALLET, False))):
    """Every knob of a pipeline run, so results reproduce from one object."""

    __slots__ = ()

    def _check(self):
        if self.n_years < 1:
            raise ValueError(f"history window must cover at least 1 year, got {self.n_years}")
        if self.target_year <= self.start_year:
            raise ValueError(f"target year {self.target_year} must be after the window start {self.start_year}")
        if self.target_year > self.start_year + self.n_years:
            raise ValueError(f"target year {self.target_year} needs year {self.target_year - 1} of history, "
                             f"but the window ends in {self.start_year + self.n_years - 1}")
        if not (math.isfinite(self.multiplier) and self.multiplier > 0):
            raise ValueError(f"stock multiplier must be finite and > 0, got {self.multiplier}")

    @property
    def last_history_year(self) -> int:
        return self.start_year + self.n_years - 1


def load_inputs(config: RunConfig) -> LoadedData:
    return parse_inputs(config.deliveries, config.catalog, config.stock, config.start_year, config.n_years)


def gap_blocks(data: LoadedData, product_ids, config: RunConfig):
    """Yield the gap KPI of the last history year as `(periods, ids, demand, offered, gap, rate)` blocks.

    The last four hold a column over `ids` per period, the year (its
    months added left to right from 0) then its months. The offer is
    what the planning method would have put on the table for that year
    with no lookahead: `forecast_columns`, seasonal where `MIN_FIT_YEARS`
    earlier years exist, flat otherwise. A gap `d - o` keeps its sign (negative
    where the offer exceeded demand); a rate is `min(o, d) / d`, or 1.0 where d is 0.
    """
    year = config.last_history_year
    periods = (str(year), *(f"{year}-{month:02d}" for month in range(1, 13)))
    for block in data.series.blocks(sorted(product_ids), BLOCK):
        demand, _, offered = forecast_columns(block, year, flat_offer=True)
        demand, offered = [column_sums(demand), *demand], [column_sums(offered), *offered]
        yield (periods, [*block], demand, offered,
               [[*map(sub, d, o)] for d, o in zip(demand, offered)],
               [[o / d if o < d else 1.0 for o, d in zip(os, ds)] for ds, os in zip(demand, offered)])


def _id_field(pid) -> str:
    """A product id as its CSV field: quoted, each `"` doubled, if it holds a comma, `"`, CR or LF."""
    field = str(pid)
    if "," in field or '"' in field or "\r" in field or "\n" in field:
        field = '"' + field.replace('"', '""') + '"'
    return field


def classification_csv(results, fh):
    fh.write("product_id,score,rank,cumulative_share,abc_class,strategic\n")
    fh.writelines(
        f"{_id_field(r.product_id)},{r.score},{r.rank},{r.cumulative_share},{r.abc_class},"
        f"{'true' if r.strategic else 'false'}\n"
        for r in sorted(results, key=lambda r: r.rank)
    )


def forecast_csv(blocks, fh):
    """Render `(ids, naive, seasonal)` blocks, a naive row (its one value formatted once) then a seasonal row."""
    fh.write("product_id,method," + ",".join(f"m{i}" for i in range(1, 13)) + "\n")
    row = "%s,naive," + ",".join(["%s"] * 12) + "\n%s,seasonal," + ",".join(["%r"] * 12) + "\n"
    for ids, naive, seasonal in blocks:
        ids = [*map(_id_field, ids)]
        fh.writelines(map(row.__mod__, zip(ids, *[[*map(repr, naive)]] * 12, ids, *seasonal)))


def backtest_csv(reports, fh):
    fh.write("product_id,holdout_year,mae_naive,mae_seasonal,mape_naive,mape_seasonal\n")
    fh.writelines(
        f"{_id_field(r.product_id)},{r.holdout_year},{r.mae_naive},{r.mae_seasonal},"
        f"{r.mape_naive},{r.mape_seasonal}\n"
        for r in reports
    )


def plan_csv(plans, fh):
    """Render `PlanColumns`, each float one division of its numerator."""
    fh.write("product_id,M,QS,on_hand,QC,status\n")
    den = repeat(plans.den)
    fh.writelines(map("%s,%r,%r,%s,%r,%s\n".__mod__, zip(
        map(_id_field, plans.product_ids), map(truediv, plans.need, repeat(12)), map(truediv, plans.stock, den),
        plans.on_hand, map(truediv, plans.order, den), plans.status)))


def volume_csv(volumes, fh):
    fh.write("product_id,boxes,cartons,cartons_per_pallet,orientation,pallets,total_volume_m3\n")
    fh.writelines(
        f"{_id_field(v.product_id)},{v.boxes},{v.cartons},{v.cartons_per_pallet},"
        f"{'x'.join(map(str, v.orientation))},{v.pallets},{v.total_volume_m3}\n"
        for v in volumes
    )


def gap_csv(blocks, fh):
    """Render `gap_blocks`, a row template per block holding its 13 periods, each id field made once."""
    fh.write("product_id,period,demand,offered,gap,service_rate\n")
    for periods, ids, demand, offered, gap, rate in blocks:
        rows = "".join(f"%s,{period},%r,%r,%r,%s\n" for period in periods)
        rate = [["1.0" if r == 1 else repr(r) for r in column] for column in rate]  # most rates are exactly 1
        columns = chain.from_iterable(zip(repeat([*map(_id_field, ids)]), demand, offered, gap, rate))
        fh.writelines(map(rows.__mod__, zip(*columns)))


def _summary_json(summary, fh):
    import json  # only `report` writes summary.json, so only it pays for the import

    json.dump(summary, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _render_all(jobs):
    """Render and close each `(render, rows, fh)` job in order."""
    for render, rows, fh in jobs:
        with fh:
            render(rows, fh)


def write_reports(out_dir, reports) -> dict:
    """Write every report into out_dir, all of them or none.

    `reports` maps a file name to `(render, rows)`, and `render(rows, fh)`
    writes that file. Returns the final path of every file. A failure
    keeps the previous files, removes every directory this call created
    (`out_dir` and its missing parents) and raises its own error. Every
    file is opened first. With two or more streamed files (whose `rows`
    is an iterator), the files before the last streamed one render apart
    from that file and the rest (`forking._in_two`, which decides whether
    a forked writer child renders the first part meanwhile); the error
    raised is that of the earliest file that failed.
    """
    out_dir = Path(out_dir)
    made = [directory for directory in (out_dir, *out_dir.parents) if not directory.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".stockdim-", dir=out_dir) as tmp:
            jobs = []
            try:
                for name, (render, rows) in reports.items():
                    jobs.append((render, rows, open(os.path.join(tmp, name), "w", encoding="utf-8")))
                streamed = [index for index, job in enumerate(jobs) if iter(job[1]) is job[1]]
                if len(streamed) < 2:
                    _render_all(jobs)
                else:
                    own = streamed[-1]
                    _in_two(lambda: _render_all(jobs[:own]), lambda: _render_all(jobs[own:]))
            finally:
                for job in jobs:
                    job[2].close()
            files, kept = {name: out_dir / name for name in reports}, tempfile.mkdtemp(dir=tmp)
            try:  # a hard link to each file a rename replaces, so that a failed rename can be undone
                for name, path in files.items():
                    if path.exists():
                        os.link(path, os.path.join(kept, name))
            except OSError:  # no hard links here
                kept = None
            for done, (name, path) in enumerate(files.items()):
                try:
                    os.replace(os.path.join(tmp, name), path)
                except OSError:
                    for name in list(files)[:done] if kept else ():  # the previous file back, or none
                        old = os.path.join(kept, name)
                        if os.path.exists(old):
                            os.replace(old, files[name])
                        else:
                            os.remove(files[name])
                    raise
    except BaseException:
        for directory in made:  # innermost first; rmdir removes only an empty directory
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    return files


# File name -> (render function, PipelineResult stage it renders), both by
# name, so a replaced module attribute (a test double, a tracer) is used.
ARTIFACTS = {
    CLASSIFICATION_CSV: ("classification_csv", "classification"),
    FORECAST_CSV: ("forecast_csv", "forecasts"),
    BACKTEST_CSV: ("backtest_csv", "backtests"),
    PLAN_CSV: ("plan_csv", "plans"),
    VOLUME_CSV: ("volume_csv", "volumes"),
    GAP_CSV: ("gap_csv", "gaps"),
    SUMMARY_JSON: ("_summary_json", "summary"),
}


class PipelineResult:
    """The stages of one run; reading one computes it and its inputs."""

    def __init__(self, config: RunConfig, holdout_year=None):
        self.config = config
        self.holdout_year = config.last_history_year if holdout_year is None else holdout_year
        self.files = {}

    @cached_property
    def data(self) -> LoadedData:
        return load_inputs(self.config)

    @cached_property
    def classification(self):
        """Every cataloged product, ranked and cut into ABC classes."""
        series = self.data.series
        totals = dict(zip(series, series.totals(series, series.start_year, series.end_year)))
        scored = score_products(totals, self.data.catalog, self.config.weights)
        return rank_and_cut(scored, self.config.a_threshold, self.config.b_threshold)

    @cached_property
    def product_ids(self):
        """The products the run works on: all of them, or the class A sample."""
        if self.config.include_all:
            return sorted(self.data.catalog)
        return sorted(r.product_id for r in self.classification if r.strategic)

    @property
    def forecasts(self):
        """`forecast_columns` blocks `(ids, naive, seasonal)` of the target year, a fresh iterator on each read."""
        for block in self.data.series.blocks(self.product_ids, BLOCK):
            yield [*block], *forecast_columns(block, self.config.target_year)[1:]

    @cached_property
    def backtests(self):
        blocks = self.data.series.blocks(self.product_ids, BLOCK)
        return [*chain.from_iterable(backtests(block, self.holdout_year) for block in blocks)]

    @cached_property
    def plans(self):
        """`PlanColumns` of the run's products, from their totals of the year before the target year."""
        ids, prior = self.product_ids, self.config.target_year - 1
        plans = plan_columns(ids, self.data.series.totals(ids, prior, prior),
                             [*map(self.data.on_hand.__getitem__, ids)], self.config.multiplier)
        for pid, stock in zip(ids, plans.stock):  # name the first stock too large for a float, before any file
            try:
                stock / plans.den
            except OverflowError:
                raise ValueError(f"{pid}: stock multiplier {self.config.multiplier} makes "
                                 "the strategic stock too large for a float") from None
        return plans

    @cached_property
    def volumes(self):
        volumes = volume_plans(self.plans, self.data.catalog, self.config.pallet)
        for volume in volumes:  # name the first volume too large for a float, as `plans` does its stock
            if not math.isfinite(volume.total_volume_m3):
                raise ValueError(f"{volume.product_id}: stock multiplier {self.config.multiplier} makes "
                                 "total_volume_m3 too large for a float")
        return volumes

    @property
    def gaps(self):
        """`gap_blocks` of the run's products, a fresh iterator on each read like `forecasts`."""
        return gap_blocks(self.data, self.product_ids, self.config)

    @cached_property
    def summary(self) -> dict:
        summary = {
            "products_planned": len(self.product_ids),
            "total_qc_boxes": reduce(add, map(truediv, self.plans.order, repeat(self.plans.den)), 0),
            "total_pallets": sum(v.pallets for v in self.volumes),
            "total_volume_m3": reduce(add, (v.total_volume_m3 for v in self.volumes), 0),
        }
        for key in ("total_qc_boxes", "total_volume_m3"):  # a sum of finite floats can still overflow
            if not math.isfinite(summary[key]):
                raise ValueError(f"stock multiplier {self.config.multiplier} makes {key} too large for a float")
        return summary


def run_pipeline(config: RunConfig, artifacts=REPORT, holdout_year=None) -> PipelineResult:
    """Read every stage behind `artifacts`, then write those files.

    The default is `report`'s six files: classification.csv (always every
    product), forecast/plan/volume/gap CSVs of the selected products and
    summary.json. backtest.csv scores `holdout_year` (default: the last
    history year).
    """
    result = PipelineResult(config, holdout_year)
    reports = {}
    for name in artifacts:
        render, stage = ARTIFACTS[name]
        reports[name] = (globals()[render], getattr(result, stage))
    result.files = write_reports(config.out_dir, reports)
    return result
