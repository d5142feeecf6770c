"""End-to-end pipeline: ingest, classify, forecast, plan, size, report.

The pipeline is defined once, as the stages of `PipelineResult`. Most
are computed once, on first use; `forecasts` and `gaps`, each read by
one file only, are iterators computed as that file is written, anew on
each read. `run_pipeline` reads only the stages behind the requested
files (`ARTIFACTS`), for the strategic (class A) subset by default or
for every product with `include_all`. Every check on the inputs and
settings runs before the output directory exists: a materialized stage
is computed whole, a streamed one computes its first row (`_started`).
Then `write_reports` streams each file into a temporary directory inside
the output directory, moves each into place with `os.replace` and
removes the temporary directory, also on failure. Where `os.fork`
exists, the process may run on two or more CPUs and two or more files
are streamed (`report`: forecast.csv and gap.csv), one forked writer
child renders the files before gap.csv while this process renders
gap.csv and summary.json; the error raised is that of the earliest file
in order that failed, as in one process. A failed run thus
keeps the previous outputs. The commit is one rename per file; a failed
rename puts back the files replaced before it from hard links made
first, so only a crash between two renames can leave the set mixed.
`parse_inputs` may likewise fold the first half of a large delivery file
in a forked child (see `ingestion`), with the results and errors of one
process.
Rows are emitted in product_id order (classification in rank order).
Each CSV row is one f-string, whose `{x}` writes a value as `csv.writer`
would: a float as its shortest round-trip repr, anything else as `str`.
That makes two runs over identical inputs byte-identical. Only a product
id can need quoting. An id holding a comma, a double quote, CR or LF is
written by `csv.writer` itself (`_id_field`); any other id is written
as it is.
"""

import csv
import io
import itertools
import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import NamedTuple

from .classification import (
    DEFAULT_A_THRESHOLD,
    DEFAULT_B_THRESHOLD,
    DEFAULT_WEIGHTS,
    CriteriaWeights,
    rank_and_cut,
    score_products,
)
from .dimensioning import DEFAULT_STOCK_MONTHS, plan_products
from .forecasting import MIN_FIT_YEARS, backtest, forecast_year, monthly_need
from .forking import _can_fork, _in_two
from .ingestion import LoadedData, parse_inputs
from .volumetric import DEFAULT_PALLET, PalletSpec, volumetric_plan

CLASSIFICATION_CSV = "classification.csv"
FORECAST_CSV = "forecast.csv"
BACKTEST_CSV = "backtest.csv"
PLAN_CSV = "plan.csv"
VOLUME_CSV = "volume.csv"
GAP_CSV = "gap.csv"
SUMMARY_JSON = "summary.json"
REPORT = (CLASSIFICATION_CSV, FORECAST_CSV, PLAN_CSV, VOLUME_CSV, GAP_CSV, SUMMARY_JSON)


class GapReport(NamedTuple):
    """Demand versus offer for one product and period, the headline KPI.

    `gap` keeps its sign (negative means the offer exceeded demand);
    `service_rate` caps the offer at demand so it stays in [0, 1].
    """

    product_id: str
    period: str
    demand: float
    offered: float
    gap: float
    service_rate: float


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a pipeline run, so results reproduce from one object."""

    deliveries: Path
    catalog: Path
    stock: Path
    out_dir: Path
    start_year: int
    n_years: int
    target_year: int
    multiplier: float = DEFAULT_STOCK_MONTHS
    weights: CriteriaWeights = DEFAULT_WEIGHTS
    a_threshold: float = DEFAULT_A_THRESHOLD
    b_threshold: float = DEFAULT_B_THRESHOLD
    pallet: PalletSpec = DEFAULT_PALLET
    include_all: bool = False

    def __post_init__(self):
        if self.n_years < 1:
            raise ValueError(f"history window must cover at least 1 year, got {self.n_years}")
        if self.target_year <= self.start_year:
            raise ValueError(
                f"target year {self.target_year} must be after the window start {self.start_year}"
            )
        if self.target_year > self.start_year + self.n_years:
            raise ValueError(
                f"target year {self.target_year} needs year {self.target_year - 1} of history, "
                f"but the window ends in {self.start_year + self.n_years - 1}"
            )
        if not (math.isfinite(self.multiplier) and self.multiplier > 0):
            raise ValueError(f"stock multiplier must be finite and > 0, got {self.multiplier}")

    @property
    def last_history_year(self) -> int:
        return self.start_year + self.n_years - 1


_gap_report = partial(tuple.__new__, GapReport)  # a GapReport from a tuple of its fields, built in C


def _gap_rows(pid: str, periods, demands, offers) -> list:
    """One product's GapReport per period, from one comprehension of their fields."""
    return [*map(_gap_report, [(pid, period, d, o, d - o, 1.0 if d <= 0 else min(o, d) / d)
                               for period, d, o in zip(periods, demands, offers)])]


def load_inputs(config: RunConfig) -> LoadedData:
    return parse_inputs(config.deliveries, config.catalog, config.stock, config.start_year, config.n_years)


def build_gaps(data: LoadedData, product_ids, config: RunConfig):
    """Yield gap KPI rows for the last history year, annual then monthly.

    The offer is what the planning method would have put on the table
    for that year with no lookahead: the seasonal `forecast_year` when
    at least `MIN_FIT_YEARS` earlier years exist, the flat baseline otherwise.
    """
    year = config.last_history_year
    periods = (str(year), *(f"{year}-{month:02d}" for month in range(1, 13)))
    for pid in sorted(product_ids):
        series = data.series[pid]
        if year - series.start_year >= MIN_FIT_YEARS:
            offers = forecast_year(series, year)[1].monthly_values
        else:
            offers = (float(monthly_need(series, year)),) * 12
        demands = series.year_slice(year)
        yield from _gap_rows(pid, periods, (sum(demands), *demands), (sum(offers), *offers))


def _id_field(pid) -> str:
    """A product id as its CSV field.

    Only an id can need quoting: one holding a comma, quote or line break
    is written by `csv.writer` itself, so csv's own quoting rule applies.
    """
    field = str(pid)
    if "," in field or '"' in field or "\r" in field or "\n" in field:
        fh = io.StringIO()
        csv.writer(fh, lineterminator="\n").writerow((field,))
        field = fh.getvalue()[:-1]
    return field


def classification_csv(results, fh):
    fh.write("product_id,score,rank,cumulative_share,abc_class,strategic\n")
    fh.writelines(
        f"{_id_field(r.product_id)},{r.score},{r.rank},{r.cumulative_share},{r.abc_class},"
        f"{'true' if r.strategic else 'false'}\n"
        for r in sorted(results, key=lambda r: r.rank)
    )


def _floats_field(values) -> str:
    """Floats joined by commas, as `csv.writer` writes them; a row of one float object is formatted once."""
    # identity, not equality: 0.0 == -0.0, but the two are written differently
    if values and all(map(operator.is_, values, itertools.repeat(values[0]))):
        return ",".join((str(values[0]),) * len(values))
    return ",".join(map(str, values))


def forecast_csv(forecasts, fh):
    fh.write("product_id,method," + ",".join(f"m{i}" for i in range(1, 13)) + "\n")
    fh.writelines(
        f"{_id_field(pid)},{method},{_floats_field(values)}\n" for pid, method, values in forecasts
    )


def backtest_csv(reports, fh):
    fh.write("product_id,holdout_year,mae_naive,mae_seasonal,mape_naive,mape_seasonal\n")
    fh.writelines(
        f"{_id_field(r.product_id)},{r.holdout_year},{r.mae_naive},{r.mae_seasonal},"
        f"{r.mape_naive},{r.mape_seasonal}\n"
        for r in reports
    )


def plan_csv(plans, fh):
    fh.write("product_id,M,QS,on_hand,QC,status\n")
    fh.writelines(
        f"{_id_field(p.product_id)},{float(p.monthly_need)},{float(p.strategic_qty)},{p.on_hand},"
        f"{float(p.order_qty)},{p.status}\n"
        for p in plans
    )


def volume_csv(volumes, fh):
    fh.write("product_id,boxes,cartons,cartons_per_pallet,orientation,pallets,total_volume_m3\n")
    fh.writelines(
        f"{_id_field(v.product_id)},{v.boxes},{v.cartons},{v.cartons_per_pallet},"
        f"{'x'.join(map(str, v.orientation))},{v.pallets},{v.total_volume_m3}\n"
        for v in volumes
    )


def gap_csv(gaps, fh):
    fh.write("product_id,period,demand,offered,gap,service_rate\n")
    fh.writelines(
        f"{_id_field(pid)},{period},{d},{o},{gap},{rate}\n" for pid, period, d, o, gap, rate in gaps
    )


def _summary_json(summary, fh):
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
    writes that file. Returns the final path of every file. Every file is
    opened first. With two or more streamed files (whose `rows` is an
    iterator) and `forking._can_fork()`, a forked writer child renders the
    files before the last streamed one while this process renders that
    file and the rest (`forking._in_two`), so a `render` in the child
    changes nothing in this process; otherwise this process renders all,
    in order. Either way the error raised is that of the earliest file
    that failed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".stockdim-", dir=out_dir) as tmp:
        jobs = []
        try:
            for name, (render, rows) in reports.items():
                jobs.append((render, rows, open(os.path.join(tmp, name), "w", encoding="utf-8")))
            streamed = [index for index, job in enumerate(jobs) if iter(job[1]) is job[1]]
            if len(streamed) < 2 or not _can_fork():
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


def _started(rows):
    """An iterator over `rows` whose first row is computed now.

    Every product's series spans the run's window, so a check that fails
    for one product of a streamed stage (too few years to fit a profile,
    no prior year for a need) fails for the first. Computing that row
    when the stage is read raises it before `write_reports` creates the
    output directory.
    """
    rows = iter(rows)
    for first in rows:
        return itertools.chain((first,), rows)
    return rows


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
        scored = score_products(self.data.series, self.data.catalog, self.config.weights)
        return rank_and_cut(scored, self.config.a_threshold, self.config.b_threshold)

    @cached_property
    def product_ids(self):
        """The products the run works on: all of them, or the class A sample."""
        if self.config.include_all:
            return sorted(self.data.catalog)
        return sorted(r.product_id for r in self.classification if r.strategic)

    @property
    def forecasts(self):
        """Naive then seasonal row per product, fit on all years before the target.

        Unlike the cached stages, a fresh iterator on each read.
        """
        return _started(self._forecast_rows())

    def _forecast_rows(self):
        for pid in self.product_ids:
            yield from forecast_year(self.data.series[pid], self.config.target_year)

    @cached_property
    def backtests(self):
        return [backtest(self.data.series[pid], self.holdout_year) for pid in self.product_ids]

    @cached_property
    def plans(self):
        needs = {pid: monthly_need(self.data.series[pid], self.config.target_year) for pid in self.product_ids}
        return plan_products(needs, self.data.on_hand, self.config.multiplier)

    @cached_property
    def volumes(self):
        catalog, pallet = self.data.catalog, self.config.pallet
        return [volumetric_plan(p, catalog[p.product_id], pallet) for p in self.plans]

    @property
    def gaps(self):
        """`build_gaps` rows, a fresh iterator on each read like `forecasts`."""
        return _started(build_gaps(self.data, self.product_ids, self.config))

    @cached_property
    def summary(self) -> dict:
        return {
            "products_planned": len(self.product_ids),
            "total_qc_boxes": sum(float(p.order_qty) for p in self.plans),
            "total_pallets": sum(v.pallets for v in self.volumes),
            "total_volume_m3": sum(v.total_volume_m3 for v in self.volumes),
        }


def run_pipeline(config: RunConfig, artifacts=REPORT, holdout_year=None) -> PipelineResult:
    """Read every stage behind `artifacts`, then write those files.

    The default is `report`'s six files: classification.csv (always every
    product), forecast/plan/volume/gap CSVs of the selected products and
    summary.json. backtest.csv scores `holdout_year` (default: the last
    history year). Identical inputs and config give byte-identical files.
    Every stage except `forecasts` and `gaps` is computed before
    `config.out_dir` is created; those two compute their first row then
    and the rest while their file is written.
    """
    result = PipelineResult(config, holdout_year)
    reports = {}
    for name in artifacts:
        render, stage = ARTIFACTS[name]
        reports[name] = (globals()[render], getattr(result, stage))
    result.files = write_reports(config.out_dir, reports)
    return result
