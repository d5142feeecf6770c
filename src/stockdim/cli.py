"""Command line interface: classify, forecast, backtest, plan, volume, report.

Settings resolve in three layers: command line flags override the INI
config file (--config), which overrides built-in defaults. Every
subcommand writes its CSV into --out-dir and exits 0 on success; any
validation or input error prints a single-line `Error: ...` and exits
nonzero.
"""

import configparser
import logging
import sys
from pathlib import Path

import click

from .classification import DEFAULT_A_THRESHOLD, DEFAULT_B_THRESHOLD, CriteriaWeights
from .dimensioning import DEFAULT_STOCK_MONTHS, plan_products
from .forecasting import backtest
from .ingestion import InputError
from .reporting import (
    BACKTEST_CSV,
    CLASSIFICATION_CSV,
    FORECAST_CSV,
    PLAN_CSV,
    VOLUME_CSV,
    RunConfig,
    backtest_csv,
    build_forecasts,
    classification_csv,
    classify_all,
    compute_needs,
    fit_profiles,
    forecast_csv,
    load_inputs,
    plan_csv,
    run_pipeline,
    select_products,
    volume_csv,
    write_reports,
)
from .volumetric import PalletSpec, UnpalletizableError, volumetric_plan

# (section, option, caster) in the INI config file for every setting a
# flag can also provide.
_CONFIG_SCHEMA = {
    "deliveries": ("paths", "deliveries", str),
    "catalog": ("paths", "catalog", str),
    "stock": ("paths", "stock", str),
    "out_dir": ("paths", "out_dir", str),
    "start_year": ("window", "start_year", int),
    "years": ("window", "years", int),
    "target_year": ("window", "target_year", int),
    "multiplier": ("dimensioning", "multiplier", float),
    "w_revenue": ("classification", "w_revenue", float),
    "w_ratio": ("classification", "w_ratio", float),
    "w_urgency": ("classification", "w_urgency", float),
    "a_threshold": ("classification", "a_threshold", float),
    "b_threshold": ("classification", "b_threshold", float),
    "pallet_l": ("pallet", "length_mm", float),
    "pallet_w": ("pallet", "width_mm", float),
    "pallet_h": ("pallet", "height_mm", float),
}

_DEFAULTS = {
    "out_dir": "out",
    "multiplier": float(DEFAULT_STOCK_MONTHS),
    "w_revenue": 0.5,
    "w_ratio": 0.3,
    "w_urgency": 0.2,
    "a_threshold": DEFAULT_A_THRESHOLD,
    "b_threshold": DEFAULT_B_THRESHOLD,
    "pallet_l": 1200.0,
    "pallet_w": 800.0,
    "pallet_h": 1500.0,
}

_REQUIRED = ("deliveries", "catalog", "stock", "start_year", "years")


def _common_options(f):
    options = [
        click.option("--deliveries", type=str, default=None, help="Delivery history CSV."),
        click.option("--catalog", type=str, default=None, help="Product catalog CSV."),
        click.option("--stock", type=str, default=None, help="On-hand stock CSV."),
        click.option("--config", "config_file", type=str, default=None, help="INI config file."),
        click.option("--out-dir", type=str, default=None, help="Output directory (default: out)."),
        click.option("--start-year", type=int, default=None, help="First year of the history window."),
        click.option("--years", type=int, default=None, help="Number of whole years of history."),
        click.option("--target-year", type=int, default=None,
                      help="Year being planned (default: first year after the window)."),
        click.option("--multiplier", type=float, default=None,
                      help=f"Months of strategic coverage (default: {DEFAULT_STOCK_MONTHS})."),
        click.option("--w-revenue", type=float, default=None, help="Weight of the revenue criterion."),
        click.option("--w-ratio", type=float, default=None, help="Weight of the quantity-price ratio."),
        click.option("--w-urgency", type=float, default=None, help="Weight of the urgency flag."),
        click.option("--a-threshold", type=float, default=None, help="Cumulative share ending class A."),
        click.option("--b-threshold", type=float, default=None, help="Cumulative share ending class B."),
        click.option("--pallet-l", type=float, default=None, help="Usable pallet length in mm."),
        click.option("--pallet-w", type=float, default=None, help="Usable pallet width in mm."),
        click.option("--pallet-h", type=float, default=None, help="Usable pallet height in mm."),
        click.option("--all", "include_all", is_flag=True, default=False,
                      help="Work on every product, not just the strategic class A sample."),
    ]
    for option in reversed(options):
        f = option(f)
    return f


def _read_config_file(path):
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise click.ClickException(f"cannot read config file {path}: {exc}")
    except configparser.Error as exc:
        raise click.ClickException(f"bad config file {path}: {exc}")
    values = {}
    for key, (section, option, caster) in _CONFIG_SCHEMA.items():
        if parser.has_option(section, option):
            raw = parser.get(section, option)
            try:
                values[key] = caster(raw)
            except ValueError:
                raise click.ClickException(
                    f"bad config file {path}: [{section}] {option} = {raw!r}"
                )
    return values


def _build_config(params) -> RunConfig:
    """Merge flags > config file > defaults into a validated RunConfig."""
    file_values = _read_config_file(params["config_file"]) if params.get("config_file") else {}
    settings = {}
    for key in _CONFIG_SCHEMA:
        if params.get(key) is not None:
            settings[key] = params[key]
        elif key in file_values:
            settings[key] = file_values[key]
        elif key in _DEFAULTS:
            settings[key] = _DEFAULTS[key]
    missing = [key for key in _REQUIRED if key not in settings]
    if missing:
        raise click.ClickException(
            "missing required settings (flag or config file): "
            + ", ".join(f"--{m.replace('_', '-')}" for m in missing)
        )
    if "target_year" not in settings:
        settings["target_year"] = settings["start_year"] + settings["years"]
    try:
        return RunConfig(
            deliveries=Path(settings["deliveries"]),
            catalog=Path(settings["catalog"]),
            stock=Path(settings["stock"]),
            out_dir=Path(settings["out_dir"]),
            start_year=settings["start_year"],
            n_years=settings["years"],
            target_year=settings["target_year"],
            multiplier=settings["multiplier"],
            weights=CriteriaWeights(
                settings["w_revenue"], settings["w_ratio"], settings["w_urgency"]
            ),
            a_threshold=settings["a_threshold"],
            b_threshold=settings["b_threshold"],
            pallet=PalletSpec(settings["pallet_l"], settings["pallet_w"], settings["pallet_h"]),
            include_all=params.get("include_all", False),
        )
    except ValueError as exc:
        raise click.ClickException(str(exc))


def _echo_written(files):
    for path in files.values():
        click.echo(f"wrote {path}")


def _guarded(fn):
    try:
        fn()
    except (InputError, UnpalletizableError, ValueError, OSError) as exc:
        raise click.ClickException(str(exc))


@click.group()
def main():
    """Dimension a distributor's strategic stock from delivery history."""
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s")


@main.command()
@_common_options
def classify(**params):
    """Score, rank, and ABC-classify every cataloged product."""
    config = _build_config(params)

    def body():
        data = load_inputs(config)
        results = classify_all(data, config)
        _echo_written(write_reports(config.out_dir, {CLASSIFICATION_CSV: (classification_csv, results)}))

    _guarded(body)


@main.command()
@_common_options
def forecast(**params):
    """Forecast the target year per month, flat and seasonal."""
    config = _build_config(params)

    def body():
        data = load_inputs(config)
        product_ids = select_products(data, config)
        needs = compute_needs(data, product_ids, config.target_year)
        profiles = fit_profiles(data, product_ids, config.target_year)
        rows = build_forecasts(needs, profiles)
        _echo_written(write_reports(config.out_dir, {FORECAST_CSV: (forecast_csv, rows)}))

    _guarded(body)


@main.command("backtest")
@_common_options
@click.option("--holdout-year", type=int, default=None,
              help="Held-out year to score against (default: last window year).")
def backtest_cmd(holdout_year, **params):
    """Score flat vs seasonal forecasts against a held-out year."""
    config = _build_config(params)

    def body():
        data = load_inputs(config)
        product_ids = select_products(data, config)
        year = holdout_year if holdout_year is not None else config.last_history_year
        reports = [backtest(data.series[pid], year) for pid in product_ids]
        _echo_written(write_reports(config.out_dir, {BACKTEST_CSV: (backtest_csv, reports)}))

    _guarded(body)


@main.command()
@_common_options
def plan(**params):
    """Size the strategic stock and the order quantity per product."""
    config = _build_config(params)

    def body():
        data = load_inputs(config)
        product_ids = select_products(data, config)
        needs = compute_needs(data, product_ids, config.target_year)
        plans = plan_products(
            needs, {pid: data.on_hand[pid] for pid in product_ids}, config.multiplier
        )
        _echo_written(write_reports(config.out_dir, {PLAN_CSV: (plan_csv, plans)}))

    _guarded(body)


@main.command()
@_common_options
def volume(**params):
    """Convert strategic quantities into cartons, pallets, and volume."""
    config = _build_config(params)

    def body():
        data = load_inputs(config)
        product_ids = select_products(data, config)
        needs = compute_needs(data, product_ids, config.target_year)
        plans = plan_products(
            needs, {pid: data.on_hand[pid] for pid in product_ids}, config.multiplier
        )
        volumes = [volumetric_plan(p, data.catalog[p.product_id], config.pallet) for p in plans]
        _echo_written(write_reports(config.out_dir, {VOLUME_CSV: (volume_csv, volumes)}))

    _guarded(body)


@main.command()
@_common_options
def report(**params):
    """Run the whole pipeline and write every report plus summary.json."""
    config = _build_config(params)

    def body():
        _echo_written(run_pipeline(config).files)

    _guarded(body)


if __name__ == "__main__":
    main()
