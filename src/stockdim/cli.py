"""Command line interface: classify, forecast, backtest, plan, volume, report.

Each subcommand is one row of `_COMMANDS`, which names the files it
writes; `run_pipeline` computes the stages they need. `_SETTINGS` gives
every setting its flag, INI option (--config) and default; flags
override the file, which overrides the defaults. Output goes into
--out-dir with exit code 0. Any error, a non-finite number included,
prints `Error: ...`, one line per problem, and exits nonzero.
"""

import configparser
import logging
import sys
from pathlib import Path

import click

from .classification import DEFAULT_A_THRESHOLD, DEFAULT_B_THRESHOLD, DEFAULT_WEIGHTS, CriteriaWeights
from .dimensioning import DEFAULT_STOCK_MONTHS
from .reporting import (
    BACKTEST_CSV,
    CLASSIFICATION_CSV,
    FORECAST_CSV,
    PLAN_CSV,
    REPORT,
    VOLUME_CSV,
    RunConfig,
    run_pipeline,
)
from .volumetric import DEFAULT_PALLET, PalletSpec

# (key, INI section, INI option, type, default, help) of every setting.
# The flag is the key with dashes. A setting without a default is
# required, except target_year, which defaults to the year after the window.
_SETTINGS = (
    ("deliveries", "paths", "deliveries", str, None, "Delivery history CSV."),
    ("catalog", "paths", "catalog", str, None, "Product catalog CSV."),
    ("stock", "paths", "stock", str, None, "On-hand stock CSV."),
    ("out_dir", "paths", "out_dir", str, "out", "Output directory (default: out)."),
    ("start_year", "window", "start_year", int, None, "First year of the history window."),
    ("years", "window", "years", int, None, "Number of whole years of history."),
    ("target_year", "window", "target_year", int, None,
     "Year being planned (default: first year after the window)."),
    ("multiplier", "dimensioning", "multiplier", float, float(DEFAULT_STOCK_MONTHS),
     f"Months of strategic coverage (default: {DEFAULT_STOCK_MONTHS})."),
    ("w_revenue", "classification", "w_revenue", float, DEFAULT_WEIGHTS.w_revenue,
     "Weight of the revenue criterion."),
    ("w_ratio", "classification", "w_ratio", float, DEFAULT_WEIGHTS.w_ratio,
     "Weight of the quantity-price ratio."),
    ("w_urgency", "classification", "w_urgency", float, DEFAULT_WEIGHTS.w_urgency,
     "Weight of the urgency flag."),
    ("a_threshold", "classification", "a_threshold", float, DEFAULT_A_THRESHOLD,
     "Cumulative share ending class A."),
    ("b_threshold", "classification", "b_threshold", float, DEFAULT_B_THRESHOLD,
     "Cumulative share ending class B."),
    ("pallet_l", "pallet", "length_mm", float, float(DEFAULT_PALLET.usable_length),
     "Usable pallet length in mm."),
    ("pallet_w", "pallet", "width_mm", float, float(DEFAULT_PALLET.usable_width),
     "Usable pallet width in mm."),
    ("pallet_h", "pallet", "height_mm", float, float(DEFAULT_PALLET.usable_height),
     "Usable pallet height in mm."),
)


def _unknown_entry(parser):
    """The first INI section or option that no setting reads, or None."""
    known = {(section, option) for _, section, option, *_ in _SETTINGS}
    if parser.defaults():
        return f"section [{parser.default_section}]"
    for section in parser.sections():
        if section not in {s for s, _ in known}:
            return f"section [{section}]"
        for option in parser.options(section):
            if (section, option) not in known:
                return f"option [{section}] {option}"
    return None


def _build_config(params) -> RunConfig:
    """Merge flags > config file > defaults into a validated RunConfig."""
    path = params["config_file"]
    parser = configparser.ConfigParser()
    try:
        if path:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
    except OSError as exc:
        raise click.ClickException(f"cannot read config file {path}: {exc}")
    except configparser.Error as exc:  # some of these messages span lines
        raise click.ClickException(
            f"bad config file {path}: " + " ".join(line.strip() for line in str(exc).splitlines())
        )
    unknown = _unknown_entry(parser)
    if unknown:
        raise click.ClickException(f"bad config file {path}: unknown {unknown}")
    settings = {}
    for key, section, option, kind, default, _ in _SETTINGS:
        settings[key] = default
        if parser.has_option(section, option):  # checked even where a flag overrides it
            raw = parser.get(section, option)
            try:
                settings[key] = kind(raw)
            except ValueError:
                raise click.ClickException(f"bad config file {path}: [{section}] {option} = {raw!r}")
        if params[key] is not None:
            settings[key] = params[key]
    missing = [key for key, value in settings.items() if value is None and key != "target_year"]
    if missing:
        raise click.ClickException(
            "missing required settings (flag or config file): "
            + ", ".join(f"--{m.replace('_', '-')}" for m in missing)
        )
    if settings["target_year"] is None:
        settings["target_year"] = settings["start_year"] + settings["years"]
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
        include_all=params["include_all"],
    )


@click.group()
def main():
    """Dimension a distributor's strategic stock from delivery history."""
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s")


# (name, files written, help line) of every subcommand.
_COMMANDS = (
    ("classify", (CLASSIFICATION_CSV,), "Score, rank, and ABC-classify every cataloged product."),
    ("forecast", (FORECAST_CSV,), "Forecast the target year per month, flat and seasonal."),
    ("backtest", (BACKTEST_CSV,), "Score flat vs seasonal forecasts against a held-out year."),
    ("plan", (PLAN_CSV,), "Size the strategic stock and the order quantity per product."),
    ("volume", (VOLUME_CSV,), "Convert strategic quantities into cartons, pallets, and volume."),
    ("report", REPORT, "Run the whole pipeline and write every report plus summary.json."),
)


def _command(name, artifacts, help_text):
    """Add the subcommand `name`: run the pipeline for `artifacts` and list the files written."""

    def run(holdout_year=None, **params):
        try:
            files = run_pipeline(_build_config(params), artifacts, holdout_year).files
        except (ValueError, OSError) as exc:  # InputError and UnpalletizableError included
            raise click.ClickException(str(exc))
        for path in files.values():
            click.echo(f"wrote {path}")

    options = [
        click.Option([f"--{key.replace('_', '-')}", key], type=kind, help=text)
        for key, _, _, kind, _, text in _SETTINGS
    ]
    options.append(click.Option(["--config", "config_file"], type=str, help="INI config file."))
    options.append(click.Option(["--all", "include_all"], is_flag=True, default=False,
                                help="Work on every product, not just the strategic class A sample."))
    main.add_command(click.Command(name, callback=run, params=options, help=help_text))


for _row in _COMMANDS:
    _command(*_row)
main.commands["backtest"].params.append(click.Option(
    ["--holdout-year"], type=int, default=None,
    help="Held-out year to score against (default: last window year)."))


if __name__ == "__main__":
    main()
