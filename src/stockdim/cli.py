"""Command line interface: classify, forecast, backtest, plan, volume, report.

Each subcommand is one row of `_COMMANDS`, which names the files it
writes; `run_pipeline` computes the stages they need. `_SETTINGS` gives
every setting its flag, INI option (--config) and default; flags
override the file, which overrides the defaults. `argparse` reads both
tables. Output goes into --out-dir with exit code 0. Any error, a
non-finite number or a result too large for a float included, prints
`Error: ...`, one line per problem, and exits 1; a usage error prints the
usage, then one `Error: ...` line, and exits 2. A UTF-8 byte order mark
opening the INI file is skipped. `main()` without `args` reads the command
line and first freezes the heap (`gc.freeze()`): its process ends with the
run, so the exit-time collection need not walk what the imports made.
`main(args)` changes no GC state. Only --config imports `configparser`.
"""

import argparse
import gc
import logging
import sys
from pathlib import Path

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
    if path:  # only a run with --config imports configparser
        import configparser

        parser = configparser.ConfigParser()
        try:
            with open(path, encoding="utf-8-sig") as fh:
                parser.read_file(fh)
        except (OSError, UnicodeError) as exc:
            raise ValueError(f"cannot read config file {path}: {exc}")
        except configparser.Error as exc:  # some of these messages span lines
            raise ValueError(f"bad config file {path}: " + " ".join(line.strip() for line in str(exc).splitlines()))
        unknown = _unknown_entry(parser)
        if unknown:
            raise ValueError(f"bad config file {path}: unknown {unknown}")
    settings = {}
    for key, section, option, kind, default, _ in _SETTINGS:
        settings[key] = default
        if path and parser.has_option(section, option):  # checked even where a flag overrides it
            raw = parser.get(section, option)
            try:
                settings[key] = kind(raw)
            except ValueError:
                raise ValueError(f"bad config file {path}: [{section}] {option} = {raw!r}")
        if params[key] is not None:
            settings[key] = params[key]
    missing = [key for key, value in settings.items() if value is None and key != "target_year"]
    if missing:
        raise ValueError("missing required settings (flag or config file): "
                         + ", ".join(f"--{m.replace('_', '-')}" for m in missing))
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
        weights=CriteriaWeights(settings["w_revenue"], settings["w_ratio"], settings["w_urgency"]),
        a_threshold=settings["a_threshold"],
        b_threshold=settings["b_threshold"],
        pallet=PalletSpec(settings["pallet_l"], settings["pallet_w"], settings["pallet_h"]),
        include_all=params["include_all"],
    )


# (name, files written, help line) of every subcommand.
_COMMANDS = (
    ("classify", (CLASSIFICATION_CSV,), "Score, rank, and ABC-classify every cataloged product."),
    ("forecast", (FORECAST_CSV,), "Forecast the target year per month, flat and seasonal."),
    ("backtest", (BACKTEST_CSV,), "Score flat vs seasonal forecasts against a held-out year."),
    ("plan", (PLAN_CSV,), "Size the strategic stock and the order quantity per product."),
    ("volume", (VOLUME_CSV,), "Convert strategic quantities into cartons, pallets, and volume."),
    ("report", REPORT, "Run the whole pipeline and write every report plus summary.json."),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error: the usage, one `Error:` line, exit code 2
        self.exit(2, f"{self.format_usage()}Error: {message}\n")


def main(args=None, prog_name="stockdim", standalone_mode=True):
    """Run the subcommand `args` (default: the command line) names; `standalone_mode=False` re-raises errors."""
    if args is None:  # this process ends with this run (module docstring)
        gc.freeze()
    args = list(sys.argv[1:] if args is None else args)
    parser = _Parser(prog=prog_name, allow_abbrev=False,
                     description="Dimension a distributor's strategic stock from delivery history.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, artifacts, help_text in _COMMANDS:
        command = subparsers.add_parser(name, help=help_text, description=help_text,
                                        usage="%(prog)s [options]", allow_abbrev=False)
        if args[:1] != [name]:  # every subcommand is listed, but only the one that runs takes options
            continue
        for key, _, _, kind, _, text in _SETTINGS:
            command.add_argument(f"--{key.replace('_', '-')}", type=kind, metavar=kind.__name__.upper(), help=text)
        command.add_argument("--config", dest="config_file", metavar="PATH", help="INI config file.")
        command.add_argument("--all", dest="include_all", action="store_true",
                             help="Work on every product, not just the strategic class A sample.")
        if name == "backtest":
            command.add_argument("--holdout-year", type=int, metavar="INT",
                                 help="Held-out year to score against (default: last window year).")
        command.set_defaults(artifacts=artifacts, holdout_year=None)
    params, unknown = parser.parse_known_args(args)
    if unknown:  # reported by the subcommand, so that the usage shown is its own
        subparsers.choices[params.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s")
    try:
        files = run_pipeline(_build_config(vars(params)), params.artifacts, params.holdout_year).files
    except (ValueError, OSError, OverflowError) as exc:  # InputError and UnpalletizableError included
        if not standalone_mode:
            raise
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(1)
    for path in files.values():
        print(f"wrote {path}")


main.main = main  # stockbench's traced mode calls main.main(args, prog_name=..., standalone_mode=False)

if __name__ == "__main__":
    main()
