"""The benchmark's workloads and the deterministic generator of their inputs.

A workload is a shape of input data plus the `stockdim` CLI calls made on
it, one after another, in one iteration. The same workload name and seed
always produce byte-identical input files; the seed changes quantities,
dates, prices and which product gets which demand pattern, never the
shape.

Every generated set keeps what the bundled data under data/ has, so the
fallback paths stay on the timed path:

- product index 2 is in the catalog but never delivered (all-zero history,
  flat seasonal profile, MAPE undefined);
- the fourth product from the end has no row in stock.csv (on hand
  defaults to 0);
- months are split over several delivery lines;
- dates come both as YYYY-MM and as YYYY-MM-DD.

Run as a script to write one set of inputs:

    python3 stockbench/workloads.py --workload deep-history --seed 1 --out DIR
"""

import argparse
import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

DELIVERIES = "deliveries.csv"
CATALOG = "catalog.csv"
STOCK = "stock.csv"

PATTERNS = ("flat", "flat", "winter", "summer", "sparse")
SPARSE_ACTIVITY = 0.45  # a sparse product delivers in this share of its active months

# (boxes per carton, carton mm); every carton fits the default EUR pallet.
PACKAGING = (
    (24, (400, 300, 200)),
    (10, (300, 300, 300)),
    (12, (350, 250, 200)),
    (6, (600, 400, 300)),
    (48, (280, 190, 160)),
    (20, (450, 350, 220)),
    (36, (500, 320, 240)),
)


@dataclass(frozen=True)
class Shape:
    """Size and density of one generated input set."""

    products: int
    start_year: int
    years: int
    active: float  # chance that a product delivers in a given month
    lines: tuple  # (fewest, most) delivery lines in a month that has deliveries

    never_delivered = 2  # index of the cataloged product with no deliveries

    @property
    def no_stock(self) -> int:
        """Index of the product left out of stock.csv."""
        return self.products - 4


@dataclass(frozen=True)
class Workload:
    shape: Shape
    commands: tuple  # one CLI call per entry: (subcommand, extra flags...)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "deep-history": Workload(
        Shape(products=150, start_year=2012, years=10, active=1.0, lines=(9, 17)),
        (("report",),),
    ),
    "wide-catalog": Workload(
        Shape(products=5000, start_year=2019, years=3, active=0.45, lines=(1, 2)),
        (("report", "--all"),),
    ),
    "per-artifact": Workload(
        Shape(products=1000, start_year=2019, years=3, active=1.0, lines=(1, 3)),
        (("classify",), ("forecast",), ("backtest",), ("plan",), ("volume",)),
    ),
    # Not a benchmark workload: a tiny shape that runs both command paths
    # in well under a second, for the benchmark's own tests.
    "smoke": Workload(
        Shape(products=40, start_year=2019, years=3, active=1.0, lines=(1, 3)),
        (("report", "--all"), ("backtest",)),
    ),
}


def cli_calls(workload: Workload, inputs: Path, out_dir: Path):
    """The argument lists (after `stockdim`) of one iteration's CLI calls."""
    shape = workload.shape
    common = (
        "--deliveries", str(inputs / DELIVERIES),
        "--catalog", str(inputs / CATALOG),
        "--stock", str(inputs / STOCK),
        "--start-year", str(shape.start_year),
        "--years", str(shape.years),
        "--out-dir", str(out_dir),
    )
    return [[command[0], *common, *command[1:]] for command in workload.commands]


def _seasonal_factor(pattern: str, month: int) -> float:
    if pattern == "winter":
        return 1.0 + 0.6 * math.cos(2 * math.pi * (month - 1) / 12)
    if pattern == "summer":
        return 1.0 + 0.6 * math.cos(2 * math.pi * (month - 7) / 12)
    return 1.0


def generate(name: str, seed: int, out_dir: Path) -> dict:
    """Write deliveries.csv, catalog.csv and stock.csv for one workload.

    Returns the number of delivery rows and of products written.
    """
    shape = WORKLOADS[name].shape
    # A str seed is hashed with SHA-512, so it does not depend on PYTHONHASHSEED.
    rng = random.Random(f"stockbench:{name}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    ids = [f"P{i:05d}" for i in range(shape.products)]

    products = []  # (base monthly demand, pattern) per product
    with open(out_dir / CATALOG, "w", newline="", encoding="utf-8") as cat_fh, \
            open(out_dir / STOCK, "w", newline="", encoding="utf-8") as stock_fh:
        catalog = csv.writer(cat_fh, lineterminator="\n")
        stock = csv.writer(stock_fh, lineterminator="\n")
        catalog.writerow((
            "product_id", "name", "unit_price", "urgency", "boxes_per_carton",
            "carton_l_mm", "carton_w_mm", "carton_h_mm",
        ))
        stock.writerow(("product_id", "on_hand"))
        for i, pid in enumerate(ids):
            base = rng.randint(15, 350)
            products.append((base, rng.choice(PATTERNS)))
            boxes_per_carton, dims = rng.choice(PACKAGING)
            price = round(rng.uniform(0.8, 120.0), 2)
            urgency = 1 if rng.random() < 0.15 else 0
            catalog.writerow((pid, f"Item {i}", price, urgency, boxes_per_carton, *dims))
            on_hand = rng.randint(0, 5 * base)
            if i != shape.no_stock:
                stock.writerow((pid, on_hand))

    rows = 0
    low, high = shape.lines
    with open(out_dir / DELIVERIES, "w", newline="", encoding="utf-8") as fh:
        deliveries = csv.writer(fh, lineterminator="\n")
        deliveries.writerow(("product_id", "date", "quantity"))
        for year in range(shape.start_year, shape.start_year + shape.years):
            for month in range(1, 13):
                month_rows = []
                for i, (base, pattern) in enumerate(products):
                    activity = shape.active * (SPARSE_ACTIVITY if pattern == "sparse" else 1.0)
                    if i == shape.never_delivered or rng.random() >= activity:
                        continue
                    n_lines = rng.randint(low, high)
                    mean_line = base * _seasonal_factor(pattern, month) / n_lines
                    for _ in range(n_lines):
                        if rng.random() < 0.5:
                            date = f"{year}-{month:02d}"
                        else:
                            date = f"{year}-{month:02d}-{rng.randint(1, 28):02d}"
                        quantity = max(1, round(mean_line * rng.uniform(0.7, 1.3)))
                        month_rows.append((ids[i], date, quantity))
                deliveries.writerows(month_rows)
                rows += len(month_rows)
    return {"rows": rows, "products": shape.products}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    stats = generate(args.workload, args.seed, args.out)
    print(f"wrote {stats['rows']} delivery rows for {stats['products']} products under {args.out}")


if __name__ == "__main__":
    main()
