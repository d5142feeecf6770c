"""Input parsing, validation, and monthly aggregation of delivery history.

Three CSV files feed the planner: a delivery history (one row per delivery
line), a product catalog (price, urgency, packaging geometry) and an
on-hand stock snapshot. Parsing is strict: every bad row is reported with
its file and line number, and nothing is dropped silently.
"""

import csv
import logging
import math
from dataclasses import dataclass

logger = logging.getLogger(__name__)

DELIVERIES_HEADER = ("product_id", "date", "quantity")
CATALOG_HEADER = (
    "product_id",
    "name",
    "unit_price",
    "urgency",
    "boxes_per_carton",
    "carton_l_mm",
    "carton_w_mm",
    "carton_h_mm",
)
STOCK_HEADER = ("product_id", "on_hand")


class InputError(ValueError):
    """An input file failed validation; the message lists every bad line."""


@dataclass(frozen=True)
class MonthlySeries:
    """Contiguous monthly delivery totals for one product.

    Covers whole calendar years starting at `start_year`: the value for
    month m of year y sits at slot (y - start_year) * 12 + (m - 1).
    Months with no deliveries hold 0.
    """

    product_id: str
    start_year: int
    values: tuple

    def __post_init__(self):
        if len(self.values) == 0 or len(self.values) % 12 != 0:
            raise ValueError(
                f"series length must be a positive multiple of 12, got {len(self.values)}"
            )
        if any(v < 0 for v in self.values):
            raise ValueError("series values must be >= 0")

    @property
    def n_years(self) -> int:
        return len(self.values) // 12

    @property
    def end_year(self) -> int:
        """Last calendar year covered (inclusive)."""
        return self.start_year + self.n_years - 1

    def covers(self, year: int) -> bool:
        return self.start_year <= year <= self.end_year

    def year_slice(self, year: int) -> tuple:
        """The 12 monthly values of one covered year."""
        if not self.covers(year):
            raise ValueError(
                f"{self.product_id}: year {year} outside series "
                f"{self.start_year}..{self.end_year}"
            )
        lo = (year - self.start_year) * 12
        return self.values[lo : lo + 12]

    def window(self, start_year: int, n_years: int) -> "MonthlySeries":
        """A sub-series restricted to `n_years` whole years."""
        if n_years < 1:
            raise ValueError("window must cover at least one year")
        if start_year < self.start_year or start_year + n_years - 1 > self.end_year:
            raise ValueError(
                f"{self.product_id}: window {start_year}..{start_year + n_years - 1} "
                f"outside series {self.start_year}..{self.end_year}"
            )
        lo = (start_year - self.start_year) * 12
        # Whole years of already checked values: skip __post_init__'s scan.
        sub = object.__new__(type(self))
        vars(sub).update(product_id=self.product_id, start_year=start_year,
                         values=self.values[lo : lo + 12 * n_years])
        return sub


@dataclass(frozen=True)
class CatalogEntry:
    """Product identity, price, urgency flag, and packaging geometry."""

    product_id: str
    name: str
    unit_price: float
    urgency: int
    boxes_per_carton: int
    carton_dims: tuple  # (length, width, height) in millimeters

    def __post_init__(self):
        if not self.unit_price > 0:
            raise ValueError(f"{self.product_id}: unit_price must be > 0")
        if self.urgency not in (0, 1):
            raise ValueError(f"{self.product_id}: urgency must be 0 or 1")
        if self.boxes_per_carton < 1:
            raise ValueError(f"{self.product_id}: boxes_per_carton must be >= 1")
        if len(self.carton_dims) != 3 or any(not d > 0 for d in self.carton_dims):
            raise ValueError(f"{self.product_id}: carton dimensions must all be > 0")


@dataclass(frozen=True)
class StockSnapshot:
    """On-hand boxes for one product at planning time."""

    product_id: str
    on_hand: int

    def __post_init__(self):
        if self.on_hand < 0:
            raise ValueError(f"{self.product_id}: on_hand must be >= 0")


def _parse_year_month(text: str):
    parts = text.strip().split("-")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad date {text!r}, expected YYYY-MM or YYYY-MM-DD")
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"bad date {text!r}, expected YYYY-MM or YYYY-MM-DD") from None
    year, month = numbers[0], numbers[1]
    if not 1 <= month <= 12:
        raise ValueError(f"bad date {text!r}, month must be 1..12")
    if len(numbers) == 3 and not 1 <= numbers[2] <= 31:
        raise ValueError(f"bad date {text!r}, day must be 1..31")
    return year, month


def _parse_int(text: str, minimum: int, what: str) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {text!r}")
    return value


def _parse_positive_number(text: str, what: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise ValueError(f"{what} must be a number, got {text!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{what} must be > 0, got {text!r}")
    return value


def _parse_dim(text: str, what: str):
    # keeps integral millimeter inputs as ints so they round-trip cleanly
    value = _parse_positive_number(text, what)
    return int(value) if value == int(value) else value


def _data_rows(fh, path, expected_header, problems):
    """A csv reader positioned past a checked header, or None if there is none."""
    reader = csv.reader(fh)
    first = next(reader, None)
    if first is None:
        problems.append(f"{path}: file is empty, expected header {','.join(expected_header)}")
        return None
    header = tuple(cell.strip() for cell in first)
    if header != expected_header:
        problems.append(
            f"{path}:1: expected header {','.join(expected_header)}, got {','.join(header)}"
        )
        return None
    return reader


def _read_keyed(path, expected_header, build):
    """Parse a per-product CSV: ({product_id: (line, build(*row))}, shape and value problems)."""
    shape, bad, rows = [], [], ()
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(_data_rows(fh, path, expected_header, shape) or ())
    except OSError as exc:
        shape.append(f"{path}: cannot read file ({exc})")
    parsed = {}
    for line_no, row in enumerate(rows, start=2):
        if not row:  # tolerate blank lines
            continue
        if len(row) != len(expected_header):
            shape.append(
                f"{path}:{line_no}: expected {len(expected_header)} fields, got {len(row)}"
            )
            continue
        row = [cell.strip() for cell in row]
        pid = row[0]
        try:
            if not pid:
                raise ValueError("product_id must not be empty")
            if pid in parsed:
                raise ValueError(
                    f"duplicate product_id {pid!r} (first seen at line {parsed[pid][0]})"
                )
            parsed[pid] = (line_no, build(*row))
        except ValueError as exc:
            bad.append(f"{path}:{line_no}: {exc}")
    return parsed, shape, bad


def _catalog_entry(pid, name, price_text, urgency_text, bpc_text, l_text, w_text, h_text):
    if not name:
        raise ValueError("name must not be empty")
    return CatalogEntry(
        product_id=pid,
        name=name,
        unit_price=_parse_positive_number(price_text, "unit_price"),
        urgency=_parse_int(urgency_text, 0, "urgency"),
        boxes_per_carton=_parse_int(bpc_text, 1, "boxes_per_carton"),
        carton_dims=(
            _parse_dim(l_text, "carton_l_mm"),
            _parse_dim(w_text, "carton_w_mm"),
            _parse_dim(h_text, "carton_h_mm"),
        ),
    )


def _stock_snapshot(pid, on_hand_text):
    return StockSnapshot(pid, _parse_int(on_hand_text, 0, "on_hand"))


def _fold_deliveries(path, catalog):
    """Stream the delivery file into {product_id: {(year, month): quantity}}.

    Returns that history, the (line_number, product_id) of valid lines naming
    a product outside `catalog`, and the field-count and field-value problems.
    """
    history, uncataloged, shape, bad = {}, [], [], []
    months = {}  # exact date text -> (year, month); only good dates are cached
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = _data_rows(fh, path, DELIVERIES_HEADER, shape)
            for line_no, row in enumerate(rows or (), start=2):
                if len(row) != 3:
                    if row:  # tolerate blank lines
                        shape.append(f"{path}:{line_no}: expected 3 fields, got {len(row)}")
                    continue
                pid, date_text, qty_text = row
                pid = pid.strip()
                try:
                    if not pid:
                        raise ValueError("product_id must not be empty")
                    year_month = months.get(date_text)
                    if year_month is None:
                        year_month = months[date_text] = _parse_year_month(date_text.strip())
                    try:
                        quantity = int(qty_text)
                    except ValueError:
                        quantity = -1
                    if quantity < 0:
                        quantity = _parse_int(qty_text.strip(), 0, "quantity")
                except ValueError as exc:
                    bad.append(f"{path}:{line_no}: {exc}")
                    continue
                totals = history.get(pid)
                if totals is None:
                    if pid not in catalog:
                        uncataloged.append((line_no, pid))
                        continue
                    totals = history[pid] = {}
                totals[year_month] = totals.get(year_month, 0) + quantity
    except OSError as exc:
        return {}, [], [f"{path}: cannot read file ({exc})"], []
    return history, uncataloged, shape, bad


def parse_inputs(deliveries_file, catalog_file, stock_file):
    """Parse and cross-validate the three input files.

    Returns (history, catalog entries, stock snapshots), where history
    maps each delivered product to its monthly totals,
    {(year, month): quantity}. Raises InputError whose message carries
    one `file:line: reason` entry per problem found, so a single run
    surfaces every bad row: field-count problems of the delivery, catalog
    and stock files first, then field-value problems in the same file
    order, then (only if all else is clean) uncataloged products.
    """
    catalog, catalog_shape, catalog_bad = _read_keyed(catalog_file, CATALOG_HEADER, _catalog_entry)
    history, uncataloged, delivery_shape, delivery_bad = _fold_deliveries(deliveries_file, catalog)
    stock, stock_shape, stock_bad = _read_keyed(stock_file, STOCK_HEADER, _stock_snapshot)
    problems = delivery_shape + catalog_shape + stock_shape + delivery_bad + catalog_bad + stock_bad
    # Cross-file checks only make sense once every file parsed cleanly.
    if not problems:
        problems = [
            f"{deliveries_file}:{line_no}: product {pid!r} not in catalog"
            for line_no, pid in uncataloged
        ] + [
            f"{stock_file}:{line_no}: product {pid!r} not in catalog"
            for pid, (line_no, _) in stock.items()
            if pid not in catalog
        ]
    if problems:
        raise InputError("\n".join(problems))
    return history, [entry for _, entry in catalog.values()], [snap for _, snap in stock.values()]


def aggregate_monthly(history, start_year: int, n_years: int, product_ids=None):
    """Pivot per-product monthly totals into contiguous monthly series.

    `history` maps product ids to {(year, month): quantity}, the shape
    parse_inputs returns. Every month must fall inside
    [start_year, start_year + n_years); a delivery outside the window is
    an error, not a filter. Products listed in `product_ids` but absent
    from the history still get an all-zero series, so catalog-only
    products are planned rather than forgotten.
    """
    if n_years < 1:
        raise ValueError(f"n_years must be >= 1, got {n_years}")
    slots = 12 * n_years
    end_year = start_year + n_years - 1
    pids = set(history).union(product_ids or ())
    out = {}
    for pid in sorted(pids):
        values = [0] * slots
        for (year, month), quantity in history.get(pid, {}).items():
            if not start_year <= year <= end_year:
                raise ValueError(
                    f"delivery for {pid} dated {year}-{month:02d} "
                    f"falls outside the {start_year}..{end_year} history window"
                )
            values[(year - start_year) * 12 + month - 1] = quantity
        out[pid] = MonthlySeries(pid, start_year, tuple(values))
    return out


def annual_total(series: MonthlySeries, year: int) -> int:
    """Sum of one covered calendar year's 12 monthly values."""
    return sum(series.year_slice(year))


def resolve_on_hand(snapshots, product_ids):
    """Map every product to its on-hand level, defaulting absentees to 0.

    A cataloged product without a stock snapshot is planned as if the
    depot were empty; the gap is logged because it usually means the
    stock extract is stale.
    """
    levels = {snap.product_id: snap.on_hand for snap in snapshots}
    resolved = {}
    for pid in sorted(product_ids):
        if pid not in levels:
            logger.warning("no stock snapshot for %s; assuming 0 boxes on hand", pid)
        resolved[pid] = levels.get(pid, 0)
    return resolved
