"""Input parsing, validation, and monthly aggregation of delivery history.

Three CSV files feed the planner: a delivery history (one row per delivery
line), a product catalog (price, urgency, packaging geometry) and the
boxes on hand. Parsing is strict: every bad row is reported with its file
and line number, and nothing is dropped silently. One row check,
`_cells`, skips blank rows and names wrong field counts and empty ids in
all three; integers and date parts are ASCII digits (`_INTEGER`). Each
input must be a regular file. `parse_inputs` returns one dict per input,
each over every cataloged product (`LoadedData`).

The delivery file is read in pieces of about `_CHUNK` bytes cut at line
ends; a lone CR ends a line, as csv reads it. If every piece is plain (its
lines, blank ones left out, hold three cells each, with no line end in a
cell and a `"` only at both ends of a quoted one; ids cataloged once
unquoted and stripped, dates in the window, quantities >= 0), each is
checked whole and added at once (`_fold_texts`). Otherwise a csv reader
folds the whole file by rows (`_fold_rows`), naming each fault.

Where the file has `SPLIT_FLOOR` bytes or more, `os.fork` exists and two
CPUs are usable, a forked child folds the lines before `_split_point`
while this process folds the rest; if either half is not plain, this
process folds the whole file by rows. The series and every error message
are those of one process.
"""

import csv
import io
import itertools
import logging
import math
import operator
import os
import re
from dataclasses import dataclass
from functools import partial
from stat import S_ISREG
from typing import NamedTuple

from .forking import _can_fork, _in_two

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
_INTEGER = re.compile("-?[0-9]+")  # ASCII only: int() also reads other digits, `_`, `+` and spaces


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
        if any(not v >= 0 for v in self.values):  # NaN too
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


class LoadedData(NamedTuple):
    """What `parse_inputs` reads: one dict per input, each over every cataloged product, in id order."""

    series: dict  # product_id -> MonthlySeries of the window
    catalog: dict  # product_id -> CatalogEntry
    on_hand: dict  # product_id -> boxes on hand, 0 where the stock file has no row


def _parse_year_month(text: str):
    parts = text.strip().split("-")
    try:  # the parts hold digits only, and int() refuses an empty one
        if len(parts) not in (2, 3) or not _INTEGER.fullmatch("".join(parts)):
            raise ValueError
        year, month, *day = map(int, parts)
    except ValueError:
        raise ValueError(f"bad date {text!r}, expected YYYY-MM or YYYY-MM-DD") from None
    if not 1 <= month <= 12:
        raise ValueError(f"bad date {text!r}, month must be 1..12")
    if day and not 1 <= day[0] <= 31:
        raise ValueError(f"bad date {text!r}, day must be 1..31")
    return year, month


def _parse_int(text: str, minimum: int, what: str) -> int:
    try:
        if not _INTEGER.fullmatch(text.strip()):
            raise ValueError
        value = int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {text!r}")
    return value


def _parse_positive_number(text: str, what: str) -> float:
    try:
        if not text.isascii() or "_" in text:  # float() reads other digits and `_` too
            raise ValueError
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


_CHUNK = 1 << 16  # bytes read at a time

# A delivery file of at least this many bytes is folded in two processes
# where that is possible. Loading prefixes of a 205k-row file into month
# slots in fresh interpreters, with both CPUs running, the split took 1.26
# of the one-process time at 128 KiB, 1.02 at 256 KiB, 0.92 at 384 KiB and
# 0.83 at 512 KiB: fork, scan and join cost a few ms.
SPLIT_FLOOR = 384 << 10


def _size(fd):
    """The size of file `fd`, which must be regular: a pipe's reads as 0, and a pipe cannot be read twice."""
    info = os.fstat(fd)
    if not S_ISREG(info.st_mode):
        raise OSError("not a regular file")
    return info.st_size


def _preads(fd, start, stop):
    """Bytes [start, stop) of file `fd` in pieces, read without the offset a forked child shares."""
    return (os.pread(fd, min(_CHUNK, stop - pos), pos) for pos in range(start, stop, _CHUNK))


def _texts(pieces, offset=0):
    """The UTF-8 bytes from file offset `offset` as text, in nonempty pieces that end at line ends.

    Bytes that are not UTF-8 raise `UnicodeError` naming their offset in the file.
    """
    rest = b""
    for piece in itertools.chain(pieces, (b"",)):
        data = rest + piece
        # Cut after the last line end, but not at a CR that may start a CRLF.
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1 if piece else len(data)
        try:
            text = data[:cut].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UnicodeError(f"invalid UTF-8 at byte {offset + exc.start}: {exc.reason}") from None
        offset, rest = offset + cut, data[cut:]
        if text:
            yield text


def _lines(texts):
    """The lines of pieces of text, each with its end, as `newline=""` reads."""
    return itertools.chain.from_iterable(map(partial(io.StringIO, newline=""), texts))


def _data_texts(pieces, path, expected_header, problems):
    """The text of a file's binary `pieces` past a checked header (after any byte order mark), in pieces, or None."""
    texts = _texts(pieces)
    head = io.StringIO(next(texts, "").removeprefix("\ufeff"), newline="")  # the header record, then the rest
    first = next(csv.reader(head), None)
    if first is None:
        problems.append(f"{path}: file is empty, expected header {','.join(expected_header)}")
        return None
    header = tuple(cell.strip() for cell in first)
    if header != expected_header:
        problems.append(
            f"{path}:1: expected header {','.join(expected_header)}, got {','.join(header)}"
        )
        return None
    return itertools.chain((head.read(),), texts)


def _cells(rows, path, n_fields, shape, bad):
    """(line, stripped cells) of each csv row from line 2 with `n_fields` cells and a product_id.

    A blank row is skipped; `shape` names a row of another length, `bad` one with an empty id.
    """
    for line_no, row in enumerate(rows, start=2):
        if len(row) != n_fields:
            if row:
                shape.append(f"{path}:{line_no}: expected {n_fields} fields, got {len(row)}")
        elif not row[0].strip():
            bad.append(f"{path}:{line_no}: product_id must not be empty")
        else:
            yield line_no, [cell.strip() for cell in row]


def _read_keyed(path, expected_header, build):
    """Parse a per-product CSV: ({product_id: (line, build(*row))}, shape and value problems)."""
    shape, bad, rows = [], [], ()
    try:
        with open(path, "rb") as fh:
            texts = _data_texts(_preads(fh.fileno(), 0, _size(fh.fileno())), path, expected_header, shape)
            rows = list(csv.reader(_lines(texts))) if texts else ()
    except (OSError, UnicodeError, csv.Error) as exc:  # csv.Error: a field over `csv.field_size_limit()`
        shape.append(f"{path}: cannot read file ({exc})")
    parsed = {}
    for line_no, (pid, *cells) in _cells(rows, path, len(expected_header), shape, bad):
        try:
            if pid in parsed:
                raise ValueError(f"duplicate product_id {pid!r} (first seen at line {parsed[pid][0]})")
            parsed[pid] = (line_no, build(pid, *cells))
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


def _fold_rows(rows, path, offsets, start_year, n_years):
    """Fold the csv rows of a whole delivery file, the first at line 2, into month slots, one at a time."""
    slots, uncataloged, outside, shape, bad = [0] * (12 * n_years * len(offsets)), [], {}, [], []
    for line_no, (key, date_text, qty_text) in _cells(rows, path, 3, shape, bad):
        try:
            year, month = _parse_year_month(date_text)
            quantity = _parse_int(qty_text, 0, "quantity")
        except ValueError as exc:
            bad.append(f"{path}:{line_no}: {exc}")
            continue
        slot = (year - start_year) * 12 + month - 1
        if key not in offsets:
            uncataloged.append((line_no, key))
        elif not 0 <= slot < 12 * n_years:
            outside.setdefault(key, slot)
        else:
            slots[offsets[key] + slot] += quantity
    return slots, uncataloged, outside, shape, bad


def _plain(cell):
    """The field that csv reads from `cell`, which must hold no line end, and a `"` only at both of its ends."""
    field = cell[1:-1] if len(cell) > 1 and cell[0] == cell[-1] == '"' else cell
    if '"' in field or "\n" in field:
        raise ValueError(f"not a plain cell: {cell!r}")
    return field


def _fold_texts(texts, offsets, start_year, n_years):
    """The month slots `_fold_rows` adds from pieces of plain delivery text, each checked whole; else None."""
    slots, ids, months, quantities = [0] * (12 * n_years * len(offsets)), {}, {}, {}  # cell -> offset, slot, value
    window = {(start_year + slot // 12, slot % 12 + 1): slot for slot in range(12 * n_years)}
    for text in texts:
        body = text.replace("\r\n", "\n").replace("\r", "\n").strip("\n")  # a lone CR ends a line, as csv reads it
        if not body:  # blank lines only
            continue
        while "\n\n" in body:  # csv reads a blank line as no row
            body = body.replace("\n\n", "\n")
        cells = body.replace("\n", "\n,").split(",")  # only quantity cells end in "\n" if every line has 3
        pids, dates, counts = cells[0::3], cells[1::3], cells[2::3]
        try:
            if len(cells) != 3 * body.count("\n") + 3 or len(text) > csv.field_size_limit():
                raise ValueError("not plain lines of three fields")
            ids.update((cell, offsets[_plain(cell).strip()]) for cell in set(pids) - ids.keys())
            months.update((cell, window[_parse_year_month(_plain(cell))]) for cell in set(dates) - months.keys())
            quantities.update((cell, _parse_int(_plain(cell.removesuffix("\n")), 0, "quantity"))
                              for cell in set(counts) - quantities.keys())
        except (ValueError, KeyError):
            for _ in texts:  # decode the rest, so that a byte that is not UTF-8 there is named first
                pass
            return None
        for at, quantity in zip(map(operator.add, map(ids.get, pids), map(months.get, dates)),
                                map(quantities.get, counts)):
            slots[at] += quantity
    return slots


def _split_point(fd, size):
    """Just past the first line end (LF, CRLF or lone CR) in `_CHUNK` bytes from the middle of file `fd`, or None."""
    end = re.search(rb"\n|\r(?=[^\n])", os.pread(fd, _CHUNK, size // 2))  # a CR that an LF follows ends no line
    return end and size // 2 + end.end()


def _fold_deliveries(path, offsets, start_year, n_years):
    """Stream the delivery file into a flat list of month slots, `12 * n_years` per product.

    Month m of year y of product `pid` adds up in slot
    `offsets[pid] + (y - start_year) * 12 + m - 1`. Returns those slots,
    the (line_number, product_id) of valid lines naming a product outside
    `offsets`, each cataloged product's first slot outside the window, and
    the field-count and field-value problems. Where the module docstring
    says, a child folds the half before `_split_point` while this process
    folds the rest (`forking._in_two`), or `_fold_rows` the whole file.
    """
    shape = []
    fold = partial(_fold_texts, offsets=offsets, start_year=start_year, n_years=n_years)
    try:
        with open(path, "rb") as fh:
            fd, size = fh.fileno(), _size(fh.fileno())
            split = size >= SPLIT_FLOOR and _can_fork() and _split_point(fd, size)
            texts = _data_texts(_preads(fd, 0, split or size), path, DELIVERIES_HEADER, shape)  # before any fork
            if texts is None:
                return [], [], {}, shape, []
            if split:
                first, second = _in_two(lambda: fold(texts), lambda: fold(_texts(_preads(fd, split, size), split)))
                slots = None if first is None or second is None else list(map(operator.add, first, second))
            else:
                slots = fold(texts)
            if slots is not None:
                return slots, [], {}, [], []
            rows = csv.reader(_lines(_data_texts(_preads(fd, 0, size), path, DELIVERIES_HEADER, shape)))
            return _fold_rows(rows, path, offsets, start_year, n_years)
    except ChildProcessError:  # a child that died says nothing of the file
        raise
    except (OSError, UnicodeError, csv.Error) as exc:
        return [], [], {}, [f"{path}: cannot read file ({exc})"], []


def parse_inputs(deliveries_file, catalog_file, stock_file, start_year: int, n_years: int):
    """Parse and cross-validate the three input files into `LoadedData`.

    Its dicts `series`, `catalog` and `on_hand` map every cataloged
    product, in id order, to its `MonthlySeries` of the `n_years` years
    from `start_year` (zeros if never delivered), its `CatalogEntry` and
    its boxes on hand (0, with a WARNING naming it, if it has no stock
    row). Raises InputError whose message carries one `file:line: reason`
    entry per problem found, so a single run surfaces every bad row:
    field-count problems of the delivery, catalog and stock files first,
    then field-value problems in the same file order, then (only if all
    else is clean) uncataloged products. Then a delivery outside the
    window raises ValueError: it is an error, not a filter.
    """
    if n_years < 1:
        raise ValueError(f"n_years must be >= 1, got {n_years}")
    width = 12 * n_years
    catalog, catalog_shape, catalog_bad = _read_keyed(catalog_file, CATALOG_HEADER, _catalog_entry)
    offsets = {pid: i * width for i, pid in enumerate(sorted(catalog))}
    slots, uncataloged, outside, delivery_shape, delivery_bad = _fold_deliveries(
        deliveries_file, offsets, start_year, n_years)
    stock, stock_shape, stock_bad = _read_keyed(
        stock_file, STOCK_HEADER, lambda pid, text: _parse_int(text, 0, "on_hand"))
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
    if outside:
        pid = min(outside)
        year, month = divmod(outside[pid], 12)
        raise ValueError(
            f"delivery for {pid} dated {start_year + year}-{month + 1:02d} "
            f"falls outside the {start_year}..{start_year + n_years - 1} history window"
        )
    for pid in offsets:
        if pid not in stock:
            logger.warning("no stock snapshot for %s; assuming 0 boxes on hand", pid)
    series = {pid: MonthlySeries(pid, start_year, tuple(slots[at : at + width])) for pid, at in offsets.items()}
    return LoadedData(series, {pid: catalog[pid][1] for pid in offsets},
                      {pid: stock[pid][1] if pid in stock else 0 for pid in offsets})


def annual_total(series: MonthlySeries, year: int) -> int:
    """Sum of one covered calendar year's 12 monthly values."""
    return sum(series.year_slice(year))
