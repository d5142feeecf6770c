"""Input parsing, validation, and monthly aggregation of delivery history.

Three CSV files feed the planner: a delivery history (one row per delivery
line), a product catalog (price, urgency, packaging geometry) and the
boxes on hand. Parsing is strict: every bad row is reported with its file
and line number, and nothing is dropped silently. One row check, `_cells`,
skips blank rows and names wrong field counts in all three, and
`_product_id` empty ids; integers and date parts are ASCII digits
(`_INTEGER`). Each input must be a regular file, and a NUL byte in one is
refused on every Python (`_texts`). Catalog and stock cells are checked
once per distinct text of a column (`_read_keyed`). `parse_inputs` returns
`LoadedData`: the fold's month slots as `Slots`, a mapping that builds a
product's `MonthlySeries` only when it is looked up, and the catalog and stock.

The delivery file is read in pieces of about `_CHUNK` bytes cut at line
ends; a lone CR ends a line, as csv reads it. If every piece is plain (its
lines, blank ones left out, hold three cells each, with no line end in a
cell and a `"` only at both ends of a quoted one; ids cataloged once
unquoted and stripped, dates in the window, quantities 0..`MAX_QUANTITY`),
each is checked whole and added at once (`_fold_texts`). Otherwise a csv
reader folds the whole file by rows (`_fold_rows`), naming each fault.

On a file of `SPLIT_FLOOR` bytes or more, the lines before `_split_point`
and the rest fold apart (`forking._in_two`, which decides whether a
forked child folds the first half meanwhile); if either half is not
plain, this process folds the whole file by rows.
"""

import csv
import io
import itertools
import logging
import math
import operator
import os
import re
from collections import namedtuple
from collections.abc import Mapping
from functools import partial
from stat import S_ISREG
from typing import NamedTuple

from .forking import _in_two

logger = logging.getLogger(__name__)

DELIVERIES_HEADER = ("product_id", "date", "quantity")
CATALOG_HEADER = ("product_id", "name", "unit_price", "urgency", "boxes_per_carton",
                  "carton_l_mm", "carton_w_mm", "carton_h_mm")
STOCK_HEADER = ("product_id", "on_hand")
_INTEGER = re.compile("-?[0-9]+")  # ASCII only: int() also reads other digits, `_`, `+` and spaces
MAX_QUANTITY = 2**53  # every integer up to it is a float, and no window total of such nears the float range


class InputError(ValueError):
    """An input file failed validation; the message lists every bad line."""


class MonthlySeries(namedtuple("MonthlySeries", "product_id start_year values")):
    """Contiguous monthly delivery totals for one product, added up as `Slots.of([series])` adds them.

    Covers whole calendar years starting at `start_year`: the value for
    month m of year y sits at slot (y - start_year) * 12 + (m - 1) of the
    tuple `values`. Months with no deliveries hold 0.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.values) == 0 or len(self.values) % 12 != 0:
            raise ValueError(f"series length must be a positive multiple of 12, got {len(self.values)}")
        if any(not v >= 0 for v in self.values):  # NaN too
            raise ValueError("series values must be >= 0")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    @property
    def n_years(self) -> int:
        return len(self.values) // 12

    @property
    def end_year(self) -> int:
        """Last calendar year covered (inclusive)."""
        return self.start_year + self.n_years - 1


class CatalogEntry(namedtuple("CatalogEntry", "product_id name unit_price urgency boxes_per_carton carton_dims")):
    """Product identity, price, urgency flag, and packaging geometry (carton_dims: l, w, h in mm)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.unit_price > 0:
            raise ValueError(f"{self.product_id}: unit_price must be > 0")
        if self.urgency not in (0, 1):
            raise ValueError(f"{self.product_id}: urgency must be 0 or 1")
        if self.boxes_per_carton < 1:
            raise ValueError(f"{self.product_id}: boxes_per_carton must be >= 1")
        if len(self.carton_dims) != 3 or any(not d > 0 for d in self.carton_dims):
            raise ValueError(f"{self.product_id}: carton dimensions must all be > 0")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


class Slots(Mapping):
    """The monthly delivery totals of products of one window, laid end to end as the fold adds them.

    Month m (1-12) of year y of the i-th product is `slots[i * width +
    (y - start_year) * 12 + m - 1]`, so month slot k of every product is
    the strided column `slots[k::width]`. As a read-only mapping it takes
    each product_id, in order, to a `MonthlySeries` built on each lookup.
    `totals` adds up years of the window, and refuses any other year.
    """

    def __init__(self, ids, start_year: int, n_years: int, slots: list):
        self.start_year, self.end_year, self.width = start_year, start_year + n_years - 1, 12 * n_years
        self.slots, self.offsets = slots, {pid: i * 12 * n_years for i, pid in enumerate(ids)}

    @classmethod
    def of(cls, series):
        """The slots of one or more `MonthlySeries` of one window, in the order given."""
        if not series:
            raise ValueError("a block needs at least one series")
        if len({(s.start_year, len(s.values)) for s in series}) > 1:
            raise ValueError(f"{series[0].product_id}: a block's series must cover one window")
        return cls([s.product_id for s in series], series[0].start_year, series[0].n_years,
                   [*itertools.chain.from_iterable(s.values for s in series)])

    def __getitem__(self, pid) -> MonthlySeries:
        at = self.offsets[pid]
        return MonthlySeries(pid, self.start_year, tuple(self.slots[at : at + self.width]))

    def __iter__(self):
        return iter(self.offsets)

    def __len__(self) -> int:
        return len(self.offsets)

    def blocks(self, ids, size: int):
        """The slots of `ids`, each held here, in the order given, `size` products at a time."""
        width, slots = self.width, self.slots
        for part in (ids[lo : lo + size] for lo in range(0, len(ids), size)):
            yield Slots(part, self.start_year, width // 12, [
                *itertools.chain.from_iterable(slots[at : at + width] for at in map(self.offsets.__getitem__, part))])

    def totals(self, ids, first_year: int, last_year: int) -> list:
        """The deliveries of each of `ids` from `first_year` to `last_year`, both in the window, added up."""
        if not self.start_year <= first_year <= last_year <= self.end_year:
            raise ValueError(f"years {first_year}..{last_year} not in the window {self.start_year}..{self.end_year}")
        lo, hi, slots = 12 * (first_year - self.start_year), 12 * (last_year - self.start_year + 1), self.slots
        return [sum(slots[at + lo : at + hi]) for at in map(self.offsets.__getitem__, ids)]


class LoadedData(NamedTuple):
    """What `parse_inputs` reads: one mapping per input, each over every cataloged product, in id order."""

    series: Slots  # product_id -> MonthlySeries of the window, built on lookup from the fold's slots
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


def _parse_int(text: str, minimum: int, what: str, maximum=math.inf) -> int:
    try:
        if not _INTEGER.fullmatch(text.strip()):
            raise ValueError
        value = int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {text!r}")
    if value > maximum:
        raise ValueError(f"{what} must be <= {maximum}, got {text!r}")
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

    Bytes that are not UTF-8, and a NUL (read by `csv` from Python 3.11 only), raise `UnicodeError` naming its offset.
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
        if "\0" in text:
            raise UnicodeError(f"NUL at byte {offset + data.index(0)}")
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


def _cells(rows, path, n_fields, shape):
    """(line, cells) of each csv row from line 2 with `n_fields` cells; `shape` names a row of another length."""
    for line_no, row in enumerate(rows, start=2):
        if len(row) == n_fields:
            yield line_no, row
        elif row:
            shape.append(f"{path}:{line_no}: expected {n_fields} fields, got {len(row)}")


def _product_id(cell):
    if pid := cell.strip():
        return pid
    raise ValueError("product_id must not be empty")


def _read_keyed(path, expected_header, build, kept):
    """Parse a per-product CSV: ({product_id: record}, {product_id: line}, shape and value problems).

    `kept(*columns)` checks each distinct cell text of a column once and returns each row's record, built from
    the values of cells that passed, or None; `build(*stripped cells)` names the first fault of such a row.
    """
    shape, bad, rows = [], [], ()
    try:
        with open(path, "rb") as fh:
            texts = _data_texts(_preads(fh.fileno(), 0, _size(fh.fileno())), path, expected_header, shape)
            rows = list(csv.reader(_lines(texts))) if texts else ()
    except (OSError, UnicodeError, csv.Error) as exc:  # csv.Error: a field over `csv.field_size_limit()`
        shape.append(f"{path}: cannot read file ({exc})")
    width, records, lines, numbers, full = len(expected_header), {}, {}, [], []
    for line_no, row in _cells(rows, path, width, shape):
        numbers.append(line_no)
        full.append(row)
    for line_no, row, record in zip(numbers, full, kept(*([*zip(*full)] or [()] * width))):
        try:
            pid = _product_id(row[0])
            if pid in lines:
                raise ValueError(f"duplicate product_id {pid!r} (first seen at line {lines[pid]})")
            records[pid] = build(pid, *map(str.strip, row[1:])) if record is None else record
            lines[pid] = line_no
        except ValueError as exc:
            bad.append(f"{path}:{line_no}: {exc}")
    return records, lines, shape, bad


def _known(column, parse, *args):
    """Each cell of `column` as `parse(text.strip(), *args)` reads it, or None where that raises; once a text."""
    known = {}
    for text in set(column):
        try:
            known[text] = parse(text.strip(), *args)
        except ValueError:
            pass
    return map(known.get, column)


def _catalog_entry(pid, name, price_text, urgency_text, bpc_text, l_text, w_text, h_text):
    if not name:
        raise ValueError("name must not be empty")
    return CatalogEntry(pid, name, _parse_positive_number(price_text, "unit_price"),
                        _parse_int(urgency_text, 0, "urgency"), _parse_int(bpc_text, 1, "boxes_per_carton"),
                        tuple(map(_parse_dim, (l_text, w_text, h_text), CATALOG_HEADER[5:])))


def _catalog_kept(ids, names, prices, urgencies, per_carton, *dims):
    """`kept` of `_read_keyed`: a value passed `_catalog_entry`'s check of its column, and so `CatalogEntry`'s."""
    fields = zip(map(str.strip, ids), map(str.strip, names), _known(prices, _parse_positive_number, "unit_price"),
                 map({0: 0, 1: 1}.get, _known(urgencies, _parse_int, 0, "urgency")),  # and `CatalogEntry`'s check
                 _known(per_carton, _parse_int, 1, "boxes_per_carton"),
                 zip(*map(_known, dims, itertools.repeat(_parse_dim), CATALOG_HEADER[5:])))
    return [tuple.__new__(CatalogEntry, row) if row[1] and None not in row and None not in row[5] else None
            for row in fields]


def _fold_rows(rows, path, offsets, start_year, n_years):
    """Fold the csv rows of a whole delivery file, the first at line 2, into month slots, one at a time."""
    slots, uncataloged, outside, shape, bad = [0] * (12 * n_years * len(offsets)), [], {}, [], []
    for line_no, row in _cells(rows, path, 3, shape):
        try:
            key, date_text, qty_text = _product_id(row[0]), row[1].strip(), row[2].strip()
            year, month = _parse_year_month(date_text)
            quantity = _parse_int(qty_text, 0, "quantity", MAX_QUANTITY)
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
            quantities.update((cell, _parse_int(_plain(cell.removesuffix("\n")), 0, "quantity", MAX_QUANTITY))
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
    the field-count and field-value problems. It folds as the module
    docstring says.
    """
    shape = []
    fold = partial(_fold_texts, offsets=offsets, start_year=start_year, n_years=n_years)
    try:
        with open(path, "rb") as fh:
            fd, size = fh.fileno(), _size(fh.fileno())
            split = size >= SPLIT_FLOOR and _split_point(fd, size)
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

    `series`, `catalog` and `on_hand` map every cataloged product, in id
    order, to its `MonthlySeries` of the `n_years` years from `start_year`
    (zeros if never delivered; `Slots`), its `CatalogEntry` and its boxes on
    hand (0, with a WARNING naming it, if it has no stock row). Raises
    InputError whose message carries one `file:line: reason` entry per
    problem found, so a single run surfaces every bad row: field-count
    problems of the delivery, catalog and stock files first, then
    field-value problems in the same file order, then (only if all else is
    clean) uncataloged products. Then a delivery outside the window raises
    ValueError: it is an error, not a filter.
    """
    if n_years < 1:
        raise ValueError(f"n_years must be >= 1, got {n_years}")
    catalog, _, catalog_shape, catalog_bad = _read_keyed(catalog_file, CATALOG_HEADER, _catalog_entry, _catalog_kept)
    offsets = {pid: i * 12 * n_years for i, pid in enumerate(sorted(catalog))}
    slots, uncataloged, outside, delivery_shape, delivery_bad = _fold_deliveries(
        deliveries_file, offsets, start_year, n_years)
    stock, stock_lines, stock_shape, stock_bad = _read_keyed(
        stock_file, STOCK_HEADER, lambda pid, text: _parse_int(text, 0, "on_hand"),
        lambda ids, texts: _known(texts, _parse_int, 0, "on_hand"))
    problems = delivery_shape + catalog_shape + stock_shape + delivery_bad + catalog_bad + stock_bad
    if not problems:  # cross-file checks only make sense once every file parsed cleanly
        problems = [f"{deliveries_file}:{line_no}: product {pid!r} not in catalog" for line_no, pid in uncataloged]
        problems += [f"{stock_file}:{line_no}: product {pid!r} not in catalog"
                     for pid, line_no in stock_lines.items() if pid not in catalog]
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
    return LoadedData(Slots(offsets, start_year, n_years, slots), {pid: catalog[pid] for pid in offsets},
                      {pid: stock.get(pid, 0) for pid in offsets})
