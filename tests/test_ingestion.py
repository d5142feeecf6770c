import csv
import gc
import math
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stockdim import ingestion
from stockdim.ingestion import (
    CATALOG_HEADER,
    CatalogEntry,
    InputError,
    LoadedData,
    MonthlySeries,
    annual_total,
    parse_inputs,
)

from conftest import assert_no_child_left, count_forks, with_an_over_long_field, write_csv

PRODUCTS = ("A", "B", "C", "P1")


def write_deliveries(path, text):
    path.write_bytes(("product_id,date,quantity\n" + text).encode("utf-8"))
    return path


def write_inputs(directory, delivery_text):
    """A delivery file of the given text after its header, and a catalog and a stock file of PRODUCTS."""
    return {
        "deliveries": write_deliveries(directory / "deliveries.csv", delivery_text),
        "catalog": write_csv(directory / "catalog.csv", ",".join(CATALOG_HEADER),
                             [(pid, f"Product {pid}", 1.0, 0, 10, 400, 300, 200) for pid in PRODUCTS]),
        "stock": write_csv(directory / "stock.csv", "product_id,on_hand", [(pid, 0) for pid in PRODUCTS]),
    }


def parse_delivery_lines(directory, lines, start_year, n_years):
    """The series parse_inputs reads from the given delivery CSV lines and a catalog of PRODUCTS."""
    paths = write_inputs(directory, "".join(line + "\n" for line in lines))
    return parse_inputs(paths["deliveries"], paths["catalog"], paths["stock"], start_year, n_years)[0]


def test_parse_well_formed_inputs(tiny_inputs):
    data = parse_inputs(tiny_inputs["deliveries"], tiny_inputs["catalog"], tiny_inputs["stock"], 2020, 2)
    assert type(data) is LoadedData and data[0] is data.series
    p1, p2 = [0] * 24, [0] * 24
    p1[0], p1[2], p1[14], p2[18] = 10, 50, 60, 5  # days truncated to their month
    assert data.series == {"P1": MonthlySeries("P1", 2020, tuple(p1)), "P2": MonthlySeries("P2", 2020, tuple(p2))}
    assert [(pid, e.product_id) for pid, e in data.catalog.items()] == [("P1", "P1"), ("P2", "P2")]
    assert data.catalog["P1"].carton_dims == (400, 300, 200)
    assert data.catalog["P2"].urgency == 1
    assert data.on_hand == {"P1": 20, "P2": 0}


def test_negative_quantity_reports_file_and_line(tiny_inputs, tmp_path):
    bad = write_csv(
        tmp_path / "bad_deliveries.csv",
        "product_id,date,quantity",
        [("P1", "2020-01", 10), ("P1", "2020-01", -5)],  # a product and a month already seen
    )
    with pytest.raises(InputError) as exc:
        parse_inputs(bad, tiny_inputs["catalog"], tiny_inputs["stock"], 2020, 2)
    msg = str(exc.value)
    assert "bad_deliveries.csv:3" in msg
    assert "quantity" in msg


def test_duplicate_catalog_product_is_an_error(tiny_inputs, tmp_path):
    dup = write_csv(
        tmp_path / "dup_catalog.csv",
        "product_id,name,unit_price,urgency,boxes_per_carton,carton_l_mm,carton_w_mm,carton_h_mm",
        [
            ("P1", "Alpha", 2.5, 0, 10, 400, 300, 200),
            ("P1", "Alpha again", 3.0, 0, 10, 400, 300, 200),
        ],
    )
    with pytest.raises(InputError, match="duplicate product_id 'P1'"):
        parse_inputs(tiny_inputs["deliveries"], dup, tiny_inputs["stock"], 2020, 2)


def test_bad_date_and_bad_number_are_reported_together(tiny_inputs, tmp_path):
    bad = write_csv(
        tmp_path / "deliveries.csv",
        "product_id,date,quantity",
        [("P1", "2020-13", 10), ("P1", "2020-02", "ten")],
    )
    with pytest.raises(InputError) as exc:
        parse_inputs(bad, tiny_inputs["catalog"], tiny_inputs["stock"], 2020, 2)
    msg = str(exc.value)
    assert ":2:" in msg and ":3:" in msg  # both rows surfaced in one pass


def test_unknown_header_is_rejected(tiny_inputs, tmp_path):
    bad = write_csv(
        tmp_path / "deliveries.csv",
        "product_id,when,quantity",
        [("P1", "2020-01", 10)],
    )
    with pytest.raises(InputError, match="expected header"):
        parse_inputs(bad, tiny_inputs["catalog"], tiny_inputs["stock"], 2020, 2)


@pytest.mark.parametrize("name", ["deliveries", "catalog", "stock"])
def test_a_header_is_read_past_a_byte_order_mark_and_not_past_a_blank_line(name, tiny_inputs, tmp_path):
    paths = dict(tiny_inputs)
    header, _, body = paths[name].read_text(encoding="utf-8").partition("\n")
    quoted = ",".join(f'"{cell}"' for cell in header.split(","))  # as R's write.csv writes it
    paths[name] = tmp_path / "marked.csv"
    paths[name].write_bytes(b"\xef\xbb\xbf" + f"{quoted}\n{body}".encode())
    assert parse_inputs(paths["deliveries"], paths["catalog"], paths["stock"], 2020, 2) == parse_inputs(
        tiny_inputs["deliveries"], tiny_inputs["catalog"], tiny_inputs["stock"], 2020, 2)
    paths[name].write_text(f"\n{header}\n{body}", encoding="utf-8")
    with pytest.raises(InputError) as exc:
        parse_inputs(paths["deliveries"], paths["catalog"], paths["stock"], 2020, 2)
    assert str(exc.value) == f"{paths[name]}:1: expected header {header}, got "
    for text in ("", "\ufeff"):  # an empty file, and one that holds only a byte order mark
        paths[name].write_text(text, encoding="utf-8")
        with pytest.raises(InputError) as exc:
            parse_inputs(paths["deliveries"], paths["catalog"], paths["stock"], 2020, 2)
        assert str(exc.value) == f"{paths[name]}: file is empty, expected header {header}"


def test_delivery_for_uncataloged_product_is_an_error(tiny_inputs, tmp_path):
    bad = write_csv(
        tmp_path / "deliveries.csv",
        "product_id,date,quantity",
        [("GHOST", "2020-01", 10)],
    )
    with pytest.raises(InputError, match="'GHOST' not in catalog"):
        parse_inputs(bad, tiny_inputs["catalog"], tiny_inputs["stock"], 2020, 2)


def test_aggregate_no_records_zero_fills_catalog_products(tmp_path):
    series = parse_delivery_lines(tmp_path, [], 2018, 1)
    assert list(series) == sorted(PRODUCTS)
    assert series["P1"].values == (0,) * 12


def test_aggregate_single_record_lands_in_its_month(tmp_path):
    series = parse_delivery_lines(tmp_path, ["P1,2018-03,50"], 2018, 1)
    assert series["P1"].values[2] == 50
    assert sum(series["P1"].values) == 50


def test_aggregate_same_month_records_add_up(tmp_path):
    series = parse_delivery_lines(tmp_path, ["P1,2018-03,50", "P1,2018-03,20"], 2018, 1)
    assert series["P1"].values[2] == 70


def test_aggregate_rejects_record_outside_window(tmp_path):
    with pytest.raises(ValueError) as exc:  # the lowest product id's first such delivery, of any quantity
        parse_delivery_lines(tmp_path, ["P1,2019-01,5", "A,2017-12-31,0", "A,2019-02,1"], 2018, 1)
    assert str(exc.value) == "delivery for A dated 2017-12 falls outside the 2018..2018 history window"


def test_equal_months_share_a_slot_and_every_bad_date_line_is_reported(tmp_path):
    series = parse_delivery_lines(tmp_path, ["P1,2020-03,1", " P1, 2020-03 ,2", "P1,2020-03-15,4"], 2020, 1)
    assert series["P1"].values == (0, 0, 7) + (0,) * 9
    with pytest.raises(InputError) as exc:
        parse_delivery_lines(tmp_path, ["P1,2020-3x,1", "P1,2020-03,2", "P1,2020-3x,3"], 2020, 1)
    message = "bad date '2020-3x', expected YYYY-MM or YYYY-MM-DD"
    assert str(exc.value) == "\n".join(
        f"{tmp_path / 'deliveries.csv'}:{line}: {message}" for line in (2, 4)
    )


def test_annual_total_examples():
    zero = MonthlySeries("P", 2020, (0,) * 12)
    assert annual_total(zero, 2020) == 0
    flat = MonthlySeries("P", 2020, (100,) * 12)
    assert annual_total(flat, 2020) == 1200
    ramp = MonthlySeries("P", 2020, tuple(range(1, 13)))
    assert annual_total(ramp, 2020) == 78
    with pytest.raises(ValueError, match="outside series"):
        annual_total(flat, 2019)


delivery_lines_strategy = st.lists(
    st.builds(
        "{},{}{}-{:02d}{}{},{}".format,
        st.sampled_from(["A", "B", "C"]),
        st.sampled_from(["", " "]),
        st.integers(2019, 2021),
        st.integers(1, 12),
        st.sampled_from(["", "-01", "-28"]),
        st.sampled_from(["", " "]),
        st.integers(0, 500),
    ),
    max_size=60,
)


@given(delivery_lines_strategy)
def test_aggregation_conserves_quantities(tmp_path_factory, lines):
    series = parse_delivery_lines(tmp_path_factory.mktemp("d"), lines, 2019, 3)
    for pid, s in series.items():
        assert sum(s.values) == sum(int(line.split(",")[2]) for line in lines if line[0] == pid)


@given(delivery_lines_strategy, st.randoms(use_true_random=False))
def test_aggregation_is_order_independent(tmp_path_factory, lines, rnd):
    shuffled = list(lines)
    rnd.shuffle(shuffled)
    directory = tmp_path_factory.mktemp("d")
    series = parse_delivery_lines(directory, lines, 2019, 3)
    assert series == parse_delivery_lines(directory, shuffled, 2019, 3)


def test_series_window_and_slices():
    values = tuple(range(24))
    s = MonthlySeries("P", 2020, values)
    assert s.year_slice(2020) == values[:12]
    assert s.year_slice(2021) == values[12:]
    with pytest.raises(ValueError, match="outside series"):
        s.year_slice(2019)


def test_series_rejects_negative_values():
    for values in ((5,) * 11 + (-1,), (5,) * 11 + (float("nan"),) + (-1,) * 12, (5,) * 11 + (float("nan"),)):
        with pytest.raises(ValueError, match="must be >= 0"):
            MonthlySeries("P", 2020, values)


def test_a_product_without_a_stock_row_gets_0_and_one_warning(tiny_inputs, tmp_path, caplog):
    catalog = write_csv(tmp_path / "catalog3.csv", ",".join(CATALOG_HEADER),
                        [(pid, f"Product {pid}", 1.0, 0, 10, 400, 300, 200) for pid in ("P1", "P2", "P3")])
    stock = write_csv(tmp_path / "stock3.csv", "product_id,on_hand", [("P2", 0), ("P1", 7)])
    with caplog.at_level("WARNING"):
        on_hand = parse_inputs(tiny_inputs["deliveries"], catalog, stock, 2020, 2).on_hand
    assert on_hand == {"P1": 7, "P2": 0, "P3": 0}
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "no stock snapshot for P3; assuming 0 boxes on hand")]


def test_every_input_dict_holds_the_cataloged_products_in_id_order(tmp_path):
    paths = write_inputs(tmp_path, "P1,2020-01,4\nA,2021-12,1\n")
    paths["catalog"].write_text(",".join(CATALOG_HEADER) + "\n" + "".join(
        f"{pid},Product {pid},1.0,0,10,400,300,200\n" for pid in ("P1", "C", "A", "B")), encoding="utf-8")
    write_csv(paths["stock"], "product_id,on_hand", [("B", 2), ("P1", 1), ("A", 3), ("C", 0)])
    series, catalog, on_hand = parse_inputs(paths["deliveries"], paths["catalog"], paths["stock"], 2020, 2)
    assert list(series) == list(catalog) == list(on_hand) == ["A", "B", "C", "P1"]
    assert on_hand == {"A": 3, "B": 2, "C": 0, "P1": 1}


def test_series_is_a_mapping_whose_values_are_its_lookups(bundled_paths):
    data = parse_inputs(*bundled_paths.values(), 2019, 3)
    assert list(data.series.values()) == [data.series[pid] for pid in data.series]
    assert dict(data.series.items()) == {pid: data.series[pid] for pid in data.series}


@pytest.mark.parametrize("name", ["deliveries", "catalog", "stock"])
def test_an_input_that_is_not_a_regular_file_is_refused(name, tiny_inputs):
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, tiny_inputs[name].read_bytes())
        os.close(write_end)
        paths = {**tiny_inputs, name: f"/dev/fd/{read_end}"}
        with pytest.raises(InputError) as exc:
            parse_inputs(paths["deliveries"], paths["catalog"], paths["stock"], 2020, 2)
    finally:
        os.close(read_end)
    assert str(exc.value) == f"/dev/fd/{read_end}: cannot read file (not a regular file)"


def test_invalid_domain_values_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        parse_delivery_lines(tmp_path, ["P1,2020-13,1"], 2020, 1)
    with pytest.raises(ValueError):
        MonthlySeries("P", 2020, (1, 2, 3))  # not a multiple of 12
    with pytest.raises(ValueError, match="^n_years must be >= 1, got 0$"):
        parse_inputs(tmp_path / "d.csv", tmp_path / "c.csv", tmp_path / "s.csv", 2020, 0)
    for fields, message in [
        ((0, 0, 10, (400, 300, 200)), "P1: unit_price must be > 0"),
        ((2.5, 0, 0, (400, 300, 200)), "P1: boxes_per_carton must be >= 1"),
        ((2.5, 0, 10, (400, 0, 200)), "P1: carton dimensions must all be > 0"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            CatalogEntry("P1", "Alpha", *fields)


def test_every_bad_line_is_reported_in_one_message(tmp_path):
    deliveries = tmp_path / "deliveries.csv"
    deliveries.write_text(
        "product_id,date,quantity\n"
        "P1,2020-01,10\n"
        "P1, 2020-13 ,5\n"
        "\n"
        "P1,2020-03,-4\n"
        "P1,2020-04, ten \n"
        "P1,2020-05\n"
        "P2,2021-07,5\n",
        encoding="utf-8",
    )
    catalog = write_csv(
        tmp_path / "catalog.csv",
        "product_id,name,unit_price,urgency,boxes_per_carton,carton_l_mm,carton_w_mm,carton_h_mm",
        [
            ("P1", "Alpha", 2.5, 0, 10, 400, 300, 200),
            ("P2", "Beta", 4.0, 1, 6, 300, 300, 300),
            ("P1", "Alpha again", 3.0, 0, 10, 400, 300, 200),
            ("P3", "Gamma", 1.0, 0, 10, 400, 300),
        ],
    )
    stock = write_csv(tmp_path / "stock.csv", "product_id,on_hand", [("P1", 20), ("P2", 0), ("P2", 3)])
    with pytest.raises(InputError) as exc:
        parse_inputs(deliveries, catalog, stock, 2020, 2)
    # field-count problems of every file come before any field-value problem
    assert str(exc.value) == "\n".join([
        f"{deliveries}:7: expected 3 fields, got 2",
        f"{catalog}:5: expected 8 fields, got 7",
        f"{deliveries}:3: bad date '2020-13', month must be 1..12",
        f"{deliveries}:5: quantity must be >= 0, got '-4'",
        f"{deliveries}:6: quantity must be an integer, got 'ten'",
        f"{catalog}:4: duplicate product_id 'P1' (first seen at line 2)",
        f"{stock}:4: duplicate product_id 'P2' (first seen at line 3)",
    ])


@pytest.mark.parametrize("row, message", [
    ("P1,2019-0_1,1_000", "bad date '2019-0_1', expected YYYY-MM or YYYY-MM-DD"),
    ("P1,\uff12\uff10\uff12\uff10-01,5", "bad date '\uff12\uff10\uff12\uff10-01', expected YYYY-MM or YYYY-MM-DD"),
    ("P1,2020-01,1_000", "quantity must be an integer, got '1_000'"),
    ("P1,2020-01,\u0663", "quantity must be an integer, got '\u0663'"),
    ("P1,+2020-01,5", "bad date '+2020-01', expected YYYY-MM or YYYY-MM-DD"),
    ("P1,2020 - 01,5", "bad date '2020 - 01', expected YYYY-MM or YYYY-MM-DD"),
    ("P1,2020-01,+5", "quantity must be an integer, got '+5'"),
    ("P1,2020-01-32,5", "bad date '2020-01-32', day must be 1..31"),
    ("P1,2020-01,9007199254740993", "quantity must be <= 9007199254740992, got '9007199254740993'"),
], ids=["underscore-date", "fullwidth-year", "underscore-quantity", "arabic-indic-quantity", "plus-year",
        "spaced-date", "plus-quantity", "day-32", "quantity-past-2**53"])
@pytest.mark.parametrize("forked", [True, False], ids=["split", "one-process"])
def test_delivery_numbers_and_dates_are_ascii_digits(row, message, forked, two_cpus, tiny_inputs, tmp_path,
                                                     monkeypatch):
    text = f"P1,2020-01,10\n{row}\n"
    assert ingestion._fold_texts([text], {"P1": 0, "P2": 24}, 2020, 2) is None  # the bulk check refuses the cell
    monkeypatch.setattr(ingestion, "SPLIT_FLOOR", 0 if forked else math.inf)
    path = write_deliveries(tmp_path / "deliveries.csv", text)
    with pytest.raises(InputError) as exc:
        parse_inputs(path, tiny_inputs["catalog"], tiny_inputs["stock"], 2020, 2)
    assert str(exc.value) == f"{path}:3: {message}"


@pytest.mark.parametrize("forked", [True, False], ids=["split", "one-process"])
def test_a_quantity_of_2_to_the_53_is_read(forked, two_cpus, tiny_inputs, tmp_path, monkeypatch):
    # 2**53 is the largest quantity read: every integer up to it is a float
    monkeypatch.setattr(ingestion, "SPLIT_FLOOR", 0 if forked else math.inf)
    path = write_deliveries(tmp_path / "deliveries.csv", "P1,2020-01,9007199254740992\n")
    assert parse_inputs(path, tiny_inputs["catalog"], tiny_inputs["stock"], 2020, 2).series["P1"].values[0] == 2**53


@pytest.mark.parametrize("name, row, message", [
    ("catalog", "P1,Alpha,2_5,0,10,400,300,200", "unit_price must be a number, got '2_5'"),
    ("catalog", "P1,Alpha,2.5,\u0660,10,400,300,200", "urgency must be an integer, got '\u0660'"),
    ("catalog", "P1,Alpha,2.5,0,1_0,400,300,200", "boxes_per_carton must be an integer, got '1_0'"),
    ("catalog", "P1,Alpha,2.5,0,10,\uff14\uff10\uff10,300,200",
     "carton_l_mm must be a number, got '\uff14\uff10\uff10'"),
    ("stock", "P1,2_0", "on_hand must be an integer, got '2_0'"),
    ("catalog", "P1,Alpha,2.5,+1,10,400,300,200", "urgency must be an integer, got '+1'"),
    ("stock", "P1,+20", "on_hand must be an integer, got '+20'"),
    ("catalog", "P1,Alpha,0,0,10,400,300,200", "unit_price must be > 0, got '0'"),
    ("catalog", "P1,Alpha,-2.5,0,10,400,300,200", "unit_price must be > 0, got '-2.5'"),
    ("catalog", "P1,Alpha,inf,0,10,400,300,200", "unit_price must be > 0, got 'inf'"),
    ("catalog", "P1,Alpha,2.5,2,10,400,300,200", "P1: urgency must be 0 or 1"),
    ("catalog", "P1,Alpha,2.5,0,0,400,300,200", "boxes_per_carton must be >= 1, got '0'"),
    ("catalog", "P1,Alpha,2.5,0,10,0,300,200", "carton_l_mm must be > 0, got '0'"),
    ("catalog", "P1,Alpha,2.5,0,10,400,300,nan", "carton_h_mm must be > 0, got 'nan'"),
    ("catalog", "P1,,2.5,0,10,400,300,200", "name must not be empty"),
    ("stock", "P1,-1", "on_hand must be >= 0, got '-1'"),
], ids=["underscore-price", "arabic-indic-urgency", "underscore-boxes", "fullwidth-length", "underscore-on-hand",
        "plus-urgency", "plus-on-hand", "zero-price", "negative-price", "infinite-price", "urgency-two",
        "zero-boxes", "zero-length", "nan-height", "empty-name", "negative-on-hand"])
def test_catalog_and_stock_numbers_are_ascii_digits(name, row, message, tiny_inputs, tmp_path):
    paths = dict(tiny_inputs)
    header, _, rest = paths[name].read_text(encoding="utf-8").partition("\n")
    others = rest.partition("\n")[2]  # the rows after P1's
    paths[name] = tmp_path / f"{name}-digits.csv"
    paths[name].write_text(f"{header}\n{row}\n{others}", encoding="utf-8")
    with pytest.raises(InputError) as exc:
        parse_inputs(paths["deliveries"], paths["catalog"], paths["stock"], 2020, 2)
    assert str(exc.value) == f"{paths[name]}:2: {message}"


@pytest.mark.parametrize("name, row", [
    ("catalog", "P1,Alpha,2.5,0,10,400,300,200"),
    ("stock", "P1,20"),
])
def test_catalog_and_stock_rows_get_the_row_check_of_deliveries(name, row, tiny_inputs, tmp_path):
    paths = dict(tiny_inputs)
    header = paths[name].read_text(encoding="utf-8").partition("\n")[0]
    width = header.count(",") + 1
    paths[name] = tmp_path / f"{name}-rows.csv"
    paths[name].write_text("\n".join([
        header, "", row, row.rpartition(",")[0], f"{row},7", f" {row[2:]}", f"P2{row[2:]}"]) + "\n", encoding="utf-8")
    with pytest.raises(InputError) as exc:
        parse_inputs(paths["deliveries"], paths["catalog"], paths["stock"], 2020, 2)
    assert str(exc.value) == "\n".join([  # the blank line 2 is skipped, yet counted
        f"{paths[name]}:4: expected {width} fields, got {width - 1}",
        f"{paths[name]}:5: expected {width} fields, got {width + 1}",
        f"{paths[name]}:6: product_id must not be empty",
    ])


def test_uncataloged_products_are_reported_once_files_parse_cleanly(tiny_inputs, tmp_path):
    deliveries = write_csv(
        tmp_path / "ghost_deliveries.csv",
        "product_id,date,quantity",
        [("P1", "2020-01", 10), ("GHOST", "2020-02", 4), ("P2", "2021-07", 5), ("GHOST", "2019-01", 1)],
    )
    stock = write_csv(
        tmp_path / "ghost_stock.csv", "product_id,on_hand", [("P1", 20), ("P2", 0), ("PHANTOM", 3)]
    )
    with pytest.raises(InputError) as exc:
        parse_inputs(deliveries, tiny_inputs["catalog"], stock, 2020, 2)
    assert str(exc.value) == "\n".join([
        f"{deliveries}:3: product 'GHOST' not in catalog",
        f"{deliveries}:5: product 'GHOST' not in catalog",
        f"{stock}:4: product 'PHANTOM' not in catalog",
    ])


OFFSETS = {pid: i * 24 for i, pid in enumerate(sorted(PRODUCTS))}  # slots of the window 2020..2021


def fold_in_one_process(path):
    """The delivery loop over a text file read as csv, the way one process folds it."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        return ingestion._fold_rows(rows, path, OFFSETS, 2020, 2)


def count_row_folds(path, monkeypatch):
    """One entry per `_fold_rows` call in this process: whether it got every row of `path` past the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    real_fold_rows, folds = ingestion._fold_rows, []

    def fold_rows(read, *args):
        read = list(read)
        folds.append(read == rows)
        return real_fold_rows(read, *args)

    monkeypatch.setattr(ingestion, "_fold_rows", fold_rows)
    return folds


def reference_outcome(path):
    """What the fold of a {(year, month): quantity} dict per product, pivoted into 2020..2021, gives."""
    history, shape, bad, uncataloged = {}, [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for line_no, row in enumerate(list(csv.reader(fh))[1:], start=2):
            if len(row) != 3:
                shape += [f"{path}:{line_no}: expected 3 fields, got {len(row)}"] if row else []
                continue
            pid, date_text, qty_text = (cell.strip() for cell in row)
            try:
                if not pid:
                    raise ValueError("product_id must not be empty")
                year_month = ingestion._parse_year_month(date_text)
                quantity = ingestion._parse_int(qty_text, 0, "quantity")
            except ValueError as exc:
                bad.append(f"{path}:{line_no}: {exc}")
                continue
            if pid not in PRODUCTS:
                uncataloged.append(f"{path}:{line_no}: product {pid!r} not in catalog")
                continue
            totals = history.setdefault(pid, {})
            totals[year_month] = totals.get(year_month, 0) + quantity
    if shape + bad or uncataloged:
        return InputError, "\n".join(shape + bad or uncataloged)
    series = []
    for pid in sorted(PRODUCTS):
        values = [0] * 24
        for (year, month), quantity in history.get(pid, {}).items():
            if year not in (2020, 2021):
                return ValueError, (f"delivery for {pid} dated {year}-{month:02d} "
                                    "falls outside the 2020..2021 history window")
            values[(year - 2020) * 12 + month - 1] = quantity
        series.append((pid, MonthlySeries(pid, 2020, tuple(values))))
    return series


def outcome(paths):
    """The series parse_inputs reads for 2020..2021, in order, or the type and text of what it raised."""
    try:
        return list(parse_inputs(paths["deliveries"], paths["catalog"], paths["stock"], 2020, 2)[0].items())
    except ValueError as exc:  # InputError included
        return type(exc), str(exc)


VALID_ROWS = st.builds("{},{},{}".format, st.sampled_from(["A", "B ", " C ", "P1"]),
                       st.sampled_from(["2020-01", "2020-02-03", " 2021-12 ", "2021-06 ", "2021-06-30",
                                        " 2019-12", "2022-01-31 "]),  # the last two are out of the window
                       st.integers(0, 99))
ANY_ROWS = st.lists(st.sampled_from(["A", "", "GHOST", "2020-01", "2019-12", "2020-13", "2020-x", "5", "-1",
                                     "x"]), max_size=4).map(",".join)  # blank lines and 1, 2, 3 and 4 fields
PLAIN_LINES = st.tuples(st.one_of(*[VALID_ROWS] * 6, ANY_ROWS),  # so that some files have no bad line
                        st.sampled_from(["\n", "\r\n", "\r"])).map("".join)
QUOTED_OR_CR_LINES = st.one_of(
    PLAIN_LINES,
    st.sampled_from(['"A",2020-01,3\n', '"A\nB",2020-01,3\n', '"B\r\n",2020-01,1\r\n', "A,2020-04,2\r",
                     '"A","2020-01","3"\n', '"B"," 2021-06 ","4"\r\n', '"",2020-01,3\n', ' "A",2020-01,3\n',
                     '"A" ,2020-01,3\n', '"A""",2020-01,3\n', 'A,2020-01,"-1"\n', "\n", "\r\n"]),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(PLAIN_LINES, max_size=40), st.lists(QUOTED_OR_CR_LINES, max_size=10), st.booleans())
def test_a_split_fold_gives_what_one_process_gives(split_fold, tmp_path_factory, plain, tail, final_newline):
    text = "".join(plain + tail)
    if not final_newline:
        text = text.rstrip("\r\n")
    paths = write_inputs(tmp_path_factory.mktemp("d"), text)
    expected = reference_outcome(paths["deliveries"])
    assert outcome(paths) == expected  # split in two processes where it can be
    with pytest.MonkeyPatch.context() as one_process:
        one_process.setattr(ingestion, "SPLIT_FLOOR", math.inf)
        assert outcome(paths) == expected
    assert_no_child_left()


@pytest.mark.parametrize("first_half, second_half, refolded", [
    ("A,2020-01,1\r\nGHOST,2020-02,2\r\n" * 20, 'B,2020-03,3\n"GHOST",2020-04,4\r\n' * 20, True),
    ('"A",2020-01,1\n' + "B,2020-02,2\n" * 40, "A,2020-03,3\n" * 40, False),  # one whole quoted field
    ('"A\nB",2020-01,1\n' + "B,2020-02,2\n" * 40, "A,2020-03,3\n" * 40, True),  # a quoted line end
    ("A,2020-01,1\rB,2020-02,2\n" * 20, "A,2020-03,3\n" * 40, False),  # a lone CR ends a row
    ("A,2020-01," + "0" * 300 + "1\n", "B,2021-02,2", False),  # the second half is a last line with no end
    ("A,2020-01,1\n" * 2, "B,2021-02," + "0" * 300 + "2\n", False),  # the split lands on the end of the file
    ("A,2019-12,1\n" + "A,2020-01,1\n" * 40, "A,2022-01,1\n" * 40, True),  # outside the window in both
    ("A,2020-01,1\r" * 40, "B,2020-02,2\r" * 40, False),
    ("A,2020-01,1\r\n" * 40, '"B\r\n",2020-02,2\r\n' * 40, True),  # a quoted CRLF
    ("A,2020-01,1\n" * 40, "\n" * 600, False),  # a half of blank lines has no row
    ("", "A,2020-01,1\n", False),  # the split lands just past the header
], ids=["quote-in-second-half", "quote-in-first-half", "quoted-line-end-in-first-half", "lone-cr-in-first-half",
        "last-line", "end-of-file", "outside-in-both-halves", "cr-only", "quoted-crlf-in-second-half",
        "blank-second-half", "header-only-first-half"])
def test_the_fold_splits_only_where_every_line_end_ends_a_row(first_half, second_half, refolded, split_fold,
                                                             tmp_path, monkeypatch):
    path = write_deliveries(tmp_path / "deliveries.csv", first_half + second_half)
    expected, forks, folds = fold_in_one_process(path), count_forks(monkeypatch), count_row_folds(path, monkeypatch)
    assert ingestion._fold_deliveries(path, OFFSETS, 2020, 2) == expected
    assert len(forks) == 1
    assert folds == ([True] if refolded else [])  # once, from line 2, where a half is not plain


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_the_split_point_is_just_past_the_first_whole_line_end_from_the_middle(newline, tmp_path, monkeypatch):
    monkeypatch.setattr(ingestion, "_CHUNK", 8)  # so that the read from the middle ends in lines and CRLFs
    text = newline.join(["A,2020-01,1", "", "B,2020-02,22", "C,      2020-03,3", "D,2020-04,4", ""])
    path, line_end = tmp_path / "deliveries.csv", re.compile(rb"\n|\r[^\n]")  # a CR ends a line if no LF follows
    for size in range(1, len(text) + 1):
        data = text[:size].encode()
        path.write_bytes(data)
        with open(path, "rb") as fh:
            split = ingestion._split_point(fh.fileno(), size)
        middle = size // 2
        if split is None:  # no line end that one read from the middle shows whole
            assert not line_end.search(data, middle, middle + 8)
        else:
            assert middle < split <= middle + 8 and data[split - 1] in b"\r\n"
            assert data[split - 1:split + 1] != b"\r\n"  # never between the CR and the LF of a CRLF
            assert not line_end.search(data, middle, split - 1)


def test_a_crlf_across_two_reads_ends_one_line(tmp_path):
    header = "product_id,date,quantity\r\n"
    spaces = ingestion._CHUNK - 1 - len(header) - len("A,2020-01,1")  # puts the row's CR last in the first read
    path = tmp_path / "deliveries.csv"
    path.write_bytes(f"{header}A,{' ' * spaces}2020-01,1\r\nB,2020-13,1\r\nGHOST,2020-02,2\r\n".encode())
    assert path.read_bytes()[ingestion._CHUNK - 1:ingestion._CHUNK + 1] == b"\r\n"
    fold = ingestion._fold_deliveries(path, OFFSETS, 2020, 2)
    assert fold == fold_in_one_process(path)
    assert fold[1:] == ([(4, "GHOST")], {}, [], [f"{path}:3: bad date '2020-13', month must be 1..12"])


@pytest.mark.parametrize("platform", ["failing-fork", "one-cpu"])
def test_the_fold_without_a_child_gives_the_split_result(platform, split_fold, bundled_paths, monkeypatch):
    forks = count_forks(monkeypatch)
    split = parse_inputs(
        bundled_paths["deliveries"], bundled_paths["catalog"], bundled_paths["stock"], 2019, 3)
    assert len(forks) == 1
    if platform == "failing-fork":
        def failing_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", failing_fork)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU to run on"))
    series, entries, snapshots = parse_inputs(
        bundled_paths["deliveries"], bundled_paths["catalog"], bundled_paths["stock"], 2019, 3)
    assert list(series.items()) == list(split[0].items())
    assert (entries, snapshots) == split[1:]


@pytest.mark.parametrize("caller_froze", [False, True])
def test_a_split_fold_reaps_its_child_and_keeps_the_freeze_count(caller_froze, split_fold, bundled_paths,
                                                                 monkeypatch):
    forks = count_forks(monkeypatch)
    if caller_froze:
        gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        parse_inputs(bundled_paths["deliveries"], bundled_paths["catalog"], bundled_paths["stock"], 2019, 3)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
    assert len(forks) == 1
    assert_no_child_left()


def copy_with_byte(source, target, offset, byte):
    data = bytearray(source.read_bytes())
    data[offset] = byte
    target.write_bytes(bytes(data))
    return target


@pytest.mark.parametrize("name, offset", [
    ("deliveries", 30000), ("catalog", 1000), ("stock", 300),
])
def test_bytes_that_are_not_utf8_are_named_by_file_and_offset(name, offset, bundled_paths, tmp_path):
    paths = dict(bundled_paths)
    paths[name] = copy_with_byte(bundled_paths[name], tmp_path / f"{name}.csv", offset, 0xFF)
    with pytest.raises(InputError) as exc:
        parse_inputs(paths["deliveries"], paths["catalog"], paths["stock"], 2019, 3)
    assert str(exc.value) == f"{paths[name]}: cannot read file (invalid UTF-8 at byte {offset}: invalid start byte)"


@pytest.mark.parametrize("name, offset", [
    ("deliveries", 30000), ("catalog", 1000), ("stock", 300),
])
def test_a_nul_byte_is_named_by_file_and_offset(name, offset, bundled_paths, tmp_path):
    # `csv` refuses a NUL before Python 3.11 and reads it as cell text from 3.11: every Python refuses it here
    paths = dict(bundled_paths)
    paths[name] = copy_with_byte(bundled_paths[name], tmp_path / f"{name}.csv", offset, 0)
    with pytest.raises(InputError) as exc:
        parse_inputs(paths["deliveries"], paths["catalog"], paths["stock"], 2019, 3)
    assert str(exc.value) == f"{paths[name]}: cannot read file (NUL at byte {offset})"


def deliveries_of_five_bundled_copies(bundled_paths, path):
    """A delivery file of about 200 KB, so that its first half goes past the first 64 KiB read."""
    header, _, body = bundled_paths["deliveries"].read_text(encoding="utf-8").partition("\n")
    path.write_text(header + "\n" + body * 5, encoding="utf-8")
    return path


@pytest.mark.parametrize("offset", [70000, 150000], ids=["child-half", "parent-half"])
def test_a_split_fold_names_bytes_that_are_not_utf8_as_one_process_does(offset, split_fold, bundled_paths,
                                                                        tmp_path, monkeypatch):
    path = deliveries_of_five_bundled_copies(bundled_paths, tmp_path / "big.csv")
    copy_with_byte(path, path, offset, 0xFF)
    forks = count_forks(monkeypatch)
    with pytest.raises(InputError) as exc:
        parse_inputs(path, bundled_paths["catalog"], bundled_paths["stock"], 2019, 3)
    assert str(exc.value) == f"{path}: cannot read file (invalid UTF-8 at byte {offset}: invalid start byte)"
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("offset", [70000, 150000], ids=["child-half", "parent-half"])
def test_a_split_fold_names_a_nul_byte_as_one_process_does(offset, split_fold, bundled_paths, tmp_path,
                                                           monkeypatch):
    path = deliveries_of_five_bundled_copies(bundled_paths, tmp_path / "big.csv")
    copy_with_byte(path, path, offset, 0)
    forks = count_forks(monkeypatch)
    with pytest.raises(InputError) as exc:
        parse_inputs(path, bundled_paths["catalog"], bundled_paths["stock"], 2019, 3)
    assert str(exc.value) == f"{path}: cannot read file (NUL at byte {offset})"
    assert len(forks) == 1
    assert_no_child_left()


def test_an_os_error_in_the_fold_child_keeps_its_type_and_message(split_fold, bundled_paths, tmp_path,
                                                                  monkeypatch):
    path = deliveries_of_five_bundled_copies(bundled_paths, tmp_path / "big.csv")
    real_pread, parent = os.pread, os.getpid()

    def pread(fd, n, offset):  # the child reads its half with os.pread
        if os.getpid() != parent:
            raise OSError(5, "Input/output error")
        return real_pread(fd, n, offset)

    monkeypatch.setattr(os, "pread", pread)
    forks = count_forks(monkeypatch)
    with pytest.raises(InputError) as exc:
        parse_inputs(path, bundled_paths["catalog"], bundled_paths["stock"], 2019, 3)
    assert str(exc.value) == f"{path}: cannot read file ([Errno 5] Input/output error)"
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("index", [0, -1], ids=["child-half", "parent-half"])
def test_a_split_fold_names_a_field_over_the_csv_limit_as_one_process_does(index, split_fold, bundled_paths,
                                                                           tmp_path, monkeypatch):
    path = deliveries_of_five_bundled_copies(bundled_paths, tmp_path / "big.csv")
    with_an_over_long_field(path, path, index)
    forks = count_forks(monkeypatch)
    with pytest.raises(InputError) as exc:
        parse_inputs(path, bundled_paths["catalog"], bundled_paths["stock"], 2019, 3)
    assert str(exc.value) == f"{path}: cannot read file (field larger than field limit ({csv.field_size_limit()}))"
    assert len(forks) == 1
    assert_no_child_left()


CLEAN_ROWS = ("A,2020-01,1", "B,2020-02-03,22", " C ,2021-12 ,3", "P1, 2021-06-30,40", "A ,2020-07, 5")


def text_over_reads(newline, middles):
    """Rows over one read of the fold per entry of `middles`, a nonempty entry as its read's middle line."""
    rows = CLEAN_ROWS * (ingestion._CHUNK // 2 // len(newline.join(CLEAN_ROWS + ("",))))
    half = "".join(row + newline for row in rows)
    return "".join(half + (middle + newline if middle else "") + half for middle in middles)


@pytest.mark.parametrize("newline, middles, end, refolded", [
    ("\n", ("", "", "", ""), "", False),
    ("\r\n", ("", "", "", ""), "", False),
    ("\r", ("", "", "", ""), "", False),
    ("\n", ("", "", "", ""), "\n", False),  # a trailing blank line
    ("\r\n", ("", "", "", ""), None, False),  # the last line has no line end
    ("\r\n", ("", "\r\n", "", ""), "", False),  # two blank lines mid-file
    ("\n", ("", "B,2020-13,1", "", ""), "", True),
    ("\r\n", ("C,2019-12,5", "", "", ""), "", True),
    ("\r\n", ("", "", '"A",2020-01,3', ""), "", False),
    ("\r\n", ("", "", '"A""B",2020-01,3', ""), "", True),
    ("\n", ("", "B,2021-03\n4,B,2021-03,4", "", ""), "", True),  # 3 fields a line on average, not on each
    ("\n", ("", "", "C\r,2021-01,2", ""), "", True),  # a lone CR ends a row
    ("\n", ("", "", "", ""), "B,2020-02,2\n" * 3 + "A,2020-01\n", True),  # the last line has 2 fields
], ids=["lf", "crlf", "cr", "trailing-blank-line", "no-last-line-end", "blank-lines", "bad-row-in-second-piece",
        "outside-in-first-piece", "quote-in-third-piece", "doubled-quote-in-third-piece", "2-and-4-fields",
        "lone-cr-in-third-piece", "short-last-line"])
@pytest.mark.parametrize("forked", [True, False], ids=["split", "one-process"])
def test_a_fold_of_many_pieces_gives_what_the_row_fold_gives(newline, middles, end, refolded, forked,
                                                            two_cpus, tmp_path, monkeypatch):
    text = text_over_reads(newline, middles)
    path = write_deliveries(tmp_path / "deliveries.csv", text.rstrip("\r\n") if end is None else text + end)
    monkeypatch.setattr(ingestion, "SPLIT_FLOOR", 0 if forked else math.inf)
    expected, forks, folds = fold_in_one_process(path), count_forks(monkeypatch), count_row_folds(path, monkeypatch)
    assert ingestion._fold_deliveries(path, OFFSETS, 2020, 2) == expected
    assert len(forks) == forked
    assert folds == ([True] if refolded else [])  # once, from line 2, where some piece is not plain
    assert_no_child_left()


def assert_folded_without_the_row_fold(path, forked, bundled_paths, monkeypatch):
    """`path`, five bundled delivery copies, folds to five times the bundled series, `_fold_rows` never called."""
    monkeypatch.setattr(ingestion, "SPLIT_FLOOR", 0 if forked else math.inf)
    once = parse_inputs(*bundled_paths.values(), 2019, 3)[0]

    def fold_rows(*args):
        raise AssertionError("a plain delivery file went through the row fold")

    monkeypatch.setattr(ingestion, "_fold_rows", fold_rows)
    forks = count_forks(monkeypatch)
    series = parse_inputs(path, bundled_paths["catalog"], bundled_paths["stock"], 2019, 3)[0]
    assert {pid: s.values for pid, s in series.items()} == {
        pid: tuple(5 * v for v in s.values) for pid, s in once.items()}
    assert len(forks) == forked
    assert_no_child_left()


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("forked", [True, False], ids=["split", "one-process"])
def test_a_clean_file_is_folded_without_the_row_fold(newline, forked, two_cpus, bundled_paths, tmp_path,
                                                      monkeypatch):
    path = deliveries_of_five_bundled_copies(bundled_paths, tmp_path / "big.csv")
    path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    assert_folded_without_the_row_fold(path, forked, bundled_paths, monkeypatch)


@pytest.mark.parametrize("quoting, newline, first_row", [
    (csv.QUOTE_NONNUMERIC, "\n", '"DG-0001","2019-01",100'),  # as R's write.csv writes, the header quoted too
    (csv.QUOTE_ALL, "\r\n", '"DG-0001","2019-01","100"'),
], ids=["r-style", "all-quoted"])
@pytest.mark.parametrize("forked", [True, False], ids=["split", "one-process"])
def test_a_quoted_file_is_folded_without_the_row_fold(quoting, newline, first_row, forked, two_cpus, bundled_paths,
                                                       tmp_path, monkeypatch):
    path = deliveries_of_five_bundled_copies(bundled_paths, tmp_path / "big.csv")
    header, *rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=quoting, lineterminator=newline).writerows(
            [header] + [(pid, date_text, int(qty_text)) for pid, date_text, qty_text in rows])
    assert path.read_text(encoding="utf-8").splitlines()[1] == first_row
    assert_folded_without_the_row_fold(path, forked, bundled_paths, monkeypatch)


@pytest.mark.parametrize("bad_bytes, message", [
    ((), "{path}:2: bad date '2019-13', month must be 1..12"),
    ((70000, 150000), "{path}: cannot read file (invalid UTF-8 at byte 70000: invalid start byte)"),
], ids=["bad-row", "and-bytes-that-are-not-utf8-in-both-halves"])
def test_a_split_fold_with_a_bad_row_on_line_2_gives_the_one_process_outcome(bad_bytes, message, split_fold,
                                                                             bundled_paths, tmp_path, monkeypatch):
    path = deliveries_of_five_bundled_copies(bundled_paths, tmp_path / "big.csv")
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    path.write_text(f"{header}\nDG-0001,2019-13,1\n{body}", encoding="utf-8")
    for offset in bad_bytes:
        copy_with_byte(path, path, offset, 0xFF)
    forks = count_forks(monkeypatch)
    with pytest.raises(InputError) as exc:
        parse_inputs(path, bundled_paths["catalog"], bundled_paths["stock"], 2019, 3)
    assert str(exc.value) == message.format(path=path)
    assert len(forks) == 1
    assert_no_child_left()
    monkeypatch.setattr(ingestion, "SPLIT_FLOOR", math.inf)
    with pytest.raises(InputError) as exc:
        parse_inputs(path, bundled_paths["catalog"], bundled_paths["stock"], 2019, 3)
    assert str(exc.value) == message.format(path=path)


def test_a_delivery_file_with_a_bad_header_creates_no_child(split_fold, bundled_paths, tmp_path, monkeypatch):
    path = deliveries_of_five_bundled_copies(bundled_paths, tmp_path / "big.csv")
    path.write_bytes(path.read_bytes().replace(b"product_id", b"product", 1))
    forks = count_forks(monkeypatch)
    with pytest.raises(InputError) as exc:
        parse_inputs(path, bundled_paths["catalog"], bundled_paths["stock"], 2019, 3)
    assert str(exc.value) == f"{path}:1: expected header product_id,date,quantity, got product,date,quantity"
    assert forks == []


def test_a_quote_opens_a_field_also_where_catalog_ids_hold_quotes(tmp_path):
    catalog = tmp_path / "catalog.csv"
    with open(catalog, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([CATALOG_HEADER] + [(pid, "Product", 1.0, 0, 10, 400, 300, 200)
                                                     for pid in ('"A', 'B"')])
    stock = write_csv(tmp_path / "stock.csv", "product_id,on_hand", [])
    deliveries = write_deliveries(tmp_path / "deliveries.csv", '"A,2020-01,3\nB",2020-01,4\n')
    with pytest.raises(InputError) as exc:
        parse_inputs(deliveries, catalog, stock, 2020, 2)
    assert str(exc.value) == f"{deliveries}:2: product 'A,2020-01,3\\nB' not in catalog"


def test_each_distinct_catalog_and_stock_cell_text_is_checked_once(bundled_paths, monkeypatch):
    checked = []
    for name in ("_parse_int", "_parse_positive_number"):  # `_parse_dim` checks through `_parse_positive_number`
        def counted(text, *args, parse=getattr(ingestion, name)):
            checked.append((next(arg for arg in args if isinstance(arg, str)), text))
            return parse(text, *args)
        monkeypatch.setattr(ingestion, name, counted)
    parse_inputs(bundled_paths["deliveries"], bundled_paths["catalog"], bundled_paths["stock"], 2019, 3)
    with open(bundled_paths["catalog"], newline="") as catalog, open(bundled_paths["stock"], newline="") as stock:
        rows = [*csv.DictReader(catalog), *csv.DictReader(stock)]
    columns = (*CATALOG_HEADER[2:], "on_hand")
    assert sorted(check for check in checked if check[0] != "quantity") == sorted(
        {(column, row[column]) for row in rows for column in columns if column in row})
    assert len({text for column, text in checked if column == "urgency"}) == 2 < len(rows)  # repeated texts


def test_bad_cells_that_repeat_are_named_on_every_row_in_file_order(tmp_path):
    catalog = write_csv(tmp_path / "catalog.csv", ",".join(CATALOG_HEADER), [
        ("P1", "One", "2.5", 0, 10, 400, 300, 200),
        ("P2", "Two", "abc", 0, 10, 400, 300, 200),
        ("P3", "Three", "2.5", 2, 10, 400, 300, 200),
        ("P4", "Four", "abc", 1, 10, 400, 300, 200),
        ("P5", "Five", "3.5", 2, 10, 400, 300, 200),
        ("P6", "Six", "abc", 0, 10, 400, 300, 200),
        ("P7", "Seven", "2.5", 2, "x", 400, 300, 200),  # a cell that fails its own check is named first
        ("P8", "Eight", "2.5", 2, 10, 400, 300, 200),
        ("P9", "Nine", "2.5", 1, 10, 400, 300, 200),
    ])
    paths = {"deliveries": write_deliveries(tmp_path / "deliveries.csv", ""), "catalog": catalog,
             "stock": write_csv(tmp_path / "stock.csv", "product_id,on_hand", [("P1", 3), ("P9", 3)])}
    with pytest.raises(InputError) as exc:
        parse_inputs(paths["deliveries"], paths["catalog"], paths["stock"], 2020, 1)
    assert str(exc.value).splitlines() == [
        f"{catalog}:3: unit_price must be a number, got 'abc'",
        f"{catalog}:4: P3: urgency must be 0 or 1",
        f"{catalog}:5: unit_price must be a number, got 'abc'",
        f"{catalog}:6: P5: urgency must be 0 or 1",
        f"{catalog}:7: unit_price must be a number, got 'abc'",
        f"{catalog}:8: boxes_per_carton must be an integer, got 'x'",
        f"{catalog}:9: P8: urgency must be 0 or 1",
    ]
