import csv
import gc
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stockdim import ingestion
from stockdim.ingestion import (
    InputError,
    MonthlySeries,
    StockSnapshot,
    aggregate_monthly,
    annual_total,
    parse_inputs,
    resolve_on_hand,
)

from conftest import assert_no_child_left, count_forks, write_csv

PRODUCTS = ("A", "B", "C", "P1")


def parse_delivery_lines(directory, lines):
    """parse_inputs over the given delivery CSV lines and a catalog of PRODUCTS."""
    deliveries = directory / "deliveries.csv"
    deliveries.write_text("\n".join(["product_id,date,quantity", *lines]) + "\n", encoding="utf-8")
    catalog = write_csv(
        directory / "catalog.csv",
        "product_id,name,unit_price,urgency,boxes_per_carton,carton_l_mm,carton_w_mm,carton_h_mm",
        [(pid, f"Product {pid}", 1.0, 0, 10, 400, 300, 200) for pid in PRODUCTS],
    )
    stock = write_csv(directory / "stock.csv", "product_id,on_hand", [(pid, 0) for pid in PRODUCTS])
    history, _, _ = parse_inputs(deliveries, catalog, stock)
    return history


def test_parse_well_formed_inputs(tiny_inputs):
    history, entries, snapshots = parse_inputs(
        tiny_inputs["deliveries"], tiny_inputs["catalog"], tiny_inputs["stock"]
    )
    assert history == {  # days truncated to their month
        "P1": {(2020, 1): 10, (2020, 3): 50, (2021, 3): 60},
        "P2": {(2021, 7): 5},
    }
    assert [e.product_id for e in entries] == ["P1", "P2"]
    assert entries[0].carton_dims == (400, 300, 200)
    assert entries[1].urgency == 1
    assert {s.product_id: s.on_hand for s in snapshots} == {"P1": 20, "P2": 0}


def test_negative_quantity_reports_file_and_line(tiny_inputs, tmp_path):
    bad = write_csv(
        tmp_path / "bad_deliveries.csv",
        "product_id,date,quantity",
        [("P1", "2020-01", 10), ("P1", "2020-02", -5)],
    )
    with pytest.raises(InputError) as exc:
        parse_inputs(bad, tiny_inputs["catalog"], tiny_inputs["stock"])
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
        parse_inputs(tiny_inputs["deliveries"], dup, tiny_inputs["stock"])


def test_bad_date_and_bad_number_are_reported_together(tiny_inputs, tmp_path):
    bad = write_csv(
        tmp_path / "deliveries.csv",
        "product_id,date,quantity",
        [("P1", "2020-13", 10), ("P1", "2020-02", "ten")],
    )
    with pytest.raises(InputError) as exc:
        parse_inputs(bad, tiny_inputs["catalog"], tiny_inputs["stock"])
    msg = str(exc.value)
    assert ":2:" in msg and ":3:" in msg  # both rows surfaced in one pass


def test_unknown_header_is_rejected(tiny_inputs, tmp_path):
    bad = write_csv(
        tmp_path / "deliveries.csv",
        "product_id,when,quantity",
        [("P1", "2020-01", 10)],
    )
    with pytest.raises(InputError, match="expected header"):
        parse_inputs(bad, tiny_inputs["catalog"], tiny_inputs["stock"])


def test_delivery_for_uncataloged_product_is_an_error(tiny_inputs, tmp_path):
    bad = write_csv(
        tmp_path / "deliveries.csv",
        "product_id,date,quantity",
        [("GHOST", "2020-01", 10)],
    )
    with pytest.raises(InputError, match="'GHOST' not in catalog"):
        parse_inputs(bad, tiny_inputs["catalog"], tiny_inputs["stock"])


def test_aggregate_no_records_zero_fills_catalog_products(tmp_path):
    series = aggregate_monthly(parse_delivery_lines(tmp_path, []), 2018, 1, product_ids=["P1"])
    assert series["P1"].values == (0,) * 12


def test_aggregate_single_record_lands_in_its_month(tmp_path):
    series = aggregate_monthly(parse_delivery_lines(tmp_path, ["P1,2018-03,50"]), 2018, 1)
    assert series["P1"].values[2] == 50
    assert sum(series["P1"].values) == 50


def test_aggregate_same_month_records_add_up(tmp_path):
    history = parse_delivery_lines(tmp_path, ["P1,2018-03,50", "P1,2018-03,20"])
    series = aggregate_monthly(history, 2018, 1)
    assert series["P1"].values[2] == 70


def test_aggregate_rejects_record_outside_window(tmp_path):
    history = parse_delivery_lines(tmp_path, ["P1,2019-01,5"])
    with pytest.raises(ValueError, match="outside the 2018..2018"):
        aggregate_monthly(history, 2018, 1)


def test_equal_months_share_a_slot_and_every_bad_date_line_is_reported(tmp_path):
    history = parse_delivery_lines(tmp_path, ["P1,2020-03,1", "P1, 2020-03 ,2", "P1,2020-03-15,4"])
    assert history == {"P1": {(2020, 3): 7}}
    assert aggregate_monthly(history, 2020, 1)["P1"].values[2] == 7
    with pytest.raises(InputError) as exc:
        parse_delivery_lines(tmp_path, ["P1,2020-3x,1", "P1,2020-03,2", "P1,2020-3x,3"])
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
    series = aggregate_monthly(parse_delivery_lines(tmp_path_factory.mktemp("d"), lines), 2019, 3)
    for pid, s in series.items():
        assert sum(s.values) == sum(int(line.split(",")[2]) for line in lines if line[0] == pid)


@given(delivery_lines_strategy, st.randoms(use_true_random=False))
def test_aggregation_is_order_independent(tmp_path_factory, lines, rnd):
    shuffled = list(lines)
    rnd.shuffle(shuffled)
    directory = tmp_path_factory.mktemp("d")
    assert aggregate_monthly(parse_delivery_lines(directory, lines), 2019, 3) == aggregate_monthly(
        parse_delivery_lines(directory, shuffled), 2019, 3
    )


def test_series_window_and_slices():
    values = tuple(range(24))
    s = MonthlySeries("P", 2020, values)
    assert s.year_slice(2021) == values[12:]
    assert s.window(2021, 1).values == values[12:]
    assert s.window(2020, 2) == s
    assert s.window(2021, 1) == MonthlySeries("P", 2021, values[12:])
    with pytest.raises(ValueError, match="outside series"):
        s.window(2019, 2)


def test_series_rejects_negative_values():
    for values in ((5,) * 11 + (-1,), (5,) * 11 + (float("nan"),) + (-1,) * 12):
        with pytest.raises(ValueError, match="must be >= 0"):
            MonthlySeries("P", 2020, values)


def test_resolve_on_hand_defaults_missing_products(caplog):
    with caplog.at_level("WARNING"):
        levels = resolve_on_hand([StockSnapshot("P1", 7)], ["P1", "P2"])
    assert levels == {"P1": 7, "P2": 0}
    assert "no stock snapshot for P2" in caplog.text


def test_invalid_domain_values_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        parse_delivery_lines(tmp_path, ["P1,2020-13,1"])
    with pytest.raises(ValueError):
        MonthlySeries("P", 2020, (1, 2, 3))  # not a multiple of 12


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
        parse_inputs(deliveries, catalog, stock)
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


def test_uncataloged_products_are_reported_once_files_parse_cleanly(tiny_inputs, tmp_path):
    deliveries = write_csv(
        tmp_path / "ghost_deliveries.csv",
        "product_id,date,quantity",
        [("P1", "2020-01", 10), ("GHOST", "2020-02", 4), ("P2", "2021-07", 5), ("GHOST", "2021-01", 1)],
    )
    stock = write_csv(
        tmp_path / "ghost_stock.csv", "product_id,on_hand", [("P1", 20), ("P2", 0), ("PHANTOM", 3)]
    )
    with pytest.raises(InputError) as exc:
        parse_inputs(deliveries, tiny_inputs["catalog"], stock)
    assert str(exc.value) == "\n".join([
        f"{deliveries}:3: product 'GHOST' not in catalog",
        f"{deliveries}:5: product 'GHOST' not in catalog",
        f"{stock}:4: product 'PHANTOM' not in catalog",
    ])


def ordered(fold):
    """A `_fold_deliveries` result with each dict as its list of items, so that key order counts."""
    history, *rest = fold
    return [(pid, list(totals.items())) for pid, totals in history.items()], *rest


def fold_in_one_process(path, catalog):
    """The delivery loop over a text file read as csv, the way one process folds it."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        return ingestion._fold_rows(rows, 2, path, catalog)


def write_deliveries(path, text):
    path.write_bytes(("product_id,date,quantity\n" + text).encode("utf-8"))
    return path


CATALOG = {pid: None for pid in PRODUCTS}
VALID_ROWS = st.builds("{},{},{}".format, st.sampled_from(["A", "B", " C ", "P1", "GHOST"]),
                       st.sampled_from(["2020-01", "2020-02-03", " 2021-12 "]), st.integers(0, 99))
ANY_ROWS = st.lists(st.sampled_from(["A", "", "GHOST", "2020-13", "2020-x", "5", "-1", "x"]),
                    max_size=4).map(",".join)  # blank lines and 1, 2, 3 and 4 fields
PLAIN_LINES = st.tuples(st.one_of(VALID_ROWS, ANY_ROWS), st.sampled_from(["\n", "\r\n"])).map("".join)
QUOTED_OR_CR_LINES = st.one_of(
    PLAIN_LINES,
    st.sampled_from(['"A",2020-01,3\n', '"A\nB",2020-01,3\n', '"B\r\n",2020-01,1\r\n', "A,2020-04,2\r"]),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(PLAIN_LINES, max_size=40), st.lists(QUOTED_OR_CR_LINES, max_size=10), st.booleans())
def test_a_split_fold_gives_what_one_process_gives(split_fold, tmp_path_factory, plain, tail, final_newline):
    text = "".join(plain + tail)
    if not final_newline:
        text = text.rstrip("\r\n")
    path = write_deliveries(tmp_path_factory.mktemp("d") / "deliveries.csv", text)
    assert ordered(ingestion._fold_deliveries(path, CATALOG)) == ordered(fold_in_one_process(path, CATALOG))
    assert_no_child_left()


@pytest.mark.parametrize("first_half, second_half, forked", [
    ("A,2020-01,1\r\nGHOST,2020-02,2\r\n" * 20, 'B,2020-03,3\n"GHOST",2020-04,4\r\n' * 20, True),
    ('"A",2020-01,1\n' + "B,2020-02,2\n" * 40, "A,2020-03,3\n" * 40, False),
    ("A,2020-01,1\rB,2020-02,2\n" * 20, "A,2020-03,3\n" * 40, False),
    ("A,2020-01," + "0" * 300 + "1\n", "B,2021-02,2", True),  # the second half is a last line with no end
    ("A,2020-01,1\n" * 2, "B,2021-02," + "0" * 300 + "2\n", True),  # the split lands on the end of the file
], ids=["quote-in-second-half", "quote-in-first-half", "lone-cr-in-first-half", "last-line", "end-of-file"])
def test_the_fold_splits_only_where_every_line_end_ends_a_row(first_half, second_half, forked, split_fold,
                                                             tmp_path, monkeypatch):
    forks = count_forks(monkeypatch)
    path = write_deliveries(tmp_path / "deliveries.csv", first_half + second_half)
    assert ordered(ingestion._fold_deliveries(path, CATALOG)) == ordered(fold_in_one_process(path, CATALOG))
    assert len(forks) == forked


def test_a_crlf_across_two_reads_ends_one_line(tmp_path):
    header = "product_id,date,quantity\r\n"
    spaces = ingestion._CHUNK - 1 - len(header) - len("A,2020-01,1")  # puts the row's CR last in the first read
    path = tmp_path / "deliveries.csv"
    path.write_bytes(f"{header}A,{' ' * spaces}2020-01,1\r\nB,2020-13,1\r\nGHOST,2020-02,2\r\n".encode())
    assert path.read_bytes()[ingestion._CHUNK - 1:ingestion._CHUNK + 1] == b"\r\n"
    fold = ingestion._fold_deliveries(path, CATALOG)
    assert ordered(fold) == ordered(fold_in_one_process(path, CATALOG))
    assert fold[1:] == ([(4, "GHOST")], [], [f"{path}:3: bad date '2020-13', month must be 1..12"])


@pytest.mark.parametrize("platform", ["failing-fork", "one-cpu"])
def test_the_fold_without_a_child_gives_the_split_result(platform, split_fold, bundled_paths, monkeypatch):
    forks = count_forks(monkeypatch)
    split = parse_inputs(bundled_paths["deliveries"], bundled_paths["catalog"], bundled_paths["stock"])
    assert len(forks) == 1
    if platform == "failing-fork":
        def failing_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", failing_fork)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU to run on"))
    history, entries, snapshots = parse_inputs(
        bundled_paths["deliveries"], bundled_paths["catalog"], bundled_paths["stock"])
    assert ordered((history,)) == ordered((split[0],))
    assert (entries, snapshots) == split[1:]


@pytest.mark.parametrize("caller_froze", [False, True])
def test_a_split_fold_reaps_its_child_and_keeps_the_freeze_count(caller_froze, split_fold, bundled_paths,
                                                                 monkeypatch):
    forks = count_forks(monkeypatch)
    if caller_froze:
        gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        parse_inputs(bundled_paths["deliveries"], bundled_paths["catalog"], bundled_paths["stock"])
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
        parse_inputs(paths["deliveries"], paths["catalog"], paths["stock"])
    assert str(exc.value) == f"{paths[name]}: cannot read file (invalid UTF-8 at byte {offset}: invalid start byte)"


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
        parse_inputs(path, bundled_paths["catalog"], bundled_paths["stock"])
    assert str(exc.value) == f"{path}: cannot read file (invalid UTF-8 at byte {offset}: invalid start byte)"
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
        parse_inputs(path, bundled_paths["catalog"], bundled_paths["stock"])
    assert str(exc.value) == f"{path}: cannot read file ([Errno 5] Input/output error)"
    assert len(forks) == 1
    assert_no_child_left()
