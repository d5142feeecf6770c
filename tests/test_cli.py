import builtins
import csv
import gc
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import assert_no_child_left, count_forks, invoke, with_an_over_long_field, write_csv
from stockdim import ingestion, reporting
from test_parity import GOLDEN


def base_args(paths, out_dir):
    return [
        "--deliveries", str(paths["deliveries"]),
        "--catalog", str(paths["catalog"]),
        "--stock", str(paths["stock"]),
        "--start-year", "2019",
        "--years", "3",
        "--out-dir", str(out_dir),
    ]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_report_subcommand_runs_end_to_end(bundled_paths, tmp_path):
    result = invoke(["report"] + base_args(bundled_paths, tmp_path))
    assert result.exit_code == 0, result.output
    for name in ("classification.csv", "forecast.csv", "plan.csv", "volume.csv", "gap.csv", "summary.json"):
        assert (tmp_path / name).is_file()


def test_classify_subcommand(bundled_paths, tmp_path):
    result = invoke(["classify"] + base_args(bundled_paths, tmp_path))
    assert result.exit_code == 0, result.output
    rows = read_rows(tmp_path / "classification.csv")
    assert len(rows) == 50
    assert rows[0]["rank"] == "1"


def test_plan_subcommand_all_products(bundled_paths, tmp_path):
    result = invoke(["plan", "--all"] + base_args(bundled_paths, tmp_path))
    assert result.exit_code == 0, result.output
    rows = {r["product_id"]: r for r in read_rows(tmp_path / "plan.csv")}
    assert len(rows) == 50
    assert rows["DG-0001"]["M"] == "100.0"
    assert rows["DG-0001"]["QC"] == "250.0"
    assert rows["DG-0001"]["status"] == "UNDERSTOCK"


def test_volume_subcommand_with_custom_pallet(bundled_paths, tmp_path):
    result = invoke(
        ["volume", "--all", "--pallet-l", "1200", "--pallet-w", "1000", "--pallet-h", "1800"]
        + base_args(bundled_paths, tmp_path)
    )
    assert result.exit_code == 0, result.output
    rows = {r["product_id"]: r for r in read_rows(tmp_path / "volume.csv")}
    assert rows["DG-0001"]["boxes"] == "400"
    assert rows["DG-0001"]["cartons"] == "17"


def test_forecast_and_backtest_subcommands(bundled_paths, tmp_path):
    result = invoke(["forecast", "--all"] + base_args(bundled_paths, tmp_path))
    assert result.exit_code == 0, result.output
    rows = read_rows(tmp_path / "forecast.csv")
    assert len(rows) == 100  # naive + seasonal per product
    assert {r["method"] for r in rows} == {"naive", "seasonal"}

    result = invoke(["backtest", "--all"] + base_args(bundled_paths, tmp_path))
    assert result.exit_code == 0, result.output
    rows = {r["product_id"]: r for r in read_rows(tmp_path / "backtest.csv")}
    assert rows["DG-0001"]["holdout_year"] == "2021"
    assert float(rows["DG-0002"]["mae_seasonal"]) == 0.0
    assert float(rows["DG-0002"]["mae_naive"]) > 0.0


def test_config_file_provides_defaults_and_flags_override(bundled_paths, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[paths]\n"
        f"deliveries = {bundled_paths['deliveries']}\n"
        f"catalog = {bundled_paths['catalog']}\n"
        f"stock = {bundled_paths['stock']}\n"
        f"out_dir = {tmp_path / 'from_config'}\n"
        "[window]\n"
        "start_year = 2019\n"
        "years = 3\n"
        "[dimensioning]\n"
        "multiplier = 6\n",
        encoding="utf-8",
    )
    result = invoke(["plan", "--all", "--config", str(config)])
    assert result.exit_code == 0, result.output
    rows = {r["product_id"]: r for r in read_rows(tmp_path / "from_config" / "plan.csv")}
    assert rows["DG-0001"]["QS"] == "600.0"  # 6-month horizon from the file

    result = invoke(["plan", "--all", "--config", str(config), "--multiplier", "4",
                     "--out-dir", str(tmp_path / "flag_wins")])
    assert result.exit_code == 0, result.output
    rows = {r["product_id"]: r for r in read_rows(tmp_path / "flag_wins" / "plan.csv")}
    assert rows["DG-0001"]["QS"] == "400.0"  # flag overrides the file


def test_missing_required_settings_fail_cleanly(tmp_path):
    result = invoke(["report", "--out-dir", str(tmp_path)])
    assert result.exit_code != 0
    assert "missing required settings" in result.output


def test_bad_input_file_exits_nonzero_with_error_line(tiny_inputs, tmp_path):
    bad = write_csv(tmp_path / "deliveries.csv", "product_id,date,quantity", [("P1", "nope", 1)])
    result = invoke([
        "report",
        "--deliveries", str(bad),
        "--catalog", str(tiny_inputs["catalog"]),
        "--stock", str(tiny_inputs["stock"]),
        "--start-year", "2020", "--years", "2",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1
    assert "Error:" in result.output
    assert "bad date" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["deliveries", "catalog", "stock"])
def test_a_field_over_the_csv_limit_is_one_error_line(name, bundled_paths, tmp_path):
    paths = dict(bundled_paths)
    paths[name] = with_an_over_long_field(bundled_paths[name], tmp_path / f"{name}.csv", 0)
    env = dict(os.environ, PYTHONPATH=str(Path(reporting.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "stockdim.cli", "report", *base_args(paths, tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (
        f"Error: {paths[name]}: cannot read file (field larger than field limit ({csv.field_size_limit()}))\n"
    )
    assert not (tmp_path / "out").exists()


def test_unpalletizable_product_fails_with_its_name(tmp_path):
    deliveries = write_csv(
        tmp_path / "deliveries.csv", "product_id,date,quantity",
        [("P1", "2019-06", 100), ("P1", "2020-06", 100), ("P2", "2020-03", 10)],
    )
    catalog = write_csv(
        tmp_path / "catalog.csv",
        "product_id,name,unit_price,urgency,boxes_per_carton,carton_l_mm,carton_w_mm,carton_h_mm",
        [
            ("P1", "Big", 2.0, 1, 10, 3000, 3000, 3000),
            ("P2", "Small", 2.0, 0, 10, 300, 300, 300),
        ],
    )
    stock = write_csv(tmp_path / "stock.csv", "product_id,on_hand", [("P1", 0), ("P2", 0)])
    result = invoke([
        "report", "--all",
        "--deliveries", str(deliveries), "--catalog", str(catalog), "--stock", str(stock),
        "--start-year", "2019", "--years", "2", "--out-dir", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1
    assert "'P1' is unpalletizable" in result.output
    assert not (tmp_path / "out").exists()


def test_a_carton_volume_too_large_for_a_float_names_its_product_and_carton(bundled_paths, tmp_path):
    # DG-0003 is never delivered, but its carton format is fitted all the same
    text = bundled_paths["catalog"].read_text(encoding="utf-8")
    row = "DG-0003,Ibuprofen 400mg tabs,5.0,0,12,"
    assert f"\n{row}350,250,200\n" in text
    paths = {**bundled_paths, "catalog": tmp_path / "catalog.csv"}
    paths["catalog"].write_text(text.replace(f"{row}350,250,200", f"{row}1e200,1e200,1e200"), encoding="utf-8")
    result = invoke(["volume", "--all"] + base_args(paths, tmp_path / "out"))
    assert result.exit_code == 1
    side = int(1e200)
    assert last_line(result) == f"Error: DG-0003: carton {side}x{side}x{side} mm has a volume too large for a float"
    assert not (tmp_path / "out").exists()


def test_quoted_product_id_reads_back_from_every_report(tmp_path):
    ids = ("DG,9", "DG-1", "DG\rCR")

    def write(name, header, rows):  # with csv's CRLF terminator, which quotes a lone CR on every Python
        with open(tmp_path / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return str(tmp_path / name)

    deliveries = write("deliveries.csv", ("product_id", "date", "quantity"), [
        (pid, f"{year}-{month:02d}", 10 * k + month)
        for k, pid in enumerate(ids, start=1) for year in (2019, 2020, 2021) for month in (1, 6, 12)
    ])
    catalog = write("catalog.csv", (
        "product_id", "name", "unit_price", "urgency", "boxes_per_carton",
        "carton_l_mm", "carton_w_mm", "carton_h_mm",
    ), [("DG,9", "Comma, quoted", 2.5, 1, 10, 400, 300, 200), ("DG-1", "Plain", 4.0, 0, 6, 300, 300, 300),
        ("DG\rCR", "Lone CR", 3.0, 0, 12, 350, 250, 200)])
    stock = write("stock.csv", ("product_id", "on_hand"), [(pid, 5) for pid in ids])
    out = tmp_path / "out"
    args = ["--deliveries", deliveries, "--catalog", catalog, "--stock", stock,
            "--start-year", "2019", "--years", "3", "--out-dir", str(out), "--all"]
    for command in ("report", "backtest"):
        result = invoke([command, *args])
        assert result.exit_code == 0, result.output
    for name in ("classification.csv", "forecast.csv", "backtest.csv", "plan.csv", "volume.csv", "gap.csv"):
        assert {row["product_id"] for row in read_rows(out / name)} == set(ids), name
    gap = (out / "gap.csv").read_bytes()
    assert b'"DG,9",' in gap and b'"DG\rCR",' in gap


def test_failed_write_keeps_the_previous_outputs(bundled_paths, tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert invoke(["report"] + base_args(bundled_paths, out)).exit_code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    real_open = io.open
    written = []

    def open_failing_on_fourth_write(file, mode="r", *args, **kwargs):
        if "w" in mode:
            written.append(file)
            if len(written) == 4:
                raise OSError("disk full")
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", open_failing_on_fourth_write)
    monkeypatch.setattr(io, "open", open_failing_on_fourth_write)
    result = invoke(["report", "--multiplier", "6"] + base_args(bundled_paths, out))
    monkeypatch.undo()
    assert result.exit_code == 1
    assert "Error: disk full" in result.output
    assert len(written) == 4
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failure_while_a_stream_is_written_keeps_the_previous_outputs(bundled_paths, tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert invoke(["report"] + base_args(bundled_paths, out)).exit_code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    real_gap_csv, real_forecast = reporting.gap_csv, reporting.forecast_columns
    writing_gaps = []

    def gap_csv(gaps, fh):
        writing_gaps.append(fh.name)
        real_gap_csv(gaps, fh)

    def forecast(*args, **kwargs):
        if writing_gaps:
            raise ValueError("forecast failed mid-stream")
        return real_forecast(*args, **kwargs)

    monkeypatch.setattr(reporting, "gap_csv", gap_csv)
    monkeypatch.setattr(reporting, "forecast_columns", forecast)
    result = invoke(["report", "--multiplier", "6"] + base_args(bundled_paths, out))
    monkeypatch.undo()
    assert result.exit_code == 1
    assert result.output == "Error: forecast failed mid-stream\n"
    assert len(writing_gaps) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("previous, failing", [("report", k) for k in range(1, 7)] + [("classify", 6)])
def test_a_failed_rename_puts_the_previous_outputs_back(previous, failing, bundled_paths, tmp_path,
                                                         monkeypatch):
    out = tmp_path / "out"
    assert invoke([previous] + base_args(bundled_paths, out)).exit_code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_replace, renames = os.replace, []

    def replace(source, target):
        renames.append(target)
        if len(renames) == failing:
            raise OSError(28, "No space left on device")
        real_replace(source, target)

    monkeypatch.setattr(os, "replace", replace)
    result = invoke(["report", "--multiplier", "6"] + base_args(bundled_paths, out))
    monkeypatch.undo()
    assert result.exit_code == 1
    assert result.output == "Error: [Errno 28] No space left on device\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert not list(out.glob(".stockdim-*"))
    assert invoke(["report", "--multiplier", "6"] + base_args(bundled_paths, out)).exit_code == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} != before  # so that the files put back differ


def test_a_run_where_hard_links_are_refused_still_writes_its_outputs(bundled_paths, tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert invoke(["report", "--multiplier", "6"] + base_args(bundled_paths, out)).exit_code == 0
    expected = {p.name: p.read_bytes() for p in out.iterdir()}
    assert invoke(["report"] + base_args(bundled_paths, out)).exit_code == 0

    def link(source, target):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, "link", link)
    assert invoke(["report", "--multiplier", "6"] + base_args(bundled_paths, out)).exit_code == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == expected


def last_line(result):
    return result.output.splitlines()[-1]


def test_each_subcommand_has_its_help_line_and_options():
    settings = [
        "--deliveries", "--catalog", "--stock", "--out-dir", "--start-year", "--years", "--target-year",
        "--multiplier", "--w-revenue", "--w-ratio", "--w-urgency", "--a-threshold", "--b-threshold",
        "--pallet-l", "--pallet-w", "--pallet-h",
    ]
    help_lines = {
        "classify": "Score, rank, and ABC-classify every cataloged product.",
        "forecast": "Forecast the target year per month, flat and seasonal.",
        "backtest": "Score flat vs seasonal forecasts against a held-out year.",
        "plan": "Size the strategic stock and the order quantity per product.",
        "volume": "Convert strategic quantities into cartons, pallets, and volume.",
        "report": "Run the whole pipeline and write every report plus summary.json.",
    }
    usage = invoke(["--help"])
    assert usage.exit_code == 0, usage.output
    commands = re.search(r"\{(.*?)\}", usage.output).group(1).split(",")  # as the usage line lists them
    assert sorted(commands) == sorted(help_lines)
    for name in commands:
        result = invoke([name, "--help"])
        assert result.exit_code == 0, result.output
        description = result.output.split("\n\n")[1]  # the paragraph after the usage line
        assert " ".join(description.split()) == help_lines[name]
        holdout = ["--holdout-year"] if name == "backtest" else []
        assert re.findall(r"^  (--[\w-]+)", result.output, re.M) == (  # "-h, --help" is not matched
            settings + ["--config", "--all"] + holdout
        ), name


def test_unreadable_config_file_fails_cleanly(bundled_paths, tmp_path):
    missing = tmp_path / "missing.ini"
    result = invoke(["plan", "--config", str(missing)] + base_args(bundled_paths, tmp_path / "out"))
    assert result.exit_code == 1
    assert last_line(result) == (
        f"Error: cannot read config file {missing}: "
        f"[Errno 2] No such file or directory: '{missing}'"
    )
    assert not (tmp_path / "out").exists()


def test_config_file_that_is_not_utf8_is_named_in_its_error(bundled_paths, tmp_path):
    config = tmp_path / "bad.ini"
    config.write_bytes(b"[window]\nyears = \xff\n")
    result = invoke(["plan", "--config", str(config)] + base_args(bundled_paths, tmp_path / "out"))
    assert result.exit_code == 1
    assert last_line(result) == (
        f"Error: cannot read config file {config}: "
        "'utf-8' codec can't decode byte 0xff in position 17: invalid start byte"
    )
    assert not (tmp_path / "out").exists()


def test_malformed_config_file_fails_cleanly(bundled_paths, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[window]\nyears = 3\nyears = 4\n", encoding="utf-8")
    result = invoke(["plan", "--config", str(config)] + base_args(bundled_paths, tmp_path / "out"))
    assert result.exit_code == 1
    assert last_line(result) == (
        f"Error: bad config file {config}: While reading from '{config}' [line  3]: "
        "option 'years' in section 'window' already exists"
    )


def test_bad_config_value_names_its_section_and_option(bundled_paths, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[window]\nyears = three\n", encoding="utf-8")
    result = invoke(["plan", "--config", str(config)] + base_args(bundled_paths, tmp_path / "out"))
    assert result.exit_code == 1
    assert last_line(result) == f"Error: bad config file {config}: [window] years = 'three'"


def test_config_file_provides_the_target_year(bundled_paths, tmp_path):
    config, bom = tmp_path / "run.ini", tmp_path / "bom.ini"
    config.write_text("[window]\ntarget_year = 2021\n", encoding="utf-8")
    bom.write_text("[window]\ntarget_year = 2021\n", encoding="utf-8-sig")  # as spreadsheet tools save
    outputs = {}
    for label, extra in (
        ("ini", ["--config", str(config)]),
        ("bom-ini", ["--config", str(bom)]),
        ("flag", ["--target-year", "2021"]),
        ("default", []),
    ):
        result = invoke(["plan", "--all"] + extra + base_args(bundled_paths, tmp_path / label))
        assert result.exit_code == 0, result.output
        outputs[label] = (tmp_path / label / "plan.csv").read_bytes()
    assert outputs["ini"] == outputs["bom-ini"] == outputs["flag"]
    assert outputs["ini"] != outputs["default"]


def test_backtest_holdout_year(bundled_paths, tmp_path):
    result = invoke(["backtest", "--holdout-year", "2021"] + base_args(bundled_paths, tmp_path / "a"))
    assert result.exit_code == 0, result.output
    digest = hashlib.sha256((tmp_path / "a" / "backtest.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[("backtest",)]["backtest.csv"]

    result = invoke(["backtest", "--holdout-year", "2020"] + base_args(bundled_paths, tmp_path / "b"))
    assert result.exit_code == 1
    assert last_line(result) == (
        "Error: DG-0002: backtesting 2020 needs at least 2 years strictly before it, got 1"
    )
    assert "Traceback" not in result.output
    assert not (tmp_path / "b").exists()


def test_failed_forecast_stage_creates_no_output_directory(bundled_paths, tmp_path):
    out = tmp_path / "out"
    result = invoke(["forecast", "--target-year", "2020"] + base_args(bundled_paths, out))
    assert result.exit_code == 1
    assert last_line(result) == "Error: DG-0002: need at least 2 full years to fit seasonal indices, got 1"
    assert not out.exists()


@pytest.mark.parametrize("text, problem", [
    ("[dimensioning]\nmultipler = 6\n", "unknown option [dimensioning] multipler"),
    ("[dimension]\nmultiplier = 6\n", "unknown section [dimension]"),
    ("[DEFAULT]\nyears = 3\n", "unknown section [DEFAULT]"),
    ("years = 3\n", "File contains no section headers. file: '{path}', line: 1 'years = 3\\n'"),
], ids=["option", "section", "default-section", "no-section-header"])
def test_config_file_problems_are_one_error_line(text, problem, bundled_paths, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(text, encoding="utf-8")
    result = invoke(["plan", "--all", "--config", str(config)] + base_args(bundled_paths, tmp_path / "out"))
    assert result.exit_code == 1
    assert result.output == f"Error: bad config file {config}: {problem.format(path=config)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message", [
    (["plan", "--multiplier", "inf"], "stock multiplier must be finite and > 0, got inf"),
    (["volume", "--pallet-l", "inf"], "pallet usable_length must be finite and > 0, got inf"),
    (["volume", "--pallet-h", "nan"], "pallet usable_height must be finite and > 0, got nan"),
    (["classify", "--w-ratio", "nan"], "criteria weight w_ratio must be finite and non-negative, got nan"),
], ids=["multiplier", "pallet-l", "pallet-h", "w-ratio"])
def test_non_finite_settings_are_rejected_by_name(args, message, bundled_paths, tmp_path):
    result = invoke(args + base_args(bundled_paths, tmp_path / "out"))
    assert result.exit_code == 1
    assert last_line(result) == f"Error: {message}"
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


TOO_LARGE = "DG-0002: stock multiplier 1e+308 makes the strategic stock too large for a float"


@pytest.mark.parametrize("command, multiplier, message", [
    ("plan", "1e308", TOO_LARGE),
    ("volume", "1e308", TOO_LARGE),
    ("report", "1e308", TOO_LARGE),
    ("report", "1e305", "stock multiplier 1e+305 makes total_qc_boxes too large for a float"),
], ids=["plan", "volume", "report", "report-summary"])
def test_a_result_too_large_for_a_float_is_one_error_line(command, multiplier, message, bundled_paths, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "plan.csv").write_text("previous\n", encoding="utf-8")
    result = invoke([command, "--multiplier", multiplier] + base_args(bundled_paths, out))
    assert result.exit_code == 1
    assert last_line(result) == f"Error: {message}"
    assert "Traceback" not in result.output
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {"plan.csv": b"previous\n"}


@pytest.mark.parametrize("args", [["classify"], ["forecast"], ["backtest"], ["plan", "--multiplier", "0.5"],
                                  ["volume"], ["report"]], ids=" ".join)
def test_a_quantity_too_large_for_a_float_is_named_by_its_line(args, tiny_inputs, tmp_path):
    write_csv(tiny_inputs["deliveries"], "product_id,date,quantity",
              [("P1", "2020-01", 10), ("P1", "2021-03", 10**400)])
    result = invoke([
        *args, "--all",
        "--deliveries", str(tiny_inputs["deliveries"]),
        "--catalog", str(tiny_inputs["catalog"]),
        "--stock", str(tiny_inputs["stock"]),
        "--start-year", "2020", "--years", "2",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1
    assert [line for line in result.output.splitlines() if line.startswith("Error:")] == [
        f"Error: {tiny_inputs['deliveries']}:3: quantity must be <= 9007199254740992, got '{10**400}'"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["volume", "report"])
def test_a_volume_too_large_for_a_float_is_one_error_line(command, tiny_inputs, tmp_path):
    # P1's 5e300 boxes fill 5e299 cartons of 1e9 m3 each: a finite stock, an infinite volume.
    write_csv(tiny_inputs["catalog"], ",".join(ingestion.CATALOG_HEADER), [
        ("P1", "Alpha", 2.5, 0, 10, 1000000, 1000000, 1000000), ("P2", "Beta", 4.0, 1, 6, 300, 300, 300),
    ])
    result = invoke([
        command, "--all",
        "--deliveries", str(tiny_inputs["deliveries"]),
        "--catalog", str(tiny_inputs["catalog"]),
        "--stock", str(tiny_inputs["stock"]),
        "--start-year", "2020", "--years", "2",
        "--pallet-l", "1e7", "--pallet-w", "1e7", "--pallet-h", "1e7", "--multiplier", "1e300",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1
    assert last_line(result) == "Error: P1: stock multiplier 1e+300 makes total_volume_m3 too large for a float"
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


# A subcommand and the `reporting` stages it must not run.
UNUSED_STAGES = [
    (["classify"], ("plan_columns", "volume_plans", "backtests")),
    (["classify"], ("forecast_columns", "gap_blocks")),
    (["forecast"], ("plan_columns", "volume_plans")),
    (["forecast"], ("gap_blocks", "backtests")),
    (["backtest"], ("plan_columns", "volume_plans")),
    (["backtest"], ("gap_blocks",)),
    (["plan"], ("volume_plans",)),
    (["plan", "--all"], ("rank_and_cut",)),
]


@pytest.mark.parametrize("args, unused", UNUSED_STAGES, ids=" ".join)
def test_single_artifact_subcommands_run_only_their_stages(args, unused, bundled_paths, tmp_path, monkeypatch):
    def must_not_run(*_args, **_kwargs):
        raise AssertionError(f"`{' '.join(args)}` ran a stage it does not need")

    for name in unused:
        monkeypatch.setattr(reporting, name, must_not_run)
    result = invoke(args + base_args(bundled_paths, tmp_path))
    assert result.exit_code == 0, result.exception


def test_every_stage_a_subcommand_must_not_run_is_run_by_report_or_backtest(bundled_paths, tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")  # one process, so that no call is hidden in a forked child
    calls = dict.fromkeys(sorted({name for _, unused in UNUSED_STAGES for name in unused}), 0)

    def counted(name, stage):
        def call(*args, **kwargs):
            calls[name] += 1
            return stage(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(reporting, name, counted(name, getattr(reporting, name)))
    for command in ("report", "backtest"):
        assert invoke([command, "--all"] + base_args(bundled_paths, tmp_path)).exit_code == 0
    assert [name for name, n in calls.items() if n == 0] == []


@pytest.mark.usefixtures("two_cpus")
def test_failure_in_the_writer_child_keeps_the_previous_outputs(bundled_paths, tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert invoke(["report"] + base_args(bundled_paths, out)).exit_code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    real_forecast, parent = reporting.forecast_columns, os.getpid()

    def forecast(*args, **kwargs):  # forecast.csv is rendered by the writer child
        if os.getpid() != parent:
            raise ValueError("forecast failed in the writer")
        return real_forecast(*args, **kwargs)

    monkeypatch.setattr(reporting, "forecast_columns", forecast)
    result = invoke(["report", "--multiplier", "6"] + base_args(bundled_paths, out))
    monkeypatch.undo()
    assert result.exit_code == 1
    assert result.output == "Error: forecast failed in the writer\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert_no_child_left()


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("command, render, previous", [
    ("plan", "plan_csv", None),
    ("report", "forecast_csv", None),  # rendered by the writer child
    ("report", "forecast_csv", "report"),
], ids=["plan-new-dirs", "report-child-new-dirs", "report-child-previous-files"])
def test_a_failed_write_removes_the_directories_it_made(command, render, previous, bundled_paths, tmp_path,
                                                         monkeypatch):
    out = tmp_path / "a" / "b"
    if previous:
        assert invoke([previous] + base_args(bundled_paths, out)).exit_code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()} if previous else None

    def failing(rows, fh):
        raise ValueError(f"{render} failed")

    monkeypatch.setattr(reporting, render, failing)
    result = invoke([command, "--multiplier", "6"] + base_args(bundled_paths, out))
    assert result.exit_code == 1
    assert last_line(result) == f"Error: {render} failed"
    if previous:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    else:
        assert not (tmp_path / "a").exists()
    assert_no_child_left()


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("child_render, child_file, reported", [
    ("forecast_csv", "forecast.csv", "forecast.csv failed"),
    ("_summary_json", "summary.json", "gap.csv failed"),
], ids=["child-file-first", "parent-file-first"])
def test_the_earliest_failed_file_is_reported(child_render, child_file, reported, bundled_paths, tmp_path,
                                             monkeypatch):
    def failing(name):  # gap.csv is rendered by this process, the others by the writer child
        def render(rows, fh):
            raise ValueError(f"{name} failed")
        return render

    monkeypatch.setattr(reporting, child_render, failing(child_file))
    monkeypatch.setattr(reporting, "gap_csv", failing("gap.csv"))
    result = invoke(["report", "--all"] + base_args(bundled_paths, tmp_path / "out"))
    assert result.exit_code == 1
    assert result.output == f"Error: {reported}\n"
    assert not (tmp_path / "out").exists()
    assert_no_child_left()


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("caller_froze", [False, True])
def test_a_forked_run_reaps_its_child_and_keeps_the_freeze_count(caller_froze, bundled_paths, tmp_path,
                                                                  monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    if caller_froze:
        gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        result = invoke(["report", "--all"] + base_args(bundled_paths, tmp_path))
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
    assert result.exit_code == 0, result.output
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("command", ["classify", "forecast", "backtest", "plan", "volume"])
def test_single_artifact_subcommands_never_fork(command, bundled_paths, tmp_path, monkeypatch):
    def fork():
        raise AssertionError(f"`{command}` forked")

    monkeypatch.setattr(os, "fork", fork)
    result = invoke([command, "--all"] + base_args(bundled_paths, tmp_path))
    assert result.exit_code == 0, result.output


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("platform", ["no-fork", "failing-fork", "one-cpu"])
def test_report_in_one_process_writes_the_pinned_bytes(platform, bundled_paths, tmp_path, monkeypatch):
    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    def must_not_fork():
        raise AssertionError("forked with one CPU to run on")

    if platform == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif platform == "failing-fork":
        monkeypatch.setattr(os, "fork", failing_fork)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", must_not_fork)
    frozen = gc.get_freeze_count()
    result = invoke(["report", "--all"] + base_args(bundled_paths, tmp_path))
    assert result.exit_code == 0, result.output
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert hashes == GOLDEN[("report", "--all")]
    assert gc.get_freeze_count() == frozen


def test_importing_the_cli_loads_no_click():
    code = "import stockdim.cli, sys; print('click' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(reporting.__file__).parents[1]))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert loaded.stdout == "False\n"


@pytest.mark.parametrize("args, named", [
    (["--bogus"], "--bogus"),
    (["--years", "x"], "'x'"),
    (["--deliv", "data/deliveries.csv"], "--deliv"),  # an option must be spelled in full
], ids=["unknown", "not-an-int", "abbreviated"])
def test_a_usage_error_prints_the_usage_and_one_error_line(args, named):
    env = dict(os.environ, PYTHONPATH=str(Path(reporting.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "stockdim.cli", "report", *args],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    usage, error = done.stderr.splitlines()
    assert usage == "usage: stockdim report [options]"
    assert error.startswith("Error: ") and named in error


def test_importing_the_cli_loads_no_pickle_process_pool_dataclasses_or_inspect_module():
    # Every CLI call starts a fresh interpreter, so each module imported at
    # start-up costs every call; the writer child imports pickle on failure only.
    code = ("import sys, stockdim.cli; print(*[m for m in ('pickle', 'multiprocessing', 'concurrent.futures', "
            "'dataclasses', 'inspect') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(reporting.__file__).parents[1]))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert loaded.stdout.strip() == ""


@pytest.mark.usefixtures("split_fold")
def test_a_fold_child_that_dies_fails_the_run_before_the_output_directory(bundled_paths, tmp_path, monkeypatch):
    real_fold_texts, parent = ingestion._fold_texts, os.getpid()

    def fold_texts(*args, **kwargs):  # the child folds the first half of the delivery file
        if os.getpid() != parent:
            os._exit(3)
        return real_fold_texts(*args, **kwargs)

    monkeypatch.setattr(ingestion, "_fold_texts", fold_texts)
    result = invoke(["report"] + base_args(bundled_paths, tmp_path / "out"))
    assert result.exit_code == 1
    assert result.output == "Error: the forked child process exited with status 3\n"
    assert not (tmp_path / "out").exists()
    assert_no_child_left()


@pytest.mark.usefixtures("split_fold")
def test_report_forks_to_fold_and_to_write(bundled_paths, tmp_path, monkeypatch):
    forks = count_forks(monkeypatch)
    result = invoke(["report"] + base_args(bundled_paths, tmp_path))
    assert result.exit_code == 0, result.output
    assert len(forks) == 2
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert hashes == GOLDEN[("report",)]
    assert_no_child_left()


def test_inputs_with_a_byte_order_mark_write_the_pinned_bytes(bundled_paths, tmp_path):
    marked = {}
    for name, path in bundled_paths.items():
        marked[name] = tmp_path / path.name
        marked[name].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    result = invoke(["report"] + base_args(marked, tmp_path / "out"))
    assert result.exit_code == 0, result.output
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "out").iterdir()}
    assert hashes == GOLDEN[("report",)]
