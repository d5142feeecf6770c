import builtins
import csv
import hashlib
import io

import pytest
from click.testing import CliRunner

from conftest import write_csv
from stockdim import reporting
from stockdim.cli import main
from test_parity import GOLDEN


def invoke(args):
    return CliRunner().invoke(main, args)


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


def test_quoted_product_id_reads_back_from_every_report(tmp_path):
    ids = ("DG,9", "DG-1")

    def write(name, header, rows):
        with open(tmp_path / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
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
    ), [("DG,9", "Comma, quoted", 2.5, 1, 10, 400, 300, 200), ("DG-1", "Plain", 4.0, 0, 6, 300, 300, 300)])
    stock = write("stock.csv", ("product_id", "on_hand"), [(pid, 5) for pid in ids])
    out = tmp_path / "out"
    args = ["--deliveries", deliveries, "--catalog", catalog, "--stock", stock,
            "--start-year", "2019", "--years", "3", "--out-dir", str(out), "--all"]
    for command in ("report", "backtest"):
        result = invoke([command, *args])
        assert result.exit_code == 0, result.output
    for name in ("classification.csv", "forecast.csv", "backtest.csv", "plan.csv", "volume.csv", "gap.csv"):
        assert {row["product_id"] for row in read_rows(out / name)} == set(ids), name
    assert '"DG,9",' in (out / "gap.csv").read_text(encoding="utf-8")


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

    real_gap_csv, real_forecast = reporting.gap_csv, reporting.forecast
    writing_gaps = []

    def gap_csv(gaps, fh):
        writing_gaps.append(fh.name)
        real_gap_csv(gaps, fh)

    def forecast(*args):
        if writing_gaps:
            raise ValueError("forecast failed mid-stream")
        return real_forecast(*args)

    monkeypatch.setattr(reporting, "gap_csv", gap_csv)
    monkeypatch.setattr(reporting, "forecast", forecast)
    result = invoke(["report", "--multiplier", "6"] + base_args(bundled_paths, out))
    monkeypatch.undo()
    assert result.exit_code == 1
    assert result.output == "Error: forecast failed mid-stream\n"
    assert len(writing_gaps) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def last_line(result):
    return result.output.splitlines()[-1]


def test_unreadable_config_file_fails_cleanly(bundled_paths, tmp_path):
    missing = tmp_path / "missing.ini"
    result = invoke(["plan", "--config", str(missing)] + base_args(bundled_paths, tmp_path / "out"))
    assert result.exit_code == 1
    assert last_line(result) == (
        f"Error: cannot read config file {missing}: "
        f"[Errno 2] No such file or directory: '{missing}'"
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
    config = tmp_path / "run.ini"
    config.write_text("[window]\ntarget_year = 2021\n", encoding="utf-8")
    outputs = {}
    for label, extra in (
        ("ini", ["--config", str(config)]),
        ("flag", ["--target-year", "2021"]),
        ("default", []),
    ):
        result = invoke(["plan", "--all"] + extra + base_args(bundled_paths, tmp_path / label))
        assert result.exit_code == 0, result.output
        outputs[label] = (tmp_path / label / "plan.csv").read_bytes()
    assert outputs["ini"] == outputs["flag"]
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


@pytest.mark.parametrize("args, unused", [
    (["classify"], ("monthly_need", "plan_products", "build_gaps", "backtest")),
    (["forecast"], ("plan_products", "build_gaps")),
    (["backtest"], ("plan_products", "build_gaps")),
    (["plan"], ("volumetric_plan",)),
    (["plan", "--all"], ("rank_and_cut",)),
], ids=" ".join)
def test_single_artifact_subcommands_run_only_their_stages(args, unused, bundled_paths, tmp_path, monkeypatch):
    def must_not_run(*_args, **_kwargs):
        raise AssertionError(f"`{' '.join(args)}` ran a stage it does not need")

    for name in unused:
        monkeypatch.setattr(reporting, name, must_not_run)
    result = invoke(args + base_args(bundled_paths, tmp_path))
    assert result.exit_code == 0, result.exception
