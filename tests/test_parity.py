"""Golden output hashes for the bundled dataset.

Every report byte is pinned: a change that alters any output must update
these hashes on purpose and say why. `report` writes five reports plus
summary.json; `backtest`, the sixth report, is pinned on its own. Each
single-artifact subcommand must write the same bytes as the matching file
of `report` with the same flags.
"""

import hashlib

import pytest

from conftest import invoke

GOLDEN = {
    ("report",): {
        "classification.csv": "ce8fb624e4d942d1ac6157fef4dd864db0f24cf61b6af95937384474f04d0552",
        "forecast.csv": "e0a439b65c2f982e722a5668d6d0b961e3ca58a3c306732069a1ea11333e2f24",
        "gap.csv": "969a21bc3a5459fa74092469c0c86275b78807695192ed56bd501cc7f212f993",
        "plan.csv": "c719dabaadf20180df75099e1e62a324fa7435b55a43c1ed1d4083a212b47a12",
        "summary.json": "3fac1995a228a9059b9c986a0778e76b95c99848798267d7f5e59a33c9ab5fe4",
        "volume.csv": "18517a79f2ad3b48d9ad854e5f2d278f21d993e4db4c99f244149c8b26304e89",
    },
    ("report", "--all"): {
        "classification.csv": "ce8fb624e4d942d1ac6157fef4dd864db0f24cf61b6af95937384474f04d0552",
        "forecast.csv": "14d8b2327aa2b2935d2f5cd1b2a24de1626c4edd1d12423be4082357f0d0aa86",
        "gap.csv": "f037278a98976faf95bf14c9fa50335911ddc7da6066eb9d105c523f8f068892",
        "plan.csv": "8451507f209a7ad53ca1247143e4e922a06646bb2eac52f99ddc421be050a8b7",
        "summary.json": "3c42158d2a0b819d99baf3ec0c77fedc8db4ca3d81e111c1b196b14e33a6988d",
        "volume.csv": "4192ec0b07eba03564ec8cc377e32189f3328fb622a8f587e701b740187805b0",
    },
    ("backtest",): {
        "backtest.csv": "d047f915ed06b6f4099ef0e07e6200ad14fb85f851fc16715bd3723e92282763",
    },
    ("backtest", "--all"): {
        "backtest.csv": "90f747ca7e498d3d8e29045c425f0e7952ead510b00f971a8d691740b0055881",
    },
}
for _flags in ((), ("--all",)):
    for _command, _name in (
        ("classify", "classification.csv"),
        ("forecast", "forecast.csv"),
        ("plan", "plan.csv"),
        ("volume", "volume.csv"),
    ):
        GOLDEN[(_command,) + _flags] = {_name: GOLDEN[("report",) + _flags][_name]}


@pytest.mark.parametrize("command", sorted(GOLDEN), ids=" ".join)
def test_bundled_outputs_match_golden_hashes(command, bundled_paths, tmp_path):
    args = list(command) + [
        "--deliveries", str(bundled_paths["deliveries"]),
        "--catalog", str(bundled_paths["catalog"]),
        "--stock", str(bundled_paths["stock"]),
        "--start-year", "2019",
        "--years", "3",
        "--out-dir", str(tmp_path),
    ]
    result = invoke(args)
    assert result.exit_code == 0, result.output
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(GOLDEN[command])
    hashes = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in written}
    assert hashes == GOLDEN[command]
