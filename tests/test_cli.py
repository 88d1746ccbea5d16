import json
import os
import subprocess
import sys

import pytest

from xcflow import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("argv", [
    ["--frame=1,2,3", "--rho=nan"],
    ["--frame=1,2,3", "--rho=inf"],
    ["--frame=1,2,3", "--rho=-inf"],
    ["--frame=1,2,3", "--direction-samples=-3"],
    ["--frame=1,2,3", "--direction-samples=0"],
    ["--p=nan,0,0,1,1,0"],
    ["--frame=1,2,3", "--xi=0,0,0"],
])
def test_symbol_bad_input_exits_3_before_printing(argv, capsys):
    assert cli.main(["symbol", *argv]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_symbol_nan_rho_process_has_no_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "xcflow", "symbol", "--frame=1,2,3", "--rho=nan"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, check=False)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_symbol_config_non_numeric_rho_is_usage_error(tmp_path, capsys):
    config = tmp_path / "sym.cfg"
    config.write_text("symbol.frame = 1,2,3\nsymbol.rho = abc\n", encoding="utf-8")
    assert cli.main(["symbol", "--config", str(config)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err


def test_symbol_json_reports_spectral_margin(tmp_path, capsys):
    path = tmp_path / "sym.json"
    assert cli.main(["symbol", "--frame=1,2,3", "--rho=0.1", "--output", str(path)]) == 0
    out, _ = capsys.readouterr()
    block = json.loads(path.read_text(encoding="utf-8"))["parabolicity"]
    # positive case, all_directions, rho >= 0: the two margins coincide
    assert block["spectral_margin"] == block["margin"] == pytest.approx(0.15)
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "xi", "raw", "deturck", "threshold", "margin", "verdict"]
