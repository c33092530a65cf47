"""Smoke tests of the utilities under scripts/."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_symbols_writes_scans(tmp_path, capsys):
    assert load_script("scan_symbols").main(["--out", str(tmp_path), "--directions", "4"]) == 0
    for n in (2, 3, 4):
        for p in (1, 2):
            rows = (tmp_path / f"symbol_n{n}_p{p}.csv").read_text().splitlines()
            assert len(rows) == 1 + 4
    for p in (1, 2):
        rows = (tmp_path / f"spectrum_n2_p{p}.csv").read_text().splitlines()
        assert rows[0] == "index,eigenvalue" and len(rows) == 1 + 40
    # the constants, one per trace-free fiber axis, are the flat kernel
    assert capsys.readouterr().out.count("kernel 2 (2)") == 2


@pytest.mark.parametrize("codes,worst", [((2, 3), 2), ((3, 2), 2), ((0, 1, 3), 1)])
def test_run_all_reports_the_most_severe_exit(codes, worst, tmp_path, monkeypatch):
    run_all = load_script("run_all")
    for i in range(len(codes)):
        (tmp_path / f"c{i}.cfg").touch()
    pending = list(codes)
    monkeypatch.setattr(run_all, "CONFIG_DIR", tmp_path)
    monkeypatch.setattr(run_all.cli, "main", lambda argv: pending.pop(0))
    assert run_all.main(["--out", str(tmp_path / "reports")]) == worst
    assert pending == []
