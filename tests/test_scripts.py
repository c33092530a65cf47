"""Smoke tests of the utilities under scripts/."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def write_results(directory, workload, seed, trace, metrics, env):
    record = {"workload": workload, "seed": seed, "trace": trace, "environment": env,
              "attempted": 3, "failed": 0, "status_drift": 0,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_bench_condenses_results(tmp_path, capsys):
    env = {"git_sha": "abc", "src_sha256": "def", "nproc": 2}
    for seed, wall in enumerate([1.0, 4.0, 2.0, 3.0, 5.0]):
        write_results(tmp_path, "check-a", seed, 0,
                      {"wall_s": (wall, "s"), "peak_rss_mb": (80.0 + seed, "MB")}, env)
    write_results(tmp_path, "check-a", 0, 1, {"spectral.eigh_calls": (20, "count")}, env)
    write_results(tmp_path, "check-b", 3, 0, {"wall_s": (0.5, "s")}, env)
    (tmp_path / "check-a-seed0-spans.npz").write_bytes(b"not a results file")
    out = tmp_path / "BENCH.json"
    assert load_script("bench").main(["--results", str(tmp_path), "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert (bench["git_sha"], bench["src_sha256"], bench["environment"]) == ("abc", "def", env)
    a = bench["workloads"]["check-a"]
    assert a["seeds"] == [0, 1, 2, 3, 4] and (a["attempted"], a["failed"]) == (18, 0)
    assert a["end_to_end"]["wall_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5, "unit": "s"}
    assert a["end_to_end"]["peak_rss_mb"]["median"] == 82.0
    assert a["per_layer"] == {"spectral.eigh_calls": {"median": 20, "q1": 20, "q3": 20,
                                                      "n": 1, "unit": "count"}}
    assert bench["workloads"]["check-b"]["end_to_end"]["wall_s"]["median"] == 0.5
    assert "check-a" in capsys.readouterr().out


def test_bench_refuses_mixed_source_trees(tmp_path, capsys):
    for seed, sha in enumerate(["abc", "abd"]):
        write_results(tmp_path, "check-a", seed, 0, {"wall_s": (1.0, "s")},
                      {"git_sha": "abc", "src_sha256": sha})
    out = tmp_path / "BENCH.json"
    assert load_script("bench").main(["--results", str(tmp_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "2 environments" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    assert load_script("bench").main(["--results", str(empty), "--out", str(out)]) == 2
