"""The shipped configs keep the statuses the benchmark gates on.

Each perfbench/reference/<workload>.json holds one shipped config, the
overrides of its benchmark workload, and the exit code and status of every
suite/check id that `gradlab check` produced per config seed.  Here the
call for config seed 1 runs in-process and must give every check id of
that map its status, so a status drift fails this suite before it fails a
benchmark run.  A check id the reference does not know (one added after the
capture) has no status to keep, but it must not fail: the benchmark's gate
only lists such ids, so this is the one place that gates them.  The
reference files are only read.

The shipped configs also hold to the config grammar: each report's config
section names exactly the config keys, and written back as config text it
parses to the config that ran.  `check` is the only suite verb and a rank
is a config override, so the retired spellings are usage errors.
"""

import json
from io import StringIO
from pathlib import Path

import pytest

from gradlab import cli, harness
from gradlab.config import VALID_KEYS, load_config, parse_config_text
from testlib import config_text

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = sorted((ROOT / "perfbench" / "reference").glob("*.json"))
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))


def report_statuses(out_dir):
    statuses = {}
    for path in sorted(out_dir.glob("*_report.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        for rec in report["checks"]:
            statuses[f"{report['suite']}/{rec['check_id']}"] = rec["status"]
    return statuses


def test_every_workload_has_a_reference():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [p.stem for p in REFERENCES] == sorted(w["name"] for w in bench["workloads"])


@pytest.mark.parametrize("path", REFERENCES, ids=[p.stem for p in REFERENCES])
def test_check_matches_reference_statuses(path, tmp_path):
    ref = json.loads(path.read_text(encoding="utf-8"))
    expected = ref["seeds"]["1"]
    argv = ["check", "--config", str(ROOT / ref["config"]), "--out", str(tmp_path)]
    for pair in [*ref["overrides"], "seed=1"]:
        argv += ["--override", pair]
    code = cli.main(argv, out=StringIO())
    for path in sorted(tmp_path.glob("*_report.json")):
        section = json.loads(path.read_text(encoding="utf-8"))["config"]
        assert sorted(section) == sorted(VALID_KEYS)
    # the statuses first, so that a failure names the check id
    statuses = report_statuses(tmp_path)
    assert {k: statuses.get(k) for k in expected["statuses"]} == expected["statuses"]
    unlisted_failing = [k for k, v in statuses.items()
                        if k not in expected["statuses"] and v == "fail"]
    assert unlisted_failing == []
    assert code == expected["exit"]


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_config_round_trips(path):
    cfg = load_config(path)
    text = config_text(harness._config_dict(cfg))
    assert parse_config_text(text, source="round-trip") == cfg


@pytest.mark.parametrize("argv", [
    ["kernel", "--config", "configs/flat3d.cfg"],
    ["converge", "--config", "configs/conf2d.cfg"],
    ["symbol", "--config", "configs/flat2d.cfg"],
    ["symbol", "--config", "configs/flat2d.cfg", "--rank", "1"],
], ids=["kernel", "converge", "symbol", "symbol-rank"])
def test_retired_spellings_are_usage_errors(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "out")], out=StringIO())
    assert exc.value.code == 2
    assert "usage: gradlab" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
