"""Command-line tests: the dimension table, config loading and overrides,
report emission, exit-code policy (0 pass / 1 fail / 2 usage / 3
indeterminate), and the byte-identical JSON guarantee through the CLI path."""

import json
from io import StringIO

import pytest

from gradlab import cli
from gradlab.cli import EXIT_FAIL, EXIT_INDETERMINATE, EXIT_PASS, EXIT_USAGE


def run_cli(argv):
    buf = StringIO()
    code = cli.main(argv, out=buf)
    return code, buf.getvalue()


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "metric.preset = flat\n"
        "grid.dimension = 2\n"
        "grid.sizes = 8, 12\n"
        "ranks = 1\n"
        "seed = 3\n"
        "suites = identity\n"
        "fields.count = 2\n"
    )
    return path


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------

def test_info_table_values():
    code, text = run_cli(["info", "--n", "4", "--p", "2"])
    assert code == EXIT_PASS
    lines = text.strip().splitlines()
    assert lines[-1].split() == ["2", "10", "9", "84"]


def test_info_low_dimension_footnote():
    code, text = run_cli(["info", "--n", "2", "--p", "1"])
    assert code == EXIT_PASS
    assert "6" in text.splitlines()[-2]
    assert "extrapolated" in text


def test_info_rejects_out_of_range(capsys):
    assert run_cli(["info", "--n", "1", "--p", "2"])[0] == EXIT_USAGE
    assert run_cli(["info", "--n", "3", "--p", "7"])[0] == EXIT_USAGE
    assert "must be in" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_passes_and_writes_reports(tiny_cfg, tmp_path):
    out_dir = tmp_path / "reports"
    code, text = run_cli(["check", "--config", str(tiny_cfg),
                          "--out", str(out_dir)])
    assert code == EXIT_PASS
    assert "[identity] pass" in text
    for ext in ("json", "csv", "md"):
        assert (out_dir / f"identity_report.{ext}").exists()
    parsed = json.loads((out_dir / "identity_report.json").read_text())
    assert parsed["status"] == "pass"
    assert parsed["config"]["seed"] == 3


def test_check_json_byte_identical_between_runs(tiny_cfg, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    blobs = []
    for d in dirs:
        code, _ = run_cli(["check", "--config", str(tiny_cfg), "--out", str(d)])
        assert code == EXIT_PASS
        blobs.append((d / "identity_report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_check_override_merging(tiny_cfg, tmp_path):
    code, _ = run_cli([
        "check", "--config", str(tiny_cfg), "--out", str(tmp_path / "o"),
        "--override", "seed=11",
    ])
    assert code == EXIT_PASS
    parsed = json.loads((tmp_path / "o" / "identity_report.json").read_text())
    assert parsed["config"]["seed"] == 11


def test_check_failure_exit_code(tiny_cfg, tmp_path):
    # an unreachable tolerance turns real residuals into failures
    code, text = run_cli([
        "check", "--config", str(tiny_cfg), "--out", str(tmp_path / "f"),
        "--override", "tolerances.orthogonality=1e-30",
    ])
    assert code == EXIT_FAIL
    assert "fail" in text


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_check_non_finite_values_fail_in_a_strict_report(tiny_cfg, tmp_path):
    # g = e^{120} stays finite, but second-order residuals overflow to inf/nan
    out_dir = tmp_path / "nf"
    code, _ = run_cli([
        "check", "--config", str(tiny_cfg), "--out", str(out_dir),
        "--override", "metric.preset=conformal",
        "--override", "metric.conformal=60*cos(x1)",
    ])
    assert code == EXIT_FAIL

    def refuse(name):
        raise ValueError(f"non-finite number {name} in the report")

    text = (out_dir / "identity_report.json").read_text()
    checks = json.loads(text, parse_constant=refuse)["checks"]
    flagged = [r for r in checks if "non-finite" in r["detail"]]
    assert flagged
    assert all(r["status"] == "fail" and r["value"] is None for r in flagged)


def test_check_missing_config(tmp_path, capsys):
    code, _ = run_cli(["check", "--config", str(tmp_path / "absent.cfg")])
    assert code == EXIT_USAGE
    assert "absent.cfg" in capsys.readouterr().err


def test_check_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("metric.preset = flat\nbogus.key = 1\n")
    code, _ = run_cli(["check", "--config", str(path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err
    assert "valid keys" in err


def test_check_bad_override(tiny_cfg, capsys):
    code, _ = run_cli(["check", "--config", str(tiny_cfg),
                       "--override", "ranks=[1,1]"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("exponent,message", [
    ("0.1*cos(x3)", "uses x3 on an n=2 grid"),
    ("400*cos(x1)", "non-finite g"),  # e^{2f} overflows at x1 = 0
])
def test_check_bad_metric_is_a_usage_error(tiny_cfg, tmp_path, capsys, exponent, message):
    code, _ = run_cli([
        "check", "--config", str(tiny_cfg), "--out", str(tmp_path / "m"),
        "--override", "metric.preset=conformal",
        "--override", f"metric.conformal={exponent}",
    ])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]


# ---------------------------------------------------------------------------
# kernel / converge / symbol
# ---------------------------------------------------------------------------

def test_kernel_reports_constant_count(tiny_cfg, tmp_path):
    code, text = run_cli([
        "kernel", "--config", str(tiny_cfg), "--out", str(tmp_path / "k"),
    ])
    assert code == EXIT_PASS
    parsed = json.loads((tmp_path / "k" / "kernel_report.json").read_text())
    counts = {c["check_id"]: c["value"] for c in parsed["checks"]}
    assert counts["kernel.ck_count.p1"] == 2.0


def test_kernel_rank_override_list_syntax(tiny_cfg, tmp_path):
    code, _ = run_cli([
        "kernel", "--config", str(tiny_cfg), "--out", str(tmp_path / "k2"),
        "--override", "ranks=[1,2]",
    ])
    assert code == EXIT_PASS
    parsed = json.loads((tmp_path / "k2" / "kernel_report.json").read_text())
    counts = {c["check_id"]: c["value"] for c in parsed["checks"]}
    assert counts["kernel.ck_count.p1"] == 2.0
    assert counts["kernel.ck_count.p2"] == 2.0


def test_converge_needs_three_sizes(tiny_cfg, capsys):
    code, _ = run_cli(["converge", "--config", str(tiny_cfg)])
    assert code == EXIT_USAGE
    assert "3" in capsys.readouterr().err


def test_converge_runs_with_three_sizes(tiny_cfg, tmp_path):
    code, _ = run_cli([
        "converge", "--config", str(tiny_cfg), "--out", str(tmp_path / "c"),
        "--override", "grid.sizes=[8,12,16]",
    ])
    assert code == EXIT_PASS
    assert (tmp_path / "c" / "convergence_report.json").exists()


def test_symbol_writes_scan(tiny_cfg, tmp_path):
    code, text = run_cli([
        "symbol", "--config", str(tiny_cfg), "--out", str(tmp_path / "s"),
        "--operator", "d1_star_d1", "--rank", "1", "--directions", "16",
    ])
    assert code == EXIT_PASS
    assert (tmp_path / "s" / "symbol_d1_star_d1_p1.csv").exists()
    assert "min singular value" in text


def test_symbol_unknown_operator(tiny_cfg, capsys):
    code, _ = run_cli(["symbol", "--config", str(tiny_cfg),
                       "--operator", "mystery"])
    assert code == EXIT_USAGE
    assert "mystery" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit-code mapping
# ---------------------------------------------------------------------------

def test_exit_code_mapping():
    from gradlab.config import ExperimentConfig
    from gradlab.harness import CheckRecord, SuiteReport

    def rep(*statuses):
        records = [CheckRecord(f"c{i}", "plumbing", 0.0, None, s)
                   for i, s in enumerate(statuses)]
        return SuiteReport("identity", ExperimentConfig(), records, {})

    assert cli._exit_code([rep("pass", "measured")]) == EXIT_PASS
    assert cli._exit_code([rep("pass"), rep("indeterminate")]) == EXIT_INDETERMINATE
    assert cli._exit_code([rep("indeterminate"), rep("fail")]) == EXIT_FAIL
