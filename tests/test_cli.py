"""Command-line tests: the dimension table, config loading and overrides,
report emission, exit-code policy (0 pass / 1 fail / 2 usage / 3
indeterminate), and the byte-identical JSON guarantee through the CLI path."""

import json
import os
import platform
import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest

from gradlab import cli, harness
from gradlab.cli import EXIT_FAIL, EXIT_INDETERMINATE, EXIT_PASS, EXIT_USAGE
from gradlab.config import apply_overrides, load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_cli(argv):
    buf = StringIO()
    code = cli.main(argv, out=buf)
    return code, buf.getvalue()


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(
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


# shipped configs whose reports must not depend on the BLAS thread count:
# the flat 3-torus identity suite (flat L2 pairings), the conformal
# 2-torus identity and convergence suites, the flat 2-torus kernel suite
THREAD_CASES = {"flat3d": [], "conf2d": ["suites=identity,convergence"],
                "flat2d": ["suites=kernel", "ranks=2"]}


@pytest.mark.parametrize("name", THREAD_CASES)
def test_check_reports_byte_identical_across_blas_threads(name, tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = tmp_path / threads
        argv = [sys.executable, "-m", "gradlab.cli", "check", "--config",
                str(CONFIGS / f"{name}.cfg"), "--out", str(out)]
        for pair in THREAD_CASES[name]:
            argv += ["--override", pair]
        subprocess.run(argv, env=env, capture_output=True, check=True, timeout=600)
        reports.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert reports[0] == reports[1]


def test_check_override_merging(tiny_cfg, tmp_path):
    code, _ = run_cli([
        "check", "--config", str(tiny_cfg), "--out", str(tmp_path / "o"),
        "--override", "seed=11",
    ])
    assert code == EXIT_PASS
    parsed = json.loads((tmp_path / "o" / "identity_report.json").read_text())
    assert parsed["config"]["seed"] == 11


def test_check_failure_exit_code(tiny_cfg, tmp_path):
    # f dips to -60: the residuals stay finite and exceed their tolerances
    code, text = run_cli([
        "check", "--config", str(tiny_cfg), "--out", str(tmp_path / "f"),
        "--override", "metric.conformal=60*cos(x1)",
    ])
    assert code == EXIT_FAIL
    assert "fail" in text


def _strict_failing_checks(tiny_cfg, out_dir, *overrides):
    """Run `check`, expect exit 1 and no aborted suite; parse the JSON strictly."""
    code, _ = run_cli([
        "check", "--config", str(tiny_cfg), "--out", str(out_dir),
    ] + [arg for o in overrides for arg in ("--override", o)])
    assert code == EXIT_FAIL

    def refuse(name):
        raise ValueError(f"non-finite number {name} in the report")

    text = (out_dir / "identity_report.json").read_text()
    checks = json.loads(text, parse_constant=refuse)["checks"]
    assert not [r for r in checks if r["detail"].startswith("aborted")]
    return checks


def _assert_non_finite_flagged(checks):
    flagged = [r for r in checks if "non-finite" in r["detail"]]
    assert flagged
    assert all(r["status"] == "fail" and r["value"] is None for r in flagged)


def test_check_deep_negative_exponent_runs_through(tiny_cfg, tmp_path):
    # f dips to -60: d1's trace guard must not read the roundoff of the
    # metric trace, amplified by e^{120}, as a convention error.  With the
    # exact geometry the residuals stay finite, and they fail.
    checks = _strict_failing_checks(tiny_cfg, tmp_path / "nf",
                                    "metric.conformal=60*cos(x1)")
    assert any(r["status"] == "fail" for r in checks)
    assert not [r for r in checks if "non-finite" in r["detail"]]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_check_non_finite_values_fail_in_a_strict_report(tiny_cfg, tmp_path):
    # g = e^{400} stays finite, but second-order residuals overflow to inf/nan
    checks = _strict_failing_checks(tiny_cfg, tmp_path / "nf",
                                    "metric.conformal=200*cos(x1)")
    _assert_non_finite_flagged(checks)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_check_underflowing_weight_fails_in_a_strict_report(tiny_cfg, tmp_path):
    # g = e^{400} stays finite, but the rank-2 covariant weight e^{-4f}
    # underflows to 0, and second-order residuals turn to inf/nan
    checks = _strict_failing_checks(tiny_cfg, tmp_path / "nf",
                                    "metric.conformal=200", "ranks=2")
    _assert_non_finite_flagged(checks)


def test_check_missing_config(tmp_path, capsys):
    code, _ = run_cli(["check", "--config", str(tmp_path / "absent.cfg")])
    assert code == EXIT_USAGE
    assert "absent.cfg" in capsys.readouterr().err


def test_check_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("seed = 1\nbogus.key = 1\n")
    code, _ = run_cli(["check", "--config", str(path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err
    assert "valid keys" in err


@pytest.mark.parametrize("where,key,value", [
    pytest.param("config", "method", "spectral", id="config"),
    pytest.param("override", "method", "spectral", id="override"),
    pytest.param("config", "tolerances.two_route", "1e-6", id="tolerance-config"),
    pytest.param("override", "tolerances.plateau", "1e-7", id="tolerance-override"),
])
def test_check_method_key_is_refused(tiny_cfg, tmp_path, capsys, where, key, value):
    # fields have one discretization and the program owns its tolerances:
    # `method` and `tolerances.<name>` are unknown keys, in a config file or
    # on the command line, refused before any suite runs
    argv = ["check", "--config", str(tiny_cfg), "--out", str(tmp_path / "m")]
    if where == "config":
        tiny_cfg.write_text(tiny_cfg.read_text() + f"{key} = {value}\n")
    else:
        argv += ["--override", f"{key}={value}"]
    code, text = run_cli(argv)
    assert code == EXIT_USAGE and text == ""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"unknown key {key!r}" in err[0]
    assert not (tmp_path / "m").exists()


def test_check_bad_override(tiny_cfg, capsys):
    code, _ = run_cli(["check", "--config", str(tiny_cfg),
                       "--override", "ranks=[1,1]"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("exponent,message", [
    ("0.1*cos(x3)", "uses x3 on an n=2 grid"),
    ("400*cos(x1)", "non-finite g"),  # e^{2f} overflows at x1 = 0
    ("cos(", "bad metric.conformal"),  # refused at load, before any grid
])
def test_check_bad_metric_is_a_usage_error(tiny_cfg, tmp_path, capsys, exponent, message):
    code, _ = run_cli([
        "check", "--config", str(tiny_cfg), "--out", str(tmp_path / "m"),
        "--override", f"metric.conformal={exponent}",
    ])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]


def test_check_short_convergence_is_refused_at_load(tmp_path, capsys):
    # two grid sizes cannot give a convergence study: refused before any
    # suite runs, so no report directory appears
    out_dir = tmp_path / "short"
    code, text = run_cli([
        "check", "--config", str(CONFIGS / "flat2d.cfg"), "--out", str(out_dir),
        "--override", "suites=identity,convergence",
    ])
    assert code == EXIT_USAGE
    assert text == ""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "needs >= 3 grid sizes" in err[0]
    assert not out_dir.exists()


FLAT_ONLY = ("weitzenbock.flat_zero.p1", "kernel.ck_mode_oracle.p1",
             "kernel.killing_mode_oracle.p1", "kernel.codazzi_mode_oracle.p1",
             "kernel.parallel_fields.p1")


@pytest.mark.parametrize("exponent,flat", [("0", True), ("0.0*cos(x2)", True),
                                           ("0.1*cos(x1)", False)])
def test_the_exponent_alone_says_flat(exponent, flat, tiny_cfg, tmp_path):
    # the metric is its exponent: a zero one runs the flat-only checks, a
    # nonzero one none of them (24/32 grids resolve the conformal identities)
    overrides = [f"metric.conformal={exponent}", "suites=identity,kernel",
                 "grid.sizes=24,32"]
    cfg = apply_overrides(load_config(tiny_cfg), overrides)
    assert harness.build_cache(cfg, 16).is_flat is flat
    out_dir = tmp_path / "metric"
    argv = ["check", "--config", str(tiny_cfg), "--out", str(out_dir)]
    for pair in overrides:
        argv += ["--override", pair]
    assert run_cli(argv)[0] == EXIT_PASS
    ids = set()
    for suite in ("identity", "kernel"):
        report = json.loads((out_dir / f"{suite}_report.json").read_text())
        assert report["config"]["metric.conformal"] == exponent
        ids |= {c["check_id"] for c in report["checks"]}
    assert {i: i in ids for i in FLAT_ONLY} == dict.fromkeys(FLAT_ONLY, flat)


# ---------------------------------------------------------------------------
# single suites through check
# ---------------------------------------------------------------------------

def test_kernel_reports_constant_count(tiny_cfg, tmp_path):
    code, text = run_cli([
        "check", "--config", str(tiny_cfg), "--out", str(tmp_path / "k"),
        "--override", "suites=kernel",
    ])
    assert code == EXIT_PASS
    parsed = json.loads((tmp_path / "k" / "kernel_report.json").read_text())
    counts = {c["check_id"]: c["value"] for c in parsed["checks"]}
    assert counts["kernel.ck_count.p1"] == 2.0


def test_kernel_rank_override_list_syntax(tiny_cfg, tmp_path):
    code, _ = run_cli([
        "check", "--config", str(tiny_cfg), "--out", str(tmp_path / "k2"),
        "--override", "suites=kernel", "--override", "ranks=[1,2]",
    ])
    assert code == EXIT_PASS
    parsed = json.loads((tmp_path / "k2" / "kernel_report.json").read_text())
    counts = {c["check_id"]: c["value"] for c in parsed["checks"]}
    assert counts["kernel.ck_count.p1"] == 2.0
    assert counts["kernel.ck_count.p2"] == 2.0


def test_converge_needs_three_sizes(tiny_cfg, capsys):
    code, _ = run_cli(["check", "--config", str(tiny_cfg),
                       "--override", "suites=convergence"])
    assert code == EXIT_USAGE
    assert "3" in capsys.readouterr().err


def test_converge_runs_with_three_sizes(tiny_cfg, tmp_path):
    code, _ = run_cli([
        "check", "--config", str(tiny_cfg), "--out", str(tmp_path / "c"),
        "--override", "suites=convergence", "--override", "grid.sizes=[8,12,16]",
    ])
    assert code == EXIT_PASS
    assert (tmp_path / "c" / "convergence_report.json").exists()


@pytest.mark.parametrize("rank", [0, 7])
def test_rank_out_of_range_is_a_usage_error(rank, tiny_cfg, tmp_path, capsys):
    # the rank is a config rank: one line naming the override, exit 2, no report
    code, _ = run_cli(["check", "--config", str(tiny_cfg), "--out", str(tmp_path / "s"),
                       "--override", f"ranks={rank}"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [
        f"gradlab check: <override>: ranks must be in [1, 6]: ({rank},)"]
    assert not (tmp_path / "s").exists()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: the program never imports it
    code = "import sys, gradlab.cli; print('scipy' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


_HEAP_PROBE = """
import io, resource
import numpy as np
from gradlab import cli
cli.main(["info", "--n", "2", "--p", "1"], out=io.StringIO())
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(64):
    a, b, c = np.ones(1 << 17), np.ones(1 << 17), np.ones(1 << 18)
    del a, b, c
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="the heap policy pins glibc's allocator")
def test_heap_policy_reuses_freed_temporaries():
    # 64 rounds of two 1 MiB and one 2 MiB arrays touch 65,536 fresh pages
    # when every free unmaps or trims (about 63,500 faults without the
    # policy); with it the pages of the first round are reused
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", _HEAP_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert int(out.stdout.strip().splitlines()[-1]) < 5000


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
