"""Paths, child-process launching and reference maps shared by the scripts."""

import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import CONFIG_SEEDS, WORKLOADS, config_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
RESULTS_DIR = HERE / "results"
WORK_DIR = HERE / "work"
# a run must end within 180 s; no child may outlive the run's own deadline
RUN_LIMIT_S = 165


class BenchError(RuntimeError):
    pass


# BLAS/OpenMP threads in every child.  One thread makes the work of a call
# the same on any host and keeps a busy neighbour core from stalling a
# second BLAS thread, which on a 2-core machine tripled call times.
BLAS_THREADS = 1


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("GRADLAB_OUT", None)
    return env


def run_child(args, timeout):
    """Run perfbench/child.py in a fresh interpreter; returns (returncode, result).

    subprocess.run kills and reaps the child if it outlives `timeout`."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=timeout,
    )
    result = None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    elif proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    return proc.returncode, result


def git_sha():
    """Commit of the checkout, or None where it is not a git repository."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def require_checkout(workload):
    """Fail early when the program or the workload's config is not here."""
    missing = [p for p in ("src/gradlab/cli.py", WORKLOADS[workload]["config"])
               if not (ROOT / p).is_file()]
    if missing:
        raise BenchError(f"not a gradlab checkout (missing {', '.join(missing)}) "
                         f"under {ROOT}")


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload, seed):
    """Reference exit code and status map for the config seed `seed` maps to."""
    path = reference_path(workload)
    try:
        ref = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise BenchError(f"cannot read reference {path}: {exc}") from exc
    entry = ref["seeds"].get(str(config_seed(seed)))
    if entry is None:
        raise BenchError(f"{path} has no entry for config seed {config_seed(seed)}; "
                         f"captured seeds must be {list(CONFIG_SEEDS)}")
    return entry


def status_drift(reference, statuses):
    """Check ids whose status differs from the reference or that are missing
    (counted), and ids the reference does not know (listed only)."""
    drifted = sorted(k for k, v in reference.items() if statuses.get(k) != v)
    added = sorted(k for k in statuses if k not in reference)
    return drifted, added
