"""gradlab benchmark: shipped configs through ``gradlab check``, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE [NEW]

Run from the root of a checkout; the program is taken from its src/.

A run first starts fresh interpreters that import gradlab and load the
workload's config (set-up probes), then makes the workload's ``gradlab
check`` call in a fresh process, again and again while another call still
fits in S seconds (at least once).  Every call is gated: it must exit 0
like the captured reference, its check statuses must match the reference
map for its seed, and its reports must be byte-identical to the first
call's.  With ``--trace 1`` one more call runs under the tracer; its
reports must be byte-identical too, and its spans give the per-layer split.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The raw samples
and an environment record go to perfbench/results/.  ``--compare`` prints
per-metric median ratios of NEW (a results file or directory, default
perfbench/results) against BASE.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (BLAS_THREADS, RESULTS_DIR, ROOT, RUN_LIMIT_S, WORK_DIR, BenchError,
                    git_sha, load_reference, require_checkout, run_child, status_drift)
from workloads import WORKLOADS, check_argv, config_seed

SETUP_WARMUP = 1
SETUP_PROBES = 8

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gradlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
    }


def _report_bytes(out_dir):
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class Run:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.reference = load_reference(workload, seed)
        self.calls = []
        self.first_reports = None
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def time_left(self):
        return self.deadline - time.perf_counter()

    def setup_probe(self):
        try:
            code, result = run_child(["setup", "--workload", self.workload,
                                      "--seed", str(self.seed)], timeout=self.time_left())
        except subprocess.TimeoutExpired:
            code, result = "timeout", None
        if code != 0 or result is None:
            raise BenchError(f"set-up probe exited {code}")
        return result["setup_s"]

    def check_call(self, traced=False):
        """One gated ``gradlab check`` call; returns its record."""
        out = WORK_DIR / f"{self.workload}-{len(self.calls)}"
        shutil.rmtree(out, ignore_errors=True)
        args = ["check", "--workload", self.workload, "--seed", str(self.seed),
                "--out", str(out)]
        if traced:
            args += ["--spans", str(RESULTS_DIR / f"{self.workload}-seed{self.seed}-spans.npz")]
        t0 = time.perf_counter()
        try:
            code, result = run_child(args, timeout=self.time_left())
        except subprocess.TimeoutExpired:
            code, result = "timeout", None
        call = {"traced": traced, "process_s": time.perf_counter() - t0, "ok": False}
        if code != 0 or result is None:
            call["error"] = f"child exited {code}"
        else:
            drifted, added = status_drift(self.reference["statuses"], result["statuses"])
            reports = _report_bytes(out)
            if self.first_reports is None:
                self.first_reports = reports
            identical = reports == self.first_reports
            call.update(
                exit=result["exit"], wall_s=result["wall_s"], cpu_s=result["cpu_s"],
                peak_rss_mb=result["peak_rss_mb"], drifted=drifted, added=added,
                reports_identical=identical,
                ok=(result["exit"] == 0 == self.reference["exit"]
                    and not drifted and identical
                    and not result.get("wrappers_left")),
            )
            if traced:
                call["layers"] = result["layers"]
                call["wrappers_left"] = result["wrappers_left"]
        shutil.rmtree(out, ignore_errors=True)
        self.calls.append(call)
        return call


def measure(args):
    require_checkout(args.workload)
    run = Run(args.workload, args.seed)
    RESULTS_DIR.mkdir(exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)
    env = _environment()

    # half the set-up probes run before the calls and half after, so their
    # median spans the run rather than one moment of the host's load
    for _ in range(SETUP_WARMUP):
        run.setup_probe()
    setup = [run.setup_probe() for _ in range(SETUP_PROBES // 2)]

    start = time.perf_counter()
    while True:
        run.check_call()
        elapsed = time.perf_counter() - start
        per_call = statistics.median(c["process_s"] for c in run.calls)
        if elapsed + per_call > args.seconds or 2 * per_call > run.time_left():
            break
    setup += [run.setup_probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    untraced = [c for c in run.calls if not c["traced"]]
    walls = [c["wall_s"] for c in untraced if "wall_s" in c]
    rss = [c["peak_rss_mb"] for c in untraced if "peak_rss_mb" in c]
    traced = run.check_call(traced=True) if args.trace else None

    attempted = len(run.calls)
    failed = sum(not c["ok"] for c in run.calls)
    drift = sum(len(c.get("drifted", ())) for c in run.calls)
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    summary = {}
    for name, values in samples.items():
        if values:
            q1, q3 = _quartiles(values)
            summary[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                             "n": len(values), "unit": E2E_UNITS[name]}
    if args.trace:
        layers = dict(traced.get("layers", {}))
        if "wall_s" in traced and walls:
            layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
        layers["fail_ratio"] = failed / attempted
        layers["status_drift"] = drift
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {k: {"value": s["median"], "unit": s["unit"]} for k, s in summary.items()}
    correct = failed == 0 and len(metrics) > 0 and (not args.trace or "wall_s" in traced)

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": config_seed(args.seed),
        "argv": check_argv(args.workload, args.seed, "<out>"),
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "samples": samples,
        "summary": summary,
        "calls": run.calls,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "status_drift": drift,
        "metrics": metrics,
    }
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for name, s in summary.items():
        print(f"{name:12s} median {s['median']:.4f} {s['unit']} "
              f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
    for c in run.calls:
        if not c["ok"]:
            print(f"FAILED call: {json.dumps({k: v for k, v in c.items() if k != 'layers'})}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {failed}/{attempted}, status_drift {drift}; "
          f"raw samples in {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("dof_max") or name.endswith("dof3_sum"):
        return "dof"
    return "count"


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------

def _load_results(path):
    path = Path(path)
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    out = []
    for f in files:
        try:
            out.append(json.loads(f.read_text(encoding="utf-8")))
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read results file {f}: {exc}") from exc
    if not out:
        raise BenchError(f"no results files under {path}")
    return out


def _by_metric(results):
    """(workload, metric) -> {seed: value} over the runs given."""
    table = {}
    for r in results:
        for name, m in r["metrics"].items():
            table.setdefault((r["workload"], name), {})[r["seed"]] = m["value"]
    return table


def compare(base_path, new_path):
    base = _by_metric(_load_results(base_path))
    new = _by_metric(_load_results(new_path))
    print(f"{'workload':14s} {'metric':36s} {'base':>12s} {'new':>12s} {'new/base':>9s}"
          f" {'runs':>7s} {'lower in pairs':>14s}")
    for key in sorted(set(base) & set(new)):
        b, n = base[key], new[key]
        mb, mn = statistics.median(b.values()), statistics.median(n.values())
        ratio = f"{mn / mb:.4f}" if mb else "n/a"
        seeds = sorted(set(b) & set(n))
        lower = sum(n[s] < b[s] for s in seeds)
        print(f"{key[0]:14s} {key[1]:36s} {mb:12.6g} {mn:12.6g} {ratio:>9s}"
              f" {len(b):>3d}/{len(n):<3d} {lower:>7d}/{len(seeds):<6d}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs="+", metavar=("BASE", "NEW"),
                        help="compare results files or directories instead of measuring")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            if len(args.compare) > 2:
                parser.error("--compare takes BASE and at most one NEW")
            new = args.compare[1] if len(args.compare) == 2 else RESULTS_DIR
            return compare(args.compare[0], new)
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        return measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
