"""Condense benchmark results into one BENCH file.

Usage:
    python scripts/bench.py --out BENCH_<n>.json [--results perfbench/results]

Reads the results files that `perfbench/run.py` wrote, one per workload,
seed and trace setting, and writes one JSON file: the commit, source hash
and environment they were measured on and, per workload, the median and
quartiles over its runs of every metric the runs report (the end-to-end
metrics of the untraced runs, the per-layer metrics of the traced ones),
with the runs' failed and attempted calls.  Nothing is measured or rerun
here.  Results from more than one source tree or environment are refused,
since a BENCH file describes one program on one host.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "results"


class BenchFileError(RuntimeError):
    pass


def _spread(values):
    """Median and quartiles (inclusive method) of the runs' values."""
    values = sorted(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def load_results(results_dir):
    files = sorted(Path(results_dir).glob("*-trace[01].json"))
    if not files:
        raise BenchFileError(f"no results files under {results_dir}")
    runs = []
    for path in files:
        try:
            runs.append(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError) as exc:
            raise BenchFileError(f"cannot read results file {path}: {exc}") from exc
    return runs


def condense(runs):
    """The BENCH record of a list of results records."""
    envs = {json.dumps(r["environment"], sort_keys=True) for r in runs}
    if len(envs) != 1:
        shas = sorted({(r["environment"].get("git_sha"), r["environment"].get("src_sha256"))
                       for r in runs})
        raise BenchFileError(f"results come from {len(envs)} environments or source "
                             f"trees (git sha, source sha256: {shas})")
    env = runs[0]["environment"]
    workloads = {}
    for r in runs:
        w = workloads.setdefault(r["workload"], {"seeds": set(), "attempted": 0, "failed": 0,
                                                 "status_drift": 0, "values": {}})
        w["seeds"].add(r["seed"])
        w["attempted"] += r["attempted"]
        w["failed"] += r["failed"]
        w["status_drift"] += r["status_drift"]
        group = "per_layer" if r["trace"] else "end_to_end"
        for name, m in r["metrics"].items():
            w["values"].setdefault((group, name, m["unit"]), []).append(m["value"])
    out = {}
    for name, w in sorted(workloads.items()):
        record = {"seeds": sorted(w["seeds"]), "attempted": w["attempted"],
                  "failed": w["failed"], "status_drift": w["status_drift"],
                  "end_to_end": {}, "per_layer": {}}
        for (group, metric, unit), values in sorted(w["values"].items()):
            record[group][metric] = {**_spread(values), "unit": unit}
        out[name] = record
    return {"git_sha": env.get("git_sha"), "src_sha256": env.get("src_sha256"),
            "environment": env, "workloads": out}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH file to write")
    parser.add_argument("--results", default=str(RESULTS_DIR),
                        help="directory of perfbench/run.py results files")
    args = parser.parse_args(argv)
    try:
        bench = condense(load_results(args.results))
    except BenchFileError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    for name, w in bench["workloads"].items():
        for metric, s in w["end_to_end"].items():
            print(f"{name:14s} {metric:12s} median {s['median']:.4g} {s['unit']} "
                  f"(q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, runs {s['n']})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
