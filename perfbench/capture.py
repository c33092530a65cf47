"""Capture the reference status maps the benchmark gates every run against.

    python3 perfbench/capture.py [WORKLOAD ...]

Run from the root of a checkout.  For each workload (default: all) and each
config seed in workloads.CONFIG_SEEDS, runs the workload's ``gradlab check``
call once and stores its exit code and the status of every check id in
perfbench/reference/<workload>.json.  Re-capture only when a change alters
check ids or statuses on purpose, and say which in CHANGES.md.
"""

import json
import shutil
import sys

from common import (REFERENCE_DIR, RUN_LIMIT_S, WORK_DIR, BenchError, git_sha,
                    reference_path, run_child)
from workloads import CONFIG_SEEDS, WORKLOADS


def capture(workload):
    seeds = {}
    for bench_seed, cfg_seed in enumerate(CONFIG_SEEDS):
        out = WORK_DIR / f"capture-{workload}-{cfg_seed}"
        code, result = run_child(["check", "--workload", workload,
                                  "--seed", str(bench_seed), "--out", str(out)],
                                 timeout=RUN_LIMIT_S)
        shutil.rmtree(out, ignore_errors=True)
        if code != 0 or result is None:
            raise BenchError(f"{workload} config seed {cfg_seed}: child exited {code}")
        seeds[str(cfg_seed)] = {"exit": result["exit"], "statuses": result["statuses"]}
        print(f"{workload} seed {cfg_seed}: exit {result['exit']}, "
              f"{len(result['statuses'])} checks, {result['wall_s']:.1f} s", flush=True)
    ref = {"workload": workload, **WORKLOADS[workload], "git_sha": git_sha(), "seeds": seeds}
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(workload).write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")


def main(argv):
    for workload in argv or sorted(WORKLOADS):
        if workload not in WORKLOADS:
            print(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
            return 2
        capture(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
