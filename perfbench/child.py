"""One measured process: a set-up probe or one ``gradlab check`` call.

    python3 perfbench/child.py setup --workload NAME --seed N
    python3 perfbench/child.py check --workload NAME --seed N --out DIR [--spans FILE]

Run from the root of a checkout.  Each invocation is a fresh interpreter,
so ``ru_maxrss`` is the peak of this one call.  The last line of standard
output is a JSON object with the measurements.

``setup`` times importing gradlab (which imports numpy and scipy) and
loading the workload's config.  ``check`` times ``gradlab.cli.main`` with
the workload's arguments and then reads the status of every check from the
JSON reports it wrote.  With ``--spans`` the call runs under the tracer,
which is installed before the call (so every operator handle captures the
wrapped functions) and removed after it; the spans are saved to FILE.
"""

import argparse
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_argv, overrides

ROOT = Path.cwd()


def _setup(args):
    t0 = time.perf_counter()
    from gradlab.config import apply_overrides, load_config
    import gradlab.cli  # noqa: F401 - imports harness, numpy and scipy

    cfg = apply_overrides(load_config(WORKLOADS[args.workload]["config"]),
                          overrides(args.workload, args.seed))
    t1 = time.perf_counter()
    return {"setup_s": t1 - t0, "config_seed": cfg.seed}


def _statuses(out_dir):
    statuses = {}
    for path in sorted(Path(out_dir).glob("*_report.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        for rec in report["checks"]:
            statuses[f"{report['suite']}/{rec['check_id']}"] = rec["status"]
    return statuses


def _check(args):
    from gradlab import cli

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer().install()
    argv = check_argv(args.workload, args.seed, args.out)
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = cli.main(argv, out=io.StringIO())
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit": code,
        "wall_s": t1 - t0,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["wrappers_left"] = tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.save_spans(args.spans)
    result["statuses"] = _statuses(args.out)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "check"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    if args.mode == "setup":
        result = _setup(args)
    else:
        if not args.out:
            parser.error("check needs --out")
        result = _check(args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
