"""Run every shipped config through the CLI and collect the reports.

Usage:
    python scripts/run_all.py [--out OUTDIR]

Each config gets its own subdirectory of OUTDIR (default ./reports) so the
JSON/CSV/markdown trios never collide.  Exit status is the worst status
seen: 0 all pass, 3 something indeterminate, 2 a config could not run
(usage or config error), 1 something failed.
"""

import argparse
import sys
from pathlib import Path

from gradlab import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# exit codes from least to most severe: a config that cannot run outranks
# an indeterminate one, and a failure outranks both
SEVERITY = (0, 3, 2, 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="reports", help="report directory")
    args = parser.parse_args(argv)

    worst = 0
    for config in sorted(CONFIG_DIR.glob("*.cfg")):
        out_dir = Path(args.out) / config.stem
        print(f"=== {config.name} -> {out_dir}")
        code = cli.main(["check", "--config", str(config), "--out", str(out_dir)])
        print(f"=== {config.name}: exit {code}")
        worst = max(worst, code, key=SEVERITY.index)
    return worst


if __name__ == "__main__":
    sys.exit(main())
