"""Command-line entry point.

A thin shell over the other modules: it parses arguments and config files,
dispatches to the harness, writes report files, and maps suite status to
exit codes.  It performs no numerical work of its own.

Two verbs: `info` prints the fiber dimension table, and `check` runs the
suites a config names (one suite: `--override suites=kernel`, other
ranks: `--override ranks=N`).

Exit codes: 0 all mandatory checks pass, 1 failures, 2 usage/config error,
3 indeterminate results only.

`main` pins glibc's heap thresholds before it dispatches (`_pin_heap`).
"""

import argparse
import ctypes
import sys

from . import fiber, harness, spectral
from .config import ConfigError, apply_overrides, load_config
from .geometry import GeometryError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3

# glibc mallopt parameters (malloc.h) and the values pinned by `_pin_heap`:
# the mmap threshold at the 64-bit ceiling of glibc's own dynamic rule,
# the trim threshold at twice that
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _pin_heap():
    """Keep freed field-sized temporaries in the heap for reuse.

    By default glibc serves each block above its mmap threshold (128 KiB
    until a large free raises it) with a fresh mmap, and unmaps it or trims
    the heap top when it is freed, so every operator call faults its 0.2-
    0.7 MB temporaries in again page by page.  With both thresholds
    pinned, freed blocks below 32 MiB return to the heap and the next call
    reuses their pages.  Does nothing where the C library has no mallopt;
    calling it again changes nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _cmd_info(args, out):
    n, p = args.n, args.p
    if not (2 <= n <= 8):
        print(f"info: --n must be in [2, 8], got {n}", file=sys.stderr)
        return EXIT_USAGE
    if not (0 <= p <= 6):
        print(f"info: --p must be in [0, 6], got {p}", file=sys.stderr)
        return EXIT_USAGE
    print(f"fiber dimensions for n = {n}", file=out)
    print(f"{'p':>3} {'sym_dim':>9} {'tracefree_dim':>14} {'ck_dim_bound':>13}", file=out)
    for q in range(p + 1):
        bound = str(fiber.ck_dim_bound(n, q)) if q >= 1 else "-"
        print(f"{q:>3} {fiber.sym_dim(n, q):>9} "
              f"{fiber.tracefree_dim(n, q):>14} {bound:>13}", file=out)
    if n == 2:
        print("note: ck_dim_bound extrapolated for n=2 (closed form is stated "
              "for n >= 3)", file=out)
    return EXIT_PASS


def _load_config(args):
    cfg = load_config(args.config)
    if args.override:
        cfg = apply_overrides(cfg, args.override)
    return cfg


def _write_reports(reports, out_dir, out):
    for report in reports:
        for fmt in ("json", "csv", "markdown-summary"):
            path = harness.emit_report(report, fmt, out_dir=out_dir)
            print(f"  wrote {path}", file=out)


def _summarize(report, out):
    c = report.counts
    secs = report.timing.get("total", 0.0)
    print(f"[{report.suite}] {report.status}: {c['pass']} pass, {c['fail']} fail, "
          f"{c['indeterminate']} indeterminate, {c['measured']} measured "
          f"({secs:.1f}s)", file=out)
    for r in sorted(report.records, key=lambda r: r.check_id):
        if r.status in ("fail", "indeterminate"):
            val = "n/a" if r.value is None else f"{r.value:.6e}"
            print(f"  {r.status}: {r.check_id} [{r.anchor}] value {val} "
                  f"{r.detail}", file=out)


def _exit_code(reports):
    statuses = {r.status for r in reports}
    if "fail" in statuses:
        return EXIT_FAIL
    if "indeterminate" in statuses:
        return EXIT_INDETERMINATE
    return EXIT_PASS


def _cmd_check(args, out):
    cfg = _load_config(args)
    reports = harness.run_suites(cfg)
    for report in reports:
        _summarize(report, out)
    _write_reports(reports, args.out, out)
    return _exit_code(reports)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gradlab",
        description="Verification experiments for the gradient decomposition "
                    "on periodic tensor fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print fiber dimension table")
    p_info.add_argument("--n", type=int, required=True, help="base dimension (2..8)")
    p_info.add_argument("--p", type=int, required=True, help="max tensor rank (0..6)")

    p_check = sub.add_parser("check", help="run the suites named in the config")
    p_check.add_argument("--config", required=True, help="path to a key=value config")
    p_check.add_argument("--out", default=None,
                         help="output directory (default: $GRADLAB_OUT or '.')")
    p_check.add_argument("--override", action="append", default=[],
                         metavar="KEY=VALUE", help="config override, repeatable")
    return parser


_COMMANDS = {
    "info": _cmd_info,
    "check": _cmd_check,
}


def main(argv=None, out=sys.stdout):
    _pin_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except (ConfigError, GeometryError, harness.HarnessError, spectral.SpectralError) as exc:
        print(f"gradlab {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
