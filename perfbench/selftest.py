"""Self-test of the tracer: it must not perturb the program.

    python3 perfbench/selftest.py [WORKLOAD] [SEED]

Run from the root of a checkout (default workload check-flat2d, seed 0).

1. In this process: install the tracer and check that the from-imported
   names (``harness.build_geometry``, ``harness.l2_norm``) and the functions
   an operator handle captures when it is built are the wrappers; remove it
   and check that every name is the original again.
2. One untraced and two traced ``gradlab check`` calls, each in a fresh
   process: every call must pass its gate, all reports must be
   byte-identical, and every count the tracer takes must repeat exactly
   across the two traced calls.

Exits 0 when every check holds, 1 otherwise.
"""

import sys

from common import ROOT, WORK_DIR, require_checkout

COUNTS = ("spectral.apply_calls", "spectral.eigh_calls", "harness.gram_blocks",
          "harness.gram_blocks_distinct", "spectral.eigh_dof_max", "spectral.eigh_dof3_sum",
          "fields.gradient_calls", "gradients.decompose_calls", "geometry.build_calls",
          "fiber.calls", "trace.spans")


def _in_process():
    sys.path.insert(0, str(ROOT / "src"))
    from gradlab import config, fields, gradients, harness, spectral
    from tracing import Tracer

    names = ((harness, "build_geometry"), (harness, "l2_norm"),
             (gradients, "d1"), (fields, "gradient"))
    originals = [getattr(mod, attr) for mod, attr in names]
    tracer = Tracer().install()
    try:
        cache = harness.build_cache(config.ExperimentConfig(), 8)
        wrapped = {f"{mod.__name__}.{attr}": getattr(mod, attr).__wrapped__ is orig
                   for (mod, attr), orig in zip(names, originals)}
        wrapped["d1_handle.apply"] = spectral.d1_handle(cache, 1).apply is gradients.d1
        wrapped["gradient_handle.apply"] = (
            spectral.gradient_handle(cache, 1).apply is fields.gradient)
        wrapped["build_geometry span"] = "geometry.build_geometry" in tracer.names
    finally:
        left = tracer.uninstall()
    restored = all(getattr(mod, attr) is orig for (mod, attr), orig in zip(names, originals))
    print(f"in-process: wrapped {wrapped}; not restored {left}; originals back {restored}")
    return all(wrapped.values()) and not left and restored


def _calls(workload, seed):
    from run import Run

    WORK_DIR.mkdir(exist_ok=True)
    run = Run(workload, seed)
    calls = [run.check_call(), run.check_call(traced=True), run.check_call(traced=True)]
    ok = True
    for i, c in enumerate(calls):
        print(f"call {i} traced={c['traced']}: ok={c['ok']} exit={c.get('exit')} "
              f"wall {c.get('wall_s', float('nan')):.2f} s "
              f"identical={c.get('reports_identical')} drifted={c.get('drifted')}")
        ok &= c["ok"]
    if not ok:
        return False
    a, b = calls[1]["layers"], calls[2]["layers"]
    for name in COUNTS:
        same = a[name] == b[name]
        ok &= same
        print(f"{name:32s} {a[name]!r:>16} {b[name]!r:>16} {'repeats' if same else 'DIFFERS'}")
    return ok


def main(argv):
    workload = argv[0] if argv else "check-flat2d"
    seed = int(argv[1]) if len(argv) > 1 else 0
    require_checkout(workload)
    ok = _in_process() and _calls(workload, seed)
    print("selftest", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
