"""Scan principal symbols and Galerkin spectra across small cases.

Usage:
    python scripts/scan_symbols.py [--out OUTDIR] [--directions K] [--seed S]

Writes, for each (n, p) with n in {2, 3, 4} and p in {1, 2}:
  symbol_n{n}_p{p}.csv    per-direction singular values of the squared symbol
and, on the 2-torus only:
  spectrum_n2_p{p}.csv    the low spectrum of d1* d1 on a small torus, from
                          the Galerkin layer on the dealiased basis
plus the ellipticity floor (min eigenvalue over |xi|^2) per case.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from gradlab import spectral
from gradlab.expressions import TrigPoly
from gradlab.geometry import GridSpec, build_geometry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="symbol_scans", help="output directory")
    parser.add_argument("--directions", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for n in (2, 3, 4):
        cache = build_geometry(GridSpec(n, (8,) * n), TrigPoly([]))
        for p in (1, 2):
            handle = spectral.d1_star_d1_handle(cache, p)
            reports = spectral.symbol_scan_to_csv(
                handle, out / f"symbol_n{n}_p{p}.csv",
                n_dirs=args.directions, seed=args.seed)
            floor = min(
                r.min_eigenvalue / (r.gscale * float(np.dot(r.xi, r.xi)))
                for r in reports
            )
            dist = max(r.distance_to_scalar for r in reports)
            line = (f"n={n} p={p}: ellipticity floor {floor:.4f}, "
                    f"distance to scalar {dist:.3e}")
            if n == 2:
                srep = spectral.spectrum(handle, n_eigs=40)
                spectral.spectrum_to_csv(srep, out / f"spectrum_n{n}_p{p}.csv")
                line += f", kernel {srep.kernel.count} ({srep.kernel.label})"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
