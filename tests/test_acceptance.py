"""Acceptance gate: one test per release criterion, each run at the stated
tolerance and budget on the grids the criterion names.  Per-module tests
cover the same machinery on smaller grids; this file is the end-to-end
pass/fail record, so every test prints the quantities it gates."""

import time

import numpy as np
import pytest

from gradlab import fiber, fields, gradients, harness, spectral
from gradlab.config import ExperimentConfig
from gradlab.expressions import TrigPoly, parse_trig_poly
from gradlab.fields import l2_inner, l2_norm
from gradlab.geometry import GridSpec, build_geometry
from gradlab.harness import (
    band_limited_field,
    build_cache,
    flat_joint_kernel_oracle,
    kernel_experiment,
    render_json,
    run_identity_suite,
)
from testlib import d1_star_d1_formula, unit_field

CONFORMAL_2D = "0.1*cos(x1)"
CONFORMAL_3D = "0.05*cos(x1)"


def make_cache(n, size, metric):
    spec = GridSpec(n=n, sizes=(size,) * n)
    if metric == "flat":
        f = TrigPoly([])
    else:
        f = parse_trig_poly(CONFORMAL_2D if n == 2 else CONFORMAL_3D)
    return build_geometry(spec, f)


@pytest.fixture(scope="module")
def kernel_suite_timed():
    cfg = ExperimentConfig(
        dimension=2, sizes=(16, 32), ranks=(1, 2),
        seed=7, suites=("kernel",),
    )
    t0 = time.perf_counter()
    report = kernel_experiment(cfg)
    return report, time.perf_counter() - t0


def test_criterion_01_decomposition_batch_within_budget():
    # 50 random fields per (n, p, metric): reconstruction to 1e-10,
    # mutual orthogonality to 1e-8, the whole batch inside two minutes
    t0 = time.perf_counter()
    worst_recon = worst_orth = 0.0
    # a fixed index per metric: str hashes are salted per process
    for metric_index, metric in enumerate(("flat", "conformal")):
        for n in (2, 3):
            cache = make_cache(n, 32, metric)
            for p in (1, 2, 3):
                rng = np.random.default_rng([1, n, p, metric_index])
                for _ in range(50):
                    phi = unit_field(cache, p, 8, rng)
                    sp = gradients.decompose(phi)
                    worst_recon = max(worst_recon, sp.reconstruction_residual)
                    worst_orth = max(worst_orth, max(sp.orthogonality.values()))
    elapsed = time.perf_counter() - t0
    print(f"\nrecon {worst_recon:.3e} orth {worst_orth:.3e} time {elapsed:.1f}s")
    assert worst_recon <= 1e-10
    assert worst_orth <= 1e-8
    assert elapsed <= 120.0


def test_criterion_02_projector_oracle_match():
    # formula pieces against the pointwise projector route: asserted to
    # 1e-8 at every rank; at p = 3 the second piece is also reported as a
    # best-fit scalar
    worst = 0.0
    for metric in ("flat", "conformal"):
        for n, size in ((2, 32), (3, 16)):
            cache = make_cache(n, size, metric)
            for p in (1, 2):
                rng = np.random.default_rng([2, n, p])
                for _ in range(5):
                    phi = unit_field(cache, p, 4, rng)
                    pm = gradients.projector_match_residuals(gradients.decompose(phi))
                    worst = max(worst, max(pm.values()))
    print(f"\nworst projector mismatch (p <= 2): {worst:.3e}")
    assert worst <= 1e-8

    for n, size in ((2, 32), (3, 16)):
        cache = make_cache(n, size, "conformal")
        phi = unit_field(cache, 3, 4, np.random.default_rng(23))
        sp = gradients.decompose(phi)
        b = gradients.projector_components(sp.grad)["B"]
        s_fit = l2_inner(sp.d2, b) / l2_inner(b, b)
        resid = l2_norm(sp.d2 - b * s_fit) / l2_norm(b)
        d2_match = gradients.projector_match_residuals(sp)["d2"]
        print(f"p = 3, n = {n}: best-fit scalar {s_fit:.12f}, residual {resid:.3e}, "
              f"d2 mismatch {d2_match:.3e}")
        assert np.isfinite(s_fit) and np.isfinite(resid)
        assert d2_match <= 1e-8


def test_criterion_03_adjointness_and_two_route_refinement():
    # analytic pairing to 1e-9 and discrete transposes to 1e-12 on
    # unit-norm fields, across metrics and dimensions
    cases = [
        (2, 32, "flat", 8), (2, 32, "conformal", 6),
        (3, 16, "flat", 4), (3, 20, "conformal", 3),
    ]
    worst_pair = worst_transpose = 0.0
    for n, size, metric, band in cases:
        cache = make_cache(n, size, metric)
        for p in (1, 2):
            rng = np.random.default_rng([3, n, p])
            phi = unit_field(cache, p, band, rng)
            psi = unit_field(cache, p + 1, band, rng)
            pair = abs(l2_inner(gradients.d1(phi), psi)
                       - l2_inner(phi, fields.divergence(psi)))
            tr = abs(l2_inner(gradients.d1(phi), psi)
                     - l2_inner(phi, gradients.d1_exact_adjoint(psi)))
            worst_pair = max(worst_pair, pair)
            worst_transpose = max(worst_transpose, tr)
    print(f"\npairing {worst_pair:.3e} transpose {worst_transpose:.3e}")
    assert worst_pair <= 1e-9
    assert worst_transpose <= 1e-12

    # two-route agreement: under 1e-8 on the 32-point grid and at least
    # tenfold smaller on the 64-point grid (same continuum field)
    cfg = ExperimentConfig(conformal_exponent=CONFORMAL_2D, dimension=2, sizes=(32, 64),
                           ranks=(2,), seed=7)
    res = {}
    for size in (32, 64):
        cache = build_cache(cfg, size)
        phi = band_limited_field(cache, 2, 8, np.random.default_rng(11))
        a = d1_star_d1_formula(phi)
        b = gradients.d1_exact_adjoint(gradients.d1(phi))
        res[size] = l2_norm(a - b) / l2_norm(a)
    print(f"two-route 32: {res[32]:.3e}, 64: {res[64]:.3e}")
    assert res[32] <= 1e-8
    assert res[64] <= res[32] / 10.0


def test_criterion_04_composition_formula_equivalence():
    # the symmetrized-Laplacian form of the composed operator reproduces
    # the direct formula to 1e-10 at every resolution, both metrics
    worst = 0.0
    for metric in ("flat", "conformal"):
        for size in (8, 12, 16, 24, 32):
            cache = make_cache(2, size, metric)
            for p in (1, 2, 3):
                rng = np.random.default_rng([4, size, p])
                phi = unit_field(cache, p, max(1, size // 4), rng)
                res = gradients.second_order_residuals(phi)
                worst = max(worst, res["splitting_form"])
    print(f"\nworst composition-form residual: {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_05_curvature_identities_and_refinement():
    # rough-Laplacian composition identity and the quadratic-form identity
    # to 1e-8 on the flat 2-torus; curvature term vanishes to 1e-9 there
    worst_rough = worst_qform = worst_k = 0.0
    cache = make_cache(2, 32, "flat")
    for p in (1, 2, 3):
        rng = np.random.default_rng([5, p])
        for _ in range(3):
            phi = unit_field(cache, p, 6, rng)
            res = gradients.second_order_residuals(phi)
            worst_rough = max(worst_rough, res["rough_identity"])
            worst_qform = max(worst_qform, res["q_form_route"])
            k = gradients.weitzenbock_K(phi)
            worst_k = max(worst_k, l2_norm(k) / l2_norm(phi))
    print(f"\nflat rough {worst_rough:.3e} qform {worst_qform:.3e} "
          f"curvature-term {worst_k:.3e}")
    assert worst_rough <= 1e-8
    assert worst_qform <= 1e-8
    assert worst_k <= 1e-9

    # conformal refinement: both discretization-limited residuals drop by
    # at least 10x from the 16-point to the 32-point grid
    cfg = ExperimentConfig(conformal_exponent=CONFORMAL_2D,
                           dimension=2, sizes=(16, 32), ranks=(2,), seed=7)
    rough = {}
    zeroth = {}
    for size in (16, 32):
        cache = build_cache(cfg, size)
        phi = band_limited_field(cache, 2, 4, np.random.default_rng(19))
        u = 1.0 + 0.3 * np.cos(cache.spec.theta_mesh()[0])
        res = gradients.second_order_residuals(phi, u)
        rough[size] = res["rough_identity"]
        zeroth[size] = res["zeroth_order"]
    print(f"conformal rough 16: {rough[16]:.3e} -> 32: {rough[32]:.3e}; "
          f"zeroth 16: {zeroth[16]:.3e} -> 32: {zeroth[32]:.3e}")
    assert rough[32] <= rough[16] / 10.0
    assert zeroth[32] <= zeroth[16] / 10.0


def test_criterion_06_integral_identities():
    # every integral identity holds to 1e-9 when built from the exact
    # discrete transposes, on flat and conformal grids in 2d and 3d
    cases = [
        (2, 32, "flat", 8), (2, 32, "conformal", 6),
        (3, 16, "flat", 4), (3, 20, "conformal", 3),
    ]
    worst = {}
    for n, size, metric, band in cases:
        cache = make_cache(n, size, metric)
        for p in (1, 2):
            rng = np.random.default_rng([6, n, p])
            phi = unit_field(cache, p, band, rng)
            res = gradients.second_order_residuals(phi)
            for key in ("energy", "rough_energy", "split_energy", "q_form_route"):
                worst[key] = max(worst.get(key, 0.0), res[key])
    print("\n" + " ".join(f"{k} {v:.3e}" for k, v in sorted(worst.items())))
    assert all(v <= 1e-9 for v in worst.values())


def test_criterion_07_ellipticity_and_spectra():
    # squared-symbol ellipticity over 100 random directions (and points,
    # when the metric varies), for n in {2, 3, 4} and p in {1, 2}, one
    # stacked symbol call per case: the floor min eig sigma(d1* d1)(xi) /
    # (gscale |xi|^2) is the same in every direction, 1/2 on the 2-torus
    # and 1/(p+1) for n >= 3
    floors = {}
    dists = {}
    for metric in ("flat", "conformal"):
        for n in (2, 3, 4):
            cache = make_cache(n, 8, metric)
            for p in (1, 2):
                handle = spectral.d1_star_d1_handle(cache, p)
                rng = np.random.default_rng([7, n, p])
                xi = rng.standard_normal((100, n))
                points = rng.integers(0, 8, size=(100, n))
                gscale = np.exp(-2.0 * cache.conf_exponent_values[tuple(points.T)])
                mat = handle.symbol(xi, gscale[:, None, None])
                lowest = np.linalg.eigvalsh(mat)[:, 0]
                floors[(metric, n, p)] = float(np.min(lowest / (gscale * np.sum(xi * xi, axis=1))))
                alpha = np.trace(mat, axis1=1, axis2=2) / mat.shape[-1]
                dists[(metric, n, p)] = float(np.max(
                    np.linalg.norm(mat - alpha[:, None, None] * np.eye(mat.shape[-1]), axis=(1, 2))
                    / np.linalg.norm(mat, axis=(1, 2))))
    for key in sorted(floors):
        print(f"\n{key}: floor {floors[key]:.4f}, distance-to-scalar {dists[key]:.3e}")
    for (metric, n, p), floor in floors.items():
        expect = 0.5 if n == 2 else 1.0 / (p + 1)
        assert abs(floor - expect) <= 1e-12 * expect, (metric, n, p, floor)
    assert all(np.isfinite(v) for v in dists.values())  # reported, not asserted

    # assembled spectra of the squared operator stay numerically psd
    for metric in ("flat", "conformal"):
        cache = make_cache(2, 12, metric)
        for p in (1, 2):
            rep = spectral.spectrum(spectral.d1_star_d1_handle(cache, p))
            assert rep.eigenvalues[0] >= -1e-9 * rep.lambda_max


def test_criterion_08_flat_torus_kernels_with_oracles(kernel_suite_timed):
    # conformal-Killing kernel on the flat 2-torus: the two constant
    # modes at p = 1 and p = 2, confirmed by the per-mode symbol oracle,
    # inside the stated dimension bounds, inside ten minutes
    report, elapsed = kernel_suite_timed
    by_id = {r.check_id: r for r in report.records}
    print(f"\nkernel suite at 32 points/axis: {elapsed:.1f}s, {report.status}")
    assert report.status == "pass"
    for p, bound in ((1, 6), (2, 10)):
        assert by_id[f"kernel.ck_count.p{p}"].value == 2.0
        assert by_id[f"kernel.ck_mode_oracle.p{p}"].status == "pass"
        assert fiber.ck_dim_bound(2, p) == bound
        assert 2 <= bound
    n = 3
    assert fiber.ck_dim_bound(3, 1) == 10 == (n + 1) * (n + 2) // 2
    assert elapsed <= 600.0


@pytest.mark.xfail(
    strict=True,
    reason="on trace-free symmetric 2-tensors over the 2-torus every nonzero "
    "Fourier mode gives a square divergence block with determinant |k|^2, so "
    "the near-kernel is exactly the two constant modes at every resolution; "
    "the windowed count is 2 on both grids and cannot strictly increase. "
    "Kept as the falsifying record of the stated expectation.",
)
def test_criterion_09_tt_window_strictly_increases():
    cfg = ExperimentConfig(dimension=2, sizes=(16, 32),
                           ranks=(2,), seed=7)
    win = {}
    for size in (16, 32):
        evals = spectral.sector_spectrum(
            spectral.Galerkin(build_cache(cfg, size), 2).joint_eigen(["divergence"]))
        win[size] = spectral.kernel_count(evals[:50]).count
    assert win[32] > win[16]


def test_criterion_09_companion_divergence_kernel_facts():
    # the honest version of the statement: the rank-2 family is finite and
    # matches the per-mode oracle exactly, while the rank-1 family (where
    # the fiber dimensions allow a nontrivial null space) does grow
    cfg = ExperimentConfig(dimension=2, sizes=(16, 32),
                           ranks=(1, 2), seed=7)
    counts = {}
    for size in (16, 32):
        cache = build_cache(cfg, size)
        for p in (1, 2):
            kc = spectral.kernel_count(spectral.sector_spectrum(
                spectral.Galerkin(cache, p).joint_eigen(["divergence"])))
            assert kc.count == flat_joint_kernel_oracle(cache, p, ["divergence"])
            counts[(p, size)] = kc.count
    print(f"\ndivergence near-kernel: {counts}")
    assert counts[(2, 16)] == counts[(2, 32)] == 2
    assert counts[(1, 32)] > counts[(1, 16)]
    assert fiber.tracefree_dim(2, 2) == fiber.tracefree_dim(2, 1)  # why: square blocks


def test_criterion_10_falsifiability_fixtures():
    # deliberately corrupted conventions must be caught, loudly
    cache = make_cache(2, 16, "flat")
    phi = unit_field(cache, 2, 4, np.random.default_rng(29))
    sp = gradients.decompose(phi)
    worst = max(harness._scaled_d2_split(sp, 1.05).orthogonality.values())
    print(f"\ncorrupted prefactor: orthogonality {worst:.3e}")
    assert worst > 1e-3
    with pytest.raises(gradients.ConventionError):
        gradients._d1_from_grad(phi, sp.grad.data, -sp.divergence.data)


def test_criterion_11_byte_identical_reports():
    cfg = ExperimentConfig(dimension=2, sizes=(8, 12),
                           ranks=(1,), seed=5, field_count=2)
    first = render_json(run_identity_suite(cfg))
    second = render_json(run_identity_suite(cfg))
    assert first == second
    assert first.encode() == second.encode()
