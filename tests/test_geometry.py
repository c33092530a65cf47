"""Grid, derivative, and closed-form geometry tests, against analytic
oracles and the reference metric route of `testlib`."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import i0

from gradlab import geometry
from gradlab.expressions import TrigPoly, parse_trig_poly
from gradlab.geometry import (
    GeometryError,
    GridSpec,
    build_geometry,
    differentiate,
)
from testlib import (
    analytic_laplacian,
    axis_coords,
    closed_form_curvature,
    conformal_scalar_curvature_oracle,
    gauss_curvature_2d_oracle,
    metric_geometry,
    metric_samples,
    structural_christoffel,
    total_volume,
    wavenumbers,
)


def grid(n, size):
    return GridSpec(n=n, sizes=(size,) * n)


FLAT = TrigPoly([])


def diagonal_samples(spec, exprs):
    """Samples of diag(a_1, ..., a_n), a metric outside the conformal family."""
    g = np.zeros(spec.shape + (spec.n, spec.n))
    for i, expr in enumerate(exprs):
        g[..., i, i] = geometry.evaluate_on_grid(parse_trig_poly(expr), spec)
    return g


def reference(cache, method="spectral"):
    """The reference route's geometry of the cache's metric samples."""
    return metric_geometry(cache.spec, metric_samples(cache), method)


def _rel(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_spec_examples():
    g1 = GridSpec(n=1, sizes=(8,))
    assert np.allclose(axis_coords(g1, 0), np.arange(8) * math.pi / 4)
    assert np.array_equal(g1.theta_mesh()[0], axis_coords(g1, 0))
    g2 = grid(2, 16)
    assert g2.num_points == 256
    assert g2.spacings == (2 * math.pi / 16,) * 2
    assert abs(g2.cell_volume - (2 * math.pi / 16) ** 2) < 1e-15
    assert GridSpec(n=2, sizes=(2000, 1000)).num_points == geometry.POINT_CAP


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=2, sizes=(15, 16)),
        dict(n=2, sizes=(6, 8)),
        dict(n=2, sizes=(16,)),
        dict(n=1, sizes=(geometry.POINT_CAP + 2,)),
        dict(n=2, sizes=(2000, 1002)),  # just over the point cap
        dict(n=3, sizes=(256, 256, 256)),
        dict(n=0, sizes=()),
    ],
)
def test_grid_spec_rejects(kwargs):
    with pytest.raises(GeometryError):
        GridSpec(**kwargs)


def test_wavenumbers_zero_nyquist():
    g = grid(1, 8)
    k = wavenumbers(g, 0)
    assert k[4] == 0.0
    assert np.allclose(k[[0, 1, 2, 3, 5, 6, 7]], [0, 1, 2, 3, -3, -2, -1])


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_spectral_derivative_band_limited_exact():
    g = grid(1, 16)
    x = axis_coords(g, 0)
    got = differentiate(np.sin(x), 0, g, "spectral")
    assert np.max(np.abs(got - np.cos(x))) < 1e-12
    got3 = differentiate(np.cos(3 * x), 0, g, "spectral")
    assert np.max(np.abs(got3 + 3 * np.sin(3 * x))) < 1e-12


def test_derivative_of_constant():
    g = grid(2, 16)
    c = np.full(g.shape, 2.3)
    for method in ("spectral", "fd4"):
        assert np.max(np.abs(differentiate(c, 0, g, method))) < 1e-13


def test_fd4_fourth_order_ratio():
    errs = []
    for size in (16, 32):
        g = grid(1, size)
        x = axis_coords(g, 0)
        got = differentiate(np.sin(x), 0, g, "fd4")
        errs.append(np.max(np.abs(got - np.cos(x))))
    ratio = errs[0] / errs[1]
    assert 12 < ratio < 20


@pytest.mark.parametrize("method", ["spectral", "fd4"])
def test_derivative_matrix_antisymmetric(method):
    # exact antisymmetry underpins the exact-transpose adjoint checks
    g = grid(1, 8)
    D = np.stack(
        [differentiate(col, 0, g, method) for col in np.eye(8)], axis=1
    )
    assert np.max(np.abs(D + D.T)) < 1e-13


@pytest.mark.parametrize("size", [8, 10, 12, 14, 16])
def test_spectral_derivative_real_fft_kernel(size):
    # the dense circulant kernel is the complex-FFT operator with the
    # Nyquist bin zeroed: same values, and exactly antisymmetric
    g = grid(1, size)
    x = axis_coords(g, 0)
    rng = np.random.default_rng(size)
    data = rng.standard_normal((size, 3))
    data[:, 0] += np.cos(size // 2 * x)  # pure Nyquist content
    k = wavenumbers(g, 0)
    ref = np.fft.ifft(1j * k[:, None] * np.fft.fft(data, axis=0), axis=0).real
    got = differentiate(data, 0, g, "spectral")
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    D = np.stack(
        [differentiate(col, 0, g, "spectral") for col in np.eye(size)], axis=1
    )
    assert np.max(np.abs(D + D.T)) < 1e-13


@pytest.mark.parametrize("size", range(8, 66, 2))
def test_derivative_matrix_exact_circulant(size):
    # built from one column, so exact antisymmetry and circulance hold bit
    # for bit, not to roundoff
    D = geometry._derivative_matrix(GridSpec(n=1, sizes=(size,)), 0)
    assert np.array_equal(D, -D.T)
    for j in range(size):
        assert np.array_equal(D[j], np.roll(D[0], j))


def _fft_derivative(data, axis, spec):
    # complex-FFT reference with the Nyquist bin zeroed
    shape = [1] * data.ndim
    shape[axis] = spec.sizes[axis]
    symbol = (1j * wavenumbers(spec, axis)).reshape(shape)
    return np.fft.ifft(symbol * np.fft.fft(data, axis=axis), axis=axis).real


@pytest.mark.parametrize("sizes", [(12,), (10, 16), (8, 12, 14), (8, 300)])
@pytest.mark.parametrize("fiber_shape", [(), (3,), (2, 5)])
def test_spectral_derivative_matches_fft_reference(sizes, fiber_shape):
    spec = GridSpec(n=len(sizes), sizes=sizes)
    rng = np.random.default_rng(len(sizes) + len(fiber_shape))
    data = rng.standard_normal(spec.shape + fiber_shape)
    for N, theta in zip(spec.sizes, spec.theta_mesh()):
        # Nyquist content along every axis
        data += np.cos(N // 2 * theta).reshape(spec.shape + (1,) * len(fiber_shape))
    for a in range(spec.n):
        got = differentiate(data, a, spec)
        ref = _fft_derivative(data, a, spec)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_multi_axis_derivative_acts_on_named_axis():
    g = grid(2, 16)
    t1, t2 = g.theta_mesh()
    f = np.cos(t1) * np.sin(2 * t2)
    d0 = differentiate(f, 0, g, "spectral")
    d1 = differentiate(f, 1, g, "spectral")
    assert np.max(np.abs(d0 + np.sin(t1) * np.sin(2 * t2))) < 1e-12
    assert np.max(np.abs(d1 - 2 * np.cos(t1) * np.cos(2 * t2))) < 1e-12


# ---------------------------------------------------------------------------
# the closed-form cache
# ---------------------------------------------------------------------------

def test_flat_preset_components():
    # exp(0) = 1.0 and the derivatives of f = 0 are 0.0 exactly: the flat
    # cache is exactly flat under either field method
    spec = grid(2, 16)
    for method in ("spectral", "fd4"):
        cache = build_geometry(spec, FLAT, method=method)
        assert cache.is_flat and cache.conformal_h is None
        np.testing.assert_array_equal(cache.conf_exponent_values, 0.0)
        assert not np.any(cache.h) and not np.any(cache.T)
        np.testing.assert_array_equal(cache.weights, spec.cell_volume)


def test_conformal_zero_exponent_is_flat():
    spec = grid(2, 16)
    zero = parse_trig_poly("0.0")
    assert zero == FLAT
    cache = build_geometry(spec, zero)
    assert cache.is_flat and cache.conformal_h is None
    flat = build_geometry(spec, FLAT)
    for name in ("h", "T", "weights"):
        np.testing.assert_array_equal(getattr(cache, name), getattr(flat, name))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cache_arrays_hold_at_most_n2_entries_per_point(n):
    cache = build_geometry(grid(n, 8), parse_trig_poly("0.1*cos(x1) + 0.05*sin(x2)"))
    arrays = {f.name: getattr(cache, f.name) for f in dataclasses.fields(cache)
              if isinstance(getattr(cache, f.name), np.ndarray)}
    assert set(arrays) == {"conf_exponent_values", "h", "T", "weights"}
    for name, values in arrays.items():
        assert values.size <= n * n * cache.spec.num_points, name
        assert not values.flags.writeable, name


def test_geometry_does_not_depend_on_the_field_method():
    # fd4 differentiates fields only; the geometry is exact under both
    spec = grid(3, 8)
    f = parse_trig_poly("0.2*cos(x1) + 0.1*sin(x2 - x3)")
    a, b = build_geometry(spec, f), build_geometry(spec, f, method="fd4")
    for name in ("conf_exponent_values", "h", "T", "weights"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_conformal_oracles_vanish_for_zero_exponent():
    for n in (2, 3):
        spec = grid(n, 8)
        cache = build_geometry(spec, FLAT)
        assert np.all(structural_christoffel(cache.h) == 0.0)
        for curvature in closed_form_curvature(cache):
            assert np.all(curvature == 0.0)
        assert np.all(conformal_scalar_curvature_oracle(FLAT, spec) == 0.0)
    assert np.all(gauss_curvature_2d_oracle(FLAT, grid(2, 8)) == 0.0)


def test_diagonal_preset_positivity_enforced():
    spec = grid(2, 16)
    bad = diagonal_samples(spec, ("1 + 2*cos(x1)", "1"))
    with pytest.raises(GeometryError, match="positive definite"):
        metric_geometry(spec, bad)
    # e^{2f} underflows to 0 while the weights stay finite
    with pytest.raises(GeometryError, match="positive definite"):
        build_geometry(spec, parse_trig_poly("-400"))


# ---------------------------------------------------------------------------
# the closed forms against the reference metric route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,size,tol", [(2, 16, 1e-11), (3, 16, 1e-11), (4, 12, 5e-8)])
def test_closed_form_matches_reference_route(n, size, tol):
    # the reference route differentiates samples of e^{2f} twice; its gap
    # to the closed forms is its own discretization error (2.2e-12 at
    # N = 16, 9.7e-9 for the 4-torus at N = 12)
    f = parse_trig_poly({2: "0.1*cos(x1) + 0.05*sin(x2)",
                         3: "0.1*cos(x1) + 0.05*sin(x2 - x3)",
                         4: "0.1*cos(x1) + 0.05*sin(x2 - x4)"}[n])
    cache = build_geometry(grid(n, size), f)
    ref = reference(cache)
    ricci, riemann = closed_form_curvature(cache)
    assert _rel(ricci, ref["ricci"]) <= tol
    assert _rel(riemann, ref["riemann"]) <= tol
    assert _rel(structural_christoffel(cache.h), ref["christoffel"]) <= tol
    assert _rel(cache.weights, ref["weights"]) <= 1e-15


def test_flat_cache_is_trivial():
    cache = build_geometry(grid(2, 16), FLAT)
    ref = reference(cache)
    assert np.max(np.abs(ref["christoffel"])) < 1e-12
    assert np.max(np.abs(ref["riemann"])) < 1e-10
    assert np.max(np.abs(ref["ricci"])) < 1e-10
    assert abs(total_volume(cache) - 4 * math.pi**2) < 1e-12
    assert np.all(cache.weights > 0)


def test_christoffel_symmetric_in_lower_indices():
    cache = build_geometry(grid(2, 16), parse_trig_poly("0.1*cos(x1)"))
    g = reference(cache)["christoffel"]
    assert np.max(np.abs(g - np.swapaxes(g, -1, -2))) < 1e-14


def test_conformal_christoffel_oracle_match():
    spec = grid(2, 16)
    f = parse_trig_poly("0.1*cos(x1)")
    cache = build_geometry(spec, f)
    gamma = reference(cache)["christoffel"]
    assert np.max(np.abs(gamma - structural_christoffel(cache.h))) < 1e-10
    # named component: Gamma^1_11 = d_1 f
    d1f = geometry.coordinate_derivative(f, 0, spec)
    assert np.max(np.abs(gamma[..., 0, 0, 0] - d1f)) < 1e-10


@pytest.mark.parametrize("method", ["spectral", "fd4"])
def test_christoffel_metric_compatibility_diagonal(method):
    # d_a g_ij = Gamma^l_ai g_lj + Gamma^l_aj g_il on a diagonal metric
    # e^{2f} delta whose factor varies along both axes
    spec = grid(2, 16)
    f = parse_trig_poly("0.2*cos(x1) + 0.1*sin(x2)")
    ref = reference(build_geometry(spec, f), method)
    gam, g = ref["christoffel"], ref["g"]
    dg = np.stack([differentiate(g, a, spec, method) for a in range(2)], axis=-3)
    rhs = np.einsum("...lai,...lj->...aij", gam, g) + np.einsum(
        "...laj,...il->...aij", gam, g
    )
    assert np.max(np.abs(dg - rhs)) < 1e-10


def test_conformal_factor_cached_per_power():
    spec = grid(2, 8)
    cache = build_geometry(spec, parse_trig_poly("0.2*cos(x1) + 0.1*sin(x2)"))
    for power in (-2.0, 2.0, -6.0):
        factor = cache.conformal_factor(power)
        assert np.array_equal(factor, np.exp(power * cache.conf_exponent_values))
        assert not factor.flags.writeable
        assert cache.conformal_factor(power) is factor
    assert build_geometry(spec, FLAT).conformal_factor(-2.0) is None


@pytest.mark.parametrize("method", ["spectral", "fd4"])
@pytest.mark.parametrize("metric", ["flat", "conformal"])
@pytest.mark.parametrize("n", [2, 3])
def test_conformal_h_matches_christoffel(n, metric, method):
    spec = grid(n, 8 if n == 3 else 16)
    f = FLAT if metric == "flat" else parse_trig_poly("0.2*cos(x1) + 0.1*sin(x2)")
    cache = build_geometry(spec, f, method=method)
    h = cache.conformal_h
    if metric == "flat":
        assert h is None
        return
    assert h is cache.h and h.shape == spec.shape + (n,)
    for i in range(n):
        np.testing.assert_array_equal(h[..., i], geometry.coordinate_derivative(f, i, spec))
    # the reference Christoffel symbols take the structural form in h, up
    # to their discretization error (1.1e-4 on the 3-torus at N = 8)
    gam = reference(cache)["christoffel"]
    assert _rel(structural_christoffel(h), gam) < (1e-9 if n == 2 else 1e-3)


def test_conformal_2d_curvature_oracles():
    spec = grid(2, 32)
    f = parse_trig_poly("0.1*cos(x1)")
    cache = build_geometry(spec, f)
    scal = conformal_scalar_curvature_oracle(f, spec)
    ref = reference(cache)["scalar_curvature"]
    assert np.max(np.abs(ref - scal)) < 1e-9
    K = gauss_curvature_2d_oracle(f, spec)
    assert np.max(np.abs(ref - 2 * K)) < 1e-9
    # spec'd closed form of the same quantity
    direct = -2.0 * analytic_laplacian(f, spec) * np.exp(
        -2.0 * geometry.evaluate_on_grid(f, spec)
    )
    assert np.max(np.abs(scal - direct)) < 1e-13
    # the cache's: R = g^{jl} Ric_jl = e^{-2f} tr Ric
    ricci, _ = closed_form_curvature(cache)
    from_T = cache.conformal_factor(-2.0) * np.trace(ricci, axis1=-2, axis2=-1)
    assert np.max(np.abs(from_T - scal)) < 1e-13


def test_conformal_3d_ricci_oracle_match():
    spec = grid(3, 16)
    f = parse_trig_poly("0.1*cos(x1) + 0.05*sin(x2 - x3)")
    cache = build_geometry(spec, f)
    ref = reference(cache)
    ricci, _ = closed_form_curvature(cache)
    assert np.max(np.abs(ref["ricci"] - ricci)) < 1e-8
    scal_oracle = conformal_scalar_curvature_oracle(f, spec)
    assert np.max(np.abs(ref["scalar_curvature"] - scal_oracle)) < 1e-8
    from_T = cache.conformal_factor(-2.0) * np.trace(ricci, axis1=-2, axis2=-1)
    assert np.max(np.abs(from_T - scal_oracle)) < 1e-13


def _symmetry_residuals(R, ricci):
    """Relative residuals of the standard curvature symmetries."""
    scale = max(float(np.max(np.abs(R))), 1e-30)
    rel = lambda arr: float(np.max(np.abs(arr))) / scale
    return {
        "antisym_last_pair": rel(R + np.einsum("...ismv->...isvm", R)),
        "antisym_first_pair": rel(R + np.einsum("...ismv->...simv", R)),
        "pair_interchange": rel(R - np.einsum("...ismv->...mvis", R)),
        "first_bianchi": rel(
            R
            + np.einsum("...imvs->...ismv", R)
            + np.einsum("...ivsm->...ismv", R)
        ),
        "ricci_symmetry": rel(ricci - np.swapaxes(ricci, -1, -2)),
    }


@pytest.mark.parametrize("metric", ["flat", "conformal", "diagonal"])
def test_curvature_symmetries_at_32(metric):
    spec = grid(2, 32)
    if metric == "diagonal":
        ref = metric_geometry(spec, diagonal_samples(spec, ("1 + 0.2*cos(x2)", "1 + 0.1*sin(x1)")))
    else:
        f = FLAT if metric == "flat" else parse_trig_poly("0.1*cos(x1)")
        ref = reference(build_geometry(spec, f))
    res = _symmetry_residuals(ref["riemann"], ref["ricci"])
    for name, value in res.items():
        assert value < 1e-9, (name, value)
    if metric == "conformal":
        # the closed forms hold them exactly: o is built from them
        ricci, riemann = closed_form_curvature(build_geometry(spec, parse_trig_poly("0.1*cos(x1)")))
        for name, value in _symmetry_residuals(riemann, ricci).items():
            assert value <= 1e-15, (name, value)


def test_conformal_volume_oracle():
    a = 0.3
    spec = grid(2, 32)
    cache = build_geometry(spec, parse_trig_poly(f"{a}*cos(x1)"))
    expect = (2 * math.pi) ** 2 * i0(2 * a)
    assert abs(total_volume(cache) - expect) < 1e-10 * expect


def test_spectral_curvature_error_drops_fast_under_refinement():
    errs = {}
    for size in (16, 32):
        spec = grid(2, size)
        f = parse_trig_poly("0.4*cos(x1)")
        ref = reference(build_geometry(spec, f))
        oracle = conformal_scalar_curvature_oracle(f, spec)
        errs[size] = np.max(np.abs(ref["scalar_curvature"] - oracle))
    assert errs[16] / max(errs[32], 1e-16) > 10


def test_fd4_curvature_error_fourth_order():
    errs = {}
    for size in (16, 32):
        spec = grid(2, size)
        f = parse_trig_poly("0.4*cos(x1)")
        ref = reference(build_geometry(spec, f), "fd4")
        oracle = conformal_scalar_curvature_oracle(f, spec)
        errs[size] = np.max(np.abs(ref["scalar_curvature"] - oracle))
    ratio = errs[16] / errs[32]
    assert 10 < ratio < 24


def test_non_spd_sample_raises():
    # e^{2f} underflows to 0 at x1 = pi and overflows at x1 = 0
    with pytest.raises(GeometryError, match="non-finite g"):
        build_geometry(grid(2, 16), parse_trig_poly("400*cos(x1)"))


def test_non_finite_geometry_raises():
    # on the 3-torus the samples of e^{2f} are finite and positive, but
    # sqrt(det g) = e^{3f} overflows, and with it the quadrature weights
    spec = grid(3, 8)
    f = geometry.evaluate_on_grid(parse_trig_poly("300*cos(x1)"), spec)
    assert np.all(np.isfinite(np.exp(2.0 * f)))
    with pytest.raises(GeometryError, match="non-finite .*weights"):
        build_geometry(spec, parse_trig_poly("300*cos(x1)"))
