"""Grid, derivative, metric, and curvature tests with analytic oracles."""

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
    conformal_christoffel_oracle,
    conformal_ricci_oracle,
    conformal_scalar_curvature_oracle,
    curvature_symmetry_residuals,
    differentiate,
    gauss_curvature_2d_oracle,
)
from testlib import analytic_laplacian, axis_coords, total_volume, wavenumbers


def grid(n, size):
    return GridSpec(n=n, sizes=(size,) * n)


FLAT = TrigPoly([])


def diagonal_samples(spec, exprs):
    """Samples of diag(a_1, ..., a_n), a metric outside the conformal family."""
    g = np.zeros(spec.shape + (spec.n, spec.n))
    for i, expr in enumerate(exprs):
        g[..., i, i] = geometry.evaluate_on_grid(parse_trig_poly(expr), spec)
    return g


def diagonal_cache(spec, exprs):
    """A non-flat cache whose metric arrays are those of diag(a_1, ..., a_n).

    build_geometry only samples e^{2f} delta, but its connection and
    curvature code (`geometry._metric_geometry`) takes any metric samples;
    this runs that code, and the checks that read its output, on a
    non-conformal metric.  The exponent is the base cache's, so the cache
    is not flat.
    """
    base = build_geometry(spec, parse_trig_poly("0.1*cos(x1)"))
    return dataclasses.replace(
        base, **geometry._metric_geometry(spec, diagonal_samples(spec, exprs), "spectral")
    )


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
# metric samples
# ---------------------------------------------------------------------------

def test_flat_preset_components():
    # exp(2 * 0) = 1.0 exactly: the flat samples are the identity bit for bit
    cache = build_geometry(grid(2, 16), FLAT)
    np.testing.assert_array_equal(cache.g, np.broadcast_to(np.eye(2), (16, 16, 2, 2)))
    np.testing.assert_array_equal(cache.conf_exponent_values, 0.0)
    assert cache.is_flat


def test_conformal_zero_exponent_is_flat():
    spec = grid(2, 16)
    zero = parse_trig_poly("0.0")
    assert zero == FLAT
    cache = build_geometry(spec, zero)
    assert cache.is_flat and cache.conformal_h is None
    np.testing.assert_array_equal(cache.g, build_geometry(spec, FLAT).g)


def test_conformal_oracles_vanish_for_zero_exponent():
    for n in (2, 3):
        spec = grid(n, 8)
        assert np.all(conformal_christoffel_oracle(FLAT, spec) == 0.0)
        assert np.all(conformal_ricci_oracle(FLAT, spec) == 0.0)
        assert np.all(conformal_scalar_curvature_oracle(FLAT, spec) == 0.0)
    assert np.all(gauss_curvature_2d_oracle(FLAT, grid(2, 8)) == 0.0)


def test_diagonal_preset_positivity_enforced():
    spec = grid(2, 16)
    bad = diagonal_samples(spec, ("1 + 2*cos(x1)", "1"))
    with pytest.raises(GeometryError, match="positive definite"):
        geometry._metric_geometry(spec, bad, "spectral")


# ---------------------------------------------------------------------------
# geometry cache: christoffel and curvature
# ---------------------------------------------------------------------------

def test_flat_cache_is_trivial():
    cache = build_geometry(grid(2, 16), FLAT)
    assert np.max(np.abs(cache.christoffel)) < 1e-12
    assert np.max(np.abs(cache.riemann)) < 1e-10
    assert np.max(np.abs(cache.ricci)) < 1e-10
    assert abs(total_volume(cache) - 4 * math.pi**2) < 1e-12
    assert np.all(cache.weights > 0)


def test_christoffel_symmetric_in_lower_indices():
    cache = build_geometry(grid(2, 16), parse_trig_poly("0.1*cos(x1)"))
    g = cache.christoffel
    assert np.max(np.abs(g - np.swapaxes(g, -1, -2))) < 1e-14


def test_conformal_christoffel_oracle_match():
    spec = grid(2, 16)
    f = parse_trig_poly("0.1*cos(x1)")
    cache = build_geometry(spec, f)
    oracle = conformal_christoffel_oracle(f, spec)
    assert np.max(np.abs(cache.christoffel - oracle)) < 1e-10
    # named component: Gamma^1_11 = d_1 f
    d1f = geometry.coordinate_derivative(f, 0, spec)
    assert np.max(np.abs(cache.christoffel[..., 0, 0, 0] - d1f)) < 1e-10


@pytest.mark.parametrize("method", ["spectral", "fd4"])
def test_christoffel_metric_compatibility_diagonal(method):
    # d_a g_ij = Gamma^l_ai g_lj + Gamma^l_aj g_il on a diagonal metric
    # e^{2f} delta whose factor varies along both axes
    spec = grid(2, 16)
    f = parse_trig_poly("0.2*cos(x1) + 0.1*sin(x2)")
    cache = build_geometry(spec, f, method=method)
    gam, g = cache.christoffel, cache.g
    dg = np.stack([differentiate(g, a, spec, method) for a in range(2)], axis=-3)
    rhs = np.einsum("...lai,...lj->...aij", gam, g) + np.einsum(
        "...laj,...il->...aij", gam, g
    )
    assert np.max(np.abs(dg - rhs)) < 1e-10


def _structural_christoffel(h):
    n = h.shape[-1]
    eye = np.eye(n)
    return (
        np.einsum("ki,...j->...kij", eye, h)
        + np.einsum("kj,...i->...kij", eye, h)
        - np.einsum("ij,...k->...kij", eye, h)
    )


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
    gam = cache.christoffel
    assert h.shape == spec.shape + (n,)
    np.testing.assert_array_equal(h, np.einsum("...lll->...l", gam))
    err = np.max(np.abs(gam - _structural_christoffel(h))) / np.max(np.abs(gam))
    assert err <= geometry.STRUCTURE_TOL
    assert cache.conformal_h is h  # computed and checked once


def test_conformal_h_rejects_perturbed_christoffel():
    spec = grid(2, 16)
    cache = build_geometry(spec, parse_trig_poly("0.1*cos(x1)"))
    gam = cache.christoffel.copy()
    gam[3, 5, 0, 0, 1] += 1e-8 * np.max(np.abs(gam))
    bad = dataclasses.replace(cache, christoffel=gam)
    with pytest.raises(GeometryError):
        bad.conformal_h


def test_conformal_h_refuses_non_conformal_metric():
    cache = diagonal_cache(grid(2, 16), ("1 + 0.2*cos(x2)", "1 + 0.2*cos(x1)"))
    with pytest.raises(GeometryError):
        cache.conformal_h


def test_conformal_2d_curvature_oracles():
    spec = grid(2, 32)
    f = parse_trig_poly("0.1*cos(x1)")
    cache = build_geometry(spec, f)
    scal = conformal_scalar_curvature_oracle(f, spec)
    assert np.max(np.abs(cache.scalar_curvature - scal)) < 1e-9
    K = gauss_curvature_2d_oracle(f, spec)
    assert np.max(np.abs(cache.scalar_curvature - 2 * K)) < 1e-9
    # spec'd closed form of the same quantity
    direct = -2.0 * analytic_laplacian(f, spec) * np.exp(
        -2.0 * geometry.evaluate_on_grid(f, spec)
    )
    assert np.max(np.abs(scal - direct)) < 1e-13


def test_conformal_3d_ricci_oracle_match():
    spec = grid(3, 16)
    f = parse_trig_poly("0.1*cos(x1) + 0.05*sin(x2 - x3)")
    cache = build_geometry(spec, f)
    oracle = conformal_ricci_oracle(f, spec)
    assert np.max(np.abs(cache.ricci - oracle)) < 1e-8
    scal_oracle = conformal_scalar_curvature_oracle(f, spec)
    assert np.max(np.abs(cache.scalar_curvature - scal_oracle)) < 1e-8


@pytest.mark.parametrize("metric", ["flat", "conformal", "diagonal"])
def test_curvature_symmetries_at_32(metric):
    spec = grid(2, 32)
    if metric == "diagonal":
        cache = diagonal_cache(spec, ("1 + 0.2*cos(x2)", "1 + 0.1*sin(x1)"))
    else:
        f = FLAT if metric == "flat" else parse_trig_poly("0.1*cos(x1)")
        cache = build_geometry(spec, f)
    res = curvature_symmetry_residuals(cache)
    for name, value in res.items():
        assert value < 1e-9, (name, value)


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
        cache = build_geometry(spec, f)
        oracle = conformal_scalar_curvature_oracle(f, spec)
        errs[size] = np.max(np.abs(cache.scalar_curvature - oracle))
    assert errs[16] / max(errs[32], 1e-16) > 10


def test_fd4_curvature_error_fourth_order():
    errs = {}
    for size in (16, 32):
        spec = grid(2, size)
        f = parse_trig_poly("0.4*cos(x1)")
        cache = build_geometry(spec, f, method="fd4")
        oracle = conformal_scalar_curvature_oracle(f, spec)
        errs[size] = np.max(np.abs(cache.scalar_curvature - oracle))
    ratio = errs[16] / errs[32]
    assert 10 < ratio < 24


def test_non_spd_sample_raises():
    # e^{2f} underflows to 0 at x1 = pi and overflows at x1 = 0
    with pytest.raises(GeometryError):
        build_geometry(grid(2, 16), parse_trig_poly("400*cos(x1)"))


def test_non_finite_geometry_raises():
    # the samples of e^{2f} are finite and positive, but det g = e^{4f}
    # overflows, and with it the quadrature weights
    spec = grid(2, 16)
    f = geometry.evaluate_on_grid(parse_trig_poly("300*cos(x1)"), spec)
    assert np.all(np.isfinite(np.exp(2.0 * f)))
    with pytest.raises(GeometryError, match="non-finite .*weights"):
        build_geometry(spec, parse_trig_poly("300*cos(x1)"))
