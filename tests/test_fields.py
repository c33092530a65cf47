"""Field operator tests: gradient, divergence, symmetrized derivative,
adjoints, and L2 structure, against analytic and generic-path oracles."""

import math

import numpy as np
import pytest
from scipy.special import i0

from gradlab import fiber, fields, geometry
from gradlab.expressions import TrigPoly, parse_trig_poly
from gradlab.fields import (
    FieldError,
    TensorField,
    divergence,
    divergence_exact_adjoint,
    field_from_monomial,
    gradient,
    gradient_adjoint,
    l2_inner,
    l2_norm,
    max_trace_residual,
    rough_laplacian,
    sym_derivative,
    sym_derivative_exact_adjoint,
    to_tracefree,
)
from gradlab.geometry import GridSpec, build_geometry
from testlib import analytic_laplacian, metric_samples, unit_field, zero_field


def make_cache(n=2, size=16, metric="flat", f_text="0.1*cos(x1)", method="spectral"):
    spec = GridSpec(n=n, sizes=(size,) * n)
    if metric == "flat":
        f = TrigPoly([])
    elif metric == "conformal":
        f = parse_trig_poly(f_text)
    else:
        raise ValueError(metric)
    return build_geometry(spec, f, method=method)


def metric_as_field(cache):
    n = cache.n
    R = fiber.restrict_matrix(n, 2)
    mono = metric_samples(cache).reshape(cache.spec.shape + (n * n,)) @ R.T
    return TensorField(cache, "s", 2, mono)


def as_symmetric(phi):
    return TensorField(phi.cache, "s", phi.rank, phi.monomial())


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_field_shape_validation():
    cache = make_cache()
    with pytest.raises(FieldError):
        TensorField(cache, "s0", 2, np.zeros((16, 16, 3)))
    with pytest.raises(FieldError):
        TensorField(cache, "weird", 2, np.zeros((16, 16, 2)))
    z = zero_field(cache, 2, "cov_s0")
    assert z.data.shape == (16, 16, 2, 2)


def test_batch_axes_lead_the_grid():
    cache = make_cache()
    assert zero_field(cache, 2).batch_shape == ()
    stack = TensorField(cache, "cov_s0", 2, np.zeros((3, 4, 16, 16, 2, 2)))
    assert stack.batch_shape == (3, 4)
    with pytest.raises(FieldError, match="batch"):
        TensorField(cache, "s0", 2, np.zeros((3, 16, 16, 3)))


def test_l2_pairings_refuse_batches():
    cache = make_cache()
    phi = unit_field(cache, 2, band=4, rng=np.random.default_rng(0))
    batch = TensorField(cache, "s0", 2, np.stack([phi.data] * 3))
    for a, b in ((batch, batch), (phi, batch), (batch, phi)):
        with pytest.raises(FieldError, match="batch"):
            l2_inner(a, b)
    with pytest.raises(FieldError, match="batch"):
        l2_norm(batch)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def test_gradient_of_constant_flat():
    cache = make_cache(metric="flat")
    phi = zero_field(cache, 2)
    phi.data[...] = [0.7, -0.2]
    X = gradient(phi)
    assert np.max(np.abs(X.data)) < 1e-12


@pytest.mark.parametrize("metric", ["flat", "conformal"])
@pytest.mark.parametrize("method", ["spectral", "fd4"])
def test_metric_compatibility(metric, method):
    cache = make_cache(metric=metric, method=method)
    X = gradient(metric_as_field(cache))
    if metric == "flat" or method == "spectral":
        assert np.max(np.abs(X.data)) < 1e-10
        return
    # the connection is exact and the stencil differentiates the samples of
    # g, so under fd4 the residual is the stencil's: fourth order
    fine = make_cache(metric=metric, method=method, size=32)
    ratio = np.max(np.abs(X.data)) / np.max(np.abs(gradient(metric_as_field(fine)).data))
    assert 12 < ratio < 20


def test_gradient_product_rule():
    cache = make_cache(metric="conformal", size=32)
    rng = np.random.default_rng(0)
    phi = unit_field(cache, 2, band=4, rng=rng)
    fv = geometry.evaluate_on_grid(parse_trig_poly("cos(x1)"), cache.spec)
    lhs = gradient(TensorField(cache, "s0", 2, phi.data * fv[..., None]))
    rhs = gradient(phi).data * fv[..., None, None]
    for i in range(cache.n):
        dfi = geometry.coordinate_derivative(parse_trig_poly("cos(x1)"), i, cache.spec)
        rhs[..., i, :] += dfi[..., None] * phi.data
    assert np.max(np.abs(lhs.data - rhs)) < 1e-11


def test_gradient_s0_path_matches_generic_path():
    # the trace-free fast path must reproduce the monomial-coordinate
    # computation exactly, including that no trace part is dropped
    cache = make_cache(metric="conformal", size=16, f_text="0.2*cos(x1) + 0.1*sin(x2)")
    rng = np.random.default_rng(1)
    for p in (1, 2, 3):
        phi0 = unit_field(cache, p, band=4, rng=rng)
        X_fast = gradient(phi0)
        X_genc = gradient(as_symmetric(phi0))
        B, _ = fiber.tracefree_basis(cache.n, p)
        assert np.max(np.abs(X_genc.data - X_fast.data @ B.T)) < 1e-12
        assert max_trace_residual(X_genc) < 1e-11


def test_gradient_linearity():
    cache = make_cache(metric="conformal")
    rng = np.random.default_rng(2)
    a, b = unit_field(cache, 2, 4, rng), unit_field(cache, 2, 4, rng)
    lhs = gradient(2.0 * a + (-3.0) * b)
    rhs = 2.0 * gradient(a) + (-3.0) * gradient(b)
    assert np.max(np.abs(lhs.data - rhs.data)) < 1e-12


# ---------------------------------------------------------------------------
# divergence and symmetrized derivative
# ---------------------------------------------------------------------------

def test_divergence_exact_differential_flat():
    cache = make_cache(metric="flat", size=16)
    f = parse_trig_poly("cos(x1) + 0.5*sin(2*x2)")
    df = np.stack(
        [geometry.coordinate_derivative(f, i, cache.spec) for i in range(2)], axis=-1
    )
    phi = TensorField(cache, "s0", 1, df)
    got = divergence(phi).data[..., 0]
    expect = -analytic_laplacian(f, cache.spec)
    assert np.max(np.abs(got - expect)) < 1e-11


def test_divergence_of_constant_is_zero():
    cache = make_cache(metric="flat")
    phi = zero_field(cache, 2)
    phi.data[...] = [1.0, 2.0]
    assert np.max(np.abs(divergence(phi).data)) < 1e-12


def test_divergence_preserves_tracefree_generic_cross_check():
    cache = make_cache(metric="conformal", size=16)
    rng = np.random.default_rng(3)
    phi = unit_field(cache, 3, band=4, rng=rng)
    dphi = divergence(phi)
    # independent route: contract the generic-path covariant derivative
    X = gradient(as_symmetric(phi))  # (*grid, i, A) monomial
    n = cache.n
    Sl = fiber.slice_first_tensor(n, 3)
    g_inv = np.linalg.inv(metric_samples(cache))
    ginv_contract = np.einsum("...ij,jKA,...iA->...K", g_inv, Sl, X.data)
    expect = field_from_monomial(cache, 2, -ginv_contract, tag="s0")
    assert np.max(np.abs(dphi.data - expect.data)) < 1e-11
    assert max_trace_residual(dphi) < 1e-11


def test_sym_derivative_symmetry_and_p0():
    cache = make_cache(metric="conformal")
    rng = np.random.default_rng(4)
    phi = unit_field(cache, 0, band=4, rng=rng)
    X = sym_derivative(phi)
    assert X.tag == "s" and X.rank == 1
    grad = gradient(phi)
    assert np.max(np.abs(X.data - grad.data[..., :, 0])) < 1e-13


# ---------------------------------------------------------------------------
# adjoints: exact transposes and analytic pairings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["flat", "conformal"])
def test_gradient_adjoint_exact_pairing(metric):
    cache = make_cache(metric=metric)
    rng = np.random.default_rng(5)
    phi = unit_field(cache, 2, 4, rng)
    X = TensorField(cache, "cov_s0", 2, rng.standard_normal(size=(16, 16, 2, 2)))
    lhs = l2_inner(gradient(phi), X)
    rhs = l2_inner(phi, gradient_adjoint(X))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_divergence_adjoint_exact_pairing(p):
    cache = make_cache(metric="conformal")
    rng = np.random.default_rng(6)
    phi = unit_field(cache, p, 4, rng)
    psi = unit_field(cache, p - 1, 4, rng)
    lhs = l2_inner(divergence(phi), psi)
    rhs = l2_inner(phi, divergence_exact_adjoint(psi))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_sym_derivative_adjoint_exact_pairing():
    cache = make_cache(metric="conformal")
    rng = np.random.default_rng(7)
    phi = unit_field(cache, 2, 4, rng)
    m3 = fiber.sym_dim(2, 3)
    omega = TensorField(cache, "s", 3, rng.standard_normal(size=(16, 16, m3)))
    lhs = l2_inner(sym_derivative(phi), omega)
    rhs = l2_inner(phi, sym_derivative_exact_adjoint(omega))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_analytic_mutual_adjointness_of_div_and_symder():
    # <delta* psi, phi> = <psi, delta phi> holds analytically; discrete
    # residual is pure discretization error, small for band-limited data
    cache = make_cache(metric="conformal", size=32)
    rng = np.random.default_rng(8)
    p = 2
    phi = unit_field(cache, p, 4, rng)
    psi = unit_field(cache, p - 1, 4, rng)
    lhs = l2_inner(sym_derivative(psi), as_symmetric(phi))
    rhs = l2_inner(psi, divergence(phi))
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# rough Laplacian
# ---------------------------------------------------------------------------

def test_rough_laplacian_flat_eigenfunction():
    cache = make_cache(metric="flat")
    t1 = cache.spec.theta_mesh()[0]
    data = np.zeros((16, 16, 2))
    data[..., 0] = np.cos(t1)
    phi = TensorField(cache, "s0", 2, data)
    for route in ("adjoint", "formula"):
        got = rough_laplacian(phi, route=route)
        assert np.max(np.abs(got.data - phi.data)) < 1e-11, route


def test_rough_laplacian_routes_agree_conformal():
    cache = make_cache(metric="conformal", size=32)
    rng = np.random.default_rng(9)
    phi = unit_field(cache, 2, 4, rng)
    a = rough_laplacian(phi, route="adjoint")
    b = rough_laplacian(phi, route="formula")
    scale = max(l2_norm(a), 1e-30)
    assert l2_norm(a - b) / scale < 1e-10


def test_rough_laplacian_positive():
    cache = make_cache(metric="conformal")
    rng = np.random.default_rng(10)
    phi = unit_field(cache, 1, 4, rng)
    assert l2_inner(rough_laplacian(phi), phi) > 0


# ---------------------------------------------------------------------------
# L2 structure
# ---------------------------------------------------------------------------

def test_l2_norm_flat_closed_form():
    cache = make_cache(metric="flat")
    t1 = cache.spec.theta_mesh()[0]
    data = np.zeros((16, 16, 2))
    data[..., 0] = np.cos(t1)
    phi = TensorField(cache, "s0", 2, data)
    assert abs(l2_inner(phi, phi) - 2 * math.pi**2) < 1e-12


def test_l2_norm_conformal_closed_form():
    a = 0.3
    cache = make_cache(metric="conformal", f_text=f"{a}*cos(x1)", size=32)
    phi = zero_field(cache, 2)
    phi.data[..., 0] = 1.0
    # n=2, p=2: weight e^{(n-2p)f} = e^{-2f}; integral = (2pi)^2 I0(2a)
    expect = (2 * math.pi) ** 2 * i0(2 * a)
    assert abs(l2_inner(phi, phi) - expect) < 1e-10 * expect


def test_l2_inner_tags_consistent():
    cache = make_cache(metric="conformal")
    rng = np.random.default_rng(11)
    phi = unit_field(cache, 2, 4, rng)
    psi = unit_field(cache, 2, 4, rng)
    assert abs(
        l2_inner(phi, psi) - l2_inner(as_symmetric(phi), as_symmetric(psi))
    ) < 1e-12 * max(1.0, abs(l2_inner(phi, psi)))


# ---------------------------------------------------------------------------
# restrictions
# ---------------------------------------------------------------------------

def test_to_tracefree_projects():
    cache = make_cache(metric="flat")
    g_field = metric_as_field(cache)
    tf = to_tracefree(g_field)
    assert np.max(np.abs(tf.data)) < 1e-12  # the metric is pure trace
