"""Field operator tests: gradient, divergence, symmetrized derivative,
adjoints, and L2 structure, against analytic and generic-path oracles."""

import math

import numpy as np
import pytest
from scipy.special import i0

from gradlab import fiber, fields, geometry, gradients
from gradlab.expressions import TrigPoly, parse_trig_poly
from gradlab.fields import (
    FieldError,
    TensorField,
    divergence,
    fiber_shape,
    field_from_monomial,
    gradient,
    gradient_adjoint,
    l2_inner,
    l2_norm,
    max_trace_residual,
    rough_laplacian,
    sym_derivative,
    to_tracefree,
)
from gradlab.geometry import GridSpec, build_geometry
from testlib import (
    analytic_laplacian,
    divergence_exact_adjoint,
    l2_inner_weighted,
    metric_samples,
    restrict_matrix,
    rough_laplacian_formula,
    slice_first_tensor,
    sym_derivative_exact_adjoint,
    unit_field,
    weighted_grad_transpose_reference,
    zero_field,
)


# conformal metrics of the structure tests: f along the leading axis of a
# 2-torus, and f along the middle axis of a 3-torus, where h_l vanishes on
# the first and last axes, so the connection must take h_l on exactly the
# axes f depends on
CONFORMAL = ("conformal", "conformal_x2")


def make_cache(n=2, size=16, metric="flat", f_text="0.1*cos(x1)"):
    if metric == "conformal_x2":
        n, metric, f_text = 3, "conformal", "0.1*cos(x2)"
    spec = GridSpec(n=n, sizes=(size,) * n)
    if metric == "flat":
        f = TrigPoly([])
    elif metric == "conformal":
        f = parse_trig_poly(f_text)
    else:
        raise ValueError(metric)
    return build_geometry(spec, f)


def metric_as_field(cache):
    n = cache.n
    R = restrict_matrix(n, 2)
    mono = fields._left(R, metric_samples(cache), n, 2)
    return TensorField(cache, "s", 2, mono)


def as_symmetric(phi):
    return TensorField(phi.cache, "s", phi.rank, phi.monomial())


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_field_shape_validation():
    cache = make_cache()
    with pytest.raises(FieldError):
        TensorField(cache, "s0", 2, np.zeros((3, 16, 16)))
    with pytest.raises(FieldError):
        TensorField(cache, "weird", 2, np.zeros((2, 16, 16)))
    z = zero_field(cache, 2, "cov_s0")
    assert z.data.shape == (2, 2, 16, 16)


def test_batch_axes_lead_the_grid():
    cache = make_cache()
    assert zero_field(cache, 2).batch_shape == ()
    stack = TensorField(cache, "cov_s0", 2, np.zeros((3, 4, 2, 2, 16, 16)))
    assert stack.batch_shape == (3, 4)
    with pytest.raises(FieldError, match="batch"):
        TensorField(cache, "s0", 2, np.zeros((3, 3, 16, 16)))


@pytest.mark.parametrize("tag,rank", [("s0", 2), ("cov_s0", 2), ("s", 3), ("cov_s", 1)])
def test_field_layout_is_fiber_first(tag, rank):
    # the layout contract: fiber axes before the grid axes, batch axes in
    # front of both.  Grid-first data of the same field is refused
    cache = make_cache(3, 8, metric="conformal_x2")
    fib = fiber_shape(cache.n, tag, rank)
    assert fields.fiber_shape(cache.n, tag, rank) is fib  # one tuple per key
    assert TensorField(cache, tag, rank, np.zeros(fib + cache.spec.shape)).batch_shape == ()
    assert TensorField(cache, tag, rank,
                       np.zeros((2, 3) + fib + cache.spec.shape)).batch_shape == (2, 3)
    for data in (np.zeros(cache.spec.shape + fib), np.zeros((2,) + cache.spec.shape + fib)):
        with pytest.raises(FieldError, match="fiber axes before the grid"):
            TensorField(cache, tag, rank, data)


@pytest.mark.parametrize("metric", ["flat", "conformal", "conformal_x2"])
def test_gradient_is_per_component_differentiate(metric):
    # slot i of the gradient is the derivative of every fiber component
    # along axis i, minus the connection term; batch members are the
    # single fields' gradients
    cache = make_cache(metric=metric, size=8)
    n, spec = cache.n, cache.spec
    rng = np.random.default_rng(14)
    phi = unit_field(cache, 2, 2, rng)
    X = gradient(phi).data
    for i in range(n):
        expect = geometry.differentiate(phi.data, i, spec)
        for l in cache.exponent.variables:
            C = fields._connection_tensor(n, 2, True)[l, i]
            expect = expect - cache.h[l] * np.einsum("ab,b...->a...", C, phi.data)
        np.testing.assert_allclose(X[i], expect, rtol=0, atol=1e-13 * np.max(np.abs(X)))
        if not cache.exponent.variables:
            np.testing.assert_array_equal(X[i], expect)
    stack = TensorField(cache, "s0", 2, np.stack([phi.data, 2.0 * phi.data]))
    batch = gradient(stack).data
    assert batch.shape == (2,) + X.shape
    np.testing.assert_array_equal(batch[0], X)
    np.testing.assert_array_equal(batch[1], gradient(2.0 * phi).data)


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
    phi.data[...] = np.array([0.7, -0.2])[:, None, None]
    X = gradient(phi)
    assert np.max(np.abs(X.data)) < 1e-12


@pytest.mark.parametrize("metric", ["flat", *CONFORMAL])
def test_metric_compatibility(metric):
    cache = make_cache(metric=metric)
    X = gradient(metric_as_field(cache))
    assert np.max(np.abs(X.data)) < 1e-10


def test_gradient_product_rule():
    cache = make_cache(metric="conformal", size=32)
    rng = np.random.default_rng(0)
    phi = unit_field(cache, 2, band=4, rng=rng)
    fv = geometry.evaluate_on_grid(parse_trig_poly("cos(x1)"), cache.spec)
    lhs = gradient(TensorField(cache, "s0", 2, phi.data * fv))
    rhs = gradient(phi).data * fv
    for i in range(cache.n):
        dfi = geometry.coordinate_derivative(parse_trig_poly("cos(x1)"), i, cache.spec)
        rhs[i] += dfi * phi.data
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
        assert np.max(np.abs(X_genc.data - fields._left(B, X_fast.data, cache.n))) < 1e-12
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
    df = np.stack([geometry.coordinate_derivative(f, i, cache.spec) for i in range(2)])
    phi = TensorField(cache, "s0", 1, df)
    got = divergence(phi).data[0]
    expect = -analytic_laplacian(f, cache.spec)
    assert np.max(np.abs(got - expect)) < 1e-11


def test_divergence_of_constant_is_zero():
    cache = make_cache(metric="flat")
    phi = zero_field(cache, 2)
    phi.data[...] = np.array([1.0, 2.0])[:, None, None]
    assert np.max(np.abs(divergence(phi).data)) < 1e-12


def test_divergence_preserves_tracefree_generic_cross_check():
    cache = make_cache(metric="conformal", size=16)
    rng = np.random.default_rng(3)
    phi = unit_field(cache, 3, band=4, rng=rng)
    dphi = divergence(phi)
    # independent route: contract the generic-path covariant derivative
    X = gradient(as_symmetric(phi))  # (i, A, *grid) monomial
    n = cache.n
    Sl = slice_first_tensor(n, 3)
    g_inv = np.linalg.inv(np.moveaxis(metric_samples(cache), (0, 1), (-2, -1)))
    ginv_contract = np.einsum("...ij,jKA,iA...->K...", g_inv, Sl, X.data)
    expect = field_from_monomial(cache, 2, -ginv_contract)
    assert np.max(np.abs(dphi.data - expect.data)) < 1e-11
    assert max_trace_residual(dphi) < 1e-11


def test_sym_derivative_symmetry_and_p0():
    cache = make_cache(metric="conformal")
    rng = np.random.default_rng(4)
    phi = unit_field(cache, 0, band=4, rng=rng)
    X = sym_derivative(phi)
    assert X.tag == "s" and X.rank == 1
    grad = gradient(phi)
    assert np.max(np.abs(X.data - grad.data[:, 0])) < 1e-13


def test_flat_cache_forms_no_connection_product(monkeypatch):
    # f = 0 depends on no axis, so the connection loop is empty: a NaN
    # connection tensor reaches neither the gradient nor its transpose.  On
    # the conformal control it reaches both.
    tensor = fields._connection_tensor
    monkeypatch.setattr(fields, "_connection_tensor",
                        lambda *key: np.full_like(tensor(*key), np.nan))
    for metric, finite in (("flat", True), ("conformal", False)):
        cache = make_cache(metric=metric)
        rng = np.random.default_rng(11)
        phi = unit_field(cache, 2, 4, rng)
        shape = fiber_shape(cache.n, "cov_s0", 2) + cache.spec.shape
        X = TensorField(cache, "cov_s0", 2, rng.standard_normal(size=shape))
        assert np.all(np.isfinite(gradient(phi).data)) == finite, metric
        assert np.all(np.isfinite(gradient_adjoint(X).data)) == finite, metric


# ---------------------------------------------------------------------------
# quadrature weights: one number on a flat metric
# ---------------------------------------------------------------------------

def random_pair(cache, tag, rank, seed):
    rng = np.random.default_rng(seed)
    shape = fiber_shape(cache.n, tag, rank) + cache.spec.shape
    return (TensorField(cache, tag, rank, rng.standard_normal(shape)),
            TensorField(cache, tag, rank, rng.standard_normal(shape)))


def random_slots(cache, p, batch, seed):
    """A gradient-shaped (*batch, n, t, *grid) input of the weighted transpose."""
    t = fiber.tracefree_dim(cache.n, p)
    shape = batch + (cache.n, t) + cache.spec.shape
    return np.random.default_rng(seed).standard_normal(shape)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tag", ["s0", "cov_s0", "s", "cov_s"])
def test_flat_pairing_matches_the_weighted_route(n, tag):
    # every weight of a flat metric is the cell volume, so the pairing is
    # one sum of products, weighted by the multiplicities of a monomial
    # fiber.  Errors are relative to |a| |b|, the scale of the summed
    # products.  The sum is held to the exactly rounded sum at 1e-15; the
    # weighted route is itself up to 1.1e-15 from that sum (rank 1 on the
    # 3-torus), so the two routes are held to twice that
    cache = make_cache(n, 12 if n == 3 else 16)
    for rank in (1, 2, 3):
        a, b = random_pair(cache, tag, rank, seed=rank)
        mult = fiber.multiplicities(n, rank) if tag in ("s", "cov_s") else 1.0
        scale = math.sqrt(l2_inner_weighted(a, a) * l2_inner_weighted(b, b))
        for u, v in ((a, b), (a, a)):
            prod = u.data * v.data * np.reshape(mult, np.shape(mult) + (1,) * n)
            exact = cache.spec.cell_volume * math.fsum(prod.ravel().tolist())
            assert abs(l2_inner(u, v) - exact) <= 1e-15 * scale
            assert abs(l2_inner(u, v) - l2_inner_weighted(u, v)) <= 2e-15 * scale


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("batch", [(), (2,)])
def test_flat_weighted_transpose_matches_the_weighted_route(n, batch):
    # w_cod and w_dom are both the cell volume and cancel; the input is not
    # weighted in place
    cache = make_cache(n, 12 if n == 3 else 16)
    for p in (1, 2, 3):
        slots = random_slots(cache, p, batch, seed=p)
        before = slots.copy()
        got = fields._weighted_grad_transpose(cache, p, slots)
        ref = weighted_grad_transpose_reference(cache, p, before)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
        np.testing.assert_array_equal(slots, before)


@pytest.mark.parametrize("metric", CONFORMAL)
def test_conformal_pairing_and_transpose_are_the_weighted_routes(metric):
    # the weighted pairing is one reduction with the weight broadcast over
    # the grid, held to the exactly rounded weighted sum as the flat one is;
    # the transpose keeps the weighted arithmetic bit for bit
    cache = make_cache(metric=metric)
    n = cache.n
    for tag, rank in (("s0", 2), ("cov_s0", 2), ("s", 2), ("cov_s", 1)):
        a, b = random_pair(cache, tag, rank, seed=rank)
        mult = fiber.multiplicities(n, rank) if tag in ("s", "cov_s") else 1.0
        w = fields.fiber_weight_scalar(cache, tag, rank)
        prod = a.data * b.data * np.reshape(mult, np.shape(mult) + (1,) * n) * w
        scale = math.sqrt(l2_inner_weighted(a, a) * l2_inner_weighted(b, b))
        assert abs(l2_inner(a, b) - math.fsum(prod.ravel().tolist())) <= 1e-15 * scale, tag
    for p in (1, 2):
        slots = random_slots(cache, p, (2,), seed=p)
        ref = weighted_grad_transpose_reference(cache, p, slots)
        np.testing.assert_array_equal(fields._weighted_grad_transpose(cache, p, slots), ref)


def test_flat_adjoint_reads_no_weight_array(monkeypatch):
    # on a flat metric the exact adjoints and the trace-free pairings never
    # form a weight array; on the conformal control every one of them does
    calls = []
    weight = fields.fiber_weight_scalar

    def counted(*args):
        calls.append(args[1:])
        return weight(*args)

    monkeypatch.setattr(fields, "fiber_weight_scalar", counted)
    for metric, reads in (("flat", False), ("conformal", True)):
        cache = make_cache(metric=metric)
        phi = unit_field(cache, 2, 4, np.random.default_rng(12))
        X, _ = random_pair(cache, "cov_s0", 2, seed=12)
        psi, _ = random_pair(cache, "s0", 3, seed=13)
        for adjoint, arg in ((gradient_adjoint, X), (gradients.d1_exact_adjoint, psi),
                             (gradients.d2_exact_adjoint, X),
                             (gradients.d3_exact_adjoint, X)):
            calls.clear()
            l2_inner(phi, adjoint(arg))
            l2_inner(X, X)
            assert bool(calls) == reads, (metric, adjoint.__name__)


# ---------------------------------------------------------------------------
# adjoints: exact transposes and analytic pairings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["flat", *CONFORMAL])
def test_gradient_adjoint_exact_pairing(metric):
    cache = make_cache(metric=metric)
    rng = np.random.default_rng(5)
    phi = unit_field(cache, 2, 4, rng)
    shape = fiber_shape(cache.n, "cov_s0", 2) + cache.spec.shape
    X = TensorField(cache, "cov_s0", 2, rng.standard_normal(size=shape))
    lhs = l2_inner(gradient(phi), X)
    rhs = l2_inner(phi, gradient_adjoint(X))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_divergence_adjoint_exact_pairing(p):
    for metric in CONFORMAL:
        cache = make_cache(metric=metric)
        rng = np.random.default_rng(6)
        phi = unit_field(cache, p, 4, rng)
        psi = unit_field(cache, p - 1, 4, rng)
        lhs = l2_inner(divergence(phi), psi)
        rhs = l2_inner(phi, divergence_exact_adjoint(psi))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs)), metric


def test_sym_derivative_adjoint_exact_pairing():
    for metric in CONFORMAL:
        cache = make_cache(metric=metric)
        rng = np.random.default_rng(7)
        phi = unit_field(cache, 2, 4, rng)
        shape = fiber_shape(cache.n, "s", 3) + cache.spec.shape
        omega = TensorField(cache, "s", 3, rng.standard_normal(size=shape))
        lhs = l2_inner(sym_derivative(phi), omega)
        rhs = l2_inner(phi, sym_derivative_exact_adjoint(omega))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs)), metric


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
    data = np.zeros((2, 16, 16))
    data[0] = np.cos(t1)
    phi = TensorField(cache, "s0", 2, data)
    for route in (rough_laplacian, rough_laplacian_formula):
        got = route(phi)
        assert np.max(np.abs(got.data - phi.data)) < 1e-11, route.__name__


def test_rough_laplacian_routes_agree_conformal():
    for metric in CONFORMAL:
        cache = make_cache(metric=metric, size=32)
        rng = np.random.default_rng(9)
        phi = unit_field(cache, 2, 4, rng)
        a = rough_laplacian(phi)
        b = rough_laplacian_formula(phi)
        scale = max(l2_norm(a), 1e-30)
        assert l2_norm(a - b) / scale < 1e-10, metric


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
    data = np.zeros((2, 16, 16))
    data[0] = np.cos(t1)
    phi = TensorField(cache, "s0", 2, data)
    assert abs(l2_inner(phi, phi) - 2 * math.pi**2) < 1e-12


def test_l2_norm_conformal_closed_form():
    a = 0.3
    cache = make_cache(metric="conformal", f_text=f"{a}*cos(x1)", size=32)
    phi = zero_field(cache, 2)
    phi.data[0] = 1.0
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
