"""Gradient-operator tests: the three first-order pieces against projector
and insertion oracles, exact adjoints, second-order identities, and
negative controls with corrupted conventions."""

import numpy as np
import pytest

from gradlab import fiber, fields, gradients
from gradlab.expressions import TrigPoly, parse_trig_poly
from gradlab.fields import l2_inner, l2_norm
from gradlab.geometry import GridSpec, build_geometry
from gradlab.gradients import (
    Conventions,
    ConventionError,
    ahlfors_deformation,
    ahlfors_ratio,
    d1,
    d1_exact_adjoint,
    d2,
    d2_exact_adjoint,
    d2_insertion_oracle,
    d2_prefactor,
    d3,
    d3_exact_adjoint,
    decompose,
    embed_symmetrized,
    embed_transpose,
    energy_coefficient,
    insertion_eigenvalue,
    projector_components,
    projector_match_residuals,
    sampson,
    second_order_residuals,
    stein_weiss_d1,
    sw_coefficient,
    weitzenbock_K,
    zeroth_order_residual,
)
from testlib import (
    closed_form_curvature,
    gauss_curvature_2d_oracle,
    metric_samples,
    unit_field,
    zero_field,
)


def make_cache(n=2, size=16, metric="flat", f_text=None, method="spectral"):
    spec = GridSpec(n=n, sizes=(size,) * n)
    if metric == "flat":
        f = TrigPoly([])
    else:
        # mild conformal factors keep spectral aliasing near the float floor
        if f_text is None:
            f_text = "0.1*cos(x1)" if n == 2 else "0.05*cos(x1)"
        f = parse_trig_poly(f_text)
    return build_geometry(spec, f, method=method)


def random_field(cache, rank, seed=0, band=4):
    rng = np.random.default_rng(seed)
    return unit_field(cache, rank, band, rng)


def full_rank2(mono, n):
    """Expand monomial rank-2 coordinates to full (j, k) components."""
    F = np.empty(mono.shape[:-1] + (n, n))
    for A, (j, k) in enumerate(fiber.sym_indices(n, 2)):
        F[..., j, k] = mono[..., A]
        F[..., k, j] = mono[..., A]
    return F


def cov_components(X):
    """(*grid, i, j, k) components of a 'cov_s0' rank-2 field."""
    B, _ = fiber.tracefree_basis(X.n, 2)
    return full_rank2(X.data @ B.T, X.n)


# ---------------------------------------------------------------------------
# coefficients: frozen values and relations
# ---------------------------------------------------------------------------

def test_coefficient_values():
    # reinsertion prefactor at (n, p) = (4, 2) is 2/9; the generic
    # expression degenerates at p = 1 where it must equal 1/n
    assert d2_prefactor(4, 2) == pytest.approx(2.0 / 9.0, abs=1e-15)
    assert d2_prefactor(3, 2) == pytest.approx(3.0 / 10.0, abs=1e-15)
    assert d2_prefactor(2, 1) == pytest.approx(0.5, abs=1e-15)
    assert d2_prefactor(3, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert insertion_eigenvalue(3, 1) == pytest.approx(3.0, abs=1e-15)
    assert insertion_eigenvalue(2, 2) == pytest.approx(1.0, abs=1e-15)
    assert insertion_eigenvalue(3, 2) == pytest.approx(10.0 / 6.0, abs=1e-14)


def test_prefactor_eigenvalue_relation():
    # the literal prefactor equals 1/(lambda * p) for every (n, p)
    for n in (2, 3, 4, 5):
        for p in (1, 2, 3, 4):
            assert d2_prefactor(n, p) * insertion_eigenvalue(n, p) * p == pytest.approx(
                1.0, abs=1e-13
            )


def test_sw_coefficient_variants():
    # at rank 2 the coefficient is the fixed-numerator literal 4/(3(n+2))
    for n in (2, 3, 4):
        assert sw_coefficient(n, 2) == pytest.approx(4.0 / (3.0 * (n + 2)), abs=1e-15)
    assert sw_coefficient(3, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert sw_coefficient(3, 3) == pytest.approx(6.0 / 28.0, abs=1e-15)


def test_energy_coefficient_values():
    # p = 1 reduces to (n-2)/(2n)
    assert energy_coefficient(3, 1) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert energy_coefficient(2, 1) == pytest.approx(0.0, abs=0.0)
    assert energy_coefficient(2, 2) == pytest.approx(2.0 * 2.0 / (3.0 * 4.0), abs=1e-15)
    assert energy_coefficient(4, 2) == pytest.approx(2.0 * 4.0 / (3.0 * 6.0), abs=1e-15)


# ---------------------------------------------------------------------------
# structure matrices: literal display vs independent insertion route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2)])
def test_literal_matches_insertion_matrix(n, p):
    lam = insertion_eigenvalue(n, p)
    lit = gradients._d2_literal_mono(n, p)
    ins = gradients._insertion_matrix_mono(n, p) / lam
    assert np.max(np.abs(lit - ins)) < 1e-12


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_literal_rows_are_tracefree(n, p):
    # compressing then re-expanding the literal rows loses nothing
    lit = gradients._d2_literal_mono(n, p)
    B, C = fiber.tracefree_basis(n, p)
    assert np.max(np.abs(B @ (C @ lit) - lit)) < 1e-12


# ---------------------------------------------------------------------------
# d1: trace arbitration and basic behavior
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["flat", "conformal"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_d1_output_is_tracefree(metric, p):
    cache = make_cache(2, 16, metric)
    phi = random_field(cache, p, seed=p)
    om = d1(phi)
    assert om.rank == p + 1
    assert fields.max_trace_residual(om) < 1e-12


def test_d1_constant_field_flat():
    cache = make_cache(3, 8, "flat")
    phi = zero_field(cache, 2)
    phi.data[...] = np.array([0.3, -0.1, 0.7, 0.2, 0.05])
    sp = decompose(phi)
    assert l2_norm(sp.grad) < 1e-13
    assert l2_norm(sp.d1) < 1e-13
    assert l2_norm(sp.d2) < 1e-13
    assert l2_norm(sp.d3) < 1e-13


def test_d1_wrong_divergence_sign_raises():
    cache = make_cache(2, 16, "flat")
    phi = random_field(cache, 2, seed=1)
    with pytest.raises(ConventionError):
        d1(phi, Conventions(delta_sign=-1.0))


@pytest.mark.parametrize("metric", ["flat", "conformal"])
def test_d1_trace_guard_holds_each_batch_member(metric):
    # member 1 of the batch carries the wrong divergence sign.  Member 0 has
    # a gradient 1e8 times larger, which must not hide member 1's trace
    # residual: each member is held to its own gradient.
    cache = make_cache(metric=metric)
    p = 2
    data = np.stack([random_field(cache, p, seed=s).data for s in range(3)])
    data[0] *= 1e8
    phi = fields.TensorField(cache, "s0", p, data)
    X = fields._grad_apply(cache, p, data)
    dphi = fields._contract_apply(cache, p, X)
    assert gradients._d1_from_grad(phi, X, dphi).batch_shape == (3,)
    dphi[1] *= -1.0
    with pytest.raises(ConventionError, match="trace residual"):
        gradients._d1_from_grad(phi, X, dphi)


def test_d1_wrong_sign_raises_conformal_too():
    cache = make_cache(2, 16, "conformal")
    phi = random_field(cache, 1, seed=2)
    with pytest.raises(ConventionError):
        d1(phi, Conventions(delta_sign=-1.0))


@pytest.mark.parametrize("p", [1, 2])
def test_d1_accepts_conformal_killing_tensors(p):
    # e^{2pf} times a constant lies in the d1 kernel of the conformal metric
    # e^{2f} delta; the trace guard must not mistake a vanishing output for
    # a convention error.  e^{2pf} is not band-limited, so the kernel is
    # only resolved to the grid's aliasing level (1e-10 at p = 2, N = 16)
    cache = make_cache(2, 16, "conformal", f_text="0.1*cos(x1) + 0.05*sin(x2)")
    phi = zero_field(cache, p)
    c = np.arange(1.0, phi.data.shape[-1] + 1.0)
    phi.data[...] = np.exp(2.0 * p * cache.conf_exponent_values)[..., None] * c
    out = d1(phi)
    grad = fields.gradient(phi)
    assert l2_norm(out) <= 1e-8 * l2_norm(grad)
    with pytest.raises(ConventionError):
        d1(phi, Conventions(delta_sign=-1.0))


# ---------------------------------------------------------------------------
# the decomposition against the projector oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["flat", "conformal"])
@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_pieces_match_projector_route(metric, n, p):
    cache = make_cache(n, 16 if n == 2 else 12, metric)
    phi = random_field(cache, p, seed=10 * n + p, band=3)
    res = projector_match_residuals(decompose(phi))
    # the structure-tensor pieces equal the projector images pointwise,
    # not merely up to discretization
    assert res["d1"] < 1e-10
    assert res["d2"] < 1e-10
    assert res["d3"] < 1e-10


@pytest.mark.parametrize("metric", ["flat", "conformal"])
def test_decompose_orthogonality_and_reconstruction(metric):
    cache = make_cache(2, 16, metric)
    for p in (1, 2, 3):
        phi = random_field(cache, p, seed=p)
        sp = decompose(phi)
        assert sp.reconstruction_residual < 1e-13
        for v in sp.orthogonality.values():
            assert v < 1e-12
        # the split's first piece and divergence are the standalone
        # operators', bit for bit
        assert np.array_equal(sp.d1.data, gradients.d1(phi).data)
        assert np.array_equal(sp.divergence.data, fields.divergence(phi).data)


def test_norms_pythagoras():
    cache = make_cache(3, 12, "conformal")
    sp = decompose(random_field(cache, 2, seed=5, band=3))
    total = sp.norms["d1"] ** 2 + sp.norms["d2"] ** 2 + sp.norms["d3"] ** 2
    assert total == pytest.approx(sp.norms["grad"] ** 2, rel=1e-12)


def test_projector_components_resolve_identity():
    cache = make_cache(2, 16, "conformal")
    X = fields.gradient(random_field(cache, 2, seed=3))
    parts = projector_components(X)
    back = parts["A"] + parts["B"] + parts["C"]
    assert l2_norm(X - back) / l2_norm(X) < 1e-13


def test_d3_vanishes_for_rank2_in_two_dimensions():
    # T* (x) S0^p has no remainder summand at n = 2 for p >= 2
    cache = make_cache(2, 16, "conformal")
    for p in (2, 3):
        phi = random_field(cache, p, seed=p)
        assert l2_norm(d3(phi)) / l2_norm(fields.gradient(phi)) < 1e-12


def test_d3_curl_part_in_two_dimensions_rank1():
    # at n = 2, p = 1 the remainder is the antisymmetric (curl) part
    cache = make_cache(2, 16, "flat")
    phi = random_field(cache, 1, seed=4)
    d3f = d3(phi)
    comp = d3f.data  # (.., i, j): rank-1 trace-free basis is the identity
    sym = comp + np.swapaxes(comp, -1, -2)
    assert np.max(np.abs(sym)) < 1e-12 * (np.max(np.abs(comp)) + 1e-300)


# ---------------------------------------------------------------------------
# d2: insertion oracle, displays, special fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["flat", "conformal"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_d2_matches_insertion_oracle_fieldwise(metric, p):
    cache = make_cache(2, 16, metric)
    phi = random_field(cache, p, seed=p)
    a = d2(phi)
    b = d2_insertion_oracle(phi)
    assert l2_norm(a - b) / (l2_norm(a) + 1e-300) < 1e-12


@pytest.mark.parametrize("metric", ["flat", "conformal"])
def test_d2_rank2_component_display(metric):
    # (d2 phi)_{i,jk} = -n/((n+2)(n-1)) (g_ij dphi_k + g_ik dphi_j
    #                                    - (2/n) g_jk dphi_i)
    n = 3
    cache = make_cache(n, 12, metric)
    phi = random_field(cache, 2, seed=7, band=3)
    dphi = fields.divergence(phi).data  # rank-1 coords are components
    g = metric_samples(cache)
    pref = -n / ((n + 2.0) * (n - 1.0))
    want = np.empty(cache.spec.shape + (n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                want[..., i, j, k] = pref * (
                    g[..., i, j] * dphi[..., k]
                    + g[..., i, k] * dphi[..., j]
                    - (2.0 / n) * g[..., j, k] * dphi[..., i]
                )
    got = cov_components(d2(phi))
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("metric", ["flat", "conformal"])
def test_d3_rank2_component_display(metric):
    # (d3 phi)_{ijk} = (1/3)(2(X_ijk - g_jk dphi_i/(n-1))
    #                        - (X_jki - g_ki dphi_j/(n-1))
    #                        - (X_kij - g_ij dphi_k/(n-1)))
    n = 3
    cache = make_cache(n, 12, metric)
    phi = random_field(cache, 2, seed=8, band=3)
    X = cov_components(fields.gradient(phi))
    dphi = fields.divergence(phi).data
    g = metric_samples(cache)
    c = 1.0 / (n - 1.0)
    want = np.empty_like(X)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                want[..., i, j, k] = (
                    2.0 * (X[..., i, j, k] - c * g[..., j, k] * dphi[..., i])
                    - (X[..., j, k, i] - c * g[..., k, i] * dphi[..., j])
                    - (X[..., k, i, j] - c * g[..., i, j] * dphi[..., k])
                ) / 3.0
    got = cov_components(d3(phi))
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want) + 1e-300)


def test_d2_zero_for_divergence_free_field():
    # rotated gradient on the flat 2-torus is exactly divergence-free
    cache = make_cache(2, 16, "flat")
    from gradlab.geometry import differentiate, evaluate_on_grid

    u = evaluate_on_grid(parse_trig_poly("cos(x1 + 2*x2) + 0.5*sin(2*x1)"), cache.spec)
    comp = np.stack(
        [-differentiate(u, 1, cache.spec, "spectral"),
         differentiate(u, 0, cache.spec, "spectral")],
        axis=-1,
    )
    phi = fields.field_from_monomial(cache, 1, comp, tag="s0")
    assert l2_norm(fields.divergence(phi)) < 1e-12
    assert l2_norm(d2(phi)) < 1e-12


def test_d2_best_fit_scalar_is_one():
    # least-squares scalar fitting d2 against the projector-route image
    cache = make_cache(3, 12, "conformal")
    phi = random_field(cache, 3, seed=9, band=3)
    sp = decompose(phi)
    part = projector_components(sp.grad)["B"]
    c = l2_inner(sp.d2, part) / l2_inner(part, part)
    assert c == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embed_isometry_and_roundtrip():
    cache = make_cache(2, 16, "conformal")
    om = random_field(cache, 3, seed=11)
    emb = embed_symmetrized(om)
    assert l2_norm(emb) == pytest.approx(l2_norm(om), rel=1e-13)
    back = embed_transpose(emb)
    assert l2_norm(back - om) / l2_norm(om) < 1e-13


# ---------------------------------------------------------------------------
# exact adjoints: pairings close at roundoff
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["flat", "conformal"])
@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 2)])
def test_d1_adjoint_pairing(metric, n, p):
    cache = make_cache(n, 12, metric)
    phi = random_field(cache, p, seed=21, band=3)
    om = random_field(cache, p + 1, seed=22, band=3)
    lhs = l2_inner(d1(phi), om)
    rhs = l2_inner(phi, d1_exact_adjoint(om))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("metric", ["flat", "conformal"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_d2_d3_adjoint_pairings(metric, p):
    cache = make_cache(2, 12, metric)
    phi = random_field(cache, p, seed=23, band=3)
    X = fields.gradient(random_field(cache, p, seed=24, band=3))
    assert l2_inner(d2(phi), X) == pytest.approx(
        l2_inner(phi, d2_exact_adjoint(X)), rel=1e-12, abs=1e-14
    )
    assert l2_inner(d3(phi), X) == pytest.approx(
        l2_inner(phi, d3_exact_adjoint(X)), rel=1e-12, abs=1e-14
    )


# ---------------------------------------------------------------------------
# second-order composition: two routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["flat", "conformal"])
@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_stein_weiss_two_routes_agree(metric, n, p):
    cache = make_cache(n, 32 if n == 2 else 20, metric)
    phi = random_field(cache, p, seed=30 + p, band=3)
    a = stein_weiss_d1(phi, route="formula")
    b = stein_weiss_d1(phi, route="transpose")
    assert l2_norm(a - b) / l2_norm(b) < 1e-8


def fixed_numerator_formula(phi):
    """The formula route with the delta*delta coefficient's numerator fixed
    at 4 (= 2p at p = 2) instead of sw_coefficient."""
    n, p = phi.n, phi.rank
    t1 = fields.to_tracefree(fields.divergence(fields.sym_derivative(phi)))
    t2 = fields.to_tracefree(fields.sym_derivative(fields.divergence(phi)))
    return t1 - (4.0 / ((p + 1) * (n + 2 * (p - 1)))) * t2


def test_stein_weiss_fixed_numerator_only_matches_at_rank_two():
    cache = make_cache(2, 16, "flat")
    phi2 = random_field(cache, 2, seed=31)
    a = fixed_numerator_formula(phi2)
    b = stein_weiss_d1(phi2, route="transpose")
    assert l2_norm(a - b) / l2_norm(b) < 1e-10
    phi3 = random_field(cache, 3, seed=32)
    a = fixed_numerator_formula(phi3)
    b = stein_weiss_d1(phi3, route="transpose")
    assert l2_norm(a - b) / l2_norm(b) > 1e-4


def test_sampson_equals_composition_split():
    # the operator split (1/(p+1)) Delta_S + (p/(p+1))(1 - 2/(n+2(p-1)))
    # delta* delta reproduces the direct two-term composition
    cache = make_cache(3, 12, "conformal")
    for p in (1, 2):
        phi = random_field(cache, p, seed=40 + p, band=3)
        n = 3
        lhs = (1.0 / (p + 1)) * fields.to_tracefree(sampson(phi))
        coef = (p / (p + 1.0)) * (1.0 - 2.0 / (n + 2.0 * (p - 1)))
        t2 = fields.to_tracefree(fields.sym_derivative(fields.divergence(phi)))
        lhs = lhs + coef * t2
        rhs = stein_weiss_d1(phi, route="formula")
        assert l2_norm(lhs - rhs) / (l2_norm(rhs) + 1e-300) < 1e-10


def test_sampson_flat_equals_rough_laplacian():
    # no curvature: the symmetrized Laplacian agrees with nabla*nabla
    cache = make_cache(2, 16, "flat")
    for p in (1, 2):
        phi = random_field(cache, p, seed=50 + p)
        a = fields.to_tracefree(sampson(phi))
        b = fields.rough_laplacian(phi)
        assert l2_norm(a - b) / l2_norm(b) < 1e-8


def _energy_values(phi):
    """Squared weighted norms behind the energy identities."""
    p = phi.rank
    sp = decompose(phi)
    ds = fields.sym_derivative(phi)
    dv = fields.divergence(phi)
    vals = {
        "grad_sq": sp.norms["grad"] ** 2,
        "d1_sq": sp.norms["d1"] ** 2,
        "sym_derivative_sq": l2_inner(ds, ds),
        "divergence_sq": l2_inner(dv, dv),
    }
    vals["sampson_q"] = (p + 1.0) * vals["sym_derivative_sq"] - float(p) * vals["divergence_sq"]
    return vals


def test_sampson_nonnegative_flat():
    cache = make_cache(2, 16, "flat")
    for p in (1, 2, 3):
        phi = random_field(cache, p, seed=60 + p)
        assert _energy_values(phi)["sampson_q"] >= -1e-12


def test_constant_one_forms_in_sampson_kernel():
    cache = make_cache(2, 16, "flat")
    phi = zero_field(cache, 1)
    phi.data[..., 0] = 0.6
    phi.data[..., 1] = -0.2
    assert l2_norm(sampson(phi)) < 1e-13


# ---------------------------------------------------------------------------
# the zeroth-order curvature term
# ---------------------------------------------------------------------------

def test_curvature_term_vanishes_flat():
    cache = make_cache(2, 16, "flat")
    phi = random_field(cache, 2, seed=70)
    K = weitzenbock_K(phi)
    assert l2_norm(K) / l2_norm(fields.rough_laplacian(phi)) < 1e-9


@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_curvature_term_matches_pointwise_formula(n, p):
    cache = make_cache(n, 32 if n == 2 else 20, "conformal")
    phi = random_field(cache, p, seed=80 + p, band=3)
    rep = second_order_residuals(phi)
    assert rep["curvature_oracle"] < 1e-9


def _curvature_route_einsum(phi):
    """The curvature route as per-point einsums over the slot tensors, with
    the cache's Ricci and Riemann tensors raised by the sampled inverse
    metric."""
    cache, p, n = phi.cache, phi.rank, phi.n
    mono = phi.monomial()
    ricci, riemann = closed_form_curvature(cache)
    g_inv = np.exp(-2.0 * cache.conf_exponent_values)[..., None, None] * np.eye(n)
    T1 = np.einsum("...jm,...mk->...jk", ricci, g_inv)
    out = np.einsum(
        "...jk,AjkB,...B->...A", T1, fiber.slot_replace_tensor(n, p), mono,
        optimize=True,
    )
    if p >= 2:
        T2 = np.einsum(
            "...jalb,...ak,...bs->...jkls",
            riemann, g_inv, g_inv, optimize=True,
        )
        out -= np.einsum(
            "...jkls,AjklsB,...B->...A",
            T2, fiber.double_slot_replace_tensor(n, p), mono, optimize=True,
        )
    return fields.field_from_monomial(cache, p, out, tag="s0")


@pytest.mark.parametrize("metric", ["flat", "conformal"])
@pytest.mark.parametrize("n,size", [(2, 16), (3, 12)])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_curvature_route_matches_einsum(n, size, p, metric):
    cache = make_cache(n, size, metric)
    phi = random_field(cache, p, seed=60 + p, band=3)
    got = weitzenbock_K(phi, route="curvature").data
    ref = _curvature_route_einsum(phi).data
    if metric == "flat":
        assert not np.any(got) and not np.any(ref)
    else:
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n,size", [(2, 16), (3, 12)])
def test_conformal_index_raising_matches_g_inv(n, size):
    # g^{-1} = e^{-2f} delta, so raising an index is a scalar factor: the
    # curvature route's e^{-2f} Ricci and e^{-4f} Riemann against the
    # generic contractions with the inverted metric samples
    cache = make_cache(n, size, "conformal")
    f2, f4 = cache.conformal_factor(-2.0), cache.conformal_factor(-4.0)
    g_inv = np.linalg.inv(metric_samples(cache))
    assert np.max(np.abs(g_inv - f2[..., None, None] * np.eye(n))) <= 1e-15
    ricci, riemann = closed_form_curvature(cache)
    T1 = np.einsum("...jm,...mk->...jk", ricci, g_inv)
    T2 = np.einsum("...jalb,...ak,...bs->...jkls",
                   riemann, g_inv, g_inv, optimize=True)
    for got, ref in ((fields._scale(ricci, f2, 2), T1),
                     (fields._scale(riemann, f4, 4), T2)):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_curvature_route_is_zero_on_zero_curvature(n, p):
    # the flat cache is exactly flat under either field method (T = 0 and
    # h = 0 exactly), and so is the route, single and stacked
    for method in ("spectral", "fd4"):
        cache = make_cache(n, 8, "flat", method=method)
        assert not np.any(cache.T) and not np.any(cache.h)
        t = fiber.tracefree_dim(n, p)
        data = np.random.default_rng(p).standard_normal((2,) + cache.spec.shape + (t,))
        for phi in (fields.TensorField(cache, "s0", p, data),
                    fields.TensorField(cache, "s0", p, data[0])):
            K = weitzenbock_K(phi, route="curvature").data
            assert K.shape == phi.data.shape and not np.any(K)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_curvature_term_2d_scalar_action(p):
    # on a conformal 2-torus the curvature term acts as p^2 K (Gauss curvature)
    cache = make_cache(2, 32, "conformal", f_text="0.2*cos(x1) + 0.1*sin(x2)")
    phi = random_field(cache, p, seed=90 + p, band=3)
    K = weitzenbock_K(phi)
    gauss = gauss_curvature_2d_oracle(cache.exponent, cache.spec)
    want = fields.TensorField(
        cache, "s0", p, (p * p) * gauss[..., None] * phi.data
    )
    assert l2_norm(K - want) / (l2_norm(want) + 1e-300) < 1e-9


def test_curvature_term_zeroth_order_under_refinement():
    # with fourth-order stencils the commutator with a scalar multiplier
    # is pure discretization error and must shrink ~16x per halving;
    # use one fixed analytic field so both sizes sample the same function
    from gradlab.geometry import evaluate_on_grid

    comp_texts = [
        "cos(x1 + 2*x2) + 0.3*sin(2*x1)",
        "sin(x1 + x2) + 0.2*cos(x2)",
        "0.5*cos(2*x2) + 0.2*sin(x1 + 2*x2)",
    ]
    vals = {}
    for size in (16, 32):
        cache = make_cache(2, size, "conformal", method="fd4")
        mono = np.stack(
            [evaluate_on_grid(parse_trig_poly(t), cache.spec) for t in comp_texts],
            axis=-1,
        )
        phi = fields.field_from_monomial(cache, 2, mono, tag="s0")
        mesh = cache.spec.theta_mesh()
        u = 1.0 + 0.3 * np.cos(mesh[0]) * np.sin(mesh[1])
        vals[size] = zeroth_order_residual(phi, u, weitzenbock_K(phi))
    assert vals[32] < vals[16] / 10.0


def test_q_form_integral_matches_quadratic_route():
    cache = make_cache(2, 32, "conformal")
    phi = random_field(cache, 2, seed=96, band=3)
    rep = second_order_residuals(phi)
    assert rep["q_form_route"] < 1e-9


# ---------------------------------------------------------------------------
# operator identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["flat", "conformal"])
@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_second_order_identities(metric, n, p):
    cache = make_cache(n, 32 if n == 2 else 20, metric)
    phi = random_field(cache, p, seed=100 + p, band=3)
    rep = second_order_residuals(phi)
    assert rep["split_vs_rough"] < 1e-10
    assert rep["rough_identity"] < 1e-8
    assert rep["difference_identity"] < 1e-8


@pytest.mark.parametrize("metric", ["flat", "conformal"])
@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_integral_identities_close_at_roundoff(metric, n, p):
    cache = make_cache(n, 16 if n == 2 else 12, metric)
    phi = random_field(cache, p, seed=110 + p, band=3)
    rep = second_order_residuals(phi)
    assert rep["energy"] < 1e-12
    assert rep["rough_energy"] < 1e-12
    assert rep["split_energy"] < 1e-12


def test_energy_sign_variant_is_visibly_wrong():
    # keeping the opposite sign on the divergence term leaves a residual
    # of about twice the coefficient times ||delta phi||^2
    cache = make_cache(3, 12, "flat")
    phi = random_field(cache, 2, seed=120, band=3)
    rep = second_order_residuals(phi)
    vals = _energy_values(phi)
    assert rep["energy"] < 1e-12
    assert rep["energy_flipped"] > 1e-3
    expected = 2.0 * energy_coefficient(3, 2) * vals["divergence_sq"]
    scale = max(
        vals["grad_sq"],
        vals["d1_sq"],
        vals["sym_derivative_sq"],
        vals["divergence_sq"],
    )
    assert rep["energy_flipped"] == pytest.approx(expected / scale, rel=1e-10)


# ---------------------------------------------------------------------------
# negative controls: corrupted conventions break the right checks
# ---------------------------------------------------------------------------

def test_corrupted_prefactor_breaks_orthogonality_not_reconstruction():
    cache = make_cache(2, 16, "flat")
    phi = random_field(cache, 2, seed=130)
    bad = Conventions(d2_prefactor_scale=1.05)
    sp = decompose(phi, bad)
    # reconstruction is by definition and must stay exact
    assert sp.reconstruction_residual < 1e-13
    # the d2/d3 pair stops being orthogonal and both leave the projector images
    assert sp.orthogonality["d2_d3"] > 1e-3
    res = projector_match_residuals(sp)
    assert res["d2"] > 1e-3
    assert res["d3"] > 1e-3
    assert res["d1"] < 1e-10  # d1 untouched by the d2 corruption


def test_corrupted_prefactor_detected_by_insertion_oracle():
    cache = make_cache(2, 16, "flat")
    phi = random_field(cache, 2, seed=131)
    bad = Conventions(d2_prefactor_scale=1.05)
    a = d2(phi, bad)
    b = d2_insertion_oracle(phi)  # oracle keeps the arbitrated convention
    assert l2_norm(a - b) / l2_norm(b) > 1e-3


# ---------------------------------------------------------------------------
# measured diagnostics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["flat", "conformal"])
@pytest.mark.parametrize("n", [2, 3])
def test_ahlfors_ratio_is_four(metric, n):
    cache = make_cache(n, 16 if n == 2 else 12, metric)
    phi = random_field(cache, 1, seed=140 + n, band=3)
    S = ahlfors_deformation(phi)
    assert fields.max_trace_residual(S) < 1e-12
    assert ahlfors_ratio(phi) == pytest.approx(4.0, abs=1e-10)


def test_double_divergence_is_generically_nonzero():
    cache = make_cache(2, 16, "flat")
    phi = random_field(cache, 2, seed=150)
    r = l2_norm(fields.divergence(fields.divergence(phi))) / l2_norm(phi)
    assert np.isfinite(r)
    assert r > 1e-3


# ---------------------------------------------------------------------------
# fiber contractions: each one matmul, against the einsum it replaced
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch", [(), (2,)], ids=["single", "stacked"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fiber_contractions_match_einsum(n, p, batch):
    cache = make_cache(n, 8, "conformal")
    rng = np.random.default_rng(10 * n + p)
    lead = batch + cache.spec.shape
    t, t_low = fiber.tracefree_dim(n, p), fiber.tracefree_dim(n, p - 1)
    X = rng.standard_normal(lead + (n, t))
    y = rng.standard_normal(lead + (t_low,))
    omega = rng.standard_normal(lead + (fiber.sym_dim(n, p + 1),))
    phi_s = rng.standard_normal(lead + (fiber.sym_dim(n, p),))

    def scaled(values, power, extra_axes):
        return fields._scale(values, cache.conformal_factor(power), extra_axes)

    S = fields._sym_insert_expanded(n, p)
    K0 = fields._k0(n, p)
    K2 = gradients._d2_structure(n, p)
    Kc = fiber.div_contract_tensor(n, p)

    # sym_derivative_exact_adjoint through the einsum
    w_cod = fields.fiber_weight_scalar(cache, "s", p + 1)
    w_dom = fields.fiber_weight_scalar(cache, "s0", p)
    yy = omega * fiber.multiplicities(n, p + 1) * w_cod[..., None]
    # _grad_s0_transpose takes its input slot-first, one covariant slot each
    sym_adj = fields._grad_s0_transpose(
        cache, p, np.einsum("Jia,...J->i...a", S, yy, optimize=True)
    ) / w_dom[..., None]
    # d2_exact_adjoint through the einsum
    y2 = scaled(-np.einsum("iab,...ia->...b", K2, X), -2.0, 1)
    d2_adj = fields.divergence_exact_adjoint(fields.TensorField(cache, "s0", p - 1, y2))
    # the 's'-tag divergence through the einsum
    grad_s = fields.gradient(fields.TensorField(cache, "s", p, phi_s)).data
    div_s = scaled(-np.einsum("BiA,...iA->...B", Kc, grad_s), -2.0, 1)

    pairs = [
        (fields._sym_apply(n, p, X), np.einsum("Jia,...ia->...J", S, X, optimize=True)),
        (fields._contract_apply(cache, p, X),
         scaled(-np.einsum("bia,...ia->...b", K0, X), -2.0, 1)),
        (fields._contract_transpose(cache, p, y),
         -np.einsum("bia,...b->i...a", K0, scaled(y, -2.0, 1))),
        (fields.sym_derivative_exact_adjoint(
            fields.TensorField(cache, "s", p + 1, omega)).data, sym_adj),
        (gradients._d2_from_delta(cache, p, y),
         scaled(-np.einsum("iab,...b->...ia", K2, y), 2.0, 2)),
        (gradients.d2_exact_adjoint(fields.TensorField(cache, "cov_s0", p, X)).data,
         d2_adj.data),
        (fields.divergence(fields.TensorField(cache, "s", p, phi_s)).data, div_s),
    ]
    for got, ref in pairs:
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
