"""The one second-order evaluation per field: bit-for-bit agreement with
the per-identity routes it replaced, one decomposition and one curvature
term per field inside the identity suite, and a memory peak of a few
gradients."""

import tracemalloc

import numpy as np
import pytest

from gradlab import fields, gradients, harness
from gradlab.config import ExperimentConfig
from gradlab.expressions import TrigPoly, parse_trig_poly
from gradlab.fields import TensorField, l2_inner, l2_norm
from gradlab.geometry import GridSpec, build_geometry
from gradlab.harness import run_identity_suite
from testlib import d1_star_d1_formula, unit_field

_TINY = 1e-300


# ---------------------------------------------------------------------------
# reference: each identity formed on its own, operators rebuilt per identity
# ---------------------------------------------------------------------------

def _splitting_form_residual(phi):
    p, n = phi.rank, phi.n
    sw = d1_star_d1_formula(phi)
    c_d = (p / (p + 1.0)) * (1.0 - 2.0 / (n + 2.0 * (p - 1.0)))
    samp = fields.to_tracefree(gradients.sampson(phi))
    dsd = fields.to_tracefree(fields.sym_derivative(fields.divergence(phi)))
    alt = TensorField(
        phi.cache, "s0", p, samp.data / (p + 1.0) + c_d * dsd.data
    )
    return l2_norm(sw - alt) / (l2_norm(sw) + _TINY)


def _weitzenbock_identity_report(phi):
    p, n = phi.rank, phi.n
    c41 = (p + 1) * gradients.energy_coefficient(n, p)
    lap = fields.rough_laplacian(phi)
    K = gradients.weitzenbock_K(phi)
    sp = gradients.decompose(phi)
    T1 = gradients.d1_exact_adjoint(sp.d1)
    T2 = gradients.d2_exact_adjoint(sp.d2)
    T3 = gradients.d3_exact_adjoint(sp.d3)
    t2 = fields.to_tracefree(fields.sym_derivative(fields.divergence(phi)))
    scale = max(l2_norm(lap), l2_norm(K), l2_norm(phi)) + _TINY
    r_sum = l2_norm(lap - (T1 + T2 + T3)) / scale
    r41 = l2_norm((p + 1.0) * T1 - (lap - K + c41 * t2)) / scale
    r43 = l2_norm(float(p) * T1 - T2 - T3 - (c41 * t2 - K)) / scale
    r_d2 = l2_norm(T2 - gradients.d2_composition_coefficient(n, p) * t2) / scale
    K_orc = gradients.curvature_action(phi)
    k_scale = max(l2_norm(K), l2_norm(K_orc), 1e-6 * scale) + _TINY
    return {
        "split_vs_rough": r_sum,
        "rough_identity": r41,
        "difference_identity": r43,
        "d2_composition": r_d2,
        "curvature_oracle": l2_norm(K - K_orc) / k_scale,
    }


def _integral_identity_report(phi):
    p, n = phi.rank, phi.n
    sp = gradients.decompose(phi)
    nG = sp.norms["grad"] ** 2
    nD1 = sp.norms["d1"] ** 2
    nD2 = sp.norms["d2"] ** 2
    nD3 = sp.norms["d3"] ** 2
    dstar = fields.sym_derivative(phi)
    nDs = l2_inner(dstar, dstar)
    dv = fields.divergence(phi)
    nDel = l2_inner(dv, dv)
    sampson_q = (p + 1.0) * nDs - float(p) * nDel
    K_q = nG - sampson_q
    c34 = gradients.energy_coefficient(n, p)
    c41 = (p + 1) * c34
    q_pointwise = l2_inner(gradients.weitzenbock_K(phi), phi)
    scale = max(nG, nD1, nDs, nDel) + _TINY
    return {
        "energy": abs(nD1 - (sampson_q / (p + 1) + c34 * nDel)) / scale,
        "energy_flipped": abs(nD1 - (sampson_q / (p + 1) - c34 * nDel)) / scale,
        "rough_energy": abs((p + 1) * nD1 - (nG - K_q + c41 * nDel)) / scale,
        "split_energy": abs(p * nD1 - nD2 - nD3 - (c41 * nDel - K_q)) / scale,
        "q_form_route": abs(q_pointwise - K_q) / scale,
    }


def _zeroth_order_residual(phi, u_values):
    up = TensorField(phi.cache, "s0", phi.rank, phi.data * u_values)
    Ku = gradients.weitzenbock_K(up)
    uK = gradients.weitzenbock_K(phi).data * u_values
    diff = TensorField(phi.cache, "s0", phi.rank, Ku.data - uK)
    return l2_norm(diff) / (l2_norm(phi) + _TINY)


def _reference_residuals(phi, u_values):
    a = d1_star_d1_formula(phi)
    b = gradients.d1_exact_adjoint(gradients.d1(phi))
    out = {
        "reconstruction": gradients.decompose(phi).reconstruction_residual,
        "two_route": l2_norm(a - b) / (l2_norm(a) + _TINY),
        "splitting_form": _splitting_form_residual(phi),
        "flat_zero": l2_norm(gradients.weitzenbock_K(phi)) / (l2_norm(phi) + _TINY),
        "zeroth_order": _zeroth_order_residual(phi, u_values),
    }
    out.update(_weitzenbock_identity_report(phi))
    out.update(_integral_identity_report(phi))
    return out


@pytest.mark.parametrize("metric", ["flat", "0.1*cos(x1)"])
@pytest.mark.parametrize("n,size", [(2, 16), (3, 12)])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_one_evaluation_equals_separate_routes_exactly(metric, n, size, p):
    spec = GridSpec(n, (size,) * n)
    f = TrigPoly([]) if metric == "flat" else parse_trig_poly(metric)
    cache = build_geometry(spec, f)
    phi = unit_field(cache, p, 3, np.random.default_rng([n, p]))
    u = 1.0 + 0.3 * np.cos(spec.theta_mesh()[0])
    got = gradients.second_order_residuals(phi, u)
    want = _reference_residuals(phi, u)
    assert set(got) == set(want)
    assert {k: v for k, v in got.items() if v != want[k]} == {}
    assert "zeroth_order" not in gradients.second_order_residuals(phi)


def test_identity_suite_decomposes_each_field_once(monkeypatch):
    # a field is tracked by object identity; the lists keep every field
    # alive so that no id is reused during the run
    decomposed, curvature_terms, units, d1_calls = [], [], [], []
    decompose, weitzenbock_K = gradients.decompose, gradients.weitzenbock_K
    curvature_action = gradients.curvature_action
    d1, unit = gradients.d1, harness._unit

    def counting_decompose(phi, *args, **kwargs):
        decomposed.append(phi)
        return decompose(phi, *args, **kwargs)

    def counting_K(phi):
        curvature_terms.append((phi, "operational"))
        return weitzenbock_K(phi)

    def counting_action(phi):
        curvature_terms.append((phi, "curvature"))
        return curvature_action(phi)

    def counting_d1(phi):
        d1_calls.append(phi)
        return d1(phi)

    def recording_unit(phi):
        units.append((phi, unit(phi)))
        return units[-1][1]

    monkeypatch.setattr(gradients, "decompose", counting_decompose)
    monkeypatch.setattr(gradients, "weitzenbock_K", counting_K)
    monkeypatch.setattr(gradients, "curvature_action", counting_action)
    monkeypatch.setattr(gradients, "d1", counting_d1)
    monkeypatch.setattr(harness, "_unit", recording_unit)
    cfg = ExperimentConfig(dimension=2, sizes=(12, 16), ranks=(1, 2),
                           seed=3, field_count=4)
    rep = run_identity_suite(cfg)
    assert rep.status == "pass"

    def times(field, calls):
        return sum(1 for f in calls if f is field)

    assert all(times(phi, decomposed) == 1 for phi in decomposed)
    K_fields = [phi for phi, _ in curvature_terms]
    assert all(times(phi, K_fields) == 1 for phi in K_fields)
    # sub-batch (3 per rank) and refinement fields (2 per rank) carry the
    # pointwise oracle, curvature_action; each is decomposed once and its
    # operational term comes from that same pass, not from weitzenbock_K
    second_order = [phi for phi, route in curvature_terms if route == "curvature"]
    assert len(second_order) == len(cfg.ranks) * (3 + 2)
    assert all(times(phi, decomposed) == 1 for phi in second_order)
    # the adjointness pairings of a batch field read its one split: no
    # decomposed field is normalized again into a copy, d1 itself never
    # runs (the negative controls corrupt the control field's one split),
    # and per rank there is one decomposition per batch, sub-batch and
    # refinement field, plus one control
    assert not [u for phi, u in units if times(phi, decomposed)]
    assert d1_calls == []
    assert len(decomposed) == len(cfg.ranks) * (cfg.field_count + 3 + 2) + 1


def test_second_order_peak_is_a_few_gradients():
    # every intermediate dies after its last read, so the traced peak is a
    # small multiple of the gradient: 7.3 gradients here, against 14.4 when
    # every intermediate stayed alive until the return.  The conformal
    # connection term is formed one axis of f at a time, so the conformal
    # peak is 7.5 gradients (16.3 when it was formed over all n axes)
    spec = GridSpec(3, (12,) * 3)
    for f in (TrigPoly([]), parse_trig_poly("0.1*cos(x1)")):
        cache = build_geometry(spec, f)
        phi = unit_field(cache, 3, 3, np.random.default_rng(5))
        u = 1.0 + 0.3 * np.cos(spec.theta_mesh()[0])
        gradients.second_order_residuals(phi, u)  # fill the structure caches
        grad_bytes = fields.gradient(phi).data.nbytes
        tracemalloc.start()
        try:
            gradients.second_order_residuals(phi, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * grad_bytes, f
