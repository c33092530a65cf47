"""Harness-layer tests: suite orchestration on small grids, grid-independent
test fields, joint-kernel pencils against per-mode oracles, convergence-study
verdicts, report rendering, and the determinism contract for JSON output."""

import dataclasses
import json
import os

import numpy as np
import pytest

from gradlab import fiber, fields, gradients, harness, spectral
from gradlab.config import ConfigError, ExperimentConfig
from gradlab.harness import (
    PLUMBING,
    CheckRecord,
    HarnessError,
    SuiteReport,
    band_limited_field,
    build_cache,
    convergence_study,
    emit_report,
    environment_metadata,
    flat_joint_kernel_oracle,
    kernel_experiment,
    render_csv,
    render_json,
    render_markdown,
    report_to_dict,
    run_identity_suite,
    run_suites,
)
from testlib import unit_field

FLAT_SMALL = ExperimentConfig(
    dimension=2, sizes=(12, 16), ranks=(1, 2),
    seed=7, suites=("identity",), field_count=3,
)
CONF_SMALL = ExperimentConfig(
    conformal_exponent="0.1*cos(x1)", dimension=2,
    sizes=(16, 32), ranks=(2,), seed=7, suites=("identity",), field_count=2,
)
KERNEL_SMALL = ExperimentConfig(
    dimension=2, sizes=(8, 12), ranks=(1, 2),
    seed=7, suites=("kernel",), field_count=2,
)


@pytest.fixture(scope="module")
def flat_identity_report():
    return run_identity_suite(FLAT_SMALL)


@pytest.fixture(scope="module")
def conf_identity_report():
    return run_identity_suite(CONF_SMALL)


@pytest.fixture(scope="module")
def kernel_report():
    return kernel_experiment(KERNEL_SMALL)


# ---------------------------------------------------------------------------
# test fields
# ---------------------------------------------------------------------------

def test_band_limited_field_is_grid_independent():
    cfg = FLAT_SMALL
    coarse = build_cache(cfg, 8)
    fine = build_cache(cfg, 16)
    a = band_limited_field(coarse, 2, 3, np.random.default_rng(5))
    b = band_limited_field(fine, 2, 3, np.random.default_rng(5))
    # same continuum field sampled on nested grids: fine[::2] is coarse
    np.testing.assert_allclose(b.data[..., ::2, ::2], a.data, atol=1e-14)


def test_band_limited_field_deterministic_per_seed():
    cache = build_cache(FLAT_SMALL, 8)
    a = band_limited_field(cache, 1, 3, np.random.default_rng(2))
    b = band_limited_field(cache, 1, 3, np.random.default_rng(2))
    c = band_limited_field(cache, 1, 3, np.random.default_rng(3))
    np.testing.assert_array_equal(a.data, b.data)
    assert np.linalg.norm(a.data - c.data) > 1e-3


def test_band_limited_field_stays_in_band():
    cache = build_cache(FLAT_SMALL, 32)
    phi = unit_field(cache, 2, 4, np.random.default_rng(42))
    fk = np.fft.fftn(phi.data, axes=(-2, -1))
    above = np.abs(np.fft.fftfreq(32) * 32) > 4
    assert np.max(np.abs(fk[:, above])) < 1e-10
    assert np.max(np.abs(fk[:, :, above])) < 1e-10
    # the Nyquist guard is the one of the synthesizer
    with pytest.raises(spectral.SpectralError, match="Nyquist"):
        band_limited_field(cache, 2, 16, np.random.default_rng(0))


def _band_limited_loop(cache, rank, band, rng, tag):
    # reference: one mode at a time, drawing (cos, sin) coefficients in turn
    spec = cache.spec
    shape = fields.fiber_shape(spec.n, tag, rank)
    mesh = spec.theta_mesh()
    modes = spectral.half_modes((band,) * spec.n)
    pad = (...,) + (None,) * spec.n
    data = np.zeros(shape + spec.shape)
    data += rng.standard_normal(shape)[pad]
    for m in modes:
        phase = sum(mj * th for mj, th in zip(m, mesh))
        a = rng.standard_normal(shape)[pad]
        b = rng.standard_normal(shape)[pad]
        data += np.cos(phase) * a + np.sin(phase) * b
    return data / np.sqrt(2 * len(modes) + 1)


@pytest.mark.parametrize("size", [12, 16])
def test_band_limited_field_matches_mode_loop(size):
    cache = build_cache(FLAT_SMALL, size)
    for rank, tag in ((2, "s0"), (0, "s0"), (2, "cov_s0")):
        got = band_limited_field(cache, rank, 3, np.random.default_rng(9), tag=tag)
        ref = _band_limited_loop(cache, rank, 3, np.random.default_rng(9), tag)
        assert (got.tag, got.rank) == (tag, rank)
        np.testing.assert_allclose(got.data, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def test_identity_suite_passes_flat(flat_identity_report):
    rep = flat_identity_report
    assert rep.suite == "identity"
    assert rep.status == "pass"
    assert rep.counts["fail"] == 0


def test_identity_suite_passes_conformal(conf_identity_report):
    assert conf_identity_report.status == "pass"


def test_identity_records_unique_and_complete(flat_identity_report):
    ids = [r.check_id for r in flat_identity_report.records]
    assert len(ids) == len(set(ids))
    for p in FLAT_SMALL.ranks:
        for stem in (
            "decompose.reconstruction", "decompose.orthogonality",
            "decompose.trace", "oracle.d1", "oracle.d2", "oracle.d3",
            "adjoint.formula", "adjoint.transpose_d1",
            "composition.two_route", "composition.splitting_form", "composition.d2",
            "weitzenbock.rough", "weitzenbock.curvature_oracle",
            "weitzenbock.flat_zero", "energy.straight", "energy.partition",
            "composition.two_route_refine", "oracle.d2_insertion",
        ):
            assert f"{stem}.p{p}" in ids
    # the Ahlfors cross-check of d1 is a rank-1 record
    assert [i for i in ids if i.startswith("oracle.ahlfors.")] == ["oracle.ahlfors.p1"]


def test_identity_controls_present_and_passing(flat_identity_report):
    by_id = {r.check_id: r for r in flat_identity_report.records}
    assert by_id["control.d2_scale"].status == "pass"
    assert by_id["control.delta_sign"].status == "pass"


def test_identity_flat_has_no_flat_zero_on_conformal(conf_identity_report):
    ids = [r.check_id for r in conf_identity_report.records]
    assert not any(i.startswith("weitzenbock.flat_zero") for i in ids)


def test_identity_rank_three_reports_best_fit():
    cfg = ExperimentConfig(dimension=2, sizes=(12, 16),
                           ranks=(3,), seed=1, field_count=2)
    rep = run_identity_suite(cfg)
    by_id = {r.check_id: r for r in rep.records}
    assert rep.status == "pass"
    fit = by_id["oracle.d2_best_fit.p3"]
    assert fit.status == "measured"
    assert abs(fit.value - 1.0) < 1e-6
    match = by_id["oracle.d2_match.p3"]
    assert match.status == "measured"
    assert match.value < 1e-8
    # the direct mismatch is also gated at this rank
    gate = by_id["oracle.d2.p3"]
    assert gate.status == "pass"
    assert gate.value == match.value


def _clear_structure_caches():
    """Empty the lru_caches that fold coefficients into structure tensors."""
    for module in (gradients, fields, spectral):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


# d3 vanishes on a 2-torus at p >= 2 and energy_coefficient(2, 1) = 0, so
# only a 3-torus lets every rank pin every coefficient
MUTATION_CFG = ExperimentConfig(dimension=3, sizes=(8, 10), ranks=(1, 2, 3),
                                seed=3, field_count=1)


@pytest.mark.parametrize("name", ["d2_prefactor", "sw_coefficient", "energy_coefficient",
                                  "insertion_eigenvalue", "d2_composition_coefficient"])
def test_coefficient_mutation_fails_every_rank(name, monkeypatch):
    # each closed-form coefficient, scaled by 1 + 1e-6, must make at least
    # one check of every rank fail, and must not abort a rank or the controls
    assert run_identity_suite(MUTATION_CFG).status == "pass"
    coefficient = getattr(gradients, name)
    _clear_structure_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(gradients, name, lambda n, p: coefficient(n, p) * (1.0 + 1e-6))
            records = run_identity_suite(MUTATION_CFG).records
    finally:
        _clear_structure_caches()
    assert [r.check_id for r in records if r.detail.startswith("aborted")] == []
    for p in MUTATION_CFG.ranks:
        failed = [r.check_id for r in records
                  if r.check_id.endswith(f".p{p}") and r.status == "fail"]
        assert failed, f"{name} pins nothing at rank {p}"


def test_insertion_coefficient_mutation_fails_the_insertion_trace(monkeypatch):
    # sym_insert_coefficient scaled by 1 + 1e-6 leaves a trace in d1's
    # symmetrized derivative that the projection onto S0 hides: at p2 and
    # p3 it stays under d1's guard (1e-6) and only the insertion trace
    # record sees it; at p1 it exceeds the guard, which aborts the rank and
    # the d2 scale control, both decomposing at p1.  The sign control reads
    # the gradient and the divergence itself, so it keeps its record
    clean = run_identity_suite(MUTATION_CFG)
    assert clean.status == "pass"
    assert all(r.value < 1e-15 for r in clean.records
               if r.check_id.startswith("decompose.insertion_trace."))
    coefficient = gradients.sym_insert_coefficient
    _clear_structure_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(gradients, "sym_insert_coefficient",
                      lambda n, p: coefficient(n, p) * (1.0 + 1e-6))
            records = run_identity_suite(MUTATION_CFG).records
    finally:
        _clear_structure_caches()
    aborted = [r.check_id for r in records if r.detail.startswith("aborted")]
    assert aborted == ["identity.rank.p1", "control.d2_scale"]
    assert _controls_status(records) == {"control.d2_scale": "fail", "control.delta_sign": "pass"}
    failed = {r.check_id: r.value for r in records
              if r.status == "fail" and r.check_id not in aborted}
    assert sorted(failed) == ["decompose.insertion_trace.p2", "decompose.insertion_trace.p3"]
    assert all(1e-7 < v < 1e-6 for v in failed.values())


# the curvature oracle reads S_T only where T is not 0, so the sweep of the
# curvature matrix needs a conformal metric (MUTATION_CFG is flat)
CURVATURE_MUTATION_CFG = ExperimentConfig(
    conformal_exponent="0.1*cos(x1)+0.05*sin(x2)", dimension=2, sizes=(24, 32),
    ranks=(1, 2, 3), seed=7, field_count=2)


def test_curvature_matrix_mutation_fails_the_curvature_oracle(monkeypatch):
    # the cached curvature matrix, scaled by 1 + 1e-6, must fail exactly the
    # curvature oracle of every rank, by that factor, and abort nothing
    assert run_identity_suite(CURVATURE_MUTATION_CFG).status == "pass"
    matrix = gradients._curvature_matrix
    monkeypatch.setattr(gradients, "_curvature_matrix",
                        lambda n, p: matrix(n, p) * (1.0 + 1e-6))
    records = run_identity_suite(CURVATURE_MUTATION_CFG).records
    assert [r.check_id for r in records if r.detail.startswith("aborted")] == []
    failed = {r.check_id: f"{r.value:.2e}" for r in records if r.status == "fail"}
    assert failed == {f"weitzenbock.curvature_oracle.p{p}": "1.00e-06"
                      for p in CURVATURE_MUTATION_CFG.ranks}


# a conformal 3-torus whose coarse grid resolves the refinement field well
# enough that the d2 companion sees a 1e-6 change of kappa at rank 1
REFINE_MUTATION_CFG = ExperimentConfig(
    conformal_exponent="0.1*cos(x1)", dimension=3, sizes=(16, 24), ranks=(1,),
    seed=7, field_count=1)


def test_d2_coefficient_mutation_fails_the_d2_refinement_companion(monkeypatch):
    # composition.d2_refine reads the d2*d2 residual the refinement pass
    # already holds on both grids; with kappa scaled by 1 + 1e-6 the finer
    # grid keeps the 1e-6 defect (1.8e-7 here) while the rule asks for a
    # tenth of the coarse residual (5.8e-7), so the companion fails
    def refine(report):
        return {r.check_id: r.status for r in report.records if "_refine" in r.check_id}

    clean = refine(run_identity_suite(REFINE_MUTATION_CFG))
    assert set(clean.values()) == {"pass"}
    assert {"composition.d2_refine.p1", "weitzenbock.difference_refine.p1"} <= set(clean)
    kappa = gradients.d2_composition_coefficient
    monkeypatch.setattr(gradients, "d2_composition_coefficient",
                        lambda n, p: kappa(n, p) * (1.0 + 1e-6))
    mutated = refine(run_identity_suite(REFINE_MUTATION_CFG))
    assert {k for k, v in mutated.items() if v == "fail"} == {"composition.d2_refine.p1"}


def _controls(report):
    return {r.check_id: r for r in report.records if r.check_id.startswith("control.")}


def _controls_status(records):
    return {r.check_id: r.status for r in records if r.check_id.startswith("control.")}


def test_delta_sign_control_fails_without_the_trace_guard(monkeypatch):
    monkeypatch.setattr(gradients, "_TRACE_GUARD", float("inf"))
    controls = _controls(run_identity_suite(FLAT_SMALL))
    assert controls["control.delta_sign"].status == "fail"
    assert controls["control.d2_scale"].status == "pass"


def test_d2_scale_control_fails_without_the_corruption(monkeypatch):
    monkeypatch.setattr(harness, "_CONTROL_D2_SCALE", 1.0)
    controls = _controls(run_identity_suite(FLAT_SMALL))
    assert controls["control.d2_scale"].status == "fail"
    assert controls["control.delta_sign"].status == "pass"


def test_identity_abort_is_contained(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(gradients, "decompose", boom)
    rep = run_identity_suite(FLAT_SMALL)
    assert rep.status == "fail"
    aborted = [r for r in rep.records if r.detail.startswith("aborted")]
    assert aborted and all(r.anchor == PLUMBING for r in aborted)
    # each control has its own record: only the one that decomposes aborts
    assert "control.d2_scale" in {r.check_id for r in aborted}
    assert _controls_status(rep.records)["control.delta_sign"] == "pass"


def test_sign_control_degrades_where_coefficient_vanishes(flat_identity_report):
    # at (n, p) = (2, 1) the divergence-term coefficient is exactly zero,
    # so the sign check must downgrade to a measurement rather than fail
    assert gradients.energy_coefficient(2, 1) == 0.0
    by_id = {r.check_id: r for r in flat_identity_report.records}
    assert by_id["energy.sign_control.p1"].status == "measured"
    assert by_id["energy.sign_control.p2"].status == "pass"


# ---------------------------------------------------------------------------
# joint kernels
# ---------------------------------------------------------------------------

def joint_kernel(cache, p, names):
    gal = spectral.Galerkin(cache, p)
    return spectral.kernel_count(spectral.sector_spectrum(gal.joint_eigen(names)))


def test_joint_kernel_matches_per_mode_oracle():
    cache = build_cache(KERNEL_SMALL, 12)
    for p, names in [(1, ["d1", "divergence"]), (1, ["d2", "d3"]),
                     (2, ["d2", "d3"]), (1, ["divergence"])]:
        kc = joint_kernel(cache, p, names)
        assert not kc.indeterminate
        assert kc.count == flat_joint_kernel_oracle(cache, p, names)


def loop_joint_kernel_oracle(cache, p, names):
    """Reference: the per-mode oracle one covector and one piece at a time."""
    t = fiber.tracefree_dim(cache.n, p)
    total = t
    for m in spectral.build_dealiased_basis(cache, p).modes:
        xi = np.array(m, float)
        mat = np.vstack([spectral.flat_piece_symbols(cache.n, p, [name], xi)
                         for name in names])
        sv = np.linalg.svd(mat, compute_uv=False)
        total += 2 * (t - int(np.sum(sv > harness._ORACLE_RANK_TOL * np.linalg.norm(xi))))
    return total


@pytest.mark.parametrize("n,size", [(2, 12), (3, 8)])
def test_stacked_oracle_matches_mode_loop(n, size):
    cache = build_cache(ExperimentConfig(dimension=n, sizes=(size,),
                                         ranks=(1,), suites=("kernel",)), size)
    for p in (1, 2):
        for names in (["d1"], ["divergence"], ["d1", "divergence"], ["d2", "d3"]):
            assert (flat_joint_kernel_oracle(cache, p, names)
                    == loop_joint_kernel_oracle(cache, p, names))


def test_oracle_builds_no_operator_handle(monkeypatch):
    # the oracle reads the pieces' constant symbol matrices, so it runs with
    # no handle to build; every kernel is the constants alone, t of them,
    # since d1's symbol and the stacked symbol of d2 and d3 are injective
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle built an operator handle")

    monkeypatch.setattr(spectral, "OperatorHandle", refuse)
    counts = {(2, 1): 2, (2, 2): 2, (2, 3): 2, (3, 1): 3, (3, 2): 5, (3, 3): 7}
    for n, size in ((2, 12), (3, 8)):
        cache = build_cache(ExperimentConfig(dimension=n, sizes=(size,),
                                             ranks=(1,), suites=("kernel",)), size)
        for p in (1, 2, 3):
            for names in (["d1"], ["d1", "divergence"], ["d2", "d3"]):
                assert flat_joint_kernel_oracle(cache, p, names) == counts[n, p]


def test_joint_kernel_is_intersection():
    # stacking a second operator can only shrink the kernel
    cache = build_cache(KERNEL_SMALL, 12)
    kc_div = joint_kernel(cache, 1, ["divergence"])
    kc_both = joint_kernel(cache, 1, ["d1", "divergence"])
    assert kc_both.count <= kc_div.count
    assert kc_both.count == 2


def test_flat_oracle_requires_flat_metric():
    cache = build_cache(CONF_SMALL, 16)
    with pytest.raises(HarnessError):
        flat_joint_kernel_oracle(cache, 1, ["divergence"])


def test_kernel_experiment_counts(kernel_report):
    assert kernel_report.status == "pass"
    by_id = {r.check_id: r for r in kernel_report.records}
    for p in (1, 2):
        assert by_id[f"kernel.ck_count.p{p}"].value == 2.0
        assert by_id[f"kernel.killing_count.p{p}"].value == 2.0
        assert by_id[f"kernel.codazzi_count.p{p}"].value == 2.0
        assert by_id[f"kernel.ck_mode_oracle.p{p}"].status == "pass"
        assert by_id[f"kernel.psd.p{p}"].status == "pass"
        assert by_id[f"kernel.form_symmetry.p{p}"].status == "pass"
    # rank-1 divergence near-kernel grows with the grid; rank 2 stays finite
    assert by_id["kernel.tt_growth.p1"].status == "pass"
    assert by_id["kernel.tt_growth.p2"].status == "measured"
    assert by_id["kernel.tt_counts.p2"].value == 2.0


def test_form_symmetry_fails_an_asymmetric_form(monkeypatch):
    # the d1*d1 form is symmetric to roundoff; an upper triangle raised by
    # 1e-9 of the largest entry is a defect far above adjoint_transpose
    form = spectral.Galerkin.form

    def skewed(self, handle):
        return [G + 1e-9 * np.max(np.abs(G)) * np.triu(np.ones_like(G), 1)
                for G in form(self, handle)]

    monkeypatch.setattr(spectral.Galerkin, "form", skewed)
    by_id = {r.check_id: r for r in kernel_experiment(KERNEL_SMALL).records}
    for p in KERNEL_SMALL.ranks:
        rec = by_id[f"kernel.form_symmetry.p{p}"]
        assert rec.status == "fail" and rec.value > rec.tolerance


def test_kernel_suite_puts_every_colour_through_the_d1_trace_guard(monkeypatch):
    # a layer's Gram build probes the gradient only, so d1's trace guard
    # (`gradients._d1_from_grad`) runs in the d1* d1 form of the suite: once
    # for every colour of every layer, and once for the last colour's
    # reflection on each mirror axis
    guarded, colours = {}, {}
    d1_from_grad = gradients._d1_from_grad

    def counted(phi, X, dphi):
        key = (phi.cache.spec.sizes, phi.rank)
        guarded[key] = guarded.get(key, 0) + int(np.prod(phi.batch_shape))
        return d1_from_grad(phi, X, dphi)

    class Layer(spectral.Galerkin):
        def __init__(self, cache, p):
            super().__init__(cache, p)
            colours[(cache.spec.sizes, p)] = self.colour_count + len(self.mirrors)

    monkeypatch.setattr(gradients, "_d1_from_grad", counted)
    monkeypatch.setattr(spectral, "Galerkin", Layer)
    cfg = dataclasses.replace(KERNEL_SMALL, conformal_exponent="0.1*cos(x1)")
    assert kernel_experiment(cfg).status == "pass"
    assert len(colours) == len(cfg.sizes) * len(cfg.ranks)
    assert guarded == colours


def test_kernel_experiment_parallel_fields(kernel_report):
    by_id = {r.check_id: r for r in kernel_report.records}
    for p in (1, 2):
        rec = by_id[f"kernel.parallel_fields.p{p}"]
        assert rec.status == "pass"
        assert rec.value <= KERNEL_SMALL.tolerance("parallel")


def test_symbol_checks(kernel_report):
    by_id = {r.check_id: r for r in kernel_report.records}
    for p in (1, 2):
        assert by_id[f"symbol.positive.p{p}"].status == "pass"
        dist = by_id[f"symbol.distance_to_scalar.p{p}"]
        assert dist.status == "measured"
        assert dist.value < 1e-12  # n = 2: the squared symbol is scalar


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def test_convergence_needs_three_sizes():
    # refused when the config is made, before any suite runs
    with pytest.raises(ConfigError, match="needs >= 3 grid sizes"):
        dataclasses.replace(FLAT_SMALL, suites=("identity", "convergence"))


def test_convergence_spectral_plateaus():
    cfg = ExperimentConfig(conformal_exponent="0.1*cos(x1)", dimension=2,
                           sizes=(12, 16, 24), ranks=(2,), seed=7,
                           suites=("convergence",))
    rep = convergence_study(cfg)
    assert rep.status == "pass"
    by_id = {r.check_id: r for r in rep.records}
    for name in ("two_route", "rough_identity", "curvature_oracle", "zeroth_order"):
        assert by_id[f"converge.plateau.{name}.p2"].status == "pass"
    # one residual record per tracked quantity per grid
    res = [r for r in rep.records if r.check_id.startswith("converge.residual.")]
    assert len(res) == 7 * len(cfg.sizes)
    assert all(r.status == "measured" for r in res)


def test_refine_tolerance_covers_floor_and_ratio():
    cfg = ExperimentConfig()
    # far above the plateau: demand a tenfold drop
    assert harness._refine_tolerance(cfg, 1e-5) == pytest.approx(1e-6)
    # at the plateau: only demand staying there
    assert harness._refine_tolerance(cfg, 1e-12) == pytest.approx(
        cfg.tolerance("plateau"))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _tiny_report(records):
    return SuiteReport(
        suite="identity", config=ExperimentConfig(), records=records,
        environment=environment_metadata(), timing={"total": 1.23},
    )


def test_suite_status_precedence():
    ok = CheckRecord("a", PLUMBING, 0.0, 1.0, "pass")
    meas = CheckRecord("b", PLUMBING, 0.0, None, "measured")
    ind = CheckRecord("c", PLUMBING, None, None, "indeterminate")
    bad = CheckRecord("d", PLUMBING, 2.0, 1.0, "fail")
    assert _tiny_report([ok, meas]).status == "pass"
    assert _tiny_report([ok, ind, meas]).status == "indeterminate"
    assert _tiny_report([ok, ind, bad]).status == "fail"


def test_report_dict_sorted_and_timing_free(flat_identity_report):
    d = report_to_dict(flat_identity_report)
    assert d["schema"] == harness.REPORT_SCHEMA
    ids = [c["check_id"] for c in d["checks"]]
    assert ids == sorted(ids)
    assert "timing" not in d
    assert "timing" not in render_json(flat_identity_report)


def test_json_rendering_is_deterministic():
    cfg = ExperimentConfig(dimension=2, sizes=(8, 12),
                           ranks=(1,), seed=3, field_count=2)
    a = render_json(run_identity_suite(cfg))
    b = render_json(run_identity_suite(cfg))
    assert a == b
    other = render_json(run_identity_suite(
        ExperimentConfig(dimension=2, sizes=(8, 12),
                         ranks=(1,), seed=4, field_count=2)))
    assert other != a


def test_csv_has_one_row_per_record(flat_identity_report):
    text = render_csv(flat_identity_report)
    lines = text.strip().split("\n")
    assert lines[0].startswith("check_id,")
    assert len(lines) == 1 + len(flat_identity_report.records)


def test_markdown_lists_attention_first():
    ok = CheckRecord("zz.fine", PLUMBING, 0.0, 1.0, "pass")
    bad = CheckRecord("aa.broken", PLUMBING, 2.0, 1.0, "fail", "synthetic")
    text = render_markdown(_tiny_report([ok, bad]))
    assert "needs attention" in text
    assert text.index("aa.broken") < text.index("zz.fine")
    clean = render_markdown(_tiny_report([ok]))
    assert "(none)" in clean


def test_emit_report_formats_and_paths(tmp_path, flat_identity_report):
    for fmt, ext in [("json", "json"), ("csv", "csv"), ("markdown-summary", "md")]:
        path = emit_report(flat_identity_report, fmt, out_dir=str(tmp_path))
        assert path == str(tmp_path / f"identity_report.{ext}")
        assert os.path.exists(path)
    parsed = json.loads((tmp_path / "identity_report.json").read_text())
    assert parsed["suite"] == "identity"
    with pytest.raises(HarnessError):
        emit_report(flat_identity_report, "yaml", out_dir=str(tmp_path))


def test_emit_report_honors_env_dir(tmp_path, monkeypatch, flat_identity_report):
    monkeypatch.setenv("GRADLAB_OUT", str(tmp_path / "envout"))
    path = emit_report(flat_identity_report, "json")
    assert path.startswith(str(tmp_path / "envout"))
    assert os.path.exists(path)


def test_emit_report_unwritable_path(tmp_path, flat_identity_report):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    with pytest.raises(HarnessError) as exc:
        emit_report(flat_identity_report, "json", out_dir=str(blocker))
    assert "blocked" in str(exc.value)


def test_run_suites_dispatch():
    cfg = ExperimentConfig(dimension=2, sizes=(8, 12), ranks=(1,),
                           seed=3, suites=("identity", "kernel"), field_count=2)
    reports = run_suites(cfg)
    assert [r.suite for r in reports] == ["identity", "kernel"]
    assert all(r.status == "pass" for r in reports)
