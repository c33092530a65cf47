"""Experiment orchestration: identity suites, kernel-counting experiments,
convergence studies, and deterministic report emission.

Every numerical claim the package makes is driven from here as a check
record: {check id, anchor, value, tolerance, status}.  Anchors are stable
tags naming the mathematical statement a check exercises ("plumbing" for
infrastructure checks); each check id carries exactly one anchor.  Reports
are deterministic: a fixed seed and config reproduce byte-identical JSON,
at any BLAS thread count (no reported value goes through a threaded
reduction whose order depends on it).  Wall-clock timing is kept on the
in-memory report and printed by the CLI but never serialized, precisely to
protect that contract.

Runs are single-process; records are emitted in a deterministic order and
serialized sorted by check id, so independently produced reports merge
reproducibly.
"""

import csv
import functools
import io
import json
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from . import fiber, fields, gradients, spectral
from .config import VALID_KEYS, ExperimentConfig
from .expressions import parse_trig_poly
from .fields import TensorField, l2_inner, l2_norm
from .geometry import GridSpec, build_geometry

REPORT_SCHEMA = "gradlab-report-v1"

_TINY = 1e-300
# singular values of a stacked flat symbol below this times |xi| count as null
_ORACLE_RANK_TOL = 1e-10

# anchor tags: one stable name per mathematical statement under test
A_SPLIT = "three-piece-splitting"
A_PIECE2 = "second-piece-coefficient"
A_ADJOINT = "adjoint-pair"
A_COMP1 = "first-composition"
A_COMP_FORM = "composition-splitting-form"
A_COMP2 = "second-composition"
A_ENERGY = "energy-identity"
A_ROUGH = "rough-composition-identity"
A_ROUGH_ENERGY = "rough-energy"
A_QFORM = "quadratic-form-identity"
A_PARTITION = "energy-partition"
A_CURVATURE = "curvature-term"
A_KERNEL = "kernel-dimension-bound"
A_KILLING = "killing-kernel"
A_TT = "tt-family"
A_CODAZZI = "codazzi-kernel"
A_ELLIPTIC = "ellipticity"
A_PARALLEL = "parallel-kernel-fields"
PLUMBING = "plumbing"


class HarnessError(RuntimeError):
    pass


@dataclass(frozen=True)
class CheckRecord:
    """One verified (or measured) quantity.

    status 'pass'/'fail' marks a mandatory check against its tolerance;
    'indeterminate' marks a measurement whose confirmation policy did not
    resolve; 'measured' is report-only and never gates the suite.
    """

    check_id: str
    anchor: str
    value: float | None
    tolerance: float | None
    status: str
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    config: ExperimentConfig
    records: list
    environment: dict
    timing: dict = field(default_factory=dict)

    @property
    def status(self):
        statuses = {r.status for r in self.records}
        if "fail" in statuses:
            return "fail"
        if "indeterminate" in statuses:
            return "indeterminate"
        return "pass"

    @property
    def counts(self):
        out = {"pass": 0, "fail": 0, "indeterminate": 0, "measured": 0}
        for r in self.records:
            out[r.status] = out.get(r.status, 0) + 1
        return out


def environment_metadata():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "system": platform.system(),
        "machine": platform.machine(),
    }


class _Recorder:
    def __init__(self, config):
        self.config = config
        self.records = []

    def _add(self, check_id, anchor, value, tolerance, status, detail):
        """Append a record; a non-finite value or tolerance fails it, with
        the number named in the detail and left out of the record."""
        bad = [f"{name} {x}" for name, x in (("value", value), ("tolerance", tolerance))
               if x is not None and not np.isfinite(x)]
        if bad:
            status = "fail"
            detail = f"non-finite {' and '.join(bad)}" + (f"; {detail}" if detail else "")
            value = None
            tolerance = None if tolerance is None or not np.isfinite(tolerance) else tolerance
        self.records.append(CheckRecord(
            check_id, anchor, None if value is None else float(value),
            None if tolerance is None else float(tolerance), status, detail))

    def check(self, check_id, anchor, value, tol_name, detail=""):
        self.bounded(check_id, anchor, value, self.config.tolerance(tol_name), detail)

    def bounded(self, check_id, anchor, value, tolerance, detail=""):
        status = "pass" if value <= tolerance else "fail"
        self._add(check_id, anchor, value, tolerance, status, detail)

    def flag(self, check_id, anchor, ok, value=None, detail=""):
        self._add(check_id, anchor, value, None, "pass" if ok else "fail", detail)

    def measure(self, check_id, anchor, value, detail=""):
        self._add(check_id, anchor, value, None, "measured", detail)

    def indeterminate(self, check_id, anchor, value=None, detail=""):
        self._add(check_id, anchor, value, None, "indeterminate", detail)

    def abort(self, check_id, anchor, exc):
        self._add(check_id, anchor, None, None, "fail", f"aborted: {exc!r}")


# ---------------------------------------------------------------------------
# geometry and test fields
# ---------------------------------------------------------------------------

def build_cache(config, size):
    spec = GridSpec(config.dimension, (size,) * config.dimension)
    return build_geometry(spec, parse_trig_poly(config.conformal_exponent))


def band_limited_field(cache, rank, band, rng, tag="s0"):
    """Trig-polynomial field whose coefficients do not depend on the grid.

    Modes are enumerated in a fixed order, so the same rng seed produces
    samples of one continuum field on every grid size; refinement studies
    rely on that.  Every fiber coordinate of the storage `tag` draws its
    own coefficients.
    """
    spec = cache.spec
    modes = spectral.half_modes((band,) * spec.n)
    # rows: the constant, then (cos, sin) coefficients per mode, in draw order
    coef = rng.standard_normal((2 * len(modes) + 1,) + fields.fiber_shape(spec.n, tag, rank))
    data = spectral.trig_series(spec, modes, coef * (1.0 / np.sqrt(2 * len(modes) + 1)))
    return TensorField(cache, tag, rank, data)


def _unit(phi):
    return phi * (1.0 / (l2_norm(phi) + _TINY))


def _refine_tolerance(config, r_coarse):
    """Pass bar for a residual after refinement: at the spectral floor, or
    smaller than the coarse-grid value by the required factor."""
    return max(
        config.tolerance("plateau"),
        r_coarse / config.tolerance("refinement_factor"),
    )


def _run_suite(suite, tag, config, sizes, rank_checks, closing=None):
    """Run one suite: build the caches of `sizes` once, call
    `rank_checks(rec, config, p, caches)` for every configured rank, then
    `closing(rec, config, caches)`.

    A rank whose checks raise is recorded as the failed check
    `<tag>.rank.p<p>` and the other ranks still run.  Wall time is kept
    per rank and in total, on the report only.
    """
    t0 = time.perf_counter()
    rec = _Recorder(config)
    timing = {}
    caches = {size: build_cache(config, size) for size in sizes}
    for p in config.ranks:
        tp = time.perf_counter()
        try:
            rank_checks(rec, config, p, caches)
        except Exception as exc:  # noqa: BLE001 - aborted checks fail the suite
            rec.abort(f"{tag}.rank.p{p}", PLUMBING, exc)
        timing[f"{tag}.p{p}"] = time.perf_counter() - tp
    if closing is not None:
        closing(rec, config, caches)
    timing["total"] = time.perf_counter() - t0
    return SuiteReport(suite, config, rec.records, environment_metadata(), timing)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def _zeroth_order_multiplier(cache):
    """The scalar u of the zeroth-order residual K(u phi) - u K(phi)."""
    return 1.0 + 0.3 * np.cos(cache.spec.theta_mesh()[0])


def _identity_checks_for_rank(rec, config, p, caches):
    cache_hi = caches[config.sizes[-1]]
    size_hi = config.sizes[-1]
    band = max(1, size_hi // 4)
    rng = np.random.default_rng([config.seed, 101, p])

    recon = orth = trace = insertion_trace = insertion = ahlfors = 0.0
    proj = {"d1": 0.0, "d2": 0.0, "d3": 0.0}
    adj_formula = adj_t1 = adj_t2 = adj_t3 = 0.0
    for i in range(config.field_count):
        # each field is drawn as its turn comes, from the one stream, and
        # nothing of an iteration outlives it
        phi = _unit(band_limited_field(cache_hi, p, band, rng))
        sp = gradients.decompose(phi)
        recon = max(recon, sp.reconstruction_residual)
        orth = max(orth, max(sp.orthogonality.values()))
        trace = max(trace, fields.max_trace_residual(sp.d1))
        insertion_trace = max(insertion_trace, sp.insertion_trace)
        pm = gradients.projector_match_residuals(sp)
        for k in proj:
            proj[k] = max(proj[k], pm[k])
        if i == 0 and p >= 3:
            # the high-rank second-piece coefficient is also reported as the
            # best-fit scalar of the formula against the projector route,
            # plus the residual after removing that scalar
            b = gradients.projector_components(sp.grad)["B"]
            denom = l2_inner(b, b) + _TINY
            s_fit = l2_inner(sp.d2, b) / denom
            fit_resid = l2_norm(sp.d2 - b * s_fit) / (l2_norm(b) + _TINY)
            del b
        # the second piece through the insertion eigenvalue, against the
        # split's literal coefficients
        insertion = max(insertion, l2_norm(
            gradients.d2_insertion_oracle(sp.divergence) - sp.d2) / (sp.norms["grad"] + _TINY))
        if p == 1:
            ahlfors = max(ahlfors, abs(gradients.ahlfors_ratio(sp) - 4.0))
        # adjointness: analytic pair and the exact discrete transposes
        rng_a = np.random.default_rng([config.seed, 202, p, i])
        psi = _unit(band_limited_field(cache_hi, p + 1, band, rng_a))
        x2 = _unit(band_limited_field(cache_hi, p, band, rng_a, tag="cov_s0"))
        d1_psi = l2_inner(sp.d1, psi)
        adj_formula = max(adj_formula, abs(d1_psi - l2_inner(phi, fields.divergence(psi))))
        adj_t1 = max(adj_t1, abs(d1_psi - l2_inner(phi, gradients.d1_exact_adjoint(psi))))
        adj_t2 = max(adj_t2, abs(
            l2_inner(sp.d2, x2) - l2_inner(phi, gradients.d2_exact_adjoint(x2))
        ))
        adj_t3 = max(adj_t3, abs(
            l2_inner(sp.d3, x2) - l2_inner(phi, gradients.d3_exact_adjoint(x2))
        ))
        del phi, sp, psi, x2
    nf = f"{config.field_count} fields"
    rec.check(f"decompose.reconstruction.p{p}", A_SPLIT, recon, "reconstruction", nf)
    rec.check(f"decompose.orthogonality.p{p}", A_SPLIT, orth, "orthogonality", nf)
    rec.check(f"decompose.trace.p{p}", A_SPLIT, trace, "trace_residual",
              "first piece stays trace-free")
    rec.check(f"decompose.insertion_trace.p{p}", A_SPLIT, insertion_trace, "trace_residual",
              f"{nf}: symmetrized derivative's trace before projection, relative to max|X|")
    rec.check(f"oracle.d1.p{p}", A_SPLIT, proj["d1"], "projector_match", nf)
    rec.check(f"oracle.d3.p{p}", A_SPLIT, proj["d3"], "projector_match", nf)
    rec.check(f"oracle.d2.p{p}", A_PIECE2, proj["d2"], "projector_match", nf)
    rec.check(f"oracle.d2_insertion.p{p}", A_PIECE2, insertion, "projector_match",
              f"{nf}: second piece as the divergence's insertion over its eigenvalue")
    if p >= 3:
        rec.measure(f"oracle.d2_best_fit.p{p}", A_PIECE2, s_fit,
                    f"best-fit scalar against projector route; residual {fit_resid:.3e}")
        rec.measure(f"oracle.d2_match.p{p}", A_PIECE2, proj["d2"],
                    f"direct mismatch, gated as oracle.d2.p{p}")
    if p == 1:
        rec.check(f"oracle.ahlfors.p{p}", A_SPLIT, ahlfors, "equivalence",
                  f"{nf}: |ratio - 4| of the hand-built deformation tensor to d1")

    rec.check(f"adjoint.formula.p{p}", A_ADJOINT, adj_formula, "adjoint_formula",
              "pairing against the divergence, unit-normalized fields")
    rec.check(f"adjoint.transpose_d1.p{p}", A_ADJOINT, adj_t1, "adjoint_transpose")
    rec.check(f"adjoint.transpose_d2.p{p}", A_ADJOINT, adj_t2, "adjoint_transpose")
    rec.check(f"adjoint.transpose_d3.p{p}", A_ADJOINT, adj_t3, "adjoint_transpose")

    # second-order identities on a dedicated sub-batch: compositions square
    # the bandwidth, so keep these fields narrow enough that the weighted
    # quadrature stays alias-free
    band2 = min(band, 6)
    rng2 = np.random.default_rng([config.seed, 707, p])
    sub = [
        _unit(band_limited_field(cache_hi, p, band2, rng2))
        for _ in range(min(3, config.field_count))
    ]
    worst = dict.fromkeys(
        ("two_route", "splitting_form", "split_vs_rough", "d2_composition",
         "rough_identity", "difference_identity", "curvature_oracle", "flat_zero",
         "energy", "rough_energy", "split_energy", "q_form_route"), 0.0)
    flipped_min = np.inf
    for phi in sub:
        res = gradients.second_order_residuals(phi)
        for k in worst:
            worst[k] = max(worst[k], res[k])
        flipped_min = min(flipped_min, res["energy_flipped"])
    rec.check(f"composition.two_route.p{p}", A_COMP1, worst["two_route"], "two_route")
    rec.check(f"composition.splitting_form.p{p}", A_COMP_FORM, worst["splitting_form"],
              "equivalence")
    rec.check(f"composition.d2.p{p}", A_COMP2, worst["d2_composition"], "two_route",
              "d2*d2 against kappa (delta* delta phi)_0, on the split_sum scale")
    rec.check(f"weitzenbock.split_sum.p{p}", A_ROUGH, worst["split_vs_rough"], "equivalence",
              "gradient square equals the sum of the three transpose compositions")
    rec.check(f"weitzenbock.rough.p{p}", A_ROUGH, worst["rough_identity"], "weitzenbock")
    rec.check(f"weitzenbock.difference.p{p}", A_QFORM, worst["difference_identity"],
              "weitzenbock")
    rec.check(f"weitzenbock.curvature_oracle.p{p}", A_CURVATURE, worst["curvature_oracle"],
              "weitzenbock", "operational curvature term against the pointwise formula")
    if cache_hi.is_flat:
        rec.check(f"weitzenbock.flat_zero.p{p}", A_CURVATURE, worst["flat_zero"],
                  "flat_curvature", "curvature term vanishes on the flat torus")
    rec.check(f"energy.straight.p{p}", A_ENERGY, worst["energy"], "integral")
    rec.check(f"energy.rough.p{p}", A_ROUGH_ENERGY, worst["rough_energy"], "integral")
    rec.check(f"energy.partition.p{p}", A_PARTITION, worst["split_energy"], "integral")
    rec.check(f"energy.quadratic_route.p{p}", A_QFORM, worst["q_form_route"], "integral")
    rec.measure(f"energy.flipped.p{p}", A_ENERGY, flipped_min,
                "opposite-sign variant of the energy identity; must stay away from zero")
    if gradients.energy_coefficient(cache_hi.n, p) > 0:
        rec.flag(f"energy.sign_control.p{p}", A_ENERGY,
                 flipped_min > config.tolerance("control_floor"), value=flipped_min,
                 detail="sign arbitration is falsifiable: the flipped variant does not vanish")
    else:
        rec.measure(f"energy.sign_control.p{p}", A_ENERGY, flipped_min,
                    "divergence-term coefficient vanishes at this (n, p); "
                    "the sign is unobservable here")

    # refinement checks need two grids seeing the same continuum field
    if len(config.sizes) >= 2:
        size_lo = config.sizes[-2]
        cache_lo = caches[size_lo]
        band_r = min(size_lo // 4, 4)
        res = {}
        for size, cache in ((size_lo, cache_lo), (size_hi, cache_hi)):
            rng_r = np.random.default_rng([config.seed, 303, p])
            res[size] = gradients.second_order_residuals(
                band_limited_field(cache, p, band_r, rng_r), _zeroth_order_multiplier(cache))
        for name, check_id, anchor in (
            ("two_route", f"composition.two_route_refine.p{p}", A_COMP1),
            ("d2_composition", f"composition.d2_refine.p{p}", A_COMP2),
            ("rough_identity", f"weitzenbock.rough_refine.p{p}", A_ROUGH),
            ("difference_identity", f"weitzenbock.difference_refine.p{p}", A_QFORM),
            ("zeroth_order", f"weitzenbock.zeroth_refine.p{p}", A_CURVATURE),
        ):
            lo, hi = res[size_lo][name], res[size_hi][name]
            ratio = lo / (hi + _TINY)
            rec.bounded(check_id, anchor, hi, _refine_tolerance(config, lo),
                        f"{size_lo}->{size_hi}: {lo:.3e} -> {hi:.3e} (ratio {ratio:.1f})")


# factor on the second piece in the d2_scale negative control
_CONTROL_D2_SCALE = 1.05


def _scaled_d2_split(sp, scale):
    """sp with d2 times `scale` and d3 re-formed in the order of `decompose`."""
    d2f = scale * sp.d2
    d3f = sp.grad - sp.embedded - d2f
    return gradients.GradientSplit(sp.d1, d2f, d3f, sp.divergence, sp.grad,
                                   sp.insertion_trace, sp.embedded)


def _negative_controls(rec, config, caches):
    """The suite is falsifiable: corrupted conventions must be detected.
    Each control runs in a `try` of its own (a failed draw of their shared
    field is retried), so a fault that aborts one leaves the other's record."""
    p, size = config.ranks[0], min(caches)

    @functools.cache
    def control_field():
        rng = np.random.default_rng([config.seed, 404, p])
        return _unit(band_limited_field(caches[size], p, max(1, size // 4), rng))

    try:
        bad_orth = max(_scaled_d2_split(gradients.decompose(control_field()),
                                        _CONTROL_D2_SCALE).orthogonality.values())
        rec.flag("control.d2_scale", PLUMBING, bad_orth > config.tolerance("control_floor"),
                 value=bad_orth,
                 detail="5% second-piece coefficient error must break orthogonality")
    except Exception as exc:  # noqa: BLE001
        rec.abort("control.d2_scale", PLUMBING, exc)
    try:
        # the gradient and the divergence with the arithmetic of `decompose`
        phi = control_field()
        grad = fields.gradient(phi).data
        gradients._d1_from_grad(phi, grad, -fields._contract_apply(phi.cache, p, grad))
        rec.flag("control.delta_sign", PLUMBING, False,
                 detail="flipped divergence sign was not caught by the trace guard")
    except gradients.ConventionError as exc:
        rec.flag("control.delta_sign", PLUMBING, True,
                 detail=f"trace guard fired as required: {exc}")
    except Exception as exc:  # noqa: BLE001
        rec.abort("control.delta_sign", PLUMBING, exc)


def run_identity_suite(config):
    """Per-rank identity checks on the largest configured grid, refinement
    checks across the last two grids, and the negative-control fixtures."""
    return _run_suite("identity", "identity", config, config.sizes[-2:],
                      _identity_checks_for_rank, _negative_controls)


# ---------------------------------------------------------------------------
# kernel experiments
# ---------------------------------------------------------------------------

def flat_joint_kernel_oracle(cache, p, names):
    """Count the stacked kernel mode by mode on a flat torus.

    Constants lie in the kernel of every first-order operator here; each
    nonzero sub-Nyquist mode contributes cos and sin copies of the stacked
    symbol's nullity.  Independent of assembly: pure structure-tensor algebra.
    """
    if not cache.is_flat:
        raise HarnessError("per-mode kernel oracle needs the flat metric")
    t = fiber.tracefree_dim(cache.n, p)
    # on the torus (2 pi)^n the covector of mode m is m itself
    xi = np.array(spectral.build_dealiased_basis(cache, p).modes, float)
    # the stacked symbol of every mode at once: (modes, rows, t)
    mats = spectral.flat_piece_symbols(cache.n, p, names, xi)
    sv = np.linalg.svd(mats, compute_uv=False)
    ranks = np.sum(sv > _ORACLE_RANK_TOL * np.linalg.norm(xi, axis=1)[:, None], axis=1)
    return int(t + 2 * np.sum(t - ranks))


def _count_stability(rec, check_id, anchor, label, by_size):
    """Confirmation policy: a count is confirmed when the two finest grids
    agree and neither is gap-indeterminate."""
    sizes = sorted(by_size)
    kcs = [by_size[s] for s in sizes]
    detail = ", ".join(f"{s}->{by_size[s].label} (gap {by_size[s].gap_ratio:.2e})"
                       for s in sizes)
    if any(k.indeterminate for k in kcs):
        rec.indeterminate(check_id, anchor, value=float(kcs[-1].count),
                          detail=f"{label} gap did not resolve: {detail}")
        return None
    if len({k.count for k in kcs}) != 1:
        rec.flag(check_id, anchor, False, value=float(kcs[-1].count),
                 detail=f"{label} count unstable across grids: {detail}")
        return None
    rec.flag(check_id, anchor, True, value=float(kcs[-1].count),
             detail=f"{label} confirmed: {detail}")
    return kcs[-1].count


def _kernel_checks_for_rank(rec, config, p, caches):
    n = config.dimension
    sizes = sorted(caches)
    ck_by_size = {}
    ck_gram_by_size = {}
    kill_by_size = {}
    cod_by_size = {}
    tt_raw = {}
    tt_win = {}
    psd_worst = symmetry_worst = 0.0
    for size in sizes:
        cache = caches[size]
        # only the finest layer is read after the loop, so the coarser one
        # is dropped before the next is built
        gal = None
        gal = spectral.Galerkin(cache, p)
        rep = spectral.spectrum(spectral.d1_star_d1_handle(cache, p), galerkin=gal)
        ck_by_size[size] = rep.kernel
        lam = max(rep.lambda_max, 0.0)
        psd_worst = max(psd_worst, -float(rep.eigenvalues[0]) / (lam + _TINY))
        symmetry_worst = max(symmetry_worst, rep.symmetry_defect)
        # a stacked system's Galerkin matrix sums the weighted Grams of its
        # operators' images, so its kernel is the intersection of theirs
        for by, names in ((ck_gram_by_size, ["d1"]), (kill_by_size, ["d1", "divergence"]),
                          (cod_by_size, ["d2", "d3"])):
            by[size] = spectral.kernel_count(spectral.sector_spectrum(gal.joint_eigen(names)))
        tt = spectral.sector_spectrum(gal.joint_eigen(["divergence"]))
        tt_raw[size] = spectral.kernel_count(tt)
        tt_win[size] = spectral.kernel_count(tt[:50])

    ck = _count_stability(rec, f"kernel.ck_count.p{p}", A_KERNEL,
                          "first-piece kernel", ck_by_size)
    rec.bounded(f"kernel.psd.p{p}", A_ELLIPTIC, psd_worst, 1e-9,
                "most negative eigenvalue relative to the largest")
    rec.check(f"kernel.form_symmetry.p{p}", A_ADJOINT, symmetry_worst, "adjoint_transpose",
              "d1*d1 form: ||G - G^T|| / ||G||, worst over the grids")
    agree = all(ck_by_size[s].count == ck_gram_by_size[s].count for s in sizes)
    rec.flag(f"kernel.first_order_agreement.p{p}", A_KERNEL, agree,
             detail="squared-operator and stacked-Gram kernel counts agree")
    bound = fiber.ck_dim_bound(n, p)
    if ck is not None:
        rec.flag(f"kernel.ck_vs_bound.p{p}", A_KERNEL, ck <= bound, value=float(ck),
                 detail=f"count {ck} <= closed-form bound {bound}")
    kill = _count_stability(rec, f"kernel.killing_count.p{p}", A_KILLING,
                            "joint divergence-free kernel", kill_by_size)
    if ck is not None and kill is not None:
        rec.flag(f"kernel.killing_within_ck.p{p}", A_KILLING, kill <= ck,
                 value=float(kill), detail=f"{kill} <= {ck}")
    _count_stability(rec, f"kernel.codazzi_count.p{p}", A_CODAZZI,
                     "symmetric-derivative system kernel", cod_by_size)

    cache_hi = caches[sizes[-1]]
    if cache_hi.is_flat:
        oracle_ck = flat_joint_kernel_oracle(cache_hi, p, ["d1"])
        if ck is not None:
            rec.flag(f"kernel.ck_mode_oracle.p{p}", A_KERNEL, ck == oracle_ck,
                     value=float(ck), detail=f"measured {ck}, per-mode oracle {oracle_ck}")
        for label, names, check_id, anchor, by in (
            ("joint divergence-free", ["d1", "divergence"],
             f"kernel.killing_mode_oracle.p{p}", A_KILLING, kill_by_size),
            ("symmetric-derivative system", ["d2", "d3"],
             f"kernel.codazzi_mode_oracle.p{p}", A_CODAZZI, cod_by_size),
        ):
            oracle = flat_joint_kernel_oracle(cache_hi, p, names)
            got = by[sizes[-1]].count
            rec.flag(check_id, anchor, got == oracle, value=float(got),
                     detail=f"{label}: measured {got}, per-mode oracle {oracle}")

    # divergence near-kernel: the discrete rendering of an infinite family
    raw_detail = ", ".join(
        f"{s}->{tt_raw[s].label} (window50 {tt_win[s].label})" for s in sizes
    )
    rec.measure(f"kernel.tt_counts.p{p}", A_TT, float(tt_raw[sizes[-1]].count),
                f"divergence near-kernel: {raw_detail}")
    grows = fiber.tracefree_dim(n, p) > fiber.tracefree_dim(n, p - 1)
    if len(sizes) >= 2:
        lo, hi = tt_raw[sizes[0]].count, tt_raw[sizes[-1]].count
        if grows:
            rec.flag(f"kernel.tt_growth.p{p}", A_TT, hi > lo, value=float(hi),
                     detail=f"family must grow with resolution: {lo} -> {hi}")
        else:
            rec.measure(f"kernel.tt_growth.p{p}", A_TT, float(hi),
                        detail=f"fiber dimensions make every nonzero-mode block "
                               f"square-injective; finite family expected: {lo} -> {hi}")

    if cache_hi.is_flat and ck is not None and ck > 0:
        # the finest layer solves its d1 system once more, for the vectors
        worst = 0.0
        for phi in gal.lowest_fields(["d1"], ck):
            worst = max(worst, l2_norm(fields.gradient(phi)) / (l2_norm(phi) + _TINY))
        rec.check(f"kernel.parallel_fields.p{p}", A_PARALLEL, worst, "parallel",
                  "flat-torus kernel fields are parallel")
    _symbol_checks_for_rank(rec, config, p, cache_hi)


def _symbol_checks_for_rank(rec, config, p, cache):
    """Pointwise symbol positivity; the distance to a scalar symbol is
    reported but never asserted (it is genuinely nonzero at higher rank)."""
    handle = spectral.d1_star_d1_handle(cache, p)
    rng = np.random.default_rng([config.seed, 505, p])
    xi, points = [], []
    for _ in range(100):
        xi.append(rng.standard_normal(config.dimension))
        points.append([int(rng.integers(0, s)) for s in cache.spec.shape])
    # the samples as one stack: one symbol call and one batched eigvalsh;
    # gscale is e^{-2f} at each sample's grid point, and a sample's lowest
    # eigenvalue counts only where its symbol is symmetric to 1e-10
    xi = np.array(xi)
    gscale = np.exp(-2.0 * cache.conf_exponent_values[tuple(np.array(points).T)])
    mat = handle.symbol(xi, gscale[:, None, None])
    size = np.linalg.norm(mat, axis=(1, 2)) + _TINY
    alpha = np.trace(mat, axis1=1, axis2=2) / mat.shape[-1]
    dist_max = float(np.max(np.linalg.norm(mat - alpha[:, None, None] * np.eye(mat.shape[-1]),
                                           axis=(1, 2)) / size))
    symmetric = np.linalg.norm(mat - mat.swapaxes(1, 2), axis=(1, 2)) / size < 1e-10
    lowest = np.linalg.eigvalsh(mat[symmetric])[:, 0]
    floor = float(np.min(lowest / (gscale * np.sum(xi * xi, axis=1))[symmetric],
                         initial=np.inf))
    rec.flag(f"symbol.positive.p{p}", A_ELLIPTIC,
             floor >= config.tolerance("ellipticity_floor"), value=floor,
             detail="min eigenvalue of the squared symbol over |xi|^2, 100 samples")
    rec.measure(f"symbol.distance_to_scalar.p{p}", A_ELLIPTIC, dist_max,
                "largest relative distance of the squared symbol from a multiple "
                "of the identity (reported, not asserted)")


def _signed_curvature_note(rec, config, caches):
    rec.measure("kernel.signed_curvature_cases", A_PARALLEL, None,
                "strictly signed-curvature compact examples are outside the "
                "periodic metric catalog; vanishing statements are exercised "
                "only in their flat rendering")


def kernel_experiment(config):
    """Kernel counts for the squared first piece (with per-mode oracles on
    flat metrics), the joint divergence-free system, the divergence near-
    kernel family, and the symmetric-derivative system; plus symbol
    positivity scans."""
    return _run_suite("kernel", "kernel", config, config.sizes[-2:],
                      _kernel_checks_for_rank, _signed_curvature_note)


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

_ALGEBRAIC = {
    "reconstruction": ("reconstruction", A_SPLIT),
    "splitting_form": ("equivalence", A_COMP_FORM),
    "adjoint_transpose": ("adjoint_transpose", A_ADJOINT),
}
_DISCRETIZATION = {
    "two_route": A_COMP1,
    "rough_identity": A_ROUGH,
    "curvature_oracle": A_CURVATURE,
    "zeroth_order": A_CURVATURE,
}


def _residual_profile(config, p, caches):
    prof = {name: [] for name in (*_ALGEBRAIC, *_DISCRETIZATION)}
    band = min(config.sizes[0] // 4, 4)
    for size in config.sizes:
        cache = caches[size]
        rng = np.random.default_rng([config.seed, 606, p])
        phi = band_limited_field(cache, p, band, rng)
        psi = _unit(band_limited_field(cache, p + 1, band, rng))
        phi_u = _unit(phi)
        res = gradients.second_order_residuals(phi, _zeroth_order_multiplier(cache))
        res["adjoint_transpose"] = abs(
            l2_inner(gradients.d1(phi_u), psi)
            - l2_inner(phi_u, gradients.d1_exact_adjoint(psi))
        )
        for name, values in prof.items():
            values.append(res[name])
    return prof


def _monotone_above_floor(residuals, floor):
    relevant = [r for r in residuals if r > floor]
    return all(b <= a * 1.5 for a, b in zip(relevant, relevant[1:]))


def _convergence_checks_for_rank(rec, config, p, caches):
    plateau = config.tolerance("plateau")
    prof = _residual_profile(config, p, caches)
    for name, values in sorted(prof.items()):
        anchor = _ALGEBRAIC.get(name, (None, None))[1] or _DISCRETIZATION[name]
        for size, r in zip(config.sizes, values):
            rec.measure(f"converge.residual.{name}.p{p}.N{size}", anchor, r)
    for name, (tol_name, anchor) in sorted(_ALGEBRAIC.items()):
        rec.check(f"converge.flat_profile.{name}.p{p}", anchor,
                  max(prof[name]), tol_name,
                  "grid-independent identity, worst residual over all sizes")
    for name, anchor in sorted(_DISCRETIZATION.items()):
        values = prof[name]
        trend = " -> ".join(f"{v:.2e}" for v in values)
        if not _monotone_above_floor(values, plateau):
            rec.indeterminate(f"converge.plateau.{name}.p{p}", anchor,
                              value=values[-1],
                              detail=f"non-monotone residuals: {trend}")
        else:
            rec.check(f"converge.plateau.{name}.p{p}", anchor,
                      values[-1], "plateau", trend)


def convergence_study(config):
    """Residuals of every identity across every configured grid (at least
    three): algebraic ones must be grid-independent, discretization-limited
    ones must reach the spectral plateau."""
    return _run_suite("convergence", "converge", config, config.sizes,
                      _convergence_checks_for_rank)


def run_suites(config):
    """Run every suite named in config.suites, in a fixed order."""
    runners = {
        "identity": run_identity_suite,
        "kernel": kernel_experiment,
        "convergence": convergence_study,
    }
    return [runners[name](config) for name in config.suites]


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _config_dict(config):
    """The config section: one entry per config key, plus the tolerance
    overrides."""
    out = {}
    for key, (attr, _, _) in VALID_KEYS.items():
        value = getattr(config, attr)
        out[key] = list(value) if isinstance(value, tuple) else value
    out["tolerances"] = {k: config.tolerances[k] for k in sorted(config.tolerances)}
    return out


def _record_dict(r):
    return {
        "check_id": r.check_id,
        "anchor": r.anchor,
        "value": r.value,
        "tolerance": r.tolerance,
        "status": r.status,
        "detail": r.detail,
    }


def report_to_dict(report):
    return {
        "schema": REPORT_SCHEMA,
        "suite": report.suite,
        "status": report.status,
        "config": _config_dict(report.config),
        "environment": dict(report.environment),
        "checks": [
            _record_dict(r)
            for r in sorted(report.records, key=lambda r: r.check_id)
        ],
    }


def render_json(report):
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def render_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check_id", "anchor", "value", "tolerance", "status", "detail"])
    for r in sorted(report.records, key=lambda r: r.check_id):
        writer.writerow([
            r.check_id,
            r.anchor,
            "" if r.value is None else f"{r.value:.17e}",
            "" if r.tolerance is None else f"{r.tolerance:.17e}",
            r.status,
            r.detail,
        ])
    return buf.getvalue()


def render_markdown(report):
    lines = [f"# {report.suite} suite: {report.status}", ""]
    env = ", ".join(f"{k} {v}" for k, v in sorted(report.environment.items()))
    lines.append(f"environment: {env}")
    counts = report.counts
    lines.append(
        "checks: {pass} pass, {fail} fail, {indeterminate} indeterminate, "
        "{measured} measured".format(**counts)
    )
    lines.append("")
    ordered = sorted(report.records, key=lambda r: r.check_id)
    attention = [r for r in ordered if r.status in ("fail", "indeterminate")]
    rest = [r for r in ordered if r.status not in ("fail", "indeterminate")]
    lines.append("## needs attention")
    if attention:
        for r in attention:
            lines.append(_md_row(r))
    else:
        lines.append("(none)")
    lines.append("")
    lines.append("## all checks")
    lines.append("| check | anchor | value | tolerance | status |")
    lines.append("|---|---|---|---|---|")
    for r in attention + rest:
        val = "" if r.value is None else f"{r.value:.3e}"
        tol = "" if r.tolerance is None else f"{r.tolerance:.3e}"
        lines.append(f"| {r.check_id} | {r.anchor} | {val} | {tol} | {r.status} |")
    lines.append("")
    return "\n".join(lines)


def _md_row(r):
    val = "n/a" if r.value is None else f"{r.value:.6e}"
    tol = "" if r.tolerance is None else f" (tolerance {r.tolerance:.1e})"
    detail = f" : {r.detail}" if r.detail else ""
    return f"- `{r.check_id}` [{r.anchor}] {r.status} value {val}{tol}{detail}"


_FORMATS = {
    "json": (render_json, "json"),
    "csv": (render_csv, "csv"),
    "markdown-summary": (render_markdown, "md"),
}


def output_dir(out_dir=None):
    """Where output files go: `out_dir`, else $GRADLAB_OUT, else the
    working directory."""
    return out_dir or os.environ.get("GRADLAB_OUT") or "."


def emit_report(report, format, out_dir=None):
    """Serialize a report into `output_dir(out_dir)`; returns the written
    path.  JSON output is the determinism anchor: identical seed and config
    produce byte-identical files.
    """
    if format not in _FORMATS:
        raise HarnessError(f"unknown report format {format!r}; "
                           f"known: {sorted(_FORMATS)}")
    render, ext = _FORMATS[format]
    out_dir = output_dir(out_dir)
    path = os.path.join(out_dir, f"{report.suite}_report.{ext}")
    content = render(report)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise HarnessError(f"cannot write report {path}: {exc}") from exc
    return path
