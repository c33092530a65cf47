"""Experiment orchestration: identity suites, kernel-counting experiments,
convergence studies, and deterministic report emission.

Every numerical claim the package makes is driven from here as a check
record: {check id, anchor, value, tolerance, status}.  Anchors are stable
tags naming the mathematical statement a check exercises ("plumbing" for
infrastructure checks); each check id carries exactly one anchor.  Reports
are deterministic: a fixed seed and config reproduce byte-identical JSON.
Wall-clock timing is kept on the in-memory report and printed by the CLI
but never serialized, precisely to protect that contract.

Runs are single-process; records are emitted in a deterministic order and
serialized sorted by check id, so independently produced reports merge
reproducibly.
"""

import csv
import io
import json
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import fiber, fields, gradients, spectral
from .config import ExperimentConfig
from .expressions import parse_trig_poly
from .fields import TensorField, l2_inner, l2_norm
from .geometry import GridSpec, build_geometry, conformal_metric_field, flat_metric_field

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

    def failures(self):
        return [r for r in self.records if r.status == "fail"]


def environment_metadata():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.version.version,
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
    if config.metric == "flat":
        metric = flat_metric_field(config.dimension)
    else:
        metric = conformal_metric_field(
            config.dimension, parse_trig_poly(config.conformal_exponent)
        )
    return build_geometry(spec, metric, method=config.method)


def band_limited_field(cache, rank, band, rng):
    """Trig-polynomial field whose coefficients do not depend on the grid.

    Modes are enumerated in a fixed order, so the same rng seed produces
    samples of one continuum field on every grid size; refinement studies
    rely on that.  fields.random_band_limited draws its random numbers per
    grid point instead, so the same seed gives a different field on every
    grid.
    """
    spec = cache.spec
    t = fiber.tracefree_dim(spec.n, rank)
    modes = spectral.half_modes((band,) * spec.n)
    # rows: the constant, then (cos, sin) coefficients per mode, in draw order
    coef = rng.standard_normal((2 * len(modes) + 1, t))
    data = spectral.trig_series(spec, modes, coef) * (1.0 / np.sqrt(2 * len(modes) + 1))
    return TensorField(cache, "s0", rank, data)


def _unit(phi):
    return phi * (1.0 / (l2_norm(phi) + _TINY))


def _random_cov_s0(cache, rank, band, rng):
    """Band-limited random field in the slot-major covariant storage."""
    comps = [fields.random_band_limited(cache, rank, band, rng)
             for _ in range(cache.n)]
    data = np.stack([c.data for c in comps], axis=-2)
    return TensorField(cache, "cov_s0", rank, data)


def _refine_tolerance(config, r_coarse):
    """Pass bar for a residual after refinement: at the spectral floor, or
    smaller than the coarse-grid value by the required factor."""
    return max(
        config.tolerance("plateau"),
        r_coarse / config.tolerance("refinement_factor"),
    )


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def _splitting_form_residual(phi):
    """Compare the two algebraically equal second-order compositions.

    The symmetrized-Laplacian form of the composed operator must match the
    direct formula at roundoff for every grid; any gap is a coefficient
    bug, not discretization error.
    """
    p, n = phi.rank, phi.n
    sw = gradients.stein_weiss_d1(phi, route="formula")
    c_d = (p / (p + 1.0)) * (1.0 - 2.0 / (n + 2.0 * (p - 1.0)))
    samp = fields.to_tracefree(gradients.sampson(phi))
    dsd = fields.to_tracefree(fields.sym_derivative(fields.divergence(phi)))
    alt = TensorField(
        phi.cache, "s0", p, samp.data / (p + 1.0) + c_d * dsd.data
    )
    return l2_norm(sw - alt) / (l2_norm(sw) + _TINY)


def _identity_checks_for_rank(rec, config, p, caches):
    cache_hi = caches[config.sizes[-1]]
    size_hi = config.sizes[-1]
    band = max(1, size_hi // 4)
    rng = np.random.default_rng([config.seed, 101, p])
    batch = [
        fields.random_band_limited(cache_hi, p, band, rng)
        for _ in range(config.field_count)
    ]

    recon = orth = trace = 0.0
    proj = {"d1": 0.0, "d2": 0.0, "d3": 0.0}
    for phi in batch:
        sp = gradients.decompose(phi)
        recon = max(recon, sp.reconstruction_residual)
        orth = max(orth, max(sp.orthogonality.values()))
        trace = max(trace, fields.max_trace_residual(sp.d1))
        pm = gradients.projector_match_residuals(phi)
        for k in proj:
            proj[k] = max(proj[k], pm[k])
    nf = f"{len(batch)} fields"
    rec.check(f"decompose.reconstruction.p{p}", A_SPLIT, recon, "reconstruction", nf)
    rec.check(f"decompose.orthogonality.p{p}", A_SPLIT, orth, "orthogonality", nf)
    rec.check(f"decompose.trace.p{p}", A_SPLIT, trace, "trace_residual",
              "first piece stays trace-free")
    rec.check(f"oracle.d1.p{p}", A_SPLIT, proj["d1"], "projector_match", nf)
    rec.check(f"oracle.d3.p{p}", A_SPLIT, proj["d3"], "projector_match", nf)
    rec.check(f"oracle.d2.p{p}", A_PIECE2, proj["d2"], "projector_match", nf)
    if p >= 3:
        # the high-rank second-piece coefficient is also reported as the
        # best-fit scalar of the formula against the projector route, plus
        # the residual after removing that scalar
        sp = gradients.decompose(batch[0])
        parts = gradients.projector_components(sp.grad)
        b = parts["B"]
        denom = l2_inner(b, b) + _TINY
        s_fit = l2_inner(sp.d2, b) / denom
        resid = l2_norm(sp.d2 - b * s_fit) / (l2_norm(b) + _TINY)
        rec.measure(f"oracle.d2_best_fit.p{p}", A_PIECE2, s_fit,
                    f"best-fit scalar against projector route; residual {resid:.3e}")
        rec.measure(f"oracle.d2_match.p{p}", A_PIECE2, proj["d2"],
                    f"direct mismatch, gated as oracle.d2.p{p}")

    # adjointness: analytic pair and the exact discrete transposes
    adj_formula = adj_t1 = adj_t2 = adj_t3 = 0.0
    for i, phi in enumerate(batch):
        rng_a = np.random.default_rng([config.seed, 202, p, i])
        phi_u = _unit(phi)
        psi = _unit(fields.random_band_limited(cache_hi, p + 1, band, rng_a))
        x2 = _unit(_random_cov_s0(cache_hi, p, band, rng_a))
        adj_formula = max(adj_formula, abs(
            l2_inner(gradients.d1(phi_u), psi)
            - l2_inner(phi_u, fields.divergence(psi))
        ))
        adj_t1 = max(adj_t1, abs(
            l2_inner(gradients.d1(phi_u), psi)
            - l2_inner(phi_u, gradients.d1_exact_adjoint(psi))
        ))
        sp = gradients.decompose(phi_u)
        adj_t2 = max(adj_t2, abs(
            l2_inner(sp.d2, x2) - l2_inner(phi_u, gradients.d2_exact_adjoint(x2))
        ))
        adj_t3 = max(adj_t3, abs(
            l2_inner(sp.d3, x2) - l2_inner(phi_u, gradients.d3_exact_adjoint(x2))
        ))
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
        fields.random_band_limited(cache_hi, p, band2, rng2)
        for _ in range(min(3, config.field_count))
    ]
    two_route = split_form = 0.0
    wz = {"split_vs_rough": 0.0, "rough_identity": 0.0,
          "difference_identity": 0.0, "curvature_oracle": 0.0}
    en = {"energy": 0.0, "rough_energy": 0.0, "split_energy": 0.0, "q_form_route": 0.0}
    flipped_min = np.inf
    flat_k = 0.0
    for phi in sub:
        a = gradients.stein_weiss_d1(phi, route="formula")
        b = gradients.stein_weiss_d1(phi, route="transpose")
        two_route = max(two_route, l2_norm(a - b) / (l2_norm(a) + _TINY))
        split_form = max(split_form, _splitting_form_residual(phi))
        wrep = gradients.weitzenbock_identity_report(phi)
        for k in wz:
            wz[k] = max(wz[k], wrep[k])
        irep = gradients.integral_identity_report(phi)
        for k in en:
            en[k] = max(en[k], irep[k])
        flipped_min = min(flipped_min, irep["energy_flipped"])
        if cache_hi.is_flat:
            K = gradients.weitzenbock_K(phi)
            flat_k = max(flat_k, l2_norm(K) / (l2_norm(phi) + _TINY))
    rec.check(f"composition.two_route.p{p}", A_COMP1, two_route, "two_route")
    rec.check(f"composition.splitting_form.p{p}", A_COMP_FORM, split_form, "equivalence")
    rec.check(f"weitzenbock.split_sum.p{p}", A_ROUGH, wz["split_vs_rough"], "equivalence",
              "gradient square equals the sum of the three transpose compositions")
    rec.check(f"weitzenbock.rough.p{p}", A_ROUGH, wz["rough_identity"], "weitzenbock")
    rec.check(f"weitzenbock.difference.p{p}", A_QFORM, wz["difference_identity"], "weitzenbock")
    rec.check(f"weitzenbock.curvature_oracle.p{p}", A_CURVATURE, wz["curvature_oracle"],
              "weitzenbock", "operational curvature term against the pointwise formula")
    if cache_hi.is_flat:
        rec.check(f"weitzenbock.flat_zero.p{p}", A_CURVATURE, flat_k, "flat_curvature",
                  "curvature term vanishes on the flat torus")
    rec.check(f"energy.straight.p{p}", A_ENERGY, en["energy"], "integral")
    rec.check(f"energy.rough.p{p}", A_ROUGH_ENERGY, en["rough_energy"], "integral")
    rec.check(f"energy.partition.p{p}", A_PARTITION, en["split_energy"], "integral")
    rec.check(f"energy.quadratic_route.p{p}", A_QFORM, en["q_form_route"], "integral")
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
            phi = band_limited_field(cache, p, band_r, rng_r)
            a = gradients.stein_weiss_d1(phi, route="formula")
            b = gradients.stein_weiss_d1(phi, route="transpose")
            wrep = gradients.weitzenbock_identity_report(phi)
            u = 1.0 + 0.3 * np.cos(cache.spec.theta_mesh()[0])
            res[size] = {
                "two_route": l2_norm(a - b) / (l2_norm(a) + _TINY),
                "rough": wrep["rough_identity"],
                "zeroth": gradients.zeroth_order_residual(phi, u),
            }
        for name, check_id, anchor in (
            ("two_route", f"composition.two_route_refine.p{p}", A_COMP1),
            ("rough", f"weitzenbock.rough_refine.p{p}", A_ROUGH),
            ("zeroth", f"weitzenbock.zeroth_refine.p{p}", A_CURVATURE),
        ):
            lo, hi = res[size_lo][name], res[size_hi][name]
            ratio = lo / (hi + _TINY)
            rec.bounded(check_id, anchor, hi, _refine_tolerance(config, lo),
                        f"{size_lo}->{size_hi}: {lo:.3e} -> {hi:.3e} (ratio {ratio:.1f})")


def _negative_controls(rec, config, caches):
    """The suite is falsifiable: corrupted conventions must be detected."""
    p = config.ranks[0]
    size = min(caches)
    cache = caches[size]
    rng = np.random.default_rng([config.seed, 404, p])
    phi = fields.random_band_limited(cache, p, max(1, size // 4), rng)
    floor = config.tolerance("control_floor")

    corrupt = gradients.Conventions(d2_prefactor_scale=1.05)
    sp = gradients.decompose(phi, corrupt)
    bad_orth = max(sp.orthogonality.values())
    rec.flag("control.d2_scale", PLUMBING, bad_orth > floor, value=bad_orth,
             detail="5% second-piece coefficient error must break orthogonality")

    try:
        gradients.d1(phi, gradients.Conventions(delta_sign=-1.0))
        rec.flag("control.delta_sign", PLUMBING, False,
                 detail="flipped divergence sign was not caught by the trace guard")
    except gradients.ConventionError as exc:
        rec.flag("control.delta_sign", PLUMBING, True,
                 detail=f"trace guard fired as required: {exc}")


def run_identity_suite(config):
    """Per-rank identity checks on the largest configured grid, refinement
    checks across the last two grids, and the negative-control fixtures."""
    t0 = time.perf_counter()
    rec = _Recorder(config)
    timing = {}
    caches = {}
    for size in config.sizes[-2:]:
        caches[size] = build_cache(config, size)
    for p in config.ranks:
        tp = time.perf_counter()
        try:
            _identity_checks_for_rank(rec, config, p, caches)
        except Exception as exc:  # noqa: BLE001 - aborted checks fail the suite
            rec.abort(f"identity.rank.p{p}", PLUMBING, exc)
        timing[f"identity.p{p}"] = time.perf_counter() - tp
    try:
        _negative_controls(rec, config, caches)
    except Exception as exc:  # noqa: BLE001
        rec.abort("control.suite", PLUMBING, exc)
    timing["total"] = time.perf_counter() - t0
    return SuiteReport("identity", config, rec.records, environment_metadata(), timing)


# ---------------------------------------------------------------------------
# kernel experiments
# ---------------------------------------------------------------------------

def joint_kernel_spectrum(cache, p, names, window=None, galerkin=None):
    """Eigenvalues and kernel count of the stacked system named by `names`.

    The Galerkin matrix sums the weighted Grams of every operator's image,
    so its kernel is exactly the intersection of the measured kernels;
    eigenvalues are the squared singular values of the stacked operator in
    the weighted norms.  `galerkin` is the layer of (cache, p), built here
    when not given.
    """
    gal = galerkin or spectral.Galerkin(cache, p)
    evals = spectral.sector_spectrum(gal.joint_eigen(names))
    kc = spectral.kernel_count(evals)
    kc_win = None
    if window is not None:
        kc_win = spectral.kernel_count(evals[: min(window, len(evals))])
    return evals, kc, kc_win


def flat_joint_kernel_oracle(cache, p, names):
    """Count the stacked kernel mode by mode on a flat torus.

    Constants lie in the kernel of every first-order operator here; each
    nonzero sub-Nyquist mode contributes cos and sin copies of the stacked
    symbol's nullity.  Independent of assembly: pure structure-tensor algebra.
    """
    if not cache.is_flat:
        raise HarnessError("per-mode kernel oracle needs the flat metric")
    spec = cache.spec
    t = fiber.tracefree_dim(spec.n, p)
    handles = [spectral.handle_by_name(cache, p, name) for name in names]
    total = t
    for m in spectral.build_dealiased_basis(cache, p).modes:
        xi = np.array([
            2.0 * np.pi * mj / L for mj, L in zip(m, spec.lengths)
        ])
        mat = np.vstack([
            np.atleast_2d(np.asarray(h.symbol(xi, 1.0))) for h in handles
        ])
        sv = np.linalg.svd(mat, compute_uv=False)
        rank = int(np.sum(sv > _ORACLE_RANK_TOL * np.linalg.norm(xi)))
        total += 2 * (t - rank)
    return total


def _count_stability(rec, check_id, anchor, label, by_size, detail_extra=""):
    """Confirmation policy: a count is confirmed when the two finest grids
    agree and neither is gap-indeterminate."""
    sizes = sorted(by_size)
    kcs = [by_size[s] for s in sizes]
    detail = ", ".join(f"{s}->{by_size[s].label} (gap {by_size[s].gap_ratio:.2e})"
                       for s in sizes)
    if detail_extra:
        detail = f"{detail}; {detail_extra}"
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
    psd_worst = 0.0
    layers = {}
    for size in sizes:
        cache = caches[size]
        gal = layers[size] = spectral.Galerkin(cache, p)
        rep = spectral.spectrum(spectral.d1_star_d1_handle(cache, p), n_eigs=None,
                                galerkin=gal)
        ck_by_size[size] = rep.kernel
        lam = max(rep.lambda_max, 0.0)
        psd_worst = max(psd_worst, -float(rep.eigenvalues[0]) / (lam + _TINY))
        _, kc_gram, _ = joint_kernel_spectrum(cache, p, ["d1"], galerkin=gal)
        ck_gram_by_size[size] = kc_gram
        _, kc_kill, _ = joint_kernel_spectrum(cache, p, ["d1", "divergence"], galerkin=gal)
        kill_by_size[size] = kc_kill
        _, kc_cod, _ = joint_kernel_spectrum(cache, p, ["d2", "d3"], galerkin=gal)
        cod_by_size[size] = kc_cod
        _, kc_tt, kc_tt_win = joint_kernel_spectrum(
            cache, p, ["divergence"], window=50, galerkin=gal
        )
        tt_raw[size] = kc_tt
        tt_win[size] = kc_tt_win

    ck = _count_stability(rec, f"kernel.ck_count.p{p}", A_KERNEL,
                          "first-piece kernel", ck_by_size)
    rec.bounded(f"kernel.psd.p{p}", A_ELLIPTIC, psd_worst, 1e-9,
                "most negative eigenvalue relative to the largest")
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
        # the d1 eigendecomposition of the finest grid is reused
        worst = 0.0
        for phi in layers[sizes[-1]].lowest_fields(["d1"], ck):
            worst = max(worst, l2_norm(fields.gradient(phi)) / (l2_norm(phi) + _TINY))
        rec.check(f"kernel.parallel_fields.p{p}", A_PARALLEL, worst, "parallel",
                  "flat-torus kernel fields are parallel")


def _symbol_checks_for_rank(rec, config, p, cache):
    """Pointwise symbol positivity; the distance to a scalar symbol is
    reported but never asserted (it is genuinely nonzero at higher rank)."""
    handle = spectral.d1_star_d1_handle(cache, p)
    rng = np.random.default_rng([config.seed, 505, p])
    floor = np.inf
    dist_max = 0.0
    shape = cache.spec.shape
    for _ in range(100):
        xi = rng.standard_normal(config.dimension)
        x = tuple(int(rng.integers(0, s)) for s in shape)
        srep = spectral.symbol_eval(handle, xi, x=x)
        floor = min(floor, srep.min_eigenvalue / (srep.gscale * (xi @ xi)))
        dist_max = max(dist_max, srep.distance_to_scalar)
    rec.flag(f"symbol.positive.p{p}", A_ELLIPTIC,
             floor >= config.tolerance("ellipticity_floor"), value=floor,
             detail="min eigenvalue of the squared symbol over |xi|^2, 100 samples")
    rec.measure(f"symbol.distance_to_scalar.p{p}", A_ELLIPTIC, dist_max,
                "largest relative distance of the squared symbol from a multiple "
                "of the identity (reported, not asserted)")


def kernel_experiment(config):
    """Kernel counts for the squared first piece (with per-mode oracles on
    flat metrics), the joint divergence-free system, the divergence near-
    kernel family, and the symmetric-derivative system; plus symbol
    positivity scans."""
    t0 = time.perf_counter()
    rec = _Recorder(config)
    timing = {}
    sizes = config.sizes[-2:]
    caches = {size: build_cache(config, size) for size in sizes}
    for p in config.ranks:
        tp = time.perf_counter()
        try:
            _kernel_checks_for_rank(rec, config, p, caches)
            _symbol_checks_for_rank(rec, config, p, caches[sizes[-1]])
        except Exception as exc:  # noqa: BLE001
            rec.abort(f"kernel.rank.p{p}", PLUMBING, exc)
        timing[f"kernel.p{p}"] = time.perf_counter() - tp
    rec.measure("kernel.signed_curvature_cases", A_PARALLEL, None,
                "strictly signed-curvature compact examples are outside the "
                "periodic metric catalog; vanishing statements are exercised "
                "only in their flat rendering")
    timing["total"] = time.perf_counter() - t0
    return SuiteReport("kernel", config, rec.records, environment_metadata(), timing)


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
        sp = gradients.decompose(phi)
        prof["reconstruction"].append(sp.reconstruction_residual)
        prof["splitting_form"].append(_splitting_form_residual(phi))
        prof["adjoint_transpose"].append(abs(
            l2_inner(gradients.d1(phi_u), psi)
            - l2_inner(phi_u, gradients.d1_exact_adjoint(psi))
        ))
        a = gradients.stein_weiss_d1(phi, route="formula")
        b = gradients.stein_weiss_d1(phi, route="transpose")
        prof["two_route"].append(l2_norm(a - b) / (l2_norm(a) + _TINY))
        wrep = gradients.weitzenbock_identity_report(phi)
        prof["rough_identity"].append(wrep["rough_identity"])
        prof["curvature_oracle"].append(wrep["curvature_oracle"])
        u = 1.0 + 0.3 * np.cos(cache.spec.theta_mesh()[0])
        prof["zeroth_order"].append(gradients.zeroth_order_residual(phi, u))
    return prof


def _pair_slopes(sizes, residuals, floor=1e-12):
    """Log-log slopes of residual vs grid spacing for adjacent size pairs.

    The coarsest grids sit in the pre-asymptotic regime, so the finest
    pair is the order estimate; the full list is kept for the record.
    """
    pts = [(s, r) for s, r in zip(sizes, residuals) if r > floor]
    return [
        float(np.log(r0 / r1) / np.log(s1 / s0))
        for (s0, r0), (s1, r1) in zip(pts, pts[1:])
    ]


def _monotone_above_floor(residuals, floor):
    relevant = [r for r in residuals if r > floor]
    return all(b <= a * 1.5 for a, b in zip(relevant, relevant[1:]))


def convergence_study(config):
    """Residuals of every identity across at least three grids: algebraic
    ones must be grid-independent, discretization-limited ones must reach
    the spectral plateau or show fourth-order slopes under fd4."""
    if len(config.sizes) < 3:
        raise HarnessError(
            f"convergence study needs >= 3 grid sizes, got {config.sizes}"
        )
    t0 = time.perf_counter()
    rec = _Recorder(config)
    timing = {}
    caches = {size: build_cache(config, size) for size in config.sizes}
    plateau = config.tolerance("plateau")
    for p in config.ranks:
        tp = time.perf_counter()
        try:
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
                monotone = _monotone_above_floor(values, plateau)
                trend = " -> ".join(f"{v:.2e}" for v in values)
                if config.method == "spectral":
                    if not monotone:
                        rec.indeterminate(f"converge.plateau.{name}.p{p}", anchor,
                                          value=values[-1],
                                          detail=f"non-monotone residuals: {trend}")
                    else:
                        rec.check(f"converge.plateau.{name}.p{p}", anchor,
                                  values[-1], "plateau", trend)
                else:
                    slopes = _pair_slopes(config.sizes, values)
                    if not slopes:
                        rec.check(f"converge.slope.{name}.p{p}", anchor,
                                  values[-1], "plateau",
                                  f"already at the floor: {trend}")
                    elif not monotone:
                        rec.indeterminate(f"converge.slope.{name}.p{p}", anchor,
                                          value=slopes[-1],
                                          detail=f"non-monotone residuals: {trend}")
                    else:
                        target = config.tolerance("slope_target")
                        window = config.tolerance("slope_window")
                        pairs = ", ".join(f"{s:.2f}" for s in slopes)
                        rec.flag(f"converge.slope.{name}.p{p}", anchor,
                                 abs(slopes[-1] - target) <= window, value=slopes[-1],
                                 detail=f"finest-pair slope {slopes[-1]:.2f} vs "
                                        f"{target}+-{window} (pairs {pairs}); {trend}")
        except Exception as exc:  # noqa: BLE001
            rec.abort(f"converge.rank.p{p}", PLUMBING, exc)
        timing[f"converge.p{p}"] = time.perf_counter() - tp
    timing["total"] = time.perf_counter() - t0
    return SuiteReport("convergence", config, rec.records, environment_metadata(), timing)


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
    return {
        "metric.preset": config.metric,
        "metric.conformal": config.conformal_exponent,
        "grid.dimension": config.dimension,
        "grid.sizes": list(config.sizes),
        "ranks": list(config.ranks),
        "method": config.method,
        "seed": config.seed,
        "suites": list(config.suites),
        "fields.count": config.field_count,
        "tolerances": {k: config.tolerances[k] for k in sorted(config.tolerances)},
    }


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


def emit_report(report, format, out_dir=None):
    """Serialize a report; returns the written path.

    The output directory defaults to GRADLAB_OUT, then the working
    directory.  JSON output is the determinism anchor: identical seed and
    config produce byte-identical files.
    """
    if format not in _FORMATS:
        raise HarnessError(f"unknown report format {format!r}; "
                           f"known: {sorted(_FORMATS)}")
    render, ext = _FORMATS[format]
    out_dir = out_dir or os.environ.get("GRADLAB_OUT") or "."
    path = os.path.join(out_dir, f"{report.suite}_report.{ext}")
    content = render(report)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise HarnessError(f"cannot write report {path}: {exc}") from exc
    return path
