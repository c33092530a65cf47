"""Periodic grids, derivative engines, metrics, and curvature.

The manifolds are the tori (2 pi)^n with the metric g = e^{2f} delta, f a
trig polynomial: the exponent f is the whole description of a metric, and
f = 0 is the flat torus.  The coordinates x_i run over [0, 2 pi), so they
are the angular variables of the trig polynomials.  Everything is sampled
on a tensor-product lattice; derivatives are pseudo-spectral by default
with a 4th-order stencil as the alternative.

The spectral derivative along an axis is a cached dense circulant
matrix (Nyquist bin zeroed) applied as one batched matmul, built from its
first column so that it is exactly circulant and exactly antisymmetric.

Array convention: sampled data has the n grid axes first, fiber or
component axes after, e.g. the metric is (*grid, n, n).  Field data may
put batch axes before the grid axes; `differentiate` is told how many.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .expressions import TrigPoly

TWO_PI = 2.0 * math.pi

# relative deviation of the discrete Christoffel symbols from the conformal
# structural form that GeometryCache.conformal_h accepts (roundoff)
STRUCTURE_TOL = 1e-12

# largest lattice a GridSpec accepts, in grid points
POINT_CAP = 2_000_000


class GeometryError(RuntimeError):
    """Raised for invalid grids, an exponent that does not fit the grid, or
    unusable metric samples."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic lattice on the n-torus (2*pi)^n."""

    n: int
    sizes: tuple

    def __post_init__(self):
        if self.n < 1:
            raise GeometryError("dimension must be >= 1")
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) != self.n:
            raise GeometryError(f"need {self.n} sizes, got {len(sizes)}")
        if any(s < 8 or s % 2 for s in sizes):
            raise GeometryError(f"sizes must be even and >= 8: {sizes}")
        npts = math.prod(sizes)
        if npts > POINT_CAP:
            raise GeometryError(f"{npts} grid points exceeds cap {POINT_CAP}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def shape(self):
        return self.sizes

    @property
    def num_points(self):
        return math.prod(self.sizes)

    @property
    def spacings(self):
        return tuple(TWO_PI / s for s in self.sizes)

    @property
    def cell_volume(self):
        return math.prod(self.spacings)

    def theta_mesh(self):
        """Angular coordinates per axis, full mesh, shape (*grid,)."""
        axes = [np.arange(N) * (TWO_PI / N) for N in self.sizes]
        return np.meshgrid(*axes, indexing="ij")


@lru_cache(maxsize=None)
def _derivative_matrix(spec, axis):
    """Spectral derivative along `axis` as a dense N x N matrix.

    With the Nyquist bin zeroed the operator is the circulant D[j, k] =
    c[(j - k) mod N], c[d] = (1/2) (-1)^d cot(pi d/N) (Trefethen, Spectral
    Methods in MATLAB, ch. 3).  Only d < N/2 is evaluated and c[N - d] =
    -c[d] is set by negation, so D is exactly circulant and exactly
    antisymmetric; filling from cot(pi (j - k)/N) directly is neither in
    floating point, and commutators of derivatives pick up the difference.
    It holds N^2 entries, no more than one scalar field on a grid of
    dimension >= 2.
    """
    N = spec.sizes[axis]
    d = np.arange(1, N // 2)
    c = np.zeros(N)
    c[1 : N // 2] = 0.5 * (-1.0) ** d / np.tan(math.pi * d / N)
    c[N // 2 + 1 :] = -c[N // 2 - 1 : 0 : -1]
    j = np.arange(N)
    D = c[(j[:, None] - j[None, :]) % N]
    D.flags.writeable = False
    return D


def differentiate(values, axis, spec, method="spectral", batch_ndim=0):
    """Partial derivative along grid axis `axis` of data shaped
    (*batch, *grid, ...), with `batch_ndim` leading batch axes."""
    if method == "spectral":
        N = spec.sizes[axis]
        D = _derivative_matrix(spec, axis)
        axis += batch_ndim
        lead = math.prod(values.shape[:axis])
        if values.ndim == axis + 1:
            # one row-major gemm; a stack of matvecs is slower here
            out = values.reshape(lead, N) @ D.T
        else:
            out = D @ values.reshape(lead, N, -1)
        return out.reshape(values.shape)
    if method == "fd4":
        h = spec.spacings[axis]
        axis += batch_ndim
        f1 = np.roll(values, -1, axis=axis)
        f2 = np.roll(values, -2, axis=axis)
        b1 = np.roll(values, 1, axis=axis)
        b2 = np.roll(values, 2, axis=axis)
        return (-f2 + 8.0 * f1 - 8.0 * b1 + b2) / (12.0 * h)
    raise GeometryError(f"unknown differentiation method {method!r}")


def evaluate_on_grid(poly: TrigPoly, spec: GridSpec):
    """Sample a trig polynomial at all grid points, shape (*grid,)."""
    if poly.n_vars > spec.n:
        raise GeometryError(
            f"expression uses x{poly.n_vars} on an n={spec.n} grid"
        )
    return np.broadcast_to(poly.evaluate(spec.theta_mesh()), spec.shape).copy()


def coordinate_derivative(poly: TrigPoly, axis, spec):
    """Analytic d/dx_axis on the grid; the coordinates are the angles."""
    return evaluate_on_grid(poly.angular_derivative(axis), spec)


# ---------------------------------------------------------------------------
# geometry cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GeometryCache:
    """Immutable bundle of sampled metric data and curvature.

    The metric is g = e^{2f} delta with f = `exponent`; f = 0 is the flat
    torus.  riemann is fully lowered, indexed (*grid, i, j, k, l) as
    R_{ijkl} = g_{im} R^m_{jkl}; ricci is the (j, l) contraction of R^m_{jml}.
    """

    spec: GridSpec
    exponent: TrigPoly
    method: str
    g: np.ndarray
    g_inv: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar_curvature: np.ndarray
    weights: np.ndarray
    conf_exponent_values: np.ndarray
    _conformal_factors: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self):
        return self.spec.n

    @property
    def is_flat(self):
        return self.exponent.is_zero

    @cached_property
    def conformal_h(self):
        """h_l = Gamma^l_ll, shape (*grid, n), or None on a flat metric.

        For g = e^{2f} delta the Christoffel symbols are Gamma^k_ij =
        delta_ki h_j + delta_kj h_i - delta_ij h_k, so every connection
        term is linear in h.  The discrete symbols are checked against
        that form on first use; the field operators rely on it.
        """
        if self.is_flat:
            return None
        gamma = self.christoffel
        h = np.ascontiguousarray(np.einsum("...lll->...l", gamma))
        scale = max(float(np.max(np.abs(gamma))), 1e-300)
        err = float(np.max(np.abs(gamma - _structural_christoffel(h)))) / scale
        if err > STRUCTURE_TOL:
            raise GeometryError(
                f"Christoffel symbols deviate from the conformal form by {err:.3e} "
                f"relative to max|Gamma| (tolerance {STRUCTURE_TOL:g})"
            )
        h.flags.writeable = False
        return h

    def conformal_factor(self, power):
        """exp(power * f) on the grid, or None when the metric is flat.

        One read-only array per power, computed on first use.
        """
        if self.is_flat:
            return None
        factor = self._conformal_factors.get(power)
        if factor is None:
            factor = np.exp(power * self.conf_exponent_values)
            factor.flags.writeable = False
            self._conformal_factors[power] = factor
        return factor


def build_geometry(spec: GridSpec, exponent: TrigPoly, method="spectral"):
    """Sample g = e^{2f} delta, f = `exponent`, with its connection and curvature.

    Raises GeometryError when `exponent` uses more variables than the grid
    has axes, and as `_metric_geometry` does for unusable samples.
    """
    if method not in ("spectral", "fd4"):
        raise GeometryError(f"unknown differentiation method {method!r}")
    f = evaluate_on_grid(exponent, spec)
    g = np.zeros(spec.shape + (spec.n, spec.n))
    with np.errstate(over="ignore"):
        conf = np.exp(2.0 * f)
    for i in range(spec.n):
        g[..., i, i] = conf
    return GeometryCache(spec, exponent, method, conf_exponent_values=f,
                         **_metric_geometry(spec, g, method))


def _metric_geometry(spec: GridSpec, g, method):
    """Inverse, connection, curvature and quadrature weights of metric samples.

    `g` is any metric sampled on the grid, (*grid, n, n); nothing here
    assumes the conformal form, so the curvature is an independent route
    to the one the conformal oracles state.  Returns the GeometryCache
    fields by name.  Raises GeometryError when a sample is not positive
    definite or when any array is not finite, e.g. a metric out of
    floating-point range.  That check replaces numpy's overflow warnings,
    which are silenced here.
    """
    n = spec.n
    with np.errstate(over="ignore", invalid="ignore"):
        _require_finite(g=g)
        eigs = np.linalg.eigvalsh(g)
        if np.min(eigs) <= 0:
            raise GeometryError("metric sample is not positive definite")
        g_inv = np.linalg.inv(g)
        sqrt_det = np.sqrt(np.linalg.det(g))

        # dg[..., a, i, j] = d_a g_ij
        dg = np.stack([differentiate(g, a, spec, method) for a in range(n)], axis=-3)
        gamma = _christoffel(g_inv, dg)

        dgamma = np.stack(
            [differentiate(gamma, a, spec, method) for a in range(n)], axis=-4
        )
        # R^r_{s m v} = d_m G^r_{v s} - d_v G^r_{m s} + G^r_{m l} G^l_{v s} - G^r_{v l} G^l_{m s}
        r_up = (
            np.einsum("...mrvs->...rsmv", dgamma)
            - np.einsum("...vrms->...rsmv", dgamma)
            + np.einsum("...rml,...lvs->...rsmv", gamma, gamma)
            - np.einsum("...rvl,...lms->...rsmv", gamma, gamma)
        )
        # C order, so that the curvature route flattens them without a copy
        riemann = np.einsum("...ir,...rsmv->...ismv", g, r_up, order="C")
        ricci = np.einsum("...msmv->...sv", r_up, order="C")
        scalar = np.einsum("...sv,...sv->...", g_inv, ricci)
        weights = spec.cell_volume * sqrt_det

    out = dict(g=g, g_inv=g_inv, christoffel=gamma, riemann=riemann, ricci=ricci,
               scalar_curvature=scalar, weights=weights)
    _require_finite(**out)
    return out


def _require_finite(**arrays):
    bad = [name for name, values in arrays.items() if not np.all(np.isfinite(values))]
    if bad:
        raise GeometryError(
            f"metric sample gives non-finite {', '.join(bad)}; "
            "the metric is out of floating-point range"
        )


def _christoffel(g_inv, dg):
    # dg[..., a, i, j] = d_a g_ij
    g_low = 0.5 * (
        np.einsum("...ijl->...lij", dg)
        + np.einsum("...jil->...lij", dg)
        - dg
    )
    return np.einsum("...kl,...lij->...kij", g_inv, g_low)


# ---------------------------------------------------------------------------
# closed-form oracles for g = e^{2f} * identity
# ---------------------------------------------------------------------------

def _analytic_partials(f: TrigPoly, spec: GridSpec):
    df = np.stack([coordinate_derivative(f, i, spec) for i in range(spec.n)], axis=-1)
    d2f = np.zeros(spec.shape + (spec.n, spec.n))
    for i in range(spec.n):
        gi = f.angular_derivative(i)
        for j in range(i, spec.n):
            val = evaluate_on_grid(gi.angular_derivative(j), spec)
            d2f[..., i, j] = val
            d2f[..., j, i] = val
    return df, d2f


def conformal_christoffel_oracle(f: TrigPoly, spec: GridSpec):
    """Closed-form Christoffel symbols of g = e^{2f} * identity.

    G^k_ij = delta^k_i f_j + delta^k_j f_i - delta_ij f_k with flat partials.
    """
    df, _ = _analytic_partials(f, spec)
    return _structural_christoffel(df)


def _structural_christoffel(h):
    """G^k_ij = delta_ki h_j + delta_kj h_i - delta_ij h_k, shape (*grid, n, n, n)."""
    eye = np.eye(h.shape[-1])
    return (
        np.einsum("ki,...j->...kij", eye, h)
        + np.einsum("kj,...i->...kij", eye, h)
        - np.einsum("ij,...k->...kij", eye, h)
    )


def conformal_ricci_oracle(f: TrigPoly, spec: GridSpec):
    """Closed-form Ricci tensor for g = e^{2f} * identity in any dimension.

    Ric_ij = -(n-2)(f_ij - f_i f_j) - (Lap f + (n-2)|grad f|^2) delta_ij,
    all derivatives taken with the flat coordinate operators.
    """
    n = spec.n
    df, d2f = _analytic_partials(f, spec)
    lap = np.trace(d2f, axis1=-2, axis2=-1)
    grad_sq = np.sum(df * df, axis=-1)
    ric = -(n - 2) * (d2f - df[..., :, None] * df[..., None, :])
    diag = lap + (n - 2) * grad_sq
    for i in range(n):
        ric[..., i, i] -= diag
    return ric


def conformal_scalar_curvature_oracle(f: TrigPoly, spec: GridSpec):
    """Scalar curvature of g = e^{2f} * identity; in 2d equals -2 e^{-2f} Lap f."""
    n = spec.n
    fv = evaluate_on_grid(f, spec)
    df, d2f = _analytic_partials(f, spec)
    lap = np.trace(d2f, axis1=-2, axis2=-1)
    grad_sq = np.sum(df * df, axis=-1)
    return -2.0 * (n - 1) * np.exp(-2.0 * fv) * (lap + 0.5 * (n - 2) * grad_sq)


def gauss_curvature_2d_oracle(f: TrigPoly, spec: GridSpec):
    """Gaussian curvature K = -e^{-2f} Lap f of g = e^{2f} * identity in 2d."""
    if spec.n != 2:
        raise GeometryError("Gaussian curvature oracle is 2d only")
    return 0.5 * conformal_scalar_curvature_oracle(f, spec)


def curvature_symmetry_residuals(cache: GeometryCache):
    """Relative residuals of the standard curvature symmetries."""
    R = cache.riemann
    scale = max(float(np.max(np.abs(R))), 1e-30)
    rel = lambda arr: float(np.max(np.abs(arr))) / scale
    res = {
        "antisym_last_pair": rel(R + np.einsum("...ismv->...isvm", R)),
        "antisym_first_pair": rel(R + np.einsum("...ismv->...simv", R)),
        "pair_interchange": rel(R - np.einsum("...ismv->...mvis", R)),
        "first_bianchi": rel(
            R
            + np.einsum("...imvs->...ismv", R)
            + np.einsum("...ivsm->...ismv", R)
        ),
        "ricci_symmetry": rel(cache.ricci - np.swapaxes(cache.ricci, -1, -2)),
    }
    return res
