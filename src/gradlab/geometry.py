"""Periodic grids, the spectral derivative, and the conformal geometry.

The manifolds are the tori (2 pi)^n with the metric g = e^{2f} delta, f a
trig polynomial: the exponent f is the whole description of a metric, and
f = 0 is the flat torus.  The coordinates x_i run over [0, 2 pi), so they
are the angular variables of the trig polynomials.  Everything is sampled
on a tensor-product lattice.  The geometry (`build_geometry`) is sampled
from closed forms in f and its exact symbolic derivatives; fields are
differentiated pseudo-spectrally.

The spectral derivative along an axis is a cached dense circulant
matrix (Nyquist bin zeroed) applied as one batched matmul, built from its
first column so that it is exactly circulant and exactly antisymmetric.

Array convention: the n grid axes are always the trailing axes.  Component
or fiber axes come before them, e.g. h is (n, *grid) and T is (n, n,
*grid), and field data may put batch axes before its fiber axes, (*batch,
*fiber, *grid).  So every grid line is contiguous along the last axis, and
`differentiate(values, axis, spec, out=None)` needs to know nothing
of the axes in front of the grid.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .expressions import TrigPoly

TWO_PI = 2.0 * math.pi

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

    # computed on first read and kept; equality and hashing stay on (n, sizes)
    @cached_property
    def spacings(self):
        return tuple(TWO_PI / s for s in self.sizes)

    @cached_property
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


def differentiate(values, axis, spec, out=None):
    """Partial derivative along grid axis `axis` of data shaped (..., *grid),
    written into `out` (an array of the same shape, or a view such as one
    slot of a gradient) when given.

    The spectral derivative reads the data as lines along the axis, (...,
    lines, N, rest) with `rest` the points after the axis: along the last
    axis a product (lines, N) @ D^T per leading index, along any other
    products D @ (N, rest).  Only the grid axes are merged, so `out` may be
    any view whose grid axes are contiguous."""
    n = spec.n
    N = spec.sizes[axis]
    D = _derivative_matrix(spec, axis)
    lead = values.shape[:values.ndim - n]
    lines = math.prod(spec.sizes[:axis])
    if out is None:
        out = np.empty(values.shape)
    if axis == n - 1:
        # a contiguous D^T (= -D) runs about twice as fast as the view
        shape = lead + (lines, N)
        np.matmul(values.reshape(shape), np.ascontiguousarray(D.T), out=out.reshape(shape))
    else:
        shape = lead + (lines, N, math.prod(spec.sizes[axis + 1:]))
        np.matmul(D, values.reshape(shape), out=out.reshape(shape))
    return out


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
    """Immutable bundle of the exact geometry of g = e^{2f} delta on the grid.

    f = `exponent`; f = 0 is the flat torus.  Every array is sampled from a
    closed form in f and its exact symbolic derivatives, so no metric data
    is differentiated numerically.  With flat derivatives of f:

      conf_exponent_values  f, (*grid,)
      h        df, (n, *grid); the Christoffel symbols are
               Gamma^k_ij = delta_ki h_j + delta_kj h_i - delta_ij h_k
      T        Hess f - df (x) df + (1/2) |df|^2 delta, (n, n, *grid)
      weights  quadrature weights, cell volume * sqrt(det g) = cell
               volume * e^{nf}, (*grid,)

    A conformally flat metric has no Weyl curvature, so T carries all of
    it: with the Kulkarni-Nomizu product (A o B)_ijkl = A_ik B_jl +
    A_jl B_ik - A_il B_jk - A_jk B_il, the lowered Riemann tensor is
    R_ijkl = g_im R^m_jkl = -e^{2f} (T o delta)_ijkl, R^m_jkl the
    curvature of d_k, d_l acting on d_j, and the Ricci tensor, its (j, l)
    contraction R^m_jml, is Ric = -((n - 2) T + tr T delta).  On a flat
    torus h and T are exactly 0.
    """

    spec: GridSpec
    exponent: TrigPoly
    conf_exponent_values: np.ndarray
    h: np.ndarray
    T: np.ndarray
    weights: np.ndarray
    _conformal_factors: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self):
        return self.spec.n

    @property
    def is_flat(self):
        return self.exponent.is_zero

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


def build_geometry(spec: GridSpec, exponent: TrigPoly):
    """Sample the geometry of g = e^{2f} delta, f = `exponent`, in closed form.

    Raises GeometryError when `exponent` uses more variables than the grid
    has axes, and when the metric is out of floating-point range: a sample
    of e^{2f} that is not finite or not positive, or non-finite weights.
    That check replaces numpy's overflow warnings, which are silenced here.
    """
    n = spec.n
    f = evaluate_on_grid(exponent, spec)
    h = np.stack([coordinate_derivative(exponent, i, spec) for i in range(n)])
    T = np.empty((n, n) + spec.shape)
    for i in range(n):
        fi = exponent.angular_derivative(i)
        for j in range(i, n):
            T[i, j] = evaluate_on_grid(fi.angular_derivative(j), spec)
            T[i, j] -= h[i] * h[j]
            T[j, i] = T[i, j]
    half_grad_sq = 0.5 * np.einsum("i...,i...->...", h, h)
    for i in range(n):
        T[i, i] += half_grad_sq
    with np.errstate(over="ignore"):
        g = np.exp(2.0 * f)
        weights = spec.cell_volume * np.exp(n * f)
    _require_finite(g=g, h=h, T=T, weights=weights)
    if np.min(g) <= 0:
        raise GeometryError("metric sample is not positive definite")
    for values in (f, h, T, weights):
        values.flags.writeable = False
    return GeometryCache(spec, exponent, f, h, T, weights)


def _require_finite(**arrays):
    bad = [name for name, values in arrays.items() if not np.all(np.isfinite(values))]
    if bad:
        raise GeometryError(
            f"metric sample gives non-finite {', '.join(bad)}; "
            "the metric is out of floating-point range"
        )
