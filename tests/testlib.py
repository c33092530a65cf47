"""Test-only helpers: reference constructions that no suite, command or
script of the package uses, so they live beside the tests."""

import numpy as np

from gradlab.fields import TensorField, fiber_shape
from gradlab.geometry import (
    TWO_PI, GeometryError, _require_finite, differentiate, evaluate_on_grid,
)
from gradlab.harness import _unit, band_limited_field


def zero_field(cache, rank, tag="s0"):
    """A zero field under `tag`, to be filled in place."""
    return TensorField(cache, tag, rank,
                       np.zeros(cache.spec.shape + fiber_shape(cache.n, tag, rank)))


def unit_field(cache, rank, band, rng):
    """A band-limited trace-free test field scaled to unit L2 norm."""
    return _unit(band_limited_field(cache, rank, band, rng))


def analytic_laplacian(poly, spec):
    """Analytic coordinate Laplacian sum_j d2/dx_j^2 sampled on the grid."""
    out = np.zeros(spec.shape)
    for j in range(spec.n):
        out += evaluate_on_grid(poly.angular_derivative(j).angular_derivative(j), spec)
    return out


def axis_coords(spec, axis):
    """The lattice coordinates along one axis of the torus (2*pi)^n."""
    N = spec.sizes[axis]
    return np.arange(N) * (TWO_PI / N)


def wavenumbers(spec, axis):
    """Spectral wavenumbers along one axis with the Nyquist bin zeroed.

    Zeroing Nyquist keeps the derivative matrix real and exactly
    antisymmetric, which the adjoint checks rely on.
    """
    N = spec.sizes[axis]
    k = np.fft.fftfreq(N, d=1.0 / N)
    k[N // 2] = 0.0
    return k


def total_volume(cache):
    """Quadrature volume of the torus: the sum of the cell weights."""
    return float(np.sum(cache.weights))


# ---------------------------------------------------------------------------
# the reference metric route: connection and curvature differentiated from
# metric samples, against which the closed-form cache is tested
# ---------------------------------------------------------------------------

def metric_samples(cache):
    """Samples of the cache's metric e^{2f} delta, (*grid, n, n)."""
    g = np.zeros(cache.spec.shape + (cache.n, cache.n))
    conf = np.exp(2.0 * cache.conf_exponent_values)
    for i in range(cache.n):
        g[..., i, i] = conf
    return g


def metric_geometry(spec, g, method="spectral"):
    """Inverse, connection, curvature and quadrature weights of metric samples.

    `g` is any metric sampled on the grid, (*grid, n, n); nothing here
    assumes the conformal form, so its curvature is an independent route
    to the closed forms of `GeometryCache`.  The metric is differentiated
    with `method`.  riemann is fully lowered, indexed (*grid, i, j, k, l)
    as R_{ijkl} = g_{im} R^m_{jkl}; ricci is the (j, l) contraction of
    R^m_{jml}.  Raises GeometryError when a sample is not positive definite
    or when any array is not finite.
    """
    n = spec.n
    with np.errstate(over="ignore", invalid="ignore"):
        _require_finite(g=g)
        if np.min(np.linalg.eigvalsh(g)) <= 0:
            raise GeometryError("metric sample is not positive definite")
        g_inv = np.linalg.inv(g)
        sqrt_det = np.sqrt(np.linalg.det(g))

        # dg[..., a, i, j] = d_a g_ij
        dg = np.stack([differentiate(g, a, spec, method) for a in range(n)], axis=-3)
        gamma = christoffel(g_inv, dg)

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
        riemann = np.einsum("...ir,...rsmv->...ismv", g, r_up)
        ricci = np.einsum("...msmv->...sv", r_up)
        scalar = np.einsum("...sv,...sv->...", g_inv, ricci)
        weights = spec.cell_volume * sqrt_det

    out = dict(g=g, g_inv=g_inv, christoffel=gamma, riemann=riemann, ricci=ricci,
               scalar_curvature=scalar, weights=weights)
    _require_finite(**out)
    return out


def christoffel(g_inv, dg):
    """Gamma^k_ij from the inverse metric and dg[..., a, i, j] = d_a g_ij."""
    g_low = 0.5 * (
        np.einsum("...ijl->...lij", dg)
        + np.einsum("...jil->...lij", dg)
        - dg
    )
    return np.einsum("...kl,...lij->...kij", g_inv, g_low)


def structural_christoffel(h):
    """G^k_ij = delta_ki h_j + delta_kj h_i - delta_ij h_k, (*grid, n, n, n)."""
    eye = np.eye(h.shape[-1])
    return (
        np.einsum("ki,...j->...kij", eye, h)
        + np.einsum("kj,...i->...kij", eye, h)
        - np.einsum("ij,...k->...kij", eye, h)
    )


def closed_form_curvature(cache):
    """(ricci, riemann) of the cache's T in the reference route's lowered
    index convention: Ric = -((n - 2) T + tr T delta) and R = -e^{2f}
    (T o delta), o the Kulkarni-Nomizu product."""
    T, n = cache.T, cache.n
    eye = np.eye(n)
    ricci = -((n - 2) * T + np.trace(T, axis1=-2, axis2=-1)[..., None, None] * eye)
    kn = (np.einsum("...ik,jl->...ijkl", T, eye) + np.einsum("...jl,ik->...ijkl", T, eye)
          - np.einsum("...il,jk->...ijkl", T, eye) - np.einsum("...jk,il->...ijkl", T, eye))
    conf = np.exp(2.0 * cache.conf_exponent_values)
    return ricci, -conf.reshape(conf.shape + (1,) * 4) * kn


def conformal_scalar_curvature_oracle(f, spec):
    """Scalar curvature of g = e^{2f} * identity; in 2d equals -2 e^{-2f} Lap f."""
    n = spec.n
    lap = analytic_laplacian(f, spec)
    grad_sq = sum(evaluate_on_grid(f.angular_derivative(i), spec) ** 2 for i in range(n))
    fv = evaluate_on_grid(f, spec)
    return -2.0 * (n - 1) * np.exp(-2.0 * fv) * (lap + 0.5 * (n - 2) * grad_sq)


def gauss_curvature_2d_oracle(f, spec):
    """Gaussian curvature K = -e^{-2f} Lap f of g = e^{2f} * identity in 2d."""
    if spec.n != 2:
        raise GeometryError("Gaussian curvature oracle is 2d only")
    return 0.5 * conformal_scalar_curvature_oracle(f, spec)
