"""Test-only helpers: reference constructions that no suite, command or
script of the package uses, so they live beside the tests."""

import numpy as np

from gradlab.fields import TensorField, fiber_shape
from gradlab.geometry import TWO_PI, evaluate_on_grid
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
