"""Spectral experiments for the first-order pieces and their compositions.

Eigenvalue studies run on a dealiased real trigonometric basis and are
solved with the weighted symmetric LAPACK drivers; near-kernels are counted
with an explicit tolerance policy that refuses to report a number when there
is no clear spectral gap.

One Galerkin layer (`Galerkin`, one per grid and rank) serves every study:

* symmetry sectors: along an axis where the conformal exponent is constant
  (every axis of a flat metric) all operators and weights commute with
  translations, so the Galerkin matrices do not couple basis columns whose
  wavenumbers differ in absolute value on that axis.  Columns are grouped
  into sectors by those |m_j| and each sector is solved on its own; with no
  such axis there is one sector, the dense pencil;
* probing: colour c sums the c-th column of every sector, so one operator
  application per colour serves all sectors at once.  A column's image is
  the part of its colour's image in its sector's FFT bins, and the sector
  blocks follow from Parseval along the invariant axes;
* reuse: the mass matrix and each operator's Gram block are computed once
  per layer and stacked systems add blocks.  The three pieces come from one
  `gradients.decompose` per colour.

Two discretization hazards shape the design:

* the antisymmetric spectral derivative is blind to the top (Nyquist)
  frequency on an even grid, so a nodal basis (one column per grid value)
  gives any operator built from first derivatives spurious zero modes.
  Eigenvalue studies therefore run on the dealiased basis, which simply
  excludes those modes;
* discretization can fake near-zero eigenvalues, so a kernel count is only
  "confirmed" when two grid resolutions agree and the gap above the counted
  cluster is at least two orders of magnitude.

Principal symbols are never extracted by finite plane-wave limits.  Each
handle carries an algebraic builder that reuses the operator's own cached
structure tensors with every derivative slot replaced by a covector, which
keeps the symbols exactly consistent with the discrete operators.
"""

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import fiber, fields, gradients
from .fields import TensorField

# bytes a Galerkin layer may hold before its first solve, as estimated by
# Galerkin._bytes_before_solve; a whole kernel run peaks well above the
# estimate, in the operator images built after admission (flat 3-torus,
# N=16, rank 3: 65 MiB estimated; `gradlab kernel` at ranks 1-3: 578 MB RSS)
GALERKIN_BYTES_CAP = 2**30
_TINY = 1e-300
# largest relative pencil residual an eigensolve may leave
_RESIDUAL_TOL = 1e-8


class SpectralError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# coefficient vectors and weights
# ---------------------------------------------------------------------------

def _fiber_dim(n, tag, rank):
    d = fiber.tracefree_dim(n, rank) if "s0" in tag else fiber.sym_dim(n, rank)
    return n * d if tag.startswith("cov") else d


def weight_vector(cache, tag, rank):
    """Diagonal of the L2 Gram matrix on flattened coefficient vectors.

    Matches fields.l2_inner exactly: cell volume times metric density times
    the conformal fiber factor, with monomial multiplicities where the
    storage uses monomial coordinates.
    """
    w = fields.fiber_weight_scalar(cache, tag, rank)
    n = cache.n
    if "s0" in tag:
        fib = np.ones(fiber.tracefree_dim(n, rank))
    else:
        fib = fiber.multiplicities(n, rank).astype(float)
    if tag.startswith("cov"):
        fib = np.tile(fib, n)
    return np.outer(w.ravel(), fib).ravel()


# ---------------------------------------------------------------------------
# operator handles
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class OperatorHandle:
    """A named linear operator between sampled tensor bundles.

    `apply` acts on TensorField instances; the vector interface flattens
    grid-major, fiber-minor.  `symbol` maps (xi, gscale) to the
    principal-symbol fiber matrix, where gscale is the inverse conformal
    factor at the evaluation point; None for operators of order zero.
    """

    name: str
    cache: object
    domain_tag: str
    domain_rank: int
    codomain_tag: str
    codomain_rank: int
    apply: callable
    symbol: callable = None

    @property
    def n(self):
        return self.cache.n

    @property
    def grid(self):
        return self.cache.spec.shape

    @property
    def domain_dim(self):
        return self.cache.spec.num_points * _fiber_dim(self.n, self.domain_tag, self.domain_rank)

    @property
    def is_endomorphism(self):
        return (self.domain_tag, self.domain_rank) == (self.codomain_tag, self.codomain_rank)

    def _field_shape(self, tag, rank):
        d = fiber.tracefree_dim(self.n, rank) if "s0" in tag else fiber.sym_dim(self.n, rank)
        fib = (self.n, d) if tag.startswith("cov") else (d,)
        return self.cache.spec.shape + fib

    def field_from_vector(self, vec):
        data = np.asarray(vec, float).reshape(self._field_shape(self.domain_tag, self.domain_rank))
        return TensorField(self.cache, self.domain_tag, self.domain_rank, data)

    def apply_vector(self, vec):
        return np.asarray(self.apply(self.field_from_vector(vec)).data, float).ravel()

    def domain_weights(self):
        return weight_vector(self.cache, self.domain_tag, self.domain_rank)

    def codomain_weights(self):
        return weight_vector(self.cache, self.codomain_tag, self.codomain_rank)


# ---------------------------------------------------------------------------
# weighted symmetric eigensolve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenResult:
    values: np.ndarray      # ascending
    vectors: np.ndarray     # columns, orthonormal in the weighted inner product
    residuals: np.ndarray   # relative per-pair pencil residuals


def _eigh_pencil(G, M, scale=None):
    """Eigenpairs of the symmetric pencil (G, M), M dense positive definite.

    Residuals are relative to `scale`, the norm of the whole pencil when G is
    one diagonal block of it, and to the norm of G otherwise.
    """
    vals, vecs = scipy.linalg.eigh(G, M)
    R = G @ vecs - (M @ vecs) * vals[None, :]
    scale = (float(np.linalg.norm(G)) if scale is None else scale) + _TINY
    residuals = np.linalg.norm(R, axis=0) / scale
    if float(np.max(residuals, initial=0.0)) > _RESIDUAL_TOL:
        raise SpectralError(
            f"eigensolve residuals up to {float(np.max(residuals)):.3e} exceed "
            f"{_RESIDUAL_TOL:.1e}: the pencil did not converge"
        )
    return EigenResult(values=vals, vectors=vecs, residuals=residuals)


# ---------------------------------------------------------------------------
# dealiased real trigonometric basis
# ---------------------------------------------------------------------------

def trig_series(spec, modes, coef):
    """Sample a real trig series on the grid of `spec`.

    Row 0 of `coef` multiplies the constant; rows 2k+1 and 2k+2 multiply
    cos and sin of the phase m.theta of modes[k].  Trailing axes of `coef`
    are carried through: the result has shape (*grid, *coef.shape[1:]).
    Each (cos, sin) pair goes to the FFT bins +m and -m that lie in the
    half spectrum of the last axis, and one real inverse FFT samples the
    whole series, so every mode must lie strictly below the Nyquist index
    of every axis.
    """
    coef = np.asarray(coef, float)
    modes = np.asarray(modes, int).reshape(-1, spec.n)
    if coef.shape[0] != 1 + 2 * len(modes):
        raise SpectralError(f"{coef.shape[0]} coefficient rows; {len(modes)} modes "
                            f"need {1 + 2 * len(modes)}")
    if np.any(2 * np.abs(modes) >= np.asarray(spec.sizes)):
        raise SpectralError(f"trig series modes must lie below Nyquist on {spec.sizes}")
    npts = spec.num_points
    hat = np.zeros(spec.shape[:-1] + (spec.sizes[-1] // 2 + 1,) + coef.shape[1:], complex)
    hat[(0,) * spec.n] = npts * coef[0]
    up = 0.5 * npts * (coef[1::2] - 1j * coef[2::2])
    for sign, values in ((1, up), (-1, up.conj())):
        keep = sign * modes[:, -1] >= 0
        np.add.at(hat, tuple(sign * modes[keep].T), values[keep])
    return np.fft.irfftn(hat, s=spec.shape, axes=tuple(range(spec.n)))


@dataclass(frozen=True, eq=False)
class DealiasedBasis:
    """Real trig functions below the Nyquist row, tensored with the
    trace-free fiber axes.

    Scalar functions are the constant, then cos and sin of each of `modes`
    in turn (the row layout of `trig_series`); columns are indexed
    scalar-major, fiber-minor.
    """

    cache: object
    rank: int
    modes: tuple            # nonzero half-space integer mode vectors

    @property
    def n_scalar(self):
        return 1 + 2 * len(self.modes)

    @property
    def t(self):
        return fiber.tracefree_dim(self.cache.n, self.rank)

    @property
    def dim(self):
        return self.n_scalar * self.t

    def columns(self):
        """Dense (points, dim) matrix of nodal column values."""
        spec = self.cache.spec
        scalars = trig_series(spec, self.modes, np.eye(self.n_scalar))
        return np.kron(scalars.reshape(spec.num_points, -1), np.eye(self.t))


def half_modes(bands):
    """Nonzero integer modes with |m_j| <= bands[j], one of each {m, -m} pair.

    The representative is the mode whose first nonzero entry is positive.
    Modes come in lexicographic order, which fixes both the column order of
    the dealiased basis and the draw order of grid-independent test fields.
    """
    return [
        m for m in itertools.product(*(range(-b, b + 1) for b in bands))
        if next((v for v in m if v != 0), 0) > 0
    ]


def build_dealiased_basis(cache, rank):
    """The basis of every mode whose index is below Nyquist on each axis."""
    bands = [s // 2 - 1 for s in cache.spec.sizes]
    return DealiasedBasis(cache=cache, rank=rank, modes=tuple(half_modes(bands)))


# ---------------------------------------------------------------------------
# the Galerkin layer: symmetry sectors, probed applications, Gram reuse
# ---------------------------------------------------------------------------

def invariant_axes(cache):
    """Axes along which the conformal exponent is exactly constant.

    Every operator and every weight commutes with translations along such an
    axis; a flat metric makes every axis invariant.
    """
    f = cache.conf_exponent_values
    return tuple(j for j in range(cache.n) if np.all(f == np.take(f, [0], axis=j)))


# the three pieces of the gradient, all taken from one decompose per colour:
# piece -> (codomain tag, codomain rank minus domain rank)
_SPLIT = {"d1": ("s0", 1), "d2": ("cov_s0", 0), "d3": ("cov_s0", 0)}


class Galerkin:
    """Galerkin matrices of one (grid, rank) on the dealiased trace-free basis.

    A basis column's sector is the tuple of |m_j| of its mode over the
    invariant axes, and G and M are block-diagonal by sector.  `sectors[s]`
    holds the global column indices (into `basis.columns()`) of sector s in
    ascending order; every block list is aligned with `sectors`.  Colour c
    is the sum of the c-th column of every sector.  Its image is cut into
    sectors in the FFT along the invariant axes, so a block entry is
    Re(F_s^H W F_s) / prod N_j over the sector's bins (Parseval).

    Mass, Gram blocks and joint eigendecompositions are cached on the layer:
    a suite builds one per (grid, rank) and stacked systems add blocks.
    """

    def __init__(self, cache, p):
        spec = cache.spec
        t = fiber.tracefree_dim(cache.n, p)
        self.cache, self.p, self.t = cache, p, t
        self.axes = invariant_axes(cache)
        self.basis = build_dealiased_basis(cache, p)
        scalar_modes = [(0,) * cache.n] + [m for m in self.basis.modes for _ in ("cos", "sin")]
        by_key = {}
        for j, m in enumerate(scalar_modes):
            by_key.setdefault(tuple(abs(m[a]) for a in self.axes), []).append(j)
        keys = sorted(by_key)
        self.sectors = [
            np.array([j * t + a for j in by_key[key] for a in range(t)]) for key in keys
        ]
        # FFT bins of each sector along each invariant axis: +|m_j| and -|m_j|
        self._bins = [
            [sorted({k, (spec.sizes[a] - k) % spec.sizes[a]}) for k, a in zip(key, self.axes)]
            for key in keys
        ]
        self._norm = float(math.prod(spec.sizes[a] for a in self.axes))
        width = max(len(js) for js in by_key.values())
        need = self._bytes_before_solve(width)
        if need > GALERKIN_BYTES_CAP:
            raise SpectralError(
                f"the Galerkin layer would hold {need / 2**20:.0f} MiB before its first "
                f"solve, above the {GALERKIN_BYTES_CAP / 2**20:.0f} MiB cap; shrink the "
                "grid (or the rank) before assembling"
            )
        # pick[j, k] = 1 when scalar function j is the k-th one of its sector;
        # colour k * t + a is the sum of those functions along fiber axis a
        pick = np.zeros((len(scalar_modes), width))
        for js in by_key.values():
            pick[js, np.arange(len(js))] = 1.0
        scalars = trig_series(spec, self.basis.modes, pick)
        self.colours = np.einsum("...k,ab->ka...b", scalars, np.eye(t)).reshape(
            (-1,) + spec.shape + (t,))
        self._colour_hat = self._cut(self.colours)
        self._mass = None
        self._grams = {}
        self._eigen = {}

    def _bytes_before_solve(self, width):
        """Bytes the layer allocates before its first solve: the synthesis
        buffers (the 0/1 pick matrix of `width` functions per sector, the
        series' spectrum and its samples), the colour stack (real), its FFT
        along the invariant axes and each sector's cut of it (complex; views
        of the colour stack when no axis is invariant), and the mass blocks."""
        points = self.cache.spec.num_points
        colours = width * self.t * points * self.t
        mass = sum(len(ix) ** 2 for ix in self.sectors)
        need = 8 * (self.basis.n_scalar * width + 4 * points * width + colours + mass)
        if self.axes:
            cut = sum(len(ix) * math.prod(len(b) for b in bins)
                      for ix, bins in zip(self.sectors, self._bins))
            need += 16 * (colours + cut * (points // int(self._norm)) * self.t)
        return need

    def _take_bins(self, values, first_axis):
        """Per-sector restriction of `values` to the sector's FFT bins."""
        out = []
        for bins in self._bins:
            part = values
            for a, b in zip(self.axes, bins):
                part = part.take(b, axis=first_axis + a)
            out.append(part)
        return out

    def _cut(self, images):
        """Per-sector FFT coefficients of a stack of colour images.

        images: (colours, *grid, fiber...) real.  Returns, per sector, a
        (sector size, bins * fiber) complex array whose row c is the FFT of
        the image of the sector's c-th column.
        """
        images = images.reshape(images.shape[: 1 + self.cache.n] + (-1,))
        axes = [1 + a for a in self.axes]
        hat = np.fft.fftn(images, axes=axes) if axes else images
        return [part[: len(ix)].reshape(len(ix), -1)
                for ix, part in zip(self.sectors, self._take_bins(hat, 1))]

    def _pair(self, left, right, weights):
        """Sector blocks Re(L^H W R) / prod N_j of a weighted inner product;
        the weights are constant along the invariant axes."""
        ws = self._take_bins(weights.reshape(self.cache.spec.shape + (-1,)), 0)
        return [((L.conj() * w.ravel()) @ R.T).real / self._norm
                for L, R, w in zip(left, right, ws)]

    def _apply(self, handle):
        images = [handle.apply_vector(c.ravel()) for c in self.colours]
        return np.stack(images).reshape((len(images),) + self.cache.spec.shape + (-1,))

    def mass(self):
        """Sector blocks of the mass matrix M."""
        if self._mass is None:
            w = weight_vector(self.cache, "s0", self.p)
            self._mass = self._pair(self._colour_hat, self._colour_hat, w)
        return self._mass

    def form(self, handle: OperatorHandle):
        """Sector blocks of the bilinear form <column, handle(column)>."""
        if not handle.is_endomorphism:
            raise SpectralError(f"{handle.name} is not an endomorphism")
        if (handle.cache, handle.domain_tag, handle.domain_rank) != (self.cache, "s0", self.p):
            raise SpectralError("basis bundle does not match the handle domain")
        images = self._cut(self._apply(handle))
        return self._pair(self._colour_hat, images, handle.domain_weights())

    def gram(self, names):
        """Sector blocks of the stacked system named by `names`: the sum of
        the weighted Grams of each operator's image."""
        for name in names:
            if name not in self._grams:
                self._build_gram(name)
        return [sum(blocks) for blocks in zip(*(self._grams[name] for name in names))]

    def _build_gram(self, name):
        if name in _SPLIT:
            splits = [gradients.decompose(TensorField(self.cache, "s0", self.p, c))
                      for c in self.colours]
            for piece, (tag, shift) in _SPLIT.items():
                hat = self._cut(np.stack([getattr(sp, piece).data for sp in splits]))
                w = weight_vector(self.cache, tag, self.p + shift)
                self._grams[piece] = self._pair(hat, hat, w)
            return
        handle = handle_by_name(self.cache, self.p, name)
        hat = self._cut(self._apply(handle))
        self._grams[name] = self._pair(hat, hat, handle.codomain_weights())

    def eigen(self, blocks):
        """One residual-gated eigensolve of (G_s, M_s) per sector; residuals
        are relative to the norm of the whole pencil."""
        scale = _frobenius(blocks)
        return [_eigh_pencil(G, M, scale=scale) for G, M in zip(blocks, self.mass())]

    def joint_eigen(self, names):
        """Per-sector eigenpairs of the stacked system, solved once per layer."""
        key = tuple(names)
        if key not in self._eigen:
            self._eigen[key] = self.eigen(self.gram(names))
        return self._eigen[key]

    def field(self, sector, coeffs):
        """The field with coefficients `coeffs` on the columns of one sector."""
        ix, t = self.sectors[sector], self.t
        coef = np.zeros((self.basis.n_scalar, t))
        coef[ix // t, ix % t] = coeffs
        data = trig_series(self.cache.spec, self.basis.modes, coef)
        return TensorField(self.cache, "s0", self.p, data)

    def lowest_fields(self, names, count):
        """Fields of the `count` lowest eigenpairs of the stacked system."""
        eig = self.joint_eigen(names)
        order = sorted((float(v), s, i) for s, r in enumerate(eig)
                       for i, v in enumerate(r.values))
        return [self.field(s, eig[s].vectors[:, i]) for _, s, i in order[:count]]


def _frobenius(blocks):
    """Frobenius norm of a block-diagonal matrix given by its blocks."""
    return math.sqrt(sum(float(np.sum(B * B)) for B in blocks))


def sector_spectrum(results):
    """Ascending concatenation of per-sector eigenvalues."""
    return np.sort(np.concatenate([r.values for r in results]))


# ---------------------------------------------------------------------------
# kernel counting policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelCount:
    count: int
    gap_ratio: float
    lambda_ref: float      # first eigenvalue above the absolute floor; nan if none
    floor: float
    theta: float
    indeterminate: bool

    @property
    def label(self):
        return "indeterminate" if self.indeterminate else str(self.count)


def kernel_count(eigs, theta=1e-4, floor_factor=1e-8, gap_min=100.0):
    """Count the near-zero cluster of an ascending non-negative spectrum.

    The reference scale is the first eigenvalue above an absolute floor of
    floor_factor times the largest eigenvalue; everything below theta times
    that reference (or below the floor itself) counts as kernel.  With a
    gap ratio under gap_min the count is flagged indeterminate: there is no
    cluster to speak of, and refining the grid is the only honest answer.
    """
    e = np.asarray(eigs, float)
    if e.size == 0:
        raise SpectralError("empty spectrum")
    if np.any(np.diff(e) < -1e-9 * max(abs(float(e[-1])), 1.0)):
        raise SpectralError("eigenvalues must be ascending")
    lam_max = float(e[-1])
    floor = floor_factor * max(lam_max, 0.0)
    above = e[e > floor]
    if above.size == 0:
        return KernelCount(
            count=int(e.size), gap_ratio=math.inf, lambda_ref=math.nan,
            floor=floor, theta=theta, indeterminate=False,
        )
    lam_ref = float(above[0])
    cut = max(theta * lam_ref, floor)
    count = int(np.sum(e < cut))
    if count == 0:
        gap = math.inf
    else:
        gap = float(e[count]) / max(abs(float(e[count - 1])), _TINY)
    return KernelCount(
        count=count, gap_ratio=gap, lambda_ref=lam_ref, floor=floor,
        theta=theta, indeterminate=bool(gap < gap_min),
    )


# ---------------------------------------------------------------------------
# spectrum reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumReport:
    name: str
    n: int
    rank: int
    grid: tuple
    dof: int
    eigenvalues: np.ndarray     # ascending, possibly truncated to n_eigs
    lambda_max: float
    kernel: KernelCount
    symmetry_defect: float
    residual_max: float

    @property
    def kernel_count(self):
        return self.kernel.count

    @property
    def kernel_label(self):
        return self.kernel.label

    @property
    def gap_ratio(self):
        return self.kernel.gap_ratio


def spectrum(handle: OperatorHandle, n_eigs=50, galerkin=None):
    """Full eigenvalue study of an endomorphism handle on the dealiased basis,
    through the Galerkin layer of the handle's grid and rank (`galerkin`,
    built here when not given)."""
    if not handle.is_endomorphism:
        raise SpectralError(f"{handle.name} is not an endomorphism")
    gal = galerkin or Galerkin(handle.cache, handle.domain_rank)
    blocks = gal.form(handle)
    defect = _frobenius([G - G.T for G in blocks]) / (_frobenius(blocks) + _TINY)
    results = gal.eigen([0.5 * (G + G.T) for G in blocks])
    values = sector_spectrum(results)
    kc = kernel_count(values)
    return SpectrumReport(
        name=handle.name,
        n=handle.n,
        rank=handle.domain_rank,
        grid=tuple(handle.grid),
        dof=int(values.size),
        eigenvalues=np.array(values if n_eigs is None else values[:n_eigs]),
        lambda_max=float(values[-1]),
        kernel=kc,
        symmetry_defect=defect,
        residual_max=max(float(np.max(r.residuals, initial=0.0)) for r in results),
    )


# ---------------------------------------------------------------------------
# algebraic principal symbols
# ---------------------------------------------------------------------------

def _grad_block(n, t, xi):
    # sigma(covariant derivative) on trace-free coordinates, rows i-major
    return np.kron(np.asarray(xi, float).reshape(n, 1), np.eye(t))


def _second_order_symbol(n, p, P=None):
    """gscale * K(xi)^T P K(xi); P = None means the full gradient square."""
    t = fiber.tracefree_dim(n, p)

    def sig(xi, gscale):
        K = _grad_block(n, t, xi)
        core = K.T @ K if P is None else K.T @ (P @ K)
        return gscale * core

    return sig


def _d1_symbol(n, p):
    e = fiber.embed_matrix(n, p)
    t = fiber.tracefree_dim(n, p)

    def sig(xi, gscale):
        return e.T @ _grad_block(n, t, xi)

    return sig


def _projected_gradient_symbol(n, p, P):
    t = fiber.tracefree_dim(n, p)

    def sig(xi, gscale):
        return P @ _grad_block(n, t, xi)

    return sig


def _gradient_symbol(n, p):
    t = fiber.tracefree_dim(n, p)

    def sig(xi, gscale):
        return _grad_block(n, t, xi)

    return sig


def _divergence_symbol(n, p):
    k0 = fields._k0(n, p)

    def sig(xi, gscale):
        return -gscale * np.einsum("bia,i->ba", k0, np.asarray(xi, float))

    return sig


def _delta_deltastar_symbol(n, p):
    # reuse the cached conjugated structure tensors so the symbol shares the
    # operators' sign and normalization conventions by construction
    Sm = fields._sym_insert_expanded(n, p)
    Kc = fiber.div_contract_tensor(n, p + 1)
    _, C = fiber.tracefree_basis(n, p)

    def sig(xi, gscale):
        xi = np.asarray(xi, float)
        up = np.einsum("Jia,i->Ja", Sm, xi)
        down = -np.einsum("BiA,i->BA", Kc, xi)
        return -gscale * (C @ (down @ up))

    return sig


def _deltastar_delta_symbol(n, p):
    Sm = fields._sym_insert_expanded(n, p - 1)
    k0 = fields._k0(n, p)
    _, C = fiber.tracefree_basis(n, p)

    def sig(xi, gscale):
        xi = np.asarray(xi, float)
        down = -np.einsum("bia,i->ba", k0, xi)
        up = C @ np.einsum("Jia,i->Ja", Sm, xi)
        return -gscale * (up @ down)

    return sig


def _sampson_symbol(n, p):
    s1 = _delta_deltastar_symbol(n, p)
    s2 = _deltastar_delta_symbol(n, p)

    def sig(xi, gscale):
        return (p + 1.0) * s1(xi, gscale) - float(p) * s2(xi, gscale)

    return sig


@dataclass(frozen=True)
class SymbolReport:
    name: str
    xi: np.ndarray
    gscale: float
    matrix: np.ndarray
    min_singular_value: float
    min_eigenvalue: float           # nan when the matrix is not square-symmetric
    distance_to_scalar: float       # nan when the matrix is not square
    scalar_coefficient: float       # Frobenius-best scalar; nan when not square


def _point_scale(cache, x=None):
    f = cache.conf_exponent_values
    idx = (0,) * cache.n if x is None else tuple(int(v) for v in x)
    return float(np.exp(-2.0 * f[idx]))


def symbol_eval(handle: OperatorHandle, xi, x=None):
    """Principal symbol of the handle at covector xi and grid point x.

    Returns the fiber matrix together with its smallest singular value, its
    smallest eigenvalue when symmetric, and its distance to the nearest
    scalar multiple of the identity.  The distance is reported, never
    asserted to vanish: scalarity is a hypothesis to be measured.
    """
    if handle.symbol is None:
        raise SpectralError(f"{handle.name} carries no symbol builder")
    xi = np.asarray(xi, float)
    if xi.shape != (handle.n,) or not np.any(xi):
        raise SpectralError("xi must be a nonzero covector of the right dimension")
    gscale = _point_scale(handle.cache, x)
    mat = np.asarray(handle.symbol(xi, gscale), float)
    svals = np.linalg.svd(mat, compute_uv=False)
    min_sv = float(svals[-1]) if svals.size else 0.0
    min_eig = math.nan
    dist = math.nan
    alpha = math.nan
    if mat.shape[0] == mat.shape[1]:
        dim = mat.shape[0]
        alpha = float(np.trace(mat)) / dim
        dist = float(np.linalg.norm(mat - alpha * np.eye(dim))) / (float(np.linalg.norm(mat)) + _TINY)
        sym_defect = float(np.linalg.norm(mat - mat.T)) / (float(np.linalg.norm(mat)) + _TINY)
        if sym_defect < 1e-10:
            min_eig = float(np.linalg.eigvalsh(mat)[0])
    return SymbolReport(
        name=handle.name,
        xi=xi,
        gscale=gscale,
        matrix=mat,
        min_singular_value=min_sv,
        min_eigenvalue=min_eig,
        distance_to_scalar=dist,
        scalar_coefficient=alpha,
    )


def symbol_sphere_scan(handle: OperatorHandle, n_dirs=64, seed=0):
    """Symbol reports over a deterministic sample of unit covectors, at the
    first grid point."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_dirs):
        xi = rng.standard_normal(handle.n)
        nrm = float(np.linalg.norm(xi))
        if nrm < 1e-8:
            continue
        out.append(symbol_eval(handle, xi / nrm))
    return out


# ---------------------------------------------------------------------------
# handle factories
# ---------------------------------------------------------------------------

def identity_handle(cache, p):
    return OperatorHandle(
        name="identity", cache=cache, domain_tag="s0", domain_rank=p,
        codomain_tag="s0", codomain_rank=p, apply=lambda phi: phi, symbol=None,
    )


def gradient_handle(cache, p):
    return OperatorHandle(
        name="gradient", cache=cache, domain_tag="s0", domain_rank=p,
        codomain_tag="cov_s0", codomain_rank=p, apply=fields.gradient,
        symbol=_gradient_symbol(cache.n, p),
    )


def divergence_handle(cache, p):
    return OperatorHandle(
        name="divergence", cache=cache, domain_tag="s0", domain_rank=p,
        codomain_tag="s0", codomain_rank=p - 1, apply=fields.divergence,
        symbol=_divergence_symbol(cache.n, p),
    )


def d1_handle(cache, p):
    return OperatorHandle(
        name="d1", cache=cache, domain_tag="s0", domain_rank=p,
        codomain_tag="s0", codomain_rank=p + 1, apply=gradients.d1,
        symbol=_d1_symbol(cache.n, p),
    )


def d2_handle(cache, p):
    P = fiber.flat_projector_matrices(cache.n, p)[1]
    return OperatorHandle(
        name="d2", cache=cache, domain_tag="s0", domain_rank=p,
        codomain_tag="cov_s0", codomain_rank=p, apply=gradients.d2,
        symbol=_projected_gradient_symbol(cache.n, p, P),
    )


def d3_handle(cache, p):
    P = fiber.flat_projector_matrices(cache.n, p)[2]
    return OperatorHandle(
        name="d3", cache=cache, domain_tag="s0", domain_rank=p,
        codomain_tag="cov_s0", codomain_rank=p, apply=gradients.d3,
        symbol=_projected_gradient_symbol(cache.n, p, P),
    )


def rough_laplacian_handle(cache, p):
    return OperatorHandle(
        name="rough_laplacian", cache=cache, domain_tag="s0", domain_rank=p,
        codomain_tag="s0", codomain_rank=p, apply=fields.rough_laplacian,
        symbol=_second_order_symbol(cache.n, p, None),
    )


def d1_star_d1_handle(cache, p, route="transpose"):
    P = fiber.flat_projector_matrices(cache.n, p)[0]
    name = "d1_star_d1" if route == "transpose" else "d1_star_d1_formula"
    return OperatorHandle(
        name=name, cache=cache, domain_tag="s0", domain_rank=p,
        codomain_tag="s0", codomain_rank=p,
        apply=lambda phi: gradients.stein_weiss_d1(phi, route=route),
        symbol=_second_order_symbol(cache.n, p, P),
    )


def d2_star_d2_handle(cache, p):
    P = fiber.flat_projector_matrices(cache.n, p)[1]
    return OperatorHandle(
        name="d2_star_d2", cache=cache, domain_tag="s0", domain_rank=p,
        codomain_tag="s0", codomain_rank=p,
        apply=lambda phi: gradients.d2_exact_adjoint(gradients.d2(phi)),
        symbol=_second_order_symbol(cache.n, p, P),
    )


def d3_star_d3_handle(cache, p):
    P = fiber.flat_projector_matrices(cache.n, p)[2]
    return OperatorHandle(
        name="d3_star_d3", cache=cache, domain_tag="s0", domain_rank=p,
        codomain_tag="s0", codomain_rank=p,
        apply=lambda phi: gradients.d3_exact_adjoint(gradients.d3(phi)),
        symbol=_second_order_symbol(cache.n, p, P),
    )


def sampson_handle(cache, p):
    return OperatorHandle(
        name="sampson_tracefree", cache=cache, domain_tag="s0", domain_rank=p,
        codomain_tag="s0", codomain_rank=p,
        apply=lambda phi: fields.to_tracefree(gradients.sampson(phi)),
        symbol=_sampson_symbol(cache.n, p),
    )


def weitzenbock_handle(cache, p):
    return OperatorHandle(
        name="weitzenbock", cache=cache, domain_tag="s0", domain_rank=p,
        codomain_tag="s0", codomain_rank=p, apply=gradients.weitzenbock_K,
        symbol=None,
    )


def delta_deltastar_handle(cache, p):
    return OperatorHandle(
        name="delta_deltastar", cache=cache, domain_tag="s0", domain_rank=p,
        codomain_tag="s0", codomain_rank=p,
        apply=lambda phi: fields.to_tracefree(fields.divergence(fields.sym_derivative(phi))),
        symbol=_delta_deltastar_symbol(cache.n, p),
    )


def deltastar_delta_handle(cache, p):
    return OperatorHandle(
        name="deltastar_delta", cache=cache, domain_tag="s0", domain_rank=p,
        codomain_tag="s0", codomain_rank=p,
        apply=lambda phi: fields.to_tracefree(fields.sym_derivative(fields.divergence(phi))),
        symbol=_deltastar_delta_symbol(cache.n, p),
    )


_HANDLES = {
    "identity": identity_handle,
    "gradient": gradient_handle,
    "divergence": divergence_handle,
    "d1": d1_handle,
    "d2": d2_handle,
    "d3": d3_handle,
    "rough_laplacian": rough_laplacian_handle,
    "d1_star_d1": d1_star_d1_handle,
    "d1_star_d1_formula": lambda cache, p: d1_star_d1_handle(cache, p, route="formula"),
    "d2_star_d2": d2_star_d2_handle,
    "d3_star_d3": d3_star_d3_handle,
    "sampson_tracefree": sampson_handle,
    "weitzenbock": weitzenbock_handle,
    "delta_deltastar": delta_deltastar_handle,
    "deltastar_delta": deltastar_delta_handle,
}
HANDLE_NAMES = tuple(_HANDLES)


def handle_by_name(cache, p, name):
    """Build one operator of the registry; no other handle is made."""
    if name not in _HANDLES:
        raise SpectralError(f"unknown operator {name!r}; known: {', '.join(sorted(_HANDLES))}")
    return _HANDLES[name](cache, p)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def spectrum_to_csv(report: SpectrumReport, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "eigenvalue"])
        for i, v in enumerate(np.asarray(report.eigenvalues)):
            w.writerow([i, f"{float(v):.17e}"])
    return path


def symbol_scan_to_csv(handle: OperatorHandle, path, n_dirs=64, seed=0):
    reports = symbol_sphere_scan(handle, n_dirs=n_dirs, seed=seed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        head = ["index"] + [f"xi_{i}" for i in range(handle.n)]
        w.writerow(head + ["min_singular_value", "min_eigenvalue",
                           "distance_to_scalar", "scalar_coefficient"])
        for i, r in enumerate(reports):
            row = [i] + [f"{v:.17e}" for v in r.xi]
            row += [f"{r.min_singular_value:.17e}", f"{r.min_eigenvalue:.17e}",
                    f"{r.distance_to_scalar:.17e}", f"{r.scalar_coefficient:.17e}"]
            w.writerow(row)
    return reports
