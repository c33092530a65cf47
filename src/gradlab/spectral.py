"""Spectral experiments for the first-order pieces and their compositions.

Eigenvalue studies run on a dealiased real trigonometric basis; near-kernels
are counted with an explicit tolerance policy that refuses to report a
number when there is no clear spectral gap.

One Galerkin layer (`Galerkin`, one per grid and rank) serves every study:

* symmetry sectors: along an axis where the conformal exponent is constant
  (every axis of a flat metric) all operators and weights commute with
  translations, so the Galerkin matrices do not couple basis columns whose
  wavenumbers differ in absolute value on that axis.  Columns are grouped
  into sectors by those |m_j| and each sector is solved on its own; with no
  such axis there is one sector, the dense pencil;
* probing: colour c sums the c-th column of every sector, so one operator
  application per colour serves all sectors at once.  Operators act on
  batches of colours (fields with a leading batch axis), chunk by chunk
  under a fixed byte budget, and each chunk's images go into stacks
  preallocated for every colour.  A column's image is the part of its
  colour's image in its sector's FFT bins, and the sector blocks follow
  from Parseval along the invariant axes.  Images are real, so the FFT is
  a half spectrum along the last invariant axis;
* reuse: the mass matrix and each operator's Gram block are computed once
  per layer and stacked systems add blocks.  The four first-order images
  of a chunk of colours (d1, d2, d3 and the divergence) come from one
  `gradients.decompose` of the chunk; no operator handle is applied for
  them;
* batched solves: sectors of equal size form a group.  Each group's mass
  blocks are reduced once per layer (batched Cholesky M = L L^T and L^{-1}),
  and every eigensolve of the layer solves a group as one batched
  standard problem L^{-1} G L^{-T}, gated sector by sector.  The flat
  (diagonal) and conformal (dense) mass take the same path.

Two discretization hazards shape the design:

* the antisymmetric spectral derivative is blind to the top (Nyquist)
  frequency on an even grid, so a nodal basis (one column per grid value)
  gives any operator built from first derivatives spurious zero modes.
  Eigenvalue studies therefore run on the dealiased basis, which simply
  excludes those modes;
* discretization can fake near-zero eigenvalues, so a kernel count is only
  "confirmed" when two grid resolutions agree and the gap above the counted
  cluster is at least two orders of magnitude.

Principal symbols are never extracted by finite plane-wave limits.  With
G(xi) the symbol of the covariant derivative on trace-free coordinates,
every handle's symbol is one of two rules over a constant fiber matrix:
A G(xi) at first order (A the identity, the transposed embedding of d1, a
flat projector, or the divergence contraction times -gscale) and
gscale G(xi)^T Q G(xi) at second order (Q the identity, a flat projector,
or a block matrix of the structure tensors that delta delta* and
delta* delta use).  The matrices are the operators' own cached structure
tensors, which keeps the symbols exactly consistent with the discrete
operators.
"""

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fiber, fields, gradients
from .fields import TensorField

# bytes a Galerkin layer may hold by its first solves, the Gram build
# included, as estimated by Galerkin._bytes_before_solve; the estimate
# bounds the layer's traced peak (flat 3-torus, N=16, rank 3: 258 MiB
# estimated, 215 MiB traced through the kernel suite's solves)
GALERKIN_BYTES_CAP = 2**30
# bytes of one chunk's working set when a Galerkin layer applies an
# operator to a batch of its colours (Galerkin._probe)
_PROBE_BYTES = 2**23
# arrays of the widest per-point fiber an operator forms per colour
# (Galerkin._colour_work_bytes)
_WORK_FLOATS = 4
# mass-sized arrays a layer holds while it solves (Galerkin._bytes_before_solve)
_BLOCK_ARRAYS = 18
_TINY = 1e-300
# largest relative pencil residual an eigensolve may leave
_RESIDUAL_TOL = 1e-8
# kernel-count policy (`kernel_count`): the absolute floor as a fraction of
# the largest eigenvalue, the kernel cut as a fraction of the first
# eigenvalue above the floor, and the least gap ratio of a determinate count
_KERNEL_FLOOR_FACTOR = 1e-8
_KERNEL_THETA = 1e-4
_KERNEL_GAP_MIN = 100.0


class SpectralError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# coefficient vectors and weights
# ---------------------------------------------------------------------------

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

    The domain is the trace-free ("s0") bundle of rank `domain_rank`.
    `apply` acts on TensorField instances, single fields or batches; the
    vector interface (one field) flattens grid-major, fiber-minor.
    `symbol` maps (xi, gscale) to the principal-symbol fiber matrix, where
    gscale is the inverse conformal factor at the evaluation point.
    """

    name: str
    cache: object
    domain_rank: int
    codomain_tag: str
    codomain_rank: int
    apply: callable
    symbol: callable

    @property
    def n(self):
        return self.cache.n

    @property
    def grid(self):
        return self.cache.spec.shape

    @property
    def domain_dim(self):
        return self.cache.spec.num_points * fiber.tracefree_dim(self.n, self.domain_rank)

    @property
    def is_endomorphism(self):
        return ("s0", self.domain_rank) == (self.codomain_tag, self.codomain_rank)

    def field_from_vector(self, vec):
        shape = self.grid + (fiber.tracefree_dim(self.n, self.domain_rank),)
        data = np.asarray(vec, float).reshape(shape)
        return TensorField(self.cache, "s0", self.domain_rank, data)

    def apply_vector(self, vec):
        return np.asarray(self.apply(self.field_from_vector(vec)).data, float).ravel()

    def domain_weights(self):
        return weight_vector(self.cache, "s0", self.domain_rank)

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


def _reduce(M):
    """L^{-1} for the Cholesky factors M = L L^T of a stack (..., s, s) of
    positive definite mass blocks."""
    return np.linalg.inv(np.linalg.cholesky(M))


def _eigh_pencil(G, M, scale=None, Linv=None):
    """Eigenpairs of symmetric pencils (G, M), M dense positive definite,
    batched over any leading axes of G and M.

    Each pencil is reduced to the standard problem L^{-1} G L^{-T} with
    `Linv` = L^{-1} (computed from M when not given), solved with one
    batched `eigh` and transformed back, so the vectors are M-orthonormal.
    Residuals are relative to `scale`, the norm of the whole pencil when G
    is one diagonal block of it, and to the norm of each G otherwise; every
    pencil is gated on its own.
    """
    Linv = _reduce(M) if Linv is None else Linv
    LinvT = np.swapaxes(Linv, -1, -2)
    vals, Y = np.linalg.eigh(Linv @ G @ LinvT)
    vecs = LinvT @ Y
    R = G @ vecs - (M @ vecs) * vals[..., None, :]
    scale = np.linalg.norm(G, axis=(-2, -1)) if scale is None else np.asarray(scale)
    residuals = np.linalg.norm(R, axis=-2) / (scale[..., None] + _TINY)
    worst = np.max(residuals, axis=-1, initial=0.0)
    if np.any(worst > _RESIDUAL_TOL):
        raise SpectralError(
            f"eigensolve residuals up to {float(np.max(worst)):.3e} exceed "
            f"{_RESIDUAL_TOL:.1e} in {int(np.sum(worst > _RESIDUAL_TOL))} of "
            f"{worst.size} pencils: the pencil did not converge"
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
    bands = np.asarray(bands, int).reshape(-1)
    grid = np.indices(2 * bands + 1).reshape(len(bands), -1).T - bands
    first = grid[np.arange(len(grid)), np.argmax(grid != 0, axis=1)]
    return list(map(tuple, grid[first > 0].tolist()))


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


# the first-order images a Galerkin layer forms, all taken from one
# decompose per chunk of colours: piece -> (codomain tag, codomain rank
# minus domain rank)
_SPLIT = {"d1": ("s0", 1), "d2": ("cov_s0", 0), "d3": ("cov_s0", 0),
          "divergence": ("s0", -1)}


class Galerkin:
    """Galerkin matrices of one (grid, rank) on the dealiased trace-free basis.

    A basis column's sector is the tuple of |m_j| of its mode over the
    invariant axes, and G and M are block-diagonal by sector.  `sectors[s]`
    holds the global column indices (into `basis.columns()`) of sector s in
    ascending order; every block list is aligned with `sectors`.  Colour c
    is the sum of the c-th column of every sector.  Its image is cut into
    sectors in the FFT along the invariant axes, so a block entry is
    Re(F_s^H W F_s) / prod N_j over the sector's bins (Parseval).

    Images are real, so the FFT is a half spectrum: the last invariant axis
    is the real axis of `numpy.fft.rfftn`.  On that axis a sector's cut
    keeps only its bin +|m|, and since the bins -m are the conjugates of
    the bins +m, a sector with |m| > 0 there counts its pairing twice.  On
    the other invariant axes the cut keeps the bins +|m_j| and -|m_j|, and
    every index on the other axes: one gather with a flat index into the
    half spectrum.  The weights, constant along the invariant axes, are
    gathered with the same bins on the full grid.  With no invariant axis
    the one sector spans the whole grid and its cut is a view of the images.

    Operators are applied to a batch of colours at a time (`_probe`): the
    colours go in chunks whose working set stays near `_PROBE_BYTES`, and
    each chunk's images are written into stacks preallocated for every
    colour.

    Mass, its reduction, Gram blocks and joint eigendecompositions are cached
    on the layer: a suite builds one per (grid, rank) and stacked systems add
    blocks.
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
        sizes = np.array([len(ix) for ix in self.sectors])
        # sectors of equal size, solved together as one batched pencil
        self._groups = [np.flatnonzero(sizes == size) for size in sorted(set(sizes.tolist()))]
        # the half spectrum: the last invariant axis keeps bins 0..N/2
        self._half = tuple(size // 2 + 1 if self.axes and a == self.axes[-1] else size
                           for a, size in enumerate(spec.sizes))
        # per sector: its gathers into the half spectrum and into the grid,
        # and its Parseval factor (twice a nonzero bin of the real axis)
        norm = float(math.prod(spec.sizes[a] for a in self.axes))
        self._gather, self._weight_gather, self._parseval = [], [], []
        for key in keys:
            k = dict(zip(self.axes, key))
            per_axis = [range(size) if a not in k
                        else [k[a]] if a == self.axes[-1]
                        else sorted({k[a], -k[a] % size})
                        for a, size in enumerate(spec.sizes)]
            ix = np.ix_(*per_axis)
            self._gather.append(np.ravel_multi_index(ix, self._half).ravel())
            self._weight_gather.append(np.ravel_multi_index(ix, spec.shape).ravel())
            self._parseval.append((2.0 if key and key[-1] > 0 else 1.0) / norm)
        width = max(len(js) for js in by_key.values())
        self._chunk = max(1, _PROBE_BYTES // self._colour_work_bytes())
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
        self._mass = self._mass_stacks = self._reduced = None
        self._grams = {}
        self._eigen = {}

    def _piece_shapes(self):
        """Per-point shape of each first-order piece's image, in `_SPLIT` order."""
        return [fields.fiber_shape(self.cache.n, tag, self.p + shift)
                for tag, shift in _SPLIT.values()]

    def _colour_work_bytes(self):
        """Bytes one colour takes while an operator acts on it: `_WORK_FLOATS`
        arrays of the widest per-point fiber an operator of the registry
        forms, the conformal connection term of a rank p + 1 monomial field
        (n * n times its monomial dimension)."""
        n = self.cache.n
        widest = n * n * fiber.sym_dim(n, self.p + 1)
        return 8 * _WORK_FLOATS * widest * self.cache.spec.num_points

    def _bytes_before_solve(self, width):
        """Bytes the layer holds at its peak by its first solves, the Gram
        build included.

        Held throughout: the colour stack (real) and its half-spectrum cut
        (complex; a view of the colours when no axis is invariant).  On top
        of that, the largest of three phases: the synthesis buffers (the
        0/1 pick matrix of `width` functions per sector, the series'
        spectrum and its samples); the Gram build (the four piece stacks,
        six mass-sized arrays for the mass, its reduction L^{-1} and the
        four Gram blocks, and the larger of one chunk's working set and one
        piece's half-spectrum cut, its FFT and the sectors' gathers); and
        the solves (`_BLOCK_ARRAYS` mass-sized arrays: the mass, L^{-1},
        the Gram blocks, cached eigenvectors and one batched solve's
        working arrays).
        """
        points = self.cache.spec.num_points
        colours = width * self.t
        mass = 8 * sum(len(ix) ** 2 for ix in self.sectors)
        pieces = [math.prod(shape) for shape in self._piece_shapes()]
        held = 8 * colours * points * self.t
        piece_cut = 0
        if self.axes:
            bins = colours * math.prod(self._half)
            bins += sum(len(ix) * len(g) for ix, g in zip(self.sectors, self._gather))
            held += 16 * self.t * bins
            piece_cut = 16 * max(pieces) * bins
        synthesis = 8 * (self.basis.n_scalar * width + 4 * points * width)
        chunk = min(self._chunk, colours) * self._colour_work_bytes()
        gram = (8 * colours * points * sum(pieces) + 6 * mass
                + max(chunk, piece_cut))
        return held + max(synthesis, gram, _BLOCK_ARRAYS * mass)

    def _cut(self, images):
        """Per-sector FFT coefficients of a stack of colour images.

        images: (colours, *grid, fiber...) real.  Returns, per sector, a
        real (sector size, k) array whose row c holds the FFT of the image
        of the sector's c-th column on the sector's half-spectrum bins, as
        (real, imaginary) pairs; with no invariant axis, the image itself.
        """
        if not self.axes:
            # one sector over the whole grid: its cut is a view of the images
            return [images[: len(ix)].reshape(len(ix), -1) for ix in self.sectors]
        hat = np.fft.rfftn(images, axes=[1 + a for a in self.axes])
        hat = hat.reshape(len(images), math.prod(self._half), -1)
        return [hat[: len(ix)].take(g, axis=1).reshape(len(ix), -1).view(float)
                for ix, g in zip(self.sectors, self._gather)]

    def _pair(self, left, right, weights):
        """Sector blocks Re(L^H W R) / prod N_j of a weighted inner product;
        the weights are constant along the invariant axes.  On (real,
        imaginary) pairs the real part is one real product, each weight
        repeated for the two parts."""
        w = weights.reshape(self.cache.spec.num_points, -1)
        if not self.axes:
            return [(L * w.ravel()) @ R.T for L, R in zip(left, right)]
        out = []
        for L, R, g, factor in zip(left, right, self._weight_gather, self._parseval):
            wg = np.repeat(w.take(g, axis=0).ravel(), 2)
            out.append((L * wg) @ R.T * factor)
        return out

    def _probe(self, apply, fiber_shapes):
        """Images of every colour under `apply`, one chunk of colours at a time.

        `apply` maps a batch of colour fields to one image array per entry
        of `fiber_shapes`; returns one (colours, *grid, *fiber) stack per
        entry, each filled chunk by chunk.
        """
        grid = self.cache.spec.shape
        count = len(self.colours)
        stacks = [np.empty((count,) + grid + shape) for shape in fiber_shapes]
        for a in range(0, count, self._chunk):
            chunk = slice(a, a + self._chunk)
            phi = TensorField(self.cache, "s0", self.p, self.colours[chunk])
            for stack, image in zip(stacks, apply(phi)):
                stack[chunk] = image
        return stacks

    def mass(self):
        """Sector blocks of the mass matrix M, held as views of one stack per
        group of equal-size sectors."""
        if self._mass is None:
            w = weight_vector(self.cache, "s0", self.p)
            blocks = self._pair(self._colour_hat, self._colour_hat, w)
            self._mass_stacks = [np.stack([blocks[s] for s in group])
                                 for group in self._groups]
            self._mass = [None] * len(blocks)
            for group, M in zip(self._groups, self._mass_stacks):
                for k, s in enumerate(group):
                    self._mass[s] = M[k]
        return self._mass

    def _reduction(self):
        """Per group of equal-size sectors: the stacked mass blocks and L^{-1}
        of their Cholesky factors, computed once and shared by every solve."""
        if self._reduced is None:
            self.mass()
            self._reduced = [(M, _reduce(M)) for M in self._mass_stacks]
        return self._reduced

    def form(self, handle: OperatorHandle):
        """Sector blocks of the bilinear form <column, handle(column)>."""
        if not handle.is_endomorphism:
            raise SpectralError(f"{handle.name} is not an endomorphism")
        if (handle.cache, handle.domain_rank) != (self.cache, self.p):
            raise SpectralError("basis bundle does not match the handle domain")
        (images,) = self._probe(lambda phi: [handle.apply(phi).data], [(self.t,)])
        return self._pair(self._colour_hat, self._cut(images), handle.domain_weights())

    def gram(self, names):
        """Sector blocks of the stacked system named by `names` (pieces of
        `_SPLIT`): the sum of the weighted Grams of each operator's image."""
        unknown = sorted(set(names) - set(_SPLIT))
        if unknown:
            raise SpectralError(f"no Gram blocks for {', '.join(unknown)}; "
                                f"known: {', '.join(_SPLIT)}")
        if not self._grams:
            self._build_gram()
        return [sum(blocks) for blocks in zip(*(self._grams[name] for name in names))]

    def _build_gram(self):
        # one stack per piece, filled chunk by chunk from one decompose of
        # each chunk of colours
        def split(phi):
            sp = gradients.decompose(phi)
            return [getattr(sp, piece).data for piece in _SPLIT]

        stacks = dict(zip(_SPLIT, self._probe(split, self._piece_shapes())))
        for piece, (tag, shift) in _SPLIT.items():
            hat = self._cut(stacks.pop(piece))
            w = weight_vector(self.cache, tag, self.p + shift)
            self._grams[piece] = self._pair(hat, hat, w)
            del hat  # freed before the next piece is cut, to lower the peak

    def eigen(self, blocks):
        """Eigenpairs of (G_s, M_s) for every sector s, in sector order.

        Each group of equal-size sectors is one batched solve on the layer's
        cached reduction; residuals are gated per sector, relative to the
        norm of the whole pencil.
        """
        scale = _frobenius(blocks)
        out = [None] * len(blocks)
        for group, (M, Linv) in zip(self._groups, self._reduction()):
            res = _eigh_pencil(np.stack([blocks[s] for s in group]), M, scale=scale, Linv=Linv)
            for k, s in enumerate(group):
                out[s] = EigenResult(res.values[k], res.vectors[k], res.residuals[k])
        return out

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
    indeterminate: bool

    @property
    def label(self):
        return "indeterminate" if self.indeterminate else str(self.count)


def kernel_count(eigs):
    """Count the near-zero cluster of an ascending non-negative spectrum.

    The reference scale is the first eigenvalue above an absolute floor of
    _KERNEL_FLOOR_FACTOR times the largest eigenvalue; everything below
    _KERNEL_THETA times that reference (or below the floor itself) counts
    as kernel.  With a gap ratio under _KERNEL_GAP_MIN the count is flagged
    indeterminate: there is no cluster to speak of, and refining the grid
    is the only honest answer.
    """
    e = np.asarray(eigs, float)
    if e.size == 0:
        raise SpectralError("empty spectrum")
    if np.any(np.diff(e) < -1e-9 * max(abs(float(e[-1])), 1.0)):
        raise SpectralError("eigenvalues must be ascending")
    lam_max = float(e[-1])
    floor = _KERNEL_FLOOR_FACTOR * max(lam_max, 0.0)
    above = e[e > floor]
    if above.size == 0:
        return KernelCount(count=int(e.size), gap_ratio=math.inf, indeterminate=False)
    cut = max(_KERNEL_THETA * float(above[0]), floor)
    count = int(np.sum(e < cut))
    if count == 0:
        gap = math.inf
    else:
        gap = float(e[count]) / max(abs(float(e[count - 1])), _TINY)
    return KernelCount(count=count, gap_ratio=gap, indeterminate=bool(gap < _KERNEL_GAP_MIN))


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

def _grad_block(xi, t):
    """G(xi): sigma(covariant derivative) on trace-free coordinates, rows
    i-major, for a covector xi of shape (n,) or a stack (..., n) of them."""
    xi = np.asarray(xi, float)
    return np.einsum("...i,ab->...iab", xi, np.eye(t)).reshape(
        xi.shape[:-1] + (xi.shape[-1] * t, t))


def _first_order_symbol(A, weighted=False):
    """sigma(xi) = A G(xi) for a constant fiber matrix A with n t columns;
    a weighted operator (the divergence, which contracts with the inverse
    metric) carries the factor gscale.  A stack of covectors gives the
    stack of symbols."""

    def sig(xi, gscale):
        S = A @ _grad_block(xi, A.shape[1] // np.shape(xi)[-1])
        return gscale * S if weighted else S

    return sig


def _second_order_symbol(Q):
    """sigma(xi) = gscale G(xi)^T (Q G(xi)) for a constant (n t, n t) matrix Q."""

    def sig(xi, gscale):
        G = _grad_block(xi, len(Q) // np.shape(xi)[-1])
        return gscale * (np.swapaxes(G, -1, -2) @ (Q @ G))

    return sig


@lru_cache(maxsize=None)
def _symbol_matrices(n, p):
    """The constant fiber matrices of the registry's symbols at (n, p).

    I is the identity on T* (x) S0^p, E the transposed embedding of d1,
    A, B, C the flat projectors and K0 the divergence contraction
    `fields._k0` flattened to (t_{p-1}, n t).  Q1 and Q2 are the (n t, n t)
    block matrices of delta delta* and delta* delta, with blocks
    Q1_ij = C Kc_i Sm_j and Q2_ij = C Sm'_i k0_j built from the structure
    tensors those operators use, so each symbol shares its operator's sign
    and normalization; "sampson" is (p+1) Q1 - p Q2.
    """
    t = fiber.tracefree_dim(n, p)
    _, C = fiber.tracefree_basis(n, p)
    k0 = fields._k0(n, p)
    Q1 = np.einsum("aB,BiA,Ajc->iajc", C, fiber.div_contract_tensor(n, p + 1),
                   fields._sym_insert_expanded(n, p), optimize=True).reshape(n * t, n * t)
    Q2 = np.einsum("aB,Bib,bjc->iajc", C, fields._sym_insert_expanded(n, p - 1), k0,
                   optimize=True).reshape(n * t, n * t)
    PA, PB, PC = fiber.flat_projector_matrices(n, p)
    out = {
        "I": np.eye(n * t), "E": fiber.embed_matrix(n, p).T, "A": PA, "B": PB, "C": PC,
        "K0": k0.reshape(-1, n * t), "Q1": Q1, "Q2": Q2,
        "sampson": (p + 1.0) * Q1 - float(p) * Q2,
    }
    for M in out.values():
        M.flags.writeable = False
    return out


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

def gradient_handle(cache, p):
    return OperatorHandle(
        name="gradient", cache=cache, domain_rank=p, codomain_tag="cov_s0",
        codomain_rank=p, apply=fields.gradient,
        symbol=_first_order_symbol(_symbol_matrices(cache.n, p)["I"]),
    )


def divergence_handle(cache, p):
    return OperatorHandle(
        name="divergence", cache=cache, domain_rank=p, codomain_tag="s0",
        codomain_rank=p - 1, apply=fields.divergence,
        symbol=_first_order_symbol(-_symbol_matrices(cache.n, p)["K0"], weighted=True),
    )


def d1_handle(cache, p):
    return OperatorHandle(
        name="d1", cache=cache, domain_rank=p, codomain_tag="s0",
        codomain_rank=p + 1, apply=gradients.d1,
        symbol=_first_order_symbol(_symbol_matrices(cache.n, p)["E"]),
    )


def d2_handle(cache, p):
    return OperatorHandle(
        name="d2", cache=cache, domain_rank=p, codomain_tag="cov_s0",
        codomain_rank=p, apply=gradients.d2,
        symbol=_first_order_symbol(_symbol_matrices(cache.n, p)["B"]),
    )


def d3_handle(cache, p):
    return OperatorHandle(
        name="d3", cache=cache, domain_rank=p, codomain_tag="cov_s0",
        codomain_rank=p, apply=gradients.d3,
        symbol=_first_order_symbol(_symbol_matrices(cache.n, p)["C"]),
    )


def _second_order_handle(name, cache, p, apply, matrix):
    """An endomorphism of the trace-free rank-p bundle with the
    second-order symbol of `_symbol_matrices(n, p)[matrix]`."""
    return OperatorHandle(
        name=name, cache=cache, domain_rank=p, codomain_tag="s0", codomain_rank=p,
        apply=apply, symbol=_second_order_symbol(_symbol_matrices(cache.n, p)[matrix]),
    )


def rough_laplacian_handle(cache, p):
    return _second_order_handle("rough_laplacian", cache, p, fields.rough_laplacian, "I")


def d1_star_d1_handle(cache, p, route="transpose"):
    name = "d1_star_d1" if route == "transpose" else "d1_star_d1_formula"
    return _second_order_handle(
        name, cache, p, lambda phi: gradients.stein_weiss_d1(phi, route=route), "A")


def d2_star_d2_handle(cache, p):
    return _second_order_handle(
        "d2_star_d2", cache, p,
        lambda phi: gradients.d2_exact_adjoint(gradients.d2(phi)), "B")


def d3_star_d3_handle(cache, p):
    return _second_order_handle(
        "d3_star_d3", cache, p,
        lambda phi: gradients.d3_exact_adjoint(gradients.d3(phi)), "C")


def sampson_handle(cache, p):
    return _second_order_handle(
        "sampson_tracefree", cache, p,
        lambda phi: fields.to_tracefree(gradients.sampson(phi)), "sampson")


def delta_deltastar_handle(cache, p):
    return _second_order_handle(
        "delta_deltastar", cache, p,
        lambda phi: fields.to_tracefree(fields.divergence(fields.sym_derivative(phi))), "Q1")


def deltastar_delta_handle(cache, p):
    return _second_order_handle(
        "deltastar_delta", cache, p,
        lambda phi: fields.to_tracefree(fields.sym_derivative(fields.divergence(phi))), "Q2")


_HANDLES = {
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
