"""Spectral experiments for the first-order pieces and their compositions.

Eigenvalue studies run on a dealiased real trigonometric basis; near-kernels
are counted with an explicit tolerance policy that refuses to report a
number when there is no clear spectral gap.

One Galerkin layer (`Galerkin`, one per grid and rank) serves every study:

* symmetry sectors: along an axis where the conformal exponent is constant
  (every axis of a flat metric) all operators and weights commute with
  translations, so the Galerkin matrices do not couple basis columns whose
  wavenumbers differ in absolute value on that axis.  Columns are grouped
  into sectors by those |m_a|; with no such axis there is one sector, the
  dense pencil;
* reflection classes: the reflections x_a -> -x_a of the invariant axes
  are isometries too.  A fiber basis of simultaneous reflection
  eigenvectors (`fiber.parity_basis`) pairs cos(k x_a) with the even
  fiber columns and sin(k x_a) with the odd ones; those reduced columns
  of a sector are the reflection-even half, and the translates by
  pi/(2k) along each axis with k > 0 carry the same pencil, so each
  block's spectrum counts 2^#(k_a > 0) times.  Where k_a = 0 the fiber
  parity splits a sector into blocks.  A sector keeps (trig functions of
  the varying axes) * t reduced columns: 62 instead of 124 for
  `0.1*cos(x1)` at N=32, 2 instead of 8 on the flat 2-torus at rank 2;
* probing: colour c sums the c-th reduced column of every sector, so one
  operator application per colour serves all sectors at once.  Operators
  act on batches of colours (fields with a leading batch axis), chunk by
  chunk under a fixed byte budget.  A column's image is the part of its
  colour's image in its sector's FFT bins, and the sector matrices follow
  from Parseval along the invariant axes.  Images are real, so the FFT is
  a half spectrum along the last invariant axis, taken chunk by chunk
  into cut stacks preallocated for every colour.  Each chunk's images are
  scaled by the square root of their weight before the cut (the weight is
  constant along the invariant axes), so every Galerkin matrix is a plain
  product of two cuts.  The entries between two reflection classes vanish
  by symmetry and are gated at roundoff;
* reuse: the mass matrix and each operator's Gram block are computed once
  per layer and stacked systems add blocks.  The four first-order pieces
  (d1, d2, d3 and the divergence) are constant fiber maps of the gradient
  paired with its weight, so their Grams come from one weighted cut stack
  of `fields.gradient` images; no operator handle is applied for them;
* batched solves: blocks of equal size form a group, held as one stack.
  Each group's mass blocks are reduced once per layer (batched Cholesky
  M = L L^T and L^{-1}), and every eigensolve of the layer solves a group
  as one batched standard problem C = L^{-1} G L^{-T}, gated block by
  block in those reduced coordinates.  The flat (diagonal) and conformal
  (dense) mass take the same path.

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
import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import fiber, fields, gradients
from .fields import TensorField

# bytes a Galerkin layer may hold by its first solves, the Gram build
# included, as estimated by Galerkin._bytes_before_solve; the estimate
# bounds the layer's traced peak (conformal 3-torus 0.1*cos(x1), N=12,
# rank 3: 64 MiB estimated, 63 MiB traced through the kernel suite's
# solves)
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
# largest entry between two reflection classes of a sector, relative to the
# pairing's (Galerkin._pair); the classes are orthogonal, so only roundoff
# stays below it (at most 7.4e-16 in the shipped configs' kernel suites)
_SYMMETRY_TOL = 1e-10
# kernel-count policy (`kernel_count`): the absolute floor as a fraction of
# the largest eigenvalue, the kernel cut as a fraction of the first
# eigenvalue above the floor, and the least gap ratio of a determinate count
_KERNEL_FLOOR_FACTOR = 1e-8
_KERNEL_THETA = 1e-4
_KERNEL_GAP_MIN = 100.0


class SpectralError(RuntimeError):
    pass


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
    def is_endomorphism(self):
        return ("s0", self.domain_rank) == (self.codomain_tag, self.codomain_rank)

    def field_from_vector(self, vec):
        shape = self.grid + (fiber.tracefree_dim(self.n, self.domain_rank),)
        data = np.asarray(vec, float).reshape(shape)
        return TensorField(self.cache, "s0", self.domain_rank, data)

    def apply_vector(self, vec):
        return np.asarray(self.apply(self.field_from_vector(vec)).data, float).ravel()


# ---------------------------------------------------------------------------
# weighted symmetric eigensolve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenResult:
    values: np.ndarray      # ascending
    vectors: np.ndarray     # columns, orthonormal in the weighted inner product
    residuals: np.ndarray   # bounds on the relative per-pair pencil residuals
    multiplicity: object = 1  # copies of each pencil's spectrum, per leading index


def _reduce(M):
    """L^{-1} for the Cholesky factors M = L L^T of a stack (..., s, s) of
    positive definite mass blocks."""
    return np.linalg.inv(np.linalg.cholesky(M))


def _eigh_pencil(G, M, scale, Linv):
    """Eigenpairs of symmetric pencils (G, M), M dense positive definite,
    batched over any leading axes of G and M.

    Each pencil is reduced to the standard problem C = L^{-1} G L^{-T} with
    `Linv` = L^{-1} (`_reduce(M)`), solved with one batched `eigh` and
    transformed back, so the vectors are M-orthonormal.  The residuals are
    gated in reduced coordinates: G V - M V Lambda equals L (C Y - Y Lambda),
    and ||L||_2 <= sqrt(||M||_F), so sqrt(||M||_F) ||C y - lambda y||
    bounds each pair's pencil residual and is never looser than it.  They
    are relative to `scale`, the norm of the whole pencil (a scalar, or one
    per pencil), and every pencil is gated on its own.
    """
    LinvT = np.swapaxes(Linv, -1, -2)
    C = Linv @ G @ LinvT
    vals, Y = np.linalg.eigh(C)
    bound = np.sqrt(np.linalg.norm(M, axis=(-2, -1)))[..., None] * np.linalg.norm(
        C @ Y - Y * vals[..., None, :], axis=-2)
    residuals = bound / (np.asarray(scale)[..., None] + _TINY)
    worst = np.max(residuals, axis=-1, initial=0.0)
    if np.any(worst > _RESIDUAL_TOL):
        raise SpectralError(
            f"eigensolve residuals up to {float(np.max(worst)):.3e} exceed "
            f"{_RESIDUAL_TOL:.1e} in {int(np.sum(worst > _RESIDUAL_TOL))} of "
            f"{worst.size} pencils: the pencil did not converge"
        )
    return EigenResult(values=vals, vectors=LinvT @ Y, residuals=residuals)


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
# the Galerkin layer: reflection classes of symmetry sectors, probed
# applications, Gram reuse
# ---------------------------------------------------------------------------

def invariant_axes(cache):
    """Axes the conformal exponent does not depend on (`TrigPoly.variables`).

    Every operator and every weight commutes with translations along such an
    axis, and with the reflection x_a -> -x_a; a flat metric makes every
    axis invariant.
    """
    varying = cache.exponent.variables
    return tuple(j for j in range(cache.n) if j not in varying)


# piece -> the (rows, n, t) map M of the gradient X whose image M X the
# Galerkin layer pairs: the maps the exact adjoints of d1, d2 and d3
# transpose, and K0 for the divergence e^{-2f} (-K0 X) (`_build_gram`)
_SPLIT = {"d1": gradients._d1_transpose_structure, "d2": gradients._d2_transpose_structure,
          "d3": gradients._d3_transpose_structure, "divergence": fields._k0}


@dataclass(frozen=True, eq=False)
class Block:
    """One reflection class of one sector of a Galerkin layer.

    `columns` index the sector's reduced columns (and the layer's colours),
    ascending; the block's spectrum counts `multiplicity` times in the full
    dealiased basis.
    """

    sector: int
    columns: np.ndarray
    multiplicity: int


def _axis_factor(size, k, odd, shifted=False):
    """cos(k x) (even) or sin(k x) (odd) on a grid axis of `size` points,
    or, `shifted`, its translate by pi/(2k): -sin(k x) or cos(k x)."""
    theta = 2.0 * math.pi * np.arange(size) / size
    if shifted:
        return np.cos(k * theta) if odd else -np.sin(k * theta)
    return np.sin(k * theta) if odd else np.cos(k * theta)


class Galerkin:
    """Galerkin matrices of one (grid, rank) on the dealiased trace-free basis,
    reduced by the translations and reflections of the invariant axes.

    A sector is a key (k_a) over the invariant axes: the basis columns whose
    modes have |m_a| = k_a there.  Its reduced columns (u, beta) are
    u(x) * prod_a c_a(x_a) (x) e_beta: u runs over the trig functions of the
    varying axes (the constant, then cos and sin of each half mode), e_beta
    over `fiber.parity_basis`, and c_a is 1 where k_a = 0, cos(k_a x_a)
    where k_a > 0 and beta is even in a, sin(k_a x_a) where it is odd.
    These columns are even under every reflection x_a -> -x_a with k_a > 0;
    the odd columns are their translates by pi/(2 k_a), which commute with
    every operator, so the sector's spectrum is the reduced one counted
    2^#(k_a > 0) times.  On the axes with k_a = 0 the reflection parity of
    beta splits the reduced columns into blocks (`blocks`), the classes a
    reflection-equivariant operator does not couple.  Column (u_j, e_beta)
    is reduced column j * t + beta of its sector, and every sector has the
    same count of them.

    Colour c is the sum of reduced column c of every sector.  Its image,
    scaled by the square root of its weight W, is cut into sectors in the
    FFT along the invariant axes.  W is constant along those axes, so a
    sector's matrix is Re(F_s^H W F_s) / prod N_a = Re(H_s^H H_s) / prod N_a
    over the sector's bins (Parseval), H_s the cut of the scaled images,
    and its blocks are the diagonal blocks of its classes.  The entries
    between classes vanish by symmetry; they are gated at roundoff.

    Images are real, so the FFT is a half spectrum: the last invariant axis
    is the real axis of `numpy.fft.rfftn`.  On that axis a sector's cut
    keeps only its bin +k, and since the bins -k are the conjugates of the
    bins +k, a sector with k > 0 there counts its pairing twice.  On the
    other invariant axes the cut keeps the bins +k_a and -k_a, and every
    index on the varying axes.  Sectors with as many bins are gathered and
    paired together, as one stack.  With no invariant axis the one sector
    spans the whole grid and its cut is the scaled images themselves.

    Operators are applied to a batch of colours at a time (`_probe`): the
    colours go in chunks whose working set stays near `_PROBE_BYTES`, and
    each chunk's images are scaled and cut as soon as they exist, into cut
    stacks preallocated for every colour; the colours' own cut is probed
    the same way.  The four first-order pieces' Grams come from one such
    stack, of the gradient, through each piece's map (`_SPLIT`), one piece
    at a time: a constant fiber map commutes with the scalar weight.

    Blocks of equal size form a group, and every matrix the layer returns
    (mass, Gram, form) is a list of stacks, one per group, in `_groups`
    order.  Mass, its reduction, Gram blocks and joint eigendecompositions
    are cached on the layer: a suite builds one per (grid, rank) and stacked
    systems add blocks.
    """

    def __init__(self, cache, p):
        spec = cache.spec
        t = fiber.tracefree_dim(cache.n, p)
        self.cache, self.p, self.t = cache, p, t
        self.axes = invariant_axes(cache)
        bands = [size // 2 - 1 for size in spec.sizes]
        # the trig functions of the varying axes, constant along the invariant ones
        self._var_modes = half_modes([0 if a in self.axes else b for a, b in enumerate(bands)])
        width = 1 + 2 * len(self._var_modes)
        self._fiber, parity = fiber.parity_basis(cache.n, p)
        self._parity = parity[:, list(self.axes)]
        self.keys = list(itertools.product(*(range(bands[a] + 1) for a in self.axes)))
        # a colour's class in a sector is the parity of its fiber column on
        # the invariant axes with k_a = 0; it depends only on those axes
        odd = self._parity[np.arange(width * t) % t]
        labels, split = {}, {}
        self.blocks = []
        for s, key in enumerate(self.keys):
            zero = tuple(i for i, k in enumerate(key) if k == 0)
            if zero not in labels:
                code = odd[:, list(zero)] @ (1 << np.arange(len(zero)))
                labels[zero] = np.searchsorted(sorted(set(code.tolist())), code)
            label = labels[zero]
            self.blocks += [Block(s, np.flatnonzero(label == c), 2 ** (len(key) - len(zero)))
                            for c in range(label.max() + 1)]
            if label.max() > 0:
                split[s] = label
        # the sectors of more than one class, and the masks of their
        # entries between classes
        self._split = np.array(list(split), int)
        label = np.array(list(split.values()), int).reshape(len(split), width * t)
        self._cross = label[:, :, None] != label[:, None, :]
        sizes = np.array([len(b.columns) for b in self.blocks])
        # blocks of equal size, solved together as one batched pencil: their
        # sectors, columns and multiplicities
        self._groups = [np.flatnonzero(sizes == size) for size in sorted(set(sizes.tolist()))]
        self._group_sectors = [np.array([self.blocks[b].sector for b in g]) for g in self._groups]
        self._group_columns = [np.stack([self.blocks[b].columns for b in g]) for g in self._groups]
        self._mult = [np.array([self.blocks[b].multiplicity for b in g]) for g in self._groups]
        # the half spectrum: the last invariant axis keeps bins 0..N/2
        self._half = tuple(size // 2 + 1 if self.axes and a == self.axes[-1] else size
                           for a, size in enumerate(spec.sizes))
        self._bins = self._sector_bins()
        self._chunk = max(1, _PROBE_BYTES // self._colour_work_bytes())
        need = self._bytes_before_solve(width)
        if need > GALERKIN_BYTES_CAP:
            raise SpectralError(
                f"the Galerkin layer would hold {need / 2**20:.0f} MiB before its first "
                f"solve, above the {GALERKIN_BYTES_CAP / 2**20:.0f} MiB cap; shrink the "
                "grid (or the rank) before assembling"
            )
        self.colours = self._synthesize_colours(width)
        self._colour_hat = self._probe(lambda phi: phi.data, "s0", t)
        self._mass = self._mass_max = self._reduced = None
        self._grams = {}
        self._eigen = {}

    def _sector_bins(self):
        """Sectors grouped by their count of FFT bins: per group the sector
        indices, their gathers into the half spectrum (sector, bin) and
        their Parseval factors (twice a nonzero bin of the real axis).

        A sector keeps the bin +k_a of the real axis, the bins +k_a and
        -k_a of the other invariant axes and every index of the varying
        axes; with no invariant axis the one sector keeps every point."""
        spec = self.cache.spec
        norm = float(math.prod(spec.sizes[a] for a in self.axes))
        by_count = {}
        for s, key in enumerate(self.keys):
            k = dict(zip(self.axes, key))
            per_axis = [range(size) if a not in k
                        else [k[a]] if a == self.axes[-1]
                        else sorted({k[a], -k[a] % size})
                        for a, size in enumerate(spec.sizes)]
            by_count.setdefault(math.prod(map(len, per_axis)), []).append(
                (s, np.ravel_multi_index(np.ix_(*per_axis), self._half).ravel(),
                 (2.0 if key and key[-1] > 0 else 1.0) / norm))
        return [tuple(map(np.array, zip(*entries))) for entries in by_count.values()]

    def _fiber_products(self, factor):
        """(t, *grid): per fiber column beta, the product over the invariant
        axes of factor(i, odd), a 1-D array along the i-th invariant axis and
        odd the parity of beta there."""
        spec = self.cache.spec
        out = np.ones((self.t,) + spec.shape)
        for i, a in enumerate(self.axes):
            view = [1] * spec.n
            view[a] = spec.sizes[a]
            for beta in range(self.t):
                out[beta] *= factor(i, self._parity[beta, i]).reshape(view)
        return out

    def _synthesize_colours(self, width):
        """The (colours, *grid, t) colour stack: colour (j, beta) is u_j times
        the product over the invariant axes of the sum over k_a of c_a,
        along e_beta; the sum over sectors of a product is the product of
        the per-axis sums."""
        spec = self.cache.spec
        u = trig_series(spec, self._var_modes, np.eye(width))
        sizes = [spec.sizes[a] for a in self.axes]
        sums = self._fiber_products(lambda i, odd: 1.0 + sum(
            _axis_factor(sizes[i], k, odd) for k in range(1, sizes[i] // 2)))
        return np.einsum("...j,b...,ab->jb...a", u, sums, self._fiber).reshape(
            (width * self.t,) + spec.shape + (self.t,))

    def _colour_work_bytes(self):
        """Bytes one colour takes while an operator acts on it, bounded by
        `_WORK_FLOATS` arrays of n * n times the monomial dimension of rank
        p + 1 per point.  The widest per-point fiber an operator of the
        registry forms is n times that dimension: the gradient of a rank
        p + 1 monomial field, and its connection term, formed one axis at a
        time."""
        n = self.cache.n
        widest = n * n * fiber.sym_dim(n, self.p + 1)
        return 8 * _WORK_FLOATS * widest * self.cache.spec.num_points

    def _bytes_before_solve(self, width):
        """Bytes the layer holds at its peak by its first solves, the Gram
        build included, for `width` trig functions of the varying axes.

        A cut stack (`_cut_stacks`) takes `cut` bytes per fiber value.
        Held throughout: the colour stack and its cut.  On top of that, the
        largest of three phases: the synthesis buffers (the series' spectrum
        and samples of the `width` functions); the Gram build (the cut
        gradient stack, six mass-sized arrays for the mass, L^{-1} and the
        four Gram blocks, and the larger of probing, one chunk's working set
        with the FFT, its intermediate and its gather, and pairing, one
        piece's cut and two sector-matrix arrays); and the solves
        (`_BLOCK_ARRAYS` mass-sized arrays: the mass, L^{-1}, the Gram
        blocks, cached eigenvectors and one batched solve's working arrays).
        """
        points = self.cache.spec.num_points
        colours = width * self.t
        grad = self.cache.n * self.t
        mass = 8 * sum(len(b.columns) ** 2 for b in self.blocks)
        sectors = 8 * len(self.keys) * colours ** 2
        cut = 8 * colours * (2 if self.axes else 1) * sum(g.size for _, g, _ in self._bins)
        held = (8 * colours * points + cut) * self.t
        fft = 3 * 16 * math.prod(self._half) * grad if self.axes else 0
        probe = min(self._chunk, colours) * (self._colour_work_bytes() + fft)
        pairing = cut * grad + 2 * sectors
        gram = cut * grad + 6 * mass + max(probe, pairing)
        synthesis = 8 * (width * width + 4 * points * width)
        return held + max(synthesis, gram, _BLOCK_ARRAYS * mass)

    def _cut(self, images, out, rows):
        """Write the half-spectrum cut of a chunk of colour images into the
        per-group stacks `out` (`_cut_stacks`) at the colour rows `rows`.

        images: (chunk, *grid, width) real, already scaled by the root of
        their weight (`_probe`).  Row [s, c] of a group's stack holds the FFT
        of colour c's image on sector s's bins, as (bins, parts, width) with
        the parts (real, imaginary); with no invariant axis it holds the
        image itself, with one part.
        """
        count = len(images)
        if not self.axes:
            out[0][0, rows] = images.reshape(count, -1, 1, images.shape[-1])
            return
        hat = np.fft.rfftn(images, axes=[1 + a for a in self.axes])
        hat = hat.reshape(count, math.prod(self._half), -1)
        for stack, (_, g, _) in zip(out, self._bins):
            # the gather is (chunk, sectors, bins, width); the colour axis is
            # moved behind the sectors as a strided view
            part = np.take(hat, g, axis=1).swapaxes(0, 1)
            stack[:, rows, :, 0] = part.real
            stack[:, rows, :, 1] = part.imag

    def _cut_stacks(self, width):
        """Empty per-group cut stacks for every colour, `width` fiber values
        per point: (sectors, colours, bins, parts, width), in `_bins` order."""
        parts = 2 if self.axes else 1
        return [np.empty((len(sel), len(self.colours), g.shape[1], parts, width))
                for sel, g, _ in self._bins]

    def _pair(self, left, right, floor):
        """Block stacks Re(L^H R) / prod N_a of two cuts, one stack per
        group: a plain product, since the cuts carry the square root of
        their weight (`_probe`).  On (real, imaginary) parts the real part
        is one real product, and no operand is copied.  A cut paired with
        itself is one symmetric product, so the mass and the Grams are
        exactly symmetric.

        Each sector's whole matrix is formed.  Its entries between two
        reflection classes pair images that the reflections keep orthogonal,
        so they are gated at `_SYMMETRY_TOL` of the larger of `floor` and
        the pairing's largest entry: an operator that does not commute with
        the reflections is refused.  The floor (the mass's largest entry)
        measures an operator that vanishes to roundoff, such as d3 on the
        2-torus at p >= 2, against the basis rather than its own noise.
        """
        count = len(self.colours)
        S = np.empty((len(self.keys), count, count))
        for (sel, _, factor), L, R in zip(self._bins, left, right):
            L, R = (X.reshape(len(sel), count, -1) for X in (L, R))
            prod = L @ R.swapaxes(1, 2)
            prod *= factor[:, None, None]
            S[sel] = prod
            del prod  # before the next group's product exists
        if self._split.size:
            cross = float(np.max(np.abs(S[self._split][self._cross]), initial=0.0))
            scale = max(float(np.max(np.abs(S))), floor)
            if cross > _SYMMETRY_TOL * scale:
                raise SpectralError(
                    f"entries between reflection classes reach {cross / scale:.3e} of the "
                    f"largest entry, above {_SYMMETRY_TOL:.1e}: the operator does not "
                    "commute with the reflections of the invariant axes"
                )
        return [S[sec[:, None, None], ix[:, :, None], ix[:, None, :]]
                for sec, ix in zip(self._group_sectors, self._group_columns)]

    def _probe(self, apply, tag, width):
        """Cut images of every colour under `apply`, one chunk of colours at
        a time: the per-group cut stacks (`_cut_stacks`).

        `apply` maps a batch of colour fields to a (chunk, *grid, width)
        image array on the rank-p bundle `tag` ("s0" or "cov_s0").  Each
        chunk's images are scaled by the square root of that bundle's
        weight, in real space, before they are cut.  The weight is constant
        along the invariant axes the FFT transforms, so the cut is the
        weight's root times the cut of the images, and a constant fiber map
        of the cut (`_build_gram`) keeps that factor.
        """
        root = np.sqrt(fields.fiber_weight_scalar(self.cache, tag, self.p))[..., None]
        stacks = self._cut_stacks(width)
        for a in range(0, len(self.colours), self._chunk):
            rows = slice(a, a + self._chunk)
            phi = TensorField(self.cache, "s0", self.p, self.colours[rows])
            self._cut(apply(phi) * root, stacks, rows)
        return stacks

    def norm(self, stacks):
        """Frobenius norm of the full Galerkin matrix whose block stacks are
        `stacks`, each block counted with its multiplicity."""
        return math.sqrt(sum(float(np.sum(B * B, axis=(1, 2)) @ mult)
                             for B, mult in zip(stacks, self._mult)))

    def mass(self):
        """Block stacks of the mass matrix M."""
        if self._mass is None:
            self._mass = self._pair(self._colour_hat, self._colour_hat, 0.0)
            self._mass_max = max(float(np.max(np.abs(M))) for M in self._mass)
        return self._mass

    def _reduction(self):
        """Per group: the stacked mass blocks and L^{-1} of their Cholesky
        factors, computed once and shared by every solve."""
        if self._reduced is None:
            self._reduced = [(M, _reduce(M)) for M in self.mass()]
        return self._reduced

    def form(self, handle: OperatorHandle):
        """Block stacks of the bilinear form <column, handle(column)>."""
        if not handle.is_endomorphism:
            raise SpectralError(f"{handle.name} is not an endomorphism")
        if (handle.cache, handle.domain_rank) != (self.cache, self.p):
            raise SpectralError("basis bundle does not match the handle domain")
        self.mass()
        images = self._probe(lambda phi: handle.apply(phi).data, "s0", self.t)
        return self._pair(self._colour_hat, images, self._mass_max)

    def gram(self, names):
        """Block stacks of the stacked system named by `names` (pieces of
        `_SPLIT`): the sum of the weighted Grams of each operator's image."""
        unknown = sorted(set(names) - set(_SPLIT))
        if unknown:
            raise SpectralError(f"no Gram blocks for {', '.join(unknown)}; "
                                f"known: {', '.join(_SPLIT)}")
        if not self._grams:
            self._build_gram()
        return [sum(stacks) for stacks in zip(*(self._grams[name] for name in names))]

    def _build_gram(self):
        # the FFT acts on the grid axes, so a piece's cut is M times the
        # gradient's, weight included; every piece pairs with the gradient's
        # weight, which for the divergence is its rank p-1 weight times
        # e^{-4f} (the sign of -K0 drops out of a Gram)
        n, p = self.cache.n, self.p
        self.mass()
        grad = self._probe(lambda phi: fields._merged(fields.gradient(phi).data),
                           "cov_s0", n * self.t)
        for piece, structure in _SPLIT.items():
            M = fields._slots(structure(n, p))
            hat = [(X.reshape(-1, X.shape[-1]) @ M.T).reshape(X.shape[:-1] + (-1,))
                   for X in grad]
            self._grams[piece] = self._pair(hat, hat, self._mass_max)
            del hat

    def eigen(self, stacks):
        """Eigenpairs of (G, M) for every block, one batched result per group.

        Each group is one batched solve on the layer's cached reduction; its
        result carries the blocks' multiplicities.  Residuals are gated per
        block, relative to the norm of the whole pencil.
        """
        scale = self.norm(stacks)
        return [replace(_eigh_pencil(G, M, scale=scale, Linv=Linv), multiplicity=mult)
                for G, (M, Linv), mult in zip(stacks, self._reduction(), self._mult)]

    def joint_eigen(self, names):
        """Per-group eigenpairs of the stacked system, solved once per layer."""
        key = tuple(names)
        if key not in self._eigen:
            self._eigen[key] = self.eigen(self.gram(names))
        return self._eigen[key]

    def field(self, block, coeffs, copy=0):
        """The field with coefficients `coeffs` on the columns of one block.

        `copy` (below the block's multiplicity) picks one of its translates:
        bit i translates by pi/(2k) along the i-th invariant axis with k > 0,
        which maps the block's eigenvectors to eigenvectors of the other
        reflection classes.
        """
        b = self.blocks[block]
        spec = self.cache.spec
        key = self.keys[b.sector]
        moving = [i for i, k in enumerate(key) if k > 0]
        coef = np.zeros((1 + 2 * len(self._var_modes), self.t))
        coef[b.columns // self.t, b.columns % self.t] = coeffs

        def factor(i, odd):
            size = spec.sizes[self.axes[i]]
            if key[i] == 0:
                return np.ones(size)
            return _axis_factor(size, key[i], odd, bool(copy >> moving.index(i) & 1))

        series = trig_series(spec, self._var_modes, coef)
        data = np.einsum("...b,b...,ab->...a", series, self._fiber_products(factor),
                         self._fiber)
        return TensorField(self.cache, "s0", self.p, data)

    def lowest_fields(self, names, count):
        """Fields of the `count` lowest eigenpairs of the stacked system, each
        block's eigenpair counted with its multiplicity (its translates)."""
        eig = self.joint_eigen(names)
        vectors = {}
        order = []
        for r, group in zip(eig, self._groups):
            for b, vals, V, mult in zip(group.tolist(), r.values, r.vectors, r.multiplicity):
                vectors[b] = V
                order += [(float(v), b, i, copy) for i, v in enumerate(vals)
                          for copy in range(mult)]
        order.sort()
        return [self.field(b, vectors[b][:, i], copy) for _, b, i, copy in order[:count]]


def sector_spectrum(results):
    """Ascending eigenvalues of a layer's per-group results, each block's
    counted with its multiplicity: the spectrum on the full dealiased basis."""
    return np.sort(np.concatenate([
        np.repeat(r.values.reshape(-1), np.repeat(np.reshape(r.multiplicity, -1),
                                                  r.values.shape[-1]))
        for r in results]))


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
    transposed = [np.swapaxes(G, 1, 2) for G in blocks]
    defect = gal.norm([G - T for G, T in zip(blocks, transposed)]) / (gal.norm(blocks) + _TINY)
    results = gal.eigen([0.5 * (G + T) for G, T in zip(blocks, transposed)])
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


def d1_star_d1_handle(cache, p):
    return _second_order_handle(
        "d1_star_d1", cache, p,
        lambda phi: gradients.d1_exact_adjoint(gradients.d1(phi)), "A")


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
