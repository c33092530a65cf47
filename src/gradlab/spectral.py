"""Spectral experiments for the first-order pieces and their compositions.

Eigenvalue studies run on a dealiased real trigonometric basis; near-kernels
are counted with an explicit tolerance policy that refuses to report a
number when there is no clear spectral gap.

One Galerkin layer (`Galerkin`, one per grid and rank) serves every study.
It reduces the dealiased basis by the isometries the metric keeps, into
sectors (translations) and reflection classes and blocks (reflections): a
block of `0.1*cos(x1)` at N=32 has 31 columns (124 without the
reflections), one of the flat 2-torus at rank 2 has 2 (8 without).  Each
operator is applied once per colour, every Galerkin matrix is a plain
product of two cuts of FFT bins (Parseval), and blocks of equal size are
solved as one batched pencil; an allocation plan (`allocation.plan`)
sizes the layer.

Two discretization hazards shape the design:

* the antisymmetric spectral derivative is blind to the top (Nyquist)
  frequency on an even grid, so a nodal basis (one column per grid value)
  gives any operator built from first derivatives spurious zero modes.
  Eigenvalue studies therefore run on the dealiased basis, which simply
  excludes those modes;
* discretization can fake near-zero eigenvalues, so a kernel count is only
  "confirmed" when two grid resolutions agree and the gap above the counted
  cluster is at least two orders of magnitude.

Principal symbols are never extracted by finite plane-wave limits: with
G(xi) the symbol of the covariant derivative on trace-free coordinates, a
first-order piece's on a flat torus is A G(xi) (`flat_piece_symbols`) and
d1* d1's is gscale G(xi)^T A G(xi), each A its operator's own cached
structure tensor, so the symbols match the discrete operators exactly.
"""

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import allocation, fiber, fields, gradients
from .fields import TensorField

# bytes a Galerkin layer may hold by its first solves, as its allocation plan
# counts them (1.0-1.4 times a kernel run's traced peak on the tests' cells)
GALERKIN_BYTES_CAP = 2**30
# bytes of one chunk of colours in a layer's widest probe step, as its plan
# counts them: 8 colours of 31 on the conformal 2-torus at N=32, rank 2
_PROBE_BYTES = 2**21
_TINY = 1e-300
# largest relative pencil residual an eigensolve may leave
_RESIDUAL_TOL = 1e-8
# largest entry between two reflection classes of a sector, relative to the
# pairing's (Galerkin._pair), and largest defect of an operator's
# commutation with the reflection of a mirror axis on one colour, relative
# to the image (Galerkin._gate); the classes are orthogonal and the
# operators equivariant, so only roundoff stays below it (at most 7.4e-16
# between classes and 7.1e-16 in commutation in the shipped configs' kernel
# suites)
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
    """A named linear operator on the trace-free ("s0") bundle of rank
    `domain_rank`: the kernel suite's d1* d1 (`d1_star_d1_handle`), whose
    form a Galerkin layer assembles (`Galerkin.form`).

    `apply` acts on TensorField instances, single fields or batches; the
    vector interface (one field) ravels the field layout.
    `symbol` maps (xi, gscale) to the principal-symbol fiber matrix, where
    gscale is the inverse conformal factor at the evaluation point.
    """

    name: str
    cache: object
    domain_rank: int
    apply: callable
    symbol: callable

    @property
    def n(self):
        return self.cache.n

    @property
    def grid(self):
        return self.cache.spec.shape

    def field_from_vector(self, vec):
        shape = (fiber.tracefree_dim(self.n, self.domain_rank),) + self.grid
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
    """Sample a real trig series on the grid of `spec`, (*coef.shape[1:], *grid).

    Row 0 of `coef` multiplies the constant; rows 2k+1 and 2k+2 multiply
    cos and sin of the phase m.theta of modes[k], each below the Nyquist
    index of every axis and distinct representatives of their {m, -m}
    pairs (`half_modes`).  z = (cos row - i sin row) / 2 goes to cell m of
    a box of amplitudes over the modes' bands, or conj z to cell -m,
    whichever has a last entry >= 0 (both at 0), and the box is summed one
    axis at a time against e^{i k x}, the last axis against cos and sin
    (`_axis_functions`): only the rows of the band are touched.
    """
    coef = np.asarray(coef, float)
    modes = np.asarray(modes, int).reshape(-1, spec.n)
    if coef.shape[0] != 1 + 2 * len(modes):
        raise SpectralError(f"{coef.shape[0]} coefficient rows; {len(modes)} modes "
                            f"need {1 + 2 * len(modes)}")
    if np.any(2 * np.abs(modes) >= np.asarray(spec.sizes)):
        raise SpectralError(f"trig series modes must lie below Nyquist on {spec.sizes}")
    bands = np.max(np.abs(modes), axis=0, initial=0)
    offset = np.append(bands[:-1], 0)
    x = np.zeros(tuple(offset + bands + 1) + coef.shape[1:], complex)
    z = 0.5 * (coef[1::2] - 1j * coef[2::2])
    for sign, values in ((1, z), (-1, z.conj())):
        keep = sign * modes[:, -1] >= 0
        x[tuple((sign * modes[keep] + offset).T)] = values[keep]
    x[tuple(offset)] = coef[0]
    for a, size in enumerate(spec.sizes):
        T = _axis_functions(size, int(bands[a]))
        if a < spec.n - 1:  # e^{i k x}, k = -b..b
            up = T[1::2] + 1j * T[2::2]
            T = np.concatenate([up[::-1].conj(), T[:1], up])
        else:  # the conjugate half folded in: Re on cos, Im on sin
            T = np.concatenate([T[:1], 2.0 * T[1::2], -2.0 * T[2::2]])
            x = np.concatenate([x.real, x[1:].imag])
        # the sampled axis goes last: the grid axes end in order
        x = (x.reshape(len(T), -1).T @ T).reshape(x.shape[1:] + (size,))
    return x


@dataclass(frozen=True, eq=False)
class DealiasedBasis:
    """Real trig functions below the Nyquist row, tensored with the
    trace-free fiber axes.

    Scalar functions are the constant, then cos and sin of each of `modes`
    in turn (the row layout of `trig_series`); columns are indexed
    scalar-major, fiber-minor, and rows fiber-major (the field layout).
    """

    cache: object
    rank: int
    modes: np.ndarray       # nonzero half-space integer modes, (count, n)

    @property
    def n_scalar(self):
        return 1 + 2 * len(self.modes)

    @property
    def t(self):
        return fiber.tracefree_dim(self.cache.n, self.rank)

    def columns(self):
        """Dense (t * points, dim) matrix of nodal column values."""
        scalars = trig_series(self.cache.spec, self.modes, np.eye(self.n_scalar))
        cols = np.einsum("jx,ab->axjb", scalars.reshape(self.n_scalar, -1), np.eye(self.t))
        return cols.reshape(-1, self.n_scalar * self.t)


@lru_cache(maxsize=None)
def half_modes(bands):
    """Nonzero integer modes with |m_j| <= bands[j], one of each {m, -m} pair,
    as one read-only (count, n) int array, built once per bands tuple.

    The representative is the mode whose first nonzero entry is positive.
    Modes come in lexicographic order, which fixes both the column order of
    the dealiased basis and the draw order of grid-independent test fields.
    """
    bands = np.array(bands, int)
    grid = np.indices(2 * bands + 1).reshape(len(bands), -1).T - bands
    first = grid[np.arange(len(grid)), np.argmax(grid != 0, axis=1)]
    modes = grid[first > 0]
    modes.flags.writeable = False
    return modes


def build_dealiased_basis(cache, rank):
    """The basis of every mode whose index is below Nyquist on each axis."""
    bands = tuple(s // 2 - 1 for s in cache.spec.sizes)
    return DealiasedBasis(cache=cache, rank=rank, modes=half_modes(bands))


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


def mirror_axes(cache):
    """Varying axes the conformal exponent is exactly even in
    (`TrigPoly.is_even_in`): the reflection x_a -> -x_a is an isometry
    there, so every operator and every weight commutes with it."""
    f = cache.exponent
    return tuple(a for a in f.variables if f.is_even_in(a))


# piece -> the (rows, n, t) map M of the gradient X whose image M X the
# Galerkin layer pairs: the maps the exact adjoints of d1, d2 and d3
# transpose, and K0 for the divergence e^{-2f} (-K0 X) (`_build_gram`)
_SPLIT = {"d1": gradients._d1_transpose_structure, "d2": gradients._d2_transpose_structure,
          "d3": gradients._d3_transpose_structure, "divergence": fields._k0}


@dataclass(frozen=True, eq=False)
class Block:
    """One reflection class of one sector of a Galerkin layer.

    `part` is the class under the reflections of the mirror axes, `rows`
    the block's rows in the class (its colours) and `columns` the sector's
    reduced columns in the block, both ascending; the block's spectrum
    counts `multiplicity` times in the full dealiased basis.
    """

    sector: int
    part: int
    rows: np.ndarray
    columns: np.ndarray
    multiplicity: int


@lru_cache(maxsize=None)
def _axis_functions(size, band):
    """(2 band + 1, size): trig functions on one grid axis, the constant,
    then cos(k x) and sin(k x) for k = 1..band; read-only.  Row i is odd
    under x -> -x when i > 0 is even."""
    theta = 2.0 * math.pi * np.arange(size) / size
    k = np.arange(1, band + 1)[:, None]
    out = np.ones((2 * band + 1, size))
    out[1::2] = np.cos(k * theta)
    out[2::2] = np.sin(k * theta)
    out.flags.writeable = False
    return out


def _mirror(data, axis, R):
    """The reflection x_axis -> -x_axis of one field (width, *grid): an
    index flip along that grid axis times the fiber matrix R."""
    size = data.shape[1 + axis]
    return fields._left(R, np.take(data, -np.arange(size) % size, axis=1 + axis), data.ndim - 1)


def _mapped(X, fiber_map):
    """Fiber data X (..., width) under a constant fiber map (rows, width),
    as one product; X itself when there is no map."""
    if fiber_map is None:
        return X
    return (X.reshape(-1, X.shape[-1]) @ fiber_map.T).reshape(X.shape[:-1] + (-1,))


class Galerkin:
    """Galerkin matrices of one (grid, rank) on the dealiased trace-free basis,
    reduced by the translations of the invariant axes and the reflections
    of every axis the metric is even in.

    A sector is a key (k_a) over the invariant axes: the basis columns whose
    modes have |m_a| = k_a there.  Its reduced columns (u, beta) are
    u(x) * prod_a c_a(x_a) (x) e_beta: u runs over the products over the
    varying axes of one trig function per axis (`_axis_functions`), e_beta
    over `fiber.parity_basis`, and c_a is 1 where k_a = 0, cos(k_a x_a)
    where k_a > 0 and beta is even in a, sin(k_a x_a) where it is odd.
    These columns are even under every reflection x_a -> -x_a with k_a > 0;
    the odd columns are their translates by pi/(2 k_a), which commute with
    every operator, so the sector's spectrum is the reduced one counted
    2^#(k_a > 0) times.  Column (u_j, e_beta) is reduced column j * t + beta
    of its sector, and every sector has the same count of them.

    Reflection classes.  On a mirror axis (`mirror_axes`) a reduced column
    has the parity of u there times that of e_beta; the parities on the
    mirror axes split every sector's reduced columns into classes (`part`,
    bit i the parity on the i-th mirror axis), the same in every sector.
    On the invariant axes with k_a = 0 the parity of beta splits each class
    further into blocks (`blocks`).  No reflection-equivariant operator
    couples two blocks.

    Probing.  Colour c sums column c of every class of every sector
    (`_colours`), so there are as many colours as the largest class has
    columns.  A colour's image is scaled by the square root of its weight
    W, split into its class parts by (1 +- R_a*)/2 on each mirror axis
    (`_fold`), R_a* the reflection, and each part is cut into sectors in
    the FFT along the invariant axes.  A class part is determined by its
    values on half of each mirror axis, where a point stands for itself
    and its mirror image.  W is constant along the invariant axes and even
    on the mirror axes, so the matrix of a class of a sector is
    Re(H^H H) / prod N_a over the sector's bins (Parseval), H the cut of
    the class parts, and its blocks are diagonal blocks of it.  Entries
    between classes are not formed: each operator is gated to commute with
    every R_a* on one colour, and the entries between the blocks of a class
    are gated at roundoff.

    Images are real, so the FFT is a half spectrum, the last invariant axis
    the real axis of `numpy.fft.rfftn` (`_sector_bins`).  Sectors with as
    many bins are consecutive in `keys`, one stack and one run of the
    pairing's class matrices.  With no invariant axis the one sector's cut
    is the class parts themselves.

    Operators are applied to a chunk of colours at a time (`_probe`), each
    chunk's images cut at once into stacks preallocated for every colour.
    The four first-order pieces' Grams come from one such stack, of the
    gradient, through each piece's constant fiber map (`_SPLIT`), a run of
    sectors at a time (`_pair`).  Blocks of equal size form a group, and
    every matrix the layer returns (mass, Gram, form) is a list of stacks,
    one per group.  Mass, its reduction and Gram blocks are cached on the
    layer; eigendecompositions are not kept.  Its `plan` (`allocation.plan`)
    shapes its buffers, sizes its chunks and bounds its peak for admission.
    """

    def __init__(self, cache, p):
        spec = cache.spec
        t = fiber.tracefree_dim(cache.n, p)
        self.cache, self.p, self.t = cache, p, t
        self.axes = invariant_axes(cache)
        self.mirrors = mirror_axes(cache)
        self._tables = [_axis_functions(size, size // 2 - 1)
                        for a, size in enumerate(spec.sizes) if a not in self.axes]
        self._width = width = math.prod(len(T) for T in self._tables)
        self._fiber, parity = fiber.parity_basis(cache.n, p)
        self._parity = parity[:, list(self.axes)]
        bands = [size // 2 - 1 for size in spec.sizes]
        # a sector's count of FFT bins doubles with each k_a > 0 off the real
        # (last invariant) axis; sorting by that count makes each group of
        # sectors with as many bins (`_sector_bins`) one contiguous run
        self.keys = sorted(itertools.product(*(range(bands[a] + 1) for a in self.axes)),
                           key=lambda key: sum(k > 0 for k in key[:-1]))
        # the class of reduced column j * t + beta: bit i is its parity on
        # the i-th mirror axis, u_j's there times beta's
        j, beta = np.divmod(np.arange(width * t), t)
        varying = [a for a in range(cache.n) if a not in self.axes]
        index = dict(zip(varying, np.unravel_index(j, [len(T) for T in self._tables])
                         if varying else ()))
        code = np.zeros(width * t, int)
        for i, a in enumerate(self.mirrors):
            J = index[a]
            code |= (((J > 0) & (J % 2 == 0)) ^ (parity[beta, a] == 1)) << i
        self._classes = [np.flatnonzero(code == q) for q in range(2 ** len(self.mirrors))]
        self.colour_count = max(map(len, self._classes))
        # colour c sums column c of every class; -1 where a class has fewer
        self._colour_columns = np.full((self.colour_count, len(self._classes)), -1)
        for q, cols in enumerate(self._classes):
            self._colour_columns[:len(cols), q] = cols
        # a class's blocks in a sector are the parities of its fiber columns
        # on the invariant axes with k_a = 0; they depend only on those axes:
        # per class, the block label of each of its rows and each block's rows
        labels, split = {}, {}
        self.blocks = []
        for s, key in enumerate(self.keys):
            zero = tuple(i for i, k in enumerate(key) if k == 0)
            if zero not in labels:
                code = self._parity[beta][:, list(zero)] @ (1 << np.arange(len(zero)))
                labels[zero] = []
                for cols in self._classes:
                    label = np.unique(code[cols], return_inverse=True)[1]
                    rows = [np.flatnonzero(label == c) for c in range(label.max(initial=-1) + 1)]
                    labels[zero].append((label, [(r, cols[r]) for r in rows]))
            for q, (label, rows) in enumerate(labels[zero]):
                self.blocks += [Block(s, q, r, c, 2 ** (len(key) - len(zero))) for r, c in rows]
                if len(rows) > 1:
                    split[s * len(self._classes) + q] = label
        # the classes of more than one block, as cells (sector * classes +
        # part) of `_pair`, and the masks of their entries between blocks
        self._split = np.array(list(split), int)
        label = np.full((len(split), self.colour_count), -1)
        for row, values in zip(label, split.values()):
            row[:len(values)] = values
        self._cross = ((label[:, :, None] != label[:, None, :])
                       & (label[:, :, None] >= 0) & (label[:, None, :] >= 0))
        sizes = np.array([len(b.columns) for b in self.blocks])
        # blocks of equal size, solved together as one batched pencil: their
        # cells, their rows in their cells and their multiplicities
        self._groups = [np.flatnonzero(sizes == size) for size in sorted(set(sizes.tolist()))]
        self._group_cells = [np.array([self.blocks[b].sector * len(self._classes)
                                       + self.blocks[b].part for b in g]) for g in self._groups]
        self._group_rows = [np.stack([self.blocks[b].rows for b in g]) for g in self._groups]
        self._mult = [np.array([self.blocks[b].multiplicity for b in g]) for g in self._groups]
        # the half spectrum: the last invariant axis keeps bins 0..N/2, and
        # each mirror axis its points 0..N/2
        self._half = tuple(size // 2 + 1 if a in self.mirrors or (self.axes and a == self.axes[-1])
                           else size for a, size in enumerate(spec.sizes))
        self._bins = self._sector_bins()
        self.plan = allocation.plan(self, _SPLIT, _PROBE_BYTES)
        need = self._bytes_before_solve()
        if need > GALERKIN_BYTES_CAP:
            raise SpectralError(
                f"the Galerkin layer would hold {need / 2**20:.0f} MiB before its first "
                f"solve, above the {GALERKIN_BYTES_CAP / 2**20:.0f} MiB cap; shrink the "
                "grid (or the rank) before assembling"
            )
        # per fiber column, the sum over sectors of the invariant axes' factors
        T = [_axis_functions(spec.sizes[a], bands[a]) for a in self.axes]
        self._sums = self._fiber_products(lambda i, odd: T[i][0] + T[i][1 + odd::2].sum(axis=0))
        self._colour_hat = self._probe(lambda phi: phi.data, "s0", t)
        self._mass = self._mass_max = self._reduced = None
        self._grams = {}

    def _sector_bins(self):
        """Sectors grouped by their count of FFT bins (contiguous and in
        order, see `keys`): per group the range of its sector indices, their
        gathers into the half spectrum (sector, bin) and their Parseval
        factors (twice a nonzero bin of the real axis).  A sector keeps the
        bin +k_a of the real axis, +k_a and -k_a of the other invariant
        axes and every index of the (halved) varying axes, in C order."""
        spec, axes = self.cache.spec, self.axes
        keys = np.array(self.keys, int).reshape(len(self.keys), len(axes))
        index, valid = np.zeros((len(keys),) + (1,) * spec.n, int), True
        for a, (size, half) in enumerate(zip(spec.sizes, self._half)):
            view = tuple(-1 if b == a else 1 for b in range(spec.n))
            k = keys[:, axes.index(a), None] if a in axes else np.arange(half)[None]
            if a in axes[:-1]:  # +k_a and -k_a, which is no option of k_a = 0
                valid = valid & np.hstack([k >= 0, k > 0]).reshape((len(k),) + view)
                k = np.hstack([k, -k % size])
            index = index + math.prod(self._half[a + 1:]) * k.reshape((len(k),) + view)
        valid = np.broadcast_to(valid, index.shape)
        # sorted `keys` make each count of k_a > 0 off the real axis a run
        nonzero = np.count_nonzero(keys[:, :-1], axis=1)
        real = keys[:, -1] if axes else np.zeros(1, int)
        factor = np.where(real > 0, 2.0, 1.0) / math.prod(spec.sizes[a] for a in axes)
        return [(range(s[0], s[-1] + 1), index[s][valid[s]].reshape(len(s), -1), factor[s])
                for s in np.split(np.arange(len(keys)), np.flatnonzero(np.diff(nonzero)) + 1)]

    def _fiber_products(self, factor):
        """(t, *grid), of size 1 along the varying axes: per fiber column
        beta, the product over the invariant axes of factor(i, odd), a 1-D
        array along the i-th invariant axis and odd the parity of beta
        there."""
        spec = self.cache.spec
        out = np.ones((self.t,) + tuple(size if a in self.axes else 1
                                        for a, size in enumerate(spec.sizes)))
        for i, a in enumerate(self.axes):
            view = [1] * spec.n
            view[a] = spec.sizes[a]
            for beta in range(self.t):
                out[beta] *= factor(i, self._parity[beta, i]).reshape(view)
        return out

    def _series(self, coef, products):
        """Fields sum over (j, beta) of coef[..., j, beta] u_j products[beta]
        e_beta in trace-free coordinates, (..., t, *grid): u_j the products
        of the varying axes' trig functions, `products` from
        `_fiber_products`.  The varying axes are summed one at a time."""
        lead = coef.shape[:-2]
        x = coef.reshape(lead + tuple(len(T) for T in self._tables) + (self.t,))
        x = np.moveaxis(x, -1, len(lead))
        for T in self._tables:  # each sampled axis goes last: they end in order
            x = np.tensordot(x, T, axes=(len(lead) + 1, 0))
        view = tuple(1 if a in self.axes else size
                     for a, size in enumerate(self.cache.spec.sizes))
        x = x.reshape(lead + (self.t,) + view) * products
        return fields._left(self._fiber, x, self.cache.n)

    def _colours(self, rows, spare=0):
        """The (chunk, t, *grid) colour fields of the colour slice `rows`,
        followed by `spare` zero fields: colour c sums column c of each
        class over every sector, and the sum over sectors of a product is
        the product of the per-axis sums."""
        table = self._colour_columns[rows]
        coef = np.zeros((len(table) + spare, self._width * self.t))
        c, q = np.nonzero(table >= 0)
        coef[c, table[c, q]] = 1.0
        return self._series(coef.reshape(len(coef), -1, self.t), self._sums)

    def _bytes_before_solve(self):
        """The peak by the first solves: the colours' cut and the plan's largest step."""
        held = 8 * self.t * sum(map(math.prod, self.plan.cut))
        return held + max(map(allocation.nbytes, itertools.chain(*self.plan.phases.values())))

    def _fold(self, images, tag):
        """The class parts (classes, chunk, width, *grid) of a chunk of images
        on the rank-p bundle `tag`, each mirror axis halved: on axis a the
        parts are (1 +- R_a*) / 2 of the previous ones, R_a* the index flip
        times the bundle's fiber sign, kept on points 0..N/2 and scaled by
        the root of the count of points each stands for (itself and its
        mirror image), so a plain product of two parts pairs the whole axis."""
        n = self.cache.n
        parts = images[None]
        for a in self.mirrors:
            size = self.cache.spec.sizes[a]
            half = np.arange(size // 2 + 1)
            weight = np.where(half == -half % size, 0.5, math.sqrt(0.5))
            weight = weight.reshape((-1,) + (1,) * (n - 1 - a))
            here = np.take(parts, half, axis=3 + a)
            there = fields._left(self._reflection(tag, a),
                                 np.take(parts, -half % size, axis=3 + a), n)
            parts = np.empty((2 * len(here),) + here.shape[1:])
            np.add(here, there, out=parts[:len(here)])
            np.subtract(here, there, out=parts[len(here):])
            del here, there
            parts *= weight
        return parts

    def _reflection(self, tag, axis):
        """The fiber matrix of x_axis -> -x_axis on the rank-p bundle `tag`."""
        R = fiber.reflection_matrix(self.cache.n, self.p, axis)
        if tag == "s0":
            return R
        slot = np.ones(self.cache.n)
        slot[axis] = -1.0
        return np.kron(np.diag(slot), R)

    def _cut(self, parts, out, rows):
        """Write the half-spectrum cut of a chunk's weighted class parts
        (classes, chunk, width, *grid) into the per-group stacks `out` at
        the colour rows `rows`: row [s, q, c] holds the FFT of class part q
        of colour c's image on sector s's bins, as (bins, parts, width) with
        the parts (real, imaginary), or with no invariant axis the class
        part itself, with one part."""
        classes, count, width = parts.shape[:3]
        if not self.axes:
            out[0][0, :, rows] = np.moveaxis(parts.reshape(classes, count, width, -1, 1), 2, -1)
            return
        hat = np.fft.rfftn(parts, axes=[3 + a for a in self.axes])
        hat = hat.reshape(classes, count, width, math.prod(self._half))
        for stack, (_, g, _) in zip(out, self._bins):
            # the gather (classes, chunk, width, sectors, bins), read as a
            # strided (sectors, classes, chunk, bins, width)
            part = np.take(hat, g, axis=3).transpose(3, 0, 1, 4, 2)
            stack[:, :, rows, :, 0] = part.real
            stack[:, :, rows, :, 1] = part.imag

    def _cut_stacks(self, width):
        """Empty per-group cut stacks for every colour, `width` fiber values
        per point: (sectors, classes, colours, bins, parts, width), in
        `_bins` order, shaped by the plan."""
        return [np.empty(shape + (width,)) for shape in self.plan.cut]

    def _pair(self, left, right, floor, fiber_map=None):
        """Block stacks Re(L^H R) / prod N_a of two cuts, or of their images
        under a constant fiber map `fiber_map` (rows, width), one stack per
        group: a plain product, since the cuts carry the root of their
        weight (`_probe`).  Each class's matrix in each sector (a cell) is
        formed into S, a run of sectors at a time (the plan's `runs`).
        An operator whose entries between two blocks of a cell exceed
        `_SYMMETRY_TOL` of the larger of `floor` (the mass's largest entry,
        so an operator that vanishes to roundoff is measured against the
        basis) and the pairing's largest entry is refused: the reflections
        of the invariant axes keep those images orthogonal.  Each group's
        block stack has the plan's shape.
        """
        classes, count = len(self._classes), self.colour_count
        S = np.empty(self.plan.cells)
        width = left[0].shape[-1] if fiber_map is None else len(fiber_map)
        for (sel, _, factor), L, R, step in zip(self._bins, left, right, self.plan.runs[width]):
            for a in range(0, len(sel), step):
                b = min(a + step, len(sel))
                into = S[(sel.start + a) * classes:(sel.start + b) * classes]
                run = _mapped(L[a:b], fiber_map).reshape(len(into), count, -1)
                other = run if R is L else _mapped(R[a:b], fiber_map).reshape(run.shape)
                np.matmul(run, other.swapaxes(1, 2), out=into)
                into *= np.repeat(factor[a:b], classes)[:, None, None]
                del run, other  # before the next run's map exists
        if self._split.size:
            between = S[self._split][self._cross]
            cross = max(float(between.max(initial=0.0)), -float(between.min(initial=0.0)))
            del between
            scale = max(float(S.max()), -float(S.min()), floor)
            if cross > _SYMMETRY_TOL * scale:
                raise SpectralError(
                    f"entries between reflection classes reach {cross / scale:.3e} of the "
                    f"largest entry, above {_SYMMETRY_TOL:.1e}: the operator does not "
                    "commute with the reflections of the invariant axes"
                )
        out = []
        for shape, cells, rows in zip(self.plan.blocks, self._group_cells, self._group_rows):
            if rows[:, -1].max() < shape[1]:  # whole classes: their cells' leading squares
                out.append(S[cells, :shape[1], :shape[1]])
            else:  # rows first, one row of every block at a time
                out.append(np.empty(shape))
                for i in range(shape[1]):
                    out[-1][:, i] = S[cells[:, None], rows[:, i, None], rows]
        return out

    def _probe(self, apply, tag, width):
        """The per-group cut stacks (`_cut_stacks`) of every colour's image
        under `apply`, a chunk of the plan's size at a time.  `apply` maps a
        batch of colour fields to (chunk, width, *grid) images on the rank-p
        bundle `tag` ("s0" or "cov_s0"); they are scaled by the root of the
        bundle's weight (constant along the invariant axes, even on the
        mirror axes), folded into class parts (`_fold`) and cut.  The last
        chunk carries the last colour's reflection on each mirror axis, and
        its image must be the reflected image to `_SYMMETRY_TOL` (`_gate`):
        the class parts are images of the classes only when the operator
        commutes with the reflections.
        """
        root = np.sqrt(fields.fiber_weight_scalar(self.cache, tag, self.p))
        stacks = self._cut_stacks(width)
        chunk = self.plan.chunk
        for a in range(0, self.colour_count, chunk):
            rows = slice(a, a + chunk)
            gate = self.mirrors if a + chunk >= self.colour_count else ()
            colours = self._colours(rows, len(gate))
            count = len(colours) - len(gate)
            last = colours[count - 1]
            for i, m in enumerate(gate):
                colours[count + i] = _mirror(last, m, self._reflection("s0", m))
            images = apply(TensorField(self.cache, "s0", self.p, colours))
            if gate:
                self._gate(images[count - 1], images[count:], tag,
                           max(float(np.max(np.abs(last))), _TINY))
            images = images[:count]
            images *= root  # in place: the images are the probe's own
            self._cut(self._fold(images, tag), stacks, rows)
            del colours, last, images  # before the next chunk's colours exist
        return stacks

    def _gate(self, image, mirrored, tag, floor):
        """Refuse an operator whose images `mirrored` of the reflections of
        one colour differ from the reflections of its image `image` by more
        than `_SYMMETRY_TOL` of the larger of the image and `floor`."""
        scale = max(float(np.max(np.abs(image))), floor)
        for m, got in zip(self.mirrors, mirrored):
            defect = float(np.max(np.abs(got - _mirror(image, m, self._reflection(tag, m)))))
            if defect > _SYMMETRY_TOL * scale:
                raise SpectralError(
                    f"the image of a reflected colour differs from the reflected image by "
                    f"{defect / scale:.3e} of its largest entry, above {_SYMMETRY_TOL:.1e}: "
                    "the operator does not commute with the reflections of the mirror axes "
                    f"(x{m + 1} here)"
                )

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
        grad = self._probe(lambda phi: fields._merged(fields.gradient(phi).data, n),
                           "cov_s0", n * self.t)
        for piece, structure in _SPLIT.items():
            self._grams[piece] = self._pair(grad, grad, self._mass_max,
                                            fields._slots(structure(n, p)))

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
        """Per-group eigenpairs of the stacked system, solved on each call:
        the kernel counts read only their values, so the layer holds no
        eigenvectors between solves."""
        return self.eigen(self.gram(names))

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
        coef = np.zeros(self._width * self.t)
        coef[b.columns] = coeffs

        def factor(i, odd):
            k, size = key[i], spec.sizes[self.axes[i]]
            if k == 0:
                return np.ones(size)
            # the translate by pi/(2k): cos -> -sin, sin -> cos
            shifted = bool(copy >> moving.index(i) & 1)
            row = _axis_functions(size, size // 2 - 1)[2 * k - 1 + (odd != shifted)]
            return -row if shifted and not odd else row

        data = self._series(coef.reshape(-1, self.t), self._fiber_products(factor))
        return TensorField(self.cache, "s0", self.p, data)

    def lowest_fields(self, names, count):
        """Fields of the `count` lowest eigenpairs of the stacked system, each
        block's eigenpair counted with its multiplicity (its translates),
        from a solve of its own."""
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
    eigenvalues: np.ndarray     # ascending, the whole spectrum
    lambda_max: float
    kernel: KernelCount
    symmetry_defect: float
    residual_max: float


def spectrum(handle: OperatorHandle, galerkin=None):
    """Full eigenvalue study of a handle on the dealiased basis, through
    the Galerkin layer of the handle's grid and rank (`galerkin`, built
    here when not given)."""
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
        eigenvalues=values,
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


def _second_order_symbol(Q):
    """sigma(xi) = gscale G(xi)^T (Q G(xi)) for a constant (n t, n t) matrix Q."""

    def sig(xi, gscale):
        G = _grad_block(xi, len(Q) // np.shape(xi)[-1])
        return gscale * (np.swapaxes(G, -1, -2) @ (Q @ G))

    return sig


# piece -> the constant fiber matrix A (rows, n t) of its symbol A G(xi) on a
# flat torus: the transposed embedding of d1, the flat projectors of d2 and
# d3, and the divergence contraction -K0
_PIECE_SYMBOL = {
    "d1": lambda n, p: fiber.embed_matrix(n, p).T,
    "d2": lambda n, p: fiber.flat_projector_matrices(n, p)[1],
    "d3": lambda n, p: fiber.flat_projector_matrices(n, p)[2],
    "divergence": lambda n, p: -fields._slots(fields._k0(n, p)),
}


def flat_piece_symbols(n, p, names, xi):
    """The principal symbols A G(xi) of the named first-order pieces on a
    flat torus, stacked along the rows, for a covector xi of shape (n,) or
    a stack (..., n) of them."""
    G = _grad_block(xi, fiber.tracefree_dim(n, p))
    return np.concatenate([_PIECE_SYMBOL[name](n, p) @ G for name in names], axis=-2)


# ---------------------------------------------------------------------------
# handle factories
# ---------------------------------------------------------------------------

def d1_star_d1_handle(cache, p):
    """d1* d1, the kernel suite's endomorphism of the trace-free rank-p
    bundle, with symbol gscale G(xi)^T pi_A G(xi), pi_A the flat projector
    onto the first piece."""
    return OperatorHandle(
        name="d1_star_d1", cache=cache, domain_rank=p,
        apply=lambda phi: gradients.d1_exact_adjoint(gradients.d1(phi)),
        symbol=_second_order_symbol(fiber.flat_projector_matrices(cache.n, p)[0]),
    )


# perfbench/selftest.py builds these two after installing its tracer, to
# see a handle capture the wrapped operators; no suite builds or reads them
def gradient_handle(cache, p):
    return OperatorHandle("gradient", cache, p, apply=fields.gradient, symbol=None)


def d1_handle(cache, p):
    return OperatorHandle("d1", cache, p, apply=gradients.d1, symbol=None)
