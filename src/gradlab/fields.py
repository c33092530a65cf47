"""Tensor fields over periodic grids and the first-order operators.

Fields store fiber coordinates per grid point under one of four tags:

    "s"       symmetric rank-p, monomial coordinates, (sym_dim, *grid)
    "s0"      trace-free rank-p in the fixed flat-orthonormal basis,
              (tracefree_dim, *grid)
    "cov_s"   one covariant slot + symmetric part, (n, sym_dim, *grid)
    "cov_s0"  one covariant slot + trace-free part, (n, tracefree_dim, *grid)

Array convention: fiber axes first, grid axes last.  The data may carry
leading batch axes, (*batch, *fiber, *grid): a stack of fields on one
grid.  So a constant fiber map S is one left product S @ data viewed as
(..., fiber, points), a gradient's covariant slot i is the contiguous
block data[..., i, :, *grid], and every derivative runs on contiguous grid
lines (`geometry.differentiate`).  Every operator that
`gradients.decompose` and `spectral.d1_star_d1_handle` reach,
`gradients.weitzenbock_K` and its oracle `gradients.curvature_action`, and
the projector and Ahlfors oracles of `gradients` act on each member of a
stack independently, with the arithmetic of a single field; the L2
pairings (`l2_inner`, `l2_norm`) take single fields only.

Every metric is g = e^{2f} delta, given by its exponent f
(`GeometryCache.exponent`; f = 0 is flat).  There the fiber Gram matrix
in the flat orthonormal basis is a scalar multiple of the identity at
every point, so trace-free storage, diagonal quadrature weights, and
exact-transpose adjoints all stay cheap and exact.  An L2 pairing is one
numpy einsum reduction of the two data arrays, with the quadrature weight
broadcast over the grid; on a flat metric
(`GeometryCache.conformal_factor` is None) every weight is the cell
volume, which multiplies the plain sum of products, and the two weights of
an exact adjoint cancel.  No pairing goes through BLAS, so each is the
same at every thread count.  The
derivation-side fact making "s0" storage lossless is that both the
coordinate-derivative term and the connection term of the covariant
derivative of a trace-free field are themselves pointwise trace-free for
conformal metrics.

The connection is structural.  For g = e^{2f} delta the Christoffel
symbols are Gamma^k_ij = delta_ki h_j + delta_kj h_i - delta_ij h_k with
h = df (`GeometryCache.h`), sampled exactly from f, so every connection
term is sum_l h_l(x) C[l] with one cached constant fiber tensor C
(`_connection_tensor`).  h_l is exactly 0 on every axis f does not depend
on, so the sum runs over the axes it does (`TrigPoly.variables`): per
axis one left product by C[l], scaled by h_l in place and subtracted.  A
flat metric depends on no axis, and the sum is empty.  Coordinate
derivatives come from `geometry.differentiate` (a dense circulant matrix),
each written straight into its slot of the gradient.

Every other fiber contraction is one left product too (`_left`): the
cached (rows, n, t) structure tensor is viewed as a (rows, n * t) matrix
(`_slots`) and the field's (n, t) fiber axes are merged, so each
contraction runs in BLAS with no second cached layout.  The transpose of
the gradient differentiates covariant slot i along axis i, and reads each
slot where it lies.

Each operator has one implementation here.  Adjoints are exact weighted
transposes of the discrete operators (machine-precision pairings).  The
independent analytic formulas they are checked against agree only up to
discretization error; the identity suite forms them, and the formula route
of the rough Laplacian (the second covariant derivative contracted with
the inverse metric) lives with the tests as
`testlib.rough_laplacian_formula`.  Checks never collapse the two.  Every
exact adjoint into rank p ends in the same weighted gradient transpose,
Gᵀ(w slots) / w_dom (`_weighted_grad_transpose`, Gᵀ alone on a flat
metric): `gradient_adjoint`
here, and the adjoints of d1, d2 and d3 in `gradients`, which fold the
transposes of their fiber maps into one gradient-shaped input first, so
that each adjoint differentiates n times.  The tests keep the unfused
compositions, with exact adjoints of the divergence and the symmetrized
derivative, as the reference.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fiber
from .geometry import GeometryCache, differentiate


class FieldError(RuntimeError):
    """Raised for invalid tags, ranks, shapes or routes."""


_TAGS = ("s", "s0", "cov_s", "cov_s0")


@lru_cache(maxsize=None)
def fiber_shape(n, tag, rank):
    """Per-point shape of a field stored under `tag`: (d,) for a symmetric
    tensor, (n, d) with a leading covariant slot; d counts trace-free
    coordinates for the s0 tags and monomial coordinates otherwise.  One
    tuple per (n, tag, rank)."""
    d = fiber.tracefree_dim(n, rank) if "s0" in tag else fiber.sym_dim(n, rank)
    return (n, d) if tag.startswith("cov") else (d,)


@dataclass(frozen=True, eq=False)
class TensorField:
    """Sampled section: fiber coordinates at every grid point."""

    cache: GeometryCache
    tag: str
    rank: int
    data: np.ndarray

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise FieldError(f"unknown storage tag {self.tag!r}")
        if self.rank < 0:
            raise FieldError("rank must be >= 0")
        expect = fiber_shape(self.cache.n, self.tag, self.rank) + self.cache.spec.shape
        if self.data.shape[self.data.ndim - len(expect):] != expect:
            raise FieldError(
                f"data shape {self.data.shape} does not match {expect} for tag "
                f"{self.tag!r} (fiber axes before the grid axes), after any leading "
                "batch axes"
            )

    @property
    def n(self):
        return self.cache.n

    @property
    def batch_shape(self):
        """Shape of the leading batch axes; () for a single field."""
        fiber_ndim = 2 if self.tag.startswith("cov") else 1
        return self.data.shape[: self.data.ndim - self.n - fiber_ndim]

    def monomial(self):
        """Coordinates in the monomial basis, expanding trace-free storage."""
        if self.tag in ("s", "cov_s"):
            return self.data
        B, _ = fiber.tracefree_basis(self.n, self.rank)
        return _left(B, self.data, self.n)

    def __add__(self, other):
        self._compat(other)
        return TensorField(self.cache, self.tag, self.rank, self.data + other.data)

    def __sub__(self, other):
        self._compat(other)
        return TensorField(self.cache, self.tag, self.rank, self.data - other.data)

    def __mul__(self, scalar):
        return TensorField(self.cache, self.tag, self.rank, self.data * float(scalar))

    __rmul__ = __mul__

    def _compat(self, other):
        if self.cache is not other.cache or self.tag != other.tag or self.rank != other.rank:
            raise FieldError("field mismatch: same cache, tag, and rank required")


def field_from_monomial(cache, rank, mono):
    """The trace-free field of monomial-coordinate samples, traces projected away."""
    _, C = fiber.tracefree_basis(cache.n, rank)
    return TensorField(cache, "s0", rank, _left(C, mono, cache.n))


def to_tracefree(phi: TensorField):
    if phi.tag == "s0":
        return phi
    if phi.tag != "s":
        raise FieldError("only plain symmetric fields can be compressed")
    _, C = fiber.tracefree_basis(phi.n, phi.rank)
    return TensorField(phi.cache, "s0", phi.rank, _left(C, phi.data, phi.n))


# ---------------------------------------------------------------------------
# conformal bookkeeping
# ---------------------------------------------------------------------------

def _scale(values, factor):
    """values times a grid array `factor`, broadcast over the leading axes;
    values itself when there is no factor (a flat metric)."""
    return values if factor is None else values * factor


def _covariant_rank(tag, rank):
    return rank + (1 if tag.startswith("cov") else 0)


def _weight_factor(cache, tag, rank):
    """e^{-2qf}, q the total covariant rank, or None on a flat metric, where
    every weight is the cell volume."""
    return cache.conformal_factor(-2.0 * _covariant_rank(tag, rank))


def fiber_weight_scalar(cache, tag, rank):
    """Scalar spatial weight: cell volume * sqrt(det g) * e^{-2qf}.

    q is the total covariant rank; the remaining fiber weight is the
    identity for trace-free tags and the multiplicity diagonal for
    monomial tags.
    """
    w = cache.weights
    factor = _weight_factor(cache, tag, rank)
    return w if factor is None else w * factor


def l2_inner(a: TensorField, b: TensorField):
    """The L2 pairing of two single fields: one numpy einsum reduction of
    the products of the data along the grid lines of the first axis, with a
    monomial fiber's multiplicities and, on a conformal metric, the
    quadrature weight broadcast over the grid, then the pairwise sum of the
    per-line sums; on a flat metric, where every weight is the cell volume,
    that number times the sum.  No BLAS dot is taken, so the pairing is the
    same at every thread count."""
    a._compat(b)
    if a.batch_shape or b.batch_shape:
        raise FieldError("l2_inner pairs single fields, not batches")
    spec = a.cache.spec
    lines = (spec.sizes[0], spec.num_points // spec.sizes[0])
    width = a.data.shape[a.data.ndim - a.n - 1]
    operands = [X.reshape((-1, width) + lines) for X in (a.data, b.data)]
    subscripts = "iarx,iarx"
    if a.tag in ("s", "cov_s"):
        operands.append(fiber.multiplicities(a.n, a.rank))
        subscripts += ",a"
    if _weight_factor(a.cache, a.tag, a.rank) is None:
        return float(spec.cell_volume * np.einsum(subscripts + "->iar", *operands).sum())
    operands.append(fiber_weight_scalar(a.cache, a.tag, a.rank).reshape(lines))
    return float(np.einsum(subscripts + ",rx->iar", *operands).sum())


def l2_norm(a: TensorField):
    return float(np.sqrt(max(l2_inner(a, a), 0.0)))


# ---------------------------------------------------------------------------
# cached conjugated structure tensors
# ---------------------------------------------------------------------------

@fiber._frozen_cache
def _q0(n, p):
    """Slot-replacement tensor conjugated into the trace-free basis."""
    Q = fiber.slot_replace_tensor(n, p)
    B, C = fiber.tracefree_basis(n, p)
    t = len(C)
    return ((C @ Q.reshape(len(Q), -1)).reshape(-1, len(B)) @ B).reshape(t, n, n, t)


@fiber._frozen_cache
def _k0(n, p):
    """Covariant-slot contraction conjugated into trace-free bases."""
    Kc = fiber.div_contract_tensor(n, p)
    Bp, _ = fiber.tracefree_basis(n, p)
    _, Cl = fiber.tracefree_basis(n, p - 1)
    return (Cl @ (Kc.reshape(-1, len(Bp)) @ Bp).reshape(len(Kc), -1)).reshape(len(Cl), n, -1)


@fiber._frozen_cache
def _sym_insert_expanded(n, p):
    """Full symmetrization of (i, trace-free rank p) into monomial rank p+1."""
    Sm = fiber.sym_insert_cov_tensor(n, p)
    Bp, _ = fiber.tracefree_basis(n, p)
    return np.ascontiguousarray(np.einsum("JiA,Aa->Jia", Sm, Bp))


def _slots(T):
    """A cached (rows, n, cols) structure tensor viewed as (rows, n * cols)."""
    return T.reshape(len(T), -1)


def _left(S, X, n, axes=1, fiber_out=None):
    """A constant fiber map S (rows, cols) applied to data X (..., *fiber,
    *grid) on an n-dimensional grid: its last `axes` fiber axes, merged into
    cols, times S as one left product per leading index, (..., rows, *grid),
    or (..., *fiber_out, *grid)."""
    lead = X.shape[:X.ndim - n - axes]
    grid = X.shape[X.ndim - n:]
    out = S @ X.reshape(lead + (S.shape[1], -1))
    return out.reshape(lead + (fiber_out or (len(S),)) + grid)


def _merged(X, n):
    """Gradient-shaped data (..., n, t, *grid) with its two fiber axes
    merged, (..., n * t, *grid), a view."""
    return X.reshape(X.shape[:X.ndim - n - 2] + (-1,) + X.shape[X.ndim - n:])


def _slot(X, i, n):
    """Covariant slot i of gradient-shaped data X (..., n, t, *grid), a view."""
    return X[(Ellipsis, i) + (slice(None),) * (n + 1)]


def _sym_apply(n, p, X):
    """Monomial rank p+1 symmetrization of a trace-free gradient X (..., i, a, *grid)."""
    return _left(_slots(_sym_insert_expanded(n, p)), X, n, 2)


@fiber._frozen_cache
def _connection_tensor(n, p, tracefree):
    """Constant fiber tensor C[l, i, a, b] of the conformal connection term.

    With Gamma^k_ij = delta_ki h_j + delta_kj h_i - delta_ij h_k, the
    symmetric-slot term sum_jk Gamma^k_ij Q[a,j,k,b] equals sum_l h_l
    C[l,i,a,b] with C[l,i,a,b] = Q[a,l,i,b] + delta_li sum_j Q[a,j,j,b]
    - Q[a,i,l,b]; Q is the slot-replacement tensor in the trace-free or
    the monomial basis.
    """
    Q = _q0(n, p) if tracefree else fiber.slot_replace_tensor(n, p)
    C = np.einsum("alib->liab", Q) - np.einsum("ailb->liab", Q)
    C[np.arange(n), np.arange(n)] += np.einsum("ajjb->ab", Q)
    return np.ascontiguousarray(C)


# ---------------------------------------------------------------------------
# gradient (covariant derivative)
# ---------------------------------------------------------------------------

def _grad_apply(cache, p, c, tracefree=True):
    """The covariant derivative of fiber data c (..., t, *grid), in the
    (..., n, t, *grid) field layout: each coordinate derivative is written
    into its slot."""
    spec = cache.spec
    n = spec.n
    width = c.shape[c.ndim - n - 1]
    out = np.empty(c.shape[:c.ndim - n - 1] + (n,) + c.shape[c.ndim - n - 1:])
    for i in range(n):
        differentiate(c, i, spec, out=_slot(out, i, n))
    # h_l = 0 on every axis f does not depend on: a flat metric adds nothing
    for l in cache.exponent.variables:
        C = _connection_tensor(n, p, tracefree)[l]
        Y = _left(C.reshape(-1, width), c, n, fiber_out=(n, width))
        Y *= cache.h[l]
        out -= Y
    return out


def _grad_s0_transpose(cache, p, X):
    """Transpose of `_grad_apply` on trace-free data, applied to
    gradient-shaped data X (..., n, t, *grid), each slot read where it lies."""
    spec = cache.spec
    n = spec.n
    out = differentiate(_slot(X, 0, n), 0, spec)
    if n > 1:
        term = np.empty_like(out)
        for i in range(1, n):
            out += differentiate(_slot(X, i, n), i, spec, out=term)
    np.negative(out, out=out)
    for l in cache.exponent.variables:
        C = _connection_tensor(n, p, True)[l]
        Y = _left(C.reshape(-1, C.shape[-1]).T, X, n, 2)
        Y *= cache.h[l]
        out -= Y
    return out


def _weighted_grad_transpose(cache, p, X):
    """Gᵀ(w_cod X) / w_dom, the last step of every exact adjoint into
    trace-free rank p: G is `_grad_apply`, w_cod the weight of covariant
    rank p + 1 and w_dom that of rank p.  X is gradient-shaped, (..., n, t,
    *grid); on a conformal metric it is weighted in place.  On a flat
    metric both weights are the cell volume and cancel, so this is Gᵀ alone
    and X is left as it is."""
    if _weight_factor(cache, "s0", p) is None:
        return _grad_s0_transpose(cache, p, X)
    X *= fiber_weight_scalar(cache, "cov_s0", p)
    out = _grad_s0_transpose(cache, p, X)
    out /= fiber_weight_scalar(cache, "s0", p)
    return out


def gradient(phi: TensorField):
    """Covariant derivative; trace-free input stays trace-free pointwise."""
    if phi.tag not in ("s", "s0"):
        raise FieldError("gradient expects an 's' or 's0' field")
    tracefree = phi.tag == "s0"
    X = _grad_apply(phi.cache, phi.rank, phi.data, tracefree)
    return TensorField(phi.cache, "cov_s0" if tracefree else "cov_s", phi.rank, X)


def gradient_adjoint(X: TensorField):
    """Exact weighted adjoint of `gradient` on trace-free storage."""
    if X.tag != "cov_s0":
        raise FieldError("gradient_adjoint expects a 'cov_s0' field")
    # the slots are read where they lie; a conformal weight needs a copy,
    # which the transpose weights in place
    data = X.data if X.cache.is_flat else X.data.copy()
    return TensorField(X.cache, "s0", X.rank, _weighted_grad_transpose(X.cache, X.rank, data))


# ---------------------------------------------------------------------------
# divergence and symmetrized derivative
# ---------------------------------------------------------------------------

def _contract_apply(cache, p, X, tracefree=True):
    K = _k0(cache.n, p) if tracefree else fiber.div_contract_tensor(cache.n, p)
    out = _left(-_slots(K), X, cache.n, 2)
    return _scale(out, cache.conformal_factor(-2.0))


def divergence(phi: TensorField):
    """(delta phi) = minus the metric contraction of the covariant derivative
    over the derivative slot and the first symmetric slot.

    Trace-free input gives trace-free output; plain symmetric input is
    also supported (output rank p-1, tag 's')."""
    if phi.rank < 1:
        raise FieldError("divergence needs rank >= 1")
    if phi.tag not in ("s", "s0"):
        raise FieldError("divergence expects an 's' or 's0' field")
    tracefree = phi.tag == "s0"
    X = _grad_apply(phi.cache, phi.rank, phi.data, tracefree)
    out = _contract_apply(phi.cache, phi.rank, X, tracefree)
    return TensorField(phi.cache, phi.tag, phi.rank - 1, out)


def sym_derivative(phi: TensorField):
    """Full symmetrization of the covariant derivative, rank p -> p+1.

    The output is symmetric but not trace-free; the trace-free part is
    what the first-order gradient construction extracts later.
    """
    if phi.tag != "s0":
        raise FieldError("sym_derivative expects an 's0' field")
    cache, p = phi.cache, phi.rank
    X = _grad_apply(cache, p, phi.data)
    return TensorField(cache, "s", p + 1, _sym_apply(cache.n, p, X))


# ---------------------------------------------------------------------------
# rough Laplacian
# ---------------------------------------------------------------------------

def rough_laplacian(phi: TensorField):
    """Connection Laplacian nabla* nabla: the exact weighted transpose of
    the discrete gradient applied to the gradient."""
    if phi.tag != "s0":
        raise FieldError("rough_laplacian expects an 's0' field")
    return gradient_adjoint(gradient(phi))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def max_trace_residual(phi: TensorField):
    """Max pointwise metric-trace magnitude of a field that claims S_0."""
    if phi.rank < 2:
        return 0.0
    tr = _left(fiber.trace_matrix(phi.n, phi.rank), phi.monomial(), phi.n)
    tr = _scale(tr, phi.cache.conformal_factor(-2.0))
    return float(np.max(np.abs(tr)))

