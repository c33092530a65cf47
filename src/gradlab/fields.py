"""Tensor fields over periodic grids and the first-order operators.

Fields store fiber coordinates per grid point under one of four tags:

    "s"       symmetric rank-p, monomial coordinates, (*grid, sym_dim)
    "s0"      trace-free rank-p in the fixed flat-orthonormal basis,
              (*grid, tracefree_dim)
    "cov_s"   one covariant slot + symmetric part, (*grid, n, sym_dim)
    "cov_s0"  one covariant slot + trace-free part, (*grid, n, tracefree_dim)

The data may carry leading batch axes, (*batch, *grid, *fiber): a stack of
fields on one grid.  Every operator that `gradients.decompose` and the
registry handles of `spectral` reach, both routes of `rough_laplacian` and
of `gradients.weitzenbock_K`, and the projector and Ahlfors oracles of
`gradients` act on each member of a stack independently, with the
arithmetic of a single field; the L2 pairings (`l2_inner`, `l2_norm`) take
single fields only.

Every metric is g = e^{2f} delta, given by its exponent f
(`GeometryCache.exponent`; f = 0 is flat).  There the fiber Gram matrix
in the flat orthonormal basis is a scalar multiple of the identity at
every point, so trace-free storage, diagonal quadrature weights, and
exact-transpose adjoints all stay cheap and exact.  The derivation-side fact making
"s0" storage lossless is that both the coordinate-derivative term and
the connection term of the covariant derivative of a trace-free field
are themselves pointwise trace-free for conformal metrics.

The connection is structural.  For g = e^{2f} delta the Christoffel
symbols are Gamma^k_ij = delta_ki h_j + delta_kj h_i - delta_ij h_k with
h = df = `GeometryCache.conformal_h`, sampled exactly from f, so every
connection term is sum_l h_l(x) C_l with constant fiber matrices C_l: one
matmul over the fiber axes, then a contraction with h.  Flat metrics have
h = None and skip the connection entirely.  Coordinate derivatives come
from `geometry.differentiate` (a dense circulant matrix, or the fd4
stencil).

Every other fiber contraction is one matmul too: the field's (n, t) fiber
axes are merged (`_merged`) and the cached (rows, n, t) structure tensor
is viewed as a (rows, n * t) matrix (`_slots`), so each contraction runs
in BLAS with no second cached layout.  The transpose of the gradient
differentiates covariant slot i along axis i, so it takes its input slot
by slot, each slot a contiguous array: `differentiate` would copy a
strided X[..., i, :] view.

Adjoints come in two flavors, kept deliberately separate: exact
weighted transposes of the discrete operators (machine-precision
pairings) and independent analytic formulas (pairings agree only up to
discretization error).  Checks never collapse the two.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fiber
from .geometry import GeometryCache, differentiate


class FieldError(RuntimeError):
    """Raised for invalid tags, ranks, shapes or routes."""


_TAGS = ("s", "s0", "cov_s", "cov_s0")


def fiber_shape(n, tag, rank):
    """Per-point shape of a field stored under `tag`: (d,) for a symmetric
    tensor, (n, d) with a leading covariant slot; d counts trace-free
    coordinates for the s0 tags and monomial coordinates otherwise."""
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
        expect = self.cache.spec.shape + fiber_shape(self.cache.n, self.tag, self.rank)
        if self.data.shape[self.data.ndim - len(expect):] != expect:
            raise FieldError(
                f"data shape {self.data.shape} does not match {expect} for tag "
                f"{self.tag!r}, after any leading batch axes"
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
        return self.data @ B.T

    def __add__(self, other):
        self._compat(other)
        return TensorField(self.cache, self.tag, self.rank, self.data + other.data)

    def __sub__(self, other):
        self._compat(other)
        return TensorField(self.cache, self.tag, self.rank, self.data - other.data)

    def __mul__(self, scalar):
        return TensorField(self.cache, self.tag, self.rank, self.data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return TensorField(self.cache, self.tag, self.rank, -self.data)

    def _compat(self, other):
        if self.cache is not other.cache or self.tag != other.tag or self.rank != other.rank:
            raise FieldError("field mismatch: same cache, tag, and rank required")


def field_from_monomial(cache, rank, mono, tag="s0"):
    """Wrap monomial-coordinate samples; tag 's0' projects trace parts away."""
    if tag == "s":
        return TensorField(cache, "s", rank, mono)
    if tag == "s0":
        _, C = fiber.tracefree_basis(cache.n, rank)
        return TensorField(cache, "s0", rank, mono @ C.T)
    raise FieldError(f"unsupported construction tag {tag!r}")


def to_tracefree(phi: TensorField):
    if phi.tag == "s0":
        return phi
    if phi.tag != "s":
        raise FieldError("only plain symmetric fields can be compressed")
    _, C = fiber.tracefree_basis(phi.n, phi.rank)
    return TensorField(phi.cache, "s0", phi.rank, phi.data @ C.T)


# ---------------------------------------------------------------------------
# conformal bookkeeping
# ---------------------------------------------------------------------------

def _scale(values, factor, extra_axes):
    if factor is None:
        return values
    return values * factor.reshape(factor.shape + (1,) * extra_axes)


def _covariant_rank(tag, rank):
    return rank + (1 if tag.startswith("cov") else 0)


def fiber_weight_scalar(cache, tag, rank):
    """Scalar spatial weight: cell volume * sqrt(det g) * e^{-2qf}.

    q is the total covariant rank; the remaining fiber weight is the
    identity for trace-free tags and the multiplicity diagonal for
    monomial tags.
    """
    q = _covariant_rank(tag, rank)
    w = cache.weights
    factor = cache.conformal_factor(-2.0 * q)
    return w if factor is None else w * factor


def l2_inner(a: TensorField, b: TensorField):
    a._compat(b)
    if a.batch_shape or b.batch_shape:
        raise FieldError("l2_inner pairs single fields, not batches")
    w = fiber_weight_scalar(a.cache, a.tag, a.rank)
    prod = a.data * b.data
    if a.tag in ("s", "cov_s"):
        prod *= fiber.multiplicities(a.n, a.rank)
    # one weighted dot over the grid points, then the fiber sum
    return float(np.sum(w.ravel() @ prod.reshape(w.size, -1)))


def l2_norm(a: TensorField):
    return float(np.sqrt(max(l2_inner(a, a), 0.0)))


# ---------------------------------------------------------------------------
# cached conjugated structure tensors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _q0(n, p):
    """Slot-replacement tensor conjugated into the trace-free basis."""
    Q = fiber.slot_replace_tensor(n, p)
    B, C = fiber.tracefree_basis(n, p)
    return np.ascontiguousarray(np.einsum("aA,AjkB,Bb->ajkb", C, Q, B))


@lru_cache(maxsize=None)
def _k0(n, p):
    """Covariant-slot contraction conjugated into trace-free bases."""
    Kc = fiber.div_contract_tensor(n, p)
    Bp, _ = fiber.tracefree_basis(n, p)
    _, Cl = fiber.tracefree_basis(n, p - 1)
    return np.ascontiguousarray(np.einsum("bB,BiA,Aa->bia", Cl, Kc, Bp))


@lru_cache(maxsize=None)
def _sym_insert_expanded(n, p):
    """Full symmetrization of (i, trace-free rank p) into monomial rank p+1."""
    Sm = fiber.sym_insert_cov_tensor(n, p)
    Bp, _ = fiber.tracefree_basis(n, p)
    return np.ascontiguousarray(np.einsum("JiA,Aa->Jia", Sm, Bp))


def _slots(T):
    """A cached (rows, n, cols) structure tensor viewed as (rows, n * cols)."""
    return T.reshape(len(T), -1)


def _merged(X):
    """Fiber data (..., n, t) with its two fiber axes merged, (..., n * t)."""
    return X.reshape(X.shape[:-2] + (-1,))


def _sym_apply(n, p, X):
    """Monomial rank p+1 symmetrization of a trace-free gradient X (..., i, a)."""
    return _merged(X) @ _slots(_sym_insert_expanded(n, p)).T


@lru_cache(maxsize=None)
def _connection_matrix(n, p, tracefree, rows, cols):
    """Constant fiber matrix of the conformal connection term.

    With Gamma^k_ij = delta_ki h_j + delta_kj h_i - delta_ij h_k, the
    symmetric-slot term sum_jk Gamma^k_ij Q[a,j,k,b] equals sum_l h_l
    C[l,i,a,b] with C[l,i,a,b] = Q[a,l,i,b] + delta_li sum_j Q[a,j,j,b]
    - Q[a,i,l,b]; Q is the slot-replacement tensor in the trace-free or
    the monomial basis.  C is returned as a matrix with the `rows` axes
    of "liab" first and the `cols` axes second.
    """
    Q = _q0(n, p) if tracefree else fiber.slot_replace_tensor(n, p)
    C = np.einsum("alib->liab", Q) - np.einsum("ailb->liab", Q)
    C[np.arange(n), np.arange(n)] += np.einsum("ajjb->ab", Q)
    M = np.einsum(f"liab->{rows}{cols}", C)
    return np.ascontiguousarray(M.reshape(math.prod(M.shape[: len(rows)]), -1))


def _contract_h(h, Y):
    """sum_l h_l Y[..., l, :] for Y of shape (..., n, k)."""
    out = h[..., 0, None] * Y[..., 0, :]
    for l in range(1, h.shape[-1]):
        out += h[..., l, None] * Y[..., l, :]
    return out


def _connection(h, M, v, fiber_ndim):
    """sum_l h_l (v @ M)_l: one matmul over the trailing `fiber_ndim` axes
    of v, then the contraction with h.  Output fiber axes are flattened."""
    lead = v.shape[: v.ndim - fiber_ndim]
    return _contract_h(h, (v.reshape(lead + (-1,)) @ M).reshape(lead + (h.shape[-1], -1)))


def _slot_connection(h, M, slots):
    """`_connection` of (..., n, t) data given slot by slot, slots[i] =
    X[..., i, :]: the (i, a) rows of M are applied one slot at a time."""
    n = len(slots)
    Mi = M.reshape(n, slots[0].shape[-1], -1)
    Y = slots[0] @ Mi[0]
    for i in range(1, n):
        Y += slots[i] @ Mi[i]
    return _contract_h(h, Y.reshape(Y.shape[:-1] + (n, -1)))


# ---------------------------------------------------------------------------
# gradient (covariant derivative)
# ---------------------------------------------------------------------------

def _grad_apply(cache, p, c, tracefree=True, slot_axis=-2):
    """The covariant derivative of fiber data c, with its covariant slot
    at `slot_axis`: -2 for the (..., n, t) field layout, 0 for slot-first
    data whose slots are contiguous."""
    spec = cache.spec
    n = spec.n
    batch = c.ndim - n - 1
    out = np.stack([differentiate(c, i, spec, cache.method, batch) for i in range(n)],
                   axis=slot_axis)
    h = cache.conformal_h
    if h is not None:
        M = _connection_matrix(n, p, tracefree, "b", "lia")
        conn = _connection(h, M, c, 1).reshape(c.shape[:-1] + (n, -1))
        out -= np.moveaxis(conn, -2, slot_axis)
    return out


def _grad_s0_transpose(cache, p, slots):
    """Transpose of `_grad_apply` on trace-free data, given slot by slot:
    slots[i] is the contiguous (..., t) covariant slot i."""
    spec = cache.spec
    n = spec.n
    batch = slots[0].ndim - n - 1
    out = -sum(
        differentiate(slots[i], i, spec, cache.method, batch) for i in range(n)
    )
    h = cache.conformal_h
    if h is not None:
        out -= _slot_connection(h, _connection_matrix(n, p, True, "ia", "lb"), slots)
    return out


def _slot_first_matmul(y, S):
    """y @ _slots(S) for a cached (rows, n, t) structure tensor S, returned
    slot-first, shape (n, ..., t), so that each slot is contiguous."""
    rows, n, t = S.shape
    out = np.matmul(y.reshape(-1, rows), np.moveaxis(S, 1, 0))
    return out.reshape((n,) + y.shape[:-1] + (t,))


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
    cache, p = X.cache, X.rank
    w_cod = fiber_weight_scalar(cache, "cov_s0", p)[..., None]
    w_dom = fiber_weight_scalar(cache, "s0", p)
    Z = _grad_s0_transpose(cache, p, [X.data[..., i, :] * w_cod for i in range(X.n)])
    return TensorField(cache, "s0", p, Z / w_dom[..., None])


# ---------------------------------------------------------------------------
# divergence and symmetrized derivative
# ---------------------------------------------------------------------------

def _contract_apply(cache, p, X):
    out = _merged(X) @ -_slots(_k0(cache.n, p)).T
    return _scale(out, cache.conformal_factor(-2.0), 1)


def _contract_transpose(cache, p, y):
    """Transpose of `_contract_apply`, slot-first (`_slot_first_matmul`)."""
    y = _scale(y, cache.conformal_factor(-2.0), 1)
    return _slot_first_matmul(y, -_k0(cache.n, p))


def divergence(phi: TensorField):
    """(delta phi) = minus the metric contraction of the covariant derivative
    over the derivative slot and the first symmetric slot.

    Trace-free input gives trace-free output; plain symmetric input is
    also supported (output rank p-1, tag 's')."""
    if phi.rank < 1:
        raise FieldError("divergence needs rank >= 1")
    if phi.tag == "s0":
        X = _grad_apply(phi.cache, phi.rank, phi.data)
        out = _contract_apply(phi.cache, phi.rank, X)
        return TensorField(phi.cache, "s0", phi.rank - 1, out)
    if phi.tag == "s":
        cache, p, n = phi.cache, phi.rank, phi.n
        X = gradient(phi).data  # (..., i, A) monomial
        out = _merged(X) @ -_slots(fiber.div_contract_tensor(n, p)).T
        out = _scale(out, cache.conformal_factor(-2.0), 1)
        return TensorField(cache, "s", p - 1, out)
    raise FieldError("divergence expects an 's' or 's0' field")


def divergence_exact_adjoint(psi: TensorField):
    """Exact weighted adjoint of `divergence`, rank p-1 -> rank p."""
    if psi.tag != "s0":
        raise FieldError("divergence_exact_adjoint expects an 's0' field")
    cache = psi.cache
    p = psi.rank + 1
    w_cod = fiber_weight_scalar(cache, "s0", p - 1)
    w_dom = fiber_weight_scalar(cache, "s0", p)
    Z = _grad_s0_transpose(
        cache, p, _contract_transpose(cache, p, psi.data * w_cod[..., None])
    )
    return TensorField(cache, "s0", p, Z / w_dom[..., None])


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


def sym_derivative_exact_adjoint(omega: TensorField):
    """Exact weighted adjoint of `sym_derivative`, rank p+1 -> rank p."""
    if omega.tag != "s":
        raise FieldError("sym_derivative_exact_adjoint expects an 's' field")
    cache, p = omega.cache, omega.rank - 1
    if p < 0:
        raise FieldError("rank mismatch")
    w_cod = fiber_weight_scalar(cache, "s", p + 1)
    w_dom = fiber_weight_scalar(cache, "s0", p)
    y = omega.data * fiber.multiplicities(cache.n, p + 1) * w_cod[..., None]
    Z = _grad_s0_transpose(cache, p, _slot_first_matmul(y, _sym_insert_expanded(cache.n, p)))
    return TensorField(cache, "s0", p, Z / w_dom[..., None])


# ---------------------------------------------------------------------------
# rough Laplacian, two independent routes
# ---------------------------------------------------------------------------

def rough_laplacian(phi: TensorField, route="adjoint"):
    """Connection Laplacian nabla* nabla.

    route 'adjoint': exact weighted transpose of the discrete gradient.
    route 'formula': second covariant derivative contracted with the
    inverse metric, an independent discretization.
    """
    if phi.tag != "s0":
        raise FieldError("rough_laplacian expects an 's0' field")
    if route == "adjoint":
        return gradient_adjoint(gradient(phi))
    if route != "formula":
        raise FieldError(f"unknown route {route!r}")
    cache, p, n = phi.cache, phi.rank, phi.n
    spec = cache.spec
    batch = len(phi.batch_shape)
    X = _grad_apply(cache, p, phi.data, slot_axis=0)  # (j, ..., a)
    # sum_i (nabla_i X)_{i, J}: derivative, covariant-slot and symmetric-slot terms
    out = -sum(
        differentiate(X[i], i, spec, cache.method, batch) for i in range(n)
    )
    h = cache.conformal_h
    if h is not None:
        # the covariant slot adds sum_i Gamma^k_ii = (2 - n) h_k, which is
        # (2 - n) times the identity in the (i, b) x (l, a) layout
        M = _connection_matrix(n, p, True, "ib", "la")
        out += _slot_connection(h, M + (2.0 - n) * np.eye(len(M)), X)
    out = _scale(out, cache.conformal_factor(-2.0), 1)
    return TensorField(cache, "s0", p, out)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def max_trace_residual(phi: TensorField):
    """Max pointwise metric-trace magnitude of a field that claims S_0."""
    if phi.rank < 2:
        return 0.0
    mono = phi.monomial()
    Tm = fiber.trace_matrix(phi.n, phi.rank)
    tr = mono @ Tm.T
    factor = phi.cache.conformal_factor(-2.0)
    if factor is not None:
        tr = tr * factor.reshape(factor.shape + (1,) * (tr.ndim - factor.ndim))
    return float(np.max(np.abs(tr)))

