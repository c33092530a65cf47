"""Test-only helpers: reference constructions that no suite, command or
script of the package uses, so they live beside the tests."""

import math
from functools import lru_cache

import numpy as np

from gradlab import fiber, fields, gradients, spectral
from gradlab.fields import TensorField, fiber_shape, fiber_weight_scalar
from gradlab.geometry import (
    TWO_PI, GeometryError, _require_finite, differentiate, evaluate_on_grid,
)
from gradlab.harness import _unit, band_limited_field


def zero_field(cache, rank, tag="s0"):
    """A zero field under `tag`, to be filled in place."""
    return TensorField(cache, tag, rank,
                       np.zeros(fiber_shape(cache.n, tag, rank) + cache.spec.shape))


def unit_field(cache, rank, band, rng):
    """A band-limited trace-free test field scaled to unit L2 norm."""
    return _unit(band_limited_field(cache, rank, band, rng))


# ---------------------------------------------------------------------------
# the unfused exact adjoints: each first-order transpose formed on its own,
# one weighted gradient transpose per piece, and the compositions summed
# afterwards; the package's adjoints fuse each composition into one
# transpose and are tested against these
# ---------------------------------------------------------------------------

def divergence_exact_adjoint(psi: TensorField):
    """Exact weighted adjoint of `fields.divergence`, rank p-1 -> rank p."""
    cache, n = psi.cache, psi.n
    p = psi.rank + 1
    w_cod = fiber_weight_scalar(cache, "s0", p - 1)
    w_dom = fiber_weight_scalar(cache, "s0", p)
    y = fields._scale(psi.data * w_cod, cache.conformal_factor(-2.0))
    K0 = fields._k0(n, p)
    Z = fields._grad_s0_transpose(
        cache, p, fields._left(-fields._slots(K0).T, y, n, fiber_out=K0.shape[1:]))
    return TensorField(cache, "s0", p, Z / w_dom)


def sym_derivative_exact_adjoint(omega: TensorField):
    """Exact weighted adjoint of `fields.sym_derivative`, rank p+1 -> rank p."""
    cache, p, n = omega.cache, omega.rank - 1, omega.n
    w_cod = fiber_weight_scalar(cache, "s", p + 1)
    w_dom = fiber_weight_scalar(cache, "s0", p)
    mult = fiber.multiplicities(n, p + 1).reshape((-1,) + (1,) * n)
    y = omega.data * mult * w_cod
    S = fields._sym_insert_expanded(n, p)
    Z = fields._grad_s0_transpose(
        cache, p, fields._left(fields._slots(S).T, y, n, fiber_out=S.shape[1:]))
    return TensorField(cache, "s0", p, Z / w_dom)


def gradient_adjoint_unfused(X: TensorField):
    """`fields.gradient_adjoint` with both weights applied, on every metric."""
    cache, p = X.cache, X.rank
    w_cod = fiber_weight_scalar(cache, "cov_s0", p)
    w_dom = fiber_weight_scalar(cache, "s0", p)
    Z = fields._grad_s0_transpose(cache, p, X.data * w_cod)
    return TensorField(cache, "s0", p, Z / w_dom)


def d1_exact_adjoint_unfused(omega: TensorField):
    """d1* as the adjoint of the symmetrized derivative plus the insertion
    coefficient times the adjoint of the divergence applied to the
    pointwise insertion transpose."""
    cache, n = omega.cache, omega.n
    p = omega.rank - 1
    om_s = TensorField(cache, "s", p + 1, omega.monomial())
    term1 = sym_derivative_exact_adjoint(om_s)
    mult = fiber.multiplicities(n, p + 1).reshape((-1,) + (1,) * n)
    y = fields._left(gradients._d1_correction_matrix(n, p).T, om_s.data * mult, n)
    y = fields._scale(y, cache.conformal_factor(-2.0))
    term2 = divergence_exact_adjoint(TensorField(cache, "s0", p - 1, y))
    return term1 + gradients.sym_insert_coefficient(n, p) * term2


def d2_exact_adjoint_unfused(X: TensorField):
    """d2* as the adjoint of the divergence after the reinsertion transpose."""
    cache, p = X.cache, X.rank
    K2 = gradients._d2_structure(X.n, p)
    y = fields._left(-K2.reshape(-1, K2.shape[-1]).T, X.data, X.n, 2)
    y = fields._scale(y, cache.conformal_factor(-2.0))
    return divergence_exact_adjoint(TensorField(cache, "s0", p - 1, y))


def embed_transpose(X: TensorField):
    """Pointwise transpose of `gradients.embed_symmetrized`; also its exact
    weighted adjoint, since domain and codomain carry the same conformal
    weight."""
    e = fiber.embed_matrix(X.n, X.rank)
    return TensorField(X.cache, "s0", X.rank + 1, fields._left(e.T, X.data, X.n, 2))


def d3_exact_adjoint_unfused(X: TensorField):
    """d3* = nabla* - d1* (embedding transpose) - d2*."""
    return (gradient_adjoint_unfused(X)
            - d1_exact_adjoint_unfused(embed_transpose(X))
            - d2_exact_adjoint_unfused(X))


# ---------------------------------------------------------------------------
# the weighted routes of the pairing and of the gradient transpose, which
# read the weight array at every grid point on every metric; on a flat
# metric the package reads one number, the cell volume, instead
# ---------------------------------------------------------------------------

def l2_inner_weighted(a: TensorField, b: TensorField):
    """`fields.l2_inner` through the weight array: one weighted dot over
    the grid points per fiber coordinate, then the fiber sum."""
    w = fiber_weight_scalar(a.cache, a.tag, a.rank)
    prod = a.data * b.data
    if a.tag in ("s", "cov_s"):
        prod *= fiber.multiplicities(a.n, a.rank).reshape((-1,) + (1,) * a.n)
    return float(np.sum(prod.reshape(-1, w.size) @ w.ravel()))


def weighted_grad_transpose_reference(cache, p, X):
    """`fields._weighted_grad_transpose` with both weights applied: the
    gradient-shaped input times w_cod, Gᵀ, then divided by w_dom.  X is
    left as it is."""
    weighted = X * fiber_weight_scalar(cache, "cov_s0", p)
    out = fields._grad_s0_transpose(cache, p, weighted)
    out /= fiber_weight_scalar(cache, "s0", p)
    return out


def direct_trig_series(spec, modes, coef):
    """`spectral.trig_series` summed one cos and one sin at a time, in the
    field layout (*coef.shape[1:], *grid)."""
    coef = np.asarray(coef, float)
    theta = spec.theta_mesh()
    pad = (...,) + (None,) * spec.n
    out = np.zeros(coef.shape[1:] + spec.shape) + coef[0][pad]
    for k, m in enumerate(modes):
        phase = sum(mj * th for mj, th in zip(m, theta))
        out += np.cos(phase) * coef[2 * k + 1][pad] + np.sin(phase) * coef[2 * k + 2][pad]
    return out


# ---------------------------------------------------------------------------
# the formula routes of the second-order compositions, each formed on its own
# ---------------------------------------------------------------------------

def rough_laplacian_formula(phi: TensorField):
    """nabla* nabla as the second covariant derivative contracted with the
    inverse metric: a discretization independent of `fields.rough_laplacian`,
    the exact weighted transpose of the gradient."""
    cache, p, n = phi.cache, phi.rank, phi.n
    spec = cache.spec
    X = fields._grad_apply(cache, p, phi.data)
    slot = [fields._slot(X, i, n) for i in range(n)]
    # sum_i (nabla_i X)_{i, J}: derivative, covariant-slot and symmetric-slot terms
    out = -sum(differentiate(slot[i], i, spec) for i in range(n))
    for l in cache.exponent.variables:
        # the symmetric slots add sum_i C[l, i] X_i, and the covariant
        # slot adds sum_i Gamma^k_ii = (2 - n) h_k, on slot k = l
        C = fields._connection_tensor(n, p, True)[l]
        out += cache.h[l] * (sum(fields._left(C[i], slot[i], n) for i in range(n))
                             + (2.0 - n) * slot[l])
    out = fields._scale(out, cache.conformal_factor(-2.0))
    return TensorField(cache, "s0", p, out)


def d1_star_d1_formula(phi: TensorField):
    """d1* d1 as the trace-free projection of delta(delta* phi) - c
    delta*(delta phi), c = `gradients.sw_coefficient`; the transpose route
    is d1_exact_adjoint(d1(phi))."""
    c = gradients.sw_coefficient(phi.n, phi.rank)
    t1 = fields.to_tracefree(fields.divergence(fields.sym_derivative(phi)))
    t2 = fields.to_tracefree(fields.sym_derivative(fields.divergence(phi)))
    return t1 - c * t2


def curvature_action_blocked(phi):
    """`gradients.curvature_action` as pointwise (m, m) matrices K = e^{-2f}
    T @ S_T summed over every entry of T in one matmul, applied as a
    batched matvec one block of points at a time (1 MiB of matrices at
    once); the batch axes lead and share each block's matrices."""
    cache, p, n = phi.cache, phi.rank, phi.n
    mono = phi.monomial()
    P, m = cache.spec.num_points, fiber.sym_dim(n, p)
    S = gradients._curvature_matrix(n, p)
    T = fields._scale(cache.T, cache.conformal_factor(-2.0)).reshape(n * n, P).T
    x = np.ascontiguousarray(np.swapaxes(mono.reshape(-1, m, P), 1, 2))[..., None]
    out = np.empty_like(x)
    block = max((1 << 20) // (8 * m * m), 1)
    for b in range(0, P, block):
        rows = slice(b, b + block)
        K = T[rows] @ S
        np.matmul(K.reshape(-1, m, m), x[:, rows], out=out[:, rows])
    return fields.field_from_monomial(cache, p, np.swapaxes(out[..., 0], 1, 2).reshape(mono.shape))


# ---------------------------------------------------------------------------
# operators that no suite builds as handles: the first-order pieces of a
# split, the rough Laplacian as a Galerkin endomorphism, and the symbol
# matrices of delta delta* and delta* delta
# ---------------------------------------------------------------------------

def piece_handle(cache, p, name):
    """One first-order piece of `gradients.decompose` (a name of `PIECES`)
    on the trace-free rank-p bundle; its codomain is read from `PIECES`."""
    return spectral.OperatorHandle(
        name=name, cache=cache, domain_rank=p,
        apply=lambda phi: getattr(gradients.decompose(phi), name), symbol=None)


def rough_laplacian_handle(cache, p):
    """nabla* nabla on the trace-free rank-p bundle; its symbol is
    gscale |xi|^2 times the identity."""
    n = cache.n
    return spectral.OperatorHandle(
        name="rough_laplacian", cache=cache, domain_rank=p, apply=fields.rough_laplacian,
        symbol=spectral._second_order_symbol(np.eye(n * fiber.tracefree_dim(n, p))))


def delta_symbol_matrices(n, p):
    """(Q1, Q2): the (n t, n t) fiber matrices whose second-order symbols
    gscale G(xi)^T Q G(xi) are those of delta delta* and delta* delta on
    trace-free coordinates, with blocks Q1_ij = C Kc_i Sm_j and
    Q2_ij = C Sm'_i k0_j built from the structure tensors those operators
    use, so each shares its operator's sign and normalization."""
    t = fiber.tracefree_dim(n, p)
    _, C = fiber.tracefree_basis(n, p)
    Q1 = np.einsum("aB,BiA,Ajc->iajc", C, fiber.div_contract_tensor(n, p + 1),
                   fields._sym_insert_expanded(n, p), optimize=True).reshape(n * t, n * t)
    Q2 = np.einsum("aB,Bib,bjc->iajc", C, fields._sym_insert_expanded(n, p - 1),
                   fields._k0(n, p), optimize=True).reshape(n * t, n * t)
    return Q1, Q2


# ---------------------------------------------------------------------------
# dense weights of the nodal vectors of a handle's bundles
# ---------------------------------------------------------------------------

def weight_vector(cache, tag, rank):
    """Diagonal of the L2 Gram matrix on flattened coefficient vectors.

    Matches the weighted route of fields.l2_inner (`l2_inner_weighted`):
    cell volume times metric density times the conformal fiber factor,
    with monomial multiplicities where the storage uses monomial
    coordinates.
    """
    w = fiber_weight_scalar(cache, tag, rank)
    n = cache.n
    if "s0" in tag:
        fib = np.ones(fiber.tracefree_dim(n, rank))
    else:
        fib = fiber.multiplicities(n, rank).astype(float)
    if tag.startswith("cov"):
        fib = np.tile(fib, n)
    return np.outer(fib, w.ravel()).ravel()


def domain_dim(handle):
    """Length of a handle's domain vectors: grid points times the trace-free
    fiber dimension."""
    return handle.cache.spec.num_points * fiber.tracefree_dim(handle.n, handle.domain_rank)


def basis_dim(basis):
    """Columns of a `spectral.DealiasedBasis`: trig functions times fiber."""
    return basis.n_scalar * basis.t


def domain_weights(handle):
    return weight_vector(handle.cache, "s0", handle.domain_rank)


def codomain_weights(handle):
    """The codomain's weights: a piece's bundle from `PIECES`, and the
    domain's own for an endomorphism."""
    tag, shift = PIECES.get(handle.name, ("s0", 0))
    return weight_vector(handle.cache, tag, handle.domain_rank + shift)


# ---------------------------------------------------------------------------
# the piece route of the Galerkin layer: every colour decomposed at once,
# one image stack per piece, each split into reflection classes on the
# whole grid, cut whole and paired with its own weight, applied whole to
# the left image; `spectral.Galerkin` pairs one cut gradient stack, scaled
# by the root of its weight and folded onto half of each mirror axis,
# through each piece's constant map instead and is tested against this
# ---------------------------------------------------------------------------

# piece of a split -> (codomain tag, codomain rank minus domain rank)
PIECES = {"d1": ("s0", 1), "d2": ("cov_s0", 0), "d3": ("cov_s0", 0),
          "divergence": ("s0", -1)}


def reflection(n, tag, rank, axis):
    """The fiber matrix of x_axis -> -x_axis on the bundle (`tag`, `rank`),
    diagonal in the parity basis: -1 on the columns odd in `axis`, and on
    the slot `axis` of a covector."""
    Q, parity = fiber.parity_basis(n, rank)
    R = Q @ np.diag(1.0 - 2.0 * parity[:, axis]) @ Q.T
    if tag.startswith("cov"):
        slot = np.ones(n)
        slot[axis] = -1.0
        R = np.kron(np.diag(slot), R)
    return R


def class_parts(gal, images, tag, rank):
    """The reflection classes of a (colours, width, *grid) stack of images on
    the bundle (`tag`, `rank`), on the whole grid: (classes, colours, width,
    *grid), class q the product over the mirror axes a of (1 +- R_a*) / 2,
    the sign - where bit i of q (the i-th mirror axis) is set."""
    n = gal.cache.n
    parts = images[None]
    for a in gal.mirrors:
        size = gal.cache.spec.sizes[a]
        flipped = np.take(parts, -np.arange(size) % size, axis=3 + a)
        flipped = fields._left(reflection(n, tag, rank, a), flipped, n)
        parts = np.concatenate([(parts + flipped) / 2, (parts - flipped) / 2])
    return parts


def whole_stack_cut(gal, images, tag, rank):
    """The half-spectrum cut of a whole (colours, *fiber, *grid) stack of
    images in the layout of `Galerkin._cut_stacks`: its class parts, kept on
    points 0..N/2 of each mirror axis times the root of the count of points
    each stands for, one FFT along the invariant axes and one gather per
    group of sectors; with no invariant axis, the kept parts themselves."""
    count = len(images)
    spec = gal.cache.spec
    parts = class_parts(gal, images.reshape((count, -1) + spec.shape), tag, rank)
    for a in gal.mirrors:
        size = spec.sizes[a]
        half = np.arange(size // 2 + 1)
        weight = np.sqrt(np.where(2 * half % size == 0, 1.0, 2.0))
        parts = np.take(parts, half, axis=3 + a) * weight.reshape(
            (-1,) + (1,) * (spec.n - 1 - a))
    classes, width = len(parts), parts.shape[2]
    if not gal.axes:
        parts = np.moveaxis(parts.reshape(classes, count, width, -1), 2, -1)
        return [parts.reshape(1, classes, count, -1, 1, width)]
    hat = np.fft.rfftn(parts, axes=[3 + a for a in gal.axes])
    hat = hat.reshape(classes, count, width, int(np.prod(gal._half)))
    out = []
    for _, g, _ in gal._bins:
        part = np.take(hat, g, axis=3).transpose(3, 0, 1, 4, 2)
        out.append(np.stack([part.real, part.imag], axis=4))
    return out


def weighted_pairing(gal, left, right, tag, rank):
    """The layer's blocks of the pairing of two image stacks on the bundle
    (`tag`, `rank`): the left one times its weight, the right one bare,
    each cut whole."""
    left = left * fiber_weight_scalar(gal.cache, tag, rank)
    floor = max(float(np.max(np.abs(M))) for M in gal.mass())
    return gal._pair(whole_stack_cut(gal, left, tag, rank),
                     whole_stack_cut(gal, right, tag, rank), floor)


def galerkin_grams_reference(gal):
    """Per piece of `PIECES`, and for the gradient itself, the Gram block
    stacks of the layer by the piece route."""
    cache, p = gal.cache, gal.p
    sp = gradients.decompose(TensorField(cache, "s0", p, gal._colours(slice(None))))
    out = {}
    for piece, (tag, shift) in dict(PIECES, grad=("cov_s0", 0)).items():
        images = getattr(sp, piece).data
        out[piece] = weighted_pairing(gal, images, images, tag, p + shift)
    return out


def galerkin_form_reference(gal, handle):
    """The form blocks of an endomorphism handle from the whole-stack cuts
    of the colours and of their images."""
    colours = gal._colours(slice(None))
    images = handle.apply(TensorField(gal.cache, "s0", gal.p, colours)).data
    return weighted_pairing(gal, colours, images, "s0", gal.p)


# ---------------------------------------------------------------------------
# brute-force index loops: the references of the fiber's slot tensors, which
# the package scatters from one index table; each loop works out for itself
# where a slot operation sends a monomial index
# ---------------------------------------------------------------------------

def multiplicity(index):
    """Number of distinct permutations of a multi-index."""
    m = math.factorial(len(index))
    for i in set(index):
        m //= math.factorial(index.count(i))
    return m


def multiplicities_loop(n, p):
    return np.array([multiplicity(I) for I in fiber.sym_indices(n, p)], dtype=float)


def parity_loop(n, p):
    """(m, n) index counts mod 2 of each monomial coordinate."""
    return np.array([[I.count(a) % 2 for a in range(n)] for I in fiber.sym_indices(n, p)],
                    int).reshape(-1, n)


@lru_cache(maxsize=None)
def expand_matrix(n, p):
    """(n^p, m) matrix taking monomial coordinates to the full tensor (flattened)."""
    m = fiber.sym_dim(n, p)
    E = np.zeros((n**p, m))
    pos = fiber.sym_index_of(n, p)
    for flat in range(n**p):
        J = np.unravel_index(flat, (n,) * p) if p else ()
        E[flat, pos[tuple(sorted(J))]] = 1.0
    E.flags.writeable = False
    return E


@lru_cache(maxsize=None)
def restrict_matrix(n, p):
    """(m, n^p) matrix averaging a full tensor onto monomial coordinates.

    Applied to any full tensor this returns the monomial coordinates of its
    full symmetrization; composed with expand_matrix it is the identity.
    """
    m = fiber.sym_dim(n, p)
    R = np.zeros((m, n**p))
    pos = fiber.sym_index_of(n, p)
    for flat in range(n**p):
        J = np.unravel_index(flat, (n,) * p) if p else ()
        I = tuple(sorted(J))
        R[pos[I], flat] = 1.0 / multiplicity(I)
    R.flags.writeable = False
    return R


def trace_matrix_loop(n, p):
    m_out, m_in = fiber.sym_dim(n, p - 2), fiber.sym_dim(n, p)
    pos_in = fiber.sym_index_of(n, p)
    T = np.zeros((m_out, m_in))
    for b, K in enumerate(fiber.sym_indices(n, p - 2)):
        for a in range(n):
            T[b, pos_in[tuple(sorted((a, a) + K))]] += 1.0
    return T


def insert_matrix_loop(n, q):
    m_out, m_in = fiber.sym_dim(n, q), fiber.sym_dim(n, q - 2)
    pos_in = fiber.sym_index_of(n, q - 2)
    M = np.zeros((m_out, m_in))
    for a, J in enumerate(fiber.sym_indices(n, q)):
        for s in range(q):
            for t in range(s + 1, q):
                if J[s] == J[t]:
                    rest = J[:s] + J[s + 1 : t] + J[t + 1 :]
                    M[a, pos_in[rest]] += 1.0 / q
    return M


def slot_replace_tensor_loop(n, p):
    m = fiber.sym_dim(n, p)
    pos = fiber.sym_index_of(n, p)
    Q = np.zeros((m, n, n, m))
    for A, J in enumerate(fiber.sym_indices(n, p)):
        for a in range(p):
            for k in range(n):
                B = pos[tuple(sorted(J[:a] + (k,) + J[a + 1 :]))]
                Q[A, J[a], k, B] += 1.0
    return Q


def double_slot_replace_tensor(n, p):
    """Q2[A,j,k,l,s,B]: sum over ordered slot pairs a != b of
    T^{k s}_{J_a J_b} phi_{J|a->k, b->s}, as einsum('jkls,AjklsB,B->A', T, Q2, phi)."""
    m = fiber.sym_dim(n, p)
    pos = fiber.sym_index_of(n, p)
    Q2 = np.zeros((m, n, n, n, n, m))
    for A, J in enumerate(fiber.sym_indices(n, p)):
        for a in range(p):
            for b in range(p):
                if a == b:
                    continue
                for k in range(n):
                    for s in range(n):
                        L = list(J)
                        L[a] = k
                        L[b] = s
                        B = pos[tuple(sorted(L))]
                        Q2[A, J[a], k, J[b], s, B] += 1.0
    return Q2


def div_contract_tensor_loop(n, p):
    m_out, m_in = fiber.sym_dim(n, p - 1), fiber.sym_dim(n, p)
    pos_in = fiber.sym_index_of(n, p)
    Kc = np.zeros((m_out, n, m_in))
    for B, K in enumerate(fiber.sym_indices(n, p - 1)):
        for i in range(n):
            Kc[B, i, pos_in[tuple(sorted((i,) + K))]] += 1.0
    return Kc


def sym_insert_cov_tensor_loop(n, p):
    m_out, m_in = fiber.sym_dim(n, p + 1), fiber.sym_dim(n, p)
    pos_in = fiber.sym_index_of(n, p)
    Sm = np.zeros((m_out, n, m_in))
    for Jidx, J in enumerate(fiber.sym_indices(n, p + 1)):
        for a in range(p + 1):
            rest = J[:a] + J[a + 1 :]
            Sm[Jidx, J[a], pos_in[rest]] += 1.0 / (p + 1)
    return Sm


def slice_first_tensor(n, p):
    """Sl[i,K,A]: fix the first slot of a symmetric rank-p tensor to i,
    leaving rank p-1 coordinates."""
    m_out, m_in = fiber.sym_dim(n, p - 1), fiber.sym_dim(n, p)
    pos_in = fiber.sym_index_of(n, p)
    Sl = np.zeros((n, m_out, m_in))
    for i in range(n):
        for K, Kidx in fiber.sym_index_of(n, p - 1).items():
            Sl[i, Kidx, pos_in[tuple(sorted((i,) + K))]] = 1.0
    return Sl


def embed_matrix_loop(n, p):
    """`fiber.embed_matrix` through the full rank p+1 tensor: each trace-free
    basis tensor expanded, sliced at its first index and restricted."""
    B_hi, _ = fiber.tracefree_basis(n, p + 1)
    _, C_p = fiber.tracefree_basis(n, p)
    t = C_p.shape[0]
    R = restrict_matrix(n, p)
    out = np.zeros((n * t, B_hi.shape[1]))
    for c in range(B_hi.shape[1]):
        full = (expand_matrix(n, p + 1) @ B_hi[:, c]).reshape(n, -1)
        for i in range(n):
            out[i * t : (i + 1) * t, c] = C_p @ (R @ full[i])
    return out


def insert_map_columns_loop(n, p):
    """`fiber._insert_map_columns` through full tensors: the symmetrization
    of e_i (x) psi restricted from the full rank p tensor, minus the
    insertion of psi sliced at first index i."""
    basis_lower, _ = fiber.tracefree_basis(n, p - 1)
    _, compress = fiber.tracefree_basis(n, p)
    t = compress.shape[0]
    cols = np.zeros((n * t, basis_lower.shape[1]))
    R = restrict_matrix(n, p)
    Sl = slice_first_tensor(n, p - 1) if p >= 2 else None
    Ins = insert_matrix_loop(n, p) if p >= 2 else None
    eye = np.eye(n)
    for c in range(basis_lower.shape[1]):
        psi = basis_lower[:, c]
        psi_full = (expand_matrix(n, p - 1) @ psi).reshape((n,) * (p - 1))
        for i in range(n):
            mono = R @ np.multiply.outer(eye[i], psi_full).reshape(-1)
            if p >= 2:
                mono = mono - (2.0 / (n + 2 * (p - 2))) * (Ins @ (Sl[i] @ psi))
            cols[i * t : (i + 1) * t, c] = compress @ mono
    return cols


def curvature_matrix_loop(n, p):
    """`gradients._curvature_matrix` as L1 S1 + L2 S2 over the loop slot
    tensors: S1 = Q reshaped to (n^2, m^2), S2 = Q2 to (n^4, m^2), L1 the
    map T -> -Ric and L2 the map T -> T o delta."""
    m = fiber.sym_dim(n, p)
    eye = np.eye(n)
    L1 = (n - 2) * np.eye(n * n) + np.outer(eye, eye)
    S = -L1 @ np.moveaxis(slot_replace_tensor_loop(n, p), 0, 2).reshape(n * n, m * m)
    if p >= 2:
        # (E_ab o delta)_jkls for the unit matrices E_ab, rows (a, b)
        E = np.eye(n * n).reshape(n, n, n, n)
        L2 = (np.einsum("abjl,ks->abjkls", E, eye) + np.einsum("abks,jl->abjkls", E, eye)
              - np.einsum("abjs,kl->abjkls", E, eye) - np.einsum("abkl,js->abjkls", E, eye))
        S2 = np.moveaxis(double_slot_replace_tensor(n, p), 0, 4).reshape(n**4, m * m)
        S += L2.reshape(n * n, n**4) @ S2
    return S


# ---------------------------------------------------------------------------
# the fiber projectors' identities
# ---------------------------------------------------------------------------

def projector_residuals(n, p):
    """Residuals of idempotency, self-adjointness, completeness and mutual
    orthogonality of `fiber.flat_projector_matrices(n, p)`, and the rank
    (trace) of each projector."""
    projectors = dict(zip("ABC", fiber.flat_projector_matrices(n, p)))
    out = {}
    for name, P in projectors.items():
        out[f"idempotent_{name}"] = float(np.max(np.abs(P @ P - P)))
        out[f"symmetric_{name}"] = float(np.max(np.abs(P - P.T)))
        out[f"rank_{name}"] = int(round(np.trace(P)))
    A, B, C = projectors.values()
    out["completeness"] = float(np.max(np.abs(A + B + C - np.eye(len(A)))))
    out["cross_AB"] = float(np.max(np.abs(A @ B)))
    out["cross_AC"] = float(np.max(np.abs(A @ C)))
    out["cross_BC"] = float(np.max(np.abs(B @ C)))
    return out


def trig_text(poly):
    """Canonical text of a `TrigPoly`: parse_trig_poly(trig_text(f)) == f."""
    if not poly.terms:
        return "0"
    parts = []
    for t in poly.terms:
        mag = repr(abs(t.coeff))
        if t.kind == "const":
            body = mag
        else:
            arg_parts = []
            for i, k in enumerate(t.wave):
                if k == 0:
                    continue
                name = f"x{i + 1}"
                piece = name if abs(k) == 1 else f"{abs(k)}*{name}"
                arg_parts.append(("-" if k < 0 else "+", piece))
            arg = arg_parts[0][1] if arg_parts[0][0] == "+" else "-" + arg_parts[0][1]
            for sign, piece in arg_parts[1:]:
                arg += sign + piece
            body = f"{mag}*{t.kind}({arg})"
        sign = "-" if t.coeff < 0 else "+"
        parts.append((sign, body))
    text = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def config_text(values):
    """Config text with one `key = value` line per item of `values`, a
    key -> value map such as a report's config section; a list or tuple
    value is written comma-separated."""
    lines = []
    for key, value in values.items():
        text = ",".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


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
    """Samples of the cache's metric e^{2f} delta, (n, n, *grid)."""
    g = np.zeros((cache.n, cache.n) + cache.spec.shape)
    conf = np.exp(2.0 * cache.conf_exponent_values)
    for i in range(cache.n):
        g[i, i] = conf
    return g


def metric_geometry(spec, g):
    """Inverse, connection, curvature and quadrature weights of metric samples.

    `g` is any metric sampled on the grid, (n, n, *grid), component axes
    first as in `GeometryCache`; nothing here assumes the conformal form, so
    its curvature is an independent route to the closed forms of
    `GeometryCache`.  The metric is differentiated spectrally.  riemann
    is fully lowered, indexed (i, j, k, l, *grid) as R_{ijkl} = g_{im}
    R^m_{jkl}; ricci is the (j, l) contraction of R^m_{jml}.  Raises
    GeometryError when a sample is not positive definite or when any array
    is not finite.
    """
    n = spec.n
    # the pointwise linear algebra reads the samples grid-first
    points = np.moveaxis(g, (0, 1), (-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        _require_finite(g=g)
        if np.min(np.linalg.eigvalsh(points)) <= 0:
            raise GeometryError("metric sample is not positive definite")
        g_inv = np.moveaxis(np.linalg.inv(points), (-2, -1), (0, 1))
        sqrt_det = np.sqrt(np.linalg.det(points))

        # dg[a, i, j] = d_a g_ij
        dg = np.stack([differentiate(g, a, spec) for a in range(n)])
        gamma = christoffel(g_inv, dg)

        dgamma = np.stack([differentiate(gamma, a, spec) for a in range(n)])
        # R^r_{s m v} = d_m G^r_{v s} - d_v G^r_{m s} + G^r_{m l} G^l_{v s} - G^r_{v l} G^l_{m s}
        r_up = (
            np.einsum("mrvs...->rsmv...", dgamma)
            - np.einsum("vrms...->rsmv...", dgamma)
            + np.einsum("rml...,lvs...->rsmv...", gamma, gamma)
            - np.einsum("rvl...,lms...->rsmv...", gamma, gamma)
        )
        riemann = np.einsum("ir...,rsmv...->ismv...", g, r_up)
        ricci = np.einsum("msmv...->sv...", r_up)
        scalar = np.einsum("sv...,sv...->...", g_inv, ricci)
        weights = spec.cell_volume * sqrt_det

    out = dict(g=g, g_inv=g_inv, christoffel=gamma, riemann=riemann, ricci=ricci,
               scalar_curvature=scalar, weights=weights)
    _require_finite(**out)
    return out


def christoffel(g_inv, dg):
    """Gamma^k_ij from the inverse metric and dg[a, i, j] = d_a g_ij."""
    g_low = 0.5 * (
        np.einsum("ijl...->lij...", dg)
        + np.einsum("jil...->lij...", dg)
        - dg
    )
    return np.einsum("kl...,lij...->kij...", g_inv, g_low)


def structural_christoffel(h):
    """G^k_ij = delta_ki h_j + delta_kj h_i - delta_ij h_k, (n, n, n, *grid)."""
    eye = np.eye(len(h))
    return (
        np.einsum("ki,j...->kij...", eye, h)
        + np.einsum("kj,i...->kij...", eye, h)
        - np.einsum("ij,k...->kij...", eye, h)
    )


def closed_form_curvature(cache):
    """(ricci, riemann) of the cache's T in the reference route's lowered
    index convention: Ric = -((n - 2) T + tr T delta) and R = -e^{2f}
    (T o delta), o the Kulkarni-Nomizu product."""
    T, n = cache.T, cache.n
    eye = np.eye(n)
    ricci = -((n - 2) * T + np.trace(T) * eye.reshape((n, n) + (1,) * n))
    kn = (np.einsum("ik...,jl->ijkl...", T, eye) + np.einsum("jl...,ik->ijkl...", T, eye)
          - np.einsum("il...,jk->ijkl...", T, eye) - np.einsum("jk...,il->ijkl...", T, eye))
    return ricci, -np.exp(2.0 * cache.conf_exponent_values) * kn


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
