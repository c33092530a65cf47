"""First-order gradients on trace-free symmetric tensor fields.

The covariant derivative of a trace-free symmetric rank-p field takes
values in T* (x) S0^p, which splits into three irreducible O(n) summands.
This module realizes the corresponding first-order operators:

    d1   trace-free symmetrized derivative, rank p -> p+1 ("s0" storage)
    d2   divergence reinserted along the metric ("cov_s0" storage)
    d3   the remainder piece ("cov_s0" storage)

all three from one gradient (`decompose`; d1 also alone, `d1`), together
with exact weighted adjoints and the second-order compositions
(rough Laplacian splitting, symmetrized Laplacian, the zeroth-order
curvature term).  `second_order_residuals` forms every second-order
identity residual of one field (Weitzenbock formulas, energy identities,
the curvature term against its oracle) from one decomposition and one
evaluation of each operator; it is the only place that decides how such a
residual is formed.

Every operator has one implementation here, checked against independent
routes by a suite or by the tests:

  * d1/d2/d3 from explicit structure tensors  vs  constant fiber projectors
    applied to the same covariant derivative (`projector_match_residuals`);
  * d2 literal coefficients  vs  the equivariant-insertion image of the
    divergence scaled by the contraction eigenvalue (`d2_insertion_oracle`);
  * second-order compositions as exact transposes of the first-order
    pieces  vs  analytic formulas, formed in `second_order_residuals`; the
    tests keep the formula routes of d1* d1 and nabla* nabla and the
    unfused adjoints in `testlib`;
  * the curvature term operationally (nabla*nabla - Delta_S,
    `weitzenbock_K`)  vs  the pointwise Ricci/Riemann formula
    (`curvature_action`).

Sign and normalization conventions are pinned by arbitration checks that
raise ConventionError instead of silently projecting away a discrepancy.
The identity suite's negative controls corrupt one split after the fact
(a scaled d2, a flipped divergence) and watch the right checks fail.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fiber, fields
from .fields import FieldError, TensorField, l2_inner, l2_norm

_TINY = 1e-300

# largest trace residual of d1's symmetrized derivative, relative to max|X|
# of the gradient X, that d1 accepts before raising ConventionError
_TRACE_GUARD = 1e-6


class ConventionError(RuntimeError):
    """A sign or normalization convention failed its arbitration check."""


def _check_phi(phi: TensorField):
    if phi.tag != "s0":
        raise FieldError("gradient operators expect an 's0' field")
    if phi.rank < 1:
        raise FieldError("gradient operators need rank >= 1")


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def sym_insert_coefficient(n: int, p: int) -> float:
    """Coefficient of the metric-insertion correction inside d1."""
    return 2.0 / (n + 2 * (p - 1))


def d2_prefactor(n: int, p: int) -> float:
    """Leading coefficient (without sign) of the divergence-reinsertion part.

    The generic two-term expression degenerates at p = 1, where only the
    plain metric insertion survives with coefficient 1/n.
    """
    if p == 1:
        return 1.0 / n
    return (n + 2 * (p - 2)) / ((n + 2 * (p - 1)) * (n + p - 3))


def insertion_eigenvalue(n: int, p: int) -> float:
    """tau(E psi) = lambda psi for the equivariant insertion into T* (x) S0^p."""
    if p == 1:
        return float(n)
    return (n + 2 * (p - 1)) * (n + p - 3) / (p * (n + 2 * (p - 2)))


def sw_coefficient(n: int, p: int) -> float:
    """Coefficient of delta*delta inside the second-order composition d1*d1,
    the value forced by the exact-transpose route for every rank."""
    return 2.0 * p / ((p + 1) * (n + 2 * (p - 1)))


def d2_composition_coefficient(n: int, p: int) -> float:
    """kappa in d2* d2 phi = kappa (delta* delta phi)_0, the trace-free
    part of the symmetrized derivative of the divergence."""
    return p * d2_prefactor(n, p)


def energy_coefficient(n: int, p: int) -> float:
    """Coefficient of ||delta phi||^2 in the first-gradient energy identity."""
    return p * (n + 2 * (p - 2)) / ((p + 1) * (n + 2 * (p - 1)))


# ---------------------------------------------------------------------------
# constant structure matrices
# ---------------------------------------------------------------------------

@fiber._frozen_cache
def _d1_correction_matrix(n, p):
    """Monomial rank p+1 <- trace-free rank p-1: flat metric pair insertion."""
    B_low, _ = fiber.tracefree_basis(n, p - 1)
    return fiber.insert_matrix(n, p + 1) @ B_low


@fiber._frozen_cache
def _curvature_matrix(n, p):
    """S_T (n^2, m^2): the pointwise curvature action as a linear map of T.

    With S1[(j, k), (A, B)] = Q[A, j, k, B] (`fiber.slot_replace_tensor`)
    and S2[(j, k, l, s), (A, B)] the sum over ordered slot pairs a != b of
    J_A holding (j, l) whose replacement by (k, s) gives B, the action is
    R_j^k S1 - R_j^k_l^s S2.  g^{-1} = e^{-2f} delta raises each index by
    e^{-2f}, and the cache's closed forms (`geometry.GeometryCache`) give
    R_j^k = -e^{-2f} ((n - 2) T + tr T delta)_jk and R_j^k_l^s = -e^{-2f}
    (T o delta)_jkls, so the action is e^{-2f} T @ S_T with S_T = L1 S1 +
    L2 S2, L1 and L2 the linear maps T -> -Ric and T -> T o delta.
    `curvature_action` reads S_T as (n, n, m, m): the (m, m) block S_T[j, k]
    is the action of T_jk, and only the blocks of entries of T that are
    not identically 0 are read.

    Summed over the slots, with c_a the counts of an index and K + a the
    index K with one more a, row (a, b) of S_T is
      -(n + p - 3) c_a(K + a)  at (K + a, K + b)  and
      -(p - 1) c_b(K + b)  at (K + b, K + a), over rank p-1 indices K,
      -p on the diagonal of rows (a, a),
      w(K, a, b)  at (K + a + b, K + k + k)  for every axis k,  and
      w(K, k, k)  at (K + k + k, K + a + b),  over rank p-2 indices K,
    w(K, a, b) = c_a (c_b - delta_ab) at K + a + b the number of ordered
    slot pairs holding (a, b); the last two lines are absent below rank 2.
    Each line is scattered from `fiber`'s index table into the (n, n, m, m)
    output, so nothing larger than S_T is formed.
    """
    up, counts = fiber._index_table(n, p)
    m, ax = len(counts), np.arange(n)
    a, b = ax[:, None], ax                      # row (a, b)
    S = np.zeros((n, n, m, m))
    Ka, Kb = up[:, :, None], up[:, None, :]     # K + a, K + b
    ca = counts[up, ax][:, :, None]             # c_a(K + a)
    np.add.at(S, (a, b, Ka, Kb), -(n + p - 3.0) * ca)
    np.add.at(S, (a, b, Kb, Ka), -(p - 1.0) * np.swapaxes(ca, 1, 2))
    S[a, a, np.arange(m), np.arange(m)] -= p
    if p >= 2:
        Kab = fiber._pair_positions(n, p)       # K + a + b
        w = counts[Kab, a] * (counts[Kab, b] - (a == b))
        Kkk = Kab[:, ax, ax][:, None, None, :]  # K + k + k on a last axis
        a, b, Kab = a[..., None], b[..., None], Kab[..., None]
        np.add.at(S, (a, b, Kab, Kkk), w[..., None])
        np.add.at(S, (a, b, Kkk, Kab), np.diagonal(w, axis1=1, axis2=2)[:, None, None, :])
    return S.reshape(n * n, m * m)


@fiber._frozen_cache
def _d2_literal_mono(n, p):
    """(n, m_p, t_{p-1}) monomial rows of the two-term reinsertion display.

    Row (i, J): sum_a g_{i J_a} psi_{J\\a} minus (2/(n+2(p-2))) times the
    sum over repeated J-pairs of psi at (i, J minus the pair), evaluated on
    the flat metric; p = 1 keeps only the first term.  The leading
    prefactor d2_prefactor(n, p) is folded in.
    """
    m_p = fiber.sym_dim(n, p)
    m_low = fiber.sym_dim(n, p - 1)
    pos_low = fiber.sym_index_of(n, p - 1)
    main = np.zeros((n, m_p, m_low))
    corr = np.zeros((n, m_p, m_low))
    for A, J in enumerate(fiber.sym_indices(n, p)):
        for a in range(p):
            rest = J[:a] + J[a + 1 :]
            main[J[a], A, pos_low[rest]] += 1.0
        for a in range(p):
            for b in range(a + 1, p):
                if J[a] != J[b]:
                    continue
                rest = J[:a] + J[a + 1 : b] + J[b + 1 :]
                for i in range(n):
                    corr[i, A, pos_low[tuple(sorted((i,) + rest))]] += 1.0
    comb = main if p == 1 else main - (2.0 / (n + 2 * (p - 2))) * corr
    B_low, _ = fiber.tracefree_basis(n, p - 1)
    return d2_prefactor(n, p) * np.einsum("iAB,Bb->iAb", comb, B_low)


@fiber._frozen_cache
def _d2_structure(n, p):
    """K2[i, a, b]: the literal reinsertion rows compressed to trace-free bases."""
    _, Cp = fiber.tracefree_basis(n, p)
    return np.ascontiguousarray(np.einsum("aA,iAb->iab", Cp, _d2_literal_mono(n, p)))


@fiber._frozen_cache
def _insertion_matrix_mono(n, p):
    """(n, m_p, t_{p-1}) monomial rows of the equivariant insertion map.

    Independently coded route (`fiber._insert_map_columns`: the slot
    symmetrization minus the pair-weighted insertion of the sliced tensor,
    both scattered from the fiber's index table and compressed to the
    trace-free basis) used as an oracle against the literal display rows,
    whose loop works out its index moves for itself.
    """
    cols = fiber._insert_map_columns(n, p)
    Bp, _ = fiber.tracefree_basis(n, p)
    t = Bp.shape[1]
    return np.stack([Bp @ cols[i * t : (i + 1) * t, :] for i in range(n)])


# ---------------------------------------------------------------------------
# the three first-order pieces
# ---------------------------------------------------------------------------

def d1(phi: TensorField):
    """Trace-free symmetrized derivative, rank p -> p+1.

    The metric-insertion correction must cancel the trace of the
    symmetrized derivative identically; the conformal trace residual is
    checked pointwise before compressing, and a violation raises
    ConventionError.  This arbitration pins the insertion normalization
    (sum over all index pairs with weight 1/(p+1)).
    """
    _check_phi(phi)
    X = fields._grad_apply(phi.cache, phi.rank, phi.data)
    return _d1_from_grad(phi, X, fields._contract_apply(phi.cache, phi.rank, X))[0]


def _abs_max(a, batch):
    """max|a| over each member of a batch, with no |a| temporary."""
    a = a.reshape(batch + (-1,))
    return np.maximum(a.max(axis=-1), -a.min(axis=-1))


def _d1_from_grad(phi, X, dphi):
    """d1 of phi from its gradient X and divergence dphi, and the trace
    residual of the symmetrized derivative before projection, relative to
    max|X| and worst over a batch; ConventionError above _TRACE_GUARD."""
    cache, p, n = phi.cache, phi.rank, phi.n
    mono = fields._sym_apply(n, p, X)
    corr = fields._left(_d1_correction_matrix(n, p), dphi, n)
    corr = fields._scale(corr, cache.conformal_factor(2.0))
    mono = mono + sym_insert_coefficient(n, p) * corr
    # the metric trace is e^{-2f} times the flat trace, so the flat trace
    # vanishes with it; held in the units of X it is free of the factor
    # e^{-2 min f}, which would amplify roundoff where f dips deep.
    tr = fields._left(fiber.trace_matrix(n, p + 1), mono, n)
    # relative to the gradient, not to the output: the output vanishes on
    # the kernel (conformal Killing tensors), the gradient does not.  Each
    # member of a batch is held to its own gradient.
    batch = phi.batch_shape
    rel = float(np.max(_abs_max(tr, batch) / (_abs_max(X, batch) + _TINY)))
    if rel > _TRACE_GUARD:
        raise ConventionError(
            f"trace residual {rel:.3e} of the symmetrized derivative exceeds "
            f"{_TRACE_GUARD:.1e}: divergence sign or insertion "
            "normalization is inconsistent"
        )
    _, C = fiber.tracefree_basis(n, p + 1)
    return TensorField(cache, "s0", p + 1, fields._left(C, mono, n)), rel


def _d2_from_delta(cache, p, dphi_coords):
    K2 = _d2_structure(cache.n, p)
    out = fields._left(-K2.reshape(-1, K2.shape[-1]), dphi_coords, cache.n,
                       fiber_out=K2.shape[:2])
    return fields._scale(out, cache.conformal_factor(2.0))


def d2_insertion_oracle(dphi: TensorField):
    """Independent route to d2 from the divergence dphi = delta phi of a
    rank-p field: -(1/lambda) times the equivariant insertion of dphi."""
    if dphi.tag != "s0":
        raise FieldError("d2_insertion_oracle expects the 's0' divergence of a field")
    cache, n, p = dphi.cache, dphi.n, dphi.rank + 1
    lam = insertion_eigenvalue(n, p)
    E = _insertion_matrix_mono(n, p)
    mono = -(1.0 / lam) * fields._left(E.reshape(-1, E.shape[-1]), dphi.data, n,
                                       fiber_out=E.shape[:2])
    mono = fields._scale(mono, cache.conformal_factor(2.0))
    _, C = fiber.tracefree_basis(n, p)
    return TensorField(cache, "cov_s0", p, fields._left(C, mono, n))


def embed_symmetrized(omega: TensorField):
    """Isometric slot regrouping of a rank p+1 trace-free field into T* (x) S0^p."""
    if omega.tag != "s0" or omega.rank < 1:
        raise FieldError("embed_symmetrized expects an 's0' field of rank >= 1")
    cache, p, n = omega.cache, omega.rank - 1, omega.n
    e = fiber.embed_matrix(n, p)
    t = fiber.tracefree_dim(n, p)
    return TensorField(cache, "cov_s0", p, fields._left(e, omega.data, n, fiber_out=(n, t)))


@dataclass(frozen=True)
class GradientSplit:
    """The three pieces of one covariant derivative, with diagnostics.

    divergence is delta phi, the contraction of the same gradient that d1
    and d2 are built from; embedded is d1 regrouped into T* (x) S0^p
    (`embed_symmetrized`), formed once by `decompose` for d3 and read by
    the diagnostics and the projector match.  The diagnostics are computed
    together on first read, and only for a single field:
    reconstruction_residual is relative
    and by construction at roundoff; orthogonality holds pairwise relative
    L2 inner products of the three embedded pieces, which vanish exactly
    when the conventions are right; norms holds the L2 norms of the
    gradient and of the embedded pieces.  insertion_trace is the trace
    residual of d1's symmetrized derivative before it was projected,
    relative to max|X| of the gradient (worst over a batch): d1's guard
    let it through, and the metric insertion makes it roundoff.
    """

    d1: TensorField
    d2: TensorField
    d3: TensorField
    divergence: TensorField
    grad: TensorField
    insertion_trace: float
    embedded: TensorField

    @cached_property
    def _diagnostics(self):
        emb, d2f, d3f = self.embedded, self.d2, self.d3
        g_norm = l2_norm(self.grad)
        norms = {
            "grad": g_norm,
            "d1": l2_norm(emb),
            "d2": l2_norm(d2f),
            "d3": l2_norm(d3f),
        }
        # normalize cross terms by the total energy: a zero piece (possible
        # at n = 2) must not turn roundoff/roundoff into an O(1) ratio
        ortho = {}
        for (na, a), (nb, b) in (
            (("d1", emb), ("d2", d2f)),
            (("d1", emb), ("d3", d3f)),
            (("d2", d2f), ("d3", d3f)),
        ):
            ortho[f"{na}_{nb}"] = abs(l2_inner(a, b)) / (g_norm**2 + _TINY)
        recon = emb + d2f + d3f
        return l2_norm(self.grad - recon) / (g_norm + _TINY), ortho, norms

    @property
    def reconstruction_residual(self):
        return self._diagnostics[0]

    @property
    def orthogonality(self):
        return self._diagnostics[1]

    @property
    def norms(self):
        return self._diagnostics[2]


def decompose(phi: TensorField):
    """Split nabla phi into the three irreducible pieces, reusing one gradient.

    phi may be a batch of fields; the pieces are then batches too."""
    _check_phi(phi)
    cache, p = phi.cache, phi.rank
    grad = fields.gradient(phi)
    dphi = fields._contract_apply(cache, p, grad.data)
    om, trace = _d1_from_grad(phi, grad.data, dphi)
    d2f = TensorField(cache, "cov_s0", p, _d2_from_delta(cache, p, dphi))
    emb = embed_symmetrized(om)
    return GradientSplit(
        d1=om,
        d2=d2f,
        d3=grad - emb - d2f,
        divergence=TensorField(cache, "s0", p - 1, dphi),
        grad=grad,
        insertion_trace=trace,
        embedded=emb,
    )


def _projector_parts(X: TensorField):
    """The A, B and C parts of a 'cov_s0' field under the constant fiber
    projectors, formed one at a time as they are drawn."""
    shape = X.data.shape[X.data.ndim - X.n - 2:X.data.ndim - X.n]
    for P in fiber.flat_projector_matrices(X.n, X.rank):
        yield TensorField(X.cache, "cov_s0", X.rank,
                          fields._left(P, X.data, X.n, 2, fiber_out=shape))


def projector_components(X: TensorField):
    """Split a 'cov_s0' field with the constant fiber projectors (oracle route)."""
    if X.tag != "cov_s0":
        raise FieldError("projector_components expects a 'cov_s0' field")
    return dict(zip("ABC", _projector_parts(X)))


def projector_match_residuals(sp: GradientSplit):
    """Relative mismatch of each structure-tensor piece of a split against
    the projector route applied to its gradient.  The projector parts are
    formed one at a time, each dropped after its residual is read."""
    parts = _projector_parts(sp.grad)
    scale = sp.norms["grad"] + _TINY
    return {
        "d1": l2_norm(sp.embedded - next(parts)) / scale,
        "d2": l2_norm(sp.d2 - next(parts)) / scale,
        "d3": l2_norm(sp.d3 - next(parts)) / scale,
    }


# ---------------------------------------------------------------------------
# exact weighted adjoints
# ---------------------------------------------------------------------------

# Each piece is a constant fiber map applied to the gradient, so its exact adjoint applies that map's transpose (the pieces'
# sums and differences folded into one cached structure tensor) and then
# the one weighted gradient transpose: n derivatives per adjoint.

@fiber._frozen_cache
def _d1_transpose_structure(n, p):
    """(t_{p+1}, n, t_p): d1's pointwise map from the gradient, transposed.

    The conformal factors of the divergence and of its reinsertion cancel, so d1 phi = C F X for the gradient X with the
    constant F = S + c Dcorr (-K0): the symmetrization, plus the insertion
    coefficient times the flat pair insertion of the divergence
    contraction.  Its transpose in the trace-free basis is
    B^T diag(mult) F.
    """
    K0 = fields._k0(n, p)
    F = fields._sym_insert_expanded(n, p) + sym_insert_coefficient(n, p) * np.einsum(
        "Jb,bia->Jia", _d1_correction_matrix(n, p), -K0)
    B, _ = fiber.tracefree_basis(n, p + 1)
    return np.einsum("Jc,J,Jia->cia", B, fiber.multiplicities(n, p + 1), F)


@fiber._frozen_cache
def _d2_transpose_structure(n, p):
    """(n t_p, n, t_p): d2's pointwise map from the gradient, transposed:
    the reinsertion rows K2 after the divergence contraction K0 (their
    signs and conformal factors cancel)."""
    K2 = _d2_structure(n, p)
    K0 = fields._k0(n, p)
    return (K2.reshape(-1, K2.shape[-1]) @ fields._slots(K0)).reshape((-1,) + K0.shape[1:])


@fiber._frozen_cache
def _d3_transpose_structure(n, p):
    """(n t_p, n, t_p): d3 = the gradient minus the embedded d1 and d2, so
    its transpose is the identity minus theirs."""
    t = fiber.tracefree_dim(n, p)
    A1 = _d1_transpose_structure(n, p)
    A = (np.eye(n * t) - fiber.embed_matrix(n, p) @ fields._slots(A1)
         - fields._slots(_d2_transpose_structure(n, p)))
    return A.reshape(n * t, n, t)


def _exact_adjoint(cache, p, y, A, axes):
    """The exact adjoint into rank p of a first-order piece whose pointwise
    map from the gradient has the transpose A (rows, n, t_p), applied to
    data y (..., *fiber, *grid) whose last `axes` fiber axes hold the rows:
    one left product into the gradient's layout, one weighted gradient
    transpose."""
    X = fields._left(fields._slots(A).T, y, cache.n, axes, fiber_out=A.shape[1:])
    return TensorField(cache, "s0", p, fields._weighted_grad_transpose(cache, p, X))


def d1_exact_adjoint(omega: TensorField):
    """Exact weighted adjoint of d1, rank p+1 -> p."""
    if omega.tag != "s0" or omega.rank < 2:
        raise FieldError("d1_exact_adjoint expects an 's0' field of rank >= 2")
    p = omega.rank - 1
    return _exact_adjoint(omega.cache, p, omega.data, _d1_transpose_structure(omega.n, p), 1)


def d2_exact_adjoint(X: TensorField):
    """Exact weighted adjoint of d2."""
    if X.tag != "cov_s0":
        raise FieldError("d2_exact_adjoint expects a 'cov_s0' field")
    return _exact_adjoint(X.cache, X.rank, X.data, _d2_transpose_structure(X.n, X.rank), 2)


def d3_exact_adjoint(X: TensorField):
    """Exact weighted adjoint of d3."""
    if X.tag != "cov_s0":
        raise FieldError("d3_exact_adjoint expects a 'cov_s0' field")
    return _exact_adjoint(X.cache, X.rank, X.data, _d3_transpose_structure(X.n, X.rank), 2)


# ---------------------------------------------------------------------------
# second-order compositions
# ---------------------------------------------------------------------------

def sampson(phi: TensorField):
    """Symmetrized Laplacian (p+1) delta delta* - p delta* delta, tag 's'."""
    _check_phi(phi)
    p = phi.rank
    a = fields.divergence(fields.sym_derivative(phi))
    b = fields.sym_derivative(fields.divergence(phi))
    return (p + 1.0) * a - float(p) * b


def weitzenbock_K(phi: TensorField):
    """Zeroth-order curvature term relating the two second-order Laplacians:
    nabla*nabla phi minus the trace-free part of the symmetrized Laplacian."""
    _check_phi(phi)
    lap = fields.rough_laplacian(phi)
    return lap - fields.to_tracefree(sampson(phi))


def curvature_action(phi: TensorField):
    """The pointwise Ricci/Riemann slot action e^{-2f} T @ S_T
    (`_curvature_matrix`) with the cache's exact T, the oracle of
    `weitzenbock_K`.

    T = Hess f - df (x) df + (1/2) |df|^2 delta is exactly 0 where f
    depends on no axis, and T_jk off the diagonal is exactly 0 unless f
    depends on both axes j and k.  The sum runs over the other entries:
    per entry one matmul by S_T[j, k], scaled by e^{-2f} T_jk.  A flat
    metric has no such entry, and the sum is empty.
    """
    _check_phi(phi)
    cache, p, n = phi.cache, phi.rank, phi.n
    mono = phi.monomial()
    m = fiber.sym_dim(n, p)
    out = np.zeros_like(mono)
    v = cache.exponent.variables
    entries = [(j, k) for j in range(n) for k in range(n)
               if v and (j == k or (j in v and k in v))]
    for j, k in entries:
        S = _curvature_matrix(n, p).reshape(n, n, m, m)[j, k]
        Y = fields._left(S, mono, n)
        Y *= cache.conformal_factor(-2.0) * cache.T[j, k]
        out += Y
    return fields.field_from_monomial(cache, p, out)


def zeroth_order_residual(phi: TensorField, u_values: np.ndarray, K: TensorField):
    """||K(u phi) - u K(phi)|| / ||phi|| for a scalar u, given K = K(phi).

    A genuinely zeroth-order operator commutes with pointwise scalar
    multiplication, so this must vanish under grid refinement.
    """
    up = TensorField(phi.cache, "s0", phi.rank, phi.data * u_values)
    Ku = weitzenbock_K(up)
    uK = K.data * u_values
    diff = TensorField(phi.cache, "s0", phi.rank, Ku.data - uK)
    return l2_norm(diff) / (l2_norm(phi) + _TINY)


def second_order_residuals(phi: TensorField, u_values=None):
    """Every second-order identity residual of one field, from one evaluation.

    The field is decomposed once; the divergence delta phi comes with the
    split, the symmetrized derivative delta* phi is read off its gradient,
    and the two compositions delta delta* phi and delta* delta phi, the
    symmetrized Laplacian, nabla*nabla phi (the weighted transpose of the
    same gradient), the three exact-transpose compositions T_i = d_i* d_i
    phi, the curvature term and its pointwise oracle are each formed once.
    Every operator keeps the arithmetic of its standalone function
    (`sampson`, `weitzenbock_K`, `curvature_action`), so T1 is bit-for-bit
    d1_exact_adjoint(d1(phi)), the d1* d1 of `spectral.d1_star_d1_handle`,
    and K the operational curvature term.

    Each array is dropped right after its last read, and the work runs in
    the order that keeps the fewest arrays alive: T1, T2, nabla*nabla phi
    and delta* phi first, each piece of the split dropped once read; the
    compositions of delta* phi and delta phi next; T3 when d3 phi is all
    that is left of the split; the pointwise oracle and the zeroth-order
    residual last, beside phi and K alone.  The order changes no
    floating-point operation, and the traced peak is about 7 gradients of
    phi (14 when every intermediate lived until the return).

    Keys (relative residuals):
      reconstruction       the split's reconstruction residual
      two_route            formula route of d1* d1, the trace-free part of
                           delta delta* phi - c delta* delta phi
                           (c = `sw_coefficient`), against T1
      splitting_form       d1* d1 formula against its symmetrized-Laplacian
                           form (algebraically equal: roundoff)
      split_vs_rough       nabla*nabla against T1 + T2 + T3 (roundoff)
      d2_composition       T2 against its formula kappa (delta* delta phi)_0
                           (`d2_composition_coefficient`), on the
                           split_vs_rough scale, which does not vanish
                           with T2
      rough_identity, difference_identity
                           the two Weitzenbock formulas for T1, against
                           analytic-formula routes (discretization error)
      curvature_oracle     operational K against the pointwise formula
      energy, rough_energy, split_energy, q_form_route
                           quadratic-form identities through exact
                           first-order norms (roundoff)
      energy_flipped       the energy identity with the opposite sign on
                           the divergence term, NOT expected to vanish
      flat_zero            ||K phi|| / ||phi||, zero on a flat torus
      zeroth_order         `zeroth_order_residual`, only when u_values
                           (a scalar field) is given
    """
    _check_phi(phi)
    cache, p, n = phi.cache, phi.rank, phi.n
    sp = decompose(phi)
    # the split computes its diagnostics on first read: read them while few
    # arrays are alive
    norms = sp.norms
    out = {"reconstruction": sp.reconstruction_residual}
    grad, d1f, d2f, d3f, dv = sp.grad, sp.d1, sp.d2, sp.d3, sp.divergence
    del sp
    T1 = d1_exact_adjoint(d1f)
    del d1f
    T2 = d2_exact_adjoint(d2f)
    del d2f
    lap = fields.gradient_adjoint(grad)
    ds = TensorField(cache, "s", p + 1, fields._sym_apply(n, p, grad.data))
    del grad
    nDs = l2_inner(ds, ds)
    nDel = l2_inner(dv, dv)
    dds = fields.divergence(ds)
    del ds
    dsd = fields.sym_derivative(dv)
    del dv
    t2 = fields.to_tracefree(dsd)
    sw = fields.to_tracefree(dds) - sw_coefficient(n, p) * t2
    samp = fields.to_tracefree((p + 1.0) * dds - float(p) * dsd)
    del dds, dsd

    out["two_route"] = l2_norm(sw - T1) / (l2_norm(sw) + _TINY)
    c_d = (p / (p + 1.0)) * (1.0 - 2.0 / (n + 2.0 * (p - 1.0)))
    alt = TensorField(cache, "s0", p, samp.data / (p + 1.0) + c_d * t2.data)
    out["splitting_form"] = l2_norm(sw - alt) / (l2_norm(sw) + _TINY)
    del sw, alt

    K = lap - samp
    del samp
    T3 = d3_exact_adjoint(d3f)
    del d3f
    c34 = energy_coefficient(n, p)
    c41 = (p + 1) * c34
    scale = max(l2_norm(lap), l2_norm(K), l2_norm(phi)) + _TINY
    out["split_vs_rough"] = l2_norm(lap - (T1 + T2 + T3)) / scale
    out["rough_identity"] = l2_norm((p + 1.0) * T1 - (lap - K + c41 * t2)) / scale
    out["difference_identity"] = l2_norm(float(p) * T1 - T2 - T3 - (c41 * t2 - K)) / scale
    out["d2_composition"] = l2_norm(T2 - d2_composition_coefficient(n, p) * t2) / scale
    del lap, T1, T2, T3, t2

    K_orc = curvature_action(phi)
    k_scale = max(l2_norm(K), l2_norm(K_orc), 1e-6 * scale) + _TINY
    out["curvature_oracle"] = l2_norm(K - K_orc) / k_scale
    del K_orc

    # second-order quadratic forms as weighted norms of the discrete
    # first-order operators (the exact-transpose convention)
    nG = norms["grad"] ** 2
    nD1 = norms["d1"] ** 2
    nD2 = norms["d2"] ** 2
    nD3 = norms["d3"] ** 2
    sampson_q = (p + 1.0) * nDs - float(p) * nDel
    K_q = nG - sampson_q
    # pointwise <K phi, phi> with the conformal fiber inner product
    q_pointwise = l2_inner(K, phi)
    e_scale = max(nG, nD1, nDs, nDel) + _TINY
    out["energy"] = abs(nD1 - (sampson_q / (p + 1) + c34 * nDel)) / e_scale
    out["energy_flipped"] = abs(nD1 - (sampson_q / (p + 1) - c34 * nDel)) / e_scale
    out["rough_energy"] = abs((p + 1) * nD1 - (nG - K_q + c41 * nDel)) / e_scale
    out["split_energy"] = abs(p * nD1 - nD2 - nD3 - (c41 * nDel - K_q)) / e_scale
    out["q_form_route"] = abs(q_pointwise - K_q) / e_scale

    out["flat_zero"] = l2_norm(K) / (l2_norm(phi) + _TINY)
    if u_values is not None:
        out["zeroth_order"] = zeroth_order_residual(phi, u_values, K)
    return out


# ---------------------------------------------------------------------------
# measured diagnostics
# ---------------------------------------------------------------------------

def ahlfors_deformation(grad: TensorField):
    """Trace-free deformation tensor of a 1-form, from its covariant
    derivative `grad` (a 'cov_s0' field of rank 1), built from components.

    Independent of d1's structure tensors: symmetrize the covariant
    derivative by hand and subtract the conformal trace along the metric.
    The conformal factors of trace and metric cancel pointwise.
    """
    if grad.tag != "cov_s0" or grad.rank != 1:
        raise FieldError("ahlfors_deformation expects the gradient of a 1-form")
    X, n = grad.data, grad.n
    i, a = X.ndim - n - 2, X.ndim - n - 1  # the covariant and the fiber axis
    S = X + np.swapaxes(X, i, a)
    trg = np.expand_dims(np.trace(X, axis1=i, axis2=a), (i, a))
    S = S - (2.0 / n) * trg * np.eye(n).reshape((n, n) + (1,) * n)
    grid = (slice(None),) * n
    mono = np.stack([S[(Ellipsis, j, k) + grid] for j, k in fiber.sym_indices(n, 2)], axis=i)
    return fields.field_from_monomial(grad.cache, 2, mono)


def ahlfors_ratio(sp: GradientSplit):
    """Measured ||S phi||^2 / ||d1 phi||^2 of a 1-form phi (expected constant
    4), read off its split: S is `ahlfors_deformation` of the split's
    gradient and d1 phi its first piece."""
    S = ahlfors_deformation(sp.grad)
    return l2_norm(S) ** 2 / (l2_norm(sp.d1) ** 2 + _TINY)
