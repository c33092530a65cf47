"""First-order gradients on trace-free symmetric tensor fields.

The covariant derivative of a trace-free symmetric rank-p field takes
values in T* (x) S0^p, which splits into three irreducible O(n) summands.
This module realizes the corresponding first-order operators:

    d1   trace-free symmetrized derivative, rank p -> p+1 ("s0" storage)
    d2   divergence reinserted along the metric ("cov_s0" storage)
    d3   the remainder piece ("cov_s0" storage)

together with exact weighted adjoints and the second-order compositions
(rough Laplacian splitting, symmetrized Laplacian, the zeroth-order
curvature term).  `second_order_residuals` forms every second-order
identity residual of one field (Weitzenbock formulas, energy identities,
curvature-term routes) from one decomposition and one evaluation of each
operator; it is the only place that decides how such a residual is formed.

Every operator has at least two independent routes that the tests compare
and never collapse:

  * d1/d2/d3 from explicit structure tensors  vs  constant fiber projectors
    applied to the same discrete covariant derivative;
  * d2 literal coefficients  vs  the equivariant-insertion image of the
    divergence scaled by the contraction eigenvalue;
  * second-order compositions from analytic formulas  vs  exact-transpose
    compositions of the discrete first-order pieces;
  * the curvature term operationally (nabla*nabla - Delta_S)  vs  the
    pointwise Ricci/Riemann formula.

Sign and normalization conventions are pinned by arbitration checks that
raise ConventionError instead of silently projecting away a discrepancy.
The `Conventions` knobs exist so negative-control tests can corrupt a
convention and watch the right checks fail.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import fiber, fields
from .fields import FieldError, TensorField, l2_inner, l2_norm

_TINY = 1e-300

# grid points per block in the curvature route of weitzenbock_K; one
# block's (m, m) matrices take at most 0.8 MB up to n = 3, p = 3
_CURVATURE_BLOCK = 1024

# largest trace residual of d1's symmetrized derivative, relative to max|X|
# of the gradient X, that d1 accepts before raising ConventionError
_TRACE_GUARD = 1e-6


class ConventionError(RuntimeError):
    """A sign or normalization convention failed its arbitration check."""


@dataclass(frozen=True)
class Conventions:
    """Sign/prefactor knobs; defaults are the arbitrated conventions.

    Non-default values are for negative controls only: a corrupted
    convention must break the matching arbitration or orthogonality
    check, while leaving by-definition identities intact.
    """

    delta_sign: float = 1.0
    d2_prefactor_scale: float = 1.0


DEFAULT_CONVENTIONS = Conventions()


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


def energy_coefficient(n: int, p: int) -> float:
    """Coefficient of ||delta phi||^2 in the first-gradient energy identity."""
    return p * (n + 2 * (p - 2)) / ((p + 1) * (n + 2 * (p - 1)))


# ---------------------------------------------------------------------------
# constant structure matrices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _d1_correction_matrix(n, p):
    """Monomial rank p+1 <- trace-free rank p-1: flat metric pair insertion."""
    B_low, _ = fiber.tracefree_basis(n, p - 1)
    M = fiber.insert_matrix(n, p + 1) @ B_low
    M.flags.writeable = False
    return M


@lru_cache(maxsize=None)
def _curvature_matrix(n, p):
    """S_T (n^2, m^2): the pointwise curvature action as a linear map of T.

    With S1[(j, k), (A, B)] = Q[A, j, k, B] (`fiber.slot_replace_tensor`)
    and S2[(j, k, l, s), (A, B)] = Q2[A, j, k, l, s, B]
    (`fiber.double_slot_replace_tensor`), the action is R_j^k S1 -
    R_j^k_l^s S2.  g^{-1} = e^{-2f} delta raises each index by e^{-2f}, and
    the cache's closed forms (`geometry.GeometryCache`) give R_j^k =
    -e^{-2f} ((n - 2) T + tr T delta)_jk and R_j^k_l^s = -e^{-2f}
    (T o delta)_jkls, so the action is e^{-2f} T @ S_T with S_T = L1 S1 +
    L2 S2, L1 and L2 the linear maps T -> -Ric and T -> T o delta.  The S2
    term is absent below rank 2.
    """
    m = fiber.sym_dim(n, p)
    eye = np.eye(n)
    L1 = (n - 2) * np.eye(n * n) + np.outer(eye, eye)
    S = -L1 @ np.moveaxis(fiber.slot_replace_tensor(n, p), 0, 2).reshape(n * n, m * m)
    if p >= 2:
        # (E_ab o delta)_jkls for the unit matrices E_ab, rows (a, b)
        E = np.eye(n * n).reshape(n, n, n, n)
        L2 = (np.einsum("abjl,ks->abjkls", E, eye) + np.einsum("abks,jl->abjkls", E, eye)
              - np.einsum("abjs,kl->abjkls", E, eye) - np.einsum("abkl,js->abjkls", E, eye))
        S2 = np.moveaxis(fiber.double_slot_replace_tensor(n, p), 0, 4).reshape(n**4, m * m)
        S += L2.reshape(n * n, n**4) @ S2
    S.flags.writeable = False
    return S


@lru_cache(maxsize=None)
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
    M = d2_prefactor(n, p) * np.einsum("iAB,Bb->iAb", comb, B_low)
    M.flags.writeable = False
    return M


@lru_cache(maxsize=None)
def _d2_structure(n, p):
    """K2[i, a, b]: the literal reinsertion rows compressed to trace-free bases."""
    _, Cp = fiber.tracefree_basis(n, p)
    K2 = np.ascontiguousarray(np.einsum("aA,iAb->iab", Cp, _d2_literal_mono(n, p)))
    K2.flags.writeable = False
    return K2


@lru_cache(maxsize=None)
def _insertion_matrix_mono(n, p):
    """(n, m_p, t_{p-1}) monomial rows of the equivariant insertion map.

    Independently coded route (`fiber._insert_map_columns`: averaged
    symmetrization plus pair-weighted insertion, compressed to the trace-free
    basis) used as an oracle against the literal display rows.
    """
    B_low, _ = fiber.tracefree_basis(n, p - 1)
    cols = fiber._insert_map_columns(n, p, B_low)
    Bp, _ = fiber.tracefree_basis(n, p)
    t = Bp.shape[1]
    out = np.stack([Bp @ cols[i * t : (i + 1) * t, :] for i in range(n)])
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# the three first-order pieces
# ---------------------------------------------------------------------------

def d1(phi: TensorField, conventions: Conventions = DEFAULT_CONVENTIONS):
    """Trace-free symmetrized derivative, rank p -> p+1.

    The metric-insertion correction must cancel the trace of the
    symmetrized derivative identically; the conformal trace residual is
    checked pointwise before compressing, and a violation raises
    ConventionError.  This arbitration pins the insertion normalization
    (sum over all index pairs with weight 1/(p+1)).
    """
    _check_phi(phi)
    X = fields._grad_apply(phi.cache, phi.rank, phi.data)
    dphi = fields._contract_apply(phi.cache, phi.rank, X) * conventions.delta_sign
    return _d1_from_grad(phi, X, dphi)


def _d1_from_grad(phi, X, dphi):
    cache, p, n = phi.cache, phi.rank, phi.n
    mono = fields._sym_apply(n, p, X)
    corr = dphi @ _d1_correction_matrix(n, p).T
    corr = fields._scale(corr, cache.conformal_factor(2.0), 1)
    mono = mono + sym_insert_coefficient(n, p) * corr
    # the metric trace is e^{-2f} times the flat trace, so the flat trace
    # vanishes with it; held in the units of X it is free of the factor
    # e^{-2 min f}, which would amplify roundoff where f dips deep.
    tr = mono @ fiber.trace_matrix(n, p + 1).T
    # relative to the gradient, not to the output: the output vanishes on
    # the kernel (conformal Killing tensors), the gradient does not.  Each
    # member of a batch is held to its own gradient.
    batch = phi.batch_shape
    tr_max = np.max(np.abs(tr).reshape(batch + (-1,)), axis=-1)
    x_max = np.max(np.abs(X).reshape(batch + (-1,)), axis=-1)
    rel = float(np.max(tr_max / (x_max + _TINY)))
    if rel > _TRACE_GUARD:
        raise ConventionError(
            f"trace residual {rel:.3e} of the symmetrized derivative exceeds "
            f"{_TRACE_GUARD:.1e}: divergence sign or insertion "
            "normalization is inconsistent"
        )
    _, C = fiber.tracefree_basis(n, p + 1)
    return TensorField(cache, "s0", p + 1, mono @ C.T)


def d2(phi: TensorField, conventions: Conventions = DEFAULT_CONVENTIONS):
    """Divergence-reinsertion part of the covariant derivative."""
    _check_phi(phi)
    dphi = fields.divergence(phi) * conventions.delta_sign
    data = _d2_from_delta(
        phi.cache, phi.rank, dphi.data, conventions.d2_prefactor_scale
    )
    return TensorField(phi.cache, "cov_s0", phi.rank, data)


def _d2_from_delta(cache, p, dphi_coords, scale=1.0):
    K2 = _d2_structure(cache.n, p)
    out = dphi_coords @ -K2.reshape(-1, K2.shape[-1]).T
    out = out.reshape(dphi_coords.shape[:-1] + K2.shape[:2])
    out = fields._scale(out, cache.conformal_factor(2.0), 2)
    return out if scale == 1.0 else scale * out


def d2_insertion_oracle(phi: TensorField, conventions: Conventions = DEFAULT_CONVENTIONS):
    """Independent route to d2: -(1/lambda) times the insertion of the divergence."""
    _check_phi(phi)
    cache, p, n = phi.cache, phi.rank, phi.n
    dphi = fields.divergence(phi) * conventions.delta_sign
    lam = insertion_eigenvalue(n, p)
    mono = -(1.0 / lam) * np.einsum(
        "iAb,...b->...iA", _insertion_matrix_mono(n, p), dphi.data
    )
    mono = fields._scale(mono, cache.conformal_factor(2.0), 2)
    _, C = fiber.tracefree_basis(n, p)
    return TensorField(cache, "cov_s0", p, mono @ C.T)


def embed_symmetrized(omega: TensorField):
    """Isometric slot regrouping of a rank p+1 trace-free field into T* (x) S0^p."""
    if omega.tag != "s0" or omega.rank < 1:
        raise FieldError("embed_symmetrized expects an 's0' field of rank >= 1")
    cache, p, n = omega.cache, omega.rank - 1, omega.n
    e = fiber.embed_matrix(n, p)
    t = fiber.tracefree_dim(n, p)
    flat = omega.data @ e.T
    return TensorField(cache, "cov_s0", p, flat.reshape(flat.shape[:-1] + (n, t)))


def embed_transpose(X: TensorField):
    """Pointwise transpose of embed_symmetrized; also its exact weighted adjoint,
    since domain and codomain carry the same conformal weight."""
    if X.tag != "cov_s0":
        raise FieldError("embed_transpose expects a 'cov_s0' field")
    cache, p = X.cache, X.rank
    e = fiber.embed_matrix(X.n, p)
    flat = X.data.reshape(X.data.shape[:-2] + (-1,))
    return TensorField(cache, "s0", p + 1, flat @ e)


def d3(phi: TensorField, conventions: Conventions = DEFAULT_CONVENTIONS):
    """Remainder piece: the covariant derivative minus the other two parts."""
    return decompose(phi, conventions).d3


@dataclass(frozen=True)
class GradientSplit:
    """The three pieces of one covariant derivative, with diagnostics.

    divergence is delta phi, the contraction of the same gradient that d1
    and d2 are built from.  The diagnostics are computed together on first
    read, and only for a single field: reconstruction_residual is relative
    and by construction at roundoff; orthogonality holds pairwise relative
    L2 inner products of the three embedded pieces, which vanish exactly
    when the conventions are right; norms holds the L2 norms of the
    gradient and of the embedded pieces.
    """

    d1: TensorField
    d2: TensorField
    d3: TensorField
    divergence: TensorField
    grad: TensorField

    @cached_property
    def _diagnostics(self):
        emb = embed_symmetrized(self.d1)
        d2f, d3f = self.d2, self.d3
        recon = emb + d2f + d3f
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


def decompose(phi: TensorField, conventions: Conventions = DEFAULT_CONVENTIONS):
    """Split nabla phi into the three irreducible pieces, reusing one gradient.

    phi may be a batch of fields; the pieces are then batches too."""
    _check_phi(phi)
    cache, p = phi.cache, phi.rank
    grad = fields.gradient(phi)
    dphi = fields._contract_apply(cache, p, grad.data) * conventions.delta_sign
    om = _d1_from_grad(phi, grad.data, dphi)
    d2f = TensorField(
        cache, "cov_s0", p,
        _d2_from_delta(cache, p, dphi, conventions.d2_prefactor_scale),
    )
    return GradientSplit(
        d1=om,
        d2=d2f,
        d3=grad - embed_symmetrized(om) - d2f,
        divergence=TensorField(cache, "s0", p - 1, dphi),
        grad=grad,
    )


def projector_components(X: TensorField):
    """Split a 'cov_s0' field with the constant fiber projectors (oracle route)."""
    if X.tag != "cov_s0":
        raise FieldError("projector_components expects a 'cov_s0' field")
    cache = X.cache
    parts = {}
    flat = fields._merged(X.data)
    for name, P in zip("ABC", fiber.flat_projector_matrices(X.n, X.rank)):
        parts[name] = TensorField(
            cache, "cov_s0", X.rank, (flat @ P.T).reshape(X.data.shape)
        )
    return parts


def projector_match_residuals(sp: GradientSplit):
    """Relative mismatch of each structure-tensor piece of a split against
    the projector route applied to its gradient."""
    parts = projector_components(sp.grad)
    scale = sp.norms["grad"] + _TINY
    return {
        "d1": l2_norm(embed_symmetrized(sp.d1) - parts["A"]) / scale,
        "d2": l2_norm(sp.d2 - parts["B"]) / scale,
        "d3": l2_norm(sp.d3 - parts["C"]) / scale,
    }


# ---------------------------------------------------------------------------
# exact weighted adjoints
# ---------------------------------------------------------------------------

def d1_exact_adjoint(omega: TensorField):
    """Exact weighted adjoint of d1 (at default conventions), rank p+1 -> p.

    Composed from exact pieces: the adjoint of the symmetrized derivative
    plus the coefficient times the adjoint of the divergence applied to
    the pointwise insertion transpose.  Pairings close at roundoff.
    """
    if omega.tag != "s0" or omega.rank < 2:
        raise FieldError("d1_exact_adjoint expects an 's0' field of rank >= 2")
    cache, n = omega.cache, omega.n
    p = omega.rank - 1
    om_s = TensorField(cache, "s", p + 1, omega.monomial())
    term1 = fields.sym_derivative_exact_adjoint(om_s)
    y = (om_s.data * fiber.multiplicities(n, p + 1)) @ _d1_correction_matrix(n, p)
    y = fields._scale(y, cache.conformal_factor(-2.0), 1)
    psi = TensorField(cache, "s0", p - 1, y)
    term2 = fields.divergence_exact_adjoint(psi)
    return term1 + sym_insert_coefficient(n, p) * term2


def d2_exact_adjoint(X: TensorField):
    """Exact weighted adjoint of d2 (at default conventions)."""
    if X.tag != "cov_s0":
        raise FieldError("d2_exact_adjoint expects a 'cov_s0' field")
    cache, p = X.cache, X.rank
    K2 = _d2_structure(X.n, p)
    y = fields._merged(X.data) @ -K2.reshape(-1, K2.shape[-1])
    y = fields._scale(y, cache.conformal_factor(-2.0), 1)
    return fields.divergence_exact_adjoint(TensorField(cache, "s0", p - 1, y))


def d3_exact_adjoint(X: TensorField):
    """Exact weighted adjoint of d3 (at default conventions)."""
    if X.tag != "cov_s0":
        raise FieldError("d3_exact_adjoint expects a 'cov_s0' field")
    return (
        fields.gradient_adjoint(X)
        - d1_exact_adjoint(embed_transpose(X))
        - d2_exact_adjoint(X)
    )


# ---------------------------------------------------------------------------
# second-order compositions
# ---------------------------------------------------------------------------

def stein_weiss_d1(phi: TensorField, route: str = "formula"):
    """Second-order composition d1* d1.

    route 'transpose' is the definitional oracle (exact adjoint after d1);
    route 'formula' is the trace-free projection of
    delta(delta* phi) - c delta*(delta phi) with c = sw_coefficient.
    """
    _check_phi(phi)
    if route == "transpose":
        return d1_exact_adjoint(d1(phi))
    if route != "formula":
        raise FieldError(f"unknown route {route!r}")
    c = sw_coefficient(phi.n, phi.rank)
    t1 = fields.to_tracefree(fields.divergence(fields.sym_derivative(phi)))
    t2 = fields.to_tracefree(fields.sym_derivative(fields.divergence(phi)))
    return t1 - c * t2


def sampson(phi: TensorField):
    """Symmetrized Laplacian (p+1) delta delta* - p delta* delta, tag 's'."""
    _check_phi(phi)
    p = phi.rank
    a = fields.divergence(fields.sym_derivative(phi))
    b = fields.sym_derivative(fields.divergence(phi))
    return (p + 1.0) * a - float(p) * b


def weitzenbock_K(phi: TensorField, route: str = "operational"):
    """Zeroth-order curvature term relating the two second-order Laplacians.

    route 'operational' (normative): nabla*nabla phi minus the trace-free
    part of the symmetrized Laplacian.  route 'curvature': the pointwise
    Ricci/Riemann slot action, e^{-2f} T @ S_T (`_curvature_matrix`) with
    the cache's exact T, kept as an independent oracle.
    """
    _check_phi(phi)
    if route == "operational":
        lap = fields.rough_laplacian(phi)
        return lap - fields.to_tracefree(sampson(phi))
    if route != "curvature":
        raise FieldError(f"unknown route {route!r}")
    cache, p, n = phi.cache, phi.rank, phi.n
    mono = phi.monomial()
    P, m = cache.spec.num_points, mono.shape[-1]
    S = _curvature_matrix(n, p)
    T = fields._scale(cache.T, cache.conformal_factor(-2.0), 2).reshape(P, n * n)
    x = mono.reshape(-1, P, m, 1)
    out = np.empty_like(x)
    # pointwise (m, m) curvature matrices and a batched matvec, one block of
    # points at a time so that the whole (P, m, m) stack is never held; the
    # batch axes lead and share each block's matrices
    for b in range(0, P, _CURVATURE_BLOCK):
        rows = slice(b, b + _CURVATURE_BLOCK)
        K = T[rows] @ S
        np.matmul(K.reshape(-1, m, m), x[:, rows], out=out[:, rows])
    return fields.field_from_monomial(cache, p, out.reshape(mono.shape), tag="s0")


def zeroth_order_residual(phi: TensorField, u_values: np.ndarray, K: TensorField):
    """||K(u phi) - u K(phi)|| / ||phi|| for a scalar u, given K = K(phi).

    A genuinely zeroth-order operator commutes with pointwise scalar
    multiplication, so this must vanish under grid refinement.
    """
    up = TensorField(phi.cache, "s0", phi.rank, phi.data * u_values[..., None])
    Ku = weitzenbock_K(up)
    uK = K.data * u_values[..., None]
    diff = TensorField(phi.cache, "s0", phi.rank, Ku.data - uK)
    return l2_norm(diff) / (l2_norm(phi) + _TINY)


def second_order_residuals(phi: TensorField, u_values=None):
    """Every second-order identity residual of one field, from one evaluation.

    The field is decomposed once; the divergence delta phi comes with the
    split, the symmetrized derivative delta* phi is read off its gradient,
    and the two compositions delta delta* phi and delta* delta phi, the
    symmetrized Laplacian, nabla*nabla phi (the weighted transpose of the
    same gradient), the three exact-transpose compositions T_i = d_i* d_i phi and
    both curvature-term routes are each formed once.  Every operator keeps
    the arithmetic of its standalone function (`sampson`,
    `stein_weiss_d1`, `weitzenbock_K`), so T1 is bit-for-bit the transpose
    route of d1* d1 and K the operational curvature term.

    Keys (relative residuals):
      reconstruction       the split's reconstruction residual
      two_route            formula against transpose route of d1* d1
      splitting_form       d1* d1 formula against its symmetrized-Laplacian
                           form (algebraically equal: roundoff)
      split_vs_rough       nabla*nabla against T1 + T2 + T3 (roundoff)
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
    # the curvature route first, while few arrays are alive
    K_orc = weitzenbock_K(phi, route="curvature")
    sp = decompose(phi)
    # the split computes its diagnostics on first read: read them while few
    # arrays are alive
    norms = sp.norms
    X = sp.grad.data
    ds = TensorField(cache, "s", p + 1, fields._sym_apply(n, p, X))
    dv = sp.divergence
    dds = fields.divergence(ds)
    dsd = fields.sym_derivative(dv)
    t2 = fields.to_tracefree(dsd)
    sw = fields.to_tracefree(dds) - sw_coefficient(n, p) * t2
    samp = fields.to_tracefree((p + 1.0) * dds - float(p) * dsd)
    lap = fields.gradient_adjoint(sp.grad)
    K = lap - samp
    T1 = d1_exact_adjoint(sp.d1)
    T2 = d2_exact_adjoint(sp.d2)
    T3 = d3_exact_adjoint(sp.d3)
    out = {"reconstruction": sp.reconstruction_residual}

    out["two_route"] = l2_norm(sw - T1) / (l2_norm(sw) + _TINY)
    c_d = (p / (p + 1.0)) * (1.0 - 2.0 / (n + 2.0 * (p - 1.0)))
    alt = TensorField(cache, "s0", p, samp.data / (p + 1.0) + c_d * t2.data)
    out["splitting_form"] = l2_norm(sw - alt) / (l2_norm(sw) + _TINY)

    c34 = energy_coefficient(n, p)
    c41 = (p + 1) * c34
    scale = max(l2_norm(lap), l2_norm(K), l2_norm(phi)) + _TINY
    out["split_vs_rough"] = l2_norm(lap - (T1 + T2 + T3)) / scale
    out["rough_identity"] = l2_norm((p + 1.0) * T1 - (lap - K + c41 * t2)) / scale
    out["difference_identity"] = l2_norm(float(p) * T1 - T2 - T3 - (c41 * t2 - K)) / scale
    k_scale = max(l2_norm(K), l2_norm(K_orc), 1e-6 * scale) + _TINY
    out["curvature_oracle"] = l2_norm(K - K_orc) / k_scale

    # second-order quadratic forms as weighted norms of the discrete
    # first-order operators (the exact-transpose convention)
    nG = norms["grad"] ** 2
    nD1 = norms["d1"] ** 2
    nD2 = norms["d2"] ** 2
    nD3 = norms["d3"] ** 2
    nDs = l2_inner(ds, ds)
    nDel = l2_inner(dv, dv)
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

def ahlfors_deformation(phi: TensorField):
    """Trace-free deformation tensor of a 1-form, built from components.

    Independent of d1's structure tensors: symmetrize the covariant
    derivative by hand and subtract the conformal trace along the metric.
    The conformal factors of trace and metric cancel pointwise.
    """
    if phi.tag != "s0" or phi.rank != 1:
        raise FieldError("ahlfors_deformation expects an 's0' field of rank 1")
    cache, n = phi.cache, phi.n
    X = fields.gradient(phi).data
    S = X + np.swapaxes(X, -1, -2)
    trg = np.einsum("...ii->...", X)
    S = S - (2.0 / n) * trg[..., None, None] * np.eye(n)
    m = fiber.sym_dim(n, 2)
    mono = np.empty(S.shape[:-2] + (m,))
    for A, (i, j) in enumerate(fiber.sym_indices(n, 2)):
        mono[..., A] = S[..., i, j]
    return fields.field_from_monomial(cache, 2, mono, tag="s0")


def ahlfors_ratio(phi: TensorField):
    """Measured ||S phi||^2 / ||d1 phi||^2 for 1-forms (expected constant 4)."""
    S = ahlfors_deformation(phi)
    om = d1(phi)
    return l2_norm(S) ** 2 / (l2_norm(om) ** 2 + _TINY)
