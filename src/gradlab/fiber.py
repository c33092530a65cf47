"""Pointwise algebra of symmetric and trace-free symmetric tensors.

A rank-p symmetric tensor over an n-dimensional inner-product space is stored
as one coefficient per nondecreasing multi-index ("monomial coordinates").
The trace-free subspace carries a fixed orthonormalized basis, so trace-free
storage is structural rather than penalized.  Every map between coordinate
systems is an explicit small matrix; this keeps adjoints exact.  Where a
slot operation sends a monomial index is recorded once, in one integer
table per (n, p), and every slot tensor is scattered from it, so each is
sized by its output.  The brute-force index loops, which work out each
index move for themselves through full n^p tensors, live in the tests as
the references these tensors are checked against.

Every construction here is over the flat inner product on R^n.  The lab
only builds metrics g = e^{2f} delta, whose orthonormal frames differ from
the flat one by a scalar, so the pointwise decomposition is the flat one;
the field modules apply the powers of e^{2f} separately.  The irreducible
projectors on T* (x) S0^p are gated where they are built (span dimensions
and orthogonality); the tests check the projector identities.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps
from itertools import combinations_with_replacement
from types import MappingProxyType

import numpy as np


class FiberAlgebraError(RuntimeError):
    """Internal inconsistency in the fiber algebra (signals a bug, not data)."""


def _frozen_cache(build):
    """`lru_cache` for a builder of shared structure: every array it returns,
    alone or in a tuple, is made read-only, so that no caller can change
    what the next one reads."""
    @wraps(build)
    def frozen(*key):
        out = build(*key)
        for a in out if isinstance(out, tuple) else (out,):
            a.flags.writeable = False
        return out
    return lru_cache(maxsize=None)(frozen)


# ---------------------------------------------------------------------------
# dimensions and index bookkeeping
# ---------------------------------------------------------------------------

def sym_dim(n: int, p: int) -> int:
    """Number of independent components of a symmetric p-tensor: C(n+p-1, p)."""
    if n < 1 or p < 0:
        raise ValueError(f"need n >= 1 and p >= 0, got n={n}, p={p}")
    return math.comb(n + p - 1, p)


def tracefree_dim(n: int, p: int) -> int:
    """Fiber dimension of trace-free symmetric p-tensors: C(n+p-1,p) - C(n+p-3,p-2)."""
    if n < 2 or p < 0:
        raise ValueError(f"need n >= 2 and p >= 0, got n={n}, p={p}")
    if p < 2:
        return sym_dim(n, p)
    return sym_dim(n, p) - sym_dim(n, p - 2)


def ck_dim_bound(n: int, p: int) -> int:
    """Maximal dimension of the first-gradient kernel, in exact integer arithmetic.

    The closed form is stated for n >= 3; for n = 2 the same expression is
    evaluated and callers should label it as extrapolated.
    """
    if n < 2 or p < 1:
        raise ValueError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
    num = (
        math.factorial(n + p - 3)
        * math.factorial(n + p - 2)
        * (n + 2 * p - 2)
        * (n + 2 * p - 1)
        * (n + 2 * p)
    )
    den = math.factorial(p) * math.factorial(p + 1) * math.factorial(n - 2) * math.factorial(n)
    q, r = divmod(num, den)
    if r:
        raise FiberAlgebraError(f"bound formula not integral at (n={n}, p={p})")
    return q


@lru_cache(maxsize=None)
def sym_indices(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All nondecreasing index tuples of length p over {0..n-1}."""
    return tuple(combinations_with_replacement(range(n), p))


@lru_cache(maxsize=None)
def sym_index_of(n: int, p: int) -> MappingProxyType:
    """Position of each index tuple in sym_indices(n, p), read-only."""
    return MappingProxyType({idx: a for a, idx in enumerate(sym_indices(n, p))})


@_frozen_cache
def _index_table(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The one record of how a slot operation moves a monomial index.

    Returns (up, counts), read-only integer arrays.  up[K, i] is the
    position in sym_indices(n, p) of sorted((i,) + K), for each rank p-1
    index K and axis i (no rows at p = 0).  Read backwards it removes a
    slot: where A = up[K, i], K is A with one i taken out and up[K, k] is
    A with that slot replaced by k.  counts[A, a] is the number of slots
    of index A that hold a.  Every slot tensor below is scattered from
    these two arrays.
    """
    pos = sym_index_of(n, p)
    lower = sym_indices(n, p - 1) if p else ()
    up = np.array([[pos[tuple(sorted((i,) + K))] for i in range(n)] for K in lower],
                  int).reshape(-1, n)
    idx = np.array(sym_indices(n, p), int).reshape(sym_dim(n, p), p)
    counts = np.sum(idx[:, :, None] == np.arange(n), axis=1)
    return up, counts


def _pair_positions(n: int, p: int) -> np.ndarray:
    """P[K, a, b]: position in sym_indices(n, p) of sorted((a, b) + K), for
    each rank p-2 index K."""
    up_low, _ = _index_table(n, p - 1)
    up, _ = _index_table(n, p)
    return up[up_low[:, :, None], np.arange(n)]


@_frozen_cache
def multiplicities(n: int, p: int) -> np.ndarray:
    """Number of distinct permutations of each monomial index: p! / prod_a c_a!."""
    _, counts = _index_table(n, p)
    factorials = np.array([math.factorial(k) for k in range(p + 1)])
    return math.factorial(p) / np.prod(factorials[counts], axis=1)


# ---------------------------------------------------------------------------
# trace, insertion and inner product
# ---------------------------------------------------------------------------

@_frozen_cache
def trace_matrix(n: int, p: int) -> np.ndarray:
    """Matrix of the trace over two slots, rank p -> rank p-2 coordinates."""
    if p < 2:
        raise ValueError("trace needs rank >= 2")
    ax = np.arange(n)
    doubled = _pair_positions(n, p)[:, ax, ax]
    T = np.zeros((len(doubled), sym_dim(n, p)))
    T[np.arange(len(doubled))[:, None], doubled] = 1.0
    return T


@_frozen_cache
def insert_matrix(n: int, q: int) -> np.ndarray:
    """Matrix of the metric insertion, rank q-2 -> rank q coordinates.

    Normalization: average of delta_{J_a J_b} psi_{rest} over all index pairs
    (a, b) with weight 1/q.  At output rank 3 this reproduces the three-term
    cyclic average exactly; for higher ranks it is the unique totally
    symmetric extension proportional to Sym(delta (x) psi), and it is the
    normalization under which the first gradient is trace-free (the
    arbitration test lives in the gradients module).  Index K + (i, i)
    has C(c_i, 2) slot pairs holding (i, i), c_i its count of i.
    """
    if q < 2:
        raise ValueError("insertion needs output rank >= 2")
    ax = np.arange(n)
    doubled = _pair_positions(n, q)[:, ax, ax]
    c = _index_table(n, q)[1][doubled, ax]
    M = np.zeros((sym_dim(n, q), len(doubled)))
    M[doubled, np.arange(len(doubled))[:, None]] = (c * (c - 1) // 2) / q
    return M


# ---------------------------------------------------------------------------
# trace-free bases
# ---------------------------------------------------------------------------

def _orthonormalize(columns: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Symmetric (Loewdin) orthonormalization of columns w.r.t. the diagonal
    Gram matrix of `weights`.  The weighted columns are laid out in C order,
    as a product with the dense diagonal would leave them: the layout picks
    the summation order of the next product, so M stays bit for bit that
    of the dense route."""
    M = np.multiply(columns.T, weights, order="C") @ columns
    w, V = np.linalg.eigh(M)
    if np.min(w) <= 1e-12 * np.max(w):
        raise FiberAlgebraError("degenerate span in orthonormalization")
    return columns @ (V / np.sqrt(w)) @ V.T


@_frozen_cache
def tracefree_basis(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed flat-orthonormal basis of the trace-free subspace.

    Returns (expand, compress): expand is (m, t) with orthonormal columns in
    the flat induced inner product; compress = expand^T W, W the diagonal
    Gram matrix of the monomial coordinates (`multiplicities`), is its left
    inverse, and expand @ compress is the flat trace-free projection.
    """
    m = sym_dim(n, p)
    if p < 2:
        B = np.eye(m)
    else:
        # null space by SVD, with the rank cutoff of scipy.linalg.null_space
        # (largest singular value times eps times the larger dimension); the
        # C-contiguous copy keeps the orthonormalized basis bit for bit equal
        # to that of scipy's null space
        T = trace_matrix(n, p)
        _, s, vh = np.linalg.svd(T)
        tol = np.amax(s, initial=0.0) * np.finfo(float).eps * max(T.shape)
        ns = np.ascontiguousarray(vh[int(np.sum(s > tol)):].T)
        if ns.shape[1] != tracefree_dim(n, p):
            raise FiberAlgebraError(f"null space dimension mismatch at (n={n}, p={p})")
        B = _orthonormalize(ns, multiplicities(n, p))
    return B, np.multiply(B.T, multiplicities(n, p), order="C")


@_frozen_cache
def parity_basis(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat-orthonormal basis of S0^p made of simultaneous eigenvectors of
    the coordinate reflections.

    A reflection is diagonal (+-1) on monomial coordinates, and the trace
    pairs two equal indices, so it keeps each coordinate's parity vector
    (the index counts mod 2): S0^p is the orthogonal sum of its parity
    classes.  The class projector in trace-free coordinates is C D B, D the
    0/1 diagonal of the class's monomials; its unit eigenvectors span the
    class.  Returns (Q, parity): Q is (t, t) orthogonal in trace-free
    coordinates with columns grouped by class in ascending parity order,
    and parity[beta, a] is 1 when column beta is odd under x_a -> -x_a.
    """
    B, C = tracefree_basis(n, p)
    odd = _index_table(n, p)[1] % 2
    columns, parity = [], []
    for cls in sorted(set(map(tuple, odd.tolist()))):
        w, V = np.linalg.eigh(C @ (np.all(odd == cls, axis=1)[:, None] * B))
        keep = V[:, w > 0.5]
        columns.append(keep)
        parity += [cls] * keep.shape[1]
    Q = np.hstack(columns)
    if Q.shape != (B.shape[1],) * 2:
        raise FiberAlgebraError(f"parity classes do not span S0^{p} at n={n}")
    return Q, np.array(parity, int).reshape(len(Q), n)


@_frozen_cache
def reflection_matrix(n: int, p: int, axis: int) -> np.ndarray:
    """The reflection x_axis -> -x_axis on S0^p in trace-free coordinates:
    C D B, D the diagonal of (-1)^(count of `axis`) over the monomial
    coordinates.  The coordinates are flat-orthonormal, so it is orthogonal."""
    B, C = tracefree_basis(n, p)
    sign = (-1.0) ** _index_table(n, p)[1][:, axis]
    return C @ (sign[:, None] * B)


# ---------------------------------------------------------------------------
# constant structure tensors used by the field operators
# ---------------------------------------------------------------------------

@_frozen_cache
def slot_replace_tensor(n: int, p: int) -> np.ndarray:
    """Q[A,j,k,B]: sum over slots of T^k_{J_a} phi_{J with a -> k} in coordinates.

    For any n x n matrix T (e.g. a Christoffel slice), the symmetric-slot
    action  phi_J -> sum_a T^k_{J_a} phi_{J|a->k}  is  einsum('jk,AjkB,B->A',
    T, Q, phi).  The c_j(A) slots of A = K + j holding j all give B = K + k.
    """
    up, counts = _index_table(n, p)
    m, ax = len(counts), np.arange(n)
    Q = np.zeros((m, n, n, m))
    Q[up[:, :, None], ax[:, None], ax, up[:, None, :]] = counts[up, ax][:, :, None]
    return Q


@_frozen_cache
def div_contract_tensor(n: int, p: int) -> np.ndarray:
    """Kc[B,i,A]: (flat) contraction of a covariant slot into symmetric slots,
    X_{i, iK} summed over i, rank p -> rank p-1 coordinates."""
    up, _ = _index_table(n, p)
    Kc = np.zeros((len(up), n, sym_dim(n, p)))
    Kc[np.arange(len(up))[:, None], np.arange(n), up] = 1.0
    return Kc


@_frozen_cache
def sym_insert_cov_tensor(n: int, p: int) -> np.ndarray:
    """Sm[J,i,A]: symmetrization of a covariant slot into symmetric slots,
    (1/(p+1)) sum_a X_{J_a, J\\a}, rank (1, p) -> rank p+1 coordinates.
    The c_i(J) slots of J = A + i holding i each leave A."""
    up, counts = _index_table(n, p + 1)
    ax = np.arange(n)
    Sm = np.zeros((len(counts), n, len(up)))
    Sm[up, ax, np.arange(len(up))[:, None]] = counts[up, ax] / (p + 1)
    return Sm


# ---------------------------------------------------------------------------
# the irreducible projectors on T* (x) S0^p
# ---------------------------------------------------------------------------

def _insert_map_columns(n: int, p: int) -> np.ndarray:
    """Columns (in (cov, trace-free) coordinates) of the equivariant injection
    of rank p-1 trace-free tensors into T* (x) S0^p.

    For psi trace-free of rank p-1 the map is
        Sym_J(delta_{i J_1} psi_{rest})  -  (2/(n+2(p-2))) (insert of psi_i)_J
    whose J-trace vanishes; for p = 1 the correction term is absent.  In
    slot tensors it is C_p (Sm - c Ins Kc) B_{p-1}, with psi_i = Kc_i psi
    the slice of psi at first index i.
    """
    mono = sym_insert_cov_tensor(n, p - 1)
    if p >= 2:
        Kc = div_contract_tensor(n, p - 1)
        Ins = insert_matrix(n, p) @ Kc.reshape(len(Kc), -1)
        mono = mono - (2.0 / (n + 2 * (p - 2))) * Ins.reshape(mono.shape)
    B_low, _ = tracefree_basis(n, p - 1)
    _, C = tracefree_basis(n, p)
    return np.einsum("aJ,JiA,Ac->iac", C, mono, B_low, optimize=True).reshape(n * len(C), -1)


def _orth_columns(cols: np.ndarray, cutoff: float = 1e-10) -> np.ndarray:
    U, s, _ = np.linalg.svd(cols, full_matrices=False)
    r = int(np.sum(s > cutoff * s[0]))
    return U[:, :r]


@_frozen_cache
def flat_projector_matrices(n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthogonal projectors (pi_A, pi_B, pi_C) onto the three irreducible
    summands of T* (x) S0^p, acting on (n*t,) field coordinates over the
    orthonormal e_i (x) flat trace-free basis: pi_A onto the embedded rank
    p+1 trace-free tensors, pi_B onto the metric-insertion image of rank
    p-1, pi_C onto the remainder.  The conformal coordinate Gram is a
    scalar times the identity, so they are constant across a grid.

    Both spans are orthonormalized by SVD (cutoff 1e-10); each must have
    its summand's dimension and the two must be orthogonal to 1e-8, or
    the fiber algebra is inconsistent and this raises.
    """
    if n < 2 or p < 1:
        raise ValueError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
    Qa = _orth_columns(embed_matrix(n, p))
    Qb = _orth_columns(_insert_map_columns(n, p))
    if Qa.shape[1] != tracefree_dim(n, p + 1) or Qb.shape[1] != tracefree_dim(n, p - 1):
        raise FiberAlgebraError("constructed span has unexpected dimension")
    cross = float(np.max(np.abs(Qa.T @ Qb)))
    if cross > 1e-8:
        raise FiberAlgebraError(f"irreducible spans are not orthogonal: {cross:.2e}")

    pi_A = Qa @ Qa.T
    pi_B = Qb @ Qb.T
    pi_C = np.eye(n * tracefree_dim(n, p)) - pi_A - pi_B
    return pi_A, pi_B, pi_C


@_frozen_cache
def embed_matrix(n: int, p: int) -> np.ndarray:
    """(n*t_p, t_{p+1}) isometric slot-regrouping of trace-free rank p+1 tensors
    into T* (x) S0^p over the fixed flat bases: C_p Kc B_{p+1}, Kc the
    `div_contract_tensor` of rank p+1, whose rows (K, i) read coefficient
    sorted((i,) + K), gathered here straight from the index table."""
    B_hi, _ = tracefree_basis(n, p + 1)
    _, C_p = tracefree_basis(n, p)
    up, _ = _index_table(n, p + 1)
    return np.einsum("aK,Kic->iac", C_p, B_hi[up], optimize=True).reshape(n * len(C_p), -1)
