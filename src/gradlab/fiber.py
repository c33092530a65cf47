"""Pointwise algebra of symmetric and trace-free symmetric tensors.

A rank-p symmetric tensor over an n-dimensional inner-product space is stored
as one coefficient per nondecreasing multi-index ("monomial coordinates").
The trace-free subspace carries a fixed orthonormalized basis, so trace-free
storage is structural rather than penalized.  Every map between coordinate
systems is an explicit small matrix; this keeps adjoints exact and lets each
identity be tested against brute-force index loops.

Every construction here is over the flat inner product on R^n.  The lab
only builds metrics g = e^{2f} delta, whose orthonormal frames differ from
the flat one by a scalar, so the pointwise decomposition is the flat one;
the field modules apply the powers of e^{2f} separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np


class FiberAlgebraError(RuntimeError):
    """Internal inconsistency in the fiber algebra (signals a bug, not data)."""


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
def sym_index_of(n: int, p: int) -> dict:
    return {idx: a for a, idx in enumerate(sym_indices(n, p))}


def multiplicity(index: tuple[int, ...]) -> int:
    """Number of distinct permutations of a multi-index."""
    m = math.factorial(len(index))
    for i in set(index):
        m //= math.factorial(index.count(i))
    return m


@lru_cache(maxsize=None)
def multiplicities(n: int, p: int) -> np.ndarray:
    out = np.array([multiplicity(I) for I in sym_indices(n, p)], dtype=float)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def expand_matrix(n: int, p: int) -> np.ndarray:
    """(n^p, m) matrix taking monomial coordinates to the full tensor (flattened)."""
    m = sym_dim(n, p)
    E = np.zeros((n**p, m))
    pos = sym_index_of(n, p)
    for flat in range(n**p):
        J = np.unravel_index(flat, (n,) * p) if p else ()
        E[flat, pos[tuple(sorted(J))]] = 1.0
    E.flags.writeable = False
    return E


@lru_cache(maxsize=None)
def restrict_matrix(n: int, p: int) -> np.ndarray:
    """(m, n^p) matrix averaging a full tensor onto monomial coordinates.

    Applied to any full tensor this returns the monomial coordinates of its
    full symmetrization; composed with expand_matrix it is the identity.
    """
    m = sym_dim(n, p)
    R = np.zeros((m, n**p))
    pos = sym_index_of(n, p)
    for flat in range(n**p):
        J = np.unravel_index(flat, (n,) * p) if p else ()
        I = tuple(sorted(J))
        R[pos[I], flat] = 1.0 / multiplicity(I)
    R.flags.writeable = False
    return R


# ---------------------------------------------------------------------------
# trace, insertion and inner product
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def trace_matrix(n: int, p: int) -> np.ndarray:
    """Matrix of the trace over two slots, rank p -> rank p-2 coordinates."""
    if p < 2:
        raise ValueError("trace needs rank >= 2")
    m_out, m_in = sym_dim(n, p - 2), sym_dim(n, p)
    pos_in = sym_index_of(n, p)
    T = np.zeros((m_out, m_in))
    for b, K in enumerate(sym_indices(n, p - 2)):
        for a in range(n):
            T[b, pos_in[tuple(sorted((a, a) + K))]] += 1.0
    T.flags.writeable = False
    return T


@lru_cache(maxsize=None)
def insert_matrix(n: int, q: int) -> np.ndarray:
    """Matrix of the metric insertion, rank q-2 -> rank q coordinates.

    Normalization: average of delta_{J_a J_b} psi_{rest} over all index pairs
    (a, b) with weight 1/q.  At output rank 3 this reproduces the three-term
    cyclic average exactly; for higher ranks it is the unique totally
    symmetric extension proportional to Sym(delta (x) psi), and it is the
    normalization under which the first gradient is trace-free (the
    arbitration test lives in the gradients module).
    """
    if q < 2:
        raise ValueError("insertion needs output rank >= 2")
    m_out, m_in = sym_dim(n, q), sym_dim(n, q - 2)
    pos_in = sym_index_of(n, q - 2)
    M = np.zeros((m_out, m_in))
    for a, J in enumerate(sym_indices(n, q)):
        for s in range(q):
            for t in range(s + 1, q):
                if J[s] == J[t]:
                    rest = J[:s] + J[s + 1 : t] + J[t + 1 :]
                    M[a, pos_in[rest]] += 1.0 / q
    M.flags.writeable = False
    return M


@lru_cache(maxsize=None)
def gram_matrix(n: int, p: int) -> np.ndarray:
    """Gram matrix of the monomial coordinates under the induced inner product."""
    G = np.diag(multiplicities(n, p))
    G.flags.writeable = False
    return G


# ---------------------------------------------------------------------------
# trace-free bases
# ---------------------------------------------------------------------------

def _orthonormalize(columns: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Symmetric (Loewdin) orthonormalization of columns w.r.t. a Gram matrix."""
    M = columns.T @ gram @ columns
    w, V = np.linalg.eigh(M)
    if np.min(w) <= 1e-12 * np.max(w):
        raise FiberAlgebraError("degenerate span in orthonormalization")
    return columns @ (V / np.sqrt(w)) @ V.T


@lru_cache(maxsize=None)
def tracefree_basis(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed flat-orthonormal basis of the trace-free subspace.

    Returns (expand, compress): expand is (m, t) with orthonormal columns in
    the flat induced inner product; compress = expand^T @ Gram is its left
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
        B = _orthonormalize(ns, gram_matrix(n, p))
    C = B.T @ gram_matrix(n, p)
    B.flags.writeable = False
    C.flags.writeable = False
    return B, C


@lru_cache(maxsize=None)
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
    odd = np.array([[I.count(a) % 2 for a in range(n)] for I in sym_indices(n, p)],
                   int).reshape(-1, n)
    columns, parity = [], []
    for cls in sorted(set(map(tuple, odd.tolist()))):
        w, V = np.linalg.eigh(C @ (np.all(odd == cls, axis=1)[:, None] * B))
        keep = V[:, w > 0.5]
        columns.append(keep)
        parity += [cls] * keep.shape[1]
    Q = np.hstack(columns)
    if Q.shape != (B.shape[1],) * 2:
        raise FiberAlgebraError(f"parity classes do not span S0^{p} at n={n}")
    parity = np.array(parity, int).reshape(len(Q), n)
    Q.flags.writeable = False
    parity.flags.writeable = False
    return Q, parity


# ---------------------------------------------------------------------------
# constant structure tensors used by the field operators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def slot_replace_tensor(n: int, p: int) -> np.ndarray:
    """Q[A,j,k,B]: sum over slots of T^k_{J_a} phi_{J with a -> k} in coordinates.

    For any n x n matrix T (e.g. a Christoffel slice), the symmetric-slot
    action  phi_J -> sum_a T^k_{J_a} phi_{J|a->k}  is  einsum('jk,AjkB,B->A',
    T, Q, phi).
    """
    m = sym_dim(n, p)
    pos = sym_index_of(n, p)
    Q = np.zeros((m, n, n, m))
    for A, J in enumerate(sym_indices(n, p)):
        for a in range(p):
            for k in range(n):
                B = pos[tuple(sorted(J[:a] + (k,) + J[a + 1 :]))]
                Q[A, J[a], k, B] += 1.0
    Q.flags.writeable = False
    return Q


@lru_cache(maxsize=None)
def double_slot_replace_tensor(n: int, p: int) -> np.ndarray:
    """Q2[A,j,k,l,s,B]: sum over ordered slot pairs a != b of
    T^{k s}_{J_a J_b} phi_{J|a->k, b->s}, as einsum('jkls,AjklsB,B->A', T, Q2, phi)."""
    m = sym_dim(n, p)
    pos = sym_index_of(n, p)
    Q2 = np.zeros((m, n, n, n, n, m))
    for A, J in enumerate(sym_indices(n, p)):
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
    Q2.flags.writeable = False
    return Q2


@lru_cache(maxsize=None)
def div_contract_tensor(n: int, p: int) -> np.ndarray:
    """Kc[B,i,A]: (flat) contraction of a covariant slot into symmetric slots,
    X_{i, iK} summed over i, rank p -> rank p-1 coordinates."""
    m_out, m_in = sym_dim(n, p - 1), sym_dim(n, p)
    pos_in = sym_index_of(n, p)
    Kc = np.zeros((m_out, n, m_in))
    for B, K in enumerate(sym_indices(n, p - 1)):
        for i in range(n):
            Kc[B, i, pos_in[tuple(sorted((i,) + K))]] += 1.0
    Kc.flags.writeable = False
    return Kc


@lru_cache(maxsize=None)
def sym_insert_cov_tensor(n: int, p: int) -> np.ndarray:
    """Sm[J,i,A]: symmetrization of a covariant slot into symmetric slots,
    (1/(p+1)) sum_a X_{J_a, J\\a}, rank (1, p) -> rank p+1 coordinates."""
    m_out, m_in = sym_dim(n, p + 1), sym_dim(n, p)
    pos_in = sym_index_of(n, p)
    Sm = np.zeros((m_out, n, m_in))
    for Jidx, J in enumerate(sym_indices(n, p + 1)):
        for a in range(p + 1):
            rest = J[:a] + J[a + 1 :]
            Sm[Jidx, J[a], pos_in[rest]] += 1.0 / (p + 1)
    Sm.flags.writeable = False
    return Sm


@lru_cache(maxsize=None)
def slice_first_tensor(n: int, p: int) -> np.ndarray:
    """Sl[i,K,A]: fix the first slot of a symmetric rank-p tensor to i,
    leaving rank p-1 coordinates."""
    m_out, m_in = sym_dim(n, p - 1), sym_dim(n, p)
    pos_in = sym_index_of(n, p)
    Sl = np.zeros((n, m_out, m_in))
    for i in range(n):
        for K, Kidx in sym_index_of(n, p - 1).items():
            Sl[i, Kidx, pos_in[tuple(sorted((i,) + K))]] = 1.0
    Sl.flags.writeable = False
    return Sl


# ---------------------------------------------------------------------------
# the irreducible projectors on T* (x) S0^p
# ---------------------------------------------------------------------------

def _insert_map_columns(n: int, p: int, basis_lower: np.ndarray) -> np.ndarray:
    """Columns (in (cov, trace-free) coordinates) of the equivariant injection
    of rank p-1 trace-free tensors into T* (x) S0^p.

    For psi trace-free of rank p-1 the map is
        Sym_J(delta_{i J_1} psi_{rest})  -  (2/(n+2(p-2))) (insert of psi_i)_J
    whose J-trace vanishes; for p = 1 the correction term is absent.
    """
    _, compress = tracefree_basis(n, p)
    t = compress.shape[0]
    t_low = basis_lower.shape[1]
    cols = np.zeros((n * t, t_low))
    R = restrict_matrix(n, p)
    Sl = slice_first_tensor(n, p - 1) if p >= 2 else None
    Ins = insert_matrix(n, p) if p >= 2 else None
    eye = np.eye(n)
    for c in range(t_low):
        psi = basis_lower[:, c]
        psi_full = (expand_matrix(n, p - 1) @ psi).reshape((n,) * (p - 1))
        for i in range(n):
            mono = R @ np.multiply.outer(eye[i], psi_full).reshape(-1)
            if p >= 2:
                mono = mono - (2.0 / (n + 2 * (p - 2))) * (Ins @ (Sl[i] @ psi))
            cols[i * t : (i + 1) * t, c] = compress @ mono
    return cols


@dataclass(frozen=True)
class FiberProjectors:
    """Orthogonal projectors onto the three irreducible summands of T* (x) S0^p.

    Matrices act on (covariant index, trace-free coordinate) vectors over
    e_i (x) the flat trace-free basis, which is orthonormal.  pi_A projects
    onto the embedded rank p+1 trace-free tensors, pi_B onto the
    metric-insertion image of rank p-1, pi_C onto the remainder.
    """

    n: int
    p: int
    pi_A: np.ndarray
    pi_B: np.ndarray
    pi_C: np.ndarray

    def validate(self) -> dict:
        """Residuals for idempotency, self-adjointness, completeness, and ranks."""
        out = {}
        N = self.pi_A.shape[0]
        eye = np.eye(N)
        for name, P in (("A", self.pi_A), ("B", self.pi_B), ("C", self.pi_C)):
            out[f"idempotent_{name}"] = float(np.max(np.abs(P @ P - P)))
            out[f"symmetric_{name}"] = float(np.max(np.abs(P - P.T)))
            out[f"rank_{name}"] = int(round(np.trace(P)))
        out["completeness"] = float(np.max(np.abs(self.pi_A + self.pi_B + self.pi_C - eye)))
        out["cross_AB"] = float(np.max(np.abs(self.pi_A @ self.pi_B)))
        out["cross_AC"] = float(np.max(np.abs(self.pi_A @ self.pi_C)))
        out["cross_BC"] = float(np.max(np.abs(self.pi_B @ self.pi_C)))
        expected = {
            "A": tracefree_dim(self.n, self.p + 1),
            "B": tracefree_dim(self.n, self.p - 1),
        }
        expected["C"] = self.n * tracefree_dim(self.n, self.p) - expected["A"] - expected["B"]
        for name, dim in expected.items():
            if out[f"rank_{name}"] != dim:
                raise FiberAlgebraError(
                    f"projector {name} rank {out[f'rank_{name}']} != expected {dim}"
                )
        return out


def _orth_columns(cols: np.ndarray, cutoff: float = 1e-10) -> np.ndarray:
    U, s, _ = np.linalg.svd(cols, full_matrices=False)
    r = int(np.sum(s > cutoff * s[0]))
    return U[:, :r]


def build_projectors(n: int, p: int) -> FiberProjectors:
    """Construct the three orthogonal projectors on T* (x) S0^p.

    The rank p+1 summand is spanned by slot-regrouped trace-free tensors, the
    rank p-1 summand by trace-type insertions; both spans are orthonormalized
    by SVD (cutoff 1e-10) and must come out mutually orthogonal to 1e-8,
    otherwise the fiber algebra is inconsistent and this raises.
    """
    if n < 2 or p < 1:
        raise ValueError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
    N = n * tracefree_dim(n, p)

    # spans of the embedded rank p+1 trace-free tensors and of the metric
    # insertions of rank p-1 trace-free tensors
    B_lo, _ = tracefree_basis(n, p - 1)
    Qa = _orth_columns(embed_matrix(n, p))
    Qb = _orth_columns(_insert_map_columns(n, p, B_lo))
    if Qa.shape[1] != tracefree_dim(n, p + 1) or Qb.shape[1] != tracefree_dim(n, p - 1):
        raise FiberAlgebraError("constructed span has unexpected dimension")
    cross = float(np.max(np.abs(Qa.T @ Qb)))
    if cross > 1e-8:
        raise FiberAlgebraError(f"irreducible spans are not orthogonal: {cross:.2e}")

    pi_A = Qa @ Qa.T
    pi_B = Qb @ Qb.T
    pi_C = np.eye(N) - pi_A - pi_B
    proj = FiberProjectors(n=n, p=p, pi_A=pi_A, pi_B=pi_B, pi_C=pi_C)
    proj.validate()
    return proj


@lru_cache(maxsize=None)
def flat_projector_matrices(n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projector matrices acting directly on (n*t,) field coordinates.

    For the flat (and conformally rescaled) inner product the coordinate Gram
    is a positive scalar times the identity, so the projectors are plain
    symmetric matrices, constant across a grid.
    """
    proj = build_projectors(n, p)
    for name in ("pi_A", "pi_B", "pi_C"):
        getattr(proj, name).flags.writeable = False
    return proj.pi_A, proj.pi_B, proj.pi_C


@lru_cache(maxsize=None)
def embed_matrix(n: int, p: int) -> np.ndarray:
    """(n*t_p, t_{p+1}) isometric slot-regrouping of trace-free rank p+1 tensors
    into T* (x) S0^p over the fixed flat bases."""
    B_hi, _ = tracefree_basis(n, p + 1)
    _, C_p = tracefree_basis(n, p)
    t = C_p.shape[0]
    R = restrict_matrix(n, p)
    out = np.zeros((n * t, B_hi.shape[1]))
    for c in range(B_hi.shape[1]):
        full = (expand_matrix(n, p + 1) @ B_hi[:, c]).reshape(n, -1)
        for i in range(n):
            out[i * t : (i + 1) * t, c] = C_p @ (R @ full[i])
    out.flags.writeable = False
    return out
