"""Fiber algebra tests: dimensions, traces, insertions, projectors.

Oracles here are deliberately naive: full index loops, brute-force
permutations, and enumeration counts, independent of the matrix
constructions they check.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradlab import fiber


# flat, test-local references for the pointwise readings the library does
# not carry: full arrays, symmetrization, solve-based trace-free projection,
# the induced inner product and the literal cyclic insertion

def full(n, p, coeffs):
    """Expand monomial coordinates to the full (n,)*p array."""
    return (fiber.expand_matrix(n, p) @ coeffs).reshape((n,) * p)


def symmetrize(T):
    """Monomial coordinates of the average of T over all slot permutations."""
    return fiber.restrict_matrix(T.shape[0], T.ndim) @ T.reshape(-1)


def tracefree_project(coeffs, n, p):
    """Orthogonal projection onto the trace-free subspace.

    The pure-trace part is written as an insertion of an unknown lower-rank
    tensor and solved for, so no closed-form coefficients are transcribed.
    """
    if p < 2:
        return coeffs
    T = fiber.trace_matrix(n, p)
    Ins = fiber.insert_matrix(n, p)
    return coeffs - Ins @ np.linalg.solve(T @ Ins, T @ coeffs)


def inner(n, p, a, b):
    return float(a @ fiber.gram_matrix(n, p) @ b)


def insert_cyclic_full(n, p_in, psi):
    """Literal adjacent-pair cyclic insertion, as a full rank p_in+2 array."""
    q = p_in + 2
    psi_full = full(n, p_in, psi)
    out = np.zeros((n,) * q)
    for J in itertools.product(range(n), repeat=q):
        acc = 0.0
        for a in range(q):
            b = (a + 1) % q
            if J[a] == J[b]:
                acc += psi_full[tuple(J[c] for c in range(q) if c not in (a, b))]
        out[J] = acc / q
    return out


def random_tensor(rng, n, p):
    return rng.normal(size=fiber.sym_dim(n, p))


def random_tracefree(rng, n, p):
    return tracefree_project(random_tensor(rng, n, p), n, p)


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

def test_sym_dim_examples():
    assert fiber.sym_dim(2, 0) == 1
    assert fiber.sym_dim(2, 3) == 4
    assert fiber.sym_dim(4, 2) == 10


@given(st.integers(1, 5), st.integers(0, 5))
def test_sym_dim_matches_enumeration(n, p):
    assert fiber.sym_dim(n, p) == len(fiber.sym_indices(n, p))


def test_tracefree_dim_examples():
    assert fiber.tracefree_dim(4, 2) == 9
    assert fiber.tracefree_dim(2, 2) == 2
    assert fiber.tracefree_dim(3, 1) == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_tracefree_dim_matches_projection_rank(n, p):
    # numerical rank of the trace-free projection matrix, cutoff 1e-8
    m = fiber.sym_dim(n, p)
    cols = np.stack([tracefree_project(e, n, p) for e in np.eye(m)], axis=1)
    s = np.linalg.svd(cols, compute_uv=False)
    assert int(np.sum(s > 1e-8)) == fiber.tracefree_dim(n, p)


def test_ck_dim_bound_examples():
    assert fiber.ck_dim_bound(3, 1) == 10
    assert fiber.ck_dim_bound(2, 1) == 6
    assert fiber.ck_dim_bound(3, 2) == 35


def test_ck_dim_bound_cross_checks():
    # p=1 case equals the classical conformal vector-field count (n+1)(n+2)/2
    for n in range(3, 9):
        assert fiber.ck_dim_bound(n, 1) == (n + 1) * (n + 2) // 2
    # p=2 case equals the classical rank-2 count (n-1)(n+2)(n+3)(n+4)/12
    for n in range(3, 9):
        assert fiber.ck_dim_bound(n, 2) == (n - 1) * (n + 2) * (n + 3) * (n + 4) // 12


def test_ck_dim_bound_wide_integers():
    # must stay exact (no float overflow) over the whole supported range
    for n in range(2, 9):
        for p in range(1, 7):
            v = fiber.ck_dim_bound(n, p)
            assert isinstance(v, int) and v > 0


# ---------------------------------------------------------------------------
# symmetrize / trace / project
# ---------------------------------------------------------------------------

def test_symmetrize_idempotent_and_transposition():
    rng = np.random.default_rng(0)
    n = 3
    T = rng.normal(size=(n, n, n))
    sym = full(n, 3, symmetrize(T))
    assert np.allclose(full(n, 3, symmetrize(sym)), sym, atol=1e-14)
    e12 = np.zeros((n, n))
    e12[0, 1] = 1.0
    got = full(n, 2, symmetrize(e12))
    expect = np.zeros((n, n))
    expect[0, 1] = expect[1, 0] = 0.5
    assert np.allclose(got, expect)


def test_symmetrize_brute_force_oracle():
    rng = np.random.default_rng(1)
    n, q = 3, 3
    T = rng.normal(size=(n,) * q)
    got = full(n, q, symmetrize(T))
    expect = np.zeros_like(T)
    for perm in itertools.permutations(range(q)):
        expect += np.transpose(T, perm)
    expect /= math.factorial(q)
    assert np.allclose(got, expect, atol=1e-14)
    for perm in itertools.permutations(range(q)):
        assert np.allclose(np.transpose(got, perm), got, atol=1e-14)


def test_trace_of_metric_is_n():
    for n in (2, 3, 4):
        assert np.allclose(fiber.trace_matrix(n, 2) @ symmetrize(np.eye(n)), [n])


def test_trace_index_loop_oracle():
    rng = np.random.default_rng(2)
    n = 3
    for p in (2, 3):
        phi = random_tensor(rng, n, p)
        got = full(n, p - 2, fiber.trace_matrix(n, p) @ phi)
        a = full(n, p, phi)
        expect = sum(a[i, i] for i in range(n))
        assert np.max(np.abs(got - expect)) < 1e-12


def test_trace_of_tracefree_vanishes():
    rng = np.random.default_rng(3)
    for n, p in [(2, 2), (3, 3), (4, 2)]:
        phi = random_tracefree(rng, n, p)
        assert np.max(np.abs(fiber.trace_matrix(n, p) @ phi)) < 1e-12


def test_tracefree_project_fixed_points_and_pure_trace():
    rng = np.random.default_rng(4)
    n = 3
    phi = random_tracefree(rng, n, 2)
    assert np.allclose(tracefree_project(phi, n, 2), phi, atol=1e-12)
    assert np.max(np.abs(tracefree_project(symmetrize(np.eye(n)), n, 2))) < 1e-12


def test_tracefree_project_self_adjoint():
    rng = np.random.default_rng(5)
    n, p = 3, 3
    phi, psi = random_tensor(rng, n, p), random_tensor(rng, n, p)
    lhs = inner(n, p, tracefree_project(phi, n, p), psi)
    rhs = inner(n, p, phi, tracefree_project(psi, n, p))
    assert abs(lhs - rhs) < 1e-10
    # orthogonality of the projection against pure-trace tensors
    pure = fiber.insert_matrix(n, p) @ random_tensor(rng, n, p - 2)
    assert abs(inner(n, p, tracefree_project(phi, n, p), pure)) < 1e-10


# ---------------------------------------------------------------------------
# metric insertion
# ---------------------------------------------------------------------------

def test_metric_insert_zero_and_rank2_display():
    n = 3
    Ins = fiber.insert_matrix(n, 3)
    assert np.max(np.abs(Ins @ np.zeros(n))) == 0.0
    out = full(n, 3, Ins @ np.eye(n)[0])
    # three-pair average with weight 1/3
    assert abs(out[0, 0, 0] - 1.0) < 1e-14
    assert abs(out[0, 1, 1] - 1.0 / 3.0) < 1e-14
    assert abs(out[1, 0, 1] - 1.0 / 3.0) < 1e-14


@pytest.mark.parametrize("p_in", [2, 3])
def test_metric_insert_fully_symmetric(p_in):
    rng = np.random.default_rng(6)
    n, q = 3, p_in + 2
    out = full(n, q, fiber.insert_matrix(n, q) @ random_tensor(rng, n, p_in))
    for perm in itertools.permutations(range(q)):
        assert np.allclose(np.transpose(out, perm), out, atol=1e-12)


def test_metric_insert_vs_cyclic_reading():
    rng = np.random.default_rng(7)
    n = 3
    # output rank 3: the two conventions coincide
    psi1 = random_tensor(rng, n, 1)
    cyc = insert_cyclic_full(n, 1, psi1)
    assert np.allclose(cyc, full(n, 3, fiber.insert_matrix(n, 3) @ psi1), atol=1e-12)
    # output rank >= 4: the cyclic reading is not symmetric, but its
    # symmetrization is a fixed multiple 2/(q-1) of the all-pairs insertion
    psi2 = random_tensor(rng, n, 2)
    q = 4
    cyc = insert_cyclic_full(n, 2, psi2)
    assert np.max(np.abs(cyc - np.transpose(cyc, (0, 2, 1, 3)))) > 1e-6
    allpairs = fiber.insert_matrix(n, q) @ psi2
    assert np.allclose(symmetrize(cyc), (2.0 / (q - 1)) * allpairs, atol=1e-12)


@pytest.mark.parametrize("n,p_psi", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_insert_trace_identity(n, p_psi):
    # trace of the insertion of a trace-free psi is ((n + 2(q-2))/q) psi
    rng = np.random.default_rng(8)
    psi = random_tracefree(rng, n, p_psi)
    q = p_psi + 2
    tr = fiber.trace_matrix(n, q) @ (fiber.insert_matrix(n, q) @ psi)
    assert np.allclose(tr, ((n + 2 * (q - 2)) / q) * psi, atol=1e-11)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_fiber_inner_metric_with_itself():
    gt = symmetrize(np.eye(3))
    assert abs(inner(3, 2, gt, gt) - 3.0) < 1e-14


def test_fiber_inner_positive_definite():
    rng = np.random.default_rng(9)
    n, p = 3, 2
    G = fiber.gram_matrix(n, p)
    samples = rng.normal(size=(1000, fiber.sym_dim(n, p)))
    quad = np.einsum("ka,ab,kb->k", samples, G, samples)
    assert np.all(quad > 0)


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (3, 3)])
def test_fiber_inner_index_loop_oracle(n, p):
    rng = np.random.default_rng(10)
    phi, psi = random_tensor(rng, n, p), random_tensor(rng, n, p)
    got = inner(n, p, phi, psi)
    a, b = full(n, p, phi), full(n, p, psi)
    expect = sum(a[I] * b[I] for I in itertools.product(range(n), repeat=p))
    assert abs(got - expect) < 1e-10 * max(1.0, abs(expect))


def test_flat_gram_is_multiplicity_diagonal():
    for n, p in [(2, 3), (3, 2), (4, 2)]:
        G = fiber.gram_matrix(n, p)
        assert np.allclose(G, np.diag(fiber.multiplicities(n, p)))


# ---------------------------------------------------------------------------
# trace-free bases and structure tensors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,p", [(n, p) for n in range(2, 6) for p in range(2, 5)])
def test_tracefree_basis_matches_scipy_null_space_route(n, p):
    # the numpy null space reproduces scipy's, bit for bit
    scipy_linalg = pytest.importorskip("scipy.linalg")
    W = fiber.gram_matrix(n, p)
    B_ref = fiber._orthonormalize(scipy_linalg.null_space(fiber.trace_matrix(n, p)), W)
    B, C = fiber.tracefree_basis(n, p)
    assert np.array_equal(B, B_ref)
    assert np.array_equal(C, B_ref.T @ W)


def parity_count(n, p, cls):
    """Monomials of rank p whose index counts have the parities `cls`."""
    return sum(tuple(I.count(a) % 2 for a in range(n)) == cls for I in fiber.sym_indices(n, p))


@pytest.mark.parametrize("n,p", [(n, p) for n in range(2, 5) for p in range(0, 5)])
def test_parity_basis_diagonalizes_the_reflections(n, p):
    # an orthonormal basis of S0^p; each column, reflected index by index as
    # a full tensor, is itself times the sign of its recorded parity; and
    # each class has the dimension of its monomials minus the rank p - 2
    # ones (the trace maps a class onto the same class, surjectively)
    Q, parity = fiber.parity_basis(n, p)
    t = fiber.tracefree_dim(n, p)
    assert Q.shape == (t, t) and parity.shape == (t, n)
    assert np.max(np.abs(Q.T @ Q - np.eye(t))) < 1e-13
    B, C = fiber.tracefree_basis(n, p)
    for beta in range(t):
        T = full(n, p, B @ Q[:, beta])
        for a in range(n):
            sign = np.ones((n,) * p)
            for slot in range(p):
                view = [1] * p
                view[slot] = n
                sign = sign * np.where(np.arange(n) == a, -1.0, 1.0).reshape(view)
            reflected = C @ fiber.restrict_matrix(n, p) @ (sign * T).reshape(-1)
            assert np.max(np.abs(reflected - (-1) ** parity[beta, a] * Q[:, beta])) < 1e-13
    classes = {tuple(row) for row in parity.tolist()}
    dims = {cls: int(np.sum(np.all(parity == cls, axis=1))) for cls in classes}
    for cls, dim in dims.items():
        lower = parity_count(n, p - 2, cls) if p >= 2 else 0
        assert dim == parity_count(n, p, cls) - lower
    assert sum(dims.values()) == t
    assert [tuple(row) for row in parity.tolist()] == sorted(map(tuple, parity.tolist()))


@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
def test_tracefree_basis_orthonormal_left_inverse(n, p):
    B, C = fiber.tracefree_basis(n, p)
    W = fiber.gram_matrix(n, p)
    assert np.allclose(B.T @ W @ B, np.eye(B.shape[1]), atol=1e-12)
    assert np.allclose(C @ B, np.eye(B.shape[1]), atol=1e-12)
    # expand . compress equals the solve-based trace-free projection
    rng = np.random.default_rng(11)
    phi = random_tensor(rng, n, p)
    assert np.allclose(B @ (C @ phi), tracefree_project(phi, n, p), atol=1e-11)


def test_slot_replace_tensor_oracle():
    rng = np.random.default_rng(12)
    n, p = 3, 3
    Q = fiber.slot_replace_tensor(n, p)
    T = rng.normal(size=(n, n))  # T[j, k] plays T^k_j
    phi = random_tensor(rng, n, p)
    got = np.einsum("jk,AjkB,B->A", T, Q, phi)
    a = full(n, p, phi)
    # slot a keeps the lower label j, the sum runs over the replacement k
    expect_full = np.zeros_like(a)
    for s in range(p):
        expect_full += np.moveaxis(np.tensordot(a, T, axes=([s], [1])), -1, s)
    expect = fiber.restrict_matrix(n, p) @ expect_full.reshape(-1)
    assert np.allclose(got, expect, atol=1e-12)


def test_double_slot_replace_tensor_oracle():
    rng = np.random.default_rng(13)
    n, p = 3, 2
    Q2 = fiber.double_slot_replace_tensor(n, p)
    T = rng.normal(size=(n, n, n, n))  # T[j,k,l,s] plays T^{k s}_{j l}
    phi = random_tensor(rng, n, p)
    got = np.einsum("jkls,AjklsB,B->A", T, Q2, phi)
    a_full = full(n, p, phi)
    pos = fiber.sym_index_of(n, p)
    expect = np.zeros(fiber.sym_dim(n, p))
    for J, A in pos.items():
        acc = 0.0
        for a in range(p):
            for b in range(p):
                if a == b:
                    continue
                for k in range(n):
                    for s in range(n):
                        L = list(J)
                        L[a], L[b] = k, s
                        acc += T[J[a], k, J[b], s] * a_full[tuple(L)]
        expect[A] = acc
    assert np.allclose(got, expect, atol=1e-12)


def test_cov_contract_and_symmetrize_tensors():
    rng = np.random.default_rng(14)
    n, p = 3, 2
    X = rng.normal(size=(n,) + (n,) * p)  # X[i, J], symmetric part irrelevant
    Xs = (X + np.transpose(X, (0, 2, 1))) / 2
    mono = np.stack([fiber.restrict_matrix(n, p) @ Xs[i].reshape(-1) for i in range(n)])
    Kc = fiber.div_contract_tensor(n, p)
    got = np.einsum("BiA,iA->B", Kc, mono)
    expect = np.array([sum(Xs[i, i, k] for i in range(n)) for k in range(n)])
    assert np.allclose(got, expect, atol=1e-13)
    Sm = fiber.sym_insert_cov_tensor(n, p)
    got_sym = np.einsum("JiA,iA->J", Sm, mono)
    assert np.allclose(got_sym, symmetrize(Xs), atol=1e-13)


def test_slice_first_tensor_oracle():
    rng = np.random.default_rng(15)
    n, p = 3, 3
    phi = random_tensor(rng, n, p)
    Sl = fiber.slice_first_tensor(n, p)
    a = full(n, p, phi)
    for i in range(n):
        got = np.einsum("KA,A->K", Sl[i], phi)
        expect = fiber.restrict_matrix(n, p - 1) @ a[i].reshape(-1)
        assert np.allclose(got, expect, atol=1e-14)


# ---------------------------------------------------------------------------
# irreducible projectors
# ---------------------------------------------------------------------------

def _frame_action(R, p):
    """Matrix of an orthogonal frame change R on T* (x) S0^p coordinates."""
    n = R.shape[0]
    K = np.ones((1, 1))
    for _ in range(p):
        K = np.kron(K, R)
    B, C = fiber.tracefree_basis(n, p)
    rho = C @ fiber.restrict_matrix(n, p) @ K @ fiber.expand_matrix(n, p) @ B
    return np.kron(R, rho)


def test_projector_ranks_3_2():
    proj = fiber.build_projectors(3, 2)
    res = proj.validate()
    assert res["rank_A"] == 7
    assert res["rank_B"] == 3
    assert res["rank_C"] == 5


def test_projector_rank_C_vanishes_in_dimension_2():
    for p in (2, 3):
        proj = fiber.build_projectors(2, p)
        assert proj.validate()["rank_C"] == 0
        assert np.max(np.abs(proj.pi_C)) < 1e-10


@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_projector_invariants(n, p):
    proj = fiber.build_projectors(n, p)
    for key, val in proj.validate().items():
        if not key.startswith("rank_"):
            assert val < 1e-10, (key, val)
    # the summands are O(n)-invariant: every projector commutes with the
    # action of 25 random orthogonal frame changes
    rng = np.random.default_rng(16)
    for _ in range(25):
        R, _ = np.linalg.qr(rng.normal(size=(n, n)))
        act = _frame_action(R, p)
        for P in (proj.pi_A, proj.pi_B, proj.pi_C):
            assert np.max(np.abs(act @ P - P @ act)) < 1e-10


def test_projector_A_membership():
    # embedded trace-free rank p+1 tensors are fixed by pi_A
    rng = np.random.default_rng(17)
    n, p = 3, 2
    proj = fiber.build_projectors(n, p)
    B_hi, _ = fiber.tracefree_basis(n, p + 1)
    _, compress = fiber.tracefree_basis(n, p)
    Phi = full(n, p + 1, B_hi @ rng.normal(size=B_hi.shape[1])).reshape(n, -1)
    R = fiber.restrict_matrix(n, p)
    x = np.concatenate([compress @ (R @ Phi[i]) for i in range(n)])
    assert np.allclose(proj.pi_A @ x, x, atol=1e-9)
    assert np.max(np.abs(proj.pi_B @ x)) < 1e-9


def test_insert_map_scale():
    # tau(E(psi)) = lambda psi with lambda = (n+2(p-1))(n+p-3)/(p(n+2(p-2)))
    # for p >= 2 and lambda = n for p = 1; checked numerically
    for n, p in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (3, 1), (2, 1)]:
        B_lo, _ = fiber.tracefree_basis(n, p - 1)
        cols = fiber._insert_map_columns(n, p, B_lo)
        Bp, _ = fiber.tracefree_basis(n, p)
        t = Bp.shape[1]
        # tau: contract the covariant slot with the first symmetric slot
        Kc = fiber.div_contract_tensor(n, p)
        lam_expect = n if p == 1 else (n + 2 * (p - 1)) * (n + p - 3) / (p * (n + 2 * (p - 2)))
        for c in range(B_lo.shape[1]):
            mono = cols[:, c].reshape(n, t) @ Bp.T  # monomial coordinates per covariant slot
            tau = np.einsum("BiA,iA->B", Kc, mono)
            assert np.allclose(tau, lam_expect * B_lo[:, c], atol=1e-9)


def test_embed_matrix_isometry_and_projector_match():
    for n, p in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        e = fiber.embed_matrix(n, p)
        assert np.allclose(e.T @ e, np.eye(e.shape[1]), atol=1e-11)
        pi_A, _, _ = fiber.flat_projector_matrices(n, p)
        assert np.allclose(e @ e.T, pi_A, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]))
def test_projection_properties_hypothesis(seed, np_pair):
    n, p = np_pair
    rng = np.random.default_rng(seed)
    proj = tracefree_project(random_tensor(rng, n, p), n, p)
    if p >= 2:
        assert np.max(np.abs(fiber.trace_matrix(n, p) @ proj)) < 1e-10
    assert np.allclose(tracefree_project(proj, n, p), proj, atol=1e-10)
