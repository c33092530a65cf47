"""Spectral-layer tests: Galerkin blocks against dense column-by-column
references, weighted eigensolves with Fourier oracles, the kernel-count
policy, dealiased-vs-nodal zero modes, and algebraic principal symbols
checked against direct mode application."""

import csv
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from gradlab import fiber, fields, gradients, spectral
from gradlab.expressions import TrigPoly, parse_trig_poly
from gradlab.fields import TensorField, l2_inner
from gradlab.config import load_config
from gradlab.harness import build_cache, flat_joint_kernel_oracle
from gradlab.geometry import GridSpec, build_geometry
from gradlab.spectral import (
    Galerkin,
    SpectralError,
    build_dealiased_basis,
    d1_handle,
    d1_star_d1_handle,
    d2_star_d2_handle,
    d3_star_d3_handle,
    delta_deltastar_handle,
    deltastar_delta_handle,
    divergence_handle,
    gradient_handle,
    kernel_count,
    rough_laplacian_handle,
    sampson_handle,
    spectrum,
    spectrum_to_csv,
    symbol_eval,
    symbol_scan_to_csv,
    symbol_sphere_scan,
    weight_vector,
)


def make_cache(n=2, size=12, metric="flat", f_text=None, method="spectral"):
    spec = GridSpec(n=n, sizes=(size,) * n)
    if metric == "flat":
        f = TrigPoly([])
    else:
        if f_text is None:
            f_text = "0.1*cos(x1)" if n == 2 else "0.05*cos(x1)"
        f = parse_trig_poly(f_text)
    return build_geometry(spec, f, method=method)


def random_vec(handle, seed=0):
    return np.random.default_rng(seed).standard_normal(handle.domain_dim)


def mode_field(cache, p, m, part="cos", component=0):
    theta = cache.spec.theta_mesh()
    phase = sum(mi * th for mi, th in zip(m, theta))
    wave = np.cos(phase) if part == "cos" else np.sin(phase)
    t = fiber.tracefree_dim(cache.n, p)
    data = np.zeros(cache.spec.shape + (t,))
    data[..., component] = wave
    return TensorField(cache, "s0", p, data)


# ---------------------------------------------------------------------------
# handles: linearity, assembly, weights
# ---------------------------------------------------------------------------

def test_weight_vector_matches_l2_inner():
    cache = make_cache(2, 8, metric="conformal")
    for tag, rank in (("s0", 2), ("cov_s0", 1), ("s", 2)):
        w = weight_vector(cache, tag, rank)
        rng = np.random.default_rng(3)
        d = fiber.tracefree_dim(2, rank) if "s0" in tag else fiber.sym_dim(2, rank)
        shape = cache.spec.shape + ((2, d) if tag.startswith("cov") else (d,))
        a = TensorField(cache, tag, rank, rng.standard_normal(shape))
        b = TensorField(cache, tag, rank, rng.standard_normal(shape))
        direct = l2_inner(a, b)
        via_w = float(np.sum(a.data.ravel() * b.data.ravel() * w))
        assert abs(direct - via_w) < 1e-12 * abs(direct)


@pytest.mark.parametrize("maker", [d1_handle, rough_laplacian_handle, delta_deltastar_handle])
def test_apply_is_linear(maker):
    cache = make_cache(2, 8, metric="conformal")
    h = maker(cache, 2)
    rng = np.random.default_rng(1)
    u, v = rng.standard_normal(h.domain_dim), rng.standard_normal(h.domain_dim)
    a, b = 0.7, -1.3
    lhs = h.apply_vector(a * u + b * v)
    rhs = a * h.apply_vector(u) + b * h.apply_vector(v)
    scale = np.max(np.abs(rhs)) + 1e-300
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def laplace_multiset(basis):
    """Sorted flat eigenvalues |k|^2 of the connection Laplacian on the basis:
    the constant, then a cos and a sin copy per mode, times the fiber axes."""
    k2 = np.sum(np.asarray(basis.modes, float) ** 2, axis=1)
    return np.sort(np.repeat(np.concatenate([[0.0], k2, k2]), basis.t))


def dense_images(handle, cols):
    return np.column_stack([handle.apply_vector(cols[:, j]) for j in range(cols.shape[1])])


def per_block(gal, stacks):
    """The matrices of a layer's group stacks, listed in block order."""
    out = [None] * len(gal.blocks)
    for group, stack in zip(gal._groups, stacks):
        for b, B in zip(group, stack):
            out[b] = B
    return out


def test_identity_assembles_to_identity():
    # the Galerkin form of the identity is the mass matrix, block for block
    cache = make_cache(2, 8, metric="conformal")
    gal = Galerkin(cache, 1)
    identity = spectral.OperatorHandle(
        name="identity", cache=cache, domain_rank=1, codomain_tag="s0",
        codomain_rank=1, apply=lambda phi: phi, symbol=None,
    )
    for F, M in zip(gal.form(identity), gal.mass()):
        assert np.array_equal(F, M)


@pytest.mark.parametrize("maker", [rough_laplacian_handle, d1_handle, divergence_handle])
def test_assembled_matrix_reproduces_apply(maker):
    # each block reproduces the operator applied to a field synthesized on
    # that block, and on each of its translates: a Gram block (d1,
    # divergence) the weighted norm of the image, a form block (rough
    # Laplacian) the pairing of the field with its image
    cache = make_cache(2, 8, metric="conformal")
    p = 1 if maker is not divergence_handle else 2
    h = maker(cache, p)
    gal = Galerkin(cache, p)
    rng = np.random.default_rng(7)
    blocks = gal.form(h) if h.is_endomorphism else gal.gram([h.name])
    for b, G in enumerate(per_block(gal, blocks)):
        c = rng.standard_normal(len(gal.blocks[b].columns))
        for copy in range(gal.blocks[b].multiplicity):
            phi = gal.field(b, c, copy)
            image = h.apply(phi)
            direct = l2_inner(phi if h.is_endomorphism else image, image)
            assert abs(c @ G @ c - direct) <= 1e-10 * direct


@pytest.mark.parametrize("metric", ["flat", "conformal"])
def test_self_adjoint_assembly_defect(metric):
    # weighted symmetry of the nodal matrices, one application per grid value
    cache = make_cache(2, 8, metric=metric)
    for maker in (rough_laplacian_handle, d1_star_d1_handle):
        h = maker(cache, 1)
        WA = dense_images(h, np.eye(h.domain_dim)) * h.domain_weights()[:, None]
        assert np.linalg.norm(WA - WA.T) <= 1e-10 * np.linalg.norm(WA)


# no invariant axis: one dense sector of 63 * 63 * 2 columns at N=64
OVERSIZED = (2, 64, "conformal", "0.1*cos(x1)+0.05*sin(x2)")


def test_dof_cap_enforced(monkeypatch):
    # the size cap refuses the layer before its colours are synthesized
    def sample(*args):
        raise AssertionError("the colours were synthesized before admission")

    monkeypatch.setattr(spectral, "trig_series", sample)
    with pytest.raises(SpectralError, match="shrink"):
        Galerkin(make_cache(*OVERSIZED), 2)


def test_assemble_caches_matrix(monkeypatch):
    # the mass, the Grams and each joint eigendecomposition are built once;
    # every Gram comes from decomposing each colour once, through no handle
    cache = make_cache(2, 8, metric="conformal")
    gal = Galerkin(cache, 1)
    decomposed = []
    decompose = gradients.decompose
    monkeypatch.setattr(gradients, "decompose",
                        lambda phi: decomposed.append(len(phi.data)) or decompose(phi))
    monkeypatch.setattr(spectral, "handle_by_name", None)
    monkeypatch.setattr(spectral.OperatorHandle, "apply_vector", None)
    first = gal.gram(["d1", "divergence"])
    eig = gal.joint_eigen(["d1", "divergence"])
    assert sum(decomposed) == len(gal.colours)
    for B, again in zip(first, gal.gram(["d1", "divergence"])):
        assert np.array_equal(B, again)
    assert gal.joint_eigen(["d1", "divergence"]) is eig
    gal.gram(["d2", "d3"])
    assert gal.mass() is gal.mass()
    assert sum(decomposed) == len(gal.colours)
    with pytest.raises(SpectralError, match="rough_laplacian"):
        gal.gram(["d1", "rough_laplacian"])


# ---------------------------------------------------------------------------
# eigensolve
# ---------------------------------------------------------------------------

def test_eigensolve_diagonal_matrix():
    d = np.array([3.0, -1.0, 2.0, 0.5])
    res = spectral._eigh_pencil(np.diag(d), np.eye(4))
    assert np.allclose(res.values, np.sort(d), atol=1e-14)


def test_eigensolve_weighted_orthonormal_vectors():
    # a diagonal mass (nodal basis) and a dense one (dealiased basis on a
    # conformal metric, as in sectors without an invariant axis)
    cache = make_cache(2, 8, metric="conformal")
    h = rough_laplacian_handle(cache, 1)
    w = h.domain_weights()
    A = dense_images(h, np.eye(h.domain_dim))
    cols = build_dealiased_basis(cache, 1).columns()
    for G, M in ((A * w[:, None], np.diag(w)),
                 (cols.T @ (A @ cols * w[:, None]), cols.T @ (cols * w[:, None]))):
        res = spectral._eigh_pencil(0.5 * (G + G.T), M)
        vals, V, residuals = res.values[:10], res.vectors[:, :10], res.residuals[:10]
        assert np.max(np.abs(V.T @ M @ V - np.eye(10))) < 1e-10
        assert np.max(residuals) <= 1e-8
        assert np.all(np.diff(vals) >= -1e-12)


def stacked_group(gal, stacks, size):
    """The blocks of one size and the stacks of their matrices and masses."""
    k = [len(gal.blocks[group[0]].columns) for group in gal._groups].index(size)
    return gal._groups[k], stacks[k], gal.mass()[k]


@pytest.mark.parametrize("metric,size,p,width", [
    ("conformal", 24, 2, 46),   # dense mass blocks
    ("flat", 12, 2, 2),         # diagonal mass blocks
])
def test_batched_eigensolve_matches_scipy_reference(metric, size, p, width):
    gal = Galerkin(make_cache(2, size, metric=metric), p)
    blocks = gal.gram(["d1", "divergence"])
    scale = gal.norm(blocks)
    group, G, M = stacked_group(gal, blocks, width)
    assert len(group) > 1
    res = spectral._eigh_pencil(G, M, scale=scale)
    for k in range(len(group)):
        ref = scipy.linalg.eigh(G[k], M[k], eigvals_only=True)
        assert np.max(np.abs(res.values[k] - ref)) <= 1e-12 * scale
        V = res.vectors[k]
        assert np.max(np.abs(V.T @ M[k] @ V - np.eye(width))) <= 1e-12
    assert np.max(res.residuals) <= spectral._RESIDUAL_TOL


@pytest.mark.parametrize("metric,size,sizes", [
    ("conformal", 24, {23, 46}),     # the mode-0 sector's two classes, then 11 of 46
    ("flat", 12, {1, 2}),            # sizes interleaved in sector order
])
def test_galerkin_eigen_keeps_sector_order(metric, size, sizes):
    gal = Galerkin(make_cache(2, size, metric=metric), 2)
    assert {len(b.columns) for b in gal.blocks} == sizes
    blocks = gal.gram(["d1"])
    scale = gal.norm(blocks)
    for group, G, M, r in zip(gal._groups, blocks, gal.mass(), gal.eigen(blocks)):
        assert np.array_equal(r.multiplicity, [gal.blocks[b].multiplicity for b in group])
        for k in range(len(group)):
            ref = scipy.linalg.eigh(G[k], M[k], eigvals_only=True)
            assert r.values[k].shape == r.residuals[k].shape == (len(G[k]),)
            assert np.max(np.abs(r.values[k] - ref)) <= 1e-12 * scale
            R = G[k] @ r.vectors[k] - M[k] @ r.vectors[k] * r.values[k]
            assert np.max(np.linalg.norm(R, axis=0)) <= 1e-12 * scale


def test_batched_eigensolve_gates_each_sector():
    gal = Galerkin(make_cache(2, 12), 2)
    blocks = gal.gram(["d1"])
    scale = gal.norm(blocks)
    _, G, M = stacked_group(gal, blocks, 2)
    spectral._eigh_pencil(G, M, scale=scale)
    # eigh reads one triangle: an antisymmetric part in one block leaves
    # that block's pencil unsolved, and the batch is refused
    E = np.triu(np.ones((2, 2)), 1) * 1e-6 * scale
    G[3] += E - E.T
    with pytest.raises(SpectralError, match=f"in 1 of {len(G)} pencils"):
        spectral._eigh_pencil(G, M, scale=scale)


def test_reduced_residual_bounds_the_pencil_residual(monkeypatch):
    # the gate reads sqrt(||M||_F) ||C y - lambda y|| in reduced coordinates,
    # never below the pencil residual ||G v - lambda M v||: eigenvectors
    # perturbed at 1e-11 stay under the gate with the bound above the exact
    # residual, and at 1e-6 they trip it
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 12, 12))
    M = A @ A.swapaxes(1, 2) + 12.0 * np.eye(12)
    B = rng.standard_normal((4, 12, 12))
    G = B + B.swapaxes(1, 2)
    eigh = np.linalg.eigh

    def perturbed(eps):
        def solve(C):
            vals, Y = eigh(C)
            return vals, Y + eps * rng.standard_normal(Y.shape)
        return solve

    res = spectral._eigh_pencil(G, M, scale=1.0)
    assert np.max(res.residuals) <= 1e-12
    for eps in (1e-11, 1e-6):
        monkeypatch.setattr(np.linalg, "eigh", perturbed(eps))
        if eps > spectral._RESIDUAL_TOL:
            with pytest.raises(SpectralError, match="did not converge"):
                spectral._eigh_pencil(G, M, scale=1.0)
            continue
        res = spectral._eigh_pencil(G, M, scale=1.0)
        V = res.vectors
        exact = np.linalg.norm(G @ V - M @ V * res.values[:, None, :], axis=-2)
        assert np.min(exact) > 1e-13
        assert np.all(res.residuals >= exact)


@pytest.mark.parametrize("n,f_text,p", [(2, None, 1), (2, "0.1*cos(x1)", 2), (3, None, 2)])
def test_symmetry_gate_refuses_a_non_equivariant_handle(n, f_text, p):
    # a constant fiber matrix commutes with the reflections when it keeps
    # the parity classes: one diagonal in the parity basis passes the gate,
    # one that maps a column into a class of another parity trips it
    cache = make_cache(n, 8, metric="flat" if f_text is None else "conformal",
                       f_text=f_text)
    gal = Galerkin(cache, p)
    Q, parity = fiber.parity_basis(n, p)
    assert np.any(parity[0, list(gal.axes)] != parity[-1, list(gal.axes)])

    def constant(A):
        return spectral.OperatorHandle(
            name="constant", cache=cache, domain_rank=p, codomain_tag="s0",
            codomain_rank=p, apply=lambda phi: TensorField(cache, "s0", p, phi.data @ A.T),
            symbol=None)

    equivariant = Q @ np.diag(np.arange(1.0, len(Q) + 1)) @ Q.T
    gal.form(constant(equivariant))
    with pytest.raises(SpectralError, match="reflections"):
        gal.form(constant(equivariant + 0.1 * np.outer(Q[:, -1], Q[:, 0])))


def test_lowest_fields_count_each_block_with_its_translates():
    # on a conformal layer the d1 spectrum above the kernel comes in
    # translate pairs: the lowest fields, partners included, are
    # orthonormal eigenfields of the lowest values of the full spectrum
    cache = make_cache(2, 12, metric="conformal")
    gal = Galerkin(cache, 1)
    count = 12
    values = spectral.sector_spectrum(gal.joint_eigen(["d1"]))[:count]
    low = gal.lowest_fields(["d1"], count)
    images = [gradients.d1(phi) for phi in low]
    mass = np.array([[l2_inner(a, b) for b in low] for a in low])
    gram = np.array([[l2_inner(a, b) for b in images] for a in images])
    assert np.max(np.abs(mass - np.eye(count))) < 1e-10
    assert np.max(np.abs(gram - np.diag(values))) < 1e-10 * values[-1]
    assert np.any(np.abs(np.diff(values[2:])) <= 1e-10 * values[-1])


# flat (every axis invariant), one invariant axis fewer than n, none
ADMISSION_CASES = [
    (2, 12, None, 2), (3, 8, None, 1),
    (2, 16, "0.1*cos(x1)", 2), (3, 8, "0.05*cos(x1)", 2),
    (2, 8, "0.1*cos(x1)+0.05*sin(x2)", 1), (2, 12, "0.1*cos(x1)+0.05*sin(x2)", 2),
]


@pytest.mark.parametrize("n,size,f_text,p", ADMISSION_CASES)
def test_galerkin_admission_covers_the_peak(n, size, f_text, p):
    # the estimate bounds the traced peak of a layer's whole life in a
    # kernel run: build, Gram build, the d1* d1 form and every solve
    cache = make_cache(n, size, metric="flat" if f_text is None else "conformal",
                       f_text=f_text)
    names = (["d1"], ["d1", "divergence"], ["d2", "d3"], ["divergence"])

    def run():
        gal = Galerkin(cache, p)
        spectrum(d1_star_d1_handle(cache, p), n_eigs=None, galerkin=gal)
        for system in names:
            gal.joint_eigen(system)
        return gal

    run()  # fill the per-(n, p) structure caches outside the trace
    tracemalloc.start()
    try:
        gal = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = gal._bytes_before_solve(len(gal.colours) // gal.t)
    assert peak <= need


def test_galerkin_admission_counts_the_reduction():
    # the estimate covers the colour stack, the mass stacks and their L^{-1}
    gal = Galerkin(make_cache(2, 16, metric="conformal"), 2)
    held = gal.colours.nbytes + sum(M.nbytes + L.nbytes for M, L in gal._reduction())
    assert held <= gal._bytes_before_solve(len(gal.colours) // gal.t)
    assert sum(L.nbytes for _, L in gal._reduction()) == 8 * sum(
        len(b.columns) ** 2 for b in gal.blocks)


# ---------------------------------------------------------------------------
# dealiased basis and flat Fourier oracles
# ---------------------------------------------------------------------------

def test_dealiased_basis_shape_and_orthogonality():
    cache = make_cache(2, 12)
    basis = build_dealiased_basis(cache, 1)
    # 11 sub-Nyquist frequencies per axis
    assert basis.n_scalar == 11 * 11
    assert basis.dim == 11 * 11 * 2
    w = weight_vector(cache, "s0", 1)
    cols = basis.columns()
    M = cols.T @ (cols * w[:, None])
    off = M - np.diag(np.diag(M))
    assert np.max(np.abs(off)) < 1e-10 * np.max(np.diag(M))


def test_dealiased_mass_matrix_conditioning_conformal():
    cache = make_cache(2, 12, metric="conformal")
    eigs = np.concatenate([np.linalg.eigvalsh(M).ravel() for M in Galerkin(cache, 1).mass()])
    assert eigs.max() / eigs.min() < 100.0


def test_flat_rough_laplacian_matches_fourier_multiset():
    cache = make_cache(2, 12)
    h = rough_laplacian_handle(cache, 1)
    rep = spectrum(h, n_eigs=None)
    oracle = laplace_multiset(build_dealiased_basis(cache, 1))
    assert rep.dof == oracle.size
    assert np.max(np.abs(rep.eigenvalues - oracle)) < 1e-8 * max(1.0, oracle[-1])
    assert rep.symmetry_defect < 1e-12
    assert rep.residual_max <= 1e-8


def test_flat_rough_laplacian_multiplicities():
    cache = make_cache(2, 12)
    rep = spectrum(rough_laplacian_handle(cache, 1), n_eigs=None)
    vals = np.round(rep.eigenvalues, 6)
    # |k|^2 = 0 once, |k|^2 = 1 from (1,0),(0,1) as cos+sin, times fiber dim 2
    assert int(np.sum(vals == 0.0)) == 2
    assert int(np.sum(vals == 1.0)) == 8


def test_nonnegative_spectrum_of_sa_handles():
    for metric in ("flat", "conformal"):
        cache = make_cache(2, 12, metric=metric)
        for maker in (rough_laplacian_handle, d1_star_d1_handle):
            rep = spectrum(maker(cache, 2), n_eigs=None)
            assert rep.eigenvalues[0] >= -1e-9 * rep.lambda_max


def test_spectrum_rejects_rectangular_handles():
    cache = make_cache(2, 8)
    with pytest.raises(SpectralError, match="endomorphism"):
        spectrum(d1_handle(cache, 1))


# ---------------------------------------------------------------------------
# the sector-blocked Galerkin layer against dense column-by-column assembly
# ---------------------------------------------------------------------------

def dense_gram(handles, cols):
    """Reference Galerkin matrix of a stacked system: one application per column."""
    G = np.zeros((cols.shape[1], cols.shape[1]))
    for h in handles:
        A = dense_images(h, cols)
        G += A.T @ (A * h.codomain_weights()[:, None])
    return G


def dense_form(handle, cols):
    return cols.T @ (dense_images(handle, cols) * handle.domain_weights()[:, None])


def reduced_columns(gal):
    """Every block's columns and every translate of them, synthesized through
    `Galerkin.field`: a basis of the dealiased space listed block by block
    and copy by copy, and the slice of each (block, copy) in it."""
    data, where = [], {}
    for b, block in enumerate(gal.blocks):
        size = len(block.columns)
        for copy in range(block.multiplicity):
            where[b, copy] = slice(len(data), len(data) + size)
            data += [gal.field(b, e, copy).data for e in np.eye(size)]
    return np.stack(data), where


def apply_stack(handle, data, chunk=128):
    """A handle's images of a stack of fields, a chunk of them at a time."""
    return np.concatenate([
        handle.apply(TensorField(handle.cache, "s0", handle.domain_rank, data[a:a + chunk])).data
        for a in range(0, len(data), chunk)])


def pairing(left, right, weights):
    """Weighted inner products of two stacks of sampled fields."""
    return left.reshape(len(left), -1) @ (right.reshape(len(right), -1) * weights).T


def assert_block_diagonal(gal, stacks, ref, where):
    """In the basis of every block's columns and translates the reference
    equals each block on each of its copies, and vanishes to roundoff
    everywhere else."""
    scale = float(np.max(np.abs(ref)))
    off = np.ones(ref.shape, bool)
    for b, B in enumerate(per_block(gal, stacks)):
        for copy in range(gal.blocks[b].multiplicity):
            r = where[b, copy]
            assert np.max(np.abs(B - ref[r, r])) <= 1e-12 * scale
            off[r, r] = False
    assert np.max(np.abs(ref[off]), initial=0.0) <= 1e-12 * scale


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_invariant_axes_read_off_the_exponent_match_the_samples(path):
    # the symbolic axes agree with comparing samples along each axis, on
    # every grid of every shipped config and on the Galerkin tests' metrics
    config = load_config(path)
    caches = [build_cache(config, size) for size in config.sizes]
    caches += [make_cache(2, 8, "conformal", f_text=f) for f in GALERKIN_METRICS[1:]]
    caches.append(make_cache(3, 8, "conformal", f_text="2 + 0.1*sin(x3 - x1)"))
    for cache in caches:
        f = cache.conf_exponent_values
        sampled = tuple(j for j in range(cache.n) if np.all(f == np.take(f, [0], axis=j)))
        assert spectral.invariant_axes(cache) == sampled


# flat: every axis invariant; cos(x1): the other axes; with sin(x2) the
# 2-torus has no invariant axis (one sector, the dense pencil)
GALERKIN_METRICS = [None, "0.1*cos(x1)", "0.1*cos(x1)+0.05*sin(x2)"]
# the dense 3-torus reference (DOF 1029) is slow: two cases, and the
# spectra compared there for the d1*d1 form only
GALERKIN_CASES = [
    (2, p, f_text, method)
    for p in (1, 2) for f_text in GALERKIN_METRICS for method in ("spectral", "fd4")
] + [(3, 1, None, "spectral"), (3, 1, "0.1*cos(x1)", "fd4")]


@pytest.mark.parametrize("n,p,f_text,method", GALERKIN_CASES)
def test_galerkin_sectors_match_dense_reference(n, p, f_text, method):
    metric = "flat" if f_text is None else "conformal"
    cache = make_cache(n, 8, metric=metric, f_text=f_text, method=method)
    gal = Galerkin(cache, p)
    first_invariant = {None: 0, GALERKIN_METRICS[1]: 1, GALERKIN_METRICS[2]: 2}[f_text]
    assert gal.axes == tuple(range(first_invariant, n))
    assert sum(len(b.columns) * b.multiplicity for b in gal.blocks) == gal.basis.dim
    w = weight_vector(cache, "s0", p)
    # the blocks on their own columns and translates
    X, where = reduced_columns(gal)
    assert_block_diagonal(gal, gal.mass(), pairing(X, X, w), where)
    systems = (["d1"], ["divergence"], ["d2", "d3"])
    for names in systems:
        handles = [spectral.handle_by_name(cache, p, name) for name in names]
        images = [apply_stack(h, X) for h in handles]
        ref = sum(pairing(A, A, h.codomain_weights()) for h, A in zip(handles, images))
        assert_block_diagonal(gal, gal.gram(names), ref, where)
    h = d1_star_d1_handle(cache, p)
    assert_block_diagonal(gal, gal.form(h), pairing(X, apply_stack(h, X), w), where)
    # the spectra, with multiplicity, against the full basis of the mode table
    cols = gal.basis.columns()
    M = cols.T @ (cols * w[:, None])
    for names in systems if n == 2 else ():
        G = dense_gram([spectral.handle_by_name(cache, p, name) for name in names], cols)
        ref = scipy.linalg.eigh(G, M, eigvals_only=True)
        got = spectral.sector_spectrum(gal.joint_eigen(names))
        assert np.max(np.abs(got - ref)) <= 1e-10 * ref[-1]
    F = dense_form(h, cols)
    ref = scipy.linalg.eigh(0.5 * (F + F.T), M, eigvals_only=True)
    rep = spectrum(h, n_eigs=None, galerkin=gal)
    assert np.max(np.abs(rep.eigenvalues - ref)) <= 1e-10 * ref[-1]


def full_spectrum_blocks(gal, left, right, weights):
    """Reference blocks from the full FFT along the invariant axes: every
    sector keeps the bins +k_a and -k_a on each invariant axis and every
    index on the others, each pairing counts once, and a block is its
    sector's matrix on the block's columns."""
    spec = gal.cache.spec
    axes = [1 + a for a in gal.axes]
    L = np.fft.fftn(left, axes=axes).reshape(len(left), spec.num_points, -1)
    R = np.fft.fftn(right, axes=axes).reshape(len(right), spec.num_points, -1)
    w = weights.reshape(spec.num_points, -1)
    norm = math.prod(spec.sizes[a] for a in gal.axes)
    out = []
    for block in gal.blocks:
        key = dict(zip(gal.axes, gal.keys[block.sector]))
        per_axis = [sorted({key[a], -key[a] % size}) if a in key else range(size)
                    for a, size in enumerate(spec.sizes)]
        g = np.ravel_multi_index(np.ix_(*per_axis), spec.shape).ravel()
        ix = block.columns
        Ls = L[ix].take(g, axis=1).reshape(len(ix), -1)
        Rs = R[ix].take(g, axis=1).reshape(len(ix), -1)
        out.append(((Ls.conj() * w.take(g, axis=0).ravel()) @ Rs.T).real / norm)
    return out


def assert_blocks_close(gal, stacks, ref):
    scale = max(float(np.max(np.abs(B))) for B in ref)
    for B, R in zip(per_block(gal, stacks), ref):
        assert B.shape == R.shape
        assert np.max(np.abs(B - R)) <= 1e-13 * scale


@pytest.mark.parametrize("n,f_text", [(2, None), (2, "0.1*cos(x1)"), (3, None),
                                      (3, "0.05*cos(x1)")])
def test_half_spectrum_blocks_match_full_spectrum(n, f_text):
    # one, two and three invariant axes: the real axis keeps bin +|m| and
    # counts a nonzero bin twice, the other invariant axes keep both signs
    cache = make_cache(n, 8, metric="flat" if f_text is None else "conformal",
                       f_text=f_text)
    p = 2
    gal = Galerkin(cache, p)
    colours = gal.colours
    assert_blocks_close(gal, gal.mass(), full_spectrum_blocks(
        gal, colours, colours, weight_vector(cache, "s0", p)))
    sp = gradients.decompose(TensorField(cache, "s0", p, colours))
    for piece, (tag, shift) in spectral._SPLIT.items():
        images = getattr(sp, piece).data
        assert_blocks_close(gal, gal.gram([piece]), full_spectrum_blocks(
            gal, images, images, weight_vector(cache, tag, p + shift)))
    h = d1_star_d1_handle(cache, p)
    images = h.apply(TensorField(cache, "s0", p, colours)).data
    assert_blocks_close(gal, gal.form(h), full_spectrum_blocks(
        gal, colours, images, h.domain_weights()))


# n = 2 at p = 2 has d3 = 0 identically: every output is held to the scale
# of the gradient as well as its own
BATCH_CASES = [(2, 1, None, "spectral"), (2, 2, "0.1*cos(x1)", "spectral"),
               (2, 1, "0.1*cos(x1)+0.05*sin(x2)", "fd4"), (3, 2, None, "spectral"),
               (3, 1, "0.05*cos(x1)", "spectral")]


@pytest.mark.parametrize("n,p,f_text,method", BATCH_CASES)
def test_batched_operators_match_single_fields(n, p, f_text, method):
    cache = make_cache(n, 8, metric="flat" if f_text is None else "conformal",
                       f_text=f_text, method=method)
    t = fiber.tracefree_dim(n, p)
    data = np.random.default_rng(5).standard_normal((3,) + cache.spec.shape + (t,))
    batch = TensorField(cache, "s0", p, data)
    singles = [TensorField(cache, "s0", p, d) for d in data]
    splits = [gradients.decompose(phi) for phi in singles]
    floor = max(float(np.max(np.abs(sp.grad.data))) for sp in splits)

    def assert_stacked(got, ref):
        ref = np.stack(ref)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(float(np.max(np.abs(ref))), floor)

    sp = gradients.decompose(batch)
    for piece in ("grad", "d1", "d2", "d3", "divergence"):
        assert_stacked(getattr(sp, piece).data, [getattr(one, piece).data for one in splits])
    for name in spectral.HANDLE_NAMES:
        h = spectral.handle_by_name(cache, p, name)
        assert_stacked(h.apply(batch).data, [h.apply(phi).data for phi in singles])
    # the independent routes and oracles that no handle reaches
    assert_stacked(fields.rough_laplacian(batch, route="formula").data,
                   [fields.rough_laplacian(phi, route="formula").data for phi in singles])
    assert_stacked(gradients.weitzenbock_K(batch, route="curvature").data,
                   [gradients.weitzenbock_K(phi, route="curvature").data for phi in singles])
    parts = gradients.projector_components(sp.grad)
    for name in "ABC":
        assert_stacked(parts[name].data, [gradients.projector_components(one.grad)[name].data
                                          for one in splits])
    if p == 1:
        assert_stacked(gradients.ahlfors_deformation(batch).data,
                       [gradients.ahlfors_deformation(phi).data for phi in singles])


def test_galerkin_build_leaves_numpy_ma_unimported():
    # numpy.ma takes ~20 ms to import, and no layer of the program needs it
    code = ("import sys\n"
            "from gradlab import spectral\n"
            "from gradlab.expressions import parse_trig_poly\n"
            "from gradlab.geometry import GridSpec, build_geometry\n"
            "cache = build_geometry(GridSpec(2, (8, 8)), parse_trig_poly('0.1*cos(x1)'))\n"
            "spectral.Galerkin(cache, 1)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_galerkin_stacked_gram_is_sum_of_blocks():
    cache = make_cache(2, 8, metric="conformal")
    gal = Galerkin(cache, 2)
    both = gal.gram(["d1", "divergence"])
    for B, d1b, divb in zip(both, gal.gram(["d1"]), gal.gram(["divergence"])):
        assert np.array_equal(B, d1b + divb)


@pytest.mark.parametrize("f_text,largest", [
    (None, 2), ("0.1*cos(x1)", 62), ("0.1*cos(x1)+0.05*sin(x2)", 31 * 31 * 2),
])
def test_galerkin_applies_once_per_colour(f_text, largest):
    # each colour is applied once, and there are as many colours as the
    # largest block has columns: the trig functions of the varying axes
    # times the fiber dimension
    cache = make_cache(2, 32, metric="flat" if f_text is None else "conformal",
                       f_text=f_text)
    gal = Galerkin(cache, 1)
    assert len(gal.colours) == max(len(b.columns) for b in gal.blocks) == largest
    if f_text is None:
        applied = []
        h = rough_laplacian_handle(cache, 1)
        apply = h.apply
        h.apply = lambda phi: applied.append(len(phi.data)) or apply(phi)
        rep = spectrum(h, n_eigs=None, galerkin=gal)
        assert sum(applied) == largest
        oracle = laplace_multiset(gal.basis)
        assert np.max(np.abs(rep.eigenvalues - oracle)) < 1e-8 * oracle[-1]


def test_galerkin_refuses_oversized_basis():
    with pytest.raises(SpectralError, match="shrink"):
        Galerkin(make_cache(*OVERSIZED), 2)


def test_galerkin_admits_flat_2torus_n128():
    # 32,258 basis columns, but no block holds more than 2 of them
    gal = Galerkin(make_cache(2, 128), 2)
    assert gal.basis.dim == 127**2 * 2
    assert len(gal.colours) == 2


def test_galerkin_admits_flat_3torus_rank3():
    # 23,625 basis columns, but no block holds more than 7 of them
    gal = Galerkin(make_cache(3, 16), 3)
    assert gal.basis.dim == 15**3 * 7
    assert max(len(b.columns) for b in gal.blocks) == 7


def test_galerkin_lowest_fields_are_the_flat_kernel():
    # the d1 kernel of the flat torus is the constants, one per fiber axis
    cache = make_cache(2, 12)
    gal = Galerkin(cache, 2)
    for phi in gal.lowest_fields(["d1"], 2):
        assert np.max(np.abs(phi.data - phi.data[0, 0])) < 1e-12 * np.max(np.abs(phi.data))


def direct_trig_series(spec, modes, coef):
    """Reference: the series summed one cos and one sin at a time."""
    theta = spec.theta_mesh()
    out = np.zeros(spec.shape + coef.shape[1:]) + coef[0]
    pad = (...,) + (None,) * (coef.ndim - 1)
    for k, m in enumerate(modes):
        phase = sum(mj * th for mj, th in zip(m, theta))
        out += np.cos(phase)[pad] * coef[2 * k + 1] + np.sin(phase)[pad] * coef[2 * k + 2]
    return out


@pytest.mark.parametrize("sizes,trailing", [((12, 8), (3,)), ((10, 10), (2, 3)), ((8, 10, 8), (2,))])
def test_trig_series_matches_direct_sum(sizes, trailing):
    spec = GridSpec(n=len(sizes), sizes=sizes)
    modes = spectral.half_modes([s // 2 - 1 for s in sizes])
    coef = np.random.default_rng(len(sizes)).standard_normal((1 + 2 * len(modes),) + trailing)
    got = spectral.trig_series(spec, modes, coef)
    ref = direct_trig_series(spec, modes, coef)
    assert got.shape == spec.shape + trailing
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_trig_series_refuses_nyquist_and_row_count():
    spec = GridSpec(n=2, sizes=(8, 12))
    with pytest.raises(SpectralError, match="Nyquist"):
        spectral.trig_series(spec, [(4, 0)], np.ones(3))
    with pytest.raises(SpectralError, match="Nyquist"):
        spectral.trig_series(spec, [(1, -6)], np.ones(3))
    spectral.trig_series(spec, [(3, -5)], np.ones(3))
    with pytest.raises(SpectralError, match="rows"):
        spectral.trig_series(spec, [(1, 0), (0, 1)], np.ones((4, 2)))


def test_half_modes_one_per_pair():
    modes = spectral.half_modes([2, 1])
    assert len(modes) == (5 * 3 - 1) // 2
    assert len(set(modes) | {tuple(-v for v in m) for m in modes}) == 2 * len(modes)
    assert modes == sorted(modes)


def reference_half_modes(bands):
    """The enumeration by definition: every mode of the box in
    lexicographic order, kept when its first nonzero entry is positive."""
    return [m for m in itertools.product(*(range(-b, b + 1) for b in bands))
            if next((v for v in m if v != 0), 0) > 0]


@pytest.mark.parametrize("bands", [[2, 1], (3, 3), [0, 2], (2, 0), [1], (0, 0),
                                   [4, 0, 2], (3, 3, 3), [1, 2, 1, 1]])
def test_half_modes_match_the_enumeration(bands):
    modes = spectral.half_modes(bands)
    assert modes == reference_half_modes(bands)
    assert all(type(v) is int for m in modes for v in m)


# ---------------------------------------------------------------------------
# kernel counting policy
# ---------------------------------------------------------------------------

def test_kernel_count_synthetic_gap():
    kc = kernel_count(np.array([1e-12, 1e-11, 0.97, 2.1]))
    assert kc.count == 2
    assert not kc.indeterminate
    assert abs(kc.gap_ratio - 0.97e11) < 0.05e11
    assert kc.label == "2"


def test_kernel_count_no_gap_is_indeterminate():
    # one eigenvalue below the floor, the next only 50x above it: no cluster
    kc = kernel_count(np.array([1e-9, 5e-8, 1.0]))
    assert kc.count == 1
    assert kc.indeterminate
    assert kc.label == "indeterminate"


def test_kernel_count_zero_operator():
    # an identically vanishing operator: everything is kernel, gap infinite
    kc = kernel_count(np.array([-1e-17, -1e-18, 0.0]))
    assert kc.count == 3
    assert kc.gap_ratio == math.inf
    assert not kc.indeterminate


def test_kernel_count_zero_kernel():
    kc = kernel_count(np.array([0.5, 1.0, 2.0]))
    assert kc.count == 0
    assert not kc.indeterminate


def test_kernel_count_requires_ascending():
    with pytest.raises(SpectralError, match="ascending"):
        kernel_count(np.array([1.0, 0.5]))


@pytest.mark.parametrize("p", [1, 2])
def test_flat_t2_first_order_kernel_confirmed(p):
    # constants are the whole near-kernel; confirmed on two resolutions and
    # against the per-mode block oracle
    counts = []
    for size in (12, 16):
        cache = make_cache(2, size)
        rep = spectrum(d1_star_d1_handle(cache, p), n_eigs=None)
        assert not rep.kernel.indeterminate
        assert rep.kernel.gap_ratio > 100.0
        counts.append(rep.kernel.count)
        assert rep.kernel.count == flat_joint_kernel_oracle(cache, p, ["d1"])
    assert counts[0] == counts[1] == fiber.tracefree_dim(2, p)


def test_flat_t3_first_order_kernel():
    cache = make_cache(3, 8)
    rep = spectrum(d1_star_d1_handle(cache, 1), n_eigs=None)
    assert rep.kernel.count == 3 == flat_joint_kernel_oracle(cache, 1, ["d1"])
    assert rep.kernel.gap_ratio > 100.0


def test_kernel_bounded_by_ck_dimension():
    for (n, p, size) in ((2, 1, 12), (2, 2, 12), (3, 1, 8)):
        cache = make_cache(n, size)
        rep = spectrum(d1_star_d1_handle(cache, p), n_eigs=None)
        assert rep.kernel.count <= fiber.ck_dim_bound(n, p)


def test_nodal_assembly_carries_nyquist_junk():
    # the spectral derivative is blind to the Nyquist row: the nodal flat
    # Laplacian gains zero modes from the doubly-invisible corner functions
    cache = make_cache(2, 8)
    h = rough_laplacian_handle(cache, 1)
    w = h.domain_weights()
    WA = dense_images(h, np.eye(h.domain_dim)) * w[:, None]
    nodal = spectral._eigh_pencil(0.5 * (WA + WA.T), np.diag(w)).values
    clean = spectrum(h, n_eigs=None)
    assert clean.kernel.count == 2
    assert kernel_count(nodal).count == 8  # modes with every axis index in {0, N/2}
    assert nodal.size == 128 and clean.dof == 98


def test_first_order_kernel_matches_second_order_kernel():
    # near-kernel of the composition == near-kernel of the first-order
    # operator itself, measured through smallest singular values
    cache = make_cache(2, 12)
    h1 = d1_handle(cache, 1)
    basis = build_dealiased_basis(cache, 1)
    cols = basis.columns()
    applied = np.column_stack([h1.apply_vector(cols[:, j]) for j in range(cols.shape[1])])
    wc = h1.codomain_weights()
    G = applied.T @ (applied * wc[:, None])       # Gram of d1 images
    M = cols.T @ (cols * weight_vector(cache, "s0", 1)[:, None])
    sq = scipy.linalg.eigh(G, M, eigvals_only=True)
    kc_first = kernel_count(sq)
    rep = spectrum(d1_star_d1_handle(cache, 1), n_eigs=None)
    assert kc_first.count == rep.kernel.count == 2


# ---------------------------------------------------------------------------
# principal symbols
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_stacked_first_order_symbols_match_per_covector(n, p):
    # a stack of covectors gives each covector's symbol, bit for bit
    cache = make_cache(n, 8)
    xi = np.random.default_rng(n + p).standard_normal((6, n))
    for name in ("d1", "divergence", "d2", "d3"):
        h = spectral.handle_by_name(cache, p, name)
        stacked = h.symbol(xi, 1.0)
        assert stacked.shape[0] == len(xi)
        for k in range(len(xi)):
            assert np.array_equal(stacked[k], h.symbol(xi[k], 1.0))


SECOND_ORDER = ["rough_laplacian", "d1_star_d1", "d2_star_d2", "d3_star_d3",
                "sampson_tracefree", "delta_deltastar", "deltastar_delta"]


@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_second_order_symbols_match_mode_application_flat(n, p):
    cache = make_cache(n, 12)
    m = (1, 2) if n == 2 else (1, 2, 0)
    xi = np.asarray(m, float)
    theta = cache.spec.theta_mesh()
    wave = np.cos(sum(mi * th for mi, th in zip(m, theta)))
    t = fiber.tracefree_dim(n, p)
    for name in SECOND_ORDER:
        h = spectral.handle_by_name(cache, p, name)
        sig = h.symbol(xi, 1.0)
        for a in range(t):
            out = h.apply(mode_field(cache, p, m, component=a)).data
            pred = wave[..., None] * sig[:, a]
            assert np.max(np.abs(out - pred)) < 1e-10, name


def test_first_order_symbol_matches_mode_application():
    cache = make_cache(2, 12)
    h = d1_handle(cache, 2)
    m = (2, 1)
    sig = h.symbol(np.asarray(m, float), 1.0)
    theta = cache.spec.theta_mesh()
    phase = 2 * theta[0] + theta[1]
    out = h.apply(mode_field(cache, 2, m, part="sin")).data
    pred = np.cos(phase)[..., None] * sig[:, 0]
    assert np.max(np.abs(out - pred)) < 1e-10


@pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (3, 2), (4, 2), (3, 3)])
def test_symbol_composition_identities(n, p):
    rng = np.random.default_rng(5)
    Q = spectral._symbol_matrices(n, p)
    s1, s2, sA, sB, sC = (spectral._second_order_symbol(Q[k])
                          for k in ("Q1", "Q2", "A", "B", "C"))
    c = gradients.sw_coefficient(n, p)
    t = fiber.tracefree_dim(n, p)
    for _ in range(5):
        xi = rng.standard_normal(n)
        k2 = float(xi @ xi)
        eye = k2 * np.eye(t)
        # symmetrized Laplacian has the same leading part as the full square
        samp = (p + 1.0) * s1(xi, 1.0) - p * s2(xi, 1.0)
        assert np.max(np.abs(samp - eye)) < 1e-12 * k2
        # two routes to the first-piece composition agree symbol-by-symbol
        assert np.max(np.abs(s1(xi, 1.0) - c * s2(xi, 1.0) - sA(xi, 1.0))) < 1e-12 * k2
        # the three pieces exhaust the gradient square
        total = sA(xi, 1.0) + sB(xi, 1.0) + sC(xi, 1.0)
        assert np.max(np.abs(total - eye)) < 1e-12 * k2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_p1_composition_symbol_eigenvalues(n):
    # closed form: (1 - 1/n)|xi|^2 along xi and |xi|^2 / 2 across it
    sig = spectral._second_order_symbol(spectral._symbol_matrices(n, 1)["A"])
    xi = np.random.default_rng(n).standard_normal(n)
    k2 = float(xi @ xi)
    vals = np.sort(np.linalg.eigvalsh(sig(xi, 1.0))) / k2
    expect = np.sort([0.5] * (n - 1) + [1.0 - 1.0 / n])
    assert np.max(np.abs(vals - expect)) < 1e-12


def test_symbol_scaling_orders():
    cache = make_cache(2, 8, metric="conformal")
    xi = np.array([0.4, -1.1])
    for name in SECOND_ORDER:
        h = spectral.handle_by_name(cache, 2, name)
        assert np.allclose(h.symbol(3.0 * xi, 0.7), 9.0 * h.symbol(xi, 0.7), atol=1e-10)
    for name in ("gradient", "divergence", "d1", "d2", "d3"):
        h = spectral.handle_by_name(cache, 2, name)
        assert np.allclose(h.symbol(3.0 * xi, 0.7), 3.0 * h.symbol(xi, 0.7), atol=1e-10)


def test_symbol_conformal_point_scale():
    cache = make_cache(2, 12, metric="conformal", f_text="0.2*cos(x1)")
    h = rough_laplacian_handle(cache, 1)
    xi = np.array([1.0, 1.0])
    rep = symbol_eval(h, xi, x=(3, 5))
    f = cache.conf_exponent_values[3, 5]
    expect = math.exp(-2.0 * f) * 2.0 * np.eye(2)
    assert np.max(np.abs(rep.matrix - expect)) < 1e-14
    assert rep.distance_to_scalar < 1e-14


def test_symbol_positive_definite_on_presets():
    # strong ellipticity, measured: lowest symbol eigenvalue stays above
    # a fixed fraction of |xi|^2 across random covectors and points
    for metric in ("flat", "conformal"):
        cache = make_cache(2, 12, metric=metric)
        h = d1_star_d1_handle(cache, 2)
        rng = np.random.default_rng(11)
        for _ in range(100):
            xi = rng.standard_normal(2)
            x = tuple(rng.integers(0, 12, size=2))
            rep = symbol_eval(h, xi, x=x)
            bound = 1e-3 * rep.gscale * float(xi @ xi)
            assert rep.min_eigenvalue >= bound


def test_symbol_injectivity_of_first_piece():
    cache = make_cache(3, 8)
    h = d1_handle(cache, 2)
    for rep in symbol_sphere_scan(h, n_dirs=100, seed=2):
        assert rep.min_singular_value > 1e-3


def test_mode_injectivity_floor():
    # the first-piece symbol stays injective at every nonzero integer mode
    # |m_j| <= 4, so flat-torus kernels come from constants only: its
    # smallest singular value over |xi| is the square root of the d1* d1
    # symbol's lowest eigenvalue over |xi|^2
    for (n, p) in ((2, 1), (2, 2), (3, 1), (3, 2)):
        h = d1_star_d1_handle(make_cache(n, 8), p)
        floor = min(
            symbol_eval(h, np.asarray(m, float)).min_eigenvalue / float(np.dot(m, m))
            for m in itertools.product(range(-4, 5), repeat=n) if any(m)
        )
        assert math.sqrt(floor) > 0.1


def test_distance_to_scalar_is_measured_not_assumed():
    # the two second-order building blocks are far from scalar and have
    # different best-fit coefficients; the full gradient square is scalar
    n, p = 4, 2
    xi = np.array([1.0, 0.0, 0.0, 0.0])
    Q = spectral._symbol_matrices(n, p)
    s1 = spectral._second_order_symbol(Q["Q1"])(xi, 1.0)
    s2 = spectral._second_order_symbol(Q["Q2"])(xi, 1.0)

    def dist_alpha(m):
        a = float(np.trace(m)) / m.shape[0]
        return float(np.linalg.norm(m - a * np.eye(m.shape[0])) / np.linalg.norm(m)), a

    d1_, a1 = dist_alpha(s1)
    d2_, a2 = dist_alpha(s2)
    assert d1_ > 0.05 and d2_ > 0.05
    assert abs(a1 - a2) > 0.1  # no single scalar constant fits both
    srough = spectral._second_order_symbol(Q["I"])(xi, 1.0)
    droo, _ = dist_alpha(srough)
    assert droo < 1e-14


def test_symbol_eval_guards():
    cache = make_cache(2, 8)
    h = rough_laplacian_handle(cache, 1)
    with pytest.raises(SpectralError, match="nonzero"):
        symbol_eval(h, np.zeros(2))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_spectrum_csv_roundtrip(tmp_path):
    cache = make_cache(2, 8)
    rep = spectrum(rough_laplacian_handle(cache, 1), n_eigs=10)
    path = tmp_path / "spec.csv"
    spectrum_to_csv(rep, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue"]
    assert len(rows) == 11
    back = np.array([float(r[1]) for r in rows[1:]])
    assert np.array_equal(back, np.asarray(rep.eigenvalues))


def test_symbol_scan_csv(tmp_path):
    cache = make_cache(2, 8)
    h = d1_star_d1_handle(cache, 1)
    path = tmp_path / "scan.csv"
    reports = symbol_scan_to_csv(h, path, n_dirs=8, seed=4)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["index", "xi_0", "xi_1"]
    assert len(rows) == len(reports) + 1
    assert all(float(r[3]) > 0 for r in rows[1:])  # min singular value column


def test_handle_registry_deterministic():
    cache = make_cache(2, 8)
    names = list(spectral.HANDLE_NAMES)
    assert names[0] == "gradient"
    assert {"d1", "d1_star_d1", "delta_deltastar"} <= set(names)
    assert not {"identity", "weitzenbock"} & set(names)
    for name in names:
        assert spectral.handle_by_name(cache, 2, name).name == name
    with pytest.raises(SpectralError, match="unknown operator"):
        spectral.handle_by_name(cache, 2, "d4")
