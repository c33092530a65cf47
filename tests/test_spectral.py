"""Spectral-layer tests: Galerkin blocks against dense column-by-column
references, weighted eigensolves with Fourier oracles, the kernel-count
policy, dealiased-vs-nodal zero modes, and algebraic principal symbols
checked against direct mode application."""

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

from gradlab import allocation, fiber, fields, gradients, spectral
from gradlab.expressions import TrigPoly, parse_trig_poly
from gradlab.fields import TensorField, l2_inner
from gradlab.config import load_config
from gradlab.harness import build_cache, flat_joint_kernel_oracle
from gradlab.geometry import GridSpec, build_geometry
from gradlab.spectral import (
    Galerkin,
    SpectralError,
    build_dealiased_basis,
    d1_star_d1_handle,
    kernel_count,
    spectrum,
)
from testlib import (
    PIECES,
    basis_dim,
    class_parts,
    codomain_weights,
    delta_symbol_matrices,
    direct_trig_series,
    domain_dim,
    domain_weights,
    galerkin_form_reference,
    galerkin_grams_reference,
    piece_handle,
    rough_laplacian_formula,
    rough_laplacian_handle,
    weight_vector,
)


def make_cache(n=2, size=12, metric="flat", f_text=None):
    spec = GridSpec(n=n, sizes=(size,) * n)
    if metric == "flat":
        f = TrigPoly([])
    else:
        if f_text is None:
            f_text = "0.1*cos(x1)" if n == 2 else "0.05*cos(x1)"
        f = parse_trig_poly(f_text)
    return build_geometry(spec, f)


def d1_handle(cache, p):
    return piece_handle(cache, p, "d1")


def divergence_handle(cache, p):
    return piece_handle(cache, p, "divergence")


def random_vec(handle, seed=0):
    return np.random.default_rng(seed).standard_normal(domain_dim(handle))


def mode_field(cache, p, m, part="cos", component=0):
    theta = cache.spec.theta_mesh()
    phase = sum(mi * th for mi, th in zip(m, theta))
    wave = np.cos(phase) if part == "cos" else np.sin(phase)
    t = fiber.tracefree_dim(cache.n, p)
    data = np.zeros((t,) + cache.spec.shape)
    data[component] = wave
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
        shape = ((2, d) if tag.startswith("cov") else (d,)) + cache.spec.shape
        a = TensorField(cache, tag, rank, rng.standard_normal(shape))
        b = TensorField(cache, tag, rank, rng.standard_normal(shape))
        direct = l2_inner(a, b)
        via_w = float(np.sum(a.data.ravel() * b.data.ravel() * w))
        assert abs(direct - via_w) < 1e-12 * abs(direct)


@pytest.mark.parametrize("maker", [d1_handle, rough_laplacian_handle, d1_star_d1_handle])
def test_apply_is_linear(maker):
    cache = make_cache(2, 8, metric="conformal")
    h = maker(cache, 2)
    rng = np.random.default_rng(1)
    u, v = rng.standard_normal(domain_dim(h)), rng.standard_normal(domain_dim(h))
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
    # the Galerkin form of the identity is the colours' cut paired with an
    # equal copy of itself, bit for bit; the mass pairs the cut with itself,
    # one symmetric product, so it is exactly symmetric
    cache = make_cache(2, 8, metric="conformal")
    gal = Galerkin(cache, 1)
    identity = spectral.OperatorHandle(
        name="identity", cache=cache, domain_rank=1, apply=lambda phi: phi, symbol=None)
    copy = gal._pair(gal._colour_hat, [X.copy() for X in gal._colour_hat], 0.0)
    for F, C, M in zip(gal.form(identity), copy, gal.mass()):
        assert np.array_equal(F, C)
        assert np.array_equal(M, M.swapaxes(1, 2))


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
    piece = h.name in PIECES
    blocks = gal.gram([h.name]) if piece else gal.form(h)
    for b, G in enumerate(per_block(gal, blocks)):
        c = rng.standard_normal(len(gal.blocks[b].columns))
        for copy in range(gal.blocks[b].multiplicity):
            phi = gal.field(b, c, copy)
            image = h.apply(phi)
            direct = l2_inner(image if piece else phi, image)
            assert abs(c @ G @ c - direct) <= 1e-10 * direct


@pytest.mark.parametrize("metric", ["flat", "conformal"])
def test_self_adjoint_assembly_defect(metric):
    # weighted symmetry of the nodal matrices, one application per grid value
    cache = make_cache(2, 8, metric=metric)
    for maker in (rough_laplacian_handle, d1_star_d1_handle):
        h = maker(cache, 1)
        WA = dense_images(h, np.eye(domain_dim(h))) * domain_weights(h)[:, None]
        assert np.linalg.norm(WA - WA.T) <= 1e-10 * np.linalg.norm(WA)


# no invariant axis: one dense sector of 63 * 63 * 2 columns at N=64
OVERSIZED = (2, 64, "conformal", "0.1*cos(x1)+0.05*sin(x2)")


def test_dof_cap_enforced(monkeypatch):
    # the size cap refuses the layer before its colours are synthesized
    def sample(*args):
        raise AssertionError("the colours were synthesized before admission")

    monkeypatch.setattr(spectral.Galerkin, "_series", sample)
    with pytest.raises(SpectralError, match="shrink"):
        Galerkin(make_cache(*OVERSIZED), 2)


def test_assemble_caches_matrix(monkeypatch):
    # the mass and the Grams are built once, and a joint eigendecomposition
    # solved again from them gives the same values bit for bit; every Gram
    # comes from the gradient of each colour, taken once, through no handle;
    # the last colour's reflection on the mirror axis x1 is the one more
    # field the gradient sees
    cache = make_cache(2, 8, metric="conformal")
    gal = Galerkin(cache, 1)
    probed = []
    gradient = fields.gradient
    monkeypatch.setattr(fields, "gradient",
                        lambda phi: probed.append(len(phi.data)) or gradient(phi))
    monkeypatch.setattr(spectral.OperatorHandle, "apply_vector", None)
    monkeypatch.setattr(spectral, "OperatorHandle", None)
    first = gal.gram(["d1", "divergence"])
    eig = gal.joint_eigen(["d1", "divergence"])
    assert gal.mirrors == (0,)
    assert sum(probed) == gal.colour_count + 1
    for B, again in zip(first, gal.gram(["d1", "divergence"])):
        assert np.array_equal(B, again)
    for r, again in zip(eig, gal.joint_eigen(["d1", "divergence"])):
        assert np.array_equal(r.values, again.values)
    gal.gram(["d2", "d3"])
    assert gal.mass() is gal.mass()
    assert sum(probed) == gal.colour_count + 1
    with pytest.raises(SpectralError, match="rough_laplacian"):
        gal.gram(["d1", "rough_laplacian"])


# ---------------------------------------------------------------------------
# eigensolve
# ---------------------------------------------------------------------------

def test_eigensolve_diagonal_matrix():
    d = np.array([3.0, -1.0, 2.0, 0.5])
    res = spectral._eigh_pencil(np.diag(d), np.eye(4), scale=np.linalg.norm(d),
                                Linv=np.eye(4))
    assert np.allclose(res.values, np.sort(d), atol=1e-14)


def test_eigensolve_weighted_orthonormal_vectors():
    # a diagonal mass (nodal basis) and a dense one (dealiased basis on a
    # conformal metric, as in sectors without an invariant axis)
    cache = make_cache(2, 8, metric="conformal")
    h = rough_laplacian_handle(cache, 1)
    w = domain_weights(h)
    A = dense_images(h, np.eye(domain_dim(h)))
    cols = build_dealiased_basis(cache, 1).columns()
    for G, M in ((A * w[:, None], np.diag(w)),
                 (cols.T @ (A @ cols * w[:, None]), cols.T @ (cols * w[:, None]))):
        G = 0.5 * (G + G.T)
        res = spectral._eigh_pencil(G, M, scale=np.linalg.norm(G), Linv=spectral._reduce(M))
        vals, V, residuals = res.values[:10], res.vectors[:, :10], res.residuals[:10]
        assert np.max(np.abs(V.T @ M @ V - np.eye(10))) < 1e-10
        assert np.max(residuals) <= 1e-8
        assert np.all(np.diff(vals) >= -1e-12)


def stacked_group(gal, stacks, size):
    """The blocks of one size and the stacks of their matrices and masses."""
    k = [len(gal.blocks[group[0]].columns) for group in gal._groups].index(size)
    return gal._groups[k], stacks[k], gal.mass()[k]


@pytest.mark.parametrize("metric,size,p,width", [
    ("conformal", 24, 2, 23),   # dense mass blocks
    ("flat", 12, 2, 2),         # diagonal mass blocks
])
def test_batched_eigensolve_matches_scipy_reference(metric, size, p, width):
    gal = Galerkin(make_cache(2, size, metric=metric), p)
    blocks = gal.gram(["d1", "divergence"])
    scale = gal.norm(blocks)
    group, G, M = stacked_group(gal, blocks, width)
    assert len(group) > 1
    res = spectral._eigh_pencil(G, M, scale=scale, Linv=spectral._reduce(M))
    for k in range(len(group)):
        ref = scipy.linalg.eigh(G[k], M[k], eigvals_only=True)
        assert np.max(np.abs(res.values[k] - ref)) <= 1e-12 * scale
        V = res.vectors[k]
        assert np.max(np.abs(V.T @ M[k] @ V - np.eye(width))) <= 1e-12
    assert np.max(res.residuals) <= spectral._RESIDUAL_TOL


@pytest.mark.parametrize("metric,size,sizes", [
    # the mode-0 sector's x1-classes split in two, then 11 of 23 in each class
    ("conformal", 24, {11, 12, 23}),
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
    Linv = spectral._reduce(M)
    spectral._eigh_pencil(G, M, scale=scale, Linv=Linv)
    # eigh reads one triangle: an antisymmetric part in one block leaves
    # that block's pencil unsolved, and the batch is refused
    E = np.triu(np.ones((2, 2)), 1) * 1e-6 * scale
    G[3] += E - E.T
    with pytest.raises(SpectralError, match=f"in 1 of {len(G)} pencils"):
        spectral._eigh_pencil(G, M, scale=scale, Linv=Linv)


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
    Linv = spectral._reduce(M)
    eigh = np.linalg.eigh

    def perturbed(eps):
        def solve(C):
            vals, Y = eigh(C)
            return vals, Y + eps * rng.standard_normal(Y.shape)
        return solve

    res = spectral._eigh_pencil(G, M, scale=1.0, Linv=Linv)
    assert np.max(res.residuals) <= 1e-12
    for eps in (1e-11, 1e-6):
        monkeypatch.setattr(np.linalg, "eigh", perturbed(eps))
        if eps > spectral._RESIDUAL_TOL:
            with pytest.raises(SpectralError, match="did not converge"):
                spectral._eigh_pencil(G, M, scale=1.0, Linv=Linv)
            continue
        res = spectral._eigh_pencil(G, M, scale=1.0, Linv=Linv)
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
            name="constant", cache=cache, domain_rank=p,
            apply=lambda phi: TensorField(cache, "s0", p, fields._left(A, phi.data, n)),
            symbol=None)

    equivariant = Q @ np.diag(np.arange(1.0, len(Q) + 1)) @ Q.T
    gal.form(constant(equivariant))
    with pytest.raises(SpectralError, match="reflections"):
        gal.form(constant(equivariant + 0.1 * np.outer(Q[:, -1], Q[:, 0])))


@pytest.mark.parametrize("n,f_text,p", [(2, "0.1*cos(x1)", 1), (2, "0.1*cos(x1)+0.05*sin(x2)", 2),
                                        (3, "0.05*cos(x1)", 1)])
def test_mirror_gate_refuses_a_reflection_breaking_handle(n, f_text, p):
    # multiplying by a function even in x1 commutes with its reflection and
    # passes; one odd in x1 keeps every translation and fiber class but
    # moves each class of the mirror axis into the other, and is refused
    # before any entry between those classes would be needed
    cache = make_cache(n, 8, metric="conformal", f_text=f_text)
    gal = Galerkin(cache, p)
    assert gal.mirrors == (0,)
    x1 = cache.spec.theta_mesh()[0]

    def multiply(u):
        return spectral.OperatorHandle(
            name="multiply", cache=cache, domain_rank=p,
            apply=lambda phi: TensorField(cache, "s0", p, u * phi.data), symbol=None)

    gal.form(multiply(1.0 + 0.1 * np.cos(x1)))
    with pytest.raises(SpectralError, match="reflections of the mirror axes"):
        gal.form(multiply(1.0 + 0.1 * np.sin(x1)))


@pytest.mark.parametrize("f_text,mirrors,sizes", [
    ("0.1*cos(x1)", (0,), {11, 12, 23}),
    # not even in x1: no mirror axis, so x1's functions stay in one class
    ("0.1*sin(x1)", (), {23, 46}),
])
def test_mirror_classes_halve_only_even_axes(f_text, mirrors, sizes):
    cache = make_cache(2, 24, metric="conformal", f_text=f_text)
    gal = Galerkin(cache, 2)
    assert gal.mirrors == mirrors
    assert {len(b.columns) for b in gal.blocks} == sizes
    assert gal.colour_count == max(sizes)
    assert sum(len(b.columns) * b.multiplicity for b in gal.blocks) == 23 * 23 * 2


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


# flat (every axis invariant), one invariant axis fewer than n, none (with
# a mirror axis and without); then the shipped kernel cells at their finest
# grid and highest rank: flat2d, conf2d and flat3d
ADMISSION_CASES = [
    (2, 12, None, 2), (3, 8, None, 1),
    (2, 16, "0.1*cos(x1)", 2), (3, 8, "0.05*cos(x1)", 2),
    (2, 8, "0.1*cos(x1)+0.05*sin(x2)", 1), (2, 12, "0.1*cos(x1)+0.05*sin(x2)", 2),
    (3, 8, "0.1*cos(x1)+0.05*sin(x2)", 2), (2, 8, "0.1*sin(x1)+0.05*sin(x2)", 1),
    (2, 32, None, 3), (2, 32, "0.1*cos(x1)", 2), (3, 16, None, 3),
]


def traced_peak(fn):
    """The traced peak of fn() above what was allocated when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,size,f_text,p", ADMISSION_CASES)
def test_galerkin_admission_covers_the_peak(n, size, f_text, p):
    # the estimate bounds the traced peak of a layer's whole life in a
    # kernel run (build, Gram build, the d1* d1 form and every solve) and
    # stays within half as much again of it
    cache = make_cache(n, size, metric="flat" if f_text is None else "conformal",
                       f_text=f_text)
    names = (["d1"], ["d1", "divergence"], ["d2", "d3"], ["divergence"])
    layers = []

    def run():
        gal = Galerkin(cache, p)
        spectrum(d1_star_d1_handle(cache, p), galerkin=gal)
        for system in names:
            gal.joint_eigen(system)
        layers.append(gal)

    run()  # fill the per-(n, p) structure caches outside the trace
    layers.clear()
    peak = traced_peak(run)
    assert peak <= layers[0]._bytes_before_solve() <= 1.5 * peak


# cells where the arrays a probe or a pairing allocates outweigh the small
# objects beside them: one invariant axis on the 2- and 3-torus, three on
# the flat 3-torus, none on the 2-torus
PLAN_CASES = [(2, 16, "0.1*cos(x1)", 2), (3, 8, "0.05*cos(x1)", 2), (3, 16, None, 3),
              (2, 12, "0.1*cos(x1)+0.05*sin(x2)", 2)]


@pytest.mark.parametrize("n,size,f_text,p", PLAN_CASES)
def test_plan_bounds_each_probe_and_pairing(n, size, f_text, p):
    # each probe and each pairing, traced on its own, allocates no more than
    # its phase's widest step lists beside the arrays it finds (the layer's
    # tables, the mass, L^-1 and Grams, a pairing's cuts) and one record of
    # small objects, and at least two thirds of it: this pins the bounded
    # terms, the operators' work, the fold's halves, the FFT's half spectra
    # and scratch, the ufunc buffers and the gather's index buffers
    cache = make_cache(n, size, metric="flat" if f_text is None else "conformal",
                       f_text=f_text)
    gal = Galerkin(cache, p)
    gal.mass()
    h = d1_star_d1_handle(cache, p)
    probes = {"colour": (lambda phi: phi.data, "s0", gal.t),
              "form": (lambda phi: h.apply(phi).data, "s0", gal.t),
              "gradient": (lambda phi: fields._merged(fields.gradient(phi).data, n), "cov_s0",
                           n * gal.t)}
    ops = {f"{name} probe": lambda args=args: gal._probe(*args) for name, args in probes.items()}
    grad = gal._probe(*probes["gradient"])
    for piece, structure in spectral._SPLIT.items():
        ops[f"{piece} pairing"] = lambda m=fields._slots(structure(n, p)): gal._pair(
            grad, grad, 1.0, m)
    tables = {label for label, _, _ in gal.plan.phases["colour probe"][0]} - {
        "colour synthesis, weight root", "ufunc buffer"}
    cut = 8 * gal.t * sum(map(math.prod, gal.plan.cut))  # the colours' own
    for name, op in ops.items():
        found = tables | {"mass", "L^-1", "Grams"}
        if name.endswith("pairing"):
            found |= {"gradient cut", "form cut"}
        planned = max(allocation.nbytes([a for a in step if a[0] not in found])
                      for step in gal.plan.phases[name])
        planned += cut if name == "colour probe" else 0
        op()
        peak = traced_peak(op)
        assert peak <= planned + allocation._RECORD_BYTES, name
        assert planned <= 1.5 * peak, name


@pytest.mark.parametrize("n,size,f_text,p", PLAN_CASES + ADMISSION_CASES[:2])
def test_plan_bounds_the_operators_work(n, size, f_text, p):
    # the gradient's and the d1* d1 form's own work on a chunk of colours,
    # beside the images they return, is bounded by the plan's term
    # (`_GRADIENT_WORK` arrays of the gradient's image, `_FORM_WORK` of a
    # rank p+1 monomial field, per colour)
    cache = make_cache(n, size, metric="flat" if f_text is None else "conformal",
                       f_text=f_text)
    gal = Galerkin(cache, p)
    h = d1_star_d1_handle(cache, p)
    points = cache.spec.num_points
    for chunk in (1, 4):
        phi = TensorField(cache, "s0", p, gal._colours(slice(0, chunk)))
        for apply, work in ((fields.gradient, allocation._GRADIENT_WORK * n * gal.t),
                            (h.apply, allocation._FORM_WORK * fiber.sym_dim(n, p + 1))):
            apply(phi)
            images = 8 * chunk * points * (n * gal.t if apply is fields.gradient else gal.t)
            assert traced_peak(lambda: apply(phi)) <= images + 8 * chunk * points * work


@pytest.mark.parametrize("n,size,f_text,p", ADMISSION_CASES)
def test_plan_bounds_the_layer_tables(n, size, f_text, p):
    # what a built layer holds beside the colours' cut is bounded by the
    # plan's tables: the sector sums, the gathers, rows and masks, a record
    # per block and the layer's records
    cache = make_cache(n, size, metric="flat" if f_text is None else "conformal",
                       f_text=f_text)
    Galerkin(cache, p)
    layers = []
    tracemalloc.start()
    try:
        layers.append(Galerkin(cache, p))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    gal = layers[0]
    tables = [a for a in gal.plan.phases["colour probe"][0]
              if a[0] not in ("colour synthesis, weight root", "ufunc buffer")]
    assert held - sum(X.nbytes for X in gal._colour_hat) <= allocation.nbytes(tables)


def test_gram_pairing_allocates_no_operand_sized_array():
    # the cuts carry the root of their weight, so a pairing forms only
    # class matrices: every class's whole matrix in every sector, each run's
    # product written into it in place, and the blocks it gathers into the
    # plan's stacks a row at a time; a weighted copy of an operand, as large
    # as a group's share of the cut, breaks this
    cache = make_cache(3, 8, metric="conformal", f_text="0.1*cos(x1)")
    gal = Galerkin(cache, 2)
    grad = gal._probe(lambda phi: fields._merged(fields.gradient(phi).data, cache.n), "cov_s0",
                      cache.n * gal.t)
    sectors = 8 * math.prod(gal.plan.cells)
    blocks = 8 * sum(map(math.prod, gal.plan.blocks))
    assert sectors + blocks + 2**14 < max(X.nbytes for X in grad)
    gal._pair(grad, grad, 1.0)
    assert traced_peak(lambda: gal._pair(grad, grad, 1.0)) <= sectors + blocks + 2**14


def test_gram_build_maps_one_run_of_sectors_at_a_time():
    # each piece's map is applied to the gradient's cut a run of sectors at
    # a time, and each run is paired at once, so beside the gradient's cut
    # stack the Gram build holds one run's mapped cut, the class-matrix
    # array S and the four Grams, each no larger than S (0.97 S here); a
    # whole piece's cut (here as large as the gradient's, 4.4 S) breaks
    # this, and the gradient's probe, in chunks of `_PROBE_BYTES`, stays
    # under it too
    cache = make_cache(2, 32, metric="conformal")
    gal = Galerkin(cache, 2)
    gal.mass()
    cut = 8 * cache.n * gal.t * sum(map(math.prod, gal.plan.cut))
    run = max(allocation.nbytes([a]) for piece in spectral._SPLIT
              for step in gal.plan.phases[f"{piece} pairing"] for a in step if a[0] == "run")
    cells = 8 * math.prod(gal.plan.cells)
    assert run <= cells < cut
    peak = traced_peak(gal._build_gram)
    assert sorted(gal._grams) == sorted(spectral._SPLIT)
    assert peak <= cut + run + 4.5 * cells


def test_galerkin_admission_counts_the_reduction():
    # the estimate covers the colours' cut, the mass stacks and their L^{-1}
    gal = Galerkin(make_cache(2, 16, metric="conformal"), 2)
    held = sum(X.nbytes for X in gal._colour_hat)
    held += sum(M.nbytes + L.nbytes for M, L in gal._reduction())
    assert held <= gal._bytes_before_solve()
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
    assert basis_dim(basis) == 11 * 11 * 2
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
    rep = spectrum(h)
    oracle = laplace_multiset(build_dealiased_basis(cache, 1))
    assert rep.dof == oracle.size
    assert np.max(np.abs(rep.eigenvalues - oracle)) < 1e-8 * max(1.0, oracle[-1])
    assert rep.symmetry_defect < 1e-12
    assert rep.residual_max <= 1e-8


def test_flat_rough_laplacian_multiplicities():
    cache = make_cache(2, 12)
    rep = spectrum(rough_laplacian_handle(cache, 1))
    vals = np.round(rep.eigenvalues, 6)
    # |k|^2 = 0 once, |k|^2 = 1 from (1,0),(0,1) as cos+sin, times fiber dim 2
    assert int(np.sum(vals == 0.0)) == 2
    assert int(np.sum(vals == 1.0)) == 8


def test_nonnegative_spectrum_of_sa_handles():
    for metric in ("flat", "conformal"):
        cache = make_cache(2, 12, metric=metric)
        for maker in (rough_laplacian_handle, d1_star_d1_handle):
            rep = spectrum(maker(cache, 2))
            assert rep.eigenvalues[0] >= -1e-9 * rep.lambda_max


# ---------------------------------------------------------------------------
# the sector-blocked Galerkin layer against dense column-by-column assembly
# ---------------------------------------------------------------------------

def dense_gram(handles, cols):
    """Reference Galerkin matrix of a stacked system: one application per column."""
    G = np.zeros((cols.shape[1], cols.shape[1]))
    for h in handles:
        A = dense_images(h, cols)
        G += A.T @ (A * codomain_weights(h)[:, None])
    return G


def dense_form(handle, cols):
    return cols.T @ (dense_images(handle, cols) * domain_weights(handle)[:, None])


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
        # and the mirror axes agree with comparing f with its reflection
        even = tuple(j for j in range(cache.n) if j not in sampled and np.max(np.abs(
            f - np.take(f, -np.arange(f.shape[j]) % f.shape[j], axis=j))) <= 1e-13)
        assert spectral.mirror_axes(cache) == even


# flat: every axis invariant; cos(x1): the other axes; with sin(x2) the
# 2-torus has no invariant axis (one sector, the dense pencil)
GALERKIN_METRICS = [None, "0.1*cos(x1)", "0.1*cos(x1)+0.05*sin(x2)"]
# the dense 3-torus reference (DOF 1029) is slow: two cases, and the
# spectra compared there for the d1*d1 form only
GALERKIN_CASES = [
    (2, p, f_text) for p in (1, 2) for f_text in GALERKIN_METRICS
] + [(3, 1, None), (3, 1, "0.1*cos(x1)")]


@pytest.mark.parametrize("n,p,f_text", GALERKIN_CASES)
def test_galerkin_sectors_match_dense_reference(n, p, f_text):
    metric = "flat" if f_text is None else "conformal"
    cache = make_cache(n, 8, metric=metric, f_text=f_text)
    gal = Galerkin(cache, p)
    first_invariant = {None: 0, GALERKIN_METRICS[1]: 1, GALERKIN_METRICS[2]: 2}[f_text]
    assert gal.axes == tuple(range(first_invariant, n))
    basis = build_dealiased_basis(cache, p)
    assert sum(len(b.columns) * b.multiplicity for b in gal.blocks) == basis_dim(basis)
    w = weight_vector(cache, "s0", p)
    # the blocks on their own columns and translates
    X, where = reduced_columns(gal)
    assert_block_diagonal(gal, gal.mass(), pairing(X, X, w), where)
    systems = (["d1"], ["divergence"], ["d2", "d3"])
    for names in systems:
        handles = [piece_handle(cache, p, name) for name in names]
        images = [apply_stack(h, X) for h in handles]
        ref = sum(pairing(A, A, codomain_weights(h)) for h, A in zip(handles, images))
        assert_block_diagonal(gal, gal.gram(names), ref, where)
    h = d1_star_d1_handle(cache, p)
    assert_block_diagonal(gal, gal.form(h), pairing(X, apply_stack(h, X), w), where)
    # the spectra, with multiplicity, against the full basis of the mode table
    cols = basis.columns()
    M = cols.T @ (cols * w[:, None])
    for names in systems if n == 2 else ():
        G = dense_gram([piece_handle(cache, p, name) for name in names], cols)
        ref = scipy.linalg.eigh(G, M, eigvals_only=True)
        got = spectral.sector_spectrum(gal.joint_eigen(names))
        assert np.max(np.abs(got - ref)) <= 1e-10 * ref[-1]
    F = dense_form(h, cols)
    ref = scipy.linalg.eigh(0.5 * (F + F.T), M, eigvals_only=True)
    rep = spectrum(h, galerkin=gal)
    assert np.max(np.abs(rep.eigenvalues - ref)) <= 1e-10 * ref[-1]


def full_spectrum_blocks(gal, left, right, weights, tag, rank):
    """Reference blocks from the whole grid: each image stack split into its
    reflection classes on the bundle (`tag`, `rank`) (`class_parts`), the
    full FFT along the invariant axes, every sector keeping the bins +k_a
    and -k_a on each invariant axis and every index on the others, each
    pairing counted once; a block is its class's matrix in its sector on
    the block's rows (the colours holding its columns)."""
    spec = gal.cache.spec
    axes = [3 + a for a in gal.axes]
    shape = (len(left), -1) + spec.shape
    L, R = (np.fft.fftn(class_parts(gal, X.reshape(shape), tag, rank), axes=axes)
            for X in (left, right))
    L, R = (X.reshape(X.shape[:3] + (spec.num_points,)) for X in (L, R))
    w = weights.reshape(-1, spec.num_points)
    norm = math.prod(spec.sizes[a] for a in gal.axes)
    out = []
    for block in gal.blocks:
        key = dict(zip(gal.axes, gal.keys[block.sector]))
        per_axis = [sorted({key[a], -key[a] % size}) if a in key else range(size)
                    for a, size in enumerate(spec.sizes)]
        g = np.ravel_multi_index(np.ix_(*per_axis), spec.shape).ravel()
        ix = block.rows
        assert np.array_equal(gal._classes[block.part][ix], block.columns)
        Ls = L[block.part, ix].take(g, axis=-1).reshape(len(ix), -1)
        Rs = R[block.part, ix].take(g, axis=-1).reshape(len(ix), -1)
        out.append(((Ls.conj() * w.take(g, axis=1).ravel()) @ Rs.T).real / norm)
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
    # counts a nonzero bin twice, the other invariant axes keep both signs;
    # the mirror axis x1 keeps half its points, each standing for its image
    cache = make_cache(n, 8, metric="flat" if f_text is None else "conformal",
                       f_text=f_text)
    p = 2
    gal = Galerkin(cache, p)
    colours = gal._colours(slice(None))
    assert_blocks_close(gal, gal.mass(), full_spectrum_blocks(
        gal, colours, colours, weight_vector(cache, "s0", p), "s0", p))
    sp = gradients.decompose(TensorField(cache, "s0", p, colours))
    grad_scale = max(float(np.max(np.abs(B))) for B in full_spectrum_blocks(
        gal, sp.grad.data, sp.grad.data, weight_vector(cache, "cov_s0", p), "cov_s0", p))
    for piece, (tag, shift) in PIECES.items():
        images = getattr(sp, piece).data
        ref = full_spectrum_blocks(gal, images, images, weight_vector(cache, tag, p + shift),
                                   tag, p + shift)
        if n == 2 and piece == "d3":
            # d3 vanishes identically on the 2-torus at p >= 2: both routes
            # hold roundoff only, which is all there is to compare
            for B in per_block(gal, gal.gram([piece])) + ref:
                assert np.max(np.abs(B), initial=0.0) <= 1e-28 * grad_scale
            continue
        assert_blocks_close(gal, gal.gram([piece]), ref)
    h = d1_star_d1_handle(cache, p)
    images = h.apply(TensorField(cache, "s0", p, colours)).data
    assert_blocks_close(gal, gal.form(h), full_spectrum_blocks(
        gal, colours, images, domain_weights(h), "s0", p))


# every axis invariant, all but x1, all but x1 and x2 (none at n = 2)
REFERENCE_METRICS = [None, "0.1*cos(x1)", "0.1*cos(x1)+0.05*sin(x2)"]


@pytest.mark.parametrize("f_text", REFERENCE_METRICS)
@pytest.mark.parametrize("n,size,p", [(2, 8, 1), (2, 8, 2), (2, 8, 3), (3, 8, 1), (3, 8, 2),
                                      (3, 8, 3)])
def test_gradient_stack_grams_match_the_piece_route(n, size, p, f_text, monkeypatch):
    # the Grams from one cut gradient stack, the mass and the d1* d1 form,
    # each probed in several chunks, against decomposing every colour at
    # once, one whole-stack cut per piece and each piece's own weight
    cache = make_cache(n, size, metric="flat" if f_text is None else "conformal",
                       f_text=f_text)
    first = Galerkin(cache, p)
    count = first.colour_count
    chunk = max(1, (count - 1) // 2)
    monkeypatch.setattr(spectral, "_PROBE_BYTES", chunk * first.plan.colour_bytes)
    gal = Galerkin(cache, p)
    assert gal.plan.chunk == chunk < count
    ref = galerkin_grams_reference(gal)
    scale = max(float(np.max(np.abs(B))) for B in ref["grad"])
    for piece in PIECES:
        for B, R in zip(gal.gram([piece]), ref[piece]):
            assert np.max(np.abs(B - R)) <= 1e-13 * scale
    masses = galerkin_form_reference(gal, spectral.OperatorHandle(
        name="identity", cache=cache, domain_rank=p, apply=lambda phi: phi, symbol=None))
    for M, R in zip(gal.mass(), masses):
        assert np.max(np.abs(M - R)) <= 1e-13 * max(float(np.max(np.abs(R))) for R in masses)
    h = d1_star_d1_handle(cache, p)
    for F, R in zip(gal.form(h), galerkin_form_reference(gal, h)):
        assert np.max(np.abs(F - R)) <= 1e-13 * scale


def test_divergence_pairs_with_the_gradient_weight():
    # the divergence e^{-2f} (-K0 X) is paired with the weight of rank p-1;
    # that weight times e^{-4f} is the weight of the gradient, so every
    # piece of a layer's Gram build shares one scalar weight
    for f_text in ("0.1*cos(x1)", "0.1*cos(x1)+0.05*sin(x2)"):
        cache = make_cache(2, 16, metric="conformal", f_text=f_text)
        for p in (1, 2, 3):
            low = fields.fiber_weight_scalar(cache, "s0", p - 1)
            low = low * cache.conformal_factor(-2.0) ** 2
            grad = fields.fiber_weight_scalar(cache, "cov_s0", p)
            assert np.max(np.abs(low - grad) / grad) <= 1e-15


# n = 2 at p = 2 has d3 = 0 identically: every output is held to the scale
# of the gradient as well as its own
BATCH_CASES = [(2, 1, None), (2, 2, "0.1*cos(x1)"), (2, 1, "0.1*cos(x1)+0.05*sin(x2)"),
               (3, 2, None), (3, 1, "0.05*cos(x1)")]


@pytest.mark.parametrize("n,p,f_text", BATCH_CASES)
def test_batched_operators_match_single_fields(n, p, f_text):
    cache = make_cache(n, 8, metric="flat" if f_text is None else "conformal",
                       f_text=f_text)
    t = fiber.tracefree_dim(n, p)
    data = np.random.default_rng(5).standard_normal((3, t) + cache.spec.shape)
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
    applies = [fields.gradient, fields.divergence, gradients.d1]
    for apply in applies + [apply for apply, _ in second_order_routes(cache, p).values()]:
        assert_stacked(apply(batch).data, [apply(phi).data for phi in singles])
    # the independent routes and oracles that no handle reaches
    assert_stacked(rough_laplacian_formula(batch).data,
                   [rough_laplacian_formula(phi).data for phi in singles])
    assert_stacked(gradients.curvature_action(batch).data,
                   [gradients.curvature_action(phi).data for phi in singles])
    parts = gradients.projector_components(sp.grad)
    for name in "ABC":
        assert_stacked(parts[name].data, [gradients.projector_components(one.grad)[name].data
                                          for one in splits])
    if p == 1:
        assert_stacked(gradients.ahlfors_deformation(sp.grad).data,
                       [gradients.ahlfors_deformation(one.grad).data for one in splits])


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
    (None, 2), ("0.1*cos(x1)", 31), ("0.1*cos(x1)+0.05*sin(x2)", 31 * 31),
])
def test_galerkin_applies_once_per_colour(f_text, largest):
    # each colour is applied once, and there are as many colours as the
    # largest block has columns: the trig functions of the varying axes
    # times the fiber dimension, halved by the reflection of x1 where the
    # metric is even in it
    cache = make_cache(2, 32, metric="flat" if f_text is None else "conformal",
                       f_text=f_text)
    gal = Galerkin(cache, 1)
    assert gal.colour_count == max(len(b.columns) for b in gal.blocks) == largest
    if f_text is None:
        applied = []
        h = rough_laplacian_handle(cache, 1)
        apply = h.apply
        h.apply = lambda phi: applied.append(len(phi.data)) or apply(phi)
        rep = spectrum(h, galerkin=gal)
        assert sum(applied) == largest
        oracle = laplace_multiset(build_dealiased_basis(cache, 1))
        assert np.max(np.abs(rep.eigenvalues - oracle)) < 1e-8 * oracle[-1]


def test_galerkin_refuses_oversized_basis():
    with pytest.raises(SpectralError, match="shrink"):
        Galerkin(make_cache(*OVERSIZED), 2)


def test_galerkin_admits_flat_2torus_n128():
    # 32,258 basis columns, but no block holds more than 2 of them
    cache = make_cache(2, 128)
    gal = Galerkin(cache, 2)
    assert basis_dim(build_dealiased_basis(cache, 2)) == 127**2 * 2
    assert gal.colour_count == 2


def test_galerkin_admits_flat_3torus_rank3():
    # 23,625 basis columns, but no block holds more than 7 of them
    cache = make_cache(3, 16)
    gal = Galerkin(cache, 3)
    assert basis_dim(build_dealiased_basis(cache, 3)) == 15**3 * 7
    assert max(len(b.columns) for b in gal.blocks) == 7


def test_galerkin_lowest_fields_are_the_flat_kernel():
    # the d1 kernel of the flat torus is the constants, one per fiber axis
    cache = make_cache(2, 12)
    gal = Galerkin(cache, 2)
    for phi in gal.lowest_fields(["d1"], 2):
        assert np.max(np.abs(phi.data - phi.data[:, :1, :1])) < 1e-12 * np.max(np.abs(phi.data))


@pytest.mark.parametrize("sizes,trailing", [((12, 8), (3,)), ((10, 10), (2, 3)), ((8, 10, 8), (2,))])
def test_trig_series_matches_direct_sum(sizes, trailing):
    spec = GridSpec(n=len(sizes), sizes=sizes)
    modes = spectral.half_modes(tuple(s // 2 - 1 for s in sizes))
    coef = np.random.default_rng(len(sizes)).standard_normal((1 + 2 * len(modes),) + trailing)
    got = spectral.trig_series(spec, modes, coef)
    ref = direct_trig_series(spec, modes, coef)
    assert got.shape == trailing + spec.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("sizes,bands", [((12, 8), (2, 3)), ((10, 16), (4, 0)),
                                         ((8, 10, 8), (1, 4, 2)), ((12, 8, 10), (3, 0, 1)),
                                         ((8, 12, 10), (0, 2, 4))])
def test_trig_series_matches_direct_sum_on_per_axis_bands(sizes, bands):
    # the per-axis tables span each axis's own band, including a band of 0;
    # the modes come as a list, those whose last entry is 0 fill a cell from
    # each of +m and -m, and trailing coefficient axes lead the samples
    spec = GridSpec(n=len(sizes), sizes=sizes)
    modes = [list(m) for m in spectral.half_modes(bands)]
    assert any(m[-1] == 0 for m in modes)
    assert any(m[-1] < 0 for m in modes) == (bands[-1] > 0)
    rows = 1 + 2 * len(modes)
    for coef in (np.random.default_rng(len(sizes)).standard_normal((rows, 2, 3)),
                 np.eye(rows)[:, :7]):
        got = spectral.trig_series(spec, modes, coef)
        ref = direct_trig_series(spec, modes, coef)
        assert got.shape == coef.shape[1:] + spec.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_half_modes_keep_one_read_only_array():
    # one read-only (count, n) int array per bands, shared by every caller
    modes = spectral.half_modes((2, 3, 1))
    assert spectral.half_modes((2, 3, 1)) is modes and not modes.flags.writeable
    assert modes.dtype.kind == "i" and modes.shape == ((5 * 7 * 3 - 1) // 2, 3)


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
    modes = [tuple(m) for m in spectral.half_modes((2, 1)).tolist()]
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
    modes = spectral.half_modes(tuple(bands))
    assert [tuple(m) for m in modes.tolist()] == reference_half_modes(bands)
    assert modes.shape == (len(modes), len(bands)) and modes.dtype.kind == "i"
    # built once per bands, and immutable: every draw shares it
    assert spectral.half_modes(tuple(bands)) is modes and not modes.flags.writeable


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
        rep = spectrum(d1_star_d1_handle(cache, p))
        assert not rep.kernel.indeterminate
        assert rep.kernel.gap_ratio > 100.0
        counts.append(rep.kernel.count)
        assert rep.kernel.count == flat_joint_kernel_oracle(cache, p, ["d1"])
    assert counts[0] == counts[1] == fiber.tracefree_dim(2, p)


def test_flat_t3_first_order_kernel():
    cache = make_cache(3, 8)
    rep = spectrum(d1_star_d1_handle(cache, 1))
    assert rep.kernel.count == 3 == flat_joint_kernel_oracle(cache, 1, ["d1"])
    assert rep.kernel.gap_ratio > 100.0


def test_kernel_bounded_by_ck_dimension():
    for (n, p, size) in ((2, 1, 12), (2, 2, 12), (3, 1, 8)):
        cache = make_cache(n, size)
        rep = spectrum(d1_star_d1_handle(cache, p))
        assert rep.kernel.count <= fiber.ck_dim_bound(n, p)


def test_nodal_assembly_carries_nyquist_junk():
    # the spectral derivative is blind to the Nyquist row: the nodal flat
    # Laplacian gains zero modes from the doubly-invisible corner functions
    cache = make_cache(2, 8)
    h = rough_laplacian_handle(cache, 1)
    w = domain_weights(h)
    WA = dense_images(h, np.eye(domain_dim(h))) * w[:, None]
    G = 0.5 * (WA + WA.T)
    nodal = spectral._eigh_pencil(G, np.diag(w), scale=np.linalg.norm(G),
                                  Linv=spectral._reduce(np.diag(w))).values
    clean = spectrum(h)
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
    wc = codomain_weights(h1)
    G = applied.T @ (applied * wc[:, None])       # Gram of d1 images
    M = cols.T @ (cols * weight_vector(cache, "s0", 1)[:, None])
    sq = scipy.linalg.eigh(G, M, eigvals_only=True)
    kc_first = kernel_count(sq)
    rep = spectrum(d1_star_d1_handle(cache, 1))
    assert kc_first.count == rep.kernel.count == 2


# ---------------------------------------------------------------------------
# principal symbols
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_stacked_first_order_symbols_match_per_covector(n, p):
    # a stack of covectors gives each covector's symbol, bit for bit
    xi = np.random.default_rng(n + p).standard_normal((6, n))
    for names in (["d1"], ["divergence"], ["d2"], ["d3"], ["d1", "divergence"]):
        stacked = spectral.flat_piece_symbols(n, p, names, xi)
        assert stacked.shape[0] == len(xi)
        for k in range(len(xi)):
            assert np.array_equal(stacked[k], spectral.flat_piece_symbols(n, p, names, xi[k]))


def second_order_routes(cache, p):
    """Each second-order composition of the pieces: its application and its
    symbol.  d1* d1 is the kernel suite's handle; the others are formed
    here, each symbol over the fiber matrix of its structure tensors."""
    _, PB, PC = fiber.flat_projector_matrices(cache.n, p)
    Q1, Q2 = delta_symbol_matrices(cache.n, p)
    sym = spectral._second_order_symbol
    return {
        **{h.name: (h.apply, h.symbol)
           for h in (rough_laplacian_handle(cache, p), d1_star_d1_handle(cache, p))},
        "d2_star_d2": (lambda phi: gradients.d2_exact_adjoint(gradients.decompose(phi).d2),
                       sym(PB)),
        "d3_star_d3": (lambda phi: gradients.d3_exact_adjoint(gradients.decompose(phi).d3),
                       sym(PC)),
        "sampson_tracefree": (lambda phi: fields.to_tracefree(gradients.sampson(phi)),
                              sym((p + 1.0) * Q1 - p * Q2)),
        "delta_deltastar": (lambda phi: fields.to_tracefree(
            fields.divergence(fields.sym_derivative(phi))), sym(Q1)),
        "deltastar_delta": (lambda phi: fields.to_tracefree(
            fields.sym_derivative(fields.divergence(phi))), sym(Q2)),
    }


@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_second_order_symbols_match_mode_application_flat(n, p):
    cache = make_cache(n, 12)
    m = (1, 2) if n == 2 else (1, 2, 0)
    xi = np.asarray(m, float)
    theta = cache.spec.theta_mesh()
    wave = np.cos(sum(mi * th for mi, th in zip(m, theta)))
    t = fiber.tracefree_dim(n, p)
    for name, (apply, symbol) in second_order_routes(cache, p).items():
        sig = symbol(xi, 1.0)
        for a in range(t):
            out = apply(mode_field(cache, p, m, component=a)).data
            pred = np.multiply.outer(sig[:, a], wave)
            assert np.max(np.abs(out - pred)) < 1e-10, name


def test_first_order_symbol_matches_mode_application():
    cache = make_cache(2, 12)
    m = (2, 1)
    sig = spectral.flat_piece_symbols(2, 2, ["d1"], np.asarray(m, float))
    theta = cache.spec.theta_mesh()
    phase = 2 * theta[0] + theta[1]
    out = gradients.d1(mode_field(cache, 2, m, part="sin")).data
    pred = np.multiply.outer(sig[:, 0], np.cos(phase))
    assert np.max(np.abs(out - pred)) < 1e-10


@pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (3, 2), (4, 2), (3, 3)])
def test_symbol_composition_identities(n, p):
    rng = np.random.default_rng(5)
    s1, s2, sA, sB, sC = map(spectral._second_order_symbol,
                             delta_symbol_matrices(n, p) + fiber.flat_projector_matrices(n, p))
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
    sig = spectral._second_order_symbol(fiber.flat_projector_matrices(n, 1)[0])
    xi = np.random.default_rng(n).standard_normal(n)
    k2 = float(xi @ xi)
    vals = np.sort(np.linalg.eigvalsh(sig(xi, 1.0))) / k2
    expect = np.sort([0.5] * (n - 1) + [1.0 - 1.0 / n])
    assert np.max(np.abs(vals - expect)) < 1e-12


def test_symbol_scaling_orders():
    cache = make_cache(2, 8, metric="conformal")
    xi = np.array([0.4, -1.1])
    for _, symbol in second_order_routes(cache, 2).values():
        assert np.allclose(symbol(3.0 * xi, 0.7), 9.0 * symbol(xi, 0.7), atol=1e-10)
    for name in PIECES:
        sym = spectral.flat_piece_symbols(2, 2, [name], 3.0 * xi)
        assert np.allclose(sym, 3.0 * spectral.flat_piece_symbols(2, 2, [name], xi), atol=1e-10)


def point_scales(cache, points):
    """gscale = e^{-2f} at grid points (samples, n), shaped to scale a stack
    of symbols, as the kernel suite evaluates it."""
    return np.exp(-2.0 * cache.conf_exponent_values[tuple(np.transpose(points))])[:, None, None]


def test_symbol_conformal_point_scale():
    # one stacked call scales each sample's symbol by its own point
    cache = make_cache(2, 12, metric="conformal", f_text="0.2*cos(x1)")
    h = rough_laplacian_handle(cache, 1)
    points = [(3, 5), (0, 0), (7, 2)]
    mats = h.symbol(np.ones((3, 2)), point_scales(cache, points))
    for (x, y), mat in zip(points, mats):
        expect = math.exp(-2.0 * cache.conf_exponent_values[x, y]) * 2.0 * np.eye(2)
        assert np.max(np.abs(mat - expect)) < 1e-14


def test_symbol_positive_definite_on_presets():
    # strong ellipticity, measured: lowest symbol eigenvalue stays above
    # a fixed fraction of |xi|^2 across random covectors and points
    for metric in ("flat", "conformal"):
        cache = make_cache(2, 12, metric=metric)
        h = d1_star_d1_handle(cache, 2)
        rng = np.random.default_rng(11)
        xi = rng.standard_normal((100, 2))
        gscale = point_scales(cache, rng.integers(0, 12, size=(100, 2)))
        lowest = np.linalg.eigvalsh(h.symbol(xi, gscale))[:, 0]
        assert np.all(lowest >= 1e-3 * gscale[:, 0, 0] * np.sum(xi * xi, axis=1))


def test_symbol_injectivity_of_first_piece():
    xi = np.random.default_rng(2).standard_normal((100, 3))
    xi /= np.linalg.norm(xi, axis=1)[:, None]
    sv = np.linalg.svd(spectral.flat_piece_symbols(3, 2, ["d1"], xi), compute_uv=False)
    assert np.all(sv[:, -1] > 1e-3)


def test_mode_injectivity_floor():
    # the first-piece symbol stays injective at every nonzero integer mode
    # |m_j| <= 4, so flat-torus kernels come from constants only: its
    # smallest singular value over |xi| is the square root of the d1* d1
    # symbol's lowest eigenvalue over |xi|^2
    for (n, p) in ((2, 1), (2, 2), (3, 1), (3, 2)):
        h = d1_star_d1_handle(make_cache(n, 8), p)
        m = np.array([m for m in itertools.product(range(-4, 5), repeat=n) if any(m)], float)
        floor = np.min(np.linalg.eigvalsh(h.symbol(m, 1.0))[:, 0] / np.sum(m * m, axis=1))
        assert math.sqrt(floor) > 0.1


def test_distance_to_scalar_is_measured_not_assumed():
    # the two second-order building blocks are far from scalar and have
    # different best-fit coefficients; the full gradient square is scalar
    n, p = 4, 2
    xi = np.array([1.0, 0.0, 0.0, 0.0])
    s1, s2 = (spectral._second_order_symbol(Q)(xi, 1.0) for Q in delta_symbol_matrices(n, p))

    def dist_alpha(m):
        a = float(np.trace(m)) / m.shape[0]
        return float(np.linalg.norm(m - a * np.eye(m.shape[0])) / np.linalg.norm(m)), a

    d1_, a1 = dist_alpha(s1)
    d2_, a2 = dist_alpha(s2)
    assert d1_ > 0.05 and d2_ > 0.05
    assert abs(a1 - a2) > 0.1  # no single scalar constant fits both
    srough = spectral._second_order_symbol(np.eye(n * fiber.tracefree_dim(n, p)))(xi, 1.0)
    droo, _ = dist_alpha(srough)
    assert droo < 1e-14


def test_benchmark_handles_apply_the_module_operators():
    # perfbench/selftest.py reads these two handles' `apply` to see that a
    # handle built after its tracer is installed captures the wrappers
    cache = make_cache(2, 8)
    assert spectral.gradient_handle(cache, 1).apply is fields.gradient
    assert spectral.d1_handle(cache, 1).apply is gradients.d1
