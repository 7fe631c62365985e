"""Weighted linear algebra: states, operators, densities, matrix exponentials."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfilter as qf
from qfilter import (
    Basis,
    DensityMatrix,
    GridSpec,
    Operator,
    StateVector,
    expectation,
    matrix_exp,
    projector,
    trace_distance,
)
from qfilter.errors import BasisMismatchError, NormalizationError, OracleSizeError

B2 = Basis.finite(2)
KET0 = StateVector(B2, np.array([1.0, 0.0], dtype=complex))
KET1 = StateVector(B2, np.array([0.0, 1.0], dtype=complex))
PLUS = StateVector(B2, np.array([1.0, 1.0], dtype=complex) / math.sqrt(2))


def _sigma_z():
    return Operator(B2, qf.SIGMA_Z)


def test_expectation_eigenstates():
    sz = _sigma_z()
    assert expectation(KET0, sz) == pytest.approx(1.0, abs=1e-15)
    assert expectation(KET1, sz) == pytest.approx(-1.0, abs=1e-15)


def test_expectation_balanced_superposition_vanishes():
    assert abs(expectation(PLUS, _sigma_z())) < 1e-15


def test_expectation_identity_is_one():
    rng = np.random.default_rng(5)
    for dim in (2, 5, 16):
        basis = Basis.finite(dim)
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = StateVector(basis, raw).normalized()
        ident = Operator.diagonal(basis, np.ones(dim, dtype=complex))
        assert expectation(psi, ident) == pytest.approx(1.0, abs=1e-12)


def test_expectation_rejects_unnormalized_state():
    psi = StateVector(B2, np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(NormalizationError):
        expectation(psi, _sigma_z())


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(11)
    a = StateVector(B2, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    b = StateVector(B2, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    assert a.inner(b) == pytest.approx(np.conj(b.inner(a)), abs=1e-14)


def test_grid_inner_product_carries_dx_weight():
    grid = GridSpec(0.0, 1.0, 11)
    basis = Basis.from_grid(grid)
    ones = StateVector(basis, np.ones(11, dtype=complex))
    # sum of |1|^2 * dx over 11 points of spacing 0.1
    assert ones.norm() == pytest.approx(math.sqrt(1.1), rel=1e-14)


def test_grid_gaussian_mean_position():
    grid = GridSpec(-10.0, 10.0, 256)
    model = qf.build_grid_model(grid, lam=0.0)
    psi = qf.gaussian_packet(model.basis, x0=1.5, sigma=1.0)
    x_op = qf.named_observable(model, "x")
    assert expectation(psi, x_op) == pytest.approx(1.5, abs=1e-8)


def test_projector_matrix_elements():
    p0 = projector(KET0)
    assert np.allclose(p0.entries, [[1.0, 0.0], [0.0, 0.0]])
    pp = projector(PLUS)
    assert np.allclose(pp.entries, 0.5 * np.ones((2, 2)))
    assert pp.trace() == pytest.approx(1.0, abs=1e-14)


def test_projector_grid_trace_is_one():
    grid = GridSpec(-8.0, 8.0, 64)
    model = qf.build_grid_model(grid, lam=0.0)
    psi = qf.gaussian_packet(model.basis, sigma=0.9)
    assert projector(psi).trace() == pytest.approx(1.0, abs=1e-10)


def test_projector_rejects_unnormalized_state():
    with pytest.raises(NormalizationError):
        projector(StateVector(B2, np.array([2.0, 0.0], dtype=complex)))


def test_trace_distance_pure_states():
    d = trace_distance(projector(KET0), projector(PLUS))
    assert d == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert trace_distance(projector(KET0), projector(KET0)) < 1e-14


def test_trace_distance_symmetry_and_triangle():
    rng = np.random.default_rng(23)
    basis = Basis.finite(4)

    def random_density():
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = m @ m.conj().T
        return DensityMatrix(basis, rho / np.trace(rho).real)

    a, b, c = random_density(), random_density(), random_density()
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


def test_trace_distance_basis_mismatch():
    rho2 = projector(KET0)
    basis3 = Basis.finite(3)
    e0 = StateVector(basis3, np.array([1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(BasisMismatchError):
        trace_distance(rho2, projector(e0))


def test_matrix_exp_of_zero_is_identity():
    z = Operator.zero(B2)
    assert np.allclose(matrix_exp(z).matrix, np.eye(2), atol=1e-15)


def test_matrix_exp_diagonal_phase():
    sz = _sigma_z()
    theta = 0.7
    u = matrix_exp(sz, scale=1j * theta)
    expected = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    assert np.allclose(u.matrix, expected, atol=1e-14)


def test_matrix_exp_quarter_turn():
    sx = Operator(B2, qf.SIGMA_X)
    u = matrix_exp(sx, scale=0.5j * math.pi)
    assert np.allclose(u.matrix, 1j * qf.SIGMA_X, atol=1e-12), (
        f"exp(i pi sigma_x / 2) off by {np.max(np.abs(u.matrix - 1j * qf.SIGMA_X)):.2e}"
    )


def test_matrix_exp_inverse_product():
    rng = np.random.default_rng(7)
    for dim in (4, 5):
        basis = Basis.finite(dim)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = Operator(basis, m)
        prod = matrix_exp(op).matrix @ matrix_exp(op, scale=-1.0).matrix
        assert np.allclose(prod, np.eye(dim), atol=1e-10)


def test_matrix_exp_size_cap():
    big = Basis.finite(600)
    with pytest.raises(OracleSizeError):
        matrix_exp(Operator.zero(big))
    with pytest.raises(OracleSizeError):
        matrix_exp(Operator.zero(Basis.finite(5)), cap=4)


def test_density_matrix_validation():
    basis = Basis.finite(2)
    with pytest.raises(ValueError):
        DensityMatrix(basis, np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        DensityMatrix(basis, 2.0 * np.eye(2, dtype=complex))
    negative = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(basis, negative)


def test_state_vector_validation():
    with pytest.raises(BasisMismatchError):
        StateVector(B2, np.zeros(3, dtype=complex))
    zero = StateVector(B2, np.zeros(2, dtype=complex))
    with pytest.raises(NormalizationError):
        zero.normalized()
    skewed = StateVector(B2, np.array([1.0, 0.5], dtype=complex))
    with pytest.raises(NormalizationError):
        skewed.require_normalized(1e-8)


def test_operator_apply_matches_matmul():
    rng = np.random.default_rng(3)
    basis = Basis.finite(6)
    vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)

    diag = Operator.diagonal(basis, rng.standard_normal(6).astype(complex))
    assert diag.structure == "diagonal"
    assert np.allclose(diag.apply(vec), diag.matrix @ vec, atol=1e-14)

    lower = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    upper = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    main = rng.standard_normal(6).astype(complex)
    tri = Operator.tridiagonal(basis, main, lower, upper)
    assert tri.structure == "tridiagonal"
    assert np.allclose(tri.apply(vec), tri.matrix @ vec, atol=1e-13)

    dense_m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    dense = Operator(basis, dense_m)
    assert dense.structure == "dense"
    assert np.allclose(dense.apply(vec), dense_m @ vec, atol=1e-13)


def test_state_amplitudes_are_frozen():
    with pytest.raises(ValueError):
        KET0.amplitudes[0] = 5.0


def _classify(m: np.ndarray) -> tuple[str, bool]:
    """Structure and hermiticity, entry by entry."""
    n = m.shape[0]
    width = max((abs(i - j) for i in range(n) for j in range(n) if m[i, j] != 0), default=0)
    structure = {0: "diagonal", 1: "tridiagonal"}.get(width, "dense")
    tol = 1e-12 * max(1.0, max(abs(v) for v in m.flat))
    hermitian = all(abs(m[i, j] - np.conj(m[j, i])) <= tol for i in range(n) for j in range(n))
    return structure, hermitian


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 5, 9]),
       band=st.sampled_from([0, 1, None]),
       symmetry=st.sampled_from(["hermitian", "anti_hermitian", "general"]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), skew=st.sampled_from([0.0, 1e-14, 1e-10]))
def test_operator_tags_are_detected_from_the_matrix(seed, n, band, symmetry, scale, skew):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if band is not None:
        m[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > band] = 0.0
    if symmetry == "hermitian":
        m = m + m.conj().T
    elif symmetry == "anti_hermitian":
        m = m - m.conj().T
    m = scale * m
    m[0, 0] += 1j * skew * max(1.0, np.abs(m).max())
    op = Operator(Basis.finite(n), m)
    assert (op.structure, op.is_hermitian) == _classify(m)
