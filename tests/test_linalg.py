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
from qfilter.linalg import band_apply, padded_rows

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


def test_projector_skips_the_eigenvalues_a_density_matrix_checks(monkeypatch):
    """|v><v| is positive by construction, so `projector` computes no
    eigenvalues (O(n^3)) and still makes the hermiticity and trace checks;
    `DensityMatrix` itself still rejects a negative eigenvalue."""
    calls = []
    real = np.linalg.eigvalsh

    def counted(mat):
        calls.append(mat.shape)
        return real(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    psi = qf.gaussian_packet(Basis.from_grid(GridSpec(-8.0, 8.0, 64)), sigma=0.9)
    rho = projector(psi)
    assert calls == []
    v = psi.amplitudes
    assert rho.entries.tobytes() == np.outer(v, v.conj()).tobytes()
    assert not rho.entries.flags.writeable
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(B2, np.diag([1.5, -0.5]).astype(complex))
    assert calls == [(2, 2)]
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix._positive(B2, np.diag([1.5, 0.5]).astype(complex))
    with pytest.raises(ValueError, match="hermitian"):
        DensityMatrix._positive(B2, np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))


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
    for nan_at in ((0, 1), (0, 0)):  # off and on the diagonal
        entries = np.diag([0.5, 0.5]).astype(complex)
        entries[nan_at] = entries[nan_at[::-1]] = np.nan
        with pytest.raises(ValueError, match="not hermitian"):
            DensityMatrix(basis, entries)
        with pytest.raises(ValueError, match="not hermitian"):
            DensityMatrix._positive(basis, entries)


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 5, 9]),
       structure=st.sampled_from(["diagonal", "tridiagonal", "dense"]),
       lead=st.sampled_from([(), (4,), (4, 3)]))
def test_batched_apply_matches_the_dense_product_row_by_row(seed, n, structure, lead):
    """Along any leading shape, apply agrees with the dense product to 1e-12
    relative to |M| |v|, and each row has the bytes of apply on it alone,
    as a 1-D vector or as a one-row batch; two-entry rows included, to which
    the strided one-entry band products of a one-row batch gave other bits."""
    if n == 2 and structure == "dense":
        structure = "tridiagonal"  # every 2 x 2 matrix is tridiagonal
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    width = {"diagonal": 0, "tridiagonal": 1, "dense": n}[structure]
    m[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > width] = 0.0
    op = Operator(Basis.finite(n), m)
    assert op.structure == structure
    vec = rng.standard_normal(lead + (n,)) + 1j * rng.standard_normal(lead + (n,))
    out = op.apply(vec)
    assert out.shape == vec.shape
    err = np.linalg.norm(out - vec @ m.T, axis=-1)
    assert np.all(err <= 1e-12 * np.linalg.norm(m) * np.linalg.norm(vec, axis=-1))
    for idx in np.ndindex(lead):
        assert out[idx].tobytes() == op.apply(vec[idx]).tobytes()
        assert out[idx].tobytes() == op.apply(vec[idx][None]).tobytes()


def _with_signed_zeros(rng, a: np.ndarray) -> np.ndarray:
    """`a` with about a quarter of its real and imaginary parts set to +0.0
    or -0.0."""
    parts = a.view(float)
    hit = rng.random(parts.shape) < 0.25
    parts[hit] = np.where(rng.random(int(hit.sum())) < 0.5, 0.0, -0.0)
    return a


def _draw(rng, shape, kind=complex) -> np.ndarray:
    """Values over sixty decades, with signed zeros in their parts."""
    scale = 10.0 ** rng.uniform(-30.0, 30.0, shape)
    values = rng.standard_normal(shape) * scale
    if kind is complex:
        values = values + 1j * rng.standard_normal(shape) * scale
    return _with_signed_zeros(rng, values)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 9), n=st.sampled_from([2, 3, 4, 7, 16]),
       tridiagonal=st.booleans(), per_row=st.booleans())
def test_band_apply_has_the_bits_of_the_strided_form(seed, b, n, tridiagonal, per_row):
    """The contiguous band routine gives every entry the bytes of the strided
    form it replaced, signed zeros included, for bands shared by all rows or
    one per row; and the two identities the trajectory kernel builds on hold
    byte for byte: a real factor multiplies as the complex (x, +0.0) numpy's
    promotion makes of it, and division by a row norm nn is multiplication by
    (1/nn, -0.0)."""
    if n == 2:
        # one row of two: the strided form multiplies single entries, which
        # numpy runs in another loop than the same product over more rows,
        # so that row would differ from itself in a larger batch
        b = max(b, 2)
    rng = np.random.default_rng(seed)
    x = _draw(rng, (b, n))
    d = _draw(rng, n)
    band_shape = (b, n - 1) if per_row else (n - 1,)
    up, lo = _draw(rng, band_shape), _draw(rng, band_shape)
    want = d * x
    if tridiagonal:
        want[..., :-1] += up * x[..., 1:]
        want[..., 1:] += lo * x[..., :-1]
        up_row, lo_row = (np.zeros(band_shape[:-1] + (n,), dtype=complex) for _ in range(2))
        up_row[..., :-1], lo_row[..., 1:] = up, lo
        bands = (d, up_row, lo_row)
    else:
        bands = (d, None, None)
    src = padded_rows(b, n)
    src[1][...] = x
    for rows in (bands, tuple(None if r is None else np.broadcast_to(r, (b, n)).copy()
                              for r in bands)):
        got = band_apply(rows, src, np.empty((b, n), dtype=complex),
                         np.empty((b, n), dtype=complex))
        assert got.tobytes() == want.tobytes()
    if not per_row:
        m = np.zeros((n, n), dtype=complex)
        i = np.arange(n)
        m[i, i] = d
        if tridiagonal:
            m[i[:-1], i[1:]], m[i[1:], i[:-1]] = up, lo
        op = Operator(Basis.finite(n), m)
        if op.structure == ("tridiagonal" if tridiagonal else "diagonal"):
            assert op.apply(x).tobytes() == want.tobytes()

    real = _draw(rng, (b, n), float)
    promoted = np.zeros((b, n), dtype=complex)
    promoted.real[...] = real
    assert (real * x).tobytes() == (promoted * x).tobytes()
    assert (x * real).tobytes() == (x * promoted).tobytes()
    assert (real[:, :1] * x).tobytes() == (promoted[:, :1] * x).tobytes()
    nn = np.exp(rng.uniform(-3.0, 0.6, b))
    inverse = np.full((b, 1), complex(0.0, -0.0))
    inverse.real[:, 0] = 1.0 / nn
    assert (x / nn[:, None]).tobytes() == (x * inverse).tobytes()


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


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 5, 9]),
       builder=st.sampled_from(["zero", "diagonal", "tridiagonal", "zero_off_bands"]),
       hermitian=st.booleans(), skew=st.sampled_from([0.0, 1e-14, 1e-10]))
def test_band_built_operators_agree_with_the_matrix_built_ones(seed, n, builder, hermitian,
                                                              skew):
    """An operator built from bands keeps them, not a matrix, and agrees
    with `Operator(basis, matrix)` on the matrix the dense sum of the same
    bands gives: the same tags, the same band rows (read-only, +0 padding,
    no off-band rows when diagonal), the same matrix bytes (built on first
    read, read-only) and the same `apply` bytes on 1-D vectors and (B, n)
    batches; signed zeros included. Reading the matrix or applying the
    operator caches no second band form."""
    rng = np.random.default_rng(seed)
    basis = Basis.finite(n)
    d, lo, up = _draw(rng, n), _draw(rng, n - 1), _draw(rng, n - 1)
    if hermitian:
        d.imag = 0.0
        lo = up.conj()
    d[0] += 1j * skew * max(1.0, np.abs(np.concatenate((d, lo, up))).max())
    if builder == "zero":
        op, want = Operator.zero(basis), np.zeros((n, n), dtype=complex)
    elif builder == "diagonal":
        op, want = Operator.diagonal(basis, d), np.diag(d)
    else:
        if builder == "zero_off_bands":
            lo, up = _with_signed_zeros(rng, 0 * lo), _with_signed_zeros(rng, 0 * up)
        op = Operator.tridiagonal(basis, d, lo, up)
        want = np.diag(d)
        want += np.diag(up, 1)
        want += np.diag(lo, -1)
    assert "matrix" not in vars(op)
    dense = Operator(basis, want)
    assert (op.structure, op.is_hermitian) == (dense.structure, dense.is_hermitian)
    assert op.matrix.tobytes() == want.tobytes()
    assert op.matrix is op.matrix and not op.matrix.flags.writeable
    for shape in ((n,), (4, n)):
        vec = _draw(rng, shape)
        assert op.apply(vec).tobytes() == dense.apply(vec).tobytes()
    for got, want_row in zip(op._rows, dense._rows):
        assert (got is None and want_row is None) or got.tobytes() == want_row.tobytes()
    d_row, up_row, lo_row = op._rows
    assert d_row.shape == (n,) and not d_row.flags.writeable
    if op.structure == "diagonal":
        assert up_row is None and lo_row is None
    else:
        assert up_row.shape == lo_row.shape == (n,)
        assert not up_row.flags.writeable and not lo_row.flags.writeable
        assert up_row[-1:].tobytes() == lo_row[:1].tobytes() == bytes(16)  # +0 + 0j
    assert set(vars(op)) == {"basis", "structure", "is_hermitian", "_rows", "matrix"}
