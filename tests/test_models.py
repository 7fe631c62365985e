"""Model assembly: drift generators, grid discretization, packets, observables."""

from __future__ import annotations

import numpy as np
import pytest

import qfilter as qf
from qfilter import (
    Basis,
    GridPotential,
    GridSpec,
    ModelSpec,
    Operator,
    build_grid_model,
    build_qubit_model,
    expectation,
    gaussian_packet,
    momentum_operator,
    named_observable,
)
from qfilter.errors import BasisMismatchError, UnsupportedConfigurationError


def test_dephasing_generator_is_identity():
    model = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    assert np.allclose(model.generator.matrix, np.eye(2), atol=1e-14)
    assert np.allclose(model.channels[0].matrix, np.sqrt(2.0) * qf.SIGMA_Z, atol=1e-14)


def test_unitary_limit_generator():
    model = build_qubit_model((1.0, 0.0, 0.0), lam=0.0)
    assert np.allclose(model.generator.matrix, 0.5j * qf.SIGMA_X, atol=1e-14)
    assert model.n_channels == 1
    assert not model.channels[0].matrix.any(), "lambda=0 channel should be the zero operator"


def test_z_field_half_strength_generator():
    model = build_qubit_model((0.0, 0.0, 1.0), channel="sigma_z", lam=0.5)
    expected = 0.5 * np.eye(2) + 0.5j * qf.SIGMA_Z
    assert np.allclose(model.generator.matrix, expected, atol=1e-14)


def test_generator_split_identities():
    """K + K^dag recovers the channel gram matrix, K - K^dag the drift."""
    rng = np.random.default_rng(17)
    for name in ("sigma_x", "sigma_y", "sigma_z"):
        h = rng.standard_normal(3)
        model = build_qubit_model(h, channel=name, lam=0.7, hbar=2.0)
        k = model.generator.matrix
        gram = sum(ch.matrix.conj().T @ ch.matrix for ch in model.channels)
        assert np.allclose(k + k.conj().T, gram, atol=1e-12)
        drift = 2j * model.hamiltonian.matrix / model.hbar
        assert np.allclose(k - k.conj().T, drift, atol=1e-12)


def test_generator_hermitian_part_psd():
    rng = np.random.default_rng(29)
    basis = Basis.finite(4)
    h_raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ham = Operator(basis, h_raw + h_raw.conj().T)
    chans = []
    for _ in range(2):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        chans.append(Operator(basis, m))
    model = ModelSpec(ham, chans)
    k = model.generator.matrix
    assert np.linalg.eigvalsh(k + k.conj().T).min() >= -1e-12


def test_generator_is_derived_once_from_h_and_channels():
    rng = np.random.default_rng(31)
    basis = Basis.finite(3)
    h_raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    chans = [Operator(basis, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
             for _ in range(2)]
    models = [ModelSpec(Operator(basis, h_raw + h_raw.conj().T), chans, hbar=0.5),
              build_grid_model(GridSpec(-4.0, 4.0, 16), lam=0.3, hbar=2.0)]
    for model in models:
        assert model.basis is model.hamiltonian.basis
        expected = 1j * model.hamiltonian.matrix / model.hbar
        for ch in model.channels:
            expected = expected + 0.5 * (ch.matrix.conj().T @ ch.matrix)
        np.testing.assert_array_equal(model.generator.matrix, expected)
        assert model.generator is model.generator


def test_model_requires_a_channel():
    model = build_qubit_model((1.0, 0.0, 0.0), lam=0.0)
    with pytest.raises(ValueError, match="channel"):
        ModelSpec(model.hamiltonian, ())


def test_model_requires_hermitian_hamiltonian():
    basis = Basis.finite(2)
    lop = Operator(basis, [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="hermitian"):
        ModelSpec(lop, (Operator.zero(basis),))


def test_qubit_builder_validation():
    with pytest.raises(ValueError):
        build_qubit_model((1.0, 0.0, 0.0), lam=-0.5)
    with pytest.raises(ValueError):
        build_qubit_model((1.0, 0.0))
    with pytest.raises(ValueError, match="unknown channel"):
        build_qubit_model((1.0, 0.0, 0.0), channel="sigma_q")
    with pytest.raises(ValueError):
        build_qubit_model((1.0, 0.0, 0.0), channel=np.eye(3))


def test_channel_scaling_with_lambda():
    qubit = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_x", lam=2.0)
    assert np.allclose(qubit.channels[0].matrix, 2.0 * qf.SIGMA_X, atol=1e-14)
    grid = GridSpec(-5.0, 5.0, 32)
    model = build_grid_model(grid, lam=0.5)
    assert np.allclose(model.channels[0].matrix.diagonal(), grid.points, atol=1e-14)


def test_channel_diagonals_cache():
    dephasing = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    diags = dephasing.channel_diagonals
    assert diags is not None
    assert np.allclose(diags, [[np.sqrt(2.0), -np.sqrt(2.0)]])
    flipper = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_x", lam=1.0)
    assert flipper.channel_diagonals is None


def test_gauge_core_dephasing():
    model = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    assert np.allclose(model.gauge_core.matrix, 2.0 * np.eye(2), atol=1e-14)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        GridSpec(2.0, 1.0, 16)
    g = GridSpec(-1.0, 1.0, 5)
    assert g.dx == pytest.approx(0.5)
    assert np.allclose(g.points, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_grid_hamiltonian_structure():
    grid = GridSpec(-6.0, 6.0, 48)
    model = build_grid_model(grid, lam=0.0, mass=0.5, hbar=2.0)
    h = model.hamiltonian
    assert h.structure == "tridiagonal"
    assert h.is_hermitian
    kin = 2.0**2 / (0.5 * grid.dx**2)
    assert np.allclose(h.matrix.diagonal(), kin)
    assert np.allclose(h.matrix.diagonal(1), -0.5 * kin)


def test_grid_hamiltonian_annihilates_constants_in_the_interior():
    # Dirichlet walls leave residuals only in the first and last row
    grid = GridSpec(-4.0, 4.0, 32)
    model = build_grid_model(grid, lam=0.0)
    out = model.hamiltonian.apply(np.ones(32, dtype=complex))
    assert np.abs(out[1:-1]).max() < 1e-12
    kin = 1.0 / grid.dx**2
    assert out[0] == pytest.approx(0.5 * kin)
    assert out[-1] == pytest.approx(0.5 * kin)


def test_harmonic_ground_state_energy():
    grid = GridSpec(-10.0, 10.0, 256)
    model = build_grid_model(grid, GridPotential.harmonic(grid, omega=1.0), lam=0.0)
    e0 = float(np.linalg.eigvalsh(model.hamiltonian.matrix).min())
    assert abs(e0 - 0.5) < 0.01, f"ground energy {e0:.6f} too far from 0.5"


def test_harmonic_ground_energy_second_order_in_dx():
    errs = []
    for n in (129, 257):
        grid = GridSpec(-10.0, 10.0, n)
        model = build_grid_model(grid, GridPotential.harmonic(grid, omega=1.0), lam=0.0)
        e0 = float(np.linalg.eigvalsh(model.hamiltonian.matrix).min())
        errs.append(abs(e0 - 0.5))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5, f"halving dx should quarter the energy error, got {ratio:.2f}"


def test_potential_constructors():
    grid = GridSpec(-5.0, 5.0, 101)
    barrier = GridPotential.barrier(grid, height=5.0, width=2.0, center=0.5)
    inside = np.abs(grid.points - 0.5) <= 1.0
    assert np.all(barrier.values[inside] == 5.0)
    assert np.all(barrier.values[~inside] == 0.0)
    table = GridPotential.from_table(grid, np.linspace(0.0, 1.0, 101))
    assert table.values[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        GridPotential.from_table(grid, [1.0, 2.0])
    with pytest.raises(ValueError):
        GridPotential.from_table(grid, np.full(101, np.inf))


def test_grid_builder_validation():
    grid = GridSpec(-5.0, 5.0, 64)
    with pytest.raises(ValueError):
        build_grid_model(grid, lam=-1.0)
    with pytest.raises(ValueError):
        build_grid_model(grid, mass=0.0)
    with pytest.raises(ValueError):
        build_grid_model(GridSpec(-5.0, 5.0, 4))
    other = GridPotential.free(GridSpec(-4.0, 4.0, 64))
    with pytest.raises(BasisMismatchError):
        build_grid_model(grid, other)


def test_gaussian_packet_moments():
    grid = GridSpec(-10.0, 10.0, 256)
    model = build_grid_model(grid, lam=0.0)
    psi = gaussian_packet(model.basis, x0=1.5, p0=0.8, sigma=1.0)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    x = named_observable(model, "x")
    x2 = named_observable(model, "x2")
    mean_x = expectation(psi, x).real
    var_x = expectation(psi, x2).real - mean_x**2
    assert mean_x == pytest.approx(1.5, abs=1e-8)
    assert var_x == pytest.approx(1.0, abs=1e-6)
    p = named_observable(model, "p")
    assert expectation(psi, p).real == pytest.approx(0.8, abs=5e-3)


def test_gaussian_packet_validation():
    with pytest.raises(UnsupportedConfigurationError):
        gaussian_packet(Basis.finite(4))
    grid_basis = Basis.from_grid(GridSpec(-5.0, 5.0, 32))
    with pytest.raises(ValueError):
        gaussian_packet(grid_basis, sigma=0.0)


def test_momentum_operator_is_hermitian():
    basis = Basis.from_grid(GridSpec(-3.0, 3.0, 24))
    p = momentum_operator(basis)
    assert p.is_hermitian
    assert np.allclose(p.matrix, p.matrix.conj().T, atol=1e-14)
    with pytest.raises(UnsupportedConfigurationError):
        momentum_operator(Basis.finite(3))


def test_named_observable_resolution():
    qubit = build_qubit_model((0.0, 0.0, 1.0), lam=0.0)
    assert np.allclose(named_observable(qubit, "sigma_y").matrix, qf.SIGMA_Y)
    assert np.allclose(named_observable(qubit, "identity").matrix, np.eye(2))
    with pytest.raises(ValueError, match="unknown observable"):
        named_observable(qubit, "x")
    grid_model = build_grid_model(GridSpec(-5.0, 5.0, 16), lam=0.0)
    assert np.allclose(named_observable(grid_model, "x2").matrix.diagonal(),
                       grid_model.basis.grid.points**2)
    with pytest.raises(ValueError, match="unknown observable"):
        named_observable(grid_model, "sigma_z")
