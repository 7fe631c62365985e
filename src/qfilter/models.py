"""Model construction: Hamiltonians, measurement channels, drift generator.

A model bundles the Hamiltonian H, the channel operators L_j coupling the
system to the continuously monitored field, and the derived drift generator

    K = sum_j L_j^dag L_j / 2 + i H / hbar,

which generates the deterministic part of the unnormalized dynamics. The
channel strength convention is L = sqrt(2*lambda) * A for a measured
observable A, with lambda the accuracy coefficient of the observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BasisMismatchError, UnsupportedConfigurationError
from .linalg import Basis, GridSpec, Operator, StateVector, _check_same_basis

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = {"sigma_x": SIGMA_X, "sigma_y": SIGMA_Y, "sigma_z": SIGMA_Z}


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Immutable bundle of H and the channels L_j; the basis is H's, and the
    generator K is derived from them on first use."""

    hamiltonian: Operator
    channels: tuple[Operator, ...]
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if not self.channels:
            raise ValueError("at least one channel required (zero operator for lambda=0)")
        if not self.hamiltonian.is_hermitian:
            raise ValueError("hamiltonian must be hermitian")
        for ch in self.channels:
            _check_same_basis(self.hamiltonian, ch)

    @property
    def basis(self) -> Basis:
        return self.hamiltonian.basis

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def _banded(self) -> bool:
        """H diagonal or tridiagonal and every channel diagonal: K and G are
        band sums, and the master stage and the gauge scheme banded."""
        return self.hamiltonian.structure != "dense" and all(
            ch.structure == "diagonal" for ch in self.channels)

    @cached_property
    def generator(self) -> Operator:
        """K = sum_j L_j^dag L_j / 2 + i H / hbar: for a banded model (see
        `_banded`) a band-stored operator summed band by band, each entry
        with the bits of the dense sum when the channels are real."""
        if not self._banded:
            mat = 1j * self.hamiltonian.matrix / self.hbar
            for ch in self.channels:
                mat = mat + 0.5 * (ch.matrix.conj().T @ ch.matrix)
            return Operator(self.basis, mat)
        lo, d, up = (1j * band / self.hbar for band in self.hamiltonian._bands)
        for ch in self.channels:
            d = d + 0.5 * _diagonal_product(ch._diag.conj(), ch._diag)
        # off the diagonal the dense sum adds +0.0 products, as
        # Operator.tridiagonal does
        return Operator.tridiagonal(self.basis, d, lo, up)

    @cached_property
    def channel_diagonals(self) -> np.ndarray | None:
        """(n_channels, dim) real diagonals when every channel is diagonal hermitian, else None."""
        diags = []
        for ch in self.channels:
            if ch.structure != "diagonal" or not ch.is_hermitian:
                return None
            diags.append(ch._diag.real)
        out = np.array(diags)
        out.setflags(write=False)
        return out

    @cached_property
    def gauge_core(self) -> Operator:
        """K + sum_j L_j^2 / 2, the operator conjugated in the gauge-removed
        picture, band-stored; only a banded model (`_banded`) has one."""
        if not self._banded:
            raise UnsupportedConfigurationError(
                "gauge core needs a diagonal or tridiagonal hamiltonian and diagonal channels")
        lo, d, up = self.generator._bands
        for ch in self.channels:
            d = d + 0.5 * _diagonal_product(ch._diag, ch._diag)
        return Operator.tridiagonal(self.basis, d, lo, up)


def _diagonal_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b entry by entry as (ar br - ai bi) + i (ar bi + ai br) from
    separate real products and sums, the diagonal BLAS gives for the product
    of the two diagonal matrices; numpy's complex product may fuse a product
    into a sum, which changes the last bit of complex entries."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def build_qubit_model(h_field, channel="sigma_z", lam: float = 1.0, hbar: float = 1.0) -> ModelSpec:
    """Two-level model: H = (hbar/2) h.sigma, one channel L = sqrt(2*lambda)*A.

    `channel` names a Pauli operator or supplies a 2x2 matrix for A.
    lambda = 0 keeps a single explicit zero channel.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    h = np.asarray(h_field, dtype=float)
    if h.shape != (3,):
        raise ValueError("h_field must have three components")
    basis = Basis.finite(2)
    h_mat = 0.5 * hbar * (h[0] * SIGMA_X + h[1] * SIGMA_Y + h[2] * SIGMA_Z)
    hamiltonian = Operator(basis, h_mat)
    if isinstance(channel, str):
        try:
            a_mat = PAULI[channel]
        except KeyError:
            raise ValueError(f"unknown channel {channel!r}") from None
    else:
        a_mat = np.asarray(channel, dtype=complex)
        if a_mat.shape != (2, 2):
            raise ValueError("channel matrix must be 2x2")
    ch = Operator(basis, np.sqrt(2.0 * lam) * a_mat)
    return ModelSpec(hamiltonian, (ch,), hbar)


@dataclass(frozen=True, eq=False)
class GridPotential:
    """Real potential samples on a grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValueError("potential sample count must match the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def free(cls, grid: GridSpec) -> GridPotential:
        return cls(grid, np.zeros(grid.n_points))

    @classmethod
    def harmonic(cls, grid: GridSpec, omega: float, mass: float = 1.0,
                 center: float = 0.0) -> GridPotential:
        x = grid.points - center
        return cls(grid, 0.5 * mass * omega**2 * x**2)

    @classmethod
    def barrier(cls, grid: GridSpec, height: float, width: float,
                center: float = 0.0) -> GridPotential:
        inside = np.abs(grid.points - center) <= 0.5 * width
        return cls(grid, np.where(inside, height, 0.0))

    @classmethod
    def from_table(cls, grid: GridSpec, values) -> GridPotential:
        return cls(grid, np.asarray(values, dtype=float))


def build_grid_model(grid: GridSpec, potential: GridPotential | None = None,
                     lam: float = 1.0, mass: float = 1.0, hbar: float = 1.0) -> ModelSpec:
    """1-D position model: central-difference kinetic term, Dirichlet walls,
    position observation channel L = sqrt(2*lambda) * diag(x)."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if mass <= 0:
        raise ValueError("mass must be positive")
    if grid.n_points < 8:
        raise ValueError("grid too coarse: need at least 8 points")
    if potential is None:
        potential = GridPotential.free(grid)
    if potential.grid != grid:
        raise BasisMismatchError("potential was sampled on a different grid")
    basis = Basis.from_grid(grid)
    dx = grid.dx
    kin = hbar**2 / (mass * dx**2)
    diag = kin + potential.values
    off = np.full(grid.n_points - 1, -0.5 * kin)
    hamiltonian = Operator.tridiagonal(basis, diag, off, off)
    ch = Operator.diagonal(basis, np.sqrt(2.0 * lam) * grid.points)
    return ModelSpec(hamiltonian, (ch,), hbar)


def gaussian_packet(basis: Basis, x0: float = 0.0, p0: float = 0.0,
                    sigma: float = 1.0, hbar: float = 1.0) -> StateVector:
    """Normalized minimum-uncertainty packet with Var(x) = sigma^2."""
    if basis.grid is None:
        raise UnsupportedConfigurationError("gaussian packets need a grid basis")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = basis.grid.points
    amp = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * x / hbar)
    return StateVector(basis, amp).normalized()


def momentum_operator(basis: Basis, hbar: float = 1.0) -> Operator:
    """-i*hbar times the central first difference; hermitian on the grid."""
    if basis.grid is None:
        raise UnsupportedConfigurationError("momentum operator needs a grid basis")
    n = basis.dim
    c = hbar / (2.0 * basis.grid.dx)
    upper = np.full(n - 1, -1j * c)
    lower = np.full(n - 1, 1j * c)
    return Operator.tridiagonal(basis, np.zeros(n), lower, upper)


def named_observable(model: ModelSpec, name: str) -> Operator:
    """Resolve a named observable on the model's basis."""
    basis = model.basis
    if basis.grid is not None:
        x = basis.grid.points
        if name == "x":
            return Operator.diagonal(basis, x)
        if name == "x2":
            return Operator.diagonal(basis, x**2)
        if name == "p":
            return momentum_operator(basis, model.hbar)
    elif name in PAULI:
        return Operator(basis, PAULI[name])
    if name == "identity":
        return Operator.diagonal(basis, np.ones(basis.dim))
    raise ValueError(f"unknown observable {name!r} for this model")
