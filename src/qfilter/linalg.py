"""Complex linear algebra over finite bases and uniform 1-D grids.

States and operators carry a basis descriptor. Grid bases weight inner
products, norms and traces by the grid spacing (rectangle rule), so the
discrete quantities track their continuum counterparts; finite bases use
weight 1. All value types are immutable after construction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BasisMismatchError, NormalizationError, OracleSizeError

DEFAULT_ORACLE_CAP = 512

_FLAG_TOL = 1e-12

# entries of the (rows, dim, dim) product a dense `apply` forms at a time
# (4 MiB of complex128)
_DENSE_APPLY_ENTRIES = 1 << 18


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1-D grid with hard walls one spacing outside the endpoints."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("grid needs at least 2 points")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def points(self) -> np.ndarray:
        p = np.linspace(self.x_min, self.x_max, self.n_points)
        p.setflags(write=False)
        return p


@dataclass(frozen=True)
class Basis:
    """Basis descriptor: plain finite labels, or a uniform position grid."""

    dim: int
    grid: GridSpec | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.grid is not None and self.grid.n_points != self.dim:
            raise ValueError("grid point count must equal dim")

    @property
    def weight(self) -> float:
        """Inner-product weight: dx on grids, 1 on finite bases."""
        return self.grid.dx if self.grid is not None else 1.0

    @classmethod
    def finite(cls, dim: int) -> Basis:
        return cls(dim=dim)

    @classmethod
    def from_grid(cls, grid: GridSpec) -> Basis:
        return cls(dim=grid.n_points, grid=grid)


def _check_same_basis(a, b):
    if a.basis != b.basis:
        raise BasisMismatchError(f"basis mismatch: {a.basis} vs {b.basis}")


def _frozen_array(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over a basis."""

    basis: Basis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dim,):
            raise BasisMismatchError(
                f"amplitude count {amps.shape} does not match dim {self.basis.dim}"
            )
        object.__setattr__(self, "amplitudes", _frozen_array(amps))

    def norm(self) -> float:
        return float(np.sqrt(self.basis.weight) * np.linalg.norm(self.amplitudes))

    def inner(self, other: StateVector) -> complex:
        """Weighted inner product <self|other>, conjugate-linear on the left."""
        _check_same_basis(self, other)
        return complex(self.basis.weight * np.vdot(self.amplitudes, other.amplitudes))

    def normalized(self) -> StateVector:
        n = self.norm()
        if n == 0.0 or not np.isfinite(n):
            raise NormalizationError("cannot normalize a zero or non-finite state")
        return StateVector(self.basis, self.amplitudes / n)

    def require_normalized(self, tol: float) -> None:
        dev = abs(self.norm() - 1.0)
        if dev > tol:
            raise NormalizationError(f"state norm deviates from 1 by {dev:.3e} (tol {tol:.1e})")


class StateSeries(Sequence):
    """Read-only sequence of states over one basis, held as one (n, dim)
    amplitude array; each `StateVector` is built on first access."""

    def __init__(self, basis: Basis, amplitudes: np.ndarray):
        if amplitudes.ndim != 2 or amplitudes.shape[1] != basis.dim:
            raise BasisMismatchError(
                f"amplitude table {amplitudes.shape} does not match dim {basis.dim}"
            )
        self.basis = basis
        self.amplitudes = amplitudes.view()
        self.amplitudes.setflags(write=False)
        self._built: dict[int, StateVector] = {}

    def __len__(self) -> int:
        return self.amplitudes.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]
        if i not in self._built:
            self._built[i] = StateVector(self.basis, self.amplitudes[i])
        return self._built[i]


def _structure_of(matrix: np.ndarray) -> str:
    n = matrix.shape[0]
    if n == 1:
        return "diagonal"
    off = matrix - np.diag(np.diag(matrix))
    if not off.any():
        return "diagonal"
    band = np.diag(np.diag(matrix)) + np.diag(np.diag(matrix, 1), 1) + np.diag(np.diag(matrix, -1), -1)
    if not (matrix - band).any():
        return "tridiagonal"
    return "dense"


def _detect_flag(matrix: np.ndarray) -> bool:
    """Whether the matrix is hermitian to 1e-12 relative to its largest entry."""
    scale = max(1.0, float(np.abs(matrix).max(initial=0.0)))
    return bool(np.abs(matrix - matrix.conj().T).max(initial=0.0) <= _FLAG_TOL * scale)


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense-backed linear operator.

    Its tags are detected from the matrix at construction: `structure`
    ("diagonal", "tridiagonal" or "dense") chooses the fast application,
    and `is_hermitian` holds to 1e-12 relative to the largest entry.
    """

    basis: Basis
    matrix: np.ndarray
    structure: str = field(init=False)
    is_hermitian: bool = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.basis.dim
        if mat.shape != (d, d):
            raise BasisMismatchError(f"matrix shape {mat.shape} does not match dim {d}")
        object.__setattr__(self, "matrix", _frozen_array(mat))
        object.__setattr__(self, "structure", _structure_of(mat))
        object.__setattr__(self, "is_hermitian", _detect_flag(mat))

    @classmethod
    def diagonal(cls, basis: Basis, diag) -> Operator:
        return cls(basis, np.diag(np.asarray(diag, dtype=complex)))

    @classmethod
    def tridiagonal(cls, basis: Basis, diag, lower, upper) -> Operator:
        mat = np.diag(np.asarray(diag, dtype=complex))
        mat += np.diag(np.asarray(upper, dtype=complex), 1)
        mat += np.diag(np.asarray(lower, dtype=complex), -1)
        return cls(basis, mat)

    @classmethod
    def zero(cls, basis: Basis) -> Operator:
        return cls(basis, np.zeros((basis.dim, basis.dim), dtype=complex))

    @cached_property
    def _diag(self) -> np.ndarray:
        return self.matrix.diagonal().copy()

    @cached_property
    def _bands(self):
        return (
            self.matrix.diagonal(-1).copy(),
            self.matrix.diagonal().copy(),
            self.matrix.diagonal(1).copy(),
        )

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """The operator applied along the last axis of a (..., dim) array.

        Every row's result is summed in the same order whatever the leading
        shape, so a row comes out with the same bits alone or in a batch:
        the dense form sums elementwise products along the last axis rather
        than calling a matrix product.
        """
        if self.structure == "diagonal":
            return self._diag * vec
        if self.structure == "tridiagonal":
            lo, d, up = self._bands
            out = d * vec
            out[..., :-1] += up * vec[..., 1:]
            out[..., 1:] += lo * vec[..., :-1]
            return out
        flat = np.asarray(vec).reshape(-1, self.basis.dim)
        out = np.empty(flat.shape, dtype=complex)
        rows = max(1, _DENSE_APPLY_ENTRIES // self.matrix.size)
        for lo in range(0, flat.shape[0], rows):
            out[lo:lo + rows] = (flat[lo:lo + rows, None, :] * self.matrix).sum(axis=-1)
        return out.reshape(np.shape(vec))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over a basis.

    The defining properties are validated at construction: hermiticity to
    1e-10, weighted trace 1 +/- 1e-8, smallest eigenvalue >= -1e-8.
    """

    basis: Basis
    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        d = self.basis.dim
        if mat.shape != (d, d):
            raise BasisMismatchError(f"entries shape {mat.shape} does not match dim {d}")
        scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
        if np.abs(mat - mat.conj().T).max(initial=0.0) > 1e-10 * scale:
            raise ValueError("density matrix is not hermitian within 1e-10")
        tr = float(np.trace(mat).real) * self.basis.weight
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond 1e-8")
        if float(np.linalg.eigvalsh(mat).min()) < -1e-8 / self.basis.weight:
            raise ValueError("density matrix has an eigenvalue below -1e-8")
        object.__setattr__(self, "entries", _frozen_array(mat))

    def trace(self) -> float:
        return float(np.trace(self.entries).real) * self.basis.weight


def expectation(state: StateVector, op: Operator) -> complex:
    """<v|Z|v> under the basis weight; requires a normalized state."""
    _check_same_basis(state, op)
    state.require_normalized(1e-6)
    return complex(state.basis.weight * np.vdot(state.amplitudes, op.apply(state.amplitudes)))


def projector(state: StateVector) -> DensityMatrix:
    """Rank-one density matrix |v><v| of a normalized state."""
    state.require_normalized(1e-6)
    v = state.amplitudes
    return DensityMatrix(state.basis, np.outer(v, v.conj()))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the weighted trace norm of (a - b)."""
    _check_same_basis(a, b)
    eigs = np.linalg.eigvalsh(a.entries - b.entries)
    return 0.5 * a.basis.weight * float(np.abs(eigs).sum())


def matrix_exp(op: Operator, scale: complex = 1.0, cap: int = DEFAULT_ORACLE_CAP) -> Operator:
    """Dense oracle for exp(scale * op); refuses dimensions above `cap`.

    Diagonal operators exponentiate elementwise, hermitian ones through an
    eigendecomposition, anything else through scipy's scaling-and-squaring.
    """
    if op.basis.dim > cap:
        raise OracleSizeError(f"dimension {op.basis.dim} exceeds oracle cap {cap}")
    if op.structure == "diagonal":
        return Operator(op.basis, np.diag(np.exp(scale * op._diag)))
    if op.is_hermitian:
        w, v = np.linalg.eigh(op.matrix)
        mat = (v * np.exp(scale * w)) @ v.conj().T
        return Operator(op.basis, mat)
    import scipy.linalg  # scipy loads only on the calls that need it

    return Operator(op.basis, scipy.linalg.expm(scale * op.matrix))
