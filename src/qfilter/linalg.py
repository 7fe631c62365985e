"""Complex linear algebra over finite bases and uniform 1-D grids.

States and operators carry a basis descriptor. Grid bases weight inner
products, norms and traces by the grid spacing (rectangle rule), so the
discrete quantities track their continuum counterparts; finite bases use
weight 1. All value types are immutable after construction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
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


def _detect_flag(matrix: np.ndarray, tol: float = _FLAG_TOL) -> bool:
    """Whether max |M - M^H| <= tol * max(1, max |M|); a NaN entry fails it."""
    scale = max(1.0, float(np.abs(matrix).max(initial=0.0)))
    return bool(np.abs(matrix - matrix.conj().T).max(initial=0.0) <= tol * scale)


# adding it leaves every complex value as it was, signed zeros included
_NEG_ZERO = complex(-0.0, -0.0)


def padded_rows(b: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(before, rows, after): the (b, n) complex views at offsets 0, 1 and 2
    of one zeroed flat buffer of b * n + 2 entries. `rows` holds the values;
    the other two are it shifted by one entry either way, the neighbours
    `band_apply` reads, and stay inside the buffer."""
    flat = np.zeros(b * n + 2, dtype=complex)
    return tuple(flat[k:k + b * n].reshape(b, n) for k in range(3))


def band_apply(bands, src, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """A diagonal or tridiagonal operator applied along each row x of
    `src`, the (before, rows, after) views `padded_rows` gives, into the
    (b, n) array `out`.

    `bands` is (d, up, lo) as `Operator._rows` holds them, each
    broadcastable to (b, n), so a band may differ per row. Each band product
    is one contiguous pass over the rows shifted by one entry; the one
    column of it that reads across a row boundary (the padding) is set to
    -0 - 0j before it is added, which leaves that column of the sum as it
    was. So every entry carries the bits of the strided form
        out = d * x; out[..., :-1] += up[..., :-1] * x[..., 1:];
        out[..., 1:] += lo[..., 1:] * x[..., :-1].
    `tmp`, (b, n) scratch, may be `up` itself.
    """
    d, up, lo = bands
    before, rows, after = src
    np.multiply(d, rows, out=out)
    if up is None:
        return out
    np.multiply(up, after, out=tmp)
    tmp[:, -1] = _NEG_ZERO
    np.add(out, tmp, out=out)
    np.multiply(lo, before, out=tmp)
    tmp[:, 0] = _NEG_ZERO
    np.add(out, tmp, out=out)
    return out


def _rows_hermitian(d: np.ndarray, up: np.ndarray | None, lo: np.ndarray | None) -> bool:
    """`_detect_flag` of the matrix with the rows (d, up, lo) of
    `Operator._rows`, in O(n): the same nonzero entries of |M| and
    |M - M^H|, without the zeros."""
    rows = (d,) if up is None else (d, up, lo)
    scale = max(1.0, float(np.abs(np.concatenate(rows)).max(initial=0.0)))
    skew = d - d.conj() if up is None else np.concatenate((d - d.conj(), up[:-1] - lo[1:].conj()))
    return bool(np.abs(skew).max(initial=0.0) <= _FLAG_TOL * scale)


@dataclass(frozen=True, eq=False, init=False)
class Operator:
    """Linear operator over a basis, stored as its matrix or as its bands.

    Two tags say how to apply it: `structure` ("diagonal", "tridiagonal" or
    "dense") chooses the fast application, and `is_hermitian` holds to
    1e-12 relative to the largest entry.

    `Operator(basis, matrix)` keeps the matrix it is handed and detects the
    tags from it. `Operator.diagonal`, `Operator.tridiagonal` and
    `Operator.zero` keep only their bands, O(n), as the `_rows` every band
    consumer reads, and derive the same tags from them in O(n). Every
    operator has a read-only `matrix`; a band-stored one builds it on first
    read and keeps it. Only dense work reads it: the dense master stage and
    step operators, exponentials, eigendecompositions.
    """

    basis: Basis
    structure: str
    is_hermitian: bool

    def __init__(self, basis: Basis, matrix):
        mat = np.asarray(matrix, dtype=complex)
        d = basis.dim
        if mat.shape != (d, d):
            raise BasisMismatchError(f"matrix shape {mat.shape} does not match dim {d}")
        self._init(basis, _structure_of(mat), _detect_flag(mat), matrix=_frozen_array(mat))

    def _init(self, basis: Basis, structure: str, is_hermitian: bool, **cached) -> None:
        for name, value in (("basis", basis), ("structure", structure),
                            ("is_hermitian", is_hermitian)):
            object.__setattr__(self, name, value)
        self.__dict__.update(cached)  # values of the cached properties

    @classmethod
    def _from_rows(cls, basis: Basis, d, up=None, lo=None) -> Operator:
        """The operator stored as exactly these `_rows`, n entries each, with
        up[-1] and lo[0] +0 padding; off-band rows that are all zero are
        dropped, which makes it diagonal."""
        rows = tuple(None if r is None else _frozen_array(r) for r in (d, up, lo))
        if any(r is not None and r.shape != (basis.dim,) for r in rows):
            raise BasisMismatchError(f"band rows do not match dim {basis.dim}")
        if up is not None and not (rows[1].any() or rows[2].any()):
            rows = rows[:1] + (None, None)
        op = cls.__new__(cls)
        op._init(basis, "diagonal" if rows[1] is None else "tridiagonal", _rows_hermitian(*rows),
                 _rows=rows)
        return op

    @classmethod
    def diagonal(cls, basis: Basis, diag) -> Operator:
        return cls._from_rows(basis, diag)

    @classmethod
    def tridiagonal(cls, basis: Basis, diag, lower, upper) -> Operator:
        """The operator with diagonal `diag` and the n - 1 entries `lower`
        below and `upper` above it. The bands are kept plus +0.0, which turns
        a -0.0 part into +0.0, as summing them into a zero matrix,
        np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1), does."""
        d, lower, upper = (np.asarray(b, dtype=complex) + 0.0 for b in (diag, lower, upper))
        return cls._from_rows(basis, d, np.append(upper, 0.0), np.append(0.0, lower))

    @classmethod
    def zero(cls, basis: Basis) -> Operator:
        return cls._from_rows(basis, np.zeros(basis.dim))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The (dim, dim) matrix, read-only; a band-stored operator builds it
        from its rows on first read."""
        d, up, lo = self._rows
        n = d.size
        mat = np.zeros((n, n), dtype=complex)
        flat = mat.reshape(-1)
        flat[::n + 1] = d
        if up is not None:
            flat[1::n + 1], flat[n::n + 1] = up[:-1], lo[1:]
        mat.setflags(write=False)
        return mat

    @cached_property
    def _rows(self):
        """(d, up, lo): a diagonal or tridiagonal operator's bands as the
        read-only rows of n entries `band_apply` reads, up[i] the entry
        (i, i + 1) and lo[i] the entry (i, i - 1), so up[-1] and lo[0] are +0
        padding; a diagonal operator's up and lo are None. A band-built
        operator is stored as them; a matrix-built one reads them here, once."""
        mat = self.matrix
        if self.structure == "diagonal":
            return _frozen_array(mat.diagonal()), None, None
        return tuple(map(_frozen_array, (mat.diagonal(), np.append(mat.diagonal(1), 0.0),
                                         np.append(0.0, mat.diagonal(-1)))))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """The operator applied along the last axis of a (..., dim) array.

        Every row's result is summed in the same order whatever the leading
        shape, so a row comes out with the same bits alone or in a batch:
        the dense form sums elementwise products along the last axis rather
        than calling a matrix product.
        """
        if self.structure == "diagonal":
            return self._rows[0] * vec
        if self.structure == "tridiagonal":
            rows = np.reshape(vec, (-1, np.shape(vec)[-1]))
            src = padded_rows(*rows.shape)
            src[1][...] = rows
            out = np.empty_like(src[1])
            return band_apply(self._rows, src, out, np.empty_like(out)).reshape(np.shape(vec))
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
        mat = self._freeze()
        if float(np.linalg.eigvalsh(mat).min()) < -1e-8 / self.basis.weight:
            raise ValueError("density matrix has an eigenvalue below -1e-8")

    def _freeze(self) -> np.ndarray:
        """Check the shape, hermiticity and trace of `entries`, and keep them
        as a read-only complex array, which is returned."""
        mat = np.asarray(self.entries, dtype=complex)
        d = self.basis.dim
        if mat.shape != (d, d):
            raise BasisMismatchError(f"entries shape {mat.shape} does not match dim {d}")
        if not _detect_flag(mat, 1e-10):
            raise ValueError("density matrix is not hermitian within 1e-10")
        tr = float(np.trace(mat).real) * self.basis.weight
        if not abs(tr - 1.0) <= 1e-8:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond 1e-8")
        object.__setattr__(self, "entries", _frozen_array(mat))
        return self.entries

    @classmethod
    def _positive(cls, basis: Basis, entries) -> DensityMatrix:
        """A density matrix of `entries` that are positive by construction,
        such as |v><v|: the shape, hermiticity and trace checks, without the
        O(n^3) eigenvalues."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "basis", basis)
        object.__setattr__(rho, "entries", entries)
        rho._freeze()
        return rho

    def trace(self) -> float:
        return float(np.trace(self.entries).real) * self.basis.weight


def expectation(state: StateVector, op: Operator) -> complex:
    """<v|Z|v> under the basis weight; requires a normalized state."""
    _check_same_basis(state, op)
    state.require_normalized(1e-6)
    return complex(state.basis.weight * np.vdot(state.amplitudes, op.apply(state.amplitudes)))


def projector(state: StateVector) -> DensityMatrix:
    """Rank-one density matrix |v><v| of a normalized state, positive by
    construction, so its eigenvalues are not computed."""
    state.require_normalized(1e-6)
    v = state.amplitudes
    return DensityMatrix._positive(state.basis, np.outer(v, v.conj()))


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
        return Operator.diagonal(op.basis, np.exp(scale * op._rows[0]))
    if op.is_hermitian:
        w, v = np.linalg.eigh(op.matrix)
        mat = (v * np.exp(scale * w)) @ v.conj().T
        return Operator(op.basis, mat)
    import scipy.linalg  # scipy loads only on the calls that need it

    return Operator(op.basis, scipy.linalg.expm(scale * op.matrix))
