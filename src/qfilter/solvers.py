"""Time integrators for the conditioned and averaged dynamics.

Three pathwise schemes advance the conditioned (posterior) state under a
continuously observed channel, all driven by the same Wiener increments dW
and the output record dY = 2 Re<L> dt + dW formed innovation-first from the
scheme's own posterior expectation (or replayed from a stored record):

  nonlinear   the record-driven one-step update, renormalized:
                phi <- N[ phi + (sum_j L_j dY_j - K dt) phi ],
              K = sum_j L_j^dag L_j / 2 + iH/hbar. Expanding the
              normalization N to first order in dt recovers the conditioned
              equation
                d(phi) = [-(1/2) sum_j Ltil_j^dag Ltil_j - iH/hbar] phi dt
                         + sum_j Ltil_j phi dW_j,  Ltil_j = L_j - Re<L_j>,
              so this is an Euler step of the nonlinear form whose
              renormalization is exact rather than truncated; it stays
              pathwise consistent with the linear form at every finite dt;

  linear      d(chi) = -K chi dt + sum_j L_j chi dY_j,
              the same update kept unnormalized in exact arithmetic; the
              solver renormalizes per step and carries the scale in
              log space, so chi = exp(log_norm) * state at every snapshot;

  gauge       psi = exp(-sum_j L_j Y_j) chi obeys the noise-free equation
              d(psi)/dt = -G(Y) psi with
              G(Y) = exp(-L.Y) (K + sum_j L_j^2 / 2) exp(L.Y),
              stepped with the midpoint value of Y over each step
              (diagonal hermitian channels only); the posterior is recovered
              by the log-safe reconstruction chi = exp(L.Y) psi.

The stochastic amplitude ln c is accumulated alongside every scheme as the
realized norm growth of the record-driven one-step update at the current
posterior; its first-order expansion is the Ito increment
  d ln c = sum_j [Re<L_j> dY_j - (Re<L_j>)^2 dt].
Accumulating the realized growth keeps exp(ln c) exactly equal to the
linear-form norm at finite dt instead of only up to a quadratic-variation
remainder.

Ensemble averages of the conditioned projectors obey the averaged equation
  d(rho)/dt = -(K rho + rho K^dag) + sum_j L_j rho L_j^dag,
integrated here with fixed-step RK4 (`solve_master`). Its right-hand side is
chosen once per solve from the `Operator.structure` tags: when K is diagonal
or tridiagonal and every L_j is diagonal (grid models under position
observation, and the qubit under a sigma_z channel), it is one elementwise
product with a precomputed coefficient matrix plus the four shifted band
terms of K, O(n^2) per stage; any other operator keeps the dense O(n^3)
matmul form. `solve_unitary` covers the lambda = 0 limit: dense
exponentiation on finite bases, Crank-Nicolson on grids.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import (
    BasisMismatchError,
    ConfigError,
    InstabilityError,
    NormalizationError,
    OracleSizeError,
    StepFailureError,
    UnsupportedConfigurationError,
)
from .linalg import (
    DEFAULT_ORACLE_CAP,
    Basis,
    DensityMatrix,
    Operator,
    StateVector,
    matrix_exp,
)
from .models import ModelSpec
from .noise import MeasurementRecord, NoisePath, generate_noise

SCHEMES = ("nonlinear", "linear", "gauge")

_BOUNDARY_WARN = 1e-6


def time_index(times: np.ndarray, t: float) -> int:
    """Index of the first stored time within 1e-9 + 1e-12 |t| of `t`."""
    hits = np.nonzero(np.isclose(times, t, rtol=0.0, atol=1e-9 + 1e-12 * abs(t)))[0]
    if hits.size == 0:
        raise ValueError(f"time {t} is not a stored snapshot")
    return int(hits[0])


def _require_basis(model: ModelSpec, state: StateVector) -> None:
    if state.basis != model.basis:
        raise BasisMismatchError("state basis does not match the model")


def _weighted_norm(weight: float, vec: np.ndarray) -> float:
    return float(np.sqrt(weight) * np.linalg.norm(vec))


def _re_expectations(phi: np.ndarray, channels, weight: float):
    """Re<L_j> and the products L_j phi for a normalized phi."""
    lphis = [ch.apply(phi) for ch in channels]
    a = [(weight * np.vdot(phi, lp)).real for lp in lphis]
    return a, lphis


def _record_update(chi, model, lchis, dy, dt):
    """One-step record-driven map chi + (sum_j L_j dY_j - K dt) chi."""
    out = chi - dt * model.generator.apply(chi)
    for j in range(len(lchis)):
        out = out + dy[j] * lchis[j]
    return out


def _gauge_apply(core: Operator, s: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Apply exp(-s) core exp(s) using only local differences of s."""
    if core.structure == "diagonal":
        return core.matrix.diagonal() * vec
    if core.structure == "tridiagonal":
        lo, d, up = core._bands
        out = d * vec
        out[:-1] += up * np.exp(s[1:] - s[:-1]) * vec[1:]
        out[1:] += lo * np.exp(s[:-1] - s[1:]) * vec[:-1]
        return out
    return (core.matrix * np.exp(s[None, :] - s[:, None])) @ vec


def _reconstruct_raw(psi_unit: np.ndarray, ldiag: np.ndarray, y: np.ndarray, weight: float):
    """Normalized exp(L.Y) psi and ln of its norm, overflow-safe."""
    s = y @ ldiag
    m = float(s.max())
    scaled = np.exp(s - m) * psi_unit
    nn = _weighted_norm(weight, scaled)
    if nn == 0.0 or not np.isfinite(nn):
        raise NormalizationError("reconstruction produced a degenerate state")
    return scaled / nn, math.log(nn) + m


@dataclass
class TrajectoryResult:
    """Stored output of one conditioned trajectory.

    `log_norm` holds, per snapshot: the cumulative log of pre-renormalization
    norms (nonlinear and linear, where it equals ln of the unnormalized
    solution's norm), or the reconstructed ln c (gauge). `log_amplitude` is
    the record-driven amplitude ln c, accumulated for every scheme as the
    realized norm growth of the record-driven one-step map at that scheme's
    posterior; for the nonlinear and linear schemes it coincides with
    `log_norm` by construction, for the gauge scheme the two series agree
    only up to discretization error and their gap is a cross-form check.
    """

    scheme: str
    dt: float
    n_steps: int
    record_stride: int
    master_seed: int
    trajectory_index: int
    snapshot_steps: np.ndarray
    times: np.ndarray
    states: list[StateVector]
    expectations: dict[str, np.ndarray]
    log_amplitude: np.ndarray
    log_norm: np.ndarray
    step_norms: np.ndarray | None
    record: MeasurementRecord | None
    noise: NoisePath | None
    initial: StateVector
    model: ModelSpec

    def index_of_time(self, t: float) -> int:
        return time_index(self.times, t)

    def state_at(self, t: float) -> StateVector:
        return self.states[self.index_of_time(t)]

    def slim(self) -> TrajectoryResult:
        """Drop the per-step payload, keeping snapshot series only."""
        return replace(self, step_norms=None, record=None, noise=None)


def run_trajectory(model: ModelSpec, initial: StateVector, dt: float, n_steps: int,
                   master_seed: int, trajectory_index: int, scheme: str = "nonlinear",
                   observables: dict[str, Operator] | None = None, record_stride: int = 1,
                   *, noise: NoisePath | None = None, record: MeasurementRecord | None = None,
                   keep_noise: bool = True) -> TrajectoryResult:
    """Integration of one conditioned trajectory.

    Innovation-first by default: the Wiener increments are drawn (or supplied
    via `noise`), the record is formed per step from the current posterior
    expectation, dY_j = 2 Re<L_j> dt + dW_j, and the chosen scheme is advanced
    with it. Passing `record` instead replays a stored record: the dY_j come
    from it verbatim and the innovation dW_j = dY_j - 2 Re<L_j> dt is
    recovered per step for bookkeeping. States, requested expectations and
    both log series are stored every `record_stride` steps (plus the final
    step).
    """
    if scheme not in SCHEMES:
        raise UnsupportedConfigurationError(f"unknown scheme {scheme!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if record_stride < 1:
        raise ValueError("record_stride must be at least 1")
    _require_basis(model, initial)
    initial.require_normalized(1e-8)
    observables = dict(observables or {})
    for name, op in observables.items():
        if op.basis != model.basis:
            raise BasisMismatchError(f"observable {name!r} basis does not match the model")

    c = model.n_channels
    replay = None
    if record is not None:
        if noise is not None:
            raise ValueError("pass either noise or record, not both")
        if record.increments.shape != (n_steps, c):
            raise BasisMismatchError("supplied record shape does not match the run")
        if abs(record.dt - dt) > 1e-12 * max(dt, record.dt):
            raise ValueError("supplied record was generated for a different dt")
        replay = record.increments
        dw_table = np.empty((n_steps, c))
    else:
        if noise is None:
            noise = generate_noise(master_seed, trajectory_index, dt, n_steps, c)
        else:
            if noise.n_steps != n_steps or noise.n_channels != c:
                raise BasisMismatchError("supplied noise shape does not match the run")
            if abs(noise.dt - dt) > 1e-12 * max(dt, noise.dt):
                raise ValueError("supplied noise was generated for a different dt")
        dw_table = noise.increments

    w = model.basis.weight
    channels = model.channels
    gauge_mode = scheme == "gauge"
    if gauge_mode:
        ldiag = model.channel_diagonals
        if ldiag is None:
            raise UnsupportedConfigurationError(
                "gauge scheme needs diagonal hermitian channels"
            )
        core = model.gauge_core

    snapshot_steps = np.arange(0, n_steps + 1, record_stride)
    if snapshot_steps[-1] != n_steps:
        snapshot_steps = np.append(snapshot_steps, n_steps)
    n_snaps = snapshot_steps.size
    times = snapshot_steps * dt

    states: list[StateVector] = []
    exp_out = {name: np.empty(n_snaps, dtype=complex) for name in observables}
    log_amp_out = np.empty(n_snaps)
    log_norm_out = np.empty(n_snaps)
    step_norms = np.empty(n_steps)
    dys = np.empty((n_steps, c))

    phi = (initial.amplitudes / initial.norm()).astype(complex)
    log_amp = 0.0
    log_norm = 0.0  # nonlinear: sum ln prenorm; linear: ln ||chi||; gauge: scale offset
    y = np.zeros(c)
    is_grid = model.basis.grid is not None
    boundary_max = 0.0
    snap_ptr = 0

    def store(posterior: np.ndarray, ln_c_gauge: float | None) -> None:
        nonlocal snap_ptr, boundary_max
        states.append(StateVector(model.basis, posterior))
        for name, op in observables.items():
            exp_out[name][snap_ptr] = w * np.vdot(posterior, op.apply(posterior))
        log_amp_out[snap_ptr] = log_amp
        log_norm_out[snap_ptr] = log_norm if ln_c_gauge is None else ln_c_gauge
        if is_grid:
            edge = max(abs(posterior[0]), abs(posterior[-1]))
            if edge > boundary_max:
                boundary_max = edge
        snap_ptr += 1

    def reconstruct(step: int):
        try:
            return _reconstruct_raw(phi, ldiag, y, w)
        except NormalizationError:
            raise StepFailureError(
                f"gauge reconstruction at step {step} of trajectory {trajectory_index} "
                "produced a degenerate state", step_index=step, scheme=scheme,
                trajectory_index=trajectory_index
            ) from None

    # a non-finite value ends in StepFailureError below, so numpy's overflow
    # and invalid-value warnings would only repeat that failure on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            if gauge_mode:
                posterior, ln_c = reconstruct(k)
            else:
                posterior, ln_c = phi, None
            a, lposts = _re_expectations(posterior, channels, w)
            if snap_ptr < n_snaps and snapshot_steps[snap_ptr] == k:
                store(posterior, None if ln_c is None else ln_c + log_norm)
            dy_k = dys[k]
            for j in range(c):
                aj = a[j]
                if replay is None:
                    dy_k[j] = 2.0 * aj * dt + dw_table[k, j]
                else:
                    dy_k[j] = replay[k, j]
                    dw_table[k, j] = dy_k[j] - 2.0 * aj * dt

            if gauge_mode:
                # amplitude growth of the record-driven map at the posterior,
                # accumulated for the cross-form identity exp(ln c) = ||chi||
                growth = _weighted_norm(w, _record_update(posterior, model, lposts, dy_k, dt))
                if not (growth > 0.0 and np.isfinite(growth)):
                    raise StepFailureError(
                        f"gauge step {k} of trajectory {trajectory_index} produced a degenerate "
                        "amplitude", step_index=k, scheme=scheme, trajectory_index=trajectory_index
                    )
                log_amp += math.log(growth)
                s_mid = (y + 0.5 * dy_k) @ ldiag
                new = phi - dt * _gauge_apply(core, s_mid, phi)
            else:
                new = _record_update(phi, model, lposts, dy_k, dt)
            nn = _weighted_norm(w, new)
            if not (nn > 0.0 and np.isfinite(nn)):
                raise StepFailureError(
                    f"{scheme} step {k} of trajectory {trajectory_index} produced a non-finite "
                    "state", step_index=k, scheme=scheme, trajectory_index=trajectory_index
                )
            step_norms[k] = nn
            log_norm += math.log(nn)
            if not gauge_mode:
                log_amp += math.log(nn)
            phi = new / nn
            y += dy_k

        if gauge_mode:
            posterior, ln_c = reconstruct(n_steps)
            store(posterior, ln_c + log_norm)
        else:
            store(phi, None)

    if is_grid and boundary_max > _BOUNDARY_WARN:
        warnings.warn(
            f"boundary amplitude reached {boundary_max:.2e}; widen the grid",
            RuntimeWarning,
            stacklevel=2,
        )

    out_record = MeasurementRecord(dt, dys, np.cumsum(dys, axis=0))
    if keep_noise and noise is None:
        noise = NoisePath(dt, dw_table, master_seed, trajectory_index)
    return TrajectoryResult(
        scheme=scheme,
        dt=dt,
        n_steps=n_steps,
        record_stride=record_stride,
        master_seed=master_seed,
        trajectory_index=trajectory_index,
        snapshot_steps=snapshot_steps,
        times=times,
        states=states,
        expectations=exp_out,
        log_amplitude=log_amp_out,
        log_norm=log_norm_out,
        step_norms=step_norms,
        record=out_record,
        noise=noise if keep_noise else None,
        initial=initial,
        model=model,
    )


def resolve_workers(requested: int | None, n_tasks: int) -> int:
    """Worker count capped by cpu count, QFILTER_THREADS, and the task count."""
    cap = os.cpu_count() or 1
    env = os.environ.get("QFILTER_THREADS")
    if env is not None:
        try:
            env_cap = int(env)
        except ValueError:
            raise ConfigError([("QFILTER_THREADS", f"not an integer: {env!r}")]) from None
        if env_cap < 1:
            raise ConfigError([("QFILTER_THREADS", "must be at least 1")])
        cap = min(cap, env_cap)
    if requested is not None:
        if requested < 1:
            raise ValueError("workers must be at least 1")
        cap = min(cap, requested)
    return max(1, min(cap, n_tasks))


_POOL_PAYLOAD: dict | None = None


def _pool_init(payload: dict) -> None:
    global _POOL_PAYLOAD
    _POOL_PAYLOAD = payload


def _pool_run(index: int) -> TrajectoryResult:
    p = _POOL_PAYLOAD
    result = run_trajectory(
        p["model"], p["initial"], p["dt"], p["n_steps"], p["master_seed"], index,
        scheme=p["scheme"], observables=p["observables"], record_stride=p["record_stride"],
        keep_noise=False,
    )
    if p["slim"]:
        result = result.slim()
    # run_ensemble re-attaches the caller's model and initial state, so no
    # result pickles its own copy back
    result.model = result.initial = None
    return result


def run_ensemble(model: ModelSpec, initial: StateVector, dt: float, n_steps: int,
                 master_seed: int, n_trajectories: int, scheme: str = "nonlinear",
                 observables: dict[str, Operator] | None = None, record_stride: int = 1,
                 *, workers: int | None = None, slim: bool = False) -> list[TrajectoryResult]:
    """Run trajectories `0 .. n_trajectories - 1`, optionally pooled; no
    result keeps its noise path.

    Results are ordered by trajectory index and are bit-identical for any
    worker count, since each trajectory owns a counter-keyed noise stream.
    """
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be at least 1")
    indices = range(n_trajectories)
    n_workers = resolve_workers(workers, n_trajectories)
    if n_workers <= 1:
        out = []
        for i in indices:
            r = run_trajectory(model, initial, dt, n_steps, master_seed, i, scheme=scheme,
                               observables=observables, record_stride=record_stride,
                               keep_noise=False)
            out.append(r.slim() if slim else r)
        return out
    payload = {
        "model": model, "initial": initial, "dt": dt, "n_steps": n_steps,
        "master_seed": master_seed, "scheme": scheme, "observables": observables,
        "record_stride": record_stride, "slim": slim,
    }
    chunk = max(1, n_trajectories // (4 * n_workers))
    with ProcessPoolExecutor(max_workers=n_workers, initializer=_pool_init,
                             initargs=(payload,)) as pool:
        out = list(pool.map(_pool_run, indices, chunksize=chunk))
    for r in out:
        r.model, r.initial = model, initial
    return out


@dataclass
class DensityTrajectory:
    """Strided density-matrix history from the averaged equation."""

    basis: Basis
    dt: float
    store_stride: int
    times: np.ndarray
    matrices: np.ndarray  # (n_stored, dim, dim)

    def density(self, index: int) -> DensityMatrix:
        return DensityMatrix(self.basis, self.matrices[index])

    def index_of_time(self, t: float) -> int:
        return time_index(self.times, t)

    def density_at(self, t: float) -> DensityMatrix:
        return self.density(self.index_of_time(t))

    def trace_series(self) -> np.ndarray:
        return np.einsum("kii->k", self.matrices).real * self.basis.weight


def _banded_rhs(generator: Operator, channels):
    """O(n^2) right-hand side for a diagonal/tridiagonal K and diagonal L_j.

    -(K r + r K^dag) + sum_j L_j r L_j^dag is coef * r with
    coef_ik = -(K_ii + conj(K_kk)) + sum_j l_ji conj(l_jk), plus the
    row-shifted off-diagonal bands of K r and the column-shifted conjugate
    bands of r K^dag. r is not assumed hermitian (RK4 stage matrices are not
    bitwise hermitian), so r K^dag is formed from r itself.
    """
    lo, d, up = generator._bands
    coef = -(d[:, None] + d.conj()[None, :])
    for ch in channels:
        coef += np.outer(ch._diag, ch._diag.conj())
    lo_col, up_col = lo[:, None], up[:, None]
    lo_row, up_row = lo.conj()[None, :], up.conj()[None, :]

    def rhs(r: np.ndarray) -> np.ndarray:
        out = coef * r
        out[:-1] -= up_col * r[1:]
        out[1:] -= lo_col * r[:-1]
        out[:, :-1] -= r[:, 1:] * up_row
        out[:, 1:] -= r[:, :-1] * lo_row
        return out

    return rhs


def _dense_rhs(generator: Operator, channels):
    """O(n^3) right-hand side by dense matmuls, for any operator structure."""
    kmat = generator.matrix
    kdag = kmat.conj().T
    ls = [ch.matrix for ch in channels]
    lds = [m.conj().T for m in ls]

    def rhs(r: np.ndarray) -> np.ndarray:
        out = -(kmat @ r + r @ kdag)
        for lmat, ldag in zip(ls, lds):
            out = out + lmat @ r @ ldag
        return out

    return rhs


def solve_master(model: ModelSpec, rho0: DensityMatrix, dt: float, n_steps: int,
                 store_stride: int = 1) -> DensityTrajectory:
    """Fixed-step RK4 for d(rho)/dt = -(K rho + rho K^dag) + sum_j L_j rho L_j^dag.

    When the generator K is tagged diagonal or tridiagonal and every channel
    is tagged diagonal, each stage costs O(n^2) elementwise work and no
    matmul; any other structure keeps the dense O(n^3) matmul form. Both
    forms refuse dimensions above the dense cap.
    """
    if model.dim > DEFAULT_ORACLE_CAP:
        raise OracleSizeError(f"dimension {model.dim} exceeds the dense cap")
    if rho0.basis != model.basis:
        raise BasisMismatchError("initial density basis does not match the model")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if store_stride < 1:
        raise ValueError("store_stride must be at least 1")

    banded = model.generator.structure in ("diagonal", "tridiagonal") and all(
        ch.structure == "diagonal" for ch in model.channels)
    rhs = (_banded_rhs if banded else _dense_rhs)(model.generator, model.channels)

    stored_steps = np.arange(0, n_steps + 1, store_stride)
    if stored_steps[-1] != n_steps:
        stored_steps = np.append(stored_steps, n_steps)
    matrices = np.empty((stored_steps.size, model.dim, model.dim), dtype=complex)
    weight = model.basis.weight

    rho = rho0.entries.astype(complex)
    ptr = 0
    if stored_steps[ptr] == 0:
        matrices[ptr] = rho
        ptr += 1
    for k in range(n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + (0.5 * dt) * k1)
        k3 = rhs(rho + (0.5 * dt) * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tr = float(np.trace(rho).real) * weight
        if not np.isfinite(tr) or abs(tr - 1.0) > 1e-6:
            raise InstabilityError(
                f"trace drifted to {tr!r} at step {k} (t = {(k + 1) * dt:.6g}); reduce dt"
            )
        if ptr < stored_steps.size and stored_steps[ptr] == k + 1:
            matrices[ptr] = rho
            ptr += 1
    return DensityTrajectory(model.basis, dt, store_stride, stored_steps * dt, matrices)


def solve_unitary(model: ModelSpec, psi0: StateVector, t: float,
                  dt: float | None = None) -> StateVector:
    """Closed-system evolution: dense exp(-iHt/hbar) on finite bases,
    Crank-Nicolson on grids."""
    _require_basis(model, psi0)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return psi0
    if model.basis.grid is None:
        prop = matrix_exp(model.hamiltonian, scale=-1j * t / model.hbar)
        return StateVector(model.basis, prop.apply(psi0.amplitudes))
    if model.hamiltonian.structure != "tridiagonal":
        raise UnsupportedConfigurationError("grid hamiltonian must be tridiagonal")
    if dt is None:
        dt = min(1e-3, t / 100.0)
    n = max(1, round(t / dt))
    dt = t / n
    lo, d, up = model.hamiltonian._bands
    z = 0.5j * dt / model.hbar
    ab = np.zeros((3, model.dim), dtype=complex)
    ab[0, 1:] = z * up
    ab[1, :] = 1.0 + z * d
    ab[2, :-1] = z * lo
    psi = psi0.amplitudes.astype(complex)
    for _ in range(n):
        rhs = psi - z * model.hamiltonian.apply(psi)
        psi = scipy.linalg.solve_banded((1, 1), ab, rhs)
    return StateVector(model.basis, psi)
