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

One kernel advances every scheme: it holds B trajectories as a (B, dim)
array and makes each numpy call once per step for all of them, so the
Python overhead of a step is shared by the batch; the step operators are
built once per run. Each batch writes straight into one `EnsembleResult`
in shared memory, an array per quantity with a row per trajectory, and
`run_trajectory` is row 0 of a one-row run. Each trajectory keeps its own
counter-keyed noise stream, and every reduction over amplitudes is taken
along the last axis row by row (never a matrix product across the batch),
so a trajectory carries the same bits whatever batch it is advanced in.

The stochastic amplitude ln c is accumulated alongside every scheme as the
realized norm growth of the record-driven one-step update at the current
posterior; its first-order expansion is the Ito increment
  d ln c = sum_j [Re<L_j> dY_j - (Re<L_j>)^2 dt].
Accumulating the realized growth keeps exp(ln c) exactly equal to the
linear-form norm at finite dt instead of only up to a quadratic-variation
remainder.

Ensemble averages of the conditioned projectors obey the averaged equation
  d(rho)/dt = A(rho) = -(K rho + rho K^dag) + sum_j L_j rho L_j^dag,
integrated here with fixed-step RK4 (`solve_master`). A is linear and
constant, so a step is taken in Horner form,
  rho + h A(rho + h/2 A(rho + h/3 A(rho + h/4 A rho))),
as four in-place stages out = base + s * A(src) over preallocated buffers.
The stage is chosen once per solve from the `Operator.structure` tags: when
K is diagonal or tridiagonal and every L_j is diagonal (grid models under
position observation, and the qubit under a sigma_z channel), it is one
elementwise product with a precomputed coefficient matrix plus the four
shifted band terms of K, O(n^2) and taken in cache-sized row blocks; any
other operator keeps the dense O(n^3) matmul form. `solve_unitary` covers
the lambda = 0 limit: dense exponentiation on finite bases, Crank-Nicolson
on grids.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import warnings
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisMismatchError,
    ConfigError,
    InstabilityError,
    OracleSizeError,
    StepFailureError,
    UnsupportedConfigurationError,
)
from .linalg import (
    DEFAULT_ORACLE_CAP,
    Basis,
    DensityMatrix,
    Operator,
    StateSeries,
    StateVector,
    matrix_exp,
)
from .models import ModelSpec
from .noise import MeasurementRecord, NoisePath, generate_noise

SCHEMES = ("nonlinear", "linear", "gauge")

_BOUNDARY_WARN = 1e-6

# amplitudes in one batch's (B, dim) state array (256 KiB of complex128), so
# the arrays a step makes stay near a 2 MiB L2 cache: at 128 grid points
# this is 128 rows, the fastest per trajectory-step measured; 512 rows ran
# 25 % slower. It also bounds the row block of a banded master stage: at 256
# grid points one 16 Ki-entry block per operand took 4.9 ms per RK4 step
# against 6.5 ms for the whole 64 Ki-entry matrix at once
_STEP_ENTRIES = 1 << 14

# bytes one batch of trajectories holds at most: state rows, snapshots,
# noise table, record and step norms
_BATCH_BYTES = 32 << 20

# the checks a step makes, in the order it makes them
_RECONSTRUCTION, _AMPLITUDE, _STATE = range(3)


def time_index(times: np.ndarray, t: float) -> int:
    """Index of the first stored time within 1e-9 + 1e-12 |t| of `t`."""
    hits = np.nonzero(np.isclose(times, t, rtol=0.0, atol=1e-9 + 1e-12 * abs(t)))[0]
    if hits.size == 0:
        raise ValueError(f"time {t} is not a stored snapshot")
    return int(hits[0])


def _require_basis(model: ModelSpec, state: StateVector) -> None:
    if state.basis != model.basis:
        raise BasisMismatchError("state basis does not match the model")


# Row-wise reductions sum along the last axis only, so a trajectory's values
# carry the same bits whichever batch it is advanced in. The real forms read
# complex rows as interleaved (re, im) floats.

def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unweighted <a|b> of each row pair."""
    return np.add.reduce(a.conj() * b, axis=-1)


def _re_rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a|b> of each row pair of C-contiguous complex rows."""
    return np.add.reduce(a.view(float) * b.view(float), axis=-1)


def _row_norms(weight: float, vec: np.ndarray) -> np.ndarray:
    """Weighted norm of each C-contiguous complex row."""
    f = vec.view(float)
    return np.sqrt(weight * np.add.reduce(f * f, axis=-1))


def _exponent(y: np.ndarray, ldiag: np.ndarray) -> np.ndarray:
    """sum_j y_j l_j per row, the exponent of exp(L.Y) for diagonal channels."""
    s = y[..., 0, None] * ldiag[0]
    for j in range(1, ldiag.shape[0]):
        s = s + y[..., j, None] * ldiag[j]
    return s


def _record_update(chi, euler: Operator, lchis, dy):
    """One-step record-driven map (1 - K dt) chi + sum_j dY_j L_j chi per row,
    with `euler` = 1 - K dt."""
    out = euler.apply(chi)
    for j, lchi in enumerate(lchis):
        out += dy[..., j, None] * lchi
    return out


def _gauge_apply(op: Operator, s: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Apply exp(-s) op exp(s) per row using only differences of s."""
    if op.structure == "diagonal":
        return op._diag * vec
    if op.structure == "tridiagonal":
        lo, d, up = op._bands
        ds = s[..., 1:] - s[..., :-1]
        out = d * vec
        out[..., :-1] += up * np.exp(ds) * vec[..., 1:]
        out[..., 1:] += lo * np.exp(-ds) * vec[..., :-1]
        return out
    tilted = op.matrix * np.exp(s[..., None, :] - s[..., :, None])
    return (tilted * vec[..., None, :]).sum(axis=-1)


def _reconstruct_raw(psi_unit: np.ndarray, ldiag: np.ndarray, y: np.ndarray, weight: float):
    """Normalized exp(L.Y) psi and ln of its norm per row, overflow-safe.

    A row whose scaled norm is zero or not finite is degenerate, and its
    ln c is then not finite.
    """
    s = _exponent(y, ldiag)
    m = s.max(axis=-1)
    scaled = np.exp(s - m[..., None]) * psi_unit
    nn = _row_norms(weight, scaled)
    return scaled / nn[..., None], np.log(nn) + m


def _cumulative_logs(values: np.ndarray):
    """(B, n + 1) running sums of ln values, from 0; also non-finite flags."""
    logs = np.log(values)
    out = np.zeros((values.shape[0], values.shape[1] + 1))
    np.cumsum(logs, axis=1, out=out[:, 1:])
    return out, ~np.isfinite(logs)


def _first_failure(bad: np.ndarray, check: int) -> np.ndarray:
    """3 * step + check of each row's first flagged step, or a huge value."""
    first = np.where(bad.any(axis=1), bad.argmax(axis=1), np.iinfo(np.int64).max // 4)
    return 3 * first + check


def _run_batch(run: dict, out: EnsembleResult, lo: int, hi: int, table: np.ndarray,
               replay: bool) -> np.ndarray:
    """Advance rows `lo .. hi - 1` of `out`, one per row of `table`, through
    every step, writing them in place; per row 3 * step + check of its first
    failed check, or -1 if none.

    `table` is (hi - lo, n_steps, n_channels): each row's Wiener increments
    dW, or with `replay` the record increments dY it replays. `run` is what
    `_prepare` built for the whole run; every row starts from its normalized
    amplitudes `phi0`. The per-step arrays `out` does not keep are scratch.

    The loop makes no check and keeps no running sum. It stores each step's
    pre-renormalization norm (and, for the gauge scheme, the reconstruction
    ln c and the amplitude growth); the log series are their cumulative sums
    taken afterwards, in step order. A row that fails goes on with
    non-finite values, and its first non-finite or zero entry is the check
    a one-trajectory run stops at.
    """
    model, observables, snapshot_steps = run["model"], run["observables"], run["snapshot_steps"]
    euler, gauge_euler = run["euler"], run["gauge_euler"]
    b, n_steps, c = table.shape
    w = model.basis.weight
    channels = model.channels
    gauge_mode = gauge_euler is not None
    if gauge_mode:
        ldiag = model.channel_diagonals
        ln_recon = np.empty((b, n_steps + 1))
        growth = np.empty((b, n_steps))
        y = np.zeros((b, c))

    snap_of_step = {int(s): i for i, s in enumerate(snapshot_steps)}
    step_norms = np.empty((b, n_steps)) if out.step_norms is None else out.step_norms[lo:hi]
    given, formed = (out.record, out.innovations) if replay else (out.innovations, out.record)
    if given is not None:
        given[lo:hi] = table
    formed = np.empty(table.shape) if formed is None else formed[lo:hi]
    dys, dws = (table, formed) if replay else (formed, table)
    drift = np.empty((b, c))
    two_w_dt = 2.0 * w * run["dt"]
    phi = np.repeat(run["phi0"][None, :], b, axis=0)

    def posterior(step: int) -> np.ndarray:
        if not gauge_mode:
            return phi
        post, ln_recon[:, step] = _reconstruct_raw(phi, ldiag, y, w)
        return post

    def store(step: int, post: np.ndarray) -> None:
        i = snap_of_step[step]
        out.states[lo:hi, i] = post
        for name, op in observables.items():
            out.expectations[name][lo:hi, i] = w * _rowdot(post, op.apply(post))

    # a non-finite value ends in StepFailureError after the run, so numpy's
    # overflow and invalid-value warnings would only repeat that failure
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n_steps):
            post = posterior(k)
            lposts = [ch.apply(post) for ch in channels]
            if k in snap_of_step:
                store(k, post)
            for j, lp in enumerate(lposts):
                drift[:, j] = two_w_dt * _re_rowdot(post, lp)
            dy = dys[:, k]
            if replay:
                np.subtract(dy, drift, out=dws[:, k])
            else:
                np.add(drift, dws[:, k], out=dy)

            if gauge_mode:
                # amplitude growth of the record-driven map at the posterior,
                # accumulated for the cross-form identity exp(ln c) = ||chi||
                growth[:, k] = _row_norms(w, _record_update(post, euler, lposts, dy))
                new = _gauge_apply(gauge_euler, _exponent(y + 0.5 * dy, ldiag), phi)
                y += dy
            else:
                new = _record_update(phi, euler, lposts, dy)
            nn = _row_norms(w, new)
            step_norms[:, k] = nn
            phi = new / nn[:, None]
        store(n_steps, posterior(n_steps))

        # nonlinear: sum ln prenorm; linear: ln ||chi||; gauge: scale offset
        log_norm, bad_norm = _cumulative_logs(step_norms)
        log_norm = log_norm[:, snapshot_steps]
        failure = _first_failure(bad_norm, _STATE)
        if gauge_mode:
            log_amp, bad_growth = _cumulative_logs(growth)
            log_amp = log_amp[:, snapshot_steps]
            log_norm += ln_recon[:, snapshot_steps]
            failure = np.minimum(failure, _first_failure(~np.isfinite(ln_recon),
                                                         _RECONSTRUCTION))
            failure = np.minimum(failure, _first_failure(bad_growth, _AMPLITUDE))
        else:
            log_amp = log_norm.copy()
    failure[failure >= 3 * (n_steps + 1)] = -1
    out.log_amplitude[lo:hi], out.log_norm[lo:hi] = log_amp, log_norm
    return failure


def _report(out: EnsembleResult, lo: int, failure: np.ndarray, stacklevel: int) -> None:
    """Warn and raise for rows `lo ..` of `out`, one per entry of their
    `failure` codes, as a serial run would: on a grid, a boundary warning
    for each trajectory before the first failed one whose snapshots reach an
    edge amplitude above _BOUNDARY_WARN, then a StepFailureError naming that
    failed trajectory, its step and its scheme."""
    failed = np.flatnonzero(failure >= 0)
    stop = failed[0] if failed.size else failure.size
    if out.model.basis.grid is not None:
        edges = np.abs(out.states[lo:lo + stop][..., [0, -1]]).max(axis=(1, 2))
        for edge in edges[edges > _BOUNDARY_WARN]:
            warnings.warn(f"boundary amplitude reached {edge:.2e}; widen the grid",
                          RuntimeWarning, stacklevel=stacklevel + 1)
    if not failed.size:
        return
    index = out.first_index + lo + int(stop)
    step, check = divmod(int(failure[stop]), 3)
    if check == _RECONSTRUCTION:
        what = f"gauge reconstruction at step {step} of trajectory {index} produced a " \
               "degenerate state"
    elif check == _AMPLITUDE:
        what = f"gauge step {step} of trajectory {index} produced a degenerate amplitude"
    else:
        what = f"{out.scheme} step {step} of trajectory {index} produced a non-finite state"
    raise StepFailureError(what, step_index=step, scheme=out.scheme, trajectory_index=index)


@dataclass
class TrajectoryResult:
    """Stored output of one conditioned trajectory, a row of an `EnsembleResult`.

    `states` holds the normalized snapshots as one (n_snaps, dim) array,
    `states.amplitudes`; `states[i]` is a `StateVector`. `log_norm` holds,
    per snapshot: the cumulative log of pre-renormalization norms (nonlinear
    and linear, where it equals ln of the unnormalized solution's norm), or
    the reconstructed ln c (gauge). `log_amplitude` is the record-driven
    amplitude ln c, accumulated for every scheme as the realized norm growth
    of the record-driven one-step map at that scheme's posterior; for the
    nonlinear and linear schemes it coincides with `log_norm` by
    construction, for the gauge scheme the two series agree only up to
    discretization error and their gap is a cross-form check.
    """

    scheme: str
    dt: float
    n_steps: int
    record_stride: int
    master_seed: int
    trajectory_index: int
    snapshot_steps: np.ndarray
    times: np.ndarray
    states: StateSeries
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


@dataclass
class EnsembleResult:
    """Trajectories `first_index ..` of one run: its metadata once, and one
    array per quantity with a row per trajectory. `states` is (N, n_snaps,
    dim); `expectations` and the log series (see `TrajectoryResult`) are
    (N, n_snaps); `step_norms` (N, n_steps) and the increments dY (`record`)
    and dW (`innovations`), (N, n_steps, n_channels), are None unless kept.
    `result[i]` is trajectory `first_index + i` as a `TrajectoryResult`
    whose arrays are views of row i (its record and noise objects are built
    from the row); iteration yields the rows in order."""

    scheme: str
    dt: float
    n_steps: int
    record_stride: int
    master_seed: int
    first_index: int
    snapshot_steps: np.ndarray
    times: np.ndarray
    model: ModelSpec
    initial: StateVector
    states: np.ndarray
    expectations: dict[str, np.ndarray]
    log_amplitude: np.ndarray
    log_norm: np.ndarray
    step_norms: np.ndarray | None
    record: np.ndarray | None
    innovations: np.ndarray | None

    def __len__(self) -> int:
        return self.states.shape[0]

    def __getitem__(self, i: int) -> TrajectoryResult:
        i = range(len(self))[i]
        index = self.first_index + i
        record = noise = None
        if self.record is not None:
            record = MeasurementRecord(self.dt, self.record[i], np.cumsum(self.record[i], axis=0))
        if self.innovations is not None:
            noise = NoisePath(self.dt, self.innovations[i], self.master_seed, index)
        return TrajectoryResult(
            scheme=self.scheme, dt=self.dt, n_steps=self.n_steps,
            record_stride=self.record_stride, master_seed=self.master_seed,
            trajectory_index=index, snapshot_steps=self.snapshot_steps, times=self.times,
            states=StateSeries(self.model.basis, self.states[i]),
            expectations={name: e[i] for name, e in self.expectations.items()},
            log_amplitude=self.log_amplitude[i], log_norm=self.log_norm[i],
            step_norms=None if self.step_norms is None else self.step_norms[i],
            record=record, noise=noise, initial=self.initial, model=self.model)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _stored_steps(n_steps: int, stride: int) -> np.ndarray:
    """Steps 0, stride, 2*stride, .. of a run, and the last step n_steps."""
    return np.union1d(np.arange(0, n_steps + 1, stride), [n_steps])


def _prepare(model: ModelSpec, initial: StateVector, scheme: str, dt: float, n_steps: int,
             record_stride: int, observables, master_seed: int) -> dict:
    """Validate a run; what its batches share, the step operators included."""
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
    gauge_euler = None
    if scheme == "gauge":
        if model.channel_diagonals is None:
            raise UnsupportedConfigurationError("gauge scheme needs diagonal hermitian channels")
        gauge_euler = Operator(model.basis, np.eye(model.dim) - dt * model.gauge_core.matrix)
    snapshot_steps = _stored_steps(n_steps, record_stride)
    return {"model": model, "initial": initial, "scheme": scheme, "dt": dt, "n_steps": n_steps,
            "record_stride": record_stride, "master_seed": master_seed,
            "snapshot_steps": snapshot_steps, "times": snapshot_steps * dt,
            "observables": observables,
            "phi0": (initial.amplitudes / initial.norm()).astype(complex),
            "euler": Operator(model.basis, np.eye(model.dim) - dt * model.generator.matrix),
            "gauge_euler": gauge_euler}


def _allocate(run: dict, first_index: int, n_rows: int, keep: tuple[str, ...]) -> EnsembleResult:
    """An EnsembleResult of `n_rows` unfilled rows with the per-step arrays
    in `keep`, all in one anonymous shared mapping, so pool workers forked
    after it write their rows straight into them."""
    import mmap  # loads only in runs that advance trajectories

    snaps, steps = (n_rows, run["snapshot_steps"].size), (n_rows, run["n_steps"])
    record = steps + (run["model"].n_channels,)
    per_step = {"step_norms": steps, "record": record, "innovations": record}
    fields = {"states": (snaps + (run["model"].dim,), complex), "log_amplitude": (snaps, float),
              "log_norm": (snaps, float), **{f: (per_step[f], float) for f in keep}}
    specs = [*fields.values()] + [(snaps, complex)] * len(run["observables"])
    nbytes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
    parts = np.split(np.frombuffer(mmap.mmap(-1, sum(nbytes)), np.uint8), np.cumsum(nbytes)[:-1])
    arrays = [part.view(dtype).reshape(shape) for part, (shape, dtype) in zip(parts, specs)]
    meta = ("scheme", "dt", "n_steps", "record_stride", "master_seed", "snapshot_steps", "times",
            "model", "initial")
    return EnsembleResult(
        **{k: run[k] for k in meta}, first_index=first_index,
        expectations=dict(zip(run["observables"], arrays[len(fields):])),
        **({f: None for f in per_step} | dict(zip(fields, arrays))))


def _drive(run: dict, first_index: int, n_rows: int, keep: tuple[str, ...],
           table: np.ndarray | None, replay: bool, stacklevel: int) -> EnsembleResult:
    """`n_rows` trajectories from `first_index` of the run `_prepare` built,
    in contiguous batches, one per pool task when several workers resolve,
    each advancing its rows of `table` (or noise it draws) straight into one
    `EnsembleResult`; then each batch's warnings and failure, in row order."""
    model = run["model"]
    out = _allocate(run, first_index, n_rows, keep)
    n_workers = resolve_workers(None, n_rows)
    row_bytes = _row_bytes(model.dim, run["snapshot_steps"].size, run["n_steps"],
                           model.n_channels)
    bounds = _batch_bounds(n_rows, model.dim, row_bytes, n_workers)

    def batch(lo: int, hi: int) -> np.ndarray:
        rows = table[lo:hi] if table is not None else _noise_table(
            run["master_seed"], lo, hi, run["dt"], run["n_steps"], model.n_channels)
        return _run_batch(run, out, lo, hi, rows, replay)

    for (lo, _), failure in zip(bounds, pool_map(batch, bounds, n_workers)):
        _report(out, lo, failure, stacklevel + 1)
    return out


def _run_rows(model: ModelSpec, initial: StateVector, dt: float, n_steps: int,
              master_seed: int, first_index: int, scheme: str, table: np.ndarray, *,
              replay: bool = False, observables: dict[str, Operator] | None = None,
              record_stride: int = 1) -> EnsembleResult:
    """Trajectories `first_index ..`, one per row of the (N, n_steps,
    n_channels) `table` of Wiener increments, or with `replay` of record
    increments to replay, which pool workers inherit, run by `_drive`. The
    result keeps the step norms, the record and the innovations."""
    run = _prepare(model, initial, scheme, dt, n_steps, record_stride, observables, master_seed)
    return _drive(run, first_index, len(table), ("step_norms", "record", "innovations"),
                  table, replay, stacklevel=3)


def run_trajectory(model: ModelSpec, initial: StateVector, dt: float, n_steps: int,
                   master_seed: int, trajectory_index: int, scheme: str = "nonlinear",
                   observables: dict[str, Operator] | None = None, record_stride: int = 1,
                   *, noise: NoisePath | None = None,
                   record: MeasurementRecord | None = None) -> TrajectoryResult:
    """Integration of one conditioned trajectory: row 0 of a one-row run.

    Innovation-first by default: the Wiener increments are drawn (or supplied
    via `noise`), the record is formed per step from the current posterior
    expectation, dY_j = 2 Re<L_j> dt + dW_j, and the chosen scheme is advanced
    with it. Passing `record` instead replays a stored record: the dY_j come
    from it verbatim and the innovation dW_j = dY_j - 2 Re<L_j> dt is
    recovered per step for bookkeeping. States, requested expectations and
    both log series are stored every `record_stride` steps (plus the final
    step); the result keeps its step norms, record and innovations (`noise`).
    """
    c = model.n_channels
    if record is not None:
        if noise is not None:
            raise ValueError("pass either noise or record, not both")
        if record.increments.shape != (n_steps, c):
            raise BasisMismatchError("supplied record shape does not match the run")
        if abs(record.dt - dt) > 1e-12 * max(dt, record.dt):
            raise ValueError("supplied record was generated for a different dt")
        table = record.increments
    else:
        if noise is None:
            noise = generate_noise(master_seed, trajectory_index, dt, n_steps, c)
        else:
            if noise.n_steps != n_steps or noise.n_channels != c:
                raise BasisMismatchError("supplied noise shape does not match the run")
            if abs(noise.dt - dt) > 1e-12 * max(dt, noise.dt):
                raise ValueError("supplied noise was generated for a different dt")
        table = noise.increments
    return _run_rows(model, initial, dt, n_steps, master_seed, trajectory_index, scheme,
                     table[None], replay=record is not None, observables=observables,
                     record_stride=record_stride)[0]


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


def _row_bytes(dim: int, n_snaps: int, n_steps: int, n_channels: int) -> int:
    """Bytes one trajectory holds in a batch: its state row, snapshots,
    noise table, record and step norms."""
    return 16 * dim * (n_snaps + 1) + 8 * n_steps * (2 * n_channels + 1)


def _batch_bounds(n_rows: int, dim: int, row_bytes: int,
                  n_workers: int = 1) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) row ranges within _STEP_ENTRIES amplitudes and
    _BATCH_BYTES each (and of at least one row); for several workers, equal
    ranges, a whole number per worker."""
    rows = min(max(1, min(_STEP_ENTRIES // dim, _BATCH_BYTES // row_bytes)), n_rows)
    if n_workers > 1:
        n_batches = -(-n_rows // rows)
        rows = -(-n_rows // (-(-n_batches // n_workers) * n_workers))
    return [(lo, min(lo + rows, n_rows)) for lo in range(0, n_rows, rows)]


def _noise_table(master_seed: int, lo: int, hi: int, dt: float, n_steps: int,
                 n_channels: int) -> np.ndarray:
    """(hi - lo, n_steps, n_channels) Wiener increments of trajectories
    lo .. hi - 1, each from its own stream."""
    return np.stack([generate_noise(master_seed, i, dt, n_steps, n_channels).increments
                     for i in range(lo, hi)])


_POOL_TASK = None


def _pool_init(fn) -> None:
    global _POOL_TASK
    _POOL_TASK = fn


def _pool_run(bounds: tuple[int, int]):
    return _POOL_TASK(*bounds)


def pool_map(fn: Callable[[int, int], object], bounds: list[tuple[int, int]], n_workers: int):
    """Generate fn(lo, hi) for each range in order: in this process for one
    worker, else from a pool of n_workers forked processes that lives until
    the generator ends or is closed. Workers inherit `fn`, which may be a
    closure, through the pool initializer, and with it any shared memory it
    holds, such as a result's arrays; only ranges and return values are
    pickled. Fork is pinned: under spawn or forkserver, workers would write
    into pickled copies and their rows would be lost without an error."""
    if n_workers <= 1:
        for lo, hi in bounds:
            yield fn(lo, hi)
        return
    with ProcessPoolExecutor(max_workers=n_workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_pool_init, initargs=(fn,)) as pool:
        yield from pool.map(_pool_run, bounds)


def run_ensemble(model: ModelSpec, initial: StateVector, dt: float, n_steps: int,
                 master_seed: int, n_trajectories: int, scheme: str = "nonlinear",
                 observables: dict[str, Operator] | None = None, record_stride: int = 1,
                 *, slim: bool = False) -> EnsembleResult:
    """Run trajectories `0 .. n_trajectories - 1` in contiguous batches, one
    per pool task when several workers resolve, each drawing its noise and
    writing its rows straight into one `EnsembleResult`'s shared arrays.
    It keeps the step norms and the record unless `slim`, never the
    innovations. Iterating it yields `TrajectoryResult` rows in order.

    The arrays are bit-identical for any worker count and batch size, since
    each trajectory owns a counter-keyed noise stream and every row
    reduction of the kernel is taken per row. A step failure names the
    lowest-index failing trajectory.
    """
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be at least 1")
    run = _prepare(model, initial, scheme, dt, n_steps, record_stride, observables, master_seed)
    return _drive(run, 0, n_trajectories, () if slim else ("step_norms", "record"), None, False,
                  stacklevel=2)


@dataclass
class DensityTrajectory:
    """Strided density-matrix history from the averaged equation."""

    basis: Basis
    dt: float
    store_stride: int
    times: np.ndarray
    matrices: np.ndarray  # (n_stored, dim, dim)
    # largest |weighted trace - 1| over the solver's steps; None when the
    # history was not produced by `solve_master`
    max_trace_drift: float | None = None

    def density(self, index: int) -> DensityMatrix:
        return DensityMatrix(self.basis, self.matrices[index])

    def index_of_time(self, t: float) -> int:
        return time_index(self.times, t)

    def density_at(self, t: float) -> DensityMatrix:
        return self.density(self.index_of_time(t))

    def trace_series(self) -> np.ndarray:
        return np.einsum("kii->k", self.matrices).real * self.basis.weight


def _banded_stage(generator: Operator, channels):
    """O(n^2) stage out = base + s * A(r) for a diagonal/tridiagonal K and
    diagonal L_j.

    A(r) = -(K r + r K^dag) + sum_j L_j r L_j^dag is coef * r with
    coef_ik = -(K_ii + conj(K_kk)) + sum_j l_ji conj(l_jk), minus the
    row-shifted off-diagonal bands of K r and the column-shifted conjugate
    bands of r K^dag. r is not assumed hermitian (stage matrices are not
    bitwise hermitian), so r K^dag is formed from r itself. The column bands
    are shifts by one entry of the row-major r, with n x n coefficients that
    are zero where the shift would wrap into the next row. Rows go in blocks
    of at most _STEP_ENTRIES entries, so one block's operands stay in cache;
    every operation is elementwise, so the block size never changes a bit.
    """
    lo, d, up = generator._bands
    n = d.size
    coef = -(d[:, None] + d.conj()[None, :])
    for ch in channels:
        coef += np.outer(ch._diag, ch._diag.conj())
    right = np.zeros((n, n), dtype=complex)  # r[i, k + 1] conj(K_k,k+1)
    right[:, :-1] = up.conj()
    left = np.zeros((n, n), dtype=complex)  # r[i, k - 1] conj(K_k-1,k)
    left[:, 1:] = lo.conj()
    coef, right, left = coef.ravel(), right.ravel(), left.ravel()
    lo_col, up_col = lo[:, None], up[:, None]
    rows = max(1, min(_STEP_ENTRIES // n, n))
    tmp = np.empty(rows * n, dtype=complex)
    last = n * n - 1

    def stage(out: np.ndarray, base: np.ndarray, s: float, src: np.ndarray) -> None:
        o, b, r = out.reshape(-1), base.reshape(-1), src.reshape(-1)
        for i0 in range(0, n, rows):
            i1 = min(i0 + rows, n)
            j0, j1 = i0 * n, i1 * n
            np.multiply(coef[j0:j1], r[j0:j1], out=o[j0:j1])
            e = min(i1, n - 1)  # K r, upper band: rows i < n - 1 read row i + 1
            t = tmp[:(e - i0) * n].reshape(-1, n)
            np.multiply(up_col[i0:e], src[i0 + 1:e + 1], out=t)
            np.subtract(out[i0:e], t, out=out[i0:e])
            a = max(i0, 1)  # K r, lower band: rows i > 0 read row i - 1
            t = tmp[:(i1 - a) * n].reshape(-1, n)
            np.multiply(lo_col[a - 1:i1 - 1], src[a - 1:i1 - 1], out=t)
            np.subtract(out[a:i1], t, out=out[a:i1])
            e = min(j1, last)  # r K^dag, both bands as flat shifts
            t = tmp[:e - j0]
            np.multiply(right[j0:e], r[j0 + 1:e + 1], out=t)
            np.subtract(o[j0:e], t, out=o[j0:e])
            a = max(j0, 1)
            t = tmp[:j1 - a]
            np.multiply(left[a:j1], r[a - 1:j1 - 1], out=t)
            np.subtract(o[a:j1], t, out=o[a:j1])
            np.multiply(o[j0:j1], s, out=o[j0:j1])
            np.add(b[j0:j1], o[j0:j1], out=o[j0:j1])

    return stage


def _dense_stage(generator: Operator, channels):
    """O(n^3) stage out = base + s * A(r) by dense matmuls, for any operator
    structure."""
    kmat = generator.matrix
    kdag = kmat.conj().T
    ls = [ch.matrix for ch in channels]
    lds = [m.conj().T for m in ls]
    tmp, tmp2 = np.empty_like(kmat), np.empty_like(kmat)

    def stage(out: np.ndarray, base: np.ndarray, s: float, src: np.ndarray) -> None:
        np.matmul(kmat, src, out=out)
        np.matmul(src, kdag, out=tmp)
        np.add(out, tmp, out=out)
        np.negative(out, out=out)
        for lmat, ldag in zip(ls, lds):
            np.matmul(lmat, src, out=tmp)
            np.matmul(tmp, ldag, out=tmp2)
            np.add(out, tmp2, out=out)
        np.multiply(out, s, out=out)
        np.add(base, out, out=out)

    return stage


def solve_master(model: ModelSpec, rho0: DensityMatrix, dt: float, n_steps: int,
                 store_stride: int = 1,
                 on_store: Callable[[float, np.ndarray], None] | None = None
                 ) -> DensityTrajectory:
    """Fixed-step RK4 for d(rho)/dt = A(rho) = -(K rho + rho K^dag) + sum_j L_j rho L_j^dag.

    A is linear and constant, so one classic RK4 step is the Horner nesting
      rho + h A(rho + h/2 A(rho + h/3 A(rho + h/4 A rho))),
    four calls of one stage out = base + s * A(src) that alternate between
    two preallocated buffers; no step allocates an n x n array. When the
    generator K is tagged diagonal or tridiagonal and every channel is tagged
    diagonal, each stage costs O(n^2) elementwise work and no matmul; any
    other structure keeps the dense O(n^3) matmul form. Both forms refuse
    dimensions above the dense cap. Every step checks the weighted trace, and
    the largest |trace - 1| seen is kept as `max_trace_drift`; a step that
    overflows fails that check with no numpy warning.

    `on_store(t, rho)`, when given, is called with each stored time and
    density matrix as soon as it is stored, so a caller can export the
    history while it is solved (`output.MasterExport`).
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
    stage = (_banded_stage if banded else _dense_stage)(model.generator, model.channels)

    stored_steps = _stored_steps(n_steps, store_stride)
    times = stored_steps * dt
    matrices = np.empty((stored_steps.size, model.dim, model.dim), dtype=complex)
    weight = model.basis.weight

    # C order, so every buffer's flat reshape is a view the stages write through
    rho = np.array(rho0.entries, dtype=complex, order="C")
    a, b = np.empty_like(rho), np.empty_like(rho)
    drift = 0.0
    matrices[0] = rho
    if on_store is not None:
        on_store(times[0], matrices[0])
    ptr = 1
    # an unstable step overflows to inf/nan; the trace check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            stage(a, rho, dt / 4.0, rho)
            stage(b, rho, dt / 3.0, a)
            stage(a, rho, dt / 2.0, b)
            stage(b, rho, dt, a)
            rho, b = b, rho
            tr = float(np.trace(rho).real) * weight
            if not np.isfinite(tr) or abs(tr - 1.0) > 1e-6:
                raise InstabilityError(
                    f"trace drifted to {tr!r} at step {k} (t = {(k + 1) * dt:.6g}); reduce dt"
                )
            drift = max(drift, abs(tr - 1.0))
            if stored_steps[ptr] == k + 1:
                matrices[ptr] = rho
                if on_store is not None:
                    on_store(times[ptr], matrices[ptr])
                ptr += 1
    return DensityTrajectory(model.basis, dt, store_stride, times, matrices, drift)


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
    import scipy.linalg  # scipy loads only on the calls that need it

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
