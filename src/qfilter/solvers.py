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
              stepped with the midpoint value of Y over each step (diagonal
              hermitian channels, diagonal or tridiagonal H only); the
              posterior is recovered by the log-safe reconstruction
              chi = exp(L.Y) psi.

One kernel advances every scheme: it holds B trajectories as a (B, dim)
array and makes each numpy call once per step for all of them, so the
Python overhead of a step is shared by the batch; the step operators are
built once per run. Each batch lies within one fold block of
`_block_rows(dim)` trajectories counted from the first, the one partition of
an ensemble, holds at most half of one, and writes straight into its rows of
one shared mapping.
`run_ensemble` puts trajectory i at row i, so the rows tile one
`EnsembleResult`, an array per quantity with a row per trajectory, and
`run_trajectory` is row 0 of a one-row run. `_ensemble_stream` puts it at
row i mod m of a ring of whole blocks and yields each finished block as a
view of its rows, so its reader holds a few blocks whatever the ensemble
size. Each trajectory keeps its own counter-keyed noise
stream, and every reduction over amplitudes is taken along the last axis row
by row (never a matrix product across the batch), so a trajectory carries
the same bits whatever batch it is advanced in. A batch is bounded in
entries (`_batch_bounds`), and the noise table it draws is its only
per-step array (a batch handed its caller's table allocates none): each
row carries its log sums and its first failure as it steps.

The kernel applies only band rows: `_prepare` refuses a model whose K or
any channel is tagged dense, under every scheme, before any noise is drawn
or any worker forked (`solve_master` and `solve_unitary` still take it);
observables, applied only at snapshots, may be dense. Between snapshots, a
step allocates no array the size of the batch. Each batch allocates its
buffers once (`_Workspace`), and every pass over them is contiguous:
  - the state, the next state and the gauge posterior live in flat padded
    buffers of B * dim + 2 entries whose (B, dim) rows start at offset 1,
    so a row's band neighbours are the contiguous (B, dim) views at
    offsets 2 and 0 (`linalg.padded_rows`), and so is the gauge exponent s
    with its differences s[k] - s[k - 1];
  - the step operators 1 - K dt and 1 - G dt are band rows aligned to
    their columns, built by `_prepare` from the rows of K and G with each
    entry computed as 1.0 - dt k or 0.0 - dt k, the bits of the bands of
    np.eye(n) - dt K; a batch repeats each row B times so a band product
    is one pass over arrays of one shape.
Operators keep the storage their `structure` tag names: a model whose H is
diagonal or tridiagonal and whose channels are diagonal stores H, the L_j,
K and G once each, as the rows `band_apply` reads (`Operator._rows`), so
the set-up of a run, like each of its steps, is O(dim) and forms no
dim x dim array.
The bits are those of the plain forms, strided band slices, promoted real
factors and a complex division, by three rules that hold byte for byte
(the linalg tests check them on the numpy at hand):
  - a band product reads across a row boundary in one column; that column
    is set to -0 - 0j before the contiguous add, and x + (-0 - 0j) is x for
    every x, signed zeros included (`linalg.band_apply`);
  - a real factor, exp(s - m), exp(+-ds) or dY, is written into the real
    part of a complex buffer whose imaginary part stays +0.0, which is the
    operand numpy's promotion of a real array builds;
  - division by a row norm nn is multiplication by (1/nn, -0.0); with +0.0
    in the imaginary part the bits would differ.
Every band product is one contiguous pass over at least two entries, so a
row gets the same bits in a batch of any size; numpy runs a one-entry
strided product, as a one-row two-level batch would make, in another loop
with other bits.

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
The stage is chosen once per solve from the `Operator.structure` tags: on a
banded model (`ModelSpec._banded`: grid models under position observation,
and the qubit under a sigma_z channel), it is one elementwise product with a
precomputed coefficient matrix, its one n x n array, plus the four shifted
band terms of K, O(n^2) and taken in cache-sized row blocks; any other
keeps the dense O(n^3) form. With two workers (`resolve_workers`), a banded
solve whose halves each hold a row block (n * n >= 2 * _STEP_ENTRIES, so
n >= 182) splits every stage between two processes: rho and the two stage
buffers live in one anonymous shared mapping, and one forked stage worker
(`_Child`) computes rows [n // 2, n) of each stage while the solving
process computes rows [0, n // 2). The stage is elementwise, so the split
changes no bit; the trace check, the stored matrices and every error stay
in the solving process.
`solve_unitary` covers the lambda = 0 limit: dense exponentiation on finite
bases, Crank-Nicolson on grids, whose tridiagonal system is factored once
per call and solved by two sweeps per step.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import pickle
import signal
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace

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
    _STEP_ENTRIES,
    _block_rows,
    band_apply,
    matrix_exp,
    padded_rows,
)
from .models import ModelSpec
from .noise import MeasurementRecord, NoisePath, _noise_table, generate_noise

SCHEMES = ("nonlinear", "linear", "gauge")

_BOUNDARY_WARN = 1e-6

# entries of the noise table a batch draws, n_channels * (n_steps + 1) per
# row: its only per-step array, which traces to 8 bytes per entry
# (`scripts/kernel_bench.py`), 8.4 MB at this bound; a batch handed its
# caller's table allocates none
_SERIES_ENTRIES = 1 << 20

# the checks a step makes, in the order it makes them
_RECONSTRUCTION, _AMPLITUDE, _STATE = range(3)


def _time_hits(times: np.ndarray, t: float) -> np.ndarray:
    """Indices of the entries of `times` within 1e-9 + 1e-12 |t| of `t`."""
    return np.nonzero(np.isclose(times, t, rtol=0.0, atol=1e-9 + 1e-12 * abs(t)))[0]


def time_index(times: np.ndarray, t: float) -> int:
    """Index of the first stored time within 1e-9 + 1e-12 |t| of `t`."""
    hits = _time_hits(times, t)
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


class _Workspace:
    """Every array a step of b rows of n amplitudes and c channels writes,
    allocated once per batch, with the views the step reads them through;
    see the module docstring for the layout."""

    def __init__(self, b: int, n: int, c: int):
        m = b * n
        # the rows band products read: the state, the next state, the gauge
        # posterior, each as padded (before, rows, after) views
        self.phi, self.new, self.post = (padded_rows(b, n) for _ in range(3))
        self.lposts = [np.empty((b, n), dtype=complex) for _ in range(c)]
        self.tmp = np.empty((b, n), dtype=complex)
        self.tilt = np.empty((b, n), dtype=complex)
        # a real factor as numpy's promotion builds it, (x, +0.0): only the
        # real part is ever written. Its m + 1 entries hold exp(+-diff) for
        # the gauge bands, read from offset 1 by the upper band and from 0 by
        # the lower band and the reconstruction
        self.factor = np.zeros(m + 1, dtype=complex)
        self.factor_re = self.factor.real
        self.factor_up = self.factor[1:].reshape(b, n)
        self.factor_lo = self.factor[:-1].reshape(b, n)
        self.dy = np.zeros((b, c), dtype=complex)
        self.dy_re = self.dy.real
        self.dy_cols = [self.dy[:, j, None] for j in range(c)]
        # 1 / norm as (1/nn, -0.0): times it, a row has the bits of row / nn
        self.inv = np.full((b, 1), complex(0.0, -0.0))
        self.inv_re = self.inv.real[:, 0]
        # the gauge exponent padded by one entry each side, so that its
        # row-major differences diff[k] = s[k] - s[k - 1] are one pass
        s_flat = np.zeros(m + 2)
        self.s = s_flat[1:-1].reshape(b, n)
        self.s_after, self.s_before = s_flat[1:], s_flat[:-1]
        self.diff = np.empty(m + 1)
        self.diff_rows = self.diff[:-1].reshape(b, n)
        self.exp = np.zeros(m + 1)
        self.exp_rows = self.exp[:-1].reshape(b, n)
        self.sq = np.empty((b, 2 * n))
        self.sums = np.empty(b)
        self.peak = np.empty(b)


def _re_rowdot(a: np.ndarray, b: np.ndarray, sq: np.ndarray | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Re <a|b> of each row pair of C-contiguous complex rows; `sq` and
    `out`, when given, receive the products and the sums."""
    return np.add.reduce(np.multiply(a.view(float), b.view(float), out=sq), axis=-1, out=out)


def _row_norms(weight: float, vec: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Weighted norm of each C-contiguous complex row, in `ws.sums`."""
    sums = np.add.reduce(np.square(vec.view(float), out=ws.sq), axis=-1, out=ws.sums)
    return np.sqrt(np.multiply(weight, sums, out=sums), out=sums)


def _normalize(vec: np.ndarray, nn: np.ndarray, ws: _Workspace) -> None:
    """Divide each row of `vec` by its entry of `nn` in place, as a product
    with (1/nn, -0.0), which has the bits of the complex division."""
    np.divide(1.0, nn, out=ws.inv_re)
    np.multiply(vec, ws.inv, out=vec)


def _exponent(y: np.ndarray, ldiag: np.ndarray, ws: _Workspace) -> np.ndarray:
    """sum_j y_j l_j per row, the exponent of exp(L.Y) for diagonal
    channels, in `ws.s`."""
    np.multiply(y[:, 0, None], ldiag[0], out=ws.s)
    for j in range(1, ldiag.shape[0]):
        np.multiply(y[:, j, None], ldiag[j], out=ws.diff_rows)
        np.add(ws.s, ws.diff_rows, out=ws.s)
    return ws.s


def _tiled(op, b: int):
    """Band rows (`Operator._rows`) repeated for b rows, so each band
    product is one pass over operands of one shape (a product with an (n,)
    row broadcast over (b, n) runs as b short passes); None as it is."""
    if op is None:
        return op
    return tuple(None if band is None else np.tile(band, (b, 1)) for band in op)


def _record_update(src, euler, lposts, ws: _Workspace) -> np.ndarray:
    """One-step record-driven map (1 - K dt) chi + sum_j dY_j L_j chi of the
    rows of `src` into `ws.new`, with `euler` = 1 - K dt, the L_j chi in
    `lposts` and the dY in `ws.dy`."""
    out = band_apply(euler, src, ws.new[1], ws.tmp)
    for dy, lchi in zip(ws.dy_cols, lposts):
        np.multiply(dy, lchi, out=ws.tmp)
        np.add(out, ws.tmp, out=out)
    return out


def _gauge_apply(op, ws: _Workspace) -> np.ndarray:
    """exp(-s) op exp(s) applied to the state rows `ws.phi`, into
    `ws.new`, using only differences of the exponent s in `ws.s`.

    A tridiagonal op's bands are tilted per row, up * exp(ds) and
    lo * exp(-ds) with ds = s[i + 1] - s[i], and applied by `band_apply`."""
    out = ws.new[1]
    d, up, lo = op
    if up is None:
        return np.multiply(d, ws.phi[1], out=out)
    # the entries of diff that span two rows or a pad meet only the columns
    # band_apply discards
    np.subtract(ws.s_after, ws.s_before, out=ws.diff)
    np.exp(ws.diff, out=ws.exp)
    np.copyto(ws.factor_re, ws.exp)
    np.multiply(up, ws.factor_up, out=ws.tmp)
    np.negative(ws.diff, out=ws.diff)
    np.exp(ws.diff, out=ws.exp)
    np.copyto(ws.factor_re, ws.exp)
    np.multiply(lo, ws.factor_lo, out=ws.tilt)
    return band_apply((d, ws.tmp, ws.tilt), ws.phi, out, ws.tmp)


def _reconstruct_raw(psi_unit: np.ndarray, ldiag: np.ndarray, y: np.ndarray, weight: float,
                     ws: _Workspace):
    """Normalized exp(L.Y) psi and ln of its norm for each of the (b, n)
    rows `psi_unit`, overflow-safe; the posterior is written into
    `ws.post`.

    A row whose scaled norm is zero or not finite is degenerate, and its
    ln c is then not finite.
    """
    s = _exponent(y, ldiag, ws)
    np.maximum.reduce(s, axis=-1, out=ws.peak)
    np.subtract(s, ws.peak[:, None], out=ws.diff_rows)
    np.exp(ws.diff_rows, out=ws.exp_rows)
    np.copyto(ws.factor_re, ws.exp)
    scaled = np.multiply(ws.factor_lo, psi_unit, out=ws.post[1])
    nn = _row_norms(weight, scaled, ws)
    ln = np.log(nn) + ws.peak
    _normalize(scaled, nn, ws)
    return scaled, ln


def _run_batch(run: dict, out: EnsembleResult, lo: int, hi: int, table: np.ndarray,
               replay: bool) -> np.ndarray:
    """Advance rows `lo .. hi - 1` of `out`, one per row of `table`, through
    every step, writing them in place; per row 3 * step + check of its first
    failed check, or -1 if none.

    `table` is (hi - lo, n_steps, n_channels): each row's Wiener increments
    dW, or with `replay` the record increments dY it replays. `run` is what
    `_prepare` built for the whole run; every row starts from its normalized
    amplitudes `phi0`. A step forms its dY in `ws.dy`, and writes it (or on
    replay the recovered dW) and its norm into `out` only when `out` keeps
    that series.

    The noise table is the batch's only per-step array. Each row carries the
    running sum of the logs of its pre-renormalization norms and, for the
    gauge scheme, of its amplitude growth, each added in step order from
    0.0, and the code of its first failure: the first step and check whose
    value is not finite, checked in the order reconstruction ln c, amplitude
    growth, state norm. A row that fails goes on with non-finite values; its
    code is the check a one-trajectory run stops at.
    """
    model, observables, snapshot_steps = run["model"], run["observables"], run["snapshot_steps"]
    b, n_steps, c = table.shape
    euler, gauge_euler = _tiled(run["euler"], b), _tiled(run["gauge_euler"], b)
    channels = [_tiled(ch, b) for ch in run["channels"]]
    w = model.basis.weight
    ws = _Workspace(b, model.dim, c)
    gauge_mode = gauge_euler is not None
    if gauge_mode:
        ldiag = model.channel_diagonals
        log_growth = np.zeros(b)
        y = np.zeros((b, c))

    snap_of_step = {int(s): i for i, s in enumerate(snapshot_steps)}
    step_norms = None if out.step_norms is None else out.step_norms[lo:hi]
    given, formed = (out.record, out.innovations) if replay else (out.innovations, out.record)
    if given is not None:
        given[lo:hi] = table
    formed = None if formed is None else formed[lo:hi]
    dy = ws.dy_re
    drift = np.empty((b, c))
    two_w_dt = 2.0 * w * run["dt"]
    ws.phi[1][...] = run["phi0"]
    # nonlinear: sum ln prenorm; linear: ln ||chi||; gauge: scale offset
    log_norm, logs = np.zeros(b), np.empty(b)
    failure = np.full(b, -1, dtype=np.int64)

    def flag(values: np.ndarray, step: int, check: int) -> None:
        if not np.isfinite(values).all():
            failure[(failure < 0) & ~np.isfinite(values)] = 3 * step + check

    def add_log(total: np.ndarray, values: np.ndarray, step: int, check: int) -> None:
        flag(np.log(values, out=logs), step, check)
        np.add(total, logs, out=total)

    def posterior(step: int):
        """The posterior rows at `step` and, for the gauge scheme, the ln c
        of their reconstruction."""
        if not gauge_mode:
            return ws.phi, None
        _, ln_c = _reconstruct_raw(ws.phi[1], ldiag, y, w, ws)
        flag(ln_c, step, _RECONSTRUCTION)
        return ws.post, ln_c

    def store(step: int, post: np.ndarray, ln_c: np.ndarray | None) -> None:
        i = snap_of_step[step]
        out.states[lo:hi, i] = post
        for name, op in observables.items():
            out.expectations[name][lo:hi, i] = w * _rowdot(post, op.apply(post))
        if ln_c is None:
            out.log_norm[lo:hi, i] = out.log_amplitude[lo:hi, i] = log_norm
        else:
            out.log_norm[lo:hi, i] = log_norm + ln_c
            out.log_amplitude[lo:hi, i] = log_growth

    # a non-finite value ends in StepFailureError after the run, so numpy's
    # overflow and invalid-value warnings would only repeat that failure
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n_steps):
            post, ln_c = posterior(k)
            lposts = [band_apply(ch, post, lp, ws.tmp) for ch, lp in zip(channels, ws.lposts)]
            if k in snap_of_step:
                store(k, post[1], ln_c)
            for j, lp in enumerate(lposts):
                np.multiply(two_w_dt, _re_rowdot(post[1], lp, ws.sq, ws.sums), out=drift[:, j])
            if replay:
                np.copyto(dy, table[:, k])
                if formed is not None:
                    np.subtract(dy, drift, out=formed[:, k])
            else:
                np.add(drift, table[:, k], out=dy)
                if formed is not None:
                    np.copyto(formed[:, k], dy)

            updated = _record_update(post, euler, lposts, ws)
            if gauge_mode:
                # amplitude growth of the record-driven map at the posterior,
                # accumulated for the cross-form identity exp(ln c) = ||chi||
                add_log(log_growth, _row_norms(w, updated, ws), k, _AMPLITUDE)
                _exponent(y + 0.5 * dy, ldiag, ws)
                updated = _gauge_apply(gauge_euler, ws)
                y += dy
            nn = _row_norms(w, updated, ws)
            if step_norms is not None:
                step_norms[:, k] = nn
            add_log(log_norm, nn, k, _STATE)
            _normalize(updated, nn, ws)
            ws.phi, ws.new = ws.new, ws.phi
        post, ln_c = posterior(n_steps)
        store(n_steps, post[1], ln_c)
    return failure


def _report(batch: EnsembleResult, failure: np.ndarray, stacklevel: int) -> None:
    """Warn and raise for the trajectories of `batch`, one per entry of
    their `failure` codes, as a serial run would: on a grid, a boundary
    warning for each trajectory before the first failed one whose snapshots
    reach an edge amplitude above _BOUNDARY_WARN, then a StepFailureError
    naming that failed trajectory, its step and its scheme."""
    failed = np.flatnonzero(failure >= 0)
    stop = failed[0] if failed.size else failure.size
    if batch.model.basis.grid is not None:
        edges = np.abs(batch.states[:stop][..., [0, -1]]).max(axis=(1, 2))
        for edge in edges[edges > _BOUNDARY_WARN]:
            warnings.warn(f"boundary amplitude reached {edge:.2e}; widen the grid",
                          RuntimeWarning, stacklevel=stacklevel + 1)
    if not failed.size:
        return
    index = batch.first_index + int(stop)
    step, check = divmod(int(failure[stop]), 3)
    if check == _RECONSTRUCTION:
        what = f"gauge reconstruction at step {step} of trajectory {index} produced a " \
               "degenerate state"
    elif check == _AMPLITUDE:
        what = f"gauge step {step} of trajectory {index} produced a degenerate amplitude"
    else:
        what = f"{batch.scheme} step {step} of trajectory {index} produced a non-finite state"
    raise StepFailureError(what, step_index=step, scheme=batch.scheme, trajectory_index=index)


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

    def _rows(self, lo: int, hi: int, first_index: int) -> EnsembleResult:
        """Rows `lo .. hi - 1` as trajectories `first_index ..`, views of
        these arrays."""
        cut = {f: None if getattr(self, f) is None else getattr(self, f)[lo:hi]
               for f in ("states", "log_amplitude", "log_norm", "step_norms", "record",
                         "innovations")}
        return replace(self, first_index=first_index,
                       expectations={k: v[lo:hi] for k, v in self.expectations.items()}, **cut)


def _stored_steps(n_steps: int, stride: int) -> np.ndarray:
    """Steps 0, stride, 2*stride, .. of a run, and the last step n_steps,
    as int64 (no set routine: `np.union1d` imports numpy.ma)."""
    steps = np.arange(0, n_steps + 1, stride, dtype=np.int64)
    return steps if steps[-1] == n_steps else np.append(steps, np.int64(n_steps))


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
    if scheme == "gauge":
        if model.channel_diagonals is None:
            raise UnsupportedConfigurationError("gauge scheme needs diagonal hermitian channels")
        if not model._banded:
            raise UnsupportedConfigurationError(
                "gauge scheme needs a diagonal or tridiagonal hamiltonian")
    if "dense" in (model.generator.structure, *(ch.structure for ch in model.channels)):
        raise UnsupportedConfigurationError(
            "trajectories need a diagonal or tridiagonal K and channels")
    snapshot_steps = _stored_steps(n_steps, record_stride)
    return {"model": model, "initial": initial, "scheme": scheme, "dt": dt, "n_steps": n_steps,
            "record_stride": record_stride, "master_seed": master_seed,
            "snapshot_steps": snapshot_steps, "times": snapshot_steps * dt,
            "observables": observables,
            "phi0": (initial.amplitudes / initial.norm()).astype(complex),
            "euler": _step_operator(model, dt),
            "gauge_euler": _step_operator(model, dt, gauge=True) if scheme == "gauge" else None,
            "channels": [ch._rows for ch in model.channels]}


def _step_operator(model: ModelSpec, dt: float, gauge: bool = False):
    """1 - dt K, or with `gauge` 1 - dt G with G = K + sum_j L_j^2 / 2
    (`ModelSpec.gauge_core`), as band rows laid out as the operator's
    `_rows`; `_prepare` has refused a dense K.

    The band rows carry the bits of the bands of the dense forms
    np.eye(n) - dt * K and np.eye(n) - dt * G: each entry is 1.0 - dt * k or
    0.0 - dt * k in the same complex arithmetic, and the +0 padding stays +0.
    """
    core = model.gauge_core if gauge else model.generator
    d, up, lo = core._rows
    return (1.0 - dt * d, *(None if row is None else 0.0 - dt * row for row in (up, lo)))


def _shared(nbytes: int) -> np.ndarray:
    """`nbytes` zero bytes in an anonymous shared mapping, which the
    processes forked after it read and write in place."""
    import mmap  # loads only in runs that fork or advance trajectories

    return np.frombuffer(mmap.mmap(-1, nbytes), np.uint8)


def _allocate(run: dict, first_index: int, n_rows: int, keep: tuple[str, ...]) -> EnsembleResult:
    """An EnsembleResult of `n_rows` unfilled rows with the per-step arrays
    in `keep`, all in one anonymous shared mapping, so pool workers forked
    after it write their rows straight into them."""
    snaps, steps = (n_rows, run["snapshot_steps"].size), (n_rows, run["n_steps"])
    record = steps + (run["model"].n_channels,)
    per_step = {"step_norms": steps, "record": record, "innovations": record}
    fields = {"states": (snaps + (run["model"].dim,), complex), "log_amplitude": (snaps, float),
              "log_norm": (snaps, float), **{f: (per_step[f], float) for f in keep}}
    specs = [*fields.values()] + [(snaps, complex)] * len(run["observables"])
    nbytes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
    parts = np.split(_shared(sum(nbytes)), np.cumsum(nbytes)[:-1])
    arrays = [part.view(dtype).reshape(shape) for part, (shape, dtype) in zip(parts, specs)]
    meta = ("scheme", "dt", "n_steps", "record_stride", "master_seed", "snapshot_steps", "times",
            "model", "initial")
    return EnsembleResult(
        **{k: run[k] for k in meta}, first_index=first_index,
        expectations=dict(zip(run["observables"], arrays[len(fields):])),
        **({f: None for f in per_step} | dict(zip(fields, arrays))))


def _drive(run: dict, first_index: int, n_rows: int, keep: tuple[str, ...],
           table: np.ndarray | None, replay: bool, stacklevel: int, ring: bool = False):
    """Generate trajectories `first_index ..`, `n_rows` of them, of the run
    `_prepare` built: each batch's warnings and failure (`_report`) in index
    order, and once a fold block (`_block_rows`) is complete, an
    `EnsembleResult` view of it whose `first_index` is its first trajectory.

    The batches are contiguous ranges within one block each, one per pool
    task when several workers resolve; each advances its rows of `table` (or
    noise it draws) straight into one shared mapping, where trajectory
    first_index + i sits at row i mod m. Without `ring`, m is n_rows and the
    generator returns the result (`_collect`). With `ring`, m is the fewest
    whole blocks (at most n_rows) that hold the block being read and the
    batches `pool_map` keeps in flight past it, which also hold a block
    still filling, as its next batch ends within it: two blocks with two
    workers, whose half-block batches in flight fill one. A view's rows are
    overwritten once the next block is asked for."""
    if n_rows < 1:
        raise ValueError("n_trajectories must be at least 1")
    model = run["model"]
    n_workers = resolve_workers(None, n_rows)
    bounds = _batch_bounds(n_rows, model.dim, run["n_steps"], model.n_channels, n_workers,
                           drawn=table is None)
    block = _block_rows(model.dim)
    m = n_rows
    if ring:
        ahead = n_workers * bounds[0][1] if n_workers > 1 else 0
        m = min(-(-(block + ahead) // block) * block, n_rows)
    out = _allocate(run, first_index, m, keep)

    def rows(lo: int, hi: int) -> EnsembleResult:
        return out._rows(lo % m, lo % m + hi - lo, first_index + lo)

    def batch(lo: int, hi: int) -> np.ndarray:
        noise = table[lo:hi] if table is not None else _noise_table(
            run["master_seed"], first_index + lo, first_index + hi, run["dt"], run["n_steps"],
            model.n_channels)
        return _run_batch(run, out, lo % m, lo % m + hi - lo, noise, replay)

    for (lo, hi), failure in zip(bounds, pool_map(batch, bounds, n_workers)):
        _report(rows(lo, hi), failure, stacklevel + 1)
        if hi % block == 0 or hi == n_rows:
            yield rows(lo - lo % block, hi)
    return out


def _collect(batches) -> EnsembleResult:
    """Run a `_drive` generator to its end; the result it returns."""
    while True:
        try:
            next(batches)
        except StopIteration as end:
            return end.value


def _run_rows(model: ModelSpec, initial: StateVector, dt: float, n_steps: int,
              master_seed: int, first_index: int, scheme: str, table: np.ndarray, *,
              replay: bool = False, observables: dict[str, Operator] | None = None,
              record_stride: int = 1, keep: tuple[str, ...] = ()) -> EnsembleResult:
    """Trajectories `first_index ..`, one per row of the (N, n_steps,
    n_channels) `table` of Wiener increments, or with `replay` of record
    increments to replay, which pool workers inherit, run by `_drive`. The
    result keeps only the per-step arrays named in `keep` ("step_norms",
    "record", "innovations")."""
    run = _prepare(model, initial, scheme, dt, n_steps, record_stride, observables, master_seed)
    return _collect(_drive(run, first_index, len(table), keep, table, replay, stacklevel=4))


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
    run = _prepare(model, initial, scheme, dt, n_steps, record_stride, observables, master_seed)
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
    return _collect(_drive(run, trajectory_index, 1, ("step_norms", "record", "innovations"),
                           table[None], record is not None, stacklevel=3))[0]


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, else the cpu count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def resolve_workers(requested: int | None, n_tasks: int) -> int:
    """Worker count capped by the CPUs this process may run on (`_cpus`),
    QFILTER_THREADS, and the task count."""
    cap = _cpus()
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


def _batch_bounds(n_rows: int, dim: int, n_steps: int, n_channels: int,
                  n_workers: int = 1, *, drawn: bool = True) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) row ranges that tile [0, n_rows), each within one
    fold block (`_block_rows`): ranges of at most half a block (so the
    batches two workers keep in flight past a block fill one block, and
    `_drive`'s ring holds two) and, for batches that draw their noise
    (`drawn`), _SERIES_ENTRIES entries in a noise table of
    n_channels * (n_steps + 1) per row (and of at least one row), for
    several workers equal ranges, a whole number per worker, each cut where
    it crosses the edge of a block."""
    block = _block_rows(dim)
    rows = max(1, block // 2)
    if drawn:
        rows = min(rows, _SERIES_ENTRIES // (n_channels * (n_steps + 1)))
    rows = min(max(1, rows), n_rows)
    if n_workers > 1:
        n_batches = -(-n_rows // rows)
        rows = -(-n_rows // (-(-n_batches // n_workers) * n_workers))
    cuts = sorted({*range(0, n_rows, rows), *range(0, n_rows, block)})
    return list(zip(cuts, cuts[1:] + [n_rows]))


# this process's ends of the pipes to its live children (`_Child`); each
# child closes them, so that a pipe reads EOF once its own two processes
# have closed it, whatever sibling was forked after it
_PARENT_ENDS: set[int] = set()


def _flush_std() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except Exception:
            pass


class _Child:
    """A forked process that runs `body(reader, writer)` and exits, where
    `reader` and `writer` are buffered binary files over its ends of two
    pipes to this process, one each way; `reader` and `writer` here are this
    process's ends. A message is a pickle (`pickle.dump`, then `flush`),
    read back with `pickle.load`. `body` inherits by fork whatever it refers
    to, closures and shared mappings included. The child closes every pipe
    end it does not own, its siblings' ends included, so it reads EOF once
    this process has closed its end or died. This process's files do not
    own their fds (`closefd=False`), so the copies a later sibling inherits
    can close no pipe; `end` closes the files and then the fds. The child
    exits with code 0 once `body` returns, else 1, without unwinding this
    process's stack or running its exit handlers. `name` names it in
    errors."""

    def __init__(self, body: Callable[[io.BufferedReader, io.BufferedWriter], None], name: str):
        self.name, self.code = name, None
        _flush_std()  # or the child would write what this process buffered
        down, up = os.pipe(), os.pipe()  # (read, write) ends: to the child, from it
        try:
            pid = os.fork()
        except OSError:
            for fd in (*down, *up):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                for fd in (down[1], up[0], *_PARENT_ENDS):
                    os.close(fd)
                _PARENT_ENDS.clear()
                with open(down[0], "rb") as reader, open(up[1], "wb") as writer:
                    body(reader, writer)
                code = 0
            finally:
                _flush_std()
                os._exit(code)
        os.close(down[0])
        os.close(up[1])
        self.pid = pid
        self.reader = open(up[0], "rb", closefd=False)
        self.writer = open(down[1], "wb", closefd=False)
        _PARENT_ENDS.update((up[0], down[1]))

    def send(self, value) -> None:
        """Send `value` to the child as one pickle."""
        pickle.dump(value, self.writer)
        self.writer.flush()

    def result(self):
        """The next value the child replied (`_reply`), or raise the
        exception it replied; OSError naming its exit code if it ended
        before or while replying."""
        try:
            ok, value = pickle.load(self.reader)
        except (EOFError, pickle.UnpicklingError):
            raise OSError(f"{self.name} exited with code {self.wait()}") from None
        if not ok:
            raise value
        return value

    def wait(self) -> int:
        """Reap the child; its exit code, negative for a signal."""
        if self.code is None:
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.code

    def end(self, kill: bool = False) -> None:
        """Close this process's pipe ends, which the child reads as EOF, after
        killing it if `kill`; then reap it."""
        if self.reader is None:
            return
        if kill and self.code is None:
            os.kill(self.pid, signal.SIGKILL)
        for file in (self.reader, self.writer):
            fd = file.fileno()
            with contextlib.suppress(OSError):  # what a dead child left unread
                file.close()
            os.close(fd)
            _PARENT_ENDS.discard(fd)
        self.reader = self.writer = None
        self.wait()


def _reply(writer: io.BufferedWriter, call: Callable[[], object]) -> None:
    """Send, as one pickle, the value of call() or the exception it raised;
    an exception that does not survive pickling goes as an OSError naming
    its type. The pickle is made whole before any of it is sent."""
    try:
        data = pickle.dumps((True, call()))
    except Exception as exc:
        try:
            data = pickle.dumps((False, exc))
            pickle.loads(data)
        except Exception:
            data = pickle.dumps((False, OSError(
                f"unpicklable {type(exc).__module__}.{type(exc).__qualname__}: {exc}")))
    writer.write(data)
    writer.flush()


def _serve(reader: io.BufferedReader, writer: io.BufferedWriter,
           fn: Callable[[int, int], object]) -> None:
    """Body of a pool worker or a master stage worker: reply fn(i, j) to
    each pickled pair (i, j), a (lo, hi) range or a (step, stage), in the
    order received, until EOF."""
    while True:
        try:
            i, j = pickle.load(reader)
        except EOFError:
            return
        _reply(writer, lambda: fn(i, j))


def pool_map(fn: Callable[[int, int], object], bounds: list[tuple[int, int]], n_workers: int):
    """Generate fn(lo, hi) for each range in order: in this process for one
    worker, else from n = min(n_workers, len(bounds)) forked workers
    (`_Child`) that live until the generator ends or is closed. Range k goes
    to worker k mod n as a pickled (lo, hi), and its value comes back
    pickled, or the exception fn raised, which is raised here in its place.
    Workers inherit `fn`, which may be a closure, by fork, and with it any
    shared memory it holds, such as a result's arrays; only ranges and
    values are pickled. A worker that ends without replying, or part way
    through a reply, raises OSError naming its exit code. Once the generator
    ends, its workers read EOF and exit; if it raises or is closed early,
    they are killed. Either way each is reaped. Only `os.fork` and
    `os.pipe` are used: no process loads `multiprocessing` or
    `concurrent.futures`.

    At most n_workers + 1 ranges are in flight: range k + n + 1 is sent only
    once the caller has taken value k and asked for the next, so while the
    caller holds value k, ranges k + 1 .. k + n run, and none with one
    worker (`_drive`'s ring)."""
    if n_workers <= 1:
        for lo, hi in bounds:
            yield fn(lo, hi)
        return
    workers: list[_Child] = []
    done = False
    try:
        for _ in range(min(n_workers, len(bounds))):
            workers.append(_Child(lambda reader, writer: _serve(reader, writer, fn),
                                  "pool worker"))
        n = len(workers)
        for k, (lo, hi) in enumerate(bounds):
            if k > n:
                yield workers[(k - n - 1) % n].result()
            with contextlib.suppress(BrokenPipeError):  # a dead worker fails at its value
                workers[k % n].send((lo, hi))
        for k in range(max(0, len(bounds) - n - 1), len(bounds)):
            yield workers[k % n].result()
        done = True
    finally:
        for worker in workers:
            worker.end(kill=not done)


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
    run = _prepare(model, initial, scheme, dt, n_steps, record_stride, observables, master_seed)
    return _collect(_drive(run, 0, n_trajectories, () if slim else ("step_norms", "record"), None,
                           False, stacklevel=3))


def _ensemble_stream(model: ModelSpec, initial: StateVector, dt: float, n_steps: int,
                     master_seed: int, n_trajectories: int, scheme: str = "nonlinear",
                     observables: dict[str, Operator] | None = None, record_stride: int = 1):
    """The trajectories of `run_ensemble(..., slim=True)`, generated as one
    `EnsembleResult` view per fold block (`_block_rows`), whose
    `first_index` is the block's first trajectory, in index order, with the
    same bits, warnings and failure. The rows cycle through a ring of whole
    blocks of one shared mapping (`_drive`), so a view holds its rows only
    until the next block is asked for, and memory stays at a few blocks
    whatever n_trajectories is. `_prepare` checks the run when the stream
    is made; the trajectories advance as it is read."""
    run = _prepare(model, initial, scheme, dt, n_steps, record_stride, observables, master_seed)
    return _drive(run, 0, n_trajectories, (), None, False, stacklevel=1, ring=True)


@dataclass
class DensityTrajectory:
    """Strided density-matrix history from the averaged equation.

    `matrices` is (n_stored, dim, dim), or None when `solve_master` handed
    each stored matrix to its `on_store` hook instead of keeping it; `times`
    and `max_trace_drift` are kept either way. `density`, `density_at` and
    `trace_series` read the matrices."""

    basis: Basis
    dt: float
    store_stride: int
    times: np.ndarray
    matrices: np.ndarray | None
    # largest |weighted trace - 1| over the solver's steps; None when the
    # history was not produced by `solve_master`
    max_trace_drift: float | None = None

    def _history(self) -> np.ndarray:
        if self.matrices is None:
            raise ValueError("density history was not kept; solve_master handed each "
                             "stored matrix to its on_store hook")
        return self.matrices

    def density(self, index: int) -> DensityMatrix:
        return DensityMatrix(self.basis, self._history()[index])

    def index_of_time(self, t: float) -> int:
        return time_index(self.times, t)

    def density_at(self, t: float) -> DensityMatrix:
        return self.density(self.index_of_time(t))

    def trace_series(self) -> np.ndarray:
        return np.einsum("kii->k", self._history()).real * self.basis.weight


def _banded_stage(generator: Operator, channels):
    """O(n^2) stage out = base + s * A(r) for a diagonal/tridiagonal K and
    diagonal L_j, written to rows [start, stop) of out (all rows by
    default).

    A(r) = -(K r + r K^dag) + sum_j L_j r L_j^dag is coef * r with
    coef_ik = -(K_ii + conj(K_kk)) + sum_j l_ji conj(l_jk), minus the
    row-shifted off-diagonal bands of K r and the column-shifted conjugate
    bands of r K^dag. r is not assumed hermitian (stage matrices are not
    bitwise hermitian), so r K^dag is formed from r itself. The column bands
    are shifts by one entry of the row-major r, with coefficients that are
    zero where the shift would wrap into the next row, held for one row
    block, as they repeat every row; `coef` is the only n x n array. Rows go
    in blocks of at most _STEP_ENTRIES entries, so one block's operands stay
    in cache; every operation is elementwise, so neither the block size nor
    the row range changes a bit. `coef` is built in place, each channel's outer product
    one row block at a time, so building the stage peaks at what it holds.
    A diagonal K's off-band rows are zeros here.
    """
    d, up, lo = generator._rows
    n = d.size
    if up is None:
        up = lo = np.zeros(n, dtype=complex)
    rows = min(_block_rows(n), n)
    tmp = np.empty(rows * n, dtype=complex)
    coef = np.add.outer(d, d.conj())
    np.negative(coef, out=coef)
    for ch in channels:
        ld, ldc = ch._rows[0], ch._rows[0].conj()
        for i0 in range(0, n, rows):
            t = tmp[:(min(i0 + rows, n) - i0) * n].reshape(-1, n)
            np.multiply(ld[i0:i0 + rows, None], ldc, out=t)
            coef[i0:i0 + rows] += t
    coef = coef.ravel()
    right = np.zeros((rows, n), dtype=complex)  # r[i, k + 1] conj(K_k,k+1)
    right[:, :-1] = up[:-1].conj()
    left = np.zeros((rows, n), dtype=complex)  # r[i, k - 1] conj(K_k,k-1)
    left[:, 1:] = lo[1:].conj()
    right, left = right.ravel(), left.ravel()
    lo_col, up_col = lo[:, None], up[:, None]
    last = n * n - 1

    def stage(out: np.ndarray, base: np.ndarray, s: float, src: np.ndarray, start: int = 0,
              stop: int = n) -> None:
        o, b, r = out.reshape(-1), base.reshape(-1), src.reshape(-1)
        for i0 in range(start, stop, rows):
            i1 = min(i0 + rows, stop)
            j0, j1 = i0 * n, i1 * n
            np.multiply(coef[j0:j1], r[j0:j1], out=o[j0:j1])
            e = min(i1, n - 1)  # K r, upper band: rows i < n - 1 read row i + 1
            t = tmp[:(e - i0) * n].reshape(-1, n)
            np.multiply(up_col[i0:e], src[i0 + 1:e + 1], out=t)
            np.subtract(out[i0:e], t, out=out[i0:e])
            a = max(i0, 1)  # K r, lower band: rows i > 0 read row i - 1
            t = tmp[:(i1 - a) * n].reshape(-1, n)
            np.multiply(lo_col[a:i1], src[a - 1:i1 - 1], out=t)
            np.subtract(out[a:i1], t, out=out[a:i1])
            e = min(j1, last)  # r K^dag, both bands as flat shifts
            t = tmp[:e - j0]
            np.multiply(right[:e - j0], r[j0 + 1:e + 1], out=t)
            np.subtract(o[j0:e], t, out=o[j0:e])
            a = max(j0, 1)
            t = tmp[:j1 - a]
            np.multiply(left[a - j0:j1 - j0], r[a - 1:j1 - 1], out=t)
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


def _check_master(model: ModelSpec, rho0: DensityMatrix, dt: float, n_steps: int,
                  store_stride: int) -> None:
    """Raise what `solve_master` raises for a run it refuses, before it
    builds anything: a dimension above the dense cap, a mismatched basis, or
    a step, step count or stride out of range."""
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


def _rk4_stages(bufs: tuple[np.ndarray, np.ndarray, np.ndarray], k: int, dt: float):
    """The four Horner stages of RK4 step `k`, as (out, base, s, src), over
    the buffers (x, a, y): rho is x at even steps and y at odd ones, and the
    step leaves its result in the other. Both processes of a split solve
    derive a stage's buffers from (step, stage) by this one rule."""
    x, a, y = bufs
    rho, nxt = (x, y) if k % 2 == 0 else (y, x)
    return ((a, rho, dt / 4.0, rho), (nxt, rho, dt / 3.0, a), (a, rho, dt / 2.0, nxt),
            (nxt, rho, dt, a))


def solve_master(model: ModelSpec, rho0: DensityMatrix, dt: float, n_steps: int,
                 store_stride: int = 1,
                 on_store: Callable[[float, np.ndarray], None] | None = None
                 ) -> DensityTrajectory:
    """Fixed-step RK4 for d(rho)/dt = A(rho) = -(K rho + rho K^dag) + sum_j L_j rho L_j^dag.

    A is linear and constant, so one classic RK4 step is the Horner nesting
      rho + h A(rho + h/2 A(rho + h/3 A(rho + h/4 A rho))),
    four calls of one stage out = base + s * A(src) that alternate between
    two preallocated buffers; no step allocates an n x n array. On a banded
    model (`ModelSpec._banded`: H tagged diagonal or tridiagonal, and so K,
    and every channel tagged diagonal), each stage costs O(n^2) elementwise
    work and no matmul; any other keeps the dense O(n^3) form. Both refuse
    dimensions above the dense cap. Every step checks the weighted trace, and
    the largest |trace - 1| seen is kept as `max_trace_drift`; a step that
    overflows fails that check with no numpy warning.

    A banded solve with n * n >= 2 * _STEP_ENTRIES (n >= 182), when two
    workers resolve (`resolve_workers(None, 2)`), splits each stage between
    this process, rows [0, n // 2), and one stage worker forked before the
    first stored matrix (`_Child`), rows [n // 2, n), over buffers in one
    anonymous shared mapping: per stage it sends the worker (step, stage),
    computes its half and waits for the worker's reply. Every entry is
    computed as it is unsplit, so the bits do not depend on the worker
    count. The trace check, the hook and every error stay in this process;
    a worker that dies raises OSError naming its exit code. The worker is
    reaped when the solve returns, and killed first when it raises. Any
    other solve forks nothing.

    `on_store(t, rho)`, when given, is called with each stored time and
    density matrix as soon as it is reached, so a caller can export the
    history while it is solved (`output.MasterExport`). The matrices then go
    only to the hook: no history is allocated, and the result's `matrices`
    is None. `rho` is a read-only view of the solver's own buffer, valid
    until the hook returns; a hook that keeps a matrix copies it.

    The solver copies `rho0`'s entries into that buffer and then drops its
    reference to `rho0`, so a temporary initial matrix, such as the
    projector `qfilter master` passes, is freed before the first step
    (from Python 3.11, where a call's arguments move into the callee's
    frame; on 3.10 the caller's frame holds it until the call returns).
    """
    _check_master(model, rho0, dt, n_steps, store_stride)
    stage = (_banded_stage if model._banded else _dense_stage)(model.generator, model.channels)
    n = model.dim
    split = model._banded and n * n >= 2 * _STEP_ENTRIES and resolve_workers(None, 2) > 1

    stored_steps = _stored_steps(n_steps, store_stride)
    times = stored_steps * dt
    matrices = None
    if on_store is None:
        matrices = np.empty((stored_steps.size, n, n), dtype=complex)
    weight = model.basis.weight

    def store(i: int, r: np.ndarray) -> None:
        if matrices is not None:
            matrices[i] = r
            return
        view = r.view()
        view.flags.writeable = False
        on_store(times[i], view)

    # C order, so every buffer's flat reshape is a view the stages write through
    if split:
        bufs = tuple(_shared(3 * n * n * np.dtype(complex).itemsize).view(complex)
                     .reshape(3, n, n))
        bufs[0][...] = rho0.entries
    else:
        rho = np.array(rho0.entries, dtype=complex, order="C")
        bufs = (rho, np.empty_like(rho), np.empty_like(rho))
    del rho0  # so a matrix only the call held is freed before the first step
    half, worker, done = n // 2, None, False
    try:
        if split:
            def lower(k: int, j: int) -> None:
                stage(*_rk4_stages(bufs, k, dt)[j], half, n)

            def serve(reader, writer) -> None:
                with np.errstate(over="ignore", invalid="ignore"):
                    _serve(reader, writer, lower)

            worker = _Child(serve, "master stage worker")
        drift = 0.0
        store(0, bufs[0])
        ptr = 1
        # an unstable step overflows to inf/nan; the trace check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps):
                stages = _rk4_stages(bufs, k, dt)
                for j, args in enumerate(stages):
                    if worker is None:
                        stage(*args)
                        continue
                    with contextlib.suppress(BrokenPipeError):  # a dead worker fails at its reply
                        worker.send((k, j))
                    stage(*args, 0, half)
                    worker.result()
                rho = stages[-1][0]
                tr = float(np.trace(rho).real) * weight
                if not np.isfinite(tr) or abs(tr - 1.0) > 1e-6:
                    raise InstabilityError(
                        f"trace drifted to {tr!r} at step {k} (t = {(k + 1) * dt:.6g}); reduce dt"
                    )
                drift = max(drift, abs(tr - 1.0))
                if stored_steps[ptr] == k + 1:
                    store(ptr, rho)
                    ptr += 1
        done = True
    finally:
        if worker is not None:
            worker.end(kill=not done)
    return DensityTrajectory(model.basis, dt, store_stride, times, matrices, drift)


def solve_unitary(model: ModelSpec, psi0: StateVector, t: float,
                  dt: float | None = None) -> StateVector:
    """Closed-system evolution: dense exp(-iHt/hbar) on finite bases,
    Crank-Nicolson on grids.

    A Crank-Nicolson step solves (1 + zH) psi' = (1 - zH) psi, z =
    i dt / (2 hbar). The tridiagonal LU of 1 + zH is built once per call,
    and each step is one forward and one back sweep. No pivoting is needed:
    H is hermitian, so the pivots u_0 = 1 + z H_00 and u_i = 1 + z H_ii +
    (dt/2hbar)^2 |H_i,i-1|^2 / u_(i-1) all have real part at least 1.
    """
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
    elif dt <= 0:
        raise ValueError("dt must be positive")
    steps = max(1, round(t / dt))
    dt = t / steps
    d, up, lo = model.hamiltonian._rows
    z = 0.5j * dt / model.hbar
    # 1 + zH = LU: L is unit lower bidiagonal with the multipliers `low`
    # below its diagonal, U upper bidiagonal with the pivots (kept inverted,
    # `inv`) and the upper band of zH
    diag, upper, lower = (1.0 + z * d).tolist(), (z * up).tolist(), (z * lo).tolist()
    n = len(diag)
    low, inv = [0j] * n, [0j] * n
    inv[0] = 1.0 / diag[0]
    for i in range(1, n):
        low[i] = lower[i] * inv[i - 1]
        inv[i] = 1.0 / (diag[i] - low[i] * upper[i - 1])
    psi = psi0.amplitudes.astype(complex)
    for _ in range(steps):
        r = (psi - z * model.hamiltonian.apply(psi)).tolist()
        for i in range(1, n):
            r[i] -= low[i] * r[i - 1]
        r[-1] *= inv[-1]
        for i in range(n - 2, -1, -1):
            r[i] = (r[i] - upper[i] * r[i + 1]) * inv[i]
        psi = np.array(r)
    return StateVector(model.basis, psi)
