"""Ensemble statistics and scheme-verification measurements.

Measurements read the arrays of an `EnsembleResult` (or of one
`TrajectoryResult` row) and of a `DensityTrajectory` as they are. The state
overlap and the filtering residual act on stacks of any leading shape and
reduce along the last axis only, so a row gets the same bits alone or in a
stack. Everything returns plain report dataclasses; nothing mutates its inputs.

The ensemble mean also reads a stream of fold blocks
(`solvers._ensemble_stream`) as they finish. It sums per block of trajectory
index, where the block lies, so a stream and the collected result give the
same bits, and it holds the mean beside the stream's few blocks. The fold
runs BLAS on one thread (`_one_blas_thread`), so it does not spin a second
BLAS thread against the pool's workers.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, UnsupportedConfigurationError
from .linalg import (
    Basis,
    DensityMatrix,
    Operator,
    StateVector,
    _check_same_basis,
    trace_distance,
)
from .models import ModelSpec
from .noise import _coarsen
from .solvers import (
    DensityTrajectory,
    EnsembleResult,
    TrajectoryResult,
    _block_rows,
    _noise_table,
    _re_rowdot,
    _rowdot,
    _run_rows,
    time_index,
)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _pure_overlap(weight: float, a: np.ndarray, b: np.ndarray):
    """|w<a|b>|^2 and the projector distance sqrt(1 - |w<a|b>|^2) of each
    row pair of two (..., dim) amplitude arrays. The distance is NaN, and
    numpy stays silent, where the overlap is not finite: a broken state must
    not read as distance 0."""
    with np.errstate(invalid="ignore", over="ignore"):
        ov = np.square(np.abs(weight * _rowdot(a, b)))
    dist = np.sqrt(np.where(np.isfinite(ov), 1.0 - np.minimum(1.0, ov), np.nan))
    return ov, dist


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for normalized states."""
    _check_same_basis(a, b)
    return float(_pure_overlap(a.basis.weight, a.amplitudes, b.amplitudes)[0])


def pure_state_trace_distance(a: StateVector, b: StateVector) -> float:
    """Trace distance between the projectors on two normalized states.

    Phase-free: sqrt(1 - |<a|b>|^2); NaN when the overlap is not finite.
    """
    _check_same_basis(a, b)
    return float(_pure_overlap(a.basis.weight, a.amplitudes, b.amplitudes)[1])


@dataclass
class EnsembleSummary:
    """Mean projector of an ensemble at each stored snapshot."""

    basis: Basis
    times: np.ndarray
    mean_density: np.ndarray  # (n_snaps, dim, dim)
    n_trajectories: int

    def density(self, index: int) -> DensityMatrix:
        return DensityMatrix(self.basis, self.mean_density[index])

    def density_at(self, t: float) -> DensityMatrix:
        return self.density(time_index(self.times, t))


def _openblas():
    """(get, set) of the thread count of numpy's OpenBLAS, or None.

    The library is found among the shared objects this process has loaded
    (`/proc/self/maps`, so only on Linux) by its exported thread-count
    symbols, those of the ILP64 builds numpy's wheels bundle: scipy_openblas
    at numpy 2.x, openblas at numpy 1.x. scipy's own OpenBLAS is an LP64
    build without the 64_ suffix, so it is never the one found."""
    import ctypes  # loads only on the calls that need it

    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for path in paths:
            lib = ctypes.CDLL(path)
            try:
                get = getattr(lib, f"{prefix}_get_num_threads64_")
                put = getattr(lib, f"{prefix}_set_num_threads64_")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """numpy's OpenBLAS on one thread for the body, then on its previous
    count again, also when the body raises; nothing where `_openblas` finds
    no library."""
    lib = _openblas()
    if lib is None:
        yield
        return
    get, put = lib
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _fold_block(acc: np.ndarray, block: np.ndarray) -> None:
    """Add S^T S* of each snapshot of a (rows, n_snaps, dim) block to the
    (n_snaps, dim, dim) `acc`."""
    for i in range(acc.shape[0]):
        stack = block[:, i]
        acc[i] += stack.T @ stack.conj()


def ensemble_average(results) -> EnsembleSummary:
    """Mean of |phi><phi| over trajectories, as S^T S* products per snapshot.

    `results` is an `EnsembleResult`, or the fold blocks of one in index
    order, each read before the next is asked for
    (`solvers._ensemble_stream`). S is the trajectories of one block
    (`solvers._block_rows`, at most _STEP_ENTRIES amplitudes) at one
    snapshot, read where it lies, so each product's operands stay small
    however large the ensemble, and the sums and their bits do not depend on
    how the rows arrive. The fold runs numpy's OpenBLAS on one thread
    (`_one_blas_thread`), as the pool that advances a stream runs beside it.
    """
    blocks = results
    if isinstance(results, EnsembleResult):
        rows = _block_rows(results.model.dim)
        blocks = (results._rows(lo, lo + rows, results.first_index + lo)
                  for lo in range(0, len(results), rows))
    acc = None
    n = 0
    with _one_blas_thread():
        for block in blocks:
            if acc is None:
                _, n_snaps, dim = block.states.shape
                acc = np.zeros((n_snaps, dim, dim), dtype=complex)
                basis, times = block.model.basis, block.times.copy()
            _fold_block(acc, block.states)
            n += len(block)
    acc /= n
    return EnsembleSummary(basis, times, acc, n)


@dataclass
class ComparisonReport:
    times: np.ndarray
    trace_distances: np.ndarray
    max_distance: float


def ensemble_vs_master(summary, master: DensityTrajectory,
                       times=None) -> ComparisonReport:
    """Trace distance between the ensemble mean and the averaged equation.

    `summary` is an EnsembleSummary, or an EnsembleResult or the fold blocks
    of one to average (`ensemble_average`).
    """
    if not isinstance(summary, EnsembleSummary):
        summary = ensemble_average(summary)
    if summary.basis != master.basis:
        raise BasisMismatchError("ensemble and averaged run use different bases")
    if times is None:
        times = summary.times
    times = np.asarray(times, dtype=float)
    dists = np.empty(times.size)
    for i, t in enumerate(times):
        dists[i] = trace_distance(summary.density_at(t), master.density_at(t))
    return ComparisonReport(times, dists, float(dists.max()))


@dataclass
class CollapseReport:
    """Terminal-state statistics against the spectral projectors."""

    eigenvalues: np.ndarray
    counts: np.ndarray
    frequencies: np.ndarray          # counts / n_trajectories
    born_probabilities: np.ndarray   # from the shared initial state
    n_trajectories: int
    n_unresolved: int
    unresolved_fraction: float
    chi_square_p: float
    expectation_initial: float
    expectation_final_mean: float
    expectation_final_se: float


def collapse_statistics(results: EnsembleResult, observable: Operator,
                        threshold: float = 0.01) -> CollapseReport:
    """Classify final states by nearest eigenprojector of `observable`.

    A trajectory is resolved when its trace distance to the best projector is
    at most `threshold`. Needs a nondegenerate spectrum so the projectors are
    unambiguous.
    """
    if not results:
        raise ValueError("no trajectories supplied")
    if not observable.is_hermitian:
        raise UnsupportedConfigurationError("collapse statistics need a hermitian observable")
    if observable.basis != results.model.basis:
        raise BasisMismatchError("observable basis does not match the trajectories")
    w = observable.basis.weight
    vals, vecs = np.linalg.eigh(observable.matrix)
    scale = max(abs(vals[0]), abs(vals[-1]), 1e-300)
    if np.min(np.diff(vals)) <= 1e-9 * scale:
        raise UnsupportedConfigurationError(
            "observable spectrum is degenerate; projectors are not unique"
        )

    psi0 = results.initial.amplitudes / results.initial.norm()
    born = np.abs(w * (vecs.conj().T @ psi0)) ** 2 / w
    # final amplitudes as rows: one product gives every overlap
    phis = results.states[:, -1]
    ov = np.abs(w * (phis @ vecs.conj())) ** 2 / w
    best = ov.argmax(axis=1)
    hit = ov[np.arange(best.size), best] >= 1.0 - threshold * threshold
    counts = np.bincount(best[hit], minlength=vals.size)
    finals = (w * _rowdot(phis, observable.apply(phis))).real

    n = len(results)
    resolved = int(hit.sum())
    unresolved = n - resolved
    keep = born > 1e-12
    if resolved > 0 and counts[~keep].sum() == 0 and keep.any():
        import scipy.special  # scipy loads only on the calls that need it

        expected = born[keep] / born[keep].sum() * resolved
        # Pearson's statistic and its chi-square tail, as scipy.stats.chisquare
        # computes them, without importing scipy.stats
        stat = np.sum((counts[keep] - expected) ** 2 / expected)
        chi_p = float(scipy.special.chdtrc(expected.size - 1, stat))
    else:
        chi_p = 0.0

    z0 = (w * np.vdot(psi0, observable.apply(psi0))).real
    se = float(finals.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return CollapseReport(
        eigenvalues=vals,
        counts=counts,
        frequencies=counts / n,
        born_probabilities=born,
        n_trajectories=n,
        n_unresolved=unresolved,
        unresolved_fraction=unresolved / n,
        chi_square_p=chi_p,
        expectation_initial=float(z0),
        expectation_final_mean=float(finals.mean()),
        expectation_final_se=se,
    )


def variance_series(traj: TrajectoryResult, mean_name: str = "x",
                    square_name: str = "x2") -> np.ndarray:
    """<O^2> - <O>^2 per snapshot from two stored expectation series."""
    try:
        ex = traj.expectations[mean_name].real
        ex2 = traj.expectations[square_name].real
    except KeyError as missing:
        raise ValueError(f"trajectory did not store observable {missing}") from None
    return ex2 - ex * ex


def time_average(series: np.ndarray, times: np.ndarray, t0: float, t1: float) -> float:
    """Trapezoid average of a sampled series over [t0, t1]."""
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    mask = (times >= t0 - 1e-12) & (times <= t1 + 1e-12)
    if mask.sum() < 2:
        raise ValueError("window contains fewer than two samples")
    return float(_trapezoid(series[mask], times[mask]) / (times[mask][-1] - times[mask][0]))


@dataclass
class LocalizationSeries:
    times: np.ndarray
    mean_x: np.ndarray
    var_x: np.ndarray
    mean_p: np.ndarray


def localization_metrics(traj: TrajectoryResult) -> LocalizationSeries:
    """<x>, Var(x), <p> per snapshot for a grid trajectory.

    Needs the trajectory to have stored the x, x2 and p observables.
    """
    if traj.model.basis.grid is None:
        raise UnsupportedConfigurationError("localization metrics need a grid model")
    for name in ("x", "x2", "p"):
        if name not in traj.expectations:
            raise ValueError(f"trajectory did not store observable {name!r}")
    return LocalizationSeries(
        times=traj.times.copy(),
        mean_x=traj.expectations["x"].real,
        var_x=variance_series(traj),
        mean_p=traj.expectations["p"].real,
    )


@dataclass
class ResidualReport:
    dt: float
    n_steps: int
    mean: float
    rms: float
    max_abs: float


def _residual_block(model: ModelSpec, observable: Operator, x: np.ndarray,
                    dw: np.ndarray, dt: float, quadratic: bool) -> np.ndarray:
    """Residuals of the m steps between the m+1 states of each (m+1, dim)
    row of `x`, driven by the (m, c) rows of `dw`."""
    w = model.basis.weight
    ox = observable.apply(x)
    z_all = w * _re_rowdot(x, ox)
    phi, ophi, z = x[:, :-1], ox[:, :-1], z_all[:, :-1]
    # channel j applied to the step's state sits on axis -2: (rows, m, c, dim)
    lphi = np.stack([ch.apply(phi) for ch in model.channels], axis=-2)
    olphi = observable.apply(lphi)
    lophi = np.stack([ch.apply(ophi) for ch in model.channels], axis=-2)
    drift = -(2.0 / model.hbar) * (w * _rowdot(model.hamiltonian.apply(phi), ophi).imag)
    drift += (w * (_re_rowdot(lphi, olphi) - _re_rowdot(lphi, lophi))).sum(axis=-1)
    a = w * _re_rowdot(phi[..., None, :], lphi)
    s = 2.0 * (w * _re_rowdot(ophi[..., None, :], lphi)) - 2.0 * z[..., None] * a
    res = z_all[:, 1:] - z - drift * dt - (s * dw).sum(axis=-1)
    if quadratic:
        li, lj = lphi[..., :, None, :], lphi[..., None, :, :]
        cij = w * (_re_rowdot(li, olphi[..., None, :, :]) - z[..., None, None] * _re_rowdot(li, lj))
        cij -= a[..., :, None] * s[..., None, :] + a[..., None, :] * s[..., :, None]
        prod = dw[..., :, None] * dw[..., None, :] - dt * np.eye(dw.shape[-1])
        res -= (cij * prod).sum(axis=-1).sum(axis=-1)
    return res


def _filtering_residuals(model: ModelSpec, observable: Operator, states: np.ndarray,
                         dw: np.ndarray, dt: float, quadratic: bool = True) -> np.ndarray:
    """Per-step residuals (see `filtering_residual`) of every row of a
    (..., n+1, dim) stack of states stored at every step, with its (..., n,
    c) Wiener increments, as a (..., n) array.

    The stack is taken in blocks of whole rows when they fit in a fold block
    (`solvers._block_rows`), else of runs of steps of one row, which hold
    one state more (the run's end state); so the temporaries stay bounded
    however many rows and steps there are. Every
    reduction runs along the last axis: a row's residuals have the same bits
    alone, in a stack or at any block size.
    """
    if not observable.is_hermitian:
        raise UnsupportedConfigurationError("residual needs a hermitian observable")
    if observable.basis != model.basis:
        raise BasisMismatchError("observable basis does not match the trajectory")
    *lead, n1, dim = states.shape
    n = n1 - 1
    x = states.reshape(-1, n1, dim)
    e = dw.reshape(-1, n, model.n_channels)
    per_block = _block_rows(dim)
    steps = min(n, per_block)
    rows = max(1, per_block // n1)
    res = np.empty((x.shape[0], n))
    for r in range(0, x.shape[0], rows):
        for k in range(0, n, steps):
            blk = np.s_[r:r + rows, k:k + steps]
            res[blk] = _residual_block(model, observable, x[r:r + rows, k:k + steps + 1],
                                       e[blk], dt, quadratic)
    return res.reshape(*lead, n)


def filtering_residual(traj: TrajectoryResult, observable: Operator,
                       include_quadratic_correction: bool = True) -> ResidualReport:
    """Per-step closure error of the posterior-expectation equation.

    For z = <O> the increment should satisfy
      dz = <i[H,O]>/hbar dt + sum_j (<L_j^dag O L_j> - Re<L_j^dag L_j O>) dt
           + sum_j s_j dW_j,      s_j = 2 Re<O L_j> - 2 z Re<L_j>,
    and the renormalized record-driven step additionally realizes the
    quadratic-variation term
      sum_ij C_ij (dW_i dW_j - delta_ij dt),
      C_ij = Re<L_i phi|O L_j phi> - z Re<L_i phi|L_j phi> - a_i s_j - a_j s_i
    with a_j = Re<L_j> (the second-order expansion of the step's effect on
    z). It is subtracted by default so the residual reflects the
    higher-order remainder; pass include_quadratic_correction=False to keep
    it in, which leaves a term of order dt per step.

    Needs a trajectory stored at every step (`record_stride=1`) with its
    noise attached.
    """
    if traj.record_stride != 1 or traj.noise is None:
        raise ValueError("residual needs record_stride=1 and the attached noise")
    res = _filtering_residuals(traj.model, observable, traj.states.amplitudes,
                               traj.noise.increments, traj.dt, include_quadratic_correction)
    return ResidualReport(
        dt=traj.dt,
        n_steps=traj.n_steps,
        mean=float(res.mean()),
        rms=float(np.sqrt(np.mean(res * res))),
        max_abs=float(np.abs(res).max()),
    )


def _dt_ladder(dts) -> np.ndarray:
    """The dt values of a convergence fit, largest first: at least four, positive,
    distinct, in geometric sequence (else a ValueError says which rule fails)."""
    if not (isinstance(dts, (list, tuple, np.ndarray)) and len(dts) >= 4 and all(
            isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
            and 0 < x <= sys.float_info.max for x in dts)):
        raise ValueError("must list at least four positive dt values")
    ladder = np.sort(np.asarray(dts, dtype=float))[::-1]
    with np.errstate(all="ignore"):
        ratios = ladder[:-1] / ladder[1:]
        if np.any(ratios <= 1.0 + 1e-9):
            raise ValueError("dt values must be distinct")
        if not np.allclose(ratios, ratios[0], rtol=1e-9):
            raise ValueError("dt values must form a geometric sequence")
    return ladder


@dataclass
class OrderReport:
    dts: np.ndarray
    mean_errors: np.ndarray
    per_seed_slopes: np.ndarray
    slope: float
    slope_se: float


def strong_order_estimate(model: ModelSpec, initial: StateVector, t_final: float,
                          dts, master_seed: int, n_seeds: int,
                          scheme: str = "nonlinear", ref_refine: int = 64) -> OrderReport:
    """Pathwise convergence rate against a refined run on the same noise.

    `dts` obey `_dt_ladder` (distinct, geometric, held largest first). Each
    seed draws one fine Wiener path at min(dts)/ref_refine, integrates a
    reference trajectory on it, then reruns at every coarser dt on the summed
    increments of that same path. The error is the plain normed state
    difference at t_final (no phase alignment: the schemes fix the phase, so
    a phase error is a real error). The headline slope is fit on the
    seed-averaged error per dt; per-seed slope fits are kept as a spread
    diagnostic (their scatter is wide, the error distribution has heavy
    tails, so slope_se is a conservative figure).
    """
    dts = _dt_ladder(dts)
    if n_seeds < 2:
        raise ValueError("need at least two seeds for a slope spread")
    ref_dt = dts[-1] / ref_refine
    n_ref = round(t_final / ref_dt)
    if abs(n_ref * ref_dt - t_final) > 1e-9 * t_final:
        raise ValueError("t_final must be a multiple of every dt")
    factors = np.rint(dts / ref_dt).astype(int)
    if np.any(np.abs(factors * ref_dt - dts) > 1e-9 * dts):
        raise ValueError("every dt must be a multiple of the reference dt")

    def finals(dt: float, table: np.ndarray) -> np.ndarray:
        """Final states of one run per seed, all seeds advanced together."""
        n = table.shape[1]
        return _run_rows(model, initial, dt, n, master_seed, 0, scheme, table,
                         record_stride=n).states[:, -1]

    w = model.basis.weight
    c = model.n_channels
    fine = _noise_table(master_seed, 0, n_seeds, ref_dt, n_ref, c)  # seed s is trajectory s
    ref = finals(ref_dt, fine)
    errors = np.empty((n_seeds, dts.size))
    for d, (dt, f) in enumerate(zip(dts, factors)):
        diff = finals(dt, _coarsen(fine, f)) - ref
        errors[:, d] = np.sqrt(w) * np.linalg.norm(diff, axis=-1)
    np.maximum(errors, 1e-300, out=errors)

    log_dts = np.log(dts)
    slopes = np.polyfit(log_dts, np.log(errors).T, 1)[0]
    mean_errors = errors.mean(axis=0)
    return OrderReport(
        dts=dts,
        mean_errors=mean_errors,
        per_seed_slopes=slopes,
        slope=float(np.polyfit(log_dts, np.log(mean_errors), 1)[0]),
        slope_se=float(slopes.std(ddof=1) / np.sqrt(n_seeds)),
    )
