"""Ensemble statistics and scheme-verification measurements.

Everything here consumes `TrajectoryResult` / `DensityTrajectory` objects and
returns plain report dataclasses; nothing mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, UnsupportedConfigurationError
from .linalg import (
    Basis,
    DensityMatrix,
    Operator,
    StateVector,
    trace_distance,
)
from .models import ModelSpec
from .noise import coarsen_noise, generate_noise
from .solvers import DensityTrajectory, TrajectoryResult, _run_rows, time_index

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# amplitudes stacked per product in ensemble_average (256 KiB of complex128)
_STACK_ENTRIES = 1 << 14


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for normalized states."""
    return float(abs(a.inner(b)) ** 2)


def pure_state_trace_distance(a: StateVector, b: StateVector) -> float:
    """Trace distance between the projectors on two normalized states.

    Phase-free: sqrt(1 - |<a|b>|^2).
    """
    ov = min(1.0, fidelity(a, b))
    return float(np.sqrt(1.0 - ov))


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


def ensemble_average(results: list[TrajectoryResult]) -> EnsembleSummary:
    """Mean of |phi><phi| over trajectories, as S^T S* products per snapshot.

    S stacks rows of the trajectories' snapshot arrays at one snapshot, at
    most _STACK_ENTRIES amplitudes at a time, so the memory added to the
    result stays bounded however large the ensemble.
    """
    if not results:
        raise ValueError("no trajectories supplied")
    first = results[0]
    for r in results:
        if r.model.basis != first.model.basis:
            raise BasisMismatchError("trajectories live on different bases")
        if r.snapshot_steps.shape != first.snapshot_steps.shape or \
                not np.array_equal(r.snapshot_steps, first.snapshot_steps) or \
                r.dt != first.dt:
            raise ValueError("trajectories store different snapshot grids")
    dim = first.model.dim
    rows = max(1, _STACK_ENTRIES // dim)
    acc = np.zeros((len(first.states), dim, dim), dtype=complex)
    for i in range(len(first.states)):
        for lo in range(0, len(results), rows):
            stack = np.array([r.states.amplitudes[i] for r in results[lo:lo + rows]])
            acc[i] += stack.T @ stack.conj()
    acc /= len(results)
    return EnsembleSummary(first.model.basis, first.times.copy(), acc, len(results))


@dataclass
class ComparisonReport:
    times: np.ndarray
    trace_distances: np.ndarray
    max_distance: float


def ensemble_vs_master(summary, master: DensityTrajectory,
                       times=None) -> ComparisonReport:
    """Trace distance between the ensemble mean and the averaged equation.

    `summary` is an EnsembleSummary or a list of trajectories to average.
    """
    if isinstance(summary, (list, tuple)):
        summary = ensemble_average(list(summary))
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


def collapse_statistics(results: list[TrajectoryResult], observable: Operator,
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
    first = results[0]
    if observable.basis != first.model.basis:
        raise BasisMismatchError("observable basis does not match the trajectories")
    w = observable.basis.weight
    vals, vecs = np.linalg.eigh(observable.matrix)
    scale = max(abs(vals[0]), abs(vals[-1]), 1e-300)
    if np.min(np.diff(vals)) <= 1e-9 * scale:
        raise UnsupportedConfigurationError(
            "observable spectrum is degenerate; projectors are not unique"
        )

    psi0 = first.initial.amplitudes / first.initial.norm()
    born = np.abs(w * (vecs.conj().T @ psi0)) ** 2 / w
    # final amplitudes as rows: one product gives every overlap
    phis = np.array([r.states.amplitudes[-1] for r in results])
    ov = np.abs(w * (phis @ vecs.conj())) ** 2 / w
    best = ov.argmax(axis=1)
    hit = ov[np.arange(best.size), best] >= 1.0 - threshold * threshold
    counts = np.bincount(best[hit], minlength=vals.size)
    finals = (w * (phis.conj() * observable.apply(phis)).sum(axis=-1)).real

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
    if not observable.is_hermitian:
        raise UnsupportedConfigurationError("residual needs a hermitian observable")
    model = traj.model
    if observable.basis != model.basis:
        raise BasisMismatchError("observable basis does not match the trajectory")
    w = model.basis.weight
    dt = traj.dt
    dw = traj.noise.increments
    hbar = model.hbar
    ham = model.hamiltonian
    channels = model.channels

    n = traj.n_steps
    res = np.empty(n)
    for k in range(n + 1):
        phi = traj.states.amplitudes[k]
        ophi = observable.apply(phi)
        z = (w * np.vdot(phi, ophi)).real
        if k > 0:
            res[k - 1] += z  # completes dz for step k-1
        if k == n:
            break
        hphi = ham.apply(phi)
        drift = -(2.0 / hbar) * (w * np.vdot(hphi, ophi)).imag
        noise_part = 0.0
        lphis = []
        olphis = []
        avals = []
        svals = []
        for j, ch in enumerate(channels):
            lphi = ch.apply(phi)
            olphi = observable.apply(lphi)
            drift += (w * np.vdot(lphi, olphi)).real
            drift -= (w * np.vdot(lphi, ch.apply(ophi))).real
            a_j = (w * np.vdot(phi, lphi)).real
            s_j = 2.0 * (w * np.vdot(ophi, lphi)).real - 2.0 * z * a_j
            noise_part += s_j * dw[k, j]
            lphis.append(lphi)
            olphis.append(olphi)
            avals.append(a_j)
            svals.append(s_j)
        quad = 0.0
        if include_quadratic_correction:
            for i in range(len(channels)):
                for j in range(len(channels)):
                    c_ij = (w * np.vdot(lphis[i], olphis[j])).real
                    c_ij -= z * (w * np.vdot(lphis[i], lphis[j])).real
                    c_ij -= avals[i] * svals[j] + avals[j] * svals[i]
                    prod = dw[k, i] * dw[k, j] - (dt if i == j else 0.0)
                    quad += c_ij * prod
        res[k] = -z - drift * dt - noise_part - quad
    return ResidualReport(
        dt=dt,
        n_steps=n,
        mean=float(res.mean()),
        rms=float(np.sqrt(np.mean(res * res))),
        max_abs=float(np.abs(res).max()),
    )


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

    Each seed draws one fine Wiener path at min(dts)/ref_refine, integrates a
    reference trajectory on it, then reruns at every coarser dt on the summed
    increments of that same path. The error is the plain normed state
    difference at t_final (no phase alignment: the schemes fix the phase, so
    a phase error is a real error). The headline slope is fit on the
    seed-averaged error per dt; per-seed slope fits are kept as a spread
    diagnostic (their scatter is wide, the error distribution has heavy
    tails, so slope_se is a conservative figure).
    """
    dts = np.sort(np.asarray(dts, dtype=float))[::-1]
    if dts.size < 4:
        raise ValueError("need at least four dt values")
    ratios = dts[:-1] / dts[1:]
    if not np.allclose(ratios, ratios[0], rtol=1e-9):
        raise ValueError("dt values must form a geometric sequence")
    if n_seeds < 2:
        raise ValueError("need at least two seeds for a slope spread")
    ref_dt = dts[-1] / ref_refine
    n_ref = round(t_final / ref_dt)
    if abs(n_ref * ref_dt - t_final) > 1e-9 * t_final:
        raise ValueError("t_final must be a multiple of every dt")
    factors = []
    for dt in dts:
        f = round(dt / ref_dt)
        if abs(f * ref_dt - dt) > 1e-9 * dt:
            raise ValueError("every dt must be a multiple of the reference dt")
        factors.append(f)

    def finals(dt: float, noise: list) -> np.ndarray:
        """Final states of one run per seed, all seeds advanced together."""
        n = noise[0].n_steps
        runs = _run_rows(model, initial, dt, n, master_seed, 0, scheme,
                         np.stack([p.increments for p in noise]), record_stride=n)
        return np.array([r.states.amplitudes[-1] for r in runs])

    w = model.basis.weight
    fine = [generate_noise(master_seed, s, ref_dt, n_ref, model.n_channels)
            for s in range(n_seeds)]
    ref = finals(ref_dt, fine)
    errors = np.empty((n_seeds, dts.size))
    for d, (dt, f) in enumerate(zip(dts, factors)):
        diff = finals(dt, [coarsen_noise(p, f) for p in fine]) - ref
        for s in range(n_seeds):
            errors[s, d] = max(np.sqrt(w) * np.linalg.norm(diff[s]), 1e-300)

    log_dts = np.log(dts)
    slopes = np.array([np.polyfit(log_dts, np.log(errors[s]), 1)[0]
                       for s in range(n_seeds)])
    mean_errors = errors.mean(axis=0)
    return OrderReport(
        dts=dts,
        mean_errors=mean_errors,
        per_seed_slopes=slopes,
        slope=float(np.polyfit(log_dts, np.log(mean_errors), 1)[0]),
        slope_se=float(slopes.std(ddof=1) / np.sqrt(n_seeds)),
    )
