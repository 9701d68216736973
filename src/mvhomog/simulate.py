"""Euler-Maruyama simulation of the particle system and its averaged limit.

Three modes share one driver, :func:`simulate_lanes`:

* ``multiscale``: the prelimit system with fast drift f(X, X/eps, mu)/eps,
  slow drift b(X, mu) and noise sigma(X, X/eps, mu).  The time step must
  resolve the fast layer (dt <= STIFFNESS_FACTOR * eps^2 is enforced).
* ``averaged``: the homogenized dynamics drift(X, mu) dt + noise(X, mu) dW.
* ``pre_averaged``: identical dynamics to ``averaged``; the label marks runs
  where the scale separation was removed before the particle limit, so they
  are compared against the prelimit system at matched particle count.

The empirical measure is frozen at the start of every step; its mean is
one plain sum over the particles, which the driver holds in stream order.
Noise comes from the counter-based generator keyed (seed, particle stream,
step), so trajectories are reproducible bit for bit however the draws are
blocked and permute exactly with the particle streams.  Feedback controls enter
through the noise matrix (sigma u dt, or noise u dt in averaged modes) and
their quadratic cost is accumulated with the trapezoidal rule along the
path.

:func:`simulate_lanes` steps a list of lanes, one run each, in lockstep on
one noise: lanes with the same noise width, particle count, dt, horizon,
seed, streams and snapshot grid draw the same noise, so it is drawn once
per step, for blocks of steps at a time, and each lane's record equals its
run alone bit for bit.  Lanes of different noise widths are refused.
``simulate_multiscale`` and ``simulate_averaged`` are one-lane calls of
:func:`multiscale_lane`, which reads the fast layer from one
``FastCoefficients``, and :func:`averaged_lane`, which reads the model's
drift and noise from ``EffectiveModel.coefficients``;
``Scenario.run_coupled`` steps a multiscale run and its pre-averaged twin
together.  Each step is whole-array numpy work on one thread; splitting
the particles over a thread pool made the coupled ladder slower (see the
README's Performance section).  Parallelism is over whole runs instead:
``run_experiment`` runs a plan's runs in forked worker processes, a rung
and seed's two runs coupled when the plan has a seed for every worker and
one lane each when it has fewer.  Two such lanes each draw the noise
themselves: a block is a pure function of its keys and steps, so both
get the same bits.

Every step is bit for bit the plain Euler-Maruyama step, with less work
around the numerics: the measure is frozen without re-checking positions the
monitor has just checked, its mean is a plain sum in stream order instead
of a sorted sum, the moment cap is certified by the positions' two
extremes and a rounding bound (sorting only when that bound cannot
decide), a single-column noise matrix multiplies by broadcast, and the
wrap, the drifts and the update run in place in their operation order.
The noise draw's Box-Muller pair and the fast drift's sine take their
trigonometry from numpy's vectorized tangent (``rng._wave_2pi``), not
scalar libm.  The README's Performance section and the ``BENCH_*.json``
files hold the measured costs.

A run's :class:`TrajectoryRecord` is saved by ``save`` as its times and
positions, float64, in one uncompressed ``.npz`` whose bytes depend on the
arrays alone, and :func:`load_trajectory` reads it back as a measure path.
The text format of ``save_csv`` and :func:`load_trajectory_csv` stays for
trajectories made outside the package.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import zipfile
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

from . import __version__, rng
from .effective import EffectiveModel, _times_transpose
from .errors import SimulationError, ValidationError
from .measures import (EmpiricalMeasure, MeasurePath, _sorted_sum,
                       _StreamOrderMeasure, radial_moment, wasserstein2)
from .torus import FastCoefficients, _require_integer


# dt <= STIFFNESS_FACTOR * epsilon^2 resolves the fast scale
STIFFNESS_FACTOR = 0.1
# largest miss of t_end / dt from a whole number of steps
STEP_TOL = 1e-6
# most steps a run may take.  The stepper costs about 20 us a step even for
# one particle (2-CPU x86-64 VM), so this is over half an hour of stepping;
# the longest run of the tests, the bench, CI and the README takes 10^4 steps
MAX_STEPS = 10 ** 8
# most particle-steps (particles times steps) a run may take.  A particle-step
# costs at least about 21 ns (1-d averaged free_brownian, N = 4000 to 32000,
# one CPU of a 2-CPU x86-64 VM), so this too is over half an hour of
# stepping; the largest run of the tests, the bench, CI and the README takes
# 3.2e6 (the default reference, 8000 particles by 400 steps)
MAX_PARTICLE_STEPS = 10 ** 11
# most particle-snapshots (particles times recorded snapshots) a run may
# record.  By tracemalloc on a multiscale lane at N = 1000 and 4000, in 1-d
# and 2-d, the record, written in place, takes 8 d bytes a particle-snapshot
# (8.0 and 16.0 at N = 4000) and the stepper at most 88 bytes a particle, so
# a 2-d run at this limit holds at most 1.1 GB;
# the largest record of the tests, the bench, CI and the README is 1.7e5
MAX_PARTICLE_SNAPSHOTS = 10 ** 7


def stiffness_limit(epsilon: float) -> float:
    """Largest step that resolves the fast scale epsilon."""
    return STIFFNESS_FACTOR * epsilon * epsilon


@dataclass
class SimConfig:
    """Run geometry: particle count, step size, horizon, seed, snapshots.

    The one home of the run-geometry rules: a positive particle count,
    epsilon, dt and horizon (epsilon before dt, which a plan may derive
    from it), whole steps, distinct snapshot steps and their count
    (``snapshot_grid``), the limits on work and on the record's
    size, and the stiffness rule of ``require_stiffness``; the seed's range
    is ``rng.check_seed``.  A refusal of a geometry field begins with the
    field's name, which a plan's checks read.
    """

    n_particles: int
    dt: float
    t_end: float = 1.0
    seed: int = 0
    epsilon: float | None = None
    snapshot_times: np.ndarray | None = None

    def __post_init__(self):
        _require_integer(self.n_particles, "n_particles")
        if self.n_particles < 1:
            raise ValidationError(f"n_particles must be positive, got {self.n_particles}")
        if self.epsilon is not None and not (self.epsilon > 0 and np.isfinite(self.epsilon)):
            raise ValidationError(f"epsilon must be a positive float, got {self.epsilon}")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValidationError(f"dt must be a positive float, got {self.dt}")
        if not (self.t_end > 0 and np.isfinite(self.t_end)):
            raise ValidationError(f"t_end must be a positive float, got {self.t_end}")
        steps = self.t_end / self.dt
        if steps > MAX_STEPS:
            raise ValidationError(
                f"dt={self.dt!r} cuts the horizon t_end={self.t_end!r} into {steps:.3g} "
                f"steps, more than MAX_STEPS={MAX_STEPS}")
        if abs(steps - round(steps)) > STEP_TOL:
            raise ValidationError(
                f"dt={self.dt!r} does not divide the horizon t_end={self.t_end!r} "
                f"into whole steps (t_end/dt = {steps!r})")
        work = int(self.n_particles) * self.n_steps
        if work > MAX_PARTICLE_STEPS:
            raise ValidationError(
                f"n_particles={self.n_particles} over {self.n_steps} steps is {work:.3g} "
                f"particle-steps, more than MAX_PARTICLE_STEPS={MAX_PARTICLE_STEPS}")
        rng.check_seed(self.seed)
        snapshots = len(self.snapshot_steps())
        if int(self.n_particles) * snapshots > MAX_PARTICLE_SNAPSHOTS:
            raise ValidationError(
                f"n_particles={self.n_particles} with {snapshots} snapshots is "
                f"{int(self.n_particles) * snapshots:.3g} particle-snapshots, more than "
                f"MAX_PARTICLE_SNAPSHOTS={MAX_PARTICLE_SNAPSHOTS}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def snapshot_steps(self) -> np.ndarray:
        """Step indices at which to record, snapped to the time grid."""
        times = self.snapshot_times
        if times is None:
            times = np.linspace(0.0, self.t_end, min(20, self.n_steps) + 1)
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            raise ValidationError("snapshot_times is empty: give at least one time in [0, t_end]")
        if not np.all(np.isfinite(times)):
            bad = float(times[~np.isfinite(times)][0])
            raise ValidationError(f"snapshot times must be finite, got {bad!r}")
        if np.any(times < -1e-12) or np.any(times > self.t_end + 1e-12):
            raise ValidationError("snapshot times must lie in [0, t_end]")
        # the tolerance above is absolute, so with a tiny dt a time may round
        # to a step before the start or past the end
        steps = np.round(times / self.dt).astype(int)
        off = (steps < 0) | (steps > self.n_steps)
        if np.any(off):
            at = np.argmax(off)
            raise ValidationError(
                f"snapshot time {float(times[at])!r} falls on step {steps[at]}, outside the "
                f"run's steps 0 to {self.n_steps} of dt={self.dt!r}")
        steps = np.unique(steps)
        if len(steps) != len(times):
            raise self._collision(len(times))
        return steps

    def snapshot_grid(self, count: int) -> np.ndarray:
        """``count`` snapshot times spread evenly over [0, t_end].

        The count is refused before any time is built: fewer than 2, or more
        than the run has steps plus one, which cannot land on distinct steps.
        """
        if count < 2:
            raise ValidationError(f"snapshot count must be at least 2, got {count}")
        if count > self.n_steps + 1:
            raise self._collision(count)
        return np.linspace(0.0, self.t_end, count)

    def _collision(self, count: int) -> ValidationError:
        return ValidationError(f"snapshot times collide on the step grid: {count} times on "
                               f"{self.n_steps} steps of dt={self.dt!r}")

    def require_stiffness(self) -> None:
        """Refuse a multiscale run without epsilon, or with a dt above the
        limit; suggest the limit to six digits, never above it."""
        if self.epsilon is None:
            raise ValidationError("mode 'multiscale' needs epsilon in the config")
        limit = stiffness_limit(self.epsilon)
        if self.dt > limit * (1 + 1e-12):
            suggested = min(float(f"{limit:.6g}"), limit)
            raise ValidationError(
                f"dt={self.dt!r} does not resolve the fast scale: need "
                f"dt <= {STIFFNESS_FACTOR:g} * epsilon^2 = {limit:.6g}; "
                f"suggested dt: {suggested!r}")


class FeedbackControl:
    """Feedback control u(t, X, mu), vectorized over particles.

    ``func(t, X, mu)`` must return (N, noise_dim).  The run's record
    carries the accumulated quadratic cost (trapezoidal 1/2 int |u|^2 dt per
    particle) on ``cost_per_particle``.
    """

    def __init__(self, func: Callable, noise_dim: int, label: str = ""):
        self.func = func
        self.noise_dim = noise_dim
        self.label = label

    def values(self, t: float, positions: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
        u = np.asarray(self.func(t, positions, mu), dtype=float)
        want = (len(positions), self.noise_dim)
        if u.shape != want:
            raise ValidationError(f"control returned shape {u.shape}, expected {want}")
        return u


def constant_control(value, noise_dim: int) -> FeedbackControl:
    """Control that applies the same deterministic push to every particle."""
    value = np.broadcast_to(np.asarray(value, dtype=float), (noise_dim,))
    if not np.all(np.isfinite(value)):
        raise ValidationError(f"control value must be finite, got {value.tolist()}")

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
                "quantiles": dict(zip(map(str, qs), np.quantile(pos, qs, axis=0).tolist())),
            })
        w2_steps = [wasserstein2(a, b) for a, b in zip(measures, measures[1:])]
        out = {
            "scenario": self.scenario,
            "mode": self.mode,
            "version": f"v{__version__}",
            "config": {
                "n_particles": self.config.n_particles,
                "dt": self.config.dt,
                "t_end": self.config.t_end,
                "seed": self.config.seed,
                "epsilon": self.config.epsilon,
            },
            "snapshots": snaps,
            "w2_consecutive": w2_steps,
            "position_hash": self.position_hash(),
        }
        if self.cost_per_particle is not None:
            out["control"] = {"label": self.control_label, "mean_cost": self.mean_cost}
        return out

    def save(self, path) -> None:
        """``times`` (T,) and ``positions`` (T, N, d), float64, in one uncompressed ``.npz``.

        ``np.savez`` appends ``.npz`` to a path without it.  Its zip members
        carry the fixed 1980-01-01 stamp, so a record's bytes are a function
        of its arrays alone.
        """
        np.savez(path, times=np.ascontiguousarray(self.times, dtype=np.float64),
                 positions=np.ascontiguousarray(self.positions, dtype=np.float64))

    def save_csv(self, path) -> None:
        """One row per particle and snapshot, repr floats, CRLF line ends.

        A snapshot's rows are joined at C level from its repr-mapped columns.
        """
        n, dim = self.positions.shape[1:]
        header = ["t", "particle_id"] + [f"x{k+1}" for k in range(dim)]
        ids = [str(i) for i in range(n)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            for t, pos in zip(self.times, self.positions):
                cols = [map(repr, col) for col in pos.T.tolist()]
                rows = zip(repeat(repr(float(t))), ids, *cols)
                fh.write("\r\n".join(map(",".join, rows)) + "\r\n")

    def save_summary_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")


def _utf8_lines(fh, path):
    """The lines of a text file opened as UTF-8, with bytes that are not
    UTF-8 refused as invalid input."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"trajectory file {path} is not UTF-8 text ({exc.reason})") from None


def load_trajectory_csv(path) -> MeasurePath:
    """Read a trajectory CSV, which must be UTF-8 text, back as a measure path.

    Every refusal names the file, as :func:`load_trajectory`'s do, those
    that ``MeasurePath`` makes (fewer than two snapshots among them) too.
    """
    times: list[float] = []
    frames: list[list[list[float]]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"trajectory file {path} is empty")
        dim = len(header) - 2
        if header[:2] != ["t", "particle_id"] or dim < 1:
            raise ValidationError(f"trajectory file {path}: unrecognized header {header}")
        current = None
        for row in reader:
            if len(row) != dim + 2:
                raise ValidationError(
                    f"trajectory file {path}, line {reader.line_num}: "
                    f"{len(row)} fields, the header has {dim + 2}")
            try:
                t = float(row[0])
                pos = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise ValidationError(
                    f"trajectory file {path}, line {reader.line_num}: {exc}") from None
            if not all(map(math.isfinite, [t, *pos])):
                raise ValidationError(
                    f"trajectory file {path}, line {reader.line_num}: "
                    f"time and positions must be finite, got {row}")
            if current is None or t > current:
                times.append(t)
                frames.append([])
                current = t
            elif t < current:
                raise ValidationError(
                    f"trajectory file {path}, line {reader.line_num}: snapshot times "
                    f"must be strictly increasing, got {t!r} after {current!r}")
            frames[-1].append(pos)
    try:
        return MeasurePath(np.asarray(times), [EmpiricalMeasure(np.asarray(f)) for f in frames])
    except ValidationError as exc:
        raise ValidationError(f"trajectory file {path}: {exc}") from None


# the arrays of a saved record: each one's axis count, and the axes named
_RECORD_AXES = {"times": (1, "(snapshots,)"), "positions": (3, "(snapshots, particles, dim)")}


def load_trajectory(path) -> MeasurePath:
    """Read a record that :meth:`TrajectoryRecord.save` wrote back as a measure path.

    ``np.load`` reads it with pickles refused.  A file that is not an
    ``.npz`` archive, a missing array, a dtype other than float64 and a
    wrong number of axes are refused here, and what ``MeasurePath`` refuses
    (values that are not finite, times that do not match the snapshots or
    do not increase strictly) is refused with the file's name.
    """
    where = f"trajectory file {path}"
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError  # a .npy file: one array
        with npz:
            arrays = {name: npz[name] for name in _RECORD_AXES if name in npz.files}
    except (ValueError, EOFError, zipfile.BadZipFile):
        # numpy's own words would mislead here: it calls any file that is
        # neither a zip nor a .npy "pickled (object) data"
        raise ValidationError(f"{where} is not an .npz record of float64 arrays") from None
    for name, (ndim, axes) in _RECORD_AXES.items():
        if name not in arrays:
            raise ValidationError(f"{where} has no {name!r} array")
        a = arrays[name]
        if a.dtype != np.float64:
            raise ValidationError(f"{where}: {name} has dtype {a.dtype}, needs float64")
        if a.ndim != ndim:
            raise ValidationError(f"{where}: {name} has shape {a.shape}, needs axes {axes}")
    try:
        return MeasurePath.from_arrays(arrays["times"], arrays["positions"])
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# the driver

# draws per noise block: a block of steps is hashed in one call, and its
# three block-sized buffers (the normals and two uint64 words) stay under 1 MB
_NOISE_BLOCK = 1 << 15


# unit roundoff of float64, and a bound on what underflow adds to a moment
_U = 2.0 ** -53
_TINY = 2.0 ** -1000


def _monitor(positions: np.ndarray, step: int, t: float, moment_cap) -> None:
    """Raise SimulationError on non-finite positions or a moment over the cap.

    The cap is checked against the sorted (order-independent) moment, as
    ``radial_moment`` returns it, but that moment is computed only when a
    cheap bound cannot decide.  If the largest and the smallest position are
    finite, so is every position, and with P = max |x_ik| the moment
    (1/n) sum_i |x_i|^p is at most B = (d P^2)^(p/2).  The computed moment and
    the computed B each carry relative rounding errors: at most
    (1 + u)^(p (d/2 + 2) + 4) per term (the squares, their row sum, the
    powers and the factor 1/n), (1 + u)^(n - 1) for the sorted sum, and
    (1 + u)^(p + 4) for B itself, with u the unit roundoff.  So
    B (1 + 2 (n + p (d + 4) + 16) u) bounds the computed moment, and an
    absolute 2^-1000 covers what underflow in the terms may add.  A B past
    the float range decides nothing.  Decisions and messages are those of
    the sorted moment.
    """
    n = len(positions)
    if moment_cap is not None:
        order, cap = moment_cap
        if order > 0:
            hi = float(np.maximum.reduce(positions, axis=None))
            lo = float(np.minimum.reduce(positions, axis=None))
            if -np.inf < lo and hi < np.inf:       # false for a NaN
                d = positions.shape[1]
                peak = max(hi, -lo)
                try:
                    bound = (d * peak * peak) ** (order / 2)
                except OverflowError:       # float ** raises where numpy gives inf
                    bound = np.inf
                if bound * (1.0 + 2 * (n + order * (d + 4) + 16) * _U) + _TINY <= cap:
                    return
    bad = ~np.isfinite(positions)
    if bad.any():
        raise SimulationError(
            f"non-finite positions at step {step} (t={t:g}): "
            f"{int(bad.any(axis=1).sum())} particles")
    if moment_cap is not None:
        m = radial_moment(positions, order)
        if m > cap:
            raise SimulationError(
                f"empirical moment of order {order} hit {m:.3g} > cap {cap:g} "
                f"at step {step} (t={t:g})")


def _half_usq(u: np.ndarray) -> np.ndarray:
    return 0.5 * np.sum(u * u, axis=1)


def _wrap_unit(z: np.ndarray) -> np.ndarray:
    """z mod 1 in place, bit for bit equal to np.mod(z, 1.0) and several times faster.

    z - floor(z) is the exact fractional part, rounded once, which is what
    np.mod computes from fmod; both map -0.0 and negative integers to +0.0.
    """
    z -= np.floor(z)
    return z


def _apply_noise(sigma: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """sigma vec per particle, for a shared (dim, m) or a per-particle (N, dim, m) sigma.

    Returns a new array.  A shared single-column sigma takes a broadcast
    multiply with the matmul's bits.
    """
    if sigma.ndim == 2:
        return _times_transpose(vec, sigma)
    return np.einsum("nij,nj->ni", sigma, vec)


@dataclass
class Lane:
    """One run for :func:`simulate_lanes`: dynamics, start, control, labels.

    ``coefficients(t, X, mu) -> (drift, sigma)`` gives the drift (N, dim)
    and the noise matrix, shared (dim, noise_dim) or per particle
    (N, dim, noise_dim).  ``config`` is the record's; its geometry must match
    the other lanes of the same call.
    """

    coefficients: Callable
    dim: int
    noise_dim: int
    x0: np.ndarray
    config: SimConfig
    control: FeedbackControl | None = None
    moment_cap: tuple | None = None
    scenario_name: str = "custom"
    mode: str = "averaged"


class _LaneRun:
    """Mutable state of one lane while the driver steps it.

    ``order``, when given, is the permutation that puts the particles in
    stream order: the run steps ``x0[order]`` and records its frames and
    costs back in the caller's order.
    """

    def __init__(self, lane: Lane, order: np.ndarray | None = None):
        n = lane.config.n_particles
        self.lane = lane
        self.x = np.array(lane.x0, dtype=float)
        if self.x.shape != (n, lane.dim):
            raise ValidationError(
                f"initial positions have shape {self.x.shape}, expected {(n, lane.dim)}")
        self.unsort = None
        if order is not None:
            self.x = self.x[order]
            self.unsort = np.argsort(order)
        self.sqrt_dt = np.sqrt(lane.config.dt)
        self.mu = self.u = self.prev_h = None
        self.cost = np.zeros(n) if lane.control is not None else None
        self.times: list[float] = []
        # the record, one (N, d) frame per snapshot, written in place
        self.positions = np.empty((len(lane.config.snapshot_steps()), n, lane.dim))

    def freeze(self, t: float) -> None:
        """Freeze the measure and evaluate the control at the start of a step.

        The positions passed the monitor at the end of the last step, so the
        measure is built without re-checking them; its mean is a plain sum
        over the particles in stream order.
        """
        self.mu = _StreamOrderMeasure._trusted(self.x)
        control = self.lane.control
        if control is None:
            return
        self.u = control.values(t, self.x, self.mu)
        h = _half_usq(self.u)
        if self.prev_h is not None:
            self.cost += 0.5 * (self.prev_h + h) * self.lane.config.dt
        self.prev_h = h

    def step(self, t: float, xi: np.ndarray) -> None:
        """Euler-Maruyama update of all particles from the frozen measure.

        x + drift dt + (sigma xi) sqrt(dt) [+ (sigma u) dt], summed in that
        order into one new array; the arrays the coefficients return are
        only read, and the frozen measure keeps the old positions.
        """
        dt = self.lane.config.dt
        drift, sigma = self.lane.coefficients(t, self.x, self.mu)
        out = np.multiply(drift, dt, out=np.empty_like(self.x))
        out += self.x
        noise = _apply_noise(sigma, xi)
        noise *= self.sqrt_dt
        out += noise
        if self.u is not None:
            push = _apply_noise(sigma, self.u)
            push *= dt
            out += push
        self.x = out

    def check(self, step: int, snap_steps) -> None:
        """Monitor the positions after ``step`` steps; record them on a snapshot."""
        t = step * self.lane.config.dt
        _monitor(self.x, step, t, self.lane.moment_cap)
        if step in snap_steps:
            self._caller_order(self.x, out=self.positions[len(self.times)])
            self.times.append(t)

    def _caller_order(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-particle ``values`` in the order of ``x0``, copied into ``out`` or a new array."""
        out = np.empty_like(values) if out is None else out
        if self.unsort is None:
            np.copyto(out, values)
        else:
            # "clip" writes straight into out ("raise" gathers into a buffer first)
            np.take(values, self.unsort, axis=0, out=out, mode="clip")
        return out

    def finish(self) -> TrajectoryRecord:
        lane = self.lane
        if lane.control is not None:
            # close the trapezoid with a final control evaluation at t_end
            self.freeze(lane.config.n_steps * lane.config.dt)
        return TrajectoryRecord(
            scenario=lane.scenario_name, mode=lane.mode, config=lane.config,
            times=np.asarray(self.times), positions=self.positions,
            cost_per_particle=None if self.cost is None else self._caller_order(self.cost),
            control_label=None if lane.control is None else lane.control.label,
        )


def _shared_geometry(lane: Lane) -> tuple:
    c = lane.config
    return (lane.noise_dim, c.n_particles, c.dt, c.n_steps, c.seed, tuple(c.snapshot_steps()))


def simulate_lanes(lanes: list[Lane],
                   streams: np.ndarray | None = None) -> list[TrajectoryRecord]:
    """Step several runs in lockstep on one noise; one record per lane.

    The lanes share noise width (mixed widths are refused, naming both),
    particle count, dt, horizon, seed, snapshot grid and ``streams``, the
    per-particle noise keys.  Each step draws xi once for every lane, so
    each record equals bit for bit the run of its lane alone.  The noise is
    drawn for blocks of consecutive steps, about _NOISE_BLOCK draws at a
    time by :func:`rng.normal_block` into one buffer that every block
    reuses; the block length does not change a single bit.  The step is
    X + drift dt + sigma xi sqrt(dt) + sigma u dt.  The particles are
    stepped in increasing stream order: when ``streams`` is not
    increasing, they and the initial positions are put in that order once
    at the start, and each recorded frame is put back.  So the frozen
    measure's plain-sum mean, and with it every trajectory, permutes
    exactly when ``streams`` and the initial positions are permuted
    together.

    A lane whose monitor raises ``SimulationError`` stops while the others
    go on; at the end the error of the first failed lane, in list order, is
    raised.  So the error, like each record, is the one its lane raises
    alone, whichever lanes share the call.
    """
    config, width = lanes[0].config, lanes[0].noise_dim
    geometry = _shared_geometry(lanes[0])
    for lane in lanes[1:]:
        if _shared_geometry(lane) != geometry:
            raise ValidationError(
                f"lanes must share one noise, of one width (got {width} and "
                f"{lane.noise_dim}), and n_particles, dt, t_end, seed and snapshots")
    n = config.n_particles
    order = None
    if streams is None:
        streams = np.arange(n, dtype=np.uint64)
    else:
        streams = np.asarray(streams, dtype=np.uint64)
        if streams.shape != (n,):
            raise ValidationError(f"streams shape {streams.shape} does not match {n} particles")
        if np.any(streams[1:] <= streams[:-1]):
            # once, not per step: a gather of every step's positions
            # cost 16 us at N = 4000
            order = np.argsort(streams, kind="stable")
            streams = streams[order]
    runs = [_LaneRun(lane, order) for lane in lanes]
    keys = rng.stream_keys(config.seed, streams)
    snap_steps = set(int(s) for s in config.snapshot_steps())
    k_total = config.n_steps
    dt = config.dt
    block = max(1, _NOISE_BLOCK // (n * width))   # steps per block, at least one
    # one block buffer and one scratch, reused every block
    buffer = np.empty((block, n, width))
    scratch = np.empty(rng.scratch_words(block, n, width), dtype=np.uint64)
    errors: list = [None] * len(runs)   # the SimulationError that stopped each lane
    for i, run in enumerate(runs):
        try:
            run.check(0, snap_steps)
        except SimulationError as exc:
            errors[i] = exc
    for k in range(k_total):
        live = [i for i, exc in enumerate(errors) if exc is None]
        if not live:
            break
        t = k * dt
        j = k % block
        if j == 0:
            steps = min(block, k_total - k)
            noise = rng.normal_block(keys, k, steps, width, buffer[:steps], scratch)
        for i in live:
            run = runs[i]
            try:
                run.freeze(t)
                run.step(t, noise[j])
                run.check(k + 1, snap_steps)
            except SimulationError as exc:
                errors[i] = exc
    failed = [exc for exc in errors if exc is not None]
    if failed:
        raise failed[0]
    return [run.finish() for run in runs]


def multiscale_lane(fast: FastCoefficients, slow_drift: Callable | None,
                    x0: np.ndarray, config: SimConfig,
                    control: FeedbackControl | None = None,
                    moment_cap=None, scenario_name: str = "custom") -> Lane:
    """Lane of the prelimit system; checks that dt resolves the fast scale.

    The lane's width is ``fast.dim`` and its noise width ``fast.noise_dim``.
    """
    config.require_stiffness()
    eps = config.epsilon
    fast_drift, fast_sigma = fast.f, fast.sigma

    def coefficients(t, xs, mu):
        ys = _wrap_unit(xs / eps)
        drift = np.asarray(fast_drift(xs, ys, mu), dtype=float) / eps
        if slow_drift is not None:
            drift += slow_drift(xs, mu)
        return drift, np.asarray(fast_sigma(xs, ys, mu), dtype=float)

    return Lane(coefficients, fast.dim, fast.noise_dim, x0, config, control, moment_cap,
                scenario_name, "multiscale")


def averaged_lane(model: EffectiveModel, x0: np.ndarray, config: SimConfig,
                  control: FeedbackControl | None = None, moment_cap=None,
                  scenario_name: str = "custom", mode: str = "averaged") -> Lane:
    """Lane of the averaged dynamics; ``mode`` is "averaged" or "pre_averaged"."""
    if mode not in ("averaged", "pre_averaged"):
        raise ValidationError(f"unknown averaged-mode label {mode!r}")

    def coefficients(t, xs, mu):
        drift, _, noise = model.coefficients(xs, mu)
        return drift, noise

    return Lane(coefficients, model.dim, model.dim, x0, config, control, moment_cap,
                scenario_name, mode)


def simulate_multiscale(fast: FastCoefficients, slow_drift: Callable | None,
                        x0: np.ndarray, config: SimConfig,
                        control: FeedbackControl | None = None,
                        moment_cap=None, scenario_name: str = "custom") -> TrajectoryRecord:
    """Prelimit system: dX = [f(X, X/eps, mu)/eps + b(X, mu)] dt + sigma (dW + u dt).

    The fast layer's ``fast.f(X, Y, mu)`` and ``fast.sigma(X, Y, mu)`` are
    evaluated at the particles' rows X and the wrapped fast variable
    Y = X/eps mod 1, computed once per step; sigma may return a constant
    (dim, noise_dim) matrix or per-particle (N, dim, noise_dim).
    """
    lane = multiscale_lane(fast, slow_drift, x0, config, control, moment_cap,
                           scenario_name)
    return simulate_lanes([lane])[0]


def simulate_averaged(model: EffectiveModel, x0: np.ndarray, config: SimConfig,
                      control: FeedbackControl | None = None,
                      moment_cap=None, scenario_name: str = "custom",
                      mode: str = "averaged") -> TrajectoryRecord:
    """Averaged dynamics dX = drift(X, mu) dt + noise(X, mu)(dW + u dt)."""
    lane = averaged_lane(model, x0, config, control, moment_cap, scenario_name, mode)
    return simulate_lanes([lane])[0]
