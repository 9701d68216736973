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
of a sorted sum, the moment cap is certified by an unsorted sum
and a rounding bound (sorting only when the bound cannot decide), a
single-column noise matrix multiplies by broadcast, and the wrap, the
drifts and the update run in place in their operation order.  Cost per
particle-step of each N = 4000 run of the benchmark's ``ladder_1d`` plan
(1-d ``dawson_rough``, eps = 0.05, 4000 steps) timed alone, one BLAS thread,
2-CPU x86-64 VM, medians of ten alternating runs: 61 ns multiscale and
42 ns pre-averaged, against 79 and 58 ns before that work was cut, and
38 ns for each run of a coupled pair (53 ns before).  The noise draw's
Box-Muller cosine and the fast-drift sine then went through scalar libm;
they now go through numpy's vectorized tangent (``rng._wave_2pi``).
Measured the same way on a host about twice as slow: 80 ns multiscale,
64 ns pre-averaged and 54 ns coupled, against 127, 98 and 83 ns with
libm.  Since then each noise hash serves two normals (``rng``), and the
frozen mean dropped its sort: at N = 4000 in 8-step blocks the draw takes
16-21 against 23-31 ns, the mean about 7 against 31 us a step, and the
benchmark's coupled top pair (N = 4000, eps = 0.05, 4000 steps) timed
alone on one CPU 1.23 against 1.69 s (medians of six runs each).
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

import numpy as np

from . import __version__, rng
from .effective import EffectiveModel, _times_transpose
from .errors import SimulationError, ValidationError
from .measures import (EmpiricalMeasure, MeasurePath, _moment_terms, _sorted_sum,
                       _StreamOrderMeasure, radial_moment, wasserstein2)
from .torus import FastCoefficients


# dt <= STIFFNESS_FACTOR * epsilon^2 resolves the fast scale
STIFFNESS_FACTOR = 0.1
# largest miss of t_end / dt from a whole number of steps
STEP_TOL = 1e-6
# most steps a run may take.  The stepper costs about 20 us a step even for
# one particle (2-CPU x86-64 VM), so this is over half an hour of stepping;
# the longest run of the tests, the bench, CI and the README takes 10^4 steps
MAX_STEPS = 10 ** 8


def stiffness_limit(epsilon: float) -> float:
    """Largest step that resolves the fast scale epsilon."""
    return STIFFNESS_FACTOR * epsilon * epsilon


@dataclass
class SimConfig:
    """Run geometry: particle count, step size, horizon, seed, snapshots.

    The one home of the run-geometry rules: whole steps, distinct snapshot
    steps, and the stiffness rule of ``require_stiffness``.  A refusal of a
    geometry field begins with the field's name, which a plan's checks read.
    """

    n_particles: int
    dt: float
    t_end: float = 1.0
    seed: int = 0
    epsilon: float | None = None
    snapshot_times: np.ndarray | None = None

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValidationError(f"n_particles must be positive, got {self.n_particles}")
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
        if self.epsilon is not None and not (self.epsilon > 0 and np.isfinite(self.epsilon)):
            raise ValidationError(f"epsilon must be a positive float, got {self.epsilon}")
        if not 0 <= self.seed < rng.SEED_LIMIT:
            raise ValidationError(f"seed must be in [0, 2**64), got {self.seed}")
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
        if times.size == 0:
            raise ValidationError("snapshot_times is empty: give at least one time in [0, t_end]")
        if np.any(times < -1e-12) or np.any(times > self.t_end + 1e-12):
            raise ValidationError("snapshot times must lie in [0, t_end]")
        steps = np.unique(np.round(times / self.dt).astype(int))
        if len(steps) != len(times):
            raise self._collision(len(times))
        return steps

    def require_snapshot_count(self, count: int) -> None:
        """Refuse more snapshot times than the run has steps plus one, before
        any time is built: so many cannot land on distinct steps."""
        if count > self.n_steps + 1:
            raise self._collision(count)

    def _collision(self, count: int) -> ValidationError:
        return ValidationError(f"snapshot times collide on the step grid: {count} times on "
                               f"{self.n_steps} steps of dt={self.dt!r}")

    def require_stiffness(self, label: str) -> None:
        """Refuse a dt above the limit; suggest the limit to six digits, never above it."""
        if self.epsilon is None:
            raise ValidationError(f"mode {label!r} needs epsilon in the config")
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
            },
            "snapshots": snaps,
            "w2_consecutive": w2_steps,
            "position_hash": self.position_hash(),
        }
        if self.cost_per_particle is not None:
            out["control"] = {"label": self.control_label, "mean_cost": self.mean_cost}
        return out

    def save_csv(self, path) -> None:
        """One row per particle and snapshot, repr floats, CRLF line ends.

        A snapshot's rows are joined at C level from its repr-mapped columns.
        """
        n, dim = self.positions.shape[1:]
        header = ["t", "particle_id"] + [f"x{k+1}" for k in range(dim)]
        ids = [str(i) for i in range(n)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            if n == 0:
                return
            for t, pos in zip(self.times, self.positions):
                cols = [map(repr, col) for col in pos.T.tolist()]
                rows = zip(repeat(repr(float(t))), ids, *cols)
                fh.write("\r\n".join(map(",".join, rows)) + "\r\n")

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
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"trajectory file {path} is empty")
        dim = len(header) - 2
        if header[:2] != ["t", "particle_id"] or dim < 1:
            raise ValidationError(f"unrecognized trajectory header {header}")
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
            if current is None or t != current:
                times.append(t)
                frames.append([])
                current = t
            frames[-1].append(pos)
    positions = [np.asarray(f) for f in frames]
    return MeasurePath(np.asarray(times), [EmpiricalMeasure(p) for p in positions])


# ---------------------------------------------------------------------------
# the driver

# draws per noise block: a block of steps is hashed in one call, and its
# three block-sized buffers (the normals and two uint64 words) stay under 1 MB
_NOISE_BLOCK = 1 << 15


# unit roundoff of float64
_U = 2.0 ** -53


def _monitor(positions: np.ndarray, step: int, t: float, moment_cap) -> None:
    """Raise SimulationError on non-finite positions or a moment over the cap.

    The cap is checked against the sorted (order-independent) moment, as
    ``radial_moment`` returns it, but that sort is made only when a cheap
    bound cannot decide.  Any summation order of n nonnegative terms is
    within gamma_{n-1} = (n-1)u / (1 - (n-1)u) of the exact sum (Higham,
    *Accuracy and Stability of Numerical Algorithms*, sec. 4.2), so the
    sorted sum is at most S (1 + gamma) / (1 - gamma) = S / (1 - 2(n-1)u)
    for the unsorted sum S; 1 + 4nu bounds that together with the rounding
    of the product.  For order > 0 a finite S also means every position is
    finite.  Decisions and messages are those of the sorted moment.
    """
    n = len(positions)
    if moment_cap is not None:
        order, cap = moment_cap
        if order > 0:
            total = float(_moment_terms(positions, 1.0 / n, order).sum())
            if total < np.inf and total * (1.0 + 4 * n * _U) <= cap:
                return
    bad = ~np.isfinite(positions)
    if bad.any():
        raise SimulationError(
            f"non-finite positions at step {step} (t={t:g}): "
            f"{int(bad.any(axis=1).sum())} particles")
    if moment_cap is not None:
        m = radial_moment(positions, 1.0 / n, order)
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
        self.weights = np.full(n, 1.0 / n)
        self.weights.flags.writeable = False
        self.mu = self.u = self.prev_h = None
        self.cost = np.zeros(n) if lane.control is not None else None
        self.times: list[float] = []
        self.frames: list[np.ndarray] = []

    def freeze(self, t: float) -> None:
        """Freeze the measure and evaluate the control at the start of a step.

        The positions passed the monitor at the end of the last step, so the
        measure is built without re-checking them; its mean is a plain sum
        over the particles in stream order.
        """
        self.mu = _StreamOrderMeasure._trusted(self.x, self.weights)
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
            self.times.append(t)
            self.frames.append(self._caller_order(self.x))

    def _caller_order(self, values: np.ndarray) -> np.ndarray:
        """A copy of per-particle ``values`` in the order of ``x0``."""
        return values.copy() if self.unsort is None else values[self.unsort]

    def finish(self) -> TrajectoryRecord:
        lane = self.lane
        if lane.control is not None:
            # close the trapezoid with a final control evaluation at t_end
            self.freeze(lane.config.n_steps * lane.config.dt)
        return TrajectoryRecord(
            scenario=lane.scenario_name, mode=lane.mode, config=lane.config,
            times=np.asarray(self.times), positions=np.stack(self.frames),
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
    config.require_stiffness("multiscale")
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
