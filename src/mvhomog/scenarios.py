"""Named coefficient sets with declared structural assumptions.

A scenario bundles everything a run needs: the fast-layer drift and noise on
the unit cell, the slow (possibly mean-field) drift, how to sample initial
positions, recommended solver settings, and reference values from independent
closed-form routes where they exist.  Scenarios also carry a dictionary of
structural flags; ``validate`` re-checks the flags that are checkable
numerically (periodicity seams, ellipticity floor, centering of the fast
drift) and refuses scenarios whose declarations do not hold, so downstream
solvers can trust the flags instead of re-deriving them.

The registry is deliberately small.  ``free_brownian`` pins the trivial
corner of the theory (no fast layer, unit noise), ``cos_rough_1d`` and
``separable_2d`` are gradient fast layers with closed-form homogenization
factors, ``dawson_rough`` adds a bistable mean-field slow drift on top of a
gentle fast layer, and ``nongradient_2d`` exercises the solver path where no
closed-form corrector exists but the stationary density is still known,
because the non-gradient part of the drift is divergence-free against the
Gibbs factor.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.special import i0, ndtri

from . import rng
from .effective import EffectiveModel, SeparablePotential, homogenize, separable_model
from .errors import ValidationError
from .simulate import (Lane, SimConfig, TrajectoryRecord, averaged_lane,
                       multiscale_lane, simulate_averaged, simulate_lanes,
                       simulate_multiscale)
from .torus import (FastCoefficients, TorusGrid, assemble_generator,
                    check_centering, ellipticity_floor, solve_invariant_measure)

TWO_PI = 2.0 * np.pi

# Structural assumptions a scenario declares.  The first block concerns the
# fast layer and the well-posedness of the cell problem, the second the slow
# mean-field system.  ``validate`` enforces the starred ones numerically.
FLAG_NAMES = (
    "periodic_fast",       # fast coefficients are 1-periodic in y          (*)
    "lipschitz_slow",      # slow drift Lipschitz in the state and the mean
    "uniform_elliptic",    # sigma sigma^T has a positive floor on the cell (*)
    "moment_bounds",       # initial law has the moments the estimates need
    "centered_fast",       # fast drift centered under the cell measure     (*)
    "smooth_cell",         # cell data smooth enough for the corrector
    "bounded_slow",        # slow drift bounded; False demands a moment cap
    "interaction_kernel",  # interaction given by a smooth pair kernel
)

ELLIPTICITY_FLOOR = 1e-8
SEAM_TOL = 1e-9
CENTERING_REL_TOL = 1e-6


def _no_fast_drift(x, y, mu):
    """Fast drift of a scenario with neither a potential nor a fast drift."""
    return np.zeros_like(y)


def _unit_grid(dim: int, per_axis: int = 13) -> np.ndarray:
    """Deterministic off-lattice sample of the unit cell, (per_axis^dim, dim)."""
    t = (np.arange(per_axis) + 0.37) / per_axis
    mesh = np.meshgrid(*([t] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass
class Scenario:
    """One named model: coefficients, assumptions, and run helpers.

    ``fast_drift`` and ``fast_sigma`` use the solver calling convention
    ``(x, y, mu)`` with query points ``y`` of shape (M, dim); every registry
    scenario ignores ``x``, which lets the same callables serve the frozen
    cell problem and the particle stepper.  When ``potential`` is set the
    fast layer is derived from it and the closed-form homogenization route
    becomes available; with neither a potential nor a fast drift the fast
    drift is zero.
    """

    name: str
    description: str
    dim: int
    flags: dict
    init: dict
    potential: SeparablePotential | None = None
    fast_drift: Callable | None = None
    fast_sigma: object = None
    noise_dim: int | None = None
    slow_drift: Callable | None = None
    known_density: Callable | None = None
    moment_cap: tuple | None = None
    second_moment_bound: float | None = None
    solver: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.flags) - set(FLAG_NAMES)
        if unknown:
            raise ValidationError(f"unknown assumption flags {sorted(unknown)}")
        missing = [k for k in FLAG_NAMES if k not in self.flags]
        if missing:
            raise ValidationError(f"scenario {self.name!r} must declare flags {missing}")
        if self.noise_dim is None:
            self.noise_dim = self.dim
        if self.fast_drift is None:
            self.fast_drift = (_no_fast_drift if self.potential is None
                               else self.potential.fast_drift)
        if self.fast_sigma is None:
            if self.potential is None:
                raise ValidationError(
                    f"scenario {self.name!r} needs fast_sigma or a potential")
            self.fast_sigma = self.potential.sigma * np.eye(self.dim)
        if not self.flags["bounded_slow"] and self.moment_cap is None:
            raise ValidationError(
                f"scenario {self.name!r} declares an unbounded slow drift "
                "but no moment cap; refusing to run without a divergence gate")

    # -- coefficient access -------------------------------------------------

    def _sigma_fn(self) -> Callable:
        sig = self.fast_sigma
        if callable(sig):
            return sig
        mat = np.asarray(sig, dtype=float)

        def sigma_fn(x, y, mu):
            return mat

        return sigma_fn

    def fast_coefficients(self) -> FastCoefficients:
        return FastCoefficients(dim=self.dim, f=self.fast_drift, sigma=self._sigma_fn(),
                                noise_dim=self.noise_dim)

    def effective_model(self, route: str = "auto", **overrides) -> EffectiveModel:
        """Homogenized model, closed-form when separable, cell solve otherwise."""
        if route == "auto":
            route = "separable" if self.potential is not None else "cell"
        if route == "separable":
            if self.potential is None:
                raise ValidationError(
                    f"scenario {self.name!r} has no separable potential")
            return separable_model(self.potential, self.slow_drift,
                                   description=self.name)
        if route == "cell":
            opts = dict(self.solver)
            opts.update(overrides)
            return homogenize(self.fast_coefficients(), self.slow_drift,
                              scheme=opts.get("scheme", "auto"),
                              n=opts.get("n"), description=self.name)
        raise ValidationError(f"unknown homogenization route {route!r}")

    # -- initial conditions and runs ----------------------------------------

    def initial_positions(self, n: int, seed: int) -> np.ndarray:
        """Sample n starting positions.

        ``quantile_normal`` (1-d only) places particles on the Gaussian
        quantile lattice, which is seed-independent by design: runs that
        differ only in their noise seed then share initial conditions
        exactly, so transport distances between them measure the dynamics
        alone.  ``iid_normal`` draws from the hashed stream the simulator
        also uses, under a seed derived for initialization so the draws
        never collide with stepping noise.
        """
        kind = self.init.get("kind")
        mean = np.broadcast_to(np.asarray(self.init.get("mean", 0.0), dtype=float),
                               (self.dim,))
        std = np.broadcast_to(np.asarray(self.init.get("std", 1.0), dtype=float),
                              (self.dim,))
        if kind == "quantile_normal":
            if self.dim != 1:
                raise ValidationError("quantile_normal initials are 1-d only")
            q = ndtri((np.arange(n) + 0.5) / n)
            return (mean[0] + std[0] * q)[:, None]
        if kind == "iid_normal":
            draw = rng.normals(rng.derive(seed, "initial positions"),
                               np.arange(n), 0, self.dim)
            return mean + std * draw
        raise ValidationError(f"unknown initial-condition kind {kind!r}")

    def _multiscale_terms(self) -> tuple:
        """(fast_drift, fast_sigma, slow_drift, dim, noise_dim) of the prelimit system."""
        return (self.fast_drift, self._sigma_fn(), self.slow_drift, self.dim,
                self.noise_dim)

    def run_multiscale(self, config: SimConfig, control=None,
                       streams=None) -> TrajectoryRecord:
        x0 = self.initial_positions(config.n_particles, config.seed)
        return simulate_multiscale(
            *self._multiscale_terms(), x0, config, control,
            moment_cap=self.moment_cap, scenario_name=self.name, streams=streams)

    def run_averaged(self, config: SimConfig, control=None,
                     mode: str = "averaged", model: EffectiveModel | None = None,
                     streams=None) -> TrajectoryRecord:
        if model is None:
            model = self.effective_model()
        x0 = self.initial_positions(config.n_particles, config.seed)
        return simulate_averaged(model, x0, config, control,
                                 moment_cap=self.moment_cap,
                                 scenario_name=self.name, mode=mode,
                                 streams=streams)

    def ladder_lanes(self, config: SimConfig,
                     model: EffectiveModel | None = None) -> tuple[Lane, ...]:
        """A ladder job's lanes: the twin pair with epsilon, the averaged run without.

        The multiscale run and its pre-averaged twin start from the same
        positions with the same seed and dt and share one noise, so a pair
        whose widths, the scenario's ``noise_dim`` and the model's ``dim``,
        differ is refused.  Stepped by :func:`simulate_lanes`, alone or
        together, they give ``(multiscale, pre_averaged)``, bit for bit the
        records of ``run_multiscale(config)`` and of ``run_averaged`` on
        ``config`` without epsilon in ``pre_averaged`` mode.
        """
        if model is None:
            model = self.effective_model()
        x0 = self.initial_positions(config.n_particles, config.seed)
        shared = {"moment_cap": self.moment_cap, "scenario_name": self.name}
        if config.epsilon is None:
            return (averaged_lane(model, x0, config, **shared),)
        if self.noise_dim != model.dim:
            raise ValidationError(
                f"scenario {self.name!r}: a twin pair shares one noise, but the multiscale "
                f"run has noise width {self.noise_dim} and its pre-averaged twin {model.dim}")
        return (multiscale_lane(*self._multiscale_terms(), x0, config, **shared),
                averaged_lane(model, x0, replace(config, epsilon=None),
                              mode="pre_averaged", **shared))

    def run_coupled(self, config: SimConfig, model: EffectiveModel | None = None,
                    streams=None) -> tuple[TrajectoryRecord, TrajectoryRecord]:
        """A multiscale run and its pre-averaged twin, stepped in lockstep.

        The two :meth:`ladder_lanes` share one noise, drawn once; a config
        without epsilon, or a pair of two noise widths, is refused.
        """
        config.require_stiffness("multiscale")
        return tuple(simulate_lanes(list(self.ladder_lanes(config, model)), streams))

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Numerically re-check the declared flags; returns check summaries.

        Raises ValidationError when a declared assumption fails its check.
        Flags without a numerical test (Lipschitz bounds, moment bounds,
        smoothness) are declarative and documented as such.
        """
        done = []
        coeffs = self.fast_coefficients()
        pts = _unit_grid(self.dim)

        if self.flags["periodic_fast"]:
            f0 = np.asarray(coeffs.f(None, pts, None), dtype=float)
            s0 = np.asarray(coeffs.sigma(None, pts, None), dtype=float)
            f_scale = max(float(np.abs(f0).max()), 1.0)
            s_scale = max(float(np.abs(s0).max()), 1.0)
            for k in range(self.dim):
                shifted = pts.copy()
                shifted[:, k] += 1.0
                df = np.abs(np.asarray(coeffs.f(None, shifted, None)) - f0).max()
                ds = np.abs(np.asarray(coeffs.sigma(None, shifted, None)) - s0).max()
                if df > SEAM_TOL * f_scale or ds > SEAM_TOL * s_scale:
                    raise ValidationError(
                        f"scenario {self.name!r}: fast coefficients break "
                        f"periodicity across the axis-{k} seam "
                        f"(drift gap {df:.2e}, noise gap {ds:.2e})")
            done.append("fast coefficients periodic across every seam")

        grid_n = 16 if self.dim <= 2 else 8
        grid = TorusGrid(self.dim, grid_n)
        f_vals, a_vals = coeffs.fields(grid, None, None)

        if self.flags["uniform_elliptic"]:
            floor = ellipticity_floor(a_vals)
            if floor < ELLIPTICITY_FLOOR:
                raise ValidationError(
                    f"scenario {self.name!r}: diffusion eigenvalue floor "
                    f"{floor:.3e} is below {ELLIPTICITY_FLOOR:.1e}")
            done.append(f"diffusion eigenvalue floor {floor:.3g} over the cell")

        if self.flags["centered_fast"]:
            n = 32 if self.dim <= 2 else 12
            scheme = "spectral" if self.dim <= 2 else "fd"
            cgrid = TorusGrid(self.dim, n)
            cf, ca = coeffs.fields(cgrid, None, None)
            L = assemble_generator(cgrid, cf, ca, scheme)
            pi, _ = solve_invariant_measure(L, cgrid)
            defect = check_centering(cf, pi, cgrid)
            rel = float(np.abs(defect).max() / max(np.abs(cf).max(), 1e-300))
            if rel > CENTERING_REL_TOL:
                raise ValidationError(
                    f"scenario {self.name!r}: fast drift centering defect "
                    f"{rel:.3e} (relative) exceeds {CENTERING_REL_TOL:.1e}")
            done.append(f"fast drift centered, relative defect {rel:.2e}")
            if self.known_density is not None:
                ref = np.asarray(self.known_density(cgrid.nodes), dtype=float)
                err = float(np.abs(pi - ref).max() / ref.max())
                if err > 1e-6:
                    raise ValidationError(
                        f"scenario {self.name!r}: solved cell density differs "
                        f"from the declared closed form by {err:.3e}")
                done.append(f"cell density matches its closed form to {err:.2e}")

        declarative = [k for k in ("lipschitz_slow", "moment_bounds", "smooth_cell",
                                   "bounded_slow", "interaction_kernel")
                       if self.flags[k]]
        if declarative:
            done.append("declared without numerical test: " + ", ".join(declarative))
        return done


# ---------------------------------------------------------------------------
# registry

def _cos_component(amplitude: float = 1.0):
    """q = a cos(2 pi y) and dq = -2 pi a sin(2 pi y).

    ``dq`` is the fast drift the stepper evaluates every step and the cell
    solver once per solve, so its sine comes from the vectorized tangent
    of ``rng._wave_2pi``; ``q`` (densities, validation) keeps numpy's.
    """
    def q(y):
        return amplitude * np.cos(TWO_PI * np.asarray(y))

    def dq(y):
        out = rng._wave_2pi(y)
        out *= -amplitude * TWO_PI
        return out

    return q, dq


def _sin_component(amplitude: float = 1.0):
    """q = a sin(2 pi y) and dq = 2 pi a cos(2 pi y), the cosine as in ``_cos_component``."""
    def q(y):
        return amplitude * np.sin(TWO_PI * np.asarray(y))

    def dq(y):
        out = rng._wave_2pi(y, cosine=True)
        out *= amplitude * TWO_PI
        return out

    return q, dq


def _zero_component():
    def q(y):
        return np.zeros_like(np.asarray(y, dtype=float))

    return q, q


_FLAGS_ALL = dict.fromkeys(FLAG_NAMES, True)


def _free_brownian() -> Scenario:
    pot = SeparablePotential(components=[_zero_component()], sigma=1.0)
    return Scenario(
        name="free_brownian",
        description="no fast layer, unit noise, no slow drift; the prelimit "
                    "and the averaged dynamics coincide exactly",
        dim=1,
        flags=dict(_FLAGS_ALL),
        init={"kind": "quantile_normal", "mean": 0.0, "std": 1.0},
        potential=pot,
        second_moment_bound=4.0,
        reference={"gamma_diag": {"value": [1.0],
                                  "source": "flat potential, normalizers are 1"}},
    )


def _cos_rough_1d() -> Scenario:
    sigma2 = 2.0
    pot = SeparablePotential(components=[_cos_component(1.0)],
                             sigma=float(np.sqrt(sigma2)))
    gamma = 1.0 / float(i0(2.0 / sigma2)) ** 2
    return Scenario(
        name="cos_rough_1d",
        description="cosine fast potential, no slow drift; the standard "
                    "gradient testbed with Bessel closed forms",
        dim=1,
        flags=dict(_FLAGS_ALL),
        init={"kind": "quantile_normal", "mean": 0.0, "std": 0.1},
        potential=pot,
        known_density=lambda y: pot.gibbs_density(y),
        second_moment_bound=3.0,
        solver={"scheme": "spectral", "n": 256},
        reference={
            "gamma_diag": {"value": [gamma],
                           "source": "1 / I0(2a/sigma^2)^2 via modified Bessel"},
            "effective_diffusion": {"value": [[sigma2 * gamma]],
                                    "source": "sigma^2 Gamma for a gradient layer"},
        },
    )


DAWSON_KAPPA = 0.5
_DAWSON_FAST_AMP = 0.08
_DAWSON_SIGMA2 = 0.2


def _dawson_slow(x, mu):
    """Bistable drift plus quadratic attraction to the ensemble mean.

    The pair kernel is quadratic, so the mean-field sum collapses to the
    first moment and costs O(N).  A missing measure is read as centered.
    """
    v = np.asarray(x, dtype=float)[:, 0]
    m = 0.0 if mu is None else float(mu.mean()[0])
    # -(v^3 - v) - kappa (v - m), in place in that operation order
    out = v * v
    out *= v
    out -= v
    np.negative(out, out=out)
    pull = v - m
    pull *= DAWSON_KAPPA
    out -= pull
    return out[:, None]


def _dawson_rough() -> Scenario:
    pot = SeparablePotential(components=[_cos_component(_DAWSON_FAST_AMP)],
                             sigma=float(np.sqrt(_DAWSON_SIGMA2)))
    flags = dict(_FLAGS_ALL)
    flags["bounded_slow"] = False
    gamma = 1.0 / float(i0(2.0 * _DAWSON_FAST_AMP / _DAWSON_SIGMA2)) ** 2
    return Scenario(
        name="dawson_rough",
        description="bistable mean-field slow drift over a gentle cosine fast "
                    "layer; cubic growth is gated by a fourth-moment cap",
        dim=1,
        flags=flags,
        init={"kind": "quantile_normal", "mean": 0.0, "std": 0.25},
        potential=pot,
        slow_drift=_dawson_slow,
        known_density=lambda y: pot.gibbs_density(y),
        moment_cap=(4, 50.0),
        second_moment_bound=4.0,
        solver={"scheme": "spectral", "n": 256},
        reference={"gamma_diag": {"value": [gamma],
                                  "source": "1 / I0(2a/sigma^2)^2 via modified Bessel"}},
    )


def _separable_2d() -> Scenario:
    sigma2 = 2.0
    pot = SeparablePotential(components=[_cos_component(1.0), _sin_component(1.0)],
                             sigma=float(np.sqrt(sigma2)))
    g = 1.0 / float(i0(2.0 / sigma2)) ** 2
    return Scenario(
        name="separable_2d",
        description="two independent gradient fast axes (cosine and sine); "
                    "the homogenization factor is diagonal with equal Bessel "
                    "entries",
        dim=2,
        flags=dict(_FLAGS_ALL),
        init={"kind": "iid_normal", "mean": 0.0, "std": 0.1},
        potential=pot,
        known_density=lambda y: pot.gibbs_density(y),
        second_moment_bound=4.0,
        solver={"scheme": "spectral", "n": 32},
        reference={"gamma_diag": {"value": [g, g],
                                  "source": "per-axis 1 / I0(2a/sigma^2)^2"}},
    )


_SKEW_C = 0.7
_SKEW_SIGMA2 = 2.0


def _skew_fast_drift(x, y, mu):
    """Gradient drift of U = cos + sin plus a skew part c J grad U.

    The skew part is divergence-free against exp(-U), so the stationary
    density keeps the product Gibbs form even though no potential generates
    the full drift.  The gradient's sine and cosine come from
    ``rng._wave_2pi``, as in ``_cos_component``.
    """
    du1 = rng._wave_2pi(y[:, 0])
    du1 *= -TWO_PI
    du2 = rng._wave_2pi(y[:, 1], cosine=True)
    du2 *= TWO_PI
    half_a = 0.5 * _SKEW_SIGMA2
    out = np.empty((len(y), 2))
    # f1 = -a/2 du1 - c du2 and f2 = -a/2 du2 + c du1, column by column
    np.multiply(-half_a, du1, out=out[:, 0])
    out[:, 0] -= _SKEW_C * du2
    np.multiply(-half_a, du2, out=out[:, 1])
    out[:, 1] += _SKEW_C * du1
    return out


def _skew_density(y: np.ndarray) -> np.ndarray:
    y = np.atleast_2d(np.asarray(y, dtype=float))
    u = np.cos(TWO_PI * y[:, 0]) + np.sin(TWO_PI * y[:, 1])
    return np.exp(-u) / float(i0(1.0)) ** 2


def _nongradient_2d() -> Scenario:
    return Scenario(
        name="nongradient_2d",
        description="non-gradient fast drift (gradient plus rotation); the "
                    "corrector has no closed form but the cell density is "
                    "still the product Gibbs weight",
        dim=2,
        flags=dict(_FLAGS_ALL),
        init={"kind": "iid_normal", "mean": 0.0, "std": 0.1},
        fast_drift=_skew_fast_drift,
        fast_sigma=float(np.sqrt(_SKEW_SIGMA2)) * np.eye(2),
        known_density=_skew_density,
        second_moment_bound=8.0,
        solver={"scheme": "spectral", "n": 32},
    )


_BUILDERS = {
    "free_brownian": _free_brownian,
    "cos_rough_1d": _cos_rough_1d,
    "dawson_rough": _dawson_rough,
    "separable_2d": _separable_2d,
    "nongradient_2d": _nongradient_2d,
}


def scenario_names() -> list[str]:
    return sorted(_BUILDERS)


def get_scenario(name: str) -> Scenario:
    """Fresh Scenario instance for a registry name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValidationError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from None
    return builder()
