"""Named coefficient sets with declared structural assumptions.

A scenario bundles everything a run needs: the fast-layer drift and noise on
the unit cell, the slow (possibly mean-field) drift, how to sample initial
positions, recommended solver settings, and reference values from independent
closed forms where they exist.  Scenarios also carry a dictionary of
structural flags; ``validate`` re-checks the flags that are checkable
numerically and refuses scenarios whose declarations do not hold.  It
checks the periodicity seams itself, and runs the cell solver's own
ellipticity and centering gates (``torus.ellipticity_floor`` and
``torus.check_centering``, at the solver's thresholds) on one evaluation of
the fast layer on a check grid, so a scenario that validates is one the
cell solver accepts on that grid.

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

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import rng
from .effective import EffectiveModel, SeparablePotential, homogenize
from .errors import NumericalError, ValidationError
from .simulate import (Lane, SimConfig, TrajectoryRecord, averaged_lane,
                       multiscale_lane, simulate_averaged, simulate_lanes,
                       simulate_multiscale)
from .torus import (FastCoefficients, TorusGrid, assemble_generator, check_centering,
                    default_scheme, ellipticity_floor, product_grid,
                    solve_invariant_measure)

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

SEAM_TOL = 1e-9


def _unit_grid(dim: int, per_axis: int = 13) -> np.ndarray:
    """Deterministic off-lattice sample of the unit cell, (per_axis^dim, dim)."""
    return product_grid((np.arange(per_axis) + 0.37) / per_axis, dim)


# Cephes ndtri (Moshier, Methods and Programs for Mathematical Functions,
# 1989), the rational approximations scipy.special.ndtri evaluates.  Q0 and
# Q1 are monic; their leading 1 is written out so one Horner loop serves all
# (1 * x + c is x + c exactly, Cephes' p1evl).
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2, 2.00260212380060660359e2,
             -8.20372256168333339912e1, 1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1, 2.50464946208309415979e0,
             -1.42182922854787788574e-1, -3.80806407691578277194e-2, -9.33259480895457427372e-4)


def _horner(x, coefs):
    out = coefs[0]
    for c in coefs[1:]:
        out = out * x + c
    return out


def _libm_log(v: np.ndarray) -> np.ndarray:
    # libm's log, as Cephes takes it: numpy's vectorized log can differ in
    # the last bit, and that would move the lattice
    return np.array([math.log(t) for t in v.tolist()])


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each p in (0, 1), bit for bit Cephes ndtri.

    Each operation is Cephes' own, in its order.  Only the central branch
    and the tail branch for sqrt(-2 log min(p, 1 - p)) < 8 are ported: the
    third needs min(p, 1 - p) <= exp(-32) ~ 1.3e-14, which the lattice
    (k + 1/2)/N reaches only above N = 3.9e13 points.
    """
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    central = y > _EXP_M2
    out = np.empty_like(y)
    c = y[central] - 0.5
    c2 = c * c
    out[central] = (c + c * (c2 * _horner(c2, _NDTRI_P0) / _horner(c2, _NDTRI_Q0))) * _SQRT_2PI
    tail = ~central
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / x
    x = x - _libm_log(x) / x - z * _horner(z, _NDTRI_P1) / _horner(z, _NDTRI_Q1)
    out[tail] = np.where(upper[tail], x, -x)
    return out


@dataclass
class Scenario:
    """One named model: coefficients, assumptions, and run helpers.

    The fast layer is declared once, by exactly one of ``potential`` (a
    :class:`SeparablePotential`, whose closed-form factors cross-check the
    cell solve) and ``fast`` (a :class:`FastCoefficients`).
    :meth:`fast_coefficients` returns it, and ``dim`` and ``noise_dim`` are
    read from it.  Its callables use the solver calling convention
    ``(x, y, mu)`` with query points ``y`` of shape (M, dim); every registry
    scenario ignores ``x``, which lets the same callables serve the frozen
    cell problem and the particle stepper.
    """

    name: str
    description: str
    flags: dict
    init: dict
    potential: SeparablePotential | None = None
    fast: FastCoefficients | None = None
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
        if (self.potential is None) == (self.fast is None):
            given = "neither" if self.potential is None else "both"
            raise ValidationError(
                f"scenario {self.name!r} needs exactly one of potential and fast, got {given}")
        if not self.flags["bounded_slow"] and self.moment_cap is None:
            raise ValidationError(
                f"scenario {self.name!r} declares an unbounded slow drift "
                "but no moment cap; refusing to run without a divergence gate")

    # -- coefficient access -------------------------------------------------

    def fast_coefficients(self) -> FastCoefficients:
        """The fast layer: ``fast``, or the one derived from ``potential``."""
        return self.fast if self.fast is not None else self.potential.fast_coefficients()

    @property
    def dim(self) -> int:
        return self.fast_coefficients().dim

    @property
    def noise_dim(self) -> int:
        return self.fast_coefficients().noise_dim

    def effective_model(self, **overrides) -> EffectiveModel:
        """Homogenized model from the cell solve of the fast layer, with the
        ``solver`` settings (``scheme``, ``n``) overridden by ``overrides``."""
        return homogenize(self.fast_coefficients(), self.slow_drift,
                          **{**self.solver, **overrides})

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
            q = _ndtri((np.arange(n) + 0.5) / n)
            return (mean[0] + std[0] * q)[:, None]
        if kind == "iid_normal":
            draw = rng.normals(rng.derive(seed, "initial positions"),
                               np.arange(n), 0, self.dim)
            return mean + std * draw
        raise ValidationError(f"unknown initial-condition kind {kind!r}")

    def run_multiscale(self, config: SimConfig, control=None) -> TrajectoryRecord:
        x0 = self.initial_positions(config.n_particles, config.seed)
        return simulate_multiscale(
            self.fast_coefficients(), self.slow_drift, x0, config, control,
            moment_cap=self.moment_cap, scenario_name=self.name)

    def run_averaged(self, config: SimConfig, control=None,
                     mode: str = "averaged",
                     model: EffectiveModel | None = None) -> TrajectoryRecord:
        if model is None:
            model = self.effective_model()
        x0 = self.initial_positions(config.n_particles, config.seed)
        return simulate_averaged(model, x0, config, control,
                                 moment_cap=self.moment_cap,
                                 scenario_name=self.name, mode=mode)

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
        return (multiscale_lane(self.fast_coefficients(), self.slow_drift, x0, config,
                                **shared),
                averaged_lane(model, x0, replace(config, epsilon=None),
                              mode="pre_averaged", **shared))

    def run_coupled(self, config: SimConfig, model: EffectiveModel | None = None
                    ) -> tuple[TrajectoryRecord, TrajectoryRecord]:
        """A multiscale run and its pre-averaged twin, stepped in lockstep.

        The two :meth:`ladder_lanes` share one noise, drawn once; a config
        without epsilon, or a pair of two noise widths, is refused.
        """
        config.require_stiffness()
        return tuple(simulate_lanes(list(self.ladder_lanes(config, model))))

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Numerically re-check the declared flags; returns check summaries.

        Periodicity is checked across each seam at off-lattice points.  The
        fast layer is then evaluated once, on a check grid of 32 nodes per
        axis in 1-d and 2-d (spectral) and 16 in 3-d (fd), where the cell
        solver's own gates run: ``ellipticity_floor`` for
        ``uniform_elliptic``, and for ``centered_fast`` the invariant
        density, ``check_centering`` against it, and the declared closed-form
        density if any.  Raises ValidationError, naming the scenario, when a
        declared assumption fails its check; a gate's NumericalError is
        re-raised as one.  Flags without a numerical test (Lipschitz
        bounds, moment bounds, smoothness) are declarative and documented as
        such.
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

        grid = TorusGrid(self.dim, 32 if self.dim <= 2 else 16)
        f_vals, a_vals = coeffs.fields(grid, None, None)
        try:
            if self.flags["uniform_elliptic"]:
                floor = ellipticity_floor(a_vals)
                done.append(f"diffusion eigenvalue floor {floor:.3g} over the cell")
            if self.flags["centered_fast"]:
                L = assemble_generator(grid, f_vals, a_vals, default_scheme(self.dim))
                pi, _ = solve_invariant_measure(L, grid)
                rel = float(check_centering(f_vals, pi, grid)[1].max())
                done.append(f"fast drift centered, relative defect {rel:.2e}")
                if self.known_density is not None:
                    ref = np.asarray(self.known_density(grid.nodes), dtype=float)
                    err = float(np.abs(pi - ref).max() / ref.max())
                    if err > 1e-6:
                        raise ValidationError(
                            f"scenario {self.name!r}: solved cell density differs "
                            f"from the declared closed form by {err:.3e}")
                    done.append(f"cell density matches its closed form to {err:.2e}")
        except NumericalError as exc:
            raise ValidationError(f"scenario {self.name!r}: {exc}") from None

        numerical = ("periodic_fast", "uniform_elliptic", "centered_fast")
        declarative = [k for k in FLAG_NAMES if k not in numerical and self.flags[k]]
        if declarative:
            done.append("declared without numerical test: " + ", ".join(declarative))
        return done


# ---------------------------------------------------------------------------
# registry

def _wave_component(amplitude: float, cosine: bool):
    """q = a cos(2 pi y) and dq = -2 pi a sin(2 pi y), or with ``cosine``
    false q = a sin(2 pi y) and dq = 2 pi a cos(2 pi y).

    ``dq`` is the fast drift the stepper evaluates every step and the cell
    solver once per solve, so its sine or cosine comes from the vectorized
    tangent of ``rng._wave_2pi``; ``q`` (densities, validation) keeps numpy's.
    """
    trig, slope = (np.cos, -amplitude * TWO_PI) if cosine else (np.sin, amplitude * TWO_PI)

    def q(y):
        return amplitude * trig(TWO_PI * np.asarray(y))

    def dq(y):
        out = rng._wave_2pi(y, cosine=not cosine)
        out *= slope
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
        flags=dict(_FLAGS_ALL),
        init={"kind": "quantile_normal", "mean": 0.0, "std": 1.0},
        potential=pot,
        second_moment_bound=4.0,
        reference={"gamma_diag": {"value": [1.0],
                                  "source": "flat potential, normalizers are 1"}},
    )


def _separable_scenario(name: str, description: str, waves: list, sigma2: float,
                        **fields) -> Scenario:
    """A gradient layer of one wave per axis, given as (amplitude, cosine), under
    noise sigma^2 I: its Gibbs density and its Bessel factors 1 / I0(2a/sigma^2)^2."""
    pot = SeparablePotential([_wave_component(a, cosine) for a, cosine in waves],
                             sigma=float(np.sqrt(sigma2)))
    gamma = [1.0 / float(np.i0(2.0 * a / sigma2)) ** 2 for a, _ in waves]
    return Scenario(name=name, description=description, potential=pot,
                    known_density=pot.gibbs_density,
                    reference={"gamma_diag": {"value": gamma,
                                              "source": "per-axis 1 / I0(2a/sigma^2)^2"}},
                    **fields)


def _cos_rough_1d() -> Scenario:
    return _separable_scenario(
        "cos_rough_1d",
        "cosine fast potential, no slow drift; the standard "
        "gradient testbed with Bessel closed forms",
        [(1.0, True)], 2.0,
        flags=dict(_FLAGS_ALL),
        init={"kind": "quantile_normal", "mean": 0.0, "std": 0.1},
        second_moment_bound=3.0,
        solver={"scheme": "spectral", "n": 256},
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
    return _separable_scenario(
        "dawson_rough",
        "bistable mean-field slow drift over a gentle cosine fast "
        "layer; cubic growth is gated by a fourth-moment cap",
        [(_DAWSON_FAST_AMP, True)], _DAWSON_SIGMA2,
        flags={**_FLAGS_ALL, "bounded_slow": False},
        init={"kind": "quantile_normal", "mean": 0.0, "std": 0.25},
        slow_drift=_dawson_slow,
        moment_cap=(4, 50.0),
        second_moment_bound=4.0,
        solver={"scheme": "spectral", "n": 256},
    )


def _separable_2d() -> Scenario:
    return _separable_scenario(
        "separable_2d",
        "two independent gradient fast axes (cosine and sine); "
        "the homogenization factor is diagonal with equal Bessel "
        "entries",
        [(1.0, True), (1.0, False)], 2.0,
        flags=dict(_FLAGS_ALL),
        init={"kind": "iid_normal", "mean": 0.0, "std": 0.1},
        second_moment_bound=4.0,
        solver={"scheme": "spectral", "n": 32},
    )


_SKEW_C = 0.7
_SKEW_SIGMA2 = 2.0


# U = cos(2 pi y1) + sin(2 pi y2), whose -grad U the skew layer reads
_SKEW_POTENTIAL = SeparablePotential([_wave_component(1.0, True),
                                      _wave_component(1.0, False)],
                                     sigma=float(np.sqrt(_SKEW_SIGMA2)))


def _skew_fast_drift(x, y, mu):
    """Gradient drift of U = cos + sin plus a skew part c J grad U.

    The skew part is divergence-free against exp(-U), so the stationary
    density keeps the product Gibbs form even though no potential generates
    the full drift.  g = -grad U comes from the potential's ``fast_drift``,
    the one derivation of a drift from a potential.
    """
    g = _SKEW_POTENTIAL.fast_drift(x, y)
    # f1 = a/2 g1 + c g2 and f2 = a/2 g2 - c g1, column by column
    out = (0.5 * _SKEW_SIGMA2) * g
    out[:, 0] += _SKEW_C * g[:, 1]
    out[:, 1] -= _SKEW_C * g[:, 0]
    return out


def _skew_density(y: np.ndarray) -> np.ndarray:
    y = np.atleast_2d(np.asarray(y, dtype=float))
    u = np.cos(TWO_PI * y[:, 0]) + np.sin(TWO_PI * y[:, 1])
    return np.exp(-u) / float(np.i0(1.0)) ** 2


def _nongradient_2d() -> Scenario:
    return Scenario(
        name="nongradient_2d",
        description="non-gradient fast drift (gradient plus rotation); the "
                    "corrector has no closed form but the cell density is "
                    "still the product Gibbs weight",
        flags=dict(_FLAGS_ALL),
        init={"kind": "iid_normal", "mean": 0.0, "std": 0.1},
        fast=FastCoefficients(dim=2, f=_skew_fast_drift,
                              sigma=float(np.sqrt(_SKEW_SIGMA2)) * np.eye(2)),
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
