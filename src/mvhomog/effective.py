"""Homogenized (averaged) coefficients of the slow dynamics.

Given a frozen cell solution (pi, phi) the local corrected fields are

    beta  = (I + grad_y phi) b  +  grad_x phi f  +  A : grad_x grad_y phi
    D     = grad_y phi A + A grad_y phi^T + f (x) phi + phi (x) f + A
    Dt    = (I + grad_y phi) A (I + grad_y phi)^T

whose pi-averages give the homogenized drift and diffusion.  D and Dt have
the same pi-average; Dt is pointwise PSD and is the form used to build the
model, while D is kept as an independent cross-check of the corrector.

For separable gradient systems (fast drift -grad V2 with V2(y) = sum_k Q_k(y_k)
and constant scalar noise) everything collapses to the diagonal matrix

    Gamma_kk = 1 / (Z_k Zhat_k),   Z_k = int exp(-2 Q_k / s^2),
                                   Zhat_k = int exp(+2 Q_k / s^2),

with homogenized drift Gamma b(x, mu) and diffusion s^2 Gamma.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import SolverError, ValidationError
from .torus import CellSolution, FastCoefficients, apply_axis_derivative, solve_cell


def matrix_sqrt_psd(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-tol * lam_max, 0) are clipped to zero; anything more
    negative raises, since the input was supposed to be PSD.
    """
    m = np.asarray(m, dtype=float)
    m = 0.5 * (m + m.T)
    lam, vec = np.linalg.eigh(m)
    floor = -tol * max(lam[-1], 0.0) - 1e-300
    if lam[0] < floor:
        raise SolverError(
            f"matrix is not PSD: eigenvalue {lam[0]:.6e} below clip floor {floor:.1e}")
    lam = np.clip(lam, 0.0, None)
    return (vec * np.sqrt(lam)) @ vec.T


# ---------------------------------------------------------------------------
# corrected local fields and their averages

def local_coefficients(cell: CellSolution, b_vals: np.ndarray | None = None,
                       x_derivatives: tuple | None = None,
                       x_dependent: bool = False):
    """Pointwise corrected fields (beta, D, Dt) on the cell grid.

    ``b_vals``: slow drift evaluated on the grid, (size, dim); zero if None.
    ``x_derivatives``: pair (grad_x_phi, mixed_xy_phi) with shapes
    (size, l, j) and (size, l, j, k); required when the fast coefficients
    depend on the slow variable, meaningless otherwise.
    """
    g = cell.grad_phi                      # (n, l, k)
    a = cell.a_vals
    f = cell.f_vals
    eye = np.eye(cell.grid.dim)
    corr = eye[None, :, :] + g

    if b_vals is None:
        beta = np.zeros((cell.grid.size, cell.grid.dim))
    else:
        beta = np.einsum("nlk,nk->nl", corr, b_vals)
    if x_dependent:
        if x_derivatives is None:
            raise ValidationError(
                "fast coefficients depend on the slow variable; "
                "slow-gradient corrector terms are required (see solve_with_x_derivatives)")
        grad_x_phi, mixed = x_derivatives
        beta = beta + np.einsum("nlj,nj->nl", grad_x_phi, f)
        beta = beta + np.einsum("njk,nljk->nl", a, mixed)
    elif x_derivatives is not None:
        raise ValidationError("x_derivatives supplied for x-independent coefficients")

    ga = np.einsum("nlk,nkm->nlm", g, a)
    fphi = f[:, :, None] * cell.phi[:, None, :]
    big_d = ga + np.swapaxes(ga, 1, 2) + fphi + np.swapaxes(fphi, 1, 2) + a
    d_tilde = np.einsum("nlk,nkm,npm->nlp", corr, a, corr)
    return beta, big_d, d_tilde


@dataclass
class AveragedCoefficients:
    """pi-averages of the corrected fields at one frozen (x, mu)."""

    drift: np.ndarray          # (dim,)
    diffusion: np.ndarray      # (dim, dim), PSD form
    diffusion_raw: np.ndarray  # (dim, dim), non-PSD-form average, cross-check
    form_gap: float            # sup |diffusion - diffusion_raw|


def averaged_coefficients(cell: CellSolution, b_vals: np.ndarray | None = None,
                          x_derivatives: tuple | None = None,
                          x_dependent: bool = False) -> AveragedCoefficients:
    """Average the corrected fields against the invariant measure.

    The PSD form is the primary diffusion; the raw form must agree with it
    up to quadrature error, which ``form_gap`` reports.
    """
    beta, big_d, d_tilde = local_coefficients(cell, b_vals, x_derivatives, x_dependent)
    drift = cell.pi_average(beta)
    diffusion = cell.pi_average(d_tilde)
    diffusion_raw = cell.pi_average(big_d)
    gap = float(np.max(np.abs(diffusion - diffusion_raw)))
    return AveragedCoefficients(drift, diffusion, diffusion_raw, gap)


def solve_with_x_derivatives(coeffs: FastCoefficients, x, mu=None,
                             scheme: str = "auto", n: int | None = None,
                             x_step: float = 1e-4):
    """Cell solution at x plus centered x-derivatives of the corrector.

    Returns (cell, (grad_x_phi, mixed_xy_phi)).  The extra solves at
    x +/- h e_j share the grid and scheme of the base solve.
    """
    x = np.asarray(x, dtype=float)
    cell = solve_cell(coeffs, x=x, mu=mu, scheme=scheme, n=n)
    dim = cell.grid.dim
    grad_x = np.empty((cell.grid.size, dim, dim))
    for j in range(dim):
        step = np.zeros_like(x)
        step[j] = x_step
        plus = solve_cell(coeffs, x=x + step, mu=mu, scheme=cell.scheme, n=cell.grid.n)
        minus = solve_cell(coeffs, x=x - step, mu=mu, scheme=cell.scheme, n=cell.grid.n)
        grad_x[:, :, j] = (plus.phi - minus.phi) / (2.0 * x_step)
    mixed = np.stack(
        [apply_axis_derivative(grad_x, cell.grid, k, cell.scheme) for k in range(dim)],
        axis=3)  # (size, l, j, k)
    return cell, (grad_x, mixed)


# ---------------------------------------------------------------------------
# separable gradient potentials

@dataclass
class SeparablePotential:
    """Fast potential V2(y) = sum_k Q_k(y_k) with constant scalar noise.

    ``components`` holds (Q_k, Q_k') callable pairs, each 1-periodic.
    """

    components: Sequence[tuple]
    sigma: float

    @property
    def dim(self) -> int:
        return len(self.components)

    def z_factors(self, quad_points: int = 512) -> tuple[np.ndarray, np.ndarray]:
        """Normalizers (Z_k, Zhat_k) by midpoint quadrature on the circle."""
        s = (np.arange(quad_points) + 0.5) / quad_points
        z = np.empty(self.dim)
        zhat = np.empty(self.dim)
        for k, (q, _) in enumerate(self.components):
            vals = 2.0 * np.asarray(q(s)) / self.sigma ** 2
            z[k] = np.exp(-vals).mean()
            zhat[k] = np.exp(vals).mean()
        return z, zhat

    def gibbs_density(self, y: np.ndarray, quad_points: int = 512) -> np.ndarray:
        """Product Gibbs density exp(-2 V2 / sigma^2) / Z at points (M, dim)."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        z, _ = self.z_factors(quad_points)
        out = np.ones(len(y))
        for k, (q, _) in enumerate(self.components):
            out = out * np.exp(-2.0 * np.asarray(q(y[:, k])) / self.sigma ** 2) / z[k]
        return out

    def fast_coefficients(self) -> FastCoefficients:
        """FastCoefficients with f = -grad V2 and sigma I noise."""
        dim = self.dim

        def f(x, y, mu):
            y = np.atleast_2d(y)
            cols = [-np.asarray(dq(y[:, k])) for k, (_, dq) in enumerate(self.components)]
            return np.stack(cols, axis=1)

        sig_mat = self.sigma * np.eye(dim)

        def sigma_fn(x, y, mu):
            return sig_mat

        return FastCoefficients(dim=dim, f=f, sigma=sigma_fn, noise_dim=dim)


def gamma_separable(potential: SeparablePotential, quad_points: int = 512) -> np.ndarray:
    """Diagonal homogenization factor Gamma for a separable gradient system."""
    z, zhat = potential.z_factors(quad_points)
    return np.diag(1.0 / (z * zhat))


# ---------------------------------------------------------------------------
# the homogenized model

def _mu_key(mu):
    """Cache key of a measure: its content fingerprint.

    A measure without ``fingerprint()`` is refused; keying it by identity
    would hand back a stale cell solve once its id is reused.
    """
    if mu is None:
        return None
    fp = getattr(mu, "fingerprint", None)
    if not callable(fp):
        raise ValidationError(
            f"cell solves are cached by the measure's fingerprint(); "
            f"{type(mu).__name__} has no fingerprint method")
    return fp()


def _x_key(x):
    if x is None:
        return None
    return tuple(np.round(np.asarray(x, dtype=float), 9).tolist())


class EffectiveModel:
    """Homogenized slow dynamics: drift(x, mu), diffusion(x, mu), noise(x, mu).

    ``drift_fn(X, mu)`` must be vectorized over rows of X (shape (N, dim)).
    ``diffusion`` is either a constant (dim, dim) matrix or a callable with
    the same batch signature returning (N, dim, dim).  ``noise`` is the
    symmetric PSD square root of the diffusion.
    """

    def __init__(self, dim: int, drift_fn: Callable,
                 diffusion: np.ndarray | Callable,
                 provenance: dict | None = None, description: str = ""):
        self.dim = dim
        self._drift_fn = drift_fn
        self.description = description
        self.provenance = dict(provenance or {})
        if callable(diffusion):
            self._diffusion_fn = diffusion
            self._const_diff = None
            self._const_noise = None
        else:
            self._const_diff = np.asarray(diffusion, dtype=float)
            if self._const_diff.shape != (dim, dim):
                raise ValidationError(
                    f"constant diffusion has shape {self._const_diff.shape}, "
                    f"expected {(dim, dim)}")
            self._diffusion_fn = None
            self._const_noise = matrix_sqrt_psd(self._const_diff)

    @property
    def constant_diffusion(self) -> bool:
        return self._const_diff is not None

    def drift(self, x, mu=None) -> np.ndarray:
        return self.drift_batch(np.atleast_2d(np.asarray(x, dtype=float)), mu)[0]

    def drift_batch(self, xs: np.ndarray, mu=None) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.asarray(self._drift_fn(xs, mu), dtype=float)
        if out.shape != xs.shape:
            raise ValidationError(
                f"drift returned shape {out.shape}, expected {xs.shape}")
        return out

    def diffusion(self, x=None, mu=None) -> np.ndarray:
        if self._const_diff is not None:
            return self._const_diff
        return self.diffusion_batch(np.atleast_2d(np.asarray(x, dtype=float)), mu)[0]

    def diffusion_batch(self, xs: np.ndarray, mu=None) -> np.ndarray:
        if self._const_diff is not None:
            return np.broadcast_to(self._const_diff, (len(xs), self.dim, self.dim))
        return np.asarray(self._diffusion_fn(xs, mu), dtype=float)

    def noise(self, x=None, mu=None) -> np.ndarray:
        if self._const_noise is not None:
            return self._const_noise
        return matrix_sqrt_psd(self.diffusion(x, mu))

    def noise_batch(self, xs: np.ndarray, mu=None) -> np.ndarray:
        if self._const_noise is not None:
            return np.broadcast_to(self._const_noise, (len(xs), self.dim, self.dim))
        diff = self.diffusion_batch(xs, mu)
        return np.stack([matrix_sqrt_psd(d) for d in diff])

    def generator_apply(self, grad_vals: np.ndarray, hess_vals: np.ndarray,
                        xs: np.ndarray, mu=None) -> np.ndarray:
        """Apply the limiting generator to a test function given its
        gradient (N, dim) and Hessian (N, dim, dim) at the points xs."""
        drift = self.drift_batch(xs, mu)
        diff = self.diffusion_batch(xs, mu)
        return np.einsum("ni,ni->n", drift, grad_vals) \
            + 0.5 * np.einsum("nij,nij->n", diff, hess_vals)


def separable_model(potential: SeparablePotential,
                    slow_drift: Callable | None = None,
                    quad_points: int = 512,
                    description: str = "") -> EffectiveModel:
    """Closed-form homogenized model for a separable gradient system.

    ``slow_drift(X, mu)`` is the uncorrected slow drift b; the homogenized
    drift is Gamma b and the diffusion sigma^2 Gamma.
    """
    gamma = gamma_separable(potential, quad_points)
    dim = potential.dim

    if slow_drift is None:
        def drift_fn(xs, mu):
            return np.zeros_like(xs)
    else:
        def drift_fn(xs, mu):
            return np.asarray(slow_drift(xs, mu), dtype=float) @ gamma.T

    model = EffectiveModel(
        dim=dim, drift_fn=drift_fn, diffusion=potential.sigma ** 2 * gamma,
        provenance={"route": "separable", "quad_points": quad_points,
                    "gamma_diagonal": np.diag(gamma).tolist()},
        description=description or "separable gradient system, closed-form route")
    model.gamma = gamma
    return model


class _CellCache:
    """Small LRU cache of cell solves keyed by (mu fingerprint, x key).

    Not thread-safe: the package steps on one thread, and each worker
    process of ``run_experiment`` holds its own copy.
    """

    def __init__(self, maxsize: int = 32):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def get_or_compute(self, key, compute):
        hit = self._data.get(key)
        if hit is not None:
            return hit
        value = compute()
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
        return value


def homogenize(coeffs: FastCoefficients, slow_drift: Callable | None = None,
               scheme: str = "auto", n: int | None = None,
               x_step: float = 1e-4, cache_size: int = 32,
               description: str = "") -> EffectiveModel:
    """Homogenized model via cell solves of the fast generator.

    ``slow_drift(X, mu)`` is the y-independent slow drift b (the common
    case); the homogenized drift is then C(mu) b(x, mu) with
    C = pi-average of (I + grad phi).  When the fast coefficients depend on
    x the corrector is re-solved per slow state (with centered x-derivative
    solves for the extra drift terms) and results are LRU-cached on the
    rounded slow state and the measure fingerprint.
    """
    dim = coeffs.dim
    cache = _CellCache(cache_size)

    def averaged_at(x, mu):
        def compute():
            if coeffs.x_dependent:
                cell, derivs = solve_with_x_derivatives(
                    coeffs, x, mu=mu, scheme=scheme, n=n, x_step=x_step)
            else:
                cell, derivs = solve_cell(coeffs, x=None, mu=mu, scheme=scheme, n=n), None
            avg = averaged_coefficients(cell, None, derivs, coeffs.x_dependent)
            eye_corr = np.eye(dim)[None] + cell.grad_phi
            corr_avg = cell.pi_average(eye_corr)
            return cell, avg, corr_avg
        key = (_mu_key(mu), _x_key(x) if coeffs.x_dependent else None)
        return cache.get_or_compute(key, compute)

    if coeffs.x_dependent:
        def drift_fn(xs, mu):
            out = np.empty_like(xs)
            for i, x in enumerate(xs):
                _, avg, corr = averaged_at(x, mu)
                out[i] = avg.drift
                if slow_drift is not None:
                    out[i] += corr @ np.asarray(slow_drift(x[None, :], mu))[0]
            return out

        def diffusion_fn(xs, mu):
            return np.stack([averaged_at(x, mu)[1].diffusion for x in xs])

        model = EffectiveModel(dim, drift_fn, diffusion_fn,
                               provenance={"route": "cell", "x_dependent": True,
                                           "scheme": scheme, "n": n, "x_step": x_step},
                               description=description)
        model.averaged_at = averaged_at
        return model

    if coeffs.mu_dependent:
        def drift_fn(xs, mu):
            _, avg, corr = averaged_at(None, mu)
            base = avg.drift[None, :]
            if slow_drift is None:
                return np.broadcast_to(base, xs.shape).copy()
            return base + np.asarray(slow_drift(xs, mu), dtype=float) @ corr.T

        def diffusion_fn(xs, mu):
            diff = averaged_at(None, mu)[1].diffusion
            return np.broadcast_to(diff, (len(xs), dim, dim))

        model = EffectiveModel(dim, drift_fn, diffusion_fn,
                               provenance={"route": "cell", "mu_dependent": True,
                                           "scheme": scheme, "n": n},
                               description=description)
        model.averaged_at = averaged_at
        return model

    cell, avg, corr = averaged_at(None, None)

    def drift_fn(xs, mu):
        base = np.broadcast_to(avg.drift, xs.shape)
        if slow_drift is None:
            return base.copy()
        return base + np.asarray(slow_drift(xs, mu), dtype=float) @ corr.T

    model = EffectiveModel(
        dim, drift_fn, avg.diffusion,
        provenance={"route": "cell", "scheme": cell.scheme, "n": cell.grid.n,
                    "form_gap": avg.form_gap, **cell.provenance},
        description=description)
    model.cell = cell
    model.averaged = avg
    model.corrector_average = corr
    return model
