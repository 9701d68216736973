"""Homogenized (averaged) coefficients of the slow dynamics.

Given a frozen cell solution (pi, phi) the local corrected fields are

    beta  = (I + grad_y phi) b  +  grad_x phi f  +  A : grad_x grad_y phi
    D     = grad_y phi A + A grad_y phi^T + f (x) phi + phi (x) f + A
    Dt    = (I + grad_y phi) A (I + grad_y phi)^T

whose pi-averages give the homogenized drift and diffusion.  D and Dt have
the same pi-average; Dt is pointwise PSD and is the form used to build the
model, while D is kept as an independent cross-check of the corrector.

:func:`homogenize` builds every :class:`EffectiveModel` from these cell
solves, read in one way: ``model.coefficients(X, mu)`` returns the drift,
the diffusion and its PSD square root (the noise) at the rows of X.  The
averaged particle lane, the action, the effective table and the CLI all read
the model through it.

For separable gradient systems (fast drift -grad V2 with V2(y) = sum_k Q_k(y_k)
and constant scalar noise) the averages collapse to the diagonal matrix

    Gamma_kk = 1 / (Z_k Zhat_k),   Z_k = int exp(-2 Q_k / s^2),
                                   Zhat_k = int exp(+2 Q_k / s^2),

with homogenized drift Gamma b(x, mu) and diffusion s^2 Gamma.  This closed
form (:func:`gamma_separable`) is the independent reference the cell solves
are checked against; no model is built from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import SolverError, ValidationError
from .torus import CellSolution, FastCoefficients, apply_axis_derivative, solve_cell

# eigenvalues in [-PSD_CLIP_TOL * lam_max, 0) are rounding and clip to zero
PSD_CLIP_TOL = 1e-10
# slow-state step of the centered x-derivative cell solves
X_STEP = 1e-4
# midpoint nodes of the closed-form normalizer quadrature
QUAD_POINTS = 512


def matrix_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of a matrix or a (..., d, d) stack, from one
    batched eigendecomposition (the same bits as one call per matrix).

    Eigenvalues in [-PSD_CLIP_TOL * lam_max, 0) are clipped to zero; anything
    more negative raises, naming the matrix, since the input was supposed to
    be PSD.
    """
    m = np.asarray(m, dtype=float)
    m = 0.5 * (m + np.swapaxes(m, -1, -2))
    lam, vec = np.linalg.eigh(m)
    floor = -PSD_CLIP_TOL * np.maximum(lam[..., -1], 0.0) - 1e-300
    bad = lam[..., 0] < floor
    if np.any(bad):
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        raise SolverError(
            f"matrix{f' at index {at}' if at else ''} is not PSD: eigenvalue "
            f"{lam[at][0]:.6e} below clip floor {floor[at]:.1e}")
    lam = np.clip(lam, 0.0, None)
    return (vec * np.sqrt(lam)[..., None, :]) @ np.swapaxes(vec, -1, -2)


def _times_transpose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T, bit for bit, for a of shape (N, k) and b of shape (m, k).

    With one column (k = 1) every entry is a single product, so a broadcast
    multiply gives the matmul's bits in a fraction of its time on small
    matrices.  Adding +0.0 maps a -0.0 product to +0.0, as the matmul's
    zero-started sum does.  Other shapes use the matmul.
    """
    if b.shape[1] != 1:
        return a @ b.T
    out = a * b.T
    out += 0.0
    return out


# ---------------------------------------------------------------------------
# corrected local fields and their averages

def _sandwich(corr: np.ndarray, a: np.ndarray) -> np.ndarray:
    """corr A corr^T per node, (n, d, d), with the bits of the einsum.

    ``np.einsum("nlk,nkm,npm->nlp", corr, a, corr)`` (numpy 2.4) adds the
    terms (corr_lk a_km) corr_pm to a zero total in k, then m order: for
    d = 2 each k's two terms are summed before they are added, for other d
    the terms are added one by one.  Here each term is one whole-array
    product over a chunk of nodes, the sums run in that order, and adding
    0.0 last turns a -0.0 into the zero total's +0.0.  About a quarter of
    the einsum's time on a 128^2 grid; ``a`` may be broadcast over the
    nodes with stride 0.  Chunks of 1024 nodes keep each temporary under
    80 kB up to d = 3, so little memory is needed beyond the output.
    """
    n, d = corr.shape[:2]
    out = np.empty((n, d, d))
    for lo in range(0, n, 1024):
        nodes = slice(lo, lo + 1024)
        c, ac, acc = corr[nodes], a[nodes], out[nodes]
        terms = ((c[:, :, k] * ac[:, k, m, None])[:, :, None] * c[:, None, :, m]
                 for k in range(d) for m in range(d))
        if d == 2:
            t00, t01, t10, t11 = terms
            np.add(t00, t01, out=acc)
            t10 += t11
            acc += t10
        else:
            np.copyto(acc, next(terms))
            for term in terms:
                acc += term
        acc += 0.0
    return out


@dataclass
class AveragedCoefficients:
    """pi-averages of the corrected fields at one frozen (x, mu)."""

    drift: np.ndarray              # (dim,)
    diffusion: np.ndarray          # (dim, dim), PSD form
    form_gap: float                # sup |diffusion - raw-form average|
    corrector_average: np.ndarray  # (dim, dim), C = pi-average of (I + grad phi)


def averaged_coefficients(cell: CellSolution,
                          x_derivatives: tuple | None = None) -> AveragedCoefficients:
    """Average the corrected fields beta, D and Dt against the invariant measure.

    beta holds the fast terms only (zero unless the fast coefficients depend
    on the slow variable); a y-independent slow drift b enters the
    homogenized drift as C b, with C = ``corrector_average`` the pi-average
    of (I + grad phi), see :func:`homogenize`.  ``x_derivatives``: pair
    (grad_x_phi, mixed_xy_phi) with shapes (size, l, j) and (size, l, j, k),
    given exactly when the fast coefficients depend on the slow variable (see
    :func:`solve_with_x_derivatives`).  Each field is averaged and dropped
    before the next is built, so at most two (size, d, d) arrays are held.
    The PSD form is the primary diffusion; the raw form must agree with it
    up to quadrature error, which ``form_gap`` reports.
    """
    g, a, f = cell.grad_phi, cell.a_vals, cell.f_vals   # g[n, l, k] = d phi_l / d y_k
    drift = np.zeros(cell.grid.dim)
    if x_derivatives is not None:
        grad_x_phi, mixed = x_derivatives
        beta = np.zeros((cell.grid.size, cell.grid.dim))
        beta += np.einsum("nlj,nj->nl", grad_x_phi, f)
        beta += np.einsum("njk,nljk->nl", a, mixed)
        drift = cell.pi_average(beta)
        del beta
    corr = np.eye(cell.grid.dim)[None] + g
    corrector_average = cell.pi_average(corr)
    diffusion = cell.pi_average(_sandwich(corr, a))
    del corr
    # D = g A + (g A)^T + f (x) phi + phi (x) f + A, added left to right in place
    ga = np.einsum("nlk,nkm->nlm", g, a)
    big_d = ga + np.swapaxes(ga, 1, 2)
    fphi = np.multiply(f[:, :, None], cell.phi[:, None, :], out=ga)
    big_d += fphi
    big_d += np.swapaxes(fphi, 1, 2)
    del ga, fphi
    big_d += a
    gap = float(np.max(np.abs(diffusion - cell.pi_average(big_d))))
    return AveragedCoefficients(drift, diffusion, gap, corrector_average)


def solve_with_x_derivatives(coeffs: FastCoefficients, x, mu=None,
                             scheme: str = "auto", n: int | None = None):
    """Cell solution at x plus centered x-derivatives of the corrector.

    Returns (cell, (grad_x_phi, mixed_xy_phi)).  The extra solves at
    x +/- X_STEP e_j share the grid and scheme of the base solve.
    """
    x = np.asarray(x, dtype=float)
    cell = solve_cell(coeffs, x=x, mu=mu, scheme=scheme, n=n)
    dim = cell.grid.dim
    grad_x = np.empty((cell.grid.size, dim, dim))
    for j in range(dim):
        step = np.zeros_like(x)
        step[j] = X_STEP
        plus = solve_cell(coeffs, x=x + step, mu=mu, scheme=cell.scheme, n=cell.grid.n)
        minus = solve_cell(coeffs, x=x - step, mu=mu, scheme=cell.scheme, n=cell.grid.n)
        grad_x[:, :, j] = (plus.phi - minus.phi) / (2.0 * X_STEP)
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

    def z_factors(self, quad_points: int = QUAD_POINTS) -> tuple[np.ndarray, np.ndarray]:
        """Normalizers (Z_k, Zhat_k) by midpoint quadrature on the circle."""
        if quad_points < 1:
            raise ValidationError(f"quadrature needs at least 1 point, got {quad_points}")
        s = (np.arange(quad_points) + 0.5) / quad_points
        z = np.empty(self.dim)
        zhat = np.empty(self.dim)
        for k, (q, _) in enumerate(self.components):
            vals = 2.0 * np.asarray(q(s)) / self.sigma ** 2
            z[k] = np.exp(-vals).mean()
            zhat[k] = np.exp(vals).mean()
        return z, zhat

    def gibbs_density(self, y: np.ndarray, quad_points: int = QUAD_POINTS) -> np.ndarray:
        """Product Gibbs density exp(-2 V2 / sigma^2) / Z at points (M, dim)."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        z, _ = self.z_factors(quad_points)
        out = np.ones(len(y))
        for k, (q, _) in enumerate(self.components):
            out = out * np.exp(-2.0 * np.asarray(q(y[:, k])) / self.sigma ** 2) / z[k]
        return out

    def fast_drift(self, x, y: np.ndarray, mu=None) -> np.ndarray:
        """f = -grad V2 at query points y of shape (M, dim), in one new array.

        The one derivation of a fast drift from a separable potential; the
        solver (``x`` and ``mu`` are ignored) and the particle stepper share it.
        """
        out = np.empty((len(y), self.dim))
        for k, (_, dq) in enumerate(self.components):
            np.negative(dq(y[:, k]), out=out[:, k])
        return out

    def fast_coefficients(self) -> FastCoefficients:
        """The fast layer f = -grad V2 with sigma I noise: the one derivation
        of a fast layer from a potential."""
        return FastCoefficients(dim=self.dim, f=self.fast_drift,
                                sigma=self.sigma * np.eye(self.dim))


def gamma_separable(potential: SeparablePotential, quad_points: int = QUAD_POINTS) -> np.ndarray:
    """Diagonal homogenization factor Gamma for a separable gradient system."""
    z, zhat = potential.z_factors(quad_points)
    return np.diag(1.0 / (z * zhat))


# ---------------------------------------------------------------------------
# the homogenized model

class EffectiveModel:
    """Homogenized slow dynamics, read through :meth:`coefficients`.

    ``drift_fn(X, mu)`` is vectorized over the rows of X (shape (N, dim)).
    With a constant (dim, dim) ``diffusion`` it returns the drift (N, dim),
    and the noise, the symmetric PSD square root of the diffusion, is
    computed once, here.  With ``diffusion=None`` it returns the pair
    (drift, diffusion of shape (N, dim, dim)) from one evaluation, as the
    models of :func:`homogenize` whose fast layer reads x or mu do from one
    cell solve per slow state.
    """

    def __init__(self, dim: int, drift_fn: Callable, diffusion: np.ndarray | None,
                 provenance: dict | None = None):
        self.dim = dim
        self._drift_fn = drift_fn
        self.provenance = dict(provenance or {})
        self._diffusion = self._noise = None
        if diffusion is not None:
            self._diffusion = np.array(diffusion, dtype=float)
            if self._diffusion.shape != (dim, dim):
                raise ValidationError(
                    f"constant diffusion has shape {self._diffusion.shape}, "
                    f"expected {(dim, dim)}")
            self._noise = matrix_sqrt_psd(self._diffusion)
            self._diffusion.flags.writeable = self._noise.flags.writeable = False

    def coefficients(self, xs: np.ndarray, mu=None) -> tuple:
        """(drift, diffusion, noise) at the rows of xs under the measure mu.

        States of another width than (N, dim) are refused, naming both.
        The drift is (N, dim).  A constant model returns its one read-only
        (dim, dim) diffusion and noise; any other returns (N, dim, dim) for
        each, the noise from one batched :func:`matrix_sqrt_psd`.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValidationError(
                f"states have shape {xs.shape}, but the model has dim {self.dim}")
        if self._diffusion is None:
            drift, diffusion = self._drift_fn(xs, mu)
            diffusion = np.asarray(diffusion, dtype=float)
            noise = matrix_sqrt_psd(diffusion)
        else:
            drift, diffusion, noise = self._drift_fn(xs, mu), self._diffusion, self._noise
        drift = np.asarray(drift, dtype=float)
        if drift.shape != xs.shape:
            raise ValidationError(f"drift returned shape {drift.shape}, expected {xs.shape}")
        return drift, diffusion, noise

    def generator_apply(self, grad_vals: np.ndarray, hess_vals: np.ndarray,
                        xs: np.ndarray, mu=None) -> np.ndarray:
        """Apply the limiting generator to test functions given their
        gradients (N, ..., dim) and Hessians (N, ..., dim, dim) at the
        points xs; the result has shape (N, ...)."""
        drift, diffusion, _ = self.coefficients(xs, mu)
        return _generator(drift, diffusion, grad_vals, hess_vals)


def _generator(drift: np.ndarray, diffusion: np.ndarray, grad_vals: np.ndarray,
               hess_vals: np.ndarray) -> np.ndarray:
    """b . grad + 1/2 D : hess of test functions, from the coefficient values.

    A shared (dim, dim) diffusion is broadcast over the points.
    """
    diffusion = np.broadcast_to(diffusion, drift.shape + drift.shape[-1:])
    out = np.einsum("ni,n...i->n...", drift, grad_vals)
    second = np.einsum("nij,n...ij->n...", diffusion, hess_vals)
    second *= 0.5
    out += second
    return out


def homogenize(coeffs: FastCoefficients, slow_drift: Callable | None = None,
               scheme: str = "auto", n: int | None = None) -> EffectiveModel:
    """Homogenized model via cell solves of the fast generator.

    ``slow_drift(X, mu)`` is the y-independent slow drift b (the common
    case); the homogenized drift is the pi-average of the fast terms plus
    C b(x, mu), with C = pi-average of (I + grad phi).  Fast coefficients
    that read neither x nor mu are solved once, here, and give a constant
    diffusion.  Otherwise the model solves the cell problem on every
    evaluation: once per measure when the fast layer reads only mu, and
    once per particle when it reads x, with 2 dim centered x-derivative
    solves for the extra drift terms.  Nothing is cached:
    :meth:`EffectiveModel.coefficients` gets both coefficients of a slow
    state from one solve, and the measure changes every step.
    """
    dim = coeffs.dim

    def averaged_at(x, mu):
        """Cell solve at one slow state and its averages."""
        if coeffs.x_dependent:
            cell, derivs = solve_with_x_derivatives(coeffs, x, mu=mu, scheme=scheme, n=n)
        else:
            cell, derivs = solve_cell(coeffs, x=None, mu=mu, scheme=scheme, n=n), None
        return cell, averaged_coefficients(cell, derivs)

    def drift_of(corr, xs, mu):
        """C b at the rows of xs from a cell solve that does not read x; its
        fast terms are zero, since beta is zero without x-derivatives."""
        if slow_drift is None:
            return np.zeros_like(xs)
        return _times_transpose(np.asarray(slow_drift(xs, mu), dtype=float), corr)

    if coeffs.x_dependent or coeffs.mu_dependent:
        def coefficients(xs, mu):
            if not coeffs.x_dependent:
                _, avg = averaged_at(None, mu)
                return (drift_of(avg.corrector_average, xs, mu),
                        np.broadcast_to(avg.diffusion, (len(xs), dim, dim)))
            drift = np.empty_like(xs)
            diffusion = np.empty((len(xs), dim, dim))
            for i, x in enumerate(xs):
                _, avg = averaged_at(x, mu)
                drift[i] = avg.drift
                if slow_drift is not None:
                    drift[i] += avg.corrector_average @ np.asarray(slow_drift(x[None, :], mu))[0]
                diffusion[i] = avg.diffusion
            return drift, diffusion

        provenance = {"x_dependent": coeffs.x_dependent,
                      "mu_dependent": coeffs.mu_dependent, "scheme": scheme, "n": n}
        if coeffs.x_dependent:
            provenance["x_step"] = X_STEP
        return EffectiveModel(dim, coefficients, None, provenance)

    cell, avg = averaged_at(None, None)
    model = EffectiveModel(
        dim, lambda xs, mu: drift_of(avg.corrector_average, xs, mu), avg.diffusion,
        provenance={"form_gap": avg.form_gap, **cell.provenance})
    model.cell = cell
    return model
