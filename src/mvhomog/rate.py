"""Rate-functional evaluation on measure paths.

The action of an absolutely continuous measure path theta is

    J(theta) = 1/2 int_0^1 sup_phi  |< thetadot(t) - Lbar* theta(t), phi >|^2
                                    / < theta(t), grad phi^T Dbar grad phi >  dt,

where Lbar is the homogenized generator and the sup runs over smooth test
functions.  Restricted to the span of a finite dictionary (phi_1..phi_B) the
sup is a generalized Rayleigh quotient with closed form

    j(t) = 1/2 a(t)^T M(t)^+ a(t),
    a_j = d/dt <theta, phi_j> - <theta, Lbar phi_j>,
    M_jk = <theta, grad phi_j^T Dbar grad phi_k>,

evaluated in weak form only (the adjoint never acts on measures).  Because
the dictionary spans a subspace of the admissible test functions, the
reported value is a lower bound of the true functional; refining the
dictionary can only increase it.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial import hermite_e

from .effective import EffectiveModel
from .errors import ValidationError
from .measures import EmpiricalMeasure, MeasurePath, wasserstein2

# Gram eigenvalues below this fraction of the largest are treated as null
GRAM_CUTOFF = 1e-9


def _herme_basis(k: int) -> np.ndarray:
    c = np.zeros(k + 1)
    c[k] = 1.0
    return c


class HermiteFunction:
    """Tensor Hermite function He_k(u) exp(-|u|^2/2), u = (x - center)/scale.

    Value, gradient and Hessian are analytic; the Gaussian envelope keeps
    everything integrable against heavy-tailed empirical measures, standing
    in for compactly supported test functions.
    """

    def __init__(self, orders: Sequence[int], center: np.ndarray, scale: np.ndarray):
        self.orders = tuple(int(k) for k in orders)
        if any(k < 0 for k in self.orders):
            raise ValidationError(f"negative Hermite order in {self.orders}")
        self.center = np.asarray(center, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        if np.any(self.scale <= 0):
            raise ValidationError("dictionary scale must be positive")
        self.dim = len(self.orders)
        self.label = "he" + "".join(str(k) for k in self.orders)

    def _axis_parts(self, x: np.ndarray):
        """Per-axis (psi, psi', psi'') at u = (x - c)/s, shape (N,) each."""
        u = (x - self.center) / self.scale
        env = np.exp(-0.5 * u * u)
        parts = []
        for a, k in enumerate(self.orders):
            ua = u[:, a]
            he = hermite_e.hermeval(ua, _herme_basis(k))
            he1 = hermite_e.hermeval(ua, _herme_basis(k - 1)) if k >= 1 else 0.0
            he2 = hermite_e.hermeval(ua, _herme_basis(k - 2)) if k >= 2 else 0.0
            e = env[:, a]
            psi = he * e
            dpsi = (k * he1 - ua * he) * e
            ddpsi = (k * (k - 1) * he2 - 2.0 * ua * k * he1 + (ua * ua - 1.0) * he) * e
            parts.append((psi, dpsi, ddpsi))
        return parts

    def value(self, x: np.ndarray) -> np.ndarray:
        parts = self._axis_parts(np.atleast_2d(x))
        out = np.ones(len(np.atleast_2d(x)))
        for psi, _, _ in parts:
            out = out * psi
        return out

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        parts = self._axis_parts(x)
        vals = [p[0] for p in parts]
        out = np.empty((len(x), self.dim))
        for a in range(self.dim):
            g = parts[a][1] / self.scale[a]
            for b in range(self.dim):
                if b != a:
                    g = g * vals[b]
            out[:, a] = g
        return out

    def hess(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        parts = self._axis_parts(x)
        vals = [p[0] for p in parts]
        out = np.empty((len(x), self.dim, self.dim))
        for a in range(self.dim):
            for b in range(a, self.dim):
                if a == b:
                    h = parts[a][2] / self.scale[a] ** 2
                    rest = [c for c in range(self.dim) if c != a]
                else:
                    h = (parts[a][1] / self.scale[a]) * (parts[b][1] / self.scale[b])
                    rest = [c for c in range(self.dim) if c not in (a, b)]
                for c in rest:
                    h = h * vals[c]
                out[:, a, b] = out[:, b, a] = h
        return out


@dataclass
class TestDictionary:
    """Finite family of smooth test functions with analytic derivatives."""

    __test__ = False  # "test function" in the variational sense, not pytest's

    basis: list
    labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        if len(self.basis) < 2:
            raise ValidationError("a test dictionary needs at least 2 functions")
        if not self.labels:
            self.labels = [getattr(b, "label", f"phi{j}") for j, b in enumerate(self.basis)]

    @property
    def size(self) -> int:
        return len(self.basis)

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.stack([b.value(x) for b in self.basis], axis=1)

    def grads(self, x: np.ndarray) -> np.ndarray:
        return np.stack([b.grad(x) for b in self.basis], axis=1)

    def hessians(self, x: np.ndarray) -> np.ndarray:
        return np.stack([b.hess(x) for b in self.basis], axis=1)

    def head(self, size: int) -> "TestDictionary":
        """Nested sub-dictionary with the first ``size`` functions."""
        return TestDictionary(self.basis[:size], self.labels[:size])

    def verify_derivatives(self, seed: int = 0, points: int = 16,
                           rel_tol: float = 1e-6) -> None:
        """Spot-check analytic gradients/Hessians against central differences."""
        dim = self.basis[0].dim
        rs = np.random.default_rng(seed)
        x = rs.normal(scale=1.5, size=(points, dim))
        h = 1e-5
        for b in self.basis:
            g = b.grad(x)
            hess = b.hess(x)
            scale_g = max(np.abs(g).max(), 1e-10)
            scale_h = max(np.abs(hess).max(), 1e-10)
            for a in range(dim):
                e = np.zeros(dim)
                e[a] = h
                fd_g = (b.value(x + e) - b.value(x - e)) / (2 * h)
                if np.max(np.abs(fd_g - g[:, a])) > rel_tol * scale_g * 10:
                    raise ValidationError(
                        f"gradient of {b.label} disagrees with finite differences")
                fd_h = (b.grad(x + e) - b.grad(x - e)) / (2 * h)
                if np.max(np.abs(fd_h - hess[:, a, :])) > rel_tol * scale_h * 100:
                    raise ValidationError(
                        f"Hessian of {b.label} disagrees with finite differences")


def hermite_dictionary(dim: int, per_axis: int = 6, center=0.0, scale=1.0,
                       verify: bool = True) -> TestDictionary:
    """Tensor-product Hermite-function dictionary, per_axis functions per axis."""
    if per_axis < 2:
        raise ValidationError("per_axis must be at least 2")
    center = np.broadcast_to(np.asarray(center, dtype=float), (dim,))
    scale = np.broadcast_to(np.asarray(scale, dtype=float), (dim,))
    if per_axis ** dim > 64:
        raise ValidationError(
            f"{per_axis}^{dim} basis functions is too many; lower per_axis")
    orders = [()]
    for _ in range(dim):
        orders = [o + (k,) for o in orders for k in range(per_axis)]
    # sort by total degree so nested heads are refinement-ordered
    orders.sort(key=lambda o: (sum(o), o))
    d = TestDictionary([HermiteFunction(o, center, scale) for o in orders])
    if verify:
        d.verify_derivatives()
    return d


def dictionary_for_path(path: MeasurePath, per_axis: int = 6,
                        verify: bool = True) -> TestDictionary:
    """Hermite dictionary centered and scaled by the path's pooled moments."""
    means = np.stack([m.mean() for m in path.measures])
    stds = np.stack([np.sqrt(np.diag(m.cov())) for m in path.measures])
    center = means.mean(axis=0)
    # cover both the spread within snapshots and the drift of the means
    scale = np.sqrt(stds.mean(axis=0) ** 2 + means.var(axis=0)) * 1.5
    scale = np.maximum(scale, 1e-6)
    return hermite_dictionary(path.dim, per_axis, center, scale, verify=verify)


@dataclass
class RateReport:
    """Evaluated action of a measure path over a finite dictionary."""

    times: np.ndarray
    integrand: np.ndarray
    total: float
    basis_size: int
    gram_condition: np.ndarray
    lower_bound: bool = True
    degenerate_times: list = field(default_factory=list)
    initial_distance: float | None = None

    def as_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "integrand": self.integrand.tolist(),
            "total": self.total if np.isfinite(self.total) else "inf",
            "basis": self.basis_size,
            "gram_condition": [c if np.isfinite(c) else None
                               for c in self.gram_condition.tolist()],
            "lower_bound": self.lower_bound,
            "degenerate_times": self.degenerate_times,
            "initial_distance": self.initial_distance,
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _ma3(series: np.ndarray) -> np.ndarray:
    """Moving average, window 3, endpoints kept."""
    out = series.copy()
    out[1:-1] = (series[:-2] + series[1:-1] + series[2:]) / 3.0
    return out


def evaluate_jdg(path: MeasurePath, model: EffectiveModel, dictionary: TestDictionary,
                 *, nu0: EmpiricalMeasure | None = None, nu0_tol: float = 0.05,
                 cutoff: float = GRAM_CUTOFF, series_filter: str = "none") -> RateReport:
    """Finite-dictionary evaluation of the path action (a certified lower bound).

    ``nu0`` optionally pins the required initial condition: when the path
    starts further than ``nu0_tol`` from it in Wasserstein-2, the action is
    +infinity by definition and no integration is attempted.
    ``series_filter="ma3"`` smooths the paired time series before
    differentiating, for noisy finite-N paths.
    """
    if len(path) < 3:
        raise ValidationError("rate evaluation needs at least 3 snapshots")
    if series_filter not in ("none", "ma3"):
        raise ValidationError(f"unknown series filter {series_filter!r}")
    nbasis = dictionary.size
    times = path.times

    init_dist = None
    if nu0 is not None:
        init_dist = wasserstein2(path.measures[0], nu0)
        if init_dist > nu0_tol:
            return RateReport(
                times=times, integrand=np.zeros(len(times)), total=np.inf,
                basis_size=nbasis, gram_condition=np.full(len(times), np.nan),
                initial_distance=init_dist)

    # paired series <theta_t, phi_j> and its time derivative
    paired = np.empty((len(times), nbasis))
    for i, m in enumerate(path.measures):
        vals = dictionary.values(m.atoms)
        paired[i] = np.sort(vals * m.weights[:, None], axis=0).sum(axis=0)
    if series_filter == "ma3":
        paired = np.apply_along_axis(_ma3, 0, paired)
    dpaired = np.gradient(paired, times, axis=0)

    integrand = np.empty(len(times))
    condition = np.empty(len(times))
    degenerate = []
    for i, m in enumerate(path.measures):
        atoms = m.atoms
        w = m.weights
        grads = dictionary.grads(atoms)        # (N, B, d)
        hessians = dictionary.hessians(atoms)  # (N, B, d, d)
        drift = model.drift_batch(atoms, m)
        diff = model.diffusion_batch(atoms, m)
        gen_vals = np.einsum("nd,nbd->nb", drift, grads) \
            + 0.5 * np.einsum("nde,nbde->nb", diff, hessians)
        lbar = np.sort(gen_vals * w[:, None], axis=0).sum(axis=0)
        a = dpaired[i] - lbar
        gram = np.einsum("nbd,nde,nce,n->bc", grads, diff, grads, w)
        gram = 0.5 * (gram + gram.T)
        lam, vec = np.linalg.eigh(gram)
        keep = lam > cutoff * max(lam[-1], 0.0)
        if not np.any(keep):
            degenerate.append(float(times[i]))
            integrand[i] = 0.0
            condition[i] = np.nan
            continue
        proj = vec[:, keep].T @ a
        integrand[i] = 0.5 * float(np.sum(proj * proj / lam[keep]))
        condition[i] = float(lam[-1] / lam[keep].min())
    if degenerate:
        warnings.warn(
            f"Gram matrix degenerate at {len(degenerate)} time(s); "
            "integrand set to 0 there", RuntimeWarning, stacklevel=2)

    integrand = np.maximum(integrand, 0.0)
    total = float(np.trapezoid(integrand, times))
    return RateReport(times=times, integrand=integrand, total=total,
                      basis_size=nbasis, gram_condition=condition,
                      degenerate_times=degenerate, initial_distance=init_dist)


@dataclass
class CostBoundReport:
    """Outcome of checking the action against an admissible control cost."""

    passed: bool
    rate_value: float
    cost: float
    bound: float
    margin: float


def control_cost_bound(path: MeasurePath, cost: float, model: EffectiveModel,
                       dictionary: TestDictionary, *, slack: float = 0.15,
                       abs_tol: float = 0.05, **jdg_kwargs) -> CostBoundReport:
    """Check J(path) <= (1 + slack) * cost, the variational upper bound.

    Any admissible control that realizes the path bounds the rate from
    above by its quadratic cost; ``abs_tol`` absorbs the discretization
    floor when the cost itself is near zero.
    """
    report = evaluate_jdg(path, model, dictionary, **jdg_kwargs)
    bound = max((1.0 + slack) * cost, abs_tol)
    margin = bound - report.total
    return CostBoundReport(passed=bool(report.total <= bound),
                           rate_value=report.total, cost=cost,
                           bound=bound, margin=margin)
