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

The dictionary is one tensor object: row j of an integer orders array
(B, d) names prod_a psi_{k_a}(u_a), psi_k = He_k(u) exp(-u^2/2),
u = (x - center)/scale.  The recurrence He_{k+1} = u He_k - k He_{k-1} gives
psi_k' = -psi_{k+1} and psi_k'' = psi_{k+2}, so one table of psi_k per axis
yields all values, gradients and Hessians as products of its columns.

Permutation exactness: each snapshot's atoms and weights are first put in
one canonical order (``EmpiricalMeasure.canonical_order``), so every array
evaluated from them has the same bits whatever the atoms' order.  Every
weighted sum is a matrix product over rows in that order: w @ V (gemv) for
the paired series and the generator term, and H^T H for the Gram, with rows
H_(n,e) = sqrt(w_n) (S_n^T grad phi(x_n))_e and Dbar = S S^T.  H^T H is a
symmetric rank-k update (syrk); it and gemv give the same bits at one and
two OpenBLAS threads, where a general matmul does not, so manifests do not
depend on the BLAS thread count.
"""
from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .effective import EffectiveModel
from .errors import ValidationError
from .measures import EmpiricalMeasure, MeasurePath, wasserstein2

# Gram eigenvalues below this fraction of the largest are treated as null
GRAM_CUTOFF = 1e-9
# a path starting further than this from nu0 (W2) has action +infinity
NU0_TOL = 0.05
# most functions a Hermite dictionary may hold (per_axis ** dim), which also
# bounds a plan's rate_basis ** dim
MAX_BASIS = 64


def _hermite_functions(u: np.ndarray, count: int) -> np.ndarray:
    """psi_k(u) = He_k(u) exp(-u^2/2) for k = 0..count-1 (count >= 2), (N, count)."""
    he = np.empty((len(u), count))
    he[:, 0] = 1.0
    he[:, 1] = u
    for k in range(1, count - 1):
        he[:, k + 1] = u * he[:, k] - k * he[:, k - 1]
    return he * np.exp(-0.5 * u * u)[:, None]


@dataclass(eq=False)
class TestDictionary:
    """Tensor Hermite functions He_k(u) exp(-|u|^2/2), u = (x - center)/scale.

    Row j of ``orders`` (B, d) holds function j's per-axis orders; center
    and scale are (d,) or scalars broadcast to it.  Value, gradient and
    Hessian are analytic; the Gaussian envelope keeps everything integrable
    against heavy-tailed empirical measures, standing in for compactly
    supported test functions.
    """

    __test__ = False  # "test function" in the variational sense, not pytest's

    orders: np.ndarray
    center: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        self.orders = np.array(self.orders, dtype=np.intp, ndmin=2)
        if self.orders.ndim != 2 or len(self.orders) < 2:
            raise ValidationError("a test dictionary needs at least 2 functions")
        if np.any(self.orders < 0):
            raise ValidationError(f"negative Hermite order in {self.orders.tolist()}")
        shape = (self.orders.shape[1],)
        self.center = np.broadcast_to(np.asarray(self.center, dtype=float), shape).copy()
        self.scale = np.broadcast_to(np.asarray(self.scale, dtype=float), shape).copy()
        if not np.all(self.scale > 0):
            raise ValidationError("dictionary scale must be positive")

    @property
    def size(self) -> int:
        return len(self.orders)

    @property
    def dim(self) -> int:
        return self.orders.shape[1]

    @property
    def labels(self) -> list[str]:
        return ["he" + "".join(str(k) for k in row) for row in self.orders.tolist()]

    def evaluate(self, x: np.ndarray):
        """Values (N, B), gradients (N, B, d) and Hessians (N, B, d, d) at x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        u = (x - self.center) / self.scale
        count = int(self.orders.max()) + 3
        # per axis and number of derivatives taken along it: (N, B) factors
        factors = [[], [], []]
        for a in range(self.dim):
            table = _hermite_functions(u[:, a], count)
            s = self.scale[a]
            for hits, factor in enumerate((1.0, -1.0 / s, 1.0 / (s * s))):
                factors[hits].append((factor * table)[:, self.orders[:, a] + hits])

        def product(hits):  # hits[c]: derivatives taken along axis c
            out = factors[hits[0]][0]
            for c in range(1, self.dim):
                out = out * factors[hits[c]][c]
            return out

        eye = np.eye(self.dim, dtype=int)
        values = product(np.zeros(self.dim, dtype=int))
        grads = np.empty(values.shape + (self.dim,))
        hessians = np.empty(values.shape + (self.dim, self.dim))
        for a in range(self.dim):
            grads[:, :, a] = product(eye[a])
            for b in range(a, self.dim):
                hessians[:, :, a, b] = hessians[:, :, b, a] = product(eye[a] + eye[b])
        return values, grads, hessians

    def head(self, size: int) -> "TestDictionary":
        """Nested sub-dictionary with the first ``size`` functions."""
        return TestDictionary(self.orders[:size], self.center, self.scale)

    def verify_derivatives(self, seed: int = 0, points: int = 16,
                           rel_tol: float = 1e-6) -> None:
        """Spot-check analytic gradients/Hessians against central differences."""
        rs = np.random.default_rng(seed)
        x = rs.normal(scale=1.5, size=(points, self.dim))
        h = 1e-5
        _, grads, hessians = self.evaluate(x)
        # per-function scales, as each function is checked on its own
        scale_g = np.maximum(np.abs(grads).max(axis=(0, 2)), 1e-10)
        scale_h = np.maximum(np.abs(hessians).max(axis=(0, 2, 3)), 1e-10)
        for a in range(self.dim):
            e = h * np.eye(self.dim)[a]
            (v_up, g_up, _), (v_down, g_down, _) = self.evaluate(x + e), self.evaluate(x - e)
            for what, diff, exact, tol in (
                    ("gradient", v_up - v_down, grads[:, :, a], 10 * rel_tol * scale_g),
                    ("Hessian", g_up - g_down, hessians[:, :, a], 100 * rel_tol * scale_h)):
                err = np.abs(diff / (2 * h) - exact).reshape(points, self.size, -1)
                bad = err.max(axis=(0, 2)) > tol
                if np.any(bad):
                    raise ValidationError(f"{what} of {self.labels[np.argmax(bad)]} "
                                          "disagrees with finite differences")


def hermite_dictionary(dim: int, per_axis: int = 6, center=0.0, scale=1.0) -> TestDictionary:
    """Tensor Hermite dictionary, per_axis functions per axis, derivatives checked."""
    if per_axis < 2:
        raise ValidationError("per_axis must be at least 2")
    if per_axis ** dim > MAX_BASIS:
        raise ValidationError(
            f"{per_axis}^{dim} = {per_axis ** dim} basis functions is more than "
            f"the limit of {MAX_BASIS}; lower per_axis")
    # sort by total degree so nested heads are refinement-ordered
    orders = sorted(itertools.product(range(per_axis), repeat=dim),
                    key=lambda o: (sum(o), o))
    d = TestDictionary(orders, center, scale)
    d.verify_derivatives()
    return d


def dictionary_for_path(path: MeasurePath, per_axis: int = 6) -> TestDictionary:
    """Hermite dictionary centered and scaled by the path's pooled moments."""
    means = np.stack([m.mean() for m in path.measures])
    stds = np.stack([np.sqrt(np.diag(m.cov())) for m in path.measures])
    center = means.mean(axis=0)
    # cover both the spread within snapshots and the drift of the means
    scale = np.sqrt(stds.mean(axis=0) ** 2 + means.var(axis=0)) * 1.5
    scale = np.maximum(scale, 1e-6)
    return hermite_dictionary(path.dim, per_axis, center, scale)


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


def evaluate_jdg(path: MeasurePath, model: EffectiveModel, dictionary: TestDictionary,
                 *, nu0: EmpiricalMeasure | None = None,
                 cutoff: float = GRAM_CUTOFF) -> RateReport:
    """Finite-dictionary evaluation of the path action (a certified lower bound).

    ``nu0`` optionally pins the required initial condition: when the path
    starts further than ``NU0_TOL`` from it in Wasserstein-2, the action is
    +infinity by definition and no integration is attempted.  ``dictionary``
    needs only ``size`` and ``evaluate(x)``, as on ``TestDictionary``.
    """
    if len(path) < 3:
        raise ValidationError("rate evaluation needs at least 3 snapshots")
    nbasis = dictionary.size
    times = path.times

    init_dist = None
    if nu0 is not None:
        init_dist = wasserstein2(path.measures[0], nu0)
        if init_dist > NU0_TOL:
            return RateReport(
                times=times, integrand=np.zeros(len(times)), total=np.inf,
                basis_size=nbasis, gram_condition=np.full(len(times), np.nan),
                initial_distance=init_dist)

    # per snapshot, over atoms in canonical order: the paired series
    # <theta_t, phi_j>, the generator term <theta_t, Lbar phi_j> and the Gram
    paired = np.empty((len(times), nbasis))
    lbar = np.empty((len(times), nbasis))
    grams = np.empty((len(times), nbasis, nbasis))
    for i, m in enumerate(path.measures):
        order = m.canonical_order()
        atoms, w = m.atoms[order], m.weights[order]
        mu = EmpiricalMeasure._trusted(atoms, w)
        values, grads, hessians = dictionary.evaluate(atoms)
        paired[i] = w @ values
        generated, noise = model.generator_and_noise(grads, hessians, atoms, mu)
        lbar[i] = w @ generated
        del generated  # free before the Gram rows, which are as large
        rows = np.einsum("nbd,nde->neb", grads, noise)
        rows = (rows * np.sqrt(w)[:, None, None]).reshape(-1, nbasis)
        grams[i] = rows.T @ rows
    a_all = np.gradient(paired, times, axis=0) - lbar

    integrand = np.empty(len(times))
    condition = np.empty(len(times))
    degenerate = []
    for i, (a, gram) in enumerate(zip(a_all, grams)):
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
                       abs_tol: float = 0.05) -> CostBoundReport:
    """Check J(path) <= (1 + slack) * cost, the variational upper bound.

    Any admissible control that realizes the path bounds the rate from
    above by its quadratic cost; ``abs_tol`` absorbs the discretization
    floor when the cost itself is near zero.
    """
    report = evaluate_jdg(path, model, dictionary)
    bound = max((1.0 + slack) * cost, abs_tol)
    margin = bound - report.total
    return CostBoundReport(passed=bool(report.total <= bound),
                           rate_value=report.total, cost=cost,
                           bound=bound, margin=margin)
