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
yields all values, gradients and Hessians as products of its rows.  They
are exact by construction at any center and scale; the tests pin them to
numpy's ``hermite_e`` series in 1-, 2- and 3-d.

Permutation exactness: each snapshot's atoms are first put in one canonical
order (``EmpiricalMeasure.canonical_order``), so every array evaluated from
them has the same bits whatever the atoms' order.  Every sum against the
atoms' masses w = (1/N, ..., 1/N) is a matrix product over rows in that
order: w @ V (gemv) for the paired series and the generator term, and H^T H
for the Gram, with rows H_(n,e) = sqrt(w_n) (S_n^T grad phi(x_n))_e and
Dbar = S S^T.  H^T H is a symmetric rank-k update (syrk); it and gemv give
the same bits at one and two OpenBLAS threads, where a general matmul does
not, so manifests do not depend on the BLAS thread count.
"""
from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .effective import EffectiveModel, _generator
from .errors import ValidationError
from .measures import EmpiricalMeasure, MeasurePath, wasserstein2

# Gram eigenvalues below this fraction of the largest are treated as null
GRAM_CUTOFF = 1e-9
# fewest snapshots a path needs for its action, which a jdg plan must record
MIN_SNAPSHOTS = 3
# a path starting further than this from nu0 (W2) has action +infinity
NU0_TOL = 0.05
# most functions a Hermite dictionary may hold (per_axis ** dim)
MAX_BASIS = 64


def _hermite_table(u: np.ndarray, count: int) -> np.ndarray:
    """psi_k(u) = He_k(u) exp(-u^2/2) for k = 0..count-1 (count >= 2) as rows, (count, N)."""
    table = np.empty((count, len(u)))
    table[0] = 1.0
    table[1] = u
    for k in range(1, count - 1):
        np.multiply(u, table[k], out=table[k + 1])
        table[k + 1] -= k * table[k - 1]
    table *= np.exp(-0.5 * u * u)
    return table


@dataclass(eq=False)
class TestDictionary:
    """Tensor Hermite functions He_k(u) exp(-|u|^2/2), u = (x - center)/scale.

    Row j of ``orders`` (B, d) holds function j's per-axis orders; center
    and scale are finite, (d,) or scalars broadcast to it.  Value, gradient
    and Hessian are analytic; the Gaussian envelope keeps everything
    integrable against heavy-tailed empirical measures, standing in for
    compactly supported test functions.
    """

    __test__ = False  # "test function" in the variational sense, not pytest's

    orders: np.ndarray
    center: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        orders = np.array(self.orders, dtype=float, ndmin=2)
        if orders.ndim != 2 or orders.shape[1] == 0:
            raise ValidationError(
                f"orders must be a (functions, dim) array, got shape {orders.shape}")
        if len(orders) < 2:
            raise ValidationError("a test dictionary needs at least 2 functions")
        fractional = orders[orders != np.floor(orders)]
        if fractional.size:
            raise ValidationError(f"Hermite order {fractional[0]:g} is not a whole number")
        if orders.min() < 0:
            raise ValidationError(f"negative Hermite order {orders.min():.0f}")
        if orders.max() > MAX_BASIS - 1:
            raise ValidationError(f"Hermite order {orders.max():.0f} is more than the limit "
                                  f"of {MAX_BASIS - 1}")
        self.orders = orders.astype(np.intp)
        shape = (self.orders.shape[1],)
        self.center = np.broadcast_to(np.asarray(self.center, dtype=float), shape).copy()
        self.scale = np.broadcast_to(np.asarray(self.scale, dtype=float), shape).copy()
        if not np.all(self.scale > 0):
            raise ValidationError("dictionary scale must be positive")
        # a non-finite center or scale leaves every Gram matrix degenerate or NaN
        for name, value in (("center", self.center), ("scale", self.scale)):
            if not np.all(np.isfinite(value)):
                raise ValidationError(f"dictionary {name} must be finite, got {value.tolist()}")

    @property
    def size(self) -> int:
        return len(self.orders)

    @property
    def dim(self) -> int:
        return self.orders.shape[1]

    def evaluate(self, x: np.ndarray):
        """Values (N, B), gradients (N, B, d) and Hessians (N, B, d, d) at x.

        x is (N, d); a 1-d dictionary also takes N points as a flat array.
        Each output is a product over the axes of rows gathered from that
        axis's psi_k table, multiplied into the output axis by axis.  Values
        are F-ordered: ``w @ values`` in the action then runs the gemv kernel
        whose bits the manifests hold.  Gradients and Hessians are C-ordered.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1 and self.dim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValidationError(f"points have shape {x.shape}, but the dictionary "
                                  f"has dim {self.dim}")
        n, dim = x.shape
        u = (x - self.center) / self.scale
        count = int(self.orders.max()) + 3
        tables = [_hermite_table(u[:, a], count) for a in range(dim)]
        # taking a derivative along an axis multiplies by -1/s and shifts the order by one
        scales = [(1.0, -1.0 / s, 1.0 / (s * s)) for s in self.scale]
        # the running product and, past the first axis, the next axis's factor
        acc = np.empty((self.size, n))
        factor = np.empty_like(acc) if dim > 1 else None

        def product(hits, out):  # hits[c]: derivatives along axis c; out is (B, N)
            for c in range(dim):
                dest = factor if c else acc
                # orders are in range by construction; "clip" takes straight into dest
                np.take(tables[c], self.orders[:, c] + hits[c], axis=0, out=dest,
                        mode="clip")
                dest *= scales[c][hits[c]]
                if c:
                    np.multiply(acc, factor, out=acc)
            out[...] = acc

        eye = np.eye(dim, dtype=int)
        values = np.empty((self.size, n)).T
        grads = np.empty((n, self.size, dim))
        hessians = np.empty((n, self.size, dim, dim))
        product(np.zeros(dim, dtype=int), values.T)
        for a in range(dim):
            product(eye[a], grads[:, :, a].T)
            for b in range(a, dim):
                product(eye[a] + eye[b], hessians[:, :, a, b].T)
                if b > a:
                    hessians[:, :, b, a] = hessians[:, :, a, b]
        return values, grads, hessians

    def head(self, size: int) -> "TestDictionary":
        """Nested sub-dictionary with the first ``size`` functions."""
        return TestDictionary(self.orders[:size], self.center, self.scale)


def check_basis(per_axis: int, dim: int) -> None:
    """Refuse a tensor Hermite dictionary of fewer than 2 functions per axis,
    or of more than MAX_BASIS in all."""
    if per_axis < 2:
        raise ValidationError(f"a Hermite dictionary needs at least 2 functions per axis, "
                              f"got {per_axis}")
    if per_axis ** dim > MAX_BASIS:
        raise ValidationError(f"{per_axis}^{dim} = {per_axis ** dim} basis functions in "
                              f"{dim}-d is more than the limit of {MAX_BASIS}")


def hermite_dictionary(dim: int, per_axis: int = 6, center=0.0, scale=1.0) -> TestDictionary:
    """Tensor Hermite dictionary, per_axis functions per axis.

    Values and derivatives are exact by construction at any center and scale
    (see the module docstring); the hermeval test pins them.
    """
    check_basis(per_axis, dim)
    # sort by total degree so nested heads are refinement-ordered
    orders = sorted(itertools.product(range(per_axis), repeat=dim),
                    key=lambda o: (sum(o), o))
    return TestDictionary(orders, center, scale)


def dictionary_for_path(path: MeasurePath, per_axis: int = 6) -> TestDictionary:
    """Hermite dictionary centered and scaled by the path's pooled moments."""
    means = np.stack([m.mean() for m in path.measures])
    stds = np.stack([np.sqrt(np.diag(m.cov())) for m in path.measures])
    center = means.mean(axis=0)
    # cover both the spread within snapshots and the drift of the means
    scale = np.sqrt(stds.mean(axis=0) ** 2 + means.var(axis=0)) * 1.5
    scale = np.maximum(scale, 1e-6)
    return hermite_dictionary(path.dim, per_axis, center, scale)


def _json_scalar(value: float):
    """A float as artifacts write it: NaN (no value) as null, an infinity as
    "inf" or "-inf"; their ``json.dump(allow_nan=False)`` refuses any other."""
    value = float(value)
    if np.isnan(value):
        return None
    if np.isfinite(value):
        return value
    return "inf" if value > 0 else "-inf"


def write_json(path, obj) -> None:
    """The artifacts' JSON: sorted keys, indent 2, no NaN or infinity, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


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

    @property
    def worst_condition(self) -> float:
        """The largest Gram condition over the times whose Gram matrix is not
        degenerate, and NaN when every one is."""
        cond = self.gram_condition
        return np.nan if np.isnan(cond).all() else float(np.nanmax(cond))

    def as_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "integrand": [_json_scalar(v) for v in self.integrand.tolist()],
            "total": _json_scalar(self.total),
            "basis": self.basis_size,
            "gram_condition": [_json_scalar(c) for c in self.gram_condition.tolist()],
            "lower_bound": self.lower_bound,
            "degenerate_times": self.degenerate_times,
            "initial_distance": self.initial_distance,
        }

    def save_json(self, path) -> None:
        write_json(path, self.as_dict())


def _snapshot_terms(measure: EmpiricalMeasure, model: EffectiveModel, dictionary):
    """One snapshot's paired series <theta_t, phi_j>, generator term
    <theta_t, Lbar phi_j> and Gram matrix, over its atoms in canonical order.

    Each dictionary array is dropped once its last term is taken, and all of
    them when this returns, before the next snapshot is evaluated.
    """
    atoms = measure.atoms[measure.canonical_order()]
    w = np.full(len(atoms), 1.0 / len(atoms))
    values, grads, hessians = dictionary.evaluate(atoms)
    paired = w @ values
    del values
    drift, diffusion, noise = model.coefficients(atoms, EmpiricalMeasure._trusted(atoms))
    lbar = w @ _generator(drift, diffusion, grads, hessians)
    del hessians
    # a constant model's one noise matrix, broadcast over the atoms
    noise = np.broadcast_to(noise, drift.shape + drift.shape[-1:])
    rows = np.einsum("nbd,nde->neb", grads, noise)
    del grads
    rows *= np.sqrt(w)[:, None, None]
    rows = rows.reshape(-1, len(paired))
    return paired, lbar, rows.T @ rows


def evaluate_jdg(path: MeasurePath, model: EffectiveModel, dictionary: TestDictionary,
                 *, nu0: EmpiricalMeasure | None = None) -> RateReport:
    """Finite-dictionary evaluation of the path action (a certified lower bound).

    Gram eigen-directions below GRAM_CUTOFF times the largest eigenvalue
    are dropped from each snapshot's quotient.  ``nu0`` optionally pins the
    required initial condition: when the path starts further than
    ``NU0_TOL`` from it in Wasserstein-2, the action is +infinity by
    definition and no integration is attempted.  ``dictionary`` needs only
    ``size`` and ``evaluate(x)``, as on ``TestDictionary``.
    """
    if len(path) < MIN_SNAPSHOTS:
        raise ValidationError(f"rate evaluation needs at least {MIN_SNAPSHOTS} snapshots")
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

    paired = np.empty((len(times), nbasis))
    lbar = np.empty((len(times), nbasis))
    grams = np.empty((len(times), nbasis, nbasis))
    for i, m in enumerate(path.measures):
        paired[i], lbar[i], grams[i] = _snapshot_terms(m, model, dictionary)
    a_all = np.gradient(paired, times, axis=0) - lbar

    integrand = np.empty(len(times))
    condition = np.empty(len(times))
    degenerate = []
    for i, (a, gram) in enumerate(zip(a_all, grams)):
        lam, vec = np.linalg.eigh(gram)
        keep = lam > GRAM_CUTOFF * max(lam[-1], 0.0)
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
