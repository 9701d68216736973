"""Frozen fast-scale generator on the unit torus: invariant measure and cell problem.

For frozen slow state x and measure mu, the fast generator is

    L g = f(x, y, mu) . grad g + 1/2 A(x, y, mu) : hess g,      A = sigma sigma^T,

acting on 1-periodic functions of y.  This module discretizes L on a regular
grid of the d-torus, solves the stationarity equation L* pi = 0 with unit
mass, and solves the cell (corrector) problem L phi_l = -f_l with pi-mean
zero, which is solvable exactly when f is centered against pi.

Derivatives act along one grid axis: ``"fd"`` applies 4th-order centered
stencils (d <= 3) to four shifts of the nodal array, views of one copy
wrapped by two cells at each end; ``"spectral"`` multiplies Fourier symbols
with ``numpy.fft`` (d <= 2), d/dy dropping the Nyquist mode of even n and
d^2/dy^2 keeping it.  L is never assembled: ``GeneratorOperator`` applies L
and L* from the nodal coefficients.  L @ u takes the shifts (or the rfft) of
u once per axis and shares them between the D1 and D2 terms.  A constant
sigma gives one A, broadcast over the nodes with stride 0, so the
ellipticity check and the operator's largest entry read one matrix and the
operator's 1/2 A_kk terms stay broadcast; the largest entry is computed
once, when the operator is built.  The corrector gate and grad phi take L
and the axis derivatives of one component of phi at a time, so a full-grid
pass holds grid-sized temporaries, not (size, d) ones.  GMRES solves
L* q = -L* 1 for pi = 1 + q (then unit mass) and L phi_l = -(f_l - int f_l
pi) (then pi-mean zero), preconditioned by mean(f) . grad + 1/2 mean(A) :
hess inverted in Fourier space with its zero mode sent to zero, so iterates
never meet ker L = constants.  It stops on an absolute residual target,
KRYLOV_MARGIN times the stationarity gate's form RESIDUAL_TOL |L| |x|: rounding leaves
eps |L| |x| with |L| ~ n^2, which the target clears by a fixed factor on any
grid.  Grids above MAX_UNKNOWNS are refused up front.

Two gates decide whether the cell problem is posed at all, each one
function that ``Scenario.validate`` runs too: ``ellipticity_floor`` refuses
an A whose smallest eigenvalue on the grid is below ELLIPTICITY_TOL
(``assemble_generator`` runs it), and ``check_centering`` refuses an f with
a component whose int f_l pi exceeds CENTERING_TOL sup |f_l|.

A layer that splits by axis, read off the evaluated fields (d >= 2, A
diagonal, and each f_k and A_kk reading only y_k, compared exactly on the
grid), has L = sum_k L_k: then pi is the product of the axes' invariant
densities and phi_l depends on y_l alone.  ``solve_cell`` solves such a
layer as d one-dimensional cells on n nodes with the same solvers, builds
pi and phi on the full grid, and runs every gate there against the
full-grid L.  Any other layer, every 1-d one included, is solved on the
full grid.
"""
from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CenteringError, EllipticityError, SolverError, ValidationError
from .krylov import RESTART, gmres

DEFAULT_N = {1: 256, 2: 64, 3: 32}

# ellipticity floor below which A is treated as degenerate
ELLIPTICITY_TOL = 1e-8
# refuse the cell solve when |int f_l pi| exceeds this times max|f_l|
CENTERING_TOL = 1e-6
# post-solve residual guard, relative to the data scale
RESIDUAL_TOL = 1e-8
# GMRES stopping target, as a fraction of the stationarity gate
KRYLOV_MARGIN = 1e-6
# most unknowns whose GMRES basis (RESTART + 1 vectors) fits in 128 MiB
MAX_UNKNOWNS = 128 * 2 ** 20 // (8 * (RESTART + 1))
# largest operator that np.asarray materializes (a 32 MiB matrix)
MAX_DENSE_UNKNOWNS = 2048


class TorusGrid:
    """Regular grid on [0,1)^dim with n nodes per axis, C-ordered flat index."""

    def __init__(self, dim: int, n: int | None = None):
        _require_integer(dim, "torus dimension")
        if dim not in (1, 2, 3):
            raise ValidationError(f"torus dimension must be 1, 2 or 3, got {dim}")
        n = DEFAULT_N[dim] if n is None else n
        _require_integer(n, "torus node count")
        if n < 8:
            raise ValidationError(f"need at least 8 nodes per axis, got {n}")
        if n ** dim > MAX_UNKNOWNS:
            raise ValidationError(f"{n}^{dim} grid nodes exceed MAX_UNKNOWNS={MAX_UNKNOWNS}, the "
                                  f"most whose {RESTART + 1}-vector GMRES basis fits in 128 MiB")
        self.dim = dim
        self.n = int(n)
        self.h = 1.0 / self.n
        self.size = self.n ** dim
        self.shape = (self.n,) * dim
        mesh = np.meshgrid(*[np.arange(self.n) * self.h] * dim, indexing="ij")
        self.nodes = np.stack([m.ravel() for m in mesh], axis=1)  # (size, dim)

    @property
    def weight(self) -> float:
        """Quadrature weight of one node (midpoint rule, uniform)."""
        return self.h ** self.dim

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Integral over the torus of nodal values, along the first axis."""
        return np.asarray(values).sum(axis=0) * self.weight

    def reshape(self, flat: np.ndarray) -> np.ndarray:
        return np.asarray(flat).reshape(self.shape + flat.shape[1:])


def _require_integer(value, name: str) -> None:
    """Refuse a bool, a float or a non-number where a count is wanted, naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# one-dimensional derivatives

@functools.lru_cache(maxsize=64)
def _symbol(n: int, scheme: str, order: int, half: bool) -> np.ndarray:
    """Symbol of d^order/dy^order on n nodes of [0,1), at rfft (half) or fft modes.

    Computed once per argument tuple and returned read-only.
    """
    if scheme not in ("fd", "spectral"):
        raise ValidationError(f"unknown scheme {scheme!r}, expected 'fd' or 'spectral'")
    k = np.arange(n // 2 + 1) if half else np.fft.fftfreq(n, 1.0 / n)
    if scheme == "fd":
        theta = 2.0 * np.pi * k / n
        if order == 1:
            sym = 1j * (8.0 * np.sin(theta) - np.sin(2.0 * theta)) * (n / 6.0)
        else:
            sym = (-30.0 + 32.0 * np.cos(theta) - 2.0 * np.cos(2.0 * theta)) * (n * n / 12.0)
    elif n % 2 != 0:
        raise ValidationError("spectral scheme needs an even number of nodes")
    elif order == 1:
        sym = np.where(np.abs(k) == n // 2, 0.0, 2j * np.pi * k)
    else:
        sym = -(2.0 * np.pi * k) ** 2
    sym.flags.writeable = False
    return sym


def _shifts(v: np.ndarray, axis: int) -> tuple:
    """(m2, m1, p1, p2): v shifted periodically along one axis, p1[i] = v[i + 1].

    All four are views of one wrapped copy: v with its last two and first
    two slices along the axis added at the other end.
    """
    n = v.shape[axis]
    lead = (slice(None),) * axis
    wrapped = np.concatenate((v[lead + (slice(n - 2, n),)], v, v[lead + (slice(0, 2),)]),
                             axis=axis)
    return tuple(wrapped[lead + (slice(j, j + n),)] for j in (0, 1, 3, 4))


def _stencil(v: np.ndarray, shifts: tuple, n: int, order: int) -> np.ndarray:
    """4th-order centered d^order/dy^order on n nodes from v's shifts.

    Computed in place, in the operation order of
    (8 (p1 - m1) - (p2 - m2)) n / 12 and (16 (p1 + m1) - (p2 + m2) - 30 v) n^2 / 12.
    """
    m2, m1, p1, p2 = shifts
    if order == 1:
        out, far = p1 - m1, p2 - m2
        out *= 8.0
        out -= far
        out *= n / 12.0
        return out
    out, far = p1 + m1, p2 + m2
    out *= 16.0
    out -= far
    out -= np.multiply(30.0, v, out=far)
    out *= n * n / 12.0
    return out


def _axis_derivatives(v: np.ndarray, axis: int, orders, scheme: str) -> list:
    """d^o/dy^o of periodic nodal values along one array axis, for each o in orders.

    The orders share one set of shifts (fd) or one rfft (spectral) of v.
    """
    n = v.shape[axis]
    if scheme == "fd":
        shifts = _shifts(v, axis)
        return [_stencil(v, shifts, n, order) for order in orders]
    shape = [1] * v.ndim
    shape[axis] = -1
    spec = np.fft.rfft(v, axis=axis)
    return [np.fft.irfft(spec * _symbol(n, scheme, order, True).reshape(shape), n=n, axis=axis)
            for order in orders]


def _derivative(v: np.ndarray, axis: int, order: int, scheme: str) -> np.ndarray:
    """d^order/dy^order of periodic nodal values along one array axis."""
    return _axis_derivatives(v, axis, (order,), scheme)[0]


def apply_axis_derivative(values: np.ndarray, grid: TorusGrid, axis: int,
                          scheme: str) -> np.ndarray:
    """d/dy along one torus axis of nodal values."""
    return _derivative(grid.reshape(values), axis, 1, scheme).reshape(values.shape)


# ---------------------------------------------------------------------------
# coefficient container

@dataclass
class FastCoefficients:
    """The fast layer, read by the cell solver, the stepper and validation.

    ``f(x, y, mu)`` maps query points ``y`` of shape (M, dim) to drift values
    (M, dim); ``sigma(x, y, mu)`` to (M, dim, noise_dim) or one shared
    (dim, noise_dim) matrix, which may be given as ``sigma`` itself.  ``x``
    is a slow state of shape (dim_x,) or None, ``mu`` an empirical measure or
    None.  Flags declare which arguments the callables actually read, so
    solvers know when a single cell solve can be reused.
    """

    dim: int
    f: Callable
    sigma: Callable | np.ndarray
    noise_dim: int | None = None
    x_dependent: bool = False
    mu_dependent: bool = False

    def __post_init__(self):
        if self.noise_dim is None:
            self.noise_dim = self.dim
        if not callable(self.sigma):
            matrix = np.asarray(self.sigma, dtype=float)
            self.sigma = lambda x, y, mu: matrix

    def fields(self, grid: TorusGrid, x=None, mu=None):
        """Evaluate (f, A) on the grid; A = sigma sigma^T, symmetrized.

        A constant sigma (one matrix) gives one A, broadcast over the nodes
        as a read-only field of stride 0.  Non-finite values in either field
        are refused, naming the field: the solver's gates compare against
        them and would let NaN through.
        """
        y = grid.nodes
        fv = np.asarray(self.f(x, y, mu), dtype=float)
        if fv.shape != (grid.size, self.dim):
            raise ValidationError(
                f"fast drift returned shape {fv.shape}, expected {(grid.size, self.dim)}")
        _require_finite(fv, "fast drift f")
        sv = np.asarray(self.sigma(x, y, mu), dtype=float)
        constant = sv.ndim == 2
        want = (self.dim, self.noise_dim) if constant else (grid.size, self.dim, self.noise_dim)
        if sv.shape != want:
            raise ValidationError(f"fast diffusion returned shape {sv.shape}, expected {want}")
        if constant:
            sv = sv[None]
        a = np.einsum("nik,njk->nij", sv, sv)
        a = 0.5 * (a + np.swapaxes(a, 1, 2))
        _require_finite(a, "fast diffusion A = sigma sigma^T")
        return fv, np.broadcast_to(a, (grid.size, self.dim, self.dim)) if constant else a


def _require_finite(values: np.ndarray, name: str) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValidationError(
            f"{name} has {int(bad.sum())} non-finite values on the cell grid")


def _one_if_constant(a_vals: np.ndarray) -> np.ndarray:
    """A field of stride 0 (a constant A) as its one matrix, (1, d, d); else itself."""
    return a_vals[:1] if a_vals.strides[0] == 0 else a_vals


def ellipticity_floor(a_vals: np.ndarray) -> float:
    """The ellipticity gate: the smallest eigenvalue of A over the grid.

    A field of stride 0 is one matrix.  Raises EllipticityError when the
    floor is below ELLIPTICITY_TOL.
    """
    lam = float(np.linalg.eigvalsh(_one_if_constant(a_vals))[:, 0].min())
    if lam < ELLIPTICITY_TOL:
        raise EllipticityError(
            f"diffusion matrix eigenvalue floor {lam:.3e} below {ELLIPTICITY_TOL:.1e}")
    return lam


def _largest_entry(grid: TorusGrid, f_vals: np.ndarray, a_vals: np.ndarray,
                   scheme: str) -> float:
    """Largest |entry| of the matrix of L, and of L*, from the coefficients.

    With c1, c2 the circulant columns of D1, D2 (c1[0] = 0), a row holds
    tr(A) c2[0] / 2 on the diagonal, f_k c1[j] + A_kk c2[j] / 2 along axis
    k (offsets visited by decreasing bound) and A_kl c1[i] c1[j] off-axis.
    """
    c1, c2 = (_derivative(np.eye(grid.n, 1)[:, 0], 0, o, scheme) for o in (1, 2))
    a_vals = _one_if_constant(a_vals)
    off_diagonal = a_vals[:, ~np.eye(grid.dim, dtype=bool)]
    off_axis = np.abs(off_diagonal).max(initial=0.0) * np.abs(c1).max() ** 2
    best = float(max(np.abs(np.trace(a_vals, axis1=1, axis2=2)).max() * 0.5 * abs(c2[0]),
                     off_axis))
    for f, a in zip(f_vals.T, 0.5 * np.diagonal(a_vals, axis1=1, axis2=2).T):
        bound = np.abs(f).max() * np.abs(c1) + np.abs(a).max() * np.abs(c2)
        for j in np.argsort(-bound[1:]) + 1:
            if bound[j] <= best:
                break
            best = max(best, float(np.abs(f * c1[j] + a * c2[j]).max()))
    return best


class GeneratorOperator:
    """Matrix-free L = f.grad + 1/2 A:hess on a torus grid, or its adjoint.

    ``L @ u`` applies L to nodal values of shape (size,) or (size, k) as a sum
    of terms, coefficient field times a product of axis derivatives; ``L.T``
    applies sum_k -D1_k(f_k g) + 1/2 D2_k(A_kk g) + D1_k D1_l(A_kl g).  Solves
    record their GMRES iterations in ``krylov``.
    """

    def __init__(self, grid: TorusGrid, f_vals: np.ndarray, a_vals: np.ndarray, scheme: str):
        self.grid, self.scheme, self.adjoint = grid, scheme, False
        self.krylov: dict = {}
        dim = grid.dim
        self._abs_max = _largest_entry(grid, f_vals, a_vals, scheme)
        terms = [(f_vals[:, k], ((k, 1),)) for k in range(dim)]
        # a constant A keeps its 1/2 A_kk broadcast over the nodes (stride 0)
        one = _one_if_constant(a_vals)
        terms += [(np.broadcast_to(0.5 * one[:, k, k], (grid.size,)), ((k, 2),))
                  for k in range(dim)]
        # the pair (k, l) carries A_kl d^2/dy_k dy_l in both orders
        terms += [(a_vals[:, k, l], ((k, 1), (l, 1)))
                  for k in range(dim) for l in range(k + 1, dim)]
        # zero fields are dropped; the trailing axis holds operand columns
        self._terms = [(c.reshape(grid.shape + (1,)), ops) for c, ops in terms if np.any(c)]
        # the derivatives of the operand that the terms start from, by axis
        self._first_orders: dict = {}
        for _, ((axis, order), *_) in self._terms:
            orders = self._first_orders.setdefault(axis, [])
            if order not in orders:
                orders.append(order)
        # mean-coefficient symbol on the rfftn grid, whose last axis is halved
        sym = {order: np.ix_(*[_symbol(grid.n, scheme, order, k == dim - 1)
                               for k in range(dim)]) for order in (1, 2)}
        mean = sum(c.mean() * math.prod(sym[order][k] for k, order in ops)
                   for c, ops in self._terms)
        mean[(0,) * dim] = np.inf  # the zero mode goes to zero
        self._inverse_symbol = 1.0 / mean

    @property
    def T(self) -> "GeneratorOperator":
        out = copy.copy(self)
        out.adjoint = not self.adjoint
        return out

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = u.reshape(self.grid.shape + (-1,))
        out = np.zeros_like(v)
        if self.adjoint:
            for coef, ops in self._terms:
                w = coef * v
                for axis, order in ops:
                    w = _derivative(w, axis, order, self.scheme)
                # D1* = -D1 and D2* = D2 on the torus
                if sum(o == 1 for _, o in ops) % 2:
                    out -= w
                else:
                    out += w
            return out.reshape(u.shape)
        # every term starts from a derivative of v, each taken once
        first = {(axis, o): d for axis, orders in self._first_orders.items()
                 for o, d in zip(orders, _axis_derivatives(v, axis, orders, self.scheme))}
        for coef, ops in self._terms:
            w = first[ops[0]]
            for axis, order in ops[1:]:
                w = _derivative(w, axis, order, self.scheme)
            out += coef * w
        return out.reshape(u.shape)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """Solve the mean-coefficient equation for r (conjugate symbol for L*)."""
        inv = np.conj(self._inverse_symbol) if self.adjoint else self._inverse_symbol
        spec = np.fft.rfftn(r.reshape(self.grid.shape)) * inv
        return np.fft.irfftn(spec, self.grid.shape, range(self.grid.dim)).reshape(r.shape)

    def abs_max(self) -> float:
        """Largest |entry| of the matrix of L (or L*), computed at construction."""
        return self._abs_max

    def solve(self, b: np.ndarray, size: float):
        """GMRES for self @ x = b, |x| ~ size, to the module's target; (x, iterations)."""
        target = KRYLOV_MARGIN * RESIDUAL_TOL * self.abs_max() * size
        return gmres(self.__matmul__, self.precondition, b, target)

    def __array__(self, dtype=None, copy=None):
        """Dense matrix, column by column from the matvec; small grids only."""
        if self.grid.size > MAX_DENSE_UNKNOWNS:
            raise ValidationError(f"dense matrix refused: {self.grid.size} unknowns exceed "
                                  f"MAX_DENSE_UNKNOWNS={MAX_DENSE_UNKNOWNS}")
        dense = np.column_stack([self @ col for col in np.eye(self.grid.size)])
        return dense.astype(dtype or float, copy=False)


def assemble_generator(grid: TorusGrid, f_vals: np.ndarray, a_vals: np.ndarray,
                       scheme: str) -> GeneratorOperator:
    """Matrix-free L on the grid; raises EllipticityError when A degenerates."""
    if scheme == "spectral" and grid.dim > 2:
        raise ValidationError("spectral scheme is limited to dimensions 1 and 2")
    ellipticity_floor(a_vals)
    return GeneratorOperator(grid, f_vals, a_vals, scheme)


# ---------------------------------------------------------------------------
# null-space solves

def solve_invariant_measure(L: GeneratorOperator, grid: TorusGrid):
    """Solve L* pi = 0 with unit mass; returns (pi, sup residual of L* pi).

    Under ellipticity ker L* is spanned by a density of nonzero mean, so
    pi = 1 + q with q of mean zero solving L* q = -L* 1, then unit mass.
    """
    LT = L.T
    ones = np.ones(grid.size)
    q, its = LT.solve(-(LT @ ones), 1.0)
    L.krylov["pi"] = [its]
    return _stationarity_gates(L, (ones + q) / grid.integrate(ones + q), grid)


def _stationarity_gates(L: GeneratorOperator, pi: np.ndarray, grid: TorusGrid):
    """Gate a density pi of unit mass on L's grid; returns (pi, sup residual of L* pi).

    Raises SolverError when L* pi fails the residual check, when pi has more
    than roundoff-scale negative mass, or when its mass is not 1; negatives
    at roundoff scale are clipped and the unit mass restored.
    """
    resid = float(np.max(np.abs(L.T @ pi)))
    scale = max(float(np.max(np.abs(pi))), 1.0)
    if resid > RESIDUAL_TOL * scale * L.abs_max():
        raise SolverError(f"stationarity residual {resid:.3e} failed the solve check")
    if pi.min() < -1e-10 * max(pi.max(), 1.0):
        raise SolverError(f"invariant density has negative mass {pi.min():.3e}")
    if pi.min() < 0.0:
        # roundoff-scale negatives only; clip and restore exact unit mass
        pi = np.clip(pi, 0.0, None)
        pi = pi / grid.integrate(pi)
    mass = float(grid.integrate(pi))
    if abs(mass - 1.0) > 1e-12:
        raise SolverError(f"invariant density mass {mass!r} not normalized")
    return pi, resid


def check_centering(f_vals: np.ndarray, pi: np.ndarray, grid: TorusGrid):
    """The centering gate: (int f pi dy, its size relative to sup |f|), per component.

    The cell problem is solvable only when the defect vanishes; raises
    CenteringError when a component's relative defect exceeds CENTERING_TOL.
    """
    defect = grid.integrate(f_vals * pi[:, None])
    rel = np.abs(defect) / np.maximum(np.abs(f_vals).max(axis=0), 1e-300)
    if np.any(rel > CENTERING_TOL):
        worst = int(np.argmax(rel))
        raise CenteringError(
            f"fast drift component {worst} has centering defect "
            f"{defect[worst]:.3e} (relative {rel[worst]:.3e} > {CENTERING_TOL:.1e}); "
            "the cell problem is not solvable for this coefficient set")
    return defect, rel


def _corrector_gate(L: GeneratorOperator, phi: np.ndarray, centered: np.ndarray,
                    f_vals: np.ndarray) -> np.ndarray:
    """sup |L phi_l + centered f_l| per component; SolverError above the gate.

    L applies to one component at a time: a (size, d) operand has a short
    innermost axis, which makes each whole-grid pass slower and its
    temporaries d times larger.
    """
    resid = np.array([np.abs(L @ p + c).max() for p, c in zip(phi.T, centered.T)])
    if np.any(resid > RESIDUAL_TOL * np.maximum(np.abs(f_vals).max(axis=0), 1.0) * 1e3):
        raise SolverError(f"cell residuals {resid} failed the solve check")
    return resid


def solve_cell_problem(L: GeneratorOperator, pi: np.ndarray, f_vals: np.ndarray,
                       grid: TorusGrid):
    """Solve L phi_l = -f_l with pi-mean zero for each component l.

    Raises CenteringError when int f pi exceeds CENTERING_TOL sup|f|; the
    residual that remains below the gate is projected out so the discrete
    system is exactly solvable.
    """
    defect, _ = check_centering(f_vals, pi, grid)
    centered = f_vals - defect[None, :]  # project onto the solvable range
    # the preconditioned right-hand side gauges the size of phi_l
    cols, its = zip(*[L.solve(-c, np.abs(L.precondition(c)).max()) for c in centered.T])
    phi, L.krylov["phi"] = np.stack(cols, axis=1), list(its)
    phi -= (pi * grid.weight) @ phi  # pi-mean zero; constants span ker L
    return phi, _corrector_gate(L, phi, centered, f_vals), defect


# ---------------------------------------------------------------------------
# fast layers that split by axis

def _axis_line(values: np.ndarray, grid: TorusGrid, axis: int) -> np.ndarray | None:
    """Nodal values along one axis when they read only y_axis, exactly; else None."""
    v = np.moveaxis(grid.reshape(values), axis, 0).reshape(grid.n, -1)
    line = v[:, 0]
    return line if np.array_equal(v, np.broadcast_to(line[:, None], v.shape)) else None


def _axis_lines(grid: TorusGrid, f_vals: np.ndarray, a_vals: np.ndarray) -> list | None:
    """Each axis's (f_k, A_kk) on its own line when the layer splits by axis, else None.

    It splits when d >= 2, A is diagonal and every f_k and A_kk reads only
    y_k, all checked exactly on the grid's values.
    """
    if grid.dim < 2:
        return None
    if np.any(_one_if_constant(a_vals)[:, ~np.eye(grid.dim, dtype=bool)]):
        return None
    lines = []
    for k in range(grid.dim):
        pair = (_axis_line(f_vals[:, k], grid, k), _axis_line(a_vals[:, k, k], grid, k))
        if pair[0] is None or pair[1] is None:
            return None
        lines.append(pair)
    return lines


def _on_axis(line: np.ndarray, grid: TorusGrid, axis: int) -> np.ndarray:
    """Flat nodal values of the function y -> line(y_axis) on the grid."""
    shape = [1] * grid.dim
    shape[axis] = grid.n
    return np.broadcast_to(line.reshape(shape), grid.shape).ravel()


def _solve_by_axis(L: GeneratorOperator, grid: TorusGrid, f_vals: np.ndarray,
                   lines: list, scheme: str):
    """The cell of a layer L = sum_k L_k that splits by axis, one line per axis.

    pi is the product of the lines' invariant densities, renormalized on the
    grid; phi_l(y) = phi_l(y_l) from line l, shifted to pi-mean zero, so
    grad phi is diagonal.  The full-grid gates run on L.  Returns the line
    operators (for their GMRES counts), pi, its residual, phi, its
    residuals, the centering defect and grad phi.
    """
    line = TorusGrid(1, grid.n)
    ops = [assemble_generator(line, f[:, None], a[:, None, None], scheme) for f, a in lines]
    pis = [solve_invariant_measure(op, line)[0] for op in ops]
    pi = functools.reduce(np.multiply.outer, pis).ravel()
    pi, resid_pi = _stationarity_gates(L, pi / grid.integrate(pi), grid)
    defect, _ = check_centering(f_vals, pi, grid)
    phi = np.empty((grid.size, grid.dim))
    grad_phi = np.zeros((grid.size, grid.dim, grid.dim))
    for k, (op, p, (f, _)) in enumerate(zip(ops, pis, lines)):
        phi_k = solve_cell_problem(op, p, f[:, None], line)[0]
        phi[:, k] = _on_axis(phi_k[:, 0], grid, k)
        grad_phi[:, k, k] = _on_axis(apply_axis_derivative(phi_k, line, 0, scheme)[:, 0],
                                     grid, k)
    phi -= (pi * grid.weight) @ phi
    resid_phi = _corrector_gate(L, phi, f_vals - defect[None, :], f_vals)
    return ops, pi, resid_pi, phi, resid_phi, defect, grad_phi


@dataclass
class CellSolution:
    """Invariant measure and corrector of one frozen fast generator."""

    grid: TorusGrid
    scheme: str
    pi: np.ndarray            # (size,)
    phi: np.ndarray           # (size, dim)
    grad_phi: np.ndarray      # (size, dim, dim); [n, l, k] = d phi_l / d y_k
    f_vals: np.ndarray        # (size, dim)
    a_vals: np.ndarray        # (size, dim, dim)
    centering: np.ndarray     # (dim,)
    residual_pi: float
    residual_phi: np.ndarray
    provenance: dict = field(default_factory=dict)

    def pi_average(self, values: np.ndarray) -> np.ndarray:
        """pi-weighted average over the torus; values indexed (size, ...)."""
        w = self.pi * self.grid.weight
        return np.tensordot(w, values, axes=(0, 0))


def solve_cell(coeffs: FastCoefficients, x=None, mu=None, scheme: str = "auto",
               n: int | None = None) -> CellSolution:
    """Full frozen-cell workflow: operator, stationary measure, corrector, gradient.

    A layer that splits by axis (d >= 2, A diagonal, f_k and A_kk reading
    only y_k) is solved as d one-dimensional cells on the grid's lines and
    gated on the full grid; any other layer by GMRES on the full grid.
    ``provenance["cell_route"]`` names the route ("axis" or "grid"), and
    ``provenance["krylov_iterations"]`` lists the GMRES iterations of each
    solve: under "pi" one per line (axis route) or one for the grid, under
    "phi" one per component l, solved on line l on the axis route.
    """
    if scheme == "auto":
        scheme = "spectral" if coeffs.dim <= 2 else "fd"
    grid = TorusGrid(coeffs.dim, n)
    f_vals, a_vals = coeffs.fields(grid, x, mu)
    L = assemble_generator(grid, f_vals, a_vals, scheme)
    lines = _axis_lines(grid, f_vals, a_vals)
    if lines is None:
        ops = [L]
        pi, resid_pi = solve_invariant_measure(L, grid)
        phi, resid_phi, defect = solve_cell_problem(L, pi, f_vals, grid)
        grad_phi = np.empty((grid.size, grid.dim, grid.dim))
        for l, k in np.ndindex(grid.dim, grid.dim):
            grad_phi[:, l, k] = apply_axis_derivative(phi[:, l], grid, k, scheme)
    else:
        ops, pi, resid_pi, phi, resid_phi, defect, grad_phi = _solve_by_axis(
            L, grid, f_vals, lines, scheme)
    krylov = {key: [its for op in ops for its in op.krylov[key]] for key in ("pi", "phi")}
    return CellSolution(
        grid=grid, scheme=scheme, pi=pi, phi=phi, grad_phi=grad_phi,
        f_vals=f_vals, a_vals=a_vals, centering=defect,
        residual_pi=resid_pi, residual_phi=resid_phi,
        provenance={"n": grid.n, "scheme": scheme, "cell_route": "grid" if lines is None else "axis",
                    "centering_tol": CENTERING_TOL, "residual_tol": RESIDUAL_TOL,
                    "krylov_iterations": krylov, "residual_pi": resid_pi,
                    "residual_phi": resid_phi.tolist()},
    )
