import dataclasses
import time

import numpy as np
import pytest
from scipy.special import i0

from mvhomog import krylov
from mvhomog.effective import SeparablePotential, averaged_coefficients, gamma_separable
from mvhomog.errors import CenteringError, EllipticityError, SolverError, ValidationError
from mvhomog.experiments import write_cell_table
from mvhomog.scenarios import get_scenario
from mvhomog.torus import (DEFAULT_N, MAX_DENSE_UNKNOWNS, MAX_UNKNOWNS, FastCoefficients,
                           GeneratorOperator, TorusGrid, _derivative, apply_axis_derivative,
                           _corrector_gate, _stationarity_gates, assemble_generator,
                           solve_cell, solve_cell_problem, solve_invariant_measure)

TWO_PI = 2.0 * np.pi


def _coeffs_1d(amp=1.0, sigma2=2.0):
    def f(x, y, mu):
        y = np.atleast_2d(y)
        return (amp * TWO_PI * np.sin(TWO_PI * y[:, 0]))[:, None]

    def sigma(x, y, mu):
        return np.sqrt(sigma2) * np.eye(1)

    return FastCoefficients(dim=1, f=f, sigma=sigma)


def test_derivative_matrices_on_trig():
    n = 64
    y = np.arange(n) / n
    v = np.sin(TWO_PI * y)
    for scheme, tol in (("fd", 1e-4), ("spectral", 1e-11)):
        err1 = np.abs(_derivative(v, 0, 1, scheme) - TWO_PI * np.cos(TWO_PI * y)).max()
        err2 = np.abs(_derivative(v, 0, 2, scheme) + TWO_PI ** 2 * np.sin(TWO_PI * y)).max()
        assert err1 < tol * TWO_PI
        assert err2 < tol * TWO_PI ** 2


def test_fd_derivative_is_fourth_order():
    errs = []
    for n in (32, 64, 128):
        y = np.arange(n) / n
        v = np.sin(TWO_PI * y)
        errs.append(np.abs(_derivative(v, 0, 1, "fd") - TWO_PI * np.cos(TWO_PI * y)).max())
    assert errs[0] / errs[1] > 12
    assert errs[1] / errs[2] > 12


def test_axis_derivative_2d():
    grid = TorusGrid(2, 32)
    vals = np.sin(TWO_PI * grid.nodes[:, 0]) * np.cos(TWO_PI * grid.nodes[:, 1])
    dv = apply_axis_derivative(vals[:, None], grid, 1, "spectral")[:, 0]
    want = -TWO_PI * np.sin(TWO_PI * grid.nodes[:, 0]) * np.sin(TWO_PI * grid.nodes[:, 1])
    assert np.abs(dv - want).max() < 1e-10


def test_invariant_measure_matches_gibbs():
    coeffs = _coeffs_1d()
    grid = TorusGrid(1, 256)
    f_vals, a_vals = coeffs.fields(grid, None, None)
    L = assemble_generator(grid, f_vals, a_vals, "spectral")
    pi, resid = solve_invariant_measure(L, grid)
    y = grid.nodes[:, 0]
    gibbs = np.exp(-np.cos(TWO_PI * y)) / i0(1.0)
    assert np.abs(pi - gibbs).max() < 1e-10
    assert abs(grid.integrate(pi) - 1.0) < 1e-12
    assert pi.min() > 0


def test_fd_gibbs_error_halves_by_factor_three():
    coeffs = _coeffs_1d()
    errs = []
    for n in (128, 256):
        grid = TorusGrid(1, n)
        f_vals, a_vals = coeffs.fields(grid, None, None)
        pi, _ = solve_invariant_measure(assemble_generator(grid, f_vals, a_vals, "fd"), grid)
        gibbs = np.exp(-np.cos(TWO_PI * grid.nodes[:, 0])) / i0(1.0)
        errs.append(np.abs(pi - gibbs).max())
    assert errs[0] / errs[1] >= 3.0


def test_cell_solution_closed_form_slope():
    # for a 1-d gradient layer, 1 + phi' equals the reciprocal Gibbs weight
    cell = solve_cell(_coeffs_1d(), scheme="spectral", n=256)
    y = cell.grid.nodes[:, 0]
    zhat = float(np.exp(np.cos(TWO_PI * (np.arange(4096) + 0.5) / 4096)).mean())
    want = np.exp(np.cos(TWO_PI * y)) / zhat
    got = 1.0 + cell.grad_phi[:, 0, 0]
    assert np.abs(got - want).max() < 1e-10


def test_cell_residual_invariants():
    cell = solve_cell(_coeffs_1d(), scheme="fd", n=256)
    f_sup = np.abs(cell.f_vals).max()
    assert np.max(cell.residual_phi) <= 1e-8 * max(1.0, f_sup)
    assert np.abs(cell.centering).max() <= 1e-6 * f_sup
    avg = cell.pi_average(cell.phi)
    assert np.abs(avg).max() < 1e-10


def test_constants_in_generator_kernel():
    for name, scheme, n in (("cos_rough_1d", "fd", 128),
                            ("cos_rough_1d", "spectral", 128),
                            ("nongradient_2d", "fd", 24),
                            ("nongradient_2d", "spectral", 24)):
        sc = get_scenario(name)
        grid = TorusGrid(sc.dim, n)
        f_vals, a_vals = sc.fast_coefficients().fields(grid, None, None)
        L = assemble_generator(grid, f_vals, a_vals, scheme)
        resid = np.abs(L @ np.ones(grid.size)).max()
        assert resid <= 1e-13 * np.abs(L).max()


def test_centering_gate_refuses_uncentered_drift():
    def f(x, y, mu):
        return np.ones((len(np.atleast_2d(y)), 1))

    def sigma(x, y, mu):
        return np.eye(1)

    with pytest.raises(CenteringError):
        solve_cell(FastCoefficients(dim=1, f=f, sigma=sigma), n=64)


def test_ellipticity_gate():
    def f(x, y, mu):
        return np.zeros((len(np.atleast_2d(y)), 1))

    def sigma(x, y, mu):
        return np.zeros((1, 1))

    with pytest.raises(EllipticityError):
        solve_cell(FastCoefficients(dim=1, f=f, sigma=sigma), n=64)


def test_non_finite_fields_are_refused_by_name():
    # every cell gate compares against NaN as False, so NaN must stop at the fields
    def nan_drift(x, y, mu):
        return np.full((len(y), 1), np.nan)

    def finite_drift(x, y, mu):
        return np.zeros((len(y), 1))

    def unit(x, y, mu):
        return np.eye(1)

    def nan_sigma(x, y, mu):
        return np.full((1, 1), np.nan)

    def huge_sigma(x, y, mu):
        # finite, but A = sigma sigma^T overflows
        return np.full((len(y), 1, 1), 1e200)

    with pytest.raises(ValidationError, match="^fast drift f has 64 non-finite values"):
        solve_cell(FastCoefficients(dim=1, f=nan_drift, sigma=unit), n=64)
    for sigma, count in ((nan_sigma, 1), (huge_sigma, 64)):
        with pytest.raises(ValidationError,
                           match=rf"^fast diffusion A = sigma sigma\^T has {count} non-finite"):
            solve_cell(FastCoefficients(dim=1, f=finite_drift, sigma=sigma), n=64)


def test_grid_validation():
    with pytest.raises(ValidationError):
        TorusGrid(4)
    with pytest.raises(ValidationError):
        TorusGrid(1, 4)


def test_spectral_scheme_limits():
    with pytest.raises(ValidationError):
        solve_cell(_coeffs_1d(), scheme="spectral", n=9)  # odd n

    def f(x, y, mu):
        return np.zeros_like(np.atleast_2d(y))

    def sigma(x, y, mu):
        return np.eye(3)

    coeffs = FastCoefficients(dim=3, f=f, sigma=sigma)
    grid = TorusGrid(3, 8)
    with pytest.raises(ValidationError):
        assemble_generator(grid, *coeffs.fields(grid, None, None), "spectral")


def test_cell_csv_roundtrip(tmp_path):
    cell = solve_cell(_coeffs_1d(), scheme="spectral", n=64)
    path = tmp_path / "cell.csv"
    write_cell_table(cell, path)
    assert path.read_text().splitlines()[0] == "y1,pi,phi1"
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(data[:, :1], cell.grid.nodes)
    assert np.array_equal(data[:, 1], cell.pi)
    assert np.array_equal(data[:, 2:], cell.phi)


def test_three_dimensional_separable_cell():
    # mild three-axis gradient layer on the coarse fd grid
    amps = (0.3, 0.2, 0.25)
    sigma2 = 2.0

    def f(x, y, mu):
        y = np.atleast_2d(y)
        return np.stack([a * TWO_PI * np.sin(TWO_PI * y[:, k])
                         for k, a in enumerate(amps)], axis=1)

    def sigma(x, y, mu):
        return np.sqrt(sigma2) * np.eye(3)

    cell = solve_cell(FastCoefficients(dim=3, f=f, sigma=sigma), n=12)
    assert cell.scheme == "fd"
    assert cell.pi.min() > 0
    d_tilde = cell.pi_average(
        np.einsum("nlk,nkm,npm->nlp",
                  np.eye(3)[None] + cell.grad_phi, cell.a_vals,
                  np.eye(3)[None] + cell.grad_phi))
    want = np.diag([sigma2 / i0(2 * a / sigma2) ** 2 for a in amps])
    assert np.abs(d_tilde - want).max() < 5e-2
    off = d_tilde - np.diag(np.diag(d_tilde))
    assert np.abs(off).max() < 1e-3


# ---------------------------------------------------------------------------
# the matrix-free operator, its solver and its limits

def _general_fields(grid):
    """Non-constant drift and non-constant, non-diagonal A on any torus grid."""
    y = grid.nodes
    s = np.sin(TWO_PI * y).sum(axis=1)
    f = np.stack([np.cos(TWO_PI * (k + 1) * y[:, k]) + 0.3 * s for k in range(grid.dim)], axis=1)
    sig = np.eye(grid.dim)[None] * (1.0 + 0.3 * np.sin(TWO_PI * y[:, :1]))[:, :, None]
    sig[:, 0, 1:] += 0.4 * np.cos(TWO_PI * y[:, -1:])
    return f, np.einsum("nik,njk->nij", sig, sig)


@pytest.mark.parametrize("scheme", ["fd", "spectral"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_adjoint_identity(scheme, dim):
    grid = TorusGrid(dim, {1: 64, 2: 16, 3: 8}[dim])
    f, a = _general_fields(grid)
    if dim > 1:
        assert np.ptp(a[:, 0, 1]) > 0.1  # the mixed terms are exercised
    # built directly: assemble_generator refuses spectral 3-d
    L = GeneratorOperator(grid, f, a, scheme)
    u, v = np.random.default_rng(dim).normal(size=(2, grid.size))
    lu = L @ u
    gap = abs(lu @ v - u @ (L.T @ v))
    assert gap <= 1e-12 * np.linalg.norm(lu) * np.linalg.norm(v)


def test_spectral_operator_exact_on_trig_polynomials():
    grid = TorusGrid(2, 16)
    f, a = _general_fields(grid)
    y1, y2 = (TWO_PI * grid.nodes[:, k] for k in range(2))
    u = np.sin(y1) * np.cos(3 * y2) + np.cos(2 * y1)
    du = [TWO_PI * (np.cos(y1) * np.cos(3 * y2) - 2 * np.sin(2 * y1)),
          -3 * TWO_PI * np.sin(y1) * np.sin(3 * y2)]
    hess = TWO_PI ** 2 * np.array([
        [-np.sin(y1) * np.cos(3 * y2) - 4 * np.cos(2 * y1), -3 * np.cos(y1) * np.sin(3 * y2)],
        [-3 * np.cos(y1) * np.sin(3 * y2), -9 * np.sin(y1) * np.cos(3 * y2)]])
    want = sum(f[:, k] * du[k] for k in range(2)) + 0.5 * np.einsum("nkl,kln->n", a, hess)
    got = assemble_generator(grid, f, a, "spectral") @ u
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


@pytest.mark.parametrize("scheme", ["fd", "spectral"])
def test_toarray_columns_match_matvec(scheme):
    grid = TorusGrid(2, 12)
    f, a = _general_fields(grid)
    L = assemble_generator(grid, f, a, scheme)
    dense = np.asarray(L)
    for j in (0, 7, 77, grid.size - 1):
        assert np.array_equal(dense[:, j], L @ np.eye(grid.size)[j])
    assert np.abs(np.asarray(L.T) - dense.T).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("scheme", ["fd", "spectral"])
@pytest.mark.parametrize("drift", [1.0, 1e3])
def test_abs_max_is_the_largest_matrix_entry(scheme, drift):
    # a large drift moves the largest entry off the diagonal
    for dim, n in ((1, 32), (2, 12), (3, 8)):
        grid = TorusGrid(dim, n)
        f, a = _general_fields(grid)
        L = GeneratorOperator(grid, drift * f, a, scheme)
        assert L.abs_max() == pytest.approx(np.abs(L).max(), rel=1e-12)


@pytest.mark.parametrize("scheme", ["fd", "spectral"])
def test_preconditioner_inverts_constant_coefficients(scheme):
    for dim, n in ((1, 32), (2, 16), (3, 8)):
        grid = TorusGrid(dim, n)
        f = np.tile(np.linspace(0.5, -1.0, dim), (grid.size, 1))
        a = np.tile(np.eye(dim) + 0.3 * (np.ones((dim, dim)) - np.eye(dim)), (grid.size, 1, 1))
        L = GeneratorOperator(grid, f, a, scheme)
        u = np.random.default_rng(dim).normal(size=grid.size)
        for op in (L, L.T):
            assert np.abs(op.precondition(op @ u) - (u - u.mean())).max() < 1e-10


def test_krylov_health_is_recorded():
    cell = solve_cell(get_scenario("nongradient_2d").fast_coefficients(), n=16)
    prov = cell.provenance
    assert prov["residual_pi"] == cell.residual_pi
    assert prov["residual_phi"] == cell.residual_phi.tolist()
    assert prov["cell_route"] == "grid"
    its = prov["krylov_iterations"]
    assert len(its["pi"]) == 1 and len(its["phi"]) == 2
    assert all(0 < k <= 60 for k in its["pi"] + its["phi"])
    again = solve_cell(get_scenario("nongradient_2d").fast_coefficients(), n=16)
    assert again.provenance == prov


def test_grid_above_the_unknown_limit_is_refused():
    with pytest.raises(ValidationError, match="MAX_UNKNOWNS"):
        TorusGrid(3, round(MAX_UNKNOWNS ** (1 / 3)) + 1)
    with pytest.raises(ValidationError, match="MAX_UNKNOWNS"):
        solve_cell(_coeffs_1d(), n=MAX_UNKNOWNS + 1)


def test_toarray_refuses_large_operators():
    grid = TorusGrid(2, 46)
    assert grid.size > MAX_DENSE_UNKNOWNS
    L = assemble_generator(grid, *_general_fields(grid), "fd")
    with pytest.raises(ValidationError, match="MAX_DENSE_UNKNOWNS"):
        np.asarray(L)
    with pytest.raises(ValidationError, match="MAX_DENSE_UNKNOWNS"):
        np.abs(L)


def test_gmres_cap_raises_solver_error(monkeypatch):
    monkeypatch.setattr(krylov, "MAX_ITER", 3)
    with pytest.raises(SolverError, match="cap of 3 iterations"):
        solve_cell(_coeffs_1d(amp=2.0), scheme="fd", n=128)


def test_default_three_dimensional_grid_matches_closed_form():
    amps = (0.6, 0.8, 0.5)
    pot = SeparablePotential(
        [(lambda y, c=c: c * np.cos(TWO_PI * y), lambda y, c=c: -c * TWO_PI * np.sin(TWO_PI * y))
         for c in amps], sigma=np.sqrt(2.0))
    t0 = time.perf_counter()
    cell = solve_cell(pot.fast_coefficients())
    elapsed = time.perf_counter() - t0
    assert (cell.scheme, cell.grid.n) == ("fd", DEFAULT_N[3]) == ("fd", 32)
    closed = pot.sigma ** 2 * gamma_separable(pot)
    err = np.abs(averaged_coefficients(cell).diffusion - closed).max() / np.abs(closed).max()
    assert err < 1e-4
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# the shared, roll-free stencils and the Givens stop test keep every bit

def _roll_derivative(v, axis, order, scheme):
    """The derivative as four np.roll copies (fd) or one rfft per order."""
    n = v.shape[axis]
    if scheme == "fd":
        p1, m1, p2, m2 = (np.roll(v, -j, axis=axis) for j in (1, -1, 2, -2))
        if order == 1:
            return (8.0 * (p1 - m1) - (p2 - m2)) * (n / 12.0)
        return (16.0 * (p1 + m1) - (p2 + m2) - 30.0 * v) * (n * n / 12.0)
    k = np.arange(n // 2 + 1)
    sym = np.where(k == n // 2, 0.0, 2j * np.pi * k) if order == 1 else -(2.0 * np.pi * k) ** 2
    shape = [1] * v.ndim
    shape[axis] = -1
    return np.fft.irfft(np.fft.rfft(v, axis=axis) * sym.reshape(shape), n=n, axis=axis)


def _roll_apply(grid, f_vals, a_vals, scheme, u, adjoint):
    """L @ u or L.T @ u term by term, every derivative taken afresh."""
    dim = grid.dim
    terms = [(f_vals[:, k], ((k, 1),)) for k in range(dim)]
    terms += [(0.5 * a_vals[:, k, k], ((k, 2),)) for k in range(dim)]
    terms += [(a_vals[:, k, l], ((k, 1), (l, 1)))
              for k in range(dim) for l in range(k + 1, dim)]
    v = u.reshape(grid.shape + (-1,))
    out = np.zeros_like(v)
    for c, ops in terms:
        if not np.any(c):
            continue
        coef = c.reshape(grid.shape + (1,))
        w = coef * v if adjoint else v
        for axis, order in ops:
            w = _roll_derivative(w, axis, order, scheme)
        out += (-1.0) ** sum(o == 1 for _, o in ops) * w if adjoint else coef * w
    return out.reshape(u.shape)


def _sigma_kind(kind, dim, rs):
    """sigma per node (full A), one constant non-diagonal matrix, or a
    constant diagonal one (no mixed terms)."""
    mix = np.eye(dim) + 0.3 * rs.standard_normal((dim, dim))
    if kind == "node":
        return lambda x, y, mu: (1.0 + 0.3 * np.sin(TWO_PI * y[:, :1]))[:, :, None] * mix
    if kind == "constant":
        return lambda x, y, mu: mix
    return lambda x, y, mu: np.diag(np.linspace(1.0, 1.5, dim))


@pytest.mark.parametrize("scheme, dim", [("fd", 1), ("fd", 2), ("fd", 3),
                                         ("spectral", 1), ("spectral", 2)])
@pytest.mark.parametrize("kind", ["node", "constant", "diagonal"])
def test_operator_bits_equal_the_roll_reference(scheme, dim, kind):
    rs = np.random.default_rng(10 * dim + len(kind))
    grid = TorusGrid(dim, {1: 32, 2: 16, 3: 8}[dim])
    f, _ = _general_fields(grid)
    if kind == "diagonal" and dim > 1:
        f[:, 0] = 0.0  # a dropped drift term: axis 0 starts from D2 alone
    coeffs = FastCoefficients(dim=dim, f=lambda x, y, mu: f, sigma=_sigma_kind(kind, dim, rs))
    f_vals, a_vals = coeffs.fields(grid)
    # the field a per-node sigma of the same matrix gives, in full
    sv = np.broadcast_to(coeffs.sigma(None, grid.nodes, None), (grid.size, dim, dim))
    a_full = np.einsum("nik,njk->nij", sv, sv)
    a_full = 0.5 * (a_full + np.swapaxes(a_full, 1, 2))
    assert np.array_equal(a_vals, a_full)
    assert (a_vals.strides[0] == 0) == (kind != "node")
    L = GeneratorOperator(grid, f_vals, a_vals, scheme)
    for cols in ((), (3,)):
        u = rs.normal(size=(grid.size,) + cols)
        for op, adjoint in ((L, False), (L.T, True)):
            want = _roll_apply(grid, f_vals, a_full, scheme, u, adjoint)
            assert np.array_equal(op @ u, want)
        for axis in range(dim):
            for order in (1, 2):
                v = grid.reshape(u)
                assert np.array_equal(_derivative(v, axis, order, scheme),
                                      _roll_derivative(v, axis, order, scheme))


def _lstsq_gmres(apply, precondition, b, target):
    """GMRES whose stop test solves the least-squares problem every iteration."""
    m = b.size
    x, r, its = np.zeros(m), b, 0
    basis = np.empty((krylov.RESTART + 1, m))
    while (res := float(np.linalg.norm(r)) / np.sqrt(m)) > target:
        hess = np.zeros((krylov.RESTART + 1, krylov.RESTART))
        rhs = np.zeros(krylov.RESTART + 1)
        rhs[0] = res * np.sqrt(m)
        basis[0] = r / rhs[0]
        for j in range(krylov.RESTART):
            w = apply(precondition(basis[j]))
            w_norm = np.linalg.norm(w)
            for _ in range(2):
                h = basis[:j + 1] @ w
                w -= h @ basis[:j + 1]
                hess[:j + 1, j] += h
            hess[j + 1, j] = np.linalg.norm(w)
            its += 1
            y = np.linalg.lstsq(hess[:j + 2, :j + 1], rhs[:j + 2], rcond=None)[0]
            est = np.linalg.norm(hess[:j + 2, :j + 1] @ y - rhs[:j + 2]) / np.sqrt(m)
            if est <= target or its >= krylov.MAX_ITER or hess[j + 1, j] <= 1e-14 * w_norm:
                break
            basis[j + 1] = w / hess[j + 1, j]
        x = x + precondition(y @ basis[:j + 1])
        r = b - apply(x)
    return x, its


@pytest.mark.parametrize("name, scheme, n", [("cos_rough_1d", "fd", 256),
                                             ("nongradient_2d", "spectral", 32),
                                             ("separable_2d", "fd", 32)])
def test_givens_stop_test_keeps_the_iterates_bits(name, scheme, n):
    grid = TorusGrid(get_scenario(name).dim, n)
    f_vals, a_vals = get_scenario(name).fast_coefficients().fields(grid)
    L = assemble_generator(grid, f_vals, a_vals, scheme)
    for op, b in ((L.T, -(L.T @ np.ones(grid.size))), (L, -f_vals[:, 0])):
        for margin in (1e-6, 1e-3, 1.0):
            target = margin * 1e-8 * op.abs_max()
            got = krylov.gmres(op.__matmul__, op.precondition, b, target)
            want = _lstsq_gmres(op.__matmul__, op.precondition, b, target)
            assert got[1] == want[1]
            assert np.array_equal(got[0], want[0])


# ---------------------------------------------------------------------------
# layers that split by axis: d one-dimensional solves and a tensor product

def _split_layer(dim):
    """A non-gradient drift and a per-node diagonal A, axis k reading y_k alone.

    f is odd and A even under y -> -y, which maps the grid to itself, so pi
    is even and f is centered against it on any grid.
    """
    amps = np.array((0.6, 0.8, 0.5)[:dim])

    def f(x, y, mu):
        return TWO_PI * amps * np.sin(TWO_PI * y) * (1.0 + 0.3 * np.cos(TWO_PI * y))

    def sigma(x, y, mu):
        return (1.0 + 0.3 * np.cos(TWO_PI * y))[:, :, None] * np.eye(dim)

    return FastCoefficients(dim=dim, f=f, sigma=sigma)


def _grid_route(coeffs, scheme, n):
    """The cell by GMRES on the full grid, from the public building blocks."""
    grid = TorusGrid(coeffs.dim, n)
    f_vals, a_vals = coeffs.fields(grid)
    L = assemble_generator(grid, f_vals, a_vals, scheme)
    pi, _ = solve_invariant_measure(L, grid)
    phi, _, _ = solve_cell_problem(L, pi, f_vals, grid)
    grad_phi = np.stack([apply_axis_derivative(phi, grid, k, scheme)
                         for k in range(grid.dim)], 2)
    return pi, phi, grad_phi


@pytest.mark.parametrize("scheme, dim, n", [("fd", 2, 48), ("fd", 3, 12), ("spectral", 2, 32)])
def test_axis_route_agrees_with_the_grid_route(scheme, dim, n):
    # both routes stop GMRES at KRYLOV_MARGIN times the 1e-8 gate, so they
    # agree to about 1e-13 of each field's size; 1e-10 is the stated tolerance
    coeffs = _split_layer(dim)
    cell = solve_cell(coeffs, scheme=scheme, n=n)
    assert cell.provenance["cell_route"] == "axis"
    its = cell.provenance["krylov_iterations"]
    assert len(its["pi"]) == len(its["phi"]) == dim
    pi, phi, grad_phi = _grid_route(coeffs, scheme, n)
    for got, want in ((cell.pi, pi), (cell.phi, phi), (cell.grad_phi, grad_phi)):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    off_axis = ~np.eye(dim, dtype=bool)
    assert not np.any(cell.grad_phi[:, off_axis])
    grid_cell = dataclasses.replace(cell, pi=pi, phi=phi, grad_phi=grad_phi)
    want = averaged_coefficients(grid_cell).diffusion
    got = averaged_coefficients(cell).diffusion
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def _coupled_layer(kind):
    """A split layer but for one coupling, odd f and even A as before: a
    constant off-diagonal A, or f_1 reading y_2."""
    base = _split_layer(2)

    def f(x, y, mu):
        out = base.f(x, y, mu)
        if kind == "drift":
            out[:, 0] += 0.2 * np.sin(TWO_PI * (y[:, 0] + y[:, 1]))
        return out

    sigma = np.array([[1.0, 0.3], [0.0, 1.0]]) if kind == "diffusion" else base.sigma
    return FastCoefficients(dim=2, f=f, sigma=sigma)


@pytest.mark.parametrize("kind", ["diffusion", "drift"])
def test_a_coupled_layer_takes_the_grid_route(kind):
    coeffs = _coupled_layer(kind)
    cell = solve_cell(coeffs, scheme="fd", n=16)
    assert cell.provenance["cell_route"] == "grid"
    assert len(cell.provenance["krylov_iterations"]["pi"]) == 1
    pi, phi, grad_phi = _grid_route(coeffs, "fd", 16)
    for got, want in ((cell.pi, pi), (cell.phi, phi), (cell.grad_phi, grad_phi)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name, scheme, n", [("cos_rough_1d", "fd", 256),
                                             ("dawson_rough", "spectral", 128)])
def test_one_dimensional_cells_keep_their_bits(name, scheme, n):
    # a 1-d cell never splits: solve_cell is the grid route, bit for bit
    coeffs = get_scenario(name).fast_coefficients()
    cell = solve_cell(coeffs, scheme=scheme, n=n)
    assert cell.provenance["cell_route"] == "grid"
    for got, want in zip((cell.pi, cell.phi, cell.grad_phi), _grid_route(coeffs, scheme, n)):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the solve gates, driven with a doctored pi or phi

def _deep_cell():
    """A 1-d fd layer whose density spans 11 decades: pi = exp(-cos(2 pi y) / 0.075) / Z.

    Lowering such a pi by a constant c sup pi adds c sup pi |L* 1| to its
    stationarity residual, far below the gate, so a doctored density can
    reach each later gate with its residual passed.
    """
    grid = TorusGrid(1, 64)
    f_vals = _coeffs_1d().f(None, grid.nodes, None)
    L = assemble_generator(grid, f_vals, np.broadcast_to(0.15 * np.eye(1), (64, 1, 1)), "fd")
    pi, _ = solve_invariant_measure(L, grid)
    assert 0.0 < pi.min() < 1e-11 * pi.max()
    return grid, f_vals, L, pi


def test_the_stationarity_gates_refuse_a_doctored_density():
    grid, _, L, pi = _deep_cell()
    bump = 1e-3 * pi.max() * np.cos(TWO_PI * grid.nodes[:, 0])   # mass 0, not stationary
    with pytest.raises(SolverError, match=r"^stationarity residual \S+ failed the solve check$"):
        _stationarity_gates(L, pi + bump, grid)
    # negatives of 1e-9 sup pi are more than roundoff
    with pytest.raises(SolverError, match=r"^invariant density has negative mass -\S+$"):
        _stationarity_gates(L, pi - 1e-9 * pi.max(), grid)
    # the mass is printed as a plain float, not as numpy's np.float64(...)
    with pytest.raises(SolverError, match=r"^invariant density mass 1\.00000000\d+ not normalized$"):
        _stationarity_gates(L, pi * (1.0 + 1e-9), grid)


def test_roundoff_negatives_are_clipped_and_the_mass_restored():
    grid, _, L, pi = _deep_cell()
    low = pi - 1e-11 * pi.max()
    assert -1e-10 * pi.max() < low.min() < 0.0
    got, resid = _stationarity_gates(L, low, grid)
    clipped = np.clip(low, 0.0, None)
    assert np.array_equal(got, clipped / grid.integrate(clipped))
    assert got.min() == 0.0
    assert abs(grid.integrate(got) - 1.0) <= 1e-12
    assert resid == np.abs(L.T @ low).max()


def test_the_corrector_gate_refuses_a_doctored_corrector():
    grid, f_vals, L, pi = _deep_cell()
    phi, resid, defect = solve_cell_problem(L, pi, f_vals, grid)
    centered = f_vals - defect[None, :]
    assert np.array_equal(_corrector_gate(L, phi, centered, f_vals), resid)
    bump = 1e-3 * np.cos(TWO_PI * grid.nodes)
    with pytest.raises(SolverError, match=r"^cell residuals \[\S+\] failed the solve check$"):
        _corrector_gate(L, phi + bump, centered, f_vals)
