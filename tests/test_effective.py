import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.special import i0, i1

from mvhomog import effective
from mvhomog.effective import (SeparablePotential, _sandwich, averaged_coefficients,
                               gamma_separable, homogenize, matrix_sqrt_psd,
                               solve_with_x_derivatives)
from mvhomog.errors import SolverError, ValidationError
from mvhomog.experiments import state_grid, write_effective_table
from mvhomog.measures import EmpiricalMeasure, MeasurePath
from mvhomog.rate import dictionary_for_path, evaluate_jdg
from mvhomog.scenarios import DAWSON_KAPPA, get_scenario, scenario_names
from mvhomog.simulate import SimConfig, averaged_lane, simulate_lanes
from mvhomog.torus import (FastCoefficients, apply_axis_derivative, assemble_generator,
                           solve_cell)

TWO_PI = 2.0 * np.pi


def test_gamma_bessel_oracle():
    sc = get_scenario("cos_rough_1d")
    gamma = gamma_separable(sc.potential)
    want = 1.0 / i0(1.0) ** 2
    assert abs(gamma[0, 0] - want) <= 1e-10 * want



@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [7, 1025])
def test_sandwich_equals_the_three_operand_einsum(dim, n):
    # bit for bit at the numpy it was written against; other numpy versions
    # may order the einsum's sum differently, hence the relative bound
    gen = np.random.default_rng(dim * n)
    corr = gen.normal(size=(n, dim, dim))
    s = gen.normal(size=(n, dim, dim))
    per_node = s @ np.swapaxes(s, 1, 2)
    for a in (per_node, np.broadcast_to(per_node[0], (n, dim, dim))):
        want = np.einsum("nlk,nkm,npm->nlp", corr, a, corr)
        got = _sandwich(corr, a)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    # a sum of signed zeros is +0.0, as from the einsum's zero total
    corr = np.where(np.arange(dim)[:, None] == 0, 0.0, -1.0) * np.ones((n, dim, dim))
    assert not np.signbit(_sandwich(corr, np.broadcast_to(np.eye(dim), corr.shape))).any()

def test_gamma_range_and_flat_case():
    # flat potential gives exactly 1; any nonconstant potential strictly less
    flat = get_scenario("free_brownian")
    assert gamma_separable(flat.potential)[0, 0] == pytest.approx(1.0, abs=1e-14)
    for name in ("cos_rough_1d", "dawson_rough", "separable_2d"):
        g = np.diag(gamma_separable(get_scenario(name).potential))
        assert np.all(g > 0.0)
        assert np.all(g < 1.0)


def _raw_diffusion_field(cell):
    # D = grad phi A + A grad phi^T + f phi^T + phi f^T + A, pointwise
    g = cell.grad_phi
    return (np.einsum("nlk,nkm->nlm", g, cell.a_vals)
            + np.einsum("nmk,nkl->nlm", g, cell.a_vals)
            + np.einsum("nl,nm->nlm", cell.f_vals, cell.phi)
            + np.einsum("nl,nm->nlm", cell.phi, cell.f_vals)
            + cell.a_vals)


def test_two_diffusion_forms_agree_on_registry():
    for name in ("free_brownian", "cos_rough_1d", "dawson_rough",
                 "separable_2d", "nongradient_2d"):
        sc = get_scenario(name)
        n = 64 if sc.dim == 1 else 32
        cell = solve_cell(sc.fast_coefficients(), n=n)
        avg = averaged_coefficients(cell)
        assert avg.form_gap <= 1e-8
        # re-derive the raw form independently of averaged_coefficients
        gap = np.abs(avg.diffusion - cell.pi_average(_raw_diffusion_field(cell))).max()
        assert gap <= 1e-8


def test_sqrt_reconstruction():
    for name in ("cos_rough_1d", "separable_2d", "nongradient_2d"):
        sc = get_scenario(name)
        model = sc.effective_model()
        d_bar = model.coefficients(np.zeros((1, sc.dim)))[1]
        b_bar = matrix_sqrt_psd(d_bar)
        resid = np.linalg.norm(b_bar @ b_bar.T - d_bar)
        assert resid <= 1e-8 * np.linalg.norm(d_bar)


def test_matrix_sqrt_rejects_indefinite():
    with pytest.raises(SolverError):
        matrix_sqrt_psd(np.array([[1.0, 0.0], [0.0, -0.5]]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stacked_matrix_sqrt_matches_one_call_per_matrix(dim):
    rs = np.random.default_rng(dim)
    a = rs.normal(size=(40, dim, dim))
    stack = a @ np.swapaxes(a, -1, -2)
    stack[7] = np.outer(a[7, :, 0], a[7, :, 0])  # rank one
    roots = matrix_sqrt_psd(stack)
    assert np.array_equal(roots, np.stack([matrix_sqrt_psd(m) for m in stack]))
    assert np.allclose(roots[7] @ roots[7], stack[7], atol=1e-12)
    stack[12] = -stack[12] - np.eye(dim)
    with pytest.raises(SolverError,
                       match=r"matrix at index \(12,\) is not PSD: eigenvalue -"):
        matrix_sqrt_psd(stack)
    with pytest.raises(SolverError, match=r"index \(1, 2\)"):
        matrix_sqrt_psd(stack.reshape(4, 10, dim, dim))


def test_every_separable_model_matches_its_closed_form():
    # the cell solve against sigma^2 Gamma and Gamma b; dawson_rough's slow
    # drift reads a nonzero ensemble mean
    for name in scenario_names():
        sc = get_scenario(name)
        if sc.potential is None:
            continue
        model = sc.effective_model()
        assert model.cell.grid.dim == sc.dim
        gamma = gamma_separable(sc.potential)
        xs = state_grid(sc.dim)
        mu = EmpiricalMeasure(np.full((10, sc.dim), 0.3))
        drift, diffusion, _ = model.coefficients(xs, mu)
        want = sc.potential.sigma ** 2 * gamma
        assert np.abs(diffusion - want).max() <= 1e-12 * np.abs(want).max()
        if sc.slow_drift is None:
            assert np.abs(drift).max() == 0.0
            continue
        want = sc.slow_drift(xs, mu) @ gamma.T
        assert np.abs(want).max() > 1.0
        assert np.abs(drift - want).max() <= 1e-12 * np.abs(want).max()


def test_cell_routes_correct_a_slow_drift_by_the_averaged_corrector():
    # a non-symmetric linear slow drift b = A x on a non-gradient layer,
    # where C = pi-average of (I + grad phi) is far from symmetric: the
    # constant, mu-only and x routes must all give C b, not C^T b
    coeffs = get_scenario("nongradient_2d").fast_coefficients()
    a_mat = np.array([[-1.0, 0.7], [0.2, -0.5]])

    def slow(xs, mu):
        return xs @ a_mat.T

    cell = solve_cell(coeffs, scheme="spectral", n=32)
    corr = cell.pi_average(np.eye(2)[None] + cell.grad_phi)
    assert np.abs(corr - corr.T).max() > 0.25
    xs = np.array([[0.5, -1.0], [1.5, 0.3], [-0.7, 0.9]])
    b = slow(xs, None)
    want = b @ corr.T
    assert np.abs(b @ corr - want).max() > 0.1
    mu = EmpiricalMeasure(xs)
    for flags in ({}, {"mu_dependent": True}, {"x_dependent": True}):
        model = homogenize(dataclasses.replace(coeffs, **flags), slow,
                           scheme="spectral", n=32)
        assert np.abs(model.coefficients(xs, mu)[0] - want).max() <= 1e-12


def test_dawson_drift_closed_form():
    sc = get_scenario("dawson_rough")
    model = sc.effective_model()
    gamma = float(gamma_separable(sc.potential)[0, 0])
    xs = np.linspace(-2, 2, 21)[:, None]
    mu = EmpiricalMeasure(np.full((10, 1), 0.3))
    got = model.coefficients(xs, mu)[0][:, 0]
    v = xs[:, 0]
    want = gamma * (-(v ** 3 - v) - DAWSON_KAPPA * (v - 0.3))
    assert np.abs(got - want).max() < 1e-12


def test_drift_slope_bounded_on_box():
    sc = get_scenario("dawson_rough")
    model = sc.effective_model()
    xs = np.linspace(-2, 2, 401)[:, None]
    mu = EmpiricalMeasure(np.zeros((4, 1)))
    drift = model.coefficients(xs, mu)[0][:, 0]
    slope = np.abs(np.diff(drift) / np.diff(xs[:, 0])).max()
    assert slope < 20.0


def _x_dependent_coeffs():
    # fast layer whose amplitude depends smoothly on the slow state
    def amp(x):
        return 1.0 + 0.25 * np.tanh(x[0])

    def f(x, y, mu):
        y = np.atleast_2d(y)
        return (amp(x) * TWO_PI * np.sin(TWO_PI * y[:, 0]))[:, None]

    def sigma(x, y, mu):
        return np.sqrt(2.0) * np.eye(1)

    return FastCoefficients(dim=1, f=f, sigma=sigma, x_dependent=True)


def _mu_dependent_coeffs():
    # fast layer whose amplitude depends on the ensemble mean
    def f(x, y, mu):
        y = np.atleast_2d(y)
        scale = 1.0 + (0.2 * float(mu.mean()[0]) if mu is not None else 0.0)
        return (scale * TWO_PI * np.sin(TWO_PI * y[:, 0]))[:, None]

    def sigma(x, y, mu):
        return np.sqrt(2.0) * np.eye(1)

    return FastCoefficients(dim=1, f=f, sigma=sigma, mu_dependent=True)


def test_x_dependent_route_consistent_with_direct_solves():
    coeffs = _x_dependent_coeffs()
    model = homogenize(coeffs, scheme="spectral", n=64)
    xs = np.array([[-0.5], [0.8]])
    drift, diffusion, noise = model.coefficients(xs, None)
    assert drift.shape == (2, 1) and diffusion.shape == noise.shape == (2, 1, 1)
    for x, got in zip(xs, diffusion):
        direct = averaged_coefficients(solve_cell(coeffs, x=x, scheme="spectral", n=64))
        assert np.abs(got - direct.diffusion).max() < 1e-10
    # the noise is each state's PSD root, from one batched call
    assert np.array_equal(noise, matrix_sqrt_psd(diffusion))


def test_effective_table_writes_each_states_diffusion(tmp_path):
    coeffs = _x_dependent_coeffs()
    model = homogenize(coeffs, scheme="spectral", n=64)
    path = tmp_path / "effective.csv"
    write_effective_table(get_scenario("cos_rough_1d"), model, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    xs = state_grid(1)
    assert np.array_equal(rows[:, 0], xs[:, 0])
    drift, diffusion, _ = model.coefficients(xs, None)
    assert np.array_equal(rows[:, 1], drift[:, 0])
    assert np.array_equal(rows[:, 2], diffusion[:, 0, 0])
    # each state's own diffusion, as a solve at that state gives it
    for i in (0, len(xs) // 2, -1):
        direct = averaged_coefficients(solve_cell(coeffs, x=xs[i], scheme="spectral", n=64))
        assert abs(rows[i, 2] - direct.diffusion[0, 0]) < 1e-10
    assert xs[0, 0] == -2.0 and abs(rows[0, 2] - 1.514) < 5e-4


def test_x_derivative_solves_are_finite_and_centered():
    coeffs = _x_dependent_coeffs()
    cell, (grad_x, mixed) = solve_with_x_derivatives(
        coeffs, np.array([0.3]), scheme="spectral", n=64)
    assert np.all(np.isfinite(grad_x))
    assert np.all(np.isfinite(mixed))
    avg = averaged_coefficients(cell, (grad_x, mixed))
    assert np.all(np.isfinite(avg.drift))
    assert np.linalg.eigvalsh(avg.diffusion).min() > 0


def test_x_dependent_route_matches_its_closed_form():
    # f = -d_y V with V = a(x) cos(2 pi y), a = 1 + tanh(x) / 4, and sigma^2 = 2:
    # pi = exp(-V) / I0(a) and 1 + d_y phi = exp(V) / I0(a), so the diffusion
    # is 2 / I0(a)^2.  The fast drift int pi (d_x phi f + A d_x d_y phi) dy
    # is int pi d_x d_y phi dy, since pi f = pi' (by parts), and
    # d_x d_y phi = a' (cos(2 pi y) - I1(a) / I0(a)) exp(V) / I0(a) gives
    # -a' I1(a) / I0(a)^3.  The route's x-derivatives are centered
    # differences of step X_STEP, whose error is of order X_STEP^2
    model = homogenize(_x_dependent_coeffs(), scheme="spectral", n=64)
    xs = np.array([[-2.0], [-0.5], [0.0], [0.8], [2.0]])
    drift, diffusion, _ = model.coefficients(xs, None)
    t = np.tanh(xs[:, 0])
    a, da = 1.0 + 0.25 * t, 0.25 * (1.0 - t * t)
    want = 2.0 / i0(a) ** 2
    assert np.abs(diffusion[:, 0, 0] - want).max() <= 1e-13 * want.max()
    assert np.abs(drift[:, 0] + da * i1(a) / i0(a) ** 3).max() <= 1e-9
    # the fast drift at x = 0 by quadrature of the same integral: -0.0696213
    assert abs(drift[2, 0] + 0.0696213) < 1e-7


def test_mu_dependent_route_reads_the_measure():
    model = homogenize(_mu_dependent_coeffs(), scheme="spectral", n=64)
    mu_a = EmpiricalMeasure(np.full((5, 1), 0.5))
    mu_b = EmpiricalMeasure(np.full((5, 1), -0.5))
    xs = np.zeros((3, 1))
    da = model.coefficients(xs, mu_a)[1][0]
    db = model.coefficients(xs, mu_b)[1][0]
    assert abs(da[0, 0] - db[0, 0]) > 1e-4
    # the same measure with its atoms permuted is solved to the same bits
    atoms = np.random.default_rng(1).normal(size=(7, 1))
    got = model.coefficients(xs, EmpiricalMeasure(atoms))
    want = model.coefficients(xs, EmpiricalMeasure(atoms[::-1]))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_cell_routes_solve_each_slow_state_once_per_evaluation(monkeypatch):
    solves = []
    solve = effective.solve_cell
    monkeypatch.setattr(effective, "solve_cell",
                        lambda *args, **kw: solves.append(1) or solve(*args, **kw))
    n = 40
    x0 = np.linspace(-1.0, 1.0, n)[:, None]
    model = homogenize(_x_dependent_coeffs(), scheme="spectral", n=64)
    one_step = SimConfig(n_particles=n, dt=0.01, t_end=0.01)
    simulate_lanes([averaged_lane(model, x0, one_step)])
    assert len(solves) == 3 * n        # x and x +/- X_STEP, once per particle
    solves.clear()
    times = np.linspace(0.0, 0.2, 3)
    path = MeasurePath(times, [EmpiricalMeasure(x0[::8] + t) for t in times])
    evaluate_jdg(path, model, dictionary_for_path(path, 3))
    assert len(solves) == 3 * 5 * len(times)
    solves.clear()
    model = homogenize(_mu_dependent_coeffs(), scheme="spectral", n=64)
    five_steps = SimConfig(n_particles=n, dt=0.01, t_end=0.05)
    simulate_lanes([averaged_lane(model, x0, five_steps)])
    assert len(solves) == 5


def test_gamma_separable_quadrature_converges():
    pot = SeparablePotential(
        components=[(lambda y: np.cos(TWO_PI * y),
                     lambda y: -TWO_PI * np.sin(TWO_PI * y))],
        sigma=np.sqrt(2.0))
    coarse = gamma_separable(pot, quad_points=128)[0, 0]
    fine = gamma_separable(pot, quad_points=1024)[0, 0]
    assert abs(coarse - fine) < 1e-12
    for count in (0, -1):
        with pytest.raises(ValidationError, match="at least 1 point, got"):
            pot.z_factors(count)
    assert np.all(np.isfinite(pot.z_factors(1)))


def test_separable_model_without_slow_drift_has_zero_drift():
    sc = get_scenario("separable_2d")
    model = sc.effective_model()
    xs = np.random.default_rng(0).normal(size=(6, 2))
    assert np.abs(model.coefficients(xs, None)[0]).max() == 0.0


# ---------------------------------------------------------------------------
# the cell's full-grid passes, one component and one field at a time

def _cosine_potential(amplitudes):
    def pair(a):
        return (lambda y: a * np.cos(TWO_PI * y), lambda y: -TWO_PI * a * np.sin(TWO_PI * y))

    return SeparablePotential([pair(a) for a in amplitudes], sigma=np.sqrt(2.0))


def _coupled_3d():
    """Odd f with one mixed term and a constant non-diagonal A: a 3-d layer
    that does not split by axis, centered on any grid since pi is even."""
    def f(x, y, mu):
        out = TWO_PI * np.sin(TWO_PI * y) * (1.0 + 0.3 * np.cos(TWO_PI * y))
        out[:, 0] += 0.2 * np.sin(TWO_PI * (y[:, 0] + y[:, 2]))
        return out

    return FastCoefficients(dim=3, f=f, sigma=np.eye(3) + 0.3 * np.triu(np.ones((3, 3)), 1))


def _whole_field_averages(cell, x_derivatives=None):
    """(drift, diffusion, form gap) from the corrected fields built whole, as
    the averages were first written: beta, D and Dt held at once."""
    g, a, f = cell.grad_phi, cell.a_vals, cell.f_vals
    corr = np.eye(cell.grid.dim)[None, :, :] + g
    beta = np.zeros((cell.grid.size, cell.grid.dim))
    if x_derivatives is not None:
        grad_x_phi, mixed = x_derivatives
        beta = beta + np.einsum("nlj,nj->nl", grad_x_phi, f)
        beta = beta + np.einsum("njk,nljk->nl", a, mixed)
    ga = np.einsum("nlk,nkm->nlm", g, a)
    fphi = f[:, :, None] * cell.phi[:, None, :]
    big_d = ga + np.swapaxes(ga, 1, 2) + fphi + np.swapaxes(fphi, 1, 2) + a
    diffusion = cell.pi_average(_sandwich(corr, a))
    gap = float(np.max(np.abs(diffusion - cell.pi_average(big_d))))
    return cell.pi_average(beta), diffusion, gap


# (fast layer, scheme, n, the route its cell takes): 1-, 2- and 3-d, both routes
CELL_CASES = {
    "cos_rough_1d fd": (lambda: get_scenario("cos_rough_1d").fast_coefficients(),
                        "fd", 256, "grid"),
    "dawson_rough spectral": (lambda: get_scenario("dawson_rough").fast_coefficients(),
                              "spectral", 128, "grid"),
    "nongradient_2d fd": (lambda: get_scenario("nongradient_2d").fast_coefficients(),
                          "fd", 16, "grid"),
    "nongradient_2d spectral": (lambda: get_scenario("nongradient_2d").fast_coefficients(),
                                "spectral", 32, "grid"),
    "separable_2d fd": (lambda: get_scenario("separable_2d").fast_coefficients(),
                        "fd", 32, "axis"),
    "separable_2d spectral": (lambda: get_scenario("separable_2d").fast_coefficients(),
                              "spectral", 32, "axis"),
    "cosine_3d fd": (lambda: _cosine_potential((0.6, 0.8, 0.5)).fast_coefficients(),
                     "fd", 12, "axis"),
    "coupled_3d fd": (_coupled_3d, "fd", 8, "grid"),
}


@pytest.mark.parametrize("case", CELL_CASES)
def test_component_passes_keep_the_whole_array_bits(case):
    make, scheme, n, route = CELL_CASES[case]
    cell = solve_cell(make(), scheme=scheme, n=n)
    grid = cell.grid
    assert cell.provenance["cell_route"] == route
    # the corrector gate: L applied to all components of phi at once
    L = assemble_generator(grid, cell.f_vals, cell.a_vals, scheme)
    want = np.max(np.abs(L @ cell.phi + (cell.f_vals - cell.centering[None, :])), axis=0)
    assert np.array_equal(cell.residual_phi, want)
    if route == "grid":
        # grad phi from each axis derivative of the stacked components
        want = np.stack([apply_axis_derivative(cell.phi, grid, k, scheme)
                         for k in range(grid.dim)], 2)
        assert np.array_equal(cell.grad_phi, want)
    avg = averaged_coefficients(cell)
    drift, diffusion, gap = _whole_field_averages(cell)
    assert np.array_equal(avg.drift, drift) and not np.signbit(avg.drift).any()
    assert np.array_equal(avg.diffusion, diffusion)
    assert avg.form_gap == gap


@pytest.mark.parametrize("scheme", ["spectral", "fd"])
def test_x_derivative_averages_keep_the_whole_array_bits(scheme):
    cell, derivs = solve_with_x_derivatives(_x_dependent_coeffs(), np.array([0.3]),
                                            scheme=scheme, n=64)
    avg = averaged_coefficients(cell, derivs)
    drift, diffusion, gap = _whole_field_averages(cell, derivs)
    assert np.any(drift != 0.0)
    assert np.array_equal(avg.drift, drift)
    assert np.array_equal(avg.diffusion, diffusion)
    assert avg.form_gap == gap


# tracemalloc peak per node of solve_cell plus averaged_coefficients, each
# bound about 10 % above what it read when the full-grid passes went one
# component and one field at a time (178 and 306 B/node; 286 and 546 before)
@pytest.mark.parametrize("case, n, bound", [("separable_2d fd", 128, 200),
                                            ("cosine_3d fd", 32, 330)])
def test_a_cell_and_its_averages_hold_few_bytes_per_node(case, n, bound):
    coeffs = CELL_CASES[case][0]()
    averaged_coefficients(solve_cell(coeffs, scheme="fd", n=n))  # first-call caches
    tracemalloc.start()
    try:
        cell = solve_cell(coeffs, scheme="fd", n=n)
        averaged_coefficients(cell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cell.provenance["cell_route"] == "axis"
    assert peak / cell.grid.size <= bound
