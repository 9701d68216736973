import dataclasses

import numpy as np
import pytest
from scipy.special import i0

from mvhomog import effective
from mvhomog.effective import (SeparablePotential, _sandwich, averaged_coefficients,
                               gamma_separable, homogenize, matrix_sqrt_psd,
                               separable_model, solve_with_x_derivatives)
from mvhomog.errors import SolverError, ValidationError
from mvhomog.experiments import state_grid
from mvhomog.measures import EmpiricalMeasure, MeasurePath
from mvhomog.rate import dictionary_for_path, evaluate_jdg
from mvhomog.scenarios import DAWSON_KAPPA, get_scenario
from mvhomog.simulate import SimConfig, averaged_lane, simulate_lanes
from mvhomog.torus import FastCoefficients, solve_cell

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
        # re-derive the raw form independently of local_coefficients
        gap = np.abs(avg.diffusion - cell.pi_average(_raw_diffusion_field(cell))).max()
        assert gap <= 1e-8


def test_sqrt_reconstruction():
    for name in ("cos_rough_1d", "separable_2d", "nongradient_2d"):
        sc = get_scenario(name)
        model = sc.effective_model()
        d_bar = np.atleast_2d(model.diffusion())
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


def test_separable_route_matches_cell_route():
    # dawson_rough adds a slow drift: the cell route's C b against Gamma b
    for name in ("cos_rough_1d", "separable_2d", "dawson_rough"):
        sc = get_scenario(name)
        closed = sc.effective_model(route="separable")
        solved = sc.effective_model(route="cell")
        gap = np.abs(np.atleast_2d(closed.diffusion())
                     - np.atleast_2d(solved.diffusion())).max()
        assert gap <= 1e-6
        xs = state_grid(sc.dim)
        want = closed.drift_batch(xs, None)
        gap = np.abs(solved.drift_batch(xs, None) - want).max()
        assert gap <= 1e-6 * max(np.abs(want).max(), 1.0)


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
        assert np.abs(model.drift_batch(xs, mu) - want).max() <= 1e-12


def test_dawson_drift_closed_form():
    sc = get_scenario("dawson_rough")
    model = sc.effective_model()
    gamma = float(model.gamma[0, 0])
    xs = np.linspace(-2, 2, 21)[:, None]
    mu = EmpiricalMeasure(np.full((10, 1), 0.3))
    got = model.drift_batch(xs, mu)[:, 0]
    v = xs[:, 0]
    want = gamma * (-(v ** 3 - v) - DAWSON_KAPPA * (v - 0.3))
    assert np.abs(got - want).max() < 1e-12


def test_drift_slope_bounded_on_box():
    sc = get_scenario("dawson_rough")
    model = sc.effective_model()
    xs = np.linspace(-2, 2, 401)[:, None]
    mu = EmpiricalMeasure(np.zeros((4, 1)))
    drift = model.drift_batch(xs, mu)[:, 0]
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
    drift, diffusion = model.drift_and_diffusion(xs, None)
    for x, got in zip(xs, diffusion):
        direct = averaged_coefficients(solve_cell(coeffs, x=x, scheme="spectral", n=64))
        assert np.abs(got - direct.diffusion).max() < 1e-10
    # the joint evaluation gives the separate calls' bits
    assert np.array_equal(drift, model.drift_batch(xs, None))
    assert np.array_equal(diffusion, model.diffusion_batch(xs, None))


def test_x_derivative_solves_are_finite_and_centered():
    coeffs = _x_dependent_coeffs()
    cell, (grad_x, mixed) = solve_with_x_derivatives(
        coeffs, np.array([0.3]), scheme="spectral", n=64)
    assert np.all(np.isfinite(grad_x))
    assert np.all(np.isfinite(mixed))
    avg = averaged_coefficients(cell, (grad_x, mixed), True)
    assert np.all(np.isfinite(avg.drift))
    assert np.linalg.eigvalsh(avg.diffusion).min() > 0


def test_mu_dependent_route_reads_the_measure():
    model = homogenize(_mu_dependent_coeffs(), scheme="spectral", n=64)
    mu_a = EmpiricalMeasure(np.full((5, 1), 0.5))
    mu_b = EmpiricalMeasure(np.full((5, 1), -0.5))
    xs = np.zeros((3, 1))
    da = model.diffusion_batch(xs, mu_a)[0]
    db = model.diffusion_batch(xs, mu_b)[0]
    assert abs(da[0, 0] - db[0, 0]) > 1e-4
    # the same measure with its atoms permuted is solved to the same bits
    atoms = np.random.default_rng(1).normal(size=(7, 1))
    got = model.drift_and_diffusion(xs, EmpiricalMeasure(atoms))
    want = model.drift_and_diffusion(xs, EmpiricalMeasure(atoms[::-1]))
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
    model = separable_model(sc.potential)
    xs = np.random.default_rng(0).normal(size=(6, 2))
    assert np.abs(model.drift_batch(xs, None)).max() == 0.0
