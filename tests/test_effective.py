import numpy as np
import pytest
from scipy.special import i0

from mvhomog.effective import (SeparablePotential, averaged_coefficients,
                               gamma_separable, homogenize, matrix_sqrt_psd,
                               separable_model, solve_with_x_derivatives)
from mvhomog.errors import SolverError, ValidationError
from mvhomog.measures import EmpiricalMeasure
from mvhomog.scenarios import DAWSON_KAPPA, get_scenario
from mvhomog.torus import FastCoefficients, solve_cell

TWO_PI = 2.0 * np.pi


def test_gamma_bessel_oracle():
    sc = get_scenario("cos_rough_1d")
    gamma = gamma_separable(sc.potential)
    want = 1.0 / i0(1.0) ** 2
    assert abs(gamma[0, 0] - want) <= 1e-10 * want


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


def test_separable_route_matches_cell_route():
    for name in ("cos_rough_1d", "separable_2d"):
        sc = get_scenario(name)
        closed = sc.effective_model(route="separable")
        solved = sc.effective_model(route="cell")
        gap = np.abs(np.atleast_2d(closed.diffusion())
                     - np.atleast_2d(solved.diffusion())).max()
        assert gap <= 1e-6


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


def test_x_dependent_route_consistent_with_direct_solves():
    coeffs = _x_dependent_coeffs()
    model = homogenize(coeffs, scheme="spectral", n=64)
    for xv in (-0.5, 0.8):
        x = np.array([xv])
        _, avg, _ = model.averaged_at(x, None)
        direct = averaged_coefficients(solve_cell(coeffs, x=x, scheme="spectral", n=64))
        assert np.abs(avg.diffusion - direct.diffusion).max() < 1e-10
    # cached: the same slow state returns the identical object
    a1 = model.averaged_at(np.array([0.8]), None)
    a2 = model.averaged_at(np.array([0.8]), None)
    assert a1 is a2


def test_x_derivative_solves_are_finite_and_centered():
    coeffs = _x_dependent_coeffs()
    cell, (grad_x, mixed) = solve_with_x_derivatives(
        coeffs, np.array([0.3]), scheme="spectral", n=64)
    assert np.all(np.isfinite(grad_x))
    assert np.all(np.isfinite(mixed))
    avg = averaged_coefficients(cell, None, (grad_x, mixed), True)
    assert np.all(np.isfinite(avg.drift))
    assert np.linalg.eigvalsh(avg.diffusion).min() > 0


def test_mu_dependent_route_uses_fingerprint_cache():
    def f(x, y, mu):
        y = np.atleast_2d(y)
        scale = 1.0 + (0.2 * float(mu.mean()[0]) if mu is not None else 0.0)
        return (scale * TWO_PI * np.sin(TWO_PI * y[:, 0]))[:, None]

    def sigma(x, y, mu):
        return np.sqrt(2.0) * np.eye(1)

    coeffs = FastCoefficients(dim=1, f=f, sigma=sigma, mu_dependent=True)
    model = homogenize(coeffs, scheme="spectral", n=64)
    mu_a = EmpiricalMeasure(np.full((5, 1), 0.5))
    mu_b = EmpiricalMeasure(np.full((5, 1), -0.5))
    xs = np.zeros((3, 1))
    da = model.diffusion_batch(xs, mu_a)[0]
    db = model.diffusion_batch(xs, mu_b)[0]
    assert abs(da[0, 0] - db[0, 0]) > 1e-4
    assert model.averaged_at(None, mu_a) is model.averaged_at(None, mu_a)


def test_mu_dependent_route_refuses_a_measure_without_fingerprint():
    coeffs = FastCoefficients(
        dim=1, f=lambda x, y, mu: np.zeros_like(np.atleast_2d(y)),
        sigma=lambda x, y, mu: np.eye(1), mu_dependent=True)
    model = homogenize(coeffs, scheme="spectral", n=16)

    class BareMeasure:
        def mean(self):
            return np.zeros(1)

    with pytest.raises(ValidationError, match="BareMeasure has no fingerprint method"):
        model.drift_batch(np.zeros((2, 1)), BareMeasure())


def test_gamma_separable_quadrature_converges():
    pot = SeparablePotential(
        components=[(lambda y: np.cos(TWO_PI * y),
                     lambda y: -TWO_PI * np.sin(TWO_PI * y))],
        sigma=np.sqrt(2.0))
    coarse = gamma_separable(pot, quad_points=128)[0, 0]
    fine = gamma_separable(pot, quad_points=1024)[0, 0]
    assert abs(coarse - fine) < 1e-12


def test_separable_model_without_slow_drift_has_zero_drift():
    sc = get_scenario("separable_2d")
    model = separable_model(sc.potential)
    xs = np.random.default_rng(0).normal(size=(6, 2))
    assert np.abs(model.drift_batch(xs, None)).max() == 0.0
