"""Rate functional: oracles, bounds, and dictionary mechanics."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import hermite_e
from scipy.special import ndtri

from mvhomog import (
    EffectiveModel,
    EmpiricalMeasure,
    MeasurePath,
    SimConfig,
    TestDictionary,
    ValidationError,
    constant_control,
    control_cost_bound,
    dictionary_for_path,
    evaluate_jdg,
    get_scenario,
    hermite_dictionary,
)


def gaussian_shift_path(v: float, s0: float = 1.0, n: int = 512,
                        snapshots: int = 21) -> MeasurePath:
    """Deterministic N(v t, s0^2 + t) path on a quantile lattice."""
    qs = ndtri((np.arange(n) + 0.5) / n)
    ts = np.linspace(0.0, 1.0, snapshots)
    measures = [EmpiricalMeasure(v * t + np.sqrt(s0 ** 2 + t) * qs) for t in ts]
    return MeasurePath(ts, measures)


def heat_model() -> EffectiveModel:
    return EffectiveModel(1, lambda xs, mu: np.zeros_like(xs), np.eye(1))


def test_dictionary_derivatives_verified(monkeypatch):
    # construction always runs the finite-difference cross-check
    checked, real = [], TestDictionary.verify_derivatives
    monkeypatch.setattr(TestDictionary, "verify_derivatives",
                        lambda self: checked.append(self) or real(self))
    d = hermite_dictionary(2, per_axis=3)
    assert checked == [d] and d.size == 9
    real(d, seed=5)


def test_dictionary_heads_are_nested():
    d = hermite_dictionary(1, per_axis=6)
    sub = d.head(3)
    assert sub.size == 3
    assert sub.labels == d.labels[:3]
    assert np.array_equal(sub.orders, d.orders[:3])
    x = np.linspace(-2.0, 2.0, 9)[:, None]
    for part, full in zip(sub.evaluate(x), d.evaluate(x)):
        assert np.array_equal(part, full[:, :3])
    with pytest.raises(ValidationError):
        d.head(1)


def test_dictionary_validation():
    with pytest.raises(ValidationError):
        hermite_dictionary(1, per_axis=1)
    with pytest.raises(ValidationError, match="limit of 64"):
        hermite_dictionary(3, per_axis=5)  # 125 functions
    with pytest.raises(ValidationError, match="negative Hermite order"):
        TestDictionary([[-1], [2]], 0.0, 1.0)
    with pytest.raises(ValidationError, match="scale must be positive"):
        TestDictionary([[0], [2]], 0.0, 0.0)
    with pytest.raises(ValidationError, match="scale must be positive"):
        TestDictionary([[0, 1], [2, 0]], 0.0, [1.0, -1.0])


class _WrongHessian(TestDictionary):
    """Hermite dictionary whose Hessians are off by a factor of two."""

    def evaluate(self, x):
        values, grads, hessians = super().evaluate(x)
        return values, grads, 2.0 * hessians


def test_derivative_check_catches_a_wrong_hessian():
    d = _WrongHessian([[0, 0], [1, 0], [0, 2]], 0.0, 1.0)
    with pytest.raises(ValidationError, match="Hessian of he00"):
        d.verify_derivatives()


def test_dictionary_matches_hermeval_products():
    # reference: each function as a product of per-axis numpy Hermite series,
    # with psi' = (k He_{k-1} - u He_k) e and
    # psi'' = (k (k-1) He_{k-2} - 2 u k He_{k-1} + (u^2 - 1) He_k) e
    center, scale = np.array([0.3, -0.5]), np.array([1.5, 0.7])
    d = hermite_dictionary(2, per_axis=5, center=center, scale=scale)
    x = np.random.default_rng(1).normal(scale=1.5, size=(40, 2))
    u = (x - center) / scale
    env = np.exp(-0.5 * u * u)

    def he(k):
        return hermite_e.hermeval(u, np.eye(k + 1)[k]) if k >= 0 else 0.0 * u

    parts = []
    for k in range(5):
        parts.append([he(k) * env,
                      (k * he(k - 1) - u * he(k)) * env / scale,
                      (k * (k - 1) * he(k - 2) - 2.0 * u * k * he(k - 1)
                       + (u * u - 1.0) * he(k)) * env / scale ** 2])
    values, grads, hessians = d.evaluate(x)
    for j, (k0, k1) in enumerate(d.orders):
        (p0, dp0, ddp0), (p1, dp1, ddp1) = parts[k0], parts[k1]
        expect = [p0[:, 0] * p1[:, 1],
                  np.stack([dp0[:, 0] * p1[:, 1], p0[:, 0] * dp1[:, 1]], axis=1),
                  np.array([[ddp0[:, 0] * p1[:, 1], dp0[:, 0] * dp1[:, 1]],
                            [dp0[:, 0] * dp1[:, 1], p0[:, 0] * ddp1[:, 1]]]
                           ).transpose(2, 0, 1)]
        for got, want in zip((values[:, j], grads[:, j], hessians[:, j]), expect):
            assert np.allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())


def test_generator_kills_constants_exactly():
    model = get_scenario("dawson_rough").effective_model()
    xs = np.linspace(-2.0, 2.0, 31)[:, None]
    mu = EmpiricalMeasure(xs)
    zeros_g = np.zeros((len(xs), 1))
    zeros_h = np.zeros((len(xs), 1, 1))
    out = model.generator_apply(zeros_g, zeros_h, xs, mu)
    assert np.all(out == 0.0)


def test_apply_generator_matches_direct_formula():
    # Ornstein-Uhlenbeck: L phi = -x phi' + 1/2 phi''
    model = EffectiveModel(1, lambda xs, mu: -xs, np.eye(1))
    xs = np.linspace(-2.0, 2.0, 17)[:, None]
    _, grads, hessians = TestDictionary([[0], [2]], 0.0, 1.0).evaluate(xs)
    gen = model.generator_apply(grads[:, 1], hessians[:, 1], xs, None)
    direct = -xs[:, 0] * grads[:, 1, 0] + 0.5 * hessians[:, 1, 0, 0]
    assert np.max(np.abs(gen - direct)) < 1e-12
    # a whole dictionary at once: (N, B, d) gradients give (N, B) values
    whole = model.generator_apply(grads, hessians, xs, None)
    assert whole.shape == (17, 2)
    assert np.array_equal(whole[:, 1], gen)


def _tilted_diffusion(calls):
    """An x-dependent 2x2 diffusion that records the atoms it is called on."""
    def diffusion(xs, mu):
        calls.append(len(xs))
        scale = 1.0 + 0.2 * np.tanh(xs[:, 0])
        return scale[:, None, None] * np.array([[1.0, 0.3], [0.3, 0.8]])
    return diffusion


def test_action_evaluates_the_diffusion_once_per_snapshot():
    calls = []
    model = EffectiveModel(2, lambda xs, mu: -0.5 * xs, _tilted_diffusion(calls))
    rs = np.random.default_rng(3)
    times = np.linspace(0.0, 1.0, 5)
    path = MeasurePath(times, [EmpiricalMeasure(rs.normal(size=(50, 2)) * (1.0 + t))
                               for t in times])
    report = evaluate_jdg(path, model, dictionary_for_path(path, 3))
    assert calls == [50] * 5
    assert np.isfinite(report.total)


@pytest.mark.parametrize("constant", [True, False])
def test_generator_and_noise_are_the_separate_calls_bits(constant):
    diffusion = np.array([[1.0, 0.3], [0.3, 0.8]]) if constant else _tilted_diffusion([])
    model = EffectiveModel(2, lambda xs, mu: np.sin(xs), diffusion)
    xs = np.random.default_rng(4).normal(size=(40, 2))
    _, grads, hessians = TestDictionary([[0, 1], [2, 0], [1, 2]], 0.0, 1.0).evaluate(xs)
    generated, noise = model.generator_and_noise(grads, hessians, xs, None)
    assert np.array_equal(generated, model.generator_apply(grads, hessians, xs, None))
    assert np.array_equal(noise, model.noise_batch(xs, None))


def test_gaussian_shift_action_matches_half_v_squared():
    path = gaussian_shift_path(v=1.0)
    d = dictionary_for_path(path, per_axis=6)
    assert d.size >= 6
    rep = evaluate_jdg(path, heat_model(), d)
    assert rep.lower_bound
    assert abs(rep.total - 0.5) < 0.05


def test_pure_heat_flow_has_near_zero_action():
    path = gaussian_shift_path(v=0.0)
    d = dictionary_for_path(path, per_axis=6)
    rep = evaluate_jdg(path, heat_model(), d)
    assert rep.total >= 0.0
    assert rep.total < 1e-3


class _Scaled:
    """The same test functions multiplied by a constant factor."""

    def __init__(self, base, factor: float):
        self.base = base
        self.factor = factor
        self.size = base.size

    def evaluate(self, x):
        return tuple(self.factor * part for part in self.base.evaluate(x))


def test_action_invariant_under_dictionary_rescaling():
    path = gaussian_shift_path(v=1.0, n=128, snapshots=9)
    d = dictionary_for_path(path, per_axis=4)
    r1 = evaluate_jdg(path, heat_model(), d)
    r2 = evaluate_jdg(path, heat_model(), _Scaled(d, 3.0))
    assert abs(r1.total - r2.total) < 1e-10


def test_nested_dictionaries_give_monotone_values():
    path = gaussian_shift_path(v=1.0, n=256, snapshots=11)
    d = dictionary_for_path(path, per_axis=6)
    model = heat_model()
    values = [evaluate_jdg(path, model, d.head(b)).total for b in range(2, d.size + 1)]
    for small, large in zip(values, values[1:]):
        assert small <= large + 1e-8


def test_cutoff_sweep_changes_value_below_one_percent():
    path = gaussian_shift_path(v=1.0, n=256, snapshots=11)
    d = dictionary_for_path(path, per_axis=6)
    model = heat_model()
    r1 = evaluate_jdg(path, model, d, cutoff=1e-8)
    r2 = evaluate_jdg(path, model, d, cutoff=1e-10)
    assert abs(r1.total - r2.total) <= 0.01 * max(abs(r2.total), 1e-12)


def test_initial_condition_mismatch_gives_infinity():
    path = gaussian_shift_path(v=1.0, n=64, snapshots=5)
    d = dictionary_for_path(path, per_axis=3)
    nu0 = EmpiricalMeasure(np.full((64, 1), 5.0))
    rep = evaluate_jdg(path, heat_model(), d, nu0=nu0)
    assert np.isinf(rep.total)
    assert rep.initial_distance is not None and rep.initial_distance > 1.0
    assert rep.as_dict()["total"] == "inf"
    # matching initial condition leaves the value finite
    ok = evaluate_jdg(path, heat_model(), d, nu0=path.measures[0])
    assert np.isfinite(ok.total)
    assert ok.initial_distance == 0.0


class _Flat:
    """Two constant test functions: zero gradients make the Gram matrix null."""

    size = 2

    def evaluate(self, x):
        n = len(np.atleast_2d(x))
        return np.ones((n, 2)), np.zeros((n, 2, 1)), np.zeros((n, 2, 1, 1))


def test_degenerate_dictionary_warns_and_stays_finite():
    path = gaussian_shift_path(v=1.0, n=32, snapshots=5)
    d = _Flat()
    with pytest.warns(RuntimeWarning):
        rep = evaluate_jdg(path, heat_model(), d)
    assert np.isfinite(rep.total)
    assert rep.total == 0.0
    assert len(rep.degenerate_times) == len(path)


def test_action_needs_three_snapshots():
    path = gaussian_shift_path(v=1.0, n=128, snapshots=9)
    d = dictionary_for_path(path, per_axis=4)
    short = MeasurePath(path.times[:2], path.measures[:2])
    with pytest.raises(ValidationError, match="at least 3 snapshots"):
        evaluate_jdg(short, heat_model(), d)


def test_report_json_round_trip(tmp_path):
    path = gaussian_shift_path(v=1.0, n=128, snapshots=9)
    d = dictionary_for_path(path, per_axis=4)
    rep = evaluate_jdg(path, heat_model(), d)
    out = tmp_path / "rate.json"
    rep.save_json(out)
    loaded = json.loads(out.read_text())
    assert set(loaded) == {"times", "integrand", "total", "basis",
                           "gram_condition", "lower_bound",
                           "degenerate_times", "initial_distance"}
    assert loaded["basis"] == d.size
    assert loaded["total"] == pytest.approx(rep.total)
    assert len(loaded["times"]) == len(path)
    assert all(c is None or c >= 1.0 for c in loaded["gram_condition"])


def test_control_cost_bound_on_tilted_run():
    sc = get_scenario("free_brownian")
    config = SimConfig(n_particles=2000, dt=0.02, t_end=1.0, seed=42,
                       snapshot_times=np.linspace(0.0, 1.0, 11))
    control = constant_control(0.8, sc.noise_dim)
    record = sc.run_averaged(config, control=control)
    path = record.measure_path()
    d = dictionary_for_path(path, per_axis=6)
    report = control_cost_bound(path, record.mean_cost, sc.effective_model(), d)
    assert report.cost == pytest.approx(0.5 * 0.8 ** 2, abs=1e-12)
    assert report.passed, (report.rate_value, report.bound)
    assert report.margin >= 0.0
    # the measured action should also be positive: the path is genuinely tilted
    assert report.rate_value > 0.05


def _averaged_path(name: str, n: int) -> MeasurePath:
    sc = get_scenario(name)
    config = SimConfig(n_particles=n, dt=0.01, t_end=1.0, seed=3,
                       snapshot_times=np.linspace(0.0, 1.0, 11))
    return sc.run_averaged(config).measure_path()


@pytest.mark.parametrize("name, n", [("dawson_rough", 600), ("separable_2d", 400)])
def test_action_is_bit_identical_under_atom_permutations(name, n):
    path = _averaged_path(name, n)
    # ties with unequal weights: equal atoms must sort the same way too
    rs = np.random.default_rng(9)
    weights = rs.uniform(0.5, 1.5, size=n)
    tied = MeasurePath(path.times, [
        EmpiricalMeasure(np.round(m.atoms, 1), weights / weights.sum())
        for m in path.measures])
    model = get_scenario(name).effective_model()
    for base in (path, tied):
        d = dictionary_for_path(base, per_axis=6)
        ref = evaluate_jdg(base, model, d)
        for _ in range(10):
            measures = []
            for m in base.measures:
                p = rs.permutation(m.size)
                measures.append(EmpiricalMeasure(m.atoms[p], m.weights[p]))
            rep = evaluate_jdg(MeasurePath(base.times, measures), model, d)
            assert rep.total == ref.total
            assert np.array_equal(rep.integrand, ref.integrand)
            assert np.array_equal(rep.gram_condition, ref.gram_condition)


_BITS_SCRIPT = """
import json
import numpy as np
from mvhomog import MeasurePath, dictionary_for_path, evaluate_jdg, get_scenario
rs = np.random.default_rng(4)
base = rs.normal(size=(4000, 2))
times = np.linspace(0.0, 1.0, 11)
path = MeasurePath.from_arrays(
    times, np.stack([(1.0 + t) * base + [0.5 * t, -t] for t in times]))
model = get_scenario("separable_2d").effective_model()
rep = evaluate_jdg(path, model, dictionary_for_path(path, 6))
print(json.dumps([float(v).hex() for v in
                  [rep.total, *rep.integrand, *rep.gram_condition]]))
"""


def test_action_bits_do_not_depend_on_the_blas_thread_count():
    # the Gram matrix is H^T H (syrk) and the weighted sums w @ V (gemv);
    # with OpenBLAS both give the same bits at one and two threads, where a
    # plain gemm of the Gram's shape does not
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", _BITS_SCRIPT], env=env,
                                capture_output=True, text=True, check=True)
        bits.append(json.loads(result.stdout))
    assert bits[0] == bits[1]
