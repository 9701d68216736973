"""Rate functional: oracles, bounds, and dictionary mechanics."""
import json

import numpy as np
import pytest
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
from mvhomog.rate import HermiteFunction


def gaussian_shift_path(v: float, s0: float = 1.0, n: int = 512,
                        snapshots: int = 21) -> MeasurePath:
    """Deterministic N(v t, s0^2 + t) path on a quantile lattice."""
    qs = ndtri((np.arange(n) + 0.5) / n)
    ts = np.linspace(0.0, 1.0, snapshots)
    measures = [EmpiricalMeasure(v * t + np.sqrt(s0 ** 2 + t) * qs) for t in ts]
    return MeasurePath(ts, measures)


def heat_model() -> EffectiveModel:
    return EffectiveModel(1, lambda xs, mu: np.zeros_like(xs), np.eye(1))


def test_dictionary_derivatives_verified():
    # construction with verify=True runs the finite-difference cross-check
    d = hermite_dictionary(2, per_axis=3, verify=True)
    assert d.size == 9
    d.verify_derivatives(seed=5)


def test_dictionary_heads_are_nested():
    d = hermite_dictionary(1, per_axis=6)
    sub = d.head(3)
    assert sub.size == 3
    assert sub.labels == d.labels[:3]
    for a, b in zip(sub.basis, d.basis):
        assert a is b
    with pytest.raises(ValidationError):
        d.head(1)


def test_dictionary_validation():
    with pytest.raises(ValidationError):
        hermite_dictionary(1, per_axis=1)
    with pytest.raises(ValidationError):
        hermite_dictionary(3, per_axis=5)  # 125 functions
    with pytest.raises(ValidationError):
        HermiteFunction([-1], np.zeros(1), np.ones(1))
    with pytest.raises(ValidationError):
        HermiteFunction([2], np.zeros(1), np.zeros(1))


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
    phi = HermiteFunction([2], np.zeros(1), np.ones(1))
    xs = np.linspace(-2.0, 2.0, 17)[:, None]
    gen = model.generator_apply(phi.grad(xs), phi.hess(xs), xs, None)
    direct = -xs[:, 0] * phi.grad(xs)[:, 0] + 0.5 * phi.hess(xs)[:, 0, 0]
    assert np.max(np.abs(gen - direct)) < 1e-12


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
    """Same test function multiplied by a constant factor."""

    def __init__(self, base, factor: float):
        self.base = base
        self.factor = factor
        self.dim = base.dim
        self.label = f"{base.label}x{factor}"

    def value(self, x):
        return self.factor * self.base.value(x)

    def grad(self, x):
        return self.factor * self.base.grad(x)

    def hess(self, x):
        return self.factor * self.base.hess(x)


def test_action_invariant_under_dictionary_rescaling():
    path = gaussian_shift_path(v=1.0, n=128, snapshots=9)
    d = dictionary_for_path(path, per_axis=4)
    scaled = TestDictionary([_Scaled(b, 3.0) for b in d.basis])
    r1 = evaluate_jdg(path, heat_model(), d)
    r2 = evaluate_jdg(path, heat_model(), scaled)
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
    """Constant test function: zero gradient makes the Gram matrix null."""

    dim = 1
    label = "flat"

    def value(self, x):
        return np.ones(len(np.atleast_2d(x)))

    def grad(self, x):
        return np.zeros((len(np.atleast_2d(x)), 1))

    def hess(self, x):
        return np.zeros((len(np.atleast_2d(x)), 1, 1))


def test_degenerate_dictionary_warns_and_stays_finite():
    path = gaussian_shift_path(v=1.0, n=32, snapshots=5)
    d = TestDictionary([_Flat(), _Flat()])
    with pytest.warns(RuntimeWarning):
        rep = evaluate_jdg(path, heat_model(), d)
    assert np.isfinite(rep.total)
    assert rep.total == 0.0
    assert len(rep.degenerate_times) == len(path)


def test_series_filter_smoke_and_validation():
    path = gaussian_shift_path(v=1.0, n=128, snapshots=9)
    d = dictionary_for_path(path, per_axis=4)
    rep = evaluate_jdg(path, heat_model(), d, series_filter="ma3")
    assert np.isfinite(rep.total)
    with pytest.raises(ValidationError):
        evaluate_jdg(path, heat_model(), d, series_filter="boxcar")
    short = MeasurePath(path.times[:2], path.measures[:2])
    with pytest.raises(ValidationError):
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
