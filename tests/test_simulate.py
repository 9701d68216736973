import csv
import json

import numpy as np
import pytest

from mvhomog.effective import EffectiveModel
from mvhomog.errors import SimulationError, ValidationError
from mvhomog.measures import EmpiricalMeasure, radial_moment
from mvhomog.scenarios import DAWSON_KAPPA, get_scenario
from mvhomog import rng
from mvhomog.simulate import (FeedbackControl, Lane, SimConfig, TrajectoryRecord,
                              _monitor, _wrap_unit, averaged_lane, constant_control,
                              load_trajectory_csv, multiscale_lane, simulate_averaged,
                              simulate_lanes)


def _dawson_cfg(n=300, eps=0.1, t_end=0.2, seed=3, **kw):
    return SimConfig(n_particles=n, dt=eps * eps / 10, t_end=t_end, seed=seed,
                     epsilon=eps, **kw)


def test_exchangeability_under_stream_permutation():
    sc = get_scenario("dawson_rough")
    cfg = _dawson_cfg(n=64)
    perm = np.random.default_rng(0).permutation(64)
    base = sc.run_multiscale(cfg)
    x0 = sc.initial_positions(64, cfg.seed)

    from mvhomog.simulate import simulate_multiscale
    permuted = simulate_multiscale(
        sc.fast_drift, sc._sigma_fn(), sc.slow_drift, sc.dim, sc.noise_dim,
        x0[perm], cfg, moment_cap=sc.moment_cap, scenario_name=sc.name,
        streams=perm.astype(np.uint64))
    assert np.array_equal(permuted.positions[-1], base.positions[-1][perm])


def test_first_snapshot_is_initial_condition():
    sc = get_scenario("cos_rough_1d")
    cfg = _dawson_cfg(n=100, eps=0.2, t_end=0.1, seed=9)
    rec = sc.run_multiscale(cfg)
    assert rec.times[0] == 0.0
    assert np.array_equal(rec.positions[0], sc.initial_positions(100, 9))


def test_trajectory_csv_roundtrip(tmp_path):
    sc = get_scenario("dawson_rough")
    rec = sc.run_multiscale(_dawson_cfg(n=50))
    path = tmp_path / "run.csv"
    rec.save_csv(path)
    loaded = load_trajectory_csv(path)
    assert np.array_equal(np.asarray(loaded.times), rec.times)
    for k, m in enumerate(loaded.measures):
        assert np.array_equal(m.atoms, rec.positions[k])


def test_summary_json_contents(tmp_path):
    sc = get_scenario("free_brownian")
    cfg = SimConfig(n_particles=40, dt=0.05, t_end=0.5, seed=2,
                    log_controls=True)
    control = constant_control([0.3], 1)
    rec = sc.run_averaged(cfg, control)
    path = tmp_path / "run.summary.json"
    rec.save_summary_json(path)
    data = json.loads(path.read_text())
    assert data["version"].startswith("v")
    assert data["config"]["n_particles"] == 40
    assert len(data["snapshots"]) == len(rec.times)
    assert len(data["w2_consecutive"]) == len(rec.times) - 1
    assert data["control"]["mean_cost"] == pytest.approx(0.5 * 0.3 ** 2 * 0.5)
    assert data["position_hash"] == rec.position_hash()


def test_moment_cap_aborts_with_step_info():
    sc = get_scenario("dawson_rough")
    cfg = SimConfig(n_particles=100, dt=0.01, t_end=1.0, seed=1)
    control = constant_control([60.0], 1)
    with pytest.raises(SimulationError) as err:
        sc.run_averaged(cfg, control)
    msg = str(err.value)
    assert "order 4" in msg
    assert "step" in msg


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_nonfinite_positions_abort():
    model = EffectiveModel(1, lambda xs, mu: 1e200 * xs, np.eye(1))
    cfg = SimConfig(n_particles=10, dt=0.25, t_end=1.0, seed=0)
    with pytest.raises(SimulationError):
        simulate_averaged(model, np.ones((10, 1)), cfg)


def test_stiffness_gate_names_suggested_step():
    sc = get_scenario("dawson_rough")
    cfg = SimConfig(n_particles=10, dt=0.01, t_end=1.0, seed=0, epsilon=0.1)
    with pytest.raises(ValidationError) as err:
        sc.run_multiscale(cfg)
    msg = str(err.value)
    assert "0.1 * eps^2" in msg
    assert "suggested" in msg


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(n_particles=0, dt=0.1)
    with pytest.raises(ValidationError):
        SimConfig(n_particles=10, dt=0.3, t_end=1.0)  # not a whole number of steps
    with pytest.raises(ValidationError):
        SimConfig(n_particles=10, dt=0.1, t_end=1.0,
                  snapshot_times=np.array([0.0, 0.1001, 0.1002]))  # collides


def test_constant_control_shifts_mean_and_costs_exactly():
    sc = get_scenario("free_brownian")
    c = 0.8
    cfg = SimConfig(n_particles=4000, dt=0.01, t_end=1.0, seed=12)
    rec = sc.run_averaged(cfg, constant_control([c], 1))
    # noise matrix is the identity, so the mean drifts at rate c
    assert abs(np.mean(rec.positions[-1]) - c) < 0.08
    assert rec.mean_cost == pytest.approx(0.5 * c * c, abs=1e-12)


def test_cost_accumulator_matches_logged_controls():
    sc = get_scenario("free_brownian")
    cfg = SimConfig(n_particles=60, dt=0.02, t_end=0.5, seed=4,
                    log_controls=True)

    def feedback(t, xs, mu):
        return -0.3 * xs + 0.1 * np.sin(t)

    rec = sc.run_averaged(cfg, FeedbackControl(feedback, 1, label="pullback"))
    assert rec.control_log is not None
    half_sq = 0.5 * np.sum(rec.control_log ** 2, axis=2)  # (K+1, N)
    recomputed = np.trapezoid(half_sq, rec.control_times, axis=0)
    assert np.abs(recomputed - rec.cost_per_particle).max() <= 1e-12


def test_weak_order_one_on_averaged_system():
    # linear pullback with tiny noise: Euler's mean error is O(dt)
    model = EffectiveModel(1, lambda xs, mu: -xs, 1e-4 * np.eye(1))
    errs, dts = [], (0.1, 0.05, 0.025)
    for dt in dts:
        cfg = SimConfig(n_particles=2000, dt=dt, t_end=1.0, seed=7)
        rec = simulate_averaged(model, np.ones((2000, 1)), cfg)
        errs.append(abs(float(np.mean(rec.positions[-1])) - np.exp(-1.0)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.7 <= slope <= 1.3


def test_second_moment_stays_below_declared_bound():
    for name in ("free_brownian", "cos_rough_1d", "dawson_rough", "separable_2d"):
        sc = get_scenario(name)
        cfg = SimConfig(n_particles=2000, dt=0.01, t_end=1.0, seed=21)
        rec = sc.run_averaged(cfg)
        sup = max(float(np.mean(np.sum(p * p, axis=1))) for p in rec.positions)
        assert sup < sc.second_moment_bound, name


def test_second_moment_bound_multiscale():
    sc = get_scenario("cos_rough_1d")
    eps = 0.1
    cfg = SimConfig(n_particles=500, dt=eps * eps / 40, t_end=0.5, seed=22,
                    epsilon=eps)
    rec = sc.run_multiscale(cfg)
    sup = max(float(np.mean(p * p)) for p in rec.positions)
    assert sup < sc.second_moment_bound


def test_quadratic_interaction_matches_pairwise_sum():
    xs = np.random.default_rng(11).normal(size=(200, 1))
    mu = EmpiricalMeasure(xs)
    sc = get_scenario("dawson_rough")
    fast_path = sc.slow_drift(xs, mu)
    v = xs[:, 0]
    local = (-(v ** 3 - v))[:, None]
    # (1/N) sum_j kappa (x_i - x_j), summed in sorted order per particle
    diffs = DAWSON_KAPPA * (xs[:, None, :] - xs[None, :, :])
    pair_term = np.sort(diffs, axis=1).sum(axis=1) / len(xs)
    assert np.abs(fast_path - (local - pair_term)).max() < 1e-12


def test_multiscale_equals_averaged_without_fast_layer():
    sc = get_scenario("free_brownian")
    cfg_ms = SimConfig(n_particles=200, dt=0.004, t_end=0.2, seed=7, epsilon=0.2)
    cfg_av = SimConfig(n_particles=200, dt=0.004, t_end=0.2, seed=7)
    a = sc.run_multiscale(cfg_ms)
    b = sc.run_averaged(cfg_av)
    assert np.array_equal(a.positions, b.positions)


def _csv_writer_reference(rec, path):
    """The trajectory CSV as the csv module writes it."""
    dim = rec.positions.shape[2]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "particle_id"] + [f"x{k+1}" for k in range(dim)])
        for t, pos in zip(rec.times, rec.positions):
            for i in range(pos.shape[0]):
                w.writerow([repr(float(t)), i] + [repr(float(v)) for v in pos[i]])


@pytest.mark.parametrize("dim", [1, 2])
def test_save_csv_bytes_match_csv_writer(tmp_path, dim):
    special = [-0.0, 1e-300, 0.0, -1e-300, 5e-324, 1.0 / 3.0, -123456.789e10]
    g = np.random.default_rng(dim)
    positions = g.normal(size=(3, 7, dim))
    positions[1, :, 0] = special
    positions[2, :, -1] = special[::-1]
    rec = TrajectoryRecord(scenario="t", mode="averaged",
                           config=SimConfig(n_particles=7, dt=0.1, t_end=0.2),
                           times=np.array([0.0, 0.1, 0.2]), positions=positions)
    rec.save_csv(tmp_path / "fast.csv")
    _csv_writer_reference(rec, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_moment_gate_is_permutation_exact():
    g = np.random.default_rng(6)
    x = g.normal(size=(1001, 2)) * 10.0 ** g.integers(-4, 2, size=(1001, 1))
    n = len(x)
    m = radial_moment(x, np.full(n, 1.0 / n), 4)
    below = np.nextafter(m, -np.inf)
    for _ in range(10):
        xp = x[g.permutation(n)]
        assert radial_moment(xp, np.full(n, 1.0 / n), 4) == m
        _monitor(xp, 1, 0.1, (4, m))
        with pytest.raises(SimulationError):
            _monitor(xp, 1, 0.1, (4, below))


def test_wrap_unit_matches_np_mod_bit_for_bit():
    g = np.random.default_rng(12)
    tiny = np.nextafter(0.0, 1.0)
    z = np.concatenate([
        g.normal(size=20000) * 10.0 ** g.integers(-20, 20, size=20000),
        np.arange(-100.0, 100.0, 0.125),
        np.nextafter(np.arange(-50.0, 50.0), -np.inf),
        np.nextafter(np.arange(-50.0, 50.0), np.inf),
        [-0.0, 0.0, tiny, -tiny, -1e-300, 2.0 ** 53, -2.0 ** 53, -2.0 ** 52 - 0.5],
    ])
    assert np.array_equal(_wrap_unit(z).view(np.int64), np.mod(z, 1.0).view(np.int64))


def _pre_cfg(cfg):
    return SimConfig(n_particles=cfg.n_particles, dt=cfg.dt, t_end=cfg.t_end,
                     seed=cfg.seed, snapshot_times=cfg.snapshot_times)


def _assert_coupled_equals_separate(sc, cfg, streams=None):
    model = sc.effective_model()
    ms, pre = sc.run_coupled(cfg, model=model, streams=streams)
    alone_ms = sc.run_multiscale(cfg, streams=streams)
    alone_pre = sc.run_averaged(_pre_cfg(cfg), mode="pre_averaged", model=model,
                                streams=streams)
    assert ms.position_hash() == alone_ms.position_hash()
    assert pre.position_hash() == alone_pre.position_hash()
    assert ms.summary() == alone_ms.summary()
    assert pre.summary() == alone_pre.summary()
    assert pre.summary()["config"]["epsilon"] is None
    assert (ms.mode, pre.mode) == ("multiscale", "pre_averaged")
    return ms, pre


def test_coupled_run_matches_separate_runs():
    # 200 steps at N=300 span two noise blocks that do not divide the run
    _assert_coupled_equals_separate(get_scenario("dawson_rough"), _dawson_cfg())


def test_coupled_run_matches_separate_runs_two_noise_components():
    sc = get_scenario("nongradient_2d")
    cfg = SimConfig(n_particles=64, dt=0.004, t_end=0.2, seed=5, epsilon=0.2)
    ms, _ = _assert_coupled_equals_separate(sc, cfg)
    assert ms.positions.shape == (len(ms.times), 64, 2)


def test_coupled_run_matches_separate_runs_under_permuted_streams():
    sc = get_scenario("dawson_rough")
    perm = np.random.default_rng(3).permutation(300).astype(np.uint64)
    ms, _ = _assert_coupled_equals_separate(sc, _dawson_cfg(), streams=perm)
    assert ms.position_hash() != sc.run_multiscale(_dawson_cfg()).position_hash()


def test_lane_with_a_control_matches_its_separate_run():
    sc = get_scenario("dawson_rough")
    model = sc.effective_model()
    cfg = _dawson_cfg(n=120, log_controls=True)
    x0 = sc.initial_positions(120, cfg.seed)
    coupled_control = constant_control([0.4], 1)
    lanes = [multiscale_lane(sc.fast_drift, sc._sigma_fn(), sc.slow_drift, 1, 1, x0, cfg,
                             moment_cap=sc.moment_cap),
             averaged_lane(model, x0, cfg, control=coupled_control,
                           moment_cap=sc.moment_cap)]
    ms, controlled = simulate_lanes(lanes)
    alone_control = constant_control([0.4], 1)
    alone = simulate_averaged(model, x0, cfg, control=alone_control,
                              moment_cap=sc.moment_cap)
    assert controlled.position_hash() == alone.position_hash()
    assert np.array_equal(controlled.cost_per_particle, alone.cost_per_particle)
    assert np.array_equal(coupled_control.cost_per_particle, alone_control.cost_per_particle)
    assert np.array_equal(controlled.control_log, alone.control_log)
    assert ms.cost_per_particle is None
    assert ms.position_hash() == sc.run_multiscale(cfg).position_hash()


def test_lanes_of_different_noise_widths_draw_their_own_noise():
    sc = get_scenario("dawson_rough")
    cfg = _dawson_cfg(n=90)
    x0 = sc.initial_positions(90, cfg.seed)
    mixing = np.array([[0.6, 0.8]])

    def two_component(t, xs, mu):
        return -xs, mixing

    wide = Lane(two_component, 1, 2, x0, cfg)
    narrow = multiscale_lane(sc.fast_drift, sc._sigma_fn(), sc.slow_drift, 1, 1, x0, cfg,
                             moment_cap=sc.moment_cap)
    both = simulate_lanes([wide, narrow])
    assert both[0].position_hash() == simulate_lanes([wide])[0].position_hash()
    assert both[1].position_hash() == sc.run_multiscale(cfg).position_hash()


def test_driver_noise_blocks_equal_per_step_draws():
    # 157 steps at N=700: blocks of 46 steps, the last one partial
    model = EffectiveModel(1, lambda xs, mu: -xs, 0.25 * np.eye(1))
    n, dt, seed = 700, 0.01, 41
    cfg = SimConfig(n_particles=n, dt=dt, t_end=157 * dt, seed=seed,
                    snapshot_times=np.array([0.0, 157 * dt]))
    x0 = np.linspace(-1.0, 1.0, n)[:, None]
    rec = simulate_averaged(model, x0, cfg)
    b_mat, sqrt_dt = model.noise(), np.sqrt(dt)
    x = x0.copy()
    for k in range(cfg.n_steps):
        xi = rng.normals(seed, np.arange(n), k, 1)
        x = x + model.drift_batch(x, None) * dt + (xi @ b_mat.T) * sqrt_dt
    assert np.array_equal(rec.positions[-1], x)


def test_lanes_must_share_their_geometry():
    sc = get_scenario("dawson_rough")
    model = sc.effective_model()
    cfg = _dawson_cfg(n=50)
    x0 = sc.initial_positions(50, cfg.seed)
    for other in (_dawson_cfg(n=50, seed=4),
                  SimConfig(n_particles=50, dt=cfg.dt / 2, t_end=cfg.t_end)):
        with pytest.raises(ValidationError):
            simulate_lanes([averaged_lane(model, x0, cfg),
                            averaged_lane(model, x0, other)])


def test_a_failed_lane_stops_alone_and_the_first_failure_is_raised():
    # x grows by 10 % a step: the second moment passes 1.2 at step 1, 2.0 at step 4
    cfg = SimConfig(n_particles=4, dt=0.1, t_end=1.0, seed=1)

    def growth(t, xs, mu):
        return xs, np.zeros((1, 1))

    late, early = (Lane(growth, 1, 1, np.ones((4, 1)), cfg, moment_cap=(2, cap))
                   for cap in (2.0, 1.2))
    errors = {}
    for name, lanes in (("late", [late]), ("early", [early]),
                        ("late_early", [late, early]), ("early_late", [early, late])):
        with pytest.raises(SimulationError) as info:
            simulate_lanes(lanes)
        errors[name] = str(info.value)
    assert "at step 4" in errors["late"] and "at step 1" in errors["early"]
    assert errors["late_early"] == errors["late"]
    assert errors["early_late"] == errors["early"]
