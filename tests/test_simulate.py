import csv
import dataclasses
import json
import re
import time
import tracemalloc

import numpy as np
import pytest

from mvhomog.effective import EffectiveModel
from mvhomog.errors import SimulationError, ValidationError
from mvhomog.measures import EmpiricalMeasure, radial_moment
from mvhomog.scenarios import (_DAWSON_FAST_AMP, _SKEW_C, _SKEW_SIGMA2, DAWSON_KAPPA,
                               TWO_PI, get_scenario)
from mvhomog import experiments, rng, simulate
from mvhomog.simulate import (FeedbackControl, Lane, SimConfig, TrajectoryRecord,
                              _apply_noise, _monitor, _wrap_unit, averaged_lane,
                              constant_control, load_trajectory, load_trajectory_csv,
                              multiscale_lane,
                              simulate_averaged, simulate_lanes)
from mvhomog.torus import FastCoefficients


def _dawson_cfg(n=300, eps=0.1, t_end=0.2, seed=3, **kw):
    return SimConfig(n_particles=n, dt=eps * eps / 10, t_end=t_end, seed=seed,
                     epsilon=eps, **kw)


def test_exchangeability_under_stream_permutation():
    sc = get_scenario("dawson_rough")
    cfg = _dawson_cfg(n=64)
    perm = np.random.default_rng(0).permutation(64)
    base = sc.run_multiscale(cfg)
    x0 = sc.initial_positions(64, cfg.seed)

    lane = multiscale_lane(sc.fast_coefficients(), sc.slow_drift, x0[perm], cfg,
                           moment_cap=sc.moment_cap, scenario_name=sc.name)
    permuted = simulate_lanes([lane], perm.astype(np.uint64))[0]
    assert np.array_equal(permuted.positions[-1], base.positions[-1][perm])


def test_frozen_mean_is_bitwise_invariant_under_stream_permutation():
    # the positions alone do not show a mean that depends on the order the
    # particles are listed in: a one-ulp change in it is lost in kappa dt
    sc = get_scenario("dawson_rough")
    cfg = _dawson_cfg(n=300)
    x0 = sc.initial_positions(300, cfg.seed)
    perm = np.random.default_rng(1).permutation(300)
    seen = []
    for streams, start in ((None, x0), (perm.astype(np.uint64), x0[perm])):
        means = []

        def spy(xs, mu):
            means.append(mu.mean().copy())
            return sc.slow_drift(xs, mu)

        lane = multiscale_lane(sc.fast_coefficients(), spy, start, cfg,
                               moment_cap=sc.moment_cap)
        rec = simulate_lanes([lane], streams)[0]
        seen.append((np.array(means), rec.positions))
    (means, frames), (permuted_means, permuted_frames) = seen
    assert means.shape == (cfg.n_steps, 1)
    assert means.tobytes() == permuted_means.tobytes()
    assert permuted_frames.tobytes() == frames[:, perm].tobytes()


def test_a_controlled_run_permutes_its_costs_with_the_streams():
    sc = get_scenario("dawson_rough")
    model = sc.effective_model()
    cfg = SimConfig(n_particles=80, dt=0.01, t_end=0.2, seed=5)
    x0 = sc.initial_positions(80, cfg.seed)
    perm = np.random.default_rng(2).permutation(80)
    control = FeedbackControl(lambda t, xs, mu: np.sin(xs - mu.mean()), 1)
    base = simulate_lanes([averaged_lane(model, x0, cfg, control)])[0]
    permuted = simulate_lanes([averaged_lane(model, x0[perm], cfg, control)],
                              perm.astype(np.uint64))[0]
    assert permuted.positions.tobytes() == base.positions[:, perm].tobytes()
    assert permuted.cost_per_particle.tobytes() == base.cost_per_particle[perm].tobytes()


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


def test_an_empty_trajectory_file_is_refused(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValidationError, match="empty"):
        load_trajectory_csv(path)


@pytest.mark.parametrize("row, message", [
    ("0.0,0,abc", "could not convert"),
    ("0.0,1", "2 fields, the header has 3"),
    ("0.0,0,nan", "must be finite, got ['0.0', '0', 'nan']"),
    ("inf,0,0.1", "must be finite, got ['inf', '0', '0.1']"),
])
def test_a_malformed_trajectory_row_is_refused_with_its_line(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,particle_id,x0\r\n0.0,0,0.5\r\n{row}\r\n")
    with pytest.raises(ValidationError,
                       match=f"{re.escape(str(path))}, line 3: .*{re.escape(message)}"):
        load_trajectory_csv(path)


def test_summary_json_contents(tmp_path):
    sc = get_scenario("free_brownian")
    cfg = SimConfig(n_particles=40, dt=0.05, t_end=0.5, seed=2)
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
    assert "0.1 * epsilon^2" in msg
    assert "suggested" in msg


def test_suggested_step_is_admissible():
    # 0.1 * 0.12346^2 = 0.00152423716, which rounds up to 0.00152424
    eps = 0.12346
    with pytest.raises(ValidationError) as err:
        SimConfig(n_particles=10, dt=0.01, epsilon=eps).require_stiffness()
    suggested = float(re.search(r"suggested dt:? ([0-9.e+-]+)", str(err.value)).group(1))
    assert suggested <= 0.1 * eps * eps
    SimConfig(n_particles=10, dt=suggested, t_end=suggested,
              epsilon=eps).require_stiffness()


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(n_particles=0, dt=0.1)
    with pytest.raises(ValidationError):
        SimConfig(n_particles=10, dt=0.3, t_end=1.0)  # not a whole number of steps
    with pytest.raises(ValidationError):
        SimConfig(n_particles=10, dt=0.1, t_end=1.0,
                  snapshot_times=np.array([0.0, 0.1001, 0.1002]))  # collides


def test_a_particle_count_is_an_integer_of_any_integer_type():
    assert SimConfig(n_particles=np.int64(10), dt=0.1).n_particles == 10
    assert SimConfig(n_particles=np.uint32(10), dt=0.1).n_particles == 10
    for count in (10.0, np.float64(10), np.bool_(True)):
        with pytest.raises(ValidationError, match="^n_particles must be an integer"):
            SimConfig(n_particles=count, dt=0.1)


def test_the_record_limit_admits_its_bound_and_counts_the_snapshots_recorded():
    limit = simulate.MAX_PARTICLE_SNAPSHOTS
    # 10 steps record 11 snapshots by default; 2 explicit times record 2
    assert SimConfig(n_particles=limit // 11, dt=0.1).n_particles == limit // 11
    with pytest.raises(ValidationError, match="^n_particles=909091 with 11 snapshots"):
        SimConfig(n_particles=limit // 11 + 1, dt=0.1)
    assert SimConfig(n_particles=limit // 2, dt=0.1,
                     snapshot_times=[0.0, 1.0]).n_particles == limit // 2


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -0.1])
def test_epsilon_must_be_positive_and_finite(eps):
    # an infinite epsilon would pass the stiffness rule (its limit is inf)
    # and run the multiscale mode with the fast variable frozen
    with pytest.raises(ValidationError, match=f"epsilon must be a positive float, got {eps}"):
        SimConfig(n_particles=10, dt=0.1, t_end=1.0, epsilon=eps)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_a_seed_must_fit_the_uint64_hash_key(seed):
    with pytest.raises(ValidationError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
        SimConfig(n_particles=10, dt=0.1, t_end=1.0, seed=seed)
    assert SimConfig(n_particles=10, dt=0.1, seed=2 ** 64 - 1).seed == 2 ** 64 - 1


def test_an_empty_snapshot_grid_is_refused_up_front():
    with pytest.raises(ValidationError, match="snapshot_times is empty"):
        SimConfig(n_particles=10, dt=0.1, t_end=1.0, snapshot_times=np.array([]))


def test_constant_control_shifts_mean_and_costs_exactly():
    sc = get_scenario("free_brownian")
    c = 0.8
    cfg = SimConfig(n_particles=4000, dt=0.01, t_end=1.0, seed=12)
    rec = sc.run_averaged(cfg, constant_control([c], 1))
    # noise matrix is the identity, so the mean drifts at rate c
    assert abs(np.mean(rec.positions[-1]) - c) < 0.08
    assert rec.mean_cost == pytest.approx(0.5 * c * c, abs=1e-12)


def test_cost_accumulator_matches_logged_controls():
    # time- and state-dependent feedback: the record's cost has the bits of
    # the plain reference run's, and is the trapezoid over its logged controls
    sc = get_scenario("free_brownian")
    model = sc.effective_model()
    cfg = SimConfig(n_particles=60, dt=0.02, t_end=0.5, seed=4)
    x0 = sc.initial_positions(60, cfg.seed)
    control = FeedbackControl(lambda t, xs, mu: -0.3 * xs + 0.1 * np.sin(t), 1,
                              label="pullback")
    ref, cost, ulog = _reference_run(x0, cfg, lambda xs, mu: model.coefficients(xs, mu)[0],
                                     model.coefficients(x0)[2], sc.moment_cap,
                                     control=control)
    rec = sc.run_averaged(cfg, control, model=model)
    assert rec.position_hash() == _hash(cfg, ref)
    assert np.array_equal(rec.cost_per_particle, cost)
    half_sq = 0.5 * np.sum(ulog ** 2, axis=2)  # (K+1, N)
    recomputed = np.trapezoid(half_sq, np.arange(cfg.n_steps + 1) * cfg.dt, axis=0)
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


def _special_record(dim):
    """A three-snapshot record whose positions hold signed zeros and subnormals."""
    special = [-0.0, 1e-300, 0.0, -1e-300, 5e-324, 1.0 / 3.0, -123456.789e10]
    positions = np.random.default_rng(dim).normal(size=(3, 7, dim))
    positions[1, :, 0] = special
    positions[2, :, -1] = special[::-1]
    return TrajectoryRecord(scenario="t", mode="averaged",
                            config=SimConfig(n_particles=7, dt=0.1, t_end=0.2),
                            times=np.array([0.0, 0.1, 0.2]), positions=positions)


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
    rec = _special_record(dim)
    rec.save_csv(tmp_path / "fast.csv")
    _csv_writer_reference(rec, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    loaded = load_trajectory_csv(tmp_path / "fast.csv")
    assert np.array_equal(np.asarray(loaded.times), rec.times)
    for k, m in enumerate(loaded.measures):
        assert np.array_equal(m.atoms.view(np.int64), rec.positions[k].view(np.int64))


def test_two_saves_of_a_record_give_the_same_bytes(tmp_path, monkeypatch):
    rec = _special_record(2)
    rec.save(tmp_path / "first")
    # a later clock: the zip members' stamps must not read it
    monkeypatch.setattr(time, "time", lambda: 2.0e9)
    rec.save(tmp_path / "second.npz")
    first = (tmp_path / "first.npz").read_bytes()
    assert first == (tmp_path / "second.npz").read_bytes()
    assert first.startswith(b"PK")


@pytest.mark.parametrize("dim", [1, 2])
def test_a_saved_record_loads_back_bit_for_bit(tmp_path, dim):
    rec = _special_record(dim)
    rec.save(tmp_path / "run.npz")
    loaded = load_trajectory(tmp_path / "run.npz")
    positions = np.stack([m.atoms for m in loaded.measures])
    assert np.array_equal(loaded.times.view(np.int64), rec.times.view(np.int64))
    assert np.array_equal(positions.view(np.int64), rec.positions.view(np.int64))
    again = dataclasses.replace(rec, times=loaded.times, positions=positions)
    assert again.position_hash() == rec.position_hash()


def test_moment_gate_is_permutation_exact():
    g = np.random.default_rng(6)
    x = g.normal(size=(1001, 2)) * 10.0 ** g.integers(-4, 2, size=(1001, 1))
    n = len(x)
    m = radial_moment(x, 4)
    below = np.nextafter(m, -np.inf)
    for _ in range(10):
        xp = x[g.permutation(n)]
        assert radial_moment(xp, 4) == m
        _monitor(xp, 1, 0.1, (4, m))
        with pytest.raises(SimulationError):
            _monitor(xp, 1, 0.1, (4, below))


def _sorted_verdict(positions, moment_cap, step=3, t=0.3):
    """The monitor's message (None to pass) from the sorted moment alone."""
    bad = ~np.isfinite(positions)
    if bad.any():
        return (f"non-finite positions at step {step} (t={t:g}): "
                f"{int(bad.any(axis=1).sum())} particles")
    order, cap = moment_cap
    m = radial_moment(positions, order)
    if m > cap:
        return (f"empirical moment of order {order} hit {m:.3g} > cap {cap:g} "
                f"at step {step} (t={t:g})")
    return None


def _monitor_verdict(positions, moment_cap):
    try:
        _monitor(positions, 3, 0.3, moment_cap)
    except SimulationError as exc:
        return str(exc)
    return None


def _gate_ensembles(dim):
    """Positions for the gate: spread, tight (every |x_ik| equal, so the
    extremes bound is the moment up to rounding), underflowing, finite but
    with a bound or a moment past the float range, non-finite."""
    g = np.random.default_rng(dim)
    yield g.normal(size=(501, dim))
    for peak in (0.7, 1.3, 2.0 ** 0.5, 3.0 + 2 ** -40):
        yield peak * g.choice([-1.0, 1.0], size=(400, dim))
    yield 1e-80 * g.normal(size=(300, dim))
    for scale in (1e100, 1e200):
        yield scale * g.normal(size=(300, dim))
    for special in (np.nan, np.inf, -np.inf):
        x = g.normal(size=(200, dim))
        x[17, -1] = special
        yield x


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("order", [4, 3])
def test_the_extremes_bound_decides_as_the_sorted_moment(monkeypatch, dim, order):
    calls = []
    moment = simulate.radial_moment

    def counted(*args):
        calls.append(args)
        return moment(*args)

    monkeypatch.setattr(simulate, "radial_moment", counted)
    decided = cases = 0
    for x in _gate_ensembles(dim):
        with np.errstate(invalid="ignore", over="ignore"):
            m = radial_moment(x, order)
            peak = np.max(np.abs(x)) if np.isfinite(x).all() else 1.0
            bound = np.float64(dim * peak * peak) ** (order / 2)
        caps = {np.nextafter(m, -np.inf), m, np.nextafter(m, np.inf), 2 * m, 50.0,
                bound, bound * (1 + 2 ** -40), np.nextafter(bound, np.inf), 2 * bound}
        for cap in caps:
            if not 0 < cap < np.inf:
                continue
            before = len(calls)
            with np.errstate(invalid="ignore", over="ignore"):
                got = _monitor_verdict(x, (order, float(cap)))
                assert got == _sorted_verdict(x, (order, float(cap))), (x[:3], cap)
            cases += 1
            decided += got is None and len(calls) == before
    # the extremes decided (always a pass) at the caps above their bound,
    # and every other case fell through to the sorted moment
    assert 10 <= decided < cases


def test_the_extremes_bound_decides_every_step_on_dawson_rough(monkeypatch):
    def fallback(*args):
        raise AssertionError("the monitor fell back to the sorted moment")

    monkeypatch.setattr(simulate, "radial_moment", fallback)
    sc = get_scenario("dawson_rough")
    cfg = _dawson_cfg(n=2000, eps=0.2, t_end=0.5)
    ms, pre = sc.run_coupled(cfg)
    assert len(ms.times) == len(pre.times) == len(cfg.snapshot_steps())


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
    want = np.mod(z, 1.0)
    got = _wrap_unit(z)
    assert got is z   # wrapped in place
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _pre_cfg(cfg):
    return SimConfig(n_particles=cfg.n_particles, dt=cfg.dt, t_end=cfg.t_end,
                     seed=cfg.seed, snapshot_times=cfg.snapshot_times)


def _assert_coupled_equals_separate(sc, cfg):
    model = sc.effective_model()
    ms, pre = sc.run_coupled(cfg, model=model)
    alone_ms = sc.run_multiscale(cfg)
    alone_pre = sc.run_averaged(_pre_cfg(cfg), mode="pre_averaged", model=model)
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
    cfg = _dawson_cfg()
    perm = np.random.default_rng(3).permutation(300).astype(np.uint64)
    lanes = sc.ladder_lanes(cfg, sc.effective_model())
    coupled = simulate_lanes(list(lanes), perm)
    for rec, lane in zip(coupled, lanes):
        alone = simulate_lanes([lane], perm)[0]
        assert rec.position_hash() == alone.position_hash()
        assert rec.summary() == alone.summary()
    assert coupled[0].position_hash() != sc.run_multiscale(cfg).position_hash()


def test_lane_with_a_control_matches_its_separate_run():
    sc = get_scenario("dawson_rough")
    model = sc.effective_model()
    cfg = _dawson_cfg(n=120)
    x0 = sc.initial_positions(120, cfg.seed)
    coupled_control = constant_control([0.4], 1)
    lanes = [multiscale_lane(sc.fast_coefficients(), sc.slow_drift, x0, cfg,
                             moment_cap=sc.moment_cap),
             averaged_lane(model, x0, cfg, control=coupled_control,
                           moment_cap=sc.moment_cap)]
    ms, controlled = simulate_lanes(lanes)
    alone_control = constant_control([0.4], 1)
    alone = simulate_averaged(model, x0, cfg, control=alone_control,
                              moment_cap=sc.moment_cap)
    assert controlled.position_hash() == alone.position_hash()
    assert np.array_equal(controlled.cost_per_particle, alone.cost_per_particle)
    assert ms.cost_per_particle is None
    assert ms.position_hash() == sc.run_multiscale(cfg).position_hash()


def test_a_twin_pair_of_different_noise_widths_is_refused():
    # a public-API scenario whose 1x2 sigma (same diffusion as its potential)
    # gives its multiscale run two noise components per particle, and its
    # pre-averaged twin one: the two cannot share one noise
    base = get_scenario("dawson_rough")
    mixing = base.potential.sigma * np.array([[0.6, 0.8]])
    wide_layer = FastCoefficients(1, base.potential.fast_drift, mixing, noise_dim=2)
    sc = dataclasses.replace(base, potential=None, fast=wide_layer)
    model = base.effective_model()
    cfg = _dawson_cfg(n=90)
    for twins in (lambda: sc.ladder_lanes(cfg, model),
                  lambda: sc.run_coupled(cfg, model=model),
                  lambda: experiments._plan_jobs((_pre_cfg(cfg), [(0, cfg)]), sc, model,
                                                 coupled=False)):
        with pytest.raises(ValidationError, match="multiscale run has noise width 2 "
                           "and its pre-averaged twin 1"):
            twins()
    # the run without epsilon is one lane, and lanes of two widths built
    # apart are refused by simulate_lanes, naming both widths
    (alone,) = sc.ladder_lanes(_pre_cfg(cfg), model)
    wide = multiscale_lane(sc.fast_coefficients(), sc.slow_drift, alone.x0, cfg,
                           moment_cap=sc.moment_cap)
    with pytest.raises(ValidationError, match=r"one noise, of one width \(got 2 and 1\)"):
        simulate_lanes([wide, alone])
    assert simulate_lanes([wide])[0].position_hash() == sc.run_multiscale(cfg).position_hash()


def test_driver_noise_blocks_equal_per_step_draws():
    # 157 steps at N=700: blocks of 46 steps, the last one partial
    model = EffectiveModel(1, lambda xs, mu: -xs, 0.25 * np.eye(1))
    n, dt, seed = 700, 0.01, 41
    cfg = SimConfig(n_particles=n, dt=dt, t_end=157 * dt, seed=seed,
                    snapshot_times=np.array([0.0, 157 * dt]))
    x0 = np.linspace(-1.0, 1.0, n)[:, None]
    rec = simulate_averaged(model, x0, cfg)
    b_mat, sqrt_dt = model.coefficients(x0)[2], np.sqrt(dt)
    x = x0.copy()
    for k in range(cfg.n_steps):
        xi = rng.normals(seed, np.arange(n), k, 1)
        x = x + model.coefficients(x)[0] * dt + (xi @ b_mat.T) * sqrt_dt
    assert np.array_equal(rec.positions[-1], x)


def test_the_driver_reuses_its_noise_buffers(monkeypatch):
    # two width-2 lanes at N=200: 16 blocks of 81 steps, each 259 kB.  Once
    # the first block is drawn, no block may add that much to the traced
    # peak (numpy reports its buffers to tracemalloc).
    n, dt, n_steps = 200, 0.01, 16 * 81
    cfg = SimConfig(n_particles=n, dt=dt, t_end=n_steps * dt, seed=5,
                    snapshot_times=np.array([0.0, n_steps * dt]))
    x0 = np.linspace(-1.0, 1.0, n)[:, None]
    mixing = np.array([[0.6, 0.8]])
    lanes = [Lane(lambda t, xs, mu: (-xs, mixing), 1, 2, x0, cfg),
             Lane(lambda t, xs, mu: (-0.5 * xs, 2.0 * mixing), 1, 2, x0, cfg)]
    real, widths, held = rng.normal_block, [], []

    def traced(*args):
        block = real(*args)
        widths.append(args[3])
        if len(widths) == 1:
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return block

    monkeypatch.setattr(rng, "normal_block", traced)
    tracemalloc.start()
    try:
        records = simulate_lanes(lanes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert widths == [2] * 16
    assert peak - held[0] < 81 * n * 2 * 8
    monkeypatch.setattr(rng, "normal_block", real)
    assert [r.position_hash() for r in records] == [
        simulate_lanes([lane])[0].position_hash() for lane in lanes]


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


# ---------------------------------------------------------------------------
# simulate_lanes against its step written out plainly

class _StreamSumMeasure(EmpiricalMeasure):
    """A validated measure whose mean is the stepper's, as specified: the
    plain numpy sum of x_i / n over the particles in increasing stream order."""

    def __init__(self, atoms, streams):
        super().__init__(atoms)
        self.in_stream_order = self.atoms[np.argsort(streams, kind="stable")]

    def mean(self):
        x = self.in_stream_order
        return np.array([np.sum(x[:, k] * (1.0 / len(x))) for k in range(self.dim)])


def _reference_run(x0, cfg, drift, sigma, moment_cap, control=None, streams=None):
    """Euler-Maruyama as first written: a validated measure with the
    stream-order mean and the sorted moment every step, one noise draw per
    step, and ``vec @ sigma.T``.

    Returns (positions at the snapshot steps, cost, control log), or the
    SimulationError message that stops the run.
    """
    n, dt = cfg.n_particles, cfg.dt
    streams = np.arange(n) if streams is None else streams
    snaps = set(cfg.snapshot_steps().tolist())
    x, frames, cost, prev_h, ulog = x0.copy(), [], np.zeros(n), None, []
    for k in range(cfg.n_steps + 1):
        t = k * dt
        if moment_cap is not None:
            order, cap = moment_cap
            m = radial_moment(x, order)
            if m > cap:
                return (f"empirical moment of order {order} hit {m:.3g} > cap {cap:g} "
                        f"at step {k} (t={t:g})")
        if k in snaps:
            frames.append(x.copy())
        mu = _StreamSumMeasure(x, streams)
        u = None
        if control is not None:
            u = np.asarray(control.func(t, x, mu), dtype=float)
            h = 0.5 * np.sum(u * u, axis=1)
            if prev_h is not None:
                cost += 0.5 * (prev_h + h) * dt
            prev_h = h
            ulog.append(u.copy())
        if k == cfg.n_steps:
            break
        xi = rng.normals(cfg.seed, streams, k, sigma.shape[1])
        new = x + drift(x, mu) * dt + (xi @ sigma.T) * np.sqrt(dt)
        if u is not None:
            new += (u @ sigma.T) * dt
        x = new
    return np.stack(frames), cost, np.stack(ulog) if ulog else None


def _dawson_slow_reference(x, mu):
    v = x[:, 0]
    m = float(mu.mean()[0])
    return (-(v * v * v - v) - DAWSON_KAPPA * (v - m))[:, None]


def _sin_2pi(y):
    """sin(2 pi y) = -2t / (1 + t^2) with t = tan(pi (y - 1/2)), as the scenarios define it."""
    t = np.tan(np.pi * (y - 0.5))
    return -2.0 * t / (t * t + 1.0)


def _cos_2pi(y):
    """cos(2 pi y) = (t^2 - 1) / (t^2 + 1) with t = tan(pi (y - 1/2))."""
    t = np.tan(np.pi * (y - 0.5))
    return (t * t - 1.0) / (t * t + 1.0)


def _dawson_multiscale_reference(eps):
    def drift(x, mu):
        y = np.mod(x / eps, 1.0)
        dq = -_DAWSON_FAST_AMP * TWO_PI * _sin_2pi(y[:, 0])
        fast = np.stack([-dq], axis=1)
        return fast / eps + _dawson_slow_reference(x, mu)
    return drift


def _skew_multiscale_reference(eps):
    def drift(x, mu):
        y = np.mod(x / eps, 1.0)
        du1 = -TWO_PI * _sin_2pi(y[:, 0])
        du2 = TWO_PI * _cos_2pi(y[:, 1])
        half_a = 0.5 * _SKEW_SIGMA2
        fast = np.stack([-half_a * du1 - _SKEW_C * du2,
                         -half_a * du2 + _SKEW_C * du1], axis=1)
        return fast / eps
    return drift


def _dawson_pre_averaged_reference(model):
    # C = pi-average of (I + grad phi) from the model's own cell solve
    cell = model.cell
    corr = cell.pi_average(np.eye(1)[None] + cell.grad_phi)
    return lambda x, mu: _dawson_slow_reference(x, mu) @ corr.T


def _hash(cfg, positions):
    times = cfg.snapshot_steps() * cfg.dt
    return TrajectoryRecord(scenario="", mode="", config=cfg, times=times,
                            positions=positions).position_hash()


def test_dawson_runs_equal_their_plain_reference_steps():
    # 300 steps at N=300: noise blocks of 109 steps, the last one partial
    sc = get_scenario("dawson_rough")
    model = sc.effective_model()
    cfg = _dawson_cfg(t_end=0.3)
    pre_cfg = _pre_cfg(cfg)
    x0 = sc.initial_positions(cfg.n_particles, cfg.seed)
    sigma_ms = sc.fast_coefficients().sigma(None, None, None)
    ms_ref, _, _ = _reference_run(x0, cfg, _dawson_multiscale_reference(cfg.epsilon),
                                  sigma_ms, sc.moment_cap)
    pre_ref, _, _ = _reference_run(x0, pre_cfg, _dawson_pre_averaged_reference(model),
                                   model.coefficients(x0)[2], sc.moment_cap)
    ms_hash, pre_hash = _hash(cfg, ms_ref), _hash(cfg, pre_ref)
    assert sc.run_multiscale(cfg).position_hash() == ms_hash
    assert sc.run_averaged(pre_cfg, mode="pre_averaged", model=model).position_hash() == pre_hash
    ms, pre = sc.run_coupled(cfg, model=model)
    assert (ms.position_hash(), pre.position_hash()) == (ms_hash, pre_hash)


def test_nongradient_run_equals_its_plain_reference_step():
    # a 2x2 noise matrix: the shared-sigma matmul branch
    sc = get_scenario("nongradient_2d")
    cfg = SimConfig(n_particles=64, dt=0.004, t_end=0.2, seed=5, epsilon=0.2)
    x0 = sc.initial_positions(64, cfg.seed)
    ref, _, _ = _reference_run(x0, cfg, _skew_multiscale_reference(cfg.epsilon),
                               sc.fast_coefficients().sigma(None, None, None), None)
    assert sc.run_multiscale(cfg).position_hash() == _hash(cfg, ref)


def test_controlled_run_equals_its_plain_reference_step():
    sc = get_scenario("dawson_rough")
    model = sc.effective_model()
    cfg = SimConfig(n_particles=150, dt=0.01, t_end=0.5, seed=8)
    x0 = sc.initial_positions(150, cfg.seed)
    control = constant_control([0.4], 1)
    ref, cost, _ = _reference_run(x0, cfg, _dawson_pre_averaged_reference(model),
                                  model.coefficients(x0)[2], sc.moment_cap, control=control)
    rec = sc.run_averaged(cfg, control, model=model)
    assert rec.position_hash() == _hash(cfg, ref)
    assert np.array_equal(rec.cost_per_particle, cost)


def test_moment_cap_boundary_decides_as_the_sorted_moment():
    sc = get_scenario("dawson_rough")
    model = sc.effective_model()
    cfg = SimConfig(n_particles=200, dt=0.01, t_end=0.5, seed=2)
    x0 = sc.initial_positions(200, cfg.seed)
    drift = _dawson_pre_averaged_reference(model)
    every_step = SimConfig(n_particles=200, dt=0.01, t_end=0.5, seed=2,
                           snapshot_times=np.arange(51) * 0.01)
    noise = model.coefficients(x0)[2]
    frames, _, _ = _reference_run(x0, every_step, drift, noise, None)
    moments = [radial_moment(p, 4) for p in frames]
    peak = max(moments)
    step = moments.index(peak)
    assert step > 0
    below = (4, float(np.nextafter(peak, -np.inf)))
    want = _reference_run(x0, cfg, drift, noise, below)
    assert want.startswith(f"empirical moment of order 4 hit {peak:.3g} > cap")
    assert f"at step {step} " in want
    perm = np.random.default_rng(9).permutation(200)
    for streams, start in ((None, x0), (perm.astype(np.uint64), x0[perm])):
        lane = averaged_lane(model, start, cfg, moment_cap=(4, peak))
        simulate_lanes([lane], streams)   # equal to the peak: no error
        lane = averaged_lane(model, start, cfg, moment_cap=below)
        with pytest.raises(SimulationError) as err:
            simulate_lanes([lane], streams)
        assert str(err.value) == want


def test_single_column_noise_has_the_matmul_bits():
    tiny = np.nextafter(0.0, 1.0)
    vec = np.array([[-0.0], [0.0], [tiny], [-tiny], [1e-300], [3.5], [-np.inf], [2.0 ** 1000]])
    for sigma in (np.array([[0.5]]), np.array([[-0.0]]), np.array([[1e-20], [-3.0]])):
        with np.errstate(invalid="ignore"):   # -inf * -0.0
            want = vec @ sigma.T
            got = _apply_noise(sigma, vec)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
