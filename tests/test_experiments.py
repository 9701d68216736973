"""Experiment driver: artifacts, manifests, and recomputable reports."""
import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from mvhomog import (
    EffectiveModel,
    ExperimentPlan,
    MeasurePath,
    Rung,
    TestDictionary,
    dictionary_for_path,
    evaluate_jdg,
    experiments,
    get_scenario,
    load_trajectory,
    parse_plan,
    run_experiment,
    wasserstein2,
)
from mvhomog.cli import main
from mvhomog.errors import SimulationError, ValidationError
from mvhomog.experiments import (
    gamma_table_rows,
    ladder_inversions,
    state_grid,
    write_effective_table,
)

TINY_PLAN = {
    "scenario": "dawson_rough",
    "rungs": [{"n_particles": 60, "epsilon": 0.2, "dt": 0.004}],
    "seeds": [11, 23],
    "reference": {"n_particles": 200, "dt": 0.01, "seed": 5},
    "metrics": ["w2_ladder", "jdg", "gamma_table", "effective_table"],
    "t_end": 0.2,
    "snapshots": 5,
    "rate_basis": 4,
}


def _hash_tree(base: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(base.iterdir())}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("experiment")
    plan = parse_plan(TINY_PLAN)
    messages = []
    report = run_experiment(plan, out_dir=out, echo=messages.append)
    return out, report, messages


def test_expected_artifacts_exist(tiny_run):
    out, report, messages = tiny_run
    names = {p.name for p in out.iterdir()}
    expected = {
        "gamma_table.csv", "effective_table.csv",
        "reference_averaged.npz", "reference_averaged.summary.json",
        "rate_reference.json", "ladder.csv", "rate_table.csv",
        "report.json", "manifest.json",
    }
    for i in (0,):
        for seed in (11, 23):
            for kind in ("multiscale", "pre_averaged"):
                expected.add(f"rung{i}_seed{seed}_{kind}.npz")
                expected.add(f"rung{i}_seed{seed}_{kind}.summary.json")
    assert expected <= names
    assert messages and any("manifest" in m for m in messages)
    assert report["out_dir"] == str(out)


def test_runtimes_cover_every_run_within_the_total(tiny_run):
    _, report, _ = tiny_run
    runtimes = report["runtimes"]
    parts = {"reference", "rung0_seed11", "rung0_seed23"}
    assert set(runtimes) == parts | {"total"}
    assert all(0 < runtimes[k] <= runtimes["total"] for k in parts)
    # jobs in different workers overlap in time
    workers = min(experiments._usable_cpus(), 5)
    assert sum(runtimes[k] for k in parts) <= workers * runtimes["total"]


def test_manifest_hashes_match_files(tiny_run):
    out, _, _ = tiny_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"], "manifest should cover the artifacts"
    for name, digest in manifest["artifacts"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest, name
    assert manifest["plan"]["scenario"] == "dawson_rough"
    assert manifest["validation"]


def test_report_matches_ladder_csv(tiny_run):
    out, report, _ = tiny_run
    rows = (out / "ladder.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header == ["rung", "n_particles", "epsilon", "dt", "seed",
                      "w2_vs_reference", "w2_vs_pre_averaged"]
    parsed = [r.split(",") for r in rows[1:]]
    assert len(parsed) == len(report["ladder"]) == 2
    for csv_row, rep_row in zip(parsed, report["ladder"]):
        assert float(csv_row[5]) == rep_row[5]
        assert float(csv_row[6]) == rep_row[6]
    w2s = [float(r[5]) for r in parsed]
    assert report["ladder_means"] == [pytest.approx(np.mean(w2s))]
    assert report["ladder_inversions"] == 0


def test_transport_distances_recompute_from_trajectories(tiny_run, tmp_path):
    # the binary records give back ladder.csv bit for bit
    out, report, _ = tiny_run
    ref_terminal = load_trajectory(out / "reference_averaged.npz").measures[-1]
    rows = []
    for rung, n, eps, dt, seed, _, _ in report["ladder"]:
        ms = load_trajectory(out / f"rung{rung}_seed{seed}_multiscale.npz")
        pre = load_trajectory(out / f"rung{rung}_seed{seed}_pre_averaged.npz")
        rows.append([rung, n, eps, dt, seed, wasserstein2(ms.measures[-1], ref_terminal),
                     wasserstein2(ms.measures[-1], pre.measures[-1])])
    again = tmp_path / "ladder.csv"
    experiments._write_csv(again, ["rung", "n_particles", "epsilon", "dt", "seed",
                                   "w2_vs_reference", "w2_vs_pre_averaged"], rows)
    assert again.read_bytes() == (out / "ladder.csv").read_bytes()


def test_rate_table_recomputes_from_binary_records(tiny_run, tmp_path):
    out, report, _ = tiny_run
    model = get_scenario(TINY_PLAN["scenario"]).effective_model()
    ref_path = load_trajectory(out / "reference_averaged.npz")
    dictionary = dictionary_for_path(ref_path, TINY_PLAN["rate_basis"])
    runs = {"reference_averaged": ref_path}
    for rung, _, _, _, seed, _, _ in report["ladder"]:
        tag = f"rung{rung}_seed{seed}"
        runs[tag] = load_trajectory(out / f"{tag}_multiscale.npz")
    rows = [experiments._rate_row(run, evaluate_jdg(path, model, dictionary))
            for run, path in runs.items()]
    again = tmp_path / "rate_table.csv"
    experiments._write_csv(again, ["run", "jdg_total", "basis", "gram_condition"], rows)
    assert again.read_bytes() == (out / "rate_table.csv").read_bytes()


def test_rate_table_recomputes_from_reference_json(tiny_run):
    out, report, _ = tiny_run
    rate_json = json.loads((out / "rate_reference.json").read_text())
    rows = (out / "rate_table.csv").read_text().strip().splitlines()[1:]
    first = rows[0].split(",")
    assert first[0] == "reference_averaged"
    assert float(first[1]) == pytest.approx(rate_json["total"])
    assert int(first[2]) == rate_json["basis"]
    by_name = {r[0]: r for r in report["rate"]}
    assert by_name["reference_averaged"][1] == pytest.approx(rate_json["total"])


def test_rerun_is_byte_identical(tiny_run):
    out, _, _ = tiny_run
    before = _hash_tree(out)
    run_experiment(parse_plan(TINY_PLAN), out_dir=out)
    after = _hash_tree(out)
    assert before == after


def test_artifacts_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    manifests = set()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        run_experiment(parse_plan(TINY_PLAN), out_dir=out)
        manifests.add((out / "manifest.json").read_bytes())
    assert len(manifests) == 1


# one seed, three rungs: on two or more workers every pair is split, and
# each of its two jobs draws the pair's noise itself
ONE_SEED_PLAN = {
    "scenario": "dawson_rough",
    "rungs": [{"n_particles": 100, "epsilon": 0.2}, {"n_particles": 300, "epsilon": 0.1},
              {"n_particles": 600, "epsilon": 0.1}],
    "seeds": [7],
    "reference": {"n_particles": 500, "dt": 0.01, "seed": 5},
    "metrics": ["w2_ladder", "jdg"],
    "t_end": 0.5,
    "snapshots": 6,
    "rate_basis": 4,
}


def test_split_pairs_keep_every_byte(tmp_path, monkeypatch):
    manifests, reports = set(), set()
    for cpus in (1, 2, 3, 2):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"run{len(reports)}"
        report = run_experiment(parse_plan(ONE_SEED_PLAN), out_dir=out)
        manifests.add((out / "manifest.json").read_bytes())
        reports.add((out / "report.json").read_bytes())
        # the report's keys and nothing else: no per-pair noise counts
        assert sorted(report) == ["ladder", "ladder_inversions", "ladder_means", "out_dir",
                                  "rate", "runtimes", "scenario", "version"]
    assert len(manifests) == 1 and len(reports) == 1


def _warning_jdg(original):
    def evaluate(path, model, dictionary, **kw):
        warnings.warn(f"degenerate at N={path.measures[0].size}", RuntimeWarning)
        return original(path, model, dictionary, **kw)
    return evaluate


def test_an_action_warning_in_a_worker_reaches_the_caller(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "evaluate_jdg", _warning_jdg(experiments.evaluate_jdg))
    for cpus in (1, 2):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        with pytest.warns(RuntimeWarning) as caught:
            run_experiment(parse_plan(TINY_PLAN), out_dir=tmp_path / f"cpus{cpus}")
        assert sorted(str(w.message) for w in caught) == [
            "degenerate at N=200", "degenerate at N=60", "degenerate at N=60"]


def test_every_action_runs_in_the_calling_process(tmp_path, monkeypatch):
    pids = []

    def evaluate(path, model, dictionary, **kw):
        pids.append(os.getpid())
        return original(path, model, dictionary, **kw)

    original = experiments.evaluate_jdg
    monkeypatch.setattr(experiments, "evaluate_jdg", evaluate)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    run_experiment(parse_plan(TINY_PLAN), out_dir=tmp_path)
    assert pids == [os.getpid()] * 3


def _failing_jdg(original):
    def evaluate(path, model, dictionary, **kw):
        if path.measures[0].size == 60:
            raise ValidationError(f"no action at t={path.times[-1]}")
        return original(path, model, dictionary, **kw)
    return evaluate


def test_an_action_error_in_a_worker_keeps_its_type_and_message(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "evaluate_jdg", _failing_jdg(experiments.evaluate_jdg))
    for cpus in (1, 2, 3):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        with pytest.raises(ValidationError) as info:
            run_experiment(parse_plan(TINY_PLAN), out_dir=tmp_path / f"cpus{cpus}")
        assert str(info.value) == "no action at t=0.2"


def test_one_degenerate_time_does_not_hide_the_gram_condition():
    # {he0, he2} at 0 has zero gradients at 0: the first snapshot, five atoms
    # at 0, has a degenerate Gram matrix, the other two do not
    dictionary = TestDictionary([[0], [2]], 0.0, 1.0)
    spread = np.linspace(-1.0, 1.0, 5)[:, None]
    path = MeasurePath.from_arrays(np.array([0.0, 0.5, 1.0]),
                                   np.stack([0.0 * spread, spread, 1.5 * spread]))
    model = EffectiveModel(1, lambda xs, mu: np.zeros_like(xs), np.eye(1))
    with pytest.warns(RuntimeWarning, match="degenerate at 1 time"):
        rep = evaluate_jdg(path, model, dictionary)
    cond = rep.gram_condition
    assert np.isnan(cond[0]) and np.all(np.isfinite(cond[1:]))
    row = experiments._rate_row("run", rep)
    assert row[3] == max(cond[1:])
    assert experiments._json_scalar(row[3]) == row[3]

    # every time degenerate: no condition at all, null in report.json
    still = MeasurePath.from_arrays(path.times, np.zeros((3, 5, 1)))
    with pytest.warns(RuntimeWarning, match="degenerate at 3 time"):
        rep = evaluate_jdg(still, model, dictionary)
    row = experiments._rate_row("run", rep)
    assert np.isnan(row[3]) and experiments._json_scalar(row[3]) is None
    assert experiments._json_scalar(np.inf) == "inf"


# the originals, for wrappers that tests monkeypatch in
_EXECUTE = experiments._execute
_RUN_JOBS = experiments._run_jobs


@pytest.mark.parametrize("cpus, seeds, coupled, workers",
                         [(1, [11], True, 1), (2, [11], False, 2),
                          (2, [11, 23], True, 2), (3, [11, 23], False, 3),
                          (8, [11, 23], False, 5)])
def test_pairs_are_coupled_when_the_seeds_cover_the_workers(
        tmp_path, monkeypatch, cpus, seeds, coupled, workers):
    seen = {}

    def run_jobs(jobs, base, n, *rest):
        seen.update(stems=[job.stems for job in jobs], workers=n)
        return _RUN_JOBS(jobs, base, n, *rest)

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(experiments, "_run_jobs", run_jobs)
    run_experiment(parse_plan(dict(TINY_PLAN, seeds=seeds)), out_dir=tmp_path)
    pairs = [("rung0_seed%d_multiscale" % s, "rung0_seed%d_pre_averaged" % s)
             for s in seeds]
    expect = pairs if coupled else [(stem,) for pair in pairs for stem in pair]
    assert seen == {"stems": [("reference_averaged",)] + expect, "workers": workers}


def _capped_dawson(name):
    # a fourth-moment cap below that of the initial positions: every run
    # fails at step 0, the reference first in plan order
    return dataclasses.replace(get_scenario(name), moment_cap=(4, 1e-3))


def test_a_worker_error_reaches_the_caller_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "get_scenario", _capped_dawson)
    messages = []
    for cpus in (1, 2):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        with pytest.raises(SimulationError, match="cap 0.001 at step 0") as info:
            run_experiment(parse_plan(TINY_PLAN), out_dir=tmp_path / f"cpus{cpus}")
        messages.append(str(info.value))
    assert messages[0] == messages[1]

    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(TINY_PLAN))
    assert main(["ladder", "--config", str(cfg), "--out", str(tmp_path / "cli")]) == 3
    assert f"numerical failure: {messages[1]}" in capsys.readouterr().err


def _dying_execute(monkeypatch, stem=None):
    # the job that writes ``stem`` (every job when None) kills its worker
    parent = os.getpid()

    def dying(job, base):
        if stem is None or stem in job.stems:
            assert os.getpid() != parent, "jobs should run in the workers"
            os._exit(1)
        return _EXECUTE(job, base)

    monkeypatch.setattr(experiments, "_execute", dying)


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_dead_worker_raises_a_simulation_error_naming_its_job(
        tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    _dying_execute(monkeypatch)
    with pytest.raises(SimulationError, match="worker process died; these runs "
                       "did not finish: reference_averaged, rung0_seed11_multiscale"):
        run_experiment(parse_plan(TINY_PLAN), out_dir=tmp_path / "all")

    # one run in the middle of the plan dies: the error names it, whichever
    # runs finished before the pool broke
    _dying_execute(monkeypatch, "rung0_seed23_multiscale")
    with pytest.raises(SimulationError, match="worker process died") as info:
        run_experiment(parse_plan(TINY_PLAN), out_dir=tmp_path / "one")
    assert "rung0_seed23_multiscale" in str(info.value)


def _run_tiny_plan(out: Path) -> bytes:
    run_experiment(parse_plan(TINY_PLAN), out_dir=out)
    return (out / "manifest.json").read_bytes()


def test_a_daemonic_process_runs_its_plan_inline(tmp_path, monkeypatch):
    # a daemonic process may not have children, so it must not start a pool
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.apply(_run_tiny_plan, (tmp_path / "daemon",))
    assert inside == _run_tiny_plan(tmp_path / "main")


def test_a_built_plan_with_colliding_snapshots_writes_no_file(tmp_path):
    # bypasses parse_plan: the plan refuses it when it is made, before any artifact
    out = tmp_path / "runs"
    with pytest.raises(ValidationError, match=r"^plan\.snapshots: snapshot times collide"):
        run_experiment(dataclasses.replace(parse_plan(TINY_PLAN), snapshots=100), out_dir=out)
    assert not out.exists()


def test_a_built_jdg_plan_with_two_snapshots_writes_no_file(tmp_path):
    # bypasses parse_plan: the action needs 3 snapshots, refused when the plan is made
    out = tmp_path / "runs"
    with pytest.raises(ValidationError,
                       match=r"^plan\.snapshots: the jdg metric needs at least 3 snapshots, "
                             r"got 2$"):
        run_experiment(dataclasses.replace(parse_plan(TINY_PLAN), snapshots=2), out_dir=out)
    assert not out.exists()


# one rung and a 200-particle reference, as a plan made in code
ONE_RUNG = {"scenario": "dawson_rough", "rungs": [Rung(50, 0.2, 0.004)],
            "reference": {"n_particles": 200}}

# (id, fields over ONE_RUNG, message): a plan made in code with these fields
# is refused when it is made, with the message parse_plan gives for them
BUILT_PLAN_FAULTS = [
    ("misspelt metric", {"metrics": ("w2_lader",)},
     "plan.metrics[0]: 'w2_lader' is not one of effective_table, gamma_table, jdg, w2_ladder"),
    ("repeated seed", {"seeds": (1, 1)}, "plan.seeds: seeds must be distinct"),
    ("oversize basis", {"scenario": "separable_2d", "rate_basis": 9,
                        "metrics": ("w2_ladder", "jdg")},
     "plan.rate_basis: 9^2 = 81 basis functions in 2-d is more than the limit of 64"),
    ("numpy seed", {"seeds": (np.int64(1),)},
     f"plan.seeds[0]: expected an integer, got {np.int64(1)!r}"),
]


@pytest.mark.parametrize("fields, message", [row[1:] for row in BUILT_PLAN_FAULTS],
                         ids=[row[0].replace(" ", "-") for row in BUILT_PLAN_FAULTS])
def test_a_built_plan_is_refused_as_the_parsed_plan_is(fields, message, tmp_path):
    out = tmp_path / "runs"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        run_experiment(ExperimentPlan(**{**ONE_RUNG, **fields}), out_dir=out)
    assert not out.exists()
    raw = {**ONE_RUNG, "rungs": [dataclasses.asdict(ONE_RUNG["rungs"][0])], **fields}
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_plan({key: list(v) if isinstance(v, tuple) else v for key, v in raw.items()})


def test_a_field_assigned_after_the_plan_is_made_is_checked_by_the_run(tmp_path):
    plan = ExperimentPlan(**ONE_RUNG)
    plan.metrics = ("w2_lader",)
    out = tmp_path / "runs"
    with pytest.raises(ValidationError, match=r"^plan\.metrics\[0\]: 'w2_lader' is not one"):
        run_experiment(plan, out_dir=out)
    assert not out.exists()


def test_a_built_plan_takes_the_default_reference_keys_it_omits():
    # a partial reference is completed from DEFAULT_REFERENCE, as parse_plan completes it
    plan = ExperimentPlan(**ONE_RUNG)
    assert plan.reference == {"n_particles": 200, "dt": 0.0025, "seed": 977}
    assert plan.as_dict() == parse_plan(
        {**ONE_RUNG, "rungs": [{"n_particles": 50, "epsilon": 0.2, "dt": 0.004}]}).as_dict()
    assert plan.run_configs()[0].seed == 977


def test_a_table_only_plan_builds_no_model(tmp_path, monkeypatch):
    from mvhomog import scenarios
    calls = []
    homogenize = scenarios.homogenize

    def counted(*args, **kwargs):
        calls.append(1)
        return homogenize(*args, **kwargs)

    monkeypatch.setattr(scenarios, "homogenize", counted)
    run_experiment(parse_plan({"scenario": "dawson_rough", "metrics": ["gamma_table"]}),
                   out_dir=tmp_path)
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "gamma_table.csv", "manifest.json", "report.json"]
    run_experiment(parse_plan({"scenario": "dawson_rough", "metrics": ["effective_table"]}),
                   out_dir=tmp_path / "effective")
    assert calls == [1]


def test_state_grid_shapes():
    assert state_grid(1).shape == (41, 1)
    g2 = state_grid(2)
    assert g2.shape == (36, 2)
    assert state_grid(3).shape == (27, 3)
    assert np.max(np.abs(g2)) == pytest.approx(2.0)


def test_ladder_inversion_counting():
    assert ladder_inversions([3.0, 2.0, 1.0]) == 0
    assert ladder_inversions([1.0, 2.0, 3.0]) == 2
    assert ladder_inversions([2.0, 1.0, 2.0]) == 1
    assert ladder_inversions([1.0]) == 0


def test_gamma_table_contents():
    rows = gamma_table_rows(get_scenario("cos_rough_1d"))
    assert len(rows) == 1
    axis, z, zhat, gamma, ref, diff = rows[0]
    assert axis == 0
    assert z * zhat == pytest.approx(1.0 / gamma)
    assert diff < 1e-12
    flat = gamma_table_rows(get_scenario("free_brownian"))
    assert flat[0][1:4] == pytest.approx([1.0, 1.0, 1.0])
    with pytest.raises(ValidationError, match="no separable potential"):
        gamma_table_rows(get_scenario("nongradient_2d"))


def test_effective_table_layout(tmp_path):
    sc = get_scenario("separable_2d")
    path = tmp_path / "table.csv"
    write_effective_table(sc, sc.effective_model(), path)
    rows = path.read_text().strip().splitlines()
    assert rows[0].split(",") == ["x1", "x2", "drift1", "drift2",
                                  "diffusion11", "diffusion12", "diffusion22"]
    body = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert body.shape[0] == 36
    # constant diffusion: one value per column across all states
    assert np.ptp(body[:, 4]) == 0.0
    assert np.ptp(body[:, 6]) == 0.0
    # sigma^2 Gamma with Gamma = 1/I0(1)^2 per axis
    assert body[0, 4] == pytest.approx(2.0 * 0.6238603604, rel=1e-6)
