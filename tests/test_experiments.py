"""Experiment driver: artifacts, manifests, and recomputable reports."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mvhomog import (
    get_scenario,
    load_trajectory_csv,
    parse_plan,
    run_experiment,
    wasserstein2,
)
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
        "reference_averaged.csv", "reference_averaged.summary.json",
        "rate_reference.json", "ladder.csv", "rate_table.csv",
        "report.json", "manifest.json",
    }
    for i in (0,):
        for seed in (11, 23):
            for kind in ("multiscale", "pre_averaged"):
                expected.add(f"rung{i}_seed{seed}_{kind}.csv")
                expected.add(f"rung{i}_seed{seed}_{kind}.summary.json")
    assert expected <= names
    assert messages and any("manifest" in m for m in messages)
    assert report["out_dir"] == str(out)


def test_runtimes_cover_every_run_within_the_total(tiny_run):
    _, report, _ = tiny_run
    runtimes = report["runtimes"]
    parts = {"reference", "rung0_seed11", "rung0_seed23"}
    assert set(runtimes) == parts | {"total"}
    assert all(runtimes[k] > 0 for k in runtimes)
    assert sum(runtimes[k] for k in parts) <= runtimes["total"]


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


def test_transport_distances_recompute_from_trajectories(tiny_run):
    out, report, _ = tiny_run
    ref_path = load_trajectory_csv(out / "reference_averaged.csv")
    ref_terminal = ref_path.measures[-1]
    for rung, n, eps, dt, seed, w2_ref, w2_pre in report["ladder"]:
        ms = load_trajectory_csv(out / f"rung{rung}_seed{seed}_multiscale.csv")
        pre = load_trajectory_csv(out / f"rung{rung}_seed{seed}_pre_averaged.csv")
        again_ref = wasserstein2(ms.measures[-1], ref_terminal)
        again_pre = wasserstein2(ms.measures[-1], pre.measures[-1])
        assert again_ref == pytest.approx(w2_ref, abs=1e-12)
        assert again_pre == pytest.approx(w2_pre, abs=1e-12)


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


def test_state_grid_shapes():
    assert state_grid(1).shape == (41, 1)
    g2 = state_grid(2, count=41)
    assert g2.shape == (36, 2)
    g3 = state_grid(3, count=27)
    assert g3.shape == (27, 3)
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
    with pytest.raises(ValueError, match="no separable potential"):
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
