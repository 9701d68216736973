"""Command-line contract: subcommands, flags, exit codes, artifacts."""
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtri

from mvhomog.cli import main
from mvhomog.rate import hermite_dictionary
from mvhomog.scenarios import get_scenario
from mvhomog.torus import solve_cell


def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("free_brownian", "cos_rough_1d", "dawson_rough",
                 "separable_2d", "nongradient_2d"):
        assert name in out
    assert "divergence gate" in out


def test_gamma_reports_reference_agreement(capsys):
    assert main(["gamma", "--scenario", "cos_rough_1d"]) == 0
    out = capsys.readouterr().out
    assert "gamma 0.623860360432" in out
    assert "diff" in out


def test_gamma_rejects_nonseparable_scenario(capsys):
    assert main(["gamma", "--scenario", "nongradient_2d"]) == 2
    assert capsys.readouterr().err == (
        "error: scenario 'nongradient_2d' has no separable potential; "
        "the closed-form factor table is undefined\n")


def test_unknown_scenario_exits_2(capsys):
    assert main(["solve-cell", "--scenario", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "available" in err


def test_solve_cell_writes_solution(tmp_path, capsys):
    code = main(["solve-cell", "--scenario", "cos_rough_1d",
                 "--n", "64", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "stationarity residual" in out
    assert (tmp_path / "cell_cos_rough_1d.csv").exists()


@pytest.mark.parametrize("name", ["cos_rough_1d", "nongradient_2d", "separable_2d"])
def test_solve_cell_csv_bytes(tmp_path, name):
    # a header row, then one row per node: y, pi and phi as repr floats,
    # every line ended by CRLF (the csv module's excel dialect)
    assert main(["solve-cell", "--scenario", name, "--n", "16", "--out", str(tmp_path)]) == 0
    scenario = get_scenario(name)
    cell = solve_cell(scenario.fast_coefficients(), n=16,
                      scheme=scenario.solver.get("scheme", "auto"))
    dim = cell.grid.dim
    lines = [",".join([f"y{k + 1}" for k in range(dim)] + ["pi"]
                      + [f"phi{k + 1}" for k in range(dim)])]
    lines += [",".join(repr(float(v)) for v in (*y, p, *phi))
              for y, p, phi in zip(cell.grid.nodes, cell.pi, cell.phi)]
    want = "".join(line + "\r\n" for line in lines).encode()
    assert (tmp_path / f"cell_{name}.csv").read_bytes() == want


def test_solve_cell_reports_gmres_iterations(capsys):
    assert main(["solve-cell", "--scenario", "nongradient_2d", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "n 16 per axis, grid route" in out
    assert re.search(r"stationarity residual \S+ \(\d+ GMRES iterations\)", out)
    assert re.search(r"corrector residual \S+ \(\d+, \d+ GMRES iterations\)", out)


def test_solve_cell_on_a_layer_that_splits_by_axis(capsys):
    # separable_2d is solved axis by axis: one GMRES count per axis for pi,
    # one per component (its own axis) for phi
    assert main(["solve-cell", "--scenario", "separable_2d", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "scheme spectral, n 16 per axis, axis route" in out
    assert re.search(r"stationarity residual \S+ \(\d+, \d+ GMRES iterations\)", out)
    assert re.search(r"corrector residual \S+ \(\d+, \d+ GMRES iterations\)", out)


def test_effective_cell_route(tmp_path, capsys):
    code = main(["effective", "--scenario", "nongradient_2d",
                 "--n", "16", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "effective diffusion" in out
    assert (tmp_path / "effective_nongradient_2d.csv").exists()


def test_simulate_then_rate_round_trip(tmp_path, capsys):
    code = main(["simulate", "--scenario", "free_brownian",
                 "--mode", "averaged", "--n-particles", "400",
                 "--dt", "0.05", "--t-end", "1.0", "--snapshots", "11",
                 "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    traj = tmp_path / "free_brownian_averaged_seed3.npz"
    assert traj.exists()
    summary = json.loads(
        (tmp_path / "free_brownian_averaged_seed3.summary.json").read_text())
    assert summary["mode"] == "averaged"

    code = main(["rate", "--scenario", "free_brownian",
                 "--trajectory", str(traj), "--basis", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "action lower bound" in out
    report = json.loads((tmp_path / "rate_report.json").read_text())
    assert report["basis"] == 4
    assert float(report["total"]) < 0.1  # uncontrolled path, small action


@pytest.mark.parametrize("made, read, shape, dim", [
    ("separable_2d", "free_brownian", "(200, 2)", 1),
    ("separable_2d", "cos_rough_1d", "(200, 2)", 1),
    ("free_brownian", "separable_2d", "(200, 1)", 2),
])
def test_rate_refuses_a_path_of_another_dimension(tmp_path, capsys, made, read, shape, dim):
    assert main(["simulate", "--scenario", made, "--mode", "averaged", "--n-particles", "200",
                 "--dt", "0.01", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["rate", "--scenario", read,
                 "--trajectory", str(tmp_path / f"{made}_averaged_seed0.npz")])
    assert code == 2
    captured = capsys.readouterr()
    assert f"error: states have shape {shape}, but the model has dim {dim}" in captured.err
    assert "action lower bound" not in captured.out


def test_simulate_reports_control_cost(capsys):
    code = main(["simulate", "--scenario", "free_brownian",
                 "--mode", "averaged", "--n-particles", "50",
                 "--dt", "0.1", "--t-end", "0.5", "--seed", "1",
                 "--tilt", "0.4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean control cost 0.040000" in out


def test_divergence_gate_exits_3(capsys):
    code = main(["simulate", "--scenario", "dawson_rough",
                 "--mode", "averaged", "--n-particles", "50",
                 "--dt", "0.01", "--t-end", "1.0", "--tilt", "60"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_stiffness_violation_exits_2(capsys):
    code = main(["simulate", "--scenario", "cos_rough_1d",
                 "--n-particles", "10", "--epsilon", "0.1", "--dt", "0.01",
                 "--t-end", "1.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "fast scale" in err and "suggested" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--epsilon", "nan", "epsilon must be a positive float, got nan"),
    ("--epsilon", "inf", "epsilon must be a positive float, got inf"),
    ("--seed", "-1", "seed must be in [0, 2**64), got -1"),
    ("--seed", str(2 ** 64), f"seed must be in [0, 2**64), got {2 ** 64}"),
    ("--tilt", "nan", "control value must be finite, got [nan]"),
    ("--tilt", "inf", "control value must be finite, got [inf]"),
    ("--t-end", "1e308",
     "dt=0.001 cuts the horizon t_end=1e+308 into inf steps, more than MAX_STEPS=100000000"),
    ("--dt", "1e-300",
     "dt=1e-300 cuts the horizon t_end=0.02 into 2e+298 steps, more than MAX_STEPS=100000000"),
])
def test_simulate_refuses_a_bad_value_before_the_run(flag, value, message, capsys):
    code = main(["simulate", "--scenario", "cos_rough_1d", "--n-particles", "20",
                 "--t-end", "0.02", "--dt", "0.001", "--epsilon", "0.1", flag, value])
    assert code == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "terminal" not in captured.out


@pytest.mark.parametrize("count, message", [
    ("0", "snapshot count must be at least 2, got 0"),
    ("1", "snapshot count must be at least 2, got 1"),
    ("1000000", "snapshot times collide on the step grid: 1000000 times on 10 steps"),
])
def test_simulate_refuses_a_bad_snapshot_count_before_the_run(count, message, capsys):
    code = main(["simulate", "--scenario", "free_brownian", "--mode", "averaged",
                 "--n-particles", "10", "--dt", "0.1", "--snapshots", count])
    assert code == 2
    captured = capsys.readouterr()
    assert f"error: --snapshots: {message}" in captured.err
    assert "terminal" not in captured.out


@pytest.mark.parametrize("argv", [
    ["ladder", "--config", "missing.json"],
    ["rate", "--scenario", "free_brownian", "--trajectory", "missing.csv"],
])
def test_a_missing_input_file_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {argv[-1]}: ")


def test_an_empty_trajectory_file_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert main(["rate", "--scenario", "free_brownian", "--trajectory", str(path)]) == 2
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["0.0,0,abc", "0.0,1", "0.0,0,nan", "inf,0,0.1"])
def test_a_malformed_trajectory_row_exits_2(tmp_path, capsys, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,particle_id,x0\r\n{row}\r\n")
    assert main(["rate", "--scenario", "free_brownian", "--trajectory", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: trajectory file {path}, line 2: ")


def test_a_bad_trajectory_record_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.npz"
    np.savez(path, times=np.array([0.0, 1.0], dtype=np.float32), positions=np.zeros((2, 3, 1)))
    assert main(["rate", "--scenario", "free_brownian", "--trajectory", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: trajectory file {path}: times has dtype float32, needs float64\n")


@pytest.mark.parametrize("name", ["run.NPZ", "latin1.csv"])
def test_a_trajectory_that_is_not_utf8_exits_2(tmp_path, capsys, name):
    # a name not ending in .npz is read as CSV text, which must be UTF-8
    path = tmp_path / name
    if name == "run.NPZ":
        with open(path, "wb") as fh:
            np.savez(fh, times=np.array([0.0, 0.5, 1.0]), positions=np.zeros((3, 4, 1)))
    else:
        path.write_bytes("t,particle_id,\xb5\r\n0.0,0,0.1\r\n".encode("latin-1"))
    assert main(["rate", "--scenario", "free_brownian", "--trajectory", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: trajectory file {path} is not UTF-8 text (")
    assert err.count("\n") == 1


def test_rate_of_a_narrow_path_does_not_depend_on_where_it_sits(tmp_path, capsys):
    # N(c, 1e-6 (1 + t)) on a 400-atom quantile lattice: its dictionary's
    # scale is about 1.5e-3 wherever the path is centered
    qs = ndtri((np.arange(400) + 0.5) / 400)
    times = np.linspace(0.0, 1.0, 11)
    lines = []
    for center in (0.18859533164008996, 0.5):
        path = tmp_path / f"narrow_{center}.npz"
        np.savez(path, times=times,
                 positions=np.stack([center + 1e-3 * np.sqrt(1.0 + t) * qs[:, None]
                                     for t in times]))
        assert main(["rate", "--scenario", "free_brownian", "--trajectory", str(path)]) == 0
        lines.append(capsys.readouterr().out.splitlines()[0])
    assert lines == ["action lower bound 86581.3 over 6 dictionary functions"] * 2


def test_rate_prints_the_worst_condition_of_the_times_that_are_not_degenerate(
        tmp_path, capsys, monkeypatch):
    # under a dictionary fixed at the origin, the snapshot 100 away has an
    # all-zero Gram matrix; rate_table.csv reads the same condition
    monkeypatch.setattr("mvhomog.cli.dictionary_for_path",
                        lambda path, basis: hermite_dictionary(1, 4))
    atoms = np.linspace(-1.0, 1.0, 50)[:, None]
    path = tmp_path / "far.npz"
    np.savez(path, times=np.array([0.0, 1.0, 2.0]),
             positions=np.stack([atoms + s for s in (0.0, 0.01, 100.0)]))
    with pytest.warns(RuntimeWarning, match="degenerate at 1 time"):
        assert main(["rate", "--scenario", "free_brownian", "--trajectory", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["worst Gram condition 1.753e+03", "degenerate Gram times: [2.0]"]


def test_the_cli_loads_no_scipy():
    code = ("import sys, mvhomog.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_ladder_runs_plan_and_honors_exit_codes(tmp_path, capsys):
    plan = {"scenario": "free_brownian",
            "rungs": [{"n_particles": 40, "epsilon": 0.5, "dt": 0.02}],
            "seeds": [1], "t_end": 0.2, "snapshots": 3,
            "metrics": ["w2_ladder"]}
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(plan))
    out_dir = tmp_path / "runs"
    assert main(["ladder", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert (out_dir / "manifest.json").exists()
    assert "ladder complete" in capsys.readouterr().out

    bad = dict(plan, rungs=[{"n_particles": 40, "epsilon": 0.1, "dt": 0.01}])
    cfg.write_text(json.dumps(bad))
    assert main(["ladder", "--config", str(cfg)]) == 2
    assert "suggested dt" in capsys.readouterr().err


def test_a_plan_that_is_not_utf8_stops_the_ladder_before_any_file(tmp_path, capsys):
    cfg = tmp_path / "plan.json"
    cfg.write_bytes(b'{"scenario": "free_brownian\xff"}')
    out_dir = tmp_path / "runs"
    assert main(["ladder", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"error: plan: {cfg} is not UTF-8 text (")
    assert not out_dir.exists()


def test_oversize_rate_basis_stops_the_ladder_before_any_run(tmp_path, capsys):
    plan = {"scenario": "separable_2d",
            "rungs": [{"n_particles": 400, "epsilon": 0.2}],
            "seeds": [1], "reference": {"n_particles": 2000},
            "metrics": ["w2_ladder", "jdg"], "rate_basis": 9}
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(plan))
    out_dir = tmp_path / "runs"
    assert main(["ladder", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert "plan.rate_basis" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("plan, field", [
    ({"scenario": "dawson_rough", "seeds": [1], "metrics": ["effective_table", "w2_ladder"],
      "rungs": [{"n_particles": 10, "epsilon": 0.0317, "dt": 1 / 10000.005}]},
     "plan.rungs[0].dt"),
    ({"scenario": "dawson_rough", "seeds": [1], "metrics": ["gamma_table", "w2_ladder"],
      "snapshots": 300},
     "plan.snapshots"),
])
def test_run_geometry_stops_the_ladder_before_any_file(plan, field, tmp_path, capsys):
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(plan))
    out_dir = tmp_path / "runs"
    assert main(["ladder", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert f"error: {field}: " in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "free_brownian", "--mode", "averaged", "--n-particles", "10",
     "--dt", "0.1"],
    ["solve-cell", "--scenario", "free_brownian"],
    ["effective", "--scenario", "free_brownian"],
    ["gamma", "--scenario", "cos_rough_1d"],
    ["rate", "--scenario", "free_brownian", "--trajectory", "run.npz"],
    ["ladder", "--config", "plan.json"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_an_out_dir_that_cannot_be_made_exits_2(argv, out, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    np.savez(tmp_path / "run.npz", times=np.array([0.0, 0.5, 1.0]),
             positions=np.random.default_rng(0).normal(size=(3, 20, 1)))
    (tmp_path / "plan.json").write_text('{"scenario": "free_brownian", "rungs": []}')
    assert main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(f"error: cannot make output directory {out}: [^\n]+\n", captured.err)
    assert "wrote" not in captured.out and "terminal" not in captured.out
    assert (tmp_path / "afile").read_text() == ""


def test_console_script_reports_version():
    result = subprocess.run([sys.executable, "-m", "mvhomog.cli", "--version"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip()


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "free_brownian"])  # no --dt
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "dawson_rough", "--epsilon", "0.1",
     "--dt", "0.001", "--threads", "2"],
    ["ladder", "--config", "plan.json", "--threads", "2"],
])
def test_threads_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
