"""Command line for the homogenization laboratory.

Subcommands cover the full workflow: inspect the registry (``list``), solve
the frozen cell problem (``solve-cell``), tabulate homogenized coefficients
(``effective``, ``gamma``), run particle ensembles (``simulate``), evaluate
the action of a recorded path (``rate``), and execute a full comparison
ladder from a JSON plan (``ladder``).

Exit codes: 0 on success, 2 for configuration and validation errors
(unreadable input files and an ``--out`` directory that cannot be made
among them), 3 for numerical failures (solver diagnostics, divergence
gates).  A command's ``--out`` directory is made after its input is
checked and before its run.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_plan
from .effective import averaged_coefficients
from .errors import NumericalError, ValidationError
from .experiments import (gamma_table_rows, make_out_dir, run_experiment, write_cell_table,
                          write_effective_table, write_gamma_table)
from .rate import dictionary_for_path, evaluate_jdg
from .scenarios import get_scenario, scenario_names
from .simulate import SimConfig, constant_control, load_trajectory, load_trajectory_csv


def _out_dir(args) -> Path | None:
    """The ``--out`` directory, made before the command's run, or None."""
    return make_out_dir(args.out) if args.out else None


def _solver_overrides(args) -> dict:
    """``--n`` and ``--scheme``, where given, over the scenario's solver settings."""
    overrides = {} if args.n is None else {"n": args.n}
    if args.scheme != "auto":
        overrides["scheme"] = args.scheme
    return overrides


def _print_matrix(label: str, mat: np.ndarray) -> None:
    mat = np.atleast_2d(mat)
    rows = "; ".join(" ".join(f"{v: .6f}" for v in row) for row in mat)
    print(f"{label} [{rows}]")


def _read_input(load, path):
    """``load(path)``, with a file that cannot be read refused as invalid input."""
    try:
        return load(path)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None


def cmd_list(args) -> int:
    for name in scenario_names():
        sc = get_scenario(name)
        caps = ", ".join(k for k in sc.flags if sc.flags[k])
        print(f"{name} (dim {sc.dim})")
        print(f"    {sc.description}")
        print(f"    assumes: {caps}")
        if sc.moment_cap is not None:
            order, cap = sc.moment_cap
            print(f"    divergence gate: mean |x|^{order} <= {cap}")
    return 0


def cmd_solve_cell(args) -> int:
    scenario = get_scenario(args.scenario)
    scenario.validate()
    out = _out_dir(args)
    cell = scenario.effective_model(**_solver_overrides(args)).cell
    route = cell.provenance["cell_route"]
    print(f"scenario {scenario.name}: scheme {cell.scheme}, "
          f"n {cell.grid.n} per axis, {route} route")
    # one count per GMRES solve: per axis on the axis route, per component for phi
    its = {key: ", ".join(map(str, counts))
           for key, counts in cell.provenance["krylov_iterations"].items()}
    print(f"stationarity residual {np.max(cell.residual_pi):.3e} ({its['pi']} GMRES "
          f"iterations), corrector residual {np.max(cell.residual_phi):.3e} "
          f"({its['phi']} GMRES iterations)")
    print(f"centering defect {np.abs(cell.centering).max():.3e}")
    _print_matrix("pi-average of (I + grad phi):",
                  averaged_coefficients(cell).corrector_average)
    if out:
        out = out / f"cell_{scenario.name}.csv"
        write_cell_table(cell, out)
        print(f"wrote {out}")
    return 0


def cmd_gamma(args) -> int:
    scenario = get_scenario(args.scenario)
    rows = gamma_table_rows(scenario)
    out = _out_dir(args)
    for k, z, zhat, gamma, *ref in rows:
        line = f"axis {k}: z {z:.12f}  z_hat {zhat:.12f}  gamma {gamma:.12f}"
        if ref:
            line += f"  reference {ref[0]:.12f}  diff {ref[1]:.3e}"
        print(line)
    if out:
        out = out / f"gamma_{scenario.name}.csv"
        write_gamma_table(scenario, out)
        print(f"wrote {out}")
    return 0


def cmd_effective(args) -> int:
    scenario = get_scenario(args.scenario)
    scenario.validate()
    out = _out_dir(args)
    model = scenario.effective_model(**_solver_overrides(args))
    d = scenario.dim
    drift, diffusion, _ = model.coefficients(np.zeros((1, d)), None)
    _print_matrix("effective diffusion at the origin:", diffusion.reshape(-1, d, d)[0])
    _print_matrix("drift at the origin (centered ensemble):", drift)
    if out:
        out = out / f"effective_{scenario.name}.csv"
        write_effective_table(scenario, model, out)
        print(f"wrote {out}")
    return 0


def cmd_simulate(args) -> int:
    scenario = get_scenario(args.scenario)
    scenario.validate()
    geometry = dict(dt=args.dt, t_end=args.t_end, seed=args.seed, epsilon=args.epsilon)
    times = None
    if args.snapshots is not None:
        # the count is checked on the run's steps before its times are built
        steps = SimConfig(n_particles=1, **geometry)
        try:
            times = steps.snapshot_grid(args.snapshots)
        except ValidationError as exc:
            raise ValidationError(f"--snapshots: {exc}") from None
    config = SimConfig(n_particles=args.n_particles, snapshot_times=times, **geometry)
    control = None
    if args.tilt is not None:
        control = constant_control(np.full(scenario.noise_dim, args.tilt),
                                   scenario.noise_dim)
    out = _out_dir(args)
    if args.mode == "multiscale":
        record = scenario.run_multiscale(config, control)
    else:
        record = scenario.run_averaged(config, control, mode=args.mode)
    last = record.positions[-1]
    print(f"{scenario.name} {args.mode}: N={args.n_particles}, "
          f"{len(record.times)} snapshots, t_end={args.t_end}")
    print(f"terminal mean {np.mean(last, axis=0)}, "
          f"terminal spread {np.std(last, axis=0)}")
    if control is not None:
        print(f"mean control cost {record.mean_cost:.6f}")
    if out:
        stem = f"{scenario.name}_{args.mode}_seed{args.seed}"
        record.save(out / f"{stem}.npz")
        record.save_summary_json(out / f"{stem}.summary.json")
        print(f"wrote {out / (stem + '.npz')}")
    return 0


def cmd_rate(args) -> int:
    scenario = get_scenario(args.scenario)
    # a record of ``simulate --out`` or a ladder; any other file is read as CSV
    load = load_trajectory if args.trajectory.endswith(".npz") else load_trajectory_csv
    path = _read_input(load, args.trajectory)
    model = scenario.effective_model()
    dictionary = dictionary_for_path(path, args.basis)
    out = _out_dir(args)
    report = evaluate_jdg(path, model, dictionary)
    print(f"action lower bound {report.total:.6g} over {report.basis_size} "
          f"dictionary functions")
    print(f"worst Gram condition {report.worst_condition:.3e}")
    if report.degenerate_times:
        print(f"degenerate Gram times: {report.degenerate_times}")
    if out:
        out = out / "rate_report.json"
        report.save_json(out)
        print(f"wrote {out}")
    return 0


def cmd_ladder(args) -> int:
    plan = _read_input(load_plan, args.config)
    report = run_experiment(plan, out_dir=args.out, echo=print)
    means = report.get("ladder_means")
    if means is not None:
        print(f"ladder complete: means {[f'{m:.4f}' for m in means]}, "
              f"inversions {report['ladder_inversions']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvhomog",
        description="homogenization laboratory for multiscale interacting "
                    "diffusions")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="show the scenario registry")
    p.set_defaults(func=cmd_list)

    def add_scenario(p):
        p.add_argument("--scenario", required=True, help="registry name")

    p = sub.add_parser("solve-cell", help="solve the frozen cell problem")
    add_scenario(p)
    p.add_argument("--n", type=int, default=None, help="nodes per axis")
    p.add_argument("--scheme", choices=("auto", "fd", "spectral"),
                   default="auto")
    p.add_argument("--out", default=None, help="directory for the solution CSV")
    p.set_defaults(func=cmd_solve_cell)

    p = sub.add_parser("gamma", help="closed-form homogenization factors")
    add_scenario(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("effective", help="homogenized drift and diffusion")
    add_scenario(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--scheme", choices=("auto", "fd", "spectral"),
                   default="auto")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_effective)

    p = sub.add_parser("simulate", help="run a particle ensemble")
    add_scenario(p)
    p.add_argument("--mode", choices=("multiscale", "averaged", "pre_averaged"),
                   default="multiscale")
    p.add_argument("--n-particles", type=int, default=1000)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--snapshots", type=int, default=None,
                   help="snapshot count including both endpoints")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tilt", type=float, default=None,
                   help="constant control applied in every noise component")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rate", help="action of a recorded trajectory")
    add_scenario(p)
    p.add_argument("--trajectory", required=True,
                   help="trajectory record (.npz), or a trajectory CSV")
    p.add_argument("--basis", type=int, default=6,
                   help="dictionary functions per axis")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("ladder", help="run a JSON experiment plan")
    p.add_argument("--config", required=True, help="plan JSON file")
    p.add_argument("--out", default=None, help="override the plan output dir")
    p.set_defaults(func=cmd_ladder)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
