"""Command line for the homogenization laboratory.

Subcommands cover the full workflow: inspect the registry (``list``), solve
the frozen cell problem (``solve-cell``), tabulate homogenized coefficients
(``effective``, ``gamma``), run particle ensembles (``simulate``), evaluate
the action of a recorded path (``rate``), and execute a full comparison
ladder from a JSON plan (``ladder``).

Exit codes: 0 on success, 2 for configuration and validation errors
(unreadable input files among them), 3 for numerical failures (solver
diagnostics, divergence gates).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_plan
from .effective import QUAD_POINTS
from .errors import NumericalError, ValidationError
from .experiments import (gamma_table_rows, run_experiment, write_effective_table,
                          write_gamma_table)
from .rate import dictionary_for_path, evaluate_jdg
from .scenarios import get_scenario, scenario_names
from .simulate import SimConfig, constant_control, load_trajectory_csv
from .torus import solve_cell


def _ensure_dir(path_str: str) -> Path:
    path = Path(path_str)
    path.mkdir(parents=True, exist_ok=True)
    return path


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
    opts = dict(scenario.solver)
    if args.n is not None:
        opts["n"] = args.n
    if args.scheme != "auto":
        opts["scheme"] = args.scheme
    cell = solve_cell(scenario.fast_coefficients(),
                      scheme=opts.get("scheme", "auto"), n=opts.get("n"))
    print(f"scenario {scenario.name}: scheme {cell.scheme}, "
          f"n {cell.grid.n} per axis")
    its = cell.provenance["krylov_iterations"]
    print(f"stationarity residual {np.max(cell.residual_pi):.3e} ({its['pi']} GMRES "
          f"iterations), corrector residual {np.max(cell.residual_phi):.3e} "
          f"({', '.join(map(str, its['phi']))} GMRES iterations)")
    print(f"centering defect {np.abs(cell.centering).max():.3e}")
    corr = cell.pi_average(np.eye(cell.grid.dim)[None] + cell.grad_phi)
    _print_matrix("pi-average of (I + grad phi):", corr)
    if args.out:
        out = _ensure_dir(args.out) / f"cell_{scenario.name}.csv"
        cell.save_csv(out)
        print(f"wrote {out}")
    return 0


def cmd_gamma(args) -> int:
    scenario = get_scenario(args.scenario)
    if scenario.potential is None:
        raise ValidationError(
            f"scenario {args.scenario!r} is not separable; "
            "use solve-cell / effective for the general route")
    for k, z, zhat, gamma, *ref in gamma_table_rows(scenario, args.quad_points):
        line = f"axis {k}: z {z:.12f}  z_hat {zhat:.12f}  gamma {gamma:.12f}"
        if ref:
            line += f"  reference {ref[0]:.12f}  diff {ref[1]:.3e}"
        print(line)
    if args.out:
        out = _ensure_dir(args.out) / f"gamma_{scenario.name}.csv"
        write_gamma_table(scenario, out, args.quad_points)
        print(f"wrote {out}")
    return 0


def cmd_effective(args) -> int:
    scenario = get_scenario(args.scenario)
    scenario.validate()
    overrides = {}
    if args.n is not None:
        overrides["n"] = args.n
    if args.scheme != "auto":
        overrides["scheme"] = args.scheme
    model = scenario.effective_model(route=args.route, **overrides)
    _print_matrix("effective diffusion:", model.diffusion())
    xs = np.zeros((1, scenario.dim))
    _print_matrix("drift at the origin (centered ensemble):",
                  model.drift_batch(xs, None))
    if args.out:
        out = _ensure_dir(args.out) / f"effective_{scenario.name}.csv"
        write_effective_table(scenario, model, out)
        print(f"wrote {out}")
    return 0


def cmd_simulate(args) -> int:
    scenario = get_scenario(args.scenario)
    scenario.validate()
    config = SimConfig(n_particles=args.n_particles, dt=args.dt,
                       t_end=args.t_end, seed=args.seed, epsilon=args.epsilon)
    if args.snapshots is not None:
        # the count is checked before its times are built
        try:
            if args.snapshots < 2:
                raise ValidationError(f"must be >= 2, got {args.snapshots}")
            config.require_snapshot_count(args.snapshots)
            config = replace(config, snapshot_times=np.linspace(
                0.0, args.t_end, args.snapshots))
        except ValidationError as exc:
            raise ValidationError(f"--snapshots: {exc}") from None
    control = None
    if args.tilt is not None:
        control = constant_control(np.full(scenario.noise_dim, args.tilt),
                                   scenario.noise_dim)
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
    if args.out:
        out = _ensure_dir(args.out)
        stem = f"{scenario.name}_{args.mode}_seed{args.seed}"
        record.save_csv(out / f"{stem}.csv")
        record.save_summary_json(out / f"{stem}.summary.json")
        print(f"wrote {out / (stem + '.csv')}")
    return 0


def cmd_rate(args) -> int:
    scenario = get_scenario(args.scenario)
    path = _read_input(load_trajectory_csv, args.trajectory)
    model = scenario.effective_model()
    dictionary = dictionary_for_path(path, args.basis)
    report = evaluate_jdg(path, model, dictionary)
    total = report.total if np.isfinite(report.total) else float("inf")
    print(f"action lower bound {total:.6g} over {report.basis_size} "
          f"dictionary functions")
    print(f"worst Gram condition {np.max(report.gram_condition):.3e}")
    if report.degenerate_times:
        print(f"degenerate Gram times: {report.degenerate_times}")
    if args.out:
        out = _ensure_dir(args.out) / "rate_report.json"
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
    p.add_argument("--quad-points", type=int, default=QUAD_POINTS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("effective", help="homogenized drift and diffusion")
    add_scenario(p)
    p.add_argument("--route", choices=("auto", "separable", "cell"),
                   default="auto")
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
    p.add_argument("--trajectory", required=True, help="trajectory CSV")
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
