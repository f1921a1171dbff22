"""Command-line surface: scenarios, synthesis, verification, simulation, export.

All outputs are deterministic JSON (or CSV for Bloch exports). Exit codes:
0 success, 1 validation error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import lm, locc, metrology, scenarios, simulate
from .tensor import complex_to_pairs, pairs_to_complex
from .zerodiag import ZeroDiagConvergenceError


def _load_scenario(arg: str) -> scenarios.Scenario:
    path = Path(arg)
    if path.suffix == ".json" or path.exists():
        with open(path) as fh:
            return scenarios.parse_scenario(json.load(fh))
    return scenarios.builtin_scenario(arg)


def _emit(doc: dict, out: str | None = None) -> None:
    # a non-finite number raises ValueError (exit 1) instead of printing NaN
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _order_arg(value: str | None):
    if value is None:
        return None
    return [int(tok) for tok in value.split(",") if tok != ""]


def _cmd_scenario(args) -> int:
    if args.action != "list":
        raise ValueError(f"unknown scenario action {args.action!r}")
    entries = []
    for name in scenarios.builtin_names():
        sc = scenarios.builtin_scenario(name)
        entries.append({"name": name, "notes": sc.notes})
    _emit({"scenarios": entries})
    return 0


def _cmd_qfi(args) -> int:
    sc = _load_scenario(args.scenario)
    theta = args.theta if args.theta is not None else float(np.median(sc.theta_grid))
    _emit({"scenario": sc.name, "theta": theta,
           "qfi": metrology.qfi(sc.family, theta)})
    return 0


def _cmd_synthesize(args) -> int:
    sc = _load_scenario(args.scenario)
    theta = args.theta if args.theta is not None else float(np.median(sc.theta_grid))
    if metrology.qfi(sc.family, theta) < 1e-12:
        raise ValueError(
            f"scenario {sc.name!r} carries no information at theta={theta}; "
            "synthesis skipped")
    target = metrology.saturation_matrices(sc.family, theta)
    if target.m_tilde is None:
        raise ValueError(f"scenario {sc.name!r} has no rank-one synthesis target")
    tree = locc.synthesize_tree(target.m_tilde, sc.family.layout,
                                _order_arg(args.order))
    _emit(locc.tree_to_json(tree), args.out)
    if args.out:
        # a tree has one leaf per product basis state
        print(json.dumps({"scenario": sc.name, "theta": theta, "out": args.out,
                          "leaves": tree.layout.total}, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    sc = _load_scenario(args.scenario)
    theta = args.theta if args.theta is not None else float(np.median(sc.theta_grid))
    with open(args.tree) as fh:
        tree = locc.tree_from_json(json.load(fh))
    report = locc.verify_tree(tree, sc.family, theta)
    _emit({"scenario": sc.name, "theta": theta, **asdict(report)})
    return 0


def _cmd_simulate(args) -> int:
    sc = _load_scenario(args.scenario)
    theta = args.theta if args.theta is not None else float(np.median(sc.theta_grid))
    prior = tuple(args.prior) if args.prior else (float(sc.theta_grid[0]),
                                                  float(sc.theta_grid[-1]))
    config = simulate.SimConfig(
        family=sc.family, theta_true=theta, shots=args.shots, trials=args.trials,
        seed=args.seed, prior=prior,
        strategy="two-step" if args.two_step else "fixed")
    report = simulate.run_trials(config)
    _emit({"scenario": sc.name, **report.to_json()})
    return 0


def _coeffs_from_args(args) -> lm.BipartiteCoeffs:
    if args.a_mat or args.b_mat:
        if not (args.a_mat and args.b_mat):
            raise ValueError("--a-mat and --b-mat must be given together")
        with open(args.a_mat) as fh:
            a = pairs_to_complex(json.load(fh))
        with open(args.b_mat) as fh:
            b = pairs_to_complex(json.load(fh))
        return lm.BipartiteCoeffs(a, b)
    if not args.scenario:
        raise ValueError("give a scenario or --a-mat/--b-mat")
    sc = _load_scenario(args.scenario)
    if sc.family.state_type != "pure" or sc.family.layout.nsub != 2:
        raise ValueError("lm-check needs a bipartite pure scenario")
    theta = args.theta
    psi = sc.family.psi(theta)
    perp = metrology.perp_component(psi, sc.family.dpsi(theta))
    return lm.coefficient_matrices(psi, perp, sc.family.layout)


def _cmd_lm_check(args) -> int:
    coeffs = _coeffs_from_args(args)
    d1 = coeffs.a_mat.shape[0]
    doc = None
    if d1 == 2 and not args.projective_only:
        # the qubit-side construction guarantees the phase condition; when
        # its support condition happens to fail, fall through to the search
        pair = lm.construct_lm_2xd(coeffs)
        report = lm.check_lm_conditions(pair, coeffs)
        if report.feasible:
            doc = asdict(report)
            doc["method"] = "qubit-constructive"
    if doc is None:
        pair, search = lm.heuristic_lm_search(
            coeffs, restarts=args.restarts, seed=args.seed,
            allow_isometry_padding=not args.projective_only)
        doc = asdict(search)
        doc["method"] = "heuristic-search"
    doc["U"] = complex_to_pairs(pair.u_mat)
    doc["V"] = complex_to_pairs(pair.v_mat)
    _emit(doc, args.out)
    return 0


def _cmd_export_bloch(args) -> int:
    rows = []
    if args.tree:
        with open(args.tree) as fh:
            tree = locc.tree_from_json(json.load(fh))
        rows.extend(locc.bloch_rows(tree, args.theta if args.theta is not None else 0.0))
    else:
        if not args.scenario:
            raise ValueError("give a scenario or --tree")
        sc = _load_scenario(args.scenario)
        grid = sc.theta_grid
        if args.grid_points:
            grid = np.linspace(grid[0], grid[-1], args.grid_points)
        for theta in grid:
            target = metrology.saturation_matrices(sc.family, float(theta))
            if target.m_tilde is None:
                raise ValueError(
                    f"scenario {sc.name!r} has no rank-one synthesis target")
            tree = locc.synthesize_tree(target.m_tilde, sc.family.layout,
                                        _order_arg(args.order))
            rows.extend(locc.bloch_rows(tree, float(theta)))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            locc.write_bloch_csv(rows, fh)
    else:
        locc.write_bloch_csv(rows, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loccfisher",
        description=("Fisher-information analysis and adaptive local "
                     "measurement synthesis for single-parameter estimation"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", help="scenario utilities")
    p.add_argument("action", choices=["list"])
    p.set_defaults(fn=_cmd_scenario)

    p = sub.add_parser("qfi", help="quantum Fisher information of a scenario")
    p.add_argument("scenario")
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(fn=_cmd_qfi)

    p = sub.add_parser("synthesize", help="synthesize an adaptive measurement tree")
    p.add_argument("scenario")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--order", type=str, default=None,
                   help="comma-separated subsystem permutation, e.g. 2,0,1")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("verify", help="check a tree against a scenario")
    p.add_argument("scenario")
    p.add_argument("--tree", type=str, required=True)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("simulate", help="Monte-Carlo estimation trials")
    p.add_argument("scenario")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--two-step", action="store_true")
    p.add_argument("--prior", type=float, nargs=2, default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("lm-check", help="product-measurement feasibility analysis")
    p.add_argument("scenario", nargs="?", default=None)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--a-mat", type=str, default=None)
    p.add_argument("--b-mat", type=str, default=None)
    p.add_argument("--projective-only", action="store_true")
    p.add_argument("--restarts", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_lm_check)

    p = sub.add_parser("export-bloch", help="Bloch coordinates of qubit nodes as CSV")
    p.add_argument("scenario", nargs="?", default=None)
    p.add_argument("--tree", type=str, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--order", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_export_bloch)

    return parser


def cli_main(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except (ZeroDiagConvergenceError, locc.SynthesisError,
            simulate.DegenerateLikelihoodError) as exc:
        print(json.dumps({"error": str(exc), "kind": "non-convergence"}),
              file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc), "kind": "validation"}),
              file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
