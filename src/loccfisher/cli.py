"""Command-line surface: scenarios, synthesis, verification, simulation, export.

All outputs are deterministic JSON (or CSV for Bloch exports). Exit codes:
0 success, 1 validation error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import lm, locc, metrology, scenarios, simulate
from .tensor import QFI_FLOOR, complex_to_pairs, pairs_to_complex
from .zerodiag import ZeroDiagConvergenceError


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _load_scenario(arg: str) -> scenarios.Scenario:
    path = Path(arg)
    if path.suffix == ".json" or path.exists():
        return scenarios.parse_scenario(_read_json(path))
    return scenarios.builtin_scenario(arg)


def _scenario_at(args) -> tuple[scenarios.Scenario, float]:
    """The scenario argument and --theta, by default the median of its grid."""
    sc = _load_scenario(args.scenario)
    return sc, args.theta if args.theta is not None else float(np.median(sc.theta_grid))


def _emit(doc: dict, out: str | None = None) -> None:
    # A non-finite number raises ValueError (exit 1) instead of printing NaN.
    # A file is one compact line (json's C encoder); indent=2 would run the
    # pure-Python encoder over trees of many MB.
    if out:
        text = json.dumps(doc, sort_keys=True, allow_nan=False, separators=(",", ":"))
        Path(out).write_text(text + "\n")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))


def _finite(value: str) -> float:
    """argparse type for --theta and --prior: a finite number."""
    x = float(value)
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"{value!r} is not a finite number")
    return x


def _int_from(low: int, what: str):
    """argparse type for an integer argument of at least ``low``, described as ``what``."""
    def integer(value: str) -> int:     # argparse names it in "invalid integer value"
        n = int(value)
        if n < low:
            raise argparse.ArgumentTypeError(f"{value!r} is not a {what} integer")
        return n
    return integer


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a validation error (exit 1, JSON on stderr)."""

    def error(self, message: str):
        raise ValueError(message)


def _order_arg(value: str | None):
    if value is None:
        return None
    return [int(tok) for tok in value.split(",") if tok != ""]


def _refuse(args, source: str, *names: str) -> None:
    """A validation error if any argument of ``names`` is given, since ``source`` ignores it."""
    given = [name for name in names
             if getattr(args, name.lstrip("-").replace("-", "_")) is not None]
    if given:
        raise ValueError(f"{' and '.join(given)} cannot be used with {source}")


def _cmd_scenario(args) -> int:
    entries = []
    for name in scenarios.builtin_names():
        sc = scenarios.builtin_scenario(name)
        entries.append({"name": name, "notes": sc.notes})
    _emit({"scenarios": entries})
    return 0


def _cmd_qfi(args) -> int:
    sc, theta = _scenario_at(args)
    _emit({"scenario": sc.name, "theta": theta,
           "qfi": metrology.qfi(sc.family, theta)})
    return 0


def _cmd_synthesize(args) -> int:
    sc, theta = _scenario_at(args)
    frame = metrology.saturation_matrices(sc.family, theta)
    if frame.qfi < QFI_FLOOR:
        raise ValueError(
            f"scenario {sc.name!r} carries no information at theta={theta}; "
            "synthesis skipped")
    order = _order_arg(args.order)
    tree = locc.synthesize_tree(locc.synthesis_target(frame), sc.family.layout, order)
    _emit(locc.tree_to_json(tree), args.out)
    if args.out:
        # a tree has one leaf per product basis state
        print(json.dumps({"scenario": sc.name, "theta": theta, "out": args.out,
                          "leaves": tree.layout.total}, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    sc, theta = _scenario_at(args)
    tree = locc.tree_from_json(_read_json(args.tree))
    report = locc.verify_tree(tree, sc.family, theta)
    _emit({"scenario": sc.name, "theta": theta, **asdict(report)})
    return 0


def _cmd_simulate(args) -> int:
    sc, theta = _scenario_at(args)
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
        _refuse(args, "--a-mat/--b-mat", "scenario", "--theta")
        a, b = (pairs_to_complex(_read_json(path)) for path in (args.a_mat, args.b_mat))
        return lm.BipartiteCoeffs(a, b)
    if not args.scenario:
        raise ValueError("give a scenario or --a-mat/--b-mat")
    sc = _load_scenario(args.scenario)
    if sc.family.state_type != "pure" or sc.family.layout.nsub != 2:
        raise ValueError("lm-check needs a bipartite pure scenario")
    psi, dpsi = sc.family.psi_dpsi(0.0 if args.theta is None else args.theta)
    perp = metrology.perp_component(psi, dpsi)
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
    if args.tree:
        _refuse(args, "--tree", "scenario", "--grid-points", "--order")
        tree = locc.tree_from_json(_read_json(args.tree))
        rows = locc.bloch_rows(tree, args.theta if args.theta is not None else 0.0)
    else:
        if not args.scenario:
            raise ValueError("give a scenario or --tree")
        _refuse(args, "a scenario", "--theta")
        sc = _load_scenario(args.scenario)
        grid = sc.theta_grid
        if args.grid_points is not None:
            grid = np.linspace(grid[0], grid[-1], args.grid_points)
        order = _order_arg(args.order)
        rows = [row for theta in map(float, grid)
                for row in locc.bloch_rows(locc.synthesize_at(sc.family, theta, order), theta)]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            locc.write_bloch_csv(rows, fh)
    else:
        locc.write_bloch_csv(rows, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loccfisher",
        description=("Fisher-information analysis and adaptive local "
                     "measurement synthesis for single-parameter estimation"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", help="scenario utilities")
    p.add_argument("action", choices=["list"])
    p.set_defaults(fn=_cmd_scenario)

    p = sub.add_parser("qfi", help="quantum Fisher information of a scenario")
    p.add_argument("scenario")
    p.add_argument("--theta", type=_finite, default=None)
    p.set_defaults(fn=_cmd_qfi)

    p = sub.add_parser("synthesize", help="synthesize an adaptive measurement tree")
    p.add_argument("scenario")
    p.add_argument("--theta", type=_finite, default=None)
    p.add_argument("--order", type=str, default=None,
                   help="comma-separated subsystem permutation, e.g. 2,0,1")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("verify", help="check a tree against a scenario")
    p.add_argument("scenario")
    p.add_argument("--tree", type=str, required=True)
    p.add_argument("--theta", type=_finite, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("simulate", help="Monte-Carlo estimation trials")
    p.add_argument("scenario")
    p.add_argument("--theta", type=_finite, default=None)
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--two-step", action="store_true")
    p.add_argument("--prior", type=_finite, nargs=2, default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("lm-check", help="product-measurement feasibility analysis")
    p.add_argument("scenario", nargs="?", default=None)
    p.add_argument("--theta", type=_finite, default=None)
    p.add_argument("--a-mat", type=str, default=None)
    p.add_argument("--b-mat", type=str, default=None)
    p.add_argument("--projective-only", action="store_true")
    # checked here, since the qubit-side construction would ignore a bad value
    p.add_argument("--restarts", type=_int_from(1, "positive"), default=40)
    p.add_argument("--seed", type=_int_from(0, "non-negative"), default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_lm_check)

    p = sub.add_parser("export-bloch", help="Bloch coordinates of qubit nodes as CSV")
    p.add_argument("scenario", nargs="?", default=None)
    p.add_argument("--tree", type=str, default=None)
    p.add_argument("--theta", type=_finite, default=None)
    p.add_argument("--grid-points", type=_int_from(1, "positive"), default=None)
    p.add_argument("--order", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_export_bloch)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def cli_main(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:       # --help
        return 0 if exc.code == 0 else 1
    except (ZeroDiagConvergenceError, locc.SynthesisError,
            simulate.DegenerateLikelihoodError) as exc:
        print(json.dumps({"error": str(exc), "kind": "non-convergence"}),
              file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:    # a KeyError is a missing document entry
        message = f"missing entry {exc}" if isinstance(exc, KeyError) else str(exc)
        print(json.dumps({"error": message, "kind": "validation"}), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
