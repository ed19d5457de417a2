"""Command-line front end: batch computations in, JSON/CSV reports out.

Exit codes: 0 success, 1 validation error (bad inputs, malformed matrices,
usage errors), 2 numerical or hypothesis failure, including a ``surject``
forward residual above ``calabi.SURJECT_TOL`` (the structured report is
still written).  The randomized command ``inject-sweep`` takes --seed and
reproduces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calabi import surject_fixed_volume, surject_full
from .errors import (
    ContinuationError,
    ConvergenceError,
    CurvaturePositivityError,
    DefinitenessError,
    DimensionError,
    HermitianDefectError,
    MarginError,
    MassDefectError,
    MomentInfeasibleError,
    StageError,
    VariantError,
)
from .geometry import (
    Density,
    MetricWeight,
    build_p1_anticanonical_model,
    build_p1_model,
    dump_model_csv,
    fs_metric,
    reference_density,
)
from .injectivity import perturbed_pair, verify_injectivity
from .linalg import load_matrix_json
from .maps import hilb, hilb_nu, t_iterate
from .moments import build_lambda
from .pushforward import (
    _coords_table,
    _psi_t_jacobian,
    psi,
    psi0_closed,
    psi_t,
    solve_psi,
    traceless_basis,
)

SCHEMA_VERSION = "1"

VALIDATION_ERRORS = (
    HermitianDefectError,
    DimensionError,
    MarginError,
    VariantError,
    ValueError,
    FileNotFoundError,
    json.JSONDecodeError,
)
NUMERICAL_ERRORS = (
    DefinitenessError,
    CurvaturePositivityError,
    MassDefectError,
    ConvergenceError,
    MomentInfeasibleError,
    ContinuationError,
    StageError,
)


def emit_report(report: dict, path=None) -> str:
    """Serialise a report dict after a leading ``schema_version`` key, with
    deterministic field order and round-trip-exact floats; writes to
    ``path`` when given."""
    text = json.dumps({"schema_version": SCHEMA_VERSION, **report}, indent=2, allow_nan=False)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def _model_for(args, anticanonical=False):
    builder = build_p1_anticanonical_model if anticanonical else build_p1_model
    return builder(args.k, args.radial_nodes, args.azimuthal_nodes)


def _load_metric(model, spec: str) -> MetricWeight:
    if spec == "ref":
        return MetricWeight.reference(model)
    if spec.startswith("bergman:"):
        return fs_metric(model, load_matrix_json(spec.split(":", 1)[1]))
    if spec.startswith("grid:"):
        path = spec.split(":", 1)[1]
        u = np.loadtxt(path, delimiter=",", usecols=(1,), skiprows=1)
        return MetricWeight.grid(u)
    raise ValueError(f"unknown metric spec {spec!r} (ref|bergman:FILE|grid:FILE)")


def _load_density(path) -> Density:
    w = np.loadtxt(path, delimiter=",", usecols=(1,), skiprows=1)
    return Density(np.asarray(w, dtype=float))


def _out_path(args, name):
    if args.out is None:
        return None
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / name


def _write_csv(lines, path) -> str:
    """Join CSV ``lines``; write them to ``path`` when given and return the
    text."""
    text = "\n".join(lines)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def _node_table(column: str, values) -> list:
    """CSV lines ``index,<column>`` of one value per grid node."""
    return [f"index,{column}"] + [f"{i},{float(v)!r}" for i, v in enumerate(values)]


def cmd_hilb(args) -> int:
    anticanonical = args.variant == "anticanonical"
    model = _model_for(args, anticanonical=anticanonical)
    metric = _load_metric(model, args.metric)
    if args.variant is None:
        form = hilb(model, metric)
    else:
        nu = _load_density(args.nu) if args.nu else (
            reference_density(model) if args.variant == "fixed" else None
        )
        form = hilb_nu(model, metric, variant=args.variant, nu=nu)
    print(emit_report(form.to_json_dict(), _out_path(args, "hilb.json")))
    return 0


def cmd_fs(args) -> int:
    model = _model_for(args)
    metric = fs_metric(model, load_matrix_json(args.H))
    u = metric.potential(model)
    print(_write_csv(_node_table("u", u), _out_path(args, "fs_potential.csv")))
    return 0


def cmd_balance(args) -> int:
    model = _model_for(args)
    h0 = load_matrix_json(args.h0)
    trace = t_iterate(model, h0, max_iters=args.iters, tol=args.tol)
    lines = ["iter,step_max_norm,trace_defect"]
    for s in trace.steps[1:]:
        lines.append(f"{s.index},{s.step_max_norm!r},{s.trace_defect!r}")
    print(_write_csv(lines, _out_path(args, "balance.csv")))
    return 0


def cmd_psi(args) -> int:
    model = _model_for(args)
    b = load_matrix_json(args.B)
    if args.mode == "closed":
        result = psi0_closed(b)
    elif args.mode == "integral":
        result = psi(model, b)
    elif args.mode == "homotopy":
        result = psi_t(model, b, args.t)
    else:
        raise ValueError(f"unknown psi mode {args.mode!r}")
    print(emit_report(result.to_json_dict(), _out_path(args, "psi.json")))
    return 0


def cmd_psi_solve(args) -> int:
    model = _model_for(args)
    target = load_matrix_json(args.target)
    try:
        solution, trace = solve_psi(model, target)
    except ContinuationError as exc:
        if exc.trace is not None and args.trace_out:
            exc.trace.to_csv(args.trace_out)
        report = {"status": "continuation failure", "detail": str(exc)}
        print(emit_report(report, _out_path(args, "psi_solve.json")))
        return 2
    if args.trace_out:
        trace.to_csv(args.trace_out)
    basis = traceless_basis(model.N)
    jac = _psi_t_jacobian(model, solution.mat, 1.0, basis, _coords_table(basis))
    report = {
        "status": "ok",
        "B": solution.to_json_dict(),
        "forward_residual": float(
            np.abs(psi(model, solution).mat - target.mat / np.real(np.trace(target.mat))).max()
        ),
        "t_steps": len(trace.rows),
        "abandoned_attempts": trace.abandoned,
        "corrector_iters": trace.corrector_iters,
        "jacobian_sigma_min": float(np.linalg.svd(jac, compute_uv=False)[-1]),
    }
    print(emit_report(report, _out_path(args, "psi_solve.json")))
    return 0


def cmd_lambda(args) -> int:
    model = _model_for(args)
    try:
        system = build_lambda(model, floor=args.floor, mode=args.mode)
    except MomentInfeasibleError as exc:
        report = {
            "status": "infeasible",
            "row": exc.row,
            "diagnostics": {k: float(v) for k, v in exc.diagnostics.items()},
            "detail": str(exc),
        }
        print(emit_report(report, _out_path(args, "lambda.json")))
        return 2
    report = {
        "status": "ok",
        "mode": system.mode,
        "floor": system.floor,
        "matrix": [[float(x) for x in row] for row in system.matrix],
        "norm_op": system.norms.op,
        "inverse_norm_op": system.inverse_norms.op,
        "max_entry": system.max_entry,
        "bounds_hold": system.bounds_hold(),
    }
    print(emit_report(report, _out_path(args, "lambda.json")))
    if args.densities_out:
        for i, d in enumerate(system.densities):
            _write_csv(_node_table("weight", d.weights), f"{args.densities_out}.{i}.csv")
    return 0


def cmd_surject(args) -> int:
    anticanonical = args.mode == "anticanonical"
    model = _model_for(args, anticanonical=anticanonical)
    target = load_matrix_json(args.target)
    path = _out_path(args, "surject.json")
    try:
        if args.mode == "full":
            metric, report = surject_full(model, target)
        else:
            metric, report = surject_fixed_volume(model, target, variant=args.mode)
    except NUMERICAL_ERRORS as exc:
        stage = getattr(exc, "stage", args.mode)
        report = {"status": "failure", "stage": stage, "detail": str(exc)}
        print(emit_report(report, path))
        return 2
    if args.metric_out:
        _write_csv(_node_table("u", metric.potential(model)), args.metric_out)
    print(emit_report({**report.to_dict(), "metric_dump_path": args.metric_out}, path))
    return 0 if report.achieved else 2


def cmd_inject(args) -> int:
    model = _model_for(args)
    h = load_matrix_json(args.H)
    h2 = load_matrix_json(args.Hprime)
    report = verify_injectivity(model, h, h2, floor=args.floor)
    print(emit_report(report.to_dict(), _out_path(args, "inject.json")))
    if report.status == "verified":
        return 0
    return 2


def cmd_inject_sweep(args) -> int:
    model = _model_for(args)
    rng = np.random.default_rng(args.seed)
    rows = ["trial,seed,epsilon,bound,distance,pass"]
    failures = 0
    for trial in range(args.trials):
        h, h2 = perturbed_pair(model, rng, args.scale, cond=args.cond)
        rep = verify_injectivity(model, h, h2, refine_check=False)
        ok = rep.pass_ if rep.pass_ is not None else False
        if not ok:
            failures += 1
        rows.append(derive_row(trial, args.seed, rep, ok))
    print(_write_csv(rows, _out_path(args, "inject_sweep.csv")))
    return 0 if failures == 0 else 2


def derive_row(trial, seed, rep, ok):
    return (
        f"{trial},{seed},{rep.epsilon!r},{rep.bound!r},{rep.distance_op!r},"
        f"{'true' if ok else 'false'}"
    )


def cmd_dump_model(args) -> int:
    model = _model_for(args)
    path = _out_path(args, "model.csv") or "model.csv"
    dump_model_csv(model, path)
    print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1 (bad input), not 2, which
    the exit-code contract reserves for numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hilbfs",
        description="Hilbert / Fubini-Study map computations on the projective line",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--out", type=str, default=None, help="directory for report artifacts")
        p.add_argument("--radial-nodes", type=int, default=None)
        p.add_argument("--azimuthal-nodes", type=int, default=None)

    p = sub.add_parser("hilb", help="Hilbert map of a metric")
    common(p)
    p.add_argument("--metric", default="ref")
    p.add_argument("--variant", choices=["fixed", "anticanonical"], default=None)
    p.add_argument("--nu", type=str, default=None, help="CSV density for the fixed variant")
    p.set_defaults(func=cmd_hilb)

    p = sub.add_parser("fs", help="Fubini-Study potential of a form")
    common(p)
    p.add_argument("--H", required=True)
    p.set_defaults(func=cmd_fs)

    p = sub.add_parser("balance", help="iterate hilb o fs from a seed form")
    common(p)
    p.add_argument("--h0", required=True)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("psi", help="pushforward maps of a scale class")
    common(p)
    p.add_argument("--B", required=True)
    p.add_argument("--mode", choices=["closed", "integral", "homotopy"], default="closed")
    p.add_argument("--t", type=float, default=0.5)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("psi-solve", help="continuation solve of the curve pushforward")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument(
        "--trace-out", type=str, default=None,
        help="CSV of the accepted continuation steps: the full step to t = 1 alone "
        "when its undamped Newton passes the contraction test, else the march in t "
        "that follows it; the residual column is each step's stopping residual, "
        "<= PATH_TOL before t = 1 and <= PSI_TOL at t = 1",
    )
    p.set_defaults(func=cmd_psi_solve)

    p = sub.add_parser("lambda", help="row-measure moment matrix")
    common(p)
    p.add_argument("--floor", type=float, default=None)
    p.add_argument("--mode", choices=["paper", "probe"], default="paper")
    p.add_argument("--densities-out", type=str, default=None)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("surject", help="realise a target form as a Hilbert map value")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--mode", choices=["full", "fixed", "anticanonical"], default="full")
    p.add_argument("--metric-out", type=str, default=None)
    p.set_defaults(func=cmd_surject)

    p = sub.add_parser("inject", help="quantitative injectivity report for a pair")
    common(p)
    p.add_argument("--H", required=True)
    p.add_argument("--Hprime", required=True)
    p.add_argument("--floor", type=float, default=None)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("inject-sweep", help="randomized injectivity sweep")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--scale", type=float, default=1e-2)
    p.add_argument("--cond", type=float, default=10.0)
    p.set_defaults(func=cmd_inject_sweep)

    p = sub.add_parser("dump-model", help="write the model node/section table")
    common(p)
    p.set_defaults(func=cmd_dump_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VALIDATION_ERRORS as exc:
        detail = ""
        if isinstance(exc, HermitianDefectError) and exc.indices is not None:
            detail = f" (offending entries {exc.indices})"
        print(f"invalid input: {exc}{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
