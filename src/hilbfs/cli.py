"""Command-line front end: batch computations in, JSON/CSV reports out.

Exit codes: 0 success, 1 validation error (bad inputs, malformed matrices,
invalid targets: of the wrong size, not positive definite or within the
margin; usage errors), 2 numerical or hypothesis failure, including a
``surject`` forward residual above ``calabi.SURJECT_TOL`` (the structured
report is still written).  The randomized command ``inject-sweep`` takes --seed and
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
    HermitianDefectError,
    MassDefectError,
    MomentInfeasibleError,
    StageError,
)
from .geometry import (
    Density,
    MetricWeight,
    _sized_form,
    build_p1_anticanonical_model,
    build_p1_model,
    fs_metric,
    reference_density,
)
from .injectivity import perturbed_pair, verify_injectivity
from .linalg import HermitianCoords, load_matrix_json
from .maps import hilb, hilb_nu, t_iterate
from .moments import build_lambda
from .pushforward import _psi_t_jacobian, psi, psi0_closed, psi_t, solve_psi

SCHEMA_VERSION = "1"

# main tries NUMERICAL_ERRORS first, so DefinitenessError, a ValueError, exits 2;
# ``_load_form`` turns a user-supplied form's pivot failure into a ValueError
VALIDATION_ERRORS = (ValueError, FileNotFoundError)
NUMERICAL_ERRORS = (
    DefinitenessError,
    CurvaturePositivityError,
    MassDefectError,
    ConvergenceError,
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


def _load_form(path):
    """A positive definite form from matrix JSON; a pivot failure here is
    invalid input, not the numerical failure it is inside a computation."""
    form = load_matrix_json(path)
    try:
        form.factor()
    except DefinitenessError as exc:
        raise ValueError(str(exc)) from exc
    return form


def _load_metric(model, spec: str) -> MetricWeight:
    if spec == "ref":
        return MetricWeight.reference(model)
    if spec.startswith("bergman:"):
        return fs_metric(model, _load_form(spec.split(":", 1)[1]))
    if spec.startswith("grid:"):
        return MetricWeight.grid(_node_column(spec.split(":", 1)[1]))
    raise ValueError(f"unknown metric spec {spec!r} (ref|bergman:FILE|grid:FILE)")


def _node_column(path) -> np.ndarray:
    """The values of a node CSV ``index,<column>`` (see ``_node_table``)."""
    return np.loadtxt(path, delimiter=",", usecols=(1,), skiprows=1)


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


def _trace_table(trace) -> list:
    """CSV lines of the accepted points of a ``ContinuationTrace``."""
    return ["t,residual,step,newton_iters"] + [
        f"{r.t!r},{r.residual!r},{r.step!r},{r.newton_iters}" for r in trace.rows
    ]


def cmd_hilb(args) -> int:
    if args.nu and args.variant != "fixed":
        raise ValueError("--nu applies to --variant fixed only")
    anticanonical = args.variant == "anticanonical"
    model = _model_for(args, anticanonical=anticanonical)
    metric = _load_metric(model, args.metric)
    if args.variant is None:
        form = hilb(model, metric)
    else:
        nu = Density(_node_column(args.nu)) if args.nu else reference_density(model)
        form = hilb_nu(model, metric, variant=args.variant, nu=nu)
    print(emit_report(form.to_json_dict(), _out_path(args, "hilb.json")))
    return 0


def cmd_fs(args) -> int:
    model = _model_for(args)
    metric = fs_metric(model, _load_form(args.H))
    u = metric.potential(model)
    print(_write_csv(_node_table("u", u), _out_path(args, "fs_potential.csv")))
    return 0


def cmd_balance(args) -> int:
    model = _model_for(args)
    h0 = _load_form(args.h0)
    trace = t_iterate(model, h0, max_iters=args.iters, tol=args.tol)
    lines = ["iter,step_max_norm,trace_defect"]
    for s in trace.steps[1:]:
        lines.append(f"{s.index},{s.step_max_norm!r},{s.trace_defect!r}")
    print(_write_csv(lines, _out_path(args, "balance.csv")))
    return 0


def cmd_psi(args) -> int:
    if args.t is not None and args.mode != "homotopy":
        raise ValueError("--t applies to --mode homotopy only")
    model = _model_for(args)
    b = _sized_form(model, load_matrix_json(args.B))
    if args.mode == "closed":
        result = psi0_closed(b)
    elif args.mode == "integral":
        result = psi(model, b)
    else:
        result = psi_t(model, b, 0.5 if args.t is None else args.t)
    print(emit_report(result.to_json_dict(), _out_path(args, "psi.json")))
    return 0


def cmd_psi_solve(args) -> int:
    model = _model_for(args)
    target = load_matrix_json(args.target)
    try:
        solution, trace = solve_psi(model, target)
    except ContinuationError as exc:
        if exc.trace is not None and args.trace_out:
            _write_csv(_trace_table(exc.trace), args.trace_out)
        report = {"status": "continuation failure", "detail": str(exc)}
        print(emit_report(report, _out_path(args, "psi_solve.json")))
        return 2
    if args.trace_out:
        _write_csv(_trace_table(trace), args.trace_out)
    # J, psi's Jacobian in B: J(A) after dA = B dB + dB B.  J - (J u) u^T, u the
    # coordinates of I / sqrt(N), has J's singular values on zero trace and one 0
    b, coords, eye = solution.mat, HermitianCoords.full(model.N), np.eye(model.N)
    jac = _psi_t_jacobian(model, b @ b, 1.0, coords)
    jac = jac @ coords.of_map(np.kron(b, eye) + np.kron(eye, b.T))
    jac[:, : model.N] -= jac[:, : model.N].mean(axis=1, keepdims=True)
    report = {
        "status": "ok",
        "B": solution.to_json_dict(),
        "forward_residual": float(
            np.abs(psi(model, solution).mat - target.mat / np.real(np.trace(target.mat))).max()
        ),
        "t_steps": len(trace.rows),
        "seed_steps": trace.seed_steps,
        "abandoned_attempts": trace.abandoned,
        "corrector_iters": trace.corrector_iters,
        "jacobian_sigma_min": float(np.linalg.svd(jac, compute_uv=False)[-2]),
    }
    print(emit_report(report, _out_path(args, "psi_solve.json")))
    return 0


def cmd_lambda(args) -> int:
    if args.floor is not None and args.mode != "paper":
        raise ValueError("--floor applies to --mode paper only")
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
        "max_entry": system.norms.max,
        "bounds_hold": system.bounds_hold(),
    }
    print(emit_report(report, _out_path(args, "lambda.json")))
    if args.densities_out:
        for i, weights in enumerate(system.weights):
            _write_csv(_node_table("weight", weights), f"{args.densities_out}.{i}.csv")
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
    h = _load_form(args.H)
    h2 = _load_form(args.Hprime)
    report = verify_injectivity(model, h, h2, floor=args.floor)
    print(emit_report(report.to_dict(), _out_path(args, "inject.json")))
    if report.status == "verified":
        return 0
    return 2


def cmd_inject_sweep(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {args.trials}")
    model = _model_for(args)
    rng = np.random.default_rng(args.seed)
    rows = ["trial,seed,epsilon,bound,distance,pass,status"]
    verified = 0
    for trial in range(args.trials):
        h, h2 = perturbed_pair(model, rng, args.scale, cond=args.cond)
        rep = verify_injectivity(model, h, h2, refine_check=False)
        verified += rep.status == "verified"
        # a withheld verdict (the eps hypothesis fails) leaves pass empty
        passed = "" if rep.pass_ is None else str(rep.pass_).lower()
        rows.append(
            f"{trial},{args.seed},{rep.epsilon!r},{rep.bound!r},{rep.distance_op!r},"
            f"{passed},{rep.status}"
        )
    print(_write_csv(rows, _out_path(args, "inject_sweep.csv")))
    # as for inject: 0 only when every trial is verified
    return 0 if verified == args.trials else 2


def cmd_dump_model(args) -> int:
    model = _model_for(args)
    path = _out_path(args, "model.csv") or "model.csv"
    header = ["index", "z_re", "z_im", "quad_weight", "ref_weight"]
    header += [f"s{j}_{part}" for j in range(model.N) for part in ("re", "im")]
    table = np.column_stack([
        model.nodes.real, model.nodes.imag, model.quad_weights, model.ref_weight,
        np.ascontiguousarray(model.sections.T).view(float),
    ])
    lines = [",".join(header)]
    lines += [",".join([str(q)] + [repr(float(v)) for v in row]) for q, row in enumerate(table)]
    _write_csv(lines, path)
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

    def command(name, func, summary):
        """A subcommand running ``func``, with the options every command takes."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--out", type=str, default=None, help="directory for report artifacts")
        p.add_argument("--radial-nodes", type=int, default=None)
        p.add_argument("--azimuthal-nodes", type=int, default=None)
        return p

    p = command("hilb", cmd_hilb, "Hilbert map of a metric")
    p.add_argument("--metric", default="ref")
    p.add_argument("--variant", choices=["fixed", "anticanonical"], default=None)
    p.add_argument("--nu", type=str, default=None, help="CSV density for the fixed variant")

    p = command("fs", cmd_fs, "Fubini-Study potential of a form")
    p.add_argument("--H", required=True)

    p = command("balance", cmd_balance, "iterate hilb o fs from a seed form")
    p.add_argument("--h0", required=True)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-10)

    p = command("psi", cmd_psi, "pushforward maps of a scale class")
    p.add_argument("--B", required=True)
    p.add_argument("--mode", choices=["closed", "integral", "homotopy"], default="closed")
    p.add_argument("--t", type=float, default=None, help="homotopy parameter (default 0.5)")

    p = command("psi-solve", cmd_psi_solve, "continuation solve of the curve pushforward")
    p.add_argument("--target", required=True)
    p.add_argument(
        "--trace-out", type=str, default=None,
        help="CSV of the accepted continuation steps: the full step to t = 1 alone "
        "when its undamped Newton passes the contraction test, else the march in t "
        "that follows it; the residual column is each step's stopping residual, "
        "<= PATH_TOL before t = 1 and <= PSI_TOL at t = 1",
    )

    p = command("lambda", cmd_lambda, "row-measure moment matrix")
    p.add_argument("--floor", type=float, default=None)
    p.add_argument("--mode", choices=["paper", "probe"], default="paper")
    p.add_argument("--densities-out", type=str, default=None)

    p = command("surject", cmd_surject, "realise a target form as a Hilbert map value")
    p.add_argument("--target", required=True)
    p.add_argument("--mode", choices=["full", "fixed", "anticanonical"], default="full")
    p.add_argument("--metric-out", type=str, default=None)

    p = command("inject", cmd_inject, "quantitative injectivity report for a pair")
    p.add_argument("--H", required=True)
    p.add_argument("--Hprime", required=True)
    p.add_argument("--floor", type=float, default=None)

    p = command("inject-sweep", cmd_inject_sweep, "randomized injectivity sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--scale", type=float, default=1e-2)
    p.add_argument("--cond", type=float, default=10.0)

    command("dump-model", cmd_dump_model, "write the model node/section table")

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
