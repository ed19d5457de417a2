"""Exit-code and reproducibility contract of the command-line front end:
0 success, 1 bad input (including usage errors), 2 numerical failure."""

import json

import numpy as np
import pytest

import hilbfs.calabi
from hilbfs import (
    HermitianForm,
    build_lambda,
    build_p1_model,
    fs_metric,
    hilb,
    psi,
    solve_psi,
    surject_fixed_volume,
    surject_full,
)
from hilbfs.linalg import HermitianCoords, random_spd
from hilbfs.cli import main


def write_matrix(path, d):
    path.write_text(json.dumps(d))
    return str(path)


def exit_code(argv):
    """main's return value, or the status of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_hilb_reference_metric_succeeds(capsys):
    assert main(["hilb", "--k", "2", "--metric", "ref"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 3


def test_density_of_the_wrong_length_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "two_rows.csv"
    path.write_text("index,weight\n0,0.5\n1,0.5\n")
    assert main(["hilb", "--k", "2", "--variant", "fixed", "--nu", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid input" in err and "2 weights" in err and "96 nodes" in err


def test_non_hermitian_matrix_is_invalid_input(tmp_path, capsys):
    path = write_matrix(
        tmp_path / "h.json", {"n": 2, "re": [[1.0, 0.2], [0.4, 1.0]], "im": [[0, 0], [0, 0]]}
    )
    assert main(["fs", "--k", "1", "--H", path]) == 1
    assert "invalid input" in capsys.readouterr().err


def test_matrix_json_missing_key_is_invalid_input(tmp_path, capsys):
    path = write_matrix(tmp_path / "nokey.json", {"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]]})
    assert main(["fs", "--k", "1", "--H", path]) == 1
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["hilb"],  # missing --k
        ["hilb", "--k", "2", "--bogus"],
        ["hilb", "--k", "2", "--threads", "2"],
        ["hilb", "--k", "2", "--manifold", "p1"],
        ["hilb", "--k", "2", "--seed", "1"],  # only inject-sweep takes a seed
        ["hilb", "--k", "2", "--variant", "canonical"],  # P^1 is never canonically polarised
    ],
)
def test_usage_errors_exit_1(argv):
    assert exit_code(argv) == 1


@pytest.mark.parametrize(
    "variant", [[], ["--variant", "anticanonical"]], ids=["no-variant", "anticanonical"]
)
def test_hilb_nu_without_the_fixed_variant_is_a_usage_error(tmp_path, capsys, variant):
    # a density the fixed variant would accept, which no other Hilbert map reads
    model = build_p1_model(2, line_degree=2 if variant else 1)
    path = tmp_path / "nu.csv"
    path.write_text("\n".join(["index,weight"] + [f"{i},{w!r}" for i, w in
                                                  enumerate(model.quad_weights)]) + "\n")
    assert main(["hilb", "--k", "2", *variant, "--nu", str(path)]) == 1
    assert "--nu applies to --variant fixed only" in capsys.readouterr().err


def test_lambda_floor_in_probe_mode_is_a_usage_error(capsys):
    # the probe rows have no spike targets, so they have no floor to take
    assert main(["lambda", "--k", "2", "--mode", "probe", "--floor", "0.1"]) == 1
    assert "--floor applies to --mode paper only" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["hilb", "--help"]])
def test_help_and_version_exit_0(argv):
    assert exit_code(argv) == 0


def test_out_of_range_surject_reports_stage(tmp_path, capsys):
    path = write_matrix(
        tmp_path / "spike.json",
        {"n": 3, "re": [[0.6, 0, 0], [0, 1.8, 0], [0, 0, 0.6]], "im": [[0] * 3] * 3},
    )
    argv = ["surject", "--k", "2", "--target", path,
            "--radial-nodes", "32", "--azimuthal-nodes", "48"]
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "failure"
    assert report["stage"] == "pushforward-continuation"


def test_inject_sweep_seed_is_byte_identical(capsys):
    argv = ["inject-sweep", "--k", "2", "--seed", "3", "--trials", "2"]
    outputs = []
    for _ in range(2):
        exit_code(argv)
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[1].startswith("0,3,")


GRID = ["--radial-nodes", "32", "--azimuthal-nodes", "48"]


@pytest.mark.parametrize(
    "command,flag",
    [("surject", ["--tol", "1e-7"]), ("psi-solve", ["--steps", "3"]),
     ("psi-solve", ["--tol", "1e-9"])],
)
def test_solver_settings_are_not_options(tmp_path, command, flag):
    # the gate and the continuation settings are module constants
    model = build_p1_model(2, radial_nodes=32, azimuthal_nodes=48)
    target = hilb(model, fs_metric(model, random_spd(3, np.random.default_rng(14), cond=3.0)))
    path = write_matrix(tmp_path / "g.json", target.to_json_dict())
    assert exit_code([command, "--k", "2", "--target", path, *GRID, *flag]) == 1


@pytest.mark.parametrize("mode", ["closed", "integral", "homotopy"])
def test_psi_modes_print_matrix(tmp_path, capsys, mode):
    path = write_matrix(tmp_path / "b.json", HermitianForm.diagonal([1.0, 1.3, 0.8]).to_json_dict())
    assert main(["psi", "--k", "2", "--B", path, "--mode", mode, *GRID]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 3
    assert {"re", "im"} <= report.keys()


def test_psi_solve_feasible_target(tmp_path, capsys):
    model = build_p1_model(2, radial_nodes=32, azimuthal_nodes=48)
    target = psi(model, np.diag([1.0, 1.3, 0.8]))
    path = write_matrix(tmp_path / "g.json", target.to_json_dict())
    trace_path = tmp_path / "trace.csv"
    argv = ["psi-solve", "--k", "2", "--target", path, "--trace-out", str(trace_path), *GRID]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    assert report["B"]["n"] == 3
    assert report["forward_residual"] <= 1e-8
    assert report["t_steps"] >= 2
    # the same totals over every attempt as the solver's own trace
    _, trace = solve_psi(model, target)
    assert report["seed_steps"] == trace.seed_steps >= 1
    assert report["abandoned_attempts"] == trace.abandoned
    assert report["corrector_iters"] == trace.corrector_iters >= report["t_steps"] - 1
    assert trace_path.read_text().splitlines()[0] == "t,residual,step,newton_iters"


def test_psi_solve_reports_the_least_singular_value_of_the_jacobian(tmp_path, capsys):
    model = build_p1_model(2, radial_nodes=32, azimuthal_nodes=48)
    target = psi(model, np.diag([1.0, 1.3, 0.8]))
    path = write_matrix(tmp_path / "g.json", target.to_json_dict())
    assert main(["psi-solve", "--k", "2", "--target", path, *GRID]) == 0
    report = json.loads(capsys.readouterr().out)
    # against the central-difference Jacobian of psi at the returned B, in
    # the coordinates of the traceless basis
    b = HermitianForm.from_json_dict(report["B"]).mat
    basis, h = HermitianCoords.traceless(3).basis, 1e-5
    jac = [
        np.einsum("aij,ji->a", basis, psi(model, b + h * e).mat - psi(model, b - h * e).mat).real
        / (2.0 * h)
        for e in basis
    ]
    sigma_min = np.linalg.svd(np.array(jac), compute_uv=False)[-1]
    assert report["jacobian_sigma_min"] == pytest.approx(sigma_min, rel=1e-6)


def test_psi_solve_accepts_any_trace(tmp_path, capsys):
    model = build_p1_model(2, radial_nodes=32, azimuthal_nodes=48)
    target = psi(model, np.diag([1.0, 1.3, 0.8])).scaled(2.5)
    path = write_matrix(tmp_path / "g.json", target.to_json_dict())
    assert main(["psi-solve", "--k", "2", "--target", path, *GRID]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    assert report["forward_residual"] <= 1e-8


def test_psi_solve_out_of_range_target(tmp_path, capsys):
    path = write_matrix(tmp_path / "g.json", HermitianForm.diagonal([0.2, 0.6, 0.2]).to_json_dict())
    assert main(["psi-solve", "--k", "2", "--target", path, *GRID]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "continuation failure"


@pytest.mark.parametrize("mode", ["full", "fixed"])
def test_surject_indefinite_target_is_invalid_input(tmp_path, capsys, mode):
    # an invalid target is bad input (exit 1), not a failure of a stage (exit 2)
    path = write_matrix(tmp_path / "g.json", HermitianForm.diagonal([1.0, -0.1, 1.0]).to_json_dict())
    assert main(["surject", "--k", "2", "--target", path, "--mode", mode, *GRID]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input:")


def test_psi_solve_target_of_the_wrong_size_is_invalid_input(tmp_path, capsys):
    path = write_matrix(tmp_path / "g.json", HermitianForm.identity(4).to_json_dict())
    assert main(["psi-solve", "--k", "2", "--target", path, *GRID]) == 1
    assert capsys.readouterr().err.strip() == "invalid input: form has dim 4, model needs 3"


def test_surject_full_feasible_target(tmp_path, capsys):
    model = build_p1_model(2, radial_nodes=32, azimuthal_nodes=48)
    target = hilb(model, fs_metric(model, random_spd(3, np.random.default_rng(14), cond=3.0)))
    path = write_matrix(tmp_path / "g.json", target.to_json_dict())
    assert main(["surject", "--k", "2", "--target", path, "--mode", "full", *GRID]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == "1"
    assert report["mode"] == "full"
    assert report["achieved"] is True
    assert report["tolerance"] == hilbfs.calabi.SURJECT_TOL
    assert report["residual_max"] <= 1e-8
    assert report["positivity_margin"] > 0
    assert [s["stage"] for s in report["stage_logs"]] == [
        "pushforward-continuation", "forward-check"
    ]


def json_report(capsys):
    """The printed report, after checking that schema_version leads it."""
    report = json.loads(capsys.readouterr().out)
    assert next(iter(report)) == "schema_version"
    assert report["schema_version"] == "1"
    return report


def test_lambda_probe_report(capsys):
    assert main(["lambda", "--k", "2", "--mode", "probe"]) == 0
    assert list(json_report(capsys)) == [
        "schema_version", "status", "mode", "floor", "matrix", "norm_op",
        "inverse_norm_op", "max_entry", "bounds_hold",
    ]


def test_inject_report(tmp_path, capsys):
    h = random_spd(3, np.random.default_rng(15), cond=3.0)
    h_path = write_matrix(tmp_path / "h.json", h.to_json_dict())
    h2_path = write_matrix(
        tmp_path / "h2.json", HermitianForm(h.mat + 1e-4 * np.eye(3)).to_json_dict()
    )
    assert main(["inject", "--k", "2", "--H", h_path, "--Hprime", h2_path]) == 0
    report = json_report(capsys)
    assert list(report) == [
        "schema_version", "N", "k", "epsilon", "epsilon_node", "hypothesis_ok", "d_sq",
        "bound", "distance_op", "chain", "pass", "status", "lambda_mode", "lambda_floor",
        "lambda_norm_op", "lambda_inv_norm_op", "lambda_bounds_ok", "lambda_paper_status",
        "route_agreement", "intermediate_ok", "refinement_flag", "epsilon_refined",
        "warnings",
    ]
    assert report["status"] == "verified"


def test_surject_fixed_report(tmp_path, capsys):
    model = build_p1_model(2, radial_nodes=32, azimuthal_nodes=48)
    target = hilb(model, fs_metric(model, random_spd(3, np.random.default_rng(14), cond=3.0)))
    path = write_matrix(tmp_path / "g.json", target.to_json_dict())
    assert main(["surject", "--k", "2", "--target", path, "--mode", "fixed", *GRID]) == 0
    report = json_report(capsys)
    assert list(report) == [
        "schema_version", "mode", "dim", "residual_max", "positivity_margin", "tolerance",
        "achieved", "stage_logs", "metric_dump_path",
    ]
    assert report["mode"] == "fixed"
    assert report["tolerance"] == hilbfs.calabi.SURJECT_TOL
    assert report["metric_dump_path"] is None
    assert [s["stage"] for s in report["stage_logs"]] == ["full-gram-moment", "forward-check"]


def test_fs_potential_csv_reproduces_bergman_hilb(tmp_path, capsys):
    # the grid metric read back from the CSV goes through the spectral
    # Laplacian; the bergman one through the analytic curvature
    grid = ["--radial-nodes", "24", "--azimuthal-nodes", "32"]
    h_path = write_matrix(
        tmp_path / "h.json", random_spd(3, np.random.default_rng(16), cond=3.0).to_json_dict()
    )
    out = tmp_path / "D"
    assert main(["fs", "--k", "2", *grid, "--H", h_path, "--out", str(out)]) == 0
    lines = (out / "fs_potential.csv").read_text().splitlines()
    assert lines[0] == "index,u"
    assert len(lines) - 1 == 24 * 32
    capsys.readouterr()
    forms = []
    for spec in (f"grid:{out / 'fs_potential.csv'}", f"bergman:{h_path}"):
        assert main(["hilb", "--k", "2", *grid, "--metric", spec]) == 0
        report = json_report(capsys)
        forms.append(np.array(report["re"]) + 1j * np.array(report["im"]))
    assert np.abs(forms[0] - forms[1]).max() <= 1e-10


def test_balance_csv(tmp_path, capsys):
    h_path = write_matrix(
        tmp_path / "h0.json", random_spd(3, np.random.default_rng(17), cond=3.0).to_json_dict()
    )
    argv = ["balance", "--k", "2", "--h0", h_path, "--iters", "4", "--tol", "0", *GRID]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "iter,step_max_norm,trace_defect"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]


@pytest.mark.parametrize(
    "diag, code, message",
    [
        ([1.0, -1.0, 1.0], 1, "invalid input: matrix is not positive definite: pivot 1 fails"),
        ([1.0, 1.0], 1, "invalid input: form has dim 2, model needs 3"),
    ],
    ids=["not-positive-definite", "wrong-size"],
)
def test_balance_checks_its_seed(tmp_path, capsys, diag, code, message):
    h_path = write_matrix(tmp_path / "h0.json", HermitianForm.diagonal(diag).to_json_dict())
    assert main(["balance", "--k", "2", "--h0", h_path, "--iters", "4", *GRID]) == code
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize(
    "argv",
    [["fs", "--H", "{bad}"], ["inject", "--H", "{bad}", "--Hprime", "{good}"],
     ["inject", "--H", "{good}", "--Hprime", "{bad}"], ["hilb", "--metric", "bergman:{bad}"]],
    ids=["fs", "inject-H", "inject-Hprime", "hilb-bergman"],
)
def test_indefinite_form_is_invalid_input(tmp_path, capsys, argv):
    bad = HermitianForm.diagonal([1.0, -0.1, 1.0])
    paths = {
        "bad": write_matrix(tmp_path / "bad.json", bad.to_json_dict()),
        "good": write_matrix(tmp_path / "good.json", HermitianForm.identity(3).to_json_dict()),
    }
    assert main([arg.format(**paths) for arg in argv] + ["--k", "2", *GRID]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "invalid input: matrix is not positive definite: pivot 1 fails"


def test_negative_balance_iterations_are_invalid_input(tmp_path, capsys):
    h_path = write_matrix(tmp_path / "h0.json", HermitianForm.identity(3).to_json_dict())
    assert main(["balance", "--k", "2", "--h0", h_path, "--iters", "-1", *GRID]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "invalid input: max_iters must be nonnegative, got -1"


def test_negative_sweep_trials_are_invalid_input(capsys):
    assert main(["inject-sweep", "--k", "2", "--trials", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "invalid input: --trials must be nonnegative, got -1"


def test_dump_model_writes_named_file(tmp_path, capsys):
    assert main(["dump-model", "--k", "1", "--out", str(tmp_path)]) == 0
    path = tmp_path / "model.csv"
    assert capsys.readouterr().out.strip() == f"wrote {path}"
    lines = path.read_text().splitlines()
    assert lines[0].startswith("index,z_re,z_im,quad_weight,ref_weight,s0_re,s0_im")
    assert len(lines) - 1 == build_p1_model(1).Q


def test_lambda_paper_mode_infeasible_row(capsys):
    assert main(["lambda", "--k", "2", "--mode", "paper"]) == 2
    report = json_report(capsys)
    assert report["status"] == "infeasible"
    assert report["row"] == 1


def read_node_table(path, column):
    lines = path.read_text().splitlines()
    assert lines[0] == f"index,{column}"
    assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(len(lines) - 1)]
    return np.array([float(line.split(",")[1]) for line in lines[1:]])


@pytest.mark.parametrize("mode", ["full", "fixed"])
def test_surject_metric_out_csv(tmp_path, capsys, mode):
    model = build_p1_model(2, radial_nodes=32, azimuthal_nodes=48)
    target = hilb(model, fs_metric(model, random_spd(3, np.random.default_rng(14), cond=3.0)))
    path = write_matrix(tmp_path / "g.json", target.to_json_dict())
    out = tmp_path / "metric.csv"
    argv = ["surject", "--k", "2", "--target", path, "--mode", mode, *GRID,
            "--metric-out", str(out)]
    assert main(argv) == 0
    assert json_report(capsys)["metric_dump_path"] == str(out)
    solve = surject_full if mode == "full" else surject_fixed_volume
    metric, _ = solve(model, target)
    assert np.array_equal(read_node_table(out, "u"), metric.potential(model))


def test_lambda_densities_out_csv(tmp_path, capsys):
    prefix = tmp_path / "dens"
    assert main(["lambda", "--k", "2", "--mode", "probe", "--densities-out", str(prefix)]) == 0
    capsys.readouterr()
    system = build_lambda(build_p1_model(2), mode="probe")
    for i, density in enumerate(system.densities):
        weights = read_node_table(tmp_path / f"dens.{i}.csv", "weight")
        assert np.array_equal(weights, density.weights)
    assert not (tmp_path / f"dens.{len(system.densities)}.csv").exists()
