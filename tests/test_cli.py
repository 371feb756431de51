import json
import re

import numpy as np
import pytest

from optkit import RunRecord, ScaledView, read_record, sqp, write_record
from optkit.bench import make_problem, quadratic_example
from optkit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_converged_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "run", "--problem", "rosenbrock2",
                           "--solver", "quasi_newton")
    assert code == 0
    assert re.search(r"converged:\s+true", out)
    f_star = float(re.search(r"f\*:\s+(\S+)", out).group(1))
    assert f_star <= 1e-8


def test_run_nonconverged_exit_one(capsys):
    code, out, _ = run_cli(capsys, "run", "--problem", "quartic",
                           "--solver", "steepest_descent",
                           "--maxiter", "200", "--opt-tol", "1e-5")
    assert code == 1
    assert re.search(r"converged:\s+false", out)


def test_run_unknown_solver_exit_two(capsys):
    code, _, err = run_cli(capsys, "run", "--problem", "quartic",
                           "--solver", "nosuch")
    assert code == 2
    assert "valid names" in err


def test_run_unknown_problem_exit_two(capsys):
    code, _, err = run_cli(capsys, "run", "--problem", "nope", "--solver", "newton")
    assert code == 2
    assert "valid names" in err


def test_run_bad_option_override_exit_two(capsys):
    code, _, err = run_cli(capsys, "run", "--problem", "quartic",
                           "--solver", "newton", "--opt", "bogus=1")
    assert code == 2
    assert "bogus" in err


def test_run_non_numeric_list_override_exit_two(capsys):
    code, _, err = run_cli(capsys, "run", "--problem", "rosenbrock2",
                           "--solver", "quasi_newton", "--opt", "variant=a,b")
    assert code == 2
    assert "'variant=a,b'" in err


def test_run_pso_empty_swarm_exit_one(capsys):
    code, _, err = run_cli(capsys, "run", "--problem", "rosenbrock2", "--solver", "pso",
                           "--opt", "sample_lower=-2,-2", "--opt", "sample_upper=2,2",
                           "--opt", "n_particles=0")
    assert code == 1
    assert "n_particles must be at least 1" in err


def test_run_nelder_mead_zero_init_scale_exit_one(capsys):
    code, out, err = run_cli(capsys, "run", "--problem", "rosenbrock2", "--solver", "nelder_mead",
                             "--opt", "init_scale=0")
    assert code == 1
    assert "init_scale must be nonzero and finite" in err
    assert "converged:   true" not in out


def test_run_quadratic_penalty_nan_growth_exit_one(capsys):
    code, out, err = run_cli(capsys, "run", "--problem", "cantilever:20",
                             "--solver", "quadratic_penalty", "--opt", "rho_growth=nan")
    assert code == 1
    assert "rho_growth must be finite and greater than 1, got nan" in err
    assert "evaluations" not in out


def test_run_that_raises_still_writes_its_record(tmp_path, capsys):
    # unscaled spacecraft:10 makes sqp raise after six failed QPs
    rec = tmp_path / "f.rec"
    code, out, err = run_cli(capsys, "run", "--problem", "spacecraft:10", "--solver", "sqp",
                             "--record", str(rec))
    assert code == 1
    assert "solver failed" in err and "record written" in out
    record = read_record(rec)
    assert record.header["solver"] == "sqp"
    assert record.eval_events() and record.iter_events()
    code, out, _ = run_cli(capsys, "inspect", str(rec))
    assert code == 0 and "0 evaluations" not in out


def test_run_refused_by_an_option_range_records_its_solver(tmp_path, capsys):
    rec = tmp_path / "g.rec"
    code, _, err = run_cli(capsys, "run", "--problem", "cantilever:20",
                           "--solver", "quadratic_penalty", "--opt", "rho_growth=0.5",
                           "--record", str(rec))
    assert code == 1 and "rho_growth must be finite and greater than 1" in err
    code, out, _ = run_cli(capsys, "inspect", str(rec))
    assert code == 0
    assert "solver: quadratic_penalty" in " ".join(out.split())
    assert "0 iterations, 0 evaluations" in out


def test_run_writes_record_and_readable_outputs(tmp_path, capsys):
    rec = tmp_path / "run.rec"
    code, out, _ = run_cli(capsys, "run", "--problem", "bean",
                           "--solver", "quasi_newton",
                           "--record", str(rec),
                           "--readable-outputs", "obj,x",
                           "--out-dir", str(tmp_path))
    assert code == 0
    record = read_record(rec)
    assert record.header["solver"] == "quasi_newton"
    assert len(record.iter_events()) > 1
    assert (tmp_path / "obj.out").exists() and (tmp_path / "x.out").exists()


def test_run_hot_start_replays_everything(tmp_path, capsys):
    rec = tmp_path / "a.rec"
    run_cli(capsys, "run", "--problem", "rosenbrock2", "--solver", "quasi_newton",
            "--record", str(rec))
    code, out, _ = run_cli(capsys, "run", "--problem", "rosenbrock2",
                           "--solver", "quasi_newton", "--hot-start", str(rec))
    assert code == 0
    assert re.search(r"evaluations: obj=0 grad=0", out)
    assert re.search(r"replayed:\s+obj=\d+", out)


def test_run_scaler_override(capsys):
    code, out, _ = run_cli(capsys, "run", "--problem", "quadratic_example",
                           "--solver", "sqp", "--x-scaler", "10,0.1",
                           "--f-scaler", "5")
    assert code == 0
    assert re.search(r"converged:\s+true", out)


@pytest.mark.parametrize("problem, flag, value, name", [
    ("rosenbrock2", "--f-scaler", "0", "f_scaler"),
    ("rosenbrock2", "--x-scaler", "1,2,3", "x_scaler"),
    ("rosenbrock2", "--x-scaler", "-1", "x_scaler"),
    ("quadratic_example", "--c-scaler", "1,1,1", "c_scaler"),
])
def test_run_bad_scaler_override_exit_two(capsys, problem, flag, value, name):
    code, _, err = run_cli(capsys, "run", "--problem", problem,
                           "--solver", "quasi_newton", flag, value)
    assert code == 2
    assert name in err and "Traceback" not in err


def test_check_bean_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--problem", "bean")
    assert code == 0
    assert "all entries within" in out


def test_check_cantilever_adjoint(capsys):
    code, out, _ = run_cli(capsys, "check", "--problem", "cantilever:20")
    assert code == 0


def test_check_spacecraft_takes_its_size_from_n_t(capsys):
    code, out, _ = run_cli(capsys, "check", "--problem", "spacecraft:3")
    assert code == 0
    assert "problem: spacecraft_3" in out


@pytest.mark.parametrize("argv, message", [
    # a size the problem does not take, or one its factory refuses
    (["run", "--problem", "rosenbrock2:7", "--solver", "quasi_newton"],
     "problem 'rosenbrock2' takes no size parameter"),
    (["check", "--problem", "cantilever:1"], "cantilever needs at least 2 elements, got 1"),
    # flags a subcommand does not use are refused by the parser
    (["run", "--problem", "cantilever", "--n-el", "20", "--solver", "sqp"],
     "unrecognized arguments: --n-el 20"),
    (["check", "--problem", "bean", "--maxiter", "3"], "unrecognized arguments: --maxiter 3"),
    # bench gives every --opt to every solver, and an undeclared one is a usage error
    (["bench", "--problems", "rosenbrock2", "--solvers", "newton", "--opt", "nonsense=1"],
     "unknown option 'nonsense'"),
    # ... and the message names the solver that does not declare it
    (["bench", "--problems", "rosenbrock2", "--solvers", "newton,pso",
      "--opt", "sample_lower=-2,-2", "--opt", "sample_upper=2,2"],
     "unknown option 'sample_lower' for newton"),
    # a size that is not an integer is quoted with its token
    (["bench", "--problems", "rosenbrock2,cantilever:x", "--solvers", "sqp"],
     "problem size in 'cantilever:x' must be an integer"),
    (["run", "--problem", "cantilever:", "--solver", "sqp"],
     "problem size in 'cantilever:' must be an integer"),
])
def test_input_errors_exit_two_without_traceback(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)     # the default --out-dir, which must stay empty
    try:
        code = main(argv)
    except SystemExit as exc:    # argparse exits itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and message in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_bench_writes_summary_and_profiles(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench",
                           "--problems", "quartic,rosenbrock2,bean",
                           "--solvers", "newton,quasi_newton,nelder_mead",
                           "--out-dir", str(tmp_path))
    assert code == 0
    summary = (tmp_path / "suite_summary.csv").read_text().splitlines()
    assert summary[0] == "solver,problem,solved,time_s,n_obj,n_grad,f_star,optimality"
    assert len(summary) == 10  # header + 3x3 runs
    assert (tmp_path / "performance_profile.csv").exists()
    assert (tmp_path / "data_profile.csv").exists()
    assert "solved fraction" in out


def test_bench_data_profile_only(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "bench", "--problems", "quartic",
                         "--solvers", "newton", "--profile", "data",
                         "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "data_profile.csv").exists()
    assert not (tmp_path / "performance_profile.csv").exists()


def test_bench_empty_selection_exit_two(capsys):
    code, _, err = run_cli(capsys, "bench", "--problems", "", "--solvers", "newton")
    assert code == 2


def test_bench_sized_problem_tokens(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench", "--problems", "rosen_coupled:4",
                           "--solvers", "quasi_newton", "--out-dir", str(tmp_path))
    assert code == 0
    assert "rosen_coupled_4" in (tmp_path / "suite_summary.csv").read_text()


def test_inspect_header_only(tmp_path, capsys):
    rec = tmp_path / "empty.rec"
    write_record(RunRecord.for_problem(quadratic_example()), rec)
    code, out, _ = run_cli(capsys, "inspect", str(rec))
    assert code == 0
    assert "0 iterations, 0 evaluations" in out


def test_inspect_tail_rows(tmp_path, capsys):
    rec = tmp_path / "r.rec"
    run_cli(capsys, "run", "--problem", "rosenbrock2", "--solver", "quasi_newton",
            "--record", str(rec))
    code, out, _ = run_cli(capsys, "inspect", str(rec), "--tail", "5")
    assert code == 0
    assert len([l for l in out.splitlines() if l.lstrip().startswith("itr=")]) == 5


def test_inspect_negative_tail_exit_two(tmp_path, capsys):
    rec = tmp_path / "r.rec"
    write_record(RunRecord.for_problem(quadratic_example()), rec)
    code, out, err = run_cli(capsys, "inspect", str(rec), "--tail", "-1")
    assert code == 2
    assert "--tail must be at least 0, got -1" in err and not out


def test_inspect_scaled_record_shows_the_report(tmp_path, capsys):
    spec = make_problem("cantilever", 6)
    assert not np.all(spec.x_scaler == 1.0) and spec.f_scaler != 1.0
    view = ScaledView(spec, record=True)
    report = sqp(view)
    last = view.record.iter_events()[-1].values
    assert last["x"].tobytes() == report.x_star.tobytes()
    assert last["obj"] == report.f_star
    rec = tmp_path / "c6.rec"
    write_record(view.record, rec)
    iters = [json.loads(line) for line in rec.read_text().splitlines()[1:]
             if line.startswith('{"t":"iter"')]
    assert len(iters) == report.niter + 1
    assert all(set(it["x"]) == {"ref"} for it in iters)
    code, out, _ = run_cli(capsys, "inspect", str(rec), "--tail", "1")
    assert code == 0
    with np.printoptions(precision=6, threshold=8):
        assert f" x={report.x_star} " in out


def test_inspect_exports_outputs(tmp_path, capsys):
    rec = tmp_path / "r.rec"
    run_cli(capsys, "run", "--problem", "bean", "--solver", "nelder_mead",
            "--record", str(rec))
    code, out, _ = run_cli(capsys, "inspect", str(rec), "--outputs", "obj,x",
                           "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "obj.out").exists() and (tmp_path / "x.out").exists()


def test_inspect_malformed_record_reports_line(tmp_path, capsys):
    rec = tmp_path / "bad.rec"
    write_record(RunRecord.for_problem(quadratic_example()), rec)
    with open(rec, "a") as fh:
        fh.write('{"t": "eval", "k": "obj"\n')
    code, _, err = run_cli(capsys, "inspect", str(rec))
    assert code == 1
    assert "bad.rec:2" in err


def test_inspect_missing_file_exit_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "inspect", str(tmp_path / "missing.rec"))
    assert code == 2
