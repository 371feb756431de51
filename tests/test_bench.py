import numpy as np
import pytest
from numpy.testing import assert_allclose

import optkit as ok
from optkit.bench import (data_profile, make_problem, parse_problem_token,
                          performance_profile, problem_names, run_suite)
from optkit.bench.beam import BREADTH, CantileverModel, E_MOD, LENGTH, VOLUME
from optkit.bench.profiles import ProfileTable
from optkit.bench.spacecraft import (GRAVITY, MASS, T_MAX, TOTAL_TIME, X0_STATE,
                                     XF_STATE, dynamics, euler_trajectory,
                                     pack_variables)


# ---------------------------------------------------------------------------
# registry values
# ---------------------------------------------------------------------------

def test_registry_lists_all_problems():
    assert problem_names() == sorted(["quartic", "rosenbrock2", "bean",
                                      "quadratic_example", "rosen_uncoupled",
                                      "rosen_coupled", "cantilever", "spacecraft"])


def test_rosen_coupled_reference_values():
    spec = make_problem("rosen_coupled", 2)
    assert spec.callbacks.objective(np.ones(2)) == 0.0
    spec8 = make_problem("rosen_coupled", 8)
    x_local = np.ones(8)
    x_local[0] = -1.0
    assert spec8.callbacks.objective(x_local) == pytest.approx(4.0, abs=1e-12)
    assert spec8.callbacks.objective(np.ones(8)) == 0.0


def test_rosen_uncoupled_minimum_and_parity():
    spec = make_problem("rosen_uncoupled", 4)
    assert spec.callbacks.objective(np.ones(4)) == 0.0
    with pytest.raises(ValueError):
        make_problem("rosen_uncoupled", 5)


def test_bean_reference_minimum():
    spec = make_problem("bean")
    assert spec.callbacks.objective(np.array([1.21314, 0.82414])) == pytest.approx(
        0.09194, abs=5e-6)


def test_initial_guesses_match_references():
    assert_allclose(make_problem("quartic").x0, [1.0, 1.0])
    assert_allclose(make_problem("rosenbrock2").x0, [-1.2, 1.0])
    assert_allclose(make_problem("bean").x0, [0.0, 0.0])
    assert_allclose(make_problem("rosen_coupled", 6).x0, [-1.2, 1.0] * 3)
    assert_allclose(make_problem("quadratic_example").x0, [500.0, 5.0])


def test_unknown_problem_name():
    with pytest.raises(KeyError, match="valid names"):
        make_problem("nope")


def test_parse_problem_token_sizes():
    assert parse_problem_token("rosen_coupled:4").n == 4
    assert parse_problem_token("quartic").n == 2

# ---------------------------------------------------------------------------
# derivative checks across the registry (analytic problems)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,size", [
    ("quartic", None), ("rosenbrock2", None), ("bean", None),
    ("quadratic_example", None), ("rosen_uncoupled", 8), ("rosen_coupled", 8),
    ("cantilever", 20), ("spacecraft", 10),
])
def test_registry_first_derivatives(name, size):
    spec = make_problem(name, size)
    report = ok.check_first_derivatives(spec)
    assert report.max_rel_error < 1e-4
    assert report.ok


# ---------------------------------------------------------------------------
# cantilever model
# ---------------------------------------------------------------------------

def test_cantilever_uniform_matches_tip_deflection_formula():
    # uniform thickness: compliance equals P L^3 / (3 E I), I = b h^3/12
    model = CantileverModel(2)
    h = np.full(2, 0.1)
    inertia = BREADTH * 0.1 ** 3 / 12.0
    exact = LENGTH ** 3 / (3.0 * E_MOD * inertia)
    assert model.compliance(h) == pytest.approx(exact, rel=1e-9)
    assert model.solve_compliance(h) == pytest.approx(exact, rel=1e-9)


def test_cantilever_energy_equals_fe_solve():
    model = CantileverModel(20)
    rng = np.random.default_rng(2)
    h = 0.1 * (1.0 + 0.4 * rng.uniform(-1.0, 1.0, 20))
    assert model.compliance(h) == pytest.approx(model.solve_compliance(h), rel=1e-9)


def test_cantilever_stiffness_spd_and_monotone():
    model = CantileverModel(10)
    rng = np.random.default_rng(4)
    for _ in range(5):
        h = 0.05 + rng.uniform(0.0, 0.2, 10)
        K = model.stiffness(h)
        assert_allclose(K, K.T, atol=1e-12)
        np.linalg.cholesky(K)  # SPD iff this succeeds
        # thickening any element reduces compliance
        grad = model.compliance_gradient(h)
        assert np.all(grad < 0.0)
        i = rng.integers(0, 10)
        h2 = h.copy()
        h2[i] += 0.01
        assert model.compliance(h2) < model.compliance(h)


def test_cantilever_volume_constraint_row():
    spec = make_problem("cantilever", 4)
    h = spec.x0
    c = spec.callbacks.constraints(h)
    assert c[0] == pytest.approx(VOLUME, rel=1e-12)
    J = spec.callbacks.jacobian(h)
    assert_allclose(J, np.full((1, 4), BREADTH * LENGTH / 4.0))


# ---------------------------------------------------------------------------
# spacecraft model
# ---------------------------------------------------------------------------

def test_spacecraft_hover_has_zero_accelerations():
    state = np.array([0.0, 0.0, 500.0, 0.0, 0.0, 0.0])
    control = np.array([MASS * GRAVITY, 0.0])
    xdot = dynamics(state, control)
    assert xdot[1] == 0.0 and xdot[5] == 0.0
    assert xdot[3] == pytest.approx(0.0, abs=1e-12)


def test_spacecraft_defects_vanish_on_euler_trajectory():
    n_t = 10
    dt = TOTAL_TIME / n_t
    rng = np.random.default_rng(8)
    U = np.column_stack([rng.uniform(0.4 * T_MAX, T_MAX, n_t),
                         rng.uniform(-0.3, 0.3, n_t)])
    X = euler_trajectory(U, dt)
    spec = make_problem("spacecraft", n_t)
    c = spec.callbacks.constraints(pack_variables(X, U))
    defects = c[:6 * (n_t - 1)]
    assert np.max(np.abs(defects)) <= 1e-12
    assert_allclose(c[6 * (n_t - 1):6 * n_t], X[0] - X0_STATE, atol=0)
    assert_allclose(c[6 * n_t:], X[-1] - XF_STATE, atol=0)


def test_spacecraft_bounds_and_guess():
    spec = make_problem("spacecraft", 5)
    assert spec.n == 5 * 8 and spec.m == 6 * 4 + 12
    thrust_lo = spec.var_bounds.lower[5 * 6 + 0::2]
    assert_allclose(thrust_lo, 0.4 * T_MAX)
    gimbal_hi = spec.var_bounds.upper[5 * 6 + 1::2]
    assert_allclose(gimbal_hi, np.deg2rad(20.0))
    assert np.all(spec.x0 >= spec.var_bounds.lower - 1e-9)
    assert np.all(spec.x0 <= spec.var_bounds.upper + 1e-9)


def test_spacecraft_objective_weights():
    from optkit.bench.spacecraft import spacecraft
    spec = spacecraft(4, weights=(2.0, 0.0, 0.0))
    z = spec.x0.copy()
    X_cols = 4 * 6
    expect = 2.0 * np.sum(z[X_cols + 0::2] ** 2)
    assert spec.callbacks.objective(z) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def test_run_suite_single_pair_solved():
    table = run_suite(["quartic"], ["newton"])
    assert table.solved.tolist() == [[True]]
    assert np.isfinite(table.time[0, 0]) and np.isfinite(table.evals[0, 0])


def test_run_suite_contains_crashes():
    def broken(problem, **options):
        raise RuntimeError("boom")

    table = run_suite(["quartic", "bean"], [broken])
    assert not table.solved.any()
    assert np.all(np.isinf(table.time))


def test_run_suite_raises_on_an_undeclared_option():
    with pytest.raises(ok.OptionError, match="unknown option 'nonsense'"):
        run_suite(["quartic"], ["newton"], options={"newton": {"nonsense": 1}})


def test_run_suite_names_the_solver_that_refuses_an_option():
    box = {"sample_lower": [-2.0, -2.0], "sample_upper": [2.0, 2.0]}
    with pytest.raises(ok.OptionError, match="unknown option 'sample_lower' for newton"):
        run_suite(["rosenbrock2"], ["newton", "pso"], options={"newton": box, "pso": box})


def test_run_suite_newton_vs_steepest_descent_on_quartic():
    table = run_suite(["quartic"], ["newton", "steepest_descent"],
                      budget=(500, None))
    assert table.solved[0, 0]
    assert not table.solved[1, 0]


def test_run_suite_empty_selection_rejected():
    with pytest.raises(ValueError):
        run_suite([], ["newton"])


def test_run_suite_wall_budget_marks_unsolved():
    table = run_suite(["quartic"], ["newton"], budget=(500, 0.0))
    assert not table.solved[0, 0]
    assert np.isinf(table.time[0, 0])


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def manual_table(times, solved, dims=None):
    times = np.asarray(times, dtype=float)
    solved = np.asarray(solved, dtype=bool)
    times = np.where(solved, times, np.inf)
    ns, npb = times.shape
    return ProfileTable(solvers=[f"s{i}" for i in range(ns)],
                        problems=[f"p{j}" for j in range(npb)],
                        solved=solved, time=times, evals=times.copy(),
                        dims=dims or [2] * npb)


def test_performance_profile_single_solver():
    table = manual_table([[1.0, 2.0]], [[True, True]])
    prof = performance_profile(table)
    assert prof.value("s0", 1.0) == 1.0


def test_performance_profile_hand_example():
    table = manual_table([[1.0, 2.0], [2.0, 1.0]], [[True, True], [True, True]])
    prof = performance_profile(table)
    for s in ("s0", "s1"):
        assert prof.value(s, 1.0) == pytest.approx(0.5)
        assert prof.value(s, 2.0) == pytest.approx(1.0)
        assert prof.value(s, 1.5) == pytest.approx(0.5)


def test_performance_profile_unsolved_solver_is_zero():
    table = manual_table([[1.0], [1.0]], [[True], [False]])
    prof = performance_profile(table)
    assert prof.value("s1", 1e12) == 0.0
    assert prof.value("s0", 1.0) == 1.0


def test_data_profile_hand_example():
    # one problem with n=4: thresholds kappa*(n+1) = 10 and 20 evals
    table = manual_table([[10.0], [20.0]], [[True], [True]], dims=[4])
    prof = data_profile(table)
    assert prof.value("s0", 2.0) == 1.0
    assert prof.value("s1", 2.0) == 0.0
    assert prof.value("s1", 4.0) == 1.0


def test_data_profile_exact_budget():
    table = manual_table([[3.0, 5.0]], [[True, True]], dims=[2, 4])
    prof = data_profile(table)
    assert prof.value("s0", 1.0) == 1.0  # n+1 evaluations on each problem


def test_profiles_monotone_bounded_random():
    rng = np.random.default_rng(12)
    for _ in range(100):
        ns, npb = rng.integers(1, 4), rng.integers(1, 5)
        times = rng.uniform(0.1, 10.0, (ns, npb))
        solved = rng.uniform(size=(ns, npb)) < 0.7
        table = manual_table(times, solved, dims=list(rng.integers(1, 9, npb)))
        for prof in (performance_profile(table), data_profile(table)):
            for i, s in enumerate(table.solvers):
                taus, fracs = prof.breakpoints[s]
                assert np.all(np.diff(fracs) > -1e-15)
                assert np.all((fracs >= 0.0) & (fracs <= 1.0))
                tail = fracs[-1] if fracs.size else 0.0
                assert tail == pytest.approx(np.mean(table.solved[i]))


def test_profile_csv_export(tmp_path):
    table = manual_table([[1.0, 2.0], [2.0, 1.0]], [[True, True], [True, True]])
    path = performance_profile(table).write_csv(tmp_path / "prof.csv")
    lines = open(path).read().splitlines()
    assert lines[0] == "solver,breakpoint,fraction"
    assert len(lines) == 5  # two breakpoints per solver
