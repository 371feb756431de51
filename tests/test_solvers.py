import sys
import time
import zlib
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import optkit as ok
from optkit import Bounds, RunContext, ScaledView, build_problem
from optkit.kit import HessianApprox
from optkit.solvers import SOLVERS, OptionError, SolverError, direct
from optkit.bench import (REGISTRY, bean, parse_problem_token, quadratic_example, quartic,
                          rosenbrock2)
from optkit.bench.spacecraft import GIMBAL_MAX, T_MAX


def sphere(x0, **kwargs):
    return build_problem("sphere", x0, obj=lambda x: float(x @ x),
                         grad=lambda x: 2.0 * x,
                         obj_hess=lambda x: 2.0 * np.eye(len(x0)), **kwargs)


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------

def test_unknown_option_rejected():
    with pytest.raises(OptionError, match="nonsense"):
        ok.quasi_newton(quartic(), nonsense=3)


def test_option_type_checked():
    with pytest.raises(OptionError):
        ok.quasi_newton(quartic(), maxiter="many")


def test_int_promotes_to_float_option():
    report = ok.quasi_newton(quartic(), opt_tol=1)  # int accepted for float
    assert report.optimality <= 1.0


def test_a_user_solver_option_range_is_enforced_before_any_call():
    # the third slot of a declaration entry, (test, text), checked by RunContext
    def damped(problem, **options):
        declared = {"damping": (float, 0.5, (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"))}
        return RunContext(problem, "damped", options, declared).options.damping

    assert damped(quartic()) == 0.5
    assert damped(quartic(), damping=0.25) == 0.25
    view = ScaledView(quartic())
    with pytest.raises(SolverError, match=r"^damping must lie in \(0, 1\), got 1.5$"):
        damped(view, damping=1.5)
    assert view.counters == ok.EvalCounters()


# ---------------------------------------------------------------------------
# steepest descent
# ---------------------------------------------------------------------------

def test_sd_exact_fixed_step_on_quadratic():
    # f = 0.5||x||^2: x - 1*grad = 0 in one fixed step
    spec = build_problem("half", [3.0, 4.0], obj=lambda x: 0.5 * float(x @ x),
                         grad=lambda x: x.copy())
    report = ok.steepest_descent(spec, use_line_search=False, alpha=1.0)
    assert report.converged and report.niter == 1
    assert_allclose(report.x_star, [0.0, 0.0], atol=1e-15)


def test_sd_stalls_on_quartic():
    report = ok.steepest_descent(quartic(), maxiter=500, opt_tol=1e-5)
    assert not report.converged
    assert report.optimality > 1e-5
    assert report.niter == 500


def test_sd_stationary_start_returns_immediately():
    spec = sphere([0.0, 0.0])
    report = ok.steepest_descent(spec)
    assert report.converged and report.niter == 0


@pytest.mark.parametrize("solver", [ok.steepest_descent, ok.quasi_newton],
                         ids=["steepest_descent", "quasi_newton"])
def test_descent_stops_at_a_step_that_leaves_x_unchanged(solver):
    # |g| = 1e-5 is far above opt_tol but below the spacing of floats at
    # 1e12, so the accepted step rounds back to x0; every later step would too
    spec = build_problem("flat", [1e12], obj=lambda x: float(x @ x),
                         grad=lambda x: 1e-17 * x)
    report = solver(spec)
    assert not report.converged and report.niter == 0
    assert report.x_star[0] == 1e12 and report.optimality == 1e-5
    assert report.counters.n_grad <= 2


def test_sd_rejects_constrained_problem():
    with pytest.raises(SolverError):
        ok.steepest_descent(quadratic_example())


# ---------------------------------------------------------------------------
# Newton
# ---------------------------------------------------------------------------

def test_newton_contracts_quartic_iterates():
    view = ScaledView(quartic(), record=True)
    report = ok.newton(view, use_line_search=False)
    xs = np.array([e.values["x"] for e in view.record.iter_events()])
    for k in range(len(xs) - 1):
        assert np.max(np.abs(xs[k + 1] - (2.0 / 3.0) * xs[k])) <= 1e-14 * np.max(np.abs(xs[k]))
    assert report.converged and abs(report.niter - 13) <= 1


def test_newton_line_search_variant_identical_iterates():
    runs = []
    for use_ls in (False, True):
        view = ScaledView(quartic(), record=True)
        ok.newton(view, use_line_search=use_ls)
        runs.append(np.array([e.values["x"] for e in view.record.iter_events()]))
    assert runs[0].shape == runs[1].shape
    assert np.array_equal(runs[0], runs[1])


def test_newton_one_iteration_on_spd_quadratic():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(4, 4))
    A = M @ M.T + 4.0 * np.eye(4)
    b = rng.normal(size=4)
    spec = build_problem("spd", rng.normal(size=4),
                         obj=lambda x: 0.5 * float(x @ A @ x) - float(b @ x),
                         grad=lambda x: A @ x - b,
                         obj_hess=lambda x: A)
    report = ok.newton(spec)
    assert report.converged and report.niter == 1


def test_newton_regularizes_indefinite_hessian():
    # concave start: H = -2 I forces the doubling shift
    spec = build_problem("cave", [1.0],
                         obj=lambda x: float(-x[0] ** 2 + 0.25 * x[0] ** 4),
                         grad=lambda x: -2.0 * x + x ** 3,
                         obj_hess=lambda x: np.array([[-2.0 + 3.0 * x[0] ** 2]]))
    report = ok.newton(spec, maxiter=100)
    assert report.converged
    assert abs(abs(report.x_star[0]) - np.sqrt(2.0)) < 1e-5


# ---------------------------------------------------------------------------
# quasi-Newton
# ---------------------------------------------------------------------------

def test_qn_identity_start_on_quadratic():
    report = ok.quasi_newton(sphere([1.0, 1.0]))
    assert report.converged and report.niter <= 2


def test_qn_rosenbrock_converges():
    report = ok.quasi_newton(rosenbrock2(), maxiter=100)
    assert report.converged
    assert_allclose(report.x_star, [1.0, 1.0], atol=1e-4)


def test_qn_bean_matches_reference_minimum():
    report = ok.quasi_newton(bean())
    assert report.converged
    assert abs(report.f_star - 0.09194) <= 1e-4
    assert_allclose(report.x_star, [1.21314, 0.82414], atol=1e-3)


@pytest.mark.parametrize("variant", ["bfgs", "dfp", "sr1", "broyden"])
def test_qn_variants_solve_sphere(variant):
    report = ok.quasi_newton(sphere([2.0, -1.5, 0.5]), variant=variant)
    assert report.converged


def _jittered(spec, rng):
    # a 1e-3 relative perturbation of the default start
    scale = 1e-3 * np.maximum(1.0, np.abs(spec.x0))
    return replace(spec, x0=spec.x0 + scale * rng.uniform(-1.0, 1.0, spec.n))


def test_bfgs_scaled_start_on_jittered_uncoupled_rosenbrock():
    # H0 = (w'd / w'w) I takes the curvature scale from the first step; from
    # H0 = I, BFGS learns it one rank-2 update at a time (271 iterations here)
    spec = _jittered(parse_problem_token("rosen_uncoupled:64"), np.random.default_rng(0))
    report = ok.quasi_newton(spec, maxiter=5000)
    assert report.converged and report.niter <= 60


@pytest.mark.parametrize("seed", [14, 16, 423])
def test_fd_quasi_newton_does_not_stall_near_the_minimum(seed):
    # the benchmark's FD cell: forward differences err by about h |f''| / 2,
    # close to opt_tol here, and with them alone these starts stall at
    # maxiter (14 and 423 from H0 = I, 16 from the scaled H0); central
    # differences near the minimum converge
    rng = np.random.default_rng([seed, zlib.crc32(b"quasi_newton:rosen_coupled:32/no-grad")])
    spec = _jittered(parse_problem_token("rosen_coupled:32"), rng)
    spec = replace(spec, callbacks=replace(spec.callbacks, gradient=None))
    report = ok.quasi_newton(spec, opt_tol=1e-4, maxiter=5000)
    assert report.converged


def _assert_replays_with_no_live_call(solver, spec, view, live, tmp_path, **options):
    """A run recorded in ``view`` replays from its written record with no live call."""
    path = tmp_path / "run.rec"
    ok.write_record(view.record, path)
    again = ScaledView(spec, hot_start=ok.read_record(path))
    replayed = SOLVERS[solver](again, **options)
    assert not any(again.counters.as_dict().values())
    assert again.replayed == view.counters
    assert replayed.x_star.tobytes() == live.x_star.tobytes()
    assert replayed.f_star == live.f_star and replayed.niter == live.niter


def test_sr1_resets_at_a_non_descent_direction(monkeypatch, tmp_path):
    # SR1 updates need not keep H positive definite; on rosenbrock2 its
    # direction -H g points uphill 7 times, and each time H restarts from I
    resets = []
    reset = HessianApprox.reset
    monkeypatch.setattr(HessianApprox, "reset", lambda self: resets.append(1) or reset(self))
    spec = rosenbrock2()
    view = ScaledView(spec, record=True)
    live = ok.quasi_newton(view, variant="sr1")
    assert live.converged and live.niter == 42
    assert len(resets) == 7
    _assert_replays_with_no_live_call("quasi_newton", spec, view, live, tmp_path, variant="sr1")


@pytest.mark.parametrize("variant", ["bfgs", "dfp", "sr1"])
def test_quasi_newton_takes_one_product_with_h_per_iteration(monkeypatch, variant):
    # H g at the new iterate gives both the direction and the update's
    # H w = H g + p_old; only bfgs's first update, applied to gamma I, takes
    # a second product.  Two products per iteration would count 2 niter.
    products = []
    dot = HessianApprox.dot
    monkeypatch.setattr(HessianApprox, "dot", lambda self, x: products.append(1) or dot(self, x))
    report = ok.quasi_newton(parse_problem_token("rosen_coupled:16"), variant=variant, maxiter=400)
    assert report.niter > 50
    assert len(products) <= report.niter + 2


def test_recorded_fd_quasi_newton_with_central_switch_replays_with_no_live_call(tmp_path):
    spec = parse_problem_token("rosen_coupled:8")
    spec = replace(spec, callbacks=replace(spec.callbacks, gradient=None))
    view = ScaledView(spec, record=True)
    live = ok.quasi_newton(view)
    assert live.converged
    assert view._central_grad           # the run switched to central differences
    _assert_replays_with_no_live_call("quasi_newton", spec, view, live, tmp_path)


def test_qn_monotone_objective_with_line_search():
    view = ScaledView(rosenbrock2(), record=True)
    ok.quasi_newton(view, maxiter=60)
    objs = [e.values["obj"] for e in view.record.iter_events()]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


@pytest.mark.parametrize("n", [2, 5, 10])
def test_bfgs_finite_termination_on_quadratic(n):
    # exact line search turns BFGS into a conjugate-direction method:
    # n+2 iterations suffice on an SPD quadratic
    rng = np.random.default_rng(n)
    M = rng.normal(size=(n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.normal(size=n)
    x = rng.normal(size=n)
    H = HessianApprox(n=n, variant="bfgs")
    g = A @ x - b
    for k in range(n + 2):
        if np.linalg.norm(g) <= 1e-8:
            break
        p = np.linalg.solve(H.B, -g)
        alpha = -(g @ p) / (p @ A @ p)
        x_new = x + alpha * p
        g_new = A @ x_new - b
        H.update(x_new - x, g_new - g)
        x, g = x_new, g_new
    assert np.linalg.norm(g) <= 1e-8


def test_quasi_newton_directions_use_no_dense_solve(monkeypatch):
    # the solver layers may not solve or factorize; the cantilever's own
    # finite-element model (optkit.bench) still solves its stiffness system
    def forbid(fn):
        def guarded(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith("optkit.bench"):
                raise AssertionError(f"{fn.__name__} called from {caller}")
            return fn(*args, **kwargs)
        return guarded

    for name in ("solve", "inv", "cholesky", "lstsq"):
        monkeypatch.setattr(np.linalg, name, forbid(getattr(np.linalg, name)))
    assert ok.quasi_newton(parse_problem_token("rosen_coupled:64"), maxiter=5000).converged
    assert ok.quadratic_penalty(parse_problem_token("cantilever:8")).converged


def test_counters_snapshot_matches_view():
    view = ScaledView(rosenbrock2())
    report = ok.quasi_newton(view, maxiter=40)
    assert report.counters == view.counters
    report2 = ok.quasi_newton(ScaledView(rosenbrock2()), maxiter=1)
    assert report2.counters.n_obj >= 1


def test_every_solver_reports_view_counters():
    box = build_problem("box", [1.0, 1.0], obj=lambda x: float(x @ x),
                        grad=lambda x: 2.0 * x,
                        obj_hess=lambda x: 2.0 * np.eye(2), xl=-5.0, xu=5.0)
    runs = {
        "steepest_descent": (box, {"maxiter": 20}),
        "newton": (box, {}),
        "quasi_newton": (box, {}),
        "nelder_mead": (box, {"maxiter": 50}),
        "pso": (box, {"seed": 1, "maxiter": 30}),
        "simulated_annealing": (box, {"seed": 1, "k_max": 50}),
        "newton_lagrange": (eq_quadratic(), {}),
        "quadratic_penalty": (scalar_eq_problem(), {}),
        "exact_penalty": (scalar_eq_problem(), {"maxiter": 100}),
        "sqp": (quadratic_example(), {}),
    }
    assert set(runs) == set(SOLVERS)
    for name, (spec, opts) in runs.items():
        view = ScaledView(spec)
        report = SOLVERS[name](view, **opts)
        assert report.counters == view.counters, name


def shifted_sphere(n=4, **bounds):
    """(x - 2)'(x - 2), minimized at (2, ..., 2)."""
    return build_problem("shifted_sphere", np.zeros(n), obj=lambda x: float((x - 2.0) @ (x - 2.0)),
                         grad=lambda x: 2.0 * (x - 2.0), **bounds)


@pytest.mark.parametrize("solver", ["steepest_descent", "quasi_newton", "nelder_mead"])
def test_descent_stops_on_active_upper_bound(solver):
    xu = np.full(4, np.inf)
    xu[0] = 1.0
    report = SOLVERS[solver](shifted_sphere(xu=xu), maxiter=5000)
    assert report.converged
    assert 1.0 - 1e-9 <= report.x_star[0] <= 1.0   # clipped trial points never pass the bound
    assert_allclose(report.x_star[1:], 2.0, atol=1e-5)
    assert report.f_star == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("solver", ["steepest_descent", "quasi_newton", "nelder_mead"])
def test_far_finite_bounds_change_nothing(solver):
    free = SOLVERS[solver](shifted_sphere(), maxiter=5000)
    far = SOLVERS[solver](shifted_sphere(xl=-1e300, xu=1e300), maxiter=5000)
    assert far.x_star.tobytes() == free.x_star.tobytes()
    assert far.f_star.hex() == free.f_star.hex()
    assert (far.niter, far.counters) == (free.niter, free.counters)


def test_sd_monotone_objective_with_line_search():
    view = ScaledView(bean(), record=True)
    ok.steepest_descent(view, maxiter=60)
    objs = [e.values["obj"] for e in view.record.iter_events()]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


# ---------------------------------------------------------------------------
# Newton-Lagrange
# ---------------------------------------------------------------------------

def eq_quadratic(x0=(0.0, 0.0)):
    return build_problem("eqq", list(x0), obj=lambda x: 0.5 * float(x @ x),
                         grad=lambda x: x.copy(),
                         con=lambda x: np.array([x[0] + x[1]]),
                         jac=lambda x: np.array([[1.0, 1.0]]),
                         lag_hess=lambda x, lam: np.eye(2),
                         cl=[1.0], cu=[1.0])


def test_newton_lagrange_single_kkt_solve():
    report = ok.newton_lagrange(eq_quadratic())
    assert report.converged and report.niter == 1
    assert_allclose(report.x_star, [0.5, 0.5], atol=1e-12)
    assert_allclose(report.multipliers, [0.5], atol=1e-12)


def test_newton_lagrange_paper_quadratic_equality_only():
    spec = build_problem("quad_eq", [500.0, 5.0], obj=lambda x: float(x @ x),
                         grad=lambda x: 2.0 * x,
                         con=lambda x: np.array([x[0] + x[1]]),
                         jac=lambda x: np.array([[1.0, 1.0]]),
                         lag_hess=lambda x, lam: 2.0 * np.eye(2),
                         cl=[1.0], cu=[1.0])
    report = ok.newton_lagrange(spec)
    assert report.converged
    assert_allclose(report.x_star, [0.5, 0.5], atol=1e-9)


def test_newton_lagrange_feasible_stationary_start():
    spec = build_problem("stat", [0.5, 0.5], obj=lambda x: 0.5 * float(x @ x),
                         grad=lambda x: x.copy(),
                         con=lambda x: np.array([x[0] + x[1]]),
                         jac=lambda x: np.array([[1.0, 1.0]]),
                         lag_hess=lambda x, lam: np.eye(2),
                         cl=[1.0], cu=[1.0])
    # start at the optimum with lam0=0? grad_L = x != 0 with lam=0, so use
    # an unconstrained stationary feasible point instead: f constant
    flat = build_problem("flat", [0.5, 0.5], obj=lambda x: 1.0,
                         grad=lambda x: np.zeros(2),
                         con=lambda x: np.array([x[0] + x[1]]),
                         jac=lambda x: np.array([[1.0, 1.0]]),
                         lag_hess=lambda x, lam: np.zeros((2, 2)),
                         cl=[1.0], cu=[1.0])
    report = ok.newton_lagrange(flat)
    assert report.converged and report.niter == 0
    report2 = ok.newton_lagrange(spec)
    assert report2.converged


def test_newton_lagrange_rejects_inequalities():
    with pytest.raises(SolverError):
        ok.newton_lagrange(quadratic_example())


def test_newton_lagrange_line_search_variant():
    report = ok.newton_lagrange(eq_quadratic((3.0, -5.0)), use_line_search=True)
    assert report.converged
    assert_allclose(report.x_star, [0.5, 0.5], atol=1e-8)


def _assert_no_repeated_request(record):
    for kind, bits in _eval_xs(record).items():
        assert len(bits) == len(set(bits)), kind


def _without_bounds(token):
    # newton_lagrange refuses a problem with variable bounds; it never read
    # them, so on the registry problem without them it takes the same steps
    spec = parse_problem_token(token)
    return replace(spec, var_bounds=Bounds.unbounded(spec.n))


def _solve_recorded(solver, spec, **options):
    """(report or the EvaluationError raised, view) of a recorded solve of ``spec``."""
    view = ScaledView(spec, record=True)
    # spacecraft:3 diverges: its iterates overflow before the NaN objective stops it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return SOLVERS[solver](view, **options), view
        except ok.EvaluationError as exc:
            return exc, view


@pytest.mark.parametrize("solver,token", [("newton", "rosen_coupled:8"),
                                          ("newton_lagrange", "cantilever:20"),
                                          ("newton_lagrange", "spacecraft:3")])
def test_fd_hessian_base_reuses_the_gradient_at_x(monkeypatch, solver, token):
    # none of these problems has a Hessian callback; the FD Hessian's base
    # gradient (and Jacobian) at x is the one the solver just asked for
    spec = _without_bounds(token) if solver == "newton_lagrange" else parse_problem_token(token)
    got, view = _solve_recorded(solver, spec)
    _assert_no_repeated_request(view.record)
    # asking the callbacks again at the base gives the same bits: only the
    # counts differ.  With the memo lookup patched away every request is fresh
    monkeypatch.setattr(ScaledView, "_raw", lambda self, kind, x: self._evaluate(kind, x))
    fresh, fresh_view = _solve_recorded(solver, spec)
    assert fresh_view.counters.n_grad > view.counters.n_grad
    assert view.counters.n_obj == fresh_view.counters.n_obj
    if isinstance(fresh, ok.EvaluationError):
        assert isinstance(got, ok.EvaluationError) and got.kind == fresh.kind
        return
    assert got.x_star.tobytes() == fresh.x_star.tobytes()
    assert got.f_star == fresh.f_star and got.niter == fresh.niter


def test_newton_lagrange_line_search_asks_each_point_once():
    # the line search keeps each trial's KKT state and asks obj only at the
    # accepted point; on cantilever:20 it takes every full step, so x* has
    # the bits of the run without it
    spec = _without_bounds("cantilever:20")
    report, view = _solve_recorded("newton_lagrange", spec, use_line_search=True)
    assert report.converged
    assert report.counters.n_obj == report.niter + 1
    _assert_no_repeated_request(view.record)
    plain = ok.newton_lagrange(spec)
    assert report.x_star.tobytes() == plain.x_star.tobytes()
    assert report.niter == plain.niter


# ---------------------------------------------------------------------------
# penalty methods
# ---------------------------------------------------------------------------

def scalar_eq_problem():
    # min x^2 s.t. x = 1: penalized minimizer is rho/(2+rho)
    return build_problem("pen1", [0.0], obj=lambda x: float(x[0] ** 2),
                         grad=lambda x: 2.0 * x,
                         con=lambda x: x.copy(),
                         jac=lambda x: np.array([[1.0]]),
                         cl=[1.0], cu=[1.0])


@pytest.mark.parametrize("rho,expect", [(1.0, 1.0 / 3.0), (10.0, 10.0 / 12.0),
                                        (100.0, 100.0 / 102.0)])
def test_quadratic_penalty_matches_closed_form(rho, expect):
    report = ok.quadratic_penalty(scalar_eq_problem(), rho0=rho, maxiter=1,
                                  subsolver_tol_schedule=[1e-10])
    assert report.x_star[0] == pytest.approx(expect, abs=1e-6)


def test_quadratic_penalty_converges_to_constraint():
    report = ok.quadratic_penalty(scalar_eq_problem(), feas_tol=1e-6)
    assert report.converged
    assert report.x_star[0] == pytest.approx(1.0, abs=1e-5)


def test_quadratic_penalty_unconstrained_degenerates_to_single_solve():
    report = ok.quadratic_penalty(rosenbrock2())
    assert report.converged and report.niter == 1
    assert_allclose(report.x_star, [1.0, 1.0], atol=1e-4)


def test_quadratic_penalty_paper_quadratic():
    report = ok.quadratic_penalty(quadratic_example(), feas_tol=1e-5)
    assert report.converged
    assert_allclose(report.x_star, [1.0, 0.0], atol=1e-3)
    assert abs(report.f_star - 1.0) <= 3e-3


def _eval_xs(record):
    # kind -> the bits of the x of each of its evaluation events, in order
    xs = {}
    for event in record.eval_events():
        xs.setdefault(event.kind, []).append(event.x.tobytes())
    return xs


def test_quadratic_penalty_asks_for_each_kind_and_point_once():
    view = ScaledView(parse_problem_token("cantilever:20"), record=True)
    assert ok.quadratic_penalty(view).converged
    xs = _eval_xs(view.record)
    assert sorted(xs) == ["con", "grad", "jac", "obj"]
    for kind, bits in xs.items():
        assert len(bits) == len(set(bits)), kind


@pytest.mark.parametrize("token", ["cantilever:6", "quadratic_example", "bean"])
def test_quadratic_penalty_never_repeats_the_previous_request(token):
    # a point a later subsolve visits again is asked for again (on
    # cantilever:6 a trial clipped to the lower bounds), but never twice in a row
    view = ScaledView(parse_problem_token(token), record=True)
    ok.quadratic_penalty(view)
    for kind, bits in _eval_xs(view.record).items():
        assert all(a != b for a, b in zip(bits, bits[1:])), kind


def test_quadratic_penalty_unscaled_spacecraft_fails_quickly():
    # the subsolves stall at steps that leave x as it was; each ends there
    # instead of repeating the step up to sub_maxiter, so the rho cap is
    # reached in well under a second rather than in several
    start = time.perf_counter()
    with pytest.raises(SolverError, match="penalty parameter exceeded"):
        ok.quadratic_penalty(parse_problem_token("spacecraft:3"))
    assert time.perf_counter() - start < 2.0


def test_quadratic_penalty_keeps_one_inverse_across_penalty_increases(monkeypatch):
    # one H^-1 for the whole run, corrected by Sherman-Morrison for each rho
    # increase; a fresh H = I per subsolve took 564 evaluations here
    made = []
    init = HessianApprox.__init__
    monkeypatch.setattr(HessianApprox, "__init__",
                        lambda self, *a, **k: made.append(1) or init(self, *a, **k))
    report = ok.quadratic_penalty(quadratic_example())
    x_star, f_star = REGISTRY["quadratic_example"].known_solution
    assert report.converged and report.niter > 1 and len(made) == 1
    assert_allclose(report.x_star, x_star, atol=1e-3)
    assert abs(report.f_star - f_star) <= 3e-3
    assert sum(report.counters.as_dict().values()) <= 100


def test_quadratic_penalty_cantilever_within_300_evaluations():
    # 426 evaluations with a fresh H = I per subsolve, to the same f*
    report = ok.quadratic_penalty(parse_problem_token("cantilever:20"))
    assert report.converged
    assert report.f_star == pytest.approx(23927.14084103, rel=1e-8)
    assert sum(report.counters.as_dict().values()) <= 300


def test_recorded_quadratic_penalty_replays_with_no_live_call(tmp_path):
    spec = quadratic_example()
    view = ScaledView(spec, record=True)
    live = ok.quadratic_penalty(view)
    assert live.converged
    _assert_replays_with_no_live_call("quadratic_penalty", spec, view, live, tmp_path)


def test_exact_penalty_kink_minimum():
    spec = build_problem("kink", [3.0], obj=lambda x: float(x[0] ** 2),
                         con=lambda x: x.copy(), jac=lambda x: np.array([[1.0]]),
                         cl=[1.0], m=1)
    report = ok.exact_penalty(spec, rho=100.0)
    assert report.x_star[0] == pytest.approx(1.0, abs=1e-4)


def test_exact_penalty_zero_rho_is_unconstrained():
    spec = build_problem("free", [2.0, 2.0], obj=lambda x: float(x @ x),
                         con=lambda x: x.copy(), jac=lambda x: np.eye(2),
                         cl=[1.0, 1.0], cu=[1.0, 1.0])
    report = ok.exact_penalty(spec, rho=0.0, maxiter=400)
    assert_allclose(report.x_star, [0.0, 0.0], atol=1e-4)


def test_exact_penalty_paper_quadratic():
    report = ok.exact_penalty(quadratic_example(), rho=100.0, maxiter=3000)
    assert_allclose(report.x_star, [1.0, 0.0], atol=1e-2)
    assert abs(report.f_star - 1.0) <= 3e-2


def test_exact_penalty_linf_variant():
    report = ok.exact_penalty(quadratic_example(), kind="linf", rho=200.0, maxiter=3000)
    assert_allclose(report.x_star, [1.0, 0.0], atol=1e-2)


# ---------------------------------------------------------------------------
# SQP
# ---------------------------------------------------------------------------

def test_sqp_paper_quadratic_active_set_and_kkt():
    report = ok.sqp(quadratic_example())
    assert report.converged
    assert_allclose(report.x_star, [1.0, 0.0], atol=1e-6)
    assert report.f_star == pytest.approx(1.0, abs=1e-6)
    # both constraints active with multipliers (1, 1) from the analytic KKT
    assert_allclose(report.multipliers, [1.0, 1.0], atol=1e-6)


def test_sqp_quadratic_subproblem_is_exact():
    spec = build_problem("qe", [0.0, 0.0], obj=lambda x: 0.5 * float(x @ x),
                         grad=lambda x: x.copy(),
                         con=lambda x: np.array([x[0] + x[1]]),
                         jac=lambda x: np.array([[1.0, 1.0]]),
                         cl=[1.0], cu=[1.0])
    report = ok.sqp(spec)
    assert report.converged and report.niter <= 2
    assert_allclose(report.x_star, [0.5, 0.5], atol=1e-9)


def test_sqp_unconstrained_behaves_like_quasi_newton():
    report = ok.sqp(bean())
    assert report.converged
    assert abs(report.f_star - 0.09194) <= 1e-4


def test_sqp_kkt_certificate_recomputed_from_callbacks():
    opt_tol = 1e-6
    report = ok.sqp(quadratic_example(), opt_tol=opt_tol)
    spec = quadratic_example()
    x, lam = report.x_star, report.multipliers
    g = spec.callbacks.gradient(x)
    J = spec.callbacks.jacobian(x)
    c = spec.callbacks.constraints(x)
    assert np.max(np.abs(g - J.T @ lam)) <= 10 * opt_tol
    slack = np.minimum(np.abs(c - spec.con_bounds.lower),
                       np.abs(c - spec.con_bounds.upper))
    slack[~np.isfinite(slack)] = np.abs(c - spec.con_bounds.lower)[~np.isfinite(slack)]
    assert np.max(np.abs(lam * slack)) <= 10 * opt_tol
    assert np.all(lam[spec.con_bounds.lower != spec.con_bounds.upper] >= -opt_tol)


def test_sqp_multipliers_on_upper_range_and_bound_rows():
    # f = 0.5 |x - a|^2 with c0 = x0 + x1 <= 1 (no lower side), the range
    # 0.5 <= c1 = x1 - x2 <= 3 active on its lower side, and x2 <= 0.2 active;
    # x* = (0.3, 0.7, 0.2) is the vertex of the three active rows and
    # g = J' lam + mu gives lam = (-1, 0.5), mu = (0, 0, -1)
    a = np.array([1.3, 1.2, 1.7])
    J = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]])
    spec = build_problem("rows", [0.0, 0.0, 0.0],
                         obj=lambda x: 0.5 * float((x - a) @ (x - a)),
                         grad=lambda x: x - a,
                         con=lambda x: J @ x, jac=lambda x: J.copy(),
                         cl=[-np.inf, 0.5], cu=[1.0, 3.0],
                         xl=[-5.0, -5.0, -5.0], xu=[5.0, 5.0, 0.2])
    opt_tol = 1e-6
    report = ok.sqp(spec, opt_tol=opt_tol)
    assert report.converged
    assert_allclose(report.x_star, [0.3, 0.7, 0.2], atol=1e-8)
    lam = report.multipliers
    assert lam[0] < 0.0 < lam[1]
    assert_allclose(lam, [-1.0, 0.5], atol=1e-6)
    # certificate from the callbacks: the free variables are stationary and
    # the bound multiplier g - J' lam on x2 has the sign of an upper bound
    x = report.x_star
    r = spec.callbacks.gradient(x) - spec.callbacks.jacobian(x).T @ lam
    assert np.max(np.abs(r[:2])) <= 10 * opt_tol
    assert r[2] == pytest.approx(-1.0, abs=1e-6)
    c = spec.callbacks.constraints(x)
    assert_allclose(c, [1.0, 0.5], atol=1e-8)


def test_sqp_does_no_cubic_work_per_qp(monkeypatch):
    # no solve or factorization in the solver layers sees a square matrix of
    # dimension n or more; the cantilever's finite-element model
    # (optkit.bench) still solves its own stiffness system
    spec = parse_problem_token("cantilever:60")
    n = spec.n
    big = []

    def watch(fn):
        def watched(a, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            shape = np.shape(a)
            if (caller.startswith(("optkit.kit", "optkit.solvers")) and len(shape) == 2
                    and shape[0] == shape[1] >= n):
                big.append((fn.__name__, caller, shape))
            return fn(a, *args, **kwargs)
        return watched

    for name in ("solve", "inv", "cholesky", "lstsq"):
        monkeypatch.setattr(np.linalg, name, watch(getattr(np.linalg, name)))

    report = ok.sqp(spec)
    assert report.converged and report.niter > 10
    assert big == []


def test_sqp_folds_once_per_eight_updates(monkeypatch):
    # the QP reads H^-1 through HessianApprox.dot, so sqp folds the pending
    # columns only when eight BFGS updates have filled them, never per QP
    counts = {"fold": 0, "update": 0}
    fold, update = HessianApprox._fold, HessianApprox.update

    def counted_fold(self):
        counts["fold"] += 1
        return fold(self)

    def counted_update(self, d, w):
        skipped = update(self, d, w)
        counts["update"] += not skipped
        return skipped

    monkeypatch.setattr(HessianApprox, "_fold", counted_fold)
    monkeypatch.setattr(HessianApprox, "update", counted_update)
    report = ok.sqp(parse_problem_token("cantilever:60"))
    assert report.converged and counts["update"] > 16
    assert counts["fold"] <= -(-counts["update"] // 8) + 1


@pytest.mark.parametrize("n_el, max_iters", [(200, 25), (800, 30)])
def test_sqp_cantilever_iterations_do_not_grow_with_n(n_el, max_iters):
    # H^-1 starts from max(1, d'd / w'd) I at the first update; from I it
    # took 53 and 91 iterations here
    report = ok.sqp(parse_problem_token(f"cantilever:{n_el}"))
    assert report.converged and report.niter <= max_iters


def _scaled_spacecraft(n_t):
    # the state scalers, tiled over the states and over the n_t + 1 defect
    # and boundary blocks; 1/T_MAX and 1/GIMBAL_MAX on the controls
    state = 1.0 / np.array([100.0, 10.0, 100.0, 10.0, 1.0, 1.0])
    spec = parse_problem_token(f"spacecraft:{n_t}")
    return replace(spec, x_scaler=np.concatenate([np.tile(state, n_t),
                                                  np.tile([1.0 / T_MAX, 1.0 / GIMBAL_MAX], n_t)]),
                   c_scaler=np.tile(state, n_t + 1), f_scaler=1.0 / T_MAX ** 2)


@pytest.mark.parametrize("n_t, max_iters, f_ref", [(12, 45, 4.3812981953e13),
                                                   (20, 50, 6.2910117233e13)])
def test_sqp_scaled_spacecraft(n_t, max_iters, f_ref):
    # from H^-1 = I these took 218 and 187 iterations
    spec = _scaled_spacecraft(n_t)
    report = ok.sqp(spec)
    assert report.converged and report.niter <= max_iters
    assert np.max(np.abs(spec.callbacks.constraints(report.x_star))) <= 1e-6
    assert abs(report.f_star - f_ref) <= 1e-6 * f_ref


def test_sqp_never_starts_hessian_below_identity(monkeypatch):
    # sqp's first update is applied to gamma I with gamma >= 1 only; a smaller
    # gamma stalls scaled spacecraft
    scales = []
    set_identity = HessianApprox.set_identity

    def recorded(self, scale=1.0):
        scales.append(scale)
        return set_identity(self, scale)

    monkeypatch.setattr(HessianApprox, "set_identity", recorded)
    for spec in (parse_problem_token("cantilever:200"), rosenbrock2(), quadratic_example()):
        assert ok.sqp(spec).converged
    assert min(scales) >= 1.0 and max(scales) > 1.0


def _record_qp_calls(monkeypatch):
    # wrap kit.qp_solve, as sqp calls it, and keep each call's arguments and result
    calls = []
    solve = ok.kit.qp_solve

    def recorded(*args, **kwargs):
        out = solve(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(ok.kit, "qp_solve", recorded)
    return calls


def test_sqp_passes_variable_bounds_as_index_rows(monkeypatch):
    # the cantilever's only general constraint is its volume equality, so
    # the QP's one row is that (1, 60) Jacobian, and every variable bound is
    # passed as lower/upper: none may be a dense row
    calls = _record_qp_calls(monkeypatch)
    report = ok.sqp(parse_problem_token("cantilever:60"))
    assert report.converged and calls
    for args, kwargs, _ in calls:
        A = args[2]
        assert A.shape == (1, 60)
        assert kwargs["lower"].size == 60 and kwargs["upper"].size == 60


def test_sqp_two_sided_bound_active_at_upper(monkeypatch):
    # f = 0.5 |x - a|^2 with x0 + x1 = 1, -1 <= x1 <= 0.2 and x2 >= -1;
    # the unbounded minimizer has x1 = 1.5, so x* = (0.8, 0.2, 0.5) with
    # lam = 0.8 and the bound multiplier g - J' lam = -2.6 on x1 (upper side)
    a = np.array([0.0, 2.0, 0.5])
    J = np.array([[1.0, 1.0, 0.0]])
    spec = build_problem("two_sided", [0.0, 0.0, 0.0],
                         obj=lambda x: 0.5 * float((x - a) @ (x - a)),
                         grad=lambda x: x - a,
                         con=lambda x: J @ x, jac=lambda x: J.copy(),
                         cl=[1.0], cu=[1.0],
                         xl=[-np.inf, -1.0, -1.0], xu=[np.inf, 0.2, np.inf])
    calls = _record_qp_calls(monkeypatch)
    opt_tol = 1e-6
    report = ok.sqp(spec, opt_tol=opt_tol)
    assert report.converged
    assert_allclose(report.x_star, [0.8, 0.2, 0.5], atol=1e-8)
    assert_allclose(report.multipliers, [0.8], atol=1e-6)
    # in the last QP only the upper bound on x1 is active, so the signed
    # bound multiplier is negative on x1 and zero on x0 and x2
    mu = calls[-1][2][2]
    assert mu.size == 3 and mu[0] == mu[2] == 0.0
    assert mu[1] == pytest.approx(-2.6, abs=1e-6)
    # certificate from the callbacks
    x = report.x_star
    r = spec.callbacks.gradient(x) - spec.callbacks.jacobian(x).T @ report.multipliers
    assert np.max(np.abs(r[[0, 2]])) <= 10 * opt_tol
    assert r[1] == pytest.approx(-2.6, abs=1e-6)
    assert_allclose(spec.callbacks.constraints(x), [1.0], atol=1e-8)


def test_sqp_multipliers_in_user_units():
    # the cantilever is scaled (x by 10, f by 2.5e-5, c by 100): the report's
    # multipliers are the last recorded iteration's lam, in user units
    view = ScaledView(parse_problem_token("cantilever:6"), record=True)
    report = ok.sqp(view)
    spec = view.spec
    assert report.converged and spec.f_scaler != 1.0 and np.all(spec.c_scaler != 1.0)
    lam = view.record.iter_events()[-1].values["lam"]
    assert report.multipliers.tobytes() == lam.tobytes()
    # the KKT certificate from the raw callbacks: off the bounds g - J' lam
    # vanishes to opt_tol in scaled units, (f_scaler / x_scaler) (g - J' lam)
    x = report.x_star
    r = spec.callbacks.gradient(x) - spec.callbacks.jacobian(x).T @ report.multipliers
    free = (x > spec.var_bounds.lower * (1.0 + 1e-8)) & (x < spec.var_bounds.upper * (1.0 - 1e-8))
    assert free.any()
    assert np.max(np.abs(r * spec.f_scaler / spec.x_scaler)[free]) <= 10 * 1e-6


def test_sqp_bound_that_overflows_the_step_bound(monkeypatch):
    # x1 = 1e308 sits at its finite upper bound, but its finite lower bound
    # -1e308 gives the step bound xl - x = -inf, so the QP drops that side
    # and still returns one signed bound multiplier per variable
    spec = build_problem("overflow", [0.0, 1e308],
                         obj=lambda x: float((x[0] - 1.0) ** 2),
                         grad=lambda x: np.array([2.0 * (x[0] - 1.0), 0.0]),
                         xl=[-np.inf, -1e308], xu=[np.inf, 1e308])
    calls = _record_qp_calls(monkeypatch)
    with np.errstate(over="ignore"):
        report = ok.sqp(spec)
    assert report.converged
    assert_allclose(report.x_star, [1.0, 1e308], atol=1e-8)
    assert calls and all(out[2].size == 2 for _, _, out in calls)


@pytest.mark.parametrize("n_t", [10, 20])
def test_sqp_unscaled_spacecraft_is_infeasible_quickly(n_t):
    # n_t = 10 looks infeasible (local least squares on the defects bottoms
    # out near 0.27 from several starts) and n_t = 20 is badly scaled;
    # unscaled sqp must say that a linearization is infeasible within 2 s
    start = time.perf_counter()
    with pytest.raises(SolverError, match="linearized constraints are infeasible"):
        ok.sqp(parse_problem_token(f"spacecraft:{n_t}"))
    assert time.perf_counter() - start < 2.0


def test_newton_lagrange_refuses_variable_bounds():
    # cantilever:20 bounds every height below by 1e-4; the bound-blind
    # iteration once reported converged with a height of -62.3
    view = ScaledView(parse_problem_token("cantilever:20"), record=True)
    with pytest.raises(SolverError, match="variable bounds"):
        ok.newton_lagrange(view)
    assert not any(view.counters.as_dict().values())
    assert view.record.eval_events() == []


@pytest.mark.parametrize("solver", ["sqp", "newton_lagrange"])
def test_constrained_maxiter_exit(solver):
    token = "cantilever:20"
    spec = _without_bounds(token) if solver == "newton_lagrange" else parse_problem_token(token)
    view = ScaledView(spec, record=True)
    report = SOLVERS[solver](view, maxiter=2)
    assert not report.converged and report.niter == 2
    assert len(view.record.iter_events()) == 3


def test_sqp_restoration_asks_con_once_at_its_accepted_point():
    # every QP of unscaled spacecraft:10 is infeasible, so each iteration is
    # a restoration step; its accepted point reuses the line search's con
    view = ScaledView(parse_problem_token("spacecraft:10"), record=True)
    with pytest.raises(SolverError, match="linearized constraints are infeasible"):
        ok.sqp(view)
    _assert_no_repeated_request(view.record)
    assert view.counters.n_con == view.counters.n_obj


# ---------------------------------------------------------------------------
# Nelder-Mead
# ---------------------------------------------------------------------------

def test_nelder_mead_sphere():
    spec = build_problem("s2", [1.0, 1.0], obj=lambda x: float(x @ x))
    report = ok.nelder_mead(spec, maxiter=200)
    assert report.f_star <= 1e-8


def test_nelder_mead_bean_iteration_budget():
    report = ok.nelder_mead(bean(), maxiter=150)
    assert abs(report.f_star - 0.09194) <= 1e-3


def test_nelder_mead_shrinks_on_a_plateau(tmp_path):
    # reflections and contractions land on the start's plateau without
    # improving the worst vertex, so the simplex shrinks toward the best one:
    # without shrinks 17 iterations could ask for at most 3 + 2 * 17 points
    spec = build_problem("plateau", [1.3, 0.7],
                         obj=lambda x: float(np.floor(4 * abs(x[0])) + np.floor(4 * abs(x[1]))))
    view = ScaledView(spec, record=True)
    live = ok.nelder_mead(view)
    assert live.converged and live.niter == 17
    assert live.counters.n_obj == 69 > 3 + 2 * live.niter
    _assert_replays_with_no_live_call("nelder_mead", spec, view, live, tmp_path)


def test_nelder_mead_one_dimensional():
    spec = build_problem("line", [2.0], obj=lambda x: float(x[0] ** 2))
    report = ok.nelder_mead(spec, maxiter=300)
    assert report.converged
    assert abs(report.x_star[0]) <= 1e-4


# ---------------------------------------------------------------------------
# stochastic solvers
# ---------------------------------------------------------------------------

def box_sphere():
    return build_problem("box", [3.0, -2.0], obj=lambda x: float(x @ x),
                         xl=-5.0, xu=5.0)


def test_pso_constant_velocity_degenerate_coefficients():
    # w=1, c_p=c_g=0: velocities never change, best follows a linear path
    spec = box_sphere()
    view = ScaledView(spec, record=True)
    ok.pso(view, seed=9, n_particles=1, w=1.0, c_p=0.0, c_g=0.0, maxiter=60)
    rng = np.random.default_rng(9)
    width = np.full(2, 10.0)
    p0 = -5.0 + rng.uniform(0.0, 1.0, (1, 2)) * width
    v0 = rng.uniform(-1.0, 1.0, (1, 2)) * width
    f = lambda x: float(x @ x)
    best = f(p0[0])
    pos = p0[0].copy()
    expect = [best]
    for _ in range(60):
        pos = np.clip(pos + v0[0], -5.0, 5.0)  # constant velocity
        best = min(best, f(pos))
        expect.append(best)
    got = [e.values["obj"] for e in view.record.iter_events()]
    # the run may stop early on best-value stagnation; prefix must match exactly
    assert len(got) >= 51
    assert got == expect[:len(got)]


def test_pso_fixed_point_at_optimum():
    spec = build_problem("pt", [1.5, -0.5], obj=lambda x: float((x - [1.5, -0.5]) @ (x - [1.5, -0.5])),
                         xl=[1.5, -0.5], xu=[1.5, -0.5])
    report = ok.pso(spec, seed=0, n_particles=1, maxiter=25)
    assert_allclose(report.x_star, [1.5, -0.5])
    assert report.f_star == 0.0


def test_pso_seeded_quality_and_determinism():
    r1 = ok.pso(box_sphere(), seed=42, maxiter=300)
    r2 = ok.pso(box_sphere(), seed=42, maxiter=300)
    assert r1.f_star <= 1e-4
    assert r1.niter <= 300
    assert np.array_equal(r1.x_star, r2.x_star) and r1.f_star == r2.f_star


def test_pso_requires_finite_box():
    spec = build_problem("free", [0.0, 0.0], obj=lambda x: float(x @ x))
    with pytest.raises(SolverError, match="sampling box"):
        ok.pso(spec, seed=1)
    with pytest.raises(ok.ProblemError, match="lower bound exceeds upper bound"):
        ok.pso(spec, seed=1, sample_lower=[1.0, 1.0], sample_upper=[-1.0, -1.0])
    report = ok.pso(spec, seed=1, sample_lower=[-1.0, -1.0], sample_upper=[1.0, 1.0],
                    maxiter=50)
    assert report.f_star < 1.0


def test_pso_particles_clipped_to_one_corner_call_the_objective_once(tmp_path):
    # consecutive particles clipped to the same corner of the box ask at the
    # bits of the previous request, which the view answers without a call:
    # fewer calls than the 20 (niter + 1) requests (3016 of 3020 at seed 1)
    options = {"seed": 1, "sample_lower": [-2.0, -2.0], "sample_upper": [2.0, 2.0]}
    spec = bean()
    view = ScaledView(spec, record=True)
    report = ok.pso(view, **options)
    assert report.counters.n_obj < 20 * (report.niter + 1)
    _assert_replays_with_no_live_call("pso", spec, view, report, tmp_path, **options)


@pytest.mark.parametrize("n_particles", [0, -1])
def test_pso_rejects_an_empty_swarm(n_particles):
    with pytest.raises(SolverError, match="n_particles must be at least 1"):
        ok.pso(box_sphere(), seed=1, n_particles=n_particles)


@pytest.mark.parametrize("solver, options, message", [
    (ok.nelder_mead, {"init_scale": 0.0}, "init_scale must be nonzero and finite"),
    (ok.nelder_mead, {"init_scale": float("inf")}, "init_scale must be nonzero and finite"),
    (ok.nelder_mead, {"init_scale": float("nan")}, "init_scale must be nonzero and finite"),
    (ok.exact_penalty, {"init_scale": 0.0}, "init_scale must be nonzero and finite"),
    (ok.simulated_annealing, {"k_max": -1}, "k_max must be at least 0"),
    (ok.simulated_annealing, {"step_scale": 0.0}, "step_scale must be nonzero and finite"),
    (ok.simulated_annealing, {"step_scale": float("inf")}, "step_scale must be nonzero and finite"),
    (ok.simulated_annealing, {"step_scale": float("nan")}, "step_scale must be nonzero and finite"),
    (ok.simulated_annealing, {"T0": float("nan")}, "T0 must not be NaN"),
    (ok.exact_penalty, {"rho": -1.0}, "rho must be finite and nonnegative"),
    (ok.exact_penalty, {"rho": float("nan")}, "rho must be finite and nonnegative"),
    (ok.exact_penalty, {"kind": "quadratic_penalty"}, "kind must be 'l1' or 'linf'"),
    (ok.quadratic_penalty, {"rho0": -1.0}, "rho0 must be finite and positive"),
    (ok.quadratic_penalty, {"rho0": float("inf")}, "rho0 must be finite and positive"),
    (ok.quadratic_penalty, {"rho0": 0.0}, "rho0 must be finite and positive"),
    (ok.quadratic_penalty, {"rho_growth": float("nan")}, "rho_growth must be finite and greater than 1"),
    (ok.quadratic_penalty, {"rho_growth": -1.0}, "rho_growth must be finite and greater than 1"),
    (ok.quadratic_penalty, {"rho_growth": 1.0}, "rho_growth must be finite and greater than 1"),
    (ok.quadratic_penalty, {"rho_growth": 0.5}, "rho_growth must be finite and greater than 1"),
    (ok.quasi_newton, {"variant": "bfgs2"}, "variant must be one of"),
], ids=["nm-zero", "nm-inf", "nm-nan", "exact-zero", "sa-negative", "sa-step-zero",
        "sa-step-inf", "sa-step-nan", "sa-T0-nan", "exact-rho-negative", "exact-rho-nan",
        "exact-kind", "qp-rho0-negative", "qp-rho0-inf", "qp-rho0-zero", "qp-growth-nan",
        "qp-growth-negative", "qp-growth-one", "qp-growth-half", "qn-variant"])
def test_options_that_would_fake_a_result_are_rejected(solver, options, message):
    # a one-point simplex has zero spread, a negative schedule no proposal,
    # and a zero step proposes x itself: each would report a run that never
    # searched; a NaN temperature turns every acceptance test into a NaN
    # comparison, a NaN or negative rho every penalty, and a zero rho0 or a
    # growth of at most 1 a rho that never grows.  Each is refused
    # by RunContext before the first callback.
    view = ScaledView(box_sphere())
    with pytest.raises(SolverError, match=message):
        solver(view, **options)
    assert view.counters == ok.EvalCounters()


def test_sa_always_accepts_equal_objective():
    # constant objective: acceptance probability exp(0) = 1, so every
    # proposal is accepted without an acceptance draw and the next one steps
    # from it: each evaluated x is the previous one plus 0.2 u, clipped
    spec = build_problem("const", [0.0, 0.0], obj=lambda x: 1.0, xl=-1.0, xu=1.0)
    view = ScaledView(spec, record=True)
    ok.simulated_annealing(view, seed=3, k_max=40)
    xs = [e.x for e in view.record.eval_events()]
    rng = np.random.default_rng(3)
    assert len(xs) == 41
    for k in range(40):
        step = np.clip(xs[k] + 0.2 * rng.uniform(-1.0, 1.0, 2), -1.0, 1.0)
        assert step.tobytes() == xs[k + 1].tobytes()


def test_sa_records_the_best_point_at_each_iteration():
    # the last recorded iteration is the report's x* and f*, not the
    # current point of the walk (which ends elsewhere on this seed)
    view = ScaledView(rosenbrock2(), record=True)
    report = ok.simulated_annealing(view, seed=3, k_max=2000,
                                    sample_lower=[-2.0, -2.0], sample_upper=[2.0, 2.0])
    last = view.record.iter_events()[-1].values
    assert last["x"].tobytes() == report.x_star.tobytes()
    assert last["obj"] == report.f_star


def test_sa_cold_limit_rejects_uphill():
    # start at the optimum with a frozen schedule: no uphill proposal accepted
    spec = build_problem("cold", [0.0, 0.0], obj=lambda x: float(x @ x), xl=-1.0, xu=1.0)
    view = ScaledView(spec, record=True)
    report = ok.simulated_annealing(view, seed=5, T0=1e-9, k_max=200)
    xs = np.array([e.values["x"] for e in view.record.iter_events()])
    assert report.f_star == 0.0
    assert all(np.array_equal(x, xs[0]) for x in xs)


@pytest.mark.parametrize("k_max", [0, 10, 49])
def test_sa_shorter_than_one_window_is_not_converged(k_max):
    # no 50-step stagnation window closes, so nothing shows the search settled
    report = ok.simulated_annealing(rosenbrock2(), seed=1, k_max=k_max,
                                    sample_lower=[-2.0, -2.0], sample_upper=[2.0, 2.0])
    assert not report.converged
    assert report.optimality == np.inf
    assert report.niter == k_max


def test_sa_converges_after_a_flat_window():
    # constant objective: the first closed window improves by exactly 0
    spec = build_problem("const", [0.0, 0.0], obj=lambda x: 1.0, xl=-1.0, xu=1.0)
    report = ok.simulated_annealing(spec, seed=3, k_max=50)
    assert report.converged and report.optimality == 0.0


def test_sa_seeded_quality_and_determinism():
    r1 = ok.simulated_annealing(box_sphere(), seed=7, T0=10.0, k_max=5000)
    r2 = ok.simulated_annealing(box_sphere(), seed=7, T0=10.0, k_max=5000)
    assert r1.f_star <= 1e-2
    assert np.array_equal(r1.x_star, r2.x_star)


def _annealing_per_call(problem, *, seed, k_max):
    """simulated_annealing (default T0 and step_scale) as written with one
    generator call per draw: the reference that the block-drawn stream must
    reproduce bit for bit.  Also returns the number of doubles it drew."""
    ctx = RunContext(problem, "simulated_annealing", unconstrained=True)
    view = ctx.view
    ctx.declare_outputs(itr=int, obj=float, T=float, x=(float, (view.n,)))
    box = view.var_bounds
    T0, step = 10.0, 0.1 * (box.upper - box.lower)
    rng = np.random.default_rng(seed)
    x = box.clip(view.x0)
    f = view.obj(x)
    best_x, best_f = x.copy(), f
    ctx.emit(itr=0, obj=best_f, T=T0, x=best_x)
    draws = 0
    for k in range(k_max):
        T = max(T0 * (1.0 - k / k_max), 1e-12)
        x_new = box.clip(x + step * rng.uniform(-1.0, 1.0, view.n))
        draws += view.n
        f_new = view.obj(x_new)
        if f_new <= f or rng.random() < np.exp(-(f_new - f) / T):
            x, f = x_new, f_new
            if f < best_f:
                best_x, best_f = x.copy(), f
        draws += f_new > f
        ctx.emit(itr=k + 1, obj=best_f, T=T, x=best_x)
    return best_x, best_f, draws


@pytest.mark.parametrize("n, k_max, block", [(2, 1500, None), (7, 500, None),
                                             (2, 300, 5), (7, 100, 5)],
                         ids=["n2", "n7", "n2-block5", "n7-block5"])
def test_sa_block_draws_match_per_call_draws(monkeypatch, n, k_max, block):
    # every case reads at least three blocks and makes many acceptance
    # draws; a block of 5 doubles also refills before an acceptance draw
    # and, at n = 7, is widened to n
    if block is not None:
        monkeypatch.setattr(direct, "_DRAW_BLOCK", block)
    block = max(direct._DRAW_BLOCK, n)
    x0 = np.linspace(-3.0, 4.0, n)
    spec = build_problem("wavy", x0, obj=lambda x: float(x @ x + 3.0 * np.sum(np.cos(2.0 * x))),
                         xl=-5.0, xu=5.0)
    views = [ScaledView(spec, record=True) for _ in range(2)]
    report = ok.simulated_annealing(views[0], seed=29, k_max=k_max)
    best_x, best_f, draws = _annealing_per_call(views[1], seed=29, k_max=k_max)
    assert draws > 3 * block and draws - n * k_max > k_max // 4
    body, reference = views[0].record.body_lines(), views[1].record.body_lines()
    assert len(body) == len(reference) == 2 * k_max + 2
    assert body == reference
    assert report.x_star.tobytes() == best_x.tobytes() and report.f_star == best_f


def test_stochastic_bit_identical_records():
    for solver, opts in (("pso", {"seed": 11, "maxiter": 80}),
                         ("simulated_annealing", {"seed": 11, "k_max": 200})):
        bodies = []
        for _ in range(2):
            view = ScaledView(box_sphere(), record=True)
            SOLVERS[solver](view, **opts)
            bodies.append(view.record.body_lines())
        assert bodies[0] == bodies[1]
