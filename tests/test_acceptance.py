"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines even on success.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import optkit as ok
from optkit import HessianApprox, ScaledView, read_record, write_record
from optkit.bench import (data_profile, make_problem, performance_profile,
                          uniform_compliance)
from optkit.bench.beam import BREADTH, LENGTH, VOLUME
from optkit.bench.spacecraft import (T_MAX, TOTAL_TIME, X0_STATE, XF_STATE,
                                     euler_trajectory, pack_variables)
from optkit.bench.profiles import ProfileTable


@contextmanager
def criterion(cid, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {cid} {label}: FAIL")
        raise
    print(f"[acceptance] {cid} {label}: PASS")


def test_c01_newton_quartic_contraction():
    with criterion("C01", "newton on quartic: (2/3)-contraction, 13 iterations"):
        view = ScaledView(make_problem("quartic"), record=True)
        report = ok.newton(view, use_line_search=False, opt_tol=1e-6)
        xs = np.array([e.values["x"] for e in view.record.iter_events()])
        for k in range(len(xs) - 1):
            err = np.max(np.abs(xs[k + 1] - (2.0 / 3.0) * xs[k]))
            assert err <= 1e-14 * np.max(np.abs(xs[k]))
        assert report.converged and report.optimality <= 1e-6
        assert abs(report.niter - 13) <= 1
        assert report.wall_time < 0.1


def test_c02_steepest_descent_stalls_on_quartic():
    with criterion("C02", "steepest descent quartic: no 1e-5 optimality in 500"):
        report = ok.steepest_descent(make_problem("quartic"), maxiter=500,
                                     opt_tol=1e-5)
        assert not report.converged
        assert report.optimality > 1e-5


def test_c03_quasi_newton_rosenbrock():
    with criterion("C03", "BFGS+Wolfe on Rosenbrock: (1,1) in <= 100 iterations"):
        report = ok.quasi_newton(make_problem("rosenbrock2"), maxiter=100)
        assert report.converged
        assert report.niter <= 100
        assert_allclose(report.x_star, [1.0, 1.0], atol=1e-4)
        assert report.wall_time < 0.5


def test_c04_bean_minimum_two_solvers():
    with criterion("C04", "bean: quasi-Newton and Nelder-Mead hit 0.09194"):
        qn = ok.quasi_newton(make_problem("bean"))
        nm = ok.nelder_mead(make_problem("bean"), maxiter=150)
        for report in (qn, nm):
            assert abs(report.f_star - 0.09194) <= 1e-3
            assert_allclose(report.x_star, [1.21314, 0.82414], atol=1e-2)
        assert nm.niter <= 150


def test_c05_coupled_rosenbrock_8_local_or_global():
    with criterion("C05", "coupled Rosenbrock n=8: global 0 or local 4"):
        report = ok.quasi_newton(make_problem("rosen_coupled", 8), maxiter=500)
        assert report.converged
        assert min(abs(report.f_star - 0.0), abs(report.f_star - 4.0)) <= 1e-4


def test_c06_constrained_quadratic_three_solvers():
    with criterion("C06", "constrained quadratic: sqp/quadratic/exact penalty + KKT"):
        opt_tol = 1e-6
        sqp_r = ok.sqp(make_problem("quadratic_example"), opt_tol=opt_tol)
        qp_r = ok.quadratic_penalty(make_problem("quadratic_example"), feas_tol=1e-5)
        ep_r = ok.exact_penalty(make_problem("quadratic_example"), rho=100.0,
                                maxiter=3000)
        for report, tol in ((sqp_r, 1e-3), (qp_r, 1e-3), (ep_r, 1e-2)):
            assert_allclose(report.x_star, [1.0, 0.0], atol=tol)
            assert abs(report.f_star - 1.0) <= 3.0 * tol

        # KKT certificate recomputed from the raw callbacks, not solver state
        spec = make_problem("quadratic_example")
        x, lam = sqp_r.x_star, sqp_r.multipliers
        g = spec.callbacks.gradient(x)
        J = spec.callbacks.jacobian(x)
        c = spec.callbacks.constraints(x)
        assert np.max(np.abs(g - J.T @ lam)) <= 10 * opt_tol
        slack = np.where(np.isfinite(spec.con_bounds.upper),
                         np.minimum(np.abs(c - spec.con_bounds.lower),
                                    np.abs(c - spec.con_bounds.upper)),
                         np.abs(c - spec.con_bounds.lower))
        assert np.max(np.abs(lam * slack)) <= 10 * opt_tol
        assert np.all(lam[spec.con_bounds.lower != spec.con_bounds.upper] >= -opt_tol)


def test_c07_hessian_update_property_suite():
    with criterion("C07", "Hessian updates: secant/symmetry/PD/guards < 1 s"):
        t0 = time.perf_counter()
        for variant in ("broyden", "sr1", "bfgs", "dfp"):
            for n in (2, 5, 20):
                rng = np.random.default_rng(hash((variant, n)) % 2 ** 32)
                for _ in range(100):
                    H = HessianApprox(n=n, variant=variant)
                    M = rng.normal(size=(n, n))
                    H.B = M @ M.T + n * np.eye(n)
                    d = rng.normal(size=n)
                    w = rng.normal(size=n)
                    if variant in ("bfgs", "dfp") and w @ d <= 0.0:
                        w = w - 2.0 * (w @ d) * d / (d @ d)
                    if H.update(d, w):
                        continue
                    resid = np.linalg.norm(H.B @ d - w)
                    assert resid <= 1e-9 * (np.linalg.norm(H.B) * np.linalg.norm(d)
                                            + np.linalg.norm(w))
                    if variant != "broyden":
                        assert np.max(np.abs(H.B - H.B.T)) <= 1e-12 * np.max(np.abs(H.B))
                    if variant == "bfgs":
                        assert np.min(np.linalg.eigvalsh(H.B)) > 0.0

        # constructed degenerate pairs trigger the guards
        sr1 = HessianApprox(n=3, variant="sr1")
        d = np.array([1.0, 2.0, -1.0])
        assert sr1.update(d, sr1.B @ d)
        bfgs = HessianApprox(n=3, variant="bfgs")
        assert bfgs.update(d, -d)
        assert time.perf_counter() - t0 < 1.0


def test_c08_scaling_invariance():
    with criterion("C08", "scaling invariance: scalers (1,1,1) vs (10,0.1,5)"):
        base = make_problem("quadratic_example")
        rescaled = replace(base, x_scaler=np.array([10.0, 0.1]), f_scaler=5.0)
        r1 = ok.sqp(base, opt_tol=1e-8, feas_tol=1e-10)
        r2 = ok.sqp(rescaled, opt_tol=1e-8, feas_tol=1e-10)
        assert r1.converged and r2.converged
        assert np.max(np.abs(r1.x_star - r2.x_star)) <= 1e-6


def test_c09_hot_start_equivalence(tmp_path):
    with criterion("C09", "hot start: continuation bit-matches one long run"):
        spec = make_problem("rosenbrock2")
        run_a = ScaledView(spec, record=True)
        ok.quasi_newton(run_a, maxiter=10)
        path = tmp_path / "a.rec"
        write_record(run_a.record, path)

        run_b = ScaledView(spec, hot_start=read_record(path), record=True)
        ok.quasi_newton(run_b, maxiter=50)
        run_c = ScaledView(spec, record=True)
        ok.quasi_newton(run_c, maxiter=50)

        xs_b = [e.values["x"] for e in run_b.record.iter_events()]
        xs_c = [e.values["x"] for e in run_c.record.iter_events()]
        assert len(xs_b) == len(xs_c) and len(xs_b) >= 12
        for xb, xc in zip(xs_b[11:], xs_c[11:]):
            assert np.array_equal(xb, xc)  # bit-for-bit
        for xb, xc in zip(xs_b, xs_c):
            assert np.array_equal(xb, xc)
        assert run_b.replayed == run_a.counters


def test_c10_record_roundtrip_and_corruption(tmp_path):
    with criterion("C10", "record round-trip bit-exact; corruption localized"):
        view = ScaledView(make_problem("rosenbrock2"), record=True)
        ok.quasi_newton(view, maxiter=8)
        path = tmp_path / "r.rec"
        write_record(view.record, path)
        back = read_record(path)
        assert back == view.record
        for ev_a, ev_b in zip(view.record.eval_events(), back.eval_events()):
            assert np.array_equal(ev_a.x, ev_b.x)  # irrational iterates, bit-exact

        lines = path.read_text().splitlines()
        bad = tmp_path / "bad.rec"
        bad.write_text("\n".join(lines[:4]) + "\n" + lines[4][:-7] + "\n")
        with pytest.raises(ok.RecordError, match="bad.rec:5"):
            read_record(bad)


def test_c11_registry_derivative_checks():
    with criterion("C11", "derivative checks across the analytic registry"):
        cases = [("quartic", None), ("rosenbrock2", None), ("bean", None),
                 ("quadratic_example", None), ("rosen_uncoupled", 8),
                 ("rosen_coupled", 8), ("cantilever", 20), ("spacecraft", 10)]
        for name, size in cases:
            report = ok.check_first_derivatives(make_problem(name, size))
            assert report.max_rel_error < 1e-4, f"{name}: {report.max_rel_error}"


def test_c12_cantilever_solution_properties():
    with criterion("C12", "cantilever n_el=20: volume, monotone taper, compliance"):
        t0 = time.perf_counter()
        report = ok.sqp(make_problem("cantilever", 20), maxiter=300,
                        opt_tol=1e-7, feas_tol=1e-8)
        elapsed = time.perf_counter() - t0
        assert report.converged
        h = report.x_star
        assert abs(BREADTH * LENGTH / 20 * np.sum(h) - VOLUME) <= 1e-6
        assert np.all(np.diff(h) <= 1e-8)  # thickness non-increasing to the tip
        assert report.f_star < uniform_compliance(20)
        assert elapsed < 30.0


def test_c13_spacecraft_model_level():
    with criterion("C13", "spacecraft n_t=10: defects vanish, boundary rows exact"):
        n_t = 10
        dt = TOTAL_TIME / n_t
        rng = np.random.default_rng(17)
        U = np.column_stack([rng.uniform(0.4 * T_MAX, T_MAX, n_t),
                             rng.uniform(-0.3, 0.3, n_t)])
        X = euler_trajectory(U, dt)
        spec = make_problem("spacecraft", n_t)
        c = spec.callbacks.constraints(pack_variables(X, U))
        assert np.max(np.abs(c[:6 * (n_t - 1)])) <= 1e-12
        assert np.array_equal(c[6 * (n_t - 1):6 * n_t], X[0] - X0_STATE)
        assert np.array_equal(c[6 * n_t:], X[-1] - XF_STATE)


def test_c14_profile_oracles():
    with criterion("C14", "profiles: hand tables exact, random tables sane"):
        def table(times, solved, dims):
            times = np.where(np.asarray(solved, dtype=bool),
                             np.asarray(times, dtype=float), np.inf)
            ns, npb = times.shape
            return ProfileTable(solvers=[f"s{i}" for i in range(ns)],
                                problems=[f"p{j}" for j in range(npb)],
                                solved=np.asarray(solved, dtype=bool),
                                time=times, evals=times.copy(), dims=dims)

        perf = performance_profile(table([[1.0, 2.0], [2.0, 1.0]],
                                         [[True, True], [True, True]], [2, 2]))
        for s in ("s0", "s1"):
            taus, fracs = perf.breakpoints[s]
            assert_allclose(taus, [1.0, 2.0])
            assert_allclose(fracs, [0.5, 1.0])

        data = data_profile(table([[10.0], [20.0]], [[True], [True]], [4]))
        assert_allclose(data.breakpoints["s0"], ([2.0], [1.0]))
        assert_allclose(data.breakpoints["s1"], ([4.0], [1.0]))

        rng = np.random.default_rng(23)
        for _ in range(100):
            ns, npb = rng.integers(1, 4), rng.integers(1, 5)
            t = table(rng.uniform(0.1, 5.0, (ns, npb)),
                      rng.uniform(size=(ns, npb)) < 0.6,
                      list(rng.integers(1, 9, npb)))
            for prof in (performance_profile(t), data_profile(t)):
                for i, s in enumerate(t.solvers):
                    _, fracs = prof.breakpoints[s]
                    assert np.all(np.diff(fracs) > -1e-15)
                    assert np.all((fracs >= 0.0) & (fracs <= 1.0))
                    tail = fracs[-1] if fracs.size else 0.0
                    assert tail == pytest.approx(np.mean(t.solved[i]))


def test_c15_stochastic_determinism():
    with criterion("C15", "seeded PSO/SA bit-reproducible; PSO hits 1e-4"):
        def sphere_box():
            return ok.build_problem("sphere_box", [3.0, -2.0],
                                    obj=lambda x: float(x @ x), xl=-5.0, xu=5.0)

        runs = []
        for _ in range(2):
            view = ScaledView(sphere_box(), record=True)
            report = ok.pso(view, seed=42, maxiter=300)
            runs.append((report, view.record.body_lines()))
        assert runs[0][1] == runs[1][1]  # bit-identical iterate sequences
        assert np.array_equal(runs[0][0].x_star, runs[1][0].x_star)
        assert runs[0][0].f_star <= 1e-4
        assert runs[0][0].niter <= 300

        sa_runs = []
        for _ in range(2):
            view = ScaledView(sphere_box(), record=True)
            report = ok.simulated_annealing(view, seed=7, T0=10.0, k_max=2000)
            sa_runs.append((report, view.record.body_lines()))
        assert sa_runs[0][1] == sa_runs[1][1]
        assert np.array_equal(sa_runs[0][0].x_star, sa_runs[1][0].x_star)
