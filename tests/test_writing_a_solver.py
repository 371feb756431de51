"""A solver written against the public contract alone: ``RunContext`` and a kit piece.

The Barzilai-Borwein method below imports nothing but public ``optkit`` names,
as the "Writing a solver" section of the README shows it.  The tests check that
``RunContext`` alone gives it what a shipped solver has: convergence on
rosenbrock2, a record that replays with no live call, scaling invariance, and
a report in user units.
"""

from dataclasses import replace

import numpy as np

from optkit import RunContext, ScaledView, bench, line_search, read_record, write_record


def barzilai_borwein(problem, **options):
    """Gradient descent whose Armijo line search opens at the Barzilai-Borwein
    step s's / s'y (Barzilai & Borwein 1988)."""
    ctx = RunContext(problem, "barzilai_borwein", options, unconstrained=True)
    view, opts = ctx.view, ctx.options
    ctx.declare_outputs(itr=int, obj=float, opt=float, x=(float, (view.n,)))
    x = view.x0.copy()
    f, g = view.obj(x), view.grad(x)
    step, itr = 1.0, 0
    while True:
        opt = float(np.linalg.norm(g))
        ctx.emit(itr=itr, obj=f, opt=opt, x=x)
        if opt <= opts.opt_tol or itr >= opts.maxiter:
            break
        itr += 1
        res = line_search("armijo", lambda a: view.obj(x - a * g), f0=f,
                          slope0=-float(g @ g), alpha0=step)
        x_new = x - res.alpha * g
        g_new = view.grad(x_new)
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 0.0 else 1.0
        x, f, g = x_new, res.f_new, g_new
    return ctx.finish(x, f, opt, 0.0, itr, opt <= opts.opt_tol)


def test_barzilai_borwein_converges_on_rosenbrock2():
    report = barzilai_borwein(bench.make_problem("rosenbrock2"), maxiter=5000)
    assert report.converged
    assert report.solver == "barzilai_borwein"
    assert np.max(np.abs(report.x_star - 1.0)) <= 1e-5


def test_barzilai_borwein_record_replays_with_no_live_call(tmp_path):
    spec = bench.make_problem("rosenbrock2")
    first = ScaledView(spec, record=True)
    live = barzilai_borwein(first, maxiter=5000)
    assert first.record.header["solver"] == "barzilai_borwein"
    assert len(first.record.iter_events()) == live.niter + 1
    path = tmp_path / "bb.rec"
    write_record(first.record, path)

    again = barzilai_borwein(ScaledView(spec, hot_start=read_record(path)), maxiter=5000)
    assert not any(again.counters.as_dict().values())
    assert again.replayed == live.counters
    assert again.x_star.tobytes() == live.x_star.tobytes()
    assert again.niter == live.niter and again.converged


def test_barzilai_borwein_scaling_invariance_in_user_units():
    # the scalers of acceptance criterion C08; x* = (1, 1) is (10, 0.1) scaled
    base = bench.make_problem("rosenbrock2")
    rescaled = replace(base, x_scaler=np.array([10.0, 0.1]), f_scaler=5.0)
    r1 = barzilai_borwein(base, opt_tol=1e-8, maxiter=5000)
    r2 = barzilai_borwein(rescaled, opt_tol=1e-8, maxiter=5000)
    assert r1.converged and r2.converged
    assert np.max(np.abs(r1.x_star - r2.x_star)) <= 1e-6
    assert np.max(np.abs(r2.x_star - 1.0)) <= 1e-6
    assert abs(r2.f_star) <= 1e-12
