"""Constrained solvers: Newton-Lagrange, penalty methods, and SQP."""

import numpy as np

from .. import kit
from ..problem import Bounds
from .base import _FINITE_NONNEGATIVE, _NONZERO_FINITE, RunContext, SolverError
from .direct import _nelder_mead_loop
from .gradient import _descent_loop, _quasi_newton_rule, _ScaledStart

RHO_CAP = 1e12


def newton_lagrange(problem, **options):
    """Newton iteration on the KKT conditions of an equality-constrained problem.

    Solves grad L = 0 for (x, lam) where L = f - lam @ (c - target), taking
    full steps by default; ``use_line_search=True`` applies Armijo on
    ||grad L||^2.  Requires every constraint to be an equality
    (lower == upper) and no variable to have a finite bound: the iteration
    never reads the bounds, so it would report a point outside them as
    converged.
    """
    ctx = RunContext(problem, "newton_lagrange", options, {"use_line_search": (bool, False)})
    view, opts = ctx.view, ctx.options
    target = view.con_bounds.lower
    if not np.all(target == view.con_bounds.upper):
        raise SolverError("newton_lagrange requires equality constraints only (lower == upper)")
    xb = view.var_bounds
    if np.isfinite(xb.lower).any() or np.isfinite(xb.upper).any():
        raise SolverError("newton_lagrange handles no variable bounds (a finite lower or upper "
                          "bound on x); use sqp instead")
    ctx.declare_outputs(itr=int, obj=float, opt=float, feas=float,
                        x=(float, (view.n,)), lam=(float, (view.m,)))

    n, m = view.n, view.m
    x = view.x0.copy()
    lam = np.zeros(m)

    def kkt_state(x, lam):
        g = view.grad(x)
        J = view.jac(x)
        return g - J.T @ lam, J, view.con(x) - target

    f = view.obj(x)
    grad_l, J, resid = kkt_state(x, lam)
    itr = 0
    while True:
        opt = float(np.linalg.norm(grad_l))
        feas = float(np.max(np.abs(resid), initial=0.0))
        ctx.emit(itr=itr, obj=f, opt=opt, feas=feas, x=x, lam=lam)
        if opt <= opts.opt_tol and feas <= opts.feas_tol:
            converged = True
            break
        if itr >= opts.maxiter:
            converged = False
            break
        itr += 1

        H = view.lag_hess(x, lam)
        K = np.zeros((n + m, n + m))
        K[:n, :n] = H
        K[:n, n:] = -J.T
        K[n:, :n] = -J
        rhs = -np.concatenate([grad_l, -resid])
        try:
            delta = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            raise SolverError("singular KKT matrix: constraint jacobian may be "
                              "rank-deficient at the iterate") from None
        dx, dlam = delta[:n], delta[n:]

        alpha = 1.0
        if opts.use_line_search:
            psi0 = float(grad_l @ grad_l + resid @ resid)

            def psi(a):
                gl, _, rs = kkt_state(x + a * dx, lam + a * dlam)
                return float(gl @ gl + rs @ rs)

            alpha = kit.line_search("armijo", psi, f0=psi0, slope0=-2.0 * psi0).alpha
        x = x + alpha * dx
        lam = lam + alpha * dlam
        f = view.obj(x)
        grad_l, J, resid = kkt_state(x, lam)

    return ctx.finish(x, f, opt, feas, itr, converged, multipliers=lam)


def quadratic_penalty(problem, **options):
    """Sequential quadratic-penalty minimization with an increasing rho schedule.

    Each outer iteration minimizes f + (rho/2)*||violation||^2 with the
    quasi-Newton core, warm-started at the previous solution;
    rho grows geometrically until both feasibility and the subproblem
    optimality meet their tolerances.  One BFGS inverse H, started from I,
    serves every subsolve.  Growing rho by a factor gamma adds
    (gamma - 1) rho J_a'J_a to the penalty Hessian, J_a the rows active at
    the subsolve's final x (every equality and each violated inequality),
    so H takes that rank-m_a term by Sherman-Morrison (``add_outer``), one
    product with H per active row, from the J already evaluated there.
    A fresh H = I per subsolve took 564 evaluations on quadratic_example
    and 426 on cantilever:20, where this takes 68 and 242.
    """
    ctx = RunContext(problem, "quadratic_penalty", options,
                     {"rho0": (float, 1.0, (lambda v: 0.0 < v < np.inf, "be finite and positive")),
                      "rho_growth": (float, 10.0, (lambda v: 1.0 < v < np.inf,
                                                   "be finite and greater than 1")),
                      "subsolver_tol_schedule": (list, [1e-2, 1e-3, 1e-4]),
                      "sub_maxiter": (int, 300)})
    view, opts = ctx.view, ctx.options
    ctx.declare_outputs(itr=int, obj=float, opt=float, feas=float, rho=float,
                        x=(float, (view.n,)))
    m, cons, bounds = view.m, view.con_bounds, view.var_bounds

    def make_penalized(rho):
        def pobj(x):
            return kit.merit_value("quadratic_penalty", rho, view.obj(x), view.con(x), cons)

        def pgrad(x):
            r = cons.signed_violation(view.con(x))
            return view.grad(x) + rho * (view.jac(x).T @ r)

        return pobj, pgrad

    equality = cons.lower == cons.upper
    approx = kit.HessianApprox(n=view.n, inverse=True)

    x = bounds.clip(view.x0)
    rho = opts.rho0
    schedule = list(opts.subsolver_tol_schedule)
    converged = False
    outer = 0
    feas = view.feasibility(x)
    sub_opt = np.inf

    while outer < opts.maxiter:
        if m == 0 and outer == 1:
            break  # unconstrained: the penalty loop degenerates to one subsolve
        if m == 0:
            tol = opts.opt_tol
        else:
            tol = max(float(schedule[outer]) if outer < len(schedule) else opts.opt_tol,
                      opts.opt_tol)
        try:
            pobj, pgrad = make_penalized(rho)
            direction, on_step = _quasi_newton_rule(approx)
            state = _descent_loop(pobj, pgrad, x, bounds, direction,
                                  ls_kind="wolfe", maxiter=opts.sub_maxiter, opt_tol=tol,
                                  on_step=on_step)
        except Exception as exc:
            raise SolverError(f"penalty subsolver failed at outer iteration {outer} "
                              f"(rho={rho:g}): {exc}") from exc
        outer += 1
        x = state["x"]
        sub_opt = state["opt"]
        feas = view.feasibility(x)
        f = view.obj(x)
        ctx.emit(itr=outer, obj=f, opt=sub_opt, feas=feas, rho=rho, x=x)
        if feas <= opts.feas_tol and sub_opt <= opts.opt_tol:
            converged = True
            break
        # rho's increase adds (growth - 1) rho J_a'J_a to the penalty Hessian,
        # J_a the equality rows and the inequality rows violated at x
        J = view.jac(x)
        sigma = (opts.rho_growth - 1.0) * rho
        for j in np.flatnonzero(equality | (cons.signed_violation(view.con(x)) != 0.0)):
            approx.add_outer(J[j], sigma)
        rho *= opts.rho_growth
        if rho > RHO_CAP:
            raise SolverError(f"penalty parameter exceeded {RHO_CAP:g} at outer "
                              f"iteration {outer} (feasibility {feas:.3e})")

    f = view.obj(x)
    return ctx.finish(x, f, sub_opt, feas, outer, converged)


def exact_penalty(problem, **options):
    """Single-shot nonsmooth penalty minimization via Nelder-Mead.

    Minimizes f + rho*||violation||_1 (or the max-violation form with
    kind='linf') at a fixed rho; for rho larger than the multiplier norm the
    minimizer coincides with the constrained solution.
    """
    ctx = RunContext(problem, "exact_penalty", options,
                     {"kind": (str, "l1", (lambda v: v in ("l1", "linf"), "be 'l1' or 'linf'")),
                      "rho": (float, 100.0, _FINITE_NONNEGATIVE),
                      "init_scale": (float, 0.05, _NONZERO_FINITE)})
    view, opts = ctx.view, ctx.options
    ctx.declare_outputs(itr=int, merit=float, spread=float, x=(float, (view.n,)))

    # Variable bounds join the penalty instead of clipping the simplex:
    # clipped vertices collapse onto active-bound hyperplanes and degenerate.
    # One stack of the constraint rows over the variables serves the merit
    # and the final feasibility.
    cb, xb = view.con_bounds, view.var_bounds
    stacked = Bounds(np.concatenate([cb.lower, xb.lower]), np.concatenate([cb.upper, xb.upper]))

    def penalized(x):
        f = view.obj(x)
        return kit.merit_value(opts.kind, opts.rho, f, np.concatenate([view.con(x), x]), stacked)

    def on_iter(itr, x, fbest, spread):
        ctx.emit(itr=itr, merit=fbest, spread=spread, x=x)

    state = _nelder_mead_loop(penalized, view.x0, Bounds.unbounded(view.n),
                              maxiter=opts.maxiter, opt_tol=opts.opt_tol,
                              init_scale=opts.init_scale, on_iter=on_iter)
    x = state["x"]
    f = view.obj(x)
    feas = float(np.max(stacked.violation(np.concatenate([view.con(x), x]))))
    converged = state["converged"] and feas <= opts.feas_tol
    return ctx.finish(x, f, state["spread"], feas, state["niter"], converged)


def sqp(problem, **options):
    """Sequential quadratic programming with a BFGS Lagrangian Hessian.

    The Hessian approximation is kept in inverse form, H^-1, and the
    ``HessianApprox`` itself is passed to ``qp_solve(..., inverse=True)``,
    which reads it only through ``dot``: no QP folds its pending columns or
    copies it, so it is folded once per eight updates.  The BFGS curvature
    guard keeps it positive definite, so the QP checks nothing.  The QP is a
    dual active set that starts at the unconstrained minimizer and updates
    (N H^-1 N')^-1 as rows join or leave, so no iteration factorizes a
    matrix and none needs a phase-1 feasible point.  H^-1 starts from I, and
    the first update that passes its guards is applied to gamma I with
    gamma = max(1, d'd / w'd) from that step d and Lagrangian-gradient
    change w, so the iteration count no longer grows with the cantilever's
    n (91 -> 26 iterations at n = 800).  The clamp at 1 keeps the start from
    shrinking: w'd / w'w, or d'd / w'd unclamped, stall scaled spacecraft
    at 500 iterations.

    Each iteration solves the QP linearization cl - c <= J p <= cu - c,
    xl - x <= p <= xu - x for a step p and signed multiplier estimates,
    line-searches the l1 merit with rho >= ||lam||_inf + 1, and
    moves the multipliers along lam + alpha*(lam_hat - lam).  Infeasible QPs
    trigger a feasibility-restoration descent step on ||violation||^2.
    """
    ctx = RunContext(problem, "sqp", options)
    view, opts = ctx.view, ctx.options
    ctx.declare_outputs(itr=int, obj=float, opt=float, feas=float,
                        x=(float, (view.n,)), lam=(float, (view.m,)))
    n, m = view.n, view.m
    cons, bounds = view.con_bounds, view.var_bounds
    cl, cu, xl, xu = cons.lower, cons.upper, bounds.lower, bounds.upper
    x = bounds.clip(view.x0)
    lam = np.zeros(m)
    bound_mult = np.zeros(n)
    f = view.obj(x)
    g = view.grad(x)
    c = view.con(x)
    J = view.jac(x)

    approx = kit.HessianApprox(n=n, variant="bfgs", inverse=True)
    update = _ScaledStart(approx, _sqp_start_scale)
    rho = 1.0
    restorations = 0
    itr = 0

    def kkt_residual(g, J, lam, mu):
        return float(np.max(np.abs(g - mu - J.T @ lam)))

    while True:
        v = cons.violation(c)
        feas = float(np.max(v, initial=0.0))
        opt = kkt_residual(g, J, lam, bound_mult)
        ctx.emit(itr=itr, obj=f, opt=opt, feas=feas, x=x, lam=lam)
        if opt <= opts.opt_tol and feas <= opts.feas_tol:
            converged = True
            break
        if itr >= opts.maxiter:
            converged = False
            break
        itr += 1

        try:
            # the step bounds xl - x and xu - x can overflow to an absent -inf/+inf
            p, lam_hat, mu_hat = kit.qp_solve(approx, g, J, cl - c, cu - c, inverse=True,
                                              lower=xl - x, upper=xu - x)
        except kit.QpError as exc:
            restorations += 1
            if restorations > 5:
                raise SolverError(f"QP subproblem failed {restorations} times in a row: {exc}") from exc
            x = _restore_feasibility(view, x, c, J)
            f, g, c, J = view.obj(x), view.grad(x), view.con(x), view.jac(x)
            continue
        restorations = 0

        # x is already optimal once the fresh multipliers certify it
        if kkt_residual(g, J, lam_hat, mu_hat) <= opts.opt_tol and feas <= opts.feas_tol:
            lam, bound_mult = lam_hat, mu_hat
            continue

        rho = max(rho, float(np.max(np.abs(lam_hat), initial=0.0)) + 1.0)
        merit0 = kit.merit_value("l1", rho, f, c, cons)
        slope0 = float(g @ p) - rho * float(np.sum(v))

        def phi(a):
            xa = bounds.clip(x + a * p)
            return kit.merit_value("l1", rho, view.obj(xa), view.con(xa), cons)

        if slope0 >= -1e-16 or float(np.max(np.abs(p))) <= 1e-14 * (1.0 + float(np.max(np.abs(x)))):
            alpha = 1.0
        else:
            alpha = kit.line_search("armijo", phi, f0=merit0, slope0=slope0).alpha
        x = bounds.clip(x + alpha * p)
        f, c = view.obj(x), view.con(x)

        lam_new = lam + alpha * (lam_hat - lam)
        g_new = view.grad(x)
        J_new = view.jac(x)
        # secant pair for the Lagrangian Hessian at fixed new multipliers
        w = (g_new - J_new.T @ lam_new) - (g - J.T @ lam_new)
        update(alpha * p, w)
        lam, bound_mult = lam_new, mu_hat
        g, J = g_new, J_new

    return ctx.finish(x, f, opt, feas, itr, converged, multipliers=lam)


def _sqp_start_scale(d, w):
    # max(1, d'd / w'd), clamped at 1 (the sqp docstring says why)
    wd = float(w @ d)
    return max(1.0, float(d @ d) / wd) if wd > 0.0 else 0.0


def _restore_feasibility(view, x, c, J):
    """The point one descent step on 0.5*||violation||^2 reaches after an infeasible QP."""
    cons, bounds = view.con_bounds, view.var_bounds
    r = cons.signed_violation(c)
    grad_v = J.T @ r
    norm = float(np.linalg.norm(grad_v))
    if norm == 0.0:
        raise SolverError("QP infeasible and the violation gradient vanishes; cannot restore")

    def psi(a):
        va = cons.violation(view.con(bounds.clip(x - a * grad_v)))
        return 0.5 * float(va @ va)

    v0 = cons.violation(c)
    res = kit.line_search("armijo", psi, f0=0.5 * float(v0 @ v0),
                          slope0=-norm ** 2, alpha0=1.0 / max(1.0, norm))
    return bounds.clip(x - res.alpha * grad_v)
