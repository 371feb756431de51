"""Gradient-based unconstrained solvers: steepest descent, Newton, quasi-Newton.

All three run the same line-searched descent loop and differ only in the
rule that picks the search direction p_k.
"""

import logging
import math

import numpy as np

from .. import kit
from ..problem import EvaluationError, _is_finite
from .base import RunContext, SolverError

log = logging.getLogger(__name__)

_STEP_OPTIONS = {"use_line_search": (bool, True), "alpha": (float, 1.0)}


def _descent_loop(obj, grad, x0, bounds, direction, *, ls_kind, maxiter, opt_tol,
                  use_line_search=True, alpha=1.0, on_step=None, emit=None,
                  refine_grad=None):
    """Line-searched (or fixed-alpha) descent shared by every gradient solver.

    ``direction(x, f, g, pg)`` returns the search direction p, the line
    search's initial step and the slope g @ p, which the line search reuses;
    ``pg`` is the projected gradient at ``x``, computed once per iterate.
    ``obj``/``grad`` evaluate the (scaled) objective at trial points clipped
    into the ``bounds`` (a Bounds) by closures built once per run, whose
    caches are cleared at each iterate.  ``on_step(d)`` sees each step, and
    ``emit(itr=, obj=, opt=, x=)`` each iterate.
    ``refine_grad()`` is called once, at the first iterate whose projected
    gradient norm is at most 10 ``opt_tol``; when it returns True the
    gradient is taken again there.  A step that leaves x with the same bits
    ends the loop unconverged, since every later step would repeat it.
    Returns a dict with the terminal state.
    """
    clip, project = bounds.clip, bounds.project
    x = clip(np.array(x0, dtype=float))
    f = obj(x)
    g = grad(x)

    # trial step -> clipped point, gradient there.  The view repeats only the
    # last request of each kind, and a composite gradient (quadratic_penalty's
    # grad + rho J'r) asks several kinds at each trial, so the accepted
    # step's gradient is kept here, not asked for again: without ``grads``
    # quadratic_penalty on spacecraft:10 makes 33 more con calls.  The line
    # search asks phi(a) before dphi(a), so dphi finds its point in ``points``
    points, grads = {}, {}

    def phi(a):
        xa = points[a] = clip(x + a * p)
        return obj(xa)

    def dphi(a):
        ga = grads[a] = grad(points[a])
        return float(ga.dot(p))

    itr = 0
    while True:
        # g at x, its projection and the projection's norm
        pg = project(g, x)
        opt = math.sqrt(pg.dot(pg))
        if refine_grad is not None and opt <= 10.0 * opt_tol:
            refined, refine_grad = refine_grad(), None
            if refined:
                g = grad(x)
                continue
        if emit is not None:
            emit(itr=itr, obj=f, opt=opt, x=x)
        if opt <= opt_tol or itr >= maxiter:
            break
        itr += 1
        p, alpha0, slope = direction(x, f, g, pg)
        if use_line_search:
            points.clear()
            grads.clear()
            res = kit.line_search(ls_kind, phi, dphi, f0=f, slope0=slope, alpha0=alpha0)
            if not res.converged:
                log.debug("line search did not converge; continuing with best alpha %g", res.alpha)
            x_new = points.get(res.alpha)
            if x_new is None:       # the wolfe search fell back to alpha = 0
                x_new = clip(x + res.alpha * p)
            f_new = res.f_new
            g_new = grads.get(res.alpha)
        else:
            x_new = clip(x + alpha * p)
            f_new = obj(x_new)
            g_new = None
        if not _is_finite(x_new):
            raise EvaluationError(f"descent step {itr} produced a non-finite iterate", x=x_new)
        if x_new.tobytes() == x.tobytes():
            itr -= 1    # the accepted step left x as it was: stop unconverged
            break
        if g_new is None:
            g_new = grad(x_new)
        if on_step is not None:
            on_step(x_new - x)
        x, f, g = x_new, f_new, g_new

    return {"x": x, "f": f, "opt": opt, "niter": itr, "converged": opt <= opt_tol}


def _solve(ctx, direction, ls_kind, on_step=None):
    """Run the descent loop on the context's view and report there."""
    view, opts = ctx.view, ctx.options
    ctx.declare_outputs(itr=int, obj=float, opt=float, x=(float, (view.n,)))
    state = _descent_loop(view.obj, view.grad, view.x0, view.var_bounds,
                          direction, ls_kind=ls_kind, maxiter=opts.maxiter,
                          opt_tol=opts.opt_tol, use_line_search=opts.use_line_search,
                          alpha=opts.alpha, on_step=on_step, emit=ctx.emit,
                          refine_grad=view.central_fd_grad)
    return ctx.finish(state["x"], state["f"], state["opt"], state["niter"], state["converged"])


def steepest_descent(problem, **options):
    """Gradient descent with an Armijo backtracking line search.

    Terminates when the (projected) gradient 2-norm drops below ``opt_tol``.
    With ``use_line_search=False`` a fixed step ``alpha`` is taken instead.
    """
    ctx = RunContext(problem, "steepest_descent", options, _STEP_OPTIONS, unconstrained=True)
    f_prev = None

    def direction(x, f, g, pg):
        nonlocal f_prev
        p = -pg
        if f_prev is None:
            # first gradient step has no natural unit scale; open the line search
            # at ~1/|g| and then at the step predicted from the previous decrease
            f_prev = f + 0.5 * float(np.linalg.norm(p))
        slope = float(g.dot(p))
        alpha0 = 1.0
        if slope < 0.0:
            alpha0 = min(1.0, 1.01 * 2.0 * (f - f_prev) / slope)
            if alpha0 <= 0.0:
                alpha0 = 1.0
        f_prev = f
        return p, alpha0, slope

    return _solve(ctx, direction, "armijo")


def _regularized_newton_step(H, g):
    """Solve H p = -g, adding mu*I (mu doubling) until the factorization is PD."""
    n = g.size
    try:
        L = np.linalg.cholesky(H)
        return np.linalg.solve(L.T, np.linalg.solve(L, -g))
    except np.linalg.LinAlgError:
        pass
    mu = 1e-6 * float(np.linalg.norm(H, np.inf))
    if mu == 0.0:
        mu = 1e-12
    for _ in range(60):
        try:
            L = np.linalg.cholesky(H + mu * np.eye(n))
            return np.linalg.solve(L.T, np.linalg.solve(L, -g))
        except np.linalg.LinAlgError:
            mu *= 2.0
    raise SolverError("Hessian still singular after 60 regularization doublings")


def newton(problem, **options):
    """Newton's method on the objective Hessian (analytic or FD).

    Indefinite Hessians are shifted by a doubling diagonal term until the
    Cholesky factorization succeeds.
    """
    ctx = RunContext(problem, "newton", options, _STEP_OPTIONS, unconstrained=True)
    view = ctx.view

    def direction(x, f, g, pg):
        p = _regularized_newton_step(view.obj_hess(x), g)
        slope = float(g.dot(p))
        if slope >= 0.0:
            p = -g
            slope = float(g.dot(p))
        return p, 1.0, slope

    return _solve(ctx, direction, "armijo")


class _ScaledStart:
    """Step hook ``(d, w)`` for a quasi-Newton ``approx`` whose first update
    that passes its guards is applied to gamma I in place of the current
    matrix, gamma = scale(d, w) from that step d and gradient change w.
    A gamma that is not positive and finite makes the plain update and tries
    again at the next step; an update skipped by a guard goes back to I.
    Setting ``fresh`` again (after a restart) re-arms it."""

    def __init__(self, approx, scale):
        self.approx, self.scale, self.fresh = approx, scale, True

    def __call__(self, d, w):
        approx = self.approx
        if self.fresh:
            gamma = self.scale(d, w)
            if 0.0 < gamma < math.inf:
                # a new M, so an H read earlier keeps its values
                approx.set_identity(gamma)
                self.fresh = approx.update(d, w)
                if self.fresh:
                    approx.reset()      # skipped by a guard: back to the identity
                return
        approx.update(d, w)


def _shanno_phua_scale(d, w):
    # w'd / w'w (Shanno & Phua 1978; Nocedal & Wright eq. 6.20)
    wd, ww = float(w @ d), float(w @ w)
    return wd / ww if wd > 0.0 and ww > 0.0 else 0.0


def _quasi_newton_rule(approx, scale=None):
    """Direction rule p = -H g for an inverse-mode ``approx`` and the step
    hook ``on_step(d)`` that updates it, with one product with H per
    direction.  The hook only holds the step d.  The next direction applies
    its update with w = g - g_old, the change between the gradients it was
    handed (where the loop refined the gradient, the refined one), so that
    H w = H g + p_old holds.  ``approx.update_dot`` takes H w and the
    updated H g from the one product H g.  The last step's update is never
    applied.  The approximation restarts from the identity when p is not a
    descent direction.  With a ``scale`` rule the first update that passes
    its guards, from the start or after a restart, is applied to
    scale(d, w) I in place of I (:class:`_ScaledStart`); that iteration
    alone takes a second product."""
    start = None if scale is None else _ScaledStart(approx, scale)
    d = g_old = p = None

    def on_step(step):
        nonlocal d
        d = step

    def direction(x, f, g, pg):
        nonlocal d, g_old, p
        if d is not None and start is not None and start.fresh:
            start(d, g - g_old)
            d = None
        Hg = approx.dot(g)
        if d is not None:
            Hg = approx.update_dot(d, g - g_old, Hg + p, g, Hg)[0]
            d = None
        p, g_old = -Hg, g
        slope = float(g.dot(p))
        if slope >= 0.0:
            log.debug("non-descent direction; resetting Hessian approximation")
            approx.reset()
            if start is not None:
                start.fresh = True
            p = -g
            slope = float(g.dot(p))
        return p, 1.0, slope

    return direction, on_step


def quasi_newton(problem, **options):
    """Quasi-Newton solver: p = -H g directions with a Wolfe line search.

    ``variant`` selects the update formula (bfgs, dfp, sr1, broyden), applied
    in inverse form to H, the inverse-Hessian approximation.  An iteration
    costs one matrix-vector product with H and no linear solve: H g at the
    new iterate gives both the direction p = -H g and the update's H w
    (broyden also takes H'd).  One fold of the pending updates into H
    follows per eight updates (sixteen for the rank-1 sr1 and broyden).
    H starts from the identity.  For bfgs the first update, and the first
    after a restart, is applied to gamma I with gamma = w'd / w'w from that
    step d and gradient change w, so H takes the problem's scale from the
    first step; the other variants update I itself.  dfp does not converge
    from the default start of rosen_coupled:8, 16 or 32 within 5000
    iterations.
    """
    ctx = RunContext(problem, "quasi_newton", options,
                     {**_STEP_OPTIONS, "variant": (str, "bfgs", (
                         lambda v: v in kit.HESSIAN_VARIANTS, f"be one of {kit.HESSIAN_VARIANTS}"))},
                     unconstrained=True)
    opts = ctx.options
    approx = kit.HessianApprox(n=ctx.view.n, variant=opts.variant, inverse=True)
    direction, on_step = _quasi_newton_rule(
        approx, _shanno_phua_scale if opts.variant == "bfgs" else None)
    return _solve(ctx, direction, "wolfe", on_step=on_step)
