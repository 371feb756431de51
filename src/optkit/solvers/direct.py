"""Derivative-free solvers: Nelder-Mead simplex, particle swarm, simulated annealing."""

import numpy as np

from ..problem import Bounds
from .base import _NONZERO_FINITE, RunContext, SolverError

# canonical simplex coefficients: reflection, expansion, contraction, shrink
REFLECT, EXPAND, CONTRACT, SHRINK = 1.0, 2.0, 0.5, 0.5

STAGNATION_WINDOW = 50
STAGNATION_IMPROVEMENT = 1e-12

# generator doubles simulated_annealing draws per call (n when n is larger)
_DRAW_BLOCK = 1024


def _nelder_mead_loop(fun, x0, bounds, *, maxiter, opt_tol, init_scale, on_iter=None):
    """Standard simplex iteration; vertices are clipped into the bounds.

    Terminates when both the objective spread and the simplex diameter are
    small, or at ``maxiter``.  Returns the terminal state as a dict.
    """
    clip = bounds.clip
    x0 = clip(np.array(x0, dtype=float))
    n = x0.size
    verts = [x0]
    for i in range(n):
        v = x0.copy()
        v[i] += init_scale * max(1.0, abs(x0[i]))
        verts.append(clip(v))
    verts = np.array(verts)
    fvals = np.array([fun(v) for v in verts])

    itr = 0
    while True:
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
        spread = float(fvals[-1] - fvals[0])
        if on_iter is not None:
            on_iter(itr, verts[0], float(fvals[0]), spread)
        if spread <= opt_tol:       # the diameter is measured only once the spread is small
            diameter = float(np.max(np.linalg.norm(verts[1:] - verts[0], axis=1))) if n else 0.0
            if diameter <= opt_tol * max(1.0, float(np.linalg.norm(verts[0]))):
                return {"x": verts[0], "f": float(fvals[0]), "spread": spread,
                        "niter": itr, "converged": True}
        if itr >= maxiter:
            return {"x": verts[0], "f": float(fvals[0]), "spread": spread,
                    "niter": itr, "converged": False}
        itr += 1

        centroid = np.add.reduce(verts[:-1], axis=0) / n     # np.mean's sum and divide
        worst, f_worst = verts[-1], fvals[-1]

        def trial(coef):
            point = clip(centroid + coef * (centroid - worst))
            return point, fun(point)

        x_r, f_r = trial(REFLECT)
        if f_r < fvals[0]:
            x_e, f_e = trial(EXPAND)
            verts[-1], fvals[-1] = (x_e, f_e) if f_e < f_r else (x_r, f_r)
            continue
        if f_r < fvals[-2]:
            verts[-1], fvals[-1] = x_r, f_r
            continue
        if f_r < f_worst:       # outside contraction
            x_c, f_c = trial(CONTRACT)
            if f_c <= f_r:
                verts[-1], fvals[-1] = x_c, f_c
                continue
        else:                   # inside contraction
            x_c, f_c = trial(-CONTRACT)
            if f_c < f_worst:
                verts[-1], fvals[-1] = x_c, f_c
                continue
        # shrink toward the best vertex
        for j in range(1, n + 1):
            verts[j] = clip(verts[0] + SHRINK * (verts[j] - verts[0]))
            fvals[j] = fun(verts[j])


def nelder_mead(problem, **options):
    """Nelder-Mead simplex search (reflection 1, expansion 2, contraction 1/2, shrink 1/2).

    The initial simplex offsets each coordinate of x0 by
    ``init_scale * max(1, |x0_i|)``; reported optimality is the simplex
    objective spread.
    """
    ctx = RunContext(problem, "nelder_mead", options,
                     {"init_scale": (float, 0.05, _NONZERO_FINITE)}, unconstrained=True)
    view, opts = ctx.view, ctx.options
    ctx.declare_outputs(itr=int, obj=float, spread=float, x=(float, (view.n,)))

    # names bound once per call (never at import, so patched methods are seen)
    emit = ctx.emit

    def on_iter(itr, x, f, spread):
        emit(itr=itr, obj=f, spread=spread, x=x)

    state = _nelder_mead_loop(view.obj, view.x0, view.var_bounds,
                              maxiter=opts.maxiter, opt_tol=opts.opt_tol,
                              init_scale=opts.init_scale, on_iter=on_iter)
    return ctx.finish(state["x"], state["f"], state["spread"], state["niter"], state["converged"])


# the random start and proposal stream, and the box they are drawn from
_SAMPLING_OPTIONS = {"seed": ((int, type(None)), None),
                     "sample_lower": ((list, tuple, type(None)), None),
                     "sample_upper": ((list, tuple, type(None)), None)}


def _sampling_box(view, opts):
    """The sampling box met with the variable bounds: every point is drawn and clipped there."""
    xb = view.var_bounds
    lower = xb.lower if opts.sample_lower is None else np.asarray(opts.sample_lower, dtype=float)
    upper = xb.upper if opts.sample_upper is None else np.asarray(opts.sample_upper, dtype=float)
    if lower.size != view.n or upper.size != view.n:
        raise SolverError(f"sampling box must have length n={view.n}")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise SolverError("unbounded variables: provide finite bounds or a sampling box "
                          "(sample_lower/sample_upper)")
    box = Bounds(lower, upper)      # a reversed box is a ProblemError
    lower, upper = np.maximum(box.lower, xb.lower), np.minimum(box.upper, xb.upper)
    if np.any(lower > upper):
        raise SolverError("the sampling box does not overlap the variable bounds")
    return Bounds(lower, upper)


def pso(problem, **options):
    """Particle swarm optimization over a finite box.

    Per iteration each velocity relaxes toward the personal and swarm bests
    and the position moves by it:

        v_next = w*v + c_p*r_p*(p_best - x) + c_g*r_g*(g_best - x)
        x_next = x + v_next

    with fresh scalar r_p, r_g ~ U[0,1] per particle per iteration.
    Terminates at ``maxiter`` or when the swarm best stalls (improvement below
    1e-12 over 50 iterations); reported optimality is the improvement over
    that window.
    """
    ctx = RunContext(problem, "pso", options,
                     {"n_particles": (int, 20, (lambda v: v >= 1, "be at least 1")),
                      "w": (float, 0.7), "c_p": (float, 1.5), "c_g": (float, 1.5),
                      **_SAMPLING_OPTIONS}, unconstrained=True)
    view, opts = ctx.view, ctx.options
    ctx.declare_outputs(itr=int, obj=float, x=(float, (view.n,)))
    box = _sampling_box(view, opts)
    width = box.upper - box.lower
    rng = np.random.default_rng(opts.seed)

    npart, n = opts.n_particles, view.n
    w, c_p, c_g, maxiter = opts.w, opts.c_p, opts.c_g, opts.maxiter
    pos = box.lower + rng.random((npart, n)) * width
    vel = rng.uniform(-1.0, 1.0, (npart, n)) * width

    obj, clip, random, emit = view.obj, box.clip, rng.random, ctx.emit
    p_best = pos.copy()
    p_best_f = np.array([obj(p) for p in pos])
    g_idx = int(np.argmin(p_best_f))
    g_best, g_best_f = p_best[g_idx].copy(), float(p_best_f[g_idx])

    window_start_f = g_best_f
    stall = 0
    itr = 0
    emit(itr=itr, obj=g_best_f, x=g_best)
    converged = False

    while itr < maxiter:
        itr += 1
        r_p = random((npart, 1))
        r_g = random((npart, 1))
        vel = (w * vel + c_p * r_p * (p_best - pos)
               + c_g * r_g * (g_best[None, :] - pos))
        pos = clip(pos + vel)

        for i in range(npart):
            fi = obj(pos[i])
            if fi < p_best_f[i]:
                p_best_f[i] = fi
                p_best[i] = pos[i]
                if fi < g_best_f:
                    g_best_f = fi
                    g_best = pos[i].copy()
        emit(itr=itr, obj=g_best_f, x=g_best)

        stall += 1
        if stall >= STAGNATION_WINDOW:
            if window_start_f - g_best_f <= STAGNATION_IMPROVEMENT:
                converged = True
                break
            window_start_f = g_best_f
            stall = 0

    improvement = window_start_f - g_best_f
    return ctx.finish(g_best, g_best_f, improvement, itr, converged and improvement <= opts.opt_tol)


def simulated_annealing(problem, **options):
    """Simulated annealing with Metropolis acceptance and linear cooling.

    Proposals are x + step_scale * width * u with u ~ U[-1,1]^n, clipped to the
    box.  Worse points are accepted with probability exp(-(f_new - f)/T_k)
    under T_k = T0*(1 - k/k_max), floored at 1e-12.  Runs the full schedule of
    ``k_max`` proposals and returns the best point ever seen, which each
    iteration emits with its objective.  Reported
    optimality is the best-objective improvement over the last full window of
    50 proposals (inf when ``k_max`` is shorter than one window); the run
    counts as converged when that improvement is at most ``opt_tol``.

    One seed gives one stream of generator doubles d, read in order: n per
    proposal (u = 2d - 1), then one more only when the proposal is worse.
    The stream is drawn in blocks of max(``_DRAW_BLOCK``, n) doubles, the unused
    tail of a block carried into the next, so a run is the same as with one
    ``rng.uniform(-1, 1, n)`` and one ``rng.random()`` per draw: every
    generator double is k 2^-53, so 2d - 1 is exact and has the bits that
    ``uniform(-1, 1)`` computes from the same d.
    """
    ctx = RunContext(problem, "simulated_annealing", options,
                     {"T0": (float, 10.0, (lambda v: not np.isnan(v), "not be NaN")),
                      "k_max": (int, 5000, (lambda v: v >= 0, "be at least 0")),
                      "step_scale": (float, 0.1, _NONZERO_FINITE), **_SAMPLING_OPTIONS},
                     unconstrained=True)
    view, opts = ctx.view, ctx.options
    ctx.declare_outputs(itr=int, obj=float, T=float, x=(float, (view.n,)))
    box = _sampling_box(view, opts)
    width = box.upper - box.lower
    rng = np.random.default_rng(opts.seed)

    T0, k_max, n = opts.T0, opts.k_max, view.n
    step = opts.step_scale * width

    obj, clip, random, emit, exp = view.obj, box.clip, rng.random, ctx.emit, np.exp
    block = max(_DRAW_BLOCK, n)
    x = clip(view.x0)
    f = obj(x)
    best_x, best_f = x.copy(), f
    window_best = best_f
    improvement = np.inf        # no window has closed yet
    emit(itr=0, obj=best_f, T=T0, x=best_x)

    def refill(tail):
        d = np.concatenate((tail, random(block)))
        return d, 2.0 * d - 1.0

    # d: the drawn doubles, read from d[pos] on, and u = 2d - 1 beside them
    d = u = np.empty(0)
    pos = 0
    for k in range(k_max):
        T = max(T0 * (1.0 - k / k_max), 1e-12)
        if pos + n > d.size:
            d, u = refill(d[pos:])
            pos = 0
        x_new = clip(x + step * u[pos:pos + n])
        pos += n
        f_new = obj(x_new)
        accept = f_new <= f
        if not accept:
            if pos == d.size:
                d, u = refill(d[pos:])
                pos = 0
            accept = d[pos] < exp(-(f_new - f) / T)
            pos += 1
        if accept:
            x, f = x_new, f_new
            if f < best_f:
                best_x, best_f = x.copy(), f
        if (k + 1) % STAGNATION_WINDOW == 0:
            improvement = window_best - best_f
            window_best = best_f
        emit(itr=k + 1, obj=best_f, T=T, x=best_x)

    return ctx.finish(best_x, best_f, improvement, k_max, improvement <= opts.opt_tol)
